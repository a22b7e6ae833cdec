"""Self-verification suites.

Eight named checks, each confronting a fast route (closed forms, the
classification tables, graph combinatorics) with an independent slow
route (exact linear algebra, brute enumeration).  The same checks back
the command-line `verify` subcommand and the acceptance tests.

Levels: "quick" is a smoke pass in seconds, "full" runs the documented
ranges; `run_check`, and so `run_suite`, refuse any other level with a
ValueError before a check runs.  Check output is deterministic for a
fixed seed; timings are reported separately and never enter the details.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache

# Functions of the other modules are looked up in them at call time: this
# module is loaded on demand, possibly after a profiler has wrapped some
# of them there, and a from-import would keep what was bound at load.
# homalg, indexmod and classify are imported in the checks that use them,
# so random-modules loads none of them.
from . import modmatrix, words
from .words import AlgebraParams, Word

# ---------------------------------------------------------------------------
# the published tables for a = b = 3 (the yardstick of checks 1 and 2)
# ---------------------------------------------------------------------------

GOLDEN_REGULAR_33 = {
    2: {(("xy", 1),): 3},
    3: {(("xxy", 1),): 7, (("xyy", 1),): 7},
    4: {(("xxyy", 1),): 13},
    5: {(("xxy", 1), ("xy", 1)): 20, (("xyy", 1), ("xy", 1)): 20},
    6: {(("xxy", 2),): 28, (("xyy", 2),): 28, (("xxy", 1), ("xyy", 1)): 30},
    7: {(("xxyy", 1), ("xxy", 1)): 40, (("xxyy", 1), ("xyy", 1)): 40},
    8: {(("xxy", 2), ("xy", 1)): 51, (("xyy", 2), ("xy", 1)): 51,
        (("xxyy", 2),): 52, (("xxy", 1), ("xyy", 1), ("xy", 1)): 53},
    9: {(("xxy", 3),): 63, (("xyy", 3),): 63,
        (("xxy", 2), ("xyy", 1)): 67, (("xxy", 1), ("xyy", 2)): 67},
    10: {(("xxyy", 1), ("xxy", 2)): 81, (("xxyy", 1), ("xyy", 2)): 81,
         (("xxyy", 1), ("xxy", 1), ("xyy", 1)): 83},
    11: {(("xxy", 3), ("xy", 1)): 96, (("xyy", 3), ("xy", 1)): 96,
         (("xxyy", 2), ("xxy", 1)): 99, (("xxyy", 2), ("xyy", 1)): 99,
         (("xxy", 2), ("xyy", 1), ("xy", 1)): 100,
         (("xxy", 1), ("xyy", 2), ("xy", 1)): 100},
    12: {(("xxy", 4),): 112, (("xyy", 4),): 112, (("xxyy", 3),): 117,
         (("xxy", 3), ("xyy", 1)): 118, (("xxy", 1), ("xyy", 3)): 118,
         (("xxy", 2), ("xyy", 2)): 120},
}

GOLDEN_ORBIT_33 = {
    5: {("xxyy",): 20},
    7: {("xxyxyy",): 40},
    8: {("xxyxxyy",): 52, ("xxyyxyy",): 52},
    9: {("xxyyxxyy",): 66, ("xxyxyxyy",): 66},
    10: {("xxyy", "xxyy"): 80, ("xxyxxyxyy",): 82, ("xxyxyyxyy",): 82},
    11: {("xxyxxyxxyy",): 98, ("xxyyxyyxyy",): 98, ("xxyxxyyxyy",): 100},
    12: {("xxyy", "xxyxyy"): 117, ("xxyyxxyyxyy",): 118,
         ("xxyxxyyxxyy",): 118, ("xxyxxyxyxyy",): 118,
         ("xxyxyxyyxyy",): 118},
}


class CheckFailure(Exception):
    pass


CheckResult = namedtuple("CheckResult", "name passed detail seconds")


# ---------------------------------------------------------------------------
# random modules (check 7 and anyone else who wants fuzz input)
# ---------------------------------------------------------------------------

def _pool(seq):
    """seq as a pool for _pick: (its entries padded with None to 2**k
    slots, k), with k = len(seq).bit_length()."""
    k = len(seq).bit_length()
    return tuple(seq) + (None,) * ((1 << k) - len(seq)), k


def _pick(getrandbits, pool):
    """rng.choice(seq) for the pool of seq, given rng.getrandbits: it
    draws k bits and draws again while they land on a pad, which is the
    one _randbelow(len(seq)) call of Random.choice, call for call, so
    the value and the stream are the same."""
    seq, k = pool
    v = seq[getrandbits(k)]
    while v is None:
        v = seq[getrandbits(k)]
    return v


# the algebras the sampler draws from, built once: one choice over seven
# entries per module, as over any seven-entry sequence
_PARAMS = tuple(AlgebraParams(a, b) for a, b in
                [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4)])
_ALGEBRAS = _pool(_PARAMS)

# every bounded integer the sampler draws is a _pick over one of these
# pools (or over a run pool of _POOLS): it draws as the one
# _randbelow(width) call of rng.randint(lo, hi) and maps it to the same
# value, so the stream is the same
_MAX_LENGTH = 5
_LENGTHS = _pool(range(_MAX_LENGTH + 1))  # randint(0, 5): letters in a string text
_SUMMANDS = _pool((1, 2, 3))       # randint(1, 3): summands of a module
_ONE_OR_TWO = _pool((1, 2))        # randint(1, 2): run pairs, band layers
_LAMBDAS = _pool((1, 2, 3, 4, 5))  # randint(1, 5): a band's lambda


def _sampler_pools(params):
    """(steps, x runs, y runs, bands) for the sampler over params, each
    choice as a pool: steps pools words.letter_steps to length 5, and the
    runs are "x" .. "x" * (a - 1) and "y" .. "y" * (b - 1).  A one-text
    step still draws, so the RNG sees the same calls whichever applies.
    bands maps the text of every band word _random_band_word can draw,
    one run pair x^i y^j or two unequal ones, to its Word, validated
    here once."""
    steps = words.letter_steps(params, _MAX_LENGTH)
    xruns, yruns = ([letter * k for k in range(1, bound)]
                    for letter, bound in zip("xy", params))
    pairs = [x + y for x in xruns for y in yruns]
    bands = pairs + [p + q for p in pairs for q in pairs if p != q]
    return ({text: _pool(step) for text, step in steps.items()},
            _pool(xruns), _pool(yruns), {text: Word(text, params) for text in bands})


# the pools of each pool algebra, built once; the two draws below take a
# pool algebra
_POOLS = {params: _sampler_pools(params) for params in _PARAMS}


def _random_string_text(rng, params):
    """The text of a random valid string word of length <= 5, drawn
    letter by letter among those that keep every run within its cap."""
    getrandbits, steps = rng.getrandbits, _POOLS[params][0]
    text = ""
    for _ in range(_pick(getrandbits, _LENGTHS)):
        text = _pick(getrandbits, steps[text])
    return text


@lru_cache(maxsize=1024)
def _string_summand(text, params):
    """M(text) over params, built once per (text, params): keyed on the
    params too, since Word equality ignores them.  The sampler's pool
    (seven parameter sets, texts of length <= 5) has fewer keys than the
    bound, so nothing is evicted; it is safe to share because modules
    are never modified once built."""
    return modmatrix.string_module(Word(text, params))


def _random_band_word(rng, params):
    # alternating x/y runs always make a valid band; a single run pair is
    # automatically primitive, and x^i y^j x^k y^l is periodic, so
    # resampled, iff (i, j) = (k, l); the Word comes from the pool table
    getrandbits, (_, xruns, yruns, bands) = rng.getrandbits, _POOLS[params]
    for _ in range(8):
        chunks = []
        for _ in range(_pick(getrandbits, _ONE_OR_TWO)):
            chunks += _pick(getrandbits, xruns), _pick(getrandbits, yruns)
        if chunks[:2] != chunks[2:]:
            return bands["".join(chunks)]
    return bands["xy"]


def random_module(rng):
    """(module, draws): a seeded random direct sum of one to three string
    and band modules over a pool algebra (strings of length <= 5), and
    the (text, layers) drawn for each summand in block order, layers None
    for a string.  Every bounded draw is a _pick on rng.getrandbits, the
    same calls rng.choice would make.  String summands come from the
    _string_summand memo; a band's Word comes from the pool table of
    _sampler_pools, and the band shares the frame that modmatrix builds
    once per (word, layers) and gets fresh lambda rows.  A lone summand
    is the module itself."""
    getrandbits = rng.getrandbits
    params = _pick(getrandbits, _ALGEBRAS)
    parts, draws = [], []
    for _ in range(_pick(getrandbits, _SUMMANDS)):
        if rng.random() < 0.3:
            word = _random_band_word(rng, params)
            layers = _pick(getrandbits, _ONE_OR_TWO)
            lambdas = [_pick(getrandbits, _LAMBDAS) for _ in range(layers)]
            parts.append(modmatrix.band_module(word, lambdas))
            draws.append((str(word), layers))
        else:
            text = _random_string_text(rng, params)
            parts.append(_string_summand(text, params))
            draws.append((text, None))
    return modmatrix.direct_sum(parts), draws


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _family_key(comp):
    return tuple((str(w), m) for w, m in comp.family)


def _check_regular_table(level, seed):
    from . import classify
    top = 12 if level == "full" else 8
    rows = 0
    for n in range(2, top + 1):
        params = classify.normalize_params(n, 3, 3)
        got = {_family_key(c): c.dim
               for c in classify.regular_components(n, params)}
        if got != GOLDEN_REGULAR_33[n]:
            raise CheckFailure(f"regular components differ at n = {n}: "
                               f"{got} != {GOLDEN_REGULAR_33[n]}")
        rows += len(got)
    return f"{rows} regular components over n = 2..{top}"


def _check_orbit_table(level, seed):
    from . import classify
    top = 12 if level == "full" else 8
    rows = 0
    for n in range(2, top + 1):
        params = classify.normalize_params(n, 3, 3)
        comps = classify.nonregular_components(n, params)
        proj = {tuple(str(w) for w in c.strings): c.dim
                for c in comps if c.side == "semi-projective"}
        want = GOLDEN_ORBIT_33.get(n, {})
        if proj != want:
            raise CheckFailure(f"orbit components differ at n = {n}: "
                               f"{proj} != {want}")
        inj = {tuple(str(w) for w in c.strings): c.dim
               for c in comps if c.side == "semi-injective"}
        mirrored = {
            tuple(sorted((s[::-1] for s in key), key=lambda t: (len(t), t))): d
            for key, d in proj.items()}
        if inj != mirrored:
            raise CheckFailure(f"reflected components differ at n = {n}")
        rows += len(comps)
    return f"{rows} orbit components (both sides) over n = 2..{top}"


def _check_nnn(level, seed):
    from . import classify
    top = 7 if level == "full" else 5
    for n in range(2, top + 1):
        ref = [(c.a_part, c.b_part, _family_key(c), c.dim)
               for c in classify.nnn_components(n)]
        got = [(c.a_part, c.b_part, _family_key(c), c.dim)
               for c in classify.components(n, n, n)]
        if got != ref:
            raise CheckFailure(f"V(n, n, n) components differ at n = {n}")
        if len(ref) != n - 1 or any(d != n * n - n + 1 for *_, d in ref):
            raise CheckFailure(f"V(n, n, n) shape wrong at n = {n}: {ref}")
    return f"n = 2..{top}: n - 1 components of dimension n^2 - n + 1"


def _check_hom_agreement(level, seed):
    from . import homalg
    if level == "full":
        max_len, grids = 6, [(3, 3), (2, 3), (4, 3)]
    else:
        max_len, grids = 4, [(3, 3), (2, 3)]
    pairs = 0
    for a, b in grids:
        strings = words.enumerate_words(max_len, AlgebraParams(a, b))
        mods = [modmatrix.string_module(w) for w in strings]
        graph = homalg.hom_table(strings, strings)
        oracle = homalg.hom_oracle_table(mods, mods)
        for w1, graph_row, oracle_row in zip(strings, graph, oracle):
            if graph_row != oracle_row:
                w2, g, o = next(t for t in zip(strings, graph_row, oracle_row)
                                if t[1] != t[2])
                raise CheckFailure(
                    f"Hom({w1}, {w2}) at ({a}, {b}): "
                    f"graph count {g}, linear algebra {o}")
        pairs += len(strings) ** 2
    return f"{pairs} string pairs across {len(grids)} parameter sets"


def _check_stratum_dims(level, seed):
    from . import classify, homalg, indexmod
    if level == "full":
        top, bounds = 10, [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
    else:
        top, bounds = 6, [(2, 2), (2, 3), (3, 3)]
    regular = semiproj = formulas = 0

    def stratum_of(pair, idx):
        # the stratum dimension of idx, once idx is an index module
        if not indexmod.is_index_module(idx, n, params):
            raise CheckFailure(f"not an index module at {pair}, ({a}, {b}):"
                               f" {[str(w) for w in idx]}")
        return indexmod.stratum_dim(idx, n, params)

    for n in range(2, top + 1):
        for a, b in bounds:
            params = classify.normalize_params(n, a, b)
            for pair in classify.regular_pairs(n, params):
                stratum = stratum_of(
                    pair, indexmod.index_of_regular_stratum(*pair, params))
                delta = classify.delta_dim(*pair, params)
                if delta != stratum:
                    raise CheckFailure(
                        f"delta formula vs index module at {pair}, ({a}, {b}):"
                        f" {delta} != {stratum}")
                regular += 1
            for pair in classify.regular_pairs(n, params, extra=1):
                word, idx = indexmod.semiproj_index(*pair, params)
                stratum = stratum_of(pair, idx)
                orbit = homalg.orbit_dim([word])
                if orbit != stratum:
                    raise CheckFailure(
                        f"open orbit vs stratum at {pair}, ({a}, {b}): "
                        f"{orbit} != {stratum}")
                try:
                    closed = classify.open_orbit_dim_formula(*pair, params)
                except ValueError:
                    closed = None
                if closed is not None:
                    if closed != orbit:
                        raise CheckFailure(
                            f"closed form at {pair}, ({a}, {b}): "
                            f"{closed} != {orbit}")
                    formulas += 1
                if (a, b) == (3, 3):
                    table = GOLDEN_ORBIT_33.get(n, {}).get((str(word),))
                    if table is not None and table != orbit:
                        raise CheckFailure(
                            f"table value at {pair}: {table} != {orbit}")
                semiproj += 1
    return (f"{regular} regular and {semiproj} semi-projective strata, "
            f"{formulas} closed-form values")


def _check_remarks(level, seed):
    from . import classify, homalg
    # a string used once may carry self-extensions and still give a
    # component: the open string of dimension 9
    p33 = AlgebraParams(3, 3)
    w = Word("xxyxyxyy", p33)
    if homalg.ext1_vanishes(w, w):
        raise CheckFailure("Ext^1(M(xxyxyxyy), M(xxyxyxyy)) should not vanish")
    rows = {tuple(str(u) for u in c.strings): c.dim
            for c in classify.nonregular_components(9, p33)
            if c.side == "semi-projective"}
    if rows.get(("xxyxyxyy",)) != 66:
        raise CheckFailure(f"xxyxyxyy should give a 66-dimensional component,"
                           f" got {rows}")
    # the smallest variety with orbit components: two open orbits at n = 3
    comps = classify.components(3, 2, 2)
    summary = sorted((c.kind, c.dim, tuple(str(w) for w in c.strings))
                     for c in comps)
    if summary != [("orbit", 6, ("xy",)), ("orbit", 6, ("yx",))]:
        raise CheckFailure(f"V(3, 2, 2) should be two 6-dimensional orbit "
                           f"closures, got {summary}")
    return "self-extension exemption and V(3, 2, 2) both as published"


def _check_random_modules(level, seed):
    import random
    count = 10_000 if level == "full" else 500
    rng = random.Random(seed)
    for k in range(count):
        mod, draws = random_module(rng)
        if not mod.verify_relations():
            raise CheckFailure(f"relations fail at sample {k}: "
                               f"{mod.to_json()}")
        rka, rkb = mod.A.rank(), mod.B.rank()
        strings = xs = ys = 0
        for text, layers in draws:
            strings += layers is None
            xs += (layers or 1) * text.count("x")
            ys += (layers or 1) * text.count("y")
        if rka + rkb != mod.n - strings:
            raise CheckFailure(
                f"rank bookkeeping fails at sample {k}: rkA + rkB = "
                f"{rka + rkb}, n - #strings = {mod.n - strings}")
        if rka != xs or rkb != ys:
            raise CheckFailure(
                f"letter-count ranks fail at sample {k}: "
                f"({rka}, {rkb}) != ({xs}, {ys})")
    return f"{count} random modules, seed {seed}"


def _check_regular_density(level, seed):
    from . import classify
    if level == "full":
        top, bounds = 12, [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
    else:
        top, bounds = 8, [(2, 2), (2, 3), (3, 3)]
    cases = 0
    for n in range(2, top + 1):
        for a, b in bounds:
            params = classify.normalize_params(n, a, b)
            empty = not classify.nonregular_components(n, params)
            dense = classify.regular_dense(n, a, b)
            if empty != dense:
                raise CheckFailure(
                    f"density criterion fails at n = {n}, ({a}, {b}): "
                    f"criterion {dense}, enumeration "
                    f"{'empty' if empty else 'nonempty'}")
            cases += 1
    return f"{cases} (n, a, b) cases"


CHECKS = [
    ("regular-table", _check_regular_table),
    ("orbit-table", _check_orbit_table),
    ("nnn-components", _check_nnn),
    ("hom-agreement", _check_hom_agreement),
    ("stratum-dims", _check_stratum_dims),
    ("remarks", _check_remarks),
    ("random-modules", _check_random_modules),
    ("regular-density", _check_regular_density),
]


def run_check(name, level="quick", seed=0) -> CheckResult:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}; have quick, full")
    fn = dict(CHECKS).get(name)
    if fn is None:
        raise ValueError(f"unknown check {name!r}; have "
                         f"{', '.join(n for n, _ in CHECKS)}")
    t0 = time.perf_counter()
    try:
        detail = fn(level, seed)
        passed = True
    except CheckFailure as exc:
        detail = str(exc)
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def run_suite(level="quick", seed=0, names=None) -> list:
    """Run the named checks (all by default), one after another, and
    return their results in listing order."""
    picked = [n for n, _ in CHECKS] if names is None else list(names)
    unknown = [n for n in picked if n not in dict(CHECKS)]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return [run_check(n, level, seed) for n in picked]
