import hashlib
import itertools
import json
import random

import pytest

from nilvar import classify, homalg, modmatrix, verify
from nilvar.exactla import RationalMatrix
from nilvar.modmatrix import MatrixPairModule, band_module, direct_sum, string_module
from nilvar.verify import CheckResult, run_check, run_suite, random_module
from nilvar.words import AlgebraParams, Word, band_class, enumerate_words


def test_quick_suite_passes():
    results = run_suite("quick", seed=7)
    assert [r.name for r in results] == [n for n, _ in verify.CHECKS]
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.seconds >= 0.0
        assert r.detail


def test_named_subset_and_order():
    results = run_suite("quick", seed=0, names=["remarks", "nnn-components"])
    assert [r.name for r in results] == ["remarks", "nnn-components"]


def test_unknown_names_raise():
    with pytest.raises(ValueError):
        run_check("no-such-check")
    with pytest.raises(ValueError):
        run_suite("quick", names=["regular-table", "bogus"])


@pytest.mark.parametrize("level", ["Full", "slow", ""])
def test_unknown_level_raises_before_any_check(monkeypatch, level):
    # a misspelt level must not fall through to the quick ranges, as
    # `run_suite("Full", names=["nnn-components"])` reporting n = 2..5
    ran = []
    monkeypatch.setattr(verify, "CHECKS", [
        (name, lambda lv, seed, name=name: ran.append(name))
        for name, _ in verify.CHECKS])
    with pytest.raises(ValueError, match="unknown level .*; have quick, full"):
        run_check("nnn-components", level)
    with pytest.raises(ValueError, match="unknown level .*; have quick, full"):
        run_suite(level, names=["nnn-components"])
    with pytest.raises(ValueError, match="unknown level .*; have quick, full"):
        run_suite(level)
    assert ran == []


def off_by_one(real):
    return lambda *args: real(*args) + 1


def negated(real):
    return lambda *args: not real(*args)


def without_side(real, side):
    return lambda n, params: [c for c in real(n, params) if c.side != side]


# per check, each way it can fail: (check, patch, a case the detail names).
# A patch changes the fast route that the check holds to its reference,
# or for regular-table and the orbit table value the published table
FAILURES = [
    ("regular-table",
     lambda patch: patch.setitem(verify.GOLDEN_REGULAR_33, 2, {(("xy", 1),): 999}),
     "regular components differ at n = 2"),
    ("orbit-table",
     lambda patch: patch.setattr(classify, "nonregular_components", without_side(
         classify.nonregular_components, "semi-projective")),
     "orbit components differ at n = 5: {} != {('xxyy',): 20}"),
    ("orbit-table",
     lambda patch: patch.setattr(classify, "nonregular_components", without_side(
         classify.nonregular_components, "semi-injective")),
     "reflected components differ at n = 5"),
    ("nnn-components",
     lambda patch: patch.setattr(classify, "nnn_components", lambda n: []),
     "V(n, n, n) components differ at n = 2"),
    ("nnn-components",
     lambda patch: (patch.setattr(classify, "nnn_components", lambda n: []),
                    patch.setattr(classify, "components", lambda n, a, b: [])),
     "V(n, n, n) shape wrong at n = 2: []"),
    ("stratum-dims",
     lambda patch: patch.setattr(classify, "delta_dim", off_by_one(classify.delta_dim)),
     "delta formula vs index module at (Partition([2]), Partition([2])), (2, 2): "
     "4 != 3"),
    ("stratum-dims",
     lambda patch: patch.setattr(homalg, "orbit_dim", off_by_one(homalg.orbit_dim)),
     "open orbit vs stratum at (Partition([2, 1]), Partition([2, 1])), (2, 2): "
     "7 != 6"),
    ("stratum-dims",
     lambda patch: patch.setattr(classify, "open_orbit_dim_formula",
                                 off_by_one(classify.open_orbit_dim_formula)),
     "closed form at (Partition([2, 1]), Partition([2, 1])), (2, 2): 7 != 6"),
    ("stratum-dims",
     lambda patch: patch.setitem(verify.GOLDEN_ORBIT_33, 5, {("xxyy",): 21}),
     "table value at (Partition([3, 1, 1]), Partition([3, 1, 1])): 21 != 20"),
    ("remarks",
     lambda patch: patch.setattr(homalg, "ext1_vanishes", lambda c, d: True),
     "Ext^1(M(xxyxyxyy), M(xxyxyxyy)) should not vanish"),
    ("remarks",
     lambda patch: patch.setattr(classify, "nonregular_components",
                                 lambda n, params: []),
     "xxyxyxyy should give a 66-dimensional component, got {}"),
    ("remarks",
     lambda patch: patch.setattr(classify, "components", lambda n, a, b: []),
     "V(3, 2, 2) should be two 6-dimensional orbit closures, got []"),
    ("regular-density",
     lambda patch: patch.setattr(classify, "regular_dense",
                                 negated(classify.regular_dense)),
     "density criterion fails at n = 2, (2, 2): criterion False, enumeration empty"),
]


@pytest.mark.parametrize("name, patch, case", FAILURES,
                         ids=[f"{name}-{k}" for k, (name, *_) in enumerate(FAILURES)])
def test_failure_is_reported_not_raised(monkeypatch, name, patch, case):
    patch(monkeypatch)
    result = run_check(name, level="quick")
    assert result.passed is False
    assert case in result.detail, result.detail


def test_stratum_dims_refuses_a_module_outside_the_inequalities(monkeypatch):
    # M(x^{a-1}) padded with simples to the stratum's dimension has the
    # right dimension but breaks i <= a - 2 for the summands M(x^i); both
    # loops, regular and semi-projective, refuse it with the same failure
    from nilvar import indexmod
    index_of_regular_stratum = indexmod.index_of_regular_stratum
    semiproj_index = indexmod.semiproj_index

    def outside(idx, params):
        simples = sum(len(w) + 1 for w in idx) - params.a
        return ((Word("x" * (params.a - 1), params),)
                + (Word("", params),) * simples)

    def bad_regular(a_part, b_part, params):
        return outside(index_of_regular_stratum(a_part, b_part, params), params)

    def bad_semiproj(a_part, b_part, params):
        word, idx = semiproj_index(a_part, b_part, params)
        return word, outside(idx, params)

    for name, bad, detail in [
            ("index_of_regular_stratum", bad_regular,
             "not an index module at (Partition([2]), Partition([2])), (2, 2): "
             "['x', '', '']"),
            ("semiproj_index", bad_semiproj,
             "not an index module at (Partition([2, 1]), Partition([2, 1])), "
             "(2, 2): ['x', '', '', '', '']")]:
        with monkeypatch.context() as patch:
            patch.setattr(indexmod, name, bad)
            result = run_check("stratum-dims", "quick")
        assert not result.passed
        assert result.detail == detail


def test_random_module_is_deterministic():
    def draw(rng):
        mod, draws = random_module(rng)
        return mod.to_json(), draws

    first = [draw(random.Random(42)) for _ in range(20)]
    second = [draw(random.Random(42)) for _ in range(20)]
    assert first == second


def test_random_module_draws_are_pinned():
    # the draws behind `verify --check random-modules`: a rewrite of the
    # word sampler must keep the RNG call sequence, so the modules stay
    # the same ones
    rng, digest = random.Random(0), hashlib.sha256()
    for _ in range(200):
        digest.update(json.dumps(random_module(rng)[0].to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "60e13df87ba3357a73f09ac1db745bbccf6fbff5da19e2515f83b5eb665699cc")


@pytest.mark.parametrize("seed, state", [
    (0, "7e59ed60ebf4eb6995dba283c7b5653e5cfb29baeb766d851985d848402093de"),
    (1, "3bfe8513eaddefcecb147fda83316f8fb84834c156d3007ea2de05902bcaa8fb"),
    (2, "c0429ca4bcd946ca4877a8471f2b4f09c15c883b38f747b6814c39d5a699b4cb"),
])
def test_random_module_rng_stream_is_pinned(seed, state):
    # the generator's state after 2,000 draws: a sampler that makes one
    # RNG call more or fewer, or draws over a pool of another size, moves
    # it even where the modules happen to agree
    rng = random.Random(seed)
    for _ in range(2000):
        random_module(rng)
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == state


def _reference_string_text(rng, params):
    # the former sampler: a letter is capped when the text ends in a full
    # run of it, and the choice is among the letters left
    caps = (("x", params.a - 1), ("y", params.b - 1))
    text = ""
    for _ in range(rng.randint(0, 5)):
        text += rng.choice([l for l, cap in caps if not text.endswith(l * cap)])
    return text


@pytest.mark.parametrize("params", verify._PARAMS)
def test_string_sampler_matches_the_reference(params):
    # the run-length sampler makes the same RNG calls on the same choices
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            assert (verify._random_string_text(ours, params)
                    == _reference_string_text(ref, params))
        assert ours.getstate() == ref.getstate()


def _reference_band_word(rng, params):
    # the former band sampler, with rng.randint for every bounded draw
    for _ in range(8):
        t = rng.randint(1, 2)
        chunks = []
        for _ in range(t):
            chunks.append("x" * rng.randint(1, params.a - 1))
            chunks.append("y" * rng.randint(1, params.b - 1))
        if chunks[:2] != chunks[2:]:
            return Word("".join(chunks), params)
    return Word("xy", params)


def _reference_random_module(rng):
    # the former outer draws of random_module, with rng.randint, on the
    # reference samplers and unmemoized builders; the draws are kept as
    # (text, layers), layers None for a string
    params = rng.choice(verify._PARAMS)
    parts, draws = [], []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            word = _reference_band_word(rng, params)
            mult = rng.randint(1, 2)
            lambdas = [rng.randint(1, 5) for _ in range(mult)]
            parts.append(band_module(word, lambdas))
            draws.append((str(word), mult))
        else:
            text = _reference_string_text(rng, params)
            parts.append(string_module(Word(text, params)))
            draws.append((text, None))
    return direct_sum(parts), draws


@pytest.mark.parametrize("params", verify._PARAMS)
def test_band_sampler_matches_the_reference(params):
    # drawing over prebuilt run tuples makes the same RNG calls on the
    # same values as rng.randint
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            word = verify._random_band_word(ours, params)
            want = _reference_band_word(ref, params)
            assert (str(word), word.params) == (str(want), want.params)
        assert ours.getstate() == ref.getstate()


def test_random_module_matches_the_reference():
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            (mod, draws), (want, want_draws) = (random_module(ours),
                                                _reference_random_module(ref))
            assert mod.params == want.params
            assert draws == want_draws
            assert (mod.A, mod.B) == (want.A, want.B)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("size", range(1, 10))
def test_pick_matches_choice(size):
    # a _pick over the pool of seq is rng.choice(seq), value and stream
    seq = tuple(f"v{i}" for i in range(size))
    pool = verify._pool(seq)
    assert len(pool[0]) == 1 << size.bit_length()
    for seed in range(5):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(500):
            assert verify._pick(ours.getrandbits, pool) == ref.choice(seq)
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_modules_pass_evicts_nothing(seed):
    # a full pass fills the band frame and string summand memos without
    # evicting: every miss is still an entry, below the bound
    memos = (modmatrix._band_frame, verify._string_summand)
    for memo in memos:
        memo.cache_clear()
    assert run_check("random-modules", "full", seed).passed
    for memo in memos:
        info = memo.cache_info()
        assert 0 < info.misses == info.currsize < info.maxsize


def test_string_summand_memo():
    run_check("random-modules", "quick")
    memo = verify._string_summand
    pool = [(str(w), params) for params in verify._PARAMS
            for w in enumerate_words(5, params)]
    held = memo.cache_info().currsize
    assert 0 < held <= len(pool)
    # every cached module is as built, so no direct sum wrote through the
    # rows it shares with one; a key is cached iff asking for it is a hit
    cached = 0
    for text, params in pool:
        hits = memo.cache_info().hits
        mod = memo(text, params)
        if memo.cache_info().hits > hits:
            cached += 1
            fresh = string_module(Word(text, params))
            assert (mod.n, mod.A, mod.B) == (fresh.n, fresh.A, fresh.B)
            assert mod.params == params
    assert cached == held
    # equal texts over two algebras are two entries, each with its params
    p22, p33 = AlgebraParams(2, 2), AlgebraParams(3, 3)
    m22, m33 = memo("xy", p22), memo("xy", p33)
    assert m22 is not m33
    assert (m22.params, m33.params) == (p22, p33)


def test_random_module_structure():
    rng = random.Random(5)
    for _ in range(50):
        mod, draws = random_module(rng)
        assert mod.verify_relations()
        assert 1 <= len(draws) <= 3
        # each draw is a string text or a band text with its layer count,
        # and the blocks add up to n
        n = 0
        for text, layers in draws:
            assert layers in (None, 1, 2)
            n += len(text) + 1 if layers is None else len(text) * layers
        assert n == mod.n


def test_random_band_words_are_primitive():
    rng = random.Random(11)
    params = AlgebraParams(3, 3)
    for _ in range(100):
        w = verify._random_band_word(rng, params)
        assert band_class(w)[0] == "primitive"
    # the sampler's test: x^i y^j x^k y^l is periodic iff (i, j) = (k, l),
    # on every run pair of every parameter set it draws from
    for params in verify._PARAMS:
        for i, j, k, l in itertools.product(range(1, params.a), range(1, params.b),
                                            repeat=2):
            w = Word("x" * i + "y" * j + "x" * k + "y" * l, params)
            assert (band_class(w)[0] == "primitive") == ((i, j) != (k, l)), str(w)


def test_band_word_table():
    # the band Words of each pool algebra are built once, at import: one
    # per text the band sampler can return, one run pair or two unequal
    # ones, each valid and primitive, and a draw hands out the table's
    # own Word
    rng = random.Random(3)
    for params in verify._PARAMS:
        bands = verify._POOLS[params][3]
        for text, word in bands.items():
            assert type(word) is Word
            assert (word, word.params) == (Word(text, params), params)
            assert band_class(word)[0] == "primitive"
        pairs = ["x" * i + "y" * j for i in range(1, params.a) for j in range(1, params.b)]
        assert sorted(bands) == sorted(
            pairs + [p + q for p, q in itertools.product(pairs, repeat=2) if p != q])
        for _ in range(200):
            word = verify._random_band_word(rng, params)
            assert word is bands[word]


# -- the random-modules check ------------------------------------------------

P33 = AlgebraParams(3, 3)


def _relabelled(word, draws):
    # M(word) over (3, 3), reported as drawn from draws
    return string_module(Word(word, P33)), draws


def _not_nilpotent_enough():
    # one Jordan block of size 4: A^3 != 0 breaks a = 3
    m = string_module(Word("xxx", AlgebraParams(4, 3)))
    return MatrixPairModule(m.n, m.A, m.B, P33), [("xxx", None)]


BAD_MODULES = {
    "relations fail at sample 0: ": _not_nilpotent_enough,
    "rank bookkeeping fails at sample 0: rkA + rkB = 2, n - #strings = 3":
        lambda: _relabelled("xy", [("xy", 1)]),
    "letter-count ranks fail at sample 0: (1, 1) != (2, 0)":
        lambda: _relabelled("xy", [("xx", None)]),
}


@pytest.mark.parametrize("prefix", list(BAD_MODULES))
def test_random_modules_reports_each_failure(monkeypatch, prefix):
    monkeypatch.setattr(verify, "random_module", lambda rng: BAD_MODULES[prefix]())
    result = run_check("random-modules", "quick")
    assert not result.passed
    assert result.detail.startswith(prefix)


def test_random_modules_catches_a_direct_sum_that_drops_parts(monkeypatch):
    # the expectations come from the sampler's draws, not from the module
    # under test: a direct sum that keeps only its first part shows at the
    # first sample with more than one
    monkeypatch.setattr(modmatrix, "direct_sum", lambda parts: tuple(parts)[0])
    result = run_check("random-modules", "quick", 0)
    assert not result.passed
    assert result.detail == ("rank bookkeeping fails at sample 0: "
                             "rkA + rkB = 3, n - #strings = 2")


def test_random_modules_reads_two_ranks_per_module(monkeypatch):
    def refuse(*args):
        raise AssertionError("random-modules needs only rk A and rk B")

    calls = []
    rank = RationalMatrix.rank
    monkeypatch.setattr(RationalMatrix, "rank",
                        lambda self: calls.append(self) or rank(self))
    monkeypatch.setattr(MatrixPairModule, "stats", refuse)
    result = run_check("random-modules", "quick", seed=0)
    assert result.passed, result.detail
    assert len(calls) == 2 * 500


@pytest.mark.parametrize("seed", [0, 1])
def test_random_modules_builds_no_product(monkeypatch, seed):
    # every sampled module has entries >= 0, so nothing cancels: each
    # relation, A^a and B^b with them, holds by a support walk that
    # empties, and no product or power of A and B is built
    def refuse(*args):
        raise AssertionError("the support walks decide every relation")

    monkeypatch.setattr(RationalMatrix, "mul", refuse)
    result = run_check("random-modules", "quick", seed=seed)
    assert result.passed, result.detail


def test_hom_agreement_runs_no_elimination(monkeypatch):
    # every string module is a partial permutation with a forest arrow
    # graph, so the oracle side of the check is the bit-parallel count of
    # free entry classes throughout: no dense route, no rank
    def refuse(*args):
        raise AssertionError("hom-agreement runs no elimination")

    monkeypatch.setattr(homalg, "_hom_dim_dense", refuse)
    monkeypatch.setattr(RationalMatrix, "rank", refuse)
    result = run_check("hom-agreement", "quick", seed=0)
    assert result.passed, result.detail


def test_hom_agreement_counts_one_table_per_algebra(monkeypatch):
    # the graph route is one hom_table join per algebra, never the
    # per-pair memoized count
    def refuse(*args):
        raise AssertionError("hom-agreement counts through hom_table")

    tables = []
    table = homalg.hom_table
    monkeypatch.setattr(homalg, "_hom_count", refuse)
    monkeypatch.setattr(homalg, "hom_table", lambda sources, targets: tables.append(
        (sources[0].params, len(sources), len(targets))) or table(sources, targets))
    result = run_check("hom-agreement", "quick", seed=0)
    assert result.passed, result.detail
    assert result.detail == "754 string pairs across 2 parameter sets"
    assert tables == [(AlgebraParams(3, 3), 23, 23), (AlgebraParams(2, 3), 15, 15)]


@pytest.mark.parametrize("level, params, source, target, detail", [
    ("quick", (3, 3), "xy", "xxy",
     "Hom(xy, xxy) at (3, 3): graph count 4, linear algebra 3"),
    ("full", (3, 3), "xy", "xxy",
     "Hom(xy, xxy) at (3, 3): graph count 4, linear algebra 3"),
    ("full", (4, 3), "yyxxx", "xxxy",
     "Hom(yyxxx, xxxy) at (4, 3): graph count 7, linear algebra 6"),
])
def test_hom_agreement_reports_a_wrong_table_entry(monkeypatch, level, params,
                                                   source, target, detail):
    # one graph count off by one, in the first algebra or a later one,
    # at a later column than the row's first: the check compares rows
    # and names that one pair and both counts (dim Hom(M(xy), M(xxy)) = 3
    # and dim Hom(M(yyxxx), M(xxxy)) = 6)
    table = homalg.hom_table

    def bumped(sources, targets):
        rows = table(sources, targets)
        if sources[0].params == params:
            rows[sources.index(source)][targets.index(target)] += 1
        return rows

    monkeypatch.setattr(homalg, "hom_table", bumped)
    result = run_check("hom-agreement", level, seed=0)
    assert not result.passed
    assert result.detail == detail


def test_hom_agreement_counts_one_union_find_per_source(monkeypatch):
    # the oracle side is one pass of the entry-class count per source
    # module against the direct sum of all the modules of its algebra,
    # one block each: 65 + 31 + 83 passes, not one per pair
    blocks = []
    real = modmatrix.forest_hom_counter

    def counter(target, starts):
        count = real(target, starts)
        return lambda source: blocks.append(len(starts) - 1) or count(source)

    monkeypatch.setattr(modmatrix, "forest_hom_counter", counter)
    result = run_check("hom-agreement", "full", seed=0)
    assert result.passed, result.detail
    assert result.detail == "12075 string pairs across 3 parameter sets"
    assert blocks == [65] * 65 + [31] * 31 + [83] * 83
