"""Tests for word combinatorics: validity, bands, open strings,
admissible pairs.

The open-string lists for (a,b) = (3,3) were derived by hand from the
three pattern shapes (solving the block-length equations for each module
dimension) and are frozen here; enumerate_open_strings must reproduce
them exactly.  Admissible-pair counts for small words were likewise
enumerated by hand, and the graph maps admissible_pairs lists are checked
against an enumeration straight from their definition.
"""

import collections
import hashlib
import itertools
import re
import tracemalloc

import pytest

from nilvar.verify import _PARAMS
from nilvar.words import (
    AlgebraParams,
    Word,
    admissible_pairs,
    band_class,
    enumerate_open_strings,
    enumerate_words,
    factor_windows,
    letter_steps,
    open_type,
    runs,
    substring_windows,
)

P33 = AlgebraParams(3, 3)
P23 = AlgebraParams(2, 3)
P44 = AlgebraParams(4, 4)


# -- params and validity ---------------------------------------------------

def test_params():
    assert P33.d == 5
    assert AlgebraParams(2, 2).d == 3
    with pytest.raises(ValueError):
        AlgebraParams(1, 3)
    # an immutable value: equal pairs hash alike and key the same entry
    assert {P33: "p"}[AlgebraParams(a=3, b=3)] == "p"
    assert AlgebraParams(3, 3) != P23
    with pytest.raises(AttributeError):
        P33.a = 4


@pytest.mark.parametrize("a, b", [(2.5, 3), (3.0, 3), (3, "3"), (3, None)])
def test_params_must_be_integers(a, b):
    # named at the edge, not as a TypeError from inside Word
    with pytest.raises(ValueError,
                       match=re.escape(f"need integer a, b, got ({a!r}, {b!r})")):
        AlgebraParams(a, b)


def test_word_validity():
    assert Word("xxy", P33) == "xxy"
    assert Word("", P33) == ""
    with pytest.raises(ValueError):
        Word("xxx", P33)  # x-run 3 > a-1
    with pytest.raises(ValueError):
        Word("xyyy", P33)
    with pytest.raises(ValueError):
        Word("xx", P23)  # a=2 allows no xx
    with pytest.raises(ValueError):
        Word("xz", P33)
    Word("xxx", P44)


def run_length_error(text, params):
    """The run-length rule Word applied before its substring test, kept as
    the reference: None for a valid text, else the error message."""
    bad = set(text) - {"x", "y"}
    if bad:
        return f"letters must be x or y, got {sorted(bad)!r}"
    for letter, grp in itertools.groupby(text):
        k = len(list(grp))
        bound = params.a - 1 if letter == "x" else params.b - 1
        if k > bound:
            return (f"run {letter}^{k} exceeds {bound}, not a word over "
                    f"(a,b)=({params.a},{params.b})")
    return None


def word_error(text, params):
    try:
        Word(text, params)
    except ValueError as exc:
        return str(exc)
    return None


def test_word_validity_matches_run_length_rule():
    texts = ["".join(t) for k in range(9) for t in itertools.product("xy", repeat=k)]
    # and a stray letter anywhere, alone or beside an over-long run
    texts += ["".join(t) for k in range(1, 5) for t in itertools.product("xyz", repeat=k)]
    texts += ["X", " x", "x\ny", "xxxz", "yyyyw", "xy·"]
    for params in _PARAMS:
        for text in texts:
            assert word_error(text, params) == run_length_error(text, params), text
    assert word_error("xxx", P33) == "run x^3 exceeds 2, not a word over (a,b)=(3,3)"
    assert word_error("xz", P33) == "letters must be x or y, got ['z']"


def test_word_memory_follows_text_not_bounds():
    # validating a short word under a huge bound builds no run of that bound
    params = AlgebraParams(10 ** 7, 3)
    tracemalloc.start()
    try:
        Word("xxy", params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert word_error("x" * 50 + "yy", params) is None
    assert word_error("xyyy", params) == (
        "run y^3 exceeds 2, not a word over (a,b)=(10000000,3)")


def test_word_is_str():
    w = Word("xxy", P33)
    assert w[0] == "x" and w[2:] == "y"
    assert len(w) == 3
    assert w == "xxy" and hash(w) == hash("xxy")


def test_runs():
    assert runs("xxyxy") == [("x", 2), ("y", 1), ("x", 1), ("y", 1)]
    assert runs("") == []


def test_parse_and_caret():
    assert Word("xxyy", P33).caret() == "x^2y^2"
    assert Word("xyxy", P33).caret() == "xyxy"
    assert Word("", P33).caret() == ""
    # caret round trip over all short words: expanding each x^k / y^k
    # run of the caret text gives the word back
    for w in enumerate_words(5, P33):
        expanded = re.sub(r"([xy])\^(\d+)", lambda m: m[1] * int(m[2]), w.caret())
        assert expanded == w


def test_reverse():
    assert Word("xxy", P33).reverse() == "yxx"
    assert Word("", P33).reverse() == ""
    for w in enumerate_words(5, P33):
        assert w.reverse().reverse() == w


# -- bands -----------------------------------------------------------------

def test_band_class_basic():
    kind, data = band_class(Word("xxy", P33))
    assert kind == "primitive" and data == "xxy"
    kind, data = band_class(Word("yxx", P33))
    assert kind == "primitive" and data == "xxy"
    kind, data = band_class(Word("xyxy", P33))
    assert kind == "periodic" and data == ("xy", 2)
    assert band_class(Word("xx", P33)) == ("not-band", None)
    assert band_class(Word("x", P33)) == ("not-band", None)
    assert band_class(Word("", P33)) == ("not-band", None)
    # valid word whose square is not valid
    assert band_class(Word("xxyxx", P33)) == ("not-band", None)
    assert band_class(Word("xxyy", P33))[0] == "primitive"
    assert band_class(Word("xxyxy", P33)) == ("primitive", "xxyxy")


def divisor_loop_band_class(w):
    """band_class(w) by a loop over the divisors per of |w|: the root is
    the least per whose prefix of the lex-least rotation, repeated
    |w| / per times, gives that rotation back."""
    try:
        Word(w + w, w.params)
    except ValueError:
        return ("not-band", None)
    if len(set(w)) < 2:
        return ("not-band", None)
    canonical, n = min(w[i:] + w[:i] for i in range(len(w))), len(w)
    per = next(per for per in range(1, n + 1)
               if n % per == 0 and canonical[:per] * (n // per) == canonical)
    return ("periodic", (canonical[:per], n // per)) if per < n else ("primitive", canonical)


def test_band_class_matches_a_divisor_loop():
    # every valid word of <= 12 letters over four algebras, the empty word
    # included (4,246 nonempty); the periodic ones have roots of every
    # length from 2 to 6
    count = 0
    for params in (AlgebraParams(2, 2), P33, AlgebraParams(4, 3), AlgebraParams(2, 5)):
        for w in enumerate_words(12, params):
            assert band_class(w) == divisor_loop_band_class(w), (str(w), params)
            count += 1
    assert count == 4250


def test_canonical_band_shape():
    # canonical form starts with a longest x-run and ends with y,
    # and is minimal among all rotations
    for w in enumerate_words(6, P33):
        kind, data = band_class(w)
        if kind != "primitive":
            continue
        assert data in {w[i:] + w[:i] for i in range(len(w))}
        assert data == min(data[i:] + data[:i] for i in range(len(data)))
        assert data[0] == "x" and data[-1] == "y"
        longest_x = max(k for l, k in runs(data) if l == "x")
        assert runs(data)[0] == ("x", longest_x)


def test_band_rotation_invariance():
    for w in enumerate_words(6, P33):
        cls = band_class(w)
        for i in range(1, len(w)):
            rot = w[i:] + w[:i]
            try:
                rw = Word(rot, P33)
            except ValueError:
                # a rotation of a band word is again valid, so this can
                # only happen for non-bands
                assert cls[0] == "not-band"
                continue
            assert band_class(rw) == cls


# -- open strings ----------------------------------------------------------

# hand-derived open-string lists for a = b = 3, projective side, by
# module dimension (word length is dim - 1)
OPEN_33 = {
    2: [],
    3: [],
    4: [],
    5: ["xxyy"],
    6: [],
    7: ["xxyxyy"],
    8: ["xxyxxyy", "xxyyxyy"],
    9: ["xxyxyxyy", "xxyyxxyy"],
    10: ["xxyxxyxyy", "xxyxyyxyy"],
    11: ["xxyxxyxxyy", "xxyxxyyxyy", "xxyyxyyxyy"],
    12: ["xxyxxyxyxyy", "xxyxxyyxxyy", "xxyxyxyyxyy", "xxyyxxyyxyy"],
}


def test_enumerate_open_strings_33():
    for dim, expect in OPEN_33.items():
        assert [str(w) for w in enumerate_open_strings(dim, P33)] == expect


def test_open_strings_are_semi_projective_and_typed():
    for params in (P33, P23, P44, AlgebraParams(3, 4)):
        for dim in range(2, 13):
            for w in enumerate_open_strings(dim, params):
                assert len(w) == dim - 1 >= params.d - 1
                assert w.startswith("x" * (params.a - 1)) and w.endswith("y" * (params.b - 1))
                side, t = open_type(w)
                assert side == "semi-projective" and t in (1, 2, 3)
                side_r, t_r = open_type(w.reverse())
                assert side_r == "semi-injective" and t_r == t


def test_open_type_examples():
    assert open_type(Word("xxyy", P33)) == ("semi-projective", 1)
    assert open_type(Word("yyxx", P33)) == ("semi-injective", 1)
    assert open_type(Word("xxyxyxyy", P33)) == ("semi-projective", 3)
    assert open_type(Word("xxy", P33)) is None
    assert open_type(Word("", P33)) is None
    assert open_type(Word("xyxy", P33)) is None
    # type 2 needs a >= 4 or b >= 4; smallest case at (4,4)
    assert open_type(Word("xxxyyxxxyyy", P44)) == ("semi-projective", 2)
    assert "xxxyyxxxyyy" in [str(w) for w in enumerate_open_strings(12, P44)]


def test_no_type2_for_33():
    # 2 <= i <= b-2 and 2 <= j <= a-2 are both empty at (3,3)
    for dim in range(2, 16):
        for w in enumerate_open_strings(dim, P33):
            assert open_type(w)[1] in (1, 3)


def test_open_strings_frozen():
    # every projective-side open string with its type, for (a, b) in
    # {2..6}^2 and dim 2..21, one line "<text> <type>" each; 1,503
    # strings: 548 of type 1, 637 of type 2 and 318 of type 3
    digest, counts = hashlib.sha256(), collections.Counter()
    for a, b in itertools.product(range(2, 7), repeat=2):
        params = AlgebraParams(a, b)
        for dim in range(2, 22):
            for w in enumerate_open_strings(dim, params):
                t = open_type(w)[1]
                counts[t] += 1
                digest.update(f"{w} {t}\n".encode())
    assert counts == {1: 548, 2: 637, 3: 318}
    assert digest.hexdigest() == (
        "98d80a90a75b0d9c0e0e92d61144ae8455e1cd60ac50acea4112a33b333a449a")


def test_open_strings_22():
    # at (2,2) the only open strings are (xy)^k: the algebra itself and
    # its "staircase" extensions collapse to type 1 with a-1 = b-1 = 1
    p = AlgebraParams(2, 2)
    for dim in range(2, 10):
        got = [str(w) for w in enumerate_open_strings(dim, p)]
        if dim % 2 == 1:
            assert got == ["xy" * ((dim - 1) // 2)]
        else:
            assert got == []


# -- admissible pairs ------------------------------------------------------

def test_window_conventions():
    w = Word("xxy", P33)
    assert list(factor_windows(w)) == [
        (0, "xx"),
        (0, "xxy"),
        (1, "x"),
        (1, "xy"),
        (2, ""),
        (2, "y"),
    ]
    assert list(substring_windows(w)) == [
        (0, ""),
        (0, "x"),
        (0, "xxy"),
        (3, ""),
    ]


def graph_maps_by_definition(w1, w2):
    """Every graph map (s, q, L) of M(w1) -> M(w2), straight from the
    definition: equal windows w1[s:s+L] and w2[q:q+L], the first with x
    (or nothing) before it and y (or nothing) after it, the second with
    y before and x after."""
    n1, n2 = len(w1), len(w2)
    return {(s, q, length)
            for s in range(n1 + 1) for q in range(n2 + 1)
            for length in range(min(n1 - s, n2 - q) + 1)
            if w1[s:s + length] == w2[q:q + length]
            and (s == 0 or w1[s - 1] == "x")
            and (s + length == n1 or w1[s + length] == "y")
            and (q == 0 or w2[q - 1] == "y")
            and (q + length == n2 or w2[q + length] == "x")}


def test_admissible_pairs_match_definition():
    for params in (P33, P23, AlgebraParams(4, 3)):
        words = enumerate_words(5, params)
        for w1, w2 in itertools.product(words, repeat=2):
            maps = admissible_pairs(w1, w2)
            assert len(set(maps)) == len(maps), (str(w1), str(w2))
            assert set(maps) == graph_maps_by_definition(w1, w2), (str(w1), str(w2))
            # factor windows in order, then the matching substring windows
            assert maps == sorted(maps, key=lambda f: (f[0], f[2], f[1]))


def test_admissible_pair_counts():
    # frozen hand counts
    cases = [
        ("xxy", "xyxx", 5),
        ("xxy", "xxy", 4),
        ("xy", "xy", 3),
        ("xxyy", "xy", 3),
        ("xy", "xxyy", 4),
    ]
    for t1, t2, expect in cases:
        pairs = admissible_pairs(Word(t1, P33), Word(t2, P33))
        assert len(pairs) == expect, (t1, t2)
        for s, q, length in pairs:
            assert t1[s:s + length] == t2[q:q + length]


def test_admissible_pairs_rejects_mixed_params():
    with pytest.raises(ValueError):
        admissible_pairs(Word("xy", P33), Word("xy", P44))


def test_hom_to_algebra_word_count():
    # dim Hom(M(x^i y^j), M(x^{a-1} y^{b-1})) = i + j + 2 in the inner
    # range 1 <= i <= a-2, 1 <= j <= b-2; in general the count is
    # min(i,a-2) + min(j,b-2) + 2, plus 1 when (i,j) = (a-1,b-1)
    for a, b in ((3, 3), (4, 3), (4, 5)):
        p = AlgebraParams(a, b)
        lam = Word("x" * (a - 1) + "y" * (b - 1), p)
        for i in range(a):
            for j in range(b):
                if i + j == 0:
                    continue
                w = Word("x" * i + "y" * j, p)
                expect = min(i, a - 2) + min(j, b - 2) + 2
                if i == a - 1 and j == b - 1:
                    expect += 1
                assert len(admissible_pairs(w, lam)) == expect
                if 1 <= i <= a - 2 and 1 <= j <= b - 2:
                    assert expect == i + j + 2
    # the algebra word itself: End has dimension d = a + b - 1
    assert len(admissible_pairs(Word("xxyy", P33), Word("xxyy", P33))) == P33.d


# -- word enumeration ------------------------------------------------------

def test_enumerate_words_against_filter():
    for params in (P33, P23, AlgebraParams(4, 3)):
        got = enumerate_words(6, params)
        brute = [""]
        for L in range(1, 7):
            for tup in itertools.product("xy", repeat=L):
                text = "".join(tup)
                ok = all(
                    k <= (params.a - 1 if l == "x" else params.b - 1)
                    for l, k in runs(text)
                )
                if ok:
                    brute.append(text)
        assert sorted(got) == sorted(brute)
        assert len(got) == len(set(got))
        # by length, then lexicographically
        assert got == sorted(brute, key=lambda t: (len(t), t))
        assert all(w.params == params for w in got)


def test_letter_steps_extend_by_one_valid_letter():
    for params in (P33, P23, AlgebraParams(4, 3)):
        words = enumerate_words(6, params)
        steps = letter_steps(params, 6)
        # a key for every valid text shorter than 6, in enumeration order
        assert list(steps) == [str(w) for w in words if len(w) < 6]
        for text, step in steps.items():
            assert step == tuple(text + c for c in "xy"
                                 if text + c in words), text
    assert letter_steps(P33, 0) == {} and enumerate_words(0, P33) == [""]
    # no word has length <= -1
    assert enumerate_words(-1, P33) == []
