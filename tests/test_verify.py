import hashlib
import json
import random

import pytest

from nilvar import verify
from nilvar.verify import CheckResult, run_check, run_suite, random_module
from nilvar.words import AlgebraParams, band_class


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


def test_failure_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(verify.GOLDEN_REGULAR_33, 2, {(("xy", 1),): 999})
    result = run_check("regular-table", level="quick")
    assert not result.passed
    assert "n = 2" in result.detail


def test_random_module_is_deterministic():
    first = [random_module(random.Random(42)).to_json() for _ in range(20)]
    second = [random_module(random.Random(42)).to_json() for _ in range(20)]
    assert first == second


def test_random_module_draws_are_pinned():
    # the draws behind `verify --check random-modules`: a rewrite of the
    # word sampler must keep the RNG call sequence, so the modules stay
    # the same ones
    rng, digest = random.Random(0), hashlib.sha256()
    for _ in range(200):
        digest.update(json.dumps(random_module(rng).to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "60e13df87ba3357a73f09ac1db745bbccf6fbff5da19e2515f83b5eb665699cc")


def test_random_module_structure():
    rng = random.Random(5)
    for _ in range(50):
        mod = random_module(rng)
        assert mod.verify_relations()
        assert mod.summands is not None
        for s in mod.summands:
            assert s[0] in ("string", "band")


def test_random_band_words_are_primitive():
    rng = random.Random(11)
    params = AlgebraParams(3, 3)
    for _ in range(100):
        w = verify._random_band_word(rng, params)
        assert band_class(w)[0] == "primitive"
