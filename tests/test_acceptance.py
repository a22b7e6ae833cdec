"""Acceptance gate.

One test per acceptance criterion, each delegating to the full-level
verification suite, checking that its detail is the line README.md
shows for `nilvar verify --level full --seed 0`, and enforcing the
stated time budget.  Every test prints a single PASS/FAIL line (visible
with -s, or in the captured output on failure) and the per-test pytest
verdict is the per-criterion verdict.
"""

from nilvar.verify import run_check


def _criterion(number, label, check, detail, budget=None, seed=0):
    result = run_check(check, level="full", seed=seed)
    line = (f"{'PASS' if result.passed else 'FAIL'} criterion {number} "
            f"({label}): {result.detail}")
    if budget is not None:
        line += f" [{result.seconds:.1f}s, budget {budget}s]"
    print(line)
    assert result.passed, f"criterion {number}: {result.detail}"
    assert result.detail == detail
    if budget is not None:
        assert result.seconds < budget, \
            f"criterion {number} took {result.seconds:.1f}s, budget {budget}s"


def test_criterion_1_regular_table():
    _criterion(1, "regular components, a = b = 3, n = 2..12",
               "regular-table",
               "34 regular components over n = 2..12", budget=5)


def test_criterion_2_orbit_table():
    _criterion(2, "open-orbit components and their mirrors",
               "orbit-table",
               "34 orbit components (both sides) over n = 2..12", budget=5)


def test_criterion_3_nnn_components():
    _criterion(3, "V(n, n, n) for n = 2..7", "nnn-components",
               "n = 2..7: n - 1 components of dimension n^2 - n + 1",
               budget=5)


def test_criterion_4_hom_agreement():
    _criterion(4, "graph count vs linear algebra, strings of length <= 6",
               "hom-agreement",
               "12075 string pairs across 3 parameter sets", budget=10)


def test_criterion_5_stratum_dimensions():
    _criterion(5, "dimension formulas vs index modules", "stratum-dims",
               "291 regular and 56 semi-projective strata, "
               "56 closed-form values", budget=5)


def test_criterion_6_published_remarks():
    _criterion(6, "self-extension exemption and V(3, 2, 2)", "remarks",
               "self-extension exemption and V(3, 2, 2) both as published",
               budget=5)


def test_criterion_7_random_modules():
    _criterion(7, "10000 seeded random modules", "random-modules",
               "10000 random modules, seed 0", budget=5, seed=0)


def test_criterion_8_regular_density():
    _criterion(8, "density criterion vs enumeration", "regular-density",
               "99 (n, a, b) cases", budget=5)
