"""The benchmark's workloads: their case lists and their output checks.

A case is one `nilvar` command line.  The untraced run starts it as a
child process, the traced run calls `nilvar.cli.main` with it in-process;
both hand the exit code and stdout to `check_case`, which runs after the
timed section.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("classify-orbits", "random-modules", "hom-agreement")
SIZES = ("full", "smoke")

# The ROADMAP north-star grid.  (24, 3, 3) dominates the pass (about 10 of
# its 26 s); the asymmetric (3, 5) cases are the ones the seed may swap.
CLASSIFY_GRID = {
    "full": [(n, a, b) for n in (16, 20, 24) for a, b in ((3, 3), (4, 4), (3, 5))],
    "smoke": [(12, 3, 3), (12, 4, 4), (12, 3, 5)],
}

# `nilvar verify` levels and the detail lines they must print.
VERIFY_LEVEL = {"full": "full", "smoke": "quick"}
RANDOM_MODULES_COUNT = {"full": 10_000, "smoke": 500}
HOM_AGREEMENT_LINE = {
    "full": "PASS hom-agreement: 12075 string pairs across 3 parameter sets",
    "smoke": "PASS hom-agreement: 754 string pairs across 2 parameter sets",
}

# sha256 of `nilvar classify --format json` stdout for every (n, a, b) the
# grids can produce, both orientations, recorded from the seed commit.
EXPECTED_DIGESTS = json.loads(
    (Path(__file__).with_name("expected_digests.json")).read_text())


@dataclass(frozen=True)
class Case:
    label: str
    argv: tuple
    expected_line: str | None = None  # verify cases: the whole stdout line


def classify_label(n, a, b) -> str:
    return f"classify-{n}-{a}-{b}"


def cases(workload: str, seed: int, size: str) -> list[Case]:
    """The case list of one run.  The seed picks which asymmetric classify
    cases run as V(n, b, a) and is the `--seed` of random-modules;
    hom-agreement is exhaustive and ignores it."""
    if workload == "classify-orbits":
        rng = random.Random(seed)
        out = []
        for n, a, b in CLASSIFY_GRID[size]:
            if a != b and rng.random() < 0.5:
                a, b = b, a
            out.append(Case(classify_label(n, a, b),
                            ("classify", "--n", str(n), "--a", str(a),
                             "--b", str(b), "--format", "json")))
        return out
    level = VERIFY_LEVEL[size]
    if workload == "random-modules":
        line = (f"PASS random-modules: {RANDOM_MODULES_COUNT[size]} "
                f"random modules, seed {seed}")
        return [Case(f"random-modules-{level}-{seed}",
                     ("verify", "--level", level, "--check", "random-modules",
                      "--seed", str(seed)), line)]
    if workload == "hom-agreement":
        return [Case(f"hom-agreement-{level}",
                     ("verify", "--level", level, "--check", "hom-agreement"),
                     HOM_AGREEMENT_LINE[size])]
    raise ValueError(f"unknown workload {workload!r}")


def check_case(case: Case, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one case's result; empty when it is correct."""
    if returncode != 0:
        return [f"{case.label}: exit code {returncode}"]
    if case.expected_line is not None:
        got = stdout.decode(errors="replace").rstrip("\n")
        if got != case.expected_line:
            return [f"{case.label}: printed {got!r}, "
                    f"expected {case.expected_line!r}"]
        return []
    return _check_classify(case, stdout)


def _check_classify(case: Case, stdout: bytes) -> list[str]:
    problems = []
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != EXPECTED_DIGESTS.get(case.label):
        problems.append(f"{case.label}: stdout digest {digest[:16]} differs "
                        f"from the recorded one")
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"{case.label}: stdout is not JSON ({exc})"]
    for comp in data["components"]:
        want = comp["dim"]
        got = independent_dim(data["n"], data["a"], data["b"], comp)
        if got != want:
            problems.append(f"{case.label}: {comp['kind']} component {comp} "
                            f"has dimension {got} by the independent route")
    return problems


def independent_dim(n: int, a: int, b: int, comp: dict) -> int | None:
    """A component's dimension by a route other than the one classify
    uses: index modules for a regular stratum, union-find End of the
    explicit direct sum for an open orbit."""
    from nilvar.homalg import hom_dim_oracle
    from nilvar.indexmod import index_of_regular_stratum, stratum_dim
    from nilvar.modmatrix import direct_sum, string_module
    from nilvar.partitions import Partition
    from nilvar.words import AlgebraParams, Word

    params = AlgebraParams(a, b)
    if comp["kind"] == "regular":
        idx = index_of_regular_stratum(Partition(comp["a"]),
                                       Partition(comp["b"]), params)
        return stratum_dim(idx, n, params)
    if comp["kind"] == "orbit":
        mod = direct_sum([string_module(Word(s, params)) for s in comp["strings"]])
        return n * n - hom_dim_oracle(mod, mod, method="unionfind")
    return None
