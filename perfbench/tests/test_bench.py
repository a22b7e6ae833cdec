"""Tests of the benchmark itself: cold caches in the traced run, the
output checks, the comparison verdicts, and a smoke-size self-test of
run.py against BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_every_traced_repeat_starts_with_cold_caches():
    from nilvar.classify import components

    cases = workloads.cases("classify-orbits", 0, "smoke")
    components(12, 3, 3)  # warm the memo tables on purpose
    passes = [tracing.traced_pass(cases) for _ in range(2)]
    for _, _, _, _, starts in passes:
        assert len(starts) == len(cases)
        for infos in starts:
            for info in infos.values():
                assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    first, second = passes[0][3], passes[1][3]
    assert first["homalg.ext1_cache"][1] > 0
    assert first == second  # the repeat missed exactly as often: it was cold


def test_traced_pass_accounts_for_its_wall_time():
    for workload in workloads.WORKLOADS:
        wall, results, spans, stats, _ = tracing.traced_pass(
            workloads.cases(workload, 0, "smoke"))
        metrics = tracing.summarize(wall, spans, stats)
        layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert layers == pytest.approx(wall, rel=0.1)
        assert all(code == 0 for _, code, _ in results)
        if workload == "hom-agreement":
            assert metrics["homalg.ext1_vanishes.calls"] == 0
            assert metrics["exactla.rank.calls"] == 0
            assert metrics["homalg.hom_cache.hits"] == 0
        if workload == "classify-orbits":
            assert metrics["homalg.ext1_vanishes.calls"] > 0


def test_tracer_restores_what_it_patched():
    import nilvar.classify
    import nilvar.exactla

    before = (nilvar.classify.ext1_vanishes, nilvar.exactla.RationalMatrix.rank)
    with tracing.Tracer().installed():
        assert nilvar.classify.ext1_vanishes is not before[0]
    assert (nilvar.classify.ext1_vanishes, nilvar.exactla.RationalMatrix.rank) == before


def test_checks_catch_wrong_output():
    case = workloads.cases("classify-orbits", 0, "smoke")[0]
    code, out = tracing.run_in_process(case.argv)
    assert workloads.check_case(case, code, out) == []
    data = json.loads(out)
    data["components"][0]["dim"] += 1
    problems = workloads.check_case(case, 0, json.dumps(data).encode())
    assert len(problems) == 2  # digest and the independent dimension
    assert workloads.check_case(case, 2, out) == [f"{case.label}: exit code 2"]

    verify_case = workloads.cases("hom-agreement", 0, "smoke")[0]
    good = (verify_case.expected_line + "\n").encode()
    assert workloads.check_case(verify_case, 0, good) == []
    assert workloads.check_case(verify_case, 0, good.replace(b"PASS", b"FAIL"))


def test_seed_swaps_only_asymmetric_cases():
    grids = {tuple(c.label for c in workloads.cases("classify-orbits", s, "full"))
             for s in range(20)}
    assert len(grids) > 1
    for labels in grids:
        assert "classify-24-3-3" in labels
        assert all(label in workloads.EXPECTED_DIGESTS for label in labels)
    assert workloads.cases("hom-agreement", 1, "full") == \
        workloads.cases("hom-agreement", 2, "full")


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]
    assert compare.verdict(steady, [v * 1.5 for v in steady], "lower", 0.1)[1] == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.1) == (1.0, "better")
    assert compare.verdict(steady, steady, "lower", 0.1) == (0.0, "within bound")
    noisy = [5.0, 15.0, 8.0, 12.0]
    assert compare.verdict(noisy, [9.0, 11.0, 10.0, 10.0], "lower", 0.1)[1] == "unresolved"
    assert compare.verdict(steady, steady, "higher", None) == (0.0, None)


def test_benchmark_json_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke", "--out", str(tmp_path / "runs.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    record = json.loads((tmp_path / "runs.jsonl").read_text())
    assert {"git_rev", "dirty", "python", "platform", "nproc", "seed",
            "child_env"} <= set(record["stamp"])
    assert record["stamp"]["child_env"] == {"NILVAR_THREADS": "1",
                                            "PYTHONHASHSEED": "0"}
