"""nilvar benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload classify-orbits --seed 1 \
        --seconds 30 --trace 0 [--size smoke] [--out FILE]

Untraced (--trace 0): every case is a fresh `python3 -m nilvar` child,
started one at a time with NILVAR_THREADS=1 and PYTHONHASHSEED=0, timed
from start to exit, with CPU time and max RSS from its os.wait4 rusage.
Whole passes over the case list repeat until --seconds are used (always
at least one); wall_s and cpu_s are pass medians.  setup_s is the median
start-to-exit time of fresh interpreters that import nilvar.cli and build
its parser.

The run is pinned to one CPU, and speed.py runs niced beside the cases on
it.  Each child's times are multiplied by the speed factor that loop saw
while the child ran, after its wall time loses the CPU's steal time (from
/proc/stat), so wall_s, cpu_s and setup_s are seconds at the reference
speed.  A shared machine that slows a CPU, or takes it away, for seconds
at a time moves them much less than it moves the raw times, which the
record keeps as wall_raw_s, cpu_raw_s and setup_raw_s.

Traced (--trace 1): one untraced pass as the overhead baseline, then
passes that call nilvar.cli.main in-process under the span tracer of
tracing.py, each case with cold memo tables; per-layer metrics are pass
medians.

Every output is checked after the timed section (workloads.check_case).
The run appends a stamped record to --out, prints a readable summary,
and ends with one JSON line {"correct", "attempted", "failed",
"metrics"} carrying the metrics BENCHMARK.json names for the mode.  The
exit code is 0 when every output was correct, 1 when one was not, 2 when
the checkout holds no nilvar sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

import speed  # noqa: E402  (sibling modules; HERE is sys.path[0])
import workloads  # noqa: E402

CHILD_ENV = {"NILVAR_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_CODE = "import nilvar.cli; nilvar.cli.build_parser()"
SETUP_LAUNCHES = 15
# every child is killed this long after the run started, so that a hung
# case still lets the run end within its 180 s limit
HARD_LIMIT_S = 170.0
# a speed sample needs at least this much CPU time of the reference loop
MIN_PROBE_CPU_S = 0.002

UNITS = {"peak_rss_mb": "MB", "error_rate": "ratio"}


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall: float
    cpu: float
    maxrss_mb: float
    speed: float  # speed factor of the CPU while the child ran
    steal: float  # seconds the CPU was taken away while the child ran

    def scaled_wall(self) -> float:
        return (self.wall - self.steal) * self.speed


class SpeedProbe:
    """speed.py running beside the cases on the one CPU the run is pinned
    to, and that CPU's steal time: the time the hypervisor gave it to
    other machines."""

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})  # inherited by every child
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speed.py")],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        while self.sample()[1] < MIN_PROBE_CPU_S:
            time.sleep(0.01)

    def sample(self):
        """(reference units done, their CPU seconds, steal seconds)."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        units, cpu = self.proc.stdout.readline().split()
        return int(units), float(cpu), self._steal()

    def _steal(self) -> float:
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    if line.startswith(f"cpu{self.cpu} "):
                        return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
        except OSError:
            pass
        return 0.0

    def speed(self, before, after) -> float:
        """Speed factor between two samples; over the loop's whole life
        when the window gave it too little CPU to count."""
        if after[1] - before[1] < MIN_PROBE_CPU_S:
            before = (0, 0.0)
        return (after[0] - before[0]) / (after[1] - before[1]) / speed.REFERENCE_RATE

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_child(args, env, kill_at, probe) -> ChildResult:
    """Run `python3 <args>` in the checkout root and reap it with wait4."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=RESULTS) as out, \
            tempfile.TemporaryFile(dir=RESULTS) as err:
        before = probe.sample()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, kill_at - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        after = probe.sample()
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read(), err.read(), wall,
                           usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss / 1024, probe.speed(before, after),
                           min(wall, after[2] - before[2]))


def child_env() -> dict:
    return dict(os.environ, **CHILD_ENV, PYTHONPATH=str(ROOT / "src"))


def measure_setup(env, kill_at, probe) -> tuple[float, float]:
    """Median start-to-exit time of an interpreter that only imports
    nilvar.cli and builds the parser, raw and scaled.  One untimed launch
    first writes the bytecode caches, which users do not pay for on every
    run."""
    raw, scaled = [], []
    for k in range(SETUP_LAUNCHES + 1):
        res = run_child(["-c", SETUP_CODE], env, kill_at, probe)
        if res.returncode != 0:
            raise RuntimeError("importing nilvar.cli failed:\n"
                               + res.stderr.decode(errors="replace"))
        if k:
            raw.append(res.wall)
            scaled.append(res.scaled_wall())
    return statistics.median(raw), statistics.median(scaled)


def untraced_passes(cases, env, budget_end, kill_at, probe, max_passes=None):
    """Passes of child runs, each a list of (case, ChildResult); another
    pass starts only when the previous one would still fit the budget."""
    passes = []
    while True:
        passes.append([(case, run_child(["-m", "nilvar", *case.argv], env,
                                        kill_at, probe))
                       for case in cases])
        last = sum(res.wall for _, res in passes[-1])
        if len(passes) == max_passes or time.perf_counter() + last > budget_end:
            return passes


def pass_median(passes, value):
    return statistics.median(sum(value(r) for _, r in p) for p in passes)


def stamp(seed) -> dict:
    """What produced a number: code, machine, interpreter and seed."""
    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            rev = dirty = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nilvar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "child_env": CHILD_ENV,
    }


def write_spans(path, spans):
    """The spans of one traced pass, times in microseconds from its start."""
    t0 = spans[0][1] if spans else 0.0
    rows = [[name, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), parent, note]
            for name, s, e, parent, note in spans]
    path.write_text(json.dumps(rows, separators=(",", ":")))


def run(workload, seed, seconds, trace, size):
    """One benchmark run: (metrics by name, attempted, failed, extras)."""
    start = time.perf_counter()
    kill_at = start + HARD_LIMIT_S
    cases = workloads.cases(workload, seed, size)
    env = child_env()
    probe = SpeedProbe()  # pins the run, its children included, to one CPU
    try:
        if not trace:
            setup_raw, setup_s = measure_setup(env, kill_at, probe)
            passes = untraced_passes(cases, env, time.perf_counter() + seconds,
                                     kill_at, probe)
            metrics = {
                "wall_s": pass_median(passes, ChildResult.scaled_wall),
                "cpu_s": pass_median(passes, lambda r: r.cpu * r.speed),
                "peak_rss_mb": max(r.maxrss_mb for p in passes for _, r in p),
                "setup_s": setup_s,
                "wall_raw_s": pass_median(passes, lambda r: r.wall),
                "cpu_raw_s": pass_median(passes, lambda r: r.cpu),
                "setup_raw_s": setup_raw,
            }
            outputs = []
        else:
            import tracing
            passes = untraced_passes(cases, env, start + seconds, kill_at,
                                     probe, max_passes=1)
            untraced = pass_median(passes, ChildResult.scaled_wall)
            summaries, outputs = [], []
            while True:
                before = probe.sample()
                wall, results, spans, cache_stats, _ = tracing.traced_pass(cases)
                after = probe.sample()
                outputs.extend(results)
                summary = tracing.summarize(wall, spans, cache_stats)
                summary["trace.overhead_ratio"] = (
                    (wall - (after[2] - before[2])) * probe.speed(before, after)
                    / untraced)
                summaries.append(summary)
                if time.perf_counter() + wall > start + seconds:
                    break
            metrics = {key: statistics.median(s[key] for s in summaries)
                       for key in summaries[0]}
            write_spans(RESULTS / f"spans-{workload}.json", spans)
    finally:
        probe.close()
    speeds = [r.speed for p in passes for _, r in p]
    extras = {"passes": len(passes), "speed": statistics.median(speeds),
              "cases": [[case.label, r.wall, r.cpu, r.speed, r.steal]
                        for p in passes for case, r in p]}
    outputs.extend((case, r.returncode, r.stdout) for p in passes for case, r in p)
    for p in passes:
        for case, r in p:
            if r.returncode != 0 and r.stderr:
                print(f"{case.label} stderr:\n{r.stderr.decode(errors='replace')}",
                      file=sys.stderr)
    failed = 0
    for case, code, out in outputs:
        problems = workloads.check_case(case, code, out)
        for problem in problems:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
        failed += bool(problems)
    return metrics, len(outputs), failed, extras


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke runs every workload on a tiny case list")
    parser.add_argument("--out", type=Path,
                        default=RESULTS / "BENCH_local.jsonl",
                        help="JSON-lines file the stamped record is appended to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilvar" / "cli.py").is_file():
        print(f"run.py: no nilvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(CHILD_ENV)  # NILVAR_THREADS for in-process verify

    metrics, attempted, failed, extras = run(
        args.workload, args.seed, args.seconds, args.trace, args.size)
    metrics["error_rate"] = failed / attempted
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    shown = [m["name"] for m in wanted]
    if not args.trace:
        # error_rate is 0 on correct code, so it cannot carry a bound
        shown += ["error_rate", "wall_raw_s", "cpu_raw_s", "setup_raw_s"]
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed, **extras,
        "stamp": stamp(args.seed),
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in shown},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  passes {extras['passes']}  "
          f"speed {extras['speed']:.3f}  failed {failed} of {attempted}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    for name in shown:
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": unit_of(m["name"])} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
