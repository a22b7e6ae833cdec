"""Paired comparison of two result sets, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records run.py appends (--out).  Run the two
checkouts alternately, the same workloads, seeds, --seconds and --trace
on both, switching which side goes first; the i-th parent record of a
(workload, trace) pairs with the i-th change record.  For every metric
and workload this prints each side's median and quartiles, the share of
pairs the change won (ties count for neither) and, for end-to-end
metrics, a verdict against the metric's bound in BENCHMARK.json:

  unresolved   the parent's own spread (IQR / median) exceeds the bound,
               and not every change run beat every parent run
  worse        the change median is worse than the parent's by more than
               the bound
  better       the change won at least 9 in 10 pairs and the medians
               differ by more than the parent's IQR
  within bound otherwise
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Compare paired runs of one metric; returns (share of pairs won,
    verdict or None when the metric has no bound)."""
    sign = 1 if better == "lower" else -1
    won = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = won / len(parent)
    if bound is None:
        return share, None
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if pmed == 0:
        return share, "unresolved"
    if (p3 - p1) / abs(pmed) > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return share, "better"
        return share, "unresolved"
    if sign * (cmed - pmed) / abs(pmed) > bound:
        return share, "worse"
    if share >= 0.9 and sign * (pmed - cmed) > p3 - p1:
        return share, "better"
    return share, "within bound"


def load(path):
    groups = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<16} {'metric':<34} {'unit':<6} "
          f"{'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          f"{'won':>5}  verdict")
    worse = False
    for key in sorted(parent.keys() & change.keys()):
        prs, crs = parent[key], change[key]
        n = min(len(prs), len(crs))
        prs, crs = prs[:n], crs[:n]
        seeds = [(p["seed"], c["seed"]) for p, c in zip(prs, crs)]
        if any(a != b for a, b in seeds):
            print(f"warning: {key[0]} pairs runs of different seeds: {seeds}",
                  file=sys.stderr)
        for name, spec in specs.items():
            if name not in prs[0]["metrics"]:
                continue
            pv = [r["metrics"][name]["value"] for r in prs]
            cv = [r["metrics"][name]["value"] for r in crs]
            share, word = verdict(pv, cv, spec["better"], spec.get("bound"))
            worse |= word == "worse"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{key[0]:<16} {name:<34} {spec['unit']:<6} "
                  f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':<32} "
                  f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<32} "
                  f"{share:>5.0%}  {word or '-'}  (n = {n})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
