"""Report two sets of benchmark runs side by side; it gates nothing.

Each file holds the JSON lines that `run.py --out FILE` appends. Runs are
paired in file order per (workload, trace) group. For each metric it prints
both medians with their quartiles, the ratio change/parent, the share of
pairs the change won (ties count for neither), and whether a gain may be
claimed: at least ten pairs, nine tenths of them won, and medians that
differ by more than the parent's own quartile spread.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path) -> dict:
    groups = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                prov = rec["provenance"]
                groups[(prov["workload"], prov["trace"])].append(rec["result"]["metrics"])
    return groups


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_path, change_path, spec) -> int:
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = _load(parent_path), _load(change_path)
    for group in sorted(set(parent) & set(change)):
        workload, trace = group
        runs_a, runs_b = parent[group], change[group]
        pairs = min(len(runs_a), len(runs_b))
        print(f"{workload} (trace {trace}): {len(runs_a)} parent runs, {len(runs_b)} change runs, {pairs} pairs")
        print(f"  {'metric':<32} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7} {'won':>5}  gain")
        for name in runs_a[0]:
            if name not in runs_b[0]:
                continue
            va = [r[name]["value"] for r in runs_a]
            vb = [r[name]["value"] for r in runs_b]
            qa, qb = _quartiles(va), _quartiles(vb)
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            wins = sum(sign * (b - a) > 0 for a, b in zip(va, vb))
            won = wins / pairs if pairs else 0.0
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            gain = pairs >= 10 and won >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"  {name:<32} {fmt.format(*qa):>32} {fmt.format(*qb):>32} "
                f"{ratio:>7.3f} {won:>5.0%}  {'yes' if gain else 'no'}"
            )
    missing = set(parent) ^ set(change)
    for workload, trace in sorted(missing):
        print(f"{workload} (trace {trace}): only in one file")
    return 0
