"""netprox benchmark: one workload per process, timed or traced.

    python3 perfbench/run.py --workload threshold-star5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3           # every workload, one table
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run sets up (instances, topology, a cold certified reference in a fresh
NETPROX_CACHE, step sizes, bound curves), runs cells for --seconds, checks
every cell's outputs, prints each metric with its unit and sample count, and
ends with one JSON line {"correct", "attempted", "failed", "metrics"}. It
exits 1 when a check fails. Times are reported in reference seconds: short
slices of a fixed yardstick kernel run between cells and around set-ups,
and each wall time is scaled by how fast the box ran the yardstick around
it, so that a slow phase of a shared host does not read as a slow program
(raw wall times are printed beside them; see yardstick.py). With --trace 1
it runs a fixed list of cells, each one untraced and then traced, and
reports the per-layer metrics and the tracing overhead instead. The load is
a closed batch: one process, one thread, BLAS pinned to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("threshold-star5", "noisy-seeds-star5", "ergodic-circle50")
SAMPLE_EVERY = 1.0  # seconds of cell time between yardstick slices
SETUP_SLICES = 2  # yardstick slices before and after each set-up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the default seed")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed part")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="append this run's result and provenance to a JSON-lines file")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                   help="report two --out files side by side; gates nothing")
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's round counts and final F as the default seed's values")
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload or --compare is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def tail_note(values) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return f"n={n}"
    q = int(100 * (1 - 10 / n))
    cut = sorted(values)[min(n - 1, int(q / 100 * n))]
    return f"n={n}, p{q}={cut:.4g}"


def run_cells(wl, state, cells, out_dir, golden, seconds=None, meter=None):
    """Run cells in order, checking each one's outputs right after it (the
    check is not timed). With `seconds`, stop once that much cell time has
    gone and the cell count is a multiple of the workload's cell group.
    With `meter`, take a yardstick slice before the first cell, after every
    SAMPLE_EVERY seconds of cell time and after the last cell.
    Returns [(cell, output or None, problems, cell seconds, cell start)]
    and the summed cell seconds."""
    from workloads import check_golden

    done = []
    busy = 0.0
    since_slice = 0.0
    if meter is not None:
        meter.sample()
    for cell in cells:
        t = perf_counter()
        try:
            out, problems = wl.run_cell(state, cell, out_dir), []
        except Exception:  # a failing cell is counted, and the run goes on
            out, problems = None, [f"{cell.key}: raised\n{traceback.format_exc(limit=3)}"]
        elapsed = perf_counter() - t
        busy += elapsed
        since_slice += elapsed
        if out is not None:
            try:
                problems = wl.check_cell(state, cell, out)
                problems += check_golden(golden, cell.key, out.rounds, out.final_F)
            except Exception:
                problems = [f"{cell.key}: check raised\n{traceback.format_exc(limit=3)}"]
        done.append((cell, out, problems, elapsed, t))
        last = seconds is not None and busy >= seconds and len(done) % wl.cell_group == 0
        if meter is not None and (last or since_slice >= SAMPLE_EVERY):
            meter.sample()
            since_slice = 0.0
        if last:
            break
    if meter is not None and since_slice > 0.0:
        meter.sample()
    return done, busy


def count_failures(wl, state, done) -> tuple[int, list[str]]:
    """(failed cell count, problems), adding the workload's run-level check."""
    problems = [p for _, _, cell_problems, *_ in done for p in cell_problems]
    failed = sum(1 for _, _, cell_problems, *_ in done if cell_problems)
    good = [out for _, out, cell_problems, *_ in done if not cell_problems]
    run_problems = wl.check_run(state, good)
    if run_problems:  # a run-level check involves every cell
        failed = len(done)
        problems += run_problems
    return failed, problems


def fresh_cache(tmp: Path, tag: str) -> None:
    cache = tmp / f"cache-{tag}"
    cache.mkdir()
    os.environ["NETPROX_CACHE"] = str(cache)


def timed_run(wl, tmp: Path, golden, seconds):
    """Set up and run cells, with yardstick slices around every set-up and
    between cells. Each time is reported in reference seconds: its wall
    time scaled by the slices taken around it (see yardstick.py). Raw wall
    times are printed beside them."""
    from yardstick import SpeedMeter

    meter = SpeedMeter()
    raw_setups = []  # (start, wall seconds)
    for _ in range(SETUP_SLICES):
        meter.sample()
    # the extra instances only add set-up samples; the cells run on the last
    for k, instance_seed in enumerate(list(wl.extra_setup_seeds) + [None]):
        fresh_cache(tmp, str(k))
        t = perf_counter()
        state = wl.setup(instance_seed)
        raw_setups.append((t, perf_counter() - t))
        for _ in range(SETUP_SLICES):
            meter.sample()
    out_dir = tmp / "out"
    out_dir.mkdir()
    done, elapsed = run_cells(wl, state, wl.timed_cells(), out_dir, golden, seconds=seconds, meter=meter)
    failed, problems = count_failures(wl, state, done)
    rounds = sum(out.rounds for _, out, *_ in done if out is not None)
    raw_times = [d[3] for d in done]
    # scaled once the run is over, so a set-up can take slices from the cells after it
    setups = [raw * meter.scale(t, t + raw) for t, raw in raw_setups]
    cell_times = [d[3] * meter.scale(d[4], d[4] + d[3]) for d in done]
    busy = sum(cell_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": rounds / busy,
        "cell_s_p50": statistics.median(cell_times),
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"n={len(setups)} set-ups, median; raw wall {statistics.median(r for _, r in raw_setups):.4g} s",
        "rounds_per_s": f"n={rounds} rounds over {busy:.2f} reference s of cells; raw {rounds / elapsed:.4g} 1/s "
                        f"over {elapsed:.2f} wall s",
        "cell_s_p50": tail_note(cell_times) + f" cells; raw wall {statistics.median(raw_times):.4g} s",
        "peak_rss_mb": "n=1 process",
    }
    lines = [
        f"cells_failed_frac = {failed / len(done):.4g} ({failed}/{len(done)} cells)",
        f"yardstick: {len(meter.slices)} slices, median {statistics.median(meter.slices):.4g} s, "
        f"box speed {meter.run_scale():.3f} x reference over the run",
    ]
    return metrics, notes, lines, done, failed, problems


def traced_run(wl, tmp: Path, golden, seconds):
    """A fixed list of cells, so `.calls` repeat exactly; `seconds` is unused."""
    from tracing import Tracer, span_cost
    from netprox.bench import ProblemSpec

    spec = ProblemSpec(case=1, N=wl.N, n_g=wl.n_g, seed=0)
    tracer = Tracer()
    fresh_cache(tmp, "trace")
    with tracer.installed():
        state = wl.setup()
    dir_a, dir_b = tmp / "untraced", tmp / "traced"
    dir_a.mkdir()
    dir_b.mkdir()
    # each cell runs untraced, then traced, so drift hits both sides alike
    done_a, done_b, t_a, t_b = [], [], 0.0, 0.0
    cells = wl.traced_cells()
    for i, cell in enumerate(cells):
        done, elapsed = run_cells(wl, state, [cell], dir_a, golden)
        done_a += done
        t_a += elapsed
        tracer.current_cell = i
        with tracer.installed():
            done, elapsed = run_cells(wl, state, [cell], dir_b, golden)
        done_b += done
        t_b += elapsed
    failed, problems = count_failures(wl, state, done_a + done_b)
    metrics, partial = tracer.metrics(flops_per_grad=4.0 * spec.m * spec.n)
    metrics["bench.csv_bytes"] = sum(p.stat().st_size for p in dir_b.glob("*.csv"))
    metrics["trace.overhead"] = t_b / t_a - 1.0
    notes = {"trace.overhead": f"traced {t_b:.3f} s vs untraced {t_a:.3f} s on the same {len(cells)} cells"}
    spans, cell_spans = tracer.span_count()
    cost = span_cost()
    lines = [
        f"spans recorded: {spans}, {cell_spans} in cells",
        f"span cost {cost * 1e6:.2f} us on a no-op: {cost * cell_spans:.3f} s over the traced cells, "
        f"{cost * cell_spans / t_a:.1%} of their untraced time",
    ]
    lines += [f"{k} = {v!r} s (layer not on every workload)" for k, v in partial.items()]
    return metrics, notes, lines, done_a + done_b, failed, problems


def record_golden(wl_name, seed, done):
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"seed": seed, "cells": {}}
    if data["seed"] != seed:
        raise SystemExit(f"{GOLDEN} holds values for seed {data['seed']}, not {seed}")
    cells = data["cells"].setdefault(wl_name, {})
    for cell, out, *_ in done:
        if out is not None:
            cells[cell.key] = [out.rounds, out.final_F]
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_one(args) -> int:
    if not (SRC / "netprox" / "__init__.py").is_file():
        print(f"netprox sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import netprox
    from workloads import WORKLOADS

    if Path(netprox.__file__).resolve().parent != SRC / "netprox":
        print(f"imported netprox from {netprox.__file__}, expected {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    wl = WORKLOADS[args.workload](args.seed)
    golden = None
    if GOLDEN.exists() and not args.record_golden:
        data = json.loads(GOLDEN.read_text())
        if data["seed"] == args.seed:
            golden = data["cells"].get(args.workload, {})

    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        os.environ["NETPROX_OUT"] = str(Path(tmp) / "out")
        run = traced_run if args.trace else timed_run
        metrics, notes, lines, done, failed, problems = run(wl, Path(tmp), golden, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value!r} {units[name]}{note}")
    for line in lines:
        print(f"  {line}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    if args.record_golden:
        record_golden(args.workload, args.seed, done)
    if args.out is not None:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        rows.append((name, proc.returncode, result))
    print("summary")
    for name, code, result in rows:
        if result is None:
            print(f"  {name}: exit {code}, no result")
            continue
        metrics = "" if args.trace else "  ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()
        )
        n, failed = result["attempted"], result["failed"]
        print(f"  {name}: exit {code}  cells_failed_frac={failed / n:.4g} ({failed}/{n} cells)  {metrics}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare is not None:
        from compare import compare

        return compare(*args.compare, load_spec())
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
