"""Command line front end.

Four subcommands: run an experiment configuration, check it (exit code
reflects the outcome), dump the theoretical bound curves of each seed, and
generate instance files for inspection. Output goes to --out, the
NETPROX_OUT environment variable, or ./netprox_out, in that order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import bench
from .objective import objective_to_text
from .topology import edge_list_text


def _add_common(p) -> None:
    p.add_argument("config", help="path to a JSON experiment configuration")
    p.add_argument(
        "--out",
        default=None,
        help="output directory (default: $NETPROX_OUT or ./netprox_out)",
    )


def _count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return int(text)


def _cmd_run(args, check: bool) -> int:
    summary = bench.run_experiment(bench.load_config(args.config), out_dir=args.out, check=check)
    for path in summary.csv_paths:
        print(path)
    print(summary.summary_path)
    if check:
        print("PASS" if summary.checks_passed else "FAIL")
        return 0 if summary.checks_passed else 1
    return 0


def _cmd_bounds(args) -> int:
    exp = bench.validate_config(bench.load_config(args.config))
    if not exp.bounded:
        print("no bound curves for the configured algorithms", file=sys.stderr)
        return 2
    cells = bench.cells(replace(exp, bounds=True))
    out = bench.output_dir(args.out)
    ts = np.unique(np.geomspace(1, args.rounds, num=min(args.points, args.rounds)).astype(int))
    for seed in exp.seeds:
        curves = [c.curve for c in cells if c.seed == seed and c.curve is not None]
        header = ["t"]
        for c in curves:
            header.extend([f"{c.column}_subopt", f"{c.column}_consensus"])
        lines = [",".join(header)]
        for t in ts:
            row = [str(int(t))]
            for c in curves:
                row.append(repr(float(c.subopt_bound(int(t)))))
                row.append(repr(float(c.consensus_bound(int(t)))))
            lines.append(",".join(row))
        path = out / f"bounds_{exp.label}_seed{seed}.csv"
        path.write_text("\n".join(lines) + "\n")
        print(path)
    return 0


def _cmd_gen(args) -> int:
    exp = bench.validate_config(bench.load_config(args.config))
    out = bench.output_dir(args.out)
    for seed in exp.seeds:
        problem = bench.generate_problem(exp.spec(seed))
        inst = out / f"instance_{exp.label}_seed{seed}"
        inst.mkdir(exist_ok=True)
        (inst / "topology.txt").write_text(exp.topology.to_text())
        (inst / "edges.txt").write_text(edge_list_text(exp.graph))
        (inst / "planted.txt").write_text(
            "\n".join(repr(float(v)) for v in problem.x_planted) + "\n"
        )
        for i, obj in enumerate(problem.objectives):
            (inst / f"node{i + 1}.txt").write_text(objective_to_text(obj))
        print(inst)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netprox",
        description="distributed proximal-gradient experiments on networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every (algorithm, seed) cell; write CSVs and a summary")
    _add_common(run_p)
    check_p = sub.add_parser(
        "check", help="run and verify stopping, audits, and bound domination; exit 1 on failure"
    )
    _add_common(check_p)
    bounds_p = sub.add_parser("bounds", help="write the theoretical bound curves as a CSV")
    _add_common(bounds_p)
    bounds_p.add_argument("--rounds", type=_count, default=10000, help="largest t in the grid")
    bounds_p.add_argument("--points", type=_count, default=200, help="grid resolution")
    gen_p = sub.add_parser("gen", help="write instance files (topology, objectives, planted signal)")
    _add_common(gen_p)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, check=False)
        if args.command == "check":
            return _cmd_run(args, check=True)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_gen(args)
    except bench.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
