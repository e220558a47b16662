"""The benchmark's three workloads: set-up, cells, and the checks on outputs.

A workload sets itself up (instances, topology, a cold certified
reference, step sizes, bound curves), then runs cells. A timed run first
sets up each of `extra_setup_seeds` in turn, only to time more set-ups than
one instance gives, and last the instance its cells run on. A cell is one
(algorithm, seed) run driven through netprox's public functions. A cell's
outputs are checked right after it runs, outside its timing, and reduced to
what the run-level check needs, so memory does not grow with the cell count.

Every instance and noise seed comes from `derive_seeds(workload, seed, k)`,
so one workload seed fixes all inputs of a run.
"""

from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from netprox import bench, dpga, dpga_w, simnet, topology

# README quick-start thresholds: rel-subopt <= 1e-3 and V <= 1e-4
STOP_REL = 1e-3
STOP_V = 1e-4
# relative tolerance on a recorded final F (ROADMAP equivalence tolerance)
GOLDEN_RTOL = 1e-10
NEVER_STOP = dict(stop_rel_subopt=1e-30, stop_consensus=1e-30)

F_COL = simnet.CSV_COLUMNS.index("F")
CUM_COL = simnet.CSV_COLUMNS.index("cum_scalars_per_node")


def derive_seeds(workload: str, seed: int, count: int) -> list[int]:
    """`count` instance or noise seeds, fixed by (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1_000_000) for _ in range(count)]


@dataclass
class CellOutput:
    """What one cell produced, kept until the checks run."""

    rounds: int
    final_F: float
    data: object  # ExperimentSummary or RunResult, read by the checks


# ---------------------------------------------------------------- checks


def check_threshold(final_F: float, final_V: float, F_star: float) -> list[str]:
    """The last round reached the stated accuracy, rel-subopt recomputed from F and F*."""
    rel = abs(final_F - F_star) / abs(F_star)
    problems = []
    if rel > STOP_REL:
        problems.append(f"rel-subopt {rel:.3e} > {STOP_REL:g} against F* {F_star!r}")
    if final_V > STOP_V:
        problems.append(f"V {final_V:.3e} > {STOP_V:g}")
    return problems


def check_profile(algorithm: str, n: int, rounds: int, scalars_per_node: int) -> list[str]:
    """Scalars each node sent equal the declared per-round profile."""
    comm_factor, _ = simnet.TABLE_PROFILES[algorithm]
    expected = comm_factor * n * rounds
    if scalars_per_node != expected:
        return [f"{algorithm} sent {scalars_per_node} scalars per node, profile says {expected}"]
    return []


def check_audit(audit: simnet.AuditLog, algorithm: str) -> list[str]:
    report = simnet.audit_check(audit, algorithm)
    return [] if report.ok else [report.details]


def check_bound(ergodic: dict, curve: bench.BoundCurve, consensus_key: str) -> list[str]:
    """The curve dominates the measured ergodic errors at every t."""
    ts = np.asarray(ergodic["t"], dtype=float)
    gaps = np.abs(np.asarray(ergodic["subopt_gap"], dtype=float))
    cons = np.asarray(ergodic[consensus_key], dtype=float)
    problems = []
    bad = np.flatnonzero(gaps > curve.subopt_bound(ts))
    if bad.size:
        problems.append(f"{curve.column}: ergodic gap above the curve at t={int(ts[bad[0]])}")
    bad = np.flatnonzero(cons > curve.consensus_bound(ts))
    if bad.size:
        problems.append(f"{curve.column}: {consensus_key} above the curve at t={int(ts[bad[0]])}")
    return problems


def check_golden(golden: dict | None, key: str, rounds: int, final_F: float) -> list[str]:
    """Round count and final F equal the values recorded for the default seed."""
    if not golden or key not in golden:
        return []
    want_rounds, want_F = golden[key]
    problems = []
    if rounds != want_rounds:
        problems.append(f"{key}: {rounds} rounds, recorded {want_rounds}")
    if abs(final_F - want_F) > GOLDEN_RTOL * abs(want_F):
        problems.append(f"{key}: final F {final_F!r}, recorded {want_F!r}")
    return problems


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class ThresholdCell:
    case: int
    seed: int
    algorithm: str
    step_mode: str

    @property
    def key(self) -> str:
        return f"case{self.case}/seed{self.seed}/{self.algorithm}_{self.step_mode.lower()}"


class ThresholdStar5:
    """README quick-start config, the criterion-5 shape: case 1 and case 2,
    N = 5, n_g = 20, star; dpga CS, dpga AS and pg_extra run to threshold
    through `bench.run_experiment(check=True)`, which writes the CSVs.

    The one case-2 instance a run can afford (its cold solve is most of the
    set-up) runs all three kinds first. Case-1 instances then take the kinds
    in turn, one cell each: cell times depend on the instance, so spreading
    a run's cells over more instances keeps its median steadier than three
    cells per instance would. Cells share no work."""

    name = "threshold-star5"
    extra_setup_seeds = ()  # one cold case-2 solve takes ~18 s; it cannot repeat in a run
    cell_group = 3  # a timed run ends on a whole turn of the three kinds
    CASE1_INSTANCES = 24
    N, n_g = 5, 20
    KINDS = (("dpga", "CS"), ("dpga", "AS"), ("pg_extra", "CS"))

    def __init__(self, seed: int):
        case2, *case1 = derive_seeds(self.name, seed, 1 + self.CASE1_INSTANCES)
        self.instances = [(2, case2)] + [(1, s) for s in case1]
        self.n = 10 * self.n_g

    def setup(self, instance_seed=None):
        refs = {}
        for case, s in self.instances:
            problem = bench.generate_problem(bench.ProblemSpec(case=case, N=self.N, n_g=self.n_g, seed=s))
            refs[(case, s)] = bench.reference_for(problem)
        return refs

    def _case2_cells(self):
        case, s = self.instances[0]
        return [ThresholdCell(case, s, a, m) for a, m in self.KINDS]

    def _case1_cells(self):
        return [ThresholdCell(c, s, *self.KINDS[j % 3]) for j, (c, s) in enumerate(self.instances[1:])]

    def timed_cells(self):
        return itertools.chain(self._case2_cells(), itertools.cycle(self._case1_cells()))

    def traced_cells(self):
        return self._case2_cells() + self._case1_cells()[:3]

    def run_cell(self, refs, cell: ThresholdCell, out_dir: Path) -> CellOutput:
        cfg = {
            "problem": {"case": cell.case, "N": self.N, "n_g": self.n_g},
            "topology": {"kind": "star"},
            "algorithms": [cell.algorithm],
            "step_mode": cell.step_mode,
            "seeds": [cell.seed],
            "schedule": {"max_rounds": 30000},
        }
        summary = bench.run_experiment(cfg, out_dir=out_dir, check=True)
        return CellOutput(summary.rows[0]["rounds"], float("nan"), summary)

    def check_cell(self, refs, cell: ThresholdCell, out: CellOutput) -> list[str]:
        summary = out.data
        problems = []
        if not summary.rows[0]["solved"]:
            problems.append(f"{cell.key}: threshold not reached in {out.rounds} rounds")
        if not summary.checks_passed:
            problems.append(f"{cell.key}: run_experiment checks failed")
        # the CSV is parsed here rather than with RunRecord.read_csv, which
        # cannot read the V column numpy 2 writes as "np.float64(...)"
        with open(summary.csv_paths[0], newline="") as fh:
            rows = list(csv.reader(fh))
        if tuple(rows[0]) != simnet.CSV_COLUMNS:
            problems.append(f"{cell.key}: unexpected CSV header {rows[0]}")
        last = rows[-1]
        if len(rows) - 1 != out.rounds or int(last[0]) != out.rounds:
            problems.append(f"{cell.key}: CSV holds {len(rows) - 1} rows for {out.rounds} rounds")
        out.final_F = float(last[F_COL])
        problems += check_threshold(out.final_F, summary.rows[0]["V"], refs[(cell.case, cell.seed)].F_star)
        problems += check_profile(cell.algorithm, self.n, int(last[0]), int(last[CUM_COL]))
        return problems

    def check_run(self, refs, outputs) -> list[str]:
        return []


@dataclass(frozen=True)
class NoiseCell:
    noise_seed: int

    @property
    def key(self) -> str:
        return f"noise{self.noise_seed}"


@dataclass
class NetworkSetup:
    graph: topology.Graph
    problem: bench.GeneratedProblem
    reference: object
    gammas: np.ndarray
    curves: dict


class NoisySeedsStar5:
    """Stochastic half of criterion 4: sdpga with sigma = 0.1 and
    horizon-tuned steps over HORIZON fixed rounds; many noise seeds share
    one case-1, N = 5, star instance. Ergodic aggregates every round; each
    cell and the seed mean are checked against the corollary-2 curve."""

    name = "noisy-seeds-star5"
    cell_group = 1
    HORIZON = 2000
    SIGMA = 0.1
    N, n_g = 5, 20

    def __init__(self, seed: int):
        self.instance_seed, noise_root = derive_seeds(self.name, seed, 2)
        self.noise_seeds = derive_seeds(f"{self.name}/noise", noise_root, 4000)
        # the cold reference solve's length depends on the instance
        self.extra_setup_seeds = derive_seeds(f"{self.name}/setup", seed, 8)

    def setup(self, instance_seed=None) -> NetworkSetup:
        graph = topology.build_topology("star", self.N)
        gammas = np.full(self.N, dpga.gamma_heuristic(graph))
        seed = self.instance_seed if instance_seed is None else instance_seed
        problem = bench.generate_problem(bench.ProblemSpec(case=1, N=self.N, n_g=self.n_g, seed=seed))
        ref = bench.reference_for(problem)
        x0 = [np.zeros(problem.spec.n) for _ in range(self.N)]
        nodes = dpga.dpga_init(graph, problem.objectives, gammas, x0, step_mode="horizon")
        curve = bench.corollary2_curve(
            graph, gammas, ref.kappas, ref.x_star, x0, [nd.c for nd in nodes],
            sigma=self.SIGMA, dbar=float(np.linalg.norm(ref.x_star)),
        )
        return NetworkSetup(graph, problem, ref, gammas, {"sdpga": curve})

    def timed_cells(self):
        return (NoiseCell(s) for s in self.noise_seeds)

    def traced_cells(self):
        return [NoiseCell(s) for s in self.noise_seeds[:4]]

    def run_cell(self, st: NetworkSetup, cell: NoiseCell, out_dir: Path) -> CellOutput:
        result = simnet.run_synchronous(
            "sdpga", st.graph, st.problem.objectives,
            simnet.RoundSchedule(max_rounds=self.HORIZON, **NEVER_STOP), cell.noise_seed,
            gammas=st.gammas, sigma=self.SIGMA, horizon=self.HORIZON,
            reference=st.reference, collect_ergodic=True,
        )
        return CellOutput(result.rounds, result.record.rows[-1][F_COL], result)

    def check_cell(self, st, cell, out: CellOutput) -> list[str]:
        result = out.data
        problems = check_audit(result.audit, "sdpga")
        problems += check_bound(result.ergodic, st.curves["sdpga"], "edge_aggregate")
        # keep only what the seed-mean check needs
        out.data = np.asarray(result.ergodic["subopt_gap"], dtype=float), result.ergodic["t"]
        return problems

    def check_run(self, st, outputs) -> list[str]:
        if not outputs:
            return []
        mean_gap = np.mean([o.data[0] for o in outputs], axis=0)
        ts = np.asarray(outputs[0].data[1], dtype=float)
        bad = np.flatnonzero(mean_gap > st.curves["sdpga"].subopt_bound(ts))
        if bad.size:
            return [f"seed-mean ergodic gap above the corollary-2 curve at t={int(ts[bad[0]])}"]
        return []


@dataclass(frozen=True)
class ErgodicCell:
    algorithm: str
    instance_seed: int

    @property
    def key(self) -> str:
        return f"inst{self.instance_seed}/{self.algorithm}"


class ErgodicCircle50:
    """Deterministic half of criterion 4 at N = 50: case 1, n_g = 20 (m = 2
    rows per node), circle; dpga and dpga_w alternate over ROUNDS fixed
    rounds with ergodic aggregates every round, checked against the
    theorem-3 and theorem-4 curves."""

    name = "ergodic-circle50"
    cell_group = 2  # a timed run ends on a whole (dpga, dpga_w) pair
    ROUNDS = 200
    N, n_g = 50, 20
    CONSENSUS = {"dpga": "edge_aggregate", "dpga_w": "omega_norm"}

    def __init__(self, seed: int):
        (self.instance_seed,) = derive_seeds(self.name, seed, 1)
        self.extra_setup_seeds = derive_seeds(f"{self.name}/setup", seed, 4)

    def setup(self, instance_seed=None) -> NetworkSetup:
        graph = topology.build_topology("circle", self.N)
        gammas = np.full(self.N, dpga.gamma_heuristic(graph))
        seed = self.instance_seed if instance_seed is None else instance_seed
        problem = bench.generate_problem(bench.ProblemSpec(case=1, N=self.N, n_g=self.n_g, seed=seed))
        ref = bench.reference_for(problem)
        x0 = [np.zeros(problem.spec.n) for _ in range(self.N)]
        common = dict(gammas=gammas, kappas=ref.kappas, x_star=ref.x_star, x0=x0)
        nodes = dpga.dpga_init(graph, problem.objectives, gammas, x0)
        W = dpga_w.CommunicationMatrix.from_laplacian(graph)
        wnodes = dpga_w.dpgaw_init(graph, W, problem.objectives, gammas, x0)
        curves = {
            "dpga": bench.theorem3_curve(graph, step_sizes=[nd.c for nd in nodes], **common),
            "dpga_w": bench.theorem4_curve(graph, W, step_sizes=[nd.c for nd in wnodes], **common),
        }
        return NetworkSetup(graph, problem, ref, gammas, curves)

    def timed_cells(self):
        return itertools.cycle(self.traced_cells())

    def traced_cells(self):
        return [ErgodicCell(a, self.instance_seed) for a in ("dpga", "dpga_w")]

    def run_cell(self, st: NetworkSetup, cell: ErgodicCell, out_dir: Path) -> CellOutput:
        result = simnet.run_synchronous(
            cell.algorithm, st.graph, st.problem.objectives,
            simnet.RoundSchedule(max_rounds=self.ROUNDS, **NEVER_STOP), 0,
            gammas=st.gammas, reference=st.reference, collect_ergodic=True,
        )
        return CellOutput(result.rounds, result.record.rows[-1][F_COL], result)

    def check_cell(self, st, cell, out: CellOutput) -> list[str]:
        result = out.data
        problems = check_audit(result.audit, cell.algorithm)
        problems += check_bound(result.ergodic, st.curves[cell.algorithm], self.CONSENSUS[cell.algorithm])
        out.data = None
        return problems

    def check_run(self, st, outputs) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (ThresholdStar5, NoisySeedsStar5, ErgodicCircle50)}
