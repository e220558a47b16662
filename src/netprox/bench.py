"""Benchmark instances, theoretical bound curves, and the experiment driver.

The generated family is sparse-group regression with a Huber fit: node i
holds beta1 |x|_1 + beta2 |x|_{G_i} + h_delta(A_i x - b_i) with
beta1 = beta2 = 1/N and delta = 1, the planted signal
xbar_j = (-1)^j exp(-(j-1)/n_g) (1-based j), b_i = A_i xbar, and
A_i = 0.5^{pi_i} Abar_i with fair-coin pi_i and standard Gaussian Abar_i.
Case 1 shares one group partition across nodes; case 2 draws one per node.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dpga as _dpga
from . import dpga_w as _dpga_w
from . import simnet as _simnet
from .errors import check_positive, finite_positive
from .objective import GroupPartition, NodeObjective, power_iteration_sq_norm
from .reference import (
    SOLVER_REVISION,
    ReferenceSolution,
    cache_dir,
    fista_solve,
    load_reference,
    save_reference,
)
from .simnet import RoundSchedule
from .topology import Graph, TopologySpec, build_topology, spectral_summary

CSV_REL = _simnet.CSV_COLUMNS.index("rel_subopt")
CSV_V = _simnet.CSV_COLUMNS.index("consensus_violation_V")

__all__ = [
    "BOUNDED_ALGORITHMS",
    "BoundCurve",
    "Cell",
    "ConfigError",
    "Experiment",
    "ExperimentSummary",
    "GeneratedProblem",
    "ProblemSpec",
    "REFERENCE_TOL",
    "bound_curve",
    "cells",
    "corollary2_curve",
    "generate_problem",
    "load_config",
    "output_dir",
    "reference_for",
    "reference_key",
    "run_cell",
    "run_experiment",
    "theorem3_curve",
    "theorem4_curve",
    "validate_config",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Benchmark instance description; n = K n_g and every node observes
    m = n/(2N) rows."""

    case: int
    N: int
    n_g: int
    seed: int
    K: int = 10

    def __post_init__(self) -> None:
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        check_positive(N=self.N, n_g=self.n_g, K=self.K)
        if (self.K * self.n_g) % (2 * self.N) != 0:
            raise ValueError(
                f"m = K*n_g/(2N) = {self.K * self.n_g}/{2 * self.N} is not integral"
            )

    @property
    def n(self) -> int:
        return self.K * self.n_g

    @property
    def m(self) -> int:
        return self.n // (2 * self.N)

    @property
    def beta1(self) -> float:
        return 1.0 / self.N

    @property
    def beta2(self) -> float:
        return 1.0 / self.N

    @property
    def delta(self) -> float:
        return 1.0


@dataclass(frozen=True)
class GeneratedProblem:
    spec: ProblemSpec
    objectives: tuple[NodeObjective, ...]
    x_planted: np.ndarray


def _draw_partition(rng, n: int, K: int) -> GroupPartition:
    perm = rng.permutation(n)
    size = n // K
    groups = tuple(
        np.sort(perm[k * size : (k + 1) * size]).astype(np.intp) for k in range(K)
    )
    return GroupPartition(groups=groups)


def generate_problem(spec: ProblemSpec) -> GeneratedProblem:
    """Deterministic instance for the given spec.

    Draw order is fixed (partitions first, then pi_i and Abar_i per node) so
    seeds mean the same instance forever. One power iteration over the stacked
    A_i gives every node its L_i.
    """
    rng = np.random.default_rng((spec.seed, spec.case, spec.N, spec.n_g, spec.K))
    n, m, N = spec.n, spec.m, spec.N
    if spec.case == 1:
        shared = _draw_partition(rng, n, spec.K)
        partitions = tuple(shared for _ in range(N))
    else:
        partitions = tuple(_draw_partition(rng, n, spec.K) for _ in range(N))
    j = np.arange(1, n + 1)
    x_planted = ((-1.0) ** j) * np.exp(-(j - 1) / spec.n_g)
    As = [(0.5 ** int(rng.integers(0, 2))) * rng.standard_normal((m, n)) for _ in range(N)]
    lipschitz = power_iteration_sq_norm(np.stack(As)).tolist()
    objectives = tuple(
        NodeObjective(
            A=A, b=A @ x_planted, delta=spec.delta, beta1=spec.beta1, beta2=spec.beta2,
            partition=partition, lipschitz=L,
        )
        for A, partition, L in zip(As, partitions, lipschitz)
    )
    return GeneratedProblem(spec=spec, objectives=objectives, x_planted=x_planted)


# case 1 shares one partition, so its reference solves centrally; case 2 on the product space
_SOLVE_METHOD = {1: "central", 2: "product"}
REFERENCE_TOL = 1e-12  # the certificate every reference is solved to, and a cached one must meet


def reference_key(spec: ProblemSpec) -> str:
    """The instance, the method that solves it and the solver revision: an entry
    another method or revision wrote is a miss."""
    instance = f"case{spec.case}_N{spec.N}_ng{spec.n_g}_K{spec.K}_seed{spec.seed}"
    return f"{instance}_{_SOLVE_METHOD[spec.case]}_rev{SOLVER_REVISION}"


def reference_for(problem: GeneratedProblem) -> ReferenceSolution:
    """Certified central solution, loaded from the on-disk cache when the
    same instance was solved before to a certificate within REFERENCE_TOL;
    otherwise solved, and the cache entry overwritten. A hit recomputes
    F_star and the kappas from the cached x_star. A cache directory that cannot
    be made is a ConfigError before the solve, one that cannot be written after it."""
    key = reference_key(problem.spec)
    hit = load_reference(key, problem.objectives)
    if hit is not None and hit.certificate <= REFERENCE_TOL:
        return hit
    try:
        cache_dir().mkdir(parents=True, exist_ok=True)  # a cache on a file fails here, not after the solve
        sol = fista_solve(problem.objectives, tol=REFERENCE_TOL, method=_SOLVE_METHOD[problem.spec.case])
        save_reference(key, sol)
    except OSError as exc:
        raise ConfigError(f"NETPROX_CACHE: cannot write {cache_dir()}: {exc.strerror or exc}") from exc
    return sol


@dataclass(frozen=True)
class BoundCurve:
    """Right-hand side of an ergodic error bound: coef/t terms plus an
    optional coef/sqrt(t) term for the stochastic variants."""

    column: str
    coef_subopt: float
    coef_consensus: float
    coef_sqrt: float = 0.0

    def __post_init__(self) -> None:
        check_positive(coef_subopt=self.coef_subopt, coef_consensus=self.coef_consensus)
        check_positive(coef_sqrt=self.coef_sqrt)

    def subopt_bound(self, t) -> float:
        return self.coef_subopt / t + self.coef_sqrt / np.sqrt(t)

    def consensus_bound(self, t) -> float:
        return self.coef_consensus / t + self.coef_sqrt / np.sqrt(t)


def _ergodic_curve(column: str, q, s, kappas, x_star, x0, step_sizes) -> BoundCurve:
    """The O(1/t) bound of theorems 3 and 4, which differ only in the penalty
    norm q and the spectral constant s: (2 q kappa^2 / s + E) / t on the gap and
    (q (kappa^2 / s + 1) + E) / t on consensus, with kappa^2 = sum_i kappa_i^2
    and E = sum_i |x_star - x0_i|^2 / (2 c_i) over the c_i the run uses."""
    kap_sq = float(sum(k**2 for k in kappas))
    e_half = 0.0
    for c_i, x0_i in zip(step_sizes, x0):
        d = x_star - np.asarray(x0_i, dtype=float)
        e_half += float(d @ d) / (2.0 * c_i)
    return BoundCurve(column, 2.0 * q * kap_sq / s + e_half, q * (kap_sq / s + 1.0) + e_half)


def theorem3_curve(graph: Graph, gammas, kappas, x_star, x0, step_sizes) -> BoundCurve:
    """Ergodic bounds for the edge-penalty method: q is the largest
    1/gamma_i + 1/gamma_j over the edges, s = psi_min the smallest positive
    Laplacian eigenvalue, and step_sizes the c_i the run actually uses."""
    gam = np.asarray(gammas, dtype=float)
    q_norm = max(1.0 / gam[i] + 1.0 / gam[j] for i, j in graph.edges)
    psi_min = spectral_summary(graph).psi_min_pos
    return _ergodic_curve("bound_theorem3", q_norm, psi_min, kappas, x_star, x0, step_sizes)


def theorem4_curve(graph: Graph, W, gammas, kappas, x_star, x0, step_sizes) -> BoundCurve:
    """Ergodic bounds for the weighted-network method, with q = tau_max as
    the theorem states it (1/gamma summed over open neighborhoods) and
    s = sigma_min(W)^2. The consensus metric is |(Omega kron I) xbar|."""
    tau_max = _dpga_w.tau_values(graph, gammas)[0]
    sigma_min_sq = W.sigma_min_pos**2
    return _ergodic_curve("bound_theorem4", tau_max, sigma_min_sq, kappas, x_star, x0, step_sizes)


def corollary2_curve(graph: Graph, gammas, kappas, x_star, x0, step_sizes, sigma, dbar) -> BoundCurve:
    """Stochastic-oracle version of the edge-penalty bounds: the 1/t
    constants plus N (Dbar^2 + 2 sigma^2) / (2 sqrt(t)) on both sides."""
    det = theorem3_curve(graph, gammas, kappas, x_star, x0, step_sizes)
    return replace(det, column="bound_sdpga", coef_sqrt=graph.node_count * (dbar**2 + 2.0 * sigma**2) / 2.0)


# the algorithms with a bound curve: theorem 3, theorem 4 and corollary 2
BOUNDED_ALGORITHMS = ("dpga", "dpga_w", "sdpga")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the failing key."""


def _unique_keys(pairs) -> dict:
    """One JSON object's pairs as a dict; a repeated key, whose last value json.loads keeps, is refused."""
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} given twice")
        obj[key] = val
    return obj


def load_config(path) -> dict:
    """Parse a JSON configuration file; validate_config decodes it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # a repeated key, or an integer literal past Python's int-from-text digit limit
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class Experiment:
    """A decoded experiment configuration: every choice a run makes, each
    default filled in, and the graph its topology describes.

    problem is the first seed's ProblemSpec; spec(seed) gives any seed's.
    gamma_value is the c_factor of the heuristic rule, the per-node values
    of the explicit rule, and None for the optimal rule.
    """

    problem: ProblemSpec
    topology: TopologySpec
    graph: Graph
    algorithms: tuple[str, ...]
    step_mode: str
    gamma_rule: str
    gamma_value: float | tuple[float, ...] | None
    sigma: float
    seeds: tuple[int, ...]
    schedule: RoundSchedule
    horizon: int | None
    bounds: bool
    safety: float
    label: str

    def spec(self, seed: int) -> ProblemSpec:
        return replace(self.problem, seed=seed)

    @property
    def bounded(self) -> tuple[str, ...]:
        """The algorithms with a bound curve: none under AS, whose steps no curve covers."""
        return () if self.step_mode == "AS" else tuple(a for a in self.algorithms if a in BOUNDED_ALGORITHMS)

    def gammas(self, reference: ReferenceSolution) -> np.ndarray:
        """Per-node penalties, each checked finite: a heuristic c_factor N or
        the optimal formula can overflow. The optimal rule's gamma is for the
        x0 = 0 every run starts from."""
        g = self.gamma_value
        if self.gamma_rule == "heuristic":
            g = _dpga.gamma_heuristic(self.graph, c_factor=self.gamma_value)
        elif self.gamma_rule == "optimal":
            psi = spectral_summary(self.graph).psi_min_pos
            dist0 = float(np.linalg.norm(reference.x_star))
            g = _dpga.gamma_star(reference.kappas, psi, self.graph.edge_count, dist0)
        gammas = np.full(self.problem.N, g)
        check_positive(gammas=gammas)
        return gammas


_LABEL = re.compile(r"[A-Za-z0-9._-]+")
_REQUIRED = object()


def _is_a(val, kind) -> bool:
    """isinstance(val, kind) for JSON values: a bool is no number, and
    every number is a float."""
    if kind in (int, float) and isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if kind is float else kind)


def _float_of(name: str, val) -> float:
    """float(val) for a JSON number; an integer too large for a float is a ConfigError."""
    try:
        return float(val)
    except OverflowError:
        raise ConfigError(f"{name}: an integer too large for a float") from None


class _Section:
    """One JSON object of a configuration. Each key is read once, with its
    type, range and default; done() rejects every key that was not read."""

    def __init__(self, obj, path: str):
        self.obj, self.path, self.known = obj, path, set()

    def __call__(self, key: str, kind, default=_REQUIRED, valid=None, rule: str = ""):
        """obj[key] checked for its type (float means any JSON number, and
        a None default admits null) and, when given, valid()."""
        self.known.add(key)
        name = f"{self.path}.{key}"
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigError(f"{name}: missing")
            return default
        val = self.obj[key]
        if val is None and default is None:
            return None
        if not _is_a(val, kind):
            what = "a number" if kind is float else kind.__name__
            null = " or null" if default is None else ""
            raise ConfigError(f"{name}: expected {what}{null}, got {type(val).__name__}")
        if kind in (int, float):  # every number fits a float, so a horizon has a float root
            as_float = _float_of(name, val)
            val = as_float if kind is float else val
        if valid is not None and not valid(val):
            raise ConfigError(f"{name}: {rule} (got {val!r})")
        return val

    def section(self, key: str, default=_REQUIRED) -> "_Section":
        return _Section(self(key, dict, default), key)

    def done(self) -> None:
        for key in self.obj:
            if key not in self.known:
                raise ConfigError(f"{self.path}.{key}: unknown key")


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError reported against path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def validate_config(cfg) -> Experiment:
    """Decode an experiment configuration. Every key is read here once, with
    its type, range and default; unknown keys are rejected at every level.
    Raises ConfigError naming the offending key."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    top = _Section(cfg, "config")
    seeds = top(
        "seeds", list,
        valid=lambda v: v and all(_is_a(s, int) and s >= 0 for s in v) and len(set(v)) == len(v),
        rule="must be a non-empty list of distinct nonnegative integers",
    )

    prob = top.section("problem")
    case, n_g, K = prob("case", int), prob("n_g", int), prob("K", int, 10)
    N = prob("N", int, valid=lambda v: v >= 2, rule="need at least 2 nodes")
    prob.done()
    problem = _build("problem", ProblemSpec, case=case, N=N, n_g=n_g, seed=seeds[0], K=K)

    topo = top.section("topology")
    topology = TopologySpec(
        kind=topo("kind", str),
        N=N,
        extra_edges=topo("extra_edges", int, 0, lambda v: v >= 0, "must be nonnegative"),
        seed=topo("seed", int, None, lambda v: v >= 0, "must be nonnegative"),
    )
    topo.done()
    graph = _build(
        "topology", build_topology, topology.kind, N, topology.extra_edges, topology.seed
    )

    algorithms = tuple(top("algorithms", list, valid=bool, rule="must not be empty"))
    for a in algorithms:
        if a not in _simnet.ALGORITHMS:
            raise ConfigError(f"config.algorithms: unknown algorithm {a!r}")
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError(f"config.algorithms: duplicate entries in {list(algorithms)!r}")
    step_mode = top("step_mode", str, "CS", lambda v: v in ("CS", "AS"), "expected 'CS' or 'AS'")
    if step_mode == "AS" and any(a != "dpga" for a in algorithms):
        raise ConfigError("config.step_mode: 'AS' only applies to dpga runs")

    # each rule reads only its own key, so the others' keys are unknown to it
    gam = top.section("gamma_rule", {"rule": "heuristic"})
    gamma_rule = gam(
        "rule", str, valid=lambda v: v in ("heuristic", "explicit", "optimal"),
        rule="unknown rule; expected 'heuristic', 'explicit' or 'optimal'",
    )
    gamma_value = None
    if gamma_rule == "heuristic":
        gamma_value = gam("c_factor", float, 2.6, finite_positive, "must be a positive number")
    elif gamma_rule == "explicit":
        val = gam("value", object)
        vals = val if isinstance(val, list) else [val] * N
        if len(vals) != N or not all(_is_a(v, float) and finite_positive(v) for v in vals):
            raise ConfigError(
                f"gamma_rule.value: expected a positive number or a list of {N} (got {val!r})"
            )
        if "admm" in algorithms and len(set(vals)) > 1:
            raise ConfigError("gamma_rule: admm needs one shared gamma")
        gamma_value = tuple(_float_of("gamma_rule.value", v) for v in vals)
    gam.done()

    # noise and the horizon step rule belong to the stochastic variants only
    noisy = any(a in _simnet.NOISY_ALGORITHMS for a in algorithms)
    sigma = top(
        "sigma", float, 0.0, lambda v: finite_positive(v, zero=True), "must be a nonnegative number"
    )
    if sigma > 0 and not noisy:
        raise ConfigError("config.sigma: only sdpga and sdpga_w take gradient noise")
    horizon = top("horizon", int, None, lambda v: v >= 1, "must be a positive integer")
    if horizon is not None and not noisy:
        raise ConfigError("config.horizon: only sdpga and sdpga_w take a horizon")

    sched = top.section("schedule")
    max_rounds, check_every = sched("max_rounds", int), sched("check_every", int, 1)
    stop_rel = sched("stop_rel_subopt", float, 1e-3, finite_positive, "must be a positive number")
    stop_cons = sched("stop_consensus", float, 1e-4, finite_positive, "must be a positive number")
    sched.done()
    schedule = _build("schedule", RoundSchedule, max_rounds, stop_rel, stop_cons, check_every)

    exp = Experiment(
        problem=problem,
        topology=topology,
        graph=graph,
        algorithms=algorithms,
        step_mode=step_mode,
        gamma_rule=gamma_rule,
        gamma_value=gamma_value,
        sigma=sigma,
        seeds=tuple(seeds),
        schedule=schedule,
        horizon=horizon,
        bounds=top("bounds", bool, False, lambda v: not v or step_mode == "CS", "no curve covers 'AS' steps"),
        safety=top("safety", float, 0.999, lambda v: 0 < v <= 1, "must lie in (0, 1]"),
        label=top(
            "label", str, f"case{case}_N{N}_ng{n_g}_{topology.kind}",
            _LABEL.fullmatch, "use only letters, digits, '.', '_' and '-'",
        ),
    )
    top.done()
    return exp


def output_dir(override=None) -> Path:
    """The output directory, made if missing: override (the --out flag), else
    $NETPROX_OUT, else ./netprox_out. One that cannot be made is a ConfigError."""
    env = os.environ.get("NETPROX_OUT")
    path = Path(override) if override is not None else Path(env) if env else Path.cwd() / "netprox_out"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        source = "--out" if override is not None else "NETPROX_OUT" if env else "output directory"
        raise ConfigError(f"{source}: cannot make the directory {path}: {exc.strerror or exc}") from exc
    return path


@dataclass
class ExperimentSummary:
    rows: list
    csv_paths: list
    summary_path: Path
    checks_passed: bool


def bound_curve(algorithm, exp: Experiment, objectives, gammas, reference):
    """The bound curve of a run of one of exp.bounded, from that run's
    initial state and over its step sizes; None for the other algorithms."""
    if algorithm not in exp.bounded:
        return None
    graph = exp.graph
    state = _simnet.initial_state(algorithm, graph, objectives, gammas, exp.horizon, exp.safety)
    common = dict(kappas=reference.kappas, x_star=reference.x_star, x0=state.x, step_sizes=state.c)
    # the curves are looked up by module-global name, so a wrapper put on
    # this module (as the benchmark's tracer does) sees every call
    if algorithm == "dpga_w":
        return theorem4_curve(graph, state.ops["W"], gammas, **common)
    if algorithm == "dpga":
        return theorem3_curve(graph, gammas, **common)
    dbar = float(np.linalg.norm(reference.x_star - state.x[0]))
    return corollary2_curve(graph, gammas, sigma=exp.sigma, dbar=dbar, **common)


@dataclass(frozen=True)
class Cell:
    """One (seed, algorithm) run: the seed's instance, reference and penalties,
    and the run's bound curve if it has one and exp.bounds is on, else None."""

    seed: int
    algorithm: str
    problem: GeneratedProblem
    reference: ReferenceSolution
    gammas: np.ndarray
    curve: BoundCurve | None


def cells(exp: Experiment) -> list[Cell]:
    """Every cell, seed by seed in algorithm order; every seed is set up before
    this returns, so any seed's config error comes before any output."""
    out = []
    for seed in exp.seeds:
        problem = generate_problem(exp.spec(seed))
        reference = reference_for(problem)
        # the optimal rule has no finite gamma where x_star = x0 = 0: its bound falls as gamma grows
        gammas = _build(f"gamma_rule: seed {seed}", exp.gammas, reference)
        for algorithm in exp.algorithms:
            curve = bound_curve(algorithm, exp, problem.objectives, gammas, reference) if exp.bounds else None
            out.append(Cell(seed, algorithm, problem, reference, gammas, curve))
    return out


def run_cell(exp: Experiment, cell: Cell):
    """Run one cell: its RunResult, with the curve in its CSV column at each checked
    round k = row[0], and each check's outcome: threshold reached ("solved"), meter
    as profiled ("audit"), ergodic errors under the curve ("bound", true without one)."""
    algorithm, curve = cell.algorithm, cell.curve
    noisy = algorithm in _simnet.NOISY_ALGORITHMS
    result = _simnet.run_synchronous(
        algorithm, exp.graph, cell.problem.objectives, exp.schedule, cell.seed,
        gammas=None if algorithm == "pg_extra" else cell.gammas,
        sigma=exp.sigma if noisy else 0.0, horizon=exp.horizon if noisy else None,
        step_mode=exp.step_mode,
        reference=cell.reference, collect_ergodic=curve is not None, safety=exp.safety,
    )
    dominated = True
    if curve is not None:
        col = _simnet.CSV_COLUMNS.index(curve.column)
        result.record = _simnet.RunRecord(
            tuple(r[:col] + (float(curve.subopt_bound(r[0])),) + r[col + 1 :] for r in result.record.rows)
        )
        erg = result.ergodic
        cons = "omega_norm" if algorithm == "dpga_w" else "edge_aggregate"
        dominated = not np.any(
            (np.abs(erg["subopt_gap"]) > curve.subopt_bound(erg["t"]))
            | (erg[cons] > curve.consensus_bound(erg["t"]))
        )
    audit_ok = _simnet.audit_check(result.audit, algorithm).ok
    return result, {"solved": result.solved, "audit": audit_ok, "bound": dominated}


def run_experiment(config: dict, out_dir=None, check: bool = False) -> ExperimentSummary:
    """Run every (algorithm, seed) cell of an experiment configuration.

    Writes one CSV per cell (seed explicit in the filename) plus a text
    summary with the final relative suboptimality, consensus violation,
    round count, and solved flag per cell. checks_passed is whether every
    cell passed run_cell's checks; in check mode the summary ends with their
    outcome, which names the first failing cell and check.
    """
    exp = validate_config(config)
    todo = cells(exp)
    out = output_dir(out_dir)
    rows = []
    csv_paths = []
    failed = None
    for cell in todo:
        result, checks = run_cell(exp, cell)
        name = cell.algorithm + (f"_{exp.step_mode.lower()}" if cell.algorithm == "dpga" else "")
        path = out / f"{name}_{exp.label}_seed{cell.seed}.csv"
        result.record.write_csv(path)
        csv_paths.append(path)
        last = result.record.rows[-1]
        rows.append(
            {"algorithm": name, "seed": cell.seed, "rel_subopt": last[CSV_REL], "V": last[CSV_V],
             "rounds": result.rounds, "solved": result.solved}
        )
        failed = failed or next((f"{name} seed {cell.seed}: {c}" for c, ok in checks.items() if not ok), None)

    summary_path = out / f"summary_{exp.label}.txt"
    lines = [
        f"{'algorithm':<12} {'seed':>4} {'rel_subopt':>12} {'V':>12} {'rounds':>7} solved"
    ]
    for r in rows:
        rel_txt = "n/a" if r["rel_subopt"] is None else f"{r['rel_subopt']:.3e}"
        lines.append(
            f"{r['algorithm']:<12} {r['seed']:>4} {rel_txt:>12} {r['V']:>12.3e} "
            f"{r['rounds']:>7} {'yes' if r['solved'] else 'no'}"
        )
    if check:
        lines.append("checks: PASS" if failed is None else f"checks: FAIL ({failed})")
    summary_path.write_text("\n".join(lines) + "\n")
    return ExperimentSummary(
        rows=rows, csv_paths=csv_paths, summary_path=summary_path, checks_passed=failed is None
    )
