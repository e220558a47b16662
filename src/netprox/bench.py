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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dpga as _dpga
from . import dpga_w as _dpga_w
from . import simnet as _simnet
from .objective import GroupPartition, NodeObjective
from .reference import ReferenceSolution, fista_solve, load_reference, save_reference
from .simnet import RoundSchedule, consensus_metrics, ergodic_aggregates, network_objective
from .topology import Graph, build_topology, spectral_summary

CSV_REL = _simnet.CSV_COLUMNS.index("rel_subopt")
CSV_V = _simnet.CSV_COLUMNS.index("consensus_violation_V")

__all__ = [
    "BoundCurve",
    "ConfigError",
    "ExperimentSummary",
    "GeneratedProblem",
    "ProblemSpec",
    "bound_curves",
    "corollary2_curve",
    "equal_gamma_simplified",
    "generate_problem",
    "load_config",
    "metrics",
    "output_dir",
    "reference_for",
    "reference_key",
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
        if self.N < 1 or self.n_g < 1 or self.K < 1:
            raise ValueError("N, n_g, K must be positive")
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
    partitions: tuple[GroupPartition, ...]
    pis: tuple[int, ...]

    @property
    def lipschitz_ratio(self) -> float:
        ls = [o.lipschitz for o in self.objectives]
        return max(ls) / min(ls)


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
    seeds mean the same instance forever.
    """
    if spec.n % spec.K != 0:
        raise ValueError("K must divide n")
    rng = np.random.default_rng((spec.seed, spec.case, spec.N, spec.n_g, spec.K))
    n, m, N = spec.n, spec.m, spec.N
    if spec.case == 1:
        shared = _draw_partition(rng, n, spec.K)
        partitions = tuple(shared for _ in range(N))
    else:
        partitions = tuple(_draw_partition(rng, n, spec.K) for _ in range(N))
    j = np.arange(1, n + 1)
    x_planted = ((-1.0) ** j) * np.exp(-(j - 1) / spec.n_g)
    objectives = []
    pis = []
    for i in range(N):
        pi = int(rng.integers(0, 2))
        A = (0.5**pi) * rng.standard_normal((m, n))
        objectives.append(
            NodeObjective(
                A=A,
                b=A @ x_planted,
                delta=spec.delta,
                beta1=spec.beta1,
                beta2=spec.beta2,
                partition=partitions[i],
            )
        )
        pis.append(pi)
    return GeneratedProblem(
        spec=spec,
        objectives=tuple(objectives),
        x_planted=x_planted,
        partitions=partitions,
        pis=tuple(pis),
    )


def reference_key(spec: ProblemSpec) -> str:
    return f"case{spec.case}_N{spec.N}_ng{spec.n_g}_K{spec.K}_seed{spec.seed}"


def reference_for(problem: GeneratedProblem, tol: float = 1e-12, use_cache: bool = True) -> ReferenceSolution:
    """Certified central solution, loaded from the on-disk cache when the
    same instance was solved before."""
    key = reference_key(problem.spec)
    if use_cache:
        cached = load_reference(key)
        if cached is not None:
            return cached
    sol = fista_solve(problem.objectives, tol=tol)
    if use_cache:
        save_reference(key, sol)
    return sol


@dataclass(frozen=True)
class BoundCurve:
    """Right-hand side of an ergodic error bound: coef/t terms plus an
    optional coef/sqrt(t) term for the stochastic variants."""

    algorithm: str
    column: str
    coef_subopt: float
    coef_consensus: float
    coef_sqrt: float = 0.0
    constants: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.coef_subopt <= 0 or self.coef_consensus <= 0 or self.coef_sqrt < 0:
            raise ValueError("bound coefficients must be positive")

    def subopt_bound(self, t) -> float:
        return self.coef_subopt / t + self.coef_sqrt / np.sqrt(t)

    def consensus_bound(self, t) -> float:
        return self.coef_consensus / t + self.coef_sqrt / np.sqrt(t)


def _half_distances(step_sizes, x_star, x0) -> float:
    total = 0.0
    for c_i, x0_i in zip(step_sizes, x0):
        d = x_star - np.asarray(x0_i, dtype=float)
        total += float(d @ d) / (2.0 * c_i)
    return total


def theorem3_curve(graph: Graph, gammas, kappas, x_star, x0, step_sizes) -> BoundCurve:
    """Ergodic bounds for the edge-penalty method: both the two-sided
    suboptimality constant and the edge-aggregate consensus constant decay
    like 1/t. step_sizes must be the c_i the run actually uses."""
    gam = np.asarray(gammas, dtype=float)
    q_norm = max(1.0 / gam[i] + 1.0 / gam[j] for i, j in graph.edges)
    sigma_min = spectral_summary(graph).psi_min_pos
    kap_sq = float(sum(k**2 for k in kappas))
    e_half = _half_distances(step_sizes, x_star, x0)
    return BoundCurve(
        algorithm="dpga",
        column="bound_theorem3",
        coef_subopt=2.0 * q_norm * kap_sq / sigma_min + e_half,
        coef_consensus=q_norm * (kap_sq / sigma_min + 1.0) + e_half,
        constants={
            "q_norm": q_norm,
            "sigma_min": sigma_min,
            "kappa_sq": kap_sq,
            "e_half": e_half,
        },
    )


def theorem4_curve(
    graph: Graph,
    W,
    gammas,
    kappas,
    x_star,
    x0,
    step_sizes,
    tau_variant: str = "stated",
) -> BoundCurve:
    """Ergodic bounds for the weighted-network method. The consensus metric
    is |(Omega kron I) xbar|; tau_variant picks whether tau_max sums 1/gamma
    over open neighborhoods ("stated") or closed ones ("proof")."""
    stated, proof = _dpga_w.tau_values(graph, gammas)
    if tau_variant == "stated":
        tau_max = stated
    elif tau_variant == "proof":
        tau_max = proof
    else:
        raise ValueError("tau_variant must be 'stated' or 'proof'")
    sigma_min_sq = W.sigma_min_pos**2
    kap_sq = float(sum(k**2 for k in kappas))
    e_half = _half_distances(step_sizes, x_star, x0)
    return BoundCurve(
        algorithm="dpga_w",
        column="bound_theorem4",
        coef_subopt=2.0 * tau_max * kap_sq / sigma_min_sq + e_half,
        coef_consensus=tau_max * (kap_sq / sigma_min_sq + 1.0) + e_half,
        constants={
            "tau_max": tau_max,
            "sigma_min_sq": sigma_min_sq,
            "kappa_sq": kap_sq,
            "e_half": e_half,
        },
    )


def corollary2_curve(graph: Graph, gammas, kappas, x_star, x0, step_sizes, sigma, dbar) -> BoundCurve:
    """Stochastic-oracle version of the edge-penalty bounds: the 1/t
    constants plus N (Dbar^2 + 2 sigma^2) / (2 sqrt(t)) on both sides."""
    det = theorem3_curve(graph, gammas, kappas, x_star, x0, step_sizes)
    extra = graph.node_count * (dbar**2 + 2.0 * sigma**2) / 2.0
    constants = dict(det.constants)
    constants.update({"sigma": float(sigma), "dbar": float(dbar)})
    return BoundCurve(
        algorithm="sdpga",
        column="bound_sdpga",
        coef_subopt=det.coef_subopt,
        coef_consensus=det.coef_consensus,
        coef_sqrt=extra,
        constants=constants,
    )


def bound_curves(algorithm: str, **kwargs) -> BoundCurve:
    """Dispatch to the bound constructor matching the algorithm tag."""
    if algorithm == "dpga":
        return theorem3_curve(**kwargs)
    if algorithm == "dpga_w":
        return theorem4_curve(**kwargs)
    if algorithm == "sdpga":
        return corollary2_curve(**kwargs)
    raise ValueError(f"no bound curve for algorithm {algorithm!r}")


def equal_gamma_simplified(graph: Graph, gamma, kappas, lipschitzes, x_star, x0_common, variant: str = "dpga") -> BoundCurve:
    """The single-constant simplifications available when every node uses
    one gamma, starts at the same point, and takes the largest allowed step.
    Dominates the max of the corresponding general bounds."""
    kap_sq = float(sum(k**2 for k in kappas))
    dist_sq = float(np.sum((x_star - np.asarray(x0_common, dtype=float)) ** 2))
    summary = spectral_summary(graph)
    psi = summary.psi_min_pos
    L_sum = float(sum(lipschitzes))
    if variant == "dpga":
        num = (4.0 / gamma) * (kap_sq / psi + 1.0) + (
            gamma * graph.edge_count + L_sum / 2.0
        ) * dist_sq
        column = "bound_theorem3"
    elif variant == "dpga_w":
        frob_sq = summary.frob_norm_sq
        num = 0.5 * (
            4.0 * (graph.max_degree + 1) / gamma * (kap_sq / psi**2 + 1.0)
            + (gamma * frob_sq + L_sum) * dist_sq
        )
        column = "bound_theorem4"
    else:
        raise ValueError("variant must be 'dpga' or 'dpga_w'")
    return BoundCurve(
        algorithm=variant,
        column=column,
        coef_subopt=num,
        coef_consensus=num,
        constants={"gamma": float(gamma), "kappa_sq": kap_sq, "dist_sq": dist_sq},
    )


def metrics(trace, graph: Graph, objectives, reference: ReferenceSolution):
    """Per-round measurements recomputed from a stored trace.

    trace[0] must be the starting point; rounds are trace[1:]. Returns a
    dict of arrays: rel_subopt and V for the last iterates, plus the
    ergodic-average aggregates the bounds speak about (suboptimality gap at
    the running mean, the edge-sum consensus norm, and |Omega Xbar|_F).
    """
    F_star = reference.F_star
    T = len(trace) - 1
    rel = np.empty(T)
    V = np.empty(T)
    erg_gap = np.empty(T)
    edge_agg = np.empty(T)
    omega_norm = np.empty(T)
    running = np.zeros_like(np.asarray(trace[0], dtype=float))
    for k in range(1, T + 1):
        X = np.asarray(trace[k], dtype=float)
        F = network_objective(objectives, X)
        rel[k - 1] = abs(F - F_star) / abs(F_star)
        _, V[k - 1] = consensus_metrics(graph, X)
        running += X
        Xbar = running / k
        erg_gap[k - 1] = network_objective(objectives, Xbar) - F_star
        edge_agg[k - 1], omega_norm[k - 1], _ = ergodic_aggregates(graph, Xbar)
    return {
        "rel_subopt": rel,
        "V": V,
        "ergodic_gap": erg_gap,
        "edge_aggregate": edge_agg,
        "omega_norm": omega_norm,
    }


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the failing key."""


def load_config(path) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return validate_config(cfg)


_CONFIG_KEYS = {
    "problem",
    "topology",
    "algorithms",
    "step_mode",
    "gamma_rule",
    "sigma",
    "seeds",
    "schedule",
    "bounds",
    "horizon",
    "safety",
    "label",
}


_LABEL = re.compile(r"[A-Za-z0-9._-]+")


def _require(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing")
    val = cfg[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"{path}.{key}: expected a number, got {type(val).__name__}")
        return float(val)
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _optional(cfg: dict, key: str, kind, path: str, default):
    return _require(cfg, key, kind, path) if key in cfg else default


def validate_config(cfg: dict) -> dict:
    """Check an experiment configuration and fill defaults; raises
    ConfigError naming the offending key."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{key}: unknown key")
    prob = _require(cfg, "problem", dict, "config")
    case = _require(prob, "case", int, "problem")
    N = _require(prob, "N", int, "problem")
    n_g = _require(prob, "n_g", int, "problem")
    K = _optional(prob, "K", int, "problem", 10)
    try:
        ProblemSpec(case=case, N=N, n_g=n_g, seed=0, K=K)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from exc

    topo = _require(cfg, "topology", dict, "config")
    kind = _require(topo, "kind", str, "topology")
    extra_edges = _optional(topo, "extra_edges", int, "topology", 0)
    topo_seed = topo.get("seed")
    try:
        build_topology(kind, N, extra_edges=extra_edges, seed=topo_seed)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"topology: {exc}") from exc

    algorithms = _require(cfg, "algorithms", list, "config")
    if not algorithms:
        raise ConfigError("algorithms: must not be empty")
    for a in algorithms:
        if a not in _simnet.ALGORITHMS:
            raise ConfigError(f"algorithms: unknown algorithm {a!r}")

    step_mode = cfg.get("step_mode", "CS")
    if step_mode not in ("CS", "AS"):
        raise ConfigError(f"step_mode: expected 'CS' or 'AS', got {step_mode!r}")
    if step_mode == "AS" and any(a != "dpga" for a in algorithms):
        raise ConfigError("step_mode: 'AS' only applies to dpga runs")

    rule = cfg.get("gamma_rule", {"rule": "heuristic", "c_factor": 2.6})
    if not isinstance(rule, dict) or "rule" not in rule:
        raise ConfigError("gamma_rule: expected an object with a 'rule' key")
    if rule["rule"] not in ("heuristic", "explicit", "optimal"):
        raise ConfigError(f"gamma_rule.rule: unknown rule {rule['rule']!r}")
    if rule["rule"] == "explicit" and "value" not in rule:
        raise ConfigError("gamma_rule.value: missing for explicit rule")
    if rule["rule"] == "heuristic":
        c_factor = rule.get("c_factor", 2.6)
        if not isinstance(c_factor, (int, float)) or c_factor <= 0:
            raise ConfigError("gamma_rule.c_factor: must be a positive number")

    sigma = cfg.get("sigma", 0.0)
    if not isinstance(sigma, (int, float)) or sigma < 0:
        raise ConfigError("sigma: must be a nonnegative number")

    seeds = _require(cfg, "seeds", list, "config")
    if not seeds or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ConfigError("seeds: must be a non-empty list of integers")

    sched = _require(cfg, "schedule", dict, "config")
    try:
        RoundSchedule(
            max_rounds=_require(sched, "max_rounds", int, "schedule"),
            stop_rel_subopt=float(sched.get("stop_rel_subopt", 1e-3)),
            stop_consensus=float(sched.get("stop_consensus", 1e-4)),
            check_every=int(sched.get("check_every", 1)),
        )
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    horizon = cfg.get("horizon")
    if horizon is not None and (not isinstance(horizon, int) or horizon < 1):
        raise ConfigError("horizon: must be a positive integer or null")

    _optional(cfg, "bounds", bool, "config", False)
    if not 0 < _optional(cfg, "safety", float, "config", 0.999) <= 1:
        raise ConfigError("safety: must lie in (0, 1]")
    if "label" in cfg and not _LABEL.fullmatch(_require(cfg, "label", str, "config")):
        raise ConfigError("label: use only letters, digits, '.', '_' and '-'")
    return cfg


def output_dir(override=None) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get("NETPROX_OUT")
    return Path(env) if env else Path.cwd() / "netprox_out"


@dataclass
class ExperimentSummary:
    rows: list
    csv_paths: list
    summary_path: Path
    checks_passed: bool


def _resolve_gammas(cfg, graph, N, reference, x0_norm):
    rule = cfg.get("gamma_rule", {"rule": "heuristic", "c_factor": 2.6})
    name = rule["rule"]
    if name == "heuristic":
        g = _dpga.gamma_heuristic(graph, c_factor=float(rule.get("c_factor", 2.6)))
        return np.full(N, g)
    if name == "explicit":
        val = rule["value"]
        arr = np.full(N, float(val)) if np.isscalar(val) else np.asarray(val, dtype=float)
        if arr.shape != (N,):
            raise ConfigError("gamma_rule.value: wrong length for this network")
        return arr
    psi = spectral_summary(graph).psi_min_pos
    g = _dpga.gamma_star(reference.kappas, psi, graph.edge_count, x0_norm)
    return np.full(N, g)


def _step_sizes_for(algorithm, graph, objectives, gammas, x0, safety):
    if algorithm in ("dpga", "sdpga"):
        mode = "constant" if algorithm == "dpga" else "horizon"
        nodes = _dpga.dpga_init(graph, objectives, gammas, x0, safety=safety, step_mode=mode)
    else:
        W = _dpga_w.CommunicationMatrix.from_laplacian(graph)
        mode = "constant" if algorithm == "dpga_w" else "horizon"
        nodes = _dpga_w.dpgaw_init(graph, W, objectives, gammas, x0, safety=safety, step_mode=mode)
    return [nd.c for nd in nodes]


def _bound_for(algorithm, cfg, graph, objectives, gammas, x0, reference, safety):
    if algorithm not in ("dpga", "dpga_w", "sdpga"):
        return None
    steps = _step_sizes_for(algorithm, graph, objectives, gammas, x0, safety)
    common = dict(
        gammas=gammas,
        kappas=reference.kappas,
        x_star=reference.x_star,
        x0=x0,
        step_sizes=steps,
    )
    if algorithm == "dpga":
        return theorem3_curve(graph, **common)
    if algorithm == "dpga_w":
        W = _dpga_w.CommunicationMatrix.from_laplacian(graph)
        return theorem4_curve(graph, W, **common)
    dbar = float(np.linalg.norm(reference.x_star - np.asarray(x0[0], dtype=float)))
    return corollary2_curve(graph, sigma=float(cfg.get("sigma", 0.0)), dbar=dbar, **common)


def run_experiment(config: dict, out_dir=None, check: bool = False) -> ExperimentSummary:
    """Run every (algorithm, seed) cell of a validated configuration.

    Writes one CSV per cell (seed explicit in the filename) plus a text
    summary with the final relative suboptimality, consensus violation,
    round count, and solved flag per cell. In check mode the summary also
    verifies the audit profiles, threshold termination, and (when bounds
    are on) that the theoretical curves dominate the measured ergodic
    errors; checks_passed reflects the outcome.
    """
    cfg = validate_config(config)
    out = output_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prob_cfg = cfg["problem"]
    topo_cfg = cfg["topology"]
    kind = topo_cfg["kind"]
    N = prob_cfg["N"]
    graph = build_topology(
        kind, N, extra_edges=int(topo_cfg.get("extra_edges", 0)), seed=topo_cfg.get("seed")
    )
    sched_cfg = cfg["schedule"]
    schedule = RoundSchedule(
        max_rounds=sched_cfg["max_rounds"],
        stop_rel_subopt=float(sched_cfg.get("stop_rel_subopt", 1e-3)),
        stop_consensus=float(sched_cfg.get("stop_consensus", 1e-4)),
        check_every=int(sched_cfg.get("check_every", 1)),
    )
    step_mode = cfg.get("step_mode", "CS")
    sigma = float(cfg.get("sigma", 0.0))
    horizon = cfg.get("horizon")
    safety = float(cfg.get("safety", 0.999))
    want_bounds = bool(cfg.get("bounds", False))
    label = cfg.get("label", f"case{prob_cfg['case']}_N{N}_ng{prob_cfg['n_g']}_{kind}")

    rows = []
    csv_paths = []
    checks_passed = True
    for seed in cfg["seeds"]:
        spec = ProblemSpec(
            case=prob_cfg["case"], N=N, n_g=prob_cfg["n_g"], seed=seed, K=int(prob_cfg.get("K", 10))
        )
        problem = generate_problem(spec)
        reference = reference_for(problem)
        x0 = [np.zeros(spec.n) for _ in range(N)]
        gammas = _resolve_gammas(cfg, graph, N, reference, float(np.linalg.norm(reference.x_star)))
        if "admm" in cfg["algorithms"] and np.ptp(gammas) != 0:
            raise ConfigError("gamma_rule: admm needs one shared gamma")
        for algorithm in cfg["algorithms"]:
            bound = (
                _bound_for(algorithm, cfg, graph, problem.objectives, gammas, x0, reference, safety)
                if want_bounds
                else None
            )
            mode_tag = f"_{step_mode.lower()}" if algorithm == "dpga" else ""
            result = _simnet.run_synchronous(
                algorithm,
                graph,
                problem.objectives,
                schedule,
                seed,
                gammas=gammas,
                sigma=sigma if algorithm in ("sdpga", "sdpga_w") else 0.0,
                horizon=horizon,
                step_mode=step_mode if algorithm == "dpga" else "CS",
                reference=reference,
                bound=bound,
                collect_ergodic=want_bounds,
                safety=safety,
            )
            path = out / f"{algorithm}{mode_tag}_{label}_seed{seed}.csv"
            result.record.write_csv(path)
            csv_paths.append(path)
            last = result.record.rows[-1]
            rel = last[CSV_REL]
            V = last[CSV_V]
            rows.append(
                {
                    "algorithm": algorithm + mode_tag,
                    "seed": seed,
                    "rel_subopt": rel,
                    "V": V,
                    "rounds": result.rounds,
                    "solved": result.solved,
                }
            )
            if check:
                if not result.solved:
                    checks_passed = False
                if not _simnet.audit_check(result.audit, algorithm).ok:
                    checks_passed = False
                if bound is not None and result.ergodic is not None:
                    ts = result.ergodic["t"]
                    gaps = np.abs(result.ergodic["subopt_gap"])
                    cons = (
                        result.ergodic["omega_norm"]
                        if algorithm == "dpga_w"
                        else result.ergodic["edge_aggregate"]
                    )
                    for t, gap, cv in zip(ts, gaps, cons):
                        if gap > bound.subopt_bound(t) or cv > bound.consensus_bound(t):
                            checks_passed = False
                            break

    summary_path = out / f"summary_{label}.txt"
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
        lines.append(f"checks: {'PASS' if checks_passed else 'FAIL'}")
    summary_path.write_text("\n".join(lines) + "\n")
    return ExperimentSummary(
        rows=rows, csv_paths=csv_paths, summary_path=summary_path, checks_passed=checks_passed
    )
