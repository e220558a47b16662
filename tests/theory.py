"""Numeric checks of the theory behind netprox, read only by the tests.

Theorems 1 and 2 of linearized PG-ADMM (the ergodic key inequality, the
constant-step error constant and the Lyapunov value a^k), the engine's
exactness residuals and objective, the noisy PG-ADMM step with its
diminishing and horizon schedules, the ergodic mean of an engine run,
PG-EXTRA's KKT residuals and the equal-gamma simplifications of the
theorem-3 and theorem-4 bounds; and plain_run, the round-by-round loop that
simnet.run_synchronous's blocked observer must reproduce.
"""

from types import SimpleNamespace

import numpy as np

from netprox import simnet
from netprox.bench import BoundCurve
from netprox.engine import BlockProblem, EngineState, StepPlan, _advance, _cap, base_step, step_rule
from netprox.errors import DivergenceError
from netprox.objective import NoisyOracle, adds_noise, network, oracle_grad
from netprox.topology import Graph, MixingPair, spectral_summary


def diminishing_plan(prob: BlockProblem) -> StepPlan:
    return StepPlan(rule="diminishing", base=base_step(_cap(prob), step_mode="diminishing"))


def horizon_plan(prob: BlockProblem, horizon: int) -> StepPlan:
    return StepPlan(
        rule="horizon", base=base_step(_cap(prob), step_mode="horizon"), horizon=horizon
    )


def spgadmm_step(
    state: EngineState,
    prob: BlockProblem,
    plan: StepPlan,
    oracles: list[NoisyOracle],
) -> EngineState:
    """PG-ADMM step with oracle gradients and k-dependent stepsizes."""
    step_rule(plan.rule, plan.horizon, adds_noise(oracles))
    c = plan.step_sizes(state.k)
    grads = [
        oracle_grad(prob.objectives[i], oracles[i], state.x[i]) for i in range(prob.N)
    ]
    return _advance(state, prob, c, grads)


def ergodic_mean(states) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Mean x and y of states[1:], the iterates from the first step on, of a
    run whose start is states[0]."""
    t = len(states) - 1
    if t < 1:
        raise ValueError("ergodic average undefined before the first step")
    return (
        [sum(st.x[i] for st in states[1:]) / t for i in range(len(states[0].x))],
        [sum(st.y[s] for st in states[1:]) / t for s in range(len(states[0].y))],
    )


def engine_objective(prob: BlockProblem, x, y) -> float:
    """sum_i xi_i(x_i) + f_i(x_i). Both couplings' g is zero on the set the
    engine keeps y in, so y adds nothing."""
    total = 0.0
    for i, obj in enumerate(prob.objectives):
        total += obj.xi_value(x[i]) + obj.f_value(x[i])
    return float(total)


def constraint_residuals(prob: BlockProblem, x, y) -> list[list[np.ndarray]]:
    return [
        [ch.A @ x[i] - y[ch.slot] - ch.b for ch in blk.chunks]
        for i, blk in enumerate(prob.blocks)
    ]


def y_step_residual(prob: BlockProblem, state: EngineState) -> float:
    """Partial-optimality residual of the y-step at the current state.

    Aggregates zeta_s = sum over chunks of (lambda + gamma residual) per slot;
    exact y-steps give zeta = 0 for free slots and zeta constant within each
    zero-sum group.
    """
    zeta = [np.zeros(d) for d in prob.slot_dims]
    for i, blk in enumerate(prob.blocks):
        gi = prob.gammas[i]
        for r, ch in enumerate(blk.chunks):
            zeta[ch.slot] += state.lam[i][r] + gi * (
                ch.A @ state.x[i] - state.y[ch.slot] - ch.b
            )
    grouped = set()
    worst = 0.0
    for g in prob.coupling.groups():
        grouped.update(g)
        mean = sum(zeta[s] for s in g) / len(g)
        for s in g:
            worst = max(worst, float(np.linalg.norm(zeta[s] - mean)))
    for s in range(len(zeta)):
        if s not in grouped:
            worst = max(worst, float(np.linalg.norm(zeta[s])))
    return worst


def _x_metric_sq(prob: BlockProblem, i: int, v: np.ndarray, c_i: float) -> float:
    """||v||^2 in the Q_i = I - c_i gamma_i A_i^T A_i metric."""
    Av = prob.blocks[i].stacked_A() @ v
    return float(v @ v - c_i * prob.gammas[i] * (Av @ Av))


def _y_metric_sq(prob: BlockProblem, ya, yb) -> float:
    """||ya - yb||^2 in the sum_i gamma_i B_i^T B_i metric (slot diagonal)."""
    return float(
        sum(
            w * np.linalg.norm(a - b) ** 2
            for w, a, b in zip(prob.slot_weights, ya, yb)
        )
    )


def theorem1_rhs(
    prob: BlockProblem,
    c: np.ndarray,
    x0,
    y0,
    x_star,
    y_star,
    lam_choice,
    t: int,
) -> float:
    """Right-hand side of the ergodic key inequality at iteration t.

    lam_choice is the free multiplier the inequality holds for; lambda^0 = 0
    as the engine enforces.
    """
    total = _y_metric_sq(prob, y_star, y0)
    for i in range(prob.N):
        total += np.linalg.norm(np.concatenate(lam_choice[i])) ** 2 / prob.gammas[i]
        total += _x_metric_sq(prob, i, np.asarray(x_star[i]) - np.asarray(x0[i]), c[i]) / c[i]
    return total / (2.0 * t)


def theorem2_constant(
    prob: BlockProblem, c: np.ndarray, x0, y0, x_star, y_star, lam_star
) -> float:
    """C(c_1, ..., c_N) with lambda^0 = 0."""
    total = 0.5 * _y_metric_sq(prob, y_star, y0)
    for i in range(prob.N):
        lnorm2 = np.linalg.norm(np.concatenate(lam_star[i])) ** 2
        total += 4.0 * lnorm2 / prob.gammas[i]
        total += _x_metric_sq(prob, i, np.asarray(x_star[i]) - np.asarray(x0[i]), c[i]) / (
            2.0 * c[i]
        )
    return float(total)


def lyapunov_a(
    prob: BlockProblem,
    c: np.ndarray,
    state: EngineState,
    x_star,
    y_star,
    lam_star,
) -> float:
    """a^k = sum_i (1/c_i)||x_i - x_i*||_{Q_i}^2 + gamma_i ||B_i(y - y*)||^2
    + (1/gamma_i)||lambda_i - lambda_i*||^2, nonincreasing under strict steps."""
    total = 0.0
    for i, blk in enumerate(prob.blocks):
        gi = prob.gammas[i]
        total += _x_metric_sq(prob, i, state.x[i] - np.asarray(x_star[i]), c[i]) / c[i]
        for r, ch in enumerate(blk.chunks):
            total += gi * np.linalg.norm(state.y[ch.slot] - y_star[ch.slot]) ** 2
            total += np.linalg.norm(state.lam[i][r] - lam_star[i][r]) ** 2 / gi
    return float(total)


def pg_extra_kkt_residuals(x_trace, half_trace, mixing: MixingPair, objectives, c):
    """Squared stationarity and consensus residuals per round.

    x_trace stacks the network iterate X^m for m = 0..T (rows are nodes);
    half_trace holds the pre-prox points X^{m+1/2} for m = 0..T-1. Entry m of
    the first array is |r^m|^2 weighted by W_tilde, where

        r^m = (W_tilde - W) sum_{tau<=m} X^tau + c (grad f(X^m) + G^{m+1})

    and G^{m+1} = (X^{m+1/2} - X^{m+1}) / c collects the prox subgradients.
    Entry m of the second is |U X^{m+1}|_F^2 with U the PSD square root of
    W_tilde - W.
    """
    T = len(half_trace)
    if len(x_trace) != T + 1:
        raise ValueError("need one more iterate than pre-prox point")
    diff = mixing.W_tilde.matrix - mixing.W.matrix
    evals, evecs = np.linalg.eigh(diff)
    U = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    kkt_sq = np.empty(T)
    cons_sq = np.empty(T)
    net = network(objectives)
    running = np.zeros_like(np.asarray(x_trace[0], dtype=float))
    for m in range(T):
        X_m = np.asarray(x_trace[m], dtype=float)
        X_next = np.asarray(x_trace[m + 1], dtype=float)
        running = running + X_m
        G = (np.asarray(half_trace[m], dtype=float) - X_next) / c
        R = diff @ running + c * (net.f_grad(X_m) + G)
        kkt_sq[m] = float(np.sum(R * (mixing.W_tilde @ R)))
        UX = U @ X_next
        cons_sq[m] = float(np.sum(UX * UX))
    return kkt_sq, cons_sq


def frob_norm_sq(graph: Graph) -> float:
    """||Omega||_F^2 of the graph Laplacian, the constant of the dpga_w simplification."""
    omega = graph.laplacian()
    return float(np.sum(omega * omega))


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
        frob_sq = frob_norm_sq(graph)
        num = 0.5 * (
            4.0 * (graph.max_degree + 1) / gamma * (kap_sq / psi**2 + 1.0)
            + (gamma * frob_sq + L_sum) * dist_sq
        )
        column = "bound_theorem4"
    else:
        raise ValueError("variant must be 'dpga' or 'dpga_w'")
    return BoundCurve(column=column, coef_subopt=num, coef_consensus=num)


def plain_run(
    algorithm, graph: Graph, objectives, schedule, seed, *,
    gammas=None, sigma=0.0, horizon=None, reference=None, collect_ergodic=False,
) -> simnet.RunResult:
    """simnet.run_synchronous (CS steps) as the textbook loop: step, raise on
    a non-finite iterate, observe each checked round alone through the (N, n)
    calls of the observer names, and stop at the first checked round that
    meets both thresholds. The rounds are looked up in simnet._ROUNDS at
    call time, so a patched round is stepped here too."""
    objectives = network(objectives)
    N, n = graph.node_count, objectives[0].n
    audit = simnet.AuditLog(node_count=N, n=n)
    state = simnet.initial_state(algorithm, graph, objectives, gammas, horizon, 0.999)
    noisy = algorithm in simnet.NOISY_ALGORITHMS
    run = SimpleNamespace(
        objectives=objectives,
        step_mode="CS",
        oracles=NoisyOracle(sigma, seed, range(N)) if noisy else None,
        steps=StepPlan(None, state.c, horizon).step_sizes if noisy else None,
        exchange=simnet.Transport(graph, audit).exchange,
    )
    audit.record_storage(state)
    F_star = None if reference is None else float(reference.F_star)
    rows, erg_rows, erg_sum, solved = [], [], np.zeros((N, n)), False
    for k in range(1, schedule.max_rounds + 1):
        state = simnet._ROUNDS[algorithm](run, state, k - 1)
        X = state.x
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise DivergenceError(
                f"{algorithm} diverged in round {k}: node {int(np.argmin(finite))} "
                "holds a non-finite iterate"
            )
        audit.rounds = k
        audit.record_storage(state)
        erg_sum += X
        if k % schedule.check_every and k != schedule.max_rounds:
            continue
        F = simnet.network_objective(objectives, X)
        max_edge, V = simnet.consensus_metrics(graph, X)
        rel = None if F_star is None else abs(F - F_star) / (abs(F_star) or 1.0)
        rows.append((k, F, rel, V, max_edge, audit.sent, None, None, None))
        if collect_ergodic:
            Xbar = erg_sum / k
            F_erg = simnet.network_objective(objectives, Xbar)
            gap = None if F_star is None else F_erg - F_star
            erg_rows.append((k, F_erg, gap, *simnet.ergodic_aggregates(graph, Xbar)))
        if F_star is not None and rel <= schedule.stop_rel_subopt and V <= schedule.stop_consensus:
            solved = True
            break
    erg = None
    if collect_ergodic:
        keys = ("t", "ergodic_F", "subopt_gap", "edge_aggregate", "omega_norm")
        erg = {key: np.array(col) for key, col in zip(keys, zip(*erg_rows))}
        if F_star is None:
            erg["subopt_gap"] = [None] * len(erg_rows)
    return simnet.RunResult(
        simnet.RunRecord(rows=tuple(rows)), audit, final_x=X, rounds=audit.rounds,
        solved=solved, ergodic=erg,
    )
