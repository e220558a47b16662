"""Linearized ADMM engine for block problems with simple couplings.

The block problem is

    min  sum_i Phi_i(x_i) + g(y)   s.t.  A_i x_i + B_i y = b_i,

where every supported B_i is minus a selector of subvectors of y. y is
therefore stored as a list of slots and each block is a list of constraint
chunks (A piece, b piece, slot id) meaning  A_chunk x_i - y_slot = b_chunk.
Both coupling functions used by the consensus formulations (g identically
zero, and the indicator of per-group zero sums) then admit exact closed-form
y-steps, which keeps the cross-implementation equivalence tests tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import NoisyOracle, oracle_grad

__all__ = [
    "Chunk",
    "Block",
    "ZeroCoupling",
    "ZeroSumCoupling",
    "BlockProblem",
    "EngineState",
    "STEP_RULES",
    "StepPlan",
    "base_step",
    "step_rule",
    "scheduled_step",
    "constant_plan",
    "diminishing_plan",
    "horizon_plan",
    "pgadmm_step",
    "spgadmm_step",
    "primal_dual_step",
    "y_step_residual",
    "engine_objective",
    "constraint_residuals",
    "theorem1_rhs",
    "theorem2_constant",
    "stochastic_extra_term",
    "lyapunov_a",
]


@dataclass(frozen=True)
class Chunk:
    """One constraint chunk A x_i - y_slot = b."""

    A: np.ndarray
    b: np.ndarray
    slot: int

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError(f"chunk shapes inconsistent: A {A.shape}, b {b.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class Block:
    chunks: tuple[Chunk, ...]

    def __post_init__(self) -> None:
        if not self.chunks:
            raise ValueError("block with no constraint chunks")
        n = {c.A.shape[1] for c in self.chunks}
        if len(n) != 1:
            raise ValueError("chunks of one block disagree on the x dimension")

    @property
    def n(self) -> int:
        return self.chunks[0].A.shape[1]

    def stacked_A(self) -> np.ndarray:
        return np.vstack([c.A for c in self.chunks])


class ZeroCoupling:
    """g identically zero: the y-step is a penalty-weighted slot average."""

    def argmin_y(self, prob: "BlockProblem", x, lam) -> list[np.ndarray]:
        return _slot_targets(prob, x, lam)

    def prox(self, v: list[np.ndarray], t: float) -> list[np.ndarray]:
        return [np.array(s, copy=True) for s in v]

    def g_value(self, y) -> float:
        return 0.0

    def groups(self):
        return ()


class ZeroSumCoupling:
    """g = indicator of {sum of the slots in each group is zero}.

    Groups are disjoint tuples of slot ids with equal slot dimension. Slots
    outside every group are unconstrained.
    """

    def __init__(self, groups: tuple[tuple[int, ...], ...]):
        flat = [s for g in groups for s in g]
        if len(set(flat)) != len(flat):
            raise ValueError("zero-sum groups must be disjoint")
        self._groups = tuple(tuple(g) for g in groups)

    def groups(self):
        return self._groups

    def argmin_y(self, prob: "BlockProblem", x, lam) -> list[np.ndarray]:
        vbar = _slot_targets(prob, x, lam)
        w = prob.slot_weights
        for g in self._groups:
            inv = sum(1.0 / w[s] for s in g)
            mu = sum(vbar[s] for s in g) / inv
            for s in g:
                vbar[s] = vbar[s] - mu / w[s]
        return vbar

    def prox(self, v: list[np.ndarray], t: float) -> list[np.ndarray]:
        out = [np.array(s, copy=True) for s in v]
        for g in self._groups:
            mean = sum(out[s] for s in g) / len(g)
            for s in g:
                out[s] = out[s] - mean
        return out

    def g_value(self, y) -> float:
        # finite on its domain; engine states keep y feasible by construction
        return 0.0


def _slot_targets(prob: "BlockProblem", x, lam) -> list[np.ndarray]:
    """Penalty-weighted per-slot average of A x - b + lam/gamma."""
    acc = [np.zeros(d) for d in prob.slot_dims]
    for i, blk in enumerate(prob.blocks):
        gi = prob.gammas[i]
        for r, ch in enumerate(blk.chunks):
            acc[ch.slot] += gi * (ch.A @ x[i] - ch.b) + lam[i][r]
    return [acc[s] / prob.slot_weights[s] for s in range(len(acc))]


@dataclass(frozen=True)
class BlockProblem:
    blocks: tuple[Block, ...]
    objectives: tuple
    gammas: np.ndarray
    coupling: object
    slot_dims: tuple[int, ...] = field(init=False)
    slot_weights: np.ndarray = field(init=False)
    norm_A_sq: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        gammas = np.asarray(self.gammas, dtype=float)
        if len(self.blocks) != len(self.objectives) or len(self.blocks) != gammas.size:
            raise ValueError("blocks, objectives and gammas must align")
        if np.any(gammas <= 0):
            raise ValueError("penalties gamma_i must be positive")
        object.__setattr__(self, "gammas", gammas)
        dims: dict[int, int] = {}
        weights: dict[int, float] = {}
        for i, blk in enumerate(self.blocks):
            for ch in blk.chunks:
                q = ch.A.shape[0]
                if dims.setdefault(ch.slot, q) != q:
                    raise ValueError(f"slot {ch.slot} referenced with two dimensions")
                weights[ch.slot] = weights.get(ch.slot, 0.0) + gammas[i]
        n_slots = max(dims) + 1
        if set(dims) != set(range(n_slots)):
            raise ValueError("slot ids must form a contiguous range starting at 0")
        object.__setattr__(self, "slot_dims", tuple(dims[s] for s in range(n_slots)))
        object.__setattr__(
            self, "slot_weights", np.array([weights[s] for s in range(n_slots)])
        )
        object.__setattr__(
            self,
            "norm_A_sq",
            np.array(
                [float(np.linalg.norm(b.stacked_A(), ord=2) ** 2) for b in self.blocks]
            ),
        )
        for g in self.coupling.groups():
            for s in g:
                if not (0 <= s < n_slots):
                    raise ValueError(f"coupling group references unknown slot {s}")

    @property
    def N(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class EngineState:
    x: tuple[np.ndarray, ...]
    y: tuple[np.ndarray, ...]
    lam: tuple[tuple[np.ndarray, ...], ...]
    k: int
    ergodic_x: tuple[np.ndarray, ...]
    ergodic_y: tuple[np.ndarray, ...]

    @classmethod
    def initial(
        cls, prob: BlockProblem, x0, y0: list[np.ndarray] | None = None
    ) -> "EngineState":
        """Start with lambda = 0 and, unless given, the y minimizing the
        augmented terms at x0 (feasible for the coupling by construction)."""
        x = tuple(np.array(v, dtype=float) for v in x0)
        lam = tuple(
            tuple(np.zeros(ch.A.shape[0]) for ch in blk.chunks) for blk in prob.blocks
        )
        if y0 is None:
            y = tuple(prob.coupling.argmin_y(prob, x, lam))
        else:
            if len(y0) != len(prob.slot_dims) or any(
                np.asarray(v).shape != (d,) for v, d in zip(y0, prob.slot_dims)
            ):
                raise ValueError("y0 does not match the slot layout")
            y = tuple(np.array(v, dtype=float) for v in y0)
        return cls(
            x=x,
            y=y,
            lam=lam,
            k=0,
            ergodic_x=tuple(np.zeros_like(v) for v in x),
            ergodic_y=tuple(np.zeros_like(v) for v in y),
        )

    def ergodic_mean(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        if self.k < 1:
            raise ValueError("ergodic average undefined before the first step")
        return (
            [v / self.k for v in self.ergodic_x],
            [v / self.k for v in self.ergodic_y],
        )


STEP_RULES = ("constant", "diminishing", "horizon")


def base_step(cap, safety: float = 0.999, step_mode: str = "constant"):
    """Base stepsize from the cap L_i + gamma_i ||A_i||^2 (scalar or array):
    safety/cap for constant steps, 1/(cap + 1) for the noisy schedules."""
    if step_mode not in STEP_RULES:
        raise ValueError(f"unknown step_mode {step_mode!r}")
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    return safety / cap if step_mode == "constant" else 1.0 / (cap + 1.0)


def step_rule(rule: str | None, horizon: int | None, oracles=()) -> str:
    """Resolve a stepsize rule (None means horizon when a horizon is given,
    else diminishing) and reject a horizon below 1, constant steps under
    gradient noise and a horizon rule without a horizon."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if rule is None:
        rule = "horizon" if horizon is not None else "diminishing"
    if rule not in STEP_RULES:
        raise ValueError(f"unknown stepsize rule {rule!r}")
    if rule == "constant" and any(o.sigma > 0 for o in oracles):
        raise ValueError(
            "constant steps are only admissible for noiseless oracles; "
            "use a diminishing or horizon rule when sigma > 0"
        )
    if rule == "horizon" and horizon is None:
        raise ValueError("horizon rule needs a horizon")
    return rule


def scheduled_step(base, rule: str, k: int, horizon: int | None = None):
    """c_i^k under a resolved rule: the base c_i for constant steps, else
    1/c_i^k = 1/c_i + sqrt(k), with k frozen at the horizon for that rule."""
    if rule == "constant":
        return base
    return 1.0 / (1.0 / base + np.sqrt(horizon if rule == "horizon" else k))


@dataclass(frozen=True)
class StepPlan:
    """Per-node stepsize schedule under one of STEP_RULES."""

    rule: str
    base: np.ndarray
    horizon: int | None = None

    def __post_init__(self) -> None:
        step_rule(self.rule, self.horizon)

    def step_sizes(self, k: int) -> np.ndarray:
        return scheduled_step(self.base, self.rule, k, self.horizon)


def _cap(prob: BlockProblem) -> np.ndarray:
    L = np.array([o.lipschitz for o in prob.objectives])
    return L + prob.gammas * prob.norm_A_sq


def constant_plan(
    prob: BlockProblem, safety: float = 0.999, explicit: np.ndarray | None = None
) -> StepPlan:
    """Constant steps; requires c_i <= 1/(L_i + gamma_i ||A_i||^2)."""
    cap = _cap(prob)
    if explicit is not None:
        c = np.asarray(explicit, dtype=float)
        if np.any(c <= 0) or np.any(c * cap > 1.0 + 1e-12):
            raise ValueError("constant steps violate c_i <= 1/(L_i + gamma_i ||A_i||^2)")
    else:
        c = base_step(cap, safety)
    return StepPlan(rule="constant", base=c)


def diminishing_plan(prob: BlockProblem) -> StepPlan:
    return StepPlan(rule="diminishing", base=base_step(_cap(prob), step_mode="diminishing"))


def horizon_plan(prob: BlockProblem, horizon: int) -> StepPlan:
    return StepPlan(
        rule="horizon", base=base_step(_cap(prob), step_mode="horizon"), horizon=horizon
    )


def _advance(
    state: EngineState, prob: BlockProblem, c: np.ndarray, grads: list[np.ndarray]
) -> EngineState:
    x_new = []
    for i, blk in enumerate(prob.blocks):
        gi = prob.gammas[i]
        step = grads[i].copy()
        for r, ch in enumerate(blk.chunks):
            resid = ch.A @ state.x[i] - state.y[ch.slot] - ch.b
            step += ch.A.T @ (state.lam[i][r] + gi * resid)
        x_new.append(prob.objectives[i].prox(state.x[i] - c[i] * step, c[i]))
    y_new = prob.coupling.argmin_y(prob, x_new, state.lam)
    lam_new = []
    for i, blk in enumerate(prob.blocks):
        gi = prob.gammas[i]
        lam_new.append(
            tuple(
                state.lam[i][r] + gi * (ch.A @ x_new[i] - y_new[ch.slot] - ch.b)
                for r, ch in enumerate(blk.chunks)
            )
        )
    return EngineState(
        x=tuple(x_new),
        y=tuple(y_new),
        lam=tuple(lam_new),
        k=state.k + 1,
        ergodic_x=tuple(e + v for e, v in zip(state.ergodic_x, x_new)),
        ergodic_y=tuple(e + v for e, v in zip(state.ergodic_y, y_new)),
    )


def pgadmm_step(state: EngineState, prob: BlockProblem, plan: StepPlan) -> EngineState:
    """One deterministic PG-ADMM step.

    x-step: prox-gradient on the augmented Lagrangian with x evaluated at the
    previous snapshot; y-step: exact minimizer; lambda-step: gamma_i-scaled
    residual ascent. The counter and the from-k=1 ergodic sums advance.
    """
    c = plan.step_sizes(state.k)
    grads = [prob.objectives[i].f_grad(state.x[i]) for i in range(prob.N)]
    return _advance(state, prob, c, grads)


def spgadmm_step(
    state: EngineState,
    prob: BlockProblem,
    plan: StepPlan,
    oracles: list[NoisyOracle],
) -> EngineState:
    """PG-ADMM step with oracle gradients and k-dependent stepsizes."""
    step_rule(plan.rule, plan.horizon, oracles)
    c = plan.step_sizes(state.k)
    grads = [
        oracle_grad(prob.objectives[i], oracles[i], state.x[i]) for i in range(prob.N)
    ]
    return _advance(state, prob, c, grads)


def _require_identity_selector(prob: BlockProblem) -> Block:
    if prob.N != 1:
        raise ValueError("primal-dual form needs a single composite block")
    blk = prob.blocks[0]
    slots = sorted(ch.slot for ch in blk.chunks)
    if slots != list(range(len(prob.slot_dims))):
        raise ValueError("primal-dual form requires B = -I (each slot selected once)")
    if any(np.any(ch.b != 0) for ch in blk.chunks):
        raise ValueError("primal-dual form requires b = 0")
    return blk


def primal_dual_step(
    x: np.ndarray,
    lam: list[np.ndarray],
    lam_prev: list[np.ndarray],
    prob: BlockProblem,
    c: float,
    gamma: float,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Two-line primal-dual iteration equivalent to PG-ADMM when B = -I.

        x'      = prox_{c xi}(x - c [grad f(x) + A^T (2 lam - lam_prev)])
        lam'    = prox_{gamma g*}(lam + gamma A x')

    The conjugate prox goes through the Moreau identity
    prox_{gamma g*}(v) = v - gamma prox_{g/gamma}(v/gamma), so any coupling
    with a plain prox works. To track pgadmm_step from the same x0, seed
    k = 0 with lam_prev_r = lam_r - gamma (A_r x0 - y0_slot(r)); that is
    plain lam_prev = lam whenever the coupling prox leaves A x0 fixed.
    """
    blk = _require_identity_selector(prob)
    obj = prob.objectives[0]
    step = obj.f_grad(x).copy()
    for r, ch in enumerate(blk.chunks):
        step += ch.A.T @ (2.0 * lam[r] - lam_prev[r])
    x_new = obj.prox(x - c * step, c)
    v = [lam[r] + gamma * (ch.A @ x_new) for r, ch in enumerate(blk.chunks)]
    # v is chunk-ordered; map through slot order for the coupling prox
    slot_of = [ch.slot for ch in blk.chunks]
    v_slots: list[np.ndarray] = [None] * len(v)  # type: ignore[list-item]
    for r, s in enumerate(slot_of):
        v_slots[s] = v[r]
    px = prob.coupling.prox([u / gamma for u in v_slots], 1.0 / gamma)
    lam_new = [v[r] - gamma * px[slot_of[r]] for r in range(len(v))]
    return x_new, lam_new


def engine_objective(prob: BlockProblem, x, y) -> float:
    total = prob.coupling.g_value(y)
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


def stochastic_extra_term(N: int, Dbar: float, sigma: float, t: int) -> float:
    """N (Dbar^2 + 2 sigma^2) / (2 sqrt(t)), the noise penalty on the bound."""
    return N * (Dbar**2 + 2.0 * sigma**2) / (2.0 * np.sqrt(t))


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
