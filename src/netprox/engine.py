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

from .errors import check_positive

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
    "pgadmm_step",
    "primal_dual_step",
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

    def stacked_A(self) -> np.ndarray:
        return np.vstack([c.A for c in self.chunks])


class ZeroCoupling:
    """g identically zero: the y-step is a penalty-weighted slot average."""

    def argmin_y(self, prob: "BlockProblem", x, lam) -> list[np.ndarray]:
        return _slot_targets(prob, x, lam)

    def prox(self, v: list[np.ndarray], t: float) -> list[np.ndarray]:
        return [np.array(s, copy=True) for s in v]

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
        check_positive(gammas=gammas)
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
    """c_i^k under a resolved rule: the base c_i for constant steps, else 1/c_i^k =
    1/c_i + sqrt(k), k frozen at the horizon for that rule (a float: no int root past 2**64)."""
    if rule == "constant":
        return base
    return 1.0 / (1.0 / base + np.sqrt(float(horizon if rule == "horizon" else k)))


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
        check_positive(explicit=c)
        if np.any(c * cap > 1.0 + 1e-12):
            raise ValueError("constant steps violate c_i <= 1/(L_i + gamma_i ||A_i||^2)")
    else:
        c = base_step(cap, safety)
    return StepPlan(rule="constant", base=c)


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
    )


def pgadmm_step(state: EngineState, prob: BlockProblem, plan: StepPlan) -> EngineState:
    """One deterministic PG-ADMM step.

    x-step: prox-gradient on the augmented Lagrangian with x evaluated at the
    previous snapshot; y-step: exact minimizer; lambda-step: gamma_i-scaled
    residual ascent. The counter advances.
    """
    c = plan.step_sizes(state.k)
    grads = [prob.objectives[i].f_grad(state.x[i]) for i in range(prob.N)]
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
