"""Reference first-order methods run against the same transports.

PG-EXTRA tracks four local n-vectors and broadcasts the (current, previous)
iterate pair once per round. Consensus ADMM is the DPGA-W round run on
prox-only objectives, whose prox is the composite x-update solved to high
accuracy with an inner accelerated solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dpga import mix, weight_row
from .dpga_w import CommunicationMatrix, DpgaWNode, dpgaw_init, dpgaw_round
from .errors import InnerSolveError
from .objective import NodeObjective
from .topology import Graph, MixingPair

__all__ = [
    "PgExtraNode",
    "pg_extra_init",
    "pg_extra_round",
    "pg_extra_kkt_residuals",
    "admm_init",
    "admm_round",
    "prox_composite",
    "ProxOnlyObjective",
]


@dataclass(frozen=True)
class PgExtraNode:
    """PG-EXTRA agent state: current/previous iterates, the pre-prox point,
    and the previous gradient (four n-vectors)."""

    node_id: int
    x_curr: np.ndarray
    x_prev: np.ndarray
    x_half: np.ndarray
    grad_prev: np.ndarray
    c: float
    stage: int
    w_row: dict[int, float]
    wt_row: dict[int, float]

    def vector_count(self) -> int:
        return 4


def pg_extra_init(g: Graph, mixing: MixingPair, objectives, x0, c: float | None = None):
    """Nodes for PG-EXTRA with a common stepsize.

    The default c is 99% of the cap 2 lam_min(W_tilde) / L_max; the cap uses
    the largest smoothness constant in the network, so picking c needs one
    max-reduction before the run starts.
    """
    L_max = max(o.lipschitz for o in objectives)
    if c is None:
        if L_max <= 0:
            raise ValueError("cannot default the stepsize when every L_i is zero")
        c = 0.99 * 2.0 * mixing.lam_min_tilde / L_max
    cap = np.inf if L_max == 0 else 2.0 * mixing.lam_min_tilde / L_max
    if not 0 < c < cap:
        raise ValueError(f"stepsize {c} outside (0, {cap})")
    nodes = []
    for i in range(g.node_count):
        x_i = np.array(x0[i], dtype=float)
        nodes.append(
            PgExtraNode(
                node_id=i,
                x_curr=x_i,
                x_prev=x_i.copy(),
                x_half=np.zeros_like(x_i),
                grad_prev=np.zeros_like(x_i),
                c=float(c),
                stage=0,
                w_row=weight_row(g, mixing.W, i),
                wt_row=weight_row(g, mixing.W_tilde, i),
            )
        )
    return nodes


def pg_extra_round(nodes, objectives, exchange):
    """One PG-EXTRA round.

    Every node broadcasts the stacked pair (x_curr, x_prev); round zero sends
    the starting point twice so the message size never varies.
    """
    payloads = {nd.node_id: np.stack([nd.x_curr, nd.x_prev]) for nd in nodes}
    inboxes = exchange(payloads)
    new_nodes = []
    for node, obj in zip(nodes, objectives):
        i = node.node_id
        mix_curr = mix(node.w_row, i, payloads[i], inboxes[i])[0]
        grad_new = obj.f_grad(node.x_curr)
        if node.stage == 0:
            half = mix_curr - node.c * grad_new
        else:
            mix_prev = mix(node.wt_row, i, payloads[i], inboxes[i])[1]
            half = mix_curr - mix_prev + node.x_half - node.c * (grad_new - node.grad_prev)
        x_next = obj.prox(half, node.c)
        new_nodes.append(
            replace(
                node,
                x_prev=node.x_curr,
                x_curr=x_next,
                x_half=half,
                grad_prev=grad_new,
                stage=node.stage + 1,
            )
        )
    return new_nodes, payloads


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
    diff = mixing.W_tilde - mixing.W
    evals, evecs = np.linalg.eigh(diff)
    U = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    kkt_sq = np.empty(T)
    cons_sq = np.empty(T)
    running = np.zeros_like(np.asarray(x_trace[0], dtype=float))
    for m in range(T):
        X_m = np.asarray(x_trace[m], dtype=float)
        X_next = np.asarray(x_trace[m + 1], dtype=float)
        running = running + X_m
        grads = np.stack([obj.f_grad(X_m[i]) for i, obj in enumerate(objectives)])
        G = (np.asarray(half_trace[m], dtype=float) - X_next) / c
        R = diff @ running + c * (grads + G)
        kkt_sq[m] = float(np.sum(R * (mixing.W_tilde @ R)))
        UX = U @ X_next
        cons_sq[m] = float(np.sum(UX * UX))
    return kkt_sq, cons_sq


def prox_composite(
    objective: NodeObjective,
    v: np.ndarray,
    c: float,
    tol: float = 1e-10,
    max_iter: int = 200000,
    z0: np.ndarray | None = None,
) -> np.ndarray:
    """argmin_z xi(z) + f(z) + |z - v|^2 / (2c) by accelerated proximal
    gradient with the strong-convexity momentum for mu = 1/c.

    Stops when the gradient mapping norm falls below tol; raises
    InnerSolveError (carrying the achieved residual) when max_iter is hit.
    """
    mu = 1.0 / c
    L_s = objective.lipschitz + mu
    t = 1.0 / L_s
    kappa = L_s / mu
    beta = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
    z = np.array(v if z0 is None else z0, dtype=float)
    w = z.copy()
    for _ in range(max_iter):
        grad = objective.f_grad(w) + (w - v) * mu
        z_new = objective.prox(w - t * grad, t)
        gap = float(np.linalg.norm(w - z_new)) / t
        if gap <= tol:
            return z_new
        w = z_new + beta * (z_new - z)
        z = z_new
    raise InnerSolveError(
        f"inner solve stalled at gradient mapping {gap:.3e} (tol {tol:.1e})",
        residual=gap,
    )


@dataclass(frozen=True)
class ProxOnlyObjective:
    """Presents Phi_i = xi_i + f_i as a pure prox term with a zero smooth
    part, so composite-prox methods can be driven through the same round
    functions. The prox itself is an inner solve."""

    inner: NodeObjective
    inner_tol: float = 1e-10

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def lipschitz(self) -> float:
        return 0.0

    def xi_value(self, x: np.ndarray) -> float:
        return self.inner.phi(x)

    def f_value(self, x: np.ndarray) -> float:
        return 0.0

    def f_grad(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def phi(self, x: np.ndarray) -> float:
        return self.inner.phi(x)

    def prox(self, vbar: np.ndarray, t: float) -> np.ndarray:
        return prox_composite(self.inner, vbar, t, tol=self.inner_tol, z0=vbar)


def admm_init(g: Graph, W: CommunicationMatrix, objectives, gamma: float, x0) -> list[DpgaWNode]:
    """DPGA-W nodes for prox-only objectives with one shared gamma: the exact
    stepsizes c_i = 1 / (gamma |omega_i|^2) and tau_i^-1 = gamma / (d_i + 1)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    shadows = [ProxOnlyObjective(o) for o in objectives]
    nodes = dpgaw_init(g, W, shadows, np.full(g.node_count, gamma), x0, safety=1.0)
    return [replace(nd, tau_inv=gamma / (g.degrees[nd.node_id] + 1)) for nd in nodes]


def admm_round(nodes, objectives, exchange, inner_tol: float = 1e-10):
    """One ADMM round: the DPGA-W round on prox-only views of the objectives
    (exchange p + s, solve the composite x-update to inner_tol, exchange x,
    update s and p). Returns the inner gradient calls per node as well."""
    counters = [_InnerCounter(obj) for obj in objectives]
    shadows = [ProxOnlyObjective(counter, inner_tol=inner_tol) for counter in counters]
    new_nodes, proposals = dpgaw_round(nodes, shadows, exchange)
    return new_nodes, proposals, [counter.calls for counter in counters]


class _InnerCounter:
    """Counts gradient calls while delegating to a NodeObjective."""

    def __init__(self, obj: NodeObjective):
        self._obj = obj
        self.calls = 0

    @property
    def lipschitz(self) -> float:
        return self._obj.lipschitz

    def f_grad(self, x):
        self.calls += 1
        return self._obj.f_grad(x)

    def prox(self, v, t):
        return self._obj.prox(v, t)
