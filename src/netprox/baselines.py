"""Reference first-order methods run against the same transports.

PG-EXTRA stores four n-vectors per agent and broadcasts the (current,
previous) iterate pair once per round; stacked over the network it is

    X^{k+1/2} = W X^k - W~ X^{k-1} + X^{k-1/2} - c (grad f(X^k) - grad f(X^{k-1}))
    X^{k+1}   = prox_{c xi}(X^{k+1/2})   row by row

with the first round X^{1/2} = W X^0 - c grad f(X^0), and W, W~ the
GraphOperator pair from ``mixing_pair``. Consensus ADMM is the DPGA-W round
run on prox-only objectives, whose prox is the composite x-update solved to
high accuracy with an inner accelerated solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpga_w import CommunicationMatrix, dpgaw_init, dpgaw_round
from .errors import InnerSolveError
from .objective import NodeObjective, network
from .topology import Graph, MixingPair, NetworkState

__all__ = [
    "pg_extra_init",
    "pg_extra_round",
    "pg_extra_kkt_residuals",
    "admm_init",
    "admm_round",
    "prox_composite",
    "ProxOnlyObjective",
]


def pg_extra_init(g: Graph, mixing: MixingPair, objectives, x0):
    """The PG-EXTRA network state with a common stepsize.

    c is 99% of the cap 2 lam_min(W_tilde) / L_max; the cap uses the largest
    smoothness constant in the network, so picking c needs one max-reduction
    before the run starts.
    """
    L_max = max(o.lipschitz for o in objectives)
    if L_max <= 0:
        raise ValueError("cannot set the stepsize when every L_i is zero")
    c = 0.99 * 2.0 * mixing.lam_min_tilde / L_max
    X0 = np.array(x0, dtype=float)
    fields = dict(
        x=X0,
        x_prev=X0.copy(),
        x_half=np.zeros_like(X0),
        grad_prev=np.zeros_like(X0),
        c=np.full(g.node_count, float(c)),
        stage=np.zeros(g.node_count, dtype=int),
    )
    return NetworkState(fields, {"W": mixing.W, "W_tilde": mixing.W_tilde})


def pg_extra_round(state: NetworkState, objectives, exchange):
    """One PG-EXTRA round.

    Every node broadcasts the stacked pair (x, x_prev); round zero sends
    the starting point twice so the message size never varies.
    """
    payload = np.stack([state.x, state.x_prev], axis=1)
    received = exchange(payload)
    mix_curr = state.ops["W"] @ received[:, 0]
    net = network(objectives)
    grads = net.f_grad(state.x)
    c = state.c[:, None]
    first = mix_curr - c * grads
    mix_prev = state.ops["W_tilde"] @ received[:, 1]
    later = mix_curr - mix_prev + state.x_half - c * (grads - state.grad_prev)
    half = np.where((state.stage == 0)[:, None], first, later)
    X = net.prox(half, state.c)
    new = state.evolve(x=X, x_prev=state.x, x_half=half, grad_prev=grads, stage=state.stage + 1)
    return new, payload


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
    functions. The prox itself is an inner solve, started at start or, when
    start is None, at the prox point."""

    inner: NodeObjective
    inner_tol: float = 1e-10
    start: np.ndarray | None = None

    @property
    def lipschitz(self) -> float:
        return 0.0

    def f_grad(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def prox(self, vbar: np.ndarray, t: float) -> np.ndarray:
        return prox_composite(self.inner, vbar, t, tol=self.inner_tol, z0=self.start)


def admm_init(g: Graph, W: CommunicationMatrix, objectives, gamma: float, x0) -> NetworkState:
    """The DPGA-W state for prox-only objectives with one shared gamma: the
    exact stepsizes c_i = 1 / (gamma |omega_i|^2) and tau_i^-1 = gamma / (d_i + 1)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    shadows = [ProxOnlyObjective(o) for o in objectives]
    state = dpgaw_init(g, W, shadows, np.full(g.node_count, gamma), x0, safety=1.0)
    return state.evolve(tau_inv=gamma / (np.array(g.degrees) + 1))


def admm_round(state: NetworkState, objectives, exchange, inner_tol: float = 1e-10):
    """One ADMM round: the DPGA-W round on prox-only views of the objectives
    (exchange p + s, solve the composite x-update to inner_tol, exchange x,
    update s and p). Each inner solve starts at the node's current x_i, which
    the x-update moves little once the run settles. Returns the inner
    gradient calls per node as well."""
    counters = [_InnerCounter(obj) for obj in objectives]
    shadows = [ProxOnlyObjective(cnt, inner_tol, start=x) for cnt, x in zip(counters, state.x)]
    new_state, X = dpgaw_round(state, shadows, exchange)
    return new_state, X, [counter.calls for counter in counters]


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
