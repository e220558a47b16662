"""Reference first-order methods run against the same transports.

PG-EXTRA stores four n-vectors per agent (x, W~ x, x^{k-1/2} and the last
gradient) and broadcasts its iterate, one n-vector, once per round; stacked
over the network it is

    X^{k+1/2} = W X^k - W~ X^{k-1} + X^{k-1/2} - c (grad f(X^k) - grad f(X^{k-1}))
    X^{k+1}   = prox_{c xi}(X^{k+1/2})   row by row

with W, W~ the GraphOperator pair from ``mixing_pair``. W~ X^{k-1} is mixed
in round k-1 from the iterates received then and kept; starting it, X^{-1/2}
and grad f(X^{-1}) at zero gives the first round X^{1/2} = W X^0 - c grad f(X^0).
Consensus ADMM is the DPGA-W round with a zero gradient, whose prox is every
node's composite x-update solved to high accuracy by one accelerated
prox-gradient loop over the stacked rows (prox_composite_rows; prox_composite
is its one-row call).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dpga_w import CommunicationMatrix, _round, dpgaw_init
from .errors import InnerSolveError, check_positive
from .objective import NodeObjective, network, row_dot
from .topology import Graph, MixingPair, NetworkState

__all__ = [
    "pg_extra_init",
    "pg_extra_round",
    "pg_extra_kkt_residuals",
    "admm_init",
    "admm_round",
    "prox_composite",
    "prox_composite_rows",
    "ProxOnlyObjective",
]

PROX_MAX_ITER = 200000  # accelerated steps of an inner composite solve before it gives up


def pg_extra_init(g: Graph, mixing: MixingPair, objectives, x0):
    """The PG-EXTRA network state with a common stepsize.

    c is 99% of the cap 2 lam_min(W_tilde) / L_max; the cap uses the largest
    smoothness constant in the network, so picking c needs one max-reduction
    before the run starts.
    """
    L_max = max(o.lipschitz for o in objectives)
    check_positive(L_max=L_max)  # every L_i zero leaves no stepsize cap
    c = 0.99 * 2.0 * mixing.lam_min_tilde / L_max
    X0 = np.array(x0, dtype=float)
    fields = dict(
        x=X0,
        mix_prev=np.zeros_like(X0),
        x_half=np.zeros_like(X0),
        grad_prev=np.zeros_like(X0),
        c=np.full(g.node_count, float(c)),
    )
    return NetworkState(fields, {"W": mixing.W, "W_tilde": mixing.W_tilde})


def pg_extra_round(state: NetworkState, objectives, exchange):
    """One PG-EXTRA round: every node broadcasts x once, mixes the received
    iterates by W for this round and keeps their W~ mix for the next."""
    received = exchange(state.x)
    net = network(objectives)
    grads = net.f_grad(state.x)
    mix = state.ops["W"] @ received - state.mix_prev
    half = mix + state.x_half - state.c[:, None] * (grads - state.grad_prev)
    X = net.prox(half, state.c)
    new = state.evolve(x=X, mix_prev=state.ops["W_tilde"] @ received, x_half=half, grad_prev=grads)
    return new, state.x


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


def prox_composite_rows(objectives, V, steps, Z0, tol: float = 1e-10):
    """Row i is argmin_z xi_i(z) + f_i(z) + |z - v_i|^2 / (2 c_i), c_i = steps[i],
    by accelerated proximal gradient from row i of Z0 with the strong-convexity
    momentum for mu_i = 1/c_i: all rows in one loop, each with its own step and
    momentum. Row i keeps the first iterate whose gradient mapping norm is at or
    below tol, bit for bit where a loop over that row alone would stop.

    Returns the rows and each row's gradient evaluations. After PROX_MAX_ITER steps
    raises InnerSolveError naming the first node still searching, with its residual.
    """
    net, mu = network(objectives), 1.0 / steps
    L_s = np.array([o.lipschitz for o in net]) + mu
    t, root = 1.0 / L_s, np.sqrt(L_s / mu)
    beta = ((root - 1.0) / (root + 1.0))[:, None]
    Z = W = np.array(Z0, dtype=float)
    out, calls = np.empty_like(Z), np.zeros(len(Z), dtype=int)
    searching = np.ones(len(Z), dtype=bool)
    for k in range(1, PROX_MAX_ITER + 1):
        grad = net.f_grad(W) + (W - V) * mu[:, None]
        Z_new = net.prox(W - t[:, None] * grad, t)
        gap = np.sqrt(row_dot(W - Z_new, W - Z_new)) / t
        done = searching & (gap <= tol)
        out[done], calls[done] = Z_new[done], k
        searching &= ~done
        if not searching.any():
            return out, calls
        W, Z = Z_new + beta * (Z_new - Z), Z_new
    i = int(np.argmax(searching))
    msg = f"inner solve stalled at node {i}: gradient mapping {gap[i]:.3e} (tol {tol:.1e})"
    raise InnerSolveError(msg, residual=float(gap[i]))


def prox_composite(objective: NodeObjective, v, c: float, tol=1e-10):
    """argmin_z xi(z) + f(z) + |z - v|^2 / (2c) from z = v: the one-row prox_composite_rows."""
    V = np.asarray(v, dtype=float)[None]
    return prox_composite_rows([objective], V, np.array([c], float), V, tol)[0][0]


@dataclass(frozen=True)
class ProxOnlyObjective:
    """Presents Phi_i = xi_i + f_i as a pure prox term with a zero smooth
    part, so composite-prox methods can be driven through the same round
    functions. The prox itself is an inner solve started at the prox point."""

    inner: NodeObjective
    inner_tol: float = 1e-10

    @property
    def lipschitz(self) -> float:
        return 0.0

    def f_grad(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def prox(self, vbar: np.ndarray, t: float) -> np.ndarray:
        return prox_composite(self.inner, vbar, t, tol=self.inner_tol)


def admm_init(g: Graph, W: CommunicationMatrix, objectives, gamma: float, x0) -> NetworkState:
    """The DPGA-W state for prox-only objectives with one shared gamma: the
    exact stepsizes c_i = 1 / (gamma |omega_i|^2) and tau_i^-1 = gamma / (d_i + 1)."""
    check_positive(gamma=gamma)
    shadows = [ProxOnlyObjective(o) for o in objectives]
    state = dpgaw_init(g, W, shadows, np.full(g.node_count, gamma), x0, safety=1.0)
    return state.evolve(tau_inv=gamma / (np.array(g.degrees) + 1))


def admm_round(state: NetworkState, objectives, exchange, inner_tol: float = 1e-10):
    """One ADMM round: the DPGA-W round with a zero gradient, whose prox is
    every node's composite x-update solved to inner_tol in one
    prox_composite_rows call started at the current iterate, which the
    x-update moves little once the run settles. Returns the inner gradient
    calls per node as well."""
    net, calls = network(objectives), []

    def x_update(V, steps):
        X, counts = prox_composite_rows(net, V, steps, state.x, inner_tol)
        calls.extend(counts.tolist())
        return X

    new_state, X = _round(state, x_update, exchange, np.zeros_like(state.x), state.c)
    return new_state, X, calls
