"""DPGA: distributed proximal gradient over unweighted graphs.

Each agent stores three n-vectors (x, s, p) and broadcasts one per round.
Stacked over the network (row i is agent i) the round is

    X^{k+1} = prox_{c xi}(X^k - c (grad f(X^k) + P^k + S^k))   row by row
    S^{k+1} = Gamma X^{k+1}
    P^{k+1} = P^k + S^{k+1}

with Gamma the weighted-Laplacian operator built from the per-node
penalties. The state is a NetworkState and Gamma a GraphOperator, so the
only per-node loop is the gradient and prox calls. The module also carries
the stochastic variant, the backtracking stepsize rule, the penalty
heuristics, and a builder for the equivalent edge-variable block problem
used by the equivalence tests.
"""

from __future__ import annotations

import numpy as np

from .engine import Block, BlockProblem, Chunk, ZeroCoupling, base_step, scheduled_step, step_rule
from .objective import NoisyOracle, oracle_grad
from .topology import Graph, GraphOperator, NetworkState

__all__ = [
    "GammaMatrix",
    "dpga_init",
    "dpga_round",
    "dpga_round_adaptive",
    "sdpga_round",
    "adaptive_backtrack",
    "gamma_heuristic",
    "gamma_star",
    "edge_consensus_problem",
]


class GammaMatrix(GraphOperator):
    """Gamma_ij = -gamma_i gamma_j / (gamma_i + gamma_j) on edges, row sums 0."""

    @classmethod
    def build(cls, g: Graph, gammas: np.ndarray) -> "GammaMatrix":
        gammas = np.asarray(gammas, dtype=float)
        if np.any(gammas <= 0):
            raise ValueError("penalties must be positive")
        N = g.node_count
        m = np.zeros((N, N))
        for i, j in g.edges:
            v = gammas[i] * gammas[j] / (gammas[i] + gammas[j])
            m[i, j] = m[j, i] = -v
        for i in range(N):
            # summed in neighbor order, as the node itself would
            m[i, i] = -sum(m[i, j] for j in g.neighbor_lists[i])
        return cls(matrix=m, graph=g)


def dpga_init(
    g: Graph,
    objectives,
    gammas,
    x0,
    safety: float = 0.999,
    step_mode: str = "constant",
    optimistic_L: bool = False,
    upsilon: float = 2.0,
) -> NetworkState:
    """The DPGA network state: stepsizes, Gamma, s0 = Gamma x0 and p0 = 0.

    step_mode "constant" uses c_i = safety/(L_i + gamma_i d_i); the
    stochastic modes ("diminishing", "horizon") use the base
    c_i = 1/(L_i + gamma_i d_i + 1) that their schedules require.
    The one-time gamma exchange with neighbors happens here.
    """
    gammas = np.array(gammas, dtype=float)
    N = g.node_count
    if gammas.size != N or np.any(gammas <= 0):
        raise ValueError("need one positive gamma per node")
    L = np.array([objectives[i].lipschitz for i in range(N)])
    degree = np.array(g.degrees)
    Gamma = GammaMatrix.build(g, gammas)
    X0 = np.array(x0, dtype=float)
    S0 = Gamma @ X0
    fields = dict(
        x=X0,
        s=S0,
        p=np.zeros_like(S0),
        c=base_step(L + gammas * degree, safety, step_mode),
        gamma=gammas,
        L_running=L / upsilon**4 if optimistic_L else L,
        L_init=L,
        degree=degree,
    )
    return NetworkState(fields, {"gamma": Gamma})


def _round(state: NetworkState, exchange, X: np.ndarray, **scalars):
    """Broadcast the new iterates X, then S = Gamma X and P += S. Returns
    the new state and the broadcast payload."""
    S = state.ops["gamma"] @ exchange(X)
    return state.evolve(x=X, s=S, p=state.p + S, **scalars), X


def _prox_step(state: NetworkState, objectives, grads, steps) -> np.ndarray:
    V = state.x - steps[:, None] * (np.stack(grads) + state.p + state.s)
    return np.stack([obj.prox(v, c) for obj, v, c in zip(objectives, V, steps.tolist())])


def dpga_round(state: NetworkState, objectives, exchange):
    """One synchronous DPGA round (constant steps).

    exchange hands the stacked (N, n) broadcast to the receivers; the
    simulator supplies it with auditing attached. Returns the new state and
    the payload that was broadcast.
    """
    grads = [obj.f_grad(x) for obj, x in zip(objectives, state.x)]
    return _round(state, exchange, _prox_step(state, objectives, grads, state.c))


def adaptive_backtrack(
    node,
    objective,
    upsilon: float,
    grad: np.ndarray | None = None,
    max_doublings: int = 60,
):
    """Backtracking stepsize for one agent (a view ``state[i]``): smallest
    l >= 0 with L = L_prev Upsilon^(l-1) passing the descent check

        f(x_trial) <= f(x) + <grad, dx> + L/2 ||dx||^2

    where x_trial is the prox step with c = 1/(L + gamma_i d_i). Returns
    (x_new, L_new, c_new). L_new stays at or below Upsilon * L_i.
    """
    if upsilon <= 1:
        raise ValueError("upsilon must exceed 1")
    x, L_prev = node.x, node.L_running
    if grad is None:
        grad = objective.f_grad(x)
    f0 = objective.f_value(x)
    gd = node.gamma * node.degree
    drive = grad + node.p + node.s
    for l in range(max_doublings + 1):
        L_cand = L_prev * upsilon ** (l - 1)
        c_cand = 1.0 / (L_cand + gd)
        x_trial = objective.prox(x - c_cand * drive, c_cand)
        dx = x_trial - x
        if objective.f_value(x_trial) <= f0 + grad @ dx + 0.5 * L_cand * (dx @ dx):
            if L_cand > upsilon * node.L_init * (1 + 1e-12):
                raise RuntimeError(
                    f"accepted L {L_cand} exceeds upsilon * L_i; "
                    "gradient or Lipschitz constant is inconsistent"
                )
            return x_trial, L_cand, c_cand
    raise RuntimeError(
        f"descent check failed after {max_doublings} doublings at node {node.node_id}"
    )


def dpga_round_adaptive(state: NetworkState, objectives, exchange, upsilon: float = 2.0):
    """DPGA round with the backtracking stepsize rule (AS mode)."""
    xs, Ls, cs = zip(
        *(adaptive_backtrack(node, obj, upsilon) for node, obj in zip(state, objectives))
    )
    return _round(state, exchange, np.stack(xs), L_running=np.array(Ls), c=np.array(cs))


def sdpga_round(
    state: NetworkState,
    objectives,
    oracles: list[NoisyOracle],
    k: int,
    exchange,
    horizon: int | None = None,
    rule: str | None = None,
):
    """Stochastic DPGA round.

    Stepsizes follow 1/c_i^k = 1/c_i + sqrt(k) by default, or the
    horizon-constant variant 1/c_i^k = 1/c_i + sqrt(horizon) when a horizon
    is given. rule="constant" is admissible only for sigma = 0 oracles and
    then reproduces dpga_round exactly.
    """
    rule = step_rule(rule, horizon, oracles)
    grads = [oracle_grad(obj, orc, x) for obj, orc, x in zip(objectives, oracles, state.x)]
    steps = scheduled_step(state.c, rule, k, horizon)
    return _round(state, exchange, _prox_step(state, objectives, grads, steps))


def gamma_heuristic(g: Graph, c_factor: float = 2.6) -> float:
    """Penalty heuristic sqrt(c |N| / (|E| min_i d_i))."""
    if c_factor <= 0:
        raise ValueError("c_factor must be positive; gamma = 0 is not a penalty")
    return float(np.sqrt(c_factor * g.node_count / (g.edge_count * g.min_degree)))


def gamma_star(
    kappas: np.ndarray, psi_min_pos: float, edge_count: int, dist0: float
) -> float:
    """Bound-optimal equal penalty (2/||x0 - x*||) sqrt((sum kappa^2/psi + 1)/|E|)."""
    if dist0 <= 0:
        raise ValueError("x0 coincides with x*; any positive gamma works")
    kap2 = float(np.sum(np.asarray(kappas) ** 2))
    return 2.0 / dist0 * float(np.sqrt((kap2 / psi_min_pos + 1.0) / edge_count))


def edge_consensus_problem(g: Graph, objectives, gammas):
    """Edge-variable consensus block problem: x_i - y_e = 0 for e incident to i.

    Returns the BlockProblem (coupling g identically 0) and the edge -> slot
    index map. Feeding it to the engine with the default y0 reproduces DPGA.
    """
    slot_of = {e: idx for idx, e in enumerate(g.edges)}
    n = objectives[0].n
    eye = np.eye(n)
    zero = np.zeros(n)
    blocks = []
    for i in range(g.node_count):
        chunks = []
        for j in g.neighbor_lists[i]:
            e = (i, j) if i < j else (j, i)
            chunks.append(Chunk(A=eye, b=zero, slot=slot_of[e]))
        blocks.append(Block(chunks=tuple(chunks)))
    prob = BlockProblem(
        blocks=tuple(blocks),
        objectives=tuple(objectives),
        gammas=np.asarray(gammas, dtype=float),
        coupling=ZeroCoupling(),
    )
    return prob, slot_of
