"""DPGA: distributed proximal gradient over unweighted graphs.

Each agent stores three n-vectors (x, s, p) and broadcasts one per round.
Stacked over the network (row i is agent i) the round is

    X^{k+1} = prox_{c xi}(X^k - c (grad f(X^k) + P^k + S^k))   row by row
    S^{k+1} = Gamma X^{k+1}
    P^{k+1} = P^k + S^{k+1}

with Gamma the weighted-Laplacian operator built from the per-node
penalties. State, Gamma and objectives are a NetworkState, a GraphOperator
and a NetworkObjective. The module also carries the stochastic variant, the
backtracking stepsize rule, the penalty heuristics, and a builder for the
equivalent edge-variable block problem used by the equivalence tests.
"""

from __future__ import annotations

import numpy as np

from .engine import Block, BlockProblem, Chunk, StepPlan, ZeroCoupling, base_step, step_rule
from .errors import check_positive
from .objective import adds_noise, network, oracle_grad, row_dot
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

# backtracking's growth factor Upsilon, and its fault limit on doublings
UPSILON = 2.0
MAX_DOUBLINGS = 60


class GammaMatrix(GraphOperator):
    """Gamma_ij = -gamma_i gamma_j / (gamma_i + gamma_j) on edges, row sums 0."""

    @classmethod
    def build(cls, g: Graph, gammas: np.ndarray) -> "GammaMatrix":
        gammas = np.asarray(gammas, dtype=float)
        check_positive(gammas=gammas)
        i, j = g.edge_ends
        m = np.zeros((g.node_count, g.node_count))
        m[i, j] = m[j, i] = -gammas[i] * gammas[j] / (gammas[i] + gammas[j])
        # row sums taken left to right, in neighbor order, as the node itself would
        np.fill_diagonal(m, -np.cumsum(m, axis=1)[:, -1])
        return cls(matrix=m, graph=g)


def dpga_init(
    g: Graph,
    objectives,
    gammas,
    x0,
    safety: float = 0.999,
    step_mode: str = "constant",
) -> NetworkState:
    """The DPGA network state: stepsizes, Gamma, s0 = Gamma x0 and p0 = 0.

    step_mode "constant" uses c_i = safety/(L_i + gamma_i d_i); the
    stochastic modes ("diminishing", "horizon") use the base
    c_i = 1/(L_i + gamma_i d_i + 1) that their schedules require.
    The one-time gamma exchange with neighbors happens here.
    """
    gammas = np.array(gammas, dtype=float)
    N = g.node_count
    if gammas.size != N:
        raise ValueError(f"need one gamma per node, got {gammas.tolist()!r}")
    check_positive(gammas=gammas)
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
        L_running=L,
        L_init=L,
        degree=degree,
    )
    return NetworkState(fields, {"gamma": Gamma})


def _round(state: NetworkState, exchange, X: np.ndarray, **scalars):
    """Broadcast the new iterates X, then S = Gamma X and P += S. Returns
    the new state and the broadcast payload."""
    S = state.ops["gamma"] @ exchange(X)
    return state.evolve(x=X, s=S, p=state.p + S, **scalars), X


def _prox_step(state: NetworkState, net, grads, steps) -> np.ndarray:
    step = grads + state.p  # the drive, then the step in place
    step += state.s
    step *= steps[:, None]
    return net.prox(np.subtract(state.x, step, out=step), steps)


def dpga_round(state: NetworkState, objectives, exchange):
    """One synchronous DPGA round (constant steps).

    exchange hands the stacked (N, n) broadcast to the receivers; the
    simulator supplies it with auditing attached. Returns the new state and
    the payload that was broadcast.
    """
    net = network(objectives)
    return _round(state, exchange, _prox_step(state, net, net.f_grad(state.x), state.c))


def adaptive_backtrack(state: NetworkState, net):
    """Backtracking stepsizes for every agent: row i takes the smallest
    l >= 0 with L = L_i^prev Upsilon^(l-1) passing the descent check

        f_i(x_trial) <= f_i(x_i) + <grad_i, dx> + L/2 ||dx||^2

    where x_trial is the prox step with c = 1/(L + gamma_i d_i). Each trial
    is one prox and one f evaluation over all rows; a row keeps the first
    l it accepts. Returns (X_new, L_new, c_new); L_new stays at or below
    Upsilon * L_i.
    """
    X = state.x
    grad, f0 = net.f_grad(X), net.f_value(X)
    gd = state.gamma * state.degree
    drive = grad + state.p + state.s
    X_new, L_new = np.empty_like(X), np.empty_like(gd)
    searching = np.ones(len(X), dtype=bool)
    for l in range(MAX_DOUBLINGS + 1):
        L = state.L_running * UPSILON ** (l - 1)
        c = 1.0 / (L + gd)
        trial = net.prox(X - c[:, None] * drive, c)
        dx = trial - X
        bound = f0 + row_dot(grad, dx) + 0.5 * L * row_dot(dx, dx)
        accept = searching & (net.f_value(trial) <= bound)
        over = accept & (L > UPSILON * state.L_init * (1 + 1e-12))
        if over.any():
            i = int(np.argmax(over))
            raise RuntimeError(
                f"accepted L {L[i]} exceeds upsilon * L_i at node {i}; "
                "gradient or Lipschitz constant is inconsistent"
            )
        X_new[accept], L_new[accept] = trial[accept], L[accept]
        searching &= ~accept
        if not searching.any():
            return X_new, L_new, 1.0 / (L_new + gd)
    raise RuntimeError(
        f"descent check failed after {MAX_DOUBLINGS} doublings "
        f"at node {int(np.argmax(searching))}"
    )


def dpga_round_adaptive(state: NetworkState, objectives, exchange):
    """DPGA round with the backtracking stepsize rule (AS mode)."""
    X, L, c = adaptive_backtrack(state, network(objectives))
    return _round(state, exchange, X, L_running=L, c=c)


def sdpga_round(
    state: NetworkState,
    objectives,
    oracles,
    k: int,
    exchange,
    horizon: int | None = None,
    rule: str | None = None,
    steps: np.ndarray | None = None,
):
    """Stochastic DPGA round; oracles is the network's NoisyOracle or one per node.

    Stepsizes follow 1/c_i^k = 1/c_i + sqrt(k) by default, or the
    horizon-constant variant 1/c_i^k = 1/c_i + sqrt(horizon) when a horizon
    is given. rule="constant" is admissible only for sigma = 0 oracles and
    then reproduces dpga_round exactly. steps, when given, are this round's
    stepsizes from a StepPlan the caller built once (as run_synchronous
    does), and rule and horizon are not read.
    """
    if steps is None:
        steps = StepPlan(step_rule(rule, horizon, adds_noise(oracles)), state.c, horizon).step_sizes(k)
    net = network(objectives)
    grads = oracle_grad(net, oracles, state.x)
    return _round(state, exchange, _prox_step(state, net, grads, steps))


def gamma_heuristic(g: Graph, c_factor: float = 2.6) -> float:
    """Penalty heuristic sqrt(c |N| / (|E| min_i d_i))."""
    check_positive(c_factor=c_factor)  # gamma = 0 is no penalty
    return float(np.sqrt(c_factor * g.node_count / (g.edge_count * g.min_degree)))


def gamma_star(
    kappas: np.ndarray, psi_min_pos: float, edge_count: int, dist0: float
) -> float:
    """Bound-optimal equal penalty (2/||x0 - x*||) sqrt((sum kappa^2/psi + 1)/|E|)."""
    check_positive(dist0=dist0)  # x0 = x*: the bound falls as gamma grows, so no gamma is optimal
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
