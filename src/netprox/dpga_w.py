"""DPGA-W: distributed proximal gradient over weighted networks.

A communication matrix W (symmetric, zero row sums, negative off-diagonals
on edges, positive semidefinite with rank N-1) defines the consensus
constraints W_ij x_j = y_ij with per-row zero sums on y. Stacked over the
network (row i is agent i) a round costs two neighbor exchanges:

    X^{k+1} = prox_{c xi}(X^k - c (grad f(X^k) + W (P^k + S^k)))   row by row
    S^{k+1} = T^{-1} W X^{k+1}
    P^{k+1} = P^k + S^{k+1}

with T^{-1} = diag(tau_i^{-1}). W is a GraphOperator (the graph Laplacian by
default), the state a NetworkState and the objectives a NetworkObjective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Block, BlockProblem, Chunk, StepPlan, ZeroSumCoupling, base_step, step_rule
from .errors import check_positive
from .objective import adds_noise, network, oracle_grad
from .topology import Graph, GraphOperator, NetworkState

__all__ = [
    "CommunicationMatrix",
    "dpgaw_init",
    "dpgaw_round",
    "sdpgaw_round",
    "tau_values",
    "w_consensus_problem",
]

_W_TOL = 1e-10


@dataclass(frozen=True)
class CommunicationMatrix(GraphOperator):
    """Validated weight matrix plus the squared norms of its per-node columns omega_i.

    omega_i is column i of W restricted to N_i u {i}; its squared norm sets
    the node's stepsize cap. sigma_min_pos is the smallest positive
    eigenvalue.
    """

    omega_norms_sq: tuple[float, ...] = field(init=False, repr=False)
    sigma_min_pos: float = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        m = self.matrix
        g = self.graph
        if not np.allclose(m, m.T, atol=_W_TOL):
            raise ValueError("W must be symmetric")
        for i, j in g.edges:
            if m[i, j] >= 0 or m[j, i] >= 0:
                raise ValueError(f"W[{i},{j}] must be negative on an edge")
        if np.max(np.abs(m.sum(axis=1))) > _W_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("W rows must sum to zero")
        eigs = np.linalg.eigvalsh(m)
        scale = max(float(eigs[-1]), 1.0)
        if eigs[0] < -_W_TOL * scale:
            raise ValueError("W must be positive semidefinite")
        if eigs[1] <= _W_TOL * scale:
            raise ValueError("W must have rank N-1")
        omegas = (m[sorted((*nbrs, i)), i] for i, nbrs in enumerate(g.neighbor_lists))
        object.__setattr__(self, "omega_norms_sq", tuple(float(col @ col) for col in omegas))
        object.__setattr__(self, "sigma_min_pos", float(eigs[1]))

    @classmethod
    def from_laplacian(cls, g: Graph) -> "CommunicationMatrix":
        return cls(matrix=g.laplacian(), graph=g)


def dpgaw_init(
    g: Graph,
    W: CommunicationMatrix,
    objectives,
    gammas,
    x0,
    safety: float = 0.999,
    step_mode: str = "constant",
) -> NetworkState:
    """The DPGA-W network state: c_i from L_i + gamma_i ||omega_i||^2,
    tau_i^-1 = (sum_{j in N_i u {i}} 1/gamma_j)^-1, s0 = 0 and p0 = 0 (the
    start the ergodic bounds require).

    The weights W_ji and penalties gamma_j are exchanged with neighbors once
    here.
    """
    gammas = np.array(gammas, dtype=float)
    N = g.node_count
    if gammas.size != N:
        raise ValueError(f"need one gamma per node, got {gammas.tolist()!r}")
    check_positive(gammas=gammas)
    L = np.array([objectives[i].lipschitz for i in range(N)])
    X0 = np.array(x0, dtype=float)
    closed = [sorted((*nbrs, i)) for i, nbrs in enumerate(g.neighbor_lists)]
    fields = dict(
        x=X0,
        s=np.zeros_like(X0),
        p=np.zeros_like(X0),
        c=base_step(L + gammas * np.array(W.omega_norms_sq), safety, step_mode),
        tau_inv=np.array([1.0 / sum(1.0 / gammas[j] for j in idx) for idx in closed]),
    )
    return NetworkState(fields, {"W": W})


def _round(state: NetworkState, prox, exchange, grads, steps):
    W = state.ops["W"]
    # phase A: exchange p + s, then the local prox-gradient steps
    step = W @ exchange(state.p + state.s)  # the drive, then the step in place
    step += grads
    step *= steps[:, None]
    X = prox(np.subtract(state.x, step, out=step), steps)
    # phase B: exchange the fresh x, then the s and p recursions
    S = W @ exchange(X)
    S *= state.tau_inv[:, None]
    return state.evolve(x=X, s=S, p=state.p + S), X


def dpgaw_round(state: NetworkState, objectives, exchange):
    """One synchronous DPGA-W round: two neighbor exchanges (2n scalars)."""
    net = network(objectives)
    return _round(state, net.prox, exchange, net.f_grad(state.x), state.c)


def sdpgaw_round(
    state: NetworkState,
    objectives,
    oracles,
    k: int,
    exchange,
    horizon: int | None = None,
    rule: str | None = None,
    steps: np.ndarray | None = None,
):
    """Stochastic DPGA-W round; oracles and stepsize schedules as in sdpga_round."""
    if steps is None:
        steps = StepPlan(step_rule(rule, horizon, adds_noise(oracles)), state.c, horizon).step_sizes(k)
    net = network(objectives)
    return _round(state, net.prox, exchange, oracle_grad(net, oracles, state.x), steps)


def tau_values(g: Graph, gammas) -> tuple[float, float]:
    """Both tau_max readings: summed over N_i (as the bound statement is
    written) and over N_i u {i} (as the recursion uses)."""
    gammas = np.asarray(gammas, dtype=float)
    stated = max(
        sum(1.0 / gammas[j] for j in g.neighbor_lists[i]) for i in range(g.node_count)
    )
    proof = max(
        sum(1.0 / gammas[j] for j in g.neighbor_lists[i]) + 1.0 / gammas[i]
        for i in range(g.node_count)
    )
    return float(stated), float(proof)


def w_consensus_problem(g: Graph, W: CommunicationMatrix, objectives, gammas):
    """Block problem for the W-formulation: W_ij x_j - y_ij = 0, with y's
    row sums constrained to zero.

    Constraint (i, j) lives in block j with penalty gamma_j. Returns the
    BlockProblem and the (i, j) -> slot map. The engine reproduces DPGA-W
    when started from y0[(i, j)] = W_ij x_j^0 (pass it explicitly; that y0
    is what folds the initial residual into the first round).
    """
    n = objectives[0].n
    eye = np.eye(n)
    zero = np.zeros(n)
    closed = [sorted(set(g.neighbor_lists[i]) | {i}) for i in range(g.node_count)]
    slot_of: dict[tuple[int, int], int] = {}
    for i in range(g.node_count):
        for j in closed[i]:
            slot_of[(i, j)] = len(slot_of)
    blocks = []
    for j in range(g.node_count):
        chunks = tuple(
            Chunk(A=float(W.matrix[i, j]) * eye, b=zero, slot=slot_of[(i, j)])
            for i in closed[j]
        )
        blocks.append(Block(chunks=chunks))
    groups = tuple(
        tuple(slot_of[(i, j)] for j in closed[i]) for i in range(g.node_count)
    )
    prob = BlockProblem(
        blocks=tuple(blocks),
        objectives=tuple(objectives),
        gammas=np.asarray(gammas, dtype=float),
        coupling=ZeroSumCoupling(groups),
    )
    return prob, slot_of
