"""DPGA-W: distributed proximal gradient over weighted networks.

A communication matrix W (symmetric, zero row sums, negative off-diagonals
on edges, positive semidefinite with rank N-1) defines the consensus
constraints W_ij x_j = y_ij with per-row zero sums on y. Each round costs two
neighbor exchanges: first p + s, then the fresh x. The graph Laplacian is the
default W.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dpga import mix, weight_row
from .engine import Block, BlockProblem, Chunk, ZeroSumCoupling, base_step, scheduled_step, step_rule
from .objective import NoisyOracle, oracle_grad
from .topology import Graph

__all__ = [
    "CommunicationMatrix",
    "DpgaWNode",
    "dpgaw_init",
    "dpgaw_round",
    "sdpgaw_round",
    "tau_values",
    "w_consensus_problem",
]

_W_TOL = 1e-10


@dataclass(frozen=True)
class CommunicationMatrix:
    """Validated weight matrix plus cached per-node columns omega_i.

    omega_i is column i of W restricted to N_i u {i}; its squared norm sets
    the node's stepsize cap. sigma_min_pos is the smallest positive
    eigenvalue.
    """

    matrix: np.ndarray
    graph: Graph
    omegas: tuple[np.ndarray, ...] = field(init=False, repr=False)
    omega_norms_sq: tuple[float, ...] = field(init=False, repr=False)
    sigma_min_pos: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        g = self.graph
        N = g.node_count
        if m.shape != (N, N):
            raise ValueError(f"W has shape {m.shape}, expected ({N}, {N})")
        if not np.allclose(m, m.T, atol=_W_TOL):
            raise ValueError("W must be symmetric")
        nbr = [set(lst) for lst in g.neighbor_lists]
        for i in range(N):
            for j in range(N):
                if i == j:
                    continue
                if j in nbr[i]:
                    if m[i, j] >= 0:
                        raise ValueError(f"W[{i},{j}] must be negative on an edge")
                elif m[i, j] != 0:
                    raise ValueError(f"W[{i},{j}] must be zero off the graph")
        if np.max(np.abs(m.sum(axis=1))) > _W_TOL * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError("W rows must sum to zero")
        eigs = np.linalg.eigvalsh(m)
        scale = max(float(eigs[-1]), 1.0)
        if eigs[0] < -_W_TOL * scale:
            raise ValueError("W must be positive semidefinite")
        if eigs[1] <= _W_TOL * scale:
            raise ValueError("W must have rank N-1")
        object.__setattr__(self, "matrix", m)
        omegas = []
        norms = []
        for i in range(N):
            idx = sorted(nbr[i] | {i})
            col = m[idx, i]
            omegas.append(col)
            norms.append(float(col @ col))
        object.__setattr__(self, "omegas", tuple(omegas))
        object.__setattr__(self, "omega_norms_sq", tuple(norms))
        object.__setattr__(self, "sigma_min_pos", float(eigs[1]))

    @classmethod
    def from_laplacian(cls, g: Graph) -> "CommunicationMatrix":
        return cls(matrix=g.laplacian(), graph=g)


@dataclass(frozen=True)
class DpgaWNode:
    """One DPGA-W agent: three n-vectors plus exchanged scalars."""

    node_id: int
    x: np.ndarray
    s: np.ndarray
    p: np.ndarray
    c: float
    gamma: float
    tau_inv: float  # (sum_{j in N_i u {i}} 1/gamma_j)^{-1}
    w_row: dict[int, float]  # j -> W_ij over N_i u {i}

    @property
    def degree(self) -> int:
        return len(self.w_row) - 1

    def vector_count(self) -> int:
        return 3


def dpgaw_init(
    g: Graph,
    W: CommunicationMatrix,
    objectives,
    gammas,
    x0,
    p0=None,
    safety: float = 0.999,
    step_mode: str = "constant",
) -> list[DpgaWNode]:
    """Nodes with c_i from L_i + gamma_i ||omega_i||^2, s0 = 0.

    The weights W_ji and penalties gamma_j are exchanged with neighbors once
    here. p0 defaults to zero, which the ergodic bounds require.
    """
    gammas = np.asarray(gammas, dtype=float)
    N = g.node_count
    if gammas.size != N or np.any(gammas <= 0):
        raise ValueError("need one positive gamma per node")
    L = np.array([objectives[i].lipschitz for i in range(N)])
    c = base_step(L + gammas * np.array(W.omega_norms_sq), safety, step_mode)
    nodes = []
    for i in range(N):
        w_row = weight_row(g, W.matrix, i)
        x_i = np.array(x0[i], dtype=float)
        nodes.append(
            DpgaWNode(
                node_id=i,
                x=x_i,
                s=np.zeros_like(x_i),
                p=np.zeros_like(x_i) if p0 is None else np.array(p0[i], dtype=float),
                c=float(c[i]),
                gamma=float(gammas[i]),
                tau_inv=1.0 / sum(1.0 / gammas[j] for j in w_row),
                w_row=w_row,
            )
        )
    return nodes


def _round(nodes, objectives, exchange, grad_of, step_of):
    # phase A: exchange p + s, then the local prox-gradient step
    phase_a = {nd.node_id: nd.p + nd.s for nd in nodes}
    inbox_a = exchange(phase_a)
    proposals = {}
    for node, obj in zip(nodes, objectives):
        i = node.node_id
        drive = mix(node.w_row, i, phase_a[i], inbox_a[i])
        ck = step_of(node)
        proposals[i] = obj.prox(node.x - ck * (grad_of(node, obj) + drive), ck)
    # phase B: exchange the fresh x, then the s and p recursions
    inbox_b = exchange(proposals)
    new_nodes = []
    for node in nodes:
        i = node.node_id
        s_new = node.tau_inv * mix(node.w_row, i, proposals[i], inbox_b[i])
        new_nodes.append(replace(node, x=proposals[i], s=s_new, p=node.p + s_new))
    return new_nodes, proposals


def dpgaw_round(nodes, objectives, exchange):
    """One synchronous DPGA-W round: two neighbor exchanges (2n scalars)."""
    return _round(
        nodes,
        objectives,
        exchange,
        grad_of=lambda node, obj: obj.f_grad(node.x),
        step_of=lambda node: node.c,
    )


def sdpgaw_round(
    nodes,
    objectives,
    oracles: list[NoisyOracle],
    k: int,
    exchange,
    horizon: int | None = None,
    rule: str | None = None,
):
    """Stochastic DPGA-W round; stepsize schedules as in sdpga_round."""
    rule = step_rule(rule, horizon, oracles)
    oracle_of = {nd.node_id: orc for nd, orc in zip(nodes, oracles)}
    return _round(
        nodes,
        objectives,
        exchange,
        grad_of=lambda node, obj: oracle_grad(obj, oracle_of[node.node_id], node.x),
        step_of=lambda node: scheduled_step(node.c, rule, k, horizon),
    )


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
