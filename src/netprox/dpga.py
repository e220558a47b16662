"""DPGA: node-based distributed proximal gradient over unweighted graphs.

Per round each node holds three n-vectors (x, s, p) and broadcasts one. The
update is

    x_i^{k+1} = prox_{c_i xi_i}(x_i^k - c_i (grad f_i(x_i^k) + p_i^k + s_i^k))
    s_i^{k+1} = sum_{j in N_i u {i}} Gamma_ij x_j^{k+1}
    p_i^{k+1} = p_i^k + s_i^{k+1}

with Gamma the weighted-Laplacian matrix built from the per-node penalties.
The module also carries the stochastic variant, the backtracking stepsize
rule, the penalty heuristics, and a builder for the equivalent edge-variable
block problem used by the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import Block, BlockProblem, Chunk, ZeroCoupling, base_step, scheduled_step, step_rule
from .errors import ProtocolError
from .objective import NoisyOracle, oracle_grad
from .topology import Graph

__all__ = [
    "DpgaNode",
    "GammaMatrix",
    "weight_row",
    "mix",
    "dpga_init",
    "dpga_round",
    "dpga_round_adaptive",
    "sdpga_round",
    "adaptive_backtrack",
    "gamma_heuristic",
    "gamma_star",
    "edge_consensus_problem",
]


@dataclass(frozen=True)
class GammaMatrix:
    """Gamma_ij = -gamma_i gamma_j / (gamma_i + gamma_j) on edges, row sums 0."""

    matrix: np.ndarray

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
        return cls(matrix=m)


def weight_row(g: Graph, matrix: np.ndarray, i: int) -> dict[int, float]:
    """Row i of a graph-supported matrix over N_i u {i}, in index order."""
    return {j: float(matrix[i, j]) for j in sorted((*g.neighbor_lists[i], i))}


def mix(row: dict[int, float], node_id: int, own: np.ndarray, inbox: dict) -> np.ndarray:
    """row[i] own + sum_j row[j] inbox[j] over the closed neighborhood the
    row spans; the inbox must hold exactly the node's neighbors."""
    expected = row.keys() - {node_id}
    if inbox.keys() != expected:
        raise ProtocolError(
            f"node {node_id} expected messages from {sorted(expected)}, got {sorted(inbox)}"
        )
    acc = row[node_id] * own
    for j, w in row.items():
        if j != node_id:
            acc = acc + w * inbox[j]
    return acc


@dataclass(frozen=True)
class DpgaNode:
    """State of one DPGA agent: exactly three n-vectors plus scalars."""

    node_id: int
    x: np.ndarray
    s: np.ndarray
    p: np.ndarray
    c: float
    gamma: float
    L_running: float
    L_init: float
    gamma_row: dict[int, float]  # j -> Gamma_ij over N_i u {i}

    @property
    def degree(self) -> int:
        return len(self.gamma_row) - 1

    def vector_count(self) -> int:
        return 3


def dpga_init(
    g: Graph,
    objectives,
    gammas,
    x0,
    safety: float = 0.999,
    step_mode: str = "constant",
    optimistic_L: bool = False,
    upsilon: float = 2.0,
) -> list[DpgaNode]:
    """Set up DPGA nodes: stepsizes, Gamma rows, s0 and p0 = 0.

    step_mode "constant" uses c_i = safety/(L_i + gamma_i d_i); the
    stochastic modes ("diminishing", "horizon") use the base
    c_i = 1/(L_i + gamma_i d_i + 1) that their schedules require.
    The one-time gamma exchange with neighbors happens here.
    """
    gammas = np.asarray(gammas, dtype=float)
    N = g.node_count
    if gammas.size != N or np.any(gammas <= 0):
        raise ValueError("need one positive gamma per node")
    L = [objectives[i].lipschitz for i in range(N)]
    c = base_step(np.array(L) + gammas * np.array(g.degrees), safety, step_mode)
    Gamma = GammaMatrix.build(g, gammas).matrix
    x0 = [np.asarray(x, dtype=float) for x in x0]
    nodes = []
    for i in range(N):
        row = weight_row(g, Gamma, i)
        s0 = mix(row, i, x0[i], {j: x0[j] for j in g.neighbor_lists[i]})
        nodes.append(
            DpgaNode(
                node_id=i,
                x=np.array(x0[i]),
                s=s0,
                p=np.zeros_like(s0),
                c=float(c[i]),
                gamma=float(gammas[i]),
                L_running=L[i] / upsilon**4 if optimistic_L else L[i],
                L_init=L[i],
                gamma_row=row,
            )
        )
    return nodes


def _round(nodes, objectives, exchange, step):
    """The DPGA round. step(node, obj) returns the node's new x plus any
    scalar fields it changes; the new x's are broadcast, then every node
    mixes s = sum_j Gamma_ij x_j and accumulates p += s."""
    proposals = {}
    changed = {}
    for node, obj in zip(nodes, objectives):
        proposals[node.node_id], changed[node.node_id] = step(node, obj)
    inboxes = exchange(proposals)
    new_nodes = []
    for node in nodes:
        i = node.node_id
        s_new = mix(node.gamma_row, i, proposals[i], inboxes[i])
        new_nodes.append(
            replace(node, x=proposals[i], s=s_new, p=node.p + s_new, **changed[i])
        )
    return new_nodes, proposals


def _prox_step(node: DpgaNode, obj, grad: np.ndarray, c: float) -> np.ndarray:
    return obj.prox(node.x - c * (grad + node.p + node.s), c)


def dpga_round(nodes, objectives, exchange):
    """One synchronous DPGA round (constant steps).

    exchange maps the per-node broadcast payloads to per-node inboxes; the
    simulator supplies it with auditing attached. Returns the new node list
    and the payloads that were broadcast.
    """
    return _round(
        nodes,
        objectives,
        exchange,
        lambda node, obj: (_prox_step(node, obj, obj.f_grad(node.x), node.c), {}),
    )


def adaptive_backtrack(
    node: DpgaNode,
    objective,
    upsilon: float,
    grad: np.ndarray | None = None,
    max_doublings: int = 60,
):
    """Backtracking stepsize: smallest l >= 0 with L = L_prev Upsilon^(l-1)
    passing the descent check

        f(x_trial) <= f(x) + <grad, dx> + L/2 ||dx||^2

    where x_trial is the prox step with c = 1/(L + gamma_i d_i). Returns
    (x_new, L_new, c_new). L_new stays at or below Upsilon * L_i.
    """
    if upsilon <= 1:
        raise ValueError("upsilon must exceed 1")
    if grad is None:
        grad = objective.f_grad(node.x)
    f0 = objective.f_value(node.x)
    gd = node.gamma * node.degree
    drive = grad + node.p + node.s
    for l in range(max_doublings + 1):
        L_cand = node.L_running * upsilon ** (l - 1)
        c_cand = 1.0 / (L_cand + gd)
        x_trial = objective.prox(node.x - c_cand * drive, c_cand)
        dx = x_trial - node.x
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


def dpga_round_adaptive(nodes, objectives, exchange, upsilon: float = 2.0):
    """DPGA round with the backtracking stepsize rule (AS mode)."""

    def step(node, obj):
        x_new, L_new, c_new = adaptive_backtrack(node, obj, upsilon)
        return x_new, {"L_running": L_new, "c": c_new}

    return _round(nodes, objectives, exchange, step)


def sdpga_round(
    nodes,
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
    oracle_of = {nd.node_id: orc for nd, orc in zip(nodes, oracles)}

    def step(node, obj):
        grad = oracle_grad(obj, oracle_of[node.node_id], node.x)
        return _prox_step(node, obj, grad, scheduled_step(node.c, rule, k, horizon)), {}

    return _round(nodes, objectives, exchange, step)


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
