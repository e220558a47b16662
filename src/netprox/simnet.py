"""Synchronous message-passing simulator.

Rounds are barriers. Inside a round every node computes from its own state
plus inbound neighbor messages only; global quantities (objective value,
consensus violation, ergodic averages) are computed by an observer between
rounds and never fed back into node updates. A Transport routes payloads to
neighbors and meters traffic under a local-broadcast model: one payload per
node per exchange, counted once regardless of degree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import baselines as _baselines
from . import dpga as _dpga
from . import dpga_w as _dpga_w
from .engine import step_rule
from .errors import ProtocolError
from .objective import NoisyOracle
from .topology import Graph, mixing_pair

__all__ = [
    "ALGORITHMS",
    "AuditLog",
    "AuditReport",
    "CSV_COLUMNS",
    "RoundSchedule",
    "RunRecord",
    "RunResult",
    "TABLE_PROFILES",
    "Transport",
    "audit_check",
    "consensus_metrics",
    "ergodic_aggregates",
    "network_objective",
    "plain_exchange",
    "run_synchronous",
]

ALGORITHMS = ("dpga", "sdpga", "dpga_w", "sdpga_w", "pg_extra", "admm")

# per-node (scalars communicated per round, n-vectors stored), in units of n
TABLE_PROFILES = {
    "dpga": (1, 3),
    "sdpga": (1, 3),
    "dpga_w": (2, 3),
    "sdpga_w": (2, 3),
    "pg_extra": (2, 4),
    "admm": (2, 3),
}

CSV_COLUMNS = (
    "round",
    "F",
    "rel_subopt",
    "consensus_violation_V",
    "max_edge_disagreement",
    "cum_scalars_per_node",
    "bound_theorem3",
    "bound_theorem4",
    "bound_sdpga",
)

_BOUND_COLUMNS = ("bound_theorem3", "bound_theorem4", "bound_sdpga")


@dataclass(frozen=True)
class RoundSchedule:
    """Termination policy: hard round cap plus the two-threshold stopping
    rule (relative suboptimality and consensus violation, both last-iterate).
    """

    max_rounds: int
    stop_rel_subopt: float = 1e-3
    stop_consensus: float = 1e-4
    check_every: int = 1

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.stop_rel_subopt <= 0 or self.stop_consensus <= 0:
            raise ValueError("stopping thresholds must be positive")
        if self.check_every < 1:
            raise ValueError("check_every must be at least 1")


@dataclass
class AuditLog:
    """Traffic and storage meter, filled in while a run executes."""

    node_count: int
    n: int
    scalars_sent: dict[int, int] = field(default_factory=dict)
    peak_vectors: dict[int, int] = field(default_factory=dict)
    rounds: int = 0
    exchange_calls: int = 0

    def __post_init__(self) -> None:
        for i in range(self.node_count):
            self.scalars_sent.setdefault(i, 0)
            self.peak_vectors.setdefault(i, 0)

    def record_exchange(self, payloads) -> None:
        self.exchange_calls += 1
        for i, payload in payloads.items():
            self.scalars_sent[i] += int(np.size(payload))

    def record_storage(self, nodes) -> None:
        for node in nodes:
            count = node.vector_count()
            if count > self.peak_vectors[node.node_id]:
                self.peak_vectors[node.node_id] = count


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    details: str


class Transport:
    """Routes one payload per node to that node's neighbors.

    Messages are handed over by reference; receivers must treat them as
    read-only. Every exchange requires a payload from every node; missing or
    extra senders abort the round.
    """

    def __init__(self, graph: Graph, audit: AuditLog | None = None):
        self.graph = graph
        self.audit = audit
        self._all = frozenset(range(graph.node_count))

    def exchange(self, payloads):
        senders = set(payloads)
        if senders != self._all:
            missing = sorted(self._all - senders)
            extra = sorted(senders - self._all)
            raise ProtocolError(
                f"exchange requires all {len(self._all)} nodes: "
                f"missing {missing}, unknown {extra}"
            )
        if self.audit is not None:
            self.audit.record_exchange(payloads)
        return {
            i: {j: payloads[j] for j in self.graph.neighbor_lists[i]}
            for i in range(self.graph.node_count)
        }


def plain_exchange(graph: Graph):
    """Unmetered neighbor routing for direct algorithm tests."""
    return Transport(graph).exchange


@dataclass(frozen=True)
class RunRecord:
    """The per-round measurement table, exactly what the CSV holds.

    Row layout follows CSV_COLUMNS; round and cum_scalars_per_node are ints,
    the rest floats or None. Serialization uses the repr of the Python float
    so parse(write(r)) == r down to the last bit.
    """

    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"row has {len(row)} cells, expected {len(CSV_COLUMNS)}")

    def column(self, name: str) -> list:
        idx = CSV_COLUMNS.index(name)
        return [row[idx] for row in self.rows]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow(
                    [
                        ""
                        if cell is None
                        else (str(cell) if isinstance(cell, int) else repr(float(cell)))
                        for cell in row
                    ]
                )

    @classmethod
    def read_csv(cls, path) -> "RunRecord":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            rows = []
            for raw in reader:
                cells = []
                for name, text in zip(CSV_COLUMNS, raw):
                    if text == "":
                        cells.append(None)
                    elif name in ("round", "cum_scalars_per_node"):
                        cells.append(int(text))
                    else:
                        cells.append(float(text))
                rows.append(tuple(cells))
        return cls(rows=tuple(rows))


@dataclass
class RunResult:
    """Everything a run produced: the CSV-faithful record plus in-memory
    state for analysis (final iterates, audit, optional ergodic curves and
    trace)."""

    record: RunRecord
    audit: AuditLog
    final_x: np.ndarray
    rounds: int
    solved: bool
    nodes: list | None = None
    ergodic: dict | None = None
    trace: list | None = None
    inner_iterations: list | None = None


def network_objective(objectives, X) -> float:
    """F evaluated node-wise: sum_i Phi_i(x_i)."""
    return float(sum(obj.phi(X[i]) for i, obj in enumerate(objectives)))


def consensus_metrics(graph: Graph, X) -> tuple[float, float]:
    """Largest edge disagreement and its sqrt(n)-normalized version V."""
    max_edge = 0.0
    for i, j in graph.edges:
        d = float(np.linalg.norm(X[i] - X[j]))
        if d > max_edge:
            max_edge = d
    return max_edge, max_edge / np.sqrt(X.shape[1])


def ergodic_aggregates(graph: Graph, Xbar, W_matrix=None):
    """Consensus aggregates of an averaged iterate: the edge-sum norm
    (sum over edges of |xbar_i - xbar_j|^2)^(1/2), |Omega Xbar|_F, and
    |W Xbar|_F (equal to the Omega version when no W is supplied)."""
    edge_sq = 0.0
    for i, j in graph.edges:
        d = Xbar[i] - Xbar[j]
        edge_sq += float(d @ d)
    omega_norm = float(np.linalg.norm(graph.laplacian() @ Xbar))
    if W_matrix is None:
        w_norm = omega_norm
    else:
        w_norm = float(np.linalg.norm(np.asarray(W_matrix) @ Xbar))
    return np.sqrt(edge_sq), omega_norm, w_norm


def audit_check(log: AuditLog, algorithm: str) -> AuditReport:
    """Compare a finished run's meter against the algorithm's declared
    per-node profile (scalars per round, stored n-vectors)."""
    if algorithm not in TABLE_PROFILES:
        raise ValueError(f"no communication/storage profile for {algorithm!r}")
    comm_factor, storage_vectors = TABLE_PROFILES[algorithm]
    expected_sent = comm_factor * log.n * log.rounds
    problems = []
    for i in range(log.node_count):
        if log.scalars_sent[i] != expected_sent:
            problems.append(
                f"node {i} sent {log.scalars_sent[i]} scalars, expected {expected_sent}"
            )
        if log.peak_vectors[i] != storage_vectors:
            problems.append(
                f"node {i} stores {log.peak_vectors[i]} n-vectors, expected {storage_vectors}"
            )
    if problems:
        return AuditReport(ok=False, details="; ".join(problems))
    return AuditReport(
        ok=True,
        details=(
            f"{algorithm}: {comm_factor}n scalars/node/round over {log.rounds} rounds, "
            f"{storage_vectors} n-vectors stored per node"
        ),
    )


def run_synchronous(
    algorithm,
    graph: Graph,
    objectives,
    schedule: RoundSchedule,
    seed,
    *,
    gammas=None,
    sigma: float = 0.0,
    horizon: int | None = None,
    step_mode: str = "CS",
    reference=None,
    bound=None,
    collect_ergodic: bool = False,
    keep_trace: bool = False,
    safety: float = 0.999,
) -> RunResult:
    """Drive one algorithm for up to schedule.max_rounds synchronous rounds.

    Stops early only when a reference solution is supplied and both the
    relative suboptimality and the consensus violation fall below the
    schedule's thresholds at a checked round. Every node starts at x = 0.
    The seed feeds the per-node gradient oracles of the stochastic variants;
    everything else is deterministic, so a fixed (configuration, seed) pair
    reproduces the record bit for bit.

    Parameters beyond the spec of the run (bound, collect_ergodic,
    keep_trace) only add observer output and never change iterates.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if step_mode not in ("CS", "AS"):
        raise ValueError("step_mode must be 'CS' or 'AS'")
    if step_mode == "AS" and algorithm != "dpga":
        raise ValueError("adaptive steps are only wired up for dpga")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    noisy = algorithm in ("sdpga", "sdpga_w")
    if sigma > 0 and not noisy:
        raise ValueError(f"{algorithm} has no gradient-noise mode")

    N = graph.node_count
    n = objectives[0].n
    x0 = [np.zeros(n) for _ in range(N)]

    audit = AuditLog(node_count=N, n=n)
    transport = Transport(graph, audit)
    if algorithm != "pg_extra" and gammas is None:
        raise ValueError(f"{algorithm} needs gammas")

    inner_iterations = [] if algorithm == "admm" else None
    mode = step_rule(None, horizon) if noisy else "constant"

    if algorithm in ("dpga", "sdpga"):
        nodes = _dpga.dpga_init(
            graph, objectives, gammas, x0, safety=safety, step_mode=mode
        )
    elif algorithm in ("dpga_w", "sdpga_w"):
        W = _dpga_w.CommunicationMatrix.from_laplacian(graph)
        nodes = _dpga_w.dpgaw_init(
            graph, W, objectives, gammas, x0, safety=safety, step_mode=mode
        )
    elif algorithm == "pg_extra":
        mixing = mixing_pair(graph)
        nodes = _baselines.pg_extra_init(graph, mixing, objectives, x0)
    else:
        W = _dpga_w.CommunicationMatrix.from_laplacian(graph)
        gam = np.asarray(gammas, dtype=float)
        if np.ptp(gam) != 0:
            raise ValueError("the admm variant uses one shared gamma")
        nodes = _baselines.admm_init(graph, W, objectives, float(gam.flat[0]), x0)

    oracles = [NoisyOracle.for_node(sigma, seed, i) for i in range(N)] if noisy else None

    def advance(k_zero_based: int) -> np.ndarray:
        nonlocal nodes
        if algorithm == "dpga":
            if step_mode == "AS":
                nodes, _ = _dpga.dpga_round_adaptive(nodes, objectives, transport.exchange)
            else:
                nodes, _ = _dpga.dpga_round(nodes, objectives, transport.exchange)
        elif algorithm == "sdpga":
            nodes, _ = _dpga.sdpga_round(
                nodes, objectives, oracles, k_zero_based, transport.exchange, horizon=horizon
            )
        elif algorithm == "dpga_w":
            nodes, _ = _dpga_w.dpgaw_round(nodes, objectives, transport.exchange)
        elif algorithm == "sdpga_w":
            nodes, _ = _dpga_w.sdpgaw_round(
                nodes, objectives, oracles, k_zero_based, transport.exchange, horizon=horizon
            )
        elif algorithm == "pg_extra":
            nodes, _ = _baselines.pg_extra_round(nodes, objectives, transport.exchange)
        else:
            nodes, _, iters = _baselines.admm_round(nodes, objectives, transport.exchange)
            inner_iterations.append(iters)
        return np.stack([nd.x_curr if algorithm == "pg_extra" else nd.x for nd in nodes])

    audit.record_storage(nodes)
    F_star = None if reference is None else float(reference.F_star)
    bound_col = None
    if bound is not None:
        if bound.column not in _BOUND_COLUMNS:
            raise ValueError(f"unknown bound column {bound.column!r}")
        bound_col = CSV_COLUMNS.index(bound.column)

    erg_sum = np.zeros((N, n))
    erg = (
        {"t": [], "ergodic_F": [], "subopt_gap": [], "edge_aggregate": [], "omega_norm": []}
        if collect_ergodic
        else None
    )
    trace = [np.zeros((N, n))] if keep_trace else None

    rows = []
    solved = False
    rounds_run = 0
    for k in range(1, schedule.max_rounds + 1):
        X = advance(k - 1)
        rounds_run = k
        audit.rounds = k
        audit.record_storage(nodes)
        erg_sum += X
        if keep_trace:
            trace.append(X)
        if not (k % schedule.check_every == 0 or k == schedule.max_rounds):
            continue
        F = network_objective(objectives, X)
        max_edge, V = consensus_metrics(graph, X)
        rel = None if F_star is None else abs(F - F_star) / abs(F_star)
        row = [k, F, rel, V, max_edge, audit.scalars_sent[0], None, None, None]
        if bound_col is not None:
            row[bound_col] = float(bound.subopt_bound(k))
        rows.append(tuple(row))
        if collect_ergodic:
            Xbar = erg_sum / k
            F_erg = network_objective(objectives, Xbar)
            edge_agg, omega_norm, _ = ergodic_aggregates(graph, Xbar)
            erg["t"].append(k)
            erg["ergodic_F"].append(F_erg)
            erg["subopt_gap"].append(None if F_star is None else F_erg - F_star)
            erg["edge_aggregate"].append(edge_agg)
            erg["omega_norm"].append(omega_norm)
        if (
            F_star is not None
            and rel <= schedule.stop_rel_subopt
            and V <= schedule.stop_consensus
        ):
            solved = True
            break

    if erg is not None:
        erg = {
            key: (np.array(val) if key != "subopt_gap" or F_star is not None else val)
            for key, val in erg.items()
        }
    return RunResult(
        record=RunRecord(rows=tuple(rows)),
        audit=audit,
        final_x=X,
        rounds=rounds_run,
        solved=solved,
        nodes=nodes,
        ergodic=erg,
        trace=trace,
        inner_iterations=inner_iterations,
    )
