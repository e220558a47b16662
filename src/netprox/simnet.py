"""Synchronous message-passing simulator.

Rounds are barriers. The network state is one stacked NetworkState and every
exchange one stacked (N, ...) payload, a row per node. The Transport hands
the payload over and meters it under a local-broadcast model: one row per
node per exchange, counted once regardless of degree. Locality comes from
the receivers' GraphOperators, whose support was checked against the graph
when they were built, so node i only ever reads its neighbours' rows. Global
quantities (objective value, consensus violation, ergodic averages) are
computed by a run's Observer and never fed back into the rounds: it takes the
checked rounds' iterates a block at a time, after the block's last checked
round, so a run that stops inside a block has computed the block's later
rounds and discards them. Every run starts from the state initial_state
builds and steps by its algorithm's round in one registry.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import baselines as _baselines
from . import dpga as _dpga
from . import dpga_w as _dpga_w
from .engine import StepPlan, step_rule
from .errors import DivergenceError, ProtocolError, check_positive
from .objective import NoisyOracle, network, row_dot
from .topology import Graph, NetworkState, mixing_pair

__all__ = [
    "ALGORITHMS",
    "AuditLog",
    "AuditReport",
    "CSV_COLUMNS",
    "NOISY_ALGORITHMS",
    "RoundSchedule",
    "RunRecord",
    "RunResult",
    "TABLE_PROFILES",
    "Transport",
    "audit_check",
    "consensus_metrics",
    "ergodic_aggregates",
    "initial_state",
    "network_objective",
    "plain_exchange",
    "run_synchronous",
]

ALGORITHMS = ("dpga", "sdpga", "dpga_w", "sdpga_w", "pg_extra", "admm")
NOISY_ALGORITHMS = ("sdpga", "sdpga_w")  # the variants with gradient noise and a step schedule

# per-node (scalars communicated per round, n-vectors stored), in units of n
TABLE_PROFILES = {
    "dpga": (1, 3),
    "sdpga": (1, 3),
    "dpga_w": (2, 3),
    "sdpga_w": (2, 3),
    "pg_extra": (1, 4),
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

_ERGODIC_KEYS = ("t", "ergodic_F", "subopt_gap", "edge_aggregate", "omega_norm")
OBSERVE_BLOCK = 8192  # iterate values (N n per checked round) an observer block takes, X and Xbar each


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
        for name in ("max_rounds", "check_every"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or isinstance(val, bool):
                raise ValueError(f"{name} must be an integer, got {val!r}")
            check_positive(**{name: val})
        check_positive(stop_rel_subopt=self.stop_rel_subopt, stop_consensus=self.stop_consensus)


@dataclass
class AuditLog:
    """Traffic and storage meter, filled in while a run executes.

    Under local broadcast every node sends and stores the same amount, so a
    record updates one count: sent, the scalars each node has sent, and stored,
    the most n-vectors each node has held. Storage is metered where a state's
    fields change: NetworkState keeps its vector_count as it stores them, so a
    round's record_storage reads one number and walks no field. scalars_sent
    and peak_vectors read the counts per node, as a dict that stays the same
    (edits included) until its count moves."""

    node_count: int
    n: int
    sent: int = 0
    stored: int = 0
    rounds: int = 0
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def record_exchange(self, payload: np.ndarray) -> None:
        self.sent += payload.size // self.node_count

    def record_storage(self, state: NetworkState) -> None:
        self.stored = max(self.stored, state.vector_count)

    @property
    def scalars_sent(self) -> dict[int, int]:
        return self._per_node("sent")

    @property
    def peak_vectors(self) -> dict[int, int]:
        return self._per_node("stored")

    def _per_node(self, count_name: str) -> dict[int, int]:
        count = getattr(self, count_name)
        seen, view = self._views.get(count_name, (None, None))
        if seen != count:
            view = dict.fromkeys(range(self.node_count), count)
            self._views[count_name] = (count, view)
        return view


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    details: str


class Transport:
    """Delivers a stacked payload, one row per node, to the receivers.

    The payload is handed over by reference; receivers must treat it as
    read-only and read it only through their GraphOperator, which touches
    neighbours' rows only. A payload without exactly one row per node aborts
    the round.
    """

    def __init__(self, graph: Graph, audit: AuditLog | None = None):
        self.graph = graph
        self.audit = audit

    def exchange(self, payload: np.ndarray) -> np.ndarray:
        N = self.graph.node_count
        if len(payload) != N:
            raise ProtocolError(f"exchange needs one row per node, got {len(payload)} for {N}")
        if self.audit is not None:
            self.audit.record_exchange(payload)
        return payload


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
                if len(raw) != len(CSV_COLUMNS):
                    raise ValueError(
                        f"line {reader.line_num}: {len(raw)} cells, expected {len(CSV_COLUMNS)}"
                    )
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
    state for analysis (final iterates, audit, optional ergodic curves)."""

    record: RunRecord
    audit: AuditLog
    final_x: np.ndarray
    rounds: int
    solved: bool
    ergodic: dict | None = None


def network_objective(objectives, X):
    """F evaluated node-wise: sum_i Phi_i(x_i); a stack (S, N, n) gives the
    list of its slices' values from one pass."""
    return network(objectives).phi(X)


def _edge_sq(graph: Graph, X) -> np.ndarray:
    """|x_i - x_j|^2 for every edge (i, j), as a per-edge loop would take it;
    a stack (S, N, n) gives (S, E) from one pass. np.take keeps the edge rows
    contiguous, where X[..., i, :] on a stack would give transposed strides."""
    i, j = graph.edge_ends
    D = X.take(i, axis=-2)
    D -= X.take(j, axis=-2)
    return row_dot(D, D)


def _max_edge(sq: np.ndarray, n: int) -> tuple[list, np.ndarray]:
    """The root of each row's largest edge square, as Python floats, and V,
    each root over sqrt(n), as np.float64: np.sqrt is correctly rounded, so a
    row's root is the one math.sqrt takes of it alone."""
    max_edge = np.sqrt(np.maximum.reduce(sq, axis=-1))
    return max_edge.tolist(), max_edge / math.sqrt(n)


def _aggregates(graph: Graph, sq: np.ndarray, Xbars: np.ndarray) -> tuple[list, list]:
    """The edge-sum norms and |Omega Xbar|_F of the slices of Xbars (S, N, n),
    sq their (S, E) edge squares: a row sum and a row_dot per slice, the sum
    and the dot that one (N, n) slice alone takes."""
    edge_agg = np.sqrt(np.add.reduce(sq, axis=-1))
    v = (graph.laplacian() @ Xbars).reshape(len(Xbars), -1)  # the Frobenius norm as np.linalg.norm takes it
    return edge_agg.tolist(), np.sqrt(row_dot(v, v)).tolist()


def consensus_metrics(graph: Graph, X):
    """Largest edge disagreement and its sqrt(n)-normalized version V; a stack
    (S, N, n) gives the list of its S disagreements and the array of its S
    Vs from one pass."""
    max_edge, V = _max_edge(_edge_sq(graph, X if X.ndim == 3 else X[None]), X.shape[-1])
    return (max_edge, V) if X.ndim == 3 else (max_edge[0], V[0])


def ergodic_aggregates(graph: Graph, Xbar) -> tuple:
    """Consensus aggregates of an averaged iterate: the edge-sum norm
    (sum over edges of |xbar_i - xbar_j|^2)^(1/2) and |Omega Xbar|_F.

    A block (S, 2, N, n) of stacks (X, Xbar) takes the edges of all of them
    from one pass and gives four columns of S values, consensus_metrics of
    the Xs first: (max_edge, V, edge_agg, omega_norm)."""
    if Xbar.ndim == 2:
        edge_agg, omega_norm = _aggregates(graph, _edge_sq(graph, Xbar)[None], Xbar[None])
        return edge_agg[0], omega_norm[0]
    sq = _edge_sq(graph, Xbar)
    return (*_max_edge(sq[:, 0], Xbar.shape[-1]), *_aggregates(graph, sq[:, 1], Xbar[:, 1]))


class Observer:
    """The checked rounds of one run: their measurements, rows and stop.

    The run writes each checked round's X, or (X, Xbar) with ergodic
    collection (Xbar = erg_sum / k, erg_sum the sum of its iterates), into
    the next slot of block and appends (k, X, audit.sent, audit.stored) to
    waiting. A block holds max(1, B // check_every) checked rounds with
    B = max(1, OBSERVE_BLOCK // (N n)), so it spans at most B rounds (or one
    checked round); observe takes it after its last checked round or the
    run's last round with one call of each observer name, which the
    benchmark's tracer wraps, so every observed value is computed inside them."""

    def __init__(self, objectives, graph: Graph, schedule: RoundSchedule, reference, ergodic: bool):
        N, n = graph.node_count, objectives[0].n
        self.objectives, self.graph, self.schedule, self.ergodic = objectives, graph, schedule, ergodic
        self.F_star = None if reference is None else float(reference.F_star)
        per_block = max(1, max(1, OBSERVE_BLOCK // (N * n)) // schedule.check_every)
        self.block = np.empty((per_block, 2, N, n) if ergodic else (per_block, N, n))
        self.erg_sum, self.waiting, self.rows, self.erg_rows = np.zeros((N, n)), [], [], []

    def measure(self, stack: np.ndarray) -> list:
        """(F, V, max_edge) of each checked round in stack, a run of slots of
        block, then (F(Xbar), edge_agg, omega_norm) with ergodic collection."""
        Fs = network_objective(self.objectives, stack.reshape(-1, *stack.shape[-2:]))
        if not self.ergodic:
            max_edge, V = consensus_metrics(self.graph, stack)
            return list(zip(Fs, V, max_edge))
        max_edge, V, edge_agg, omega_norm = ergodic_aggregates(self.graph, stack)
        return list(zip(Fs[0::2], V, max_edge, Fs[1::2], edge_agg, omega_norm))

    def observe(self):
        """Rows of the waiting rounds in round order, up to the first that meets
        both thresholds, whose waiting entry is returned (else None, and waiting
        is emptied). Should the block's call raise, the rounds are measured one
        at a time, so a stop before the round that raises still ends the run."""
        waiting, F_star, sched = self.waiting, self.F_star, self.schedule
        try:
            measured = self.measure(self.block[: len(waiting)])
        except Exception:
            measured = (m for i in range(len(waiting)) for m in self.measure(self.block[i : i + 1]))
        for entry, (F, V, max_edge, *erg_values) in zip(waiting, measured):
            k, sent = entry[0], entry[2]
            rel = None if F_star is None else abs(F - F_star) / (abs(F_star) or 1.0)
            self.rows.append((k, F, rel, V, max_edge, sent, None, None, None))
            if self.ergodic:
                F_erg, *aggregates = erg_values
                self.erg_rows.append((k, F_erg, None if F_star is None else F_erg - F_star, *aggregates))
            if F_star is not None and rel <= sched.stop_rel_subopt and V <= sched.stop_consensus:
                return entry
        waiting.clear()
        return None

    def curves(self) -> dict | None:
        """The ergodic curves by name, one value per checked round; subopt_gap
        is a list of None without a reference."""
        if not self.ergodic:
            return None
        erg = {key: np.array(col) for key, col in zip(_ERGODIC_KEYS, zip(*self.erg_rows))}
        if self.F_star is None:
            erg["subopt_gap"] = [None] * len(self.erg_rows)
        return erg


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


def initial_state(algorithm, graph: Graph, objectives, gammas, horizon, safety) -> NetworkState:
    """The NetworkState a run of algorithm starts from: every node at x = 0, with
    the step sizes, operators and penalties its rounds read; the noisy variants
    take the base step of their schedule (horizon when a horizon is given, else
    diminishing). run_synchronous and the bound curves both start here, so a
    curve is built over the steps its run takes. pg_extra reads no gammas."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    x0 = np.zeros((graph.node_count, objectives[0].n))
    mode = step_rule(None, horizon) if algorithm in NOISY_ALGORITHMS else "constant"
    if algorithm in ("dpga", "sdpga"):
        return _dpga.dpga_init(graph, objectives, gammas, x0, safety=safety, step_mode=mode)
    if algorithm == "pg_extra":
        return _baselines.pg_extra_init(graph, mixing_pair(graph), objectives, x0)
    W = _dpga_w.CommunicationMatrix.from_laplacian(graph)
    if algorithm != "admm":
        return _dpga_w.dpgaw_init(graph, W, objectives, gammas, x0, safety=safety, step_mode=mode)
    gam = np.asarray(gammas, dtype=float)
    check_positive(gammas=gam)  # before the spread, which NaN makes NaN
    if np.ptp(gam) != 0:
        raise ValueError("the admm variant uses one shared gamma")
    return _baselines.admm_init(graph, W, objectives, float(gam.flat[0]), x0)


# algorithm -> round(run, state, k) -> state. The round functions are looked
# up on their modules at call time, so a wrapper put there (as the
# benchmark's tracer does) sees every round.
_ROUNDS = {
    "dpga": lambda run, st, k: (
        _dpga.dpga_round_adaptive if run.step_mode == "AS" else _dpga.dpga_round
    )(st, run.objectives, run.exchange)[0],
    "sdpga": lambda run, st, k: _dpga.sdpga_round(
        st, run.objectives, run.oracles, k, run.exchange, steps=run.steps(k)
    )[0],
    "dpga_w": lambda run, st, k: _dpga_w.dpgaw_round(st, run.objectives, run.exchange)[0],
    "sdpga_w": lambda run, st, k: _dpga_w.sdpgaw_round(
        st, run.objectives, run.oracles, k, run.exchange, steps=run.steps(k)
    )[0],
    "pg_extra": lambda run, st, k: _baselines.pg_extra_round(st, run.objectives, run.exchange)[0],
    "admm": lambda run, st, k: _baselines.admm_round(st, run.objectives, run.exchange)[0],
}


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
    collect_ergodic: bool = False,
    safety: float = 0.999,
) -> RunResult:
    """Drive one algorithm for up to schedule.max_rounds synchronous rounds.

    Stops early only when a reference solution is supplied and both the
    relative suboptimality and the consensus violation fall below the
    schedule's thresholds at a checked round; rel_subopt is |F - F*| / |F*|,
    or the absolute gap |F - F*| when F* = 0. Raises DivergenceError, naming
    the round and the first node, when an iterate is not finite.

    The run's Observer takes the checked rounds a block at a time (its
    docstring holds the layout), and the stop rule goes round by round: the
    first checked round that meets it ends the run, and the block's later
    rounds, computed already, are discarded, so the record, final_x, the
    ergodic curves and the audit's rounds and sent count are that round's. A
    round that raises (a DivergenceError, or an error of the round itself)
    does so after the rounds waiting in the block are observed, so a stop or
    an observer error of an earlier round comes first, as round by round.

    Every node starts at x = 0. The seed feeds the per-node gradient oracles
    of the stochastic variants; everything else is deterministic, so a
    fixed (configuration, seed) pair reproduces the record bit for bit.
    Every algorithm but pg_extra needs gammas, and pg_extra takes none;
    sigma and horizon belong to sdpga and sdpga_w. Anything else raises
    ValueError.

    collect_ergodic only adds observer output and never changes iterates.
    The ergodic curves hold t, ergodic_F, subopt_gap, edge_aggregate and
    omega_norm, one value per checked round; subopt_gap is a list of None
    without a reference. The bound columns of the record are left empty.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if step_mode not in ("CS", "AS"):
        raise ValueError("step_mode must be 'CS' or 'AS'")
    if step_mode == "AS" and algorithm != "dpga":
        raise ValueError("adaptive steps are only wired up for dpga")
    check_positive(sigma=sigma)
    noisy = algorithm in NOISY_ALGORITHMS
    if sigma > 0 and not noisy:
        raise ValueError(f"{algorithm} has no gradient-noise mode")
    if horizon is not None and not noisy:
        raise ValueError(f"{algorithm} takes no horizon")
    if algorithm == "pg_extra" and gammas is not None:
        raise ValueError("pg_extra takes no gammas")
    if algorithm != "pg_extra" and gammas is None:
        raise ValueError(f"{algorithm} needs gammas")

    objectives = network(objectives)  # stacked once, its dimensions checked; every round reads it
    N, n = graph.node_count, objectives[0].n
    if len(objectives) != N:
        raise ValueError(f"{len(objectives)} objectives for a graph of {N} nodes")
    audit = AuditLog(node_count=N, n=n)
    state = initial_state(algorithm, graph, objectives, gammas, horizon, safety)
    run = SimpleNamespace(  # what the round functions read
        objectives=objectives,
        step_mode=step_mode,
        oracles=NoisyOracle(sigma, seed, range(N)) if noisy else None,
        steps=StepPlan(None, state.c, horizon).step_sizes if noisy else None,
        exchange=Transport(graph, audit).exchange,
    )
    advance = _ROUNDS[algorithm]

    audit.record_storage(state)
    obs = Observer(objectives, graph, schedule, reference, collect_ergodic)
    block, waiting, erg_sum, per_block = obs.block, obs.waiting, obs.erg_sum, len(obs.block)
    stop = error = None
    for k in range(1, schedule.max_rounds + 1):
        try:
            state = advance(run, state, k - 1)
            X = state.x
            if not np.logical_and.reduce(np.isfinite(X), axis=None):  # the row pass names the node
                finite = np.isfinite(X).all(axis=1)
                raise DivergenceError(
                    f"{algorithm} diverged in round {k}: node {int(np.argmin(finite))} "
                    "holds a non-finite iterate"
                )
        except Exception as exc:  # raised once the rounds waiting before it are observed
            error = exc
            break
        audit.rounds = k
        audit.record_storage(state)
        if collect_ergodic:
            erg_sum += X
        if not (k % schedule.check_every == 0 or k == schedule.max_rounds):
            continue
        if collect_ergodic:
            XX = block[len(waiting)]
            XX[0] = X
            np.divide(erg_sum, k, out=XX[1])
        else:
            block[len(waiting)] = X
        waiting.append((k, X, audit.sent, audit.stored))
        if len(waiting) == per_block or k == schedule.max_rounds:
            stop = obs.observe()
            if stop is not None:
                break
    if error is not None:
        stop = obs.observe() if waiting else None
        if stop is None:
            raise error
    if stop is not None:  # the rounds after the stop are discarded
        audit.rounds, X, audit.sent, audit.stored = stop
    return RunResult(
        RunRecord(rows=tuple(obs.rows)), audit, final_x=X, rounds=audit.rounds,
        solved=stop is not None, ergodic=obs.curves(),
    )
