"""Simulator: transport, metering, records, reproducibility, locality."""

import dataclasses

import numpy as np
import pytest

from conftest import random_objective, random_objectives
from netprox import baselines, dpga, dpga_w, simnet
from netprox.bench import ProblemSpec, generate_problem
from netprox.dpga import GammaMatrix, dpga_init, dpga_round
from netprox.errors import DivergenceError, ProtocolError
from netprox.objective import NetworkObjective, NoisyOracle, network
from netprox.reference import fista_solve
from netprox.simnet import (
    ALGORITHMS,
    AuditLog,
    CSV_COLUMNS,
    RoundSchedule,
    RunRecord,
    TABLE_PROFILES,
    Transport,
    audit_check,
    consensus_metrics,
    ergodic_aggregates,
    network_objective,
    plain_exchange,
    run_synchronous,
)
from netprox.topology import build_topology, mixing_pair


@dataclasses.dataclass(frozen=True)
class FakeBound:
    column: str

    def subopt_bound(self, t):
        return 5.0 / t


def small_net(seed=0, N=3, n=6):
    rng = np.random.default_rng(seed)
    g = build_topology("clique", N)
    objs = random_objectives(rng, N, n=n, m=4)
    return g, objs


def test_transport_routes_neighbors_only():
    g = build_topology("star", 4)
    tr = Transport(g)
    payload = np.arange(8.0).reshape(4, 2)
    assert tr.exchange(payload) is payload
    with pytest.raises(ProtocolError):
        tr.exchange(payload[:1])
    with pytest.raises(ProtocolError):
        tr.exchange(np.zeros((5, 2)))
    # a leaf mixes its own row and the hub's only; the hub mixes every row
    gamma = GammaMatrix.build(g, np.ones(4))
    moved = payload.copy()
    moved[3] += 100.0
    changed = np.any(gamma @ moved != gamma @ payload, axis=1)
    assert changed.tolist() == [True, False, False, True]


def test_transport_meters_traffic():
    g = build_topology("circle", 3)
    audit = AuditLog(node_count=3, n=2)
    tr = Transport(g, audit)
    tr.exchange(np.zeros((3, 2)))
    tr.exchange(np.zeros((3, 2, 2)))
    assert all(audit.scalars_sent[i] == 2 + 4 for i in range(3))


def test_round_schedule_validation():
    with pytest.raises(ValueError):
        RoundSchedule(max_rounds=0)
    with pytest.raises(ValueError):
        RoundSchedule(max_rounds=5, stop_rel_subopt=0.0)
    with pytest.raises(ValueError):
        RoundSchedule(max_rounds=5, stop_consensus=-1.0)
    with pytest.raises(ValueError):
        RoundSchedule(max_rounds=5, check_every=0)
    # NaN compares False with everything, so a run with it could never stop
    # and one with an inf threshold would stop at its first checked round
    for key in ("stop_rel_subopt", "stop_consensus"):
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"{key} must be finite and positive, got {bad}"):
                RoundSchedule(max_rounds=10, **{key: float(bad)})


@pytest.mark.parametrize(
    "field, value",
    [("check_every", 2.5), ("check_every", True), ("max_rounds", True), ("max_rounds", 10.0)],
)
def test_round_schedule_takes_integers_only(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RoundSchedule(**{"max_rounds": 10, field: value})
    RoundSchedule(max_rounds=np.int64(10), check_every=np.int32(2))


def test_run_record_roundtrip(tmp_path):
    rows = (
        (1, 1 / 3, None, 0.1 + 0.2, 5e-324, 12, None, None, None),
        (2, -2.5e17, 0.25, float(np.pi), 1.0, 24, 7.5, None, None),
    )
    rec = RunRecord(rows=rows)
    path = tmp_path / "run.csv"
    rec.write_csv(path)
    again = RunRecord.read_csv(path)
    assert again.rows == rows
    assert again.column("F") == [1 / 3, -2.5e17]
    with pytest.raises(ValueError):
        RunRecord(rows=((1, 2.0),))
    header = path.read_text().splitlines()[0]
    for row, cells in (("1,2.0,0.1,0.2,0.3,4,,,,EXTRA,9", 11), ("1,2.0,0.1", 3)):
        path.write_text(f"{header}\n1,2.0,0.1,0.2,0.3,4,,,\n{row}\n")
        with pytest.raises(ValueError, match=f"line 3: {cells} cells, expected 9"):
            RunRecord.read_csv(path)
    rec.write_csv(path)
    bad = path.read_text().replace("round", "iteration")
    path.write_text(bad)
    with pytest.raises(ValueError):
        RunRecord.read_csv(path)


@pytest.mark.parametrize("kind, N", [("star", 5), ("circle", 50), ("small_world", 40)])
def test_edge_squares_are_byte_identical_to_a_per_edge_loop(kind, N):
    g = build_topology(kind, N, **({"extra_edges": N, "seed": 1} if kind == "small_world" else {}))
    rng = np.random.default_rng(N)
    X = rng.standard_normal((2, N, 30)) * 10.0 ** rng.integers(-3, 4, size=(2, N, 1))

    def loop(Y):
        return np.array([(Y[i] - Y[j]) @ (Y[i] - Y[j]) for i, j in g.edges])

    for s in range(2):
        assert simnet._edge_sq(g, X[s]).tobytes() == loop(X[s]).tobytes()
    assert simnet._edge_sq(g, X).tobytes() == np.stack([loop(X[0]), loop(X[1])]).tobytes()


def test_metric_helpers():
    g = build_topology("star", 2)
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    max_edge, V = consensus_metrics(g, X)
    assert max_edge == pytest.approx(5.0)
    assert V == pytest.approx(5.0 / np.sqrt(2))

    g3 = build_topology("star", 3)
    Xbar = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    edge_agg, omega_norm = ergodic_aggregates(g3, Xbar)
    by_hand = np.sqrt(
        np.linalg.norm(Xbar[0] - Xbar[1]) ** 2 + np.linalg.norm(Xbar[0] - Xbar[2]) ** 2
    )
    assert edge_agg == pytest.approx(by_hand)
    assert omega_norm == pytest.approx(np.linalg.norm(g3.laplacian() @ Xbar))

    # a 6-node small world whose edges all disagree by different amounts
    g6 = build_topology("small_world", 6, extra_edges=3, seed=1)
    X6 = np.random.default_rng(5).standard_normal((6, 4)) * np.arange(1, 7)[:, None]
    dists = [np.linalg.norm(X6[i] - X6[j]) for i, j in g6.edges]
    assert len(set(dists)) == g6.edge_count == 9
    max_edge, V = consensus_metrics(g6, X6)
    assert max_edge == pytest.approx(max(dists), rel=1e-14)
    assert V == pytest.approx(max(dists) / 2.0, rel=1e-14)
    omega_rows = [
        g6.degrees[i] * X6[i] - sum(X6[j] for j in g6.neighbor_lists[i]) for i in range(6)
    ]
    edge_agg, omega_norm = ergodic_aggregates(g6, X6)
    assert edge_agg == pytest.approx(np.sqrt(sum(d**2 for d in dists)), rel=1e-14)
    assert omega_norm == pytest.approx(
        np.sqrt(sum(float(r @ r) for r in omega_rows)), rel=1e-14
    )


def test_run_validations():
    g, objs = small_net()
    sched = RoundSchedule(max_rounds=3)
    gam = np.full(3, 1.0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_synchronous("sgd", g, objs, sched, 0)
    with pytest.raises(ValueError, match="only wired up for dpga"):
        run_synchronous("pg_extra", g, objs, sched, 0, step_mode="AS")
    with pytest.raises(ValueError, match="step_mode"):
        run_synchronous("dpga", g, objs, sched, 0, gammas=gam, step_mode="BS")
    with pytest.raises(ValueError, match="no gradient-noise mode"):
        run_synchronous("dpga", g, objs, sched, 0, gammas=gam, sigma=0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        run_synchronous("sdpga", g, objs, sched, 0, gammas=gam, sigma=-0.1)
    # a NaN or inf sigma is refused by name, not met as a divergence in round 1
    for algorithm in ("sdpga", "sdpga_w"):
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"sigma must be finite and nonnegative, got {bad}"):
                run_synchronous(algorithm, g, objs, sched, 0, gammas=gam, sigma=float(bad))
    # so are NaN and inf penalties, on every algorithm whose init takes gammas
    for algorithm in ("dpga", "sdpga", "dpga_w", "sdpga_w", "admm"):
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"gammas must be finite and positive, got \\[{bad}"):
                run_synchronous(algorithm, g, objs, sched, 0, gammas=np.full(3, float(bad)))
    with pytest.raises(ValueError, match="needs gammas"):
        run_synchronous("dpga", g, objs, sched, 0)
    with pytest.raises(ValueError, match="one shared gamma"):
        run_synchronous("admm", g, objs, sched, 0, gammas=np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="unknown bound column"):
        run_synchronous(
            "dpga", g, objs, sched, 0, gammas=gam, bound=FakeBound(column="rel_subopt")
        )


@pytest.mark.parametrize("algorithm", ["dpga", "dpga_w", "pg_extra", "admm"])
def test_noiseless_runs_reject_a_horizon(algorithm):
    g, objs = small_net()
    gammas = None if algorithm == "pg_extra" else np.ones(3)
    with pytest.raises(ValueError, match=f"{algorithm} takes no horizon"):
        run_synchronous(algorithm, g, objs, RoundSchedule(max_rounds=3), 0, gammas=gammas, horizon=5)


def test_pg_extra_rejects_gammas():
    g, objs = small_net()
    with pytest.raises(ValueError, match="pg_extra takes no gammas"):
        run_synchronous("pg_extra", g, objs, RoundSchedule(max_rounds=3), 0, gammas="junk")


@pytest.mark.parametrize("graph_nodes", [6, 4])
def test_objective_count_must_match_the_graph(graph_nodes):
    objs = random_objectives(np.random.default_rng(0), 5, n=6, m=4)
    g = build_topology("star", graph_nodes)
    with pytest.raises(ValueError, match=f"5 objectives for a graph of {graph_nodes} nodes"):
        run_synchronous("dpga", g, objs, RoundSchedule(max_rounds=3), 0, gammas=np.ones(graph_nodes))


def test_objective_dimensions_must_agree():
    rng = np.random.default_rng(1)
    objs = random_objectives(rng, 2, n=6, m=4) + random_objectives(rng, 1, n=7, m=4)
    g = build_topology("clique", 3)
    with pytest.raises(ValueError, match=r"objective dimensions differ: \[6, 7\]"):
        run_synchronous("dpga", g, objs, RoundSchedule(max_rounds=3), 0, gammas=np.ones(3))


@pytest.mark.parametrize("algorithm", ["sdpga", "sdpga_w"])
@pytest.mark.parametrize("horizon", [0, -5])
def test_noisy_runs_reject_a_horizon_below_one(algorithm, horizon):
    g, objs = small_net(seed=2)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        run_synchronous(
            algorithm, g, objs, RoundSchedule(max_rounds=3), 0,
            gammas=np.ones(3), sigma=0.1, horizon=horizon,
        )


def test_audit_matches_declared_profiles():
    g, objs = small_net()
    n = objs[0].n
    sched = RoundSchedule(max_rounds=4)
    gam = np.full(3, 1.2)
    for algorithm, (comm, stored) in TABLE_PROFILES.items():
        res = run_synchronous(
            algorithm, g, objs, sched, 7, gammas=None if algorithm == "pg_extra" else gam,
            sigma=0.05 if algorithm.startswith("s") else 0.0,
        )
        report = audit_check(res.audit, algorithm)
        assert report.ok, report.details
        assert res.audit.rounds == 4
        for i in range(3):
            assert res.audit.scalars_sent[i] == comm * n * 4
            assert res.audit.peak_vectors[i] == stored
    with pytest.raises(ValueError):
        audit_check(AuditLog(node_count=1, n=1), "sgd")


@pytest.mark.parametrize("reading", ["scalars_sent", "peak_vectors"])
def test_an_edited_per_node_reading_fails_the_audit(reading):
    # the meter counts one integer for all nodes; an edit to one node's
    # reading after the run stays put and fails the check, as the
    # benchmark's self-test expects
    g, objs = small_net()
    res = run_synchronous("dpga", g, objs, RoundSchedule(max_rounds=4), 0, gammas=np.ones(3))
    assert audit_check(res.audit, "dpga").ok
    getattr(res.audit, reading)[0] += 1
    report = audit_check(res.audit, "dpga")
    assert not report.ok and report.details.startswith("node 0 ")
    assert getattr(res.audit, reading)[1] == getattr(res.audit, reading)[0] - 1


def test_stochastic_runs_reproduce_bit_for_bit():
    g, objs = small_net(seed=5)
    sched = RoundSchedule(max_rounds=40, check_every=7)
    kwargs = dict(gammas=np.full(3, 1.0), sigma=0.3, collect_ergodic=True)
    a = run_synchronous("sdpga", g, objs, sched, 123, **kwargs)
    b = run_synchronous("sdpga", g, objs, sched, 123, **kwargs)
    assert a.record.rows == b.record.rows
    assert np.array_equal(a.final_x, b.final_x)
    c = run_synchronous("sdpga", g, objs, sched, 124, **kwargs)
    assert not np.array_equal(a.final_x, c.final_x)


def test_rows_follow_check_every():
    g, objs = small_net(seed=6)
    sched = RoundSchedule(max_rounds=10, check_every=4)
    res = run_synchronous("dpga", g, objs, sched, 0, gammas=np.full(3, 1.0))
    assert res.record.column("round") == [4, 8, 10]
    assert res.rounds == 10 and not res.solved


def test_early_stop_needs_reference():
    g, objs = small_net(seed=7)
    ref = fista_solve(objs, tol=1e-11)
    sched = RoundSchedule(max_rounds=20000, check_every=10)
    gam = np.full(3, 1.0)
    with_ref = run_synchronous("dpga", g, objs, sched, 0, gammas=gam, reference=ref)
    assert with_ref.solved
    assert with_ref.rounds < 20000
    last = with_ref.record.rows[-1]
    assert last[CSV_COLUMNS.index("rel_subopt")] <= sched.stop_rel_subopt
    assert last[CSV_COLUMNS.index("consensus_violation_V")] <= sched.stop_consensus

    capped = RoundSchedule(max_rounds=50, check_every=10)
    without = run_synchronous("dpga", g, objs, capped, 0, gammas=gam)
    assert not without.solved and without.rounds == 50
    assert all(cell is None for cell in without.record.column("rel_subopt"))


def dpga_iterates(g, objs, gammas, rounds):
    """X^0 = 0, X^1, ..., X^rounds of dpga stepped directly, as the
    simulator runs it."""
    state = dpga_init(g, objs, gammas, np.zeros((g.node_count, objs[0].n)))
    trace = [state.x]
    for _ in range(rounds):
        state, _ = dpga_round(state, objs, plain_exchange(g))
        trace.append(state.x)
    return trace


def test_trace_and_bound_column():
    g, objs = small_net(seed=8)
    sched = RoundSchedule(max_rounds=6, check_every=2)
    res = run_synchronous(
        "dpga",
        g,
        objs,
        sched,
        0,
        gammas=np.full(3, 1.0),
        bound=FakeBound(column="bound_theorem3"),
    )
    trace = dpga_iterates(g, objs, np.full(3, 1.0), 6)
    assert np.array_equal(trace[0], np.zeros((3, objs[0].n)))
    assert np.array_equal(trace[-1], res.final_x)
    assert res.record.column("F") == [network_objective(objs, trace[k]) for k in (2, 4, 6)]
    assert res.record.column("bound_theorem3") == [2.5, 1.25, 5.0 / 6.0]
    assert res.record.column("bound_theorem4") == [None, None, None]


def test_ergodic_observer_output():
    g, objs = small_net(seed=9)
    ref = fista_solve(objs, tol=1e-11)
    sched = RoundSchedule(
        max_rounds=12, check_every=3, stop_rel_subopt=1e-30, stop_consensus=1e-30
    )
    res = run_synchronous(
        "dpga",
        g,
        objs,
        sched,
        0,
        gammas=np.full(3, 1.0),
        reference=ref,
        collect_ergodic=True,
    )
    assert list(res.ergodic["t"]) == [3, 6, 9, 12]
    Xbar = np.mean(dpga_iterates(g, objs, np.full(3, 1.0), 6)[1:7], axis=0)
    assert res.ergodic["ergodic_F"][1] == pytest.approx(
        network_objective(objs, Xbar), rel=1e-12
    )
    assert res.ergodic["subopt_gap"][1] == pytest.approx(
        network_objective(objs, Xbar) - ref.F_star, rel=1e-9
    )


def test_replayed_inboxes_reproduce_the_run():
    g, objs = small_net(seed=10)
    rng = np.random.default_rng(0)
    x0 = [rng.standard_normal(objs[0].n) for _ in range(3)]
    gam = np.full(3, 1.0)
    exchange = Transport(g).exchange
    captured = []

    def recording(payloads):
        out = exchange(payloads)
        captured.append(out)
        return out

    live = dpga_init(g, objs, gam, x0)
    for _ in range(5):
        live, _ = dpga_round(live, objs, recording)

    replayed = dpga_init(g, objs, gam, x0)
    for k in range(5):
        replayed, _ = dpga_round(replayed, objs, lambda payloads: captured[k])
    for a, b in zip(live, replayed):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.p, b.p)


def test_algorithm_registry_covers_profiles():
    assert set(TABLE_PROFILES) == set(ALGORITHMS)


def _own_init(algorithm, g, objs, gammas, horizon, safety):
    """The start each algorithm's own init builds, spelled out per algorithm."""
    x0 = np.zeros((g.node_count, objs[0].n))
    noisy = "horizon" if horizon is not None else "diminishing"
    W = dpga_w.CommunicationMatrix.from_laplacian(g)
    return {
        "dpga": lambda: dpga_init(g, objs, gammas, x0, safety=safety),
        "sdpga": lambda: dpga_init(g, objs, gammas, x0, safety=safety, step_mode=noisy),
        "dpga_w": lambda: dpga_w.dpgaw_init(g, W, objs, gammas, x0, safety=safety),
        "sdpga_w": lambda: dpga_w.dpgaw_init(
            g, W, objs, gammas, x0, safety=safety, step_mode=noisy
        ),
        "pg_extra": lambda: baselines.pg_extra_init(g, mixing_pair(g), objs, x0),
        "admm": lambda: baselines.admm_init(g, W, objs, float(gammas[0]), x0),
    }[algorithm]()


@pytest.mark.parametrize("kind, N", [("star", 5), ("circle", 50)])
@pytest.mark.parametrize(
    "algorithm, horizon",
    [(a, None) for a in ALGORITHMS] + [("sdpga", 100), ("sdpga_w", 100)],
)
def test_initial_state_is_what_each_init_builds(algorithm, horizon, kind, N):
    g = build_topology(kind, N)
    objs = generate_problem(ProblemSpec(case=1, N=N, n_g=10, seed=0)).objectives
    gammas = {
        "pg_extra": None,
        "admm": np.full(N, 1.5),
    }.get(algorithm, 1.0 + 0.1 * np.arange(N))
    got = simnet.initial_state(algorithm, g, objs, gammas, horizon, 0.9)
    want = _own_init(algorithm, g, objs, gammas, horizon, 0.9)
    assert list(got.fields) == list(want.fields)
    for name, a in want.fields.items():
        b = got.fields[name]
        assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), name
    assert list(got.ops) == list(want.ops)
    for name, op in want.ops.items():
        assert type(got.ops[name]) is type(op)
        assert got.ops[name].matrix.tobytes() == op.matrix.tobytes(), name
    assert not got.x.any()


def test_initial_state_rejects_an_unknown_algorithm():
    g, objs = small_net(seed=2)
    with pytest.raises(ValueError, match="unknown algorithm 'dgd'"):
        simnet.initial_state("dgd", g, objs, np.ones(3), None, 0.999)


def test_rounds_are_called_through_their_modules(monkeypatch):
    g, objs = small_net(seed=11)
    sched = RoundSchedule(max_rounds=6, check_every=3)
    rounds = ((dpga, "dpga_round", "dpga"), (dpga_w, "dpgaw_round", "dpga_w"))
    for module, name, algorithm in rounds:
        original = getattr(module, name)
        calls = []

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        res = run_synchronous(algorithm, g, objs, sched, 0, gammas=np.full(3, 1.0))
        assert len(calls) == res.rounds == 6


class Delegate:
    """A node objective that is not a NodeObjective, so network() falls
    back to calling it node by node."""

    def __init__(self, obj):
        self.obj = obj

    def __getattr__(self, name):
        return getattr(self.obj, name)


class NanAfter(Delegate):
    """A node objective whose prox returns NaN from its k-th call on."""

    def __init__(self, obj, k):
        super().__init__(obj)
        self.k, self.calls = k, 0

    def prox(self, v, t):
        self.calls += 1
        out = self.obj.prox(v, t)
        return np.full_like(out, np.nan) if self.calls >= self.k else out


def test_divergence_names_the_round_and_node():
    g, objs = small_net(seed=12)
    objs = [objs[0], objs[1], NanAfter(objs[2], 3)]
    sched = RoundSchedule(max_rounds=10)
    with pytest.raises(DivergenceError, match="round 3: node 2 "):
        run_synchronous("dpga", g, objs, sched, 0, gammas=np.full(3, 1.0))


def test_zero_optimal_value_reports_the_absolute_gap():
    g, objs = small_net(seed=13)
    sched = RoundSchedule(max_rounds=5)
    zero = dataclasses.make_dataclass("Reference", ["F_star"])(0.0)
    res = run_synchronous("dpga", g, objs, sched, 0, gammas=np.full(3, 1.0), reference=zero)
    assert res.record.column("rel_subopt") == [abs(F) for F in res.record.column("F")]


@pytest.mark.parametrize("case", [1, 2])
def test_stacked_and_per_node_runs_are_bit_identical(case):
    objs = generate_problem(ProblemSpec(case=case, N=5, n_g=4, seed=1, K=5)).objectives
    g = build_topology("star", 5)
    assert network(objs).A is not None
    assert network([Delegate(o) for o in objs]).A is None
    runs = [
        ("dpga", {}),
        ("dpga", {"step_mode": "AS"}),
        ("sdpga", {"sigma": 0.1, "horizon": 60}),
        ("dpga_w", {}),
        ("sdpga_w", {"sigma": 0.1, "horizon": 60}),
        ("pg_extra", {"gammas": None}),
    ]
    for algorithm, kw in runs:
        stacked, nodes = (
            run_synchronous(
                algorithm, g, nets, RoundSchedule(max_rounds=60), 4,
                **{"gammas": np.full(5, 0.8), **kw}, collect_ergodic=True,
            )
            for nets in (objs, [Delegate(o) for o in objs])
        )
        assert stacked.record == nodes.record, algorithm
        assert np.array_equal(stacked.final_x, nodes.final_x), algorithm
        for key, col in stacked.ergodic.items():
            assert np.array_equal(col, nodes.ergodic[key]), (algorithm, key)


def stepped_iterates(algorithm, g, objs, gammas, rounds, seed=0):
    """X^1, ..., X^rounds of dpga, dpga_w or sdpga (sigma 0.1, horizon =
    rounds) stepped directly with plain_exchange, as the simulator steps them."""
    x0, exchange = np.zeros((g.node_count, objs[0].n)), plain_exchange(g)
    if algorithm == "dpga_w":
        W = dpga_w.CommunicationMatrix.from_laplacian(g)
        state = dpga_w.dpgaw_init(g, W, objs, gammas, x0)
        step = lambda st, k: dpga_w.dpgaw_round(st, objs, exchange)[0]
    elif algorithm == "sdpga":
        oracles = [NoisyOracle.for_node(0.1, seed, i) for i in range(g.node_count)]
        state = dpga_init(g, objs, gammas, x0, step_mode="horizon")
        step = lambda st, k: dpga.sdpga_round(st, objs, oracles, k, exchange, horizon=rounds)[0]
    else:
        state = dpga_init(g, objs, gammas, x0)
        step = lambda st, k: dpga_round(st, objs, exchange)[0]
    trace = []
    for k in range(rounds):
        state = step(state, k)
        trace.append(state.x)
    return trace


def observed_separately(algorithm, g, objs, trace, check_every, F_star):
    """The record rows and ergodic curves of a run with ergodic collection,
    from one network_objective, consensus_metrics or ergodic_aggregates call
    per (N, n) array: the observer before it stacked X and Xbar."""
    rows, erg_rows, erg_sum = [], [], np.zeros_like(trace[0])
    comm = TABLE_PROFILES[algorithm][0] * objs[0].n
    for k, X in enumerate(trace, start=1):
        erg_sum += X
        if k % check_every and k != len(trace):
            continue
        F = network_objective(objs, X)
        max_edge, V = consensus_metrics(g, X)
        rows.append((k, F, abs(F - F_star) / abs(F_star), V, max_edge, comm * k, None, None, None))
        Xbar = erg_sum / k
        F_erg = network_objective(objs, Xbar)
        erg_rows.append((k, F_erg, F_erg - F_star, *ergodic_aggregates(g, Xbar)))
    return tuple(rows), [np.array(col) for col in zip(*erg_rows)]


def assert_observer_matches(algorithm, g, objs, gammas, check_every, rounds=7, seed=0):
    reference = dataclasses.make_dataclass("Reference", ["F_star"])(1.25)
    sched = RoundSchedule(
        max_rounds=rounds, check_every=check_every, stop_rel_subopt=1e-30, stop_consensus=1e-30
    )
    noisy = {"sigma": 0.1, "horizon": rounds} if algorithm == "sdpga" else {}
    res = run_synchronous(
        algorithm, g, objs, sched, seed, gammas=gammas, reference=reference,
        collect_ergodic=True, **noisy,
    )
    trace = stepped_iterates(algorithm, g, objs, gammas, rounds, seed)
    assert np.array_equal(res.final_x, trace[-1])
    rows, curves = observed_separately(algorithm, g, objs, trace, check_every, 1.25)
    assert res.record.rows == rows
    assert list(res.ergodic) == ["t", "ergodic_F", "subopt_gap", "edge_aggregate", "omega_norm"]
    for key, expected in zip(res.ergodic, curves):
        assert res.ergodic[key].dtype == expected.dtype, key
        assert np.array_equal(res.ergodic[key], expected), key


@pytest.mark.parametrize("check_every", [1, 3])
@pytest.mark.parametrize("kind, N", [("star", 5), ("circle", 50)])
@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("algorithm", ["dpga", "dpga_w", "sdpga"])
def test_stacked_observer_is_bit_identical_to_separate_calls(algorithm, case, kind, N, check_every):
    # one pass over the stacked (X, Xbar) must give what two phi calls and
    # two edge passes gave, bit for bit
    objs = network(generate_problem(ProblemSpec(case=case, N=N, n_g=10, seed=2)).objectives)
    g = build_topology(kind, N)
    assert_observer_matches(algorithm, g, objs, np.full(N, 0.8), check_every)


@pytest.mark.parametrize("algorithm", ["dpga", "dpga_w", "sdpga"])
def test_stacked_observer_on_ragged_nodes_calls_them_one_by_one(algorithm):
    rng = np.random.default_rng(21)
    # ragged groups and a row count of its own per node, so A is not stacked
    objs = [random_objective(rng, n=12, m=3 + i, K=5) for i in range(4)]
    assert network(objs).A is None
    g = build_topology("star", 4)
    assert_observer_matches(algorithm, g, objs, np.full(4, 0.8), check_every=3)


def test_every_observed_value_comes_through_the_traced_observer(monkeypatch):
    # the benchmark's tracer times the observer by wrapping these three
    # names, so each checked round must call them and nothing may compute F
    # or an edge metric outside them
    g, objs = small_net(seed=14)
    log, depth = [], [0]

    def observer(name, fn):
        def wrapped(*args):
            log.append(name)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    def inside_only(name, fn):
        def wrapped(*args, **kwargs):
            if depth[0] == 0:
                log.append(f"{name}-outside")
            return fn(*args, **kwargs)
        return wrapped

    def new_round(fn):
        def wrapped(*args, **kwargs):
            log.append("|")
            return fn(*args, **kwargs)
        return wrapped

    for name in ("network_objective", "consensus_metrics", "ergodic_aggregates"):
        monkeypatch.setattr(simnet, name, observer(name, getattr(simnet, name)))
    monkeypatch.setattr(simnet, "_edge_sq", inside_only("_edge_sq", simnet._edge_sq))
    monkeypatch.setattr(NetworkObjective, "phi", inside_only("phi", NetworkObjective.phi))
    monkeypatch.setattr(dpga, "sdpga_round", new_round(dpga.sdpga_round))
    sched = RoundSchedule(max_rounds=8, check_every=3)
    for ergodic in (True, False):
        log.clear()
        res = run_synchronous(
            "sdpga", g, objs, sched, 0, gammas=np.ones(3), sigma=0.1, collect_ergodic=ergodic
        )
        assert not [entry for entry in log if entry.endswith("-outside")]
        rounds = " ".join(log).split("|")[1:]
        assert len(rounds) == res.rounds == 8
        checked = [k for k, calls in enumerate(rounds, start=1) if calls.split()]
        assert checked == [row[0] for row in res.record.rows] == [3, 6, 8]
