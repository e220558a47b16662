"""Simulator: transport, metering, records, reproducibility, locality."""

import dataclasses

import numpy as np
import pytest

from conftest import random_objectives
from netprox.dpga import dpga_init, dpga_round
from netprox.errors import ProtocolError
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
    run_synchronous,
)
from netprox.topology import build_topology


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
    payloads = {i: np.full(2, float(i)) for i in range(4)}
    inboxes = tr.exchange(payloads)
    assert set(inboxes[0]) == {1, 2, 3}
    assert set(inboxes[2]) == {0}
    assert inboxes[2][0] is payloads[0]
    with pytest.raises(ProtocolError):
        tr.exchange({0: payloads[0]})
    with pytest.raises(ProtocolError):
        tr.exchange({**payloads, 9: np.zeros(2)})


def test_transport_meters_traffic():
    g = build_topology("circle", 3)
    audit = AuditLog(node_count=3, n=2)
    tr = Transport(g, audit)
    tr.exchange({i: np.zeros(2) for i in range(3)})
    tr.exchange({i: np.zeros((2, 2)) for i in range(3)})
    assert audit.exchange_calls == 2
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
    bad = path.read_text().replace("round", "iteration")
    path.write_text(bad)
    with pytest.raises(ValueError):
        RunRecord.read_csv(path)


def test_metric_helpers():
    g = build_topology("star", 2)
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    max_edge, V = consensus_metrics(g, X)
    assert max_edge == pytest.approx(5.0)
    assert V == pytest.approx(5.0 / np.sqrt(2))

    g3 = build_topology("star", 3)
    Xbar = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    edge_agg, omega_norm, w_norm = ergodic_aggregates(g3, Xbar)
    by_hand = np.sqrt(
        np.linalg.norm(Xbar[0] - Xbar[1]) ** 2 + np.linalg.norm(Xbar[0] - Xbar[2]) ** 2
    )
    assert edge_agg == pytest.approx(by_hand)
    assert omega_norm == pytest.approx(np.linalg.norm(g3.laplacian() @ Xbar))
    assert w_norm == omega_norm
    W = 2.0 * g3.laplacian()
    assert ergodic_aggregates(g3, Xbar, W)[2] == pytest.approx(2.0 * omega_norm)


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
    with pytest.raises(ValueError, match="needs gammas"):
        run_synchronous("dpga", g, objs, sched, 0)
    with pytest.raises(ValueError, match="one shared gamma"):
        run_synchronous("admm", g, objs, sched, 0, gammas=np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="unknown bound column"):
        run_synchronous(
            "dpga", g, objs, sched, 0, gammas=gam, bound=FakeBound(column="rel_subopt")
        )


def test_audit_matches_declared_profiles():
    g, objs = small_net()
    n = objs[0].n
    sched = RoundSchedule(max_rounds=4)
    gam = np.full(3, 1.2)
    for algorithm, (comm, stored) in TABLE_PROFILES.items():
        res = run_synchronous(
            algorithm, g, objs, sched, 7, gammas=gam, sigma=0.05 if algorithm.startswith("s") else 0.0
        )
        report = audit_check(res.audit, algorithm)
        assert report.ok, report.details
        assert res.audit.rounds == 4
        for i in range(3):
            assert res.audit.scalars_sent[i] == comm * n * 4
            assert res.audit.peak_vectors[i] == stored
    with pytest.raises(ValueError):
        audit_check(AuditLog(node_count=1, n=1), "sgd")


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
        keep_trace=True,
        bound=FakeBound(column="bound_theorem3"),
    )
    assert len(res.trace) == 7
    assert np.array_equal(res.trace[0], np.zeros((3, objs[0].n)))
    assert np.array_equal(res.trace[-1], res.final_x)
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
        keep_trace=True,
    )
    assert list(res.ergodic["t"]) == [3, 6, 9, 12]
    Xbar = np.mean(res.trace[1:7], axis=0)
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
