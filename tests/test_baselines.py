"""PG-EXTRA and consensus ADMM against hand recursions and the W variant."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_objective, random_objectives
from netprox import baselines
from netprox.baselines import (
    ProxOnlyObjective,
    admm_init,
    admm_round,
    pg_extra_init,
    pg_extra_kkt_residuals,
    pg_extra_round,
    prox_composite,
    prox_composite_rows,
)
from netprox.bench import ProblemSpec, generate_problem
from netprox.dpga_w import CommunicationMatrix, dpgaw_init, dpgaw_round
from netprox.errors import InnerSolveError, ProtocolError
from netprox.simnet import RoundSchedule, audit_check, plain_exchange, run_synchronous
from netprox.topology import build_topology, mixing_pair


def network(seed=0, N=4, n=6):
    rng = np.random.default_rng(seed)
    g = build_topology("small_world", N, extra_edges=1, seed=5)
    objs = random_objectives(rng, N, n=n, m=4)
    x0 = [rng.standard_normal(n) for _ in range(N)]
    return g, objs, x0


def test_pg_extra_default_step_and_caps():
    g, objs, x0 = network()
    mix = mixing_pair(g)
    L_max = max(o.lipschitz for o in objs)
    nodes = pg_extra_init(g, mix, objs, x0)
    assert nodes[0].c == pytest.approx(0.99 * 2.0 * mix.lam_min_tilde / L_max)
    smooth_free = [ProxOnlyObjective(o) for o in objs]
    with pytest.raises(ValueError):
        pg_extra_init(g, mix, smooth_free, x0)
    # a NaN L_max would set c = NaN
    no_cap = [SimpleNamespace(lipschitz=float("nan")) for _ in objs]
    with pytest.raises(ValueError, match="L_max must be finite and positive, got nan"):
        pg_extra_init(g, mix, no_cap, x0)


def test_pg_extra_matches_matrix_recursion():
    g, objs, x0 = network(seed=1)
    mix = mixing_pair(g)
    exchange = plain_exchange(g)
    nodes = pg_extra_init(g, mix, objs, x0)
    c = nodes[0].c

    X = np.stack(x0)
    X_prev = X.copy()
    half_prev = None
    for m in range(30):
        grads = np.stack([obj.f_grad(X[i]) for i, obj in enumerate(objs)])
        if m == 0:
            half = mix.W @ X - c * grads
        else:
            grads_old = np.stack(
                [obj.f_grad(X_prev[i]) for i, obj in enumerate(objs)]
            )
            half = mix.W @ X - mix.W_tilde @ X_prev + half_prev - c * (grads - grads_old)
        X_next = np.stack([obj.prox(half[i], c) for i, obj in enumerate(objs)])
        X_prev, X, half_prev = X, X_next, half

        nodes, _ = pg_extra_round(nodes, objs, exchange)
        for i, nd in enumerate(nodes):
            assert np.linalg.norm(nd.x - X[i]) < 1e-12
            assert np.linalg.norm(nd.x_half - half[i]) < 1e-12


def test_pg_extra_sends_its_iterate_once_per_round():
    # W~ X^{k-1} is mixed from last round's messages, so a round hands over
    # only the (N, n) iterate it starts from, and a metered run reads n per round
    g, objs, x0 = network(seed=4)
    nodes = pg_extra_init(g, mixing_pair(g), objs, x0)
    sent = []

    def recording(payload):
        sent.append(np.array(payload))
        return plain_exchange(g)(payload)

    for _ in range(6):
        start = nodes.x
        nodes, _ = pg_extra_round(nodes, objs, recording)
        (payload,) = sent
        assert payload.shape == (4, 6) and payload.tobytes() == start.tobytes()
        sent.clear()
    res = run_synchronous("pg_extra", g, objs, RoundSchedule(max_rounds=9), 0)
    assert res.record.column("cum_scalars_per_node") == [6 * k for k in range(1, 10)]
    assert audit_check(res.audit, "pg_extra").ok


def test_pg_extra_kkt_residuals_identity_and_decay():
    g, objs, x0 = network(seed=2)
    mix = mixing_pair(g)
    exchange = plain_exchange(g)
    nodes = pg_extra_init(g, mix, objs, x0)
    c = nodes[0].c
    x_trace = [np.stack(x0)]
    half_trace = []
    for _ in range(250):
        nodes, _ = pg_extra_round(nodes, objs, exchange)
        x_trace.append(nodes.x)
        half_trace.append(nodes.x_half)
    kkt_sq, cons_sq = pg_extra_kkt_residuals(x_trace, half_trace, mix, objs, c)
    # r^m collapses to W~ X^m - X^{m+1}
    for m in (0, 3, 60, 249):
        R = mix.W_tilde @ x_trace[m] - x_trace[m + 1]
        assert kkt_sq[m] == pytest.approx(
            float(np.sum(R * (mix.W_tilde @ R))), rel=1e-8, abs=1e-12
        )
    assert kkt_sq[-1] < 1e-5 * kkt_sq[0]
    assert cons_sq[-1] < 1e-5 * cons_sq[0]
    spread = np.max(np.std(x_trace[-1], axis=0))
    assert spread < 1e-3
    with pytest.raises(ValueError):
        pg_extra_kkt_residuals(x_trace[:-1], half_trace, mix, objs, c)


def test_pg_extra_protocol_error():
    g, objs, x0 = network(seed=3)
    nodes = pg_extra_init(g, mixing_pair(g), objs, x0)
    with pytest.raises(ProtocolError):
        pg_extra_round(nodes, objs, lambda payload: payload[:2])


def quadratic_prox_reference(obj, v, c):
    n = obj.n
    H = obj.A.T @ obj.A + np.eye(n) / c
    return np.linalg.solve(H, obj.A.T @ obj.b + v / c)


def test_prox_composite_quadratic_case():
    rng = np.random.default_rng(4)
    obj = random_objective(rng, n=7, m=9, beta1=0.0, beta2=0.0, delta=1e9)
    v = rng.standard_normal(7)
    for c in (0.05, 1.0, 20.0):
        z = prox_composite(obj, v, c, tol=1e-12)
        assert np.linalg.norm(z - quadratic_prox_reference(obj, v, c)) < 1e-8


def test_prox_composite_stall_reports_residual(monkeypatch):
    rng = np.random.default_rng(5)
    obj = random_objective(rng, n=7, m=9)
    monkeypatch.setattr(baselines, "PROX_MAX_ITER", 3)
    with pytest.raises(InnerSolveError) as err:
        prox_composite(obj, rng.standard_normal(7), 1.0, tol=1e-12)
    assert err.value.residual > 0
    # node 0 starts at its solution (b = 0, v = 0, z = 0) and stops at once;
    # node 1 is the first still searching when the cap is hit
    objs = random_objectives(rng, 3, n=7, m=9)
    objs[0] = replace(objs[0], b=np.zeros(9))
    V = rng.standard_normal((3, 7))
    V[0] = 0.0
    with pytest.raises(InnerSolveError, match="at node 1: gradient mapping") as err:
        prox_composite_rows(objs, V, np.ones(3), V, tol=1e-12)
    assert err.value.residual > 0
    assert f"{err.value.residual:.3e}" in str(err.value)


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("kind, N", [("star", 5), ("circle", 50)])
def test_batched_inner_solve_rows_do_not_depend_on_each_other(case, kind, N):
    # each row of one stacked solve, with its own step and start, is bit for
    # bit the point and the gradient count of a solve over that node alone
    prob = generate_problem(ProblemSpec(case=case, N=N, n_g=20, seed=3))
    g = build_topology(kind, N)
    n = prob.objectives[0].n
    c = admm_init(g, CommunicationMatrix.from_laplacian(g), prob.objectives, 1.3, np.zeros((N, n))).c
    rng = np.random.default_rng(case * N)
    steps = c * rng.uniform(0.5, 2.0, N)
    V = rng.standard_normal((N, n))
    for Z0 in (V, V + 0.1 * rng.standard_normal((N, n))):
        Z, calls = prox_composite_rows(prob.objectives, V, steps, Z0)
        assert len(set(calls.tolist())) > 1
        for i, obj in enumerate(prob.objectives):
            counted = CountingObjective(obj)
            if Z0 is V:
                alone = prox_composite(counted, V[i], steps[i])
            else:
                one = slice(i, i + 1)
                (alone,), _ = prox_composite_rows([counted], V[one], steps[one], Z0[one])
            assert alone.tobytes() == Z[i].tobytes()
            assert counted.calls == calls[i]


def test_prox_composite_first_order_optimality():
    rng = np.random.default_rng(6)
    obj = random_objective(rng, n=6, m=4)
    v = rng.standard_normal(6)
    c = 0.7
    z = prox_composite(obj, v, c, tol=1e-12)
    base = obj.phi(z) + np.linalg.norm(z - v) ** 2 / (2 * c)
    for _ in range(100):
        pert = z + rng.standard_normal(6) * 1e-5
        val = obj.phi(pert) + np.linalg.norm(pert - v) ** 2 / (2 * c)
        assert val >= base - 1e-11


def test_prox_only_objective_surface():
    rng = np.random.default_rng(7)
    inner = random_objective(rng, n=6, m=4)
    po = ProxOnlyObjective(inner, inner_tol=1e-12)
    x = rng.standard_normal(6)
    assert po.lipschitz == 0.0
    assert np.all(po.f_grad(x) == 0)
    quad = random_objective(rng, n=5, m=6, beta1=0.0, beta2=0.0, delta=1e9)
    z = ProxOnlyObjective(quad, inner_tol=1e-12).prox(np.ones(5), 0.4)
    assert np.linalg.norm(z - quadratic_prox_reference(quad, np.ones(5), 0.4)) < 1e-8


def test_admm_init_values():
    g, objs, x0 = network(seed=8)
    W = CommunicationMatrix.from_laplacian(g)
    nodes = admm_init(g, W, objs, 1.7, x0)
    for i, nd in enumerate(nodes):
        assert nd.c == pytest.approx(1.0 / (1.7 * W.omega_norms_sq[i]))
        assert nd.tau_inv == pytest.approx(1.7 / (g.degrees[i] + 1))
    with pytest.raises(ValueError):
        admm_init(g, W, objs, 0.0, x0)


def test_admm_round_counts_inner_work():
    g, objs, x0 = network(seed=9)
    W = CommunicationMatrix.from_laplacian(g)
    nodes = admm_init(g, W, objs, 1.7, x0)
    exchange = plain_exchange(g)
    nodes, _, inner = admm_round(nodes, objs, exchange)
    assert len(inner) == g.node_count
    assert all(k > 0 for k in inner)
    with pytest.raises(ProtocolError):
        admm_round(nodes, objs, lambda payload: payload[:2])


def test_admm_is_the_w_variant_with_prox_only_objectives():
    g, objs, x0 = network(seed=10)
    W = CommunicationMatrix.from_laplacian(g)
    gamma = 1.3
    exchange = plain_exchange(g)
    admm_nodes = admm_init(g, W, objs, gamma, x0)
    shadows = [ProxOnlyObjective(o, inner_tol=1e-13) for o in objs]
    w_nodes = dpgaw_init(
        g, W, shadows, np.full(g.node_count, gamma), x0, safety=1.0
    )
    for a, b in zip(admm_nodes, w_nodes):
        assert a.c == pytest.approx(b.c, rel=1e-15)
        assert a.tau_inv == pytest.approx(b.tau_inv, rel=1e-15)
    for _ in range(50):
        admm_nodes, _, _ = admm_round(admm_nodes, objs, exchange, inner_tol=1e-13)
        w_nodes, _ = dpgaw_round(w_nodes, shadows, exchange)
        for a, b in zip(admm_nodes, w_nodes):
            assert np.linalg.norm(a.x - b.x) < 1e-10
            assert np.linalg.norm(a.p - b.p) < 1e-10


class CountingObjective:
    """Counts gradient calls of a NodeObjective."""

    def __init__(self, obj):
        self.obj, self.calls, self.lipschitz = obj, 0, obj.lipschitz

    def f_grad(self, x):
        self.calls += 1
        return self.obj.f_grad(x)

    def prox(self, v, t):
        return self.obj.prox(v, t)


def test_admm_inner_solve_starts_at_the_iterate():
    g, objs, x0 = network(seed=11)
    W = CommunicationMatrix.from_laplacian(g)
    exchange = plain_exchange(g)
    state = admm_init(g, W, objs, 1.3, x0)
    for _ in range(100):
        state, _, _ = admm_round(state, objs, exchange)
    # once the run settles x_i is near its next x-update, the prox point is not
    cold = [CountingObjective(o) for o in objs]
    dpgaw_round(state, [ProxOnlyObjective(o) for o in cold], exchange)
    _, _, warm = admm_round(state, objs, exchange)
    for w, c in zip(warm, cold):
        assert 0 < w < c.calls
