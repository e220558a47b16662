"""Weighted-network variant: W validation, recursion, block-problem match."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_objectives
from netprox.dpga_w import (
    CommunicationMatrix,
    dpgaw_init,
    dpgaw_round,
    sdpgaw_round,
    tau_values,
    w_consensus_problem,
)
from netprox.engine import EngineState, constant_plan, pgadmm_step
from netprox.errors import ProtocolError
from netprox.objective import NoisyOracle
from netprox.simnet import plain_exchange
from netprox.topology import build_topology
from theory import diminishing_plan, spgadmm_step


def weighted_laplacian(g, weights):
    M = g.incidence()
    return M.T @ np.diag(weights) @ M


def quad_setup(seed=0, n=5, gammas=(1.0, 2.0, 0.7, 1.3)):
    rng = np.random.default_rng(seed)
    g = build_topology("small_world", 4, extra_edges=1, seed=2)
    W = CommunicationMatrix(
        matrix=weighted_laplacian(g, rng.uniform(0.5, 2.0, g.edge_count)), graph=g
    )
    objs = random_objectives(rng, 4, n=n, m=3)
    x0 = [rng.standard_normal(n) for _ in range(4)]
    return g, W, objs, np.array(gammas), x0


def test_laplacian_is_a_valid_weight_matrix():
    g = build_topology("star", 4)
    W = CommunicationMatrix.from_laplacian(g)
    assert W.omega_norms_sq[0] == pytest.approx(12.0)
    assert W.omega_norms_sq[1] == pytest.approx(2.0)
    assert W.sigma_min_pos == pytest.approx(1.0)
    assert sum(W.omega_norms_sq) == pytest.approx(
        np.linalg.norm(W.matrix, "fro") ** 2
    )


def test_weight_matrix_rejections():
    g = build_topology("star", 4)
    L = g.laplacian()
    with pytest.raises(ValueError):
        CommunicationMatrix(matrix=L[:3, :3], graph=g)
    bad = L.copy()
    bad[0, 1] += 0.2
    with pytest.raises(ValueError, match="symmetric"):
        CommunicationMatrix(matrix=bad, graph=g)
    bad = L.copy()
    bad[0, 1] = bad[1, 0] = 1.0
    with pytest.raises(ValueError, match="negative on an edge"):
        CommunicationMatrix(matrix=bad, graph=g)
    bad = L.copy()
    bad[1, 2] = bad[2, 1] = -0.1
    with pytest.raises(ValueError, match="zero off the graph"):
        CommunicationMatrix(matrix=bad, graph=g)
    bad = L.copy()
    bad[0, 0] += 0.1
    with pytest.raises(ValueError, match="sum to zero"):
        CommunicationMatrix(matrix=bad, graph=g)
    # a vanishing bridge weight disconnects the network numerically
    g3 = build_topology("star", 3)
    with pytest.raises(ValueError, match="rank"):
        CommunicationMatrix(
            matrix=weighted_laplacian(g3, np.array([1e-16, 1.0])), graph=g3
        )


def test_init_states_and_validations():
    g, W, objs, gammas, x0 = quad_setup()
    nodes = dpgaw_init(g, W, objs, gammas, x0)
    for i, nd in enumerate(nodes):
        cap = objs[i].lipschitz + gammas[i] * W.omega_norms_sq[i]
        assert nd.c == pytest.approx(0.999 / cap)
        tau = sum(1.0 / gammas[j] for j in set(g.neighbor_lists[i]) | {i})
        assert nd.tau_inv == pytest.approx(1.0 / tau)
        assert np.all(nd.s == 0) and np.all(nd.p == 0)
    # equal penalties collapse tau to (d_i + 1)/gamma
    eq = dpgaw_init(g, W, objs, np.full(4, 2.0), x0)
    for i, nd in enumerate(eq):
        assert nd.tau_inv == pytest.approx(2.0 / (g.degrees[i] + 1))
    with pytest.raises(ValueError):
        dpgaw_init(g, W, objs, gammas[:2], x0)
    with pytest.raises(ValueError, match="nan"):
        dpgaw_init(g, W, objs, np.full(4, np.nan), x0)
    with pytest.raises(ValueError):
        dpgaw_init(g, W, objs, gammas, x0, step_mode="warmup")
    with pytest.raises(ValueError):
        dpgaw_init(g, W, objs, gammas, x0, safety=0.0)


def test_tau_values_star():
    g = build_topology("star", 4)
    stated, proof = tau_values(g, np.array([1.0, 2.0, 3.0, 4.0]))
    assert stated == pytest.approx(13.0 / 12.0)
    assert proof == pytest.approx(25.0 / 12.0)
    assert proof > stated


def test_round_uses_two_exchanges():
    g, W, objs, gammas, x0 = quad_setup(seed=1)
    nodes = dpgaw_init(g, W, objs, gammas, x0)
    base = plain_exchange(g)
    calls = []

    def counting(payloads):
        calls.append(len(payloads))
        return base(payloads)

    dpgaw_round(nodes, objs, counting)
    assert calls == [4, 4]


def test_protocol_error_on_bad_inbox():
    g, W, objs, gammas, x0 = quad_setup(seed=2)
    nodes = dpgaw_init(g, W, objs, gammas, x0)
    # a delivery that drops a node's message
    with pytest.raises(ProtocolError):
        dpgaw_round(nodes, objs, lambda payload: payload[:3])


def test_matches_w_block_problem_with_multiplier_identity():
    g, W, objs, gammas, x0 = quad_setup(seed=3)
    exchange = plain_exchange(g)
    nodes = dpgaw_init(g, W, objs, gammas, x0)
    prob, slot_of = w_consensus_problem(g, W, objs, gammas)
    closed = [sorted(set(g.neighbor_lists[i]) | {i}) for i in range(4)]
    y0 = [None] * len(slot_of)
    for (i, j), s in slot_of.items():
        y0[s] = W.matrix[i, j] * np.asarray(x0[j])
    plan = constant_plan(prob, explicit=np.array([nd.c for nd in nodes]))
    state = EngineState.initial(prob, x0, y0=y0)
    for _ in range(60):
        nodes, _ = dpgaw_round(nodes, objs, exchange)
        state = pgadmm_step(state, prob, plan)
        for i, nd in enumerate(nodes):
            assert np.linalg.norm(nd.x - state.x[i]) < 1e-10
        # the multiplier of constraint (i, j) is p_i, for every incident j
        for (i, j), s in slot_of.items():
            r = closed[j].index(i)
            assert np.linalg.norm(state.lam[j][r] - nodes[i].p) < 1e-10



@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(3, 8),
    extra_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_matches_w_block_problem_on_random_networks(N, extra_frac, seed):
    # a small world on 3-8 nodes, random edge weights, unequal penalties
    rng = np.random.default_rng(seed)
    g = build_topology("small_world", N, extra_edges=int(extra_frac * N * (N - 3) // 2), seed=seed)
    W = CommunicationMatrix(
        matrix=weighted_laplacian(g, rng.uniform(0.5, 2.0, g.edge_count)), graph=g
    )
    objs = random_objectives(rng, N, n=5, m=3)
    gammas = rng.uniform(0.3, 3.0, N)
    x0 = [rng.standard_normal(5) for _ in range(N)]
    state = dpgaw_init(g, W, objs, gammas, x0)
    prob, slot_of = w_consensus_problem(g, W, objs, gammas)
    y0 = [None] * len(slot_of)
    for (i, j), s in slot_of.items():
        y0[s] = W.matrix[i, j] * x0[j]
    plan = constant_plan(prob, explicit=state.c)
    engine = EngineState.initial(prob, x0, y0=y0)
    closed = [sorted((*g.neighbor_lists[i], i)) for i in range(N)]
    exchange = plain_exchange(g)
    for _ in range(30):
        state, _ = dpgaw_round(state, objs, exchange)
        engine = pgadmm_step(engine, prob, plan)
        assert np.max(np.abs(state.x - np.stack(engine.x))) < 1e-10
        for (i, j) in slot_of:
            assert np.linalg.norm(engine.lam[j][closed[j].index(i)] - state.p[i]) < 1e-10

def test_noiseless_constant_stochastic_round_is_exact():
    g, W, objs, gammas, x0 = quad_setup(seed=4)
    exchange = plain_exchange(g)
    det = dpgaw_init(g, W, objs, gammas, x0)
    sto = dpgaw_init(g, W, objs, gammas, x0)
    oracles = [NoisyOracle.for_node(0.0, 0, i) for i in range(4)]
    for k in range(25):
        det, _ = dpgaw_round(det, objs, exchange)
        sto, _ = sdpgaw_round(sto, objs, oracles, k, exchange, rule="constant")
        for a, b in zip(det, sto):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.s, b.s)


def test_stochastic_round_guards():
    g, W, objs, gammas, x0 = quad_setup(seed=5)
    exchange = plain_exchange(g)
    nodes = dpgaw_init(g, W, objs, gammas, x0, step_mode="diminishing")
    noisy = [NoisyOracle.for_node(0.2, 0, i) for i in range(4)]
    with pytest.raises(ValueError):
        sdpgaw_round(nodes, objs, noisy, 0, exchange, rule="constant")
    with pytest.raises(ValueError):
        sdpgaw_round(nodes, objs, noisy, 0, exchange, rule="horizon")
    sdpgaw_round(nodes, objs, noisy, 0, exchange, horizon=64)


def test_noisy_run_matches_engine_with_shared_streams():
    g, W, objs, gammas, x0 = quad_setup(seed=6)
    exchange = plain_exchange(g)
    nodes = dpgaw_init(g, W, objs, gammas, x0, step_mode="diminishing")
    prob, slot_of = w_consensus_problem(g, W, objs, gammas)
    plan = diminishing_plan(prob)
    assert np.allclose(plan.base, [nd.c for nd in nodes], atol=1e-15)
    y0 = [None] * len(slot_of)
    for (i, j), s in slot_of.items():
        y0[s] = W.matrix[i, j] * np.asarray(x0[j])
    state = EngineState.initial(prob, x0, y0=y0)
    orc_a = [NoisyOracle.for_node(0.3, 21, i) for i in range(4)]
    orc_b = [NoisyOracle.for_node(0.3, 21, i) for i in range(4)]
    for k in range(50):
        nodes, _ = sdpgaw_round(nodes, objs, orc_a, k, exchange)
        state = spgadmm_step(state, prob, plan, orc_b)
        for i, nd in enumerate(nodes):
            assert np.linalg.norm(nd.x - state.x[i]) < 1e-10
