"""Node-based distributed proximal gradient: recursion, steps, penalties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_objective, random_objectives, random_partition
from netprox.dpga import (
    GammaMatrix,
    adaptive_backtrack,
    dpga_init,
    dpga_round,
    dpga_round_adaptive,
    edge_consensus_problem,
    gamma_heuristic,
    gamma_star,
    sdpga_round,
)
from netprox.engine import EngineState, constant_plan, pgadmm_step
from netprox.errors import ProtocolError
from netprox.objective import NodeObjective, NoisyOracle, network
from netprox.simnet import plain_exchange
from netprox.topology import GraphOperator, NetworkState, build_topology
from theory import diminishing_plan, spgadmm_step


def triangle_setup(seed=0, n=6, gammas=(1.0, 2.0, 0.7)):
    rng = np.random.default_rng(seed)
    g = build_topology("clique", 3)
    objs = random_objectives(rng, 3, n=n, m=4)
    x0 = [rng.standard_normal(n) for _ in range(3)]
    return g, objs, np.array(gammas), x0


def test_gamma_matrix_values():
    g = build_topology("star", 2)
    m = GammaMatrix.build(g, np.array([1.0, 2.0])).matrix
    assert np.allclose(m, [[2 / 3, -2 / 3], [-2 / 3, 2 / 3]])


def test_gamma_matrix_properties():
    g = build_topology("small_world", 7, extra_edges=3, seed=1)
    gam = np.linspace(0.5, 2.0, 7)
    m = GammaMatrix.build(g, gam).matrix
    assert np.allclose(m.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(m, m.T)
    # equal penalties reduce to (gamma/2) times the Laplacian
    eq = GammaMatrix.build(g, np.full(7, 1.8)).matrix
    assert np.allclose(eq, 0.9 * g.laplacian())
    with pytest.raises(ValueError):
        GammaMatrix.build(g, np.zeros(7))
    with pytest.raises(ValueError, match="nan"):
        GammaMatrix.build(g, np.full(7, np.nan))


def test_init_validations():
    g, objs, gammas, x0 = triangle_setup()
    with pytest.raises(ValueError):
        dpga_init(g, objs, gammas[:2], x0)
    with pytest.raises(ValueError):
        dpga_init(g, objs, -gammas, x0)
    with pytest.raises(ValueError, match="nan"):
        dpga_init(g, objs, np.full(3, np.nan), x0)
    with pytest.raises(ValueError):
        dpga_init(g, objs, gammas, x0, step_mode="adaptive")
    with pytest.raises(ValueError):
        dpga_init(g, objs, gammas, x0, safety=1.5)


def test_init_states():
    g, objs, gammas, x0 = triangle_setup()
    nodes = dpga_init(g, objs, gammas, x0)
    expect_s = GammaMatrix.build(g, gammas).matrix @ np.stack(x0)
    for i, nd in enumerate(nodes):
        assert nd.c == pytest.approx(0.999 / (objs[i].lipschitz + gammas[i] * 2))
        assert np.allclose(nd.s, expect_s[i], atol=1e-14)
        assert np.all(nd.p == 0)
    # consensus start zeroes the disagreement signal
    same = [np.ones(6)] * 3
    for nd in dpga_init(g, objs, gammas, same):
        assert np.allclose(nd.s, 0.0, atol=1e-14)
    # stochastic base
    for i, nd in enumerate(dpga_init(g, objs, gammas, x0, step_mode="diminishing")):
        assert nd.c == pytest.approx(1.0 / (objs[i].lipschitz + gammas[i] * 2 + 1.0))


def agents(x, s, c, L_running, L_init, degree):
    """A DPGA state with gamma_i = 1 from the agents' rows x and s (one
    agent's vectors for a one-row state) and their scalars."""
    x, s = np.atleast_2d(x, s)
    N = len(x)
    return NetworkState(
        dict(
            x=x, s=s, p=np.zeros_like(x), c=np.full(N, c), gamma=np.ones(N),
            L_running=np.full(N, L_running), L_init=np.full(N, L_init),
            degree=np.full(N, degree),
        )
    )


def backtrack_node(obj, node):
    """The doubling search for one agent, written node by node: (x_new, L_new, c_new, l)."""
    grad, f0 = obj.f_grad(node.x), obj.f_value(node.x)
    gd = node.gamma * node.degree
    for l in range(61):
        L = node.L_running * 2.0 ** (l - 1)
        c = 1.0 / (L + gd)
        x_t = obj.prox(node.x - c * (grad + node.p + node.s), c)
        dx = x_t - node.x
        if obj.f_value(x_t) <= f0 + grad @ dx + 0.5 * L * (dx @ dx):
            return x_t, L, c, l


def test_protocol_error_on_wrong_inbox():
    g, objs, gammas, x0 = triangle_setup()
    nodes = dpga_init(g, objs, gammas, x0)
    # a delivery that drops a node's message
    with pytest.raises(ProtocolError):
        dpga_round(nodes, objs, lambda payload: payload[:2])
    # Gamma carries the locality guarantee: no weight off the graph
    with pytest.raises(ValueError, match="zero off the graph"):
        GraphOperator(np.ones((3, 3)), build_topology("star", 3))


def test_isolated_node_is_proximal_gradient():
    rng = np.random.default_rng(3)
    obj = random_objective(rng, n=8, m=5)
    x0 = rng.standard_normal(8)
    c = 0.999 / obj.lipschitz
    g = build_topology("star", 2)
    # zero coupling weights: each agent runs plain proximal gradient
    state = NetworkState(
        dict(x=np.stack([x0, x0]), s=np.zeros((2, 8)), p=np.zeros((2, 8)), c=np.full(2, c)),
        {"gamma": GraphOperator(np.zeros((2, 2)), g)},
    )
    x_ref = x0.copy()
    for _ in range(40):
        state, _ = dpga_round(state, [obj, obj], plain_exchange(g))
        x_ref = obj.prox(x_ref - c * obj.f_grad(x_ref), c)
        assert np.array_equal(state[0].x, x_ref)


def test_matches_edge_variable_block_problem():
    g, objs, gammas, x0 = triangle_setup(seed=4)
    exchange = plain_exchange(g)
    nodes = dpga_init(g, objs, gammas, x0)
    prob, slot_of = edge_consensus_problem(g, objs, gammas)
    assert [prob.slot_weights[slot_of[e]] for e in g.edges] == [
        pytest.approx(gammas[i] + gammas[j]) for i, j in g.edges
    ]
    plan = constant_plan(prob, explicit=np.array([nd.c for nd in nodes]))
    state = EngineState.initial(prob, x0)
    # default y0 is the penalty-weighted midpoint of each edge
    for (i, j), e in slot_of.items():
        mid = (gammas[i] * x0[i] + gammas[j] * x0[j]) / (gammas[i] + gammas[j])
        assert np.allclose(state.y[e], mid, atol=1e-14)

    chunk_pos = {}
    for i in range(g.node_count):
        for r, ch in enumerate(prob.blocks[i].chunks):
            chunk_pos[(i, ch.slot)] = r

    for _ in range(60):
        nodes, _ = dpga_round(nodes, objs, exchange)
        state = pgadmm_step(state, prob, plan)
        for i, nd in enumerate(nodes):
            assert np.linalg.norm(nd.x - state.x[i]) < 1e-10
            # p_i carries the summed multipliers of the incident constraints
            lam_sum = sum(state.lam[i])
            assert np.linalg.norm(nd.p - lam_sum) < 1e-10
        for (i, j), e in slot_of.items():
            a = state.lam[i][chunk_pos[(i, e)]]
            b = state.lam[j][chunk_pos[(j, e)]]
            assert np.linalg.norm(a + b) < 1e-10
            mid = (gammas[i] * state.x[i] + gammas[j] * state.x[j]) / (
                gammas[i] + gammas[j]
            )
            assert np.linalg.norm(state.y[e] - mid) < 1e-10



@st.composite
def random_networks(draw):
    """A small world on 3-8 nodes with random extra edges, unequal
    penalties and a random start."""
    N = draw(st.integers(3, 8))
    extra = draw(st.integers(0, N * (N - 3) // 2))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    g = build_topology("small_world", N, extra_edges=extra, seed=seed)
    objs = random_objectives(rng, N, n=5, m=3)
    return g, objs, rng.uniform(0.3, 3.0, N), [rng.standard_normal(5) for _ in range(N)]


@settings(max_examples=25, deadline=None)
@given(random_networks())
def test_matches_edge_variable_block_problem_on_random_networks(net):
    g, objs, gammas, x0 = net
    state = dpga_init(g, objs, gammas, x0)
    prob, _ = edge_consensus_problem(g, objs, gammas)
    plan = constant_plan(prob, explicit=state.c)
    engine = EngineState.initial(prob, x0)
    exchange = plain_exchange(g)
    for _ in range(30):
        state, _ = dpga_round(state, objs, exchange)
        engine = pgadmm_step(engine, prob, plan)
        for i in range(g.node_count):
            assert np.linalg.norm(state.x[i] - engine.x[i]) < 1e-10
            assert np.linalg.norm(state.p[i] - sum(engine.lam[i])) < 1e-10

def test_noiseless_constant_stochastic_round_is_exact():
    g, objs, gammas, x0 = triangle_setup(seed=5)
    exchange = plain_exchange(g)
    det = dpga_init(g, objs, gammas, x0)
    sto = dpga_init(g, objs, gammas, x0)
    oracles = [NoisyOracle.for_node(0.0, 0, i) for i in range(3)]
    for k in range(25):
        det, _ = dpga_round(det, objs, exchange)
        sto, _ = sdpga_round(sto, objs, oracles, k, exchange, rule="constant")
        for a, b in zip(det, sto):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.p, b.p)


def test_stochastic_round_guards():
    g, objs, gammas, x0 = triangle_setup(seed=6)
    exchange = plain_exchange(g)
    nodes = dpga_init(g, objs, gammas, x0, step_mode="diminishing")
    noisy = [NoisyOracle.for_node(0.3, 0, i) for i in range(3)]
    with pytest.raises(ValueError):
        sdpga_round(nodes, objs, noisy, 0, exchange, rule="constant")
    with pytest.raises(ValueError):
        sdpga_round(nodes, objs, noisy, 0, exchange, rule="horizon")
    sdpga_round(nodes, objs, noisy, 0, exchange, horizon=100)


def test_stochastic_run_matches_engine_with_shared_noise():
    g, objs, gammas, x0 = triangle_setup(seed=7)
    exchange = plain_exchange(g)
    nodes = dpga_init(g, objs, gammas, x0, step_mode="diminishing")
    prob, _ = edge_consensus_problem(g, objs, gammas)
    plan = diminishing_plan(prob)
    assert np.allclose(plan.base, [nd.c for nd in nodes], atol=1e-15)
    state = EngineState.initial(prob, x0)
    sigma = 0.4
    orc_a = [NoisyOracle.for_node(sigma, 11, i) for i in range(3)]
    orc_b = [NoisyOracle.for_node(sigma, 11, i) for i in range(3)]
    for k in range(50):
        nodes, _ = sdpga_round(nodes, objs, orc_a, k, exchange)
        state = spgadmm_step(state, prob, plan, orc_b)
        for i, nd in enumerate(nodes):
            assert np.linalg.norm(nd.x - state.x[i]) < 1e-10


def test_horizon_rule_freezes_the_step():
    g, objs, gammas, x0 = triangle_setup(seed=8)
    exchange = plain_exchange(g)
    nodes = dpga_init(g, objs, gammas, x0, step_mode="horizon")
    oracles = [NoisyOracle.for_node(0.0, 0, i) for i in range(3)]
    ref = dpga_init(g, objs, gammas, x0, step_mode="horizon")
    expected = {
        nd.node_id: objs[nd.node_id].prox(
            nd.x
            - 1.0 / (1.0 / nd.c + np.sqrt(49)) * (objs[nd.node_id].f_grad(nd.x) + nd.p + nd.s),
            1.0 / (1.0 / nd.c + np.sqrt(49)),
        )
        for nd in ref
    }
    nodes, props = sdpga_round(nodes, objs, oracles, 7, exchange, horizon=49)
    for i in range(3):
        assert np.array_equal(props[i], expected[i])


def test_adaptive_backtrack_properties():
    rng = np.random.default_rng(9)
    obj = random_objective(rng, n=6, m=4)
    L = obj.lipschitz
    x0 = rng.standard_normal(6)
    state = agents(x0, rng.standard_normal(6) * 0.1, 1.0 / (L + 2.0), L / 16.0, L, degree=2)
    node = state[0]
    (x_new,), (L_new,), (c_new,) = adaptive_backtrack(state, network([obj]))
    assert L_new <= 2.0 * L * (1 + 1e-12)
    assert c_new == pytest.approx(1.0 / (L_new + node.gamma * node.degree))
    grad = obj.f_grad(x0)
    dx = x_new - x0
    assert obj.f_value(x_new) <= obj.f_value(x0) + grad @ dx + 0.5 * L_new * (dx @ dx) + 1e-12
    # L_new is the first grid point that passes; every smaller one fails
    drive = grad + node.p + node.s
    l_acc = round(np.log2(L_new / node.L_running)) + 1
    for l in range(l_acc):
        L_c = node.L_running * 2.0 ** (l - 1)
        c_c = 1.0 / (L_c + node.gamma * node.degree)
        x_t = obj.prox(x0 - c_c * drive, c_c)
        dt = x_t - x0
        assert obj.f_value(x_t) > obj.f_value(x0) + grad @ dt + 0.5 * L_c * (dt @ dt)


def test_adaptive_backtrack_flags_understated_curvature():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((5, 5))
    true_L = float(np.linalg.norm(A, 2) ** 2)
    obj = NodeObjective(
        A=A, b=np.zeros(5), delta=1e6, beta1=0.0, beta2=0.0,
        partition=random_partition(rng, 5, 2), lipschitz=true_L / 1000.0,
    )
    x0 = rng.standard_normal(5) * 10
    state = agents(x0, np.zeros(5), 1.0, true_L / 1000.0, true_L / 1000.0, degree=1)
    with pytest.raises(RuntimeError):
        adaptive_backtrack(state, network([obj]))


def test_rows_accept_at_their_own_doubling():
    rng = np.random.default_rng(12)
    objs = random_objectives(rng, 2, n=6, m=4)
    L = np.array([o.lipschitz for o in objs])
    X = rng.standard_normal((2, 6))
    # row 1 starts from an understated L and needs more doublings than row 0
    state = agents(X, rng.standard_normal((2, 6)) * 0.1, 1.0, L * [1.0, 1 / 64], L, degree=[2, 1])
    net = network(objs)
    assert net.A is not None
    X_new, L_new, c_new = adaptive_backtrack(state, net)
    per_node = [backtrack_node(o, nd) for o, nd in zip(objs, state)]
    assert per_node[0][3] != per_node[1][3]
    for i, (x, L_i, c_i, _) in enumerate(per_node):
        assert np.array_equal(X_new[i], x)
        assert L_new[i] == L_i and c_new[i] == c_i
    # a row that never passes the descent check is named when the cap is hit
    stuck = state.evolve(L_running=np.array([L[0], 1e-300]))
    with pytest.raises(RuntimeError, match="60 doublings at node 1"):
        adaptive_backtrack(stuck, net)


def test_adaptive_round_tracks_accepted_steps():
    g, objs, gammas, x0 = triangle_setup(seed=11)
    exchange = plain_exchange(g)
    nodes = dpga_init(g, objs, gammas, x0)
    nodes = nodes.evolve(L_running=nodes.L_init / 16)
    for _ in range(30):
        nodes, _ = dpga_round_adaptive(nodes, objs, exchange)
    for nd, obj in zip(nodes, objs):
        assert nd.L_running <= 2.0 * obj.lipschitz * (1 + 1e-12)
        assert nd.c == pytest.approx(1.0 / (nd.L_running + nd.gamma * nd.degree))


def test_gamma_heuristic_values():
    assert gamma_heuristic(build_topology("star", 5)) == pytest.approx(
        np.sqrt(3.25)
    )
    assert gamma_heuristic(build_topology("circle", 4)) == pytest.approx(
        np.sqrt(1.3)
    )
    assert gamma_heuristic(build_topology("clique", 4), c_factor=6.0) == pytest.approx(
        np.sqrt(6.0 * 4 / (6 * 3))
    )
    with pytest.raises(ValueError):
        gamma_heuristic(build_topology("star", 5), c_factor=0.0)
    for bad in ("nan", "inf"):  # an inf c_factor gives an inf gamma
        with pytest.raises(ValueError, match=f"c_factor must be finite and positive, got {bad}"):
            gamma_heuristic(build_topology("star", 5), c_factor=float(bad))


def test_gamma_star_values():
    val = gamma_star(np.array([1.0, 2.0]), 2.0, 3, 2.0)
    assert val == pytest.approx(np.sqrt(3.5 / 3.0))
    with pytest.raises(ValueError):
        gamma_star(np.array([1.0]), 1.0, 1, 0.0)
    with pytest.raises(ValueError, match="dist0 must be finite and positive, got nan"):
        gamma_star(np.array([1.0]), 1.0, 1, float("nan"))
