"""Node objectives: values, gradients, the two-stage prox, noise oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_objective, random_partition
from netprox.bench import ProblemSpec, generate_problem
from netprox.objective import (
    GroupPartition,
    NodeObjective,
    NoisyOracle,
    group_norm,
    huber,
    network,
    objective_from_text,
    objective_to_text,
    oracle_grad,
    power_iteration_sq_norm,
    prox_sparse_group,
)
from netprox.reference import prox_bruteforce


def huber_grad(y, delta):
    """The Huber gradient at y: f_grad of the node objective with A = I, b = 0."""
    n = y.size
    identity = NodeObjective(
        A=np.eye(n), b=np.zeros(n), delta=delta, beta1=0.0, beta2=0.0,
        partition=GroupPartition(groups=(np.arange(n),)),
    )
    return identity.f_grad(y)


def test_huber_frozen_values():
    y = np.array([0.5, -2.0, 1.0])
    assert huber(y, 1.0) == pytest.approx(0.125 + 1.5 + 0.5)
    assert np.allclose(huber_grad(y, 1.0), [0.5, -1.0, 1.0])
    y2 = np.array([1.0, -3.0])
    assert huber(y2, 2.0) == pytest.approx(0.5 + (2 * 3 - 2.0))
    assert np.allclose(huber_grad(y2, 2.0), [1.0, -2.0])


def test_huber_rejects_bad_inputs():
    with pytest.raises(ValueError):
        huber(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        huber(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        huber_grad(np.array([np.nan]), 1.0)


def test_huber_gradient_is_1_lipschitz():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        ga, gb = huber_grad(a, 0.7), huber_grad(b, 0.7)
        assert np.linalg.norm(ga - gb) <= np.linalg.norm(a - b) + 1e-12


def test_partition_validation():
    with pytest.raises(ValueError):
        GroupPartition(groups=())
    with pytest.raises(ValueError):
        GroupPartition(groups=(np.array([0, 1]), np.array([1, 2])))  # overlap
    with pytest.raises(ValueError):
        GroupPartition(groups=(np.array([0, 2]),))  # gap
    p = GroupPartition(groups=(np.array([2, 0]), np.array([1])))
    assert p.n == 3 and p.K == 2


def test_prox_frozen_hand_value():
    # soft-threshold at 0.3 then shrink groups at 0.4:
    # [1,-0.2,0.5] -> [0.7,0,0.2]; group {0,1} scales by 3/7, group {2} zeroes
    part = GroupPartition(groups=(np.array([0, 1]), np.array([2])))
    out = prox_sparse_group(np.array([1.0, -0.2, 0.5]), 1.0, 0.3, 0.4, part)
    assert np.allclose(out, [0.3, 0.0, 0.0], atol=1e-15)


def test_prox_zero_weights_is_identity():
    part = GroupPartition(groups=(np.array([0, 1, 2]),))
    v = np.array([0.3, -1.2, 0.0])
    assert np.allclose(prox_sparse_group(v, 2.0, 0.0, 0.0, part), v)


def test_prox_rejects_bad_step():
    part = GroupPartition(groups=(np.array([0]),))
    with pytest.raises(ValueError):
        prox_sparse_group(np.array([1.0]), 0.0, 0.1, 0.1, part)
    with pytest.raises(ValueError):
        prox_sparse_group(np.array([1.0]), 1.0, -0.1, 0.1, part)


def test_prox_agrees_with_dual_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        K = int(rng.integers(1, min(5, n) + 1))
        part = random_partition(rng, n, K)
        v = 3.0 * rng.standard_normal(n)
        t = float(rng.uniform(0.1, 2.0))
        b1 = float(rng.uniform(0.0, 0.8))
        b2 = float(rng.uniform(0.0, 0.8))
        closed = prox_sparse_group(v, t, b1, b2, part)
        brute = prox_bruteforce(v, t, b1, b2, part, tol=1e-13)
        assert np.linalg.norm(closed - brute) < 1e-6


def test_prox_minimizes_its_objective():
    rng = np.random.default_rng(5)
    part = random_partition(rng, 10, 3)
    v = rng.standard_normal(10)
    t, b1, b2 = 0.7, 0.25, 0.4

    def crit(z):
        return (
            b1 * np.sum(np.abs(z))
            + b2 * group_norm(z, part)
            + float(np.sum((z - v) ** 2)) / (2 * t)
        )

    z_star = prox_sparse_group(v, t, b1, b2, part)
    base = crit(z_star)
    for _ in range(200):
        assert base <= crit(z_star + 0.1 * rng.standard_normal(10)) + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prox_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    part = random_partition(rng, 8, 2)
    a, b = rng.standard_normal(8), rng.standard_normal(8)
    pa = prox_sparse_group(a, 0.9, 0.3, 0.5, part)
    pb = prox_sparse_group(b, 0.9, 0.3, 0.5, part)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(3)
    for shape in ((5, 9), (9, 5), (7, 7)):
        A = rng.standard_normal(shape)
        assert power_iteration_sq_norm(A) == pytest.approx(
            np.linalg.norm(A, 2) ** 2, rel=1e-8
        )
    assert power_iteration_sq_norm(np.zeros((3, 4))) == 0.0


def test_objective_lipschitz_autofill():
    rng = np.random.default_rng(9)
    obj = random_objective(rng)
    assert obj.lipschitz == pytest.approx(np.linalg.norm(obj.A, 2) ** 2, rel=1e-8)


def test_objective_shape_validation():
    part = GroupPartition(groups=(np.array([0, 1]),))
    with pytest.raises(ValueError):
        NodeObjective(
            A=np.ones((2, 3)), b=np.zeros(2), delta=1.0, beta1=0.1, beta2=0.1,
            partition=part,
        )
    with pytest.raises(ValueError):
        NodeObjective(
            A=np.ones((2, 2)), b=np.zeros(3), delta=1.0, beta1=0.1, beta2=0.1,
            partition=part,
        )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    obj = random_objective(rng, n=10, m=5)
    h = 1e-6
    checked = 0
    while checked < 20:
        x = rng.standard_normal(10)
        margin = np.abs(np.abs(obj.A @ x - obj.b) - obj.delta)
        if margin.min() < 50 * h * np.linalg.norm(obj.A, 2):
            continue  # too close to a kink for a clean central difference
        g = obj.f_grad(x)
        fd = np.empty(10)
        for j in range(10):
            e = np.zeros(10)
            e[j] = h
            fd[j] = (obj.f_value(x + e) - obj.f_value(x - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
        checked += 1


def test_oracle_moments():
    rng = np.random.default_rng(7)
    obj = random_objective(rng, n=16)
    x = rng.standard_normal(16)
    exact = obj.f_grad(x)
    orc = NoisyOracle.for_node(0.1, seed=123, node=0)
    draws = np.stack([oracle_grad(obj, orc, x) - exact for _ in range(20000)])
    # per-coordinate variance sigma^2 / n, total second moment sigma^2
    assert abs(float(np.mean(draws))) < 5e-4
    assert float(np.mean(np.sum(draws**2, axis=1))) == pytest.approx(0.01, rel=0.05)


def test_noiseless_oracle_is_exact_and_stream_silent():
    rng = np.random.default_rng(7)
    obj = random_objective(rng)
    x = rng.standard_normal(obj.n)
    orc = NoisyOracle.for_node(0.0, seed=5, node=2)
    state_before = orc.rng.bit_generator.state
    g = oracle_grad(obj, orc, x)
    assert np.array_equal(g, obj.f_grad(x))
    assert orc.rng.bit_generator.state == state_before


def test_oracle_streams_keyed_by_node():
    a = NoisyOracle.for_node(0.2, seed=9, node=0)
    b = NoisyOracle.for_node(0.2, seed=9, node=1)
    assert a.rng.standard_normal(4).tolist() != b.rng.standard_normal(4).tolist()
    with pytest.raises(ValueError):
        NoisyOracle.for_node(-0.1, seed=0, node=0)


def test_objective_text_roundtrip():
    rng = np.random.default_rng(31)
    obj = random_objective(rng, n=7, m=4, K=3)
    again = objective_from_text(objective_to_text(obj))
    assert np.array_equal(again.A, obj.A)
    assert np.array_equal(again.b, obj.b)
    assert again.delta == obj.delta
    assert again.beta1 == obj.beta1 and again.beta2 == obj.beta2
    assert all(
        np.array_equal(a, b)
        for a, b in zip(again.partition.groups, obj.partition.groups)
    )


def test_objective_text_rejects_garbage():
    with pytest.raises(ValueError):
        objective_from_text("m=2 n=2\nnot-a-number\n")


def loop_prox(o, v, t):
    """The sparse-group prox as a loop over groups with one np.linalg.norm
    each: the bit-level reference for the gather kernels."""
    eta = np.sign(v) * np.maximum(np.abs(v) - t * o.beta1, 0.0)
    out = np.zeros_like(eta)
    for g in o.partition.groups:
        ng = np.linalg.norm(eta[g])
        if ng > t * o.beta2:
            out[g] = eta[g] * (1.0 - t * o.beta2 / ng)
    return out


def loop_phi(o, x):
    groups = float(sum(np.linalg.norm(x[g]) for g in o.partition.groups))
    return o.beta1 * float(np.sum(np.abs(x))) + o.beta2 * groups + o.f_value(x)


def per_node(objs, X, V, steps):
    """Node-by-node gradients, proxes and F, from the NodeObjective methods
    and from the loop references; both must agree before either is used."""
    grads = np.stack([o.f_grad(x) for o, x in zip(objs, X)])
    proxes = np.stack([o.prox(v, c) for o, v, c in zip(objs, V, steps.tolist())])
    loops = np.stack([loop_prox(o, v, c) for o, v, c in zip(objs, V, steps.tolist())])
    F = float(sum(o.phi(x) for o, x in zip(objs, X)))
    F_loop = float(sum(loop_phi(o, x) for o, x in zip(objs, X)))
    return grads, (proxes, loops), (F, F_loop)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([1, 2, 5]))
@settings(max_examples=30, deadline=None)
def test_network_objective_is_bit_identical_on_equal_groups(seed, case, N):
    rng = np.random.default_rng(seed)
    K = int(rng.choice([2, 5, 10]))
    spec = ProblemSpec(case=case, N=N, n_g=2 * N * int(rng.integers(1, 3)), seed=seed % 1000, K=K)
    objs = generate_problem(spec).objectives
    net = network(objs)
    assert net.A is not None and network(net) is net
    X = 2.0 * rng.standard_normal((N, spec.n))
    V = 2.0 * rng.standard_normal((N, spec.n))
    steps = rng.uniform(0.1, 8.0, N)
    grads, proxes, Fs = per_node(objs, X, V, steps)
    assert np.array_equal(net.f_grad(X), grads)
    for reference in proxes:
        assert np.array_equal(net.prox(V, steps), reference)
    assert net.phi(X) == Fs[0] == Fs[1]


@pytest.mark.parametrize("case", [1, 2])
def test_network_f_grad_is_the_node_gradient_and_rejects_non_finite_residuals(case):
    objs = generate_problem(ProblemSpec(case=case, N=5, n_g=10, seed=4)).objectives
    net = network(objs)
    rng = np.random.default_rng(case)
    # rows from well inside to far outside the Huber threshold
    X = rng.standard_normal((5, objs[0].n)) * np.array([[1e-3], [0.1], [1.0], [10.0], [1e3]])
    residuals = np.concatenate([o.A @ x - o.b for o, x in zip(objs, X)])
    assert (np.abs(residuals) < objs[0].delta).any() and (np.abs(residuals) > objs[0].delta).any()
    assert np.array_equal(net.f_grad(X), np.stack([o.f_grad(x) for o, x in zip(objs, X)]))
    for bad in (np.nan, np.inf):
        X[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            net.f_grad(X)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_network_objective_matches_nodes_on_ragged_groups(seed):
    rng = np.random.default_rng(seed)
    N, n, m = int(rng.integers(1, 6)), int(rng.integers(3, 16)), int(rng.integers(1, 6))
    objs = []
    for _ in range(N):  # a K of its own per node, most of them ragged
        A = rng.standard_normal((m, n))
        objs.append(
            NodeObjective(
                A=A, b=A @ rng.standard_normal(n), delta=float(rng.uniform(0.2, 2.0)),
                beta1=float(rng.uniform(0.0, 0.5)),
                beta2=float(rng.choice([0.0, rng.uniform(0.0, 1.5)])),
                partition=random_partition(rng, n, int(rng.integers(1, n + 1))),
            )
        )
    net = network(objs)
    assert net.A is not None
    X = rng.standard_normal((N, n))
    V = rng.standard_normal((N, n)) * rng.choice([0.1, 1.0, 5.0], size=(N, 1))
    steps = rng.uniform(0.1, 3.0, N)  # large steps zero whole groups
    grads, proxes, Fs = per_node(objs, X, V, steps)
    assert np.max(np.abs(net.f_grad(X) - grads), initial=0.0) <= 1e-12
    for reference in proxes:
        assert np.max(np.abs(net.prox(V, steps) - reference), initial=0.0) <= 1e-12
    for F in Fs:
        assert net.phi(X) == pytest.approx(F, rel=1e-12, abs=1e-12)


def test_stacked_oracle_draws_the_per_node_streams():
    rng = np.random.default_rng(17)
    objs = generate_problem(ProblemSpec(case=2, N=4, n_g=8, seed=3, K=4)).objectives
    X = rng.standard_normal((4, objs[0].n))
    sigmas = (0.3, 0.0, 0.1, 0.0)

    def oracles():
        return [NoisyOracle.for_node(s, seed=11, node=i) for i, s in enumerate(sigmas)]

    stacked_orcs, node_orcs = oracles(), oracles()
    silent = [o.rng.bit_generator.state for o in stacked_orcs]
    for _ in range(3):  # one draw per node per call, in node order
        stacked = oracle_grad(network(objs), stacked_orcs, X)
        rows = [oracle_grad(o, orc, x) for o, orc, x in zip(objs, node_orcs, X)]
        assert np.array_equal(stacked, np.stack(rows))
    for orc, before, s in zip(stacked_orcs, silent, sigmas):
        assert (orc.rng.bit_generator.state == before) == (s == 0.0)
