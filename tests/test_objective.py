"""Node objectives: values, gradients, the two-stage prox, noise oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_objective, random_partition
from netprox import dpga, dpga_w
from netprox.bench import ProblemSpec, generate_problem
from netprox.objective import (
    GroupPartition,
    NodeObjective,
    NOISE_BLOCK,
    NoisyOracle,
    POWER_MAX_ITER,
    POWER_TOL,
    _group_norm_sums,
    group_norm,
    huber,
    network,
    objective_to_text,
    oracle_grad,
    power_iteration_sq_norm,
    prox_sparse_group,
)
from netprox.reference import prox_bruteforce
from netprox.simnet import NOISY_ALGORITHMS, RoundSchedule, run_synchronous
from netprox.topology import build_topology


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
    with pytest.raises(ValueError, match="delta must be finite and positive, got nan"):
        huber(np.array([1.0]), float("nan"))
    with pytest.raises(ValueError):
        huber(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        huber_grad(np.array([np.nan]), 1.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_huber_checks_a_delta_column_as_it_checks_a_scalar(bad):
    # rows y (N, m) with a per-row delta column: one bad entry fails the call
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        huber(np.ones((2, 3)), np.array([[1.0], [bad]]))
    with pytest.raises(ValueError, match="delta must be finite and positive"):
        huber(np.ones(3), bad)
    assert huber(np.ones((2, 3)), np.array([[1.0], [0.5]])).tolist() == [1.5, 1.5 - 3 * 0.125]


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
    nan = float("nan")
    for t, beta1, beta2 in ((nan, 0.1, 0.1), (1.0, nan, 0.1), (1.0, 0.1, nan)):
        with pytest.raises(ValueError, match="nan"):
            prox_sparse_group(np.array([1.0]), t, beta1, beta2, part)


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


def _one_matrix_power_iteration(A):
    """sigma_max(A)^2 by the loop over one matrix that the stacked iteration
    replaced, and the step that loop stopped on."""
    n = A.shape[1]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for step in range(POWER_MAX_ITER):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, step
        v_new = w / norm
        lam_new = float(v_new @ (A.T @ (A @ v_new)))
        if abs(lam_new - lam) <= POWER_TOL * max(lam_new, 1.0):
            return lam_new, step
        lam, v = lam_new, v_new
    return lam, POWER_MAX_ITER


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("N", [5, 50])
def test_power_iteration_on_a_stack_matches_the_one_matrix_loop(case, N):
    # step sizes and iterates depend on every L_i, so the stack must give the
    # one-matrix loop's value bit for bit
    problem = generate_problem(ProblemSpec(case=case, N=N, n_g=20, seed=N))
    S = np.stack([o.A for o in problem.objectives])
    S[1] = 0.0
    loop = [_one_matrix_power_iteration(A) for A in S]
    assert loop[1] == (0.0, 0)
    assert len({step for _, step in loop}) > 2  # the slices leave the batch on different steps
    expected = np.array([value for value, _ in loop])
    assert power_iteration_sq_norm(S).tobytes() == expected.tobytes()
    assert [power_iteration_sq_norm(A) for A in S[:4]] == expected[:4].tolist()


def test_power_iteration_restarts_a_nonzero_matrix_whose_start_it_annihilates():
    # ones(n) is in the null space of A^T A when every row of A sums to zero
    diff = np.array([[1.0, -1.0]])
    assert _one_matrix_power_iteration(diff) == (0.0, 0)
    assert power_iteration_sq_norm(diff) == pytest.approx(2.0, rel=1e-12)
    rng = np.random.default_rng(8)
    centred = rng.standard_normal((4, 6))
    centred -= centred.mean(axis=1, keepdims=True)
    assert power_iteration_sq_norm(centred) == pytest.approx(
        np.linalg.norm(centred, 2) ** 2, rel=1e-8
    )


def test_power_iteration_restart_leaves_the_other_slices_alone():
    generic = np.array([[0.3, 2.0]])
    S = np.stack([np.array([[1.0, -1.0]]), generic, np.zeros((1, 2))])
    values = power_iteration_sq_norm(S)
    assert values[0] == pytest.approx(2.0, rel=1e-12)
    assert values[1] == power_iteration_sq_norm(generic) == _one_matrix_power_iteration(generic)[0]
    assert values[2] == 0.0


@pytest.mark.parametrize("case", [1, 2])
def test_generated_lipschitz_constants_are_the_node_objectives_own(case):
    for o in generate_problem(ProblemSpec(case=case, N=10, n_g=20, seed=1)).objectives:
        own = NodeObjective(
            A=o.A, b=o.b, delta=o.delta, beta1=o.beta1, beta2=o.beta2, partition=o.partition
        )
        assert own.lipschitz == o.lipschitz


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
    nan = float("nan")
    for weights in (dict(delta=nan), dict(beta1=nan), dict(beta2=nan)):
        with pytest.raises(ValueError, match="nan"):
            NodeObjective(
                A=np.ones((2, 2)), b=np.zeros(2), partition=part,
                **{"delta": 1.0, "beta1": 0.1, "beta2": 0.1, **weights},
            )
    # a supplied L_i is checked, not stored as given for the rounds to diverge on
    for L in (nan, float("inf")):
        with pytest.raises(ValueError, match=f"lipschitz must be finite and nonnegative, got {L}"):
            NodeObjective(
                A=np.ones((2, 2)), b=np.zeros(2), delta=1.0, beta1=0.1, beta2=0.1,
                partition=part, lipschitz=L,
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
    state_before = orc.rngs[0].bit_generator.state
    g = oracle_grad(obj, orc, x)
    assert np.array_equal(g, obj.f_grad(x))
    assert orc.rngs[0].bit_generator.state == state_before


def test_oracle_streams_keyed_by_node():
    a = NoisyOracle.for_node(0.2, seed=9, node=0)
    b = NoisyOracle.for_node(0.2, seed=9, node=1)
    assert a.rngs[0].standard_normal(4).tolist() != b.rngs[0].standard_normal(4).tolist()
    with pytest.raises(ValueError):
        NoisyOracle.for_node(-0.1, seed=0, node=0)


def test_objective_text_roundtrip():
    # every float is written as its repr, so the text reads back bit for bit
    rng = np.random.default_rng(31)
    obj = random_objective(rng, n=7, m=4, K=3, delta=0.7, beta1=0.1, beta2=1 / 3)
    lines = objective_to_text(obj).splitlines()
    assert lines[:5] == ["m=4 n=7", "delta=0.7", "beta1=0.1", "beta2=0.3333333333333333", "K=3"]
    for line, g in zip(lines[5:8], obj.partition.groups):  # 1-based groups
        assert line.split() == ["group"] + [str(k + 1) for k in g]
    assert lines[8:] == [" ".join(repr(float(v)) for v in row) for row in (*obj.A, obj.b)]
    assert np.array([line.split() for line in lines[8:12]], dtype=float).tobytes() == obj.A.tobytes()
    assert np.array(lines[12].split(), dtype=float).tobytes() == obj.b.tobytes()


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


def uneven_partition(rng, n, K):
    """K groups of random, mostly unequal sizes over a shuffled 0..n-1."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=K - 1, replace=False))
    return GroupPartition(groups=tuple(np.split(rng.permutation(n), cuts)))


def ragged_network(rng, N, n):
    """N nodes on n coordinates, each with its own K and uneven groups."""
    objs = []
    for _ in range(N):
        A = rng.standard_normal((2, n))
        objs.append(
            NodeObjective(
                A=A, b=A @ rng.standard_normal(n), delta=1.0,
                beta1=float(rng.uniform(0.0, 0.5)),
                beta2=float(rng.choice([0.0, rng.uniform(0.0, 1.5)])),
                partition=uneven_partition(rng, n, int(rng.integers(1, n + 1))),
            )
        )
    return network(objs)


def padded_scatter_prox(V, t, beta1, beta2, index):
    """The sparse-group prox through a zero array: soft threshold, gather the
    groups out of the sentinel-padded flat rows, scale them, and scatter them
    back. The owner-map kernel must reproduce it byte for byte."""
    eta = np.sign(V) * np.maximum(np.abs(V) - t * beta1, 0.0)
    flat = np.concatenate((eta, np.zeros((len(eta), 1))), axis=-1).ravel()
    E = flat[index]
    norms = np.sqrt((E[..., None, :] @ E[..., :, None])[..., 0, 0])
    thresh = t * beta2
    keep = norms > thresh
    scale = np.where(keep, 1.0 - thresh / np.where(keep, norms, 1.0), 0.0)
    out = np.zeros_like(flat)
    out[index] = E * scale[..., None]
    return out.reshape(len(eta), -1)[:, :-1].copy()


def padded_rows_index(net):
    """The stacked group index in padded_scatter_prox's layout, built from each
    node's own partition index: node i's row starts at (n + 1) i and ends in
    its own zero sentinel, which its short and missing groups point at."""
    n = net[0].n
    K = max(o.partition.K for o in net)
    g = max(o.partition.index.shape[1] for o in net)
    index = np.full((len(net), K, g), n)
    for rows, o in zip(index, net):
        rows[: o.partition.K, : o.partition.index.shape[1]] = o.partition.index
    return index + (n + 1) * np.arange(len(net))[:, None, None]


def test_prox_keeps_the_sign_product_on_signed_zeros():
    # sign(-0.0) is +0.0, so -0.0 maps to +0.0; a thresholded -0.1 to -0.0
    # (copysign would return -0.0 for the first entry too)
    part = GroupPartition(groups=(np.array([0, 1, 2, 3]),))
    out = prox_sparse_group(np.array([-0.0, 0.0, -0.1, 0.1]), 1.0, 0.5, 0.0, part)
    assert np.signbit(out).tolist() == [False, False, True, False]
    assert out.tobytes() == padded_scatter_prox(
        np.array([[-0.0, 0.0, -0.1, 0.1]]), 1.0, 0.5, 0.0, part.index[None]
    )[0].tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_owner_map_prox_is_byte_identical_to_the_padded_scatter(seed):
    rng = np.random.default_rng(seed)
    N, n = int(rng.integers(1, 7)), int(rng.integers(2, 24))
    net = ragged_network(rng, N, n)
    V = rng.standard_normal((N, n)) * rng.choice([0.1, 1.0, 5.0], size=(N, 1))
    V[rng.random((N, n)) < 0.2] = 0.0
    V[rng.random((N, n)) < 0.2] = -0.0
    steps = rng.uniform(0.1, 3.0, N)
    steps[0] = 1e3  # zeroes node 0's groups (unless both weights are 0)
    expect = padded_scatter_prox(V, steps[:, None], net.beta1, net.beta2, padded_rows_index(net))
    assert net.prox(V, steps).tobytes() == expect.tobytes()
    for o, v, c in zip(net, V, steps.tolist()):
        one = padded_scatter_prox(v[None], c, o.beta1, o.beta2, o.partition.index[None])[0]
        assert prox_sparse_group(v, c, o.beta1, o.beta2, o.partition).tobytes() == one.tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_owners_send_every_coordinate_to_the_group_that_holds_it(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    part = uneven_partition(rng, n, int(rng.integers(1, n + 1)))
    assert part.owners.shape == (n,)
    for k, g in enumerate(part.groups):
        assert (part.owners[g] == k).all()
    # stacked: owners[i, j] is the slot k + K i of node i's group k that holds
    # coordinate j, read from node i's own partition index
    N, n = int(rng.integers(1, 7)), int(rng.integers(1, 24))
    net = ragged_network(rng, N, n)
    K = net.index.shape[1]
    assert net.owners.shape == (N, n)
    for i, o in enumerate(net):
        for j in range(n):
            slot = net.owners[i, j]
            assert slot // K == i and j in o.partition.index[slot % K]
            assert j in o.partition.groups[slot % K]


def test_stacked_oracle_draws_the_per_node_streams():
    rng = np.random.default_rng(17)
    objs = generate_problem(ProblemSpec(case=2, N=4, n_g=8, seed=3, K=4)).objectives
    X = rng.standard_normal((4, objs[0].n))

    for sigma in (0.3, 0.0):
        stacked_orc = NoisyOracle(sigma, 11, range(4))  # the network's one source
        node_orcs = [NoisyOracle.for_node(sigma, seed=11, node=i) for i in range(4)]
        silent = [stream.bit_generator.state for stream in stacked_orc.rngs]
        for _ in range(3):  # one draw per node per call, in node order
            stacked = oracle_grad(network(objs), stacked_orc, X)
            rows = [oracle_grad(o, orc, x) for o, orc, x in zip(objs, node_orcs, X)]
            assert np.array_equal(stacked, np.stack(rows))
        for stream, before in zip(stacked_orc.rngs, silent):
            assert (stream.bit_generator.state == before) == (sigma == 0.0)


def test_every_perturb_checks_the_row_count():
    # between refills as on them: a 5-row G never takes one row's draw five times
    orc, n = NoisyOracle(0.2, 3, range(1)), 40
    orc.perturb(np.zeros((1, n)))  # draws a block and uses its first draw
    for call in range(2):
        G = np.zeros((5, n))
        with pytest.raises(ValueError, match="5 gradient rows for an oracle of 1"):
            orc.perturb(G)
        assert not G.any()
    ref = np.random.default_rng((3, 0))
    ref.standard_normal(n)
    G = np.zeros((1, n))
    orc.perturb(G)  # the refused calls used no draw
    assert G.tobytes() == (ref.standard_normal(n) * (0.2 / np.sqrt(n)))[None].tobytes()


def per_call_oracle_grad(obj, noisy, x):
    """oracle_grad with one standard_normal(n) call per node and call of a
    noisy source: the reference the block draws must match bit for bit."""
    grad = obj.f_grad(x)
    n = grad.shape[-1]
    sources = [noisy] if isinstance(noisy, NoisyOracle) else noisy
    streams = [(rng, orc.sigma) for orc in sources for rng in orc.rngs]
    for row, (rng, s) in zip(grad.reshape(-1, n), streams):
        if s != 0.0:
            row += rng.standard_normal(n) * (s / np.sqrt(n))
    return grad


@pytest.mark.parametrize("n_g", [8, 208])  # n = 40 and 1040: B = 51 and B = 1 draws per block
def test_block_draws_are_the_per_call_draws(n_g):
    rng = np.random.default_rng(n_g)
    objs = generate_problem(ProblemSpec(case=1, N=4, n_g=n_g, seed=2, K=5)).objectives
    net, n = network(objs), objs[0].n
    B = max(1, NOISE_BLOCK // n)
    N, sigma, seed = len(objs), 0.2, 13
    stacked = NoisyOracle(sigma, seed, range(N))
    alone = [NoisyOracle.for_node(sigma, seed, i) for i in range(N)]
    refs = [np.random.default_rng((seed, i)) for i in range(N)]
    calls = 2 * B + 3  # over two refills, and into a third block
    for k in range(1, calls + 1):
        X = rng.standard_normal((N, n))
        expect = net.f_grad(X)
        for row, ref in zip(expect, refs):
            row += ref.standard_normal(n) * (sigma / np.sqrt(n))
        assert oracle_grad(net, stacked, X).tobytes() == expect.tobytes(), k
        rows = [oracle_grad(o, orc, x) for o, orc, x in zip(objs, alone, X)]
        assert np.stack(rows).tobytes() == expect.tobytes(), k
    blocks = -(-calls // B)  # the generator runs less than one block ahead
    for i, rng in enumerate(stacked.rngs):
        ahead = np.random.default_rng((seed, i))
        ahead.standard_normal((blocks * B, n))
        assert rng.bit_generator.state == ahead.bit_generator.state


@pytest.mark.parametrize("algorithm", ["sdpga", "sdpga_w"])
def test_noisy_runs_match_the_per_call_draws(algorithm, monkeypatch):
    prob = generate_problem(ProblemSpec(case=1, N=5, n_g=20, seed=4))
    g = build_topology("star", 5)

    def run():
        return run_synchronous(
            algorithm, g, prob.objectives, RoundSchedule(max_rounds=40), seed=9,
            gammas=np.full(5, 1.5), sigma=0.1, horizon=40, collect_ergodic=True,
        )

    blocks = run()
    for module in (dpga, dpga_w):
        monkeypatch.setattr(module, "oracle_grad", per_call_oracle_grad)
    calls = run()
    assert blocks.final_x.tobytes() == calls.final_x.tobytes()
    assert repr(blocks.record.rows) == repr(calls.record.rows)
    assert repr(blocks.ergodic) == repr(calls.ergodic)


@pytest.mark.parametrize("algorithm", ["sdpga", "sdpga_w"])
def test_network_noise_source_adds_each_nodes_per_call_draws(algorithm, monkeypatch):
    # every gradient a run's one noise source perturbs is f_grad plus, per node,
    # default_rng((seed, i)).standard_normal(n) * sigma / sqrt(n): over three
    # block boundaries (B = 10 draws of n = 200 per block, 35 rounds)
    prob = generate_problem(ProblemSpec(case=1, N=5, n_g=20, seed=4))
    net, n, seed, sigma = network(prob.objectives), prob.objectives[0].n, 9, 0.1
    assert max(1, NOISE_BLOCK // n) == 10
    refs = [np.random.default_rng((seed, i)) for i in range(5)]
    calls = []

    def checked(obj, noisy, X):
        expect = net.f_grad(X)
        for row, ref in zip(expect, refs):
            row += ref.standard_normal(n) * (sigma / np.sqrt(n))
        got = oracle_grad(obj, noisy, X)
        calls.append(got.tobytes() == expect.tobytes())
        return got

    monkeypatch.setattr(dpga if algorithm == "sdpga" else dpga_w, "oracle_grad", checked)
    run_synchronous(
        algorithm, build_topology("star", 5), prob.objectives, RoundSchedule(max_rounds=35),
        seed, gammas=np.full(5, 1.5), sigma=sigma, horizon=35,
    )
    assert calls == [True] * 35


def test_a_silent_row_keeps_its_bits_and_runs_share_no_noise_state():
    # a sigma = 0 source adds nothing, not even +0.0, which would turn -0.0
    # into +0.0, and draws from no stream
    silent, noisy = NoisyOracle(0.0, 3, range(3)), NoisyOracle(0.2, 3, range(3))
    before = [rng.bit_generator.state for rng in silent.rngs]
    G = np.full((3, 40), -0.0)
    silent.perturb(G)
    assert G.tobytes() == np.full((3, 40), -0.0).tobytes()
    assert [rng.bit_generator.state for rng in silent.rngs] == before
    noisy.perturb(G)
    assert all(np.signbit(row).mean() not in (0.0, 1.0) for row in G)  # every row moved
    # runs in one process share no noise: seed 1, seed 2, then seed 1 again
    prob = generate_problem(ProblemSpec(case=1, N=5, n_g=20, seed=4))
    g = build_topology("star", 5)

    def run(algorithm, seed):
        res = run_synchronous(
            algorithm, g, prob.objectives, RoundSchedule(max_rounds=25), seed,
            gammas=np.full(5, 1.5), sigma=0.1, horizon=25, collect_ergodic=True,
        )
        return res.final_x.tobytes(), repr(res.record.rows), repr(res.ergodic)

    for algorithm in NOISY_ALGORITHMS:
        first, other, again = run(algorithm, 1), run(algorithm, 2), run(algorithm, 1)
        assert first == again
        assert first[0] != other[0]


@pytest.mark.parametrize("S", [1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_stacked_phi_and_group_norms_are_byte_identical_slice_by_slice(S, seed):
    # a stack (S, N, n) must give what each slice gives alone, and each node's
    # group norms what its own partition gives on its row alone
    rng = np.random.default_rng(seed)
    N, n = int(rng.integers(1, 7)), int(rng.integers(2, 24))
    net = ragged_network(rng, N, n)
    X = rng.standard_normal((S, N, n)) * rng.choice([0.1, 1.0, 5.0], size=(S, N, 1))
    X[rng.random((S, N, n)) < 0.2] = -0.0
    sums = _group_norm_sums(X, net._stack_index(S))
    assert sums.shape == (S, N)
    for s in range(S):
        alone = _group_norm_sums(X[s].copy(), net.index)
        assert sums[s].tobytes() == alone.tobytes()
        rows = [_group_norm_sums(x[None], o.partition.index[None]) for o, x in zip(net, X[s])]
        assert alone.tobytes() == np.concatenate(rows).tobytes()
    Fs = net.phi(X)
    assert len(Fs) == S
    for s in range(S):
        assert np.float64(Fs[s]).tobytes() == np.float64(net.phi(X[s].copy())).tobytes()
