"""Ground-truth solvers: certified prox oracle, central and product solves."""

import numpy as np
import pytest

from conftest import random_objective, random_objectives, random_partition
from netprox import reference
from netprox.bench import ProblemSpec, generate_problem
from netprox.objective import (
    GroupPartition,
    NetworkObjective,
    NodeObjective,
    network,
    prox_sparse_group,
)
from netprox.reference import (
    STALL_WINDOW,
    ReferenceSolution,
    cache_dir,
    compute_kappas,
    dual_group_prox,
    fista_solve,
    load_reference,
    prox_bruteforce,
    save_reference,
)


def test_dual_prox_certificate_and_agreement():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(4, 24))
        part = random_partition(rng, n, int(rng.integers(1, 4)))
        xbar = rng.standard_normal(n)
        t = float(rng.uniform(0.25, 2.0))
        b1 = float(rng.uniform(0.0, 0.8))
        b2 = float(rng.uniform(0.0, 0.8))
        y, gap = dual_group_prox(xbar, t, b1, [(b2, part)], tol=1e-13)
        # weak duality up to float rounding
        assert -1e-12 <= gap <= 1e-13
        closed = prox_sparse_group(xbar, t, b1, b2, part)
        assert np.linalg.norm(y - closed) <= np.sqrt(2 * t * 1e-13) + 1e-9


def test_dual_prox_large_scale_needs_coarser_gap():
    # the attainable gap scales with the prox objective's magnitude, so a
    # big input gets a matching tolerance and still certifies tightly
    rng = np.random.default_rng(42)
    part = random_partition(rng, 20, 3)
    xbar = rng.standard_normal(20) * 30
    t = 0.1
    y, gap = dual_group_prox(xbar, t, 0.5, [(0.5, part)], tol=1e-9)
    assert gap <= 1e-9
    closed = prox_sparse_group(xbar, t, 0.5, 0.5, part)
    assert np.linalg.norm(y - closed) <= np.sqrt(2 * t * 1e-9) + 1e-9


def test_dual_prox_multiple_group_terms():
    rng = np.random.default_rng(1)
    n = 10
    parts = [random_partition(rng, n, 2), random_partition(rng, n, 3)]
    xbar = rng.standard_normal(n) * 2
    terms = [(0.4, parts[0]), (0.3, parts[1])]
    y, gap = dual_group_prox(xbar, 0.7, 0.2, terms, tol=1e-13)
    assert gap <= 1e-13
    # certified point beats random perturbations on the prox objective
    def value(z):
        val = 0.2 * np.abs(z).sum() + np.linalg.norm(z - xbar) ** 2 / 1.4
        for b2, p in terms:
            val += b2 * sum(np.linalg.norm(z[g]) for g in p.groups)
        return val

    base = value(y)
    for _ in range(200):
        assert value(y + rng.standard_normal(n) * 1e-4) >= base - 1e-10


def test_dual_prox_rejects_bad_step():
    with pytest.raises(ValueError):
        dual_group_prox(np.ones(3), 0.0, 0.1, [])
    # NaN is refused by name, not met as a stall after every sweep
    part = random_partition(np.random.default_rng(0), 3, 1)
    with pytest.raises(ValueError, match="t must be finite and positive, got nan"):
        dual_group_prox(np.ones(3), float("nan"), 0.1, [(0.1, part)])


def test_brute_force_prox_handles_zero_weights():
    rng = np.random.default_rng(2)
    part = random_partition(rng, 6, 2)
    xbar = rng.standard_normal(6)
    y = prox_bruteforce(xbar, 0.9, 0.0, 0.0, part)
    assert np.allclose(y, xbar, atol=1e-7)


def test_central_solve_matches_least_squares():
    rng = np.random.default_rng(3)
    # smooth-only objectives in the quadratic regime reduce to least squares
    objs = []
    part = random_partition(rng, 8, 2)
    rows = []
    for _ in range(3):
        A = rng.standard_normal((6, 8))
        b = rng.standard_normal(6)
        rows.append((A, b))
        objs.append(
            NodeObjective(A=A, b=b, delta=1e9, beta1=0.0, beta2=0.0, partition=part)
        )
    sol = fista_solve(objs, tol=1e-10)
    A_all = np.vstack([A for A, _ in rows])
    b_all = np.concatenate([b for _, b in rows])
    x_ls, *_ = np.linalg.lstsq(A_all, b_all, rcond=None)
    assert np.linalg.norm(sol.x_star - x_ls) < 1e-6
    assert sol.certificate <= 1e-10


def test_huge_l1_weight_pins_the_origin():
    rng = np.random.default_rng(4)
    objs = random_objectives(rng, 3, n=6, m=4, beta1=1e4, beta2=0.0)
    sol = fista_solve(objs, tol=1e-10)
    assert np.allclose(sol.x_star, 0.0, atol=1e-12)


def test_solves_agree_across_starts_and_methods():
    rng = np.random.default_rng(5)
    objs = random_objectives(rng, 3, n=8, m=5)
    a = fista_solve(objs, tol=1e-12)
    c = fista_solve(objs, tol=1e-7, method="product")
    assert np.linalg.norm(a.x_star - c.x_star) < 1e-5
    with pytest.raises(ValueError):
        fista_solve(objs, method="magic")


@pytest.mark.parametrize(
    "method, owner, name",
    [("central", reference, "_sparse_group_prox"), ("product", NetworkObjective, "prox")],
)
def test_a_stalled_solve_raises_within_the_window(method, owner, name, monkeypatch):
    # tol 1e-20 lies below the floor double precision allows, so the residual stops
    # improving; the solve must give up STALL_WINDOW steps after its best residual,
    # not after SOLVE_MAX_ITER steps, and name the floor it reached
    objs = generate_problem(ProblemSpec(case=1, N=5, n_g=4, seed=0)).objectives
    calls = []
    prox = owner.__dict__[name]

    def counted(*args, **kwargs):
        calls.append(None)
        return prox(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)  # one prox per step (central: plus one per check)
    with pytest.raises(RuntimeError, match=f"stalled.*floor.*for {STALL_WINDOW} steps") as err:
        fista_solve(objs, tol=1e-20, method=method)
    floor = float(str(err.value).split("floor ")[1].split()[0])
    assert 1e-20 < floor <= 1e-12
    assert STALL_WINDOW < len(calls) < 3 * STALL_WINDOW


@pytest.mark.parametrize("method", ["central", "product"])
def test_nodes_with_different_row_counts_certify(method):
    # A_i of 3, 4 and 5 rows (and unequal deltas) do not stack, so both solves
    # and the kappas read the nodes themselves
    rng = np.random.default_rng(9)
    part, x_true = random_partition(rng, 8, 3), rng.standard_normal(8)
    objs = []
    for m, delta in ((3, 0.5), (4, 1.0), (5, 2.0)):
        A = rng.standard_normal((m, 8))
        objs.append(
            NodeObjective(A=A, b=A @ x_true, delta=delta, beta1=0.1, beta2=0.2, partition=part)
        )
    assert network(objs).A is None
    sol = fista_solve(objs, tol=1e-10, method=method)
    assert sol.certificate <= 1e-10
    assert sol.F_star == pytest.approx(sum(o.phi(sol.x_star) for o in objs), rel=1e-14)
    expected = [
        np.linalg.norm(o.f_grad(sol.x_star)) + 0.1 * np.sqrt(8) + 0.2 * np.sqrt(3) for o in objs
    ]
    assert sol.kappas == pytest.approx(expected, rel=1e-14)
    for _ in range(20):
        probe = sol.x_star + 1e-3 * rng.standard_normal(8)
        assert sum(o.phi(probe) for o in objs) >= sol.F_star - 1e-12


def test_distinct_partitions_pick_the_product_path():
    rng = np.random.default_rng(6)
    objs = random_objectives(rng, 3, n=8, m=5, shared=False)
    sol = fista_solve(objs, tol=1e-9)
    assert sol.certificate <= 1e-9
    # the minimizer beats nearby points on the summed objective
    F = lambda x: sum(o.phi(x) for o in objs)
    base = F(sol.x_star)
    assert base == pytest.approx(sol.F_star, rel=1e-12)
    for _ in range(150):
        assert F(sol.x_star + rng.standard_normal(8) * 1e-4) >= base - 1e-9
    # a forced central solve would sum every penalty on node 0's groups
    with pytest.raises(ValueError, match="node 0's partition"):
        fista_solve(objs, tol=1e-9, method="central")


@pytest.mark.parametrize("scale", [3.0, 0.0])
def test_product_solve_weights_the_consensus_projection_by_L(scale):
    # one node's A scaled by 3 makes its L_i about 9x the others', so the per-node
    # steps PRODUCT_STEP/L_i differ and only the L-weighted mean is the metric
    # projection; scale 0 gives a node with L_i = 0
    rng = np.random.default_rng(9)
    objs = random_objectives(rng, 4, n=8, m=5)
    o = objs[0]
    objs[0] = NodeObjective(
        A=scale * o.A, b=scale * o.b, delta=o.delta, beta1=o.beta1, beta2=o.beta2,
        partition=o.partition,
    )
    central = fista_solve(objs, tol=1e-12, method="central")
    product = fista_solve(objs, tol=1e-12, method="product")
    assert product.certificate <= 1e-12
    assert np.linalg.norm(product.x_star - central.x_star) <= 1e-9
    assert product.F_star == pytest.approx(central.F_star, rel=0, abs=1e-12)


def test_objective_never_dips_below_reported_optimum():
    rng = np.random.default_rng(7)
    objs = random_objectives(rng, 4, n=7, m=4)
    sol = fista_solve(objs, tol=1e-12)
    F = lambda x: sum(o.phi(x) for o in objs)
    for scale in (1e-3, 0.1, 1.0, 10.0):
        for _ in range(50):
            assert F(sol.x_star + rng.standard_normal(7) * scale) >= sol.F_star - 1e-10


def test_kappas_dominate_gradient_plus_penalty_subgradients():
    rng = np.random.default_rng(8)
    objs = random_objectives(rng, 3, n=9, m=5)
    sol = fista_solve(objs, tol=1e-10)
    for o, kap in zip(objs, sol.kappas):
        g = np.linalg.norm(o.f_grad(sol.x_star))
        assert kap == pytest.approx(
            g + o.beta1 * np.sqrt(9) + o.beta2 * np.sqrt(o.partition.K)
        )
        assert kap >= g
    assert compute_kappas(objs, sol.x_star) == sol.kappas


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "store"))
    assert cache_dir() == tmp_path / "store"
    objs = random_objectives(np.random.default_rng(0), 2, n=3, m=2, K=2)
    assert load_reference("missing", objs) is None
    sol = ReferenceSolution(
        x_star=np.array([1.0, -2.5, 1 / 3]),
        F_star=4.125,
        certificate=3e-13,
        kappas=(1.5, 2.25),
    )
    save_reference("toy_key", sol)
    back = load_reference("toy_key", objs)
    assert np.array_equal(back.x_star, sol.x_star)
    assert back.certificate == sol.certificate
    # F_star and the kappas are not stored: they are x_star's, as fista_solve computes them
    assert back.F_star == network(objs).phi(np.tile(sol.x_star, (2, 1)))
    assert back.kappas == compute_kappas(objs, sol.x_star)
    # an x_star that is not a point of the objectives' space is a miss
    assert load_reference("toy_key", random_objectives(np.random.default_rng(0), 2, n=4)) is None
