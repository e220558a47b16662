"""Benchmark generator, bound curves, config validation, experiment driver."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from netprox import bench, simnet
from netprox.bench import (
    BoundCurve,
    ConfigError,
    ProblemSpec,
    bound_curve,
    corollary2_curve,
    generate_problem,
    load_config,
    output_dir,
    reference_for,
    reference_key,
    run_experiment,
    theorem3_curve,
    theorem4_curve,
    validate_config,
)
from netprox.dpga_w import CommunicationMatrix
from netprox.cli import main
from netprox.objective import objective_to_text
from netprox.simnet import RoundSchedule, RunRecord, run_synchronous
from netprox.topology import build_topology, edge_list_text, spectral_summary
from theory import equal_gamma_simplified


def tiny_spec(seed=0):
    # n = 20, m = 5 per node
    return ProblemSpec(case=1, N=2, n_g=2, seed=seed)


def base_config(max_rounds=4000, **overrides):
    cfg = {
        "problem": {"case": 1, "N": 2, "n_g": 2},
        "topology": {"kind": "clique"},
        "algorithms": ["dpga"],
        "seeds": [0],
        "schedule": {"max_rounds": max_rounds, "check_every": 10},
    }
    cfg.update(overrides)
    return cfg


def test_problem_spec_validation_and_sizes():
    spec = ProblemSpec(case=1, N=5, n_g=100, seed=3)
    assert spec.n == 1000 and spec.m == 100
    assert spec.beta1 == spec.beta2 == 0.2
    assert spec.delta == 1.0
    with pytest.raises(ValueError):
        ProblemSpec(case=3, N=5, n_g=20, seed=0)
    with pytest.raises(ValueError):
        ProblemSpec(case=1, N=0, n_g=20, seed=0)
    with pytest.raises(ValueError, match="not integral"):
        ProblemSpec(case=1, N=3, n_g=20, seed=0)


def test_generated_instances_are_deterministic():
    a = generate_problem(tiny_spec())
    b = generate_problem(tiny_spec())
    for oa, ob in zip(a.objectives, b.objectives):
        assert np.array_equal(oa.A, ob.A)
        assert np.array_equal(oa.b, ob.b)
    c = generate_problem(tiny_spec(seed=1))
    assert not np.array_equal(a.objectives[0].A, c.objectives[0].A)


def test_planted_signal_shape():
    prob = generate_problem(tiny_spec())
    x = prob.x_planted
    assert x[0] == pytest.approx(-1.0)
    assert x[1] == pytest.approx(np.exp(-1 / 2))
    assert np.all(np.sign(x) == [(-1.0) ** j for j in range(1, 21)])
    for o in prob.objectives:
        assert np.allclose(o.b, o.A @ x)
        assert o.A.shape == (5, 20)


def test_partition_sharing_by_case():
    shared = [o.partition for o in generate_problem(tiny_spec()).objectives]
    assert all(p is shared[0] for p in shared)
    per_node = generate_problem(ProblemSpec(case=2, N=2, n_g=2, seed=0))
    pa, pb = (o.partition for o in per_node.objectives)
    assert any(
        not np.array_equal(ga, gb) for ga, gb in zip(pa.groups, pb.groups)
    )


def test_conditioning_spread_from_the_scaling_coin():
    ratios = []
    for s in range(20):
        ls = [o.lipschitz for o in generate_problem(ProblemSpec(case=1, N=5, n_g=20, seed=s)).objectives]
        ratios.append(max(ls) / min(ls))
    assert 2.5 <= float(np.mean(ratios)) <= 6.0


def test_reference_key_and_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path))
    spec = tiny_spec()
    assert reference_key(spec) == "case1_N2_ng2_K10_seed0_central_rev2"
    prob = generate_problem(spec)
    sol = reference_for(prob)
    cached = tmp_path / "case1_N2_ng2_K10_seed0_central_rev2.npz"
    assert cached.exists()
    again = reference_for(prob)
    assert np.array_equal(again.x_star, sol.x_star)
    # a cached certificate is believed, proving the load path is used
    from dataclasses import replace

    from netprox.reference import save_reference

    save_reference(reference_key(spec), replace(sol, certificate=0.0))
    assert reference_for(prob).certificate == 0.0
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "empty"))
    fresh = reference_for(prob)
    assert fresh.F_star == pytest.approx(sol.F_star, rel=1e-10)


def test_reference_cache_rebuilds_F_star_and_kappas_from_x_star(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path))
    prob = generate_problem(tiny_spec())
    sol = reference_for(prob)
    # an entry in the older layout: finite F_star and kappas that are not x_star's
    path = tmp_path / f"{reference_key(prob.spec)}.npz"
    np.savez(
        path, x_star=sol.x_star, F_star=np.array(-123.0),
        certificate=np.array(sol.certificate), kappas=np.array([1.0, 2.0]),
    )
    again = reference_for(prob)
    assert np.array_equal(again.x_star, sol.x_star) and again.certificate == sol.certificate
    assert again.F_star == sol.F_star and again.kappas == sol.kappas
    with np.load(path) as data:  # the entry was a hit, so it is not rewritten
        assert "F_star" in data.files


def test_reference_cache_honours_the_requested_tolerance(tmp_path, monkeypatch):
    from dataclasses import replace

    from netprox.reference import fista_solve, load_reference, save_reference

    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path))
    prob = generate_problem(ProblemSpec(case=1, N=5, n_g=4, seed=0))
    key = reference_key(prob.spec)
    solves = []

    def counted(*args, **kwargs):
        solves.append(kwargs["tol"])
        return fista_solve(*args, **kwargs)

    monkeypatch.setattr(bench, "fista_solve", counted)
    coarse = fista_solve(prob.objectives, tol=1e-3)
    assert bench.REFERENCE_TOL < coarse.certificate <= 1e-3
    save_reference(key, coarse)
    # a cached solution certified looser than REFERENCE_TOL is solved again
    fine = reference_for(prob)
    assert solves == [bench.REFERENCE_TOL] and fine.certificate <= bench.REFERENCE_TOL
    assert load_reference(key, prob.objectives).certificate == fine.certificate
    # and one certified at least as tight is reused
    assert reference_for(prob).certificate == fine.certificate
    save_reference(key, replace(fine, certificate=bench.REFERENCE_TOL))
    assert reference_for(prob).certificate == bench.REFERENCE_TOL
    assert len(solves) == 1


def test_corrupt_reference_cache_is_a_miss(tmp_path, monkeypatch):
    from netprox.reference import load_reference

    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path))
    prob = generate_problem(tiny_spec())
    key = reference_key(prob.spec)
    path = tmp_path / f"{key}.npz"
    path.write_bytes(b"garbage, not an archive" * 8)
    assert load_reference(key, prob.objectives) is None
    sol = reference_for(prob)
    assert sol.certificate <= 1e-12
    back = load_reference(key, prob.objectives)
    assert back is not None and np.array_equal(back.x_star, sol.x_star)
    # a truncated archive is a miss, and the rewrite leaves no temp file
    path.write_bytes(path.read_bytes()[:200])
    assert load_reference(key, prob.objectives) is None
    assert reference_for(prob).certificate <= 1e-12
    assert np.array_equal(load_reference(key, prob.objectives).x_star, sol.x_star)
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    # an archive that lacks one of the arrays is a miss too
    np.savez(path, x_star=sol.x_star)
    assert load_reference(key, prob.objectives) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: dict(x_star=s.x_star[:-1]),
        lambda s: dict(x_star=np.full_like(s.x_star, np.nan)),
        lambda s: dict(kappas=s.kappas[:1]),
        lambda s: dict(F_star=float("nan")),
    ],
    ids=["short_x_star", "nan_x_star", "one_kappa", "nan_F_star"],
)
def test_reference_cache_entry_that_does_not_fit_is_a_miss(corrupt, tmp_path, monkeypatch):
    from dataclasses import replace

    from netprox.reference import load_reference, save_reference

    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path))
    prob = generate_problem(tiny_spec())
    key = reference_key(prob.spec)
    sol = reference_for(prob)
    # certified, but not a solution of this instance: re-solved and overwritten,
    # or, where only F_star or kappas were wrong, recomputed from x_star
    save_reference(key, replace(sol, certificate=0.0, **corrupt(sol)))
    again = reference_for(prob)
    assert again.certificate <= 1e-12 and np.array_equal(again.x_star, sol.x_star)
    assert again.F_star == sol.F_star and again.kappas == sol.kappas
    back = load_reference(key, prob.objectives)
    assert np.array_equal(back.x_star, sol.x_star) and back.F_star == sol.F_star


def test_bound_curve_shape():
    with pytest.raises(ValueError):
        BoundCurve(column="bound_theorem3", coef_subopt=0.0, coef_consensus=1.0)
    with pytest.raises(ValueError, match="coef_subopt must be finite and positive, got nan"):
        BoundCurve(column="bound_theorem3", coef_subopt=float("nan"), coef_consensus=1.0)
    curve = BoundCurve(column="bound_sdpga", coef_subopt=8.0, coef_consensus=4.0, coef_sqrt=6.0)
    assert curve.subopt_bound(4) == pytest.approx(8.0 / 4 + 6.0 / 2)
    assert curve.consensus_bound(16) == pytest.approx(4.0 / 16 + 6.0 / 4)
    ts = np.arange(1, 50)
    vals = [curve.subopt_bound(t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_theorem3_curve_constants_by_hand():
    g = build_topology("star", 3)
    gammas = np.array([1.0, 2.0, 3.0])
    kappas = (1.0, 2.0, 2.0)
    x_star = np.ones(4)
    x0 = [np.zeros(4)] * 3
    steps = [0.5, 0.25, 0.2]
    curve = theorem3_curve(g, gammas, kappas, x_star, x0, steps)
    e_half = 4.0 / (2 * 0.5) + 4.0 / (2 * 0.25) + 4.0 / (2 * 0.2)
    # q is the hub-leaf edge with gamma 1 and 2; psi_min of the star is 1
    q_norm = 1.0 + 1.0 / 2.0
    kap_sq = 9.0
    assert curve.coef_subopt == pytest.approx(2 * q_norm * kap_sq / 1.0 + e_half)
    assert curve.coef_consensus == pytest.approx(q_norm * (kap_sq + 1.0) + e_half)
    assert curve.coef_sqrt == 0.0
    assert curve.column == "bound_theorem3"


def test_theorem4_curve_tau_variants():
    g = build_topology("star", 3)
    W = CommunicationMatrix.from_laplacian(g)
    gammas = np.array([1.0, 2.0, 3.0])
    kw = dict(
        gammas=gammas,
        kappas=(1.0, 1.0, 1.0),
        x_star=np.ones(4),
        x0=[np.zeros(4)] * 3,
        step_sizes=[0.1, 0.1, 0.1],
    )
    stated = theorem4_curve(g, W, **kw)
    # leaves see the hub's 1/gamma=1, beating the hub's 1/2 + 1/3, so the
    # stated tau_max is 1; sigma_min of the star Laplacian is 1, squared stays 1
    e_half = 3 * 4.0 / (2 * 0.1)
    assert stated.coef_subopt == pytest.approx(2 * 1.0 * 3.0 / 1.0 + e_half)
    assert stated.coef_consensus == pytest.approx(1.0 * (3.0 / 1.0 + 1.0) + e_half)
    assert stated.column == "bound_theorem4"


def test_corollary2_adds_the_noise_term():
    g = build_topology("circle", 4)
    kw = dict(
        gammas=np.ones(4),
        kappas=(1.0,) * 4,
        x_star=np.ones(3),
        x0=[np.zeros(3)] * 4,
        step_sizes=[0.2] * 4,
    )
    det = theorem3_curve(g, **kw)
    sto = corollary2_curve(g, sigma=0.5, dbar=2.0, **kw)
    assert sto.coef_subopt == pytest.approx(det.coef_subopt)
    assert sto.coef_consensus == pytest.approx(det.coef_consensus)
    assert sto.coef_sqrt == pytest.approx(4 * (4.0 + 0.5) / 2.0)
    assert sto.column == "bound_sdpga"
    assert sto.subopt_bound(100) == pytest.approx(det.coef_subopt / 100 + sto.coef_sqrt / 10)


@pytest.mark.parametrize("kind, N", [("star", 5), ("circle", 6)])
def test_curve_coefficients_are_the_papers_formulas_to_the_bit(kind, N):
    g = build_topology(kind, N)
    W = CommunicationMatrix.from_laplacian(g)
    # theorem 3: s = psi_min; theorem 4: s = sigma_min(W)^2
    s3, s4 = spectral_summary(g).psi_min_pos, W.sigma_min_pos**2
    rng = np.random.default_rng(N)
    for _ in range(25):  # enough draws that a reordered product misses some last bit
        gammas = 0.5 + rng.random(N)  # unequal, so q and tau_max pick one edge and one node
        kappas = tuple(1.0 + rng.random(N))
        x_star = rng.standard_normal(6)
        x0 = [rng.standard_normal(6) for _ in range(N)]
        steps = 0.1 + rng.random(N)
        sigma, dbar = rng.random(), rng.random()
        kap_sq = float(sum(k**2 for k in kappas))
        e_half = 0.0
        for c_i, x0_i in zip(steps, x0):
            d = x_star - x0_i
            e_half += float(d @ d) / (2.0 * c_i)
        # theorem 3: q = max over edges of 1/gamma_i + 1/gamma_j; theorem 4: q = tau_max,
        # 1/gamma summed over open neighborhoods
        q3 = max(1.0 / gammas[i] + 1.0 / gammas[j] for i, j in g.edges)
        q4 = float(max(sum(1.0 / gammas[j] for j in g.neighbor_lists[i]) for i in range(N)))
        args = (gammas, kappas, x_star, x0, steps)
        for curve, q, s, coef_sqrt in (
            (theorem3_curve(g, *args), q3, s3, 0.0),
            (theorem4_curve(g, W, *args), q4, s4, 0.0),
            (corollary2_curve(g, *args, sigma, dbar), q3, s3, N * (dbar**2 + 2.0 * sigma**2) / 2.0),
        ):
            assert curve.coef_subopt == 2.0 * q * kap_sq / s + e_half
            assert curve.coef_consensus == q * (kap_sq / s + 1.0) + e_half
            assert curve.coef_sqrt == coef_sqrt


def test_equal_gamma_simplification_dominates():
    N = 5
    gamma = 1.7
    lips = [1.0, 4.0, 0.5, 2.0, 3.0]
    kappas = (2.0, 3.0, 1.0, 1.0, 2.0)
    x_star = np.ones(8)
    x0c = np.zeros(8)
    x0 = [x0c] * N
    dist_sq = float(np.sum(x_star**2))
    kap_sq = float(sum(k**2 for k in kappas))
    for kind in ("star", "circle"):
        g = build_topology(kind, N)
        # largest admissible steps make the distance term collapse
        steps = [1.0 / (lips[i] + gamma * g.degrees[i]) for i in range(N)]
        general = theorem3_curve(g, np.full(N, gamma), kappas, x_star, x0, steps)
        simple = equal_gamma_simplified(g, gamma, kappas, lips, x_star, x0c, variant="dpga")
        expected_e_half = (gamma * g.edge_count + sum(lips) / 2.0) * dist_sq
        q_norm, psi = 2.0 / gamma, spectral_summary(g).psi_min_pos
        assert general.coef_subopt == pytest.approx(
            2.0 * q_norm * kap_sq / psi + expected_e_half, rel=1e-12
        )
        assert general.coef_consensus == pytest.approx(
            q_norm * (kap_sq / psi + 1.0) + expected_e_half, rel=1e-12
        )
        assert simple.coef_subopt >= general.coef_subopt
        assert simple.coef_consensus >= general.coef_consensus

        W = CommunicationMatrix.from_laplacian(g)
        steps_w = [1.0 / (lips[i] + gamma * W.omega_norms_sq[i]) for i in range(N)]
        general_w = theorem4_curve(g, W, np.full(N, gamma), kappas, x_star, x0, steps_w)
        simple_w = equal_gamma_simplified(g, gamma, kappas, lips, x_star, x0c, variant="dpga_w")
        frob_sq = spectral_summary(g).frob_norm_sq
        e_half_w = 0.5 * (gamma * frob_sq + sum(lips)) * dist_sq
        tau_max, s_w = g.max_degree / gamma, W.sigma_min_pos**2
        assert general_w.coef_subopt == pytest.approx(
            2.0 * tau_max * kap_sq / s_w + e_half_w, rel=1e-12
        )
        assert general_w.coef_consensus == pytest.approx(
            tau_max * (kap_sq / s_w + 1.0) + e_half_w, rel=1e-12
        )
        assert simple_w.coef_subopt >= general_w.coef_subopt
        assert simple_w.coef_consensus >= general_w.coef_consensus
    with pytest.raises(ValueError):
        equal_gamma_simplified(
            build_topology("star", N), 1.0, kappas, lips, x_star, x0c, variant="admm"
        )


def test_config_validation_diagnostics():
    with pytest.raises(ConfigError, match="expected a JSON object"):
        validate_config([])
    with pytest.raises(ConfigError, match="mystery: unknown key"):
        validate_config(base_config(mystery=1))
    with pytest.raises(ConfigError, match="config.problem: missing"):
        validate_config({k: v for k, v in base_config().items() if k != "problem"})
    with pytest.raises(ConfigError, match="problem.case: expected"):
        validate_config(base_config(problem={"case": True, "N": 2, "n_g": 2}))
    with pytest.raises(ConfigError, match="problem: "):
        validate_config(base_config(problem={"case": 1, "N": 3, "n_g": 20}))
    with pytest.raises(ConfigError, match="topology: "):
        validate_config(base_config(topology={"kind": "torus"}))
    with pytest.raises(ConfigError, match="algorithms: must not be empty"):
        validate_config(base_config(algorithms=[]))
    with pytest.raises(ConfigError, match="unknown algorithm"):
        validate_config(base_config(algorithms=["dpga", "sgd"]))
    with pytest.raises(ConfigError, match="step_mode"):
        validate_config(base_config(step_mode="XS"))
    with pytest.raises(ConfigError, match="'AS' only applies to dpga"):
        validate_config(base_config(algorithms=["pg_extra"], step_mode="AS"))
    with pytest.raises(ConfigError, match="gamma_rule: expected"):
        validate_config(base_config(gamma_rule="heuristic"))
    with pytest.raises(ConfigError, match="unknown rule"):
        validate_config(base_config(gamma_rule={"rule": "fixed"}))
    with pytest.raises(ConfigError, match="gamma_rule.value"):
        validate_config(base_config(gamma_rule={"rule": "explicit"}))
    for value in (10**400, [1.0, 10**400]):
        with pytest.raises(ConfigError, match="gamma_rule.value: an integer too large for a float"):
            validate_config(base_config(gamma_rule={"rule": "explicit", "value": value}))
    with pytest.raises(ConfigError, match="c_factor"):
        validate_config(base_config(gamma_rule={"rule": "heuristic", "c_factor": -2}))
    with pytest.raises(ConfigError, match="sigma"):
        validate_config(base_config(sigma=-0.5))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(base_config(seeds=[]))
    with pytest.raises(ConfigError, match="seeds"):
        validate_config(base_config(seeds=[0, True]))
    with pytest.raises(ConfigError, match="schedule.max_rounds: missing"):
        validate_config(base_config(schedule={}))
    with pytest.raises(ConfigError, match="schedule: "):
        validate_config(base_config(schedule={"max_rounds": 0}))
    with pytest.raises(ConfigError, match="horizon"):
        validate_config(base_config(horizon=0))
    cfg = base_config(
        topology={"kind": "clique", "seed": None},
        horizon=None,
        sigma=0,
        bounds=False,
        safety=1,
        label="run-1_a.b",
    )
    exp = validate_config(cfg)
    assert exp.problem == ProblemSpec(case=1, N=2, n_g=2, seed=0, K=10)
    assert exp.spec(7) == ProblemSpec(case=1, N=2, n_g=2, seed=7, K=10)
    assert (exp.topology.kind, exp.topology.extra_edges, exp.topology.seed) == ("clique", 0, None)
    assert exp.graph == build_topology("clique", 2)
    assert exp.algorithms == ("dpga",) and exp.seeds == (0,) and exp.step_mode == "CS"
    assert (exp.gamma_rule, exp.gamma_value) == ("heuristic", 2.6)
    assert exp.schedule == RoundSchedule(
        max_rounds=4000, stop_rel_subopt=1e-3, stop_consensus=1e-4, check_every=10
    )
    assert (exp.sigma, exp.horizon, exp.bounds) == (0.0, None, False)
    assert (exp.safety, exp.label) == (1.0, "run-1_a.b")
    assert validate_config(base_config()).label == "case1_N2_ng2_clique"
    explicit = validate_config(base_config(gamma_rule={"rule": "explicit", "value": 1.5}))
    assert explicit.gamma_value == (1.5, 1.5)


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"bounds": "no"}, "config.bounds"),
        ({"bounds": 1}, "config.bounds"),
        ({"safety": "high"}, "config.safety"),
        ({"safety": True}, "config.safety"),
        ({"safety": 0.0}, "safety"),
        ({"safety": 1.5}, "safety"),
        ({"problem": {"case": 1, "N": 2, "n_g": 2, "K": 2.5}}, "problem.K"),
        ({"problem": {"case": 1, "N": 2, "n_g": 2, "K": "10"}}, "problem.K"),
        ({"problem": {"case": 1, "N": 2, "n_g": 2, "K": 0}}, "problem"),
        ({"topology": {"kind": "small_world", "extra_edges": 1.5}}, "topology.extra_edges"),
        ({"topology": {"kind": "small_world", "extra_edges": "2"}}, "topology.extra_edges"),
        ({"label": "../../x"}, "label"),
        ({"label": ""}, "label"),
        ({"label": 7}, "config.label"),
        ({"sigma": True}, "sigma"),
        ({"gamma_rule": {"rule": "heuristic", "c_factor": True}}, "gamma_rule.c_factor"),
        ({"schedule": {"max_rounds": 10, "check_every": 2.5}}, "schedule.check_every"),
        ({"schedule": {"max_rounds": 10, "check_every": "3"}}, "schedule.check_every"),
        ({"schedule": {"max_rounds": 10, "stop_rel_subopt": True}}, "schedule.stop_rel_subopt"),
        ({"schedule": {"max_rounds": 10, "stop_rel_subopt": "1e-3"}}, "schedule.stop_rel_subopt"),
        ({"schedule": {"max_rounds": 10, "chek_every": 3}}, "schedule.chek_every"),
        ({"problem": {"case": 1, "N": 2, "n_g": 2, "k": 10}}, "problem.k"),
        ({"gamma_rule": {"rule": "heuristic", "cfactor": 2.0}}, "gamma_rule.cfactor"),
        ({"topology": {"kind": "clique", "seed": True}}, "topology.seed"),
        ({"topology": {"kind": "clique", "seed": "x"}}, "topology.seed"),
        ({"gamma_rule": {"rule": "explicit", "value": "abc"}}, "gamma_rule.value"),
        ({"gamma_rule": {"rule": "explicit", "value": -1.0}}, "gamma_rule.value"),
        ({"gamma_rule": {"rule": "explicit", "value": True}}, "gamma_rule.value"),
        ({"gamma_rule": {"rule": "explicit", "value": [1.0, 1.0, 1.0]}}, "gamma_rule.value"),
        ({"horizon": True}, "horizon"),
        ({"seeds": [-1]}, "seeds"),
        ({"seeds": [0, 0]}, "config.seeds"),
        ({"algorithms": ["dpga", "dpga"]}, "config.algorithms"),
        ({"sigma": 0.1}, "config.sigma"),
        ({"algorithms": ["dpga", "pg_extra"], "sigma": 0.5}, "config.sigma"),
        ({"horizon": 100}, "config.horizon"),
        ({"algorithms": ["dpga_w"], "horizon": 1}, "config.horizon"),
        ({"problem": {"case": 1, "N": 1, "n_g": 2}}, "problem.N"),
        ({"problem": {"case": 1, "N": 0, "n_g": 2}}, "problem.N"),
        ({"step_mode": "AS", "bounds": True}, "config.bounds"),
        ({"topology": {"kind": "star", "seed": 3}}, "topology"),
    ],
)
def test_config_rejects_mistyped_keys(overrides, key, tmp_path, capsys):
    with pytest.raises(ConfigError, match=re.escape(key) + ":"):
        validate_config(base_config(**overrides))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**overrides)))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key + ":" in capsys.readouterr().err


def test_cli_check_exits_2_on_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(bounds="no")))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config.bounds" in capsys.readouterr().err
    path.write_text(json.dumps(base_config(gamma_rule={"rule": "explicit", "value": -1.0})))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "gamma_rule.value" in capsys.readouterr().err
    # a config that cannot be read at all: missing, a directory, not UTF-8
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"seeds": [0], "label": "\xff\xfe"}')
    for unreadable in (tmp_path / "missing.json", tmp_path, binary):
        assert main(["check", str(unreadable), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + str(unreadable) + ": ")
        assert err.count("\n") == 1


def test_cli_bounds_rejects_an_empty_grid(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    bad = (("--rounds", "0"), ("--rounds", "-5"), ("--points", "0"), ("--points", "-3"))
    for flag, value in bad:
        with pytest.raises(SystemExit) as exc:
            main(["bounds", str(path), "--out", str(tmp_path / "out"), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



def test_cli_bounds_without_a_bounded_algorithm_exits_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("reference solved for a config with no bound curve")

    monkeypatch.setattr(bench, "reference_for", no_solve)
    path = tmp_path / "cfg.json"
    # dpga under AS has no curve either: its backtracking steps are not the theorem-3 c_i
    for cfg in (base_config(algorithms=["pg_extra", "admm"]), base_config(step_mode="AS")):
        path.write_text(json.dumps(cfg))
        assert main(["bounds", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "no bound curves" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert bound_curve("dpga", validate_config(cfg), None, None, None) is None


def test_cli_gen_and_bounds_write_what_reads_back(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    cfg = base_config(
        problem={"case": 1, "N": 5, "n_g": 2}, topology={"kind": "star"}, seeds=[0, 1]
    )
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    exp = validate_config(cfg)
    # gen: one directory per seed, each file the writers' text, whose numbers read back bit for bit
    assert main(["gen", str(path), "--out", str(out)]) == 0
    dirs = capsys.readouterr().out.split()
    assert dirs == [str(out / f"instance_{exp.label}_seed{seed}") for seed in (0, 1)]
    for seed, inst in zip((0, 1), map(Path, dirs)):
        problem = generate_problem(exp.spec(seed))
        names = ["topology.txt", "edges.txt", "planted.txt"] + [f"node{i}.txt" for i in range(1, 6)]
        assert sorted(f.name for f in inst.iterdir()) == sorted(names)
        assert (inst / "topology.txt").read_text() == exp.topology.to_text()
        assert (inst / "edges.txt").read_text() == edge_list_text(exp.graph)
        planted = np.array((inst / "planted.txt").read_text().split(), dtype=float)
        assert planted.tobytes() == problem.x_planted.tobytes()
        for i, obj in enumerate(problem.objectives):
            text = (inst / f"node{i + 1}.txt").read_text()
            assert text == objective_to_text(obj)
            m, K = obj.A.shape[0], obj.partition.K
            rows = [np.array(line.split(), dtype=float) for line in text.splitlines()[5 + K :]]
            assert len(rows) == m + 1
            assert np.array(rows[:m]).tobytes() == obj.A.tobytes()
            assert rows[m].tobytes() == obj.b.tobytes()
    # bounds: one CSV per seed, each its cell's theorem-3 curves on the t-grid, falling as t grows
    assert main(["bounds", str(path), "--out", str(out), "--rounds", "500", "--points", "20"]) == 0
    csvs = capsys.readouterr().out.split()
    assert csvs == [str(out / f"bounds_{exp.label}_seed{seed}.csv") for seed in (0, 1)]
    curves = [cell.curve for cell in bench.cells(validate_config({**cfg, "bounds": True}))]
    tables = []
    for csv, curve in zip(map(Path, csvs), curves):
        header, *lines = csv.read_text().splitlines()
        assert header == "t,bound_theorem3_subopt,bound_theorem3_consensus"
        table = np.array([line.split(",") for line in lines], dtype=float)
        assert table[0, 0] == 1 and table[-1, 0] == 500 and (np.diff(table[:, 0]) > 0).all()
        assert (np.diff(table[:, 1:], axis=0) < 0).all()
        assert table[:, 1].tolist() == [float(curve.subopt_bound(int(t))) for t in table[:, 0]]
        assert table[:, 2].tolist() == [float(curve.consensus_bound(int(t))) for t in table[:, 0]]
        tables.append(table)
    assert not np.array_equal(*tables)  # each seed has its own x_star and kappas
    # theorem 4 and corollary 2 too: the dpga_w and sdpga curves, with and without a horizon
    for horizon in ({}, {"horizon": 300}):
        cfg = base_config(
            problem={"case": 2, "N": 5, "n_g": 4},
            topology={"kind": "star"},
            algorithms=["dpga", "dpga_w", "sdpga"],
            sigma=0.1,
            **horizon,
        )
        path.write_text(json.dumps(cfg))
        assert main(["bounds", str(path), "--out", str(out), "--rounds", "500"]) == 0
        header, *lines = Path(capsys.readouterr().out.strip()).read_text().splitlines()
        pairs = ("theorem3", "theorem4", "sdpga")
        assert header.split(",") == ["t"] + [
            f"bound_{p}_{side}" for p in pairs for side in ("subopt", "consensus")
        ]
        table = np.array([line.split(",") for line in lines], dtype=float)
        assert (np.diff(table[:, 1:], axis=0) < 0).all()


def test_every_bound_curve_reads_its_runs_initial_state(tmp_path, monkeypatch):
    # the curves are built from the state run_synchronous starts from, so steps
    # scaled there move theorem 3, theorem 4 and corollary 2 alike
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    exp = validate_config(
        base_config(
            problem={"case": 1, "N": 5, "n_g": 2},
            topology={"kind": "star"},
            algorithms=["dpga", "dpga_w", "sdpga"],
            sigma=0.1,
        )
    )
    cell = bench.cells(exp)[0]
    problem, reference, gammas = cell.problem, cell.reference, cell.gammas

    def curves():
        return [bound_curve(a, exp, problem.objectives, gammas, reference) for a in exp.algorithms]

    before_all, built, states = curves(), simnet.initial_state, []
    assert bound_curve("pg_extra", exp, problem.objectives, gammas, reference) is None

    def quarter_steps(*args):
        state = built(*args)
        states.append(state)
        return state.evolve(c=state.c / 4)

    monkeypatch.setattr(simnet, "initial_state", quarter_steps)
    moved = curves()
    columns = [c.column for c in moved]
    assert columns == ["bound_theorem3", "bound_theorem4", "bound_sdpga"]
    dist_sq = float(reference.x_star @ reference.x_star)  # every run starts at x = 0
    for before, after, state in zip(before_all, moved, states):
        # quartered steps quadruple E = sum_i |x_star - x0_i|^2 / (2 c_i): 3 E more on both sides
        e_half = sum(dist_sq / (2.0 * c) for c in state.c)
        assert after.coef_subopt - before.coef_subopt == pytest.approx(3 * e_half)
        assert after.coef_consensus - before.coef_consensus == pytest.approx(3 * e_half)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": oops\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)
    # an integer literal past Python's digit limit for reading text as an int
    huge = tmp_path / "huge.json"
    huge.write_text('{"sigma": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match=r"huge\.json: .*digits"):
        load_config(huge)
    good = tmp_path / "good.json"
    import json

    good.write_text(json.dumps(base_config()))
    assert load_config(good)["topology"] == {"kind": "clique"}


def test_load_config_refuses_a_repeated_key(tmp_path, capsys):
    # json.loads keeps a repeated key's last value, so either run would go on silently
    text = json.dumps(base_config(max_rounds=5))
    repeats = {
        "schedule": text[:-1] + ', "schedule": {"max_rounds": 7}}',
        "N": text.replace('"n_g": 2}', '"n_g": 2, "N": 4}'),
    }
    for key, config in repeats.items():
        path = tmp_path / f"repeated_{key}.json"
        path.write_text(config)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: key '{key}' given twice$"):
            load_config(path)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: key '{key}' given twice\n"
    assert not (tmp_path / "out").exists()


def test_optimal_gamma_rule_names_a_seed_whose_solution_is_zero(tmp_path, capsys, monkeypatch):
    # at seed 6, x_star = 0 = x0: the rule's bound falls as gamma grows, so it has no finite gamma
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    cfg = base_config(
        max_rounds=10, problem={"case": 1, "N": 5, "n_g": 1}, topology={"kind": "star"},
        seeds=[6], gamma_rule={"rule": "optimal"},
    )
    assert not reference_for(generate_problem(validate_config(cfg).spec(6))).x_star.any()
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    # seed 0 runs fine, but every seed is set up before the first cell, so it leaves no CSV or summary
    for seeds, commands in (([6], ("check", "bounds")), ([0, 6], ("check", "bounds"))):
        path.write_text(json.dumps({**cfg, "seeds": seeds}))
        for command in commands:
            assert main([command, str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: gamma_rule: seed 6: ") and err.count("\n") == 1
            assert not list(out.glob("*"))


def test_output_dir_precedence(tmp_path, monkeypatch):
    assert output_dir(tmp_path / "x") == tmp_path / "x"
    assert (tmp_path / "x").is_dir()
    monkeypatch.setenv("NETPROX_OUT", str(tmp_path / "env"))
    assert output_dir() == tmp_path / "env"
    monkeypatch.delenv("NETPROX_OUT")
    monkeypatch.chdir(tmp_path)
    assert output_dir() == tmp_path / "netprox_out"


def test_unwritable_output_or_cache_exits_2(tmp_path, capsys, monkeypatch):
    # an output path or a cache that names a file is refused in one line, not a traceback
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    path, taken = tmp_path / "cfg.json", tmp_path / "taken"
    path.write_text(json.dumps(base_config(max_rounds=10)))
    taken.write_text("a file")
    for command in ("check", "bounds", "gen"):
        assert main([command, str(path), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out: cannot make the directory {taken}: ")
        assert err.count("\n") == 1
    monkeypatch.setenv("NETPROX_OUT", str(taken))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: NETPROX_OUT: cannot make the directory {taken}: ")
    assert taken.read_text() == "a file"
    # an instance directory's path taken by a file
    inst = tmp_path / "gen" / f"instance_{validate_config(base_config()).label}_seed0"
    inst.parent.mkdir()
    inst.write_text("a file")
    assert main(["gen", str(path), "--out", str(inst.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make the instance directory {inst}: ")
    assert err.count("\n") == 1
    # the reference is set up before the output directory is made, so nothing is written,
    # and a cache miss fails before the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved for a cache that cannot be written")

    monkeypatch.setattr(bench, "fista_solve", no_solve)
    monkeypatch.setenv("NETPROX_CACHE", str(taken))
    out = tmp_path / "out"
    for command in ("check", "bounds"):
        assert main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: NETPROX_CACHE: cannot write {taken}: ")
        assert err.count("\n") == 1
        assert not list(out.glob("*"))


def test_check_names_the_first_failing_cell_and_check(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    # seed 1's admm reaches the threshold in 40 rounds and its dpga in 120, so 80 starves only dpga
    cfg = base_config(max_rounds=80, algorithms=["admm", "dpga"], seeds=[0, 1])
    summary = run_experiment(cfg, out_dir=out, check=True)
    assert [r["solved"] for r in summary.rows] == [True, True, True, False]
    assert not summary.checks_passed
    assert summary.summary_path.read_text().splitlines()[-1] == "checks: FAIL (dpga_cs seed 1: solved)"
    path.write_text(json.dumps(cfg))
    assert main(["check", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
    # a theorem-3 curve shrunk below the run's errors fails only dpga's bound check; dpga_w's holds
    def shrunk(*args, **kwargs):
        return replace(theorem3_curve(*args, **kwargs), coef_subopt=1e-9, coef_consensus=1e-9)

    monkeypatch.setattr(bench, "theorem3_curve", shrunk)
    summary = run_experiment(
        base_config(algorithms=["dpga_w", "dpga"], seeds=[1], bounds=True), out_dir=out, check=True
    )
    assert all(r["solved"] for r in summary.rows)
    assert summary.summary_path.read_text().splitlines()[-1] == "checks: FAIL (dpga_cs seed 1: bound)"


def test_run_experiment_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    cfg = base_config(bounds=True, seeds=[0, 1])
    out = tmp_path / "runs"
    summary = run_experiment(cfg, out_dir=out, check=True)
    assert summary.checks_passed
    assert len(summary.rows) == 2
    assert all(r["solved"] for r in summary.rows)
    assert len(summary.csv_paths) == 2
    name = summary.csv_paths[0].name
    assert name == "dpga_cs_case1_N2_ng2_clique_seed0.csv"
    text = summary.summary_path.read_text()
    assert "checks: PASS" in text
    assert "dpga_cs" in text

    before = [p.read_bytes() for p in summary.csv_paths]
    again = run_experiment(cfg, out_dir=out, check=True)
    after = [p.read_bytes() for p in again.csv_paths]
    assert before == after


def test_run_experiment_csv_reads_back_as_the_record(tmp_path, monkeypatch):
    # the simulator leaves the bound columns empty; run_experiment writes each
    # bounded cell's curve into that curve's column at every checked round
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    records, collected = [], []
    run = bench._simnet.run_synchronous

    def recording(*args, **kwargs):
        result = run(*args, **kwargs)
        records.append(result.record)
        collected.append(kwargs["collect_ergodic"])
        return result

    monkeypatch.setattr(bench._simnet, "run_synchronous", recording)
    cfg = base_config(max_rounds=40, algorithms=["dpga", "dpga_w", "sdpga", "pg_extra"], bounds=True)
    cfg["schedule"]["check_every"] = 3
    exp = validate_config(cfg)
    summary = run_experiment(cfg, out_dir=tmp_path / "runs")
    setup = bench.cells(exp)
    assert len(records) == len(summary.csv_paths) == len(setup) == 4
    columns = ("bound_theorem3", "bound_theorem4", "bound_sdpga")
    others = [i for i, name in enumerate(simnet.CSV_COLUMNS) if name not in columns]
    filled = {}
    for algorithm, path, record, cell in zip(exp.algorithms, summary.csv_paths, records, setup):
        back = RunRecord.read_csv(path)
        assert [[r[i] for i in others] for r in back.rows] == [[r[i] for i in others] for r in record.rows]
        rounds = back.column("round")
        assert rounds[:-1] == list(range(3, 3 * len(rounds), 3))
        curve = bound_curve(algorithm, exp, cell.problem.objectives, cell.gammas, cell.reference)
        assert (cell.algorithm, cell.curve) == (algorithm, curve)
        filled[algorithm] = None if curve is None else curve.column
        for c in columns:
            assert record.column(c) == [None] * len(rounds)
            if c == filled[algorithm]:
                assert back.column(c) == [float(curve.subopt_bound(k)) for k in rounds]
            else:
                assert back.column(c) == [None] * len(rounds)
    assert filled == {
        "dpga": "bound_theorem3",
        "dpga_w": "bound_theorem4",
        "sdpga": "bound_sdpga",
        "pg_extra": None,
    }
    # only a cell with a curve sums the ergodic iterates its check reads
    assert collected == [True, True, True, False]


def test_run_experiment_passes_horizon_and_gammas_only_where_taken(tmp_path, monkeypatch):
    # run_synchronous rejects a horizon on a noiseless run and gammas on pg_extra
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    cfg = base_config(
        max_rounds=20, algorithms=["sdpga", "dpga", "pg_extra"], sigma=0.05, horizon=20
    )
    summary = run_experiment(cfg, out_dir=tmp_path / "runs")
    assert [r["algorithm"] for r in summary.rows] == ["sdpga", "dpga_cs", "pg_extra"]


def test_run_experiment_rejects_admm_with_unequal_gammas(tmp_path, monkeypatch):
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    cfg = base_config(
        algorithms=["admm"],
        gamma_rule={"rule": "explicit", "value": [1.0, 2.0]},
        max_rounds=50,
    )
    with pytest.raises(ConfigError, match="one shared gamma"):
        run_experiment(cfg, out_dir=tmp_path / "runs")
