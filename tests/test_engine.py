"""Block-problem engine: step equivalences, exactness residuals, bounds."""

import numpy as np
import pytest

from conftest import random_objective, random_objectives
from netprox.engine import (
    Block,
    BlockProblem,
    Chunk,
    EngineState,
    ZeroCoupling,
    ZeroSumCoupling,
    constant_plan,
    pgadmm_step,
    primal_dual_step,
    step_rule,
)
from netprox.objective import NoisyOracle
from theory import (
    constraint_residuals,
    diminishing_plan,
    engine_objective,
    ergodic_mean,
    horizon_plan,
    lyapunov_a,
    spgadmm_step,
    theorem1_rhs,
    theorem2_constant,
    y_step_residual,
)


def pair_consensus_problem(rng, n=5, gamma=(1.0, 2.0)):
    """Two nodes agreeing through one shared edge variable."""
    objs = random_objectives(rng, 2, n=n, m=3)
    eye, zero = np.eye(n), np.zeros(n)
    blocks = (
        Block(chunks=(Chunk(A=eye, b=zero, slot=0),)),
        Block(chunks=(Chunk(A=eye, b=zero, slot=0),)),
    )
    return BlockProblem(
        blocks=blocks,
        objectives=tuple(objs),
        gammas=np.array(gamma),
        coupling=ZeroCoupling(),
    )


def single_block_zero_sum(rng, n=4):
    """One composite block, two slots tied by a zero-sum group."""
    obj = random_objective(rng, n=n, m=3)
    blocks = (
        Block(
            chunks=(
                Chunk(A=rng.standard_normal((n, n)), b=np.zeros(n), slot=0),
                Chunk(A=rng.standard_normal((n, n)), b=np.zeros(n), slot=1),
            )
        ),
    )
    return BlockProblem(
        blocks=blocks,
        objectives=(obj,),
        gammas=np.array([1.3]),
        coupling=ZeroSumCoupling(((0, 1),)),
    )


def run_engine(prob, x0, t, plan=None):
    plan = plan or constant_plan(prob)
    state = EngineState.initial(prob, x0)
    states = [state]
    for _ in range(t):
        state = pgadmm_step(state, prob, plan)
        states.append(state)
    return states


def test_problem_validation():
    rng = np.random.default_rng(0)
    objs = random_objectives(rng, 2, n=3, m=2)
    blk = Block(chunks=(Chunk(A=np.eye(3), b=np.zeros(3), slot=0),))
    with pytest.raises(ValueError):
        BlockProblem(
            blocks=(blk,), objectives=tuple(objs), gammas=np.array([1.0, 1.0]),
            coupling=ZeroCoupling(),
        )
    with pytest.raises(ValueError):
        BlockProblem(
            blocks=(blk, blk), objectives=tuple(objs), gammas=np.array([1.0, -1.0]),
            coupling=ZeroCoupling(),
        )
    with pytest.raises(ValueError, match="gammas must be finite and positive, got \\[1.0, nan\\]"):
        BlockProblem(
            blocks=(blk, blk), objectives=tuple(objs), gammas=np.array([1.0, np.nan]),
            coupling=ZeroCoupling(),
        )
    # slot ids must be contiguous from zero
    blk_hole = Block(chunks=(Chunk(A=np.eye(3), b=np.zeros(3), slot=1),))
    with pytest.raises(ValueError):
        BlockProblem(
            blocks=(blk_hole, blk_hole), objectives=tuple(objs),
            gammas=np.array([1.0, 1.0]), coupling=ZeroCoupling(),
        )
    with pytest.raises(ValueError):
        Block(chunks=())
    with pytest.raises(ValueError):
        ZeroSumCoupling(((0, 1), (1, 2)))


def test_slot_weights_accumulate_gammas():
    rng = np.random.default_rng(1)
    prob = pair_consensus_problem(rng, gamma=(1.0, 2.5))
    assert np.allclose(prob.slot_weights, [3.5])
    assert np.allclose(prob.norm_A_sq, [1.0, 1.0])


def test_default_y0_minimizes_augmented_terms():
    rng = np.random.default_rng(2)
    prob = pair_consensus_problem(rng, gamma=(1.0, 3.0))
    x0 = [rng.standard_normal(5), rng.standard_normal(5)]
    state = EngineState.initial(prob, x0)
    expected = (1.0 * x0[0] + 3.0 * x0[1]) / 4.0
    assert np.allclose(state.y[0], expected, atol=1e-14)
    assert y_step_residual(prob, state) < 1e-12


def test_explicit_y0_shape_checked():
    rng = np.random.default_rng(3)
    prob = pair_consensus_problem(rng)
    x0 = [np.zeros(5), np.zeros(5)]
    with pytest.raises(ValueError):
        EngineState.initial(prob, x0, y0=[np.zeros(4)])
    st = EngineState.initial(prob, x0, y0=[np.ones(5)])
    assert np.allclose(st.y[0], 1.0)


def test_constant_plan_validates_caps():
    rng = np.random.default_rng(4)
    prob = pair_consensus_problem(rng)
    plan = constant_plan(prob)
    cap = np.array([o.lipschitz for o in prob.objectives]) + prob.gammas
    assert np.all(plan.base * cap <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        constant_plan(prob, explicit=1.5 / cap)
    with pytest.raises(ValueError):
        constant_plan(prob, safety=0.0)
    with pytest.raises(ValueError, match="explicit must be finite and positive, got \\[nan, nan\\]"):
        constant_plan(prob, explicit=np.full(2, np.nan))
    ok = constant_plan(prob, explicit=1.0 / cap)  # equality is admissible
    assert np.allclose(ok.base * cap, 1.0)


def test_schedules():
    rng = np.random.default_rng(5)
    prob = pair_consensus_problem(rng)
    dim = diminishing_plan(prob)
    assert np.allclose(dim.step_sizes(0), dim.base)  # first step uses the base
    assert np.all(dim.step_sizes(4) < dim.step_sizes(1))
    assert np.allclose(1.0 / dim.step_sizes(9), 1.0 / dim.base + 3.0)
    hor = horizon_plan(prob, 16)
    assert np.allclose(1.0 / hor.step_sizes(0), 1.0 / hor.base + 4.0)
    assert np.allclose(hor.step_sizes(0), hor.step_sizes(999))
    with pytest.raises(ValueError):
        horizon_plan(prob, 0)


@pytest.mark.parametrize("rule", [None, "horizon", "diminishing"])
def test_step_rule_rejects_a_horizon_below_one(rule):
    assert step_rule(rule, 1) == (rule or "horizon")
    for horizon in (0, -5):
        with pytest.raises(ValueError, match=f"horizon must be at least 1, got {horizon}"):
            step_rule(rule, horizon)


def test_y_step_stays_exact_along_the_run():
    rng = np.random.default_rng(6)
    prob = pair_consensus_problem(rng)
    x0 = [rng.standard_normal(5), rng.standard_normal(5)]
    for state in run_engine(prob, x0, 25)[1:]:
        assert y_step_residual(prob, state) < 1e-10


def test_zero_sum_coupling_argmin_feasible_and_optimal():
    rng = np.random.default_rng(7)
    prob = single_block_zero_sum(rng)
    x0 = [rng.standard_normal(4)]
    states = run_engine(prob, x0, 20)
    for state in states:
        assert np.linalg.norm(state.y[0] + state.y[1]) < 1e-12
    for state in states[1:]:
        assert y_step_residual(prob, state) < 1e-10


def test_ergodic_mean_accumulates_from_first_step():
    rng = np.random.default_rng(8)
    prob = pair_consensus_problem(rng)
    x0 = [rng.standard_normal(5), rng.standard_normal(5)]
    states = run_engine(prob, x0, 7)
    xs = [st.x for st in states[1:]]
    xbar, ybar = ergodic_mean(states)
    manual = sum(np.asarray(x[0]) for x in xs) / 7
    assert np.allclose(xbar[0], manual, atol=1e-14)
    with pytest.raises(ValueError):
        ergodic_mean(states[:1])


def test_noiseless_stochastic_step_matches_deterministic():
    rng = np.random.default_rng(9)
    prob = pair_consensus_problem(rng)
    x0 = [rng.standard_normal(5), rng.standard_normal(5)]
    plan = constant_plan(prob)
    oracles = [NoisyOracle.for_node(0.0, 0, i) for i in range(2)]
    a = EngineState.initial(prob, x0)
    b = EngineState.initial(prob, x0)
    for _ in range(30):
        a = pgadmm_step(a, prob, plan)
        b = spgadmm_step(b, prob, plan, oracles)
    for u, v in zip(a.x, b.x):
        assert np.array_equal(u, v)


def test_constant_plan_with_noise_rejected():
    rng = np.random.default_rng(10)
    prob = pair_consensus_problem(rng)
    plan = constant_plan(prob)
    oracles = [NoisyOracle.for_node(0.5, 0, i) for i in range(2)]
    state = EngineState.initial(prob, [np.zeros(5), np.zeros(5)])
    with pytest.raises(ValueError):
        spgadmm_step(state, prob, plan, oracles)
    # the diminishing schedule accepts the same oracles
    spgadmm_step(state, prob, diminishing_plan(prob), oracles)


def test_primal_dual_equivalence_free_coupling():
    rng = np.random.default_rng(11)
    obj = random_objective(rng, n=4, m=3)
    blocks = (
        Block(
            chunks=(
                Chunk(A=rng.standard_normal((3, 4)), b=np.zeros(3), slot=0),
                Chunk(A=rng.standard_normal((2, 4)), b=np.zeros(2), slot=1),
            )
        ),
    )
    prob = BlockProblem(
        blocks=blocks, objectives=(obj,), gammas=np.array([0.8]),
        coupling=ZeroCoupling(),
    )
    _check_primal_dual_match(prob, rng, n=4)


def test_primal_dual_equivalence_zero_sum_coupling():
    rng = np.random.default_rng(12)
    prob = single_block_zero_sum(rng)
    _check_primal_dual_match(prob, rng, n=4)


def _check_primal_dual_match(prob, rng, n):
    plan = constant_plan(prob)
    c = float(plan.base[0])
    gamma = float(prob.gammas[0])
    x0 = rng.standard_normal(n)
    state = EngineState.initial(prob, [x0])

    x = x0.copy()
    chunks = prob.blocks[0].chunks
    lam = [np.zeros(ch.A.shape[0]) for ch in chunks]
    # seed so that 2 lam - lam_prev reproduces the engine drive at k = 0
    lam_prev = [
        lam[r] - gamma * (ch.A @ x0 - state.y[ch.slot])
        for r, ch in enumerate(chunks)
    ]
    for _ in range(120):
        state = pgadmm_step(state, prob, plan)
        x, lam_new = primal_dual_step(x, lam, lam_prev, prob, c, gamma)
        lam_prev, lam = lam, lam_new
        assert np.linalg.norm(state.x[0] - x) < 1e-10
        for r in range(len(lam)):
            assert np.linalg.norm(state.lam[0][r] - lam[r]) < 1e-10


def test_primal_dual_requires_single_identity_block():
    rng = np.random.default_rng(13)
    prob = pair_consensus_problem(rng)
    with pytest.raises(ValueError):
        primal_dual_step(
            np.zeros(5), [np.zeros(5)], [np.zeros(5)], prob, 0.1, 1.0
        )


def _solve_saddle(prob, x0, iters=2000):
    """The saddle point, as the state after iters steps, whose last step must
    have moved no entry of (x, y, lambda) by more than 1e-14: the run settles
    within a few hundred steps, after which it only cycles in the last bits."""
    plan = constant_plan(prob)
    state = EngineState.initial(prob, x0)
    for _ in range(iters):
        prev, state = state, pgadmm_step(state, prob, plan)

    def entries(st):
        return np.concatenate([*st.x, *st.y, *(v for li in st.lam for v in li)])

    assert np.max(np.abs(entries(state) - entries(prev))) <= 1e-14
    return state


def test_ergodic_inequality_for_any_multiplier():
    rng = np.random.default_rng(14)
    prob = pair_consensus_problem(rng, n=4)
    x0 = [rng.standard_normal(4), rng.standard_normal(4)]
    star = _solve_saddle(prob, x0)
    F_star = engine_objective(prob, star.x, star.y)
    lam_star = star.lam

    # a third multiplier: lam* pushed outward to twice its own norm
    flat = np.concatenate([np.concatenate(li) for li in lam_star])
    norm = np.linalg.norm(flat)
    direction = flat / norm if norm > 0 else np.ones_like(flat) / np.sqrt(flat.size)
    pushed_flat = flat + 2.0 * norm * direction
    pushed, ofs = [], 0
    for li in lam_star:
        row = []
        for v in li:
            row.append(pushed_flat[ofs : ofs + v.size])
            ofs += v.size
        pushed.append(tuple(row))
    zero = tuple(tuple(np.zeros_like(v) for v in li) for li in lam_star)

    plan = constant_plan(prob)
    state = EngineState.initial(prob, x0)
    states = [state]
    y0 = [np.array(v) for v in state.y]
    for t in range(1, 301):
        state = pgadmm_step(state, prob, plan)
        states.append(state)
        if t % 50 != 0:
            continue
        xbar, ybar = ergodic_mean(states)
        gap0 = engine_objective(prob, xbar, ybar) - F_star
        resid = constraint_residuals(prob, xbar, ybar)
        for lam_choice in (zero, tuple(lam_star), tuple(pushed)):
            gap = gap0
            for i, li in enumerate(lam_choice):
                for r, v in enumerate(li):
                    gap += float(v @ resid[i][r])
            rhs = theorem1_rhs(prob, plan.base, x0, y0, star.x, star.y, lam_choice, t)
            assert gap <= rhs + 1e-9


def test_constant_step_error_constant_bounds_gap():
    rng = np.random.default_rng(15)
    prob = pair_consensus_problem(rng, n=4)
    x0 = [rng.standard_normal(4), rng.standard_normal(4)]
    star = _solve_saddle(prob, x0)
    F_star = engine_objective(prob, star.x, star.y)
    plan = constant_plan(prob)
    state = EngineState.initial(prob, x0)
    states = [state]
    y0 = [np.array(v) for v in state.y]
    C = theorem2_constant(prob, plan.base, x0, y0, star.x, star.y, star.lam)
    assert C > 0
    for t in range(1, 401):
        state = pgadmm_step(state, prob, plan)
        states.append(state)
        if t % 100 == 0:
            xbar, ybar = ergodic_mean(states)
            gap = abs(engine_objective(prob, xbar, ybar) - F_star)
            assert gap <= C / t + 1e-9


def test_lyapunov_nonincreasing():
    rng = np.random.default_rng(16)
    prob = pair_consensus_problem(rng, n=4)
    x0 = [rng.standard_normal(4), rng.standard_normal(4)]
    star = _solve_saddle(prob, x0)
    plan = constant_plan(prob)
    state = EngineState.initial(prob, x0)
    prev = lyapunov_a(prob, plan.base, state, star.x, star.y, star.lam)
    for _ in range(200):
        state = pgadmm_step(state, prob, plan)
        cur = lyapunov_a(prob, plan.base, state, star.x, star.y, star.lam)
        assert cur <= prev + 1e-9
        prev = cur


def test_engine_drives_edge_consensus_to_agreement():
    rng = np.random.default_rng(17)
    prob = pair_consensus_problem(rng, n=4)
    x0 = [rng.standard_normal(4), rng.standard_normal(4)]
    state = run_engine(prob, x0, 4000)[-1]
    assert np.linalg.norm(state.x[0] - state.x[1]) < 1e-3
    resid = constraint_residuals(prob, state.x, state.y)
    assert max(np.linalg.norm(r) for li in resid for r in li) < 1e-3
