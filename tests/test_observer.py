"""The blocked observer against the round-by-round loop: whatever the
algorithm, network, check interval, block length, reference and fault,
simnet.run_synchronous returns what theory.plain_run returns, bit for bit,
or raises what it raises."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netprox import simnet
from netprox.bench import ProblemSpec, generate_problem
from netprox.dpga import gamma_heuristic
from netprox.objective import NetworkObjective
from netprox.simnet import ALGORITHMS, NOISY_ALGORITHMS, RoundSchedule, run_synchronous
from netprox.topology import build_topology
from theory import plain_run

STOP_ON_F = dict(stop_rel_subopt=1e-300, stop_consensus=1e30)  # stop where F has F*'s bits


@functools.lru_cache(maxsize=None)
def instance(case, kind, N):
    # n = 10 N, so m = n / (2N) = 5 rows per node
    objs = generate_problem(ProblemSpec(case=case, N=N, n_g=N, seed=N)).objectives
    return build_topology(kind, N), objs


def poisoned(advance, r, node):
    """advance, but round r returns a state whose x has a NaN in node's row."""

    def step(run, state, k):
        state = advance(run, state, k)
        if k + 1 != r:
            return state
        x = state.x.copy()
        x[node, 0] = np.nan
        return state.evolve(x=x)

    return step


def refusing(phi, bad):
    """NetworkObjective.phi, raising ValueError on any slice equal to bad."""

    def wrapped(self, X):
        if any(np.array_equal(S, bad) for S in (X if X.ndim == 3 else X[None])):
            raise ValueError("phi refuses this iterate")
        return phi(self, X)

    return wrapped


def outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except Exception as exc:
        return exc


def assert_same(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert not isinstance(got, Exception), got
    assert repr(got.record.rows) == repr(want.record.rows)
    assert got.final_x.tobytes() == want.final_x.tobytes()
    assert (got.audit.sent, got.audit.stored, got.audit.rounds) == (
        want.audit.sent, want.audit.stored, want.audit.rounds
    )
    assert (got.rounds, got.solved) == (want.rounds, want.solved)
    if want.ergodic is None:
        assert got.ergodic is None
        return
    assert list(got.ergodic) == list(want.ergodic)
    for key, expected in want.ergodic.items():
        value = got.ergodic[key]
        if isinstance(expected, list):  # subopt_gap without a reference
            assert value == expected, key
        else:
            assert (value.dtype, value.tobytes()) == (expected.dtype, expected.tobytes()), key


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    case=st.sampled_from([1, 2]),
    kind=st.sampled_from(["star", "circle"]),
    N=st.integers(3, 8),
    check_every=st.integers(1, 5),
    max_rounds=st.integers(1, 40),
    B=st.integers(1, 10),
    ergodic=st.booleans(),
    data=st.data(),
)
def test_the_blocked_observer_is_the_round_by_round_loop(
    algorithm, case, kind, N, check_every, max_rounds, B, ergodic, data
):
    g, objs = instance(case, kind, N)
    kwargs = {"collect_ergodic": ergodic}
    if algorithm != "pg_extra":
        kwargs["gammas"] = np.full(N, gamma_heuristic(g))
    if algorithm in NOISY_ALGORITHMS:
        kwargs.update(sigma=0.1, horizon=data.draw(st.sampled_from([None, 40]), label="horizon"))
    checked = [k for k in range(1, max_rounds + 1) if k % check_every == 0 or k == max_rounds]
    thresholds, lo, hi = {}, 1, max_rounds  # the rounds a fault may take
    reference = data.draw(st.sampled_from(["stop", "none", "default"]), label="reference")
    if reference != "none":
        sched = RoundSchedule(max_rounds=max_rounds, check_every=check_every)
        rows = plain_run(algorithm, g, objs, sched, 0, **kwargs).record.rows
        i = len(checked) - 1
        if reference == "stop":
            # the last checked round of each checked round's block
            per_block = max(1, B // check_every)
            ends = [checked[min(len(checked), (j // per_block + 1) * per_block) - 1] for j in range(len(checked))]
            # a fault after the stop in its block, or one up to the stop
            inner = [j for j, k in enumerate(checked) if k < ends[j]]
            after = bool(inner) and data.draw(st.sampled_from([True, False]), label="fault after the stop")
            i = data.draw(st.sampled_from(inner if after else range(len(checked))), label="stop slot")
            stop = checked[i]
            thresholds, lo, hi = STOP_ON_F, *((stop + 1, ends[i]) if after else (stop - B, stop))
        F_star = rows[i][1]
    sched = RoundSchedule(max_rounds=max_rounds, check_every=check_every, **thresholds)

    fault = data.draw(st.sampled_from(["observer", "nan", "none"]), label="fault")
    with pytest.MonkeyPatch.context() as mp:
        if fault == "nan":
            r = data.draw(st.integers(max(lo, 1), min(hi, max_rounds)), label="nan round")
            node = data.draw(st.integers(0, N - 1), label="nan node")
            mp.setitem(simnet._ROUNDS, algorithm, poisoned(simnet._ROUNDS[algorithm], r, node))
        elif fault == "observer":
            r = data.draw(st.sampled_from([k for k in checked if lo <= k <= hi]), label="refused round")
            bad = plain_run(algorithm, g, objs, RoundSchedule(max_rounds=r), 0, **kwargs).final_x
            mp.setattr(NetworkObjective, "phi", refusing(NetworkObjective.phi, bad))
        mp.setattr(simnet, "OBSERVE_BLOCK", B * N * objs[0].n)  # blocks of B rounds' iterates
        if reference != "none":
            kwargs["reference"] = dataclasses.make_dataclass("Reference", ["F_star"])(F_star)
        want = outcome(plain_run, algorithm, g, objs, sched, 0, **kwargs)
        got = outcome(run_synchronous, algorithm, g, objs, sched, 0, **kwargs)
    assert_same(got, want)
