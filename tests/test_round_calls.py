"""The fixed cost of a small-N round, counted: sys.setprofile's Python-level
("call") and C-function ("c_call") events per checked ergodic round, as the
difference between a run of 2R rounds and one of R rounds, so set-up cancels.
A count does not drift with the machine the way a timing does; a change that
adds calls to every round raises it and fails here until the ceiling is
raised on purpose."""

import gc
import sys

import numpy as np
import pytest

from netprox.bench import ProblemSpec, generate_problem
from netprox.dpga import gamma_heuristic
from netprox.simnet import NOISY_ALGORITHMS, RoundSchedule, run_synchronous
from netprox.topology import build_topology

# (Python-level calls, C-function calls) per round at star N = 5; the block of
# B = 10 noise draws refills every 10 noisy rounds, and the observer takes a
# block of 8 checked rounds (OBSERVE_BLOCK // (N n), n = 200) with one call of
# each of its names, hence the fractions. A ufunc call is no profile event, so
# the observer's roots through np.sqrt count nothing. The noisy runs take
# horizon 300, or the diminishing rule (no horizon) under a "_diminishing" key.
CEILINGS = {
    "dpga": (15.875, 32.625),
    "sdpga": (18.875, 33.625),
    "sdpga_diminishing": (18.875, 33.625),
    "dpga_w": (17.875, 38.625),
    "sdpga_w": (20.875, 39.625),
    "sdpga_w_diminishing": (20.875, 39.625),
    "pg_extra": (14.875, 38.625),
}
R = 40  # a multiple of both blocks, so 2R - R rounds hold whole refills and whole observer blocks


def events(key, rounds):
    g = build_topology("star", 5)
    objs = generate_problem(ProblemSpec(case=1, N=5, n_g=20, seed=0)).objectives
    algorithm = key.removesuffix("_diminishing")
    kwargs = {} if algorithm == "pg_extra" else {"gammas": np.full(5, gamma_heuristic(g))}
    if algorithm in NOISY_ALGORITHMS:
        kwargs.update(sigma=0.1, horizon=None if key.endswith("_diminishing") else 300)
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    gc.collect()  # a collection mid-run would count the finalizers of other tests' garbage
    gc.disable()
    sys.setprofile(profile)
    try:
        run_synchronous(
            algorithm, g, objs, RoundSchedule(max_rounds=rounds), 0,
            collect_ergodic=True, **kwargs,
        )
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("algorithm", sorted(CEILINGS))
def test_a_checked_ergodic_round_stays_under_its_call_ceiling(algorithm):
    (py_r, c_r), (py_2r, c_2r) = events(algorithm, R), events(algorithm, 2 * R)
    per_round = ((py_2r - py_r) / R, (c_2r - c_r) / R)
    py_max, c_max = CEILINGS[algorithm]
    assert per_round[0] <= py_max and per_round[1] <= c_max, (algorithm, per_round)
