"""Smoke test of the benchmark's checks at tiny sizes.

Runs one real cell of each workload shape on an n = 20 instance, expects
every check to pass on the real outputs, then corrupts one output at a time
(a perturbed F*, an audit off by one scalar, bound curves shrunk below the
measured errors, recorded values off by one round or 1e-9 in F) and expects
the matching check to fire. Exits 1 if any expectation fails.

    python3 perfbench/smoke.py
"""

import dataclasses
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads as W  # noqa: E402


class TinyThreshold(W.ThresholdStar5):
    CASE1_INSTANCES = 2  # the second one runs the AS kind
    n_g = 2


class TinyNoisy(W.NoisySeedsStar5):
    HORIZON = 50
    n_g = 2


class TinyErgodic(W.ErgodicCircle50):
    ROUNDS = 30
    N, n_g = 5, 2


def shrink(curve):
    return dataclasses.replace(
        curve,
        coef_subopt=curve.coef_subopt * 1e-9,
        coef_consensus=curve.coef_consensus * 1e-9,
        coef_sqrt=curve.coef_sqrt * 1e-9,
    )


def main() -> int:
    outcomes = []

    def expect(label, problems, fire):
        ok = bool(problems) == fire
        outcomes.append(ok)
        seen = "fired" if problems else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {seen}" + (f" ({problems[0]})" if problems else ""))

    run.HERE.joinpath("_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE / "_work") as tmp:
        run.fresh_cache(run.Path(tmp), "smoke")

        wl = TinyThreshold(0)
        refs = wl.setup()
        cell = next(c for c in wl.traced_cells() if c.case == 1 and c.step_mode == "AS")
        out = wl.run_cell(refs, cell, run.Path(tmp))
        expect("threshold, real output", wl.check_cell(refs, cell, out), fire=False)
        golden = {cell.key: [out.rounds, out.final_F]}
        expect("recorded values, real output", W.check_golden(golden, cell.key, out.rounds, out.final_F), False)
        ref = refs[(cell.case, cell.seed)]
        bad_refs = {**refs, (cell.case, cell.seed): dataclasses.replace(ref, F_star=ref.F_star * 1.01)}
        expect("threshold, F* perturbed by 1%", wl.check_cell(bad_refs, cell, out), fire=True)
        expect("recorded F off by 1e-9", W.check_golden(golden, cell.key, out.rounds, out.final_F * (1 + 1e-9)), True)
        expect("recorded rounds off by one", W.check_golden(golden, cell.key, out.rounds + 1, out.final_F), True)

        wl = TinyNoisy(0)
        st = wl.setup()
        cells = [next(iter(wl.timed_cells())), *wl.traced_cells()[1:3]]
        outs = [wl.run_cell(st, c, None) for c in cells]
        expect("sdpga audit, real output", W.check_audit(outs[0].data.audit, "sdpga"), False)
        outs[0].data.audit.scalars_sent[0] += 1
        expect("sdpga audit, one scalar too many", W.check_audit(outs[0].data.audit, "sdpga"), True)
        ergodic = outs[1].data.ergodic
        expect("corollary-2 curve, real output", W.check_bound(ergodic, st.curves["sdpga"], "edge_aggregate"), False)
        expect("corollary-2 curve, shrunk", W.check_bound(ergodic, shrink(st.curves["sdpga"]), "edge_aggregate"), True)
        for c, o in zip(cells[1:], outs[1:]):
            wl.check_cell(st, c, o)
        expect("seed-mean gap, real output", wl.check_run(st, outs[1:]), False)
        shrunk = dataclasses.replace(st, curves={"sdpga": shrink(st.curves["sdpga"])})
        expect("seed-mean gap, curve shrunk", wl.check_run(shrunk, outs[1:]), True)

        wl = TinyErgodic(0)
        st = wl.setup()
        for cell in wl.traced_cells():
            out = wl.run_cell(st, cell, None)
            expect(f"{cell.algorithm} audit and curve, real output", wl.check_cell(st, cell, out), False)
            out = wl.run_cell(st, cell, None)
            shrunk = dataclasses.replace(st, curves={cell.algorithm: shrink(st.curves[cell.algorithm])})
            expect(f"{cell.algorithm} curve, shrunk", wl.check_cell(shrunk, cell, out), True)

    print(f"{sum(outcomes)}/{len(outcomes)} expectations met")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
