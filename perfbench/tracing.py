"""Span tracer for the traced run.

It wraps netprox's public functions from outside the package, keeps every
span in memory as (name, start, end, parent, cell), and derives self time
and the per-layer metrics from them when the run ends. Nothing in `src/`
knows about it; `installed()` patches the module and class attributes the
package calls through and restores them on exit.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np

from netprox import baselines, bench, dpga, dpga_w, objective, simnet, topology

SETUP = -1  # cell id of spans recorded while the workload sets up

ROUND_SPANS = (
    "dpga.dpga_round",
    "dpga.dpga_round_adaptive",
    "dpga.sdpga_round",
    "dpga_w.dpgaw_round",
    "baselines.pg_extra_round",
)


def _targets():
    """(owner, attribute, span name). Modules that import a function by name
    call it through their own attribute, so each such name is patched where
    it is looked up."""
    node = objective.NodeObjective
    return [
        (node, "f_grad", "objective.f_grad"),
        (node, "prox", "objective.prox"),
        (node, "phi", "objective.phi"),
        (node, "f_value", "objective.f_value"),
        (dpga, "oracle_grad", "objective.oracle_grad"),
        (dpga_w, "oracle_grad", "objective.oracle_grad"),
        (dpga, "dpga_round", "dpga.dpga_round"),
        (dpga, "dpga_round_adaptive", "dpga.dpga_round_adaptive"),
        (dpga, "sdpga_round", "dpga.sdpga_round"),
        (dpga, "adaptive_backtrack", "dpga.backtrack"),
        (dpga_w, "dpgaw_round", "dpga_w.dpgaw_round"),
        (baselines, "pg_extra_round", "baselines.pg_extra_round"),
        (simnet.Transport, "exchange", "simnet.exchange"),
        (simnet.AuditLog, "record_exchange", "simnet.audit"),
        (simnet.AuditLog, "record_storage", "simnet.audit"),
        (simnet, "network_objective", "simnet.observer"),
        (simnet, "consensus_metrics", "simnet.observer"),
        (simnet, "ergodic_aggregates", "simnet.observer"),
        (simnet, "run_synchronous", "simnet.run"),
        (simnet.RunRecord, "write_csv", "bench.write_csv"),
        (bench, "fista_solve", "reference.solve"),
        (bench, "load_reference", "reference.load"),
        (bench, "generate_problem", "bench.generate"),
        (bench, "theorem3_curve", "bench.bound_curves"),
        (bench, "theorem4_curve", "bench.bound_curves"),
        (bench, "corollary2_curve", "bench.bound_curves"),
        (bench, "build_topology", "topology.setup"),
        (bench, "spectral_summary", "topology.setup"),
        (topology, "build_topology", "topology.setup"),
        (simnet, "mixing_pair", "topology.setup"),
    ]


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t = perf_counter()
    for _ in range(calls):
        noop()
    base = perf_counter() - t
    t = perf_counter()
    for _ in range(calls):
        traced()
    return (perf_counter() - t - base) / calls


class Tracer:
    """In-memory spans in flat arrays; one open-span stack (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_cell = SETUP
        self._stack: list[int] = []
        self.cache_hits = 0
        self.scalars_sent = 0  # summed over nodes, from each run's AuditLog
        self.node_rounds = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        names, parents, cells, starts, ends = self.name, self.parent, self.cell, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cells.append(self.current_cell)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_load(self, ref):
        if ref is not None and self.current_cell != SETUP:
            self.cache_hits += 1

    def _on_run(self, result):
        if result.audit is not None and self.current_cell != SETUP:
            self.scalars_sent += sum(result.audit.scalars_sent.values())
            self.node_rounds += result.audit.node_count * result.audit.rounds

    @contextlib.contextmanager
    def installed(self):
        hooks = {"reference.load": self._on_load, "simnet.run": self._on_run}
        saved = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hooks.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def span_count(self) -> tuple[int, int]:
        """(all spans, spans recorded inside cells)."""
        cells = np.frombuffer(self.cell, dtype=np.intc)
        return cells.size, int(np.count_nonzero(cells != SETUP))

    def metrics(self, flops_per_grad: float) -> tuple[dict, dict]:
        """(per-layer metrics named in BENCHMARK.json, metrics of layers that
        run on some workloads only). Units are in BENCHMARK.json.

        Objective, algorithm and simnet layers are read from the traced
        cells only, since the reference solve during set-up would swamp
        them. Reference, bench and topology layers cover the whole traced
        run: set-up plus traced cells.
        """
        name = np.frombuffer(self.name, dtype=np.intc).copy()
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.intp)
        in_cell = np.frombuffer(self.cell, dtype=np.intc) != SETUP
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        pidx = np.where(has_parent, parent, 0)
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child

        def is_(span):
            if span not in self._ids:
                return np.zeros(dur.size, dtype=bool)
            return name == self._ids[span]

        def under(flag):
            # spans with an ancestor where flag holds; parents precede children
            out = np.zeros(dur.size, dtype=bool)
            while True:
                new = has_parent & (flag[pidx] | out[pidx])
                if np.array_equal(new, out):
                    return out
                out = new

        def outer(span):
            mask = is_(span)
            return mask & ~under(mask)

        def cells(span):
            return is_(span) & in_cell

        f_grad = cells("objective.f_grad")
        grad_calls = int(f_grad.sum())
        grad_self = float(self_t[f_grad].sum())
        rounds = np.zeros(dur.size, dtype=bool)
        for span in ROUND_SPANS:
            rounds |= cells(span)
        round_durs = dur[rounds]
        observer_incl = float(dur[outer("simnet.observer") & in_cell].sum())
        run_incl = float(dur[outer("simnet.run") & in_cell].sum())
        backtracks = cells("dpga.backtrack")
        trials = int((cells("objective.prox") & has_parent & backtracks[pidx]).sum())
        solve = is_("reference.solve")

        m = {
            "objective.f_grad.calls": grad_calls,
            "objective.f_grad.self_s": grad_self,
            "objective.f_grad.flops_per_s": grad_calls * flops_per_grad / grad_self if grad_self else 0.0,
            "objective.prox.calls": int(cells("objective.prox").sum()),
            "objective.prox.self_s": float(self_t[cells("objective.prox")].sum()),
            "objective.phi.calls": int(cells("objective.phi").sum()),
            "objective.phi.self_s": float(self_t[cells("objective.phi")].sum()),
            "objective.f_value.calls": int(cells("objective.f_value").sum()),
            "objective.oracle_grad.calls": int(cells("objective.oracle_grad").sum()),
            "algorithm.round.self_s": float(self_t[rounds].sum()),
            "simnet.exchange.calls": int(cells("simnet.exchange").sum()),
            "simnet.exchange.self_s": float(self_t[cells("simnet.exchange")].sum()),
            "simnet.audit.self_s": float(self_t[cells("simnet.audit")].sum()),
            "simnet.observer.self_s": float(self_t[cells("simnet.observer")].sum()),
            "simnet.observer.share": observer_incl / run_incl if run_incl else 0.0,
            "simnet.run.self_s": float(self_t[cells("simnet.run")].sum()),
            "simnet.round.p50_s": float(np.percentile(round_durs, 50)) if round_durs.size else 0.0,
            "simnet.round.p99_s": float(np.percentile(round_durs, 99)) if round_durs.size else 0.0,
            "simnet.scalars_sent": self.scalars_sent / self.node_rounds if self.node_rounds else 0.0,
            "dpga.backtrack.accept_ratio": int(backtracks.sum()) / trials if trials else 0.0,
            "reference.solve.incl_s": float(dur[outer("reference.solve")].sum()),
            "reference.solve.f_grad_calls": int((is_("objective.f_grad") & under(solve)).sum()),
            "reference.cache_hits": self.cache_hits,
            "bench.generate.s": float(dur[outer("bench.generate")].sum()),
            "topology.setup.s": float(dur[outer("topology.setup")].sum()),
        }
        partial = {
            "objective.oracle_grad.self_s": float(self_t[cells("objective.oracle_grad")].sum()),
            **{f"{span}.self_s": float(self_t[cells(span)].sum()) for span in ROUND_SPANS},
            "reference.load.s": float(dur[outer("reference.load")].sum()),
            "bench.bound_curves.s": float(dur[outer("bench.bound_curves")].sum()),
            "bench.write_csv.s": float(dur[outer("bench.write_csv")].sum()),
        }
        return m, {k: v for k, v in partial.items() if v > 0}
