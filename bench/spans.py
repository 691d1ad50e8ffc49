"""Span tracing for the benchmark's traced run.

The tracer wraps, from outside the program, the functions and methods each
layer is called through.  A function is patched in every ``contact9`` module
that binds it, so a call through any import path is seen.  Spans are kept in
memory (name, parent, start, end) and written out when the run ends; a
span's self time is its duration minus the time its direct child spans
cover.

Layer metrics are reported for one set-up plus one round: the set-up spans
count once, and the spans of the timed phase are divided by the number of
rounds.  Every round does the same work, so the counts are whole numbers and
repeat exactly between runs with the same seed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name).  ``Class.method`` attributes patch the class.
TARGETS = (
    ("contact9.simplicial", "coboundary", "simplicial.coboundary"),
    ("contact9.simplicial", "coboundary_matrix", "simplicial.coboundary_matrix"),
    ("contact9.simplicial", "cup", "simplicial.cup"),
    ("contact9.simplicial", "cup_i", "simplicial.cup_i"),
    ("contact9.intlinalg", "snf", "intlinalg.snf"),
    ("contact9.intlinalg", "safe_matmul", "intlinalg.safe_matmul"),
    ("contact9.f2", "echelon", "f2.echelon"),
    ("contact9.cohomology", "Cohomology._build", "cohomology.group"),
    ("contact9.cohomology", "Cohomology.class_of", "cohomology.class_of"),
    ("contact9.cohomology", "Cohomology.sq", "cohomology.sq"),
    ("contact9.cohomology", "Cohomology.cup", "cohomology.cup"),
    ("contact9.cohomology", "Cohomology.bockstein", "cohomology.bockstein"),
    ("contact9.model", "validate", "model.validate"),
    ("contact9.model", "_structural_checks", "model.validate.structural"),
    ("contact9.model", "_operation_checks", "model.validate.operation"),
    ("contact9.model", "_ring_checks", "model.validate.ring"),
    ("contact9.model", "_pairing_checks", "model.validate.pairing"),
    ("contact9.model", "_nine_manifold_checks", "model.validate.nine_manifold"),
    ("contact9.model", "from_simplicial", "model.from_simplicial"),
    ("contact9.model", "connected_sum", "model.connected_sum"),
    ("contact9.charclasses", "solve_wu_degree", "charclasses.solve_wu_degree"),
    ("contact9.charclasses", "sw_classes", "charclasses.sw_classes"),
    ("contact9.charclasses", "compute_dm", "charclasses.compute_dm"),
    ("contact9.charclasses", "spinc_data", "charclasses.spinc_data"),
    ("contact9.charclasses", "half_product_solutions", "charclasses.half_product_solutions"),
    ("contact9.decider", "decide", "decider.decide"),
    ("contact9.decider", "evaluate_omega_pc", "decider.evaluate_omega_pc"),
    ("contact9.decider", "decide_connected_sum", "decider.decide_connected_sum"),
    ("contact9.schema", "parse_model", "schema.parse_model"),
    ("contact9.cli", "run", "cli.run"),
)

# group construction is one method; its span is named by the coefficients
_GROUP_NAMES = {0: "cohomology.group_z", 2: "cohomology.group_f2"}

# metric name -> (span name, statistic); statistics: calls, self (seconds of
# self time), total (seconds of span duration), or a counter of that name
METRICS = {
    "simplicial.coboundary.calls": ("simplicial.coboundary", "calls"),
    "simplicial.coboundary.self_s": ("simplicial.coboundary", "self"),
    "simplicial.coboundary_matrix.self_s": ("simplicial.coboundary_matrix", "self"),
    "simplicial.cup.calls": ("simplicial.cup", "calls"),
    "simplicial.cup.self_s": ("simplicial.cup", "self"),
    "simplicial.cup_i.calls": ("simplicial.cup_i", "calls"),
    "simplicial.cup_i.self_s": ("simplicial.cup_i", "self"),
    "intlinalg.snf.calls": ("intlinalg.snf", "calls"),
    "intlinalg.snf.entries": ("intlinalg.snf", "entries"),
    "intlinalg.snf.bigint_calls": ("intlinalg.snf", "bigint"),
    "intlinalg.snf.self_s": ("intlinalg.snf", "self"),
    "intlinalg.safe_matmul.calls": ("intlinalg.safe_matmul", "calls"),
    "intlinalg.safe_matmul.self_s": ("intlinalg.safe_matmul", "self"),
    "f2.echelon.calls": ("f2.echelon", "calls"),
    "f2.echelon.self_s": ("f2.echelon", "self"),
    "cohomology.group_z.self_s": ("cohomology.group_z", "self"),
    "cohomology.group_f2.self_s": ("cohomology.group_f2", "self"),
    "cohomology.class_of.calls": ("cohomology.class_of", "calls"),
    "cohomology.class_of.self_s": ("cohomology.class_of", "self"),
    "cohomology.sq.calls": ("cohomology.sq", "calls"),
    "cohomology.sq.self_s": ("cohomology.sq", "self"),
    "cohomology.cup.self_s": ("cohomology.cup", "self"),
    "cohomology.bockstein.self_s": ("cohomology.bockstein", "self"),
    "model.validate.calls": ("model.validate", "calls"),
    "model.validate.structural_s": ("model.validate.structural", "total"),
    "model.validate.operation_s": ("model.validate.operation", "total"),
    "model.validate.ring_s": ("model.validate.ring", "total"),
    "model.validate.pairing_s": ("model.validate.pairing", "total"),
    "model.validate.nine_manifold_s": ("model.validate.nine_manifold", "total"),
    "model.from_simplicial.self_s": ("model.from_simplicial", "self"),
    "model.connected_sum.calls": ("model.connected_sum", "calls"),
    "model.connected_sum.self_s": ("model.connected_sum", "self"),
    "charclasses.solve_wu_degree.calls": ("charclasses.solve_wu_degree", "calls"),
    "charclasses.solve_wu_degree.self_s": ("charclasses.solve_wu_degree", "self"),
    "charclasses.sw_classes.calls": ("charclasses.sw_classes", "calls"),
    "charclasses.sw_classes.self_s": ("charclasses.sw_classes", "self"),
    "charclasses.compute_dm.self_s": ("charclasses.compute_dm", "self"),
    "charclasses.spinc_data.self_s": ("charclasses.spinc_data", "self"),
    "charclasses.half_product_solutions.calls": ("charclasses.half_product_solutions", "calls"),
    "decider.decide.calls": ("decider.decide", "calls"),
    "decider.decide.self_s": ("decider.decide", "self"),
    "decider.evaluate_omega_pc.self_s": ("decider.evaluate_omega_pc", "self"),
    "decider.decide_connected_sum.self_s": ("decider.decide_connected_sum", "self"),
    "schema.parse_model.calls": ("schema.parse_model", "calls"),
    "schema.parse_model.self_s": ("schema.parse_model", "self"),
    "cli.run.calls": ("cli.run", "calls"),
    "cli.run.self_s": ("cli.run", "self"),
}


def metric_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        # per span index of an intlinalg.snf span: input entries, bigint flag
        self.snf_entries: dict[int, int] = {}
        self.snf_bigint: dict[int, int] = {}
        self.timed_from = 0
        self.rounds = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        if name == "cohomology.group":
            ids = {m: self._id(n) for m, n in _GROUP_NAMES.items()}
            other = self._id("cohomology.group_z2j")

            @functools.wraps(fn)
            def traced(obj, modulus, degree):
                idx = self._open(ids.get(modulus, other))
                try:
                    return fn(obj, modulus, degree)
                finally:
                    self._close(idx)

            return traced
        if name == "intlinalg.snf":
            name_id = self._id(name)

            @functools.wraps(fn)
            def traced(matrix):
                idx = self._open(name_id)
                try:
                    res = fn(matrix)
                finally:
                    self._close(idx)
                rows, cols = res.d.shape
                self.snf_entries[idx] = rows * cols
                self.snf_bigint[idx] = int(res.d.dtype == object)
                return res

            return traced
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        """Patch every binding of every target in the loaded contact9 modules."""
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), span))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, span)
            for name, mod in list(sys.modules.items()):
                if (name == "contact9" or name.startswith("contact9.")) and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def start_timed_phase(self):
        self.timed_from = len(self.span_name)

    def write(self, path: str):
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            timed_from=np.int64(self.timed_from),
            rounds=np.int64(self.rounds),
            snf_span=np.asarray(list(self.snf_entries), dtype=np.int64),
            snf_entries=np.asarray(list(self.snf_entries.values()), dtype=np.int64),
            snf_bigint=np.asarray(list(self.snf_bigint.values()), dtype=np.int64),
        )

    def metrics(self) -> dict:
        """Every layer metric, for one set-up plus one round."""
        n = len(self.span_name)
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        timed = np.arange(n) >= self.timed_from
        rounds = max(self.rounds, 1)
        weight = np.where(timed, 1.0 / rounds, 1.0)
        entries = np.zeros(n)
        bigint = np.zeros(n)
        for idx, v in self.snf_entries.items():
            entries[idx] = v
        for idx, v in self.snf_bigint.items():
            bigint[idx] = v
        columns = {"calls": np.ones(n), "self": self_time, "total": dur,
                   "entries": entries, "bigint": bigint}
        out = {}
        for metric, (span, stat) in METRICS.items():
            if span in self._ids:
                mask = name == self._ids[span]
                value = float(np.sum(columns[stat][mask] * weight[mask]))
            else:
                value = 0.0
            if stat not in ("self", "total"):
                value = round(value, 6)
            out[metric] = value
        return out
