"""Spans around the public functions of scatterspline, installed from outside.

The tracer rebinds every name under which a traced function is reachable in
the loaded ``scatterspline`` modules: the defining module, the package
namespace and each module that imported the name. A call therefore records a
span wherever the program makes it, and the span's parent is the traced call
(or benchmark operation) that caused it. The SciPy kernels the solver reaches
through ``scipy.sparse.linalg`` are wrapped the same way.

Spans and counts stay in memory, tagged with the phase they ran in (one
set-up repetition or one timed round), and are written out when the run
ends. A function that does not exist is skipped: its metrics read zero.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Several attributes may share a span name.
TRACED = (
    ("scatterspline.bsplines", "tensor_basis_rows", "bsplines.tensor_basis_rows"),
    ("scatterspline.bsplines", "eval_model_many", "bsplines.eval_model_many"),
    ("scatterspline.bsplines", "eval_model_grid", "bsplines.eval_model_grid"),
    ("scatterspline.bsplines", "basis_maximizer", "bsplines.basis_maximizer"),
    ("scatterspline.assembly", "dim_maximizers", "assembly.dim_maximizers"),
    ("scatterspline.assembly", "build_collocation", "assembly.build_collocation"),
    ("scatterspline.assembly", "build_penalty_block", "assembly.build_penalty_block"),
    ("scatterspline.assembly", "stack_penalty", "assembly.stack_penalty"),
    ("scatterspline.assembly", "compute_lambdas", "assembly.compute_lambdas"),
    ("scatterspline.assembly", "assemble_system", "assembly.assemble_system"),
    ("scatterspline.solver", "solve", "solver.solve"),
    ("scatterspline.solver", "condition_number", "solver.condition_number"),
    ("scipy.sparse.linalg", "splu", "solver.splu"),
    ("scipy.sparse.linalg", "eigsh", "solver.eigsh"),
    ("scipy.sparse.linalg", "cg", "solver.cg"),
    ("scatterspline.datasets", "generate_polysinc_cloud", "datasets.generate"),
    ("scatterspline.datasets", "generate_annulus_cloud", "datasets.generate"),
    ("scatterspline.datasets", "read_csv", "datasets.read_csv"),
    ("scatterspline.datasets", "write_csv", "datasets.write_csv"),
    ("scatterspline.datasets", "resample_grid", "datasets.resample_grid"),
    ("scatterspline.metrics", "pointwise_errors", "metrics.pointwise_errors"),
    ("scatterspline.metrics", "lambda_field", "metrics.lambda_field"),
    ("scatterspline.cli", "_cmd_synth", "cli.synth"),
    ("scatterspline.cli", "_cmd_fit", "cli.fit"),
    ("scatterspline.cli", "_cmd_report", "cli.report"),
    ("scatterspline.cli", "_cmd_eval", "cli.eval"),
    ("scatterspline.cli", "save_model", "cli.save_model"),
    ("scatterspline.cli", "load_model", "cli.load_model"),
)


def _file_mb(path):
    return os.path.getsize(path) / 1e6


# counts taken from a traced call's arguments and result: span name ->
# function(args, result) -> {counter: increment}
COUNTERS = {
    "bsplines.tensor_basis_rows": lambda a, r: {
        "bsplines.tensor_basis_rows_points": r[0].shape[0]
    },
    "assembly.build_collocation": lambda a, r: {"assembly.nnz_collocation": r.nnz},
    "assembly.stack_penalty": lambda a, r: {"assembly.nnz_penalty": r.nnz},
    "assembly.compute_lambdas": lambda a, r: {
        "assembly.lambda_positive": int((r[0] > 0).sum())
    },
    "solver.splu": lambda a, r: {"solver.factor_nnz": r.nnz},
    "datasets.read_csv": lambda a, r: {"datasets.csv_mb": _file_mb(a[0])},
    "datasets.write_csv": lambda a, r: {"datasets.csv_mb": _file_mb(a[1])},
}

# Per-layer metrics in output order. A name ending in _s is the self time of
# the span without the suffix, one ending in _calls its call count, and any
# other name a counter.
LAYER_METRICS = (
    ("bsplines.tensor_basis_rows_s", "s"),
    ("bsplines.tensor_basis_rows_points", "count"),
    ("bsplines.eval_model_many_s", "s"),
    ("bsplines.eval_model_grid_s", "s"),
    ("bsplines.basis_maximizer_s", "s"),
    ("bsplines.basis_maximizer_calls", "count"),
    ("assembly.dim_maximizers_s", "s"),
    ("assembly.build_collocation_s", "s"),
    ("assembly.build_penalty_block_s", "s"),
    ("assembly.stack_penalty_s", "s"),
    ("assembly.compute_lambdas_s", "s"),
    ("assembly.assemble_system_s", "s"),
    ("assembly.nnz_collocation", "count"),
    ("assembly.nnz_penalty", "count"),
    ("assembly.lambda_positive", "count"),
    ("solver.solve_s", "s"),
    ("solver.splu_s", "s"),
    ("solver.splu_calls", "count"),
    ("solver.factor_nnz", "count"),
    ("solver.eigsh_s", "s"),
    ("solver.eigsh_calls", "count"),
    ("solver.condition_number_s", "s"),
    ("solver.cg_iterations", "count"),
    ("datasets.read_csv_s", "s"),
    ("datasets.write_csv_s", "s"),
    ("datasets.csv_mb", "MB"),
    ("datasets.generate_s", "s"),
    ("datasets.resample_grid_s", "s"),
    ("metrics.pointwise_errors_s", "s"),
    ("metrics.lambda_field_s", "s"),
    ("cli.synth_s", "s"),
    ("cli.fit_s", "s"),
    ("cli.report_s", "s"),
    ("cli.eval_s", "s"),
    ("cli.save_model_s", "s"),
    ("cli.load_model_s", "s"),
)


class Tracer:
    """Records spans while a phase is open; otherwise calls pass straight on.

    With enabled=False nothing is wrapped and span() costs nothing, so the
    untraced run measures the program as users run it.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.phase = None
        self.phases = []
        self.spans = []
        self.counts = defaultdict(float)  # (phase, counter) -> value
        self.hook_errors = []
        self._stack = []
        self._child_time = []
        self._restore = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def recording(self, phase):
        """Attribute every span and count in the block to phase."""
        if not self.enabled:
            yield
            return
        self.phase = phase
        self.phases.append(phase)
        try:
            yield
        finally:
            self.phase = None

    @contextlib.contextmanager
    def span(self, name):
        if self.phase is None:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "parent": parent, "phase": self.phase}
        self.spans.append(record)
        self._stack.append(span_id)
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += end - start
            record["start"] = start - self._origin
            record["end"] = end - self._origin
            record["self"] = end - start - children

    def add(self, counter, value):
        if self.phase is not None:
            self.counts[(self.phase, counter)] += value

    def _wrap(self, function, name):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return function(*args, **kwargs)
            if name == "solver.cg":
                kwargs["callback"] = tracer._counting_callback(kwargs.get("callback"))
            with tracer.span(name):
                result = function(*args, **kwargs)
            if counter is not None:
                try:
                    increments = counter(args, result)
                except (AttributeError, IndexError, TypeError, OSError) as exc:
                    tracer.hook_errors.append(f"{name}: {exc!r}")
                else:
                    for key, value in increments.items():
                        tracer.add(key, value)
            return result

        return traced

    def _counting_callback(self, callback):
        def counted(xk):
            self.add("solver.cg_iterations", 1)
            if callback is not None:
                callback(xk)

        return counted

    def install(self):
        """Wrap each traced function under every name it is bound to."""
        if not self.enabled:
            return
        package = [
            module
            for name, module in list(sys.modules.items())
            if name == "scatterspline" or name.startswith("scatterspline.")
        ]
        for module_name, attribute, span_name in TRACED:
            owner = sys.modules.get(module_name)
            original = getattr(owner, attribute, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name)
            for module in {id(m): m for m in package + [owner]}.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def layer_metrics(self):
        """Per-layer values for one set-up plus one round.

        Each is the median over the set-up repetitions plus the median over
        the timed rounds of that phase's total.
        """
        totals = defaultdict(float)  # (phase, metric) -> value
        for span in self.spans:
            totals[(span["phase"], span["name"] + "_s")] += span["self"]
            totals[(span["phase"], span["name"] + "_calls")] += 1
        for key, value in self.counts.items():
            totals[key] += value
        out = {}
        for metric, unit in LAYER_METRICS:
            value = 0.0
            for kind in ("setup", "round"):
                per_phase = [totals[(p, metric)] for p in self.phases if p[0] == kind]
                if per_phase:
                    value += statistics.median(per_phase)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, extra):
        phases = [list(p) for p in self.phases]
        counts = [
            {"phase": list(phase), "counter": name, "value": value}
            for (phase, name), value in self.counts.items()
        ]
        spans = [dict(s, phase=list(s["phase"])) for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                dict(extra, phases=phases, spans=spans, counts=counts,
                     hook_errors=self.hook_errors),
                handle,
            )
