"""Per-layer spans recorded around calls into nfdof's public functions.

The package's modules import each other's functions by name
(``from .x import y``), so wrapping one function means replacing that
name in every nfdof module that holds it.  Wrapping happens only inside
``Tracer.installed()``; untraced runs never see a wrapper.

Spans (name, start, end, parent span, op id) are kept in memory and
written out at the end.  Counts that come from return values are exact
for a given list of ops.
"""

import contextlib
import functools
import sys
import time

import numpy as np

# (module, function, counters taken from the return value)
TRACED = (
    ("cli", "main", None),
    ("figures", "figure_rows", None),
    ("geometry", "make_link", None),
    ("geometry", "classify_visibility", None),
    ("dof_core", "dof", None),
    ("dof_core", "taylor_coeffs", None),
    ("kernel", "kernel_scan", lambda r: {"samples": len(r.samples)}),
    ("kernel", "kernel_exact", None),
    ("kernel", "kernel_farfield", None),
    ("kernel", "find_minima", None),
    ("numerics", "erfi", None),
    ("numerics", "integrate",
     lambda r: {"evaluations": r.evaluations, "not_converged": int(not r.converged)}),
    ("numerics", "sample_stream", None),
    ("svd_oracle", "channel_matrix",
     lambda r: {"entries": r.entries.size, "bytes_computed": 16 * r.entries.size}),
    ("svd_oracle", "singular_spectrum", None),
    ("statistics", "ccdf", None),
    ("statistics", "monte_carlo", lambda r: {"samples": len(r)}),
    ("statistics", "empirical_ccdf", None),
)

# per-layer metrics reported by the traced run: (metric, unit)
LAYER_METRICS = (
    ("cli.main.calls", "count"), ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("figures.figure_rows.calls", "count"), ("figures.figure_rows.busy_s", "s"),
    ("geometry.make_link.calls", "count"), ("geometry.make_link.busy_s", "s"),
    ("geometry.classify_visibility.calls", "count"),
    ("geometry.classify_visibility.busy_s", "s"),
    ("dof_core.dof.calls", "count"), ("dof_core.dof.busy_s", "s"),
    ("dof_core.dof.self_s", "s"),
    ("kernel.kernel_scan.calls", "count"), ("kernel.kernel_scan.busy_s", "s"),
    ("kernel.kernel_scan.samples", "count"), ("kernel.kernel_scan.failed", "count"),
    ("kernel.kernel_exact.calls", "count"), ("kernel.kernel_farfield.calls", "count"),
    ("kernel.find_minima.busy_s", "s"),
    ("dof_core.taylor_coeffs.calls", "count"), ("dof_core.taylor_coeffs.busy_s", "s"),
    ("numerics.erfi.calls", "count"), ("numerics.erfi.failed", "count"),
    ("svd_oracle.channel_matrix.calls", "count"),
    ("svd_oracle.channel_matrix.busy_s", "s"),
    ("svd_oracle.channel_matrix.entries", "count"),
    ("svd_oracle.channel_matrix.bytes_computed", "bytes"),
    ("svd_oracle.singular_spectrum.calls", "count"),
    ("svd_oracle.singular_spectrum.busy_s", "s"),
    ("statistics.ccdf.calls", "count"), ("statistics.ccdf.busy_s", "s"),
    ("statistics.ccdf.self_s", "s"),
    ("numerics.integrate.calls", "count"), ("numerics.integrate.busy_s", "s"),
    ("numerics.integrate.evaluations", "count"),
    ("numerics.integrate.not_converged", "count"),
    ("statistics.monte_carlo.calls", "count"), ("statistics.monte_carlo.busy_s", "s"),
    ("statistics.monte_carlo.samples", "count"),
    ("statistics.empirical_ccdf.busy_s", "s"),
    ("numerics.sample_stream.calls", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _ in TRACED]
        self.spans = []          # (name index, start, end, parent, op id)
        self.counters = {}       # "<span name>.<counter>" -> int
        self.op_id = -1
        self._stack = []

    def _wrap(self, name_id, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        name = self.names[name_id]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                key = name + ".failed"
                counters[key] = counters.get(key, 0) + 1
                raise
            finally:
                spans[index] = (name_id, start, clock(), parent, self.op_id)
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    key = f"{name}.{key}"
                    counters[key] = counters.get(key, 0) + int(value)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced name in every loaded nfdof module."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "nfdof" or k.startswith("nfdof."))]
        replaced = []
        for name_id, (mod, fn_name, count) in enumerate(TRACED):
            original = getattr(sys.modules[f"nfdof.{mod}"], fn_name)
            wrapper = self._wrap(name_id, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def arrays(self):
        """Spans as numpy arrays (name, start, end, parent, op)."""
        spans = self.spans
        return {
            "name": np.array([s[0] for s in spans], dtype=np.int16),
            "start": np.array([s[1] for s in spans], dtype=np.float64),
            "end": np.array([s[2] for s in spans], dtype=np.float64),
            "parent": np.array([s[3] for s in spans], dtype=np.int64),
            "op": np.array([s[4] for s in spans], dtype=np.int64),
        }

    def layer_totals(self):
        """calls, busy_s and self_s per traced name, plus the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        busy = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=dur - child, minlength=n)
        totals = dict(self.counters)
        for i, name in enumerate(self.names):
            totals[f"{name}.calls"] = int(calls[i])
            totals[f"{name}.busy_s"] = float(busy[i])
            totals[f"{name}.self_s"] = float(own[i])
        return totals

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(totals, bytes_out, overhead_s, n_spans):
    """The reported per-layer metrics from ``Tracer.layer_totals``."""
    values = dict(totals)
    values["cli.self_s"] = totals["cli.main.self_s"]
    values["cli.bytes_out"] = bytes_out
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = n_spans
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in LAYER_METRICS}
