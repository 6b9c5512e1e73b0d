"""Outside-in span tracer for the traced benchmark run.

The tracer replaces module attributes that callers look up at call time
(``zrbr.evolution.strang_step``, ``numpy.fft.fftn``, ...) with wrappers that
record one span per call: id, parent id, name, start, end and, for FFTs,
the number of points transformed.  Nothing inside ``src/`` changes, so a
function that is called through a name bound at import time in another
module is only seen where that module's attribute is wrapped too.

Spans are kept in memory and written out once, after the run.  Untraced
runs never construct a Tracer, so they pay nothing.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        # (id, parent_id or -1, name, start_s, end_s, fft_points)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, 0))

    def _wrap(self, name: str, fn, count_points: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                points = int(np.size(args[0])) if count_points else 0
                tracer.spans.append((sid, parent, name, t0, t1, points))

        return wrapper

    def install(self, targets):
        """targets: iterable of (owner, attribute, span name, count_points)."""
        for owner, attr, name, count_points in targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count_points))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path: str):
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,name,start_s,end_s,fft_points\n")
            for sid, parent, name, t0, t1, points in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{t0!r},{t1!r},{points}\n")


def default_targets():
    """The layer boundaries the benchmark traces, keyed to the attribute
    each caller actually looks up."""
    import numpy.fft
    import zrbr.bourgain
    import zrbr.evolution
    import zrbr.harness
    import zrbr.model
    import zrbr.spectral

    ev, hs, bg = zrbr.evolution, zrbr.harness, zrbr.bourgain
    return [
        (numpy.fft, "fftn", "spectral.fft", True),
        (numpy.fft, "ifftn", "spectral.fft", True),
        # apply_symbol looks make_multiplier up in spectral; model binds it
        # at import time for the half-wave helpers.
        (zrbr.spectral, "make_multiplier", "spectral.make_multiplier", False),
        (zrbr.model, "make_multiplier", "spectral.make_multiplier", False),
        (ev, "make_initial_state", "config.make_initial_state", False),
        (ev, "strang_step", "evolution.strang_step", False),
        (ev.Trajectory, "record", "evolution.record", False),
        (ev, "energy", "model.energy", False),
        (ev, "mass", "model.mass", False),
        (ev, "nonlinearity_F", "model.source", False),
        (ev, "nonlinearity_G", "model.source", False),
        (ev, "nonlinearity_H", "model.source", False),
        (ev, "psi_time_derivative", "model.source", False),
        (ev, "picard_iterate", "evolution.picard_iterate", False),
        (hs, "run_simulation", "evolution.run_simulation", False),
        (hs, "cmd_simulate", "harness.cmd_simulate", False),
        (hs, "cmd_fuzz", "harness.cmd_fuzz", False),
        (hs, "cmd_region", "harness.cmd_region", False),
        (hs, "write_csv", "harness.write_csv", False),
        (hs, "write_report", "harness.write_report", False),
        (hs, "region_scan", "exponents.region_scan", False),
        (hs, "verify_symbolic_inequalities", "exponents.fuzz", False),
        (bg, "random_band_limited", "bourgain.random_band_limited", False),
        (bg, "linear_estimate_ratio", "bourgain.linear_estimate_ratio", False),
        (bg, "retarded_convolution", "bourgain.retarded_convolution", False),
        (bg, "xsb_norm", "bourgain.xsb_norm", False),
    ]


class SpanTable:
    """Read-only queries over finished spans: per-root grouping, self time
    and nearest-ancestor lookups."""

    def __init__(self, spans):
        self.spans = sorted(spans)  # by id, so parents precede children
        self.index = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        self.root: dict[int, int] = {}
        for sid, parent, _name, t0, t1, _pts in self.spans:
            self.root[sid] = sid if parent < 0 else self.root[parent]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.child_time = child_time

    def under(self, root_name: str):
        """Spans (roots included) whose root span is named root_name."""
        roots = {s[0] for s in self.spans if s[1] < 0 and s[2] == root_name}
        return [s for s in self.spans if self.root[s[0]] in roots]

    def self_time(self, span) -> float:
        return (span[4] - span[3]) - self.child_time.get(span[0], 0.0)

    def parent_name(self, span):
        parent = self.index.get(span[1])
        return parent[2] if parent else None

    def signatures(self, root_name: str) -> list[tuple]:
        """Exact counts per root named root_name: calls per span name and
        total FFT points beneath it."""
        calls: dict[int, dict[str, int]] = {}
        points: dict[int, int] = {}
        for sid, parent, name, _t0, _t1, pts in self.spans:
            if parent < 0:
                if name == root_name:
                    calls[sid], points[sid] = {}, 0
                continue
            root = self.root[sid]
            if root in calls:
                calls[root][name] = calls[root].get(name, 0) + 1
                points[root] += pts
        return [(tuple(sorted(calls[r].items())), points[r]) for r in sorted(calls)]
