"""Span recording around qmapkit's layer boundaries, installed from outside.

The tracer replaces module attributes that qmapkit resolves at call time
(``pipeline`` calls ``t2fit.fit_t2``, ``seqsim`` calls ``bloch.slice_profile``
and so on) with wrappers that record one span per call: name, start, end and
the enclosing span.  Spans stay in memory until the run ends.  Nothing in
``src/`` is modified, so the untraced program is exactly what users run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qmapkit import (b1map, bloch, fitcore, formats, maskgen, pipeline,
                     seqsim, t1fit, t2fit, waterfat)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_pieces(pulse):
    return int(np.count_nonzero(pulse.samples))


def _on_slice_profile(tr, args, kwargs, result):
    pulse = _arg(args, kwargs, 0, "pulse")
    if _arg(args, kwargs, 1, "b1_scale") != 0.0:
        tr.counts["bloch.piece_rotations"] += (
            _count_pieces(pulse) * result.z_samples.size)


def _on_transverse_curve(tr, args, kwargs, result):
    pulse = _arg(args, kwargs, 0, "pulse")
    nz = np.atleast_1d(_arg(args, kwargs, 2, "z_samples")).size
    tr.counts["bloch.piece_rotations"] += (
        _count_pieces(pulse) * result.size * nz)


def _on_ratio_table(tr, args, kwargs, result):
    tr.notes["table_k_range"] = [float(result.k_values[0]),
                                 float(result.k_values[-1])]


def _on_fit_t2(tr, args, kwargs, result):
    tr.counts["t2fit.at_bound_px"] += int(result.valid and result.at_bound)


def _on_fit_waterfat(tr, args, kwargs, result):
    if result.valid:
        cfg = _arg(args, kwargs, 1, "cfg")
        tr.counts["waterfat.candidates"] += (
            cfg.t2s_points ** 2 * cfg.offset_axis().size)


def _on_fit_t1(tr, args, kwargs, result):
    lo, hi = _arg(args, kwargs, 1, "ctx").t1_bounds
    pinned = result.t1 <= lo * (1 + 1e-9) or result.t1 >= hi * (1 - 1e-9)
    tr.counts["t1fit.at_bound_px"] += int(result.valid and pinned)


def _on_solve_boxed(tr, args, kwargs, result):
    tr.counts["fitcore.iterations"] += int(result.n_iter)
    tr.counts["fitcore.converged"] += int(result.converged)


def _on_make_mask(tr, args, kwargs, result):
    tr.counts["maskgen.mask_px"] += result.count


def _on_write_imageset(tr, args, kwargs, result):
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    tr.counts["formats.write_imageset.bytes"] += sum(
        p.stat().st_size for p in out.iterdir())


# (module, attribute, span name, hook).  An attribute that a module imported
# by name (``pipeline.pixel_profiles``) is wrapped in that module as well, so
# every call site resolves to a wrapper; both wrappers record the same name.
TIMERS = (
    (seqsim, "build_pulses", "seqsim.build_pulses", None),
    (pipeline, "build_pulses", "seqsim.build_pulses", None),
    (b1map, "build_ratio_table", "b1map.build_ratio_table", _on_ratio_table),
    (seqsim, "simulate_scan", "seqsim.simulate_scan", None),
    (pipeline, "estimate_all", "pipeline.estimate_all", None),
)

LAYERS = TIMERS + (
    (bloch, "integrated_transverse_curve",
     "bloch.integrated_transverse_curve", _on_transverse_curve),
    (bloch, "slice_profile", "bloch.slice_profile", _on_slice_profile),
    (b1map, "estimate_b1", "b1map.estimate_b1", None),
    (seqsim, "simulate_pixel", "seqsim.simulate_pixel", None),
    (seqsim, "pixel_profiles", "seqsim.pixel_profiles", None),
    (pipeline, "pixel_profiles", "seqsim.pixel_profiles", None),
    (t2fit, "fit_t2", "t2fit.fit_t2", _on_fit_t2),
    (waterfat, "fit_waterfat", "waterfat.fit_waterfat", _on_fit_waterfat),
    (t1fit, "fit_t1_m0", "t1fit.fit_t1_m0", _on_fit_t1),
    (fitcore, "solve_boxed", "fitcore.solve_boxed", _on_solve_boxed),
    (maskgen, "make_mask", "maskgen.make_mask", _on_make_mask),
    (formats, "write_imageset", "formats.write_imageset", _on_write_imageset),
    (formats, "read_imageset", "formats.read_imageset", None),
    (formats, "write_maps", "formats.write_maps", None),
    (formats, "read_maps", "formats.read_maps", None),
    (formats, "compare_maps", "formats.compare_maps", None),
)

# Called too often for a span each; counted only.
COUNTED = ((t1fit, "predict_probe_signals", "t1fit.residual_evals"),)


class Tracer:
    """In-memory span recorder.  Spans are ``(id, parent, name, start,
    end)`` tuples with ``perf_counter`` times; ``parent`` is -1 at a root."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.notes = {}
        self._stack = []
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def install(self, table=LAYERS, counted=COUNTED):
        for module, attr, name, hook in table:
            self._patch(module, attr, self._spanning(
                getattr(module, attr), name, hook))
        for module, attr, name in counted:
            self._patch(module, attr, self._counting(
                getattr(module, attr), name))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanning(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _counting(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts), "notes": self.notes}


class SpanTree:
    """Durations, self times and ancestry over one process's spans."""

    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.children = {s[0]: [] for s in self.spans}
        for s in self.spans:
            if s[1] >= 0:
                self.children[s[1]].append(s)
        self.by_id = {s[0]: s for s in self.spans}

    def self_time(self, span):
        """Duration minus the part of it that child spans cover."""
        start, end = span[3], span[4]
        covered, cursor = 0.0, start
        for child in sorted(self.children[span[0]], key=lambda c: c[3]):
            lo, hi = max(child[3], cursor), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (end - start) - covered

    def inconsistent(self, rel=1e-9):
        """Spans whose children plus self time do not add up to their own
        duration, i.e. whose children overlap or leave the parent."""
        bad = []
        for s in self.spans:
            dur = s[4] - s[3]
            total = self.self_time(s) + sum(
                c[4] - c[3] for c in self.children[s[0]])
            if abs(total - dur) > rel * max(dur, 1e-6):
                bad.append(s)
        return bad

    def under(self, span, name):
        """True when ``span`` has an ancestor called ``name``."""
        parent = span[1]
        while parent >= 0:
            anc = self.by_id[parent]
            if anc[2] == name:
                return True
            parent = anc[1]
        return False

    def named(self, name):
        return [s for s in self.spans if s[2] == name]

    def total(self, name):
        return sum(s[4] - s[3] for s in self.named(name))
