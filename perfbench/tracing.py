"""Spans and counters recorded from outside the program.

The traced run rebinds the program's public functions where their callers
look them up (``instrument``); each wrapper records a span (name, start,
end, parent) in memory plus its counts. Spans are written out when the run
ends. A span's self time is its duration minus that of its children; the
self times of one pass add up to the pass's wall time, and the pass's own
self time is the remainder spent in the benchmark between calls.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from cityvps import fusion
from cityvps.geometry import reproject
from cityvps.mapbuild import sfm


class Tracer:
    """In-memory spans and per-pass counters; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount=1.0):
        if self.enabled:
            self.counts[name] += amount

    def maximum(self, name: str, value):
        if self.enabled:
            self.counts[name] = max(self.counts[name], value)

    def take_counts(self) -> dict:
        """Counts since the last call, then start afresh."""
        counts, self.counts = dict(self.counts), defaultdict(float)
        return counts


def self_times(spans, first: int = 0) -> dict:
    """Inclusive and self seconds per span name over spans[first:].

    Returns {name: (inclusive_s, self_s, calls)}.
    """
    child = defaultdict(float)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, _) in enumerate(spans[first:], start=first):
        inc, own, calls = table.get(name, (0.0, 0.0, 0))
        table[name] = (inc + end - start, own + end - start - child[i], calls + 1)
    return table


def dense_solve_cost(n: int) -> tuple:
    """(flop, bytes) of one dense n x n LU solve: 2/3 n^3 + 2 n^2 flop over an 8n^2-byte matrix."""
    return 2.0 / 3.0 * n**3 + 2.0 * n**2, 8.0 * n * n


def _timed(tracer, name, fn, after=None):
    def wrapped(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    return wrapped


def _counted_solver(tracer, caller, solve):
    prefix = f"lsq.{caller}."

    def wrapped(residual_fn, x0, jacobian=None, **kwargs):
        calls = {"residuals": 0, "jacobians": 0}

        def residuals(p):
            calls["residuals"] += 1
            return residual_fn(p)

        def jacobian_counted(p):
            calls["jacobians"] += 1
            return jacobian(p)

        with tracer.span(prefix + "solve"):
            result = solve(residuals, x0, jacobian=None if jacobian is None else jacobian_counted, **kwargs)
        trials = calls["residuals"] - 1  # the first evaluates the start
        tracer.count(prefix + "solves")
        tracer.count(prefix + "iterations", calls["jacobians"])
        tracer.count(prefix + "trial_steps", trials)
        tracer.count(prefix + "rejected_steps", trials - (len(result.cost_history) - 1))
        if caller == "ba":
            n = int(np.size(x0))
            flop, nbytes = dense_solve_cost(n)
            tracer.count("lsq.ba.dense_gflop_computed", trials * flop / 1e9)
            tracer.count("lsq.ba.dense_bytes_computed", trials * nbytes)
            tracer.maximum("sfm.ba_params_max", n)
        return result

    return wrapped


def instrument(tracer: Tracer):
    """Rebind the program's layer entry points to traced wrappers.

    Returns a function that restores the originals.
    """

    def triangulated(point, *args, **kwargs):
        tracer.count("sfm.triangulate_calls")
        tracer.count("sfm.triangulate_ok", point is not None)

    def fused(out, submaps, links=None, params=None, warm_start=None, solved=()):
        submaps = list(submaps)
        components = fusion.link_components(
            [sm.submap_id for sm in submaps], fusion.collect_links(submaps) if links is None else links
        )
        reused = sum(1 for c in components if c in set(solved))
        tracer.count("fusion.components_reused", reused)
        tracer.count("fusion.components_solved", len(components) - reused)
        tracer.count("fusion.lm_iterations", out[1].iterations)

    patches = [
        (sfm, "bundle_adjust", lambda f: _timed(tracer, "sfm.bundle_adjust", f)),
        (sfm, "refine_pose", lambda f: _timed(tracer, "sfm.refine_pose", f)),
        (sfm, "triangulate_track", lambda f: _timed(tracer, "sfm.triangulate_track", f, triangulated)),
        (sfm, "solve_least_squares", lambda f: _counted_solver(tracer, "ba", f)),
        (reproject, "solve_least_squares", lambda f: _counted_solver(tracer, "pnp", f)),
        (fusion, "solve_least_squares", lambda f: _counted_solver(tracer, "fusion", f)),
        (fusion, "fuse", lambda f: _timed(tracer, "fusion.fuse", f, fused)),
        (fusion, "build_tile_index", lambda f: _timed(tracer, "fusion.build_tile_index", f)),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, wrap in patches:
        setattr(module, name, wrap(getattr(module, name)))

    def restore():
        for module, name, original in originals:
            setattr(module, name, original)

    return restore
