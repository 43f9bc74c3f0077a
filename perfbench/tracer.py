"""In-memory span tracer for the traced benchmark run.

Spans are recorded by wrapping fadecap's functions where they are looked
up (``fadecap.distributions.integrate_semi_infinite``,
``fadecap.schemes.maximize_unimodal``, ``fadecap.mc.oa_threshold``, ...),
so calls made inside the library are seen too. Each span keeps its name,
layer, start, end, parent span and operation id; self time is a span's
duration minus the durations of its children. Density evaluations are
counted as points, not calls, where the evaluation happens, without spans.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

LAYERS = ("distributions", "numerics", "schemes", "asymptotics", "mc")

# Public functions of fadecap.schemes, each traced as schemes.<name>.
SCHEME_FUNCTIONS = (
    "capacity", "awgn_capacity", "oa_threshold", "oa_capacity", "ra_capacity",
    "ci_capacity", "tci_dmax", "tci_capacity", "ctci_dmax", "ctci_capacity",
    "tci_optimize",
)


class Span:
    __slots__ = ("index", "name", "layer", "parent", "op", "start", "end", "error", "info")

    def __init__(self, index, name, layer, parent, op):
        self.index = index
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def as_list(self, t0):
        return [self.name, round(self.start - t0, 9), round(self.end - t0, 9),
                self.parent, self.op, self.error, self.info]


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack: list[Span] = []
        self._patches = []

    def wrap(self, fn, name, layer, on_result=None, on_error=None):
        """``fn`` wrapped to record a span; the hooks may set ``span.info``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), name, layer, stack[-1].index if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                if on_error is not None:
                    on_error(span, exc)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _trace(self, owner, attr, name, layer, **hooks):
        self._patch(owner, attr, self.wrap(getattr(owner, attr), name, layer, **hooks))

    @contextmanager
    def installed(self, fadecap):
        """Patch fadecap's modules for the duration of the block."""
        dist_mod, schemes, mc = fadecap.distributions, fadecap.schemes, fadecap.mc
        counts = self.counts

        def quad_evals(span, result):
            span.info = result.evaluations

        def quad_partial_evals(span, exc):
            partial = getattr(exc, "partial", None)
            if partial is not None:
                span.info = partial.evaluations

        def iterations(span, result):
            span.info = result.iterations

        def optimize_iterations(span, result):
            span.info = result[0].iterations

        # density points, counted where they are evaluated: the closed-form
        # laws all evaluate through _as_float_or_array, the tabulated law's
        # Gauss-Legendre kernel through _TabulatedLaw.pdf
        as_array = dist_mod._as_float_or_array

        def counted_as_array(z, compute_pos, at_zero=0.0):
            if sys._getframe(1).f_code.co_name == "pdf":
                counts["pdf_points"] += np.size(z)
            return as_array(z, compute_pos, at_zero)

        tab_pdf = dist_mod._TabulatedLaw.pdf

        def counted_tab_pdf(law, x):
            counts["pdf_points"] += np.size(x)
            return tab_pdf(law, x)

        maximize = schemes.maximize_unimodal

        def counted_maximize(h, *args, **kwargs):
            def counted_h(x):
                counts["maximize_evals"] += 1
                return h(x)

            return maximize(counted_h, *args, **kwargs)

        self._patch(dist_mod, "_as_float_or_array", counted_as_array)
        self._patch(dist_mod._TabulatedLaw, "pdf", counted_tab_pdf)
        self._trace(dist_mod.FadingDistribution, "expect", "distributions.expect", "distributions")
        for attr in ("integrate_semi_infinite", "integrate_finite"):
            self._trace(dist_mod, attr, "numerics.quad", "numerics",
                        on_result=quad_evals, on_error=quad_partial_evals)
        self._trace(schemes, "find_root_monotone", "numerics.root", "numerics")
        self._patch(schemes, "maximize_unimodal",
                    self.wrap(counted_maximize, "numerics.maximize", "numerics"))
        hooks = {"oa_threshold": iterations, "tci_optimize": optimize_iterations}
        for fn in SCHEME_FUNCTIONS:
            self._trace(schemes, fn, f"schemes.{fn}", "schemes", on_result=hooks.get(fn))
        # mc imported these three by name, so they are looked up in fadecap.mc
        for fn in ("oa_threshold", "tci_dmax", "ctci_dmax"):
            self._trace(mc, fn, f"schemes.{fn}", "schemes", on_result=hooks.get(fn))
        self._trace(mc, "mc_capacity", "mc.mc_capacity", "mc")
        self._trace(fadecap.asymptotics, "gap_report", "asymptotics.gap_report", "asymptotics")
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def traced_sampler(self, dist):
        """A copy of ``dist`` whose sampler records mc.sampler spans."""
        return dataclasses.replace(dist, sampler=self.wrap(dist.sampler, "mc.sampler", "mc"))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def raised_at_origin(self):
        """(layer, exception type) of each span that raised and whose
        children did not: where each failure started."""
        child_raised = set(s.parent for s in self.spans if s.error and s.parent is not None)
        return [(s.layer, s.error) for s in self.spans
                if s.error and s.index not in child_raised]

    def layer_metrics(self, ops, mc_samples) -> dict:
        """The per-layer metrics of one traced pass over ``ops``."""
        own = self.self_times()
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def total_ms(name, self_only=False):
            return 1e3 * sum(own[s.index] if self_only else s.duration for s in by_name[name])

        def info_sum(name):
            return sum(s.info or 0 for s in by_name[name])

        m = {
            "distributions.pdf_points": self.counts["pdf_points"],
            "distributions.expect_calls": len(by_name["distributions.expect"]),
            "distributions.expect_self_ms": total_ms("distributions.expect", True),
            "numerics.quad_calls": len(by_name["numerics.quad"]),
            "numerics.quad_evals": info_sum("numerics.quad"),
            "numerics.quad_self_ms": total_ms("numerics.quad", True),
            "numerics.root_calls": len(by_name["numerics.root"]),
            "numerics.maximize_evals": self.counts["maximize_evals"],
            "numerics.maximize_self_ms": total_ms("numerics.maximize", True),
        }
        for fn in SCHEME_FUNCTIONS:
            spans = by_name[f"schemes.{fn}"]
            m[f"schemes.{fn}.calls"] = len(spans)
            m[f"schemes.{fn}.ms_p50"] = (
                1e3 * statistics.median(s.duration for s in spans) if spans else 0.0
            )
            m[f"schemes.{fn}.self_ms"] = total_ms(f"schemes.{fn}", True)
        m["schemes.oa_threshold.iterations"] = info_sum("schemes.oa_threshold")
        m["schemes.tci_optimize.iterations"] = info_sum("schemes.tci_optimize")
        m["asymptotics.gap_report_ms"] = total_ms("asymptotics.gap_report")

        mc_spans = by_name["mc.mc_capacity"]
        oa_in_mc = [s for s in by_name["schemes.oa_threshold"]
                    if s.parent is not None and self.spans[s.parent].name == "mc.mc_capacity"]
        m["mc.sampler_ms"] = total_ms("mc.sampler")
        m["mc.self_ms"] = total_ms("mc.mc_capacity", True)
        m["mc.oa_threshold_ms"] = 1e3 * sum(s.duration for s in oa_in_mc)
        # Monte-Carlo throughput per law: samples over estimator time less
        # the deterministic OA cutoff solve
        busy = defaultdict(float)
        samples = defaultdict(int)
        for s in mc_spans:
            busy[ops[s.op].law] += s.duration
            samples[ops[s.op].law] += mc_samples
        for s in oa_in_mc:
            busy[ops[s.op].law] -= s.duration
        for law in ("maxexp4", "gamma2", "miso22"):
            m[f"mc.samples_per_s.{law}"] = samples[law] / busy[law] if busy[law] > 0 else 0.0
        return m
