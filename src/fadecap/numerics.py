"""Shared numerical kernels.

Adaptive quadrature on finite and semi-infinite intervals, survival-function
tables for the integrals of a gain law, bracketed monotone root finding
by safeguarded Newton (the caller supplies the derivative) and 1-D
maximization on a positive, log-spaced bracket, whose grid cells bracket
the roots of a first-order condition for that root finder.

The semi-infinite case maps [a, inf) onto [0, 1) with z = a + t/(1-t),
so exponential, power-law and extreme-value tails are all handled by the
same adaptive rule. Adaptive quadrature is scipy's QUADPACK, imported inside
``integrate_finite``, at the one relative tolerance ``REL_TOL``, fine enough
for the high-SNR gap formulas, checked to 1e-10. The survival tables, the
Newton iteration and the maximizer are implemented here: root finding and
maximization use no scipy and have no derivative-free path.

A ``SurvivalTable`` integrates a survival function sf = 1 - F once, on
20-node Gauss-Legendre panels in u = log z, and keeps the sums of the
panels from the top. Integration by parts writes the OA power constraint,
the OA capacity, the RA capacity and the CTCI capacity as integrals of sf
alone, with positive integrands: a table lookup plus one partial panel
above a point, or a sum over the stored nodes below a cap plus one
partial panel. The table keeps the density's weight at each node from
the pass that places the panels, so a law's moment without a closed form,
the integral of g times the density over the table, is one dot product
with g at the nodes. The weights also give the law's mass, and the nodes'
sf its mean, which the law checks when built.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EULER_MASCHERONI = 0.5772156649015329

# Absolute floor below which quadrature error is not chased further.
ABS_TOL_FLOOR = 1e-14
# QUADPACK's relative tolerance, and maximize_unimodal's root width in
# u = log x and the margin by which a grid point must beat its best root
REL_TOL = 1e-12

_EPS = float(np.finfo(float).eps)

_QUAD_LIMIT = 250

# Survival tables: 20-node Gauss-Legendre panels in u = log z, about
# _PANELS_PER_UNIT of them to a unit of u. A table starts where F drops
# below SF_TABLE_CUT and stops at the support top, or where the integral
# of sf(y)/y dy above it drops below SF_TABLE_CUT.
_SF_NODES, _SF_WEIGHTS = np.polynomial.legendre.leggauss(20)
# The refinement below cannot place panels alone: it accepts a wide panel
# whose whole and halved sums are wrong alike. From one panel per interval
# between knots, gamma N=2 gets 10 panels (110 from 4 per unit) and MISO
# (2, 2) 6 (64), and the 30-digit moment and capacity oracles fail.
_PANELS_PER_UNIT = 4
# A panel is split in two while its sum of w sf/y, w sf or w y pdf differs
# from the sum over its halves by more than _SPLIT_ULPS ulps of the table's
# total of that integrand; a half is split at most _MAX_SPLITS times over.
_SPLIT_ULPS = 4.0
_MAX_SPLITS = 30
SF_TABLE_CUT = 1e-20
# The ends are searched on a grid of this step in u, inside |u| <= 700,
# where z and 1/z stay normal floats.
_END_STEP = 0.5
_U_LIMIT = 700.0
# points of that grid in _upper_end's first read of sf
_END_BLOCK = 32

# Log-spaced points of maximize_unimodal's pre-scan.
_MAXIMIZE_GRID = 64


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral with an a-posteriori error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0.0:
            raise ValueError("abs_error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bracket: need lo < hi, got [{self.lo}, {self.hi}]")


class QuadratureError(RuntimeError):
    """Adaptive subdivision failed to reach the requested tolerance.

    Carries the best available estimate in ``partial``.
    """

    def __init__(self, message: str, partial: QuadResult):
        super().__init__(message)
        self.partial = partial


class BracketError(ValueError):
    """The supplied bracket does not contain a sign change."""


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    knots: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over [a, b] adaptively to ``REL_TOL``.

    ``knots`` are interior points where the integrand may be rough
    (kinks, narrow features); subdivision is forced there. ``a == b``
    returns exactly zero.
    """
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    if a == b:
        return QuadResult(0.0, 0.0, 1)
    from scipy.integrate import quad

    points = sorted(k for k in knots if a < k < b) or None
    out = quad(
        f,
        a,
        b,
        epsabs=ABS_TOL_FLOOR,
        epsrel=REL_TOL,
        limit=_QUAD_LIMIT,
        points=points,
        full_output=True,
    )
    value, abs_err, info = out[0], out[1], out[2]
    result = QuadResult(float(value), float(abs_err), int(info["neval"]))
    if len(out) > 3:
        # QUADPACK flagged trouble; accept the value only if the error
        # estimate is still within an order of the requested tolerance.
        tolerance = max(10.0 * REL_TOL * abs(value), 1e-12)
        if abs_err > tolerance:
            raise QuadratureError(f"quadrature did not converge: {out[3]}", result)
    return result


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    knots: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over [a, inf) via the transform z = a + t/(1-t).

    The image interval is [0, 1); the integrand is treated as zero at
    the open endpoint, which is the correct limit for any integrable f.
    """

    def transformed(t: float) -> float:
        u = 1.0 - t
        if u <= 0.0:
            return 0.0
        z = a + t / u
        return f(z) / (u * u)

    mapped = [(k - a) / (1.0 + (k - a)) for k in knots if k > a]
    return integrate_finite(transformed, 0.0, 1.0, knots=mapped)


def _sum_from_top(panels: np.ndarray) -> np.ndarray:
    """Sums of ``panels[k:]`` for k = 0..n; the last is 0."""
    return np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))


def _u_panel(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w of the 20-node panel over [a, b] in u = log y."""
    half = 0.5 * (b - a)
    return np.exp(0.5 * (a + b) + half * _SF_NODES), half * _SF_WEIGHTS


def _u_panels(sf: Callable, pdf: Callable, a: np.ndarray, b: np.ndarray):
    """Nodes y, one row per panel [a_i, b_i] in u, with w sf(y) and
    w y pdf(y) for their weights w."""
    half = 0.5 * (b - a)[:, None]
    y = np.exp(0.5 * (a + b)[:, None] + half * _SF_NODES)
    w = half * _SF_WEIGHTS
    return y, w * sf(y), w * y * pdf(y)


def _panel_sums(sf: Callable, pdf: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integrals of sf/y, sf and y pdf over each panel [a_i, b_i] in u,
    one row per panel."""
    y, w_sf, w_y_pdf = _u_panels(sf, pdf, a, b)
    return np.stack((np.sum(w_sf / y, axis=1), np.sum(w_sf, axis=1), np.sum(w_y_pdf, axis=1)),
                    axis=1)


def _refined_edges(sf: Callable, pdf: Callable, edges: list) -> list:
    """``edges`` with each panel split in halves, and the halves in turn,
    while the panel's three sums (``_panel_sums``) differ from those of its
    halves by more than ``_SPLIT_ULPS`` ulps of their totals over the table:
    the adaptive rule's error estimate, on what the table stores."""
    e = np.asarray(edges)
    a, b = e[:-1], e[1:]
    whole = _panel_sums(sf, pdf, a, b)
    tol = _SPLIT_ULPS * _EPS * np.abs(np.sum(whole, axis=0))
    kept = []
    for _ in range(_MAX_SPLITS):
        m = 0.5 * (a + b)
        left, right = _panel_sums(sf, pdf, a, m), _panel_sums(sf, pdf, m, b)
        # written so that a NaN splits nothing
        split = np.any(np.abs(whole - (left + right)) > tol, axis=1)
        kept.append(a[~split])
        if not split.any():
            break
        a, b = np.concatenate((a[split], m[split])), np.concatenate((m[split], b[split]))
        whole = np.concatenate((left[split], right[split]))
    else:
        kept.append(a)
    return [*np.sort(np.concatenate(kept)).tolist(), edges[-1]]


class SurvivalTable:
    """Tail integrals of a survival function sf = 1 - F, tabulated once.

    Holds, at the edges of its panels, P(z) = integral of sf(y)/y^2 over
    [z, inf), which is E[(1/z - 1/Z)+], and C(z) = integral of sf(y)/y,
    which is E[log(Z/z); Z > z], and keeps every node y with w sf(y) and
    w y pdf(y), for its weight w in u. ``sf``, ``cdf`` and the density
    ``pdf`` take arrays of z > 0; ``knots`` are points where the law may be
    rough, and every panel lies between two of them. The panels start at
    about ``_PANELS_PER_UNIT`` to a unit of u and are halved where a panel's
    integrals of sf/y, sf and y pdf miss those of its halves
    (``_refined_edges``), so a sharply peaked law gets narrow panels at its
    peak.
    Below the table's lower end ``lo`` F is under ``SF_TABLE_CUT``, so sf
    is taken as 1 there and P, C and RA have closed forms; above its top
    sf is taken as 0. ``mass`` is the density's integral over the nodes
    plus F(lo).
    The density starts at the smallest knot when top < inf, at 0 otherwise;
    below lo one more 20-node panel in y itself keeps w pdf(y) for
    ``expectation``, exact for a density linear there times a g such as
    1/y or y.
    """

    def __init__(self, sf: Callable, cdf: Callable, pdf: Callable, knots: Sequence[float] = (),
                 top: float = math.inf):
        self.sf = sf
        positive = sorted(float(k) for k in knots if 0.0 < k < top)
        self.lo = self._lower_end(cdf, positive)
        u_lo = math.log(self.lo)
        u_hi = math.log(top) if top < math.inf else self._upper_end(sf, positive)
        breaks = [u_lo, *(math.log(k) for k in positive if u_lo < math.log(k) < u_hi), u_hi]
        edges = [u_lo]
        for a, b in zip(breaks[:-1], breaks[1:]):
            n = max(1, math.ceil(_PANELS_PER_UNIT * (b - a)))
            edges.extend(np.linspace(a, b, n + 1)[1:].tolist())
        self.u_edges = _refined_edges(sf, pdf, edges)
        e = np.asarray(self.u_edges)
        y, w_sf, w_y_pdf = _u_panels(sf, pdf, e[:-1], e[1:])
        self.P_edges = _sum_from_top(np.sum(w_sf / y, axis=1))
        self.C_edges = _sum_from_top(np.sum(w_sf, axis=1))
        # C(lo) + log lo: E[log Z], to within the F < SF_TABLE_CUT below lo
        self._log_mean = float(self.C_edges[0]) + math.log(self.lo)
        self._neg_P = -self.P_edges
        self._y, self._w_sf = y.ravel(), w_sf.ravel()
        self.mass = float(np.sum(w_y_pdf)) + float(cdf(self.lo))
        self._pdf_y, self._w_pdf = self._y, w_y_pdf.ravel()
        bottom = min(float(k) for k in knots) if top < math.inf and knots else 0.0
        if bottom < self.lo:
            half = 0.5 * (self.lo - bottom)
            y = 0.5 * (self.lo + bottom) + half * _SF_NODES
            self._pdf_y = np.concatenate((self._y, y))
            self._w_pdf = np.concatenate((self._w_pdf, half * _SF_WEIGHTS * pdf(y)))

    @staticmethod
    def _lower_end(cdf, knots) -> float:
        """The largest of the first knot (or 1) stepped down in u, and the
        knots, at which F is below ``SF_TABLE_CUT``."""
        ref = knots[0] if knots else 1.0
        steps = np.arange(0.0, _U_LIMIT + math.log(ref), _END_STEP)
        z = np.concatenate((ref * np.exp(-steps), knots))
        below = z[np.asarray(cdf(z)) < SF_TABLE_CUT]
        return float(below.max()) if below.size else float(z.min())

    @staticmethod
    def _upper_end(sf, knots) -> float:
        """u of the first point above the last knot (or 1), stepped up in u,
        past which a left sum of sf, an upper bound of the rest of
        the integral of sf du for a decreasing sf, is below ``SF_TABLE_CUT``."""
        u_ref = math.log(knots[-1]) if knots else 0.0
        u = u_ref + np.arange(0.0, _U_LIMIT - u_ref, _END_STEP)
        # sf is read on blocks of doubling length until it reads 0; the points
        # past that are zeros, which the sums from the top would add first,
        # exactly
        blocks, i, n = [u[:0]], 0, _END_BLOCK
        while i < u.size:
            blocks.append(np.asarray(sf(np.exp(u[i:i + n]))))
            if blocks[-1][-1] == 0.0:
                break
            i, n = i + n, 2 * n
        rest = _sum_from_top(_END_STEP * np.concatenate(blocks))[:-1]
        small = np.nonzero(rest <= SF_TABLE_CUT)[0]
        return float(u[small[0]] if small.size else u[-1])

    def tails_below(self, z: float) -> tuple[float, float]:
        """(P(z), C(z)) for 0 < z <= lo, where sf is 1: P(lo) + 1/z - 1/lo
        and C(lo) + log(lo / z), in closed form."""
        return float(self.P_edges[0] + (1.0 / z - 1.0 / self.lo)), self._log_mean - math.log(z)

    def tails(self, z: float) -> tuple[float, float]:
        """(P(z), C(z)) for z > 0: the sums above the panel holding z, plus
        the part of that panel above z on its own 20 nodes."""
        if z <= self.lo:
            return self.tails_below(z)
        u = math.log(z)
        k = bisect.bisect_right(self.u_edges, u) - 1
        if k >= len(self.u_edges) - 1:
            return 0.0, 0.0
        y, w = _u_panel(u, self.u_edges[k + 1])
        w_sf = w * self.sf(y)
        return (float(self.P_edges[k + 1] + np.dot(w_sf, 1.0 / y)),
                float(self.C_edges[k + 1] + np.sum(w_sf)))

    def power_panel(self, p: float) -> int:
        """Index k of the panel [u_edges[k], u_edges[k+1]] on which P falls
        through p > 0, or -1 when p exceeds P at the lower end."""
        return int(np.searchsorted(self._neg_P, -p, side="right")) - 1

    def _capped_sum(self, h: Callable, cap: float) -> float:
        """Integral of sf(y) h(y) du over [lo, cap] in u = log y, for cap > lo:
        the stored nodes of the panels below the one holding cap, plus that
        panel's part below cap on its own 20 nodes. Past the top it adds
        nothing. ``h`` takes arrays."""
        u = math.log(cap)
        k = bisect.bisect_right(self.u_edges, u) - 1
        if k >= len(self.u_edges) - 1:
            return float(np.dot(self._w_sf, h(self._y)))
        m = k * _SF_NODES.size
        y, w = _u_panel(self.u_edges[k], u)
        return float(np.dot(self._w_sf[:m], h(self._y[:m])) + np.dot(w * self.sf(y), h(y)))

    def sf_integral(self, cap: float = math.inf) -> float:
        """E[min(Z, cap)] = integral of sf over [0, cap], for cap > 0; sf is
        1 below lo and 0 past the top, so at cap = inf it is E[Z] when no
        mass is left past the top."""
        if cap <= self.lo:
            return cap
        return self.lo + self._capped_sum(lambda y: y, cap)

    def log1p_expectation(self, s: float, cap: float = math.inf) -> float:
        """E[log(1 + s min(Z, cap))] = integral of s sf(y)/(1 + s y) dy over
        [0, cap], for s > 0 and cap > 0."""
        if cap <= self.lo:
            return math.log1p(s * cap)
        return math.log1p(s * self.lo) + self._capped_sum(lambda y: s * y / (1.0 + s * y), cap)

    def expectation(self, g: Callable) -> float:
        """Integral of g(y) pdf(y) from the density's start to the table's
        top, past which no mass is left: g on every stored node, one call on
        an array, dotted with the density weights kept at build."""
        return float(np.dot(self._w_pdf, g(self._pdf_y)))


def find_root_monotone(
    g: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-12,
    *,
    dg: Callable[[float], float],
) -> float:
    """Root of a monotone g with a sign change on the bracket, by
    safeguarded Newton with the derivative ``dg``.

    Started at ``bracket.lo``, a Newton step is taken when it lands
    strictly inside the current sign-change bracket, and the bracket is
    bisected otherwise: also where g is not finite, or ``dg`` is zero,
    infinite, NaN or of the wrong sign for g's direction. It returns a
    point at which g was evaluated, once its Newton step or the bracket is
    at most ``tol`` (plus a few ulps) wide. BracketError when g has no
    sign change on the bracket.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = bracket.lo, bracket.hi
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g(lo)={g_lo}, g(hi)={g_hi}")
    # g(lo) and g(hi) have opposite signs, so g's monotone direction is known
    sign = 1.0 if g_lo < 0.0 else -1.0
    x, gx = lo, g_lo
    for _ in range(200):
        xtol = tol + 4.0 * _EPS * abs(x)
        if hi - lo <= xtol:
            return x
        slope = dg(x)
        step = None
        if math.isfinite(gx) and 0.0 < sign * slope < math.inf:
            step = gx / slope
            if abs(step) <= xtol:
                return x
            if not lo < x - step < hi:
                step = None
        x = x - step if step is not None else 0.5 * (lo + hi)
        gx = g(x)
        if gx == 0.0:
            return x
        if sign * gx < 0.0:
            lo = x
        else:
            hi = x
    raise RuntimeError("Newton iteration did not converge in 200 steps")


@functools.lru_cache(maxsize=64)  # a bracket depends on the law alone
def _log_grid(lo: float, hi: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    grid = tuple(np.geomspace(lo, hi, _MAXIMIZE_GRID).tolist())
    return grid, tuple(math.log(x) for x in grid)


def _argmax(values: Sequence[float]) -> int:
    """``np.argmax`` of floats without an array: the first NaN, else the first largest."""
    nan = [i for i, v in enumerate(values) if v != v]
    return nan[0] if nan else values.index(max(values))


def maximize_unimodal(
    h: Callable[[float], float],
    bracket: Bracket,
    *,
    foc: Callable[[float], float],
    dfoc: Callable[[float], float],
) -> float:
    """Argmax of a (nominally unimodal) h on a positive bracket.

    h, then ``foc``, is read at ``_MAXIMIZE_GRID`` log-spaced points x in
    order; ``foc(u)`` has the sign of dh/du at x = e^u. In each cell where
    ``foc`` falls from > 0 to < 0, ``find_root_monotone`` with ``dfoc`` finds
    its root in u = log x to a width ``REL_TOL``. The root with the largest
    h is returned, unless the best grid point's h (the first of equal
    values) beats it by more than ``REL_TOL`` relative: a hump inside one
    cell, a maximum at an end or a NaN ``foc``. ValueError unless
    ``bracket.lo > 0``.
    """
    if not bracket.lo > 0.0:
        raise ValueError(f"the bracket must be positive, got [{bracket.lo}, {bracket.hi}]")
    grid, u = _log_grid(bracket.lo, bracket.hi)
    values = [h(x) for x in grid]
    signs = [foc(v) for v in u]
    best = _argmax(values)
    roots = [math.exp(find_root_monotone(foc, Bracket(a, b), REL_TOL, dg=dfoc))
             for a, b, fa, fb in zip(u, u[1:], signs, signs[1:]) if fa > 0.0 > fb]
    if roots:
        peaks = [h(x) for x in roots]
        k = _argmax(peaks)
        # written so that a NaN h at the root keeps the grid point
        if peaks[k] >= values[best] - REL_TOL * abs(values[best]):
            return roots[k]
    return grid[best]
