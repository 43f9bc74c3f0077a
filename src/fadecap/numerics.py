"""Shared numerical kernels.

Adaptive quadrature on finite and semi-infinite intervals, survival-function
tables for the integrals of a gain law, bracketed monotone root finding
(Brent's method, or safeguarded Newton when the derivative is supplied)
and unimodal 1-D maximization.

The semi-infinite case maps [a, inf) onto [0, 1) with z = a + t/(1-t),
so exponential, power-law and extreme-value tails are all handled by the
same adaptive rule. Adaptive quadrature, derivative-free root finding
and maximization are delegated to scipy (QUADPACK, Brent's root finder
and bounded Brent minimization) behind the interfaces below; the survival
tables and the Newton iteration are implemented here. scipy.integrate and
scipy.optimize are imported on first use, inside the functions that call
them: building a gain law and a sweep without ``tci:opt`` need neither.

A ``SurvivalTable`` integrates a survival function sf = 1 - F once, on
20-node Gauss-Legendre panels in u = log z, and keeps the sums of the
panels from the top. Integration by parts writes the OA power constraint,
the OA capacity, the RA capacity and the CTCI capacity as integrals of sf
alone, with positive integrands: a table lookup plus one partial panel
above a point, or a sum over the stored nodes below a cap plus one
partial panel. An integral of g times the density over a range (every
expectation on a bounded support and a law's moments) takes the same
nodes, with the density evaluated at each query. The density at the
nodes also gives the law's mass, and the nodes' sf its mean, which the
law checks when built.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

EULER_MASCHERONI = 0.5772156649015329

# Absolute floor below which quadrature error is not chased further.
ABS_TOL_FLOOR = 1e-14
DEFAULT_REL_TOL = 1e-10

_EPS = float(np.finfo(float).eps)

_QUAD_LIMIT = 250

# Survival tables: 20-node Gauss-Legendre panels in u = log z, about
# _PANELS_PER_UNIT of them to a unit of u. A table starts where F drops
# below SF_TABLE_CUT and stops at the support top, or where the integral
# of sf(y)/y dy above it drops below SF_TABLE_CUT.
_SF_NODES, _SF_WEIGHTS = np.polynomial.legendre.leggauss(20)
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


def _check_rel_tol(rel_tol: float):
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
    knots: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over [a, b] adaptively.

    ``knots`` are interior points where the integrand may be rough
    (kinks, narrow features); subdivision is forced there. ``a == b``
    returns exactly zero.
    """
    _check_rel_tol(rel_tol)
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
        epsrel=rel_tol,
        limit=_QUAD_LIMIT,
        points=points,
        full_output=True,
    )
    value, abs_err, info = out[0], out[1], out[2]
    result = QuadResult(float(value), float(abs_err), int(info["neval"]))
    if len(out) > 3:
        # QUADPACK flagged trouble; accept the value only if the error
        # estimate is still within an order of the requested tolerance.
        tolerance = max(10.0 * rel_tol * abs(value), 1e-12)
        if abs_err > tolerance:
            raise QuadratureError(f"quadrature did not converge: {out[3]}", result)
    return result


def integrate_semi_infinite(
    f: Callable[[float], float],
    a: float,
    rel_tol: float = DEFAULT_REL_TOL,
    knots: Sequence[float] = (),
) -> QuadResult:
    """Integrate f over [a, inf) via the transform z = a + t/(1-t).

    The image interval is [0, 1); the integrand is treated as zero at
    the open endpoint, which is the correct limit for any integrable f.
    """
    _check_rel_tol(rel_tol)

    def transformed(t: float) -> float:
        u = 1.0 - t
        if u <= 0.0:
            return 0.0
        z = a + t / u
        return f(z) / (u * u)

    mapped = [(k - a) / (1.0 + (k - a)) for k in knots if k > a]
    return integrate_finite(transformed, 0.0, 1.0, rel_tol, knots=mapped)


def _sum_from_top(panels: np.ndarray) -> np.ndarray:
    """Sums of ``panels[k:]`` for k = 0..n; the last is 0."""
    return np.concatenate((np.cumsum(panels[::-1])[::-1], [0.0]))


def _u_panel(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w of the 20-node panel over [a, b] in u = log y."""
    half = 0.5 * (b - a)
    return np.exp(0.5 * (a + b) + half * _SF_NODES), half * _SF_WEIGHTS


def _u_panels(sf: Callable, pdf: Callable, a: np.ndarray, b: np.ndarray):
    """Nodes y, one row per panel [a_i, b_i] in u, their weights w, w sf(y)
    and w y pdf(y)."""
    half = 0.5 * (b - a)[:, None]
    y = np.exp(0.5 * (a + b)[:, None] + half * _SF_NODES)
    w = half * _SF_WEIGHTS
    return y, w, w * sf(y), w * y * pdf(y)


def _panel_sums(sf: Callable, pdf: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The integrals of sf/y, sf and y pdf over each panel [a_i, b_i] in u,
    one row per panel."""
    y, _, w_sf, w_y_pdf = _u_panels(sf, pdf, a, b)
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
    which is E[log(Z/z); Z > z], and keeps every node y with w y and
    w sf(y), for its weight w in u. ``sf``, ``cdf`` and the density ``pdf``
    take arrays of z > 0; ``knots`` are points where the law may be rough,
    and every panel lies between two of them. The panels start at about
    ``_PANELS_PER_UNIT`` to a unit of u and are halved where a panel's
    integrals of sf/y, sf and y pdf miss those of its halves
    (``_refined_edges``), so a sharply peaked law gets narrow panels at its
    peak.
    Below the table's lower end ``lo`` F is under ``SF_TABLE_CUT``, so sf
    is taken as 1 there and P, C and RA have closed forms; above its top
    sf is taken as 0. ``mass`` is the density's integral over the nodes
    plus F(lo).
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
        y, w, w_sf, w_y_pdf = _u_panels(sf, pdf, e[:-1], e[1:])
        self.P_edges = _sum_from_top(np.sum(w_sf / y, axis=1))
        self.C_edges = _sum_from_top(np.sum(w_sf, axis=1))
        # C(lo) + log lo: E[log Z], to within the F < SF_TABLE_CUT below lo
        self._log_mean = float(self.C_edges[0]) + math.log(self.lo)
        self._neg_P = -self.P_edges
        self._y, self._wy, self._w_sf = y.ravel(), (w * y).ravel(), w_sf.ravel()
        self.mass = float(np.sum(w_y_pdf)) + float(cdf(self.lo))

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
        rest = _sum_from_top(_END_STEP * np.asarray(sf(np.exp(u))))[:-1]
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

    def expectation(self, g: Callable, pdf: Callable, bottom: float = 0.0,
                    top: float = math.inf) -> float:
        """Integral of g(y) pdf(y) over [bottom, top], for 0 <= bottom.

        In u = log y, w y g(y) pdf(y) is summed over the stored nodes of the
        panels between the ends, plus the part inside [bottom, top] of each
        end's panel on its own 20 nodes (one panel when both ends share
        it). Below ``lo``, where F is under ``SF_TABLE_CUT``, the part over
        [bottom, lo] is one 20-node panel in y itself, exact for a density
        linear there times a g such as 1/y or y; above the table's top there
        is no mass left to add. ``g`` and ``pdf`` take arrays and are called
        once, on every node: the table keeps only its weights.
        """
        if top <= bottom:
            return 0.0
        edges, n = self.u_edges, len(self.u_edges) - 1
        parts = []  # (y, w y) on each stretch

        def partial(a, b):
            y, w = _u_panel(a, b)
            parts.append((y, w * y))

        a, b = math.log(max(bottom, self.lo)), min(math.log(top), edges[-1])
        if a < b:
            j = bisect.bisect_right(edges, a) - 1
            k = bisect.bisect_right(edges, b) - 1 if b < edges[-1] else n
            if j == k:
                partial(a, b)
            else:
                if a > edges[j]:
                    partial(a, edges[j + 1])
                    j += 1
                m = _SF_NODES.size
                parts.append((self._y[j * m:k * m], self._wy[j * m:k * m]))
                if k < n:
                    partial(edges[k], b)
        if bottom < self.lo:
            c = min(top, self.lo)
            half = 0.5 * (c - bottom)
            parts.append((0.5 * (c + bottom) + half * _SF_NODES, half * _SF_WEIGHTS))
        if not parts:
            return 0.0
        y = np.concatenate([y for y, _ in parts])
        wy = np.concatenate([wy for _, wy in parts])
        return float(np.dot(wy * g(y), pdf(y)))


def find_root_monotone(
    g: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-12,
    dg: Callable[[float], float] = None,
) -> float:
    """Root of a monotone g with a sign change on the bracket.

    Without ``dg``, Brent's method with bisection safeguard: convergence
    is guaranteed, and the final bracket width is at most ``tol`` (plus a
    few ulps of the root itself).

    With the derivative ``dg``, safeguarded Newton started at
    ``bracket.lo``: a Newton step is taken when it lands strictly inside
    the current sign-change bracket, and the bracket is bisected
    otherwise: also where g is not finite, or ``dg`` is zero, infinite,
    NaN or of the wrong sign for g's direction. It returns a point at
    which g was evaluated, once its Newton step or the bracket is at
    most ``tol`` (plus a few ulps) wide.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    g_lo = g(bracket.lo)
    g_hi = g(bracket.hi)
    if g_lo == 0.0:
        return bracket.lo
    if g_hi == 0.0:
        return bracket.hi
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        raise BracketError(
            f"no sign change on [{bracket.lo}, {bracket.hi}]: g(lo)={g_lo}, g(hi)={g_hi}"
        )
    if dg is None:
        from scipy import optimize

        root = optimize.brentq(g, bracket.lo, bracket.hi, xtol=tol, maxiter=200)
        return float(root)
    return _safeguarded_newton(g, dg, bracket.lo, g_lo, bracket.hi, tol)


def _safeguarded_newton(g, dg, lo: float, g_lo: float, hi: float, tol: float) -> float:
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


def maximize_unimodal(
    h: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-8,
    grid_points: int = 64,
) -> tuple[float, float]:
    """Maximize a (nominally unimodal) h on the bracket.

    A grid pre-scan guards against mild non-unimodality before scipy's
    bounded Brent refinement inside the best grid cell. The grid and the
    refinement work in log coordinates when the bracket is positive and
    spans more than a decade, so wide threshold searches get uniform
    relative resolution; ``tol`` is then a width in log space. On
    plateaus the grid keeps the smallest argument, and the refined point
    replaces it only when its value is strictly larger.

    Returns ``(argmax, max)`` with ``max`` at least the value of h at
    both bracket ends.
    """
    lo, hi = bracket.lo, bracket.hi
    use_log = lo > 0.0 and hi / lo >= 10.0
    if use_log:
        grid = np.geomspace(lo, hi, grid_points)
        to_u, from_u = math.log, math.exp
    else:
        grid = np.linspace(lo, hi, grid_points)
        to_u, from_u = float, float
    values = [h(float(x)) for x in grid]
    best = int(np.argmax(values))
    best_x, best_val = float(grid[best]), float(values[best])

    left = float(grid[max(best - 1, 0)])
    right = float(grid[min(best + 1, grid_points - 1)])
    if left == right:
        return best_x, best_val
    from scipy import optimize

    refined = optimize.minimize_scalar(
        lambda u: -h(from_u(u)),
        bounds=(to_u(left), to_u(right)),
        method="bounded",
        options={"xatol": tol},
    )
    if -refined.fun > best_val:
        best_x, best_val = from_u(refined.x), -refined.fun
    return float(best_x), float(best_val)
