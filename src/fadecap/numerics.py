"""Shared numerical kernels.

Adaptive quadrature on finite and semi-infinite intervals, a fixed
piecewise Gauss-Legendre rule for bounded supports, bracketed monotone
root finding (Brent's method, or safeguarded Newton when the derivative
is supplied) and unimodal 1-D maximization.

The semi-infinite case maps [a, inf) onto [0, 1) with z = a + t/(1-t),
so exponential, power-law and extreme-value tails are all handled by the
same adaptive rule. Adaptive quadrature, derivative-free root finding
and maximization are delegated to scipy (QUADPACK, Brent's root finder
and bounded Brent minimization) behind the interfaces below; the fixed
rule and the Newton iteration are implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize
from scipy.integrate import quad

EULER_MASCHERONI = 0.5772156649015329

# Absolute floor below which quadrature error is not chased further.
ABS_TOL_FLOOR = 1e-14
DEFAULT_REL_TOL = 1e-10

_EPS = float(np.finfo(float).eps)

_QUAD_LIMIT = 250

# Gauss-Legendre nodes and weights on [-1, 1] for each piece of the fixed rule
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


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


def _integrate_pieces(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    knots: Sequence[float],
) -> float:
    """Integrate f over [a, b] by a fixed rule on the pieces between knots.

    ``f`` takes an array of points. The knots inside (a, b) split [a, b]
    into pieces, and each piece gets 12-node Gauss-Legendre, so an
    integrand that is smooth between knots (a piecewise-linear density
    times a smooth function) needs no adaptive subdivision. A piece
    spanning more than a factor of 4 is refined geometrically, so 1/z-type
    integrands stay accurate when a low cut clips into it; a piece from
    the origin is cut geometrically down to a negligible inner sliver,
    which resolves integrands such as log(1 + S z) whose scale near 0
    grows with S.
    """
    edges = [a, *(k for k in knots if a < k < b), b]
    lo, hi = [], []
    for ai, bi in zip(edges[:-1], edges[1:]):
        if ai == 0.0:
            sub = np.concatenate(([0.0], np.geomspace(bi * 4.0 ** -27, bi, 28)))
        elif bi / ai > 4.0:
            sub = np.geomspace(ai, bi, int(np.ceil(np.log(bi / ai) / np.log(4.0))) + 2)
        else:
            lo.append(ai)
            hi.append(bi)
            continue
        lo.extend(sub[:-1])
        hi.extend(sub[1:])
    lo, hi = np.asarray(lo), np.asarray(hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    values = f(mid[:, None] + half[:, None] * _GL_NODES)
    return float(np.sum(half * np.sum(values * _GL_WEIGHTS, axis=1)))


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
    refined = optimize.minimize_scalar(
        lambda u: -h(from_u(u)),
        bounds=(to_u(left), to_u(right)),
        method="bounded",
        options={"xatol": tol},
    )
    if -refined.fun > best_val:
        best_x, best_val = from_u(refined.x), -refined.fun
    return float(best_x), float(best_val)
