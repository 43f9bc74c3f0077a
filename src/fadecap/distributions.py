"""Effective channel gain models.

The effective gain is the instantaneous SNR divided by the average
transmit power, so its law is power-independent and the capacity
routines take the power as a separate argument. Each model carries its
density and distribution function, the moments the asymptotic analysis
needs (E[z], E[1/z], E[log z]), the supremum of its support, the
diversity order d governing CDF decay near zero (F(z) ~ z^d), and an
exact sampler.

E[1/z] may be infinite (e.g. single-antenna Rayleigh); channel-inversion
style schemes consult ``inverse_mean_finite`` and degrade gracefully.
Heavy-tailed gains may have infinite E[z]; ``mean_finite`` flags the
resulting inconsistency with a finite-average-power link budget.

Built-in families:

* ``make_gamma_diversity(N)``  -- N-antenna beamforming over Rayleigh:
  pdf z^(N-1) e^(-z) / Gamma(N).
* ``make_max_exponential(K)``  -- best of K Rayleigh users:
  cdf (1 - e^(-z))^K.
* ``make_frechet(alpha, K)``   -- best of K heavy-tailed users:
  cdf exp(-K z^(-alpha)).
* ``make_miso_multiuser(N, K)``-- N antennas, K users:
  pdf K P(N,z)^(K-1) z^(N-1) e^(-z) / Gamma(N) with P the regularized
  lower incomplete Gamma.
* ``make_tabulated(grid)``     -- piecewise-linear density from (z, pdf)
  samples, for gain laws with no closed form.

Densities and distribution functions accept a scalar or an array. A
scalar float argument returns a Python float through a direct path with
no array allocation, which is the path adaptive quadrature takes one
point at a time; an array argument returns an array of the same shape.

Distributions are immutable after construction; samplers take an
explicit numpy Generator so callers own all random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .numerics import (
    EULER_MASCHERONI,
    integrate_finite,
    integrate_semi_infinite,
)

# Moments feed high-SNR gap formulas that are checked to 1e-10, so they
# are integrated well past the capacity-integral tolerance.
MOMENT_REL_TOL = 1e-12

_MASS_TOL = 1e-9
_MEAN_CROSS_CHECK_RTOL = 1e-8

DISTRIBUTION_KINDS = (
    "gamma_diversity",
    "max_exponential",
    "frechet",
    "miso_multiuser",
    "tabulated",
)


def _as_float_or_array(z, compute_pos, at_zero: float = 0.0):
    """Evaluate ``compute_pos`` on the z > 0 entries, filling the rest.

    Accepts scalars or arrays; negative and NaN arguments map to 0,
    z == 0 maps to ``at_zero`` (the continuous limit of the density
    there). A float argument (a Python float, or ``np.float64``) takes a
    direct path with no array allocation and returns a Python float:
    quadrature calls densities one point at a time, so this path sets
    the cost of every capacity integral. ``compute_pos`` therefore gets
    either an array or an ``np.float64`` scalar and must accept both.
    """
    if isinstance(z, float):
        if z > 0.0:
            return float(compute_pos(np.float64(z)))
        return at_zero if z == 0.0 else 0.0
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros(arr.shape, dtype=float)
    pos = arr > 0.0
    if pos.any():
        out[pos] = compute_pos(arr[pos])
    out[arr == 0.0] = at_zero
    return float(out[0]) if scalar else out


@dataclass(frozen=True, repr=False)
class FadingDistribution:
    """Immutable effective-gain law: density, CDF, moments, sampler."""

    name: str
    pdf: Callable
    cdf: Callable
    mean: float
    inverse_mean: float
    log_mean: float
    support_sup: float
    diversity_order: float
    quad_knots: tuple = ()
    sampler: Callable = None
    # Optional override for expectations (piecewise models integrate
    # segment-by-segment instead of relying on adaptive subdivision).
    expect_impl: Optional[Callable] = None

    def __repr__(self):
        return f"FadingDistribution({self.name})"

    @property
    def inverse_mean_finite(self) -> bool:
        return math.isfinite(self.inverse_mean)

    @property
    def mean_finite(self) -> bool:
        return math.isfinite(self.mean)

    def expect(self, integrand=None, lo: float = 0.0, hi: float = None,
               rel_tol: float = MOMENT_REL_TOL) -> float:
        """Integral of integrand(z) * pdf(z) over [lo, hi] (hi=None: support top)."""
        upper = self.support_sup if hi is None else min(hi, self.support_sup)
        lower = max(lo, 0.0)
        if upper <= lower:
            return 0.0
        if self.expect_impl is not None:
            return self.expect_impl(integrand, lower, upper)
        if integrand is None:
            f = self.pdf
        else:
            f = lambda z: integrand(z) * self.pdf(z)
        if math.isinf(upper):
            return integrate_semi_infinite(f, lower, rel_tol, knots=self.quad_knots).value
        return integrate_finite(f, lower, upper, rel_tol, knots=self.quad_knots).value

    def tail_inverse_integral(self, t: float) -> float:
        """Integral of pdf(z)/z over [t, support top)."""
        t = max(t, 0.0)
        if t == 0.0 and not self.inverse_mean_finite:
            return math.inf
        return self.expect(lambda z: 1.0 / z, lo=t)

    def head_mean(self, t: float) -> float:
        """Integral of z * pdf(z) over [0, t]."""
        return self.expect(lambda z: z, hi=t)

    def sample(self, rng: np.random.Generator, size: int = None):
        """Draw effective gains; a scalar when size is None."""
        if size is None:
            return float(self.sampler(rng, 1)[0])
        return self.sampler(rng, int(size))

    def scaled(self, c: float) -> "FadingDistribution":
        """The law of c * z for finite c > 0 (exact moment transforms)."""
        if not 0.0 < c < math.inf:
            raise ValueError(f"scale must be finite and positive, got {c}")
        base = self
        scaled_expect = None
        if base.expect_impl is not None:
            def scaled_expect(integrand, lo, hi):
                if integrand is None:
                    return base.expect_impl(None, lo / c, hi / c)
                return base.expect_impl(lambda w: integrand(c * w), lo / c, hi / c)
        return FadingDistribution(
            name=f"scaled({c})*{base.name}",
            pdf=lambda z: base.pdf(np.asarray(z, dtype=float) / c) / c,
            cdf=lambda z: base.cdf(np.asarray(z, dtype=float) / c),
            mean=c * base.mean,
            inverse_mean=base.inverse_mean / c,
            log_mean=base.log_mean + math.log(c),
            support_sup=c * base.support_sup,
            diversity_order=base.diversity_order,
            quad_knots=tuple(c * k for k in base.quad_knots),
            sampler=lambda rng, n: c * base.sampler(rng, n),
            expect_impl=scaled_expect,
        )


def _validate(dist: FadingDistribution) -> FadingDistribution:
    """Construction-time sanity checks shared by all factories."""
    if abs(float(dist.cdf(0.0))) > 1e-12:
        raise ValueError(f"{dist.name}: cdf(0) must be 0")
    # written as "not within" so that a NaN fails each check
    mass = dist.expect(rel_tol=1e-10)
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise ValueError(f"{dist.name}: density mass {mass} deviates from 1")
    if dist.mean_finite:
        mean_quad = dist.expect(lambda z: z, rel_tol=1e-10)
        if not abs(mean_quad - dist.mean) <= _MEAN_CROSS_CHECK_RTOL * max(abs(dist.mean), 1.0):
            raise ValueError(
                f"{dist.name}: mean {dist.mean} vs quadrature {mean_quad} mismatch"
            )
    return dist


def _check_positive_int(value, name: str) -> int:
    if isinstance(value, bool) or value != int(value) or int(value) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def make_gamma_diversity(N) -> FadingDistribution:
    """Sum of N unit-rate exponentials: N-antenna beamforming gain.

    mean N, E[1/z] = 1/(N-1) for N >= 2 (infinite at N = 1),
    E[log z] = psi(N), diversity order N.
    """
    N = _check_positive_int(N, "N")
    lg = special.gammaln(N)

    def pdf(z):
        return _as_float_or_array(
            z,
            lambda zp: np.exp((N - 1) * np.log(zp) - zp - lg),
            at_zero=1.0 if N == 1 else 0.0,
        )

    def cdf(z):
        return _as_float_or_array(z, lambda zp: special.gammainc(N, zp))

    dist = FadingDistribution(
        name=f"gamma_diversity(N={N})",
        pdf=pdf,
        cdf=cdf,
        mean=float(N),
        inverse_mean=1.0 / (N - 1) if N >= 2 else math.inf,
        log_mean=float(special.digamma(N)),
        support_sup=math.inf,
        diversity_order=float(N),
        quad_knots=(0.5 * N, float(N), 2.0 * N + 2.0),
        sampler=lambda rng, n: rng.standard_exponential((n, N)).sum(axis=1),
    )
    return _validate(dist)


def _harmonic(K: int) -> float:
    return float(np.sum(1.0 / np.arange(1, K + 1)))


def make_max_exponential(K) -> FadingDistribution:
    """Maximum of K unit-rate exponentials: K-user selection gain.

    mean is the K-th harmonic number; diversity order K. E[1/z] and
    E[log z] have no stable closed form for general K (the alternating
    binomial sums cancel catastrophically), so they are integrated
    numerically, with exact overrides for K = 1, 2.
    """
    K = _check_positive_int(K, "K")

    # 1 - e^(-z) as -expm1(-z): forming it from exp(-z) cancels for small z
    def pdf(z):
        return _as_float_or_array(
            z,
            lambda zp: K * np.exp(-zp + (K - 1) * np.log(-np.expm1(-zp))),
            at_zero=1.0 if K == 1 else 0.0,
        )

    def cdf(z):
        return _as_float_or_array(z, lambda zp: np.exp(K * np.log(-np.expm1(-zp))))

    mean = _harmonic(K)
    knots = (0.5 * mean, mean, mean + 4.0)
    if K == 1:
        inverse_mean = math.inf
        log_mean = -EULER_MASCHERONI
    elif K == 2:
        # Frullani: E[1/z] = 2 log 2; E[log z] = log 2 - gamma_em.
        inverse_mean = 2.0 * math.log(2.0)
        log_mean = math.log(2.0) - EULER_MASCHERONI
    else:
        inverse_mean = integrate_semi_infinite(
            lambda z: pdf(z) / z, 0.0, MOMENT_REL_TOL, knots=knots
        ).value
        log_mean = integrate_semi_infinite(
            lambda z: math.log(z) * pdf(z), 0.0, MOMENT_REL_TOL, knots=knots
        ).value

    def sampler(rng, n):
        u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
        return -np.log1p(-u ** (1.0 / K))

    dist = FadingDistribution(
        name=f"max_exponential(K={K})",
        pdf=pdf,
        cdf=cdf,
        mean=mean,
        inverse_mean=inverse_mean,
        log_mean=log_mean,
        support_sup=math.inf,
        diversity_order=float(K),
        quad_knots=knots,
        sampler=sampler,
    )
    return _validate(dist)


def make_frechet(alpha: float, K=1) -> FadingDistribution:
    """Maximum of K Frechet gains, base cdf exp(-z^(-alpha)).

    The K-user maximum is the base law rescaled by K^(1/alpha):
    cdf exp(-K z^(-alpha)). mean = K^(1/alpha) Gamma(1 - 1/alpha) is
    finite only for alpha > 1; E[1/z] = K^(-1/alpha) Gamma(1 + 1/alpha)
    is always finite; E[log z] = (log K + gamma_em) / alpha. The CDF
    vanishes faster than any power at 0, so the diversity order is
    infinite.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    K = _check_positive_int(K, "K")
    scale = K ** (1.0 / alpha)

    def inv_power(zp):
        # z^(-alpha) overflows to inf near 0, where pdf and cdf are 0
        with np.errstate(over="ignore"):
            return zp ** (-alpha)

    def pdf(z):
        return _as_float_or_array(
            z,
            lambda zp: alpha * K * np.exp(-(alpha + 1) * np.log(zp) - K * inv_power(zp)),
        )

    def cdf(z):
        return _as_float_or_array(z, lambda zp: np.exp(-K * inv_power(zp)))

    mean = scale * float(special.gamma(1.0 - 1.0 / alpha)) if alpha > 1.0 else math.inf

    def sampler(rng, n):
        u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
        return (-np.log(u) / K) ** (-1.0 / alpha)

    dist = FadingDistribution(
        name=f"frechet(alpha={alpha},K={K})",
        pdf=pdf,
        cdf=cdf,
        mean=mean,
        inverse_mean=float(special.gamma(1.0 + 1.0 / alpha)) / scale,
        log_mean=(math.log(K) + EULER_MASCHERONI) / alpha,
        support_sup=math.inf,
        diversity_order=math.inf,
        quad_knots=(0.5 * scale, scale, 4.0 * scale),
        sampler=sampler,
    )
    return _validate(dist)


def make_miso_multiuser(N, K) -> FadingDistribution:
    """Best of K users, each seeing an N-antenna beamforming gain.

    pdf K P(N,z)^(K-1) z^(N-1) e^(-z) / Gamma(N), cdf P(N,z)^K, with P
    the regularized lower incomplete Gamma. E[1/z] is finite iff
    max(N, K) >= 2; moments have no closed form and are integrated
    numerically. Diversity order N*K.
    """
    N = _check_positive_int(N, "N")
    K = _check_positive_int(K, "K")
    lg = special.gammaln(N)

    def pdf(z):
        def positive(zp):
            # P(N, z) underflows to 0 for tiny z when N >= 2. Flooring it at
            # the least subnormal keeps log P finite: for K >= 2 the density
            # still underflows to 0 there, and for K = 1 it does not use P.
            p = np.fmax(special.gammainc(N, zp), math.ulp(0.0))
            return K * np.exp((K - 1) * np.log(p) + (N - 1) * np.log(zp) - zp - lg)

        return _as_float_or_array(z, positive, at_zero=1.0 if N == 1 and K == 1 else 0.0)

    def cdf(z):
        return _as_float_or_array(z, lambda zp: special.gammainc(N, zp) ** K)

    rough_center = N + math.log(K) + 1.0
    knots = (0.5 * N, rough_center, 2.0 * rough_center + 2.0)
    mean = integrate_semi_infinite(
        lambda z: z * pdf(z), 0.0, MOMENT_REL_TOL, knots=knots
    ).value
    if max(N, K) >= 2:
        inverse_mean = integrate_semi_infinite(
            lambda z: pdf(z) / z, 0.0, MOMENT_REL_TOL, knots=knots
        ).value
    else:
        inverse_mean = math.inf
    log_mean = integrate_semi_infinite(
        lambda z: math.log(z) * pdf(z), 0.0, MOMENT_REL_TOL, knots=knots
    ).value

    dist = FadingDistribution(
        name=f"miso_multiuser(N={N},K={K})",
        pdf=pdf,
        cdf=cdf,
        mean=mean,
        inverse_mean=inverse_mean,
        log_mean=log_mean,
        support_sup=math.inf,
        diversity_order=float(N * K),
        quad_knots=knots,
        sampler=lambda rng, n: rng.standard_exponential((n, K, N)).sum(axis=2).max(axis=1),
    )
    return _validate(dist)


# ---------------------------------------------------------------------------
# Tabulated (piecewise-linear) densities
# ---------------------------------------------------------------------------


_GAUSS_CACHE: dict = {}


def _gauss_nodes(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


class _TabulatedLaw:
    """Exact integrals and inverse-CDF sampling for a piecewise-linear pdf."""

    def __init__(self, z: np.ndarray, p: np.ndarray):
        self.z = z
        self.p = p
        h = np.diff(z)
        seg_mass = 0.5 * (p[:-1] + p[1:]) * h
        self.cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        self.cum[-1] = 1.0  # renormalized upstream; pin the top exactly

    def pdf(self, x):
        return np.interp(x, self.z, self.p, left=0.0, right=0.0)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        idx = np.clip(np.searchsorted(self.z, arr, side="right") - 1, 0, len(self.z) - 2)
        z0 = self.z[idx]
        slope = (self.p[idx + 1] - self.p[idx]) / (self.z[idx + 1] - z0)
        u = np.clip(arr - z0, 0.0, self.z[idx + 1] - z0)
        out = self.cum[idx] + self.p[idx] * u + 0.5 * slope * u * u
        out[arr <= self.z[0]] = 0.0
        out[arr >= self.z[-1]] = 1.0
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out

    def _segment_moments(self):
        """Per-segment exact integrals of z*p(z), p(z)/z and log(z)*p(z)."""
        z1, z2 = self.z[:-1], self.z[1:]
        p1, p2 = self.p[:-1], self.p[1:]
        h = z2 - z1
        m = (p2 - p1) / h

        mean_terms = z1 * p1 * h + 0.5 * z1 * m * h**2 + 0.5 * p1 * h**2 + m * h**3 / 3.0

        c0 = p1 - m * z1  # p(z) = c0 + c1 z with c1 = m
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_terms = np.where(
                z1 > 0.0, c0 * np.log(z2 / np.where(z1 > 0, z1, 1.0)) + m * h, np.inf
            )
        if self.z[0] == 0.0:
            # On [0, z2] the density is c0 + m z; the 1/z integral is
            # finite only if the density vanishes at the origin.
            inv_terms[0] = m[0] * h[0] if self.p[0] == 0.0 else np.inf

        log_terms = np.empty_like(h)
        for i in range(len(h)):
            log_terms[i] = _log_segment(c0[i], m[i], z1[i], z2[i])
        return mean_terms, inv_terms, log_terms

    def moments(self):
        mean_terms, inv_terms, log_terms = self._segment_moments()
        mean = float(np.sum(mean_terms))
        inverse_mean = float(np.sum(inv_terms)) if np.all(np.isfinite(inv_terms)) else math.inf
        log_mean = float(np.sum(log_terms))
        return mean, inverse_mean, log_mean

    def expect(self, integrand, lo: float, hi: float, nodes: int = 12) -> float:
        """Gauss-Legendre per clipped segment.

        Segments spanning more than a factor of 4 away from the origin
        are refined geometrically so 1/z-type integrands stay accurate
        after a low cut clips into a segment.
        """
        x_gl, w_gl = _gauss_nodes(nodes)
        lo = max(lo, self.z[0])
        hi = min(hi, self.z[-1])
        if hi <= lo:
            return 0.0
        a = np.maximum(self.z[:-1], lo)
        b = np.minimum(self.z[1:], hi)
        keep = b > a
        a, b = a[keep], b[keep]
        if len(a) == 0:
            return 0.0
        pieces_a, pieces_b = [], []
        for ai, bi in zip(a, b):
            if ai == 0.0:
                # resolve integrands whose scale of variation near the
                # origin is unknown (e.g. log(1 + S z) for large S):
                # geometric pieces down to a negligible inner sliver
                inner = bi * 4.0 ** -27
                edges = np.concatenate(([0.0], np.geomspace(inner, bi, 28)))
                pieces_a.extend(edges[:-1])
                pieces_b.extend(edges[1:])
            elif bi / ai > 4.0:
                n_sub = int(np.ceil(np.log(bi / ai) / np.log(4.0))) + 1
                edges = np.geomspace(ai, bi, n_sub + 1)
                pieces_a.extend(edges[:-1])
                pieces_b.extend(edges[1:])
            else:
                pieces_a.append(ai)
                pieces_b.append(bi)
        a = np.asarray(pieces_a)
        b = np.asarray(pieces_b)
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        pts = mid[:, None] + half[:, None] * x_gl[None, :]
        vals = self.pdf(pts)
        if integrand is not None:
            vals = vals * integrand(pts)
        return float(np.sum(half * np.sum(vals * w_gl[None, :], axis=1)))

    def sample(self, rng, n: int) -> np.ndarray:
        u = rng.random(n)
        idx = np.clip(np.searchsorted(self.cum, u, side="right") - 1, 0, len(self.z) - 2)
        z0 = self.z[idx]
        h = self.z[idx + 1] - z0
        p0 = self.p[idx]
        m = (self.p[idx + 1] - p0) / h
        rem = u - self.cum[idx]
        # solve p0 * t + m t^2 / 2 = rem on [0, h]
        with np.errstate(invalid="ignore", divide="ignore"):
            disc = np.sqrt(np.maximum(p0 * p0 + 2.0 * m * rem, 0.0))
            t_quad = np.where(m != 0.0, (disc - p0) / np.where(m != 0.0, m, 1.0), 0.0)
            t_lin = rem / np.where(p0 > 0.0, p0, 1.0)
        t = np.where(np.abs(m) > 1e-300, t_quad, t_lin)
        return z0 + np.clip(t, 0.0, h)


def _log_segment(c0: float, c1: float, z1: float, z2: float) -> float:
    """Integral of (c0 + c1 z) log z over [z1, z2], z1 >= 0."""

    def anti(z):
        if z == 0.0:
            return 0.0
        return c0 * (z * math.log(z) - z) + c1 * (0.5 * z * z * math.log(z) - 0.25 * z * z)

    return anti(z2) - anti(z1)


def make_tabulated(grid) -> FadingDistribution:
    """Piecewise-linear density from (z, pdf) sample pairs.

    The grid must hold at least 4 strictly increasing z >= 0 with
    nonnegative density values; the density is renormalized to unit
    mass. Moments are exact per-segment integrals, sampling inverts the
    piecewise-quadratic CDF, and the diversity order is estimated from
    the log-log slope of the CDF over the 5 smallest usable grid points.
    """
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise ValueError("tabulated grid needs at least 4 (z, pdf) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tabulated grid contains non-finite entries")
    z, p = arr[:, 0].copy(), arr[:, 1].copy()
    if z[0] < 0.0:
        raise ValueError("tabulated grid requires z >= 0")
    if np.any(np.diff(z) <= 0.0):
        raise ValueError("tabulated grid requires strictly increasing z")
    if np.any(p < 0.0):
        raise ValueError("tabulated grid requires nonnegative pdf values")
    mass = float(np.sum(0.5 * (p[:-1] + p[1:]) * np.diff(z)))
    if mass <= 0.0:
        raise ValueError("tabulated grid has zero total mass")
    p /= mass

    law = _TabulatedLaw(z, p)
    mean, inverse_mean, log_mean = law.moments()

    cdf_vals = law.cum
    usable = (z > 0.0) & (cdf_vals > 0.0) & (cdf_vals < 1.0)
    pts = np.nonzero(usable)[0][:5]
    if len(pts) >= 2:
        slope = float(np.polyfit(np.log(z[pts]), np.log(cdf_vals[pts]), 1)[0])
    else:
        slope = 1.0

    if len(z) <= 32:
        knots = tuple(z)
    else:
        step = max(1, len(z) // 24)
        knots = tuple(sorted(set(z[::step]) | {z[0], z[-1], z[int(np.argmax(p))]}))

    dist = FadingDistribution(
        name=f"tabulated({len(z)} pts on [{z[0]:g}, {z[-1]:g}])",
        pdf=law.pdf,
        cdf=law.cdf,
        mean=mean,
        inverse_mean=inverse_mean,
        log_mean=log_mean,
        support_sup=float(z[-1]),
        diversity_order=slope,
        quad_knots=knots,
        sampler=law.sample,
        expect_impl=law.expect,
    )
    return _validate(dist)


def load_tabulated_csv(path) -> np.ndarray:
    """Two-column (z, pdf) CSV, comma-separated, optional header row."""
    try:
        data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError:
        try:
            data = np.loadtxt(path, delimiter=",", dtype=float, skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"cannot parse tabulated CSV {path}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"tabulated CSV {path} must have exactly two columns")
    return data


@dataclass
class DistributionSpec:
    """Declarative description of a gain law (CLI- and file-friendly)."""

    kind: str
    parameters: dict
    grid: Optional[np.ndarray] = None

    def build(self) -> FadingDistribution:
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        params = dict(self.parameters)
        scale = params.pop("scale", None)

        def need(key):
            if key not in params:
                raise ValueError(f"{self.kind} needs parameter {key!r}")
            return params.pop(key)

        if self.kind == "gamma_diversity":
            dist = make_gamma_diversity(need("N"))
        elif self.kind == "max_exponential":
            dist = make_max_exponential(need("K"))
        elif self.kind == "frechet":
            dist = make_frechet(need("alpha"), params.pop("K", 1))
        elif self.kind == "miso_multiuser":
            dist = make_miso_multiuser(need("N"), need("K"))
        else:
            grid = self.grid
            if grid is None:
                path = params.pop("path", None)
                if path is None:
                    raise ValueError("tabulated spec needs a grid or a path")
                grid = load_tabulated_csv(path)
            else:
                params.pop("path", None)
            dist = make_tabulated(grid)
        if params:
            raise ValueError(f"unused parameters for {self.kind}: {sorted(params)}")
        if scale is not None:
            dist = dist.scaled(float(scale))
        return dist
