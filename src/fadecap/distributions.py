"""Effective channel gain models.

The effective gain is the instantaneous SNR divided by the average
transmit power, so its law is power-independent and the capacity
routines take the power as a separate argument. Each model carries its
density and distribution function, the moments the asymptotic analysis
needs (E[z], E[1/z], E[log z]), the supremum of its support, and an
exact sampler.

E[1/z] may be infinite (e.g. single-antenna Rayleigh); channel-inversion
style schemes consult ``inverse_mean_finite`` and degrade gracefully.
Truncated inversion depends on the law through F and the tail functional
T(t) = E[1/z; z > t]; a law may carry T in closed form (gamma and
tabulated laws do, and a scaled law maps its base law's), and otherwise
``expect`` integrates it by QUADPACK.
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

The special functions of the closed forms are evaluated here at the
integer orders the factories take, with ``math`` and numpy, so that
building a law imports no scipy module: P(n, z) and Q(n, z), the
regularized incomplete gamma functions (``_IncompleteGamma``), E1
(``_exp1``), psi (``_digamma``), and log Gamma and Gamma from ``math``.

Every factory supplies the survival function ``sf`` = 1 - F in a form
that keeps its digits where F is near 1 (``_validate`` checks
sf + cdf = 1 at the law's knots). ``survival_table``, a
``numerics.SurvivalTable`` built from ``sf`` and the density when the law
is built, gives the OA constraint, the OA capacity, the RA and CTCI
capacities and CTCI's low-SNR slope from ``sf`` alone, with no
quadrature and no density. It also builds the law: a factory passes None
for a moment with no closed form, and ``_validate`` takes it as one dot
product with the density weights the table keeps at its nodes, whose
panels lie between the law's knots, and checks the law's mass and mean
there, with no adaptive quadrature and no second density pass. A
tabulated law's knots are its grid, a scaled law's its base law's, scaled.
The one expectation left, T(t) without a closed form, is
``FadingDistribution.expect``: QUADPACK over [t, support top). T does not
depend on the power, so each law memoizes it by t
(``tail_inverse_integral``) and a sweep integrates each threshold's T once.

Distributions are immutable after construction; samplers take an
explicit numpy Generator so callers own all random state. A sampler
``sampler(rng, n)`` returns a fresh array of n gains, and for a given
Generator its samples are fixed by the C-order block it draws: the
exponential-sum laws draw ``standard_exponential((n, K, N))`` and sum
over N, then take the max over K. Axes shorter than 8 are reduced with
strided slices in index order, which gives the bits of numpy's own
left-to-right reduction there; longer axes use numpy's reduction, which
sums pairwise. The inverse-CDF samplers transform their one uniform
draw in place.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import (
    EULER_MASCHERONI,
    SurvivalTable,
    integrate_finite,
    integrate_semi_infinite,
)

_MASS_TOL = 1e-9
_MEAN_CROSS_CHECK_RTOL = 1e-8
_SF_CHECK_TOL = 1e-12
_TAIL_MEMO_SIZE = 4096  # T values a law keeps; past them T is computed, not stored

DISTRIBUTION_KINDS = (
    "gamma_diversity",
    "max_exponential",
    "frechet",
    "miso_multiuser",
    "tabulated",
)


def _limit_at_inf(compute_pos) -> float:
    """The value a density or CDF closed form takes at z = +inf.

    CDFs evaluate to 1 there. A log-space density such as
    exp((N-1) log z - z) meets inf - inf and gives NaN, where the
    density's limit is 0.
    """
    with np.errstate(invalid="ignore"):
        value = float(compute_pos(np.float64(math.inf)))
    return 0.0 if math.isnan(value) else value


def _as_float_or_array(z, compute_pos, at_zero: float = 0.0):
    """Evaluate ``compute_pos`` on the finite z > 0 entries, filling the rest.

    Accepts scalars or arrays; negative and NaN arguments map to 0 (a
    survival function goes through ``_survival``, which maps negative ones
    to 1), z == 0 maps to ``at_zero`` (the continuous limit of the density
    there) and z == +inf to the function's limit there (see
    ``_limit_at_inf``). A float argument (a Python float, or
    ``np.float64``) takes a direct path with no array allocation and
    returns a Python float: QUADPACK calls densities one point at a time
    for T(t) without a closed form, OA's Newton slopes and TCI/CTCI read
    sf and F at one threshold, and ``tci_optimize`` at each of its grid
    points. An array whose entries are all finite and positive goes to
    ``compute_pos`` whole, in its own shape, and the rest as a flat array
    of those entries.
    ``compute_pos`` therefore gets either an array or the float itself
    and must accept both.
    """
    if isinstance(z, float):
        if z > 0.0:
            if z < math.inf:
                return float(compute_pos(z))
            return _limit_at_inf(compute_pos)
        return at_zero if z == 0.0 else 0.0
    arr = np.asarray(z, dtype=float)
    # every entry finite and positive, the common case, needs no masks; a
    # NaN fails both tests
    if arr.size and arr.ndim and (np.minimum.reduce(arr, axis=None) > 0.0
                                  and np.maximum.reduce(arr, axis=None) < math.inf):
        return compute_pos(arr)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros(arr.shape, dtype=float)
    pos = (arr > 0.0) & (arr < math.inf)
    if pos.any():
        out[pos] = compute_pos(arr[pos])
    out[arr == 0.0] = at_zero
    at_inf = arr == math.inf
    if at_inf.any():
        out[at_inf] = _limit_at_inf(compute_pos)
    return float(out[0]) if scalar else out


def _survival(z, compute_pos):
    """A survival function 1 - F through ``_as_float_or_array``: 1 at z <= 0,
    where F is 0, and 0 at NaN, as the density and the CDF read there."""
    if isinstance(z, float):
        return 1.0 if z < 0.0 else _as_float_or_array(z, compute_pos, 1.0)
    return _as_float_or_array(np.maximum(z, 0.0), compute_pos, 1.0)


def _closed_forms(density, cdf, sf, at_zero: float = 0.0) -> dict:
    """A law's ``pdf``, ``cdf`` and ``sf`` fields from closed forms on finite z > 0.
    Below 0 and at NaN the density and F read 0 and sf 1 and 0; at z = 0 they
    read ``at_zero``, 0 and 1; at +inf they take their limits."""

    def pdf(z):  # the benchmark counts density points in code named pdf
        return _as_float_or_array(z, density, at_zero)

    return dict(pdf=pdf, cdf=lambda z: _as_float_or_array(z, cdf), sf=lambda z: _survival(z, sf))


# numpy sums an axis of fewer than 8 entries left to right and a longer one
# pairwise. Below that width a loop over strided slices gives the same bits
# without numpy's per-row overhead on a short axis; from it up only numpy's
# own sum reproduces its bits, and is the faster one. A max is exact in any
# order, so its slices give numpy's bits at every width; they stay the
# faster reduction below 16 entries.
_SLICE_REDUCE_BELOW = {np.add: 8, np.maximum: 16}


def _reduce_last_axis(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, bit for bit, for ``np.add`` or ``np.maximum``.

    Short axes are reduced by combining the slices ``a[..., i]`` in index
    order, so a sampler's output for a given Generator is the one its
    C-order draw and numpy's reduction define.
    """
    width = a.shape[-1]
    if not 2 <= width < _SLICE_REDUCE_BELOW[ufunc]:
        return ufunc.reduce(a, axis=-1)
    out = ufunc(a[..., 0], a[..., 1])
    for i in range(2, width):
        ufunc(out, a[..., i], out=out)
    return out


@dataclass(frozen=True, repr=False)
class FadingDistribution:
    """Immutable effective-gain law: density, CDF, moments, sampler.

    ``mean``, ``inverse_mean`` and ``log_mean`` are closed forms where the
    factory has them (a factory passes None otherwise, and ``_validate``
    sums the moment over the survival table). ``tail_inverse`` gives
    T(t) = E[1/z; z > t] for t > 0 without integrating this law's density:
    a closed form, or for a scaled law the base law's T. When it is None,
    ``tail_inverse_integral`` integrates T by QUADPACK through ``expect``,
    on a bounded support as on an unbounded one; either way a law memoizes
    its T by t, in a memo that a ``dataclasses.replace`` copy or a scaled law
    starts empty. ``sf`` is the survival function 1 - F (1 below 0), in a
    form that keeps its digits where F is near 1.
    """

    name: str
    pdf: Callable
    cdf: Callable
    sf: Callable
    mean: float
    inverse_mean: float
    log_mean: float
    support_sup: float
    quad_knots: tuple = ()
    sampler: Callable = None
    tail_inverse: Optional[Callable] = None

    def __repr__(self):
        return f"FadingDistribution({self.name})"

    @property
    def inverse_mean_finite(self) -> bool:
        return math.isfinite(self.inverse_mean)

    @property
    def mean_finite(self) -> bool:
        return math.isfinite(self.mean)

    def expect(self, integrand: Callable, lo: float) -> float:
        """Integral of integrand(z) * pdf(z) over [lo, support top).

        QUADPACK integrates adaptively to ``numerics.REL_TOL``, with
        subdivision forced at the law's knots: over [lo, inf) on an
        unbounded support, over [lo, top] on a bounded one, and 0 when lo
        is at or past the top. The integrand and the density are called one
        point at a time. Only T(t) without a closed form calls ``expect``:
        a moment without one is summed on the survival table while the law
        is built (``_validate``).
        """
        if lo >= self.support_sup:
            return 0.0
        f = lambda z: integrand(z) * self.pdf(z)
        if math.isinf(self.support_sup):
            return integrate_semi_infinite(f, lo, knots=self.quad_knots).value
        return integrate_finite(f, lo, self.support_sup, knots=self.quad_knots).value

    @functools.cached_property
    def survival_table(self) -> SurvivalTable:
        """The law's ``SurvivalTable``, built from ``sf``, ``cdf`` and ``pdf``
        at construction: every factory's ``_validate`` builds it and checks
        the law on it. A scaled law builds its own on first use."""
        return SurvivalTable(self.sf, self.cdf, self.pdf, self.quad_knots, self.support_sup)

    @functools.cached_property
    def _tail_memo(self) -> dict:
        return {}

    def tail_inverse_integral(self, t: float, memoize: bool = True) -> float:
        """T(t): integral of pdf(z)/z over [t, support top); T(0) = E[1/z].

        The law's ``tail_inverse`` when it has one (a closed form, or a
        scaled law's map of its base law's T), and an integral through
        ``expect`` otherwise. Each finite T is memoized under the float t,
        up to ``_TAIL_MEMO_SIZE`` entries, so a later call at the same t
        returns the same float without computing it; a call that raises
        stores nothing, nor does one with ``memoize`` false.
        """
        t = max(float(t), 0.0)
        if t == 0.0 and not self.inverse_mean_finite:
            return math.inf
        memo = self._tail_memo
        if t in memo:
            return memo[t]
        T = (self.tail_inverse(t) if self.tail_inverse is not None
             else self.expect(lambda z: 1.0 / z, lo=t))
        if memoize and len(memo) < _TAIL_MEMO_SIZE and math.isfinite(t) and math.isfinite(T):
            memo[t] = T
        return T

    def sample(self, rng: np.random.Generator, size: int = None):
        """Draw effective gains; a scalar when size is None."""
        if size is None:
            return float(self.sampler(rng, 1)[0])
        return self.sampler(rng, int(size))

    def scaled(self, c: float) -> "FadingDistribution":
        """The law of c * z for finite c > 0 (exact moment transforms).

        T maps as T_c(t) = T(t / c) / c, with T the base law's, in closed
        form or integrated, so a scaled law is scale-consistent to rounding.
        """
        if not 0.0 < c < math.inf:
            raise ValueError(f"scale must be finite and positive, got {c}")
        base = self

        def unscaled(z):
            # at a tiny c, z / c overflows to inf, where the base law takes its limits
            with np.errstate(over="ignore"):
                return np.asarray(z, dtype=float) / c

        def scaled_sampler(rng, n):
            # every sampler returns a fresh array, so it is scaled in place
            z = base.sampler(rng, n)
            z *= c
            return z

        return FadingDistribution(
            name=f"scaled({c})*{base.name}",
            pdf=lambda z: base.pdf(unscaled(z)) / c,
            cdf=lambda z: base.cdf(unscaled(z)),
            sf=lambda z: base.sf(unscaled(z)),
            mean=c * base.mean,
            inverse_mean=base.inverse_mean / c,
            log_mean=base.log_mean + math.log(c),
            support_sup=c * base.support_sup,
            quad_knots=tuple(c * k for k in base.quad_knots),
            sampler=scaled_sampler,
            tail_inverse=lambda t: base.tail_inverse_integral(t / c) / c,
        )


# Integrands of the moments a factory may leave as None, on the node arrays
# of the law's survival table.
_MOMENT_INTEGRANDS = {"mean": lambda z: z, "inverse_mean": lambda z: 1.0 / z, "log_mean": np.log}


def _validate(dist: FadingDistribution, sf_past_top: Callable = None) -> FadingDistribution:
    """Construction-time sanity checks shared by all factories, on the law's
    ``survival_table``, which is built here, with no adaptive quadrature.

    ``sf`` is checked against the CDF at the knots. A moment the factory
    left as None has no closed form; it is a dot product with the density
    weights kept at the table's nodes (``SurvivalTable.expectation``),
    divided by the table's mass so that a density normalised some ulps off
    (MISO's float log Gamma(N)) does not skew it, and set on the law,
    which is still being built. The mass is the density summed on the
    nodes, plus F below the table (``SurvivalTable.mass``). A finite mean
    is checked against the integral of sf, an independent route:
    ``SurvivalTable.sf_integral()``, plus ``sf_past_top(top)``, the integral
    of sf past the table's top in closed form, where a heavy tail leaves a
    part of the mean there.
    """
    if abs(float(dist.cdf(0.0))) > 1e-12:
        raise ValueError(f"{dist.name}: cdf(0) must be 0")
    if dist.quad_knots:
        knots = np.asarray(dist.quad_knots, dtype=float)
        gap = np.max(np.abs(dist.sf(knots) + dist.cdf(knots) - 1.0))
        if not gap <= _SF_CHECK_TOL:
            raise ValueError(f"{dist.name}: sf + cdf deviates from 1 by {gap} at the knots")
    table = dist.survival_table
    for name, g in _MOMENT_INTEGRANDS.items():
        if getattr(dist, name) is None:
            moment = table.expectation(g) / table.mass
            object.__setattr__(dist, name, moment)
    # written as "not within" so that a NaN fails each check
    if not abs(table.mass - 1.0) <= _MASS_TOL:
        raise ValueError(f"{dist.name}: density mass {table.mass} deviates from 1")
    if not math.isinf(dist.mean):
        mean_sf = table.sf_integral()
        if sf_past_top is not None:
            mean_sf += sf_past_top(math.exp(table.u_edges[-1]))
        if not abs(mean_sf - dist.mean) <= _MEAN_CROSS_CHECK_RTOL * max(abs(dist.mean), 1.0):
            raise ValueError(
                f"{dist.name}: mean {dist.mean} vs integral of sf {mean_sf} mismatch"
            )
    return dist


def _check_positive_int(value, name: str, minimum: int = 1) -> int:
    try:
        valid = not isinstance(value, bool) and value == int(value) and int(value) >= minimum
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Special functions at the integer orders the factories take
# ---------------------------------------------------------------------------

_EPS = 2.0**-53
# Below this t, e^-t is a normal float and Q(n, t) is summed from k = 0.
_POISSON_SUM_MAX_T = 700.0
# Up to this order z^k / k! is a finite float for z <= k (143^143 < 1.8e308),
# and past _POISSON_ZERO_T every w_k(t) with k up to it underflows to 0.
_WEIGHT_POWER_MAX_K = 143
_POISSON_ZERO_T = 1400.0
# Up to this many points P's series is one matrix of powers times its
# coefficients; more points (a survival table's) take Horner's rule, which
# keeps no (points x terms) temporary. On P(2, .), timed on a shared 2-core
# machine: 5 us against 19 us at 20 points, 120 us against 28 us at 1280.
_TERM_AXIS_MAX_POINTS = 64


def _far_weight(k: int, t):
    """w_k(t) = e^-t t^k / k! for t past ``_POISSON_SUM_MAX_T``, a float or
    an array, and below ``_POISSON_ZERO_T`` up to order
    ``_WEIGHT_POWER_MAX_K``: there the square of e^(-t/2) t^(k/2) / sqrt(k!),
    whose factor stays a normal float, and above that order
    exp(k log t - t - log k!)."""
    xp = math if isinstance(t, float) else np
    if k > _WEIGHT_POWER_MAX_K:
        return xp.exp(k * xp.log(t) - t - math.lgamma(k + 1))
    half = xp.exp(-0.5 * t) * t ** (0.5 * k) / math.sqrt(math.factorial(k))
    return half * half


class _IncompleteGamma:
    """The regularized incomplete gamma functions at one integer order n >= 1.

    With w_k(z) = e^-z z^k / k!, the Poisson weights, they are the Poisson
    tails Q(n, z) = sum_{k<n} w_k(z) and P(n, z) = 1 - Q(n, z) =
    sum_{k>=n} w_k(z). Each method takes a float z (an ``np.float64`` is
    one) through ``math`` and an array of z > 0 through numpy.

    Q is summed from k = 0 up to ``_POISSON_SUM_MAX_T``. Past it the sum
    runs down from w_{n-1}(t) (``_far_weight``), as
    w_{n-1}(t) sum_{j<n} prod_{i<j} (n-1-i) / t, so that Q keeps its digits
    down to the subnormals; where n - 1 > t that sum overflows only where Q
    rounds to 1. Below z = n, P is e^-z sum_{k>=n} z^k / k!, so that
    F ~ z^n / n! keeps its relative digits near 0; from z = n, where
    P > 0.47, it is 1 - Q. A float sums the series as
    w_n(z) sum_j c_j (z/n)^j with c_j = prod_{i<=j} n / (n + i), and forms
    w_n(z) from e^-z, z^n and the float nearest n! up to order
    ``_WEIGHT_POWER_MAX_K``, and as exp(n log z - z - log n!), some
    |n log z - z| ulps off, above it. An array sums the powers z^k times
    the floats nearest 1/k!, and at an order where these leave the normal
    floats (n > 72) takes the float path at each point.
    """

    def __init__(self, n: int):
        self.n = n
        coefs = [1.0]  # c_j, each the float nearest it; the last one left out is below 2^-60
        num = den = 1
        k = n
        while coefs[-1] >= 2.0**-60:
            k += 1
            num, den = num * n, den * k
            coefs.append(num / den)
        # Horner's rule in x^2 on the pairs c_2i + c_2i+1 x, from the top
        padded = coefs + [0.0] * (len(coefs) % 2)
        self._pairs = list(zip(padded[0::2], padded[1::2]))[::-1]
        inverse = [1 / math.factorial(j) for j in range(n, k + 1)]  # an int ratio, rounded once
        self._powers = np.arange(n, k + 1, dtype=float)
        self._inverse = np.array(inverse)
        self._horner = inverse[::-1]
        self._normal = k <= 170 and k * math.log(n) < 700.0
        self._fact = float(math.factorial(n)) if n <= _WEIGHT_POWER_MAX_K else None

    def _head_float(self, z: float) -> float:
        """P(n, z) for a Python float 0 < z <= n, as its series."""
        n = self.n
        x = z / n
        x2 = x * x
        total = 0.0
        for a, b in self._pairs:
            total = total * x2 + (a + b * x)
        if self._fact is None:
            return math.exp(n * math.log(z) - z - math.lgamma(n + 1)) * total
        return math.exp(-z) * z**n / self._fact * total

    def _head(self, z: np.ndarray) -> np.ndarray:
        """P(n, z) for an array of 0 < z <= n, as its series."""
        n = self.n
        if not self._normal:
            return np.array([self._head_float(v) for v in z.ravel().tolist()]).reshape(z.shape)
        if z.size <= _TERM_AXIS_MAX_POINTS:
            return np.exp(-z) * (np.power.outer(z, self._powers) @ self._inverse)
        total = np.full(z.shape, self._horner[0])
        for c in self._horner[1:]:
            total *= z
            total += c
        return np.exp(-z) * z**n * total

    def q(self, t, top=None):
        """Q(n, t) for t >= 0; ``top``, an array's largest t, if known."""
        n = self.n
        if isinstance(t, float):
            t = float(t)
            if t <= _POISSON_SUM_MAX_T:
                term = total = math.exp(-t)
                for k in range(1, n):
                    term *= t / k
                    total += term
                return total
            if n - 1 <= _WEIGHT_POWER_MAX_K and t >= _POISSON_ZERO_T:
                return 0.0  # as w_{n-1}(t) does
            term = total = 1.0
            for k in range(n - 1, 0, -1):
                term *= k / t
                total += term
            return 1.0 if total == math.inf else _far_weight(n - 1, t) * total
        if top is None:
            top = np.maximum.reduce(t, axis=None)
        far = top > _POISSON_SUM_MAX_T
        summed = np.minimum(t, _POISSON_SUM_MAX_T) if far else t
        term = total = np.exp(-summed)
        for k in range(1, n):
            term = term * summed / k
            total = total + term
        if far:
            beyond = t > _POISSON_SUM_MAX_T
            if n - 1 <= _WEIGHT_POWER_MAX_K:
                total[t >= _POISSON_ZERO_T] = 0.0  # as w_{n-1}(t) does
                beyond &= t < _POISSON_ZERO_T
            tf = t[beyond]
            with np.errstate(over="ignore", invalid="ignore"):
                ratios = np.arange(n - 1, 0, -1.0)[:, None] / tf
                rest = 1.0 + np.add.reduce(np.multiply.accumulate(ratios), axis=0)
                total[beyond] = np.where(rest < math.inf, _far_weight(n - 1, tf) * rest, 1.0)
        return total

    def p(self, z):
        """P(n, z) for z > 0."""
        if isinstance(z, float):
            z = float(z)
            return self._head_float(z) if z < self.n else 1.0 - self.q(z)
        return self._pq_array(z, with_q=False)[0]

    def pq(self, z):
        """(P(n, z), Q(n, z)) for z > 0: below z = n, Q = 1 - P, and from it
        P = 1 - Q. An array with points on both sides of n takes Q from
        ``q`` at every point."""
        if isinstance(z, float):
            z = float(z)
            if z < self.n:
                p = self._head_float(z)
                return p, 1.0 - p
            q = self.q(z)
            return 1.0 - q, q
        return self._pq_array(z, with_q=True)

    def _pq_array(self, z: np.ndarray, with_q: bool):
        n = self.n
        # a partial panel's points, within a factor 1.3, mostly lie on one side of n
        top = np.maximum.reduce(z, axis=None)
        if top < n:
            p = self._head(z)
            return p, (1.0 - p if with_q else None)
        q = self.q(z, top)
        if np.minimum.reduce(z, axis=None) >= n:
            return 1.0 - q, q
        p = 1.0 - q
        below = z < n
        p[below] = self._head(z[below])
        return p, q


def _exp1(t: float) -> float:
    """E1(t) = integral of e^-s / s over [t, inf) for a float t > 0: the
    series -gamma - log t - sum_{k>=1} (-t)^k / (k k!) below t = 1/2, and
    from there the continued fraction e^-t / (t + 1 - 1/(t + 3 - 4/(t + 5 - ...)))
    (Abramowitz & Stegun 5.1.11 and 5.1.22), evaluated from its last term
    up. 20 + 80/t terms (Zhang and Jin's E1XB takes as many) leave it
    within 6e-16 of E1 from t = 1/2 on, where the series loses more."""
    if t < 0.5:
        # the terms t^k / (k k!), alternating from +t
        term, total, k = -1.0, 0.0, 0
        while True:
            k += 1
            term *= -t / k
            total += term / k
            if abs(term) < _EPS * k * abs(total):
                return -EULER_MASCHERONI - math.log(t) + total
    rest = 0.0
    for i in range(20 + int(80.0 / t), 0, -1):
        rest = i * i / (t + 2 * i + 1 - rest)
    # e^-t in two halves, so that E1 keeps its digits where e^-t is subnormal
    half = math.exp(-0.5 * t)
    return half / (t + 1.0 - rest) * half


# B_2k / (2k) for k = 1..8: psi(x) - log x = -1/(2x) - sum_k B_2k / (2k x^2k)
# asymptotically. From x = 10 on, the first term left out, B_18 / (18 x^18),
# is under 6e-17 of psi(x) - log x.
_DIGAMMA_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
                       -3617 / 8160)
_DIGAMMA_ASYMPTOTIC_MIN = 10


def _digamma_minus_log(n: int) -> float:
    """psi(n) - log n for an integer n >= ``_DIGAMMA_ASYMPTOTIC_MIN``, by its
    asymptotic series, summed from the smallest term."""
    x2 = 1.0 / (float(n) * n)
    total = 0.0
    for c in reversed(_DIGAMMA_ASYMPTOTIC):
        total = total * x2 + c
    return -0.5 / n - total * x2


def _digamma(n: int) -> float:
    """psi(n) for an integer n >= 1: H_{n-1} - gamma below
    ``_DIGAMMA_ASYMPTOTIC_MIN``, and log n plus the asymptotic series from it."""
    if n < _DIGAMMA_ASYMPTOTIC_MIN:
        return math.fsum([-EULER_MASCHERONI, *(1.0 / k for k in range(1, n))])
    return math.log(n) + _digamma_minus_log(n)


def _digamma_gap(N: int) -> float:
    """psi(N) - log(N - 1) for an integer N >= 2, with no cancellation:
    -log1p(-1/N) + (psi(N) - log N) from the asymptotic series' start on, and
    below it that value at the start plus the positive steps
    gap(k) - gap(k + 1) = -log1p(-1/k) - 1/k."""
    start = max(N, _DIGAMMA_ASYMPTOTIC_MIN)
    gap = -math.log1p(-1.0 / start) + _digamma_minus_log(start)
    for k in range(start - 1, N - 1, -1):
        gap += -math.log1p(-1.0 / k) - 1.0 / k
    return gap


def _log1mexp(z):
    """log(1 - e^-z) for z > 0, accurate on both sides of z = log 2."""
    small, large = np.minimum(z, math.log(2.0)), np.maximum(z, math.log(2.0))
    return np.where(z > math.log(2.0), np.log1p(-np.exp(-large)), np.log(-np.expm1(-small)))


def make_gamma_diversity(N) -> FadingDistribution:
    """Sum of N unit-rate exponentials: N-antenna beamforming gain.

    mean N, E[1/z] = 1/(N-1) for N >= 2 (infinite at N = 1),
    E[log z] = psi(N). The tail functional is
    T(t) = Q(N-1, t)/(N-1) with Q the regularized upper incomplete Gamma,
    and E1(t) at N = 1; the survival function is Q(N, z), summed the same
    way.
    """
    N = _check_positive_int(N, "N")
    lg = math.lgamma(N)
    gamma_n = _IncompleteGamma(N)
    tail = _IncompleteGamma(N - 1).q if N >= 2 else None

    def tail_inverse(t):
        return _exp1(t) if N == 1 else tail(t) / (N - 1)

    dist = FadingDistribution(
        name=f"gamma_diversity(N={N})",
        **_closed_forms(
            lambda zp: np.exp((N - 1) * np.log(zp) - zp - lg),
            gamma_n.p,
            gamma_n.q,
            at_zero=1.0 if N == 1 else 0.0,
        ),
        mean=float(N),
        inverse_mean=1.0 / (N - 1) if N >= 2 else math.inf,
        log_mean=_digamma(N),
        support_sup=math.inf,
        quad_knots=(0.5 * N, float(N), 2.0 * N + 2.0),
        sampler=lambda rng, n: _reduce_last_axis(np.add, rng.standard_exponential((n, N))),
        tail_inverse=tail_inverse,
    )
    return _validate(dist)


def _harmonic(K: int) -> float:
    return float(np.sum(1.0 / np.arange(1, K + 1)))


def make_max_exponential(K) -> FadingDistribution:
    """Maximum of K unit-rate exponentials: K-user selection gain.

    mean is the K-th harmonic number. E[1/z] and
    E[log z] have no stable closed form for general K (the alternating
    binomial sums cancel catastrophically), so from K = 3 up they are
    left to ``_validate``, which sums them on the survival table;
    K = 1, 2 have exact values.
    """
    K = _check_positive_int(K, "K")

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
        inverse_mean = log_mean = None

    def sampler(rng, n):
        # -log1p(-u^(1/K)), worked in place on the one draw
        u = rng.random(n)
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        u **= 1.0 / K
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.negative(u, out=u)

    dist = FadingDistribution(
        name=f"max_exponential(K={K})",
        # 1 - e^(-z) as -expm1(-z): forming it from exp(-z) cancels for small z
        **_closed_forms(
            lambda zp: K * np.exp(-zp + (K - 1) * np.log(-np.expm1(-zp))),
            lambda zp: np.exp(K * np.log(-np.expm1(-zp))),
            lambda zp: -np.expm1(K * _log1mexp(zp)),
            at_zero=1.0 if K == 1 else 0.0,
        ),
        mean=mean,
        inverse_mean=inverse_mean,
        log_mean=log_mean,
        support_sup=math.inf,
        quad_knots=knots,
        sampler=sampler,
    )
    return _validate(dist)


def make_frechet(alpha: float, K=1) -> FadingDistribution:
    """Maximum of K Frechet gains, base cdf exp(-z^(-alpha)).

    The K-user maximum is the base law rescaled by K^(1/alpha):
    cdf exp(-K z^(-alpha)). mean = K^(1/alpha) Gamma(1 - 1/alpha) is
    finite only for alpha > 1; E[1/z] = K^(-1/alpha) Gamma(1 + 1/alpha)
    is always finite; E[log z] = (log K + gamma_em) / alpha.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    K = _check_positive_int(K, "K")
    scale = K ** (1.0 / alpha)

    def k_inv_power(zp):
        # K z^(-alpha) overflows to inf near 0, where pdf and cdf are 0
        with np.errstate(over="ignore"):
            return K * np.power(zp, -alpha)

    mean = scale * math.gamma(1.0 - 1.0 / alpha) if alpha > 1.0 else math.inf

    def sampler(rng, n):
        # (-log(u) / K)^(-1/alpha), worked in place on the one draw
        u = rng.random(n)
        np.clip(u, 1e-300, 1.0 - 1e-16, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        u /= K
        u **= -1.0 / alpha
        return u

    dist = FadingDistribution(
        name=f"frechet(alpha={alpha},K={K})",
        **_closed_forms(
            lambda zp: alpha * K * np.exp(-(alpha + 1) * np.log(zp) - k_inv_power(zp)),
            lambda zp: np.exp(-k_inv_power(zp)),
            lambda zp: -np.expm1(-k_inv_power(zp)),
        ),
        mean=mean,
        # Gamma(1 + 1/alpha) leaves the floats, and math.gamma raises, past 1/alpha = 170.6
        inverse_mean=(math.gamma(1.0 + 1.0 / alpha) if alpha > 1 / 170 else math.inf) / scale,
        log_mean=(math.log(K) + EULER_MASCHERONI) / alpha,
        support_sup=math.inf,
        quad_knots=(0.5 * scale, scale, 4.0 * scale),
        sampler=sampler,
    )
    # past the table's top sf is K z^-alpha to within a part in 1e20
    rest = (lambda top: K * top ** (1.0 - alpha) / (alpha - 1.0)) if alpha > 1.0 else None
    return _validate(dist, sf_past_top=rest)


def make_miso_multiuser(N, K) -> FadingDistribution:
    """Best of K users, each seeing an N-antenna beamforming gain.

    pdf K P(N,z)^(K-1) z^(N-1) e^(-z) / Gamma(N), cdf P(N,z)^K, with P
    the regularized lower incomplete Gamma. E[1/z] is finite iff
    max(N, K) >= 2. The moments have no closed form, so they are left to
    ``_validate``, which sums them on the survival table.
    """
    N = _check_positive_int(N, "N")
    K = _check_positive_int(K, "K")
    lg = math.lgamma(N)
    gamma_n = _IncompleteGamma(N)

    def density(zp):
        # K P^(K-1) times the gamma density, which is formed in logs
        xp = math if isinstance(zp, float) else np
        return K * gamma_n.p(zp) ** (K - 1) * xp.exp((N - 1) * xp.log(zp) - zp - lg)

    def survival(zp):
        # 1 - P^K as -expm1(K log P), with log P = log1p(-Q) where P > 1/2.
        # An array's Q is clamped at 1: where P is near 0 its sum can round
        # past it, and log1p(-Q) is read only where P > 1/2.
        p, q = gamma_n.pq(zp)
        if isinstance(zp, float):
            if p > 0.5:
                return -math.expm1(K * math.log1p(-q))
            return -math.expm1(K * math.log(p)) if p > 0.0 else 1.0
        with np.errstate(divide="ignore"):
            log_p = np.where(p > 0.5, np.log1p(-np.fmin(q, 1.0)), np.log(p))
        return -np.expm1(K * log_p)

    rough_center = N + math.log(K) + 1.0
    knots = (0.5 * N, rough_center, 2.0 * rough_center + 2.0)
    dist = FadingDistribution(
        name=f"miso_multiuser(N={N},K={K})",
        **_closed_forms(
            density,
            lambda zp: gamma_n.p(zp) ** K,
            survival,
            at_zero=1.0 if N == 1 and K == 1 else 0.0,
        ),
        mean=None,
        inverse_mean=None if max(N, K) >= 2 else math.inf,
        log_mean=None,
        support_sup=math.inf,
        quad_knots=knots,
        sampler=lambda rng, n: _reduce_last_axis(
            np.maximum, _reduce_last_axis(np.add, rng.standard_exponential((n, K, N)))
        ),
    )
    return _validate(dist)


# ---------------------------------------------------------------------------
# Tabulated (piecewise-linear) densities
# ---------------------------------------------------------------------------


class _TabulatedLaw:
    """T, CDF, survival function and inverse-CDF sampling of a
    piecewise-linear pdf. F and sf take a float on a pure-Python path
    (``bisect`` on lists of floats) and an array on numpy's, through the
    same expressions in the same order, so both give the same bits."""

    def __init__(self, z: np.ndarray, grid_p: np.ndarray, mass: float):
        """``grid_p`` is the density as given, ``mass`` its trapezoid mass."""
        self.z = z
        self.p = grid_p / mass
        h = np.diff(z)
        seg_mass = 0.5 * (self.p[:-1] + self.p[1:]) * h
        self.cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        self.cum[-1] = 1.0  # the density is renormalized; pin the top exactly
        top_cum = np.concatenate((np.cumsum(seg_mass[::-1])[::-1], [0.0]))
        self._z_list, self._grid_p = z.tolist(), grid_p.tolist()
        # T is divided by the trapezoid mass summed by ``math.fsum``: on the
        # test grids it is the float nearest the exact mass, which numpy's
        # pairwise sum (``mass``, which the density keeps) can miss by an ulp
        self._mass = math.fsum((0.5 * (grid_p[:-1] + grid_p[1:]) * h).tolist())
        self._tail = _grid_tails(self._z_list, self._grid_p, self._mass)
        # segment k holds x when k interior points are <= x; sf reads its top
        # end, cdf its bottom end, from arrays or from rows of floats
        self._inner, self._inner_list, dp = z[1:-1], z[1:-1].tolist(), self.p[1:] - self.p[:-1]
        self._top = (z[1:], h, self.p[1:], dp, top_cum[1:])
        self._bottom = (z[:-1], h, self.p[:-1], dp, self.cum[:-1])
        self._top_rows, self._bottom_rows = (list(zip(*(a.tolist() for a in ends)))
                                             for ends in (self._top, self._bottom))

    def tail_inverse(self, t: float) -> float:
        """T(t) for t >= 0: T at the top of the segment holding t plus the
        part of that segment above t."""
        zs = self._z_list
        k = bisect.bisect_right(zs, t) - 1
        if k < 0:
            return self._tail[0]
        if k >= len(zs) - 1:
            return 0.0
        a, b = zs[k], zs[k + 1]
        if t == a:
            return self._tail[k]
        pa, pb = self._grid_p[k], self._grid_p[k + 1]
        pt = (pa * (b - t) + pb * (t - a)) / (b - a)
        return self._tail[k + 1] + _inverse_segment(t, b, pt, pb) / self._mass

    def pdf(self, x):
        # NaN is mapped below the grid, where the density is 0
        return np.interp(np.fmax(x, -1.0), self.z, self.p, left=0.0, right=0.0)

    def cdf(self, x):
        """F at finite x > 0: the segment masses below x's segment plus the
        part of it below x; a float and an array give the same bits."""
        if isinstance(x, float):
            z0, w, p0, dp, cum = self._bottom_rows[bisect.bisect_right(self._inner_list, x)]
            u = min(max(x - z0, 0.0), w)
            out = cum + p0 * u + 0.5 * (dp / w) * u * u
            return 1.0 if x >= self._z_list[-1] else min(max(out, 0.0), 1.0)
        k = np.searchsorted(self._inner, x, side="right")
        z0, w, p0, dp, cum = (a[k] for a in self._bottom)
        u = np.minimum(np.maximum(x - z0, 0.0), w)
        out = cum + p0 * u + 0.5 * (dp / w) * u * u
        return np.minimum(np.maximum(np.where(x >= self.z[-1], 1.0, out), 0.0), 1.0)

    def sf(self, x):
        """1 - F at finite x > 0: the segment masses above x's segment,
        summed from the top, plus the part of that segment above x; a float
        and an array give the same bits."""
        if isinstance(x, float):
            z1, w, p1, dp, top = self._top_rows[bisect.bisect_right(self._inner_list, x)]
            u = min(max(z1 - x, 0.0), w)
            return top + 0.5 * (p1 - dp * u / w + p1) * u
        k = np.searchsorted(self._inner, x, side="right")
        z1, w, p1, dp, top = (a[k] for a in self._top)
        u = np.minimum(np.maximum(z1 - x, 0.0), w)
        return top + 0.5 * (p1 - dp * u / w + p1) * u

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


def _grid_tails(z: list, p: list, mass: float) -> list:
    """T at each grid point for the piecewise-linear density through (z, p).

    Each segment's integral of p(z)/z (``_inverse_segment``) is added from
    the top with Neumaier's compensated summation, so the running sum is
    rounded about once however many segments it holds, and divided by the
    density's trapezoid ``mass``. The first T is E[1/z]: inf when the
    density is positive at z = 0.
    """
    tails = [0.0] * len(z)
    total = carry = 0.0
    for i in range(len(z) - 2, -1, -1):
        a, b, pa, pb = z[i], z[i + 1], p[i], p[i + 1]
        if a == 0.0:
            if pa > 0.0:
                tails[i] = math.inf
                break
            term = pb  # p(z)/z is the constant pb/b on [0, b]
        else:
            term = _inverse_segment(a, b, pa, pb)
        s = total + term
        carry += (total - s) + term if abs(total) >= abs(term) else (term - s) + total
        total = s
        tails[i] = (total + carry) / mass
    return tails


# Terms of the series for R below, summed where u <= 1/3: the first one
# left out is under 1e-17 of R.
_ATANH_SERIES_TERMS = 17


def _inverse_segment(a: float, b: float, pa: float, pb: float) -> float:
    """Integral of p(z)/z over [a, b], 0 < a < b, for p linear from pa to pb.

    With h = b - a and g(d) = d - log1p(d) it is
    (pa b g(-h/b) + pb a g(h/a)) / h, two nonnegative terms. In
    u = h/(a + b) and R = (atanh(u) - u)/u^3 = 1/3 + u^2/5 + u^4/7 + ...
    the weights of pa and pb are u (1 + u (1 + u) R) and u (1 - u (1 - u) R).
    For b <= 2a (u <= 1/3) h is exact and R is summed as its series, so no
    digits go to forming b/a and subtracting 1, which next to the top of a
    grid loses most of them. A wider segment has L = log(b/a) >= log 2,
    and b L - h and h - a L keep over a quarter of their terms.
    """
    h = b - a
    if b <= 2.0 * a:
        u = h / (a + b)
        v = u * u
        r = 0.0
        for k in range(_ATANH_SERIES_TERMS - 1, -1, -1):
            r = 1.0 / (2 * k + 3) + v * r
        return u * (pa + pb + u * r * ((pa - pb) + u * (pa + pb)))
    log_ratio = math.log(b / a)
    return (pa * (b * log_ratio - h) + pb * (h - a * log_ratio)) / h


def make_tabulated(grid) -> FadingDistribution:
    """Piecewise-linear density from (z, pdf) sample pairs.

    The grid must hold at least 4 strictly increasing z >= 0 with
    nonnegative density values; the density is renormalized to unit
    mass. The tail functional T sums each segment's integral of p(z)/z
    in closed form, and E[1/z] is T at the grid's first point. E[z] and
    E[log z] are summed on the survival table, whose panels lie within
    the segments, while the law is built (``_validate``). Sampling inverts the
    piecewise-quadratic CDF.
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

    law = _TabulatedLaw(z, p, mass)
    dist = FadingDistribution(
        name=f"tabulated({len(z)} pts on [{z[0]:g}, {z[-1]:g}])",
        # _TabulatedLaw.pdf is looked up on each call, so the benchmark's
        # density-point counter, which patches it, sees every evaluation
        pdf=lambda x: law.pdf(x),
        cdf=lambda x: _as_float_or_array(x, law.cdf),
        mean=None,
        inverse_mean=law.tail_inverse(0.0),
        log_mean=None,
        support_sup=float(z[-1]),
        quad_knots=tuple(z),
        sampler=law.sample,
        tail_inverse=law.tail_inverse,
        sf=lambda x: _survival(x, law.sf),
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
