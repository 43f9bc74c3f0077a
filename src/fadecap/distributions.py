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
Truncated inversion depends on the law through F and the tail functional
T(t) = E[1/z; z > t]; a law may carry T in closed form (gamma and
tabulated laws do, and a scaled law maps its base law's), and otherwise T
is integrated through ``expect``.
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

Every factory supplies the survival function ``sf`` = 1 - F in a form
that keeps its digits where F is near 1 (``_validate`` checks
sf + cdf = 1 at the law's knots). ``survival_table``, a
``numerics.SurvivalTable`` built from ``sf`` and the density when the law
is built, gives the OA constraint, the OA capacity, the RA and CTCI
capacities and CTCI's low-SNR slope from ``sf`` alone, with no
quadrature and no density. It also builds the law: a factory passes None
for a moment with no closed form, and ``_validate`` sums it on the
table's nodes, and checks the law's mass and mean there, with no
adaptive quadrature.

Every other expectation E[g(z)] goes through ``FadingDistribution.expect``,
which picks its rule from the support alone: adaptive QUADPACK on an
unbounded support, and on a bounded one a sum over the survival table's
nodes, whose panels lie between the law's knots. A tabulated law's knots
are its grid, and a scaled law's are its base law's, scaled.

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
from scipy import special

from .numerics import (
    EULER_MASCHERONI,
    SurvivalTable,
    integrate_finite,
    integrate_semi_infinite,
)

# Tail functionals and moments feed high-SNR gap formulas that are checked
# to 1e-10, so ``expect`` integrates well past the capacity-integral
# tolerance.
MOMENT_REL_TOL = 1e-12

_MASS_TOL = 1e-9
_MEAN_CROSS_CHECK_RTOL = 1e-8
_SF_CHECK_TOL = 1e-12

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
    returns a Python float: QUADPACK calls densities one point at a time,
    and takes this path for T(t) without a closed form.
    ``compute_pos`` therefore gets either an array or an ``np.float64``
    scalar and must accept both.
    """
    if isinstance(z, float):
        if z > 0.0:
            if z < math.inf:
                return float(compute_pos(np.float64(z)))
            return _limit_at_inf(compute_pos)
        return at_zero if z == 0.0 else 0.0
    arr = np.asarray(z, dtype=float)
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
    where F is 0, ``compute_pos`` on the finite z > 0 and its limit at +inf.
    NaN maps to 0, as it does for the density and the CDF."""
    if isinstance(z, float):
        return 1.0 if z < 0.0 else _as_float_or_array(z, compute_pos, 1.0)
    return _as_float_or_array(np.maximum(z, 0.0), compute_pos, 1.0)


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
    sums the moment on the survival table). ``tail_inverse`` gives
    T(t) = E[1/z; z > t] for t > 0 without integrating this law's density:
    a closed form, or for a scaled law the base law's T. When it is None,
    ``tail_inverse_integral`` integrates T through ``expect``. ``sf`` is
    the survival function 1 - F (1 below 0), in a form that keeps its
    digits where F is near 1.
    """

    name: str
    pdf: Callable
    cdf: Callable
    sf: Callable
    mean: float
    inverse_mean: float
    log_mean: float
    support_sup: float
    diversity_order: float
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

    def expect(self, integrand=None, lo: float = 0.0, hi: float = None,
               rel_tol: float = MOMENT_REL_TOL) -> float:
        """Integral of integrand(z) * pdf(z) over [lo, hi] (hi=None: support top).

        On a bounded support the sum runs over the nodes of the law's
        ``survival_table`` (``SurvivalTable.expectation``), whose panels lie
        between ``quad_knots``: the knots must split the density into smooth
        pieces, a bounded law's first knot is its lower support end (the
        density is 0 below it), the integrand and the density must take
        arrays, and ``rel_tol`` is not used. On an unbounded support QUADPACK
        integrates adaptively to ``rel_tol``, with subdivision forced at the
        law's knots: the table stops where sf is spent, and on a heavy tail
        an integral of z pdf to t past its top would lose up to t sf(top)
        (E[min(Z, t)] from sf, ``SurvivalTable.sf_integral``, loses under
        t ``SF_TABLE_CUT``). No law's construction calls ``expect``; T(t)
        without a closed form does.
        """
        bounded = self.support_sup < math.inf
        upper = self.support_sup if hi is None else min(hi, self.support_sup)
        lower = max(lo, self.quad_knots[0] if bounded and self.quad_knots else 0.0)
        if upper <= lower:
            return 0.0
        if bounded:
            g = np.ones_like if integrand is None else integrand
            return self.survival_table.expectation(g, self.pdf, lower, upper)
        f = self.pdf if integrand is None else (lambda z: integrand(z) * self.pdf(z))
        if math.isinf(upper):
            return integrate_semi_infinite(f, lower, rel_tol, knots=self.quad_knots).value
        return integrate_finite(f, lower, upper, rel_tol, knots=self.quad_knots).value

    @functools.cached_property
    def survival_table(self) -> SurvivalTable:
        """The law's ``SurvivalTable``, built from ``sf``, ``cdf`` and ``pdf``
        at construction: every factory's ``_validate`` builds it and checks
        the law on it. A scaled law builds its own on first use."""
        return SurvivalTable(self.sf, self.cdf, self.pdf, self.quad_knots, self.support_sup)

    def tail_inverse_integral(self, t: float) -> float:
        """T(t): integral of pdf(z)/z over [t, support top); T(0) = E[1/z].

        The law's ``tail_inverse`` when it has one (a closed form, or a
        scaled law's map of its base law's T), and an integral through
        ``expect`` otherwise.
        """
        t = max(t, 0.0)
        if t == 0.0 and not self.inverse_mean_finite:
            return math.inf
        if self.tail_inverse is not None:
            return self.tail_inverse(t)
        return self.expect(lambda z: 1.0 / z, lo=t)

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

        def scaled_sampler(rng, n):
            # every sampler returns a fresh array, so it is scaled in place
            z = base.sampler(rng, n)
            z *= c
            return z

        return FadingDistribution(
            name=f"scaled({c})*{base.name}",
            pdf=lambda z: base.pdf(np.asarray(z, dtype=float) / c) / c,
            cdf=lambda z: base.cdf(np.asarray(z, dtype=float) / c),
            sf=lambda z: base.sf(np.asarray(z, dtype=float) / c),
            mean=c * base.mean,
            inverse_mean=base.inverse_mean / c,
            log_mean=base.log_mean + math.log(c),
            support_sup=c * base.support_sup,
            diversity_order=base.diversity_order,
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
    left as None has no closed form; it is summed on the table's nodes
    (``SurvivalTable.expectation``) and set on the law, which is still being
    built. The mass is the density summed on the nodes, plus F below the
    table (``SurvivalTable.mass``). A finite mean is checked against the
    integral of sf, an independent route: ``SurvivalTable.sf_integral()``,
    plus ``sf_past_top(top)``, the integral of sf past the table's top in
    closed form, where a heavy tail leaves a part of the mean there.
    """
    if abs(float(dist.cdf(0.0))) > 1e-12:
        raise ValueError(f"{dist.name}: cdf(0) must be 0")
    if dist.quad_knots:
        knots = np.asarray(dist.quad_knots, dtype=float)
        gap = np.max(np.abs(dist.sf(knots) + dist.cdf(knots) - 1.0))
        if not gap <= _SF_CHECK_TOL:
            raise ValueError(f"{dist.name}: sf + cdf deviates from 1 by {gap} at the knots")
    table = dist.survival_table
    # a bounded law's density starts at its first knot, as in ``expect``
    bottom = dist.quad_knots[0] if dist.support_sup < math.inf and dist.quad_knots else 0.0
    for name, g in _MOMENT_INTEGRANDS.items():
        if getattr(dist, name) is None:
            object.__setattr__(dist, name, table.expectation(g, dist.pdf, bottom, dist.support_sup))
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


# Below this t, e^-t is a normal float and the gamma law's tail functional
# is summed term by term.
_POISSON_SUM_MAX_T = 700.0


def _poisson_tail(n: int, t):
    """Q(n, t) = e^-t sum_{k<n} t^k / k! for integer n >= 1 and t > 0, an
    ``np.float64`` or an array; scipy's gammaincc past ``_POISSON_SUM_MAX_T``."""
    summed = np.minimum(t, _POISSON_SUM_MAX_T)
    term = total = np.exp(-summed)
    for k in range(1, n):
        term = term * summed / k
        total = total + term
    return np.where(t > _POISSON_SUM_MAX_T, special.gammaincc(n, t), total)


def _log1mexp(z):
    """log(1 - e^-z) for z > 0, accurate on both sides of z = log 2."""
    small, large = np.minimum(z, math.log(2.0)), np.maximum(z, math.log(2.0))
    return np.where(z > math.log(2.0), np.log1p(-np.exp(-large)), np.log(-np.expm1(-small)))


def make_gamma_diversity(N) -> FadingDistribution:
    """Sum of N unit-rate exponentials: N-antenna beamforming gain.

    mean N, E[1/z] = 1/(N-1) for N >= 2 (infinite at N = 1),
    E[log z] = psi(N), diversity order N. The tail functional is
    T(t) = Q(N-1, t)/(N-1) with Q the regularized upper incomplete Gamma,
    and E1(t) at N = 1; the survival function is Q(N, z), summed the same
    way.
    """
    N = _check_positive_int(N, "N")
    lg = special.gammaln(N)

    def tail_inverse(t):
        if N == 1:
            return float(special.exp1(t))
        if t > _POISSON_SUM_MAX_T:
            return float(special.gammaincc(N - 1, t)) / (N - 1)
        # For an integer order Q(N-1, t) = e^-t sum_{k < N-1} t^k / k!, a sum
        # of positive terms; scipy's gammaincc is 1e-13 off past t = 60.
        term = total = math.exp(-t)
        for k in range(1, N - 1):
            term *= t / k
            total += term
        return total / (N - 1)

    def pdf(z):
        return _as_float_or_array(
            z,
            lambda zp: np.exp((N - 1) * np.log(zp) - zp - lg),
            at_zero=1.0 if N == 1 else 0.0,
        )

    def cdf(z):
        return _as_float_or_array(z, lambda zp: special.gammainc(N, zp))

    def sf(z):
        return _survival(z, lambda zp: _poisson_tail(N, zp))

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
        sampler=lambda rng, n: _reduce_last_axis(np.add, rng.standard_exponential((n, N))),
        tail_inverse=tail_inverse,
        sf=sf,
    )
    return _validate(dist)


def _harmonic(K: int) -> float:
    return float(np.sum(1.0 / np.arange(1, K + 1)))


def make_max_exponential(K) -> FadingDistribution:
    """Maximum of K unit-rate exponentials: K-user selection gain.

    mean is the K-th harmonic number; diversity order K. E[1/z] and
    E[log z] have no stable closed form for general K (the alternating
    binomial sums cancel catastrophically), so from K = 3 up they are
    left to ``_validate``, which sums them on the survival table;
    K = 1, 2 have exact values.
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

    def sf(z):
        return _survival(z, lambda zp: -np.expm1(K * _log1mexp(zp)))

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
        pdf=pdf,
        cdf=cdf,
        mean=mean,
        inverse_mean=inverse_mean,
        log_mean=log_mean,
        support_sup=math.inf,
        diversity_order=float(K),
        quad_knots=knots,
        sampler=sampler,
        sf=sf,
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

    def k_inv_power(zp):
        # K z^(-alpha) overflows to inf near 0, where pdf and cdf are 0
        with np.errstate(over="ignore"):
            return K * zp ** (-alpha)

    def pdf(z):
        return _as_float_or_array(
            z,
            lambda zp: alpha * K * np.exp(-(alpha + 1) * np.log(zp) - k_inv_power(zp)),
        )

    def cdf(z):
        return _as_float_or_array(z, lambda zp: np.exp(-k_inv_power(zp)))

    def sf(z):
        return _survival(z, lambda zp: -np.expm1(-k_inv_power(zp)))

    mean = scale * float(special.gamma(1.0 - 1.0 / alpha)) if alpha > 1.0 else math.inf

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
        pdf=pdf,
        cdf=cdf,
        mean=mean,
        inverse_mean=float(special.gamma(1.0 + 1.0 / alpha)) / scale,
        log_mean=(math.log(K) + EULER_MASCHERONI) / alpha,
        support_sup=math.inf,
        diversity_order=math.inf,
        quad_knots=(0.5 * scale, scale, 4.0 * scale),
        sampler=sampler,
        sf=sf,
    )
    # past the table's top sf is K z^-alpha to within a part in 1e20
    rest = (lambda top: K * top ** (1.0 - alpha) / (alpha - 1.0)) if alpha > 1.0 else None
    return _validate(dist, sf_past_top=rest)


def make_miso_multiuser(N, K) -> FadingDistribution:
    """Best of K users, each seeing an N-antenna beamforming gain.

    pdf K P(N,z)^(K-1) z^(N-1) e^(-z) / Gamma(N), cdf P(N,z)^K, with P
    the regularized lower incomplete Gamma. E[1/z] is finite iff
    max(N, K) >= 2. The moments have no closed form, so they are left to
    ``_validate``, which sums them on the survival table. Diversity
    order N*K.
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

    def sf(z):
        def positive(zp):
            # 1 - P^K as -expm1(K log P), with log P = log1p(-Q) where P > 1/2
            p, q = special.gammainc(N, zp), _poisson_tail(N, zp)
            with np.errstate(divide="ignore"):
                log_p = np.where(p > 0.5, np.log1p(-q), np.log(p))
            return -np.expm1(K * log_p)

        return _survival(z, positive)

    rough_center = N + math.log(K) + 1.0
    knots = (0.5 * N, rough_center, 2.0 * rough_center + 2.0)
    dist = FadingDistribution(
        name=f"miso_multiuser(N={N},K={K})",
        pdf=pdf,
        cdf=cdf,
        mean=None,
        inverse_mean=None if max(N, K) >= 2 else math.inf,
        log_mean=None,
        support_sup=math.inf,
        diversity_order=float(N * K),
        quad_knots=knots,
        sampler=lambda rng, n: _reduce_last_axis(
            np.maximum, _reduce_last_axis(np.add, rng.standard_exponential((n, K, N)))
        ),
        sf=sf,
    )
    return _validate(dist)


# ---------------------------------------------------------------------------
# Tabulated (piecewise-linear) densities
# ---------------------------------------------------------------------------


class _TabulatedLaw:
    """T, CDF, survival function and inverse-CDF sampling of a
    piecewise-linear pdf."""

    def __init__(self, z: np.ndarray, grid_p: np.ndarray, mass: float):
        """``grid_p`` is the density as given, ``mass`` its trapezoid mass."""
        self.z = z
        self.p = grid_p / mass
        h = np.diff(z)
        seg_mass = 0.5 * (self.p[:-1] + self.p[1:]) * h
        self.cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        self.cum[-1] = 1.0  # the density is renormalized; pin the top exactly
        self.top_cum = np.concatenate((np.cumsum(seg_mass[::-1])[::-1], [0.0]))
        self._z_list, self._grid_p = z.tolist(), grid_p.tolist()
        # T is divided by the trapezoid mass summed by ``math.fsum``: on the
        # test grids it is the float nearest the exact mass, which numpy's
        # pairwise sum (``mass``, which the density keeps) can miss by an ulp
        self._mass = math.fsum((0.5 * (grid_p[:-1] + grid_p[1:]) * h).tolist())
        self._tail = _grid_tails(self._z_list, self._grid_p, self._mass)

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
        """F at finite x > 0, an ``np.float64`` or an array."""
        idx = np.clip(np.searchsorted(self.z, x, side="right") - 1, 0, len(self.z) - 2)
        z0 = self.z[idx]
        slope = (self.p[idx + 1] - self.p[idx]) / (self.z[idx + 1] - z0)
        u = np.clip(x - z0, 0.0, self.z[idx + 1] - z0)
        out = self.cum[idx] + self.p[idx] * u + 0.5 * slope * u * u
        return np.clip(np.where(x >= self.z[-1], 1.0, out), 0.0, 1.0)

    def sf(self, x):
        """1 - F at finite x > 0: the segment masses above x's segment,
        summed from the top, plus the part of that segment above x."""
        idx = np.clip(np.searchsorted(self.z, x, side="right") - 1, 0, len(self.z) - 2)
        z1 = self.z[idx + 1]
        u = np.clip(z1 - x, 0.0, z1 - self.z[idx])
        p1 = self.p[idx + 1]
        p_x = p1 - (p1 - self.p[idx]) * u / (z1 - self.z[idx])
        return self.top_cum[idx + 1] + 0.5 * (p_x + p1) * u

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
    in closed form, and E[1/z] is T at the grid's first point. E[z],
    E[log z] and every other expectation are summed on the survival
    table, whose panels lie within the segments (``_validate`` sums the
    two moments while the law is built). Sampling inverts the
    piecewise-quadratic CDF, and the diversity order is estimated from the
    log-log slope of the CDF over the 5 smallest usable grid points.
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

    cdf_vals = law.cum
    usable = (z > 0.0) & (cdf_vals > 0.0) & (cdf_vals < 1.0)
    pts = np.nonzero(usable)[0][:5]
    if len(pts) >= 2:
        slope = float(np.polyfit(np.log(z[pts]), np.log(cdf_vals[pts]), 1)[0])
    else:
        slope = 1.0

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
        diversity_order=slope,
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
