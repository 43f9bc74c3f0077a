"""Exact ergodic capacities of the adaptive transmission schemes.

All capacities are in nats; the noise variance is normalized to 1, so
the average SNR equals the average transmit power S in linear scale.
Thresholds for the truncated schemes are expressed in effective-gain
units (instantaneous SNR divided by S), which makes the fixed-threshold
analysis power-independent.

Schemes:

* AWGN -- non-fading reference at the same average SNR: log(1 + S E[z]).
* OA   -- optimal power and rate adaptation (water-filling above a
  cutoff set by the unit average-power constraint).
* RA   -- constant power, rate tracks the channel: E[log(1 + S z)].
* CI   -- channel inversion; constant received SNR S / E[1/z].
* TCI  -- inversion above a threshold, silence (outage) below it.
* CTCI -- inversion above a threshold, constant power below it; no
  outage, and it reduces to CI at threshold 0 and RA at threshold inf.

OA, RA and CTCI read the law's ``survival_table``: integrated by parts,
the OA constraint E[(1/z_t - 1/z)+], the OA capacity E[log(z/z_t); z > z_t],
the RA capacity E[log(1 + S z)] and the CTCI capacity
E[log(1 + a min(z, z_t))] need only the survival function 1 - F, so no
capacity evaluates the density. OA's cutoff solve returns the capacity at
its cutoff with it. TCI takes its power ratio D_max from the tail
functional T and CTCI from F and T, each in one function that also
checks the threshold: ``tci_dmax`` and ``ctci_dmax``.

Only OA, the one scheme that solves its power constraint, carries a
residual: its Newton solve's E[D] - 1. TCI's and CTCI's D_max meet
E[D] = 1 by definition, so their residual is None, as RA's and CI's is;
``verify.check_power_residuals`` recomputes their E[D] by another route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .distributions import FadingDistribution
from .numerics import Bracket, find_root_monotone, maximize_unimodal


class Scheme(str, Enum):
    AWGN = "awgn"
    OA = "oa"
    RA = "ra"
    CI = "ci"
    TCI = "tci"
    CTCI = "ctci"


@dataclass(frozen=True)
class ThresholdSolution:
    """Solved cutoff with the scheme's capacity there.

    ``residual`` is OA's E[D] - 1 at its solved cutoff, and None for an
    optimized TCI threshold, whose D_max meets the constraint by definition.
    ``capacity_nats`` is computed on the way: OA's from the survival table
    at the returned cutoff, TCI's at the optimized threshold.
    """

    z_t: float
    residual: Optional[float]
    # thresholds whose tail was read: OA's cutoffs integrated, TCI's T, memo hits included
    iterations: int
    capacity_nats: float


@dataclass(frozen=True)
class CapacityResult:
    scheme: Scheme
    avg_power_S: float
    capacity_nats: float
    threshold_z_t: Optional[float] = None
    d_max: Optional[float] = None
    # OA's solved E[D] - 1; None for the schemes that solve no constraint
    power_constraint_residual: Optional[float] = None
    degenerate: bool = False


def _check_power(S: float):
    if not 0.0 < S < math.inf:
        raise ValueError(f"average power must be finite and positive, got {S}")


def awgn_capacity(dist: FadingDistribution, S: float) -> CapacityResult:
    """Reference capacity of a non-fading link at the same average SNR."""
    _check_power(S)
    return CapacityResult(Scheme.AWGN, S, math.log1p(S * dist.mean))


def oa_threshold(dist: FadingDistribution, S: float) -> ThresholdSolution:
    """Water-filling cutoff from the average power constraint.

    With P(z) = E[(1/z - 1/Z)+], the integral of (1 - F(y))/y^2 over
    [z, inf), the cutoff solves P(z_t) = S. The survival table's sums of P
    at its panel edges bracket the cutoff in one panel. Below the table's
    lower end lo, F < ``numerics.SF_TABLE_CUT`` and P(z) = P(lo) + 1/z - 1/lo,
    so the cutoff there is 1/(S - P(lo) + 1/lo) in closed form. Inside a panel it is
    found by safeguarded Newton on psi(u) = log P(e^u) - log S in
    u = log z_t, whose slope -(1 - F(z_t)) / (z_t P(z_t)) needs only the
    survival function and the P just computed. ``iterations`` counts the
    cutoffs whose partial panel was integrated; the panel's edges are read
    from the table, and no point is integrated twice. The read that gave P
    at the returned cutoff also gave C_OA there, the solution's
    ``capacity_nats``.
    """
    _check_power(S)
    table = dist.survival_table
    k = table.power_panel(S)
    if k < 0:
        z_t = 1.0 / (S - table.P_edges[0] + 1.0 / table.lo)
        P, C = table.tails_below(z_t)
        return ThresholdSolution(z_t, P / S - 1.0, iterations=0, capacity_nats=C)
    u_lo, u_hi = table.u_edges[k], table.u_edges[k + 1]
    known = {u_lo: (table.P_edges[k] / S, float(table.C_edges[k])),
             u_hi: (table.P_edges[k + 1] / S, float(table.C_edges[k + 1]))}

    def power(u: float) -> float:
        if u not in known:
            P, C = table.tails(math.exp(u))
            known[u] = (P / S, C)
        return known[u][0]

    def psi(u: float) -> float:
        p = power(u)
        return math.log(p) if p > 0.0 else -math.inf

    def dpsi(u: float) -> float:
        z_t, p = math.exp(u), power(u)
        return -float(table.sf(z_t)) / (z_t * S * p) if p > 0.0 else math.nan

    u_t = find_root_monotone(psi, Bracket(u_lo, u_hi), tol=1e-15, dg=dpsi)
    power_t, cap_t = known[u_t]
    return ThresholdSolution(
        z_t=math.exp(u_t),
        residual=power_t - 1.0,
        iterations=len(known) - 2,
        capacity_nats=cap_t,
    )


def oa_capacity(dist: FadingDistribution, S: float) -> CapacityResult:
    """Optimal adaptive capacity E[log(z / z_t); z > z_t] above the solved
    cutoff: the survival table's integral of (1 - F(y))/y over [z_t, inf),
    which the cutoff solve read with the constraint at z_t."""
    solution = oa_threshold(dist, S)
    return CapacityResult(
        Scheme.OA,
        S,
        solution.capacity_nats,
        threshold_z_t=solution.z_t,
        power_constraint_residual=solution.residual,
    )


def ra_capacity(dist: FadingDistribution, S: float) -> CapacityResult:
    """Constant-power capacity E[log(1 + S z)], the integral of
    S (1 - F(y)) / (1 + S y), summed over the survival table's nodes."""
    _check_power(S)
    cap = dist.survival_table.log1p_expectation(S)
    return CapacityResult(Scheme.RA, S, cap)


def ci_capacity(dist: FadingDistribution, S: float) -> CapacityResult:
    """Channel inversion: log(1 + S / E[1/z]).

    Returns zero capacity with the degenerate flag when E[1/z] diverges,
    in which case inversion cannot meet the power constraint with a
    nonzero rate.
    """
    _check_power(S)
    if not dist.inverse_mean_finite:
        return CapacityResult(Scheme.CI, S, 0.0, degenerate=True)
    return CapacityResult(Scheme.CI, S, math.log1p(S / dist.inverse_mean))


def _tci_tail(dist: FadingDistribution, z_t: float, memoize: bool = True) -> float:
    """T(z_t) = E[1/z; z > z_t], with the checks ``tci_dmax`` describes."""
    if not 0.0 < z_t < dist.support_sup:
        raise ValueError(
            f"threshold must lie inside the support (0, {dist.support_sup}), got {z_t}"
        )
    T = dist.tail_inverse_integral(z_t, memoize)
    if T <= 0.0:
        raise ValueError(f"no channel mass above threshold {z_t}")
    return T


def tci_dmax(dist: FadingDistribution, z_t: float) -> float:
    """Peak power ratio of truncated inversion at cutoff z_t: 1 / (z_t T(z_t)).

    It sets the average power D_max z_t T(z_t) to 1 exactly, so there is no
    residual. Always exceeds 1: the power saved while silent below the
    cutoff is spent above it. Independent of S. ValueError unless z_t lies
    inside the support with channel mass above it.
    """
    return 1.0 / (z_t * _tci_tail(dist, z_t))


def tci_capacity(dist: FadingDistribution, S: float, z_t: float) -> CapacityResult:
    """Truncated inversion: sf(z_t) log(1 + S D_max z_t), with sf = 1 - F."""
    _check_power(S)
    d_max = tci_dmax(dist, z_t)
    cap = float(dist.sf(z_t)) * math.log1p(S * d_max * z_t)
    return CapacityResult(Scheme.TCI, S, cap, threshold_z_t=z_t, d_max=d_max)


def _default_threshold_bracket(dist: FadingDistribution) -> Bracket:
    """Search range covering thresholds from the near-inversion regime up
    to where virtually no channel mass survives the cut: from 1e-9 E[z]
    (1e-9 when the mean diverges) to just below a finite support top, or
    to the first doubling of E[z] (or 1) at which sf is at most 1e-9. It
    spans at least 9 decades."""
    ref = dist.mean if dist.mean_finite else 1.0
    lo = 1e-9 * ref
    if math.isfinite(dist.support_sup):
        hi = dist.support_sup * (1.0 - 1e-9)
    else:
        hi = ref
        while float(dist.sf(hi)) > 1e-9:
            hi *= 2.0
            if hi > 1e100:
                break
    return Bracket(lo, hi)


def tci_optimize(dist: FadingDistribution, S: float) -> tuple[ThresholdSolution, CapacityResult]:
    """Best fixed threshold for truncated inversion at power S.

    ``maximize_unimodal`` over ``_default_threshold_bracket``: a log-spaced
    grid scan of the capacity sf log(1 + S/T), then Newton roots in
    u = log z_t of the first-order condition sf S / (T (T + S)) =
    z_t log(1 + S/T) (Goldsmith & Varaiya 1997), dC/du over the density,
    with its derivative from sf' = -p and dT/du = -p, in each grid cell
    where it falls through zero. The capacity, the condition and its
    derivative read one (z_t, sf, T) per threshold, which rejects a T <= 0
    as ``tci_dmax`` does; ``iterations`` counts the thresholds read in the
    call, those whose T the law had memoized included. The law memoizes T
    on the grid, which does not depend on S and is read whole before the
    first ``foc``, and not at the root solve's thresholds, which do.
    """
    _check_power(S)
    known = {}  # (z_t, sf, T) of each threshold read, under log z_t and the u of z_t = e^u
    on_grid = True

    def point(u: float, z_t: float) -> tuple[float, float, float]:
        if u not in known:
            known[u] = known[math.log(z_t)] = (z_t, float(dist.sf(z_t)),
                                               _tci_tail(dist, z_t, on_grid))
        return known[u]

    def capacity_at(z_t: float) -> float:
        _, sf, T = point(math.log(z_t), z_t)
        return sf * math.log1p(S / T)

    def foc(u: float) -> float:
        nonlocal on_grid
        on_grid = False
        z_t, sf, T = point(u, math.exp(u))
        return sf * S / (T * (T + S)) - z_t * math.log1p(S / T)

    def dfoc(u: float) -> float:
        z_t, sf, T = point(u, math.exp(u))
        q = T * (T + S)
        return (float(dist.pdf(z_t)) * S * (sf * (2.0 * T + S) - 2.0 * z_t * q) / q / q
                - z_t * math.log1p(S / T))

    z_star = maximize_unimodal(capacity_at, _default_threshold_bracket(dist), foc=foc, dfoc=dfoc)
    cap, T = capacity_at(z_star), point(math.log(z_star), z_star)[2]
    return (ThresholdSolution(z_star, None, len(set(known.values())), cap),
            CapacityResult(Scheme.TCI, S, cap, threshold_z_t=z_star, d_max=1.0 / (z_star * T)))


def ctci_dmax(dist: FadingDistribution, z_t: float) -> float:
    """Power ratio of continuous truncated inversion at cutoff z_t:
    1 / (F(z_t) + z_t T(z_t)).

    It sets the average power to 1 exactly, so there is no residual.
    Lies in [1, inf); the threshold-0 limit is degenerate (infinite
    ratio applied to a vanishing gain, recovering plain inversion) and
    the infinite-threshold limit is 1 (constant power). ValueError unless
    z_t is finite and nonnegative.
    """
    if not 0.0 <= z_t < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {z_t}")
    if z_t == 0.0:
        return math.inf
    return 1.0 / (float(dist.cdf(z_t)) + z_t * dist.tail_inverse_integral(z_t))


def ctci_capacity(dist: FadingDistribution, S: float, z_t: float) -> CapacityResult:
    """Continuous truncated inversion capacity E[log(1 + a min(z, z_t))].

    With a = S D_max, the received SNR is a z below the cutoff and a z_t
    above it. Integrated by parts, the capacity is the integral of
    a (1 - F(y)) / (1 + a y) over [0, z_t]: RA's survival sum at power a,
    capped at z_t. Thresholds 0 and above the support reproduce CI and RA
    exactly: at 0 the result is CI's, relabelled, with an infinite D_max.
    """
    _check_power(S)
    d_max = ctci_dmax(dist, z_t)
    if z_t == 0.0:
        return replace(ci_capacity(dist, S), scheme=Scheme.CTCI, threshold_z_t=0.0, d_max=d_max)
    cap = dist.survival_table.log1p_expectation(S * d_max, cap=z_t)
    return CapacityResult(Scheme.CTCI, S, cap, threshold_z_t=z_t, d_max=d_max)


def capacity(
    dist: FadingDistribution,
    scheme: Scheme,
    S: float,
    z_t: float = None,
    optimize_threshold: bool = False,
) -> CapacityResult:
    """Dispatch a single capacity evaluation (CLI and sweep helper)."""
    scheme = Scheme(scheme)
    if scheme is Scheme.AWGN:
        return awgn_capacity(dist, S)
    if scheme is Scheme.OA:
        return oa_capacity(dist, S)
    if scheme is Scheme.RA:
        return ra_capacity(dist, S)
    if scheme is Scheme.CI:
        return ci_capacity(dist, S)
    if scheme is Scheme.TCI:
        if optimize_threshold:
            return tci_optimize(dist, S)[1]
        if z_t is None:
            raise ValueError("TCI needs a threshold or optimize_threshold=True")
        return tci_capacity(dist, S, z_t)
    if z_t is None:
        raise ValueError("CTCI needs a threshold")
    return ctci_capacity(dist, S, z_t)
