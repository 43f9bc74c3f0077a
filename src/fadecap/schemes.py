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
its cutoff with it. TCI and CTCI take their power ratio from F and the
tail functional T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Solved cutoff with the residual of its defining power constraint.

    ``capacity_nats`` is the scheme's capacity at the cutoff, which the
    solve computes on the way: OA's from the survival table at the returned
    cutoff, TCI's at the optimized threshold.
    """

    z_t: float
    residual: float
    # cutoffs integrated (oa_threshold) or capacities computed (tci_optimize)
    iterations: int
    capacity_nats: float


@dataclass(frozen=True)
class CapacityResult:
    scheme: Scheme
    avg_power_S: float
    capacity_nats: float
    threshold_z_t: Optional[float] = None
    d_max: Optional[float] = None
    power_constraint_residual: Optional[float] = None
    degenerate: bool = False


def _check_power(S: float):
    if not 0.0 < S < math.inf:
        raise ValueError(f"average power must be finite and positive, got {S}")


def _clip_capacity(value: float) -> float:
    # quadrature noise may leave a tiny negative residue on a zero capacity
    return value if value > 0.0 else 0.0


def awgn_capacity(dist: FadingDistribution, S: float) -> CapacityResult:
    """Reference capacity of a non-fading link at the same average SNR."""
    _check_power(S)
    return CapacityResult(Scheme.AWGN, S, math.log1p(S * dist.mean))


def _oa_power_integral(dist: FadingDistribution, S: float, z_t: float) -> tuple[float, float]:
    """(E[D], C) for water-filling with cutoff z_t: P(z_t) / S, the unit
    constraint's LHS, and the capacity C(z_t), both from one read of the
    law's survival table."""
    P, C = dist.survival_table.tails(z_t)
    return P / S, C


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
            known[u] = _oa_power_integral(dist, S, math.exp(u))
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
        _clip_capacity(solution.capacity_nats),
        threshold_z_t=solution.z_t,
        power_constraint_residual=solution.residual,
    )


def ra_capacity(dist: FadingDistribution, S: float) -> CapacityResult:
    """Constant-power capacity E[log(1 + S z)], the integral of
    S (1 - F(y)) / (1 + S y), summed over the survival table's nodes."""
    _check_power(S)
    cap = dist.survival_table.log1p_expectation(S)
    return CapacityResult(Scheme.RA, S, _clip_capacity(cap))


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


def _tci_tail(dist: FadingDistribution, z_t: float) -> float:
    """T(z_t) at a TCI cutoff; ValueError unless channel mass survives it."""
    if not 0.0 < z_t < dist.support_sup:
        raise ValueError(
            f"threshold must lie inside the support (0, {dist.support_sup}), got {z_t}"
        )
    tail = dist.tail_inverse_integral(z_t)
    if z_t * tail <= 0.0:
        raise ValueError(f"no channel mass above threshold {z_t}")
    return tail


def tci_dmax(dist: FadingDistribution, z_t: float) -> float:
    """Peak power ratio of truncated inversion at cutoff z_t.

    Always exceeds 1: the power saved while silent below the cutoff is
    spent above it. Independent of S.
    """
    return 1.0 / (z_t * _tci_tail(dist, z_t))


def tci_capacity(dist: FadingDistribution, S: float, z_t: float) -> CapacityResult:
    """Truncated inversion: (1 - F(z_t)) log(1 + S D_max z_t)."""
    _check_power(S)
    tail = _tci_tail(dist, z_t)
    d_max = 1.0 / (z_t * tail)
    outage = float(dist.cdf(z_t))
    cap = (1.0 - outage) * math.log1p(S * d_max * z_t)
    residual = d_max * z_t * tail - 1.0
    return CapacityResult(
        Scheme.TCI,
        S,
        _clip_capacity(cap),
        threshold_z_t=z_t,
        d_max=d_max,
        power_constraint_residual=residual,
    )


def _default_threshold_bracket(dist: FadingDistribution) -> Bracket:
    """Search range covering thresholds from the near-inversion regime up
    to where virtually no channel mass survives the cut."""
    ref = dist.mean if dist.mean_finite else 1.0
    lo = 1e-9 * ref
    if math.isfinite(dist.support_sup):
        hi = dist.support_sup * (1.0 - 1e-9)
    else:
        hi = ref
        while 1.0 - float(dist.cdf(hi)) > 1e-9:
            hi *= 2.0
            if hi > 1e100:
                break
    return Bracket(lo, hi)


def tci_optimize(
    dist: FadingDistribution, S: float, bracket: Bracket = None
) -> tuple[ThresholdSolution, CapacityResult]:
    """Best fixed threshold for truncated inversion at power S.

    A log-spaced grid scan followed by bounded Brent refinement inside
    the best grid cell. The grid keeps the smallest threshold on ties,
    and the refined threshold replaces it only when its capacity is
    strictly larger. The capacity surface is not guaranteed unimodal,
    which is exactly what the grid pre-scan guards against.
    """
    _check_power(S)
    if bracket is None:
        bracket = _default_threshold_bracket(dist)
    evals = [0]

    def objective(z_t: float) -> float:
        evals[0] += 1
        return tci_capacity(dist, S, z_t).capacity_nats

    z_star, _ = maximize_unimodal(objective, bracket, tol=1e-6)
    result = tci_capacity(dist, S, z_star)
    solution = ThresholdSolution(
        z_t=z_star,
        residual=result.power_constraint_residual,
        iterations=evals[0],
        capacity_nats=result.capacity_nats,
    )
    return solution, result


def _check_ctci_threshold(z_t: float):
    if not 0.0 <= z_t < math.inf:
        raise ValueError(f"threshold must be finite and nonnegative, got {z_t}")


def ctci_dmax(dist: FadingDistribution, z_t: float) -> float:
    """Power ratio of continuous truncated inversion at cutoff z_t.

    Lies in [1, inf); the threshold-0 limit is degenerate (infinite
    ratio applied to a vanishing gain, recovering plain inversion) and
    the infinite-threshold limit is 1 (constant power).
    """
    _check_ctci_threshold(z_t)
    if z_t == 0.0:
        return math.inf
    return 1.0 / (float(dist.cdf(z_t)) + z_t * dist.tail_inverse_integral(z_t))


def ctci_capacity(dist: FadingDistribution, S: float, z_t: float) -> CapacityResult:
    """Continuous truncated inversion capacity E[log(1 + a min(z, z_t))].

    With a = S D_max, the received SNR is a z below the cutoff and a z_t
    above it. Integrated by parts, the capacity is the integral of
    a (1 - F(y)) / (1 + a y) over [0, z_t]: RA's survival sum at power a,
    capped at z_t. Thresholds 0 and above the support reproduce CI and RA
    exactly.
    """
    _check_power(S)
    _check_ctci_threshold(z_t)
    if z_t == 0.0:
        ci = ci_capacity(dist, S)
        residual = None
        if dist.inverse_mean_finite:
            residual = dist.tail_inverse_integral(0.0) / dist.inverse_mean - 1.0
        return CapacityResult(
            Scheme.CTCI,
            S,
            ci.capacity_nats,
            threshold_z_t=0.0,
            d_max=math.inf,
            power_constraint_residual=residual,
            degenerate=ci.degenerate,
        )
    denom = float(dist.cdf(z_t)) + z_t * dist.tail_inverse_integral(z_t)
    d_max = 1.0 / denom
    cap = dist.survival_table.log1p_expectation(S * d_max, cap=z_t)
    residual = d_max * denom - 1.0
    return CapacityResult(
        Scheme.CTCI,
        S,
        _clip_capacity(cap),
        threshold_z_t=z_t,
        d_max=d_max,
        power_constraint_residual=residual,
    )


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
