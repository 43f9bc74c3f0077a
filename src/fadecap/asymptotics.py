"""High-SNR capacity gaps, pre-log constants and low-SNR slopes.

At high average SNR every scheme without outage has a pre-log constant
of 1, so pairs of such schemes are separated by constant capacity gaps.
The gaps follow from the gain law's moments alone:

    AWGN - OA : log E[z] - E[log z]        (Jensen, >= 0)
    OA   - RA : 0
    OA   - CI : E[log z] + log E[1/z]      (finite iff E[1/z] < inf)
    AWGN - CI : log(E[z] E[1/z])           (sum of the two above)

A gap of g nats corresponds to an SNR offset of g * 10/log 10 dB.
Truncated inversion with a fixed threshold keeps an outage region, its
pre-log constant drops to one minus the outage probability, and no
constant gap against the pre-log-1 schemes exists.

At low SNR every capacity is asymptotically linear in S and the slopes
order as 1/E[1/z] (CI) <= CTCI <= E[z] (RA and AWGN), while the optimal
scheme's slope is the top of the gain's support, typically infinite:
fading helps at sufficiently low SNR.

Infinite gaps and slopes are legitimate values here, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from scipy import special

from .distributions import FadingDistribution
from .numerics import EULER_MASCHERONI
from .schemes import Scheme, _tci_tail


@dataclass(frozen=True)
class GapReport:
    """The four high-SNR gaps, in nats (inf when a moment diverges)."""

    gap_oa_ra: float
    gap_awgn_oa: float
    gap_oa_ci: float
    gap_awgn_ci: float


@dataclass(frozen=True)
class SlopeReport:
    scheme: Scheme
    slope: float
    threshold_z_t: Optional[float] = None


def gap_awgn_oa(dist: FadingDistribution) -> float:
    """log E[z] - E[log z]; infinite if the mean diverges."""
    if not dist.mean_finite:
        return math.inf
    return math.log(dist.mean) - dist.log_mean


def gap_oa_ci(dist: FadingDistribution) -> float:
    """E[log z] + log E[1/z]; infinite when inversion is degenerate."""
    if not dist.inverse_mean_finite:
        return math.inf
    return dist.log_mean + math.log(dist.inverse_mean)


def gap_awgn_ci(dist: FadingDistribution) -> float:
    """log(E[z] E[1/z]); the sum of the AWGN-OA and OA-CI gaps."""
    if not (dist.mean_finite and dist.inverse_mean_finite):
        return math.inf
    return math.log(dist.mean) + math.log(dist.inverse_mean)


def gap_report(dist: FadingDistribution) -> GapReport:
    return GapReport(
        gap_oa_ra=0.0,
        gap_awgn_oa=gap_awgn_oa(dist),
        gap_oa_ci=gap_oa_ci(dist),
        gap_awgn_ci=gap_awgn_ci(dist),
    )


@dataclass(frozen=True)
class SpaceDiversityGaps:
    """Exact N-antenna gaps and their large-N leading-order expansions."""

    gap_oa_ci: float
    gap_awgn_ci: float
    expansion_oa_ci: float
    expansion_awgn_ci: float


def space_diversity_gaps(N) -> SpaceDiversityGaps:
    """Closed-form gaps for the N-antenna beamforming gain, N >= 2.

    gap(OA, CI) = psi(N) - log(N - 1) ~ 1 / (2(N-1));
    gap(AWGN, CI) = log(1 + 1/(N-1)) ~ 1 / (N-1).
    The OA-CI gap is asymptotically half the AWGN-CI gap, and both decay
    inversely with the antenna count: inversion becomes near-optimal.
    """
    if N != int(N) or int(N) < 2:
        raise ValueError(f"need an integer N >= 2 (inversion degenerates below), got {N}")
    N = int(N)
    return SpaceDiversityGaps(
        gap_oa_ci=float(special.digamma(N)) - math.log(N - 1),
        gap_awgn_ci=math.log1p(1.0 / (N - 1)),
        expansion_oa_ci=0.5 / (N - 1),
        expansion_awgn_ci=1.0 / (N - 1),
    )


def multiuser_gap_asymptotic(K) -> float:
    """Published heuristic log(1 + gamma_em / log K) for the AWGN-CI gap
    of K-user selection over unit-rate exponential gains.

    Not an asymptotic equivalent of the gap. The exact value,
    gap_awgn_ci(make_max_exponential(K)), decays like
    pi^2 / (6 log^2 K), while this heuristic decays like gamma_em / log K,
    so its relative error grows with K (about 0.23 at K = 8 and 2.0 at
    K = 1024). Both decay only logarithmically in K: users close the
    inversion gap far more slowly than antennas.
    """
    if K != int(K) or int(K) < 2:
        raise ValueError(f"need an integer K >= 2, got {K}")
    return math.log1p(EULER_MASCHERONI / math.log(int(K)))


def prelog_numeric(capacity_fn: Callable[[float], float], S_hi: float,
                   log_step: float = 1e-3) -> float:
    """Central finite difference of capacity against log S at S_hi."""
    up = capacity_fn(S_hi * math.exp(log_step))
    down = capacity_fn(S_hi * math.exp(-log_step))
    return (up - down) / (2.0 * log_step)


def prelog_analytic(outage_probability: float) -> float:
    """Pre-log constant of any power law with S-independent shape:
    one minus the probability of the silent region."""
    if not 0.0 <= outage_probability <= 1.0:
        raise ValueError(f"outage probability must lie in [0, 1], got {outage_probability}")
    return 1.0 - outage_probability


def low_snr_slope(dist: FadingDistribution, scheme: Scheme, z_t: float = None) -> float:
    """Analytic limit of dC/dS at S -> 0 for one scheme.

    OA's slope is the top of the support (infinite for the usual
    unbounded gains). TCI and CTCI take their fixed threshold and reduce
    to CI at threshold 0; TCI raises ValueError where ``tci_dmax`` does.
    """
    scheme = Scheme(scheme)
    if scheme in (Scheme.AWGN, Scheme.RA):
        return dist.mean
    if scheme is Scheme.OA:
        return dist.support_sup
    if scheme is Scheme.CI:
        return 0.0 if not dist.inverse_mean_finite else 1.0 / dist.inverse_mean
    if z_t is None:
        raise ValueError(f"{scheme.value} slope needs a threshold")
    if z_t == 0.0:
        return low_snr_slope(dist, Scheme.CI)
    outage_cdf = float(dist.cdf(z_t))
    if scheme is Scheme.TCI:
        return (1.0 - outage_cdf) / _tci_tail(dist, z_t)
    # CTCI: the infinite threshold reduces to RA
    if math.isinf(z_t):
        return dist.mean
    # E[min(Z, z_t)], the integral of 1 - F over [0, z_t]
    numer = dist.survival_table.sf_integral(z_t)
    denom = outage_cdf + z_t * dist.tail_inverse_integral(z_t)
    return numer / denom


def low_snr_slopes(
    dist: FadingDistribution,
    tci_thresholds: Sequence[float] = (),
    ctci_thresholds: Sequence[float] = (),
) -> list[SlopeReport]:
    """Slope reports for every scheme, with per-threshold entries for the
    truncated schemes."""
    reports = [
        SlopeReport(Scheme.AWGN, low_snr_slope(dist, Scheme.AWGN)),
        SlopeReport(Scheme.OA, low_snr_slope(dist, Scheme.OA)),
        SlopeReport(Scheme.RA, low_snr_slope(dist, Scheme.RA)),
        SlopeReport(Scheme.CI, low_snr_slope(dist, Scheme.CI)),
    ]
    for z_t in tci_thresholds:
        reports.append(
            SlopeReport(Scheme.TCI, low_snr_slope(dist, Scheme.TCI, z_t), threshold_z_t=z_t)
        )
    for z_t in ctci_thresholds:
        reports.append(
            SlopeReport(Scheme.CTCI, low_snr_slope(dist, Scheme.CTCI, z_t), threshold_z_t=z_t)
        )
    return reports


def low_snr_slope_numeric(capacity_fn: Callable[[float], float], S_lo: float) -> float:
    """Central finite difference of capacity against S at S_lo."""
    h = 0.5 * S_lo
    return (capacity_fn(S_lo + h) - capacity_fn(S_lo - h)) / (2.0 * h)
