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

Both hold as bounds at every S. With C(S) = E[log(1 + S X)] for every
scheme but OA, X the received SNR per unit power, log1p(x) lies in
[log x, log x + 1/x] and in [x (1 - x/2), x], so C - (P log S + E[log X])
lies in [0, E[1/X] / S] (P = Pr(X > 0), the expectations over X > 0) and
C / S in [m (1 - S sup X / 2), m] for the slope m = E[X]. ``verify``
checks both.

Infinite gaps and slopes are legitimate values here, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import FadingDistribution, _check_positive_int, _digamma_gap
from .numerics import EULER_MASCHERONI
from .schemes import Scheme, ctci_dmax, tci_dmax


@dataclass(frozen=True)
class GapReport:
    """The four high-SNR gaps, in nats (inf when a moment diverges)."""

    gap_oa_ra: float
    gap_awgn_oa: float
    gap_oa_ci: float
    gap_awgn_ci: float


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
    N = _check_positive_int(N, "N", minimum=2)
    return SpaceDiversityGaps(
        gap_oa_ci=_digamma_gap(N),
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
    K = _check_positive_int(K, "K", minimum=2)
    return math.log1p(EULER_MASCHERONI / math.log(K))


def low_snr_slope(dist: FadingDistribution, scheme: Scheme, z_t: float = None) -> float:
    """Analytic limit of dC/dS at S -> 0 for one scheme.

    OA's slope is the top of the support (infinite for the usual
    unbounded gains). TCI and CTCI take their fixed threshold and reduce
    to CI at threshold 0, and CTCI to RA at an infinite one. TCI's slope is
    sf(z_t) z_t D_max and CTCI's E[min(Z, z_t)] D_max, with the D_max
    of ``tci_dmax`` and ``ctci_dmax``: each raises ValueError where its
    D_max does.
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
    if scheme is Scheme.TCI:
        d_max = tci_dmax(dist, z_t)
        return float(dist.sf(z_t)) * z_t * d_max
    if z_t == math.inf:
        return dist.mean
    d_max = ctci_dmax(dist, z_t)
    # E[min(Z, z_t)], the integral of 1 - F over [0, z_t]
    return dist.survival_table.sf_integral(z_t) * d_max

