"""Self-check suites over a single gain law.

Runs the library's cross-cutting invariants (scheme ordering chain,
power-constraint residuals, pre-log constants, low-SNR slopes, and at
the full level a Monte-Carlo cross-check) and reports one named
pass/fail result per check. The pre-log and slope bounds are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, mc, schemes
from .distributions import FadingDistribution
from .schemes import Scheme

ORDERING_SLACK = 1e-9
RESIDUAL_TOL = 1e-8
# the pre-log and slope checks read the capacities at S_HI / g and S_LO / g, with
# g = exp(E[log z]): the same received SNRs, and check values, at any scale
S_HI = 1e6
S_LO = 1e-6
# the OA powers of the residual check and the powers and sample count of
# the Monte-Carlo check
POWERS = (0.1, 1.0, 10.0, 100.0)
MC_SAMPLES = 200_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _chain_threshold(dist: FadingDistribution) -> float:
    """The law's geometric mean exp(E[log z]), capped at half a finite
    support top: a threshold with channel mass on both sides at any scale."""
    return min(math.exp(dist.log_mean), 0.5 * dist.support_sup)


def check_ordering_chain(dist: FadingDistribution, snr_grid_db) -> list[CheckResult]:
    """CI <= CTCI(z_t) <= RA <= OA and RA <= AWGN at every grid SNR."""
    z_t = _chain_threshold(dist)
    worst = math.inf
    worst_at = None
    for db in snr_grid_db:
        S = 10.0 ** (db / 10.0)
        ci, ctci, ra, oa, awgn = (
            schemes.capacity(dist, scheme, S, z_t=z_t).capacity_nats
            for scheme in (Scheme.CI, Scheme.CTCI, Scheme.RA, Scheme.OA, Scheme.AWGN)
        )
        for slack in (ctci - ci, ra - ctci, oa - ra, awgn - ra):
            if slack < worst:
                worst, worst_at = slack, db
    ok = worst >= -ORDERING_SLACK
    return [
        CheckResult(
            "ordering_chain",
            ok,
            f"min slack {worst:.3e}" + ("" if ok else f" at {worst_at} dB"),
        )
    ]


def check_power_residuals(dist: FadingDistribution) -> list[CheckResult]:
    """|E[D] - 1| of OA's solved cutoff at ``POWERS``, and of TCI and CTCI
    at the chain threshold.

    OA's is its cutoff solve's residual. TCI's and CTCI's D_max meet the
    constraint by definition, so their E[D] is recomputed with
    T(z_t) = sf(z_t)/z_t - P(z_t), P from the survival table: a route that
    shares nothing with the T (closed form or QUADPACK) and the F that set
    D_max. E[D] is then tci_dmax (sf - z_t P) and ctci_dmax (1 - z_t P).
    """
    z_t = _chain_threshold(dist)
    zP = z_t * dist.survival_table.tails(z_t)[0]
    residuals = [schemes.oa_threshold(dist, S).residual for S in POWERS]
    residuals.append(schemes.tci_dmax(dist, z_t) * (float(dist.sf(z_t)) - zP) - 1.0)
    residuals.append(schemes.ctci_dmax(dist, z_t) * (1.0 - zP) - 1.0)
    worst = max(abs(r) for r in residuals)
    return [CheckResult("power_residuals", worst <= RESIDUAL_TOL, f"max |E[D]-1| = {worst:.2e}")]


def _bounded(name: str, value: float, lo: float, hi: float) -> CheckResult:
    """lo <= value <= hi, to the rounding slack ``ORDERING_SLACK``."""
    ok = lo - ORDERING_SLACK <= value <= hi + ORDERING_SLACK
    return CheckResult(name, ok, f"{value:.6g} in [{lo:.6g}, {hi:.6g}]")


def check_prelogs(dist: FadingDistribution) -> list[CheckResult]:
    """Capacities at ``S_HI`` / g within the high-SNR bounds of ``asymptotics``.

    TCI's X is 1/T(z_t) above the cutoff, with pre-log sf(z_t), and CTCI's
    is D_max min(z, z_t), whose log has mean E[log z] - E[log(z/z_t); z > z_t].
    Where E[1/z] is infinite, CI's X is 0 and its capacity lies in [0, 0].
    """
    z_t = _chain_threshold(dist)
    inv, sf = dist.inverse_mean, float(dist.sf(z_t))
    T, d = dist.tail_inverse_integral(z_t), schemes.ctci_dmax(dist, z_t)
    cases = [
        (Scheme.RA, 1.0, dist.log_mean, inv),
        (Scheme.CI, 1.0, -math.log(inv), inv) if dist.inverse_mean_finite
        else (Scheme.CI, 0.0, 0.0, 0.0),
        (Scheme.CTCI, 1.0, math.log(d) + dist.log_mean - dist.survival_table.tails(z_t)[1],
         (inv - T + sf / z_t) / d),
        (Scheme.TCI, sf, -sf * math.log(T), sf * T),
    ]
    S = S_HI / math.exp(dist.log_mean)
    results = []
    for scheme, P, log_x, inv_x in cases:
        C = schemes.capacity(dist, scheme, S, z_t=z_t).capacity_nats
        excess = C - (P * math.log(S) + log_x)
        results.append(_bounded(f"prelog_{scheme.value}", excess, 0.0, inv_x / S))
    return results


def check_slopes(dist: FadingDistribution) -> list[CheckResult]:
    """Capacities over S at S = ``S_LO`` / g within the low-SNR bounds of
    ``asymptotics``. RA's X = z is unbounded, so its lower bound caps it
    at 1e-3 / S and takes E[min(z, 1e-3 / S)]. An infinite slope is skipped.
    """
    z_t = _chain_threshold(dist)
    S = S_LO / math.exp(dist.log_mean)
    ra_cap = 1e-3 / S
    peaks = {
        Scheme.AWGN: dist.mean,
        Scheme.RA: ra_cap,
        Scheme.CI: asymptotics.low_snr_slope(dist, Scheme.CI),
        Scheme.TCI: z_t * schemes.tci_dmax(dist, z_t),
        Scheme.CTCI: z_t * schemes.ctci_dmax(dist, z_t),
    }
    results = []
    for scheme, peak in peaks.items():
        m = asymptotics.low_snr_slope(dist, scheme, z_t)
        if not math.isfinite(m):
            continue
        head = dist.survival_table.sf_integral(ra_cap) if scheme is Scheme.RA else m
        C = schemes.capacity(dist, scheme, S, z_t=z_t).capacity_nats
        results.append(_bounded(f"slope_{scheme.value}", C / S, head * (1.0 - 0.5 * S * peak), m))
    return results


def check_mc(dist: FadingDistribution, seed: int = 0) -> list[CheckResult]:
    """Quadrature capacities against Monte-Carlo at 3 standard errors."""
    z_t = _chain_threshold(dist)
    results = []
    for scheme in (Scheme.OA, Scheme.RA, Scheme.CI, Scheme.TCI, Scheme.CTCI):
        worst = 0.0
        ok = True
        for S in POWERS:
            est = mc.mc_capacity(dist, scheme, S, z_t=z_t, n_samples=MC_SAMPLES, seed=seed)
            exact = schemes.capacity(dist, scheme, S, z_t=z_t).capacity_nats
            band = 3.0 * est.std_error + 1e-12
            dev = abs(est.mean_nats - exact)
            worst = max(worst, dev - band)
            ok = ok and dev <= band
        results.append(CheckResult(f"mc_{scheme.value}", ok, f"worst excess {worst:.2e}"))
    return results


def run_checks(dist: FadingDistribution, level: str = "fast", seed: int = 0) -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    if level == "fast":
        grid = np.arange(-20.0, 41.0, 5.0)
    else:
        grid = np.arange(-20.0, 41.0, 1.0)
    results = []
    results += check_ordering_chain(dist, grid)
    results += check_power_residuals(dist)
    results += check_prelogs(dist)
    results += check_slopes(dist)
    if level == "full":
        results += check_mc(dist, seed=seed)
    return results
