"""Self-check suites over a single gain law.

Runs the library's cross-cutting invariants (scheme ordering chain,
power-constraint residuals, pre-log constants, low-SNR slopes, and at
the full level a Monte-Carlo cross-check) and reports one named
pass/fail result per check.
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
PRELOG_TOL = 0.02
SLOPE_RTOL = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _chain_threshold(dist: FadingDistribution) -> float:
    if math.isfinite(dist.support_sup):
        return min(1.0, 0.5 * dist.support_sup)
    return 1.0


def _capacity_of_power(dist: FadingDistribution, scheme: Scheme, z_t: float):
    """The scheme's capacity in nats as a function of S, at threshold z_t."""
    return lambda S: schemes.capacity(dist, scheme, S, z_t=z_t).capacity_nats


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


def check_power_residuals(dist: FadingDistribution, powers=(0.1, 1.0, 10.0, 100.0)) -> list[CheckResult]:
    z_t = _chain_threshold(dist)
    worst = 0.0
    for S in powers:
        residuals = [schemes.oa_threshold(dist, S).residual]
        residuals.append(schemes.tci_capacity(dist, S, z_t).power_constraint_residual)
        residuals.append(schemes.ctci_capacity(dist, S, z_t).power_constraint_residual)
        worst = max(worst, max(abs(r) for r in residuals))
    return [CheckResult("power_residuals", worst <= RESIDUAL_TOL, f"max |E[D]-1| = {worst:.2e}")]


def check_prelogs(dist: FadingDistribution, S_hi: float = 1e6) -> list[CheckResult]:
    """Numeric pre-log constants against one-minus-outage."""
    results = []
    z_t = _chain_threshold(dist)
    cases = [
        (Scheme.RA, 1.0),
        (Scheme.CI, 1.0 if dist.inverse_mean_finite else 0.0),
        (Scheme.CTCI, 1.0),
        (Scheme.TCI, asymptotics.prelog_analytic(float(dist.cdf(z_t)))),
    ]
    for scheme, expected in cases:
        got = asymptotics.prelog_numeric(_capacity_of_power(dist, scheme, z_t), S_hi)
        results.append(
            CheckResult(f"prelog_{scheme.value}", abs(got - expected) <= PRELOG_TOL,
                        f"{got:.4f} vs {expected:.4f}")
        )
    return results


def check_slopes(dist: FadingDistribution, S_lo: float = 1e-6) -> list[CheckResult]:
    """Numeric low-SNR slopes against the analytic limits."""
    results = []
    z_t = _chain_threshold(dist)
    for scheme in (Scheme.AWGN, Scheme.RA, Scheme.CI, Scheme.TCI, Scheme.CTCI):
        name, fn = f"slope_{scheme.value}", _capacity_of_power(dist, scheme, z_t)
        analytic = asymptotics.low_snr_slope(dist, scheme, z_t)
        if not math.isfinite(analytic):
            continue
        if analytic == 0.0:  # degenerate inversion: capacity identically 0
            got = fn(S_lo)
            results.append(CheckResult(name, got == 0.0, f"{got:.3e} vs 0"))
            continue
        got = asymptotics.low_snr_slope_numeric(fn, S_lo)
        results.append(
            CheckResult(
                name,
                abs(got - analytic) <= SLOPE_RTOL * analytic,
                f"{got:.6g} vs {analytic:.6g}",
            )
        )
    return results


def check_mc(
    dist: FadingDistribution,
    powers=(0.1, 1.0, 10.0, 100.0),
    n_samples: int = 200_000,
    seed: int = 0,
) -> list[CheckResult]:
    """Quadrature capacities against Monte-Carlo at 3 standard errors."""
    z_t = _chain_threshold(dist)
    results = []
    for scheme in (Scheme.OA, Scheme.RA, Scheme.CI, Scheme.TCI, Scheme.CTCI):
        worst = 0.0
        ok = True
        for S in powers:
            est = mc.mc_capacity(dist, scheme, S, z_t=z_t, n_samples=n_samples, seed=seed)
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
