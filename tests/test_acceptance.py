"""Acceptance gate: the release criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in captured output on failure) and then asserts. Tolerances are pinned
here, not calibrated elsewhere.

Criterion 4 checks the exact multi-user gap log(E[z]E[1/z]) against an
independent Laplace-transform oracle and against its true large-K law
pi^2/(6 log^2 K): the relative deviation from that law closes at every
doubling of K and stays within the next-order term c/log K. The
published estimate log(1 + gamma_em/log K) decays only like
gamma_em/log K, so its relative deviation grows with K; its deviations
are printed for the record, and tests/test_asymptotics.py asserts that
they grow.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma, exp1, gammaln, zeta

from fadecap.asymptotics import (
    gap_awgn_ci,
    gap_oa_ci,
    low_snr_slope,
    multiuser_gap_asymptotic,
    space_diversity_gaps,
)
from fadecap.distributions import (
    make_frechet,
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.mc import mc_capacity
from fadecap.numerics import EULER_MASCHERONI, integrate_semi_infinite
from fadecap.schemes import (
    Scheme,
    awgn_capacity,
    capacity,
    ci_capacity,
    ctci_capacity,
    oa_capacity,
    oa_threshold,
    ra_capacity,
    tci_capacity,
    tci_optimize,
)

LN2 = math.log(2.0)

GAP_OA_CI_BITS = 0.24928
GAP_AWGN_CI_BITS = 0.45943


def report(num: int, ok: bool, detail: str = "") -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def gamma2():
    return make_gamma_diversity(2)


@pytest.fixture(scope="module")
def maxexp4():
    return make_max_exponential(4)


@pytest.fixture(scope="module")
def miso22():
    return make_miso_multiuser(2, 2)


def tabulated_exponential():
    z = np.linspace(0.0, 30.0, 600)
    return make_tabulated(np.column_stack([z, np.exp(-z)]))


def test_criterion_1_gap_reproduction():
    start = time.perf_counter()
    dist = make_miso_multiuser(2, 2)
    oa_ci = gap_oa_ci(dist) / LN2
    awgn_ci = gap_awgn_ci(dist) / LN2
    elapsed = time.perf_counter() - start
    ok = (
        abs(oa_ci - GAP_OA_CI_BITS) <= 5e-4
        and abs(awgn_ci - GAP_AWGN_CI_BITS) <= 5e-4
        and elapsed < 1.0
    )
    assert report(
        1, ok, f"OA-CI={oa_ci:.5f} AWGN-CI={awgn_ci:.5f} bits in {elapsed:.2f}s"
    )


def test_criterion_2_finite_snr_convergence(miso22):
    start = time.perf_counter()
    oa_ci_ok = True
    worst = 0.0
    for db in range(10, 41):
        S = 10.0 ** (db / 10.0)
        diff = (
            oa_capacity(miso22, S).capacity_nats - ci_capacity(miso22, S).capacity_nats
        ) / LN2
        worst = max(worst, abs(diff - GAP_OA_CI_BITS))
        oa_ci_ok = oa_ci_ok and abs(diff - GAP_OA_CI_BITS) <= 0.002

    def awgn_ci_diff(db):
        S = 10.0 ** (db / 10.0)
        return (
            awgn_capacity(miso22, S).capacity_nats - ci_capacity(miso22, S).capacity_nats
        ) / LN2

    at40 = abs(awgn_ci_diff(40) - GAP_AWGN_CI_BITS)
    at10 = abs(awgn_ci_diff(10) - GAP_AWGN_CI_BITS)
    elapsed = time.perf_counter() - start
    ok = oa_ci_ok and at40 <= 0.005 and at10 > 0.005 and elapsed < 30.0
    assert report(
        2,
        ok,
        f"max|OA-CI dev|={worst:.5f} bits; AWGN-CI dev {at40:.5f}@40dB {at10:.5f}@10dB; {elapsed:.1f}s",
    )


def test_criterion_3_space_diversity_law():
    ns = [2, 4, 8, 16, 32, 64]
    closed = {}
    worst_quad = 0.0
    for N in ns:
        d = make_gamma_diversity(N)
        expected = digamma(N) - math.log(N - 1)
        closed[N] = expected
        log_quad = integrate_semi_infinite(
            lambda z: math.log(z) * d.pdf(z), 0.0, d.quad_knots
        ).value
        inv_quad = integrate_semi_infinite(
            lambda z: d.pdf(z) / z, 0.0, d.quad_knots
        ).value
        worst_quad = max(worst_quad, abs(log_quad + math.log(inv_quad) - expected))
    quad_ok = worst_quad <= 1e-10

    slopes = []
    for a, b in ((16, 32), (32, 64)):
        slopes.append(
            (math.log(closed[b]) - math.log(closed[a]))
            / (math.log(b - 1) - math.log(a - 1))
        )
    slope_ok = all(-1.05 <= s <= -0.95 for s in slopes)

    ratio = closed[64] / space_diversity_gaps(64).gap_awgn_ci
    ratio_ok = 0.45 <= ratio <= 0.55
    ok = quad_ok and slope_ok and ratio_ok
    assert report(
        3,
        ok,
        f"max quad dev {worst_quad:.1e}; slopes {[f'{s:.3f}' for s in slopes]}; ratio@64 {ratio:.3f}",
    )


def max_exponential_inverse_mean(K):
    """E[1/z] for the maximum of K unit exponentials, by an independent route.

    By the Renyi representation z = sum_{k<=K} E_k/k, its Laplace
    transform is K! Gamma(1+s)/Gamma(K+1+s) and E[1/z] is its integral
    over s in (0, inf).
    """

    def laplace(s):
        return math.exp(gammaln(K + 1) + gammaln(1.0 + s) - gammaln(K + 1 + s))

    cuts = (0.0, 1.0, 10.0, 100.0, math.inf)
    return math.fsum(
        quad(laplace, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts, cuts[1:])
    )


def test_criterion_4_multiuser_law():
    ks = [2**j for j in range(1, 11)]
    gaps = [gap_awgn_ci(make_max_exponential(K)) for K in ks]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))

    oracle_dev = max(
        abs(
            math.log(math.fsum(1.0 / k for k in range(1, K + 1)))
            + math.log(max_exponential_inverse_mean(K))
            - gap
        )
        for K, gap in zip(ks, gaps)
    )
    oracle_ok = oracle_dev <= 1e-10

    # Var z -> zeta(2) and E[z] = H_K, so the exact gap ~ Var z / E[z]^2
    # decays like L_K = pi^2/(6 log^2 K). The third cumulant 2 zeta(3)
    # and H_K ~ log K + gamma_em put the next-order relative term at
    # c/log K with c = 2 gamma_em + 2 zeta(3)/zeta(2).
    law = [math.pi**2 / (6.0 * math.log(K) ** 2) for K in ks]
    deviations = [abs(L - gap) / gap for L, gap in zip(law, gaps)]
    c = 2.0 * EULER_MASCHERONI + 2.0 * zeta(3) / zeta(2)
    deviation_converges = all(b < a for a, b in zip(deviations, deviations[1:]))
    within_next_order = all(d <= c / math.log(K) for K, d in zip(ks, deviations))

    heuristic = [
        abs(multiuser_gap_asymptotic(K) - gap) / gap for K, gap in zip(ks, gaps)
    ]
    ok = decreasing and oracle_ok and deviation_converges and within_next_order
    report(
        4,
        ok,
        f"gaps decreasing={decreasing}; oracle dev {oracle_dev:.1e}; "
        f"rel dev from pi^2/(6 log^2 K) @K=2/1024 = "
        f"{deviations[0]:.3f}/{deviations[-1]:.3f} "
        f"(bound c/log K @1024 = {c / math.log(ks[-1]):.3f}); "
        f"published estimate rel dev @K=8/64/1024 = "
        f"{heuristic[2]:.3f}/{heuristic[5]:.3f}/{heuristic[-1]:.3f} (grows with K)",
    )
    assert decreasing
    assert oracle_ok
    assert deviation_converges
    assert within_next_order


@pytest.mark.parametrize("criterion_num", [5])
def test_criterion_5_frechet_user_invariance(criterion_num):
    gaps = [
        (gap_oa_ci(make_frechet(2.0, K)), gap_awgn_ci(make_frechet(2.0, K)))
        for K in (1, 4, 16, 64)
    ]
    spread_oa = max(g[0] for g in gaps) - min(g[0] for g in gaps)
    spread_awgn = max(g[1] for g in gaps) - min(g[1] for g in gaps)
    target = abs(gaps[0][1] - math.log(math.pi / 2.0))
    ok = spread_oa <= 1e-8 and spread_awgn <= 1e-8 and target <= 1e-8
    assert report(
        criterion_num,
        ok,
        f"spreads {spread_oa:.1e}/{spread_awgn:.1e}; |gap-log(pi/2)|={target:.1e}",
    )


def test_criterion_6_ordering_chain(gamma2, maxexp4, miso22):
    z_t = 1.0
    worst = math.inf
    where = None
    for dist in (gamma2, maxexp4, miso22):
        for db in np.linspace(-20.0, 40.0, 61):
            S = 10.0 ** (db / 10.0)
            ci = ci_capacity(dist, S).capacity_nats
            ctci = ctci_capacity(dist, S, z_t).capacity_nats
            ra = ra_capacity(dist, S).capacity_nats
            oa = oa_capacity(dist, S).capacity_nats
            awgn = awgn_capacity(dist, S).capacity_nats
            for label, slack in (
                ("ctci-ci", ctci - ci),
                ("ra-ctci", ra - ctci),
                ("oa-ra", oa - ra),
                ("awgn-ra", awgn - ra),
            ):
                if slack < worst:
                    worst, where = slack, (dist.name, db, label)
    ok = worst >= -1e-9
    assert report(6, ok, f"min slack {worst:.2e} ({where[2]} for {where[0]} at {where[1]:g} dB)")


def _outside(value, lo, hi):
    """How far value lies outside [lo, hi]; negative inside."""
    return max(lo - value, value - hi)


# gamma:N=2 in closed form: E[log z] = 1 - gamma, E[1/z] = 1, sf(t) = (1 + t)e^-t,
# T(t) = e^-t and E[log z; z > 1] = 1/e + E1(1); CTCI at z_t = 1 has
# D_max = 1/(F(1) + T(1)) = 1/(1 - 1/e) and E[min(z, 1)] = 2 - 3/e.
E_INV = math.exp(-1.0)
CTCI_DMAX = 1.0 / (1.0 - E_INV)


def test_criterion_7_prelog_constants(gamma2):
    # log x <= log1p(x) <= log x + 1/x: C(S) = E[log(1 + S X)] lies at most
    # E[1/X; X > 0] / S above the line P log S + E[log X; X > 0], so the
    # pre-log is P = Pr(X > 0): 1 for RA, CI and CTCI, 1 - F(z_t) for TCI
    S = 1e6
    psi2 = 1.0 - EULER_MASCHERONI
    cases = {
        "ra": (ra_capacity(gamma2, S), 1.0, psi2, 1.0),
        "ci": (ci_capacity(gamma2, S), 1.0, 0.0, 1.0),
        # X = D_max min(z, 1): E[1/X] = (E[1/z] - T(1) + sf(1)) / D_max
        "ctci": (ctci_capacity(gamma2, S, 1.0), 1.0,
                 math.log(CTCI_DMAX) + psi2 - E_INV - exp1(1.0), (1.0 + E_INV) / CTCI_DMAX),
    }
    for z_t in (0.5, 1.0, 2.0):
        # X = 1/T(z_t) = e^z_t above the cutoff
        P = (1.0 + z_t) * math.exp(-z_t)
        assert P == pytest.approx(1.0 - float(gamma2.cdf(z_t)), rel=1e-14)
        cases[f"tci@{z_t}"] = (tci_capacity(gamma2, S, z_t), P, P * z_t, P * math.exp(-z_t))
    outside = {
        name: _outside(res.capacity_nats - (P * math.log(S) + log_x), 0.0, inv_x / S)
        for name, (res, P, log_x, inv_x) in cases.items()
    }
    worst = max(outside, key=outside.get)
    ok = outside[worst] <= 1e-9
    assert report(7, ok, f"farthest outside its high-SNR bounds: {worst} by {outside[worst]:.2e} nats")


def test_criterion_8_low_snr_suite(gamma2, miso22):
    # x (1 - x/2) <= log1p(x) <= x: C(S) / S lies in [m (1 - S c / 2), m] for
    # the slope m = E[X] and X <= c. RA's X = z is capped at c = 1e3, where
    # E[min(z, c)] = 2 - (2 + c)e^-c rounds to m = 2
    S = 1e-6
    ctci_slope = (2.0 - 3.0 * E_INV) * CTCI_DMAX
    cases = {
        "awgn": (awgn_capacity(gamma2, S), Scheme.AWGN, None, 2.0, 2.0),
        "ra": (ra_capacity(gamma2, S), Scheme.RA, None, 2.0, 1e3),
        "ci": (ci_capacity(gamma2, S), Scheme.CI, None, 1.0, 1.0),
        "tci@1": (tci_capacity(gamma2, S, 1.0), Scheme.TCI, 1.0, 2.0, math.e),
        "ctci@1": (ctci_capacity(gamma2, S, 1.0), Scheme.CTCI, 1.0, ctci_slope, CTCI_DMAX),
    }
    outside = {}
    for name, (res, scheme, z_t, m, cap) in cases.items():
        assert low_snr_slope(gamma2, scheme, z_t) == pytest.approx(m, rel=1e-14)
        outside[name] = _outside(res.capacity_nats / S, m * (1.0 - 0.5 * S * cap), m)
    worst = max(outside, key=outside.get)
    slopes_ok = outside[worst] <= 1e-9

    S30 = 10.0 ** (-30.0 / 10.0)
    awgn = awgn_capacity(miso22, S30).capacity_nats
    oa_beats = oa_capacity(miso22, S30).capacity_nats > awgn
    tci_beats = tci_capacity(miso22, S30, miso22.mean).capacity_nats > awgn

    tci_slopes = [low_snr_slope(gamma2, Scheme.TCI, z) for z in (0.25, 0.5, 1.0, 2.0, 4.0)]
    tci_monotone = all(b > a for a, b in zip(tci_slopes, tci_slopes[1:]))

    ok = slopes_ok and oa_beats and tci_beats and tci_monotone
    assert report(
        8,
        ok,
        f"farthest outside its slope bounds: {worst} by {outside[worst]:.2e}; OA>AWGN={oa_beats} "
        f"TCI>AWGN={tci_beats} @-30dB; TCI slope monotone={tci_monotone}",
    )


def test_criterion_9_tci_optimization(miso22):
    ok = True
    details = []
    for name, dist in (("miso(1,4)", make_miso_multiuser(1, 4)), ("miso(2,2)", miso22)):
        z_stars = []
        for db in (0, 10, 20, 30):
            S = 10.0 ** (db / 10.0)
            solution, result = tci_optimize(dist, S)
            z_stars.append(solution.z_t)
            if db == 30:
                excess = (
                    result.capacity_nats - ci_capacity(dist, S).capacity_nats
                ) / LN2
                ok = ok and excess < 0.02
                details.append(f"{name}: TCI-CI@30dB={excess:.4f} bits")
        nonincreasing = all(b <= a * (1 + 1e-9) for a, b in zip(z_stars, z_stars[1:]))
        ok = ok and nonincreasing
        details.append(f"{name}: z* nonincr={nonincreasing}")
    assert report(9, ok, "; ".join(details))


def test_criterion_10_monte_carlo_cross_validation(gamma2, miso22):
    start = time.perf_counter()
    dists = [
        gamma2,
        make_max_exponential(2),
        make_frechet(2.0, 2),
        miso22,
        tabulated_exponential(),
    ]
    schemes = (Scheme.OA, Scheme.RA, Scheme.CI, Scheme.TCI, Scheme.CTCI)
    powers = (0.1, 1.0, 10.0, 100.0)
    value_cells = value_hits = 0
    power_cells = power_hits = 0
    for i, dist in enumerate(dists):
        z_t = min(dist.mean, 0.5 * dist.support_sup)
        for scheme in schemes:
            for j, S in enumerate(powers):
                est = mc_capacity(
                    dist, scheme, S, z_t=z_t, n_samples=10**6, seed=1000 * i + j
                )
                exact = capacity(dist, scheme, S, z_t=z_t).capacity_nats
                value_cells += 1
                if abs(est.mean_nats - exact) <= 3.0 * est.std_error + 1e-12:
                    value_hits += 1
                if scheme in (Scheme.OA, Scheme.TCI, Scheme.CTCI):
                    power_cells += 1
                    if abs(est.power_mean - 1.0) <= 3.0 * est.power_std_error + 1e-12:
                        power_hits += 1
    elapsed = time.perf_counter() - start
    ok = (
        value_hits >= 0.95 * value_cells
        and power_hits >= 0.95 * power_cells
        and elapsed < 300.0
    )
    assert report(
        10,
        ok,
        f"value {value_hits}/{value_cells}, power {power_hits}/{power_cells}, {elapsed:.0f}s",
    )


def _table_route_power(dist, z_t, d_max, scheme):
    """E[D] of TCI or CTCI at power ratio d_max, with z_t T(z_t) read as
    sf(z_t) - z_t P(z_t) from the survival table's P(z) = E[(1/z - 1/Z)+]:
    not the T and F that set d_max."""
    zP = z_t * dist.survival_table.tails(z_t)[0]
    return d_max * (float(dist.sf(z_t)) - zP if scheme is Scheme.TCI else 1.0 - zP)


def test_criterion_11_power_constraint_residuals(gamma2, maxexp4, miso22):
    # OA's residual is its cutoff solve's; TCI's and CTCI's D_max meet the
    # constraint by definition, so their E[D] is read by another route
    worst = 0.0
    z_t = 1.0
    for dist in (gamma2, maxexp4, miso22):
        for db in np.linspace(-20.0, 40.0, 13):
            S = 10.0 ** (db / 10.0)
            worst = max(worst, abs(oa_threshold(dist, S).residual))
            for scheme, fn in ((Scheme.TCI, tci_capacity), (Scheme.CTCI, ctci_capacity)):
                d_max = fn(dist, S, z_t).d_max
                worst = max(worst, abs(_table_route_power(dist, z_t, d_max, scheme) - 1.0))
    for dist in (make_miso_multiuser(1, 4), miso22):
        for db in (0, 10, 20, 30):
            solution, result = tci_optimize(dist, 10.0 ** (db / 10.0))
            power = _table_route_power(dist, solution.z_t, result.d_max, Scheme.TCI)
            worst = max(worst, abs(power - 1.0))
    ok = worst <= 1e-8
    assert report(11, ok, f"max |E[D]-1| = {worst:.2e}")
