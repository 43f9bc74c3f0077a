"""High-SNR gaps, pre-log constants and low-SNR slopes."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import digamma

from fadecap.asymptotics import (
    gap_awgn_ci,
    gap_awgn_oa,
    gap_oa_ci,
    gap_report,
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
from fadecap.numerics import EULER_MASCHERONI, integrate_semi_infinite
from fadecap.schemes import (
    Scheme,
    awgn_capacity,
    ci_capacity,
    ctci_capacity,
    oa_capacity,
    tci_capacity,
    tci_dmax,
)
from fadecap.verify import check_prelogs

LN2 = math.log(2.0)


def narrow_spike(center=2.0, width=1e-4):
    z = center + width * np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    return make_tabulated(np.column_stack([z, p]))


@pytest.fixture(scope="module")
def gamma2():
    return make_gamma_diversity(2)


@pytest.fixture(scope="module")
def miso22():
    return make_miso_multiuser(2, 2)


class TestGapAwgnOa:
    def test_deterministic_gain_has_no_gap(self):
        assert gap_awgn_oa(narrow_spike()) == pytest.approx(0.0, abs=1e-8)

    def test_gamma2_closed_form(self, gamma2):
        expected = math.log(2.0) - digamma(2.0)
        assert gap_awgn_oa(gamma2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2703628, abs=1e-7)

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    def test_scale_invariance_of_all_gaps(self, gamma2, c):
        scaled = gamma2.scaled(c)
        assert gap_awgn_oa(scaled) == pytest.approx(gap_awgn_oa(gamma2), abs=1e-10)
        assert gap_oa_ci(scaled) == pytest.approx(gap_oa_ci(gamma2), abs=1e-10)
        assert gap_awgn_ci(scaled) == pytest.approx(gap_awgn_ci(gamma2), abs=1e-10)

    def test_infinite_mean_flagged(self):
        assert math.isinf(gap_awgn_oa(make_frechet(0.9)))


class TestGapOaCi:
    def test_miso22_reference_value(self, miso22):
        assert gap_oa_ci(miso22) / LN2 == pytest.approx(0.24928, abs=5e-4)

    def test_gamma_closed_form_vs_quadrature(self):
        for N in (2, 3, 5):
            d = make_gamma_diversity(N)
            closed = digamma(N) - math.log(N - 1)
            assert gap_oa_ci(d) == pytest.approx(closed, abs=1e-12)
            quad_log = integrate_semi_infinite(
                lambda z: math.log(z) * d.pdf(z), 0.0, d.quad_knots
            ).value
            quad_inv = integrate_semi_infinite(
                lambda z: d.pdf(z) / z, 0.0, d.quad_knots
            ).value
            assert quad_log + math.log(quad_inv) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("K", [1, 4, 16])
    def test_frechet_user_count_invariance(self, K):
        d = make_frechet(2.0, K)
        expected = EULER_MASCHERONI / 2.0 + math.log(math.sqrt(math.pi) / 2.0)
        assert gap_oa_ci(d) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1678256, abs=1e-6)

    def test_degenerate_inversion_gives_infinite_gap(self):
        assert math.isinf(gap_oa_ci(make_gamma_diversity(1)))


class TestGapAwgnCi:
    def test_miso22_reference_value(self, miso22):
        assert gap_awgn_ci(miso22) / LN2 == pytest.approx(0.45943, abs=5e-4)

    def test_gamma2_is_exactly_one_bit(self, gamma2):
        assert gap_awgn_ci(gamma2) / LN2 == pytest.approx(1.0, abs=1e-10)

    def test_frechet_log_pi_over_two(self):
        for K in (1, 64):
            assert gap_awgn_ci(make_frechet(2.0, K)) == pytest.approx(
                math.log(math.pi / 2.0), abs=1e-12
            )

    def test_additivity(self, gamma2, miso22):
        for d in (gamma2, miso22, make_max_exponential(4)):
            assert gap_awgn_oa(d) + gap_oa_ci(d) == pytest.approx(
                gap_awgn_ci(d), abs=1e-10
            )

    def test_report_bundle(self, miso22):
        rep = gap_report(miso22)
        assert rep.gap_oa_ra == 0.0
        assert rep.gap_awgn_oa + rep.gap_oa_ci == pytest.approx(rep.gap_awgn_ci, abs=1e-10)

    def test_finite_snr_difference_converges(self, miso22):
        gap = gap_oa_ci(miso22)
        devs = []
        for S in (10.0, 100.0, 1e3, 1e4):
            diff = (
                oa_capacity(miso22, S).capacity_nats
                - ci_capacity(miso22, S).capacity_nats
            )
            devs.append(abs(diff - gap))
        # decreasing until the deviation sinks under the integration
        # noise floor (the true 1/S^2 decay passes 1e-13 before S=1e4)
        noise_floor = 1e-9
        assert all(b < a or b < noise_floor for a, b in zip(devs, devs[1:]))
        assert devs[-1] < noise_floor


class TestDiversityScaling:
    def test_gamma_gap_strictly_decreasing_to_zero(self):
        gaps = [gap_oa_ci(make_gamma_diversity(N)) for N in (2, 4, 8, 16, 32, 64)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_space_diversity_closed_forms(self):
        g = space_diversity_gaps(2)
        assert g.gap_oa_ci == pytest.approx(digamma(2.0), abs=1e-12)  # log(1) = 0
        assert g.gap_awgn_ci == pytest.approx(math.log(2.0), abs=1e-12)
        assert g.expansion_oa_ci == 0.5
        assert g.expansion_awgn_ci == 1.0

    @pytest.mark.parametrize("N", [2, 3, 10, 64, 10**3, 10**6, 10**8])
    def test_space_diversity_oa_ci_gap_matches_30_digit_oracle(self, N):
        # psi(N) - log(N - 1) formed as a difference cancels: scipy's digamma
        # minus log(N - 1) is 5.4e-14 off at N = 64, 9.7e-13 at 1e3, 9.7e-10
        # at 1e6 and 7.4e-8 at 1e8. Worst measured here: 2.4e-16
        with mpmath.workdps(30):
            exact = mpmath.digamma(N) - mpmath.log(N - 1)
            assert abs(space_diversity_gaps(N).gap_oa_ci - exact) <= 2e-15 * exact

    def test_large_n_expansion_remainder(self):
        g = space_diversity_gaps(100)
        assert abs(g.gap_oa_ci - 1.0 / (2.0 * 99.0)) <= 2.0 / 99.0**2

    def test_ratio_approaches_half(self):
        g = space_diversity_gaps(1000)
        assert g.gap_oa_ci / g.gap_awgn_ci == pytest.approx(0.5, abs=0.01)

    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError):
            space_diversity_gaps(1)

    def test_users_close_gap_slower_than_antennas(self):
        for n in (4, 8, 16):
            users = gap_awgn_ci(make_max_exponential(n))
            antennas = space_diversity_gaps(n).gap_awgn_ci
            assert users > antennas


class TestMultiuserAsymptotic:
    def test_k2_value(self):
        expected = math.log1p(EULER_MASCHERONI / math.log(2.0))
        assert multiuser_gap_asymptotic(2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6058, abs=1e-4)

    def test_monotone_decreasing(self):
        vals = [multiuser_gap_asymptotic(2**j) for j in range(1, 11)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_single_user(self):
        with pytest.raises(ValueError):
            multiuser_gap_asymptotic(1)

    def test_estimate_overshoots_exact_gap_at_large_k(self):
        # The formula is only a heuristic for the exact gap: the exact
        # product E[z] E[1/z] - 1 decays like pi^2/(6 log^2 K), so the
        # measured relative deviation grows with K rather than closing.
        devs = []
        for K in (8, 64, 512):
            exact = gap_awgn_ci(make_max_exponential(K))
            estimate = multiuser_gap_asymptotic(K)
            devs.append(abs(estimate - exact) / exact)
        assert all(b > a for a, b in zip(devs, devs[1:]))
        assert devs[-1] > 1.0


@pytest.mark.parametrize("gap_fn", [space_diversity_gaps, multiuser_gap_asymptotic])
class TestGapHelperCounts:
    @pytest.mark.parametrize("count", [math.inf, math.nan, None, True, 2.5])
    def test_rejects_a_count_that_is_not_an_integer(self, gap_fn, count):
        with pytest.raises(ValueError, match="must be an integer >= 2"):
            gap_fn(count)

    def test_accepts_an_integral_float(self, gap_fn):
        assert gap_fn(2.0) == gap_fn(2)


class TestPrelog:
    """C(S) = E[log(1 + S X)] and log x <= log1p(x) <= log x + 1/x put C at
    most E[1/X; X > 0] / S above the line P log S + E[log X; X > 0], with
    pre-log P = Pr(X > 0)."""

    S = 1e6

    def test_awgn(self, gamma2):
        # X = E[z] = 2
        excess = awgn_capacity(gamma2, self.S).capacity_nats - math.log(2.0 * self.S)
        assert 0.0 <= excess <= 0.5 / self.S

    def test_outage_free_schemes(self, miso22):
        results = {r.name: r for r in check_prelogs(miso22)}
        for name in ("prelog_ra", "prelog_ci", "prelog_ctci"):
            assert results[name].passed, results[name]

    def test_truncated_inversion(self, gamma2):
        # X = 1/T(z_t) = e^z_t above the cutoff, with P = sf(z_t) = (1 + z_t) e^-z_t
        for z_t in (0.5, 1.0, 2.0):
            P = (1.0 + z_t) * math.exp(-z_t)
            assert P == pytest.approx(1.0 - float(gamma2.cdf(z_t)), rel=1e-14)
            excess = tci_capacity(gamma2, self.S, z_t).capacity_nats - P * (math.log(self.S) + z_t)
            assert -1e-12 <= excess <= P * math.exp(-z_t) / self.S + 1e-12


class TestLowSnrSlopes:
    def test_gamma2_analytic_values(self, gamma2):
        assert low_snr_slope(gamma2, Scheme.CI) == pytest.approx(1.0, abs=1e-12)
        assert low_snr_slope(gamma2, Scheme.RA) == pytest.approx(2.0, abs=1e-12)
        assert math.isinf(low_snr_slope(gamma2, Scheme.OA))

    def test_ordering_chain(self, gamma2):
        ci = low_snr_slope(gamma2, Scheme.CI)
        ra = low_snr_slope(gamma2, Scheme.RA)
        for z_t in (0.5, 1.0, 2.0):
            ctci = low_snr_slope(gamma2, Scheme.CTCI, z_t)
            assert ci <= ctci + 1e-12
            assert ctci <= ra + 1e-12

    def test_ctci_slope_at_infinite_threshold_is_the_mean(self, gamma2):
        # an infinite CTCI threshold is constant power: the slope of RA
        assert low_snr_slope(gamma2, Scheme.CTCI, math.inf) == gamma2.mean

    def test_tci_slope_at_mean_dominates_awgn(self, gamma2):
        slope = low_snr_slope(gamma2, Scheme.TCI, gamma2.mean)
        assert slope >= gamma2.mean

    def test_tci_slope_monotone_in_threshold(self, gamma2):
        slopes = [low_snr_slope(gamma2, Scheme.TCI, z) for z in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    @pytest.mark.parametrize("law, z_t", [("tab", 10.0), ("tab", 12.0), ("gamma2", 800.0)])
    def test_tci_slope_without_surviving_mass_raises_like_dmax(self, gamma2, law, z_t):
        z = np.linspace(0.0, 10.0, 11)
        tab = make_tabulated(np.column_stack([z, z * np.exp(-z / 3.0)]))
        dist = tab if law == "tab" else gamma2
        with pytest.raises(ValueError) as expected:
            tci_dmax(dist, z_t)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            low_snr_slope(dist, Scheme.TCI, z_t)

    def test_tci_slope_at_zero_threshold_is_ci(self, gamma2):
        ci = low_snr_slope(gamma2, Scheme.CI)
        assert low_snr_slope(gamma2, Scheme.TCI, 0.0) == pytest.approx(ci, abs=1e-12)

    def test_report_listing(self, gamma2):
        assert low_snr_slope(gamma2, Scheme.AWGN) == 2.0
        assert low_snr_slope(gamma2, Scheme.TCI, 1.0) == pytest.approx(2.0, rel=1e-10)

    @pytest.mark.parametrize("z_t", [-1.0, math.nan])
    def test_ctci_slope_at_an_invalid_threshold_raises_like_capacity(self, gamma2, z_t):
        with pytest.raises(ValueError) as expected:
            ctci_capacity(gamma2, 1.0, z_t)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            low_snr_slope(gamma2, Scheme.CTCI, z_t)

    # x (1 - x/2) <= log1p(x) <= x bounds C(S) / S by m (1 - S m / 2) and
    # the slope m, for a constant X = m
    def test_numeric_awgn(self, gamma2):
        S = 1e-6
        got = awgn_capacity(gamma2, S).capacity_nats / S
        assert 2.0 * (1.0 - S) <= got <= 2.0

    def test_numeric_ci(self, gamma2):
        S = 1e-6
        got = ci_capacity(gamma2, S).capacity_nats / S
        assert 1.0 - 0.5 * S <= got <= 1.0

    def test_oa_slope_grows_without_bound(self, gamma2):
        slopes = [
            oa_capacity(gamma2, S).capacity_nats / S for S in (1e-2, 1e-3, 1e-4)
        ]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
