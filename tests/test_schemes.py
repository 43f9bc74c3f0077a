"""Scheme capacities, implicit thresholds and their shared invariants."""

import math

import numpy as np
import pytest
from scipy.integrate import tanhsinh

from fadecap import schemes
from fadecap.distributions import (
    FadingDistribution,
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.schemes import (
    Scheme,
    awgn_capacity,
    capacity,
    ci_capacity,
    ctci_capacity,
    ctci_dmax,
    oa_capacity,
    oa_threshold,
    ra_capacity,
    tci_capacity,
    tci_dmax,
    tci_optimize,
)

LN2 = math.log(2.0)
OMEGA = 0.5671432904097838  # root of z e^z = 1


def spike_at(center, width=1e-3):
    z = center + width * np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    return make_tabulated(np.column_stack([z, p]))


@pytest.fixture(scope="module")
def gamma2():
    return make_gamma_diversity(2)


@pytest.fixture(scope="module")
def miso22():
    return make_miso_multiuser(2, 2)


class TestAwgn:
    def test_gamma2_unit_power(self, gamma2):
        assert awgn_capacity(gamma2, 1.0).capacity_nats == pytest.approx(math.log(3.0))

    def test_low_power_slope(self, gamma2):
        S = 1e-12
        assert awgn_capacity(gamma2, S).capacity_nats == pytest.approx(S * 2.0, rel=1e-6)

    def test_miso22(self, miso22):
        assert awgn_capacity(miso22, 1.0).capacity_nats == pytest.approx(
            math.log(3.75), abs=1e-8
        )

    def test_rejects_nonpositive_power(self, gamma2):
        with pytest.raises(ValueError):
            awgn_capacity(gamma2, 0.0)


class TestOaThreshold:
    @pytest.mark.parametrize("S", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_residual_is_tiny(self, gamma2, miso22, S):
        for d in (gamma2, miso22):
            sol = oa_threshold(d, S)
            assert abs(sol.residual) < 1e-9
            assert 0.0 < sol.z_t < 1.0 / S

    def test_closed_form_at_unit_power(self, gamma2):
        # for the two-branch gain the cutoff solves z e^z = 1
        assert oa_threshold(gamma2, 1.0).z_t == pytest.approx(OMEGA, abs=1e-10)

    def test_monotone_decreasing_in_power(self, gamma2):
        cuts = [oa_threshold(gamma2, S).z_t for S in (0.1, 1.0, 10.0, 100.0)]
        assert all(b < a for a, b in zip(cuts, cuts[1:]))

    def test_high_power_bound(self, miso22):
        assert oa_threshold(miso22, 1e6).z_t < 1e-6

    @pytest.mark.parametrize("S", [0.01, 1.0, 100.0, 1e6])
    def test_each_cutoff_is_integrated_once(self, monkeypatch, gamma2, miso22, S):
        original = schemes._oa_power_integral
        for d in (gamma2, miso22, spike_at(2.0)):
            cutoffs = []

            def counted(dist, S, z_t):
                cutoffs.append(z_t)
                return original(dist, S, z_t)

            monkeypatch.setattr(schemes, "_oa_power_integral", counted)
            sol = oa_threshold(d, S)
            assert len(set(cutoffs)) == len(cutoffs) == sol.iterations

    def test_power_times_cutoff_approaches_one(self, gamma2):
        products = [S * oa_threshold(gamma2, S).z_t for S in (1.0, 10.0, 1e3, 1e6)]
        assert all(0.0 < p <= 1.0 + 1e-12 for p in products)
        assert all(b > a for a, b in zip(products, products[1:]))
        assert products[-1] == pytest.approx(1.0, abs=1e-5)


class TestOaCapacity:
    def test_deterministic_spike_matches_awgn(self):
        d = spike_at(2.0)
        res = oa_capacity(d, 3.0)
        assert res.capacity_nats == pytest.approx(math.log(1.0 + 3.0 * 2.0), rel=1e-6)

    def test_nearly_matches_ra_at_high_power(self, miso22):
        S = 100.0  # 20 dB
        oa = oa_capacity(miso22, S).capacity_nats
        ra = ra_capacity(miso22, S).capacity_nats
        assert 0.0 <= oa - ra < 0.01 * LN2

    def test_beats_awgn_at_low_power(self, gamma2):
        S = 0.01
        assert oa_capacity(gamma2, S).capacity_nats > awgn_capacity(gamma2, S).capacity_nats


class TestRaCapacity:
    def test_spike(self):
        d = spike_at(2.0)
        assert ra_capacity(d, 3.0).capacity_nats == pytest.approx(math.log(7.0), rel=1e-6)

    def test_gamma2_closed_form(self, gamma2):
        # integration by parts collapses E[log(1+z)] for the two-branch
        # gain at unit power to exactly 1 nat
        assert ra_capacity(gamma2, 1.0).capacity_nats == pytest.approx(1.0, abs=1e-10)

    def test_low_power_linearizes(self, gamma2):
        S = 1e-9
        assert ra_capacity(gamma2, S).capacity_nats == pytest.approx(S * 2.0, rel=1e-6)

    def test_jensen_bound(self, gamma2, miso22):
        for d in (gamma2, miso22):
            for S in (0.1, 1.0, 10.0):
                assert ra_capacity(d, S).capacity_nats <= awgn_capacity(d, S).capacity_nats


class TestCiCapacity:
    def test_gamma2(self, gamma2):
        assert ci_capacity(gamma2, 1.0).capacity_nats == pytest.approx(math.log(2.0))

    def test_degenerate_when_inverse_mean_diverges(self):
        res = ci_capacity(make_gamma_diversity(1), 1.0)
        assert res.capacity_nats == 0.0
        assert res.degenerate

    def test_max_exponential_2(self):
        d = make_max_exponential(2)
        expected = math.log1p(1.0 / (2.0 * math.log(2.0)))
        assert ci_capacity(d, 1.0).capacity_nats == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.5431, abs=1e-4)


class TestTci:
    def test_dmax_closed_form(self, gamma2):
        # threshold 1: the inverse-gain tail integral is e^{-1}
        assert tci_dmax(gamma2, 1.0) == pytest.approx(math.e, rel=1e-10)

    def test_dmax_exceeds_one(self, gamma2, miso22):
        for d in (gamma2, miso22):
            for z_t in (0.1, 1.0, 3.0):
                assert tci_dmax(d, z_t) > 1.0

    def test_small_threshold_limit(self, gamma2):
        # D_max z_t -> 1/E[1/z] = 1 as the threshold vanishes
        z_t = 1e-6
        assert tci_dmax(gamma2, z_t) * z_t == pytest.approx(1.0, abs=1e-5)

    def test_spike_half_threshold(self):
        d = spike_at(2.0)
        assert tci_dmax(d, 1.0) == pytest.approx(2.0, rel=1e-6)

    def test_power_constraint_by_construction(self, miso22):
        for z_t in (0.5, 1.0, 2.0):
            d_max = tci_dmax(miso22, z_t)
            assert d_max * z_t * miso22.tail_inverse_integral(z_t) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_domain_error_beyond_support(self):
        d = spike_at(2.0)
        with pytest.raises(ValueError):
            tci_dmax(d, d.support_sup + 1.0)
        with pytest.raises(ValueError):
            tci_dmax(d, 0.0)

    def test_prelog_is_survival_probability(self, gamma2):
        z_t = 1.0
        survival = 2.0 * math.exp(-1.0)  # 1 - F(1) for the two-branch gain
        S = 1e6
        h = 1e-3
        up = tci_capacity(gamma2, S * math.exp(h), z_t).capacity_nats
        down = tci_capacity(gamma2, S * math.exp(-h), z_t).capacity_nats
        assert (up - down) / (2 * h) == pytest.approx(survival, abs=0.01)

    def test_zero_threshold_limit_is_inversion(self, gamma2):
        ci = ci_capacity(gamma2, 1.0).capacity_nats
        assert tci_capacity(gamma2, 1.0, 1e-8).capacity_nats == pytest.approx(ci, abs=1e-6)

    def test_low_power_slope_formula(self, gamma2):
        z_t = 1.0
        S = 1e-9
        slope_formula = (1.0 - gamma2.cdf(z_t)) / gamma2.tail_inverse_integral(z_t)
        got = tci_capacity(gamma2, S, z_t).capacity_nats / S
        assert got == pytest.approx(slope_formula, rel=1e-6)


@pytest.mark.parametrize("capacity_fn", [tci_capacity, ctci_capacity])
def test_truncated_capacity_integrates_the_tail_once(monkeypatch, miso22, capacity_fn):
    original = FadingDistribution.tail_inverse_integral
    points = []

    def counted(dist, t):
        points.append(t)
        return original(dist, t)

    monkeypatch.setattr(FadingDistribution, "tail_inverse_integral", counted)
    capacity_fn(miso22, 10.0, 1.0)
    assert points == [1.0]


class TestTciOptimize:
    def test_threshold_decreases_with_power(self, miso22):
        z_stars = [tci_optimize(miso22, 10.0 ** (db / 10.0))[0].z_t for db in (0, 10, 20, 30)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(z_stars, z_stars[1:]))

    def test_optimized_prelog_approaches_one(self, miso22):
        S = 1e6
        h = 1e-3

        def optimized(S_val):
            return tci_optimize(miso22, S_val)[1].capacity_nats

        prelog = (optimized(S * math.exp(h)) - optimized(S * math.exp(-h))) / (2 * h)
        assert prelog == pytest.approx(1.0, abs=0.05)

    def test_beats_fixed_thresholds(self, miso22):
        S = 10.0
        _, best = tci_optimize(miso22, S)
        for z_t in (0.5, 1.0, 2.0):
            assert best.capacity_nats >= tci_capacity(miso22, S, z_t).capacity_nats - 1e-12

    def test_against_dense_grid_scan(self, gamma2):
        S = 10.0
        solution, best = tci_optimize(gamma2, S)
        grid = np.geomspace(1e-4, 20.0, 1000)
        caps = [tci_capacity(gamma2, S, z).capacity_nats for z in grid]
        i = int(np.argmax(caps))
        assert best.capacity_nats >= caps[i] - 1e-9
        assert solution.z_t == pytest.approx(grid[i], rel=0.05)


class TestCtci:
    def test_zero_threshold_is_inversion_exactly(self, gamma2):
        res = ctci_capacity(gamma2, 1.0, 0.0)
        assert res.capacity_nats == ci_capacity(gamma2, 1.0).capacity_nats
        assert math.isinf(res.d_max)

    def test_received_snr_limit_at_small_threshold(self, gamma2):
        z_t = 1e-7
        assert ctci_dmax(gamma2, z_t) * z_t == pytest.approx(1.0, abs=1e-5)

    def test_huge_threshold_power_ratio_is_one(self, gamma2):
        z_t = 60.0  # survival < 1e-12 here
        assert ctci_dmax(gamma2, z_t) == pytest.approx(1.0, abs=1e-9)

    def test_huge_threshold_matches_rate_adaptation(self, gamma2):
        ra = ra_capacity(gamma2, 1.0).capacity_nats
        assert ctci_capacity(gamma2, 1.0, 60.0).capacity_nats == pytest.approx(ra, abs=1e-8)

    def test_power_constraint_by_construction(self, miso22):
        for z_t in (0.3, 1.0, 2.5):
            d_max = ctci_dmax(miso22, z_t)
            lhs = d_max * (
                float(miso22.cdf(z_t)) + z_t * miso22.tail_inverse_integral(z_t)
            )
            assert lhs == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_threshold(self, gamma2):
        caps = [ctci_capacity(gamma2, 1.0, z_t).capacity_nats for z_t in (0.5, 1.0, 2.0)]
        assert caps[0] <= caps[1] <= caps[2]

    def test_rejects_negative_threshold(self, gamma2):
        with pytest.raises(ValueError):
            ctci_capacity(gamma2, 1.0, -0.5)

    @pytest.mark.parametrize("z_t", [math.inf, math.nan])
    def test_rejects_non_finite_threshold(self, gamma2, z_t):
        with pytest.raises(ValueError, match="threshold"):
            ctci_capacity(gamma2, 1.0, z_t)
        with pytest.raises(ValueError, match="threshold"):
            ctci_dmax(gamma2, z_t)


@pytest.mark.parametrize("S", [math.inf, math.nan])
@pytest.mark.parametrize(
    "evaluate",
    [
        awgn_capacity,
        oa_capacity,
        ra_capacity,
        ci_capacity,
        lambda d, S: tci_capacity(d, S, 1.0),
        lambda d, S: ctci_capacity(d, S, 1.0),
        tci_optimize,
    ],
    ids=["awgn", "oa", "ra", "ci", "tci", "ctci", "tci_opt"],
)
def test_non_finite_power_rejected(gamma2, evaluate, S):
    with pytest.raises(ValueError, match="average power"):
        evaluate(gamma2, S)


def _tanhsinh(f, a, b):
    res = tanhsinh(f, a, b, atol=0.0, rtol=1e-13)
    assert res.success, (a, b)
    return float(res.integral)


def _audited_power(dist, scheme, z_t, d_max, breaks=()):
    """E[D(z)] by tanh-sinh over each piece between ``breaks`` and z_t.

    D is d_max z_t / z above the cutoff; below it, 0 for TCI and d_max
    for CTCI. The density is evaluated on arrays, and no tail functional
    of the law is used.
    """
    edges = sorted({0.0, z_t, dist.support_sup, *breaks})
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if a >= z_t:
            total += _tanhsinh(lambda z: d_max * z_t / z * dist.pdf(z), a, b)
        elif scheme is Scheme.CTCI:
            total += _tanhsinh(lambda z: d_max * dist.pdf(z), a, b)
    return total


class TestIndependentPowerAudit:
    """E[D] = 1 for the truncated schemes, integrated by another rule.

    ``power_constraint_residual`` for TCI and CTCI reuses the quadrature
    that set d_max, so it only tests rounding.
    """

    TAB_GRID = np.linspace(0.0, 8.0, 25)

    @pytest.fixture(
        scope="class",
        params=["gamma2", "miso22", "maxexp4", "gamma3x4", "tab"],
    )
    def law(self, request):
        z = self.TAB_GRID
        return {
            "gamma2": lambda: (make_gamma_diversity(2), ()),
            "miso22": lambda: (make_miso_multiuser(2, 2), ()),
            "maxexp4": lambda: (make_max_exponential(4), ()),
            "gamma3x4": lambda: (make_gamma_diversity(3).scaled(4.0), ()),
            "tab": lambda: (make_tabulated(np.column_stack([z, z * np.exp(-z)])), tuple(z)),
        }[request.param]()

    @pytest.mark.parametrize("z_t", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("scheme", [Scheme.TCI, Scheme.CTCI])
    def test_average_power_is_one(self, law, scheme, z_t):
        dist, breaks = law
        fn = tci_capacity if scheme is Scheme.TCI else ctci_capacity
        d_max = fn(dist, 1.0, z_t).d_max
        power = _audited_power(dist, scheme, z_t, d_max, breaks)
        assert power == pytest.approx(1.0, abs=1e-9), dist.name


class TestCrossSchemeInvariants:
    def test_ordering_chain(self, gamma2):
        for db in np.arange(-20.0, 41.0, 5.0):
            S = 10.0 ** (db / 10.0)
            ci = ci_capacity(gamma2, S).capacity_nats
            ctci = ctci_capacity(gamma2, S, 1.0).capacity_nats
            ra = ra_capacity(gamma2, S).capacity_nats
            oa = oa_capacity(gamma2, S).capacity_nats
            awgn = awgn_capacity(gamma2, S).capacity_nats
            assert ci <= ctci + 1e-9
            assert ctci <= ra + 1e-9
            assert ra <= oa + 1e-9
            assert ra <= awgn + 1e-9

    @pytest.mark.parametrize("c", [0.25, 4.0])
    def test_scale_power_duality(self, gamma2, c):
        scaled = gamma2.scaled(c)
        S = 2.0
        assert awgn_capacity(scaled, S).capacity_nats == pytest.approx(
            awgn_capacity(gamma2, c * S).capacity_nats, abs=1e-9
        )
        assert ra_capacity(scaled, S).capacity_nats == pytest.approx(
            ra_capacity(gamma2, c * S).capacity_nats, abs=1e-9
        )
        assert ci_capacity(scaled, S).capacity_nats == pytest.approx(
            ci_capacity(gamma2, c * S).capacity_nats, abs=1e-9
        )
        assert oa_capacity(scaled, S).capacity_nats == pytest.approx(
            oa_capacity(gamma2, c * S).capacity_nats, abs=1e-9
        )
        # thresholds live in gain units, so they rescale with the gain
        for z_t in (0.5, 2.0):
            assert tci_capacity(scaled, S, c * z_t).capacity_nats == pytest.approx(
                tci_capacity(gamma2, c * S, z_t).capacity_nats, abs=1e-9
            )
            assert ctci_capacity(scaled, S, c * z_t).capacity_nats == pytest.approx(
                ctci_capacity(gamma2, c * S, z_t).capacity_nats, abs=1e-9
            )

    def test_dispatch_helper(self, gamma2):
        assert capacity(gamma2, Scheme.RA, 1.0).scheme is Scheme.RA
        assert capacity(gamma2, "awgn", 1.0).scheme is Scheme.AWGN
        assert capacity(gamma2, Scheme.TCI, 1.0, z_t=1.0).threshold_z_t == 1.0
        with pytest.raises(ValueError):
            capacity(gamma2, Scheme.TCI, 1.0)
        with pytest.raises(ValueError):
            capacity(gamma2, Scheme.CTCI, 1.0)
