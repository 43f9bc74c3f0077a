"""Monte-Carlo oracle: reproducibility, calibration and agreement with
the quadrature capacities."""

import math

import numpy as np
import pytest

from fadecap.distributions import (
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.mc import McEstimate, mc_capacity
from fadecap.schemes import Scheme, capacity, ra_capacity


def spike_at(center, width=1e-4):
    z = center + width * np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    return make_tabulated(np.column_stack([z, p]))


@pytest.fixture(scope="module")
def gamma2():
    return make_gamma_diversity(2)


class TestReproducibility:
    def test_identical_inputs_identical_outputs(self, gamma2):
        a = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=50_000, seed=3)
        b = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=50_000, seed=3)
        assert a == b

    def test_distinct_seeds_differ(self, gamma2):
        a = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=50_000, seed=3)
        b = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=50_000, seed=4)
        assert a.mean_nats != b.mean_nats

    def test_partial_final_shard(self, gamma2):
        # n that is not a multiple of the shard size must still work
        est = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=70_001, seed=0)
        assert est.n_samples == 70_001
        assert est.std_error > 0.0

    def test_seed_spread_matches_reported_std_error(self, gamma2):
        # over 30 seeds the empirical spread of the estimates should
        # match the reported standard error within [0.7, 1.4]
        estimates = [
            mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=20_000, seed=s)
            for s in range(30)
        ]
        means = np.array([e.mean_nats for e in estimates])
        reported = np.mean([e.std_error for e in estimates])
        ratio = np.std(means, ddof=1) / reported
        assert 0.7 <= ratio <= 1.4


class TestAgainstQuadrature:
    def test_deterministic_spike_all_schemes(self):
        d = spike_at(2.0)
        S = 3.0
        expected = math.log(7.0)
        for scheme in (Scheme.OA, Scheme.RA, Scheme.CI, Scheme.TCI, Scheme.CTCI):
            est = mc_capacity(d, scheme, S, z_t=1.0, n_samples=20_000, seed=1)
            assert est.mean_nats == pytest.approx(expected, rel=1e-3), scheme
            assert est.std_error < 1e-4, scheme

    def test_ra_gamma2_three_sigma(self, gamma2):
        est = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=10**6, seed=0)
        exact = ra_capacity(gamma2, 1.0).capacity_nats
        assert abs(est.mean_nats - exact) <= 3.0 * est.std_error

    def test_oa_empirical_power_constraint(self):
        miso = make_miso_multiuser(2, 2)
        est = mc_capacity(miso, Scheme.OA, 10.0, n_samples=10**6, seed=0)
        assert abs(est.power_mean - 1.0) <= 3.0 * est.power_std_error

    @pytest.mark.parametrize("scheme", [Scheme.TCI, Scheme.CTCI])
    def test_truncated_schemes_three_sigma(self, gamma2, scheme):
        z_t = 1.0
        est = mc_capacity(gamma2, scheme, 2.0, z_t=z_t, n_samples=400_000, seed=5)
        exact = capacity(gamma2, scheme, 2.0, z_t=z_t).capacity_nats
        assert abs(est.mean_nats - exact) <= 3.0 * est.std_error + 1e-12
        assert abs(est.power_mean - 1.0) <= 3.0 * est.power_std_error + 1e-12

    def test_ci_constant_rate(self, gamma2):
        est = mc_capacity(gamma2, Scheme.CI, 1.0, n_samples=10_000, seed=2)
        assert est.mean_nats == pytest.approx(math.log(2.0), abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-15)
        # power still fluctuates sample to sample
        assert est.power_std_error > 0.0

    def test_max_exponential_sampler_path(self):
        d = make_max_exponential(4)
        est = mc_capacity(d, Scheme.RA, 5.0, n_samples=400_000, seed=9)
        exact = ra_capacity(d, 5.0).capacity_nats
        assert abs(est.mean_nats - exact) <= 3.0 * est.std_error


class TestDegenerateAndErrors:
    def test_ci_degenerate_estimate(self):
        d = make_gamma_diversity(1)
        est = mc_capacity(d, Scheme.CI, 1.0, n_samples=1000, seed=0)
        assert est == McEstimate(0.0, 0.0, 1000, 0, 0.0, 0.0, degenerate=True)

    def test_ctci_zero_threshold_is_inversion(self, gamma2):
        est = mc_capacity(gamma2, Scheme.CTCI, 1.0, z_t=0.0, n_samples=1000, seed=0)
        assert est.mean_nats == pytest.approx(math.log(2.0), abs=1e-12)

    def test_awgn_rejected(self, gamma2):
        with pytest.raises(ValueError):
            mc_capacity(gamma2, Scheme.AWGN, 1.0, n_samples=100)

    def test_missing_threshold_rejected(self, gamma2):
        with pytest.raises(ValueError):
            mc_capacity(gamma2, Scheme.TCI, 1.0, n_samples=100)

    def test_bad_power_rejected(self, gamma2):
        with pytest.raises(ValueError):
            mc_capacity(gamma2, Scheme.RA, -1.0, n_samples=100)

    @pytest.mark.parametrize("S", [math.inf, math.nan])
    def test_non_finite_power_rejected(self, gamma2, S):
        with pytest.raises(ValueError, match="average power"):
            mc_capacity(gamma2, Scheme.RA, S, n_samples=100)
