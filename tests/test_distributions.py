"""Gain-law factories: closed-form moments, quadrature cross-checks,
samplers and the tabulated/CSV path."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from fadecap.distributions import (
    DistributionSpec,
    FadingDistribution,
    _validate,
    load_tabulated_csv,
    make_frechet,
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.numerics import EULER_MASCHERONI, digamma, integrate_semi_infinite

GAMMA_EM = EULER_MASCHERONI


def spike_grid(center=3.0, width=0.02):
    z = center + width * np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    return np.column_stack([z, p])


def exp_grid(top=40.0, n=400):
    z = np.linspace(0.0, top, n)
    return np.column_stack([z, np.exp(-z)])


@pytest.fixture(scope="module")
def builtin_dists():
    return [
        make_gamma_diversity(2),
        make_max_exponential(2),
        make_max_exponential(4),
        make_frechet(2.0, 2),
        make_miso_multiuser(2, 2),
    ]


class TestGammaDiversity:
    def test_moments_n2(self):
        d = make_gamma_diversity(2)
        assert d.mean == 2.0
        assert d.inverse_mean == pytest.approx(1.0, abs=1e-12)
        assert d.log_mean == pytest.approx(digamma(2.0), abs=1e-12)
        assert d.log_mean == pytest.approx(1.0 - GAMMA_EM, abs=1e-9)
        assert d.diversity_order == 2.0
        assert math.isinf(d.support_sup)

    def test_n1_inversion_degenerate(self):
        d = make_gamma_diversity(1)
        assert math.isinf(d.inverse_mean)
        assert not d.inverse_mean_finite

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            make_gamma_diversity(0)
        with pytest.raises(ValueError):
            make_gamma_diversity(2.5)

    def test_pdf_stable_for_large_n(self):
        d = make_gamma_diversity(64)
        assert d.pdf(64.0) > 0.0
        assert d.pdf(500.0) == pytest.approx(0.0, abs=1e-100)
        assert np.isfinite(d.pdf(np.array([1e-3, 64.0, 300.0]))).all()


class TestMaxExponential:
    def test_harmonic_mean(self):
        assert make_max_exponential(2).mean == pytest.approx(1.5, abs=1e-12)
        assert make_max_exponential(4).mean == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_frullani_inverse_mean_k2(self):
        d = make_max_exponential(2)
        assert d.inverse_mean == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        # quadrature agrees with the closed form
        quad = integrate_semi_infinite(lambda z: d.pdf(z) / z, 0.0, 1e-12, d.quad_knots)
        assert quad.value == pytest.approx(d.inverse_mean, rel=1e-10)

    def test_k1_is_plain_exponential(self):
        d = make_max_exponential(1)
        assert math.isinf(d.inverse_mean)
        assert d.log_mean == pytest.approx(-GAMMA_EM, abs=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            make_max_exponential(0)

    def test_no_cancellation_near_zero(self):
        # 1 - e^(-z) formed from exp(-z) is 0 below z = 1.1e-16 and loses
        # digits well above it
        with mpmath.workdps(40):
            exact = float((-mpmath.expm1(-mpmath.mpf("1e-12"))) ** 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_max_exponential(1).pdf(1e-20) == pytest.approx(1.0, rel=1e-15)
            assert make_max_exponential(4).cdf(1e-12) == pytest.approx(exact, rel=1e-12)


class TestFrechet:
    def test_inverse_mean_alpha2(self):
        d = make_frechet(2.0, 1)
        assert d.inverse_mean == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
        quad = integrate_semi_infinite(lambda z: d.pdf(z) / z, 0.0, 1e-12, d.quad_knots)
        assert quad.value == pytest.approx(d.inverse_mean, rel=1e-9)

    def test_log_mean_alpha2(self):
        d = make_frechet(2.0, 1)
        assert d.log_mean == pytest.approx(GAMMA_EM / 2.0, abs=1e-12)
        quad = integrate_semi_infinite(
            lambda z: math.log(z) * d.pdf(z), 0.0, 1e-12, d.quad_knots
        )
        assert quad.value == pytest.approx(d.log_mean, rel=1e-9)

    @pytest.mark.parametrize("K", [1, 4, 16])
    def test_mean_inverse_product_is_user_count_invariant(self, K):
        d = make_frechet(2.0, K)
        assert math.log(d.mean * d.inverse_mean) == pytest.approx(
            math.log(math.pi / 2.0), abs=1e-12
        )

    def test_heavy_tail_has_infinite_mean(self):
        d = make_frechet(0.8)
        assert math.isinf(d.mean)
        assert not d.mean_finite
        assert d.inverse_mean_finite  # E[1/z] always converges

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            make_frechet(0.0)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            make_frechet(alpha)


class TestMisoMultiuser:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_single_user_reduces_to_gamma(self, z):
        assert make_miso_multiuser(2, 1).pdf(z) == pytest.approx(
            make_gamma_diversity(2).pdf(z), rel=1e-12
        )

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_single_antenna_reduces_to_max_exponential(self, z):
        assert make_miso_multiuser(1, 2).cdf(z) == pytest.approx(
            make_max_exponential(2).cdf(z), rel=1e-12
        )

    def test_mean_2_2(self):
        assert make_miso_multiuser(2, 2).mean == pytest.approx(2.75, abs=1e-9)

    def test_inversion_feasible_iff_some_diversity(self):
        assert not make_miso_multiuser(1, 1).inverse_mean_finite
        assert make_miso_multiuser(2, 1).inverse_mean_finite
        assert make_miso_multiuser(1, 2).inverse_mean_finite

    def test_diversity_order(self):
        assert make_miso_multiuser(3, 4).diversity_order == 12.0


class TestTabulated:
    def test_exponential_grid_mean(self):
        d = make_tabulated(exp_grid())
        assert d.mean == pytest.approx(1.0, abs=1e-3)
        assert d.log_mean == pytest.approx(-GAMMA_EM, abs=2e-3)
        # density does not vanish at the origin, so E[1/z] diverges
        assert math.isinf(d.inverse_mean)
        assert d.support_sup == 40.0

    def test_diversity_estimate_near_one(self):
        d = make_tabulated(exp_grid(top=20.0, n=2000))
        assert 0.9 < d.diversity_order < 1.1

    def test_spike_behaves_deterministically(self):
        d = make_tabulated(spike_grid(center=3.0))
        assert d.mean == pytest.approx(3.0, abs=1e-6)
        assert d.inverse_mean == pytest.approx(1.0 / 3.0, rel=1e-4)

    def test_rejects_non_increasing(self):
        grid = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            make_tabulated(grid)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            make_tabulated(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative_density(self):
        grid = np.array([[0.0, 1.0], [1.0, -0.1], [2.0, 0.5], [3.0, 0.0]])
        with pytest.raises(ValueError):
            make_tabulated(grid)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "law.csv"
        rows = ["z,pdf"] + [f"{z},{p}" for z, p in exp_grid(n=50)]
        path.write_text("\n".join(rows), encoding="utf-8")
        grid = load_tabulated_csv(path)
        d = make_tabulated(grid)
        assert d.mean == pytest.approx(1.0, abs=5e-2)

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "law.csv"
        rows = [f"{z},{p}" for z, p in exp_grid(n=50)]
        path.write_text("\n".join(rows), encoding="utf-8")
        assert load_tabulated_csv(path).shape == (50, 2)

    def test_corrupt_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,pdf\n1,2\nnot,numbers,here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_tabulated_csv(path)


class TestSharedInvariants:
    def test_pdf_matches_cdf_increments(self, builtin_dists):
        rng = np.random.default_rng(7)
        for d in builtin_dists:
            for _ in range(5):
                a, b = np.sort(rng.uniform(0.05, 6.0, size=2))
                if b - a < 1e-3:
                    continue
                mass = d.expect(lo=a, hi=b, rel_tol=1e-12)
                increment = float(d.cdf(b) - d.cdf(a))
                assert mass == pytest.approx(increment, abs=1e-8), d.name

    def test_closed_moments_match_quadrature(self, builtin_dists):
        for d in builtin_dists:
            if d.mean_finite:
                assert d.expect(lambda z: z) == pytest.approx(
                    d.mean, rel=1e-8
                ), d.name
            if d.inverse_mean_finite:
                assert d.expect(lambda z: 1.0 / z) == pytest.approx(
                    d.inverse_mean, rel=1e-8
                ), d.name

    def test_tail_and_head_limits(self, builtin_dists):
        for d in builtin_dists:
            if d.inverse_mean_finite:
                assert d.tail_inverse_integral(0.0) == pytest.approx(
                    d.inverse_mean, rel=1e-9
                ), d.name
            if d.mean_finite:
                # head up to the surrogate plus the remaining tail must
                # recover the mean; for light tails the tail term is ~0,
                # for the z^-3 law it is still a few permille at 700
                tail = d.expect(lambda z: z, lo=700.0)
                assert d.head_mean(700.0) + tail == pytest.approx(
                    d.mean, rel=1e-9
                ), d.name

    def test_cdf_starts_at_zero(self, builtin_dists):
        for d in builtin_dists:
            assert float(d.cdf(0.0)) == pytest.approx(0.0, abs=1e-12)
            assert float(d.cdf(-1.0)) == 0.0

    def test_sampler_matches_cdf(self, builtin_dists):
        # Kolmogorov-Smirnov band of 3.9e-3 at one million draws
        n = 10**6
        for i, d in enumerate(builtin_dists):
            rng = np.random.default_rng(100 + i)
            z = np.sort(d.sample(rng, n))
            cdf = np.asarray(d.cdf(z))
            empirical_hi = np.arange(1, n + 1) / n
            empirical_lo = np.arange(0, n) / n
            ks = max(
                float(np.max(empirical_hi - cdf)), float(np.max(cdf - empirical_lo))
            )
            assert ks <= 3.9e-3, f"{d.name}: KS={ks:.2e}"

    def test_tabulated_sampler_matches_cdf(self):
        d = make_tabulated(exp_grid(top=20.0, n=200))
        rng = np.random.default_rng(11)
        n = 10**6
        z = np.sort(d.sample(rng, n))
        cdf = np.asarray(d.cdf(z))
        ks = max(
            float(np.max(np.arange(1, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(0, n) / n)),
        )
        assert ks <= 3.9e-3

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_scale_transform_identities(self, c):
        for d in (make_gamma_diversity(2), make_max_exponential(4)):
            s = d.scaled(c)
            assert s.mean == pytest.approx(c * d.mean, rel=1e-10)
            assert s.inverse_mean == pytest.approx(d.inverse_mean / c, rel=1e-10)
            assert s.log_mean == pytest.approx(d.log_mean + math.log(c), abs=1e-10)
            assert s.diversity_order == d.diversity_order
            z = 1.3 * c
            assert s.cdf(z) == pytest.approx(d.cdf(1.3), rel=1e-12)
            assert s.pdf(z) * c == pytest.approx(d.pdf(1.3), rel=1e-12)

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -2.0])
    def test_scale_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="scale"):
            make_gamma_diversity(2).scaled(c)

    def test_validation_rejects_nan_mass_and_mean(self):
        def law(expect_impl):
            return FadingDistribution(
                name="nan-law", pdf=None, cdf=lambda z: 0.0, mean=1.0,
                inverse_mean=1.0, log_mean=0.0, support_sup=1.0,
                diversity_order=1.0, expect_impl=expect_impl,
            )

        with pytest.raises(ValueError, match="mass"):
            _validate(law(lambda integrand, lo, hi: math.nan))
        with pytest.raises(ValueError, match="mean"):
            _validate(law(lambda integrand, lo, hi: 1.0 if integrand is None else math.nan))

    def test_scaled_sampler_and_draws(self):
        d = make_gamma_diversity(2)
        s = d.scaled(5.0)
        r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
        assert s.sample(r1, 10) == pytest.approx(5.0 * d.sample(r2, 10))


class TestDistributionSpec:
    def test_build_each_kind(self):
        assert DistributionSpec("gamma_diversity", {"N": 2}).build().mean == 2.0
        assert DistributionSpec("max_exponential", {"K": 2}).build().mean == 1.5
        assert DistributionSpec("frechet", {"alpha": 2.0}).build().inverse_mean_finite
        assert DistributionSpec("miso_multiuser", {"N": 2, "K": 2}).build().mean == pytest.approx(2.75, abs=1e-9)
        assert DistributionSpec("tabulated", {}, grid=spike_grid()).build().mean == pytest.approx(3.0, abs=1e-6)

    def test_scale_parameter(self):
        d = DistributionSpec("gamma_diversity", {"N": 2, "scale": 3.0}).build()
        assert d.mean == pytest.approx(6.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DistributionSpec("weibull", {"k": 1.0}).build()

    def test_infinite_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            DistributionSpec("gamma_diversity", {"N": 2, "scale": math.inf}).build()

    def test_unused_parameter_rejected(self):
        with pytest.raises(ValueError):
            DistributionSpec("gamma_diversity", {"N": 2, "K": 3}).build()


# Scalar arguments take a direct path through _as_float_or_array; an
# array argument takes the masked array path. Both must give one law.
AGREEMENT_POINTS = np.concatenate((
    [-1.0, 0.0, 5e-324, 1e-300, 1e-20, 1e-8],
    np.geomspace(1e-6, 80.0, 2000),
    [700.0, math.nan],
))


def agreement_laws():
    grid = np.linspace(0.0, 8.0, 25)
    return [
        make_gamma_diversity(1),
        make_gamma_diversity(2),
        make_max_exponential(1),
        make_max_exponential(4),
        make_frechet(2.0, 4),
        make_frechet(0.8),
        make_miso_multiuser(1, 1),
        make_miso_multiuser(2, 2),
        make_miso_multiuser(3, 1),
        make_gamma_diversity(3).scaled(4.0),
        make_tabulated(np.column_stack([grid, grid * np.exp(-grid)])),
    ]


@pytest.mark.parametrize("law", agreement_laws(), ids=lambda d: d.name)
@pytest.mark.parametrize("fn", ["pdf", "cdf"])
def test_scalar_path_matches_array_path(law, fn):
    # 1e-12 relative: Frechet's exp(-K z^-alpha) turns a 1-ulp difference
    # in z^-alpha into ~1e-13; the other laws agree to a few ulps
    f = getattr(law, fn)
    batch = f(AGREEMENT_POINTS)
    assert batch.shape == AGREEMENT_POINTS.shape
    for z, expected in zip(AGREEMENT_POINTS, batch):
        got = f(float(z))
        assert isinstance(got, float), (z, type(got))
        assert math.isfinite(got) == math.isfinite(expected), (z, got, expected)
        if math.isfinite(expected):
            assert abs(got - expected) <= 1e-12 * abs(expected), (z, got, expected)
