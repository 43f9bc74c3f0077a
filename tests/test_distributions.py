"""Gain-law factories: closed-form moments, quadrature cross-checks,
samplers and the tabulated/CSV path."""

import dataclasses
import math
import sys
import warnings
from functools import cache, partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma

from fadecap import distributions, numerics
from fadecap.distributions import (
    DistributionSpec,
    FadingDistribution,
    _digamma,
    _exp1,
    _IncompleteGamma,
    _validate,
    load_tabulated_csv,
    make_frechet,
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.numerics import EULER_MASCHERONI, SurvivalTable, integrate_semi_infinite
from fadecap.schemes import Scheme, _default_threshold_bracket, capacity

import oracles  # perfbench/oracles.py; pyproject.toml puts perfbench/ on the path
import workloads

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
    def test_tail_inverse_integral_from_zero_diverges_at_n1(self):
        assert make_gamma_diversity(1).tail_inverse_integral(0.0) == math.inf

    def test_moments_n2(self):
        d = make_gamma_diversity(2)
        assert d.mean == 2.0
        assert d.inverse_mean == pytest.approx(1.0, abs=1e-12)
        assert d.log_mean == pytest.approx(digamma(2.0), abs=1e-12)
        assert d.log_mean == pytest.approx(1.0 - GAMMA_EM, abs=1e-9)
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

    @pytest.mark.parametrize("N", [True, math.inf, math.nan, None])
    def test_rejects_non_integer_n_with_value_error(self, N):
        with pytest.raises(ValueError, match="N must be an integer"):
            make_gamma_diversity(N)

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
        quad = integrate_semi_infinite(lambda z: d.pdf(z) / z, 0.0, d.quad_knots)
        assert quad.value == pytest.approx(d.inverse_mean, rel=1e-10)

    def test_k1_is_plain_exponential(self):
        d = make_max_exponential(1)
        assert math.isinf(d.inverse_mean)
        assert d.log_mean == pytest.approx(-GAMMA_EM, abs=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            make_max_exponential(0)

    def test_sample_without_size_is_a_float(self):
        z = make_max_exponential(4).sample(np.random.default_rng(5))
        assert type(z) is float and z > 0.0

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
        quad = integrate_semi_infinite(lambda z: d.pdf(z) / z, 0.0, d.quad_knots)
        assert quad.value == pytest.approx(d.inverse_mean, rel=1e-9)

    def test_log_mean_alpha2(self):
        d = make_frechet(2.0, 1)
        assert d.log_mean == pytest.approx(GAMMA_EM / 2.0, abs=1e-12)
        quad = integrate_semi_infinite(
            lambda z: math.log(z) * d.pdf(z), 0.0, d.quad_knots
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

    @pytest.mark.parametrize("alpha", [1.01, 1.05, 1.1, 1.2])
    def test_builds_with_alpha_just_above_one(self, alpha):
        # sf decays like K z^-alpha, so most of the mean lies past the
        # survival table's top; the mean check adds that part in closed form
        for K in (1, 3):
            law = make_frechet(alpha, K)
            assert law.mean == pytest.approx(K ** (1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha))

    def test_every_law_on_an_alpha_grid_builds(self):
        # 15 geometric alphas from 0.1 to 10 by K; the heaviest tails span
        # some 500 units of log z. Worst measured mass error: 2.8e-15
        for alpha in np.geomspace(0.1, 10.0, 15):
            for K in (1, 2, 3, 4, 8, 16):
                law = make_frechet(float(alpha), K)
                assert law.survival_table.mass == pytest.approx(1.0, abs=1e-14), law.name

    def test_mean_past_the_table_top_is_added_in_closed_form(self):
        # the table of frechet(1.01, 8) stops where sf is spent in u, near
        # z = 5e20, and leaves K top^(1 - alpha)/(alpha - 1), some 60% of
        # the mean, past it
        alpha, K = 1.01, 8
        law = make_frechet(alpha, K)
        table = law.survival_table
        top = math.exp(table.u_edges[-1])
        rest = K * top ** (1.0 - alpha) / (alpha - 1.0)
        assert rest > 0.5 * law.mean
        assert table.sf_integral() + rest == pytest.approx(law.mean, rel=1e-14)

    @pytest.mark.parametrize("alpha, K", [(2.0, 4), (1.01, 8), (0.3, 16)])
    def test_checks_reject_a_wrong_density_and_a_wrong_mean(self, alpha, K):
        # the piece between the second and third knots holds 15% to 57% of
        # the mass on these laws, so the density misses it by over 1e-9
        law = make_frechet(alpha, K)
        a, b = law.quad_knots[1:3]

        def off_on_one_piece(z):
            z = np.asarray(z, dtype=float)
            return law.pdf(z) * np.where((a <= z) & (z < b), 1.0 + 1e-8, 1.0)

        with pytest.raises(ValueError, match="mass"):
            _validate(dataclasses.replace(law, pdf=off_on_one_piece))
        if law.mean_finite:
            with pytest.raises(ValueError, match="mean"):
                _validate(dataclasses.replace(law, mean=law.mean * (1.0 + 1e-7)))

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


class TestTabulated:
    def test_exponential_grid_mean(self):
        d = make_tabulated(exp_grid())
        assert d.mean == pytest.approx(1.0, abs=1e-3)
        assert d.log_mean == pytest.approx(-GAMMA_EM, abs=2e-3)
        # density does not vanish at the origin, so E[1/z] diverges
        assert math.isinf(d.inverse_mean)
        assert d.support_sup == 40.0

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


def gamma_shape_grid(lo):
    z = np.linspace(lo, 8.0, 25)
    return np.column_stack([z, z * np.exp(-z)])


LOWER_END_LAWS = {
    "off": lambda: make_tabulated(gamma_shape_grid(0.5)),
    "zero": lambda: make_tabulated(gamma_shape_grid(0.0)),
    "scaled": lambda: make_tabulated(gamma_shape_grid(0.5)).scaled(3.0),
}

# Recorded while the bounded rule still integrated from 0 up to a grid's
# first point: capacities of OA, RA, CI, TCI and CTCI (z_t = 1) at
# S = 0.1, 10 and 1000, and T(t) at t = 0, 0.5, 1, 3.
# Three "zero" values were recorded again when T became an exact segment
# sum, each nearer the 30-digit oracle: CI at S = 0.1 and 1000 and T(3).
# Eight OA and RA values were recorded again when OA and RA moved to the
# survival table, each nearer the oracle: OA and RA at S = 0.1 on every
# grid but RA on "scaled", RA at S = 10 and 1000 on "zero" and RA at
# S = 10 on "scaled". Five "zero" values moved by 1 ulp when T's segment
# integrals came to be summed in floats, and were recorded again: TCI at
# S = 0.1 and 10 (each nearer the 50-digit oracle) and T(0.5), T(1), T(3)
# (each within 1.4e-16 of it). Two "zero" CTCI
# values moved when CTCI became a capped sum of sf on the survival table,
# and were recorded again: at S = 0.1 from 2.4e-16 to 3.5e-17 off the
# 30-digit oracle, and at S = 10 from 1.2e-16 to 2.1e-16. The three
# "zero" TCI values moved by 1 ulp when TCI came to read sf(z_t) in place
# of 1 - F(z_t), and were recorded again: relative to the 50-digit oracle
# at S = 0.1 from 6.2e-17 to 9.6e-17, at S = 10 from 1.2e-18 to 1.8e-16
# and at S = 1000 from 1.15e-16 to 3.7e-17.
LOWER_END_RECORDS = {
    "off": {
        "caps": [
            [0.24911749086743956, 0.18931691117673322, 0.13992149755791908, 0.1784839200708025, 0.14845367581954527],
            [2.9542520916956208, 2.95352819008918, 2.7737349594289906, 2.628682355062823, 2.826472827423438],
            [7.495625756176662, 7.495625671685913, 7.315108623910032, 6.32815295404796, 7.370542207098688],
        ],
        "T": [0.6658520938477102, 0.6658520938477102, 0.4058007140709271, 0.054895068348317755],
    },
    "zero": {
        "caps": [
            [0.24309675993420296, 0.17604501014943327, 0.09924743494198672, 0.17684356238041912, 0.1332826500207098],
            [2.827079408283784, 2.822341153229345, 2.4365871568118664, 2.4697825454853013, 2.6883954319536496],
            [7.343200069630935, 7.343198009134988, 6.9511932211513185, 5.859195485533612, 7.21653859328779],
        ],
        "T": [0.9584096416599809, 0.6086608593174792, 0.3714611267665928, 0.05028430536467673],
    },
    "scaled": {
        "caps": [
            [0.5313043820763456, 0.47217719021575116, 0.3719431459638542, 0.37194314596385425, 0.37194314596385425],
            [4.0103545725528384, 4.0102654729480465, 3.8298374402862083, 3.8298374402862083, 3.8298374402862083],
            [8.593794340402612, 8.593794331004448, 8.413277208135982, 8.413277208135982, 8.413277208135982],
        ],
        "T": [0.22195069794923677, 0.22195069794923675, 0.22195069794923675, 0.13526690469030905],
    },
}


class TestBoundedRuleLowerEnd:
    """A bounded law's moments are summed from its first knot, where its density starts."""

    @pytest.mark.parametrize("case, points, rel", [
        ("off", 520, 1e-15), ("scaled", 520, 1e-15), ("zero", 2280, 0.0),
    ])
    def test_records_and_node_count(self, case, points, rel):
        # 26 table panels of 20 nodes on [0.5, 8], none below the grid's
        # first point, where the density is 0. The grid from 0 adds the
        # table's panels down to its lower end lo, where F < 1e-20, and one
        # panel in z on [0, lo].
        law = LOWER_END_LAWS[case]()
        nodes = []
        law.survival_table.expectation(lambda z: nodes.append(z) or np.ones_like(z))
        nodes = np.concatenate(nodes)
        assert nodes.size == points and nodes.min() >= law.quad_knots[0]
        record = LOWER_END_RECORDS[case]
        schemes = [Scheme(s) for s in ("oa", "ra", "ci", "tci", "ctci")]
        for S, expected in zip((0.1, 10.0, 1000.0), record["caps"]):
            got = [capacity(law, s, S, z_t=1.0).capacity_nats for s in schemes]
            assert got == pytest.approx(expected, rel=rel, abs=0.0)
        tails = [law.tail_inverse_integral(t) for t in (0.0, 0.5, 1.0, 3.0)]
        assert tails == pytest.approx(record["T"], rel=rel, abs=0.0)

    @pytest.mark.parametrize("case", sorted(LOWER_END_LAWS))
    def test_head_mean_matches_exact_segment_sums(self, case):
        # H(t) = E[z; z < t] = E[min(z, t)] - t sf(t), from the survival
        # table, against the sum over the segments below t of the integral
        # of z (c0 + c1 z); worst measured 9.3e-16 ("scaled", t = 3)
        c = 3.0 if case == "scaled" else 1.0
        grid = gamma_shape_grid(0.0 if case == "zero" else 0.5)
        law, ref = LOWER_END_LAWS[case](), oracles.TabulatedLaw(case, grid)
        with mpmath.workdps(oracles.DPS):
            for t in (0.5, 1.0, 3.0, 8.0):
                x = mpmath.mpf(t) / c
                exact = c * mpmath.fsum(
                    c0 * (min(b, x) ** 2 - a ** 2) / 2 + c1 * (min(b, x) ** 3 - a ** 3) / 3
                    for a, b, c0, c1 in ref.seg if a < x)
                got = law.survival_table.sf_integral(t) - t * law.sf(t)
                assert (got == 0.0 if exact == 0 else _rel_err(got, exact) <= 1.1e-15), t


# (fadecap law, 30-digit oracle law). The MISO and max-exponential moments,
# and a tabulated law's E[z] and E[log z], are summed on the law's survival
# table while it is built; a tabulated law's E[1/z] is T at its first grid
# point. The whole-table sum on a tabulated law is gated against the oracle
# on its own below.
MOMENT_CASES = {
    "miso22": (partial(make_miso_multiuser, 2, 2), partial(oracles.miso_law, 2, 2)),
    "miso12": (partial(make_miso_multiuser, 1, 2), partial(oracles.miso_law, 1, 2)),
    "miso21": (partial(make_miso_multiuser, 2, 1), partial(oracles.miso_law, 2, 1)),
    "maxexp4": (partial(make_max_exponential, 4), partial(oracles.maxexp_law, 4)),
    "maxexp6": (partial(make_max_exponential, 6), partial(oracles.maxexp_law, 6)),
}
for _name, _grid in [*((f"tab{seed}", workloads.tab_grid(seed)) for seed in range(4)),
                     ("tab_from_half", gamma_shape_grid(0.5).tolist()),
                     ("tab_positive_at_0", exp_grid(top=20.0, n=60).tolist())]:
    MOMENT_CASES[_name] = (partial(make_tabulated, _grid),
                           partial(oracles.TabulatedLaw, _name, _grid))


@pytest.mark.parametrize("name", sorted(MOMENT_CASES))
def test_moments_match_30_digit_oracles(name):
    # worst measured: 1.2e-15 (miso22 E[log z]), 5.1e-16 on the tabulated
    # laws (tab_positive_at_0 E[z])
    build, oracle = MOMENT_CASES[name]
    law, ref = build(), oracle()
    with mpmath.workdps(oracles.DPS):
        for got, exact in zip((law.mean, law.inverse_mean, law.log_mean),
                              (ref.mean(), ref.inverse_mean(), ref.log_mean())):
            if mpmath.isinf(exact):
                assert got == math.inf
            else:
                assert float(abs(got - exact) / abs(exact)) <= 4e-15


@pytest.mark.parametrize("N, K", [(1, 2), (2, 2), (3, 3), (8, 8), (64, 4)])
def test_miso_moments_summed_on_the_table_match_30_digit_quadrature(N, K):
    # E[z], E[1/z] and E[log z] of the density K P(N, z)^(K-1) z^(N-1) e^-z
    # / Gamma(N), integrated by mpmath with breaks about the peak. Worst
    # measured 2.2e-16. The float log Gamma(64) puts the density at (64, 4)
    # 1.1e-14 off; the division by the table's mass takes that out (the
    # moments were 1.1e-14 off without it)
    law = make_miso_multiuser(N, K)
    with mpmath.workdps(oracles.DPS):
        lg = mpmath.loggamma(N)

        def pdf(z):
            p = mpmath.gammainc(N, 0, z, regularized=True)
            return K * p ** (K - 1) * mpmath.exp((N - 1) * mpmath.log(z) - z - lg)

        peak = N + math.sqrt(2.0 * N * math.log(K))
        breaks = sorted({0, *(max(peak + k * math.sqrt(N), 0.0)
                              for k in (-6, -3, -1.5, 0, 1.5, 3, 6, 12)), mpmath.inf})
        for got, g in ((law.mean, lambda z: z), (law.inverse_mean, lambda z: 1 / z),
                       (law.log_mean, mpmath.log)):
            exact = mpmath.quad(lambda z: g(z) * pdf(z), breaks)
            assert _rel_err(got, exact) <= 1e-15, (got, exact)


@pytest.mark.parametrize("name, c", [
    *((name, 1.0) for name in sorted(MOMENT_CASES) if name.startswith("tab")), ("tab3", 2.5),
])
def test_bounded_expect_matches_30_digit_oracles(name, c):
    # E[1], E[z], E[log z] and, where finite, E[1/z], summed over the whole
    # survival table of the law scaled by c, from its first knot; worst
    # measured 5.1e-16 (tab_positive_at_0 E[z]). The piecewise rule this
    # replaced missed E[log z] on tab_positive_at_0 by 1.2e-13, at the log
    # singularity of its piece from 0.
    build, oracle = MOMENT_CASES[name]
    law, ref = build().scaled(c) if c != 1.0 else build(), oracle()
    with mpmath.workdps(oracles.DPS):
        exact = (mpmath.mpf(1), c * ref.mean(), ref.log_mean() + mpmath.log(c),
                 ref.inverse_mean() / c)
        for g, value in zip((np.ones_like, lambda z: z, np.log, lambda z: 1.0 / z), exact):
            if not mpmath.isinf(value):
                got = law.survival_table.expectation(g)
                assert _rel_err(got, value) <= 4e-15, (g, value)


# T(t) = E[1/z; z > t] in closed form, against 30-digit oracles: gamma
# Q(N-1, t)/(N-1) (E1(t) at N = 1) and the tabulated exact segment sums.
GAMMA_TAIL_POINTS = [*np.geomspace(1e-9, 700.0, 45), 0.5, 1.0, 2.0, 3.0, 10.0, 60.0]


def _rel_err(got, exact):
    return float(abs(got - exact) / abs(exact))


def _gamma_tail_oracle(N, t):
    if N == 1:
        return mpmath.e1(t)
    return mpmath.gammainc(N - 1, t, regularized=True) / (N - 1)


@pytest.mark.parametrize("N", range(1, 7))
def test_gamma_tail_functional_matches_30_digit_oracle(N):
    # worst measured: 2.8e-16
    law = make_gamma_diversity(N)
    with mpmath.workdps(oracles.DPS):
        for t in GAMMA_TAIL_POINTS:
            assert _rel_err(law.tail_inverse_integral(t), _gamma_tail_oracle(N, t)) <= 4e-15, t


@pytest.mark.parametrize("N, c", [(1, 0.2), (3, 2.5), (6, 40.0)])
def test_scaled_gamma_tail_functional_matches_30_digit_oracle(N, c):
    # the scaled law evaluates its base law at the float t / c, as its
    # density does; the oracle is taken at the same point
    law = make_gamma_diversity(N).scaled(c)
    with mpmath.workdps(oracles.DPS):
        for t in (c * s for s in GAMMA_TAIL_POINTS):
            exact = _gamma_tail_oracle(N, t / c) / c
            assert _rel_err(law.tail_inverse_integral(t), exact) <= 4e-15, t


TAIL_GRIDS = {f"tab{seed}": workloads.tab_grid(seed) for seed in range(12)}
TAIL_GRIDS["tab_from_half"] = gamma_shape_grid(0.5).tolist()
TAIL_GRIDS["tab_positive_at_0"] = exp_grid(top=20.0, n=60).tolist()


def _tabulated_tail_points(grid, c=1.0):
    """t from 1e-9 to the support top: a log grid, the grid points (scaled)
    and the float just below the top."""
    top = c * grid[-1][0]
    return [*np.geomspace(1e-9, top, 41)[:-1], *(c * z for z, _ in grid[:-1] if z > 0.0),
            math.nextafter(top, 0.0)]


@pytest.mark.parametrize("name", sorted(TAIL_GRIDS))
def test_tabulated_tail_functional_matches_30_digit_oracle(name):
    # worst measured: 4.0e-16 (tab_positive_at_0), 3.4e-16 on the others.
    # Next to the top, log(b/a) in the oracle loses 16 digits to forming
    # b/a, so the oracle is built and run at 50.
    grid = TAIL_GRIDS[name]
    law = make_tabulated(grid)
    with mpmath.workdps(50):
        ref = oracles.TabulatedLaw(name, grid)
        for t in _tabulated_tail_points(grid):
            got = law.tail_inverse_integral(t)
            assert math.isfinite(got) and _rel_err(got, ref.tail_inverse(mpmath.mpf(t))) <= 4e-15, t
    if name == "tab_positive_at_0":
        # p(0) > 0: E[1/z] diverges, T(t) is finite for every t > 0
        assert law.inverse_mean == math.inf
        assert law.tail_inverse_integral(0.0) == math.inf


@pytest.mark.parametrize("name, c", [("tab1", 0.3), ("tab_from_half", 7.0)])
def test_scaled_tabulated_tail_functional_matches_30_digit_oracle(name, c):
    grid = TAIL_GRIDS[name]
    law = make_tabulated(grid).scaled(c)
    with mpmath.workdps(50):
        ref = oracles.TabulatedLaw(name, grid)
        for t in _tabulated_tail_points(grid, c):
            exact = ref.tail_inverse(mpmath.mpf(t / c)) / c
            assert _rel_err(law.tail_inverse_integral(t), exact) <= 4e-15, t


def test_tail_functional_on_a_2000_point_grid_matches_50_digit_oracle():
    # T at each grid point sums every segment above it, so a fine grid tests
    # how the rounding of the running sum grows; worst measured 2.8e-16
    n, top = 2000, 30.0
    grid = []
    for i in range(n):
        z = top * (i / (n - 1)) ** 1.3
        grid.append((z, z * math.exp(-z / 1.5) * (1.0 + 0.1 * math.sin(3.0 * z))))
    law = make_tabulated(grid)
    with mpmath.workdps(50):
        ref = oracles.TabulatedLaw("fine", grid)
        # the oracle's segment integrals summed from the top give T at every
        # grid point in one pass
        total = mpmath.mpf(0)
        for a, b, c0, c1 in reversed(ref.seg[1:]):
            total += c0 * mpmath.log(b / a) + c1 * (b - a)
            assert _rel_err(law.tail_inverse_integral(float(a)), total) <= 4e-15, a
        assert _rel_err(law.inverse_mean, total + ref.seg[0][3] * ref.seg[0][1]) <= 4e-15
        for t in np.geomspace(1e-6, top, 9)[:-1]:
            assert _rel_err(law.tail_inverse_integral(t), ref.tail_inverse(mpmath.mpf(t))) <= 4e-15, t


SCALE_LAWS = {
    "gamma1": lambda: make_gamma_diversity(1),
    "gamma4": lambda: make_gamma_diversity(4),
    "tab1": lambda: make_tabulated(TAIL_GRIDS["tab1"]),
    "tab_from_half": lambda: make_tabulated(TAIL_GRIDS["tab_from_half"]),
    # no closed form: T is integrated
    "miso22": lambda: make_miso_multiuser(2, 2),
    "maxexp4": lambda: make_max_exponential(4),
    "frechet2": lambda: make_frechet(2.0, 4),
}


@cache
def _scale_law(name):
    return SCALE_LAWS[name]()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(SCALE_LAWS)), c=st.floats(1e-3, 1e3),
       q=st.floats(1e-6, 0.9))
def test_scaled_tail_functional_is_scale_consistent(name, c, q):
    d = _scale_law(name)
    # t stays where an ulp of t (c t / c need not give t back) moves T by
    # under 25 ulps: up to 18 on unbounded laws, below 0.9 of a bounded top
    t = q * min(d.support_sup, 20.0)
    got = d.scaled(c).tail_inverse_integral(c * t)
    assert got == pytest.approx(d.tail_inverse_integral(t) / c, rel=1e-14, abs=0.0)


def test_construction_calls_no_adaptive_quadrature(monkeypatch):
    # every law is checked, and its moments without a closed form summed, on
    # its survival table: no factory and no scaled law integrates adaptively
    # while it is built, its table included
    def refused(*args, **kwargs):
        raise AssertionError("a law integrated adaptively while it was built")

    for module in (distributions, numerics):
        for attr in ("integrate_semi_infinite", "integrate_finite"):
            monkeypatch.setattr(module, attr, refused)
    builders = [
        lambda: make_gamma_diversity(1),
        lambda: make_gamma_diversity(2),
        lambda: make_max_exponential(1),
        lambda: make_max_exponential(2),
        lambda: make_max_exponential(4),
        lambda: make_frechet(2.0, 4),
        lambda: make_frechet(0.8),
        lambda: make_frechet(1.01, 8),
        lambda: make_miso_multiuser(1, 1),
        lambda: make_miso_multiuser(2, 2),
        lambda: make_tabulated(gamma_shape_grid(0.0)),
        lambda: make_tabulated(gamma_shape_grid(0.5)),
        lambda: make_tabulated(exp_grid(top=20.0, n=60)),
        lambda: make_miso_multiuser(2, 3).scaled(2.5),
        lambda: make_tabulated(workloads.tab_grid(3)).scaled(0.4),
    ]
    for build in builders:
        law = build()
        assert law.survival_table.mass == pytest.approx(1.0, abs=1e-14), law.name


def test_tabulated_law_builds_one_survival_table(monkeypatch):
    # the moments integrated while the law is built and its mass check sum
    # on one table, and the law returned keeps it
    built = []
    original = SurvivalTable.__init__

    def counted(table, *args, **kwargs):
        built.append(table)
        original(table, *args, **kwargs)

    monkeypatch.setattr(SurvivalTable, "__init__", counted)
    law = make_tabulated(workloads.tab_grid(3))
    assert len(built) == 1 and law.survival_table is built[0]


def test_tail_inverse_integral_on_a_bounded_law_without_a_closed_form():
    # Z uniform on [1, 2], built by hand with no tail_inverse: T(t) is 1/z
    # integrated over [t, 2] by finite QUADPACK, log(2/t) on [1, 2],
    # log 2 below 1 and 0 from the top up
    law = FadingDistribution(
        name="uniform[1, 2]",
        pdf=lambda z: float(1.0 <= z <= 2.0),
        cdf=lambda z: np.clip(np.asarray(z, dtype=float) - 1.0, 0.0, 1.0),
        sf=lambda z: np.clip(2.0 - np.asarray(z, dtype=float), 0.0, 1.0),
        mean=1.5,
        inverse_mean=math.log(2.0),
        log_mean=2.0 * math.log(2.0) - 1.0,
        support_sup=2.0,
        quad_knots=(1.0, 2.0),
    )
    for t in (1.0, 1.25, 1.5, 1.9, 1.999):
        assert law.tail_inverse_integral(t) == pytest.approx(math.log(2.0 / t), rel=1e-12), t
    for t in (0.0, 0.3, 0.999):
        assert law.tail_inverse_integral(t) == pytest.approx(math.log(2.0), rel=1e-12), t
    for t in (2.0, 3.0, math.inf):
        assert law.tail_inverse_integral(t) == 0.0, t


def test_tail_memo_starts_empty_on_a_new_law_a_copy_and_a_scaled_law(monkeypatch):
    # building a law computes no T, and a dataclasses.replace copy or a
    # scaled law of a law whose T is memoized integrates its own T again
    law = make_miso_multiuser(2, 2)
    assert "_tail_memo" not in vars(law)
    calls, expect = [], FadingDistribution.expect
    monkeypatch.setattr(FadingDistribution, "expect",
                        lambda self, g, lo: calls.append(lo) or expect(self, g, lo))
    first = law.tail_inverse_integral(1.0)
    assert law.tail_inverse_integral(1.0) == first and calls == [1.0]
    assert law._tail_memo == {1.0: first}
    copy = dataclasses.replace(law)
    assert "_tail_memo" not in vars(copy)
    assert copy.tail_inverse_integral(1.0) == first and calls == [1.0, 1.0]
    scaled = law.scaled(2.0)
    assert "_tail_memo" not in vars(scaled)
    # the scaled law maps its base law's memoized T(1) and stores its own
    assert scaled.tail_inverse_integral(2.0) == first / 2.0 and calls == [1.0, 1.0]
    assert scaled._tail_memo == {2.0: first / 2.0}


def test_tail_memo_stores_no_failed_call():
    # tci:opt's grid point 44 on frechet(0.8): QUADPACK raises there at every
    # call, and the memo keeps only the T it could integrate
    law = make_frechet(0.8)
    bracket = _default_threshold_bracket(law)
    t = np.geomspace(bracket.lo, bracket.hi, numerics._MAXIMIZE_GRID).tolist()[44]
    assert t == pytest.approx(1.883e5, rel=1e-3)
    law.tail_inverse_integral(1.0)
    for _ in range(2):
        with pytest.raises(numerics.QuadratureError):
            law.tail_inverse_integral(t)
        assert list(law._tail_memo) == [1.0]


def test_tail_memo_stores_no_nan_and_no_infinite_argument_or_value():
    # a tabulated T reads 0 at NaN and at inf (bisect puts both past the
    # grid), which the memo must not store: NaN keys never match each other
    tab = make_tabulated(exp_grid())
    for _ in range(3):
        assert tab.tail_inverse_integral(math.nan) == 0.0
        assert tab.tail_inverse_integral(math.inf) == 0.0
    assert tab._tail_memo == {}
    for value in (math.nan, math.inf):
        broken = dataclasses.replace(tab, tail_inverse=lambda t, v=value: v)
        assert broken.tail_inverse_integral(1.0) is value and broken._tail_memo == {}
    # T(0) = E[1/z] = inf on Rayleigh, returned before the memo is read
    rayleigh = make_gamma_diversity(1)
    assert rayleigh.tail_inverse_integral(0.0) == math.inf
    assert not vars(rayleigh).get("_tail_memo")


def test_tail_memo_holds_its_cap():
    law = make_gamma_diversity(2)
    cap = distributions._TAIL_MEMO_SIZE
    ts = np.geomspace(1e-3, 30.0, cap + 50).tolist()
    got = [law.tail_inverse_integral(t) for t in ts]
    assert len(law._tail_memo) == cap
    assert list(law._tail_memo) == ts[:cap]
    # past the cap T is computed, not stored, and reads the same floats
    fresh = make_gamma_diversity(2)
    assert [law.tail_inverse_integral(t) for t in ts[::-1]] == got[::-1]
    assert got[cap:] == [fresh.tail_inverse_integral(t) for t in ts[cap:]]
    assert len(law._tail_memo) == cap


def _quad_pdf(d, g, a, b=math.inf):
    """Integral of g(z) pdf(z) over [a, b] by scipy's QUADPACK, to 1e-12
    relative, in pieces split at the law's knots."""
    ends = [a, *(k for k in d.quad_knots if a < k < b), b]
    return math.fsum(quad(lambda z: g(z) * d.pdf(z), lo, hi, epsabs=1e-14, epsrel=1e-12,
                          limit=250)[0] for lo, hi in zip(ends, ends[1:]))


class TestSharedInvariants:
    def test_pdf_matches_cdf_increments(self, builtin_dists):
        rng = np.random.default_rng(7)
        for d in builtin_dists:
            for _ in range(5):
                a, b = np.sort(rng.uniform(0.05, 6.0, size=2))
                if b - a < 1e-3:
                    continue
                mass = _quad_pdf(d, lambda z: 1.0, a, b)
                increment = float(d.cdf(b) - d.cdf(a))
                assert mass == pytest.approx(increment, abs=1e-8), d.name

    def test_closed_moments_match_quadrature(self, builtin_dists):
        for d in builtin_dists:
            if d.mean_finite:
                assert _quad_pdf(d, lambda z: z, 0.0) == pytest.approx(
                    d.mean, rel=1e-8
                ), d.name
            if d.inverse_mean_finite:
                assert _quad_pdf(d, lambda z: 1.0 / z, 0.0) == pytest.approx(
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
                tail = _quad_pdf(d, lambda z: z, 700.0)
                assert _quad_pdf(d, lambda z: z, 0.0, 700.0) + tail == pytest.approx(
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
            z = 1.3 * c
            assert s.cdf(z) == pytest.approx(d.cdf(1.3), rel=1e-12)
            assert s.pdf(z) * c == pytest.approx(d.pdf(1.3), rel=1e-12)

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.0, -2.0])
    def test_scale_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="scale"):
            make_gamma_diversity(2).scaled(c)

    def test_validation_rejects_nan_mass_and_mean(self):
        # Z uniform on [0, 1]; the checks sum the law's survival table
        def law(pdf=lambda z: np.where(z <= 1.0, 1.0, 0.0), sf=lambda z: np.clip(1.0 - z, 0.0, 1.0),
                mean=0.5):
            return FadingDistribution(
                name="nan-law", pdf=pdf, cdf=lambda z: np.clip(z, 0.0, 1.0), sf=sf, mean=mean,
                inverse_mean=math.inf, log_mean=-1.0, support_sup=1.0,
                quad_knots=(0.0, 1.0),
            )

        assert _validate(law()).survival_table.mass == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValueError, match="mass"):
            _validate(law(pdf=lambda z: np.full_like(z, math.nan)))
        with pytest.raises(ValueError, match="mean"):
            _validate(law(mean=math.nan))
        # a NaN sf off the knots, where the sf + cdf check does not look
        with pytest.raises(ValueError, match="mean"):
            _validate(law(sf=lambda z: np.where(abs(z - 0.5) < 0.1, math.nan, 1.0 - z)))

    def test_validation_rejects_a_survival_function_off_the_cdf(self):
        law = make_gamma_diversity(2)
        assert _validate(dataclasses.replace(law, sf=lambda z: 1.0 - law.cdf(z))).sf is not None
        for wrong in (law.cdf, lambda z: law.sf(z) + 1e-11):
            with pytest.raises(ValueError, match="sf"):
                _validate(dataclasses.replace(law, sf=wrong))

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
# array argument takes the masked array path. Both must give one law. The
# points past 700 reach the gamma and MISO survival functions' gammaincc.
AGREEMENT_POINTS = np.concatenate((
    [-1.0, 0.0, 5e-324, 1e-300, 1e-20, 1e-8],
    np.geomspace(1e-6, 80.0, 2000),
    [700.0, 700.5, 750.0, 1e3, 1e5, math.nan],
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
@pytest.mark.parametrize("fn", ["pdf", "cdf", "sf"])
def test_scalar_path_matches_array_path(law, fn):
    # 1e-12 relative: Frechet's exp(-K z^-alpha) turns a 1-ulp difference
    # in z^-alpha into ~1e-13; the other laws agree to a few ulps
    f = getattr(law, fn)
    batch = f(AGREEMENT_POINTS)
    assert batch.shape == AGREEMENT_POINTS.shape
    # below the support F is 0, so the density and F read 0 and 1 - F reads 1
    assert AGREEMENT_POINTS[0] == -1.0 and batch[0] == f(-1.0) == (1.0 if fn == "sf" else 0.0)
    for z, expected in zip(AGREEMENT_POINTS, batch):
        got = f(float(z))
        assert isinstance(got, float), (z, type(got))
        assert math.isfinite(got) == math.isfinite(expected), (z, got, expected)
        if math.isfinite(expected):
            assert abs(got - expected) <= 1e-12 * abs(expected), (z, got, expected)


# The samplers reduce short axes with strided slices; these are the plain
# numpy formulas they replace, and the stream each law draws is pinned to
# them bit for bit. Axes of 8 or more entries cross into numpy's pairwise
# sum, and the max over 16 or more users into numpy's own max, so the cases
# straddle both widths.
PIN_SAMPLES = 70_001


def _pin_rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20111)))


def _clipped_uniform(rng, n):
    return np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)


def stream_pinning_cases():
    cases = []
    for N in (1, 2, 3, 7, 8, 9, 16):
        cases.append((
            make_gamma_diversity(N),
            lambda rng, n, N=N: rng.standard_exponential((n, N)).sum(axis=1),
        ))
    for N, K in ((1, 1), (2, 2), (7, 2), (8, 2), (2, 8), (3, 12), (2, 15), (4, 16), (2, 64)):
        cases.append((
            make_miso_multiuser(N, K),
            lambda rng, n, N=N, K=K: (
                rng.standard_exponential((n, K, N)).sum(axis=2).max(axis=1)
            ),
        ))
    for K in (1, 4):
        cases.append((
            make_max_exponential(K),
            lambda rng, n, K=K: -np.log1p(-_clipped_uniform(rng, n) ** (1.0 / K)),
        ))
    cases.append((
        make_frechet(2.0, 4),
        lambda rng, n: (-np.log(_clipped_uniform(rng, n)) / 4) ** (-1.0 / 2.0),
    ))
    cases.append((
        make_gamma_diversity(3).scaled(2.5),
        lambda rng, n: 2.5 * rng.standard_exponential((n, 3)).sum(axis=1),
    ))
    return cases


@pytest.mark.parametrize(
    "law, reference", stream_pinning_cases(), ids=lambda c: getattr(c, "name", "ref")
)
def test_sampler_stream_is_pinned_to_numpy_formula(law, reference):
    got = law.sampler(_pin_rng(), PIN_SAMPLES)
    expected = reference(_pin_rng(), PIN_SAMPLES)
    assert got.shape == (PIN_SAMPLES,)
    assert np.array_equal(got, expected), law.name


def infinity_laws():
    grid = np.linspace(0.0, 8.0, 25)
    return [
        make_gamma_diversity(1),
        make_gamma_diversity(3),
        make_max_exponential(1),
        make_max_exponential(4),
        make_frechet(2.0, 4),
        make_frechet(0.8),
        make_miso_multiuser(1, 1),
        make_miso_multiuser(2, 2),
        make_tabulated(np.column_stack([grid, grid * np.exp(-grid)])),
        make_gamma_diversity(2).scaled(3.0),
    ]


# the laws whose density is positive at z = 0: there it is 1
POSITIVE_AT_ZERO = {"gamma_diversity(N=1)", "max_exponential(K=1)", "miso_multiuser(N=1,K=1)"}


@pytest.mark.parametrize("law", infinity_laws(), ids=lambda d: d.name)
def test_limits_at_infinity(law):
    # the density's limit is 0 and the CDF's is 1, on the scalar and the
    # array path alike; a NaN or a RuntimeWarning on the way fails. A NaN
    # or negative argument gives 0 to both. At z = 0 the density takes its
    # limit there.
    at_zero = 1.0 if law.name in POSITIVE_AT_ZERO else 0.0
    assert law.pdf(0.0) == at_zero and np.array_equal(law.pdf(np.array([0.0])), [at_zero])
    assert law.pdf(math.inf) == 0.0
    assert law.cdf(math.inf) == 1.0
    for bad in (math.nan, -1.0):
        assert law.pdf(bad) == 0.0 and law.cdf(bad) == 0.0, bad
    z = np.array([0.5, math.inf, 2.0, math.inf, math.nan, -1.0])
    pdf, cdf = law.pdf(z), law.cdf(z)
    assert np.array_equal(pdf[[1, 3]], [0.0, 0.0])
    assert np.array_equal(cdf[[1, 3]], [1.0, 1.0])
    assert np.array_equal(pdf[[4, 5]], [0.0, 0.0])
    assert np.array_equal(cdf[[4, 5]], [0.0, 0.0])
    assert np.all(pdf[[0, 2]] > 0.0) and np.all(cdf[[0, 2]] < 1.0)


@pytest.mark.parametrize("law", infinity_laws(), ids=lambda d: d.name)
def test_survival_function_limits(law):
    # sf is 1 at z <= 0 and 0 at z = inf and at NaN, on the scalar and the
    # array path
    assert law.sf(-1.0) == law.sf(0.0) == 1.0
    assert law.sf(math.inf) == law.sf(math.nan) == 0.0
    assert np.array_equal(law.sf(np.array([-1.0, 0.0, math.inf, math.nan])), [1.0, 1.0, 0.0, 0.0])


def closed_form_laws():
    return [
        make_gamma_diversity(1),
        make_gamma_diversity(2),
        make_max_exponential(1),
        make_max_exponential(4),
        make_frechet(2.0, 4),
        make_miso_multiuser(1, 1),
        make_miso_multiuser(2, 2),
    ]


@pytest.mark.parametrize("law", closed_form_laws(), ids=lambda d: d.name)
def test_only_the_density_reaches_the_evaluator_from_code_named_pdf(monkeypatch, law):
    # perfbench's density-point counter counts the calls that reach
    # _as_float_or_array from a frame whose code is named pdf
    callers = []
    evaluate = distributions._as_float_or_array

    def spy(z, compute_pos, at_zero=0.0):
        callers.append(sys._getframe(1).f_code.co_name)
        return evaluate(z, compute_pos, at_zero)

    monkeypatch.setattr(distributions, "_as_float_or_array", spy)
    z = np.array([0.0, 0.5, 2.0, math.inf])
    law.pdf(0.5), law.pdf(z)
    assert callers == ["pdf", "pdf"]
    callers.clear()
    for f in (law.cdf, law.sf):
        f(0.5), f(z)
    assert len(callers) == 4 and "pdf" not in callers, callers


# sf = 1 - F, against 30-digit references up where F is near 1. Worst
# measured 3.4e-16 (tabulated), 3.3e-16 (max-exponential, MISO); gate 3x.
def _sf_cases():
    def gamma_q(N, c=1.0):
        return lambda z: mpmath.gammainc(N, z / c, regularized=True)

    z = np.geomspace(1e-6, 60.0, 40)
    cases = {f"gamma{N}": (partial(make_gamma_diversity, N), gamma_q(N), z) for N in (1, 2, 4)}
    for K in (1, 4):
        cases[f"maxexp{K}"] = (partial(make_max_exponential, K),
                               lambda x, K=K: -mpmath.expm1(K * mpmath.log1p(-mpmath.exp(-x))), z)
    for alpha, K, lo, hi in ((0.8, 1, 1e-2, 1e12), (2.0, 4, 1e-1, 1e9)):
        cases[f"frechet{alpha}k{K}"] = (
            partial(make_frechet, alpha, K),
            lambda x, a=alpha, K=K: -mpmath.expm1(-K * x ** -mpmath.mpf(a)),
            np.geomspace(lo, hi, 40),
        )
    for N, K in ((1, 2), (2, 2), (3, 3)):
        cases[f"miso{N}{K}"] = (partial(make_miso_multiuser, N, K),
                                lambda x, N=N, K=K: -mpmath.expm1(
                                    K * mpmath.log1p(-mpmath.gammainc(N, x, regularized=True))), z)
    cases["gamma3x4"] = (lambda: make_gamma_diversity(3).scaled(4.0), gamma_q(3, 4.0), 4.0 * z)
    for seed in range(3):
        grid = workloads.tab_grid(seed)
        cases[f"tab{seed}"] = (partial(make_tabulated, grid),
                               lambda x, grid=grid: oracles.TabulatedLaw("tab", grid).tail_mass(x),
                               np.linspace(grid[0][0], grid[-1][0], 60)[:-1])
    return cases


SF_CASES = _sf_cases()


@pytest.mark.parametrize("name", sorted(SF_CASES))
def test_survival_function_matches_30_digit_oracle(name):
    build, exact, points = SF_CASES[name]
    law = build()
    with mpmath.workdps(oracles.DPS):
        for z in points:
            ref = exact(mpmath.mpf(float(z)))
            assert float(abs(law.sf(float(z)) - ref) / ref) <= 1e-15, z


# The special functions fadecap computes itself, against 30-digit mpmath.
# An error is relative, and relative to the least normal float where the
# exact value is subnormal.
def _special_err(got, exact):
    return float(abs(mpmath.mpf(float(got)) - exact) / max(abs(exact), sys.float_info.min))


def _incomplete_gamma_grid(N):
    near = N * (1.0 + np.array([-0.5, -0.1, -1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5]))
    edges = [np.nextafter(N, 0.0), np.nextafter(N, 2.0 * N), 700.0, 700.5]
    return np.unique(np.concatenate((np.geomspace(1e-300, 1e3, 161), near, edges)))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 64])
def test_incomplete_gamma_matches_30_digit_oracle_at_least_as_tightly_as_scipy(N):
    # P and Q on each path: a float, an array of 20 points (the matrix of
    # powers) and the whole grid in one array (Horner's rule), from 1e-300,
    # where P = z^N / N! is subnormal or 0, to 1e3, where Q is, and around
    # z = N, where P's series hands over to 1 - Q. Worst measured: 3.2e-15
    # (Q(64, .) near 64 on an array), 1.1e-15 elsewhere at N = 64 and
    # 3.9e-16 below it. scipy's own worst on this grid is 3.8e-14 or more.
    from scipy import special

    law = _IncompleteGamma(N)
    z = _incomplete_gamma_grid(N)
    whole = law.pq(z)
    assert np.array_equal(law.p(z), whole[0])
    panels = [law.pq(z[i:i + 20]) for i in range(0, z.size, 20)]
    paths = {
        "float": np.array([law.pq(float(v)) for v in z]).T,
        "panel": np.array([np.concatenate(part) for part in zip(*panels)]),
        "array": np.array(whole),
        "scipy": np.array([special.gammainc(N, z), special.gammaincc(N, z)]),
    }
    worst = {name: [0.0, 0.0] for name in paths}
    with mpmath.workdps(oracles.DPS):
        for i, v in enumerate(z):
            x = mpmath.mpf(float(v))
            exact = (mpmath.gammainc(N, 0, x, regularized=True),
                     mpmath.gammainc(N, x, mpmath.inf, regularized=True))
            for name, values in paths.items():
                for j in (0, 1):
                    worst[name][j] = max(worst[name][j], _special_err(values[j][i], exact[j]))
    for name in ("float", "panel", "array"):
        for j, fn in enumerate("PQ"):
            assert worst[name][j] <= min(worst["scipy"][j], 4e-15), (name, fn, worst)


@pytest.mark.parametrize("N", [1, 2, 4, 64])
def test_poisson_tail_past_700_keeps_its_digits_to_the_subnormals(N):
    # Q(N, t) = e^-t sum_{k<N} t^k / k! is summed from its largest term in
    # the float and the array path; scipy's gammaincc was 4.5e-14 off at
    # t = 700.5 and read 0 at 750, where Q(2, 750) = 1.4e-323 and
    # Q(4, 750) = 1.3e-318. Worst measured: 3.9e-16, and within half a
    # subnormal's spacing where Q is subnormal.
    law = _IncompleteGamma(N)
    t = np.array([700.5, 750.0, 1e3])
    batch = law.q(t)
    with mpmath.workdps(oracles.DPS):
        half_spacing = mpmath.mpf(math.ulp(0.0)) / 2
        for v, got_array in zip(t, batch):
            exact = mpmath.gammainc(N, mpmath.mpf(v), mpmath.inf, regularized=True)
            for got in (got_array, law.q(float(v))):
                assert abs(mpmath.mpf(float(got)) - exact) <= 1e-15 * exact + half_spacing, v
    if N in (2, 4):
        assert law.q(750.0) > 0.0 and batch[1] > 0.0


def test_exponential_integral_matches_30_digit_oracle():
    # E1 is gamma:N=1's tail functional; worst measured 6e-16, at t = 0.6
    t = np.concatenate((np.geomspace(1e-300, 700.0, 301), np.linspace(0.3, 3.0, 55)))
    with mpmath.workdps(oracles.DPS):
        for v in t:
            assert _special_err(_exp1(float(v)), mpmath.e1(mpmath.mpf(float(v)))) <= 1e-15, v


def test_log_gamma_gamma_and_digamma_match_30_digit_oracles():
    # the factories' log Gamma(N) and psi(N) at integer N, and Frechet's
    # Gamma(1 - 1/alpha) (alpha > 1) and Gamma(1 + 1/alpha), at the float
    # arguments they take
    with mpmath.workdps(oracles.DPS):
        for N in [*range(1, 201), 10**3, 10**6, 10**8]:
            assert abs(math.lgamma(N) - mpmath.loggamma(N)) <= 1e-15 * max(1.0, math.lgamma(N)), N
            assert _special_err(_digamma(N), mpmath.digamma(N)) <= 4e-16, N
        for alpha in np.geomspace(0.1, 100.0, 61):
            for x in (1.0 + 1.0 / alpha, 1.0 - 1.0 / alpha):
                if x > 0.0:
                    assert _special_err(math.gamma(x), mpmath.gamma(mpmath.mpf(x))) <= 1e-15, x


def test_miso_survival_raises_no_warning_where_the_poisson_tail_rounds_past_one():
    # below z = 2.4e-4 the sum Q(64, z) rounds to 1 + 4.4e-16, where
    # miso:N=64,K=4's survival function clamps it at 1 before its log1p
    law = make_miso_multiuser(64, 4)
    z = np.geomspace(1e-300, 2.4e-4, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [law.sf(z), law.sf(z[:20]), np.array([law.sf(float(v)) for v in z])]
    for got in values:
        assert np.all(got == 1.0)


# A tabulated law reads sf and F on lists of floats for a float argument and
# on per-segment arrays for an array; both must give the same bits. The
# grids: the benchmark's, one starting at z0 > 0 and one with p(0) > 0.
TAB_BIT_GRIDS = {
    **{f"tab{seed}": workloads.tab_grid(seed) for seed in range(8)},
    "z0_positive": [(0.5, 0.1), (1.0, 0.6), (2.0, 0.4), (3.5, 0.05), (4.0, 0.0)],
    "p0_positive": [(0.0, 0.3), (0.7, 0.9), (1.5, 0.5), (3.0, 0.2), (5.0, 0.01)],
}


def _tab_probe_points(grid):
    """Every grid point and 1 ulp either side, each segment's midpoint,
    points below the first grid point, at the top and past it, 1e-300
    and seeded uniforms up past the top; all positive."""
    z = [zi for zi, _ in grid]
    points = [x for zi in z
              for x in (math.nextafter(zi, -math.inf), zi, math.nextafter(zi, math.inf))]
    points += [0.5 * (a + b) for a, b in zip(z[:-1], z[1:])]
    points += [0.5 * z[0], 0.999 * z[0], z[-1], 1.5 * z[-1], 1e300, 1e-300]
    points += np.random.default_rng(12).uniform(0.0, 1.1 * z[-1], 200).tolist()
    return [x for x in points if x > 0.0]


def _clipped_index_reference(grid, fn, x):
    """sf or F on the whole grid with the segment index clipped into range,
    the formula the per-segment arrays replace."""
    zg, p = np.array([z for z, _ in grid]), np.array([q for _, q in grid])
    p = p / float(np.sum(0.5 * (p[:-1] + p[1:]) * np.diff(zg)))
    idx = np.clip(np.searchsorted(zg, x, side="right") - 1, 0, len(zg) - 2)
    seg = 0.5 * (p[:-1] + p[1:]) * np.diff(zg)
    if fn == "sf":
        top_cum = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        z1 = zg[idx + 1]
        u = np.clip(z1 - x, 0.0, z1 - zg[idx])
        p_x = p[idx + 1] - (p[idx + 1] - p[idx]) * u / (z1 - zg[idx])
        return top_cum[idx + 1] + 0.5 * (p_x + p[idx + 1]) * u
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    cum[-1] = 1.0
    z0 = zg[idx]
    slope = (p[idx + 1] - p[idx]) / (zg[idx + 1] - z0)
    u = np.clip(x - z0, 0.0, zg[idx + 1] - z0)
    out = cum[idx] + p[idx] * u + 0.5 * slope * u * u
    return np.clip(np.where(x >= zg[-1], 1.0, out), 0.0, 1.0)


@pytest.mark.parametrize("name", sorted(TAB_BIT_GRIDS))
@pytest.mark.parametrize("fn", ["sf", "cdf"])
def test_tabulated_float_path_gives_the_array_paths_bits(name, fn):
    grid = TAB_BIT_GRIDS[name]
    f = getattr(make_tabulated(grid), fn)
    points = _tab_probe_points(grid)
    batch = f(np.array(points))
    reference = _clipped_index_reference(grid, fn, np.array(points))
    for x, expected, ref in zip(points, batch.tolist(), reference.tolist()):
        got = f(x)
        assert isinstance(got, float)
        assert got.hex() == expected.hex() == ref.hex() == f(np.float64(x)).hex(), (x, got)
    # an array keeps its shape, and each entry its bits
    even = np.array(points[: len(points) // 2 * 2])
    assert [v.hex() for v in f(even.reshape(2, -1)).ravel().tolist()] == [
        v.hex() for v in batch[: even.size].tolist()]


def _linear_density_tail_oracle(grid):
    """x -> the integral over [x, top] of the piecewise-linear density
    through the grid, divided by its mass, integrated by mpmath segment by
    segment; call it under ``mpmath.workdps``."""
    z = [mpmath.mpf(zi) for zi, _ in grid]
    p = [mpmath.mpf(pi) for _, pi in grid]

    def integral(k, lo):
        line = lambda t: p[k] + (p[k + 1] - p[k]) * (t - z[k]) / (z[k + 1] - z[k])
        return mpmath.quad(line, [lo, z[k + 1]], method="gauss-legendre")

    segments = [integral(k, z[k]) for k in range(len(z) - 1)]
    mass = sum(segments)

    def tail(x):
        if x >= z[-1]:
            return mpmath.mpf(0)
        k = max([0] + [i for i in range(len(z) - 1) if z[i] <= x])
        return (integral(k, max(mpmath.mpf(x), z[k])) + sum(segments[k + 1:])) / mass

    return tail


@pytest.mark.parametrize("name", sorted(TAB_BIT_GRIDS))
def test_tabulated_survival_function_matches_the_mpmath_integral_of_its_density(name):
    grid = TAB_BIT_GRIDS[name]
    law = make_tabulated(grid)
    z = [zi for zi, _ in grid]
    points = [0.5 * (a + b) for a, b in zip(z[:-1], z[1:])] + z[1:-1]
    points += np.random.default_rng(13).uniform(0.0, z[-1], 20).tolist()
    with mpmath.workdps(oracles.DPS):
        exact_tail = _linear_density_tail_oracle(grid)
        for x in points:
            exact = exact_tail(x)
            if exact > 1e-12:
                for got in (law.sf(x), float(law.sf(np.array([x]))[0])):
                    assert float(abs(got - exact) / exact) <= 1e-14, (x, got)


def test_tabulated_float_path_and_a_warm_tci_opt_call_no_searchsorted_or_clip(monkeypatch):
    # sf and F at a float read lists of floats, so with np.searchsorted and
    # np.clip refused they and a warm optimized TCI point give the same values
    law = make_tabulated(workloads.tab_grid(3))

    def values():
        return law.sf(1.3), law.cdf(1.3), capacity(law, Scheme.TCI, 10.0, optimize_threshold=True)

    expected = values()

    def refused(*args, **kwargs):
        raise AssertionError("numpy searched or clipped on the float path")

    monkeypatch.setattr(np, "searchsorted", refused)
    monkeypatch.setattr(np, "clip", refused)
    assert values() == expected


def _full_grid_upper_end(sf, knots):
    """``SurvivalTable._upper_end`` with sf read on the whole grid at once."""
    u_ref = math.log(knots[-1]) if knots else 0.0
    u = u_ref + np.arange(0.0, numerics._U_LIMIT - u_ref, numerics._END_STEP)
    sf_u = np.asarray(sf(np.exp(u)))
    rest = numerics._sum_from_top(numerics._END_STEP * sf_u)[:-1]
    small = np.nonzero(rest <= numerics.SF_TABLE_CUT)[0]
    return float(u[small[0]] if small.size else u[-1]), sf_u


UNBOUNDED_LAWS = {
    **{f"gamma{N}": partial(make_gamma_diversity, N) for N in (1, 2, 64, 256)},
    **{f"maxexp{K}": partial(make_max_exponential, K) for K in (1, 4, 64)},
    **{f"miso{N},{K}": partial(make_miso_multiuser, N, K) for N, K in ((1, 1), (2, 2), (64, 8))},
    **{f"frechet{a},{K}": partial(make_frechet, a, K)
       for a, K in ((0.8, 1), (1.01, 8), (2.5, 3), (50, 1))},
}


@pytest.mark.parametrize("name", sorted(UNBOUNDED_LAWS))
def test_upper_end_stops_reading_where_sf_reads_zero_and_keeps_the_full_grid_cut(name):
    law = UNBOUNDED_LAWS[name]()
    knots = sorted(float(k) for k in law.quad_knots if 0.0 < k)
    read = []

    def sf(z):
        read.append(z.size)
        return law.sf(z)

    u_hi = SurvivalTable._upper_end(sf, knots)
    full_u_hi, sf_u = _full_grid_upper_end(law.sf, knots)
    assert u_hi.hex() == full_u_hi.hex() == law.survival_table.u_edges[-1].hex()
    zeros = np.nonzero(sf_u == 0.0)[0]
    if zeros.size:
        # every point past the first 0 reads 0, and reading stops within
        # twice as far as that point, plus the first block
        assert np.all(sf_u[zeros[0]:] == 0.0)
        assert zeros[0] < sum(read) <= 2 * zeros[0] + numerics._END_BLOCK
    else:
        assert sum(read) == sf_u.size
