"""Scheme capacities, implicit thresholds and their shared invariants."""

import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import tanhsinh

from fadecap import cli, distributions, numerics, schemes
from fadecap.asymptotics import low_snr_slope
from fadecap.distributions import (
    FadingDistribution,
    make_frechet,
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

import oracles  # perfbench/oracles.py; pyproject.toml puts perfbench/ on the path
import workloads

LN2 = math.log(2.0)
OMEGA = 0.5671432904097838  # root of z e^z = 1


def spike_at(center, width=1e-3):
    z = center + width * np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    p = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    return make_tabulated(np.column_stack([z, p]))


@functools.cache
def _gamma_law(N):
    return make_gamma_diversity(N)


@functools.cache
def _miso_law(N, K):
    return make_miso_multiuser(N, K)


@functools.cache
def _maxexp_law(K):
    return make_max_exponential(K)


@functools.cache
def _scaled_gamma_law(N, c):
    return make_gamma_diversity(N).scaled(c)


@functools.cache
def _tabulated_law(shape):
    # p(0) = 0, so E[1/Z] is finite
    z = np.linspace(0.0, 6.0 * shape + 8.0, 40)
    return make_tabulated(np.column_stack([z, z ** (shape - 1.0) * np.exp(-z)]))


def _watch_integrators(monkeypatch):
    """The list that the names of the integrators a law calls are appended to."""
    calls = []

    def watched(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("integrate_semi_infinite", "integrate_finite"):
        monkeypatch.setattr(distributions, attr, watched(getattr(distributions, attr)))
    return calls


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
        original = numerics.SurvivalTable.tails
        for d in (gamma2, miso22, spike_at(2.0)):
            cutoffs = []

            def counted(table, z_t):
                cutoffs.append(z_t)
                return original(table, z_t)

            monkeypatch.setattr(numerics.SurvivalTable, "tails", counted)
            sol = oa_threshold(d, S)
            assert len(set(cutoffs)) == len(cutoffs) == sol.iterations

    def test_power_times_cutoff_approaches_one(self, gamma2):
        products = [S * oa_threshold(gamma2, S).z_t for S in (1.0, 10.0, 1e3, 1e6)]
        assert all(0.0 < p <= 1.0 + 1e-12 for p in products)
        assert all(b > a for a, b in zip(products, products[1:]))
        assert products[-1] == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("build", [
    lambda: make_gamma_diversity(2),
    lambda: make_miso_multiuser(2, 2),
    lambda: make_frechet(0.8),
    lambda: make_tabulated(workloads.tab_grid(1)),
    lambda: make_gamma_diversity(3).scaled(2.5),
], ids=["gamma2", "miso22", "frechet08", "tab", "scaled_gamma3"])
def test_oa_and_ra_read_a_survival_table_built_on_first_use(monkeypatch, build):
    law = build()
    # a factory checks the law on its table, so building the law builds the
    # table; a scaled law's is built when a scheme first reads it
    assert ("survival_table" in vars(law)) == (not law.name.startswith("scaled"))

    def refused(*args, **kwargs):
        raise AssertionError("OA and RA must not integrate through expect")

    monkeypatch.setattr(FadingDistribution, "expect", refused)
    for S in (1e-6, 1.0, 1e9):
        oa_threshold(law, S)
        oa_capacity(law, S)
        ra_capacity(law, S)
    assert "survival_table" in vars(law)


def _jensen_end(dist, S):
    return 1.0 / (S + dist.inverse_mean)


class TestOaCutoffSolve:
    """The Newton solve in u = log z_t against exact oracles and its cost."""

    def test_gamma2_matches_lambert_w_from_minus_60_to_90_db(self, gamma2):
        # gamma:N=2 has z_t = W(1/S) and C_OA = E1(z_t) + e^-z_t; both
        # references come from 30-digit mpmath, not from quadrature.
        # Worst measured on the survival table: cutoff 4.1e-15, C_OA 3.0e-15;
        # each gate is 3x that
        worst_cut = worst_cap = 0.0
        with mp.workdps(30):
            for k in range(61):
                S = 10.0 ** ((-60.0 + 2.5 * k) / 10.0)
                z_ref = mp.lambertw(1 / mp.mpf(S)).real
                cap_ref = mp.e1(z_ref) + mp.exp(-z_ref)
                result = oa_capacity(gamma2, S)
                worst_cut = max(worst_cut, float(abs(result.threshold_z_t - z_ref) / z_ref))
                worst_cap = max(worst_cap, float(abs(result.capacity_nats - cap_ref) / cap_ref))
                assert abs(result.power_constraint_residual) < 1e-9
        assert worst_cut <= 1.2e-14
        assert worst_cap <= 9e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        law=st.one_of(
            st.builds(_gamma_law, st.integers(2, 6)),
            st.builds(_miso_law, st.integers(1, 3), st.integers(1, 4)).filter(
                lambda d: d.inverse_mean_finite
            ),
            st.builds(_maxexp_law, st.integers(2, 6)),
            st.builds(_scaled_gamma_law, st.integers(2, 4),
                      st.sampled_from([0.01, 0.3, 7.0, 100.0])),
            st.builds(_tabulated_law, st.sampled_from([1.3, 2.0, 3.5])),
        ),
        snr_db=st.floats(-60.0, 90.0),
    )
    def test_jensen_end_is_below_the_cutoff(self, law, snr_db):
        # P(z) >= 1/z - E[1/Z] makes psi >= 0 at z = 1/(S + E[1/Z]); the
        # computed constraint may read a few ulps below it there
        S = 10.0 ** (snr_db / 10.0)
        z_lo = _jensen_end(law, S)
        assert law.survival_table.tails(z_lo)[0] / S - 1.0 >= -1e-13
        assert oa_threshold(law, S).z_t >= z_lo * (1.0 - 1e-13)

    @pytest.mark.parametrize("law", ["gamma2", "miso22"])
    def test_cost_pin_cutoffs_per_solve(self, request, law):
        # Brent integrated 8.4-8.6 cutoffs per solve on the constraint in z,
        # and 5.1-6.0 on the same Jensen bracket in u; Newton takes 3.8-4.5
        dist = request.getfixturevalue(law)
        counts = [oa_threshold(dist, 10.0 ** (db / 10.0)).iterations
                  for db in np.arange(-10.0, 40.1, 2.5)]
        assert np.mean(counts) <= 5.0

    @pytest.mark.parametrize("law, total, most", [("gamma2", 184, 5), ("miso22", 153, 6)])
    def test_cost_pin_cutoffs_per_solve_from_minus_60_to_90_db(self, request, law, total, most):
        # Newton from the Jensen end integrated 7-9 cutoffs per solve below
        # -7.5 dB (mean 5.15 on gamma2, 4.61 on miso22, at most 9), because
        # that end tends to 1/E[1/Z] while the cutoff grows like log(1/S).
        # The survival table brackets the cutoff in one panel instead
        # (mean 3.02 and 2.51 over these 61 SNRs, at most 5 and 6), and
        # above the table's lower end none is integrated.
        dist = request.getfixturevalue(law)
        counts = [oa_threshold(dist, 10.0 ** (db / 10.0)).iterations
                  for db in np.arange(-60.0, 90.1, 2.5)]
        assert sum(counts) <= total
        assert max(counts) <= most

    def test_divergent_inverse_mean_meets_the_constraint(self):
        # E[1/Z] is infinite for a single Rayleigh branch; the survival
        # table's cutoff still meets the constraint
        rayleigh = make_gamma_diversity(1)
        for S in (1e-6, 1.0, 1e9):
            solution = oa_threshold(rayleigh, S)
            assert abs(solution.residual) < 1e-9
            assert 0.0 < solution.z_t < 1.0 / S


@pytest.mark.parametrize("c", [10.0 ** -k for k in range(5, 13)])
def test_tiny_scales_build_and_keep_ra_and_oa(gamma2, c):
    # the survival table scans the scaled law up to e^700, where z / c
    # overflows to inf; the base law's sf takes its limit there, and under
    # the suite's error::RuntimeWarning a warning would fail the build. The
    # law of c z at power S / c has the capacities of z at S. Worst measured:
    # RA 3.4e-16; OA 2.5e-14 (at -50 dB, where the cutoff lies deep in the
    # tail and the table's panels fall elsewhere on the scaled law) and
    # 1.7e-15 from 0 dB up
    law = gamma2.scaled(c)
    for db in np.arange(-60.0, 90.1, 10.0):
        S = 10.0 ** (db / 10.0)
        for fn, rel in ((ra_capacity, 1.5e-15), (oa_capacity, 5e-14)):
            assert fn(law, S / c).capacity_nats == pytest.approx(
                fn(gamma2, S).capacity_nats, rel=rel, abs=0.0), (fn.__name__, db)


def _frechet_tails(alpha, K):
    """P(z) = E[(1/z - 1/Z)+] and C(z) = E[log(Z/z); Z > z] of the Frechet
    law, with X = K z^-alpha: P = K^(-1/alpha) [X^(1/alpha) - gamma(1/alpha, X)/alpha]
    and C = (E1(X) + log X + gamma_em)/alpha."""
    a, K = mp.mpf(alpha), mp.mpf(K)

    def P(z):
        X = K * z ** -a
        return K ** (-1 / a) * (X ** (1 / a) - mp.gammainc(1 / a, 0, X) / a)

    def C(z):
        X = K * z ** -a
        return (mp.e1(X) + mp.log(X) + mp.euler) / a

    return P, C


def _rayleigh_tails():
    """P(z) = e^-z/z - E1(z) and C(z) = E1(z) for the exponential law."""
    return (lambda z: mp.exp(-z) / z - mp.e1(z)), mp.e1


class TestHeavyTailOaRa:
    """OA and RA where E[1/Z] diverges or the tail is a power law, from -60
    to +90 dB, against 30-digit closed forms of the cutoff and of C_OA.

    Worst relative errors measured (cutoff, C_OA): frechet(0.8) 1.8e-15,
    1.4e-15; frechet(2, K=4) 3.5e-16, 6.5e-16; gamma:N=1 2.7e-15, 3.1e-15;
    maxexp:K=1 2.7e-15, 2.2e-15. Each gate is 3x its law's.
    """

    LAWS = {
        "frechet08": (lambda: make_frechet(0.8), lambda: _frechet_tails(0.8, 1), 1.8e-15, 1.4e-15),
        "frechet2k4": (lambda: make_frechet(2.0, 4), lambda: _frechet_tails(2.0, 4), 3.5e-16, 6.5e-16),
        "gamma1": (lambda: make_gamma_diversity(1), _rayleigh_tails, 2.7e-15, 3.1e-15),
        "maxexp1": (lambda: make_max_exponential(1), _rayleigh_tails, 2.7e-15, 2.2e-15),
    }

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_oa_and_ra_match_closed_forms(self, name):
        build, tails, cut_err, cap_err = self.LAWS[name]
        dist = build()
        worst_cut = worst_cap = 0.0
        with mp.workdps(30):
            P, C = tails()
            for db in np.arange(-60.0, 90.1, 7.5):
                S = 10.0 ** (db / 10.0)
                oa, ra = oa_capacity(dist, S), ra_capacity(dist, S)
                for cap in (oa.capacity_nats, ra.capacity_nats):
                    assert math.isfinite(cap) and cap >= 0.0, (db, cap)
                assert abs(oa.power_constraint_residual) < 1e-9
                z_ref = mp.exp(mp.findroot(
                    lambda u: mp.log(P(mp.exp(u))) - mp.log(S), mp.log(oa.threshold_z_t)
                ))
                worst_cut = max(worst_cut, float(abs(oa.threshold_z_t - z_ref) / z_ref))
                cap_ref = C(z_ref)
                worst_cap = max(worst_cap, float(abs(oa.capacity_nats - cap_ref) / cap_ref))
        assert worst_cut <= 3.0 * cut_err
        assert worst_cap <= 3.0 * cap_err


@pytest.mark.parametrize("alpha", [10.0, 20.0, 50.0, 100.0])
def test_oa_and_ra_on_sharply_peaked_frechet_laws(alpha):
    # frechet(alpha, 1) holds its mass within about 1/alpha of z = 1, where
    # the survival table halves its panels. With X = Z^-alpha standard
    # exponential, E[log(1 + S Z)] is an integral against e^-X. Worst
    # measured: RA 1.3e-16, C_OA 4.9e-15 (alpha = 50).
    dist = make_frechet(alpha)
    worst = 0.0
    with mp.workdps(30):
        P, C = _frechet_tails(alpha, 1)
        a = mp.mpf(alpha)
        for S in (0.01, 1.0, 100.0, 1e4):
            ra_ref = mp.quad(lambda x: mp.log1p(S * x ** (-1 / a)) * mp.exp(-x),
                             [0, 1, 5, 20, 80, mp.inf])
            oa = oa_capacity(dist, S)
            z_ref = mp.exp(mp.findroot(
                lambda u: mp.log(P(mp.exp(u))) - mp.log(S), mp.log(oa.threshold_z_t)
            ))
            for got, ref in ((ra_capacity(dist, S).capacity_nats, ra_ref),
                             (oa.capacity_nats, C(z_ref))):
                worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-14


class TestGamma2ClosedForms:
    """RA, CI, TCI and CTCI on gamma:N=2 against the benchmark's 30-digit oracles."""

    # worst relative error measured from -60 to +90 dB in 5 dB steps at
    # z_t = 0.7, all four on the survival table or in closed form: RA
    # 2.2e-16 (7.1e-12 by QUADPACK), CTCI 1.8e-16 with the density on the
    # table's nodes (1.4e-15 by QUADPACK), TCI 2.0e-16, CI 1.1e-16; each
    # gate is at most 3x that, with a 1e-15 floor for CI and TCI. CTCI as
    # RA's survival sum capped at z_t measures 4.2e-16.
    GATES = {"ra": 6.5e-16, "ci": 1e-15, "tci": 1e-15, "ctci": 5.5e-16}

    @pytest.mark.parametrize("scheme", sorted(GATES))
    def test_matches_closed_form_from_minus_60_to_90_db(self, gamma2, scheme):
        worst = 0.0
        for db in range(-60, 91, 5):
            S = 10.0 ** (db / 10.0)
            with mp.workdps(oracles.DPS):
                ref = oracles.gamma2_capacity(scheme, S, 0.7)
            got = capacity(gamma2, Scheme(scheme), S, z_t=0.7).capacity_nats
            worst = max(worst, float(abs(got - ref) / ref))
        assert worst <= self.GATES[scheme]


class TestCtciAgainstOracles:
    """CTCI from -60 to +90 dB in 5 dB steps against 30-digit references
    that share no code with the library.

    The MISO and tabulated references are the benchmark's oracles: mpmath
    quadrature of the mixture density, and exact segment antiderivatives.
    Rayleigh has CTCI = e^(1/a) [E1(1/a) - E1(z_t + 1/a)] with a = S D_max
    and D_max = 1/(1 - e^-z_t + z_t E1(z_t)); at z_t = e^-gamma it raised
    ``QuadratureError`` at 75-80 dB while QUADPACK integrated the region
    below the cutoff. Worst relative errors measured with the density on
    the survival table's nodes are listed with each case; each gate is 3x
    that. As RA's survival sum capped at z_t, CTCI measures 4.3e-16,
    7.5e-16 and 5.9e-16 on miso22, and 5.0e-16, 1.2e-15 and 1.2e-15 on
    tab1, at z_t = 0.3, 1 and 3.
    """

    MEASURED = {
        ("miso22", 0.3): 2.3e-16, ("miso22", 1.0): 6.5e-16, ("miso22", 3.0): 6.0e-16,
        ("tab1", 0.3): 2.6e-16, ("tab1", 1.0): 1.5e-15, ("tab1", 3.0): 1.2e-15,
    }
    LAWS = {
        "miso22": (lambda: _miso_law(2, 2), lambda: oracles.miso_law(2, 2)),
        "tab1": (lambda: _workload_tab_law(1),
                 lambda: oracles.TabulatedLaw("tab1", workloads.tab_grid(1))),
    }

    @pytest.mark.parametrize("law, z_t", sorted(MEASURED))
    def test_matches_oracle_from_minus_60_to_90_db(self, law, z_t):
        build, reference = self.LAWS[law]
        dist, ref = build(), reference()
        worst = 0.0
        for db in range(-60, 91, 5):
            S = 10.0 ** (db / 10.0)
            with mp.workdps(oracles.DPS):
                expected = oracles.capacity(ref, "ctci", S, z_t)
            got = ctci_capacity(dist, S, z_t).capacity_nats
            worst = max(worst, float(abs(got - expected) / expected))
        assert worst <= 3.0 * self.MEASURED[law, z_t]

    def test_rayleigh_matches_closed_form_at_exp_minus_gamma(self):
        # worst measured 6.2e-16 as a capped survival sum (4.3e-16 with the
        # density on the table's nodes, 7.9e-16 by QUADPACK)
        rayleigh = make_gamma_diversity(1)
        z_t = math.exp(-0.5772156649015329)
        worst = 0.0
        with mp.workdps(30):
            z = mp.mpf(z_t)
            d_max = 1 / (1 - mp.exp(-z) + z * mp.e1(z))
            for db in range(-60, 91, 5):
                S = 10.0 ** (db / 10.0)
                a = S * d_max
                expected = mp.exp(1 / a) * (mp.e1(1 / a) - mp.e1(z + 1 / a))
                got = ctci_capacity(rayleigh, S, z_t).capacity_nats
                worst = max(worst, float(abs(got - expected) / expected))
        assert worst <= 1.3e-15


@pytest.mark.parametrize("law, integrators", [
    (lambda: _gamma_law(2), 0),
    (lambda: _tabulated_law(2.0), 0),
    (lambda: _scaled_gamma_law(3, 2.5), 0),
    (lambda: _miso_law(2, 2), 1),
], ids=["gamma2", "tabulated", "scaled_gamma3", "miso22"])
def test_ctci_cost_pin_integrals(monkeypatch, law, integrators):
    # the region below the cutoff is summed on the survival table's nodes;
    # only a law without a closed-form T integrates, once for T(z_t) over
    # all three powers, since the law memoizes T. The copy starts its memo
    # empty whatever other tests read on the cached law
    law = dataclasses.replace(law())
    calls = _watch_integrators(monkeypatch)
    for S in (1e-6, 10.0, 1e9):
        ctci_capacity(law, S, 1.0)
    assert len(calls) == integrators, calls


# laws whose T has no closed form, built afresh so that each starts its T memo empty
MEMO_LAWS = pytest.mark.parametrize("build", [
    lambda: make_miso_multiuser(2, 2), lambda: make_max_exponential(4),
    lambda: make_frechet(2.5, 3), lambda: make_miso_multiuser(2, 2).scaled(2.5),
], ids=["miso22", "maxexp4", "frechet25_3", "scaled_miso22"])


@MEMO_LAWS
def test_memoized_tail_gives_the_bits_of_a_fresh_law(build):
    # a sweep reads T from the memo that earlier powers filled; each result
    # must carry the bits that a law built for that power alone computes
    def results(law, S):
        opt = capacity(law, Scheme.TCI, S, optimize_threshold=True)
        rows = [oa_capacity(law, S), tci_capacity(law, S, 1.0), ctci_capacity(law, S, 1.0), opt]
        return [(r.capacity_nats.hex(), r.threshold_z_t.hex(), (r.d_max or 0.0).hex())
                for r in rows]

    swept = build()
    for db in range(-60, 91, 10):
        S = 10.0 ** (db / 10.0)
        assert results(swept, S) == results(build(), S), db


@MEMO_LAWS
def test_six_scheme_sweep_integrates_each_threshold_once(monkeypatch, build):
    # the six schemes of a fadecap sweep at 21 SNRs, TCI and CTCI sharing
    # z_t = 1, plus CTCI at z_t = 3: T depends on the law and the threshold
    # alone, so the sweep integrates it once per threshold
    law = build()
    calls = _watch_integrators(monkeypatch)
    for db in np.linspace(-10.0, 40.0, 21):
        S = 10.0 ** (db / 10.0)
        for scheme, z_t in (("awgn", None), ("oa", None), ("ra", None), ("ci", None),
                            ("tci", 1.0), ("ctci", 1.0), ("ctci", 3.0)):
            capacity(law, Scheme(scheme), S, z_t=z_t)
    assert len(calls) == 2, calls


@pytest.mark.parametrize("law", [lambda: _gamma_law(2), lambda: _tabulated_law(2.0)],
                         ids=["gamma2", "tabulated"])
def test_ctci_reads_no_density_once_the_law_is_built(law):
    # CTCI is RA's survival sum capped at z_t, with D_max from F and a
    # closed-form T: every density evaluation happens while the law, or a
    # scaled law's table, is built
    calls = []

    def counted(pdf):
        return lambda z: calls.append(z) or pdf(z)

    base = law()
    base = dataclasses.replace(base, pdf=counted(base.pdf))
    scaled = base.scaled(2.5)
    for dist in (base, scaled):
        _ = dist.survival_table  # built here, as the law is
        calls.clear()
        for S in (1e-6, 10.0, 1e9):
            for z_t in (0.3, 1.0, 4.0, 50.0):
                ctci_capacity(dist, S, z_t)
        assert not calls, dist.name


@pytest.mark.parametrize("law", [
    lambda: _tabulated_law(2.0), lambda: _workload_tab_law(1), lambda: spike_at(2.0),
    lambda: _tabulated_law(2.0).scaled(3.0),
], ids=["tabulated", "tab1", "spike", "scaled_tabulated"])
def test_ctci_at_or_above_the_support_top_is_ra_bit_for_bit(law):
    # D_max = 1 there, and the capped sum takes every node of the table
    law = law()
    for S in 10.0 ** np.arange(-6.0, 9.1, 1.5):
        ra = ra_capacity(law, S).capacity_nats
        for z_t in (law.support_sup, 2.0 * law.support_sup):
            assert ctci_capacity(law, S, z_t).capacity_nats == ra, (S, z_t)


@pytest.mark.parametrize("law", [
    lambda: _gamma_law(2), lambda: _miso_law(2, 2), lambda: _workload_tab_law(1),
    lambda: _frechet_law(0.8, 1), lambda: spike_at(2.0),
], ids=["gamma2", "miso22", "tab1", "frechet08", "spike"])
def test_oa_capacity_reads_each_cutoff_once(monkeypatch, law):
    # C_OA comes from the table read that gave P at the returned cutoff:
    # oa_capacity reads the table once per integrated cutoff, and reads the
    # panel edges and the closed form below the table without integrating
    law = law()
    original = numerics.SurvivalTable.tails
    reads = []

    def counted(table, z):
        reads.append(z)
        return original(table, z)

    monkeypatch.setattr(numerics.SurvivalTable, "tails", counted)
    for db in np.arange(-60.0, 90.1, 7.5):
        S = 10.0 ** (db / 10.0)
        iterations = oa_threshold(law, S).iterations
        reads.clear()
        result = oa_capacity(law, S)
        assert len(reads) == iterations, db
        fresh = law.survival_table.tails(result.threshold_z_t)[1]
        assert result.capacity_nats == pytest.approx(fresh, rel=1e-14, abs=0.0), db


LOW_SNR_LAWS = {
    "gamma2": functools.partial(_gamma_law, 2),
    "gamma64": functools.partial(_gamma_law, 64),
    "maxexp1": functools.partial(_maxexp_law, 1),
    "maxexp64": functools.partial(_maxexp_law, 64),
    "miso22": functools.partial(_miso_law, 2, 2),
    "miso64_4": functools.partial(_miso_law, 64, 4),
    "frechet50": functools.partial(make_frechet, 50.0),
    "frechet2.5_3": functools.partial(make_frechet, 2.5, 3),
    "frechet1.01_8": functools.partial(make_frechet, 1.01, 8),
    "tab3": lambda: make_tabulated(workloads.tab_grid(3)),
    "gamma2_x1e9": functools.partial(_scaled_gamma_law, 2, 1e9),
    "gamma2_x1e-9": functools.partial(_scaled_gamma_law, 2, 1e-9),
}


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

    @pytest.mark.parametrize("name", sorted(LOW_SNR_LAWS))
    def test_beats_awgn_ever_more_at_low_snr_on_every_family(self, name):
        # the paper's low-SNR claim: fading helps OA, whose capacity falls
        # more slowly than AWGN's as the SNR falls. At S E[z] = 1e-4, 1e-6
        # and 1e-8 the ratios measured from 1.12 (frechet50, 1e-4) to 1325
        # (frechet1.01_8, 1e-8)
        law = LOW_SNR_LAWS[name]()
        ratios = []
        for k in (4, 6, 8):
            S = 10.0 ** -k / law.mean
            ratios.append(oa_capacity(law, S).capacity_nats / awgn_capacity(law, S).capacity_nats)
        assert 1.0 < ratios[0] < ratios[1] < ratios[2], ratios


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

    def test_nan_from_the_table_is_not_hidden(self, monkeypatch, gamma2):
        # a capacity is a sum of nonnegative terms, so nothing clips it: a
        # fault that makes it NaN shows as NaN, not as a zero capacity
        monkeypatch.setattr(numerics.SurvivalTable, "log1p_expectation",
                            lambda table, s, cap=math.inf: math.nan)
        assert math.isnan(ra_capacity(gamma2, 10.0).capacity_nats)


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
    @pytest.mark.parametrize("z_t", [1.0, 10.0, 20.0, 30.0, 35.0, 40.0])
    def test_far_tail_keeps_the_survival_digits(self, gamma2, z_t):
        # gamma:N=2 has sf = (1 + z) e^-z and T = e^-z, so the capacity is
        # (1 + z_t) e^-z_t log(1 + S e^z_t) and the low-SNR slope sf / T is
        # 1 + z_t. 1 - F(z_t) keeps none of sf's digits by z_t = 40.
        S = 1e3
        with mp.workdps(40):
            z = mp.mpf(z_t)
            exact = float((1 + z) * mp.exp(-z) * mp.log1p(S * mp.exp(z)))
        assert tci_capacity(gamma2, S, z_t).capacity_nats == pytest.approx(exact, rel=1e-15)
        assert low_snr_slope(gamma2, Scheme.TCI, z_t) == pytest.approx(1.0 + z_t, rel=1e-15)

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

    def counted(dist, t, *args):
        points.append(t)
        return original(dist, t, *args)

    monkeypatch.setattr(FadingDistribution, "tail_inverse_integral", counted)
    capacity_fn(miso22, 10.0, 1.0)
    assert points == [1.0]


def _frechet_tci_optimum(alpha, K, S, bracket):
    """The 30-digit root t of TCI's first-order condition on frechet(alpha, K),
    sf S / (t T (T + S)) = log(1 + S/T), and the capacity sf log(1 + S/T)
    there, with X = K t^-alpha, sf = 1 - e^-X and T = K^(-1/alpha)
    Gamma(1 + 1/alpha) P(1 + 1/alpha, X). A float scan of the bracket finds
    the one cell where the condition changes sign."""
    a = 1.0 + 1.0 / alpha
    t = np.geomspace(bracket.lo, bracket.hi, 200)
    with np.errstate(over="ignore"):
        X = K * t ** -alpha
    T = K ** (-1.0 / alpha) * special.gamma(a) * special.gammainc(a, X)
    foc = -np.expm1(-X) * S / (t * T * (T + S)) - np.log1p(S / T)
    cell, = np.nonzero(np.sign(foc[:-1]) != np.sign(foc[1:]))
    assert cell.size == 1, cell
    with mp.workdps(30):
        al, k, s = mp.mpf(alpha), mp.mpf(K), mp.mpf(S)

        def sf_T(t):
            X = k * t ** -al
            return -mp.expm1(-X), k ** (-1 / al) * mp.gammainc(1 + 1 / al, 0, X)

        def foc_mp(t):
            sf, T = sf_T(t)
            return sf * s / (t * T * (T + s)) - mp.log1p(s / T)

        root = mp.findroot(foc_mp, (mp.mpf(t[cell[0]]), mp.mpf(t[cell[0] + 1])),
                           solver="anderson")
        sf, T = sf_T(root)
        return float(root), float(sf * mp.log1p(s / T))


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

    @pytest.mark.parametrize("law, integrates", [
        (lambda: _gamma_law(2), False),
        (lambda: _tabulated_law(2.0), False),
        (lambda: _scaled_gamma_law(3, 2.5), False),
        (lambda: _miso_law(2, 2), True),
    ], ids=["gamma2", "tabulated", "scaled_gamma3", "miso22"])
    def test_cost_pin_integrals(self, monkeypatch, law, integrates):
        # F and a closed-form T are all tci_optimize needs; a law without
        # a closed-form T integrates it at every threshold it has not read
        # before, here on a copy whose memo starts empty
        law = dataclasses.replace(law())
        calls = _watch_integrators(monkeypatch)
        tci_optimize(law, 10.0)
        assert bool(calls) == integrates

    def test_sweep_integrates_the_shared_grid_once(self, monkeypatch):
        # the 64-point grid does not depend on S, so a 3-SNR sweep
        # integrates it once and then only the thresholds each root solve
        # tries: at most 5 per SNR
        law = make_miso_multiuser(2, 2)
        calls = _watch_integrators(monkeypatch)
        iterations = []
        for db in (0.0, 14.0, 28.0):
            iterations.append(tci_optimize(law, 10.0 ** (db / 10.0))[0].iterations)
        assert len(calls) <= numerics._MAXIMIZE_GRID + 5 * 3, len(calls)
        # iterations counts every threshold read in the call, memo hits included
        assert min(iterations) > numerics._MAXIMIZE_GRID, iterations

    def test_memo_keeps_the_grid_alone(self, monkeypatch):
        # the root solve's thresholds depend on S, so the law stores T on the
        # grid alone, however many powers it is optimized at, and a repeat at
        # one power integrates again only the thresholds its root solve reads
        law = make_miso_multiuser(2, 2)
        for db in (0.0, 14.0, 28.0):
            tci_optimize(law, 10.0 ** (db / 10.0))
        assert len(law._tail_memo) == numerics._MAXIMIZE_GRID
        calls = _watch_integrators(monkeypatch)
        first = tci_optimize(law, 10.0 ** 1.4)
        assert 0 < len(calls) <= 5, len(calls)
        assert len(law._tail_memo) == numerics._MAXIMIZE_GRID
        assert first == tci_optimize(law, 10.0 ** 1.4)

    @pytest.mark.parametrize("law", ["gamma2", "miso22", "tab"])
    def test_threshold_solves_the_first_order_condition(self, law):
        # the oracle's optimum is a 30-digit root of the first-order
        # condition; measured worst 2.3e-14 relative in z_t (gamma2, 45 dB)
        # and 8.9e-16 nats
        dist = workloads.build_law(cli, distributions, law, 3)
        ref = {"gamma2": oracles.gamma2_law, "miso22": lambda: oracles.miso_law(2, 2),
               "tab": lambda: oracles.TabulatedLaw("tab3", workloads.tab_grid(3))}[law]()
        bracket = schemes._default_threshold_bracket(dist)
        for snr_db in (0, 14, 28, 45):
            S = 10.0 ** (snr_db / 10.0)
            solution, best = tci_optimize(dist, S)
            with mp.workdps(oracles.DPS):
                z_ref, c_ref = oracles.tci_best(ref, S, bracket.lo, bracket.hi)
            assert solution.z_t == pytest.approx(float(z_ref), rel=1e-12, abs=0.0), snr_db
            assert abs(best.capacity_nats - float(c_ref)) <= 1e-15, snr_db

    @pytest.mark.parametrize("alpha, K", [(2.5, 3), (50.0, 1), (3.0, 2)])
    def test_frechet_threshold_is_the_root_past_a_flat_capacity(self, alpha, K):
        # at small thresholds a Frechet law's TCI capacity is flat to the
        # last bit, as F(z_t) = exp(-K z_t^-alpha) is, while the first-order
        # condition still rises: the threshold is the condition's root past
        # that plateau, not the plateau's first grid point. Measured worst
        # 4.8e-13 relative in z_t and 3.6e-15 nats
        dist = make_frechet(alpha, K)
        bracket = schemes._default_threshold_bracket(dist)
        for snr_db in range(-15, 91, 15):
            S = 10.0 ** (snr_db / 10.0)
            solution, best = tci_optimize(dist, S)
            z_ref, c_ref = _frechet_tci_optimum(alpha, K, S, bracket)
            assert solution.z_t == pytest.approx(z_ref, rel=1e-11, abs=0.0), snr_db
            assert abs(best.capacity_nats - c_ref) <= 1e-14, snr_db

    def test_large_miso_law_leaks_no_warning(self):
        # MISO's sf reads log1p(-Q) only where P > 1/2; where P is near 0
        # the Poisson sum Q can round to 1 + 4.4e-16, and a log1p of it on
        # every element warned "invalid value", an error under this suite
        law = make_miso_multiuser(64, 4)
        for db in (-60, 15, 90):
            solution, best = tci_optimize(law, 10.0 ** (db / 10.0))
            assert solution.z_t > 0.0 and math.isfinite(best.capacity_nats), db

    @pytest.mark.parametrize("S", [1.0, 25.0])
    def test_bounded_law_matches_30_digit_optimum(self, S):
        # on a bounded support the default bracket ends at
        # support_sup * (1 - 1e-9); measured error 4.4e-16 nats
        grid = workloads.tab_grid(3)
        law = make_tabulated(grid)
        _, best = tci_optimize(law, S)
        ref = oracles.TabulatedLaw("tab3", grid)
        with mp.workdps(oracles.DPS):
            _, ref_cap = oracles.tci_best(ref, S, 1e-4, float(ref.top) * (1 - 1e-9))
        assert abs(best.capacity_nats - float(ref_cap)) <= 1e-12

    @pytest.mark.parametrize("law", [
        lambda: _gamma_law(2), lambda: _miso_law(2, 2), lambda: _workload_tab_law(1),
        lambda: _frechet_law(2.5, 3),
    ], ids=["gamma2", "miso22", "tab1", "frechet25_3"])
    def test_reads_each_threshold_once(self, monkeypatch, law):
        # the capacity, the first-order condition and its derivative share
        # one read of T per threshold, the optimum's included
        law = law()
        original = FadingDistribution.tail_inverse_integral
        points = []

        def counted(dist, t, *args):
            points.append(t)
            return original(dist, t, *args)

        monkeypatch.setattr(FadingDistribution, "tail_inverse_integral", counted)
        for db in range(-60, 91, 30):
            points.clear()
            solution, result = tci_optimize(law, 10.0 ** (db / 10.0))
            assert len(set(points)) == len(points) == solution.iterations, db
            assert result.threshold_z_t == solution.z_t in points, db

    @pytest.mark.parametrize("law", [
        lambda: _gamma_law(2), lambda: _miso_law(2, 2), lambda: _workload_tab_law(1),
        lambda: _workload_tab_law(2), lambda: _workload_tab_law(3), lambda: _frechet_law(2.5, 3),
        lambda: _frechet_law(50.0, 1), lambda: _frechet_law(3.0, 2),
    ], ids=["gamma2", "miso22", "tab1", "tab2", "tab3", "frechet25_3", "frechet50_1",
            "frechet3_2"])
    def test_a_root_of_the_first_order_condition_wins_where_one_exists(self, monkeypatch, law):
        # wherever the condition falls through zero between two grid points,
        # the threshold is a root inside that cell, not the best grid point
        law = law()
        search = {}

        def spy(h, bracket, *, foc, dfoc):
            search.update(bracket=bracket, foc=foc)
            return numerics.maximize_unimodal(h, bracket, foc=foc, dfoc=dfoc)

        monkeypatch.setattr(schemes, "maximize_unimodal", spy)
        falls = 0
        for db in range(-60, 91, 10):
            solution, _ = tci_optimize(law, 10.0 ** (db / 10.0))
            bracket = search["bracket"]
            grid = np.geomspace(bracket.lo, bracket.hi, 64).tolist()
            signs = [search["foc"](math.log(x)) for x in grid]
            if any(a > 0.0 > b for a, b in zip(signs, signs[1:])):
                falls += 1
                assert solution.z_t not in grid, db
        assert falls > 0


class TestCtci:
    def test_zero_threshold_is_inversion_exactly(self, gamma2):
        res = ctci_capacity(gamma2, 1.0, 0.0)
        assert res.capacity_nats == ci_capacity(gamma2, 1.0).capacity_nats
        assert math.isinf(res.d_max)

    def test_zero_threshold_power_ratio_is_infinite(self, gamma2):
        assert ctci_dmax(gamma2, 0.0) == math.inf

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

    TCI's and CTCI's D_max meet the constraint by definition and carry no
    residual; multiplying D_max back by the T and F that set it would only
    test rounding, so E[D] is integrated here from the density alone.
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

    @pytest.mark.parametrize("c", [0.2, 3.0])
    @pytest.mark.parametrize("z0", [0.0, 0.5])
    def test_scaled_tabulated_law_matches_scaled_grid(self, c, z0):
        # one law of c z by two routes: scaled() evaluates the base density
        # at z / c on the scaled knots, make_tabulated interpolates the
        # scaled grid itself
        z = np.linspace(z0, 8.0, 25)
        grid = np.column_stack([z, z * np.exp(-z)])
        scaled = make_tabulated(grid).scaled(c)
        direct = make_tabulated(np.column_stack([c * grid[:, 0], grid[:, 1] / c]))

        def figures(dist, S):
            cutoff = oa_threshold(dist, S).z_t
            return [
                cutoff,
                dist.tail_inverse_integral(cutoff),
                dist.tail_inverse_integral(c),
                oa_capacity(dist, S).capacity_nats,
                ra_capacity(dist, S).capacity_nats,
                ci_capacity(dist, S).capacity_nats,
                tci_capacity(dist, S, c).capacity_nats,
                ctci_capacity(dist, S, c).capacity_nats,
            ]

        for db in np.arange(-20.0, 41.0, 5.0):
            S = 10.0 ** (db / 10.0)
            np.testing.assert_allclose(
                figures(scaled, S), figures(direct, S), rtol=1e-13, atol=0.0, err_msg=f"{db} dB"
            )

    def test_dispatch_helper(self, gamma2):
        assert capacity(gamma2, Scheme.RA, 1.0).scheme is Scheme.RA
        assert capacity(gamma2, "awgn", 1.0).scheme is Scheme.AWGN
        assert capacity(gamma2, Scheme.TCI, 1.0, z_t=1.0).threshold_z_t == 1.0
        with pytest.raises(ValueError):
            capacity(gamma2, Scheme.TCI, 1.0)
        with pytest.raises(ValueError):
            capacity(gamma2, Scheme.CTCI, 1.0)


# ---------------------------------------------------------------------------
# Proved relations between the schemes, on drawn laws, scales and SNRs
# ---------------------------------------------------------------------------


@functools.cache
def _frechet_law(alpha, K):
    return make_frechet(alpha, K)


@functools.cache
def _workload_tab_law(seed):
    return make_tabulated(workloads.tab_grid(seed))


@functools.cache
def _scaled(law, c):
    return law.scaled(c)


BASE_LAWS = st.one_of(
    st.builds(_gamma_law, st.integers(1, 4)),
    st.builds(_maxexp_law, st.integers(1, 4)),
    st.builds(_miso_law, st.integers(1, 3), st.integers(1, 3)),
    st.builds(_frechet_law, st.floats(0.8, 4.0).map(lambda a: round(a, 2)), st.integers(1, 3)),
    st.builds(_workload_tab_law, st.integers(0, 3)),
    st.builds(_tabulated_law, st.sampled_from([1.3, 2.0, 3.5])),
)
SCALES = st.floats(-2.0, 2.0).map(lambda e: round(10.0 ** e, 3))
LAWS = st.one_of(BASE_LAWS, st.builds(_scaled, BASE_LAWS, SCALES))
SNRS_DB = st.floats(-60.0, 90.0)


def _power(db):
    return 10.0 ** (db / 10.0)


def _at_most(a, b, rel):
    return a <= b + rel * max(1.0, abs(b))


def _assert_log1p_bounds(C, S, log_x_mean, inverse_x_mean, x_mean):
    # C = E[log(1 + S X)] = log S + E[log X] + E[log1p(1/(S X))], and
    # 0 <= log1p(x) <= x: C exceeds log S + E[log X] by at most E[1/X]/S,
    # and is at most S E[X]. An infinite moment bounds nothing
    excess = C - math.log(S) - log_x_mean
    tol = 1e-12 * max(1.0, abs(C), abs(math.log(S)))
    assert excess >= -tol
    if math.isfinite(inverse_x_mean):
        assert excess <= inverse_x_mean / S + tol
    if math.isfinite(x_mean):
        assert C <= S * x_mean + tol


class TestProvedRelations:
    """Relations that hold for every law; each side is computed by its own
    route, so the checks are independent of each other's numerics. The
    tolerances are the routes' accuracies: 1e-12 relative for the survival
    table and closed forms, 1e-9 where TCI or CTCI integrate by QUADPACK."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(law=LAWS, snr_db=SNRS_DB, cut=st.floats(-2.0, 0.0))
    def test_ordering(self, law, snr_db, cut):
        # CI <= RA: log(1 + S/x) is convex in x = 1/z (Jensen); OA is the
        # optimal policy, so RA, TCI and CTCI are at most OA; RA <= AWGN by
        # Jensen when E[z] is finite
        S = _power(snr_db)
        z_t = math.exp(law.log_mean) * 10.0 ** cut
        oa = oa_capacity(law, S).capacity_nats
        ra = ra_capacity(law, S).capacity_nats
        assert _at_most(ci_capacity(law, S).capacity_nats, ra, 1e-12)
        assert _at_most(ra, oa, 1e-12)
        assert _at_most(tci_capacity(law, S, z_t).capacity_nats, oa, 1e-9)
        assert _at_most(ctci_capacity(law, S, z_t).capacity_nats, oa, 1e-9)
        if law.mean_finite:
            assert _at_most(ra, awgn_capacity(law, S).capacity_nats, 1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(law=LAWS, snr_db=SNRS_DB, step_db=st.floats(0.0, 30.0))
    def test_oa_and_ra_do_not_decrease_in_power(self, law, snr_db, step_db):
        low, high = _power(snr_db), _power(min(snr_db + step_db, 90.0))
        for fn in (oa_capacity, ra_capacity):
            assert _at_most(fn(law, low).capacity_nats, fn(law, high).capacity_nats, 1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(law=LAWS, snr_db=SNRS_DB)
    def test_ra_lies_within_its_log1p_bounds(self, law, snr_db):
        # X = z. RA sums sf on the survival table; the moments are closed
        # forms or the table's density sums
        S = _power(snr_db)
        _assert_log1p_bounds(ra_capacity(law, S).capacity_nats, S,
                             law.log_mean, law.inverse_mean, law.mean)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(law=LAWS, snr_db=SNRS_DB, cut=st.floats(-2.0, 0.0))
    def test_ctci_lies_within_its_log1p_bounds(self, law, snr_db, cut):
        # X = D_max min(z, z_t), whose moments come from the law's moments,
        # T and the table's tails, not from CTCI's capped log1p sum:
        # E[log min(z, z_t)] = E[log z] - C(z_t), with C(z_t) =
        # E[log(z/z_t); z > z_t]; E[1/min(z, z_t)] = E[1/z] - T(z_t) +
        # sf(z_t)/z_t; E[min(z, z_t)] is the integral of sf over [0, z_t]
        S, z_t = _power(snr_db), math.exp(law.log_mean) * 10.0 ** cut
        result = ctci_capacity(law, S, z_t)
        d_max, table = result.d_max, law.survival_table
        inverse_min = (law.inverse_mean - law.tail_inverse_integral(z_t)
                       + float(law.sf(z_t)) / z_t)
        _assert_log1p_bounds(result.capacity_nats, S,
                             math.log(d_max) + law.log_mean - table.tails(z_t)[1],
                             inverse_min / d_max, d_max * table.sf_integral(z_t))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(law=BASE_LAWS, c=SCALES, snr_db=SNRS_DB, cut=st.floats(-2.0, 0.0))
    def test_scaled_law_is_the_base_law_at_scaled_power(self, law, c, snr_db, cut):
        S = _power(snr_db)
        scaled = _scaled(law, c)
        for fn in (oa_capacity, ra_capacity):
            got, expected = fn(scaled, S).capacity_nats, fn(law, c * S).capacity_nats
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), fn.__name__
        assert oa_threshold(scaled, S).z_t == pytest.approx(c * oa_threshold(law, c * S).z_t, rel=1e-12)
        # a threshold scales with the gain; the scaled law's T maps the base
        # law's, and its table is built on its own
        z_t = math.exp(law.log_mean) * 10.0 ** cut
        for fn in (tci_capacity, ctci_capacity):
            got, expected = fn(scaled, S, c * z_t).capacity_nats, fn(law, c * S, z_t).capacity_nats
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-300), fn.__name__
