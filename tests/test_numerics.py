"""Quadrature, root-finding and maximization kernels."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from fadecap.numerics import (
    Bracket,
    BracketError,
    QuadratureError,
    QuadResult,
    SurvivalTable,
    find_root_monotone,
    integrate_finite,
    integrate_semi_infinite,
    maximize_unimodal,
)


class TestSemiInfiniteQuadrature:
    def test_exponential_normalization(self):
        res = integrate_semi_infinite(lambda z: math.exp(-z), 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.abs_error_estimate >= 0.0
        assert res.evaluations >= 1

    def test_gamma2_normalization(self):
        res = integrate_semi_infinite(lambda z: z * math.exp(-z), 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_power_law_tail(self):
        res = integrate_semi_infinite(lambda z: z**-3, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_shifted_lower_end(self):
        res = integrate_semi_infinite(lambda z: math.exp(-z), 3.0)
        assert res.value == pytest.approx(math.exp(-3.0), rel=1e-10)

    def test_knots_catch_narrow_feature(self):
        # a bump of width 0.02 at z = 3 is invisible to the first
        # coarse rule without a forced subdivision point
        def bump(z):
            return max(0.0, 1.0 - abs(z - 3.0) / 0.01) / 0.01

        res = integrate_semi_infinite(bump, 0.0, knots=(2.99, 3.0, 3.01))
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_nonconvergent_integrand_raises_with_partial(self):
        # Fresnel-type oscillation is only conditionally convergent;
        # adaptive subdivision gives up and must surface its best guess
        with pytest.raises(QuadratureError) as excinfo:
            integrate_semi_infinite(lambda z: math.cos(z * z), 0.0)
        assert isinstance(excinfo.value.partial, QuadResult)
        assert math.isfinite(excinfo.value.partial.value)

    def test_bad_rel_tol(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda z: math.exp(-z), 0.0, rel_tol=0.0)


class TestFiniteQuadrature:
    def test_constant(self):
        assert integrate_finite(lambda z: 1.0, 0.0, 1.0).value == pytest.approx(1.0)

    def test_linear(self):
        assert integrate_finite(lambda z: z, 0.0, 2.0).value == pytest.approx(2.0)

    def test_log_endpoint_singularity(self):
        res = integrate_finite(math.log, 0.0, 1.0)
        assert res.value == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_interval_is_exact_zero(self):
        res = integrate_finite(lambda z: 1e10, 0.7, 0.7)
        assert res.value == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda z: 1.0, 1.0, 0.0)

    def test_linearity_property(self):
        # integrate(a f + b g) = a integrate(f) + b integrate(g)
        rng = np.random.default_rng(42)
        rel_tol = 1e-10
        for _ in range(10):
            c = rng.normal(size=4)
            a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            f = lambda z: c[0] * math.sin(z) + c[1] * z * z
            g = lambda z: c[2] * math.exp(-z) + c[3] * math.cos(2 * z)
            combined = integrate_finite(
                lambda z: a * f(z) + b * g(z), 0.0, 3.0, rel_tol
            ).value
            separate = (
                a * integrate_finite(f, 0.0, 3.0, rel_tol).value
                + b * integrate_finite(g, 0.0, 3.0, rel_tol).value
            )
            scale = max(1.0, abs(combined))
            assert abs(combined - separate) <= 10.0 * rel_tol * scale


class TestRootFinding:
    def test_linear(self):
        root = find_root_monotone(lambda x: x - 2.0, Bracket(0.0, 5.0), tol=1e-12)
        assert root == pytest.approx(2.0, abs=1e-10)

    def test_log(self):
        root = find_root_monotone(math.log, Bracket(0.1, 10.0))
        assert root == pytest.approx(1.0, abs=1e-10)

    def test_water_filling_constraint_residual(self):
        # cutoff for the two-branch diversity gain at unit power; the
        # defining constraint itself is the oracle
        def constraint(z_t):
            integral = integrate_semi_infinite(
                lambda z: (1.0 / z_t - 1.0 / z) * z * math.exp(-z), z_t
            ).value
            return integral - 1.0

        z_t = find_root_monotone(constraint, Bracket(1e-6, 1.0), tol=1e-14)
        assert abs(constraint(z_t)) < 1e-9
        # closed form: z_t e^{z_t} = 1, the omega constant
        assert z_t == pytest.approx(0.5671432904097838, abs=1e-9)

    def test_residual_scales_with_derivative(self):
        for fn, dfn, bracket in [
            (lambda x: x**3 - 8.0, lambda x: 3 * x * x, Bracket(0.0, 5.0)),
            (lambda x: math.expm1(x - 1.0), lambda x: math.exp(x - 1.0), Bracket(0.0, 3.0)),
        ]:
            tol = 1e-10
            root = find_root_monotone(fn, bracket, tol=tol)
            assert abs(fn(root)) <= 10.0 * abs(dfn(root)) * tol

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 2.0)


# (g, g', bracket, root): increasing and decreasing, with Newton steps from
# bracket.lo that start at a zero slope (cube), overshoot the bracket
# (atan) or converge from one side (log, reciprocal), and a log-power
# constraint log(1/z - 1) = log 10 in u = log z
NEWTON_CASES = [
    (lambda x: x**3 - 8.0, lambda x: 3.0 * x * x, Bracket(0.0, 5.0), 2.0),
    (lambda x: math.expm1(x - 1.0), lambda x: math.exp(x - 1.0), Bracket(0.0, 3.0), 1.0),
    (lambda x: math.atan(x - 0.3), lambda x: 1.0 / (1.0 + (x - 0.3) ** 2),
     Bracket(-40.0, 10.0), 0.3),
    (math.log, lambda x: 1.0 / x, Bracket(0.1, 10.0), 1.0),
    (lambda x: 1.0 / x - 2.0, lambda x: -1.0 / (x * x), Bracket(0.01, 10.0), 0.5),
    (lambda u: math.log(math.exp(-u) - 1.0) - math.log(10.0),
     lambda u: -1.0 / (1.0 - math.exp(u)), Bracket(-5.0, -1e-9), -math.log(11.0)),
]


class TestNewtonRootFinding:
    @pytest.mark.parametrize("g, dg, bracket, root", NEWTON_CASES)
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
    def test_converges_to_tol(self, g, dg, bracket, root, tol):
        got = find_root_monotone(g, bracket, tol=tol, dg=dg)
        assert bracket.lo <= got <= bracket.hi
        assert abs(got - root) <= tol + 8.0 * np.spacing(abs(root))

    @pytest.mark.parametrize("g, dg, bracket, root", NEWTON_CASES)
    def test_fewer_evaluations_than_brent(self, g, dg, bracket, root):
        def counting(fn, points):
            def wrapped(x):
                points.append(x)
                return fn(x)
            return wrapped

        newton, brent = [], []
        find_root_monotone(counting(g, newton), bracket, tol=1e-12, dg=dg)
        find_root_monotone(counting(g, brent), bracket, tol=1e-12)
        assert len(newton) <= len(brent)

    def test_bisects_when_newton_leaves_the_bracket(self):
        points = []

        def g(x):
            points.append(x)
            return math.atan(x)

        # the tangent at -20 crosses zero near +590, far outside the bracket
        root = find_root_monotone(g, Bracket(-20.0, 1.0), tol=1e-12,
                                  dg=lambda x: 1.0 / (1.0 + x * x))
        assert points[2] == -9.5
        assert abs(root) <= 1e-12

    @pytest.mark.parametrize("slope", [0.0, math.nan, -1.0, math.inf])
    def test_bisects_when_the_slope_is_unusable(self, slope):
        # zero, NaN, wrong-signed and infinite slopes give pure bisection:
        # one halving of the bracket per evaluation
        points = []

        def g(x):
            points.append(x)
            return x - 0.7

        root = find_root_monotone(g, Bracket(0.0, 1.0), tol=1e-10, dg=lambda x: slope)
        assert abs(root - 0.7) <= 1e-10
        assert points[2:5] == [0.5, 0.75, 0.625]
        assert len(points) <= 2 + math.ceil(math.log2(1.0 / 1e-10)) + 1

    def test_bisects_where_g_is_not_finite(self):
        # -inf on the right, as a log of a non-positive value reads
        def g(x):
            return math.log(1.0 - x) if x < 1.0 else -math.inf

        root = find_root_monotone(g, Bracket(-1.0, 3.0), tol=1e-13,
                                  dg=lambda x: -1.0 / (1.0 - x) if x < 1.0 else math.nan)
        assert abs(root) <= 1e-13

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root_monotone(lambda x: x * x + 1.0, Bracket(-1.0, 1.0),
                               dg=lambda x: 2.0 * x)

    def test_endpoint_root_is_returned(self):
        assert find_root_monotone(lambda x: x - 1.0, Bracket(1.0, 2.0), dg=lambda x: 1.0) == 1.0
        assert find_root_monotone(lambda x: x - 2.0, Bracket(1.0, 2.0), dg=lambda x: 1.0) == 2.0


class TestMaximizeUnimodal:
    def test_parabola(self):
        x, v = maximize_unimodal(lambda x: -((x - 3.0) ** 2), Bracket(0.0, 10.0), tol=1e-10)
        assert x == pytest.approx(3.0, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_x_exp_minus_x(self):
        x, _ = maximize_unimodal(lambda x: x * math.exp(-x), Bracket(0.0, 10.0), tol=1e-10)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_value_dominates_bracket_ends(self):
        h = lambda x: math.sin(x)
        x, v = maximize_unimodal(h, Bracket(0.5, 3.0))
        assert v >= h(0.5) and v >= h(3.0)

    def test_log_bracket(self):
        h = lambda x: -((math.log(x) - math.log(0.01)) ** 2)
        x, _ = maximize_unimodal(h, Bracket(1e-6, 1e2), tol=1e-10)
        assert x == pytest.approx(0.01, rel=1e-4)

    @pytest.mark.parametrize("lo, spacing", [(0.0, np.linspace), (1e-3, np.geomspace)])
    def test_plateau_keeps_first_grid_point_on_it(self, lo, spacing):
        # min(x, 1) is flat from x = 1: no refined point is strictly
        # better, so the first grid point on the plateau is returned
        grid = spacing(lo, 3.0, 64)
        x, v = maximize_unimodal(lambda x: min(x, 1.0), Bracket(lo, 3.0))
        assert (x, v) == (float(grid[grid >= 1.0][0]), 1.0)


# (sf, cdf, pdf) of Z uniform on [1, 2] and of the exponential law
UNIFORM_1_2 = (lambda z: np.clip(2.0 - z, 0.0, 1.0), lambda z: np.clip(z - 1.0, 0.0, 1.0),
               lambda z: np.where((1.0 <= z) & (z <= 2.0), 1.0, 0.0))
EXPONENTIAL = (lambda z: np.exp(-z), lambda z: -np.expm1(-z), lambda z: np.exp(-z))


class TestSurvivalTable:
    """P(z) = int_z^inf sf/y^2, C(z) = int_z^inf sf/y and E[log(1 + sZ)]
    against closed forms, below, inside and above the table."""

    def test_uniform_law_on_a_bounded_support(self):
        # Z uniform on [1, 2]: F = 0 below 1, so the table starts there and
        # sf = 1 below it exactly; it stops at the support top
        # The nodes are exp(u), rounded, so sf = 2 - y next to the top is off
        # by about an ulp of 2: 6.6e-14 relative on P(1.999) = 1.3e-7
        table = SurvivalTable(*UNIFORM_1_2, knots=(1.0, 2.0), top=2.0)
        assert table.lo == 1.0 and math.exp(table.u_edges[-1]) == pytest.approx(2.0)
        assert table.mass == pytest.approx(1.0, rel=1e-15)
        assert table.sf_integral() == pytest.approx(1.5, rel=1e-15)
        with mp.workdps(30):
            for z in (1e-9, 0.3, 1.0, 1.2, 1.7, 1.999, 2.0, 5.0):
                x = mp.mpf(z)
                if z <= 1.0:
                    P, C = 1 / x - mp.log(2), 2 * mp.log(2) - 1 - mp.log(x)
                else:
                    x = min(x, 2)
                    P, C = 2 / x - 1 - mp.log(2 / x), 2 * mp.log(2 / x) - (2 - x)
                got = table.tails(z)
                assert got[0] == pytest.approx(float(P), rel=1e-14, abs=1e-19), z
                assert got[1] == pytest.approx(float(C), rel=1e-14, abs=1e-19), z
        for s in (1e-6, 1.0, 1e6):
            def anti(z):
                return ((1.0 + s * z) * math.log1p(s * z) - s * z) / s
            assert table.log1p_expectation(s) == pytest.approx(anti(2.0) - anti(1.0), rel=1e-14)

    def test_exponential_law_from_below_its_lower_end_to_past_its_top(self):
        # sf = e^-z: P = e^-z/z - E1(z) and C = E1(z)
        table = SurvivalTable(*EXPONENTIAL)
        assert table.lo < 1e-19 and table.u_edges[-1] > math.log(40.0)
        assert table.mass == pytest.approx(1.0, rel=1e-15)
        assert table.sf_integral() == pytest.approx(1.0, rel=1e-15)
        for z in (*np.geomspace(1e-25, 30.0, 40), 60.0):
            P, C = table.tails(float(z))
            assert P == pytest.approx(math.exp(-z) / z - special.exp1(z), rel=1e-14), z
            assert C == pytest.approx(special.exp1(z), rel=1e-14, abs=1e-20), z
        for s in (1e-6, 1.0, 1e9):
            # E[log(1 + sZ)] = e^(1/s) E1(1/s)
            with mp.workdps(30):
                expected = float(mp.exp(1 / mp.mpf(s)) * mp.e1(1 / mp.mpf(s)))
            assert table.log1p_expectation(s) == pytest.approx(expected, rel=1e-14)

    def test_capped_sums_from_below_the_lower_end_to_past_the_top(self):
        # E[min(Z, t)] and E[log(1 + s min(Z, t))]: for Z exponential
        # 1 - e^-t and e^(1/s) [E1(1/s) - E1(t + 1/s)], and for Z uniform on
        # [1, 2], with y = t clipped to [1, 2], 1.5 - (2 - y)^2 / 2 and
        # log(1 + s min(t, 1)) + (2 + 1/s) log((1 + s y)/(1 + s)) - (y - 1)
        exponential = SurvivalTable(*EXPONENTIAL)
        uniform = SurvivalTable(*UNIFORM_1_2, knots=(1.0, 2.0), top=2.0)
        with mp.workdps(30):
            for t in (1e-25, 1e-3, 0.5, 1.0, 1.5, 3.0, 60.0, math.inf):
                x = mp.mpf(t)
                assert exponential.sf_integral(t) == pytest.approx(
                    float(-mp.expm1(-x)), rel=1e-14), t
                y = min(max(x, 1), 2)
                assert uniform.sf_integral(t) == pytest.approx(
                    float(min(x, 1) - (2 - y) ** 2 / 2 + mp.mpf(1) / 2), rel=1e-14), t
                for s in (1e-6, 1.0, 1e9):
                    b = 1 / mp.mpf(s)
                    expected = mp.exp(b) * (mp.e1(b) - mp.e1(x + b))
                    assert exponential.log1p_expectation(s, cap=t) == pytest.approx(
                        float(expected), rel=1e-14), (s, t)
                    expected = (mp.log1p(min(x, 1) / b) + (2 + b) * mp.log((1 + y / b) / (1 + 1 / b))
                                - (y - 1))
                    assert uniform.log1p_expectation(s, cap=t) == pytest.approx(
                        float(expected), rel=1e-14), (s, t)

    def test_expectation_on_a_bounded_support(self):
        # Z uniform on [1, 2]: the integral of y pdf(y) over [1, t] is
        # (t^2 - 1)/2, 0 below the table and all of E[Z] past its top
        table = SurvivalTable(*UNIFORM_1_2, knots=(1.0, 2.0), top=2.0)
        pdf = UNIFORM_1_2[2]
        for t, expected in ((0.5, 0.0), (1.0, 0.0), (1.3, 0.345), (2.0, 1.5), (5.0, 1.5)):
            assert table.expectation(lambda y: y, pdf, top=t) == pytest.approx(
                expected, rel=1e-14, abs=0.0), t

    def test_expectation_of_log1p_on_the_exponential_law(self):
        # E[log(1 + aZ); Z < t] = e^(1/a) [E1(1/a) - E1(t + 1/a)] - e^-t log(1 + at)
        # for the exponential law, whose density is its survival function
        table = SurvivalTable(*EXPONENTIAL)
        with mp.workdps(30):
            for a in (1e-6, 1.0, 1e9):
                for t in (1e-3, 0.5, 3.0, 60.0):
                    x, b = mp.mpf(t), 1 / mp.mpf(a)
                    expected = mp.exp(b) * (mp.e1(b) - mp.e1(x + b)) - mp.exp(-x) * mp.log1p(x / b)
                    got = table.expectation(lambda y: np.log1p(a * y), lambda y: np.exp(-y), top=t)
                    assert got == pytest.approx(float(expected), rel=1e-14, abs=0.0), (a, t)

    def test_expectation_between_two_ends(self):
        # Z uniform on [1, 2] with a knot at 1.5, a panel edge: the integral
        # of y pdf(y) over [b, t] is (t^2 - b^2)/2, with both ends inside one
        # panel, on panel edges, in different panels, and t past the top
        table = SurvivalTable(*UNIFORM_1_2, knots=(1.0, 1.5, 2.0), top=2.0)
        assert math.log(1.5) in table.u_edges and math.exp(table.u_edges[1]) > 1.09
        pdf = UNIFORM_1_2[2]
        for b, t in ((1.01, 1.09), (1.0, 1.5), (1.5, 2.0), (1.2, 1.5), (1.5, 1.7),
                     (1.05, 1.95), (1.3, 5.0), (0.0, 1.5)):
            expected = 0.5 * (min(t, 2.0) ** 2 - max(b, 1.0) ** 2)
            assert table.expectation(lambda y: y, pdf, b, t) == pytest.approx(
                expected, rel=1e-14, abs=0.0), (b, t)

    def test_expectation_below_the_lower_end(self):
        # density y e^-y, sf = (1 + z) e^-z: F ~ z^2/2 puts lo near 1e-10,
        # and E[1/Z; b < Z < t] = e^-b - e^-t takes the part below lo, of
        # relative size lo/t, from the panel in y
        table = SurvivalTable(lambda z: (1.0 + z) * np.exp(-z), lambda z: special.gammainc(2, z),
                              lambda z: z * np.exp(-z))
        assert 1e-11 < table.lo < 1e-9
        inverse, pdf = (lambda y: 1.0 / y), (lambda y: y * np.exp(-y))
        for b, t in ((0.0, 1e-12), (0.0, 1e-10), (0.0, 1e-3), (0.0, 3.0), (1e-12, 1e-9),
                     (1e-12, 0.5), (0.0, 1e6), (0.0, math.inf)):
            with mp.workdps(30):
                expected = float(mp.exp(-mp.mpf(b)) - mp.exp(-mp.mpf(t)))
            assert table.expectation(inverse, pdf, b, t) == pytest.approx(
                expected, rel=1e-14, abs=0.0), (b, t)

    def test_expectation_of_an_empty_range_is_zero(self):
        table = SurvivalTable(*EXPONENTIAL)
        calls = []
        pdf = lambda y: calls.append(y) or np.exp(-y)
        for b, t in ((2.0, 2.0), (1.5, 1.2), (0.0, 0.0), (1e-30, 0.0), (1e3, 1e4)):
            assert table.expectation(np.ones_like, pdf, b, t) == 0.0
        assert not calls

    @pytest.mark.parametrize("alpha, panels", [(10.0, 22), (100.0, 12)])
    def test_panels_split_at_a_sharp_peak(self, alpha, panels):
        # F = exp(-z^-alpha) puts its mass within about 1/alpha of u = 0.
        # At alpha = 100 the 4 panels to a unit of u lose 4.5e-4 of the mass
        # on 4 panels; halving a panel wherever its halves disagree recovers
        # it on 12, and leaves the 22 panels of the smoother law at alpha = 10
        # as they were.
        sf = lambda z: -np.expm1(-z ** -alpha)
        cdf = lambda z: np.exp(-z ** -alpha)
        pdf = lambda z: alpha * z ** (-alpha - 1.0) * np.exp(-z ** -alpha)
        with np.errstate(over="ignore"):
            table = SurvivalTable(sf, cdf, pdf)
        assert len(table.u_edges) - 1 == panels
        assert table.mass == pytest.approx(1.0, rel=2e-15)
        # E[Z] = Gamma(1 - 1/alpha), less the 1e-18 the table leaves past its top
        assert table.sf_integral() == pytest.approx(math.gamma(1.0 - 1.0 / alpha), rel=1e-14)

    def test_power_panel_brackets_the_level(self):
        table = SurvivalTable(*EXPONENTIAL)
        assert table.power_panel(2.0 * table.P_edges[0]) == -1
        for p in (1e-12, 1e-3, 1.0, 1e9):
            k = table.power_panel(p)
            assert table.P_edges[k] >= p > table.P_edges[k + 1]
