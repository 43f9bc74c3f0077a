"""Self-check suite plumbing."""

import dataclasses
import re

import pytest

from fadecap import schemes
from fadecap.cli import parse_distribution_spec
from fadecap.distributions import (
    FadingDistribution,
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.verify import check_power_residuals, run_checks

import workloads  # perfbench/workloads.py; pyproject.toml puts perfbench/ on the path


@pytest.mark.parametrize("spec", [
    "gamma:N=2", "gamma:N=1", "maxexp:K=1", "maxexp:K=4", "frechet:alpha=0.8",
    "frechet:alpha=1.01,K=8", "frechet:alpha=2.5,K=3", "frechet:alpha=50", "miso:N=2,K=2",
    "miso:N=64,K=4", "tab:path={tab3}", "gamma:N=3,scale=2",
    "gamma:N=2,scale=1e-6", "maxexp:K=1,scale=1e-3", "gamma:N=2,scale=1e9",
])
def test_fast_level_all_pass(spec, tmp_path):
    # frechet(1.01, 8) is in the heavy-tail domain: at S = 1e-6 its RA
    # capacity over S is 90, far from the slope E[z] = 787, and only a bound
    # that holds at every S, not a limit, can pass there. The scaled laws
    # hold no mass above 1, or nearly all of it: the checks' threshold is
    # the law's geometric mean, not a fixed 1. The tabulated law is the
    # benchmark's seed-3 grid, written as a CSV of float reprs
    tab3 = tmp_path / "tab3.csv"
    tab3.write_text("".join(f"{z!r},{p!r}\n" for z, p in workloads.tab_grid(3)),
                    encoding="utf-8")
    results = run_checks(parse_distribution_spec(spec.format(tab3=tab3)).build(), level="fast")
    assert results, "no checks ran"
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed


def test_fast_level_handles_degenerate_inversion():
    # single-branch gain: inversion capacity is identically zero and the
    # checks must treat that as the expected behavior, not a failure
    results = run_checks(make_gamma_diversity(1), level="fast")
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed


@pytest.mark.parametrize("kernel, change, check", [
    # a constant offset at high SNR leaves the pre-log's slope in log S alone
    ("ra_capacity", lambda S, C: C - 1e-3 if S > 1e3 else C, "prelog_ra"),
    ("ctci_capacity", lambda S, C: C - 1e-3 if S > 1e3 else C, "prelog_ctci"),
    # the slope check alone reads a capacity below -20 dB
    ("ra_capacity", lambda S, C: C * (1.0 + 1e-3) if S < 1e-3 else C, "slope_ra"),
], ids=["prelog_ra", "prelog_ctci", "slope_ra"])
def test_a_capacity_off_its_bounds_fails_its_check(monkeypatch, kernel, change, check):
    original = getattr(schemes, kernel)

    def mutated(dist, S, *args):
        result = original(dist, S, *args)
        return dataclasses.replace(result, capacity_nats=change(S, result.capacity_nats))

    monkeypatch.setattr(schemes, kernel, mutated)
    results = {r.name: r for r in run_checks(make_miso_multiuser(2, 2), level="fast")}
    assert not results[check].passed, results[check]


def _checked_values(dist):
    """(value, lower bound, upper bound) of each pre-log and slope check, as
    printed, with the slopes, which carry the unit of z, over E[z]."""
    values = {}
    for r in run_checks(dist, level="fast"):
        if r.name.startswith(("prelog_", "slope_")):
            value, lo, hi = re.fullmatch(r"(\S+) in \[(\S+), (\S+)\]", r.detail).groups()
            scale = dist.mean if r.name.startswith("slope_") else 1.0
            values[r.name] = [float(x) / scale for x in (value, lo, hi)]
    return values


@pytest.mark.parametrize("c", [1e-9, 1e9])
def test_pre_log_and_slope_checks_do_not_depend_on_the_law_scale(c):
    # the checks read the capacities at powers over exp(E[log z]), the same
    # received SNRs on gamma:N=2 and on the law scaled by c: at fixed powers,
    # S = 1e-6 is 33 dB of received SNR at c = 1e9, where every slope's lower
    # bound is negative, and at c = 1e-9 the pre-log bounds are [0, 1000]
    base = _checked_values(make_gamma_diversity(2))
    scaled = _checked_values(make_gamma_diversity(2).scaled(c))
    assert scaled.keys() == base.keys() and len(base) == 9
    for name, values in base.items():
        assert scaled[name] == pytest.approx(values, rel=1e-5, abs=0.0), name


def test_a_ci_capacity_where_inversion_is_degenerate_fails_its_pre_log(monkeypatch):
    # E[1/z] is infinite on gamma:N=1, so CI's X is 0: no pre-log, and its
    # capacity is bounded by [0, 0]
    original = schemes.ci_capacity

    def mutated(dist, S):
        return dataclasses.replace(original(dist, S), capacity_nats=1e-3)

    monkeypatch.setattr(schemes, "ci_capacity", mutated)
    results = {r.name: r for r in run_checks(make_gamma_diversity(1), level="fast")}
    assert not results["prelog_ci"].passed, results["prelog_ci"]


@pytest.mark.parametrize("law", [
    lambda: make_miso_multiuser(2, 2),
    lambda: make_tabulated(workloads.tab_grid(3)),
], ids=["miso22", "tab3"])
def test_a_tail_functional_off_by_1e_6_fails_the_power_residuals(monkeypatch, law):
    # D_max is set from T, and the check reads E[D] through the survival
    # table's P instead: a T off by a relative 1e-6 moves D_max, not P
    dist = law()
    original = FadingDistribution.tail_inverse_integral
    monkeypatch.setattr(FadingDistribution, "tail_inverse_integral",
                        lambda self, t, *args: original(self, t, *args) * (1.0 + 1e-6))
    result = check_power_residuals(dist)[0]
    assert result.name == "power_residuals"
    assert not result.passed, result


def test_full_level_includes_mc_checks():
    results = run_checks(make_max_exponential(2), level="full", seed=0)
    names = {r.name for r in results}
    assert {"mc_oa", "mc_ra", "mc_ci", "mc_tci", "mc_ctci"} <= names
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks(make_gamma_diversity(2), level="paranoid")
