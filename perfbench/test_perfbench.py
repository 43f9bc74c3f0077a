"""Tests of the benchmark itself: its oracles, failure accounting, exact
counters and seeded inputs.

Run from the repository root: python3 -m pytest -q perfbench
"""

import mpmath as mp
import pytest

import calibrate
import oracles as O
import run
import tracer as T
import workloads as W

fc = run.import_fadecap()


@pytest.fixture(autouse=True)
def precision():
    with mp.workdps(O.DPS):
        yield


def lib_law(name, seed=3):
    return W.build_law(fc.cli, fc.distributions, name, seed)


def ref_law(name, seed=3):
    if name == "tab":
        return O.TabulatedLaw("tab", W.tab_grid(seed))
    return {"gamma2": O.gamma2_law, "miso22": lambda: O.miso_law(2, 2),
            "maxexp4": lambda: O.maxexp_law(4)}[name]()


@pytest.mark.parametrize("scheme", ["awgn", "oa", "ra", "ci", "tci", "ctci"])
@pytest.mark.parametrize("snr_db", [-5.0, 10.0, 25.0])
def test_gamma2_closed_forms_match_mixture_quadrature(scheme, snr_db):
    S = 10 ** (snr_db / 10)
    z_t = 0.7 if scheme in ("tci", "ctci") else None
    closed = O.gamma2_capacity(scheme, S, z_t)
    assert abs(closed - O.capacity(O.gamma2_law(), scheme, S, z_t)) < mp.mpf(10) ** -25


def test_gamma2_cutoff_is_lambert_w():
    S = mp.mpf(10)
    assert abs(O.oa_threshold(O.gamma2_law(), S) - mp.lambertw(1 / S).real) < mp.mpf(10) ** -25


@pytest.mark.parametrize("law", ["gamma2", "miso22", "maxexp4", "tab"])
def test_law_moments_are_normalised(law):
    ref = ref_law(law)
    assert abs(ref.cdf(ref.top) - 1) < mp.mpf(10) ** -25
    assert abs(ref.mean() - lib_law(law).mean) < 1e-12


@pytest.mark.parametrize("law", ["gamma2", "miso22", "maxexp4", "tab"])
@pytest.mark.parametrize("scheme", ["awgn", "oa", "ra", "ci", "tci", "ctci"])
def test_library_matches_oracle_at_moderate_snr(law, scheme):
    dist, ref = lib_law(law), ref_law(law)
    z_t = 1.0 if scheme in ("tci", "ctci") else None
    for snr_db in (0.0, 10.0, 20.0):
        S = 10 ** (snr_db / 10)
        expected = float(O.capacity(ref, scheme, S, z_t))
        got = fc.schemes.capacity(dist, scheme, S, z_t=z_t).capacity_nats
        assert abs(got - expected) <= run.tolerance(expected), (snr_db, got, expected)


def test_tci_optimum_matches_library():
    dist, ref = lib_law("miso22"), ref_law("miso22")
    result = fc.schemes.capacity(dist, "tci", 10.0, optimize_threshold=True)
    _, best = O.tci_best(ref, 10.0, 1e-4, 60.0)
    assert abs(result.capacity_nats - float(best)) <= run.tolerance(float(best))


def test_gaps_match_library():
    for law in ("miso22", "tab"):
        report = fc.asymptotics.gap_report(lib_law(law))
        expected = [float(g) for g in O.gaps(ref_law(law))]
        got = [report.gap_awgn_oa, report.gap_oa_ci, report.gap_awgn_ci]
        assert max(abs(a - b) for a, b in zip(got, expected)) < run.CAPACITY_ATOL


def test_heavy_tail_failure_is_counted_not_raised():
    probe = W.probe_ops("threshold_opt", 0)[:1]
    laws = {W.PROBE_LAW: lib_law(W.PROBE_LAW)}
    tracer, outcomes = T.Tracer(), []
    with tracer.installed(fc):
        run.run_pass(fc, laws, probe, outcomes)
    (op, out), = outcomes
    assert isinstance(out, run.Failure) and out.error == "QuadratureError"
    assert ("numerics", "QuadratureError") in tracer.raised_at_origin()


def test_oracle_mismatch_counts_as_failure():
    oracle = run.Oracle("curves", 0)
    op = next(o for o in W.pass_ops("curves", 0) if o.law == "tab")
    good = run.execute(fc, {"tab": lib_law("tab", 0)}, op)
    ra = [s for s, _ in W.CURVE_SCHEMES].index("ra")
    bad = list(good)
    bad[ra] = fc.schemes.CapacityResult(good[ra].scheme, good[ra].avg_power_S,
                                        good[ra].capacity_nats + 1e-6)
    failed, worst, errors = run.judge(oracle, [(op, good), (op, bad)])
    assert failed == 1 and errors == {"OracleMismatch": 1}
    assert worst["ra"] == pytest.approx(1e-6, rel=1e-3)
    assert worst["oa"] < run.CAPACITY_ATOL


def traced_counts(ops, laws):
    tracer = T.Tracer()
    traced = {name: tracer.traced_sampler(d) for name, d in laws.items()}
    with tracer.installed(fc):
        run.run_pass(fc, traced, ops, [], tracer)
    metrics = tracer.layer_metrics(ops, W.MC_SAMPLES)
    return {k: v for k, v in metrics.items() if not k.endswith(("_ms", "ms_p50", "_per_s"))}


def test_counters_repeat_exactly_and_see_the_tabulated_kernel():
    ops = [op for op in W.pass_ops("curves", 5) if op.kind == "gaps" or op.snr_db < 0]
    laws = {name: lib_law(name, 5) for name in W.WORKLOAD_LAWS["curves"]}
    first, second = traced_counts(ops, laws), traced_counts(ops, laws)
    assert first == second
    assert first["distributions.pdf_points"] > 0 and first["numerics.quad_evals"] > 0
    tab_only = traced_counts([op for op in ops if op.law == "tab"], laws)
    assert tab_only["distributions.pdf_points"] > 0
    assert tab_only["numerics.quad_calls"] == 0


def test_tracing_restores_the_library():
    before = (fc.schemes.capacity, fc.distributions.FadingDistribution.expect,
              fc.mc.oa_threshold, fc.distributions._as_float_or_array)
    with T.Tracer().installed(fc):
        assert fc.schemes.capacity is not before[0]
    after = (fc.schemes.capacity, fc.distributions.FadingDistribution.expect,
             fc.mc.oa_threshold, fc.distributions._as_float_or_array)
    assert after == before


def test_inputs_follow_the_seed():
    assert W.tab_grid(4) == W.tab_grid(4) and W.tab_grid(4) != W.tab_grid(5)
    for workload in W.WORKLOAD_LAWS:
        assert W.pass_ops(workload, 4) == W.pass_ops(workload, 4)
        assert W.pass_ops(workload, 4) != W.pass_ops(workload, 5)
    mc_seeds = [op.mc_seed + j for p in range(3) for op in W.pass_ops("mc_oracle", 4, p)
                for j in range(len(W.MC_SCHEMES))]
    assert len(set(mc_seeds)) == len(mc_seeds)


def test_fixed_thresholds_lie_inside_the_tabulated_support():
    for seed in range(50):
        top = W.tab_grid(seed)[-1][0]
        for workload in W.WORKLOAD_LAWS:
            assert all(op.z_t is None or op.z_t < top for op in W.pass_ops(workload, seed))


def test_reference_work_is_fixed_and_timed():
    assert calibrate.reference_work() == pytest.approx(calibrate.REFERENCE_VALUE, abs=1e-6)
    assert calibrate.reference_time() > 0
    assert calibrate.slowdown([calibrate.REFERENCE_S, 3 * calibrate.REFERENCE_S]) == 2.0


def test_calibrated_pass_divides_latency_by_its_slowdown(monkeypatch):
    ops = [o for o in W.pass_ops("curves", 0) if o.law == "gamma2"][:2]
    laws = {"gamma2": lib_law("gamma2")}
    times = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    monkeypatch.setattr(run, "clock", lambda: next(times))
    refs = iter([2 * calibrate.REFERENCE_S, 4 * calibrate.REFERENCE_S, 6 * calibrate.REFERENCE_S])
    monkeypatch.setattr(calibrate, "reference_time", lambda: next(refs))
    slowdowns, outcomes = [], []
    latencies = run.run_pass(fc, laws, ops, outcomes, slowdowns=slowdowns)
    assert slowdowns == [3.0, 5.0]
    assert latencies == [1.0 / 3.0, 1.0 / 5.0]
    assert len(outcomes) == 2
