"""Monte-Carlo oracle: reproducibility, calibration and agreement with
the quadrature capacities."""

import dataclasses
import math
import multiprocessing
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fadecap import mc
from fadecap.distributions import (
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from fadecap.mc import SHARD_SIZE, McEstimate, _shard_rng, mc_capacity
from fadecap.schemes import (
    Scheme,
    capacity,
    ctci_dmax,
    oa_threshold,
    ra_capacity,
    tci_dmax,
)


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


# the TCI and CTCI thresholds of 1e-6 and 40 lie below and above every
# miso:N=2,K=2 sample of the test below
MERGE_CASES = [
    pytest.param(Scheme.RA, None, id="ra"),
    pytest.param(Scheme.OA, None, id="oa"),
    pytest.param(Scheme.CI, None, id="ci"),
    pytest.param(Scheme.TCI, 1.0, id="tci"),
    pytest.param(Scheme.TCI, 1e-6, id="tci-below-all"),
    pytest.param(Scheme.TCI, 40.0, id="tci-above-all"),
    pytest.param(Scheme.CTCI, 1.0, id="ctci"),
    pytest.param(Scheme.CTCI, 1e-6, id="ctci-below-all"),
    pytest.param(Scheme.CTCI, 40.0, id="ctci-above-all"),
]


class TestShardedMerge:
    @pytest.mark.parametrize("scheme, z_t", MERGE_CASES)
    def test_merge_matches_direct_statistics(self, scheme, z_t):
        # rebuild the per-shard draws, the last one partial, and compare the
        # kernels and the streaming merge with the mean and sample deviation
        # of all samples at once
        miso = make_miso_multiuser(2, 2)
        S, seed = 10.0, 4
        n = 3 * SHARD_SIZE + 17
        est = mc_capacity(miso, scheme, S, z_t=z_t, n_samples=n, seed=seed)
        sizes = [SHARD_SIZE] * 3 + [17]
        z = np.concatenate([miso.sampler(_shard_rng(seed, i), m) for i, m in enumerate(sizes)])
        if scheme is Scheme.RA:
            rate, power = np.log1p(S * z), np.ones_like(z)
        elif scheme is Scheme.OA:
            z_t = oa_threshold(miso, S).z_t
            zc = np.maximum(z, z_t)
            rate = np.where(z > z_t, np.log(zc / z_t), 0.0)
            power = np.where(z > z_t, (1.0 / z_t - 1.0 / zc) / S, 0.0)
        elif scheme is Scheme.CI:
            rate = np.full_like(z, math.log1p(S / miso.inverse_mean))
            power = 1.0 / (miso.inverse_mean * z)
        elif scheme is Scheme.TCI:
            d_max = tci_dmax(miso, z_t)
            active = z >= z_t
            rate = np.where(active, math.log1p(S * d_max * z_t), 0.0)
            power = np.where(active, d_max * z_t / np.maximum(z, z_t), 0.0)
        else:
            d_max = ctci_dmax(miso, z_t)
            power = np.where(z < z_t, d_max, d_max * z_t / np.maximum(z, z_t))
            rate = np.log1p(S * power * z)
        if z_t == 1e-6:
            assert np.all(z >= z_t)  # k = m
        if z_t == 40.0:
            assert not np.any(z >= z_t)  # k = 0

        def within(rel, expected):
            return pytest.approx(expected, rel=rel, abs=0.0)

        def spread_within(rel, x):
            # plus the reference's own rounding, a few ulps of max |x|: it is
            # all the reference sees where the true spread is 0 (a constant
            # CI rate, or the CTCI rate log1p(S * power * z) with every
            # sample capped), which the kernels give as exactly 0
            floor = 4.0 * np.finfo(float).eps * np.max(np.abs(x)) / root_n
            return pytest.approx(np.std(x, ddof=1) / root_n, rel=rel, abs=floor)

        root_n = math.sqrt(n)
        assert est.mean_nats == within(1e-14, np.mean(rate))
        assert est.power_mean == within(1e-14, np.mean(power))
        assert est.std_error == spread_within(1e-10, rate)
        assert est.power_std_error == spread_within(1e-10, power)


ALL_SCHEMES = (Scheme.OA, Scheme.RA, Scheme.CI, Scheme.TCI, Scheme.CTCI)


def miso22_estimates(dist, seed=4):
    n = 3 * SHARD_SIZE + 17
    return [mc_capacity(dist, s, 10.0, z_t=1.0, n_samples=n, seed=seed) for s in ALL_SCHEMES]


def _put_estimates(dist, queue):
    queue.put(miso22_estimates(dist))


def recording_sampler(dist):
    """``dist`` with a sampler that records the name of each calling thread."""
    names = []

    def sampler(rng, n):
        names.append(threading.current_thread().name)
        return dist.sampler(rng, n)

    return dataclasses.replace(dist, sampler=sampler), names


class TestConcurrentShards:
    @pytest.fixture(scope="class")
    def miso(self):
        return make_miso_multiuser(2, 2)

    def test_estimates_do_not_depend_on_worker_count(self, miso, monkeypatch):
        # 4 shards: inline, two at a time, and more workers than shards
        runs = {}
        for workers in (1, 2, 9):
            monkeypatch.setattr(mc, "_WORKERS", workers)
            law, threads = recording_sampler(miso)
            runs[workers] = miso22_estimates(law)
            assert len(threads) == 4 * len(ALL_SCHEMES)
            in_caller = threads.count(threading.current_thread().name)
            assert in_caller == (len(threads) if workers == 1 else 0)
        for field in dataclasses.fields(McEstimate):
            values = {w: [getattr(e, field.name) for e in runs[w]] for w in runs}
            assert values[1] == values[2] == values[9], field.name

    def test_one_shard_runs_in_the_caller(self, miso, monkeypatch):
        monkeypatch.setattr(mc, "_WORKERS", 4)
        law, threads = recording_sampler(miso)
        mc_capacity(law, Scheme.RA, 10.0, n_samples=SHARD_SIZE, seed=1)
        assert threads == [threading.current_thread().name]

    def test_concurrent_callers_match_sequential_calls(self, miso, monkeypatch):
        # two callers share the pool, each with more workers than there are
        # cores, and threads switch far more often than by default
        monkeypatch.setattr(mc, "_WORKERS", 4)
        sequential = [miso22_estimates(miso, seed) for seed in (4, 5)]
        start = threading.Barrier(2, timeout=60)
        concurrent = [None, None]

        def caller(i):
            start.wait()
            concurrent[i] = miso22_estimates(miso, (4, 5)[i])

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert concurrent == sequential

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self, miso, monkeypatch):
        monkeypatch.setattr(mc, "_WORKERS", 2)
        expected = miso22_estimates(miso)  # the parent's pool now exists
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_put_estimates, args=(miso, results))
        child.start()
        try:
            got = results.get(timeout=60)  # drained before the join
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == expected
        assert child.exitcode == 0

    def test_shard_error_keeps_its_type(self, miso, monkeypatch):
        monkeypatch.setattr(mc, "_WORKERS", 2)

        def failing(rng, n):
            if n == 17:  # the last, partial shard
                raise ValueError("bad shard")
            return miso.sampler(rng, n)

        law = dataclasses.replace(miso, sampler=failing)
        with pytest.raises(ValueError, match="bad shard"):
            mc_capacity(law, Scheme.RA, 10.0, n_samples=2 * SHARD_SIZE + 17, seed=1)

    def test_a_failed_call_returns_after_its_running_shards_end(self, miso, monkeypatch):
        # shard 0 raises as soon as shard 1 is running; shard 1 sleeps, then
        # records that it ended, which must happen before the call returns
        pool = ThreadPoolExecutor(max_workers=2)
        monkeypatch.setattr(mc, "_pool", pool)
        monkeypatch.setattr(mc, "_WORKERS", 2)
        started, ended = threading.Event(), []

        def sampler(rng, n):
            if n == SHARD_SIZE:
                assert started.wait(timeout=30)
                raise ValueError("first shard")
            started.set()
            time.sleep(0.2)
            ended.append(n)
            return miso.sampler(rng, n)

        law = dataclasses.replace(miso, sampler=sampler)
        try:
            with pytest.raises(ValueError, match="first shard"):
                mc_capacity(law, Scheme.RA, 10.0, n_samples=SHARD_SIZE + 17, seed=1)
            assert ended == [17]
        finally:
            pool.shutdown(wait=True)


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

    def test_integral_float_sample_count_is_accepted(self, gamma2):
        est = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=1e5, seed=1)
        assert est == mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=100_000, seed=1)
        assert type(est.n_samples) is int

    @pytest.mark.parametrize("n", [2.5, True, 1, 0, -5, math.inf, math.nan])
    def test_bad_sample_count_rejected(self, gamma2, n):
        with pytest.raises(ValueError, match="n_samples"):
            mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=n)

    @pytest.mark.parametrize("seed", [None, 1.5, True, -1, "3", math.nan])
    def test_bad_seed_rejected(self, gamma2, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=100, seed=seed)

    def test_bad_seed_rejected_before_degenerate_shortcut(self):
        with pytest.raises(ValueError, match="seed"):
            mc_capacity(make_gamma_diversity(1), Scheme.CI, 1.0, n_samples=100, seed=-1)

    def test_integral_float_seed_is_accepted(self, gamma2):
        est = mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=100, seed=2.0)
        assert est == mc_capacity(gamma2, Scheme.RA, 1.0, n_samples=100, seed=2)
        assert type(est.seed) is int
