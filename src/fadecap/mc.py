"""Monte-Carlo oracle for the scheme capacities.

Estimates E[log(1 + S D(z) z)] by direct sampling of the gain law with
the scheme's instantaneous power ratio D, as an independent cross-check
of every quadrature capacity. The empirical average power E[D] is
reported alongside so the unit power constraint can be audited.

Sampling is sharded: shard i draws from its own SFC64 stream, seeded by
SeedSequence((seed, i)). Each scheme has one kernel that turns a shard's
gains, in place, into the (count, mean, sum of squared deviations) of
its rate and of its power ratio: a constant array is summarised exactly,
TCI's two-valued rate by its count of active samples, and every other
array by one mean and one dot product of its deviations. The shards of
one estimate run concurrently on a thread pool built at import, one
worker per CPU the process may use (numpy releases the GIL while it
draws and reduces a shard), and their statistics are merged in shard
order with the pairwise combine rule. Estimates are bit-stable for a given
(seed, n_samples) and do not depend on how many workers there are or
how shards are scheduled.

A law's samples for a given Generator are fixed by the C-order block its
sampler draws and by how that block is reduced (see the samplers in
``distributions``). The samplers reduce short axes with strided slices
that reproduce numpy's own axis reductions bit for bit, so an estimate
is the same as with ``standard_exponential((n, K, N)).sum(axis=2)
.max(axis=1)`` and its kin; a test pins every sampler to those formulas.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .distributions import FadingDistribution, _check_positive_int
from .schemes import Scheme, _check_power, ctci_dmax, oa_threshold, tci_dmax

SHARD_SIZE = 1 << 16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WORKERS = _usable_cpus()


def _new_pool() -> ThreadPoolExecutor:
    # threads start on the first submit, so an unused pool costs nothing. A
    # pool per estimate, which starts its threads on every call, measured 41%
    # slower: 27.7 against 19.6 ms median per 2^18-sample estimate of the
    # mc_oracle workload, on a shared 2-core machine.
    return ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="fadecap-mc")


_pool = _new_pool()


def _renew_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool
    _pool = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_pool)


@dataclass(frozen=True)
class McEstimate:
    mean_nats: float
    std_error: float
    n_samples: int
    seed: int
    power_mean: float
    power_std_error: float
    degenerate: bool = False


class _Welford:
    """Streaming mean/variance with the pairwise combine rule."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def merge(self, n2: int, mean2: float, m2_2: float):
        """Fold in a batch's count, mean and sum of squared deviations."""
        n1, mean1, m2_1 = self.n, self.mean, self.m2
        n = n1 + n2
        delta = mean2 - mean1
        self.mean = mean1 + delta * n2 / n
        self.m2 = m2_1 + m2_2 + delta * delta * n1 * n2 / n
        self.n = n

    def std_error(self) -> float:
        if self.n < 2:
            return 0.0
        sample_std = math.sqrt(self.m2 / (self.n - 1))
        return sample_std / math.sqrt(self.n)


def _stats(x: np.ndarray, scale: float = 1.0) -> tuple:
    """(count, mean, sum of squared deviations) of ``scale * x``; overwrites x."""
    mean = float(x.mean())
    x -= mean
    # einsum, not np.dot: BLAS's sum depends on its thread count and CPU kernel
    m2 = float(np.einsum("i,i->", x, x))
    return x.size, scale * mean, scale * scale * m2


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, shard))))


def mc_capacity(
    dist: FadingDistribution,
    scheme: Scheme,
    S: float,
    z_t: float = None,
    n_samples: int = 10**6,
    seed: int = 0,
) -> McEstimate:
    """Sample-mean capacity estimate with its standard error.

    The truncated schemes require ``z_t``; the water-filling cutoff is
    taken from the deterministic solver and treated as given.
    """
    scheme = Scheme(scheme)
    _check_power(S)
    seed = _check_positive_int(seed, "seed", minimum=0)
    n_samples = _check_positive_int(n_samples, "n_samples", minimum=2)
    if scheme is Scheme.AWGN:
        raise ValueError("the AWGN reference is deterministic; nothing to sample")

    if scheme in (Scheme.TCI, Scheme.CTCI) and z_t is None:
        raise ValueError(f"{scheme.value} needs a threshold")
    if scheme is Scheme.CTCI and z_t == 0.0:
        scheme = Scheme.CI  # threshold-0 limit is plain inversion

    if scheme is Scheme.CI and not dist.inverse_mean_finite:
        return McEstimate(0.0, 0.0, n_samples, seed, 0.0, 0.0, degenerate=True)

    if scheme is Scheme.OA:
        # the water-filling cutoff is not a free parameter: it always
        # comes from the deterministic constraint solver
        z_t = oa_threshold(dist, S).z_t

    d_max = None
    if scheme is Scheme.TCI:
        d_max = tci_dmax(dist, z_t)
    elif scheme is Scheme.CTCI:
        d_max = ctci_dmax(dist, z_t)
    kernel = _scheme_kernel(scheme, dist, S, z_t, d_max)

    def shard_stats(shard):
        m = min(SHARD_SIZE, n_samples - shard * SHARD_SIZE)
        return kernel(dist.sampler(_shard_rng(seed, shard), m))

    rate_acc = _Welford()
    power_acc = _Welford()
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    # one worker or one shard runs in the caller
    pooled = _WORKERS > 1 and n_shards > 1
    futures = [_pool.submit(shard_stats, i) for i in range(n_shards)] if pooled else []
    try:
        for shard in range(n_shards):
            rate_stats, power_stats = futures[shard].result() if pooled else shard_stats(shard)
            rate_acc.merge(*rate_stats)
            power_acc.merge(*power_stats)
    finally:
        # after an error, no shard of this call may run on once it returns
        for future in futures:
            future.cancel()
        wait(futures)

    return McEstimate(
        mean_nats=rate_acc.mean,
        std_error=rate_acc.std_error(),
        n_samples=n_samples,
        seed=seed,
        power_mean=power_acc.mean,
        power_std_error=power_acc.std_error(),
    )


def _scheme_kernel(scheme, dist, S, z_t, d_max):
    """``kernel(z)``: the statistics of the rate log(1 + S D(z) z) and of the
    power ratio D(z) over one shard's gains z, which it overwrites."""
    if scheme is Scheme.RA:
        def ra(z):
            z *= S
            return _stats(np.log1p(z, out=z)), (z.size, 1.0, 0.0)

        return ra
    if scheme is Scheme.CI:
        rate = math.log1p(S / dist.inverse_mean)

        def ci(z):
            return (z.size, rate, 0.0), _stats(np.reciprocal(z, out=z), 1.0 / dist.inverse_mean)

        return ci
    if scheme is Scheme.OA:
        def oa(z):
            # above the cutoff the received SNR is z/z_t - 1, so with
            # y = max(z, z_t) / z_t the rate is log y and the power
            # (1 - 1/y) / (S z_t); both are exactly 0 where y = 1
            y = np.maximum(z, z_t, out=z)
            y /= z_t
            rate = np.log(y)
            np.reciprocal(y, out=y)
            return _stats(rate), _stats(np.subtract(1.0, y, out=y), 1.0 / (S * z_t))

        return oa
    if scheme is Scheme.TCI:
        rate = math.log1p(S * d_max * z_t)

        def tci(z):
            # the rate is `rate` on the k active samples and 0 on the others;
            # the power is zeroed by a product with the mask, which costs a
            # fraction of np.where or a masked store
            m = z.size
            active = z >= z_t
            k = int(np.count_nonzero(active))
            np.maximum(z, z_t, out=z)  # no z_t / 0 = inf to meet a 0 in the mask
            np.divide(z_t, z, out=z)
            z *= active
            return (m, rate * k / m, rate * rate * k * (m - k) / m), _stats(z, d_max)

        return tci
    # CTCI: power d_max min(1, z_t / z), so S D(z) z = S d_max min(z, z_t)
    def ctci(z):
        rate = np.minimum(z, z_t)
        rate *= S * d_max
        np.log1p(rate, out=rate)
        np.maximum(z, z_t, out=z)
        return _stats(rate), _stats(np.divide(z_t, z, out=z), d_max)

    return ctci
