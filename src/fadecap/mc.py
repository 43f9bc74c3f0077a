"""Monte-Carlo oracle for the scheme capacities.

Estimates E[log(1 + S D(z) z)] by direct sampling of the gain law with
the scheme's instantaneous power ratio D, as an independent cross-check
of every quadrature capacity. The empirical average power E[D] is
reported alongside so the unit power constraint can be audited.

Sampling is sharded: shard i draws from a counter-based Philox stream
keyed by (seed, i), and shards are merged with a streaming
mean/variance combine. Estimates are bit-stable for a given
(seed, n_samples) and do not depend on how shards are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import FadingDistribution
from .schemes import Scheme, _check_power, ctci_dmax, oa_threshold, tci_dmax

SHARD_SIZE = 1 << 16


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

    def add_batch(self, x: np.ndarray):
        n2 = x.size
        if n2 == 0:
            return
        mean2 = float(np.mean(x))
        m2_2 = float(np.var(x)) * n2
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


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, shard))))


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
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
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

    rate_acc = _Welford()
    power_acc = _Welford()
    n_shards = (n_samples + SHARD_SIZE - 1) // SHARD_SIZE
    for shard in range(n_shards):
        m = min(SHARD_SIZE, n_samples - shard * SHARD_SIZE)
        rng = _shard_rng(seed, shard)
        z = dist.sampler(rng, m)
        rate, power = _rate_and_power(scheme, dist, S, z, z_t, d_max)
        rate_acc.add_batch(rate)
        power_acc.add_batch(power)

    return McEstimate(
        mean_nats=rate_acc.mean,
        std_error=rate_acc.std_error(),
        n_samples=n_samples,
        seed=seed,
        power_mean=power_acc.mean,
        power_std_error=power_acc.std_error(),
    )


def _rate_and_power(scheme, dist, S, z, z_t, d_max):
    """Per-sample rate log(1 + S D(z) z) and power ratio D(z)."""
    if scheme is Scheme.RA:
        return np.log1p(S * z), np.ones_like(z)
    if scheme is Scheme.CI:
        rate = np.full_like(z, math.log1p(S / dist.inverse_mean))
        return rate, 1.0 / (dist.inverse_mean * z)
    if scheme is Scheme.OA:
        # above the cutoff the received SNR is z/z_t - 1, so the rate
        # collapses to log(z / z_t)
        active = z > z_t
        rate = np.where(active, np.log(np.maximum(z, z_t) / z_t), 0.0)
        power = np.where(active, (1.0 / z_t - 1.0 / np.maximum(z, z_t)) / S, 0.0)
        return rate, power
    if scheme is Scheme.TCI:
        active = z >= z_t
        rate = np.where(active, math.log1p(S * d_max * z_t), 0.0)
        power = np.where(active, d_max * z_t / np.maximum(z, z_t), 0.0)
        return rate, power
    # CTCI
    capped = z < z_t
    power = np.where(capped, d_max, d_max * z_t / np.maximum(z, z_t))
    rate = np.log1p(S * power * z)
    return rate, power
