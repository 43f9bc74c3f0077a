"""Seeded inputs for the benchmark workloads.

This module imports nothing from fadecap, numpy or mpmath at import time:
the set-up probe loads it before it starts timing ``import fadecap``.

An operation is one unit of work a user waits on: one sweep point (the six
scheme capacities of ``fadecap sweep`` at one SNR on one law), one
optimised threshold, one gap report or one Monte-Carlo point (the five
scheme estimates at one SNR on one law). Every workload is a
fixed list of operations (a *pass*) generated from the workload seed; a run
repeats passes back to back with a single caller.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

# Gain laws by benchmark name, as ``fadecap`` CLI mini-specs. ``tab`` is a
# tabulated law whose grid is generated from the workload seed.
LAW_SPECS = {
    "gamma2": "gamma:N=2",
    "miso22": "miso:N=2,K=2",
    "maxexp4": "maxexp:K=4",
    "frechet08": "frechet:alpha=0.8",
    "tab": None,
}

CURVE_SCHEMES = (("awgn", None), ("oa", None), ("ra", None), ("ci", None),
                 ("tci", 1.0), ("ctci", 1.0))
MC_SCHEMES = (("oa", None), ("ra", None), ("ci", None), ("tci", 1.0), ("ctci", 1.0))
MC_SAMPLES = 1 << 18

WORKLOAD_LAWS = {
    "curves": ("gamma2", "miso22", "tab"),
    "threshold_opt": ("gamma2", "miso22", "tab"),
    "mc_oracle": ("maxexp4", "gamma2", "miso22"),
}
# Heavy-tailed law optimised in the traced run of threshold_opt only; see
# README.md for why it is a probe and not a timed operation.
PROBE_LAW = "frechet08"

TAB_POINTS = 40


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` is point, tci_opt, gaps or mc_point."""

    kind: str
    law: str
    scheme: Optional[str] = None
    snr_db: Optional[float] = None
    z_t: Optional[float] = None
    mc_seed: Optional[int] = None

    @property
    def S(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def ref_key(self):
        """Identifies the exact value the operation must reproduce."""
        return (self.kind, self.law, self.scheme, self.snr_db, self.z_t)


def tab_grid(seed: int) -> list[tuple[float, float]]:
    """A measured-looking gain density: a gamma shape with seeded ripple.

    z runs from 0 to a seeded top on a grid that is finer near the origin;
    p(0) = 0 keeps E[1/z] finite, so every scheme has a nonzero capacity.
    """
    rng = random.Random(f"tab:{seed}")
    shape = rng.uniform(1.6, 2.8)
    theta = rng.uniform(0.7, 1.3)
    ripple, freq, phase = rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0), rng.uniform(0, math.pi)
    top = theta * (shape + 8.0 * math.sqrt(shape) + 4.0)
    grid = []
    for i in range(TAB_POINTS):
        z = top * (i / (TAB_POINTS - 1)) ** 1.3
        p = z ** (shape - 1.0) * math.exp(-z / theta)
        p *= (1.0 + ripple * math.sin(freq * z + phase)) * rng.uniform(0.95, 1.05)
        grid.append((z, p))
    return grid


def snr_offset(seed: int, width: float) -> float:
    """Seeded shift of a dB grid, in [0, width)."""
    return random.Random(f"snr:{seed}").uniform(0.0, width)


def curves_snrs(seed: int) -> list[float]:
    """-10..40 dB in 2.5 dB steps, shifted by up to one step."""
    u = snr_offset(seed, 2.5)
    return [round(-10.0 + u + 2.5 * k, 6) for k in range(21)]


def threshold_snrs(seed: int) -> list[float]:
    u = snr_offset(seed, 1.5)
    return [round(db + u, 6) for db in (0.0, 14.0, 28.0)]


def mc_snrs(seed: int) -> list[float]:
    u = snr_offset(seed, 2.0)
    return [round(db + u, 6) for db in (0.0, 10.0, 20.0)]


def pass_ops(workload: str, seed: int, pass_index: int = 0) -> list[Op]:
    """The operations of one pass, in the order a sweep would run them.

    A point groups the scheme tokens because single calls range from
    microseconds (AWGN, CI) to tens of milliseconds (OA, whose cutoff
    solve also runs before every OA estimate): the median over such a mix
    sits at a gap between cost clusters and moves with the seed, while the
    median over points, whose cost is ordered by law, does not.
    """
    laws = WORKLOAD_LAWS[workload]
    if workload == "curves":
        ops = []
        for law in laws:
            # grid-major, schemes in the order given, as ``fadecap sweep`` does
            ops.extend(Op("point", law, snr_db=db) for db in curves_snrs(seed))
            ops.append(Op("gaps", law))
        return ops
    if workload == "threshold_opt":
        return [Op("tci_opt", law, "tci", db) for db in threshold_snrs(seed) for law in laws]
    if workload == "mc_oracle":
        points = [(law, db) for law in laws for db in mc_snrs(seed)]
        # distinct Philox streams per estimate and pass, fixed by the seed:
        # scheme j of a point uses mc_seed + j
        return [Op("mc_point", law, snr_db=db,
                   mc_seed=((seed * 1000 + pass_index) * 1000 + i) * len(MC_SCHEMES))
                for i, (law, db) in enumerate(points)]
    raise ValueError(f"unknown workload {workload!r}")


def probe_ops(workload: str, seed: int) -> list[Op]:
    """Known-failing operations run only under tracing (see README.md)."""
    if workload != "threshold_opt":
        return []
    return [Op("tci_opt", PROBE_LAW, "tci", db) for db in threshold_snrs(seed)]


def build_law(fadecap_cli, fadecap_dist, name: str, seed: int):
    """Build one law through the public ``DistributionSpec.build``."""
    if name == "tab":
        return fadecap_dist.DistributionSpec("tabulated", {}, grid=tab_grid(seed)).build()
    return fadecap_cli.parse_distribution_spec(LAW_SPECS[name]).build()
