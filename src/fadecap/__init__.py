"""fadecap: ergodic capacity of adaptive transmission over fading channels.

Exact capacities (with implicit power-constraint thresholds) for optimal
power/rate adaptation, rate-only adaptation, channel inversion and its
truncated variants over arbitrary fading gain laws, plus the closed-form
high-SNR gaps, low-SNR slopes and a Monte-Carlo cross-check oracle.
"""

from .numerics import (
    EULER_MASCHERONI,
    Bracket,
    BracketError,
    QuadResult,
    QuadratureError,
    find_root_monotone,
    integrate_finite,
    integrate_semi_infinite,
    maximize_unimodal,
)
from .distributions import (
    DistributionSpec,
    FadingDistribution,
    load_tabulated_csv,
    make_frechet,
    make_gamma_diversity,
    make_max_exponential,
    make_miso_multiuser,
    make_tabulated,
)
from .schemes import (
    CapacityResult,
    Scheme,
    ThresholdSolution,
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
from .asymptotics import (
    GapReport,
    gap_awgn_ci,
    gap_awgn_oa,
    gap_oa_ci,
    gap_report,
    low_snr_slope,
    multiuser_gap_asymptotic,
    space_diversity_gaps,
)
from .mc import McEstimate, mc_capacity

__all__ = [
    "EULER_MASCHERONI",
    "Bracket",
    "BracketError",
    "QuadResult",
    "QuadratureError",
    "find_root_monotone",
    "integrate_finite",
    "integrate_semi_infinite",
    "maximize_unimodal",
    "DistributionSpec",
    "FadingDistribution",
    "load_tabulated_csv",
    "make_frechet",
    "make_gamma_diversity",
    "make_max_exponential",
    "make_miso_multiuser",
    "make_tabulated",
    "CapacityResult",
    "Scheme",
    "ThresholdSolution",
    "awgn_capacity",
    "capacity",
    "ci_capacity",
    "ctci_capacity",
    "ctci_dmax",
    "oa_capacity",
    "oa_threshold",
    "ra_capacity",
    "tci_capacity",
    "tci_dmax",
    "tci_optimize",
    "GapReport",
    "gap_awgn_ci",
    "gap_awgn_oa",
    "gap_oa_ci",
    "gap_report",
    "low_snr_slope",
    "multiuser_gap_asymptotic",
    "space_diversity_gaps",
    "McEstimate",
    "mc_capacity",
    "__version__",
]

__version__ = "0.1.0"
