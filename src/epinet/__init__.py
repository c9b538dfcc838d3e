"""Extinction analysis for SIS epidemics over randomly switched networks.

The package answers one question at three price points: does the epidemic
die out?

* :mod:`epinet.exact` enumerates the joint edge-configuration chain and
  decides mean stability exactly (exponential in the edge count);
* :mod:`epinet.stability` certifies almost-sure extinction from two scalars
  of the stationary edge law, at any scale: :func:`epinet.summarize` gives
  them for any model and :func:`epinet.check_sufficient` decides, returning
  the report's ``sufficient`` block as a dict;
* :mod:`epinet.simulate` integrates sample paths and estimates decay rates
  empirically.

:mod:`epinet.oracle` cross-checks the fast bounds against the enumerated
truth on small random instances.
"""

__version__ = "0.1.0"

from .ensembles import (
    CommunitySpec,
    ExpectedDegreeSpec,
    PowerLawSpec,
    community_stats,
    expected_degree_stats,
    summarize,
)
from .exact import (
    ExactResult,
    JointChain,
    build_joint_chain,
    exact_mean_stable,
)
from .netmodel import (
    EdgeChain,
    EpidemicParams,
    SwitchedNetworkSpec,
    WeightedEdgeChain,
    stationary_stats,
)
from .simulate import (
    SimConfig,
    Trajectory,
    estimate_decay,
    simulate_coupled,
    simulate_linear_path,
    simulate_path,
)
from .stability import (
    AbarSummary,
    check_sufficient,
    concentration_penalty,
    convexity_onset,
    minimize_penalty,
)

__all__ = [
    "__version__",
    "AbarSummary",
    "CommunitySpec",
    "EdgeChain",
    "EpidemicParams",
    "ExactResult",
    "ExpectedDegreeSpec",
    "JointChain",
    "PowerLawSpec",
    "SimConfig",
    "SwitchedNetworkSpec",
    "Trajectory",
    "WeightedEdgeChain",
    "build_joint_chain",
    "check_sufficient",
    "community_stats",
    "concentration_penalty",
    "convexity_onset",
    "estimate_decay",
    "exact_mean_stable",
    "expected_degree_stats",
    "minimize_penalty",
    "simulate_coupled",
    "simulate_linear_path",
    "simulate_path",
    "stationary_stats",
    "summarize",
]
