"""fuotacast: multicast firmware-update delivery over LoRa-like links.

Analytical models and a Monte Carlo simulator for a duty-cycled gateway
multicasting coded firmware fragments to a field of recipients, with a
sequential spreading-factor ramp policy, fixed-SF baselines, and a
group-based baseline, plus battery-lifetime estimation.
"""

from .analysis import (
    AnalysisOptions,
    NumericalIntegrationError,
    SuccessTables,
    UnreachableRecipientError,
    success_tables,
)
from .benchmarks import DistanceRow, SchemeSummary, run_suite
from .channel import InterfererField, LinkModel, interference_radius
from .config import ConfigError, ExperimentSpec, load_config, load_default_spec
from .fec import RatelessModel
from .lifetime import DutyProfile, battery_lifetime_years
from .phy import ALL_SFS, SF_MAX, SF_MIN, PhyProfile
from .schemes import FixedSfScheme, GroupBasedScheme, ProposedScheme
from .sim import ExperimentResult, run_experiment, run_session

__version__ = "0.1.0"

__all__ = [
    "ALL_SFS",
    "AnalysisOptions",
    "ConfigError",
    "DistanceRow",
    "DutyProfile",
    "ExperimentResult",
    "ExperimentSpec",
    "FixedSfScheme",
    "GroupBasedScheme",
    "InterfererField",
    "LinkModel",
    "NumericalIntegrationError",
    "PhyProfile",
    "ProposedScheme",
    "RatelessModel",
    "SF_MAX",
    "SF_MIN",
    "SchemeSummary",
    "SuccessTables",
    "UnreachableRecipientError",
    "battery_lifetime_years",
    "interference_radius",
    "load_config",
    "load_default_spec",
    "run_experiment",
    "run_session",
    "run_suite",
    "success_tables",
    "__version__",
]
