"""Toggle-MRAM write-timing simulator and true-random-number pipeline.

The package models commercial toggle-MRAM parts operated with a reduced
write pulse, characterizes which cells fail randomly rather than
deterministically, harvests raw bits from those cells, conditions them
with SHA-256 and grades the output with a NIST-style statistical battery.
"""

__version__ = "0.1.0"

from .device import (
    CampaignFold,
    ChipConfig,
    ChipModel,
    Environment,
    MeasurementMatrix,
    TimingParams,
    create_chip,
    default_config,
    fold_campaigns,
    load_chip,
    measure,
    save_chip,
)

__all__ = [
    "CampaignFold",
    "ChipConfig",
    "ChipModel",
    "Environment",
    "MeasurementMatrix",
    "TimingParams",
    "create_chip",
    "default_config",
    "fold_campaigns",
    "load_chip",
    "measure",
    "save_chip",
    "__version__",
]
