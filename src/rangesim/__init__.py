"""Multiuser initial-ranging receiver for OFDMA uplinks, plus its simulator.

The package splits into four layers: :mod:`rangesim.cxmath` (small dense
complex linear algebra), :mod:`rangesim.airmodel` (ground truth and uplink
signal synthesis), :mod:`rangesim.ranger` (the subspace-based detector and
estimators) and :mod:`rangesim.simlab` (Monte Carlo harness, metrics, CSV
output).  The ``rangesim`` console script in :mod:`rangesim.cli` drives
sweeps from flat config files.  The top level exports the library API the
README documents and the error classes; everything else is imported from
its submodule.
"""

from .airmodel import UserTruth, draw_channel, synthesize_waveform_mode
from .errors import (
    ConfigError,
    DimensionError,
    NumericalError,
    RangingError,
    RankDeficiencyError,
    ValidationError,
)
from .ranger import RangerConfig, range_subchannel
from .simlab import SimConfig, load_config, run_sweep

__version__ = "0.1.0"
