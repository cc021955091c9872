"""Two-cell multi-antenna AirComp with simultaneous signal-and-interference
alignment: matrix construction, Monte Carlo engine and closed-form baselines."""

from .__about__ import __version__
from .baselines import (
    EfficiencyReport,
    build_no_ia_precoders,
    efficiency_report,
    genie_channels,
)
from .engine import (
    SweepPoint,
    SweepResult,
    TrialResult,
    fit_nmse_slope,
    run_functional_trial,
    run_sweep,
    run_trials,
    worker_count,
)
from .errors import (
    AirCompError,
    ConfigError,
    DegenerateChannels,
    DomainError,
    RankDeficient,
    SizeMismatch,
)
from .functions import FunctionSpec, postprocess, preprocess
from .linalg import numerical_rank
from .sia import aligned_interference_dimension, build_reference_matrices, build_sia_matrices
from .system import (
    ChannelSet,
    Partition,
    SystemConfig,
    draw_channels,
    parse_config_file,
    partition,
    superpose,
)

__all__ = [
    "__version__",
    "AirCompError", "ConfigError", "DegenerateChannels", "DomainError",
    "RankDeficient", "SizeMismatch",
    "numerical_rank",
    "SystemConfig", "Partition", "partition", "ChannelSet", "draw_channels",
    "superpose", "parse_config_file",
    "build_reference_matrices", "build_sia_matrices", "aligned_interference_dimension",
    "EfficiencyReport", "efficiency_report",
    "build_no_ia_precoders", "genie_channels",
    "FunctionSpec", "preprocess", "postprocess",
    "TrialResult", "SweepPoint", "SweepResult", "run_trials", "run_sweep",
    "run_functional_trial", "fit_nmse_slope",
    "worker_count",
]
