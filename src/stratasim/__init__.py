"""stratasim: truncated-Gaussian stratigraphic modeling from borehole logs.

Fits per-facies thickness models to borehole records with a
data-augmentation MCMC over hidden layer configurations, and simulates
stacked layer geometry unconditionally or conditioned on the boreholes.
"""

from .core import (
    THICKNESS_QUANTUM,
    AugmentedConfiguration,
    BoreholeObservation,
    Move,
    ParentSequence,
    apply_move,
    enumerate_moves,
    initial_augmentation,
    is_compatible,
    observe,
    snap_thickness,
)
from .errors import (
    CapacityError,
    DatasetError,
    DegenerateRegionError,
    IncompatibleSequenceError,
    InfeasibleMoveError,
    InvalidConfigurationError,
    NumericError,
    ParameterError,
    PlacementError,
    StrataError,
)
from .fieldsim import (
    LayerStack,
    SimGrid,
    cross_section,
    simulate_conditional,
    simulate_unconditional,
)
from .gaussnum import MaternSpec, matern, mvn_cdf_below
from .likelihood import LayerParams, tcd, thickness_moments
from .mcmc import (
    PosteriorSample,
    PriorSpec,
    ProposalSpec,
    ThicknessModel,
    run_chain,
    select_most_likely,
)
from .synthgen import DEFAULT_PARENT, DEFAULT_TRUE_PARAMS, SyntheticScenario, generate

__version__ = "0.1.0"

__all__ = [
    "THICKNESS_QUANTUM",
    "AugmentedConfiguration",
    "BoreholeObservation",
    "Move",
    "ParentSequence",
    "apply_move",
    "enumerate_moves",
    "initial_augmentation",
    "is_compatible",
    "observe",
    "snap_thickness",
    "StrataError",
    "ParameterError",
    "InvalidConfigurationError",
    "IncompatibleSequenceError",
    "InfeasibleMoveError",
    "NumericError",
    "CapacityError",
    "DegenerateRegionError",
    "PlacementError",
    "DatasetError",
    "LayerStack",
    "SimGrid",
    "cross_section",
    "simulate_conditional",
    "simulate_unconditional",
    "MaternSpec",
    "matern",
    "mvn_cdf_below",
    "LayerParams",
    "tcd",
    "thickness_moments",
    "PosteriorSample",
    "PriorSpec",
    "ProposalSpec",
    "ThicknessModel",
    "run_chain",
    "select_most_likely",
    "DEFAULT_PARENT",
    "DEFAULT_TRUE_PARAMS",
    "SyntheticScenario",
    "generate",
    "__version__",
]
