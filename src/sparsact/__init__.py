"""Sparse actuation/sensing controller synthesis via LMIs and SDP."""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    InfeasiblePerformance,
    ModelingError,
    NonHurwitzError,
    NonzeroFeedthroughError,
    ReconstructionFailure,
    ReducedInfeasible,
    SparsactError,
    SynthesisNumericalError,
)
from .model import (
    ClosedLoop,
    DynamicController,
    GeneralizedPlant,
    StateFeedbackGain,
    close_output_feedback,
    close_state_feedback,
    load_plant,
    save_plant,
    validate_plant,
)
from .analysis import NormReport, channel_h2_norms, h2_norm, hinf_norm
from .sdp import SdpProblem, SdpSolution, SolverOptions, solve_sdp
from .statefb import SfSynthesisResult, SfSynthesisSpec, synth_sf
from .outputfb import HatController, OfSynthesisResult, OfSynthesisSpec, synth_of
from .joint import JointSpec, JointSynthesisResult, synth_joint, verify_sparsity_preservation
from .sparsify import (
    PrunedResult,
    ReweightPolicy,
    SparsifyTrace,
    prune_and_resolve,
    reweight_iterate,
)
from .bench import (
    MassSpringChain,
    ScalarOracle,
    TensegrityApprox,
    gamma_sweep,
    simulate_closed_loop,
)
from .estimators import JointSparseDesign, SparseOutputFeedback, SparseStateFeedback

__all__ = [
    "__version__",
    "SparsactError", "DimensionError", "ModelingError", "NonHurwitzError",
    "NonzeroFeedthroughError", "InfeasiblePerformance", "SynthesisNumericalError",
    "ReconstructionFailure", "ReducedInfeasible",
    "GeneralizedPlant", "StateFeedbackGain", "DynamicController", "ClosedLoop",
    "validate_plant", "close_state_feedback", "close_output_feedback",
    "save_plant", "load_plant",
    "NormReport", "hinf_norm", "h2_norm", "channel_h2_norms",
    "SdpProblem", "SdpSolution", "SolverOptions", "solve_sdp",
    "SfSynthesisSpec", "SfSynthesisResult", "synth_sf",
    "HatController", "OfSynthesisSpec", "OfSynthesisResult", "synth_of",
    "JointSpec", "JointSynthesisResult", "synth_joint",
    "verify_sparsity_preservation",
    "ReweightPolicy", "SparsifyTrace", "PrunedResult",
    "reweight_iterate", "prune_and_resolve",
    "ScalarOracle", "MassSpringChain", "TensegrityApprox",
    "simulate_closed_loop", "gamma_sweep",
    "SparseStateFeedback", "SparseOutputFeedback", "JointSparseDesign",
]
