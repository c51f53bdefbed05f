"""Ratio-based biomarker analysis for compositional count data."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .benchmark import (
    BenchmarkRow,
    benchmark_table,
    run_benchmark,
    synthetic_omics_pair,
)
from .composition import (
    CompositionMatrix,
    Outcome,
    StrictlyPositiveMatrix,
    ZeroPolicy,
    apply_zero_policy,
    close_to_proportions,
    clr_transform,
    pairwise_logratios,
)
from .glm import (
    DaaResult,
    FittedGlm,
    RatioAnalysis,
    benjamini_hochberg,
    daa,
    differential_ratio_analysis,
    fit_glm,
)
from .learn import (
    LearnedModel,
    LearnerConfig,
    RatioBiomarker,
    evaluate_biomarker,
    evolutionary_slr,
    forward_stepwise_balance,
    load_model,
    predict,
    relaxed_gradient_learner,
    serialize_model,
)
from .latent import (
    EncoderDecoderConfig,
    LatentRepresentation,
    OmicsPair,
    approximate_latent_with_rbb,
    encoder_decoder_latent,
    least_squares_decode,
    pca_first_component,
    pls_first_component,
    variance_explained,
)
from .simulate import (
    BiasModel,
    GroundTruthScenario,
    da_notion_report,
    depth_confounded_scenario,
    group_outcome,
    observe,
    planted_signal_scenario,
)

# Every public name imported above; submodules are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
