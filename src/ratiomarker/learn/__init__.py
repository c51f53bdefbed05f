from types import ModuleType as _ModuleType

from .biomarker import (
    LearnedModel,
    LearnerConfig,
    RatioBiomarker,
    evaluate_biomarker,
    load_model,
    predict,
    serialize_model,
)
from .evolutionary import evolutionary_slr
from .relaxed import relaxed_gradient_learner
from .stepwise import forward_stepwise_balance

# Every public name imported above; submodules are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
