"""``repro.completion`` — attribute-completion operations and feature builders."""

from .base import CompletionOp
from .mixture import (
    AttributeProjector,
    FeatureBuilder,
    FixedAssignmentFeatures,
    HandcraftedFeatures,
    SingleOpFeatures,
    WeightedCompletionFeatures,
)
from .ops import (
    GCNCompletion,
    MeanCompletion,
    OneHotCompletion,
    PPNPCompletion,
    PropagatedCompletion,
)
from .space import (
    DEFAULT_SPACE,
    SearchSpace,
    available_ops,
    build_op,
    register_op,
)

__all__ = [
    "CompletionOp",
    "MeanCompletion",
    "GCNCompletion",
    "PPNPCompletion",
    "OneHotCompletion",
    "SearchSpace",
    "register_op",
    "available_ops",
    "build_op",
    "DEFAULT_SPACE",
    "AttributeProjector",
    "PropagatedCompletion",
    "FeatureBuilder",
    "HandcraftedFeatures",
    "SingleOpFeatures",
    "WeightedCompletionFeatures",
    "FixedAssignmentFeatures",
]
