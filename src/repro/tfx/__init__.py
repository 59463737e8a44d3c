"""TFX-like end-to-end ML pipeline runtime (substrate).

Operators, the pipeline DSL, the orchestrating runner, and the compute
cost model — the system whose traces the paper analyzes, rebuilt from
scratch on top of :mod:`repro.mlmd`.
"""

from . import artifacts
from .cost import (
    POST_TRAINER_GROUPS,
    PRE_TRAINER_GROUPS,
    CostModel,
    OperatorGroup,
)
from .model_types import DNN_ARCHITECTURES, ModelType, coarse_family
from .operators import (
    CustomOperator,
    ExampleGen,
    ExampleValidator,
    Evaluator,
    InfraValidator,
    ModelValidator,
    Operator,
    OperatorContext,
    OperatorResult,
    OutputArtifact,
    Pusher,
    SchemaGen,
    StatisticsGen,
    Trainer,
    Transform,
    Tuner,
)
from .pipeline import (
    INGEST_STAGE,
    TRAIN_STAGE,
    NodeInput,
    PipelineDef,
    PipelineNode,
    PipelineValidationError,
)
from .runtime import (
    BLOCKED,
    CACHED,
    FAILED,
    NOT_IN_STAGE,
    RAN,
    SKIPPED,
    PipelineRunner,
    RunReport,
)

__all__ = [
    "BLOCKED",
    "CACHED",
    "CostModel",
    "CustomOperator",
    "DNN_ARCHITECTURES",
    "ExampleGen",
    "ExampleValidator",
    "Evaluator",
    "FAILED",
    "INGEST_STAGE",
    "InfraValidator",
    "ModelType",
    "ModelValidator",
    "NOT_IN_STAGE",
    "NodeInput",
    "Operator",
    "OperatorContext",
    "OperatorGroup",
    "OperatorResult",
    "OutputArtifact",
    "POST_TRAINER_GROUPS",
    "PRE_TRAINER_GROUPS",
    "PipelineDef",
    "PipelineNode",
    "PipelineRunner",
    "PipelineValidationError",
    "Pusher",
    "RAN",
    "RunReport",
    "SKIPPED",
    "SchemaGen",
    "StatisticsGen",
    "TRAIN_STAGE",
    "Trainer",
    "Transform",
    "Tuner",
    "artifacts",
    "coarse_family",
]
