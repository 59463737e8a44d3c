"""Artifact type vocabulary of the TFX-like runtime.

Every operator declares the artifact types it consumes and produces;
the runtime type-checks pipeline wiring against these declarations
("type-checked at authoring", Section 2.1) and records instances in the
metadata store under these type names — which is what the trace analysis
and graphlet segmentation key on.
"""

from __future__ import annotations

# Artifact type names (the strings recorded in MLMD).
DATA_SPAN = "DataSpan"
STATISTICS = "ExampleStatistics"
SCHEMA = "Schema"
DATA_VALIDATION = "DataValidationResult"
TRANSFORM_GRAPH = "TransformGraph"
HYPERPARAMS = "Hyperparameters"
MODEL = "Model"
MODEL_EVALUATION = "ModelEvaluation"
MODEL_BLESSING = "ModelBlessing"
INFRA_BLESSING = "InfraBlessing"
PUSHED_MODEL = "PushedModel"
CUSTOM_ARTIFACT = "CustomArtifact"
