"""Calibrated synthetic corpus generator (the paper's data substitute)."""

from . import calibration
from .archetypes import PipelineArchetype, build_pipeline, sample_archetype
from .config import (
    PRODUCT_AREAS,
    TASKS,
    CadenceMixture,
    CorpusConfig,
    LifespanModel,
    MechanismConfig,
)
from .generator import (Corpus, PipelineRecord,
                        production_context_ids_from_store)
from .mechanism import PushMechanism

__all__ = [
    "CadenceMixture",
    "Corpus",
    "CorpusConfig",
    "LifespanModel",
    "MechanismConfig",
    "PRODUCT_AREAS",
    "PipelineArchetype",
    "PipelineRecord",
    "PushMechanism",
    "TASKS",
    "build_pipeline",
    "calibration",
    "production_context_ids_from_store",
    "sample_archetype",
]
