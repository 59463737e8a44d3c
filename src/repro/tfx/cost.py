"""Operator compute-cost model.

The paper measures compute cost per operator *group* (Figure 7): data
ingestion ~22%, data analysis & validation + model analysis & validation
together ~35% (more than training), training <1/3 (~20%), with the rest
in pre-processing, deployment, and custom operators. Executions in our
runtime sample a cost (CPU-hours) from a group-specific lognormal scaled
by the pipeline's size factors; the group medians below are calibrated so
a default corpus lands on the paper's shares.

Costs are recorded as the ``cpu_hours`` property of every execution, which
is what the analysis (Figure 7, Figure 9(d), Section 5's feature-cost
accounting) aggregates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class OperatorGroup(enum.Enum):
    """High-level functional grouping of operators (Figures 6 and 7)."""

    DATA_INGESTION = "data_ingestion"
    DATA_ANALYSIS_VALIDATION = "data_analysis_validation"
    DATA_PREPROCESSING = "data_preprocessing"
    TRAINING = "training"
    MODEL_ANALYSIS_VALIDATION = "model_analysis_validation"
    MODEL_DEPLOYMENT = "model_deployment"
    CUSTOM = "custom"


#: Stage ordering used by Section 5's feature-cost accounting: pre-trainer
#: operators can run without the Trainer's output; post-trainer operators
#: validate it.
PRE_TRAINER_GROUPS = frozenset({
    OperatorGroup.DATA_INGESTION,
    OperatorGroup.DATA_ANALYSIS_VALIDATION,
    OperatorGroup.DATA_PREPROCESSING,
    OperatorGroup.CUSTOM,
})
POST_TRAINER_GROUPS = frozenset({
    OperatorGroup.MODEL_ANALYSIS_VALIDATION,
    OperatorGroup.MODEL_DEPLOYMENT,
})


@dataclass
class CostModel:
    """Samples per-execution CPU-hour costs.

    Attributes:
        group_medians: Median CPU-hours per execution, per group, before
            scaling. Calibrated to reproduce Figure 7's shares under the
            default corpus operator mix (ingestion runs far more often
            than training, so its per-execution median is lower).
        sigma: Lognormal shape (spread) of per-execution cost.
    """

    group_medians: dict[OperatorGroup, float] = field(default_factory=lambda: {
        OperatorGroup.DATA_INGESTION: 2.45,
        OperatorGroup.DATA_ANALYSIS_VALIDATION: 1.9,
        OperatorGroup.DATA_PREPROCESSING: 1.2,
        OperatorGroup.TRAINING: 4.9,
        OperatorGroup.MODEL_ANALYSIS_VALIDATION: 10.5,
        OperatorGroup.MODEL_DEPLOYMENT: 4.0,
        OperatorGroup.CUSTOM: 12.0,
    })
    sigma: float = 0.6

    def sample(self, group: OperatorGroup, rng: np.random.Generator,
               scale: float = 1.0) -> float:
        """Draw one execution's cost in CPU-hours.

        Args:
            group: Operator group being executed.
            rng: Randomness source.
            scale: Pipeline size factor (data volume × model complexity).
        """
        median = self.group_medians[group] * max(scale, 1e-6)
        return float(rng.lognormal(np.log(median), self.sigma))

    def wall_clock_hours(self, cpu_hours: float,
                         parallelism: float = 8.0) -> float:
        """Convert CPU-hours to elapsed hours given average parallelism."""
        return max(cpu_hours / max(parallelism, 1.0), 0.01)
