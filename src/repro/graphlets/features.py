"""Structural (shape) features of a graphlet (Section 5.2.1).

Shape features are "the count of executions corresponding to each
operator, as well as the average input and output count for each
execution", partitioned into pre-trainer operators, the Trainer, and
post-trainer operators. Obtaining the features for a stage requires
actually running the graphlet up to that stage — which is why Table 3
assigns each feature family a compute cost.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from ..query import as_client
from ..tfx.cost import POST_TRAINER_GROUPS, PRE_TRAINER_GROUPS, OperatorGroup
from .graphlet import Graphlet

#: Feature-extraction stages, in pipeline order.
STAGE_PRE = "pre_trainer"
STAGE_TRAINER = "trainer"
STAGE_POST = "post_trainer"


@functools.cache
def stage_of_group(group_value: str) -> str:
    """Map an operator group (string form) to its stage."""
    group = OperatorGroup(group_value)
    if group in PRE_TRAINER_GROUPS:
        return STAGE_PRE
    if group in POST_TRAINER_GROUPS:
        return STAGE_POST
    return STAGE_TRAINER


@dataclass
class OperatorShape:
    """Shape of one operator type within a graphlet."""

    count: int = 0
    total_inputs: int = 0
    total_outputs: int = 0

    @property
    def avg_inputs(self) -> float:
        """Average input artifacts per execution."""
        return self.total_inputs / self.count if self.count else 0.0

    @property
    def avg_outputs(self) -> float:
        """Average output artifacts per execution."""
        return self.total_outputs / self.count if self.count else 0.0


@dataclass
class GraphletShape:
    """Full shape summary: per-operator stats, partitioned by stage."""

    by_operator: dict[str, OperatorShape] = field(default_factory=dict)
    by_stage: dict[str, dict[str, OperatorShape]] = field(
        default_factory=dict)

    def stage_feature_dict(self, stages: set[str]) -> dict[str, float]:
        """Numeric feature dict restricted to the given stages.

        Keys are ``{op}_count`` / ``{op}_avg_in`` / ``{op}_avg_out`` —
        the encoding fed to the waste-mitigation models.
        """
        out: dict[str, float] = {}
        for stage in stages:
            for op_name, shape in self.by_stage.get(stage, {}).items():
                out[f"{op_name}_count"] = float(shape.count)
                out[f"{op_name}_avg_in"] = shape.avg_inputs
                out[f"{op_name}_avg_out"] = shape.avg_outputs
        return out


def graphlet_shape(graphlet: Graphlet) -> GraphletShape:
    """Compute the shape summary of one graphlet."""
    # Executions of one operator, stage and input/output count are
    # counted together; the buckets are filled in first-seen order.
    kinds = Counter(facts[:4] for facts in as_client(
        graphlet.store).execution_facts(graphlet.execution_ids))
    shape = GraphletShape()
    for (op_name, stage, n_in, n_out), count in kinds.items():
        per_op = shape.by_operator.setdefault(op_name, OperatorShape())
        per_stage = shape.by_stage.setdefault(stage, {}).setdefault(
            op_name, OperatorShape())
        for bucket in (per_op, per_stage):
            bucket.count += count
            bucket.total_inputs += count * n_in
            bucket.total_outputs += count * n_out
    return shape
