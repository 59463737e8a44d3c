"""The model graphlet: a per-model sub-trace (Section 4.1).

A graphlet is the subgraph of a pipeline trace capturing one end-to-end
logical pipeline run around a single Trainer execution: its data
ancestors (rule a), associated data-analysis/validation executions
(rule b), and its post-training descendants up to the next Trainer
(rule c). This class is a lightweight view over the metadata store; the
segmentation algorithms in :mod:`repro.graphlets.segmentation` produce
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mlmd import Execution, ExecutionState, MetadataStore
from ..query import as_client
from ..similarity.feature_metric import SpanDigest
from ..tfx import artifacts as A

#: Execution type names counted as data analysis / validation (rule b).
DATA_ANALYSIS_TYPES = frozenset({
    "StatisticsGen", "SchemaGen", "ExampleValidator",
})

#: Execution type names that stop descendant traversal (Appendix A's sc).
STOP_TYPES = frozenset({"Trainer", "Transform"})


@dataclass
class Graphlet:
    """One model graphlet.

    Attributes:
        store: The metadata store the ids refer to.
        pipeline_context_id: The owning pipeline's Context id.
        trainer_execution_id: The central Trainer execution.
        execution_ids: All executions in the graphlet (trainer included).
        artifact_ids: All artifacts in the graphlet.
    """

    store: MetadataStore
    pipeline_context_id: int
    trainer_execution_id: int
    execution_ids: set[int] = field(default_factory=set)
    artifact_ids: set[int] = field(default_factory=set)

    # ------------------------------------------------------------ nodes

    @property
    def trainer(self) -> Execution:
        """The central Trainer execution."""
        return self.store.get_execution(self.trainer_execution_id)

    def executions(self) -> list[Execution]:
        """All executions, ordered by start time."""
        rows = [self.store.get_execution(i) for i in self.execution_ids]
        return sorted(rows, key=lambda e: (e.start_time, e.id))

    @property
    def node_count(self) -> int:
        """Total executions + artifacts in the graphlet."""
        return len(self.execution_ids) + len(self.artifact_ids)

    # ------------------------------------------------------------ model

    @property
    def model_artifact_id(self) -> int | None:
        """The Model artifact produced by the trainer (None if it failed)."""
        for artifact_id in self.store.get_output_artifact_ids(
                self.trainer_execution_id):
            if self.store.get_artifact(artifact_id).type_name == A.MODEL:
                return artifact_id
        return None

    @property
    def model_type(self) -> str:
        """The trained model's type ('unknown' when training failed)."""
        model_id = self.model_artifact_id
        if model_id is None:
            return "unknown"
        return str(self.store.get_artifact(model_id).get("model_type",
                                                         "unknown"))

    @property
    def architecture(self) -> str:
        """DNN architecture label (empty for non-DNN models)."""
        model_id = self.model_artifact_id
        if model_id is None:
            return ""
        return str(self.store.get_artifact(model_id).get("architecture", ""))

    @property
    def code_version(self) -> str:
        """Trainer code version (recorded even when training failed)."""
        version = self.trainer.get("code_version")
        if version:
            return str(version)
        model_id = self.model_artifact_id
        if model_id is None:
            return ""
        return str(self.store.get_artifact(model_id).get("code_version", ""))

    @property
    def warm_started(self) -> bool:
        """True if the trainer was warm-started from a previous model."""
        model_id = self.model_artifact_id
        if model_id is None:
            return False
        return bool(self.store.get_artifact(model_id).get("warm_started",
                                                          False))

    @property
    def trainer_failed(self) -> bool:
        """True when the Trainer execution itself failed."""
        return self.trainer.state is ExecutionState.FAILED

    # ------------------------------------------------------------- push

    @property
    def pushed(self) -> bool:
        """True when the graphlet deployed its model (Section 4.3.1).

        The analyses read it many times per graphlet, so it is computed
        once and cached on the graphlet, like the span sequence.
        """
        cached = getattr(self, "_pushed_cache", None)
        if cached is None:
            cached = self._pushed_cache = any(
                self.store.get_artifact(a).type_name == A.PUSHED_MODEL
                for a in self.artifact_ids)
        return cached

    # ------------------------------------------------------------- data

    def input_span_artifact_ids(self) -> tuple[int, ...]:
        """DataSpan artifacts consumed by the trainer, in event order.

        Cached on the graphlet, like the span sequence.
        """
        cached = getattr(self, "_input_spans_cache", None)
        if cached is None:
            cached = self._input_spans_cache = tuple(
                a for a in self.store.get_input_artifact_ids(
                    self.trainer_execution_id)
                if self.store.get_artifact(a).type_name == A.DATA_SPAN)
        return cached

    def span_sequence_with_ids(self) -> tuple[list[int], list[SpanDigest]]:
        """(artifact ids, digests) of the input spans, ingestion order.

        The ids key the corpus-wide span-pair similarity cache. Digests
        come from the client's per-artifact memo, so a span shared by
        many graphlet windows is decoded once; the pair of lists is also
        cached on the graphlet.
        """
        cached = getattr(self, "_span_seq_cache", None)
        if cached is not None:
            return cached
        client = as_client(self.store)
        spans = [client.get_artifact(a)
                 for a in self.input_span_artifact_ids()]
        spans.sort(key=lambda a: (a.get("span_id", 0), a.id))
        result = ([a.id for a in spans],
                  [client.span_digest(a.id) for a in spans])
        self._span_seq_cache = result
        return result

    def span_id_set(self) -> frozenset[int]:
        """The I(g) of Section 4.2.1: identities of the input spans.

        Cached on the graphlet; frozen, so no caller can change it.
        """
        cached = getattr(self, "_span_id_set_cache", None)
        if cached is None:
            cached = self._span_id_set_cache = frozenset(
                self.input_span_artifact_ids())
        return cached

    # ------------------------------------------------------------- time

    def _time_bounds(self) -> tuple[float, float]:
        """(earliest, latest) node timestamp, read in one pass and
        cached: an execution ends at ``end_time`` (its start while it
        has none), an artifact is a point at its ``create_time``."""
        cached = getattr(self, "_time_bounds_cache", None)
        if cached is not None:
            return cached
        starts, ends = [], []
        for e in self.execution_ids:
            execution = self.store.get_execution(e)
            starts.append(execution.start_time)
            ends.append(execution.end_time or execution.start_time)
        created = [self.store.get_artifact(a).create_time
                   for a in self.artifact_ids]
        starts += created
        ends += created
        cached = self._time_bounds_cache = \
            (min(starts), max(ends)) if starts else (0.0, 0.0)
        return cached

    @property
    def start_time(self) -> float:
        """Earliest node timestamp in the graphlet."""
        return self._time_bounds()[0]

    @property
    def end_time(self) -> float:
        """Latest node timestamp in the graphlet."""
        return self._time_bounds()[1]

    @property
    def duration_hours(self) -> float:
        """End-to-end graphlet duration (Figure 9(e))."""
        return max(self.end_time - self.start_time, 0.0)

    # ------------------------------------------------------------- cost

    def _execution_facts(self, execution_ids):
        """Per-execution facts from the store client's memo."""
        return as_client(self.store).execution_facts(execution_ids)

    @property
    def total_cpu_hours(self) -> float:
        """Total compute of the graphlet's executions."""
        return sum(facts.cpu_hours
                   for facts in self._execution_facts(self.execution_ids))

    @property
    def training_cpu_hours(self) -> float:
        """The trainer execution's compute (Figure 9(d))."""
        return self._execution_facts((self.trainer_execution_id,))[0] \
            .cpu_hours
