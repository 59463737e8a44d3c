"""Per-graphlet feature extraction (Section 5.2.1).

Four feature families:

* **Graphlet shape** — execution counts and average input/output counts
  per operator, partitioned into pre-trainer / trainer / post-trainer
  stages (each stage's features only exist once the pipeline has run
  that far, which is what gives Table 3 its cost column).
* **Model information** — one-hot model type and DNN architecture.
* **Input data** — history-based: Jaccard overlap and Appendix-B dataset
  similarity against each of the ``window`` immediately preceding
  graphlets, plus span counts and example counts.
* **Code change** — history-based: whether the Trainer code version
  matches each of the preceding graphlets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphlets import Graphlet, graphlet_shape
from ..graphlets.features import STAGE_POST, STAGE_PRE, STAGE_TRAINER
from ..query import as_client
from ..similarity import SpanPairCache, jaccard_similarity
from ..tfx.model_types import DNN_ARCHITECTURES, ModelType

#: History window size (distinct features per ordinal position).
DEFAULT_HISTORY_WINDOW = 3

#: Feature-family identifiers, matching the paper's groups.
FAMILY_SHAPE_PRE = "shape_pre"
FAMILY_SHAPE_TRAINER = "shape_trainer"
FAMILY_SHAPE_POST = "shape_post"
FAMILY_MODEL = "model"
FAMILY_INPUT = "input"
FAMILY_CODE = "code"

ALL_FAMILIES = (FAMILY_INPUT, FAMILY_CODE, FAMILY_MODEL, FAMILY_SHAPE_PRE,
                FAMILY_SHAPE_TRAINER, FAMILY_SHAPE_POST)


@dataclass
class GraphletFeatures:
    """Feature dict per family, for one graphlet."""

    by_family: dict[str, dict[str, float]] = field(default_factory=dict)

    def select(self, families) -> dict[str, float]:
        """Merged feature dict restricted to the given families."""
        out: dict[str, float] = {}
        for family in families:
            out.update(self.by_family.get(family, {}))
        return out


def _model_features(graphlet: Graphlet) -> dict[str, float]:
    features: dict[str, float] = {}
    model_type = graphlet.model_type
    for candidate in ModelType:
        features[f"model_type={candidate.value}"] = float(
            model_type == candidate.value)
    features["model_type=unknown"] = float(model_type == "unknown")
    architecture = graphlet.architecture
    for candidate in DNN_ARCHITECTURES:
        features[f"architecture={candidate}"] = float(
            architecture == candidate)
    return features


def _input_features(graphlet: Graphlet, history: list[Graphlet],
                    window: int, cache: SpanPairCache) -> dict[str, float]:
    """Section 5.2.1's input-data family: overlap (Jaccard) and dataset
    similarity against each preceding graphlet, plus the temporal gaps
    the paper mentions as history-based signals. Span counts live in the
    *shape* family (Trainer avg-input / ExampleGen count), not here."""
    features: dict[str, float] = {}
    own_spans = graphlet.span_id_set()
    own_ids, own_sequence = graphlet.span_sequence_with_ids()
    for position in range(1, window + 1):
        if position <= len(history):
            previous = history[-position]
            features[f"jaccard_{position}"] = jaccard_similarity(
                own_spans, previous.span_id_set())
            prev_ids, prev_sequence = previous.span_sequence_with_ids()
            features[f"dataset_sim_{position}"] = \
                cache.sequence_similarity(own_ids, own_sequence,
                                          prev_ids, prev_sequence)
            features[f"time_gap_{position}"] = max(
                graphlet.trainer.start_time
                - previous.trainer.start_time, 0.0)
        else:
            features[f"jaccard_{position}"] = -1.0
            features[f"dataset_sim_{position}"] = -1.0
            features[f"time_gap_{position}"] = -1.0
    return features


def _code_features(graphlet: Graphlet, history: list[Graphlet],
                   window: int) -> dict[str, float]:
    features: dict[str, float] = {}
    for position in range(1, window + 1):
        if position <= len(history):
            previous = history[-position]
            features[f"code_change_{position}"] = float(
                graphlet.code_version != previous.code_version)
        else:
            features[f"code_change_{position}"] = -1.0
    return features


def extract_features(graphlet: Graphlet, history: list[Graphlet],
                     window: int = DEFAULT_HISTORY_WINDOW,
                     cache: SpanPairCache | None = None
                     ) -> GraphletFeatures:
    """Extract all feature families for one graphlet.

    Args:
        graphlet: The graphlet to featurize.
        history: Its predecessors in the same pipeline, oldest first
            (only the last ``window`` are consulted).
        window: History window size.
        cache: Span-pair similarity cache; by default the memo the
            graphlet's store client shares between analyses.
    """
    shape = graphlet_shape(graphlet)
    if cache is None:
        cache = as_client(graphlet.store).span_pairs
    post = shape.stage_feature_dict({STAGE_POST})
    # The Pusher's output count *is* the push label; a feature set
    # containing it would be an oracle rather than a predictor. Its
    # execution count stays (validation gates decide whether it runs at
    # all), matching the paper's near-but-not-perfect RF:Validation.
    post.pop("Pusher_avg_out", None)
    return GraphletFeatures(by_family={
        FAMILY_INPUT: _input_features(graphlet, history, window,
                                       cache),
        FAMILY_CODE: _code_features(graphlet, history, window),
        FAMILY_MODEL: _model_features(graphlet),
        FAMILY_SHAPE_PRE: shape.stage_feature_dict({STAGE_PRE}),
        FAMILY_SHAPE_TRAINER: shape.stage_feature_dict({STAGE_TRAINER}),
        FAMILY_SHAPE_POST: post,
    })
