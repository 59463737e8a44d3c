"""Graphlet-level (fine-grained) analysis — Section 4.

Functions over segmented graphlets producing the paper's artifacts:

* :func:`similarity_table` — Table 1 (Jaccard / dataset / avg-dataset
  similarity of consecutive graphlets)
* :func:`inter_graphlet_gaps` — Figure 9(a)/(b)
* :func:`graphlets_between_pushes` — Figure 9(c)
* :func:`cost_by_push` — Figure 9(d)
* :func:`durations` — Figure 9(e)
* :func:`push_rate_by_model_type` — Figure 9(f)
* :func:`push_vs_drift_table` — Table 2
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..graphlets import Graphlet, consecutive_pairs
from ..query import as_client
from ..similarity import jaccard_similarity
from .distributions import bucket_fractions

#: Table 1's similarity ranges.
SIMILARITY_EDGES = [0.0, 0.25, 0.5, 0.75, 1.0]


def similarity_table(graphlets_by_pipeline: dict[int, list[Graphlet]]
                     ) -> dict[str, dict]:
    """Table 1: similarity metrics over consecutive graphlet pairs.

    Rows: ``jaccard`` (span-identity reuse), ``dataset`` (content
    similarity, Appendix B), ``avg_dataset`` (dataset similarity averaged
    within each pipeline first). Each row carries the Table-1 bucket
    fractions and the mean. Span pairs are scored through the store
    client's shared memo (:attr:`~repro.query.MetadataClient.span_pairs`).
    """
    jaccard_values: list[float] = []
    dataset_values: list[float] = []
    per_pipeline_means: list[float] = []
    for graphlets in graphlets_by_pipeline.values():
        pipeline_values = []
        for a, b in consecutive_pairs(graphlets):
            jaccard_values.append(
                jaccard_similarity(a.span_id_set(), b.span_id_set()))
            ids_a, seq_a = a.span_sequence_with_ids()
            ids_b, seq_b = b.span_sequence_with_ids()
            similarity = as_client(a.store).span_pairs.sequence_similarity(
                ids_a, seq_a, ids_b, seq_b)
            dataset_values.append(similarity)
            pipeline_values.append(similarity)
        if pipeline_values:
            per_pipeline_means.append(float(np.mean(pipeline_values)))

    def _row(values: list[float]) -> dict:
        return {
            "buckets": bucket_fractions(values, SIMILARITY_EDGES),
            "mean": float(np.mean(values)) if values else 0.0,
        }

    return {
        "jaccard": _row(jaccard_values),
        "dataset": _row(dataset_values),
        "avg_dataset": _row(per_pipeline_means),
    }


def inter_graphlet_gaps(graphlets_by_pipeline: dict[int, list[Graphlet]]
                        ) -> dict[str, list[float]]:
    """Figure 9(a)/(b): per-pipeline average gaps (hours).

    Returns the distribution of the average time between consecutive
    graphlets (``all``) and between consecutive *pushed* graphlets
    (``pushed``), one value per pipeline — matching the figure's
    "average time between consecutive model graphlets".
    """
    gaps_all: list[float] = []
    gaps_pushed: list[float] = []
    for graphlets in graphlets_by_pipeline.values():
        times = [g.trainer.start_time for g in graphlets]
        if len(times) >= 2:
            deltas = np.diff(times)
            gaps_all.append(float(np.mean(deltas)))
        pushed_times = [g.trainer.start_time for g in graphlets if g.pushed]
        if len(pushed_times) >= 2:
            deltas = np.diff(pushed_times)
            gaps_pushed.append(float(np.mean(deltas)))
    return {"all": gaps_all, "pushed": gaps_pushed}


def graphlets_between_pushes(graphlets_by_pipeline:
                             dict[int, list[Graphlet]]) -> list[int]:
    """Figure 9(c): unpushed graphlets between consecutive pushes."""
    counts: list[int] = []
    for graphlets in graphlets_by_pipeline.values():
        since_push: int | None = None
        for graphlet in graphlets:
            if graphlet.pushed:
                if since_push is not None:
                    counts.append(since_push)
                since_push = 0
            elif since_push is not None:
                since_push += 1
    return counts


def cost_by_push(graphlets_by_pipeline: dict[int, list[Graphlet]]
                 ) -> dict[str, list[float]]:
    """Figure 9(d): training cost of pushed vs unpushed graphlets."""
    out: dict[str, list[float]] = {"pushed": [], "unpushed": []}
    for graphlets in graphlets_by_pipeline.values():
        for graphlet in graphlets:
            key = "pushed" if graphlet.pushed else "unpushed"
            out[key].append(graphlet.training_cpu_hours)
    return out


def durations(graphlets_by_pipeline: dict[int, list[Graphlet]]
              ) -> list[float]:
    """Figure 9(e): graphlet durations in hours."""
    return [g.duration_hours
            for graphlets in graphlets_by_pipeline.values()
            for g in graphlets]


def push_rate_by_model_type(graphlets_by_pipeline:
                            dict[int, list[Graphlet]]) -> dict[str, float]:
    """Figure 9(f): likelihood of push per model type."""
    by_type: dict[str, list[bool]] = defaultdict(list)
    for graphlets in graphlets_by_pipeline.values():
        for graphlet in graphlets:
            by_type[graphlet.model_type].append(graphlet.pushed)
    return {name: float(np.mean(flags))
            for name, flags in by_type.items() if flags}


def unpushed_fraction(graphlets_by_pipeline:
                      dict[int, list[Graphlet]]) -> float:
    """Fraction of graphlets that never push (~0.80 in the paper)."""
    flags = [g.pushed for graphlets in graphlets_by_pipeline.values()
             for g in graphlets]
    if not flags:
        return 0.0
    return 1.0 - float(np.mean(flags))


def push_vs_drift_table(graphlets_by_pipeline:
                        dict[int, list[Graphlet]]) -> dict[str, dict]:
    """Table 2: input-data similarity and code match vs push outcome.

    For every graphlet with a predecessor, compare against the immediately
    preceding graphlet: the Appendix-B input similarity and whether the
    Trainer code version matches. Split means by the *successor's* push
    outcome. Span pairs are scored through the store client's shared
    memo, as in :func:`similarity_table`.
    """
    rows = {"input_similarity": defaultdict(list),
            "code_match": defaultdict(list)}
    for graphlets in graphlets_by_pipeline.values():
        for previous, current in consecutive_pairs(graphlets):
            key = "pushed" if current.pushed else "unpushed"
            ids_a, seq_a = previous.span_sequence_with_ids()
            ids_b, seq_b = current.span_sequence_with_ids()
            similarity = as_client(previous.store).span_pairs \
                .sequence_similarity(ids_a, seq_a, ids_b, seq_b)
            rows["input_similarity"][key].append(similarity)
            rows["input_similarity"]["all"].append(similarity)
            match = float(previous.code_version == current.code_version)
            rows["code_match"][key].append(match)
            rows["code_match"]["all"].append(match)
    return {
        metric: {group: float(np.mean(values)) if values else float("nan")
                 for group, values in groups.items()}
        for metric, groups in rows.items()
    }
