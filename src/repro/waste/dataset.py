"""Waste-mitigation dataset construction (Section 5's "Data").

From a segmented corpus, build the supervised dataset: one row per
graphlet, labeled pushed/unpushed, with features per family and the
graphlet's compute cost (for waste accounting). Following the paper,
pipelines that warm-start training are excluded — their unpushed
graphlets transitively help later pushed models, so skipping them is not
safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphlets import Graphlet
from .features import ALL_FAMILIES, DEFAULT_HISTORY_WINDOW, extract_features


@dataclass
class WasteDataset:
    """The assembled dataset.

    Attributes:
        feature_names: Stable column order (sorted union of feature keys).
        rows: Per-graphlet feature dicts, per family.
        labels: 1 = pushed, 0 = unpushed.
        groups: Pipeline context id per row (for grouped splitting).
        costs: Total graphlet CPU-hours per row (waste accounting).
        stage_costs: Per-row dict of cumulative cost by stage, used for
            Table 3's feature-cost column.
    """

    feature_names: dict[str, list[str]] = field(default_factory=dict)
    rows: list = field(default_factory=list)
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0))
    groups: np.ndarray = field(default_factory=lambda: np.zeros(0))
    costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    stage_costs: dict[str, float] = field(default_factory=dict)

    def matrix(self, families) -> np.ndarray:
        """Dense feature matrix for the selected families."""
        columns: list[str] = []
        for family in families:
            columns.extend(self.feature_names.get(family, []))
        out = np.zeros((len(self.rows), len(columns)))
        for r, row in enumerate(self.rows):
            merged = row.select(families)
            for c, name in enumerate(columns):
                out[r, c] = merged.get(name, 0.0)
        return out

    def column_names(self, families) -> list[str]:
        """Column order used by :meth:`matrix` for these families."""
        columns: list[str] = []
        for family in families:
            columns.extend(self.feature_names.get(family, []))
        return columns

    @property
    def n_rows(self) -> int:
        """Number of graphlets in the dataset."""
        return len(self.rows)

    @property
    def unpushed_fraction(self) -> float:
        """Class balance (paper: 80% unpushed)."""
        if self.labels.size == 0:
            return 0.0
        return 1.0 - float(self.labels.mean())


def pipeline_uses_warmstart(graphlets: list[Graphlet]) -> bool:
    """True if any graphlet in the pipeline warm-started its trainer."""
    return any(g.warm_started for g in graphlets)


def build_waste_dataset(graphlets_by_pipeline: dict[int, list[Graphlet]],
                        window: int = DEFAULT_HISTORY_WINDOW,
                        exclude_warmstart: bool = True) -> WasteDataset:
    """Assemble the dataset from segmented graphlets.

    Args:
        graphlets_by_pipeline: Output of the segmentation, per pipeline.
        window: History window for input/code features.
        exclude_warmstart: Apply the paper's warm-start pipeline filter.
    """
    dataset = WasteDataset()
    labels: list[int] = []
    groups: list[int] = []
    costs: list[float] = []
    name_sets: dict[str, set[str]] = {family: set()
                                      for family in ALL_FAMILIES}
    stage_cost_totals: dict[str, float] = {}
    seen_executions: set[int] = set()
    for context_id, graphlets in graphlets_by_pipeline.items():
        if exclude_warmstart and pipeline_uses_warmstart(graphlets):
            continue
        for index, graphlet in enumerate(graphlets):
            features = extract_features(graphlet, graphlets[:index],
                                        window=window)
            dataset.rows.append(features)
            labels.append(1 if graphlet.pushed else 0)
            groups.append(context_id)
            costs.append(graphlet.total_cpu_hours)
            for family, family_features in features.by_family.items():
                name_sets[family].update(family_features)
            # Stage costs over *unique* executions: rolling windows share
            # ingest-side executions across graphlets, and Table 3's
            # feature-cost column is derived from corpus-level compute
            # shares (Figure 7), which count each execution once.
            for stage, cost in _stage_costs(graphlet,
                                            seen_executions).items():
                stage_cost_totals[stage] = stage_cost_totals.get(
                    stage, 0.0) + cost
    dataset.feature_names = {family: sorted(names)
                             for family, names in name_sets.items()}
    dataset.labels = np.asarray(labels, dtype=int)
    dataset.groups = np.asarray(groups, dtype=int)
    dataset.costs = np.asarray(costs, dtype=float)
    dataset.stage_costs = stage_cost_totals
    return dataset


def _stage_costs(graphlet: Graphlet,
                 seen_executions: set[int]) -> dict[str, float]:
    """Stage costs of a graphlet's not-yet-counted executions."""
    from ..query import as_client

    fresh = [e for e in graphlet.execution_ids if e not in seen_executions]
    seen_executions.update(fresh)
    out: dict[str, float] = {}
    for facts in as_client(graphlet.store).execution_facts(fresh):
        out[facts.stage] = out.get(facts.stage, 0.0) + facts.cpu_hours
        if facts.group == "data_ingestion":
            out["ingestion_only"] = out.get("ingestion_only", 0.0) \
                + facts.cpu_hours
    return out


def feature_cost_index(dataset: WasteDataset) -> dict[str, float]:
    """Table 3's feature-cost column: cumulative cost per model variant.

    Obtaining a variant's features requires running the graphlet up to
    the corresponding stage; costs are normalized so RF:Validation = 1.
    """
    from ..graphlets.features import STAGE_POST, STAGE_PRE, STAGE_TRAINER

    pre = dataset.stage_costs.get(STAGE_PRE, 0.0)
    trainer = dataset.stage_costs.get(STAGE_TRAINER, 0.0)
    post = dataset.stage_costs.get(STAGE_POST, 0.0)
    total = pre + trainer + post
    if total <= 0:
        return {}
    # RF:Input needs only the ingested data: the ingestion slice of the
    # pre-trainer stage (tracked separately during assembly).
    ingestion = dataset.stage_costs.get("ingestion_only", pre * 0.55)
    return {
        "RF:Input": ingestion / total,
        "RF:Input+Pre": pre / total,
        "RF:Input+Pre+Trainer": (pre + trainer) / total,
        "RF:Validation": 1.0,
    }
