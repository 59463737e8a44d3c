"""One-call corpus study: run every Section 3/4 analysis on a corpus.

:func:`full_report` segments the corpus, runs all pipeline-level and
graphlet-level analyses, and returns a nested dict keyed by the paper's
artifact ids (fig3a, ..., tab2). Examples and benches consume this.
"""

from __future__ import annotations

from ..corpus.generator import Corpus
from ..graphlets import Graphlet
from ..obs.metrics import get_registry
from ..obs.tracing import span
from ..query import as_client
from . import graphlet_level, pipeline_level
from .distributions import DistributionSummary


def segment_production_pipelines(corpus: Corpus
                                 ) -> dict[int, list[Graphlet]]:
    """Graphlets of every production pipeline, keyed by context id."""
    client = as_client(corpus.store)
    with span("analysis.segment_production_pipelines"), \
            get_registry().timer("analysis.segmentation_seconds"):
        return {
            cid: client.segment_pipeline(cid)
            for cid in corpus.production_context_ids
        }


def full_report(corpus: Corpus,
                graphlets_by_pipeline: dict[int, list[Graphlet]]
                | None = None) -> dict:
    """Run the complete Section 3 + 4 analysis suite.

    Args:
        corpus: A generated (or loaded) corpus.
        graphlets_by_pipeline: Pre-segmented graphlets; segmented on the
            fly when omitted.
    """
    # One shared client: every analysis below reads the same store maps
    # and shares one segmentation cache.
    store = as_client(corpus.store)
    context_ids = corpus.production_context_ids
    if graphlets_by_pipeline is None:
        graphlets_by_pipeline = segment_production_pipelines(corpus)

    with span("analysis.full_report",
              n_pipelines=len(context_ids)), \
            get_registry().timer("analysis.full_report_seconds"):
        return _full_report(store, context_ids, graphlets_by_pipeline)


def _full_report(store, context_ids, graphlets_by_pipeline) -> dict:
    gaps = graphlet_level.inter_graphlet_gaps(graphlets_by_pipeline)
    return {
        "fig3a_lifespan": DistributionSummary.from_values(
            pipeline_level.lifespans(store, context_ids)),
        "fig3b_models_per_day": DistributionSummary.from_values(
            pipeline_level.models_per_day(store, context_ids),
            log_bins=True),
        "fig3c_feature_count": DistributionSummary.from_values(
            pipeline_level.feature_counts(store, context_ids),
            log_bins=True),
        "fig3d_lifespan_by_type": {
            family: DistributionSummary.from_values(values)
            for family, values in pipeline_level.lifespan_by_model_type(
                store, context_ids).items()
        },
        "fig3e_cadence_by_type": {
            family: DistributionSummary.from_values(values, log_bins=True)
            for family, values in pipeline_level.cadence_by_model_type(
                store, context_ids).items()
        },
        "fig3f_feature_profile": pipeline_level.feature_profile(
            store, context_ids),
        "fig4_analyzer_usage": pipeline_level.analyzer_usage(
            store, context_ids),
        "fig5_model_mix": pipeline_level.model_mix(store, context_ids),
        "fig6_operator_presence": pipeline_level.operator_presence(
            store, context_ids),
        "fig6_operator_type_presence":
            pipeline_level.operator_type_presence(store, context_ids),
        "fig7_cost_breakdown": pipeline_level.cost_breakdown(
            store, context_ids),
        "trace_sizes": DistributionSummary.from_values(
            pipeline_level.trace_sizes(store, context_ids), log_bins=True),
        "failure_cost": pipeline_level.failure_cost(store, context_ids),
        "retry_stats": pipeline_level.retry_stats(store, context_ids),
        "cached_stats": pipeline_level.cached_execution_stats(
            store, context_ids),
        "tab1_similarity": graphlet_level.similarity_table(
            graphlets_by_pipeline),
        "fig9ab_gaps": {
            "all": DistributionSummary.from_values(gaps["all"],
                                                   log_bins=True),
            "pushed": DistributionSummary.from_values(gaps["pushed"],
                                                      log_bins=True),
        },
        "fig9c_between_pushes": DistributionSummary.from_values(
            graphlet_level.graphlets_between_pushes(graphlets_by_pipeline)),
        "fig9d_cost_by_push": {
            key: DistributionSummary.from_values(values, log_bins=True)
            for key, values in graphlet_level.cost_by_push(
                graphlets_by_pipeline).items()
        },
        "fig9e_durations": DistributionSummary.from_values(
            graphlet_level.durations(graphlets_by_pipeline), log_bins=True),
        "fig9f_push_by_type": graphlet_level.push_rate_by_model_type(
            graphlets_by_pipeline),
        "unpushed_fraction": graphlet_level.unpushed_fraction(
            graphlets_by_pipeline),
        "tab2_push_vs_drift": graphlet_level.push_vs_drift_table(
            graphlets_by_pipeline),
    }
