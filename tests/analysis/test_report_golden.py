"""Golden digest: the graphlet-level analyses are pinned bit for bit.

The corpus is the segmentation golden's warm-start, fault-injected
corpus, with three DataSpan digests rewritten so that consecutive
graphlets compare span pairs outside the equal-size counting case. In
one pipeline a span takes the feature names of the span it is compared
with (shared names). In another, both spans of a compared pair put
every feature in one hash, one of them loses a feature (unequal sizes)
and the other repeats a name (non-unique names). Those pairs are scored
by the name tiers or the tiered greedy, and the greedy's total for the
second pair depends on which span comes first: Table 1 scores it
previous-first and the waste features current-first, so the digests
also pin the orientation each analysis scores a pair in.

Every float is hashed through ``float.hex``: Table 1, Table 2, Figure
9(d) and 9(e) of ``full_report``, and the waste dataset's rows, costs
and stage costs. The digests were computed before the span-pair memo
was shared between those analyses; a change that moves any last bit
fails here. A legitimate change of results re-computes them and says
why.
"""

import dataclasses
import hashlib

import pytest

from repro.analysis import full_report, segment_production_pipelines
from repro.corpus import CorpusConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.fleet import generate_corpus_fleet
from repro.graphlets import consecutive_pairs
from repro.waste import build_waste_dataset
from repro.waste.dataset import pipeline_uses_warmstart

GOLDEN_REPORT = \
    "8fd19987abf4c31d2bb22dcedc814eecbf3ec9df152a0d46e8dc5bbafcf3c062"
GOLDEN_DATASET = \
    "df72ae1871ad9037f62980d8d7a08938c4a1effd6d8547377e9ffcb78e4e4d06"

#: The ``full_report`` entries digested.
REPORT_KEYS = ("tab1_similarity", "tab2_push_vs_drift",
               "fig9d_cost_by_push", "fig9e_durations")


def _rewrite_digest(store, artifact_id, names=None, hash_=None,
                    drop_last=False):
    artifact = store.get_artifact(artifact_id)
    properties = dict(artifact.properties)
    if names is not None:
        properties["digest_names"] = list(names)
    if hash_ is not None:
        properties["digest_hashes"] = \
            [hash_] * len(properties["digest_hashes"])
    if drop_last:
        for key in ("digest_names", "digest_categorical", "digest_hashes"):
            properties[key] = list(properties[key])[:-1]
    store.put_artifact(dataclasses.replace(artifact, properties=properties))


def _compared_pairs(graphlets):
    """Distinct span-id pairs consecutive graphlets compare, in order."""
    for first, second in consecutive_pairs(graphlets):
        ids_a, _ = first.span_sequence_with_ids()
        ids_b, _ = second.span_sequence_with_ids()
        for id_a, id_b in zip(ids_a, ids_b):
            if id_a != id_b:
                yield id_a, id_b


@pytest.fixture(scope="module")
def corpus():
    config = CorpusConfig(n_pipelines=10, seed=17,
                          max_graphlets_per_pipeline=8,
                          max_window_spans=6, warmstart_fraction=0.5)
    plan = FaultPlan.parse("transient:Trainer:0.3;transient:*:0.05",
                           seed=5)
    corpus, _ = generate_corpus_fleet(
        config, fault_plan=plan, retry_policy=RetryPolicy(max_attempts=3))
    store = corpus.store
    # The two production pipelines with the widest spans among those
    # that do not warm-start (so the waste dataset keeps them); in each,
    # the first span pair two consecutive graphlets compare.
    kept = [graphlets
            for graphlets in segment_production_pipelines(corpus).values()
            if not pipeline_uses_warmstart(graphlets)]
    kept.sort(key=lambda graphlets:
              -graphlets[0].span_sequence_with_ids()[1][0].feature_count)
    (a, b), (x, y) = (next(_compared_pairs(graphlets))
                      for graphlets in kept[:2])
    _rewrite_digest(store, b,
                    names=store.get_artifact(a).get("digest_names"))
    # Two spans whose features all fall in one hash: the greedy then
    # routes mass feature by feature, and its total depends on which
    # span it starts from.
    hash_ = store.get_artifact(x).get("digest_hashes")[0]
    _rewrite_digest(store, x, hash_=hash_, drop_last=True)
    names = list(store.get_artifact(y).get("digest_names"))
    _rewrite_digest(store, y, names=[names[0], *names[:-1]], hash_=hash_)
    return corpus


def _flatten(value):
    """Every leaf of a nested result, floats as ``float.hex``."""
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            yield repr(key)
            yield from _flatten(value[key])
    elif dataclasses.is_dataclass(value):
        yield from _flatten(dataclasses.asdict(value))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _flatten(item)
    elif hasattr(value, "tolist"):
        yield from _flatten(value.tolist())
    elif isinstance(value, float):
        yield float.hex(value)
    else:
        yield repr(value)


def _digest(value) -> str:
    h = hashlib.sha256()
    for leaf in _flatten(value):
        h.update(leaf.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_corpus_leaves_the_counting_case(corpus):
    """Consecutive graphlets compare unequal sizes, shared names and
    repeated names, in a pipeline the waste dataset keeps."""
    unequal = shared = repeated = False
    graphlets_by_pipeline = segment_production_pipelines(corpus)
    for graphlets in graphlets_by_pipeline.values():
        if pipeline_uses_warmstart(graphlets):
            continue
        for a, b in consecutive_pairs(graphlets):
            ids_a, seq_a = a.span_sequence_with_ids()
            ids_b, seq_b = b.span_sequence_with_ids()
            for ia, da, ib, db in zip(ids_a, seq_a, ids_b, seq_b):
                if ia == ib:
                    continue
                unequal |= da.feature_count != db.feature_count
                shared |= not set(da.names).isdisjoint(db.names)
                repeated |= (len(set(da.names)) < da.feature_count
                             or len(set(db.names)) < db.feature_count)
    assert unequal and shared and repeated


def test_report_digest(corpus):
    graphlets = segment_production_pipelines(corpus)
    report = full_report(corpus, graphlets)
    assert _digest({key: report[key] for key in REPORT_KEYS}) \
        == GOLDEN_REPORT


def test_waste_dataset_digest(corpus):
    dataset = build_waste_dataset(segment_production_pipelines(corpus))
    assert dataset.n_rows > 30
    assert _digest({"rows": [row.by_family for row in dataset.rows],
                    "costs": dataset.costs,
                    "stage_costs": dataset.stage_costs}) == GOLDEN_DATASET
