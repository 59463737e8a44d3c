"""Model-chaining (distillation) segmentation tests.

The paper's intro: "model chaining (where a model is used to generate
data for another model) is becoming increasingly common, introducing
model-to-model dependencies in the same pipeline". The Trainer cut must
keep teacher and student in separate graphlets.
"""

import pytest

from repro.corpus import CorpusConfig
from repro.analysis import segment_production_pipelines
from repro.fleet import generate_corpus_fleet
from repro.waste import build_waste_dataset


@pytest.fixture(scope="module")
def distilled_corpus():
    config = CorpusConfig(n_pipelines=8, seed=21,
                          max_graphlets_per_pipeline=16,
                          p_distillation=1.0, p_ab_testing=0.0,
                          warmstart_fraction=0.0)
    corpus, _ = generate_corpus_fleet(config)
    return corpus


class TestDistillationSegmentation:
    def test_teacher_and_student_are_separate_graphlets(
            self, distilled_corpus):
        store = distilled_corpus.store
        graphlets = segment_production_pipelines(distilled_corpus)
        for pipeline_graphlets in graphlets.values():
            # Two trainers per training trigger → graphlets come in
            # teacher/student pairs.
            trainer_ids = {g.trainer_execution_id
                           for g in pipeline_graphlets}
            for graphlet in pipeline_graphlets:
                foreign = trainer_ids - {graphlet.trainer_execution_id}
                assert not (graphlet.execution_ids & foreign)

    def test_student_flagged_distilled_not_warmstarted(
            self, distilled_corpus):
        store = distilled_corpus.store
        distilled = [a for a in store.get_artifacts()
                     if a.type_name == "Model" and a.get("distilled")]
        assert distilled
        assert all(not a.get("warm_started") for a in distilled)

    def test_teacher_graphlets_never_push(self, distilled_corpus):
        """Only the serving (student) trainer has a pusher branch."""
        graphlets = segment_production_pipelines(distilled_corpus)
        for pipeline_graphlets in graphlets.values():
            for graphlet in pipeline_graphlets:
                model_id = graphlet.model_artifact_id
                if model_id is None:
                    continue
                artifact = graphlet.store.get_artifact(model_id)
                is_teacher = not artifact.get("distilled") and \
                    _feeds_another_trainer(graphlet)
                if is_teacher:
                    assert not graphlet.pushed

    def test_distillation_pipelines_stay_in_waste_dataset(
            self, distilled_corpus):
        graphlets = segment_production_pipelines(distilled_corpus)
        dataset = build_waste_dataset(graphlets)
        assert dataset.n_rows > 0  # chaining is not warm-starting


def _feeds_another_trainer(graphlet) -> bool:
    store = graphlet.store
    model_id = graphlet.model_artifact_id
    if model_id is None:
        return False
    return any(
        store.get_execution(consumer).type_name == "Trainer"
        for consumer in store.get_consumer_execution_ids(model_id))
