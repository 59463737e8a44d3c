"""Similarity behaviour under drift: the signal chain Section 5 rests on."""

import numpy as np

from repro.data import DriftConfig, DriftProcess, random_schema, synthetic_span
from repro.similarity import span_similarity
from repro.tfx.operators import anonymized_digest


class TestDriftSimilarityChain:
    def _consecutive_similarity(self, multiplier, rng, steps=40):
        base = DriftConfig()
        config = DriftConfig(
            numeric_mean_step=base.numeric_mean_step * multiplier,
            numeric_scale_step=base.numeric_scale_step * multiplier,
            numeric_weight_step=base.numeric_weight_step * multiplier,
            numeric_offset_step=base.numeric_offset_step * multiplier,
            zipf_step=base.zipf_step * multiplier,
            shock_probability=0.0)
        schema = random_schema(rng, n_features=24)
        drift = DriftProcess(schema, rng, config)
        previous = None
        values = []
        for step in range(steps):
            span = synthetic_span(drift.step(), step, 5000, rng,
                                  noise=0.015)
            # Use the corpus path's per-span anonymized names, so only
            # the LSH hash term can contribute across distinct spans.
            digest = anonymized_digest(span)
            if previous is not None:
                values.append(span_similarity(previous, digest))
            previous = digest
        return float(np.mean(values))

    def test_faster_drift_lowers_similarity(self):
        rng = np.random.default_rng(5)
        slow = self._consecutive_similarity(0.3, rng)
        fast = self._consecutive_similarity(3.0, rng)
        assert slow > fast

    def test_similarity_bounded_by_alpha_for_distinct_spans(self):
        """Distinct spans never name-match (anonymization), so their
        similarity is bounded by the hash term's weight ALPHA."""
        from repro.similarity import ALPHA

        rng = np.random.default_rng(6)
        value = self._consecutive_similarity(1.0, rng, steps=10)
        assert value <= ALPHA + 1e-9

    def test_zero_drift_high_collision(self):
        """A frozen distribution keeps colliding despite sampling noise."""
        rng = np.random.default_rng(7)
        value = self._consecutive_similarity(0.0, rng, steps=15)
        from repro.similarity import ALPHA

        assert value > 0.5 * ALPHA
