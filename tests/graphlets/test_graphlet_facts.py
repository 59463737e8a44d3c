"""Graphlet facts cached on first read equal a fresh read of the store."""

from repro.tfx import artifacts as A


def _graphlets(small_graphlets):
    return [g for graphlets in small_graphlets.values() for g in graphlets]


def test_time_bounds_equal_store_read(small_graphlets):
    for g in _graphlets(small_graphlets):
        executions = [g.store.get_execution(e) for e in g.execution_ids]
        created = [g.store.get_artifact(a).create_time
                   for a in g.artifact_ids]
        start = min([e.start_time for e in executions] + created)
        end = max([e.end_time or e.start_time for e in executions]
                  + created)
        for _ in range(2):
            assert g.start_time == start
            assert g.end_time == end
            assert g.duration_hours == max(end - start, 0.0)


def test_span_ids_equal_store_read_and_are_frozen(small_graphlets):
    for g in _graphlets(small_graphlets):
        expected = [a for a in g.store.get_input_artifact_ids(
                        g.trainer_execution_id)
                    if g.store.get_artifact(a).type_name == A.DATA_SPAN]
        assert list(g.input_span_artifact_ids()) == expected
        ids = g.span_id_set()
        assert isinstance(ids, frozenset)
        assert ids == set(expected)
        assert g.span_id_set() is ids
        assert sorted(g.span_sequence_with_ids()[0]) == sorted(expected)
