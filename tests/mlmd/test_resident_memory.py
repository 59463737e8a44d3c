"""The resident store's memory layout: slotted records, shared values.

A loaded store holds the same values as the one saved, in less memory:
records carry no per-instance ``__dict__``, and the loader shares equal
list items across rows without changing any value or its type.
"""

import dataclasses
import math
import sqlite3

import pytest

from repro.mlmd import (
    Artifact,
    Context,
    Event,
    EventType,
    Execution,
    MetadataStore,
    load_store,
    salvage_store,
    save_store,
)
from repro.mlmd.types import TelemetryRecord
from repro.similarity.feature_metric import SpanDigest

RECORDS = (
    Artifact(type_name="DataSpan"),
    Execution(type_name="Trainer"),
    Context(type_name="Pipeline"),
    TelemetryRecord(kind="node", name="Trainer"),
    Event(1, 2, EventType.INPUT),
)


def _names(count: int) -> list[str]:
    # Built at run time, so equal names start as distinct objects.
    return ["".join(("feature-", str(i))) for i in range(count)]


def _spans_store() -> MetadataStore:
    """Three spans of one schema: equal digest names and hashes in each,
    every one a separate object before the save."""
    store = MetadataStore()
    for span in range(3):
        store.put_artifact(Artifact(type_name="DataSpan", properties={
            "span_id": span,
            "digest_names": _names(4),
            "digest_hashes": [int(str(10**12 + i)) for i in range(4)],
            "digest_categorical": [i % 2 == 0 for i in range(4)],
        }))
    return store


@pytest.mark.parametrize("record", RECORDS,
                         ids=lambda r: type(r).__name__)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    # A frozen slotted dataclass refuses an unknown name with TypeError
    # on Python 3.11; the others raise AttributeError.
    with pytest.raises((AttributeError, TypeError)):
        record.not_a_field = 1


def test_event_stays_hashable_and_frozen():
    a = Event(1, 2, EventType.INPUT, time=3.0)
    b = Event(1, 2, EventType.INPUT, time=3.0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Event(1, 2, EventType.OUTPUT)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.time = 4.0


def test_load_shares_equal_list_items_across_spans(tmp_path):
    path = tmp_path / "spans.db"
    save_store(_spans_store(), path)
    spans = load_store(path).get_artifacts()
    first = spans[0].properties
    for span in spans[1:]:
        for key in ("digest_names", "digest_hashes"):
            assert span.properties[key] == first[key]
            assert all(item is shared for item, shared
                       in zip(span.properties[key], first[key]))
        # The lists themselves stay one per row: properties are mutable.
        assert span.properties["digest_names"] is not first["digest_names"]


def test_list_items_keep_their_exact_types(tmp_path):
    # True == 1 == 1.0 and 0.0 == -0.0 hash alike; none may come back as
    # another, whichever row the loader reads first.
    rows = ([1, 0, 2**40], [True, False], [1.0, 0.0, -0.0],
            [1, True, 1.0, 0, False, -0.0, 0.0, "1"],
            [True, 1.0, 1, 0.0, -0.0, False, 0, "1"])
    store = MetadataStore()
    for row in rows:
        store.put_execution(Execution(type_name="Trainer",
                                      properties={"mixed": list(row)}))
    path = tmp_path / "mixed.db"
    save_store(store, path)
    for saved, loaded in zip(rows, load_store(path).get_executions()):
        values = loaded.properties["mixed"]
        assert values == saved
        assert [type(v) for v in values] == [type(v) for v in saved]
        assert [math.copysign(1, v) for v in values
                if type(v) is float] \
            == [math.copysign(1, v) for v in saved if type(v) is float]


def test_salvage_drops_a_bad_list_row_and_shares_the_rest(tmp_path):
    path = tmp_path / "planted.db"
    save_store(_spans_store(), path)
    raw = sqlite3.connect(path)  # FKs off
    raw.execute("INSERT INTO artifacts VALUES (99, 'DataSpan', '', '',"
                " 'live', 0.0, '{\"digest_names\": [\"feature-0\", [1]]}')")
    raw.commit()
    raw.close()
    store, report = salvage_store(path)
    assert report.rows_dropped == {"artifacts": 1}
    spans = store.get_artifacts()
    assert len(spans) == 3
    assert spans[2].properties["digest_names"][0] \
        is spans[0].properties["digest_names"][0]


def test_save_load_save_is_byte_stable(tmp_path):
    store = _spans_store()
    store.put_execution(Execution(type_name="Trainer", properties={
        "mixed": [1, True, 1.0, -0.0, "x"], "cpu_hours": 2.5}))
    first, second = tmp_path / "first.db", tmp_path / "second.db"
    save_store(store, first)
    save_store(load_store(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_generated_digest_names_are_interned():
    a = SpanDigest(_names(3), [False] * 3, [1, 2, 3])
    b = SpanDigest(_names(3), [False] * 3, [1, 2, 3])
    assert all(x is y for x, y in zip(a.to_properties()["digest_names"],
                                      b.to_properties()["digest_names"]))
