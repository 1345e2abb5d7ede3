"""The compiled kernel's event-record layout and its Python decoders."""

import struct

import pytest

from repro.obs.events import (
    ArbitrationDenied,
    BoundedEventRing,
    EventDispatcher,
    FastForwardSpan,
    HandoverOccurred,
    JsonlEventLog,
    RunHeader,
    SlotExecuted,
    decode_records,
    record_lines,
)
from repro.obs.records import EVENT_RECORDS, RecordLayout


def _bits(value):
    return struct.unpack("<q", struct.pack("<d", value))[0]


def encode(kind, tail=(), **fields):
    """One record's words, placed by the layout table's offsets."""
    words = [0] * EVENT_RECORDS.words(kind)
    words[0] = EVENT_RECORDS.types[kind]
    for name, value in fields.items():
        words[EVENT_RECORDS.offset(kind, name)] = value
    width = EVENT_RECORDS.tail_words(kind)
    for item in tail:
        item_words = [0] * width
        for name, value in item.items():
            item_words[EVENT_RECORDS.tail_offset(kind, name)] = value
        words.extend(item_words)
    return words


EVENTS = [
    SlotExecuted(7, 2, 1.5e-7, ((2, 40), (5, 41)), 3, 1, 2, 1, 0),
    HandoverOccurred(7, 6, 2, 4, 1.5e-7),
    ArbitrationDenied(8, (3, 1)),
    FastForwardSpan(9, 20, 11, 2),
    SlotExecuted(20, 2, 0.0, (), 0, 0, 0, 0, 0),
]


def words_for_events():
    return (
        encode("slot", slot=7, master=2, gap_bits=_bits(1.5e-7),
               n_requests=3, released=1, delivered=2, missed=1, dropped=0,
               n_tx=2,
               tail=({"node": 2, "msg_id": 40}, {"node": 5, "msg_id": 41}))
        + encode("handover", slot=7, from_node=6, to_node=2, hops=4,
                 gap_bits=_bits(1.5e-7))
        + encode("arbitration", slot=8, n_nodes=2,
                 tail=({"node": 3}, {"node": 1}))
        + encode("fast_forward", slot_start=9, slot_end=20, n_slots=11,
                 master=2)
        + encode("slot", slot=20, master=2, n_tx=0)
    )


class TestLayout:
    def test_type_codes_are_dense(self):
        assert sorted(EVENT_RECORDS.types.values()) == list(
            range(len(EVENT_RECORDS.types))
        )

    def test_tail_count_is_the_last_fixed_field(self):
        for name, tail in EVENT_RECORDS.tails.items():
            if tail:
                assert EVENT_RECORDS.fields[name][-1].startswith("n_")

    def test_c_defines_mirror_the_table(self):
        defines = dict(d.split("=") for d in EVENT_RECORDS.c_defines())
        assert defines["REC_SLOT"] == str(EVENT_RECORDS.types["slot"])
        assert defines["REC_SLOT_MASTER"] == str(
            EVENT_RECORDS.offset("slot", "master")
        )
        assert defines["REC_ARBITRATION_WORDS"] == str(
            EVENT_RECORDS.words("arbitration")
        )
        assert defines["REC_SLOT_TAIL"] == "2"
        assert defines["REC_SLOT_TAIL_MSG_ID"] == "1"
        assert defines["REC_HANDOVER_TAIL"] == "0"

    def test_max_words(self):
        assert EVENT_RECORDS.max_words("slot", 8) == (
            EVENT_RECORDS.words("slot") + 16
        )

    def test_duplicate_and_countless_tail_rejected(self):
        layout = RecordLayout()
        layout.add_type("a", "x")
        with pytest.raises(ValueError, match="already defined"):
            layout.add_type("a", "y")
        with pytest.raises(ValueError, match="needs a count"):
            layout.add_type("b", tail=("node",))


class TestDecoding:
    def test_decode_records_rebuilds_the_typed_events(self):
        assert decode_records(words_for_events()) == EVENTS

    def test_record_lines_equal_to_json(self):
        assert record_lines(words_for_events()) == [
            event.to_json() for event in EVENTS
        ]

    def test_empty_run(self):
        assert decode_records([]) == []
        assert record_lines([]) == []


class TestSinks:
    def test_jsonl_log_writes_records_after_buffered_events(self, tmp_path):
        path = tmp_path / "log.jsonl"
        header = RunHeader(8, "CcrEdfProtocol", 1e-6, "x")
        observer = EventDispatcher()
        sink = observer.add_sink(JsonlEventLog(path))
        observer.emit(header)
        observer.dispatch_records(words_for_events())
        observer.close()
        expected = [header.to_json()] + [e.to_json() for e in EVENTS]
        assert path.read_text().splitlines() == expected
        assert sink.events_written == len(expected)

    def test_other_sinks_receive_decoded_events(self):
        ring = BoundedEventRing()
        observer = EventDispatcher()
        observer.add_sink(ring)
        observer.dispatch_records(words_for_events())
        assert list(ring.events) == EVENTS
