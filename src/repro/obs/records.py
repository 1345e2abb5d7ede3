"""Fixed-layout event records: the compiled kernel's event wire format.

The compiled slot kernel (:mod:`repro.sim.vector.ckernel`) cannot build
Python event objects, so it writes each event as a run of ``int64``
words into a bounded buffer that Python drains.  A record is a type word
followed by the type's fixed fields and, for variable-length events, a
tail of repeated items whose count is the last fixed field::

    slot          | type | slot | master | gap_bits | n_requests | released
                  | delivered | missed | dropped | n_tx | (node, msg_id) * n_tx
    handover      | type | slot | from_node | to_node | hops | gap_bits
    arbitration   | type | slot | n_nodes | (node,) * n_nodes
    fast_forward  | type | slot_start | slot_end | n_slots | master

``gap_bits`` is the IEEE-754 bit pattern of the hand-over gap, so the
float crosses the boundary exactly.

:data:`EVENT_RECORDS` is the single source of that layout (after the
``PacketLayoutManager`` of the DRTIO serialiser): the C writer is
compiled against the ``#define``\\ s from :meth:`RecordLayout.c_defines`,
and the decoders in :mod:`repro.obs.events` read fields through
:meth:`RecordLayout.getter`, so reordering or adding a field here moves
both sides together.
"""

from __future__ import annotations

from operator import itemgetter


class RecordLayout:
    """Record types, each a type word plus named ``int64`` fields."""

    def __init__(self) -> None:
        #: Type name -> type code (the record's first word).
        self.types: dict[str, int] = {}
        #: Type name -> fixed field names, in word order after the type.
        self.fields: dict[str, tuple[str, ...]] = {}
        #: Type name -> field names of one tail item (empty: no tail).
        self.tails: dict[str, tuple[str, ...]] = {}

    def add_type(
        self, name: str, *fields: str, tail: tuple[str, ...] = ()
    ) -> None:
        """Register a record type; a ``tail`` repeats after the fixed
        fields, as many times as the last fixed field says."""
        if name in self.types:
            raise ValueError(f"record type {name!r} already defined")
        if tail and not fields:
            raise ValueError(f"record type {name!r}: a tail needs a count")
        code = len(self.types)
        self.types[name] = code
        self.fields[name] = tuple(fields)
        self.tails[name] = tuple(tail)

    def words(self, name: str) -> int:
        """Fixed length of a record of type ``name``, type word included."""
        return 1 + len(self.fields[name])

    def tail_words(self, name: str) -> int:
        """Words per tail item (0 for fixed-length records)."""
        return len(self.tails[name])

    def offset(self, name: str, field: str) -> int:
        """Word offset of ``field`` from the start of the record."""
        return 1 + self.fields[name].index(field)

    def tail_offset(self, name: str, field: str) -> int:
        """Word offset of ``field`` inside one tail item."""
        return self.tails[name].index(field)

    def getter(self, name: str, *fields: str) -> itemgetter:
        """An ``itemgetter`` pulling ``fields`` out of one record's words."""
        return itemgetter(*(self.offset(name, f) for f in fields))

    def max_words(self, name: str, n_items: int) -> int:
        """Largest record of type ``name`` with at most ``n_items`` tail
        items."""
        return self.words(name) + n_items * self.tail_words(name)

    def c_defines(self) -> tuple[str, ...]:
        """The layout as C preprocessor definitions (``NAME=value``).

        ``REC_<TYPE>`` is the type code, ``REC_<TYPE>_<FIELD>`` a field's
        word offset, ``REC_<TYPE>_WORDS`` the fixed length and
        ``REC_<TYPE>_TAIL`` the words per tail item, with
        ``REC_<TYPE>_TAIL_<FIELD>`` the offsets inside one item.
        """
        out: list[str] = []
        for name, code in self.types.items():
            prefix = f"REC_{name.upper()}"
            out.append(f"{prefix}={code}")
            for field in self.fields[name]:
                out.append(f"{prefix}_{field.upper()}={self.offset(name, field)}")
            out.append(f"{prefix}_WORDS={self.words(name)}")
            out.append(f"{prefix}_TAIL={self.tail_words(name)}")
            for i, field in enumerate(self.tails[name]):
                out.append(f"{prefix}_TAIL_{field.upper()}={i}")
        return tuple(out)


#: The compiled kernel's event records (see the module docstring).
EVENT_RECORDS = RecordLayout()
EVENT_RECORDS.add_type(
    "slot",
    "slot",
    "master",
    "gap_bits",
    "n_requests",
    "released",
    "delivered",
    "missed",
    "dropped",
    "n_tx",
    tail=("node", "msg_id"),
)
EVENT_RECORDS.add_type(
    "handover", "slot", "from_node", "to_node", "hops", "gap_bits"
)
EVENT_RECORDS.add_type("arbitration", "slot", "n_nodes", tail=("node",))
EVENT_RECORDS.add_type(
    "fast_forward", "slot_start", "slot_end", "n_slots", "master"
)
