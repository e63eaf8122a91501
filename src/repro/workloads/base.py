"""Workload protocol and shared generator helpers.

A workload produces, per core, a generator yielding
``(compute_instructions, op, byte_address)`` records; the core sends
back the latency of each memory operation (attack workloads use it,
benchmark workloads ignore it).

Batch emission
--------------
Workloads that *ignore* the latency feedback declare ``batchable =
True`` and can then be consumed through :meth:`Workload.batch_stream`
/ :meth:`Workload.emit_batch`: chunks of records packed into
``array('q')`` ints instead of one generator suspension per record.
The packed stream is **record-for-record identical** to the generator
(pinned by the equivalence tests), so order-insensitive consumers
(trace replay, warmups) and the per-core chunked prefetch in
:class:`repro.cpu.core.Core` produce bit-identical simulations.

Packed chunks are the one record format of the C scheduler
(``cw_run`` decodes them as they are): under the C cache walk,
:func:`repro.cpu.system.build_system` feeds batch cores from
``batch_stream``, which the synthetic archetypes emit in C.  The
Python scheduler loop reads ``record_chunks`` tuples; a packed chunk
that reaches it is unpacked once (:func:`unpack_records`).  A
pure-compute record packs with op field 0, which decodes to op -1,
the C scheduler's "no memory op".

Packed record layout (one signed 64-bit int)::

    bits 0-3    op + 1 (0 = pure-compute record, no memory op)
    bits 4-17   compute instruction gap (< 2**14)
    bits 18+    line address (byte address >> 6)

The op field carries every hierarchy opcode, including ``OP_FLUSH``
(packed as 4) — scripted flush streams batch like any other.  The
flush *attackers* (:mod:`repro.attacks.flush_reload`) nevertheless
stay ``batchable = False``: their probes time the returned latencies,
the one thing batch consumption cannot feed back.

Addresses are line-granular, so records stay within 63 bits for any
core id the region layout supports.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from array import array
from collections.abc import Generator, Iterable, Iterator

#: yields (compute_instructions, op_or_None, byte_address); receives
#: the memory operation's latency.  Defined here (a leaf module) so
#: both the CPU package and the workload implementations can share it
#: without an import cycle.
WorkloadGenerator = Generator[tuple[int, int | None, int], int, None]

#: Disjoint per-core address regions: data at (core+1)·1 TiB, code 64 GiB
#: above it.  Benchmarks in a mix therefore never share lines, like
#: separate processes with distinct physical pages.
_CORE_REGION_BYTES = 1 << 40
_CODE_OFFSET_BYTES = 1 << 36


def core_data_base(core_id: int) -> int:
    """Base byte address of a core's private data region."""
    if core_id < 0:
        raise ValueError("core_id must be non-negative")
    return (core_id + 1) * _CORE_REGION_BYTES


def core_code_base(core_id: int) -> int:
    """Base byte address of a core's private code region."""
    return core_data_base(core_id) + _CODE_OFFSET_BYTES


#: Packed-record field widths (see module docstring).
REC_OP_BITS = 4
REC_COMPUTE_BITS = 14
REC_COMPUTE_SHIFT = REC_OP_BITS
REC_ADDR_SHIFT = REC_OP_BITS + REC_COMPUTE_BITS
REC_COMPUTE_MAX = (1 << REC_COMPUTE_BITS) - 1

#: Default records per batch chunk: large enough to amortise the
#: producer call, small enough that short runs stay cheap.
DEFAULT_BATCH_CHUNK = 1024


def pack_record(compute: int, op: int | None, byte_address: int) -> int:
    """Pack one workload record into a signed-64-bit int."""
    if not 0 <= compute <= REC_COMPUTE_MAX:
        raise ValueError(f"compute gap {compute} exceeds the packed field")
    if op is None:
        return compute << REC_COMPUTE_SHIFT
    if not 0 <= op <= 14:
        raise ValueError(f"op {op} does not fit the packed field")
    if byte_address < 0 or byte_address % 64:
        raise ValueError(
            "packed records require non-negative line-aligned addresses"
        )
    return (
        ((byte_address >> 6) << REC_ADDR_SHIFT)
        | (compute << REC_COMPUTE_SHIFT)
        | (op + 1)
    )


def unpack_record(record: int) -> tuple[int, int | None, int]:
    """Inverse of :func:`pack_record`."""
    op = record & 0xF
    return (
        (record >> REC_COMPUTE_SHIFT) & REC_COMPUTE_MAX,
        None if op == 0 else op - 1,
        (record >> REC_ADDR_SHIFT) << 6,
    )


def pack_records(records: Iterable[tuple[int, int | None, int]]) -> array:
    """A record-tuple chunk as one packed ``array('q')`` chunk."""
    return array("q", [pack_record(*record) for record in records])


def unpack_records(
    records: Iterable[int],
) -> list[tuple[int, int | None, int]]:
    """A packed chunk as the record-tuple chunk the Python scheduler
    loop reads."""
    return [unpack_record(record) for record in records]


def packable(records: Iterable[tuple[int, int | None, int]]) -> bool:
    """True when every record round-trips the packed layout exactly.

    Pure-compute records only qualify with address 0: the packed form
    stores no address for them, so a nonzero address (meaningless to
    the simulator but visible to trace capture) would not survive.
    """
    return all(
        0 <= compute <= REC_COMPUTE_MAX
        and (
            (op is None and addr == 0)
            or (op is not None and 0 <= op <= 14 and addr >= 0
                and addr % 64 == 0)
        )
        for compute, op, addr in records
    )


def compute_gap(mem_fraction: float, rng: random.Random) -> int:
    """Number of compute instructions between memory operations.

    Chosen so memory operations make up ``mem_fraction`` of retired
    instructions on average: the gap dithers between ``floor`` and
    ``ceil`` of ``1/mem_fraction - 1``.
    """
    if not 0.0 < mem_fraction <= 1.0:
        raise ValueError("mem_fraction must be in (0, 1]")
    gap = 1.0 / mem_fraction - 1.0
    base = int(gap)
    return base + (1 if rng.random() < gap - base else 0)


class Workload(ABC):
    """A per-core instruction/memory stream factory."""

    name: str = "workload"

    #: True when this workload's generator ignores the latency values
    #: sent back to it — the contract that makes batch consumption
    #: legal.  Attack workloads (which time their probes) must leave
    #: this False.
    batchable: bool = False

    @abstractmethod
    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        """Build this workload's generator for ``core_id``.

        Generators must be infinite or long enough for any experiment;
        the simulator enforces the instruction budget.
        """

    def record_chunks(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[list]:
        """Yield lists of ``(compute, op, byte_address)`` record tuples.

        The concatenated stream is identical to :meth:`generator`'s
        output for the same ``(core_id, seed)``.  This is the form the
        Python scheduler loop's chunked per-core prefetch consumes —
        measured faster there than both the generator protocol (no
        frame resume per record) and packed ints (no re-boxing per
        record).  The packed :meth:`batch_stream`/:meth:`emit_batch`
        forms, which the C scheduler reads, pack it by default.

        This default materialises from the generator (correct for any
        ``batchable`` workload, no speedup); stream-native workloads
        override it with a loop that never suspends per record.

        Only valid when ``batchable`` is True — the generator is fed a
        constant 0 latency, which a feedback-driven workload would
        misread.
        """
        if not self.batchable:
            raise ValueError(
                f"{self.name}: not batchable (generator consumes latency "
                "feedback)"
            )
        gen = self.generator(core_id, seed)
        out = []
        append = out.append
        try:
            item = next(gen)
            while True:
                append(item)
                if len(out) == chunk:
                    yield out
                    out = []
                    append = out.append
                item = gen.send(0)
        except StopIteration:
            pass
        if out:
            yield out

    def batch_stream(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[array]:
        """Yield ``array('q')`` chunks of packed records (the compact
        bulk form of :meth:`record_chunks`; same stream).

        This default packs :meth:`record_chunks` in Python; the
        synthetic archetypes override it with C emission."""
        for records in self.record_chunks(core_id, seed, chunk):
            yield pack_records(records)

    def emit_batch(self, core_id: int, seed: int, n: int) -> array:
        """The first ``n`` packed records of this workload's stream.

        One-shot form of :meth:`batch_stream` for order-insensitive
        consumers (warmups, trace replay, single-core sweeps); the
        result may be shorter than ``n`` when the stream ends first.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        out = array("q")
        for chunk in self.batch_stream(core_id, seed, chunk=n or 1):
            take = n - len(out)
            out.extend(chunk[:take] if take < len(chunk) else chunk)
            if len(out) >= n:
                break
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ScriptedWorkload(Workload):
    """Replays an explicit list of records — used by tests and by the
    trace tools.

    Scripted streams never react to latency, so they are batchable
    whenever every record fits the packed layout (line-aligned
    addresses, compute gaps under 2**14).
    """

    def __init__(self, records: Iterable[tuple[int, int | None, int]],
                 name: str = "scripted"):
        self.records = list(records)
        self.name = name
        # Batch emission replays ``self.records`` — only legal when
        # the generator is the stock replay (a subclass overriding
        # ``generator`` streams something else entirely) and every
        # record fits the packed layout.
        self.batchable = (
            type(self).generator is ScriptedWorkload.generator
            and packable(self.records)
        )

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        for record in self.records:
            yield record

    def record_chunks(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[list]:
        if not self.batchable:
            raise ValueError(
                f"{self.name}: records do not fit the packed layout"
            )
        records = self.records
        for start in range(0, len(records), chunk):
            yield records[start:start + chunk]
