"""Synthetic access-pattern generators.

Five archetypes cover the SPEC benchmarks' memory behaviour:

``StreamWorkload``        — repeated sequential sweeps (libquantum,
                            milc, hmmer, calculix): maximal spatial
                            locality, reuse distance = working set.
``PointerChaseWorkload``  — a random permutation cycle (mcf, astar):
                            no spatial locality, dependent loads.
``RandomWorkload``        — uniform random lines (gcc, sjeng).
``StencilWorkload``       — 2-D neighbourhood sweeps (h264ref motion
                            search): strided locality.
``HotColdWorkload``       — a small hot region plus a large cold one
                            (sphinx3, bzip2, gobmk, gromacs): high hit
                            rates with a long miss tail.

Every generator emits an occasional instruction fetch into the core's
private code region so L1I participates, and dithers compute gaps so
memory operations average the profile's ``mem_fraction``.

Each archetype contributes only a *line picker*
(:meth:`_SyntheticWorkload._line_picker`); the shared emission loop
exists in three forms with identical record streams:

* the generator (:meth:`_emit`, one suspension per record, for
  feedback-driven consumers);
* the chunked batch producer (:meth:`record_chunks`, one record-tuple
  chunk per suspension, for the Python scheduler loop) — the
  reference emitter;
* the packed producer (:meth:`batch_stream`), which under the ``c``
  engine runs the loop and all five pickers in C
  (:mod:`repro.engine.c_emit`), in exact ``random.Random`` lockstep
  with :meth:`record_chunks`, for the C scheduler and bulk replay.

The equivalence tests (``tests/test_packed_and_batching.py``,
``tests/test_c_emit.py``) pin the streams record-for-record.
"""

from __future__ import annotations

import math
import random
from array import array
from collections.abc import Callable, Iterator

from repro.cache.hierarchy import OP_IFETCH, OP_READ, OP_WRITE
from repro.utils.rng import derive_rng
from repro.workloads.base import (
    DEFAULT_BATCH_CHUNK,
    REC_COMPUTE_MAX,
    Workload,
    WorkloadGenerator,
    core_code_base,
    core_data_base,
)

LINE = 64

#: Fraction of memory operations that are instruction fetches, and the
#: size of the synthetic code footprint they walk.
DEFAULT_IFETCH_FRACTION = 0.05
DEFAULT_CODE_BYTES = 32 * 1024


def _validate_common(working_set_bytes: int, mem_fraction: float,
                     write_fraction: float) -> None:
    if working_set_bytes < LINE:
        raise ValueError("working set must hold at least one line")
    if not 0.0 < mem_fraction <= 1.0:
        raise ValueError("mem_fraction must be in (0, 1]")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")


class _SyntheticWorkload(Workload):
    """Common state for the synthetic archetypes.

    Besides the main access pattern, every workload can emit a
    **conflict component**: a small group of lines strided exactly one
    LLC-set apart, visited round-robin with probability
    ``conflict_fraction``.  Enough congruent lines overflow their LLC
    set, so these lines conflict-miss among themselves at a short
    period — the benign Ping-Pong traffic (hot strided arrays,
    same-set globals) that drives the paper's false-positive counts
    (Fig. 8b).  Benchmarks modelled as cache-resident set
    ``conflict_fraction = 0``.
    """

    def __init__(
        self,
        working_set_bytes: int,
        mem_fraction: float = 0.3,
        write_fraction: float = 0.2,
        ifetch_fraction: float = DEFAULT_IFETCH_FRACTION,
        code_bytes: int = DEFAULT_CODE_BYTES,
        conflict_lines: int = 0,
        conflict_fraction: float = 0.0,
        conflict_stride_bytes: int = 64 * 1024,
        accesses_per_line: int = 1,
        name: str | None = None,
    ):
        _validate_common(working_set_bytes, mem_fraction, write_fraction)
        if not 0.0 <= ifetch_fraction < 1.0:
            raise ValueError("ifetch_fraction must be in [0, 1)")
        if conflict_lines < 0 or not 0.0 <= conflict_fraction < 1.0:
            raise ValueError("invalid conflict component")
        if conflict_stride_bytes % LINE:
            raise ValueError("conflict stride must be line-aligned")
        if accesses_per_line < 1:
            raise ValueError("accesses_per_line must be >= 1")
        self.working_set_bytes = working_set_bytes
        self.num_lines = working_set_bytes // LINE
        self.mem_fraction = mem_fraction
        self.write_fraction = write_fraction
        self.ifetch_fraction = ifetch_fraction
        self.code_lines = max(1, code_bytes // LINE)
        self.conflict_lines = conflict_lines
        self.conflict_fraction = conflict_fraction if conflict_lines else 0.0
        self.conflict_stride = conflict_stride_bytes // LINE
        # Sub-line spatial locality: real code touches each cache line
        # several times (word-granular strides, multi-field structs);
        # the repeats hit L1 and set the benchmark's realistic MPKI.
        self.accesses_per_line = accesses_per_line
        # Synthetic streams ignore latency feedback, so batch emission
        # is legal whenever the dithered compute gap fits the packed
        # record (it always does for realistic mem_fractions).
        self.batchable = int(1.0 / mem_fraction - 1.0) + 1 <= REC_COMPUTE_MAX
        if name is not None:
            self.name = name

    # ------------------------------------------------------------------
    # Pattern plug point
    # ------------------------------------------------------------------

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        """Build the pattern-specific ``next_data_line(rng)`` closure
        (stateful; one per stream)."""
        raise NotImplementedError

    def _loop_constants(self) -> tuple[int, float, float, float, int]:
        """The emission loop's invariants: ``(gap_base, gap_frac,
        ifetch_limit, conflict_limit, conflict_base)``.

        The compute gap dithers between ``gap_base`` and ``gap_base +
        1`` with one ``rng.random()`` draw against ``gap_frac`` (the
        expression of :func:`~repro.workloads.base.compute_gap`); a
        second draw, the roll, picks the ifetch (below
        ``ifetch_limit``), conflict (below ``conflict_limit``) or data
        component.  Conflict lines live just above the main working
        set (from line ``conflict_base``), strided one LLC set apart so
        they are mutually congruent.  Shared by both Python forms and
        the C emitter, so every form compares identical doubles.
        """
        gap_target = 1.0 / self.mem_fraction - 1.0
        gap_base = int(gap_target)
        ifetch_limit = self.ifetch_fraction
        return (
            gap_base,
            gap_target - gap_base,
            ifetch_limit,
            ifetch_limit + self.conflict_fraction,
            self.num_lines + self.conflict_stride,
        )

    # ------------------------------------------------------------------
    # The emission forms (identical record streams)
    # ------------------------------------------------------------------

    def generator(self, core_id: int, seed: int) -> WorkloadGenerator:
        return self._emit(core_id, seed, self._line_picker(core_id, seed))

    def _emit(self, core_id: int, seed: int, next_data_line) -> WorkloadGenerator:
        """Shared emission loop; ``next_data_line(rng)`` supplies the
        pattern-specific next data line offset."""
        rng = derive_rng(seed, self.name, core_id)
        data_base = core_data_base(core_id)
        code_base = core_code_base(core_id)
        gap_base, gap_frac, ifetch_limit, conflict_limit, conflict_base = (
            self._loop_constants()
        )
        conflict_index = 0
        code_line = 0
        current_line = None
        line_visits_left = 0
        # One record per retired memory operation: everything invariant
        # is hoisted out of the loop.
        rng_random = rng.random
        write_fraction = self.write_fraction
        code_lines = self.code_lines
        conflict_lines = self.conflict_lines
        conflict_stride = self.conflict_stride
        visits_per_line = self.accesses_per_line - 1
        while True:
            gap = gap_base + 1 if rng_random() < gap_frac else gap_base
            roll = rng_random()
            if roll >= conflict_limit:
                if line_visits_left > 0 and current_line is not None:
                    line_visits_left -= 1
                    line = current_line
                else:
                    line = next_data_line(rng)
                    current_line = line
                    line_visits_left = visits_per_line
                op = OP_WRITE if rng_random() < write_fraction else OP_READ
                addr = data_base + line * LINE
            elif roll < ifetch_limit:
                # Walk the code region mostly sequentially.
                code_line += 1
                if code_line == code_lines:
                    code_line = 0
                op = OP_IFETCH
                addr = code_base + code_line * LINE
            else:
                conflict_index += 1
                if conflict_index == conflict_lines:
                    conflict_index = 0
                line = conflict_base + conflict_index * conflict_stride
                op = OP_WRITE if rng_random() < write_fraction else OP_READ
                addr = data_base + line * LINE
            yield gap, op, addr

    def record_chunks(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[list]:
        """Native chunked emission: the :meth:`_emit` loop body with the
        per-record ``yield`` replaced by a list append.  Same RNG draws
        in the same order, same records (the equivalence tests compare
        the two streams), one generator suspension per *chunk* instead
        of per record.
        """
        if not self.batchable:
            raise ValueError(
                f"{self.name}: compute gaps exceed the packed record field"
            )
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        next_data_line = self._line_picker(core_id, seed)
        rng = derive_rng(seed, self.name, core_id)
        data_base = core_data_base(core_id)
        code_base = core_code_base(core_id)
        gap_base, gap_frac, ifetch_limit, conflict_limit, conflict_base = (
            self._loop_constants()
        )
        conflict_index = 0
        code_line = 0
        current_line = None
        line_visits_left = 0
        rng_random = rng.random
        write_fraction = self.write_fraction
        code_lines = self.code_lines
        conflict_lines = self.conflict_lines
        conflict_stride = self.conflict_stride
        visits_per_line = self.accesses_per_line - 1
        while True:
            out = []
            append = out.append
            count = 0
            while count < chunk:
                gap = gap_base + 1 if rng_random() < gap_frac else gap_base
                roll = rng_random()
                if roll >= conflict_limit:
                    if line_visits_left > 0 and current_line is not None:
                        line_visits_left -= 1
                        line = current_line
                    else:
                        line = next_data_line(rng)
                        current_line = line
                        line_visits_left = visits_per_line
                    op = OP_WRITE if rng_random() < write_fraction else OP_READ
                    addr = data_base + line * LINE
                elif roll < ifetch_limit:
                    code_line += 1
                    if code_line == code_lines:
                        code_line = 0
                    op = OP_IFETCH
                    addr = code_base + code_line * LINE
                else:
                    conflict_index += 1
                    if conflict_index == conflict_lines:
                        conflict_index = 0
                    line = conflict_base + conflict_index * conflict_stride
                    op = OP_WRITE if rng_random() < write_fraction else OP_READ
                    addr = data_base + line * LINE
                append((gap, op, addr))
                count += 1
            yield out

    def batch_stream(
        self, core_id: int, seed: int, chunk: int = DEFAULT_BATCH_CHUNK
    ) -> Iterator[array]:
        """Packed chunks of the :meth:`record_chunks` stream, emitted in
        C under the ``c`` engine (:mod:`repro.engine.c_emit`, in exact
        ``random.Random`` lockstep); otherwise, or for a line picker
        with no C port, packed from :meth:`record_chunks` by the base
        class."""
        from repro.engine.c_emit import c_batch_stream

        stream = c_batch_stream(self, core_id, seed, chunk)
        if stream is None:
            stream = super().batch_stream(core_id, seed, chunk)
        yield from stream


class StreamWorkload(_SyntheticWorkload):
    """Repeated sequential sweeps over the working set."""

    name = "stream"

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        position = -1
        num_lines = self.num_lines

        def next_line(rng):
            nonlocal position
            position = (position + 1) % num_lines
            return position

        return next_line


class RandomWorkload(_SyntheticWorkload):
    """Uniform random lines over the working set."""

    name = "random"

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        num_lines = self.num_lines

        def next_line(rng):
            return rng.randrange(num_lines)

        return next_line


class PointerChaseWorkload(_SyntheticWorkload):
    """Follows a random permutation cycle: each access determines the
    next, defeating spatial locality entirely."""

    name = "pointer"

    def permutation_rng(self, core_id: int, seed: int) -> random.Random:
        """The RNG that lays out the chase: a stream of its own,
        separate from the access stream's."""
        return derive_rng(seed, "pointer-permutation", core_id)

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        rng = self.permutation_rng(core_id, seed)
        # A single Hamiltonian cycle over the working set (not a plain
        # shuffled permutation, whose cycle through the start line has
        # wildly seed-dependent length — a short cycle would turn the
        # benchmark cache-resident).
        order = list(range(self.num_lines))
        rng.shuffle(order)
        chain = [0] * self.num_lines
        for here, there in zip(order, order[1:]):
            chain[here] = there
        chain[order[-1]] = order[0]
        position = 0

        def next_line(_rng):
            nonlocal position
            position = chain[position]
            return position

        return next_line


class StencilWorkload(_SyntheticWorkload):
    """Five-point stencil sweeps over a square 2-D grid."""

    name = "stencil"

    @property
    def side(self) -> int:
        """Grid side: the largest square that fits the working set."""
        return math.isqrt(self.num_lines)

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        side = self.side
        offsets = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
        state = {"i": 0, "j": 0, "k": 0}

        def next_line(_rng):
            di, dj = offsets[state["k"]]
            state["k"] += 1
            if state["k"] == len(offsets):
                state["k"] = 0
                state["j"] += 1
                if state["j"] >= side:
                    state["j"] = 0
                    state["i"] = (state["i"] + 1) % side
            row = (state["i"] + di) % side
            col = (state["j"] + dj) % side
            return row * side + col

        return next_line


class HotColdWorkload(_SyntheticWorkload):
    """Mostly-hot accesses to a small region with a cold tail."""

    name = "hotcold"

    def __init__(
        self,
        working_set_bytes: int,
        hot_bytes: int | None = None,
        hot_probability: float = 0.9,
        **kwargs,
    ):
        super().__init__(working_set_bytes, **kwargs)
        if hot_bytes is None:
            hot_bytes = max(LINE, working_set_bytes // 8)
        if not LINE <= hot_bytes <= working_set_bytes:
            raise ValueError("hot region must fit inside the working set")
        if not 0.0 < hot_probability < 1.0:
            raise ValueError("hot_probability must be in (0, 1)")
        self.hot_lines = hot_bytes // LINE
        self.hot_probability = hot_probability

    def _line_picker(self, core_id: int, seed: int) -> Callable:
        hot_lines = self.hot_lines
        num_lines = self.num_lines
        hot_probability = self.hot_probability

        def next_line(rng):
            if rng.random() < hot_probability:
                return rng.randrange(hot_lines)
            return rng.randrange(num_lines)

        return next_line
