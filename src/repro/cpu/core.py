"""In-order blocking core model.

A core executes a *workload generator*: a Python generator yielding
``(compute_instructions, op, byte_address)`` records and receiving the
latency of its previous memory operation via ``send`` (attack code uses
that feedback to time its probes, exactly like ``rdtsc`` around a load).

Timing model: non-memory instructions retire at CPI = 1; a memory
operation blocks the core for the hierarchy-reported latency.  ``op``
may be ``None`` for a pure-compute record.

The core advances in two phases so the multicore scheduler can
interleave shared-state mutations in global time order:

* :meth:`advance`  — consume the next record and add its compute time;
  after it returns, ``time`` is the cycle at which the pending memory
  operation will reach the hierarchy.
* :meth:`execute_pending` — perform that operation and add its latency.

Chunked batch prefetch
----------------------
Workloads that ignore latency feedback (``workload.batchable``) can be
bound through ``batches`` — an iterator of record chunks, either
record tuples (:meth:`repro.workloads.base.Workload.record_chunks`)
or packed ``array('q')`` records
(:meth:`~repro.workloads.base.Workload.batch_stream`).  The core then
pops one record per step from its current chunk instead of resuming a
generator frame per record.  Interleave semantics are untouched: the
scheduler still hands out exactly one record per step, and the chunked
stream is record-for-record identical to the generator (pinned by the
golden-equivalence tests) — prefetching only moves *production* of
future records earlier, which is legal precisely because these
workloads cannot react to simulation state.

Under the C cache walk the C scheduler
(:meth:`repro.engine.c_cache.CWalkState.run_cores`) steps batch-fed
cores itself: it reads the current packed chunk in place (tuple
chunks are packed first), and copies ``time``/``instructions``/
``memory_ops``/``_last_latency``/``finished``, the pending op and the
chunk position back into the core whenever control returns to
Python.  Chunks are still fetched by :meth:`advance`, which decodes
either form; :meth:`step`, the Python loop's fast path, reads tuples
only, so the scheduler calls :meth:`unpack_chunks` before handing a
core to that loop.
"""

from __future__ import annotations

from array import array

from repro.cache.hierarchy import CacheHierarchy
from repro.workloads.base import (
    WorkloadGenerator,
    unpack_record,
    unpack_records,
)


class Core:
    """One hardware thread bound to a private L1/L2 stack."""

    __slots__ = (
        "core_id",
        "workload",
        "hierarchy",
        "time",
        "instructions",
        "memory_ops",
        "finished",
        "_pending_op",
        "_pending_addr",
        "_last_latency",
        "_primed",
        "_send",
        "_access",
        "_batches",
        "_chunk",
        "_chunk_len",
        "_chunk_pos",
        "_throttle_base",
        "_l1d",
        "_l1_latency",
        "_line_bits",
        "_stats",
    )

    def __init__(
        self,
        core_id: int,
        workload: WorkloadGenerator | None,
        hierarchy: CacheHierarchy,
        batches=None,
    ):
        if (workload is None) == (batches is None):
            raise ValueError(
                "exactly one of workload (generator) or batches must be given"
            )
        self.core_id = core_id
        self.workload = workload
        self.hierarchy = hierarchy
        self.time = 0
        self.instructions = 0
        self.memory_ops = 0
        self.finished = False
        # Pending memory op as two plain slots (op None = no op):
        # packing/unpacking a tuple per record is measurable in the
        # scheduler loop.
        self._pending_op: int | None = None
        self._pending_addr = 0
        self._last_latency = 0
        self._primed = False
        # Bound-method caches for the calls made per scheduler step;
        # the advance/execute loop dominates simulation time.  The
        # access entry point is resolved through the engine seam
        # (REPRO_ENGINE): cores are constructed after the monitor is
        # attached, so the specialized kernel binds the final monitor
        # configuration.
        self._send = workload.send if workload is not None else None
        self._access = hierarchy.engine_access()
        # This core's own L1D plus the shared stats block, resolved
        # once: ~3/4 of all memory operations are L1 read hits, and
        # the step loop below serves those without entering ``access``.
        # Under the C cache walk the Python dicts are a stale mirror
        # between syncs, so the inline probe is disabled (None) and
        # every op goes through the kernel — which serves the L1 read
        # hit in C anyway.
        self._l1d = (
            hierarchy.l1d[core_id] if hierarchy._c_state is None else None
        )
        self._l1_latency = hierarchy.l1_latency
        self._line_bits = hierarchy._line_bits
        self._stats = hierarchy.stats
        self._batches = batches
        self._chunk = None
        self._chunk_len = 0
        self._chunk_pos = 0
        # Original access binding while a throttle wrapper is active
        # (None = unthrottled).  Throttling swaps the binding instead
        # of adding a per-op check, so unthrottled cores — the only
        # state outside an active OS response — pay zero.
        self._throttle_base = None

    # ------------------------------------------------------------------
    # OS response hook: throttling
    # ------------------------------------------------------------------

    def throttle(self, penalty: int) -> None:
        """Add ``penalty`` cycles to every operation served through
        the access kernel (anything past the inline L1 read hit — the
        probes, flushes, and misses an attack consists of).

        Re-throttling replaces the previous wrapper (penalties do not
        stack).  Implemented by wrapping the engine access binding, so
        it composes with every engine and never touches the shared
        hierarchy state.
        """
        if penalty < 1:
            raise ValueError("penalty must be >= 1")
        if self._throttle_base is None:
            self._throttle_base = self._access
        base = self._throttle_base

        if self._l1d is not None:
            def throttled(core, op, addr, now=0, _base=base,
                          _penalty=penalty):
                return _base(core, op, addr, now) + _penalty
        else:
            # Under the C walk L1 read hits reach the kernel too; the
            # other engines serve them inline in ``step``, unpenalised.
            # A read is an L1 hit exactly when it bumps the walk's
            # l1_hits counter.
            def throttled(core, op, addr, now=0, _base=base,
                          _penalty=penalty, _st=self.hierarchy._c_state.st):
                if op:
                    return _base(core, op, addr, now) + _penalty
                hits = _st.s_l1_hits
                latency = _base(core, 0, addr, now)
                return latency if _st.s_l1_hits != hits else latency + _penalty

        self._access = throttled

    def unthrottle(self) -> None:
        """Restore the unpenalised access binding (no-op if not
        throttled)."""
        if self._throttle_base is not None:
            self._access = self._throttle_base
            self._throttle_base = None

    @property
    def throttled(self) -> bool:
        return self._throttle_base is not None

    def advance(self) -> bool:
        """Consume the next workload record (compute phase).

        Returns False when the workload stream is exhausted, in which
        case the core is marked finished.
        """
        if self.finished:
            return False
        if self._batches is not None:
            return self._advance_batched()
        try:
            if self._primed:
                item = self._send(self._last_latency)
            else:
                item = next(self.workload)
                self._primed = True
        except StopIteration:
            self.finished = True
            return False
        compute, op, addr = item
        if compute < 0:
            raise ValueError("compute instruction count must be >= 0")
        self.time += compute
        self.instructions += compute
        if op is None:
            self._pending_op = None
            self._last_latency = 0
        else:
            self._pending_op = op
            self._pending_addr = addr
        return True

    def _advance_batched(self) -> bool:
        """Pop one record, packed or a tuple, from the prefetched
        chunk."""
        pos = self._chunk_pos
        if pos >= self._chunk_len:
            try:
                chunk = next(self._batches)
            except StopIteration:
                self.finished = True
                return False
            self._chunk = chunk
            self._chunk_len = len(chunk)
            pos = 0
        record = self._chunk[pos]
        compute, op, addr = (
            unpack_record(record) if type(record) is int else record
        )
        self._chunk_pos = pos + 1
        self.time += compute
        self.instructions += compute
        if op is None:
            self._pending_op = None
            self._last_latency = 0
        else:
            self._pending_op = op
            self._pending_addr = addr
        return True

    def unpack_chunks(self) -> None:
        """Switch a core fed packed chunks (``batch_stream``) to the
        record tuples :meth:`step` reads: the current chunk once, and
        every later chunk as it is fetched.  A no-op for other cores.
        """
        if type(self._chunk) is array:
            self._chunk = unpack_records(self._chunk)
            self._batches = map(unpack_records, self._batches)

    def execute_pending(self) -> None:
        """Perform the memory operation scheduled by :meth:`advance`."""
        op = self._pending_op
        if op is None:
            return
        latency = self._access(self.core_id, op, self._pending_addr, self.time)
        self.time += latency
        self.instructions += 1
        self.memory_ops += 1
        self._last_latency = latency
        self._pending_op = None

    def step(self, budget: int | float) -> bool:
        """Execute the pending operation, then advance one record.

        The scheduler's per-operation unit of work as a single call
        (``execute_pending`` + budget check + ``advance``), saving two
        method dispatches per memory operation.  ``budget`` is the
        per-core instruction budget (``float('inf')`` for unbounded).
        Returns False — with the core marked finished — when the
        budget is exhausted or the workload ends.
        """
        op = self._pending_op
        if op is not None:
            if op == 0:
                # Inline L1 read hit (identical effect to ``access``,
                # which the golden-equivalence suite pins): the
                # dominant case pays no call, no attribute chase.
                l1 = self._l1d
                line_addr = self._pending_addr >> self._line_bits
                if l1 is not None and line_addr in l1._map and l1._touch_stamps:
                    stamp = l1._stamp + 1
                    l1._stamp = stamp
                    l1._sets[line_addr & l1._set_mask][line_addr] = stamp
                    l1.hits += 1
                    latency = self._l1_latency
                    stats = self._stats
                    stats.l1_hits += 1
                    stats.total_latency += latency
                    stats.per_core_accesses[self.core_id] += 1
                else:
                    latency = self._access(
                        self.core_id, 0, self._pending_addr, self.time
                    )
            else:
                latency = self._access(
                    self.core_id, op, self._pending_addr, self.time
                )
            self.time += latency
            self.instructions += 1
            self.memory_ops += 1
            self._last_latency = latency
        if self.instructions >= budget:
            self._pending_op = None
            self.finished = True
            return False
        if self._batches is not None:
            # Inlined ``_advance_batched`` (scheduler-only fast path —
            # the method form remains for direct callers).
            pos = self._chunk_pos
            if pos >= self._chunk_len:
                try:
                    chunk = next(self._batches)
                except StopIteration:
                    self._pending_op = None
                    self.finished = True
                    return False
                self._chunk = chunk
                self._chunk_len = len(chunk)
                pos = 0
            compute, op, addr = self._chunk[pos]
            self._chunk_pos = pos + 1
            self.time += compute
            self.instructions += compute
            if op is None:
                self._pending_op = None
                self._last_latency = 0
            else:
                self._pending_op = op
                self._pending_addr = addr
            return True
        # Inlined ``advance`` (same semantics; scheduler-only fast
        # path — the method form remains for direct callers).  The
        # scheduler only steps cores whose initial ``advance``
        # succeeded, so the generator is always primed here.
        try:
            item = self._send(self._last_latency)
        except StopIteration:
            self._pending_op = None
            self.finished = True
            return False
        compute, op, addr = item
        if compute < 0:
            raise ValueError("compute instruction count must be >= 0")
        self.time += compute
        self.instructions += compute
        if op is None:
            self._pending_op = None
            self._last_latency = 0
        else:
            self._pending_op = op
            self._pending_addr = addr
        return True

    def __repr__(self) -> str:
        return (
            f"Core({self.core_id}, t={self.time}, "
            f"insns={self.instructions}, "
            f"{'finished' if self.finished else 'running'})"
        )
