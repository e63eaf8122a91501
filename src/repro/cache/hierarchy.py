"""The quad-core inclusive cache hierarchy (Table II).

Structure per core: private L1I + L1D (64 KB, 4-way, 2 cycles) and a
private L2 (256 KB, 8-way, 18 cycles), both inclusive; a shared sliced
LLC (4 MB, 16-way, 35 cycles) inclusive of everything; DRAM behind a
memory controller (200 cycles).  Coherence is MESI with the directory
embedded in the LLC (the ``sharers`` bit-field of the packed line
word).

An access walks down the levels; the returned latency is the sum of the
lookup latencies of every level visited plus memory time, mirroring a
blocking in-order load.  All *policy* decisions of the hierarchy —
inclusion victims (back-invalidation), dirty forwarding, upgrades,
writebacks — happen here, in one place, so they can be tested directly.

Per-line state is **array-native**: every resident line is a packed
int in its array's flat ``_map`` (see :mod:`repro.cache.line` for the
bit layout) plus a stamp int in its per-set dict, and this module
mutates those words in place.  Fills, evictions, and coherence actions
therefore allocate no objects; :class:`~repro.cache.line.CacheLine`
objects are materialised only at the monitor boundary (eviction hooks)
and on introspection APIs.

PiPoMonitor (or any baseline defense) plugs in as ``monitor`` with two
hooks:

* ``on_access(line_addr, now) -> bool`` — called for every *demand*
  fetch that reaches memory; the return value tags the filled LLC line
  as Ping-Pong (the paper's capture path).
* ``on_llc_eviction(line, now)``       — called when a tagged line is
  evicted from the LLC (the paper's pEvict message).  Monitors that
  only react to tagged lines declare ``needs_all_evictions = False``
  and the hierarchy then skips materialising untagged victims — the
  common case on the miss path.

The monitor prefetches by calling :meth:`CacheHierarchy.prefetch_fill`.

Flush-induced invalidations (:meth:`CacheHierarchy.clflush`, the
Flush+Reload / Flush+Flush attack primitive) raise the same eviction
hook with the same gating, so every defense observes a flushed tagged
line exactly like a capacity-evicted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.addr import AddressMapper
from repro.cache.coherence import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CoherenceViolation,
    check_mesi_invariants,
)
from repro.cache.line import (
    ACCESSED,
    DIRTY,
    PINGPONG,
    SHARERS_BITS,
    SHARERS_SHIFT,
    STATE_MASK,
    STATE_SHIFT,
    VERSION_BELOW,
    VERSION_SHIFT,
    CacheLine,
    CacheLineView,
    decode_sharers,
)
from repro.cache.llc import SLICE_MULT, U64_MASK, SlicedLLC
from repro.cache.set_assoc import CacheGeometry, SetAssociativeCache
from repro.memory.controller import MemoryController

#: Memory operation kinds.
OP_READ = 0
OP_WRITE = 1
OP_IFETCH = 2
OP_FLUSH = 3

#: Table II latencies (cycles).
DEFAULT_L1_LATENCY = 2
DEFAULT_L2_LATENCY = 18
DEFAULT_LLC_LATENCY = 35

# Short aliases for the packed-word arithmetic below.
_VS = VERSION_SHIFT
_SS = SHARERS_SHIFT
_SMASK = (1 << SHARERS_BITS) - 1
_SHARERS_FIELD = _SMASK << _SS
#: ``word & _KEEP_ON_FLUSH`` drops dirty + state + version (the fields
#: a snoop-flush rewrites) while keeping pingpong/accessed/sharers.
_KEEP_ON_FLUSH = (VERSION_BELOW ^ DIRTY) & ~STATE_MASK


@dataclass(slots=True)
class AccessStats:
    """Aggregate hierarchy counters (one instance per hierarchy).

    ``per_core_accesses`` is a plain list indexed by core id — the
    hierarchy preallocates it to ``num_cores`` so the demand path is a
    single list-index increment, not a dict get/set per access.  The
    dataclass is slotted: several counters are bumped per memory
    operation, and slot access skips the instance-dict lookup.

    ``accesses`` and ``reads`` are *derived* properties, not stored
    fields: every access hits or misses L1 exactly once, so
    ``accesses == l1_hits + l1_misses``, and reads are whatever is
    neither a write nor an ifetch.  Deriving them removes two counter
    increments from the busiest basic block in the simulator.

    Flushes (``clflush``) are accounted in their own counters and are
    **not** demand accesses: they contribute to neither ``accesses``
    nor ``total_latency`` (``average_latency`` stays the demand-access
    metric), and ``per_core_accesses`` keeps summing to ``accesses``.
    ``flush_hits`` counts flushes that found the line resident — the
    timing channel Flush+Flush measures; ``flush_back_invalidations``
    counts private copies scrubbed by flushes (kept separate from
    ``back_invalidations`` so the inclusion-victim metric is not
    polluted by attacker flushes).
    """

    writes: int = 0
    ifetches: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    llc_evictions: int = 0
    l2_evictions: int = 0
    back_invalidations: int = 0
    writebacks_to_memory: int = 0
    upgrades: int = 0
    dirty_forwards: int = 0
    prefetch_fills: int = 0
    prefetch_skipped: int = 0
    flushes: int = 0
    flush_hits: int = 0
    flush_writebacks: int = 0
    flush_back_invalidations: int = 0
    total_latency: int = 0
    per_core_accesses: list[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        """Total demand accesses (every one probes L1 exactly once)."""
        return self.l1_hits + self.l1_misses

    @property
    def reads(self) -> int:
        """Demand reads (accesses that are neither writes nor ifetches)."""
        return self.l1_hits + self.l1_misses - self.writes - self.ifetches

    @property
    def average_latency(self) -> float:
        accesses = self.l1_hits + self.l1_misses
        return self.total_latency / accesses if accesses else 0.0

    @property
    def llc_miss_rate(self) -> float:
        total = self.llc_hits + self.llc_misses
        return self.llc_misses / total if total else 0.0


class CacheHierarchy:
    """Quad-core (configurable) inclusive MESI hierarchy."""

    __slots__ = (
        "num_cores",
        "mapper",
        "l1d",
        "l1i",
        "l2",
        "llc",
        "mc",
        "l1_latency",
        "l2_latency",
        "llc_latency",
        "dirty_forward_penalty",
        "monitor",
        "stats",
        "_memory_versions",
        "_write_counter",
        "_line_bits",
        "_llc_slice_of",
        "_llc_slices",
        "_llc_set_bits",
        "_llc_slice_shift",
        "_kernel",
        "_kernel_key",
        "_c_state",
        "_walk_issued",
    )

    def __init__(
        self,
        num_cores: int = 4,
        l1_geometry: CacheGeometry | None = None,
        l2_geometry: CacheGeometry | None = None,
        llc: SlicedLLC | None = None,
        mc: MemoryController | None = None,
        l1_latency: int = DEFAULT_L1_LATENCY,
        l2_latency: int = DEFAULT_L2_LATENCY,
        llc_latency: int = DEFAULT_LLC_LATENCY,
        dirty_forward_penalty: int | None = None,
        monitor=None,
        seed: int = 0,
    ):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if num_cores > SHARERS_BITS:
            raise ValueError(
                f"num_cores must be <= {SHARERS_BITS}: the directory "
                "presence mask is a fixed bit-field of the packed line word"
            )
        self.num_cores = num_cores
        self.mapper = AddressMapper()
        l1_geometry = l1_geometry or CacheGeometry(64 * 1024, 4)
        l2_geometry = l2_geometry or CacheGeometry(256 * 1024, 8)
        self.l1d = [
            SetAssociativeCache(l1_geometry, seed=seed + c, name=f"l1d{c}")
            for c in range(num_cores)
        ]
        self.l1i = [
            SetAssociativeCache(l1_geometry, seed=seed + 64 + c, name=f"l1i{c}")
            for c in range(num_cores)
        ]
        self.l2 = [
            SetAssociativeCache(l2_geometry, seed=seed + 128 + c, name=f"l2_{c}")
            for c in range(num_cores)
        ]
        self.llc = llc if llc is not None else SlicedLLC(seed=seed)
        self.mc = mc if mc is not None else MemoryController()
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.llc_latency = llc_latency
        self.dirty_forward_penalty = (
            dirty_forward_penalty
            if dirty_forward_penalty is not None
            else llc_latency
        )
        self.monitor = monitor
        self.stats = AccessStats(per_core_accesses=[0] * num_cores)
        self._memory_versions: dict[int, int] = {}
        self._write_counter = 0
        # Hot-path caches: resolved once so the per-access path never
        # chases mapper/LLC attribute chains.
        self._line_bits = self.mapper.line_bits
        self._llc_slice_of = self.llc.slice_of
        self._llc_slices = self.llc.slices
        # Slice-hash ingredients for the inlined probe (bit-identical
        # to SlicedLLC.slice_of; with one slice the shift is 64, so
        # the expression degenerates to index 0 on its own).
        self._llc_set_bits = self.llc._set_bits
        self._llc_slice_shift = self.llc._slice_shift
        # Engine seam: the specialized/C kernels are generated lazily
        # by repro.engine and cached here (invalidated when the engine
        # selection or the attached monitor changes).
        self._kernel = None
        self._kernel_key = None
        # C cache-walk seam (repro.engine.c_cache): once installed,
        # ``_c_state`` owns the authoritative C-side storage and every
        # mutator below routes through it; the dicts become a mirror
        # refreshed by :meth:`engine_sync`.  ``_walk_issued`` records
        # that a Python kernel closure captured the dicts directly, at
        # which point a later C install must be refused (the closure
        # would silently fork the state).
        self._c_state = None
        self._walk_issued = False

    def engine_access(self):
        """The per-event access entry point under the selected engine
        (``REPRO_ENGINE``): the generic :meth:`access` bound method for
        the ``python`` engine, a generated fused kernel otherwise.

        Callers that loop over memory operations (cores, batch replay)
        bind this once — after the monitor is attached — instead of
        :meth:`access`; both entry points mutate the same state, so
        they interleave freely (flushes, monitor prefetch fills, and
        introspection always run the generic paths).
        """
        from repro.engine import hierarchy_access

        return hierarchy_access(self)

    # ------------------------------------------------------------------
    # The demand access path
    # ------------------------------------------------------------------

    def access(self, core: int, op: int, addr: int, now: int = 0) -> int:
        """Perform one memory operation; return its latency in cycles.

        This is the simulator's hottest function (one call per memory
        op).  The hit paths are written as straight-line code: a single
        dict probe per level, the LRU stamp written as a plain int into
        the per-set dict (see the hot-path contract in
        :mod:`repro.cache.set_assoc`), and the stats update unrolled —
        no helper calls and no allocation until an actual miss or
        coherence action needs handling.
        """
        cs = self._c_state
        if cs is not None:
            # C-side storage is authoritative; the generic path would
            # read a stale mirror.
            return cs.kernel(core, op, addr, now)
        line_addr = addr >> self._line_bits
        # Opcode literals (0/1/2 = OP_READ/OP_WRITE/OP_IFETCH) avoid a
        # module-global load per comparison on this path.  The read
        # L1 hit — the single most executed basic block in the whole
        # simulator — is specialised first: a read needs nothing from
        # the line word, so it is a pure membership probe plus the
        # stamp store.
        if op == 0:  # OP_READ
            l1 = self.l1d[core]
            if line_addr in l1._map:
                latency = self.l1_latency
                l1.hits += 1
                stamp = l1._stamp + 1
                l1._stamp = stamp
                if l1._touch_stamps:
                    l1._sets[line_addr & l1._set_mask][line_addr] = stamp
                else:
                    l1.policy.on_touch(CacheLineView(l1, line_addr), stamp)
                stats = self.stats
                stats.l1_hits += 1
                stats.total_latency += latency
                stats.per_core_accesses[core] += 1
                return latency
        else:
            if op == 3:  # OP_FLUSH — its own service path, not a demand
                return self.clflush(core, addr, now)
            l1 = (self.l1i if op == 2 else self.l1d)[core]
            l1map = l1._map
            w = l1map.get(line_addr)
            if w is not None:
                latency = self.l1_latency
                l1.hits += 1
                stats = self.stats
                stats.l1_hits += 1
                if op == 1:  # OP_WRITE
                    state = (w >> STATE_SHIFT) & 0b11
                    if state != 3:  # not MODIFIED yet
                        latency += self._write_hit(core, line_addr, state)
                        w = l1map[line_addr]  # upgrade rewrote state
                    # else: repeat write to an M line — the upgrade
                    # check and M-broadcast would be no-ops (an M L1
                    # copy implies M on every private level), so the
                    # dominant write-hit case skips both.
                    # Inlined ``_mark_written``: the line is resident
                    # in this L1, so stamp the fresh write version and
                    # dirty bit straight into its word.
                    wc = self._write_counter + 1
                    self._write_counter = wc
                    l1map[line_addr] = (w & VERSION_BELOW) | (wc << _VS) | DIRTY
                    stats.writes += 1
                else:
                    stats.ifetches += 1
                stamp = l1._stamp + 1
                l1._stamp = stamp
                if l1._touch_stamps:
                    l1._sets[line_addr & l1._set_mask][line_addr] = stamp
                else:
                    l1.policy.on_touch(CacheLineView(l1, line_addr), stamp)
                stats.total_latency += latency
                stats.per_core_accesses[core] += 1
                return latency
        stats = self.stats
        latency = self.l1_latency
        l1.misses += 1
        stats.l1_misses += 1

        # ---- L2 ----
        l2 = self.l2[core]
        latency += self.l2_latency
        l2map = l2._map
        w = l2map.get(line_addr)
        if w is not None:
            l2.hits += 1
            stats.l2_hits += 1
            if op == 1:  # OP_WRITE
                latency += self._write_hit(
                    core, line_addr, (w >> STATE_SHIFT) & 0b11
                )
                w = l2map[line_addr]  # state rewritten by the upgrade
            self._fill_l1(
                core, l1, line_addr, (w >> STATE_SHIFT) & 0b11, w >> _VS, now
            )
            if op == 1:
                self._mark_written(core, op, line_addr)
            stamp = l2._stamp + 1
            l2._stamp = stamp
            if l2._touch_stamps:
                l2._sets[line_addr & l2._set_mask][line_addr] = stamp
            else:
                l2.policy.on_touch(CacheLineView(l2, line_addr), stamp)
            stats.total_latency += latency
            if op == 1:  # OP_WRITE
                stats.writes += 1
            elif op == 2:  # OP_IFETCH
                stats.ifetches += 1
            stats.per_core_accesses[core] += 1
            return latency
        l2.misses += 1
        stats.l2_misses += 1

        # ---- LLC ----
        latency += self.llc_latency
        sl = self._llc_slices[
            ((line_addr >> self._llc_set_bits) * SLICE_MULT & U64_MASK)
            >> self._llc_slice_shift
        ]
        if line_addr in sl._map:
            stats.llc_hits += 1
            latency += self._serve_llc_hit(core, op, line_addr, now, sl)
            if op == 1:
                stats.writes += 1
            elif op == 2:
                stats.ifetches += 1
            stats.total_latency += latency
            stats.per_core_accesses[core] += 1
            return latency
        stats.llc_misses += 1

        # ---- Memory ----
        latency += self._fetch_into_llc(line_addr, now + latency, True, sl)
        state = MODIFIED if op == 1 else EXCLUSIVE
        self._fill_private(core, op, line_addr, state, sl, now)
        if op == 1:
            self._mark_written(core, op, line_addr)
            stats.writes += 1
        elif op == 2:
            stats.ifetches += 1
        # Inlined ``_record`` — one call per full miss adds up.
        stats.total_latency += latency
        stats.per_core_accesses[core] += 1
        return latency

    def access_many(
        self,
        requests: "list[tuple[int, int, int]]",
        now: int = 0,
    ) -> list[int]:
        """Perform a batch of ``(core, op, addr)`` operations.

        Semantically identical to calling :meth:`access` once per
        request (same stats, same replacement decisions, same monitor
        interactions) but with the loop overhead amortised: attribute
        chains are hoisted out of the loop and the dominant case — an
        L1 read hit — is handled entirely inline.  Trace replay and
        synthetic warmups are built on this; the cycle-interleaved
        multicore scheduler still consumes one record per core per
        step (through the chunked batch prefetch in
        :class:`repro.cpu.core.Core`) because it must interleave cores
        between operations.

        Returns the per-request latencies.
        """
        cs = self._c_state
        if cs is not None:
            return cs.access_many(requests, now)
        # Non-inline requests go through the engine-selected kernel
        # (the generic ``access`` under REPRO_ENGINE=python).  Resolved
        # *before* the locals are hoisted: under REPRO_ENGINE=c this
        # very call may install the C walk, after which the dicts are
        # a mirror and the whole batch must route through C.
        access = self.engine_access()
        cs = self._c_state
        if cs is not None:
            return cs.access_many(requests, now)
        stats = self.stats
        l1d = self.l1d
        line_bits = self._line_bits
        l1_latency = self.l1_latency
        per_core = stats.per_core_accesses
        latencies = []
        append = latencies.append
        for core, op, addr in requests:
            if op == 0:  # OP_READ
                l1 = l1d[core]
                line_addr = addr >> line_bits
                if line_addr in l1._map:
                    # Inline L1 read hit (the overwhelmingly common
                    # case): identical effect to ``access``.
                    l1.hits += 1
                    stats.l1_hits += 1
                    stamp = l1._stamp + 1
                    l1._stamp = stamp
                    if l1._touch_stamps:
                        l1._sets[line_addr & l1._set_mask][line_addr] = stamp
                    else:
                        l1.policy.on_touch(CacheLineView(l1, line_addr), stamp)
                    stats.total_latency += l1_latency
                    per_core[core] += 1
                    append(l1_latency)
                    continue
            append(access(core, op, addr, now))
        return latencies

    # ------------------------------------------------------------------
    # Flush (clflush/invalidate) — the Flush+Reload / Flush+Flush
    # attack primitive
    # ------------------------------------------------------------------

    def clflush(self, core: int, addr: int, now: int = 0) -> int:
        """Flush one line from the whole coherence domain (x86
        ``clflush``); return the instruction's latency in cycles.

        Semantics: the directory is probed; if the line is resident in
        the (inclusive) LLC, every private copy named by the sharers
        mask is invalidated, dirty data is merged and written back to
        memory, and the LLC copy is dropped.  ``core`` is the issuing
        core — a flush hits the issuer's own copies like anyone
        else's.

        The latency is the Flush+Flush timing channel (Gruss et al.):

        * absent line  — issue + directory probe (fast);
        * resident     — plus an invalidation round trip;
        * dirty        — plus the writeback drain to DRAM.

        Monitor contract: a flush-induced LLC invalidation raises the
        same ``on_llc_eviction`` hook as a capacity eviction, with the
        same ``needs_all_evictions`` gating and with the directory
        state intact, **exactly once per flushed line** — so
        PiPoMonitor sees the pEvict of a tagged line, BITP sees the
        back-invalidation, and the table recorder behaves like
        PiPoMonitor.  (The line leaves the LLC here, so the capacity-
        eviction path can never fire a second hook for it.)
        """
        cs = self._c_state
        if cs is not None:
            return cs.clflush(core, addr, now)
        line_addr = addr >> self._line_bits
        stats = self.stats
        stats.flushes += 1
        latency = self.l1_latency + self.llc_latency
        sl = self._llc_slices[
            ((line_addr >> self._llc_set_bits) * SLICE_MULT & U64_MASK)
            >> self._llc_slice_shift
        ]
        word = sl._map.pop(line_addr, None)
        if word is None:
            # Inclusive hierarchy: absent from the LLC means absent
            # from every private level — nothing to invalidate.
            return latency
        stamp = sl._sets[line_addr & sl._set_mask].pop(line_addr)
        stats.flush_hits += 1
        latency += self.llc_latency
        # Monitor hook after the pop (the victim has left the LLC, as
        # on the capacity path) but before the sharers scrub, so the
        # directory state is intact — identical gating and ordering to
        # ``_handle_llc_eviction``.
        monitor = self.monitor
        if monitor is not None and (
            word & PINGPONG or getattr(monitor, "needs_all_evictions", True)
        ):
            victim = CacheLine.from_packed(line_addr, word, stamp)
            monitor.on_llc_eviction(victim, now)
            word = victim.to_word()
        sharers = (word >> _SS) & _SMASK
        dirty = word & DIRTY
        version = word >> _VS
        for other in decode_sharers(sharers):
            d, v = self._scrub_core_copies(other, line_addr)
            stats.flush_back_invalidations += 1
            if d:
                dirty = DIRTY
                if v > version:
                    version = v
        if dirty:
            self.mc.writeback(line_addr << self._line_bits, now)
            self._memory_versions[line_addr] = version
            stats.writebacks_to_memory += 1
            stats.flush_writebacks += 1
            # A flush of dirty data stalls until the drain completes.
            latency += self.mc.dram.latency
        return latency

    # ------------------------------------------------------------------
    # Write handling
    # ------------------------------------------------------------------

    def _write_hit(self, core: int, line_addr: int, state: int) -> int:
        """Handle a write hitting a private line in ``state``; return
        extra latency.

        Callers must invoke :meth:`_mark_written` (or its inline form)
        once the L1 copy is resident (on the L2-hit path the L1 fill
        happens afterwards).
        """
        extra = 0
        if state == SHARED:
            # S→M upgrade: a directory round trip invalidates the other
            # sharers.
            extra = self.llc_latency
            self.stats.upgrades += 1
            sl = self._llc_slices[
                ((line_addr >> self._llc_set_bits) * SLICE_MULT & U64_MASK)
                >> self._llc_slice_shift
            ]
            lmap = sl._map
            if line_addr not in lmap:
                raise CoherenceViolation(
                    f"inclusion broken: private line {line_addr:#x} "
                    "absent from LLC during upgrade"
                )
            self._invalidate_other_sharers(core, line_addr, sl)
            lw = lmap[line_addr]
            if lw & PINGPONG:
                lmap[line_addr] = lw | ACCESSED
        # E→M is silent.
        self._set_core_state(core, line_addr, MODIFIED)
        return extra

    def _mark_written(self, core: int, op: int, line_addr: int) -> None:
        """Stamp the core's L1 copy with a fresh write version."""
        wc = self._write_counter + 1
        self._write_counter = wc
        m = (self.l1i if op == OP_IFETCH else self.l1d)[core]._map
        w = m.get(line_addr)
        if w is not None:
            m[line_addr] = (w & VERSION_BELOW) | (wc << _VS) | DIRTY

    # ------------------------------------------------------------------
    # LLC hit service (coherence actions)
    # ------------------------------------------------------------------

    def _serve_llc_hit(
        self, core: int, op: int, line_addr: int, now: int,
        sl: SetAssociativeCache,
    ) -> int:
        lmap = sl._map
        penalty = 0
        lw = lmap[line_addr]
        others = ((lw >> _SS) & _SMASK) & ~(1 << core)
        if others:
            # Flush/demote any M/E copy held elsewhere.
            for other in decode_sharers(others):
                if self._flush_core_line(other, line_addr, sl):
                    penalty += self.dirty_forward_penalty
                    self.stats.dirty_forwards += 1
            if op == OP_WRITE:
                self._invalidate_other_sharers(core, line_addr, sl)
                state = MODIFIED
            else:
                state = SHARED
            lw = lmap[line_addr]  # flush/invalidate rewrote the word
        else:
            state = MODIFIED if op == OP_WRITE else EXCLUSIVE
        if lw & PINGPONG:
            lmap[line_addr] = lw | ACCESSED
        self._fill_private(core, op, line_addr, state, sl, now)
        if op == OP_WRITE:
            self._mark_written(core, op, line_addr)
        # Recency update (inlined ``touch`` on the owning slice).
        stamp = sl._stamp + 1
        sl._stamp = stamp
        if sl._touch_stamps:
            sl._sets[line_addr & sl._set_mask][line_addr] = stamp
        else:
            sl.policy.on_touch(CacheLineView(sl, line_addr), stamp)
        return penalty

    def _flush_core_line(
        self, core: int, line_addr: int, sl: SetAssociativeCache
    ) -> bool:
        """Demote ``core``'s copies to SHARED, merging dirty data into
        the LLC word.  Returns True when dirty data was forwarded.

        The forwarded data also refreshes the core's *own* outer copies
        (a dirty L1 line implies a stale L2 copy; hardware writes the
        snooped data through, otherwise a later L1 eviction would
        resurrect stale L2 data).
        """
        lmap = sl._map
        lw = lmap[line_addr]
        newest = lw >> _VS
        forwarded = False
        holding = []
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            m = cache._map
            w = m.get(line_addr)
            if w is None:
                continue
            holding.append(m)
            if w & DIRTY:
                v = w >> _VS
                if v > newest:
                    newest = v
                lw |= DIRTY
                forwarded = True
        lmap[line_addr] = (lw & VERSION_BELOW) | (newest << _VS)
        shared_bits = SHARED << STATE_SHIFT
        for m in holding:
            m[line_addr] = (
                (m[line_addr] & _KEEP_ON_FLUSH) | shared_bits | (newest << _VS)
            )
        return forwarded

    def _invalidate_other_sharers(
        self, core: int, line_addr: int, sl: SetAssociativeCache
    ) -> None:
        """Remove every other core's private copies of the line."""
        lmap = sl._map
        lw = lmap[line_addr]
        sharers = (lw >> _SS) & _SMASK
        version = lw >> _VS
        dirty = lw & DIRTY
        for other in decode_sharers(sharers & ~(1 << core)):
            d, v = self._scrub_core_copies(other, line_addr)
            if d:
                dirty = DIRTY
                if v > version:
                    version = v
        lmap[line_addr] = (
            (lw & (VERSION_BELOW & ~_SHARERS_FIELD & ~DIRTY))
            | dirty
            | ((sharers & (1 << core)) << _SS)
            | (version << _VS)
        )

    def _scrub_core_copies(self, core: int, line_addr: int) -> tuple[int, int]:
        """Drop a line from all private levels of ``core``; return
        ``(dirty, max_dirty_version)`` for the caller to merge."""
        dirty = 0
        version = -1
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            w = cache._remove_word(line_addr)
            if w is not None and w & DIRTY:
                v = w >> _VS
                if v > version:
                    version = v
                dirty = DIRTY
        return dirty, version

    def _set_core_state(self, core: int, line_addr: int, state: int) -> None:
        bits = state << STATE_SHIFT
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            m = cache._map
            w = m.get(line_addr)
            if w is not None:
                m[line_addr] = (w & ~STATE_MASK) | bits

    # ------------------------------------------------------------------
    # Fills
    # ------------------------------------------------------------------

    def _fill_private(
        self, core: int, op: int, line_addr: int, state: int,
        sl: SetAssociativeCache, now: int,
    ) -> None:
        # Every caller sits past an L1 *and* L2 miss for this core
        # with no intervening fill, so both levels fill directly —
        # the probes would always come back empty (and ``_fill``'s
        # duplicate guard would catch a violated assumption loudly).
        smap = sl._map
        llc_word = smap[line_addr]
        base = ((llc_word >> _VS) << _VS) | (state << STATE_SHIFT)
        l2 = self.l2[core]
        # Both fills below inline the ``_fill`` fast path (stamp-on-
        # insert, min-stamp victim) — this method runs once per miss
        # that reaches the LLC or memory.
        if l2._insert_stamps and l2._victim_is_min_stamp:
            cache_set = l2._sets[line_addr & l2._set_mask]
            if line_addr in cache_set:
                raise ValueError(
                    f"{l2.name}: duplicate insert of line {line_addr:#x}"
                )
            vaddr = None
            if len(cache_set) >= l2.ways:
                vaddr = min(cache_set, key=cache_set.__getitem__)
                del cache_set[vaddr]
                vword = l2._map.pop(vaddr)
                l2.evictions += 1
            stamp = l2._stamp + 1
            l2._stamp = stamp
            cache_set[line_addr] = stamp
            l2._map[line_addr] = base
        else:
            vaddr, vword, _ = l2._fill(line_addr, base)
        if vaddr is not None:
            # Inlined ``_handle_l2_eviction`` (the L2 set is full at
            # steady state, so this runs on nearly every miss): purge
            # L1 copies, write back to the LLC, release the directory
            # presence bit.
            self.stats.l2_evictions += 1
            dirty = vword & DIRTY
            version = vword >> _VS
            for l1c in (self.l1d[core], self.l1i[core]):
                w = l1c._map.pop(vaddr, None)
                if w is not None:
                    del l1c._sets[vaddr & l1c._set_mask][vaddr]
                    if w & DIRTY:
                        v = w >> _VS
                        if v > version:
                            version = v
                        dirty = DIRTY
            lmap = self._llc_slices[
                ((vaddr >> self._llc_set_bits) * SLICE_MULT & U64_MASK)
                >> self._llc_slice_shift
            ]._map
            lw = lmap.get(vaddr)
            if lw is None:
                raise CoherenceViolation(
                    f"inclusion broken: L2 victim {vaddr:#x} absent from LLC"
                )
            if dirty:
                if version > (lw >> _VS):
                    lw = (lw & VERSION_BELOW) | (version << _VS)
                lw |= DIRTY
            lmap[vaddr] = lw & ~(1 << (core + _SS))
        l1 = (self.l1i if op == OP_IFETCH else self.l1d)[core]
        if l1._insert_stamps and l1._victim_is_min_stamp:
            cache_set = l1._sets[line_addr & l1._set_mask]
            if line_addr in cache_set:
                raise ValueError(
                    f"{l1.name}: duplicate insert of line {line_addr:#x}"
                )
            vaddr = None
            if len(cache_set) >= l1.ways:
                vaddr = min(cache_set, key=cache_set.__getitem__)
                del cache_set[vaddr]
                vword = l1._map.pop(vaddr)
                l1.evictions += 1
            stamp = l1._stamp + 1
            l1._stamp = stamp
            cache_set[line_addr] = stamp
            l1._map[line_addr] = base
        else:
            vaddr, vword, _ = l1._fill(line_addr, base)
        if vaddr is not None and vword & DIRTY:
            # Writeback into the L2 copy (present by inclusion).
            l2map = l2._map
            w = l2map.get(vaddr)
            if w is not None:
                v = vword >> _VS
                if v > (w >> _VS):
                    w = (w & VERSION_BELOW) | (v << _VS)
                l2map[vaddr] = w | DIRTY
        # ``llc_word`` is still current: the eviction handling above
        # only rewrites *other* addresses' words.
        smap[line_addr] = llc_word | (1 << (core + _SS))

    def _fill_l1(
        self, core: int, l1: SetAssociativeCache, line_addr: int,
        state: int, version: int, now: int,
    ) -> None:
        # Callers sit past an L1 miss with no intervening fill of this
        # address, so fill directly (the duplicate guard backs the
        # assumption).
        vaddr, vword, _ = l1._fill(
            line_addr, (version << _VS) | (state << STATE_SHIFT)
        )
        if vaddr is not None and vword & DIRTY:
            # Writeback into the L2 copy (present by inclusion).
            l2map = self.l2[core]._map
            w = l2map.get(vaddr)
            if w is not None:
                v = vword >> _VS
                if v > (w >> _VS):
                    w = (w & VERSION_BELOW) | (v << _VS)
                l2map[vaddr] = w | DIRTY

    # ------------------------------------------------------------------
    # Memory path and LLC evictions
    # ------------------------------------------------------------------

    def _fetch_into_llc(
        self, line_addr: int, now: int, demand: bool,
        sl: SetAssociativeCache,
    ) -> int:
        """Fetch a line from memory into ``sl`` (its owning LLC slice,
        resolved by the caller); return the memory latency."""
        captured = False
        if demand and self.monitor is not None:
            captured = self.monitor.on_access(line_addr, now)
        # Inlined ``MemoryController.fetch`` for the flat-latency DRAM
        # mode (bit-identical accounting; the row-buffer model keeps
        # the method call).
        mc = self.mc
        dram = mc.dram
        if not dram.open_page:
            free_at = mc._channel_free_at
            start = now if now > free_at else free_at
            mc._channel_free_at = start + mc.burst_cycles
            mc.total_queue_wait += start - now
            if demand:
                mc.demand_fetches += 1
            else:
                mc.prefetch_fetches += 1
            latency = start - now + dram.latency
        else:
            latency = mc.fetch(
                line_addr << self._line_bits, now, prefetch=not demand
            )
        version = self._memory_versions.get(line_addr, 0)
        if demand:
            # A captured demand fill is tagged and, by definition,
            # accessed; uncaptured demand fills carry no flags.
            base = (version << _VS) | (PINGPONG | ACCESSED if captured else 0)
        else:
            # Prefetch fill: stays tagged, access bit cleared (the
            # no-endless-prefetch rule, Section IV).
            base = (version << _VS) | PINGPONG
        # Inlined ``_fill`` fast path for stamp-on-insert policies
        # (LRU: min-stamp victim; lru_rand & friends: the policy's
        # array-native ``victim_addr``); identical bookkeeping, no
        # per-fill method dispatch on the miss path.
        if sl._insert_stamps and (
            sl._victim_is_min_stamp or sl._victim_addr is not None
        ):
            cache_set = sl._sets[line_addr & sl._set_mask]
            if line_addr in cache_set:
                raise ValueError(
                    f"{sl.name}: duplicate insert of line {line_addr:#x}"
                )
            vaddr = None
            if len(cache_set) >= sl.ways:
                if sl._victim_is_min_stamp:
                    vaddr = min(cache_set, key=cache_set.__getitem__)
                else:
                    vaddr = sl._victim_addr(cache_set)
                vstamp = cache_set.pop(vaddr)
                vword = sl._map.pop(vaddr)
                sl.evictions += 1
            stamp = sl._stamp + 1
            sl._stamp = stamp
            cache_set[line_addr] = stamp
            sl._map[line_addr] = base
        else:
            vaddr, vword, vstamp = sl._fill(line_addr, base)
        if vaddr is not None:
            self._handle_llc_eviction(vaddr, vword, vstamp, now)
        return latency

    def _handle_llc_eviction(
        self, vaddr: int, vword: int, vstamp: int, now: int
    ) -> None:
        self.stats.llc_evictions += 1
        # The monitor hook fires first, while the victim's directory
        # state is intact: PiPoMonitor reads the pingpong/accessed
        # bits, stateless baselines (BITP) read the sharers mask to
        # detect back-invalidations.  The hook only schedules events.
        # Monitors that ignore untagged lines declare
        # ``needs_all_evictions = False`` so the (dominant) untagged
        # case skips the detached-line materialisation entirely.
        monitor = self.monitor
        if monitor is not None and (
            vword & PINGPONG or getattr(monitor, "needs_all_evictions", True)
        ):
            victim = CacheLine.from_packed(vaddr, vword, vstamp)
            monitor.on_llc_eviction(victim, now)
            vword = victim.to_word()
        sharers = (vword >> _SS) & _SMASK
        if sharers:
            dirty = vword & DIRTY
            version = vword >> _VS
            for core in decode_sharers(sharers):
                d, v = self._scrub_core_copies(core, vaddr)
                self.stats.back_invalidations += 1
                if d:
                    dirty = DIRTY
                    if v > version:
                        version = v
            vword = (
                (vword & (VERSION_BELOW & ~_SHARERS_FIELD & ~DIRTY))
                | dirty
                | (version << _VS)
            )
        if vword & DIRTY:
            self.mc.writeback(vaddr << self._line_bits, now)
            self._memory_versions[vaddr] = vword >> _VS
            self.stats.writebacks_to_memory += 1

    def prefetch_fill(self, line_addr: int, now: int, tag: bool = True) -> bool:
        """Fill a line into the LLC on behalf of the monitor.

        ``tag`` controls whether the filled line carries the Ping-Pong
        tag (PiPoMonitor re-tags its prefetches; stateless prefetchers
        like BITP do not tag).  Returns True when a fetch was actually
        issued (False when the line is already resident, e.g.
        re-fetched by a demand miss before the delayed prefetch fired).
        """
        cs = self._c_state
        if cs is not None:
            return cs.prefetch_fill(line_addr, now, tag)
        sl = self._llc_slices[
            ((line_addr >> self._llc_set_bits) * SLICE_MULT & U64_MASK)
            >> self._llc_slice_shift
        ]
        if line_addr in sl._map:
            self.stats.prefetch_skipped += 1
            return False
        self._fetch_into_llc(line_addr, now, False, sl)
        lmap = sl._map
        w = lmap[line_addr]
        lmap[line_addr] = (w | PINGPONG) if tag else (w & ~PINGPONG)
        self.stats.prefetch_fills += 1
        return True

    # ------------------------------------------------------------------
    # Introspection and validation
    # ------------------------------------------------------------------

    def engine_sync(self) -> None:
        """Flush engine-owned state back into the Python objects.

        A no-op for the pure-Python engines (the dicts *are* the
        state).  Under the C cache walk this performs the full sync:
        the per-cache and AccessStats counters, the monitor/filter
        counters, the memory-controller channel state, and the storage
        mirror — every ``_map``/``_sets`` dict, ``_memory_versions``
        and the ``lru_rand`` RNG states — are refreshed from the C
        arrays (in place — object identity is preserved for held
        references).  ``MulticoreSystem.run`` refreshes only the
        counters; the mirror is rebuilt here, on first use.  Cheap
        when nothing ran since the last sync.  The C side stays
        authoritative afterwards; this is a read-only snapshot
        refresh, never a hand-back.
        """
        cs = self._c_state
        if cs is not None:
            cs.sync_all()

    def read_version(self, core: int, addr: int) -> int:
        """The data version a read by ``core`` would observe, *without*
        perturbing any state.  Test helper mirroring the serve path."""
        self.engine_sync()
        line_addr = addr >> self.mapper.line_bits
        for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
            w = cache._map.get(line_addr)
            if w is not None:
                return w >> _VS
        # Another core may hold a newer dirty copy.
        best = -1
        for other in range(self.num_cores):
            for cache in (self.l1d[other], self.l1i[other], self.l2[other]):
                w = cache._map.get(line_addr)
                if w is not None and w & DIRTY and (w >> _VS) > best:
                    best = w >> _VS
        lw = self._llc_slices[self._llc_slice_of(line_addr)]._map.get(line_addr)
        if lw is not None and (lw >> _VS) > best:
            best = lw >> _VS
        if best >= 0:
            return best
        return self._memory_versions.get(line_addr, 0)

    def holders_of(self, line_addr: int) -> dict[int, int]:
        """Map core → private MESI state for a line (test helper)."""
        self.engine_sync()
        holders: dict[int, int] = {}
        for core in range(self.num_cores):
            state = None
            for cache in (self.l1d[core], self.l1i[core], self.l2[core]):
                w = cache._map.get(line_addr)
                if w is not None:
                    s = (w >> STATE_SHIFT) & 0b11
                    state = s if state is None else max(state, s)
            if state is not None:
                holders[core] = state
        return holders

    def check_invariants(self) -> None:
        """Validate MESI, inclusion, and directory accuracy everywhere.

        Raises :class:`CoherenceViolation` on the first failure.  Meant
        for tests — it walks every resident line.
        """
        self.engine_sync()
        private_addrs: set[int] = set()
        for core in range(self.num_cores):
            l2_lines = set(self.l2[core]._map)
            for l1 in (self.l1d[core], self.l1i[core]):
                for addr in l1._map:
                    if addr not in l2_lines:
                        raise CoherenceViolation(
                            f"L1 line {addr:#x} of core {core} "
                            "missing from its L2 (inclusion)"
                        )
            private_addrs.update(l2_lines)
        llc_addrs = {line.addr for line in self.llc.lines()}
        missing = private_addrs - llc_addrs
        if missing:
            raise CoherenceViolation(
                f"private lines missing from LLC (inclusion): "
                f"{[hex(a) for a in sorted(missing)][:4]}"
            )
        for llc_line in self.llc.lines():
            holders = self.holders_of(llc_line.addr)
            check_mesi_invariants(holders)
            if set(holders) != set(llc_line.sharer_list()):
                raise CoherenceViolation(
                    f"directory mismatch for {llc_line.addr:#x}: "
                    f"sharers={llc_line.sharer_list()} actual={sorted(holders)}"
                )
