"""Install/eligibility/sync for the C cache walk (the ``c`` engine's
second half).

:mod:`repro.engine._walk_src` holds the C source,
:mod:`repro.engine.c_backend` builds it; this module decides when a
hierarchy may take the C walk, mirrors its storage into C-owned
arrays, and syncs the mirror back.

Storage-mirror contract (PERFORMANCE.md design rule 16)
-------------------------------------------------------
Installation is **one-way**: :func:`install` copies the current
packed-word state — every ``_map``/``_sets`` dict, per-cache and
AccessStats counters, the memory-controller channel clock,
``_memory_versions``, and the ``lru_rand`` Mersenne-Twister states —
into flat C arrays, and from then on the C side is authoritative.
The Python objects become a *mirror*, refreshed in two tiers:

* **counters at run end** — :meth:`CWalkState.sync` (called by
  ``MulticoreSystem.run``) refreshes what a result reads without an
  introspection call: ``AccessStats`` and ``per_core_accesses``,
  per-cache ``_stamp``/``hits``/``misses``/``evictions``, the
  memory-controller scalars and ``_write_counter``, and the
  monitor/filter counters, then exports telemetry;
* **lines on first introspection** — :meth:`CWalkState.sync_all`
  also rebuilds every ``_map``/``_sets`` dict **in place** (object
  identity preserved, so held references stay valid),
  ``_memory_versions`` and the ``lru_rand`` Mersenne-Twister states,
  but only when C ran since the last rebuild.  Every introspection
  entry point reaches it: ``SetAssociativeCache``'s read APIs via
  ``_c_sync``, ``read_version``/``holders_of``/``check_invariants``
  via ``CacheHierarchy.engine_sync``.

Sync is a snapshot refresh, never a hand-back: mutating the Python
dicts afterwards does not reach the C arrays.  That is why
installation is refused once a Python kernel has closed over the
dicts (``h._walk_issued``), mirroring the filter's ``_kernel_issued``
guard.

Eligibility is *exact-semantics* eligibility: every refusal below is a
configuration whose generic-engine behaviour the C port does not
reproduce bit-for-bit (open-page DRAM, subclassed writeback arithmetic,
replacement policies without the stamp protocol, non-MT RNGs).  The
refusal is a documented config-local fallback to the specialized
kernel, not an approximation.

Monitor side effects stay in Python.  The walk classifies the attached
monitor once at install time:

* **kind 0** — no monitor: the walk never leaves C;
* **kind 1** — PiPoMonitor over a C-eligible Auto-Cuckoo filter with
  ``needs_all_evictions`` False: the Query/insert runs inline in C
  against the *shared* ``acf_state`` (same struct the filter's own C
  kernel uses), and Python is called back only for captures that must
  publish alarms or record captured lines, and for tagged evictions
  (the pEvict/prefetch tail);
* **kind 2** — any other monitor: ``on_access``/``on_llc_eviction``
  come back through callbacks per event (bit-exact, slower).

Callbacks only schedule events (alarm subscribers and response
policies go through the event queue — pinned by the conformance
suite), so they never re-enter the walk synchronously.

Scheduler
---------
:meth:`CWalkState.run_cores` runs ``MulticoreSystem.run``'s
min-(time, core id) interleave itself in C (``cw_run``) when every
live core is fed by record chunks and bound, unthrottled, to this
walk's kernel (:meth:`CWalkState.can_schedule`).  ``cw_run`` reads
one record format, the packed ``array('q')`` of
:mod:`repro.workloads.base`: the chunks ``batch_stream`` yields
(C-emitted by :mod:`repro.engine.c_emit` for the synthetic
archetypes) are read in place, and only tuple chunks (scripted and
test streams) are packed here, by :func:`_record_array`.
Control comes back to Python when a core's chunk runs out, when the
next op would reach the earliest pending event, and after any walk
callback (it may have scheduled an event); every core's state is
copied back to its :class:`~repro.cpu.core.Core` each time, so event
actions and the Python loop see exactly what they would have seen.
"""

from __future__ import annotations

import weakref
from array import array

from repro.cache.coherence import CoherenceViolation
from repro.cache.line import CacheLine
from repro.cache.replacement import ReplacementPolicy
from repro.engine import c_backend
from repro.engine.specialize import _supported, filter_supported
from repro.memory.controller import MemoryController
from repro.memory.dram import DramModel
from repro.obs.telemetry import current_telemetry
from repro.workloads.base import pack_records

#: Aggregate counters the C walk exports to an attached telemetry sink
#: — read off the ``cw_hier`` struct as deltas in **one** boundary
#: crossing per batch / sync (PERFORMANCE.md rules 16/17), never per
#: event.  Names align with the specialized kernel's hot-block slots
#: (``specialize.KERNEL_COUNTER_NAMES``); ``filter_hits`` is not
#: C-observable and simply stays absent under the C walk.
_TELE_EXPORTS = (
    "engine.llc_fills",
    "engine.llc_evictions",
    "engine.monitor_probes",
    "engine.captures",
    "engine.kick_steps",
)

_U64 = (1 << 64) - 1
_EMPTY = 0xFFFFFFFFFFFFFFFF
_I64_MAX = (1 << 63) - 1

#: ``cw_run`` return codes (see ``_walk_src``).
_RUN_DONE, _RUN_CHUNK, _RUN_EVENT = 0, 1, 2


def _record_array(chunk):
    """A chunk of ``(compute, op, addr)`` tuples (scripted and test
    streams) as the packed ``array('q')`` ``cw_run`` reads; None when
    a record does not fit the packed layout (the core then stays on
    the Python loop, which handles or raises on it exactly as
    before)."""
    try:
        return pack_records(chunk)
    except (TypeError, ValueError, OverflowError):
        return None


#: One-shot ``@ffi.def_extern`` registration (process-wide, like the
#: extension itself).
_REGISTERED = False


def _register_callbacks(ffi) -> None:
    global _REGISTERED
    if _REGISTERED:
        return
    _REGISTERED = True

    @ffi.def_extern()
    def cw_cb_access(ctx, line_addr, now):
        state = ffi.from_handle(ctx)
        try:
            return 1 if state.monitor.on_access(line_addr, now) else 0
        except BaseException as exc:  # noqa: BLE001 — crosses the C boundary
            state.exc = exc
            return -1

    @ffi.def_extern()
    def cw_cb_capture(ctx, line_addr, now):
        state = ffi.from_handle(ctx)
        try:
            monitor = state.monitor
            captured = monitor.captured_lines
            if captured is not None:
                captured.add(line_addr)
            alarms = monitor.alarms
            if alarms is not None:
                # ALARM_CAPTURE — same tuple the Python engines publish.
                alarms.publish(0, now, line_addr, -1, 0)
            return 0
        except BaseException as exc:  # noqa: BLE001
            state.exc = exc
            return -1

    @ffi.def_extern()
    def cw_cb_evict(ctx, vaddr, vword, vstamp, now, vword_out):
        state = ffi.from_handle(ctx)
        try:
            victim = CacheLine.from_packed(vaddr, vword, vstamp)
            state.monitor.on_llc_eviction(victim, now)
            vword_out[0] = victim.to_word()
            return 0
        except BaseException as exc:  # noqa: BLE001
            state.exc = exc
            return -1


def _eligible(h) -> bool:
    """Structural preconditions for the exact C port (see module
    docstring: every check guards a behaviour the C code inlines)."""
    if h._walk_issued:
        # A specialized Python kernel already closed over the dicts;
        # moving authority into C would fork the state.
        return False
    if not _supported(h):
        return False
    mc = h.mc
    # The channel arithmetic (max(now, free) + burst, posted
    # writebacks) is inlined; a subclassed writeback or an open-page
    # model would silently diverge.
    if type(mc).writeback is not MemoryController.writeback:
        return False
    if type(mc.dram) is not DramModel or mc.dram.open_page:
        return False
    slices = h._llc_slices
    slref = slices[0]
    if not slref._victim_is_min_stamp:
        # Only the lru_rand protocol is ported: pool_size smallest
        # stamps, one MT19937 _randbelow draw per eviction.  The u64
        # victim-selection bitmask bounds ways at 64.
        pool = getattr(slref.policy, "pool_size", None)
        if pool is None or slref.ways < pool or slref.ways > 64:
            return False
        for sl in slices:
            policy = sl.policy
            if (
                type(policy).__name__ != "LruRandomPolicy"
                or getattr(policy, "pool_size", None) != pool
            ):
                return False
            rng_state = policy._rng.getstate()
            if rng_state[0] != 3 or len(rng_state[1]) != 625:
                return False
    if not slref._touch_stamps:
        # Non-stamping policies must have a no-op on_touch (FIFO);
        # anything overriding it observes hits the C walk won't report.
        for sl in slices:
            if type(sl.policy).on_touch is not ReplacementPolicy.on_touch:
                return False
    return True


def install(h) -> bool:
    """Route the full cache walk of ``h`` through C.

    Returns False — leaving the hierarchy untouched — when the
    configuration is ineligible or the extension cannot be built.
    Idempotent (True when already installed).
    """
    if h._c_state is not None:
        return True
    if not _eligible(h):
        return False
    pair = c_backend._load_lib()
    if pair is None:
        return False
    ffi, lib = pair
    _register_callbacks(ffi)
    state = CWalkState(ffi, lib, h)
    h._c_state = state
    for cobj in state.cache_objs:
        cobj._c_sync = state.sync_all
    return True


class CWalkState:
    """Owner of one hierarchy's C-side arrays and the sync machinery.

    Keeps every cffi buffer alive for the lifetime of the install; the
    C-malloc'd ``_memory_versions`` map is released by a finalizer.
    """

    def __init__(self, ffi, lib, h):
        self.ffi = ffi
        self.lib = lib
        self.hier = h
        #: True when C state may be ahead of the Python counters.
        self.dirty = False
        #: True when the storage mirror lags the counters (set by
        #: :meth:`sync`, cleared by :meth:`sync_all`).
        self.lines_stale = False
        #: Exception raised inside a callback, re-raised by the wrapper.
        self.exc = None

        monitor = h.monitor
        self.monitor = monitor
        # Telemetry follows the alarm-bus contract: the sink attached
        # *now* (install time) is the one this walk exports to, its
        # identity joins the install key, and attaching a different
        # sink under a live C state is refused by ``hierarchy_access``.
        self.telemetry = current_telemetry()
        self.monitor_key = (
            id(monitor),
            id(getattr(monitor, "alarms", None)),
            id(self.telemetry),
        )
        kind, capture_cb, thresh, flt = self._classify(monitor)
        self.flt = flt
        # Keep the shared filter state (and its buffers) alive even if
        # the filter object is later released by the monitor.
        self._flt_state = flt._c_state if flt is not None else None

        C = h.num_cores
        slices = h._llc_slices
        S = len(slices)
        cache_objs = [*h.l1d, *h.l1i, *h.l2, *slices]
        self.cache_objs = cache_objs

        st = ffi.new("cw_hier *")
        bufs = []
        carr = ffi.new("cw_cache[]", len(cache_objs))
        bufs.append(carr)
        for i, cobj in enumerate(cache_objs):
            ways = cobj.ways
            nsets = cobj._set_mask + 1
            n = nsets * ways
            tags = ffi.new("uint64_t[]", n)
            ffi.buffer(tags)[:] = b"\xff" * (n * 8)
            words = ffi.new("uint64_t[]", n)
            stamps = ffi.new("uint64_t[]", n)
            counts = ffi.new("uint16_t[]", nsets)
            cmap = cobj._map
            for si, sdict in enumerate(cobj._sets):
                base = si * ways
                counts[si] = len(sdict)
                w = 0
                # Slot order mirrors dict insertion order; victim
                # selection only reads stamps (unique per cache), so
                # the packing order is unobservable.
                for laddr, stamp in sdict.items():
                    tags[base + w] = laddr
                    words[base + w] = cmap[laddr]
                    stamps[base + w] = stamp
                    w += 1
            cc = carr[i]
            cc.tags = tags
            cc.words = words
            cc.stamps = stamps
            cc.counts = counts
            cc.stamp = cobj._stamp
            cc.hits = cobj.hits
            cc.misses = cobj.misses
            cc.evictions = cobj.evictions
            cc.set_mask = cobj._set_mask
            cc.ways = ways
            bufs += [tags, words, stamps, counts]
        st.caches = carr

        st.num_cores = C
        st.num_slices = S
        st.line_bits = h._line_bits
        st.l1_lat = h.l1_latency
        st.l2_lat = h.l2_latency
        st.llc_lat = h.llc_latency
        st.dfp = h.dirty_forward_penalty
        st.llc_set_bits = h._llc_set_bits
        # num_slices == 1 keeps Python's shift-by-64 out of C (UB);
        # the C slice index short-circuits to 0 in that case.
        st.llc_slice_shift = h._llc_slice_shift if S > 1 else 0
        slref = slices[0]
        st.llc_touch = 1 if slref._touch_stamps else 0
        if slref._victim_is_min_stamp:
            st.llc_victim_rand = 0
            st.pool_size = 0
            st.rng = ffi.NULL
        else:
            pool = slref.policy.pool_size
            st.llc_victim_rand = 1
            st.pool_size = pool
            rng = ffi.new("cw_mt[]", S)
            bufs.append(rng)
            for i, sl in enumerate(slices):
                mt_state = sl.policy._rng.getstate()[1]
                rng[i].mt = list(mt_state[:624])
                rng[i].mti = mt_state[624]
            st.rng = rng
        st.write_counter = h._write_counter

        mc = h.mc
        st.channel_free_at = mc._channel_free_at
        st.burst_cycles = mc.burst_cycles
        st.dram_latency = mc.dram.latency
        st.total_queue_wait = mc.total_queue_wait
        st.demand_fetches = mc.demand_fetches
        st.prefetch_fetches = mc.prefetch_fetches
        st.writebacks = mc.writebacks

        stats = h.stats
        for name in _STAT_FIELDS:
            setattr(st, "s_" + name, getattr(stats, name))
        per_core = ffi.new("uint64_t[]", list(stats.per_core_accesses))
        bufs.append(per_core)
        st.per_core = per_core

        st.mon_kind = kind
        st.needs_all = (
            1 if (monitor is not None
                  and getattr(monitor, "needs_all_evictions", True))
            else 0
        )
        st.capture_cb = capture_cb
        st.thresh = thresh
        st.acf = flt._c_state.st if flt is not None else ffi.NULL
        st.m_accesses = 0
        st.m_captures = 0
        self._last_m = 0
        self._last_c = 0

        self._handle = ffi.new_handle(self)
        st.ctx = self._handle
        # cw_hier.memver starts zeroed (cap 0); the first put allocates.
        for key, val in h._memory_versions.items():
            if lib.cw_map_put(st, key & _U64, val & _U64) < 0:
                raise MemoryError("memory-version map allocation failed")

        self.st = st
        self._bufs = bufs
        # The memver arrays are C-malloc'd (they must grow unboundedly
        # over a run); everything else is ffi-owned via _bufs.
        self._finalizer = weakref.finalize(self, lib.cw_hier_free, st)

        # Telemetry baseline: the struct was seeded with the Python
        # counters' current values, and only *deltas* from here on are
        # this walk's contribution.
        self._tele_last = self._tele_values()

        self._build_wrappers()

    # ------------------------------------------------------------------

    @staticmethod
    def _classify(monitor):
        """(mon_kind, capture_cb, thresh, flt) — see module docstring."""
        if monitor is None:
            return 0, 0, 0, None
        if (
            type(monitor).__name__ == "PiPoMonitor"
            and not getattr(monitor, "needs_all_evictions", True)
            and filter_supported(monitor.filter)
        ):
            flt = monitor.filter
            if flt._c_state is not None or c_backend.install(flt):
                capture_cb = (
                    1
                    if (monitor.captured_lines is not None
                        or monitor.alarms is not None)
                    else 0
                )
                return 1, capture_cb, monitor.filter.security_threshold, flt
        return 2, 0, 0, None

    def _build_wrappers(self):
        ffi = self.ffi
        lib = self.lib
        st = self.st
        c_access = lib.cw_access
        c_flush = lib.cw_clflush
        c_prefetch = lib.cw_prefetch_fill
        c_many = lib.cw_access_many

        def kernel(core, op, addr, now=0, _c=c_access, _st=st, _self=self):
            latency = _c(_st, core, op, addr & _U64, now)
            _self.dirty = True
            if latency < 0:
                _self._raise()
            return latency

        def clflush(core, addr, now=0, _c=c_flush, _st=st, _self=self):
            latency = _c(_st, core, addr & _U64, now)
            _self.dirty = True
            if latency < 0:
                _self._raise()
            return latency

        def prefetch_fill(line_addr, now, tag=True,
                          _c=c_prefetch, _st=st, _self=self):
            r = _c(_st, line_addr & _U64, now, 1 if tag else 0)
            _self.dirty = True
            if r < 0:
                _self._raise()
            return bool(r)

        def access_many(requests, now=0, _c=c_many, _st=st, _self=self):
            n = len(requests)
            cores = ffi.new("int32_t[]", n)
            ops = ffi.new("int32_t[]", n)
            addrs = ffi.new("uint64_t[]", n)
            for i, (core, op, addr) in enumerate(requests):
                cores[i] = core
                ops[i] = op
                addrs[i] = addr & _U64
            lat_out = ffi.new("int64_t[]", n)
            bad = _c(_st, cores, ops, addrs, n, now, lat_out)
            _self.dirty = True
            if bad >= 0:
                _self._raise()
            return list(ffi.unpack(lat_out, n))

        if self.telemetry is not None:
            # One extra Python-side fold per *batch* — the C call
            # count is unchanged, honouring the one-crossing rule.
            base_many = access_many

            def access_many(requests, now=0, _base=base_many, _self=self):
                out = _base(requests, now)
                _self._export_telemetry()
                return out

        self.kernel = kernel
        self.clflush = clflush
        self.prefetch_fill = prefetch_fill
        self.access_many = access_many

    # ------------------------------------------------------------------
    # Scheduler (see module docstring)

    def can_schedule(self, cores) -> bool:
        """True when ``cw_run`` may drive ``cores``: every live core is
        batch-fed, sits at its own index (within the walk's core
        count), and calls this walk's kernel directly (a throttle
        wrapper or a foreign binding keeps the whole run on the Python
        loop)."""
        kernel = self.kernel
        return len(cores) <= self.st.num_cores and all(
            core.finished
            or (core._batches is not None and core._access is kernel
                and core.core_id == index)
            for index, core in enumerate(cores)
        )

    def run_cores(self, cores, events, budget, completion) -> list:
        """Run the scheduler loop of ``MulticoreSystem.run`` in C.

        ``cores`` have had their first ``advance``; ``budget`` is the
        per-core instruction budget (None for unbounded) and
        ``completion`` maps core id to completion time, updated as
        cores finish.  Returns the cores still running when the rest
        of the run must stay on the Python loop (empty when every core
        finished here).
        """
        ffi = self.ffi
        n = len(cores)
        slots = ffi.new("cw_core[]", n)
        which = ffi.new("int *")
        run = self.lib.cw_run
        st = self.st
        limit = _I64_MAX if budget is None else budget
        # Per core: the cffi view keeping its current chunk's record
        # array alive (None: convert ``core._chunk`` on the next load).
        views = [None] * n
        while True:
            for i, core in enumerate(cores):
                slot = slots[i]
                if core.finished:
                    slot.active = 0
                    continue
                if views[i] is None:
                    records = core._chunk
                    if type(records) is not array:
                        records = _record_array(records)
                    if records is None:
                        return [c for c in cores if not c.finished]
                    views[i] = slot.recs = ffi.from_buffer(
                        "int64_t[]", records)
                    slot.n = core._chunk_len
                op = core._pending_op
                slot.pos = core._chunk_pos
                slot.time = core.time
                slot.instructions = core.instructions
                slot.memory_ops = core.memory_ops
                slot.last_latency = core._last_latency
                slot.pending_op = -1 if op is None else op
                slot.pending_addr = core._pending_addr
                slot.active = 1
            next_event = events.next_time()
            code = run(st, slots, n, limit, next_event is not None,
                       next_event or 0, which)
            self.dirty = True
            for i, core in enumerate(cores):
                if core.finished:
                    continue
                slot = slots[i]
                op = slot.pending_op
                core.time = slot.time
                core.instructions = slot.instructions
                core.memory_ops = slot.memory_ops
                core._last_latency = slot.last_latency
                core._pending_op = None if op < 0 else op
                core._pending_addr = slot.pending_addr
                core._chunk_pos = slot.pos
                if not slot.active:
                    core.finished = True
                    completion[core.core_id] = core.time
            if code == _RUN_DONE:
                return []
            if code < 0:
                self._raise()
            core = cores[which[0]]
            if code == _RUN_EVENT:
                events.run_until(core.time)
            elif code == _RUN_CHUNK:
                views[which[0]] = None
                if not core.advance():
                    completion[core.core_id] = core.time
            if not self.can_schedule(cores):
                return [c for c in cores if not c.finished]

    def _tele_values(self) -> tuple[int, int, int, int, int]:
        """Current struct-side values of the exported counters (one
        cheap cffi read each; no C call)."""
        st = self.st
        kicks = (
            st.acf.total_relocations if st.acf != self.ffi.NULL else 0
        )
        return (
            st.s_llc_misses,
            st.s_llc_evictions,
            st.m_accesses,
            st.m_captures,
            kicks,
        )

    def _export_telemetry(self) -> None:
        """Fold counter deltas since the last export into the sink."""
        tele = self.telemetry
        if tele is None:
            return
        current = self._tele_values()
        for name, now_v, last_v in zip(
            _TELE_EXPORTS, current, self._tele_last
        ):
            if now_v != last_v:
                tele.count(name, now_v - last_v)
        self._tele_last = current

    def _raise(self):
        """Re-raise the exact exception the generic engine would have."""
        st = self.st
        err = st.err
        addr = st.err_addr
        cidx = st.err_cache
        st.err = 0
        st.err_cache = 0
        st.err_addr = 0
        if err == 100:
            exc = self.exc
            self.exc = None
            if exc is not None:
                raise exc
            raise RuntimeError("C walk callback failed without exception")
        if err == 1:
            name = self.cache_objs[cidx].name
            raise ValueError(
                f"{name}: duplicate insert of line {addr:#x}"
            )
        if err == 2:
            raise CoherenceViolation(
                f"inclusion broken: L2 victim {addr:#x} absent from LLC"
            )
        if err == 3:
            raise CoherenceViolation(
                f"inclusion broken: private line {addr:#x} "
                "absent from LLC during upgrade"
            )
        if err == 4:
            raise MemoryError("memory-version map allocation failed")
        if err == 5:
            raise RuntimeError(
                f"prefetched line {addr:#x} vanished mid-fill"
            )
        raise RuntimeError(f"C cache walk failed (err={err})")

    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Refresh the counters a result reads (the run-end sync).

        ``AccessStats`` and ``per_core_accesses``, each cache's
        ``_stamp``/``hits``/``misses``/``evictions``, the
        memory-controller scalars and ``_write_counter``, and the
        monitor/filter counters; then the telemetry export.  The
        storage mirror is left stale for :meth:`sync_all`.  Cheap when
        nothing ran since the last sync.  Read-only from the C side's
        perspective: C stays authoritative afterwards.
        """
        if not self.dirty:
            return
        self.dirty = False
        self.lines_stale = True
        st = self.st
        carr = st.caches
        for i, cobj in enumerate(self.cache_objs):
            cc = carr[i]
            cobj._stamp = cc.stamp
            cobj.hits = cc.hits
            cobj.misses = cc.misses
            cobj.evictions = cc.evictions
        h = self.hier
        stats = h.stats
        for name in _STAT_FIELDS:
            setattr(stats, name, getattr(st, "s_" + name))
        stats.per_core_accesses[:] = self.ffi.unpack(st.per_core,
                                                     st.num_cores)
        h._write_counter = st.write_counter
        mc = h.mc
        mc._channel_free_at = st.channel_free_at
        mc.total_queue_wait = st.total_queue_wait
        mc.demand_fetches = st.demand_fetches
        mc.prefetch_fetches = st.prefetch_fetches
        mc.writebacks = st.writebacks
        if st.mon_kind == 1:
            # Inline-monitor counters: deltas for the additive Python
            # counters (the monitor/filter may also be driven from
            # Python between walks), absolutes for the insert-side
            # scalars mirrored off the shared acf struct.
            monitor = self.monitor
            flt = self.flt
            da = st.m_accesses - self._last_m
            dc = st.m_captures - self._last_c
            self._last_m = st.m_accesses
            self._last_c = st.m_captures
            monitor.stats.accesses += da
            monitor.stats.captures += dc
            flt.total_accesses += da
            acf = st.acf
            flt.valid_count = acf.valid_count
            flt.autonomic_deletions = acf.autonomic_deletions
            flt.total_relocations = acf.total_relocations
            flt._lcg = acf.lcg
        # Scalar-kernel runs reach the sink here: sync is the batch
        # boundary the introspection paths already pay for.
        self._export_telemetry()

    def sync_all(self) -> None:
        """:meth:`sync`, then the storage mirror: every
        ``_map``/``_sets`` dict (in place), ``_memory_versions`` and
        the ``lru_rand`` RNG states.  The introspection entry points
        call this; the lines are rebuilt only when C ran since the
        last rebuild.
        """
        self.sync()
        if not self.lines_stale:
            return
        self.lines_stale = False
        ffi = self.ffi
        st = self.st
        unpack = ffi.unpack
        carr = st.caches
        for i, cobj in enumerate(self.cache_objs):
            cc = carr[i]
            ways = cc.ways
            n = (cc.set_mask + 1) * ways
            tags = unpack(cc.tags, n)
            words = unpack(cc.words, n)
            stamps = unpack(cc.stamps, n)
            cmap = cobj._map
            cmap.clear()
            sets = cobj._sets
            for sdict in sets:
                sdict.clear()
            for j in range(n):
                tag = tags[j]
                if tag == _EMPTY:
                    continue
                cmap[tag] = words[j]
                sets[j // ways][tag] = stamps[j]
        h = self.hier
        memver = h._memory_versions
        memver.clear()
        count = st.memver.count
        if count:
            keys = ffi.new("uint64_t[]", count)
            vals = ffi.new("uint64_t[]", count)
            self.lib.cw_map_items(st, keys, vals)
            memver.update(zip(unpack(keys, count), unpack(vals, count)))
        if st.llc_victim_rand:
            for i, sl in enumerate(h._llc_slices):
                mt = unpack(st.rng[i].mt, 624)
                sl.policy._rng.setstate(
                    (3, tuple(mt) + (st.rng[i].mti,), None)
                )


#: AccessStats counter fields mirrored into ``cw_hier.s_*`` (order
#: matches the struct; ``per_core_accesses`` is the separate array).
_STAT_FIELDS = (
    "writes",
    "ifetches",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "llc_hits",
    "llc_misses",
    "llc_evictions",
    "l2_evictions",
    "back_invalidations",
    "writebacks_to_memory",
    "upgrades",
    "dirty_forwards",
    "prefetch_fills",
    "prefetch_skipped",
    "flushes",
    "flush_hits",
    "flush_writebacks",
    "flush_back_invalidations",
    "total_latency",
)
