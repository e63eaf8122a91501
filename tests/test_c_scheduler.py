"""The C multicore scheduler against the Python scheduler loop.

Under the ``c`` engine, ``MulticoreSystem.run`` hands batch-fed cores
to ``cw_run`` (``CWalkState.run_cores``), which interleaves them in C
and returns to Python only for new record chunks, due events and
walk callbacks.  That is admissible only if it is invisible, so every
stream here runs three times:

* ``python`` engine — the reference walk on the Python loop;
* ``c`` engine on the C scheduler;
* ``c`` engine on the Python loop (each core's access binding wrapped
  in a pass-through, which the scheduler refuses);

and the results must agree: the ``SimulationResult``, every core's
state, the hierarchy's tables, stamps and LLC RNG streams, the
filter, the monitor, and (between the two ``c`` runs, which export
the same counter set) the telemetry counts.

The explicit fallback cases — a generator-fed core, a core throttled
by an event mid-run, an ineligible hierarchy, a record that does not
fit the C record array — must keep the Python loop and the same
results.
"""

import dataclasses
import functools
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheLevelConfig, FilterConfig, SystemConfig
from repro.core.pipomonitor import PiPoMonitor
from repro.cpu.core import Core
from repro.cpu.multicore import MulticoreSystem
from repro.engine import available_engines
from repro.engine.c_cache import CWalkState
from repro.obs.telemetry import Telemetry, attached
from repro.utils.events import EventQueue
from repro.workloads.base import ScriptedWorkload

pytestmark = pytest.mark.skipif(
    "c" not in available_engines(), reason="C backend not buildable"
)

#: Op field of a record: pure compute, READ, WRITE, IFETCH, FLUSH.
_OPS = (None, 0, 1, 2, 3)


def _config(num_cores: int, prefetch_delay: int, llc_policy="lru_rand"):
    """A tiny system: evictions, back-invalidations and filter
    captures within a few hundred records."""
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheLevelConfig(1024, 2, 2),
        l2=CacheLevelConfig(4 * 1024, 4, 18),
        llc=CacheLevelConfig(8 * 1024, 4, 35),
        llc_slices=2,
        llc_policy=llc_policy,
        filter=FilterConfig(num_buckets=16, entries_per_bucket=2,
                            security_threshold=1),
        prefetch_delay=prefetch_delay,
    )


@contextmanager
def _engine(name: str):
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = name
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = previous


@contextmanager
def _scheduler_spy():
    """Record what every ``run_cores`` call handed back (the cores
    left for the Python loop)."""
    calls = []
    original = CWalkState.run_cores

    def spy(self, *args):
        rest = original(self, *args)
        calls.append(len(rest))
        return rest

    CWalkState.run_cores = spy
    try:
        yield calls
    finally:
        CWalkState.run_cores = original


def _chunks(records, sizes):
    """Split ``records`` into chunks cycling through ``sizes``."""
    pos = 0
    turn = 0
    while pos < len(records):
        size = sizes[turn % len(sizes)]
        turn += 1
        yield records[pos:pos + size]
        pos += size


def _simulate(engine, streams, sizes, budget, delay, *, monitor=True,
              telemetry=False, python_loop=False, generator_cores=(),
              events_at=(), llc_policy="lru_rand", seed=5):
    """Assemble and run one system; returns (outcome, run_cores calls)."""
    config = _config(len(streams), delay, llc_policy)
    sink = Telemetry() if telemetry else None
    with _engine(engine), attached(sink), _scheduler_spy() as calls:
        events = EventQueue()
        h = config.build_hierarchy(seed=seed)
        mon = None
        if monitor:
            mon = PiPoMonitor(config.filter.build(seed=seed + 1), events,
                              prefetch_delay=delay,
                              track_captured_lines=True)
            mon.attach(h)
        cores = []
        for cid, records in enumerate(streams):
            workload = ScriptedWorkload(records)
            if cid in generator_cores:
                core = Core(cid, workload.generator(cid, seed), h)
            else:
                assert workload.batchable
                core = Core(cid, None, h,
                            batches=_chunks(workload.records, sizes[cid]))
            if python_loop:
                core._access = functools.partial(core._access)
            cores.append(core)
        system = MulticoreSystem(h, cores, events)
        for time, action in events_at:
            events.schedule(time, functools.partial(action, system))
        result = system.run(max_instructions_per_core=budget)
        outcome = _outcome(system, result, mon, sink)
    return outcome, calls


def _outcome(system, result, monitor, sink):
    h = system.hierarchy
    h.engine_sync()
    caches = [
        (c._map, c._sets, c._stamp, c.hits, c.misses, c.evictions)
        for c in (*h.l1d, *h.l1i, *h.l2, *h.llc.slices)
    ]
    rngs = [
        s.policy._rng.getstate() for s in h.llc.slices
        if getattr(s.policy, "_rng", None) is not None
    ]
    outcome = {
        "result": (result.core_times, result.core_instructions,
                   result.core_memory_ops, dataclasses.asdict(result.stats)),
        "cores": [
            (c.time, c.instructions, c.memory_ops, c._last_latency,
             c.finished) for c in system.cores
        ],
        "caches": caches,
        "rngs": rngs,
        "memory_versions": dict(h._memory_versions),
        "memory_controller": (h.mc._channel_free_at, h.mc.demand_fetches,
                              h.mc.prefetch_fetches, h.mc.writebacks),
    }
    if monitor is not None:
        outcome["monitor"] = dataclasses.asdict(monitor.stats)
        outcome["filter"] = monitor.filter.snapshot()
        outcome["captured"] = monitor.captured_lines
    if sink is not None:
        outcome["telemetry"] = sink.state()["counters"]
    return outcome


def _without_telemetry(outcome):
    return {k: v for k, v in outcome.items() if k != "telemetry"}


_lines = st.one_of(
    st.integers(min_value=0, max_value=15),      # shared and hot
    st.integers(min_value=0, max_value=255),     # conflict misses
)


@st.composite
def _records(draw):
    op = draw(st.sampled_from(_OPS))
    compute = draw(st.integers(min_value=0, max_value=12))
    if op is None:
        return compute, None, 0
    return compute, op, draw(_lines) * 64


@st.composite
def _stream(draw):
    """A record loop replayed a few times: the reuse (after flushes
    and conflict evictions) is what captures lines and schedules the
    monitor's delayed prefetches."""
    body = draw(st.lists(_records(), min_size=1, max_size=24))
    return body * draw(st.integers(min_value=1, max_value=12))


_streams = st.lists(_stream(), min_size=1, max_size=4)


@given(
    streams=_streams,
    size_seq=st.lists(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                 max_size=4),
        min_size=4, max_size=4,
    ),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=600)),
    delay=st.integers(min_value=1, max_value=40),
    monitor=st.booleans(),
    telemetry=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_c_scheduler_matches_python_loop(streams, size_seq, budget, delay,
                                         monitor, telemetry):
    kwargs = dict(monitor=monitor, telemetry=telemetry)
    args = (streams, size_seq, budget, delay)
    reference, calls = _simulate("python", *args, **kwargs)
    assert calls == []
    scheduled, calls = _simulate("c", *args, **kwargs)
    assert calls == [0]
    looped, calls = _simulate("c", *args, python_loop=True, **kwargs)
    assert calls == []
    assert scheduled == looped
    assert _without_telemetry(scheduled) == _without_telemetry(reference)


def _busy_streams(cores=3, records=300):
    """Deterministic streams with enough sharing and conflict traffic
    to capture lines and schedule delayed prefetches."""
    streams = []
    for cid in range(cores):
        stream = []
        for i in range(records):
            line = (i * (cid + 3) * 7) % 96 if i % 3 else i % 24
            op = (0, 1, 2, 0, 3)[(i + cid) % 5] if i % 11 else None
            stream.append((i % 4, op, 0 if op is None else line * 64))
        streams.append(stream)
    return streams


def test_events_and_callbacks_return_to_python():
    """The busy streams really exercise the event path: delayed
    prefetches fire between C-scheduled ops."""
    streams = _busy_streams()
    sizes = [[5, 17, 3]] * 3
    reference, _ = _simulate("python", streams, sizes, None, 3)
    scheduled, calls = _simulate("c", streams, sizes, None, 3)
    assert calls == [0]
    assert reference["monitor"]["prefetches_issued"] > 0
    assert scheduled == reference


def test_event_due_at_an_op_time_fires_before_the_op():
    """An event due exactly when a core's op reaches the hierarchy
    fires first: here it flushes the line core 0 is about to read, so
    that read misses instead of hitting core 1's LLC copy."""
    line = 7 * 64
    streams = [[(1000, None, 0), (0, 0, line)], [(0, 0, line)]]
    flush = [(1000, lambda system: system.hierarchy.clflush(1, line, 1000))]
    reference, _ = _simulate("python", streams, [[2], [2]], None, 3,
                             events_at=flush)
    scheduled, calls = _simulate("c", streams, [[2], [2]], None, 3,
                                 events_at=flush)
    assert calls == [0]
    assert reference["result"][3]["llc_misses"] == 2
    assert scheduled == reference


def test_generator_core_keeps_the_python_loop():
    streams = _busy_streams()
    sizes = [[64]] * 3
    reference, _ = _simulate("python", streams, sizes, 500, 3,
                             generator_cores=(1,))
    outcome, calls = _simulate("c", streams, sizes, 500, 3,
                               generator_cores=(1,))
    assert calls == []
    assert outcome == reference


def test_core_throttled_mid_run_falls_back():
    """An event throttles core 1 while the C scheduler runs: control
    must come back, and the rest of the run continues on the Python
    loop with the penalty applied."""
    streams = _busy_streams()
    sizes = [[40]] * 3
    throttle = [(600, lambda system: system.cores[1].throttle(25))]
    reference, _ = _simulate("python", streams, sizes, None, 3,
                             events_at=throttle)
    outcome, calls = _simulate("c", streams, sizes, None, 3,
                               events_at=throttle)
    assert len(calls) == 1 and calls[0] > 0
    assert outcome == reference
    unthrottled, _ = _simulate("c", streams, sizes, None, 3)
    assert unthrottled["result"] != outcome["result"]


def test_ineligible_hierarchy_keeps_the_python_loop():
    """Tree-PLRU LLCs are refused by the C walk, so no scheduler."""
    streams = _busy_streams()
    sizes = [[32]] * 3
    reference, _ = _simulate("python", streams, sizes, None, 3,
                             llc_policy="plru")
    outcome, calls = _simulate("c", streams, sizes, None, 3,
                               llc_policy="plru")
    assert calls == []
    assert outcome == reference


def test_unconvertible_record_falls_back():
    """A line-aligned address past int64 fits the scripted records
    but not the C record array: that core's chunk hands the run back
    to the Python loop, which serves it exactly as before."""
    streams = _busy_streams(cores=2, records=80)
    streams[1][50] = (1, 0, 1 << 63)
    sizes = [[16]] * 2
    reference, _ = _simulate("python", streams, sizes, None, 3)
    outcome, calls = _simulate("c", streams, sizes, None, 3)
    assert len(calls) == 1 and calls[0] > 0
    assert outcome == reference
