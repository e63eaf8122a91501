"""C workload emission against the Python reference emitter.

Under the ``c`` engine, ``_SyntheticWorkload.batch_stream`` fills its
packed chunks in C (``cw_emit_fill``), in lockstep with the stream's
``random.Random``: Python seeds, C draws.  ``record_chunks`` stays the
reference, so every stream here is emitted both ways and compared
packed record for packed record:

* all 13 SPEC profiles at scaled and full geometry, 20 000 records;
* Hypothesis streams of every archetype over random geometry, seeds,
  core ids and chunk sizes — including the edges: working sets of one
  line, bounds just past a power of two (so ``randrange`` redraws),
  ``accesses_per_line=1`` and ``conflict_lines=0``.

A whole Fig. 8 mix under ``c`` (C emission, C scheduler) must match
the ``python`` engine bit for bit, and its synthetic cores must never
go through the tuple packer of the scheduler.  So must the runs whose
packed cores end up on the Python loop: beside a generator-fed core
from the start, or after a throttle mid-run.
"""

import dataclasses
import itertools
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.system import build_system, run_workloads
from repro.engine import available_engines, c_cache
from repro.engine.c_emit import c_batch_stream
from repro.experiments.common import (
    PERFORMANCE_SCALE_FACTOR,
    scaled_mix_workloads,
    scaled_system_config,
)
from repro.workloads.base import ScriptedWorkload, pack_record
from repro.workloads.spec import BENCHMARK_PROFILES, SpecWorkload
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)

pytestmark = pytest.mark.skipif(
    "c" not in available_engines(), reason="C backend not buildable"
)

LINE = 64


@pytest.fixture(autouse=True)
def _c_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "c")


def _reference(workload, core_id, seed, n, chunk=1000):
    """The first ``n`` records of ``record_chunks``, packed."""
    records = itertools.chain.from_iterable(
        workload.record_chunks(core_id, seed, chunk)
    )
    return [pack_record(*r) for r in itertools.islice(records, n)]


def _emitted(workload, core_id, seed, n, chunk):
    """The first ``n`` records of the C-emitted ``batch_stream``."""
    stream = c_batch_stream(workload, core_id, seed, chunk)
    assert stream is not None, "C emission did not apply"
    out = []
    for packed in stream:
        assert type(packed) is array and len(packed) == chunk
        out.extend(packed)
        if len(out) >= n:
            return out[:n]


def _scaled(profile):
    """The profile as ``scaled_mix_workloads`` shrinks it."""
    factor = PERFORMANCE_SCALE_FACTOR
    return replace(
        profile,
        working_set_bytes=max(64 * 1024, profile.working_set_bytes // factor),
        hot_bytes=(None if profile.hot_bytes is None
                   else max(8 * 1024, profile.hot_bytes // factor)),
    )


@pytest.mark.parametrize("geometry", ["scaled", "full"])
@pytest.mark.parametrize("name", sorted(BENCHMARK_PROFILES))
def test_profiles_match_reference(name, geometry):
    profile = BENCHMARK_PROFILES[name]
    stride = 64 * 1024
    if geometry == "scaled":
        profile = _scaled(profile)
        stride //= PERFORMANCE_SCALE_FACTOR
    workload = SpecWorkload(profile, stride)
    n = 20_000
    expected = _reference(workload, 2, 1234, n)
    assert _emitted(workload._inner, 2, 1234, n, 1021) == expected
    got = list(itertools.islice(
        itertools.chain.from_iterable(workload.batch_stream(2, 1234)), n))
    assert got == expected


# Working-set sizes in lines: single lines, powers of two and one past
# them (the worst case for the getrandbits redraw loop), and arbitrary.
_lines = st.one_of(
    st.sampled_from([1, 2, 3, 4, 5, 17, 33, 64, 65, 129, 257, 1025]),
    st.integers(min_value=1, max_value=5000),
)


@st.composite
def _workloads(draw):
    kind = draw(st.sampled_from(["stream", "random", "pointer", "stencil",
                                 "hotcold"]))
    lines = draw(_lines)
    conflict_lines = draw(st.sampled_from([0, 1, 3, 96]))
    kwargs = dict(
        working_set_bytes=lines * LINE,
        mem_fraction=draw(st.sampled_from([1.0, 0.5, 0.33, 0.3, 0.07])),
        write_fraction=draw(st.sampled_from([0.0, 0.2, 0.25, 1.0])),
        ifetch_fraction=draw(st.sampled_from([0.0, 0.05, 0.3])),
        code_bytes=draw(st.sampled_from([64, 1000, 32 * 1024])),
        conflict_lines=conflict_lines,
        conflict_fraction=(draw(st.sampled_from([0.0, 0.01, 0.4]))
                           if conflict_lines else 0.0),
        conflict_stride_bytes=draw(st.sampled_from([64, 8 * 1024])),
        accesses_per_line=draw(st.sampled_from([1, 2, 5])),
    )
    if kind == "stream":
        return StreamWorkload(**kwargs)
    if kind == "random":
        return RandomWorkload(**kwargs)
    if kind == "pointer":
        return PointerChaseWorkload(**kwargs)
    if kind == "stencil":
        return StencilWorkload(**kwargs)
    hot = draw(st.integers(min_value=1, max_value=lines))
    return HotColdWorkload(
        hot_bytes=hot * LINE,
        hot_probability=draw(st.sampled_from([0.01, 0.5, 0.9])),
        **kwargs,
    )


@given(
    workload=_workloads(),
    core_id=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    chunk=st.integers(min_value=1, max_value=700),
)
@settings(max_examples=150, deadline=None)
def test_archetypes_match_reference(workload, core_id, seed, chunk):
    n = 2_000
    assert (_emitted(workload, core_id, seed, n, chunk)
            == _reference(workload, core_id, seed, n))


def test_overridden_picker_uses_the_python_packer():
    """A subclass with its own ``_line_picker`` has no C port: the
    base class packs its ``record_chunks``."""

    class Backwards(StreamWorkload):
        def _line_picker(self, core_id, seed):
            position = 0

            def next_line(rng):
                nonlocal position
                position = (position - 1) % self.num_lines
                return position

            return next_line

    workload = Backwards(16 * LINE)
    assert c_batch_stream(workload, 0, 3, 64) is None
    got = list(itertools.islice(
        itertools.chain.from_iterable(workload.batch_stream(0, 3, 64)), 500))
    assert got == _reference(workload, 0, 3, 500)


def test_other_engines_use_the_python_packer(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "specialized")
    assert c_batch_stream(StreamWorkload(16 * LINE), 0, 3, 64) is None


def _outcome(result):
    return (result.core_times, result.core_instructions,
            result.core_memory_ops, dataclasses.asdict(result.stats),
            dataclasses.asdict(result.monitor_stats))


def _run_mix(engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    result = run_workloads(
        scaled_system_config(False), scaled_mix_workloads("mix1", False),
        30_000, seed=11, batch=True,
    )
    return _outcome(result), result.extra["filter_occupancy"]


def test_mix_under_c_matches_python_and_skips_the_tuple_packer(monkeypatch):
    calls = []
    original = c_cache._record_array

    def spy(chunk):
        calls.append(len(chunk))
        return original(chunk)

    monkeypatch.setattr(c_cache, "_record_array", spy)
    reference = _run_mix("python", monkeypatch)
    assert _run_mix("c", monkeypatch) == reference
    assert calls == []


def _run_system(engine, monkeypatch, workloads, throttle_at=None):
    """``build_system`` + run; ``throttle_at`` throttles core 1 from
    that cycle on (the C scheduler hands the run back mid-chunk)."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    system, _ = build_system(scaled_system_config(False), workloads,
                             seed=4, batch=True)
    if throttle_at is not None:
        system.events.schedule(throttle_at,
                               lambda: system.cores[1].throttle(25))
    return _outcome(system.run(max_instructions_per_core=20_000))


def test_packed_cores_on_the_python_loop(monkeypatch):
    """A generator-fed core keeps the whole run on the Python loop,
    which must read the other cores' packed chunks as tuples."""
    workloads = scaled_mix_workloads("mix1", False)
    # An unaligned address is not packable: a generator-fed core.
    workloads[2] = ScriptedWorkload([(3, 0, 0x1001), (5, 1, 0x2040)] * 500)
    assert not workloads[2].batchable
    reference = _run_system("python", monkeypatch, workloads)
    assert _run_system("c", monkeypatch, workloads) == reference


def test_throttled_packed_core_falls_back(monkeypatch):
    workloads = scaled_mix_workloads("mix1", False)
    reference = _run_system("python", monkeypatch, workloads, 9_000)
    assert _run_system("c", monkeypatch, workloads, 9_000) == reference
    assert reference != _run_system("python", monkeypatch, workloads)
