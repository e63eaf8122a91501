"""C emission of the synthetic workloads' packed record streams.

:meth:`repro.workloads.synthetic._SyntheticWorkload.batch_stream`
routes here.  Under the ``c`` engine, a workload whose line picker has
a C port (the five archetypes of :mod:`repro.workloads.synthetic`)
is emitted by ``cw_emit_fill`` (source in
:mod:`repro.engine._walk_src`, built into the one shared extension):
one boundary crossing fills one ``array('q')`` chunk of packed
records, the form the C scheduler (``cw_run``) reads.

The contract (PERFORMANCE.md design rule 20): **Python seeds, C
draws, and the Python emitter is the reference.**  Python derives the
stream's ``random.Random`` exactly as ``record_chunks`` does and hands
its ``getstate()`` to C; C ports CPython's ``random()``
(``genrand_res53``), ``_randbelow_with_getrandbits`` and ``shuffle``
exactly.  Every float threshold and the stencil side come from the
workload's own Python code, so C compares identical doubles.  The
stream is therefore record-for-record identical to ``record_chunks``
(``tests/test_c_emit.py``).  Anything else — another engine, no
extension, a picker without a C port (a subclass overriding
``_line_picker``) or a working set past 2**32 lines — gets ``None``
and the base class's packer.
"""

from __future__ import annotations

from array import array

from repro.engine import c_backend, engine_name
from repro.utils.rng import derive_rng
from repro.workloads.base import core_code_base, core_data_base
from repro.workloads.synthetic import (
    HotColdWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    StencilWorkload,
    StreamWorkload,
)

#: ``cw_emit.picker`` codes (``CW_PICK_*`` in the C source), keyed by
#: the class whose ``_line_picker`` the C code ports.
_STREAM, _RANDOM, _POINTER, _STENCIL, _HOTCOLD = range(5)
_PICKERS = {
    StreamWorkload: _STREAM,
    RandomWorkload: _RANDOM,
    PointerChaseWorkload: _POINTER,
    StencilWorkload: _STENCIL,
    HotColdWorkload: _HOTCOLD,
}


def _picker(workload) -> int | None:
    owner = next(
        cls for cls in type(workload).__mro__ if "_line_picker" in vars(cls)
    )
    return _PICKERS.get(owner)


def _seed(mt, rng) -> None:
    """Load a ``random.Random``'s Mersenne-Twister state into a
    ``cw_mt``."""
    state = rng.getstate()[1]
    mt.mt = list(state[:624])
    mt.mti = state[624]


def c_batch_stream(workload, core_id: int, seed: int, chunk: int):
    """The packed stream of ``workload.record_chunks(core_id, seed)``
    in ``chunk``-record arrays emitted in C, or None when C emission
    does not apply (see the module docstring) — including the streams
    ``record_chunks`` refuses, so its errors stay the only ones."""
    kind = _picker(workload)
    num_lines = workload.num_lines
    if (kind is None or num_lines >> 32 or not workload.batchable
            or chunk < 1 or engine_name() != "c"):
        return None
    pair = c_backend._load_lib()
    if pair is None:
        return None
    ffi, lib = pair
    e = ffi.new("cw_emit *")
    _seed(e.rng, derive_rng(seed, workload.name, core_id))
    gap_base, gap_frac, ifetch_limit, conflict_limit, conflict_base = (
        workload._loop_constants()
    )
    e.picker = kind
    e.gap_base = gap_base
    e.gap_frac = gap_frac
    e.ifetch_limit = ifetch_limit
    e.conflict_limit = conflict_limit
    e.write_fraction = workload.write_fraction
    e.num_lines = num_lines
    e.data_base = core_data_base(core_id) >> 6
    e.code_base = core_code_base(core_id) >> 6
    e.code_lines = workload.code_lines
    e.conflict_base = conflict_base
    e.conflict_stride = workload.conflict_stride
    e.conflict_lines = workload.conflict_lines
    e.visits_per_line = workload.accesses_per_line - 1
    e.current_line = -1
    chain = None
    if kind == _STREAM:
        e.position = num_lines - 1
    elif kind == _POINTER:
        perm = ffi.new("cw_mt *")
        _seed(perm, workload.permutation_rng(core_id, seed))
        chain = ffi.new("uint32_t[]", num_lines)
        if lib.cw_emit_chain(perm, chain, num_lines) < 0:
            raise MemoryError("pointer-chase chain allocation failed")
        e.chain = chain
    elif kind == _STENCIL:
        e.side = workload.side
    elif kind == _HOTCOLD:
        e.hot_lines = workload.hot_lines
        e.hot_probability = workload.hot_probability
    return _fill(ffi, lib.cw_emit_fill, e, chain, chunk)


def _fill(ffi, fill, e, keepalive, chunk: int):
    # ``keepalive`` (the pointer chase's chain) rides in this frame:
    # ``e.chain`` alone does not keep the cffi array alive.
    zeros = bytes(8 * chunk)
    while True:
        out = array("q", zeros)
        fill(e, ffi.from_buffer("int64_t[]", out), chunk)
        yield out
