"""Full-system assembly: config + workloads → runnable multicore system.

``run_workloads`` is the one-call entry point the performance
experiments (Fig. 8, secThr sensitivity) are built on: it constructs the
Table II hierarchy, optionally deploys PiPoMonitor, binds one workload
per core, and runs to an instruction budget.

Both assembly helpers bind cores through one rule (``_bind_cores``).
Cores whose workload declares ``batchable`` (synthetic/SPEC streams,
packable traces — anything that ignores latency feedback) are bound
through the chunked batch prefetch (:class:`repro.cpu.core.Core`'s
``batches`` mode) instead of a per-record generator.  The record
streams are identical either way, so results are bit-identical —
``REPRO_BATCH=0`` (or ``batch=False``) forces the generator path,
which the golden-equivalence tests compare against.  Under the C
cache walk batch-fed cores take packed chunks from ``batch_stream``
(C-emitted for the synthetic archetypes), and a system of them is
interleaved by the C scheduler (see :mod:`repro.cpu.multicore`) —
the benign tenants of ``run_defended_workloads`` included.  On the
Python loop ``run_workloads`` feeds them ``record_chunks`` tuples,
while ``run_defended_workloads`` keeps generators (tuple chunks
there cost peak RSS and bought no speed).  Generator-fed cores
(attackers) keep the Python loop.

Engine binding happens here implicitly: both assembly helpers attach
the monitor *before* constructing cores, and each core resolves its
access entry point through ``hierarchy.engine_access()`` at
construction — so under ``REPRO_ENGINE=specialized``/``c`` the
generated kernel is compiled once per system, outside the simulated
region, with the final monitor configuration baked in.  Results are
bit-identical across engines (the conformance harness replays the
full scenario matrix under each).
"""

from __future__ import annotations

import os

from repro.baselines.registry import build_defence
from repro.core.config import SystemConfig
from repro.engine import engine_provenance
from repro.core.pipomonitor import PiPoMonitor
from repro.cpu.core import Core
from repro.cpu.multicore import MulticoreSystem, SimulationResult
from repro.obs.trace import span as _span
from repro.utils.events import EventQueue
from repro.utils.rng import derive_seed
from repro.workloads.base import ScriptedWorkload, Workload


def batch_enabled(batch: bool | None = None) -> bool:
    """Resolve the batch-prefetch flag: explicit argument beats the
    ``REPRO_BATCH`` environment toggle (default on)."""
    if batch is not None:
        return batch
    return os.environ.get("REPRO_BATCH", "") != "0"


def _bind_cores(
    hierarchy,
    workloads: list[Workload],
    seed: int,
    seed_label: str = "workload",
    batch: bool | None = None,
    tuple_chunks: bool = True,
) -> list[Core]:
    """One core per workload, each bound to the stream its run reads.

    Call after every monitor, alarm bus and telemetry sink is attached:
    this resolves the engine first.  With batching on (``batch`` /
    ``REPRO_BATCH``), a ``batchable`` workload under the C walk takes
    packed chunks from ``batch_stream`` (emitted in C for the synthetic
    archetypes), the C scheduler's one record format.  On the Python
    loop it takes ``record_chunks`` tuples when ``tuple_chunks`` is
    set, else a generator like every other workload.  The per-core
    seed is ``derive_seed(seed, seed_label, core_id)``.
    """
    use_batches = batch_enabled(batch)
    hierarchy.engine_access()
    packed = hierarchy._c_state is not None
    cores = []
    for core_id, workload in enumerate(workloads):
        workload_seed = derive_seed(seed, seed_label, core_id)
        if use_batches and workload.batchable and (packed or tuple_chunks):
            emit = workload.batch_stream if packed else workload.record_chunks
            batches = emit(core_id, workload_seed)
            cores.append(Core(core_id, None, hierarchy, batches=batches))
        else:
            cores.append(
                Core(
                    core_id,
                    workload.generator(core_id, workload_seed),
                    hierarchy,
                )
            )
    return cores


def build_system(
    config: SystemConfig,
    workloads: list[Workload],
    seed: int = 0,
    track_captured_lines: bool = False,
    batch: bool | None = None,
) -> tuple[MulticoreSystem, PiPoMonitor | None]:
    """Construct the system a config describes.

    One workload per core is required.  Returns the system and the
    deployed monitor (None when ``config.monitor_enabled`` is False —
    the paper's baseline).
    """
    if len(workloads) != config.num_cores:
        raise ValueError(
            f"need exactly {config.num_cores} workloads, "
            f"got {len(workloads)}"
        )
    events = EventQueue()
    hierarchy = config.build_hierarchy(seed=seed)
    monitor = None
    if config.monitor_enabled:
        fltr = config.filter.build(seed=derive_seed(seed, "filter"))
        monitor = PiPoMonitor(
            fltr,
            events,
            prefetch_delay=config.prefetch_delay,
            track_captured_lines=track_captured_lines,
        )
        monitor.attach(hierarchy)
    cores = _bind_cores(hierarchy, workloads, seed, batch=batch)
    return MulticoreSystem(hierarchy, cores, events), monitor


def run_workloads(
    config: SystemConfig,
    workloads: list[Workload],
    instructions_per_core: int,
    seed: int = 0,
    batch: bool | None = None,
) -> SimulationResult:
    """Build and run in one call; returns the simulation result."""
    with _span("assemble", "engine", seed=seed):
        system, monitor = build_system(config, workloads, seed=seed, batch=batch)
    with _span("simulate", "engine", seed=seed):
        result = system.run(max_instructions_per_core=instructions_per_core)
    if monitor is not None:
        result.extra["filter_occupancy"] = monitor.filter.occupancy()
        result.extra["prefetch_delay"] = monitor.prefetch_delay
    result.extra["engine"] = engine_provenance()
    return result


def run_defended_workloads(
    config: SystemConfig,
    workloads: list[Workload],
    defence: str,
    seed: int = 0,
    seed_label: str = "workload",
    instructions_per_core: int | None = None,
    pad_idle: bool = False,
    detection=None,
):
    """Assemble and run a system with a registry defence attached.

    The generalisation of :func:`run_workloads` the attack scenarios
    and the conformance harness share: ``defence`` is any name from
    :data:`repro.baselines.registry.DEFENCES` (so BITP and the table
    recorder plug in where ``config.monitor_enabled`` only covers
    PiPoMonitor), ``pad_idle`` fills the remaining cores with idle
    workloads, and ``seed_label`` is the per-core seed-derivation
    namespace (kept caller-chosen so existing streams stay
    bit-identical).  Cores are bound like :func:`build_system`'s
    under the C walk — a batchable workload takes ``batch_stream``, so
    an all-benign system runs on the C scheduler — while on the
    Python loop every core consumes a generator.  Timing-sensitive
    attackers never batch, and since every hand-off emits the same
    records, conformance fixtures stay independent of ``REPRO_BATCH``.

    ``detection`` (a :class:`repro.detection.DetectionSpec`) deploys
    the online detection-and-response subsystem: the defence's alarm
    bus is attached *before* core construction — each core resolves
    its access kernel at construction, so the specialized engines bake
    the publish sites in — and the built unit's report lands in
    ``result.extra["detection"]``.

    Returns ``(simulation_result, monitor, hierarchy)``.
    """
    workloads = list(workloads)
    if pad_idle:
        while len(workloads) < config.num_cores:
            workloads.append(ScriptedWorkload([(0, None, 0)], name="idle"))
    if len(workloads) != config.num_cores:
        raise ValueError(
            f"need exactly {config.num_cores} workloads, "
            f"got {len(workloads)}"
        )
    # Engine-phase spans: assembly (hierarchy build + kernel
    # compilation at core construction) vs. the simulated run.  The
    # span() helper is a shared no-op unless a recorder is attached —
    # one global load per call, twice per simulation, never per event.
    with _span("assemble", "engine", defence=defence, seed=seed):
        events = EventQueue()
        hierarchy = config.build_hierarchy(seed=seed)
        monitor = build_defence(defence, config, events, seed=seed)
        if monitor is not None:
            monitor.attach(hierarchy)
        bus = None
        if detection is not None:
            if monitor is None:
                raise ValueError(
                    "detection requires a defence that publishes alarms "
                    "(defence='none' has no monitor on the hierarchy)"
                )
            bus = detection.attach_bus(monitor)
        # Generators on the Python loop: tuple chunks there bought no
        # speed and raised peak RSS (PERFORMANCE.md rule 19).
        cores = _bind_cores(hierarchy, workloads, seed, seed_label,
                            tuple_chunks=False)
        unit = None
        if detection is not None:
            unit = detection.deploy(bus, events, hierarchy, cores)
    with _span("simulate", "engine", defence=defence, seed=seed):
        result = MulticoreSystem(hierarchy, cores, events, detection=unit).run(
            max_instructions_per_core=instructions_per_core
        )
    # Engine provenance rides on every assembled run so fleet-level
    # aggregation can prove it never mixed engines (or see exactly
    # where a toolchain-less worker degraded c -> specialized).
    # Conformance digests scrub this key — provenance, not semantics.
    result.extra["engine"] = engine_provenance()
    return result, monitor, hierarchy
