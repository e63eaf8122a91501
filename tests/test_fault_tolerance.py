"""Fault-tolerance contract of the supervised experiment fan-out.

Every recovery path in :mod:`repro.experiments.parallel` is proven
here with *injected* faults (:mod:`repro.experiments.faults`), never
hoped for:

* worker crashes, hangs, and corrupted result payloads all recover to
  results bit-identical to a clean serial run;
* a grid killed mid-run resumes from its checkpoint shard and replays
  only the missing cells;
* exhausted retries produce a well-formed structured failure report
  (``CellFailure`` / ``GridExecutionError``), not a bare pool
  traceback — the failing cell's index, repr, and seed survive the
  process boundary;
* the ``c`` engine's degradation to ``specialized`` is warned about
  once and stamped into ``result.extra`` so fleet reports cannot
  silently mix engines.

The cell function is a cheap pure computation so the suite stays
tier-1-fast; the heavyweight end-to-end legs (conformance grid with
faults, SIGKILL + ``--resume``) run in CI's fault-injection job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import (
    EngineFallbackWarning,
    available_engines,
    engine_provenance,
)
from repro.experiments.checkpoint import (
    CheckpointMismatchError,
    GridCheckpoint,
    OrphanShardWarning,
    grid_digest,
)
from repro.experiments.faults import CRASH_EXIT_CODE, FaultPlan
from repro.experiments.parallel import (
    CellFailure,
    GridExecutionError,
    _cell_seed,
    cell_retries,
    cell_timeout,
    failure_policy,
    resolve_jobs,
    run_cells,
)
from repro.utils.bitops import mix64

JOBS = 2


def _mix_cell(cell):
    """A cheap pure cell: deterministic function of its arguments."""
    index, seed = cell
    return mix64(index, salt=seed)


def _failing_cell(cell):
    index, seed = cell
    if index == 2:
        raise ValueError(f"injected cell bug at index {index}")
    return mix64(index, salt=seed)


def _slow_cell(cell):
    index, seed = cell
    time.sleep(0.05)
    return mix64(index, salt=seed)


CELLS = [(i, 40) for i in range(10)]
SERIAL = [_mix_cell(c) for c in CELLS]


# ----------------------------------------------------------------------
# Environment knob parsing
# ----------------------------------------------------------------------

def test_env_knob_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_RETRIES", "4")
    monkeypatch.setenv("REPRO_ON_FAILURE", "partial")
    assert cell_timeout() == 2.5
    assert cell_retries() == 4
    assert failure_policy() == "partial"
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
    assert cell_timeout() is None


@pytest.mark.parametrize("var,value", [
    ("REPRO_CELL_TIMEOUT", "soon"),
    ("REPRO_CELL_TIMEOUT", "-1"),
    ("REPRO_RETRIES", "many"),
    ("REPRO_RETRIES", "-2"),
    ("REPRO_ON_FAILURE", "shrug"),
])
def test_env_knob_validation(monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    resolver = {
        "REPRO_CELL_TIMEOUT": cell_timeout,
        "REPRO_RETRIES": cell_retries,
        "REPRO_ON_FAILURE": failure_policy,
    }[var]
    with pytest.raises(ValueError):
        resolver()


def test_fault_spec_parsing():
    plan = FaultPlan.parse("crash:0.25, hang:0.5,corrupt:1.0", seed=9)
    assert (plan.crash, plan.hang, plan.corrupt) == (0.25, 0.5, 1.0)
    with pytest.raises(ValueError):
        FaultPlan.parse("explode:0.5")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash:1.5")
    with pytest.raises(ValueError):
        FaultPlan.parse("crash:often")


def test_fault_decisions_are_deterministic_and_attempt_keyed():
    plan = FaultPlan(crash=0.5, seed=11)
    rolls = [plan.decide("crash", i, a) for i in range(64) for a in range(3)]
    again = [plan.decide("crash", i, a) for i in range(64) for a in range(3)]
    assert rolls == again
    assert any(rolls) and not all(rolls)
    # Retries re-roll: some cell must crash on attempt 0 but not 1,
    # otherwise a crashing cell could never recover.
    assert any(
        plan.decide("crash", i, 0) and not plan.decide("crash", i, 1)
        for i in range(64)
    )


# ----------------------------------------------------------------------
# Satellite: error opacity — the failing cell survives the pool boundary
# ----------------------------------------------------------------------

def test_exception_carries_cell_identity_across_pool():
    with pytest.raises(GridExecutionError) as excinfo:
        run_cells(CELLS, _failing_cell, jobs=JOBS, retries=1,
                  on_failure="raise")
    err = excinfo.value
    assert len(err.failures) == 1
    failure = err.failures[0]
    assert failure.index == 2
    assert failure.cell == repr(CELLS[2])
    assert failure.kind == "exception"
    assert failure.attempts == 2  # first try + one retry
    assert "injected cell bug at index 2" in failure.error
    assert "ValueError" in failure.traceback
    assert failure.engine in available_engines()
    # The rendered message names the cell too — the "worker traceback
    # identifies nothing" failure mode is gone.
    assert repr(CELLS[2]) in str(err)


def test_partial_policy_returns_failures_in_slot():
    out = run_cells(CELLS, _failing_cell, jobs=JOBS, retries=0,
                    on_failure="partial")
    assert isinstance(out[2], CellFailure)
    assert out[2].attempts == 1
    for i, value in enumerate(out):
        if i != 2:
            assert value == SERIAL[i]


def test_serial_path_matches_parallel_failure_semantics():
    with pytest.raises(GridExecutionError) as excinfo:
        run_cells(CELLS, _failing_cell, jobs=1, retries=0,
                  on_failure="raise")
    assert excinfo.value.failures[0].index == 2
    assert isinstance(excinfo.value.__cause__, ValueError)
    out = run_cells(CELLS, _failing_cell, jobs=1, retries=0,
                    on_failure="partial")
    assert isinstance(out[2], CellFailure)


# ----------------------------------------------------------------------
# Tentpole: injected crash / hang / corrupt faults recover bit-identically
# ----------------------------------------------------------------------

def _run_with_faults(monkeypatch, spec, seed="5", **kwargs):
    monkeypatch.setenv("REPRO_FAULTS", spec)
    monkeypatch.setenv("REPRO_FAULT_SEED", seed)
    return run_cells(CELLS, _mix_cell, jobs=JOBS, **kwargs)


def test_crash_recovery_bit_identical(monkeypatch):
    plan = FaultPlan.parse("crash:0.4", seed=5)
    assert any(plan.decide("crash", i, 0) for i in range(len(CELLS)))
    out = _run_with_faults(monkeypatch, "crash:0.4", retries=6)
    assert out == SERIAL


def test_hang_recovery_bit_identical(monkeypatch):
    # Stalls are 30s by default — far beyond the 0.75s deadline, so a
    # hung worker must be terminated and its cell replayed.
    monkeypatch.setenv("REPRO_FAULT_HANG", "30")
    plan = FaultPlan.parse("hang:0.3", seed=5)
    assert any(plan.decide("hang", i, 0) for i in range(len(CELLS)))
    started = time.monotonic()
    out = _run_with_faults(
        monkeypatch, "hang:0.3", retries=6, timeout=0.75
    )
    assert out == SERIAL
    # Recovery must come from the deadline, not from waiting out the
    # stall (which would take 30s per injected hang).
    assert time.monotonic() - started < 20


def test_corrupt_recovery_bit_identical(monkeypatch):
    plan = FaultPlan.parse("corrupt:0.5", seed=5)
    assert any(plan.decide("corrupt", i, 0) for i in range(len(CELLS)))
    out = _run_with_faults(monkeypatch, "corrupt:0.5", retries=6)
    assert out == SERIAL


def test_mixed_faults_recover_bit_identical(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_HANG", "30")
    out = _run_with_faults(
        monkeypatch, "crash:0.2,hang:0.15,corrupt:0.2",
        retries=8, timeout=0.75,
    )
    assert out == SERIAL


def test_serial_reference_ignores_faults(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
    assert run_cells(CELLS, _mix_cell, jobs=1) == SERIAL


def test_exhausted_retries_produce_well_formed_report(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    out = run_cells(CELLS, _mix_cell, jobs=JOBS, retries=1,
                    on_failure="partial")
    assert all(isinstance(f, CellFailure) for f in out)
    for i, failure in enumerate(out):
        assert failure.index == i
        assert failure.cell == repr(CELLS[i])
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert str(CRASH_EXIT_CODE) in failure.error
        assert failure.engine in available_engines()
    with pytest.raises(GridExecutionError) as excinfo:
        run_cells(CELLS, _mix_cell, jobs=JOBS, retries=0,
                  on_failure="raise")
    assert len(excinfo.value.failures) == len(CELLS)
    assert excinfo.value.total_cells == len(CELLS)


def test_invalid_fault_spec_fails_fast_in_supervisor(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "explode:0.5")
    with pytest.raises(ValueError):
        run_cells(CELLS, _mix_cell, jobs=JOBS)


# ----------------------------------------------------------------------
# Tentpole: checkpointed resumable grids
# ----------------------------------------------------------------------

def test_checkpoint_resume_replays_only_missing_cells(tmp_path, monkeypatch):
    # Interrupt mid-grid: every cell whose crash roll fires dies with
    # zero retries, the rest land in the shard.
    monkeypatch.setenv("REPRO_FAULTS", "crash:0.4")
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    first = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    out = run_cells(CELLS, _mix_cell, jobs=JOBS, retries=0,
                    on_failure="partial", checkpoint=first)
    first.close()
    failed = [i for i, v in enumerate(out) if isinstance(v, CellFailure)]
    assert failed, "fault seed must kill at least one cell"
    assert first.computed_count == len(CELLS) - len(failed)

    # Resume without faults: only the missing cells are recomputed and
    # the merged grid is bit-identical to the serial reference.
    monkeypatch.delenv("REPRO_FAULTS")
    second = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell, resume=True)
    assert second.loaded_count == len(CELLS) - len(failed)
    out = run_cells(CELLS, _mix_cell, jobs=JOBS, checkpoint=second)
    second.close()
    assert out == SERIAL
    assert second.computed_count == len(failed)


def test_checkpoint_streams_during_run_and_survives_partial_line(tmp_path):
    ckpt = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    out = run_cells(CELLS, _mix_cell, jobs=JOBS, checkpoint=ckpt)
    ckpt.close()
    assert out == SERIAL
    # Simulate a kill mid-append: truncate the last line.
    shard = ckpt.path
    content = shard.read_text()
    shard.write_text(content[:-20])
    resumed = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell, resume=True)
    assert resumed.loaded_count == len(CELLS) - 1
    out = run_cells(CELLS, _mix_cell, jobs=1, checkpoint=resumed)
    resumed.close()
    assert out == SERIAL
    assert resumed.computed_count == 1


def test_checkpoint_digest_keys_the_grid(tmp_path):
    base = grid_digest("grid", _mix_cell, "specialized", CELLS)
    assert grid_digest("grid", _mix_cell, "specialized", CELLS) == base
    # Any change to what would be computed lands in a fresh shard.
    assert grid_digest("grid", _mix_cell, "python", CELLS) != base
    assert grid_digest("other", _mix_cell, "specialized", CELLS) != base
    assert grid_digest("grid", _failing_cell, "specialized", CELLS) != base
    other_cells = [(i, 41) for i in range(10)]
    assert grid_digest("grid", _mix_cell, "specialized", other_cells) != base


def test_fresh_run_truncates_stale_shard(tmp_path):
    first = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    run_cells(CELLS, _mix_cell, jobs=1, checkpoint=first)
    first.close()
    fresh = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell, resume=False)
    assert fresh.loaded_count == 0
    assert fresh.path.read_text() == ""
    fresh.close()


def test_ambient_checkpoint_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
    assert run_cells(CELLS, _mix_cell, jobs=JOBS, label="ambient") == SERIAL
    shards = list(Path(tmp_path).glob("ambient-*.jsonl"))
    assert len(shards) == 1
    monkeypatch.setenv("REPRO_RESUME", "1")
    # Resume path: everything loads, nothing recomputes — visible as
    # an unchanged shard (no duplicate lines appended).
    lines_before = shards[0].read_text()
    assert run_cells(CELLS, _mix_cell, jobs=JOBS, label="ambient") == SERIAL
    assert shards[0].read_text() == lines_before


def test_kill_and_resume_across_processes(tmp_path):
    """A real SIGKILL mid-grid: the streamed shard survives and a
    resumed process replays only the missing cells.

    The grid script is self-contained (tests/ is not a package) and
    runs twice: the first invocation is killed hard once some cells
    have checkpointed; the second resumes and must finish with results
    identical to the serial reference.
    """
    script = f"""
import sys, time
sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / 'src')!r})
from repro.experiments.checkpoint import GridCheckpoint
from repro.experiments.parallel import run_cells
from repro.utils.bitops import mix64

CELLS = {CELLS!r}

def slow_cell(cell):
    index, seed = cell
    time.sleep(0.2)
    return mix64(index, salt=seed)

ckpt = GridCheckpoint({str(tmp_path)!r}, "killed", CELLS, slow_cell,
                      resume=True)
out = run_cells(CELLS, slow_cell, jobs=2, checkpoint=ckpt)
ckpt.close()
expected = [mix64(i, salt=s) for i, s in CELLS]
print("MATCH" if out == expected else "MISMATCH", len(out))
"""
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    # Let a few 200ms cells checkpoint, then kill hard mid-grid.
    shard = None
    deadline = time.monotonic() + 15
    while shard is None and time.monotonic() < deadline:
        time.sleep(0.025)
        shard = next(
            (p for p in tmp_path.glob("killed-*.jsonl")
             if p.stat().st_size > 0),
            None,
        )
    # The whole process group: the pool workers die with their parent
    # instead of running on as orphans.
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=10)
    assert shard is not None, "no checkpoint lines before the kill"
    before = sum(1 for line in shard.read_text().splitlines() if line)
    assert 0 < before < len(CELLS), (
        f"kill must land mid-grid, shard had {before} lines"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True,
        text=True, timeout=60,
    )
    assert out.returncode == 0, out.stdout
    assert f"MATCH {len(CELLS)}" in out.stdout


# ----------------------------------------------------------------------
# Streaming sweeps: run_stream == run_cells, chunked checkpoints resume
# ----------------------------------------------------------------------

def test_run_stream_consumes_in_order_and_matches_serial():
    from repro.experiments.parallel import run_stream

    consumed: dict[int, int] = {}
    order: list[int] = []

    def consume(index, value):
        consumed[index] = value
        order.append(index)

    stats = run_stream(
        iter(CELLS), _mix_cell, consume,
        jobs=JOBS, chunk_size=3, label="stream",
    )
    assert [consumed[i] for i in range(len(CELLS))] == SERIAL
    assert order == sorted(order)
    assert stats.total == len(CELLS)
    assert stats.computed == len(CELLS)
    assert stats.chunks == 4  # 3+3+3+1
    assert not stats.failures


def test_run_stream_faults_recover_bit_identical(monkeypatch):
    from repro.experiments.parallel import run_stream

    monkeypatch.setenv("REPRO_FAULTS", "crash:0.4")
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    consumed: dict[int, int] = {}
    stats = run_stream(
        iter(CELLS), _mix_cell, consumed.__setitem__,
        jobs=JOBS, chunk_size=4, retries=6, label="stream",
    )
    assert [consumed[i] for i in range(len(CELLS))] == SERIAL
    assert not stats.failures


def test_run_stream_partial_skips_failed_cells(monkeypatch):
    from repro.experiments.parallel import run_stream

    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    consumed: dict[int, int] = {}
    stats = run_stream(
        iter(CELLS), _mix_cell, consumed.__setitem__,
        jobs=JOBS, chunk_size=4, retries=0, on_failure="partial",
        label="stream",
    )
    assert consumed == {}  # every cell crashed; nothing consumed
    assert len(stats.failures) == len(CELLS)
    # Failure indices are stream-global, not chunk-local.
    assert sorted(f.index for f in stats.failures) == list(range(len(CELLS)))
    assert all(f.seed == CELLS[f.index][-1] for f in stats.failures)


def test_run_stream_raise_policy_stops_after_failing_chunk(monkeypatch):
    from repro.experiments.parallel import run_stream

    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    pulled: list[int] = []

    def cells():
        for cell in CELLS:
            pulled.append(cell[0])
            yield cell

    with pytest.raises(GridExecutionError):
        run_stream(
            cells(), _mix_cell, lambda i, v: None,
            jobs=JOBS, chunk_size=4, retries=0, on_failure="raise",
            label="stream",
        )
    # Later chunks were never pulled from the stream.
    assert len(pulled) <= 2 * 4


def test_run_stream_checkpoint_resume_is_bit_identical(tmp_path, monkeypatch):
    from repro.experiments.parallel import run_stream

    # First pass: kill cells via fault exhaustion, shards keep the rest.
    monkeypatch.setenv("REPRO_FAULTS", "crash:0.4")
    monkeypatch.setenv("REPRO_FAULT_SEED", "5")
    first: dict[int, int] = {}
    stats = run_stream(
        iter(CELLS), _mix_cell, first.__setitem__,
        jobs=JOBS, chunk_size=4, retries=0, on_failure="partial",
        label="stream", directory=tmp_path,
    )
    assert stats.failures, "fault seed must kill at least one cell"
    monkeypatch.delenv("REPRO_FAULTS")

    # Resume: only missing cells recompute; consumption is in order and
    # the full fold matches the serial reference.
    second: dict[int, int] = {}
    resumed = run_stream(
        iter(CELLS), _mix_cell, second.__setitem__,
        jobs=JOBS, chunk_size=4, label="stream",
        directory=tmp_path, resume=True,
    )
    assert [second[i] for i in range(len(CELLS))] == SERIAL
    assert resumed.loaded == stats.computed
    assert resumed.computed == len(CELLS) - stats.computed


# ----------------------------------------------------------------------
# Satellite: the cell seed survives into failure reports
# ----------------------------------------------------------------------

def test_cell_seed_follows_the_tuple_discipline():
    # Shapes lifted from every grid runner: the seed is the last
    # element (fig8/secthr/baselines, fig9, ablation, fig10).
    assert _cell_seed(("mix1", None, False, 2_000_000, 42)) == 42
    assert _cell_seed(("flush_reload", "pipo", 100, 7)) == 7
    assert _cell_seed(("lru_rand", None, 32, 0)) == 0
    assert _cell_seed(("covert", "log", 32, 48, 5)) == 5
    # Attribute and mapping cells win over the tuple rule.
    assert _cell_seed({"seed": 9}) == 9
    # Non-seed tails must NOT be misreported as seeds.
    assert _cell_seed(("mix1", True)) is None     # bool is a flag
    assert _cell_seed(("mix1", 0.25)) is None     # float is a payload
    assert _cell_seed(("mix1", "pipo")) is None
    assert _cell_seed(()) is None


def test_all_grid_runners_embed_seed_in_their_cells(monkeypatch):
    """Every cell any registered grid experiment would fan out carries
    an extractable seed — the property that makes CellFailure reports
    actionable at campaign scale."""
    from repro.experiments import (
        baseline_comparison,
        defense_ablation,
        fig8_performance,
        fig9_flush_attacks,
        fig10_detection,
        secthr_sensitivity,
    )

    modules = (
        baseline_comparison, defense_ablation, fig8_performance,
        fig9_flush_attacks, fig10_detection, secthr_sensitivity,
    )
    for module in modules:
        recorded: list[list] = []

        def fake_run_cells(cells, fn, **kwargs):
            recorded.append(list(cells))
            return []

        monkeypatch.setattr(module, "run_cells", fake_run_cells)
        try:
            module.run(seed=7, jobs=1)
        except Exception:
            pass  # empty grids break downstream reporting; irrelevant
        assert recorded, f"{module.__name__} never fanned out"
        for cells in recorded:
            assert cells, f"{module.__name__} built an empty grid"
            for cell in cells:
                seed = _cell_seed(cell)
                assert isinstance(seed, int), (
                    f"{module.__name__} cell {cell!r} has no "
                    f"extractable seed"
                )


def test_campaign_profile_exposes_seed():
    from repro.experiments.campaign import sample_profile

    profile = sample_profile(3, 17)
    assert _cell_seed(profile) == profile.seed


def test_failure_summary_renders_seed():
    failure = CellFailure(
        index=3, cell=repr(("mix1", 42)), attempts=2, kind="crash",
        error="boom", engine="python", seed=42,
    )
    assert ", seed 42]" in failure.summary()
    anonymous = CellFailure(
        index=3, cell="x", attempts=1, kind="hang",
        error="boom", engine="python",
    )
    assert "seed" not in anonymous.summary()


def test_failure_carries_tuple_seed_across_pool():
    with pytest.raises(GridExecutionError) as excinfo:
        run_cells(CELLS, _failing_cell, jobs=JOBS, retries=0,
                  on_failure="raise")
    failure = excinfo.value.failures[0]
    assert failure.seed == CELLS[failure.index][-1]
    assert f", seed {failure.seed}]" in failure.summary()


# ----------------------------------------------------------------------
# Satellite: checkpoint creation ordering (orphan shards, mismatches)
# ----------------------------------------------------------------------

def test_manifest_written_before_shard(tmp_path):
    ckpt = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    assert ckpt.manifest_path.exists()
    assert ckpt.path.exists()
    ckpt.close()


def test_orphan_shard_is_reconciled_on_open(tmp_path):
    first = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    run_cells(CELLS, _mix_cell, jobs=1, checkpoint=first)
    first.close()
    # Simulate the pre-hardening crash window: shard without manifest.
    first.manifest_path.unlink()
    with pytest.warns(OrphanShardWarning):
        second = GridCheckpoint(
            tmp_path, "grid", CELLS, _mix_cell, resume=True
        )
    assert second.loaded_count == len(CELLS)
    assert second.manifest_path.exists()
    out = run_cells(CELLS, _mix_cell, jobs=1, checkpoint=second)
    second.close()
    assert out == SERIAL
    assert second.computed_count == 0


def test_contradicting_manifest_refuses_to_open(tmp_path):
    import json

    first = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    first.close()
    manifest = json.loads(first.manifest_path.read_text())
    manifest["cells"] = 999
    first.manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatchError, match="does not describe"):
        GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell, resume=True)


def test_undecodable_manifest_is_rederived(tmp_path):
    first = GridCheckpoint(tmp_path, "grid", CELLS, _mix_cell)
    run_cells(CELLS, _mix_cell, jobs=1, checkpoint=first)
    first.close()
    first.manifest_path.write_text("{ truncated")
    with pytest.warns(OrphanShardWarning):
        second = GridCheckpoint(
            tmp_path, "grid", CELLS, _mix_cell, resume=True
        )
    assert second.loaded_count == len(CELLS)
    second.close()


# ----------------------------------------------------------------------
# Satellite: --jobs 0 means one worker per CPU, never silent serial
# ----------------------------------------------------------------------

def test_resolve_jobs_contract(monkeypatch):
    import repro.experiments.parallel as parallel_mod

    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 7)
    assert resolve_jobs(0) == 7
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs(None) == 7
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs(None) == 1
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_run_cells_jobs_zero_fans_out(monkeypatch):
    import repro.experiments.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 2)
    assert run_cells(CELLS, _mix_cell, jobs=0) == SERIAL


# ----------------------------------------------------------------------
# Determinism: supervised == serial on clean runs, any job count
# ----------------------------------------------------------------------

def test_supervised_matches_serial_without_faults():
    assert run_cells(CELLS, _mix_cell, jobs=JOBS) == SERIAL
    assert run_cells(CELLS, _mix_cell, jobs=5) == SERIAL


# ----------------------------------------------------------------------
# Satellite: engine fallback is loud and stamped
# ----------------------------------------------------------------------

def test_engine_provenance_stamped_in_result_extra(repro_engine):
    from repro.experiments.common import (
        scaled_mix_workloads,
        scaled_system_config,
    )
    from repro.cpu.system import run_defended_workloads, run_workloads

    config = scaled_system_config(False)
    workloads = scaled_mix_workloads("mix1", False)
    result = run_workloads(config, workloads, 2000, seed=1)
    stamp = result.extra["engine"]
    assert stamp["requested"] == repro_engine
    assert stamp["effective"] in available_engines()
    assert stamp["fallback"] == (stamp["requested"] != stamp["effective"])
    defended, _, _ = run_defended_workloads(
        config, workloads, "pipo", seed=1, instructions_per_core=2000
    )
    assert defended.extra["engine"] == stamp


def test_c_fallback_warns_once_and_stamps(monkeypatch):
    import repro.engine as engine_mod
    from repro.engine import c_backend

    monkeypatch.setattr(c_backend, "_LIB", False)
    monkeypatch.setattr(
        c_backend, "_LIB_ERROR", "RuntimeError: no toolchain (test)"
    )
    monkeypatch.setattr(engine_mod, "_FALLBACK_WARNED", set())
    monkeypatch.setenv("REPRO_ENGINE", "c")
    with pytest.warns(EngineFallbackWarning, match="degraded to 'specialized'"):
        stamp = engine_provenance()
    assert stamp == {
        "requested": "c",
        "effective": "specialized",
        "fallback": True,
        "reason": "RuntimeError: no toolchain (test)",
    }
    # Once per process: the second resolution is silent.
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        assert engine_provenance()["effective"] == "specialized"


def test_provenance_scrubbed_from_conformance_digests():
    sys.path.insert(
        0, str(Path(__file__).resolve().parents[1] / "tests" / "conformance")
    )
    from digests import canonical

    payload = canonical({
        "simulation": {"extra": {"engine": {"effective": "c"}, "x": 1}},
        "engine": "top-level too",
    })
    assert payload == {"simulation": {"extra": {"x": 1}}}


# ---------------------------------------------------------------------------
# Observability under faults: span streams from crashed and retried
# workers must stay well-formed, attempt-tagged, and digest-neutral.
# ---------------------------------------------------------------------------

def _run_traced_with_faults(monkeypatch, spec, *, seed="5", **kwargs):
    from repro.obs.trace import (
        TraceRecorder,
        attach_recorder,
        detach_recorder,
    )

    monkeypatch.setenv("REPRO_FAULTS", spec)
    monkeypatch.setenv("REPRO_FAULT_SEED", seed)
    monkeypatch.setenv("REPRO_TRACE", "1")
    recorder = attach_recorder(TraceRecorder())
    try:
        out = run_cells(CELLS, _mix_cell, jobs=JOBS, **kwargs)
    finally:
        detach_recorder()
    return out, recorder


def test_spans_from_crashed_and_retried_workers(monkeypatch):
    from repro.obs.trace import validate_chrome_trace

    out, recorder = _run_traced_with_faults(
        monkeypatch, "crash:0.4", retries=6
    )
    # The grid still converges to the serial answer; observability
    # never alters results, even across worker deaths.
    assert out == SERIAL
    assert validate_chrome_trace(recorder.chrome_trace()) == []
    cell_spans = [e for e in recorder.events if e["name"] == "cell"]
    # One *surviving* span per cell: a worker killed mid-cell takes
    # its sidecar with it (the span dies with the process), and the
    # retry produces a fresh one.
    assert len(cell_spans) == len(CELLS)
    attempts = [e["args"]["attempt"] for e in cell_spans]
    assert all(isinstance(a, int) and a >= 0 for a in attempts)
    # crash:0.4 over 10 cells at seed 5 guarantees retries happened,
    # and the spans must say so: the surviving span for a crashed
    # cell carries the attempt index it finally succeeded on.
    assert max(attempts) >= 1
    indices = sorted(e["args"]["index"] for e in cell_spans)
    assert indices == [cell[0] for cell in CELLS]


def test_spans_from_corrupt_payload_retries(monkeypatch):
    out, recorder = _run_traced_with_faults(
        monkeypatch, "corrupt:0.4", retries=6
    )
    assert out == SERIAL
    cell_spans = [e for e in recorder.events if e["name"] == "cell"]
    # A corrupted *payload* (unlike a crash) leaves the worker alive
    # and the sidecar intact — its CRC is separate — so the failed
    # attempt's spans still stream back: cells can carry *multiple*
    # spans, one per attempt, each distinctly tagged.
    assert len(cell_spans) >= len(CELLS)
    by_index: dict[int, set[int]] = {}
    for event in cell_spans:
        by_index.setdefault(event["args"]["index"], set()).add(
            event["args"]["attempt"]
        )
    assert set(by_index) == {cell[0] for cell in CELLS}
    for attempts in by_index.values():
        # Attempts for a cell are dense from 0: no gaps, no dupes.
        assert attempts == set(range(len(attempts)))
    assert any(len(attempts) > 1 for attempts in by_index.values())


def test_traced_run_digest_matches_untraced(monkeypatch):
    # The acceptance bar stated directly: faults + tracing + fan-out
    # produce bit-identical results to the plain serial run.
    out, recorder = _run_traced_with_faults(
        monkeypatch, "crash:0.3", retries=6
    )
    assert out == SERIAL
    assert recorder.dropped == 0
