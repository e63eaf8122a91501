"""The golden-trace scenario matrix: attack × defence, pinned seeds.

Every scenario is a zero-argument callable returning a canonical
payload (see :mod:`digests`) built from the full engine outcome — the
``SimulationResult`` plus the scenario's observable channel (probe
timelines, received bits).  The fixtures under ``tests/golden/`` pin
those payloads bit-exactly; any engine change that alters replacement
decisions, coherence actions, filter state, monitor scheduling, or RNG
derivation shows up as a digest mismatch.

This is the regression gate the ROADMAP's compiled-kernel step needs:
a compiled access/filter kernel is admissible exactly when every
scenario here still reproduces its golden digest.

Adding a scenario
-----------------
1. add an entry to :data:`SCENARIOS` (a new attack kind, defence, or
   workload — keep it seconds-small and fully seed-derived);
2. run ``python tests/conformance/regenerate.py`` to write its
   fixture;
3. commit the new ``tests/golden/<name>.json`` together with the code.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
for _path in (str(_HERE), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from digests import canonical  # noqa: E402

from repro.attacks.covert_channel import run_covert_channel  # noqa: E402
from repro.attacks.flush_reload import run_flush_attack  # noqa: E402
from repro.attacks.primeprobe import run_prime_probe_attack  # noqa: E402
from repro.baselines.registry import DEFENCES  # noqa: E402
from repro.cpu.system import (  # noqa: E402
    run_defended_workloads,
    run_workloads,
)
from repro.detection import DetectionSpec  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    scaled_mix_workloads,
    scaled_system_config,
)

#: Where the pinned fixtures live.
GOLDEN_DIR = _ROOT / "tests" / "golden"

#: One pinned seed for the whole matrix — scenarios must derive every
#: stochastic component from it.
SEED = 20260730

#: Small-but-meaningful scales: every scenario runs in well under a
#: second so the whole matrix stays a tier-1-time gate.
ATTACK_ITERATIONS = 16
COVERT_BITS = 24
COVERT_WINDOW = 3000
BENIGN_INSTRUCTIONS = 15_000


def _attack_payload(key_bits, square, multiply, monitor_stats, simulation):
    return canonical({
        "key_bits": key_bits,
        "square_observed": square,
        "multiply_observed": multiply,
        "monitor": monitor_stats,
        "simulation": simulation,
    })


def prime_probe(defence: str):
    """Fig. 6's Prime+Probe (monitor on/off only — the attack predates
    the defence registry and its two configurations are the paper's)."""
    outcome = run_prime_probe_attack(
        monitor_enabled=(defence == "pipo"),
        iterations=ATTACK_ITERATIONS,
        seed=SEED,
    )
    return _attack_payload(
        outcome.key_bits,
        outcome.square_observed,
        outcome.multiply_observed,
        outcome.monitor_stats,
        outcome.extra["simulation"],
    )


def flush_attack(kind: str, defence: str):
    outcome = run_flush_attack(
        kind, defence, iterations=ATTACK_ITERATIONS, seed=SEED
    )
    return _attack_payload(
        outcome.key_bits,
        outcome.square_observed,
        outcome.multiply_observed,
        outcome.monitor_stats,
        outcome.simulation,
    )


def covert(defence: str):
    outcome = run_covert_channel(
        defence, n_bits=COVERT_BITS, window=COVERT_WINDOW, seed=SEED
    )
    return canonical({
        "sent_bits": outcome.sent_bits,
        "received_bits": outcome.received_bits,
        "monitor": outcome.monitor_stats,
        "simulation": outcome.simulation,
    })


def benign(defence: str):
    """One Table III mix at tier-1 scale under each defence — the
    engine-level scenario the performance experiments are made of.

    Built on the explicit generator path so the fixture is independent
    of the ``REPRO_BATCH`` toggle (the batch-fed path has its own
    scenarios, :func:`benign_batch`).
    """
    config = scaled_system_config(False, monitor_enabled=False)
    workloads = scaled_mix_workloads("mix1", False)
    simulation, _, _ = run_defended_workloads(
        config, workloads, defence, seed=SEED,
        instructions_per_core=BENIGN_INSTRUCTIONS,
    )
    return canonical({"simulation": simulation})


def benign_batch(defence: str):
    """The same mix on the Fig. 8 assembly path: ``run_workloads``
    with batch-fed cores (``record_chunks``, or under the C walk the
    C-emitted ``batch_stream``), the path the C engine's multicore
    scheduler takes over — so this pair is its golden gate.
    ``defence`` is ``none`` (the baseline) or ``pipo`` (the monitor
    ``SystemConfig.monitor_enabled`` deploys)."""
    config = scaled_system_config(False, monitor_enabled=(defence == "pipo"))
    workloads = scaled_mix_workloads("mix1", False)
    simulation = run_workloads(
        config, workloads, BENIGN_INSTRUCTIONS, seed=SEED, batch=True,
    )
    return canonical({"simulation": simulation})


# ----------------------------------------------------------------------
# Detection & response scenarios (the online subsystem).
#
# Each pins one detector × response pairing end-to-end: the alarm
# stream (published from inside the engine kernels — the publish sites
# are baked in at kernel build time, so these scenarios are also the
# cross-engine gate for that machinery), the detector's verdicts, and
# the response's mid-run side effects on the simulation itself.
# ----------------------------------------------------------------------

def _detection_payload(simulation, monitor_stats, channel):
    detection = simulation.extra["detection"]
    return canonical({
        "channel": channel,
        "monitor": monitor_stats,
        "detection": detection,
        "simulation": simulation,
    })


def detect_flush_reload_rate_log():
    """Loud Flush+Reload, rate detector, log-only response: the
    observation-only mode — simulation must match the undetected run's
    dynamics exactly (publishing is free of side effects)."""
    outcome = run_flush_attack(
        "flush_reload", "pipo", iterations=ATTACK_ITERATIONS, seed=SEED,
        detection=DetectionSpec(
            detectors=(("rate", {"window": 12000, "threshold": 3}),),
        ),
    )
    return _detection_payload(
        outcome.simulation, outcome.monitor_stats,
        {"square_observed": outcome.square_observed},
    )


def detect_flush_flush_ewma_flush_suspect():
    """Stealthy Flush+Flush, per-region EWMA detector, flush bursts as
    the response — responses re-enter the hierarchy mid-run."""
    outcome = run_flush_attack(
        "flush_flush", "pipo", iterations=ATTACK_ITERATIONS, seed=SEED,
        detection=DetectionSpec(
            detectors=(("ewma", {}),), response="flush_suspect",
        ),
    )
    return _detection_payload(
        outcome.simulation, outcome.monitor_stats,
        {"square_observed": outcome.square_observed},
    )


def detect_covert_xcore_isolate():
    """Covert channel, cross-core correlation detector, TPPD-style
    isolation — the guard refills interleave with both endpoints."""
    outcome = run_covert_channel(
        "pipo", n_bits=COVERT_BITS, window=COVERT_WINDOW, seed=SEED,
        detection=DetectionSpec(
            detectors=(("xcore", {}),), response="isolate",
        ),
    )
    return _detection_payload(
        outcome.simulation, outcome.monitor_stats,
        {"sent_bits": outcome.sent_bits,
         "received_bits": outcome.received_bits},
    )


def detect_adaptive_rate_throttle():
    """Adaptive Flush+Reload vs throttle_core: the attacker reacts to
    the response (backs off), the response reacts to the attacker —
    the full feedback loop, pinned bit-exactly."""
    outcome = run_flush_attack(
        "adaptive_flush_reload", "pipo", iterations=ATTACK_ITERATIONS,
        seed=SEED,
        detection=DetectionSpec(
            detectors=(("rate", {"window": 5000, "threshold": 3}),),
            response="throttle_core",
        ),
    )
    return _detection_payload(
        outcome.simulation, outcome.monitor_stats,
        {"square_observed": outcome.square_observed,
         "probe_rate": outcome.extra["probe_rate"],
         "backoff_events": outcome.extra["backoff_events"]},
    )


def detect_benign_rate_log():
    """The false-positive path: a Table III mix under the monitor with
    an aggressive rate detector, log-only (alarm stream unlogged — the
    verdict counters pin the behaviour without a bulky fixture)."""
    config = scaled_system_config(False, monitor_enabled=False)
    workloads = scaled_mix_workloads("mix1", False)
    simulation, monitor, _ = run_defended_workloads(
        config, workloads, "pipo", seed=SEED,
        instructions_per_core=BENIGN_INSTRUCTIONS,
        detection=DetectionSpec(
            detectors=(("rate", {"window": 24000, "threshold": 2}),),
            log_alarms=False,
        ),
    )
    return _detection_payload(simulation, monitor.stats, {})


DETECTION_SCENARIOS = {
    "detect__flush_reload__rate_log": detect_flush_reload_rate_log,
    "detect__flush_flush__ewma_flush_suspect":
        detect_flush_flush_ewma_flush_suspect,
    "detect__covert__xcore_isolate": detect_covert_xcore_isolate,
    "detect__adaptive__rate_throttle": detect_adaptive_rate_throttle,
    "detect__benign_mix1__rate_log": detect_benign_rate_log,
}


# ----------------------------------------------------------------------
# Storage scenarios (the standalone-filter subsystem).
#
# Each pins one small LSM filter-tree workload end to end: from_fpp
# sizing, batched insert/query/delete through the engine batch seam,
# compaction rebuilds, the zipf stream, and the serialized byte format
# (to_bytes digests) — the cross-engine gate for the batched C kernels
# exactly as the attack scenarios are for acf_access.
# ----------------------------------------------------------------------

def storage_lsm(fpp: float):
    """A seconds-small LSM filter-tree run at one fpp target.

    ``fpp=1e-4`` derives f = 17 fingerprints, pinning the
    wide-fingerprint inline-splitmix path (which the C backend refuses,
    so that scenario also gates the quiet fallback)."""
    import hashlib
    from array import array

    from repro.utils.rng import derive_seed
    from repro.workloads.lsm import LSMFilterTree, ZipfRanks, resident_key

    tree = LSMFilterTree(
        memtable_size=512, fanout=4, levels=3, fpp=fpp, seed=SEED
    )
    salt = derive_seed(SEED, "storage-keys")
    tree.put_many(array("Q", (resident_key(i, salt) for i in range(6000))))
    tree.flush_pending()
    gets = ZipfRanks(theta=0.8, seed=derive_seed(SEED, "storage-gets"))
    get_counts = tree.get_many(array("Q", (
        resident_key(r, salt) for r in gets.draw(2000, 6000)
    )))
    fp_counts = tree.false_positive_counts(4000)
    dels = ZipfRanks(theta=0.8, seed=derive_seed(SEED, "storage-dels"))
    removed = tree.delete_many(array("Q", (
        resident_key(r, salt) for r in dels.draw(800, 6000)
    )))
    return canonical({
        "stats": tree.stats(),
        "filter_digests": tree.filter_digests(),
        "get_counts": get_counts,
        "fp_counts": fp_counts,
        "removed": removed,
        "serialized": [
            hashlib.sha256(level.filter.to_bytes()).hexdigest()
            for level in tree.levels
        ],
    })


STORAGE_SCENARIOS = {
    "lsm__small": lambda: storage_lsm(1e-2),
    "lsm__wide_fp": lambda: storage_lsm(1e-4),
}


def _build_registry():
    scenarios = {}
    for defence in ("none", "pipo"):
        scenarios[f"prime_probe__{defence}"] = (
            lambda d=defence: prime_probe(d)
        )
    for kind in ("flush_reload", "flush_flush"):
        for defence in DEFENCES:
            scenarios[f"{kind}__{defence}"] = (
                lambda k=kind, d=defence: flush_attack(k, d)
            )
    for defence in ("none", "pipo"):
        scenarios[f"covert__{defence}"] = lambda d=defence: covert(d)
    for defence in DEFENCES:
        scenarios[f"benign_mix1__{defence}"] = lambda d=defence: benign(d)
    for defence in ("none", "pipo"):
        scenarios[f"benign_mix1_batch__{defence}"] = (
            lambda d=defence: benign_batch(d)
        )
    scenarios.update(DETECTION_SCENARIOS)
    scenarios.update(STORAGE_SCENARIOS)
    return scenarios


#: name → zero-argument payload builder.
SCENARIOS = _build_registry()


def run_scenario(name: str):
    """Compute one scenario's canonical payload."""
    return SCENARIOS[name]()
