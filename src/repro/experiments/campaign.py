"""Fleet-scale campaign: streaming tenant sweeps, online aggregation.

The grid experiments (fig8/fig9/fig10) evaluate a handful of
hand-picked (scenario × config) cells.  A *campaign* treats scenarios
as **traffic**: it samples randomized tenant profiles — workload mix,
cache/filter geometry, ``secThr``, detector operating point, attacker
presence and type — from seed-deterministic distributions, runs each
tenant as one independent simulation through the supervised worker
pool, and folds every outcome **online** into fixed-size sufficient
statistics (:class:`~repro.detection.fleet.FleetDetectionStats` plus
capacity/BER sketches).  A 10⁶-tenant sweep therefore holds a few
hundred counters, never a per-run record list — peak memory is
independent of the fleet size.

Determinism contract
--------------------
Tenant ``i`` of campaign seed ``S`` is a pure function of
``derive_seed(S, "tenant", i)``: the profile sampler and the
simulation both derive from it, so any subset of tenants replays
bit-identically.  Results are folded in tenant order (the
:func:`~repro.experiments.parallel.run_stream` contract), so the
aggregate :meth:`CampaignAggregate.digest` is bit-identical across
serial/parallel runs, across engines, and across a SIGKILL +
``--resume`` — the property the campaign smoke test and the
kill-and-resume property test assert.

Fault tolerance is inherited wholesale from the PR 6 substrate:
crash/hang supervision, ``REPRO_RETRIES``, ``REPRO_FAULTS`` and
per-chunk digest-keyed checkpoint shards all apply unchanged, because
a campaign is just a streamed grid.

CLI: ``repro-experiment campaign --tenants 100000 --jobs 0``.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

from repro.attacks.covert_channel import run_covert_channel
from repro.attacks.flush_reload import run_flush_attack
from repro.attacks.primeprobe import run_prime_probe_attack
from repro.cpu.system import run_defended_workloads
from repro.detection import DetectionSpec, FleetDetectionStats, detector_desc
from repro.detection.fleet import QUANTILES
from repro.experiments.common import (
    ExperimentResult,
    scaled_mix_workloads,
    scaled_system_config,
)
from repro.experiments.parallel import (
    failure_kinds,
    resolve_jobs,
    run_stream,
    summarize_failures,
)
from repro.obs.progress import current_progress
from repro.obs.telemetry import current_telemetry
from repro.obs.trace import span as _span
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.stats import QuantileSketch, RunningStat
from repro.workloads.mixes import mix_names

#: Attacker families a tenant can host (plus implicit "benign").
ATTACK_KINDS = (
    "flush_reload", "flush_flush", "prime_probe", "covert", "adaptive"
)
#: Per-tenant filter pEvict thresholds (the 2-bit hardware counter
#: caps secThr at 3 — the same range fig10 sweeps).
SECTHRS = (2, 3)
#: Per-tenant detector operating points (name, sorted param pairs) —
#: the same registry names fig10 sweeps, here drawn per tenant.
DETECTOR_CHOICES = (
    ("rate", (("threshold", 2), ("window", 5000))),
    ("rate", (("threshold", 3), ("window", 12000))),
    ("rate", (("threshold", 5), ("window", 24000))),
    ("ewma", ()),
    ("xcore", ()),
)
#: Per-tenant paper-scale filter geometries (buckets, entries).
FILTER_SIZES = ((1024, 8), (2048, 8), (4096, 4))

#: Default per-tenant budget menus (drawn uniformly per tenant).
DEFAULT_BENIGN_INSTRUCTIONS = (20_000, 40_000, 60_000)
DEFAULT_ATTACK_ITERATIONS = (8, 16, 24)
DEFAULT_COVERT_BITS = (16, 32, 48)
#: Covert-channel bit window (cycles) — fixed; must stay >= the
#: runner's MIN_WINDOW.
COVERT_WINDOW = 3000

DEFAULT_TENANTS = 256
DEFAULT_ATTACK_FRACTION = 0.25


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's full scenario, sampled once and then immutable.

    The profile *is* the stream cell: it pickles to the workers, its
    deterministic ``repr`` feeds the checkpoint grid digest, and its
    ``seed`` field satisfies the failure-report seed discipline.
    """

    index: int
    seed: int
    kind: str                       # "benign" or an ATTACK_KINDS entry
    mix: str                        # Table III mix (benign tenants)
    secthr: int
    detector: str
    detector_params: tuple          # sorted (name, value) pairs
    filter_size: tuple              # paper-scale (buckets, entries)
    instructions: int               # benign budget per core
    iterations: int                 # attack probe iterations
    covert_bits: int
    full: bool


def sample_profile(
    campaign_seed: int,
    index: int,
    *,
    attack_fraction: float = DEFAULT_ATTACK_FRACTION,
    full: bool = False,
    benign_instructions=DEFAULT_BENIGN_INSTRUCTIONS,
    attack_iterations=DEFAULT_ATTACK_ITERATIONS,
    covert_bits=DEFAULT_COVERT_BITS,
) -> TenantProfile:
    """Sample tenant ``index`` of the campaign — a pure function of
    ``(campaign_seed, index)``, so any tenant replays independently."""
    rng = derive_rng(campaign_seed, "tenant", index)
    seed = derive_seed(campaign_seed, "tenant", index)
    kind = (
        rng.choice(ATTACK_KINDS)
        if rng.random() < attack_fraction else "benign"
    )
    detector, params = rng.choice(DETECTOR_CHOICES)
    return TenantProfile(
        index=index,
        seed=seed,
        kind=kind,
        mix=rng.choice(mix_names()),
        secthr=rng.choice(SECTHRS),
        detector=detector,
        detector_params=params,
        filter_size=rng.choice(FILTER_SIZES),
        instructions=rng.choice(tuple(benign_instructions)),
        iterations=rng.choice(tuple(attack_iterations)),
        covert_bits=rng.choice(tuple(covert_bits)),
        full=full,
    )


def _tenant_spec(profile: TenantProfile) -> DetectionSpec:
    return DetectionSpec(
        detectors=((profile.detector, dict(profile.detector_params)),),
        response="log",
        log_alarms=False,
    )


def _run_tenant(profile: TenantProfile) -> dict:
    """Simulate one tenant; return a compact primitive record.

    Module-level (pickles to the fan-out workers) and a pure function
    of the profile, so retries and resumes replay bit-identically.
    """
    spec = _tenant_spec(profile)
    config = scaled_system_config(
        profile.full,
        filter_size=profile.filter_size,
        security_threshold=profile.secthr,
    )
    record = {
        "kind": profile.kind,
        "secthr": profile.secthr,
        "detector": detector_desc(
            profile.detector, profile.detector_params
        ),
    }
    if profile.kind == "benign":
        workloads = scaled_mix_workloads(profile.mix, profile.full)
        simulation, _, _ = run_defended_workloads(
            config, workloads, "pipo", seed=profile.seed,
            instructions_per_core=profile.instructions, detection=spec,
        )
    elif profile.kind == "prime_probe":
        outcome = run_prime_probe_attack(
            True, iterations=profile.iterations, seed=profile.seed,
            config=config, detection=spec,
        )
        simulation = outcome.extra["simulation"]
    elif profile.kind == "covert":
        outcome = run_covert_channel(
            "pipo", n_bits=profile.covert_bits, window=COVERT_WINDOW,
            seed=profile.seed, config=config, detection=spec,
        )
        simulation = outcome.simulation
        record["error_rate"] = outcome.error_rate
        record["bandwidth"] = outcome.effective_bandwidth
    else:
        attack = (
            "adaptive_flush_reload" if profile.kind == "adaptive"
            else profile.kind
        )
        outcome = run_flush_attack(
            attack, "pipo", iterations=profile.iterations,
            seed=profile.seed, config=config, detection=spec,
        )
        simulation = outcome.simulation
    detection = simulation.extra["detection"]
    record["verdicts"] = detection["verdicts"]
    record["latency"] = detection["first_detection_latency"]
    record["cycles"] = simulation.max_time
    record["instructions"] = simulation.total_instructions
    # Engine-degradation provenance rides back to the aggregator (the
    # stamp is computed inside the worker, where the fallback actually
    # happened) but is deliberately *excluded* from the digested
    # aggregate state — a toolchain-less host must report its
    # fallbacks without perturbing the bit-identity contract.
    stamp = simulation.extra.get("engine") or {}
    if stamp.get("fallback"):
        record["fallback"] = stamp.get("reason") or "backend unavailable"
    return record


class CampaignAggregate:
    """Online fold of tenant records into fixed-size fleet statistics.

    :meth:`update` is ``run_stream``'s ``consume`` callback; records
    arrive in tenant order, so two campaigns that computed the same
    tenants — serial or parallel, interrupted or not — reach
    bit-identical :meth:`state` and :meth:`digest`.
    """

    def __init__(self) -> None:
        self.tenants = 0
        self.kinds: dict[str, int] = {}
        self.fleet = FleetDetectionStats()
        #: Covert-channel bit error rate (clamped at 1e-4).
        self.ber = QuantileSketch(lo=1e-4, hi=1.0, bins=128)
        #: Covert-channel capacity, effective bits/Mcycle.
        self.capacity = QuantileSketch(lo=1e-3, hi=1e4, bins=192)
        self.cycles = RunningStat()
        self.instructions = RunningStat()
        #: Engine-fallback reasons seen by workers; provenance only —
        #: excluded from :meth:`state` so digests stay engine-blind.
        self.fallbacks: dict[str, int] = {}

    def update(self, index: int, record: dict) -> None:
        """Fold one tenant record (order matters: see class docs)."""
        self.tenants += 1
        kind = record["kind"]
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        reason = record.get("fallback")
        if reason:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
            progress = current_progress()
            if progress is not None:
                progress.note_fallback()
        self.cycles.add(float(record["cycles"]))
        self.instructions.add(float(record["instructions"]))
        if kind == "benign":
            self.fleet.observe_benign(
                record["secthr"], record["detector"], record["verdicts"],
                record["cycles"], record["instructions"],
            )
        else:
            self.fleet.observe_attack(
                kind, record["secthr"], record["detector"],
                record["verdicts"] > 0, record["latency"],
            )
        if "error_rate" in record:
            self.ber.add(record["error_rate"])
            self.capacity.add(record["bandwidth"])

    def state(self) -> dict:
        """Canonical (JSON-safe, bit-reproducible) aggregate state."""
        return {
            "tenants": self.tenants,
            "kinds": dict(sorted(self.kinds.items())),
            "fleet": self.fleet.state(),
            "ber": self.ber.state(),
            "capacity": self.capacity.state(),
            "cycles": self.cycles.state(),
            "instructions": self.instructions.state(),
        }

    def digest(self) -> str:
        """SHA-256 over the canonical state — the bit-identity proof
        used by the resume/fault equivalence tests."""
        import hashlib
        import json

        payload = json.dumps(
            self.state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def run(
    seed: int = 0,
    full: bool | None = None,
    tenants: int = DEFAULT_TENANTS,
    attack_fraction: float = DEFAULT_ATTACK_FRACTION,
    jobs: int | None = None,
    chunk_size: int | None = None,
    benign_instructions=None,
    attack_iterations=None,
    covert_bits=None,
) -> ExperimentResult:
    """Sweep ``tenants`` randomized tenant profiles and report the
    fleet-level detection/FP curves.

    Peak memory is independent of ``tenants``: profiles are generated
    lazily and results fold online (see module docs).
    """
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    full = bool(full)
    if benign_instructions is None:
        benign_instructions = DEFAULT_BENIGN_INSTRUCTIONS
    if attack_iterations is None:
        attack_iterations = DEFAULT_ATTACK_ITERATIONS
    if covert_bits is None:
        covert_bits = DEFAULT_COVERT_BITS
    if full:
        benign_instructions = tuple(
            max(v, 120_000) for v in benign_instructions
        )
        attack_iterations = tuple(max(v, 32) for v in attack_iterations)
        covert_bits = tuple(max(v, 64) for v in covert_bits)

    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        warnings.warn(
            "campaign running serial (jobs=1) — pass --jobs 0 or set "
            "REPRO_JOBS to use every core",
            RuntimeWarning,
            stacklevel=2,
        )

    profiles = (
        sample_profile(
            seed, i,
            attack_fraction=attack_fraction,
            full=full,
            benign_instructions=benign_instructions,
            attack_iterations=attack_iterations,
            covert_bits=covert_bits,
        )
        for i in range(tenants)
    )
    aggregate = CampaignAggregate()
    progress = current_progress()
    if progress is not None:
        # The campaign knows its stream length up front — pre-set the
        # total so the line shows percentage/ETA from the first tenant
        # (run_stream only grows unknown totals).
        progress.set_total(tenants)
        progress.unit = "tenants"
    started = time.perf_counter()
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    with _span("campaign", "grid", tenants=tenants, seed=seed, jobs=jobs):
        stats = run_stream(
            profiles, _run_tenant, aggregate.update,
            jobs=jobs, label="campaign", **kwargs,
        )
    elapsed = time.perf_counter() - started

    result = ExperimentResult(
        "campaign",
        f"fleet campaign: {tenants} tenants at seed {seed}",
    )
    total_kinds = max(1, aggregate.tenants)
    result.add_table(
        "fleet population",
        ["kind", "tenants", "share"],
        [
            [kind, count, round(count / total_kinds, 3)]
            for kind, count in sorted(aggregate.kinds.items())
        ],
    )
    quantile_headers = [f"p{int(q * 100)} latency" for q in QUANTILES]
    result.add_table(
        "detection by (kind, secThr, detector)",
        ["kind", "secThr", "detector", "n", "rate", *quantile_headers],
        aggregate.fleet.detection_rows(),
    )
    result.add_table(
        "benign false positives by (secThr, detector)",
        ["secThr", "detector", "n", "false verdicts",
         "FP/Mcycle", "FP/Minsn"],
        aggregate.fleet.fp_rows(),
    )
    result.add_table(
        "fleet ROC operating points",
        ["secThr", "detector", "min rate", "weakest kind",
         "FP/Mcycle", "tenants"],
        aggregate.fleet.roc_rows(),
    )
    if aggregate.ber.count:
        result.add_note(
            "covert channel across {n} attacking tenants: median BER "
            "{ber}, median capacity {cap} bits/Mcycle".format(
                n=aggregate.ber.count,
                ber=round(aggregate.ber.quantile(0.5), 4),
                cap=round(aggregate.capacity.quantile(0.5), 2),
            )
        )
    result.add_note(
        f"{stats.computed} computed + {stats.loaded} resumed of "
        f"{stats.total} tenants in {stats.chunks} chunk(s), "
        f"{len(stats.failures)} failure(s), jobs={jobs}"
    )
    if stats.failures:
        # End-of-run triage for REPRO_ON_FAILURE=partial: counts by
        # kind, the first lost tenants, and the first worker
        # traceback — a degraded fleet report names its losses.
        for line in summarize_failures(stats.failures):
            result.add_note(line)
        for failure in stats.failures[:3]:
            result.add_note(f"lost: {failure.summary()}")
    if aggregate.fallbacks:
        result.add_note(
            "engine fallbacks: " + "; ".join(
                f"{count} tenant(s): {reason}"
                for reason, count in sorted(aggregate.fallbacks.items())
            )
        )
    if elapsed > 0 and stats.computed:
        result.add_note(
            f"throughput {stats.computed / elapsed:.2f} tenants/sec "
            f"({elapsed:.1f} s wall)"
        )
        telemetry = current_telemetry()
        if telemetry is not None:
            telemetry.gauge(
                "campaign.tenants_per_sec", stats.computed / elapsed
            )
            telemetry.gauge("campaign.wall_seconds", elapsed)
    result.add_note(f"aggregate digest {aggregate.digest()}")

    result.data["aggregate"] = aggregate.state()
    result.data["aggregate_digest"] = aggregate.digest()
    result.data["stream"] = {
        "total": stats.total,
        "computed": stats.computed,
        "loaded": stats.loaded,
        "chunks": stats.chunks,
        "failures": [f.summary() for f in stats.failures],
        "failure_kinds": failure_kinds(stats.failures),
    }
    result.data["fallbacks"] = dict(sorted(aggregate.fallbacks.items()))
    result.data["population"] = {
        "tenants": tenants,
        "seed": seed,
        "attack_fraction": attack_fraction,
        "full": full,
    }
    return result


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
