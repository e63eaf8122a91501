"""The benchmark's workloads: inputs from the seed, one timed round,
and the outputs the correctness check compares.

Each workload is a class with the same four steps, driven by
``worker.py``:

* ``__init__(seed)`` keeps the benchmark seed; nothing is simulated;
* ``prepare(index)`` builds round ``index``'s inputs (untimed): the
  round seed for the simulator workloads, the key arrays for ``lsm``;
* ``run(inputs)`` is the timed call into the program;
* ``check(raw)`` (untimed) turns the raw result into a :class:`Round`:
  work completed, operations attempted and failed, the outputs the two
  engines must agree on, and the modelled-design metrics.

Round ``r`` of seed ``S`` uses the inputs of ``round_seed(S, r)``, so
the two engines run identical rounds and a run averages over several
inputs.  The modelled caches start empty in every round, as in the
experiments.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from array import array

#: Fig. 8 cell size: simulated instructions per core, for each of the
#: baseline and the monitored run.
FIG8_INSTRUCTIONS = 100_000
FIG8_MIX = "mix1"
FIG8_FILTER = (1024, 8)

#: Campaign round: one benign-only and one attacker-only streamed
#: campaign.  Splitting by kind fixes the round's benign:attacker
#: ratio at 3:1 (the campaign default), so a round's cost does not
#: swing with a binomial draw of attackers.  Budgets are the ones
#: ``benchmarks/bench_hotpath.py`` pins (about 10^4 instructions).
CAMPAIGN_BENIGN = 24
CAMPAIGN_ATTACK = 8
CAMPAIGN_BUDGETS = dict(
    benign_instructions=(6_000, 12_000),
    attack_iterations=(6, 10),
    covert_bits=(8, 12),
    chunk_size=16,
)

#: LSM round: two trees over the same key arrays, one per target fpp.
#: 1e-3 derives 4-entry buckets and f=13 fingerprints (C batch kernels
#: under ``c``); 1e-4 derives f=17 (per-key Python on every engine).
LSM_FPPS = (1e-3, 1e-4)
LSM_KEYS = 20_000
LSM_MEMTABLE = 1024
LSM_LEVELS = 3
LSM_FANOUT = 4
LSM_BATCH = 4096
LSM_THETA = 0.8
LSM_PROBES = 20_000


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index``: derived here, outside the program,
    so a change to the program's own seed derivation cannot silently
    change the benchmark's inputs."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def digest_of(outputs) -> str:
    payload = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass
class Round:
    """One checked round (everything but the timing)."""

    work: int
    attempted: int
    failed: int
    outputs: dict
    model: dict
    errors: list
    #: False when the round ran on another engine than requested.
    provenance_ok: bool = True
    #: Deterministic workload-level work counts for the traced run.
    counts: dict = dataclasses.field(default_factory=dict)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def hook_simulations(on_result) -> None:
    """Call ``on_result`` with every ``MulticoreSystem.run`` result —
    one extra Python call per simulation, never per access."""
    from repro.cpu.multicore import MulticoreSystem

    original = MulticoreSystem.run

    def run(system, *args, **kwargs):
        result = original(system, *args, **kwargs)
        on_result(result)
        return result

    MulticoreSystem.run = run


class SimulationLog:
    """Collects every simulation result of a round (Fig. 8's result
    table does not carry the ``AccessStats`` the check compares)."""

    def __init__(self):
        self.results = []
        hook_simulations(self.results.append)

    def take(self) -> list:
        results = list(self.results)
        self.results.clear()
        return results


def simulation_outputs(result) -> dict:
    monitor = result.monitor_stats
    return {
        "core_times": list(result.core_times),
        "core_instructions": list(result.core_instructions),
        "core_memory_ops": list(result.core_memory_ops),
        "access_stats": dataclasses.asdict(result.stats),
        "monitor_stats": (
            None if monitor is None else dataclasses.asdict(monitor)
        ),
    }


class Fig8Mix:
    """One long Fig. 8 cell: mix1 at l=1024,b=8 on the scaled system,
    the no-monitor baseline plus the monitored run.  Work is simulated
    instructions; the attempted operation is the cell."""

    name = "fig8-mix"
    work_unit = "simulated instructions"
    operation = "fig8 cells"
    #: Reported throughput: (name, divisor of items/s, unit).
    throughput = ("sim_minsn_per_s", 1e6, "Minsn/s")
    model_units = {"norm_perf": "ratio", "fp_per_minsn": "1/Minsn"}
    warmup_instructions = 2_000
    trace_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.log = SimulationLog()

    def prepare(self, index: int) -> dict:
        return {"seed": round_seed(self.seed, index),
                "instructions": FIG8_INSTRUCTIONS}

    def warmup(self) -> None:
        self.run({"seed": round_seed(self.seed, 0),
                  "instructions": self.warmup_instructions})
        self.log.take()

    def run(self, inputs: dict):
        from repro.experiments import fig8_performance

        return fig8_performance.run(
            seed=inputs["seed"], mixes=[FIG8_MIX],
            filter_sizes=(FIG8_FILTER,),
            instructions=inputs["instructions"], jobs=1,
        )

    def check(self, raw) -> Round:
        from repro.engine import engine_name

        sims = self.log.take()
        if isinstance(raw, BaseException):
            return Round(0, 1, 1, {}, {}, [_error(raw)])
        key = (FIG8_MIX, FIG8_FILTER)
        normalized = raw.data["normalized"][key]
        fp = raw.data["false_positives"][key]
        outputs = {
            "normalized": normalized,
            "false_positives_per_minsn": fp,
            "simulations": [simulation_outputs(s) for s in sims],
        }
        provenance = all(
            s.extra.get("engine", {}).get("effective") == engine_name()
            for s in sims
        ) and len(sims) == 2
        return Round(
            work=sum(s.total_instructions for s in sims),
            attempted=1, failed=0, outputs=outputs,
            model={"norm_perf": normalized, "fp_per_minsn": fp},
            errors=[], provenance_ok=provenance,
        )


class Campaign:
    """A streamed fleet campaign of short tenants with detection on:
    a benign-only and an attacker-only ``campaign.run`` per round (the
    attackers are Flush+Reload, Flush+Flush, Prime+Probe, covert and
    adaptive, on the generator path).  Work and attempted operations
    are tenants."""

    name = "campaign"
    work_unit = "tenants"
    operation = "tenants"
    throughput = ("tenants_per_s", 1.0, "tenants/s")
    model_units = {"detect_rate": "ratio", "fp_per_mcycle": "1/Mcycle"}
    trace_rounds = 7

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, index: int) -> dict:
        base = round_seed(self.seed, index)
        return {"benign_seed": base, "attack_seed": base ^ 0xA77AC4,
                "benign": CAMPAIGN_BENIGN, "attack": CAMPAIGN_ATTACK}

    def warmup(self) -> None:
        inputs = self.prepare(0)
        self.run(dict(inputs, benign=4, attack=4))

    def run(self, inputs: dict):
        from repro.experiments import campaign

        with warnings.catch_warnings():
            # campaign.run warns that jobs=1 is serial; serial is the
            # point here (one process, no pool).
            warnings.simplefilter("ignore", RuntimeWarning)
            benign = campaign.run(
                seed=inputs["benign_seed"], tenants=inputs["benign"],
                attack_fraction=0.0, jobs=1, **CAMPAIGN_BUDGETS,
            )
            attack = campaign.run(
                seed=inputs["attack_seed"], tenants=inputs["attack"],
                attack_fraction=1.0, jobs=1, **CAMPAIGN_BUDGETS,
            )
        return benign, attack

    def check(self, raw) -> Round:
        attempted = CAMPAIGN_BENIGN + CAMPAIGN_ATTACK
        if isinstance(raw, BaseException):
            return Round(0, attempted, attempted, {}, {}, [_error(raw)])
        benign, attack = raw
        failed = 0
        errors = []
        provenance = True
        for result in raw:
            stream = result.data["stream"]
            failed += len(stream["failures"])
            errors += stream["failures"][:3]
            if result.data["fallbacks"]:
                provenance = False
                errors += [f"engine fallback: {reason}"
                           for reason in result.data["fallbacks"]]
        fleet_attack = attack.data["aggregate"]["fleet"]["attack"]
        fleet_benign = benign.data["aggregate"]["fleet"]["benign"]
        detected = sum(s["detected"] for s in fleet_attack.values())
        attackers = sum(s["n"] for s in fleet_attack.values())
        verdicts = sum(s["verdicts"] for s in fleet_benign.values())
        cycles = sum(s["cycles"] for s in fleet_benign.values())
        outputs = {
            "benign_digest": benign.data["aggregate_digest"],
            "attack_digest": attack.data["aggregate_digest"],
            "failures": failed,
        }
        return Round(
            work=attempted - failed, attempted=attempted, failed=failed,
            outputs=outputs,
            model={
                "detect_rate": detected / max(1, attackers),
                "fp_per_mcycle": verdicts * 1_000_000 / max(1, cycles),
            },
            errors=errors, provenance_ok=provenance,
        )


class LSM:
    """Two ``LSMFilterTree``s (fpp 1e-3 and 1e-4) driven through
    ``put_many``/``get_many``/``false_positive_counts``/``delete_many``
    over key arrays generated before timing.  Work is filter
    operations (every put, every compaction re-insert, and every
    get/probe/delete key at every level); the attempted operation is
    the batch."""

    name = "lsm"
    work_unit = "filter operations"
    operation = "LSM batches"
    throughput = ("filter_mops_per_s", 1e6, "Mops/s")
    model_units = {"measured_fpp": "ratio"}
    trace_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, index: int, keys: int = LSM_KEYS,
                probes: int = LSM_PROBES) -> dict:
        from repro.utils.rng import derive_seed
        from repro.workloads.lsm import ZipfRanks, resident_key

        base = round_seed(self.seed, index)
        salt = derive_seed(base, "resident-keys")

        def key_batches(ranks):
            keys_ = array("Q", (resident_key(r, salt) for r in ranks))
            return [keys_[i:i + LSM_BATCH]
                    for i in range(0, len(keys_), LSM_BATCH)]

        gets = ZipfRanks(theta=LSM_THETA, seed=derive_seed(base, "gets"))
        deletes = ZipfRanks(theta=LSM_THETA,
                            seed=derive_seed(base, "deletes"))
        return {
            "tree_seed": derive_seed(base, "tree"),
            "puts": key_batches(range(keys)),
            "gets": key_batches(gets.draw(keys // 2, keys)),
            "deletes": key_batches(deletes.draw(keys // 10, keys)),
            "probes": probes,
        }

    def warmup(self) -> None:
        self.run(self.prepare(0, keys=2 * LSM_MEMTABLE, probes=1024))

    @staticmethod
    def batches(inputs: dict) -> int:
        """Batch calls per tree: puts, the final flush, gets, one
        false-positive probe, deletes."""
        return (len(inputs["puts"]) + 1 + len(inputs["gets"]) + 1
                + len(inputs["deletes"]))

    def run(self, inputs: dict):
        from repro.workloads.lsm import LSMFilterTree

        trees = []
        for fpp in LSM_FPPS:
            try:
                tree = LSMFilterTree(
                    memtable_size=LSM_MEMTABLE, fanout=LSM_FANOUT,
                    levels=LSM_LEVELS, fpp=fpp, seed=inputs["tree_seed"],
                )
                for batch in inputs["puts"]:
                    tree.put_many(batch)
                tree.flush_pending()
                gets = [0] * LSM_LEVELS
                for batch in inputs["gets"]:
                    for depth, count in enumerate(tree.get_many(batch)):
                        gets[depth] += count
                false_positives = tree.false_positive_counts(
                    inputs["probes"])
                removed = sum(tree.delete_many(batch)
                              for batch in inputs["deletes"])
                trees.append((fpp, tree, gets, false_positives, removed))
            except Exception as exc:  # counted as failed batches
                trees.append((fpp, exc))
        return inputs, trees

    def check(self, raw) -> Round:
        from repro.engine import engine_name

        inputs, trees = raw
        per_tree = self.batches(inputs)
        attempted = per_tree * len(LSM_FPPS)
        failed = 0
        work = 0
        errors = []
        outputs = {}
        worst_fpp = 0.0
        provenance = True
        for entry in trees:
            fpp = entry[0]
            if isinstance(entry[1], BaseException):
                failed += per_tree
                errors.append(_error(entry[1]))
                continue
            _, tree, gets, false_positives, removed = entry
            stats = tree.stats()
            get_keys = sum(len(b) for b in inputs["gets"])
            delete_keys = sum(len(b) for b in inputs["deletes"])
            work += (stats["puts"] + stats["rebuilt_keys"]
                     + (get_keys + inputs["probes"] + delete_keys)
                     * len(tree.levels))
            worst_fpp = max(worst_fpp, max(false_positives)
                            / inputs["probes"])
            outputs[f"fpp={fpp:g}"] = {
                "filter_digests": tree.filter_digests(),
                "stats": stats,
                "gets": gets,
                "false_positives": false_positives,
                "removed": removed,
            }
            # Provenance: under c the f<=16 filters must sit on the C
            # batch kernels (f=17 falls back by design on every engine).
            for level in tree.levels:
                flt = level.filter
                on_c = getattr(flt, "_c_state", None) is not None
                wants_c = (engine_name() == "c"
                           and flt.hasher.fingerprint_bits <= 16)
                if on_c != wants_c:
                    provenance = False
        return Round(
            work=work, attempted=attempted, failed=failed,
            outputs=outputs, model={"measured_fpp": worst_fpp},
            errors=errors, provenance_ok=provenance,
            counts={
                "workloads.lsm_compactions": sum(
                    o["stats"]["compactions"] for o in outputs.values()),
                "workloads.lsm_rebuilt_keys": sum(
                    o["stats"]["rebuilt_keys"] for o in outputs.values()),
            },
        )


WORKLOADS = {cls.name: cls for cls in (Fig8Mix, Campaign, LSM)}
