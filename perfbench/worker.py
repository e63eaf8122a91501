"""One benchmark worker: a fresh interpreter that runs one workload
under one engine.

``run.py`` starts it with ``REPRO_ENGINE`` set and a private engine
cache, and drives it over stdin/stdout with one JSON line per command
and one JSON line per reply:

* at start the worker sets up — imports, the workload's inputs, and a
  warm-up round that builds the C extension (under ``c``) and the
  first kernels — and replies ``{"ready": ...}``; the parent's clock
  from process start to this line is the set-up time;
* ``{"cmd": "round", "index": r}`` runs round ``r`` (only the call into
  the program is timed) and replies with its timing, work, failures,
  output digest and modelled metrics;
* ``{"cmd": "stop"}`` replies with peak RSS, engine fallbacks and, in a
  traced worker, the per-layer trace; then the worker exits.

Anything the program prints goes to stderr, so stdout carries only
the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Telemetry counters the kernels publish (``repro.obs.telemetry``).
ENGINE_COUNTERS = (
    "engine.llc_fills", "engine.llc_evictions", "engine.monitor_probes",
    "engine.captures", "engine.kick_steps",
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def simulation_counter(tracer, counts):
    """Per-simulation work counts for the traced run."""

    def on_result(result):
        if not tracer.in_round:
            return
        stats = result.stats
        counts["cpu.instructions"] += result.total_instructions
        counts["cpu.mem_ops"] += sum(result.core_memory_ops)
        for field in ("l1_hits", "l1_misses", "llc_hits", "llc_misses",
                      "flushes"):
            counts[f"cache.{field}"] += getattr(stats, field)
        monitor = result.monitor_stats
        if monitor is not None:
            counts["core.captures"] += getattr(monitor, "captures", 0)
            issued = getattr(monitor, "prefetches_issued", 0)
            counts["core.prefetches"] += issued
            # Paper Section VII-B: a prefetch on a benign workload is a
            # false positive (fig8 runs only benign mixes).
            if tracer.tenant_kind in (None, "benign"):
                counts["core.false_positives"] += issued
        detection = result.extra.get("detection")
        if detection is not None:
            counts["detection.alarms"] += detection.get("alarms_seen", 0)

    return on_result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(message: dict) -> None:
        proto.write(json.dumps(message) + "\n")
        proto.flush()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    with warnings.catch_warnings(record=True) as caught:
        try:
            from repro.engine import (
                EngineFallbackWarning, effective_engine, engine_name,
            )
            from workloads import WORKLOADS, digest_of, hook_simulations

            warnings.simplefilter("always", EngineFallbackWarning)
            workload = WORKLOADS[args.workload](args.seed)
            tracer = telemetry = None
            counts = None
            if args.trace_out:
                from collections import Counter

                from repro.obs.telemetry import Telemetry, attach_telemetry
                from tracer import Tracer

                telemetry = attach_telemetry(Telemetry())
                tracer = Tracer()
                tracer.install()
                counts = Counter()
                hook_simulations(simulation_counter(tracer, counts))
            workload.warmup()
            effective = effective_engine()
            baseline = {}
            if tracer is not None:
                baseline = {n: telemetry.counter(n) for n in ENGINE_COUNTERS}
        except Exception:
            send({"ready": False, "error": traceback.format_exc()})
            return 1

        def fallbacks() -> list[str]:
            return [str(w.message) for w in caught
                    if issubclass(w.category, EngineFallbackWarning)]

        send({"ready": True, "engine": engine_name(),
              "effective": effective, "fallbacks": fallbacks()})

        model0 = None
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "stop":
                break
            index = command["index"]
            inputs = workload.prepare(index)
            gc.collect()
            start = time.perf_counter()
            try:
                if tracer is not None:
                    raw = tracer.measure_round(workload.run, inputs)
                else:
                    raw = workload.run(inputs)
            except Exception as exc:  # a failed round, reported below
                raw = exc
            seconds = time.perf_counter() - start
            checked = workload.check(raw)
            if counts is not None:
                counts.update(checked.counts)
            if model0 is None:
                model0 = checked.model
            send({
                "index": index,
                "seconds": seconds,
                "work": checked.work,
                "attempted": checked.attempted,
                "failed": checked.failed,
                "digest": digest_of(checked.outputs),
                "outputs": checked.outputs if index == 0 else None,
                "model": checked.model,
                "errors": checked.errors[:5],
                "provenance_ok": checked.provenance_ok,
                "peak_rss_mb": peak_rss_mb(),
            })

        report = {"peak_rss_mb": peak_rss_mb(), "fallbacks": fallbacks()}
        if tracer is not None:
            for name in ENGINE_COUNTERS:
                counts[name] = telemetry.counter(name) - baseline[name]
            counts.update(tracer.counts)
            tracer.write_chrome_trace(args.trace_out)
            report["trace"] = {
                "wall_s": tracer.wall_s,
                "layers": tracer.layer_self_s(),
                "self_s": dict(tracer.self_s),
                "calls": dict(tracer.calls),
                "counts": dict(counts),
                "tenant_ms": tracer.tenant_ms,
                "spans": len(tracer.spans),
                "model": model0,
            }
        send(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
