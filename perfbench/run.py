"""End-to-end benchmark of the PiPoMonitor reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig8-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload campaign --seed 1 --trace 1

The simulator is a batch program with one caller, so the benchmark is a
closed loop and its throughput is work completed per host second at
the stated round size (``workloads.py``), pooled over the rounds.
Each run measures one workload under both engines, ``c`` and
``specialized``, each in its own fresh interpreter (``worker.py``),
serially: the two workers take turns for ``--seconds`` seconds, each
about half of it.  Before that, ``setup_s``
is measured three times from a fresh interpreter with an empty private
engine cache (imports, the cffi build, inputs, first kernels) and the
median is reported.

Every round is checked: both engines must give the same outputs, and
round 0 of the default seed must equal the stored expected outputs
(``expected.json``).  A mismatch, an exception or a failed cell counts
as failed operations against those attempted.  A ``c`` worker that
degrades to another engine fails every ``.c`` metric.

``--trace 1`` runs the per-layer measurement instead (engine ``c``,
fixed rounds): one untraced worker and two traced ones.  The traced
workers wrap the program's public functions (``tracer.py``); the two
traced runs must report identical work counts and modelled metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, stamped
with the host and the source revision, goes to
``.bench_build/perfbench/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
import uuid
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

ENGINES = ("c", "specialized")
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_SAMPLES = 3
MIN_ROUNDS = 3
#: Wall-clock budget of one workload's run: rounds stop well before
#: it, so the whole run ends inside 180 s.
DEADLINE_S = 165.0

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = (
    ("workloads.emit_s", "s", "lower"),
    ("workloads.records", "count", "lower"),
    ("workloads.lsm_tree_self_s", "s", "lower"),
    ("workloads.lsm_compactions", "count", "lower"),
    ("workloads.lsm_rebuilt_keys", "count", "lower"),
    ("cpu.run_self_s", "s", "lower"),
    ("cpu.assemble_self_s", "s", "lower"),
    ("cpu.mem_ops", "count", "higher"),
    ("cpu.instructions", "count", "higher"),
    ("engine.bind_s", "s", "lower"),
    ("engine.sync_s", "s", "lower"),
    ("engine.binds", "count", "lower"),
    ("engine.syncs", "count", "lower"),
    ("engine.fixed_cost_pct", "%", "lower"),
    ("engine.llc_fills", "count", "lower"),
    ("engine.llc_evictions", "count", "lower"),
    ("engine.monitor_probes", "count", "lower"),
    ("engine.captures", "count", "lower"),
    ("engine.kick_steps", "count", "lower"),
    ("cache.build_s", "s", "lower"),
    ("cache.l1_hit_ratio", "ratio", "higher"),
    ("cache.llc_miss_ratio", "ratio", "lower"),
    ("cache.flushes", "count", "lower"),
    ("filters.build_s", "s", "lower"),
    ("filters.builds", "count", "lower"),
    ("filters.insert_s.narrow", "s", "lower"),
    ("filters.insert_s.wide", "s", "lower"),
    ("filters.query_s.narrow", "s", "lower"),
    ("filters.query_s.wide", "s", "lower"),
    ("filters.delete_s.narrow", "s", "lower"),
    ("filters.delete_s.wide", "s", "lower"),
    ("filters.batch_keys.narrow", "count", "higher"),
    ("filters.batch_keys.wide", "count", "higher"),
    ("core.captures", "count", "lower"),
    ("core.prefetches", "count", "lower"),
    ("core.false_positives", "count", "lower"),
    ("attacks.self_s", "s", "lower"),
    ("detection.deploy_s", "s", "lower"),
    ("detection.alarms", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.stream_overhead_s", "s", "lower"),
    ("experiments.campaign_runs", "count", "higher"),
    ("experiments.tenant_p50_ms", "ms", "lower"),
    ("experiments.tenant_p95_ms", "ms", "lower"),
    ("experiments.tenant_samples", "count", "higher"),
    ("obs.traced_wall_s", "s", "lower"),
    ("obs.unattributed_s", "s", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.spans", "count", "lower"),
    ("model.norm_perf", "ratio", "higher"),
    ("model.fp_per_minsn", "1/Minsn", "lower"),
    ("model.detect_rate", "ratio", "higher"),
    ("model.fp_per_mcycle", "1/Mcycle", "lower"),
    ("model.measured_fpp", "ratio", "lower"),
)


class WorkerError(RuntimeError):
    pass


class Worker:
    """A ``worker.py`` process, driven one JSON line at a time."""

    def __init__(self, workload, engine, seed, deadline, cache,
                 trace_out=None):
        self.deadline = deadline
        self.name = f"{workload}-{engine}-{uuid.uuid4().hex[:8]}"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(
            REPRO_ENGINE=engine,
            REPRO_ENGINE_CACHE=str(cache),
            # A failed tenant is reported by the campaign, not raised,
            # so it counts as one failed operation.
            REPRO_ON_FAILURE="partial",
            TMPDIR=str(WORK / "tmp"),
        )
        env.pop("PYTHONPATH", None)
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(seed)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.log_path = WORK / "logs" / f"{self.name}.log"
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.setup_s = None

    def _read(self) -> dict:
        left = self.deadline - time.perf_counter()
        if left <= 0 or not select.select([self.proc.stdout], [], [],
                                          left)[0]:
            raise WorkerError(f"{self.name}: no reply before the deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"{self.name}: exited early\n{self.log_tail()}")
        return json.loads(line)

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        text = self.log_path.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])

    def ready(self) -> dict:
        reply = self._read()
        self.setup_s = time.perf_counter() - self.started
        if not reply.get("ready"):
            raise WorkerError(f"{self.name}: set-up failed\n"
                              f"{reply.get('error', '')}")
        return reply

    def call(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.call({"cmd": "stop"})
        self.close()
        return reply

    def close(self) -> None:
        """Stop the process (politely, then by force) and wait for it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Workers:
    """Every worker a run starts, so all of them are stopped on exit."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.started: list[Worker] = []
        self.caches: list[Path] = []

    def fresh_cache(self) -> Path:
        cache = WORK / "engine-cache" / uuid.uuid4().hex
        self.caches.append(cache)
        return cache

    def start(self, workload, engine, seed, cache=None, trace_out=None):
        worker = Worker(workload, engine, seed, self.deadline,
                        cache or self.fresh_cache(), trace_out)
        self.started.append(worker)
        return worker

    def close(self) -> None:
        for worker in self.started:
            worker.close()
        for cache in self.caches:
            shutil.rmtree(cache, ignore_errors=True)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def host_stamp() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = str(sysconfig.get_config_var("CC") or "cc").split()[0]
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=10)
        compiler = out.stdout.splitlines()[0] if out.stdout else compiler
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": compiler,
    }


def source_stamp() -> dict:
    """The git revision when the tree is a repository, and always a
    digest of the program's source files (a checkout without git still
    identifies the code it measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def first_difference(a, b, path="") -> str:
    """Where two JSON values first differ (for the failure message)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                return first_difference(a.get(key), b.get(key),
                                        f"{path}/{key}")
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return first_difference(x, y, f"{path}[{i}]")
    return f"{path or '/'}: {a!r} != {b!r}"


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, deadline: float):
    expected = load_expected()
    stored = (expected["workloads"].get(workload)
              if seed == expected["default_seed"] else None)
    workers = Workers(deadline)
    problems: list[str] = []
    rounds = {engine: [] for engine in ENGINES}
    ready = {}
    final = {}
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            probe = workers.start(workload, "c", seed)
            probe.ready()
            setup.append(probe.setup_s)
            probe.stop()
        pair = {}
        for engine in ENGINES:
            pair[engine] = workers.start(workload, engine, seed)
            ready[engine] = pair[engine].ready()
        setup.append(pair["c"].setup_s)

        # The engine that has used less time runs the next round, so
        # each gets about half of the measured time and the faster one
        # runs more rounds.  Both run rounds 0, 1, 2, ... in order.
        spent = dict.fromkeys(ENGINES, 0.0)
        longest = 0.0
        started = time.perf_counter()
        while True:
            now = time.perf_counter()
            short = [e for e in ENGINES if len(rounds[e]) < MIN_ROUNDS]
            if now + 2 * longest + 10 > deadline:
                if short:
                    problems.append(f"deadline reached before "
                                    f"{MIN_ROUNDS} rounds of {short}")
                break
            if now - started >= seconds:
                if not short:
                    break
                engine = short[0]
            else:
                engine = min(ENGINES, key=spent.get)
            reply = pair[engine].call(
                {"cmd": "round", "index": len(rounds[engine])})
            took = time.perf_counter() - now
            spent[engine] += took
            longest = max(longest, took)
            rounds[engine].append(reply)
        for engine, worker in pair.items():
            final[engine] = worker.stop()
    except WorkerError as exc:
        problems.append(str(exc))
    finally:
        workers.close()

    attempted = failed = 0
    failed_engines = set()
    for engine in ENGINES:
        info = ready.get(engine, {})
        end = final.get(engine, {})
        fallbacks = info.get("fallbacks", []) + end.get("fallbacks", [])
        if info and (info.get("effective") != engine or fallbacks):
            failed_engines.add(engine)
            problems.append(f"engine {engine} degraded to "
                            f"{info.get('effective')}: {fallbacks}")
        for r in rounds[engine]:
            if not r["provenance_ok"]:
                failed_engines.add(engine)
                problems.append(f"{engine} round {r['index']} did not run "
                                f"on the {engine} engine")
            problems += [f"{engine} round {r['index']}: {e}"
                         for e in r["errors"]]
    for engine in ENGINES:
        for r in rounds[engine]:
            attempted += r["attempted"]
            if engine in failed_engines:
                r["failed"] = r["attempted"]
    for c_round, s_round in zip(rounds["c"], rounds["specialized"]):
        if c_round["digest"] != s_round["digest"]:
            problems.append(f"round {c_round['index']}: c and specialized "
                            "outputs differ")
            c_round["failed"] = c_round["attempted"]
            s_round["failed"] = s_round["attempted"]
    if stored is not None:
        for engine in ENGINES:
            r0 = rounds[engine][0] if rounds[engine] else None
            if r0 is not None and r0["outputs"] != stored["outputs"]:
                problems.append(
                    f"{engine} round 0 differs from the expected outputs: "
                    + first_difference(r0["outputs"], stored["outputs"]))
                r0["failed"] = r0["attempted"]
    failed = sum(r["failed"] for e in ENGINES for r in rounds[e])
    if not attempted:
        attempted = 1
        failed = 1
    correct = not problems and failed == 0

    metrics = {"setup_s": {"value": statistics.median(setup)
                           if setup else None, "unit": "s"}}
    named = {"setup_s": (metrics["setup_s"]["value"], "s")}
    tname, scale, tunit = WORKLOADS[workload].throughput
    for engine in ENGINES:
        ok = (engine not in failed_engines
              and len(rounds[engine]) >= MIN_ROUNDS)
        # Work completed per second over all rounds: the rounds' inputs
        # differ (a campaign round's tenant mix most), and the pooled
        # rate weighs every round by its work.
        rate = (sum(r["work"] for r in rounds[engine])
                / sum(r["seconds"] for r in rounds[engine])) if ok else None
        # Peak RSS after a fixed amount of work (the first MIN_ROUNDS
        # rounds), so a run that fits more rounds does not read higher.
        rss = rounds[engine][MIN_ROUNDS - 1]["peak_rss_mb"] if ok else None
        metrics[f"throughput.{engine}"] = {"value": rate, "unit": "items/s"}
        metrics[f"peak_rss_mb.{engine}"] = {"value": rss, "unit": "MB"}
        named[f"{tname}.{engine}"] = (
            None if rate is None else rate / scale, tunit)
        named[f"peak_rss_mb.{engine}"] = (rss, "MB")
    model = rounds["c"][0]["model"] if rounds["c"] else {}
    for name, unit in WORKLOADS[workload].model_units.items():
        named[name] = (model.get(name), unit)

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "setup_samples_s": setup,
        "rounds": {e: [{k: r[k] for k in ("index", "seconds", "work",
                                          "attempted", "failed", "digest",
                                          "model")}
                       for r in rounds[e]] for e in ENGINES},
        "engines": {e: ready.get(e, {}).get("effective") for e in ENGINES},
        "named_metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in named.items()},
        "problems": problems,
    }
    lines = [f"== {workload} (seed {seed}): "
             f"{len(rounds['c'])} c and {len(rounds['specialized'])} "
             f"specialized rounds, "
             f"{len(setup)} set-up samples ==",
             f"  operations ({WORKLOADS[workload].operation}): "
             f"{attempted} attempted, {failed} failed; throughput items "
             f"are {WORKLOADS[workload].work_unit}"]
    for name, (value, unit) in named.items():
        shown = "FAILED" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<28} {shown:>14} {unit}")
    lines += [f"  problem: {p}" for p in problems]
    result = {"correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines, detail


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------

def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(report: dict) -> dict:
    """Per-layer metric values from one traced worker's report."""
    self_s = report["self_s"]
    calls = report["calls"]
    counts = report["counts"]
    model = report.get("model") or {}
    wall = report["wall_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "workloads.emit_s": self_s.get("workloads.emit", 0.0),
        "workloads.lsm_tree_self_s": self_s.get("workloads.lsm_tree", 0.0),
        "cpu.run_self_s": self_s.get("cpu.run", 0.0),
        "cpu.assemble_self_s": self_s.get("cpu.assemble", 0.0),
        "attacks.self_s": self_s.get("attacks.run", 0.0),
        "engine.bind_s": self_s.get("engine.bind", 0.0),
        "engine.sync_s": self_s.get("engine.sync", 0.0),
        "engine.binds": calls.get("engine.bind", 0),
        "engine.syncs": calls.get("engine.sync", 0),
        "engine.fixed_cost_pct": 100.0 * ratio(
            self_s.get("engine.bind", 0.0) + self_s.get("engine.sync", 0.0)
            + self_s.get("filters.build", 0.0), wall),
        "cache.build_s": self_s.get("cache.build", 0.0),
        "cache.l1_hit_ratio": ratio(
            counts.get("cache.l1_hits", 0),
            counts.get("cache.l1_hits", 0) + counts.get("cache.l1_misses", 0)),
        "cache.llc_miss_ratio": ratio(
            counts.get("cache.llc_misses", 0),
            counts.get("cache.llc_hits", 0)
            + counts.get("cache.llc_misses", 0)),
        "filters.build_s": self_s.get("filters.build", 0.0),
        "filters.builds": calls.get("filters.build", 0),
        "detection.deploy_s": self_s.get("detection.deploy", 0.0),
        "experiments.self_s": sum(v for k, v in self_s.items()
                                  if k.startswith("experiments.")),
        "experiments.stream_overhead_s": self_s.get(
            "experiments.campaign_run", 0.0),
        "experiments.campaign_runs": calls.get("experiments.campaign_run", 0),
        "obs.traced_wall_s": wall,
        "obs.unattributed_s": report["layers"].get("unattributed", 0.0),
        "obs.spans": report["spans"],
    }
    for op in ("insert", "query", "delete"):
        for width in ("narrow", "wide"):
            values[f"filters.{op}_s.{width}"] = self_s.get(
                f"filters.{op}.{width}", 0.0)
    for name, _, _ in PER_LAYER:
        if name.startswith("model."):
            values[name] = model.get(name.split(".", 1)[1], 0.0)
        elif name not in values:
            values[name] = counts.get(name, 0)
    return values


def deterministic_part(report: dict) -> dict:
    return {"counts": report["counts"], "calls": report["calls"],
            "model": report.get("model"), "spans": report["spans"]}


def trace(workload: str, seed: int, deadline: float):
    rounds_n = WORKLOADS[workload].trace_rounds
    workers = Workers(deadline)
    cache = workers.fresh_cache()
    problems: list[str] = []
    runs = []
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    labels = ("untraced", "traced-1", "traced-2")
    try:
        started = []
        for label in labels:
            out = (None if label == "untraced"
                   else trace_dir / f"{workload}-seed{seed}-{label}.json")
            worker = workers.start(workload, "c", seed, cache=cache,
                                   trace_out=out)
            info = worker.ready()
            if info["effective"] != "c" or info["fallbacks"]:
                problems.append(f"engine c degraded: {info}")
            started.append(worker)
        rounds = [[] for _ in labels]
        # Rounds rotate through the three workers, so a slow spell of
        # the host lands on traced and untraced rounds alike.
        for i in range(rounds_n):
            for k in range(len(labels)):
                j = (i + k) % len(labels)
                rounds[j].append(
                    started[j].call({"cmd": "round", "index": i}))
        for label, worker, rs in zip(labels, started, rounds):
            runs.append((label, rs, worker.stop()))
    except WorkerError as exc:
        problems.append(str(exc))
    finally:
        workers.close()

    attempted = sum(r["attempted"] for _, rs, _ in runs for r in rs) or 1
    failed = sum(r["failed"] for _, rs, _ in runs for r in rs)
    for _, rs, _ in runs:
        for r in rs:
            problems += [f"round {r['index']}: {e}" for e in r["errors"]]
    if len(runs) == 3:
        digests = [[r["digest"] for r in rs] for _, rs, _ in runs]
        if not digests[0] == digests[1] == digests[2]:
            problems.append("tracing changed the outputs")
            failed = attempted
        one, two = runs[1][2]["trace"], runs[2][2]["trace"]
        if deterministic_part(one) != deterministic_part(two):
            problems.append(
                "two traced runs of the same seed report different work "
                "counts: " + first_difference(deterministic_part(one),
                                              deterministic_part(two)))
            failed = attempted
    correct = not problems and failed == 0

    metrics = {}
    lines = [f"== {workload} (seed {seed}): traced per-layer run, engine c, "
             f"{rounds_n} rounds =="]
    if len(runs) == 3:
        untraced_s = sum(r["seconds"] for r in runs[0][1])
        reports = [runs[1][2]["trace"], runs[2][2]["trace"]]
        per_run = [layer_metrics(rep) for rep in reports]
        # Times are the mean of the two traced runs; counts are equal.
        values = {name: (per_run[0][name] + per_run[1][name]) / 2
                  if isinstance(per_run[0][name], float)
                  else per_run[0][name] for name in per_run[0]}
        traced_s = sum(r["seconds"] for r in runs[1][1] + runs[2][1]) / 2
        values["obs.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1)
        tenants = reports[0]["tenant_ms"] + reports[1]["tenant_ms"]
        values["experiments.tenant_p50_ms"] = percentile(tenants, 0.50)
        values["experiments.tenant_p95_ms"] = percentile(tenants, 0.95)
        values["experiments.tenant_samples"] = len(tenants)
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}

        layers = {}
        for rep in reports:
            for layer, secs in rep["layers"].items():
                layers[layer] = layers.get(layer, 0.0) + secs / 2
        total = sum(layers.values())
        lines.append(f"  per-layer self time (mean of 2 traced runs; "
                     f"untraced wall {untraced_s:.3f} s)")
        for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            name = (f"{layer}_s" if layer == "unattributed"
                    else f"{layer} (layer)")
            lines.append(f"  {name:<28} {secs:>10.4f} s "
                         f"{100 * secs / total:6.1f} %")
        lines.append(f"  {'total = traced wall':<28} {total:>10.4f} s")
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<30} {values[name]:>14.6g} {unit}")
    else:
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": None, "unit": unit}
    lines += [f"  problem: {p}" for p in problems]
    detail = {"workload": workload, "seed": seed, "rounds": rounds_n,
              "problems": problems,
              "reports": [run[2].get("trace") for run in runs[1:]]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines, detail


# ----------------------------------------------------------------------
# Expected outputs
# ----------------------------------------------------------------------

def write_expected(deadline: float) -> int:
    """Record round 0 of the default seed as the expected outputs, after
    checking that both engines agree on it."""
    expected = load_expected()
    seed = expected["default_seed"]
    for workload in WORKLOAD_NAMES:
        workers = Workers(deadline)
        try:
            outputs = []
            for engine in ENGINES:
                worker = workers.start(workload, engine, seed)
                worker.ready()
                outputs.append(worker.call({"cmd": "round", "index": 0}))
                worker.stop()
        finally:
            workers.close()
        if outputs[0]["digest"] != outputs[1]["digest"]:
            print(f"{workload}: engines disagree: " + first_difference(
                outputs[0]["outputs"], outputs[1]["outputs"]),
                file=sys.stderr)
            return 1
        expected["workloads"][workload] = {
            "digest": outputs[0]["digest"],
            "model": outputs[0]["model"],
            "outputs": outputs[0]["outputs"],
        }
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: expected.json's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record round 0 of the default seed as the "
                             "expected outputs")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for sub in ("logs", "tmp", "records", "engine-cache"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    if args.write_expected:
        return write_expected(time.perf_counter() + 3 * DEADLINE_S)
    seed = load_expected()["default_seed"] if args.seed is None else args.seed

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        if args.workload == "all":
            deadline = time.perf_counter() + DEADLINE_S
        if args.trace:
            outcomes.append(trace(name, seed, deadline))
        else:
            outcomes.append(measure(name, seed, args.seconds, deadline))

    stamp = {"host": host_stamp(), "source": source_stamp()}
    print(f"perfbench host: {json.dumps(stamp['host'])}")
    print(f"perfbench source: {json.dumps(stamp['source'])}")
    for result, lines, detail in outcomes:
        print("\n".join(lines))
        record = dict(stamp, result=result, detail=detail,
                      argv=sys.argv[1:], unix_time=time.time())
        path = (WORK / "records" / f"{detail['workload']}-seed{seed}"
                f"-trace{args.trace}-{int(time.time())}.json")
        path.write_text(json.dumps(record, indent=1, sort_keys=True))

    if len(outcomes) == 1:
        result = outcomes[0][0]
    else:
        result = {
            "correct": all(o[0]["correct"] for o in outcomes),
            "attempted": sum(o[0]["attempted"] for o in outcomes),
            "failed": sum(o[0]["failed"] for o in outcomes),
            "metrics": all_metrics(outcomes) if not args.trace else {
                f"{o[2]['workload']}:{k}": v
                for o in outcomes for k, v in o[0]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def all_metrics(outcomes) -> dict:
    """The 14 named end-to-end metrics of a ``--workload all`` run:
    each workload's throughput and modelled metrics, the largest peak
    RSS per engine and the median set-up time over all samples."""
    metrics = {}
    setup = []
    for _, _, detail in outcomes:
        setup += detail["setup_samples_s"]
        for name, entry in detail["named_metrics"].items():
            if name.startswith("peak_rss_mb.") and name in metrics:
                values = (metrics[name]["value"], entry["value"])
                entry = dict(entry, value=None if None in values
                             else max(values))
            if name != "setup_s":
                metrics[name] = entry
    metrics["setup_s"] = {"value": statistics.median(setup) if setup
                          else None, "unit": "s"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
