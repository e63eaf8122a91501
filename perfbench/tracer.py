"""Out-of-program tracing for the benchmark's traced run.

The tracer wraps public functions of the program at call granularity
— per campaign, tenant, simulation, kernel bind, engine sync, record
chunk, filter build or LSM batch, never per access — and keeps spans
in memory until the worker writes them out at exit.  A span's *self
time* is its duration minus the time its child spans cover; summed per
layer (the ``repro`` subpackage the function lives in) the self times
plus the time no span covers (``unattributed``) add up to the traced
wall time exactly.

Deterministic work counts come from the same boundaries (records per
chunk, keys per filter batch, calls) and from the program's public
telemetry registry (``repro.obs.telemetry.attach_telemetry``).
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

#: Wrapped callables: (module, attribute path, span name).  The layer
#: is the span name's prefix.  Functions imported by name are wrapped
#: in the module that calls them.
WRAPPED = (
    ("repro.experiments.fig8_performance", "run", "experiments.fig8_run"),
    ("repro.experiments.campaign", "run", "experiments.campaign_run"),
    ("repro.experiments.campaign", "_run_tenant", "experiments.tenant"),
    ("repro.experiments.campaign", "run_flush_attack", "attacks.run"),
    ("repro.experiments.campaign", "run_prime_probe_attack", "attacks.run"),
    ("repro.experiments.campaign", "run_covert_channel", "attacks.run"),
    ("repro.experiments.fig8_performance", "run_workloads", "cpu.assemble"),
    ("repro.experiments.campaign", "run_defended_workloads", "cpu.assemble"),
    ("repro.attacks.flush_reload", "run_defended_workloads", "cpu.assemble"),
    ("repro.attacks.covert_channel", "run_defended_workloads",
     "cpu.assemble"),
    ("repro.cpu.multicore", "MulticoreSystem.run", "cpu.run"),
    ("repro.core.config", "SystemConfig.build_hierarchy", "cache.build"),
    ("repro.filters.auto_cuckoo", "AutoCuckooFilter.__init__",
     "filters.build"),
    ("repro.engine", "hierarchy_access", "engine.bind"),
    ("repro.engine", "filter_access", "engine.bind"),
    ("repro.engine", "filter_batch", "engine.bind"),
    ("repro.engine.c_cache", "CWalkState.sync", "engine.sync"),
    ("repro.detection.unit", "DetectionSpec.deploy", "detection.deploy"),
    ("repro.workloads.lsm", "LSMFilterTree.__init__", "workloads.lsm_tree"),
    ("repro.workloads.lsm", "LSMFilterTree.put_many", "workloads.lsm_tree"),
    ("repro.workloads.lsm", "LSMFilterTree.flush_pending",
     "workloads.lsm_tree"),
    ("repro.workloads.lsm", "LSMFilterTree.get_many", "workloads.lsm_tree"),
    ("repro.workloads.lsm", "LSMFilterTree.delete_many",
     "workloads.lsm_tree"),
    ("repro.workloads.lsm", "LSMFilterTree.false_positive_counts",
     "workloads.lsm_tree"),
)


class Tracer:
    """Span recorder with per-name self time and call counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Kind of the campaign tenant being simulated (None outside).
        self.tenant_kind: str | None = None
        #: Child time accumulated by each open span (innermost last).
        self._stack: list[float] = []
        #: True while a traced round runs; nothing is recorded outside.
        self.in_round = False
        self.wall_s = 0.0
        self.covered_s = 0.0

    # -- recording -----------------------------------------------------

    def _timed(self, name: str, fn, args, kwargs):
        if not self.in_round:
            return fn(*args, **kwargs)
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            children = stack.pop()
            duration = end - start
            self.self_s[name] += duration - children
            self.calls[name] += 1
            if stack:
                stack[-1] += duration
            else:
                self.covered_s += duration
            self.spans.append((name, start, end, len(stack)))

    def wrap(self, fn, name: str):
        timed = self._timed

        def wrapper(*args, **kwargs):
            return timed(name, fn, args, kwargs)

        return wrapper

    def measure_round(self, fn, *args):
        """Run one traced round; its wall time is the table's total."""
        self.in_round = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall_s += time.perf_counter() - start
            self.in_round = False

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))
        self._install_tenant_kind()
        self._install_record_chunks()
        self._install_filter_batches()

    def _install_tenant_kind(self) -> None:
        from repro.experiments import campaign

        run_tenant = campaign._run_tenant

        def tenant(profile):
            self.tenant_kind = profile.kind
            try:
                return run_tenant(profile)
            finally:
                self.tenant_kind = None

        campaign._run_tenant = tenant

    def _install_record_chunks(self) -> None:
        """Time workload emission per chunk of records."""
        from repro.workloads.spec import SpecWorkload

        tracer = self
        record_chunks = SpecWorkload.record_chunks

        class Chunks:
            def __init__(self, inner):
                self._next = inner.__next__

            def __iter__(self):
                return self

            def __next__(self):
                chunk = tracer._timed("workloads.emit", self._next, (), {})
                if tracer.in_round:
                    tracer.counts["workloads.records"] += len(chunk)
                return chunk

        def wrapped(workload, *args, **kwargs):
            return Chunks(iter(record_chunks(workload, *args, **kwargs)))

        SpecWorkload.record_chunks = wrapped

    def _install_filter_batches(self) -> None:
        """Time the storage batch ops, split by fingerprint width:
        ``narrow`` filters (f <= 16) can take the C batch kernels,
        ``wide`` ones (f > 16) run per key on every engine."""
        from repro.filters.auto_cuckoo import AutoCuckooFilter

        tracer = self
        engine_batch = AutoCuckooFilter.engine_batch

        class Batch:
            def __init__(self, inner, bits):
                self._inner = inner
                self._suffix = ".narrow" if bits <= 16 else ".wide"

            def _op(self, op, keys):
                name = f"filters.{op}{self._suffix}"
                if tracer.in_round:
                    tracer.counts[f"filters.batch_keys{self._suffix}"] += (
                        len(keys))
                return tracer._timed(
                    name, getattr(self._inner, f"{op}_many"), (keys,), {})

            def insert_many(self, keys):
                return self._op("insert", keys)

            def query_many(self, keys):
                return self._op("query", keys)

            def delete_many(self, keys):
                return self._op("delete", keys)

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        def wrapped(flt):
            return Batch(engine_batch(flt), flt.hasher.fingerprint_bits)

        AutoCuckooFilter.engine_batch = wrapped

    # -- reporting -----------------------------------------------------

    @property
    def tenant_ms(self) -> list[float]:
        """Latency of every traced campaign tenant, in ms."""
        return [(end - start) * 1e3 for name, start, end, _ in self.spans
                if name == "experiments.tenant"]

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, plus ``unattributed`` (the part of the
        traced wall time no span covers); sums to ``wall_s``."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        layers["unattributed"] = self.wall_s - self.covered_s
        return dict(layers)

    def write_chrome_trace(self, path) -> None:
        if not self.spans:
            origin = 0.0
        else:
            origin = min(start for _, start, _, _ in self.spans)
        events = [
            {
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": 1, "args": {"depth": depth},
            }
            for name, start, end, depth in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)
