"""Runs a workload's episodes and turns the samples into metrics.

An episode builds a fresh Slider over the initial window (timed as set-up),
runs the warm-up updates, then the timed updates with their checkpoints
and restores.  Episodes repeat until the run's seconds are spent.  One
process, one thread, closed loop: each update starts when the previous one
returned.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro import BatchRuntime, Slider

from perfbench import OUT
from perfbench.tracing import GeneratorGuard, Tracer
from perfbench.workloads import Inputs, Workload

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "advance_ms_p50": "ms",
    "advance_ms_p90": "ms",
    "records_per_s": "records/s",
    "setup_s": "s",
    "checkpoint_ms_p50": "ms",
    "restore_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "space_entries": "count",
    "sim_work_per_update": "work",
    "sim_time_per_update": "simtime",
}

#: Per-layer metrics of the traced run: name -> unit.  ``*_ms`` are median
#: self times per update (per checkpoint / restore for those layers);
#: counts are medians per update; ratios are totals over the traced updates.
PER_LAYER = {
    "partition.build_ms": "ms",
    "partition.builds": "count",
    "map.ms": "ms",
    "map.tasks_run": "count",
    "map.reuse_ratio": "ratio",
    "shuffle.partition_ms": "ms",
    "shuffle.partition_calls": "count",
    "planning.begin_run_ms": "ms",
    "planning.compile_ms": "ms",
    "planning.cache_hit_ratio": "ratio",
    "kernel.ms": "ms",
    "kernel.batched_steps": "count",
    "contraction.ms": "ms",
    "combine.calls": "count",
    "memo.hit_ratio": "ratio",
    "taskgraph.nodes": "count",
    "telemetry.ms": "ms",
    "telemetry.spans": "count",
    "reduce.ms": "ms",
    "reduce.keys_changed": "count",
    "simulate.ms": "ms",
    "cluster.cache_hit_ratio": "ratio",
    "lifecycle.space_ms": "ms",
    "lifecycle.gc_ms": "ms",
    "gc.evicted": "count",
    "checkpoint.capture_ms": "ms",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "bytes",
    "restore.read_ms": "ms",
    "restore.apply_ms": "ms",
    "restore.verify_ms": "ms",
    "unattributed.ms": "ms",
    "traced.advance_ms_p50": "ms",
    "untraced.advance_ms_p50": "ms",
    "tracing_overhead": "ratio",
    "error_rate": "ratio",
}

#: Update layers whose ``<layer>_ms`` / ``<layer>.ms`` metric is a self time.
UPDATE_LAYERS = {
    "partition.build_ms": "partition.build",
    "map.ms": "map",
    "shuffle.partition_ms": "shuffle.partition",
    "planning.begin_run_ms": "planning.begin_run",
    "planning.compile_ms": "planning.compile",
    "kernel.ms": "kernel",
    "contraction.ms": "contraction",
    "telemetry.ms": "telemetry",
    "reduce.ms": "reduce",
    "simulate.ms": "simulate",
    "lifecycle.space_ms": "lifecycle.space",
    "lifecycle.gc_ms": "lifecycle.gc",
    "unattributed.ms": "unattributed",
}
RECOVERY_LAYERS = {
    "checkpoint.capture_ms": ("checkpoint", "checkpoint.capture"),
    "checkpoint.write_ms": ("checkpoint", "checkpoint.write"),
    "restore.read_ms": ("restore", "restore.read"),
    "restore.apply_ms": ("restore", "restore.apply"),
    "restore.verify_ms": ("restore", "restore.verify"),
}


#: Checkpoints written (of the same state) per recovery point; the restore
#: reads the last.  A checkpoint is cheap next to its restore, and one
#: sample per episode leaves its median noisy.
CHECKPOINTS_PER_RECOVERY = 3


class Abort(Exception):
    """An operation failed; the run stops and reports it."""


@dataclass
class Samples:
    """Raw per-operation samples of one phase (untraced or traced)."""

    update_ns: list[int] = field(default_factory=list)
    records: list[int] = field(default_factory=list)
    sim_work: list[float] = field(default_factory=list)
    sim_time: list[float] = field(default_factory=list)
    setup_ns: list[int] = field(default_factory=list)
    checkpoint_ns: list[int] = field(default_factory=list)
    restore_ns: list[int] = field(default_factory=list)
    checkpoint_bytes: list[int] = field(default_factory=list)
    #: Traced phase only: per-update counters read off public state.
    counters: list[dict[str, int]] = field(default_factory=list)
    #: Tracer op id of each timed update, in order.
    update_ops: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatched: int = 0
    errors: list[str] = field(default_factory=list)
    space: float = 0.0
    episodes: int = 0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- public-state counters ----------------------------------------------------


def _probe(slider: Slider) -> dict[str, int]:
    memo = [tree.memo.stats for tree in slider.trees]
    plan = slider.plan_cache.stats
    state = {
        "plan.hits": plan.hits,
        "plan.lookups": plan.hits + plan.misses,
        "memo.hits": sum(s.hits for s in memo),
        "memo.lookups": sum(s.hits + s.misses for s in memo),
        "telemetry.spans": slider.telemetry.span_count(),
        "cache.memory_reads": 0,
        "cache.lookups": 0,
    }
    if slider.cache is not None:
        reads = slider.cache.stats
        state["cache.memory_reads"] = reads.memory_reads
        state["cache.lookups"] = (
            reads.memory_reads + reads.fallback_reads + reads.misses
        )
    return state


def _counters(before: dict[str, int], slider: Slider, result) -> dict[str, int]:
    after = _probe(slider)
    counters = {name: after[name] - before[name] for name in after}
    counters.update(
        {
            "map.tasks_run": result.new_map_tasks,
            "map.reused": result.reused_map_tasks,
            "kernel.batched_steps": (
                result.compiled.batched_step_count()
                if result.plan_cache_hit and result.compiled is not None
                else 0
            ),
            "taskgraph.nodes": len(result.graph.nodes) if result.graph else 0,
            "reduce.keys_changed": len(result.changed_keys),
        }
    )
    return counters


# -- the episode loop ---------------------------------------------------------


class Runner:
    """Drives one workload's episodes for one phase."""

    def __init__(
        self,
        workload: Workload,
        inputs: Inputs,
        guard: GeneratorGuard,
        tracer: Tracer | None = None,
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.guard = guard
        self.tracer = tracer
        self.samples = Samples()
        self._checkpoint_dir = OUT / f"checkpoint-{os.getpid()}"

    def _op(self, kind: str):
        return self.tracer.op(kind) if self.tracer is not None else nullcontext(-1)

    def run(self, seconds: float, min_episodes: int) -> Samples:
        start = perf_counter()
        while True:
            self._episode(check=self.samples.episodes == 0)
            self.samples.episodes += 1
            done = perf_counter() - start >= seconds
            if done and self.samples.episodes >= min_episodes:
                return self.samples

    def setup(self) -> Slider:
        workload, samples = self.workload, self.samples
        with self.guard.timed("setup") as watch:
            slider = workload.make_slider(self.inputs.job)
            slider.initial_run(self.inputs.splits[: workload.window])
        samples.setup_ns.append(watch.ns)
        return slider

    def _check(self, slider: Slider, outputs: dict) -> None:
        """Compare with a from-scratch batch run, outside any timer."""
        expected = BatchRuntime(self.inputs.job).run(list(slider.window)).outputs
        self.samples.checked += 1
        if outputs != expected:
            self.samples.mismatched += 1
            self.samples.errors.append(
                f"update outputs differ from the batch run (window of "
                f"{len(slider.window)} splits)"
            )

    def _episode(self, check: bool) -> None:
        workload, samples = self.workload, self.samples
        gc.collect()
        slider = self.setup()
        for index in range(workload.warmup):
            slider.advance(*workload.step(self.inputs, index))
        last = workload.updates - 1
        check_at = {0, workload.updates // 2, last} if check else set()
        for index in range(workload.updates):
            added, removed = workload.step(self.inputs, workload.warmup + index)
            before = _probe(slider) if self.tracer is not None else None
            samples.attempted += 1
            try:
                with self.guard.timed("advance") as watch, self._op("update") as op:
                    result = slider.advance(added, removed)
            except Exception as exc:
                samples.failed += 1
                samples.errors.append(f"advance raised {exc!r}")
                raise Abort from exc
            samples.update_ns.append(watch.ns)
            samples.update_ops.append(op)
            samples.records.append(sum(len(split) for split in added))
            samples.sim_work.append(result.report.work)
            samples.sim_time.append(result.report.time)
            if before is not None:
                samples.counters.append(_counters(before, slider, result))
            if index in check_at:
                self._check(slider, result.outputs)
            if index == last:
                samples.space = slider.space()
            if index + 1 == workload.recover_after:
                slider = self._recover(slider, result.outputs)
        slider.close()

    def _recover(self, slider: Slider, outputs: dict) -> Slider:
        """Checkpoint, restore, and check the restored engine's outputs."""
        samples, path = self.samples, self._checkpoint_dir
        try:
            for _ in range(CHECKPOINTS_PER_RECOVERY):
                shutil.rmtree(path, ignore_errors=True)
                with self.guard.timed("checkpoint") as watch, self._op("checkpoint"):
                    slider.checkpoint(path)
                samples.checkpoint_ns.append(watch.ns)
                samples.checkpoint_bytes.append(_dir_bytes(path))
            with self.guard.timed("restore") as watch, self._op("restore"):
                restored = Slider.restore(path, self.inputs.job)
            samples.restore_ns.append(watch.ns)
        except Exception as exc:
            samples.failed += 1
            samples.errors.append(f"checkpoint/restore raised {exc!r}")
            raise Abort from exc
        finally:
            shutil.rmtree(path, ignore_errors=True)
        slider.close()
        samples.checked += 1
        if restored.current_outputs() != outputs:
            samples.mismatched += 1
            samples.errors.append("restored outputs differ from the checkpointed ones")
        return restored


# -- metrics -------------------------------------------------------------------


def end_to_end(samples: Samples) -> dict[str, float]:
    update_ms = [ns / 1e6 for ns in samples.update_ns]
    return {
        "advance_ms_p50": _median(update_ms),
        "advance_ms_p90": (
            statistics.quantiles(update_ms, n=10)[-1]
            if len(update_ms) > 1
            else _median(update_ms)
        ),
        "records_per_s": sum(samples.records) / (sum(samples.update_ns) / 1e9),
        "setup_s": _median([ns / 1e9 for ns in samples.setup_ns]),
        "checkpoint_ms_p50": _median([ns / 1e6 for ns in samples.checkpoint_ns]),
        "restore_ms_p50": _median([ns / 1e6 for ns in samples.restore_ns]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "space_entries": samples.space,
        "sim_work_per_update": statistics.fmean(samples.sim_work),
        "sim_time_per_update": statistics.fmean(samples.sim_time),
    }


def per_layer(
    untraced: Samples, traced: Samples, tracer: Tracer
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics, plus the bases of every ratio."""
    self_ns = tracer.self_times()
    calls = tracer.calls()

    def op_medians(kind: str, layer: str) -> float:
        values = [
            self_ns[op].get(layer, 0) / 1e6
            for op, op_kind in enumerate(tracer.ops)
            if op_kind == kind
        ]
        return _median(values)

    updates = traced.update_ops
    counters = traced.counters

    def per_update(get) -> float:
        return _median([get(op, row) for op, row in zip(updates, counters)])

    def total(name: str) -> int:
        return sum(row[name] for row in counters)

    metrics: dict[str, float] = {}
    for metric, layer in UPDATE_LAYERS.items():
        metrics[metric] = per_update(lambda op, _: self_ns[op].get(layer, 0) / 1e6)
    for metric, (kind, layer) in RECOVERY_LAYERS.items():
        metrics[metric] = op_medians(kind, layer)
    metrics["partition.builds"] = per_update(
        lambda op, _: calls.get(op, {}).get("partition.build", 0)
    )
    metrics["shuffle.partition_calls"] = per_update(
        lambda op, _: calls.get(op, {}).get("shuffle.partition", 0)
    )
    for name in ("combine.calls", "gc.evicted"):
        metrics[name] = per_update(lambda op, _: tracer.counts.get((op, name), 0))
    for name in (
        "map.tasks_run",
        "kernel.batched_steps",
        "taskgraph.nodes",
        "telemetry.spans",
        "reduce.keys_changed",
    ):
        metrics[name] = per_update(lambda _, row: row[name])
    reused = total("map.reused")
    phases = (untraced, traced)
    bases = {
        "map.reuse_ratio": (reused, reused + total("map.tasks_run")),
        "planning.cache_hit_ratio": (total("plan.hits"), total("plan.lookups")),
        "memo.hit_ratio": (total("memo.hits"), total("memo.lookups")),
        "cluster.cache_hit_ratio": (
            total("cache.memory_reads"),
            total("cache.lookups"),
        ),
        "error_rate": (
            sum(p.mismatched + p.failed for p in phases),
            sum(p.checked for p in phases),
        ),
    }
    for name, (part, whole) in bases.items():
        metrics[name] = _ratio(part, whole)
    metrics["checkpoint.bytes"] = _median(traced.checkpoint_bytes)
    for name, phase in (("traced", traced), ("untraced", untraced)):
        metrics[f"{name}.advance_ms_p50"] = _median(
            [ns / 1e6 for ns in phase.update_ns]
        )
    metrics["tracing_overhead"] = _ratio(
        metrics["traced.advance_ms_p50"], metrics["untraced.advance_ms_p50"]
    )
    # Self times must account for the timed update: the tracer's root span
    # sits inside the timer, so the difference is the timer's own overhead.
    for op, timed_ns in zip(updates, traced.update_ns):
        accounted = sum(self_ns[op].values())
        if not 0 <= timed_ns - accounted <= 0.02 * timed_ns + 50_000:
            raise ValueError(
                f"update op {op}: self times sum to {accounted} ns, "
                f"timer read {timed_ns} ns"
            )
    return metrics, {name: {"part": p, "whole": w} for name, (p, w) in bases.items()}
