"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from perfbench import ROOT
from perfbench.measure import END_TO_END, PER_LAYER
from perfbench.run import run
from perfbench.tracing import SPAN_POINTS, GeneratorGuard, GuardViolation, resolve
from perfbench.workloads import WORKLOADS, Inputs

TINY = {
    "hct-slide": dict(window=8, warmup=2, updates=4, recover_after=4),
    "twitter-append": dict(window=4, updates=4, recover_after=2),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    record = run(tiny(name), seed=3, seconds=0, trace=trace)
    assert record["correct"], record.get("error") or record["phases"]
    assert record["violations"] == []
    expected = PER_LAYER if trace else END_TO_END
    assert {n: m["unit"] for n, m in record["metrics"].items()} == expected
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert record["metrics"]["error_rate"]["value"] == 0
        assert record["spans"]["spans"]


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_tracer_and_guard_restore_the_originals():
    originals = [resolve(module, path)[2] for _, module, path in SPAN_POINTS]
    from repro.apps.registry import APP_REGISTRY

    specs = dict(APP_REGISTRY)
    run(tiny("hct-slide"), seed=1, seconds=0, trace=True)
    assert [resolve(m, p)[2] for _, m, p in SPAN_POINTS] == originals
    assert APP_REGISTRY == specs


def test_guard_rejects_generation_inside_a_timer():
    from repro.apps.registry import APP_REGISTRY
    from repro.datagen import TextCorpusGenerator

    guard = GeneratorGuard()
    guard.install()
    try:
        APP_REGISTRY["hct"].make_splits(1, 0, 0)
        TextCorpusGenerator(seed=0).lines(1)
        with pytest.raises(GuardViolation), guard.timed("advance"):
            APP_REGISTRY["hct"].make_splits(1, 0, 0)
        with pytest.raises(GuardViolation), guard.timed("advance"):
            TextCorpusGenerator(seed=0)
    finally:
        guard.uninstall()
    assert len(guard.violations) == 2


def test_generation_inside_a_timed_update_fails_the_run():
    from repro.datagen import TextCorpusGenerator

    workload = tiny("hct-slide")

    def generate(workload, seed):
        inputs = WORKLOADS["hct-slide"].generate(workload, seed)
        map_fn = inputs.job.map_fn

        def generating_map(record):
            TextCorpusGenerator(seed=0).lines(1)
            return map_fn(record)

        job = dataclasses.replace(inputs.job, map_fn=generating_map)
        return Inputs(job, inputs.splits)

    record = run(
        dataclasses.replace(workload, generate=generate), seed=1, seconds=0, trace=False
    )
    assert not record["correct"]
    assert record["failed"] >= 1
    assert record["violations"]
