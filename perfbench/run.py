"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hct-slide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrument but the
update timers.  ``--trace 1`` spends half the seconds untraced and half
with the layer tracer installed, and reports the per-layer metrics.  Every
metric prints as ``name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (host, versions, seed, raw samples) is written to
``perfbench/out/`` before the run's gates are applied.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, SRC  # noqa: E402

#: Both phases of every run complete at least this many episodes; two
#: episodes of 64 timed updates give the p90 more than ten samples above it.
MIN_EPISODES = 2
#: Set-up is timed once per episode and topped up to this many samples.
MIN_SETUPS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload``; return the record (metrics, samples, host)."""
    import numpy

    from perfbench import measure
    from perfbench.tracing import GeneratorGuard, Tracer

    guard = GeneratorGuard()
    tracer = Tracer() if trace else None
    record: dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }
    phases: list[measure.Samples] = []
    crashed = 0
    try:
        guard.install()
        inputs = workload.generate(workload, seed)
        untraced = measure.Runner(workload, inputs, guard)
        phases.append(untraced.samples)
        untraced.run(seconds / 2 if trace else seconds, 1 if trace else MIN_EPISODES)
        while len(untraced.samples.setup_ns) < MIN_SETUPS:
            untraced.setup().close()
        if trace:
            tracer.install()
            traced = measure.Runner(workload, inputs, guard, tracer)
            phases.append(traced.samples)
            traced.run(seconds / 2, 1)
            metrics, bases = measure.per_layer(untraced.samples, traced.samples, tracer)
            record["ratio_bases"] = bases
            units = measure.PER_LAYER
        else:
            metrics = measure.end_to_end(untraced.samples)
            units = measure.END_TO_END
        record["metrics"] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        }
    except measure.Abort:
        pass
    except Exception:
        # Set-up, warm-up or a guard violation: report, never hide.
        record["error"] = traceback.format_exc()
        crashed = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        guard.uninstall()
    record["violations"] = guard.violations
    record["phases"] = [vars(samples) for samples in phases]
    failed = crashed + sum(s.failed + s.mismatched for s in phases)
    record["attempted"] = crashed + sum(s.attempted for s in phases)
    record["failed"] = failed
    record["correct"] = (
        "metrics" in record and failed == 0 and not guard.violations
    )
    if tracer is not None:
        record["spans"] = tracer.dump()
    return record


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no Slider source at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    errors = [e for phase in record["phases"] for e in phase["errors"]]
    for error in errors + [record.get("error", "")] + record["violations"]:
        if error:
            print(f"error: {error}", file=sys.stderr)
    metrics = record.get("metrics", {})
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
