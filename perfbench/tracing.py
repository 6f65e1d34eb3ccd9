"""Instruments installed from outside the engine: timers, a generator
guard, and a span tracer around each layer's public entry points.

Nothing here edits ``repro``: every instrument is a wrapper set on a class
or module attribute while the benchmark runs, and :meth:`Patches.restore`
puts the originals back.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator


class Patches:
    """Attribute and item replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps staticmethod/classmethod wrappers intact on restore.
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def set_item(self, mapping: dict, key: Any, value: Any) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """``("repro.x", "Cls.meth")`` -> ``(Cls, "meth", function)``."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


# -- timers and the generator guard ------------------------------------------


class GuardViolation(RuntimeError):
    """Input generation ran while a benchmark timer was open."""


@dataclasses.dataclass
class Stopwatch:
    ns: int = 0


class GeneratorGuard:
    """Owns the benchmark's timers and fails the run if input generation
    runs while one is open.

    Guarded: every public method (and ``__init__``) of each generator
    class ``repro.datagen`` exports, and each ``AppSpec.make_splits`` of
    the app registry.  The registry's split makers regenerate their whole
    offset prefix, so a call inside a timer would time data generation,
    not Slider.
    """

    def __init__(self) -> None:
        self.open_timer: str | None = None
        self.violations: list[str] = []
        self._patches = Patches()

    @contextmanager
    def timed(self, label: str) -> Iterator[Stopwatch]:
        watch = Stopwatch()
        self.open_timer = label
        start = perf_counter_ns()
        try:
            yield watch
        finally:
            watch.ns = perf_counter_ns() - start
            self.open_timer = None

    def _guarded(self, what: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.open_timer is not None:
                message = f"{what} called inside the {self.open_timer!r} timer"
                self.violations.append(message)
                raise GuardViolation(message)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import repro.datagen as datagen
        from repro.apps.registry import APP_REGISTRY

        for name in datagen.__all__:
            cls = getattr(datagen, name)
            # Dataclasses are the generated records, not generators.
            if not isinstance(cls, type) or dataclasses.is_dataclass(cls):
                continue
            for attr, value in list(vars(cls).items()):
                if inspect.isfunction(value) and (
                    attr == "__init__" or not attr.startswith("_")
                ):
                    self._patches.set(
                        cls, attr, self._guarded(f"{name}.{attr}", value)
                    )
        for key, spec in list(APP_REGISTRY.items()):
            guarded = self._guarded(f"AppSpec({key}).make_splits", spec.make_splits)
            self._patches.set_item(
                APP_REGISTRY, key, dataclasses.replace(spec, make_splits=guarded)
            )

    def uninstall(self) -> None:
        self._patches.restore()


# -- the layer tracer ---------------------------------------------------------

#: Span points: (layer, module, attribute).  A layer's self time is its
#: spans' durations minus the time their child spans cover.  Telemetry's
#: ``span`` context manager is traced separately (see ``_telemetry_span``).
SPAN_POINTS: tuple[tuple[str, str, str], ...] = (
    ("partition.build", "repro.core.partition", "Partition.__init__"),
    ("map", "repro.slider.planning", "RunPlanner.run_maps"),
    ("shuffle.partition", "repro.mapreduce.shuffle", "HashPartitioner.partition"),
    ("planning.begin_run", "repro.slider.planning", "RunPlanner.begin_run"),
    ("planning.compile", "repro.slider.planning", "RunPlanner.finish_run"),
    ("kernel", "repro.core.execute", "fused_combine_partitions"),
    ("contraction", "repro.core.backends", "InProcessBackend.contract"),
    ("telemetry", "repro.telemetry.spans", "Telemetry.charge"),
    ("telemetry", "repro.telemetry.spans", "Telemetry.count"),
    ("reduce", "repro.slider.planning", "RunPlanner.reduce_all"),
    ("simulate", "repro.slider.execution", "TimeSimulator.simulate"),
    ("lifecycle.space", "repro.slider.lifecycle", "LifecycleManager.space"),
    ("lifecycle.gc", "repro.slider.lifecycle", "LifecycleManager.collect_garbage"),
    ("checkpoint.capture", "repro.recovery.checkpoint", "capture_engine_state"),
    ("checkpoint.write", "repro.recovery.checkpoint", "write_segments"),
    ("restore.read", "repro.recovery.checkpoint", "read_segment"),
    ("restore.apply", "repro.recovery.checkpoint", "apply_engine_state"),
    ("restore.verify", "repro.recovery.repair", "verify_restored"),
)

#: Call-count points: (counter, module, attribute, tally).  ``tally``
#: maps the call's return value to the amount counted.
COUNT_POINTS: tuple[tuple[str, str, str, Callable[[Any], int]], ...] = (
    ("combine.calls", "repro.core.execute", "PlanExecutor.combine", lambda _: 1),
    (
        "gc.evicted",
        "repro.slider.lifecycle",
        "LifecycleManager.collect_garbage",
        int,
    ),
)


class Tracer:
    """Spans around layer entry points, kept in memory.

    A span is ``(id, layer, start_ns, end_ns, parent_id, op_id)``.  Each
    benchmark operation (an update, a checkpoint, a restore) is one op
    with a root span; calls outside an open op are not recorded.
    """

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        #: op id -> kind ("update", "checkpoint", "restore").
        self.ops: list[str] = []
        #: (op id, counter) -> count, from COUNT_POINTS.
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0
        self._patches = Patches()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _open(self) -> tuple[int, int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent, perf_counter_ns()

    def _close(self, layer_id: int, token: tuple[int, int, int]) -> None:
        end = perf_counter_ns()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append((span_id, layer_id, start, end, parent, self._op))

    def _span(self, layer: str, fn: Callable) -> Callable:
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            token = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer_id, token)

        return wrapper

    def _count(self, counter: str, tally: Callable[[Any], int], fn: Callable):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._op >= 0:
                self.counts[(self._op, counter)] += tally(result)
            return result

        return wrapper

    def _telemetry_span(self, fn: Callable) -> Callable:
        """``Telemetry.span`` returns a context manager: time its creation,
        ``__enter__`` and ``__exit__`` as telemetry, not the ``with`` body."""
        tracer = self
        create = self._span("telemetry", fn)
        enter = self._span("telemetry", lambda cm: cm.__enter__())
        leave = self._span("telemetry", lambda cm, exc: cm.__exit__(*exc))

        class TracedSpan:
            __slots__ = ("inner",)

            def __init__(self, inner: Any) -> None:
                self.inner = inner

            def __enter__(self):
                return enter(self.inner)

            def __exit__(self, *exc):
                return leave(self.inner, exc)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = create(*args, **kwargs)
            return TracedSpan(inner) if tracer._op >= 0 else inner

        return wrapper

    def install(self) -> None:
        for counter, module, path, tally in COUNT_POINTS:
            owner, attr, fn = resolve(module, path)
            self._patches.set(owner, attr, self._count(counter, tally, fn))
        for layer, module, path in SPAN_POINTS:
            owner, attr, fn = resolve(module, path)
            self._patches.set(owner, attr, self._span(layer, fn))
        owner, attr, fn = resolve("repro.telemetry.spans", "Telemetry.span")
        self._patches.set(owner, attr, self._telemetry_span(fn))

    def uninstall(self) -> None:
        self._patches.restore()

    @contextmanager
    def op(self, kind: str) -> Iterator[int]:
        """Open one benchmark operation; its root span's self time is the
        op's unattributed time."""
        if self._op >= 0:
            raise RuntimeError("benchmark ops do not nest")
        op_id = len(self.ops)
        self.ops.append(kind)
        self._op = op_id
        layer_id = self._layer_id(kind)
        token = self._open()
        try:
            yield op_id
        finally:
            self._close(layer_id, token)
            self._op = -1

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, int]]:
        """Per op: layer -> summed self time in ns.  The op's own root span
        appears under ``"unattributed"``.

        Raises ``ValueError`` when a child span is not nested inside its
        parent or the self times do not sum to the root span's duration.
        """
        bounds = {span[0]: (span[2], span[3]) for span in self.spans}
        covered: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent < 0:
                continue
            parent_start, parent_end = bounds[parent]
            if start < parent_start or end > parent_end:
                raise ValueError(f"span {span_id} escapes its parent {parent}")
            covered[parent] += end - start
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        roots: dict[int, int] = {}
        for span_id, layer_id, start, end, parent, op_id in self.spans:
            own = end - start - covered[span_id]
            if own < 0:
                raise ValueError(f"children of span {span_id} overlap")
            if parent < 0:
                roots[op_id] = end - start
                per_op[op_id]["unattributed"] += own
            else:
                per_op[op_id][self.layers[layer_id]] += own
        for op_id, total in roots.items():
            if sum(per_op[op_id].values()) != total:
                raise ValueError(f"op {op_id}: self times do not sum to its span")
        return {op_id: dict(layers) for op_id, layers in per_op.items()}

    def calls(self) -> dict[int, dict[str, int]]:
        """Per op: layer -> number of spans recorded."""
        per_op: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for _, layer_id, _, _, parent, op_id in self.spans:
            if parent >= 0:
                per_op[op_id][self.layers[layer_id]] += 1
        return {op_id: dict(layers) for op_id, layers in per_op.items()}

    def dump(self) -> dict[str, Any]:
        return {
            "columns": ["id", "layer", "start_ns", "end_ns", "parent", "op"],
            "layers": self.layers,
            "ops": self.ops,
            "spans": self.spans,
        }
