"""In-memory span recorder and the wrappers that feed it.

A span records a name, its start and end (``time.perf_counter``), the
span that was open in the same thread when it began (its parent) and
the run or request id current in that thread.  Spans stay in memory and
are written out once, when the run ends (:meth:`SpanRecorder.dump`).

Self time is a span's duration minus the time its direct children
cover.  Children of one span run in the same thread, one after another,
so the time they cover is the sum of their durations.

:func:`instrument` wraps the public entry points of each layer by
replacing module and class attributes from the outside, so nothing
under ``src/`` changes.  A wrapped name that a later version of the
program no longer has is skipped, and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str = ""
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class SpanRecorder:
    """Spans and counts of one traced run; safe to use from threads."""

    run_id: str = ""
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    # Objects whose metrics are derived after the run (candidate
    # recall, image dedup) so that deriving them costs no span time.
    deferred: list[tuple[str, tuple]] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording --------------------------------------------------------
    def set_request(self, request_id: str | None) -> None:
        """Tag the spans this thread opens from now on with a request id."""
        self._local.request_id = request_id

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            run_id=getattr(self._local, "request_id", None) or self.run_id,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            # The parent is open in this thread, so only this thread
            # writes its child time.
            self.spans[span.parent].child_s += span.duration
        return span.duration

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def defer(self, kind: str, *objects) -> None:
        with self._lock:
            self.deferred.append((kind, objects))

    # -- reading ----------------------------------------------------------
    def self_time(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run_id": s.run_id,
                }) + "\n")


def _timed(recorder: SpanRecorder, name: str, fn, after=None):
    """``fn`` inside a span; ``after(result, args)`` runs once the span
    has closed, so bookkeeping is not charged to the layer."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _conv_work(recorder: SpanRecorder, phase: str):
    """Computed (not measured) conv work from the layer's shapes: 2
    flops per multiply-add, bytes as float32 input + weights + output.
    The backward does two products of the forward's size (weight and
    input gradients)."""

    def after(out, args):
        layer = args[0]
        if phase == "fwd":
            n, _, h, w = args[1].shape
            layer._coldbench_in = (n, h, w)
        n, h, w = getattr(layer, "_coldbench_in", (0, 0, 0))
        oh = (h + layer.stride - 1) // layer.stride
        ow = (w + layer.stride - 1) // layer.stride
        macs = n * oh * ow * layer.out_channels * layer.in_channels * (
            layer.kernel * layer.kernel
        )
        tensors = (
            n * layer.in_channels * h * w
            + layer.in_channels * layer.kernel ** 2 * layer.out_channels
            + n * layer.out_channels * oh * ow
        )
        factor = 1 if phase == "fwd" else 2
        recorder.count("nn.conv.flops", 2 * macs * factor)
        recorder.count("nn.conv.bytes", 4 * tensors * factor)

    return after


def instrument(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every traced entry point; returns what :func:`restore` undoes.

    The same function is often imported into several modules (for
    example ``build_candidates`` into ``repro.core.dataset``), so each
    entry lists every module that holds a name for it.
    """
    count = recorder.count
    defer = recorder.defer
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, span: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return
        undo.append((owner, attr, original))
        setattr(owner, attr, _timed(recorder, span, original, after))

    def patch_function(modules: tuple[str, ...], attr: str, span: str,
                       after=None) -> None:
        for module in modules:
            patch(importlib.import_module(module), attr, span, after)

    patch_function(("repro.pipeline.flow",), "build_netlist", "netlist.build")
    patch_function(("repro.netlist.benchmarks",), "build_design", "netlist.build")
    patch_function(
        ("repro.layout.design", "repro.pipeline.flow"), "build_layout",
        "layout.build", lambda r, a: count("layout.designs"),
    )
    patch_function(
        ("repro.split.split", "repro.pipeline.flow"), "split_design",
        "split.split",
    )
    patch_function(
        ("repro.core.candidates", "repro.core.dataset"), "build_candidates",
        "candidates.build",
        lambda r, a: (count("candidates.groups", len(r)),
                      defer("recall", a[0], r)),
    )

    from repro.core import attack as core_attack
    from repro.core import dataset as core_dataset
    from repro.core import model as core_model
    from repro.experiments import store as exp_store
    from repro.nn import layers, optim
    from repro.attacks import network_flow, proximity

    patch(core_dataset.SplitDataset, "__init__", "features.dataset",
          lambda r, a: defer("dataset", a[0]))
    for cls, key in ((layers.Conv2D, "conv"), (layers.LeakyReLU, "lrelu"),
                     (layers.Dense, "dense")):
        for method, phase in (("forward", "fwd"), ("backward", "bwd")):
            after = _conv_work(recorder, phase) if key == "conv" else None
            patch(cls, method, f"nn.{key}.{phase}", after)
    net = core_model.SplitNet
    patch(net, "embed_images", "model.embed")
    patch(net, "forward_from_embeddings", "model.head")
    patch(net, "forward_deduplicated", "model.fwd_dedup")
    patch(net, "backward_deduplicated", "model.bwd_dedup")
    patch(core_attack.DLAttack, "_train_step", "train.step",
          lambda r, a: count("train.steps"))
    patch(core_attack, "make_batch", "train.make_batch")
    patch(optim.Adam, "step", "optim.step")
    patch(network_flow.NetworkFlowAttack, "select", "flow.attack")
    patch(proximity.ProximityAttack, "select", "proximity.attack")

    patch_function(
        ("repro.experiments.engine", "repro.experiments",
         "repro.service.scheduler"),
        "plan_sweep", "experiments.plan",
    )
    patch_function(
        ("repro.experiments.registry", "repro.experiments",
         "repro.service.server"),
        "build_grid", "experiments.build_grid",
    )
    for method in ("get", "__contains__", "query", "count"):
        patch(exp_store.ResultsStore, method, "store.lookup",
              lambda r, a: count("store.lookups"))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
