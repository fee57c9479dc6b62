"""Spans around the program's public functions, installed from outside.

`install` replaces module attributes and methods of `condctc` with wrappers
that record a span (name, start, end, parent, phase) per call.  Spans stay in
memory until `write_spans` at the end of the run; `layer_metrics` turns them
into the per-layer metrics listed in BENCHMARK.json.  Nothing in the program
changes; a run without `install` pays nothing.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

STEP = "trainer.step"

# Tape op types whose node counts are reported per optimizer step.
COUNTED_OPS = ("linear", "slice_cols", "softmax_rows", "add", "matmul", "matmul_nt",
               "layer_norm_rows", "depthwise_conv_rows")


class Tracer:
    """Spans in flat arrays, so that recording them leaves nothing for the
    cyclic garbage collector to traverse and the gc metrics stay the
    program's own."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase_of = array("i")
        self.stack: list[int] = []
        self.active = False
        self.phase = 0  # 0 while setting up, 1 in the timed round
        self.node_counts: Counter = Counter()
        self.decode_nodes = 0
        self.decode_utts = 0
        self.gc_pauses = array("d")
        self._gc_started = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.phase_of.append(self.phase)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """End span `idx` and any span still open above it."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.end[top] = now
            if top == idx:
                return

    def parent_name(self) -> str | None:
        return self.names[self.name_of[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def on_gc(self, phase: str, info: dict) -> None:
        if not self.active or self.phase == 0:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses.append(time.perf_counter() - self._gc_started)


def _reachable(roots) -> list:
    seen: set[int] = set()
    nodes = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
    return nodes


def install(tracer: Tracer) -> None:
    """Wrap the public functions at each module boundary of `condctc`."""
    from condctc import cli, ctc, diffcore, encoder, labels, synthdata, trainer

    w = tracer.wrap
    backward = diffcore.backward

    def counted_backward(loss):
        # Count the graph handed to backward before timing it, so the walk
        # shows up as tracing overhead and not as backward time.
        if tracer.active:
            tracer.node_counts.update(node.op for node in _reachable([loss]))
        return traced_backward(loss)

    traced_backward = w("diffcore.backward", backward)
    diffcore.backward = counted_backward

    store_cls = diffcore.ParamStore
    zero_grad = store_cls.zero_grad
    step_id = tracer.name_id(STEP)

    def step_start(store):
        # zero_grad opens every optimizer step in trainer.train; adam_step ends it.
        if tracer.active and tracer.parent_name() == "trainer.train":
            tracer.open(step_id)
        return zero_grad(store)

    store_cls.zero_grad = step_start
    store_cls.clone = w("diffcore.param_clone", store_cls.clone)
    store_cls.save = w("diffcore.param_save", store_cls.save)

    adam = w("trainer.adam_step", trainer.adam_step)

    def adam_then_end_step(*args, **kwargs):
        try:
            return adam(*args, **kwargs)
        finally:
            if tracer.active and tracer.parent_name() == STEP:
                tracer.close(tracer.stack[-1])

    trainer.adam_step = adam_then_end_step
    trainer.total_loss = w("trainer.total_loss", trainer.total_loss)
    trainer.clip_global_norm = w("trainer.clip_global_norm", trainer.clip_global_norm)

    ctc.ctc_loss = w("ctc.ctc_loss", ctc.ctc_loss)
    greedy = w("ctc.greedy_decode", ctc.greedy_decode)
    ctc.greedy_decode = greedy
    cli.greedy_decode = greedy

    model_cls = encoder.EncoderModel
    forward = w("encoder.forward", model_cls.forward)

    def counted_forward(model, features):
        in_decode = tracer.active and tracer.parent_name() == "cli.decode"
        out = forward(model, features)
        if in_decode:
            roots = [out.final, *out.char_inters.values(), *out.syl_inters.values()]
            tracer.decode_nodes += len(_reachable(roots))
            tracer.decode_utts += 1
        return out

    model_cls.forward = counted_forward
    model_cls.block_forward = w("encoder.block_forward", model_cls.block_forward)
    model_cls.predict_head = w("encoder.predict_head", model_cls.predict_head)
    model_cls.condition = w("encoder.condition", model_cls.condition)
    model_cls.load = classmethod(w("encoder.load", model_cls.load.__func__))

    synthdata.sample_utterances = w("synthdata.sample_utterances", synthdata.sample_utterances)
    synthdata.read_jsonl = w("synthdata.read_jsonl", synthdata.read_jsonl)

    error_rate = w("labels.error_rate", labels.error_rate)
    trainer.error_rate = error_rate
    cli.error_rate = error_rate

    gc.callbacks.append(tracer.on_gc)


def _durations(tracer: Tracer) -> tuple[list[float], list[float]]:
    """Each span's duration and the part of it that its child spans cover."""
    dur = [e - b for b, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(dur)
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            child[parent] += dur[i]
    return dur, child


def self_times(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total and self seconds (duration minus the part
    covered by child spans)."""
    dur, child = _durations(tracer)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, name_id in enumerate(tracer.name_of):
        rec = out[tracer.names[name_id]]
        rec["calls"] += 1
        rec["total_s"] += dur[i]
        rec["self_s"] += dur[i] - child[i]
    return dict(sorted(out.items()))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced worker.  A metric whose layer never
    ran on this workload reads 0."""
    dur, child = _durations(tracer)
    names = [tracer.names[i] for i in tracer.name_of]
    in_step = [False] * len(dur)
    durs: dict[str, list[float]] = defaultdict(list)
    step_total: Counter = Counter()
    step_self: Counter = Counter()
    step_calls: Counter = Counter()
    for i, name in enumerate(names):
        parent = tracer.parent[i]
        in_step[i] = parent >= 0 and (in_step[parent] or names[parent] == STEP)
        durs[name].append(dur[i])
        if in_step[i]:
            step_calls[name] += 1
            step_total[name] += dur[i]
            step_self[name] += dur[i] - child[i]
    steps = len(durs[STEP])

    def mean(name: str, scale: float) -> float:
        vals = durs[name]
        return scale * sum(vals) / len(vals) if vals else 0.0

    def per_step(value: float) -> float:
        return value / steps if steps else 0.0

    train_calls = durs["trainer.train"]
    return {
        "diffcore.tape_nodes_per_step": per_step(sum(tracer.node_counts.values())),
        **{f"diffcore.nodes.{op}": per_step(tracer.node_counts[op]) for op in COUNTED_OPS},
        "diffcore.backward_ms_per_step": per_step(1e3 * sum(durs["diffcore.backward"])),
        "diffcore.param_clone_ms": mean("diffcore.param_clone", 1e3),
        "diffcore.param_save_ms": mean("diffcore.param_save", 1e3),
        "diffcore.nodes_per_decoded_utt": (tracer.decode_nodes / tracer.decode_utts
                                           if tracer.decode_utts else 0.0),
        "ctc.loss_calls_per_step": per_step(step_calls["ctc.ctc_loss"]),
        "ctc.loss_us_per_call": mean("ctc.ctc_loss", 1e6),
        "ctc.loss_ms_per_step": per_step(1e3 * step_total["ctc.ctc_loss"]),
        "ctc.greedy_decode_us_per_call": mean("ctc.greedy_decode", 1e6),
        "encoder.forward_ms_per_utt": mean("encoder.forward", 1e3),
        "encoder.block_forward_ms": mean("encoder.block_forward", 1e3),
        "encoder.predict_head_ms": mean("encoder.predict_head", 1e3),
        "encoder.condition_ms": mean("encoder.condition", 1e3),
        "encoder.load_ms": mean("encoder.load", 1e3),
        "trainer.total_loss_self_ms_per_step": per_step(1e3 * step_self["trainer.total_loss"]),
        "trainer.clip_ms_per_step": per_step(1e3 * step_total["trainer.clip_global_norm"]),
        "trainer.adam_ms_per_step": per_step(1e3 * step_total["trainer.adam_step"]),
        "trainer.eval_s": ((sum(train_calls) - sum(durs[STEP])) / len(train_calls)
                           if train_calls else 0.0),
        "synthdata.sample_utterances_s": sum(durs["synthdata.sample_utterances"]),
        "synthdata.read_jsonl_s": mean("synthdata.read_jsonl", 1.0),
        "labels.error_rate_ms": mean("labels.error_rate", 1e3),
        "cli.decode_s": mean("cli.decode", 1.0),
        "cli.eval_s": mean("cli.eval", 1.0),
        "runtime.gc_collections": len(tracer.gc_pauses),
        "runtime.gc_pause_ms": 1e3 * sum(tracer.gc_pauses),
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, name_id in enumerate(tracer.name_of):
            fh.write(json.dumps({"id": i, "name": tracer.names[name_id],
                                 "start": tracer.start[i], "end": tracer.end[i],
                                 "parent": tracer.parent[i], "phase": tracer.phase_of[i]}) + "\n")
