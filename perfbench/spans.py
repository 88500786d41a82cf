"""In-memory span and count recorder, installed around sdmkit's public calls.

Spans are (id, name, start, end, parent id) tuples on the perf_counter clock;
counts are plain integers. Nothing is written until the caller asks, so the
recorder adds one wrapper call and two clock reads per traced call.

The wrappers are installed from outside the program: every sdmkit module
attribute that refers to a wrapped function is replaced, which also covers
names imported with ``from .module import name``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Root spans: one per command invocation ("rep") of each workload.
ROOT_SPANS = ("engine.fit", "engine.predict", "cli.evaluate")

NN_PARTS = ("patch", "cube_a", "cube_b", "head")

# Every span name the recorder can produce; self times are reported for each.
SPAN_NAMES = (
    *ROOT_SPANS,
    "engine.collate",
    "geodata.extract_patch",
    *(f"nn.forward.{p}" for p in NN_PARTS),
    *(f"nn.backward.{p}" for p in NN_PARTS),
    "kernels.conv2d_forward",
    "kernels.conv2d_backward",
    "engine.adamw_step",
    "engine.save_checkpoint",
    "engine.load_checkpoint",
    "engine.save_predictions",
    "engine.load_predictions",
    "geodata.load_observations",
    "evalkit.evaluate",
    "evalkit.topk_prf",
    "evalkit.multilabel_auc.micro",
    "evalkit.multilabel_auc.samples",
    "evalkit.multilabel_auc.macro",
    "evalkit.top_k",
    "evalkit.write_report",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, fn, name, after=None):
        """Wrap fn in a span; name may be a callable of the call's arguments.

        after(result, args, kwargs) runs outside the span, for counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args, **kwargs) if callable(name) else name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write spans (one JSON list per line) and the counts as the last line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _replace_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sdmkit" or mod_name.startswith("sdmkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _out_positions(x, w, stride) -> int:
    h, wd = x.shape[2], x.shape[3]
    kh, kw = w.shape[2], w.shape[3]
    return ((h - kh) // stride + 1) * ((wd - kw) // stride + 1)


def conv_flop(x, w, stride: int, direction: str) -> int:
    """Computed flops of one conv call: the forward GEMM, or the two backward
    GEMMs (weight and input gradients). Bias and col2im adds are left out."""
    n, c = x.shape[0], x.shape[1]
    f, _, kh, kw = w.shape
    gemm = 2 * n * f * c * kh * kw * _out_positions(x, w, stride)
    return gemm if direction == "forward" else 2 * gemm


def conv_bytes(x, w, stride: int, direction: str) -> int:
    """Computed bytes of the arrays one conv call reads and writes (float64),
    ignoring im2col buffers and cache misses."""
    n, f = x.shape[0], w.shape[0]
    out = n * f * _out_positions(x, w, stride)
    if direction == "forward":  # read x, w, b; write out
        return 8 * (x.size + w.size + f + out)
    return 8 * (x.size + w.size + out + x.size + w.size + f)  # read x, w, dout; write dx, dw, db


def install(tracer: Tracer) -> None:
    """Wrap the module-level functions and methods each workload calls."""
    from sdmkit import engine, evalkit, geodata, kernels

    def count_conv(direction):
        def after(result, args, kwargs):
            x, w = args[0], args[1]
            stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
            tracer.counts[f"kernels.conv2d_{direction}_calls"] += 1
            tracer.counts["kernels.conv2d_flop"] += conv_flop(x, w, stride, direction)

        return after

    def count(name, amount=lambda result, args: 1):
        def after(result, args, kwargs):
            tracer.counts[name] += amount(result, args)

        return after

    def file_bytes(name, path_arg):
        return count(name, lambda result, args: os.path.getsize(args[path_arg]))

    def adamw_after(result, args, kwargs):
        tracer.counts["engine.adamw_steps"] += 1
        if result is False:
            tracer.counts["engine.adamw_skipped"] += 1

    def auc_name(scores, labels, averaging, *rest, **kwargs):
        return f"evalkit.multilabel_auc.{averaging}"

    plan = [
        (engine.collate, "engine.collate", None),
        (geodata.extract_patch, "geodata.extract_patch", count("geodata.extract_patch_calls")),
        (kernels.conv2d_forward, "kernels.conv2d_forward", count_conv("forward")),
        (kernels.conv2d_backward, "kernels.conv2d_backward", count_conv("backward")),
        (engine.save_checkpoint, "engine.save_checkpoint",
         file_bytes("engine.checkpoint_bytes", 0)),
        (engine.load_checkpoint, "engine.load_checkpoint", None),
        (engine.save_predictions, "engine.save_predictions",
         file_bytes("engine.predictions_bytes", 1)),
        (engine.load_predictions, "engine.load_predictions",
         count("engine.load_predictions_rows", lambda result, args: len(result))),
        (geodata.load_observations, "geodata.load_observations",
         count("geodata.load_observations_surveys", lambda result, args: len(result))),
        (evalkit.evaluate, "evalkit.evaluate", None),
        (evalkit.topk_prf, "evalkit.topk_prf", None),
        (evalkit.multilabel_auc, auc_name, None),
        (evalkit.top_k, "evalkit.top_k", count("evalkit.top_k_calls")),
        (evalkit.write_report, "evalkit.write_report", None),
    ]
    for fn, name, after in plan:
        _replace_everywhere(fn, tracer.wrap(fn, name, after))
    binary_auc = evalkit.binary_auc

    @functools.wraps(binary_auc)
    def counted_binary_auc(*args, **kwargs):
        tracer.counts["evalkit.binary_auc_calls"] += 1
        return binary_auc(*args, **kwargs)

    _replace_everywhere(binary_auc, counted_binary_auc)
    engine.AdamW.step = tracer.wrap(engine.AdamW.step, "engine.adamw_step", adamw_after)


def instrument_model(tracer: Tracer, model) -> None:
    """Wrap forward/backward of each encoder and of the fusion head."""
    parts = dict(model.encoders)
    parts["head"] = model.head
    for part, module in parts.items():
        module.forward = tracer.wrap(module.forward, f"nn.forward.{part}")
        module.backward = tracer.wrap(module.backward, f"nn.backward.{part}")


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: its duration minus its children's."""
    child_time: Counter = Counter()
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for sid, name, start, end, _ in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def step_times_ms(spans) -> list[float]:
    """Training step times: from the start of a step's collate to the end of
    its AdamW.step (validation collates are never followed by a step)."""
    last_collate = None
    steps = []
    for _, name, start, end, _ in sorted(spans, key=lambda s: s[2]):
        if name == "engine.collate":
            last_collate = start
        elif name == "engine.adamw_step" and last_collate is not None:
            steps.append((end - last_collate) * 1e3)
            last_collate = None
    return steps


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, float]:
    """Per-layer numbers per command invocation, from the recorded spans."""
    spans, counts = tracer.spans, tracer.counts
    total: Counter = Counter()
    for _, name, start, end, _ in spans:
        total[name] += end - start
    name_of = {sid: name for sid, name, _, _, _ in spans}
    validation = sum(end - start for _, name, start, end, parent in spans
                     if name == "evalkit.evaluate" and name_of.get(parent) == "engine.fit")
    command = sum(total[name] for name in ROOT_SPANS)
    conv_s = total["kernels.conv2d_forward"] + total["kernels.conv2d_backward"]
    steps = step_times_ms(spans)
    per_rep = lambda value: value / reps  # noqa: E731
    m = {
        "workload.command_s": per_rep(command),
        "engine.collate_s": per_rep(total["engine.collate"]),
        "engine.collate_share": total["engine.collate"] / command,
        "geodata.extract_patch_s": per_rep(total["geodata.extract_patch"]),
        "kernels.conv2d_gflop": per_rep(counts["kernels.conv2d_flop"]) / 1e9,
        "kernels.conv2d_gflops_per_s": counts["kernels.conv2d_flop"] / conv_s / 1e9 if conv_s else 0.0,
        "engine.step_ms_p50": percentile(steps, 50),
        "engine.step_ms_p90": percentile(steps, 90),
        "engine.steps": per_rep(len(steps)),
        "engine.validation_s": per_rep(validation),
    }
    for name in ("kernels.conv2d_forward", "kernels.conv2d_backward", "engine.adamw_step",
                 "engine.load_checkpoint", "engine.save_predictions",
                 "engine.load_predictions", "geodata.load_observations",
                 "evalkit.evaluate", "evalkit.topk_prf", "evalkit.top_k",
                 "evalkit.write_report"):
        m[f"{name}_s"] = per_rep(total[name])
    m["engine.checkpoint_s"] = per_rep(total["engine.save_checkpoint"])
    for part in NN_PARTS:
        m[f"nn.forward_s.{part}"] = per_rep(total[f"nn.forward.{part}"])
        m[f"nn.backward_s.{part}"] = per_rep(total[f"nn.backward.{part}"])
    for avg in ("micro", "samples", "macro"):
        m[f"evalkit.auc_s.{avg}"] = per_rep(total[f"evalkit.multilabel_auc.{avg}"])
    for name in ("geodata.extract_patch_calls", "kernels.conv2d_forward_calls",
                 "kernels.conv2d_backward_calls", "engine.adamw_steps", "engine.adamw_skipped",
                 "engine.checkpoint_bytes", "engine.predictions_bytes",
                 "engine.load_predictions_rows", "geodata.load_observations_surveys",
                 "evalkit.binary_auc_calls", "evalkit.top_k_calls"):
        m[name] = per_rep(counts[name])
    selfs = self_times(spans)
    for name in SPAN_NAMES:
        m[f"self_s.{name}"] = per_rep(selfs.get(name, 0.0))
    return m
