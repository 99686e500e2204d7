"""Span recorder and per-layer instrumentation for the traced run.

The traced run wraps the public functions of each flowseg module at the
place where their caller looks them up (``pipeline.conv2d``,
``pipeline.backward``, ``cli.fit``, ...), so no file under ``src/`` changes.
Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 attrs: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


class Tracer:
    """Nested spans of one thread; parents are indices into ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), 0.0, parent, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    kids = _children(spans)
    return [s.duration - _covered([(spans[c].start, spans[c].end)
                                   for c in kids[i]])
            for i, s in enumerate(spans)]


def nesting_violations(spans: list[Span], slack: float = 1e-9) -> list[str]:
    """Spans whose children leave the parent's interval or cover more of it."""
    out = []
    for i, kids in enumerate(_children(spans)):
        s = spans[i]
        if any(spans[c].start < s.start - slack or spans[c].end > s.end + slack
               for c in kids):
            out.append(f"{s.name}#{i}: a child lies outside the span")
        elif _covered([(spans[c].start, spans[c].end) for c in kids]) \
                > s.duration + slack:
            out.append(f"{s.name}#{i}: children cover more than the span")
    return out


def span_cost(reps: int = 20000) -> float:
    """Mean cost in seconds of recording one empty span in this process."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(reps):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / reps


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of root and all its descendants (parents precede children)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


# -- instrumentation ------------------------------------------------------------


@contextmanager
def instrument(tracer: Tracer):
    """Wrap flowseg's public functions where their callers look them up."""
    from flowseg import cli, diffcore, pipeline

    def timed(name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)
        return wrapper

    def tape_walk(root, kind):
        with tracer.span("bench.tape_walk", kind=kind) as s:
            nodes = diffcore.trace(root)
            s.attrs["nodes"] = len(nodes)
            s.attrs["bytes"] = sum(n.data.nbytes for n in nodes)

    conv_orig = pipeline.conv2d

    def conv2d(x, w):
        b, cin, h, wd = x.shape
        cout = w.shape[0]
        gemm = 2 * b * h * wd * 9 * cin * cout
        with tracer.span("diffcore.conv2d", cin=cin, cout=cout, h=h, w=wd,
                         x_grad=x.requires_grad, flop=gemm,
                         col_bytes=b * h * wd * 9 * cin * 8):
            out = conv_orig(x, w)
        bw = out._backward
        if bw is not None:
            # dW is one GEMM over the saved im2col matrix; dx is a second
            # convolution that builds an im2col matrix of the gradient.
            flop = gemm * (int(w.requires_grad) + int(x.requires_grad))
            col = b * h * wd * 9 * cout * 8 if x.requires_grad else 0

            def timed_backward(g):
                with tracer.span("diffcore.conv2d.bwd", flop=flop,
                                 col_bytes=col):
                    bw(g)
            out._backward = timed_backward
        return out

    backward_orig = pipeline.backward

    def backward(loss):
        tape_walk(loss, "train_step")
        with tracer.span("diffcore.backward"):
            return backward_orig(loss)

    forward_orig = pipeline.forward

    def forward(images, model, mode="train", rng=None):
        with tracer.span(f"pipeline.forward.{mode}"):
            out = forward_orig(images, model, mode, rng)
        if mode == "eval":
            tape_walk(out.y_hat, "eval_batch")
        return out

    fit_orig = cli.fit

    def fit(train_set, val_set, cfg, *args, **kwargs):
        toggles = (cfg.nf_posterior, cfg.ncvi, cfg.sde_girsanov)
        version = next(v for v, t in pipeline.VERSION_TOGGLES.items()
                       if t == toggles)
        with tracer.span(f"pipeline.fit.{version}"):
            return fit_orig(train_set, val_set, cfg, *args, **kwargs)

    save_orig = pipeline.checkpoint_save

    def checkpoint_save(model, path, *args, **kwargs):
        with tracer.span("pipeline.checkpoint_save") as s:
            save_orig(model, path, *args, **kwargs)
        s.attrs["bytes"] = Path(path).stat().st_size

    patches = [
        (pipeline, "conv2d", conv2d),
        (pipeline, "backward", backward),
        (pipeline, "forward", forward),
        (pipeline, "sde_girsanov_sample_field",
         timed("sde.sample_field", pipeline.sde_girsanov_sample_field)),
        (pipeline, "flow_push",
         timed("flows.flow_push", pipeline.flow_push,
               lambda stack, u: {"rows": u.shape[0]})),
        (pipeline, "mc_kl", timed("ncvi.mc_kl", pipeline.mc_kl)),
        (pipeline, "refresh_state",
         timed("ncvi.refresh_state", pipeline.refresh_state)),
        (pipeline, "kl_terms", timed("ncvi.kl_terms", pipeline.kl_terms)),
        (pipeline, "grad_sqnorm",
         timed("spatial.grad_sqnorm", pipeline.grad_sqnorm)),
        (pipeline, "gumbel_softmax",
         timed("spatial.gumbel_softmax", pipeline.gumbel_softmax)),
        (pipeline, "dice_ce_loss_per_item",
         timed("spatial.dice_ce_loss_per_item",
               pipeline.dice_ce_loss_per_item)),
        (pipeline.Adam, "step", timed("pipeline.Adam.step", pipeline.Adam.step)),
        (pipeline, "train_step",
         timed("pipeline.train_step", pipeline.train_step)),
        (pipeline, "evaluate", timed("pipeline.evaluate", pipeline.evaluate)),
        (cli, "evaluate", timed("pipeline.evaluate", cli.evaluate)),
        (cli, "fit", fit),
        (pipeline, "checkpoint_save", checkpoint_save),
        (pipeline, "checkpoint_load",
         timed("pipeline.checkpoint_load", pipeline.checkpoint_load)),
        (cli, "checkpoint_load",
         timed("pipeline.checkpoint_load", cli.checkpoint_load)),
        (cli, "gen_dataset", timed("data.gen_dataset", cli.gen_dataset)),
        (cli, "dataset_load", timed("data.dataset_load", cli.dataset_load)),
        (pipeline, "dice_score", timed("data.dice_score", pipeline.dice_score)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


# -- per-layer metrics -------------------------------------------------------------

def layer_metrics(spans: list[Span], command: int, setup: int) -> dict:
    """Per-layer values over the measured command's span subtree.

    ``data.gen_dataset.s`` is taken over the set-up subtree instead, since
    generating datasets is set-up work.
    """
    from flowseg.pipeline import VERSION_TOGGLES

    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    tape_nodes = tape_bytes = 0
    for i in subtree(spans, command):
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, val in s.attrs.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                attr_sum[s.name, key] = attr_sum.get((s.name, key), 0.0) + val
        if s.name == "bench.tape_walk":
            tape_nodes = max(tape_nodes, s.attrs["nodes"])
            tape_bytes = max(tape_bytes, s.attrs["bytes"])

    def t(name):
        return total.get(name, 0.0)

    def attr(names, key):
        return sum(attr_sum.get((n, key), 0.0) for n in names)

    conv = ("diffcore.conv2d", "diffcore.conv2d.bwd")
    out = {
        "diffcore.conv2d.calls": calls.get("diffcore.conv2d", 0),
        "diffcore.conv2d.s": t(conv[0]) + t(conv[1]),
        "diffcore.conv2d.gflop": attr(conv, "flop") / 1e9,
        "diffcore.conv2d.col_mb": attr(conv, "col_bytes") / 2**20,
        "diffcore.backward.s": t("diffcore.backward"),
        "diffcore.backward.self_s": own.get("diffcore.backward", 0.0),
        "diffcore.tape.nodes": tape_nodes,
        "diffcore.tape.mb": tape_bytes / 2**20,
        "sde.sample_field.calls": calls.get("sde.sample_field", 0),
        "sde.sample_field.s": t("sde.sample_field"),
        "flows.flow_push.s": t("flows.flow_push"),
        "flows.flow_push.rows": attr(["flows.flow_push"], "rows"),
        "ncvi.mc_kl.s": t("ncvi.mc_kl"),
        "ncvi.refresh_state.s": t("ncvi.refresh_state"),
        "ncvi.kl_terms.s": t("ncvi.kl_terms"),
        "spatial.grad_sqnorm.s": t("spatial.grad_sqnorm"),
        "spatial.gumbel_softmax.s": t("spatial.gumbel_softmax"),
        "spatial.dice_ce_loss_per_item.s": t("spatial.dice_ce_loss_per_item"),
        "pipeline.train_step.s": t("pipeline.train_step"),
        "pipeline.train_step.self_s": own.get("pipeline.train_step", 0.0),
        "pipeline.Adam.step.s": t("pipeline.Adam.step"),
        "pipeline.forward.train.s": t("pipeline.forward.train"),
        "pipeline.forward.eval.s": t("pipeline.forward.eval"),
        "pipeline.forward.self_s": (own.get("pipeline.forward.train", 0.0)
                                    + own.get("pipeline.forward.eval", 0.0)),
        "pipeline.evaluate.s": t("pipeline.evaluate"),
        "pipeline.fit.s": sum(t(f"pipeline.fit.{v}") for v in VERSION_TOGGLES),
        "pipeline.checkpoint_save.s": t("pipeline.checkpoint_save"),
        "pipeline.checkpoint.bytes": attr(["pipeline.checkpoint_save"], "bytes"),
        "pipeline.checkpoint_load.s": t("pipeline.checkpoint_load"),
        "data.gen_dataset.s": sum(spans[i].duration
                                  for i in subtree(spans, setup)
                                  if spans[i].name == "data.gen_dataset"),
        "data.dataset_load.s": t("data.dataset_load"),
        "data.dice_score.s": t("data.dice_score"),
    }
    for v in VERSION_TOGGLES:
        out[f"pipeline.fit.{v}.s"] = t(f"pipeline.fit.{v}")
    return out


def conv_shapes(spans: list[Span], command: int) -> dict[tuple[int, int, int, int], bool]:
    """(Cin, Cout, H, W) of every convolution the command ran -> input needs grad."""
    shapes: dict[tuple[int, int, int, int], bool] = {}
    for i in subtree(spans, command):
        a = spans[i].attrs
        if spans[i].name == "diffcore.conv2d":
            key = (a["cin"], a["cout"], a["h"], a["w"])
            shapes[key] = shapes.get(key, False) or a["x_grad"]
    return shapes


def kernel_rows(shapes: dict, batch: int = 8, reps: int = 5) -> dict[str, float]:
    """Standalone median forward and backward time of conv2d per shape, in ms."""
    from flowseg import diffcore

    rng = np.random.default_rng(0)
    out = {}
    for (cin, cout, h, w), x_grad in sorted(shapes.items()):
        x = diffcore.Tensor(rng.standard_normal((batch, cin, h, w)),
                            requires_grad=x_grad)
        k = diffcore.Tensor(rng.normal(0.0, 0.1, (cout, cin, 3, 3)),
                            requires_grad=True)
        fwd, bwd = [], []
        for _ in range(reps + 1):
            t0 = time.perf_counter()
            y = diffcore.conv2d(x, k)
            t1 = time.perf_counter()
            loss = y.sum()
            t2 = time.perf_counter()
            diffcore.backward(loss)
            t3 = time.perf_counter()
            diffcore.zero_grad([x, k])
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        key = f"{cin}to{cout}_h{h}"
        # The first repetition warms caches and allocator pools.
        out[f"diffcore.conv2d.fwd_ms.{key}"] = 1e3 * statistics.median(fwd[1:])
        out[f"diffcore.conv2d.bwd_ms.{key}"] = 1e3 * statistics.median(bwd[1:])
    return out
