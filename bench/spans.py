"""Spans around calls into markovnmt's layers, for the traced run.

The program's source is not edited. For the length of a
``Tracer.patched()`` block, each traced function is replaced by a wrapper
installed where its caller looks the name up: a module global such as
``training.encode_batch`` or ``audit.decode_forward``, or a class
attribute such as ``Tensor.backward``. A name that a refactor removed is
recorded as absent and the run goes on without it.

A span has a name, a role (the model the workload was running: ``mat5``
or ``ref``), a start, an end, a parent (the span open when it started)
and an optional note about the call. Spans stay in memory until the run
ends; :func:`per_layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from markovnmt import attention, audit, data, decoding, model, tensor, training

ROLES = ("mat5", "ref")
TENSOR_OPS = ("matmul", "softmax_masked", "layer_norm", "embedding", "cross_entropy")
# Modules that import the traced tensor ops into their own namespace.
OP_USERS = (attention, model, training, decoding, audit)

# The span that counts one unit of work on each workload: a train step, a
# decode step, an audit forward.
UNIT_SPAN = {
    "train-periodic": "training.train_step",
    "translate-long": "decoding.incremental_step",
    "audit-exact": "model.decode_forward",
}


class Tracer:
    """Span recorder. Spans are kept as parallel lists, indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.roles: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self.stack: list[int] = []
        self.role = ROLES[0]
        self.absent: list[str] = []
        self.on = True

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.roles.append(self.role)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.notes.append(None)
        self.ends.append(math.nan)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def inside(self, *names: str) -> bool:
        """True when any open span has one of ``names``."""
        return any(self.names[i] in names for i in self.stack)

    def wrapper(self, fn, name, pre=None, post=None):
        """``fn`` inside a span. ``name`` is a string or a function of the
        call's arguments; ``pre(args)`` notes the call before it runs and
        ``post(note, args, result)`` after."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer.open(name if isinstance(name, str) else name(args))
            if pre is not None:
                tracer.notes[i] = pre(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if post is not None:
                tracer.notes[i] = post(tracer.notes[i], args, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Record no spans inside the block (the benchmark's own checks)."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    @contextmanager
    def patched(self):
        """Install every wrapper of :func:`patch_table`; restore on exit."""
        undo = []
        try:
            for owner, attr, name, pre, post in patch_table(self):
                original = owner.__dict__.get(attr)
                if original is None:
                    self.absent.append(f"{owner.__name__}.{attr}")
                    continue
                setattr(owner, attr, self.wrapper(original, name, pre, post))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as gzipped columns; names are indexed."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "absent": self.absent,
            "name": [index[n] for n in self.names],
            "role": [ROLES.index(r) for r in self.roles],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _attention_name(tracer: Tracer):
    """Span name of a ``multi_head_attention`` call: self-attention reads
    keys from its own query source, cross-attention from the memory."""

    def name(args) -> str:
        if args[0] is not args[1]:
            return "attention.cross"
        if tracer.inside("model.encode", "model.encode_batch"):
            return "attention.enc_self"
        return "attention.dec_self"

    return name


def _scores(tracer: Tracer):
    """Decoder self-attention scores computed (the shape passed to
    ``softmax_masked``) and allowed (its mask)."""

    def pre(args):
        if len(tracer.stack) < 2 or tracer.names[tracer.stack[-2]] != "attention.dec_self":
            return None
        shape = args[0].data.shape
        allow = args[1] if len(args) > 1 else None
        computed = int(np.prod(shape))
        if allow is None:
            return computed, computed
        return computed, int(np.broadcast_to(np.asarray(allow, bool), shape).sum())

    return pre


def _step_before(args):
    state = args[0]
    return state.step, state.counts.get("self_attn_scores", 0)


def _step_after(note, args, _result):
    state = args[0]
    step, scores = note
    return step, state.counts.get("self_attn_scores", 0) - scores, state.resident_floats()


def patch_table(tracer: Tracer):
    """(owner, attribute, span name, pre, post) for every traced name."""
    n_tokens = lambda _note, _args, result: len(result)  # noqa: E731
    beam_tokens = lambda _note, _args, result: len(result.tokens)  # noqa: E731
    table = [
        (data, "generate_pairs", "data.generate_pairs", None, None),
        (data, "numericalize", "data.numericalize", None, None),
        (training, "make_batches", "training.make_batches", None, None),
        (training, "train_step", "training.train_step", None, None),
        (training, "batch_loss", "training.batch_loss", None, None),
        (training, "encode_batch", "model.encode_batch", None, None),
        (training, "decode_forward_batch", "model.decode_forward_batch", None, None),
        (tensor.Tensor, "backward", "tensor.backward", None, lambda _n, _a, rec: len(rec)),
        (training.AdamW, "apply", "training.adamw_apply", None, None),
        (decoding, "greedy_decode", "decoding.greedy_decode", None, n_tokens),
        (decoding, "beam_decode", "decoding.beam_decode", None, beam_tokens),
        (decoding, "init_state", "decoding.init_state", None, None),
        (decoding, "incremental_step", "decoding.incremental_step", _step_before, _step_after),
        (decoding, "decode_hidden", "model.decode_hidden", None, None),
        (decoding, "encode", "model.encode", None, None),
        (decoding.DecoderState, "clone", "decoding.state_clone", None, None),
        (decoding.DecoderState, "push", "decoding.state_push", None, None),
        (audit, "audit_model", "audit.audit_model", None, None),
        (audit, "encode", "model.encode", None, None),
        (audit, "decode_forward", "model.decode_forward", None, None),
    ]
    for owner in (model, decoding):
        table.append((owner, "multi_head_attention", _attention_name(tracer), None, None))
        table.append((owner, "transparent_self_attention", "attention.dec_self", None, None))
    for op in TENSOR_OPS:
        pre = _scores(tracer) if op == "softmax_masked" else None
        # an op that no module imports any more is looked for in tensor
        # itself, so that a removed op is reported absent
        users = [owner for owner in OP_USERS if op in owner.__dict__] or [tensor]
        table.extend((owner, op, f"tensor.{op}", pre, None) for owner in users)
    return table


# ---------------------------------------------------------------------------
# per-layer metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    median when there are fewer than forty samples."""
    n = len(values)
    for q, need in ((0.99, 1000), (0.9, 100), (0.75, 40)):
        if n >= need:
            return percentile(values, q)
    return percentile(values, 0.5)


class SpanTable:
    """Durations, self times and notes of a tracer's spans, by name and role."""

    def __init__(self, tracer: Tracer) -> None:
        starts = np.asarray(tracer.starts)
        ends = np.asarray(tracer.ends)
        self.duration_ms = (ends - starts) * 1e3
        child = np.zeros_like(self.duration_ms)
        parents = np.asarray(tracer.parents, dtype=np.int64)
        has = parents >= 0
        np.add.at(child, parents[has], self.duration_ms[has])
        self.self_ms = self.duration_ms - child
        self.tracer = tracer
        self.by_key: dict[tuple[str, str], list[int]] = {}
        for i, (name, role) in enumerate(zip(tracer.names, tracer.roles)):
            self.by_key.setdefault((name, role), []).append(i)

    def ids(self, name: str, role: str) -> list[int]:
        return self.by_key.get((name, role), [])

    def durations(self, name: str, role: str) -> list[float]:
        return [float(self.duration_ms[i]) for i in self.ids(name, role)]

    def total(self, name: str, role: str) -> float:
        return float(sum(self.duration_ms[i] for i in self.ids(name, role)))

    def self_total(self, name: str, role: str) -> float:
        return float(sum(self.self_ms[i] for i in self.ids(name, role)))

    def notes(self, name: str, role: str) -> list:
        return [self.tracer.notes[i] for i in self.ids(name, role) if self.tracer.notes[i] is not None]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _p50(values: list[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


def _tail(values: list[float]) -> float:
    return tail(values) if values else 0.0


def _role_metrics(t: SpanTable, role: str, unit: str) -> dict[str, float]:
    units = len(t.ids(unit, role))
    per_unit = lambda name: _ratio(t.total(name, role), units)  # noqa: E731
    m: dict[str, float] = {}
    for metric, span in (
        ("training.train_step_ms", "training.train_step"),
        ("training.batch_loss_ms", "training.batch_loss"),
        ("tensor.backward_ms", "tensor.backward"),
        ("training.adamw_apply_ms", "training.adamw_apply"),
        ("training.make_batches_ms", "training.make_batches"),
    ):
        values = t.durations(span, role)
        m[f"{metric}.p50"] = _p50(values)
        m[f"{metric}.tail"] = _tail(values)
    m["model.encode_batch_ms"] = per_unit("model.encode_batch")
    m["model.decode_forward_batch_ms"] = per_unit("model.decode_forward_batch")
    m["tensor.tape_ops_per_train_step"] = _p50(t.notes("tensor.backward", role))
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls"] = _ratio(len(t.ids(f"tensor.{op}", role)), units)
        m[f"tensor.{op}.ms"] = per_unit(f"tensor.{op}")
    for part in ("enc_self", "dec_self", "cross"):
        m[f"attention.{part}_ms"] = per_unit(f"attention.{part}")
    scores = t.notes("tensor.softmax_masked", role)
    computed = sum(c for c, _ in scores)
    allowed = sum(a for _, a in scores)
    m["attention.dec_self_scores_computed"] = _ratio(computed, units)
    m["attention.dec_self_scores_allowed"] = _ratio(allowed, units)
    m["attention.dec_self_useful_ratio"] = _ratio(allowed, computed)

    steps = t.notes("decoding.incremental_step", role)
    step_ms = t.durations("decoding.incremental_step", role)
    m["decoding.init_state_ms"] = _p50(t.durations("decoding.init_state", role))
    for label, lo, hi in (("n25", 20, 30), ("n100", 95, 105)):
        near = [ms for ms, (n, _, _) in zip(step_ms, steps) if lo <= n <= hi]
        m[f"decoding.incremental_step_ms.{label}"] = _p50(near)
    m["model.decode_hidden_ms"] = per_unit("model.decode_hidden")
    m["decoding.state_clone_ms"] = per_unit("decoding.state_clone")
    m["decoding.state_push_ms"] = per_unit("decoding.state_push")
    m["decoding.beam_self_ms"] = _ratio(
        t.self_total("decoding.beam_decode", role), len(t.ids("decoding.beam_decode", role))
    )
    for metric, span in (
        ("decoding.greedy_ms_per_token", "decoding.greedy_decode"),
        ("decoding.beam4_ms_per_token", "decoding.beam_decode"),
    ):
        m[metric] = _ratio(t.total(span, role), sum(t.notes(span, role)))
    m["decoding.dec_self_scores_per_token"] = _ratio(sum(s for _, s, _ in steps), len(steps))
    m["decoding.resident_floats_max"] = float(max((r for _, _, r in steps), default=0))

    m["model.encode_ms"] = per_unit("model.encode")
    m["model.decode_forward_ms"] = _p50(t.durations("model.decode_forward", role))
    m["audit.self_ms"] = _ratio(t.self_total("audit.audit_model", role), units)
    return {f"{name}.{role}": value for name, value in m.items()}


def per_layer_metrics(tracer: Tracer, workload: str) -> dict[str, float]:
    """Every per-layer figure of one traced run.

    Figures "per unit" divide by the workload's unit count (train steps,
    decode steps or audit forwards). A layer that the workload does not
    run, or whose name is absent, reads 0.
    """
    t = SpanTable(tracer)
    metrics: dict[str, float] = {}
    for role in ROLES:
        metrics.update(_role_metrics(t, role, UNIT_SPAN[workload]))
    for name in ("data.generate_pairs", "data.numericalize"):
        metrics[f"{name}_ms"] = sum(t.total(name, role) for role in ROLES)
    metrics["trace.spans"] = float(len(tracer.names))
    metrics["trace.absent_names"] = float(len(tracer.absent))
    return metrics
