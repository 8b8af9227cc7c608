"""numpy-backed tensors with reverse-mode autodiff.

Arrays are float32 by default (float64 is opt-in, used by the gradient
checker), rank 3 at most, and every forward op validates its output so a
NaN or Inf is reported at the op that produced it instead of ten layers
downstream. The graph is a plain DAG of Tensor nodes; ``backward()``
materializes a :class:`ComputationRecord` (topological node list) and walks
it once in reverse. Gradients accumulate across backward calls until
``zero_grad()``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Additive fill for disallowed attention scores. Large enough that exp()
# underflows to exact zero for any realistic score scale; the masked softmax
# additionally zeroes disallowed weights outright, so masking is exact, not
# merely "very small".
MASK_FILL = -1e9

_FLOAT_DTYPES = (np.float32, np.float64)


class NonFiniteError(FloatingPointError):
    """A forward op produced NaN or Inf."""


class GradientError(AssertionError):
    """Analytic and numeric gradients disagree beyond tolerance."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block. Use for inference paths."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@functools.cache
def _openblas_threads_api():
    """(get, set) thread-count functions of the OpenBLAS numpy bundles, or None.

    Wheels ship it as ``libscipy_openblas64_*`` in ``numpy.libs`` beside the
    package (Linux, Windows) or in ``numpy/.dylibs`` (macOS). Opening the
    already-loaded file returns the handle numpy itself uses.
    """
    pkg = os.path.dirname(np.__file__)
    for libdir in (os.path.join(os.path.dirname(pkg), "numpy.libs"), os.path.join(pkg, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
            try:
                lib = ctypes.CDLL(path)
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block.

    The model's matmuls are d_model-sized, where a second BLAS thread doubles
    CPU time without shortening wall time. The caller's thread count is
    restored on exit. A numpy linked against another BLAS is left alone.
    """
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    prev = get()
    set_(1)
    try:
        yield
    finally:
        set_(prev)


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    if arr.ndim > 3:
        raise ValueError(f"rank {arr.ndim} tensor not supported (max rank 3)")
    return arr


def _check_finite(data: np.ndarray, op: str) -> None:
    # the array method skips np.all's Python-level dispatch, which on a
    # decode step's one-row arrays costs more than the check itself
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A numpy array plus the graph edges needed for backprop.

    ``grad`` is lazily allocated on leaves and accumulates until
    ``zero_grad()``; op outputs never hold one.
    ``parents`` and ``_backward`` are set only on op outputs recorded while
    gradients are enabled; leaves have an empty parent tuple.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        _check_finite(self.data, "leaf")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None
        self.op = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> ComputationRecord:
        """Backpropagate from a scalar root; returns the record it walked."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        if not self.requires_grad:
            raise ValueError("backward() root does not require grad")
        record = ComputationRecord.trace(self)
        # Per-call flow map keeps repeated backward() calls linear: each call
        # adds exactly one more unit of gradient everywhere.
        # Only leaves keep a gradient; an op output hands its flow to its
        # parents and is dropped with the graph.
        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(record.nodes):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                node._backward(g, flows)
            elif node.grad is None:
                node.grad = np.array(g, dtype=node.data.dtype)
            else:
                node.grad += g
        return record

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype})"


@dataclass
class ComputationRecord:
    """Topologically ordered nodes reachable from ``root``.

    Parents always precede children, so a single reverse walk sees every
    node after all of its consumers.
    """

    root: Tensor
    nodes: list[Tensor]

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationRecord":
        nodes: list[Tensor] = []
        seen: set[int] = set()
        # iterative postorder; model graphs are deep enough to worry about
        # Python's recursion limit
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(root=root, nodes=nodes)

    def __len__(self) -> int:
        return len(self.nodes)


# Ops that only move or select elements: their inputs were checked when
# they were made, so a non-finite value cannot first appear in their output.
_MOVES_ONLY = frozenset(("transpose_last", "relu", "split_heads", "merge_heads", "reshape"))


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    if op not in _MOVES_ONLY:
        _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.parents = ()
    out._backward = None
    out.op = op
    out.requires_grad = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out._backward = backward
    return out


# numpy's own reduction over a short last axis runs one row at a time and
# costs more than the arithmetic around it. The helpers below are faster
# and keep every row's result independent of the other rows in the array,
# so a sentence scores the same in any batch.


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis."""
    return np.einsum("...i->...", x)[..., None]


def _columns(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)


def _sum_last_padded(x: np.ndarray) -> np.ndarray:
    """:func:`_sum_last` for rows that end in padding zeros: the sum runs
    strictly left to right, so trailing zeros leave it unchanged."""
    return _columns(x).sum(axis=0).reshape(x.shape[:-1] + (1,))


def _max_last(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as a length-1 axis."""
    return _columns(x).max(axis=0).reshape(x.shape[:-1] + (1,))


def _sum_leading(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last: (..., d) -> (d,)."""
    d = x.shape[-1]
    rows = x.reshape(-1, d)
    return np.ones(rows.shape[0], dtype=x.dtype) @ rows


def _flow(flows: dict[int, np.ndarray], t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    cur = flows.get(id(t))
    flows[id(t)] = g if cur is None else cur + g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add. ``b`` may broadcast as a trailing-axes pattern:
    a bias of shape (d,) or a per-position table of shape (n, d) against
    a batched (B, n, d) operand."""
    if b.data.shape != a.data.shape:
        ok = (
            b.data.shape == a.data.shape[-1:]
            or (a.data.ndim == 3 and b.data.shape == a.data.shape[1:])
        )
        if not ok:
            raise ValueError(f"add shapes {a.data.shape} and {b.data.shape} do not line up")
    out_data = a.data + b.data

    def backward(g, flows):
        _flow(flows, a, g)
        if b.data.shape == a.data.shape:
            _flow(flows, b, g)
        elif b.data.shape == a.data.shape[-1:]:
            _flow(flows, b, _sum_leading(g))
        else:
            _flow(flows, b, g.sum(axis=0))

    return _result(out_data, "add", (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise multiply, shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shapes {a.data.shape} and {b.data.shape} differ")
    out_data = a.data * b.data

    def backward(g, flows):
        _flow(flows, a, g * b.data)
        _flow(flows, b, g * a.data)

    return _result(out_data, "mul", (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    out_data = a.data * c

    def backward(g, flows):
        _flow(flows, a, g * c)

    return _result(out_data, "scale", (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for the rank patterns the models need:
    (m,p)@(p,q), (B,m,p)@(p,q), and (B,m,p)@(B,p,q)."""
    ra, rb = a.data.ndim, b.data.ndim
    if (ra, rb) not in ((2, 2), (3, 2), (3, 3)):
        raise ValueError(f"matmul ranks ({ra},{rb}) not supported")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dims {a.data.shape} @ {b.data.shape}")
    if (ra, rb) == (3, 3) and a.data.shape[0] != b.data.shape[0]:
        raise ValueError("batched matmul batch sizes differ")
    out_data = np.matmul(a.data, b.data)

    def backward(g, flows):
        if (ra, rb) == (2, 2):
            _flow(flows, a, g @ b.data.T)
            _flow(flows, b, a.data.T @ g)
        elif (ra, rb) == (3, 2):
            # numpy runs a stack times a contiguous matrix as one product;
            # against a transposed view it loops over the stack
            _flow(flows, a, np.matmul(g, np.ascontiguousarray(b.data.T)))
            p, q = b.data.shape
            _flow(flows, b, a.data.reshape(-1, p).T @ g.reshape(-1, q))
        else:
            _flow(flows, a, np.matmul(g, b.data.swapaxes(-1, -2)))
            _flow(flows, b, np.matmul(a.data.swapaxes(-1, -2), g))

    return _result(out_data, "matmul", (a, b), backward)


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes (rank 2 or 3)."""
    if a.data.ndim < 2:
        raise ValueError("transpose_last needs rank >= 2")
    out_data = np.ascontiguousarray(a.data.swapaxes(-1, -2))

    def backward(g, flows):
        _flow(flows, a, g.swapaxes(-1, -2))

    return _result(out_data, "transpose_last", (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g, flows):
        _flow(flows, a, g * (a.data > 0))

    return _result(out_data, "relu", (a,), backward)


def softmax_masked(scores: Tensor, allow: np.ndarray | None) -> Tensor:
    """Row softmax over the last axis with exact masking.

    ``allow`` is a boolean array broadcastable to ``scores.shape`` (or None
    for all-allowed). Disallowed positions get a large negative additive
    shift *and* are explicitly zeroed after the exp, then rows renormalize
    over what is left, so a disallowed weight is exactly 0.0 and cannot leak
    value rows regardless of score magnitudes.
    """
    s = scores.data
    mask = None
    if allow is not None:
        allow = np.asarray(allow, dtype=bool)
        # a row's verdict does not change under broadcasting, so the
        # un-broadcast mask is checked
        if not allow.any(axis=-1).all():
            raise ValueError("softmax_masked: some row has no allowed positions")
        mask = np.broadcast_to(allow, s.shape)
        e = s + np.where(allow, 0.0, MASK_FILL).astype(s.dtype)
    else:
        e = s.copy()
    e -= _max_last(e)
    np.exp(e, out=e)
    if mask is not None:
        e *= mask
    e /= _sum_last_padded(e)
    out_data = e

    def backward(g, flows):
        w = out_data
        ds = g - _sum_last_padded(g * w)
        ds *= w
        _flow(flows, scores, ds if mask is None else np.where(mask, ds, 0.0))

    return _result(out_data, "softmax_masked", (scores,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm gain/bias must have shape (d,)")
    xhat = x.data - _sum_last(x.data) / d
    inv_std = 1.0 / np.sqrt(_sum_last(xhat * xhat) / d + eps)
    xhat *= inv_std
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g, flows):
        _flow(flows, gain, _sum_leading(g * xhat))
        _flow(flows, bias, _sum_leading(g))
        dxhat = g * gain.data
        dx = dxhat - _sum_last(dxhat) / d
        dx -= xhat * (_sum_last(dxhat * xhat) / d)
        dx *= inv_std
        _flow(flows, x, dx)

    return _result(out_data, "layer_norm", (x, gain, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (V, d) by integer ids of shape (n,) or (B, n)."""
    ids = np.asarray(ids)
    if ids.ndim not in (1, 2):
        raise ValueError("embedding ids must be rank 1 or 2")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding id out of range")
    out_data = table.data[ids]

    def backward(g, flows):
        # Sum gradient rows per id: a stable sort keeps each id's rows in
        # their original order, then one reduceat adds each run.
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        dt = np.zeros_like(table.data)
        if flat.size:
            rows = g.reshape(-1, table.data.shape[1])[order]
            dt[sorted_ids[starts]] = np.add.reduceat(rows, starts, axis=0)
        _flow(flows, table, dt)

    return _result(out_data, "embedding", (table,), backward)


def split_heads(a: Tensor, heads: int, transpose: bool = False) -> Tensor:
    """Cut the last axis into ``heads`` equal slices and stack them along
    the first: (n, d) -> (heads, n, d/heads) and (B, n, d) ->
    (B*heads, n, d/heads), row b*heads + h holding head h of item b.
    ``transpose`` also swaps each slice's two axes, giving (.., d/heads, n)."""
    if a.data.ndim not in (2, 3) or a.data.shape[-1] % heads:
        raise ValueError(f"cannot split shape {a.data.shape} into {heads} heads")
    lead, n, d = (1,) * (3 - a.data.ndim) + a.data.shape
    dh = d // heads
    axes = (0, 2, 3, 1) if transpose else (0, 2, 1, 3)
    out_data = np.ascontiguousarray(a.data.reshape(lead, n, heads, dh).transpose(axes))
    out_data = out_data.reshape((lead * heads,) + out_data.shape[2:])

    def backward(g, flows):
        g4 = g.reshape((lead, heads) + g.shape[1:])
        g4 = g4.transpose(0, 3, 1, 2) if transpose else g4.transpose(0, 2, 1, 3)
        _flow(flows, a, g4.reshape(a.data.shape))

    return _result(out_data, "split_heads", (a,), backward)


def merge_heads(a: Tensor, heads: int, rank: int = 3) -> Tensor:
    """Inverse of :func:`split_heads`: (B*heads, n, dh) -> (B, n, heads*dh),
    or (heads, n, dh) -> (n, heads*dh) when ``rank`` is 2."""
    if a.data.ndim != 3 or a.data.shape[0] % heads or rank not in (2, 3):
        raise ValueError(f"cannot merge shape {a.data.shape} over {heads} heads")
    rows, n, dh = a.data.shape
    lead = rows // heads
    if rank == 2 and lead != 1:
        raise ValueError(f"rank-2 merge needs exactly {heads} rows, got {rows}")
    out_data = np.ascontiguousarray(
        a.data.reshape(lead, heads, n, dh).transpose(0, 2, 1, 3)
    ).reshape((lead, n, heads * dh)[3 - rank :])

    def backward(g, flows):
        _flow(flows, a, g.reshape(lead, n, heads, dh).transpose(0, 2, 1, 3).reshape(a.data.shape))

    return _result(out_data, "merge_heads", (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)
    if out_data.ndim > 3:
        raise ValueError("reshape beyond rank 3")

    def backward(g, flows):
        _flow(flows, a, g.reshape(a.data.shape))

    return _result(np.ascontiguousarray(out_data), "reshape", (a,), backward)


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g, flows):
        _flow(flows, a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    return _result(out_data, "total", (a,), backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with prob p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if p == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype)
    mask = keep / (1.0 - p)
    out_data = a.data * mask

    def backward(g, flows):
        _flow(flows, a, g * mask)

    return _result(out_data, "dropout", (a,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
    ignore_index: int | None = None,
) -> Tensor:
    """Mean smoothed negative log likelihood over non-ignored rows.

    ``logits`` is (N, V); ``targets`` is (N,) integer class ids. With
    smoothing eps the per-row target distribution is
    (1-eps) * onehot + eps/V, normalized locally over the vocabulary.
    Rows whose target equals ``ignore_index`` contribute nothing and do not
    count in the mean.

    Returns a float64 scalar tensor; gradients flow in the logits' dtype.
    """
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects (N, V) logits")
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError("label_smoothing must be in [0, 1)")
    targets = np.asarray(targets)
    if targets.shape != (logits.data.shape[0],):
        raise ValueError("targets must be (N,)")
    n, v = logits.data.shape
    keep = np.ones(n, dtype=bool) if ignore_index is None else targets != ignore_index
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise ValueError("cross_entropy: every row is ignored")
    kept_targets = targets[keep]
    if kept_targets.min() < 0 or kept_targets.max() >= v:
        raise ValueError("cross_entropy target id out of range")

    z = logits.data - _max_last(logits.data)
    lse = np.log(_sum_last(np.exp(z)))
    logp = z - lse  # (N, V)
    nll = -logp[np.arange(n), np.where(keep, targets, 0)]
    smooth = -_sum_last(logp)[:, 0] / v
    per_row = (1.0 - label_smoothing) * nll + label_smoothing * smooth
    # the mean stays float64: a float32 batch mean would carry a rounding
    # error that token-weighted corpus averages of batch means then expose
    out_data = np.asarray(per_row[keep].mean(dtype=np.float64))

    def backward(g, flows):
        p = np.exp(logp)
        q = np.full((n, v), label_smoothing / v, dtype=logits.data.dtype)
        q[np.arange(n), np.where(keep, targets, 0)] += 1.0 - label_smoothing
        dlogits = (p - q) * (float(g) / n_keep)
        dlogits[~keep] = 0.0
        _flow(flows, logits, dlogits.astype(logits.data.dtype))

    return _result(out_data, "cross_entropy", (logits,), backward)


@dataclass
class GradCheckResult:
    """Outcome of a finite-difference gradient check."""

    per_param: list[float]  # max relative error per checked tensor
    max_rel_err: float
    worst_param: int
    n_elements: int

    def ok(self, tol: float) -> bool:
        return self.max_rel_err <= tol


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-3,
) -> GradCheckResult:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps the parameter list to a scalar Tensor and must be a pure
    function of those tensors. Parameters are copied to float64 so the
    difference quotient is not drowned by float32 rounding; the op code
    paths exercised are the same ones training uses. The central
    differences at steps h and h/2 are combined by Richardson extrapolation,
    (4·D(h/2) − D(h))/3, which cancels their O(h²) error: a gradient
    element near zero is then not swamped by the curvature around it.
    """
    p64 = [Tensor(p.data.astype(np.float64), requires_grad=True) for p in params]
    loss = f(p64)
    if loss.data.size != 1:
        raise ValueError("grad_check objective must be scalar")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in p64]

    def eval_loss() -> float:
        with no_grad():
            return float(f(p64).data)

    per_param: list[float] = []
    total_elems = 0
    for p, a in zip(p64, analytic):
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]

            def central(step: float) -> float:
                flat[i] = orig + step
                up = eval_loss()
                flat[i] = orig - step
                down = eval_loss()
                flat[i] = orig
                return (up - down) / (2.0 * step)

            numeric = (4.0 * central(h / 2) - central(h)) / 3.0
            got = float(a.reshape(-1)[i])
            denom = max(abs(numeric), abs(got), 1e-8)
            worst = max(worst, abs(numeric - got) / denom)
        per_param.append(worst)
        total_elems += flat.size
    max_err = max(per_param) if per_param else 0.0
    return GradCheckResult(
        per_param=per_param,
        max_rel_err=max_err,
        worst_param=int(np.argmax(per_param)) if per_param else -1,
        n_elements=total_elems,
    )
