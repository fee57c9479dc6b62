"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Ops return `Tensor`s, each a value and a `Node` of the tape; `backward` walks
the nodes in reverse topological order, once per graph.  A node keeps only
what its backward function reads, so an interior value that no backward
function reads is freed during the forward pass, once no tensor refers to
it, and the rest as `backward` passes its node.  Inside a
`no_grad` block ops record nothing, so each intermediate is freed as soon as
nothing refers to it.  Everything runs in 64-bit on the CPU, and
single-threaded execution is bitwise deterministic.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import math
import os
import zlib
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for an op."""


class ContractError(RuntimeError):
    """An operation was called outside its contract."""


class NumericError(FloatingPointError):
    """A non-finite value appeared where a finite one is required."""


class FormatError(ValueError):
    """A file does not hold what its format requires."""


class Node:
    """A tensor's place in the tape: what `backward` needs and nothing else.

    `parents` are the nodes of the op's inputs, `op` names the op, and
    `_backward` is called with this node's gradient and accumulates into the
    parents' `grad`; `backward` calls it once and then drops it.  It
    captures only the arrays it reads, never the input tensors, so an input
    value that no backward function reads is freed as soon as the forward
    pass drops its tensor.  It must not refer to this node either, so a
    finished graph holds no reference cycle and is freed as soon as the last
    reference to its loss is dropped.  `grad` is None until something
    accumulates into it; None means zero.
    """

    __slots__ = ("grad", "parents", "op", "_backward")

    def __init__(self, parents: tuple["Node", ...] = (), op: str = "leaf"):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.op = op
        self._backward: Callable[[np.ndarray], None] | None = None

    def __repr__(self) -> str:
        return f"Node(op={self.op!r})"


class Tensor:
    """A value and its node in the tape.

    `grad`, `op` and `parents` are the node's (`parents` are nodes).
    `backward` leaves a gradient on leaves only (see there).  An op's output
    made inside `no_grad` has no parents and no backward function: it is a
    leaf that `backward` cannot see past.

    `rebuild` is None or a no-argument function returning an array bitwise
    equal to `value` but not sharing its memory, made only from arrays that
    backward functions keep anyway.  The first call makes it and later calls
    return that same array, which lives as long as something that can call
    the rebuild: in a recorded step, until the last consumer's backward
    function has run.  So one backward makes each rebuilt value once, and no
    reader writes to it.  `linear`, `swish` and `depthwise_conv_rows` keep
    their input's `rebuild` in place of the value, and
    `multi_head_attention` those of q, k and v.  Recorded `swish`,
    `layer_norm_affine`, `depthwise_conv_rows` and `multi_head_attention`
    outputs have one, and so does a recorded `linear` output whose input
    has one.  Op outputs made inside `no_grad` have none.
    """

    __slots__ = ("value", "node", "rebuild")

    def __init__(self, value, parents: tuple["Tensor", ...] = (), op: str = "leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.node = Node(tuple([p.node for p in parents]), op)
        self.rebuild: Callable[[], np.ndarray] | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return self.node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.node.grad = g

    @property
    def op(self) -> str:
        return self.node.op

    @property
    def parents(self) -> tuple[Node, ...]:
        return self.node.parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def grad_or_zeros(self) -> np.ndarray:
        return self.grad if self.grad is not None else np.zeros_like(self.value)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


# False inside `no_grad`; a context variable, so each thread starts recording.
_recording: contextvars.ContextVar[bool] = contextvars.ContextVar("recording", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Run the block without recording a graph: op outputs keep no parents
    and no backward function, so every intermediate is freed as soon as the
    next op has used it.  Values are bitwise those of a recorded run.
    Recording resumes when the block ends, also when it raises."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _record(out: Tensor, backward_fn: Callable[[np.ndarray], None],
            rebuild: Callable[[], np.ndarray] | None = None) -> Tensor:
    """Give an op's output node its backward function and the output its
    `rebuild`, memoized, or, inside `no_grad`, make the output a leaf whose
    node holds neither parents nor `backward_fn`, and which has no
    `rebuild`.  A rebuilt array lives as long as something that can call the
    rebuild: in a recorded step, until the last consumer's backward function
    has run and been dropped."""
    if not _recording.get():
        out.node.parents = ()
        return out
    out.node._backward = backward_fn
    if rebuild is not None:
        out.rebuild = functools.cache(rebuild)
    return out


def _acc(node: Node, g: np.ndarray) -> None:
    # The first write takes g, which callers pass only to this node.  A numpy
    # scalar (an op on 0-d arrays gives one) becomes a 0-d array, so that a
    # leaf's gradient can be zeroed in place.
    if node.grad is None:
        node.grad = g if type(g) is np.ndarray else np.array(g, dtype=np.float64)
    else:
        node.grad += g


def _acc_zeros(node: Node, shape: tuple[int, ...]) -> np.ndarray:
    if node.grad is None:
        node.grad = np.zeros(shape)
    return node.grad


def _topo_order(root: Node | Tensor) -> list:
    """`root` and every node reachable from it through `.parents`, parents
    first: a depth-first post-order that explores a node's parents from the
    last-listed to the first."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into `.grad` of every leaf reachable from `loss`.

    Leaves are the tensors no recorded op made: parameters, inputs, and op
    outputs made inside `no_grad`.  A graph is backpropagated once: each
    interior node drops its backward function, and with it every array that
    function kept, and its gradient as soon as the function has run, `loss`
    included.  So only leaves keep `.grad` afterwards, and a second
    `backward` that reaches a node already run raises ContractError before
    any gradient changes.  A reached node that already holds a gradient (on
    a new graph, a leaf) has it zeroed in place and accumulated into: a
    parameter's gradient is a view into its store's flat gradient and must
    stay one.  Tensors not in the graph (e.g. unused parameters) are left
    untouched; callers zero those through `ParamStore.zero_grad`.  A graph
    built inside `no_grad` ends at each op output made there, so no gradient
    reaches the parameters.
    """
    if loss.value.ndim != 0:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss.node)
    if any(node.parents and node._backward is None for node in order):
        raise ContractError("backward already ran on this graph: a graph is backpropagated once")
    for node in order:
        if node.grad is not None:
            node.grad.fill(0.0)
    loss.node.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = node.grad = None


def _require_2d(name: str, *tensors: Tensor) -> None:
    for t in tensors:
        if t.value.ndim != 2:
            raise ShapeError(f"{name}: expected a 2-D operand, got shape {t.value.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")
    na, nb = a.node, b.node

    def _bwd(g: np.ndarray) -> None:
        _acc(na, g.copy())
        _acc(nb, g)

    return _record(Tensor(a.value + b.value, (a, b), "add"), _bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")
    av, bv, na, nb = a.value, b.value, a.node, b.node

    def _bwd(g: np.ndarray) -> None:
        _acc(na, g * bv)
        _acc(nb, g * av)

    return _record(Tensor(av * bv, (a, b), "mul"), _bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    na = a.node

    def _bwd(g: np.ndarray) -> None:
        _acc(na, g * factor)

    return _record(Tensor(a.value * factor, (a,), "scale"), _bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias as one node; the workhorse projection (also the
    embedding-free input projection).  An input with a `rebuild` gives the
    output one: the same two operations over the rebuilt input."""
    _require_2d("linear", x, weight)
    if x.value.shape[1] != weight.value.shape[0] or bias.value.shape != weight.value.shape[1:]:
        raise ShapeError(f"linear: shapes {x.value.shape} @ {weight.value.shape} + {bias.value.shape} do not fit")
    wv, bv = weight.value, bias.value
    x_value = x.rebuild or x.value.view  # the rebuilt array, or a view of the kept one
    nx, nw, nb = x.node, weight.node, bias.node

    def project(a: np.ndarray) -> np.ndarray:
        y = a @ wv
        y += bv
        return y

    def _bwd(g: np.ndarray) -> None:
        _acc(nx, g @ wv.T)
        _acc(nw, x_value().T @ g)
        _acc(nb, g.sum(axis=0))

    out = Tensor(project(x.value), (x, weight, bias), "linear")
    if x.rebuild is None:
        return _record(out, _bwd)
    return _record(out, _bwd, lambda: project(x_value()))


def softmax_rows(x: Tensor) -> Tensor:
    _require_2d("softmax_rows", x)
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    nx = x.node

    def _bwd(g: np.ndarray) -> None:
        _acc(nx, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _record(Tensor(y, (x,), "softmax_rows"), _bwd)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Rowwise log-softmax of a 2-D array, shifted by each row's maximum."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient at a rowwise log-softmax's input, from its output `y` and `g` there."""
    return g - np.exp(y) * g.sum(axis=1, keepdims=True)


def log_softmax_rows(x: Tensor) -> Tensor:
    _require_2d("log_softmax_rows", x)
    y = log_softmax(x.value)
    nx = x.node

    def _bwd(g: np.ndarray) -> None:
        _acc(nx, log_softmax_grad(g, y))

    return _record(Tensor(y, (x,), "log_softmax_rows"), _bwd)


LN_EPS = 1e-5


def layer_norm_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Rowwise normalization to zero mean and unit variance (`LN_EPS` added
    to the variance), times a per-column gain plus a per-column bias, as one
    node.  The row sums divided by the width are what np.mean and np.var
    compute."""
    _require_2d("layer_norm_affine", x)
    a = x.value
    n = a.shape[1]
    if gain.value.shape != (n,) or bias.value.shape != (n,):
        raise ShapeError(
            f"layer_norm_affine: gain {gain.value.shape} / bias {bias.value.shape} do not fit {a.shape}"
        )
    y = a - a.sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt((y * y).sum(axis=1, keepdims=True) / n + LN_EPS)
    y *= inv
    gv, bv = gain.value, bias.value
    nx, ng, nb = x.node, gain.node, bias.node

    def value() -> np.ndarray:
        out = y * gv
        return np.add(out, bv, out=out)

    def _bwd(g: np.ndarray) -> None:
        _acc(ng, (g * y).sum(axis=0))
        _acc(nb, g.sum(axis=0))
        # inv * (gy - mean(gy) - y * mean(gy * y)) for gy = g * gain, in gy's buffer
        gy = g * gv
        tmp = gy * y
        proj = tmp.mean(axis=1, keepdims=True)
        gy -= gy.mean(axis=1, keepdims=True)
        gy -= np.multiply(y, proj, out=tmp)
        gy *= inv
        _acc(nx, gy)

    return _record(Tensor(value(), (x, gain, bias), "layer_norm_affine"), _bwd, value)


def _sigmoid(xv: np.ndarray) -> np.ndarray:
    # Built in one buffer.
    sig = np.negative(xv, out=np.empty_like(xv))
    np.exp(sig, out=sig)
    sig += 1.0
    return np.divide(1.0, sig, out=sig)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x).  A recorded step keeps only x's `rebuild`, or x when
    it has none: the output's `rebuild` makes the sigmoid again by the same
    operations, and backward reads that sigmoid, or makes its own when
    nothing called the rebuild."""
    x_value = x.rebuild or x.value.view  # the rebuilt array, or a view of the kept one
    nx = x.node
    sig = None  # the sigmoid the rebuild made, which backward reads

    def act(xv: np.ndarray) -> np.ndarray:
        nonlocal sig
        sig = _sigmoid(xv)
        return sig * xv

    def _bwd(g: np.ndarray) -> None:
        # g * sig * (1 + x * (1 - sig)), in two buffers
        xv = x_value()
        s = sig if sig is not None else _sigmoid(xv)
        gx = g * s
        slope = np.subtract(1.0, s, out=s)
        slope *= xv
        slope += 1.0
        gx *= slope
        _acc(nx, gx)

    out = Tensor(act(x.value), (x,), "swish")
    sig = None  # the forward keeps no sigmoid
    return _record(out, _bwd, lambda: act(x_value()))


def _segment_bounds(name: str, rows: int, lengths: Sequence[int]) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the segments."""
    sizes = [int(n) for n in lengths]
    if not sizes or min(sizes) < 1 or sum(sizes) != rows:
        raise ShapeError(f"{name}: segment lengths {sizes} do not split {rows} rows")
    return list(itertools.pairwise(itertools.accumulate(sizes, initial=0)))


def depthwise_conv_rows(x: Tensor, kernel: Tensor, lengths: Sequence[int]) -> Tensor:
    """Per-column 1-D convolution along rows with zero 'same' padding.

    `kernel` has shape (k, n) with k odd: one length-k filter per column.
    The rows are split into segments of the given `lengths`; each segment is
    zero-padded at both of its edges, so no row sees a row of another
    segment.  A recorded step keeps only x's `rebuild`, or x when it has
    none: the output's `rebuild` pads x and sums the k taps again, and
    backward reads the padded buffer that rebuild made, or pads its own.
    """
    _require_2d("depthwise_conv_rows", x, kernel)
    k, n = kernel.value.shape
    if n != x.value.shape[1]:
        raise ShapeError(f"depthwise_conv_rows: kernel {kernel.value.shape} does not fit {x.value.shape}")
    if k % 2 != 1:
        raise ShapeError(f"depthwise_conv_rows: kernel length must be odd, got {k}")
    rows = x.value.shape[0]
    bounds = _segment_bounds("depthwise_conv_rows", rows, lengths)
    pad = k // 2
    # Segment i sits in the padded buffer behind 2*i + 1 blocks of `pad`
    # zeros, so its windows start 2*i*pad rows after its first row.
    outs = [slice(a + 2 * pad * i, b + 2 * pad * i) for i, (a, b) in enumerate(bounds)]
    width = rows + 2 * pad * (len(bounds) - 1)  # window starts in the buffer
    kv = kernel.value
    x_value = x.rebuild or x.value.view  # the rebuilt array, or a view of the kept one
    nx, nk = x.node, kernel.node
    xp = None  # the padded input the rebuild made, which backward reads

    def padded(xv: np.ndarray) -> np.ndarray:
        buf = np.zeros((width + 2 * pad, n))
        for (a, b), out in zip(bounds, outs):
            buf[out.start + pad : out.stop + pad] = xv[a:b]
        return buf

    def conv(xv: np.ndarray) -> np.ndarray:
        nonlocal xp
        xp = padded(xv)
        yp = np.zeros((width, n))
        tap = np.empty((width, n))  # each tap's product, reused across the k taps
        for j in range(k):
            yp += np.multiply(kv[j], xp[j : j + width], out=tap)
        return yp if len(bounds) == 1 else np.concatenate([yp[out] for out in outs])

    def _bwd(g: np.ndarray) -> None:
        xpad = xp if xp is not None else padded(x_value())
        kg = _acc_zeros(nk, kv.shape)
        gyp = np.zeros((width, n))
        for (a, b), out in zip(bounds, outs):
            gyp[out] = g[a:b]
        gxp = np.zeros_like(xpad)
        for j in range(k):
            kg[j] += (gyp * xpad[j : j + width]).sum(axis=0)
            gxp[j : j + width] += gyp * kv[j]
        _acc(nx, np.concatenate([gxp[out.start + pad : out.stop + pad] for out in outs]))

    out = Tensor(conv(x.value), (x, kernel), "depthwise_conv_rows")
    xp = None  # the forward keeps no padded copy
    return _record(out, _bwd, lambda: conv(x_value()))


# Smallest softmax denominator attention accepts from the per-head shift.  A
# row whose sum is above it keeps every exponential that matters to its
# weights in the normal float64 range (about 1e-308 and up).
_MIN_ROW_SUM = 1e-250


def multi_head_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, lengths: Sequence[int]
) -> Tensor:
    """Scaled dot-product attention of every head within every segment, as one node.

    q, k and v are (rows, d) with d = n_heads * d_head; head h owns columns
    [h * d_head, (h + 1) * d_head) and its output lands in the same columns.
    The rows are split into segments of the given `lengths`; a row attends
    only to the rows of its own segment.  Values agree with the per-row
    softmax formula to 1e-12 relative, and a forward inside `no_grad` is
    bitwise a recorded one.  A recorded step keeps the rebuilds of q, k and
    v (or their values, where they have none), each row's softmax sum and
    each segment's shift, never the weights or the output: the output's
    `rebuild` repeats the forward's operations over the rebuilt q, k and v,
    and backward makes each segment's weights again, one segment at a time,
    so that no more than one segment's (heads, T, T) weights are ever held.
    """
    _require_2d("multi_head_attention", q, k, v)
    shapes = [t.value.shape for t in (q, k, v)]
    if len(set(shapes)) != 1:
        raise ShapeError(f"multi_head_attention: q, k and v shapes differ, {shapes}")
    rows, d = shapes[0]
    if n_heads < 1 or d % n_heads != 0:
        raise ShapeError(f"multi_head_attention: {d} columns do not split into {n_heads} heads")
    d_head = d // n_heads
    factor = 1.0 / math.sqrt(d_head)
    bounds = _segment_bounds("multi_head_attention", rows, lengths)

    def heads(a: np.ndarray) -> np.ndarray:
        # (rows, d) -> (n_heads, rows, d_head) view
        return a.reshape(rows, n_heads, d_head).transpose(1, 0, 2)

    def exps(qs: np.ndarray, kh: np.ndarray, i: int, make_shift: bool = False) -> np.ndarray:
        # Segment i's exponentials of the scores of the scaled q, made in
        # place in one (heads, T, T) buffer and shifted by the segment's
        # kept shift, which the forward makes: the maximum per head, kept in
        # the segment's first column of `shift`, or, for a segment in
        # `per_row`, the maximum per row, kept in all its columns.
        start, stop = bounds[i]
        cols = slice(start, stop) if i in per_row else slice(start, start + 1)
        w = qs[:, start:stop] @ kh[:, start:stop].transpose(0, 2, 1)
        if make_shift:
            shift[:, cols] = w.max(axis=2 if i in per_row else (1, 2), keepdims=True)[:, :, 0]
        w -= shift[:, cols, None]
        return np.exp(w, out=w)

    def products(qv: np.ndarray, kv: np.ndarray, vv: np.ndarray,
                 make_shifts: bool = False) -> np.ndarray:
        # Each segment's exponentials times v with a column of ones: the
        # (heads, rows, d_head + 1) product holds each row's sum in its last
        # column, so the division runs on (heads, rows, d_head) rather than
        # on the (heads, T, T) scores.  Scaling q, not the scores, is bitwise
        # the same when the factor is a power of two (d_head 4, 16, 64, ...).
        qs, kh = heads(qv * factor), heads(kv)
        v1 = np.empty((n_heads, rows, d_head + 1))
        v1[:, :, :d_head] = heads(vv)
        v1[:, :, d_head] = 1.0
        wv = np.empty((n_heads, rows, d_head + 1))
        for i, (start, stop) in enumerate(bounds):
            np.matmul(exps(qs, kh, i, make_shifts), v1[:, start:stop], out=wv[:, start:stop])
        return wv

    # The output, the sums and the shifts the node keeps are made before the
    # scratch buffers, which so go back to the top of the heap when freed
    # instead of leaving holes under the kept arrays that later steps' (or
    # utterances') larger arrays do not fit.
    y = np.empty((rows, d))  # C order, so that `heads` of it is a view
    sums = np.empty((n_heads, rows, 1))
    shift = np.empty((n_heads, rows))
    per_row: set[int] = set()
    wv = products(q.value, k.value, v.value, make_shifts=True)
    # A row whose maximum lies hundreds of nats under its head's sums to
    # almost nothing and would lose precision, so a segment with one is
    # redone with a shift per row.
    starts = [start for start, _ in bounds]
    low = np.minimum.reduceat(wv[:, :, d_head].min(axis=0), starts) < _MIN_ROW_SUM
    if low.any():
        per_row = set(np.flatnonzero(low).tolist())
        wv = products(q.value, k.value, v.value, make_shifts=True)
    sums[...] = wv[:, :, d_head:]
    np.divide(wv[:, :, :d_head], sums, out=heads(y))
    del wv
    q_value, k_value, v_value = (t.rebuild or t.value.view for t in (q, k, v))
    nq, nk, nv = q.node, k.node, v.node

    def rebuild() -> np.ndarray:
        wv = products(q_value(), k_value(), v_value())
        out = np.empty((rows, d))
        np.divide(wv[:, :, :d_head], sums, out=heads(out))
        return out

    def _bwd(g: np.ndarray) -> None:
        qv = q_value()
        qh, qs, kh, vh = heads(qv), heads(qv * factor), heads(k_value()), heads(v_value())
        gq, gk, gv = np.empty((rows, d)), np.empty((rows, d)), np.empty((rows, d))
        gh, gqh, gkh, gvh = heads(g), heads(gq), heads(gk), heads(gv)
        for i, (start, stop) in enumerate(bounds):
            seg = slice(start, stop)
            # One segment's weights at a time, as the forward made them.
            w = exps(qs, kh, i)
            w /= sums[:, seg]
            # Score gradient before the scale, w * (gw - rowsum(gw * w)) with
            # gw = g @ v^T, computed in gw's buffer.
            gs = gh[:, seg] @ vh[:, seg].transpose(0, 2, 1)
            gs -= (gs * w).sum(axis=2, keepdims=True)
            gs *= w
            np.matmul(gs, kh[:, seg], out=gqh[:, seg])
            np.matmul(gs.transpose(0, 2, 1), qh[:, seg], out=gkh[:, seg])
            np.matmul(w.transpose(0, 2, 1), gh[:, seg], out=gvh[:, seg])
        gq *= factor
        gk *= factor
        _acc(nq, gq)
        _acc(nk, gk)
        _acc(nv, gv)

    return _record(Tensor(y, (q, k, v), "multi_head_attention"), _bwd, rebuild)


def mean_reduce(x: Tensor) -> Tensor:
    """Scalar mean over all elements."""
    shape, size, nx = x.value.shape, x.value.size, x.node

    def _bwd(g: np.ndarray) -> None:
        _acc_zeros(nx, shape)
        nx.grad += float(g) / size

    return _record(Tensor(np.float64(x.value.mean()), (x,), "mean_reduce"), _bwd)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if len(shape) == 2:
        fan_in, fan_out = shape
    else:
        fan_in = fan_out = shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


_CONTAINER_MAGIC = b"NTC1\n"


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **kwargs) -> Iterator:
    """Open a temporary file beside `path` for writing.  When the block ends
    normally it is flushed to disk and replaces `path`; when it raises, it is
    removed and `path` keeps whatever it held before."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _index_record(rec: dict) -> tuple[str, tuple[int, ...], object, int]:
    """(name, shape, dtype, crc32) of a container index record, each field of
    the JSON type `ParamStore.save` writes; a shape entry may be negative,
    which the caller rejects."""
    name, shape, dtype, crc = rec["name"], rec["shape"], rec["dtype"], rec["crc32"]
    if (type(name) is not str or type(shape) is not list or type(crc) is not int
            or any(type(n) is not int for n in shape)):
        raise TypeError(f"record {name!r} has a name, shape or crc32 of the wrong JSON type")
    return name, tuple(shape), dtype, crc


class ParamStore:
    """Named trainable tensors in one flat float64 vector, in name order,
    each tensor's `value` a view into it: a new zeroed vector, or `flat` when
    given (a float64 vector of the tensors' total size).  So a training step
    clips, updates and zeroes all parameters with a few whole-vector
    operations.  The first `arena` or `zero_grad` call adds one flat gradient
    vector of the same layout, each `grad` a view into it.  Optimizer state
    lives with the training loop.
    """

    def __init__(self, shapes: Mapping[str, Sequence[int]], flat: np.ndarray | None = None) -> None:
        self._layout: list[tuple[str, int, int]] = []
        stop = 0
        for name in sorted(shapes):
            start, stop = stop, stop + math.prod(shapes[name])
            self._layout.append((name, start, stop))
        if flat is None:
            flat = np.zeros(stop)
        elif flat.dtype != np.float64 or flat.shape != (stop,):
            raise ShapeError(f"a store of {stop} values cannot adopt {flat.dtype} {flat.shape}")
        self.flat = flat
        self._grads: np.ndarray | None = None
        self._tensors = {
            name: Tensor(flat[start:stop].reshape(shapes[name]))
            for name, start, stop in self._layout
        }

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return [name for name, _, _ in self._layout]

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: t.value.shape for name, t in self._tensors.items()}

    def arena(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat (values, gradients) vectors; the first call makes the
        gradient vector, zeroed."""
        if self._grads is None:
            self._grads = np.zeros_like(self.flat)
            for name, start, stop in self._layout:
                t = self._tensors[name]
                t.grad = self._grads[start:stop].reshape(t.value.shape)
        return self.flat, self._grads

    def layout(self) -> list[tuple[str, int, int]]:
        """(name, start, stop) of each parameter's slice of the flat
        vectors, in name order."""
        return self._layout

    def zero_grad(self) -> None:
        self.arena()[1].fill(0.0)

    def clone(self) -> "ParamStore":
        """Copy of the parameter values."""
        return ParamStore(self.shapes(), self.flat.copy())

    def values(self) -> dict[str, np.ndarray]:
        return {name: self._tensors[name].value.copy() for name in self.names()}

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        """Write a named-tensor container: an index of (name, shape, dtype,
        crc32) records followed by the row-major float64 payloads, the crc32
        being zlib's checksum of the payload.  Byte-deterministic for identical
        contents; written through `atomic_write`, so a failed save leaves an
        existing file unchanged."""
        names = self.names()
        payloads = [np.ascontiguousarray(self._tensors[n].value) for n in names]
        index = {
            "meta": meta or {},
            "tensors": [
                {"name": n, "shape": list(self._tensors[n].value.shape), "dtype": "float64",
                 "crc32": zlib.crc32(payload)}
                for n, payload in zip(names, payloads)
            ],
        }
        with atomic_write(path) as fh:
            fh.write(_CONTAINER_MAGIC)
            fh.write(json.dumps(index, sort_keys=True).encode("utf-8") + b"\n")
            for payload in payloads:
                fh.write(payload)

    @classmethod
    def load(cls, path: str | Path) -> tuple["ParamStore", dict]:
        """Read a container written by `save`; a file that is not exactly one
        (checked against the index before anything is allocated), an index
        record without a checksum or with a field of another JSON type than
        `save` writes, a tensor whose dtype is not float64, or a payload that
        does not match its checksum, raises FormatError."""
        with open(path, "rb") as fh:
            magic = fh.read(len(_CONTAINER_MAGIC))
            if magic != _CONTAINER_MAGIC:
                raise FormatError(f"{path}: not a named-tensor container")
            try:
                index = json.loads(fh.readline().decode("utf-8"))
                records = [_index_record(rec) for rec in index["tensors"]]
                meta = index["meta"]
                if type(meta) is not dict:
                    raise TypeError(f"meta is {type(meta).__name__}, not an object")
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}: unreadable index ({exc})") from None
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            shapes: dict[str, tuple[int, ...]] = {}
            for name, shape, dtype, _ in records:
                if min(shape, default=0) < 0 or name in shapes:
                    raise FormatError(f"{path}: bad index record for {name!r}")
                if dtype != "float64":
                    raise FormatError(f"{path}: tensor {name!r} has dtype {dtype!r}, not float64")
                size = 8 * math.prod(shape)
                if size > left:
                    raise FormatError(f"{path}: truncated payload for {name!r}")
                left -= size
                shapes[name] = shape
            if left:
                raise FormatError(f"{path}: trailing bytes after the last payload")
            store = cls(shapes)
            for name, _, _, crc in records:
                # Flattened, as `readinto` leaves a 0-d array unfilled without
                # an error.  A short read leaves zeros that the checksum sees.
                payload = store[name].value.reshape(-1)
                fh.readinto(payload)
                if zlib.crc32(payload) != crc:
                    raise FormatError(f"{path}: checksum mismatch for {name!r}")
        return store, meta


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare backward() gradients of the scalar loss `f()` against central
    finite differences.

    `f` must be deterministic and rebuild its graph from the current values of
    `params` on every call.  Returns the worst relative error
    |analytic - numeric| / max(1, |analytic|, |numeric|); when `max_entries`
    is given, only that many randomly chosen entries per parameter are probed.
    """
    loss = f()
    backward(loss)
    analytic = [p.grad_or_zeros().reshape(-1).copy() for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.value.reshape(-1)
        if max_entries is not None and flat.size > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        else:
            idxs = np.arange(flat.size)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f().value)
            flat[i] = orig - eps
            lo = float(f().value)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(1.0, abs(ana[i]), abs(numeric))
            worst = max(worst, err)
    return worst
