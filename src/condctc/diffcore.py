"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Ops build a tape of `Tensor` nodes; `backward` walks the tape in reverse
topological order.  Inside a `no_grad` block ops record nothing, so each
intermediate is freed as soon as nothing refers to it.  Everything runs in
64-bit on the CPU, and single-threaded execution is bitwise deterministic.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
import zlib
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for an op."""


class ContractError(RuntimeError):
    """An operation was called outside its contract."""


class NumericError(FloatingPointError):
    """A non-finite value appeared where a finite one is required."""


class FormatError(ValueError):
    """A file does not hold what its format requires."""


class Tensor:
    """A value plus a same-shape gradient accumulator in the tape.

    `grad` is None until something accumulates into it; None means zero.
    `backward` leaves a gradient on leaves only (see there).  An op's output made inside `no_grad` has no parents and no backward
    function: it is a leaf that `backward` cannot see past.
    """

    __slots__ = ("value", "grad", "op", "parents", "_backward")

    def __init__(self, value, parents: tuple["Tensor", ...] = (), op: str = "leaf"):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.op = op
        # Called with this node's gradient; it must not refer to this node,
        # so a finished graph holds no reference cycle and is freed as soon
        # as the last reference to its loss is dropped.
        self._backward: Callable[[np.ndarray], None] | None = None

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


def is_recording() -> bool:
    """Whether ops record a graph here: False inside `no_grad`."""
    return _recording.get()


def _record(out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Give an op's output its backward function, or, inside `no_grad`, make
    it a leaf that holds neither its parents nor `backward_fn`."""
    if _recording.get():
        out._backward = backward_fn
    else:
        out.parents = ()
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    # First write copies: g may alias or view another node's grad buffer.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _acc_zeros(t: Tensor) -> np.ndarray:
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    return t.grad


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
    outputs made inside `no_grad`.  Only they keep `.grad` afterwards; an
    interior node's gradient is dropped as soon as its backward function has
    used it, `loss` included, so a step holds only the gradients still needed.
    The gradients of all reachable nodes are reset first, so calling backward
    twice on the same graph yields identical gradients.  Tensors not in the
    graph (e.g. unused parameters) are left untouched; callers zero those
    through `ParamStore.zero_grad`.  A graph built inside `no_grad` ends at
    each op output made there, so no gradient reaches the parameters.
    """
    if loss.value.ndim != 0:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


def _require_2d(name: str, *tensors: Tensor) -> None:
    for t in tensors:
        if t.value.ndim != 2:
            raise ShapeError(f"{name}: expected a 2-D operand, got shape {t.value.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")
    out = Tensor(a.value + b.value, (a, b), "add")

    def _bwd(g: np.ndarray) -> None:
        _acc(a, g)
        _acc(b, g)

    return _record(out, _bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")
    out = Tensor(a.value * b.value, (a, b), "mul")

    def _bwd(g: np.ndarray) -> None:
        _acc(a, g * b.value)
        _acc(b, g * a.value)

    return _record(out, _bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    out = Tensor(a.value * factor, (a,), "scale")

    def _bwd(g: np.ndarray) -> None:
        _acc(a, g * factor)

    return _record(out, _bwd)


def affine_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-column gain and bias applied to every row: x * gain + bias."""
    _require_2d("affine_rows", x)
    n = x.value.shape[1]
    if gain.value.shape != (n,) or bias.value.shape != (n,):
        raise ShapeError(
            f"affine_rows: gain {gain.value.shape} / bias {bias.value.shape} do not fit {x.value.shape}"
        )
    out = Tensor(x.value * gain.value + bias.value, (x, gain, bias), "affine_rows")

    def _bwd(g: np.ndarray) -> None:
        _acc(x, g * gain.value)
        _acc(gain, (g * x.value).sum(axis=0))
        _acc(bias, g.sum(axis=0))

    return _record(out, _bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias as one node; the workhorse projection (also the
    embedding-free input projection)."""
    _require_2d("linear", x, weight)
    if x.value.shape[1] != weight.value.shape[0]:
        raise ShapeError(f"linear: inner dims differ, {x.value.shape} @ {weight.value.shape}")
    if bias.value.ndim != 1 or bias.value.shape[0] != weight.value.shape[1]:
        raise ShapeError(f"linear: bias {bias.value.shape} does not fit {weight.value.shape}")
    out = Tensor(x.value @ weight.value + bias.value, (x, weight, bias), "linear")

    def _bwd(g: np.ndarray) -> None:
        _acc(x, g @ weight.value.T)
        _acc(weight, x.value.T @ g)
        _acc(bias, g.sum(axis=0))

    return _record(out, _bwd)


def softmax_rows(x: Tensor) -> Tensor:
    _require_2d("softmax_rows", x)
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, (x,), "softmax_rows")

    def _bwd(g: np.ndarray) -> None:
        _acc(x, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _record(out, _bwd)


def log_softmax_rows(x: Tensor) -> Tensor:
    _require_2d("log_softmax_rows", x)
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - lse
    out = Tensor(y, (x,), "log_softmax_rows")

    def _bwd(g: np.ndarray) -> None:
        _acc(x, g - np.exp(y) * g.sum(axis=1, keepdims=True))

    return _record(out, _bwd)


def layer_norm_rows(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Rowwise normalization to zero mean / unit variance (no affine part)."""
    _require_2d("layer_norm_rows", x)
    mean = x.value.mean(axis=1, keepdims=True)
    var = x.value.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x.value - mean) * inv
    out = Tensor(y, (x,), "layer_norm_rows")

    def _bwd(g: np.ndarray) -> None:
        _acc(
            x,
            inv * (g - g.mean(axis=1, keepdims=True) - y * (g * y).mean(axis=1, keepdims=True)),
        )

    return _record(out, _bwd)


def swish(x: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-x.value))
    out = Tensor(x.value * sig, (x,), "swish")

    def _bwd(g: np.ndarray) -> None:
        _acc(x, g * sig * (1.0 + x.value * (1.0 - sig)))

    return _record(out, _bwd)


def _segment_bounds(name: str, rows: int, lengths: Sequence[int] | None) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the segments; None means one segment."""
    if lengths is None:
        return [(0, rows)]
    sizes = [int(n) for n in lengths]
    if not sizes or min(sizes) < 1 or sum(sizes) != rows:
        raise ShapeError(f"{name}: segment lengths {sizes} do not split {rows} rows")
    stops = np.cumsum(sizes).tolist()
    return list(zip([0, *stops[:-1]], stops))


def depthwise_conv_rows(x: Tensor, kernel: Tensor, lengths: Sequence[int] | None = None) -> Tensor:
    """Per-column 1-D convolution along rows with zero 'same' padding.

    `kernel` has shape (k, n) with k odd: one length-k filter per column.
    The rows may be split into segments of the given `lengths` (default: one
    segment); each segment is zero-padded at both of its edges, so no row
    sees a row of another segment.
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
    # Segment i sits in the padded buffer behind 2*i + 1 blocks of `pad` zeros.
    sizes = [stop - start for start, stop in bounds]
    at = np.arange(rows) + pad * (2 * np.repeat(np.arange(len(bounds)), sizes) + 1)
    width = rows + 2 * pad * (len(bounds) - 1)  # window starts in the buffer
    xp = np.zeros((width + 2 * pad, n))
    xp[at] = x.value
    yp = np.zeros((width, n))
    for j in range(k):
        yp += kernel.value[j] * xp[j : j + width]
    out = Tensor(yp[at - pad], (x, kernel), "depthwise_conv_rows")

    def _bwd(g: np.ndarray) -> None:
        kg = _acc_zeros(kernel)
        gyp = np.zeros((width, n))
        gyp[at - pad] = g
        gxp = np.zeros_like(xp)
        for j in range(k):
            kg[j] += (gyp * xp[j : j + width]).sum(axis=0)
            gxp[j : j + width] += gyp * kernel.value[j]
        _acc(x, gxp[at])

    return _record(out, _bwd)


def multi_head_attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, lengths: Sequence[int] | None = None
) -> Tensor:
    """Scaled dot-product attention of every head within every segment, as one node.

    q, k and v are (rows, d) with d = n_heads * d_head; head h owns columns
    [h * d_head, (h + 1) * d_head) and its output lands in the same columns.
    The rows may be split into segments of the given `lengths` (default: one
    segment); a row attends only to the rows of its own segment.
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

    def heads(a: np.ndarray, start: int, stop: int) -> np.ndarray:
        # (T, d) rows -> (n_heads, T, d_head) view
        return a[start:stop].reshape(stop - start, n_heads, d_head).transpose(1, 0, 2)

    def merge(a: np.ndarray) -> np.ndarray:
        return a.transpose(1, 0, 2).reshape(a.shape[1], d)

    y = np.empty_like(q.value)
    weights = []
    for start, stop in bounds:
        qh, kh, vh = (heads(t.value, start, stop) for t in (q, k, v))
        # The softmax runs in place in the one (heads, T, T) score buffer.
        w = qh @ kh.transpose(0, 2, 1)
        w *= factor
        w -= w.max(axis=2, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=2, keepdims=True)
        weights.append(w)
        y[start:stop] = merge(w @ vh)
    out = Tensor(y, (q, k, v), "multi_head_attention")

    def _bwd(g: np.ndarray) -> None:
        gq, gk, gv = np.empty_like(y), np.empty_like(y), np.empty_like(y)
        for (start, stop), w in zip(bounds, weights):
            qh, kh, vh = (heads(t.value, start, stop) for t in (q, k, v))
            gh = heads(g, start, stop)
            gw = gh @ vh.transpose(0, 2, 1)
            gs = w * (gw - (gw * w).sum(axis=2, keepdims=True)) * factor
            gq[start:stop] = merge(gs @ kh)
            gk[start:stop] = merge(gs.transpose(0, 2, 1) @ qh)
            gv[start:stop] = merge(w.transpose(0, 2, 1) @ gh)
        _acc(q, gq)
        _acc(k, gk)
        _acc(v, gv)

    return _record(out, _bwd)


def mean_reduce(x: Tensor) -> Tensor:
    """Scalar mean over all elements."""
    out = Tensor(np.float64(x.value.mean()), (x,), "mean_reduce")
    size = x.value.size

    def _bwd(g: np.ndarray) -> None:
        _acc_zeros(x)
        x.grad += float(g) / size

    return _record(out, _bwd)


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


class ParamStore:
    """Named trainable tensors with per-parameter Adam moment buffers."""

    def __init__(self) -> None:
        self._tensors: dict[str, Tensor] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_count = 0

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"parameter {name!r} already exists")
        t = Tensor(np.array(value, dtype=np.float64))
        self._tensors[name] = t
        self._moments[name] = (np.zeros_like(t.value), np.zeros_like(t.value))
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return sorted(self._tensors)

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self._moments[name]

    @property
    def total_parameters(self) -> int:
        return sum(t.value.size for t in self._tensors.values())

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            t.grad = np.zeros_like(t.value)

    def clone(self) -> "ParamStore":
        """Copy of the parameter values; moment buffers start fresh."""
        out = ParamStore()
        for name in self.names():
            out.add(name, self._tensors[name].value.copy())
        return out

    def values(self) -> dict[str, np.ndarray]:
        return {name: self._tensors[name].value.copy() for name in self.names()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        if sorted(values) != self.names():
            raise ContractError("parameter names do not match the store")
        for name, arr in values.items():
            t = self._tensors[name]
            if arr.shape != t.value.shape:
                raise ContractError(f"shape mismatch for {name!r}: {arr.shape} vs {t.value.shape}")
            t.value[...] = arr

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        """Write a named-tensor container: an index of (name, shape, dtype,
        crc32) records followed by the row-major float64 payloads, the crc32
        being zlib's checksum of the payload.  Byte-deterministic for identical
        contents; written through `atomic_write`, so a failed save leaves an
        existing file unchanged."""
        names = self.names()
        payloads = [np.ascontiguousarray(self._tensors[n].value).tobytes() for n in names]
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
        """Read a container written by `save`; a file that is not exactly one,
        or a payload that does not match its checksum, raises FormatError.
        Index records without a checksum, as written before checksums were
        added, load unchecked."""
        with open(path, "rb") as fh:
            magic = fh.read(len(_CONTAINER_MAGIC))
            if magic != _CONTAINER_MAGIC:
                raise FormatError(f"{path}: not a named-tensor container")
            try:
                index = json.loads(fh.readline().decode("utf-8"))
                records = [
                    (str(rec["name"]), tuple(int(n) for n in rec["shape"]),
                     int(rec["crc32"]) if "crc32" in rec else None)
                    for rec in index["tensors"]
                ]
                meta = index["meta"]
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}: unreadable index ({exc})") from None
            store = cls()
            for name, shape, crc in records:
                if min(shape, default=0) < 0 or name in store:
                    raise FormatError(f"{path}: bad index record for {name!r}")
                size = 8 * math.prod(shape)
                payload = fh.read(size)
                if len(payload) != size:
                    raise FormatError(f"{path}: truncated payload for {name!r}")
                if crc is not None and zlib.crc32(payload) != crc:
                    raise FormatError(f"{path}: checksum mismatch for {name!r}")
                store.add(name, np.frombuffer(payload, dtype=np.float64).reshape(shape))
            if fh.read(1):
                raise FormatError(f"{path}: trailing bytes after the last payload")
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
