"""Reverse-mode automatic differentiation over numpy float64 arrays.

A Tensor records the op that produced it (parent tensors + a backward
closure); backward() topologically sorts that tape and accumulates gradients
into .grad. Only the primitives the model needs are implemented, each checked
against central finite differences in the test suite. The layers the model
runs most (`linear`, `layer_norm`, masked scaled multi-head `attention`,
which splits and merges its heads itself, and the origin `log_map` of the
Poincare ball) are fused: one tape node each, keeping only what their
backward reads. The value transfer's fused node, one for every plan, is
built the same way in `encoder`, from `_make` and `_accumulate`.

Model parts are dataclasses of Parameters and lists of parts; `parameters`
walks their fields, so a part's fields are the one list of what it trains.

The recording switch (`_grad_enabled`, set by `no_grad`) and the gradient
accumulator of a running `backward` (`_active_grads`) are module globals, so
the library is single-threaded: neither is re-entrant nor safe to use from
several threads at once.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from .hyperbolic import project_rows

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the with-block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Parameter(Tensor):
    """Trainable leaf. ball=c marks rows that must stay inside the c-ball."""

    __slots__ = ("name", "ball")

    def __init__(self, data, name: str = "", ball: float | None = None):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.ball = ball


def parameters(*owners) -> list[Parameter]:
    """The Parameters held by `owners`, depth first in declaration order: a
    Parameter is itself, a dataclass instance gives its fields in
    `dataclasses.fields` order and a list its items; anything else (None,
    an int width, a float curvature) gives nothing."""
    out: list[Parameter] = []
    for owner in owners:
        if isinstance(owner, Parameter):
            out.append(owner)
        elif isinstance(owner, list):
            out += parameters(*owner)
        elif dataclasses.is_dataclass(owner) and not isinstance(owner, type):
            out += parameters(*(getattr(owner, f.name) for f in dataclasses.fields(owner)))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


# gradients in flight during one backward() run, keyed by id(tensor);
# leaves (no recorded op) accumulate into .grad directly so repeated backward
# calls sum, while intermediate gradients live only for the run. A gradient
# handed to _accumulate may be shared or a view, so it is stored as is and
# never written in place: a second contribution makes a new sum.
_active_grads: dict[int, np.ndarray] | None = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t._backward_fn is None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g
        return
    key = id(t)
    prev = _active_grads.get(key)
    _active_grads[key] = g if prev is None else prev + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data - b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward_fn(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


# ---------------------------------------------------------------------------
# shape


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), backward_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward_fn(g):
        offsets = np.cumsum([0] + sizes)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out_data, tuple(tensors), backward_fn)


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing only (ints/slices): each input slot feeds <= 1 output slot."""
    a = _as_tensor(a)
    out_data = a.data[key].copy()

    def backward_fn(g):
        buf = np.zeros_like(a.data)
        buf[key] += g
        _accumulate(a, buf)

    return _make(out_data, (a,), backward_fn)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows along axis 0; repeated indices scatter-add in backward.

    The backward sorts the indices stably and sums each run of equal ones
    with np.add.reduceat, so repeats add up in the order they appear. When
    no index repeats, the rows are written as they are: reduceat would cost
    a call per row and column."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out_data = a.data[idx]

    def backward_fn(g):
        buf = np.zeros_like(a.data)
        flat = idx.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            ids = flat[order]
            starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
            rows = g.reshape((flat.size,) + a.data.shape[1:])[order]
            buf[ids[starts]] = (rows if starts.size == flat.size
                                else np.add.reduceat(rows, starts, axis=0))
        _accumulate(a, buf)

    return _make(out_data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# elementwise


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward_fn(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(out_data, (a,), backward_fn)


def square(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        _accumulate(a, g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), backward_fn)


def absolute(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        _accumulate(a, g * np.sign(a.data))

    return _make(np.abs(a.data), (a,), backward_fn)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp; gradient passes through strictly inside [lo, hi], zero outside."""
    a = _as_tensor(a)
    out_data = np.clip(a.data, lo, hi)

    def backward_fn(g):
        _accumulate(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _make(out_data, (a,), backward_fn)


# ---------------------------------------------------------------------------
# reductions


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            return
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), backward_fn)


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis.

    mask is a boolean array (broadcastable to a.shape); False slots get weight
    exactly 0.0 and receive zero gradient. Each row must keep >= 1 slot.
    """
    a = _as_tensor(a)
    x = a.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("softmax mask removes every slot of some row")
        shifted = x - np.max(np.where(mask, x, -np.inf), axis=-1, keepdims=True)
        e = np.where(mask, np.exp(shifted), 0.0)
    else:
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        dot = np.sum(g * p, axis=-1, keepdims=True)
        _accumulate(a, p * (g - dot))

    return _make(p, (a,), backward_fn)


# ---------------------------------------------------------------------------
# fused layers: one tape node each, keeping only what their backward reads


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b for x (..., n), w (n, p) and b (p,) or None.

    The input gradient is one 2-D GEMM over the flattened rows: numpy runs
    a stacked gradient times w.T as a slower batched product. The forward
    flattens only an (m, 1, n) input, a free view, for the same reason; a
    stack of longer (L, n) blocks times w runs faster batched than
    flattened, so it stays 3-D."""
    x, w = _as_tensor(x), _as_tensor(w)
    n, p = w.data.shape
    if x.ndim > 2 and x.data.size == x.shape[0] * n:
        out_data = (x.data.reshape(-1, n) @ w.data).reshape(x.shape[:-1] + (p,))
    else:
        out_data = x.data @ w.data
    if b is not None:
        b = _as_tensor(b)
        out_data += b.data

    def backward_fn(g):
        g2 = g.reshape(-1, p)
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, x.data.reshape(-1, n).T @ g2)
        if b is not None and b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data, parents, backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale by
    gain and shift by bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat /= std
    rstd = 1.0 / std

    def backward_fn(g):
        axes = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).sum(axis=axes))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=axes))
        if x.requires_grad:
            gx = g * gain.data
            corr = gx * xhat  # then mean(gx) + xhat * mean(gx * xhat), in place
            np.multiply(xhat, corr.mean(axis=-1, keepdims=True), out=corr)
            corr += gx.mean(axis=-1, keepdims=True)
            gx -= corr
            gx *= rstd
            _accumulate(x, gx)

    out_data = xhat * gain.data
    out_data += bias.data
    return _make(out_data, (x, gain, bias), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              key_mask: np.ndarray | None = None, scale: float = 1.0) -> Tensor:
    """Multi-head softmax(scale * q k^T) v for the rows q (b, lq, dim) and
    k, v (b, lk, dim): each row splits into `heads` slices of dim // heads,
    every head attends on its own slices, and the heads' outputs are merged
    back into (b, lq, dim) rows.

    key_mask (b, lk), when given, marks the keys each batch row may attend
    to; masked keys get weight exactly 0.0 and zero gradient, and every row
    must keep >= 1 key. The heads are split as numpy views (reshape, then
    swap the row and head axes), not as tape nodes, and the operations run
    in the order of the per-head composite matmul, scale, masked softmax and
    matmul, so the output is bit-identical to it, but only the weights are
    kept for the backward.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)

    def split(a):  # (b, l, dim) -> (b, heads, l, dim // heads)
        return a.reshape(a.shape[0], a.shape[1], heads, -1).transpose(0, 2, 1, 3)

    def merge(a):  # (b, heads, l, dim // heads) -> (b, l, dim)
        return a.transpose(0, 2, 1, 3).reshape(a.shape[0], a.shape[2], -1)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= scale
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        if not key_mask.any(axis=-1).all():
            raise ValueError("attention key_mask removes every key of some row")
        if not key_mask.all():
            np.copyto(p, -np.inf, where=~key_mask[:, None, None, :])
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        g = split(g)
        if v.requires_grad:
            _accumulate(v, merge(p.transpose(0, 1, 3, 2) @ g))
        if q.requires_grad or k.requires_grad:
            ds = g @ vh.transpose(0, 1, 3, 2)  # dp, turned into ds in place
            ds -= np.sum(ds * p, axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            if q.requires_grad:
                _accumulate(q, merge(ds @ kh))
            if k.requires_grad:
                _accumulate(k, merge(ds.transpose(0, 1, 3, 2) @ qh))

    return _make(merge(p @ vh), (q, k, v), backward_fn)


def log_map(x: Tensor, curvature: float = 1.0) -> Tensor:
    """Origin log map of the c-ball on the last axis,
    x * arctanh(sqrt(c) n) / (sqrt(c) n) with n = sqrt(|x|^2 + 1e-30): the
    floor keeps the norm smooth and maps the origin to the origin. The
    operations run in the order of the composite (norm, scale, arctanh,
    divide, multiply), so the output is bit-identical to it."""
    x = _as_tensor(x)
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + 1e-30)
    sn = n * float(np.sqrt(curvature))
    s = np.arctanh(sn) / sn

    def backward_fn(g):
        # d/dx of x * s(n): g * s plus x <g, x> (ds/dn) / n
        dot = np.sum(g * x.data, axis=-1, keepdims=True)
        _accumulate(x, g * s + x.data * ((1.0 / (1.0 - sn * sn) - s) / (n * n) * dot))

    return _make(x.data * s, (x,), backward_fn)


# ---------------------------------------------------------------------------
# engine


def backward(out: Tensor, seed: float = 1.0) -> None:
    """Accumulate d(out)/d(leaf) into .grad for every reachable leaf.

    out must be scalar-sized. Calling twice without zero_grad accumulates.
    """
    global _active_grads
    if out.data.size != 1:
        raise ValueError(f"backward needs a scalar, got shape {out.data.shape}")
    if not out.requires_grad:
        return
    if out._backward_fn is None:
        if out.grad is None:
            out.grad = np.zeros_like(out.data)
        out.grad += seed
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    _active_grads = {id(out): np.full_like(out.data, seed)}
    try:
        for node in reversed(topo):
            if node._backward_fn is None:
                continue
            g = _active_grads.pop(id(node), None)
            if g is not None:
                node._backward_fn(g)
    finally:
        _active_grads = None


def clip_global_norm(params, max_norm: float) -> float:
    """Rescale all gradients in place so their joint L2 norm is <= max_norm."""
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


class Adam:
    """Adam with bias correction; ball-constrained parameters are re-projected
    after every step."""

    def __init__(self, params, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params: list[Parameter] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {id(p): np.zeros_like(p.data) for p in self.params}
        self._v = {id(p): np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p in self.params:
            if p.grad is None:
                continue
            m = self._m[id(p)]
            v = self._v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            if p.ball is not None:
                p.data = project_rows(p.data, p.ball)
