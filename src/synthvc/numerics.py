"""Dense float tensors with reverse-mode autodiff on an explicit tape.

float32 is the storage dtype for everything trained; float64 tensors are
permitted so the finite-difference oracles can run at full precision.
Reductions (sums, means, weighted sums, cross entropy) accumulate in
float64 regardless of the storage dtype and round once to it.
Every forward result is checked for NaN/Inf.

Two ops are fused: each is taped as a single node whose forward and VJPs
make the same numpy calls, in the same order, as the op chain it stands for,
so results are bit-identical to that chain.
- `affine` is x @ w + b over the last axis of x: reshape -> matmul -> add
  -> reshape.
- `attend` is multi-head self-attention between the q/k/v and output
  projections, including the append to a decode-time key/value cache. It
  checks its masked scores and its output, and the public ops it calls
  (rope_apply, transpose, matmul, softmax) check theirs, so no computed
  intermediate goes unchecked.

A tape is single-threaded: activate it with `with tape:` around the forward
pass, call `tape.backward(loss, params)` afterwards for the gradients of the
named parameters, and build a fresh tape per training step (`optim.descend`
does all three). Ops called with no active tape run as pure functions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    DeterminismError,
    NumericsError,
    ShapeError,
)

Array = np.ndarray
STORAGE_DTYPE = np.float32
RMS_NORM_EPS = 1e-5
ROPE_BASE = 10000.0

_ACTIVE: "Tape | None" = None


def _finite_or_raise(arr: Array, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"{op}: non-finite values in forward output")


class Tensor:
    """Immutable dense array plus a requires-grad flag."""

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        src = np.asarray(data)
        if dtype is None:
            dtype = src.dtype if src.dtype in (np.float32, np.float64) else STORAGE_DTYPE
        arr = np.array(src, dtype=dtype)
        arr.flags.writeable = False
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _wrap(arr: Array, requires_grad: bool = False) -> Tensor:
    t = Tensor.__new__(Tensor)
    try:
        arr.flags.writeable = False
    except ValueError:
        pass  # read-only view of a read-only base
    t.data = arr
    t.requires_grad = requires_grad
    return t


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class TapeNode:
    """One recorded tensor: the op that made it ("leaf" for an input), parent
    ids and per-parent vjps. Holding the tensor keeps its id from being
    reused by a new tensor while the tape lives."""

    __slots__ = ("op", "parents", "vjps", "tensor")

    def __init__(self, op, parents, vjps, tensor):
        self.op = op
        self.parents = parents
        self.vjps = vjps
        self.tensor = tensor


class Tape:
    """Flat record of ops in construction order; node ids are topological."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._ids: dict[int, int] = {}

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise NumericsError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def _enroll(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(TapeNode("leaf", (), None, t))
            self._ids[id(t)] = nid
        return nid

    def record(self, op: str, parents: Sequence[Tensor], out: Tensor,
               vjps: tuple[Callable[[Array], Array] | None, ...]) -> None:
        pids = tuple(self._enroll(p) for p in parents)
        nid = len(self.nodes)
        self.nodes.append(TapeNode(op, pids, vjps, out))
        self._ids[id(out)] = nid

    def backward(self, loss: Tensor, params: dict[str, Tensor]) -> dict[str, Array]:
        """Gradient of the scalar loss for each requires-grad tensor in
        params that the loss depends on, keyed by its name."""
        lid = self._ids.get(id(loss))
        if lid is None:
            raise NumericsError("backward: loss tensor is not on this tape")
        if loss.data.shape != ():
            raise NumericsError(f"backward: loss must be scalar, got shape {loss.shape}")
        grads: dict[int, Array] = {lid: np.ones((), dtype=loss.data.dtype)}
        for nid in range(lid, -1, -1):
            node = self.nodes[nid]
            g = grads.get(nid)
            if g is None or node.vjps is None:
                continue
            for pid, fn in zip(node.parents, node.vjps):
                if fn is None:
                    continue
                contrib = fn(g)
                prev = grads.get(pid)
                grads[pid] = contrib if prev is None else prev + contrib
        out: dict[str, Array] = {}
        for name, p in params.items():
            g = grads.get(self._ids.get(id(p)))
            if g is not None and p.requires_grad:
                out[name] = np.ascontiguousarray(g)
        return out


def _apply(op: str, parents: Sequence[Tensor], out_arr: Array,
           vjps_builder: Callable[[], tuple]) -> Tensor:
    _finite_or_raise(out_arr, op)
    req = any(p.requires_grad for p in parents)
    out = _wrap(out_arr, requires_grad=req)
    if _ACTIVE is not None and req:
        _ACTIVE.record(op, parents, out, vjps_builder())
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def build():
        fa = (lambda g: _unbroadcast(g, a.data.shape)) if a.requires_grad else None
        fb = (lambda g: _unbroadcast(g, b.data.shape)) if b.requires_grad else None
        return (fa, fb)

    return _apply("add", (a, b), out, build)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def build():
        ad, bd = a.data, b.data
        fa = (lambda g: _unbroadcast(g * bd, ad.shape)) if a.requires_grad else None
        fb = (lambda g: _unbroadcast(g * ad, bd.shape)) if b.requires_grad else None
        return (fa, fb)

    return _apply("mul", (a, b), out, build)


def scale(a: Tensor, c: float) -> Tensor:
    cc = a.data.dtype.type(c)
    out = a.data * cc

    def build():
        return ((lambda g: g * cc) if a.requires_grad else None,)

    return _apply("scale", (a,), out, build)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} x {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def build():
        ad, bd = a.data, b.data

        def fa(g):
            return _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)

        def fb(g):
            return _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)

        return (fa if a.requires_grad else None, fb if b.requires_grad else None)

    return _apply("matmul", (a, b), out, build)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with x (..., D), w (D, E) and b (E,): one taped node.

    Leading axes are flattened into rows for a single 2-D matmul and
    restored afterwards; the b gradient sums over those rows.
    """
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"affine: weight {w.shape} and bias {b.shape} do not form (D, E), (E,)")
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"affine: input {x.shape} does not end in weight rows {w.shape[0]}")
    xshape, n_out = x.data.shape, w.data.shape[1]
    flat = x.data.reshape(-1, xshape[-1])
    out = (np.matmul(flat, w.data) + b.data).reshape(xshape[:-1] + (n_out,))

    def build():
        wd = w.data

        def fx(g):
            return np.matmul(g.reshape(-1, n_out), np.swapaxes(wd, -1, -2)).reshape(xshape)

        def fw(g):
            return np.matmul(np.swapaxes(flat, -1, -2), g.reshape(-1, n_out))

        def fb(g):
            return _unbroadcast(g.reshape(-1, n_out), b.data.shape)

        return (fx if x.requires_grad else None, fw if w.requires_grad else None,
                fb if b.requires_grad else None)

    return _apply("affine", (x, w, b), out, build)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.ascontiguousarray(np.transpose(a.data, axes))

    def build():
        inv = tuple(np.argsort(axes))
        return ((lambda g: np.ascontiguousarray(np.transpose(g, inv)))
                if a.requires_grad else None,)

    return _apply("transpose", (a,), out, build)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def build():
        orig = a.data.shape
        return ((lambda g: g.reshape(orig)) if a.requires_grad else None,)

    return _apply("reshape", (a,), out, build)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def build():
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def make(i):
            lo, hi = offsets[i], offsets[i + 1]

            def fn(g):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                return np.ascontiguousarray(g[tuple(sl)])

            return fn

        return tuple(make(i) if t.requires_grad else None for i, t in enumerate(tensors))

    return _apply("concat", tuple(tensors), out, build)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    n = a.data.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"narrow: range [{start}, {stop}) invalid for axis of size {n}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    out = np.ascontiguousarray(a.data[tuple(sl)])

    def build():
        shape = a.data.shape

        def fn(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[tuple(sl)] = g
            return full

        return (fn if a.requires_grad else None,)

    return _apply("narrow", (a,), out, build)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def silu(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    out = x * sig

    def build():
        def fn(g):
            return g * sig * (1.0 + x * (1.0 - sig))

        return (fn if a.requires_grad else None,)

    return _apply("silu", (a,), out, build)


def softmax(a: Tensor) -> Tensor:
    x = a.data
    if x.shape[-1] < 1:
        raise ShapeError("softmax: last dimension must be >= 1")
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def build():
        s = out

        def fn(g):
            return s * (g - (g * s).sum(axis=-1, keepdims=True))

        return (fn if a.requires_grad else None,)

    return _apply("softmax", (a,), out, build)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    arr, gn = x.data, gain.data
    d = arr.shape[-1]
    if gn.shape != (d,):
        raise ShapeError(f"rms_norm: gain shape {gain.shape} does not match last axis {d}")
    ms = np.mean(arr.astype(np.float64) ** 2, axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + RMS_NORM_EPS)).astype(arr.dtype)
    out = arr * inv * gn

    def build():
        def fx(g):
            gp = g * gn
            dot = (gp * arr).sum(axis=-1, keepdims=True)
            return gp * inv - arr * (inv ** 3) * (dot / d)

        def fg(g):
            prod = g * arr * inv
            return prod.reshape(-1, d).sum(axis=0)

        return (fx if x.requires_grad else None, fg if gain.requires_grad else None)

    return _apply("rms_norm", (x, gain), out, build)


def _rope_tables(positions, d: int, dtype, ndim: int) -> tuple[Array, Array]:
    """cos and sin of each position's rotary angles, shaped to broadcast over
    an (N, ..., d) array whose axis 0 holds the positions."""
    pos = np.asarray(positions, dtype=np.float64)
    half = d // 2
    freqs = ROPE_BASE ** (-(2.0 * np.arange(half, dtype=np.float64)) / d)
    ang = pos[:, None] * freqs[None, :]
    bshape = (pos.shape[0],) + (1,) * (ndim - 2) + (half,)
    return (np.cos(ang).astype(dtype).reshape(bshape),
            np.sin(ang).astype(dtype).reshape(bshape))


def _rope_vjp(g: Array, cos: Array, sin: Array) -> Array:
    ge, go = g[..., 0::2], g[..., 1::2]
    gx = np.empty_like(g)
    gx[..., 0::2] = ge * cos + go * sin
    gx[..., 1::2] = -ge * sin + go * cos
    return gx


def rope_apply(x: Tensor, positions) -> Tensor:
    arr = x.data
    d = arr.shape[-1]
    if d % 2 != 0:
        raise ConfigError(f"rope_apply: head dimension must be even, got {d}")
    if np.shape(positions) != (arr.shape[0],):
        raise ShapeError(f"rope_apply: positions length {np.shape(positions)} does not match "
                         f"axis 0 of {arr.shape}")
    cos, sin = _rope_tables(positions, d, arr.dtype, arr.ndim)
    xe, xo = arr[..., 0::2], arr[..., 1::2]
    out = np.empty_like(arr)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos

    def build():
        return ((lambda g: _rope_vjp(g, cos, sin)) if x.requires_grad else None,)

    return _apply("rope_apply", (x,), out, build)


# ---------------------------------------------------------------------------
# attention


class BlockCache:
    """One attention block's keys and values for positions [0, length), in
    preallocated (B * heads, capacity, dh) buffers, already rotated (RoPE
    positions are absolute, so cached keys stay valid). `attend` appends to
    them. Decode only: nothing cached carries a gradient."""

    def __init__(self, rows: int, capacity: int, dh: int):
        self.k = np.zeros((rows, capacity, dh), dtype=STORAGE_DTYPE)
        self.v = np.zeros((rows, capacity, dh), dtype=STORAGE_DTYPE)
        self.length = 0


def _split_heads(x: Array, b: int, t: int, heads: int, dh: int) -> Array:
    """(B, t, heads * dh), or (B * t, heads, dh), -> (B * heads, t, dh)."""
    return np.ascontiguousarray(np.transpose(x.reshape(b, t, heads, dh), (0, 2, 1, 3))
                                ).reshape(b * heads, t, dh)


def _merge_heads(x: Array, b: int, t: int, heads: int, dh: int) -> Array:
    """(B * heads, t, dh) -> (B, t, heads * dh)."""
    return np.ascontiguousarray(np.transpose(x.reshape(b, heads, t, dh), (0, 2, 1, 3))
                                ).reshape(b, t, heads * dh)


def attend(q: Tensor, k: Tensor, v: Tensor, positions, heads: int, mask=None,
           cache: BlockCache | None = None) -> Tensor:
    """Multi-head self-attention of (B, t, D) projections at `positions`: one
    taped node.

    Rotary on q and k, a split into `heads` heads of width dh = D / heads,
    softmax(q k^T / sqrt(dh) + mask) v, and the heads merged back to (B, t, D).
    With a `cache` the rotated keys and values are first appended to its
    buffers and the t queries attend over every cached
    position, so `mask` is (t, cached + t) or None. No gradient flows through
    a cache, so one is refused while a tape records an input that needs one.

    The forward calls the public rope_apply (once, over the stacked q and k
    heads), transpose, matmul and softmax on untaped inputs; the rest is plain
    numpy. Forward and VJPs make the same numpy calls, in the same order, as
    the rope -> split -> matmul -> scale -> add -> softmax -> matmul -> merge
    chain they stand for, so results are bit-identical to that chain.
    """
    shape, dtype = q.data.shape, q.data.dtype
    if (len(shape) != 3 or k.data.shape != shape or v.data.shape != shape
            or k.data.dtype != dtype or v.data.dtype != dtype or heads < 1 or shape[2] % heads):
        raise ShapeError(f"attend: q {q.shape}, k {k.shape}, v {v.shape} are not one "
                         f"(B, t, D) shape and dtype with D divisible by {heads} heads")
    b, t, d = shape
    dh = d // heads
    if cache is not None:
        if _ACTIVE is not None and (q.requires_grad or k.requires_grad or v.requires_grad):
            raise NumericsError("attend: no gradient flows through a key/value cache")
        start, stop = cache.length, cache.length + t
        if (dtype != cache.k.dtype or cache.k.shape[0::2] != (b * heads, dh)
                or stop > cache.k.shape[1]):
            raise ShapeError(f"attend: {dtype} keys for {b * heads} rows of width {dh} at "
                             f"positions [{start}, {stop}) do not fit {cache.k.dtype} cache "
                             f"{cache.k.shape}")
    n_keys = t if cache is None else stop
    if mask is not None and np.shape(mask) != (t, n_keys):
        raise ShapeError(f"attend: mask {np.shape(mask)} is not ({t}, {n_keys})")

    tiled = np.tile(positions, b)
    qk = np.concatenate([q.data, k.data], axis=-1).reshape(b * t, 2 * heads, dh)
    qk = rope_apply(_wrap(qk), tiled).data
    q_h = _split_heads(qk[:, :heads], b, t, heads, dh)
    k_h = _split_heads(qk[:, heads:], b, t, heads, dh)
    v_h = _split_heads(v.data, b, t, heads, dh)
    if cache is not None:
        cache.k[:, start:stop] = k_h
        cache.v[:, start:stop] = v_h
        cache.length = stop
        k_h, v_h = cache.k[:, :stop], cache.v[:, :stop]
    kt = transpose(_wrap(k_h), (0, 2, 1))
    cc = dtype.type(1.0 / np.sqrt(dh))
    scores = matmul(_wrap(q_h), kt).data * cc
    if mask is not None:
        scores = scores + mask
    _finite_or_raise(scores, "attend")
    probs = softmax(_wrap(scores)).data
    out = _merge_heads(np.matmul(probs, v_h), b, t, heads, dh)

    def build():
        cos, sin = _rope_tables(tiled, dh, dtype, 3)
        memo: dict = {}

        def grads(g):
            """All three input gradients at once; the tape asks for each in turn."""
            if memo.get("g") is not g:
                memo.clear()
                memo["g"] = g
                g_ctx = _split_heads(g, b, t, heads, dh)
                if v.requires_grad:
                    memo["v"] = _merge_heads(np.matmul(np.swapaxes(probs, -1, -2), g_ctx),
                                             b, t, heads, dh)
                g_probs = np.matmul(g_ctx, np.swapaxes(v_h, -1, -2))
                g_scores = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
                g_raw = g_scores * cc
                if k.requires_grad:
                    g_kt = np.matmul(np.swapaxes(q_h, -1, -2), g_raw)
                    g_k = np.ascontiguousarray(np.transpose(g_kt, (0, 2, 1)))
                    g_k = _merge_heads(g_k, b, t, heads, dh).reshape(b * t, heads, dh)
                    memo["k"] = _rope_vjp(g_k, cos, sin).reshape(b, t, d)
                if q.requires_grad:
                    g_q = np.matmul(g_raw, np.swapaxes(kt.data, -1, -2))
                    g_q = _merge_heads(g_q, b, t, heads, dh).reshape(b * t, heads, dh)
                    memo["q"] = _rope_vjp(g_q, cos, sin).reshape(b, t, d)
            return memo

        return tuple((lambda g, n=n: grads(g).pop(n)) if p.requires_grad else None
                     for n, p in zip("qkv", (q, k, v)))

    return _apply("attend", (q, k, v), out, build)


# ---------------------------------------------------------------------------
# lookups, reductions, losses


def embedding_lookup(table: Tensor, ids) -> Tensor:
    idx = np.asarray(ids, dtype=np.int64)
    v = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        bad = idx[(idx < 0) | (idx >= v)][0]
        raise IndexError(f"embedding_lookup: id {bad} out of range [0, {v})")
    out = table.data[idx]

    def build():
        shape = table.data.shape

        def fn(g):
            gt = np.zeros(shape, dtype=g.dtype)
            np.add.at(gt, idx.reshape(-1), g.reshape(-1, shape[1]))
            return gt

        return (fn if table.requires_grad else None,)

    return _apply("embedding_lookup", (table,), out, build)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(np.sum(a.data, dtype=np.float64), dtype=a.data.dtype)

    def build():
        shape, dt = a.data.shape, a.data.dtype
        return ((lambda g: np.full(shape, g, dtype=dt)) if a.requires_grad else None,)

    return _apply("sum_all", (a,), out, build)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = np.asarray(np.sum(a.data, dtype=np.float64) / n, dtype=a.data.dtype)

    def build():
        shape, dt = a.data.shape, a.data.dtype
        return ((lambda g: np.full(shape, g / n, dtype=dt)) if a.requires_grad else None,)

    return _apply("mean_all", (a,), out, build)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    """Mean over one axis, kept with size 1."""
    n = a.data.shape[axis]
    out = (np.sum(a.data, axis=axis, keepdims=True, dtype=np.float64) / n).astype(a.data.dtype)

    def build():
        shape = a.data.shape

        def fn(g):
            return np.broadcast_to(g, shape).astype(g.dtype) / n

        return (fn if a.requires_grad else None,)

    return _apply("mean_axis", (a,), out, build)


def weighted_sum(tensors: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """sum_i weights[i] * tensors[i] over same-shape tensors.

    The products and the sum are formed in float64 and rounded once to the
    result dtype, so the value is within 0.5 ulp of an independent float64
    recomputation. Zero-weight terms are left out of the forward sum, so an
    input with weight 1 whose peers all have weight 0 comes back bit for bit.
    The VJP sends g * weights[i] to every input, zero weights included.
    """
    if not tensors:
        raise ShapeError("weighted_sum: need at least one tensor")
    if len(weights) != len(tensors):
        raise ShapeError(f"weighted_sum: {len(weights)} weights for {len(tensors)} tensors")
    shape = tensors[0].data.shape
    if any(t.data.shape != shape for t in tensors):
        raise ShapeError(f"weighted_sum: shapes differ: {[t.shape for t in tensors]}")
    ws = [float(w) for w in weights]
    acc = None
    for w, t in zip(ws, tensors):
        if w != 0.0:
            term = w * t.data.astype(np.float64)
            acc = term if acc is None else acc + term
    dtype = np.result_type(*(t.data.dtype for t in tensors))
    out = np.asarray(np.zeros(shape) if acc is None else acc, dtype=dtype)

    def build():
        def make(w, dt):
            cc = dt.type(w)
            return lambda g: g * cc

        return tuple(make(w, t.data.dtype) if t.requires_grad else None
                     for w, t in zip(ws, tensors))

    return _apply("weighted_sum", tuple(tensors), out, build)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-softmax over unmasked positions.

    The forward value is accumulated in float64 and rounded once to the
    logits dtype, so independent float64 recomputation matches to ~1 ulp.
    A fully masked batch has no mean and raises DegenerateBatchError.
    """
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D (T, C), got {logits.shape}")
    t_idx = np.asarray(targets, dtype=np.int64)
    n_rows, n_cls = x.shape
    if t_idx.shape != (n_rows,):
        raise ShapeError(f"cross_entropy: targets shape {t_idx.shape} does not match {n_rows} rows")
    m = np.ones(n_rows, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if m.shape != (n_rows,):
        raise ShapeError(f"cross_entropy: mask shape {m.shape} does not match {n_rows} rows")
    n_live = int(m.sum())
    if n_live == 0:
        raise DegenerateBatchError("cross_entropy: all positions masked")
    live_t = t_idx[m]
    if live_t.min() < 0 or live_t.max() >= n_cls:
        bad = live_t[(live_t < 0) | (live_t >= n_cls)][0]
        raise IndexError(f"cross_entropy: target {bad} out of range [0, {n_cls})")

    x64 = x.astype(np.float64)
    mx = x64.max(axis=1, keepdims=True)
    z = x64 - mx
    lse = mx[:, 0] + np.log(np.exp(z).sum(axis=1))
    logp_t = x64[np.arange(n_rows), np.clip(t_idx, 0, n_cls - 1)] - lse
    loss64 = -np.sum(logp_t[m]) / n_live
    out = np.asarray(loss64, dtype=x.dtype)

    def build():
        def fn(g):
            p = np.exp(x64 - lse[:, None])
            p[np.arange(n_rows), np.clip(t_idx, 0, n_cls - 1)] -= 1.0
            p[~m] = 0.0
            return (p * (float(g) / n_live)).astype(x.dtype)

        return (fn if logits.requires_grad else None,)

    return _apply("cross_entropy", (logits,), out, build)


def unfold_time(x: Tensor, kernel: int, stride: int, pad: int) -> Tensor:
    """Sliding windows along the time axis, flattened per step (im2col).

    x is (T, F) or (B, T, F); output is (T', kernel*F) or (B, T', kernel*F)
    with zero padding of `pad` frames at both ends.
    """
    arr = x.data
    batched = arr.ndim == 3
    a3 = arr if batched else arr[None]
    b, t, f = a3.shape
    tp = t + 2 * pad
    if tp < kernel:
        raise ShapeError(f"unfold_time: padded length {tp} shorter than kernel {kernel}")
    padded = np.zeros((b, tp, f), dtype=arr.dtype)
    padded[:, pad:pad + t] = a3
    n_out = (tp - kernel) // stride + 1
    idx = np.arange(n_out)[:, None] * stride + np.arange(kernel)[None, :]
    out = padded[:, idx, :].reshape(b, n_out, kernel * f)
    if not batched:
        out = out[0]

    def build():
        def fn(g):
            g4 = g.reshape(b, n_out, kernel, f)
            gp = np.zeros((b, tp, f), dtype=g.dtype)
            np.add.at(gp, (slice(None), idx), g4)
            gx = gp[:, pad:pad + t]
            return np.ascontiguousarray(gx if batched else gx[0])

        return (fn if x.requires_grad else None,)

    return _apply("unfold_time", (x,), out, build)


# ---------------------------------------------------------------------------
# verification harness


def grad_check(f: Callable[[Tensor], Tensor], x, step: float = 1e-4) -> float:
    """Worst per-coordinate relative error between tape gradients and
    central finite differences, both evaluated in float64."""
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    def run(arr: Array) -> float:
        out = f(_wrap(np.array(arr), requires_grad=False))
        return float(out.data)

    y1, y2 = run(base), run(base)
    if not (y1 == y2):
        raise DeterminismError("grad_check: repeated evaluation mismatch, f is not deterministic")

    t = Tape()
    with t:
        xt = Tensor(base, requires_grad=True, dtype=np.float64)
        loss = f(xt)
    analytic = t.backward(loss, {"x": xt}).get("x", np.zeros_like(base))

    worst = 0.0
    flat = base.reshape(-1)
    an_flat = np.asarray(analytic, dtype=np.float64).reshape(-1)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + step
        fp = run(probe.reshape(base.shape))
        probe[i] = flat[i] - step
        fm = run(probe.reshape(base.shape))
        fd = (fp - fm) / (2.0 * step)
        an = an_flat[i]
        denom = max(abs(fd), abs(an))
        if denom < 1e-10:
            continue
        worst = max(worst, abs(fd - an) / denom)
    return worst
