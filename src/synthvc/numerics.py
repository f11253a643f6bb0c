"""Dense float tensors with reverse-mode autodiff on an explicit tape.

float32 is the storage dtype for everything trained; float64 tensors are
permitted so finite-difference gradient checks can run at full precision.
The reductions that form a forward value in mean_axis, weighted_sum,
cross_entropy and rms_norm (its mean square) accumulate in float64
regardless of the storage dtype and round once to it. The rest accumulate in
the storage dtype: softmax's row sums (forward and VJP, and so attend's), the
sums over broadcast axes in `_unbroadcast`, and rms_norm's VJP sums. Moving
them to float64 would move trained bits.

Every forward result is checked for NaN/Inf, in one BLAS pass: the dot of
the array with itself is a sum of squares, which no NaN or Inf can cancel,
so a finite dot proves every element finite. A non-finite dot is a real
NaN/Inf or finite squares that overflow, and an exact elementwise scan tells
the two apart, so the check raises on exactly the arrays that scan alone
would.

Kernels keep their bits when they are rewritten for speed: a rewrite makes
the same IEEE operations on the same operands, in the same order, as the
formula it replaces (in place, or picking a branch by exact arithmetic, but
never regrouped), and tests/test_numerics.py keeps that formula verbatim as
the reference it must equal bit for bit. For example, the `embedding_lookup`
VJP scatters with one 1-D add.at over the flattened table, at indices
id * D + column, in place of a 2-D add.at of whole rows: each table element
still sums its rows in row order.

Three ops are fused: each is taped as a single node whose forward and VJP
make the same numpy calls, in the same order, as the op chain it stands for,
so results are bit-identical to that chain. tests/harness.py keeps each
chain as the reference. A fused op's VJP forms every parent's gradient in
one pass, as any op's does: the tape asks each node once.
- `affine` is x @ w + b over the last axis of x: reshape -> matmul -> add
  -> reshape.
- `attention_residual` is the attention half of a pre-norm transformer
  block, x + o(attend(q(n), k(n), v(n))) with n = rms_norm(x, norm1):
  rms_norm -> three affines -> attend -> affine -> add, where attend is
  multi-head self-attention between the projections.
- `mlp_residual` is the MLP half, h + down(silu(up(rms_norm(h, norm2)))):
  rms_norm -> affine -> silu -> affine -> add.
rms_norm, affine, silu, softmax and rope_apply are each written once, as
private kernels that the public op and the fused ops call, and each block
half's forward is written once, as an untaped kernel on plain arrays
(`_attention_residual_fwd`, `_mlp_residual_fwd`) that checks every
intermediate as the op that made it in the chain would, and its output.
The two fused ops wrap those kernels and build their VJPs from what they
return. attend is only a kernel, and has two:
- `_attend_fwd`, the tapeable one (training, the frozen encoders), routes
  through the public rope_apply, transpose, matmul and softmax only so that
  the benchmark's per-op spans still see them;
- `_attend_cached_fwd`, a decode's (its prefill and every column), has no
  backward. It takes the RoPE tables of the new positions, looked up once
  for every block, appends the rotated keys and the values to a
  `BlockCache`, whose keys lie transposed, (B * heads, dh, capacity), so
  the scores multiply a view of the cache rather than a copy of every
  cached key, and calls those four ops' kernels instead.
Both check the masked scores and the four arrays those public ops check,
so no computed intermediate goes unchecked. A decode (`nn.decode_trunk`)
calls the block kernels with `_attend_cached_fwd` on plain arrays: it
makes no Tensor and meets no tape.

A tape is single-threaded: activate it with `with tape:` around the forward
pass, call `tape.backward(loss, params)` afterwards for the gradients of the
named parameters, and build a fresh tape per training step (`optim.descend`
does all three). Ops called with no active tape run as pure functions. Each
op node holds one VJP, which maps the node's gradient to a sequence with one
entry per parent: that parent's gradient, or None where it needs none.
`backward` calls it once per node and drops the node's gradient as soon as
it has run, so a pass holds only the gradients still to be propagated; it
leaves the tape as it was, and a second call returns the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    NumericsError,
    ShapeError,
)

Array = np.ndarray
STORAGE_DTYPE = np.float32
RMS_NORM_EPS = 1e-5
ROPE_BASE = 10000.0

_ACTIVE: "Tape | None" = None


def _finite_or_raise(arr: Array, op: str) -> None:
    """NumericsError unless every element of arr is finite: one dot, and the
    exact scan only when the dot is not finite (see the module docstring)."""
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
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
    arr.setflags(write=False)
    t.data = arr
    t.requires_grad = requires_grad
    return t


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


class TapeNode:
    """One recorded tensor: the op that made it ("leaf" for an input), parent
    ids and the VJP (None for a leaf). Holding the tensor keeps its id from
    being reused by a new tensor while the tape lives."""

    __slots__ = ("op", "parents", "vjp", "tensor")

    def __init__(self, op, parents, vjp, tensor):
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.tensor = tensor


class Tape:
    """Flat record of ops in construction order; node ids are topological.

    A VJP reads its parents' requires_grad flags when it runs, not when the
    op ran, so a flag must not change between a forward and its backward
    (`optim.freeze`, the one place that clears flags, runs after training).
    """

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
               vjp: Callable[[Array], Sequence]) -> None:
        """Record out = op(*parents) with vjp(g), the gradients of parents in
        order (None where a parent needs none) given out's gradient g."""
        pids = tuple(self._enroll(p) for p in parents)
        nid = len(self.nodes)
        self.nodes.append(TapeNode(op, pids, vjp, out))
        self._ids[id(out)] = nid

    def backward(self, loss: Tensor, params: dict[str, Tensor]) -> dict[str, Array]:
        """Gradient of the scalar loss for each requires-grad tensor in
        params that the loss depends on, keyed by its name. Each op node's
        VJP runs once, and its contributions are added in parent order; the
        node's gradient is then dropped, while a leaf's is kept."""
        lid = self._ids.get(id(loss))
        if lid is None:
            raise NumericsError("backward: loss tensor is not on this tape")
        if loss.data.shape != ():
            raise NumericsError(f"backward: loss must be scalar, got shape {loss.shape}")
        grads: dict[int, Array] = {lid: np.ones((), dtype=loss.data.dtype)}
        for nid in range(lid, -1, -1):
            node = self.nodes[nid]
            if node.vjp is None:
                continue
            g = grads.pop(nid, None)
            if g is None:
                continue
            for pid, contrib in zip(node.parents, node.vjp(g)):
                if contrib is None:
                    continue
                prev = grads.get(pid)
                grads[pid] = contrib if prev is None else prev + contrib
        out: dict[str, Array] = {}
        for name, p in params.items():
            g = grads.get(self._ids.get(id(p)))
            if g is not None and p.requires_grad:
                out[name] = np.ascontiguousarray(g)
        return out


def _apply(op: str, parents: Sequence[Tensor], out_arr: Array,
           vjp: Callable[[Array], Sequence]) -> Tensor:
    """out_arr, checked finite, as `_record` returns it."""
    _finite_or_raise(out_arr, op)
    return _record(op, parents, out_arr, vjp)


def _record(op: str, parents: Sequence[Tensor], out_arr: Array,
            vjp: Callable[[Array], Sequence]) -> Tensor:
    """out_arr, already checked finite, as a tensor that requires a gradient
    when a parent does; the active tape, if any, records it with vjp only
    then. So a single-parent op's VJP runs only when that parent needs a
    gradient. The fused ops call it directly: their kernels check their
    outputs."""
    req = False
    for p in parents:   # cheaper than any() over a generator, per op call
        if p.requires_grad:
            req = True
            break
    out = _wrap(out_arr, req)
    if _ACTIVE is not None and req:
        _ACTIVE.record(op, parents, out, vjp)
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

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _apply("add", (a, b), out, vjp)


def scale(a: Tensor, c: float) -> Tensor:
    cc = a.data.dtype.type(c)
    out = a.data * cc
    return _apply("scale", (a,), out, lambda g: (g * cc,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} x {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = np.matmul(ad, bd)

    def vjp(g):
        return (_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
                if a.requires_grad else None,
                _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
                if b.requires_grad else None)

    return _apply("matmul", (a, b), out, vjp)


def _affine_fwd(x: Array, w: Array, b: Array) -> tuple[Array, Array]:
    """x @ w + b over the last axis of x, and x's rows as one 2-D array (the
    w gradient's left operand)."""
    if w.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: weight {w.shape} and bias {b.shape} do not form (D, E), (E,)")
    if x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: input {x.shape} does not end in weight rows {w.shape[0]}")
    flat = x.reshape(-1, x.shape[-1])
    out = np.matmul(flat, w)
    out += b
    return out.reshape(x.shape[:-1] + w.shape[1:]), flat


def _affine_vjp_x(g: Array, w: Array, xshape: tuple[int, ...]) -> Array:
    return np.matmul(g.reshape(-1, w.shape[1]), np.swapaxes(w, -1, -2)).reshape(xshape)


def _affine_vjp_w(g: Array, flat: Array) -> Array:
    return np.matmul(np.swapaxes(flat, -1, -2), g.reshape(-1, g.shape[-1]))


def _affine_vjp_b(g: Array, bshape: tuple[int, ...]) -> Array:
    return _unbroadcast(g.reshape(-1, bshape[0]), bshape)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with x (..., D), w (D, E) and b (E,): one taped node.

    Leading axes are flattened into rows for a single 2-D matmul and
    restored afterwards; the b gradient sums over those rows.
    """
    out, flat = _affine_fwd(x.data, w.data, b.data)

    def vjp(g):
        return (_affine_vjp_x(g, w.data, x.data.shape) if x.requires_grad else None,
                _affine_vjp_w(g, flat) if w.requires_grad else None,
                _affine_vjp_b(g, b.data.shape) if b.requires_grad else None)

    return _apply("affine", (x, w, b), out, vjp)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    return _apply("transpose", (a,), out,
                  lambda g: (np.ascontiguousarray(np.transpose(g, tuple(np.argsort(axes)))),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)
    return _apply("reshape", (a,), out, lambda g: (g.reshape(a.data.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(g):
        grads, sl, lo = [], [slice(None)] * g.ndim, 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            sl[axis] = slice(lo, hi)
            grads.append(np.ascontiguousarray(g[tuple(sl)]) if t.requires_grad else None)
            lo = hi
        return grads

    return _apply("concat", tuple(tensors), out, vjp)


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    n = a.data.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"narrow: range [{start}, {stop}) invalid for axis of size {n}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    out = np.ascontiguousarray(a.data[tuple(sl)])

    def vjp(g):
        full = np.zeros(a.data.shape, dtype=g.dtype)
        full[tuple(sl)] = g
        return (full,)

    return _apply("narrow", (a,), out, vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _silu_fwd(x: Array) -> tuple[Array, Array]:
    """x * sigmoid(x), and the sigmoid."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    # The sigmoid is 1 / d for x >= 0 and e / d below. Its numerator is
    # max(e, x >= 0), since e <= 1 where x >= 0 and e >= 0 below: an exact
    # pick with no branch, followed by the same division.
    sig = np.maximum(e, x >= 0)
    sig /= d
    return x * sig, sig


def _silu_vjp(g: Array, x: Array, sig: Array) -> Array:
    gx = g * sig
    t = 1.0 - sig
    t *= x
    t += 1.0
    gx *= t
    return gx


def silu(a: Tensor) -> Tensor:
    out, sig = _silu_fwd(a.data)
    return _apply("silu", (a,), out, lambda g: (_silu_vjp(g, a.data, sig),))


def _softmax_fwd(x: Array) -> Array:
    """exp(x - max) / sum over the last axis, in a new array."""
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax(a: Tensor) -> Tensor:
    x = a.data
    if x.shape[-1] < 1:
        raise ShapeError("softmax: last dimension must be >= 1")
    out = _softmax_fwd(x)

    def vjp(g):
        gx = g * out
        np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= out
        return (gx,)

    return _apply("softmax", (a,), out, vjp)


def _rms_norm_fwd(arr: Array, gn: Array) -> tuple[Array, Array]:
    """arr / rms(arr) * gn over the last axis, and the per-row 1 / rms: an
    array with a last axis of 1, or for a single row a scalar of arr's dtype."""
    d = arr.shape[-1]
    if gn.shape != (d,):
        raise ShapeError(f"rms_norm: gain shape {gn.shape} does not match last axis {d}")
    ms = np.add.reduce(np.square(arr, dtype=np.float64), axis=-1, keepdims=True)
    if ms.size == 1:
        # one row, as in a decode column: the same four IEEE double
        # operations on a Python float, rounded once to arr's dtype, cost
        # less than four numpy calls and a cast
        inv = arr.dtype.type(1.0 / math.sqrt(ms.item() / d + RMS_NORM_EPS))
    else:
        ms /= d     # the mean, as np.mean forms it
        ms += RMS_NORM_EPS
        np.sqrt(ms, out=ms)
        np.divide(1.0, ms, out=ms)
        inv = ms.astype(arr.dtype)
    out = arr * inv
    out *= gn
    return out, inv


def _rms_norm_vjp_x(g: Array, arr: Array, gn: Array, inv: Array) -> Array:
    gp = g * gn
    t = gp * arr
    dot = t.sum(axis=-1, keepdims=True)
    # np.power, as ** on an array calls it: ** on a one-row scalar inv rounds differently
    np.multiply(arr, np.power(inv, 3), out=t)
    t *= dot / arr.shape[-1]
    gp *= inv
    gp -= t
    return gp


def _rms_norm_vjp_gain(g: Array, arr: Array, inv: Array) -> Array:
    prod = g * arr
    prod *= inv
    return prod.reshape(-1, arr.shape[-1]).sum(axis=0)


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    out, inv = _rms_norm_fwd(x.data, gain.data)

    def vjp(g):
        return (_rms_norm_vjp_x(g, x.data, gain.data, inv) if x.requires_grad else None,
                _rms_norm_vjp_gain(g, x.data, inv) if gain.requires_grad else None)

    return _apply("rms_norm", (x, gain), out, vjp)


def _rope_tables(positions, d: int, dtype, ndim: int) -> tuple[Array, Array]:
    """cos and sin of each position's rotary angles, shaped to broadcast over
    an (N, ..., d) array whose axis 0 holds the positions. Read-only arrays,
    shared by every caller with the same positions, width, dtype and rank."""
    pos = np.asarray(positions, dtype=np.float64)
    return _rope_tables_of(pos.tobytes(), d, np.dtype(dtype), ndim)


@lru_cache(maxsize=64)
def _rope_tables_of(pos_bytes: bytes, d: int, dtype: np.dtype,
                    ndim: int) -> tuple[Array, Array]:
    pos = np.frombuffer(pos_bytes, dtype=np.float64)
    half = d // 2
    freqs = ROPE_BASE ** (-(2.0 * np.arange(half, dtype=np.float64)) / d)
    ang = pos[:, None] * freqs[None, :]
    bshape = (pos.shape[0],) + (1,) * (ndim - 2) + (half,)
    tables = (np.cos(ang).astype(dtype).reshape(bshape),
              np.sin(ang).astype(dtype).reshape(bshape))
    for table in tables:
        table.flags.writeable = False
    return tables


def _rope_fwd(arr: Array, cos: Array, sin: Array) -> Array:
    """arr's (even, odd) pairs rotated by `_rope_tables`' cos and sin, in a
    new array."""
    xe, xo = arr[..., 0::2], arr[..., 1::2]
    out = np.empty_like(arr)
    even, odd = out[..., 0::2], out[..., 1::2]
    t = xo * sin
    np.multiply(xe, cos, out=even)
    even -= t            # xe * cos - xo * sin
    np.multiply(xo, cos, out=t)
    np.multiply(xe, sin, out=odd)
    odd += t             # xe * sin + xo * cos
    return out


def _rope_vjp(g: Array, cos: Array, sin: Array) -> Array:
    ge, go = g[..., 0::2], g[..., 1::2]
    gx = np.empty_like(g)
    even, odd = gx[..., 0::2], gx[..., 1::2]
    t = go * sin
    np.multiply(ge, cos, out=even)
    even += t            # ge * cos + go * sin
    np.multiply(ge, sin, out=t)
    np.multiply(go, cos, out=odd)
    odd -= t             # -ge * sin + go * cos
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
    out = _rope_fwd(arr, cos, sin)
    return _apply("rope_apply", (x,), out, lambda g: (_rope_vjp(g, cos, sin),))


# ---------------------------------------------------------------------------
# attention


class BlockCache:
    """One attention block's keys and values for positions [0, length),
    already rotated (RoPE positions are absolute, so cached keys stay valid),
    in preallocated buffers: the keys transposed, (B * heads, dh, capacity),
    so the scores read a view of them; the values (B * heads, capacity, dh).
    `_attend_cached_fwd` appends to them. A decode's arrays fill it, so
    nothing cached carries a gradient."""

    def __init__(self, rows: int, capacity: int, dh: int):
        self.k = np.zeros((rows, dh, capacity), dtype=STORAGE_DTYPE)
        self.v = np.zeros((rows, capacity, dh), dtype=STORAGE_DTYPE)
        self.length = 0


def _split_heads(x: Array, b: int, t: int, heads: int, dh: int) -> Array:
    """(B, t, heads * dh), or (B * t, heads, dh), -> (B * heads, t, dh). At
    t = 1 the heads already lie in that order, so a reshape does it."""
    if t == 1:
        return x.reshape(b * heads, 1, dh)
    return np.ascontiguousarray(x.reshape(b, t, heads, dh).transpose(0, 2, 1, 3)
                                ).reshape(b * heads, t, dh)


def _merge_heads(x: Array, b: int, t: int, heads: int, dh: int) -> Array:
    """(B * heads, t, dh) -> (B, t, heads * dh); a reshape at t = 1."""
    if t == 1:
        return x.reshape(b, 1, heads * dh)
    return np.ascontiguousarray(x.reshape(b, heads, t, dh).transpose(0, 2, 1, 3)
                                ).reshape(b, t, heads * dh)


def _attend_shape(q: Array, k: Array, v: Array, heads: int) -> tuple[int, int, int, int]:
    """(B, t, D, dh) of (B, t, D) projections split into `heads` heads of
    width dh; a ShapeError unless q, k and v share one such shape and dtype."""
    shape, dtype = q.shape, q.dtype
    if (len(shape) != 3 or k.shape != shape or v.shape != shape
            or k.dtype != dtype or v.dtype != dtype or heads < 1 or shape[2] % heads):
        raise ShapeError(f"attend: q {shape}, k {k.shape}, v {v.shape} are not one "
                         f"(B, t, D) shape and dtype with D divisible by {heads} heads")
    return shape[0], shape[1], shape[2], shape[2] // heads


def _check_mask(mask, t: int, n_keys: int) -> None:
    if mask is not None and np.shape(mask) != (t, n_keys):
        raise ShapeError(f"attend: mask {np.shape(mask)} is not ({t}, {n_keys})")


def _scaled_scores(raw: Array, dh: int, mask):
    """raw / sqrt(dh) + mask (None for none), checked, and the scale."""
    cc = raw.dtype.type(1.0 / math.sqrt(dh))   # correctly rounded, as np.sqrt is
    scores = np.multiply(raw, cc)
    if mask is not None:
        scores += mask
    _finite_or_raise(scores, "attend")
    return scores, cc


def _attend_fwd(q: Array, k: Array, v: Array, positions, heads: int,
                mask) -> tuple[Array, Callable]:
    """Multi-head self-attention of (B, t, D) projections at `positions`:
    the context, and back(g, need_q, need_k, need_v), the three input
    gradients (None where not needed).

    Rotary on q and k, a split into `heads` heads of width dh = D / heads,
    softmax(q k^T / sqrt(dh) + mask) v with mask (t, t) or None, and the
    heads merged back to (B, t, D). The forward calls the public rope_apply
    (once, over the stacked q and k heads), transpose, matmul and softmax on
    untaped inputs, only so that the benchmark's spans of those ops still
    see them; the rest is plain numpy. Forward and back make the same IEEE
    operations, in the same order, as the rope -> split -> matmul -> scale
    -> add -> softmax -> matmul -> merge chain they stand for, so results
    are bit-identical to that chain.
    """
    b, t, d, dh = _attend_shape(q, k, v, heads)
    _check_mask(mask, t, t)
    dtype = q.dtype
    tiled = positions if b == 1 else np.tile(positions, b)
    qk = np.concatenate([q, k], axis=-1).reshape(b * t, 2 * heads, dh)
    qk = rope_apply(_wrap(qk), tiled).data
    q_h = _split_heads(qk[:, :heads], b, t, heads, dh)
    k_h = _split_heads(qk[:, heads:], b, t, heads, dh)
    v_h = _split_heads(v, b, t, heads, dh)
    kt = transpose(_wrap(k_h), (0, 2, 1)).data
    scores, cc = _scaled_scores(matmul(_wrap(q_h), _wrap(kt)).data, dh, mask)
    probs = softmax(_wrap(scores)).data
    out = _merge_heads(np.matmul(probs, v_h), b, t, heads, dh)

    def back(g: Array, need_q: bool, need_k: bool, need_v: bool) -> tuple:
        g_q = g_k = g_v = None
        cos, sin = _rope_tables(tiled, dh, dtype, 3)
        g_ctx = _split_heads(g, b, t, heads, dh)
        if need_v:
            g_v = _merge_heads(np.matmul(np.swapaxes(probs, -1, -2), g_ctx), b, t, heads, dh)
        g_probs = np.matmul(g_ctx, np.swapaxes(v_h, -1, -2))
        g_raw = g_probs * probs
        # probs * (g_probs - rowsum(g_probs * probs)), then * cc
        np.subtract(g_probs, g_raw.sum(axis=-1, keepdims=True), out=g_raw)
        g_raw *= probs
        g_raw *= cc
        if need_k:
            g_kt = np.matmul(np.swapaxes(q_h, -1, -2), g_raw)
            # (B * heads, dh, t) -> (B * t, heads, dh) in one copy
            g_k = np.ascontiguousarray(np.transpose(g_kt.reshape(b, heads, dh, t),
                                                    (0, 3, 1, 2))).reshape(b * t, heads, dh)
            g_k = _rope_vjp(g_k, cos, sin).reshape(b, t, d)
        if need_q:
            g_q = np.matmul(g_raw, np.swapaxes(kt, -1, -2))
            g_q = _merge_heads(g_q, b, t, heads, dh).reshape(b * t, heads, dh)
            g_q = _rope_vjp(g_q, cos, sin).reshape(b, t, d)
        return g_q, g_k, g_v

    return out, back


def _attend_cached_fwd(q: Array, k: Array, v: Array, cos: Array, sin: Array, heads: int,
                       mask, cache: BlockCache) -> tuple[Array, None]:
    """`_attend_fwd`'s forward for a decode, over a `BlockCache`: the
    context, and None, as there is no backward.

    `cos` and `sin` are the (t, 1, dh / 2) tables `_rope_tables` builds for
    the t new positions at rank 3, so they broadcast over B. The rotated
    keys and the values are first appended to the cache's buffers, the keys
    written once into its transposed buffer, and the t queries attend over
    every cached position, so `mask` is (t, cached + t) or None. It calls
    the kernels rope_apply, transpose, matmul and softmax share and checks
    the four arrays they check (the rotated q and k, the keys it caches, the
    raw scores and the probabilities), and multiplies the queries by a view
    of the cached keys. It makes the same IEEE operations, in the same
    order, as `_attend_fwd` over the cached keys and values.
    """
    b, t, d, dh = _attend_shape(q, k, v, heads)
    dtype = q.dtype
    if cos.shape != (t, 1, dh // 2) or sin.shape != cos.shape or cos.dtype != dtype:
        raise ShapeError(f"attend: rope tables {cos.shape} are not those of {t} positions "
                         f"of width {dh} in {dtype}")
    start, stop = cache.length, cache.length + t
    if (dtype != cache.k.dtype or cache.k.shape[:2] != (b * heads, dh)
            or stop > cache.k.shape[2]):
        raise ShapeError(f"attend: {dtype} keys for {b * heads} rows of width {dh} at "
                         f"positions [{start}, {stop}) do not fit {cache.k.dtype} "
                         f"transposed cache {cache.k.shape}")
    _check_mask(mask, t, stop)
    qk = _rope_fwd(np.concatenate([q, k], axis=-1).reshape(b, t, 2 * heads, dh), cos, sin)
    _finite_or_raise(qk, "rope_apply")
    q_h = _split_heads(qk[:, :, :heads], b, t, heads, dh)
    keys = cache.k.reshape(b, heads, dh, -1)[..., start:stop]
    keys[...] = qk[:, :, heads:].transpose(0, 2, 3, 1)
    cache.v[:, start:stop] = _split_heads(v, b, t, heads, dh)
    cache.length = stop
    _finite_or_raise(keys, "transpose")
    raw = np.matmul(q_h, cache.k[:, :, :stop])
    _finite_or_raise(raw, "matmul")
    probs = _softmax_fwd(_scaled_scores(raw, dh, mask)[0])
    _finite_or_raise(probs, "softmax")
    return _merge_heads(np.matmul(probs, cache.v[:, :stop]), b, t, heads, dh), None


def _attention_residual_fwd(x: Array, norm1: Array, q: tuple[Array, Array],
                            k: tuple[Array, Array], v: tuple[Array, Array],
                            o: tuple[Array, Array], attend: Callable, *attend_args):
    """x + o(attend(q(n), k(n), v(n), *attend_args)) with n = rms_norm(x,
    norm1), where q, k, v and o are (weight, bias) pairs and attend is
    `_attend_fwd` or `_attend_cached_fwd`: the attention half of a pre-norm
    transformer block on plain arrays. Returns the output and what its VJP
    reads, (n, 1 / rms, n's rows, the context, its rows, attend's back).

    Every intermediate, and the output, is checked as the op that made it in
    the chain would check it."""
    n, inv = _rms_norm_fwd(x, norm1)
    _finite_or_raise(n, "attention_residual")
    qkv = []
    for w, b in (q, k, v):
        arr, n_flat = _affine_fwd(n, w, b)
        _finite_or_raise(arr, "attention_residual")
        qkv.append(arr)
    ctx, back = attend(*qkv, *attend_args)
    _finite_or_raise(ctx, "attention_residual")
    a, ctx_flat = _affine_fwd(ctx, *o)
    _finite_or_raise(a, "attention_residual")
    out = x + a
    _finite_or_raise(out, "attention_residual")
    return out, (n, inv, n_flat, ctx, ctx_flat, back)


def attention_residual(x: Tensor, norm1: Tensor, q: tuple[Tensor, Tensor],
                       k: tuple[Tensor, Tensor], v: tuple[Tensor, Tensor],
                       o: tuple[Tensor, Tensor], positions, heads: int, mask) -> Tensor:
    """x + o(attend(q(n), k(n), v(n), ...)) with n = rms_norm(x, norm1), where
    q, k, v and o are the (weight, bias) pairs of four affine maps: one taped
    node, the attention half of a pre-norm transformer block, over
    `_attention_residual_fwd` with `_attend_fwd`. `positions`, `heads` and
    `mask` are attend's.

    Gradients are grouped as the tape groups the chain's: n gets
    (g_v + g_k) + g_q, the projections in reverse order, and x gets the
    residual gradient plus the norm path.
    """
    projections = (q, k, v)
    parents = (x, norm1, *q, *k, *v, *o)
    xa = x.data
    out, (n, inv, n_flat, ctx, ctx_flat, back) = _attention_residual_fwd(
        xa, norm1.data, *((w.data, b.data) for w, b in (q, k, v, o)),
        _attend_fwd, positions, heads, mask)
    n_rg = x.requires_grad or norm1.requires_grad
    need = [n_rg or w.requires_grad or b.requires_grad for w, b in projections]

    def grads_of(g):
        grads = [None] * len(parents)
        wo, bo = o
        if wo.requires_grad:
            grads[8] = _affine_vjp_w(g, ctx_flat)
        if bo.requires_grad:
            grads[9] = _affine_vjp_b(g, bo.data.shape)
        if not any(need):
            return grads
        g_qkv = back(_affine_vjp_x(g, wo.data, ctx.shape), *need)
        g_n = None
        for i in (2, 1, 0):     # v, k, q: the tape meets the last projection first
            (w, b), gp = projections[i], g_qkv[i]
            if w.requires_grad:
                grads[2 + 2 * i] = _affine_vjp_w(gp, n_flat)
            if b.requires_grad:
                grads[3 + 2 * i] = _affine_vjp_b(gp, b.data.shape)
            if n_rg:
                part = _affine_vjp_x(gp, w.data, n.shape)
                g_n = part if g_n is None else g_n + part
        if x.requires_grad:
            grads[0] = g + _rms_norm_vjp_x(g_n, xa, norm1.data, inv)
        if norm1.requires_grad:
            grads[1] = _rms_norm_vjp_gain(g_n, xa, inv)
        return grads

    return _record("attention_residual", parents, out, grads_of)


def _mlp_residual_fwd(h: Array, norm2: Array, up: tuple[Array, Array],
                      down: tuple[Array, Array]):
    """h + down(silu(up(rms_norm(h, norm2)))), where up and down are (weight,
    bias) pairs: the MLP half of a pre-norm transformer block on plain
    arrays. Returns the output and what its VJP reads, (n, 1 / rms, n's
    rows, up's output, its sigmoid, silu's output, its rows). Every
    intermediate, and the output, is checked as the op that made it in the
    chain would check it."""
    n, inv = _rms_norm_fwd(h, norm2)
    _finite_or_raise(n, "mlp_residual")
    u, n_flat = _affine_fwd(n, *up)
    _finite_or_raise(u, "mlp_residual")
    s, sig = _silu_fwd(u)
    _finite_or_raise(s, "mlp_residual")
    dn, s_flat = _affine_fwd(s, *down)
    _finite_or_raise(dn, "mlp_residual")
    out = h + dn
    _finite_or_raise(out, "mlp_residual")
    return out, (n, inv, n_flat, u, sig, s, s_flat)


def mlp_residual(h: Tensor, norm2: Tensor, up: tuple[Tensor, Tensor],
                 down: tuple[Tensor, Tensor]) -> Tensor:
    """h + down(silu(up(rms_norm(h, norm2)))), where up and down are the
    (weight, bias) pairs of two affine maps: one taped node, the MLP half of
    a pre-norm transformer block, over `_mlp_residual_fwd`. h gets the
    residual gradient plus the norm path."""
    parents = (h, norm2, *up, *down)
    ha = h.data
    out, (n, inv, n_flat, u, sig, s, s_flat) = _mlp_residual_fwd(
        ha, norm2.data, (up[0].data, up[1].data), (down[0].data, down[1].data))

    def grads_of(g):
        grads = [None] * len(parents)
        (wu, bu), (wd, bd) = up, down
        n_rg = h.requires_grad or norm2.requires_grad
        if wd.requires_grad:
            grads[4] = _affine_vjp_w(g, s_flat)
        if bd.requires_grad:
            grads[5] = _affine_vjp_b(g, bd.data.shape)
        if not (n_rg or wu.requires_grad or bu.requires_grad):
            return grads
        g_u = _silu_vjp(_affine_vjp_x(g, wd.data, s.shape), u, sig)
        if wu.requires_grad:
            grads[2] = _affine_vjp_w(g_u, n_flat)
        if bu.requires_grad:
            grads[3] = _affine_vjp_b(g_u, bu.data.shape)
        if n_rg:
            g_n = _affine_vjp_x(g_u, wu.data, n.shape)
            if h.requires_grad:
                grads[0] = g + _rms_norm_vjp_x(g_n, ha, norm2.data, inv)
            if norm2.requires_grad:
                grads[1] = _rms_norm_vjp_gain(g_n, ha, inv)
        return grads

    return _record("mlp_residual", parents, out, grads_of)


# ---------------------------------------------------------------------------
# lookups, reductions, losses


def embedding_lookup(table: Tensor, ids) -> Tensor:
    idx = np.asarray(ids, dtype=np.int64)
    v = table.data.shape[0]
    if idx.size == 1:   # a decode column's lookup: one range test, no reductions
        out_of_range = not 0 <= idx.item() < v
    else:
        out_of_range = idx.size and (idx.min() < 0 or idx.max() >= v)
    if out_of_range:
        bad = idx[(idx < 0) | (idx >= v)][0]
        raise IndexError(f"embedding_lookup: id {bad} out of range [0, {v})")
    out = table.data[idx]

    def vjp(g):
        # element (id, c) of the table is element id * D + c of its flat
        # form, so one 1-D add.at over g's elements in row-major order adds
        # each element's rows in row order, as a 2-D add.at of whole rows does
        shape = table.data.shape
        at = (idx.reshape(-1, 1) * shape[1] + np.arange(shape[1])).reshape(-1)
        gt = np.zeros(shape[0] * shape[1], dtype=g.dtype)
        np.add.at(gt, at, g.reshape(-1))
        return (gt.reshape(shape),)

    return _apply("embedding_lookup", (table,), out, vjp)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    """Mean over one axis, kept with size 1."""
    n = a.data.shape[axis]
    out = (np.sum(a.data, axis=axis, keepdims=True, dtype=np.float64) / n).astype(a.data.dtype)
    return _apply("mean_axis", (a,), out,
                  lambda g: (np.broadcast_to(g, a.data.shape).astype(g.dtype) / n,))


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
    return _apply("weighted_sum", tuple(tensors), out,
                  lambda g: [g * t.data.dtype.type(w) if t.requires_grad else None
                             for w, t in zip(ws, tensors)])


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

    def vjp(g):
        p = np.exp(x64 - lse[:, None])
        p[np.arange(n_rows), np.clip(t_idx, 0, n_cls - 1)] -= 1.0
        p[~m] = 0.0
        return ((p * (float(g) / n_live)).astype(x.dtype),)

    return _apply("cross_entropy", (logits,), out, vjp)


def unfold_time(x: Tensor, kernel: int, stride: int, pad: int) -> Tensor:
    """Sliding windows along the time axis, flattened per step (im2col).

    x is (B, T, F); output is (B, T', kernel*F) with zero padding of `pad`
    frames at both ends.
    """
    arr = x.data
    b, t, f = arr.shape
    tp = t + 2 * pad
    if tp < kernel:
        raise ShapeError(f"unfold_time: padded length {tp} shorter than kernel {kernel}")
    padded = np.zeros((b, tp, f), dtype=arr.dtype)
    padded[:, pad:pad + t] = arr
    n_out = (tp - kernel) // stride + 1
    idx = np.arange(n_out)[:, None] * stride + np.arange(kernel)[None, :]
    out = padded[:, idx, :].reshape(b, n_out, kernel * f)

    def vjp(g):
        g4 = g.reshape(b, n_out, kernel, f)
        gp = np.zeros((b, tp, f), dtype=g.dtype)
        # Each padded frame sums its windows in window order, which is
        # kernel offset order from the last down to 0, as np.add.at did.
        last = (n_out - 1) * stride + 1
        for j in range(kernel - 1, -1, -1):
            gp[:, j:j + last:stride] += g4[:, :, j]
        return (np.ascontiguousarray(gp[:, pad:pad + t]),)

    return _apply("unfold_time", (x,), out, vjp)
