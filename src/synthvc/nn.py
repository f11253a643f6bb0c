"""Shared transformer building blocks over the numerics tape.

Everything operates on (B, T, D) tensors; params live in flat string-keyed
dicts so optimizers and checkpoints can treat models uniformly.

For incremental decoding, `trunk` takes an optional `cache`, one
`BlockCache` per block: each block then appends its new keys and values to
preallocated buffers and attends over every position cached so far. With
no cache the ops are those of a plain causal pass, as in training.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .numerics import Tensor

NEG_INF = -1e9


def init_linear(params: dict, rng: np.random.Generator, name: str,
                d_in: int, d_out: int, scale: float | None = None) -> None:
    s = (1.0 / np.sqrt(d_in)) if scale is None else scale
    params[f"{name}.w"] = Tensor(rng.normal(0.0, s, size=(d_in, d_out)).astype(np.float32),
                                 requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)


def linear(params: dict, name: str, x: Tensor) -> Tensor:
    """x @ {name}.w + {name}.b over x's last axis, as one taped `nm.affine`."""
    return nm.affine(x, params[f"{name}.w"], params[f"{name}.b"])


def init_block(params: dict, rng: np.random.Generator, name: str,
               dim: int, intermediate: int) -> None:
    params[f"{name}.norm1"] = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
    params[f"{name}.norm2"] = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
    init_linear(params, rng, f"{name}.q", dim, dim)
    init_linear(params, rng, f"{name}.k", dim, dim)
    init_linear(params, rng, f"{name}.v", dim, dim)
    init_linear(params, rng, f"{name}.o", dim, dim)
    init_linear(params, rng, f"{name}.up", dim, intermediate)
    init_linear(params, rng, f"{name}.down", intermediate, dim)


@lru_cache(maxsize=64)
def causal_mask(n: int) -> np.ndarray:
    m = np.triu(np.full((n, n), NEG_INF, dtype=np.float32), k=1)
    m.flags.writeable = False
    return m


class BlockCache:
    """One block's keys and values for positions [0, length), in preallocated
    (B * heads, capacity, dh) buffers, already rotated (RoPE positions are
    absolute, so cached keys stay valid). Decode only: nothing cached
    carries a gradient."""

    def __init__(self, rows: int, capacity: int, dh: int):
        self.k = np.zeros((rows, capacity, dh), dtype=nm.STORAGE_DTYPE)
        self.v = np.zeros((rows, capacity, dh), dtype=nm.STORAGE_DTYPE)
        self.length = 0

    def extend(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append (B * heads, t, dh) keys and values; return all cached ones."""
        k_all = nm.write_rows(self.k, self.length, k)
        v_all = nm.write_rows(self.v, self.length, v)
        self.length += k.shape[1]
        return k_all, v_all


def _heads_split(x: Tensor, b: int, t: int, heads: int, dh: int) -> Tensor:
    x = nm.reshape(x, (b, t, heads, dh))
    x = nm.transpose(x, (0, 2, 1, 3))
    return nm.reshape(x, (b * heads, t, dh))


def attention(params: dict, name: str, x: Tensor, positions: np.ndarray,
              heads: int, mask: np.ndarray | None,
              cache: BlockCache | None = None) -> Tensor:
    """Self-attention of x's t positions at `positions`. With a cache they
    attend over the cached positions too, so `mask` is (t, cached + t) or
    None."""
    b, t, d = x.shape
    dh = d // heads
    q = linear(params, f"{name}.q", x)
    k = linear(params, f"{name}.k", x)
    v = linear(params, f"{name}.v", x)
    tiled = np.tile(positions, b)
    q = nm.rope_apply(nm.reshape(q, (b * t, heads, dh)), tiled)
    k = nm.rope_apply(nm.reshape(k, (b * t, heads, dh)), tiled)
    q = _heads_split(nm.reshape(q, (b, t, d)), b, t, heads, dh)
    k = _heads_split(nm.reshape(k, (b, t, d)), b, t, heads, dh)
    v = _heads_split(v, b, t, heads, dh)
    if cache is not None:
        k, v = cache.extend(k, v)
    scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = nm.add(scores, nm.constant(mask))
    probs = nm.softmax(scores)
    ctx = nm.matmul(probs, v)
    ctx = nm.reshape(ctx, (b, heads, t, dh))
    ctx = nm.reshape(nm.transpose(ctx, (0, 2, 1, 3)), (b, t, d))
    return linear(params, f"{name}.o", ctx)


def block(params: dict, name: str, x: Tensor, positions: np.ndarray,
          heads: int, mask: np.ndarray | None, cache: BlockCache | None = None) -> Tensor:
    h = nm.add(x, attention(params, name, nm.rms_norm(x, params[f"{name}.norm1"]),
                            positions, heads, mask, cache))
    inner = linear(params, f"{name}.down",
                   nm.silu(linear(params, f"{name}.up",
                                  nm.rms_norm(h, params[f"{name}.norm2"]))))
    return nm.add(h, inner)


def trunk(params: dict, prefix: str, x: Tensor, positions: np.ndarray,
          heads: int, n_blocks: int, mask: np.ndarray | None,
          cache: list[BlockCache] | None = None) -> Tensor:
    for i in range(n_blocks):
        x = block(params, f"{prefix}.blk{i}", x, positions, heads, mask,
                  None if cache is None else cache[i])
    return nm.rms_norm(x, params[f"{prefix}.final_norm"])


def init_trunk(params: dict, rng: np.random.Generator, prefix: str,
               dim: int, intermediate: int, n_blocks: int) -> None:
    for i in range(n_blocks):
        init_block(params, rng, f"{prefix}.blk{i}", dim, intermediate)
    params[f"{prefix}.final_norm"] = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)


def param_bytes(params: dict) -> bytes:
    """Canonical byte serialization, used for frozen-bits comparisons."""
    chunks = []
    for name in sorted(params):
        chunks.append(name.encode())
        chunks.append(np.ascontiguousarray(params[name].data, dtype="<f4").tobytes())
    return b"".join(chunks)
