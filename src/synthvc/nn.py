"""Shared transformer building blocks over the numerics tape.

Everything operates on (B, T, D) tensors; params live in flat string-keyed
dicts so optimizers and checkpoints can treat models uniformly.

A block is two taped ops, each the fused form of a chain of public ops that
`tests/harness.py` keeps as the bitwise reference:
- `attention`, x + o(attend(q(n), k(n), v(n))) with n = rms_norm(x, norm1),
  is one `nm.attention_residual`;
- the MLP half, h + down(silu(up(rms_norm(h, norm2)))), is one
  `nm.mlp_residual`.
Training, the frozen encoders and decoding all run these two ops.

For incremental decoding, `trunk` takes an optional `cache`, one
`nm.BlockCache` per block: each block's attention half then appends its new
keys and values to preallocated buffers and attends over every position
cached so far. With no cache the ops are those of a plain causal pass, as in
training.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import numerics as nm
from .errors import ConfigError
from .numerics import Tensor

NEG_INF = -1e9


def init_linear(params: dict, rng: np.random.Generator, name: str,
                d_in: int, d_out: int) -> None:
    s = 1.0 / np.sqrt(d_in)
    params[f"{name}.w"] = Tensor(rng.normal(0.0, s, size=(d_in, d_out)).astype(np.float32),
                                 requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)


def _affine_pair(params: dict, name: str) -> tuple[Tensor, Tensor]:
    return params[f"{name}.w"], params[f"{name}.b"]


def linear(params: dict, name: str, x: Tensor) -> Tensor:
    """x @ {name}.w + {name}.b over x's last axis, as one taped `nm.affine`."""
    return nm.affine(x, *_affine_pair(params, name))


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


def check_heads(field: str, width: int, heads: int) -> None:
    """ConfigError naming config key `field` unless `width` splits into
    `heads` heads of an even width, as rotary embeddings need."""
    if heads < 1 or width % heads or (width // heads) % 2:
        raise ConfigError(f"{field}: width {width} does not split into {heads} heads "
                          f"of an even width")


@lru_cache(maxsize=64)
def causal_mask(n: int) -> np.ndarray:
    m = np.triu(np.full((n, n), NEG_INF, dtype=np.float32), k=1)
    m.flags.writeable = False
    return m


def attention(params: dict, name: str, x: Tensor, positions: np.ndarray,
              heads: int, mask: np.ndarray | None,
              cache: nm.BlockCache | None = None) -> Tensor:
    """The block's attention half, x plus the self-attention of x's t
    rms-normed positions at `positions`, as one taped
    `nm.attention_residual`. With a cache they attend over the cached
    positions too, so `mask` is (t, cached + t) or None."""
    return nm.attention_residual(
        x, params[f"{name}.norm1"], _affine_pair(params, f"{name}.q"),
        _affine_pair(params, f"{name}.k"), _affine_pair(params, f"{name}.v"),
        _affine_pair(params, f"{name}.o"), positions, heads, mask, cache)


def block(params: dict, name: str, x: Tensor, positions: np.ndarray,
          heads: int, mask: np.ndarray | None, cache: nm.BlockCache | None = None) -> Tensor:
    """A pre-norm transformer block, two taped ops: the attention half, then
    the MLP half h + down(silu(up(rms_norm(h)))) as one `nm.mlp_residual`."""
    h = attention(params, name, x, positions, heads, mask, cache)
    return nm.mlp_residual(h, params[f"{name}.norm2"], _affine_pair(params, f"{name}.up"),
                           _affine_pair(params, f"{name}.down"))


def trunk(params: dict, prefix: str, x: Tensor, positions: np.ndarray,
          heads: int, n_blocks: int, mask: np.ndarray | None,
          cache: list[nm.BlockCache] | None = None) -> Tensor:
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
