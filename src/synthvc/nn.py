"""Shared transformer building blocks over the numerics tape.

Everything operates on (B, T, D) tensors; params live in flat string-keyed
dicts so optimizers and checkpoints can treat models uniformly.

A block is two taped ops, each the fused form of a chain of public ops that
`tests/harness.py` keeps as the bitwise reference:
- `attention`, x + o(attend(q(n), k(n), v(n))) with n = rms_norm(x, norm1),
  is one `nm.attention_residual`;
- the MLP half, h + down(silu(up(rms_norm(h, norm2)))), is one
  `nm.mlp_residual`.
Training and the frozen encoders run these two ops.

Incremental decoding runs the same two kernels on plain arrays, untaped:
`trunk_arrays` gathers a trunk's weight arrays once per decode, and
`decode_trunk` runs them over the new positions, each block's attention
half appending its keys and values to that block's `nm.BlockCache` and
attending over every position cached so far.
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


def affine_arrays(params: dict, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The (weight, bias) arrays of the affine map `name`."""
    return params[f"{name}.w"].data, params[f"{name}.b"].data


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
              heads: int, mask: np.ndarray | None) -> Tensor:
    """The block's attention half, x plus the self-attention of x's t
    rms-normed positions at `positions`, as one taped
    `nm.attention_residual`."""
    return nm.attention_residual(
        x, params[f"{name}.norm1"], _affine_pair(params, f"{name}.q"),
        _affine_pair(params, f"{name}.k"), _affine_pair(params, f"{name}.v"),
        _affine_pair(params, f"{name}.o"), positions, heads, mask)


def block(params: dict, name: str, x: Tensor, positions: np.ndarray,
          heads: int, mask: np.ndarray | None) -> Tensor:
    """A pre-norm transformer block, two taped ops: the attention half, then
    the MLP half h + down(silu(up(rms_norm(h)))) as one `nm.mlp_residual`."""
    h = attention(params, name, x, positions, heads, mask)
    return nm.mlp_residual(h, params[f"{name}.norm2"], _affine_pair(params, f"{name}.up"),
                           _affine_pair(params, f"{name}.down"))


def trunk(params: dict, prefix: str, x: Tensor, positions: np.ndarray,
          heads: int, n_blocks: int, mask: np.ndarray | None) -> Tensor:
    for i in range(n_blocks):
        x = block(params, f"{prefix}.blk{i}", x, positions, heads, mask)
    return nm.rms_norm(x, params[f"{prefix}.final_norm"])


def trunk_arrays(params: dict, prefix: str, n_blocks: int) -> tuple[list[tuple], np.ndarray]:
    """The weight arrays `decode_trunk` runs: per block its 14, as norm1,
    the q, k, v and o (weight, bias) pairs, norm2 and the up and down pairs;
    then the final norm's gain."""
    blocks = []
    for i in range(n_blocks):
        name = f"{prefix}.blk{i}"
        blocks.append((params[f"{name}.norm1"].data,
                       *(affine_arrays(params, f"{name}.{m}") for m in ("q", "k", "v", "o")),
                       params[f"{name}.norm2"].data,
                       affine_arrays(params, f"{name}.up"), affine_arrays(params, f"{name}.down")))
    return blocks, params[f"{prefix}.final_norm"].data


def decode_trunk(arrays: tuple[list[tuple], np.ndarray], x: np.ndarray,
                 positions: np.ndarray, heads: int, mask: np.ndarray | None,
                 caches: list[nm.BlockCache]) -> np.ndarray:
    """`trunk` for a decode, on plain arrays and untaped: `trunk_arrays`'
    weights over x (1, t, D) at t new `positions`, whose RoPE tables are
    looked up once for every block. Each block's attention half appends its
    keys and values to its cache and attends over every cached position, so
    `mask` is (t, cached + t) or None. Every array is checked as `trunk`
    checks it, and the result has its bits."""
    blocks, final_norm = arrays
    cos, sin = nm._rope_tables(positions, x.shape[-1] // heads, x.dtype, 3)
    for (norm1, q, k, v, o, norm2, up, down), cache in zip(blocks, caches):
        x, _ = nm._attention_residual_fwd(x, norm1, q, k, v, o, nm._attend_cached_fwd,
                                          cos, sin, heads, mask, cache)
        x, _ = nm._mlp_residual_fwd(x, norm2, up, down)
    out, _ = nm._rms_norm_fwd(x, final_norm)
    nm._finite_or_raise(out, "rms_norm")
    return out


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
