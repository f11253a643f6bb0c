"""Residual vector quantization codec over frame matrices.

Each layer's codebook is fit by batch Lloyd k-means (k-means++ init) on the
residual left by the previous layers. Centroid index 0 of every layer is
pinned to the exact zero vector and never updated, which makes per-frame
residual-norm monotonicity an exact invariant of encode. Codes are a plain
(n_layers, T) int64 array: `encode` returns one and `decode` checks one.
The codec is fit offline and frozen for all LM training.

Two assignment contracts. In `encode` the exact squared distance
sum((x - c)^2) decides every code, the lower index on ties; the expansion
form only bounds it, to rule out centroids that cannot win. Fitting (k-means
passes and the fit-time residual) assigns by the expansion form itself, by
design: the fit is reproducible bit for bit from its seed, and the codes it
saw may differ from `encode`'s only on near ties.

Memory: the fit holds O(N * F) arrays (the running residual, one scratch
array of its shape for 2 * residual, and a few (N,) vectors) plus one block
of _BLOCK rows by K float64 distances. Distances and per-row temporaries are
formed a block of rows at a time, never as (N, K) or extra (N, F) arrays,
with each row's arithmetic the same as the whole-corpus formula's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ck
from .errors import ArtifactFormatError, DataError, StateError


@dataclass(frozen=True)
class Codebook:
    """One frozen layer. `cents64`, `cnorms` and `cmax` (the centroids in
    float64, their squared row norms and the largest of those) are derived
    once here for `encode` and `decode`."""
    layer: int
    centroids: np.ndarray    # (K, F) float32; row 0 is exactly zero; read-only
    cents64: np.ndarray = field(init=False, repr=False, compare=False)
    cnorms: np.ndarray = field(init=False, repr=False, compare=False)
    cmax: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.centroids).all():
            raise DataError(f"codebook layer {self.layer}: non-finite centroids")
        if np.any(self.centroids[0] != 0.0):
            raise DataError(f"codebook layer {self.layer}: row 0 must be the zero vector")
        self.centroids.flags.writeable = False
        cents64 = self.centroids.astype(np.float64)
        cnorms, cmax = _centroid_norms(cents64)
        for arr in (cents64, cnorms):
            arr.flags.writeable = False
        object.__setattr__(self, "cents64", cents64)
        object.__setattr__(self, "cnorms", cnorms)
        object.__setattr__(self, "cmax", cmax)


@dataclass
class RVQCodec:
    codebooks: list[Codebook]
    fit_snr_db: float

    @property
    def n_layers(self) -> int:
        return len(self.codebooks)

    @property
    def codebook_size(self) -> int:
        return self.codebooks[0].centroids.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.codebooks[0].centroids.shape[1]


# An expansion-form squared distance ||x||^2 - 2 x.c + ||c||^2 differs from
# the exact sum((x - c)^2) by rounding alone: a few F * eps times
# ||x||^2 + ||c||^2, ~1e-14 of it at F = 16. _SLACK bounds that with a wide
# margin, and _TINY covers rounding among subnormals.
_SLACK = 1e-9
_TINY = np.finfo(np.float64).tiny

# Rows per block: 1 MB of float64 distances at K = 64.
_BLOCK = 2048


def _blocks(n: int) -> list[slice]:
    """Row slices of _BLOCK rows covering range(n), the last one taking the
    remainder. A single leftover row joins the block before it: numpy sends
    a one-row matmul to BLAS gemv, whose sums run in another order than
    gemm's."""
    stops = list(range(_BLOCK, n - 1, _BLOCK)) + [n]
    return [slice(a, b) for a, b in zip([0] + stops[:-1], stops)]


def _draw_index(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """An index drawn with probability weights / total, total > 0: the
    cumulative sum, normalization and right-sided search that
    `rng.choice(len(weights), p=weights / total)` makes, without its checks,
    so the index and the rng state after the draw are that call's."""
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator,
                    twice: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """k-means++ seeds (Arthur & Vassilvitskii, SODA 2007); d2 holds each
    row's exact squared distance to its nearest seed. A row whose distance to
    a new seed has a lower bound at or above its d2 keeps d2; only the rest
    get the exact distance. Each later seed is row `_draw_index(d2, sum(d2),
    rng)`."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = data[first]
    d2 = np.empty(n)
    for b in _blocks(n):
        d2[b] = np.sum((data[b] - centroids[0]) ** 2, axis=1)
    floor = norms * (1.0 - _SLACK)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = data[int(rng.integers(0, n))]
        else:
            centroids[i] = data[_draw_index(d2, total, rng)]
        c = centroids[i]
        lower = twice @ c
        np.subtract(floor, lower, out=lower)
        lower += float(c @ c) * (1.0 - _SLACK) - _TINY
        near = np.flatnonzero(lower < d2)
        for b in _blocks(len(near)):
            rows = near[b]
            d2[rows] = np.minimum(d2[rows], np.sum((data[rows] - c) ** 2, axis=1))
    return centroids


def _centroid_norms(centroids: np.ndarray) -> tuple[np.ndarray, float]:
    """Float64 centroids' squared row norms, and the largest of them."""
    cnorms = np.sum(centroids ** 2, axis=1)
    return cnorms, cnorms.max()


def _assign(data: np.ndarray, centroids: np.ndarray, cnorms: np.ndarray,
            cmax: float) -> np.ndarray:
    """Nearest float64 centroid per row by exact distance, the lower index on
    ties; `cnorms` and `cmax` are `_centroid_norms(centroids)`.

    Every expansion-form distance in row i is within e_i = _SLACK * (||x_i||^2
    + max ||c||^2) + _TINY of the exact one, so a pair more than 2 e_i above
    the row's least expansion-form distance can neither hold the minimum nor
    tie it. Only the other pairs get the exact distance."""
    labels = np.empty(data.shape[0], dtype=np.intp)
    for b in _blocks(data.shape[0]):
        x = data[b]
        norms = np.sum(x ** 2, axis=1)
        approx = 2.0 * x @ centroids.T
        np.subtract(norms[:, None], approx, out=approx)
        approx += cnorms
        reach = np.take_along_axis(approx, approx.argmin(axis=1)[:, None], axis=1)
        reach += 2.0 * (_SLACK * (norms[:, None] + cmax) + _TINY)
        near = np.flatnonzero(approx <= reach)
        rows, cols = np.divmod(near, centroids.shape[0])
        d2 = np.full(approx.size, np.inf)
        d2[near] = np.sum((x[rows] - centroids[cols]) ** 2, axis=1)
        labels[b] = d2.reshape(approx.shape).argmin(axis=1)
    return labels


def _assign_fit(twice: np.ndarray, norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Expansion-form nearest centroid from 2 * data and its row norms;
    deterministic in float64."""
    cnorms = np.sum(centroids ** 2, axis=1)
    labels = np.empty(twice.shape[0], dtype=np.intp)
    for b in _blocks(twice.shape[0]):
        d2 = twice[b] @ centroids.T
        np.subtract(norms[b, None], d2, out=d2)
        d2 += cnorms
        labels[b] = d2.argmin(axis=1)
    return labels


def _lloyd(data: np.ndarray, twice: np.ndarray, norms: np.ndarray, k: int, iters: int,
           rng: np.random.Generator) -> np.ndarray:
    """k centroids with row 0 pinned to zero; k-1 learnable rows. An empty
    cluster takes the next highest-distortion row of its pass."""
    learn = _kmeans_pp_init(data, k - 1, rng, twice, norms)
    centroids = np.vstack([np.zeros((1, data.shape[1])), learn])
    for _ in range(iters):
        labels = _assign_fit(twice, norms, centroids)
        counts = np.bincount(labels, minlength=k)
        ends = np.cumsum(counts)
        order = np.argsort(labels, kind="stable")   # each cluster's rows in row order
        if not counts[1:].all():   # re-seed from the rows this pass's centroids fit worst
            distortion = np.empty(data.shape[0])
            for b in _blocks(data.shape[0]):
                distortion[b] = np.sum((data[b] - centroids[labels[b]]) ** 2, axis=1)
            reseed = iter(np.argsort(-distortion))
        for c in range(1, k):
            if counts[c]:
                centroids[c] = data[order[ends[c] - counts[c]:ends[c]]].mean(axis=0)
            else:
                centroids[c] = data[next(reseed)]
    return centroids


def build_fit_corpus(splits, parallel_per_utt: int, degraded_per_utt: int,
                     seed: int) -> np.ndarray:
    """Stack the frames the codec will quantize during training.

    Training targets are parallel renders of each utterance under other train
    speakers, in both channels, so the fitting corpus includes those too.
    """
    from . import synthworld as sw

    rng = np.random.default_rng([0xCB0F, seed])
    chunks = []
    train_ids = np.asarray(splits.train_speaker_ids)
    channels = ([sw.PRISTINE] * parallel_per_utt) + ([sw.DEGRADED] * degraded_per_utt)
    for utt in splits.utterances:
        # one render per utterance: its own, then its parallel and degraded
        # re-renders, each drawing a speaker and then a render seed
        sids, seeds = [utt.speaker_id], [utt.seed]
        for _ in channels:
            sids.append(int(train_ids[rng.integers(len(train_ids))]))
            seeds.append(sw.draw_seed(rng))
        frames = splits.render_batch([utt.text] * len(sids), sids, [utt.channel, *channels],
                                     seeds)
        chunks.append(frames.reshape(-1, frames.shape[-1]))
    return np.concatenate(chunks, axis=0)


def fit_codebooks(frames: np.ndarray, n: int, k: int, iters: int, seed: int) -> RVQCodec:
    """Fit n residual codebooks on a frame corpus; bit-reproducible per seed."""
    residual = np.array(frames, dtype=np.float64)   # a copy, updated in place per layer
    if residual.ndim != 2:
        raise DataError(f"fit_codebooks: frames must be (N, F), got {residual.shape}")
    if residual.shape[0] < k:
        raise DataError(f"fit_codebooks: corpus has {residual.shape[0]} frames, need at least {k}")
    rng = np.random.default_rng([0xCB00, seed])
    scratch = np.empty_like(residual)   # squares for the SNR sums, 2 * residual per layer
    signal = float(np.sum(np.square(residual, out=scratch)))
    norms = np.empty(residual.shape[0])
    for b in _blocks(residual.shape[0]):
        norms[b] = np.sum(residual[b] ** 2, axis=1)
    books: list[Codebook] = []
    for layer in range(n):
        twice = np.multiply(residual, 2.0, out=scratch)
        cents = _lloyd(residual, twice, norms, k, iters, rng).astype(np.float32)
        cents[0] = 0.0
        books.append(Codebook(layer=layer, centroids=cents))
        cents64 = cents.astype(np.float64)
        labels = _assign_fit(twice, norms, cents64)
        for b in _blocks(residual.shape[0]):   # the next residual and its row norms
            residual[b] -= cents64[labels[b]]
            norms[b] = np.sum(residual[b] ** 2, axis=1)
    err = float(np.sum(np.square(residual, out=scratch)))
    snr = 10.0 * np.log10(signal / err) if err > 0 else np.inf
    return RVQCodec(codebooks=books, fit_snr_db=float(snr))


def encode(frames: np.ndarray, codec: RVQCodec) -> np.ndarray:
    """(n_layers, T) int64 codes: greedy nearest centroid per layer on the
    running residual."""
    if not codec.codebooks:
        raise StateError("encode: codec has no fitted codebooks")
    residual = np.array(frames, dtype=np.float64)   # a copy, updated in place per layer
    if residual.ndim != 2 or residual.shape[1] != codec.feature_dim:
        raise DataError(f"encode: frames shape {residual.shape} does not match feature dim "
                        f"{codec.feature_dim}")
    rows = []
    for book in codec.codebooks:
        labels = _assign(residual, book.cents64, book.cnorms, book.cmax)
        for b in _blocks(residual.shape[0]):
            residual[b] -= book.cents64[labels[b]]
        rows.append(labels)
    return np.stack(rows).astype(np.int64)


def decode(codes, codec: RVQCodec) -> np.ndarray:
    """(T, F) frames: the sum of the selected centroids across layers of
    (n_layers, T) codes."""
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] != codec.n_layers:
        raise DataError(f"decode: codes shape {codes.shape} is not "
                        f"({codec.n_layers} layers, T)")
    k = codec.codebook_size
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise IndexError(f"decode: code out of range [0, {k})")
    out = np.zeros((codes.shape[1], codec.feature_dim), dtype=np.float64)
    for layer, book in enumerate(codec.codebooks):
        out += book.cents64[codes[layer]]
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# artifact file: a checkpoint container (checkpoint.py) with one frozen
# component "codec" holding "layer0".."layer{n-1}" (K, F) centroids and the
# rank-0 fit-time SNR "fit_snr_db"


def save_codec(path: Path, codec: RVQCodec) -> None:
    tensors = {f"layer{book.layer}": book.centroids for book in codec.codebooks}
    tensors["fit_snr_db"] = np.float32(codec.fit_snr_db)
    ck.save_checkpoint(path, {"codec": (True, tensors)})


def load_codec(path: Path) -> RVQCodec:
    comps = ck.load_checkpoint(path)
    tensors = dict(comps["codec"][1]) if list(comps) == ["codec"] else {}
    snr = tensors.pop("fit_snr_db", None)
    cents = [tensors.get(f"layer{i}") for i in range(len(tensors))]
    if (snr is None or snr.shape != () or not cents or any(c is None for c in cents)
            or len({c.shape for c in cents}) != 1 or cents[0].ndim != 2):
        raise ArtifactFormatError(f"codec artifact {path}: expected one component 'codec' "
                                  "holding fit_snr_db and equal-shape (K, F) layer0..layer{n-1}")
    return RVQCodec(codebooks=[Codebook(layer=i, centroids=c) for i, c in enumerate(cents)],
                    fit_snr_db=float(snr))
