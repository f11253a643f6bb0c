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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ck
from .errors import ArtifactFormatError, DataError, StateError


@dataclass(frozen=True)
class Codebook:
    layer: int
    centroids: np.ndarray    # (K, F) float32; row 0 is exactly zero; read-only

    def __post_init__(self):
        if not np.isfinite(self.centroids).all():
            raise DataError(f"codebook layer {self.layer}: non-finite centroids")
        if np.any(self.centroids[0] != 0.0):
            raise DataError(f"codebook layer {self.layer}: row 0 must be the zero vector")
        self.centroids.flags.writeable = False


@dataclass
class RVQCodec:
    codebooks: list[Codebook]
    fit_snr_db: float
    layer_distortions: list[float] = field(default_factory=list)

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


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator,
                    twice: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """k-means++ seeds; d2 holds each row's exact squared distance to its
    nearest seed. A row whose distance to a new seed has a lower bound at or
    above its d2 keeps d2; only the rest get the exact distance."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = data[first]
    d2 = np.sum((data - centroids[0]) ** 2, axis=1)
    floor = norms * (1.0 - _SLACK)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = data[int(rng.integers(0, n))]
        else:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
            centroids[i] = data[idx]
        c = centroids[i]
        lower = twice @ c
        np.subtract(floor, lower, out=lower)
        lower += float(c @ c) * (1.0 - _SLACK) - _TINY
        near = np.flatnonzero(lower < d2)
        d2[near] = np.minimum(d2[near], np.sum((data[near] - c) ** 2, axis=1))
    return centroids


def _assign(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row by exact distance, the lower index on ties.

    Every expansion-form distance in row i is within e_i = _SLACK * (||x_i||^2
    + max ||c||^2) + _TINY of the exact one, so a pair more than 2 e_i above
    the row's least expansion-form distance can neither hold the minimum nor
    tie it. Only the other pairs get the exact distance."""
    norms = np.sum(data ** 2, axis=1)
    cnorms = np.sum(centroids ** 2, axis=1)
    approx = 2.0 * data @ centroids.T
    np.subtract(norms[:, None], approx, out=approx)
    approx += cnorms
    reach = np.take_along_axis(approx, approx.argmin(axis=1)[:, None], axis=1)
    reach += 2.0 * (_SLACK * (norms[:, None] + cnorms.max()) + _TINY)
    near = np.flatnonzero(approx <= reach)
    rows, cols = np.divmod(near, centroids.shape[0])
    d2 = np.full(approx.size, np.inf)
    d2[near] = np.sum((data[rows] - centroids[cols]) ** 2, axis=1)
    return d2.reshape(approx.shape).argmin(axis=1)


def _assign_fit(twice: np.ndarray, norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Expansion-form nearest centroid from 2 * data and its row norms;
    deterministic in float64."""
    d2 = twice @ centroids.T
    np.subtract(norms[:, None], d2, out=d2)
    d2 += np.sum(centroids ** 2, axis=1)
    return d2.argmin(axis=1)


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
        grouped = data[np.argsort(labels, kind="stable")]   # each cluster's rows in row order
        if not counts[1:].all():   # re-seed from the rows this pass's centroids fit worst
            reseed = iter(np.argsort(-np.sum((data - centroids[labels]) ** 2, axis=1)))
        for c in range(1, k):
            if counts[c]:
                centroids[c] = grouped[ends[c] - counts[c]:ends[c]].mean(axis=0)
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
    for utt in splits.utterances:
        chunks.append(splits.render_utterance(utt))
        for _ in range(parallel_per_utt):
            sid = int(train_ids[rng.integers(len(train_ids))])
            chunks.append(splits.render_text(utt.text, sid, sw.PRISTINE, rng))
        for _ in range(degraded_per_utt):
            sid = int(train_ids[rng.integers(len(train_ids))])
            chunks.append(splits.render_text(utt.text, sid, sw.DEGRADED, rng))
    return np.concatenate(chunks, axis=0)


def fit_codebooks(frames: np.ndarray, n: int, k: int, iters: int, seed: int) -> RVQCodec:
    """Fit n residual codebooks on a frame corpus; bit-reproducible per seed."""
    residual = np.asarray(frames, dtype=np.float64)   # rebound per layer, never written in place
    if residual.ndim != 2:
        raise DataError(f"fit_codebooks: frames must be (N, F), got {residual.shape}")
    if residual.shape[0] < k:
        raise DataError(f"fit_codebooks: corpus has {residual.shape[0]} frames, need at least {k}")
    rng = np.random.default_rng([0xCB00, seed])
    signal = float(np.sum(residual ** 2))
    books: list[Codebook] = []
    distortions: list[float] = []
    for layer in range(n):
        twice, norms = 2.0 * residual, np.sum(residual ** 2, axis=1)
        cents64 = _lloyd(residual, twice, norms, k, iters, rng)
        cents = cents64.astype(np.float32)
        cents[0] = 0.0
        books.append(Codebook(layer=layer, centroids=cents))
        labels = _assign_fit(twice, norms, cents.astype(np.float64))
        residual = residual - cents.astype(np.float64)[labels]
        distortions.append(float(np.mean(np.sum(residual ** 2, axis=1))))
    err = float(np.sum(residual ** 2))
    snr = 10.0 * np.log10(signal / err) if err > 0 else np.inf
    return RVQCodec(codebooks=books, fit_snr_db=float(snr), layer_distortions=distortions)


def encode(frames: np.ndarray, codec: RVQCodec) -> np.ndarray:
    """(n_layers, T) int64 codes: greedy nearest centroid per layer on the
    running residual."""
    if not codec.codebooks:
        raise StateError("encode: codec has no fitted codebooks")
    data = np.asarray(frames, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != codec.feature_dim:
        raise DataError(f"encode: frames shape {data.shape} does not match feature dim {codec.feature_dim}")
    residual = data.copy()
    rows = []
    for book in codec.codebooks:
        cents = book.centroids.astype(np.float64)
        labels = _assign(residual, cents)
        residual -= cents[labels]
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
        out += book.centroids.astype(np.float64)[codes[layer]]
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
