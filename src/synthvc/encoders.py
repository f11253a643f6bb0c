"""Pretrain-then-freeze feature extractors and the trainable adapters.

The semantic encoder downsamples frames x2 and is pretrained with
per-downsampled-frame symbol classification; the speaker encoder mean-pools
to one vector per utterance and is pretrained with speaker classification.
Both are frozen afterwards; only the adapters stay trainable downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import numerics as nm
from . import synthworld as sw
from .numerics import Tensor
from .optim import fit_classifier, freeze

N_FRAME_CLASSES = sw.N_SYMBOLS + 1   # content symbols + silence


@dataclass(frozen=True)
class EncoderDims:
    feature: int = sw.F_DIM
    d_sem: int = 48
    d_spk: int = 32
    sem_heads: int = 4
    sem_blocks: int = 2
    sem_intermediate: int = 96
    spk_hidden: int = 48


def bucket_by_length(utterances) -> dict[int, list]:
    buckets: dict[int, list] = {}
    for u in utterances:
        buckets.setdefault(len(u.text), []).append(u)
    return buckets


def sample_bucket(buckets: dict[int, list], rng: np.random.Generator, batch: int) -> list:
    """Up to `batch` distinct items of one bucket, the bucket drawn in
    proportion to its size."""
    lengths = sorted(buckets)
    sizes = np.array([len(buckets[k]) for k in lengths], dtype=np.float64)
    key = lengths[int(rng.choice(len(lengths), p=sizes / sizes.sum()))]
    pool = buckets[key]
    idx = rng.choice(len(pool), size=min(batch, len(pool)), replace=False)
    return [pool[i] for i in idx]


def speaker_batches(splits: sw.CorpusSplits, rng: np.random.Generator, batch: int):
    """Endless (frames, train-speaker index) batches: one text length per
    batch, a fresh pristine render per item."""
    spk_index = {sid: i for i, sid in enumerate(splits.train_speaker_ids)}
    text_buckets: dict[int, list] = {}
    for txt in splits.train_texts:
        text_buckets.setdefault(len(txt), []).append(txt)
    lengths = sorted(text_buckets)
    while True:
        sids = rng.choice(splits.train_speaker_ids, size=batch)
        pool = text_buckets[lengths[int(rng.integers(len(lengths)))]]
        xs, ys = [], []
        for sid in sids:
            text = pool[int(rng.integers(len(pool)))]
            r = sw.render(splits.vocab, text, splits.speakers[int(sid)], sw.PRISTINE,
                          int(rng.integers(2**31)))
            xs.append(r.frames)
            ys.append(spk_index[int(sid)])
        yield np.stack(xs), np.asarray(ys)


def downsampled_labels(transcript) -> np.ndarray:
    """Label of the center frame of each stride-2 window."""
    full = sw.frame_labels(transcript)
    t_half = (len(full) + 1) // 2
    return full[np.arange(t_half) * 2]


# ---------------------------------------------------------------------------
# semantic encoder


@dataclass
class SemanticEncoder:
    dims: EncoderDims
    params: dict[str, Tensor]
    frozen: bool = False
    heldout_frame_accuracy: float | None = None
    _cache: dict[str, np.ndarray] = field(default_factory=dict)

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, T, F) -> (B, ceil(T/2), d_sem); also accepts (T, F)."""
        squeeze = x.ndim == 2
        if squeeze:
            x = nm.reshape(x, (1,) + x.shape)
        h = nm.unfold_time(x, kernel=3, stride=2, pad=1)
        h = nm.silu(nn.linear(self.params, "sem.in", h))
        t_half = h.shape[1]
        h = nn.trunk(self.params, "sem", h, np.arange(t_half), self.dims.sem_heads,
                     self.dims.sem_blocks, mask=None)
        return nm.reshape(h, h.shape[1:]) if squeeze else h

    def features(self, frames: np.ndarray, key: str | None = None) -> np.ndarray:
        """Frozen forward with optional caching: (T, F) frames give
        (ceil(T/2), d_sem), a (B, T, F) stack gives (B, ceil(T/2), d_sem)."""
        if key is not None and key in self._cache:
            return self._cache[key]
        out = self.forward_t(nm.constant(frames)).data
        if key is not None:
            self._cache[key] = out
        return out


def init_semantic_encoder(dims: EncoderDims, seed: int) -> SemanticEncoder:
    rng = np.random.default_rng([0xE0C1, seed])
    params: dict[str, Tensor] = {}
    nn.init_linear(params, rng, "sem.in", 3 * dims.feature, dims.d_sem)
    nn.init_trunk(params, rng, "sem", dims.d_sem, dims.sem_intermediate, dims.sem_blocks)
    return SemanticEncoder(dims=dims, params=params)


def pretrain_semantic_encoder(splits: sw.CorpusSplits, steps: int = 1200, batch: int = 12,
                              lr: float = 1e-3, seed: int = 0,
                              dims: EncoderDims = EncoderDims()) -> SemanticEncoder:
    """Frame-label classification pretraining; returns a frozen encoder."""
    enc = init_semantic_encoder(dims, seed)
    rng = np.random.default_rng([0xE0C2, seed])
    head_rng = np.random.default_rng([0xE0C3, seed])
    nn.init_linear(enc.params, head_rng, "sem.headtmp", dims.d_sem, N_FRAME_CLASSES)
    buckets = bucket_by_length(splits.utterances)
    cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def batches():
        while True:
            items = sample_bucket(buckets, rng, batch)
            for u in items:
                if u.utt_id not in cache:
                    cache[u.utt_id] = (splits.render_utterance(u).frames,
                                       downsampled_labels(u.text))
            yield (np.stack([cache[u.utt_id][0] for u in items]),
                   np.concatenate([cache[u.utt_id][1] for u in items]))

    fit_classifier(enc.params, lambda x: nn.linear(enc.params, "sem.headtmp", enc.forward_t(x)),
                   batches(), steps, lr, "semantic pretraining")
    acc = _semantic_heldout_accuracy(enc, splits)
    freeze(enc.params, drop_prefix="sem.headtmp")
    enc.frozen = True
    enc.heldout_frame_accuracy = acc
    return enc


def _semantic_heldout_accuracy(enc: SemanticEncoder, splits: sw.CorpusSplits,
                               n_eval: int = 24) -> float:
    rng = np.random.default_rng([0xE0C4, splits.seed])
    hit = tot = 0
    for i in range(n_eval):
        text = splits.heldout_texts[i % len(splits.heldout_texts)]
        sid = splits.heldout_speaker_ids[i % len(splits.heldout_speaker_ids)]
        r = sw.render(splits.vocab, text, splits.speakers[sid], sw.PRISTINE,
                      int(rng.integers(2**31)))
        h = enc.forward_t(nm.constant(r.frames[None]))
        logits = nn.linear(enc.params, "sem.headtmp", h)
        pred = logits.data[0].argmax(axis=-1)
        ref = downsampled_labels(text)
        hit += int((pred == ref).sum())
        tot += len(ref)
    return hit / tot


# ---------------------------------------------------------------------------
# speaker encoder


@dataclass
class SpeakerEncoder:
    dims: EncoderDims
    params: dict[str, Tensor]
    frozen: bool = False
    heldout_utterance_accuracy: float | None = None
    _cache: dict[str, np.ndarray] = field(default_factory=dict)

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, T, F) -> (B, 1, d_spk); length-independent output."""
        squeeze = x.ndim == 2
        if squeeze:
            x = nm.reshape(x, (1,) + x.shape)
        h = nm.unfold_time(x, kernel=3, stride=2, pad=1)
        h = nm.silu(nn.linear(self.params, "spk.c1", h))
        h = nm.unfold_time(h, kernel=3, stride=2, pad=1)
        h = nm.silu(nn.linear(self.params, "spk.c2", h))
        h = nm.mean_axis(h, axis=1, keepdims=True)
        h = nn.linear(self.params, "spk.proj", h)
        return nm.reshape(h, h.shape[1:]) if squeeze else h

    def embed(self, frames: np.ndarray, key: str | None = None) -> np.ndarray:
        if key is not None and key in self._cache:
            return self._cache[key]
        out = self.forward_t(nm.constant(frames)).data
        if key is not None:
            self._cache[key] = out
        return out


def init_speaker_encoder(dims: EncoderDims, seed: int) -> SpeakerEncoder:
    rng = np.random.default_rng([0xE0C5, seed])
    params: dict[str, Tensor] = {}
    nn.init_linear(params, rng, "spk.c1", 3 * dims.feature, dims.spk_hidden)
    nn.init_linear(params, rng, "spk.c2", 3 * dims.spk_hidden, dims.spk_hidden)
    nn.init_linear(params, rng, "spk.proj", dims.spk_hidden, dims.d_spk)
    return SpeakerEncoder(dims=dims, params=params)


def pretrain_speaker_encoder(splits: sw.CorpusSplits, steps: int = 800, batch: int = 16,
                             lr: float = 1e-3, seed: int = 0,
                             dims: EncoderDims = EncoderDims()) -> SpeakerEncoder:
    """Speaker-classification pretraining over train speakers; frozen on return."""
    enc = init_speaker_encoder(dims, seed)
    rng = np.random.default_rng([0xE0C6, seed])
    head_rng = np.random.default_rng([0xE0C7, seed])
    nn.init_linear(enc.params, head_rng, "spk.headtmp", dims.d_spk,
                   len(splits.train_speaker_ids))
    fit_classifier(enc.params, lambda x: nn.linear(enc.params, "spk.headtmp", enc.forward_t(x)),
                   speaker_batches(splits, rng, batch), steps, lr, "speaker pretraining")
    acc = _speaker_heldout_accuracy(enc, splits)
    freeze(enc.params, drop_prefix="spk.headtmp")
    enc.frozen = True
    enc.heldout_utterance_accuracy = acc
    return enc


def _speaker_heldout_accuracy(enc: SpeakerEncoder, splits: sw.CorpusSplits,
                              n_eval: int = 60) -> float:
    rng = np.random.default_rng([0xE0C8, splits.seed])
    n_spk = len(splits.train_speaker_ids)
    hit = 0
    for i in range(n_eval):
        sid = splits.train_speaker_ids[i % n_spk]
        text = splits.heldout_texts[int(rng.integers(len(splits.heldout_texts)))]
        r = sw.render(splits.vocab, text, splits.speakers[sid], sw.PRISTINE,
                      int(rng.integers(2**31)))
        h = enc.forward_t(nm.constant(r.frames[None]))
        logits = nn.linear(enc.params, "spk.headtmp", h)
        hit += int(logits.data[0, 0].argmax() == i % n_spk)
    return hit / n_eval


# ---------------------------------------------------------------------------
# adapters: affine + SiLU + affine into LM space


def init_adapter(params: dict, seed: int, prefix: str, d_in: int, d_out: int,
                 hidden: int = 64) -> None:
    rng = np.random.default_rng([0xADA0, seed, len(prefix)])
    nn.init_linear(params, rng, f"{prefix}.a1", d_in, hidden)
    nn.init_linear(params, rng, f"{prefix}.a2", hidden, d_out)


def apply_adapter(params: dict, prefix: str, x: Tensor) -> Tensor:
    return nn.linear(params, f"{prefix}.a2", nm.silu(nn.linear(params, f"{prefix}.a1", x)))
