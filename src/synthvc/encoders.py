"""Pretrain-then-freeze feature extractors and the trainable adapters.

The semantic encoder downsamples frames x2 and is pretrained with
per-downsampled-frame symbol classification; the speaker encoder mean-pools
to one vector per utterance and is pretrained with speaker classification.
Both are frozen afterwards; only the adapters stay trainable downstream.
Each encoder's output width is read off its own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import numerics as nm
from . import synthworld as sw
from .numerics import Tensor
from .optim import check_fit, fit_classifier, freeze

SEM_HEADS = 4
SEM_BLOCKS = 2
SEM_INTERMEDIATE = 96
SPK_HIDDEN = 48
ADAPTER_HIDDEN = 64


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
        sids = [int(s) for s in rng.choice(splits.train_speaker_ids, size=batch)]
        pool = text_buckets[lengths[int(rng.integers(len(lengths)))]]
        texts, seeds = [], []
        for _ in sids:   # each item's text draw, then its render seed
            texts.append(pool[int(rng.integers(len(pool)))])
            seeds.append(sw.draw_seed(rng))
        yield (splits.render_batch(texts, sids, [sw.PRISTINE] * batch, seeds),
               np.asarray([spk_index[s] for s in sids]))


def downsampled_labels(transcript) -> np.ndarray:
    """Label of the center frame of each stride-2 window."""
    full = sw.frame_labels(transcript)
    t_half = (len(full) + 1) // 2
    return full[np.arange(t_half) * 2]


# ---------------------------------------------------------------------------
# semantic encoder


@dataclass
class SemanticEncoder:
    params: dict[str, Tensor]
    heldout_frame_accuracy: float | None = None

    @property
    def width(self) -> int:   # d_sem
        return self.params["sem.in.w"].shape[1]

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, T, F) -> (B, ceil(T/2), d_sem)."""
        h = nm.unfold_time(x, kernel=3, stride=2, pad=1)
        h = nm.silu(nn.linear(self.params, "sem.in", h))
        t_half = h.shape[1]
        return nn.trunk(self.params, "sem", h, np.arange(t_half), SEM_HEADS, SEM_BLOCKS,
                        mask=None)

    def features(self, frames: np.ndarray) -> np.ndarray:
        """Frozen forward: (B, T, F) frames give (B, ceil(T/2), d_sem)."""
        return self.forward_t(nm.constant(frames)).data


def init_semantic_encoder(width: int, seed: int) -> SemanticEncoder:
    """A fresh encoder of a width that splits into SEM_HEADS even heads."""
    nn.check_heads("enc.sem_dim", width, SEM_HEADS)
    rng = np.random.default_rng([0xE0C1, seed])
    params: dict[str, Tensor] = {}
    nn.init_linear(params, rng, "sem.in", 3 * sw.F_DIM, width)
    nn.init_trunk(params, rng, "sem", width, SEM_INTERMEDIATE, SEM_BLOCKS)
    return SemanticEncoder(params=params)


def pretrain_semantic_encoder(splits: sw.CorpusSplits, steps: int, batch: int, lr: float,
                              seed: int, width: int) -> SemanticEncoder:
    """Frame-label classification pretraining; returns a frozen encoder."""
    check_fit("semantic pretraining", steps, lr, batch)
    enc = init_semantic_encoder(width, seed)
    rng = np.random.default_rng([0xE0C2, seed])
    head_rng = np.random.default_rng([0xE0C3, seed])
    nn.init_linear(enc.params, head_rng, "sem.headtmp", width, sw.N_FRAME_LABELS)
    buckets = bucket_by_length(splits.utterances)
    cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def batches():
        while True:
            items = sample_bucket(buckets, rng, batch)
            new = [u for u in items if u.utt_id not in cache]
            if new:   # the items share a text length, so one render covers them
                frames = splits.render_batch([u.text for u in new], [u.speaker_id for u in new],
                                             [u.channel for u in new], [u.seed for u in new])
                for u, f in zip(new, frames):
                    cache[u.utt_id] = (f, downsampled_labels(u.text))
            yield (np.stack([cache[u.utt_id][0] for u in items]),
                   np.concatenate([cache[u.utt_id][1] for u in items]))

    fit_classifier(enc.params, lambda x: nn.linear(enc.params, "sem.headtmp", enc.forward_t(x)),
                   batches(), steps, lr, "semantic pretraining")
    acc = _semantic_heldout_accuracy(enc, splits)
    freeze(enc.params, drop_prefix="sem.headtmp")
    enc.heldout_frame_accuracy = acc
    return enc


def _semantic_heldout_accuracy(enc: SemanticEncoder, splits: sw.CorpusSplits) -> float:
    rng = np.random.default_rng([0xE0C4, splits.seed])
    hit = tot = 0
    for i in range(24):
        text = splits.heldout_texts[i % len(splits.heldout_texts)]
        sid = splits.heldout_speaker_ids[i % len(splits.heldout_speaker_ids)]
        frames = splits.render_text(text, sid, sw.PRISTINE, rng)
        h = enc.forward_t(nm.constant(frames[None]))
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
    params: dict[str, Tensor]
    heldout_utterance_accuracy: float | None = None

    @property
    def width(self) -> int:   # d_spk
        return self.params["spk.proj.w"].shape[1]

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, T, F) -> (B, 1, d_spk); length-independent output."""
        h = nm.unfold_time(x, kernel=3, stride=2, pad=1)
        h = nm.silu(nn.linear(self.params, "spk.c1", h))
        h = nm.unfold_time(h, kernel=3, stride=2, pad=1)
        h = nm.silu(nn.linear(self.params, "spk.c2", h))
        h = nm.mean_axis(h, axis=1)
        return nn.linear(self.params, "spk.proj", h)

    def embed(self, frames: np.ndarray) -> np.ndarray:
        """Frozen forward of one utterance: (T, F) frames give (1, d_spk)."""
        return self.forward_t(nm.constant(frames[None])).data[0]


def init_speaker_encoder(width: int, seed: int) -> SpeakerEncoder:
    rng = np.random.default_rng([0xE0C5, seed])
    params: dict[str, Tensor] = {}
    nn.init_linear(params, rng, "spk.c1", 3 * sw.F_DIM, SPK_HIDDEN)
    nn.init_linear(params, rng, "spk.c2", 3 * SPK_HIDDEN, SPK_HIDDEN)
    nn.init_linear(params, rng, "spk.proj", SPK_HIDDEN, width)
    return SpeakerEncoder(params=params)


def pretrain_speaker_encoder(splits: sw.CorpusSplits, steps: int, batch: int, lr: float,
                             seed: int, width: int) -> SpeakerEncoder:
    """Speaker-classification pretraining over train speakers; frozen on
    return."""
    check_fit("speaker pretraining", steps, lr, batch)
    enc = init_speaker_encoder(width, seed)
    rng = np.random.default_rng([0xE0C6, seed])
    head_rng = np.random.default_rng([0xE0C7, seed])
    nn.init_linear(enc.params, head_rng, "spk.headtmp", width, len(splits.train_speaker_ids))
    fit_classifier(enc.params, lambda x: nn.linear(enc.params, "spk.headtmp", enc.forward_t(x)),
                   speaker_batches(splits, rng, batch), steps, lr, "speaker pretraining")
    acc = _speaker_heldout_accuracy(enc, splits)
    freeze(enc.params, drop_prefix="spk.headtmp")
    enc.heldout_utterance_accuracy = acc
    return enc


def _speaker_heldout_accuracy(enc: SpeakerEncoder, splits: sw.CorpusSplits) -> float:
    rng = np.random.default_rng([0xE0C8, splits.seed])
    n_spk = len(splits.train_speaker_ids)
    n_eval = 60
    hit = 0
    for i in range(n_eval):
        sid = splits.train_speaker_ids[i % n_spk]
        text = splits.heldout_texts[int(rng.integers(len(splits.heldout_texts)))]
        frames = splits.render_text(text, sid, sw.PRISTINE, rng)
        h = enc.forward_t(nm.constant(frames[None]))
        logits = nn.linear(enc.params, "spk.headtmp", h)
        hit += int(logits.data[0, 0].argmax() == i % n_spk)
    return hit / n_eval


# ---------------------------------------------------------------------------
# adapters: affine + SiLU + affine into LM space


def init_adapter(params: dict, seed: int, prefix: str, d_in: int, d_out: int) -> None:
    rng = np.random.default_rng([0xADA0, seed, len(prefix)])
    nn.init_linear(params, rng, f"{prefix}.a1", d_in, ADAPTER_HIDDEN)
    nn.init_linear(params, rng, f"{prefix}.a2", ADAPTER_HIDDEN, d_out)


def apply_adapter(params: dict, prefix: str, x: Tensor) -> Tensor:
    return nn.linear(params, f"{prefix}.a2", nm.silu(nn.linear(params, f"{prefix}.a1", x)))
