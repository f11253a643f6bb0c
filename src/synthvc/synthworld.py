"""Deterministic synthetic speech world.

Symbol-sequence "texts" over a vocabulary of N_SYMBOLS = 32 content symbols
are rendered into speaker-conditioned frame matrices. The world has no
special tokens: the LM's text ids (PAD, BOS, EOS) belong to `streamlm`.
`render` takes a batch: B equal-length texts, each with its own speaker,
channel and seed, give read-only (B, T, F_DIM) float32 frames whose item i is
bit for bit the one-item render of item i's inputs, so a caller may batch its
renders however it likes. `CorpusSplits.render_batch` names the speakers by
id; `render_utterance` and `render_text` render one item, the latter with a
fresh seed drawn from a caller's rng by `draw_seed`.
Each content symbol owns a 3-frame template whose frames sum to zero per
feature, so utterance-mean frames isolate the speaker's offset vector; a
per-speaker sinusoid on one reserved channel adds a temporal signature.
All generation is a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import checkpoint as ck
from .errors import ArtifactFormatError, ConfigError, DataError, read_text

F_DIM = 16
CONTENT_DIMS = 15           # features 0..14 carry symbol content
PITCH_CHANNEL = 15          # reserved for the speaker sinusoid
FRAMES_PER_SYMBOL = 3
SILENCE_EDGE = 2            # silence frames at each end
PITCH_AMP = 0.8

N_SYMBOLS = 32
SILENCE_LABEL = N_SYMBOLS   # frame-label id for silence
N_FRAME_LABELS = N_SYMBOLS + 1   # content symbols + silence

PRISTINE = "pristine"
DEGRADED = "degraded"
_CHANNEL_CODE = {PRISTINE: 0, DEGRADED: 1}

# render seeds are one uint32 word of the noise rng's entropy
SEED_BOUND = 2**32

PRISTINE_NOISE = 0.01
DEGRADED_NOISE = 0.05
_BLUR = np.array([0.25, 0.5, 0.25], dtype=np.float32)

_CONSONANTS = "bdfgklmn"
_VOWELS = "aeio"
SYMBOL_NAMES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)


def frames_for_text(n_symbols: int) -> int:
    return FRAMES_PER_SYMBOL * n_symbols + 2 * SILENCE_EDGE


@dataclass(frozen=True)
class SymbolVocab:
    """The N_SYMBOLS = 32 content symbols, their names and their templates,
    fixed by a global seed; the LM's special ids are `streamlm`'s."""

    seed: int
    names: tuple[str, ...]
    templates: np.ndarray        # (32, 3, F_DIM), pitch channel zero

    @classmethod
    def build(cls, seed: int) -> "SymbolVocab":
        rng = np.random.default_rng([0x7E11, seed])
        templates = np.zeros((N_SYMBOLS, FRAMES_PER_SYMBOL, F_DIM), dtype=np.float32)
        for s in range(N_SYMBOLS):
            signs = rng.choice([-1.0, 1.0], size=(2, CONTENT_DIMS))
            mags = rng.uniform(1.0, 2.0, size=(2, CONTENT_DIMS))
            f01 = (signs * mags).astype(np.float32)
            templates[s, 0, :CONTENT_DIMS] = f01[0]
            templates[s, 1, :CONTENT_DIMS] = f01[1]
            templates[s, 2, :CONTENT_DIMS] = -(f01[0] + f01[1])
        flat = templates.reshape(N_SYMBOLS, -1)
        gaps = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=-1)
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() <= 0.0:
            raise DataError("symbol templates are not pairwise distinguishable")
        templates.flags.writeable = False
        return cls(seed=seed, names=SYMBOL_NAMES, templates=templates)

    def id_of(self, name: str) -> int:
        return self.names.index(name)

    def transcript_names(self, text) -> str:
        return " ".join(self.names[s] for s in text)

    def parse_transcript(self, s: str) -> tuple[int, ...]:
        return tuple(self.id_of(tok) for tok in s.split())


@dataclass(frozen=True)
class SpeakerProfile:
    """Generative speaker parameters; a pure function of (corpus seed, id)."""

    id: int
    gain: np.ndarray        # (F_DIM,) in [0.5, 2.0]
    offset: np.ndarray      # (F_DIM,) in [-0.5, 0.5]
    pitch_rate: float       # in [0.05, 0.45]


def speaker_profile(corpus_seed: int, speaker_id: int) -> SpeakerProfile:
    rng = np.random.default_rng([0x5EED, corpus_seed, speaker_id])
    gain = rng.uniform(0.5, 2.0, size=F_DIM).astype(np.float32)
    offset = rng.uniform(-0.5, 0.5, size=F_DIM).astype(np.float32)
    rate = float(rng.uniform(0.05, 0.45))
    gain.flags.writeable = False
    offset.flags.writeable = False
    return SpeakerProfile(id=speaker_id, gain=gain, offset=offset, pitch_rate=rate)


def frame_labels(transcript) -> np.ndarray:
    """Per-frame symbol label, silence at the edges (label 32)."""
    labels = [SILENCE_LABEL] * SILENCE_EDGE
    for s in transcript:
        labels.extend([int(s)] * FRAMES_PER_SYMBOL)
    labels.extend([SILENCE_LABEL] * SILENCE_EDGE)
    return np.asarray(labels, dtype=np.int64)


@lru_cache(maxsize=512)
def _pitch_row(pitch_rate: float, t_total: int) -> np.ndarray:
    """Read-only (t_total,) speaker sinusoid of the pitch channel."""
    tt = np.arange(t_total, dtype=np.float32)
    row = PITCH_AMP * np.sin(2.0 * np.pi * np.float32(pitch_rate) * tt)
    row.flags.writeable = False
    return row


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """The rows stacked on a new first axis; a view when there is one."""
    return rows[0][None] if len(rows) == 1 else np.array(rows)


def render(vocab: SymbolVocab, transcripts, speakers, channels, seeds) -> np.ndarray:
    """Read-only (B, T, F_DIM) float32 frames of B equal-length transcripts,
    item i under speakers[i] in channels[i] with noise seed seeds[i] in
    [0, SEED_BOUND).

    Item i is bit for bit the one-item render of its inputs: the template
    take, gain, offset, pitch row, blur and noise add run once over the
    batch with each element's arithmetic unchanged, and each item draws its
    noise from its own Generator seeded by its own entropy words, so every
    render is a pure function of (inputs, seed).
    """
    b = len(transcripts)
    if not b == len(speakers) == len(channels) == len(seeds):
        raise DataError(f"render: {b} transcripts for {len(speakers)} speakers, "
                        f"{len(channels)} channels and {len(seeds)} seeds")
    if not b:
        raise DataError("render: no items to render")
    length = len(transcripts[0])
    words = []
    for transcript, speaker, channel, seed in zip(transcripts, speakers, channels, seeds):
        text = tuple(map(int, transcript))
        if len(text) != length:
            raise DataError(f"render: one batch holds transcripts of {length} and "
                            f"{len(text)} symbols")
        if text and (min(text) < 0 or max(text) >= N_SYMBOLS):
            raise DataError(f"render: transcript contains non-content symbols: {text}")
        if channel not in _CHANNEL_CODE:
            raise ConfigError(f"render: unknown channel {channel!r}")
        seed = int(seed)
        if not 0 <= seed < SEED_BOUND:
            raise DataError(f"render: seed {seed} is outside [0, {SEED_BOUND})")
        words.append((0xF0A3, seed, speaker.id, _CHANNEL_CODE[channel], length, *text))
    # SeedSequence reads each int below 2**32 as one uint32 word, so row i is
    # the entropy of item i's list of ints, without the per-int conversion
    words = np.array(words, dtype=np.uint32)
    t_total = frames_for_text(length)
    frames = np.zeros((b, t_total, F_DIM), dtype=np.float32)
    interior = frames[:, SILENCE_EDGE:t_total - SILENCE_EDGE]
    vocab.templates.take(words[:, 5:], axis=0,
                         out=interior.reshape(b, length, FRAMES_PER_SYMBOL, F_DIM))
    frames *= _stack([sp.gain for sp in speakers])[:, None]
    frames += _stack([sp.offset for sp in speakers])[:, None]
    frames[:, :, PITCH_CHANNEL] += _stack([_pitch_row(sp.pitch_rate, t_total)
                                           for sp in speakers])

    degraded = [i for i, channel in enumerate(channels) if channel == DEGRADED]
    if degraded:
        whole = len(degraded) == b   # every item blurs: no gather or scatter
        sharp = frames if whole else frames[degraded]
        blurred = np.zeros_like(sharp)
        blurred[:, 1:] += _BLUR[0] * sharp[:, :-1]
        blurred += _BLUR[1] * sharp
        blurred[:, :-1] += _BLUR[2] * sharp[:, 1:]
        if whole:
            frames = blurred
        else:
            frames[degraded] = blurred
    for i, channel in enumerate(channels):
        sigma = DEGRADED_NOISE if channel == DEGRADED else PRISTINE_NOISE
        frame = frames[i]
        frame += np.random.default_rng(words[i]).normal(0.0, sigma, frame.shape).astype(np.float32)
    frames.flags.writeable = False
    return frames


def draw_seed(rng: np.random.Generator) -> int:
    """A fresh render seed: one `rng.integers(2**31)` draw."""
    return int(rng.integers(2**31))


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    text: tuple[int, ...]
    speaker_id: int
    channel: str
    seed: int
    split: str       # "train" or "eval"


@dataclass(frozen=True)
class CorpusSplits:
    """Disjoint train/held-out speakers and texts plus the train utterances."""

    seed: int
    vocab: SymbolVocab
    speakers: dict[int, SpeakerProfile]
    train_speaker_ids: tuple[int, ...]
    heldout_speaker_ids: tuple[int, ...]
    train_texts: tuple[tuple[int, ...], ...]
    heldout_texts: tuple[tuple[int, ...], ...]
    utterances: tuple[Utterance, ...]

    def render_batch(self, texts, speaker_ids, channels, seeds) -> np.ndarray:
        """`render` of equal-length texts under speakers given by id."""
        return render(self.vocab, texts, [self.speakers[int(s)] for s in speaker_ids],
                      channels, seeds)

    def render_utterance(self, utt: Utterance) -> np.ndarray:
        return render(self.vocab, [utt.text], [self.speakers[utt.speaker_id]], [utt.channel],
                      [utt.seed])[0]

    def render_text(self, text, speaker_id: int, channel: str,
                    rng: np.random.Generator) -> np.ndarray:
        """A fresh render whose seed is one `draw_seed(rng)` draw."""
        return render(self.vocab, [text], [self.speakers[speaker_id]], [channel],
                      [draw_seed(rng)])[0]


def make_corpus(seed: int, n_speakers: int, n_texts: int, text_len_min: int,
                text_len_max: int, heldout_speakers: int, heldout_texts: int) -> CorpusSplits:
    """The corpus.* world; a ConfigError names each key it cannot be built from."""
    if n_speakers < 4:
        raise ConfigError(f"corpus.speakers: need at least 4 speakers, got {n_speakers}")
    if n_texts < 20:
        raise ConfigError(f"corpus.texts: need at least 20 texts, got {n_texts}")
    if not (2 <= heldout_speakers < n_speakers):   # an eval pair takes two of each
        raise ConfigError(f"corpus.heldout_speakers: {heldout_speakers} not in [2, {n_speakers})")
    if not (2 <= heldout_texts < n_texts):
        raise ConfigError(f"corpus.heldout_texts: {heldout_texts} not in [2, {n_texts})")
    if not (1 <= text_len_min <= text_len_max):
        raise ConfigError(f"corpus.text_len_min: {text_len_min} not in [1, {text_len_max}]")
    possible, length = 0, text_len_min
    while possible < n_texts and length <= text_len_max:   # 32**length grows fast
        possible += N_SYMBOLS ** length
        length += 1
    if possible < n_texts:
        raise ConfigError(f"corpus.texts: {n_texts} wanted, only {possible} distinct texts exist")

    vocab = SymbolVocab.build(seed)
    speakers = {i: speaker_profile(seed, i) for i in range(n_speakers)}

    rng_s = np.random.default_rng([0xC0A1, seed])
    perm = rng_s.permutation(n_speakers)
    heldout_ids = tuple(sorted(int(i) for i in perm[:heldout_speakers]))
    train_ids = tuple(sorted(int(i) for i in perm[heldout_speakers:]))

    rng_t = np.random.default_rng([0xC0A2, seed])
    texts: list[tuple[int, ...]] = []
    seen = set()
    while len(texts) < n_texts:
        length = int(rng_t.integers(text_len_min, text_len_max + 1))
        cand = tuple(int(v) for v in rng_t.integers(0, N_SYMBOLS, size=length))
        if cand not in seen:
            seen.add(cand)
            texts.append(cand)
    tperm = rng_t.permutation(n_texts)
    heldout_txt = tuple(texts[i] for i in tperm[:heldout_texts])
    train_txt = tuple(texts[i] for i in tperm[heldout_texts:])

    rng_u = np.random.default_rng([0xC0A3, seed])
    n_train = len(train_txt)
    reps = -(-n_train // len(train_ids))
    speaker_seq = np.tile(np.asarray(train_ids), reps)[:n_train]
    rng_u.shuffle(speaker_seq)
    utts = tuple(
        Utterance(
            utt_id=f"utt{i:04d}",
            text=train_txt[i],
            speaker_id=int(speaker_seq[i]),
            channel=PRISTINE,
            seed=int(rng_u.integers(0, 2**31 - 1)),
            split="train",
        )
        for i in range(n_train)
    )
    return CorpusSplits(
        seed=seed, vocab=vocab, speakers=speakers,
        train_speaker_ids=train_ids, heldout_speaker_ids=heldout_ids,
        train_texts=train_txt, heldout_texts=heldout_txt, utterances=utts,
    )


# ---------------------------------------------------------------------------
# corpus files: line-oriented manifest plus tensor-record frame storage


def write_manifest(path: Path, utterances, vocab: SymbolVocab) -> None:
    lines = []
    for u in utterances:
        lines.append("\t".join([
            u.utt_id, str(u.speaker_id), u.channel,
            vocab.transcript_names(u.text), str(u.seed), u.split,
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path: Path, vocab: SymbolVocab) -> list[Utterance]:
    utts = []
    for ln_no, line in enumerate(read_text(path, DataError).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise DataError(f"{path}:{ln_no}: expected 6 tab-separated fields, got {len(parts)}")
        utt_id, spk, channel, transcript, seed, split = parts
        try:
            utt = Utterance(
                utt_id=utt_id, text=vocab.parse_transcript(transcript),
                speaker_id=int(spk), channel=channel, seed=int(seed), split=split,
            )
        except ValueError as e:   # an unknown symbol name or a non-integer field
            raise DataError(f"{path}:{ln_no}: malformed utterance {utt_id!r}: {e}") from None
        if not 0 <= utt.seed < SEED_BOUND:
            raise DataError(f"{path}:{ln_no}: malformed utterance {utt_id!r}: "
                            f"seed {utt.seed} is outside [0, {SEED_BOUND})")
        if channel not in _CHANNEL_CODE:
            raise DataError(f"{path}:{ln_no}: malformed utterance {utt_id!r}: "
                            f"unknown channel {channel!r}")
        utts.append(utt)
    return utts


def write_frames(path: Path, renders: dict[str, np.ndarray]) -> None:
    """One frozen checkpoint component "frames": utt_id -> (T, F) frames."""
    ck.save_checkpoint(path, {"frames": (True, renders)})


def load_frames(path: Path) -> dict[str, np.ndarray]:
    comps = ck.load_checkpoint(path)
    if list(comps) != ["frames"]:
        raise ArtifactFormatError(f"frames file {path}: components {sorted(comps)}, "
                                  "expected ['frames']")
    return comps["frames"][1]
