"""Deterministic synthetic speech world.

Symbol-sequence "texts" are rendered into speaker-conditioned frame matrices.
Each content symbol owns a 3-frame template whose frames sum to zero per
feature, so utterance-mean frames isolate the speaker's offset vector; a
per-speaker sinusoid on one reserved channel adds a temporal signature.
All generation is a pure function of (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
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
SILENCE_LABEL = N_SYMBOLS   # frame-label id for silence (33 classes total)

# text token ids: content symbols then specials; table padded to 40 entries
TEXT_PAD = 32
TEXT_BOS = 33
TEXT_EOS = 34
TEXT_VOCAB = 40

PRISTINE = "pristine"
DEGRADED = "degraded"
_CHANNEL_CODE = {PRISTINE: 0, DEGRADED: 1}

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
    """32 content symbols plus BOS/EOS/PAD; templates fixed by a global seed."""

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


@dataclass(frozen=True)
class Rendering:
    """Frame matrix for one utterance, plus the generating metadata."""

    frames: np.ndarray      # (T, F_DIM)
    channel: str
    transcript: tuple[int, ...]
    speaker_id: int


def frame_labels(transcript) -> np.ndarray:
    """Per-frame symbol label, silence at the edges (label 32)."""
    labels = [SILENCE_LABEL] * SILENCE_EDGE
    for s in transcript:
        labels.extend([int(s)] * FRAMES_PER_SYMBOL)
    labels.extend([SILENCE_LABEL] * SILENCE_EDGE)
    return np.asarray(labels, dtype=np.int64)


def render(vocab: SymbolVocab, transcript, speaker: SpeakerProfile, channel: str,
           seed: int) -> Rendering:
    """Render a transcript under a speaker; bit-deterministic per inputs."""
    text = tuple(int(s) for s in transcript)
    if any(s < 0 or s >= N_SYMBOLS for s in text):
        raise DataError(f"render: transcript contains non-content symbols: {text}")
    if channel not in _CHANNEL_CODE:
        raise ConfigError(f"render: unknown channel {channel!r}")
    t_total = frames_for_text(len(text))
    frames = np.zeros((t_total, F_DIM), dtype=np.float32)
    for i, s in enumerate(text):
        lo = SILENCE_EDGE + i * FRAMES_PER_SYMBOL
        frames[lo:lo + FRAMES_PER_SYMBOL] = vocab.templates[s]
    frames = frames * speaker.gain[None, :] + speaker.offset[None, :]
    tt = np.arange(t_total, dtype=np.float32)
    frames[:, PITCH_CHANNEL] += PITCH_AMP * np.sin(
        2.0 * np.pi * np.float32(speaker.pitch_rate) * tt)

    rng = np.random.default_rng(
        [0xF0A3, int(seed), speaker.id, _CHANNEL_CODE[channel], len(text), *text])
    if channel == DEGRADED:
        blurred = np.zeros_like(frames)
        blurred[1:] += _BLUR[0] * frames[:-1]
        blurred += _BLUR[1] * frames
        blurred[:-1] += _BLUR[2] * frames[1:]
        frames = blurred
        sigma = DEGRADED_NOISE
    else:
        sigma = PRISTINE_NOISE
    frames = frames + rng.normal(0.0, sigma, size=frames.shape).astype(np.float32)
    frames.flags.writeable = False
    return Rendering(frames=frames, channel=channel, transcript=text, speaker_id=speaker.id)


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

    def render_utterance(self, utt: Utterance) -> Rendering:
        return render(self.vocab, utt.text, self.speakers[utt.speaker_id], utt.channel, utt.seed)


def make_corpus(seed: int, n_speakers: int, n_texts: int, text_len_min: int,
                text_len_max: int, heldout_speakers: int, heldout_texts: int) -> CorpusSplits:
    if n_speakers < 4:
        raise ConfigError(f"make_corpus: need at least 4 speakers, got {n_speakers}")
    if n_texts < 20:
        raise ConfigError(f"make_corpus: need at least 20 texts, got {n_texts}")
    if not (0 < heldout_speakers < n_speakers):
        raise ConfigError("make_corpus: held-out speaker count out of range")
    if not (0 < heldout_texts < n_texts):
        raise ConfigError("make_corpus: held-out text count out of range")
    if not (1 <= text_len_min <= text_len_max):
        raise ConfigError("make_corpus: bad text length bounds")

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
# calibration decode: recoverability gate for the world


def nearest_template_decode(vocab: SymbolVocab, frames: np.ndarray) -> tuple[int, ...]:
    """Recover the transcript of a rendering by per-frame nearest template.

    Offset is estimated from the edge silence frames; content frames are
    matched to template frames by sign correlation and each 3-frame span is
    decided by majority vote. Assumes the rigid world layout.
    """
    t_total = frames.shape[0]
    n_sym = (t_total - 2 * SILENCE_EDGE) // FRAMES_PER_SYMBOL
    if n_sym <= 0:
        return ()
    edge = np.concatenate([frames[:SILENCE_EDGE], frames[-SILENCE_EDGE:]], axis=0)
    offset_hat = edge.mean(axis=0)
    content = frames[SILENCE_EDGE:SILENCE_EDGE + n_sym * FRAMES_PER_SYMBOL] - offset_hat[None, :]
    content = content[:, :CONTENT_DIMS]

    bank = vocab.templates[:, :, :CONTENT_DIMS].reshape(-1, CONTENT_DIMS)
    bank_signs = np.sign(bank)
    scores = np.sign(content) @ bank_signs.T            # (3n, 96)
    nearest = scores.argmax(axis=1) // FRAMES_PER_SYMBOL
    out = []
    for i in range(n_sym):
        votes = nearest[i * FRAMES_PER_SYMBOL:(i + 1) * FRAMES_PER_SYMBOL]
        out.append(int(np.bincount(votes, minlength=N_SYMBOLS).argmax()))
    return tuple(out)


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
            utts.append(Utterance(
                utt_id=utt_id, text=vocab.parse_transcript(transcript),
                speaker_id=int(spk), channel=channel, seed=int(seed), split=split,
            ))
        except ValueError as e:   # an unknown symbol name or a non-integer field
            raise DataError(f"{path}:{ln_no}: malformed utterance {utt_id!r}: {e}") from None
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
