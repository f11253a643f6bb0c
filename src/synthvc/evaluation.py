"""Objective evaluation: WER/CER via an oracle transcriber, text-stream
WER-Text/CER-Text, and speaker similarity via an oracle verifier.

Both oracles are trained independently of the pipeline encoders (different
architectures and seeds, no shared tensors) so the pipeline never grades
itself with its own features.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from . import numerics as nm
from . import streamlm as sl
from . import synthworld as sw
from .codec import RVQCodec, decode
from .encoders import apply_adapter, bucket_by_length, sample_bucket, speaker_batches
from .errors import CalibrationError, ConfigError, DataError, read_text
from .numerics import Tensor
from .optim import check_fit, fit_classifier, freeze

ORACLE_LR = 1e-3
VERIFIER_BATCH = 16
VERIFIER_WIDTH = 40
VERIFIER_EMB = 24
VERIFIER_EER_GATE = 0.10   # largest held-out EER a trained verifier may grade with
TRANSCRIBER_BATCH = 10
TRANSCRIBER_HIDDEN = 72


# ---------------------------------------------------------------------------
# edit distance and rates


def edit_distance(ref, hyp) -> int:
    """Unit-cost Levenshtein distance, one row of the table at a time.

    Row i is cur[j] = min(prev[j-1] + (h[j-1] != r[i-1]), prev[j] + 1,
    cur[j-1] + 1); its insertion chain is a running minimum of cur[j] - j."""
    ids: dict = {}   # symbol -> small int, so equality is the symbols' own
    r = [ids.setdefault(s, len(ids)) for s in ref]
    h = np.array([ids.setdefault(s, len(ids)) for s in hyp], dtype=np.int64)
    j = np.arange(len(h) + 1)
    prev = j
    for i, sym in enumerate(r, start=1):
        step = np.minimum(prev[:-1] + (h != sym), prev[1:] + 1)
        prev = np.minimum.accumulate(np.concatenate(([i], step)) - j) + j
    return int(prev[-1])


def error_rate(refs, hyps) -> float:
    """Summed edit distance of each hyp from its ref over the summed ref
    length, both integers until the one division."""
    return sum(map(edit_distance, refs, hyps)) / sum(map(len, refs))


# ---------------------------------------------------------------------------
# oracle speaker verifier (independent architecture and seed)


@dataclass
class OracleVerifier:
    params: dict[str, Tensor]
    eer: float | None = None

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, T, F) -> (B, 1, VERIFIER_EMB)."""
        h = nm.unfold_time(x, kernel=5, stride=2, pad=2)
        h = nm.silu(nn.linear(self.params, "ov.c1", h))
        h = nm.unfold_time(h, kernel=5, stride=2, pad=2)
        h = nm.silu(nn.linear(self.params, "ov.c2", h))
        h = nm.mean_axis(h, axis=1)
        return nn.linear(self.params, "ov.emb", h)

    def embed(self, frames: np.ndarray) -> np.ndarray:
        """Frozen forward of one utterance: (T, F) frames give (VERIFIER_EMB,)."""
        return self.forward_t(nm.constant(frames[None])).data[0, 0]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _equal_error_rate(same_scores: np.ndarray, diff_scores: np.ndarray) -> float:
    """Least (FAR + FRR) / 2 over thresholds at every score, at most 1.0."""
    return min([1.0] + [(float(np.mean(diff_scores >= th))
                         + float(np.mean(same_scores < th))) / 2
                        for th in np.concatenate([same_scores, diff_scores])])


def train_oracle_verifier(splits: sw.CorpusSplits, steps: int, seed: int) -> OracleVerifier:
    """Speaker-classification training; EER measured on held-out speakers."""
    check_fit("oracle verifier", steps, ORACLE_LR, VERIFIER_BATCH)
    rng_init = np.random.default_rng([0x0A17, seed])
    params: dict[str, Tensor] = {}
    nn.init_linear(params, rng_init, "ov.c1", 5 * sw.F_DIM, VERIFIER_WIDTH)
    nn.init_linear(params, rng_init, "ov.c2", 5 * VERIFIER_WIDTH, VERIFIER_WIDTH)
    nn.init_linear(params, rng_init, "ov.emb", VERIFIER_WIDTH, VERIFIER_EMB)
    nn.init_linear(params, rng_init, "ov.head", VERIFIER_EMB, len(splits.train_speaker_ids))
    ver = OracleVerifier(params=params)
    rng = np.random.default_rng([0x0A18, seed])
    fit_classifier(params, lambda x: nn.linear(params, "ov.head", ver.forward_t(x)),
                   speaker_batches(splits, rng, VERIFIER_BATCH), steps, ORACLE_LR,
                   "oracle verifier")
    freeze(params, drop_prefix="ov.head")

    # EER on held-out speakers over synthetic same/different pairs
    rng_e = np.random.default_rng([0x0A19, seed])
    embs: dict[int, list[np.ndarray]] = {sid: [] for sid in splits.heldout_speaker_ids}
    for sid in splits.heldout_speaker_ids:
        for _ in range(12):
            text = splits.heldout_texts[int(rng_e.integers(len(splits.heldout_texts)))]
            embs[sid].append(ver.embed(splits.render_text(text, sid, sw.PRISTINE, rng_e)))
    same, diff = [], []
    sids = list(embs)
    for a_i, sid in enumerate(sids):
        es = embs[sid]
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                same.append(cosine(es[i], es[j]))
        for other in sids[a_i + 1:]:
            for ea in es[:6]:
                for eb in embs[other][:6]:
                    diff.append(cosine(ea, eb))
    eer = _equal_error_rate(np.asarray(same), np.asarray(diff))
    if eer > VERIFIER_EER_GATE:
        raise CalibrationError(f"oracle verifier EER {eer:.3f} exceeds gate {VERIFIER_EER_GATE}")
    ver.eer = eer
    return ver


# ---------------------------------------------------------------------------
# oracle transcriber (framewise classifier over a 3-frame window)


@dataclass
class OracleTranscriber:
    params: dict[str, Tensor]
    pristine_exact_rate: float | None = None
    degraded_cer: float | None = None

    def forward_t(self, x: Tensor) -> Tensor:
        """(B, T, F) -> (B, T, N_FRAME_LABELS) per-frame logits."""
        h = nm.unfold_time(x, kernel=3, stride=1, pad=1)
        h = nm.silu(nn.linear(self.params, "ot.h", h))
        return nn.linear(self.params, "ot.out", h)

    def transcribe(self, frames: np.ndarray) -> tuple[int, ...]:
        """Framewise labels collapsed per 3-frame template span, silence-valued
        spans stripped. Span majority voting absorbs isolated frame errors."""
        if frames.shape[0] == 0:
            return ()
        labels = self.forward_t(nm.constant(frames[None])).data[0].argmax(axis=-1)
        t_total = len(labels)
        interior = t_total - 2 * sw.SILENCE_EDGE
        if interior < 1:
            return ()
        n_spans = int(round(interior / sw.FRAMES_PER_SYMBOL))
        out = []
        for i in range(n_spans):   # round() keeps every span's start inside the frames
            lo = sw.SILENCE_EDGE + i * sw.FRAMES_PER_SYMBOL
            chunk = labels[lo:lo + sw.FRAMES_PER_SYMBOL]
            maj = int(np.bincount(chunk, minlength=sw.N_FRAME_LABELS).argmax())
            if maj != sw.SILENCE_LABEL:
                out.append(maj)
        return tuple(out)


def transcriber_batches(splits: sw.CorpusSplits, rng: np.random.Generator):
    """Endless (frames, frame labels) batches: TRANSCRIBER_BATCH corpus
    utterances of one text length, each re-rendered under its own speaker in
    a channel drawn with even odds."""
    buckets = bucket_by_length(splits.utterances)
    while True:
        items = sample_bucket(buckets, rng, TRANSCRIBER_BATCH)
        channels, seeds = [], []
        for _ in items:   # each item's channel draw, then its render seed
            channels.append(sw.DEGRADED if rng.random() < 0.5 else sw.PRISTINE)
            seeds.append(sw.draw_seed(rng))
        yield (splits.render_batch([u.text for u in items], [u.speaker_id for u in items],
                                   channels, seeds),
               np.concatenate([sw.frame_labels(u.text) for u in items]))


def train_oracle_transcriber(splits: sw.CorpusSplits, steps: int,
                             seed: int) -> OracleTranscriber:
    """Frame classification on both channels; independent of the pipeline.

    `seed` is the oracle seed the verifier also takes; the transcriber draws
    from seed + 1, so the two oracles share no random stream.
    """
    check_fit("oracle transcriber", steps, ORACLE_LR, TRANSCRIBER_BATCH)
    seed += 1
    rng_init = np.random.default_rng([0x0A27, seed])
    params: dict[str, Tensor] = {}
    nn.init_linear(params, rng_init, "ot.h", 3 * sw.F_DIM, TRANSCRIBER_HIDDEN)
    nn.init_linear(params, rng_init, "ot.out", TRANSCRIBER_HIDDEN, sw.N_FRAME_LABELS)
    trans = OracleTranscriber(params=params)
    rng = np.random.default_rng([0x0A28, seed])
    fit_classifier(params, trans.forward_t, transcriber_batches(splits, rng), steps, ORACLE_LR,
                   "oracle transcriber")
    freeze(params)

    # measured gates on held-out texts and speakers
    rng_g = np.random.default_rng([0x0A29, seed])
    exact = 0
    refs, hyps = [], []
    for i in range(60):
        text = splits.heldout_texts[i % len(splits.heldout_texts)]
        sid = splits.heldout_speaker_ids[i % len(splits.heldout_speaker_ids)]
        clean = splits.render_text(text, sid, sw.PRISTINE, rng_g)
        exact += trans.transcribe(clean) == tuple(text)
        hyp = trans.transcribe(splits.render_text(text, sid, sw.DEGRADED, rng_g))
        refs.append(splits.vocab.transcript_names(text))
        hyps.append(splits.vocab.transcript_names(hyp))
    trans.pristine_exact_rate = exact / len(refs)
    trans.degraded_cer = error_rate(refs, hyps)
    return trans


def assert_oracle_independence(oracle_params: dict, pipeline_params: dict) -> None:
    shared = {id(p.data) for p in oracle_params.values()} & \
             {id(p.data) for p in pipeline_params.values()}
    if shared:
        raise CalibrationError("oracle shares tensors with the pipeline")


# ---------------------------------------------------------------------------
# evaluation manifest over held-out speakers and texts


@dataclass(frozen=True)
class EvalPair:
    source: sw.Utterance
    target_ref: sw.Utterance


def make_eval_manifest(splits: sw.CorpusSplits, n_pairs: int, seed: int) -> list[EvalPair]:
    """n source + n target held-out utterances, paired across speakers."""
    if n_pairs < 1:
        raise ConfigError(f"eval.pairs: need at least 1 conversion pair, got {n_pairs}")
    rng = np.random.default_rng([0xE7A1, seed])
    spk = list(splits.heldout_speaker_ids)
    texts = list(splits.heldout_texts)
    pairs = []
    for k in range(n_pairs):
        s_spk = spk[k % len(spk)]
        choices = [s for s in spk if s != s_spk]
        t_spk = choices[int(rng.integers(len(choices)))]
        s_text = texts[int(rng.integers(len(texts)))]
        t_text = texts[int(rng.integers(len(texts)))]
        while t_text == s_text:
            t_text = texts[int(rng.integers(len(texts)))]
        src = sw.Utterance(utt_id=f"eval_src{k:02d}", text=s_text, speaker_id=s_spk,
                           channel=sw.PRISTINE, seed=int(rng.integers(2**31)), split="eval")
        tgt = sw.Utterance(utt_id=f"eval_tgt{k:02d}", text=t_text, speaker_id=t_spk,
                           channel=sw.PRISTINE, seed=int(rng.integers(2**31)), split="eval")
        pairs.append(EvalPair(source=src, target_ref=tgt))
    return pairs


def write_eval_manifest(path: Path, pairs: list[EvalPair]) -> None:
    lines = [f"{p.source.utt_id}\t{p.target_ref.utt_id}" for p in pairs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_eval_manifest(path: Path) -> list[tuple[str, str]]:
    out = []
    for ln_no, line in enumerate(read_text(path, DataError).splitlines(), 1):
        if line.strip():
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{path}:{ln_no}: expected 2 tab-separated fields, "
                                f"got {len(fields)}")
            out.append((fields[0], fields[1]))
    return out


# ---------------------------------------------------------------------------
# conversion scoring


@dataclass(frozen=True)
class MetricsReport:
    wer: float
    cer: float
    wer_text: float
    cer_text: float
    secs_oracle: float
    secs_to_source: float
    secs_win_rate: float
    top1: float
    pairs: int
    truncated: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _validate_heldout(splits: sw.CorpusSplits, utt: sw.Utterance) -> None:
    if utt.speaker_id not in splits.heldout_speaker_ids:
        raise DataError(f"evaluate: utterance {utt.utt_id} uses non-held-out speaker {utt.speaker_id}")
    if tuple(utt.text) not in set(splits.heldout_texts):
        raise DataError(f"evaluate: utterance {utt.utt_id} uses non-held-out text")


def convert(lm_params: dict, lm_cfg: sl.LMConfig, codec: RVQCodec, sem_enc, spk_enc,
            adapter_params: dict, source: np.ndarray, target_ref: np.ndarray,
            max_steps: int, tail: int, mode: str = "greedy", temperature: float = 1.0,
            top_k: int = 0, rng: np.random.Generator | None = None
            ) -> tuple[sl.GenerationResult, list[int], np.ndarray]:
    """Convert source's frames to the speaker of target_ref's: the adapters
    over the frozen features, `generate`, the grid's inversion and the codec
    decode. Returns the generation, its text tokens and its frames."""
    sem = apply_adapter(adapter_params, "sem_adapter",
                        nm.constant(sem_enc.features(source[None])[0]))
    spk = apply_adapter(adapter_params, "spk_adapter", nm.constant(spk_enc.embed(target_ref)))
    res = sl.generate(lm_params, lm_cfg, sem, spk, max_steps=max_steps, tail=tail, mode=mode,
                      temperature=temperature, top_k=top_k, rng=rng)
    text_tokens, codes = sl.invert_delayed_grid(res.grid, lm_cfg.layout)
    return res, text_tokens, decode(codes, codec)


def evaluate_conversion(lm_params: dict, lm_cfg: sl.LMConfig, codec: RVQCodec,
                        sem_enc, spk_enc, adapter_params: dict,
                        verifier: OracleVerifier, transcriber: OracleTranscriber,
                        splits: sw.CorpusSplits, pairs: list[EvalPair],
                        max_steps: int, tail: int) -> MetricsReport:
    """Convert every pair, score text and speaker metrics, aggregate.

    Each distinct utterance is rendered and embedded by the verifier once
    per call. Nothing is cached across calls, so the report depends only on
    the arguments: a second manifest scored with the same encoder and oracle
    objects gives the report that fresh objects give. No pairs is a DataError.
    """
    if not pairs:
        raise DataError("evaluate: no pairs to score")
    assert_oracle_independence(verifier.params, {**adapter_params, **sem_enc.params,
                                                 **spk_enc.params})
    assert_oracle_independence(transcriber.params, {**adapter_params, **sem_enc.params,
                                                    **spk_enc.params})
    for p in pairs:
        _validate_heldout(splits, p.source)
        _validate_heldout(splits, p.target_ref)

    # speaker centroids in oracle space from the reference (real) renders
    by_spk: dict[int, list[np.ndarray]] = {}
    renders: dict[sw.Utterance, np.ndarray] = {}
    oracle_embs: dict[sw.Utterance, np.ndarray] = {}
    for p in pairs:
        for u in (p.source, p.target_ref):
            if u not in renders:
                renders[u] = splits.render_utterance(u)
                oracle_embs[u] = verifier.embed(renders[u])
                by_spk.setdefault(u.speaker_id, []).append(oracle_embs[u])
    centroid_ids = sorted(by_spk)
    centroids = np.stack([np.mean(by_spk[s], axis=0) for s in centroid_ids])

    heard, read = [], []   # per pair: the oracle's transcript, the text stream's tokens
    secs_t, secs_s, wins, top_hits = [], [], [], []
    truncated = 0
    for p in pairs:
        res, text_tokens, conv = convert(lm_params, lm_cfg, codec, sem_enc, spk_enc,
                                         adapter_params, renders[p.source],
                                         renders[p.target_ref], max_steps, tail)
        truncated += res.truncated
        heard.append(transcriber.transcribe(conv))
        read.append(text_tokens)

        e_conv = verifier.embed(conv)
        st = cosine(e_conv, oracle_embs[p.target_ref])
        ss = cosine(e_conv, oracle_embs[p.source])
        secs_t.append(st)
        secs_s.append(ss)
        wins.append(st > ss)
        sims = [cosine(e_conv, c) for c in centroids]
        top_hits.append(centroid_ids[int(np.argmax(sims))] == p.target_ref.speaker_id)

    refs = [p.source.text for p in pairs]
    names = splits.vocab.transcript_names
    ref_strs = [names(r) for r in refs]
    return MetricsReport(
        wer=error_rate(refs, heard), cer=error_rate(ref_strs, [names(h) for h in heard]),
        wer_text=error_rate(refs, read), cer_text=error_rate(ref_strs, [names(t) for t in read]),
        secs_oracle=float(np.mean(secs_t)), secs_to_source=float(np.mean(secs_s)),
        secs_win_rate=float(np.mean(wins)), top1=float(np.mean(top_hits)),
        pairs=len(pairs), truncated=truncated,
    )
