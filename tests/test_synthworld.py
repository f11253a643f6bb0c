"""Synthetic world: determinism, separability, and recoverability gates."""

from collections import Counter

import numpy as np
import pytest

from synthvc import cli
from synthvc import synthworld as sw
from synthvc.config import RunConfig
from synthvc.errors import ConfigError, DataError


def test_render_identity_speaker_zero_noise(splits, monkeypatch):
    monkeypatch.setattr(sw, "PRISTINE_NOISE", 0.0)
    prof = sw.SpeakerProfile(
        id=999,
        gain=np.ones(sw.F_DIM, dtype=np.float32),
        offset=np.zeros(sw.F_DIM, dtype=np.float32),
        pitch_rate=0.2,
    )
    text = (0, 5, 17)
    r = sw.render(splits.vocab, text, prof, sw.PRISTINE, seed=3)
    t_total = sw.frames_for_text(3)
    assert r.frames.shape == (t_total, sw.F_DIM)
    for i, s in enumerate(text):
        lo = sw.SILENCE_EDGE + i * sw.FRAMES_PER_SYMBOL
        block = r.frames[lo:lo + 3, :sw.CONTENT_DIMS]
        np.testing.assert_array_equal(block, splits.vocab.templates[s][:, :sw.CONTENT_DIMS])
    tt = np.arange(t_total, dtype=np.float32)
    pitch = sw.PITCH_AMP * np.sin(2 * np.pi * np.float32(0.2) * tt)
    np.testing.assert_allclose(r.frames[:, sw.PITCH_CHANNEL], pitch, atol=1e-6)


def test_render_deterministic(splits):
    prof = splits.speakers[splits.train_speaker_ids[0]]
    a = sw.render(splits.vocab, (1, 2, 3), prof, sw.DEGRADED, seed=11)
    b = sw.render(splits.vocab, (1, 2, 3), prof, sw.DEGRADED, seed=11)
    assert np.array_equal(a.frames, b.frames)
    c = sw.render(splits.vocab, (1, 2, 3), prof, sw.DEGRADED, seed=12)
    assert not np.array_equal(a.frames, c.frames)


def test_render_rejects_special_symbols(splits):
    prof = splits.speakers[splits.train_speaker_ids[0]]
    with pytest.raises(DataError):
        sw.render(splits.vocab, (1, sw.TEXT_EOS), prof, sw.PRISTINE, seed=0)


def test_cross_speaker_distance_exceeds_rerender(splits):
    # measured over 100 sampled pairs before the corpus constants were frozen
    rng = np.random.default_rng(17)
    ids = splits.train_speaker_ids
    diffs, sames = [], []
    for _ in range(100):
        a, b = rng.choice(ids, size=2, replace=False)
        text = splits.train_texts[int(rng.integers(len(splits.train_texts)))]
        s1, s2 = int(rng.integers(2**31)), int(rng.integers(2**31))
        ra = sw.render(splits.vocab, text, splits.speakers[int(a)], sw.PRISTINE, s1)
        rb = sw.render(splits.vocab, text, splits.speakers[int(b)], sw.PRISTINE, s1)
        ra2 = sw.render(splits.vocab, text, splits.speakers[int(a)], sw.PRISTINE, s2)
        diffs.append(np.abs(ra.frames - rb.frames).mean())
        sames.append(np.abs(ra.frames - ra2.frames).mean())
    assert np.mean(diffs) > np.mean(sames)


def test_make_corpus_deterministic(cfg):
    a = cli._world(cfg)
    b = cli._world(cfg)
    assert a.train_speaker_ids == b.train_speaker_ids
    assert a.heldout_texts == b.heldout_texts
    assert all(x == y for x, y in zip(a.utterances, b.utterances))


def test_corpus_splits_disjoint(splits):
    assert not set(splits.train_speaker_ids) & set(splits.heldout_speaker_ids)
    assert not set(splits.train_texts) & set(splits.heldout_texts)
    assert len(splits.train_speaker_ids) == 20 and len(splits.heldout_speaker_ids) == 4
    assert len(splits.train_texts) == 360 and len(splits.heldout_texts) == 40


def test_every_train_speaker_well_covered(splits):
    counts = Counter(u.speaker_id for u in splits.utterances)
    assert set(counts) == set(splits.train_speaker_ids)
    assert min(counts.values()) >= 10


def test_make_corpus_parameter_bounds():
    for values in ({"corpus.speakers": 3}, {"corpus.texts": 19},
                   {"corpus.speakers": 8, "corpus.heldout_speakers": 8}):
        with pytest.raises(ConfigError):
            cli._world(RunConfig({"corpus.seed": 1, **values}))


def test_parallel_pair_same_speaker_identity(splits):
    utt = splits.utterances[0]
    src = splits.render_utterance(utt)
    prof = splits.speakers[utt.speaker_id]
    again = sw.render(splits.vocab, src.transcript, prof, sw.PRISTINE, seed=utt.seed)
    assert np.array_equal(src.frames, again.frames)


def test_parallel_pair_preserves_transcript(splits):
    utt = splits.utterances[3]
    src = splits.render_utterance(utt)
    tgt_id = splits.train_speaker_ids[5]
    pair = sw.render(splits.vocab, src.transcript, splits.speakers[tgt_id], sw.DEGRADED,
                     seed=99)
    assert pair.transcript == src.transcript
    assert pair.speaker_id == tgt_id


def test_degraded_differs_beyond_noise_floor(splits):
    utt = splits.utterances[7]
    prof = splits.speakers[utt.speaker_id]
    clean = sw.render(splits.vocab, utt.text, prof, sw.PRISTINE, seed=5)
    rough = sw.render(splits.vocab, utt.text, prof, sw.DEGRADED, seed=5)
    rms = np.sqrt(np.mean((clean.frames - rough.frames) ** 2))
    assert rms > 3 * sw.PRISTINE_NOISE


def test_speaker_separability_gate(splits):
    # nearest-centroid on mean frames, 10 utterances per speaker: >= 95%
    rng = np.random.default_rng(23)
    cents, probes = {}, []
    for sid in splits.train_speaker_ids:
        means = []
        for _ in range(12):
            text = splits.train_texts[int(rng.integers(len(splits.train_texts)))]
            r = sw.render(splits.vocab, text, splits.speakers[sid], sw.PRISTINE,
                          int(rng.integers(2**31)))
            means.append(r.frames.mean(axis=0))
        cents[sid] = np.mean(means[:10], axis=0)
        probes.extend((sid, m) for m in means[10:])
    ids = list(cents)
    mat = np.stack([cents[i] for i in ids])
    hits = [ids[int(np.argmin(np.linalg.norm(mat - m, axis=1)))] == sid for sid, m in probes]
    assert np.mean(hits) >= 0.95


def test_transcript_recoverability_gate(splits):
    # per-frame nearest-template decode recovers >= 99% of symbols (pristine)
    total = correct = 0
    for utt in splits.utterances[:150]:
        r = splits.render_utterance(utt)
        dec = sw.nearest_template_decode(splits.vocab, r.frames)
        total += len(utt.text)
        correct += sum(a == b for a, b in zip(dec, utt.text))
    assert correct / total >= 0.99


def test_frame_labels_layout():
    labels = sw.frame_labels((4, 4))
    assert labels.tolist() == [32, 32, 4, 4, 4, 4, 4, 4, 32, 32]


def test_manifest_round_trip(tmp_path, splits):
    path = tmp_path / "manifest.tsv"
    sw.write_manifest(path, splits.utterances[:5], splits.vocab)
    back = sw.load_manifest(path, splits.vocab)
    assert back == list(splits.utterances[:5])
    # idempotent bytes
    path2 = tmp_path / "manifest2.tsv"
    sw.write_manifest(path2, splits.utterances[:5], splits.vocab)
    assert path.read_bytes() == path2.read_bytes()


def test_frames_file_round_trip(tmp_path, splits):
    renders = {u.utt_id: splits.render_utterance(u).frames for u in splits.utterances[:4]}
    path = tmp_path / "frames.bin"
    sw.write_frames(path, renders)
    back = sw.load_frames(path)
    assert set(back) == set(renders)
    for k in renders:
        np.testing.assert_array_equal(back[k], renders[k])
