"""Synthetic world: determinism, separability, and recoverability gates."""

from collections import Counter

import numpy as np
import pytest

from synthvc import cli
from synthvc import streamlm as sl
from synthvc import synthworld as sw
from synthvc.config import RunConfig
from synthvc.errors import ConfigError, DataError

import harness as parent
from harness import nearest_template_decode, render_one


def test_render_identity_speaker_zero_noise(splits, monkeypatch):
    monkeypatch.setattr(sw, "PRISTINE_NOISE", 0.0)
    prof = sw.SpeakerProfile(
        id=999,
        gain=np.ones(sw.F_DIM, dtype=np.float32),
        offset=np.zeros(sw.F_DIM, dtype=np.float32),
        pitch_rate=0.2,
    )
    text = (0, 5, 17)
    r = render_one(splits.vocab, text, prof, sw.PRISTINE, seed=3)
    t_total = sw.frames_for_text(3)
    assert r.shape == (t_total, sw.F_DIM)
    for i, s in enumerate(text):
        lo = sw.SILENCE_EDGE + i * sw.FRAMES_PER_SYMBOL
        block = r[lo:lo + 3, :sw.CONTENT_DIMS]
        np.testing.assert_array_equal(block, splits.vocab.templates[s][:, :sw.CONTENT_DIMS])
    tt = np.arange(t_total, dtype=np.float32)
    pitch = sw.PITCH_AMP * np.sin(2 * np.pi * np.float32(0.2) * tt)
    np.testing.assert_allclose(r[:, sw.PITCH_CHANNEL], pitch, atol=1e-6)


def test_render_deterministic(splits):
    prof = splits.speakers[splits.train_speaker_ids[0]]
    a = render_one(splits.vocab, (1, 2, 3), prof, sw.DEGRADED, seed=11)
    b = render_one(splits.vocab, (1, 2, 3), prof, sw.DEGRADED, seed=11)
    assert np.array_equal(a, b)
    c = render_one(splits.vocab, (1, 2, 3), prof, sw.DEGRADED, seed=12)
    assert not np.array_equal(a, c)


def test_render_rejects_special_symbols(splits):
    prof = splits.speakers[splits.train_speaker_ids[0]]
    with pytest.raises(DataError):
        render_one(splits.vocab, (1, sl.TEXT_EOS), prof, sw.PRISTINE, seed=0)


def _render_oracle(vocab, text, speaker, channel, seed):
    """render with one template copy per symbol and the rng entropy as a
    list of Python ints, the formula the uint32-array entropy must match."""
    t_total = sw.frames_for_text(len(text))
    frames = np.zeros((t_total, sw.F_DIM), dtype=np.float32)
    for i, s in enumerate(text):
        lo = sw.SILENCE_EDGE + i * sw.FRAMES_PER_SYMBOL
        frames[lo:lo + sw.FRAMES_PER_SYMBOL] = vocab.templates[s]
    frames = frames * speaker.gain[None, :] + speaker.offset[None, :]
    tt = np.arange(t_total, dtype=np.float32)
    frames[:, sw.PITCH_CHANNEL] += sw.PITCH_AMP * np.sin(
        2.0 * np.pi * np.float32(speaker.pitch_rate) * tt)
    code = {sw.PRISTINE: 0, sw.DEGRADED: 1}[channel]
    rng = np.random.default_rng([0xF0A3, seed, speaker.id, code, len(text), *text])
    sigma = sw.PRISTINE_NOISE
    if channel == sw.DEGRADED:
        blurred = np.zeros_like(frames)
        blurred[1:] += sw._BLUR[0] * frames[:-1]
        blurred += sw._BLUR[1] * frames
        blurred[:-1] += sw._BLUR[2] * frames[1:]
        frames, sigma = blurred, sw.DEGRADED_NOISE
    return frames + rng.normal(0.0, sigma, size=frames.shape).astype(np.float32)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1])
@pytest.mark.parametrize("n_symbols", [1, 12])
@pytest.mark.parametrize("channel", [sw.PRISTINE, sw.DEGRADED])
def test_render_equals_list_entropy_formula(splits, seed, n_symbols, channel):
    text = tuple(int(s) for s in (7 * np.arange(n_symbols) + 5) % sw.N_SYMBOLS)
    prof = splits.speakers[splits.train_speaker_ids[1]]
    got = render_one(splits.vocab, text, prof, channel, seed)
    assert np.array_equal(got, _render_oracle(splits.vocab, text, prof, channel, seed))


def test_render_bytes_equal_oracle_on_random_renders(splits):
    # speakers and lengths repeat, so most renders take a cached pitch row
    rng = np.random.default_rng(41)
    for i in range(200):
        text = tuple(int(s) for s in rng.integers(0, sw.N_SYMBOLS, size=int(rng.integers(0, 13))))
        prof = splits.speakers[int(rng.integers(len(splits.speakers)))]
        channel = (sw.PRISTINE, sw.DEGRADED)[i % 2]
        seed = int(rng.integers(sw.SEED_BOUND))
        got = render_one(splits.vocab, text, prof, channel, seed)
        assert not got.flags.writeable
        assert got.tobytes() == _render_oracle(splits.vocab, text, prof, channel, seed).tobytes()
    assert not sw._pitch_row(prof.pitch_rate, sw.frames_for_text(len(text))).flags.writeable


@pytest.mark.parametrize("seed", [-1, 2**32])
def test_render_rejects_seed_outside_uint32(splits, seed):
    prof = splits.speakers[splits.train_speaker_ids[0]]
    with pytest.raises(DataError, match="seed"):
        render_one(splits.vocab, (1, 2), prof, sw.PRISTINE, seed)


@pytest.mark.parametrize("length", [0, 1, 12])
@pytest.mark.parametrize("mix", ["pristine", "degraded", "mixed"])
def test_batched_render_items_equal_oracle(splits, length, mix):
    # every speaker of the world, in a shuffled order, one item each
    rng = np.random.default_rng(101 + length)
    ids = [int(i) for i in rng.permutation(sorted(splits.speakers))]
    texts = [tuple(int(s) for s in rng.integers(0, sw.N_SYMBOLS, size=length)) for _ in ids]
    channels = {"pristine": [sw.PRISTINE] * len(ids), "degraded": [sw.DEGRADED] * len(ids),
                "mixed": [(sw.PRISTINE, sw.DEGRADED)[int(c)]
                          for c in rng.integers(0, 2, size=len(ids))]}[mix]
    seeds = [int(s) for s in rng.integers(sw.SEED_BOUND, size=len(ids))]
    speakers = [splits.speakers[i] for i in ids]
    got = sw.render(splits.vocab, texts, speakers, channels, seeds)
    assert got.shape == (len(ids), sw.frames_for_text(length), sw.F_DIM)
    assert got.dtype == np.float32 and not got.flags.writeable
    for i in range(len(ids)):
        want = _render_oracle(splits.vocab, texts[i], speakers[i], channels[i], seeds[i])
        assert got[i].tobytes() == want.tobytes()
    if mix == "mixed":
        assert set(channels) == {sw.PRISTINE, sw.DEGRADED}


def test_batched_render_random_batches_equal_oracle(splits):
    rng = np.random.default_rng(113)
    for _ in range(40):
        b, length = int(rng.integers(1, 9)), int(rng.integers(0, 13))
        texts = [tuple(int(s) for s in rng.integers(0, sw.N_SYMBOLS, size=length))
                 for _ in range(b)]
        speakers = [splits.speakers[int(i)] for i in rng.integers(len(splits.speakers), size=b)]
        channels = [(sw.PRISTINE, sw.DEGRADED)[int(c)] for c in rng.integers(0, 2, size=b)]
        seeds = [int(s) for s in rng.integers(sw.SEED_BOUND, size=b)]
        got = sw.render(splits.vocab, texts, speakers, channels, seeds)
        assert not got.flags.writeable
        for i in range(b):
            want = _render_oracle(splits.vocab, texts[i], speakers[i], channels[i], seeds[i])
            assert got[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad,error", [
    ({"texts": [(1, 2), (1, 2, 3)]}, DataError),            # ragged lengths
    ({"texts": [(1, 2), (1, sl.TEXT_EOS)]}, DataError),     # a non-content symbol
    ({"texts": [(1, 2), (-1, 2)]}, DataError),
    ({"channels": [sw.PRISTINE, "noisy"]}, ConfigError),
    ({"seeds": [0, sw.SEED_BOUND]}, DataError),
    ({"seeds": [-1, 0]}, DataError),
    ({"seeds": [0]}, DataError),                            # fewer seeds than texts
    ({"texts": [], "speakers": [], "channels": [], "seeds": []}, DataError),   # no items
])
def test_batched_render_rejects_a_bad_item(splits, bad, error):
    args = {"texts": [(1, 2), (3, 4)],
            "speakers": [splits.speakers[i] for i in splits.train_speaker_ids[:2]],
            "channels": [sw.PRISTINE, sw.DEGRADED], "seeds": [0, 1], **bad}
    with pytest.raises(error):
        sw.render(splits.vocab, args["texts"], args["speakers"], args["channels"], args["seeds"])


def test_cross_speaker_distance_exceeds_rerender(splits):
    # measured over 100 sampled pairs before the corpus constants were frozen
    rng = np.random.default_rng(17)
    ids = splits.train_speaker_ids
    diffs, sames = [], []
    for _ in range(100):
        a, b = rng.choice(ids, size=2, replace=False)
        text = splits.train_texts[int(rng.integers(len(splits.train_texts)))]
        s1, s2 = int(rng.integers(2**31)), int(rng.integers(2**31))
        ra = render_one(splits.vocab, text, splits.speakers[int(a)], sw.PRISTINE, s1)
        rb = render_one(splits.vocab, text, splits.speakers[int(b)], sw.PRISTINE, s1)
        ra2 = render_one(splits.vocab, text, splits.speakers[int(a)], sw.PRISTINE, s2)
        diffs.append(np.abs(ra - rb).mean())
        sames.append(np.abs(ra - ra2).mean())
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
    again = render_one(splits.vocab, utt.text, prof, sw.PRISTINE, seed=utt.seed)
    assert np.array_equal(src, again)


def test_render_text_is_render_at_one_seed_draw(splits):
    # one integers(2**31) draw is the seed, and the rng ends where that draw leaves it
    text, sid = splits.train_texts[2], splits.train_speaker_ids[3]
    rng, twin = np.random.default_rng(41), np.random.default_rng(41)
    got = splits.render_text(text, sid, sw.DEGRADED, rng)
    want = render_one(splits.vocab, text, splits.speakers[sid], sw.DEGRADED,
                      int(twin.integers(2**31)))
    assert got.dtype == np.float32 and not got.flags.writeable
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_degraded_differs_beyond_noise_floor(splits):
    utt = splits.utterances[7]
    prof = splits.speakers[utt.speaker_id]
    clean = render_one(splits.vocab, utt.text, prof, sw.PRISTINE, seed=5)
    rough = render_one(splits.vocab, utt.text, prof, sw.DEGRADED, seed=5)
    rms = np.sqrt(np.mean((clean - rough) ** 2))
    assert rms > 3 * sw.PRISTINE_NOISE


def test_speaker_separability_gate(splits):
    # nearest-centroid on mean frames, 10 utterances per speaker: >= 95%
    rng = np.random.default_rng(23)
    cents, probes = {}, []
    for sid in splits.train_speaker_ids:
        means = []
        for _ in range(12):
            text = splits.train_texts[int(rng.integers(len(splits.train_texts)))]
            r = render_one(splits.vocab, text, splits.speakers[sid], sw.PRISTINE,
                           int(rng.integers(2**31)))
            means.append(r.mean(axis=0))
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
        dec = nearest_template_decode(splits.vocab, r)
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
    renders = {u.utt_id: splits.render_utterance(u) for u in splits.utterances[:4]}
    path = tmp_path / "frames.bin"
    sw.write_frames(path, renders)
    back = sw.load_frames(path)
    assert set(back) == set(renders)
    for k in renders:
        np.testing.assert_array_equal(back[k], renders[k])


def _corpus_args(cfg: RunConfig) -> dict:
    return dict(seed=cfg["corpus.seed"], n_speakers=cfg["corpus.speakers"],
                n_texts=cfg["corpus.texts"], text_len_min=cfg["corpus.text_len_min"],
                text_len_max=cfg["corpus.text_len_max"],
                heldout_speakers=cfg["corpus.heldout_speakers"],
                heldout_texts=cfg["corpus.heldout_texts"])


@pytest.mark.parametrize("seed,texts", [(7001, 400), (7001, 120), (0, 400), (1, 400),
                                        (2, 400), (5, 120), (9, 60)])
def test_make_corpus_equals_the_per_element_loop(seed, texts):
    """Whole-array draws of a text's symbols and of the utterance seeds build
    the corpus the per-element loop built, at the default config, the tiny
    CLI config's 120 texts and other corpus seeds: the same splits, texts,
    utterances (ids, speakers, seeds as Python ints), speakers and vocab."""
    args = _corpus_args(RunConfig({"corpus.seed": seed, "corpus.texts": texts}))
    got, want = sw.make_corpus(**args), parent.make_corpus(**args)
    for field in ("seed", "train_speaker_ids", "heldout_speaker_ids", "train_texts",
                  "heldout_texts", "utterances"):
        assert getattr(got, field) == getattr(want, field), field
    for utt in got.utterances:
        assert type(utt.seed) is int and type(utt.speaker_id) is int
        assert all(type(s) is int for s in utt.text)
    assert got.vocab.templates.tobytes() == want.vocab.templates.tobytes()
    assert got.speakers.keys() == want.speakers.keys()
    for i, prof in got.speakers.items():
        ref = want.speakers[i]
        assert prof.gain.tobytes() == ref.gain.tobytes()
        assert prof.offset.tobytes() == ref.offset.tobytes()
        assert prof.pitch_rate == ref.pitch_rate
