"""Metric suite and oracle judges."""

import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthvc import cli
from synthvc import encoders as en
from synthvc import evaluation as ev
from synthvc import numerics as nm
from synthvc import streamlm as sl
from synthvc import synthworld as sw
from synthvc import trainer as tr
from synthvc.errors import CalibrationError, DataError

from harness import spy_renders


def oracle_distance(ref, hyp):
    """Independent memoized-recursion Levenshtein oracle."""
    ref, hyp = tuple(ref), tuple(hyp)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        same = ref[i - 1] == hyp[j - 1]
        return min(rec(i - 1, j - 1) + (0 if same else 1),
                   rec(i - 1, j) + 1, rec(i, j - 1) + 1)

    return rec(len(ref), len(hyp))


# ---------------------------------------------------------------------------
# edit distance


def test_kitten_sitting():
    assert ev.edit_distance("kitten", "sitting") == 3 == oracle_distance("kitten", "sitting")


def test_identity_distance_zero():
    assert ev.edit_distance("abc", "abc") == 0


def test_empty_hyp_all_deletions():
    assert ev.edit_distance("abcd", "") == 4


def test_distance_matches_oracle_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a = rng.integers(0, 5, size=rng.integers(0, 9)).tolist()
        b = rng.integers(0, 5, size=rng.integers(0, 9)).tolist()
        assert ev.edit_distance(a, b) == oracle_distance(a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8), st.lists(st.integers(0, 3), max_size=8),
       st.lists(st.integers(0, 3), max_size=8))
def test_metric_axioms(a, b, c):
    dab = ev.edit_distance(a, b)
    dba = ev.edit_distance(b, a)
    dac = ev.edit_distance(a, c)
    dcb = ev.edit_distance(c, b)
    assert dab >= 0
    assert (dab == 0) == (a == b)
    assert dab == dba
    assert dab <= dac + dcb


# ---------------------------------------------------------------------------
# oracles


def test_verifier_eer_gate(verifier):
    assert verifier.eer is not None and verifier.eer <= 0.10


@pytest.mark.parametrize("same,diff,eer", [
    ([0.9, 0.8], [0.1, 0.2, 0.3], 0.0),   # separable: a threshold at 0.8 errs nowhere
    # overlapping: thresholds 0.1, 0.4, 0.6, 0.9 give (FAR, FRR) = (1, 0),
    # (1/2, 0), (1/2, 1/2), (0, 1/2), so the least mean is 1/4
    ([0.9, 0.4], [0.6, 0.1], 0.25),
])
def test_equal_error_rate_hand_checked(same, diff, eer):
    assert ev._equal_error_rate(np.asarray(same), np.asarray(diff)) == eer


def _transcriber_batches_per_item(splits, rng):
    """transcriber_batches as one render per item, the loop the batched render replaced."""
    buckets = en.bucket_by_length(splits.utterances)
    while True:
        xs, ys = [], []
        for u in en.sample_bucket(buckets, rng, ev.TRANSCRIBER_BATCH):
            channel = sw.DEGRADED if rng.random() < 0.5 else sw.PRISTINE
            xs.append(splits.render_text(u.text, u.speaker_id, channel, rng))
            ys.append(sw.frame_labels(u.text))
        yield np.stack(xs), np.concatenate(ys)


@pytest.mark.parametrize("seed", [81, 82])
def test_transcriber_batches_equal_the_per_item_loop(splits, monkeypatch, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    calls = spy_renders(monkeypatch)
    got_batches = ev.transcriber_batches(splits, rng)
    want_batches = _transcriber_batches_per_item(splits, twin)
    channels = set()
    for i in range(6):
        x, y = next(got_batches)
        assert len(calls) == i + 1   # one render per batch
        channels.update(ch for _, _, ch, _ in calls[i])
        x_want, y_want = next(want_batches)
        del calls[i + 1:]   # the reference loop's own one-item renders
        assert x.tobytes() == x_want.tobytes() and x.shape == x_want.shape
        assert np.array_equal(y, y_want)
        assert rng.bit_generator.state == twin.bit_generator.state
    assert channels == {sw.PRISTINE, sw.DEGRADED}


def test_cosine_self_similarity(verifier, splits):
    e = verifier.embed(splits.render_utterance(splits.utterances[0]))
    assert abs(ev.cosine(e, e) - 1.0) < 1e-6


def test_transcriber_pristine_exact_gate(transcriber):
    assert transcriber.pristine_exact_rate >= 0.99


def test_transcriber_degraded_cer_gate(transcriber):
    assert transcriber.degraded_cer <= 0.05


def test_transcriber_all_silence_empty(transcriber, splits):
    prof = splits.speakers[0]
    silence = np.tile(prof.offset[None, :], (7, 1)).astype(np.float32)
    assert transcriber.transcribe(silence) == ()


def test_oracle_independence_assertion(verifier, sem_enc):
    ev.assert_oracle_independence(verifier.params, sem_enc.params)
    with pytest.raises(CalibrationError):
        ev.assert_oracle_independence(verifier.params, dict(verifier.params))


# ---------------------------------------------------------------------------
# evaluation manifest and conversion scoring


def test_eval_manifest_shape_and_determinism(cfg, splits):
    a = cli._eval_pairs(cfg, splits)
    b = cli._eval_pairs(cfg, splits)
    assert a == b
    assert len(a) == cfg["eval.pairs"]
    for p in a:
        assert p.source.speaker_id in splits.heldout_speaker_ids
        assert p.target_ref.speaker_id in splits.heldout_speaker_ids
        assert p.source.speaker_id != p.target_ref.speaker_id
        assert p.source.text != p.target_ref.text
        assert tuple(p.source.text) in set(splits.heldout_texts)


def test_eval_manifest_file_round_trip(tmp_path, splits):
    pairs = ev.make_eval_manifest(splits, n_pairs=8, seed=3)
    path = tmp_path / "eval_manifest.tsv"
    ev.write_eval_manifest(path, pairs)
    ids = ev.load_eval_manifest(path)
    assert ids == [(p.source.utt_id, p.target_ref.utt_id) for p in pairs]


def test_evaluate_rejects_non_heldout(context):
    train_utt = context.splits.utterances[0]
    bad = ev.EvalPair(source=train_utt, target_ref=context.eval_pairs[0].target_ref)
    params = tr.init_pipeline_params(context, seed=1)
    with pytest.raises(DataError):
        ev.evaluate_conversion(params, context.lm_cfg, context.codec, context.sem_enc,
                               context.spk_enc, params, context.verifier,
                               context.transcriber, context.splits, [bad],
                               max_steps=48, tail=8)


def test_evaluate_conversion_report_shape(context):
    # random (untrained) model: the report must still be finite and complete
    params = tr.init_pipeline_params(context, seed=2)
    pairs = context.eval_pairs[:4]
    report = ev.evaluate_conversion(params, context.lm_cfg, context.codec,
                                    context.sem_enc, context.spk_enc, params,
                                    context.verifier, context.transcriber,
                                    context.splits, pairs,
                                    max_steps=48, tail=8)
    assert report.pairs == 4
    for v in (report.wer, report.cer, report.wer_text, report.cer_text,
              report.secs_oracle, report.secs_to_source, report.top1):
        assert np.isfinite(v)
    assert 0 <= report.truncated <= 4
    assert json.loads(report.to_json()) == dataclasses.asdict(report)


def test_second_manifest_on_shared_objects_scores_like_fresh_objects(context):
    # every manifest names its pairs eval_src00, eval_tgt00, ...: nothing keyed
    # by those ids may carry over from one evaluate_conversion call to the next
    params = tr.init_pipeline_params(context, seed=2)

    def score(pairs, sem_enc, spk_enc, verifier):
        return ev.evaluate_conversion(params, context.lm_cfg, context.codec, sem_enc, spk_enc,
                                      params, verifier, context.transcriber, context.splits,
                                      pairs, max_steps=48, tail=8)

    first, second = (ev.make_eval_manifest(context.splits, n_pairs=3, seed=s) for s in (3, 4))
    assert [p.source.utt_id for p in first] == [p.source.utt_id for p in second]
    assert [p.source for p in first] != [p.source for p in second]
    shared = (context.sem_enc, context.spk_enc, context.verifier)
    score(first, *shared)
    fresh = (en.SemanticEncoder(params=context.sem_enc.params),
             en.SpeakerEncoder(params=context.spk_enc.params),
             ev.OracleVerifier(params=context.verifier.params))
    assert score(second, *shared) == score(second, *fresh)


def test_identity_conversion_secs_symmetric(context):
    # target speaker = source speaker: similarity to source and target refs
    # comes from two renders of one speaker, so the two SECS values agree
    src = context.eval_pairs[0].source
    other_text = next(t for t in context.splits.heldout_texts if t != src.text)
    ref = sw.Utterance(utt_id="ident_ref", text=other_text, speaker_id=src.speaker_id,
                       channel=sw.PRISTINE, seed=123, split="eval")
    params = tr.init_pipeline_params(context, seed=3)
    report = ev.evaluate_conversion(params, context.lm_cfg, context.codec,
                                    context.sem_enc, context.spk_enc, params,
                                    context.verifier, context.transcriber,
                                    context.splits, [ev.EvalPair(source=src, target_ref=ref)],
                                    max_steps=48, tail=8)
    assert abs(report.secs_oracle - report.secs_to_source) < 0.3
