"""The four pretrain-then-freeze classifiers (semantic and speaker encoders,
oracle verifier and transcriber), the loop they share, and the CLI round
trip that saves and reloads them."""

import numpy as np
import pytest

from synthvc import cli
from synthvc import encoders as en
from synthvc import evaluation as ev
from synthvc import nn
from synthvc import numerics as nm
from synthvc import synthworld as sw
from synthvc import trainer as tr
from synthvc.config import RunConfig
from synthvc.errors import ConfigError, TrainingDivergedError
from synthvc.optim import fit_classifier

from harness import spy_renders

# kind -> (trainer(splits, cfg, steps), temporary head prefix, quality attributes);
# each trains as `synthvc pretrain-encoders` does, but for `steps` steps
TRAINERS = {
    "semantic": (lambda splits, cfg, steps: en.pretrain_semantic_encoder(
        splits, steps=steps, batch=cfg["enc.batch"], lr=cfg["enc.lr"], seed=cfg["enc.seed"],
        width=cfg["enc.sem_dim"]), "sem.headtmp", ("heldout_frame_accuracy",)),
    "speaker": (lambda splits, cfg, steps: en.pretrain_speaker_encoder(
        splits, steps=steps, batch=cfg["enc.batch"], lr=cfg["enc.lr"], seed=cfg["enc.seed"],
        width=cfg["enc.spk_dim"]), "spk.headtmp", ("heldout_utterance_accuracy",)),
    "verifier": (lambda splits, cfg, steps: ev.train_oracle_verifier(
        splits, steps=steps, seed=cfg["oracle.seed"]), "ov.head", ("eer",)),
    "transcriber": (lambda splits, cfg, steps: ev.train_oracle_transcriber(
        splits, steps=steps, seed=cfg["oracle.seed"]), None,
        ("pristine_exact_rate", "degraded_cer")),
}
# enough verifier steps for its EER gate, ev.VERIFIER_EER_GATE, to hold
STEPS = {"semantic": 20, "speaker": 20, "verifier": 450, "transcriber": 20}


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_trainer_returns_frozen_component_without_head(splits, cfg, kind):
    train, head, quality = TRAINERS[kind]
    comp = train(splits, cfg, STEPS[kind])
    assert comp.params
    if head is not None:
        assert not any(name.startswith(head) for name in comp.params)
    assert all(not p.requires_grad for p in comp.params.values())
    for attr in quality:
        assert getattr(comp, attr) is not None, attr


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_trainer_same_seed_same_bits(splits, cfg, kind, monkeypatch):
    train, _, _ = TRAINERS[kind]
    monkeypatch.setattr(ev, "VERIFIER_EER_GATE", 1.0)   # 20 steps cannot calibrate it
    a = train(splits, cfg, 20)
    b = train(splits, cfg, 20)
    assert nn.param_bytes(a.params) == nn.param_bytes(b.params)


@pytest.mark.parametrize("d_sem", [50, 36])     # 4 heads: width 12.5, then odd width 9
def test_semantic_width_must_split_into_even_heads(d_sem):
    with pytest.raises(ConfigError, match="enc.sem_dim"):
        en.init_semantic_encoder(d_sem, seed=0)


def test_sample_bucket_draws_one_length_distinct_items(splits):
    buckets = en.bucket_by_length(splits.utterances)
    rng = np.random.default_rng(3)
    for _ in range(20):
        items = en.sample_bucket(buckets, rng, 6)
        assert len({len(u.text) for u in items}) == 1
        assert len({u.utt_id for u in items}) == len(items)


def test_speaker_batches_shapes_and_labels(splits):
    batches = en.speaker_batches(splits, np.random.default_rng(5), 4)
    for _ in range(3):
        x, y = next(batches)
        assert x.ndim == 3 and x.shape[0] == 4 and x.shape[2] == sw.F_DIM
        assert y.shape == (4,)
        assert 0 <= y.min() and y.max() < len(splits.train_speaker_ids)


def _speaker_batches_per_item(splits, rng, batch):
    """speaker_batches as one render per item, the loop the batched render replaced."""
    spk_index = {sid: i for i, sid in enumerate(splits.train_speaker_ids)}
    text_buckets = {}
    for txt in splits.train_texts:
        text_buckets.setdefault(len(txt), []).append(txt)
    lengths = sorted(text_buckets)
    while True:
        sids = rng.choice(splits.train_speaker_ids, size=batch)
        pool = text_buckets[lengths[int(rng.integers(len(lengths)))]]
        xs, ys = [], []
        for sid in sids:
            text = pool[int(rng.integers(len(pool)))]
            xs.append(splits.render_text(text, int(sid), sw.PRISTINE, rng))
            ys.append(spk_index[int(sid)])
        yield np.stack(xs), np.asarray(ys)


@pytest.mark.parametrize("batch", [1, 4, 16])
def test_speaker_batches_equal_the_per_item_loop(splits, monkeypatch, batch):
    rng, twin = np.random.default_rng(71 + batch), np.random.default_rng(71 + batch)
    calls = spy_renders(monkeypatch)
    got_batches, want_batches = en.speaker_batches(splits, rng, batch), \
        _speaker_batches_per_item(splits, twin, batch)
    for i in range(4):
        x, y = next(got_batches)
        assert [len(c) for c in calls] == [batch] * (i + 1)   # one render per batch
        x_want, y_want = next(want_batches)
        del calls[i + 1:]   # the reference loop's own one-item renders
        assert x.tobytes() == x_want.tobytes() and x.shape == x_want.shape
        assert np.array_equal(y, y_want)
        assert rng.bit_generator.state == twin.bit_generator.state


def test_fit_classifier_overflow_raises_diverged_with_step():
    params = {"clf.w": nm.Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)}

    def batches():
        # finite logits for three steps, then 3e38 * 3 overflows float32
        for scale in (1.0, 1.0, 1.0, 3e38):
            yield np.full((2, 3), scale, dtype=np.float32), np.array([0, 1])

    with np.errstate(over="ignore"), pytest.raises(
            TrainingDivergedError, match=r"toy diverged at step 3; last finite loss"):
        fit_classifier(params, lambda x: nm.matmul(x, params["clf.w"]), batches(),
                       steps=4, lr=1e-3, what="toy")



def test_oracle_transcriber_with_negative_steps_fails_typed(splits, cfg):
    with pytest.raises(ConfigError, match="oracle transcriber: needs steps >= 0"):
        ev.train_oracle_transcriber(splits, steps=-5, seed=cfg["oracle.seed"])


TINY_CONFIG = """\
corpus.texts = 120
codec.iters = 2
codec.parallel_per_utt = 1
codec.degraded_per_utt = 1
enc.sem_steps = 20
enc.spk_steps = 20
oracle.verifier_steps = 450
oracle.transcriber_steps = 20
eval.pairs = 4
"""


def test_cli_pretrain_round_trip_and_corrupt_checkpoint(tmp_path, capsys):
    """Widths off the defaults: a loaded encoder's width, read off its own
    parameters, is the configured one, and so is its adapter's input."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG + "enc.sem_dim = 40\nenc.spk_dim = 24\n", encoding="utf-8")
    run = tmp_path / "run"
    base = ["--config", str(cfg_path), "--run", str(run)]
    assert cli.main(["--config", str(cfg_path), "synth-data", "--out", str(run)]) == 0
    assert cli.main(base + ["fit-codec"]) == 0
    assert cli.main(base + ["pretrain-encoders"]) == 0
    out = capsys.readouterr().out
    assert "oracle verifier EER" in out and "semantic heldout frame accuracy" in out

    ctx, _ = cli._build_context(RunConfig.from_file(cfg_path), cli.RunDir(run))
    heads = ("sem.headtmp", "spk.headtmp", "ov.head")
    for comp in (ctx.sem_enc, ctx.spk_enc, ctx.verifier, ctx.transcriber):
        assert comp.params
        assert all(not p.requires_grad for p in comp.params.values())
        assert not any(name.startswith(heads) for name in comp.params)
    assert (ctx.sem_enc.width, ctx.spk_enc.width) == (40, 24)
    params = tr.init_pipeline_params(ctx, seed=0)
    assert params["sem_adapter.a1.w"].shape[0] == 40
    assert params["spk_adapter.a1.w"].shape[0] == 24

    ckpt = run / "encoders" / "semantic.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    ckpt.write_bytes(bytes(raw))
    assert cli.main(base + ["train", "--stage", "asr"]) == cli.EXIT_FORMAT
    assert "ERR:FORMAT" in capsys.readouterr().err
