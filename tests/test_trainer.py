"""Trainer mechanics: loss algebra, routing, freezing, mixing, determinism."""

import dataclasses

import numpy as np
import pytest

from synthvc import numerics as nm
from synthvc import streamlm as sl
from synthvc import synthworld as sw
from synthvc import trainer as tr
from synthvc.codec import encode
from synthvc.encoders import sample_bucket
from synthvc.errors import ConfigError, TrainingDivergedError
from synthvc.optim import Adam


def make_state(ctx, seed=7401, lr=1e-3):
    params = tr.init_pipeline_params(ctx, seed)
    return tr.TrainState(params=params, opt=Adam(lr=lr, warmup=10, clip=1.0))


# ---------------------------------------------------------------------------
# loss formulas


def test_asr_loss_uniform_logits_is_log40():
    # L_ASR = CE(y_t, y_hat_t); uniform logits over the 40-entry text table
    logits = nm.constant(np.zeros((7, sw.TEXT_VOCAB), dtype=np.float32))
    loss = nm.cross_entropy(logits, np.arange(7) % 35)
    assert abs(loss.item() - np.log(40.0)) < 1e-6


def test_asr_loss_perfect_prediction_near_zero():
    logits = np.full((5, sw.TEXT_VOCAB), -30.0, dtype=np.float32)
    targets = [3, 1, 4, 1, 34]
    for i, t in enumerate(targets):
        logits[i, t] = 30.0
    loss = nm.cross_entropy(nm.constant(logits), targets)
    assert loss.item() < 1e-4


def test_vc_loss_formula_oracle(default_plan):
    # direct formula evaluation: 0.3*2.0 + 0.7*(1.0*1.0 + 0.9*2.0) = 2.56
    plan = dataclasses.replace(default_plan, w=0.3, lambdas=(1.0, 0.9))
    ce_t = nm.constant(np.float32(2.0))
    ce_a = [nm.constant(np.float32(1.0)), nm.constant(np.float32(2.0))]
    loss = tr.combine_vc_loss(ce_t, ce_a, plan)
    assert abs(loss.item() - 2.56) < 1e-6


def test_vc_loss_w1_reduces_bitwise_to_text_ce(default_plan):
    plan = dataclasses.replace(default_plan, w=1.0, lambdas=(1.0, 0.9, 0.8, 0.7))
    rng = np.random.default_rng(3)
    ce_t = nm.constant(np.float32(rng.uniform(0.5, 4.0)))
    ce_a = [nm.constant(np.float32(rng.uniform(0.5, 4.0))) for _ in range(4)]
    loss = tr.combine_vc_loss(ce_t, ce_a, plan)
    assert loss.item() == ce_t.item()


def test_vc_loss_w0_zero_grad_on_text_head(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    plan = dataclasses.replace(default_plan, w=0.0)
    rng = np.random.default_rng(5)
    batch = sample_bucket(ctx.buckets, rng, 3)
    tape = nm.Tape()
    with tape:
        loss, _, _ = tr._vc_pool_loss(ctx, state.params, batch, plan, plan.vc_real_prob, rng)
    grads = tape.backward(loss, state.params)
    g = grads.get("lm.text_head.w")
    assert g is None or not np.any(g)


def test_loss_decomposition_matches_independent_recomputation(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    plan = dataclasses.replace(default_plan, w=0.5)
    rng = np.random.default_rng(11)
    for _ in range(10):
        batch = sample_bucket(ctx.buckets, rng, 4)
        res = tr.vc_step(batch, state, ctx, plan, rng)
        expected = plan.w * res.ce_text + (1 - plan.w) * sum(
            lam * ce for lam, ce in zip(plan.lambdas, res.ce_acoustic))
        assert abs(res.loss - expected) < 1e-6


# ---------------------------------------------------------------------------
# routing and freezing


def test_asr_step_no_speaker_adapter_gradient(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    rng = np.random.default_rng(7)
    batch = sample_bucket(ctx.buckets, rng, 3)
    tape = nm.Tape()
    with tape:
        loss, _ = tr._asr_pool_loss(ctx, state.params, batch, default_plan, rng)
    grads = tape.backward(loss, state.params)
    assert not any(name.startswith("spk_adapter") for name in grads)
    assert any(name.startswith("sem_adapter") for name in grads)


def test_joint_all_asr_leaves_speaker_adapter_bits(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    plan = dataclasses.replace(default_plan, asr_fraction=1.0)
    rng = np.random.default_rng(9)
    before = {k: state.params[k].data.copy() for k in state.params
              if k.startswith("spk_adapter")}
    batch = sample_bucket(ctx.buckets, rng, 4)
    res = tr.joint_step(batch, state, ctx, plan, coin=rng)
    assert res.ce_acoustic is None      # no instance was drawn into the VC pool
    for k, v in before.items():
        assert np.array_equal(state.params[k].data, v)


def test_joint_all_vc_reduces_to_vc_path(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    plan = dataclasses.replace(default_plan, asr_fraction=0.0, w_prime=0.2)
    rng = np.random.default_rng(13)
    batch = sample_bucket(ctx.buckets, rng, 4)
    res = tr.joint_step(batch, state, ctx, plan, coin=rng)
    vc_part = plan.w * res.ce_text + (1 - plan.w) * sum(
        lam * ce for lam, ce in zip(plan.lambdas, res.ce_acoustic))
    assert abs(res.loss - (1 - plan.w_prime) * vc_part) < 1e-5


def test_joint_draw_fraction_binomial():
    coin = np.random.default_rng(17)
    items = list(range(100))
    n_asr = n_tot = 0
    while n_tot < 10000:
        asr, vc = tr.joint_split(items, 0.2, coin)
        n_asr += len(asr)
        n_tot += len(items)
    frac = n_asr / n_tot
    assert abs(frac - 0.20) <= 0.02


def test_frozen_bits_unchanged_across_steps(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    rng = np.random.default_rng(19)
    before = ctx.frozen_hash()
    for _ in range(3):
        batch = sample_bucket(ctx.buckets, rng, 3)
        tr.vc_step(batch, state, ctx, default_plan, rng)
    assert ctx.frozen_hash() == before


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("stage", tr.STAGES)
def test_non_finite_forward_diverges_before_any_update(bare_context, default_plan, stage):
    """A non-finite forward in any stage's step raises TrainingDivergedError
    naming the stage, the global step and the batch, and leaves every
    parameter and the step count as they were."""
    ctx = bare_context
    state = make_state(ctx)
    state.step = 5
    # one text logit at +3e38 and the rest at -3e38: the text CE, ~6e38,
    # overflows float32
    bias = np.full(state.params["lm.text_head.b"].shape, -3e38, dtype=np.float32)
    bias[0] = 3e38
    state.params["lm.text_head.b"] = nm.Tensor(bias, requires_grad=True)
    before = {k: p.data.copy() for k, p in state.params.items()}
    rng = np.random.default_rng(53)
    batch = sample_bucket(ctx.buckets, rng, 4)
    step_fn = {"asr": tr.asr_step, "vc": tr.vc_step, "joint": tr.joint_step}[stage]
    ids = [u.utt_id for u in batch]
    with pytest.raises(TrainingDivergedError) as info:
        step_fn(batch, state, ctx, default_plan, rng)
    assert str(info.value) == f"stage {stage} step 5: non-finite loss on batch {ids}"
    assert state.step == 5
    assert sorted(state.params) == sorted(before)
    for k, p in state.params.items():
        assert np.array_equal(p.data, before[k]), k


@pytest.mark.parametrize("seed,size", [(41, 6), (42, 6), (43, 3), (44, 1)])
def test_source_features_batched_equals_per_item_loop(bare_context, seed, size):
    ctx = bare_context
    batch = sample_bucket(ctx.buckets, np.random.default_rng(seed), size)
    rng_batched, rng_loop = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    got = tr._source_features(ctx, batch, rng_batched)
    train_ids = ctx.splits.train_speaker_ids
    want = []
    for u in batch:   # one render and one frozen forward per item, in draw order
        sid = int(train_ids[rng_loop.integers(len(train_ids))])
        r = sw.render(ctx.splits.vocab, u.text, ctx.splits.speakers[sid], sw.PRISTINE,
                      int(rng_loop.integers(2**31)))
        want.append(ctx.sem_enc.features(r.frames))
    assert got.shape == (len(batch),) + want[0].shape
    assert np.array_equal(got, np.stack(want))
    assert rng_batched.bit_generator.state == rng_loop.bit_generator.state


def test_vc_pool_grids_hold_each_targets_own_codes(bare_context, monkeypatch, default_plan):
    ctx = bare_context
    targets, grid_codes = [], []
    select, build = tr.select_target, sl.build_delayed_grid

    def recording_select(*args):
        r = select(*args)
        targets.append(r.frames)
        return r

    def recording_build(text, codes, layout):
        grid_codes.append(np.array(codes))
        return build(text, codes, layout)

    monkeypatch.setattr(tr, "select_target", recording_select)
    monkeypatch.setattr(sl, "build_delayed_grid", recording_build)
    batch = sample_bucket(ctx.buckets, np.random.default_rng(47), 6)
    tr._vc_pool_loss(ctx, make_state(ctx).params, batch, default_plan, 0.5,
                     np.random.default_rng(48))
    assert len(targets) == len(grid_codes) == len(batch)
    for frames, codes in zip(targets, grid_codes):   # one encode call per target
        assert np.array_equal(codes, encode(frames, ctx.codec).codes)


@pytest.mark.parametrize("steps,interval,evals", [(4, 2, 2), (3, 2, 2), (0, 2, 1)])
def test_train_stage_scores_heldout_once_per_eval(bare_context, monkeypatch,
                                                  steps, interval, evals, default_plan):
    calls = {"heldout_text_accuracy": 0, "heldout_acoustic_ce": 0}
    for name in calls:
        def counted(ctx, params, _f=getattr(tr, name), _name=name):
            calls[_name] += 1
            return _f(ctx, params)
        monkeypatch.setattr(tr, name, counted)
    rows = []
    plan = dataclasses.replace(default_plan, vc_steps=steps, eval_interval=interval)
    report = tr.train_stage(make_state(bare_context), bare_context, plan, "vc",
                            metrics_rows=rows)
    assert calls == {"heldout_text_accuracy": evals, "heldout_acoustic_ce": evals}
    assert len(rows) == (evals if steps else 0)
    if rows:
        assert rows[-1][0] == steps and rows[-1][2] == report["final_loss"]
        assert rows[-1][3:] == (report["heldout_text_accuracy"], report["heldout_acoustic_ce"])


# ---------------------------------------------------------------------------
# target selection


def test_select_target_always_pristine_at_prob_one(bare_context):
    ctx = bare_context
    rng = np.random.default_rng(23)
    for utt in ctx.splits.utterances[:20]:
        t = tr.select_target(ctx, utt, ctx.splits.train_speaker_ids[0], 1.0, rng)
        assert t.channel == sw.PRISTINE


def test_select_target_percentage_and_transcript(bare_context):
    ctx = bare_context
    rng = np.random.default_rng(29)
    utt = ctx.splits.utterances[0]
    tgt = ctx.splits.train_speaker_ids[3]
    pristine = 0
    n = 10000
    for _ in range(n):
        t = tr.select_target(ctx, utt, tgt, 0.8, rng)
        pristine += t.channel == sw.PRISTINE
        assert t.transcript == utt.text
    assert abs(pristine / n - 0.80) <= 0.02


# ---------------------------------------------------------------------------
# optimizer guarantees


def test_optimizer_lr_zero_changes_nothing():
    rng = np.random.default_rng(31)
    params = {"a.w": nm.Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)}
    before = params["a.w"].data.copy()
    opt = Adam(lr=0.0, warmup=0, clip=0.0)
    for _ in range(5):
        opt.step(params, {"a.w": rng.normal(size=(3, 3)).astype(np.float32)})
    assert np.array_equal(params["a.w"].data, before)


def test_optimizer_touches_only_named_grads():
    rng = np.random.default_rng(37)
    params = {
        "a.w": nm.Tensor(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True),
        "b.w": nm.Tensor(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True),
    }
    before_b = params["b.w"].data.copy()
    opt = Adam(lr=1e-2, warmup=0, clip=0.0)
    opt.step(params, {"a.w": np.ones((2, 2), dtype=np.float32)})
    assert np.array_equal(params["b.w"].data, before_b)
    assert not np.array_equal(params["a.w"].data, before_b)


# ---------------------------------------------------------------------------
# pipeline scaffolding


@pytest.mark.parametrize("field,bad", [
    ("w", 1.5), ("w_prime", -0.1), ("asr_fraction", 2.0), ("vc_real_prob", -1.0),
    ("joint_real_prob", 1.5), ("text_input_dropout", float("nan")), ("asr_steps", -1),
    ("vc_steps", -1), ("joint_steps", -1), ("batch", 0), ("eval_interval", 0)])
def test_train_plan_validation(field, bad, default_plan):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(default_plan, **{field: bad})


def test_run_pipeline_enforces_stage_order(bare_context, default_plan):
    with pytest.raises(ConfigError):
        tr.run_pipeline(bare_context, default_plan, stages=("vc", "asr"))


def test_run_pipeline_checks_lambdas_before_any_stage(bare_context, monkeypatch, default_plan):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(tr, "train_stage", no_stage)
    with pytest.raises(ConfigError, match="lambdas"):
        tr.run_pipeline(bare_context, dataclasses.replace(default_plan, lambdas=(1.0, 0.9)))


def test_run_pipeline_tiny_deterministic(splits, codec, sem_enc, spk_enc, lm_cfg,
                                        default_plan):
    plan = dataclasses.replace(default_plan, asr_steps=12, vc_steps=12, joint_steps=12,
                               eval_interval=6)
    ctx_a = tr.PipelineContext(splits, codec, sem_enc, spk_enc, lm_cfg)
    ctx_b = tr.PipelineContext(splits, codec, sem_enc, spk_enc, lm_cfg)
    a = tr.run_pipeline(ctx_a, plan)
    b = tr.run_pipeline(ctx_b, plan)
    assert set(a.params) == set(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data), k
    assert a.metrics_rows == b.metrics_rows


def test_metrics_log_format(tmp_path):
    rows = [(10, "asr", 1.5, 0.9, 3.2), (20, "asr", 1.2, 0.95, 3.0)]
    path = tmp_path / "metrics.tsv"
    tr.write_metrics_log(path, rows)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t") == ["10", "asr", "1.5", "0.9", "3.2"]
