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

from harness import render_one, spy_renders


def make_state(ctx, seed=7401, lr=1e-3):
    params = tr.init_pipeline_params(ctx, seed)
    return tr.TrainState(params=params, opt=Adam(lr=lr, warmup=10, clip=1.0))


# ---------------------------------------------------------------------------
# loss formulas


def test_asr_loss_uniform_logits_is_log40():
    # L_ASR = CE(y_t, y_hat_t); uniform logits over the 40-entry text table
    logits = nm.constant(np.zeros((7, sl.TEXT_VOCAB), dtype=np.float32))
    loss = nm.cross_entropy(logits, np.arange(7) % 35)
    assert abs(loss.item() - np.log(40.0)) < 1e-6


def test_asr_loss_perfect_prediction_near_zero():
    logits = np.full((5, sl.TEXT_VOCAB), -30.0, dtype=np.float32)
    targets = [3, 1, 4, 1, 34]
    for i, t in enumerate(targets):
        logits[i, t] = 30.0
    loss = nm.cross_entropy(nm.constant(logits), targets)
    assert loss.item() < 1e-4


def test_vc_loss_formula_oracle(bare_context, default_plan, monkeypatch):
    # the pool's stream CEs stubbed to 2.0 (text) and 1.0, 2.0, 0.5, 4.0:
    # 0.3*2.0 + 0.7*(1.0*1.0 + 0.9*2.0 + 0.8*0.5 + 0.7*4.0) = 4.8
    ctx = bare_context
    assert ctx.lm_cfg.layout.n_layers == 4
    plan = dataclasses.replace(default_plan, w=0.3, lambdas=(1.0, 0.9, 0.8, 0.7),
                               text_loss_scale=1.0)
    values = iter([2.0, 1.0, 2.0, 0.5, 4.0])
    monkeypatch.setattr(nm, "cross_entropy",
                        lambda *args: nm.constant(np.float32(next(values))))
    rng = np.random.default_rng(3)
    batch = sample_bucket(ctx.buckets, rng, 3)
    loss, ces = tr._vc_pool_loss(ctx, make_state(ctx).params, batch, plan, 0.5, rng)
    assert ces == (2.0, 1.0, 2.0, 0.5, 4.0)
    assert abs(loss.item() - 4.8) < 1e-6


def test_vc_loss_w1_reduces_bitwise_to_text_ce(bare_context, default_plan):
    ctx = bare_context
    plan = dataclasses.replace(default_plan, w=1.0, text_loss_scale=1.0)
    rng = np.random.default_rng(3)
    batch = sample_bucket(ctx.buckets, rng, 3)
    loss, ces = tr._vc_pool_loss(ctx, make_state(ctx).params, batch, plan, 0.5, rng)
    assert len(ces) == 1 + ctx.lm_cfg.layout.n_layers
    assert loss.item() == ces[0]


@pytest.mark.parametrize("scale", [1.0, 0.0])
def test_asr_pool_loss_is_scaled_text_ce(bare_context, default_plan, scale):
    """L_ASR is the text CE alone: bit-equal to it at text_loss_scale 1, and
    at scale 0 every gradient is zero."""
    ctx = bare_context
    state = make_state(ctx)
    plan = dataclasses.replace(default_plan, text_loss_scale=scale)
    rng = np.random.default_rng(23)
    batch = sample_bucket(ctx.buckets, rng, 3)
    tape = nm.Tape()
    with tape:
        loss, ces = tr._asr_pool_loss(ctx, state.params, batch, plan, rng)
    grads = tape.backward(loss, state.params)
    assert len(ces) == 1 and ces[0] > 0.0
    if scale == 1.0:
        assert loss.item() == ces[0]
        assert any(np.any(g) for g in grads.values())
    else:
        assert loss.item() == 0.0
        assert grads and not any(np.any(g) for g in grads.values())


def test_vc_loss_w0_zero_grad_on_text_head(bare_context, default_plan):
    ctx = bare_context
    state = make_state(ctx)
    plan = dataclasses.replace(default_plan, w=0.0)
    rng = np.random.default_rng(5)
    batch = sample_bucket(ctx.buckets, rng, 3)
    tape = nm.Tape()
    with tape:
        loss, _ = tr._vc_pool_loss(ctx, state.params, batch, plan, plan.vc_real_prob, rng)
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
def test_source_features_batched_equals_per_item_loop(bare_context, monkeypatch, seed, size):
    ctx = bare_context
    batch = sample_bucket(ctx.buckets, np.random.default_rng(seed), size)
    rng_batched, rng_loop = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    calls = spy_renders(monkeypatch)
    got = tr._source_features(ctx, batch, rng_batched)
    assert [len(c) for c in calls] == [len(batch)]   # one render for the whole batch
    train_ids = ctx.splits.train_speaker_ids
    want = []
    for u in batch:   # one render and one frozen forward per item, in draw order
        sid = int(train_ids[rng_loop.integers(len(train_ids))])
        frames = render_one(ctx.splits.vocab, u.text, ctx.splits.speakers[sid], sw.PRISTINE,
                            int(rng_loop.integers(2**31)))
        want.append(ctx.sem_enc.features(frames[None])[0])
    assert got.shape == (len(batch),) + want[0].shape
    assert np.array_equal(got, np.stack(want))
    assert rng_batched.bit_generator.state == rng_loop.bit_generator.state


def test_vc_pool_grids_hold_each_targets_own_codes(bare_context, monkeypatch, default_plan):
    ctx = bare_context
    targets, grid_codes = [], []
    select, build = tr.select_target, sl.build_delayed_grid

    def recording_select(*args):
        render = select(*args)
        targets.append(render)
        return render

    def recording_build(text, codes, layout):
        grid_codes.append(np.array(codes))
        return build(text, codes, layout)

    monkeypatch.setattr(tr, "select_target", recording_select)
    monkeypatch.setattr(sl, "build_delayed_grid", recording_build)
    batch = sample_bucket(ctx.buckets, np.random.default_rng(47), 6)
    tr._vc_pool_loss(ctx, make_state(ctx).params, batch, default_plan, 0.5,
                     np.random.default_rng(48))
    assert len(targets) == len(grid_codes) == len(batch)
    for (text, sid, channel, seed), codes in zip(targets, grid_codes):   # one encode per target
        frames = render_one(ctx.splits.vocab, text, ctx.splits.speakers[sid], channel, seed)
        assert np.array_equal(codes, encode(frames, ctx.codec))


@pytest.mark.parametrize("seed,size,real_prob", [(61, 6, 0.5), (62, 3, 0.8), (63, 2, 1.0)])
def test_vc_pool_targets_equal_the_per_item_loop(bare_context, monkeypatch, default_plan,
                                                 seed, size, real_prob):
    ctx = bare_context
    batch = sample_bucket(ctx.buckets, np.random.default_rng(seed), size)
    grid_codes, entry_state = [], []
    build = sl.build_delayed_grid

    def recording_build(text, codes, layout):
        grid_codes.append(np.array(codes))
        return build(text, codes, layout)

    def stop_at_pool_loss(ctx, params, utts, grids, spk, weights, plan, rng):
        entry_state.append(rng.bit_generator.state)
        return None

    monkeypatch.setattr(sl, "build_delayed_grid", recording_build)
    monkeypatch.setattr(tr, "_pool_loss", stop_at_pool_loss)
    calls = spy_renders(monkeypatch)
    tr._vc_pool_loss(ctx, make_state(ctx).params, batch, default_plan, real_prob,
                     np.random.default_rng(seed + 100))
    calls = list(calls)
    # the per-item loop the batched targets replace: speaker, reference index,
    # then select_target's channel and seed draws, one render and encode each
    rng = np.random.default_rng(seed + 100)
    train_ids = ctx.splits.train_speaker_ids
    want = []
    for u in batch:
        tgt = int(train_ids[rng.integers(len(train_ids))])
        rng.integers(tr.PipelineContext.REF_POOL_SIZE)
        channel = sw.PRISTINE if rng.random() < real_prob else sw.DEGRADED
        item = (tuple(u.text), tgt, channel, int(rng.integers(2**31)))
        want.append((item, encode(render_one(ctx.splits.vocab, u.text, ctx.splits.speakers[tgt],
                                             channel, item[3]), ctx.codec)))
    assert entry_state == [rng.bit_generator.state]
    # the targets are one call; the rest are one-item reference renders
    assert [c for c in calls if len(c) > 1] == [[item for item, _ in want]]
    assert len(grid_codes) == len(batch)
    for (_, codes), got in zip(want, grid_codes):
        assert np.array_equal(got, codes)


@pytest.mark.parametrize("steps,interval,evals", [(4, 2, 2), (3, 2, 2), (0, 2, 1)])
def test_train_stage_scores_heldout_once_per_eval(bare_context, monkeypatch,
                                                  steps, interval, evals, default_plan):
    calls = {"heldout_text_accuracy": 0, "heldout_acoustic_ce": 0}
    for name in calls:
        def counted(ctx, params, _f=getattr(tr, name), _name=name):
            calls[_name] += 1
            return _f(ctx, params)
        monkeypatch.setattr(tr, name, counted)
    plan = dataclasses.replace(default_plan, vc_steps=steps, eval_interval=interval)
    report = tr.train_stage(make_state(bare_context), bare_context, plan, "vc")
    assert calls == {"heldout_text_accuracy": evals, "heldout_acoustic_ce": evals}
    curve = report["curve"]
    assert len(curve) == (evals if steps else 0)
    if curve:
        assert curve[-1] == {"step": steps, "loss": report["final_loss"],
                             "heldout_text_accuracy": report["heldout_text_accuracy"],
                             "heldout_acoustic_ce": report["heldout_acoustic_ce"]}


# ---------------------------------------------------------------------------
# target selection


def test_select_target_always_pristine_at_prob_one(bare_context):
    ctx = bare_context
    rng = np.random.default_rng(23)
    calls = [tr.select_target(utt, ctx.splits.train_speaker_ids[0], 1.0, rng)[:3]
             for utt in ctx.splits.utterances[:20]]
    assert len(calls) == 20 and all(ch == sw.PRISTINE for _, _, ch in calls)


def test_select_target_percentage_and_transcript(bare_context):
    ctx = bare_context
    rng = np.random.default_rng(29)
    utt = ctx.splits.utterances[0]
    tgt = ctx.splits.train_speaker_ids[3]
    n = 10000
    calls = [tr.select_target(utt, tgt, 0.8, rng)[:3] for _ in range(n)]
    assert len(calls) == n
    assert all(text == utt.text and sid == tgt for text, sid, _ in calls)
    pristine = sum(ch == sw.PRISTINE for _, _, ch in calls)
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


class _AdamFormula:
    """The Adam step the in-place one replaced, verbatim."""

    def __init__(self, lr, warmup, clip):
        self.lr, self.warmup, self.clip = lr, warmup, clip
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
        from synthvc.optim import BETA1, BETA2, EPS
        self.t += 1
        lr = self.lr
        if self.warmup > 0:
            lr = lr * min(1.0, self.t / self.warmup)

        names = sorted(grads)
        sq = 0.0
        for n in names:
            g = grads[n].astype(np.float64)
            sq += float(np.sum(g * g))
        norm = float(np.sqrt(sq))
        clipped = False
        scale = 1.0
        if self.clip > 0.0 and norm > self.clip:
            scale = self.clip / norm
            clipped = True

        b1, b2, eps = BETA1, BETA2, EPS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for n in names:
            g = grads[n].astype(np.float32) * np.float32(scale)
            if n not in self.m:
                self.m[n] = np.zeros_like(g)
                self.v[n] = np.zeros_like(g)
            self.m[n] = b1 * self.m[n] + (1.0 - b1) * g
            self.v[n] = b2 * self.v[n] + (1.0 - b2) * (g * g)
            m_hat = self.m[n] / c1
            v_hat = self.v[n] / c2
            update = (np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(eps))).astype(np.float32)
            params[n] = nm.Tensor(params[n].data - update, requires_grad=True)
        return norm, clipped


@pytest.mark.parametrize("clip", [0.0, 1.0])
def test_adam_bitwise_equals_formula(clip):
    rng = np.random.default_rng(41 + int(clip))
    shapes = {"a.w": (7, 5), "a.b": (5,), "b.mid": (3, 2), "emb": (3, 4, 6), "z": (129,)}
    never = {"c.never": (4, 3)}   # sorts between b.mid and emb; never gets a gradient
    init = {n: rng.normal(size=s).astype(np.float32) for n, s in {**shapes, **never}.items()}
    sides = []
    for opt in (Adam(lr=3e-3, warmup=8, clip=clip), _AdamFormula(lr=3e-3, warmup=8, clip=clip)):
        params = {n: nm.Tensor(a, requires_grad=True) for n, a in init.items()}
        sides.append((opt, params))
    clipped = []
    for step in range(24):
        # a spread of gradient norms around the clip, a name missing some
        # steps at the end of the sorted order and one in the middle (so a
        # step walks one, two or three runs), and one float64 gradient
        grads = {n: (rng.normal(size=s) * 10.0 ** rng.uniform(-3, 1)).astype(np.float32)
                 for n, s in shapes.items()
                 if (n != "z" or step % 3) and (n != "b.mid" or step % 2)}
        grads["a.b"] = grads["a.b"].astype(np.float64)
        stats = sides[0][0].step(sides[0][1], grads)
        norm, was_clipped = sides[1][0].step(sides[1][1], grads)
        assert stats.grad_norm == norm and stats.clipped == was_clipped
        clipped.append(was_clipped)
        for n in shapes:
            got, want = sides[0][1][n], sides[1][1][n]
            assert got.requires_grad and not got.data.flags.writeable
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
        assert sides[0][1]["c.never"].data.tobytes() == init["c.never"].tobytes()
    assert any(clipped) == (clip > 0) and not all(clipped)
    (new, _), (old, _) = sides
    assert sorted(old.m) == sorted(old.v) == sorted(shapes)
    assert sorted(new._spans) == sorted(init)
    for n in init:   # every moment's span in the flat buffers
        _, a, b = new._spans[n]
        m, v = new._m[a:b], new._v[a:b]
        if n in shapes:
            assert m.tobytes() == old.m[n].tobytes() and v.tobytes() == old.v[n].tobytes()
        else:
            assert not m.any() and not v.any()


# ---------------------------------------------------------------------------
# pipeline scaffolding


@pytest.mark.parametrize("field,bad", [
    ("w", 1.5), ("w_prime", -0.1), ("asr_fraction", 2.0), ("vc_real_prob", -1.0),
    ("joint_real_prob", 1.5), ("text_input_dropout", float("nan")), ("asr_steps", -1),
    ("vc_steps", -1), ("joint_steps", -1), ("batch", 0), ("eval_interval", 0),
    ("gen_tail", 0), ("gen_tail", -3), ("lr", -0.001), ("lr", 0.0), ("lr", float("nan")),
    ("clip", -1.0), ("clip", float("nan")), ("warmup", -1), ("text_loss_scale", -0.5),
    ("text_loss_scale", float("nan")), ("lambdas", (1.0, -0.1, 0.8, 0.7)),
    ("lambdas", (float("nan"), 0.9, 0.8, 0.7))])
def test_train_plan_validation(field, bad, default_plan):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(default_plan, **{field: bad})


def test_run_pipeline_enforces_stage_order(bare_context, default_plan):
    with pytest.raises(ConfigError):
        tr.run_pipeline(bare_context, default_plan, stages=("vc", "asr"))


def test_run_pipeline_refuses_a_stage_tuple_with_a_gap(bare_context, monkeypatch, default_plan):
    """("asr", "joint") is in order but skips vc: joint would start from the
    ASR weights, with steps numbered unlike `train --stage joint`'s."""
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(tr, "train_stage", no_stage)
    with pytest.raises(ConfigError, match="contiguous"):
        tr.run_pipeline(bare_context, default_plan, stages=("asr", "joint"))


def test_run_pipeline_checks_lambdas_before_any_stage(bare_context, monkeypatch, default_plan):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(tr, "train_stage", no_stage)
    with pytest.raises(ConfigError, match="lambdas"):
        tr.run_pipeline(bare_context, dataclasses.replace(default_plan, lambdas=(1.0, 0.9)))


@pytest.mark.parametrize("max_steps", [0, 5])
def test_run_pipeline_checks_gen_max_steps_before_any_stage(bare_context, monkeypatch,
                                                            default_plan, max_steps):
    """A decode cap too short for a delayed grid over the codec's layers
    fails before training, not in `generate` after the first stage."""
    assert max_steps < bare_context.lm_cfg.layout.n_layers + 2

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")
    monkeypatch.setattr(tr, "train_stage", no_stage)
    with pytest.raises(ConfigError, match="gen_max_steps"):
        tr.run_pipeline(bare_context, dataclasses.replace(default_plan, gen_max_steps=max_steps))


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
    assert a.stage_reports == b.stage_reports
