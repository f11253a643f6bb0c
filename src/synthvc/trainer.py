"""Three-stage optimization: ASR pretraining, VC training, joint ASR-VC.

One `TrainPlan` configures all three stages and is validated when it is
built, so a bad value fails before any training runs. Every training pool
goes through one loss path, `_pool_loss`: a weighted sum of per-stream CEs,
with weights (1,) over the text stream for L_ASR and (w, (1 - w) * lambda_i)
over all streams for L_VC. The frozen components (encoders, codec) never
enter the optimizer state; ASR-mode instances condition on a learned
null-speaker row and route no gradient to the speaker adapter. Batches are
drawn from same-text-length buckets so grids stack without padding.
Everything is a deterministic function of the plan's seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from . import numerics as nm
from . import streamlm as sl
from . import synthworld as sw
from .codec import RVQCodec, encode
from .encoders import (SemanticEncoder, SpeakerEncoder, apply_adapter,
                       bucket_by_length, init_adapter, sample_bucket)
from .errors import ConfigError, TrainingDivergedError
from .evaluation import EvalPair, OracleTranscriber, OracleVerifier, evaluate_conversion
from .numerics import Tensor
from .optim import Adam, descend

STAGE_ASR = "asr"
STAGE_VC = "vc"
STAGE_JOINT = "joint"
STAGES = (STAGE_ASR, STAGE_VC, STAGE_JOINT)


@dataclass(frozen=True)
class TrainPlan:
    """The one training config: the three-stage schedule and its losses.

    Stage `name` runs its own step count from seed `seed + STAGES.index(name)`;
    the vc and joint stages render pristine targets with probability
    vc_real_prob and joint_real_prob. Values are range-checked here, so a
    bad one fails before any stage runs; `run_pipeline` checks `lambdas`
    and `gen_max_steps` against the codec's layer count.
    """

    asr_steps: int
    vc_steps: int
    joint_steps: int
    w: float
    lambdas: tuple[float, ...]
    w_prime: float
    asr_fraction: float
    vc_real_prob: float
    joint_real_prob: float
    lr: float
    warmup: int
    clip: float
    batch: int
    seed: int
    text_loss_scale: float
    text_input_dropout: float
    eval_interval: int
    gen_max_steps: int
    gen_tail: int

    def __post_init__(self):
        for label in ("w", "w_prime", "asr_fraction", "vc_real_prob", "joint_real_prob",
                      "text_input_dropout"):
            v = getattr(self, label)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"train plan: {label}={v} outside [0, 1]")
        floors = {"asr_steps": 0, "vc_steps": 0, "joint_steps": 0, "batch": 1, "eval_interval": 1,
                  "gen_tail": 1, "warmup": 0, "clip": 0, "text_loss_scale": 0}
        checks = [(label, getattr(self, label), least) for label, least in floors.items()]
        checks += [(f"lambdas[{i}]", lam, 0) for i, lam in enumerate(self.lambdas)]
        for label, v, least in checks:
            if not v >= least:   # a NaN fails too
                raise ConfigError(f"train plan: {label}={v} below {least}")
        if not self.lr > 0.0:
            raise ConfigError(f"train plan: lr={self.lr} is not above 0")

    def stage_steps(self, name: str) -> int:
        return (self.asr_steps, self.vc_steps, self.joint_steps)[STAGES.index(name)]


@dataclass
class StepResult:
    """A step's loss and its last pool's text CE; ce_acoustic is set when
    the VC pool ran."""

    loss: float
    ce_text: float
    ce_acoustic: tuple[float, ...] | None


@dataclass
class TrainState:
    """Params and global step across stages; each stage starts its own
    optimizer, so there is none before the first."""

    params: dict[str, Tensor]
    opt: Adam | None = None
    step: int = 0


class PipelineContext:
    """Frozen components plus deterministic caches for training."""

    REF_POOL_SIZE = 8

    def __init__(self, splits: sw.CorpusSplits, codec: RVQCodec,
                 sem_enc: SemanticEncoder, spk_enc: SpeakerEncoder, lm_cfg: sl.LMConfig,
                 verifier: OracleVerifier | None = None,
                 transcriber: OracleTranscriber | None = None,
                 eval_pairs: list[EvalPair] | None = None):
        if lm_cfg.layout.n_layers != codec.n_layers:
            raise ConfigError("LM layout layer count does not match codec")
        self.splits = splits
        self.codec = codec
        self.sem_enc = sem_enc
        self.spk_enc = spk_enc
        self.verifier = verifier
        self.transcriber = transcriber
        self.eval_pairs = eval_pairs
        self.lm_cfg = lm_cfg
        self.buckets = bucket_by_length(splits.utterances)
        self._ref_pool: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        self._ref_emb: dict[tuple[int, int], np.ndarray] = {}
        self._build_ref_pool()
        self._metric_items = None

    def _build_ref_pool(self) -> None:
        rng = np.random.default_rng([0x9EF0, self.splits.seed])
        texts = self.splits.train_texts
        for sid in self.splits.train_speaker_ids:
            pool = []
            for _ in range(self.REF_POOL_SIZE):
                pool.append((texts[int(rng.integers(len(texts)))], int(rng.integers(2**31))))
            self._ref_pool[sid] = pool

    def reference_embedding(self, speaker_id: int, pool_idx: int,
                            avoid_text: tuple[int, ...]) -> np.ndarray:
        """Speaker embedding of a reference utterance with a different text."""
        pool = self._ref_pool[speaker_id]
        idx = pool_idx % len(pool)
        for shift in range(len(pool)):
            cand = (idx + shift) % len(pool)
            if pool[cand][0] != avoid_text:
                idx = cand
                break
        key = (speaker_id, idx)
        if key not in self._ref_emb:
            text, seed = pool[idx]
            frames = self.splits.render_batch([text], [speaker_id], [sw.PRISTINE], [seed])
            self._ref_emb[key] = self.spk_enc.embed(frames[0])
        return self._ref_emb[key]

    def frozen_hash(self) -> str:
        h = hashlib.sha256()
        h.update(nn.param_bytes(self.sem_enc.params))
        h.update(nn.param_bytes(self.spk_enc.params))
        for book in self.codec.codebooks:
            h.update(np.ascontiguousarray(book.centroids, dtype="<f4").tobytes())
        return h.hexdigest()

    def metric_items(self):
        """Fixed held-out fixtures for the training-time metrics columns."""
        if self._metric_items is None:
            rng = np.random.default_rng([0x3E7A, self.splits.seed])
            render_text = self.splits.render_text
            text_items = []
            for i in range(10):
                text = self.splits.heldout_texts[i % len(self.splits.heldout_texts)]
                sid = self.splits.heldout_speaker_ids[i % len(self.splits.heldout_speaker_ids)]
                frames = render_text(text, sid, sw.PRISTINE, rng)
                text_items.append((text, self.sem_enc.features(frames[None])[0]))
            ac_items = []
            hid = self.splits.heldout_speaker_ids
            for i in range(8):
                s_text = self.splits.heldout_texts[(i * 3) % len(self.splits.heldout_texts)]
                s_sid = hid[i % len(hid)]
                t_sid = hid[(i + 1) % len(hid)]
                r_text = self.splits.heldout_texts[(i * 3 + 1) % len(self.splits.heldout_texts)]
                src = render_text(s_text, s_sid, sw.PRISTINE, rng)
                ref = render_text(r_text, t_sid, sw.PRISTINE, rng)
                tgt = render_text(s_text, t_sid, sw.PRISTINE, rng)
                ac_items.append((s_text, self.sem_enc.features(src[None])[0],
                                 self.spk_enc.embed(ref), encode(tgt, self.codec)))
            self._metric_items = (text_items, ac_items)
        return self._metric_items


def init_pipeline_params(ctx: PipelineContext, seed: int) -> dict[str, Tensor]:
    params = sl.init_lm(ctx.lm_cfg, seed)
    init_adapter(params, seed, "sem_adapter", ctx.sem_enc.width, ctx.lm_cfg.dim)
    init_adapter(params, seed, "spk_adapter", ctx.spk_enc.width, ctx.lm_cfg.dim)
    return params


# ---------------------------------------------------------------------------
# batch assembly


def _source_features(ctx: PipelineContext, utts, rng: np.random.Generator) -> np.ndarray:
    """Semantic features (B, T', d_sem) of speaker-augmented fresh source renders.

    Re-rendering each text under a random train speaker with fresh noise
    mirrors the parallel-augmentation story and stops the LM keying on the
    fixed (text, speaker) corpus pairing. Each item draws its speaker and
    then its render seed from rng; the items share one text length, so one
    render gives the (B, T, F) frames and the frozen encoder runs once over
    the batch, with the same bits as one call per item.
    """
    train_ids = ctx.splits.train_speaker_ids
    sids, seeds = [], []
    for _ in utts:
        sids.append(int(train_ids[rng.integers(len(train_ids))]))
        seeds.append(sw.draw_seed(rng))
    return ctx.sem_enc.features(ctx.splits.render_batch(
        [u.text for u in utts], sids, [sw.PRISTINE] * len(utts), seeds))


def _dropped_text_inputs(tokens: np.ndarray, layout: sl.StreamLayout, p: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Replace a fraction of real text-stream input tokens with PAD.

    Targets stay intact; this only corrupts the teacher-forced inputs so the
    model cannot rely on memorized text prefixes instead of the semantic rows.
    """
    if p <= 0.0:
        return tokens
    out = tokens.copy()
    text_row = out[:, 0, :]
    hit = (rng.random(text_row.shape) < p) & (text_row < layout.content_ids[0])
    text_row[hit] = layout.pad_ids[0]
    return out


def select_target(source: sw.Utterance, target_speaker: int, real_prob: float,
                  rng: np.random.Generator) -> tuple:
    """The (text, speaker id, channel, seed) render of a parallel target: the
    source's text under the target speaker, pristine with probability
    real_prob, the channel drawn before the seed."""
    channel = sw.PRISTINE if rng.random() < real_prob else sw.DEGRADED
    return source.text, target_speaker, channel, sw.draw_seed(rng)


def _pool_loss(ctx, params, utts, grids, spk, weights, plan, rng):
    """sum_i weights[i] * CE_i over streams 0..len(weights)-1 of the grids,
    teacher-forced on fresh source features and speaker rows spk, the text
    CE first scaled by text_loss_scale. Returns the loss and the CE values.

    The mix is one float64 weighted sum rounded once, so the value is within
    0.5 ulp of an independent float64 recomputation from the CEs.
    """
    layout = ctx.lm_cfg.layout
    sem = apply_adapter(params, "sem_adapter",
                        nm.constant(_source_features(ctx, utts, rng)))
    tokens = np.stack([g.tokens for g in grids])
    masks = np.stack([sl.supervised_mask(g, layout) for g in grids])
    tokens_in = _dropped_text_inputs(tokens, layout, plan.text_input_dropout, rng)
    logits = sl.forward_batch(params, ctx.lm_cfg, sem, spk, tokens_in)
    ces = [nm.cross_entropy(nm.reshape(logits[i], (-1, logits[i].shape[-1])),
                            tokens[:, i, :].reshape(-1), masks[:, i, :].reshape(-1))
           for i in range(len(weights))]
    loss = nm.weighted_sum([nm.scale(ces[0], plan.text_loss_scale), *ces[1:]], weights)
    return loss, tuple(float(c.item()) for c in ces)


def _asr_pool_loss(ctx, params, utts, plan, rng):
    """L_ASR: the text-stream CE with the null-speaker prefix; acoustic rows
    all PAD."""
    grids = [sl.build_asr_grid(u.text, ctx.lm_cfg.layout) for u in utts]
    return _pool_loss(ctx, params, utts, grids, sl.null_speaker(params, ctx.lm_cfg, len(utts)),
                      (1.0,), plan, rng)


def _vc_pool_loss(ctx, params, utts, plan, real_prob, rng):
    """L_VC: w * CE_text + (1 - w) * sum_i lambda_i * CE_ac_i over a sub-batch
    whose targets are pristine with probability real_prob."""
    layout = ctx.lm_cfg.layout
    train_ids = ctx.splits.train_speaker_ids
    renders, spk_embs = [], []
    for u in utts:
        tgt = int(train_ids[rng.integers(len(train_ids))])
        ref_idx = int(rng.integers(PipelineContext.REF_POOL_SIZE))
        spk_embs.append(ctx.reference_embedding(tgt, ref_idx, tuple(u.text)))
        renders.append(select_target(u, tgt, real_prob, rng))
    targets = ctx.splits.render_batch(*zip(*renders))
    # encode quantizes frame by frame, so one call over all targets' rows
    # gives each target the codes of its own call
    codes = encode(targets.reshape(-1, targets.shape[-1]), ctx.codec)
    per_target = np.split(codes, len(utts), axis=1)
    grids = [sl.build_delayed_grid(u.text, c, layout) for u, c in zip(utts, per_target)]
    spk = apply_adapter(params, "spk_adapter", nm.constant(np.stack(spk_embs)))
    weights = (plan.w, *((1.0 - plan.w) * lam for lam in plan.lambdas))
    return _pool_loss(ctx, params, utts, grids, spk, weights, plan, rng)


def _step(name, batch, state: TrainState, ctx: PipelineContext, plan: TrainPlan,
          rng: np.random.Generator, asr_items, vc_items, asr_weight: float,
          real_prob: float) -> StepResult:
    """One descent step on asr_weight * L_ASR(asr_items) + (1 - asr_weight) *
    L_VC(vc_items), the VC targets pristine with probability real_prob. An
    empty pool adds no term, so a one-pool step's loss is its pool's loss."""
    ces = ()

    def loss_fn():
        nonlocal ces
        terms, weights = [], []
        if asr_items:
            asr_loss, ces = _asr_pool_loss(ctx, state.params, asr_items, plan, rng)
            terms.append(asr_loss)
            weights.append(asr_weight)
        if vc_items:
            vc_loss, ces = _vc_pool_loss(ctx, state.params, vc_items, plan, real_prob, rng)
            terms.append(vc_loss)
            weights.append(1.0 - asr_weight)
        return nm.weighted_sum(terms, weights)

    loss = descend(state.opt, state.params, loss_fn,
                   f"stage {name} step {state.step}: non-finite loss on "
                   f"batch {[u.utt_id for u in batch]}")
    state.step += 1
    return StepResult(loss=loss, ce_text=ces[0], ce_acoustic=ces[1:] or None)


def asr_step(batch, state: TrainState, ctx: PipelineContext, plan: TrainPlan,
             rng: np.random.Generator) -> StepResult:
    return _step(STAGE_ASR, batch, state, ctx, plan, rng, batch, [], 1.0, 0.0)


def vc_step(batch, state: TrainState, ctx: PipelineContext, plan: TrainPlan,
            rng: np.random.Generator) -> StepResult:
    return _step(STAGE_VC, batch, state, ctx, plan, rng, [], batch, 0.0, plan.vc_real_prob)


def joint_split(batch, asr_fraction: float, coin: np.random.Generator):
    """Draw each instance as ASR with probability asr_fraction, else VC."""
    draws = coin.random(len(batch))
    asr_items = [u for u, d in zip(batch, draws) if d < asr_fraction]
    vc_items = [u for u, d in zip(batch, draws) if d >= asr_fraction]
    return asr_items, vc_items


def joint_step(batch, state: TrainState, ctx: PipelineContext, plan: TrainPlan,
               coin: np.random.Generator) -> StepResult:
    """Each instance is ASR with probability asr_fraction, else VC; the pools
    combine as w' * L_ASR + (1 - w') * L_VC."""
    return _step(STAGE_JOINT, batch, state, ctx, plan, coin,
                 *joint_split(batch, plan.asr_fraction, coin), plan.w_prime,
                 plan.joint_real_prob)


# ---------------------------------------------------------------------------
# held-out metrics during training


def heldout_text_accuracy(ctx: PipelineContext, params: dict) -> float:
    hit = tot = 0
    for text, feats in ctx.metric_items()[0]:
        grid = sl.build_asr_grid(text, ctx.lm_cfg.layout)
        sem = apply_adapter(params, "sem_adapter", nm.constant(feats))
        logits = sl.forward(params, ctx.lm_cfg, sem, None, grid)
        mask = sl.supervised_mask(grid, ctx.lm_cfg.layout)[0]
        pred = logits[0].data.argmax(axis=-1)
        hit += int((pred[mask] == grid.tokens[0][mask]).sum())
        tot += int(mask.sum())
    return hit / tot


def heldout_acoustic_ce(ctx: PipelineContext, params: dict) -> float:
    layout = ctx.lm_cfg.layout
    vals = []
    for text, feats, spk_emb, codes in ctx.metric_items()[1]:
        grid = sl.build_delayed_grid(text, codes, layout)
        sem = apply_adapter(params, "sem_adapter", nm.constant(feats))
        spk = apply_adapter(params, "spk_adapter", nm.constant(spk_emb))
        logits = sl.forward(params, ctx.lm_cfg, sem, spk, grid)
        mask = sl.supervised_mask(grid, layout)
        for i in range(layout.n_layers):
            ce = nm.cross_entropy(logits[i + 1], grid.tokens[i + 1], mask[i + 1])
            vals.append(ce.item())
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# stages and the full schedule


def train_stage(state: TrainState, ctx: PipelineContext, plan: TrainPlan, name: str) -> dict:
    """Run stage `name` of the plan on state, scoring the held-out metrics
    every eval_interval steps and at the stage's end. The report's "curve"
    holds one (global step, loss, held-out metrics) object per scoring."""
    steps = plan.stage_steps(name)
    step_fn = {STAGE_ASR: asr_step, STAGE_VC: vc_step, STAGE_JOINT: joint_step}[name]
    rng = np.random.default_rng([0x7A10, plan.seed + STAGES.index(name)])
    state.opt = Adam(lr=plan.lr, warmup=plan.warmup, clip=plan.clip)
    frozen_start = ctx.frozen_hash()
    last = heldout = None
    ac_losses, curve = [], []
    for local_step in range(steps):
        batch = sample_bucket(ctx.buckets, rng, plan.batch)
        last = step_fn(batch, state, ctx, plan, rng)
        if last.ce_acoustic is not None:
            ac_losses.append(last.ce_acoustic)
        if (local_step + 1) % plan.eval_interval == 0 or local_step + 1 == steps:
            heldout = (heldout_text_accuracy(ctx, state.params),
                       heldout_acoustic_ce(ctx, state.params))
            curve.append({"step": state.step, "loss": last.loss,
                          "heldout_text_accuracy": heldout[0],
                          "heldout_acoustic_ce": heldout[1]})
    if heldout is None:   # a stage of 0 steps: nothing was scored yet
        heldout = (heldout_text_accuracy(ctx, state.params),
                   heldout_acoustic_ce(ctx, state.params))
    frozen_end = ctx.frozen_hash()
    report = {
        "stage": name,
        "steps": steps,
        "final_loss": last.loss if last else None,
        "heldout_text_accuracy": heldout[0],
        "heldout_acoustic_ce": heldout[1],
        "frozen_hash_start": frozen_start,
        "frozen_hash_end": frozen_end,
        "acoustic_ce_first_window": (float(np.mean([np.mean(a) for a in ac_losses[:200]]))
                                     if ac_losses else None),
        "acoustic_ce_last_window": (float(np.mean([np.mean(a) for a in ac_losses[-200:]]))
                                    if ac_losses else None),
        "curve": curve,
    }
    if frozen_start != frozen_end:
        raise TrainingDivergedError(f"stage {name}: frozen component bits changed")
    return report


@dataclass
class PipelineResult:
    params: dict[str, Tensor]
    stage_reports: dict[str, dict]


def run_pipeline(ctx: PipelineContext, plan: TrainPlan,
                 stages: tuple[str, ...] = STAGES,
                 init_params: dict[str, Tensor] | None = None) -> PipelineResult:
    """Run the requested stages, a contiguous run of STAGES, in order, each
    resuming the previous parameters, with a metrics snapshot after every
    stage. The global step starts at the plan's step count for the stages
    before the first one run."""
    first = STAGES.index(stages[0]) if stages and stages[0] in STAGES else -1
    if first < 0 or tuple(stages) != STAGES[first:first + len(stages)]:
        raise ConfigError(f"stages must be a contiguous run of {STAGES}, got {stages}")
    n_layers = ctx.lm_cfg.layout.n_layers
    if len(plan.lambdas) != n_layers:
        raise ConfigError(f"train plan: lambdas length {len(plan.lambdas)} does not match "
                          f"{n_layers} codec layers")
    if plan.gen_max_steps < n_layers + 2:
        raise ConfigError(f"train plan: gen_max_steps={plan.gen_max_steps} below "
                          f"{n_layers + 2} for {n_layers} codec layers")
    params = init_params if init_params is not None else init_pipeline_params(ctx, plan.seed)
    state = TrainState(params, step=sum(plan.stage_steps(name) for name in STAGES[:first]))
    result = PipelineResult(params=params, stage_reports={})
    for name in stages:
        report = train_stage(state, ctx, plan, name)
        result.stage_reports[name] = report
        result.params = state.params
        if ctx.verifier is not None and ctx.eval_pairs is not None:
            report["metrics"] = asdict(evaluate_conversion(
                state.params, ctx.lm_cfg, ctx.codec, ctx.sem_enc, ctx.spk_enc,
                state.params, ctx.verifier, ctx.transcriber, ctx.splits, ctx.eval_pairs,
                max_steps=plan.gen_max_steps, tail=plan.gen_tail))
    return result

