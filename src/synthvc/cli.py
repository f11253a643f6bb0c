"""Operational surface: build the corpus, fit the codec, pretrain encoders,
run training stages, convert utterances, evaluate, and inspect artifacts.

Run directory layout (fixed names so commands find upstream artifacts):
    corpus/ codec/ encoders/ checkpoints/ reports/ logs/
`train` writes checkpoints/<s>.ckpt and reports/stage_<s>.json, whose "curve"
holds the held-out scorings, as each stage s finishes: `--stage all` writes
what `asr`, `vc` and `joint` in turn write. Before its first stage,
`train --stage <s>` deletes those two files of s and of every later stage,
and reports/evaluate.json: they came from the chain it replaces.
A command holds the directory's lock, one exclusive flock on .runlock, for
its whole life; the kernel frees it on any exit, a crash or SIGKILL
included, so no stale lock is left to find. `main` makes the layout once,
right after taking the lock. A command on a locked directory fails at once.
Every command whose run directory was resolved appends a line to
logs/run.tsv, with status "ok" or "ERR:<CODE>", and exits nonzero on error
with a machine-parseable "ERR:<CODE>" prefix on stderr. An exception that
is not a SynthVCError is logged as "ERR:INTERNAL" and re-raised.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ck
from . import codec as cd
from . import encoders as en
from . import evaluation as ev
from . import numerics as nm
from . import optim
from . import streamlm as sl
from . import synthworld as sw
from . import trainer as tr
from .config import RunConfig
from .errors import (ArtifactFormatError, CalibrationError, ConfigError, DataError,
                     GridFormatError, NumericsError, StateError, SynthVCError,
                     TrainingDivergedError, read_text)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_FORMAT = 4

_ERROR_CODES = [
    (ConfigError, ("USAGE", EXIT_USAGE)),
    (ArtifactFormatError, ("FORMAT", EXIT_FORMAT)),
    ((NumericsError, TrainingDivergedError), ("NUMERIC", EXIT_NUMERIC)),
    (StateError, ("STATE", EXIT_DATA)),
    ((DataError, CalibrationError), ("DATA", EXIT_DATA)),
]

SUBDIRS = ("corpus", "codec", "encoders", "checkpoints", "reports", "logs")


def _classify(err: SynthVCError) -> tuple[str, int]:
    return next(out for types, out in _ERROR_CODES if isinstance(err, types))


class RunDir:
    def __init__(self, root: Path):
        self.root = Path(root)

    def path(self, *parts) -> Path:
        return self.root.joinpath(*parts)

    def lock(self) -> None:
        """Take an exclusive flock on .runlock without waiting. The open file
        holds it until unlock(), or until the process ends, however it ends."""
        self.root.mkdir(parents=True, exist_ok=True)
        held = open(self.path(".runlock"), "ab")
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            held.close()
            raise ConfigError(f"run directory {self.root} is locked by a running "
                              "command") from None
        self._held = held

    def unlock(self) -> None:
        self._held.close()

    def log_command(self, command: str, cfg: RunConfig, seed: int,
                    started: float, status: str) -> None:
        self.path("logs").mkdir(parents=True, exist_ok=True)
        line = "\t".join([
            time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
            command, cfg.config_hash(), str(seed),
            f"{time.time() - started:.2f}", str(os.cpu_count()), status,
        ])
        with open(self.path("logs", "run.tsv"), "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def check_config_drift(self, cfg: RunConfig, allow: bool) -> None:
        stored = self.path("config.resolved")
        if not stored.exists():
            return
        if read_text(stored, StateError) != cfg.canonical_text():
            if not allow:
                raise ConfigError(
                    "config drift: resolved config differs from the one this run "
                    "directory was built with; pass --allow-config-drift to proceed")
            print("warning: proceeding with drifted config", file=sys.stderr)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise StateError(f"missing artifact {path}; run `synthvc {producer}` first")
    return path


# ---------------------------------------------------------------------------
# shared loading helpers


def _world(cfg: RunConfig) -> sw.CorpusSplits:
    return sw.make_corpus(
        seed=cfg["corpus.seed"], n_speakers=cfg["corpus.speakers"],
        n_texts=cfg["corpus.texts"], text_len_min=cfg["corpus.text_len_min"],
        text_len_max=cfg["corpus.text_len_max"],
        heldout_speakers=cfg["corpus.heldout_speakers"],
        heldout_texts=cfg["corpus.heldout_texts"])


def _eval_pairs(cfg: RunConfig, splits: sw.CorpusSplits) -> list[ev.EvalPair]:
    return ev.make_eval_manifest(splits, n_pairs=cfg["eval.pairs"], seed=cfg["eval.seed"])


def _load_frozen_stack(run: RunDir):
    """Codec plus the four components `pretrain-encoders` saves frozen, so
    every loaded param has requires_grad=False."""
    def frozen(name: str) -> dict[str, nm.Tensor]:
        return _load_params(_require(run.path("encoders", name), "pretrain-encoders"))

    codec = cd.load_codec(_require(run.path("codec", "codec.rvq"), "fit-codec"))
    sem = en.SemanticEncoder(params=frozen("semantic.ckpt"))
    spk = en.SpeakerEncoder(params=frozen("speaker.ckpt"))
    verifier = ev.OracleVerifier(params=frozen("oracle_verifier.ckpt"))
    transcriber = ev.OracleTranscriber(params=frozen("oracle_transcriber.ckpt"))
    return codec, sem, spk, verifier, transcriber


def _lm_cfg(cfg: RunConfig, codec: cd.RVQCodec) -> sl.LMConfig:
    return sl.LMConfig(
        dim=cfg["lm.dim"], heads=cfg["lm.heads"], blocks=cfg["lm.blocks"],
        intermediate=cfg["lm.intermediate"],
        layout=sl.StreamLayout(n_layers=codec.n_layers, code_vocab=codec.codebook_size))


def _plan(cfg: RunConfig) -> tr.TrainPlan:
    """The training plan; its values are range-checked as it is built."""
    return tr.TrainPlan(
        asr_steps=cfg["train.asr_steps"], vc_steps=cfg["train.vc_steps"],
        joint_steps=cfg["train.joint_steps"], w=cfg["train.w"],
        lambdas=tuple(cfg["train.lambdas"]), w_prime=cfg["train.w_prime"],
        asr_fraction=cfg["train.asr_fraction"], vc_real_prob=cfg["train.vc_real_prob"],
        joint_real_prob=cfg["train.joint_real_prob"], lr=cfg["train.lr"],
        warmup=cfg["train.warmup"], clip=cfg["train.clip"], batch=cfg["train.batch"],
        seed=cfg["train.seed"], text_loss_scale=cfg["train.text_loss_scale"],
        text_input_dropout=cfg["train.text_input_dropout"],
        eval_interval=cfg["eval.interval"], gen_max_steps=cfg["gen.max_steps"],
        gen_tail=cfg["gen.tail"])


def _load_params(path: Path) -> dict[str, nm.Tensor]:
    """A checkpoint's params, each trainable or frozen as it was saved."""
    return ck.components_to_params(ck.load_checkpoint(path))


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args, cfg: RunConfig, run: RunDir) -> int:
    corpus_dir = run.path("corpus")
    if any(corpus_dir.iterdir()) and not args.force:
        raise ConfigError(f"{corpus_dir} is not empty; pass --force to overwrite")
    splits = _world(cfg)
    pairs = _eval_pairs(cfg, splits)
    for d in ("codec", "encoders", "checkpoints", "reports"):   # built from any old corpus
        shutil.rmtree(run.path(d))
        run.path(d).mkdir()
    cfg.echo(run.root)
    eval_utts = [u for p in pairs for u in (p.source, p.target_ref)]
    all_utts = list(splits.utterances) + eval_utts
    sw.write_manifest(corpus_dir / "manifest.tsv", all_utts, splits.vocab)
    renders = {}
    for group in en.bucket_by_length(all_utts).values():   # one render per text length
        renders.update(zip([u.utt_id for u in group], splits.render_batch(
            [u.text for u in group], [u.speaker_id for u in group],
            [u.channel for u in group], [u.seed for u in group])))
    sw.write_frames(corpus_dir / "frames.bin", {u.utt_id: renders[u.utt_id] for u in all_utts})
    ev.write_eval_manifest(corpus_dir / "eval_manifest.tsv", pairs)
    lines = [
        "train_speakers: " + " ".join(str(i) for i in splits.train_speaker_ids),
        "heldout_speakers: " + " ".join(str(i) for i in splits.heldout_speaker_ids),
        f"train_texts: {len(splits.train_texts)}",
        f"heldout_texts: {len(splits.heldout_texts)}",
        f"train_utterances: {len(splits.utterances)}",
        f"eval_utterances: {len(eval_utts)}",
    ]
    (corpus_dir / "splits.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return EXIT_OK


def cmd_fit_codec(args, cfg: RunConfig, run: RunDir) -> int:
    _require(run.path("corpus", "manifest.tsv"), "synth-data")
    splits = _world(cfg)
    frames = cd.build_fit_corpus(splits, parallel_per_utt=cfg["codec.parallel_per_utt"],
                                 degraded_per_utt=cfg["codec.degraded_per_utt"],
                                 seed=cfg["codec.seed"])
    codec = cd.fit_codebooks(frames, n=cfg["codec.layers"], k=cfg["codec.codebook"],
                             iters=cfg["codec.iters"], seed=cfg["codec.seed"])
    cd.save_codec(run.path("codec", "codec.rvq"), codec)
    print(f"codec: {codec.n_layers} layers x {codec.codebook_size} codes, "
          f"fit SNR {codec.fit_snr_db:.2f} dB")
    return EXIT_OK


def cmd_pretrain_encoders(args, cfg: RunConfig, run: RunDir) -> int:
    _require(run.path("corpus", "manifest.tsv"), "synth-data")
    for what, steps, lr, batch in (   # every loop's settings, before any loop runs
            ("semantic pretraining", cfg["enc.sem_steps"], cfg["enc.lr"], cfg["enc.batch"]),
            ("speaker pretraining", cfg["enc.spk_steps"], cfg["enc.lr"], cfg["enc.batch"]),
            ("oracle verifier", cfg["oracle.verifier_steps"], ev.ORACLE_LR, ev.VERIFIER_BATCH),
            ("oracle transcriber", cfg["oracle.transcriber_steps"], ev.ORACLE_LR,
             ev.TRANSCRIBER_BATCH)):
        optim.check_fit(what, steps, lr, batch)
    splits = _world(cfg)
    sem = en.pretrain_semantic_encoder(splits, steps=cfg["enc.sem_steps"],
                                       batch=cfg["enc.batch"], lr=cfg["enc.lr"],
                                       seed=cfg["enc.seed"], width=cfg["enc.sem_dim"])
    spk = en.pretrain_speaker_encoder(splits, steps=cfg["enc.spk_steps"],
                                      batch=cfg["enc.batch"], lr=cfg["enc.lr"],
                                      seed=cfg["enc.seed"], width=cfg["enc.spk_dim"])
    verifier = ev.train_oracle_verifier(splits, steps=cfg["oracle.verifier_steps"],
                                        seed=cfg["oracle.seed"])
    transcriber = ev.train_oracle_transcriber(splits, steps=cfg["oracle.transcriber_steps"],
                                              seed=cfg["oracle.seed"])
    for name, model in (("semantic", sem), ("speaker", spk), ("oracle_verifier", verifier),
                        ("oracle_transcriber", transcriber)):
        ck.save_checkpoint(run.path("encoders", f"{name}.ckpt"),
                           ck.params_to_components(model.params, frozen=True))
    quality = {
        "semantic_heldout_frame_accuracy": sem.heldout_frame_accuracy,
        "speaker_heldout_utterance_accuracy": spk.heldout_utterance_accuracy,
        "oracle_verifier_eer": verifier.eer,
        "oracle_transcriber_pristine_exact_rate": transcriber.pristine_exact_rate,
        "oracle_transcriber_degraded_cer": transcriber.degraded_cer,
    }
    run.path("reports", "pretrain.json").write_text(
        json.dumps({k: float(v) for k, v in quality.items()}, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    print(f"semantic heldout frame accuracy: {sem.heldout_frame_accuracy:.4f}")
    print(f"speaker heldout utterance accuracy: {spk.heldout_utterance_accuracy:.4f}")
    print(f"oracle verifier EER: {verifier.eer:.4f}")
    print(f"oracle transcriber pristine exact rate: {transcriber.pristine_exact_rate:.4f}, "
          f"degraded CER: {transcriber.degraded_cer:.4f}")
    return EXIT_OK


def _build_context(cfg: RunConfig, run: RunDir) -> tuple[tr.PipelineContext, tr.TrainPlan]:
    _require(run.path("corpus", "manifest.tsv"), "synth-data")
    splits = _world(cfg)
    codec, sem, spk, verifier, transcriber = _load_frozen_stack(run)
    pairs = _eval_pairs(cfg, splits)
    ctx = tr.PipelineContext(splits, codec, sem, spk, _lm_cfg(cfg, codec), verifier=verifier,
                             transcriber=transcriber, eval_pairs=pairs)
    return ctx, _plan(cfg)


def cmd_train(args, cfg: RunConfig, run: RunDir) -> int:
    ctx, plan = _build_context(cfg, run)
    stages = tr.STAGES if args.stage == "all" else (args.stage,)
    params = None
    if args.stage in tr.STAGES[1:]:
        prev = tr.STAGES[tr.STAGES.index(args.stage) - 1]
        prev_path = run.path("checkpoints", f"{prev}.ckpt")
        if not prev_path.exists():
            raise StateError(f"stage {args.stage} requires {prev_path}; "
                             f"run `synthvc train --stage {prev}` first")
        params = _load_params(prev_path)
    # what the chain this command replaces wrote from its first stage on
    for name in tr.STAGES[tr.STAGES.index(stages[0]):]:
        run.path("checkpoints", f"{name}.ckpt").unlink(missing_ok=True)
        run.path("reports", f"stage_{name}.json").unlink(missing_ok=True)
    run.path("reports", "evaluate.json").unlink(missing_ok=True)
    for name in stages:
        result = tr.run_pipeline(ctx, plan, (name,), params)
        params = result.params
        ck.save_checkpoint(run.path("checkpoints", f"{name}.ckpt"),
                           ck.params_to_components(params, frozen=False))
        rep = result.stage_reports[name]   # with the stage's conversion metrics
        run.path("reports", f"stage_{name}.json").write_text(
            json.dumps(rep, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        loss = "" if rep["final_loss"] is None else f"loss {rep['final_loss']:.4f} "
        print(f"stage {name}: {loss}heldout text accuracy {rep['heldout_text_accuracy']:.4f}")
    return EXIT_OK


def _latest_checkpoint(run: RunDir) -> Path:
    for name in reversed(tr.STAGES):
        p = run.path("checkpoints", f"{name}.ckpt")
        if p.exists():
            return p
    raise StateError(f"no checkpoint found; run `synthvc train --stage {tr.STAGES[0]}` first")


def cmd_convert(args, cfg: RunConfig, run: RunDir) -> int:
    ctx, plan = _build_context(cfg, run)
    params = _load_params(_latest_checkpoint(run))
    manifest = sw.load_manifest(run.path("corpus", "manifest.tsv"), ctx.splits.vocab)
    by_id = {u.utt_id: u for u in manifest}
    for role, utt_id in (("source", args.source), ("target-ref", args.target_ref)):
        if utt_id not in by_id:
            raise DataError(f"unknown {role} utterance id {utt_id!r}")
        if by_id[utt_id].speaker_id not in ctx.splits.speakers:
            raise DataError(f"utterance {utt_id!r}: unknown speaker {by_id[utt_id].speaker_id}")
    rng = (np.random.default_rng([0xC04F, cfg["eval.seed"]])
           if cfg["gen.mode"] == "sample" else None)
    res, text_tokens, frames = ev.convert(
        params, ctx.lm_cfg, ctx.codec, ctx.sem_enc, ctx.spk_enc, params,
        ctx.splits.render_utterance(by_id[args.source]),
        ctx.splits.render_utterance(by_id[args.target_ref]),
        max_steps=cfg["gen.max_steps"], tail=cfg["gen.tail"], mode=cfg["gen.mode"],
        temperature=cfg["gen.temperature"], top_k=cfg["gen.top_k"], rng=rng)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sw.write_frames(Path(f"{out}.frames.bin"), {f"{args.source}->{args.target_ref}": frames})
    Path(f"{out}.text.txt").write_text(
        ctx.splits.vocab.transcript_names(text_tokens) + "\n", encoding="utf-8")
    Path(f"{out}.grid.txt").write_text(sl.dump_grid(res.grid, ctx.lm_cfg.layout),
                                       encoding="utf-8")
    print(f"converted {args.source} -> speaker of {args.target_ref}; "
          f"text: {ctx.splits.vocab.transcript_names(text_tokens)}"
          + (" [truncated]" if res.truncated else ""))
    return EXIT_OK


def cmd_evaluate(args, cfg: RunConfig, run: RunDir) -> int:
    ctx, plan = _build_context(cfg, run)
    params = _load_params(_latest_checkpoint(run))
    manifest_path = (Path(args.manifest) if args.manifest
                     else _require(run.path("corpus", "eval_manifest.tsv"), "synth-data"))
    id_pairs = ev.load_eval_manifest(manifest_path)
    by_id = {}
    for p in ctx.eval_pairs:
        by_id[p.source.utt_id] = p.source
        by_id[p.target_ref.utt_id] = p.target_ref
    pairs = []
    for a, b in id_pairs:
        if a not in by_id or b not in by_id:
            raise DataError(f"eval manifest references unknown utterance {a!r} or {b!r}")
        pairs.append(ev.EvalPair(source=by_id[a], target_ref=by_id[b]))
    report = ev.evaluate_conversion(
        params, ctx.lm_cfg, ctx.codec, ctx.sem_enc, ctx.spk_enc, params,
        ctx.verifier, ctx.transcriber, ctx.splits, pairs,
        max_steps=cfg["gen.max_steps"], tail=cfg["gen.tail"])
    out = run.path("reports", "evaluate.json")
    out.write_text(report.to_json() + "\n", encoding="utf-8")
    print(report.to_json())
    return EXIT_OK


def cmd_inspect_grid(args, cfg: RunConfig, run: RunDir) -> int:
    text = read_text(args.infile, DataError)
    layout = sl.StreamLayout(n_layers=cfg["codec.layers"], code_vocab=cfg["codec.codebook"])
    try:
        grid = sl.parse_grid(text, layout)
    except GridFormatError as e:
        raise GridFormatError(f"{args.infile}: {e}") from None
    print(f"streams: {grid.n_streams}, steps: {grid.length}")
    try:
        tokens, codes = sl.invert_delayed_grid(grid, layout)
        print(f"text tokens: {len(tokens)}; acoustic steps: {codes.shape[1]}; "
              "layout: valid")
    except SynthVCError as e:
        print(f"layout: INVALID ({e})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="synthvc",
                                 description="synthetic-world voice conversion pipeline")
    ap.add_argument("--config", type=Path, default=None, help="key = value config file")
    ap.add_argument("--run", type=Path, default=None, help="run directory (default from config)")
    ap.add_argument("--allow-config-drift", action="store_true",
                    help="proceed when the resolved config differs from the run's")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="build corpus manifest, frames, and splits")
    p.add_argument("--out", type=Path, default=None, help="run directory to create")
    p.add_argument("--force", action="store_true",
                   help="rebuild the corpus, emptying codec/ encoders/ checkpoints/ reports/")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("fit-codec", help="fit the RVQ codec on the training corpus")
    p.set_defaults(fn=cmd_fit_codec)

    p = sub.add_parser("pretrain-encoders",
                       help="pretrain and freeze encoders plus evaluation oracles")
    p.set_defaults(fn=cmd_pretrain_encoders)

    p = sub.add_parser("train", help="run training stages")
    p.add_argument("--stage", choices=[*tr.STAGES, "all"], required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("convert", help="convert one utterance to a target speaker")
    p.add_argument("--source", required=True)
    p.add_argument("--target-ref", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("evaluate", help="score conversions over the evaluation manifest")
    p.add_argument("--manifest", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("inspect-grid", help="validate and summarize a grid dump")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_inspect_grid)
    return ap


_COMMAND_SEEDS = {
    "synth-data": "corpus.seed", "fit-codec": "codec.seed",
    "pretrain-encoders": "enc.seed", "train": "train.seed",
    "convert": "eval.seed", "evaluate": "eval.seed", "inspect-grid": "corpus.seed",
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    run = None
    status = "ERR:INTERNAL"
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.command == "synth-data" and getattr(args, "out", None):
            root = args.out
        elif args.run is not None:
            root = args.run
        else:
            root = Path(cfg["paths.run"])
        run = RunDir(Path(root))
        if args.command != "synth-data":   # synth-data establishes the config
            run.check_config_drift(cfg, args.allow_config_drift)
        run.lock()
        try:
            for d in SUBDIRS:
                run.path(d).mkdir(exist_ok=True)
            code = args.fn(args, cfg, run)
        finally:
            run.unlock()
        status = "ok"
    except SynthVCError as e:
        tag, code = _classify(e)
        print(f"ERR:{tag} {e}", file=sys.stderr)
        status = f"ERR:{tag}"
    finally:   # any other exception keeps ERR:INTERNAL and propagates once logged
        if run is not None:
            run.log_command(args.command, cfg, cfg[_COMMAND_SEEDS[args.command]], started,
                            status)
    return code


if __name__ == "__main__":
    sys.exit(main())
