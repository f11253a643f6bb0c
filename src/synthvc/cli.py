"""Operational surface: build the corpus, fit the codec, pretrain encoders,
run training stages, convert utterances, evaluate, and inspect artifacts.

Run directory layout (fixed names so commands find upstream artifacts):
    corpus/ codec/ encoders/ checkpoints/ reports/ logs/
Every command whose run directory was resolved appends a line to
logs/run.tsv, with status "ok" or "ERR:<CODE>", and exits nonzero on error
with a machine-parseable "ERR:<CODE>" prefix on stderr.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint as ck
from . import codec as cd
from . import encoders as en
from . import evaluation as ev
from . import numerics as nm
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


def _classify(err: Exception) -> tuple[str, int]:
    for types, out in _ERROR_CODES:
        if isinstance(err, types):
            return out
    return ("DATA", EXIT_DATA)


class RunDir:
    def __init__(self, root: Path):
        self.root = Path(root)

    def path(self, *parts) -> Path:
        return self.root.joinpath(*parts)

    def ensure_layout(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for d in SUBDIRS:
            self.path(d).mkdir(exist_ok=True)

    def lock(self) -> None:
        """Create .runlock holding this pid. A lock whose pid names no live
        process was left by a killed command and is replaced.

        The stale check, the replacement and the create run under an flock
        on .runlock.guard, so two commands cannot both replace one stale
        lock, and none reads a lock whose pid is not written yet.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(".runlock")
        with open(self.path(".runlock.guard"), "a") as guard:
            fcntl.flock(guard, fcntl.LOCK_EX)   # released when the file closes
            if _lock_is_stale(path):
                print(f"warning: replacing stale lock {path}", file=sys.stderr)
                path.unlink(missing_ok=True)
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                raise ConfigError(
                    f"run directory {self.root} is locked (.runlock exists); "
                    "remove the lock if no other command is running") from None
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))

    def unlock(self) -> None:
        try:
            os.unlink(self.path(".runlock"))
        except FileNotFoundError:
            pass

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
        if stored.read_text(encoding="utf-8") != cfg.canonical_text():
            if not allow:
                raise ConfigError(
                    "config drift: resolved config differs from the one this run "
                    "directory was built with; pass --allow-config-drift to proceed")
            print("warning: proceeding with drifted config", file=sys.stderr)


def _lock_is_stale(path: Path) -> bool:
    """True when the lock file names a pid that no live process has."""
    try:
        pid = int(path.read_text(encoding="utf-8"))
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass   # no lock, one with no valid pid, or another user's process
    return False


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise StateError(f"missing artifact {path}; run `synthvc {producer}` first")
    return path


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_cfg(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    return cfg


def _world(cfg: RunConfig) -> sw.CorpusSplits:
    return sw.make_corpus(
        seed=cfg["corpus.seed"], n_speakers=cfg["corpus.speakers"],
        n_texts=cfg["corpus.texts"], text_len_min=cfg["corpus.text_len_min"],
        text_len_max=cfg["corpus.text_len_max"],
        heldout_speakers=cfg["corpus.heldout_speakers"],
        heldout_texts=cfg["corpus.heldout_texts"])


def _eval_pairs(cfg: RunConfig, splits: sw.CorpusSplits) -> list[ev.EvalPair]:
    return ev.make_eval_manifest(splits, n_pairs=cfg["eval.pairs"], seed=cfg["eval.seed"])


def _dims(cfg: RunConfig) -> en.EncoderDims:
    return en.EncoderDims(d_sem=cfg["enc.sem_dim"], d_spk=cfg["enc.spk_dim"])


def _load_frozen_stack(cfg: RunConfig, run: RunDir):
    """Codec plus the four components `pretrain-encoders` saves frozen, so
    every loaded param has requires_grad=False."""
    def frozen(name: str) -> dict[str, nm.Tensor]:
        path = _require(run.path("encoders", name), "pretrain-encoders")
        return ck.components_to_params(ck.load_checkpoint(path))

    codec = cd.load_codec(_require(run.path("codec", "codec.rvq"), "fit-codec"))
    sem = en.SemanticEncoder(dims=_dims(cfg), params=frozen("semantic.ckpt"))
    spk = en.SpeakerEncoder(dims=_dims(cfg), params=frozen("speaker.ckpt"))
    verifier = ev.OracleVerifier(params=frozen("oracle_verifier.ckpt"))
    transcriber = ev.OracleTranscriber(params=frozen("oracle_transcriber.ckpt"))
    return codec, sem, spk, verifier, transcriber


def _lm_cfg(cfg: RunConfig, codec: cd.RVQCodec) -> sl.LMConfig:
    return sl.LMConfig(
        dim=cfg["lm.dim"], heads=cfg["lm.heads"], blocks=cfg["lm.blocks"],
        intermediate=cfg["lm.intermediate"], capacity=cfg["lm.capacity"],
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


def _save_trainable(path: Path, params) -> None:
    ck.save_checkpoint(path, ck.params_to_components(params, frozen=False))


def _load_trainable(path: Path):
    return ck.components_to_params(ck.load_checkpoint(path))


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args, cfg: RunConfig, run: RunDir) -> int:
    corpus_dir = run.path("corpus")
    if corpus_dir.exists() and any(corpus_dir.iterdir()) and not args.force:
        raise ConfigError(f"{corpus_dir} is not empty; pass --force to overwrite")
    run.ensure_layout()
    cfg.echo(run.root)
    splits = _world(cfg)
    pairs = _eval_pairs(cfg, splits)
    eval_utts = [u for p in pairs for u in (p.source, p.target_ref)]
    all_utts = list(splits.utterances) + eval_utts
    sw.write_manifest(corpus_dir / "manifest.tsv", all_utts, splits.vocab)
    renders = {u.utt_id: splits.render_utterance(u).frames for u in all_utts}
    sw.write_frames(corpus_dir / "frames.bin", renders)
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
    run.ensure_layout()
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
    run.ensure_layout()
    splits = _world(cfg)
    Path(run.path("encoders")).mkdir(exist_ok=True)
    sem = en.pretrain_semantic_encoder(splits, steps=cfg["enc.sem_steps"],
                                       batch=cfg["enc.batch"], lr=cfg["enc.lr"],
                                       seed=cfg["enc.seed"], dims=_dims(cfg))
    ck.save_checkpoint(run.path("encoders", "semantic.ckpt"),
                       ck.params_to_components(sem.params, frozen=True))
    spk = en.pretrain_speaker_encoder(splits, steps=cfg["enc.spk_steps"],
                                      batch=cfg["enc.batch"], lr=cfg["enc.lr"],
                                      seed=cfg["enc.seed"], dims=_dims(cfg))
    ck.save_checkpoint(run.path("encoders", "speaker.ckpt"),
                       ck.params_to_components(spk.params, frozen=True))
    verifier = ev.train_oracle_verifier(splits, steps=cfg["oracle.verifier_steps"],
                                        seed=cfg["oracle.seed"])
    ck.save_checkpoint(run.path("encoders", "oracle_verifier.ckpt"),
                       ck.params_to_components(verifier.params, frozen=True))
    transcriber = ev.train_oracle_transcriber(splits, steps=cfg["oracle.transcriber_steps"],
                                              seed=cfg["oracle.seed"])
    ck.save_checkpoint(run.path("encoders", "oracle_transcriber.ckpt"),
                       ck.params_to_components(transcriber.params, frozen=True))
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
    codec, sem, spk, verifier, transcriber = _load_frozen_stack(cfg, run)
    pairs = _eval_pairs(cfg, splits)
    ctx = tr.PipelineContext(splits, codec, sem, spk, _lm_cfg(cfg, codec), verifier=verifier,
                             transcriber=transcriber, eval_pairs=pairs)
    return ctx, _plan(cfg)


def cmd_train(args, cfg: RunConfig, run: RunDir) -> int:
    ctx, plan = _build_context(cfg, run)
    run.ensure_layout()
    stages = tr.STAGES if args.stage == "all" else (args.stage,)
    init_params = None
    if args.stage in tr.STAGES[1:]:
        prev = tr.STAGES[tr.STAGES.index(args.stage) - 1]
        prev_path = run.path("checkpoints", f"{prev}.ckpt")
        if not prev_path.exists():
            raise StateError(f"stage {args.stage} requires {prev_path}; "
                             f"run `synthvc train --stage {prev}` first")
        init_params = _load_trainable(prev_path)
    result = tr.run_pipeline(ctx, plan, stages=stages, init_params=init_params)
    for name in stages:
        _save_trainable(run.path("checkpoints", f"{name}.ckpt"), result.stage_params[name])
    # per-stage reports, each holding its stage's conversion metrics, and the metrics log
    for name, report in result.stage_reports.items():
        (run.path("reports", f"stage_{name}.json")).write_text(
            json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    tr.write_metrics_log(run.path("logs", "metrics.tsv"), result.metrics_rows)
    for name in stages:
        rep = result.stage_reports[name]
        print(f"stage {name}: loss {rep['final_loss']:.4f} "
              f"heldout text accuracy {rep['heldout_text_accuracy']:.4f}")
    return EXIT_OK


def _latest_checkpoint(run: RunDir) -> Path:
    for name in ("joint", "vc", "asr"):
        p = run.path("checkpoints", f"{name}.ckpt")
        if p.exists():
            return p
    raise StateError("no checkpoint found; run `synthvc train --stage asr` first")


def cmd_convert(args, cfg: RunConfig, run: RunDir) -> int:
    ctx, plan = _build_context(cfg, run)
    run.ensure_layout()
    params = _load_trainable(_latest_checkpoint(run))
    manifest = sw.load_manifest(_require(run.path("corpus", "manifest.tsv"), "synth-data"),
                                ctx.splits.vocab)
    by_id = {u.utt_id: u for u in manifest}
    if args.source not in by_id:
        raise DataError(f"unknown source utterance id {args.source!r}")
    if args.target_ref not in by_id:
        raise DataError(f"unknown target-ref utterance id {args.target_ref!r}")
    src_u, ref_u = by_id[args.source], by_id[args.target_ref]
    src = ctx.splits.render_utterance(src_u)
    ref = ctx.splits.render_utterance(ref_u)
    sem_rows = en.apply_adapter(params, "sem_adapter",
                                nm.constant(ctx.sem_enc.features(src.frames)))
    spk_row = en.apply_adapter(params, "spk_adapter",
                               nm.constant(ctx.spk_enc.embed(ref.frames)))
    rng = (np.random.default_rng([0xC04F, cfg["eval.seed"]])
           if cfg["gen.mode"] == "sample" else None)
    res = sl.generate(params, ctx.lm_cfg, sem_rows, spk_row,
                      max_steps=cfg["gen.max_steps"], tail=cfg["gen.tail"],
                      mode=cfg["gen.mode"], temperature=cfg["gen.temperature"],
                      top_k=cfg["gen.top_k"], rng=rng)
    text_tokens, codes = sl.invert_delayed_grid(res.grid, ctx.lm_cfg.layout)
    frames = cd.decode(codes, ctx.codec)
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
    run.ensure_layout()
    params = _load_trainable(_latest_checkpoint(run))
    manifest_path = Path(args.manifest) if args.manifest else run.path("corpus", "eval_manifest.tsv")
    _require(manifest_path, "synth-data")
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
        print(f"text tokens: {len(tokens)}; acoustic steps: {codes.codes.shape[1]}; "
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
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("fit-codec", help="fit the RVQ codec on the training corpus")
    p.set_defaults(fn=cmd_fit_codec)

    p = sub.add_parser("pretrain-encoders",
                       help="pretrain and freeze encoders plus evaluation oracles")
    p.set_defaults(fn=cmd_pretrain_encoders)

    p = sub.add_parser("train", help="run training stages")
    p.add_argument("--stage", choices=["asr", "vc", "joint", "all"], required=True)
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
    try:
        cfg = _load_cfg(args)
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
            code = args.fn(args, cfg, run)
            run.ensure_layout()
        finally:
            run.unlock()
        status = "ok"
    except SynthVCError as e:
        tag, code = _classify(e)
        print(f"ERR:{tag} {e}", file=sys.stderr)
        status = f"ERR:{tag}"
    if run is not None:
        run.log_command(args.command, cfg, cfg[_COMMAND_SEEDS[args.command]], started, status)
    return code


if __name__ == "__main__":
    sys.exit(main())
