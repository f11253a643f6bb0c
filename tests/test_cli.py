"""Every CLI command end to end at a tiny config: exit codes, artifacts, one
logs/run.tsv line per command (failed ones included), the typed failures of
a missing upstream artifact, a corrupt codec file, malformed input files,
a non-UTF-8 stored config, an unknown config key, a bad training-plan or
pretraining value,
a head count that does not split the LM width, an eval.pairs below 1, a
corpus that cannot hold its held-out split or its texts, a stage of 0
steps, a stage that diverges after the ones before it were saved, an
unexpected exception, and the run-directory lock, held by real processes;
that the stages trained one command at a time write what
`train --stage all` writes; and that a run directory holds exactly the
files the pipeline writes."""

import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from synthvc import checkpoint as ck
from synthvc import cli
from synthvc import encoders as en
from synthvc import evaluation as ev
from synthvc import synthworld as sw
from synthvc import trainer as tr
from synthvc.config import RunConfig
from synthvc.errors import ConfigError, TrainingDivergedError

TINY_CONFIG = """\
corpus.texts = 120
codec.iters = 2
codec.parallel_per_utt = 1
codec.degraded_per_utt = 1
enc.sem_steps = 20
enc.spk_steps = 20
oracle.verifier_steps = 450
oracle.transcriber_steps = 20
train.asr_steps = 10
train.vc_steps = 10
train.joint_steps = 10
eval.pairs = 4
gen.max_steps = 48
"""


def _tiny_with(extra):
    """TINY_CONFIG with the `key = value` lines of extra in place of its own
    lines for those keys, since a config file sets each key at most once."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in TINY_CONFIG.splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + extra.splitlines()) + "\n"


def _run_log(run):
    """(command, status) per logs/run.tsv line."""
    lines = (run / "logs" / "run.tsv").read_text(encoding="utf-8").splitlines()
    return [(f[1], f[-1]) for f in (line.split("\t") for line in lines)]


def _digests(run):
    """sha256 of every file in a run directory outside logs/, by relative path."""
    return {str(f.relative_to(run)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(run.rglob("*")) if f.is_file() and f.parts[len(run.parts)] != "logs"}


def test_cli_every_command_end_to_end(tmp_path, capsys):
    """Every command in order, then the pipeline once more in another
    directory: each file it writes outside logs/ is byte-identical."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    run = tmp_path / "run"
    base = ["--config", str(cfg_path), "--run", str(run)]
    assert cli.main(["--config", str(cfg_path), "synth-data", "--out", str(run)]) == 0
    assert cli.main(base + ["fit-codec"]) == 0
    assert cli.main(base + ["pretrain-encoders"]) == 0
    quality = json.loads((run / "reports" / "pretrain.json").read_text())
    assert sorted(quality) == [
        "oracle_transcriber_degraded_cer", "oracle_transcriber_pristine_exact_rate",
        "oracle_verifier_eer", "semantic_heldout_frame_accuracy",
        "speaker_heldout_utterance_accuracy"]
    for key in ("semantic_heldout_frame_accuracy", "speaker_heldout_utterance_accuracy",
                "oracle_transcriber_pristine_exact_rate"):
        assert 0.0 <= quality[key] <= 1.0
    assert 0.0 <= quality["oracle_verifier_eer"] <= 0.10      # the verifier's calibration gate
    assert quality["oracle_transcriber_degraded_cer"] >= 0.0
    src, ref = (run / "corpus" / "eval_manifest.tsv").read_text().splitlines()[0].split("\t")
    out = run / "out" / "conv"
    convert = base + ["convert", "--source", src, "--target-ref", ref, "--out", str(out)]
    capsys.readouterr()

    # no trained checkpoint yet: a typed state error, logged like any command
    assert cli.main(convert) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("ERR:STATE ")
    assert _run_log(run)[-1] == ("convert", "ERR:STATE")
    assert _lock_is_free(run)

    assert cli.main(base + ["train", "--stage", "all"]) == 0
    assert sorted(p.name for p in (run / "checkpoints").iterdir()) == [
        "asr.ckpt", "joint.ckpt", "vc.ckpt"]
    for name in ("asr", "vc", "joint"):
        assert (run / "checkpoints" / f"{name}.ckpt").stat().st_size > 0
        report = json.loads((run / "reports" / f"stage_{name}.json").read_text())
        assert 0.0 <= report["heldout_text_accuracy"] <= 1.0
        assert report["metrics"]["pairs"] == 4     # the stage's conversion metrics
    assert sorted(p.name for p in (run / "reports").iterdir()) == [
        "pretrain.json", "stage_asr.json", "stage_joint.json", "stage_vc.json"]

    assert cli.main(convert) == 0
    for suffix in (".frames.bin", ".text.txt", ".grid.txt"):
        assert (run / "out" / f"conv{suffix}").stat().st_size > 0
    assert "converted " + src in capsys.readouterr().out
    converted = sw.load_frames(run / "out" / "conv.frames.bin")
    assert list(converted) == [f"{src}->{ref}"] and converted[f"{src}->{ref}"].ndim == 2

    assert cli.main(base + ["evaluate"]) == 0
    report = json.loads((run / "reports" / "evaluate.json").read_text())
    assert report["pairs"] == 4
    digests = _digests(run)

    assert cli.main(base + ["inspect-grid", "--in", f"{out}.grid.txt"]) == 0
    assert "layout: valid" in capsys.readouterr().out

    # a flipped byte in layer 0's last centroid, then a truncated file
    codec = run / "codec" / "codec.rvq"
    good = codec.read_bytes()
    flipped = bytearray(good)
    flipped[good.index(b"codec/layer1") - 4 - 2] ^= 0x01
    for corrupt in (bytes(flipped), good[:-6]):
        codec.write_bytes(corrupt)
        assert cli.main(base + ["evaluate"]) == cli.EXIT_FORMAT
        assert capsys.readouterr().err.startswith("ERR:FORMAT ")

    # an unknown key fails before the run directory is known: nothing to log in
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(_tiny_with("gen.beam = 4"), encoding="utf-8")
    assert cli.main(["--config", str(bad_cfg), "--run", str(run), "evaluate"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("ERR:USAGE ")

    assert _run_log(run) == [
        ("synth-data", "ok"), ("fit-codec", "ok"), ("pretrain-encoders", "ok"),
        ("convert", "ERR:STATE"), ("train", "ok"), ("convert", "ok"), ("evaluate", "ok"),
        ("inspect-grid", "ok"), ("evaluate", "ERR:FORMAT"), ("evaluate", "ERR:FORMAT")]
    assert _lock_is_free(run) and not (run / ".runlock.guard").exists()

    again = tmp_path / "again"
    base = ["--config", str(cfg_path), "--run", str(again)]
    assert cli.main(["--config", str(cfg_path), "synth-data", "--out", str(again)]) == 0
    for command in (["fit-codec"], ["pretrain-encoders"], ["train", "--stage", "all"],
                    ["convert", "--source", src, "--target-ref", ref,
                     "--out", str(again / "out" / "conv")], ["evaluate"]):
        assert cli.main(base + command) == 0
    assert "out/conv.frames.bin" in digests and "checkpoints/joint.ckpt" in digests
    assert _digests(again) == digests


@pytest.fixture(scope="module")
def prepared_run(tmp_path_factory):
    """A tiny run directory holding the corpus, the codec and the frozen stack."""
    root = tmp_path_factory.mktemp("prepared")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    run = root / "run"
    base = ["--config", str(cfg_path), "--run", str(run)]
    assert cli.main(["--config", str(cfg_path), "synth-data", "--out", str(run)]) == 0
    assert cli.main(base + ["fit-codec"]) == 0
    assert cli.main(base + ["pretrain-encoders"]) == 0
    return run


@pytest.mark.parametrize("bad", ["eval.interval = 0", "train.batch = 0",
                                 "train.joint_real_prob = 1.5", "gen.tail = 0",
                                 "gen.max_steps = 5", "train.lr = -0.001", "train.lr = nan",
                                 "train.clip = -1", "train.warmup = -1",
                                 "train.text_loss_scale = -1",
                                 "train.lambdas = 1.0,-0.5,0.8,0.7"])
def test_bad_plan_value_fails_typed_before_any_stage(prepared_run, tmp_path, capsys,
                                                     monkeypatch, bad):
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_tiny_with(bad), encoding="utf-8")
    stages = []
    real_stage = tr.train_stage

    def recording_stage(state, ctx, plan, name, *args, **kwargs):
        stages.append(name)
        return real_stage(state, ctx, plan, name, *args, **kwargs)

    monkeypatch.setattr(tr, "train_stage", recording_stage)
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--run", str(run), "--allow-config-drift",
            "train", "--stage", "all"]
    assert cli.main(argv) == cli.EXIT_USAGE == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: proceeding with drifted config", err[-1]]
    assert err[-1].startswith("ERR:USAGE train plan: ")
    assert _run_log(run)[-1] == ("train", "ERR:USAGE")
    assert stages == []
    assert not list((run / "checkpoints").glob("*.ckpt"))
    assert not list((run / "reports").glob("stage_*.json"))


# a bad pretraining value -> the loop whose check names it
BAD_PRETRAINING = {"enc.lr = -0.001": "semantic pretraining",
                   "enc.lr = nan": "semantic pretraining",
                   "enc.batch = 0": "semantic pretraining",
                   "enc.sem_steps = -1": "semantic pretraining",
                   "enc.spk_steps = -1": "speaker pretraining",
                   "oracle.verifier_steps = -1": "oracle verifier",
                   "oracle.transcriber_steps = -1": "oracle transcriber"}


@pytest.mark.parametrize("bad", list(BAD_PRETRAINING))
def test_bad_pretraining_value_fails_typed_before_any_checkpoint(tmp_path, capsys,
                                                                 monkeypatch, bad):
    """Every loop's settings are checked before the first loop trains."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_tiny_with(bad), encoding="utf-8")
    run = tmp_path / "run"
    assert cli.main(["--config", str(cfg_path), "synth-data", "--out", str(run)]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("a pretraining loop ran")
    for module, name in ((en, "pretrain_semantic_encoder"), (en, "pretrain_speaker_encoder"),
                         (ev, "train_oracle_verifier"), (ev, "train_oracle_transcriber")):
        monkeypatch.setattr(module, name, no_training)
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--run", str(run), "pretrain-encoders"]
    assert cli.main(argv) == cli.EXIT_USAGE == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERR:USAGE {BAD_PRETRAINING[bad]}: "), err
    assert _run_log(run) == [("synth-data", "ok"), ("pretrain-encoders", "ERR:USAGE")]
    assert not list((run / "encoders").glob("*.ckpt"))


def test_zero_step_stage_trains_and_logs_ok(prepared_run, tmp_path, capsys):
    """A stage of 0 steps has no loss to print; it still writes its
    checkpoint and report and exits 0."""
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(_tiny_with("train.asr_steps = 0"), encoding="utf-8")
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--run", str(run), "--allow-config-drift",
            "train", "--stage", "asr"]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("stage asr: heldout text accuracy "), out
    assert (run / "checkpoints" / "asr.ckpt").stat().st_size > 0
    assert json.loads((run / "reports" / "stage_asr.json").read_text())["final_loss"] is None
    assert _run_log(run)[-1] == ("train", "ok")


def _trained_files(run):
    """The bytes of every checkpoint and every report."""
    files = [*sorted((run / "checkpoints").iterdir()), *sorted((run / "reports").iterdir())]
    return {str(f.relative_to(run)): f.read_bytes() for f in files}


def _train(prepared_run, run, *stages):
    """`train --stage <s>` for each s in turn on run at the prepared run's
    config, each exiting 0."""
    base = ["--config", str(prepared_run.parent / "tiny.cfg"), "--run", str(run)]
    for stage in stages:
        assert cli.main(base + ["train", "--stage", stage]) == cli.EXIT_OK


@pytest.fixture(scope="module")
def trained_run(prepared_run, tmp_path_factory):
    """The prepared run after one `train --stage all`."""
    run = tmp_path_factory.mktemp("trained") / "run"
    shutil.copytree(prepared_run, run)
    _train(prepared_run, run, "all")
    return run


def test_stages_run_in_turn_write_what_stage_all_writes(prepared_run, trained_run, tmp_path):
    """`train --stage asr`, `vc` and `joint` run one after another give the
    checkpoints and reports of `train --stage all`, the global steps of
    the reports' held-out curves included."""
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    _train(prepared_run, run, *tr.STAGES)
    assert _trained_files(run) == _trained_files(trained_run)
    steps = [[point["step"] for point in
              json.loads((run / "reports" / f"stage_{name}.json").read_text())["curve"]]
             for name in tr.STAGES]
    assert steps == [[10], [20], [30]]


def test_run_directory_holds_exactly_what_the_pipeline_writes(prepared_run, trained_run,
                                                             tmp_path):
    """After synth-data, fit-codec, pretrain-encoders, `train --stage all`
    and evaluate, the run directory holds these files and no others, so a
    stray or revived artifact fails here."""
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    base = ["--config", str(prepared_run.parent / "tiny.cfg"), "--run", str(run)]
    assert cli.main(base + ["evaluate"]) == cli.EXIT_OK
    assert sorted(str(f.relative_to(run)) for f in run.rglob("*") if f.is_file()) == [
        ".runlock", "checkpoints/asr.ckpt", "checkpoints/joint.ckpt", "checkpoints/vc.ckpt",
        "codec/codec.rvq", "config.resolved", "corpus/eval_manifest.tsv",
        "corpus/frames.bin", "corpus/manifest.tsv", "corpus/splits.txt",
        "encoders/oracle_transcriber.ckpt", "encoders/oracle_verifier.ckpt",
        "encoders/semantic.ckpt", "encoders/speaker.ckpt", "logs/run.tsv",
        "reports/evaluate.json", "reports/pretrain.json", "reports/stage_asr.json",
        "reports/stage_joint.json", "reports/stage_vc.json"]


def test_retraining_a_stage_deletes_the_later_stages_of_the_old_chain(prepared_run,
                                                                     trained_run, tmp_path):
    """`train --stage asr` on a trained and evaluated run leaves no VC or
    joint checkpoint or report and no evaluate.json, and `evaluate` then
    grades asr.ckpt: every file is what a fresh `train --stage asr` and
    `evaluate` write."""
    base = ["--config", str(prepared_run.parent / "tiny.cfg")]
    fresh = tmp_path / "fresh"
    shutil.copytree(prepared_run, fresh)
    _train(prepared_run, fresh, "asr")
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert cli.main(base + ["--run", str(run), "evaluate"]) == cli.EXIT_OK
    _train(prepared_run, run, "asr")
    assert _trained_files(run) == _trained_files(fresh)
    assert [p.name for p in (run / "checkpoints").iterdir()] == ["asr.ckpt"]
    assert not (run / "reports" / "evaluate.json").exists()
    for r in (run, fresh):
        assert cli.main(base + ["--run", str(r), "evaluate"]) == cli.EXIT_OK
    assert _digests(run) == _digests(fresh)


def test_a_failed_stage_keeps_every_stage_before_it(prepared_run, trained_run, tmp_path,
                                                     capsys, monkeypatch):
    """A divergence in the first joint step fails `train --stage all` with
    exit 3 after the ASR and VC stages are on disk as a clean run wrote
    them, so `train --stage joint` then finishes the clean run."""
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)

    def diverge(*args, **kwargs):
        raise TrainingDivergedError("stage joint step 20: injected")

    monkeypatch.setattr(tr, "joint_step", diverge)
    capsys.readouterr()
    base = ["--config", str(prepared_run.parent / "tiny.cfg"), "--run", str(run)]
    assert cli.main(base + ["train", "--stage", "all"]) == cli.EXIT_NUMERIC == 3
    assert capsys.readouterr().err.startswith("ERR:NUMERIC stage joint step 20: injected")
    assert _run_log(run)[-1] == ("train", "ERR:NUMERIC")
    clean = _trained_files(trained_run)
    kept = {name: clean[name] for name in ("checkpoints/asr.ckpt", "checkpoints/vc.ckpt",
                                           "reports/pretrain.json", "reports/stage_asr.json",
                                           "reports/stage_vc.json")}
    assert _trained_files(run) == kept
    monkeypatch.undo()
    _train(prepared_run, run, "joint")
    assert _trained_files(run) == clean


def test_non_utf8_resolved_config_fails_typed_and_is_logged(prepared_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    resolved = run / "config.resolved"
    resolved.write_bytes(b"corpus.texts = 120\xff\n")
    capsys.readouterr()
    code = cli.main(["--config", str(prepared_run.parent / "tiny.cfg"), "--run", str(run),
                     "fit-codec"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA and err.startswith(f"ERR:STATE {resolved}: "), err
    assert _run_log(run)[-1] == ("fit-codec", "ERR:STATE")


def test_head_count_that_does_not_split_the_width_fails_typed(prepared_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_tiny_with("lm.heads = 3"), encoding="utf-8")
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--run", str(run), "--allow-config-drift",
            "train", "--stage", "all"]
    assert cli.main(argv) == cli.EXIT_USAGE == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("ERR:USAGE lm.heads: ")
    assert _run_log(run)[-1] == ("train", "ERR:USAGE")
    assert not list((run / "checkpoints").glob("*.ckpt"))


def test_eval_pairs_below_one_fails_typed_before_any_work(prepared_run, tmp_path, capsys,
                                                          monkeypatch):
    """synth-data writes no corpus and train runs no stage: both fail on
    building the evaluation pairs, which comes first."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_tiny_with("eval.pairs = 0"), encoding="utf-8")
    fresh = tmp_path / "fresh"
    capsys.readouterr()
    assert cli.main(["--config", str(cfg_path), "synth-data", "--out", str(fresh)]) == 1
    assert capsys.readouterr().err.startswith("ERR:USAGE eval.pairs: ")
    assert _run_log(fresh) == [("synth-data", "ERR:USAGE")]
    assert not any((fresh / "corpus").iterdir())

    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    stages = []
    monkeypatch.setattr(tr, "train_stage", lambda *args, **kwargs: stages.append(args))
    argv = ["--config", str(cfg_path), "--run", str(run), "--allow-config-drift",
            "train", "--stage", "all"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].startswith("ERR:USAGE eval.pairs: ")
    assert _run_log(run)[-1] == ("train", "ERR:USAGE")
    assert stages == []
    assert not list((run / "checkpoints").glob("*.ckpt"))


@pytest.mark.parametrize("bad,key", [
    ("corpus.heldout_texts = 1", "corpus.heldout_texts"),
    ("corpus.heldout_speakers = 1", "corpus.heldout_speakers"),
    ("corpus.text_len_min = 1\ncorpus.text_len_max = 1", "corpus.texts")])
def test_corpus_it_cannot_build_fails_typed_before_any_work(tmp_path, bad, key):
    """One held-out text or speaker leaves an evaluation pair nothing to
    pair with, and one-symbol texts give 32 distinct texts for the 120 asked
    for. synth-data names the key and writes no corpus. It runs in a child
    process under a timeout, so a corpus build that never ends fails here."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_tiny_with(bad), encoding="utf-8")
    run = tmp_path / "run"
    with _synthvc("-m", "synthvc", "--config", str(cfg_path), "synth-data", "--out", str(run),
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
    assert child.returncode == cli.EXIT_USAGE, err
    assert err.startswith(f"ERR:USAGE {key}: "), err
    assert _run_log(run) == [("synth-data", "ERR:USAGE")]
    assert not any((run / "corpus").iterdir())


@pytest.fixture(scope="module")
def checkpointed_run(prepared_run, tmp_path_factory):
    """The prepared run plus an untrained joint-stage checkpoint, which is
    all `convert` and `evaluate` load before reading their input files."""
    run = tmp_path_factory.mktemp("checkpointed") / "run"
    shutil.copytree(prepared_run, run)
    cfg = RunConfig.from_file(prepared_run.parent / "tiny.cfg")
    ctx, plan = cli._build_context(cfg, cli.RunDir(run))
    ck.save_checkpoint(run / "checkpoints" / "joint.ckpt",
                       ck.params_to_components(tr.init_pipeline_params(ctx, plan.seed),
                                               frozen=False))
    return run


def test_synth_data_force_empties_what_the_old_corpus_built(checkpointed_run, tmp_path, capsys):
    """A forced synth-data for another corpus leaves no codec, encoder,
    checkpoint or report of the old one behind to grade with, and keeps the
    command log; the next command asks for the codec."""
    run = tmp_path / "run"
    shutil.copytree(checkpointed_run, run)
    assert all(any((run / d).iterdir()) for d in ("codec", "encoders", "checkpoints", "reports"))
    logged = _run_log(run)
    cfg_path = tmp_path / "seed7.cfg"
    cfg_path.write_text(_tiny_with("corpus.seed = 7"), encoding="utf-8")
    base = ["--config", str(cfg_path), "--run", str(run)]
    assert cli.main(base + ["synth-data"]) == cli.EXIT_USAGE
    assert cli.main(base + ["synth-data", "--force"]) == cli.EXIT_OK
    for d in ("codec", "encoders", "checkpoints", "reports"):
        assert not any((run / d).iterdir()), d
    assert _run_log(run) == logged + [("synth-data", "ERR:USAGE"), ("synth-data", "ok")]
    capsys.readouterr()
    assert cli.main(base + ["evaluate"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("ERR:STATE ") and "codec.rvq" in err, err
    assert _run_log(run)[-1] == ("evaluate", "ERR:STATE")


def test_sampled_convert_with_nan_temperature_fails_typed(checkpointed_run, tmp_path, capsys):
    """A NaN gen.temperature under gen.mode = sample is a usage error with one
    log line, not an internal error from the sampler."""
    run = tmp_path / "run"
    shutil.copytree(checkpointed_run, run)
    cfg_path = tmp_path / "sample.cfg"
    cfg_path.write_text(_tiny_with("gen.mode = sample\ngen.temperature = nan"),
                        encoding="utf-8")
    src, ref = (run / "corpus" / "eval_manifest.tsv").read_text().splitlines()[0].split("\t")
    logged = _run_log(run)
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--run", str(run), "--allow-config-drift", "convert",
            "--source", src, "--target-ref", ref, "--out", str(tmp_path / "conv")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("ERR:USAGE generate: sample mode needs a temperature above 0"), err
    assert _run_log(run) == logged + [("convert", "ERR:USAGE")]
    assert not list(tmp_path.glob("conv*"))


# case -> (the corpus manifest's line 2 field to spoil and its bad value) or None
MALFORMED = {"grid-token": None, "grid-int64": None, "grid-missing": None,
             "grid-not-utf8": None, "eval-manifest-fields": None, "eval-manifest-missing": None,
             "eval-manifest-not-utf8": None, "eval-manifest-empty": None,
             "config-missing": None, "manifest-symbol": (3, "zz"),
             "manifest-speaker": (1, "one"), "manifest-seed": (4, "4.5"),
             "manifest-negative-seed": (4, "-1"), "manifest-channel": (2, "bogus"),
             "manifest-unknown-speaker": (1, "99")}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_file_fails_typed_and_is_logged(checkpointed_run, tmp_path, capsys,
                                                        case):
    """A malformed, missing or non-UTF-8 grid dump, evaluation manifest or
    corpus manifest is a typed data error that names the file (and the line
    of a malformed one), not a traceback; so is an evaluation manifest with
    no pairs, and a converted utterance whose speaker id the corpus does not
    hold, which names the utterance. A missing config file is a usage
    error that, like an unknown key, comes before any run directory is
    resolved, so no log line is written."""
    run = tmp_path / "run"
    shutil.copytree(checkpointed_run, run)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG, encoding="utf-8")
    bad = tmp_path / "bad.txt"
    missing = tmp_path / "missing.txt"
    if case == "grid-token":
        bad.write_text("1 <eos>\n<bos> 3x\n<bos> <bos>\n<bos> <bos>\n<bos> <bos>\n")
        argv, where = ["inspect-grid", "--in", str(bad)], f"{bad}: line 2: "
    elif case == "grid-int64":
        bad.write_text("99999999999999999999999 <eos>\n<bos> 3\n<bos> <bos>\n<bos> <bos>\n"
                       "<bos> <bos>\n")
        argv, where = ["inspect-grid", "--in", str(bad)], f"{bad}: line 1: "
    elif case == "grid-missing":
        argv, where = ["inspect-grid", "--in", str(missing)], f"{missing}: "
    elif case == "grid-not-utf8":
        bad.write_bytes(b"1 <eos>\n<bos> \xff\n")
        argv, where = ["inspect-grid", "--in", str(bad)], f"{bad}: "
    elif case == "eval-manifest-fields":
        bad.write_text("eval_src00\teval_tgt00\n\neval_src01\teval_tgt01\textra\n")
        argv, where = ["evaluate", "--manifest", str(bad)], f"{bad}:3: "
    elif case == "eval-manifest-missing":   # a user's file is data, not a pipeline artifact
        argv, where = ["evaluate", "--manifest", str(missing)], f"{missing}: "
    elif case == "eval-manifest-not-utf8":
        bad.write_bytes(b"eval_src00\teval_tgt00\xff\n")
        argv, where = ["evaluate", "--manifest", str(bad)], f"{bad}: "
    elif case == "eval-manifest-empty":
        bad.write_text("\n")
        argv, where = ["evaluate", "--manifest", str(bad)], "no pairs"
    elif case == "config-missing":
        cfg_path = missing
        argv, where = ["inspect-grid", "--in", str(bad)], f"{missing}: "
    else:
        manifest = run / "corpus" / "manifest.tsv"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split("\t")
        column, value = MALFORMED[case]
        fields[column] = value
        lines[1] = "\t".join(fields)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["convert", "--source", fields[0], "--target-ref", "eval_tgt00",
                "--out", str(tmp_path / "conv")]
        where = (f"utterance {fields[0]!r}: " if case == "manifest-unknown-speaker"
                 else f"{manifest}:2: ")
    logged = _run_log(run)
    capsys.readouterr()
    code = cli.main(["--config", str(cfg_path), "--run", str(run)] + argv)
    err = capsys.readouterr().err
    if case == "config-missing":
        assert code == cli.EXIT_USAGE and err.startswith("ERR:USAGE ") and where in err, err
        assert _run_log(run) == logged
    else:
        assert code == cli.EXIT_DATA and err.startswith("ERR:DATA ") and where in err, err
        assert _run_log(run) == logged + [(argv[0], "ERR:DATA")]


def _lock_is_free(run):
    """True when a fresh open of .runlock takes its flock at once."""
    with open(run / ".runlock", "a") as fh:   # closing it drops this probe's lock
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
        return True


def _synthvc(*args, **kwargs):
    """A Python child process that imports this checkout's synthvc."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)


def _hold_lock(run):
    """A child process that holds the run directory's lock until it is
    killed; returns once the lock is taken."""
    code = ("import sys; from synthvc import cli; run = cli.RunDir(sys.argv[1]); "
            "run.lock(); print('held', flush=True); sys.stdin.read()")
    child = _synthvc("-c", code, str(run), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert child.stdout.readline() == "held\n"
    return child


def test_lock_held_by_killed_process_is_free(tmp_path, capsys):
    """SIGKILL leaves the holder no chance to clean up; the kernel frees its
    lock, so the next lock is taken with no warning and no manual step."""
    with _hold_lock(tmp_path / "run") as holder:
        holder.kill()
    assert holder.returncode == -signal.SIGKILL
    run = cli.RunDir(tmp_path / "run")
    run.lock()
    run.unlock()
    assert _lock_is_free(run.root)
    assert capsys.readouterr().err == ""


def test_lock_held_by_live_pid_refuses_and_logs(tmp_path, capsys):
    run = tmp_path / "run"
    with _hold_lock(run) as holder:   # leaving the block waits for the holder to end
        try:
            with pytest.raises(ConfigError, match="locked"):
                cli.RunDir(run).lock()
            grid = tmp_path / "g.txt"
            grid.write_text("1 <eos>\n<bos> 3\n<bos> <bos>\n<bos> <bos>\n<bos> <bos>\n")
            argv = ["--run", str(run), "inspect-grid", "--in", str(grid)]
            assert cli.main(argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err.startswith("ERR:USAGE ")
            assert _run_log(run) == [("inspect-grid", "ERR:USAGE")]
            assert not _lock_is_free(run)
        finally:
            holder.kill()
    assert _lock_is_free(run)


def test_lock_is_free_after_refused_and_released_locks(tmp_path):
    run = cli.RunDir(tmp_path / "run")
    run.lock()
    with pytest.raises(ConfigError, match="locked"):
        cli.RunDir(run.root).lock()   # a second open of .runlock in this process
    assert not _lock_is_free(run.root)    # the refusal left the held lock alone
    run.unlock()
    assert _lock_is_free(run.root)
    assert [p.name for p in run.root.iterdir()] == [".runlock"]
    assert (run.root / ".runlock").read_bytes() == b""


def test_lock_refuses_a_command_in_another_process(tmp_path):
    """The lock is taken without waiting: another process's command on a
    held directory fails at once with ERR:USAGE and logs it."""
    run = cli.RunDir(tmp_path / "run")
    run.lock()
    try:
        child = _synthvc("-m", "synthvc", "--run", str(run.root), "inspect-grid", "--in", "g",
                         stderr=subprocess.PIPE)
        err = child.communicate()[1]
    finally:
        run.unlock()
    assert child.returncode == cli.EXIT_USAGE
    assert err.startswith("ERR:USAGE ") and "locked" in err, err
    assert _run_log(run.root) == [("inspect-grid", "ERR:USAGE")]


@pytest.mark.parametrize("exc", [IndexError, KeyboardInterrupt])
def test_unexpected_exception_is_logged_reraised_and_frees_the_lock(tmp_path, monkeypatch,
                                                                     exc):
    def boom(args, cfg, run):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_inspect_grid", boom)
    run = tmp_path / "run"
    with pytest.raises(exc, match="boom"):
        cli.main(["--run", str(run), "inspect-grid", "--in", "g"])
    assert _run_log(run) == [("inspect-grid", "ERR:INTERNAL")]
    assert _lock_is_free(run)
    assert all((run / d).is_dir() for d in cli.SUBDIRS)
