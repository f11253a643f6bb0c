"""Every CLI command end to end at a tiny config: exit codes, artifacts, one
logs/run.tsv line per command (failed ones included), the typed failures of
a missing upstream artifact, a corrupt codec file, malformed input files,
an unknown config key, a bad training-plan value and a head count that does
not split the LM width, and the run-directory lock."""

import fcntl
import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

from synthvc import cli
from synthvc import synthworld as sw
from synthvc import trainer as tr
from synthvc.config import RunConfig
from synthvc.errors import ConfigError

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


def _run_log(run):
    """(command, status) per logs/run.tsv line."""
    lines = (run / "logs" / "run.tsv").read_text(encoding="utf-8").splitlines()
    return [(f[1], f[-1]) for f in (line.split("\t") for line in lines)]


def test_cli_every_command_end_to_end(tmp_path, capsys):
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
    assert not (run / ".runlock").exists()

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
    assert (run / "logs" / "metrics.tsv").exists()

    assert cli.main(convert) == 0
    for suffix in (".frames.bin", ".text.txt", ".grid.txt"):
        assert (run / "out" / f"conv{suffix}").stat().st_size > 0
    assert "converted " + src in capsys.readouterr().out
    converted = sw.load_frames(run / "out" / "conv.frames.bin")
    assert list(converted) == [f"{src}->{ref}"] and converted[f"{src}->{ref}"].ndim == 2

    assert cli.main(base + ["evaluate"]) == 0
    report = json.loads((run / "reports" / "evaluate.json").read_text())
    assert report["pairs"] == 4

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
    bad_cfg.write_text(TINY_CONFIG + "gen.beam = 4\n", encoding="utf-8")
    assert cli.main(["--config", str(bad_cfg), "--run", str(run), "evaluate"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("ERR:USAGE ")

    assert _run_log(run) == [
        ("synth-data", "ok"), ("fit-codec", "ok"), ("pretrain-encoders", "ok"),
        ("convert", "ERR:STATE"), ("train", "ok"), ("convert", "ok"), ("evaluate", "ok"),
        ("inspect-grid", "ok"), ("evaluate", "ERR:FORMAT"), ("evaluate", "ERR:FORMAT")]


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
                                 "train.joint_real_prob = 1.5"])
def test_bad_plan_value_fails_typed_before_any_stage(prepared_run, tmp_path, capsys,
                                                     monkeypatch, bad):
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TINY_CONFIG + bad + "\n", encoding="utf-8")
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


def test_head_count_that_does_not_split_the_width_fails_typed(prepared_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(prepared_run, run)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TINY_CONFIG + "lm.heads = 3\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--run", str(run), "--allow-config-drift",
            "train", "--stage", "all"]
    assert cli.main(argv) == cli.EXIT_USAGE == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("ERR:USAGE lm.heads: ")
    assert _run_log(run)[-1] == ("train", "ERR:USAGE")
    assert not list((run / "checkpoints").glob("*.ckpt"))


@pytest.fixture(scope="module")
def checkpointed_run(prepared_run, tmp_path_factory):
    """The prepared run plus an untrained joint-stage checkpoint, which is
    all `convert` and `evaluate` load before reading their input files."""
    run = tmp_path_factory.mktemp("checkpointed") / "run"
    shutil.copytree(prepared_run, run)
    cfg = RunConfig.from_file(prepared_run.parent / "tiny.cfg")
    ctx, plan = cli._build_context(cfg, cli.RunDir(run))
    cli._save_trainable(run / "checkpoints" / "joint.ckpt",
                        tr.init_pipeline_params(ctx, plan.seed))
    return run


# case -> (the corpus manifest's line 2 field to spoil and its bad value) or None
MALFORMED = {"grid-token": None, "grid-missing": None, "grid-not-utf8": None,
             "eval-manifest-fields": None, "eval-manifest-not-utf8": None,
             "config-missing": None, "manifest-symbol": (3, "zz"),
             "manifest-speaker": (1, "one"), "manifest-seed": (4, "4.5")}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_file_fails_typed_and_is_logged(checkpointed_run, tmp_path, capsys,
                                                        case):
    """A malformed, missing or non-UTF-8 grid dump, evaluation manifest or
    corpus manifest is a typed data error that names the file (and the line
    of a malformed one), not a traceback. A missing config file is a usage
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
    elif case == "grid-missing":
        argv, where = ["inspect-grid", "--in", str(missing)], f"{missing}: "
    elif case == "grid-not-utf8":
        bad.write_bytes(b"1 <eos>\n<bos> \xff\n")
        argv, where = ["inspect-grid", "--in", str(bad)], f"{bad}: "
    elif case == "eval-manifest-fields":
        bad.write_text("eval_src00\teval_tgt00\n\neval_src01\teval_tgt01\textra\n")
        argv, where = ["evaluate", "--manifest", str(bad)], f"{bad}:3: "
    elif case == "eval-manifest-not-utf8":
        bad.write_bytes(b"eval_src00\teval_tgt00\xff\n")
        argv, where = ["evaluate", "--manifest", str(bad)], f"{bad}: "
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
        argv = ["convert", "--source", lines[0].split("\t")[0], "--target-ref", "eval_tgt00",
                "--out", str(tmp_path / "conv")]
        where = f"{manifest}:2: "
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


def test_lock_with_dead_pid_is_replaced(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()            # reaped: no process has this pid any more
    run = cli.RunDir(tmp_path / "run")
    run.root.mkdir()
    (run.root / ".runlock").write_text(str(child.pid))
    run.lock()
    assert (run.root / ".runlock").read_text() == str(os.getpid())
    run.unlock()
    assert not (run.root / ".runlock").exists()


def test_lock_held_by_live_pid_refuses_and_logs(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / ".runlock").write_text(str(os.getpid()))
    with pytest.raises(ConfigError, match="locked"):
        cli.RunDir(run).lock()
    grid = tmp_path / "g.txt"
    grid.write_text("1 <eos>\n<bos> 3\n<bos> <bos>\n<bos> <bos>\n<bos> <bos>\n")
    assert cli.main(["--run", str(run), "inspect-grid", "--in", str(grid)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("ERR:USAGE ")
    assert _run_log(run) == [("inspect-grid", "ERR:USAGE")]
    assert (run / ".runlock").read_text() == str(os.getpid())


def _guard_is_free(run):
    with open(run / ".runlock.guard", "a") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
        fcntl.flock(fh, fcntl.LOCK_UN)
        return True


def test_lock_guard_released_after_refused_and_successful_lock(tmp_path):
    run = cli.RunDir(tmp_path / "run")
    run.lock()
    assert _guard_is_free(run.root)
    with pytest.raises(ConfigError, match="locked"):
        run.lock()          # this process's own live pid holds the lock
    assert _guard_is_free(run.root)
    run.unlock()


def test_lock_waits_while_guard_is_held(tmp_path):
    run = cli.RunDir(tmp_path / "run")
    run.root.mkdir()
    with open(run.root / ".runlock.guard", "a") as guard:
        fcntl.flock(guard, fcntl.LOCK_EX)
        locker = threading.Thread(target=run.lock)
        locker.start()
        locker.join(timeout=0.3)
        assert locker.is_alive() and not (run.root / ".runlock").exists()
    locker.join(timeout=10)
    assert not locker.is_alive()
    assert (run.root / ".runlock").read_text() == str(os.getpid())
    run.unlock()
