"""Every CLI command end to end at a tiny config: exit codes, artifacts, one
logs/run.tsv line per command (failed ones included), the typed failures of
a missing upstream artifact, a corrupt codec file and an unknown config
key, and the run-directory lock."""

import fcntl
import json
import os
import subprocess
import sys
import threading

import pytest

from synthvc import cli
from synthvc import synthworld as sw
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
    for name in ("asr", "vc", "joint", "final"):
        assert (run / "checkpoints" / f"{name}.ckpt").stat().st_size > 0
    for name in ("asr", "vc", "joint"):
        report = json.loads((run / "reports" / f"stage_{name}.json").read_text())
        assert 0.0 <= report["heldout_text_accuracy"] <= 1.0
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
