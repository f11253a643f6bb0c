"""Build, cache and load the artifacts the `train` and `convert` workloads need.

The frozen stack (corpus, codec, encoders, oracles) is built by the CLI
commands `synth-data`, `fit-codec` and `pretrain-encoders` at the default
config. The LM is trained by `trainer.run_pipeline`, as in the `train`
workload, from the default training seed but for many more steps
(LM_STEPS): after a short schedule the LM fails to stop at random, so which
pairs a seed picks would swing decode time and WER. Both are built once per
checkout, by the code under test, in a child process (`python3 perfbench/stack.py <dir>`), so the
measuring process never holds build-time state. The cache directory name is
a hash of every source file and of this file, so edited code never reuses
artifacts built by other code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 900

# the LM's schedule: the default 1:2:2 asr:vc:joint step ratio, 1/8 the steps
LM_STEPS = {"train.asr_steps": 240, "train.vc_steps": 480, "train.joint_steps": 480}


def import_synthvc() -> None:
    """Import the package from this checkout's `src`, never from elsewhere."""
    if not (SRC / "synthvc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no synthvc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import synthvc
    if Path(synthvc.__file__).resolve().parent != SRC / "synthvc":
        raise SystemExit(f"perfbench: imported synthvc from {synthvc.__file__}, not {SRC}")


def write_config(path: Path, values: dict) -> None:
    """A `key = value` config file for `synthvc --config`."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in sorted(values.items())),
                    encoding="utf-8")


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One `synthvc` command in this process; returns exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def source_key() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [Path(__file__).resolve()]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stack_dir() -> Path:
    """The cached stack for this checkout's code, built on first use."""
    target = CACHE / f"stack-{source_key()}"
    if (target / "DONE").is_file():
        return target
    subprocess.run([sys.executable, str(Path(__file__).resolve()), str(target)],
                   check=True, timeout=BUILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
    if not (target / "DONE").is_file():
        raise RuntimeError(f"stack build left no {target / 'DONE'}")
    return target


def build(target: Path) -> None:
    import_synthvc()
    from synthvc import checkpoint as ck
    from synthvc import cli
    from synthvc import trainer as tr
    from synthvc.config import RunConfig

    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cfg_path = tmp / "bench.cfg"
    write_config(cfg_path, LM_STEPS)
    run = tmp / "run"
    for argv in (["synth-data", "--out", str(run)], ["--run", str(run), "fit-codec"],
                 ["--run", str(run), "pretrain-encoders"]):
        code, _ = run_cli(cli, ["--config", str(cfg_path)] + argv)
        if code != 0:
            raise RuntimeError(f"stack build: synthvc {argv} exited {code}")
    cfg = RunConfig.from_file(cfg_path)
    full, plan = cli._build_context(cfg, cli.RunDir(run))
    ctx = tr.PipelineContext(full.splits, full.codec, full.sem_enc, full.spk_enc,
                             lm_cfg=full.lm_cfg)
    result = tr.run_pipeline(ctx, plan)
    ck.save_checkpoint(tmp / "lm.ckpt", ck.params_to_components(result.params, frozen=False))
    (tmp / "DONE").write_text("ok\n", encoding="utf-8")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)


if __name__ == "__main__":
    build(Path(sys.argv[1]))
