"""The synthvc benchmark.

    python3 perfbench/run.py --workload prepare|train|convert --seed N \
        --seconds S --trace 0|1

Each workload loads a different set of modules:

  prepare  `synth-data`, `fit-codec` and `pretrain-encoders` through
           `cli.main` in a fresh run directory, on the default corpus with
           the fitting and pretraining steps scaled down (PREPARE_STEPS): the
           frozen stack every run directory pays for once. No stream LM.
  train    `trainer.run_pipeline` over all three stages (TRAIN_STEPS) at the
           default model and batch size, on a context with no oracles, so no
           decode runs: the tape, nn, optim and data path.
  convert  `evaluation.evaluate_conversion` over CONVERT_PAIRS seeded
           held-out pairs, one text from each length stratum, with an LM
           trained by the same pipeline: greedy decode, codec decode and
           oracle scoring, with no backward pass.

The seed picks the fitting seeds (prepare), the training seed and with it
the batches (train), and the pairs (convert); synthvc sees only config values
and inputs made from it. `train` and `convert` load the frozen stack, and
`convert` the LM, from disk as `synthvc train` and `evaluate` do; `stack.py`
builds them once per checkout.

One process at a time drives a closed loop: an untraced run starts PROCESSES
child processes of this script one after another, each with an equal share
of --seconds, and pools what they measure. A child repeats set-up plus one
unit of work, each time from freshly loaded objects so every cache starts
cold, until its share is used (at least one unit), pinned to each of its
CPUs in turn. In `convert` the first child starts with a warm-up unit over a
pair for every held-out text. End-to-end metrics, from untraced
units: `wall_s`, one unit's wall time, each segment between boundary calls
(training and pretraining steps and their parts, k-means passes, decode
columns) taken from the repeat that ran it fastest; `setup_s`, the fastest
set-up; `peak_rss_mb`, the largest child's after its first unit;
`quality_loss`, the workload's
held-out error (in `convert`, the warm-up's). With --trace 1 a run does one
untraced unit in this process, then traces set-up plus one unit
(tracing.py) and reports the per-layer metrics and the tracing slowdown.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is the full report (environment, digests, checks, ROADMAP
baseline rows), also written under .bench_build/perfbench/results/.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one process, one BLAS thread, so a second thread
# spinning on a shared core adds no noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import stack  # noqa: E402

WORKLOADS = ("prepare", "train", "convert")
# The `train` schedule: the default 1:2:2 asr:vc:joint step ratio, scaled
# down so one pass of all three stages takes ~2.5 s and a run repeats it
# over ten times (see fastest_wall). Each step draws a text-length bucket at
# random, so fewer steps would make the work swing with the seed.
TRAIN_STEPS = {"train.asr_steps": 10, "train.vc_steps": 20, "train.joint_steps": 20}
# `convert` pairs per unit: few enough that a run repeats each decode ~30
# times; one held-out text from each of this many length strata, so every
# seed decodes short, middle and long texts alike.
CONVERT_PAIRS = 10
# The `prepare` schedule: the default corpus, with k-means at 2 of 25 passes
# per layer on half the default codec fit renders, and the pretraining loops
# at 1/6 to 1/12 of their default steps, so each child process repeats it at
# least twice. The oracle verifier keeps 450 of its 700 steps: its EER then
# stayed at or below 0.035 over 30 seeds, against the 0.10 calibration gate;
# at 350 steps it reached 0.062, at 175 0.094.
PREPARE_STEPS = {"codec.iters": 2, "codec.parallel_per_utt": 2, "codec.degraded_per_utt": 1,
                 "enc.sem_steps": 100, "enc.spk_steps": 100,
                 "oracle.verifier_steps": 450, "oracle.transcriber_steps": 150}
# set-ups timed per run at least: one before each unit (in prepare, before
# each command) and the rest at the end of each child; the fastest is
# reported, for the reason fastest_wall gives. A set-up takes ~10 ms, about
# the length of the host's fast periods, so many samples are cheap and needed.
SETUP_REPEATS = 60
# An untraced run splits --seconds over this many child processes of this
# script, one after another, and pools their units: how fast the same work
# runs differs by up to ~10% from one process to the next (memory layout),
# so one process per run would add that to the spread between runs.
PROCESSES = 3
RUN_DEADLINE_S = 170       # every child has ended by then, or is killed
SNR_TOLERANCE_DB = 0.05    # reconstruction SNR vs the SNR printed at fit time
EER_GATE = 0.10            # train_oracle_verifier's default calibration gate
# each workload's held-out error, lower is better and never 0: the codec's
# noise-to-signal power ratio, held-out acoustic CE, text-stream WER
QUALITY_LOSS = {"prepare": "codec_nsr", "train": "heldout_ac_ce", "convert": "wer_text"}
# what Unit.work counts, for the report's work rate
WORK = {"prepare": "frozen stacks", "train": "training samples", "convert": "pairs"}

# ROADMAP "Baseline" figures at the default config; the traced run reports
# its own next to them. Prepare rows scale the ROADMAP seconds by the share of
# default steps this benchmark runs, so they are rough.
ROADMAP = {
    "synth-data s": 0.6, "fit-codec s": 13.4, "pretrain-encoders s": 19.4,
    "asr ms/step": 32.0, "vc ms/step": 57.0, "joint ms/step": 59.0,
    "vc data ms/step": 15.0, "vc forward ms/step": 21.0, "vc backward ms/step": 13.0,
    "vc optimizer ms/step": 5.0, "tape ops per vc step": 1050.0,
}
# decode ms per column was measured at two lengths; rows interpolate between them
ROADMAP_DECODE = ((16, 3.0), (128, 6.9))


@dataclass
class Unit:
    """One unit of work: its wall time, work count and what it produced."""

    seconds: float
    work: int                      # frozen stacks, training samples or pairs done
    attempted: int
    failed: int
    quality: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    segments: list = field(default_factory=list)   # seconds between boundary calls
    setups: list = field(default_factory=list)     # set-ups timed in the unit's pauses
    outputs: object = None                         # what check() validates, then drops


class Boundaries:
    """Start time of every call to a workload's boundary functions (training
    and pretraining steps and their parts, k-means passes, decode columns)
    during one unit, and the results of those named in `keep`. They cut the
    unit into segments that are the same work in every repeat."""

    def __init__(self, functions, keep=()):
        from tracing import patch
        self.calls: list[float] = []
        self.kept: list = []
        self._patches = []
        for mod_name, attr in functions:
            try:
                self._patches += patch(mod_name, attr, functools.partial(
                    self._recorder, (mod_name, attr) in keep))
            except (AttributeError, KeyError):
                pass   # a renamed boundary only makes segments longer

    def _recorder(self, keep: bool, fn):
        calls, kept = self.calls, self.kept

        def record(*args, **kwargs):
            calls.append(time.perf_counter())
            out = fn(*args, **kwargs)
            if keep:
                kept.append(out)
            return out
        return record

    def close(self) -> None:
        from tracing import unpatch
        unpatch(self._patches)

    def segments(self, regions: list[tuple[float, float]]) -> list[float]:
        """Seconds between consecutive boundary calls in each timed region."""
        ticks = sorted(self.calls)
        out = []
        for start, end in regions:
            marks = [start] + [t for t in ticks if start <= t < end] + [end]
            out += [b - a for a, b in zip(marks, marks[1:])]
        return out


def run_unit(workload, state, tracer=None) -> Unit:
    """One timed unit, then its output checks. A tracer, installed by the
    caller before set-up, comes off before the checks run."""
    bounds = Boundaries(*workload.boundaries())
    try:
        unit = workload.unit(state, bounds)
    finally:
        bounds.close()
        if tracer is not None:
            tracer.uninstall()
    if unit.outputs is not None:
        workload.check(state, unit)
        unit.outputs = None
    return unit


def derived_seed(seed: int, tag: int) -> int:
    import numpy as np
    return int(np.random.default_rng([tag, seed % 2**32]).integers(1, 2**31))


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def frozen_digest(ctx) -> str:
    """Codec, both encoders and the oracles the context holds."""
    from synthvc import nn
    oracles = [o for o in (ctx.verifier, ctx.transcriber) if o is not None]
    return sha256(*(c.centroids.astype("<f4").tobytes() for c in ctx.codec.codebooks),
                  nn.param_bytes(ctx.sem_enc.params), nn.param_bytes(ctx.spk_enc.params),
                  *(nn.param_bytes(o.params) for o in oracles))


# ---------------------------------------------------------------------------
# workloads


class Prepare:
    """synth-data -> fit-codec -> pretrain-encoders on the default corpus."""

    COMMANDS = ("synth-data", "fit-codec", "pretrain-encoders")
    FIGURES = {
        "codec_snr_db": r"fit SNR (\S+) dB",
        "sem_frame_acc": r"semantic heldout frame accuracy: (\S+)",
        "spk_utt_acc": r"speaker heldout utterance accuracy: (\S+)",
        "oracle_eer": r"oracle verifier EER: (\S+)",
        "transcriber_exact": r"pristine exact rate: (\S+),",
        "transcriber_degraded_cer": r"degraded CER: (\S+)",
    }

    def __init__(self, seed: int, config: dict = PREPARE_STEPS):
        self.values = {**config,
                       "codec.seed": derived_seed(seed, 0xC0DE),
                       "enc.seed": derived_seed(seed, 0xE4C0),
                       "oracle.seed": derived_seed(seed, 0x0AC1)}
        self.work = stack.CACHE / "work" / f"prepare-{os.getpid()}"
        self.count = 0

    def setup(self):
        """What every command redoes first: resolve the config, build the world."""
        from synthvc import cli
        from synthvc.config import RunConfig
        self.count += 1
        root = self.work / f"u{self.count}"
        root.mkdir(parents=True)
        cfg_path = root / "bench.cfg"
        stack.write_config(cfg_path, self.values)
        cli._world(RunConfig.from_file(cfg_path))
        return root, cfg_path

    def boundaries(self):
        return (("synthworld", "render"), ("nn", "block"), ("nn", "linear"),
                ("numerics", "Tape.backward"), ("optim", "Adam.step"),
                ("encoders", "SemanticEncoder.features"), ("encoders", "SpeakerEncoder.embed"),
                ("evaluation", "OracleVerifier.embed"),
                ("evaluation", "OracleTranscriber.transcribe"),
                ("checkpoint", "save_checkpoint"), ("codec", "_kmeans_pp_init"),
                ("codec", "_assign_fit")),

    def unit(self, state, bounds: Boundaries) -> Unit:
        from synthvc import cli
        root, cfg_path = state
        for old in self.work.iterdir():    # one unit's run directory at a time
            if old != root:
                shutil.rmtree(old)
        run = root / "run"
        argvs = (["synth-data", "--out", str(run)], ["--run", str(run), "fit-codec"],
                 ["--run", str(run), "pretrain-encoders"])
        codes, text, regions, setups = [], "", [], []
        for argv in argvs:
            if regions:   # each command redoes the set-up; time it in the pause
                t = time.perf_counter()
                self.setup()
                setups.append(time.perf_counter() - t)
            t = time.perf_counter()
            code, out = stack.run_cli(cli, ["--config", str(cfg_path)] + argv)
            regions.append((t, time.perf_counter()))
            codes.append(code)
            text += out
        per_cmd = {name: b - a for name, (a, b) in zip(self.COMMANDS, regions)}
        u = Unit(seconds=sum(per_cmd.values()), work=1, attempted=len(codes),
                 failed=sum(c != 0 for c in codes), detail={"command_s": per_cmd},
                 segments=bounds.segments(regions), setups=setups)
        for key, pattern in self.FIGURES.items():
            found = re.search(pattern, text)
            if found is None:
                u.problems.append(f"no {key} in the command output")
            else:
                u.quality[key] = float(found.group(1))
        if u.failed == 0:
            u.outputs = run
        return u

    def check(self, state, u: Unit) -> None:
        """Every artifact loads back; the codec reproduces its fit SNR; the
        oracle gate held."""
        import numpy as np
        from synthvc import cli, codec as cd, evaluation as ev, synthworld as sw
        from synthvc.config import RunConfig
        run, cfg_path = u.outputs, state[1]
        cfg = RunConfig.from_file(cfg_path)
        ctx, _ = cli._build_context(cfg, cli.RunDir(run))
        sw.load_manifest(run / "corpus" / "manifest.tsv", ctx.splits.vocab)
        sw.load_frames(run / "corpus" / "frames.bin")
        ev.load_eval_manifest(run / "corpus" / "eval_manifest.tsv")
        u.digests["frozen"] = frozen_digest(ctx)
        frames = cd.build_fit_corpus(ctx.splits, parallel_per_utt=cfg["codec.parallel_per_utt"],
                                     degraded_per_utt=cfg["codec.degraded_per_utt"],
                                     seed=cfg["codec.seed"])
        # reconstruction_snr_db in chunks: one call would hold an (N, K, F) array
        sig = err = 0.0
        for lo in range(0, len(frames), 4096):
            chunk = frames[lo:lo + 4096].astype(np.float64)
            recon = cd.decode(cd.encode(chunk, ctx.codec), ctx.codec)
            sig += float(np.sum(chunk ** 2))
            err += float(np.sum((chunk - recon) ** 2))
        snr = 10.0 * math.log10(sig / err)
        u.detail["reconstruction_snr_db"] = snr
        u.quality["codec_nsr"] = 10.0 ** (-ctx.codec.fit_snr_db / 10.0)
        if abs(snr - ctx.codec.fit_snr_db) > SNR_TOLERANCE_DB:
            u.problems.append(f"reconstruction SNR {snr:.4f} dB vs fit SNR "
                              f"{ctx.codec.fit_snr_db:.4f} dB")
        if not u.quality.get("oracle_eer", 1.0) <= EER_GATE:
            u.problems.append(f"oracle EER {u.quality.get('oracle_eer')} above {EER_GATE}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Train:
    """All three stages, 10/20/20 steps, batch 6, on a context with no oracles."""

    def __init__(self, seed: int, stack_root: Path, config: dict = TRAIN_STEPS):
        self.values = {**config, "train.seed": derived_seed(seed, 0x7A1)}
        self.stack = stack_root

    def setup(self):
        """`synthvc train`'s loading, then the training context without oracles."""
        from synthvc import cli, trainer as tr
        from synthvc.config import RunConfig
        full, plan = cli._build_context(RunConfig(self.values), cli.RunDir(self.stack / "run"))
        ctx = tr.PipelineContext(full.splits, full.codec, full.sem_enc, full.spk_enc,
                                 lm_cfg=full.lm_cfg)
        return ctx, plan

    def boundaries(self):
        return (("trainer", "asr_step"), ("trainer", "vc_step"), ("trainer", "joint_step"),
                ("synthworld", "render"), ("codec", "encode"),
                ("encoders", "SemanticEncoder.features"), ("encoders", "SpeakerEncoder.embed"),
                ("streamlm", "forward_batch"), ("nn", "block"), ("numerics", "Tape.backward"),
                ("optim", "Adam.step")),

    def unit(self, state, bounds: Boundaries) -> Unit:
        from synthvc import trainer as tr
        from synthvc.errors import SynthVCError
        ctx, plan = state
        steps = plan.asr_steps + plan.vc_steps + plan.joint_steps
        t0 = time.perf_counter()
        try:
            result = tr.run_pipeline(ctx, plan)
        except SynthVCError as e:
            return Unit(seconds=time.perf_counter() - t0, work=0, attempted=steps,
                        failed=steps, problems=[f"run_pipeline: {e!r}"])
        seconds = time.perf_counter() - t0
        return Unit(seconds=seconds, work=steps * plan.batch, attempted=steps, failed=0,
                    segments=bounds.segments([(t0, t0 + seconds)]), outputs=result)

    def check(self, state, u: Unit) -> None:
        """Losses and held-out metrics are finite; the frozen stack is unchanged."""
        from synthvc import nn
        ctx, _ = state
        result = u.outputs
        for name, rep in result.stage_reports.items():
            values = [rep["final_loss"], rep["heldout_text_accuracy"], rep["heldout_acoustic_ce"]]
            if not all(v is not None and math.isfinite(v) for v in values):
                u.problems.append(f"stage {name}: non-finite loss or metric {values}")
                u.failed += rep["steps"]
            if rep["frozen_hash_start"] != rep["frozen_hash_end"]:
                u.problems.append(f"stage {name}: frozen stack changed during training")
        joint = result.stage_reports["joint"]
        u.quality = {"heldout_text_acc": joint["heldout_text_accuracy"],
                     "heldout_ac_ce": joint["heldout_acoustic_ce"]}
        u.digests = {"params": sha256(nn.param_bytes(result.params)),
                     "frozen": frozen_digest(ctx)}
        u.detail["stages"] = {n: {k: r[k] for k in ("final_loss", "heldout_text_accuracy",
                                                    "heldout_acoustic_ce")}
                              for n, r in result.stage_reports.items()}


class Convert:
    """Greedy conversion plus oracle scoring of CONVERT_PAIRS seeded held-out
    pairs; a warm-up unit first converts a pair for every held-out text."""

    def __init__(self, seed: int, stack_root: Path, config: dict = TRAIN_STEPS,
                 max_steps: int | None = None):
        self.values = dict(config)
        self.pair_seed = derived_seed(seed, 0xE7A)
        self.stack = stack_root
        self.max_steps = max_steps

    def setup(self, every_text: bool = False):
        """`synthvc evaluate`'s loading: the frozen stack and the LM; then the
        timed pairs, or with `every_text` the warm-up's."""
        from synthvc import checkpoint as ck, cli
        from synthvc.config import RunConfig
        cfg = RunConfig(self.values)
        ctx, _ = cli._build_context(cfg, cli.RunDir(self.stack / "run"))
        params = ck.components_to_params(ck.load_checkpoint(self.stack / "lm.ckpt"))
        every, timed = self.pairs(ctx.splits)
        return ctx, params, every if every_text else timed, cfg

    def warmup(self) -> Unit:
        """One unit over a pair per held-out text, before the timed units. Its
        WER is the run's quality figure: the timed pairs are too few for a
        steady one."""
        return run_unit(self, self.setup(every_text=True))

    def pairs(self, splits) -> tuple[list, list]:
        """Every held-out text is the source of one pair; the seed picks the
        order, speakers, references and render noise. The texts, sorted by
        length, fall into CONVERT_PAIRS strata and the seed picks one from
        each: their pairs are the timed ones, so every seed decodes short,
        middle and long texts alike."""
        import numpy as np
        from synthvc import evaluation as ev, synthworld as sw
        rng = np.random.default_rng([0xE7A1, self.pair_seed])
        texts, speakers = splits.heldout_texts, splits.heldout_speaker_ids
        every, sources = [], []
        for k, t in enumerate(rng.permutation(len(texts))):
            s_spk = speakers[k % len(speakers)]
            t_spk = rng.choice([s for s in speakers if s != s_spk])
            ref_text = texts[(t + 1 + int(rng.integers(len(texts) - 1))) % len(texts)]
            src = sw.Utterance(utt_id=f"bench_src{k:03d}", text=texts[t], speaker_id=s_spk,
                               channel=sw.PRISTINE, seed=int(rng.integers(2**31)), split="eval")
            ref = sw.Utterance(utt_id=f"bench_ref{k:03d}", text=ref_text, speaker_id=int(t_spk),
                               channel=sw.PRISTINE, seed=int(rng.integers(2**31)), split="eval")
            every.append(ev.EvalPair(source=src, target_ref=ref))
            sources.append(int(t))
        by_len = sorted(range(len(texts)), key=lambda i: (len(texts[i]), i))
        chosen = {int(rng.choice(stratum)) for stratum in np.array_split(by_len, CONVERT_PAIRS)}
        return every, [p for p, t in zip(every, sources) if t in chosen]

    def boundaries(self):
        return ((("streamlm", "generate"), ("streamlm", "forward"), ("codec", "decode"),
                 ("evaluation", "OracleTranscriber.transcribe"),
                 ("evaluation", "OracleVerifier.embed")),
                {("streamlm", "generate")})

    def unit(self, state, bounds: Boundaries) -> Unit:
        from synthvc import evaluation as ev
        from synthvc.errors import SynthVCError
        ctx, params, pairs, cfg = state
        t0 = time.perf_counter()
        try:
            report = ev.evaluate_conversion(
                params, ctx.lm_cfg, ctx.codec, ctx.sem_enc, ctx.spk_enc, params,
                ctx.verifier, ctx.transcriber, ctx.splits, pairs,
                max_steps=self.max_steps or cfg["gen.max_steps"], tail=cfg["gen.tail"])
        except SynthVCError as e:
            return Unit(seconds=time.perf_counter() - t0, work=0, attempted=len(pairs),
                        failed=len(pairs), problems=[f"evaluate_conversion: {e!r}"])
        seconds = time.perf_counter() - t0
        return Unit(seconds=seconds, work=len(pairs), attempted=len(pairs), failed=0,
                    segments=bounds.segments([(t0, t0 + seconds)]),
                    outputs=(report, bounds.kept))

    def check(self, state, u: Unit) -> None:
        """The pair count is right and every generated grid inverts."""
        from synthvc import nn, streamlm as sl
        from synthvc.errors import SynthVCError
        ctx, params, pairs, _ = state
        report, generated = u.outputs
        if report.pairs != len(pairs) or len(generated) != len(pairs):
            u.problems.append(f"{len(pairs)} pairs, report has {report.pairs}, "
                              f"{len(generated)} decodes")
        for res in generated:
            try:
                sl.invert_delayed_grid(res.grid, ctx.lm_cfg.layout)
            except SynthVCError:
                u.failed += 1
        u.quality = {"wer_text": report.wer_text, "secs_oracle": report.secs_oracle}
        u.digests = {"grids": sha256(*(r.grid.tokens.astype("<i8").tobytes() for r in generated)),
                     "params": sha256(nn.param_bytes(params)), "frozen": frozen_digest(ctx)}
        u.detail = {"report": json.loads(report.to_json()),
                    "columns": [r.steps for r in generated]}


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import numpy as np
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state() -> tuple[str | None, bool | None]:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(stack.ROOT.parent),
           "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=stack.ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=stack.ROOT, env=env, capture_output=True, text=True,
                               timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(dirty.stdout.strip())


def environment(seed: int, config_values: dict) -> dict:
    import numpy as np
    from synthvc.config import RunConfig
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_key": stack.source_key(),
        "seed": seed,
        "config_hash": RunConfig(config_values).config_hash(),
        "config_values": config_values,
    }


# ---------------------------------------------------------------------------
# runs


def run_units(workload, seconds: float, warmup: bool = True,
              first_cpu: int = 0) -> tuple[list[Unit], list[float], Unit | None, float]:
    """Run the workload's warm-up unit, if it has one and `warmup` is set;
    then repeat set-up plus unit while the next unit would end nearer to
    `seconds` than stopping now (at least once); then time set-ups until
    there are SETUP_REPEATS / PROCESSES. Each set-up plus unit runs pinned
    to the next of the CPUs this process may use, in turn (see fastest_wall).
    Also returns the peak RSS after the first unit: later units add a
    varying amount to it, so it is what one run of the work needs."""
    cpus = sorted(os.sched_getaffinity(0))
    turns = itertools.islice(itertools.cycle(cpus), first_cpu % len(cpus), None)
    setups: list[float] = []
    units: list[Unit] = []
    begin = time.perf_counter()
    try:
        warm = workload.warmup() if warmup and hasattr(workload, "warmup") else None
        while True:
            os.sched_setaffinity(0, {next(turns)})
            t = time.perf_counter()
            state = workload.setup()
            setups.append(time.perf_counter() - t)
            units.append(run_unit(workload, state))
            peak = peak if len(units) > 1 else peak_rss_mb()
            setups += units[-1].setups
            del state
            per_unit = statistics.median(u.seconds for u in units)
            if time.perf_counter() - begin + per_unit / 2 > seconds:
                break
        while len(setups) < math.ceil(SETUP_REPEATS / PROCESSES):
            os.sched_setaffinity(0, {next(turns)})
            t = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t)
    finally:
        os.sched_setaffinity(0, cpus)
    return units, setups, warm, peak


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(name: str, units: list[Unit], setups: list[float], quality: Unit,
               peak_mb: float) -> dict:
    return {
        "setup_s": (min(setups), "s"),
        "wall_s": (fastest_wall(units), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "quality_loss": (quality.quality.get(QUALITY_LOSS[name], math.nan), "loss"),
    }


def to_json(value):
    """numpy scalars in unit details and reports, as plain numbers."""
    return value.item() if hasattr(value, "item") else str(value)


def child_run(workload, seconds: float, index: int) -> int:
    """One child's share of an untraced run; its units go to stdout as JSON."""
    units, setups, warm, peak = run_units(workload, seconds, warmup=index == 0, first_cpu=index)

    def record(u: Unit) -> dict:
        return {k: v for k, v in asdict(u).items() if k != "outputs"}
    print(json.dumps({"units": [record(u) for u in units], "setups": setups,
                      "warm": record(warm) if warm else None, "peak_rss_mb": peak},
                     default=to_json))
    return 0


def run_processes(args) -> tuple[list[Unit], list[float], Unit | None, float]:
    """Split --seconds over PROCESSES children, one after another; pool their
    units and set-ups. The first child also runs the workload's warm-up."""
    begin = time.perf_counter()
    units: list[Unit] = []
    setups: list[float] = []
    warm, peak = None, 0.0
    for k in range(PROCESSES):
        elapsed = time.perf_counter() - begin
        share = max(0.0, (args.seconds - elapsed) / (PROCESSES - k))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(share), "--child", str(k)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, RUN_DEADLINE_S - elapsed))
        if done.returncode != 0:
            raise RuntimeError(f"child {k} exited with code {done.returncode}")
        out = json.loads(done.stdout.strip().splitlines()[-1])
        units += [Unit(**u) for u in out["units"]]
        setups += out["setups"]
        warm = Unit(**out["warm"]) if out["warm"] else warm
        peak = max(peak, out["peak_rss_mb"])
    return units, setups, warm, peak


def fastest_wall(units: list[Unit]) -> float:
    """Wall time of one unit, each segment taken from the repeat that ran it
    fastest. On a shared host each CPU alternates between fast and slow
    periods, from milliseconds to tens of seconds long, independently of the
    other CPUs; a segment is short enough to fall in one, and repeats take
    turns on the CPUs, so the per-segment minimum over repeats measures the
    work more than the neighbours."""
    if len({len(u.segments) for u in units}) != 1:
        return statistics.median(u.seconds for u in units)
    return sum(min(column) for column in zip(*(u.segments for u in units)))


def consistency(units: list[Unit]) -> list[str]:
    """Every unit of a run does identical work, so results must be bit-equal."""
    first = units[0]
    return [f"unit {i} differs from unit 0 in quality or digests"
            for i, u in enumerate(units[1:], 1)
            if u.quality != first.quality or u.digests != first.digests]


def roadmap_rows(name: str, base: Unit, tracer, table: dict) -> list[dict]:
    rows = []

    def row(label: str, measured: float, roadmap: float, source: str):
        rows.append({"row": label, "measured": measured, "roadmap": roadmap, "source": source,
                     "differs_over_10pct": abs(measured - roadmap) > 0.10 * roadmap})

    if name == "prepare":
        from synthvc.config import DEFAULTS
        values = {**{k: DEFAULTS[k][1] for k in DEFAULTS}, **PREPARE_STEPS}
        steps = ("enc.sem_steps", "enc.spk_steps", "oracle.verifier_steps",
                 "oracle.transcriber_steps")
        scale = {"synth-data": 1.0,
                 "fit-codec": values["codec.iters"] / DEFAULTS["codec.iters"][1],
                 "pretrain-encoders": (sum(values[k] for k in steps)
                                       / sum(DEFAULTS[k][1] for k in steps))}
        for cmd in Prepare.COMMANDS:
            row(f"{cmd} s (x{scale[cmd]:.3f} of default steps)", base.detail["command_s"][cmd],
                ROADMAP[f"{cmd} s"] * scale[cmd], "untraced")
    elif name == "train":
        split = tracer.step_split()
        for stage in ("asr", "vc", "joint"):
            s = split[f"{stage}_step"]
            row(f"{stage} ms/step", s["step_ms"], ROADMAP[f"{stage} ms/step"], "traced")
        for part in ("data", "forward", "backward", "optimizer"):
            row(f"vc {part} ms/step", split["vc_step"][f"{part}_ms"],
                ROADMAP[f"vc {part} ms/step"], "traced")
        ops, _, _ = tracer.ops_per_step("trainer.vc_step")
        row("tape ops per vc step", ops, ROADMAP["tape ops per vc step"], "traced")
        # the ROADMAP count may include ops on frozen inputs, which no tape records
        row("numerics op calls per vc step", tracer.op_calls_per_step("trainer.vc_step"),
            ROADMAP["tape ops per vc step"], "traced")
    else:
        cols = base.detail["columns"]
        mean_len = sum(cols) / len(cols)
        (l0, v0), (l1, v1) = ROADMAP_DECODE
        ref = v0 + (v1 - v0) * (mean_len - l0) / (l1 - l0)
        total = sum(cols)
        row(f"decode ms/column at mean {mean_len:.1f} columns",
            table["streamlm.generate"]["ms"] / total, ref, "traced")
    return rows


def traced_run(name: str, seed: int, workload) -> tuple[dict, dict, list[Unit]]:
    """One untraced unit, then set-up plus one unit under the tracer."""
    from tracing import Tracer
    base = run_unit(workload, workload.setup())
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup()
    except BaseException:
        tracer.uninstall()
        raise
    traced = run_unit(workload, state, tracer)
    table = tracer.table()
    metrics = tracer.layer_metrics(table)
    metrics["trace.slowdown"] = (traced.seconds / base.seconds, "x")
    trace_file = stack.CACHE / "traces" / f"{name}-seed{seed}.npz"
    tracer.write(trace_file)
    extra = {
        "spans": len(tracer.start),
        "trace_file": str(trace_file.relative_to(stack.ROOT)),
        "nesting_violations": tracer.nesting_violations(),
        "layers": table,
        "step_split": tracer.step_split(),
        "untraced_unit_s": base.seconds,
        "traced_unit_s": traced.seconds,
        "roadmap_baseline": roadmap_rows(name, base, tracer, table),
    }
    return metrics, extra, [base, traced]


def make_workload(name: str, seed: int):
    if name == "prepare":
        return Prepare(seed)
    root = stack.stack_dir()
    return Train(seed, root) if name == "train" else Convert(seed, root)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    stack.import_synthvc()

    workload = make_workload(args.workload, args.seed)
    if args.child is not None:
        try:
            return child_run(workload, args.seconds, args.child)
        finally:
            if isinstance(workload, Prepare):
                workload.close()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(args.seed, workload.values)}
    setups: list[float] = []
    warm = None
    try:
        if args.trace:
            metrics, extra, units = traced_run(args.workload, args.seed, workload)
            report.update(extra)
        else:
            units, setups, warm, peak = run_processes(args)
            metrics = end_to_end(args.workload, units, setups, warm or units[0], peak)
            report["work_per_s"] = {WORK[args.workload]: units[0].work / metrics["wall_s"][0]}
    finally:
        if isinstance(workload, Prepare):
            workload.close()

    checked = units + ([warm] if warm else [])
    problems = [p for u in checked for p in u.problems] + consistency(units)
    if args.trace and report["nesting_violations"]:
        problems.append(f"{report['nesting_violations']} spans outlast their parent")
    attempted = sum(u.attempted for u in checked)
    failed = sum(u.failed for u in checked)

    def summary(u: Unit) -> dict:
        return {"seconds": u.seconds, "work": u.work, "attempted": u.attempted,
                "failed": u.failed, "quality": u.quality, "detail": u.detail}
    report.update({
        "warmup": summary(warm) if warm else None,
        "warmup_digests": warm.digests if warm else None,
        "units": [summary(u) for u in units],
        "setup_s": setups,
        "digests": units[0].digests,
        "problems": problems,
    })
    correct = (not problems and failed == 0
               and all(math.isfinite(v) for v, _ in metrics.values()))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    out = stack.CACHE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, default=to_json) + "\n", encoding="utf-8")
    print(json.dumps(report, default=to_json))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
