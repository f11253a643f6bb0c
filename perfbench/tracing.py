"""Span tracing of calls into synthvc, installed from outside the package.

A span wraps one call to a function listed in LAYERS. It records the span's
name, start, end and parent (the span open when it started). Spans are kept
in flat arrays in memory and written out once, at the end of a traced run.
A span's self time is its duration minus the time its child spans cover.

Wrappers are installed at every place a caller looks the name up: a
function imported with `from .codec import encode` is a separate module
attribute from `codec.encode`, so every synthvc module attribute bound to
the original function object is patched. Methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# numerics ops that run in some workload; each gets calls, ms and tape count
NUMERIC_OPS = ("add", "scale", "matmul", "transpose", "reshape", "concat", "narrow",
               "silu", "softmax", "rms_norm", "rope_apply", "embedding_lookup",
               "mean_axis", "cross_entropy", "unfold_time")

# (span name, synthvc module, function or Class.method)
LAYERS = (
    ("cli.synth-data", "cli", "cmd_synth_data"),
    ("cli.fit-codec", "cli", "cmd_fit_codec"),
    ("cli.pretrain-encoders", "cli", "cmd_pretrain_encoders"),
    ("codec.build_fit_corpus", "codec", "build_fit_corpus"),
    ("codec.fit_codebooks", "codec", "fit_codebooks"),
    ("codec.encode", "codec", "encode"),
    ("codec.decode", "codec", "decode"),
    ("encoders.pretrain_semantic_encoder", "encoders", "pretrain_semantic_encoder"),
    ("encoders.pretrain_speaker_encoder", "encoders", "pretrain_speaker_encoder"),
    ("encoders.SemanticEncoder.features", "encoders", "SemanticEncoder.features"),
    ("encoders.SpeakerEncoder.embed", "encoders", "SpeakerEncoder.embed"),
    ("encoders.apply_adapter", "encoders", "apply_adapter"),
    ("synthworld.render", "synthworld", "render"),
    ("trainer.asr_step", "trainer", "asr_step"),
    ("trainer.vc_step", "trainer", "vc_step"),
    ("trainer.joint_step", "trainer", "joint_step"),
    ("trainer.reference_embedding", "trainer", "PipelineContext.reference_embedding"),
    ("trainer.heldout_text_accuracy", "trainer", "heldout_text_accuracy"),
    ("trainer.heldout_acoustic_ce", "trainer", "heldout_acoustic_ce"),
    ("streamlm.forward_batch", "streamlm", "forward_batch"),
    ("streamlm.forward", "streamlm", "forward"),
    ("streamlm.generate", "streamlm", "generate"),
    ("nn.trunk", "nn", "trunk"),
    ("nn.block", "nn", "block"),
    ("nn.attention", "nn", "attention"),
    ("nn.linear", "nn", "linear"),
    *((f"numerics.{op}", "numerics", op) for op in NUMERIC_OPS),
    ("numerics.Tape.backward", "numerics", "Tape.backward"),
    ("optim.Adam.step", "optim", "Adam.step"),
    ("evaluation.evaluate_conversion", "evaluation", "evaluate_conversion"),
    ("evaluation.OracleTranscriber.transcribe", "evaluation", "OracleTranscriber.transcribe"),
    ("evaluation.OracleVerifier.embed", "evaluation", "OracleVerifier.embed"),
    ("evaluation.edit_distance", "evaluation", "edit_distance"),
    ("evaluation.train_oracle_verifier", "evaluation", "train_oracle_verifier"),
    ("evaluation.train_oracle_transcriber", "evaluation", "train_oracle_transcriber"),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint"),
)

STEPS = ("trainer.asr_step", "trainer.vc_step", "trainer.joint_step")
# frozen-input work inside a training step: renders, codec targets, frozen encoders
DATA = ("synthworld.render", "codec.encode", "encoders.SemanticEncoder.features",
        "encoders.SpeakerEncoder.embed", "trainer.reference_embedding")
# calls that return a cached value do no traced work, so they open no child span
CACHED = ("encoders.SemanticEncoder.features", "encoders.SpeakerEncoder.embed",
          "evaluation.OracleVerifier.embed", "trainer.reference_embedding")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def patch_everywhere(fn, replacement) -> list[tuple[object, str, object]]:
    """Bind `replacement` at every synthvc module attribute that holds `fn`."""
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "synthvc" or mod_name.startswith("synthvc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                patches.append((mod, attr, fn))
                setattr(mod, attr, replacement)
    return patches


def patch(mod_name: str, attr: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Replace synthvc.<mod_name>.<attr> (a function or "Class.method") by
    make_wrapper(original) wherever callers look it up; returns the undo list."""
    mod = importlib.import_module(f"synthvc.{mod_name}")
    owner_name, _, fname = attr.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        fn = owner.__dict__[fname]
        setattr(owner, fname, make_wrapper(fn))
        return [(owner, fname, fn)]
    fn = getattr(mod, fname)
    return patch_everywhere(fn, make_wrapper(fn))


def unpatch(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus the counters measured at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.hits: Counter = Counter()
        self.amount: dict[int, float] = {}        # span -> positions, bytes or columns
        self.truncated = 0
        self.tape_ops: list[tuple[int, Counter]] = []   # backward span -> ops on its tape
        self.step_stats: list = []
        self._patches: list = []
        self._anc = None

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        kind = self._intern(name)
        kinds, parents, starts, ends, stack = (self.kind, self.parent, self.start,
                                               self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, out)
            return out
        return traced

    # -- counters measured where the work happens --------------------------

    def _hook(self, name: str):
        if name in CACHED:
            def cached(idx, args, kwargs, out):
                if idx + 1 == len(self.start):
                    self.hits[name] += 1
            return cached
        if name == "nn.trunk":
            def positions(idx, args, kwargs, out):
                x = _arg(args, kwargs, 2, "x")
                self.amount[idx] = x.shape[0] * x.shape[1]
            return positions
        if name.startswith("checkpoint."):
            def size(idx, args, kwargs, out):
                self.amount[idx] = os.path.getsize(_arg(args, kwargs, 0, "path"))
            return size
        if name == "streamlm.generate":
            def columns(idx, args, kwargs, out):
                self.amount[idx] = out.steps
                self.truncated += int(out.truncated)
            return columns
        if name == "numerics.Tape.backward":
            def ops(idx, args, kwargs, out):
                self.tape_ops.append((idx, Counter(n.op for n in args[0].nodes if n.op != "leaf")))
            return ops
        if name == "optim.Adam.step":
            def stats(idx, args, kwargs, out):
                self.step_stats.append(out)
            return stats
        return None

    def install(self) -> None:
        for name, mod_name, attr in LAYERS:
            self._patches += patch(mod_name, attr,
                                   lambda fn, name=name: self.wrap(name, fn, self._hook(name)))

    def uninstall(self) -> None:
        unpatch(self._patches)
        self._patches = []

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        kind = np.frombuffer(self.kind, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return kind, parent, dur

    def self_times(self) -> np.ndarray:
        kind, parent, dur = self.arrays()
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        return dur - covered

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms and self ms."""
        kind, _, dur = self.arrays()
        k = len(self.names)
        calls = np.bincount(kind, minlength=k)
        total = np.bincount(kind, weights=dur, minlength=k) * 1e3
        own = np.bincount(kind, weights=self.self_times(), minlength=k) * 1e3
        return {name: {"calls": int(calls[i]), "ms": float(total[i]), "self_ms": float(own[i])}
                for i, name in enumerate(self.names)}

    def nesting_violations(self) -> int:
        """Spans whose children cover more time than the span itself."""
        _, parent, _ = self.arrays()
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        nested = parent >= 0
        outside = nested & ((start < start[np.maximum(parent, 0)])
                            | (end > end[np.maximum(parent, 0)]))
        return int(np.sum(outside)) + int(np.sum(self.self_times() < 0.0))

    def _ancestry(self):
        """Nearest step ancestor, data-ancestor flag and decode flag per span."""
        if self._anc is None or len(self._anc[0]) != len(self.start):
            self._anc = self._walk()
        return self._anc

    def _walk(self):
        kind, parent, _ = self.arrays()
        ids = self._ids
        step_ids = {ids[n] for n in STEPS if n in ids}
        data_ids = {ids[n] for n in DATA if n in ids}
        gen_id = ids.get("streamlm.generate", -1)
        n = len(kind)
        kinds, parents = kind.tolist(), parent.tolist()
        step_of = [-1] * n
        under_data = [False] * n
        under_gen = [False] * n
        for i in range(n):
            p = parents[i]
            if kinds[i] in step_ids:
                step_of[i] = i
            elif p >= 0:
                step_of[i] = step_of[p]
            if p >= 0:
                pk = kinds[p]
                under_data[i] = pk not in step_ids and (under_data[p] or pk in data_ids)
                under_gen[i] = under_gen[p] or pk == gen_id
        return (np.asarray(step_of, dtype=np.int64), np.asarray(under_data, dtype=bool),
                np.asarray(under_gen, dtype=bool))

    def step_split(self) -> dict[str, dict[str, float]]:
        """ms per training step by stage, split into data, forward, backward and
        optimizer. Forward is the rest of the step: LM forward, losses and the
        tape bookkeeping."""
        if not any(n in self._ids for n in STEPS):
            return {}
        kind, _, dur = self.arrays()
        step_of, under_data, _ = self._ancestry()
        ids = self._ids
        part_kinds = {
            "data": np.isin(kind, [ids[n] for n in DATA if n in ids]) & ~under_data,
            "backward": kind == ids.get("numerics.Tape.backward", -1),
            "optimizer": kind == ids.get("optim.Adam.step", -1),
        }
        out = {}
        all_steps = np.zeros(0, dtype=np.int64)
        for name in STEPS + ("all",):
            if name == "all":
                steps = all_steps
            else:
                steps = np.nonzero(kind == ids.get(name, -1))[0]
                all_steps = np.concatenate([all_steps, steps])
            if steps.size == 0:
                continue
            row = {"steps": int(steps.size), "step_ms": float(dur[steps].mean() * 1e3)}
            rest = row["step_ms"]
            for part, mask in part_kinds.items():
                sel = mask & np.isin(step_of, steps)
                row[f"{part}_ms"] = float(dur[sel].sum() * 1e3 / steps.size)
                rest -= row[f"{part}_ms"]
            row["forward_ms"] = rest
            out[name.rpartition(".")[2]] = row
        return out

    def ops_per_step(self, step: str | None = None) -> tuple[float, Counter, int]:
        """Mean recorded tape ops per backward call, optionally only inside
        one training step kind; also the per-op totals and the call count."""
        records = self.tape_ops
        if step is not None:
            step_of, _, _ = self._ancestry()
            kind, _, _ = self.arrays()
            sid = self._ids.get(step, -2)
            records = [(i, c) for i, c in records if step_of[i] >= 0 and kind[step_of[i]] == sid]
        total: Counter = Counter()
        for _, c in records:
            total.update(c)
        n = len(records)
        return (sum(total.values()) / n if n else 0.0), total, n

    def op_calls_per_step(self, step: str) -> float:
        """Mean numerics op calls, on a tape or not, inside one step kind."""
        kind, _, _ = self.arrays()
        step_of, _, _ = self._ancestry()
        sid = self._ids.get(step, -2)
        n_steps = int(np.sum(kind == sid))
        if not n_steps:
            return 0.0
        ops = [self._ids[f"numerics.{op}"] for op in NUMERIC_OPS if f"numerics.{op}" in self._ids]
        inside = (step_of >= 0) & (kind[np.maximum(step_of, 0)] == sid)
        return float(np.sum(np.isin(kind, ops) & inside)) / n_steps

    def layer_metrics(self, table: dict[str, dict]) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of BENCHMARK.json, 0 where a layer did no work."""
        def t(name, field="ms"):
            return float(table.get(name, {}).get(field, 0))

        def ratio(name):
            calls = t(name, "calls")
            return self.hits[name] / calls if calls else 0.0

        kind, _, _ = self.arrays()
        _, _, under_gen = self._ancestry()

        def amount(name, mask=None):
            sid = self._ids.get(name, -2)
            return float(sum(v for i, v in self.amount.items()
                             if kind[i] == sid and (mask is None or mask[i])))

        m: dict[str, tuple[float, str]] = {}
        for cmd in ("synth-data", "fit-codec", "pretrain-encoders"):
            m[f"cli.{cmd}.ms"] = (t(f"cli.{cmd}"), "ms")
        for name in ("codec.build_fit_corpus", "codec.fit_codebooks",
                     "encoders.pretrain_semantic_encoder", "encoders.pretrain_speaker_encoder",
                     "encoders.apply_adapter", "evaluation.evaluate_conversion",
                     "evaluation.edit_distance", "evaluation.train_oracle_verifier",
                     "evaluation.train_oracle_transcriber", "nn.block", "nn.attention"):
            m[f"{name}.ms"] = (t(name), "ms")
        for name in ("codec.encode", "codec.decode", "synthworld.render", *STEPS,
                     "streamlm.forward_batch", "streamlm.forward", "streamlm.generate",
                     "nn.trunk", "nn.linear", "numerics.Tape.backward", "optim.Adam.step",
                     "evaluation.OracleTranscriber.transcribe", "encoders.SemanticEncoder.features",
                     "encoders.SpeakerEncoder.embed", "evaluation.OracleVerifier.embed",
                     "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            m[f"{name}.calls"] = (t(name, "calls"), "count")
            m[f"{name}.ms"] = (t(name), "ms")
        for name in ("encoders.SemanticEncoder.features", "encoders.SpeakerEncoder.embed",
                     "evaluation.OracleVerifier.embed", "trainer.reference_embedding"):
            m[f"{name}.hit_ratio"] = (ratio(name), "ratio")
        split = self.step_split().get("all", {})
        for part in ("data", "forward", "backward", "optimizer"):
            m[f"trainer.step.{part}_ms"] = (split.get(f"{part}_ms", 0.0), "ms")
        m["trainer.heldout_metrics.ms"] = (t("trainer.heldout_text_accuracy")
                                           + t("trainer.heldout_acoustic_ce"), "ms")
        columns = amount("streamlm.generate")
        m["streamlm.generate.columns"] = (columns, "count")
        m["streamlm.generate.truncated"] = (float(self.truncated), "count")
        m["streamlm.generate.ms_per_column"] = (
            t("streamlm.generate") / columns if columns else 0.0, "ms")
        m["nn.trunk.positions"] = (amount("nn.trunk"), "count")
        m["nn.trunk.positions_per_column"] = (
            amount("nn.trunk", under_gen) / columns if columns else 0.0, "count")
        per_step, op_totals, n_tapes = self.ops_per_step()
        m["numerics.tape.ops_per_step"] = (per_step, "count")
        for op in NUMERIC_OPS:
            m[f"numerics.{op}.calls"] = (t(f"numerics.{op}", "calls"), "count")
            m[f"numerics.{op}.ms"] = (t(f"numerics.{op}"), "ms")
            m[f"numerics.tape.ops.{op}"] = (op_totals[op] / n_tapes if n_tapes else 0.0, "count")
        stats = self.step_stats
        m["optim.clip_ratio"] = (sum(s.clipped for s in stats) / len(stats) if stats else 0.0,
                                 "ratio")
        m["optim.grad_norm_p50"] = (statistics.median(s.grad_norm for s in stats)
                                    if stats else 0.0, "norm")
        for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
            m[f"{name}.bytes"] = (amount(name), "bytes")
        return m

    def write(self, path: Path) -> None:
        kind, parent, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), kind=kind, parent=parent,
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
