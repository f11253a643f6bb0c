"""Flat key = value run configuration with typo-safe parsing.

Every tunable in the pipeline has its one documented default here: the
functions and dataclasses the CLI fills from a key take that value as a
required argument, so no default is written twice. Unknown keys are
rejected. The resolved config is echoed into the run directory and its
hash guards against config drift between pipeline stages.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import ConfigError, read_text


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(v) for v in s.split(",") if v.strip())


# key -> (parser, default, help)
DEFAULTS: dict[str, tuple] = {
    "paths.run": (str, "run", "run directory holding all artifacts"),
    "corpus.seed": (int, 7001, "world seed: templates, speakers, texts, splits"),
    "corpus.speakers": (int, 24, "total speakers"),
    "corpus.texts": (int, 400, "total texts"),
    "corpus.text_len_min": (int, 4, "shortest text in symbols"),
    "corpus.text_len_max": (int, 12, "longest text in symbols"),
    "corpus.heldout_speakers": (int, 4, "held-out speakers for zero-shot eval"),
    "corpus.heldout_texts": (int, 40, "held-out texts"),
    "codec.layers": (int, 4, "residual quantization layers"),
    "codec.codebook": (int, 64, "codes per layer (index 0 reserved for zero)"),
    "codec.iters": (int, 25, "k-means iterations per layer"),
    "codec.seed": (int, 7101, "codec fitting seed"),
    "codec.parallel_per_utt": (int, 4, "extra parallel renders per utterance in fit corpus"),
    "codec.degraded_per_utt": (int, 2, "degraded renders per utterance in fit corpus"),
    "enc.sem_steps": (int, 1200, "semantic encoder pretraining steps"),
    "enc.spk_steps": (int, 800, "speaker encoder pretraining steps"),
    "enc.batch": (int, 12, "encoder pretraining batch size"),
    "enc.lr": (float, 1e-3, "encoder pretraining learning rate"),
    "enc.seed": (int, 7201, "encoder pretraining seed"),
    "enc.sem_dim": (int, 48, "semantic feature width"),
    "enc.spk_dim": (int, 32, "speaker embedding width"),
    "oracle.seed": (int, 9001, "oracle training seed base"),
    "oracle.verifier_steps": (int, 700, "oracle verifier training steps"),
    "oracle.transcriber_steps": (int, 900, "oracle transcriber training steps"),
    "lm.dim": (int, 64, "LM embedding width"),
    "lm.heads": (int, 4, "attention heads"),
    "lm.blocks": (int, 4, "transformer blocks"),
    "lm.intermediate": (int, 256, "MLP inner width"),
    "lm.capacity": (int, 512, "maximum sequence length"),
    "gen.max_steps": (int, 128, "generation step cap"),
    "gen.tail": (int, 40, "steps acoustics may run past text EOS"),
    "gen.mode": (str, "greedy", "greedy or sample"),
    "gen.temperature": (float, 1.0, "sampling temperature"),
    "gen.top_k": (int, 0, "top-k filter for sampling (0 = off)"),
    "train.w": (float, 0.5, "text/acoustic balance in the VC loss"),
    "train.lambdas": (_floats, (1.0, 0.9, 0.8, 0.7), "per-layer acoustic weights"),
    "train.w_prime": (float, 0.2, "ASR/VC balance in the joint loss"),
    "train.asr_fraction": (float, 0.2, "joint-stage ASR instance probability"),
    "train.vc_real_prob": (float, 0.5, "pristine-target probability in VC stage"),
    "train.joint_real_prob": (float, 0.8, "pristine-target probability in joint stage"),
    "train.asr_steps": (int, 2000, "stage 1 steps"),
    "train.vc_steps": (int, 4000, "stage 2 steps"),
    "train.joint_steps": (int, 4000, "stage 3 steps"),
    "train.batch": (int, 6, "training batch size"),
    "train.lr": (float, 1e-3, "learning rate"),
    "train.warmup": (int, 100, "linear warmup steps per stage"),
    "train.clip": (float, 1.0, "global-norm gradient clip (0 = off)"),
    "train.seed": (int, 7401, "training seed base"),
    "train.text_loss_scale": (float, 1.0, "text CE multiplier (0 ablates the text stream)"),
    "train.text_input_dropout": (float, 0.5, "train-time PAD corruption of text-stream inputs"),
    "eval.interval": (int, 200, "steps between metric log lines"),
    "eval.pairs": (int, 32, "conversion pairs in the evaluation manifest"),
    "eval.seed": (int, 7501, "evaluation manifest seed"),
}


class RunConfig:
    """Resolved configuration; read values with cfg[key]."""

    def __init__(self, values: dict | None = None):
        self._values = {k: d for k, (_, d, _) in DEFAULTS.items()}
        if values:
            for k, v in values.items():
                if k not in DEFAULTS:
                    raise ConfigError(f"unknown config key {k!r}")
                self._values[k] = v

    def __getitem__(self, key: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        return self._values[key]

    @classmethod
    def from_file(cls, path: Path) -> "RunConfig":
        values = {}
        for ln_no, line in enumerate(read_text(path, ConfigError).splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln_no}: expected key = value, got {line!r}")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{ln_no}: unknown config key {key!r}")
            parser = DEFAULTS[key][0]
            try:
                values[key] = parser(raw)
            except ValueError as e:
                raise ConfigError(f"{path}:{ln_no}: bad value for {key}: {raw!r}") from e
        return cls(values)

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(DEFAULTS):
            v = self._values[key]
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]

    def echo(self, run_dir: Path) -> None:
        (Path(run_dir) / "config.resolved").write_text(self.canonical_text(), encoding="utf-8")
