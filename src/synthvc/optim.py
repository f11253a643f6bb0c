"""Adam with linear warmup and global-norm gradient clipping, and the one
classifier-pretraining loop shared by the frozen encoders and the oracles.

Only parameters that received a gradient this step are touched, so
frozen or unrouted components keep bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import numerics as nm
from .errors import TrainingDivergedError
from .numerics import Tensor


BETA1 = 0.9
BETA2 = 0.95
EPS = 1e-8


@dataclass
class AdamConfig:
    lr: float
    warmup: int
    clip: float       # 0 disables clipping


@dataclass
class StepStats:
    lr: float
    grad_norm: float
    clipped: bool


@dataclass
class Adam:
    cfg: AdamConfig
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> StepStats:
        self.t += 1
        lr = self.cfg.lr
        if self.cfg.warmup > 0:
            lr = lr * min(1.0, self.t / self.cfg.warmup)

        names = sorted(grads)
        sq = 0.0
        for n in names:
            g = grads[n].astype(np.float64)
            sq += float(np.sum(g * g))
        norm = float(np.sqrt(sq))
        clipped = False
        scale = 1.0
        if self.cfg.clip > 0.0 and norm > self.cfg.clip:
            scale = self.cfg.clip / norm
            clipped = True

        b1, b2, eps = BETA1, BETA2, EPS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for n in names:
            g = grads[n].astype(np.float32) * np.float32(scale)
            if n not in self.m:
                self.m[n] = np.zeros_like(g)
                self.v[n] = np.zeros_like(g)
            self.m[n] = b1 * self.m[n] + (1.0 - b1) * g
            self.v[n] = b2 * self.v[n] + (1.0 - b2) * (g * g)
            m_hat = self.m[n] / c1
            v_hat = self.v[n] / c2
            update = (np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(eps))).astype(np.float32)
            params[n] = Tensor(params[n].data - update, requires_grad=True)
        return StepStats(lr=lr, grad_norm=norm, clipped=clipped)


def grads_by_name(tape, params: dict[str, Tensor], grad_map) -> dict[str, np.ndarray]:
    """Translate a tape gradient map into parameter-name keys."""
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = tape.grad_for(grad_map, p)
        if g is not None:
            out[name] = g
    return out


def fit_classifier(params: dict[str, Tensor], logits_fn: Callable[[Tensor], Tensor],
                   sample: Iterator[tuple[np.ndarray, np.ndarray]], steps: int, lr: float,
                   what: str) -> None:
    """Minimize the cross entropy of logits_fn(inputs) against labels over
    `steps` batches drawn from `sample`, updating `params` in place.

    Adam with warmup 50 and clip 1.0. Logits of any rank are scored over
    their last axis, so per-frame and per-utterance heads share the loop.
    """
    opt = Adam(AdamConfig(lr=lr, warmup=50, clip=1.0))
    last_loss = float("nan")
    for step in range(steps):
        inputs, labels = next(sample)
        x = nm.constant(inputs)
        tape = nm.Tape()
        try:
            with tape:
                logits = logits_fn(x)
                loss = nm.cross_entropy(nm.reshape(logits, (-1, logits.shape[-1])), labels)
        except nm.NumericsError as e:
            raise TrainingDivergedError(
                f"{what} diverged at step {step}; last finite loss {last_loss}") from e
        opt.step(params, grads_by_name(tape, params, tape.backward(loss)))
        last_loss = loss.item()


def freeze(params: dict[str, Tensor], drop_prefix: str | None = None) -> None:
    """Drop the params named drop_prefix* (a temporary head), then mark the
    rest as not requiring gradients."""
    if drop_prefix is not None:
        for name in [k for k in params if k.startswith(drop_prefix)]:
            del params[name]
    for p in params.values():
        p.requires_grad = False
