"""Adam with linear warmup and global-norm gradient clipping, the one
descent step every trained model takes, and the classifier-pretraining loop
shared by the frozen encoders and the oracles.

`descend` records a loss on a fresh tape and steps Adam on the gradients
`tape.backward(loss, params)` returns by name. Only parameters that received
a gradient are touched, so frozen or unrouted components keep bit-identical
values. Adam lays its moments out once, in the sorted-name order of its
first step's params, and updates each run of consecutive names that have
gradients with one pass per operation, with the bits of a per-tensor step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import numerics as nm
from .errors import ConfigError, TrainingDivergedError
from .numerics import Tensor


BETA1 = 0.9
BETA2 = 0.95
EPS = 1e-8


@dataclass
class StepStats:
    lr: float
    grad_norm: float
    clipped: bool


@dataclass
class Adam:
    """Adam over float32 parameters, its state laid out in sorted-name order.

    The first step lays the first and second moments out over the names of
    its params: two flat float32 buffers with one span per name, in sorted
    order. A step walks the maximal runs of consecutive names that have
    gradients and, per run, gathers the gradients into one buffer, makes the
    elementwise passes once over the run, and subtracts into a fresh buffer
    whose read-only views are the new parameters. Each element sees the same
    float32 operations, in the same order, as a step taken one tensor at a
    time, so the bits do not depend on how the names group into runs. Names
    without a gradient keep their parameters and moments.
    """

    lr: float
    warmup: int
    clip: float       # 0 disables clipping
    t: int = 0
    # name -> (position in the sorted order, [start, stop) in the buffers)
    _spans: dict[str, tuple[int, int, int]] = field(default_factory=dict, repr=False)
    _m: np.ndarray = field(default_factory=lambda: np.zeros(0, np.float32), repr=False)
    _v: np.ndarray = field(default_factory=lambda: np.zeros(0, np.float32), repr=False)

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray]) -> StepStats:
        self.t += 1
        lr = self.lr
        if self.warmup > 0:
            lr = lr * min(1.0, self.t / self.warmup)

        names = sorted(grads)
        sq = 0.0
        for n in names:
            sq += float(np.add.reduce(np.square(grads[n], dtype=np.float64), axis=None))
        norm = float(np.sqrt(sq))
        clipped = False
        scale = 1.0
        if self.clip > 0.0 and norm > self.clip:
            scale = self.clip / norm
            clipped = True

        if not self._spans:
            stop = 0
            for i, n in enumerate(sorted(params)):
                self._spans[n] = (i, stop, stop + params[n].data.size)
                stop += params[n].data.size
            self._m, self._v = np.zeros(stop, np.float32), np.zeros(stop, np.float32)
        runs: list[list[str]] = []
        last = -2
        for n in names:
            pos = self._spans[n][0]
            if pos != last + 1:
                runs.append([])
            runs[-1].append(n)
            last = pos

        # float32 throughout, each update in place in the order
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
        # p - lr (m / c1) / (sqrt(v / c2) + eps)
        b1, b2 = np.float32(BETA1), np.float32(BETA2)
        d1, d2 = np.float32(1.0 - BETA1), np.float32(1.0 - BETA2)
        c1 = np.float32(1.0 - BETA1 ** self.t)
        c2 = np.float32(1.0 - BETA2 ** self.t)
        lr32, eps, scale32 = np.float32(lr), np.float32(EPS), np.float32(scale)
        for run in runs:
            start, stop = self._spans[run[0]][1], self._spans[run[-1]][2]
            # the gather rounds a float64 gradient to float32 as the cast
            # before a per-tensor float32 multiply would
            g = np.concatenate([grads[n] for n in run], axis=None, dtype=np.float32,
                               casting="same_kind")
            g *= scale32
            m, v = self._m[start:stop], self._v[start:stop]
            g2 = np.square(g)
            g *= d1
            m *= b1
            m += g
            g2 *= d2
            v *= b2
            v += g2
            step = np.divide(m, c1, out=g)
            step *= lr32
            root = np.divide(v, c2, out=g2)
            np.sqrt(root, out=root)
            root += eps
            step /= root
            new = np.concatenate([params[n].data for n in run], axis=None, dtype=np.float32,
                                 casting="no")
            np.subtract(new, step, out=new)
            for n in run:
                _, a, b = self._spans[n]
                params[n] = nm._wrap(new[a - start:b - start].reshape(params[n].data.shape),
                                     requires_grad=True)
        return StepStats(lr=lr, grad_norm=norm, clipped=clipped)


def descend(opt: Adam, params: dict[str, Tensor], loss_fn: Callable[[], Tensor],
            what: str) -> float:
    """One Adam step on the scalar loss_fn() records on a fresh tape; returns
    the loss. A non-finite forward value raises TrainingDivergedError(what)
    before any parameter or optimizer state changes. The tape, and with it
    every activation of the step, is dropped before Adam allocates its
    buffers."""
    tape = nm.Tape()
    try:
        with tape:
            loss = loss_fn()
    except nm.NumericsError as e:
        raise TrainingDivergedError(what) from e
    value = loss.item()
    grads = tape.backward(loss, params)
    del tape, loss
    opt.step(params, grads)
    return value


def check_fit(what: str, steps: int, lr: float, batch: int) -> None:
    """ConfigError, named for the loop `what`, unless steps >= 0, lr > 0, batch >= 1."""
    if not (steps >= 0 and lr > 0):     # written so that a NaN lr fails
        raise ConfigError(f"{what}: needs steps >= 0 and lr > 0, got steps={steps}, lr={lr}")
    if batch < 1:
        raise ConfigError(f"{what}: batch must be at least 1, got {batch}")


def fit_classifier(params: dict[str, Tensor], logits_fn: Callable[[Tensor], Tensor],
                   sample: Iterator[tuple[np.ndarray, np.ndarray]], steps: int, lr: float,
                   what: str) -> None:
    """Minimize the cross entropy of logits_fn(inputs) against labels over
    `steps` batches drawn from `sample`, updating `params` in place.

    Adam with warmup 50 and clip 1.0. Logits of any rank are scored over
    their last axis, so per-frame and per-utterance heads share the loop.
    Its callers pass their settings through `check_fit` first.
    """
    opt = Adam(lr=lr, warmup=50, clip=1.0)
    last_loss = float("nan")
    for step in range(steps):
        inputs, labels = next(sample)

        def loss_fn():
            logits = logits_fn(nm.constant(inputs))
            return nm.cross_entropy(nm.reshape(logits, (-1, logits.shape[-1])), labels)

        last_loss = descend(opt, params, loss_fn,
                            f"{what} diverged at step {step}; last finite loss {last_loss}")


def freeze(params: dict[str, Tensor], drop_prefix: str | None = None) -> None:
    """Drop the params named drop_prefix* (a temporary head), then mark the
    rest as not requiring gradients."""
    if drop_prefix is not None:
        for name in [k for k in params if k.startswith(drop_prefix)]:
            del params[name]
    for p in params.values():
        p.requires_grad = False
