"""Test-only oracles that `synthvc` itself never runs.

- `grad_check`, the finite-difference gradient checker every differentiable
  op is tested with, and `mul`, `sum_all` and `mean_all`, the product and
  scalar reductions that turn an op's output into a loss in those checks.
  They are taped ops built on `numerics._apply`, like the package's own.
- `nearest_template_decode`, a decoder that knows the world's templates, so
  a test can show that rendered symbols can be read back.
- `render_one`, the frames of one item through the batched `sw.render`, and
  `spy_renders`, which records every `sw.render` call, so a test can pin how
  many batches a caller renders and what each item holds.
"""

from typing import Callable

import numpy as np

from synthvc import numerics as nm
from synthvc import synthworld as sw
from synthvc.errors import NumericsError
from synthvc.numerics import Tensor


class DeterminismError(NumericsError):
    """A function expected to be deterministic produced differing outputs."""


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def build():
        ad, bd = a.data, b.data
        fa = (lambda g: nm._unbroadcast(g * bd, ad.shape)) if a.requires_grad else None
        fb = (lambda g: nm._unbroadcast(g * ad, bd.shape)) if b.requires_grad else None
        return (fa, fb)

    return nm._apply("mul", (a, b), out, build)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, accumulated in float64 and rounded once."""
    out = np.asarray(np.sum(a.data, dtype=np.float64), dtype=a.data.dtype)

    def build():
        shape, dt = a.data.shape, a.data.dtype
        return ((lambda g: np.full(shape, g, dtype=dt)) if a.requires_grad else None,)

    return nm._apply("sum_all", (a,), out, build)


def mean_all(a: Tensor) -> Tensor:
    """Mean of every element, accumulated in float64 and rounded once."""
    n = a.data.size
    out = np.asarray(np.sum(a.data, dtype=np.float64) / n, dtype=a.data.dtype)

    def build():
        shape, dt = a.data.shape, a.data.dtype
        return ((lambda g: np.full(shape, g / n, dtype=dt)) if a.requires_grad else None,)

    return nm._apply("mean_all", (a,), out, build)


def grad_check(f: Callable[[Tensor], Tensor], x, step: float = 1e-4) -> float:
    """Worst per-coordinate relative error between tape gradients and
    central finite differences, both evaluated in float64."""
    base = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    def run(arr: np.ndarray) -> float:
        out = f(nm.constant(arr))
        return float(out.data)

    y1, y2 = run(base), run(base)
    if not (y1 == y2):
        raise DeterminismError("grad_check: repeated evaluation mismatch, f is not deterministic")

    t = nm.Tape()
    with t:
        xt = Tensor(base, requires_grad=True, dtype=np.float64)
        loss = f(xt)
    analytic = t.backward(loss, {"x": xt}).get("x", np.zeros_like(base))

    worst = 0.0
    flat = base.reshape(-1)
    an_flat = np.asarray(analytic, dtype=np.float64).reshape(-1)
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + step
        fp = run(probe.reshape(base.shape))
        probe[i] = flat[i] - step
        fm = run(probe.reshape(base.shape))
        fd = (fp - fm) / (2.0 * step)
        an = an_flat[i]
        denom = max(abs(fd), abs(an))
        if denom < 1e-10:
            continue
        worst = max(worst, abs(fd - an) / denom)
    return worst


def render_one(vocab: sw.SymbolVocab, text, speaker: sw.SpeakerProfile, channel: str,
               seed: int) -> np.ndarray:
    """The (T, F) frames of a one-item `sw.render` batch."""
    return sw.render(vocab, [text], [speaker], [channel], [seed])[0]


def spy_renders(monkeypatch) -> list[list[tuple]]:
    """Record every `sw.render` call as the list of its items' (text,
    speaker id, channel, seed)."""
    calls, render = [], sw.render

    def spy(vocab, transcripts, speakers, channels, seeds):
        calls.append([(tuple(int(s) for s in text), speaker.id, channel, int(seed))
                      for text, speaker, channel, seed
                      in zip(transcripts, speakers, channels, seeds)])
        return render(vocab, transcripts, speakers, channels, seeds)

    monkeypatch.setattr(sw, "render", spy)
    return calls


def nearest_template_decode(vocab: sw.SymbolVocab, frames: np.ndarray) -> tuple[int, ...]:
    """Recover the transcript of a rendering by per-frame nearest template.

    Offset is estimated from the edge silence frames; content frames are
    matched to template frames by sign correlation and each 3-frame span is
    decided by majority vote. Assumes the rigid world layout.
    """
    t_total = frames.shape[0]
    n_sym = (t_total - 2 * sw.SILENCE_EDGE) // sw.FRAMES_PER_SYMBOL
    if n_sym <= 0:
        return ()
    edge = np.concatenate([frames[:sw.SILENCE_EDGE], frames[-sw.SILENCE_EDGE:]], axis=0)
    offset_hat = edge.mean(axis=0)
    content = (frames[sw.SILENCE_EDGE:sw.SILENCE_EDGE + n_sym * sw.FRAMES_PER_SYMBOL]
               - offset_hat[None, :])
    content = content[:, :sw.CONTENT_DIMS]

    bank = vocab.templates[:, :, :sw.CONTENT_DIMS].reshape(-1, sw.CONTENT_DIMS)
    bank_signs = np.sign(bank)
    scores = np.sign(content) @ bank_signs.T            # (3n, 96)
    nearest = scores.argmax(axis=1) // sw.FRAMES_PER_SYMBOL
    out = []
    for i in range(n_sym):
        votes = nearest[i * sw.FRAMES_PER_SYMBOL:(i + 1) * sw.FRAMES_PER_SYMBOL]
        out.append(int(np.bincount(votes, minlength=sw.N_SYMBOLS).argmax()))
    return tuple(out)
