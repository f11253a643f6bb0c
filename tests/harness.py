"""Test-only oracles that `synthvc` itself never runs.

- `grad_check`, the finite-difference gradient checker every differentiable
  op is tested with, and `mul`, `sum_all` and `mean_all`, the product and
  scalar reductions that turn an op's output into a loss in those checks.
  They are taped ops built on `numerics._apply`, like the package's own:
  each hands it one VJP that returns every parent's gradient.
- `attend`, multi-head self-attention as one taped op over the package's
  attention kernel, and `attention_chain` and `mlp_chain`, the two halves
  of a transformer block as the public ops composed them before each half
  became one fused op (`numerics.attention_residual`,
  `numerics.mlp_residual`): the references those ops equal bit for bit.
- `KeyRowCache` and `cached_attend`, the cached path of attention as it
  was before it called attention's kernels directly: the public
  rope_apply, a contiguous transpose of every cached key, matmul and
  softmax, over keys cached untransposed. `attend` and `attention_chain`
  take that route when given a `KeyRowCache`, and `chain_trunk`, `nn.trunk`
  with each block as the two chains, takes it with one cache per block: the
  public-op decode that `nn.decode_trunk`, the decode on plain arrays,
  equals bit for bit.
- `nearest_template_decode`, a decoder that knows the world's templates, so
  a test can show that rendered symbols can be read back.
- `render_one`, the frames of one item through the batched `sw.render`, and
  `spy_renders`, which records every `sw.render` call, so a test can pin how
  many batches a caller renders and what each item holds.
- `build_delayed_grid`, `supervised_mask`, `invert_delayed_grid` and
  `generate` as `synthvc.streamlm` wrote them before one per-stream rule
  (`StreamLayout`'s tables) replaced their separate text and acoustic
  paths, kept verbatim so tests can show the rule gives the same grids,
  masks, inversions, exception classes and decodes. `generate` has lost
  only its two `lm.capacity` check lines and the `min(capacity, ...)` in
  its cache size, since that setting was removed, and runs `chain_trunk`
  over `KeyRowCache`s where it ran `nn.trunk` over the package's caches;
  so it is the whole public-op decode that `streamlm.generate` equals.
- `build_asr_grid` and `init_lm` as `synthvc.streamlm` wrote them before
  they read the text stream and every vocabulary off those tables, kept
  verbatim so tests can show the same ASR grids and initial parameters.
- `make_corpus` as `synthvc.synthworld` wrote it before it drew a text's
  symbols and the utterance seeds as whole arrays, kept verbatim so tests
  can show the same corpus.
"""

import math
from typing import Callable

import numpy as np

from synthvc import nn
from synthvc import numerics as nm
from synthvc import synthworld as sw
from synthvc.errors import ConfigError, DataError, GridFormatError, NumericsError
from synthvc.numerics import Tensor
from synthvc.streamlm import (TEXT_CONTENT, TEXT_EOS, TEXT_PAD, TEXT_VOCAB, DelayedGrid,
                              GenerationResult, LMConfig, StreamLayout, _embed_columns, _head,
                              greedy_pick, sample_pick)
from synthvc.synthworld import (N_SYMBOLS, PRISTINE, CorpusSplits, SymbolVocab, Utterance,
                                speaker_profile)


class DeterminismError(NumericsError):
    """A function expected to be deterministic produced differing outputs."""


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def vjp(g):
        return (nm._unbroadcast(g * bd, ad.shape) if a.requires_grad else None,
                nm._unbroadcast(g * ad, bd.shape) if b.requires_grad else None)

    return nm._apply("mul", (a, b), out, vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element, accumulated in float64 and rounded once."""
    out = np.asarray(np.sum(a.data, dtype=np.float64), dtype=a.data.dtype)
    return nm._apply("sum_all", (a,), out, lambda g: (np.full(a.shape, g, dtype=a.dtype),))


def mean_all(a: Tensor) -> Tensor:
    """Mean of every element, accumulated in float64 and rounded once."""
    n = a.data.size
    out = np.asarray(np.sum(a.data, dtype=np.float64) / n, dtype=a.data.dtype)
    return nm._apply("mean_all", (a,), out, lambda g: (np.full(a.shape, g / n, dtype=a.dtype),))


def attend(q: Tensor, k: Tensor, v: Tensor, positions, heads: int, mask=None,
           cache: "KeyRowCache | None" = None) -> Tensor:
    """Multi-head self-attention of (B, t, D) projections at `positions` (see
    `numerics._attend_fwd`): one taped node, whose VJP is the kernel's. With
    a `cache` it runs `cached_attend` instead, which has no backward."""
    if cache is not None:
        out = cached_attend(q.data, k.data, v.data, positions, heads, mask, cache)
        return nm._apply("attend", (q, k, v), out, _no_backward)
    need = (q.requires_grad, k.requires_grad, v.requires_grad)
    out, back = nm._attend_fwd(q.data, k.data, v.data, positions, heads, mask)
    return nm._apply("attend", (q, k, v), out, lambda g: back(g, *need))


def _no_backward(g):
    raise NumericsError("attend: no gradient flows through a key/value cache")


def attention_chain(x: Tensor, norm1: Tensor, q, k, v, o, positions, heads: int, mask=None,
                    cache: "KeyRowCache | None" = None) -> Tensor:
    """x + o(attend(q(n), k(n), v(n))) with n = rms_norm(x, norm1), as seven
    taped ops; q, k, v and o are (weight, bias) pairs."""
    n = nm.rms_norm(x, norm1)
    ctx = attend(nm.affine(n, *q), nm.affine(n, *k), nm.affine(n, *v), positions, heads, mask,
                 cache)
    return nm.add(x, nm.affine(ctx, *o))


class KeyRowCache:
    """`numerics.BlockCache` with its keys untransposed: keys and values
    both (B * heads, capacity, dh)."""

    def __init__(self, rows: int, capacity: int, dh: int):
        self.k = np.zeros((rows, capacity, dh), dtype=nm.STORAGE_DTYPE)
        self.v = np.zeros((rows, capacity, dh), dtype=nm.STORAGE_DTYPE)
        self.length = 0


def cached_attend(q, k, v, positions, heads: int, mask, cache: KeyRowCache):
    """The context of `numerics._attend_cached_fwd` as its cached path was
    before it called attention's kernels directly, over a `KeyRowCache`:
    the public rope_apply, a contiguous transpose of every cached key,
    matmul and softmax."""
    b, t, d = q.shape
    dh = d // heads
    start, stop = cache.length, cache.length + t
    tiled = positions if b == 1 else np.tile(positions, b)
    qk = np.concatenate([q, k], axis=-1).reshape(b * t, 2 * heads, dh)
    qk = nm.rope_apply(nm._wrap(qk), tiled).data
    q_h = nm._split_heads(qk[:, :heads], b, t, heads, dh)
    k_h = nm._split_heads(qk[:, heads:], b, t, heads, dh)
    v_h = nm._split_heads(v, b, t, heads, dh)
    cache.k[:, start:stop] = k_h
    cache.v[:, start:stop] = v_h
    cache.length = stop
    k_h, v_h = cache.k[:, :stop], cache.v[:, :stop]
    kt = nm.transpose(nm._wrap(k_h), (0, 2, 1))
    cc = q.dtype.type(1.0 / math.sqrt(dh))
    scores = np.multiply(nm.matmul(nm._wrap(q_h), kt).data, cc)
    if mask is not None:
        scores += mask
    nm._finite_or_raise(scores, "attend")
    probs = nm.softmax(nm._wrap(scores)).data
    return nm._merge_heads(np.matmul(probs, v_h), b, t, heads, dh)


def mlp_chain(h: Tensor, norm2: Tensor, up, down) -> Tensor:
    """h + down(silu(up(rms_norm(h, norm2)))), as five taped ops."""
    return nm.add(h, nm.affine(nm.silu(nm.affine(nm.rms_norm(h, norm2), *up)), *down))


def chain_trunk(params, prefix: str, x: Tensor, positions, heads: int, n_blocks: int, mask,
                cache: "list[KeyRowCache] | None" = None) -> Tensor:
    """`nn.trunk` with each block as the two unfused chains. With a cache,
    one `KeyRowCache` per block, it is the public-op cached route a decode
    took before it ran `nn.decode_trunk` on arrays: the reference that
    decode equals bit for bit."""
    for i in range(n_blocks):
        name = f"{prefix}.blk{i}"

        def pair(p):
            return params[f"{name}.{p}.w"], params[f"{name}.{p}.b"]

        h = attention_chain(x, params[f"{name}.norm1"], pair("q"), pair("k"), pair("v"),
                            pair("o"), positions, heads, mask, None if cache is None else cache[i])
        x = mlp_chain(h, params[f"{name}.norm2"], pair("up"), pair("down"))
    return nm.rms_norm(x, params[f"{prefix}.final_norm"])


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


def build_delayed_grid(text, codes, layout: StreamLayout) -> DelayedGrid:
    """Lay out text plus code streams under the delay pattern.

    `codes` is array-like (n_layers, T_a). L = max over streams of
    (delay + length) + 1, where the text length includes its EOS, so every
    stream ends with at least one PAD.
    """
    text = [int(t) for t in text]
    code_arr = np.asarray(codes, dtype=np.int64)
    if len(text) < 1:
        raise DataError("build_delayed_grid: empty text")
    if code_arr.ndim != 2 or code_arr.shape[0] != layout.n_layers or code_arr.shape[1] < 1:
        raise DataError(f"build_delayed_grid: codes shape {code_arr.shape} does not match "
                        f"{layout.n_layers} layers with at least one step")
    if any(t < 0 or t >= TEXT_CONTENT for t in text):
        raise DataError("build_delayed_grid: text contains non-content tokens")
    if code_arr.min() < 0 or code_arr.max() >= layout.code_vocab:
        raise DataError("build_delayed_grid: code out of range")

    l_t, t_a = len(text), code_arr.shape[1]
    length = max(l_t + 1, layout.n_layers + t_a) + 1
    tokens = np.empty((layout.n_streams, length), dtype=np.int64)
    tokens[0] = TEXT_PAD
    tokens[0, :l_t] = text
    tokens[0, l_t] = TEXT_EOS
    for i in range(layout.n_layers):
        d = i + 1
        tokens[i + 1] = layout.ac_pad
        tokens[i + 1, :d] = layout.ac_bos
        tokens[i + 1, d:d + t_a] = code_arr[i]
    return DelayedGrid(tokens=tokens)


def build_asr_grid(text, layout: StreamLayout) -> DelayedGrid:
    """Text-only teacher-forcing grid: acoustic streams carry PAD everywhere."""
    text = [int(t) for t in text]
    if len(text) < 1:
        raise DataError("build_asr_grid: empty text")
    l_t = len(text)
    length = max(l_t + 1, layout.n_layers) + 1
    tokens = np.full((layout.n_streams, length), layout.ac_pad, dtype=np.int64)
    tokens[0] = TEXT_PAD
    tokens[0, :l_t] = text
    tokens[0, l_t] = TEXT_EOS
    return DelayedGrid(tokens=tokens)


def init_lm(cfg: LMConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng([0x11A0, seed])
    params: dict[str, Tensor] = {}
    params["lm.text_emb"] = Tensor(rng.normal(0.0, 0.1, size=(TEXT_VOCAB, cfg.dim)).astype(np.float32),
                                   requires_grad=True)
    for i in range(cfg.layout.n_layers):
        params[f"lm.ac_emb{i}"] = Tensor(
            rng.normal(0.0, 0.1, size=(cfg.layout.ac_vocab, cfg.dim)).astype(np.float32),
            requires_grad=True)
    params["lm.null_spk"] = Tensor(rng.normal(0.0, 0.1, size=(1, cfg.dim)).astype(np.float32),
                                   requires_grad=True)
    nn.init_trunk(params, rng, "lm", cfg.dim, cfg.intermediate, cfg.blocks)
    nn.init_linear(params, rng, "lm.text_head", cfg.dim, TEXT_VOCAB)
    for i in range(cfg.layout.n_layers):
        nn.init_linear(params, rng, f"lm.ac_head{i}", cfg.dim, cfg.layout.ac_vocab)
    return params


def supervised_mask(grid: DelayedGrid, layout: StreamLayout) -> np.ndarray:
    """Loss positions: content tokens, plus text EOS, plus each acoustic
    stream's first PAD after its content so the model learns to stop. An
    ASR grid's acoustic rows are all PAD, so its mask is text-only."""
    mask = np.zeros_like(grid.tokens, dtype=bool)
    mask[0] = grid.tokens[0] < TEXT_CONTENT
    mask[1:] = grid.tokens[1:] < layout.code_vocab
    eos_cols = np.nonzero(grid.tokens[0] == TEXT_EOS)[0]
    if eos_cols.size:
        mask[0, eos_cols[0]] = True
    for s in range(1, grid.n_streams):
        content = np.nonzero(mask[s])[0]
        if content.size:
            stop = content[-1] + 1
            if stop < grid.length:
                mask[s, stop] = True
    return mask


def invert_delayed_grid(grid: DelayedGrid, layout: StreamLayout) -> tuple[list[int], np.ndarray]:
    """(text, (n_layers, T_a) int64 codes): strip specials and undo delays;
    rejects malformed layouts."""
    tokens = grid.tokens
    if tokens.shape[0] != layout.n_streams:
        raise GridFormatError(f"grid has {tokens.shape[0]} streams, layout expects {layout.n_streams}")
    length = tokens.shape[1]

    row = tokens[0]
    eos_cols = np.nonzero(row == TEXT_EOS)[0]
    if not eos_cols.size:
        raise GridFormatError("text stream: missing EOS (stream 0)")
    e = int(eos_cols[0])
    if e == 0:
        raise DataError("text stream: empty text")
    for t in range(e):
        if not (0 <= row[t] < TEXT_CONTENT):
            raise GridFormatError(f"text stream: non-content token before EOS at stream 0 step {t}")
    for t in range(e + 1, length):
        if row[t] != TEXT_PAD:
            raise GridFormatError(f"text stream: token after EOS at stream 0 step {t}")
    text = [int(v) for v in row[:e]]

    lengths = []
    rows = []
    for i in range(layout.n_layers):
        s = i + 1
        d = i + 1
        row = tokens[s]
        for t in range(min(d, length)):
            if row[t] != layout.ac_bos:
                raise GridFormatError(f"acoustic stream {s}: expected BOS before delay at step {t}")
        t = d
        content = []
        while t < length and row[t] < layout.code_vocab:
            content.append(int(row[t]))
            t += 1
        if not content:
            raise GridFormatError(f"acoustic stream {s}: no content tokens at step {t}")
        for u in range(t, length):
            if row[u] != layout.ac_pad:
                raise GridFormatError(f"acoustic stream {s}: token after PAD at step {u}")
        lengths.append(len(content))
        rows.append(content)
    if len(set(lengths)) != 1:
        raise GridFormatError(f"acoustic streams disagree on length: {lengths}")
    return text, np.asarray(rows, dtype=np.int64)


def generate(params: dict, cfg: LMConfig, sem: Tensor, spk: Tensor | None,
             max_steps: int, tail: int, mode: str = "greedy",
             temperature: float = 1.0, top_k: int = 0,
             rng: np.random.Generator | None = None) -> GenerationResult:
    """Greedy or sampled decoding with structural tokens forced by construction.

    A prefill over [speaker row, semantic rows] (p positions) fills per-block
    key/value caches, sized p + max_steps, and yields column 0's logits;
    each later column j runs the trunk over one position, column j - 1's
    summed embeddings at p - 1 + j, against the cache. Only the heads of
    streams still emitting are evaluated.

    Stops once the text stream has emitted EOS and every acoustic stream has
    closed with PAD, or tail steps past EOS, or at max_steps (truncation
    flag). The returned grid is rebuilt in canonical layout from the emitted
    text and codes, so it always inverts cleanly.
    """
    layout = cfg.layout
    n = layout.n_layers
    if max_steps < n + 2:
        raise ConfigError(f"generate: max_steps must be at least {n + 2}")
    if tail < 1:
        raise ConfigError("generate: tail must be at least 1")
    if mode not in ("greedy", "sample"):
        raise ConfigError(f"generate: unknown mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ConfigError("generate: sample mode needs an rng")

    text_allowed_first = np.arange(TEXT_CONTENT)
    text_allowed = np.concatenate([np.arange(TEXT_CONTENT), [TEXT_EOS]])
    code_only = np.arange(layout.code_vocab)
    code_or_pad = np.concatenate([np.arange(layout.code_vocab), [layout.ac_pad]])

    if spk is None:
        spk = params["lm.null_spk"]
    p = 1 + sem.shape[0]
    cache = [KeyRowCache(cfg.heads, p + max_steps, cfg.dim // cfg.heads)
             for _ in range(cfg.blocks)]

    def pick(s, allowed):
        """Stream s's token for the current column, from the latest trunk output h."""
        row = _head(params, s, h).data[0, 0]
        if mode == "greedy":
            return greedy_pick(row, allowed)
        return sample_pick(row, allowed, temperature, top_k, rng)

    text: list[int] = []
    codes: list[list[int]] = [[] for _ in range(n)]
    closed = [False] * n
    eos_step: int | None = None
    truncated = False
    steps = 0

    for j in range(max_steps):
        if j == 0:
            x = nm.concat([nm.reshape(spk, (1, 1, cfg.dim)), nm.reshape(sem, (1,) + sem.shape)],
                          axis=1)
            h = nm.narrow(chain_trunk(params, "lm", x, np.arange(p), cfg.heads, cfg.blocks,
                                      nn.causal_mask(p), cache), 1, p - 1, p)
        else:
            x = _embed_columns(params, cfg, col[None, :, None])
            h = chain_trunk(params, "lm", x, np.array([p - 1 + j]), cfg.heads, cfg.blocks,
                            None, cache)
        col = np.empty(layout.n_streams, dtype=np.int64)

        if eos_step is None:
            tok = pick(0, text_allowed_first if j == 0 else text_allowed)
            if tok == TEXT_EOS:
                eos_step = j
            else:
                text.append(tok)
            col[0] = tok
        else:
            col[0] = TEXT_PAD

        for i in range(n):
            d = i + 1
            if j < d:
                col[i + 1] = layout.ac_bos
            elif closed[i]:
                col[i + 1] = layout.ac_pad
            else:
                tok = pick(i + 1, code_only if j == d else code_or_pad)
                if tok == layout.ac_pad:
                    closed[i] = True
                else:
                    codes[i].append(tok)
                col[i + 1] = tok

        steps = j + 1
        if eos_step is not None:
            if all(closed):
                break
            if j - eos_step >= n + tail:
                closed = [True] * n
                break
    else:
        truncated = True
    if eos_step is None or not all(closed):
        truncated = True

    t_a = min(len(c) for c in codes)
    code_arr = np.asarray([c[:t_a] for c in codes], dtype=np.int64)
    grid = build_delayed_grid(text, code_arr, layout)
    return GenerationResult(grid=grid, truncated=truncated, steps=steps)


def make_corpus(seed: int, n_speakers: int, n_texts: int, text_len_min: int,
                text_len_max: int, heldout_speakers: int, heldout_texts: int) -> CorpusSplits:
    """The corpus.* world; a ConfigError names each key it cannot be built from."""
    if n_speakers < 4:
        raise ConfigError(f"corpus.speakers: need at least 4 speakers, got {n_speakers}")
    if n_texts < 20:
        raise ConfigError(f"corpus.texts: need at least 20 texts, got {n_texts}")
    if not (2 <= heldout_speakers < n_speakers):   # an eval pair takes two of each
        raise ConfigError(f"corpus.heldout_speakers: {heldout_speakers} not in [2, {n_speakers})")
    if not (2 <= heldout_texts < n_texts):
        raise ConfigError(f"corpus.heldout_texts: {heldout_texts} not in [2, {n_texts})")
    if not (1 <= text_len_min <= text_len_max):
        raise ConfigError(f"corpus.text_len_min: {text_len_min} not in [1, {text_len_max}]")
    possible, length = 0, text_len_min
    while possible < n_texts and length <= text_len_max:   # 32**length grows fast
        possible += N_SYMBOLS ** length
        length += 1
    if possible < n_texts:
        raise ConfigError(f"corpus.texts: {n_texts} wanted, only {possible} distinct texts exist")

    vocab = SymbolVocab.build(seed)
    speakers = {i: speaker_profile(seed, i) for i in range(n_speakers)}

    rng_s = np.random.default_rng([0xC0A1, seed])
    perm = rng_s.permutation(n_speakers)
    heldout_ids = tuple(sorted(int(i) for i in perm[:heldout_speakers]))
    train_ids = tuple(sorted(int(i) for i in perm[heldout_speakers:]))

    rng_t = np.random.default_rng([0xC0A2, seed])
    texts: list[tuple[int, ...]] = []
    seen = set()
    while len(texts) < n_texts:
        length = int(rng_t.integers(text_len_min, text_len_max + 1))
        cand = tuple(int(v) for v in rng_t.integers(0, N_SYMBOLS, size=length))
        if cand not in seen:
            seen.add(cand)
            texts.append(cand)
    tperm = rng_t.permutation(n_texts)
    heldout_txt = tuple(texts[i] for i in tperm[:heldout_texts])
    train_txt = tuple(texts[i] for i in tperm[heldout_texts:])

    rng_u = np.random.default_rng([0xC0A3, seed])
    n_train = len(train_txt)
    reps = -(-n_train // len(train_ids))
    speaker_seq = np.tile(np.asarray(train_ids), reps)[:n_train]
    rng_u.shuffle(speaker_seq)
    utts = tuple(
        Utterance(
            utt_id=f"utt{i:04d}",
            text=train_txt[i],
            speaker_id=int(speaker_seq[i]),
            channel=PRISTINE,
            seed=int(rng_u.integers(0, 2**31 - 1)),
            split="train",
        )
        for i in range(n_train)
    )
    return CorpusSplits(
        seed=seed, vocab=vocab, speakers=speakers,
        train_speaker_ids=train_ids, heldout_speaker_ids=heldout_ids,
        train_texts=train_txt, heldout_texts=heldout_txt, utterances=utts,
    )
