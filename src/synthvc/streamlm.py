"""Multi-stream autoregressive transformer with a text-ahead delay layout.

One grid column per generation step carries 1 text token plus n acoustic
tokens. Stream s is offset by d_s steps with d = [0, 1, ..., n], so every
text token is emitted one step before the first acoustic token of the same
step index, and acoustic layers stagger by one. The model consumes a prefix
of p = 1 + T' positions, [speaker row, semantic rows], followed by the
summed per-stream embeddings of previous grid columns; the output at
position p - 1 + j predicts column j.

Training scores a whole grid in one teacher-forced causal pass
(`forward_batch`). Decoding (`generate`) prefills the prefix once, which
fills per-block key/value caches and gives the logits of column 0, then
runs the trunk over one new position per column: column j - 1's summed
embeddings at position p - 1 + j, attending over the cache. Both share the
embeddings, the trunk and the stream heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import numerics as nm
from . import synthworld as sw
from .errors import CapacityError, ConfigError, DataError, GridFormatError
from .numerics import Tensor

TEXT_CONTENT = sw.N_SYMBOLS      # ids 0..31 are content
TEXT_PAD = sw.TEXT_PAD
TEXT_BOS = sw.TEXT_BOS
TEXT_EOS = sw.TEXT_EOS
TEXT_VOCAB = sw.TEXT_VOCAB


@dataclass(frozen=True)
class StreamLayout:
    """1 + n streams; text leads every acoustic stream."""

    n_layers: int
    code_vocab: int             # content codes per acoustic stream

    @property
    def n_streams(self) -> int:
        return 1 + self.n_layers

    @property
    def ac_pad(self) -> int:
        return self.code_vocab

    @property
    def ac_bos(self) -> int:
        return self.code_vocab + 1

    @property
    def ac_vocab(self) -> int:
        return self.code_vocab + 2


@dataclass(frozen=True)
class DelayedGrid:
    """(1 + n) x L int64 token matrix; which positions are content is read
    off the tokens themselves (`supervised_mask`)."""

    tokens: np.ndarray

    @property
    def length(self) -> int:
        return self.tokens.shape[1]

    @property
    def n_streams(self) -> int:
        return self.tokens.shape[0]


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


# ---------------------------------------------------------------------------
# the transformer LM


@dataclass(frozen=True)
class LMConfig:
    dim: int
    heads: int
    blocks: int
    intermediate: int
    capacity: int
    layout: StreamLayout

    def __post_init__(self):
        nn.check_heads("lm.heads", self.dim, self.heads)


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


def forward_batch(params: dict, cfg: LMConfig, sem: Tensor, spk: Tensor,
                  tokens: np.ndarray) -> list[Tensor]:
    """Teacher-forced pass over a batch of same-shape grids.

    sem (B, T', dim), spk (B, 1, dim), tokens (B, 1+n, L).
    Returns per-stream logits, each (B, L, vocab_s); logits at step j are
    produced from columns < j plus the full prefix.
    """
    b, t_sem, _ = sem.shape
    length = tokens.shape[2]
    p = 1 + t_sem
    total = p + length - 1
    if total > cfg.capacity:
        raise CapacityError(f"sequence length {total} exceeds capacity {cfg.capacity}")

    x = nm.concat([spk, sem, _embed_columns(params, cfg, tokens[:, :, :length - 1])], axis=1)
    h = nn.trunk(params, "lm", x, np.arange(total), cfg.heads, cfg.blocks,
                 nn.causal_mask(total))
    h_gen = nm.narrow(h, 1, p - 1, total)
    return [_head(params, s, h_gen) for s in range(cfg.layout.n_streams)]


def _embed_columns(params: dict, cfg: LMConfig, tokens: np.ndarray) -> Tensor:
    """Summed per-stream embeddings of grid columns: (B, 1+n, L) -> (B, L, dim).
    The (B * L, dim) lookups are summed in stream order, then reshaped once."""
    b, _, length = tokens.shape
    out = None
    for s in range(cfg.layout.n_streams):
        table = params["lm.text_emb"] if s == 0 else params[f"lm.ac_emb{s - 1}"]
        emb = nm.embedding_lookup(table, tokens[:, s].reshape(-1))
        out = emb if out is None else nm.add(out, emb)
    return nm.reshape(out, (b, length, cfg.dim))


def _head(params: dict, s: int, h: Tensor) -> Tensor:
    """Stream s's logits from trunk outputs h."""
    return nn.linear(params, "lm.text_head" if s == 0 else f"lm.ac_head{s - 1}", h)


def forward(params: dict, cfg: LMConfig, sem: Tensor, spk: Tensor | None,
            grid: DelayedGrid) -> list[Tensor]:
    """Single-item teacher-forced pass; spk=None uses the learned null row."""
    if spk is None:
        spk = params["lm.null_spk"]
    sem3 = nm.reshape(sem, (1,) + sem.shape)
    spk3 = nm.reshape(spk, (1, 1, cfg.dim))
    outs = forward_batch(params, cfg, sem3, spk3, grid.tokens[None])
    return [nm.reshape(o, o.shape[1:]) for o in outs]


# ---------------------------------------------------------------------------
# generation


@dataclass(frozen=True)
class GenerationResult:
    grid: DelayedGrid
    truncated: bool
    steps: int


def greedy_pick(logits_row: np.ndarray, allowed: np.ndarray) -> int:
    """Argmax over an allowed id subset; invariant to positive scaling."""
    return int(allowed[np.argmax(logits_row[allowed])])


def sample_pick(logits_row: np.ndarray, allowed: np.ndarray, temperature: float,
                top_k: int, rng: np.random.Generator) -> int:
    vals = logits_row[allowed].astype(np.float64) / max(temperature, 1e-6)
    if top_k > 0 and top_k < len(vals):
        keep = np.argsort(-vals)[:top_k]
        allowed = allowed[keep]
        vals = vals[keep]
    vals -= vals.max()
    p = np.exp(vals)
    p /= p.sum()
    return int(allowed[rng.choice(len(allowed), p=p)])


def generate(params: dict, cfg: LMConfig, sem: Tensor, spk: Tensor | None,
             max_steps: int, tail: int, mode: str = "greedy",
             temperature: float = 1.0, top_k: int = 0,
             rng: np.random.Generator | None = None) -> GenerationResult:
    """Greedy or sampled decoding with structural tokens forced by construction.

    A prefill over [speaker row, semantic rows] (p positions) fills per-block
    key/value caches, sized min(capacity, p + max_steps), and yields column
    0's logits; each later column j runs the trunk over one position, column
    j - 1's summed embeddings at p - 1 + j, against the cache. Only the heads
    of streams still emitting are evaluated. CapacityError is raised at the
    first column j with p + j > capacity.

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
    cache = [nm.BlockCache(cfg.heads, min(cfg.capacity, p + max_steps), cfg.dim // cfg.heads)
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
        if p + j > cfg.capacity:
            raise CapacityError(f"sequence length {p + j} exceeds capacity {cfg.capacity}")
        if j == 0:
            x = nm.concat([nm.reshape(spk, (1, 1, cfg.dim)), nm.reshape(sem, (1,) + sem.shape)],
                          axis=1)
            h = nm.narrow(nn.trunk(params, "lm", x, np.arange(p), cfg.heads, cfg.blocks,
                                   nn.causal_mask(p), cache), 1, p - 1, p)
        else:
            x = _embed_columns(params, cfg, col[None, :, None])
            h = nn.trunk(params, "lm", x, np.array([p - 1 + j]), cfg.heads, cfg.blocks,
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


# ---------------------------------------------------------------------------
# grid dump format: one stream per line, specials spelled out


def dump_grid(grid: DelayedGrid, layout: StreamLayout) -> str:
    lines = []
    for s in range(grid.n_streams):
        specials = ({TEXT_PAD: "<pad>", TEXT_BOS: "<bos>", TEXT_EOS: "<eos>"} if s == 0
                    else {layout.ac_pad: "<pad>", layout.ac_bos: "<bos>"})
        lines.append(" ".join(specials.get(int(v), str(int(v))) for v in grid.tokens[s]))
    return "\n".join(lines) + "\n"


def parse_grid(text: str, layout: StreamLayout) -> DelayedGrid:
    rows = []
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) != layout.n_streams:
        raise GridFormatError(f"grid dump has {len(lines)} streams, expected {layout.n_streams}")
    for s, (ln_no, line) in enumerate(lines):
        specials = ({"<pad>": TEXT_PAD, "<bos>": TEXT_BOS, "<eos>": TEXT_EOS} if s == 0
                    else {"<pad>": layout.ac_pad, "<bos>": layout.ac_bos})
        row = []
        for tok in line.split():
            if tok in specials:
                row.append(specials[tok])
            else:
                try:
                    row.append(int(tok))
                except ValueError:
                    raise GridFormatError(f"line {ln_no}: token {tok!r} is neither an integer "
                                          "nor <pad>, <bos> or <eos>") from None
        rows.append(row)
    if len(set(len(r) for r in rows)) != 1:
        raise GridFormatError("grid dump rows have differing lengths")
    return DelayedGrid(tokens=np.asarray(rows, dtype=np.int64))
