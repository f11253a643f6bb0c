"""Multi-stream autoregressive transformer with a text-ahead delay layout.

One grid column per generation step carries 1 text token plus n acoustic
tokens. Text is stream 0 and acoustic layer i is stream i + 1, and one rule
lays out every stream s: s BOS tokens (its delay), its content, its stop
token, then PAD. Text's content ids are its symbols and its stop is EOS; an
acoustic stream's content ids are the codes and its stop is its own PAD. So
every text token is emitted one step before the first acoustic token of the
same step index, and acoustic layers stagger by one. The model consumes a
prefix of p = 1 + T' positions, [speaker row, semantic rows], followed by
the summed per-stream embeddings of previous grid columns; the output at
position p - 1 + j predicts column j.

Training scores a whole grid in one teacher-forced causal pass
(`forward_batch`) on the taped ops. Decoding (`generate`) runs untaped on
plain arrays through the same kernels: it prefills the prefix once, which
fills per-block key/value caches and gives the logits of column 0, then
runs the trunk (`nn.decode_trunk`) over one new position per column:
column j - 1's summed embeddings at position p - 1 + j, attending over the
cache. Both read the same embeddings, trunk weights and stream heads, and
a decode's logits have the bits of the taped ops'.

`StreamLayout` owns every token id and vocabulary, and `_param` names each
stream's embedding and head: no other module spells either out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import numerics as nm
from . import synthworld as sw
from .errors import ConfigError, DataError, GridFormatError
from .numerics import Tensor

TEXT_CONTENT = sw.N_SYMBOLS   # text ids: the world's symbols, then PAD, BOS, EOS; 40 rows
TEXT_PAD = TEXT_CONTENT
TEXT_BOS = TEXT_CONTENT + 1
TEXT_EOS = TEXT_CONTENT + 2
TEXT_VOCAB = 40


@dataclass(frozen=True)
class StreamLayout:
    """1 + n streams; text leads every acoustic stream.

    Stream s is delayed s steps. The per-stream tables below, indexed by s,
    hold everything the grid builders, the mask, the inversion and the
    decoder need: ids 0 to `content_ids[s]` - 1 are content, `stop_ids[s]`
    ends the content, `pad_ids[s]` fills the rest and `bos_ids[s]` the delay;
    `vocab_sizes[s]` is the size of its embedding table and head.
    """

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

    @property
    def content_ids(self) -> tuple[int, ...]:
        return (TEXT_CONTENT,) + (self.code_vocab,) * self.n_layers

    @property
    def stop_ids(self) -> tuple[int, ...]:
        return (TEXT_EOS,) + (self.ac_pad,) * self.n_layers

    @property
    def pad_ids(self) -> tuple[int, ...]:
        return (TEXT_PAD,) + (self.ac_pad,) * self.n_layers

    @property
    def bos_ids(self) -> tuple[int, ...]:
        return (TEXT_BOS,) + (self.ac_bos,) * self.n_layers

    @property
    def vocab_sizes(self) -> tuple[int, ...]:
        return (TEXT_VOCAB,) + (self.ac_vocab,) * self.n_layers


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

    `codes` is array-like (n_layers, T_a). L is the least length at which
    every stream s holds its s BOS, its content and its stop and then ends
    in PAD; an acoustic stream's stop is that PAD.
    """
    text = [int(t) for t in text]
    code_arr = np.asarray(codes, dtype=np.int64)
    if len(text) < 1:
        raise DataError("build_delayed_grid: empty text")
    if code_arr.ndim != 2 or code_arr.shape[0] != layout.n_layers or code_arr.shape[1] < 1:
        raise DataError(f"build_delayed_grid: codes shape {code_arr.shape} does not match "
                        f"{layout.n_layers} layers with at least one step")
    streams = [text, *code_arr]
    stop, pad = layout.stop_ids, layout.pad_ids
    length = max(s + len(row) + 1 + (stop[s] != pad[s]) for s, row in enumerate(streams))
    return _lay_out("build_delayed_grid", streams, layout, length)


def build_asr_grid(text, layout: StreamLayout) -> DelayedGrid:
    """Text-only teacher-forcing grid of max(len(text) + 2, n_layers + 1)
    columns: stream 0 as in `build_delayed_grid`, the acoustic streams all PAD."""
    text = [int(t) for t in text]
    if len(text) < 1:
        raise DataError("build_asr_grid: empty text")
    return _lay_out("build_asr_grid", [text], layout, max(len(text) + 1, layout.n_layers) + 1)


def _lay_out(caller: str, streams, layout: StreamLayout, length: int) -> DelayedGrid:
    """A grid of `length` columns in which each given stream s reads s BOS,
    its content, its stop, then PAD, and each stream not given is all PAD.
    A given stream holding a non-content id is a DataError naming it."""
    content, stop, pad, bos = layout.content_ids, layout.stop_ids, layout.pad_ids, layout.bos_ids
    tokens = np.tile(np.asarray(pad, dtype=np.int64)[:, None], length)   # every stream's PAD
    for s, row in enumerate(streams):
        if np.min(row) < 0 or np.max(row) >= content[s]:
            raise DataError(f"{caller}: stream {s} holds a non-content token")
        end = s + len(row)
        tokens[s, :s] = bos[s]
        tokens[s, s:end] = row
        tokens[s, end] = stop[s]
    return DelayedGrid(tokens=tokens)


def supervised_mask(grid: DelayedGrid, layout: StreamLayout) -> np.ndarray:
    """Loss positions: each stream's content tokens plus the position after
    its last one, which on a built grid holds the stream's stop (text EOS,
    acoustic PAD), so the model learns to stop. An ASR grid's acoustic rows
    are all PAD, so its mask is text-only."""
    mask = grid.tokens < np.asarray(layout.content_ids)[:, None]
    for s in range(grid.n_streams):
        content = np.nonzero(mask[s])[0]
        if content.size and content[-1] + 1 < grid.length:
            mask[s, content[-1] + 1] = True
    return mask


def invert_delayed_grid(grid: DelayedGrid, layout: StreamLayout) -> tuple[list[int], np.ndarray]:
    """(text, (n_layers, T_a) int64 codes): strip specials and undo delays;
    rejects malformed layouts. Stream s must read: s BOS, at least one
    content token, its stop unless that is its PAD, then only PAD."""
    tokens = grid.tokens
    if tokens.shape[0] != layout.n_streams:
        raise GridFormatError(f"grid has {tokens.shape[0]} streams, layout expects {layout.n_streams}")
    length = tokens.shape[1]
    content, stop, pad, bos = layout.content_ids, layout.stop_ids, layout.pad_ids, layout.bos_ids

    rows = []
    for s, row in enumerate(tokens):
        for t in range(min(s, length)):
            if row[t] != bos[s]:
                raise GridFormatError(f"stream {s}: expected BOS before delay at step {t}")
        end = s
        while end < length and 0 <= row[end] < content[s]:
            end += 1
        t = end
        if stop[s] != pad[s]:
            if t == length or row[t] != stop[s]:
                raise GridFormatError(f"stream {s}: missing stop token {stop[s]} at step {t}")
            t += 1
        if end == s:
            if s == 0:
                raise DataError("stream 0: empty text")
            raise GridFormatError(f"stream {s}: no content tokens at step {end}")
        for u in range(t, length):
            if row[u] != pad[s]:
                raise GridFormatError(f"stream {s}: token after PAD or the stop at step {u}")
        rows.append(row[s:end])
    lengths = [len(r) for r in rows[1:]]
    if len(set(lengths)) != 1:
        raise GridFormatError(f"acoustic streams disagree on length: {lengths}")
    return rows[0].tolist(), np.asarray(rows[1:], dtype=np.int64)


# ---------------------------------------------------------------------------
# the transformer LM


@dataclass(frozen=True)
class LMConfig:
    dim: int
    heads: int
    blocks: int
    intermediate: int
    layout: StreamLayout

    def __post_init__(self):
        nn.check_heads("lm.heads", self.dim, self.heads)


def _param(s: int, kind: str) -> str:
    """Stream s's "emb" or "head" parameter: lm.text_<kind>, lm.ac_<kind>0, ..."""
    return f"lm.ac_{kind}{s - 1}" if s else f"lm.text_{kind}"


def init_lm(cfg: LMConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng([0x11A0, seed])
    params: dict[str, Tensor] = {}
    for s, vocab in enumerate(cfg.layout.vocab_sizes):
        params[_param(s, "emb")] = Tensor(
            rng.normal(0.0, 0.1, size=(vocab, cfg.dim)).astype(np.float32), requires_grad=True)
    params["lm.null_spk"] = Tensor(rng.normal(0.0, 0.1, size=(1, cfg.dim)).astype(np.float32),
                                   requires_grad=True)
    nn.init_trunk(params, rng, "lm", cfg.dim, cfg.intermediate, cfg.blocks)
    for s, vocab in enumerate(cfg.layout.vocab_sizes):
        nn.init_linear(params, rng, _param(s, "head"), cfg.dim, vocab)
    return params


def null_speaker(params: dict, cfg: LMConfig, batch: int) -> Tensor:
    """The learned null-speaker row, (batch, 1, dim), for ASR-mode items."""
    null = nm.reshape(params["lm.null_spk"], (1, 1, cfg.dim))
    return null if batch == 1 else nm.concat([null] * batch, axis=0)


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
        emb = nm.embedding_lookup(params[_param(s, "emb")], tokens[:, s].reshape(-1))
        out = emb if out is None else nm.add(out, emb)
    return nm.reshape(out, (b, length, cfg.dim))


def _head(params: dict, s: int, h: Tensor) -> Tensor:
    """Stream s's logits from trunk outputs h."""
    return nn.linear(params, _param(s, "head"), h)


def forward(params: dict, cfg: LMConfig, sem: Tensor, spk: Tensor | None,
            grid: DelayedGrid) -> list[Tensor]:
    """Single-item teacher-forced pass; spk=None uses the learned null row."""
    sem3 = nm.reshape(sem, (1,) + sem.shape)
    spk3 = null_speaker(params, cfg, 1) if spk is None else nm.reshape(spk, (1, 1, cfg.dim))
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
    vals = logits_row[allowed].astype(np.float64) / temperature
    if top_k > 0 and top_k < len(vals):
        keep = np.argsort(-vals)[:top_k]
        allowed = allowed[keep]
        vals = vals[keep]
    vals -= vals.max()
    p = np.exp(vals)
    p /= p.sum()
    return int(allowed[rng.choice(len(allowed), p=p)])


def _prefix_rows(spk: Tensor, sem: Tensor) -> np.ndarray:
    """A decode's prefix [speaker row, semantic rows], (1, p, dim), checked
    as `forward`'s two reshapes and concat check it."""
    rows = (spk.data.reshape(1, 1, -1), sem.data.reshape((1,) + sem.shape))
    for arr in rows:
        nm._finite_or_raise(arr, "reshape")
    x = np.concatenate(rows, axis=1)
    nm._finite_or_raise(x, "concat")
    return x


def _embed_column(tables: list[np.ndarray], col: np.ndarray) -> np.ndarray:
    """`_embed_columns` of one column on plain arrays, (1, 1, dim): a row
    gather from each stream's table, summed in stream order, with the 10
    checks of its ops (each lookup, each add and the reshape)."""
    out = None
    for table, tok in zip(tables, col):
        row = table[tok:tok + 1]
        nm._finite_or_raise(row, "embedding_lookup")
        if out is not None:
            row = out + row
            nm._finite_or_raise(row, "add")
        out = row
    out = out.reshape(1, 1, -1)
    nm._finite_or_raise(out, "reshape")
    return out


def generate(params: dict, cfg: LMConfig, sem: Tensor, spk: Tensor,
             max_steps: int, tail: int, mode: str = "greedy",
             temperature: float = 1.0, top_k: int = 0,
             rng: np.random.Generator | None = None) -> GenerationResult:
    """Greedy or sampled decoding with structural tokens forced by construction.

    The decode runs untaped on plain arrays (`nn.decode_trunk`), with the
    trunk's weights, the embedding tables and the heads gathered once. A
    prefill over [speaker row, semantic rows] (p positions) fills per-block
    key/value caches, sized p + max_steps, and yields column 0's logits;
    each later column j runs the trunk over one position, column j - 1's
    summed embeddings at p - 1 + j, against the cache. Every array is
    checked, and every logit has the bits, of the same decode through the
    taped ops.

    In column j, stream s is BOS while j < s and PAD once it has stopped;
    otherwise its head picks a content id, or from column s + 1 on also its
    stop. Only the heads of streams still picking are evaluated.

    Stops once every stream has stopped, or n + tail steps after the text's
    EOS (a tail stop); neither is a truncation. Only reaching max_steps
    first sets `truncated`. The returned grid is rebuilt in canonical layout
    from the emitted text and codes, so it always inverts cleanly.
    """
    layout = cfg.layout
    n = layout.n_layers
    if max_steps < n + 2:
        raise ConfigError(f"generate: max_steps must be at least {n + 2}")
    if tail < 1:
        raise ConfigError("generate: tail must be at least 1")
    if mode not in ("greedy", "sample"):
        raise ConfigError(f"generate: unknown mode {mode!r}")
    if mode == "sample":
        if rng is None:
            raise ConfigError("generate: sample mode needs an rng")
        if not temperature > 0:     # NaN fails too
            raise ConfigError(f"generate: sample mode needs a temperature above 0, "
                              f"got {temperature}")
        if top_k < 0:
            raise ConfigError(f"generate: top_k must be 0 (off) or more, got {top_k}")

    stop, pad, bos = layout.stop_ids, layout.pad_ids, layout.bos_ids
    first = [np.arange(c) for c in layout.content_ids]
    later = [np.append(ids, x) for ids, x in zip(first, stop)]
    streams = range(layout.n_streams)

    trunk = nn.trunk_arrays(params, "lm", cfg.blocks)
    tables = [params[_param(s, "emb")].data for s in streams]
    heads = [nn.affine_arrays(params, _param(s, "head")) for s in streams]
    p = 1 + sem.shape[0]
    cache = [nm.BlockCache(cfg.heads, p + max_steps, cfg.dim // cfg.heads)
             for _ in range(cfg.blocks)]

    def pick(s, allowed):
        """Stream s's token for the current column, from the latest trunk row h."""
        row, _ = nm._affine_fwd(h, *heads[s])
        nm._finite_or_raise(row, "affine")
        if mode == "greedy":
            return greedy_pick(row, allowed)
        return sample_pick(row, allowed, temperature, top_k, rng)

    emitted: list[list[int]] = [[] for _ in streams]
    stopped_at: list[int | None] = [None for _ in streams]
    truncated = False

    for j in range(max_steps):
        if j == 0:
            h = nn.decode_trunk(trunk, _prefix_rows(spk, sem), np.arange(p), cfg.heads,
                                nn.causal_mask(p), cache)[0, p - 1]
            nm._finite_or_raise(h, "narrow")
        else:
            h = nn.decode_trunk(trunk, _embed_column(tables, col), np.array([p - 1 + j]),
                                cfg.heads, None, cache)[0, 0]
        col = np.empty(layout.n_streams, dtype=np.int64)
        for s in streams:
            if j < s:
                col[s] = bos[s]
            elif stopped_at[s] is not None:
                col[s] = pad[s]
            else:
                col[s] = tok = pick(s, first[s] if j == s else later[s])
                if tok == stop[s]:
                    stopped_at[s] = j
                else:
                    emitted[s].append(tok)

        steps = j + 1
        eos = stopped_at[0]
        if eos is not None and (None not in stopped_at or j - eos >= n + tail):
            break
    else:
        truncated = True

    t_a = min(len(c) for c in emitted[1:])
    code_arr = np.asarray([c[:t_a] for c in emitted[1:]], dtype=np.int64)
    grid = build_delayed_grid(emitted[0], code_arr, layout)
    return GenerationResult(grid=grid, truncated=truncated, steps=steps)


# ---------------------------------------------------------------------------
# grid dump format: one stream per line, specials spelled out


def _specials(layout: StreamLayout, s: int) -> dict[str, int]:
    """Stream s's spelled-out ids: its PAD, its BOS and, where its stop is
    not its PAD (the text stream), <eos>."""
    pad, bos, stop = layout.pad_ids[s], layout.bos_ids[s], layout.stop_ids[s]
    return {"<pad>": pad, "<bos>": bos} | ({"<eos>": stop} if stop != pad else {})


def dump_grid(grid: DelayedGrid, layout: StreamLayout) -> str:
    lines = []
    for s in range(grid.n_streams):
        spelled = {v: k for k, v in _specials(layout, s).items()}
        lines.append(" ".join(spelled.get(int(v), str(int(v))) for v in grid.tokens[s]))
    return "\n".join(lines) + "\n"


def parse_grid(text: str, layout: StreamLayout) -> DelayedGrid:
    """The grid of a `dump_grid` text. A token that is neither an int64 nor
    one of its line's specials is a GridFormatError naming the line."""
    rows = []
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) != layout.n_streams:
        raise GridFormatError(f"grid dump has {len(lines)} streams, expected {layout.n_streams}")
    for s, (ln_no, line) in enumerate(lines):
        specials = _specials(layout, s)
        row = []
        for tok in line.split():
            if tok in specials:
                row.append(specials[tok])
            else:
                try:
                    row.append(np.int64(tok))
                except (ValueError, OverflowError):
                    raise GridFormatError(f"line {ln_no}: token {tok!r} is neither an int64 "
                                          f"nor {' or '.join(specials)}") from None
        rows.append(row)
    if len(set(len(r) for r in rows)) != 1:
        raise GridFormatError("grid dump rows have differing lengths")
    return DelayedGrid(tokens=np.asarray(rows, dtype=np.int64))
