"""Delay-pattern grid and multi-stream LM tests."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthvc import config, nn
from synthvc import numerics as nm
from synthvc import streamlm as sl
from synthvc.errors import ConfigError, DataError, GridFormatError

import harness as parent
from harness import mul, sum_all

LAYOUT4 = sl.StreamLayout(n_layers=4, code_vocab=64)


def random_pair(rng, n_layers=4, max_lt=13, max_ta=44):
    lt = int(rng.integers(1, max_lt))
    ta = int(rng.integers(1, max_ta))
    text = rng.integers(0, 32, size=lt).tolist()
    codes = rng.integers(0, 64, size=(n_layers, ta))
    return text, codes


# ---------------------------------------------------------------------------
# grid layout


def test_build_matches_worked_example():
    # text [t1,t2] with n=2 and 2 acoustic steps: forced by d=[0,1,2]
    lay = sl.StreamLayout(n_layers=2, code_vocab=64)
    g = sl.build_delayed_grid([5, 9], np.array([[10, 11], [12, 13]]), lay)
    assert g.length == 5
    assert g.tokens[0].tolist() == [5, 9, sl.TEXT_EOS, sl.TEXT_PAD, sl.TEXT_PAD]
    assert g.tokens[1].tolist() == [lay.ac_bos, 10, 11, lay.ac_pad, lay.ac_pad]
    assert g.tokens[2].tolist() == [lay.ac_bos, lay.ac_bos, 12, 13, lay.ac_pad]


def test_build_single_token_single_frame():
    lay = sl.StreamLayout(n_layers=1, code_vocab=64)
    g = sl.build_delayed_grid([7], np.array([[3]]), lay)
    assert g.tokens[0].tolist() == [7, sl.TEXT_EOS, sl.TEXT_PAD]
    assert g.tokens[1].tolist() == [lay.ac_bos, 3, lay.ac_pad]


def test_build_rejects_empty_inputs():
    with pytest.raises(DataError):
        sl.build_delayed_grid([], np.zeros((4, 3), dtype=np.int64), LAYOUT4)
    with pytest.raises(DataError):
        sl.build_delayed_grid([1], np.zeros((4, 0), dtype=np.int64), LAYOUT4)


def test_round_trip_identity_1000_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        text, codes = random_pair(rng)
        g = sl.build_delayed_grid(text, codes, LAYOUT4)
        t2, c2 = sl.invert_delayed_grid(g, LAYOUT4)
        assert t2 == text
        assert np.array_equal(c2, codes)


@settings(max_examples=60, deadline=None)
@given(
    text=st.lists(st.integers(0, 31), min_size=1, max_size=14),
    ta=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_round_trip_property(text, ta, seed):
    codes = np.random.default_rng(seed).integers(0, 64, size=(4, ta))
    g = sl.build_delayed_grid(text, codes, LAYOUT4)
    t2, c2 = sl.invert_delayed_grid(g, LAYOUT4)
    assert t2 == list(text) and np.array_equal(c2, codes)


def test_delay_layout_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lt = int(rng.integers(1, 13))
        ta = 3 * lt + 4          # the world's frame count always exceeds text length
        text = rng.integers(0, 32, size=lt).tolist()
        codes = rng.integers(0, 64, size=(4, ta))
        g = sl.build_delayed_grid(text, codes, LAYOUT4)
        eos_pos = int(np.nonzero(g.tokens[0] == sl.TEXT_EOS)[0][0])
        real = g.tokens < LAYOUT4.code_vocab
        layer1_real = np.nonzero(real[1])[0]
        assert eos_pos < layer1_real[-1]
        for k in range(1, 5):
            first_real = int(np.nonzero(real[k])[0][0])
            assert first_real == k


def test_invert_rejects_empty_text():
    g = sl.build_delayed_grid([1], np.zeros((4, 2), dtype=np.int64), LAYOUT4)
    tokens = g.tokens.copy()
    tokens[0, 0] = sl.TEXT_EOS   # EOS at step 0: all-PAD text
    bad = sl.DelayedGrid(tokens=tokens)
    with pytest.raises(DataError, match="empty text"):
        sl.invert_delayed_grid(bad, LAYOUT4)


def test_invert_rejects_token_before_delay():
    g = sl.build_delayed_grid([1, 2], np.ones((4, 3), dtype=np.int64), LAYOUT4)
    tokens = g.tokens.copy()
    tokens[3, 1] = 5   # stream 3 has delay 3; real token at step 1 is invalid
    bad = sl.DelayedGrid(tokens=tokens)
    with pytest.raises(GridFormatError, match="stream 3"):
        sl.invert_delayed_grid(bad, LAYOUT4)


def test_invert_rejects_token_after_pad():
    g = sl.build_delayed_grid([1, 2, 3], np.ones((4, 5), dtype=np.int64), LAYOUT4)
    tokens = g.tokens.copy()
    tokens[1, -1] = 2   # last column is PAD for stream 1
    bad = sl.DelayedGrid(tokens=tokens)
    with pytest.raises(GridFormatError, match="after PAD"):
        sl.invert_delayed_grid(bad, LAYOUT4)


def test_supervised_mask_covers_stops():
    g = sl.build_delayed_grid([4, 5], np.arange(12).reshape(4, 3) % 64, LAYOUT4)
    m = sl.supervised_mask(g, LAYOUT4)
    assert m[0, 2]                     # text EOS at position L_t
    for i in range(4):
        d = i + 1
        assert m[i + 1, d + 3]         # first PAD after content
        assert not m[i + 1, :d].any()  # BOS never supervised


def test_asr_grid_text_only():
    g = sl.build_asr_grid([3, 4, 5], LAYOUT4)
    assert g.tokens[0, :4].tolist() == [3, 4, 5, sl.TEXT_EOS]
    assert (g.tokens[1:] == LAYOUT4.ac_pad).all()
    m = sl.supervised_mask(g, LAYOUT4)
    assert m[0, :4].all() and not m[1:].any()


def _outcome(fn, *args):
    """fn's result, or the class of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:   # the class is what the comparison checks
        return type(e)


def _random_layout(rng):
    return sl.StreamLayout(n_layers=int(rng.integers(1, 6)),
                           code_vocab=int(rng.choice([3, 8, 64])))


def test_builders_and_mask_equal_the_reference_on_random_inputs():
    """Delayed and ASR grids, and their masks, equal the separate text and
    acoustic rules that the per-stream tables replaced; so do the exception
    classes on inputs the builder must reject."""
    rng = np.random.default_rng(190)
    rejected = 0
    for k in range(2400):
        lay = _random_layout(rng)
        text = rng.integers(0, 32, size=int(rng.integers(1, 15))).tolist()
        codes = rng.integers(0, lay.code_vocab, size=(lay.n_layers, int(rng.integers(1, 41))))
        if k % 4 == 3:   # an input to reject: empty, out of range or misshapen
            spoil = int(rng.integers(6))
            if spoil == 0:
                text = []
            elif spoil in (1, 2):
                text[int(rng.integers(len(text)))] = int(rng.choice([-1, 32, sl.TEXT_EOS]))
            elif spoil == 3:
                codes[int(rng.integers(lay.n_layers)), -1] = int(rng.choice([-1, lay.code_vocab]))
            elif spoil == 4:
                codes = codes[:, :0]
            else:
                codes = codes[:-1] if rng.random() < 0.5 else codes[0]
        got = _outcome(sl.build_delayed_grid, text, codes, lay)
        want = _outcome(parent.build_delayed_grid, text, codes, lay)
        if isinstance(want, type):
            rejected += 1
            assert got is want is DataError, (k, got, want)
            continue
        assert got.tokens.dtype == want.tokens.dtype == np.int64
        assert np.array_equal(got.tokens, want.tokens), k
        for g in (got, sl.build_asr_grid(text, lay)):
            mask, want_mask = sl.supervised_mask(g, lay), parent.supervised_mask(g, lay)
            assert mask.dtype == want_mask.dtype == bool
            assert np.array_equal(mask, want_mask), k
    assert rejected == 600


def test_asr_grid_equals_the_reference_and_rejects_non_content_text():
    """The ASR grid laid out from the tables equals the text-only rule it
    replaced, and a text id outside the content range is a DataError naming
    stream 0, as `build_delayed_grid` gives, not a grid that supervises it."""
    rng = np.random.default_rng(200)
    for k in range(800):
        lay = _random_layout(rng)
        text = rng.integers(0, 32, size=int(rng.integers(1, 15))).tolist()
        got, want = sl.build_asr_grid(text, lay), parent.build_asr_grid(text, lay)
        assert got.tokens.dtype == want.tokens.dtype == np.int64
        assert np.array_equal(got.tokens, want.tokens), k
    for text in ([34, 1, -2], [-2], [3, 32], [5, sl.TEXT_EOS, 6]):
        with pytest.raises(DataError, match="build_asr_grid: stream 0 "):
            sl.build_asr_grid(text, LAYOUT4)
        with pytest.raises(DataError, match="build_delayed_grid: stream 0 "):
            sl.build_delayed_grid(text, np.zeros((4, 2), dtype=np.int64), LAYOUT4)


def _default_lm_cfg():
    cfg = config.RunConfig()
    return sl.LMConfig(dim=cfg["lm.dim"], heads=cfg["lm.heads"], blocks=cfg["lm.blocks"],
                       intermediate=cfg["lm.intermediate"],
                       layout=sl.StreamLayout(cfg["codec.layers"], cfg["codec.codebook"]))


@pytest.mark.parametrize("lm,seed", [
    *[(sl.LMConfig(dim=16, heads=2, blocks=blocks, intermediate=24,
                   layout=sl.StreamLayout(n_layers=n_layers, code_vocab=code_vocab)), seed)
      for n_layers, code_vocab, blocks, seed in ((4, 64, 4, 7401), (1, 3, 1, 0), (3, 8, 2, 5),
                                                 (5, 64, 1, 12))],
    (_default_lm_cfg(), 7401)])
def test_init_lm_equals_the_reference(lm, seed):
    """One loop over the streams' vocabularies for the embeddings and one for
    the heads draw the parent's names, order and bits, the default config's
    LM included."""
    got, want = sl.init_lm(lm, seed), parent.init_lm(lm, seed)
    assert list(got) == list(want)
    assert nn.param_bytes(got) == nn.param_bytes(want)
    assert all(p.requires_grad for p in got.values())


def _corrupted_grid(rng, lay):
    """A built grid, or one spoiled in a way the inversion must notice or
    must see through: cells overwritten with specials, content or ids out of
    every range, columns cut or added, a stream missing or repeated, a row
    shifted, or tokens drawn at random."""
    text = rng.integers(0, 32, size=int(rng.integers(1, 9))).tolist()
    codes = rng.integers(0, lay.code_vocab, size=(lay.n_layers, int(rng.integers(1, 12))))
    tokens = sl.build_delayed_grid(text, codes, lay).tokens.copy()
    specials = [sl.TEXT_PAD, sl.TEXT_BOS, sl.TEXT_EOS, lay.ac_pad, lay.ac_bos, lay.ac_vocab,
                0, lay.code_vocab - 1, 31, 40, -1]
    kind = int(rng.integers(7))
    if kind == 1:
        for _ in range(int(rng.integers(1, 4))):
            tokens[int(rng.integers(tokens.shape[0])),
                   int(rng.integers(tokens.shape[1]))] = int(rng.choice(specials))
    elif kind == 2:
        tokens = tokens[:, :int(rng.integers(1, tokens.shape[1] + 1))]
    elif kind == 3:
        fill = int(rng.choice(specials))
        extra = np.full((tokens.shape[0], int(rng.integers(1, 4))), fill, dtype=np.int64)
        tokens = np.concatenate([tokens, extra], axis=1)
    elif kind == 4:
        s = int(rng.integers(tokens.shape[0]))
        tokens = np.delete(tokens, s, axis=0) if rng.random() < 0.5 else \
            np.insert(tokens, s, tokens[s], axis=0)
    elif kind == 5:
        s = int(rng.integers(tokens.shape[0]))
        tokens[s] = np.roll(tokens[s], int(rng.choice([-1, 1])))
    elif kind == 6:
        tokens = rng.choice(specials, size=tokens.shape).astype(np.int64)
    return sl.DelayedGrid(tokens=tokens)


def test_invert_equals_the_reference_on_random_and_corrupted_grids():
    """On every grid the inversion returns what the separate text parser and
    acoustic loop returned, or raises the same exception class; where it
    accepts a grid, the mask there equals the reference mask too. The one
    difference is a negative acoustic code, which the reference took as
    content and the per-stream rule rejects."""
    rng = np.random.default_rng(191)
    outcomes = Counter()
    for k in range(3000):
        lay = _random_layout(rng)
        grid = _corrupted_grid(rng, lay)
        got = _outcome(sl.invert_delayed_grid, grid, lay)
        want = _outcome(parent.invert_delayed_grid, grid, lay)
        if not isinstance(want, type) and (want[1] < 0).any():
            assert got is GridFormatError, k
            outcomes["negative code"] += 1
            continue
        if isinstance(want, type):
            assert got is want, (k, got, want, grid.tokens)
            outcomes[want.__name__] += 1
            continue
        (text, codes), (want_text, want_codes) = got, want
        assert text == want_text and all(type(t) is int for t in text), k
        assert codes.dtype == want_codes.dtype == np.int64
        assert np.array_equal(codes, want_codes), k
        if grid.n_streams == lay.n_streams:
            assert np.array_equal(sl.supervised_mask(grid, lay),
                                  parent.supervised_mask(grid, lay)), k
        outcomes["accepted"] += 1
    assert outcomes["GridFormatError"] >= 2000 and outcomes["DataError"] >= 25
    assert outcomes["negative code"] >= 5 and outcomes["accepted"] >= 400


def test_invert_rejects_a_negative_acoustic_code():
    """Content ids are 0 up to the stream's bound in every stream. The
    acoustic loop this rule replaced took a negative code as content and
    returned it; the text stream never did."""
    g = sl.build_delayed_grid([1, 2], np.ones((4, 3), dtype=np.int64), LAYOUT4)
    for s in range(5):
        tokens = g.tokens.copy()
        tokens[s, s] = -1
        with pytest.raises(GridFormatError, match=f"stream {s}"):
            sl.invert_delayed_grid(sl.DelayedGrid(tokens=tokens), LAYOUT4)
    tokens[4, 4] = 1
    tokens[2, 2] = -1
    assert parent.invert_delayed_grid(sl.DelayedGrid(tokens=tokens), LAYOUT4)[1][1, 0] == -1


# ---------------------------------------------------------------------------
# transformer forward


@pytest.fixture(scope="module")
def lm(lm_cfg):
    """The default LM config, untrained params and a random prefix and grid."""
    cfg = lm_cfg
    params = sl.init_lm(cfg, seed=11)
    rng = np.random.default_rng(3)
    sem = nm.constant(rng.normal(size=(9, cfg.dim)).astype(np.float32))
    spk = nm.constant(rng.normal(size=(1, cfg.dim)).astype(np.float32))
    grid = sl.build_delayed_grid(
        rng.integers(0, 32, size=4).tolist(), rng.integers(0, 64, size=(4, 16)), cfg.layout)
    return cfg, params, sem, spk, grid


def test_forward_batch_tape_op_counts(lm):
    """One taped LM pass at the default config: each block is one
    `attention_residual` and one `mlp_residual` node, so un-fusing any op on
    the LM path changes these counts."""
    cfg, params, sem, spk, grid = lm
    tape = nm.Tape()
    with tape:
        sl.forward_batch(params, cfg, nm.reshape(sem, (1,) + sem.shape),
                         nm.reshape(spk, (1, 1, cfg.dim)), grid.tokens[None])
    counts = Counter(node.op for node in tape.nodes if node.op != "leaf")
    assert counts == {"affine": 5, "add": 4, "rms_norm": 1, "embedding_lookup": 5,
                      "reshape": 1, "attention_residual": 4, "mlp_residual": 4, "concat": 1,
                      "narrow": 1}
    assert sum(counts.values()) == 26


def _embed_columns_per_stream(params, cfg, tokens):
    """The per-stream reshape-then-add form that `sl._embed_columns`
    replaced: the reference its forward and gradients equal bit for bit."""
    b, _, length = tokens.shape
    parts = []
    for s in range(cfg.layout.n_streams):
        table = params["lm.text_emb"] if s == 0 else params[f"lm.ac_emb{s - 1}"]
        emb = nm.embedding_lookup(table, tokens[:, s].reshape(-1))
        parts.append(nm.reshape(emb, (b, length, cfg.dim)))
    out = parts[0]
    for extra in parts[1:]:
        out = nm.add(out, extra)
    return out


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("length", [1, 7])
def test_embed_columns_bitwise_equals_per_stream_reshape_then_add(lm, b, length):
    cfg, params, *_ = lm
    rng = np.random.default_rng(10 * b + length)
    tokens = np.empty((b, cfg.layout.n_streams, length), dtype=np.int64)
    tokens[:, 0] = rng.integers(0, sl.TEXT_VOCAB, size=(b, length))
    tokens[:, 1:] = rng.integers(0, cfg.layout.ac_vocab, size=(b, cfg.layout.n_layers, length))
    g = rng.normal(size=(b, length, cfg.dim)).astype(np.float32)
    tables = {name: p for name, p in params.items() if "_emb" in name}
    results = []
    for embed in (sl._embed_columns, _embed_columns_per_stream):
        tape = nm.Tape()
        with tape:
            out = embed(params, cfg, tokens)
            loss = sum_all(mul(out, nm.constant(g)))   # upstream gradient g, exactly
        results.append((out.data, tape.backward(loss, tables)))
    (out, grads), (want, want_grads) = results
    assert out.shape == want.shape == (b, length, cfg.dim)
    assert out.tobytes() == want.tobytes()
    assert grads.keys() == want_grads.keys() == tables.keys()
    for name in tables:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


def test_cached_decode_column_op_and_check_counts(lm, monkeypatch):
    """After the prefill, every decode column makes the same taped-op calls:
    10 to embed the previous column (five lookups, four adds, one reshape),
    25 in the width-1 trunk (6 a block: the two fused halves and the four
    public ops inside attention, plus the final norm) and one head `affine`
    per stream still picking. Each op checks its output once; each block
    also checks its 10 other intermediates (n, q, k, v, the context and the
    o projection; the MLP's n, up and silu outputs and down projection) and
    its attention scores, so every check of the unfused chain is kept."""
    cfg, params, sem, spk, _ = lm
    seen = Counter()
    marks = []
    real_apply, real_check = nm._apply, nm._finite_or_raise
    real_head, real_embed = sl._head, sl._embed_columns

    def apply(*args):
        seen["apply"] += 1
        return real_apply(*args)

    def check(*args):
        seen["check"] += 1
        return real_check(*args)

    def head(*args):
        seen["head"] += 1
        return real_head(*args)

    def embed(*args):
        marks.append(seen.copy())     # a column after the prefill starts here
        return real_embed(*args)

    monkeypatch.setattr(nm, "_apply", apply)
    monkeypatch.setattr(nm, "_finite_or_raise", check)
    monkeypatch.setattr(sl, "_head", head)
    monkeypatch.setattr(sl, "_embed_columns", embed)
    res = sl.generate(params, cfg, sem, spk, max_steps=40, tail=8)
    marks.append(seen.copy())
    columns = [{k: after[k] - before[k] for k in ("apply", "check", "head")}
               for before, after in zip(marks, marks[1:])]
    assert len(columns) == res.steps - 1 > 10
    assert all(1 <= c["head"] <= cfg.layout.n_streams for c in columns)
    assert {(c["apply"] - c["head"], c["check"] - c["head"]) for c in columns} == {(35, 79)}


def test_forward_shapes_and_finite(lm):
    cfg, params, sem, spk, grid = lm
    outs = sl.forward(params, cfg, sem, spk, grid)
    assert outs[0].shape == (grid.length, sl.TEXT_VOCAB)
    for o in outs[1:]:
        assert o.shape == (grid.length, cfg.layout.ac_vocab)
        assert np.isfinite(o.data).all()


def test_forward_causality_probes(lm):
    cfg, params, sem, spk, grid = lm
    base = sl.forward(params, cfg, sem, spk, grid)
    rng = np.random.default_rng(17)
    for _ in range(20):
        j = int(rng.integers(0, grid.length - 1))
        s = int(rng.integers(0, 5))
        tokens = grid.tokens.copy()
        vocab = sl.TEXT_VOCAB if s == 0 else cfg.layout.ac_vocab
        tokens[s, j + 1] = (tokens[s, j + 1] + 1 + int(rng.integers(vocab - 1))) % vocab
        pert = sl.DelayedGrid(tokens=tokens)
        outs = sl.forward(params, cfg, sem, spk, pert)
        for a, b in zip(base, outs):
            assert np.array_equal(a.data[:j + 1], b.data[:j + 1])


def test_forward_prefix_sensitivity(lm):
    cfg, params, sem, spk, grid = lm
    base = sl.forward(params, cfg, sem, spk, grid)
    spk2 = nm.constant(spk.data + 0.25)
    outs = sl.forward(params, cfg, sem, spk2, grid)
    assert not np.array_equal(base[0].data[0], outs[0].data[0])


def test_forward_null_speaker_row(lm):
    cfg, params, sem, _, grid = lm
    outs = sl.forward(params, cfg, sem, None, grid)
    assert np.isfinite(outs[0].data).all()


# ---------------------------------------------------------------------------
# generation


def test_generate_untrained_model_structurally_valid(lm):
    cfg, params, sem, spk, _ = lm
    res = sl.generate(params, cfg, sem, spk, max_steps=48, tail=8)
    text, codes = sl.invert_delayed_grid(res.grid, cfg.layout)   # must not raise
    assert len(text) >= 1 and codes.shape[1] >= 1


def test_generate_greedy_deterministic(lm):
    cfg, params, sem, spk, _ = lm
    a = sl.generate(params, cfg, sem, spk, max_steps=48, tail=8)
    b = sl.generate(params, cfg, sem, spk, max_steps=48, tail=8)
    assert np.array_equal(a.grid.tokens, b.grid.tokens)
    assert a.truncated == b.truncated and a.steps == b.steps


def test_generate_truncation_flag(lm):
    cfg, params, sem, spk, _ = lm
    res = sl.generate(params, cfg, sem, spk, max_steps=8, tail=1)
    # untrained model will not produce EOS within 8 steps
    assert res.truncated


def test_generate_sampling_mode(lm):
    cfg, params, sem, spk, _ = lm
    rng = np.random.default_rng(7)
    res = sl.generate(params, cfg, sem, spk, max_steps=24, tail=4,
                      mode="sample", temperature=0.8, top_k=8, rng=rng)
    sl.invert_delayed_grid(res.grid, cfg.layout)
    with pytest.raises(ConfigError):
        sl.generate(params, cfg, sem, spk, max_steps=24, tail=4, mode="sample")
    with pytest.raises(ConfigError):
        sl.generate(params, cfg, sem, spk, max_steps=24, tail=4, mode="beam")


@pytest.mark.parametrize("temperature,top_k", [(float("nan"), 0), (0.0, 0), (-1.0, 0),
                                               (1.0, -3)])
def test_sampled_decoding_rejects_a_bad_temperature_or_top_k(lm, monkeypatch, temperature,
                                                             top_k):
    """Sample mode needs a temperature above 0 and a top_k of 0 (off) or
    more, and says so before the prefill; greedy mode ignores both."""
    cfg, params, sem, spk, _ = lm
    trunks = []
    real_trunk = nn.trunk
    monkeypatch.setattr(nn, "trunk", lambda *a, **k: trunks.append(1) or real_trunk(*a, **k))
    with pytest.raises(ConfigError, match="temperature above 0" if top_k == 0 else "top_k"):
        sl.generate(params, cfg, sem, spk, max_steps=24, tail=4, mode="sample",
                    temperature=temperature, top_k=top_k, rng=np.random.default_rng(7))
    assert trunks == []
    greedy = sl.generate(params, cfg, sem, spk, max_steps=24, tail=4,
                         temperature=temperature, top_k=top_k)
    plain = sl.generate(params, cfg, sem, spk, max_steps=24, tail=4)
    assert np.array_equal(greedy.grid.tokens, plain.grid.tokens)


def _record_decode(monkeypatch, params, cfg, sem, spk, **kw):
    """Greedy decode that records the width of every trunk call and, per
    column, every (row, allowed, token) pick; returns (result, widths, picks)."""
    widths, picks = [], []
    real_pick, real_trunk = sl.greedy_pick, nn.trunk

    def pick(row, allowed):
        tok = real_pick(row, allowed)
        picks[-1].append((row.copy(), allowed, tok))
        return tok

    def trunk(params, prefix, x, *args, **kwargs):
        widths.append(x.shape[1])
        picks.append([])
        return real_trunk(params, prefix, x, *args, **kwargs)

    monkeypatch.setattr(sl, "greedy_pick", pick)
    monkeypatch.setattr(nn, "trunk", trunk)
    try:
        out = sl.generate(params, cfg, sem, spk, **kw)
    finally:
        monkeypatch.undo()
    return out, widths, picks


def _emitted_columns(picks, layout):
    """Replay the forced structure over the recorded picks: the (1+n, steps)
    emitted tokens and, per column, the picking streams as (s, row, allowed, tok)."""
    n = layout.n_layers
    eos, closed = False, [False] * n
    cols, picked = [], []
    for j, col_picks in enumerate(picks):
        it = iter(col_picks)
        col, here = [sl.TEXT_PAD] + [layout.ac_bos] * n, []
        if not eos:
            row, allowed, tok = next(it)
            col[0], eos = tok, tok == sl.TEXT_EOS
            here.append((0, row, allowed, tok))
        for i in range(n):
            if j < i + 1:
                continue
            if closed[i]:
                col[i + 1] = layout.ac_pad
                continue
            row, allowed, tok = next(it)
            col[i + 1], closed[i] = tok, tok == layout.ac_pad
            here.append((i + 1, row, allowed, tok))
        assert next(it, None) is None
        cols.append(col)
        picked.append(here)
    return np.asarray(cols, dtype=np.int64).T, picked


def _stopping_params(params, cfg):
    """The same model with EOS and every acoustic PAD favoured: text stops
    after a few tokens and each acoustic stream after one code."""
    out = dict(params)
    text_b = params["lm.text_head.b"].data.copy()
    text_b[sl.TEXT_EOS] += 0.2
    out["lm.text_head.b"] = nm.Tensor(text_b, requires_grad=True)
    for i in range(cfg.layout.n_layers):
        ac_b = params[f"lm.ac_head{i}.b"].data.copy()
        ac_b[cfg.layout.ac_pad] += 5.0
        out[f"lm.ac_head{i}.b"] = nm.Tensor(ac_b, requires_grad=True)
    return out


@pytest.mark.parametrize("stops", [True, False])
def test_cached_decode_matches_teacher_forced_rescoring(lm, monkeypatch, stops):
    cfg, params, sem, spk, _ = lm
    if stops:
        params = _stopping_params(params, cfg)
    res, widths, picks = _record_decode(monkeypatch, params, cfg, sem, spk,
                                        max_steps=48, tail=40)
    assert res.truncated != stops
    tokens, picked = _emitted_columns(picks, cfg.layout)
    assert tokens.shape[1] == res.steps
    if stops:   # a clean stop emits exactly the canonical grid
        assert np.array_equal(tokens, res.grid.tokens)
    grid = sl.DelayedGrid(tokens=tokens)
    forced = sl.forward(params, cfg, sem, spk, grid)
    for j, here in enumerate(picked):
        for s, row, allowed, tok in here:
            want = forced[s].data[j]
            assert np.abs(row - want).max() <= 1e-5, (j, s)
            assert sl.greedy_pick(want, allowed) == tok, (j, s)


def test_decode_runs_one_trunk_position_per_column_after_prefill(lm, monkeypatch):
    cfg, params, sem, spk, _ = lm
    res, widths, _ = _record_decode(monkeypatch, params, cfg, sem, spk, max_steps=40, tail=8)
    p = 1 + sem.shape[0]
    assert widths[0] == p
    assert widths[1:] == [1] * (res.steps - 1)


def _random_lm(rng, ending):
    """A small random LM whose head biases steer decoding to an ending:
    "clean" (every stream stops), "tail" (text stops, no acoustic stream
    does), "truncated" (text never stops) or "free" (no steering)."""
    layout = _random_layout(rng)
    cfg = sl.LMConfig(dim=16, heads=2, blocks=int(rng.integers(1, 3)), intermediate=32,
                      layout=layout)
    params = sl.init_lm(cfg, seed=int(rng.integers(1 << 16)))
    eos, pad = {"clean": (rng.uniform(0.5, 3.0), rng.uniform(4.0, 8.0)),
                "tail": (rng.uniform(0.5, 3.0), -20.0), "truncated": (-20.0, 0.0),
                "free": (0.0, 0.0)}[ending]
    for name, tok, shift in [("lm.text_head.b", sl.TEXT_EOS, eos)] + [
            (f"lm.ac_head{i}.b", layout.ac_pad, pad) for i in range(layout.n_layers)]:
        b = params[name].data.copy()
        b[tok] += shift
        params[name] = nm.Tensor(b, requires_grad=True)
    sem = nm.constant(rng.normal(size=(int(rng.integers(2, 7)), cfg.dim)).astype(np.float32))
    spk = nm.constant(rng.normal(size=(1, cfg.dim)).astype(np.float32))
    return cfg, params, sem, spk


def test_generate_equals_the_reference_column_loop_on_random_lms():
    """Greedy and sampled decodes of random LMs give the tokens, `truncated`
    and `steps` of the loop with a separate text branch; clean stops, tail
    stops and truncations all occur, and a tail stop is not a truncation."""
    rng = np.random.default_rng(192)
    endings = Counter()
    for k in range(32):
        cfg, params, sem, spk = _random_lm(rng, ("clean", "tail", "truncated", "free")[k % 4])
        max_steps, tail = int(rng.integers(cfg.layout.n_layers + 2, 33)), int(rng.integers(1, 5))
        for mode in ("greedy", "sample"):
            seed, top_k = int(rng.integers(1 << 16)), int(rng.choice([0, 3]))
            kw = dict(max_steps=max_steps, tail=tail, mode=mode, temperature=0.9, top_k=top_k)
            got, want = (gen(params, cfg, sem, spk, rng=np.random.default_rng(seed), **kw)
                         for gen in (sl.generate, parent.generate))
            assert np.array_equal(got.grid.tokens, want.grid.tokens), (k, mode)
            assert (got.truncated, got.steps) == (want.truncated, want.steps), (k, mode)
            text, _ = sl.invert_delayed_grid(got.grid, cfg.layout)
            tail_stop = got.steps == len(text) + cfg.layout.n_layers + tail + 1
            endings["truncated" if got.truncated else "tail" if tail_stop else "clean"] += 1
    assert all(endings[e] >= 6 for e in ("clean", "tail", "truncated")), endings


def test_greedy_pick_argmax_scale_invariance():
    rng = np.random.default_rng(41)
    for _ in range(50):
        row = rng.normal(size=66).astype(np.float32)
        allowed = np.sort(rng.choice(66, size=20, replace=False))
        a = sl.greedy_pick(row, allowed)
        b = sl.greedy_pick(row * 3.7, allowed)
        assert a == b


def test_grid_dump_parse_round_trip():
    """Delayed and ASR grids of random layouts read back from their dumps,
    which spell every special id from the layout's tables; `<eos>` is the
    text stream's alone, so an acoustic line holding it is rejected."""
    rng = np.random.default_rng(55)
    for _ in range(40):
        lay = _random_layout(rng)
        text = rng.integers(0, sl.TEXT_CONTENT, size=int(rng.integers(1, 13))).tolist()
        codes = rng.integers(0, lay.code_vocab, size=(lay.n_layers, int(rng.integers(1, 44))))
        for g in (sl.build_delayed_grid(text, codes, lay), sl.build_asr_grid(text, lay)):
            lines = sl.dump_grid(g, lay).splitlines()
            assert "<eos>" in lines[0] and not any("<eos>" in ln for ln in lines[1:])
            assert all(tok[0] == "<" or int(tok) < lay.content_ids[s]
                       for s, ln in enumerate(lines) for tok in ln.split())
            assert np.array_equal(sl.parse_grid("\n".join(lines), lay).tokens, g.tokens)
    acoustic = lines[1].split()
    acoustic[-1] = "<eos>"
    with pytest.raises(GridFormatError, match="line 2: token '<eos>' "):
        sl.parse_grid("\n".join([lines[0], " ".join(acoustic), *lines[2:]]), lay)
