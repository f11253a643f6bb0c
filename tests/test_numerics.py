"""Tensor/autodiff tests: every derived value comes from an independent oracle."""

import mpmath
import numpy as np
import pytest

from synthvc import numerics as nm
from synthvc.errors import (
    ConfigError,
    DegenerateBatchError,
    DeterminismError,
    NumericsError,
    ShapeError,
)


def t(data, rg=False, dtype=None):
    return nm.Tensor(data, requires_grad=rg, dtype=dtype)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = t(np.eye(2))
    m = t([[1.0, 2.0], [3.0, 4.0]])
    out = nm.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_orthogonal_selection():
    out = nm.matmul(t([[1.0, 0.0]]), t([[0.0], [5.0]]))
    np.testing.assert_array_equal(out.data, [[0.0]])


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 4)).astype(np.float32)
    b = rng.normal(size=(4, 2)).astype(np.float32)
    expect = np.zeros((3, 2), dtype=np.float32)
    for i in range(3):
        for j in range(2):
            acc = np.float32(0.0)
            for k in range(4):
                acc += a[i, k] * b[k, j]
            expect[i, j] = acc
    got = nm.matmul(t(a), t(b)).data
    np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-7)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as ei:
        nm.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))
    assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3, 4)).astype(np.float32)
    b = rng.normal(size=(5, 4, 2)).astype(np.float32)
    got = nm.matmul(t(a), t(b)).data
    for i in range(5):
        np.testing.assert_allclose(got[i], a[i] @ b[i], rtol=1e-6)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = nm.softmax(t([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_large_logit_no_overflow():
    out = nm.softmax(t([1000.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert out.data[0] > 0.999 and out.data[1] < 1e-6


def test_softmax_against_mpmath_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(scale=3.0, size=5).astype(np.float32)
    with mpmath.workdps(60):
        es = [mpmath.e ** mpmath.mpf(float(v)) for v in x]
        z = sum(es)
        expect = np.array([float(e / z) for e in es])
    got = nm.softmax(t(x)).data
    assert np.abs(got - expect).max() < 1e-6


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = rng.normal(scale=5.0, size=(20, 9)).astype(np.float32)
    out = nm.softmax(t(x)).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(20), atol=1e-6)


def test_softmax_monotone_in_inputs():
    x = np.array([0.1, 0.2, 0.3], dtype=np.float32)
    lo = nm.softmax(t(x)).data[1]
    x2 = x.copy()
    x2[1] += 0.5
    hi = nm.softmax(t(x2)).data[1]
    assert hi > lo


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_perfect_prediction():
    logits = np.full((3, 5), -30.0, dtype=np.float32)
    targets = [1, 4, 0]
    for i, tt in enumerate(targets):
        logits[i, tt] = 30.0
    loss = nm.cross_entropy(t(logits), targets)
    assert 0.0 <= loss.item() < 1e-4


def test_cross_entropy_uniform_is_log4():
    loss = nm.cross_entropy(t(np.zeros((6, 4), dtype=np.float32)), [0, 1, 2, 3, 0, 1])
    assert abs(loss.item() - np.log(4.0)) < 1e-6


def test_cross_entropy_against_manual_oracle():
    rng = np.random.default_rng(5)
    logits = rng.normal(scale=2.0, size=(3, 5)).astype(np.float32)
    targets = [2, 0, 4]
    # per-position -log p in float64, averaged by hand
    acc = 0.0
    for i, tt in enumerate(targets):
        row = logits[i].astype(np.float64)
        p = np.exp(row - row.max())
        p /= p.sum()
        acc += -np.log(p[tt])
    expect = acc / 3.0
    got = nm.cross_entropy(t(logits), targets).item()
    assert abs(got - expect) < 1e-6


def test_cross_entropy_mask_and_errors():
    logits = t(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(DegenerateBatchError):
        nm.cross_entropy(logits, [0, 1], mask=[False, False])
    with pytest.raises(IndexError):
        nm.cross_entropy(logits, [0, 3])
    # masked-out positions may carry junk targets
    ok = nm.cross_entropy(logits, [0, 99], mask=[True, False])
    assert abs(ok.item() - np.log(3.0)) < 1e-6


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(20):
        logits = rng.normal(size=(4, 6)).astype(np.float32)
        targets = rng.integers(0, 6, size=4)
        assert nm.cross_entropy(t(logits), targets).item() >= 0.0


# ---------------------------------------------------------------------------
# rms_norm


def test_rms_norm_constant_vector():
    out = nm.rms_norm(t([3.0, 3.0, 3.0, 3.0]), t(np.ones(4)))
    np.testing.assert_allclose(out.data, np.ones(4), atol=1e-4)


def test_rms_norm_zero_vector():
    out = nm.rms_norm(t(np.zeros(4)), t(np.ones(4)))
    np.testing.assert_array_equal(out.data, np.zeros(4))
    assert np.isfinite(out.data).all()


def test_rms_norm_unit_rms_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.normal(scale=2.0, size=16).astype(np.float32)
        gain = rng.uniform(0.5, 2.0, size=16).astype(np.float32)
        out = nm.rms_norm(t(x), t(gain)).data
        rms = np.sqrt(np.mean((out / gain) ** 2))
        assert abs(rms - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# rope


def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 4, 8)).astype(np.float32)
    out = nm.rope_apply(t(x), [0])
    np.testing.assert_array_equal(out.data, x)


def test_rope_preserves_norm():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4, 8)).astype(np.float32)
    out = nm.rope_apply(t(x), np.arange(6)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-5)


def test_rope_relative_shift_invariance():
    rng = np.random.default_rng(9)
    for s in (1, 5, 17):
        q = rng.normal(size=(1, 8)).astype(np.float32)
        k = rng.normal(size=(1, 8)).astype(np.float32)
        m, n = 3, 7
        d0 = float(np.dot(nm.rope_apply(t(q), [m]).data[0], nm.rope_apply(t(k), [n]).data[0]))
        d1 = float(np.dot(nm.rope_apply(t(q), [m + s]).data[0], nm.rope_apply(t(k), [n + s]).data[0]))
        assert abs(d0 - d1) < 1e-5


def test_rope_odd_dim_rejected():
    with pytest.raises(ConfigError):
        nm.rope_apply(t(np.zeros((2, 3))), [0, 1])


# ---------------------------------------------------------------------------
# embedding lookup


def test_embedding_row_zero_exact():
    table = np.arange(12, dtype=np.float32).reshape(4, 3)
    out = nm.embedding_lookup(t(table), [0])
    np.testing.assert_array_equal(out.data[0], table[0])


def test_embedding_gather_vs_loop_oracle():
    rng = np.random.default_rng(21)
    table = rng.normal(size=(10, 4)).astype(np.float32)
    ids = rng.integers(0, 10, size=13)
    got = nm.embedding_lookup(t(table), ids).data
    for i, idx in enumerate(ids):
        np.testing.assert_array_equal(got[i], table[idx])


def test_embedding_repeated_id_grad_sums():
    table = nm.Tensor(np.zeros((5, 2), dtype=np.float32), requires_grad=True)
    tape = nm.Tape()
    with tape:
        rows = nm.embedding_lookup(table, [3, 3])
        w = nm.constant(np.array([[1.0, 2.0], [10.0, 20.0]], dtype=np.float32))
        loss = nm.sum_all(nm.mul(rows, w))
    g = tape.backward(loss, {"table": table})["table"]
    np.testing.assert_allclose(g[3], [11.0, 22.0])


def test_embedding_out_of_range():
    with pytest.raises(IndexError):
        nm.embedding_lookup(t(np.zeros((4, 2))), [4])


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_sum_gives_ones():
    x = nm.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    tape = nm.Tape()
    with tape:
        loss = nm.sum_all(x)
    g = tape.backward(loss, {"x": x})["x"]
    np.testing.assert_array_equal(g, np.ones((2, 3), dtype=np.float32))


def test_backward_dot_with_self():
    x = nm.Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    tape = nm.Tape()
    with tape:
        loss = nm.sum_all(nm.mul(x, x))
    g = tape.backward(loss, {"x": x})["x"]
    np.testing.assert_allclose(g, 2.0 * x.data)


def test_backward_requires_scalar_loss():
    x = nm.Tensor(np.ones(3), requires_grad=True)
    tape = nm.Tape()
    with tape:
        y = nm.mul(x, x)
    with pytest.raises(NumericsError):
        tape.backward(y, {"x": x})


def test_backward_off_tape_loss_rejected():
    tape = nm.Tape()
    x = nm.Tensor(np.ones(2), requires_grad=True)
    loss = nm.sum_all(x)
    with pytest.raises(NumericsError):
        tape.backward(loss, {"x": x})


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(31)
    x = nm.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    w = nm.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    tape = nm.Tape()
    with tape:
        h = nm.silu(nm.matmul(x, w))
        loss = nm.mean_all(nm.mul(h, h))
    g1 = tape.backward(loss, {"x": x, "w": w})
    g2 = tape.backward(loss, {"x": x, "w": w})
    assert sorted(g1) == ["w", "x"]
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def test_backward_mlp_against_finite_differences():
    rng = np.random.default_rng(17)
    w1 = rng.normal(size=(5, 7)).astype(np.float32)
    w2 = rng.normal(size=(7, 1)).astype(np.float32)
    x0 = rng.normal(size=(2, 5)).astype(np.float32)

    def f(xt):
        h = nm.silu(nm.matmul(xt, nm.constant(w1, dtype=xt.dtype)))
        out = nm.matmul(h, nm.constant(w2, dtype=xt.dtype))
        return nm.mean_all(out)

    assert nm.grad_check(f, nm.Tensor(x0), step=1e-4) < 1e-3


def test_finite_guard_raises():
    big = t(np.array([1e30], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError):
            nm.mul(nm.scale(big, 1e30), nm.scale(big, 1e30))


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_sum_of_squares():
    def f(xt):
        return nm.sum_all(nm.mul(xt, xt))

    err = nm.grad_check(f, nm.Tensor(np.array([1.0, 2.0], dtype=np.float32)))
    assert err < 1e-8


def test_grad_check_softmax_ce_composite():
    rng = np.random.default_rng(77)
    x0 = rng.normal(size=(3, 6)).astype(np.float32)
    targets = [1, 5, 0]

    def f(xt):
        return nm.cross_entropy(xt, targets)

    assert nm.grad_check(f, nm.Tensor(x0)) < 1e-3


def test_grad_check_rms_norm_composite():
    rng = np.random.default_rng(78)
    x0 = rng.normal(size=(2, 8)).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, size=8).astype(np.float32)

    def f(xt):
        out = nm.rms_norm(xt, nm.constant(gain, dtype=xt.dtype))
        return nm.mean_all(nm.mul(out, out))

    assert nm.grad_check(f, nm.Tensor(x0)) < 1e-3


def test_grad_check_detects_nondeterminism():
    state = {"n": 0}

    def f(xt):
        state["n"] += 1
        return nm.sum_all(nm.scale(xt, float(state["n"])))

    with pytest.raises(DeterminismError):
        nm.grad_check(f, nm.Tensor(np.ones(2, dtype=np.float32)))


CAUSAL3 = np.triu(np.full((3, 3), -1e9, dtype=np.float32), k=1)


def _op_checks(seed):
    rng = np.random.default_rng(seed)
    x_mat = rng.normal(size=(3, 4)).astype(np.float32)
    w = rng.normal(size=(4, 3)).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, size=4).astype(np.float32)
    ids = rng.integers(0, 3, size=5)
    targets = rng.integers(0, 4, size=3)
    b3 = rng.normal(size=(2, 3, 4)).astype(np.float32)
    checks = {
        "add": lambda xt: nm.sum_all(nm.mul(nm.add(xt, nm.constant(w.T, dtype=xt.dtype)), xt)),
        "mul": lambda xt: nm.sum_all(nm.mul(nm.mul(xt, nm.constant(w.T, dtype=xt.dtype)), xt)),
        "scale": lambda xt: nm.sum_all(nm.scale(xt, 2.5)),
        "matmul": lambda xt: nm.mean_all(nm.matmul(xt, nm.constant(w, dtype=xt.dtype))),
        "affine": lambda xt: nm.mean_all(nm.mul(
            nm.affine(nm.reshape(xt, (3, 1, 4)), nm.constant(w, dtype=xt.dtype),
                      nm.constant(gain[:3], dtype=xt.dtype)),
            nm.constant(w[:3, None, :], dtype=xt.dtype))),
        "affine_wb": lambda xt: nm.sum_all(nm.mul(
            nm.affine(nm.constant(b3[:, :, :3], dtype=xt.dtype), xt,
                      nm.reshape(nm.narrow(xt, 0, 0, 1), (4,))), nm.constant(b3, dtype=xt.dtype))),
        "matmul_b": lambda xt: nm.mean_all(
            nm.matmul(nm.reshape(xt, (1, 3, 4)), nm.constant(b3.transpose(0, 2, 1)[:1], dtype=xt.dtype))),
        "transpose": lambda xt: nm.sum_all(nm.mul(nm.transpose(xt, (1, 0)), nm.constant(w, dtype=xt.dtype))),
        "reshape": lambda xt: nm.sum_all(nm.mul(nm.reshape(xt, (2, 6)), nm.reshape(xt, (2, 6)))),
        "concat": lambda xt: nm.sum_all(nm.mul(nm.concat([xt, xt], axis=0), nm.concat([xt, xt], axis=0))),
        "narrow": lambda xt: nm.sum_all(nm.mul(nm.narrow(xt, 1, 1, 3), nm.narrow(xt, 1, 0, 2))),
        "softmax": lambda xt: nm.mean_all(nm.mul(nm.softmax(xt), nm.constant(w.T, dtype=xt.dtype))),
        "cross_entropy": lambda xt: nm.cross_entropy(xt, targets),
        "rms_norm": lambda xt: nm.mean_all(nm.mul(nm.rms_norm(xt, nm.constant(gain, dtype=xt.dtype)), xt)),
        "rope": lambda xt: nm.sum_all(nm.mul(nm.rope_apply(xt, [2, 5, 9]), xt)),
        "embedding": lambda xt: nm.mean_all(nm.mul(nm.embedding_lookup(xt, ids),
                                                   nm.embedding_lookup(xt, ids))),
        "silu": lambda xt: nm.mean_all(nm.silu(xt)),
        "sum_all": lambda xt: nm.sum_all(xt),
        "mean_all": lambda xt: nm.mean_all(xt),
        "mean_axis": lambda xt: nm.sum_all(nm.mul(nm.mean_axis(xt, 0), nm.constant(gain[None, :], dtype=xt.dtype))),
        "weighted_sum": lambda xt: nm.sum_all(nm.mul(nm.weighted_sum(
            [xt, nm.mul(xt, xt), nm.silu(xt), nm.constant(w.T, dtype=xt.dtype)],
            [0.7, -1.3, 0.0, 2.0]), xt)),
        "unfold": lambda xt: nm.mean_all(nm.mul(nm.unfold_time(xt, 2, 2, 1), nm.unfold_time(xt, 2, 2, 1))),
        "attend": lambda xt: nm.mean_all(nm.mul(nm.attend(
            nm.reshape(xt, (1, 3, 4)),
            nm.mul(nm.reshape(xt, (1, 3, 4)), nm.constant(b3[:1], dtype=xt.dtype)),
            nm.add(nm.reshape(xt, (1, 3, 4)), nm.constant(b3[1:], dtype=xt.dtype)),
            [2, 5, 9], 2, CAUSAL3), nm.constant(b3[:1] + 1.0, dtype=xt.dtype))),
    }
    return x_mat, checks


@pytest.mark.parametrize("seed", range(10))
def test_every_differentiable_op_grad_checks(seed):
    x_mat, checks = _op_checks(seed)
    for name, f in checks.items():
        err = nm.grad_check(f, nm.Tensor(x_mat), step=1e-4)
        assert err < 1e-3, f"op {name} failed grad check with rel err {err}"


def _reshape_matmul_add_chain(x, w, b):
    """The four-op composition that `affine` replaces."""
    flat = nm.reshape(x, (-1, w.shape[0])) if x.ndim != 2 else x
    out = nm.add(nm.matmul(flat, w), b)
    return nm.reshape(out, x.shape[:-1] + (w.shape[1],)) if x.ndim != 2 else out


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
@pytest.mark.parametrize("grad", ["x+wb", "wb", "x", "none"])
def test_affine_bitwise_equals_reshape_matmul_add_chain(shape, grad):
    rng = np.random.default_rng(len(shape) * 10 + len(grad))
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(4, 6)).astype(np.float32)
    b = rng.normal(size=6).astype(np.float32)
    g = rng.normal(size=shape[:-1] + (6,)).astype(np.float32)
    runs = []
    for f in (nm.affine, _reshape_matmul_add_chain):
        xt, wt, bt = t(x, rg="x" in grad), t(w, rg="wb" in grad), t(b, rg="wb" in grad)
        tape = nm.Tape()
        with tape:
            out = f(xt, wt, bt)
            loss = nm.sum_all(nm.mul(out, t(g)))   # upstream gradient g, exactly
        named = {"x": xt, "w": wt, "b": bt}
        grads = tape.backward(loss, named) if grad != "none" else {}
        runs.append((out.data, [grads.get(name) for name in named],
                     len(tape.nodes)))
    (fused, fused_grads, fused_nodes), (chain, chain_grads, _) = runs
    assert fused.dtype == chain.dtype and np.array_equal(fused, chain)
    for got, want in zip(fused_grads, chain_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape and np.array_equal(got, want)
    # x, w, b, the op, g, mul, sum_all when anything needs a gradient
    assert fused_nodes == (7 if grad != "none" else 0)


def test_affine_rejects_mismatched_shapes():
    x, w, b = t(np.zeros((2, 4))), t(np.zeros((4, 3))), t(np.zeros(3))
    with pytest.raises(ShapeError):
        nm.affine(t(np.zeros((2, 5))), w, b)
    with pytest.raises(ShapeError):
        nm.affine(x, w, t(np.zeros(4)))
    with pytest.raises(ShapeError):
        nm.affine(x, t(np.zeros((4, 3, 1))), b)


def _attention_chain(q, k, v, positions, heads, mask):
    """The op chain that `attend` replaces, built from the public ops."""
    b, t, d = q.shape
    dh = d // heads
    tiled = np.tile(positions, b)

    def split(x):
        x = nm.transpose(nm.reshape(x, (b, t, heads, dh)), (0, 2, 1, 3))
        return nm.reshape(x, (b * heads, t, dh))

    q = split(nm.reshape(nm.rope_apply(nm.reshape(q, (b * t, heads, dh)), tiled), (b, t, d)))
    k = split(nm.reshape(nm.rope_apply(nm.reshape(k, (b * t, heads, dh)), tiled), (b, t, d)))
    scores = nm.scale(nm.matmul(q, nm.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = nm.add(scores, nm.constant(mask))
    ctx = nm.reshape(nm.matmul(nm.softmax(scores), split(v)), (b, heads, t, dh))
    return nm.reshape(nm.transpose(ctx, (0, 2, 1, 3)), (b, t, d))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("grad", ["qkv", "qv", "k", "none"])
def test_attend_bitwise_equals_unfused_chain(masked, grad):
    rng = np.random.default_rng(len(grad) * 2 + masked)
    b, n, d, heads = 3, 5, 12, 2    # dh = 6: 1 / sqrt(dh) is inexact, so scaling order shows
    q, k, v, g = (rng.normal(size=(b, n, d)).astype(np.float32) for _ in range(4))
    positions = np.arange(4, 4 + n)
    mask = np.triu(np.full((n, n), -1e9, dtype=np.float32), k=1) if masked else None
    runs = []
    for f in (nm.attend, _attention_chain):
        qt, kt, vt = (t(x, rg=name in grad) for x, name in ((q, "q"), (k, "k"), (v, "v")))
        tape = nm.Tape()
        with tape:
            out = f(qt, kt, vt, positions, heads, mask)
            loss = nm.sum_all(nm.mul(out, t(g)))   # upstream gradient g, exactly
        named = {"q": qt, "k": kt, "v": vt}
        grads = tape.backward(loss, named) if grad != "none" else {}
        runs.append((out.data, [grads.get(name) for name in named],
                     len(tape.nodes)))
    (fused, fused_grads, fused_nodes), (chain, chain_grads, _) = runs
    assert fused.dtype == chain.dtype and np.array_equal(fused, chain)
    for got, want in zip(fused_grads, chain_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape and np.array_equal(got, want)
    # q, k, v, the op, g, mul, sum_all when anything needs a gradient
    assert fused_nodes == (7 if grad != "none" else 0)


def test_attend_cached_prefill_and_steps_equal_one_causal_pass():
    rng = np.random.default_rng(83)
    n, p, d, heads = 7, 4, 12, 2
    q, k, v = (rng.normal(size=(1, n, d)).astype(np.float32) for _ in range(3))
    causal = np.triu(np.full((n, n), -1e9, dtype=np.float32), k=1)
    full = nm.attend(t(q), t(k), t(v), np.arange(n), heads, causal).data
    cache = nm.BlockCache(heads, n + 2, d // heads)
    parts = [nm.attend(t(q[:, :p]), t(k[:, :p]), t(v[:, :p]), np.arange(p), heads,
                       causal[:p, :p], cache).data]
    for j in range(p, n):
        parts.append(nm.attend(t(q[:, j:j + 1]), t(k[:, j:j + 1]), t(v[:, j:j + 1]),
                               np.array([j]), heads, None, cache).data)
    assert cache.length == n and (cache.k[:, n:] == 0).all() and (cache.v[:, n:] == 0).all()
    np.testing.assert_array_equal(parts[0], full[:, :p])    # same shapes, same calls
    for j, part in enumerate(parts[1:], start=p):
        assert part.shape == (1, 1, d)
        np.testing.assert_allclose(part[0, 0], full[0, j], rtol=1e-5, atol=1e-6)


def test_attend_cache_rejects_misfits_and_taped_inputs():
    heads, dh = 2, 6
    x = np.zeros((1, 2, heads * dh), np.float32)
    for arr, length in ((x, 3),                                      # past the end
                        (np.zeros((2, 1, heads * dh), np.float32), 0),  # row count
                        (x.astype(np.float64), 0)):                  # dtype
        cache = nm.BlockCache(heads, 4, dh)
        cache.length = length
        with pytest.raises(ShapeError):
            nm.attend(t(arr), t(arr), t(arr), np.arange(arr.shape[1]), heads, None, cache)
        assert cache.length == length and not cache.k.any()
    cache = nm.BlockCache(heads, 4, dh)
    with nm.Tape(), pytest.raises(NumericsError, match="no gradient"):
        nm.attend(t(x), t(x, rg=True), t(x), np.arange(2), heads, None, cache)
    with pytest.raises(ShapeError):      # heads that do not split the width
        nm.attend(t(x), t(x), t(x), np.arange(2), 5, None)
    with pytest.raises(ShapeError):      # a mask that does not cover every key
        nm.attend(t(x), t(x), t(x), np.arange(2), heads, np.zeros((2, 3), np.float32))


def test_attend_score_overflow_raises():
    x = np.full((1, 2, 4), 1e20, dtype=np.float32)
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        nm.attend(t(x), t(x), t(x), np.arange(2), 2, None)


def test_weighted_sum_rounds_float64_sum_once():
    rng = np.random.default_rng(61)
    xs = rng.uniform(0.5, 12.0, size=(5, 200)).astype(np.float32)
    ws = [0.5, 0.45, 0.4, 0.35, 0.3]
    got = nm.weighted_sum([t(x) for x in xs], ws).data
    # same terms in the same order, in float64, then one rounding
    expect = sum(w * x.astype(np.float64) for w, x in zip(ws, xs)).astype(np.float32)
    assert got.dtype == np.float32
    assert got.tobytes() == expect.tobytes()


def test_weighted_sum_unit_weight_returns_input_bits():
    for x in (np.float32(-0.0), np.float32(3.7), np.float32(1e-30)):
        out = nm.weighted_sum([t(np.float32(2.5)), t(x), t(np.float32(9.0))], [0.0, 1.0, 0.0])
        assert out.data.tobytes() == x.tobytes()


def test_weighted_sum_rejects_mismatched_inputs():
    with pytest.raises(ShapeError):
        nm.weighted_sum([t(np.zeros(2)), t(np.zeros(3))], [1.0, 1.0])
    with pytest.raises(ShapeError):
        nm.weighted_sum([t(np.zeros(2))], [1.0, 2.0])


# ---------------------------------------------------------------------------
# misc structural ops


def test_unfold_time_matches_manual_windows():
    x = np.arange(12, dtype=np.float32).reshape(6, 2)
    out = nm.unfold_time(t(x), kernel=4, stride=2, pad=1).data
    padded = np.vstack([np.zeros((1, 2), np.float32), x, np.zeros((1, 2), np.float32)])
    assert out.shape == (3, 8)
    for i in range(3):
        np.testing.assert_array_equal(out[i], padded[2 * i:2 * i + 4].reshape(-1))


def test_unfold_time_ceil_halving():
    # kernel 3 / stride 2 / pad 1 halves the time axis with ceiling rounding
    for T in (9, 10, 11, 40):
        x = t(np.zeros((T, 3), dtype=np.float32))
        out = nm.unfold_time(x, kernel=3, stride=2, pad=1)
        assert out.shape[0] == (T + 1) // 2


def test_tensor_immutable():
    x = t(np.ones(3))
    with pytest.raises(ValueError):
        x.data[0] = 5.0
