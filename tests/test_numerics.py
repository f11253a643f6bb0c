"""Tensor/autodiff tests: every derived value comes from an independent oracle."""

import itertools
import re
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest

from synthvc import nn
from synthvc import numerics as nm
from synthvc import optim
from synthvc import trainer as tr
from synthvc.encoders import sample_bucket
from synthvc.errors import (
    ConfigError,
    DegenerateBatchError,
    NumericsError,
    ShapeError,
)

from harness import (DeterminismError, KeyRowCache, attend, attention_chain, chain_trunk,
                     grad_check, mean_all, mlp_chain, mul, sum_all)


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
        loss = sum_all(mul(rows, w))
    g = tape.backward(loss, {"table": table})["table"]
    np.testing.assert_allclose(g[3], [11.0, 22.0])


def test_embedding_out_of_range():
    with pytest.raises(IndexError):
        nm.embedding_lookup(t(np.zeros((4, 2))), [4])


@pytest.mark.parametrize("bad", [-1, 4])
def test_embedding_single_id_range_test_raises_the_reductions_text(bad):
    """One id takes a single range test, many take min/max reductions; a bad
    id gets the same IndexError text either way, in every id shape."""
    table = t(np.zeros((4, 2)))
    texts = set()
    for ids in ([bad], bad, np.array([[bad]]), [0, bad], [bad, 3, 1]):
        with pytest.raises(IndexError) as err:
            nm.embedding_lookup(table, ids)
        texts.add(str(err.value))
    assert texts == {f"embedding_lookup: id {bad} out of range [0, 4)"}
    for good in (0, 3):
        assert nm.embedding_lookup(table, [good]).shape == (1, 2)


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_sum_gives_ones():
    x = nm.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    tape = nm.Tape()
    with tape:
        loss = sum_all(x)
    g = tape.backward(loss, {"x": x})["x"]
    np.testing.assert_array_equal(g, np.ones((2, 3), dtype=np.float32))


def test_backward_dot_with_self():
    x = nm.Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    tape = nm.Tape()
    with tape:
        loss = sum_all(mul(x, x))
    g = tape.backward(loss, {"x": x})["x"]
    np.testing.assert_allclose(g, 2.0 * x.data)


def test_backward_requires_scalar_loss():
    x = nm.Tensor(np.ones(3), requires_grad=True)
    tape = nm.Tape()
    with tape:
        y = mul(x, x)
    with pytest.raises(NumericsError):
        tape.backward(y, {"x": x})


def test_backward_off_tape_loss_rejected():
    tape = nm.Tape()
    x = nm.Tensor(np.ones(2), requires_grad=True)
    loss = sum_all(x)
    with pytest.raises(NumericsError):
        tape.backward(loss, {"x": x})


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(31)
    x = nm.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    w = nm.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    tape = nm.Tape()
    with tape:
        h = nm.silu(nm.matmul(x, w))
        loss = mean_all(mul(h, h))
    g1 = tape.backward(loss, {"x": x, "w": w})
    g2 = tape.backward(loss, {"x": x, "w": w})
    assert sorted(g1) == ["w", "x"]
    for k in g1:
        assert np.array_equal(g1[k], g2[k])


def _keep_every_grad_backward(tape, loss, params):
    """The backward loop before spent gradients were dropped, verbatim: every
    node's gradient stays in `grads` until the pass ends."""
    lid = tape._ids.get(id(loss))
    grads = {lid: np.ones((), dtype=loss.data.dtype)}
    for nid in range(lid, -1, -1):
        node = tape.nodes[nid]
        g = grads.get(nid)
        if g is None or node.vjp is None:
            continue
        for pid, contrib in zip(node.parents, node.vjp(g)):
            if contrib is None:
                continue
            prev = grads.get(pid)
            grads[pid] = contrib if prev is None else prev + contrib
    out = {}
    for name, p in params.items():
        g = grads.get(tape._ids.get(id(p)))
        if g is not None and p.requires_grad:
            out[name] = np.ascontiguousarray(g)
    return out


@pytest.fixture
def backward_checked(monkeypatch):
    """Every Tape.backward call also runs the reference loop on the same tape
    and asserts byte-equal gradients; the fixture is the list of checked
    calls' tape sizes."""
    real, checked = nm.Tape.backward, []

    def backward(tape, loss, params):
        got = real(tape, loss, params)
        want = _keep_every_grad_backward(tape, loss, params)
        assert sorted(got) == sorted(want) and got
        for name in want:
            assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes(), name
        checked.append(len(tape.nodes))
        return got

    monkeypatch.setattr(nm.Tape, "backward", backward)
    return checked


def test_backward_bitwise_equals_keep_every_grad_loop_on_vc_step(backward_checked,
                                                                 bare_context, default_plan):
    ctx = bare_context
    state = tr.TrainState(params=tr.init_pipeline_params(ctx, 7401),
                          opt=optim.Adam(lr=1e-3, warmup=10, clip=1.0))
    rng = np.random.default_rng(13)
    tr.vc_step(sample_bucket(ctx.buckets, rng, 3), state, ctx, default_plan, rng)
    assert len(backward_checked) == 1 and backward_checked[0] > 100


def test_backward_bitwise_equals_keep_every_grad_loop_on_fit_classifier(backward_checked):
    rng = np.random.default_rng(19)
    params = {}
    nn.init_linear(params, rng, "c1", 6, 12)
    nn.init_linear(params, rng, "c2", 12, 5)

    def sample():
        while True:
            yield (rng.normal(size=(4, 7, 6)).astype(np.float32),
                   rng.integers(0, 5, size=4 * 7))

    def logits(x):
        return nn.linear(params, "c2", nm.silu(nn.linear(params, "c1", x)))

    optim.fit_classifier(params, logits, sample(), steps=3, lr=1e-2, what="probe")
    assert len(backward_checked) == 3


def test_backward_drops_a_gradient_once_its_vjps_ran():
    x = nm.Tensor(np.ones(3), requires_grad=True)
    a, b, loss = nm.Tensor(np.ones(3)), nm.Tensor(np.ones(3)), nm.Tensor(np.float64(3.0))
    spent, alive_later = [], []

    def vjp_b(g):      # b -> a: remember the gradient b received
        spent.append(weakref.ref(g))
        return g * 3.0

    def vjp_a(g):      # a -> x: by now b's gradient has been propagated
        alive_later.append(spent[0]() is not None)
        return g * 2.0

    tape = nm.Tape()
    tape.record("a", [x], a, lambda g: (vjp_a(g),))
    tape.record("b", [a], b, lambda g: (vjp_b(g),))
    tape.record("loss", [b], loss, lambda g: (np.full(3, g),))
    for _ in range(2):     # the tape keeps its VJPs, so a second pass agrees
        grads = tape.backward(loss, {"x": x})
        np.testing.assert_array_equal(grads["x"], np.full(3, 6.0))
    assert alive_later == [False, False]


def test_backward_asks_each_op_node_once_on_vc_step(monkeypatch, bare_context, default_plan):
    """One backward over a vc_step tape runs each op node's VJP at most
    once, and each fused block half's exactly once: a node hands back every
    parent's gradient from one call."""
    real, counted = nm.Tape.backward, []

    def backward(tape, loss, params):
        ops = [node for node in tape.nodes if node.vjp is not None]
        calls = [0] * len(ops)
        for i, node in enumerate(ops):
            def vjp(g, i=i, inner=node.vjp):
                calls[i] += 1
                return inner(g)
            node.vjp = vjp
        got = real(tape, loss, params)
        counted.append([(node.op, n) for node, n in zip(ops, calls)])
        return got

    monkeypatch.setattr(nm.Tape, "backward", backward)
    ctx = bare_context
    state = tr.TrainState(params=tr.init_pipeline_params(ctx, 7401),
                          opt=optim.Adam(lr=1e-3, warmup=10, clip=1.0))
    rng = np.random.default_rng(13)
    tr.vc_step(sample_bucket(ctx.buckets, rng, 3), state, ctx, default_plan, rng)
    [ops] = counted
    assert max(n for _, n in ops) == 1
    fused = [n for op, n in ops if op in ("attention_residual", "mlp_residual")]
    assert len(fused) == 2 * ctx.lm_cfg.blocks and set(fused) == {1}


def test_backward_mlp_against_finite_differences():
    rng = np.random.default_rng(17)
    w1 = rng.normal(size=(5, 7)).astype(np.float32)
    w2 = rng.normal(size=(7, 1)).astype(np.float32)
    x0 = rng.normal(size=(2, 5)).astype(np.float32)

    def f(xt):
        h = nm.silu(nm.matmul(xt, nm.constant(w1, dtype=xt.dtype)))
        out = nm.matmul(h, nm.constant(w2, dtype=xt.dtype))
        return mean_all(out)

    assert grad_check(f, nm.Tensor(x0), step=1e-4) < 1e-3


def test_finite_guard_raises():
    big = t(np.array([1e30], dtype=np.float32))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError):
            mul(nm.scale(big, 1e30), nm.scale(big, 1e30))


def _layouts(values, dtype):
    """The 60 values as a contiguous 6 x 10 array, a strided view of a wider
    buffer and a transposed (Fortran-order) view."""
    contiguous = np.asarray(values, dtype=dtype).reshape(6, 10)
    wide = np.zeros((6, 20), dtype=dtype)
    wide[:, ::2] = contiguous
    return [contiguous, wide[:, ::2], np.ascontiguousarray(contiguous.T).T]


def _finite_check_raises(arr) -> bool:
    try:
        nm._finite_or_raise(arr, "probe")
    except NumericsError as e:
        assert "probe: non-finite values" in str(e)
        return True
    return False


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 29, 59])
def test_finite_check_raises_on_a_nonfinite_element(dtype, bad, where):
    values = np.linspace(-3.0, 3.0, 60)
    values[where] = bad
    for arr in _layouts(values, dtype):
        assert _finite_check_raises(arr)
    assert _finite_check_raises(np.array(bad, dtype=dtype))


@pytest.mark.parametrize("dtype, big", [(np.float32, 1e20), (np.float64, 1e200)])
def test_finite_check_passes_finite_values_whose_dot_overflows(dtype, big):
    values = np.linspace(-3.0, 3.0, 60)
    values[[0, 29, 59]] = big, -big, big
    for arr in _layouts(values, dtype) + [np.array(big, dtype=dtype)]:
        assert not np.isfinite(np.vdot(arr, arr))    # so the exact scan decides
        assert not _finite_check_raises(arr)
    for arr in (np.array(1.5, dtype=dtype), np.zeros(0, dtype=dtype),
                np.zeros((3, 0), dtype=dtype)):
        assert not _finite_check_raises(arr)


def test_finite_check_agrees_with_an_elementwise_scan():
    rng = np.random.default_rng(20261)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    for trial in range(600):
        dtype, top = ((np.float32, 30), (np.float64, 200))[trial % 2]
        shape = tuple(int(n) for n in rng.integers(0, 6, size=rng.integers(0, 4)))
        arr = rng.normal(scale=10.0 ** rng.integers(0, top), size=shape)
        if arr.size and rng.random() < 0.5:
            hits = rng.integers(0, arr.size, size=rng.integers(1, 3))
            arr.flat[hits] = rng.choice(specials, size=hits.size)
        arr = arr.astype(dtype)
        if arr.ndim == 2 and rng.random() < 0.5:
            arr = arr.T
        assert _finite_check_raises(arr) == (not np.isfinite(arr).all()), (trial, arr)


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_sum_of_squares():
    def f(xt):
        return sum_all(mul(xt, xt))

    err = grad_check(f, nm.Tensor(np.array([1.0, 2.0], dtype=np.float32)))
    assert err < 1e-8


def test_grad_check_softmax_ce_composite():
    rng = np.random.default_rng(77)
    x0 = rng.normal(size=(3, 6)).astype(np.float32)
    targets = [1, 5, 0]

    def f(xt):
        return nm.cross_entropy(xt, targets)

    assert grad_check(f, nm.Tensor(x0)) < 1e-3


def test_grad_check_rms_norm_composite():
    rng = np.random.default_rng(78)
    x0 = rng.normal(size=(2, 8)).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, size=8).astype(np.float32)

    def f(xt):
        out = nm.rms_norm(xt, nm.constant(gain, dtype=xt.dtype))
        return mean_all(mul(out, out))

    assert grad_check(f, nm.Tensor(x0)) < 1e-3


def test_grad_check_detects_nondeterminism():
    state = {"n": 0}

    def f(xt):
        state["n"] += 1
        return sum_all(nm.scale(xt, float(state["n"])))

    with pytest.raises(DeterminismError):
        grad_check(f, nm.Tensor(np.ones(2, dtype=np.float32)))


CAUSAL3 = np.triu(np.full((3, 3), -1e9, dtype=np.float32), k=1)


def _op_checks(seed):
    rng = np.random.default_rng(seed)
    x_mat = rng.normal(size=(3, 4)).astype(np.float32)
    w = rng.normal(size=(4, 3)).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, size=4).astype(np.float32)
    ids = rng.integers(0, 3, size=5)
    targets = rng.integers(0, 4, size=3)
    b3 = rng.normal(size=(2, 3, 4)).astype(np.float32)
    sq4 = rng.normal(size=(4, 4, 4)).astype(np.float32)
    checks = {
        "add": lambda xt: sum_all(mul(nm.add(xt, nm.constant(w.T, dtype=xt.dtype)), xt)),
        "mul": lambda xt: sum_all(mul(mul(xt, nm.constant(w.T, dtype=xt.dtype)), xt)),
        "scale": lambda xt: sum_all(nm.scale(xt, 2.5)),
        "matmul": lambda xt: mean_all(nm.matmul(xt, nm.constant(w, dtype=xt.dtype))),
        "affine": lambda xt: mean_all(mul(
            nm.affine(nm.reshape(xt, (3, 1, 4)), nm.constant(w, dtype=xt.dtype),
                      nm.constant(gain[:3], dtype=xt.dtype)),
            nm.constant(w[:3, None, :], dtype=xt.dtype))),
        "affine_wb": lambda xt: sum_all(mul(
            nm.affine(nm.constant(b3[:, :, :3], dtype=xt.dtype), xt,
                      nm.reshape(nm.narrow(xt, 0, 0, 1), (4,))), nm.constant(b3, dtype=xt.dtype))),
        "matmul_b": lambda xt: mean_all(
            nm.matmul(nm.reshape(xt, (1, 3, 4)), nm.constant(b3.transpose(0, 2, 1)[:1], dtype=xt.dtype))),
        "transpose": lambda xt: sum_all(mul(nm.transpose(xt, (1, 0)), nm.constant(w, dtype=xt.dtype))),
        "reshape": lambda xt: sum_all(mul(nm.reshape(xt, (2, 6)), nm.reshape(xt, (2, 6)))),
        "concat": lambda xt: sum_all(mul(nm.concat([xt, xt], axis=0), nm.concat([xt, xt], axis=0))),
        "narrow": lambda xt: sum_all(mul(nm.narrow(xt, 1, 1, 3), nm.narrow(xt, 1, 0, 2))),
        "softmax": lambda xt: mean_all(mul(nm.softmax(xt), nm.constant(w.T, dtype=xt.dtype))),
        "cross_entropy": lambda xt: nm.cross_entropy(xt, targets),
        "rms_norm": lambda xt: mean_all(mul(nm.rms_norm(xt, nm.constant(gain, dtype=xt.dtype)), xt)),
        "rope_apply": lambda xt: sum_all(mul(nm.rope_apply(xt, [2, 5, 9]), xt)),
        "embedding_lookup": lambda xt: mean_all(mul(nm.embedding_lookup(xt, ids),
                                                    nm.embedding_lookup(xt, ids))),
        "silu": lambda xt: mean_all(nm.silu(xt)),
        "sum_all": lambda xt: sum_all(xt),
        "mean_all": lambda xt: mean_all(xt),
        "mean_axis": lambda xt: sum_all(mul(nm.mean_axis(xt, 0), nm.constant(gain[None, :], dtype=xt.dtype))),
        "weighted_sum": lambda xt: sum_all(mul(nm.weighted_sum(
            [xt, mul(xt, xt), nm.silu(xt), nm.constant(w.T, dtype=xt.dtype)],
            [0.7, -1.3, 0.0, 2.0]), xt)),
        "unfold_time": lambda xt: mean_all(mul(
            nm.unfold_time(nm.reshape(xt, (1, 3, 4)), 2, 2, 1),
            nm.unfold_time(nm.reshape(xt, (1, 3, 4)), 2, 2, 1))),
        # the (kernel, stride, pad) triples src/ uses: the encoders, the oracle
        # verifier and the oracle transcriber; T = 3 pads the last window
        "unfold_time_3_2_1": lambda xt: mean_all(mul(
            nm.unfold_time(nm.reshape(xt, (2, 3, 2)), 3, 2, 1),
            nm.unfold_time(nm.reshape(nm.scale(xt, 0.5), (2, 3, 2)), 3, 2, 1))),
        "unfold_time_5_2_2": lambda xt: mean_all(mul(
            nm.unfold_time(nm.reshape(xt, (1, 3, 4)), 5, 2, 2),
            nm.unfold_time(nm.reshape(nm.scale(xt, 0.5), (1, 3, 4)), 5, 2, 2))),
        "unfold_time_3_1_1": lambda xt: mean_all(mul(
            nm.unfold_time(nm.reshape(xt, (1, 6, 2)), 3, 1, 1),
            nm.unfold_time(nm.reshape(nm.scale(xt, 0.5), (1, 6, 2)), 3, 1, 1))),
        "attend": lambda xt: mean_all(mul(attend(
            nm.reshape(xt, (1, 3, 4)),
            mul(nm.reshape(xt, (1, 3, 4)), nm.constant(b3[:1], dtype=xt.dtype)),
            nm.add(nm.reshape(xt, (1, 3, 4)), nm.constant(b3[1:], dtype=xt.dtype)),
            [2, 5, 9], 2, CAUSAL3), nm.constant(b3[:1] + 1.0, dtype=xt.dtype))),
        # x, every gain, weight and bias a function of xt, so each input
        # gradient of the fused op reaches the check
        "attention_residual": lambda xt: mean_all(mul(nm.attention_residual(
            nm.reshape(xt, (1, 3, 4)), _row(xt, 0), *(_pair(xt, sq4[i], i) for i in range(4)),
            [2, 5, 9], 2, CAUSAL3), nm.constant(b3[:1] + 1.0, dtype=xt.dtype))),
        "mlp_residual": lambda xt: mean_all(mul(nm.mlp_residual(
            nm.reshape(xt, (1, 3, 4)), _row(xt, 2), _pair(xt, sq4[0], 1), _pair(xt, sq4[1], 2)),
            nm.constant(b3[1:] - 0.5, dtype=xt.dtype))),
    }
    return x_mat, checks


def _row(xt, i):
    """Row i of the (3, 4) check input, as a (4,) gain or bias."""
    return nm.reshape(nm.narrow(xt, 0, i, i + 1), (4,))


def _pair(xt, w, i):
    """A (4, 4) weight, the rows of xt over row i of xt plus w, and a bias,
    row (i + 1) % 3 of xt: an affine map whose every entry depends on xt."""
    rows = nm.concat([xt, nm.narrow(xt, 0, i % 3, i % 3 + 1)], axis=0)
    return nm.add(rows, nm.constant(w, dtype=xt.dtype)), _row(xt, (i + 1) % 3)


@pytest.mark.parametrize("seed", range(10))
def test_every_differentiable_op_grad_checks(seed):
    x_mat, checks = _op_checks(seed)
    for name, f in checks.items():
        err = grad_check(f, nm.Tensor(x_mat), step=1e-4)
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
            loss = sum_all(mul(out, t(g)))   # upstream gradient g, exactly
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
    for f in (attend, _attention_chain):
        qt, kt, vt = (t(x, rg=name in grad) for x, name in ((q, "q"), (k, "k"), (v, "v")))
        tape = nm.Tape()
        with tape:
            out = f(qt, kt, vt, positions, heads, mask)
            loss = sum_all(mul(out, t(g)))   # upstream gradient g, exactly
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


def _cached_attend(q, k, v, positions, heads, mask, cache):
    """`nm._attend_cached_fwd` at `positions`, with their RoPE tables."""
    cos, sin = nm._rope_tables(positions, q.shape[-1] // heads, q.dtype, 3)
    out, back = nm._attend_cached_fwd(q, k, v, cos, sin, heads, mask, cache)
    assert back is None
    return out


def test_attend_cached_prefill_and_steps_equal_one_causal_pass():
    rng = np.random.default_rng(83)
    n, p, d, heads = 7, 4, 12, 2
    q, k, v = (rng.normal(size=(1, n, d)).astype(np.float32) for _ in range(3))
    causal = np.triu(np.full((n, n), -1e9, dtype=np.float32), k=1)
    full = attend(t(q), t(k), t(v), np.arange(n), heads, causal).data
    cache = nm.BlockCache(heads, n + 2, d // heads)
    parts = [_cached_attend(q[:, :p], k[:, :p], v[:, :p], np.arange(p), heads, causal[:p, :p],
                            cache)]
    for j in range(p, n):
        parts.append(_cached_attend(q[:, j:j + 1], k[:, j:j + 1], v[:, j:j + 1],
                                    np.array([j]), heads, None, cache))
    assert cache.k.shape == (heads, d // heads, n + 2)     # keys transposed
    assert cache.length == n and (cache.k[:, :, n:] == 0).all() and (cache.v[:, n:] == 0).all()
    keys = np.concatenate([q, k], axis=-1).reshape(n, 2 * heads, d // heads)
    keys = nm.rope_apply(t(keys), np.arange(n)).data[:, heads:]
    assert _same_bits(cache.k[:, :, :n], keys.transpose(1, 2, 0))
    np.testing.assert_array_equal(parts[0], full[:, :p])    # same shapes, same calls
    for j, part in enumerate(parts[1:], start=p):
        assert part.shape == (1, 1, d)
        np.testing.assert_allclose(part[0, 0], full[0, j], rtol=1e-5, atol=1e-6)


def test_attend_and_cached_attend_reject_misfits():
    heads, dh = 2, 6
    x = np.zeros((1, 2, heads * dh), np.float32)
    for arr, length in ((x, 3),                                      # past the end
                        (np.zeros((2, 1, heads * dh), np.float32), 0),  # row count
                        (x.astype(np.float64), 0)):                  # dtype
        cache = nm.BlockCache(heads, 4, dh)
        cache.length = length
        with pytest.raises(ShapeError):
            _cached_attend(arr, arr, arr, np.arange(arr.shape[1]), heads, None, cache)
        assert cache.k.shape == (heads, dh, 4)
        assert cache.length == length and not cache.k.any() and not cache.v.any()
    for positions in (np.arange(1), np.arange(3)):   # not one position per row
        cache = nm.BlockCache(heads, 4, dh)
        with pytest.raises(ShapeError, match="positions"):
            _cached_attend(x, x, x, positions, heads, None, cache)
        assert cache.length == 0 and not cache.k.any() and not cache.v.any()
    cache = nm.BlockCache(heads, 4, dh)
    with pytest.raises(ShapeError):      # a mask that does not cover every cached key
        _cached_attend(x, x, x, np.arange(2), heads, np.zeros((2, 3), np.float32), cache)
    assert cache.length == 0 and not cache.k.any() and not cache.v.any()
    with pytest.raises(ShapeError):      # heads that do not split the width
        attend(t(x), t(x), t(x), np.arange(2), 5, None)
    with pytest.raises(ShapeError):      # a mask that does not cover every key
        attend(t(x), t(x), t(x), np.arange(2), heads, np.zeros((2, 3), np.float32))


def test_attend_score_overflow_raises():
    x = np.full((1, 2, 4), 1e20, dtype=np.float32)
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        attend(t(x), t(x), t(x), np.arange(2), 2, None)


# (dim, heads, intermediate): the LM's default block and the semantic encoder's
BLOCK_SHAPES = [(64, 4, 256), (48, 4, 96)]


def _half_inputs(rng, dim, inter, half):
    """A fused op's array inputs in its parent order: x (2, 5, dim), a gain,
    then (weight, bias) for q, k, v and o, or for up and down."""
    dims = [(dim, dim)] * 4 if half == "attention" else [(dim, inter), (inter, dim)]
    arrays = [rng.normal(size=(2, 5, dim)), rng.uniform(0.5, 1.5, size=dim)]
    for d_in, d_out in dims:
        arrays += [rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out)),
                   rng.normal(0.0, 0.1, size=d_out)]
    return [a.astype(np.float32) for a in arrays]


def _call_half(f, half, ts, heads=4, positions=None, mask="causal", *extra):
    """f over tensors in `_half_inputs` order, then `extra`; the attention
    half at positions 3, 4, ... under a causal mask unless given others."""
    x, gain, *flat = ts
    pairs = [tuple(flat[i:i + 2]) for i in range(0, len(flat), 2)]
    if half == "mlp":
        return f(x, gain, *pairs)
    t_len = x.shape[1]
    positions = np.arange(3, 3 + t_len) if positions is None else positions
    mask = nn.causal_mask(t_len) if mask == "causal" else mask
    return f(x, gain, *pairs, positions, heads, mask, *extra)


@pytest.mark.parametrize("dim,heads,inter", BLOCK_SHAPES)
@pytest.mark.parametrize("half", ["attention", "mlp"])
def test_fused_half_bitwise_equals_unfused_chain_for_every_gradient_subset(dim, heads, inter,
                                                                          half):
    """The forward and every input gradient of `attention_residual` and
    `mlp_residual` equal the chain's bit for bit, whichever subset of the
    inputs needs a gradient; the fused op is one taped node."""
    fused, chain = {"attention": (nm.attention_residual, attention_chain),
                    "mlp": (nm.mlp_residual, mlp_chain)}[half]
    rng = np.random.default_rng(dim + inter)
    arrays = _half_inputs(rng, dim, inter, half)
    g = rng.normal(size=arrays[0].shape).astype(np.float32)
    want_out = _call_half(chain, half, [t(a) for a in arrays], heads).data
    for subset in itertools.product((False, True), repeat=len(arrays)):
        runs = []
        for f in (fused, chain):
            ts = [t(a, rg=rg) for a, rg in zip(arrays, subset)]
            tape = nm.Tape()
            with tape:
                out = _call_half(f, half, ts, heads)
                loss = sum_all(mul(out, t(g)))   # upstream gradient g, exactly
            grads = tape.backward(loss, {str(i): x for i, x in enumerate(ts)}) if any(subset) \
                else {}
            runs.append((out.data, [grads.get(str(i)) for i in range(len(ts))],
                         sum(node.op == fused.__name__ for node in tape.nodes)))
        (out, grads, nodes), (chain_out, chain_grads, _) = runs
        assert _same_bits(out, want_out) and _same_bits(chain_out, want_out)
        assert nodes == any(subset)
        for i, (got, want) in enumerate(zip(grads, chain_grads)):
            assert (got is None) == (want is None) == (not subset[i]), (subset, i)
            assert got is None or _same_bits(got, want), (subset, i)


def _cached_attention_half(x, gain, q, k, v, o, positions, heads, mask, cache):
    """The output array of `nm._attention_residual_fwd` over tensors, as a
    decode runs it: with `nm._attend_cached_fwd` and `positions`' tables."""
    cos, sin = nm._rope_tables(positions, x.shape[-1] // heads, x.dtype, 3)
    out, _ = nm._attention_residual_fwd(x.data, gain.data,
                                        *((w.data, b.data) for w, b in (q, k, v, o)),
                                        nm._attend_cached_fwd, cos, sin, heads, mask, cache)
    return out


@pytest.mark.parametrize("dim,heads,inter", BLOCK_SHAPES)
def test_attention_residual_cached_prefill_and_columns_equal_the_chain(dim, heads, inter):
    """A cached prefill and then single columns, as a decode runs them
    through `attention_residual`'s kernel: each output and the cache's keys
    and values equal the chain's bit for bit, the chain taking the cached
    route through the public ops (`harness.cached_attend`) over
    untransposed keys."""
    rng = np.random.default_rng(dim)
    arrays = _half_inputs(rng, dim, inter, "attention")
    x = rng.normal(size=(1, 9, dim)).astype(np.float32)
    p = 4
    runs = []
    for f, cache in ((_cached_attention_half, nm.BlockCache(heads, 12, dim // heads)),
                     (attention_chain, KeyRowCache(heads, 12, dim // heads))):
        ts = [t(a) for a in arrays]
        outs = [_call_half(f, "attention", [t(x[:, :p])] + ts[1:], heads, np.arange(p),
                           "causal", cache)]
        for j in range(p, x.shape[1]):
            outs.append(_call_half(f, "attention", [t(x[:, j:j + 1])] + ts[1:], heads,
                                   np.array([j]), None, cache))
        runs.append((cache, [getattr(o, "data", o) for o in outs]))
    (fused, outs), (chain, chain_outs) = runs
    assert fused.length == chain.length == x.shape[1]
    assert _same_bits(fused.k, chain.k.transpose(0, 2, 1)) and _same_bits(fused.v, chain.v)
    for got, want in zip(outs, chain_outs):
        assert _same_bits(got, want)


def test_trunk_bitwise_equals_the_unfused_chain_blocks():
    """`nn.trunk` at the LM's default shapes wires every block parameter to
    its place: the output and the gradient of x and of every parameter equal
    those of the chain-built trunk bit for bit."""
    rng = np.random.default_rng(29)
    params = {}
    nn.init_trunk(params, rng, "lm", 64, 256, 2)
    for name, p in params.items():    # no gain of exactly one, no zero bias
        params[name] = t(p.data + rng.normal(0.0, 0.05, size=p.shape).astype(np.float32),
                         rg=True)
    x = t(rng.normal(size=(3, 6, 64)).astype(np.float32), rg=True)
    g = rng.normal(size=(3, 6, 64)).astype(np.float32)
    runs = []
    for f in (lambda *a: nn.trunk(params, "lm", *a), lambda *a: chain_trunk(params, "lm", *a)):
        tape = nm.Tape()
        with tape:
            out = f(x, np.arange(6), 4, 2, nn.causal_mask(6))
            loss = sum_all(mul(out, t(g)))
        runs.append((out.data, tape.backward(loss, {"x": x, **params})))
    (out, grads), (chain_out, chain_grads) = runs
    assert _same_bits(out, chain_out)
    assert sorted(grads) == sorted(chain_grads) == sorted(["x", *params])
    for name in grads:
        assert _same_bits(grads[name], chain_grads[name]), name


def test_fused_halves_check_every_intermediate():
    """A non-finite value made anywhere inside either half raises, as the
    op that made it in the chain raised, both in the taped op and in its
    kernel as a decode runs it, which leaves the cache as it was."""
    rng = np.random.default_rng(3)
    dim, inter = 8, 12
    for half, f in (("attention", nm.attention_residual), ("mlp", nm.mlp_residual)):
        base = _half_inputs(rng, dim, inter, half)
        for i in range(2, len(base), 2):    # one huge weight: that projection overflows
            arrays = list(base)
            arrays[i] = np.full_like(arrays[i], 3e38)
            cache = nm.BlockCache(2 * 4, 8, dim // 4)
            runs = [(f, ())] + ([(_cached_attention_half, (cache,))] if half == "attention"
                                else [])
            for g, extra in runs:
                with np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(NumericsError, match=f"{f.__name__}: non-finite"):
                    _call_half(g, half, [t(a) for a in arrays], 4, None, None, *extra)
            if half == "attention" and i < 8:     # q, k or v failed before the append
                assert cache.length == 0


def test_every_taped_op_in_numerics_has_a_grad_check():
    """Each op numerics.py tapes, by the name its `_apply` or `_record` call
    gives it, is a key of `_op_checks`, or the start of one followed by `_`."""
    source = Path(nm.__file__).read_text(encoding="utf-8")
    ops = set(re.findall(r'_(?:apply|record)\(\s*"([^"]+)"', source))
    keys = set(_op_checks(0)[1])
    assert {"add", "affine", "attention_residual", "mlp_residual", "unfold_time"} <= ops
    missing = sorted(op for op in ops
                     if op not in keys and not any(k.startswith(op + "_") for k in keys))
    assert missing == []


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
    out = nm.unfold_time(t(x[None]), kernel=4, stride=2, pad=1).data
    padded = np.vstack([np.zeros((1, 2), np.float32), x, np.zeros((1, 2), np.float32)])
    assert out.shape == (1, 3, 8)
    for i in range(3):
        np.testing.assert_array_equal(out[0, i], padded[2 * i:2 * i + 4].reshape(-1))


def test_unfold_time_ceil_halving():
    # kernel 3 / stride 2 / pad 1 halves the time axis with ceiling rounding
    for T in (9, 10, 11, 40):
        x = t(np.zeros((1, T, 3), dtype=np.float32))
        out = nm.unfold_time(x, kernel=3, stride=2, pad=1)
        assert out.shape[1] == (T + 1) // 2


# ---------------------------------------------------------------------------
# bit identity with the formulas the faster kernels replaced: each reference
# below is the replaced code, verbatim


def _same_bits(got, want):
    """Equal dtype, shape and bytes, so -0.0 and +0.0 differ."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _forward_and_grads(f, inputs, g):
    """f's output and the gradient of sum(f(...) * g) for each input."""
    ts = [t(x, rg=True) for x in inputs]
    tape = nm.Tape()
    with tape:
        out = f(*ts)
        loss = sum_all(mul(out, t(g)))   # upstream gradient g, exactly
    grads = tape.backward(loss, {str(i): x for i, x in enumerate(ts)})
    return out.data, [grads[str(i)] for i in range(len(ts))]


def _silu_formula(x, g):
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    out = x * sig
    return out, g * sig * (1.0 + x * (1.0 - sig))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_bitwise_equals_where_formula(dtype):
    rng = np.random.default_rng(5)
    # -90: subnormal e in float32; -110: e = 0 in float32; -740 and -750 the
    # same in float64
    edge = [0.0, -0.0, -90.0, -110.0, 1e4, -1e4, -740.0, -750.0, 1e-30, -1e-30]
    x = np.concatenate([edge, rng.normal(scale=4.0, size=190)]).astype(dtype).reshape(4, 5, 10)
    g = rng.normal(size=x.shape).astype(dtype)
    out, (gx,) = _forward_and_grads(nm.silu, [x], g)
    want_out, want_gx = _silu_formula(x, g)
    assert _same_bits(out, want_out) and _same_bits(gx, want_gx)


def _rms_norm_formula(arr, gn, g):
    d = arr.shape[-1]
    ms = np.mean(arr.astype(np.float64) ** 2, axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + nm.RMS_NORM_EPS)).astype(arr.dtype)
    out = arr * inv * gn
    gp = g * gn
    dot = (gp * arr).sum(axis=-1, keepdims=True)
    gx = gp * inv - arr * (inv ** 3) * (dot / d)
    prod = g * arr * inv
    return out, gx, prod.reshape(-1, d).sum(axis=0)


@pytest.mark.parametrize("shape", [(4, 6), (2, 5, 256), (3, 7, 33), (1, 1, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rms_norm_bitwise_equals_mean_formula(shape, dtype):
    rng = np.random.default_rng(shape[-1])
    x = (rng.normal(size=shape) * rng.uniform(0.01, 100.0, size=shape[:-1] + (1,))).astype(dtype)
    gain = rng.uniform(0.5, 1.5, size=shape[-1]).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    out, (gx, gg) = _forward_and_grads(nm.rms_norm, [x, gain], g)
    for got, want in zip((out, gx, gg), _rms_norm_formula(x, gain, g)):
        assert _same_bits(got, want)


def _softmax_formula(x, g):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out * (g - (g * out).sum(axis=-1, keepdims=True))


def test_softmax_bitwise_equals_formula_over_causal_mask():
    rng = np.random.default_rng(8)
    n = 37
    mask = np.triu(np.full((n, n), -1e9, dtype=np.float32), k=1)
    x = (rng.normal(scale=3.0, size=(4, n, n)).astype(np.float32) + mask)
    g = rng.normal(size=x.shape).astype(np.float32)
    out, (gx,) = _forward_and_grads(nm.softmax, [x], g)
    want_out, want_gx = _softmax_formula(x, g)
    assert _same_bits(out, want_out) and _same_bits(gx, want_gx)


def _rope_tables_formula(positions, d, dtype, ndim):
    pos = np.asarray(positions, dtype=np.float64)
    half = d // 2
    freqs = nm.ROPE_BASE ** (-(2.0 * np.arange(half, dtype=np.float64)) / d)
    ang = pos[:, None] * freqs[None, :]
    bshape = (pos.shape[0],) + (1,) * (ndim - 2) + (half,)
    return (np.cos(ang).astype(dtype).reshape(bshape),
            np.sin(ang).astype(dtype).reshape(bshape))


def _rope_formula(arr, positions, g):
    cos, sin = _rope_tables_formula(positions, arr.shape[-1], arr.dtype, arr.ndim)
    xe, xo = arr[..., 0::2], arr[..., 1::2]
    out = np.empty_like(arr)
    out[..., 0::2] = xe * cos - xo * sin
    out[..., 1::2] = xe * sin + xo * cos
    ge, go = g[..., 0::2], g[..., 1::2]
    gx = np.empty_like(g)
    gx[..., 0::2] = ge * cos + go * sin
    gx[..., 1::2] = -ge * sin + go * cos
    return out, gx


@pytest.mark.parametrize("shape", [(5, 8), (6, 3, 10)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_bitwise_equals_formula(shape, dtype):
    rng = np.random.default_rng(shape[-1])
    x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    positions = rng.integers(0, 500, size=shape[0])
    out, (gx,) = _forward_and_grads(lambda xt: nm.rope_apply(xt, positions), [x], g)
    want_out, want_gx = _rope_formula(x, positions, g)
    assert _same_bits(out, want_out) and _same_bits(gx, want_gx)


@pytest.mark.parametrize("positions", [[0], [37], np.arange(25), np.arange(3, 9)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_rope_broadcast_over_the_batch_equals_the_formula_signed_zeros_included(
        positions, dtype):
    """The cached path's RoPE, at a decode column's width 1 and at a
    prefill's width, rotates (B, t, 2 * heads, dh) stacked q and k heads with
    (t, 1, dh / 2) tables broadcast over B rather than tiled positions; it
    equals the formula bit for bit. Zero inputs and position 0's zero sines
    make signed zeros, which must come out the same."""
    rng = np.random.default_rng(len(positions))
    b, heads, dh = 2, 4, 16
    x = rng.normal(size=(b, len(positions), 2 * heads, dh)).astype(dtype)
    x[..., ::3] = 0.0
    x[..., 1::5] = -0.0
    cos, sin = nm._rope_tables(positions, dh, dtype, 3)
    got = nm._rope_fwd(x, cos, sin)
    flat = x.reshape(-1, 2 * heads, dh)
    want, _ = _rope_formula(flat, np.tile(positions, b), flat)
    assert _same_bits(got, want.reshape(x.shape))
    assert np.signbit(got[got == 0]).any() and not np.signbit(got[got == 0]).all()


def test_rope_tables_are_cached_read_only_and_equal_a_fresh_build():
    positions = np.tile(np.arange(3, 10), 2)
    first = nm._rope_tables(positions, 12, np.float32, 3)
    again = nm._rope_tables(positions, 12, np.float32, 3)
    as_list = nm._rope_tables(positions.tolist(), 12, np.float32, 3)
    assert all(a is b for a, b in zip(first, again))
    assert all(a is b for a, b in zip(first, as_list))
    for got, want in zip(first, _rope_tables_formula(positions, 12, np.float32, 3)):
        assert _same_bits(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    wide = nm._rope_tables(positions, 12, np.float64, 3)
    assert wide[0].dtype == np.float64 and not np.array_equal(wide[0], first[0].astype(np.float64))
    assert nm._rope_tables(positions, 12, np.float32, 2)[0].shape == (14, 6)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 2, 6)).astype(np.float32)
    assert _same_bits(nm.rope_apply(t(x), [7, 1, 0, 30]).data,
                      nm.rope_apply(t(x), np.array([7, 1, 0, 30])).data)


def _unfold_vjp_formula(g, b, t_len, f, kernel, stride, pad):
    tp = t_len + 2 * pad
    n_out = (tp - kernel) // stride + 1
    idx = np.arange(n_out)[:, None] * stride + np.arange(kernel)[None, :]
    g4 = g.reshape(b, n_out, kernel, f)
    gp = np.zeros((b, tp, f), dtype=g.dtype)
    np.add.at(gp, (slice(None), idx), g4)
    return np.ascontiguousarray(gp[:, pad:pad + t_len])


def _embedding_vjp_formula(g, ids, shape):
    gt = np.zeros(shape, dtype=g.dtype)
    np.add.at(gt, ids.reshape(-1), g.reshape(-1, shape[1]))
    return gt


def test_embedding_vjp_bitwise_equals_row_add_at():
    rng = np.random.default_rng(97)
    for trial in range(300):
        dtype = (np.float32, np.float64)[trial % 2]
        v, d = int(rng.integers(1, 50)), int(rng.integers(1, 65))
        n = int(rng.integers(0, 601))
        ids = rng.integers(0, v, size=n)
        ids[rng.random(n) < 0.4] = 0   # a heavily repeated PAD row
        g = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=(n, d))
        g[rng.random((n, d)) < 0.05] = -0.0
        g[rng.random((n, d)) < 0.05] = np.finfo(dtype).smallest_subnormal
        g = g.astype(dtype)
        table = rng.normal(size=(v, d)).astype(dtype)
        shape_ids = ids.reshape(2, -1) if n % 2 == 0 and n else ids
        _, (gt,) = _forward_and_grads(lambda tt: nm.embedding_lookup(tt, shape_ids), [table],
                                      g.reshape(*shape_ids.shape, d))
        assert _same_bits(gt, _embedding_vjp_formula(g, ids, (v, d)))


@pytest.mark.parametrize("kernel,stride,pad", [(3, 2, 1), (5, 2, 2), (3, 1, 1), (2, 2, 1)])
@pytest.mark.parametrize("t_len", [9, 12])
def test_unfold_time_vjp_bitwise_equals_add_at(kernel, stride, pad, t_len):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + t_len)
    b, f = 3, 5
    x = rng.normal(size=(b, t_len, f)).astype(np.float32)
    n_out = (t_len + 2 * pad - kernel) // stride + 1
    # mixed magnitudes, so the order in which overlapping windows add shows
    g = (rng.normal(size=(b, n_out, kernel * f))
         * 10.0 ** rng.integers(-4, 5, size=(b, n_out, kernel * f))).astype(np.float32)
    _, (gx,) = _forward_and_grads(lambda xt: nm.unfold_time(xt, kernel, stride, pad), [x], g)
    assert _same_bits(gx, _unfold_vjp_formula(g, b, t_len, f, kernel, stride, pad))


def test_tensor_immutable():
    x = t(np.ones(3))
    # an op's fresh output, and a view of a read-only base, come back read-only too
    for y in (x, nm.scale(x, 2.0), nm.reshape(x, (3, 1))):
        with pytest.raises(ValueError):
            y.data[0] = 5.0
