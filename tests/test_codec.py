"""RVQ codec: fitting, residual monotonicity, artifact round trip, and the
bound-pruned kernels pinned bit for bit to the dense formulas they replace."""

import tracemalloc

import numpy as np
import pytest

from synthvc import codec as cd
from synthvc import synthworld as sw
from synthvc.errors import ArtifactFormatError, DataError, StateError

from harness import render_one, spy_renders


@pytest.fixture(scope="module")
def small_codec():
    rng = np.random.default_rng(4)
    frames = rng.normal(scale=1.5, size=(600, 16)).astype(np.float32)
    return frames, cd.fit_codebooks(frames, n=3, k=16, iters=10, seed=5)


def test_fit_exact_cover_zero_distortion():
    # corpus of exactly K distinct repeated frames: layer 0 nails it
    rng = np.random.default_rng(9)
    pts = rng.normal(scale=2.0, size=(15, 4)).astype(np.float32)
    frames = np.repeat(pts, 20, axis=0)
    codec = cd.fit_codebooks(frames, n=2, k=16, iters=30, seed=1)
    residual = frames - codec.codebooks[0].centroids[cd.encode(frames, codec)[0]]
    assert np.mean(np.sum(residual.astype(np.float64) ** 2, axis=1)) < 1e-6


def test_fit_recovers_two_gaussian_clusters():
    rng = np.random.default_rng(12)
    mu_a, mu_b = np.full(4, 3.0), np.full(4, -3.0)
    pts = np.vstack([
        rng.normal(mu_a, 0.05, size=(300, 4)),
        rng.normal(mu_b, 0.05, size=(300, 4)),
    ]).astype(np.float32)
    codec = cd.fit_codebooks(pts, n=1, k=3, iters=30, seed=2)  # zero + 2 effective
    cents = codec.codebooks[0].centroids[1:]
    sample_means = [pts[:300].mean(axis=0), pts[300:].mean(axis=0)]
    for mu in sample_means:
        assert min(np.linalg.norm(cents - mu, axis=1)) < 0.05


def test_fit_rejects_small_corpus():
    with pytest.raises(DataError):
        cd.fit_codebooks(np.zeros((10, 4), dtype=np.float32), n=1, k=16, iters=5, seed=0)


def test_fit_reproducible_bitwise():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(300, 8)).astype(np.float32)
    a = cd.fit_codebooks(frames, n=2, k=8, iters=8, seed=77)
    b = cd.fit_codebooks(frames, n=2, k=8, iters=8, seed=77)
    for ba, bb in zip(a.codebooks, b.codebooks):
        assert np.array_equal(ba.centroids, bb.centroids)
    assert a.fit_snr_db == b.fit_snr_db


def test_encode_centroid_frame_zero_deeper_codes(small_codec):
    _, codec = small_codec
    frame = codec.codebooks[0].centroids[7][None, :]
    codes = cd.encode(frame, codec)
    assert codes[0, 0] == 7
    assert (codes[1:, 0] == 0).all()


def test_encode_zero_frame_all_zero_codes(small_codec):
    _, codec = small_codec
    codes = cd.encode(np.zeros((3, 16), dtype=np.float32), codec)
    assert (codes == 0).all()


def test_encode_residual_monotonic_exhaustive(small_codec):
    frames, codec = small_codec
    rng = np.random.default_rng(6)
    probe = rng.normal(scale=2.0, size=(500, 16)).astype(np.float32)
    residual = probe.astype(np.float64).copy()
    prev = np.linalg.norm(residual, axis=1)
    codes = cd.encode(probe, codec)
    for layer, book in enumerate(codec.codebooks):
        residual -= book.centroids.astype(np.float64)[codes[layer]]
        cur = np.linalg.norm(residual, axis=1)
        assert np.all(cur <= prev)
        prev = cur


def test_encode_deterministic(small_codec):
    frames, codec = small_codec
    a = cd.encode(frames[:50], codec)
    b = cd.encode(frames[:50], codec)
    assert np.array_equal(a, b)


def test_codebook_tables_derived_once_equal_the_per_call_formula(small_codec):
    """Each frozen codebook's float64 centroids, squared row norms and
    largest norm, derived once, are read-only and equal what `encode` and
    `decode` derived on every call; the codes and frames are those of the
    per-call form."""
    frames, codec = small_codec
    frames = np.concatenate([frames, frames[:40] * 3.0, np.zeros((3, 16), np.float32)])
    residual = frames.astype(np.float64)
    rows, out = [], np.zeros(frames.shape)
    for book in codec.codebooks:
        cents = book.centroids.astype(np.float64)
        cnorms = np.sum(cents ** 2, axis=1)
        assert book.cents64.dtype == np.float64 and book.cents64.tobytes() == cents.tobytes()
        assert book.cnorms.tobytes() == cnorms.tobytes() and book.cmax == cnorms.max()
        assert not book.cents64.flags.writeable and not book.cnorms.flags.writeable
        labels = _assign(residual, cents)
        residual -= cents[labels]
        rows.append(labels)
    codes = cd.encode(frames, codec)
    assert np.array_equal(codes, np.stack(rows))
    for layer, book in enumerate(codec.codebooks):
        out += book.centroids.astype(np.float64)[codes[layer]]
    assert cd.decode(codes, codec).tobytes() == out.astype(np.float32).tobytes()


def test_encode_unfitted_rejected():
    empty = cd.RVQCodec(codebooks=[], fit_snr_db=0.0)
    with pytest.raises(StateError):
        cd.encode(np.zeros((2, 16), dtype=np.float32), empty)


def test_decode_all_zero_grid(small_codec):
    _, codec = small_codec
    out = cd.decode(np.zeros((3, 5), dtype=np.int64), codec)
    np.testing.assert_array_equal(out, np.zeros((5, 16), dtype=np.float32))


def test_decode_code_out_of_range(small_codec):
    _, codec = small_codec
    with pytest.raises(IndexError):
        cd.decode(np.full((3, 2), 16, dtype=np.int64), codec)


@pytest.mark.parametrize("shape", [(3,), (3, 2, 1), (2, 4)])
def test_decode_rejects_codes_not_n_layers_by_t(small_codec, shape):
    _, codec = small_codec
    with pytest.raises(DataError):
        cd.decode(np.zeros(shape, dtype=np.int64), codec)


def test_roundtrip_beats_first_layer_alone(small_codec):
    frames, codec = small_codec
    rng = np.random.default_rng(8)
    probe = rng.normal(scale=1.5, size=(200, 16)).astype(np.float32)
    codes = cd.encode(probe, codec)
    full = cd.decode(codes, codec)
    only0 = codec.codebooks[0].centroids[codes[0]]
    err_full = np.sum((probe - full) ** 2, axis=1)
    err_l0 = np.sum((probe - only0) ** 2, axis=1)
    assert np.all(err_full <= err_l0 + 1e-6)


def test_distortion_decreases_with_layer_count(small_codec):
    frames, codec = small_codec
    codes = cd.encode(frames, codec)
    # corpus-average distortion shrinks monotonically in layer count
    d = [float(np.mean(np.sum((frames.astype(np.float64) -
                               sum(codec.codebooks[l].centroids.astype(np.float64)[codes[l]]
                                   for l in range(upto))) ** 2, axis=1)))
         for upto in range(1, codec.n_layers + 1)]
    assert all(d[i + 1] <= d[i] for i in range(len(d) - 1))


def _fit_corpus_per_item(splits, parallel_per_utt, degraded_per_utt, seed):
    """build_fit_corpus as one render per item, the loop the batched render replaced."""
    rng = np.random.default_rng([0xCB0F, seed])
    chunks = []
    train_ids = np.asarray(splits.train_speaker_ids)
    for utt in splits.utterances:
        chunks.append(splits.render_utterance(utt))
        for _ in range(parallel_per_utt):
            sid = int(train_ids[rng.integers(len(train_ids))])
            chunks.append(splits.render_text(utt.text, sid, sw.PRISTINE, rng))
        for _ in range(degraded_per_utt):
            sid = int(train_ids[rng.integers(len(train_ids))])
            chunks.append(splits.render_text(utt.text, sid, sw.DEGRADED, rng))
    return np.concatenate(chunks, axis=0)


@pytest.mark.parametrize("parallel,degraded", [(2, 1), (0, 2), (0, 0)])
def test_fit_corpus_equals_the_per_item_loop(splits, monkeypatch, parallel, degraded):
    calls = spy_renders(monkeypatch)
    got = cd.build_fit_corpus(splits, parallel, degraded, seed=91)
    # one render per utterance: its own, then the parallel and degraded ones
    assert len(calls) == len(splits.utterances)
    for utt, call in zip(splits.utterances, calls):
        assert call[0] == (utt.text, utt.speaker_id, utt.channel, utt.seed)
        channels = [ch for _, _, ch, _ in call[1:]]
        assert channels == [sw.PRISTINE] * parallel + [sw.DEGRADED] * degraded
    want = _fit_corpus_per_item(splits, parallel, degraded, seed=91)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_heldout_snr_within_one_db_of_fit(splits, codec):
    rng = np.random.default_rng(1)
    chunks = []
    for text in splits.heldout_texts:
        sid = splits.heldout_speaker_ids[int(rng.integers(4))]
        chunks.append(render_one(splits.vocab, text, splits.speakers[sid],
                                 sw.PRISTINE, int(rng.integers(2**31))))
    frames = np.concatenate(chunks)
    recon = cd.decode(cd.encode(frames, codec), codec)
    x = frames.astype(np.float64)
    ho_snr = 10.0 * np.log10(np.sum(x ** 2) / np.sum((x - recon) ** 2))
    assert ho_snr >= codec.fit_snr_db - 1.0


def test_artifact_round_trip(tmp_path, small_codec):
    frames, codec = small_codec
    path = tmp_path / "codec.rvq"
    cd.save_codec(path, codec)
    back = cd.load_codec(path)
    assert back.n_layers == codec.n_layers
    assert np.float32(back.fit_snr_db) == np.float32(codec.fit_snr_db)
    for a, b in zip(codec.codebooks, back.codebooks):
        np.testing.assert_array_equal(a.centroids, b.centroids)
    codes = cd.encode(frames[:20], back)
    assert np.array_equal(codes, cd.encode(frames[:20], codec))


def test_artifact_bad_magic(tmp_path):
    path = tmp_path / "bad.rvq"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ArtifactFormatError):
        cd.load_codec(path)


# ---------------------------------------------------------------------------
# reference oracles: the dense formulas, every distance computed in full


def _dense_init(data, k, rng):
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    centroids[0] = data[int(rng.integers(0, n))]
    d2 = np.sum((data - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = data[int(rng.integers(0, n))]
        else:
            centroids[i] = data[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((data - centroids[i]) ** 2, axis=1))
    return centroids


def _assign(data, centroids):
    """`codec._assign` given the centroid norms `encode` gives it."""
    return cd._assign(data, centroids, *cd._centroid_norms(centroids))


def _dense_assign(data, centroids):
    d2 = np.sum((data[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return d2.argmin(axis=1)


def _dense_lloyd(data, k, iters, rng):
    """The reference Lloyd fit and how many empty clusters it re-seeded."""
    centroids = np.vstack([np.zeros((1, data.shape[1])), _dense_init(data, k - 1, rng)])
    reseeds = 0
    for _ in range(iters):
        d2 = (np.sum(data ** 2, axis=1, keepdims=True) - 2.0 * data @ centroids.T
              + np.sum(centroids ** 2, axis=1)[None, :])
        labels = d2.argmin(axis=1)
        order = np.argsort(-np.sum((data - centroids[labels]) ** 2, axis=1))
        ptr = 0
        for c in range(1, k):
            members = data[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                centroids[c] = data[order[ptr]]
                ptr += 1
        reseeds += ptr
    return centroids, reseeds


def _corpus(case):
    rng = np.random.default_rng(31)
    if case == "duplicate-rows":
        return np.repeat(rng.normal(size=(40, 16)), 5, axis=0)
    if case == "all-zero":
        return np.zeros((120, 16))
    if case == "empty-cluster":     # 5 distinct rows for 15 learnable centroids
        return np.tile(rng.normal(size=(5, 16)), (30, 1))
    if case == "offset-1e4":
        return rng.normal(size=(400, 16)) + 1e4
    if case == "scale-1e-6":
        return rng.normal(scale=1e-6, size=(400, 16))
    if case == "float32-rounded":
        return rng.normal(scale=1.5, size=(600, 16)).astype(np.float32).astype(np.float64)
    if case == "three-blocks":     # two full row blocks and a partial one
        return rng.normal(scale=1.5, size=(2 * cd._BLOCK + 700, 16))
    raise KeyError(case)


KERNEL_CASES = ["duplicate-rows", "all-zero", "empty-cluster", "offset-1e4", "scale-1e-6",
                "float32-rounded", "three-blocks"]


def _dense_fit(frames, n, k, iters, seed):
    """The reference RVQ fit: _dense_lloyd layers, each residual formed whole."""
    residual = np.asarray(frames, dtype=np.float64)
    rng = np.random.default_rng([0xCB00, seed])
    signal = float(np.sum(residual ** 2))
    books = []
    for _ in range(n):
        cents = _dense_lloyd(residual, k, iters, rng)[0].astype(np.float32)
        cents[0] = 0.0
        c64 = cents.astype(np.float64)
        d2 = (np.sum(residual ** 2, axis=1, keepdims=True) - 2.0 * residual @ c64.T
              + np.sum(c64 ** 2, axis=1)[None, :])
        residual = residual - c64[d2.argmin(axis=1)]
        books.append(cents)
    return books, float(10.0 * np.log10(signal / float(np.sum(residual ** 2))))


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_pruned_kernels_match_dense_oracles_bitwise(case):
    data = _corpus(case)
    twice, norms = 2.0 * data, np.sum(data ** 2, axis=1)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    init = cd._kmeans_pp_init(data, 15, rng, twice, norms)
    assert np.array_equal(init, _dense_init(data, 15, twin))
    assert rng.bit_generator.state == twin.bit_generator.state

    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    cents = cd._lloyd(data, twice, norms, 16, 4, rng)
    want, reseeds = _dense_lloyd(data, 16, 4, twin)
    assert np.array_equal(cents, want)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert (reseeds > 0) == (case in ("all-zero", "empty-cluster"))
    assert np.array_equal(_assign(data, cents), _dense_assign(data, cents))
    probe = data[::7] + np.random.default_rng(10).normal(scale=np.std(data) + 1e-300,
                                                         size=data[::7].shape)
    assert np.array_equal(_assign(probe, cents), _dense_assign(probe, cents))


def test_fit_matches_dense_fit_bitwise_across_blocks():
    frames = _corpus("three-blocks").astype(np.float32)
    codec = cd.fit_codebooks(frames, n=2, k=16, iters=3, seed=6)
    books, snr = _dense_fit(frames, n=2, k=16, iters=3, seed=6)
    for book, want in zip(codec.codebooks, books, strict=True):
        assert np.array_equal(book.centroids, want)
    assert codec.fit_snr_db == snr


def test_draw_index_equals_rng_choice_in_index_and_state():
    rng = np.random.default_rng(51)
    kinds = set()
    for trial in range(2000):
        n = int(rng.integers(1, 300))
        weights = rng.exponential(size=n) * 10.0 ** rng.uniform(-8, 8)
        kind = trial % 4
        if kind == 1:     # zero weights among the rest
            weights[rng.random(n) < 0.5] = 0.0
        elif kind == 2:   # a single nonzero weight
            weights[:] = 0.0
            weights[rng.integers(n)] = rng.exponential()
        elif kind == 3:   # ties and subnormals
            weights = rng.integers(0, 3, size=n) * 5e-324
        total = weights.sum()
        if total <= 0.0:
            continue
        kinds.add(kind)
        gen, twin = np.random.default_rng(trial), np.random.default_rng(trial)
        assert cd._draw_index(weights, total, gen) == int(twin.choice(n, p=weights / total))
        assert gen.bit_generator.state == twin.bit_generator.state
    assert kinds == {0, 1, 2, 3}


def _kmeans_pp_init_choice(data, k, rng, twice, norms):
    """_kmeans_pp_init as it drew seeds with rng.choice, verbatim."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = data[first]
    d2 = np.empty(n)
    for b in cd._blocks(n):
        d2[b] = np.sum((data[b] - centroids[0]) ** 2, axis=1)
    floor = norms * (1.0 - cd._SLACK)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = data[int(rng.integers(0, n))]
        else:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
            centroids[i] = data[idx]
        c = centroids[i]
        lower = twice @ c
        np.subtract(floor, lower, out=lower)
        lower += float(c @ c) * (1.0 - cd._SLACK) - cd._TINY
        near = np.flatnonzero(lower < d2)
        for b in cd._blocks(len(near)):
            rows = near[b]
            d2[rows] = np.minimum(d2[rows], np.sum((data[rows] - c) ** 2, axis=1))
    return centroids


@pytest.mark.parametrize("corpus", ["fit-corpus", "three-blocks"])
def test_codebooks_equal_the_rng_choice_seeding(splits, monkeypatch, corpus):
    if corpus == "fit-corpus":
        frames = cd.build_fit_corpus(splits, 1, 1, seed=5)
    else:
        frames = _corpus("three-blocks").astype(np.float32)
    got = cd.fit_codebooks(frames, n=3, k=32, iters=2, seed=17)
    monkeypatch.setattr(cd, "_kmeans_pp_init", _kmeans_pp_init_choice)
    want = cd.fit_codebooks(frames, n=3, k=32, iters=2, seed=17)
    for book, ref in zip(got.codebooks, want.codebooks, strict=True):
        assert book.centroids.tobytes() == ref.centroids.tobytes()
    assert got.fit_snr_db == want.fit_snr_db


@pytest.mark.parametrize("n", [0, 1, 2, cd._BLOCK, cd._BLOCK + 1, 2 * cd._BLOCK + 1,
                               2 * cd._BLOCK + 2])
def test_blocks_cover_the_rows_with_no_one_row_block(n):
    # numpy sends a one-row matmul to BLAS gemv, which sums in another order
    # than the whole-corpus gemm, so only a one-row corpus has a one-row block
    blocks = cd._blocks(n)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) <= cd._BLOCK + 1
    assert n == 1 or 1 not in sizes


def test_fit_peak_memory_is_a_few_corpus_copies():
    # the fit holds O(N * F) arrays and one block of distances, never (N, K)
    frames = np.random.default_rng(2).normal(size=(20_000, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        cd.fit_codebooks(frames, n=2, k=64, iters=2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * frames.size * 8


def test_assign_keeps_exact_ties_and_overrules_the_expansion_form():
    # exact ties, one of them between duplicate centroids: the lower index wins
    cents = np.zeros((5, 16))
    cents[1, :2] = (0.3, 0.1)
    cents[2, :2] = (0.3, -0.1)
    cents[3, :2] = (0.3, 0.1)
    cents[4, :2] = (0.5, 0.0)
    data = np.zeros((2, 16))
    data[:, 0] = 0.3
    data[1, 5] = 0.2
    assert _dense_assign(data, cents).tolist() == [1, 1]
    assert _assign(data, cents).tolist() == [1, 1]
    assert _assign(data, cents[[0, 2, 1, 3, 4]]).tolist() == [1, 1]
    # at a 1e7 offset the expansion form's rounding picks another centroid on
    # some rows; the exact distance still decides
    rng = np.random.default_rng(31)
    data = rng.normal(size=(400, 16)) + 1e7
    cents = data[:16] + rng.normal(scale=0.5, size=(16, 16))
    cents[0] = 0.0
    expansion = (np.sum(data ** 2, axis=1)[:, None] - 2.0 * data @ cents.T
                 + np.sum(cents ** 2, axis=1)).argmin(axis=1)
    want = _dense_assign(data, cents)
    assert np.any(expansion != want)
    assert np.array_equal(_assign(data, cents), want)
