import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batcap import fusion
from batcap.rng import Rng


# The normalized kernel, the KL and its gradient as standalone functions;
# tsne_embed runs the same kernels on buffers.

def student_t_affinities(Y):
    """Low-dimensional affinities under the heavy-tailed Student-t kernel."""
    w = fusion._student_t_kernel(np.atleast_2d(np.asarray(Y, dtype=float)))
    return w / w.sum()


def kl_divergence(P, Q):
    """KL(P || Q) in nats; terms with P = 0 contribute nothing."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ValueError("shape mismatch")
    mask = P > 0
    if np.any(Q[mask] == 0):
        raise ValueError("Q is zero where P has mass; KL undefined")
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def tsne_gradient(P, Q, Y):
    """Analytic gradient of KL(P || Q) under the Student-t kernel."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return fusion._kernel_gradient(P, Q, fusion._student_t_kernel(Y), Y)


def two_clusters(n_per=30, dim=10, gap=8.0, seed=5):
    rng = Rng(seed)
    pts = [rng.normals(dim) for _ in range(n_per)]
    pts += [rng.normals(dim) + gap for _ in range(n_per)]
    labels = np.array([0] * n_per + [1] * n_per)
    return np.array(pts), labels


def row_perplexity(d2, sigma):
    p = np.exp(-d2 / (2.0 * sigma * sigma))
    p /= p.sum()
    nz = p[p > 0]
    return 2.0 ** (-np.sum(nz * np.log2(nz)))


def test_calibrate_two_equidistant_neighbors_uniform():
    sigma = fusion.calibrate_sigma(np.array([4.0, 4.0]), 2.0)
    p = np.exp(-np.array([4.0, 4.0]) / (2 * sigma * sigma))
    p /= p.sum()
    assert np.allclose(p, 0.5)


def test_calibrate_hits_target_perplexity():
    rng = Rng(13)
    for _ in range(5):
        d2 = np.abs(rng.normals(40)) ** 2 + 0.1
        sigma = fusion.calibrate_sigma(d2, 12.0)
        assert row_perplexity(d2, sigma) == pytest.approx(12.0, abs=1e-3)


def test_entropy_monotone_in_sigma():
    rng = Rng(14)
    d2 = np.abs(rng.normals(30)) ** 2 + 0.2
    sigma = fusion.calibrate_sigma(d2, 10.0)
    assert row_perplexity(d2, 2 * sigma) > row_perplexity(d2, sigma)


def test_calibrate_rejects_all_zero_distances():
    with pytest.raises(ValueError, match="duplicate"):
        fusion.calibrate_sigma(np.zeros(5), 2.0)


def test_joint_affinities_normalization_and_symmetry():
    rng = Rng(15)
    X = rng.normals(10 * 4).reshape(10, 4)
    aff = fusion.joint_affinities(X, 3.0)
    assert aff.P.shape == (10, 10)
    assert np.allclose(aff.P, aff.P.T, atol=1e-15)
    assert np.all(np.diag(aff.P) == 0.0)
    assert np.all(aff.P >= 0.0)
    assert aff.P.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_affinities_match_extended_precision_oracle():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 3.0]])
    aff = fusion.joint_affinities(X, 2.0)
    n = 4
    cond = np.zeros((n, n), dtype=np.longdouble)
    for i in range(n):
        d2 = np.array([np.sum((X[i] - X[j]) ** 2) for j in range(n) if j != i],
                      dtype=np.longdouble)
        sigma = np.longdouble(fusion.calibrate_sigma(d2.astype(float), 2.0))
        w = np.exp(-d2 / (2 * sigma * sigma))
        w /= w.sum()
        cond[i, [j for j in range(n) if j != i]] = w
    P = (cond + cond.T) / (2 * n)
    np.fill_diagonal(P, 0)
    assert np.allclose(aff.P, P.astype(float), atol=1e-9)


def test_joint_affinities_reject_duplicates():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0]])
    with pytest.raises(ValueError, match="duplicate rows 0 and 2"):
        fusion.joint_affinities(X, 2.0)


def test_student_t_coincident_points_uniform():
    Y = np.zeros((5, 2))
    Q = student_t_affinities(Y)
    off = Q[~np.eye(5, dtype=bool)]
    assert np.allclose(off, 1.0 / 20.0)
    assert Q.sum() == pytest.approx(1.0, abs=1e-12)


def test_student_t_three_point_hand_computation():
    # 1-D points 0, 1, 3: kernels 1/2, 1/10, 1/5; total mass 1.6
    Y = np.array([[0.0], [1.0], [3.0]])
    Q = student_t_affinities(Y)
    assert Q[0, 1] == pytest.approx(0.5 / 1.6, abs=1e-12)
    assert Q[0, 2] == pytest.approx(0.1 / 1.6, abs=1e-12)
    assert Q[1, 2] == pytest.approx(0.2 / 1.6, abs=1e-12)


def test_kl_identity_is_zero():
    rng = Rng(16)
    P = np.abs(rng.uniforms(16)).reshape(4, 4)
    np.fill_diagonal(P, 0.0)
    P /= P.sum()
    assert kl_divergence(P, P) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_computed_value():
    val = kl_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
    assert val == pytest.approx(0.5 * math.log(25.0 / 9.0), abs=1e-12)
    assert val == pytest.approx(0.5108, abs=5e-5)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_kl_non_negative(seed):
    rng = Rng(seed)
    p = rng.uniforms(8, 0.01, 1.0)
    q = rng.uniforms(8, 0.01, 1.0)
    p /= p.sum()
    q /= q.sum()
    assert kl_divergence(p, q) >= -1e-12


def test_kl_rejects_zero_q_with_mass():
    with pytest.raises(ValueError, match="undefined"):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_gradient_respects_symmetry():
    # four points at square corners; P from the same square
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    P = fusion.joint_affinities(X, 2.0).P
    Y = X - X.mean(axis=0)
    Q = student_t_affinities(Y)
    grad = tsne_gradient(P, Q, Y)
    norms = np.linalg.norm(grad, axis=1)
    assert np.allclose(norms, norms[0], atol=1e-10)


def test_gradient_matches_central_differences():
    rng = Rng(11)
    X = rng.normals(24).reshape(6, 4)
    P = fusion.joint_affinities(X, 2.0).P
    Y = rng.normals(12).reshape(6, 2)
    Q = student_t_affinities(Y)
    grad = tsne_gradient(P, Q, Y)
    h = 1e-5
    numeric = np.zeros_like(Y)
    for i in range(6):
        for j in range(2):
            yp = Y.copy()
            yp[i, j] += h
            ym = Y.copy()
            ym[i, j] -= h
            numeric[i, j] = (
                kl_divergence(P, student_t_affinities(yp))
                - kl_divergence(P, student_t_affinities(ym))
            ) / (2 * h)
    mask = np.abs(numeric) > 1e-8
    rel = np.abs(grad[mask] - numeric[mask]) / np.abs(numeric[mask])
    assert rel.max() < 1e-4


def test_gradient_zero_when_q_equals_p():
    rng = Rng(17)
    Y = rng.normals(10).reshape(5, 2)
    Q = student_t_affinities(Y)
    grad = tsne_gradient(Q, Q, Y)
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_embed_separates_clusters():
    X, labels = two_clusters()
    emb = fusion.tsne_embed(X, 2, fusion.TsneParams(perplexity=10, seed=3))
    Y = emb.Y
    correct = 0
    for i in range(len(Y)):
        d = np.sum((Y - Y[i]) ** 2, axis=1)
        d[i] = np.inf
        correct += labels[np.argmin(d)] == labels[i]
    assert correct / len(Y) >= 0.95


def test_embed_kl_drops_after_exaggeration_phase():
    X, _ = two_clusters(n_per=15, dim=6, seed=8)
    emb = fusion.tsne_embed(X, 2, fusion.TsneParams(perplexity=8, iterations=400, seed=1))
    assert emb.final_kl >= 0.0
    assert emb.final_kl <= dict(emb.kl_history)[100]
    assert [t for t, _ in emb.kl_history] == list(range(50, 401, 50))


def test_embed_bit_identical_for_fixed_seed():
    X, _ = two_clusters(n_per=10, dim=5, seed=9)
    params = fusion.TsneParams(perplexity=6, iterations=260, seed=4)
    a = fusion.tsne_embed(X, 2, params)
    b = fusion.tsne_embed(X, 2, params)
    assert np.array_equal(a.Y, b.Y)
    assert a.final_kl == b.final_kl
    assert a.kl_history == b.kl_history
    # every KL_EVERY-th iteration, and the last
    assert [t for t, _ in a.kl_history] == [50, 100, 150, 200, 250, 260]


def test_embed_leaves_affinities_unchanged():
    X, _ = two_clusters(n_per=10, dim=5, seed=10)
    P_before = fusion.joint_affinities(X, 6.0).P.copy()
    fusion.tsne_embed(X, 2, fusion.TsneParams(perplexity=6, iterations=260, seed=4))
    P_after = fusion.joint_affinities(X, 6.0).P
    assert np.array_equal(P_before, P_after)


def test_embed_rejects_bad_dimension():
    X, _ = two_clusters(n_per=5, dim=4, seed=11)
    with pytest.raises(ValueError):
        fusion.tsne_embed(X, 4, fusion.TsneParams(perplexity=4))


def test_screen_dimensions_planar_data_prefers_two():
    rng = Rng(12)
    # points on a 2-D plane embedded in 8-D
    basis = rng.normals(16).reshape(2, 8)
    coords = rng.normals(60).reshape(30, 2) * 3.0
    X = coords @ basis
    params = fusion.TsneParams(perplexity=8, iterations=400, seed=2)
    result = fusion.screen_dimensions(X, dims=(1, 2), params=params)
    assert set(result.kl_by_dim) == {1, 2}
    assert result.kl_by_dim[2] <= result.kl_by_dim[1]
    assert all(kl >= 0.0 for kl in result.kl_by_dim.values())
    assert result.recommended_d == 2


def test_embed_new_points_duplicate_maps_exactly():
    rng = Rng(18)
    X_train = rng.normals(40).reshape(10, 4)
    Y_train = rng.normals(20).reshape(10, 2)
    out = fusion.embed_new_points(X_train, Y_train, X_train[3][None, :])
    assert np.array_equal(out[0], Y_train[3])


def test_embed_new_points_interpolates_between_neighbors():
    X_train = np.array([[0.0], [1.0]])
    Y_train = np.array([[0.0, 0.0], [10.0, 0.0]])
    out = fusion.embed_new_points(X_train, Y_train, np.array([[0.5]]), k=2)
    assert out[0] == pytest.approx([5.0, 0.0])


def test_exaggeration_restores_affinity_matrix_exactly(monkeypatch):
    # observe the exact AffinityMatrix object the embedding works with
    X, _ = two_clusters(n_per=8, dim=4, seed=19)
    captured = {}
    original = fusion.joint_affinities

    def capture(*args, **kwargs):
        aff = original(*args, **kwargs)
        captured["P"] = aff.P
        captured["snapshot"] = aff.P.copy()
        return aff

    monkeypatch.setattr(fusion, "joint_affinities", capture)
    fusion.tsne_embed(X, 2, fusion.TsneParams(perplexity=5, iterations=260, seed=6))
    assert np.array_equal(captured["P"], captured["snapshot"])


# --- equivalence with the pre-chunking, pre-shared-kernel code -------------

def _reference_squared_distances(X):
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _reference_student_t_affinities(Y):
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    w = 1.0 / (1.0 + _reference_squared_distances(Y))
    np.fill_diagonal(w, 0.0)
    return w / w.sum()


def _reference_tsne_gradient(P, Q, Y):
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    w = 1.0 / (1.0 + _reference_squared_distances(Y))
    np.fill_diagonal(w, 0.0)
    m = (P - Q) * w
    row_sums = m.sum(axis=1)
    return 4.0 * (row_sums[:, None] * Y - m @ Y)


def _reference_tsne_embed(X, d, params):
    """The descent loop as it was before the kernel and P's support were shared
    and the (n, n) arrays were kept in buffers."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    perplexity = min(params.perplexity, (n - 1) / 3.0)
    aff = fusion.joint_affinities(X, perplexity)
    P = aff.P
    P_exaggerated = P * fusion.EARLY_EXAGGERATION

    rng = Rng(fusion.derive_seed(params.seed, "tsne-init", d))
    Y = rng.normals(n * d, 0.0, 1e-4).reshape(n, d)
    velocity = np.zeros_like(Y)
    kl_history = []
    Q = _reference_student_t_affinities(Y)
    for t in range(1, params.iterations + 1):
        P_t = P_exaggerated if t <= fusion.EXAGGERATION_ITERS else P
        grad = _reference_tsne_gradient(P_t, Q, Y)
        momentum = fusion.MOMENTUM_EARLY if t < fusion.MOMENTUM_SWITCH_ITER else fusion.MOMENTUM_LATE
        velocity = momentum * velocity - fusion.LEARNING_RATE * grad
        Y = Y + velocity
        Q = _reference_student_t_affinities(Y)
        kl_history.append(kl_divergence(P, Q))
    return Y, kl_history


def _sampled(kl_history):
    """The (iteration, KL) pairs tsne_embed keeps of a per-step KL history."""
    last = len(kl_history)
    return [(t, kl) for t, kl in enumerate(kl_history, start=1)
            if t % fusion.KL_EVERY == 0 or t == last]


def _reference_embed_new_points(X_train, Y_train, X_new, k=5):
    """embed_new_points as it was before rows were embedded in chunks."""
    X_train = np.asarray(X_train, dtype=float)
    Y_train = np.asarray(Y_train, dtype=float)
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    k = min(k, len(X_train))
    out = np.empty((len(X_new), Y_train.shape[1]))
    for i, x in enumerate(X_new):
        dist = np.sqrt(np.sum((X_train - x) ** 2, axis=1))
        nearest = np.argsort(dist, kind="stable")[:k]
        if dist[nearest[0]] == 0.0:
            out[i] = Y_train[nearest[0]]
            continue
        weights = 1.0 / dist[nearest]
        weights /= weights.sum()
        out[i] = weights @ Y_train[nearest]
    return out


@pytest.mark.parametrize("shape", [(7, 1), (50, 2), (50, 3), (200, 13)])
def test_buffered_kernels_match_the_allocating_formulas(shape):
    rng = Rng(24)
    Y = rng.normals(shape[0] * shape[1]).reshape(shape)
    Y[3] = Y[5]  # a zero distance off the diagonal
    P = fusion.joint_affinities(rng.normals(shape[0] * 4).reshape(shape[0], 4), 2.0).P
    n = shape[0]
    w, scratch = np.full((n, n), np.nan), np.full((n, n), np.nan)
    assert np.array_equal(fusion._squared_distances(Y, w, scratch),
                          _reference_squared_distances(Y))
    assert np.array_equal(fusion._squared_distances(Y), _reference_squared_distances(Y))
    Q = _reference_student_t_affinities(Y)
    assert np.array_equal(student_t_affinities(Y), Q)
    assert np.array_equal(tsne_gradient(P, Q, Y), _reference_tsne_gradient(P, Q, Y))


# Two clusters far enough apart that at perplexity 2 the Gaussian affinities
# across them underflow to exact zeros.
FAR_CLUSTERS = two_clusters(n_per=12, dim=4, gap=60.0, seed=21)[0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("case", ["near", "near-273", "far"])
def test_embed_matches_reference_loop_bit_for_bit(d, case):
    if case.startswith("near"):
        X = two_clusters(n_per=15, dim=6, seed=20)[0]
        iterations = 273 if case == "near-273" else 300
        params = fusion.TsneParams(perplexity=6, iterations=iterations, seed=7)
    else:
        X = FAR_CLUSTERS
        params = fusion.TsneParams(perplexity=2, iterations=300, seed=7)
        P = fusion.joint_affinities(X, 2.0).P
        assert np.any((P == 0.0) & ~np.eye(len(X), dtype=bool))
    Y, kl_history = _reference_tsne_embed(X, d, params)
    emb = fusion.tsne_embed(X, d, params)
    assert np.array_equal(emb.Y, Y)
    assert emb.final_kl == kl_history[-1]
    assert emb.kl_history == _sampled(kl_history)


def test_screen_dimensions_matches_separate_embeds(monkeypatch):
    X = two_clusters(n_per=12, dim=5, seed=22)[0]
    params = fusion.TsneParams(perplexity=5, iterations=260, seed=8)
    separate = {d: fusion.tsne_embed(X, d, params) for d in (1, 2, 3)}
    calls = []
    original = fusion.joint_affinities

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fusion, "joint_affinities", counted)
    result = fusion.screen_dimensions(X, dims=(1, 2, 3), params=params)
    assert len(calls) == 1
    for d, emb in separate.items():
        Y, kl_history = _reference_tsne_embed(X, d, params)
        assert np.array_equal(result.embeddings[d].Y, emb.Y)
        assert np.array_equal(emb.Y, Y)
        assert result.embeddings[d].final_kl == emb.final_kl == kl_history[-1]
        assert result.embeddings[d].kl_history == emb.kl_history == _sampled(kl_history)
        assert result.embeddings[d].params == emb.params


def test_zero_q_raises_at_the_reference_loop_step(monkeypatch):
    # Rows 0 and 1 start at orthogonal +-1.3e154 positions: their squared distance
    # overflows to inf, so their kernel value and Q are 0 where P has mass. The
    # reference loop raises at step 1, which samples no KL.
    class FarRng(Rng):
        def normals(self, count, mean=0.0, sd=1.0):
            out = super().normals(count, mean, sd)
            out[:4] = [1.3e154, 0.0, 0.0, -1.3e154]
            return out

    X = two_clusters(n_per=10, dim=5, seed=9)[0]
    params = fusion.TsneParams(perplexity=6, iterations=260, seed=4)
    kernels = []
    kernel = fusion._student_t_kernel
    monkeypatch.setattr(fusion, "Rng", FarRng)
    monkeypatch.setattr(fusion, "_student_t_kernel", lambda *a: kernels.append(1) or kernel(*a))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="Q is zero where P has mass"):
            fusion.tsne_embed(X, 2, params)
        assert len(kernels) == 2  # the initial kernel and step 1's
        monkeypatch.setitem(globals(), "Rng", FarRng)
        with pytest.raises(ValueError, match="Q is zero where P has mass"):
            _reference_tsne_embed(X, 2, params)


def test_embed_rejects_affinities_of_other_points():
    X = two_clusters(n_per=5, dim=4, seed=23)[0]
    params = fusion.TsneParams(perplexity=3)
    with pytest.raises(ValueError, match="do not belong"):
        fusion.tsne_embed(X, 2, params, fusion.joint_affinities(X[:-1], 3.0))
    with pytest.raises(ValueError, match="do not belong"):
        fusion.tsne_embed(X, 2, params, fusion.joint_affinities(X, 2.5))


def _oos_case(n_new, d, seed, n_train=140, n_features=13):
    rng = Rng(seed)
    # integer coordinates, so many distances tie and the stable order decides
    X_train = np.floor(rng.uniforms(n_train * n_features, 0.0, 4.0)).reshape(n_train, n_features)
    Y_train = rng.normals(n_train * d).reshape(n_train, d)
    X_new = np.floor(rng.uniforms(n_new * n_features, 0.0, 4.0)).reshape(n_new, n_features)
    X_new[::7] = X_train[np.arange(len(X_new[::7])) * 3 % n_train]  # exact duplicates
    X_new[1::5] += rng.normals(len(X_new[1::5]) * n_features).reshape(-1, n_features)
    return X_train, Y_train, X_new


def _oos_chunk():
    return fusion.OOS_CHUNK_ELEMENTS // (140 * 13)


@pytest.mark.parametrize("n_new", [0, 1, "chunk-1", "chunk", "chunk+1", 8192])
def test_embed_new_points_matches_row_loop_bit_for_bit(n_new):
    chunk = _oos_chunk()
    n_new = {"chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}.get(n_new, n_new)
    for d in (1, 2, 3):
        X_train, Y_train, X_new = _oos_case(n_new, d, seed=30 + d)
        out = fusion.embed_new_points(X_train, Y_train, X_new)
        assert out.shape == (n_new, d)
        assert np.array_equal(out, _reference_embed_new_points(X_train, Y_train, X_new))


def test_embed_new_points_case_mix_matches_row_loop():
    chunk = _oos_chunk()
    X_train, Y_train, X_new = _oos_case(3 * chunk + 5, 2, seed=40)
    assert any((X_train == x).all(axis=1).any() for x in X_new)
    dist = np.sqrt(np.sum((X_train - X_new[2]) ** 2, axis=1))
    assert len(np.unique(dist)) < len(dist)  # tied distances
    X_new[chunk - 1] = np.nan
    X_new[chunk, 3] = np.inf
    X_new[2 * chunk, 0] = -np.inf
    X_new[2 * chunk + 1] = X_train[139]
    for k in (1, 5, 140, 200):
        with np.errstate(all="ignore"):
            out = fusion.embed_new_points(X_train, Y_train, X_new, k=k)
            ref = _reference_embed_new_points(X_train, Y_train, X_new, k=k)
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(out[2 * chunk + 1], Y_train[139])
    assert np.isnan(out[chunk - 1]).all()


def test_embed_new_points_k_th_distance_tied_across_the_partition():
    # distances to the origin: 1 at row 100, 2 at row 50, 3 at rows 7, 70 and
    # 139, and 4 elsewhere; k = 3 leaves two of the three 3s out
    X_train = np.zeros((140, 13))
    X_train[:, 0] = 4.0
    X_train[[100, 50, 7, 70, 139], 0] = [1.0, 2.0, 3.0, 3.0, 3.0]
    Y_train = Rng(41).normals(140 * 2).reshape(140, 2)
    X_new = np.zeros((1, 13))
    for k in (3, 4, 5, 6):
        out = fusion.embed_new_points(X_train, Y_train, X_new, k=k)
        assert np.array_equal(out, _reference_embed_new_points(X_train, Y_train, X_new, k=k))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9, 139, 140])
def test_k_nearest_is_the_stable_sort_prefix(k):
    # small integer distances, so the k-th ties across the partition in most rows
    dist = np.floor(Rng(42).uniforms(64 * 140, 0.0, 6.0)).reshape(64, 140)
    dist[5, 17] = np.nan
    dist[6] = np.inf
    ordered = np.sort(dist, axis=1)
    if k < 140:
        assert np.sum(ordered[:, k - 1] == ordered[:, k]) > 32
    assert np.array_equal(fusion._k_nearest(dist, k),
                          np.argsort(dist, axis=1, kind="stable")[:, :k])
