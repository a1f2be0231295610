import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batcap import fusion
from batcap.rng import Rng


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
    Q = fusion.student_t_affinities(Y)
    off = Q[~np.eye(5, dtype=bool)]
    assert np.allclose(off, 1.0 / 20.0)
    assert Q.sum() == pytest.approx(1.0, abs=1e-12)


def test_student_t_three_point_hand_computation():
    # 1-D points 0, 1, 3: kernels 1/2, 1/10, 1/5; total mass 1.6
    Y = np.array([[0.0], [1.0], [3.0]])
    Q = fusion.student_t_affinities(Y)
    assert Q[0, 1] == pytest.approx(0.5 / 1.6, abs=1e-12)
    assert Q[0, 2] == pytest.approx(0.1 / 1.6, abs=1e-12)
    assert Q[1, 2] == pytest.approx(0.2 / 1.6, abs=1e-12)


def test_kl_identity_is_zero():
    rng = Rng(16)
    P = np.abs(rng.uniforms(16)).reshape(4, 4)
    np.fill_diagonal(P, 0.0)
    P /= P.sum()
    assert fusion.kl_divergence(P, P) == pytest.approx(0.0, abs=1e-15)


def test_kl_hand_computed_value():
    val = fusion.kl_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
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
    assert fusion.kl_divergence(p, q) >= -1e-12


def test_kl_rejects_zero_q_with_mass():
    with pytest.raises(ValueError, match="undefined"):
        fusion.kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_gradient_respects_symmetry():
    # four points at square corners; P from the same square
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    P = fusion.joint_affinities(X, 2.0).P
    Y = X - X.mean(axis=0)
    Q = fusion.student_t_affinities(Y)
    grad = fusion.tsne_gradient(P, Q, Y)
    norms = np.linalg.norm(grad, axis=1)
    assert np.allclose(norms, norms[0], atol=1e-10)


def test_gradient_matches_central_differences():
    rng = Rng(11)
    X = rng.normals(24).reshape(6, 4)
    P = fusion.joint_affinities(X, 2.0).P
    Y = rng.normals(12).reshape(6, 2)
    Q = fusion.student_t_affinities(Y)
    grad = fusion.tsne_gradient(P, Q, Y)
    h = 1e-5
    numeric = np.zeros_like(Y)
    for i in range(6):
        for j in range(2):
            yp = Y.copy()
            yp[i, j] += h
            ym = Y.copy()
            ym[i, j] -= h
            numeric[i, j] = (
                fusion.kl_divergence(P, fusion.student_t_affinities(yp))
                - fusion.kl_divergence(P, fusion.student_t_affinities(ym))
            ) / (2 * h)
    mask = np.abs(numeric) > 1e-8
    rel = np.abs(grad[mask] - numeric[mask]) / np.abs(numeric[mask])
    assert rel.max() < 1e-4


def test_gradient_zero_when_q_equals_p():
    rng = Rng(17)
    Y = rng.normals(10).reshape(5, 2)
    Q = fusion.student_t_affinities(Y)
    grad = fusion.tsne_gradient(Q, Q, Y)
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
    assert emb.final_kl <= emb.kl_history[99]
    assert len(emb.kl_history) == 400


def test_embed_bit_identical_for_fixed_seed():
    X, _ = two_clusters(n_per=10, dim=5, seed=9)
    params = fusion.TsneParams(perplexity=6, iterations=260, seed=4)
    a = fusion.tsne_embed(X, 2, params)
    b = fusion.tsne_embed(X, 2, params)
    assert np.array_equal(a.Y, b.Y)
    assert a.kl_history == b.kl_history


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
