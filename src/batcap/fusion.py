"""t-SNE feature fusion with perplexity calibration and KL-based screening.

High-dimensional affinities are Gaussian with per-point bandwidths calibrated
to a target perplexity; low-dimensional affinities use a Student-t kernel
with one degree of freedom. The embedding minimizes KL(P || Q) by gradient
descent with momentum and early exaggeration. Candidate output dimensions
are screened by their final KL value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import Rng, derive_seed

EARLY_EXAGGERATION = 4.0
EXAGGERATION_ITERS = 100
MOMENTUM_SWITCH_ITER = 250
MOMENTUM_EARLY = 0.5
MOMENTUM_LATE = 0.8
LEARNING_RATE = 200.0


@dataclass(frozen=True)
class TsneParams:
    perplexity: float = 30.0
    iterations: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if self.perplexity < 2:
            raise ValueError("perplexity must be >= 2")
        if self.iterations < 250:
            raise ValueError("iterations must be >= 250")


@dataclass(frozen=True)
class AffinityMatrix:
    P: np.ndarray
    perplexity: float
    sigmas: np.ndarray


@dataclass(frozen=True)
class EmbeddingResult:
    Y: np.ndarray
    final_kl: float
    kl_history: list[float]
    params: TsneParams


def _entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def _conditional_row(sq_distances: np.ndarray, sigma: float) -> np.ndarray:
    logits = -sq_distances / (2.0 * sigma * sigma)
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def calibrate_sigma(sq_distances: np.ndarray, target_perplexity: float,
                    tol: float = 1e-5, max_steps: int = 200) -> float:
    """Bandwidth sigma such that 2^H(P_row) hits the target perplexity.

    Bisection over sigma after growing a geometric bracket; entropy is
    monotone increasing in sigma, so the bracket always closes.
    """
    d2 = np.asarray(sq_distances, dtype=float)
    if np.all(d2 == 0):
        raise ValueError("all squared distances are zero: duplicate points")
    if target_perplexity >= len(d2) + 1:
        raise ValueError("target perplexity must be below the neighbor count")

    def perp(sigma: float) -> float:
        return 2.0 ** _entropy_bits(_conditional_row(d2, sigma))

    sigma = float(np.sqrt(d2[d2 > 0].mean()))
    lo, hi = sigma, sigma
    for _ in range(64):
        if perp(lo) <= target_perplexity:
            break
        lo /= 2.0
    for _ in range(64):
        if perp(hi) >= target_perplexity:
            break
        hi *= 2.0
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        p = perp(mid)
        if abs(p - target_perplexity) <= tol:
            return mid
        if p > target_perplexity:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _squared_distances(X: np.ndarray) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def joint_affinities(X: np.ndarray, perplexity: float) -> AffinityMatrix:
    """Symmetrized joint affinities P with calibrated per-point bandwidths."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    if n < 4:
        raise ValueError("need at least 4 points")
    d2 = _squared_distances(X)
    off_diag = ~np.eye(n, dtype=bool)
    dup = np.argwhere((d2 == 0.0) & off_diag)
    if len(dup):
        i, j = dup[0]
        raise ValueError(f"duplicate rows {i} and {j}; deduplicate before fusing")
    cond = np.zeros((n, n))
    sigmas = np.empty(n)
    for i in range(n):
        row_d2 = np.delete(d2[i], i)
        sigmas[i] = calibrate_sigma(row_d2, perplexity)
        row = _conditional_row(row_d2, sigmas[i])
        cond[i, np.arange(n) != i] = row
    P = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(P, 0.0)
    return AffinityMatrix(P=P, perplexity=perplexity, sigmas=sigmas)


def student_t_affinities(Y: np.ndarray) -> np.ndarray:
    """Low-dimensional affinities under the heavy-tailed Student-t kernel."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    w = 1.0 / (1.0 + _squared_distances(Y))
    np.fill_diagonal(w, 0.0)
    return w / w.sum()


def kl_divergence(P: np.ndarray, Q: np.ndarray) -> float:
    """KL(P || Q) in nats; terms with P = 0 contribute nothing."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ValueError("shape mismatch")
    mask = P > 0
    if np.any(Q[mask] == 0):
        raise ValueError("Q is zero where P has mass; KL undefined")
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])))


def tsne_gradient(P: np.ndarray, Q: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Analytic gradient of KL(P || Q) under the Student-t kernel."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    w = 1.0 / (1.0 + _squared_distances(Y))
    np.fill_diagonal(w, 0.0)
    m = (P - Q) * w
    row_sums = m.sum(axis=1)
    return 4.0 * (row_sums[:, None] * Y - m @ Y)


def tsne_embed(X: np.ndarray, d: int, params: TsneParams) -> EmbeddingResult:
    """Embed X into d dimensions; deterministic for a fixed seed.

    The affinity matrix is exaggerated by a factor of 4 for the first 100
    iterations and left untouched afterwards; kl_history records the true
    (unexaggerated) KL after every position update.
    """
    params.validate()
    X = np.asarray(X, dtype=float)
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    n = len(X)
    perplexity = min(params.perplexity, (n - 1) / 3.0)
    aff = joint_affinities(X, perplexity)
    P = aff.P
    P_exaggerated = P * EARLY_EXAGGERATION

    rng = Rng(derive_seed(params.seed, "tsne-init", d))
    Y = rng.normals(n * d, 0.0, 1e-4).reshape(n, d)
    velocity = np.zeros_like(Y)
    kl_history: list[float] = []
    Q = student_t_affinities(Y)
    for t in range(1, params.iterations + 1):
        P_t = P_exaggerated if t <= EXAGGERATION_ITERS else P
        grad = tsne_gradient(P_t, Q, Y)
        momentum = MOMENTUM_EARLY if t < MOMENTUM_SWITCH_ITER else MOMENTUM_LATE
        velocity = momentum * velocity - LEARNING_RATE * grad
        Y = Y + velocity
        Q = student_t_affinities(Y)  # this step's KL and the next step's gradient
        kl_history.append(kl_divergence(P, Q))
    return EmbeddingResult(
        Y=Y,
        final_kl=kl_history[-1],
        kl_history=kl_history,
        params=replace(params, perplexity=perplexity),
    )


@dataclass(frozen=True)
class ScreeningResult:
    embeddings: dict[int, EmbeddingResult]
    kl_by_dim: dict[int, float]
    recommended_d: int


def screen_dimensions(X: np.ndarray, dims=(1, 2, 3),
                      params: TsneParams = TsneParams()) -> ScreeningResult:
    """Embed at each candidate dimension and recommend the smallest KL."""
    embeddings = {}
    for d in dims:
        embeddings[d] = tsne_embed(X, d, params)
    kl_by_dim = {d: e.final_kl for d, e in embeddings.items()}
    recommended = min(sorted(kl_by_dim), key=lambda d: kl_by_dim[d])
    return ScreeningResult(embeddings=embeddings, kl_by_dim=kl_by_dim,
                           recommended_d=recommended)


def scale_feature_groups(X: np.ndarray, units) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center columns and scale each unit group by its pooled deviation.

    Columns sharing a physical unit keep their relative magnitudes, so a
    sensor-noise column of microscopic variance is not inflated to the same
    distance weight as a strongly varying column of the same unit (which
    per-column z-scoring would do).
    """
    X = np.asarray(X, dtype=float)
    units = list(units)
    if len(units) != X.shape[1]:
        raise ValueError("one unit label per column required")
    means = X.mean(axis=0)
    centered = X - means
    scales = np.empty(X.shape[1])
    for unit in set(units):
        idx = [j for j, u in enumerate(units) if u == unit]
        pooled = float(np.sqrt(np.mean(centered[:, idx].var(axis=0))))
        scales[idx] = pooled if pooled > 0.0 else 1.0
    return centered / scales, means, scales


def embed_new_points(X_train: np.ndarray, Y_train: np.ndarray,
                     X_new: np.ndarray, k: int = 5) -> np.ndarray:
    """Out-of-sample embedding by inverse-distance weighting of the k nearest
    training points in the original feature space. An exact duplicate of a
    training row maps onto that row's embedding."""
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


def screening_to_dict(result: ScreeningResult, params: TsneParams,
                      force_dim: int | None = None) -> dict:
    recommended = force_dim if force_dim is not None else result.recommended_d
    return {
        "dims": [
            {"d": d, "final_kl": emb.final_kl, "y": emb.Y.tolist()}
            for d, emb in sorted(result.embeddings.items())
        ],
        "recommended_d": recommended,
        "params": {
            "perplexity": params.perplexity,
            "learning_rate": LEARNING_RATE,
            "iterations": params.iterations,
            "seed": params.seed,
        },
    }
