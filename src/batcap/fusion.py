"""t-SNE feature fusion with perplexity calibration and KL-based screening.

High-dimensional affinities are Gaussian with per-point bandwidths calibrated
to a target perplexity; low-dimensional affinities use a Student-t kernel
with one degree of freedom. The embedding minimizes KL(P || Q) by gradient
descent with momentum and early exaggeration. Candidate output dimensions
are screened by their final KL value; a screen calibrates P once and embeds
every candidate dimension from it, spread over the usable CPUs with the same
bits as one after another. Out-of-sample rows are embedded a chunk of rows at
a time, with the same bits as one row at a time.
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
# The descent computes the KL every KL_EVERY iterations and at the last one.
KL_EVERY = 50
# While every |y| is below this, every Student-t kernel value and Q is positive.
Y_BOUND = 1e100
# Floats per (chunk, n_train, features) temporary in embed_new_points: 1 MiB.
OOS_CHUNK_ELEMENTS = 1 << 17


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
    kl_history: list[tuple[int, float]]
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


def _squared_distances(X: np.ndarray, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared distances |x_i|^2 + |x_j|^2 - 2 x_i.x_j, clipped at 0,
    zero diagonal. Written into the (n, n) buffer ``out`` and computed through
    the (n, n) buffer ``scratch`` when they are given, so a loop can reuse them.
    """
    sq = np.sum(X * X, axis=1)
    d2 = np.add(sq[:, None], sq[None, :], out=out)
    gram = np.matmul(X, X.T, out=scratch)
    gram *= 2.0
    d2 -= gram
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


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


def _student_t_kernel(Y: np.ndarray, w: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized Student-t kernel 1 / (1 + |y_i - y_j|^2), zero diagonal;
    ``w`` and ``scratch`` are optional (n, n) buffers as in _squared_distances."""
    w = _squared_distances(Y, w, scratch)
    w += 1.0
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    return w


def _kernel_gradient(P: np.ndarray, Q: np.ndarray, w: np.ndarray, Y: np.ndarray,
                     m: np.ndarray | None = None) -> np.ndarray:
    """KL gradient from the kernel w that Q was normalized from; ``m`` is an
    optional (n, n) buffer it overwrites."""
    m = np.subtract(P, Q, out=m)
    m *= w
    row_sums = m.sum(axis=1)
    return 4.0 * (row_sums[:, None] * Y - m @ Y)


def _effective_perplexity(params: TsneParams, n: int) -> float:
    return min(params.perplexity, (n - 1) / 3.0)


def tsne_embed(X: np.ndarray, d: int, params: TsneParams,
               affinities: AffinityMatrix | None = None) -> EmbeddingResult:
    """Embed X into d dimensions; deterministic for a fixed seed.

    The affinity matrix is exaggerated by a factor of 4 for the first 100
    iterations and left untouched afterwards. The true (unexaggerated) KL is
    computed after every ``KL_EVERY``-th position update and after the last
    one; kl_history holds those ``(iteration, KL)`` pairs, and final_kl is the
    last. The KL never feeds the update, so the cadence leaves Y unchanged.
    Any iteration whose Q is zero where P has mass raises, sampled or not.
    ``affinities``, when given, is the ``joint_affinities`` of X at the
    effective perplexity and is used instead of calibrating P again.
    """
    params.validate()
    X = np.asarray(X, dtype=float)
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    n = len(X)
    perplexity = _effective_perplexity(params, n)
    if affinities is None:
        affinities = joint_affinities(X, perplexity)
    elif affinities.P.shape != (n, n) or affinities.perplexity != perplexity:
        raise ValueError(f"affinities of shape {affinities.P.shape} at perplexity "
                         f"{affinities.perplexity} do not belong to {n} rows at "
                         f"perplexity {perplexity}")
    P = affinities.P
    P_exaggerated = P * EARLY_EXAGGERATION
    # KL terms with P = 0 contribute nothing; P is fixed, so find its support once.
    support = np.flatnonzero(P > 0)
    P_support = P.ravel()[support]

    rng = Rng(derive_seed(params.seed, "tsne-init", d))
    Y = rng.normals(n * d, 0.0, 1e-4).reshape(n, d)
    velocity = np.zeros_like(Y)
    kl_history: list[tuple[int, float]] = []
    # One kernel w per position update gives Q, the sampled KL and the next
    # step's gradient. Every (n, n) array lives in a buffer reused across
    # iterations, so the loop allocates nothing of that size.
    w, Q, m = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    Q_support = np.empty(len(support))
    _student_t_kernel(Y, w, m)
    np.divide(w, w.sum(), out=Q)
    for t in range(1, params.iterations + 1):
        P_t = P_exaggerated if t <= EXAGGERATION_ITERS else P
        grad = _kernel_gradient(P_t, Q, w, Y, m)
        momentum = MOMENTUM_EARLY if t < MOMENTUM_SWITCH_ITER else MOMENTUM_LATE
        velocity = momentum * velocity - LEARNING_RATE * grad
        Y = Y + velocity
        _student_t_kernel(Y, w, m)
        np.divide(w, w.sum(), out=Q)
        sampled = t % KL_EVERY == 0 or t == params.iterations
        # With every |y| < Y_BOUND, each squared distance is below 4 d Y_BOUND^2,
        # so each kernel value, and each Q, is positive: only a step past the
        # bound needs the support checked when it samples no KL.
        if not sampled and np.abs(Y).max() < Y_BOUND:
            continue
        np.take(Q.ravel(), support, out=Q_support)
        if np.any(Q_support == 0):
            raise ValueError("Q is zero where P has mass; KL undefined")
        if sampled:
            # P_s * log(P_s / Q_s), evaluated in place
            np.divide(P_support, Q_support, out=Q_support)
            np.log(Q_support, out=Q_support)
            Q_support *= P_support
            kl_history.append((t, float(np.sum(Q_support))))
    return EmbeddingResult(
        Y=Y,
        final_kl=kl_history[-1][1],
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
    """Embed at each candidate dimension from one calibrated P and recommend
    the smallest KL.

    Each dimension's embed draws from its own seed stream, so the embeds run
    across the usable CPUs (``parallel.ordered_map``) and give the same bits
    for any CPU count.
    """
    from .parallel import ordered_map  # here, so a cold predict does not load it
    params.validate()
    X = np.asarray(X, dtype=float)
    affinities = joint_affinities(X, _effective_perplexity(params, len(X)))
    dims = tuple(dims)
    embedded = ordered_map(lambda d: tsne_embed(X, d, params, affinities), dims)
    embeddings = dict(zip(dims, embedded))
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


def _k_nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest distances, in the order of a
    stable argsort: by distance, ties by index.

    A partition selects the k; a row whose k-th distance is tied with one
    left out, or is NaN, is sorted instead, so every row's k equal the sort's.
    """
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    part_dist = np.take_along_axis(dist, part, axis=1)
    kth = part_dist.max(axis=1, keepdims=True)
    nearest = np.take_along_axis(part, np.lexsort((part, part_dist), axis=1), axis=1)
    resort = np.count_nonzero(dist <= kth, axis=1) != k
    if resort.any():
        nearest[resort] = np.argsort(dist[resort], axis=1, kind="stable")[:, :k]
    return nearest


def embed_new_points(X_train: np.ndarray, Y_train: np.ndarray,
                     X_new: np.ndarray, k: int = 5) -> np.ndarray:
    """Out-of-sample embedding by inverse-distance weighting of the k nearest
    training points in the original feature space. An exact duplicate of a
    training row maps onto that row's embedding.

    Rows are embedded a chunk at a time, so the (chunk, n_train, features)
    temporaries stay near ``OOS_CHUNK_ELEMENTS`` floats; every row gets the
    same bits as it would alone.
    """
    X_train = np.asarray(X_train, dtype=float)
    Y_train = np.asarray(Y_train, dtype=float)
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    k = min(k, len(X_train))
    out = np.empty((len(X_new), Y_train.shape[1]))
    chunk = max(1, OOS_CHUNK_ELEMENTS // max(1, X_train.size))
    buffer = np.empty((min(chunk, len(X_new)),) + X_train.shape)
    for start in range(0, len(X_new), chunk):
        rows = X_new[start:start + chunk]
        diff = np.subtract(X_train[None, :, :], rows[:, None, :], out=buffer[:len(rows)])
        dist = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
        nearest = _k_nearest(dist, k)
        near_dist = np.take_along_axis(dist, nearest, axis=1)
        duplicate = near_dist[:, 0] == 0.0
        block = out[start:start + chunk]
        block[duplicate] = Y_train[nearest[duplicate, 0]]
        rest = ~duplicate
        weights = 1.0 / near_dist[rest]
        weights /= weights.sum(axis=1, keepdims=True)
        block[rest] = (weights[:, None, :] @ Y_train[nearest[rest]])[:, 0, :]
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
