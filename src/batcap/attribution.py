"""Exact Shapley attribution by full coalition enumeration.

The value of a coalition S is the model prediction on a hybrid input taking
coordinates in S from the explained instance and the rest from a background
vector. With M features all 2^M coalition values are evaluated in one batched
model call, so attributions are exact rather than sampled; M is capped at 20
(and at 12 for pairwise interactions, which need 2^M per pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

MAX_FEATURES_EXACT = 20
MAX_FEATURES_INTERACTION = 12


def as_predict_fn(model):
    """Accept either a fitted model with .predict or a bare callable."""
    if hasattr(model, "predict"):
        return model.predict
    if callable(model):
        return model
    raise TypeError("predictor must be callable or expose .predict")


@dataclass(frozen=True)
class AttributionReport:
    base_value: float
    phi: np.ndarray
    prediction: float
    feature_names: tuple[str, ...]


@dataclass(frozen=True)
class InteractionMatrix:
    values: np.ndarray  # (M, M), symmetric; diagonal = main effects
    feature_names: tuple[str, ...]


def _coalition_values(predict, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Model value of every coalition, indexed by bitmask."""
    m = len(x)
    n_masks = 1 << m
    masks = ((np.arange(n_masks)[:, None] >> np.arange(m)[None, :]) & 1).astype(bool)
    Z = np.where(masks, x[None, :], background[None, :])
    values = np.asarray(predict(Z), dtype=float).reshape(-1)
    if values.shape[0] != n_masks:
        raise ValueError("predictor must return one value per input row")
    if not np.all(np.isfinite(values)):
        raise ValueError("predictor returned non-finite values")
    return values


def _popcounts(n_masks: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(n_masks)])


def _shapley_weights(m: int) -> np.ndarray:
    # |S|! (M - |S| - 1)! / M!, computed as exact rationals first.
    return np.array(
        [float(Fraction(factorial(s) * factorial(m - s - 1), factorial(m)))
         for s in range(m)]
    )


def _phi(values: np.ndarray, m: int) -> np.ndarray:
    """Shapley values of the M features from the 2^M coalition values."""
    pc = _popcounts(len(values))
    weights = _shapley_weights(m)
    idx = np.arange(len(values))
    phi = np.empty(m)
    for j in range(m):
        without = idx[(idx >> j) & 1 == 0]
        with_j = without + (1 << j)
        phi[j] = float(np.sum(weights[pc[without]] * (values[with_j] - values[without])))
    return phi


def shapley_exact(model, x, background, feature_names=None) -> AttributionReport:
    """Exact Shapley attribution of one prediction against a background.

    Guarantees local accuracy: base_value + sum(phi) equals the prediction on
    the explained instance (up to float accumulation).
    """
    predict = as_predict_fn(model)
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float).reshape(-1)
    m = len(x)
    if len(background) != m:
        raise ValueError("instance and background must have the same length")
    if m > MAX_FEATURES_EXACT:
        raise ValueError(
            f"{m} features exceed the exact-enumeration cap of {MAX_FEATURES_EXACT}; "
            "fuse features first"
        )
    values = _coalition_values(predict, x, background)
    names = tuple(feature_names) if feature_names else tuple(f"F{i+1}" for i in range(m))
    return AttributionReport(
        base_value=float(values[0]),
        phi=_phi(values, m),
        prediction=float(values[-1]),
        feature_names=names,
    )


@dataclass(frozen=True)
class ShapleySummary:
    base_value: float
    mean_abs_phi: np.ndarray
    ranking: tuple[str, ...]
    phi_table: np.ndarray       # (N, M)
    predictions: np.ndarray     # (N,)
    feature_names: tuple[str, ...]
    background: np.ndarray


def shapley_summary(model, X, feature_names=None, background_mode: str = "mean",
                    background_rows=None) -> ShapleySummary:
    """Per-row attributions over a matrix plus the mean-|phi| ranking.

    The background is the mean or median of ``background_rows`` (default: X).
    """
    if background_mode not in ("mean", "median"):
        raise ValueError("background_mode must be 'mean' or 'median'")
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("no rows to explain")
    B = X if background_rows is None else np.asarray(background_rows, dtype=float)
    background = B.mean(axis=0) if background_mode == "mean" else np.median(B, axis=0)
    reports = [shapley_exact(model, row, background, feature_names) for row in X]
    phi_table = np.stack([r.phi for r in reports])
    mean_abs = np.abs(phi_table).mean(axis=0)
    names = reports[0].feature_names
    order = sorted(range(len(names)), key=lambda j: (-mean_abs[j], j))
    return ShapleySummary(
        base_value=reports[0].base_value,
        mean_abs_phi=mean_abs,
        ranking=tuple(names[j] for j in order),
        phi_table=phi_table,
        predictions=np.array([r.prediction for r in reports]),
        feature_names=names,
        background=background,
    )


def interaction_matrix(model, x, background, feature_names=None) -> InteractionMatrix:
    """Pairwise Shapley interaction values; diagonal makes rows sum to phi."""
    predict = as_predict_fn(model)
    x = np.asarray(x, dtype=float).reshape(-1)
    background = np.asarray(background, dtype=float).reshape(-1)
    m = len(x)
    if m > MAX_FEATURES_INTERACTION:
        raise ValueError(
            f"{m} features exceed the interaction cap of {MAX_FEATURES_INTERACTION}"
        )
    if m < 2:
        raise ValueError("interactions need at least 2 features")
    values = _coalition_values(predict, x, background)
    pc = _popcounts(len(values))
    idx = np.arange(len(values))
    # |S|! (M - |S| - 2)! / (2 (M - 1)!) for |S| = 0 .. M-2
    pair_weights = np.array(
        [float(Fraction(factorial(s) * factorial(m - s - 2), 2 * factorial(m - 1)))
         for s in range(m - 1)]
    )
    inter = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            both_clear = idx[((idx >> i) & 1 == 0) & ((idx >> j) & 1 == 0)]
            v_s = values[both_clear]
            v_i = values[both_clear + (1 << i)]
            v_j = values[both_clear + (1 << j)]
            v_ij = values[both_clear + (1 << i) + (1 << j)]
            delta = v_ij - v_i - v_j + v_s
            val = float(np.sum(pair_weights[pc[both_clear]] * delta))
            inter[i, j] = val
            inter[j, i] = val
    phi = _phi(values, m)
    for i in range(m):
        inter[i, i] = phi[i] - (inter[i].sum() - inter[i, i])
    names = tuple(feature_names) if feature_names else tuple(f"F{i+1}" for i in range(m))
    return InteractionMatrix(values=inter, feature_names=names)


def summary_to_dict(summary: ShapleySummary) -> dict:
    """The shap.json object; pairwise interactions are left to interaction_matrix."""
    return {
        "base_value": summary.base_value,
        "feature_names": list(summary.feature_names),
        "mean_abs_phi": summary.mean_abs_phi.tolist(),
        "ranking": list(summary.ranking),
        "per_sample": [
            {"phi": phi.tolist(), "prediction": float(pred)}
            for phi, pred in zip(summary.phi_table, summary.predictions)
        ],
        "interactions": None,
    }
