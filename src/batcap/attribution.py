"""Exact Shapley attribution by full coalition enumeration.

The value of a coalition S is the model prediction on a hybrid input taking
coordinates in S from the explained instance and the rest from a background
vector. With M features all 2^M coalition values are evaluated in one batched
model call, so attributions are exact rather than sampled; M is capped at 20.
The masks, index arrays and weights depend only on M and are built once per M.
A summary explains its rows across the usable CPUs while M <= 15, with the
same bits as one row after another.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .parallel import MAX_WORKERS, ordered_map

MAX_FEATURES_EXACT = 20
# A summary runs its rows on several threads only while the (2^M, M) coalition
# matrix each thread holds stays small (0.85 MB at M = 13). Above M = 15 the
# rows run one after another, so one matrix is live at a time (168 MB at
# M = 20, plus a normalized copy in a fused model's predictor).
THREADED_ROW_BYTES = 1 << 22


@dataclass(frozen=True)
class AttributionReport:
    base_value: float
    phi: np.ndarray
    prediction: float
    feature_names: tuple[str, ...]


@lru_cache(maxsize=4)  # bounded: the tables for M = 20 hold about 280 MB
def _coalitions(m: int):
    """The (2^M, M) bool mask of each coalition bitmask and, per feature j,
    ``(without, with_j, w)``: the bitmasks lacking j, the same with j added,
    and the Shapley weight of each ``without`` coalition. Every caller shares
    these arrays, so they are read-only.
    """
    idx = np.arange(1 << m)
    bits = (idx[:, None] >> np.arange(m)[None, :]) & 1
    popcount = bits.sum(axis=1)
    # |S|! (M - |S| - 1)! / M!, computed as exact rationals first.
    weights = np.array([float(Fraction(factorial(s) * factorial(m - s - 1), factorial(m)))
                        for s in range(m)])
    masks = bits.astype(bool)
    terms = []
    for j in range(m):
        without = idx[(idx >> j) & 1 == 0]
        terms.append((without, without + (1 << j), weights[popcount[without]]))
    for a in [masks, *[x for term in terms for x in term]]:
        a.flags.writeable = False
    return masks, tuple(terms)


def _coalition_values(predict, x: np.ndarray, background: np.ndarray) -> np.ndarray:
    """Model value of every coalition, indexed by bitmask."""
    masks, _ = _coalitions(len(x))
    Z = np.where(masks, x[None, :], background[None, :])
    values = np.asarray(predict(Z), dtype=float).reshape(-1)
    if values.shape[0] != len(masks):
        raise ValueError("predictor must return one value per input row")
    if not np.all(np.isfinite(values)):
        raise ValueError("predictor returned non-finite values")
    return values


def _phi(values: np.ndarray, m: int) -> np.ndarray:
    """Shapley values of the M features from the 2^M coalition values."""
    _, terms = _coalitions(m)
    return np.array([float(np.sum(w * (values[with_j] - values[without])))
                     for without, with_j, w in terms])


def shapley_exact(predict, x, background, feature_names=None) -> AttributionReport:
    """Exact Shapley attribution of one prediction against a background.

    ``predict`` maps an (N, M) array to N values. Guarantees local accuracy:
    base_value + sum(phi) equals the prediction on the explained instance (up
    to float accumulation).
    """
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


def shapley_summary(predict, X, feature_names=None, background_mode: str = "mean",
                    background_rows=None) -> ShapleySummary:
    """Per-row attributions over a matrix plus the mean-|phi| ranking.

    The background is the mean or median of ``background_rows`` (default: X).
    The rows are independent, so they run across the usable CPUs
    (``parallel.ordered_map``) while M <= 15, with the same bits for any CPU
    count; the exception of the first failing row is the one raised.
    ``predict`` must be safe to call from several threads at once.
    """
    if background_mode not in ("mean", "median"):
        raise ValueError("background_mode must be 'mean' or 'median'")
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise ValueError("no rows to explain")
    B = X if background_rows is None else np.asarray(background_rows, dtype=float)
    background = B.mean(axis=0) if background_mode == "mean" else np.median(B, axis=0)
    if X.ndim == 2 and X.shape[1] <= MAX_FEATURES_EXACT:
        _coalitions(X.shape[1])  # build the shared tables once, before any thread
    m = X.shape[-1]
    workers = MAX_WORKERS if (8 << m) * m <= THREADED_ROW_BYTES else 1
    reports = ordered_map(lambda row: shapley_exact(predict, row, background, feature_names), X,
                          workers)
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


def summary_to_dict(summary: ShapleySummary) -> dict:
    """The shap.json object; ``interactions`` is always null (none are computed)."""
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
