"""Loading, serializing, and dispatching trained models of any kind.

model.json carries a ``kind`` tag (elm, woa-elm, knn, tree, forest, gbrt)
plus kind-specific sections. Models trained on fused features additionally
carry a ``fusion`` section with the scaler and training embedding needed to
map unseen 13-feature rows into the fused space. The baseline code is
imported only for the baseline kinds, so loading an ELM does not load it.
"""

from __future__ import annotations

import numpy as np

from .elm import elm_from_dict, elm_predict, elm_to_dict
from .fusion import embed_new_points
from .jsonio import load_json
from .names import FEATURE_NAMES

BASELINE_KINDS = ("knn", "tree", "forest", "gbrt")


def model_to_dict(model, kind: str, seed: int = 0,
                  fusion: dict | None = None) -> dict:
    if kind in ("elm", "woa-elm"):
        obj = elm_to_dict(model)
        obj["kind"] = kind
    elif kind in BASELINE_KINDS:
        from .baselines import baseline_to_dict
        obj = baseline_to_dict(model, kind, seed=seed)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    obj["seed"] = seed
    obj["fusion"] = fusion
    return obj


def fusion_section(means: np.ndarray, scales: np.ndarray, train_x_scaled: np.ndarray,
                   train_y: np.ndarray, k: int = 5) -> dict:
    return {
        "means": means.tolist(),
        "scales": scales.tolist(),
        "train_x": train_x_scaled.tolist(),
        "train_y": train_y.tolist(),
        "k": k,
    }


def make_predictor(obj: dict):
    """Build a batch prediction function from a model.json dict.

    Every section is decoded here, before the first prediction; a missing
    section, one of the wrong JSON type or shape, or a non-finite number
    raises ValueError naming the model kind. The model reads rows of the 13
    features, mapped first into the fused space when the model carries a
    fusion section, and its input width must be that of the rows it reads.
    """
    kind = obj.get("kind")
    if kind not in ("elm", "woa-elm", *BASELINE_KINDS):
        raise ValueError(f"unknown model kind {kind!r}")
    n = len(FEATURE_NAMES)
    try:
        fusion = obj.get("fusion")
        width = n
        if fusion is not None:
            means = np.array(fusion["means"], dtype=float)
            scales = np.array(fusion["scales"], dtype=float)
            train_x = np.array(fusion["train_x"], dtype=float)
            train_y = np.array(fusion["train_y"], dtype=float)
            k = int(fusion["k"])
            if means.shape != (n,) or scales.shape != (n,):
                raise ValueError(f"fusion means and scales must each hold {n} numbers")
            if train_x.ndim != 2 or train_y.ndim != 2 or len(train_x) != len(train_y):
                raise ValueError("fusion train_x and train_y must be matrices of equal row count")
            if train_x.shape[1] != n:
                raise ValueError(f"fusion train_x must have {n} columns")
            if k < 1:
                raise ValueError("fusion k must be >= 1")
            if not all(np.all(np.isfinite(a)) for a in (means, scales, train_x, train_y)):
                raise ValueError("fusion numbers must be finite")
            width = train_y.shape[1]
        if kind in BASELINE_KINDS:
            from .baselines import baseline_from_dict
            base = baseline_from_dict(obj, width).predict
        else:
            model = elm_from_dict(obj)
            if model.omega.shape[1] != width:
                raise ValueError(f"omega has {model.omega.shape[1]} columns, "
                                 f"but the model reads {width} inputs")
            base = lambda X: elm_predict(model, X)
    except (ValueError, OverflowError, KeyError, TypeError, IndexError, AttributeError) as exc:
        detail = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        raise ValueError(f"malformed {kind} model: {detail}") from None
    if fusion is None:
        return base

    def predict(X):
        Z = (np.atleast_2d(np.asarray(X, dtype=float)) - means) / scales
        embedded = embed_new_points(train_x, train_y, Z, k=k)
        return base(embedded)

    return predict


def load_model(path) -> dict:
    return load_json(path)
