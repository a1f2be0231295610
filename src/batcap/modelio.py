"""Loading, serializing, and dispatching trained models of any kind.

model.json carries a ``kind`` tag (elm, woa-elm, knn, tree, forest, gbrt)
plus kind-specific sections. Models trained on fused features additionally
carry a ``fusion`` section with the scaler and training embedding needed to
map unseen 13-feature rows into the fused space.
"""

from __future__ import annotations

import numpy as np

from .baselines import baseline_from_dict, baseline_to_dict
from .elm import elm_from_dict, elm_predict, elm_to_dict
from .fusion import embed_new_points
from .jsonio import load_json

BASELINE_KINDS = ("knn", "tree", "forest", "gbrt")


def model_to_dict(model, kind: str, seed: int = 0,
                  fusion: dict | None = None) -> dict:
    if kind in ("elm", "woa-elm"):
        obj = elm_to_dict(model)
        obj["kind"] = kind
    elif kind in BASELINE_KINDS:
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

    Every section is decoded here, before the first prediction; a section of
    the wrong JSON type raises ValueError naming the model kind.
    """
    kind = obj["kind"]
    try:
        if kind in ("elm", "woa-elm"):
            model = elm_from_dict(obj)
            base = lambda X: elm_predict(model, X)
        elif kind in BASELINE_KINDS:
            base = baseline_from_dict(obj).predict
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        fusion = obj.get("fusion")
        if fusion is None:
            return base
        means = np.array(fusion["means"], dtype=float)
        scales = np.array(fusion["scales"], dtype=float)
        train_x = np.array(fusion["train_x"], dtype=float)
        train_y = np.array(fusion["train_y"], dtype=float)
        k = int(fusion["k"])
    except (TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} model: {type(exc).__name__}: {exc}") from None

    def predict(X):
        Z = (np.atleast_2d(np.asarray(X, dtype=float)) - means) / scales
        embedded = embed_new_points(train_x, train_y, Z, k=k)
        return base(embedded)

    return predict


def load_model(path) -> dict:
    return load_json(path)
