"""Extreme learning machine regression.

Input weights and hidden biases are drawn once at random and never trained;
only the output weights are solved, as the minimum-norm least-squares
solution of the hidden-layer system. Features are z-scored and the target is
min-max scaled to [0, 1] with training statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import Rng

SVD_CUTOFF = 1e-10  # singular values below cutoff * sigma_max count as zero


ACTIVATIONS = {
    "sigmoid": lambda u: 1.0 / (1.0 + np.exp(-u)),
    "tanh": np.tanh,
}


def _activation(name: str):
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return ACTIVATIONS[name]


@dataclass(frozen=True)
class Normalization:
    feat_means: np.ndarray
    feat_sds: np.ndarray
    target_min: float
    target_max: float

    def transform_x(self, X: np.ndarray) -> np.ndarray:
        return (X - self.feat_means) / self.feat_sds

    def scale_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_min) / (self.target_max - self.target_min)

    def unscale_y(self, y: np.ndarray) -> np.ndarray:
        return y * (self.target_max - self.target_min) + self.target_min


def fit_normalization(X: np.ndarray, y: np.ndarray) -> Normalization:
    means = X.mean(axis=0)
    sds = X.std(axis=0)
    sds = np.where(sds == 0.0, 1.0, sds)  # constant columns pass through
    lo = float(y.min())
    hi = float(y.max())
    if hi == lo:
        raise ValueError("constant target: scaling degenerate")
    return Normalization(feat_means=means, feat_sds=sds, target_min=lo, target_max=hi)


@dataclass(frozen=True)
class ElmModel:
    omega: np.ndarray        # (l, n) input weights
    bias: np.ndarray         # (l,) hidden biases
    beta: np.ndarray         # (l, 1) output weights
    activation: str
    norm: Normalization
    hidden_l: int
    seed: int


def elm_init(n_inputs: int, hidden_l: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random input weights and biases, i.i.d. uniform on [-1, 1]."""
    if n_inputs < 1 or hidden_l < 1:
        raise ValueError("need at least one input and one hidden node")
    rng = Rng(seed)
    omega = rng.uniforms(hidden_l * n_inputs, -1.0, 1.0).reshape(hidden_l, n_inputs)
    bias = rng.uniforms(hidden_l, -1.0, 1.0)
    return omega, bias


def elm_hidden(X: np.ndarray, omega: np.ndarray, bias: np.ndarray,
               activation: str = "sigmoid") -> np.ndarray:
    """Hidden-layer output H[i, j] = g(omega_j . x_i + b_j)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != omega.shape[1]:
        raise ValueError(f"feature dim {X.shape[1]} != weight dim {omega.shape[1]}")
    if omega.shape[0] != bias.shape[0]:
        raise ValueError("omega rows must match bias length")
    return _activation(activation)(X @ omega.T + bias)


def elm_solve_beta(H: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of H beta ~= T via SVD.

    Singular values below SVD_CUTOFF * sigma_max are treated as zero, so
    rank-deficient hidden layers still yield the Moore-Penrose solution.
    """
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    if T.ndim == 1:
        T = T[:, None]
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(T))):
        raise ValueError("non-finite entries in hidden matrix or targets")
    u, s, vt = np.linalg.svd(H, full_matrices=False)
    if s.size and s[0] > 0:
        inv_s = np.where(s > SVD_CUTOFF * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    else:
        inv_s = np.zeros_like(s)
    return vt.T @ (inv_s[:, None] * (u.T @ T))


def elm_fit(X: np.ndarray, y: np.ndarray, hidden_l: int = 40,
            activation: str = "sigmoid", seed: int = 0) -> ElmModel:
    """Fit an ELM with freshly drawn random weights."""
    omega, bias = elm_init(X.shape[1], hidden_l, seed)
    return elm_fit_with_weights(X, y, omega, bias, activation, seed=seed)


def elm_fit_with_weights(X: np.ndarray, y: np.ndarray, omega: np.ndarray,
                         bias: np.ndarray, activation: str = "sigmoid",
                         seed: int = 0) -> ElmModel:
    """Fit the output weights for given (omega, bias); used by the optimizer."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    hidden_l = omega.shape[0]
    if X.shape[0] < hidden_l:
        warnings.warn(
            f"fewer training rows ({X.shape[0]}) than hidden nodes ({hidden_l})",
            stacklevel=2,
        )
    norm = fit_normalization(X, y)
    H = elm_hidden(norm.transform_x(X), omega, bias, activation)
    beta = elm_solve_beta(H, norm.scale_y(y))
    return ElmModel(omega=omega, bias=bias, beta=beta, activation=activation,
                    norm=norm, hidden_l=hidden_l, seed=seed)


def elm_predict(model: ElmModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    H = elm_hidden(model.norm.transform_x(X), model.omega, model.bias, model.activation)
    return model.norm.unscale_y((H @ model.beta)[:, 0])


def elm_to_dict(model: ElmModel) -> dict:
    return {
        "kind": "elm",
        "seed": model.seed,
        "norm": {
            "means": model.norm.feat_means.tolist(),
            "sds": model.norm.feat_sds.tolist(),
            "tmin": model.norm.target_min,
            "tmax": model.norm.target_max,
        },
        "elm": {
            "l": model.hidden_l,
            "activation": model.activation,
            "omega": model.omega.tolist(),
            "b": model.bias.tolist(),
            "beta": model.beta[:, 0].tolist(),
        },
    }


def elm_from_dict(obj: dict) -> ElmModel:
    norm = Normalization(
        feat_means=np.array(obj["norm"]["means"], dtype=float),
        feat_sds=np.array(obj["norm"]["sds"], dtype=float),
        target_min=float(obj["norm"]["tmin"]),
        target_max=float(obj["norm"]["tmax"]),
    )
    section = obj["elm"]
    hidden_l = int(section["l"])
    omega = np.array(section["omega"], dtype=float)
    bias = np.array(section["b"], dtype=float)
    beta = np.array(section["beta"], dtype=float)
    if omega.ndim != 2 or len(omega) != hidden_l:
        raise ValueError(f"omega must be a matrix of l = {hidden_l} rows")
    if bias.shape != (hidden_l,) or beta.shape != (hidden_l,):
        raise ValueError(f"b and beta must each hold l = {hidden_l} numbers")
    return ElmModel(
        omega=omega,
        bias=bias,
        beta=beta[:, None],
        activation=section["activation"],
        norm=norm,
        hidden_l=hidden_l,
        seed=int(obj.get("seed", 0)),
    )
