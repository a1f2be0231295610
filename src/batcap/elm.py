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
BOUND_SAFETY = 100.0  # C of residual_lower_bounds: margin over the rounding errors
UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Rows per elm_predict block: the (block, l) hidden layer stays cache-sized.
PREDICT_BLOCK_ROWS = 1024


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
    """Hidden-layer output H[i, j] = g(omega_j . x_i + b_j).

    A stack of weights, omega (pop, l, n) with bias (pop, l), gives a stack
    of hidden layers (pop, rows, l).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != omega.shape[-1]:
        raise ValueError(f"feature dim {X.shape[1]} != weight dim {omega.shape[-1]}")
    if omega.shape[:-1] != bias.shape:
        raise ValueError("omega rows must match bias length")
    return _activation(activation)(X @ np.swapaxes(omega, -1, -2) + bias[..., None, :])


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


def residual_lower_bounds(H: np.ndarray, T: np.ndarray, above: float = np.inf) -> np.ndarray:
    """Lower bounds on ||H_k beta_k - T|| for a stack H of shape (pop, n, l).

    beta_k is what elm_solve_beta returns for H_k, and the norm is the
    rounded one a caller computes from it. One batched Householder QR of
    [H_k | T] gives R_k, and |R_k[l, l]| is dist(T, range(H_k)), the
    least-squares residual.

    Why the bound holds. In exact arithmetic, any beta leaves a residual of
    at least dist(T, range(H)); the SVD solve, which keeps only the sigma_i
    above SVD_CUTOFF * sigma_1, fits against a subspace of range(H) and can
    only do worse. Rounding moves each side:

    - Householder QR is backward stable (Golub & Van Loan, Matrix
      Computations, sec. 5.3; Higham, Accuracy and Stability of Numerical
      Algorithms, ch. 19-20). The computed |R[l, l]| is exactly
      dist(T + dT, range(H + dH)) with ||dT|| ~ u ||T|| and
      ||dH|| ~ u ||H||. Evaluated at the computed SVD solution beta, that
      distance is at most ||H beta - T|| + ||dT|| + ||dH|| ||beta||.
    - beta has ||beta|| <= ||T|| / sigma_kept, where sigma_kept is the
      smallest singular value the SVD solve keeps. sigma_1 / sigma_kept is
      at most sigma_1 / sigma_min and, by the cutoff, at most 1 / SVD_CUTOFF;
      so ||dH|| ||beta|| ~ u kappa_eff ||T|| with
      kappa_eff = min(sigma_1 / sigma_min, 1 / SVD_CUTOFF). Rounding in
      forming H beta and its difference from T is of the same size.

    So |R[l, l]| - C * u * kappa_eff * ||T|| bounds the rounded residual from
    below. The singular values come from R[:l, :l], which has those of H up
    to the same u ||H||. The worst-case constants of these bounds grow like
    n * l and are far from sharp; C = BOUND_SAFETY = 100 is a margin over the
    observed errors: at most 0.1 * u * kappa_eff * ||T|| over the hidden-layer
    stacks of tests/test_elm.py, and at most 0.03 over every whale of
    30 x 40 WOA-ELM fits on 13 and 2 inputs, sigmoid and tanh.

    Two stages. Since kappa_eff <= 1 / SVD_CUTOFF, the capped bound
    |R[l, l]| - C * u * ||T|| / SVD_CUTOFF needs no SVD and is a valid lower
    bound too. It is never above the bound with kappa_eff: the computed
    kappa is at most the rounded 1 / SVD_CUTOFF (the rounding of
    SVD_CUTOFF * sigma_1 moves the quotient by less than half an ulp), and
    both are taken through the same operations in the same order. Every
    stack first gets the capped bound. A stack whose capped bound is at or
    above ``above`` keeps it; the caller has decided it already. The
    others, and NaN ones, get the bound with kappa_eff from the singular
    values of R[:l, :l], bit for bit as with ``above = inf``, which takes
    the SVD for every stack.

    A caller in RMSE units multiplies by span / sqrt(n), where
    span = target_max - target_min. Unscaling the predictions
    (y * span + target_min) and taking the RMSE add an absolute error of
    about u * max|y| and a relative one of a few u; pipeline.woa_elm_train
    subtracts both, scaled by C.

    With n <= l rows there is no R[l, l]: the bound is -inf, which decides
    nothing. A NaN bound (non-finite input) must be read as "evaluate".
    """
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float).reshape(-1)
    pop, n, l = H.shape
    if n <= l:
        return np.full(pop, -np.inf)
    aug = np.concatenate([H, np.broadcast_to(T[None, :, None], (pop, n, 1))], axis=2)
    R = np.linalg.qr(aug, mode="r")
    residual = np.abs(R[:, l, l])
    t_norm = np.linalg.norm(T)
    bounds = residual - BOUND_SAFETY * UNIT_ROUNDOFF * (1.0 / SVD_CUTOFF) * t_norm
    undecided = ~(bounds >= above)
    if undecided.any():
        s = np.linalg.svd(R[undecided, :l, :l], compute_uv=False)
        with np.errstate(invalid="ignore"):  # sigma_1 = 0 gives NaN: evaluate
            kappa = s[:, 0] / np.maximum(s[:, -1], SVD_CUTOFF * s[:, 0])
        bounds[undecided] = residual[undecided] - BOUND_SAFETY * UNIT_ROUNDOFF * kappa * t_norm
    return bounds


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
    """Predictions for the rows of X, in original target units.

    Rows run in blocks of PREDICT_BLOCK_ROWS, so each block's temporaries
    stay cache-sized, and every row gets the same bits as in one pass over
    all rows. A block of one row would take BLAS's matrix-vector path,
    which rounds differently, so a one-row tail joins the block before it.
    A row far outside the training rows saturates the sigmoid: its exp
    overflows to inf, silently, and the unit reads 0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = len(X)
    stops = list(range(PREDICT_BLOCK_ROWS, n, PREDICT_BLOCK_ROWS))
    if stops and n - stops[-1] == 1:
        stops.pop()
    out = np.empty(n)
    for start, stop in zip([0, *stops], [*stops, n]):
        with np.errstate(over="ignore"):
            H = elm_hidden(model.norm.transform_x(X[start:stop]), model.omega, model.bias,
                           model.activation)
        out[start:stop] = model.norm.unscale_y((H @ model.beta)[:, 0])
    return out


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
    n_inputs = omega.shape[1]
    if norm.feat_means.shape != (n_inputs,) or norm.feat_sds.shape != (n_inputs,):
        raise ValueError(f"norm means and sds must each hold {n_inputs} numbers, "
                         "one per omega column")
    numbers = (omega, bias, beta, norm.feat_means, norm.feat_sds, norm.target_min, norm.target_max)
    if not all(np.all(np.isfinite(a)) for a in numbers):
        raise ValueError("model numbers must be finite")
    activation = section["activation"]
    if not isinstance(activation, str) or activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}, got {activation!r}")
    return ElmModel(
        omega=omega,
        bias=bias,
        beta=beta[:, None],
        activation=activation,
        norm=norm,
        hidden_l=hidden_l,
        seed=int(obj.get("seed", 0)),
    )
