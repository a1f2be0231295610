"""WOA-optimized ELM training, evaluation metrics, and comparison studies.

The optimizer searches directly over the flattened (omega, bias) vector of
the ELM within [-1, 1] bounds; candidate fitness is the training RMSE of the
ELM obtained by re-solving the output weights at that position. Each
iteration first bounds every whale's training RMSE from below with one
batched QR of the population's hidden layers (elm.residual_lower_bounds),
and the exact SVD fitness runs only for whales whose bound is below the best
so far; the others could not have changed the result. The bound is taken in
two stages: a capped bound that needs no SVD, then the singular values of R
only for the whales that the capped bound leaves below the best. The winning
position is retrained on the full training set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .correlation import pearson
from .data import split_rows
from .elm import (ACTIVATIONS, BOUND_SAFETY, UNIT_ROUNDOFF, ElmModel, elm_fit_with_weights,
                  elm_hidden, elm_predict, elm_solve_beta, fit_normalization,
                  residual_lower_bounds)
from .features import FEATURE_UNITS, FeatureMatrix
from .fusion import TsneParams, embed_new_points, scale_feature_groups, tsne_embed
from .rng import derive_seed
from .woa import WoaConfig, WoaResult, uniform_bounds, woa_optimize

FUSED_DIM = 2  # embedding dimension of fused models: fused_comparison, train --fused


@dataclass(frozen=True)
class TrainConfig:
    hidden_l: int = 40
    activation: str = "sigmoid"
    split_ratio: float = 0.7
    seed: int = 0
    woa_pop: int = 30
    woa_iters: int = 500
    spiral_b: float = 1.0

    def validate(self) -> None:
        if self.hidden_l < 1:
            raise ValueError("hidden_l must be >= 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must lie in (0, 1)")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.woa_pop < 2:
            raise ValueError("woa_pop must be >= 2")
        if self.woa_iters < 1:
            raise ValueError("woa_iters must be >= 1")


def decode_position(vector: np.ndarray, n_inputs: int,
                    hidden_l: int) -> tuple[np.ndarray, np.ndarray]:
    """Split search vectors (..., dim), omega row-major then bias, into
    omega (..., hidden_l, n_inputs) and bias (..., hidden_l)."""
    vector = np.atleast_1d(np.asarray(vector, dtype=float))
    n_omega = hidden_l * n_inputs
    if vector.shape[-1] != n_omega + hidden_l:
        raise ValueError(f"position length {vector.shape[-1]} != {n_omega + hidden_l}")
    omega = vector[..., :n_omega].reshape(*vector.shape[:-1], hidden_l, n_inputs)
    return omega, vector[..., n_omega:]


def woa_elm_train(X: np.ndarray, y: np.ndarray,
                  cfg: TrainConfig) -> tuple[ElmModel, WoaResult]:
    """Optimize the ELM's random layer with the whale algorithm.

    Returns the retrained model at the best position together with the
    optimizer result (best fitness and per-iteration history).
    """
    cfg.validate()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_inputs = X.shape[1]
    dim = cfg.hidden_l * n_inputs + cfg.hidden_l

    norm = fit_normalization(X, y)
    Xs = norm.transform_x(X)
    ys = norm.scale_y(y)
    span = norm.target_max - norm.target_min

    def fitness(position: np.ndarray) -> float:
        omega, bias = decode_position(position, n_inputs, cfg.hidden_l)
        H = elm_hidden(Xs, omega, bias, cfg.activation)
        beta = elm_solve_beta(H, ys)
        return rmse(norm.unscale_y((H @ beta)[:, 0]), y)

    # Residual norm -> RMSE: scale by span / sqrt(n), then allow for the
    # rounding of the unscaling and the RMSE (see residual_lower_bounds).
    to_rmse = span / math.sqrt(len(ys)) * (1.0 - BOUND_SAFETY * UNIT_ROUNDOFF)
    rmse_slack = BOUND_SAFETY * UNIT_ROUNDOFF * max(abs(norm.target_min), abs(norm.target_max))

    def fitness_floor(positions: np.ndarray, best: float) -> np.ndarray:
        omegas, biases = decode_position(positions, n_inputs, cfg.hidden_l)
        H = elm_hidden(Xs, omegas, biases, cfg.activation)
        # The best RMSE in residual units: stacks bounded at or above it need
        # no SVD. Rounding here moves only where the SVD runs; every value
        # returned is a valid bound either way.
        above = (best + rmse_slack) / to_rmse
        return residual_lower_bounds(H, ys, above) * to_rmse - rmse_slack

    woa_cfg = WoaConfig(
        dim=dim,
        bounds=uniform_bounds(dim, -1.0, 1.0),
        pop_size=cfg.woa_pop,
        t_max=cfg.woa_iters,
        spiral_b=cfg.spiral_b,
        seed=derive_seed(cfg.seed, "woa"),
    )
    result = woa_optimize(fitness, woa_cfg, lower_bound=fitness_floor)
    omega, bias = decode_position(result.best_position, n_inputs, cfg.hidden_l)
    model = elm_fit_with_weights(X, y, omega, bias, cfg.activation, seed=cfg.seed)
    return model, result


def standard_deviation(series) -> float:
    """Population standard deviation (divide by N)."""
    a = np.asarray(series, dtype=float)
    if a.size == 0:
        raise ValueError("empty series")
    return float(np.sqrt(np.mean((a - a.mean()) ** 2)))


def rmse(pred, actual) -> float:
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError("length mismatch")
    if p.size == 0:
        raise ValueError("empty series")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def r_squared(pred, actual) -> float:
    """Coefficient of determination: 1 - SSE / SST."""
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValueError("length mismatch")
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("constant actual series: R^2 undefined")
    return 1.0 - float(np.sum((a - p) ** 2)) / ss_tot


@dataclass(frozen=True)
class Metrics:
    rmse: float
    r2: float
    sd_pred: float
    sd_actual: float
    pearson_r: float


def compute_metrics(pred, actual) -> Metrics:
    return Metrics(
        rmse=rmse(pred, actual),
        r2=r_squared(pred, actual),
        sd_pred=standard_deviation(pred),
        sd_actual=standard_deviation(actual),
        pearson_r=pearson(pred, actual),
    )


@dataclass(frozen=True)
class TaylorPoint:
    name: str
    sd_pred: float
    pearson_r: float
    centered_rmse: float
    degenerate: bool = False


@dataclass(frozen=True)
class TaylorData:
    sd_actual: float
    points: tuple[TaylorPoint, ...]


def taylor_points(models: list[tuple[str, np.ndarray]], actual) -> TaylorData:
    """Per-model (SD, correlation, centered RMSE) triplets for the polar plot.

    Constant prediction vectors have no defined angle; they are flagged
    degenerate (r = 1 by convention) and drawn on the radius axis.
    """
    a = np.asarray(actual, dtype=float)
    sd_actual = standard_deviation(a)
    points = []
    for name, pred in models:
        p = np.asarray(pred, dtype=float)
        if p.shape != a.shape:
            raise ValueError(f"{name}: prediction length mismatch")
        sd_pred = standard_deviation(p)
        centered = rmse(p - p.mean(), a - a.mean())
        if sd_pred == 0.0:
            points.append(TaylorPoint(name, sd_pred, 1.0, centered, degenerate=True))
        else:
            points.append(TaylorPoint(name, sd_pred, pearson(p, a), centered))
    return TaylorData(sd_actual=sd_actual, points=tuple(points))


def taylor_to_dict(data: TaylorData) -> dict:
    return {
        "ref": {"sd_actual": data.sd_actual},
        "points": [
            {
                "name": pt.name,
                "sd_pred": pt.sd_pred,
                "pearson_r": pt.pearson_r,
                "centered_rmse": pt.centered_rmse,
                "degenerate": pt.degenerate,
            }
            for pt in data.points
        ],
    }


def render_taylor_svg(data: TaylorData, size: int = 480) -> str:
    """Quarter-polar Taylor diagram as standalone SVG text.

    Radius is the standard deviation, the angle is arccos(correlation), REF
    sits on the horizontal axis, and dashed arcs around REF mark centered
    RMSE levels. Points with negative correlation are clamped to the quarter.
    """
    margin = 50.0
    r_max = max([data.sd_actual] + [p.sd_pred for p in data.points]) * 1.15
    if r_max <= 0:
        r_max = 1.0
    scale = (size - 2 * margin) / r_max
    ox, oy = margin, size - margin

    def polar(radius: float, theta: float) -> tuple[float, float]:
        return ox + scale * radius * math.cos(theta), oy - scale * radius * math.sin(theta)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # SD grid arcs
    for frac in (0.25, 0.5, 0.75, 1.0):
        r = scale * r_max * frac
        x_end, y_end = ox, oy - r
        parts.append(
            f'<path d="M {ox + r:.2f} {oy:.2f} A {r:.2f} {r:.2f} 0 0 0 {x_end:.2f} {y_end:.2f}" '
            'fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
    parts.append(f'<line x1="{ox}" y1="{oy}" x2="{ox + scale * r_max:.2f}" y2="{oy}" '
                 'stroke="#333333" stroke-width="1"/>')
    parts.append(f'<line x1="{ox}" y1="{oy}" x2="{ox}" y2="{oy - scale * r_max:.2f}" '
                 'stroke="#333333" stroke-width="1"/>')
    # centered-RMSE arcs around REF
    ref_x, ref_y = polar(data.sd_actual, 0.0)
    for frac in (0.25, 0.5, 1.0):
        r = scale * data.sd_actual * frac
        parts.append(
            f'<circle cx="{ref_x:.2f}" cy="{ref_y:.2f}" r="{r:.2f}" fill="none" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4 3" class="crmse-arc"/>'
        )
    parts.append(
        f'<circle cx="{ref_x:.2f}" cy="{ref_y:.2f}" r="5" fill="#000000" class="ref-marker"/>'
    )
    parts.append(
        f'<text x="{ref_x + 8:.2f}" y="{ref_y - 8:.2f}" font-size="12">REF</text>'
    )
    palette = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for i, pt in enumerate(data.points):
        theta = 0.0 if pt.degenerate else math.acos(max(-1.0, min(1.0, pt.pearson_r)))
        theta = min(theta, math.pi / 2)
        x, y = polar(pt.sd_pred, theta)
        color = palette[i % len(palette)]
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}" class="model-marker"/>'
        )
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="11" fill="{color}">{pt.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class ComparisonArm:
    rmse: float
    train_r2: float
    test_r2: float
    wall_time_ms: float


@dataclass(frozen=True)
class FusionComparison:
    full: ComparisonArm
    fused: ComparisonArm


def fused_comparison(m: FeatureMatrix, cfg: TrainConfig) -> FusionComparison:
    """Train on all features and on the fused low-dimensional features.

    Both arms share the same train/test split; test rows enter the fused arm
    through out-of-sample embedding. Wall time covers the fit call only.
    """
    cfg.validate()
    split = split_rows(len(m.y), cfg.split_ratio, derive_seed(cfg.seed, "split"))
    train_idx, test_idx = list(split.train), list(split.test)
    X_train, y_train = m.X[train_idx], m.y[train_idx]
    X_test, y_test = m.X[test_idx], m.y[test_idx]

    def run_arm(xtr: np.ndarray, xte: np.ndarray) -> ComparisonArm:
        start = time.monotonic()
        model, _ = woa_elm_train(xtr, y_train, cfg)
        elapsed_ms = (time.monotonic() - start) * 1000.0
        pred_train = elm_predict(model, xtr)
        pred_test = elm_predict(model, xte)
        return ComparisonArm(
            rmse=rmse(pred_test, y_test),
            train_r2=r_squared(pred_train, y_train),
            test_r2=r_squared(pred_test, y_test),
            wall_time_ms=elapsed_ms,
        )

    full = run_arm(X_train, X_test)

    scaled_train, means, scales = scale_feature_groups(X_train, FEATURE_UNITS)
    embedding = tsne_embed(scaled_train, FUSED_DIM, TsneParams(seed=derive_seed(cfg.seed, "fuse")))
    fused_test = embed_new_points(scaled_train, embedding.Y, (X_test - means) / scales)
    fused = run_arm(embedding.Y, fused_test)
    return FusionComparison(full=full, fused=fused)


def comparison_to_dict(report: FusionComparison) -> dict:
    """Rows in the before/after/difference layout of the fusion study."""
    def pct_drop(before: float, after: float) -> float:
        return (before - after) / before * 100.0 if before != 0 else 0.0

    def pct_change(before: float, after: float) -> float:
        return (after - before) / before * 100.0 if before != 0 else 0.0

    full, fused = report.full, report.fused
    return {
        "fused_dim": FUSED_DIM,
        "rows": [
            {"item": "RMSE", "before_fusion": full.rmse, "after_fusion": fused.rmse,
             "diff_percent": pct_drop(full.rmse, fused.rmse)},
            {"item": "Training Data R2", "before_fusion": full.train_r2,
             "after_fusion": fused.train_r2,
             "diff_percent": pct_change(full.train_r2, fused.train_r2)},
            {"item": "Test Data R2", "before_fusion": full.test_r2,
             "after_fusion": fused.test_r2,
             "diff_percent": pct_change(full.test_r2, fused.test_r2)},
            {"item": "Time(mS)", "before_fusion": full.wall_time_ms,
             "after_fusion": fused.wall_time_ms,
             "diff_percent": pct_drop(full.wall_time_ms, fused.wall_time_ms)},
        ],
    }


def metrics_to_dict(name: str, n_train: int, n_test: int,
                    train: Metrics, test: Metrics) -> dict:
    return {
        "model": name,
        "n_train": n_train,
        "n_test": n_test,
        "train": {"rmse": train.rmse, "r2": train.r2},
        "test": {
            "rmse": test.rmse,
            "r2": test.r2,
            "sd_pred": test.sd_pred,
            "sd_actual": test.sd_actual,
            "pearson_r": test.pearson_r,
        },
    }
