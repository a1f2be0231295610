"""Pearson correlation and grey relational analysis of features vs. target."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix

PCC_LOW_CUTOFF = 0.4
PCC_HIGH_CUTOFF = 0.7
DEFAULT_RHO = 0.5


def pearson(x, y) -> float:
    """Product-moment correlation coefficient between two series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("series must be 1-D and equally long")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    # Overflow shows as a non-finite r or spread product, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Corrected two-pass centring: the rounded mean leaves a common offset in
        # every deviation, which matters when the spread is tiny against the level.
        dx = x - x.mean()
        dx -= dx.mean()
        dy = y - y.mean()
        dy -= dy.mean()
        sx = float(np.sqrt(np.sum(dx * dx)))
        sy = float(np.sqrt(np.sum(dy * dy)))
        if sx == 0.0 or sy == 0.0:
            raise ValueError("constant series: correlation undefined")
        r = float(np.sum(dx * dy) / (sx * sy))
    if not (np.isfinite(r) and np.isfinite(sx * sy)):
        raise ValueError("series overflow: correlation not representable")
    # Floating guard: keep within [-1, 1]; a NaN r would pass it as 1.0.
    return max(-1.0, min(1.0, r))


def classify_strength(r: float) -> str:
    """Map |r| to the low / significant / high linear-correlation tiers."""
    a = abs(r)
    if a > 1.0:
        raise ValueError(f"|r| = {a} exceeds 1")
    if a < PCC_LOW_CUTOFF:
        return "low"
    if a < PCC_HIGH_CUTOFF:
        return "significant"
    return "high"


def _mean_normalize(series: np.ndarray, label: str) -> np.ndarray:
    mean = series.mean()
    if mean == 0.0:
        raise ValueError(f"{label}: zero-mean series, normalization undefined")
    return series / mean


def grey_coefficients(reference, comparisons, rho: float = DEFAULT_RHO) -> np.ndarray:
    """Relational coefficients of each comparison series against the reference.

    Every series is divided by its own mean first; the min/max deviations are
    taken over the whole comparison batch (two-level min-max). Returns an
    array of shape (n_series, n_points) with entries in (0, 1].
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    x0 = _mean_normalize(np.asarray(reference, dtype=float), "reference")
    series = [np.asarray(c, dtype=float) for c in comparisons]
    if not series:
        raise ValueError("need at least one comparison series")
    for i, s in enumerate(series):
        if s.shape != x0.shape:
            raise ValueError(f"comparison {i}: length mismatch with reference")
    normed = [_mean_normalize(s, f"comparison {i}") for i, s in enumerate(series)]
    deviations = np.abs(np.stack(normed) - x0)
    dev_min = float(deviations.min())
    dev_max = float(deviations.max())
    if dev_max == 0.0:
        # Every comparison coincides with the reference after normalization.
        return np.ones_like(deviations)
    return (dev_min + rho * dev_max) / (deviations + rho * dev_max)


def grey_degree(coefficients) -> float:
    """Relational degree: the mean of a series of relational coefficients."""
    xi = np.asarray(coefficients, dtype=float)
    if xi.size == 0:
        raise ValueError("empty coefficient series")
    return float(xi.mean())


@dataclass(frozen=True)
class FeatureCorrelation:
    name: str
    pcc: float | None
    tier: str
    gra: float | None


@dataclass(frozen=True)
class CorrelationReport:
    features: tuple[FeatureCorrelation, ...]
    ranking_pcc: tuple[str, ...]
    ranking_gra: tuple[str, ...]
    rho: float


def correlation_report(m: FeatureMatrix, rho: float = DEFAULT_RHO) -> CorrelationReport:
    """Run both analyses feature-by-feature against the target.

    Constant (or zero-mean) columns are reported with tier "degenerate" and
    excluded from the rankings instead of aborting the whole report.
    """
    n_features = m.X.shape[1]
    usable = []
    degenerate = set()
    for j in range(n_features):
        col = m.X[:, j]
        if np.all(col == col[0]) or col.mean() == 0.0:
            degenerate.add(j)
        else:
            usable.append(j)
    xi_matrix = grey_coefficients(m.y, [m.X[:, j] for j in usable], rho) if usable else None
    entries = []
    gra_by_index: dict[int, float] = {}
    pcc_by_index: dict[int, float] = {}
    for pos, j in enumerate(usable):
        pcc_by_index[j] = pearson(m.X[:, j], m.y)
        gra_by_index[j] = grey_degree(xi_matrix[pos])
    for j in range(n_features):
        name = m.feature_names[j]
        if j in degenerate:
            entries.append(FeatureCorrelation(name=name, pcc=None, tier="degenerate", gra=None))
        else:
            r = pcc_by_index[j]
            entries.append(
                FeatureCorrelation(name=name, pcc=r, tier=classify_strength(r), gra=gra_by_index[j])
            )
    ranking_pcc = sorted(usable, key=lambda j: (-abs(pcc_by_index[j]), j))
    ranking_gra = sorted(usable, key=lambda j: (-gra_by_index[j], j))
    return CorrelationReport(
        features=tuple(entries),
        ranking_pcc=tuple(m.feature_names[j] for j in ranking_pcc),
        ranking_gra=tuple(m.feature_names[j] for j in ranking_gra),
        rho=rho,
    )


def report_to_dict(report: CorrelationReport) -> dict:
    return {
        "features": [
            {"name": f.name, "pcc": f.pcc, "tier": f.tier, "gra": f.gra}
            for f in report.features
        ],
        "ranking_pcc": list(report.ranking_pcc),
        "ranking_gra": list(report.ranking_gra),
        "rho": report.rho,
    }
