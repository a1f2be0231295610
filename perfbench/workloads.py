"""The benchmark's workloads: fixtures built from a seed, one timed pass, checks.

Every workload drives batcap through ``batcap.cli.main(argv)`` in-process,
the entry point ``scripts/run_full_pipeline.py`` uses, and ends its run with
cold ``predict`` subprocesses on the models it has. Every output check counts
as one operation; a check that does not hold is a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import batcap.cli

N_CYCLES = 200             # the shipped synthetic fixture size
N_CYCLES_LONG = 2000       # long-life cell for ingest: an 11 MB samples.csv
FADE_RATE_LONG = 0.0004    # synth rejects a fade that reaches zero capacity
WHALES = 30
FIT_ITERS = 40             # WOA iterations for every fit in the fit workload
MODEL_ITERS = 5            # WOA iterations for models trained during setup
FUSED_SHAP_ROWS = 4        # rows explained on the fused model
FUSE_DIMS = (1, 2, 3)
# Criterion 6 asserts test R^2 >= 0.99 for ten 500-iteration fits on the
# shipped fixture. One reduced-budget fit on a fresh cell misses 0.99 on a few
# seeds (see README.md), so a single run is held to 0.98.
MIN_TEST_R2 = 0.98
SHAP_TOLERANCE = 1e-6


@dataclass
class Ops:
    """Operations attempted and the description of each that failed."""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def cli(ops: Ops, seed: int, *argv) -> None:
    """Run one batcap subcommand in-process; a non-zero exit is a failed op."""
    args = ["--seed", str(seed), *(str(a) for a in argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = batcap.cli.main(args)
    ops.check(code == 0, f"batcap {' '.join(args)} exited {code}: {err.getvalue().strip()}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return path


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_feature_rows(ops: Ops, path: Path, n_cycles: int) -> None:
    try:
        rows = sum(1 for line in path.read_text(encoding="utf-8").splitlines()[1:] if line.strip())
    except OSError:
        rows = None
    ops.check(rows == n_cycles, f"{path.name}: {rows} rows, expected {n_cycles}")


def check_shap(ops: Ops, path: Path) -> None:
    """Local accuracy of every explained row: base_value + sum(phi) = prediction."""
    obj = _read_json(path)
    if not ops.check(obj is not None, f"{path.name}: missing or unreadable"):
        return
    for i, row in enumerate(obj["per_sample"]):
        miss = abs(obj["base_value"] + math.fsum(row["phi"]) - row["prediction"])
        ops.check(miss <= SHAP_TOLERANCE, f"{path.name} row {i}: base + sum(phi) misses by {miss}")


def check_woa_history(ops: Ops, path: Path) -> None:
    history = (_read_json(path) or {}).get("history")
    ok = bool(history) and all(math.isfinite(h) for h in history) and all(
        b <= a for a, b in zip(history, history[1:]))
    ops.check(ok, f"{path.name}: WOA history missing, non-finite or increasing")


def check_test_r2(ops: Ops, path: Path) -> float | None:
    """Test R^2 floor on the WOA-ELM model; returns the test RMSE for the report."""
    test = (_read_json(path) or {}).get("test")
    if not ops.check(test is not None, f"{path.name}: missing"):
        return None
    ops.check(test["r2"] >= MIN_TEST_R2, f"{path.name}: test R2 {test['r2']} < {MIN_TEST_R2}")
    return test["rmse"]


def make_fixture(ops: Ops, seed: int, d: Path) -> Path:
    """Synthetic cell, segments and 13-feature matrix; returns features.csv."""
    synth_cfg = _write_json(d / "synth.json", {"n_cycles": N_CYCLES})
    cli(ops, seed, "synth", "--config", synth_cfg, "--out-dir", d)
    cli(ops, seed, "segment", "--samples", d / "samples.csv", "--capacity", d / "capacity.csv",
        "--out", d / "segments.json")
    cli(ops, seed, "features", "--samples", d / "samples.csv", "--capacity", d / "capacity.csv",
        "--segments", d / "segments.json", "--out", d / "features.csv")
    check_feature_rows(ops, d / "features.csv", N_CYCLES)
    return d / "features.csv"


def train_config(d: Path, iters: int) -> Path:
    return _write_json(d / f"train_{iters}.json",
                       {"hidden_l": 40, "woa_pop": WHALES, "woa_iters": iters})


@dataclass
class PassResult:
    """What a checked pass leaves for the cold predict phase and the report."""
    models: list[Path]       # model.json files to query with cold predicts
    features: Path           # features.csv whose rows are the predict inputs
    info: dict = field(default_factory=dict)


class Fit:
    name = "fit"

    def setup(self, ops: Ops, seed: int, d: Path) -> None:
        make_fixture(ops, seed, d)
        train_config(d, FIT_ITERS)

    def run(self, ops: Ops, seed: int, d: Path, p: Path) -> None:
        feats, cfg = d / "features.csv", d / f"train_{FIT_ITERS}.json"
        cli(ops, seed, "train", "--features", feats, "--config", cfg,
            "--model-out", p / "model.json", "--trace", p / "woa_trace.json")
        cli(ops, seed, "train", "--fused", "--features", feats, "--config", cfg,
            "--model-out", p / "model_fused.json")
        cli(ops, seed, "evaluate", "--model", p / "model.json", "--features", feats,
            "--out", p / "metrics.json")
        cli(ops, seed, "compare", "--features", feats, "--models", "elm,woa-elm,knn,rf,gbrt",
            "--config", cfg, "--out", p / "taylor.json", "--svg", p / "taylor.svg")
        cli(ops, seed, "table1", "--features", feats, "--config", cfg,
            "--out", p / "fusion_report.json")

    def check(self, ops: Ops, d: Path, p: Path) -> PassResult:
        feats = d / "features.csv"
        check_woa_history(ops, p / "woa_trace.json")
        rmse = check_test_r2(ops, p / "metrics.json")
        return PassResult([p / "model.json", p / "model_fused.json"], feats,
                          {"test_rmse_mah": rmse})


class Explain:
    name = "explain"

    def setup(self, ops: Ops, seed: int, d: Path) -> None:
        feats = make_fixture(ops, seed, d)
        cfg = train_config(d, MODEL_ITERS)
        cli(ops, seed, "train", "--features", feats, "--config", cfg, "--model-out", d / "model.json")
        cli(ops, seed, "train", "--fused", "--features", feats, "--config", cfg,
            "--model-out", d / "model_fused.json")

    def run(self, ops: Ops, seed: int, d: Path, p: Path) -> None:
        data = ("--samples", d / "samples.csv", "--capacity", d / "capacity.csv")
        feats = p / "features.csv"
        cli(ops, seed, "segment", *data, "--out", p / "segments.json")
        cli(ops, seed, "features", *data, "--segments", p / "segments.json", "--out", feats)
        cli(ops, seed, "correlate", "--features", feats, "--out", p / "correlation.json")
        cli(ops, seed, "fuse", "--features", feats, "--dims", ",".join(map(str, FUSE_DIMS)),
            "--out", p / "fusion.json")
        cli(ops, seed, "evaluate", "--model", d / "model.json", "--features", feats,
            "--out", p / "metrics.json")
        cli(ops, seed, "shap", "--model", d / "model.json", "--features", feats,
            "--out", p / "shap.json")
        cli(ops, seed, "shap", "--rows", FUSED_SHAP_ROWS, "--model", d / "model_fused.json",
            "--features", feats, "--out", p / "shap_fused.json")

    def check(self, ops: Ops, d: Path, p: Path) -> PassResult:
        feats = p / "features.csv"
        check_feature_rows(ops, feats, N_CYCLES)
        recommended = (_read_json(p / "fusion.json") or {}).get("recommended_d")
        ops.check(recommended in FUSE_DIMS, f"fusion.json: recommended_d {recommended} "
                                            f"not among {FUSE_DIMS}")
        check_shap(ops, p / "shap.json")
        check_shap(ops, p / "shap_fused.json")
        test = (_read_json(p / "metrics.json") or {}).get("test") or {}
        return PassResult([d / "model.json", d / "model_fused.json"], d / "features.csv",
                          {"test_rmse_mah": test.get("rmse")})


class Ingest:
    name = "ingest"

    def setup(self, ops: Ops, seed: int, d: Path) -> None:
        _write_json(d / "synth_long.json", {"n_cycles": N_CYCLES_LONG, "fade_rate": FADE_RATE_LONG})
        # The model the cold predicts query: trained on the standard cell.
        feats = make_fixture(ops, seed, d)
        cli(ops, seed, "train", "--features", feats, "--config", train_config(d, MODEL_ITERS),
            "--model-out", d / "model.json")

    def run(self, ops: Ops, seed: int, d: Path, p: Path) -> None:
        data = ("--samples", p / "samples.csv", "--capacity", p / "capacity.csv")
        feats = p / "features.csv"
        cli(ops, seed, "synth", "--config", d / "synth_long.json", "--out-dir", p)
        cli(ops, seed, "segment", *data, "--out", p / "segments.json")
        cli(ops, seed, "features", *data, "--segments", p / "segments.json", "--out", feats)
        cli(ops, seed, "correlate", "--features", feats, "--out", p / "correlation.json")

    def check(self, ops: Ops, d: Path, p: Path) -> PassResult:
        check_feature_rows(ops, p / "features.csv", N_CYCLES_LONG)
        return PassResult([d / "model.json"], p / "features.csv")


WORKLOADS = {w.name: w for w in (Fit(), Explain(), Ingest())}
