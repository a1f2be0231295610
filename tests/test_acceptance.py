"""Acceptance suite: one test per release criterion.

Each test enforces the criterion at its stated tolerance, checks its runtime
budget, and prints a single summary line (visible under ``pytest -s``).
"""

import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from batcap import attribution, correlation, data, elm, features, fusion, pipeline, woa
from batcap.baselines import RandomForest
from batcap.rng import Rng, derive_seed
from test_fusion import kl_divergence, student_t_affinities, tsne_gradient


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start


def report(number, name, timer, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number} {name}: PASS in {timer.elapsed:.2f}s{suffix}")


def test_criterion_01_metric_identities():
    with Timer() as t:
        rng = Rng(1001)
        for _ in range(100):
            actual = rng.uniforms(40, 0.0, 50.0)
            pred = actual + rng.normals(40, 0.0, 2.0)
            r2 = pipeline.r_squared(pred, actual)
            identity = 1.0 - pipeline.rmse(pred, actual) ** 2 / pipeline.standard_deviation(actual) ** 2
            assert abs(r2 - identity) < 1e-9

        actual = rng.uniforms(60, 10.0, 30.0)
        models = [(f"m{i}", actual * (0.7 + 0.1 * i) + rng.normals(60, 0.0, 1.0 + i))
                  for i in range(5)]
        taylor = pipeline.taylor_points(models, actual)
        for pt in taylor.points:
            law = (pt.sd_pred ** 2 + taylor.sd_actual ** 2
                   - 2.0 * pt.sd_pred * taylor.sd_actual * pt.pearson_r)
            assert abs(pt.centered_rmse ** 2 - law) < 1e-9
    assert t.elapsed < 1.0
    report(1, "metric identities", t)


def test_criterion_02_least_squares_oracle():
    with Timer() as t:
        rng = Rng(1002)
        for _ in range(5):
            H = rng.normals(36).reshape(6, 6) + 3.0 * np.eye(6)
            T = rng.normals(6).reshape(6, 1)
            beta = elm.elm_solve_beta(H, T)
            A = (H.T @ H).astype(np.longdouble)
            b = (H.T @ T).astype(np.longdouble)
            n = 6
            for col in range(n):
                piv = col + int(np.argmax(np.abs(A[col:, col])))
                A[[col, piv]] = A[[piv, col]]
                b[[col, piv]] = b[[piv, col]]
                for row in range(col + 1, n):
                    f = A[row, col] / A[col, col]
                    A[row, col:] -= f * A[col, col:]
                    b[row] -= f * b[col]
            x = np.zeros(n, dtype=np.longdouble)
            for row in range(n - 1, -1, -1):
                x[row] = (b[row, 0] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
            assert np.max(np.abs(beta[:, 0] - x.astype(float))) < 1e-6

        base = rng.normals(30).reshape(10, 3)
        H = np.column_stack([base, base[:, 0]])
        T = rng.normals(10).reshape(10, 1)
        beta = elm.elm_solve_beta(H, T)
        null = np.array([1.0, 0.0, 0.0, -1.0])[:, None] / np.sqrt(2.0)
        residual = np.linalg.norm(H @ beta - T)
        for step in np.linspace(-2.0, 2.0, 100):
            other = beta + step * null
            assert np.linalg.norm(H @ other - T) <= residual + 1e-8
            if abs(step) > 1e-9:
                assert np.linalg.norm(other) > np.linalg.norm(beta)
    assert t.elapsed < 1.0
    report(2, "least-squares oracle", t)


def _brute_force_phi(predict, x, background):
    m = len(x)
    phi = np.zeros(m)
    for perm in itertools.permutations(range(m)):
        z = background.copy()
        prev = float(predict(z[None, :])[0])
        for j in perm:
            z[j] = x[j]
            cur = float(predict(z[None, :])[0])
            phi[j] += cur - prev
            prev = cur
    return phi / math.factorial(m)


def test_criterion_03_shapley_exactness(synth_matrix, synth_split):
    with Timer() as t:
        rng = Rng(1003)
        trial_sizes = [2, 3, 4, 5, 6] * 4  # 20 trials, all M <= 6
        for m in trial_sizes:
            w1 = rng.normals(m * 3).reshape(m, 3)
            w2 = rng.normals(3)

            def predict(Z, w1=w1, w2=w2):
                Z = np.atleast_2d(Z)
                return np.tanh(Z @ w1) @ w2 + 0.2 * Z[:, 0] * Z[:, -1]

            x = rng.normals(m)
            bg = rng.normals(m)
            exact = attribution.shapley_exact(predict, x, bg).phi
            brute = _brute_force_phi(predict, x, bg)
            assert np.max(np.abs(exact - brute)) < 1e-12

        train = list(synth_split.train)
        model = elm.elm_fit(synth_matrix.X[train], synth_matrix.y[train],
                            hidden_l=40, seed=7)
        background = synth_matrix.X[train].mean(axis=0)
        predict = lambda Z: elm.elm_predict(model, Z)
        worst = 0.0
        for row in synth_matrix.X[:100]:
            rep = attribution.shapley_exact(predict, row, background)
            worst = max(worst, abs(rep.base_value + rep.phi.sum() - rep.prediction))
        assert worst < 1e-9
    assert t.elapsed < 60.0
    report(3, "shapley exactness", t, f"13-feature local accuracy gap {worst:.1e}")


def test_criterion_04_tsne_analytics():
    with Timer() as t:
        rng = Rng(1004)
        for _ in range(5):
            d2 = np.abs(rng.normals(40)) ** 2 + 0.05
            sigma = fusion.calibrate_sigma(d2, 15.0)
            p = np.exp(-d2 / (2 * sigma * sigma))
            p /= p.sum()
            achieved = 2.0 ** (-np.sum(p[p > 0] * np.log2(p[p > 0])))
            assert abs(achieved - 15.0) < 1e-3

        X = rng.normals(24).reshape(6, 4)
        P = fusion.joint_affinities(X, 2.0).P
        Y = rng.normals(12).reshape(6, 2)
        grad = tsne_gradient(P, student_t_affinities(Y), Y)
        h = 1e-5
        numeric = np.zeros_like(Y)
        for i in range(6):
            for j in range(2):
                yp = Y.copy(); yp[i, j] += h
                ym = Y.copy(); ym[i, j] -= h
                numeric[i, j] = (
                    kl_divergence(P, student_t_affinities(yp))
                    - kl_divergence(P, student_t_affinities(ym))
                ) / (2 * h)
        mask = np.abs(numeric) > 1e-8
        rel = np.max(np.abs(grad[mask] - numeric[mask]) / np.abs(numeric[mask]))
        assert rel < 1e-4

        assert kl_divergence(P, P) == pytest.approx(0.0, abs=1e-15)
        for _ in range(20):
            p = rng.uniforms(10, 0.01, 1.0)
            q = rng.uniforms(10, 0.01, 1.0)
            assert kl_divergence(p / p.sum(), q / q.sum()) >= -1e-12
    assert t.elapsed < 10.0
    report(4, "t-SNE analytics", t, f"max gradient rel err {rel:.1e}")


def test_criterion_05_woa_sphere_convergence():
    with Timer() as t:
        sphere = lambda x: float(np.sum(x * x))
        passes = 0
        for seed in range(10):
            cfg = woa.WoaConfig(dim=10, bounds=woa.uniform_bounds(10, -10.0, 10.0),
                                pop_size=30, t_max=500, seed=seed)
            result = woa.woa_optimize(sphere, cfg)
            history = np.array(result.history)
            assert np.all(np.diff(history) <= 0.0)
            if result.best_cost < 1e-5:
                passes += 1
        assert passes >= 8
    assert t.elapsed < 30.0
    report(5, "WOA sphere convergence", t, f"{passes}/10 seeds under 1e-5")


def test_criterion_06_woa_elm_superiority(synth_matrix):
    with Timer() as t:
        woa_rmse, woa_r2, plain_rmse = [], [], []
        for seed in range(10):
            split = data.split_rows(len(synth_matrix.y), 0.7, derive_seed(seed, "split"))
            tr, te = list(split.train), list(split.test)
            X_train, y_train = synth_matrix.X[tr], synth_matrix.y[tr]
            X_test, y_test = synth_matrix.X[te], synth_matrix.y[te]
            cfg = pipeline.TrainConfig(hidden_l=40, seed=seed)
            model, _ = pipeline.woa_elm_train(X_train, y_train, cfg)
            pred = elm.elm_predict(model, X_test)
            woa_rmse.append(pipeline.rmse(pred, y_test))
            woa_r2.append(pipeline.r_squared(pred, y_test))
            plain = elm.elm_fit(X_train, y_train, hidden_l=40, seed=seed)
            plain_rmse.append(pipeline.rmse(elm.elm_predict(plain, X_test), y_test))
        assert np.median(woa_rmse) <= np.median(plain_rmse)
        assert np.median(woa_r2) >= 0.99
        assert min(woa_r2) >= 0.99
    assert t.elapsed < 300.0
    report(6, "WOA-ELM superiority", t,
           f"median rmse {np.median(woa_rmse):.3f} vs plain {np.median(plain_rmse):.3f}, "
           f"min r2 {min(woa_r2):.4f}")


def test_criterion_07_feature_analysis_sanity(synth_matrix, synth_split):
    with Timer() as t:
        corr_report = correlation.correlation_report(synth_matrix)
        assert "F8" in corr_report.ranking_pcc[:3]
        assert "F8" in corr_report.ranking_gra[:3]
        # attribution ranking on the forest model, as in the battery study
        train = list(synth_split.train)
        forest = RandomForest(n_trees=100, seed=3).fit(
            synth_matrix.X[train], synth_matrix.y[train]
        )
        summary = attribution.shapley_summary(
            forest.predict, synth_matrix.X, synth_matrix.feature_names, "mean"
        )
        assert "F8" in summary.ranking[:3]
    assert t.elapsed < 120.0
    report(7, "feature analysis sanity", t,
           f"pcc top3 {corr_report.ranking_pcc[:3]}, shap top3 {summary.ranking[:3]}")


def test_criterion_08_fusion_comparison(synth_matrix):
    with Timer() as t:
        cfg = pipeline.TrainConfig(hidden_l=40, seed=5)
        result = pipeline.fused_comparison(synth_matrix, cfg)
        assert result.fused.wall_time_ms < result.full.wall_time_ms
        assert result.fused.test_r2 >= result.full.test_r2 - 0.05
    assert t.elapsed < 300.0
    report(8, "fusion comparison", t,
           f"time {result.full.wall_time_ms:.0f} -> {result.fused.wall_time_ms:.0f} ms, "
           f"test r2 {result.full.test_r2:.4f} -> {result.fused.test_r2:.4f}")


def _run_cli_pipeline(out_dir: Path) -> dict[str, bytes]:
    from batcap.cli import main

    out_dir.mkdir()
    (out_dir / "synth.json").write_text(json.dumps(
        {"n_cycles": 40, "q0": 170.0, "fade_rate": 0.003, "seed": 21}))
    (out_dir / "train.json").write_text(json.dumps(
        {"hidden_l": 12, "woa_iters": 25, "woa_pop": 8}))

    def run(*args):
        assert main([str(a) for a in args]) == 0

    run("--seed", "99", "synth", "--config", out_dir / "synth.json", "--out-dir", out_dir)
    samples, capacity = out_dir / "samples.csv", out_dir / "capacity.csv"
    run("--seed", "99", "segment", "--samples", samples, "--capacity", capacity,
        "--out", out_dir / "segments.json")
    run("--seed", "99", "features", "--samples", samples, "--capacity", capacity,
        "--segments", out_dir / "segments.json", "--out", out_dir / "features.csv")
    feats = out_dir / "features.csv"
    run("--seed", "99", "correlate", "--features", feats, "--out", out_dir / "correlation.json")
    run("--seed", "99", "fuse", "--features", feats, "--dims", "1,2",
        "--iterations", "260", "--out", out_dir / "fusion.json")
    run("--seed", "99", "train", "--features", feats, "--config", out_dir / "train.json",
        "--model-out", out_dir / "model.json")
    run("--seed", "99", "evaluate", "--model", out_dir / "model.json", "--features", feats,
        "--out", out_dir / "metrics.json")
    run("--seed", "99", "compare", "--features", feats, "--models", "elm,knn,gbrt",
        "--config", out_dir / "train.json", "--out", out_dir / "taylor.json",
        "--svg", out_dir / "taylor.svg")
    run("--seed", "99", "shap", "--model", out_dir / "model.json", "--features", feats,
        "--rows", "8", "--out", out_dir / "shap.json")
    run("--seed", "99", "table1", "--features", feats, "--config", out_dir / "train.json",
        "--out", out_dir / "fusion_report.json")

    artifacts = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix in (".json", ".csv", ".svg"):
            artifacts[path.name] = path.read_bytes()
    return artifacts


def _mask_wall_times(raw: bytes) -> bytes:
    obj = json.loads(raw)
    for row in obj.get("rows", []):
        if row.get("item") == "Time(mS)":
            row["before_fusion"] = row["after_fusion"] = row["diff_percent"] = 0.0
    return json.dumps(obj, sort_keys=True).encode()


def test_criterion_09_pipeline_determinism(tmp_path, capsys):
    with Timer() as t:
        first = _run_cli_pipeline(tmp_path / "run1")
        second = _run_cli_pipeline(tmp_path / "run2")
        capsys.readouterr()
        assert first.keys() == second.keys()
        for name in first:
            if name == "fusion_report.json":
                # wall-clock timings are the one legitimately non-reproducible field
                assert _mask_wall_times(first[name]) == _mask_wall_times(second[name])
            else:
                assert first[name] == second[name], f"{name} differs between runs"
    report(9, "pipeline determinism", t, f"{len(first)} artifacts byte-identical")


def test_criterion_10_predict_latency(tmp_path, capsys):
    from batcap.cli import main

    (tmp_path / "synth.json").write_text(json.dumps(
        {"n_cycles": 30, "fade_rate": 0.003, "seed": 31}))
    (tmp_path / "train.json").write_text(json.dumps(
        {"hidden_l": 10, "woa_iters": 10, "woa_pop": 6}))

    def run(*args):
        assert main([str(a) for a in args]) == 0

    run("synth", "--config", tmp_path / "synth.json", "--out-dir", tmp_path)
    run("segment", "--samples", tmp_path / "samples.csv", "--capacity",
        tmp_path / "capacity.csv", "--out", tmp_path / "segments.json")
    run("features", "--samples", tmp_path / "samples.csv", "--capacity",
        tmp_path / "capacity.csv", "--segments", tmp_path / "segments.json",
        "--out", tmp_path / "features.csv")
    run("train", "--features", tmp_path / "features.csv", "--config",
        tmp_path / "train.json", "--model-out", tmp_path / "model.json")
    matrix = features.matrix_from_csv((tmp_path / "features.csv").read_text())
    (tmp_path / "vec.json").write_text(json.dumps(matrix.X[0].tolist()))
    capsys.readouterr()

    with Timer() as t:
        proc = subprocess.run(
            [sys.executable, "-m", "batcap.cli", "predict",
             "--model", str(tmp_path / "model.json"),
             "--input", str(tmp_path / "vec.json")],
            capture_output=True, text=True, timeout=10,
        )
    assert proc.returncode == 0
    float(proc.stdout.strip())
    assert t.elapsed < 3.0
    report(10, "predict latency", t, f"{t.elapsed:.2f}s wall for CLI predict")
