"""Wrapper coverage of the benchmark tracer: exact counts on tiny configs.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import contextlib
import importlib
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from batcap import cli, pipeline  # noqa: E402
from batcap.rng import Rng  # noqa: E402
from spans import COUNTERS, LAYERS, UNWRAPPED, Tracer  # noqa: E402

P, T = 3, 2          # whales, iterations
HIDDEN, INPUTS = 5, 4
M = 13               # features in the matrix the CLI writes


def _data(n=30):
    g = np.random.default_rng(0)
    X = g.uniform(size=(n, INPUTS))
    return X, X @ np.arange(1.0, INPUTS + 1) + 0.1 * g.uniform(size=n)


def _train(X, y):
    cfg = pipeline.TrainConfig(hidden_l=HIDDEN, woa_pop=P, woa_iters=T, seed=7)
    return pipeline.woa_elm_train(X, y, cfg)


def _layer_functions():
    """(module, attribute, function) for every batcap binding of a layer function."""
    modules = [importlib.import_module(f"batcap.{layer}") for layer in LAYERS]
    for mod in modules:
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or not obj.__module__.startswith("batcap."):
                continue
            layer, name = obj.__module__.split(".")[1], obj.__name__
            if layer in LAYERS and f"{layer}.{name}" not in UNWRAPPED and (
                    not name.startswith("_") or f"{layer}.{name}" in COUNTERS):
                yield mod, attr, obj


def test_every_importing_module_and_rng_class_get_wrappers():
    bindings = list(_layer_functions())
    with Tracer():
        for mod, attr, _ in bindings:
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        for name in ("elm_hidden", "elm_solve_beta", "woa_optimize", "tsne_embed"):
            assert hasattr(getattr(pipeline, name), "__wrapped__"), f"pipeline.{name}"
        from batcap import modelio
        assert hasattr(modelio.embed_new_points, "__wrapped__")
        for meth in ("__init__", "next_u64", "uniform", "uniforms", "normal", "below"):
            assert hasattr(vars(Rng)[meth], "__wrapped__"), f"Rng.{meth}"
    for mod, attr, original in bindings:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr} not restored"
    assert not hasattr(vars(Rng)["uniforms"], "__wrapped__")


def test_woa_elm_counts_are_exact():
    X, y = _data()
    with Tracer() as t:
        _train(X, y)
    evals = P * (T + 1)
    dim = HIDDEN * INPUTS + HIDDEN
    assert t.counters["woa.fitness_evals"] == evals
    assert t.calls("pipeline.fitness") == evals
    assert t.calls("elm.elm_solve_beta") == evals + 1
    assert t.calls("elm.elm_hidden") == 2 * evals + 1
    assert t.counters["rng.streams"] == P * T + 1
    # init: one uniforms(dim) per whale; per whale and iteration: r1, r2,
    # p, spiral l and the random-agent index
    assert t.counters["rng.draws"] == P * dim + P * T * (2 * dim + 3)
    assert 0 < t.counters["woa.improvements"] <= evals


def test_tracing_changes_no_result():
    X, y = _data()
    plain_model, plain = _train(X, y)
    with Tracer():
        traced_model, traced = _train(X, y)
    assert plain.history == traced.history
    assert np.array_equal(plain_model.beta, traced_model.beta)
    assert np.array_equal(plain.best_position, traced.best_position)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def test_shap_enumerates_each_coalition_once_per_row(tmp_path):
    n_cycles = 24
    (tmp_path / "synth.json").write_text(json.dumps({"n_cycles": n_cycles}))
    (tmp_path / "train.json").write_text(json.dumps(
        {"hidden_l": HIDDEN, "woa_pop": P, "woa_iters": T}))
    data = ("--samples", tmp_path / "samples.csv", "--capacity", tmp_path / "capacity.csv")
    _cli("synth", "--config", tmp_path / "synth.json", "--out-dir", tmp_path)
    _cli("segment", *data, "--out", tmp_path / "segments.json")
    _cli("features", *data, "--segments", tmp_path / "segments.json",
         "--out", tmp_path / "features.csv")
    _cli("train", "--features", tmp_path / "features.csv", "--config", tmp_path / "train.json",
         "--model-out", tmp_path / "model.json")
    with Tracer() as t:
        _cli("shap", "--model", tmp_path / "model.json", "--features", tmp_path / "features.csv",
             "--out", tmp_path / "shap.json")
    # interactions are skipped above MAX_FEATURES_INTERACTION = 12 features
    assert t.counters["attribution.coalitions"] == n_cycles * 2 ** M
    assert t.calls("attribution.shapley_exact") == n_cycles
    assert t.calls("attribution.interaction_matrix") == 0
    assert t.counters["elm.predict_rows"] == n_cycles * 2 ** M
    names = [span["name"] for span in t.spans]
    main, shap = t.spans[0], t.spans[names.index("cli.cmd_shap")]
    assert main["name"] == "cli.main" and main["parent"] is None
    assert shap["parent"] == 0 and main["start_s"] <= shap["start_s"] <= shap["end_s"] <= main["end_s"]
