import json
import re
import shlex
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from batcap import attribution, baselines, data, features, modelio, pipeline
from batcap.cli import build_parser, main
from batcap.jsonio import dump_json, load_json, load_schema, validate_schema
from batcap.rng import derive_seed

SYNTH_CFG = {"n_cycles": 30, "q0": 170.0, "fade_rate": 0.003, "seed": 11}
TRAIN_CFG = {"hidden_l": 10, "woa_iters": 10, "woa_pop": 6}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CFG))
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_CFG))
    return tmp_path


def run(args, expect=0):
    code = main([str(a) for a in args])
    assert code == expect, f"batcap {' '.join(map(str, args))} -> exit {code}"
    return code


def prepare_features(workdir):
    run(["synth", "--config", workdir / "synth.json", "--out-dir", workdir])
    run([
        "segment", "--samples", workdir / "samples.csv", "--capacity",
        workdir / "capacity.csv", "--out", workdir / "segments.json",
    ])
    run([
        "features", "--samples", workdir / "samples.csv", "--capacity",
        workdir / "capacity.csv", "--segments", workdir / "segments.json",
        "--out", workdir / "features.csv",
    ])
    return workdir / "features.csv"


def test_full_pipeline_smoke(workdir, capsys):
    feats = prepare_features(workdir)
    run(["correlate", "--features", feats, "--out", workdir / "correlation.json"])
    run([
        "fuse", "--features", feats, "--dims", "1,2", "--iterations", "260",
        "--out", workdir / "fusion.json",
    ])
    run([
        "train", "--features", feats, "--config", workdir / "train.json",
        "--model-out", workdir / "model.json", "--trace", workdir / "trace.json",
    ])
    run([
        "evaluate", "--model", workdir / "model.json", "--features", feats,
        "--out", workdir / "metrics.json",
    ])
    run([
        "compare", "--features", feats, "--models", "elm,knn,gbrt",
        "--config", workdir / "train.json",
        "--out", workdir / "taylor.json", "--svg", workdir / "taylor.svg",
    ])
    run([
        "shap", "--model", workdir / "model.json", "--features", feats,
        "--rows", "6", "--out", workdir / "shap.json",
    ])
    run([
        "table1", "--features", feats, "--config", workdir / "train.json",
        "--out", workdir / "report.json",
    ])
    for name, schema in [
        ("segments.json", "segments"),
        ("correlation.json", "correlation"),
        ("fusion.json", "fusion"),
        ("model.json", "model"),
        ("metrics.json", "metrics"),
        ("taylor.json", "taylor"),
        ("shap.json", "shap"),
        ("report.json", "fusion_report"),
        ("trace.json", "woa_trace"),
    ]:
        validate_schema(load_json(workdir / name), load_schema(schema))
    assert (workdir / "taylor.svg").read_text().startswith("<svg")
    capsys.readouterr()


def test_rerun_is_byte_identical(workdir, capsys):
    feats = prepare_features(workdir)
    run(["correlate", "--features", feats, "--out", workdir / "c1.json"])
    run(["correlate", "--features", feats, "--out", workdir / "c2.json"])
    assert (workdir / "c1.json").read_bytes() == (workdir / "c2.json").read_bytes()
    capsys.readouterr()


def test_predict_reproduces_library_value(workdir, capsys):
    feats = prepare_features(workdir)
    run([
        "train", "--features", feats, "--config", workdir / "train.json",
        "--model-out", workdir / "model.json",
    ])
    matrix = features.matrix_from_csv(Path(feats).read_text())
    vector = matrix.X[0].tolist()
    (workdir / "vec.json").write_text(json.dumps({"features": vector}))
    capsys.readouterr()
    run(["predict", "--model", workdir / "model.json", "--input", workdir / "vec.json"])
    printed = float(capsys.readouterr().out.strip())
    predictor = modelio.make_predictor(load_json(workdir / "model.json"))
    expected = float(predictor(np.array(vector)[None, :])[0])
    assert printed == pytest.approx(expected, rel=1e-11)


def test_fused_model_predicts(workdir, capsys):
    feats = prepare_features(workdir)
    run([
        "train", "--features", feats, "--config", workdir / "train.json",
        "--model-out", workdir / "fused_model.json", "--fused",
    ])
    model_obj = load_json(workdir / "fused_model.json")
    assert model_obj["fusion"] is not None
    matrix = features.matrix_from_csv(Path(feats).read_text())
    (workdir / "vec.json").write_text(json.dumps(matrix.X[3].tolist()))
    capsys.readouterr()
    run(["predict", "--model", workdir / "fused_model.json", "--input", workdir / "vec.json"])
    value = float(capsys.readouterr().out.strip())
    assert np.isfinite(value)
    run([
        "evaluate", "--model", workdir / "fused_model.json", "--features", feats,
        "--out", workdir / "fused_metrics.json",
    ])
    validate_schema(load_json(workdir / "fused_metrics.json"), load_schema("metrics"))


def test_unknown_flag_gives_usage_error(workdir, capsys):
    code = main(["correlate", "--features", "x.csv", "--bogus", "1", "--out", "y.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR 2:")
    assert err.count("\n") == 1


def test_missing_file_gives_exit_3(workdir, capsys):
    code = main([
        "correlate", "--features", str(workdir / "nope.csv"),
        "--out", str(workdir / "out.json"),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("ERROR 3:")


def test_malformed_csv_gives_exit_4(workdir, capsys):
    bad = workdir / "bad.csv"
    bad.write_text("battery_id,cycle,time_s,voltage_v\nb,1,xx,3.0\n")
    code = main([
        "segment", "--samples", str(bad), "--capacity", str(bad),
        "--out", str(workdir / "seg.json"),
    ])
    assert code == 4
    assert capsys.readouterr().err.startswith("ERROR 4:")


def test_inconsistent_battery_ids_rejected(workdir, capsys):
    prepare_features(workdir)
    other = workdir / "other_capacity.csv"
    text = (workdir / "capacity.csv").read_text().replace("synthetic", "someone-else")
    other.write_text(text)
    code = main([
        "segment", "--samples", str(workdir / "samples.csv"),
        "--capacity", str(other), "--out", str(workdir / "seg2.json"),
    ])
    assert code == 4
    assert "inconsistent battery_id" in capsys.readouterr().err


def test_run_seed_env_overrides(workdir, capsys, monkeypatch):
    feats = prepare_features(workdir)
    run([
        "train", "--features", feats, "--config", workdir / "train.json",
        "--model-out", workdir / "m_default.json",
    ])
    monkeypatch.setenv("RUN_SEED", "777")
    run([
        "train", "--features", feats, "--config", workdir / "train.json",
        "--model-out", workdir / "m_777.json",
    ])
    monkeypatch.delenv("RUN_SEED")
    a = load_json(workdir / "m_default.json")
    b = load_json(workdir / "m_777.json")
    assert a["elm"]["omega"] != b["elm"]["omega"]
    capsys.readouterr()


def test_force_dim_flag(workdir, capsys):
    feats = prepare_features(workdir)
    run([
        "fuse", "--features", feats, "--dims", "1,2", "--iterations", "260",
        "--force-dim", "1", "--out", workdir / "fusion_forced.json",
    ])
    assert load_json(workdir / "fusion_forced.json")["recommended_d"] == 1
    capsys.readouterr()


def test_split_ordered_flag(workdir, capsys):
    feats = prepare_features(workdir)
    run([
        "train", "--features", feats, "--config", workdir / "train.json",
        "--model-out", workdir / "ordered_model.json", "--split-ordered",
    ])
    run([
        "evaluate", "--model", workdir / "ordered_model.json", "--features", feats,
        "--split-ordered", "--out", workdir / "ordered_metrics.json",
    ])
    obj = load_json(workdir / "ordered_metrics.json")
    assert obj["n_train"] == 21 and obj["n_test"] == 9
    capsys.readouterr()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs plus one file of each malformed kind, shared by a module."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "synth.json").write_text(json.dumps(SYNTH_CFG))
    (d / "train.json").write_text(json.dumps(TRAIN_CFG))
    prepare_features(d)
    run(["train", "--features", d / "features.csv", "--config", d / "train.json",
         "--model-out", d / "model.json"])
    (d / "list.json").write_text("[1]")
    (d / "scalar.json").write_text("5")
    (d / "dict_vector.json").write_text('{"features": {}}')
    (d / "short_vector.json").write_text("[0.5]")
    n = len(features.FEATURE_NAMES)
    (d / "str_vector.json").write_text(json.dumps(["0.5"] * n))
    (d / "bool_vector.json").write_text(json.dumps([True] * n))
    (d / "huge_vector.json").write_text(json.dumps([1e308] * n))
    lines = (d / "features.csv").read_text().splitlines()
    cycle, *_, target = lines[1].split(",")
    lines[1] = ",".join([cycle, *["1e308"] * n, target])
    (d / "huge_features.csv").write_text("\n".join(lines) + "\n")
    (d / "empty.csv").write_text("")
    # capacity files with a second battery id, and with a NaN or infinite capacity
    header, *rows = (d / "capacity.csv").read_text().splitlines()
    two_ids = rows[:-10] + [row.replace("synthetic", "other") for row in rows[-10:]]
    (d / "capacity_two_ids.csv").write_text("\n".join([header, *two_ids]) + "\n")
    for value in ("nan", "inf"):
        bad = rows[:12] + [rows[12].rsplit(",", 1)[0] + "," + value] + rows[13:]
        (d / f"capacity_{value}.csv").write_text("\n".join([header, *bad]) + "\n")
    header, first, *rows = (d / "samples.csv").read_text().splitlines()
    battery, cycle, _, voltage = first.split(",")
    (d / "samples_bad_time.csv").write_text(
        "\n".join([header, f"{battery},{cycle},x,{voltage}", *rows]) + "\n")
    (d / "deep.json").write_text("[" * 200_000)
    # A valid model file of every kind, named after the kind.
    matrix = features.matrix_from_csv((d / "features.csv").read_text())
    (d / "vector.json").write_text(json.dumps(matrix.X[0].tolist()))
    for kind in modelio.BASELINE_KINDS:
        model = baselines.baseline_fit(kind, matrix.X, matrix.y, seed=1)
        dump_json(modelio.model_to_dict(model, kind), d / f"{kind}.json")
    for kind in ("elm", "woa-elm"):
        dump_json({**load_json(d / "model.json"), "kind": kind}, d / f"{kind}.json")
    for name, obj in BAD_FILES.items():
        (d / name).write_text(json.dumps(obj))
    (d / "knn_fusion_int.json").write_text(json.dumps({**load_json(d / "knn.json"), "fusion": 3}))
    # A knn model behind an identity "embedding": a valid fused model.
    dump_json({**load_json(d / "knn.json"),
               "fusion": modelio.fusion_section(np.zeros(n), np.ones(n), matrix.X, matrix.X)},
              d / "knn_fused.json")
    for name, value in NON_FINITE_VECTORS.items():
        (d / name).write_text(json.dumps([*matrix.X[0][:5], value, *matrix.X[0][6:]]))
    for name, obj in _misshapen_models(d, matrix).items():
        dump_json(obj, d / name)
    return d


def _replaced(obj, section, **fields):
    return {**obj, section: {**obj[section], **fields}}


def _misshapen_models(d, matrix):
    """Model files of the right JSON types whose arrays have the wrong shape."""
    elm, knn, tree = (load_json(d / f"{kind}.json") for kind in ("elm", "knn", "tree"))
    n = len(features.FEATURE_NAMES)
    # A knn model on an identity "embedding", so that the fusion section is valid.
    fused = {**knn, "fusion": modelio.fusion_section(np.zeros(n), np.ones(n), matrix.X, matrix.X)}
    return {
        "elm_flat_omega.json": _replaced(elm, "elm", omega=elm["elm"]["omega"][0]),
        "elm_short_beta.json": _replaced(elm, "elm", beta=elm["elm"]["beta"][1:]),
        "elm_short_b.json": _replaced(elm, "elm", b=elm["elm"]["b"][1:]),
        "tree_feature_99.json": _replaced(tree, "tree", feature=99),
        "tree_feature_negative.json": _replaced(tree, "tree", feature=-1),
        "knn_short_train_y.json": _replaced(knn, "knn", train_y=knn["knn"]["train_y"][1:]),
        "fusion_flat_train_x.json": _replaced(fused, "fusion", train_x=matrix.X[0].tolist()),
        "fusion_flat_train_y.json": _replaced(fused, "fusion", train_y=matrix.y.tolist()),
        "fusion_k0.json": _replaced(fused, "fusion", k=0),
    }


# JSON objects of the right outer type whose fields are wrong.
BAD_FILES = {
    "cfg_null.json": {"hidden_l": None},
    "cfg_typo.json": {"woa_iter": 3},
    "cfg_bool.json": {"hidden_l": True},
    "cfg_str.json": {"spiral_b": "1.0"},
    "cfg_relu.json": {"activation": "relu"},
    "cfg_one_whale.json": {"woa_pop": 1, "hidden_l": 4},
    "cfg_no_iters.json": {"woa_iters": 0},
    "synth_list.json": {"n_cycles": [1]},
    "synth_huge.json": {"q0": 10 ** 400},
    "tree_int.json": {"kind": "tree", "tree": 5},
    "knn_list.json": {"kind": "knn", "knn": []},
    "forest_int_trees.json": {"kind": "forest", "forest": {"trees": 4}},
    "elm_int_norm.json": {"kind": "woa-elm", "norm": 5, "elm": {}},
}
BAD_MODELS = ["tree_int.json", "knn_list.json", "forest_int_trees.json", "elm_int_norm.json",
              "knn_fusion_int.json"]
MISSHAPEN_MODELS = ["elm_flat_omega.json", "elm_short_beta.json", "elm_short_b.json",
                    "tree_feature_99.json", "tree_feature_negative.json",
                    "knn_short_train_y.json", "fusion_flat_train_x.json",
                    "fusion_flat_train_y.json", "fusion_k0.json"]


NON_FINITE_VECTORS = {"nan_vector.json": float("nan"), "inf_vector.json": float("inf"),
                      "neg_inf_vector.json": float("-inf")}


def _expand(d, args):
    return [str(d / a[1:]) if a.startswith("@") else a for a in args]


DATASET = ["--samples", "@samples.csv", "--capacity", "@capacity.csv"]
MALFORMED = [
    (["synth", "--config", "@list.json", "--out-dir", "@out"], 4),
    (["train", "--features", "@features.csv", "--config", "@list.json",
      "--model-out", "@out.json"], 4),
    (["compare", "--features", "@features.csv", "--config", "@list.json",
      "--out", "@out.json"], 4),
    (["table1", "--features", "@features.csv", "--config", "@list.json",
      "--out", "@out.json"], 4),
    (["evaluate", "--model", "@list.json", "--features", "@features.csv",
      "--out", "@out.json"], 4),
    (["predict", "--model", "@list.json", "--input", "@scalar.json"], 4),
    (["features", *DATASET, "--segments", "@list.json", "--out", "@out.csv"], 4),
    *[(args, 4) for capacity in ("capacity_two_ids.csv", "capacity_nan.csv", "capacity_inf.csv")
      for args in (
        ["segment", "--samples", "@samples.csv", "--capacity", f"@{capacity}", "--out", "@out.json"],
        ["features", "--samples", "@samples.csv", "--capacity", f"@{capacity}",
         "--segments", "@segments.json", "--out", "@out.csv"],
    )],
    (["predict", "--model", "@model.json", "--input", "@scalar.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@dict_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@short_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@str_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@bool_vector.json"], 4),
    (["correlate", "--features", "@empty.csv", "--out", "@out.json"], 4),
    (["fuse", "--features", "@empty.csv", "--out", "@out.json"], 4),
    (["train", "--features", "@empty.csv", "--model-out", "@out.json"], 4),
    (["evaluate", "--model", "@model.json", "--features", "@empty.csv",
      "--out", "@out.json"], 4),
    (["compare", "--features", "@empty.csv", "--out", "@out.json"], 4),
    (["shap", "--model", "@model.json", "--features", "@empty.csv", "--out", "@out.json"], 4),
    (["shap", "--model", "@model.json", "--features", "@features.csv", "--rows", "-3",
      "--out", "@out.json"], 2),
    (["shap", "--model", "@model.json", "--features", "@features.csv", "--rows", "0",
      "--out", "@out.json"], 2),
    (["compare", "--features", "@features.csv", "--models", "", "--out", "@out.json"], 2),
    (["compare", "--features", "@features.csv", "--models", "elm,woa-elm,svm",
      "--out", "@out.json"], 2),
    *[(["train", "--features", "@features.csv", "--config", f"@{cfg}", "--model-out", "@out.json"], 4)
      for cfg in ("cfg_null.json", "cfg_typo.json", "cfg_bool.json", "cfg_str.json")],
    *[(["compare", "--features", "@features.csv", "--config", f"@{cfg}", "--models", "elm,woa-elm",
        "--out", "@out.json"], 4)
      for cfg in ("cfg_relu.json", "cfg_one_whale.json", "cfg_no_iters.json")],
    (["synth", "--config", "@synth_list.json", "--out-dir", "@out"], 4),
    (["synth", "--config", "@synth_huge.json", "--out-dir", "@out"], 4),
    *[(args, 4) for model in BAD_MODELS for args in (
        ["predict", "--model", f"@{model}", "--input", "@vector.json"],
        ["evaluate", "--model", f"@{model}", "--features", "@features.csv", "--out", "@out.json"],
        ["shap", "--model", f"@{model}", "--features", "@features.csv", "--out", "@out.json"],
    )],
    *[(["predict", "--model", f"@{model}", "--input", "@vector.json"], 4)
      for model in MISSHAPEN_MODELS],
    # JSON nested deeper than the parser's recursion limit
    (["predict", "--model", "@deep.json", "--input", "@vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@deep.json"], 4),
    (["train", "--features", "@features.csv", "--config", "@deep.json",
      "--model-out", "@out.json"], 4),
    (["features", *DATASET, "--segments", "@deep.json", "--out", "@out.csv"], 4),
    *[(["fuse", "--features", "@features.csv", "--dims", dims, "--out", "@out.json"], 2)
      for dims in ("4", "x", "", "2,,3", "1.5")],
    (["fuse", "--features", "@features.csv", "--dims", "1,2", "--force-dim", "3",
      "--out", "@out.json"], 2),
    # NaN, Infinity and -Infinity among the features, on a plain and a fused model
    *[(["predict", "--model", f"@{model}", "--input", f"@{vector}"], 4)
      for model in ("model.json", "knn_fused.json") for vector in NON_FINITE_VECTORS],
    # finite features whose distances to every training row overflow
    (["predict", "--model", "@knn.json", "--input", "@huge_vector.json"], 4),
    # a features row of finite values that overflow the model's normalization or distances
    *[(args, 4) for model in ("model.json", "knn.json") for args in (
        ["evaluate", "--model", f"@{model}", "--features", "@huge_features.csv",
         "--out", "@out.json"],
        ["shap", "--model", f"@{model}", "--features", "@huge_features.csv", "--out", "@out.json"],
    )],
]


@pytest.mark.parametrize("args,code", MALFORMED,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_malformed_input_exit_codes(inputs, args, code, capsys, monkeypatch):
    def no_fit(*a, **k):
        raise RuntimeError("a model was fitted before the arguments were checked")

    monkeypatch.setattr("batcap.cli.elm_fit", no_fit)
    monkeypatch.setattr("batcap.pipeline.woa_elm_train", no_fit)
    assert main(_expand(inputs, args)) == code
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {code}:") and err.count("\n") == 1


def test_fuse_checks_force_dim_before_any_work(inputs, capsys, monkeypatch):
    def no_embed(*a, **k):
        raise AssertionError("t-SNE ran before --force-dim was checked")

    monkeypatch.setattr("batcap.fusion.screen_dimensions", no_embed)
    for feats in ("@features.csv", "@missing.csv"):
        args = ["fuse", "--features", feats, "--dims", "1,2", "--force-dim", "3",
                "--out", "@out.json"]
        assert main(_expand(inputs, args)) == 2
        assert "--force-dim 3 not among requested dims (1, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["segment", "features"])
@pytest.mark.parametrize("samples,capacity,bad,message", [
    ("samples.csv", "capacity_nan.csv", "capacity_nan.csv",
     "line 14: non-finite capacity for cycle 13"),
    ("samples_bad_time.csv", "capacity.csv", "samples_bad_time.csv",
     "line 2: bad time_s value 'x'"),
])
def test_dataset_parse_errors_name_the_file(inputs, command, samples, capacity, bad, message,
                                            capsys):
    args = [command, "--samples", f"@{samples}", "--capacity", f"@{capacity}", "--out", "@out.x"]
    if command == "features":
        args[-2:-2] = ["--segments", "@segments.json"]
    assert main(_expand(inputs, args)) == 4
    assert capsys.readouterr().err == f"ERROR 4: {inputs / bad}: {message}\n"


@pytest.mark.parametrize("model", ["model.json", "knn_fused.json"])
def test_predict_names_the_file_of_non_finite_features(inputs, model, capsys):
    assert main(_expand(inputs, ["predict", "--model", f"@{model}", "--input", "@vector.json"])) == 0
    assert np.isfinite(float(capsys.readouterr().out))
    for vector in NON_FINITE_VECTORS:
        assert main(_expand(inputs, ["predict", "--model", f"@{model}",
                                     "--input", f"@{vector}"])) == 4
        err = capsys.readouterr().err
        assert err.startswith("ERROR 4:") and vector in err and "finite" in err


@pytest.mark.parametrize("model", ["model.json", "knn_fused.json"])
def test_predict_names_the_file_of_features_its_normalization_overflows(inputs, model, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_expand(inputs, ["predict", "--model", f"@{model}",
                                     "--input", "@huge_vector.json"]))
    err = capsys.readouterr().err
    assert code == 4 and err.count("\n") == 1
    assert err.startswith("ERROR 4:") and "huge_vector.json" in err
    assert "outside what the model's normalization can represent" in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["evaluate", "shap"])
@pytest.mark.parametrize("model", ["model.json", "knn.json"])
def test_evaluate_and_shap_name_the_features_file_their_model_overflows(inputs, command, model,
                                                                       capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_expand(inputs, [command, "--model", f"@{model}",
                                     "--features", "@huge_features.csv", "--out", "@out.json"]))
    err = capsys.readouterr().err
    assert code == 4 and err.count("\n") == 1
    assert err.startswith("ERROR 4:") and "huge_features.csv" in err
    assert "outside what the model's normalization can represent" in err
    assert [str(w.message) for w in caught] == []


FIT_ON_HUGE_FEATURES = {
    "correlate": ["--out", "@out.json"],
    "fuse": ["--out", "@out.json"],
    "train": ["--config", "@train.json", "--model-out", "@out.json"],
    "compare": ["--config", "@train.json", "--out", "@out.json"],
    "table1": ["--config", "@train.json", "--out", "@out.json"],
}


@pytest.mark.parametrize("command", FIT_ON_HUGE_FEATURES)
def test_fitting_commands_name_the_features_file_whose_variance_overflows(inputs, command,
                                                                          capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_expand(inputs, [command, "--features", "@huge_features.csv",
                                     *FIT_ON_HUGE_FEATURES[command]]))
    err = capsys.readouterr().err
    assert code == 4 and err.count("\n") == 1
    assert err.startswith("ERROR 4:") and "huge_features.csv" in err and "overflows" in err
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("name", MISSHAPEN_MODELS)
def test_misshapen_model_is_rejected_while_decoding(inputs, name):
    with pytest.raises(ValueError, match="^malformed"):
        modelio.make_predictor(load_json(inputs / name))


CONFIG_COMMANDS = [
    ["synth", "--config", "@fuzz", "--out-dir", "@out"],
    ["train", "--features", "@features.csv", "--config", "@fuzz", "--model-out", "@out.json"],
    ["compare", "--features", "@features.csv", "--config", "@fuzz", "--out", "@out.json"],
    ["table1", "--features", "@features.csv", "--config", "@fuzz", "--out", "@out.json"],
]
MODEL_COMMANDS = [
    ["evaluate", "--model", "@fuzz", "--features", "@features.csv", "--out", "@out.json"],
    ["shap", "--model", "@fuzz", "--features", "@features.csv", "--out", "@out.json"],
    ["predict", "--model", "@fuzz", "--input", "@vector.json"],
]
FUZZ_COMMANDS = {
    "csv": [
        ["correlate", "--features", "@fuzz", "--out", "@out.json"],
        ["fuse", "--features", "@fuzz", "--out", "@out.json"],
        ["train", "--features", "@fuzz", "--model-out", "@out.json"],
        ["evaluate", "--model", "@model.json", "--features", "@fuzz", "--out", "@out.json"],
        ["compare", "--features", "@fuzz", "--out", "@out.json"],
        ["shap", "--model", "@model.json", "--features", "@fuzz", "--out", "@out.json"],
        ["table1", "--features", "@fuzz", "--out", "@out.json"],
    ],
    "json": [
        *CONFIG_COMMANDS,
        *MODEL_COMMANDS,
        ["predict", "--model", "@model.json", "--input", "@fuzz"],
        ["features", *DATASET, "--segments", "@fuzz", "--out", "@out.csv"],
    ],
    "config": CONFIG_COMMANDS,
    "model": MODEL_COMMANDS,
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# JSON values other than objects, so a fuzzed config can never be a valid one
# (which would start a full-size fit).
NON_OBJECT_JSON = JSON_VALUES.filter(lambda v: not isinstance(v, dict))
CONFIG_TYPES = {**typing.get_type_hints(data.SynthConfig),
                **typing.get_type_hints(pipeline.TrainConfig)}
NUMERIC_FIELDS = sorted(k for k, t in CONFIG_TYPES.items() if t in (int, float))
# Config objects invalid by construction: any object plus one unknown key,
# or a non-number (null, a boolean, a string, a list, an object) on a
# numeric field.
BAD_CONFIGS = st.builds(
    lambda obj, key, value: {**obj, key: value},
    st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=3),
    st.text(max_size=8).filter(lambda k: k not in CONFIG_TYPES),
    JSON_VALUES,
) | st.builds(
    lambda key, value: {key: value},
    st.sampled_from(NUMERIC_FIELDS),
    JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float))),
)
MODEL_SECTIONS = [("elm", "norm"), ("elm", "elm"), ("woa-elm", "norm"), ("woa-elm", "elm"),
                  *[(kind, kind) for kind in modelio.BASELINE_KINDS]]
# (kind, raw bytes), or for "model" ("model", ((model kind, section), value)):
# a valid model file of that kind with one section replaced by a non-object.
FUZZ_CASES = (
    st.tuples(st.sampled_from(["csv", "json"]),
              st.binary(max_size=200) | NON_OBJECT_JSON.map(lambda v: json.dumps(v).encode()))
    | st.tuples(st.just("config"), BAD_CONFIGS.map(lambda v: json.dumps(v).encode()))
    | st.tuples(st.just("model"), st.tuples(st.sampled_from(MODEL_SECTIONS), NON_OBJECT_JSON))
)


def _is_json_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw), dict)
    except ValueError:
        return False


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=FUZZ_CASES)
def test_arbitrary_input_bytes_exit_2_3_or_4(inputs, case, capsys):
    kind, raw = case
    if kind == "model":
        (model_kind, section), value = raw
        raw = json.dumps({**load_json(inputs / f"{model_kind}.json"), section: value}).encode()
    elif kind != "config":
        assume(not _is_json_object(raw))
    (inputs / "fuzz").write_bytes(raw)
    for args in FUZZ_COMMANDS[kind]:
        code = main(_expand(inputs, args))
        assert code in (2, 3, 4), f"batcap {' '.join(args)} on {raw!r} -> exit {code}"
    capsys.readouterr()


def test_shap_background_is_the_train_split_mean(inputs, capsys):
    out = inputs / "shap_row0.json"
    run(["shap", "--model", inputs / "model.json", "--features", inputs / "features.csv",
         "--rows", "1", "--out", out])
    capsys.readouterr()
    matrix = features.matrix_from_csv((inputs / "features.csv").read_text())
    train = list(data.split_rows(len(matrix.y), 0.7, derive_seed(42, "split")).train)
    predict = modelio.make_predictor(load_json(inputs / "model.json"))
    phi = np.array(load_json(out)["per_sample"][0]["phi"])
    expected = attribution.shapley_exact(predict, matrix.X[0], matrix.X[train].mean(axis=0)).phi
    all_rows = attribution.shapley_exact(predict, matrix.X[0], matrix.X.mean(axis=0)).phi
    assert phi == pytest.approx(expected, rel=1e-10, abs=1e-12)
    assert not np.allclose(phi, all_rows, rtol=1e-6)


@pytest.mark.parametrize("name,cls", [("synth.json", data.SynthConfig),
                                      ("train.json", pipeline.TrainConfig)])
def test_readme_config_keys_are_the_config_fields(name, cls):
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    match = re.search(rf"`{re.escape(name)}` accepts `([^`]*)`(?:, and a `(\w+)` key)?", readme)
    listed = [key.strip() for key in match.group(1).split(",")] + [k for k in match.groups()[1:] if k]
    assert sorted(listed) == sorted(typing.get_type_hints(cls))


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) >= 10
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "batcap", command
        build_parser().parse_args(argv[1:])
