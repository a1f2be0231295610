import json
import os
import re
import shlex
import subprocess
import sys
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
    # every feature at the largest magnitude the CLI reads, in a vector and a row
    (d / "huge_vector.json").write_text(json.dumps([1e100] * n))
    lines = (d / "features.csv").read_text().splitlines()
    cycle, *_, target = lines[1].split(",")
    lines[1] = ",".join([cycle, *["1e100"] * n, target])
    (d / "huge_features.csv").write_text("\n".join(lines) + "\n")
    (d / "empty.csv").write_text("")
    header, first, *rows = (d / "features.csv").read_text().splitlines()
    (d / "bad_header.csv").write_text("\n".join([header.replace("F3", "F03"), first]) + "\n")
    (d / "short_row.csv").write_text("\n".join([header, first.rsplit(",", 1)[0], *rows]) + "\n")
    cells = first.split(",")
    cells[3] = "x"  # F3
    (d / "bad_number.csv").write_text("\n".join([header, ",".join(cells), *rows]) + "\n")
    for value in REFUSED_CELLS:  # in F5 of the second row
        cells = rows[0].split(",")
        cells[5] = value
        (d / f"features_{value}.csv").write_text(
            "\n".join([header, first, ",".join(cells), *rows[1:]]) + "\n")
    (d / "not_utf8.bin").write_bytes(b'{"n_cycles": "\xff"}')
    # capacity files with a second battery id, and with a NaN, infinite or too large capacity
    header, *rows = (d / "capacity.csv").read_text().splitlines()
    two_ids = rows[:-10] + [row.replace("synthetic", "other") for row in rows[-10:]]
    (d / "capacity_two_ids.csv").write_text("\n".join([header, *two_ids]) + "\n")
    (d / "capacity_other_id.csv").write_text(
        "\n".join([header, *(row.replace("synthetic", "other") for row in rows)]) + "\n")
    for value in ("nan", "inf", "1e101"):
        bad = rows[:12] + [rows[12].rsplit(",", 1)[0] + "," + value] + rows[13:]
        (d / f"capacity_{value}.csv").write_text("\n".join([header, *bad]) + "\n")
    # samples files with a bad time, a NaN voltage in the cycle segment reads,
    # an infinite time and a cycle spelled 1_0
    header, first, *rows = (d / "samples.csv").read_text().splitlines()
    battery, cycle, _, voltage = first.split(",")
    (d / "samples_bad_time.csv").write_text(
        "\n".join([header, f"{battery},{cycle},x,{voltage}", *rows]) + "\n")
    split = data.split_rows(SYNTH_CFG["n_cycles"], 0.7, derive_seed(42, "split"))
    reference = str(sorted(split.train)[len(split.train) // 2] + 1)
    rows = [first, *rows]
    cells = [row.split(",") for row in rows]
    in_reference = [i for i, c in enumerate(cells) if c[1] == reference]
    cells[in_reference[len(in_reference) // 2]][3] = "nan"
    (d / "samples_nan_voltage.csv").write_text(
        "\n".join([header, *map(",".join, cells)]) + "\n")
    (d / "samples_inf_time.csv").write_text(
        "\n".join([header, *rows[:-1], ",".join([*rows[-1].split(",")[:2], "inf", voltage])])
        + "\n")
    (d / "samples_cycle_1_0.csv").write_text(
        "\n".join([header, *rows]).replace(f"{battery},10,", f"{battery},1_0,") + "\n")
    (d / "deep.json").write_text("[" * 200_000)
    (d / "truncated.json").write_text("[")
    (d / "no_features_key.json").write_text('{"values": [0.5]}')
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
    # Models that divide by tiny sds or scales, with their weights or training
    # rows scaled to match: ordinary rows read as before, while huge_vector.json
    # and huge_features.csv overflow them.
    elm, knn = load_json(d / "model.json"), load_json(d / "knn.json")
    tiny = 1e-250
    dump_json({**elm, "norm": {**elm["norm"], "sds": [sd * tiny for sd in elm["norm"]["sds"]]},
               "elm": {**elm["elm"], "omega": (np.array(elm["elm"]["omega"]) * tiny).tolist()}},
              d / "model_tiny_sds.json")
    tiny = 1e-140  # a knn model squares its distances
    dump_json(_replaced(knn, "knn", sds=[sd * tiny for sd in knn["knn"]["sds"]],
                        train_x=(np.array(knn["knn"]["train_x"]) / tiny).tolist()),
              d / "knn_tiny_sds.json")
    dump_json({**knn, "fusion": modelio.fusion_section(np.zeros(n), np.full(n, tiny),
                                                      matrix.X / tiny, matrix.X)},
              d / "knn_fused_tiny_scales.json")
    # counts and numbers beyond the float range (JSON reads 1e400 as inf), and NaN
    elm, fused = load_json(d / "elm.json"), load_json(d / "fusion_k0.json")
    beta = elm["elm"]["beta"]
    for name, obj in {"elm_l_1e400.json": _replaced(elm, "elm", l="HUGE"),
                      "fusion_k_1e400.json": _replaced(fused, "fusion", k="HUGE"),
                      "elm_beta_nan.json": _replaced(elm, "elm", beta=["NAN", *beta[1:]]),
                      "elm_beta_1e400.json": _replaced(elm, "elm", beta=["HUGE", *beta[1:]]),
                      "elm_tmin_nan.json": _replaced(elm, "norm", tmin="NAN")}.items():
        (d / name).write_text(json.dumps(obj).replace('"HUGE"', "1e400").replace('"NAN"', "NaN"))
    segments = load_json(d / "segments.json")
    for name, vs1 in {"segments_vs1_object.json": {"a": 1},
                      "segments_vs1_string.json": "x",
                      "segments_vs1_true.json": [True, segments["vs1"][1]]}.items():
        dump_json({**segments, "vs1": vs1}, d / name)
    (d / "knn_k_true.json").write_text(json.dumps(_replaced(load_json(d / "knn.json"), "knn",
                                                            k=True)))
    return d


def _replaced(obj, section, **fields):
    return {**obj, section: {**obj[section], **fields}}


def _misshapen_models(d, matrix):
    """Model files missing a section, or of the right JSON types with an array
    of the wrong shape."""
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
        # an ELM that reads 2 fused inputs but carries no fusion section
        "elm_fused_null_fusion.json": {
            **_replaced(elm, "elm", omega=[row[:2] for row in elm["elm"]["omega"]]),
            "norm": {**elm["norm"], "means": elm["norm"]["means"][:2],
                     "sds": elm["norm"]["sds"][:2]},
        },
        "elm_short_norm_means.json": _replaced(elm, "norm", means=elm["norm"]["means"][:5]),
        "elm_no_norm.json": {k: v for k, v in elm.items() if k != "norm"},
        "knn_short_means.json": _replaced(knn, "knn", means=knn["knn"]["means"][:5]),
        "fusion_short_scales.json": _replaced(fused, "fusion",
                                              scales=fused["fusion"]["scales"][:3]),
        "fusion_narrow_train_x.json": _replaced(fused, "fusion",
                                                train_x=matrix.X[:, :5].tolist()),
        "fusion_no_scales.json": {**fused, "fusion": {k: v for k, v in fused["fusion"].items()
                                                      if k != "scales"}},
        "elm_activation_list.json": _replaced(elm, "elm", activation=["x"]),
        "elm_activation_relu.json": _replaced(elm, "elm", activation="relu"),
        "forest_no_trees.json": {"kind": "forest", "forest": {"trees": []}},
        "knn_k_beyond_rows.json": _replaced(knn, "knn", k=len(knn["knn"]["train_x"]) + 1),
        # a split node without its feature: not a leaf, which holds only a value
        "tree_split_no_feature.json": {**tree, "tree": {k: v for k, v in tree["tree"].items()
                                                        if k != "feature"}},
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
    "synth_few_cycles.json": {"n_cycles": 5},
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
                    "fusion_flat_train_y.json", "fusion_k0.json",
                    "elm_fused_null_fusion.json", "elm_short_norm_means.json",
                    "elm_no_norm.json", "knn_short_means.json", "fusion_short_scales.json",
                    "fusion_narrow_train_x.json", "fusion_no_scales.json",
                    "elm_activation_list.json", "elm_activation_relu.json",
                    "elm_l_1e400.json", "fusion_k_1e400.json", "elm_beta_nan.json",
                    "elm_beta_1e400.json", "elm_tmin_nan.json", "forest_no_trees.json",
                    "knn_k_beyond_rows.json", "tree_split_no_feature.json"]
# segments files of the right outer type whose vs1 is not a pair of numbers
BAD_SEGMENTS = ["segments_vs1_object.json", "segments_vs1_string.json"]


# features cells beyond the largest magnitude the CLI reads
REFUSED_CELLS = ("nan", "inf", "-inf", "1e400", "-1e101")
NON_FINITE_VECTORS = {"nan_vector.json": float("nan"), "inf_vector.json": float("inf"),
                      "neg_inf_vector.json": float("-inf"), "beyond_vector.json": -1e101}


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
    *[(["features", *DATASET, "--segments", f"@{seg}", "--out", "@out.csv"], 4)
      for seg in BAD_SEGMENTS],
    *[(args, 4) for samples, capacity in (
        ("samples.csv", "capacity_two_ids.csv"), ("samples.csv", "capacity_nan.csv"),
        ("samples.csv", "capacity_inf.csv"), ("samples.csv", "capacity_1e101.csv"),
        ("samples_nan_voltage.csv", "capacity.csv"), ("samples_inf_time.csv", "capacity.csv"),
        ("samples_cycle_1_0.csv", "capacity.csv"))
      for args in (
        ["segment", "--samples", f"@{samples}", "--capacity", f"@{capacity}", "--out", "@out.json"],
        ["features", "--samples", f"@{samples}", "--capacity", f"@{capacity}",
         "--segments", "@segments.json", "--out", "@out.csv"],
    )],
    (["predict", "--model", "@model.json", "--input", "@scalar.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@dict_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@short_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@str_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@bool_vector.json"], 4),
    *[(["train", "--features", f"@features_{value}.csv", "--model-out", "@out.json"], 4)
      for value in REFUSED_CELLS],
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
    # NaN, Infinity, -Infinity and 1e101 among the features, on a plain and a fused model
    *[(["predict", "--model", f"@{model}", "--input", f"@{vector}"], 4)
      for model in ("model.json", "knn_fused.json") for vector in NON_FINITE_VECTORS],
    # features whose distances to every training row overflow
    (["predict", "--model", "@knn_tiny_sds.json", "--input", "@huge_vector.json"], 4),
    # a features row that overflows the model's normalization or distances
    *[(args, 4) for model in ("model_tiny_sds.json", "knn_tiny_sds.json") for args in (
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

    monkeypatch.setattr("batcap.elm.elm_fit", no_fit)
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
@pytest.mark.parametrize("samples,capacity,bad,column,token", [
    ("samples.csv", "capacity_nan.csv", "capacity_nan.csv", "discharge_capacity_mah", "nan"),
    ("samples.csv", "capacity_1e101.csv", "capacity_1e101.csv", "discharge_capacity_mah",
     "1e101"),
    ("samples_bad_time.csv", "capacity.csv", "samples_bad_time.csv", "time_s", "x"),
    ("samples_nan_voltage.csv", "capacity.csv", "samples_nan_voltage.csv", "voltage_v", "nan"),
    ("samples_inf_time.csv", "capacity.csv", "samples_inf_time.csv", "time_s", "inf"),
    ("samples_cycle_1_0.csv", "capacity.csv", "samples_cycle_1_0.csv", "cycle", "1_0"),
])
def test_dataset_parse_errors_name_the_file(inputs, command, samples, capacity, bad, column,
                                            token, capsys):
    header, *rows = (inputs / bad).read_text().splitlines()
    j = header.split(",").index(column)
    line = next(n for n, row in enumerate(rows, start=2) if row.split(",")[j] == token)
    args = [command, "--samples", f"@{samples}", "--capacity", f"@{capacity}", "--out", "@out.x"]
    if command == "features":
        args[-2:-2] = ["--segments", "@segments.json"]
    assert main(_expand(inputs, args)) == 4
    assert capsys.readouterr().err == (f"ERROR 4: {inputs / bad}: line {line}: "
                                       f"bad {column} value {token!r}\n")


@pytest.mark.parametrize("model", ["model.json", "knn_fused.json"])
def test_predict_names_the_file_of_non_finite_features(inputs, model, capsys):
    assert main(_expand(inputs, ["predict", "--model", f"@{model}", "--input", "@vector.json"])) == 0
    assert np.isfinite(float(capsys.readouterr().out))
    for vector in NON_FINITE_VECTORS:
        assert main(_expand(inputs, ["predict", "--model", f"@{model}",
                                     "--input", f"@{vector}"])) == 4
        assert capsys.readouterr().err == (f"ERROR 4: {inputs / vector}: bad F6 value "
                                           f"{NON_FINITE_VECTORS[vector]!r}\n")


@pytest.mark.parametrize("model", ["model_tiny_sds.json", "knn_fused_tiny_scales.json"])
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
@pytest.mark.parametrize("model", ["model_tiny_sds.json", "knn_tiny_sds.json"])
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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("model", ["model_tiny_sds.json", "knn_tiny_sds.json"])
def test_shap_names_the_features_file_when_only_its_last_row_overflows(inputs, model, cpus,
                                                                       capsys, monkeypatch):
    # The ordered split leaves the last row out of the background, so it is the
    # one row that fails; with 2 CPUs it runs off the calling thread.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    header, *rows = (inputs / "features.csv").read_text().splitlines()
    cycle, *_, target = rows[-1].split(",")
    rows[-1] = ",".join([cycle, *["1e100"] * len(features.FEATURE_NAMES), target])
    (inputs / "huge_last_row.csv").write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_expand(inputs, ["shap", "--model", f"@{model}", "--split-ordered",
                                     "--features", "@huge_last_row.csv", "--out", "@out.json"]))
    assert code == 4
    assert capsys.readouterr().err == (
        f"ERROR 4: {inputs / 'huge_last_row.csv'}: feature values are outside what the "
        "model's normalization can represent\n")
    assert [str(w.message) for w in caught] == []


FIT_ON_HUGE_FEATURES = {
    "correlate": ["--out", "@out.json"],
    "fuse": ["--out", "@out.json"],
    "train": ["--config", "@train.json", "--model-out", "@out.json"],
    "compare": ["--config", "@train.json", "--out", "@out.json"],
    "table1": ["--config", "@train.json", "--out", "@out.json"],
}


@pytest.mark.parametrize("command", FIT_ON_HUGE_FEATURES)
def test_fitting_commands_read_a_row_at_the_largest_magnitude_without_a_warning(inputs, command,
                                                                                 capsys):
    # No sum of squares over fewer than 1e107 rows of such values overflows.
    # Scaled by that row, the other rows of a unit group become equal, which
    # fusion refuses.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(_expand(inputs, [command, "--features", "@huge_features.csv",
                                     *FIT_ON_HUGE_FEATURES[command]]))
    err = capsys.readouterr().err
    if command in ("fuse", "table1"):
        assert code == 4
        assert re.fullmatch(r"ERROR 4: duplicate rows \d+ and \d+; deduplicate before fusing\n", err)
    else:
        assert (code, err) == (0, "")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", FIT_ON_HUGE_FEATURES)
def test_fitting_commands_name_the_features_file_line_and_column_beyond_it(inputs, command,
                                                                           capsys):
    code = main(_expand(inputs, [command, "--features", "@features_-1e101.csv",
                                 *FIT_ON_HUGE_FEATURES[command]]))
    assert code == 4
    assert capsys.readouterr().err == (f"ERROR 4: {inputs / 'features_-1e101.csv'}: "
                                       "line 3: bad F5 value '-1e101'\n")


@pytest.mark.parametrize("scale", [1e151, 4e152])
def test_compare_refuses_targets_beyond_the_largest_magnitude(inputs, scale, capsys):
    # Targets near 1e151 made every tree a stump and left the correlation
    # undefined, and centered targets near 4e152 overflowed squares in the
    # split scan (the library tests keep both cases).
    header, *rows = (inputs / "features.csv").read_text().splitlines()
    y = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
    y = scale * (y - y.mean())
    rows = [f"{row.rsplit(',', 1)[0]},{v!r}" for row, v in zip(rows, y.tolist())]
    (inputs / "huge_targets.csv").write_text("\n".join([header, *rows]) + "\n")
    code = main(_expand(inputs, ["compare", "--features", "@huge_targets.csv",
                                 "--models", "rf,gbrt", "--out", "@out.json"]))
    line, value = next((n, row.rsplit(",", 1)[1]) for n, row in enumerate(rows, start=2)
                       if abs(float(row.rsplit(",", 1)[1])) > 1e100)
    assert code == 4
    assert capsys.readouterr().err == (f"ERROR 4: {inputs / 'huge_targets.csv'}: "
                                       f"line {line}: bad target value {value!r}\n")


@pytest.mark.parametrize("name", MISSHAPEN_MODELS)
def test_misshapen_model_is_rejected_while_decoding(inputs, name):
    with pytest.raises(ValueError, match="^malformed"):
        modelio.make_predictor(load_json(inputs / name))


@pytest.mark.parametrize("args,bad", [
    (["predict", "--model", "@truncated.json", "--input", "@vector.json"], "truncated.json"),
    (["predict", "--model", "@model.json", "--input", "@truncated.json"], "truncated.json"),
    (["train", "--features", "@features.csv", "--config", "@truncated.json",
      "--model-out", "@out.json"], "truncated.json"),
    (["features", *DATASET, "--segments", "@truncated.json", "--out", "@out.csv"],
     "truncated.json"),
    (["predict", "--model", "@model.json", "--input", "@no_features_key.json"],
     "no_features_key.json"),
])
def test_json_errors_name_the_file(inputs, args, bad, capsys):
    assert main(_expand(inputs, args)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR 4: {inputs / bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("args,bad", [
    *[(args, model) for model in ("elm_activation_list.json", "elm_activation_relu.json",
                                  "elm_l_1e400.json", "fusion_k_1e400.json", "elm_no_norm.json",
                                  "elm_beta_nan.json", "elm_beta_1e400.json",
                                  "elm_tmin_nan.json", "forest_no_trees.json")
      for args in (
        ["predict", "--model", f"@{model}", "--input", "@vector.json"],
        ["evaluate", "--model", f"@{model}", "--features", "@features.csv", "--out", "@out.json"],
        ["shap", "--model", f"@{model}", "--features", "@features.csv", "--out", "@out.json"],
    )],
    *[(["features", *DATASET, "--segments", f"@{seg}", "--out", "@out.csv"], seg)
      for seg in [*BAD_SEGMENTS, "segments_vs1_true.json"]],
    # a boolean, which int(), float() and numpy would read as 1
    (["predict", "--model", "@knn_k_true.json", "--input", "@vector.json"], "knn_k_true.json"),
    # a features CSV that is empty, has a bad header, a short row or a bad number
    *[(args, feats) for feats in ("empty.csv", "bad_header.csv", "short_row.csv", "bad_number.csv")
      for args in (
        ["correlate", "--features", f"@{feats}", "--out", "@out.json"],
        ["evaluate", "--model", "@model.json", "--features", f"@{feats}", "--out", "@out.json"],
    )],
    # config values out of range
    *[(["train", "--features", "@features.csv", "--config", f"@{cfg}", "--model-out", "@out.json"],
       cfg) for cfg in ("cfg_relu.json", "cfg_one_whale.json", "cfg_no_iters.json")],
    (["synth", "--config", "@synth_few_cycles.json", "--out-dir", "@out"], "synth_few_cycles.json"),
    # a capacity file of another battery than the samples file
    *[([command, "--samples", "@samples.csv", "--capacity", "@capacity_other_id.csv",
        *extra, "--out", "@out.x"], "capacity_other_id.csv")
      for command, extra in (("segment", []), ("features", ["--segments", "@segments.json"]))],
    # a file that is not UTF-8 text, given as each kind of input
    *[(args, "not_utf8.bin") for args in (
        ["predict", "--model", "@not_utf8.bin", "--input", "@vector.json"],
        ["predict", "--model", "@model.json", "--input", "@not_utf8.bin"],
        ["train", "--features", "@features.csv", "--config", "@not_utf8.bin",
         "--model-out", "@out.json"],
        ["features", *DATASET, "--segments", "@not_utf8.bin", "--out", "@out.csv"],
        ["segment", "--samples", "@not_utf8.bin", "--capacity", "@capacity.csv",
         "--out", "@out.json"],
        ["correlate", "--features", "@not_utf8.bin", "--out", "@out.json"],
    )],
])
def test_decode_errors_name_the_file(inputs, args, bad, capsys):
    assert main(_expand(inputs, args)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR 4: {inputs / bad}: ") and err.count("\n") == 1


def test_battery_id_mismatch_names_both_files(inputs, capsys):
    args = ["segment", "--samples", "@samples.csv", "--capacity", "@capacity_other_id.csv",
            "--out", "@out.json"]
    assert main(_expand(inputs, args)) == 4
    assert capsys.readouterr().err == (
        f"ERROR 4: {inputs / 'capacity_other_id.csv'}: inconsistent battery_id: "
        f"'other' vs 'synthetic' in {inputs / 'samples.csv'}\n")


@pytest.mark.parametrize("segments,code", [("segments_vs1_string.json", 4), ("missing.json", 3)])
def test_features_reads_segments_before_the_csvs(inputs, segments, code, capsys, monkeypatch):
    def no_parse(*a, **k):
        raise AssertionError("the samples CSV was parsed before --segments was read")

    monkeypatch.setattr("batcap.data.parse_samples", no_parse)
    args = ["features", *DATASET, "--segments", f"@{segments}", "--out", "@out.csv"]
    assert main(_expand(inputs, args)) == code
    assert capsys.readouterr().err.startswith(f"ERROR {code}: ")


# Layers that fit, ingest or explain; a cold predict on an ELM loads none of them.
FIT_LAYERS = {"data", "features", "correlation", "attribution", "pipeline", "woa", "baselines",
              "parallel"}


@pytest.mark.parametrize("model,loaded", [(None, set()), ("model.json", set()),
                                          ("knn.json", {"baselines"})])
def test_cold_predict_imports_only_model_code(inputs, model, loaded):
    """A fresh interpreter per case: which batcap layers importing the CLI, and
    predicting with a plain ELM or a knn model, loads."""
    code = "import batcap.cli"
    argv = []
    if model is not None:
        code = "import sys; from batcap.cli import main; assert main(sys.argv[1:]) == 0"
        argv = ["predict", "--model", str(inputs / model), "--input", str(inputs / "vector.json")]
    code += "; import sys; print(*(m for m in sys.modules if m.startswith('batcap.')))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = {m.removeprefix("batcap.") for m in proc.stdout.splitlines()[-1].split()}
    assert "cli" in modules and modules & FIT_LAYERS == loaded


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


# Valid files for the leaf-mutation fuzz, each with the commands that read it.
MUTANT_COMMANDS = {
    **{model: [[*args[:2], "@mutant.json", *args[3:]] for args in MODEL_COMMANDS]
       for model in ("elm.json", "woa-elm.json", "knn_fused.json", "forest.json", "gbrt.json")},
    "segments.json": [["features", *DATASET, "--segments", "@mutant.json", "--out", "@out.csv"]],
}
# Top-level leaves that no decoder reads: a model's seed and absent fusion
# section, and the segments file's record of how it was made.
UNREAD_LEAVES = {"seed", "fusion", "alpha", "grid_mv", "reference_cycle"}
# A fusion k beyond the training rows embeds from all of them, so 10**400 there is valid.
CLAMPED_LEAVES = {("fusion", "k")}
# What a mutation puts in place of a leaf. "cut" deletes a key, or cuts an
# array at the leaf; "swap" puts in a value of another JSON type than the leaf's.
LEAF_MUTATIONS = ["cut", "swap", float("nan"), "1e400", 10 ** 400]


def _leaf_paths(obj, path=()):
    if not isinstance(obj, (dict, list)):
        yield path
        return
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield from _leaf_paths(value, (*path, key))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(list(MUTANT_COMMANDS)), field_pick=st.integers(min_value=0),
       leaf_pick=st.integers(min_value=0), mutation=st.sampled_from(LEAF_MUTATIONS),
       swap=st.sampled_from(["x", None, [], {}, True, False]))
def test_mutating_one_leaf_names_the_file(inputs, name, field_pick, leaf_pick, mutation, swap,
                                          capsys):
    obj = load_json(inputs / name)
    paths = [p for p in _leaf_paths(obj) if len(p) > 1 or p[0] not in UNREAD_LEAVES]
    # Pick a field (the first two keys of a path) first, so that a scalar such
    # as a gbrt base is as likely to be hit as a leaf of a long array.
    fields = sorted({p[:2] for p in paths}, key=str)
    field = fields[field_pick % len(fields)]
    leaves = [p for p in paths if p[:2] == field]
    *parents, key = leaves[leaf_pick % len(leaves)]
    assume(mutation != 10 ** 400 or (*parents, key) not in CLAMPED_LEAVES)
    parent = obj
    for step in parents:
        parent = parent[step]
    if mutation == "cut":
        del parent[slice(key, None) if isinstance(parent, list) else key]
    elif mutation == "swap":
        parent[key] = 1 if isinstance(parent[key], str) else swap
    else:
        parent[key] = mutation
    mutant = inputs / "mutant.json"
    mutant.write_text(json.dumps(obj).replace('"1e400"', "1e400"))
    for args in MUTANT_COMMANDS[name]:
        code = main(_expand(inputs, args))
        err = capsys.readouterr().err
        assert code in (2, 3, 4), f"batcap {' '.join(args)} -> exit {code} at {parents}, {key}"
        assert err.count("\n") == 1 and str(mutant) in err, err



FEATURES_COLUMNS = ["cycle", *features.FEATURE_NAMES, "target"]
CSV_READERS = [
    ["correlate", "--features", "@broken.csv", "--out", "@out.json"],
    ["evaluate", "--model", "@model.json", "--features", "@broken.csv", "--out", "@out.json"],
    ["shap", "--model", "@model.json", "--features", "@broken.csv", "--out", "@out.json"],
]


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fault=st.sampled_from(["token", "short", "long"]), row_pick=st.integers(min_value=0),
       column_pick=st.integers(min_value=0), token=st.sampled_from(["x", "", " ", "1.2.3", "0x1f"]),
       blank=st.none() | st.tuples(st.integers(min_value=0), st.sampled_from(["", " ", "\t"])),
       newline=st.sampled_from(["lf", "crlf", "one crlf"]))
def test_a_broken_features_csv_names_the_file_and_line(inputs, fault, row_pick, column_pick,
                                                       token, blank, newline, capsys):
    header, *rows = (inputs / "features.csv").read_text().splitlines()
    row = row_pick % len(rows)
    cells = rows[row].split(",")
    column = column_pick % len(cells)
    if fault == "token":
        cells[column] = token
    elif fault == "short":
        del cells[column]
    else:
        cells.insert(column, "1")
    message = (f"bad {FEATURES_COLUMNS[column]} value {token!r}" if fault == "token"
               else f"expected {len(FEATURES_COLUMNS)} columns, got {len(cells)}")
    rows[row] = ",".join(cells)
    lines, line_no = [header, *rows], row + 2
    if blank is not None:
        at = blank[0] % (len(lines) + 1)
        lines.insert(at, blank[1])
        line_no += at < line_no
    message = (f"line {line_no}: {message}" if lines[0] == header
               else f"expected header {','.join(FEATURES_COLUMNS)!r}")
    endings = ["\r\n" if newline == "crlf" else "\n"] * len(lines)
    if newline == "one crlf":
        endings[row_pick % len(lines)] = "\r\n"
    broken = inputs / "broken.csv"
    broken.write_bytes("".join(map(str.__add__, lines, endings)).encode())
    for args in CSV_READERS:
        assert main(_expand(inputs, args)) == 4
        assert capsys.readouterr().err == f"ERROR 4: {broken}: {message}\n"


@pytest.mark.parametrize("value", REFUSED_CELLS)
def test_a_non_finite_features_cell_names_the_file_line_and_column(inputs, value, capsys):
    for args in CSV_READERS:
        args = [f"@features_{value}.csv" if a == "@broken.csv" else a for a in args]
        assert main(_expand(inputs, args)) == 4
        assert capsys.readouterr().err == (f"ERROR 4: {inputs / f'features_{value}.csv'}: "
                                           f"line 3: bad F5 value '{value}'\n")


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


# Numbers a fuzzed config or feature vector holds: ordinary ones, any float
# (NaN and the infinities included), integers, and edges of the float range.
FUZZ_NUMBERS = (st.floats(-1e3, 1e3) | st.floats() | st.integers(-10 ** 6, 10 ** 6)
                | st.sampled_from([1e100, -1e100, 1e101, 1e308, 10 ** 400, -10 ** 400]))
# Config objects of the right keys and JSON types, so most reach a run. The
# size fields are always there and small, so that a valid config is a quick run.
SIZE_FIELDS = {"n_cycles": st.integers(18, 40), "hidden_l": st.integers(0, 6),
               "woa_pop": st.integers(1, 4), "woa_iters": st.integers(0, 2)}


def _runnable_configs(cls):
    types = typing.get_type_hints(cls)
    return st.fixed_dictionaries(
        {name: SIZE_FIELDS[name] for name in types if name in SIZE_FIELDS},
        optional={name: st.sampled_from(["sigmoid", "tanh", "relu", ""]) if t is str
                  else st.integers() if t is int else FUZZ_NUMBERS
                  for name, t in types.items() if name not in SIZE_FIELDS})


RUNNABLE_CONFIGS = {cls: _runnable_configs(cls) for cls in (data.SynthConfig, pipeline.TrainConfig)}
RUNNABLE_COMMANDS = [
    (data.SynthConfig, ["synth", "--config", "@fuzz.json", "--out-dir", "@fuzz_out"]),
    (pipeline.TrainConfig, ["train", "--features", "@features.csv", "--config", "@fuzz.json",
                            "--model-out", "@out.json"]),
    (pipeline.TrainConfig, ["table1", "--features", "@features.csv", "--config", "@fuzz.json",
                            "--out", "@out.json"]),
]
# A predict --input payload: 13 numbers, or a list of another length, bare
# or under "features".
_FUZZ_LISTS = st.lists(FUZZ_NUMBERS, min_size=13, max_size=13) | st.lists(FUZZ_NUMBERS,
                                                                          max_size=14)
FUZZ_VECTORS = _FUZZ_LISTS | _FUZZ_LISTS.map(lambda v: {"features": v})


def _exits_0_or_4_naming(path, args, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code == 4 and err.count("\n") == 1
                                      and err.startswith(f"ERROR 4: {path}: ")), (code, err)
    # numpy's floating-point warnings; elm's notice of an underdetermined fit is advice
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(RUNNABLE_COMMANDS), data_=st.data())
def test_a_fuzzed_config_exits_0_or_4_naming_the_file(inputs, command, data_, capsys):
    cls, args = command
    (inputs / "fuzz.json").write_text(json.dumps(data_.draw(RUNNABLE_CONFIGS[cls])))
    _exits_0_or_4_naming(inputs / "fuzz.json", _expand(inputs, args), capsys)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from(["model.json", "knn.json", "knn_fused.json", "forest.json"]),
       vector=FUZZ_VECTORS)
def test_a_fuzzed_predict_input_exits_0_or_4_naming_the_file(inputs, model, vector, capsys):
    (inputs / "fuzz.json").write_text(json.dumps(vector))
    _exits_0_or_4_naming(inputs / "fuzz.json", _expand(inputs, [
        "predict", "--model", f"@{model}", "--input", "@fuzz.json"]), capsys)
