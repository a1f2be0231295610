import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from batcap import attribution, data, features, modelio
from batcap.cli import main
from batcap.jsonio import load_json, load_schema, validate_schema
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
    (d / "empty.csv").write_text("")
    return d


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
    (["predict", "--model", "@model.json", "--input", "@scalar.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@dict_vector.json"], 4),
    (["predict", "--model", "@model.json", "--input", "@short_vector.json"], 4),
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
        ["synth", "--config", "@fuzz", "--out-dir", "@out"],
        ["train", "--features", "@features.csv", "--config", "@fuzz", "--model-out", "@out.json"],
        ["compare", "--features", "@features.csv", "--config", "@fuzz", "--out", "@out.json"],
        ["table1", "--features", "@features.csv", "--config", "@fuzz", "--out", "@out.json"],
        ["evaluate", "--model", "@fuzz", "--features", "@features.csv", "--out", "@out.json"],
        ["shap", "--model", "@fuzz", "--features", "@features.csv", "--out", "@out.json"],
        ["predict", "--model", "@fuzz", "--input", "@scalar.json"],
        ["predict", "--model", "@model.json", "--input", "@fuzz"],
        ["features", *DATASET, "--segments", "@fuzz", "--out", "@out.csv"],
    ],
}

# JSON values other than objects, so a fuzzed config can never be a valid one
# (which would start a full-size fit).
NON_OBJECT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6,
).map(lambda v: json.dumps(v).encode())


def _is_json_object(raw: bytes) -> bool:
    try:
        return isinstance(json.loads(raw), dict)
    except ValueError:
        return False


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(FUZZ_COMMANDS)),
       raw=st.binary(max_size=200) | NON_OBJECT_JSON)
def test_arbitrary_input_bytes_exit_2_3_or_4(inputs, kind, raw, capsys):
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
