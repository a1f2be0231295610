"""Command-line front end.

Subcommands cover the whole analysis chain: synthesize or ingest cycle data,
detect voltage segments, extract features, run correlation / fusion / SHAP
analyses, train and evaluate the capacity models, and predict from a stored
model. Every run is deterministic for a fixed master seed; the RUN_SEED
environment variable overrides any configured seed.

Errors print a single machine-parsable line ``ERROR <code>: <message>`` on
stderr: 2 usage, 3 missing file, 4 bad data or schema, 5 internal.

Each subcommand imports the layers it runs inside its ``cmd_*`` function (and
so do the helpers that need them), so a cold ``predict`` loads only the model
code. The top of this module imports only what every subcommand shares.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import modelio
from .jsonio import dump_json, format_number, load_schema, validate_schema
from .names import FEATURE_NAMES, FEATURE_UNITS, MAX_MAGNITUDE
from .rng import derive_seed

DEFAULT_SEED = 42
DEFAULT_NOMINAL_MAH = 170.0
COMPARE_KINDS = ("elm", "woa-elm", "rf", *modelio.BASELINE_KINDS)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(2, message)


def _read_input(path: str, decode):
    """decode(the text of the file at ``path``). Every input file is read here:
    a missing file exits 3, and an error while reading or decoding it exits 4
    with the path first (RecursionError is JSON nested too deeply)."""
    if not Path(path).is_file():
        raise CliError(3, f"input file not found: {path}")
    try:
        return decode(Path(path).read_text(encoding="utf-8"))
    except (ValueError, KeyError, TypeError, IndexError, OverflowError, RecursionError) as exc:
        detail = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        raise CliError(4, f"{path}: {detail}") from None


def _json_object(text: str) -> dict:
    """The JSON object in ``text``. No field of a model, segments or config
    file holds a boolean, and int(), float() and numpy would read one as a
    number, so a boolean anywhere in it is an error."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    stack = [("$", obj)]
    while stack:
        where, value = stack.pop()
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            if isinstance(item, (bool, dict, list)):
                at = f"{where}.{key}" if isinstance(value, dict) else f"{where}[{key}]"
                if isinstance(item, bool):
                    raise ValueError(f"{at}: expected a number, string or null, got a boolean")
                stack.append((at, item))
    return obj


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fusion_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}") from None
    for d in dims:
        if d not in (1, 2, 3):
            raise argparse.ArgumentTypeError(f"unsupported fusion dimension {d}")
    return dims


def _master_seed(args) -> int:
    env = os.environ.get("RUN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(2, f"RUN_SEED must be an integer, got {env!r}") from None
    if getattr(args, "seed", None) is not None:
        return args.seed
    return DEFAULT_SEED


def _write_artifact(obj: dict, schema_name: str, path: str) -> None:
    validate_schema(obj, load_schema(schema_name))
    dump_json(obj, path)


def _load_dataset(args) -> data.Dataset:
    from . import data
    sid, records = _read_input(args.samples, lambda text: (data.sniff_battery_id(text),
                                                           data.parse_samples(text)))
    cid, capacities = _read_input(args.capacity, lambda text: (data.sniff_battery_id(text),
                                                               data.parse_capacity(text)))
    if sid is not None and cid is not None and sid != cid:
        raise CliError(4, f"{args.capacity}: inconsistent battery_id: "
                          f"{cid!r} vs {sid!r} in {args.samples}")
    return data.assemble_dataset(records, capacities, sid or "unknown", args.nominal)


def _load_model(path: str, source: str):
    """(kind, predict) of the model file at ``path``, decoded whole; predict
    exits 4 naming ``source`` when the rows it reads overflow the model. Such
    a row shows up as an invalid operation (inf - inf, 0 / 0) or a non-finite
    prediction; overflow itself is expected there and raises no numpy warning.
    """
    def decode(text):
        obj = _json_object(text)
        return obj.get("kind"), modelio.make_predictor(obj)

    kind, predict = _read_input(path, decode)

    def checked(X):
        with np.errstate(over="ignore", invalid="raise"):
            try:
                out = predict(X)
            except FloatingPointError:
                out = None
        if out is None or not np.all(np.isfinite(out)):
            raise CliError(4, f"{source}: feature values are outside what the model's "
                              "normalization can represent")
        return out

    return kind, checked


def _make_split(args, master: int, n_rows: int, ratio: float) -> data.SplitDataset:
    from . import data
    if args.split_ordered:
        return data.split_rows_ordered(n_rows, ratio)
    seed = derive_seed(master, "split") if args.split_seed is None else args.split_seed
    return data.split_rows(n_rows, ratio, seed)


# JSON type of each config field type: booleans count as neither kind of number.
_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def _config(cls, path: str | None, check=None, **fixed):
    """A TrainConfig or SynthConfig from the fields of a JSON object.

    Each key must name a field and hold a JSON value of the field's type;
    numbers on float fields become floats within ``MAX_MAGNITUDE``. ``fixed``
    values override the file. The config must pass its ``validate`` and
    ``check(config)``.
    """
    def decode(text):
        obj = _json_object(text)
        types = typing.get_type_hints(cls)
        unknown = sorted(set(obj) - set(types))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        schema = {"properties": {name: {"type": _JSON_TYPES[t]} for name, t in types.items()}}
        validate_schema(obj, schema)
        values = {k: v if types[k] in (int, str) else float(v) for k, v in obj.items()}
        for key, value in values.items():
            if types[key] is float and not abs(value) <= MAX_MAGNITUDE:
                raise ValueError(f"bad {key} value {obj[key]!r}")
        cfg = cls(**{**values, **fixed})
        cfg.validate()
        if check:
            check(cfg)
        return cfg

    return _read_input(path, decode) if path else cls(**fixed)


def _train_config(args, master: int, n_rows: int) -> pipeline.TrainConfig:
    """The train config; its split ratio must leave rows on both sides of n_rows."""
    from . import data, pipeline
    return _config(pipeline.TrainConfig, args.config,
                   check=lambda cfg: data._train_size(n_rows, cfg.split_ratio),
                   seed=derive_seed(master, "train"))


def cmd_synth(args) -> int:
    from . import data
    fixed = {}
    if os.environ.get("RUN_SEED") is not None or args.seed is not None:
        fixed["seed"] = derive_seed(_master_seed(args), "synth")
    cfg = _config(data.SynthConfig, args.config, **fixed)
    try:
        ds = data.synth_dataset(cfg)
    except ValueError as exc:  # the config's fade law leaves a cycle no capacity
        raise CliError(4, f"{args.config}: {exc}") from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "samples.csv").write_text(data.samples_csv(ds), encoding="utf-8")
    (out_dir / "capacity.csv").write_text(data.capacity_csv(ds), encoding="utf-8")
    print(f"wrote {len(ds)} cycles to {out_dir}")
    return 0


def cmd_segment(args) -> int:
    from . import features
    ds = _load_dataset(args)
    master = _master_seed(args)
    split = _make_split(args, master, len(ds), args.ratio)
    ref_row = sorted(split.train)[len(split.train) // 2]
    reference = ds.cycles[ref_row]
    seg = features.detect_segments(reference, alpha=args.alpha, grid_mv=args.grid_mv)
    obj = features.segments_to_dict(seg, args.alpha, args.grid_mv, reference.cycle_index)
    _write_artifact(obj, "segments", args.out)
    print(f"segments from cycle {reference.cycle_index}: "
          f"vs2 = [{format_number(seg.vs2[0])}, {format_number(seg.vs2[1])}] V")
    return 0


def cmd_features(args) -> int:
    from . import features
    seg = _read_input(args.segments, lambda text: features.segments_from_dict(_json_object(text)))
    ds = _load_dataset(args)
    matrix = features.build_matrix(ds, seg, target_mode=args.target)
    Path(args.out).write_text(features.matrix_to_csv(matrix), encoding="utf-8")
    print(f"wrote {matrix.X.shape[0]}x{matrix.X.shape[1]} feature matrix to {args.out}")
    return 0


def cmd_correlate(args) -> int:
    from . import correlation, features
    matrix = _read_input(args.features, features.matrix_from_csv)
    report = correlation.correlation_report(matrix, rho=args.rho)
    _write_artifact(correlation.report_to_dict(report), "correlation", args.out)
    print(f"top by |pcc|: {', '.join(report.ranking_pcc[:3])}")
    return 0


def cmd_fuse(args) -> int:
    from . import features, fusion
    force_dim = args.force_dim
    if force_dim is not None and force_dim not in args.dims:
        raise CliError(2, f"--force-dim {force_dim} not among requested dims {args.dims}")
    matrix = _read_input(args.features, features.matrix_from_csv)
    master = _master_seed(args)
    params = fusion.TsneParams(
        perplexity=args.perplexity,
        iterations=args.iterations,
        seed=derive_seed(master, "fuse"),
    )
    scaled, _, _ = fusion.scale_feature_groups(matrix.X, FEATURE_UNITS)
    result = fusion.screen_dimensions(scaled, args.dims, params)
    obj = fusion.screening_to_dict(result, params, force_dim)
    _write_artifact(obj, "fusion", args.out)
    kl_text = ", ".join(f"d={d}: {format_number(result.kl_by_dim[d])}" for d in args.dims)
    print(f"final KL {kl_text}; recommended d = {obj['recommended_d']}")
    return 0


def cmd_train(args) -> int:
    from . import features, pipeline
    matrix = _read_input(args.features, features.matrix_from_csv)
    master = _master_seed(args)
    cfg = _train_config(args, master, len(matrix.y))
    split = _make_split(args, master, len(matrix.y), cfg.split_ratio)
    train_idx = list(split.train)
    X_train, y_train = matrix.X[train_idx], matrix.y[train_idx]

    fusion_info = None
    if args.fused:
        scaled, means, scales, X_train = pipeline.fuse_train_rows(
            X_train, derive_seed(master, "fuse"))
        fusion_info = modelio.fusion_section(means, scales, scaled, X_train)

    model, result = pipeline.woa_elm_train(X_train, y_train, cfg)
    obj = modelio.model_to_dict(model, "woa-elm", seed=cfg.seed, fusion=fusion_info)
    _write_artifact(obj, "model", args.model_out)
    if args.trace:
        trace = {
            "config": {"dim": len(result.best_position), "pop_size": cfg.woa_pop,
                       "t_max": cfg.woa_iters, "spiral_b": cfg.spiral_b,
                       "seed": cfg.seed},
            "history": result.history,
            "best_position": result.best_position.tolist(),
        }
        _write_artifact(trace, "woa_trace", args.trace)
    print(f"trained woa-elm (fitness {format_number(result.best_cost)}) -> {args.model_out}")
    return 0


def cmd_evaluate(args) -> int:
    from . import features, pipeline
    matrix = _read_input(args.features, features.matrix_from_csv)
    kind, predict = _load_model(args.model, args.features)
    master = _master_seed(args)
    split = _make_split(args, master, len(matrix.y), args.ratio)
    train_idx, test_idx = list(split.train), list(split.test)
    metrics_obj = pipeline.metrics_to_dict(
        kind,
        len(train_idx),
        len(test_idx),
        pipeline.compute_metrics(predict(matrix.X[train_idx]), matrix.y[train_idx]),
        pipeline.compute_metrics(predict(matrix.X[test_idx]), matrix.y[test_idx]),
    )
    _write_artifact(metrics_obj, "metrics", args.out)
    print(f"test rmse {format_number(metrics_obj['test']['rmse'])}, "
          f"r2 {format_number(metrics_obj['test']['r2'])}")
    return 0


def cmd_compare(args) -> int:
    from . import features, pipeline
    from .baselines import baseline_fit
    from .elm import elm_fit, elm_predict
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if not kinds:
        raise CliError(2, "--models names no model")
    for kind in kinds:
        if kind not in COMPARE_KINDS:
            raise CliError(2, f"unknown model kind {kind!r}")
    matrix = _read_input(args.features, features.matrix_from_csv)
    master = _master_seed(args)
    cfg = _train_config(args, master, len(matrix.y))
    split = _make_split(args, master, len(matrix.y), cfg.split_ratio)
    train_idx, test_idx = list(split.train), list(split.test)
    X_train, y_train = matrix.X[train_idx], matrix.y[train_idx]
    X_test, y_test = matrix.X[test_idx], matrix.y[test_idx]
    predictions = []
    for kind in kinds:
        seed = derive_seed(master, "compare", kind)
        if kind == "elm":
            model = elm_fit(X_train, y_train, hidden_l=cfg.hidden_l,
                            activation=cfg.activation, seed=seed)
            pred = elm_predict(model, X_test)
        elif kind == "woa-elm":
            model, _ = pipeline.woa_elm_train(X_train, y_train, cfg)
            pred = elm_predict(model, X_test)
        else:
            pred = baseline_fit(kind, X_train, y_train, seed=seed).predict(X_test)
        predictions.append((kind, pred))
    try:
        taylor = pipeline.taylor_points(predictions, y_test)
    except ValueError as exc:  # a statistic the targets and predictions leave undefined
        raise CliError(4, f"{args.features}: {exc}") from None
    _write_artifact(pipeline.taylor_to_dict(taylor), "taylor", args.out)
    if args.svg:
        Path(args.svg).write_text(pipeline.render_taylor_svg(taylor), encoding="utf-8")
    best = min(taylor.points, key=lambda p: p.centered_rmse)
    print(f"lowest centered RMSE: {best.name} ({format_number(best.centered_rmse)})")
    return 0


def cmd_shap(args) -> int:
    from . import attribution, features
    matrix = _read_input(args.features, features.matrix_from_csv)
    _, predict = _load_model(args.model, args.features)
    master = _master_seed(args)
    split = _make_split(args, master, len(matrix.y), args.ratio)
    rows = matrix.X if args.rows is None else matrix.X[: args.rows]
    summary = attribution.shapley_summary(predict, rows, matrix.feature_names, args.background,
                                          background_rows=matrix.X[list(split.train)])
    obj = attribution.summary_to_dict(summary)
    _write_artifact(obj, "shap", args.out)
    print(f"mean |phi| ranking: {', '.join(obj['ranking'][:3])}")
    return 0


def _feature_vector(text: str) -> np.ndarray:
    """The row of a ``predict --input`` file: a JSON list of numbers within
    ``MAX_MAGNITUDE``, or one under ``features``."""
    payload = json.loads(text)
    vector = payload.get("features") if isinstance(payload, dict) else payload
    if not (isinstance(vector, list) and len(vector) == len(FEATURE_NAMES)
            and all(type(v) in (int, float) for v in vector)):  # bool is not a number here
        raise ValueError(f"expected a list of {len(FEATURE_NAMES)} JSON numbers")
    x = np.array(vector, dtype=float)  # an integer beyond the float range overflows
    beyond = np.flatnonzero(~(np.abs(x) <= MAX_MAGNITUDE))
    if len(beyond):
        raise ValueError(f"bad {FEATURE_NAMES[beyond[0]]} value {vector[beyond[0]]!r}")
    return x


def cmd_predict(args) -> int:
    _, predict = _load_model(args.model, args.input)
    x = _read_input(args.input, _feature_vector)
    value = float(predict(x[None, :])[0])
    print(format_number(value))
    return 0


def cmd_table1(args) -> int:
    from . import features, pipeline
    matrix = _read_input(args.features, features.matrix_from_csv)
    master = _master_seed(args)
    cfg = _train_config(args, master, len(matrix.y))
    obj = pipeline.comparison_to_dict(pipeline.fused_comparison(matrix, cfg))
    _write_artifact(obj, "fusion_report", args.out)
    time_row = [r for r in obj["rows"] if r["item"] == "Time(mS)"][0]
    print(f"fit time {format_number(time_row['before_fusion'])} ms -> "
          f"{format_number(time_row['after_fusion'])} ms")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="batcap",
                     description="Battery capacity analysis and prediction toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (default {DEFAULT_SEED}; RUN_SEED env overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    def add_dataset_args(p):
        p.add_argument("--samples", required=True)
        p.add_argument("--capacity", required=True)
        p.add_argument("--nominal", type=float, default=DEFAULT_NOMINAL_MAH)

    def add_split_args(p, ratio: bool):
        """The split flags; ``train`` and ``compare`` take the ratio from their config."""
        if ratio:
            p.add_argument("--ratio", type=float, default=0.7)
        p.add_argument("--split-seed", type=int, default=None)
        p.add_argument("--split-ordered", action="store_true",
                       help="first rows train, last rows test (no shuffle)")

    p = sub.add_parser("segment", help="detect the voltage study ranges")
    add_dataset_args(p)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--grid-mv", type=float, default=10.0)
    add_split_args(p, ratio=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("features", help="extract the 13-feature matrix")
    add_dataset_args(p)
    p.add_argument("--segments", required=True)
    p.add_argument("--target", choices=("raw", "normalized"), default="raw")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("correlate", help="PCC and grey relational analysis")
    p.add_argument("--features", required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("fuse", help="t-SNE fusion with KL screening")
    p.add_argument("--features", required=True)
    p.add_argument("--dims", type=_fusion_dims, default="1,2,3")
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--force-dim", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("train", help="train the WOA-ELM capacity model")
    p.add_argument("--features", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--model-out", required=True)
    p.add_argument("--fused", action="store_true")
    add_split_args(p, ratio=False)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a stored model on a split")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    add_split_args(p, ratio=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="fit several models and emit Taylor data")
    p.add_argument("--features", required=True)
    p.add_argument("--models", default="elm,woa-elm,knn,rf,gbrt")
    p.add_argument("--config", default=None)
    add_split_args(p, ratio=False)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("shap", help="exact Shapley attributions of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--background", choices=("mean", "median"), default="mean")
    add_split_args(p, ratio=True)
    p.add_argument("--rows", type=_positive_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_shap)

    p = sub.add_parser("predict", help="predict capacity for one feature vector")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("table1", help="before/after fusion comparison report")
    p.add_argument("--features", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"ERROR 3: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"ERROR 4: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ERROR 5: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
