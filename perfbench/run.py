"""Run one benchmark workload on a seed and print its metrics.

Usage:
    python3 perfbench/run.py --workload fit|explain|ingest --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports batcap from ``src/``
there and exits with code 2, printing no result, when that source is absent.
Fixtures are generated from ``--seed`` during set-up, which is repeated
SETUP_REPS times and timed. The workload's pass is then repeated for about
``--seconds`` seconds. With ``--trace 0`` a fixed series of cold ``predict``
subprocesses follows, and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
are printed. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full report with
provenance, artifact digests and the span table goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread for the benchmark and every process it starts; set before
# numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("RUN_SEED", None)  # would override every --seed the CLI gets

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3
MIN_PASSES = 2            # untraced passes, or one untraced and one traced
PREDICT_CALLS = 40        # cold predicts per run: the tail is then p75
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
IMPORT_REPS = 5
HARD_STOP_S = 120.0       # no pass starts after this much time in the run
CLI_SUBCOMMANDS = ("synth", "segment", "features", "correlate", "fuse", "train",
                   "evaluate", "compare", "shap", "table1")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="batcap benchmark")
    parser.add_argument("--workload", required=True, choices=("fit", "explain", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- provenance and digests ------------------------------------------------

def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "batcap").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _artifact_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "fusion_report.json":  # wall times are the one exemption
        obj = json.loads(data)
        for row in obj["rows"]:
            if row["item"] == "Time(mS)":
                row.update(before_fusion=None, after_fusion=None, diff_percent=None)
        data = json.dumps(obj, indent=2).encode()
    return data


def digests(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(_artifact_bytes(p)).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


# -- measurement -----------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (percentile, value)."""
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def cold_predicts(ops, seed: int, models: list[Path], features: Path, work: Path) -> list[float]:
    """Time PREDICT_CALLS cold CLI predicts, each checked against make_predictor."""
    from batcap import features as bfeatures, jsonio, modelio
    matrix = bfeatures.matrix_from_csv(features.read_text(encoding="utf-8"))
    rows = random.Random(seed).sample(range(len(matrix.y)), PREDICT_CALLS)
    calls = []
    for i, row in enumerate(rows):
        model = models[i % len(models)]
        x = matrix.X[row]
        expected = jsonio.format_number(float(modelio.make_predictor(
            modelio.load_model(model))(x[None, :])[0]))
        inp = work / f"predict_{i}.json"
        inp.write_text(json.dumps({"features": x.tolist()}), encoding="utf-8")
        cmd = [sys.executable, "-m", "batcap.cli", "predict", "--model", str(model),
               "--input", str(inp)]
        calls.append((cmd, expected))
    env = _child_env()
    subprocess.run(calls[0][0], env=env, cwd=ROOT, capture_output=True, timeout=60)  # warm-up
    latencies = []
    for cmd, expected in calls:
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        latencies.append(time.perf_counter() - start)
        got = proc.stdout.strip()
        ops.check(proc.returncode == 0 and got == expected,
                  f"cold predict {cmd[-3]} exited {proc.returncode}, printed {got!r}, "
                  f"in-process {expected!r}: {proc.stderr.strip()}")
    return latencies


def import_ms() -> float:
    """Median cumulative time of a cold ``import batcap.cli`` (python -X importtime)."""
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import batcap.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        match = re.search(r"\|\s*(\d+)\s*\|\s*batcap\.cli\s*$", proc.stderr, re.MULTILINE)
        if match is None:
            raise RuntimeError(f"no import time for batcap.cli: {proc.stderr[-500:]}")
        times.append(int(match.group(1)) / 1000.0)
    return statistics.median(times)


def layer_metrics(t, wall: float, overhead: float, imp_ms: float) -> dict:
    c = t.counters
    evals = c["woa.fitness_evals"]
    m = {f"cli.{sub}_s": (t.total_s(f"cli.cmd_{sub}"), "s") for sub in CLI_SUBCOMMANDS}
    m.update({
        "cli.import_ms": (imp_ms, "ms"),
        "rng.streams": (int(c["rng.streams"]), "count"),
        "rng.draws": (int(c["rng.draws"]), "count"),
        "rng.self_s": (t.layer_self_s("rng"), "s"),
        "elm.svds": (t.calls("elm.elm_solve_beta"), "count"),
        "elm.solve_s": (t.total_s("elm.elm_solve_beta"), "s"),
        "elm.hidden_calls": (t.calls("elm.elm_hidden"), "count"),
        "elm.hidden_s": (t.total_s("elm.elm_hidden"), "s"),
        "elm.predict_rows": (int(c["elm.predict_rows"]), "count"),
        "elm.predict_s": (t.total_s("elm.elm_predict"), "s"),
        "woa.fitness_evals": (int(evals), "count"),
        "woa.improve_ratio": (c["woa.improvements"] / evals if evals else 0.0, "ratio"),
        "woa.self_s": (t.layer_self_s("woa"), "s"),
        "pipeline.fitness_s": (t.total_s("pipeline.fitness"), "s"),
        "pipeline.woa_elm_train_s": (t.total_s("pipeline.woa_elm_train"), "s"),
        "fusion.tsne_s": (t.total_s("fusion.tsne_embed"), "s"),
        "fusion.tsne_iters": (int(c["fusion.tsne_iters"]), "count"),
        "fusion.affinity_s": (t.total_s("fusion.joint_affinities"), "s"),
        "fusion.sigma_calibrations": (t.calls("fusion.calibrate_sigma"), "count"),
        "fusion.oos_rows": (int(c["fusion.oos_rows"]), "count"),
        "fusion.oos_s": (t.total_s("fusion.embed_new_points"), "s"),
        "attribution.coalitions": (int(c["attribution.coalitions"]), "count"),
        "attribution.shapley_s": (t.layer_inclusive["attribution"], "s"),
        "baselines.trees_grown": (t.calls("baselines.RegressionTree.fit"), "count"),
        "baselines.forest_fit_s": (t.total_s("baselines.RandomForest.fit"), "s"),
        "baselines.gbrt_fit_s": (t.total_s("baselines.GradientBoosting.fit"), "s"),
        "baselines.knn_predict_s": (t.total_s("baselines.KnnRegressor.predict"), "s"),
        "data.rows_parsed": (int(c["data.rows_parsed"]), "count"),
        "data.parse_s": (t.total_s("data.parse_samples", "data.parse_capacity"), "s"),
        "data.synth_s": (t.total_s("data.synth_dataset"), "s"),
        "features.cycles_extracted": (t.calls("features.extract_features"), "count"),
        "features.segment_s": (t.total_s("features.detect_segments"), "s"),
        "features.extract_s": (t.total_s("features.build_matrix"), "s"),
        "correlation.report_s": (t.total_s("correlation.correlation_report"), "s"),
        "modelio.load_s": (t.total_s("modelio.load_model", "modelio.make_predictor"), "s"),
        "jsonio.dump_s": (t.total_s("jsonio.dump_json"), "s"),
        "jsonio.validate_s": (t.total_s("jsonio.validate_schema"), "s"),
        "jsonio.bytes_written": (int(c["jsonio.bytes_written"]), "bytes"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_s": (wall - t.attributed_s(), "s"),
    })
    return m


def run(args, work: Path):
    """Set up, measure and check one workload; returns (report, metrics, ops)."""
    from spans import Tracer
    from workloads import WORKLOADS, Ops

    wl = WORKLOADS[args.workload]
    ops = Ops()
    report = {"workload": wl.name, "provenance": provenance(args.seed)}

    setup_s, fixture, setup_digests = [], None, None
    for rep in range(SETUP_REPS):
        d = work / f"setup{rep}"
        d.mkdir(parents=True)
        start = time.perf_counter()
        wl.setup(ops, args.seed, d)
        setup_s.append(time.perf_counter() - start)
        if rep == 0:
            fixture, setup_digests = d, digests(d)
        else:
            ops.check(digests(d) == setup_digests, f"set-up {rep} artifacts differ from set-up 0")
            shutil.rmtree(d)

    untraced, traced, pass_digests, result, previous = [], [], None, None, None
    window_start = time.perf_counter()
    for k in itertools.count():
        tracer = Tracer() if args.trace and k % 2 == 1 else None
        p = work / f"pass{k}"
        p.mkdir()
        gc.collect()
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            wl.run(ops, args.seed, fixture, p)
            wall = time.perf_counter() - start
        (traced if tracer else untraced).append((wall, tracer))
        result = wl.check(ops, fixture, p)
        if pass_digests is None:
            pass_digests = digests(p)
        else:
            ops.check(digests(p) == pass_digests, f"pass {k} artifacts differ from pass 0")
        if previous is not None:
            shutil.rmtree(previous)
        previous = p
        elapsed = time.perf_counter() - window_start
        enough = len(untraced) >= (1 if args.trace else MIN_PASSES) and (traced or not args.trace)
        if enough and (elapsed + wall > args.seconds or elapsed > HARD_STOP_S):
            break

    walls = [w for w, _ in untraced]
    report.update(setup_s=setup_s, pass_s=walls, traced_pass_s=[w for w, _ in traced],
                  artifact_sha256={"setup": setup_digests, "pass": pass_digests},
                  info=result.info)
    if args.trace:
        traced.sort(key=lambda item: item[0])
        wall, tracer = traced[(len(traced) - 1) // 2]
        overhead = statistics.median(w for w, _ in traced) - statistics.median(walls)
        metrics = layer_metrics(tracer, wall, overhead, import_ms())
        report["trace"] = tracer.to_dict()
    else:
        latencies = [s * 1000.0 for s in cold_predicts(ops, args.seed, result.models,
                                                        result.features, work)]
        pct, tail_ms = tail(latencies)
        report["predict"] = {"samples": len(latencies), "tail_percentile": pct,
                             "latency_ms": latencies}
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "predict_p50_ms": (statistics.median(latencies), "ms"),
            "predict_tail_ms": (tail_ms, "ms"),
        }
    report["failures"] = ops.failures
    return report, metrics, ops


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "batcap" / "cli.py").is_file():
        print(f"error: no batcap source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import batcap
    if Path(batcap.__file__).resolve().parent != SRC / "batcap":
        print(f"error: batcap imported from {batcap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report, metrics, ops = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(ops.failures)
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=2), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {len(report['pass_s'])} untraced "
          f"and {len(report['traced_pass_s'])} traced passes; report in {out_file.relative_to(ROOT)}")
    if "predict" in report:
        print(f"cold predict: {report['predict']['samples']} samples, tail is "
              f"p{report['predict']['tail_percentile']:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:28s} {value:>16d} {unit}")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
