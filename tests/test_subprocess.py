"""Runs in a fresh interpreter: BLAS reads its thread count once, at import,
and the scripts are run the way their users run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import _mask_wall_times

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def _env(**extra) -> dict:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def _pipeline_artifacts(out_dir: Path, threads: int) -> dict[str, bytes]:
    """Artifacts of the criterion-9 CLI pipeline run with `threads` BLAS threads."""
    code = ("import pathlib, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_acceptance import _run_cli_pipeline; "
            "_run_cli_pipeline(pathlib.Path(sys.argv[2]))")
    n = str(threads)
    subprocess.run([sys.executable, "-c", code, str(TESTS), str(out_dir)],
                   env=_env(OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n),
                   check=True, capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.suffix in (".json", ".csv", ".svg")}


def test_pipeline_bytes_do_not_depend_on_blas_threads(tmp_path):
    one = _pipeline_artifacts(tmp_path / "threads1", 1)
    two = _pipeline_artifacts(tmp_path / "threads2", 2)
    assert one.keys() == two.keys() and len(one) == 14
    for name in one:
        if name == "fusion_report.json":
            assert _mask_wall_times(one[name]) == _mask_wall_times(two[name])
        else:
            assert one[name] == two[name], f"{name} differs between 1 and 2 BLAS threads"


def explain_chain(out_dir: Path) -> None:
    """fuse at d = 1, 2, 3, plain shap and fused shap on a 40-cycle cell."""
    from batcap.cli import main

    out_dir.mkdir()
    (out_dir / "synth.json").write_text(json.dumps(
        {"n_cycles": 40, "q0": 170.0, "fade_rate": 0.003, "seed": 21}))
    (out_dir / "train.json").write_text(json.dumps({"hidden_l": 12, "woa_iters": 5, "woa_pop": 8}))

    def run(*args):
        assert main(["--seed", "99", *(str(a) for a in args)]) == 0

    samples, capacity = out_dir / "samples.csv", out_dir / "capacity.csv"
    feats, cfg = out_dir / "features.csv", out_dir / "train.json"
    run("synth", "--config", out_dir / "synth.json", "--out-dir", out_dir)
    run("segment", "--samples", samples, "--capacity", capacity, "--out", out_dir / "segments.json")
    run("features", "--samples", samples, "--capacity", capacity,
        "--segments", out_dir / "segments.json", "--out", feats)
    run("fuse", "--features", feats, "--dims", "1,2,3", "--iterations", "260",
        "--out", out_dir / "fusion.json")
    run("train", "--features", feats, "--config", cfg, "--model-out", out_dir / "model.json")
    run("train", "--fused", "--features", feats, "--config", cfg,
        "--model-out", out_dir / "model_fused.json")
    run("shap", "--model", out_dir / "model.json", "--features", feats,
        "--out", out_dir / "shap.json")
    run("shap", "--model", out_dir / "model_fused.json", "--features", feats, "--rows", "4",
        "--out", out_dir / "shap_fused.json")


def _explain_artifacts(out_dir: Path, cpu: int | None) -> tuple[int, dict[str, bytes]]:
    """(usable CPUs, artifacts) of explain_chain in a child pinned to ``cpu``,
    or left on every usable CPU when ``cpu`` is None. The child pins itself
    before it imports numpy."""
    code = ("import os, pathlib, sys\n"
            "if sys.argv[3] != 'all':\n"
            "    os.sched_setaffinity(0, {int(sys.argv[3])})\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_subprocess import explain_chain\n"
            "explain_chain(pathlib.Path(sys.argv[2]))\n"
            "print(len(os.sched_getaffinity(0)))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(TESTS), str(out_dir),
                           "all" if cpu is None else str(cpu)],
                          env=_env(), check=True, capture_output=True, text=True, timeout=300)
    artifacts = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                 if p.suffix in (".json", ".csv")}
    return int(proc.stdout.split()[-1]), artifacts


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and at least 2 usable CPUs")
def test_fuse_and_shap_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    one_cpu, pinned = _explain_artifacts(tmp_path / "pinned", min(os.sched_getaffinity(0)))
    all_cpus, spread = _explain_artifacts(tmp_path / "spread", None)
    assert one_cpu == 1 and all_cpus == len(os.sched_getaffinity(0))
    assert pinned.keys() == spread.keys() and len(pinned) == 11
    for name in pinned:
        assert pinned[name] == spread[name], f"{name} differs between 1 and {all_cpus} CPUs"


def test_woa_benchmark_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "woa_benchmark.py"),
         "--dim", "2", "--pop", "4", "--iters", "3", "--seeds", "1"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    seed_rows = sorted(row[0] for row in rows if len(row) == 4 and row[1] == "0")
    assert seed_rows == ["rastrigin", "rosenbrock", "sphere"]


def test_non_ascii_text_reads_in_a_child_with_the_bits_of_ascii_text(tmp_path):
    # numpy's C text reader crashes the interpreter (a segmentation fault) on
    # some non-ASCII fields, such as U+10FFFF in an int64 column, so the files
    # are read in a child process: files whose battery ids are non-ASCII, and
    # one with a non-ASCII number.
    from batcap import data

    ds = data.synth_dataset(data.SynthConfig(n_cycles=20, seed=3))
    samples, capacity = data.samples_csv(ds), data.capacity_csv(ds)
    bad = tmp_path / "samples_bad.csv"
    lines = samples.splitlines()
    battery, _, time, voltage = lines[4].split(",")
    lines[4] = ",".join([battery, "\U0010ffff1", time, voltage])  # the cycle: int64
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths = [str(bad)]
    for name, battery in (("ascii", "cell"), ("u00fc", "\u00fc"), ("u3000", "cell\u3000"),
                          ("u10ffff", "\U0010ffff-cell")):
        for kind, text in (("samples", samples), ("capacity", capacity)):
            path = tmp_path / f"{kind}_{name}.csv"
            path.write_text(text.replace("synthetic,", f"{battery},"), encoding="utf-8")
            paths.append(str(path))
    code = ("import hashlib, pathlib, sys\n"
            "import numpy as np\n"
            "from batcap import data\n"
            "try:\n"
            "    data.parse_samples(pathlib.Path(sys.argv[1]).read_text('utf-8'))\n"
            "except ValueError as exc:\n"
            "    print(ascii(str(exc)))\n"
            "for samples, capacity in zip(sys.argv[2::2], sys.argv[3::2]):\n"
            "    records = data.parse_samples(pathlib.Path(samples).read_text('utf-8'))\n"
            "    caps = data.parse_capacity(pathlib.Path(capacity).read_text('utf-8'))\n"
            "    digest = hashlib.sha256()\n"
            "    for r in records:\n"
            "        digest.update(np.array([r.cycle_index, caps[r.cycle_index]]).tobytes())\n"
            "        digest.update(r.times.tobytes() + r.voltages.tobytes())\n"
            "    print(digest.hexdigest())\n")
    proc = subprocess.run([sys.executable, "-c", code, *paths], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    refusal, *digests = proc.stdout.splitlines()
    assert refusal == ascii(f"line 5: bad cycle value {chr(0x10ffff) + '1'!r}")
    assert len(digests) == 4 and len(set(digests)) == 1
