"""Runs in a fresh interpreter: BLAS reads its thread count once, at import,
and the scripts are run the way their users run them."""

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


def test_woa_benchmark_script_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "woa_benchmark.py"),
         "--dim", "2", "--pop", "4", "--iters", "3", "--seeds", "1"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    seed_rows = sorted(row[0] for row in rows if len(row) == 4 and row[1] == "0")
    assert seed_rows == ["rastrigin", "rosenbrock", "sphere"]
