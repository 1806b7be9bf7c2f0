"""Run a script in fresh interpreters at one and at two BLAS threads, for the
tests that pin bits which BLAS does not promise to keep across thread counts."""

import os
import subprocess
import sys
from pathlib import Path

import macronet


def outputs_at_one_and_two_threads(script: str, timeout: float) -> dict[str, str]:
    """The script's stdout by thread count ("1", "2"). Both runs start at
    once, import this checkout's macronet and must exit with status 0."""
    src = str(Path(macronet.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        runs[threads] = subprocess.Popen(
            [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
        )
    outputs = {}
    for threads, run in runs.items():
        outputs[threads], _ = run.communicate(timeout=timeout)
        assert run.returncode == 0, threads
    return outputs
