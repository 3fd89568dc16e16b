"""Run manifests: every CLI command records how its output was produced.

Besides the command, its arguments, inputs and outputs, a manifest names the
numeric build its numbers came from: numpy's version, the CPU features its
build assumes (``cpu_baseline``), the SIMD targets it dispatches to on this
machine (``cpu_dispatch``, the ones ``NPY_DISABLE_CPU_FEATURES`` leaves on),
and its BLAS build.  Fixed-seed outputs are bitwise stable for one such
build: at another dispatch level ``np.exp`` and ``np.log``, for two, give
other bits.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from .errors import write_json


def numeric_build() -> dict:
    """numpy's version, CPU baseline, enabled dispatch targets and BLAS build (None where numpy
    cannot say, as before 1.25)."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # no mode argument, or no BLAS entry
        blas = None
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(__cpu_baseline__),
        "cpu_dispatch": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
        "blas": blas,
    }


def write_manifest(
    command: str,
    primary_output: str | Path,
    args: dict,
    inputs: list[str],
    outputs: list[str],
    started_at: float,
) -> Path:
    from . import __version__

    payload = {
        "command": command,
        "toolkit_version": __version__,
        "python": sys.version.split()[0],
        "numeric_build": numeric_build(),
        "args": args,
        "inputs": inputs,
        "outputs": outputs,
        "started_at_unix": started_at,
        "wall_time_s": time.time() - started_at,
    }
    path = Path(str(primary_output) + ".manifest.json")
    write_json(payload, path)
    return path
