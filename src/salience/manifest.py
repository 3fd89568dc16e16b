"""Run manifests: every CLI command records how its output was produced."""
from __future__ import annotations

import sys
import time
from pathlib import Path

from .errors import write_json


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
        "args": args,
        "inputs": inputs,
        "outputs": outputs,
        "started_at_unix": started_at,
        "wall_time_s": time.time() - started_at,
    }
    path = Path(str(primary_output) + ".manifest.json")
    write_json(payload, path)
    return path
