"""Runtime provenance for benchmark artifacts.

Benchmark JSON files are committed to the repository, so a number measured on
one machine will be read on another.  :func:`runtime_provenance` captures the
facts a reader needs to judge comparability — interpreter, platform, CPU
count, numpy version, the BLAS numpy was built against, and the source
commit measured — in one JSON-ready dict.

Everything degrades gracefully: without numpy the numpy/BLAS fields are
``None``, outside a git checkout the commit is ``None``, and BLAS
introspection failures (the ``show_config`` API has moved between numpy
releases) never propagate.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any


def _blas_info() -> dict[str, Any] | None:
    """Name/version of the BLAS numpy links, or ``None`` if undiscoverable."""
    try:
        import numpy as np

        config = np.show_config(mode="dicts")  # numpy >= 1.25
    except Exception:
        return None
    if not isinstance(config, dict):
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if not isinstance(blas, dict):
        return None
    info = {key: blas[key] for key in ("name", "version") if blas.get(key)}
    return info or None


def _git_commit() -> str | None:
    """``git describe --always --dirty`` of this source tree (``-dirty`` when
    uncommitted changes were measured), or ``None`` outside a checkout."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return described.stdout.strip() or None


def runtime_provenance() -> dict[str, Any]:
    """A JSON-ready snapshot of the machine, interpreter, numpy/BLAS and
    source commit this process runs on."""
    try:
        import numpy as np

        numpy_version: str | None = np.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "executable": sys.executable,
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "blas": _blas_info() if numpy_version is not None else None,
        "git_commit": _git_commit(),
    }
