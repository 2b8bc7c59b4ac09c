"""Environment stamp recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _git(root: Path, *args: str) -> str | None:
    # the ceiling stops git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def stamp(root: Path, blas_threads: str) -> dict:
    import numpy as np

    sha = _git(root, "rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "git_sha": sha,
        "git_dirty": dirty,
    }
