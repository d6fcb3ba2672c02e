"""Locate the checkout the benchmark measures and fix the process environment.

Imported first by every benchmark entry point, before numpy is loaded, so that
the BLAS/OpenMP thread cap applies to this process and is inherited by every
child process the benchmark starts.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = str(NPROC)


class CheckoutError(RuntimeError):
    """The benchmark was started outside a checkout that holds the package source."""


def use_checkout_source() -> None:
    """Make ``import modeconv`` load the package from this checkout's ``src``."""
    if not (SRC / "modeconv" / "__init__.py").is_file():
        raise CheckoutError(f"no package source at {SRC / 'modeconv'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + pythonpath if pythonpath else "")


def git_commit() -> str:
    """Commit of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"
