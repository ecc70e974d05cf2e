"""Shared helpers: checkout layout, hermetic child environments, the host
stamp and the percentile rules every workload reports with."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# The benchmark is run from the root of a checkout; everything it reads or
# writes lives under that directory.
ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

# Settings that would make a run depend on state outside the checkout or
# arm fault injection.  BLAS thread variables are deliberately left as
# found: pinning them is a change the benchmark must be able to show.
STRIPPED_ENV = ("REPRO_FAULTS", "REPRO_CACHE", "REPRO_SCALE")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not a program failure)."""


def require_source() -> None:
    """Fail fast when the program's source is not in the working directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}; run "
                             f"from the root of a repository checkout")


def hermetic_environ() -> None:
    """Strip the program's environment switches from this process, keep
    temporary files inside the checkout, and make ``src`` importable here
    and in every child it starts."""
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(tag: str) -> Path:
    """A new private directory under the checkout's scratch area."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=SCRATCH))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()          # only succeeds once every run is done
    except OSError:
        pass


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(np.median(values))


def tail(values) -> tuple[float, float]:
    """(q, value) for the highest percentile with at least ten samples
    beyond it; q is 50 when the sample is too small for anything higher."""
    n = len(values)
    q = max(50.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0) if n else 50.0
    return q, float(np.percentile(values, q))


# ----------------------------------------------------------------------
# Host stamp
# ----------------------------------------------------------------------
def _blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, read (never set)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(handle, name, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_revision():
    """(sha, dirty) of the checkout, or (None, None) outside a git work
    tree rooted at the working directory."""
    try:
        head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain",
                                "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None, None
    lines = head.stdout.split()
    if head.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT.resolve():
        return None, None
    return lines[1], bool(dirty.stdout.strip())


def host_stamp() -> dict:
    """Where a record was measured.  Records compare only within a host."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    sha, dirty = _git_revision()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_runtime_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "git_sha": sha,
        "git_dirty": dirty,
    }


def emit(line_doc: dict, label: str | None = None) -> None:
    """Print one report line (a labelled JSON document) and flush."""
    text = json.dumps(line_doc, sort_keys=False)
    print(f"{label}: {text}" if label else text, flush=True)
