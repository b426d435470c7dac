"""The environment stamp stored with every result: core count, versions,
BLAS library and threads, git commit, seed and run settings."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIG_GETTERS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                        "openblas_get_config64_", "openblas_get_config")


def _loaded_openblas():
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_info():
    """(library description, live thread count); None where unknown."""
    lib = _loaded_openblas()
    config = _call(lib, _BLAS_CONFIG_GETTERS, ctypes.c_char_p)
    if config is not None:
        return config.decode(errors="replace").strip(), _call(
            lib, _BLAS_THREAD_GETTERS, ctypes.c_int)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}", None
    except (TypeError, KeyError):
        return None, None


def git_commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root, **settings):
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas, threads = blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": threads,
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        **settings,
    }
