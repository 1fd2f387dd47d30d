"""Environment block printed with every benchmark result."""
from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy

LIVE_STATES = 4  # input, bra, ket and probe of the reverse sweep


def _cache_bytes(level: int) -> int | None:
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            if int(Path(index, "level").read_text()) != level:
                continue
            if Path(index, "type").read_text().strip() == "Instruction":
                continue
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _blas() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def _git_sha(root: Path) -> str:
    """HEAD of a git checkout, read from files; 'unknown' in an exported tree."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, state_bytes: int) -> dict:
    l3 = _cache_bytes(3)
    working_set = LIVE_STATES * state_bytes
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": l3,
        "git_sha": _git_sha(root),
        "state_bytes": state_bytes,
        "working_set_bytes": working_set,
        "working_set_over_l3": working_set / l3 if l3 else None,
    }
