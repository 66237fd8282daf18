"""Machine and provenance record attached to every result file."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Dict, Optional

from server_proc import ROOT, TMP_ROOT


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: str) -> str:
    """Filesystem the journals are fsync'd to (longest mount prefix)."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fs = mount, kind
    except OSError:
        pass
    return fs


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record() -> Dict[str, object]:
    import numpy

    import repro.native as native

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "native_available": native.available(),
        "simd_level": int(native.simd_level),
        "env": {k: v for k, v in os.environ.items()
                if k.startswith("REPRO_NATIVE")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "journal_fs": _fs_type(str(TMP_ROOT)),
        "loadavg_1m": os.getloadavg()[0],
    }
