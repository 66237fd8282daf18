"""Lifecycle of the system under test: a ``serve-net`` child process
(and of the machine-speed probe that runs beside it).

The server is started through the surface least likely to move under a
refactor — ``python -m repro.cli serve-net --port 0`` — and its port is
read from the ``serving on host:port`` line.  Everything the run leaves
behind (journals, logs, span dumps) lives in one directory under the
checkout that :meth:`ServerProcess.close` removes.
"""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch root of every run: inside the checkout, ignored by git.
TMP_ROOT = ROOT / ".bench_tmp"

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PORT_LINE = re.compile(r"serving on [^\s:]+:(\d+)")
_PR_SET_PDEATHSIG = 1


class ServerError(RuntimeError):
    """The server did not start, or died; carries its stderr tail."""


def _die_with_parent() -> None:
    # Runs in the child between fork and exec: if the benchmark is
    # killed outright, the kernel takes the server down with it.
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class ServerProcess:
    """``with ServerProcess(...) as server:`` — started, port known."""

    def __init__(self, journal: bool, traced: bool, label: str):
        self.journal = journal
        self.traced = traced
        TMP_ROOT.mkdir(exist_ok=True)
        self.run_dir = Path(tempfile.mkdtemp(prefix=f"{label}-",
                                             dir=TMP_ROOT))
        self.spans_path = self.run_dir / "spans.json"
        self.probe_path = self.run_dir / "calibration.txt"
        self.proc: Optional[subprocess.Popen] = None
        self.probe: Optional[subprocess.Popen] = None
        self.port = 0

    def _argv(self) -> List[str]:
        serve = ["serve-net", "--port", "0"]
        if self.journal:
            serve += ["--journal-dir", str(self.run_dir / "journal")]
        if self.traced:
            return [sys.executable, str(BENCH_DIR / "traced_server.py"),
                    str(self.spans_path), *serve]
        return [sys.executable, "-m", "repro.cli", *serve]

    def start(self, timeout_s: float = 120.0) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        out = open(self.run_dir / "server.out", "wb")
        err = open(self.run_dir / "server.err", "wb")
        try:
            self.proc = subprocess.Popen(
                self._argv(), cwd=self.run_dir, env=env, stdout=out,
                stderr=err, stdin=subprocess.DEVNULL,
                preexec_fn=_die_with_parent,
            )
        finally:
            out.close()
            err.close()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self._read("server.out"))
            if match:
                self.port = int(match.group(1))
                self.probe = subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "calibrate.py"),
                     str(self.probe_path)],
                    cwd=self.run_dir, stdin=subprocess.DEVNULL,
                    preexec_fn=_die_with_parent,
                )
                return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise ServerError(
            f"server did not report its port "
            f"(exit code {self.proc.poll()}):\n{self.stderr_tail()}")

    def _read(self, name: str) -> str:
        try:
            return (self.run_dir / name).read_text(errors="replace")
        except OSError:
            return ""

    def stderr_tail(self, lines: int = 20) -> str:
        return "\n".join(self._read("server.err").splitlines()[-lines:])

    # -- observation ---------------------------------------------------
    def cpu_ticks(self) -> int:
        """utime + stime of the server process, in clock ticks."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as fh:
            # Fields after the parenthesised command name.
            fields = fh.read().rsplit(b")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    @staticmethod
    def ticks_to_ms(ticks: int) -> float:
        return ticks * 1000.0 / _CLK_TCK

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    # -- shutdown ------------------------------------------------------
    def stop(self, grace_s: float = 15.0) -> None:
        """SIGTERM (the drain path), then SIGKILL if it overstays."""
        if self.probe is not None and self.probe.poll() is None:
            self.probe.kill()   # holds nothing worth a clean exit
            self.probe.wait()
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def close(self) -> None:
        try:
            self.stop()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            try:
                TMP_ROOT.rmdir()
            except OSError:
                pass  # another run still uses it

    def __enter__(self) -> "ServerProcess":
        try:
            return self.start()
        except BaseException:
            self.close()
            raise

    def __exit__(self, *exc) -> None:
        self.close()
