"""The child process that runs the program under test.

One class owns the whole lifetime: spawn, pin, timed line reads from
stdout, CPU from ``/proc/<pid>/stat``, graceful stop, and -- on every
exit path -- kill and reap, so no ``repro serve`` outlives a run.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

__all__ = ["Child", "ChildError", "child_env", "REPO_ROOT"]

#: The checkout root: the directory holding ``layerbench/`` and ``src/``.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class ChildError(RuntimeError):
    """The child died, stalled past its deadline, or spoke nonsense."""


def child_env() -> dict:
    """Environment for children: the program (``src``) and this package
    importable, bytecode caches kept out of the way of the measurement."""
    env = dict(os.environ)
    paths = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """A spawned python child speaking lines on stdout (and stdin)."""

    def __init__(self, module_args: Sequence[str], cpu: Optional[int] = None,
                 hard_timeout_s: float = 150.0):
        self.spawned_at = time.monotonic()
        self._deadline = self.spawned_at + hard_timeout_s
        self._proc = subprocess.Popen(
            [sys.executable, *module_args], cwd=REPO_ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.pid = self._proc.pid
        self._buffer = b""
        self._reaped = False
        self.exit_code: Optional[int] = None
        self.peak_rss_mib = 0.0
        if cpu is not None:
            os.sched_setaffinity(self.pid, {cpu})

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

    # -- talking ------------------------------------------------------------
    def send_line(self, text: str) -> None:
        try:
            self._proc.stdin.write(text.encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as error:
            raise ChildError(f"child {self.pid} closed its stdin") from error

    def read_line(self, timeout_s: float = 60.0) -> str:
        """Next stdout line; raises :class:`ChildError` on EOF/timeout."""
        deadline = min(time.monotonic() + timeout_s, self._deadline)
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"child {self.pid} timed out")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ChildError(f"child {self.pid} closed stdout; "
                                 f"buffered: {self._buffer[-200:]!r}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()

    # -- measuring ----------------------------------------------------------
    def cpu_seconds(self) -> Tuple[float, float]:
        """(user, system) CPU seconds so far, in scheduler ticks."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return int(fields[11]) / _CLK_TCK, int(fields[12]) / _CLK_TCK

    def cpu_fine_seconds(self) -> float:
        """user+sys CPU seconds of the child's main thread at nanosecond
        resolution (``schedstat``), so one short cell can be priced;
        falls back to the 10 ms ticks where the kernel keeps no
        schedstats."""
        try:
            with open(f"/proc/{self.pid}/schedstat", "rb") as handle:
                return int(handle.read().split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            return sum(self.cpu_seconds())

    def peak_rss_now_mib(self) -> float:
        """Peak resident set so far (``VmHWM``); 0.0 where procfs has none,
        in which case the caller falls back to ``ru_maxrss`` at reap."""
        try:
            with open(f"/proc/{self.pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except (OSError, ValueError, IndexError):
            pass
        return 0.0

    # -- ending -------------------------------------------------------------
    def stop(self, lines: int = 0, timeout_s: float = 30.0) -> List[str]:
        """SIGTERM, read ``lines`` farewell lines, reap; returns them."""
        os.kill(self.pid, signal.SIGTERM)
        return self.finish(lines, timeout_s)

    def finish(self, lines: int = 0, timeout_s: float = 30.0) -> List[str]:
        """Read ``lines`` last lines from a child that is exiting on its
        own, then reap it and record exit code and peak RSS."""
        out = [self.read_line(timeout_s) for _ in range(lines)]
        self._reap(timeout_s)
        return out

    def _reap(self, timeout_s: float) -> None:
        if self._reaped:
            return
        for stream in (self._proc.stdin, self._proc.stdout):
            stream.close()
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                os.kill(self.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.pid, 0)
                break
            time.sleep(0.005)
        self._reaped = True
        self.exit_code = os.waitstatus_to_exitcode(status)
        self._proc.returncode = self.exit_code
        self.peak_rss_mib = usage.ru_maxrss / 1024.0  # Linux: KiB

    def kill(self) -> None:
        """Idempotent hard stop for error paths."""
        if self._reaped:
            return
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap(5.0)
