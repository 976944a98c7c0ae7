"""Child-process helpers: spawn, time to ready, peak RSS on reap.  Stdlib only.

Every child is reaped with :func:`os.wait4`, whose resource usage gives
the child's own peak RSS (``ru_maxrss``, KiB on Linux) -- the same
number for a workload process and an import-only baseline.  A server's
peak is read live (:func:`peak_rss_kb`) by the process that started it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

READY = "PERFBENCH-READY"


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Wait for *proc* (killing it after *timeout* s); (exit code, peak RSS KiB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            _kill(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return proc.returncode, usage.ru_maxrss


def peak_rss_kb(pid: int) -> int:
    """The peak RSS so far (KiB) of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _kill(pid: int, sig: int) -> None:
    # os.kill, not Popen.send_signal: that polls first, and a poll that
    # reaps the child loses the resource usage wait4 reports.  A workload
    # process leads its own process group, which a server it starts
    # joins, so signalling the group stops both.
    try:
        if os.getpgid(pid) == pid:
            os.killpg(pid, sig)
        else:
            os.kill(pid, sig)
    except ProcessLookupError:
        pass


def _kill_after(proc: subprocess.Popen, timeout: float) -> threading.Timer:
    timer = threading.Timer(timeout, _kill, (proc.pid, signal.SIGKILL))
    timer.daemon = True
    timer.start()
    return timer


def spawn_until_ready(
    cmd: list[str], env: dict[str, str], cwd: str, timeout: float
) -> tuple[subprocess.Popen, float | None]:
    """Start *cmd* and wait for its ready line on stdout.

    Returns the process and the seconds from spawn until the child
    printed :data:`READY` (``None`` if it exited or was killed first).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timer = _kill_after(proc, timeout)
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.strip() == READY:
                return proc, time.perf_counter() - start
        return proc, None
    finally:
        timer.cancel()


def get_json(port: int, path: str, timeout: float = 10.0) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=timeout) as resp:
        return json.loads(resp.read())


def start_server(
    cmd: list[str], env: dict[str, str], cwd: str, timeout: float
) -> tuple[subprocess.Popen, int, float]:
    """Start a ``repro serve --port 0`` command; (process, port, seconds to /healthz)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    timer = _kill_after(proc, timeout)
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line.strip()!r}")
        port = int(line.split(marker, 1)[1].split()[0])
        if not get_json(port, "/healthz").get("ok"):
            raise RuntimeError("server /healthz did not answer ok")
        return proc, port, time.perf_counter() - start
    except (OSError, RuntimeError) as exc:
        _kill(proc.pid, signal.SIGKILL)
        reap(proc, 5.0)
        raise RuntimeError(f"server start failed: {exc}") from exc
    finally:
        timer.cancel()


def stop_server(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Interrupt a server (it shuts down cleanly on SIGINT) and reap it."""
    _kill(proc.pid, signal.SIGINT)
    code, _rss = reap(proc, timeout)
    if code != 0:
        raise RuntimeError(f"server exited with code {code}")
