"""``repro serve`` as a child process, with strict process hygiene.

The server leads a fresh process group, which its process-pool workers
inherit, writes its banner to a log file in a private temp directory under
the checkout, and is stopped with SIGINT — the path ``repro serve``
handles — then, after a grace period, with SIGKILL to the whole group.
:meth:`ServeProcess.stop` always reaps, then verifies that no member of
the group survives and that the temp directory (logs and disk cache) is
gone; either failure raises.

A guard process joins the group.  Once the benchmark that started it is
gone, it SIGKILLs the group and removes the temp directory, so nothing of
the server outlives the benchmark even when the benchmark is killed with
SIGKILL and no ``finally`` runs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BANNER = "repro labeling service on "
READY_TIMEOUT_S = 60.0
STOP_GRACE_S = 10.0

#: Temp directories of this benchmark process (server and replay alike).
TMP_PREFIX = f".httpbench-{os.getpid()}-"

#: The guard: poll for the benchmark (its parent); once it is gone, leave the
#: server's process group, SIGKILL it (server and pool workers) and remove
#: the server's temp directory.
GUARD = """\
import os, shutil, signal, sys, time
parent, group, tmp = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
while os.getppid() == parent:
    time.sleep(0.1)
os.setpgid(0, 0)
os.killpg(group, signal.SIGKILL)
time.sleep(0.2)
shutil.rmtree(tmp, ignore_errors=True)
"""


class HygieneError(RuntimeError):
    """A process or temp directory outlived the benchmark run."""


def _stat_fields(pid: str) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2 :].split()


def group_members(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(entry)
        # fields: state, ppid, pgrp, session, ...
        if fields and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def children_of(ppid: int) -> list[int]:
    """Live pids whose parent is ``ppid``."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields and int(fields[1]) == ppid:
                kids.append(int(entry))
    return kids


def rss_mb(pids: list[int]) -> float:
    """Summed resident set size of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmRSS:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def become_subreaper() -> bool:
    """Adopt orphaned descendants (``PR_SET_CHILD_SUBREAPER``) so they can be reaped.

    Without it, a pool worker orphaned by a killed server is reparented to
    the container's init, which may never reap it.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(36, 1, 0, 0, 0) == 0


def reap_orphans() -> None:
    """Collect the exit status of every already-ended child."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_gone(pids_fn, timeout_s: float = 3.0) -> list[int]:
    """Reap and poll ``pids_fn`` until it returns nothing or ``timeout_s`` passes."""
    deadline = time.monotonic() + timeout_s
    while True:
        reap_orphans()
        pids = pids_fn()
        if not pids or time.monotonic() >= deadline:
            return pids
        time.sleep(0.02)


class ServeProcess:
    """One ``repro serve --port 0`` child with a fresh disk-cache directory."""

    def __init__(self, root: Path, serve_args: tuple[str, ...] = ()) -> None:
        self.root = root
        self.serve_args = serve_args
        self.tmp: Path | None = None
        self.proc: subprocess.Popen | None = None
        self.guard: subprocess.Popen | None = None
        self.url: str | None = None

    def start(self) -> str:
        """Spawn the server and block until it has bound its port; its URL."""
        self.tmp = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=self.root))
        log = self.tmp / "serve.log"
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--disk-cache", str(self.tmp / "disk"),
            *self.serve_args,
        ]
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=subprocess.STDOUT, process_group=0,
            )
        self.guard = subprocess.Popen(
            [sys.executable, "-c", GUARD, str(os.getpid()), str(self.proc.pid), str(self.tmp)],
            stdin=subprocess.DEVNULL, process_group=self.proc.pid,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith(BANNER):
                    self.url = line[len(BANNER):].strip()
                    return self.url
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"repro serve did not come up:\n{log.read_text(errors='replace')[-2000:]}"
        )

    def members(self) -> list[int]:
        """The server and every process in its group (pool workers too),
        except the guard."""
        if self.proc is None:
            return []
        guard = self.guard.pid if self.guard is not None else None
        return [pid for pid in group_members(self.proc.pid) if pid != guard]

    def stop(self) -> None:
        """SIGINT, grace, SIGKILL the group, reap; then verify nothing is left."""
        proc, guard, tmp = self.proc, self.guard, self.tmp
        self.proc = self.guard = self.tmp = None  # a second stop is a no-op
        try:
            if proc is not None:
                try:
                    if proc.poll() is None:
                        proc.send_signal(signal.SIGINT)
                        try:
                            proc.wait(STOP_GRACE_S)
                        except subprocess.TimeoutExpired:
                            pass
                finally:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    if guard is not None:
                        guard.wait()
                    proc.wait()
                survivors = wait_gone(lambda: group_members(proc.pid))
                if survivors:
                    for pid in survivors:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                    raise HygieneError(
                        f"processes of the serve group survived: {survivors}"
                    )
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
                if tmp.exists():
                    raise HygieneError(f"temp directory left behind: {tmp}")
