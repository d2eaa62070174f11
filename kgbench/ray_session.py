"""One local Ray session per set-up, with everything it starts accounted for.

A session gets ``num_cpus`` equal to what ``nproc`` prints, a Ray temp dir
inside the run's private directory, and a small object store. ``stop``
shuts Ray down and then waits until every process the session started has
exited, killing what is left after a grace period, so no Ray process
outlives a run.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def cpu_count() -> int:
    """What ``nproc`` prints (the affinity mask, honouring OMP_NUM_THREADS)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def ray_temp_dir(run_dir: str) -> str:
    """``<run_dir>/ray`` when Ray's socket paths fit under it; otherwise a
    fresh directory under the system temp dir (removed with the run)."""
    d = os.path.join(os.path.abspath(run_dir), "ray")
    if len(d) + _SOCKET_SUFFIX <= 107:
        return d
    return tempfile.mkdtemp(prefix="kgb")


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    """Every process below this one (children, their children, ...)."""
    kids = _children()
    out, todo = [], [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_gone(pids: list[int], timeout: float = 10.0) -> None:
    """Wait until ``pids`` have exited; SIGKILL whatever is left after
    ``timeout`` seconds and wait for that too."""
    deadline = time.monotonic() + timeout
    while True:
        _reap()
        left = [p for p in pids if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + 5.0
            pids = left
        time.sleep(0.05)


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Largest total resident set of this process and all its descendants
    (the Ray processes of the session), sampled every ``interval`` seconds
    while the ``with`` block runs. Ray starts and retires idle workers on
    its own schedule, so one reading at the end would count them by chance."""

    def __init__(self, interval: float = 0.5) -> None:
        self.interval, self.peak_kb = interval, 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        total = sum(_rss_kb(p) for p in [os.getpid()] + descendants())
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._done.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self._sample()

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


class Session:
    """A started Ray session; ``stop()`` ends it and everything it spawned."""

    def __init__(self, run_dir: str, num_cpus: int) -> None:
        import ray

        self.temp_dir = ray_temp_dir(run_dir)
        self.own_temp = not self.temp_dir.startswith(os.path.abspath(run_dir))
        before = set(descendants())
        ray.init(
            address="local",
            num_cpus=num_cpus,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.temp_dir,
        )
        self.started = [p for p in descendants() if p not in before]

    def stop(self) -> None:
        import ray

        pids = set(self.started) | set(descendants())
        try:
            ray.shutdown()
        finally:
            wait_gone(sorted(pids | set(descendants())))
            if self.own_temp:
                shutil.rmtree(self.temp_dir, ignore_errors=True)
