"""Smoke test of the benchmark command: every workload at a tiny size, run
from a foreign working directory, untraced and traced.

    python3 -m pytest kgbench/tests -q

Checks that the printed metric names equal BENCHMARK.json, that an injected
wrong answer is counted as failed, that no process of the run outlives it,
and that the run leaves nothing behind but its span file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "kgbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SHARED_CACHES = ("/tmp/kgw_ray_cache", "/tmp/kgw_ray_hub", "/tmp/kgw_bench")


def _processes_of(run_dir: str) -> list[int]:
    """Live processes whose environment names this run's private directory."""
    marker = f"KGBENCH_RUN={run_dir}".encode()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                if marker in f.read().split(b"\0"):
                    found.append(int(name))
        except OSError:
            pass
    return found


def _run(tmp_path, workload: str, trace: int, *extra: str) -> dict:
    before = {p: os.path.exists(p) and os.stat(p).st_mtime for p in SHARED_CACHES}
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-3000:]
    run_dir = os.path.join(ROOT, ".kgbench", f"run-{proc.pid}")
    assert not _processes_of(run_dir), "a process of the run outlived it"
    assert not os.path.exists(run_dir), "the run left its private directory"
    assert before == {p: os.path.exists(p) and os.stat(p).st_mtime for p in SHARED_CACHES}
    assert not os.listdir(tmp_path), "the run wrote into its working directory"
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(tmp_path, workload):
    r = _run(tmp_path, workload, 0)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert list(r["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert r["metrics"][m["name"]]["unit"] == m["unit"]
        assert r["metrics"][m["name"]]["value"] > 0

    r = _run(tmp_path, workload, 1, "--inject-wrong")
    assert r["failed"] == 1 and not r["correct"]
    assert list(r["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert r["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_program(tmp_path):
    """In a directory holding only BENCHMARK.json and kgbench/ the command
    exits non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "kgbench"), tmp_path / "kgbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "kgbench/run.py", "--workload", "webkg_build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0 and p.stdout.strip() == ""
