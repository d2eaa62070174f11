"""Per-stage / per-partition checkpoint manifests (resume without recompute).

The reference's resume mechanism is file-existence task targets plus
atomic write-temp-then-rename (kgw/_shared/tasks.py:13-28,75-83; a completed
task is skipped on re-run, base.py:304-305). The Ray-native equivalent:

- every materializing stage writes Parquet into its own directory via a
  temp-dir + ``os.replace`` rename, then drops a ``_MANIFEST.json`` with
  lineage (stage name, input fingerprint), row count and wall time;
- ``resumable_stage(out_dir, fingerprint, fn)`` skips the stage entirely and
  re-reads the committed output when a manifest with a matching fingerprint
  exists — a killed run resumes without recomputing completed partitions;
- partitioned runs call this per partition directory (``part=<i>/``), so
  completed partitions survive a mid-run kill.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import ray.data as rd

from kgw_ray.sources.readers import parquet_num_rows, scan_parquet

MANIFEST_NAME = "_MANIFEST.json"


@dataclass
class StageManifest:
    stage: str
    fingerprint: str
    num_rows: int
    wall_time_sec: float
    extra: Optional[dict] = None


def read_manifest(out_dir: str) -> Optional[StageManifest]:
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return StageManifest(**json.load(f))
    except (json.JSONDecodeError, TypeError):
        return None


def _clean_stale_tmps(target: str) -> None:
    """Remove orphaned ``<target>.tmp-<uuid>`` siblings left by runs killed
    between ``write_parquet`` and the commit rename — each crash would
    otherwise leak a full copy of the stage output forever (fresh uuids
    mean no later run ever reuses them)."""
    parent = os.path.dirname(os.path.abspath(target))
    prefix = os.path.basename(target) + ".tmp-"
    if not os.path.isdir(parent):
        return
    for name in os.listdir(parent):
        if name.startswith(prefix):
            shutil.rmtree(os.path.join(parent, name), ignore_errors=True)


def resumable_stage(
    out_dir: str,
    stage: str,
    fingerprint: str,
    fn: Callable[[], rd.Dataset],
    *,
    extra: Optional[dict] = None,
    force: bool = False,
) -> rd.Dataset:
    """Run ``fn`` → write Parquet atomically → manifest; or skip if committed.

    ``fingerprint`` encodes the input lineage (paths + params); a manifest
    whose fingerprint differs is treated as stale and the stage reruns.
    ``force=True`` bypasses the manifest check and recomputes
    unconditionally (the correct no-resume semantics — a salted
    fingerprint would still collide within one process).
    """
    m = read_manifest(out_dir)
    if not force and m is not None and m.fingerprint == fingerprint and m.stage == stage:
        return scan_parquet(out_dir)

    _clean_stale_tmps(out_dir)
    tmp_dir = f"{out_dir}.tmp-{uuid.uuid4().hex[:8]}"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    t0 = time.monotonic()
    ds = fn()
    ds.write_parquet(tmp_dir)
    wall = time.monotonic() - t0
    n = parquet_num_rows(tmp_dir)
    manifest = StageManifest(
        stage=stage, fingerprint=fingerprint, num_rows=n, wall_time_sec=wall, extra=extra
    )
    with open(os.path.join(tmp_dir, MANIFEST_NAME), "w") as f:
        json.dump(asdict(manifest), f)
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp_dir, out_dir)
    return scan_parquet(out_dir)


# ---------------------------------------------------------------------------
# Per-partition resume (the north-star checkpoint contract)
# ---------------------------------------------------------------------------


def partition_input_shards(input_paths, num_partitions: int) -> list[list[str]]:
    """Deterministically assign input files to partitions (round-robin over
    the sorted listing — stable across runs for the same input set)."""
    paths = sorted(input_paths)
    shards: list[list[str]] = [[] for _ in range(num_partitions)]
    for i, p in enumerate(paths):
        shards[i % num_partitions].append(p)
    return [s for s in shards if s]


def resumable_partitioned_run(
    out_dir: str,
    stage: str,
    fingerprint: str,
    shards: list[list[str]],
    fn: Callable[[list[str]], rd.Dataset],
    *,
    on_partition_done: Optional[Callable[[int, StageManifest], None]] = None,
) -> rd.Dataset:
    """Run ``fn(shard_paths)`` per partition, each committed independently
    (``part=<i>/`` dir + manifest with lineage, row count, wall time).

    A killed run resumes without recomputing completed partitions: on
    restart, partitions whose manifest matches (fingerprint + shard list)
    are skipped and only the missing ones execute — the partition-level
    generalization of the reference's file-existence task targets
    (kgw/_shared/tasks.py:75-83). Returns the union Dataset over all
    committed partition outputs.

    On a multi-node cluster each ``fn(shard)`` is itself a parallel Ray
    Data pipeline; partitions run sequentially on the driver so the
    streaming executor owns the whole cluster per partition (inter-partition
    parallelism would fragment the resource pool; intra-partition
    parallelism is where the cluster-wide win is).
    """
    part_dirs = []
    for i, shard in enumerate(shards):
        pdir = os.path.join(out_dir, f"part={i:05d}")
        part_dirs.append(pdir)
        part_fp = f"{fingerprint}|shard={','.join(shard)}"
        m = read_manifest(pdir)
        if m is not None and m.fingerprint == part_fp and m.stage == stage:
            continue
        _clean_stale_tmps(pdir)
        tmp_dir = f"{pdir}.tmp-{uuid.uuid4().hex[:8]}"
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        t0 = time.monotonic()
        ds = fn(shard)
        ds.write_parquet(tmp_dir)
        wall = time.monotonic() - t0
        n = parquet_num_rows(tmp_dir)
        manifest = StageManifest(
            stage=stage,
            fingerprint=part_fp,
            num_rows=n,
            wall_time_sec=wall,
            extra={"partition": i, "n_input_files": len(shard)},
        )
        with open(os.path.join(tmp_dir, MANIFEST_NAME), "w") as f:
            json.dump(asdict(manifest), f)
        if os.path.exists(pdir):
            shutil.rmtree(pdir)
        os.replace(tmp_dir, pdir)
        if on_partition_done is not None:
            on_partition_done(i, manifest)
    return scan_parquet(part_dirs)


def partition_metrics(out_dir: str) -> list[dict]:
    """All partition manifests of a stage dir (lineage + row counts +
    latency — the run's metrics record)."""
    out = []
    if not os.path.isdir(out_dir):
        return out
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("part="):
            m = read_manifest(os.path.join(out_dir, name))
            if m is not None:
                d = asdict(m)
                d["partition_dir"] = name
                out.append(d)
    return out
