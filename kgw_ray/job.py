"""``ray job submit`` entrypoint for the flagship web-KG build.

The north rule runs the pipeline as a Ray JOB on a fixed-size multi-node
cluster; this module is the submittable driver::

    ray job submit --working-dir . -- \
        python -m kgw_ray.job --input 's3://bucket/pages/*.parquet' \
        --out /mnt/shared/webkg_hub --partitions 256

On the cluster, ``ray job submit`` ships the working dir to the head node
and runs this script there; ``ray.init()`` with no address attaches to the
job's cluster (RAY_ADDRESS is injected by the job server). Locally the
same module runs standalone (``python -m kgw_ray.job --input ...``) and
auto-initialises a local session — the ONLY ray.init in the repo's library
surface lives here and in bench.py/tests, per the driver contract
(__ray_entry__.py must never init).

Resume semantics: each input shard partition commits its own Parquet +
manifest (lineage fingerprint, row counts, wall time —
state/manifest.py); re-submitting the identical job skips completed
partitions, so a preempted job finishes incrementally. Metrics land in
``<out>/job_metrics.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m kgw_ray.job",
        description="Submittable flagship web-KG build (pages -> hub)",
    )
    ap.add_argument(
        "--input",
        required=True,
        help="glob of documents/pages parquet shards (one partition unit "
        "is one shard group)",
    )
    ap.add_argument("--out", required=True, help="hub output directory")
    ap.add_argument(
        "--partitions",
        type=int,
        default=8,
        help="checkpoint partitions (>= cluster nodes; each commits its "
        "own manifest)",
    )
    ap.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing partition manifests and rebuild",
    )
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the job's cluster;
        # standalone it is unset (or 'local') and this starts a session
        ray.init(ignore_reinit_error=True)

    files = sorted(glob.glob(args.input))
    if not files:
        print(f"no input shards match {args.input!r}", file=sys.stderr)
        return 2

    from kgw_ray.pipelines.webkg import build_webkg_partitioned_full

    if args.no_resume:
        import shutil

        for sub in ("edge_partials", "edges", "nodes"):
            shutil.rmtree(os.path.join(args.out, sub), ignore_errors=True)

    t0 = time.time()
    nodes, edges = build_webkg_partitioned_full(
        files, args.out, num_partitions=args.partitions
    )
    n_nodes, n_edges = nodes.count(), edges.count()
    metrics = {
        "input_shards": len(files),
        "partitions": args.partitions,
        "nodes": n_nodes,
        "edges": n_edges,
        "wall_time_sec": round(time.time() - t0, 3),
    }
    with open(os.path.join(args.out, "job_metrics.json"), "w") as f:
        json.dump(metrics, f, indent=1)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
