#!/usr/bin/env python
"""Two-raylet cluster smoke (r4 judge task #6): run the flagship web-KG
pipeline across a REAL multi-node topology — a head raylet plus a second
local raylet — so worker-to-worker object transfer crosses an actual
node boundary instead of staying in one shared plasma store.

Usage (the script manages the cluster lifecycle itself):

    python tools/two_node_smoke.py [--repeat 128] [--cpus-per-node 16]

Prints ONE JSON line: node count, per-node CPU split, flagship wall time
and docs/s, and the head-node object-store stats. Evidence goal: the
pipelines execute unchanged under multi-node scheduling (broadcasts
fetch once per node, the driver-merge pull crosses the boundary) — the
single-box proxy for the north rule's fixed-size-cluster criterion.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=128)
    ap.add_argument("--cpus-per-node", type=int, default=16)
    ap.add_argument("--port", type=int, default=6379)
    ap.add_argument(
        "--sf-dir",
        default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"),
    )
    ap.add_argument(
        "--warmup-sf-dir",
        default="/root/testdata/sf0.001",
    )
    args = ap.parse_args()

    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)  # 'local' would bypass the cluster
    addr = f"127.0.0.1:{args.port}"
    subprocess.run(["ray", "stop", "--force"], env=env, capture_output=True)
    try:
        subprocess.run(
            [
                "ray", "start", "--head",
                f"--port={args.port}",
                f"--num-cpus={args.cpus_per_node}",
                "--include-dashboard=false",
            ],
            env=env, check=True, capture_output=True, text=True,
        )
        # second raylet on the same box: its workers reach the head's
        # objects through the object transfer protocol, not shared memory
        subprocess.run(
            [
                "ray", "start",
                f"--address={addr}",
                f"--num-cpus={args.cpus_per_node}",
            ],
            env=env, check=True, capture_output=True, text=True,
        )

        import ray

        ray.init(address=addr, include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from kgw_ray._shipping import ensure_importable_in_workers

        ensure_importable_in_workers()

        nodes = [n for n in ray.nodes() if n.get("Alive")]
        total_cpus = int(ray.cluster_resources().get("CPU", 0))

        from bench import _consume, _prepare_rendered_pages
        from kgw_ray.pipelines.webkg import (
            edges_from_triples,
            triples_dataset,
            triples_from_pages,
        )
        from kgw_ray.sources.readers import scan_parquet

        pages_dir = _prepare_rendered_pages(args.sf_dir, args.repeat)
        import pyarrow.parquet as pq

        n_docs = sum(
            pq.read_metadata(os.path.join(pages_dir, f)).num_rows
            for f in os.listdir(pages_dir)
            if f.endswith(".parquet")
        )
        # warmup (worker pool spin-up + code ship on BOTH raylets)
        _consume(edges_from_triples(triples_dataset(args.warmup_sf_dir)))
        times = []
        n_rows = 0
        for _ in range(3):
            t0 = time.monotonic()
            pages = scan_parquet(pages_dir, columns=["doc_id", "html"])
            n_rows = _consume(edges_from_triples(triples_from_pages(pages)))
            times.append(round(time.monotonic() - t0, 3))
        sec = sorted(times)[len(times) // 2]
        print(
            json.dumps(
                {
                    "metric": "webkg flagship on a 2-raylet local cluster "
                    f"(corpus x{args.repeat}, median of 3)",
                    "value": sec,
                    "unit": "sec",
                    "docs_per_sec": round(n_docs / sec, 1),
                    "times": times,
                    "n_docs": n_docs,
                    "rows": n_rows,
                    "n_nodes": len(nodes),
                    "cpus_per_node": [
                        int(n["Resources"].get("CPU", 0)) for n in nodes
                    ],
                    "total_cpus": total_cpus,
                }
            )
        )
        ray.shutdown()
    finally:
        subprocess.run(["ray", "stop", "--force"], env=env, capture_output=True)


if __name__ == "__main__":
    main()
