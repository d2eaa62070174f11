#!/usr/bin/env python
"""Benchmark harness (driver contract + local feedback loop).

Default mode: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) in one Ray session (``$RAY_GRAFT_CPUS`` CPUs,
default 32) and print ONE JSON line::

    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ...}

``--scaling`` mode: run the flagship web-KG pipeline twice in FRESH
processes at two parallelism levels (8 and 32 CPUs — the sandbox proxy for
N- and 4N-node clusters per BASELINE.json north_rule) on the same input and
report both throughputs plus scaling efficiency ``(T_small / T_big) / 4``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_REPO = os.path.dirname(os.path.abspath(__file__))
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# Headline pipelines: the flagship web-KG build + representative wide-op
# workloads (registry names). Kept an order of magnitude smaller than the
# full registry so the per-round bench finishes quickly; correctness of the
# full registry is the driver's CORRECTNESS gate, not bench.
HEADLINE = [
    "webkg_edges",          # pages → extract → triples → dedup shuffle
    "webkg_nodes",
    "q1_pricing_summary",   # partial-agg combiner + small groupby
    "q3_top_orders",        # broadcast + large hash join + top-k
    "events_hourly_window", # event-time window aggregate
    "dedup_minhash_lsh",    # shingle → minhash → band buckets → groupby
    "ann_cosine_topk",      # brute-force cosine top-k vs broadcast queries
    "text_quality",         # vectorized text statistics
    "curate_documents",     # composite: quality filter → exact → near dedup
]


def _consume(result) -> int:
    """Fully execute a query result; return row count."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        n = 0
        for b in result.iter_batches(batch_format="pyarrow", batch_size=65536):
            n += b.num_rows
        return n
    if isinstance(result, pa.Table):
        return result.num_rows
    if isinstance(result, pd.DataFrame):
        return len(result)
    return 0


def run_bench(sf_dir: str, num_cpus: int, queries: list[str]) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from kgw_ray._shipping import ensure_importable_in_workers

    ensure_importable_in_workers()
    from kgw_ray.pipelines.registry import QUERIES

    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows

    # warmup: spin up the Ray worker pool and ship library code once so the
    # timings measure steady-state pipeline cost, not session cold-start
    # (matches the --scaling methodology)
    _consume(QUERIES["webkg_edges"]("/root/testdata/sf0.001"))

    # best-of-2 per pipeline: single-shot timings on this box swing ±30%
    # with background load; min-of-2 is the standard noise guard and the
    # methodology is declared in the output ("reps"/"agg")
    unknown = [n for n in queries if n not in QUERIES]
    if unknown:
        raise ValueError(
            f"unknown bench queries {unknown}; a silent skip would report a "
            f"phantom speedup. Known: {sorted(QUERIES)}"
        )
    per_query: dict[str, float] = {}
    rows: dict[str, int] = {}
    for name in queries:
        times = []
        for _rep in range(2):
            t0 = time.monotonic()
            rows[name] = _consume(QUERIES[name](sf_dir))
            times.append(time.monotonic() - t0)
        per_query[name] = round(min(times), 3)
    total = round(sum(per_query.values()), 3)
    webkg_sec = per_query.get("webkg_edges", 0.0)
    return {
        "metric": "headline pipelines total wall time",
        "value": total,
        "unit": "sec",
        "queries": per_query,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "reps": 2,
        "agg": "min",
        "docs_per_sec": round(n_docs / webkg_sec, 1) if webkg_sec else None,
        "rows": rows,
    }


def _prepare_skew_corpus(sf_dir: str) -> str:
    """Documents corpus with DELIBERATE hot keys (judge task #7): 80% of
    docs share a long boilerplate prefix (so its shingles dominate their
    MinHash signatures — one scorching LSH bucket family per band) and
    50% of docs collapse onto one host. Cached like the scaled corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = os.path.join(sf_dir, "documents.parquet")
    out_dir = (
        f"/tmp/kgw_bench/{os.path.basename(os.path.normpath(sf_dir))}_skew"
    )
    out = os.path.join(out_dir, "documents.parquet")
    done = os.path.join(out, "_DONE")
    st = os.stat(src)
    cache_key = f"{st.st_size}:{int(st.st_mtime)}:skew-v1"
    if not (os.path.exists(done) and open(done).read() == cache_key):
        import shutil

        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        t = pq.read_table(src)
        boiler = (
            "this page is part of our site network and is provided for "
            "informational purposes only all rights reserved please see the "
            "terms of service and the privacy policy for details about how "
            "we collect use and share information about you when you visit "
            "our websites use our services or otherwise interact with us "
        ) * 5  # ~1.5k chars: dominates a ~1k-char doc's shingle set
        texts = t.column("text").to_pylist()
        ids = t.column("doc_id").to_pylist()
        texts = [
            (boiler + tx) if (i % 5) != 0 else tx  # 80% boilerplated
            for i, tx in zip(ids, texts)
        ]
        t = t.set_column(
            t.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
        )
        if "source" in t.column_names:
            srcs = [
                "src0" if (i % 2) == 0 else s  # 50% on one hot host
                for i, s in zip(ids, t.column("source").to_pylist())
            ]
            t = t.set_column(
                t.schema.get_field_index("source"),
                "source",
                pa.array(srcs, pa.string()),
            )
        # many files so the read parallelizes (same rationale as the
        # scaled corpus)
        n = t.num_rows
        parts = 8
        sz = n // parts
        for q in range(parts):
            sl = t.slice(q * sz, sz if q < parts - 1 else None)
            pq.write_table(sl, os.path.join(out, f"part-{q}.parquet"))
        open(done, "w").write(cache_key)
    return out_dir


def run_skew(sf_dir: str, num_cpus: int) -> dict:
    """Skew-guard stress (judge task #7): the dedup family on the
    deliberately skewed corpus, LSH fan-out guard ON (max_bucket=64
    chain fallback) vs OFF (unbounded triu expansion). Reports wall
    times and candidate-pair counts for both, plus the full dedup
    pipeline under the guard."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from kgw_ray._shipping import ensure_importable_in_workers

    ensure_importable_in_workers()
    from kgw_ray.sources.readers import scan_parquet
    from kgw_ray.stages.dedup import (
        _band_rows_from_flat,
        _unpack_shingle_blobs,
        lsh_candidate_pairs,
        minhash_dedup_keep,
        shingle_blob_batch,
    )

    skew_dir = _prepare_skew_corpus(sf_dir)
    docs = scan_parquet(
        os.path.join(skew_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def hub_fn(batch):
        return shingle_blob_batch(batch, shingle_k=5, keep=["doc_id"])

    hub = docs.map_batches(hub_fn, batch_format="pyarrow").materialize()

    def band_fn(batch):
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        flat, offs = _unpack_shingle_blobs(batch.column("shingles").to_pylist())
        return _band_rows_from_flat(ids, flat, offs, 64, 16)

    band_rows = hub.select_columns(["doc_id", "shingles"]).map_batches(
        band_fn, batch_format="pyarrow"
    ).materialize()

    out: dict = {"n_docs": docs.count()}
    for label, mb in (("guard_on", 64), ("guard_off", 1 << 40)):
        t0 = time.monotonic()
        n_pairs = lsh_candidate_pairs(band_rows, max_bucket=mb).count()
        out[f"lsh_pairs_{label}"] = n_pairs
        out[f"lsh_seconds_{label}"] = round(time.monotonic() - t0, 3)
    for label, mb in (("guard_on", 64), ("guard_off", 1 << 40)):
        t0 = time.monotonic()
        survivors = _consume(minhash_dedup_keep(docs, max_bucket=mb))
        out[f"dedup_full_{label}_seconds"] = round(time.monotonic() - t0, 3)
        out[f"dedup_survivors_{label}"] = survivors
    return out


def _prepare_rendered_pages(sf_dir: str, repeat: int) -> str:
    """Render the replicated corpus's HTML pages ONCE into a cached
    Parquet pages table (url, warc_ts, html:binary, text, lang, doc_id —
    EXACTLY the BASELINE.json input_hint shape). The flagship then READS
    stored pages, so the timed region is the engine (parquet scan →
    extract → triples → link → combine), not the page generator: through
    round 4 the synthetic render ran inside the timed region and was
    measured at ~77% of flagship wall (see BASELINE.md r5), drowning the
    engine's own scaling behavior."""
    import ray

    out = f"/tmp/kgw_bench/{os.path.basename(os.path.normpath(sf_dir))}_pages_x{repeat}"
    done = out + ".done"
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    cache_key = f"{st.st_size}:{int(st.st_mtime)}:pages-v4"

    def _cache_valid() -> bool:
        # the marker records key + shard count; a /tmp cleaner removing
        # shard files (but not the sibling marker) must invalidate the
        # cache instead of silently benchmarking a partial corpus
        if not os.path.exists(done):
            return False
        rec = open(done).read().split("|")
        if len(rec) != 2 or rec[0] != cache_key:
            return False
        n_files = len(
            [f for f in os.listdir(out) if f.endswith(".parquet")]
        ) if os.path.isdir(out) else 0
        return n_files == int(rec[1])

    if not _cache_valid():
        import shutil

        from kgw_ray.sources.pages import pages_dataset

        shutil.rmtree(out, ignore_errors=True)
        if not ray.is_initialized():  # pragma: no cover - callers init first
            ray.init(address="local", include_dashboard=False)
        # MANY shard files regardless of the rendering session's CPU count
        # (the real Common-Crawl shape): a low-CPU child rendering into 4
        # fat files would cap read parallelism — and therefore the whole
        # fused chain — for every later level (measured: 32 CPUs SLOWER
        # than 8 on a 4-file corpus)
        n_shards = max(256, min(1024, repeat))
        # default (snappy) compression: an interleaved A/B against a zstd
        # corpus read SLOWER at every level on this box (32-CPU level
        # 2.7× slower) — the lighter codec wins here; revisit on real
        # storage-bound clusters
        pages_dataset(
            sf_dir, repeat=repeat, override_num_blocks=n_shards
        ).write_parquet(out)
        n_files = len([f for f in os.listdir(out) if f.endswith(".parquet")])
        open(done, "w").write(f"{cache_key}|{n_files}")
    return out


def _warm_page_cache(pages_dir: str) -> None:
    """Read every corpus byte once so the FIRST timed pair doesn't compare
    a cold-cache level against a warm one (the corpus fits in RAM here;
    at real scale every level streams from storage equally)."""
    for f in os.listdir(pages_dir):
        if f.endswith(".parquet"):
            with open(os.path.join(pages_dir, f), "rb") as fh:
                while fh.read(1 << 24):
                    pass


def run_flagship(
    sf_dir: str, num_cpus: int, repeat: int, reps: int = 3, mem_stats: bool = False
) -> dict:
    """The scaling workload: the flagship webkg_edges pipeline over STORED
    rendered pages (input_hint-shaped Parquet, rendered once and cached)
    replicated ``repeat``× (distinct doc_id spaces) — enough work to
    saturate the larger parallelism level; both levels run the IDENTICAL
    input."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from kgw_ray._shipping import ensure_importable_in_workers

    ensure_importable_in_workers()
    from kgw_ray.pipelines.webkg import (
        edges_from_triples,
        triples_dataset,
        triples_from_pages,
    )
    from kgw_ray.sources.readers import scan_parquet

    import pyarrow.parquet as pq

    pages_dir = _prepare_rendered_pages(sf_dir, repeat)
    n_docs = sum(
        pq.read_metadata(os.path.join(pages_dir, f)).num_rows
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )

    def flagship() -> int:
        # prune the scan to the two columns the chain consumes
        pages = scan_parquet(pages_dir, columns=["doc_id", "html"])
        return _consume(edges_from_triples(triples_from_pages(pages)))

    # warmup: spin up the worker pool + ship code once, then take the
    # MEDIAN of ``reps`` timed runs — steady-state throughput (the
    # north_rule's regime; a 10^12-doc job is never cold-start-bound) with
    # run-to-run scheduler variance averaged out; the full sample list is
    # reported so dispersion is visible (machine noise is ±30% single-shot)
    _consume(edges_from_triples(triples_dataset("/root/testdata/sf0.001")))
    times = []
    n_rows = 0
    for _ in range(reps):
        t0 = time.monotonic()
        n_rows = flagship()
        times.append(time.monotonic() - t0)
    srt = sorted(times)
    sec = round(srt[len(srt) // 2], 3)
    res = {
        "queries": {"webkg_edges": sec},
        "times": [round(t, 3) for t in times],
        "docs_per_sec": round(n_docs / sec, 1),
        "rows": {"webkg_edges": n_rows},
        "n_docs": n_docs,
        "num_cpus": num_cpus,
    }
    if mem_stats:
        res["mem_stats"] = _object_store_stats()
    return res


def _object_store_stats() -> dict:
    """Object-store capacity + spill counters for the CURRENT Ray session —
    the evidence that a run streamed (bounded store, spill instead of OOM).
    Read from the raylet log + spill directory (the grpc-backed
    `ray memory --stats-only` API is unavailable in this container); the
    matched raw log lines are returned so the parse can be audited."""
    import glob
    import re

    import ray

    stats: dict = {
        "object_store_capacity_mib": round(
            ray.cluster_resources().get("object_store_memory", 0) / (1024 * 1024)
        )
    }
    session = "/tmp/ray/session_latest"
    # raylet.out periodically logs e.g. "Spilled 1234 MiB, 56 objects, ..."
    # and "Restored 12 MiB, 3 objects" — keep the LAST (cumulative) of each
    raw: list[str] = []
    for log in glob.glob(os.path.join(session, "logs", "raylet.out")):
        last: dict[str, str] = {}
        with open(log, errors="replace") as fh:
            for ln in fh:
                m = re.search(r"(Spilled|Restored) (\d+) MiB, (\d+) objects", ln)
                if m:
                    last[m.group(1)] = ln.strip()
                    stats[f"{m.group(1).lower()}_mib"] = int(m.group(2))
                    stats[f"{m.group(1).lower()}_objects"] = int(m.group(3))
        raw.extend(last.values())
    spill_files = glob.glob(os.path.join(session, "ray_spilled_objects*", "*"))
    stats["spill_dir_files"] = len(spill_files)
    stats["spill_dir_mib"] = round(
        sum(os.path.getsize(f) for f in spill_files) / (1024 * 1024)
    )
    stats["raw"] = raw
    return stats


def _scaling_child(sf_dir: str, cpus: int, repeat: int, reps: int) -> dict:
    """Run JUST the flagship pipeline in a fresh process; return its JSON."""
    env = dict(os.environ)
    env["RAY_GRAFT_CPUS"] = str(cpus)
    env["GRAFT_SF_DIR"] = sf_dir
    out = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--_flagship_only",
            "--repeat",
            str(repeat),
            "--reps",
            str(reps),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--queries", default=None, help="comma-separated subset")
    ap.add_argument(
        "--repeat",
        type=int,
        default=int(os.environ.get("BENCH_REPEAT", "128")),
        help="corpus replication factor for the scaling workload (×128 ≈ "
        "640k docs at sf0.1 — a timed region big enough that ±30%% "
        "single-shot machine noise cannot hide a real regression; pass "
        "256 for the extra-long region)",
    )
    ap.add_argument(
        "--reps",
        type=int,
        default=int(os.environ.get("BENCH_REPS", "5")),
        help="timed repetitions per scaling level (median reported, full "
        "sample list + dispersion in the JSON)",
    )
    ap.add_argument(
        "--mem-stats",
        action="store_true",
        help="with --_flagship_only: append object-store peak/spill counters "
        "to the JSON (the ×4096 streaming-smoke evidence)",
    )
    ap.add_argument("--_flagship_only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument(
        "--skew",
        action="store_true",
        help="dedup-family stress on a deliberately skewed corpus (80%% "
        "boilerplate / 50%% one host): LSH skew guard on vs off, one "
        "JSON line",
    )
    ap.add_argument(
        "--stats",
        default=None,
        metavar="QUERY",
        help="run ONE registry query and print its per-stage ds.stats() "
        "breakdown to stderr (one summary JSON line on stdout)",
    )
    args = ap.parse_args()

    if args._flagship_only:
        res = run_flagship(
            args.sf_dir, args.cpus, args.repeat, args.reps, mem_stats=args.mem_stats
        )
        print(json.dumps(res))
        import ray

        ray.shutdown()
        return

    if args.skew:
        res = run_skew(args.sf_dir, args.cpus)
        print(
            json.dumps(
                {
                    "metric": "dedup skew-guard stress (boilerplate-hot LSH "
                    "buckets; guard = max_bucket chain fallback)",
                    "value": res["dedup_full_guard_on_seconds"],
                    "guard_off_over_on": round(
                        res["dedup_full_guard_off_seconds"]
                        / max(res["dedup_full_guard_on_seconds"], 1e-9),
                        2,
                    ),
                    "unit": "sec",
                    "sf": args.sf_dir,
                    "num_cpus": args.cpus,
                    **res,
                }
            )
        )
        import ray

        ray.shutdown()
        return

    if args.scaling:
        # INTERLEAVED levels (r4 judge task #2): all-A-then-all-B lets slow
        # ambient box drift between the phases land directly in the ratio;
        # alternating fresh-process pairs A/B/A/B/... makes each pair see
        # the same ambient load, and the MEDIAN of per-adjacent-pair ratios
        # is robust to any single contaminated pair. Dispersion = the full
        # per-pair efficiency list (plus min/max band).
        small_cpus, big_cpus = max(2, args.cpus // 4), args.cpus
        factor = big_cpus / small_cpus
        # render (cached) + warm the page cache BEFORE the first pair so
        # no level pays the one-time cold read inside its timed region;
        # release the parent's render session so children measure alone
        _warm_page_cache(_prepare_rendered_pages(args.sf_dir, args.repeat))
        import ray as _ray

        if _ray.is_initialized():
            _ray.shutdown()
        small_times, big_times, pair_effs = [], [], []
        n_docs = None
        dps_small, dps_big = [], []
        for _ in range(args.reps):
            small = _scaling_child(args.sf_dir, small_cpus, args.repeat, 1)
            big = _scaling_child(args.sf_dir, big_cpus, args.repeat, 1)
            ts, tb = small["times"][0], big["times"][0]
            small_times.append(ts)
            big_times.append(tb)
            pair_effs.append((ts / tb) / factor)
            dps_small.append(small["docs_per_sec"])
            dps_big.append(big["docs_per_sec"])
            n_docs = big["n_docs"]
        srt = sorted(pair_effs)
        eff = srt[len(srt) // 2]
        med_small = sorted(small_times)[len(small_times) // 2]
        med_big = sorted(big_times)[len(big_times) // 2]
        print(
            json.dumps(
                {
                    "metric": "webkg flagship scaling efficiency "
                    f"({small_cpus}→{big_cpus} CPUs, cluster-size proxy; "
                    f"corpus×{args.repeat}, median of {args.reps} "
                    "INTERLEAVED A/B pair ratios)",
                    "value": round(eff, 3),
                    "unit": "efficiency",
                    "pair_efficiencies": [round(e, 3) for e in pair_effs],
                    "efficiency_range": [
                        round(min(pair_effs), 3),
                        round(max(pair_effs), 3),
                    ],
                    "sf": args.sf_dir,
                    "num_cpus": big_cpus,
                    "n_docs": n_docs,
                    "queries": {
                        f"webkg_edges@{small_cpus}cpus": round(med_small, 3),
                        f"webkg_edges@{big_cpus}cpus": round(med_big, 3),
                    },
                    "times": {
                        f"{small_cpus}cpus": small_times,
                        f"{big_cpus}cpus": big_times,
                    },
                    "docs_per_sec": {
                        f"{small_cpus}cpus": sorted(dps_small)[len(dps_small) // 2],
                        f"{big_cpus}cpus": sorted(dps_big)[len(dps_big) // 2],
                    },
                }
            )
        )
        return

    if args.stats:
        # per-stage execution breakdown for ONE registry query — the
        # "read ds.stats() and iterate" feedback loop as a first-class
        # mode (stderr so the stdout contract stays one-JSON-line-free)
        import ray

        if not ray.is_initialized():
            ray.init(
                address="local",
                num_cpus=args.cpus,
                include_dashboard=False,
                logging_level="ERROR",
            )
        import __ray_entry__ as entry_mod

        fn = entry_mod.queries()[args.stats]
        res = fn(args.sf_dir)
        import ray.data as rd_mod

        if isinstance(res, rd_mod.Dataset):
            res = res.materialize()
            print(res.stats(), file=sys.stderr)
            print(json.dumps({"query": args.stats, "rows": res.count()}))
        else:
            print(
                json.dumps(
                    {
                        "query": args.stats,
                        "rows": len(res) if hasattr(res, "__len__") else res.num_rows,
                        "note": "driver-side result (no Dataset stats)",
                    }
                )
            )
        ray.shutdown()
        return

    names = args.queries.split(",") if args.queries else HEADLINE
    res = run_bench(args.sf_dir, args.cpus, names)
    print(json.dumps(res))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
