"""The three kgbench workloads.

Each workload generates its inputs (``prepare``), warms state that a
serving deployment keeps warm (``prime``), then runs closed-loop passes
(``run_pass``). A pass returns its wall time, the latency of each of its
operations by kind, and the latencies of its unit operations; answers are
kept so ``check`` can compare them outside the timed region. ``layers``
turns a traced run into the per-layer metrics.

- ``webkg_build``: the flagship build over stored page shards.
- ``query_mix``: thirteen registry queries, one at a time.
- ``hub_serve``: build + publish the TPC-H graph hub, write every export
  format, then adjacency lookups on Zipf-skewed node ids.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import checks
import gen

MIX = [
    "webkg_edges", "webkg_nodes", "q1_pricing_summary", "q3_top_orders",
    "events_hourly_window", "dedup_minhash_lsh", "ann_cosine_topk",
    "text_quality", "curate_documents", "kg_statistics", "kg_pagerank",
    "kg_degree_distribution", "webkg_canonicalize",
]
EXPORTS = ["statistics", "csv", "jsonl", "graphml", "metta1", "metta2",
           "metta3", "sql"]
SPAN_MODULES = (
    "stages.agg", "stages.joins", "stages.dedup", "stages.similarity",
    "stages.graph", "stages.canonicalize", "pipelines.tpch_kg",
    "pipelines.webkg",
)
NUM_BUCKETS = 16

SIZES = {
    "full": {
        "webkg_build": {"n_docs": 50_000, "n_shards": 32},
        "query_mix": {"sf": 0.002, "n_docs": 300, "n_events": 20_000,
                      "n_vectors": 500},
        "hub_serve": {"sf": 0.002, "lookups_per_pass": 100},
    },
    "tiny": {
        "webkg_build": {"n_docs": 2_000, "n_shards": 4},
        "query_mix": {"sf": 0.0005, "n_docs": 200, "n_events": 2_000,
                      "n_vectors": 100},
        "hub_serve": {"sf": 0.0005, "lookups_per_pass": 5},
    },
}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    [
        ("sources.read_s", "s"), ("sources.read_mb", "MB"), ("sources.rows", "count"),
        ("stages.extract.busy_s", "s"), ("stages.extract.mb_out", "MB"),
        ("stages.triples.busy_s", "s"), ("stages.triples.rows_out", "count"),
        ("stages.linking.busy_s", "s"),
        ("pipelines.webkg.combine_busy_s", "s"),
        ("pipelines.webkg.combine_ratio", "ratio"),
        ("state.manifest.edges_commit_s", "s"), ("state.manifest.nodes_commit_s", "s"),
        ("state.manifest.mb_written", "MB"),
        ("baseline.single_process_docs_per_s", "1/s"),
        ("ray_data.overhead_share", "ratio"),
        ("ray_data.executions", "count"), ("ray_data.exec_s", "s"),
        ("driver.between_exec_s", "s"),
        ("ray_data.materialize_calls", "count"), ("ray_data.count_calls", "count"),
    ]
    + [(f"query.{q}.{k}", u) for q in MIX for k, u in (("s", "s"), ("executions", "count"))]
    + [(f"{m}.{k}", u) for m in SPAN_MODULES for k, u in (("calls", "count"), ("self_s", "s"))]
    + [
        ("pipelines.tpch_kg.build_s", "s"), ("sinks.exports.write_hub_s", "s"),
    ]
    + [(f"sinks.exports.{f}_s", "s") for f in EXPORTS]
    + [
        ("sinks.exports.mb_out", "MB"), ("stages.graph.statistics_s", "s"),
        ("sinks.exports.read_adjacency.executions_per_lookup", "count"),
        ("sinks.exports.read_adjacency.rows_per_row_scanned", "ratio"),
        ("trace.overhead_share", "ratio"),
    ]
)


def _no_span(name):
    return contextlib.nullcontext()


def _mb(path: str) -> float:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    ) / 2**20


def _frame(result) -> pd.DataFrame:
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _mean(xs) -> float:
    return float(np.mean(xs)) if len(xs) else 0.0


def warm_up(warm_dir: str) -> None:
    """The set-up's warm-up pass: the flagship chain over one small fixed
    page shard (starts a worker and ships the code it needs)."""
    from kgw_ray.pipelines.webkg import edges_from_triples, triples_from_pages
    from kgw_ray.sources.readers import read_table

    pages = read_table(warm_dir, "pages", columns=["doc_id", "html"])
    edges_from_triples(triples_from_pages(pages)).to_pandas()


def prepare_warm_up(path: str) -> None:
    gen.write_pages(path, 0, n_docs=500, n_shards=1)


class Workload:
    min_passes = 2

    def __init__(self, run_dir: str, seed: int, size: str, inject_wrong: bool):
        self.dir = os.path.join(run_dir, "data")
        self.out = os.path.join(run_dir, "out")
        self.seed, self.inject_wrong = seed, inject_wrong
        self.p = SIZES[size][self.name]

    def prime(self) -> None:
        pass

    def trace_targets(self, tracer) -> None:
        for m in SPAN_MODULES:
            tracer.wrap_public(m)

    def layers(self, tracer, traced: list[dict], untraced: list[dict]) -> dict:
        """Per-layer metrics common to every workload, per traced pass."""
        n = len(traced)
        m = {
            "ray_data.executions": sum(r["executions"] for r in traced) / n,
            "ray_data.exec_s": sum(r["exec_s"] for r in traced) / n,
            "driver.between_exec_s": sum(r["wall"] - r["exec_s"] for r in traced) / n,
            "ray_data.materialize_calls": sum(r["materialize"] for r in traced) / n,
            "ray_data.count_calls": sum(r["count"] for r in traced) / n,
        }
        since = traced[0]["spans_from"]
        for name, t in tracer.span_totals(since).items():
            if name.startswith("mod:"):
                mod = name[4:]
                m[f"{mod}.calls"] = t["calls"] / n
                m[f"{mod}.self_s"] = t["self_s"] / n
        # each traced pass against the untraced pass just before it, so a
        # drift in machine speed over the run does not read as overhead
        m["trace.overhead_share"] = statistics.median(
            t["wall"] / u["wall"] for u, t in zip(untraced, traced)) - 1.0
        return m


class WebkgBuild(Workload):
    """read pages → triples_from_pages → edges_from_triples → nodes_from_edges,
    edges and nodes committed through ``state.manifest.resumable_stage``."""

    name = "webkg_build"

    def prepare(self) -> None:
        gen.write_pages(self.dir, self.seed, n_docs=self.p["n_docs"],
                        n_shards=self.p["n_shards"])
        self.n_docs = self.p["n_docs"]

    def run_pass(self, i: int, span=_no_span) -> dict:
        from kgw_ray.pipelines.webkg import (
            edges_from_triples, nodes_from_edges, triples_from_pages,
        )
        from kgw_ray.sources.readers import read_table
        from kgw_ray.state.manifest import resumable_stage

        out = os.path.join(self.out, f"pass{i}")
        fp = f"webkg:{os.path.join(self.dir, 'pages.parquet')}"
        t0 = time.perf_counter()
        with span("state.manifest.edges_commit"):
            pages = read_table(self.dir, "pages", columns=["doc_id", "html"])
            edges = resumable_stage(
                os.path.join(out, "edges"), "edges", fp,
                lambda: edges_from_triples(triples_from_pages(pages)), force=True,
            )
        t1 = time.perf_counter()
        with span("state.manifest.nodes_commit"):
            resumable_stage(os.path.join(out, "nodes"), "nodes", fp,
                            lambda: nodes_from_edges(edges), force=True)
        t2 = time.perf_counter()
        return {"wall": t2 - t0, "ops": {"edges": [t1 - t0], "nodes": [t2 - t1]},
                "unit": [t2 - t0], "out": out}

    def check(self, records: list[dict]) -> tuple[int, int, list[str]]:
        from kgw_ray.pipelines.registry import ORACLES

        # MATERIALIZED only stops DuckDB from evaluating the shared triples
        # CTE twice; the query is the registry's oracle as written
        want = {
            k: checks.oracle(ORACLES[f"webkg_{k}"].replace(
                "WITH tr AS (", "WITH tr AS MATERIALIZED (", 1), self.dir)
            for k in ("edges", "nodes")
        }
        attempted, failed, why = 0, 0, []
        for i, r in enumerate(records):
            for k in ("edges", "nodes"):
                got = pq.read_table(os.path.join(r["out"], k)).to_pandas()
                if self.inject_wrong and i == 0 and k == "edges":
                    got = got.iloc[1:]
                attempted += 1
                err = checks.same_answer(got, want[k])
                if err:
                    failed += 1
                    why.append(f"pass {i} {k}: {err}")
        return attempted, failed, why

    def layers(self, tracer, traced, untraced) -> dict:
        m = super().layers(tracer, traced, untraced)
        since = traced[0]["spans_from"]
        spans = tracer.span_totals(since)
        n = len(traced)
        m["state.manifest.edges_commit_s"] = spans["state.manifest.edges_commit"]["s"] / n
        m["state.manifest.nodes_commit_s"] = spans["state.manifest.nodes_commit"]["s"] / n
        m["state.manifest.mb_written"] = _mean([_mb(r["out"]) for r in traced])
        m.update(self.replay())
        busy = sum(m[k] for k in ("sources.read_s", "stages.extract.busy_s",
                                  "stages.triples.busy_s", "stages.linking.busy_s",
                                  "pipelines.webkg.combine_busy_s"))
        m["ray_data.overhead_share"] = 1.0 - busy / statistics.median(
            r["wall"] for r in traced)
        m["baseline.single_process_docs_per_s"] = self.n_docs / busy
        return m

    def replay(self) -> dict:
        """The pass's per-batch public functions, called in this process
        over the same shards (one batch per shard, as Ray Data reads them)."""
        from kgw_ray.pipelines.webkg import _edge_partials
        from kgw_ray.stages.extract import extract_batch
        from kgw_ray.stages.linking import link_triples_batch
        from kgw_ray.stages.triples import extract_triples_batch

        t = dict.fromkeys(("read", "extract", "triples", "link", "combine"), 0.0)
        read_mb = extract_mb = 0.0
        rows = triple_rows = partial_rows = 0
        shard_dir = os.path.join(self.dir, "pages.parquet")
        for f in sorted(os.listdir(shard_dir)):
            c0 = time.perf_counter()
            b = pq.read_table(os.path.join(shard_dir, f), columns=["doc_id", "html"])
            c1 = time.perf_counter()
            x = extract_batch(b)
            c2 = time.perf_counter()
            tr = extract_triples_batch(x)
            c3 = time.perf_counter()
            ln = link_triples_batch(tr)
            c4 = time.perf_counter()
            part = _edge_partials(ln)
            c5 = time.perf_counter()
            for k, d in zip(t, (c1 - c0, c2 - c1, c3 - c2, c4 - c3, c5 - c4)):
                t[k] += d
            read_mb += b.nbytes / 2**20
            extract_mb += x.nbytes / 2**20
            rows += b.num_rows
            triple_rows += tr.num_rows
            partial_rows += part.num_rows
        return {
            "sources.read_s": t["read"], "sources.read_mb": read_mb,
            "sources.rows": rows,
            "stages.extract.busy_s": t["extract"], "stages.extract.mb_out": extract_mb,
            "stages.triples.busy_s": t["triples"], "stages.triples.rows_out": triple_rows,
            "stages.linking.busy_s": t["link"],
            "pipelines.webkg.combine_busy_s": t["combine"],
            "pipelines.webkg.combine_ratio": partial_rows / max(1, triple_rows),
        }


class QueryMix(Workload):
    """The nine bench.py headline queries plus four graph / canonicalization
    queries, each run to a pandas frame, one at a time."""

    name = "query_mix"

    def prepare(self) -> None:
        p = self.p
        gen.write_tables(self.dir, self.seed, sf=p["sf"], n_docs=p["n_docs"],
                         n_events=p["n_events"], n_vectors=p["n_vectors"])

    def prime(self) -> None:
        # the graph hub the kg_* queries share: built once per input and
        # kept by the program in-process, as a serving session would
        from kgw_ray.pipelines.tpch_kg import tpch_graph

        tpch_graph(self.dir)

    def run_pass(self, i: int, span=_no_span) -> dict:
        from kgw_ray.pipelines.registry import QUERIES

        ops, frames = {}, {}
        t0 = time.perf_counter()
        for q in MIX:
            with span(f"query.{q}"):
                s = time.perf_counter()
                frames[q] = _frame(QUERIES[q](self.dir))
                ops[q] = [time.perf_counter() - s]
        wall = time.perf_counter() - t0
        return {"wall": wall, "ops": ops, "unit": [wall], "frames": frames}

    def check(self, records):
        from kgw_ray.pipelines.registry import ORACLES

        attempted, failed, why = 0, 0, []
        for q in MIX:
            want = checks.oracle(ORACLES[q], self.dir)
            for i, r in enumerate(records):
                got = r["frames"][q]
                if self.inject_wrong and i == 0 and q == MIX[0]:
                    got = got.iloc[1:]
                attempted += 1
                err = checks.same_answer(got, want)
                if err:
                    failed += 1
                    why.append(f"pass {i} {q}: {err}")
        return attempted, failed, why

    def layers(self, tracer, traced, untraced) -> dict:
        m = super().layers(tracer, traced, untraced)
        execs = dict.fromkeys(MIX, 0)
        for sp in tracer.spans[traced[0]["spans_from"]:]:
            if sp["name"].startswith("query."):
                execs[sp["name"][6:]] += tracer.executions_within(sp["start"], sp["end"])
        for q in MIX:
            m[f"query.{q}.s"] = statistics.median(r["ops"][q][0] for r in traced)
            m[f"query.{q}.executions"] = execs[q] / len(traced)
        return m


class HubServe(Workload):
    """Build the TPC-H property graph, publish the bucketed hub, write every
    export format, then read adjacency lists of Zipf-skewed node ids."""

    name = "hub_serve"
    min_passes = 1  # one pass already holds 100 lookups

    def prepare(self) -> None:
        p = self.p
        gen.write_tables(self.dir, self.seed, sf=p["sf"], n_docs=10,
                         n_events=10, n_vectors=10)
        n = {t: pq.read_metadata(os.path.join(self.dir, f"{t}.parquet")).num_rows
             for t in ("customer", "nation", "region", "supplier", "part",
                       "orders", "lineitem")}
        self.n_nodes = sum(n[t] for t in ("customer", "nation", "region",
                                          "supplier", "part", "orders"))
        self.n_edges = sum(n[t] for t in ("customer", "supplier", "nation",
                                          "orders", "lineitem"))
        ids = (
            [f"C{i}" for i in range(n["customer"])] + [f"N{i}" for i in range(25)]
            + [f"R{i}" for i in range(5)] + [f"S{i}" for i in range(n["supplier"])]
            + [f"P{i}" for i in range(n["part"])] + [f"O{i}" for i in range(n["orders"])]
        )
        rng = np.random.default_rng([self.seed, 3])
        order = rng.permutation(len(ids))
        ranks = np.minimum(rng.zipf(1.2, 100_000), len(ids)) - 1
        self.lookup_ids = [ids[order[r]] for r in ranks]

    def run_pass(self, i: int, span=_no_span) -> dict:
        from kgw_ray.pipelines.tpch_kg import tpch_edges, tpch_nodes
        from kgw_ray.sinks import exports as ex

        import ray

        out = os.path.join(self.out, f"pass{i}")
        hub = os.path.join(out, "hub")
        ncpu = max(1, int(ray.cluster_resources().get("CPU", 1)))
        ops: dict[str, list[float]] = {}
        t0 = time.perf_counter()
        with span("pipelines.tpch_kg.build"):
            nodes = tpch_nodes(self.dir).repartition(ncpu).materialize()
            edges = tpch_edges(self.dir).repartition(ncpu).materialize()
        with span("sinks.exports.write_hub"):
            ex.write_hub(nodes, edges, hub, num_buckets=NUM_BUCKETS)
        ops["publish"] = [time.perf_counter() - t0]
        writers = {
            "statistics": lambda: ex.write_statistics(
                nodes, edges, os.path.join(out, "statistics.json")),
            "csv": lambda: (ex.write_csv_export(nodes, os.path.join(out, "kg_nodes.csv")),
                            ex.write_csv_export(edges, os.path.join(out, "kg_edges.csv"))),
            "jsonl": lambda: (ex.write_jsonl_export(nodes, os.path.join(out, "kg_nodes.jsonl")),
                              ex.write_jsonl_export(edges, os.path.join(out, "kg_edges.jsonl"))),
            "graphml": lambda: ex.write_graphml(nodes, edges, os.path.join(out, "kg.graphml")),
            "metta1": lambda: ex.write_metta_repr1(nodes, edges, os.path.join(out, "kg_repr1.metta")),
            "metta2": lambda: ex.write_metta_repr2(nodes, edges, os.path.join(out, "kg_repr2.metta")),
            "metta3": lambda: ex.write_metta_repr3(nodes, edges, os.path.join(out, "kg_repr3.metta")),
            "sql": lambda: ex.write_sql_dump(nodes, edges, os.path.join(out, "kg.sql")),
        }
        for fmt, write in writers.items():
            s = time.perf_counter()
            with span(f"sinks.exports.{fmt}"):
                write()
            ops[fmt] = [time.perf_counter() - s]
        k = self.p["lookups_per_pass"]
        ids = self.lookup_ids[i * k:(i + 1) * k]
        answers, lat = [], []
        s_look = time.perf_counter()
        with span("sinks.exports.read_adjacency"):
            for nid in ids:
                s = time.perf_counter()
                rows = ex.read_adjacency(hub, nid, num_buckets=NUM_BUCKETS).take_all()
                lat.append(time.perf_counter() - s)
                answers.append(rows)
        ops["lookup"] = lat
        t1 = time.perf_counter()
        return {"wall": t1 - t0, "ops": ops, "unit": lat, "out": out,
                "lookups": list(zip(ids, answers)), "lookup_window": (s_look, t1)}

    def check(self, records):
        attempted, failed, why = 0, 0, []

        def verdict(ok: bool, what: str) -> None:
            nonlocal attempted, failed
            attempted += 1
            if not ok:
                failed += 1
                why.append(what)

        cols = ["source_id", "target_id", "type", "properties"]
        for i, r in enumerate(records):
            hub = os.path.join(r["out"], "hub")
            hub_nodes = pads.dataset(os.path.join(hub, "nodes"), partitioning="hive").count_rows()
            hub_edges = pads.dataset(os.path.join(hub, "edges"), partitioning="hive").to_table(
                columns=cols)
            verdict(hub_nodes == self.n_nodes and hub_edges.num_rows == self.n_edges,
                    f"pass {i} hub: {hub_nodes} nodes, {hub_edges.num_rows} edges")
            try:
                counts = checks.export_counts(r["out"], self.n_nodes)
            except Exception as e:  # unreadable file: every export fails
                counts = {f: (repr(e), None) for f in EXPORTS}
            for fmt in EXPORTS:
                verdict(counts[fmt] == (self.n_nodes, self.n_edges),
                        f"pass {i} {fmt}: {counts[fmt]} records, want "
                        f"{(self.n_nodes, self.n_edges)}")
            by_src = hub_edges.to_pandas().groupby("source_id")
            for j, (nid, rows) in enumerate(r["lookups"]):
                got = pd.DataFrame(rows, columns=cols)
                if self.inject_wrong and i == 0 and j == 0:
                    got = pd.DataFrame([["X", "Y", "Z", "{}"]], columns=cols)
                want = by_src.get_group(nid) if nid in by_src.groups else got.iloc[0:0]
                err = checks.same_answer(got.astype(str), want.astype(str))
                verdict(err is None, f"pass {i} lookup {nid}: {err}")
        return attempted, failed, why

    def trace_targets(self, tracer) -> None:
        super().trace_targets(tracer)
        tracer.wrap("stages.graph", "statistics_dict", span="stages.graph.statistics")

    def layers(self, tracer, traced, untraced) -> dict:
        from kgw_ray.sinks.exports import _bucket_of

        m = super().layers(tracer, traced, untraced)
        spans = tracer.span_totals(traced[0]["spans_from"])
        n = len(traced)
        m["pipelines.tpch_kg.build_s"] = spans["pipelines.tpch_kg.build"]["s"] / n
        m["sinks.exports.write_hub_s"] = spans["sinks.exports.write_hub"]["s"] / n
        for fmt in EXPORTS:
            m[f"sinks.exports.{fmt}_s"] = spans[f"sinks.exports.{fmt}"]["s"] / n
        m["stages.graph.statistics_s"] = spans["stages.graph.statistics"]["s"] / n
        m["sinks.exports.mb_out"] = _mean([
            _mb(r["out"]) - _mb(os.path.join(r["out"], "hub")) for r in traced])
        lookups = sum(len(r["lookups"]) for r in traced)
        execs = sum(tracer.executions_within(*r["lookup_window"]) for r in traced)
        m["sinks.exports.read_adjacency.executions_per_lookup"] = execs / lookups
        useful = scanned = 0
        for r in traced:
            for nid, rows in r["lookups"]:
                b = int(_bucket_of(pa.array([nid]), NUM_BUCKETS)[0])
                d = os.path.join(r["out"], "hub", "edges", f"bucket={b}")
                if os.path.isdir(d):
                    scanned += sum(pq.read_metadata(os.path.join(d, f)).num_rows
                                   for f in os.listdir(d))
                useful += len(rows)
        m["sinks.exports.read_adjacency.rows_per_row_scanned"] = useful / max(1, scanned)
        return m


WORKLOADS = {w.name: w for w in (WebkgBuild, QueryMix, HubServe)}
