"""TPC-H-star → unified property graph (a kgw "project adapter" analog).

The reference unifies each source dataset into the nodes/edges IR with
per-table projection maps (e.g. kgw/biomedicine/_hetionet.py:104-155,
_monarchkg.py:118-186). This adapter does the same for the synthetic
relational star schema: every entity table becomes typed nodes, every foreign
key becomes typed edges; lineitem contributes parallel (multigraph) edges.

All property JSON is built by vectorized Arrow string concatenation so the
DuckDB oracles can reproduce it byte-identically (`'{"name":"' || c_name ...`).

Node id scheme: ``<Prefix><key>`` — C=customer, N=nation, R=region,
S=supplier, P=part, O=order.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from kgw_ray.sources.readers import read_table, scan_parquet


def _s(col: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray:
    return pc.cast(col, pa.string())


def _concat(*parts) -> pa.ChunkedArray:
    return pc.binary_join_element_wise(*parts, "")


def _node_batch(ids, typ: str, props) -> pa.Table:
    n = len(ids)
    return pa.table(
        {
            "id": ids,
            "type": pa.array([typ] * n, pa.string()),
            "properties": props,
        }
    )


def tpch_nodes(sf_dir: str) -> rd.Dataset:
    """All node rows of the TPC-H graph (id, type, properties)."""

    def cust(b: pa.Table) -> pa.Table:
        ids = _concat("C", _s(b["c_custkey"]))
        props = _concat(
            '{"name":"', b["c_name"], '","mktsegment":"', b["c_mktsegment"], '"}'
        )
        return _node_batch(ids, "customer", props)

    def nat(b: pa.Table) -> pa.Table:
        ids = _concat("N", _s(b["n_nationkey"]))
        props = _concat('{"name":"', b["n_name"], '"}')
        return _node_batch(ids, "nation", props)

    def reg(b: pa.Table) -> pa.Table:
        ids = _concat("R", _s(b["r_regionkey"]))
        props = _concat('{"name":"', b["r_name"], '"}')
        return _node_batch(ids, "region", props)

    def supp(b: pa.Table) -> pa.Table:
        ids = _concat("S", _s(b["s_suppkey"]))
        props = _concat('{"name":"', b["s_name"], '"}')
        return _node_batch(ids, "supplier", props)

    def prt(b: pa.Table) -> pa.Table:
        ids = _concat("P", _s(b["p_partkey"]))
        props = _concat(
            '{"name":"', b["p_name"], '","brand":"', b["p_brand"],
            '","size":', _s(b["p_size"]), "}",
        )
        return _node_batch(ids, "part", props)

    def order(b: pa.Table) -> pa.Table:
        ids = _concat("O", _s(b["o_orderkey"]))
        props = _concat(
            '{"status":"', b["o_orderstatus"], '","priority":"',
            b["o_orderpriority"], '"}',
        )
        return _node_batch(ids, "order", props)

    parts = [
        read_table(sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"]).map_batches(cust, batch_format="pyarrow"),
        read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"]).map_batches(nat, batch_format="pyarrow"),
        read_table(sf_dir, "region", columns=["r_regionkey", "r_name"]).map_batches(reg, batch_format="pyarrow"),
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_name"]).map_batches(supp, batch_format="pyarrow"),
        read_table(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand", "p_size"]).map_batches(prt, batch_format="pyarrow"),
        read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus", "o_orderpriority"]).map_batches(order, batch_format="pyarrow"),
    ]
    return parts[0].union(*parts[1:])


def _edge_batch(src, tgt, typ: str, props) -> pa.Table:
    n = len(src)
    if isinstance(props, str):
        props = pa.array([props] * n, pa.string())
    return pa.table(
        {
            "source_id": src,
            "target_id": tgt,
            "type": pa.array([typ] * n, pa.string()),
            "properties": props,
        }
    )


def tpch_edges(sf_dir: str) -> rd.Dataset:
    """All edge rows (source_id, target_id, type, properties); lineitem yields
    parallel order→part edges (directed multigraph, reference load.py:474)."""

    def cust(b: pa.Table) -> pa.Table:
        return _edge_batch(
            _concat("C", _s(b["c_custkey"])), _concat("N", _s(b["c_nationkey"])),
            "located_in", "{}",
        )

    def supp(b: pa.Table) -> pa.Table:
        return _edge_batch(
            _concat("S", _s(b["s_suppkey"])), _concat("N", _s(b["s_nationkey"])),
            "located_in", "{}",
        )

    def nat(b: pa.Table) -> pa.Table:
        return _edge_batch(
            _concat("N", _s(b["n_nationkey"])), _concat("R", _s(b["n_regionkey"])),
            "part_of", "{}",
        )

    def order(b: pa.Table) -> pa.Table:
        return _edge_batch(
            _concat("O", _s(b["o_orderkey"])), _concat("C", _s(b["o_custkey"])),
            "placed_by", "{}",
        )

    def line(b: pa.Table) -> pa.Table:
        props = _concat(
            '{"linenumber":', _s(b["l_linenumber"]), ',"suppkey":', _s(b["l_suppkey"]), "}"
        )
        return _edge_batch(
            _concat("O", _s(b["l_orderkey"])), _concat("P", _s(b["l_partkey"])),
            "contains", props,
        )

    parts = [
        read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]).map_batches(cust, batch_format="pyarrow"),
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]).map_batches(supp, batch_format="pyarrow"),
        read_table(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"]).map_batches(nat, batch_format="pyarrow"),
        read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(order, batch_format="pyarrow"),
        read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey", "l_linenumber", "l_suppkey"]).map_batches(line, batch_format="pyarrow"),
    ]
    return parts[0].union(*parts[1:])


_GRAPH_CACHE: dict = {}

# source tables the graph derives from — the hub staleness digest covers
# exactly these (a changed input must rebuild, an unrelated table must not)
_HUB_SOURCES = (
    "customer", "nation", "region", "supplier", "part", "orders", "lineitem",
)


def _hub_digest(sf_dir: str) -> str:
    """Content identity of the hub's inputs: (table, size, mtime_ns) of
    every source parquet. Cheap (stat only) and sufficient — the synthetic
    tables are written once per sf dir."""
    import hashlib
    import os

    h = hashlib.md5()
    for t in _HUB_SOURCES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        try:
            st = os.stat(p)
            h.update(f"{t}:{st.st_size}:{st.st_mtime_ns};".encode())
        except FileNotFoundError:  # partial fixture dirs hash distinctly
            h.update(f"{t}:absent;".encode())
    return h.hexdigest()[:16]


def hub_path_for(sf_dir: str) -> str:
    """Deterministic on-disk hub location for an input dir. The input
    digest is part of the PATH, so staleness checks and replace races
    disappear: different inputs → different hub directories. Override the
    root with ``KGW_RAY_HUB_DIR`` (on a cluster: a shared filesystem /
    object-store prefix, like the reference's per-project kg.sqlite path,
    kgw/_shared/tasks.py:144-149)."""
    import os
    import tempfile

    root = os.environ.get(
        "KGW_RAY_HUB_DIR", os.path.join(tempfile.gettempdir(), "kgw_ray_hub")
    )
    base = os.path.basename(os.path.abspath(sf_dir)) or "sf"
    return os.path.join(root, f"{base}-{_hub_digest(sf_dir)}")


def tpch_graph(sf_dir: str):
    """The graph hub: nodes+edges served from a WRITTEN Parquet hub, built
    at most once per input ACROSS processes.

    Mirrors the reference architecture where every export/analysis task
    reads the single kg.sqlite hub produced by the transform stage
    (kgw/_shared/tasks.py:144-149) instead of re-running the transform:

    - first process per input: build (union → repartition), materialize,
      write ``<hub>/nodes`` + ``<hub>/edges`` Parquet via write_hub, then
      publish atomically (tmpdir + rename; a concurrent winner's hub is
      used, ours discarded);
    - every later process: a ``scan_parquet`` of the hub — no
      re-derivation, which is the dominant kg_* fresh-process cost
      (~3.5s at sf0.1);
    - within a process: memoized materialized datasets (shuffle-heavy
      analytics over a lazy chain degrade badly — 35s vs 1.1s at sf0.01 —
      and the object-store pin lets every kg_* query share one copy).
    """
    import os
    import shutil

    key = os.path.abspath(sf_dir)
    if key in _GRAPH_CACHE:
        return _GRAPH_CACHE[key]

    import ray

    try:
        n = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover
        n = 8

    hub = hub_path_for(sf_dir)
    marker = os.path.join(hub, "_HUB_OK")
    if os.path.exists(marker):
        pair = (
            scan_parquet(os.path.join(hub, "nodes")).materialize(),
            scan_parquet(os.path.join(hub, "edges")).materialize(),
        )
    else:
        # coalesce to ~1 block per CPU at materialize time: the lazy union
        # yields hundreds of tiny blocks and every downstream groupby pays
        # per-block reduce overhead (measured: type histogram 6s → 0.5s at
        # sf0.1/32cpus with a 32-block hub)
        pair = (
            tpch_nodes(sf_dir).repartition(n).materialize(),
            tpch_edges(sf_dir).repartition(n).materialize(),
        )
        from kgw_ray.sinks.exports import write_hub

        tmp = f"{hub}.tmp{os.getpid()}"
        try:
            write_hub(pair[0], pair[1], tmp)
            with open(os.path.join(tmp, "_HUB_OK"), "w") as f:
                f.write(_hub_digest(sf_dir))
            os.makedirs(os.path.dirname(hub), exist_ok=True)
            try:
                os.rename(tmp, hub)
            except OSError:  # concurrent builder won the rename — fine
                shutil.rmtree(tmp, ignore_errors=True)
        except Exception:  # hub write is an optimization, never a failure
            shutil.rmtree(tmp, ignore_errors=True)

    _GRAPH_CACHE[key] = pair
    return pair


# --- Oracle CTEs reproducing the same graph in SQL (byte-identical) --------

NODES_SQL = """
SELECT 'C' || c_custkey AS id, 'customer' AS type,
       '{"name":"' || c_name || '","mktsegment":"' || c_mktsegment || '"}' AS properties
FROM customer
UNION ALL
SELECT 'N' || n_nationkey, 'nation', '{"name":"' || n_name || '"}' FROM nation
UNION ALL
SELECT 'R' || r_regionkey, 'region', '{"name":"' || r_name || '"}' FROM region
UNION ALL
SELECT 'S' || s_suppkey, 'supplier', '{"name":"' || s_name || '"}' FROM supplier
UNION ALL
SELECT 'P' || p_partkey, 'part',
       '{"name":"' || p_name || '","brand":"' || p_brand || '","size":' || p_size || '}'
FROM part
UNION ALL
SELECT 'O' || o_orderkey, 'order',
       '{"status":"' || o_orderstatus || '","priority":"' || o_orderpriority || '"}'
FROM orders
"""

EDGES_SQL = """
SELECT 'C' || c_custkey AS source_id, 'N' || c_nationkey AS target_id,
       'located_in' AS type, '{}' AS properties
FROM customer
UNION ALL
SELECT 'S' || s_suppkey, 'N' || s_nationkey, 'located_in', '{}' FROM supplier
UNION ALL
SELECT 'N' || n_nationkey, 'R' || n_regionkey, 'part_of', '{}' FROM nation
UNION ALL
SELECT 'O' || o_orderkey, 'C' || o_custkey, 'placed_by', '{}' FROM orders
UNION ALL
SELECT 'O' || l_orderkey, 'P' || l_partkey, 'contains',
       '{"linenumber":' || l_linenumber || ',"suppkey":' || l_suppkey || '}'
FROM lineitem
"""
