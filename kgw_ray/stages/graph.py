"""Graph analytics over the unified IR (SURVEY.md §2.4/§2.5 and the
reference's statistics/schema sinks, kgw/_shared/load.py:10-283).

All functions take (nodes, edges) Datasets with the IR schema
(id,type,properties)/(source_id,target_id,type,properties) — they work for
any adapter (web-KG, TPC-H graph, ...).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from kgw_ray.functions.arrow_utils import arrow_from_pandas
from kgw_ray.stages.agg import (
    _concat,
    _materialized,
    _per_block,
    as_dataset,
    default_shuffle_partitions,
    fold,
    order_by,
    pull,
    sharded_count,
    stacked,
)
from kgw_ray.stages.joins import large_join


def _count_by(ds: rd.Dataset, keys: list[str], alias: str = "n"):
    """COUNT(*) GROUP BY ``keys`` through the fold's per-block combiner."""
    return fold(ds, keys, [(None, "count", alias)], combine=True)


def type_histogram(ds: rd.Dataset) -> "pa.Table | rd.Dataset":
    """GROUP BY type / COUNT(*) / ORDER BY count DESC, type ASC
    (reference load.py:20-31,47-58).

    Per-block count combiner first: type columns have a handful of
    distinct values, so each block collapses to ≤|types| rows and the fold
    merges and orders them on the driver — the groupby+Sort exchange
    costs ~2 all-to-all latencies for a ten-row answer (measured:
    kg_statistics 7.1s → sub-second at sf0.1/32cpus). A materialized table
    is counted by block tasks on its refs: no Ray Data execution."""
    out = _count_by(ds, ["type"])
    return order_by(out, ["n", "type"], [True, False])


def graph_statistics(nodes: rd.Dataset, edges: rd.Dataset) -> pa.Table:
    """statistics.json content as one row (reference load.py:10-81):
    num_nodes, num_edges, num_node_types, num_edge_types."""
    from kgw_ray.functions.arrow_utils import typed_pandas

    nh = typed_pandas(type_histogram(nodes), ["type", "n"])
    eh = typed_pandas(type_histogram(edges), ["type", "n"])
    return pa.table(
        {
            "num_nodes": pa.array([int(nh["n"].sum())], pa.int64()),
            "num_edges": pa.array([int(eh["n"].sum())], pa.int64()),
            "num_node_types": pa.array([len(nh)], pa.int64()),
            "num_edge_types": pa.array([len(eh)], pa.int64()),
        }
    )


def statistics_dict(nodes: rd.Dataset, edges: rd.Dataset) -> dict:
    """Full statistics payload incl. per-type counts (load.py:69-76 shape)."""
    from kgw_ray.functions.arrow_utils import typed_pandas

    nh = typed_pandas(type_histogram(nodes), ["type", "n"])
    eh = typed_pandas(type_histogram(edges), ["type", "n"])
    # empty pulls drop their schema — reindex so the payload stays shaped
    for df in (nh, eh):
        if "type" not in df.columns:
            df["type"], df["n"] = [], []
    return {
        "num_nodes": int(nh["n"].sum()),
        "num_edges": int(eh["n"].sum()),
        "num_node_types": len(nh),
        "num_edge_types": len(eh),
        "node_types": dict(zip(nh["type"], nh["n"].astype(int))),
        "edge_types": dict(zip(eh["type"], eh["n"].astype(int))),
    }


# id→type maps up to this many nodes are broadcast instead of shuffle-joined
_BROADCAST_NODE_LIMIT = 5_000_000


def _collect_id_type(node_types: rd.Dataset) -> pa.Table:
    """(id, type) Dataset → one Arrow table for the broadcast."""
    return pa.concat_tables(
        [b for b in node_types.iter_batches(batch_format="pyarrow")]
        or [pa.table({"id": pa.array([], pa.string()), "type": pa.array([], pa.string())})]
    )


_TYPE_MAP_CACHE: dict = {}


def _type_map_for(ref) -> pd.Series:
    """Per-process id→type lookup built ONCE from the zero-copy Arrow
    broadcast (bounded 1-entry cache: a new ref evicts the old map)."""
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    hit = _TYPE_MAP_CACHE.get(key)
    if hit is None:
        import ray

        t = ray.get(ref)
        hit = pd.Series(
            t.column("type").to_pandas().to_numpy(),
            index=t.column("id").to_pandas().to_numpy(),
        )
        # Series.map(Series) raises InvalidIndexError on duplicate index
        # entries; dedup keep="last" restores the pre-pandas dict
        # semantics (last id wins) for multigraph/duplicated node inputs
        if not hit.index.is_unique:
            hit = hit[~hit.index.duplicated(keep="last")]
        _TYPE_MAP_CACHE.clear()
        _TYPE_MAP_CACHE[key] = hit
    return hit


def _typed_edges(nodes: rd.Dataset, edges: rd.Dataset, num_partitions) -> rd.Dataset:
    """edges ⋈ nodes(src) ⋈ nodes(tgt) → (source_type, edge_type, target_type).

    Hybrid join (the engine's size rule): the id→type projection is a
    two-column table — up to ~5M nodes it broadcasts once via ``ray.put``
    and both lookups happen map-side in ONE pass with zero shuffle; past
    that, two hash-partitioned shuffle joins keyed on node id (the
    reference's SQL join load.py:109-132 backed by B-tree indexes
    transform.py:27-28).
    """
    e = edges.select_columns(["source_id", "target_id", "type"]).rename_columns(
        {"type": "edge_type"}
    )
    # materialize the two-column projection ONCE: the size probe and the
    # chosen path must not execute the (possibly expensive) nodes pipeline
    # twice (same rule as joins.semi_join_dataset)
    node_types = nodes.select_columns(["id", "type"]).materialize()
    n_nodes = node_types.count()
    if n_nodes == 0:
        # no nodes → no typed edges; empty pulls drop their schema, so
        # return an explicitly-typed empty dataset
        return rd.from_arrow(
            pa.table(
                {
                    "source_type": pa.array([], pa.string()),
                    "edge_type": pa.array([], pa.string()),
                    "target_type": pa.array([], pa.string()),
                }
            )
        )
    if n_nodes <= _BROADCAST_NODE_LIMIT:
        import ray

        # broadcast the map as an ARROW table — Arrow buffers are the one
        # format plasma serves zero-copy (a python dict would fully unpickle
        # on every ray.get); each worker PROCESS builds its pandas lookup
        # Series once and caches it keyed by the object ref (the
        # per-process-singleton pattern, stages/extract.py)
        ref = ray.put(_collect_id_type(node_types))

        def add_types(df: pd.DataFrame) -> pa.Table:
            m = _type_map_for(ref)
            out = pd.DataFrame(
                {
                    "source_type": df["source_id"].map(m),
                    "edge_type": df["edge_type"],
                    "target_type": df["target_id"].map(m),
                }
            )
            out = out.dropna(subset=["source_type", "target_type"])
            return arrow_from_pandas(out)

        return e.map_batches(add_types, batch_format="pandas")

    src_t = node_types.rename_columns({"type": "source_type"})
    tgt_t = node_types.rename_columns({"type": "target_type"})
    j1 = large_join(
        e, src_t, on=("source_id",), right_on=("id",), num_partitions=num_partitions
    ).select_columns(["source_id", "target_id", "edge_type", "source_type"])
    j2 = large_join(
        j1, tgt_t, on=("target_id",), right_on=("id",), num_partitions=num_partitions
    )
    return j2.select_columns(["source_type", "edge_type", "target_type"])


def schema_graph(
    nodes: rd.Dataset, edges: rd.Dataset, *, num_partitions=None
) -> rd.Dataset:
    """Type-level schema: (source_type, edge_type, target_type, n) ordered by
    n DESC (reference load.py:109-132)."""
    t = _typed_edges(nodes, edges, num_partitions)
    out = _count_by(t, ["source_type", "edge_type", "target_type"])
    return order_by(
        out,
        ["n", "source_type", "edge_type", "target_type"],
        [True, False, False, False],
    )


def schema_graph_compact(
    nodes: rd.Dataset, edges: rd.Dataset, *, num_partitions=None
) -> rd.Dataset:
    """Compact schema: (source_type, target_type, n_edges, n_edge_types)
    (reference load.py:218-241). Exact distinct via two-level groupby —
    no in-memory distinct set."""
    t = _typed_edges(nodes, edges, num_partitions)
    per_triple = _count_by(t, ["source_type", "edge_type", "target_type"])
    # one row per triple: counting rows counts the distinct edge types
    out = fold(
        as_dataset(per_triple),
        ["source_type", "target_type"],
        [("n", "sum", "n_edges"), (None, "count", "n_edge_types")],
    )
    return order_by(
        out, ["n_edges", "source_type", "target_type"], [True, False, False]
    )


def neighborhood(edges: rd.Dataset, node_id: str) -> rd.Dataset:
    """1-hop subgraph: edges touching ``node_id`` plus edges among its
    neighbors (reference examples/downstream_analysis.ipynb cell 28).

    Two-phase, driver-bounded: pass 1 filters touching edges map-side and
    reduces them to a DISTINCT neighbor-id Dataset (a :func:`fold`,
    NULL ids included — never the raw 1-hop edge list, which is unbounded for a
    celebrity node); pass 2 keeps edges with both endpoints in that set via
    the size-hybrid ``semi_join_dataset`` (broadcast value-set for normal
    degrees, hash-partitioned left_semi past 5M neighbors).
    """
    from kgw_ray.stages.joins import semi_join_dataset

    def touching(batch: pa.Table) -> pa.Table:
        mask = pc.or_(
            pc.equal(batch["source_id"], node_id),
            pc.equal(batch["target_id"], node_id),
        )
        return batch.filter(mask)

    touch = edges.map_batches(touching, batch_format="pyarrow")
    # materialized ONCE: both semi joins probe this key set
    nbr_ids = (
        as_dataset(fold(
            touch.map_batches(stacked("source_id", "target_id"), batch_format="pyarrow"),
            "id",
            [(None, "count", "_n")],
            combine=True,
        ))
        .drop_columns(["_n"])
        .materialize()
    )
    # unknown/isolated node → empty key set → semi_join_dataset returns
    # edges.limit(0), preserving the edge schema
    return semi_join_dataset(
        semi_join_dataset(edges, nbr_ids, on="source_id", key_col="id"),
        nbr_ids,
        on="target_id",
        key_col="id",
    )


def triple_dedup(
    edges: rd.Dataset, *, n_shards: int | None = None
) -> "pa.Table | rd.Dataset":
    """Exact (source_id, type, target_id) dedup with multiplicity count
    (reference _oregano.py:235-237 drops repeats; we also keep n).

    Sharded-coarse plan: triple keys are nearly unique (multigraph edges),
    so a per-batch combiner is useless AND a native sort-based aggregate
    pays a full 3-string-column sort of the table (measured 7.8s at
    sf0.1/32cpus). Instead each triple hashes deterministically to one of
    ``n_shards`` int shards, ONE shuffle groups by the cheap int key, and
    a vectorized pandas groupby counts exactly within each shard (1.5s —
    the simhash/lsh blocking pattern). The hash only PARTITIONS; grouping
    keys stay the full triple, so results are exact. ``n_shards`` bounds
    per-shard memory to ~|edges|/n_shards — scale it with the corpus
    (default 4×CPUs)."""
    return sharded_count(
        edges.select_columns(["source_id", "type", "target_id"]),
        ["source_id", "type", "target_id"],
        count_name="n",
        n_shards=n_shards,
    )


def pagerank(
    nodes: rd.Dataset,
    edges: rd.Dataset,
    *,
    iters: int = 3,
    damping: float = 0.85,
    num_partitions: int | None = None,
    force_exchange: bool = False,
) -> rd.Dataset:
    """Distributed fixed-point PageRank (simplified: no dangling-mass
    redistribution): ``iters`` synchronous power iterations of
    ``r(v) = (1-d) + d * Σ_{(u,v)∈E} r(u)/outdeg(u)`` from ``r0 = 1``,
    carried in integer MICRO-units (1.0 → 1_000_000) with floor division —
    every engine reproduces the arithmetic bit-for-bit, so the result is
    hash-stable (a float formulation rounds differently across engines
    exactly at the decimal boundaries PageRank's short-fraction sums love
    to land on — measured 26/18630 mismatches at 4 dp).

    Physical plan, driver branch (≤20M edges by the edge table's block
    metadata, unless ``force_exchange``): block tasks pull the
    ``source_id``/``target_id`` columns by reference, out-degrees and the
    iterations are pandas group-bys on the driver, and the only Ray Data
    execution is the consumer's: the node set broadcast-joined with the
    driver rank table. Exchange branch: out-degrees via the sharded exact
    count; edge weights ``d/outdeg`` attached with ONE size-hybrid join
    and reused every iteration. Per iteration: one LEFT join (edge
    weights ⋈ current ranks on source_id — a source absent from the rank
    table has no in-edges, so its rank is the base (1-d), supplied on
    null) and one grouped Sum per target_id (stages/agg.py:fold,
    ``combine=True``).
    Joins follow the repo-wide size-hybrid rule (stages/joins.py): the
    rank/degree side broadcasts via ``ray.put`` below ``broadcast_limit``
    rows and falls back to the hash-partitioned ``Dataset.join`` beyond —
    the broadcast path also sidesteps the empty-hash-partition schema-loss
    hazard on small graphs. The rank table carries ONLY nodes with
    in-edges between iterations; the full node set joins back exactly once
    at the end. Iteration 0 skips the rank join entirely (r0 ≡ 1 ⇒
    contribution = w).

    Output: ``(id, pagerank_micro: int64)`` — divide by 1e6 for the float
    value (quantization error ≤ iters·in-degree micro). Overflow ceiling:
    ``rank_micro · damp_micro`` must fit int64, i.e. rank values up to
    ~1e7 (a 1e9-node all-pointing-at-one star); beyond that, shift to a
    smaller SCALE.
    """
    import numpy as np
    import pyarrow.compute as pc

    from kgw_ray.stages.joins import broadcast_join

    if nodes.count() == 0:  # empty graph: typed empty rank table
        return rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([], pa.string()),
                    "pagerank_micro": pa.array([], pa.int64()),
                }
            )
        )

    SCALE = 1_000_000
    damp_micro = round(damping * SCALE)
    base_micro = SCALE - damp_micro
    broadcast_limit = 5_000_000

    def _hybrid_left(left_ds, right_mat, *, on, right_key, how):
        # right_mat is a driver table or materialized: the count is free
        n = right_mat.num_rows if isinstance(right_mat, pa.Table) else right_mat.count()
        if n <= broadcast_limit:
            return broadcast_join(left_ds, right_mat, on=[on], right_on=[right_key], how=how
            )
        return large_join(
            left_ds,
            right_mat,
            on=(on,),
            right_on=(right_key,),
            how="inner" if how == "inner" else "left_outer",
            num_partitions=num_partitions,
        )

    edges, refs, rows, _ = _materialized(edges)
    if sum(rows) == 0:
        # no edges → every node sits at the base rank
        return nodes.select_columns(["id"]).map_batches(
            lambda b: pa.table(
                {
                    "id": b.column("id"),
                    "pagerank_micro": pa.array(
                        np.full(len(b), base_micro, dtype=np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        )

    def _rank_micro(batch: pa.Table) -> "np.ndarray":
        # a missing/null rank means the source had no in-edges: rank = base
        # (the hash-join path can drop the right schema on empty partitions;
        # the pandas broadcast merge yields float NaN for misses — int64
        # micro values < 2^53 survive the float trip exactly)
        if "rank" not in batch.column_names:
            return np.full(len(batch), base_micro, dtype=np.int64)
        r = (
            pc.cast(pc.fill_null(batch.column("rank"), base_micro), pa.float64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64, copy=True)
        )
        r[np.isnan(r)] = base_micro
        return r.astype(np.int64)

    def _contrib_partials(batch: pa.Table, with_rank: bool) -> pa.Table:
        t = batch.column("target_id").to_numpy(zero_copy_only=False)
        d = batch.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
        rank = _rank_micro(batch) if with_rank else np.int64(SCALE)
        c = (rank * np.int64(damp_micro)) // (np.int64(SCALE) * d)
        return pa.table({"target_id": pa.array(t, pa.string()), "c": pa.array(c)})

    # driver branch: an edge table of ≤20M rows (by its block metadata; the
    # envelope the rank broadcast needs anyway) has its endpoints pulled
    # ONCE by block tasks, and the out-degrees and every iteration are
    # driver group-bys over them (the same integer arithmetic as
    # ``_contrib_partials``) — no Ray Data execution before the final
    # join. The exchange loop below remains the at-scale path and is
    # parity-pinned by ``force_exchange``.
    if not force_exchange and sum(rows) <= 20_000_000:
        e = _concat(
            ray.get(_per_block(lambda t, _s: t.select(["source_id", "target_id"]), refs))
        ).to_pandas()
        src, tgt = e["source_id"], e["target_id"].to_numpy()
        d = src.groupby(src, sort=False, dropna=False).transform("size")
        d = d.to_numpy().astype(np.int64)
        rank = np.full(len(e), SCALE, dtype=np.int64)  # r0 ≡ SCALE
        for _ in range(iters):
            c = (rank * np.int64(damp_micro)) // (np.int64(SCALE) * d)
            g = pd.Series(c).groupby(tgt, sort=False).sum() + base_micro
            # a source with no in-edges has no row: its rank is the base
            rank = src.map(g).fillna(base_micro).to_numpy().astype(np.int64)
        ranks = pa.table(
            {
                "id": pa.array(g.index.to_numpy(), pa.string()),
                "rank": pa.array(g.to_numpy().astype(np.int64)),
            }
        )
    else:
        deg = sharded_count(edges, ["source_id"], count_name="deg")
        ew = _hybrid_left(
            edges.select_columns(["source_id", "target_id"]),
            deg,
            on="source_id",
            right_key="source_id",
            how="inner",
        )

        def project(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "source_id": batch.column("source_id"),
                    "target_id": batch.column("target_id"),
                    "d": pc.cast(batch.column("deg"), pa.int64()),
                }
            )

        ew = ew.map_batches(project, batch_format="pyarrow").materialize()
        ranks = None  # logical r0 ≡ SCALE for every node
        for _ in range(iters):
            if ranks is None:
                contrib = ew.map_batches(
                    lambda b: _contrib_partials(b, with_rank=False),
                    batch_format="pyarrow",
                )
            else:
                joined = _hybrid_left(
                    ew, ranks, on="source_id", right_key="id", how="left"
                )
                contrib = joined.map_batches(
                    lambda b: _contrib_partials(b, with_rank=True),
                    batch_format="pyarrow",
                )
            sums = fold(
                contrib,
                "target_id",
                [("c", "sum", "c")],
                combine=True,
                driver_limit=0 if force_exchange else None,
            )
            ranks = as_dataset(sums).map_batches(
                lambda t: pa.table(
                    {
                        "id": t.column("target_id"),
                        "rank": pc.add(
                            pa.scalar(base_micro, pa.int64()),
                            pc.cast(t.column("c"), pa.int64()),
                        ),
                    }
                ),
                batch_format="pyarrow",
            ).materialize()

    out = _hybrid_left(
        nodes.select_columns(["id"]), ranks, on="id", right_key="id", how="left"
    )

    def final(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": batch.column("id"),
                "pagerank_micro": pa.array(_rank_micro(batch)),
            }
        )

    return out.map_batches(final, batch_format="pyarrow")


def pagerank_sql(
    nodes_sql: str,
    edges_sql: str,
    *,
    iters: int = 3,
    damping: float = 0.85,
) -> str:
    """DuckDB oracle for ``pagerank``: the same fixed-point micro-unit
    iteration unrolled into one CTE per step — pure BIGINT arithmetic with
    the identical floor division, so the hash comparison is exact (no
    float rounding mode to disagree on)."""
    SCALE = 1_000_000
    dm = round(damping * SCALE)
    bm = SCALE - dm
    ctes = [
        f"nodes AS (SELECT id FROM ({nodes_sql}))",
        f"edges AS (SELECT source_id, target_id FROM ({edges_sql}))",
        "deg AS (SELECT source_id, count(*) AS d FROM edges GROUP BY source_id)",
        "ew AS (SELECT e.source_id, e.target_id, deg.d\n"
        "       FROM edges e JOIN deg ON e.source_id = deg.source_id)",
        # SCALE*dm precomputed: DuckDB int literals are INT32 and the
        # in-query product overflows them
        f"r1 AS (SELECT target_id AS id,\n"
        f"         CAST({bm} + sum({SCALE * dm} // (CAST({SCALE} AS BIGINT) * d)) AS BIGINT) AS rank\n"
        "       FROM ew GROUP BY target_id)",
    ]
    for t in range(2, iters + 1):
        ctes.append(
            f"r{t} AS (SELECT ew.target_id AS id,\n"
            f"         CAST({bm} + sum((COALESCE(p.rank, {bm}) * CAST({dm} AS BIGINT)) // (CAST({SCALE} AS BIGINT) * ew.d)) AS BIGINT) AS rank\n"
            f"       FROM ew LEFT JOIN r{t - 1} p ON ew.source_id = p.id\n"
            "       GROUP BY ew.target_id)"
        )
    return (
        "WITH " + ",\n".join(ctes) + "\n"
        f"SELECT n.id, COALESCE(r.rank, {bm}) AS pagerank_micro\n"
        f"FROM nodes n LEFT JOIN r{iters} r ON n.id = r.id"
    )


def personalized_pagerank(
    nodes: rd.Dataset,
    edges: rd.Dataset,
    seed_ids,
    *,
    iters: int = 3,
    damping: float = 0.85,
    num_partitions: int | None = None,
    force_exchange: bool = False,
) -> rd.Dataset:
    """Personalized PageRank (random walk with restart): teleport mass
    returns ONLY to the ``seed_ids`` set, so scores measure proximity to
    the seeds rather than global centrality —

        r0(v)  = SCALE * 1[v in S]
        rt(v)  = (1-d)*SCALE * 1[v in S] + d * sum_{(u,v)} r(u)/outdeg(u)

    carried in the same integer micro-units / floor-division arithmetic as
    ``pagerank`` (hash-stable across engines; all intermediate values are
    non-negative, so numpy floor and SQL truncating ``//`` agree).

    Physical plan per iteration: one size-hybrid join of the reusable
    edge-weight table against the current rank table (iteration 0 instead
    filters the edge table to seed sources — r0 is zero elsewhere) and
    one grouped Sum (stages/agg.py:fold, ``combine=True``) that
    driver-merges when the combined partials are bounded. The rank table
    carries only reached nodes; seed base rows are re-appended each step
    from the seed list (query-time seed sets are small — they broadcast by
    closure and the append is O(|S|))."""
    import numpy as np
    import pyarrow.compute as pc

    from kgw_ray.stages.joins import broadcast_join

    SCALE = 1_000_000
    dm = round(damping * SCALE)
    bm = SCALE - dm
    seeds = sorted(set(seed_ids))
    seed_arr = pa.array(seeds, pa.string())
    broadcast_limit = 5_000_000
    if nodes.count() == 0:  # empty graph: typed empty rank table
        return rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([], pa.string()),
                    "ppr_micro": pa.array([], pa.int64()),
                }
            )
        )

    def _hybrid_left(left_ds, right_mat, *, on, right_key):
        if right_mat.count() <= broadcast_limit:
            return broadcast_join(left_ds, right_mat, on=[on], right_on=[right_key], how="left"
            )
        return large_join(
            left_ds,
            right_mat,
            on=(on,),
            right_on=(right_key,),
            how="left_outer",
            num_partitions=num_partitions,
        )

    deg = as_dataset(
        sharded_count(edges, ["source_id"], count_name="deg")
    )
    ew = _hybrid_left(
        edges.select_columns(["source_id", "target_id"]),
        deg,
        on="source_id",
        right_key="source_id",
    )
    ew = ew.map_batches(
        lambda b: pa.table(
            {
                "source_id": b.column("source_id"),
                "target_id": b.column("target_id"),
                "d": pc.cast(b.column("deg"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def _contrib(t_ids, c) -> pa.Table:
        return pa.table(
            {"target_id": pa.array(t_ids, pa.string()), "c": pa.array(c, pa.int64())}
        )

    def _first_partial(batch: pa.Table) -> pa.Table:
        # r0 = SCALE on seeds only: contribution dm // d from seed sources
        keep = pc.is_in(batch.column("source_id"), value_set=seed_arr)
        b = batch.filter(keep)
        d = b.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
        return _contrib(
            b.column("target_id").to_numpy(zero_copy_only=False), np.int64(dm) // d
        )

    def _rank_partial(batch: pa.Table) -> pa.Table:
        # missing rank (no row in the rank table) means rank 0 — seeds are
        # always present (base rows re-appended each iteration)
        if "rank" not in batch.column_names:
            return pa.table(
                {"target_id": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        r = (
            pc.cast(pc.fill_null(batch.column("rank"), 0), pa.float64())
            .to_numpy(zero_copy_only=False)
            .astype(np.float64, copy=True)
        )
        r[np.isnan(r)] = 0  # pandas-merge miss (int64 micro < 2^53: exact)
        r = r.astype(np.int64)
        d = batch.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
        return _contrib(
            batch.column("target_id").to_numpy(zero_copy_only=False),
            (r * np.int64(dm)) // (np.int64(SCALE) * d),
        )

    # driver-merge fast path (the ``pagerank`` lesson, measured there at
    # 11.5s → ~2s for 3 iterations at sf0.1/32): when the edge-weight table
    # is small enough that the rank side broadcasts in the join anyway, an
    # iteration costs ZERO exchanges — one broadcast-join map + one small
    # pull. The exchange loop below stays the at-scale path (parity-pinned
    # by tests/test_webkg.py).
    ew_count = ew.count()
    use_driver = (not force_exchange) and ew_count <= 20_000_000
    seed_set = set(seeds)

    def _base_applied_pdf(g: "pd.Series") -> pd.DataFrame:
        # rank = contribution + base on seeds; unreached seeds re-appended
        ids = list(g.index)
        vals = [int(v) + (bm if i in seed_set else 0) for i, v in g.items()]
        for s in seeds:
            if s not in g.index:
                ids.append(s)
                vals.append(bm)
        return pd.DataFrame({"id": ids, "rank": np.asarray(vals, np.int64)})

    ranks: rd.Dataset | None = None
    rank_pdf = None
    for t in range(iters):
        if t == 0:
            contrib = ew.map_batches(_first_partial, batch_format="pyarrow")
        elif use_driver:
            joined = broadcast_join(ew, rank_pdf, on=["source_id"], right_on=["id"], how="left")
            contrib = joined.map_batches(_rank_partial, batch_format="pyarrow")
        else:
            joined = _hybrid_left(ew, ranks, on="source_id", right_key="id")
            contrib = joined.map_batches(_rank_partial, batch_format="pyarrow")

        sums = fold(contrib, "target_id", [("c", "sum", "c")], combine=True)
        if use_driver:
            s = sums.to_pandas()
            rank_pdf = _base_applied_pdf(
                pd.Series(s["c"].to_numpy(), index=s["target_id"].to_numpy())
            )
            continue
        sums = as_dataset(sums).materialize()

        def _add_base(tbl: pa.Table) -> pa.Table:
            base = pc.if_else(
                pc.is_in(tbl.column("target_id"), value_set=seed_arr),
                pa.scalar(bm, pa.int64()),
                pa.scalar(0, pa.int64()),
            )
            return pa.table(
                {
                    "id": tbl.column("target_id"),
                    "rank": pc.add(pc.cast(tbl.column("c"), pa.int64()), base),
                }
            )

        ranks = sums.map_batches(_add_base, batch_format="pyarrow")
        # seeds with no in-contribution still hold their base mass: the
        # reached-seed pull is bounded by |S|
        reached = sums.map_batches(
            lambda tbl: tbl.filter(
                pc.is_in(tbl.column("target_id"), value_set=seed_arr)
            ).select(["target_id"]),
            batch_format="pyarrow",
        ).to_pandas()
        got = set() if len(reached) == 0 else set(reached["target_id"])
        missing = [s for s in seeds if s not in got]
        if missing:
            ranks = ranks.union(
                rd.from_arrow(
                    pa.table(
                        {
                            "id": pa.array(missing, pa.string()),
                            "rank": pa.array([bm] * len(missing), pa.int64()),
                        }
                    )
                )
            )
        ranks = ranks.materialize()

    if use_driver:
        ranks = rd.from_arrow(
            pa.table(
                {
                    "id": pa.array(rank_pdf["id"].to_numpy(), pa.string()),
                    "rank": pa.array(rank_pdf["rank"].to_numpy(), pa.int64()),
                }
            )
        ).materialize()

    out = _hybrid_left(nodes.select_columns(["id"]), ranks, on="id", right_key="id")

    def _final(batch: pa.Table) -> pa.Table:
        import numpy as _np

        if "rank" not in batch.column_names:
            r = _np.zeros(len(batch), dtype=_np.int64)
        else:
            r = (
                pc.cast(pc.fill_null(batch.column("rank"), 0), pa.float64())
                .to_numpy(zero_copy_only=False)
                .astype(_np.float64, copy=True)
            )
            r[_np.isnan(r)] = 0
            r = r.astype(_np.int64)
        return pa.table({"id": batch.column("id"), "ppr_micro": pa.array(r)})

    return out.map_batches(_final, batch_format="pyarrow")


def personalized_pagerank_sql(
    nodes_sql: str,
    edges_sql: str,
    seed_pred: str,
    *,
    iters: int = 3,
    damping: float = 0.85,
) -> str:
    """DuckDB oracle for ``personalized_pagerank``: the same micro-unit
    restart iteration unrolled — pure BIGINT, truncating ``//`` on
    non-negative values == numpy floor, so hash equality is exact.
    ``seed_pred`` is a boolean SQL predicate over the nodes CTE columns.
    Multiply-referenced CTEs are pinned AS MATERIALIZED (DuckDB inlines
    plain CTEs per reference — unrolled iterations explode otherwise)."""
    SCALE = 1_000_000
    dm = round(damping * SCALE)
    bm = SCALE - dm
    ctes = [
        f"nodes AS MATERIALIZED (SELECT * FROM ({nodes_sql}))",
        f"edges AS (SELECT source_id, target_id FROM ({edges_sql}))",
        f"seeds AS MATERIALIZED (SELECT id FROM nodes WHERE {seed_pred})",
        "deg AS (SELECT source_id, count(*) AS d FROM edges GROUP BY source_id)",
        "ew AS MATERIALIZED (SELECT e.source_id, e.target_id, deg.d\n"
        "     FROM edges e JOIN deg ON e.source_id = deg.source_id)",
        f"c1 AS (SELECT target_id AS id, CAST(SUM({dm} // d) AS BIGINT) AS c\n"
        "       FROM ew JOIN seeds s ON ew.source_id = s.id GROUP BY target_id)",
        f"r1 AS MATERIALIZED (SELECT COALESCE(c.id, s.id) AS id,\n"
        f"       CAST(COALESCE(c.c, 0) + CASE WHEN s.id IS NOT NULL THEN {bm} ELSE 0 END AS BIGINT) AS rank\n"
        "       FROM c1 c FULL OUTER JOIN seeds s ON c.id = s.id)",
    ]
    for t in range(2, iters + 1):
        ctes.append(
            f"c{t} AS (SELECT ew.target_id AS id,\n"
            f"       CAST(SUM((p.rank * CAST({dm} AS BIGINT)) // (CAST({SCALE} AS BIGINT) * ew.d)) AS BIGINT) AS c\n"
            f"       FROM ew JOIN r{t - 1} p ON ew.source_id = p.id GROUP BY ew.target_id)"
        )
        ctes.append(
            f"r{t} AS MATERIALIZED (SELECT COALESCE(c.id, s.id) AS id,\n"
            f"       CAST(COALESCE(c.c, 0) + CASE WHEN s.id IS NOT NULL THEN {bm} ELSE 0 END AS BIGINT) AS rank\n"
            f"       FROM c{t} c FULL OUTER JOIN seeds s ON c.id = s.id)"
        )
    return (
        "WITH " + ",\n".join(ctes) + "\n"
        "SELECT n.id, CAST(COALESCE(r.rank, 0) AS BIGINT) AS ppr_micro\n"
        f"FROM nodes n LEFT JOIN r{iters} r ON n.id = r.id"
    )


def degree_distribution(edges: rd.Dataset) -> "pa.Table | rd.Dataset":
    """Out-degree histogram: two-level aggregation (per-node degree →
    per-degree node count). Level 1 is the exact per-source count
    (``sharded_count``); level 2 counts the degree column as the fold's
    finalize — the whole histogram on the driver when the degree table is
    driver-sized (on a materialized edge table: block tasks, no Ray Data
    execution). On the exchange branch that finalize yields per-block
    partial counts, which a second fold merges."""

    def level2(t: pa.Table) -> pa.Table:
        g = t.group_by("degree", use_threads=False).aggregate([([], "count_all")])
        return g.select(["degree", "count_all"]).rename_columns(["degree", "n_nodes"])

    hist = fold(
        edges,
        ["source_id"],
        [(None, "count", "degree")],
        combine=True,
        finalize=level2,
        batch_format="pyarrow",
        n_shards=4 * default_shuffle_partitions(),
    )
    if not isinstance(hist, pa.Table):
        hist = fold(hist, "degree", [("n_nodes", "sum", "n_nodes")])
    return order_by(hist, ["degree"], [False])


_TRI_SEP = "\x1f"  # wedge/edge pack separator (cannot appear in tokens)


def _distinct_undirected_pairs(edges: rd.Dataset, src: str, dst: str) -> rd.Dataset:
    """Distinct undirected simple-graph pairs (a < b lexicographic, the
    DuckDB least/greatest order — byte order == codepoint order in UTF-8),
    self-loops dropped; a count fold whose count is dropped."""

    def _pairs(batch: pa.Table) -> pa.Table:
        a, b = batch.column(src), batch.column(dst)
        t = pa.table({"a": pc.min_element_wise(a, b), "b": pc.max_element_wise(a, b)})
        return t.filter(pc.not_equal(a, b))

    return as_dataset(fold(
        edges.map_batches(_pairs, batch_format="pyarrow"),
        ["a", "b"],
        [(None, "count", "n")],
        combine=True,
    )).select_columns(["a", "b"])


def triangle_counts(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    num_shards: int = 64,
    broadcast_limit: int = 5_000_000,
    _clustering: bool = False,
) -> rd.Dataset:
    """Per-node triangle participation over the UNDIRECTED simple graph of
    ``edges`` (direction/type/multiplicity collapsed, self-loops dropped)
    → (id, n_triangles); with ``_clustering`` (use
    ``clustering_coefficients``) every node joins its degree and integer
    local clustering coefficient.

    Degree-ordered wedge counting (Suri & Vassilvitskii's MapReduce
    formulation — public): orient every distinct edge from its
    (degree, id)-smaller endpoint to the larger, enumerate ordered
    out-neighbor pairs per pivot (Σ d_out² is O(m^1.5) under this
    orientation — celebrity nodes cannot explode the wedge pass), close
    wedges with a size-hybrid semi join against the packed oriented edge
    set. Each triangle closes at exactly one pivot (its smallest vertex
    under the total order). Wedge enumeration is sharded-coarse:
    hash(pivot) % num_shards groups, one lexsort + per-segment triu
    inside each shard — no per-node tasks. Degrees attach via broadcast
    under ``broadcast_limit`` nodes, else via two hash joins (paths
    parity-pinned in tests/test_webkg.py).
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from kgw_ray.stages.joins import semi_join_dataset

    pairs = _distinct_undirected_pairs(edges, src, dst)
    pairs = pairs.materialize()  # consumed by degrees AND orientation

    degrees = as_dataset(fold(
        pairs.map_batches(stacked("a", "b"), batch_format="pyarrow"),
        "id",
        [(None, "count", "deg")],
        combine=True,
    )).materialize()

    def _orient_cols(a, b, deg_a, deg_b) -> pa.Table:
        # total order (deg, id): u strictly smaller endpoint, v larger;
        # the SAME order ranks wedge pairs, so a wedge's closing edge is
        # always stored as (pair_lo → pair_hi)
        a_first = (deg_a < deg_b) | ((deg_a == deg_b) & (a < b))
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        dv = np.where(a_first, deg_b, deg_a)
        return pa.table(
            {
                "u": pa.array(u, pa.string()),
                "v": pa.array(v, pa.string()),
                "dv": pa.array(dv.astype(np.int64)),
            }
        )

    if degrees.count() <= broadcast_limit:
        from kgw_ray.functions.arrow_utils import typed_pandas

        dpdf = typed_pandas(degrees, ["id", "deg"])
        order = np.argsort(dpdf["id"].to_numpy())
        ref = ray.put(
            (
                dpdf["id"].to_numpy()[order],
                dpdf["deg"].to_numpy()[order].astype(np.int64),
            )
        )

        def _orient(batch: pa.Table) -> pa.Table:
            ids_s, degs_s = ray.get(ref)
            a = batch.column("a").to_numpy(zero_copy_only=False)
            b = batch.column("b").to_numpy(zero_copy_only=False)
            return _orient_cols(
                a,
                b,
                degs_s[np.searchsorted(ids_s, a)],
                degs_s[np.searchsorted(ids_s, b)],
            )

        oriented = pairs.map_batches(_orient, batch_format="pyarrow")
    else:
        j = large_join(pairs, degrees, on=["a"], right_on=["id"]).rename_columns(
            {"deg": "deg_a"}
        )
        j = large_join(
            j.select_columns(["a", "b", "deg_a"]),
            degrees,
            on=["b"],
            right_on=["id"],
        ).rename_columns({"deg": "deg_b"})

        def _orient_joined(batch: pa.Table) -> pa.Table:
            return _orient_cols(
                batch.column("a").to_numpy(zero_copy_only=False),
                batch.column("b").to_numpy(zero_copy_only=False),
                batch.column("deg_a").to_numpy(zero_copy_only=False),
                batch.column("deg_b").to_numpy(zero_copy_only=False),
            )

        oriented = j.map_batches(_orient_joined, batch_format="pyarrow")

    oriented = oriented.materialize()  # consumed by wedges AND closure keys

    def _shard(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(u, hash_key="kgw_ray_triangle") % num_shards
        return batch.append_column("shard", pa.array(h.astype(np.int64)))

    def _wedges(df: pd.DataFrame) -> pa.Table:
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        dv = df["dv"].to_numpy()
        order = np.lexsort((v, dv, u))  # per pivot, neighbors (deg,id)-asc
        u, v = u[order], v[order]
        seg = np.nonzero(np.concatenate(([True], u[1:] != u[:-1])))[0]
        ends = np.append(seg[1:], len(u))
        ps, xs, ys = [], [], []
        for s, e in zip(seg, ends):
            d = e - s
            if d < 2:
                continue
            i, j2 = np.triu_indices(d, 1)
            ps.append(np.repeat(u[s], len(i)))
            xs.append(v[s:e][i])
            ys.append(v[s:e][j2])
        if not ps:
            e = pa.array([], pa.string())
            return pa.table({"p": e, "x": e, "y": e})
        return pa.table(
            {
                "p": pa.array(np.concatenate(ps), pa.string()),
                "x": pa.array(np.concatenate(xs), pa.string()),
                "y": pa.array(np.concatenate(ys), pa.string()),
            }
        )

    wedges = (
        oriented.map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_wedges, batch_format="pandas")
    )

    def _wedge_key(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "ek",
            pc.binary_join_element_wise(batch["x"], batch["y"], _TRI_SEP),
        )

    edge_keys = oriented.map_batches(
        lambda t: pa.table(
            {"ek": pc.binary_join_element_wise(t["u"], t["v"], _TRI_SEP)}
        ),
        batch_format="pyarrow",
    )
    closed = semi_join_dataset(
        wedges.map_batches(_wedge_key, batch_format="pyarrow"),
        edge_keys,
        on="ek",
        broadcast_limit=broadcast_limit,
    )

    tri = as_dataset(fold(
        closed.map_batches(stacked("p", "x", "y"), batch_format="pyarrow"),
        "id",
        [(None, "count", "n_triangles")],
        combine=True,
    ))
    if not _clustering:
        return tri

    # clustering mode: every node with its degree, triangle count and
    # integer local clustering coefficient 2000·T // (d·(d−1)). Both
    # sides are node-vocabulary-bounded; under the broadcast limit the
    # triangle counts ride a ray.put lookup over the degree table, beyond
    # it a left hash join (the same hybrid rule as the degree attach).
    if tri.count() <= broadcast_limit:
        from kgw_ray.functions.arrow_utils import typed_pandas

        tdf = typed_pandas(tri, ["id", "n_triangles"])
        t_order = np.argsort(tdf["id"].to_numpy())
        tref = ray.put(
            (
                tdf["id"].to_numpy()[t_order],
                tdf["n_triangles"].to_numpy()[t_order].astype(np.int64),
            )
        )

        def _lcc(batch: pa.Table) -> pa.Table:
            tids, tcnt = ray.get(tref)
            ids = batch.column("id").to_numpy(zero_copy_only=False)
            d = batch.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
            if len(tids):
                pos = np.searchsorted(tids, ids)
                pos[pos == len(tids)] = 0
                t = np.where(tids[pos] == ids, tcnt[pos], 0)
            else:
                t = np.zeros(len(ids), dtype=np.int64)
            denom = d * (d - 1)
            lcc = np.where(denom > 0, 2000 * t // np.maximum(denom, 1), 0)
            return pa.table(
                {
                    "id": batch.column("id"),
                    "degree": pa.array(d),
                    "n_triangles": pa.array(t.astype(np.int64)),
                    "lcc_permille": pa.array(lcc.astype(np.int64)),
                }
            )

        return degrees.map_batches(_lcc, batch_format="pyarrow")

    j = large_join(degrees, tri, on=["id"], how="left_outer")

    def _lcc_joined(batch: pa.Table) -> pa.Table:
        d = batch.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
        t = (
            pc.fill_null(batch.column("n_triangles"), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        denom = d * (d - 1)
        lcc = np.where(denom > 0, 2000 * t // np.maximum(denom, 1), 0)
        return pa.table(
            {
                "id": batch.column("id"),
                "degree": pa.array(d),
                "n_triangles": pa.array(t),
                "lcc_permille": pa.array(lcc.astype(np.int64)),
            }
        )

    return j.map_batches(_lcc_joined, batch_format="pyarrow")


def clustering_coefficients(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    num_shards: int = 64,
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Local clustering coefficient per node (integer permille — no float
    in the gate): (id, degree, n_triangles, lcc_permille) for EVERY node
    of the undirected simple graph. One triangle_counts pass; the
    coefficient attaches to the already-materialized degree table."""
    return triangle_counts(
        edges,
        src=src,
        dst=dst,
        num_shards=num_shards,
        broadcast_limit=broadcast_limit,
        _clustering=True,
    )


def common_neighbor_counts(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    num_shards: int = 64,
) -> rd.Dataset:
    """Common-neighbor counts for every node pair sharing ≥1 neighbor —
    the classic link-prediction signal — over the undirected simple graph
    of ``edges``: (x, y, n_common) with x < y.

    Plan: symmetrize the distinct pair set to full adjacency, enumerate
    each center's neighbor pairs (sharded-coarse: hash(center) %
    num_shards groups, lexsort + per-segment triu — no per-node tasks),
    then a per-batch pair combiner feeding a bounded exchange. Exact CN is
    inherently Σ deg² work — a hub of degree d contributes d² wedges (no
    orientation trick applies, unlike ``triangle_counts``); at web scale
    cap or sample hub neighborhoods upstream if the degree distribution
    has no natural ceiling."""
    return _wedge_pair_fold(
        _distinct_undirected_pairs(edges, src, dst),
        num_shards=num_shards,
        seg_weight=None,
        out_col="n_common",
    )


def resource_allocation_scores(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    num_shards: int = 64,
) -> rd.Dataset:
    """Resource-Allocation link-prediction index (Zhou, Lü & Zhang 2009)
    for every node pair sharing ≥1 neighbor: ``RA(x,y) = Σ_z 1/deg(z)``
    over shared neighbors z, in exact integer micro-units — each wedge
    centered at z contributes ``1_000_000 // deg(z)`` (the per-term floor
    keeps both engines bit-identical where Adamic-Adar's 1/log(deg) would
    drift). Output (x, y, ra_micro) with x < y.

    Same sharded-coarse wedge plan as ``common_neighbor_counts``; deg(z)
    is FREE inside the fold — a center's full undirected-simple neighbor
    list is one lexsort segment, so its length IS the degree (no degree
    join at all)."""
    return _wedge_pair_fold(
        _distinct_undirected_pairs(edges, src, dst),
        num_shards=num_shards,
        seg_weight=lambda d: 1_000_000 // d,
        out_col="ra_micro",
    )


def _wedge_pair_fold(
    pairs: rd.Dataset,
    *,
    num_shards: int,
    seg_weight,
    out_col: str,
) -> rd.Dataset:
    """Shared sharded-coarse wedge enumeration: symmetrize the distinct
    undirected pair set to full adjacency, group centers by
    hash(center) % num_shards (lexsort + per-segment triu — no per-node
    tasks), then one (x, y) Sum fold whose per-block combine collapses
    each shard's wedge pairs. ``seg_weight(d)`` is each wedge's integer
    contribution given its center's degree d (None → 1, plain counts).
    Exact work is inherently Σ deg² — cap or sample hub neighborhoods
    upstream when the degree distribution has no ceiling."""
    import numpy as np

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c": pa.array(np.concatenate([a, b]), pa.string()),
                "v": pa.array(np.concatenate([b, a]), pa.string()),
            }
        )

    def _shard(batch: pa.Table) -> pa.Table:
        c = batch.column("c").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(c, hash_key="kgw_ray_cn_shard") % num_shards
        return batch.append_column("shard", pa.array(h.astype(np.int64)))

    def _wedges(df: pd.DataFrame) -> pa.Table:
        c = df["c"].to_numpy()
        v = df["v"].to_numpy()
        order = np.lexsort((v, c))  # neighbors id-asc per center → x < y
        c, v = c[order], v[order]
        seg = np.nonzero(np.concatenate(([True], c[1:] != c[:-1])))[0]
        ends = np.append(seg[1:], len(c))
        xs, ys, ws = [], [], []
        for s, e in zip(seg, ends):
            d = e - s
            if d < 2:
                continue
            i, j2 = np.triu_indices(d, 1)
            xs.append(v[s:e][i])
            ys.append(v[s:e][j2])
            ws.append(
                np.full(len(i), seg_weight(d) if seg_weight else 1, np.int64)
            )
        if not xs:
            e0 = pa.array([], pa.string())
            return pa.table(
                {"x": e0, "y": e0, "n": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "x": pa.array(np.concatenate(xs), pa.string()),
                "y": pa.array(np.concatenate(ys), pa.string()),
                "n": pa.array(np.concatenate(ws), pa.int64()),
            }
        )

    wedges = (
        pairs.map_batches(_sym, batch_format="pyarrow")
        .map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_wedges, batch_format="pandas")
    )
    return as_dataset(fold(wedges, ["x", "y"], [("n", "sum", out_col)], combine=True))


def bfs_depths(
    edges: rd.Dataset,
    source: str | None = None,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    max_rounds: int = 32,
) -> rd.Dataset:
    """Single-source BFS hop depths over the undirected simple graph —
    (id, depth) for every node reachable from ``source`` (default: the
    lexicographically smallest node id, a deterministic choice both
    engines can make).

    BSP frontier expansion (one superstep per hop, the Pregel shape):
    frontier ⋈ adjacency → distinct neighbors → size-hybrid ``anti_join``
    against the visited set → next frontier. Each round's exchange is
    bounded by the frontier-adjacency product, never the whole graph;
    ``max_rounds`` caps pathological diameters (raises rather than
    silently truncating, the connected_components convention)."""
    import numpy as np

    from kgw_ray.stages.joins import anti_join, large_join

    pairs = _distinct_undirected_pairs(edges, src, dst)

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c": pa.array(np.concatenate([a, b]), pa.string()),
                "v": pa.array(np.concatenate([b, a]), pa.string()),
            }
        )

    adj = pairs.map_batches(_sym, batch_format="pyarrow").materialize()
    if source is None:
        sources = adj.min("c")
        if sources is None:
            return rd.from_arrow(
                pa.table(
                    {
                        "id": pa.array([], pa.string()),
                        "depth": pa.array([], pa.int64()),
                    }
                )
            )
        source = sources

    def _with_depth(d: int):
        def tag(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "id": t.column("id"),
                    "depth": pa.nulls(t.num_rows, pa.int64()).fill_null(d),
                }
            )

        return tag

    frontier = rd.from_arrow(
        pa.table({"id": pa.array([source], pa.string())})
    ).materialize()
    visited = frontier
    results = frontier.map_batches(_with_depth(0), batch_format="pyarrow")
    for depth in range(1, max_rounds + 1):
        nxt = large_join(
            adj, frontier, on=["c"], right_on=["id"]
        ).select_columns(["v"])
        # distinct new neighbors, then drop already-visited (size-hybrid)
        nxt = as_dataset(
            fold(nxt, "v", [(None, "count", "n")], combine=True)
        ).select_columns(["v"])
        frontier = (
            anti_join(nxt, visited, on="v", key_col="id")
            .rename_columns({"v": "id"})
            .materialize()
        )
        if frontier.count() == 0:
            break
        results = results.union(
            frontier.map_batches(_with_depth(depth), batch_format="pyarrow")
        )
        visited = visited.union(frontier).materialize()
    else:
        raise RuntimeError(
            f"bfs_depths did not exhaust the component in {max_rounds} "
            "rounds — raise max_rounds for this diameter"
        )
    return results


def eigenvector_centrality(
    nodes: rd.Dataset,
    edges: rd.Dataset,
    *,
    iters: int = 3,
    num_partitions: int | None = None,
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """EIGENVECTOR CENTRALITY by synchronous power iteration in exact
    integer micro-units — ``x' (v) = Σ_{(u,v)∈E} x(u)``, renormalized each
    round by the DETERMINISTIC integer ``x // ceil(max(x)/SCALE)`` so the
    iterate stays ≤ ~SCALE without any float division (the rescale that
    makes the oracle hash-exact; a float L2 norm would round differently
    across engines). Bonacich centrality is the classic "important pages
    point at important pages" signal next to PageRank — no damping, no
    out-degree normalization.

    Physical plan per round: ONE size-hybrid join (edges ⋈ current ranks
    on source_id — broadcast under the limit, hash-partitioned beyond), a
    per-batch Sum combiner, one ``groupby(target_id).Sum``, and a 1-value
    Max aggregate for the rescale denominator. Round 1 skips the join
    (x0 ≡ SCALE ⇒ sums = SCALE·indeg via the sharded exact count). The
    rescale divides BEFORE any multiply, so nothing exceeds the raw sum
    (int64-safe to Σ x ≤ 9.2e18, i.e. in-degrees to ~9e12 at SCALE 1e6).

    Output: ``(id, eig_micro: int64)`` — nodes with no in-edges read 0.
    """
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from kgw_ray.stages.joins import broadcast_join

    SCALE = 1_000_000
    e = edges.select_columns(["source_id", "target_id"]).materialize()

    def _zeros() -> rd.Dataset:
        return nodes.select_columns(["id"]).map_batches(
            lambda b: pa.table(
                {
                    "id": b.column("id"),
                    "eig_micro": pa.array(np.zeros(len(b), dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )

    if e.count() == 0:
        return _zeros()

    ranks = None
    for t in range(iters):
        if ranks is None:
            sums = as_dataset(
                sharded_count(e, ["target_id"], count_name="s")
            ).map_batches(
                lambda b: pa.table(
                    {
                        "id": b.column("target_id"),
                        "x": pc.multiply(
                            pc.cast(b.column("s"), pa.int64()),
                            pa.scalar(SCALE, pa.int64()),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
        else:
            n = ranks.count()
            if n == 0:
                return _zeros()
            if n <= broadcast_limit:
                j = broadcast_join(e, ranks, on=["source_id"], right_on=["id"]
                )
            else:
                j = large_join(
                    e,
                    ranks,
                    on=("source_id",),
                    right_on=("id",),
                    num_partitions=num_partitions,
                )
            sums = as_dataset(fold(
                j.map_batches(
                    lambda b: pa.table(
                        {
                            "id": b.column("target_id"),
                            "x": pc.cast(b.column("x"), pa.int64()),
                        }
                    ),
                    batch_format="pyarrow",
                ),
                "id",
                [("x", "sum", "x")],
            ))
        sums = sums.materialize()
        mx = sums.aggregate(Max("x"))["max(x)"]
        if mx is None:
            return _zeros()
        denom = (int(mx) + SCALE - 1) // SCALE
        denom = max(denom, 1)
        ranks = sums.map_batches(
            lambda b, _d=denom: pa.table(
                {
                    "id": b.column("id"),
                    "x": pc.divide(
                        pc.cast(b.column("x"), pa.int64()),
                        pa.scalar(_d, pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    rp = ranks.to_pandas() if ranks.count() <= broadcast_limit else None
    if rp is not None:
        out = broadcast_join(
            nodes.select_columns(["id"]), rp, on=["id"], how="left"
        )
    else:
        out = large_join(
            nodes.select_columns(["id"]),
            ranks,
            on=("id",),
            how="left_outer",
            num_partitions=num_partitions,
        )
    return out.map_batches(
        lambda b: pa.table(
            {
                "id": b.column("id"),
                "eig_micro": pc.cast(
                    pc.fill_null(
                        b.column("x") if "x" in b.column_names else pa.nulls(len(b)),
                        0,
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def eigenvector_sql(nodes_sql: str, edges_sql: str, *, iters: int = 3) -> str:
    """DuckDB oracle for ``eigenvector_centrality``: the identical
    micro-unit power iteration unrolled into one (sum, max-rescale) CTE
    pair per round — pure BIGINT arithmetic, floor division, same
    ceil-divide rescale."""
    SCALE = 1_000_000
    ctes = [
        f"nodes AS (SELECT id FROM ({nodes_sql}))",
        f"edges AS (SELECT source_id, target_id FROM ({edges_sql}))",
        f"s1 AS (SELECT target_id AS id, CAST({SCALE} AS BIGINT) * COUNT(*) AS x\n"
        "       FROM edges GROUP BY target_id)",
        f"m1 AS (SELECT greatest((MAX(x) + {SCALE - 1}) // {SCALE}, 1) AS dnm FROM s1)",
        "x1 AS (SELECT id, x // m1.dnm AS x FROM s1, m1)",
    ]
    for t in range(2, iters + 1):
        ctes.append(
            f"s{t} AS (SELECT e.target_id AS id, SUM(p.x) AS x\n"
            f"       FROM edges e JOIN x{t - 1} p ON e.source_id = p.id\n"
            "       GROUP BY e.target_id)"
        )
        ctes.append(
            f"m{t} AS (SELECT greatest((MAX(x) + {SCALE - 1}) // {SCALE}, 1) AS dnm FROM s{t})"
        )
        ctes.append(f"x{t} AS (SELECT id, x // m{t}.dnm AS x FROM s{t}, m{t})")
    return (
        "WITH " + ",\n".join(ctes) + "\n"
        f"SELECT n.id, CAST(COALESCE(r.x, 0) AS BIGINT) AS eig_micro\n"
        f"FROM nodes n LEFT JOIN x{iters} r ON n.id = r.id"
    )
