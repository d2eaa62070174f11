"""Whole-graph structural metrics over the web-KG edge table: reciprocity,
exact degree moments (assortativity components), Jaccard link prediction,
and fixed-round k-core peeling.

Reference scope: kgw's Analyze stage reports graph statistics
(``kgw/_shared/tasks.py`` statistics sinks — node/edge counts, type
histograms); these operators extend the same analyze surface with the
structural metrics a web-scale KG needs (hub detection, link prediction,
core extraction). All outputs are exact integers (permille scaling where a
ratio is reported) so the DuckDB oracles gate byte-identical values.

Scale notes (every operator):
- the only corpus-sized pass is ``_distinct_undirected_pairs`` /
  ``_distinct_ordered_pairs`` — a per-batch dedup combiner feeding a
  vocabulary-sized exchange (never raw triples);
- degree tables are node-vocabulary-sized; they attach to pair streams via
  broadcast under ``broadcast_limit`` and hash joins beyond it (the same
  size-hybrid trade as ``triangle_counts``);
- single-row outputs (reciprocity, moments) reduce through per-block
  partial sums — one tiny row per block crosses the cluster, never pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from kgw_ray.stages.agg import grouped_aggregate_hybrid
from kgw_ray.stages.graph import _distinct_undirected_pairs

_BROADCAST_LIMIT = 5_000_000


def _degree_table(pairs: rd.Dataset) -> rd.Dataset:
    """(id, deg) distinct-neighbor degrees over an undirected distinct-pair
    dataset — per-batch ``np.unique`` combiner, vocabulary-sized exchange."""

    def _deg_partial(batch: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                batch.column("a").to_numpy(zero_copy_only=False),
                batch.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        uq, cnt = np.unique(ids, return_counts=True)
        return pa.table(
            {"id": pa.array(uq, pa.string()), "deg": pa.array(cnt.astype(np.int64))}
        )

    return grouped_aggregate_hybrid(
        pairs.map_batches(_deg_partial, batch_format="pyarrow"),
        "id",
        [("deg", "sum", "deg")],
    )


def _sum_partials(ds: rd.Dataset, fn) -> list[np.ndarray]:
    """Reduce ``ds`` to per-block int64 partial-sum rows via ``fn(batch) ->
    1-row Table`` and pull the tiny partials (one row per block)."""
    parts = ds.map_batches(fn, batch_format="pyarrow").take_all()
    return parts


def reciprocity(
    edges: rd.Dataset, *, src: str = "source_id", dst: str = "target_id"
) -> pa.Table:
    """Directed-graph reciprocity over the distinct simple edge set →
    one row (n_edges, n_reciprocal, recip_permille).

    ``n_edges`` counts distinct ordered (s, t) pairs with s ≠ t;
    ``n_reciprocal`` counts the ordered edges whose reverse also exists
    (so it is always even); ``recip_permille = 1000·n_reciprocal //
    n_edges`` — the standard reciprocity ratio in integer permille.

    Plan: the batch combiner dedups ordered pairs AND folds them onto the
    undirected key with per-direction min/max flags in one step, so a
    single vocabulary-sized exchange (grouped Min+Max) classifies every
    pair: fmin ≠ fmax ⟺ both directions observed. Per-block partial
    counts then reduce to a single row on the driver.
    """

    def _fold_partial(batch: pa.Table) -> pa.Table:
        # fold to the undirected key IN the combiner with per-direction
        # min/max flags: a pair seen in both directions ends with
        # fmin=1 < fmax=2; duplicate same-direction observations (any
        # batch split) leave fmin == fmax — ONE exchange total, where the
        # naive plan pays two (distinct ordered pairs, then the fold)
        s = batch.column(src).to_numpy(zero_copy_only=False)
        t = batch.column(dst).to_numpy(zero_copy_only=False)
        keep = s != t
        s, t = s[keep], t[keep]
        lo, hi = np.minimum(s, t), np.maximum(s, t)
        flag = np.where(s < t, 1, 2).astype(np.int64)
        g = (
            pd.DataFrame({"a": lo, "b": hi, "fmin": flag, "fmax": flag})
            .groupby(["a", "b"], sort=False)
            .agg(fmin=("fmin", "min"), fmax=("fmax", "max"))
            .reset_index()
        )
        return pa.table(
            {
                "a": pa.array(g["a"].to_numpy(), pa.string()),
                "b": pa.array(g["b"].to_numpy(), pa.string()),
                "fmin": pa.array(g["fmin"].to_numpy().astype(np.int64)),
                "fmax": pa.array(g["fmax"].to_numpy().astype(np.int64)),
            }
        )

    folded = grouped_aggregate_hybrid(
        edges.map_batches(_fold_partial, batch_format="pyarrow"),
        ["a", "b"],
        [("fmin", "min", "fmin"), ("fmax", "max", "fmax")],
    )

    def _counts(batch: pa.Table) -> pa.Table:
        fmin = batch.column("fmin").to_numpy(zero_copy_only=False)
        fmax = batch.column("fmax").to_numpy(zero_copy_only=False)
        both = int(np.count_nonzero(fmin != fmax))
        return pa.table(
            {
                "n_edges": pa.array(
                    [2 * both + int(np.count_nonzero(fmin == fmax))], pa.int64()
                ),
                "n_reciprocal": pa.array([2 * both], pa.int64()),
            }
        )

    parts = _sum_partials(folded, _counts)
    n_edges = sum(p["n_edges"] for p in parts)
    n_recip = sum(p["n_reciprocal"] for p in parts)
    permille = (1000 * n_recip) // n_edges if n_edges else 0
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_reciprocal": pa.array([n_recip], pa.int64()),
            "recip_permille": pa.array([permille], pa.int64()),
        }
    )


def degree_moments(
    edges: rd.Dataset, *, src: str = "source_id", dst: str = "target_id"
) -> pa.Table:
    """Exact integer moments of the undirected simple graph's degree
    sequence plus the edge-wise degree product — the components of
    degree assortativity, emitted as exact BIGINTs so the oracle gates
    value-identical (the float Pearson coefficient is derivable from
    them): one row (n_nodes, m_edges, sum_deg2, sum_deg3, sum_dudv).

    ``sum_deg2 = Σ_v d(v)²`` (= Σ_edges d(u)+d(v)), ``sum_deg3 = Σ_v
    d(v)³``, ``sum_dudv = Σ_edges d(u)·d(v)``. Assortativity r =
    (4m·sum_dudv − sum_deg2²) / (2m·sum_deg3 − sum_deg2²).

    Plan: degree table (vocabulary exchange) → node moments as per-block
    partials; degrees broadcast once (hash-join fallback beyond the
    limit) onto the pair stream for the edge-product partials.
    """
    pairs = _distinct_undirected_pairs(edges, src, dst).materialize()
    degrees = _degree_table(pairs).materialize()

    def _node_moments(batch: pa.Table) -> pa.Table:
        d = batch.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_nodes": pa.array([len(d)], pa.int64()),
                "sum_deg2": pa.array([int((d * d).sum())], pa.int64()),
                "sum_deg3": pa.array([int((d * d * d).sum())], pa.int64()),
            }
        )

    node_parts = _sum_partials(degrees, _node_moments)

    pair_moments = _attach_degrees(pairs, degrees)

    def _edge_moments(batch: pa.Table) -> pa.Table:
        da = batch.column("deg_a").to_numpy(zero_copy_only=False)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "m_edges": pa.array([len(da)], pa.int64()),
                "sum_dudv": pa.array([int((da * db).sum())], pa.int64()),
            }
        )

    edge_parts = _sum_partials(pair_moments, _edge_moments)

    return pa.table(
        {
            "n_nodes": pa.array([sum(p["n_nodes"] for p in node_parts)], pa.int64()),
            "m_edges": pa.array([sum(p["m_edges"] for p in edge_parts)], pa.int64()),
            "sum_deg2": pa.array([sum(p["sum_deg2"] for p in node_parts)], pa.int64()),
            "sum_deg3": pa.array([sum(p["sum_deg3"] for p in node_parts)], pa.int64()),
            "sum_dudv": pa.array([sum(p["sum_dudv"] for p in edge_parts)], pa.int64()),
        }
    )


def _attach_degrees(
    pairs: rd.Dataset,
    degrees: rd.Dataset,
    *,
    broadcast_limit: int = _BROADCAST_LIMIT,
    cols: tuple[str, str] = ("a", "b"),
) -> rd.Dataset:
    """Attach deg_<col> for both endpoints of a pair stream. Broadcast
    ``ray.put`` of the sorted (id, deg) arrays under ``broadcast_limit``
    nodes (np.searchsorted probe per batch — a task map reading plasma
    zero-copy), two hash joins beyond it."""
    ca, cb = cols
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

        def probe(batch: pa.Table) -> pa.Table:
            ids, degs = ray.get(ref)
            a = batch.column(ca).to_numpy(zero_copy_only=False)
            b = batch.column(cb).to_numpy(zero_copy_only=False)
            da = degs[np.searchsorted(ids, a)]
            db = degs[np.searchsorted(ids, b)]
            return batch.append_column("deg_a", pa.array(da)).append_column(
                "deg_b", pa.array(db)
            )

        return pairs.map_batches(probe, batch_format="pyarrow")

    from kgw_ray.stages.joins import large_join

    keep = pairs.schema().names + ["deg_a", "deg_b"]
    j = large_join(
        pairs,
        degrees.map_batches(
            lambda t: t.rename_columns(["id", "deg_a"]), batch_format="pyarrow"
        ),
        on=(ca,),
        right_on=("id",),
        how="inner",
    ).materialize()  # chained joins: materialize so empty-block compaction runs
    j = large_join(
        j,
        degrees.map_batches(
            lambda t: t.rename_columns(["id", "deg_b"]), batch_format="pyarrow"
        ),
        on=(cb,),
        right_on=("id",),
        how="inner",
    )
    return j.select_columns(keep)


def jaccard_link_prediction(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    broadcast_limit: int = _BROADCAST_LIMIT,
) -> rd.Dataset:
    """Jaccard link-prediction scores for every node pair sharing ≥1
    neighbor: (x, y, n_common, jaccard_permille) with x < y and
    ``jaccard_permille = 1000·|N(x)∩N(y)| // (d(x)+d(y)−|N(x)∩N(y)|)``
    over the undirected simple graph — exact integers end to end.

    Plan: one ``common_neighbor_counts`` pass (sharded-coarse wedge
    enumeration, Σ deg² work — the documented CN ceiling applies) plus
    the size-hybrid degree attach; no additional shuffle beyond the CN
    exchange."""
    from kgw_ray.stages.graph import common_neighbor_counts

    pairs = _distinct_undirected_pairs(edges, src, dst).materialize()
    degrees = _degree_table(pairs).materialize()
    cn = common_neighbor_counts(edges, src=src, dst=dst)
    withdeg = _attach_degrees(
        cn, degrees, broadcast_limit=broadcast_limit, cols=("x", "y")
    )

    def _score(batch: pa.Table) -> pa.Table:
        n = batch.column("n_common").to_numpy(zero_copy_only=False)
        da = batch.column("deg_a").to_numpy(zero_copy_only=False)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False)
        union = da + db - n
        jp = (1000 * n) // union
        return pa.table(
            {
                "x": batch.column("x"),
                "y": batch.column("y"),
                "n_common": batch.column("n_common"),
                "jaccard_permille": pa.array(jp.astype(np.int64)),
            }
        )

    return withdeg.map_batches(_score, batch_format="pyarrow")


def rich_club(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    max_k: int = 10,
    broadcast_limit: int = _BROADCAST_LIMIT,
) -> pa.Table:
    """Rich-club profile: for each degree threshold k in 1..max_k, the
    node count N_k (deg > k), the undirected edge count E_k among those
    nodes, and the exact-integer rich-club coefficient
    ``2000·E_k // (N_k·(N_k−1))`` permille — the hub-interconnection
    diagnostic (do high-degree entities preferentially link each other).

    Plan: the size-hybrid degree attach tags every distinct pair with
    min(deg_a, deg_b); both the min-degree histogram and the degree
    histogram are degree-vocabulary-sized reductions, so all k
    thresholds fold from TWO bounded tables on the driver — no per-k
    graph pass."""
    pairs = _distinct_undirected_pairs(edges, src, dst).materialize()
    degrees = _degree_table(pairs).materialize()
    withdeg = _attach_degrees(pairs, degrees, broadcast_limit=broadcast_limit)

    def _mind_partial(batch: pa.Table) -> pa.Table:
        m = np.minimum(
            batch.column("deg_a").to_numpy(zero_copy_only=False),
            batch.column("deg_b").to_numpy(zero_copy_only=False),
        )
        uq, cnt = np.unique(m, return_counts=True)
        return pa.table(
            {"mindeg": pa.array(uq.astype(np.int64)), "n": pa.array(cnt.astype(np.int64))}
        )

    def _deg_partial(batch: pa.Table) -> pa.Table:
        uq, cnt = np.unique(
            batch.column("deg").to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {"deg": pa.array(uq.astype(np.int64)), "n": pa.array(cnt.astype(np.int64))}
        )

    mind_hist = grouped_aggregate_hybrid(
        withdeg.map_batches(_mind_partial, batch_format="pyarrow"),
        "mindeg",
        [("n", "sum", "n")],
    ).to_pandas()
    deg_hist = grouped_aggregate_hybrid(
        degrees.map_batches(_deg_partial, batch_format="pyarrow"),
        "deg",
        [("n", "sum", "n")],
    ).to_pandas()

    ks = np.arange(1, max_k + 1, dtype=np.int64)
    md = mind_hist["mindeg"].to_numpy(dtype=np.int64) if len(mind_hist) else np.array([], np.int64)
    mn = mind_hist["n"].to_numpy(dtype=np.int64) if len(mind_hist) else np.array([], np.int64)
    dd = deg_hist["deg"].to_numpy(dtype=np.int64) if len(deg_hist) else np.array([], np.int64)
    dn = deg_hist["n"].to_numpy(dtype=np.int64) if len(deg_hist) else np.array([], np.int64)
    n_nodes = np.array([dn[dd > k].sum() for k in ks], np.int64)
    n_edges = np.array([mn[md > k].sum() for k in ks], np.int64)
    denom = n_nodes * (n_nodes - 1)
    pm = np.where(n_nodes >= 2, (2000 * n_edges) // np.maximum(denom, 1), 0)
    return pa.table(
        {
            "k": pa.array(ks),
            "n_nodes": pa.array(n_nodes),
            "n_edges": pa.array(n_edges),
            "rich_club_pm": pa.array(pm.astype(np.int64)),
        }
    )


def kcore(
    edges: rd.Dataset,
    *,
    k: int = 3,
    rounds: int = 8,
    src: str = "source_id",
    dst: str = "target_id",
) -> rd.Dataset:
    """``rounds``-round k-core peeling over the undirected simple graph →
    (id, degree) for every node still carrying an edge after the final
    round, with its degree in the surviving subgraph.

    Each round drops nodes whose degree in the CURRENT subgraph is < k
    and restricts the pair set to survivors (two size-hybrid semi joins).
    Peeling is monotone, so once a round removes nothing the result IS
    the exact k-core and further rounds are no-ops — the fixed ``rounds``
    unroll makes the operator reproducible in SQL (the oracle unrolls the
    same R rounds); a converged-early run and the R-round run coincide.
    The degenerate non-converged case (R too small for the diameter of
    the peeling cascade) is still deterministic: exactly R rounds on both
    engines. Per round: one vocabulary-sized degree exchange + two
    semi joins (broadcast at test scale, hash-partitioned at 10^12)."""
    pairs = _distinct_undirected_pairs(edges, src, dst).materialize()
    from kgw_ray.stages.joins import semi_join_dataset

    prev_nodes = None
    for _ in range(rounds):
        import pyarrow.compute as pc

        degrees = _degree_table(pairs).materialize()
        survivors = degrees.map_batches(
            lambda t, _k=k: t.filter(pc.greater_equal(t.column("deg"), _k)),
            batch_format="pyarrow",
        ).materialize()
        n_surv = survivors.count()
        if prev_nodes is not None and n_surv == prev_nodes:
            break  # converged: identical to running the remaining rounds
        prev_nodes = n_surv
        if n_surv == 0:
            return pa.table(
                {
                    "id": pa.array([], pa.string()),
                    "degree": pa.array([], pa.int64()),
                }
            )
        pairs = semi_join_dataset(pairs, survivors, on="a", key_col="id")
        pairs = semi_join_dataset(pairs, survivors, on="b", key_col="id").materialize()

    final = _degree_table(pairs)
    return final.map_batches(
        lambda t: t.rename_columns(["id", "degree"]), batch_format="pyarrow"
    )


def multi_bfs_closeness(
    edges: rd.Dataset,
    *,
    n_sources: int = 4,
    src: str = "source_id",
    dst: str = "target_id",
    max_rounds: int = 32,
) -> rd.Dataset:
    """Multi-source BFS closeness summary: hop depths from the
    ``n_sources`` lexicographically-smallest nodes (the deterministic
    landmark set both engines can pick), aggregated per reached node →
    (id, n_reached, sum_depth) — the landmark-closeness sketch large
    graphs use instead of exact all-pairs closeness (exact integers; the
    closeness estimate n_reached/sum_depth is derivable).

    BSP frontier expansion like ``graph.bfs_depths`` but with rows
    (source, node): every landmark's frontier advances in the SAME
    superstep, so the round count is one diameter regardless of
    ``n_sources``; the visited/anti-join key packs source|node. Exchanges
    stay bounded by frontier-adjacency products; landmark count scales
    work linearly (pick n_sources, not the graph, at 10^12 edges)."""
    import pyarrow.compute as pc

    from kgw_ray.stages.agg import grouped_aggregate_hybrid
    from kgw_ray.stages.joins import anti_join, large_join
    from kgw_ray.stages.graph import _distinct_undirected_pairs

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
    node_ids = _degree_table(pairs).select_columns(["id"])

    # landmark pick via per-block min-k partials (the distributed_topk
    # pattern): each block ships its n_sources smallest ids, the driver
    # folds ≤ n_sources × n_blocks rows — never the full node vocabulary
    def _min_k(t: pa.Table, *, _k=n_sources) -> pa.Table:
        ids = np.unique(t.column("id").to_numpy(zero_copy_only=False))[:_k]
        return pa.table({"id": pa.array(ids, pa.string())})

    partials = node_ids.map_batches(_min_k, batch_format="pyarrow").to_pandas()
    srcs = sorted(partials["id"])[:n_sources] if "id" in partials.columns else []
    empty = pa.table(
        {
            "id": pa.array([], pa.string()),
            "n_reached": pa.array([], pa.int64()),
            "sum_depth": pa.array([], pa.int64()),
        }
    )
    if not srcs:
        return rd.from_arrow(empty)

    def _pack(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(t.column("s"), t.column("id"), "|")
        return t.append_column("key", key)

    def _with_depth(d: int):
        def tag(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "s": t.column("s"),
                    "id": t.column("id"),
                    "depth": pa.nulls(t.num_rows, pa.int64()).fill_null(d),
                }
            )

        return tag

    frontier = rd.from_arrow(
        pa.table(
            {
                "s": pa.array(srcs, pa.string()),
                "id": pa.array(srcs, pa.string()),
            }
        )
    ).materialize()
    visited = (
        frontier.map_batches(_pack, batch_format="pyarrow")
        .select_columns(["key", "s", "id"])  # pin column order for unions
        .materialize()
    )
    results = frontier.map_batches(_with_depth(0), batch_format="pyarrow")
    for depth in range(1, max_rounds + 1):
        # size-hybrid hop expansion: landmark frontiers are tiny relative
        # to the graph (≤ n_sources × frontier width), so broadcast the
        # frontier and map-join the adjacency — a hash exchange per hop
        # pays aggregator-actor startup ~diameter times (measured 9.5s →
        # ~2s on the fixture sweep); fall back to the shuffle join only
        # for frontiers too big to broadcast
        n_frontier = frontier.count()
        if n_frontier <= _BROADCAST_LIMIT:
            from kgw_ray.stages.joins import broadcast_join

            hop = broadcast_join(
                adj,
                frontier.select_columns(["s", "id"]).to_pandas(),
                on=["c"],
                right_on=["id"],
            ).select_columns(["s", "v"])
        else:
            hop = large_join(
                adj, frontier, on=["c"], right_on=["id"]
            ).select_columns(["s", "v"])

        def _distinct_partial(t: pa.Table) -> pa.Table:
            import pandas as pd

            df = pd.DataFrame(
                {
                    "s": t.column("s").to_numpy(zero_copy_only=False),
                    "id": t.column("v").to_numpy(zero_copy_only=False),
                }
            ).drop_duplicates()
            out = pa.table(
                {
                    "s": pa.array(df["s"].to_numpy(), pa.string()),
                    "id": pa.array(df["id"].to_numpy(), pa.string()),
                    "one": pa.array(np.ones(len(df), dtype=np.int64)),
                }
            )
            return _pack(out)

        nxt = grouped_aggregate_hybrid(
            hop.map_batches(_distinct_partial, batch_format="pyarrow"),
            "key",
            [("s", "min", "s"), ("id", "min", "id")],
        ).select_columns(["key", "s", "id"])
        frontier = anti_join(nxt, visited, on="key", key_col="key").materialize()
        if frontier.count() == 0:
            break
        results = results.union(
            frontier.map_batches(_with_depth(depth), batch_format="pyarrow")
        )
        visited = visited.union(
            frontier.select_columns(["key", "s", "id"])
        ).materialize()
        frontier = frontier.select_columns(["s", "id"]).materialize()
    else:
        raise RuntimeError(
            f"multi_bfs_closeness: diameter exceeds max_rounds={max_rounds}"
        )

    def _node_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame(
            {
                "id": t.column("id").to_numpy(zero_copy_only=False),
                "depth": t.column("depth").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("id", sort=False)["depth"].agg(["size", "sum"]).reset_index()
        return pa.table(
            {
                "id": pa.array(g["id"].to_numpy(), pa.string()),
                "n_reached": pa.array(g["size"].to_numpy().astype(np.int64)),
                "sum_depth": pa.array(g["sum"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        results.map_batches(_node_partial, batch_format="pyarrow"),
        "id",
        [("n_reached", "sum", "n_reached"), ("sum_depth", "sum", "sum_depth")],
    )


def _distinct_ordered_pairs(
    edges: rd.Dataset, src: str = "source_id", dst: str = "target_id"
) -> rd.Dataset:
    """Distinct ordered (s, t) pairs — the directed simple-edge set
    (self-loops kept: HITS/adjacency semantics match DuckDB's plain
    ``SELECT DISTINCT``). Per-batch drop_duplicates combiner before the
    vocabulary-sized exchange (same shape as _distinct_undirected_pairs,
    kgw_ray/stages/graph.py)."""

    def _pair_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "s": batch.column(src).to_numpy(zero_copy_only=False),
                "t": batch.column(dst).to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "s": pa.array(df["s"].to_numpy(), pa.string()),
                "t": pa.array(df["t"].to_numpy(), pa.string()),
                "one": pa.array(np.ones(len(df), dtype=np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        edges.map_batches(_pair_partial, batch_format="pyarrow"),
        ["s", "t"],
        [("one", "sum", "n")],
    ).select_columns(["s", "t"])


def _hybrid_attach(
    big: rd.Dataset,
    small: rd.Dataset,
    *,
    on: str,
    right_on: str,
    how: str = "inner",
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """Size-hybrid lookup join: the (materialized, vocabulary-sized) right
    side broadcasts via ``ray.put`` under ``_BROADCAST_LIMIT`` rows (or the
    per-call ``broadcast_limit`` override — 0 is the forced-shuffle parity
    hook) and falls back to the hash-partitioned Dataset.join beyond (the
    repo-wide size rule, stages/joins.py)."""
    from kgw_ray.stages.joins import broadcast_join, large_join

    limit = _BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    small = small.materialize()
    if small.count() <= limit:
        return broadcast_join(big, small, on=[on], right_on=[right_on], how=how)
    return large_join(
        big,
        small,
        on=(on,),
        right_on=(right_on,),
        how="inner" if how == "inner" else "left_outer",
    )


def _grouped_sum_of(
    ds: rd.Dataset, key: str, val: str, out_key: str, out_val: str
) -> rd.Dataset:
    """Per-batch pandas partial-sum combiner + vocabulary-sized grouped Sum
    → (out_key, out_val). The exchange moves ≤ one row per (block, key)."""

    def _partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                out_key: batch.column(key).to_numpy(zero_copy_only=False),
                out_val: pc_int64(batch.column(val)),
            }
        )
        g = df.groupby(out_key, sort=False)[out_val].sum().reset_index()
        return pa.table(
            {
                out_key: pa.array(g[out_key].to_numpy(), pa.string()),
                out_val: pa.array(g[out_val].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        ds.map_batches(_partial, batch_format="pyarrow"),
        out_key,
        [(out_val, "sum", out_val)],
    )


def pc_int64(col: pa.ChunkedArray) -> np.ndarray:
    import pyarrow.compute as pc

    return (
        pc.cast(pc.fill_null(col, 0), pa.int64())
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )


def hits_scores(nodes: rd.Dataset, edges: rd.Dataset) -> rd.Dataset:
    """HITS hub/authority scores, 2 exact-integer power rounds (no float
    normalization — every engine reproduces the arithmetic bit-for-bit):

        h1(u) = |distinct out-neighbors of u|        (a0 ≡ 1)
        a1(v) = Σ_{(u,v)∈E} h1(u)
        h2(u) = Σ_{(u,v)∈E} a1(v)
        a2(v) = Σ_{(u,v)∈E} h2(u)

    over the distinct directed edge set; output ``(id, hub, auth)`` =
    (h2, a2) for every node (0 where a node has no out-/in-edges).

    Physical plan: ONE distinct-pair exchange, then each round is one
    size-hybrid lookup join (score table is node-vocabulary-sized →
    broadcast under the limit) + a per-batch partial-sum combiner + a
    vocabulary-sized grouped Sum — the pair stream never re-shuffles.
    Overflow ceiling: a2 ≤ Σ deg⁴ terms; int64 holds webgraph-scale values
    for max-degree up to ~10⁴·⁵ — beyond, rescale rounds by a shift (the
    pagerank SCALE note, stages/graph.py:pagerank).

    Reference scope: extends kgw's Analyze stage (statistics sinks,
    kgw/_shared/tasks.py) with link-analysis scores.
    """
    pairs = _distinct_ordered_pairs(edges).materialize()

    def _h1_partial(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy(zero_copy_only=False)
        uq, cnt = np.unique(s, return_counts=True)
        return pa.table(
            {"id": pa.array(uq, pa.string()), "h": pa.array(cnt.astype(np.int64))}
        )

    h1 = grouped_aggregate_hybrid(
        pairs.map_batches(_h1_partial, batch_format="pyarrow"),
        "id",
        [("h", "sum", "h")],
    )
    a1 = _grouped_sum_of(
        _hybrid_attach(pairs, h1, on="s", right_on="id"), "t", "h", "id", "a"
    )
    h2 = _grouped_sum_of(
        _hybrid_attach(pairs, a1, on="t", right_on="id"), "s", "a", "id", "h"
    )
    a2 = _grouped_sum_of(
        _hybrid_attach(pairs, h2, on="s", right_on="id"), "t", "h", "id", "a"
    )

    out = _hybrid_attach(
        nodes.select_columns(["id"]), h2, on="id", right_on="id", how="left"
    )
    out = _hybrid_attach(out, a2, on="id", right_on="id", how="left")

    def _final(batch: pa.Table) -> pa.Table:
        names = batch.column_names
        hub = (
            pc_int64(batch.column("h"))
            if "h" in names
            else np.zeros(len(batch), dtype=np.int64)
        )
        auth = (
            pc_int64(batch.column("a"))
            if "a" in names
            else np.zeros(len(batch), dtype=np.int64)
        )
        return pa.table(
            {
                "id": batch.column("id"),
                "hub": pa.array(hub),
                "auth": pa.array(auth),
            }
        )

    return out.map_batches(_final, batch_format="pyarrow")


def hits_sql(nodes_sql: str, edges_sql: str) -> str:
    """The identical 2-round integer HITS unrolled into BIGINT CTEs."""
    return f"""
WITH nodes AS ({nodes_sql}), alledges AS ({edges_sql}),
e AS (SELECT DISTINCT source_id AS s, target_id AS t FROM alledges),
h1 AS (SELECT s AS id, COUNT(*) AS h FROM e GROUP BY s),
a1 AS (SELECT e.t AS id, SUM(h1.h) AS a FROM e JOIN h1 ON h1.id = e.s GROUP BY e.t),
h2 AS (SELECT e.s AS id, SUM(a1.a) AS h FROM e JOIN a1 ON a1.id = e.t GROUP BY e.s),
a2 AS (SELECT e.t AS id, SUM(h2.h) AS a FROM e JOIN h2 ON h2.id = e.s GROUP BY e.t)
SELECT n.id,
       CAST(COALESCE(h2.h, 0) AS BIGINT) AS hub,
       CAST(COALESCE(a2.a, 0) AS BIGINT) AS auth
FROM nodes n LEFT JOIN h2 ON h2.id = n.id LEFT JOIN a2 ON a2.id = n.id
"""


def label_propagation(
    nodes: rd.Dataset, edges: rd.Dataset, *, iters: int = 3
) -> rd.Dataset:
    """Deterministic synchronous label propagation (community detection),
    ``iters`` rounds over the undirected distinct simple edge set:

        l0(v) = v
        l_{k+1}(v) = the most frequent label among v's neighbors,
                     ties broken by MIN label; isolated nodes keep l_k.

    The min tie-break makes every round a pure function of the edge set —
    no randomness, so the DuckDB oracle (the same rounds unrolled into
    window-function CTEs) gates exact hash equality.

    Physical plan per round (labels are node-vocabulary-sized, so every
    exchange is vocabulary-bounded): one size-hybrid lookup join of the
    label table onto the symmetric pair stream, a per-batch (node,
    label)-count partial combiner, then grouped Sum → grouped Max(count)
    → filter-to-argmax → grouped Min(label). The symmetric pair stream is
    materialized ONCE and re-consumed each round — raw edges are read a
    single time. Output: ``(id, community)``.
    """
    sym_src = _distinct_undirected_pairs(edges, "source_id", "target_id")

    def _mirror(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": pa.array(np.concatenate([a, b]), pa.string()),
                "b": pa.array(np.concatenate([b, a]), pa.string()),
            }
        )

    sym = sym_src.map_batches(_mirror, batch_format="pyarrow").materialize()

    def _self_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"id": batch.column("id"), "lbl": batch.column("id")})

    node_ids = nodes.select_columns(["id"]).materialize()
    labels = node_ids.map_batches(_self_labels, batch_format="pyarrow")

    def _count_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "a": batch.column("a").to_numpy(zero_copy_only=False),
                "lbl": batch.column("lbl").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["a", "lbl"], sort=False).size().rename("c").reset_index()
        return pa.table(
            {
                "a": pa.array(g["a"].to_numpy(), pa.string()),
                "lbl": pa.array(g["lbl"].to_numpy(), pa.string()),
                "c": pa.array(g["c"].to_numpy().astype(np.int64)),
            }
        )

    for _ in range(iters):
        tagged = _hybrid_attach(sym, labels, on="b", right_on="id")
        counts = grouped_aggregate_hybrid(
            tagged.map_batches(_count_partial, batch_format="pyarrow"),
            ["a", "lbl"],
            [("c", "sum", "c")],
        ).materialize()
        maxc = grouped_aggregate_hybrid(
            counts.select_columns(["a", "c"]), "a", [("c", "max", "cmax")]
        )
        at_max = _hybrid_attach(counts, maxc, on="a", right_on="a")

        def _keep_max(batch: pa.Table) -> pa.Table:
            c = pc_int64(batch.column("c"))
            cm = pc_int64(batch.column("cmax"))
            keep = c == cm
            return pa.table(
                {
                    "a": batch.column("a").filter(pa.array(keep)),
                    "lbl": batch.column("lbl").filter(pa.array(keep)),
                }
            )

        winners = grouped_aggregate_hybrid(
            at_max.map_batches(_keep_max, batch_format="pyarrow"),
            "a",
            [("lbl", "min", "new_lbl")],
        )
        joined = _hybrid_attach(labels, winners, on="id", right_on="a", how="left")

        def _coalesce(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            names = batch.column_names
            if "new_lbl" in names:
                new = pc.coalesce(batch.column("new_lbl"), batch.column("lbl"))
            else:  # empty hash partitions can drop the right schema
                new = batch.column("lbl")
            return pa.table({"id": batch.column("id"), "lbl": new})

        labels = joined.map_batches(_coalesce, batch_format="pyarrow").materialize()

    return labels.map_batches(
        lambda b: pa.table({"id": b.column("id"), "community": b.column("lbl")}),
        batch_format="pyarrow",
    )


def _lpa_cte_parts(nodes_sql: str, edges_sql: str, iters: int) -> list[str]:
    """The shared unrolled-LPA CTE chain (``e0``/``sym``/``l0``…``l{iters}``)
    that both ``label_propagation_sql`` and ``modularity_sql`` build on —
    one definition so the two oracles can never drift."""
    parts = [
        f"WITH nodes AS ({nodes_sql}), alledges AS ({edges_sql}),",
        "e0 AS (SELECT DISTINCT least(source_id, target_id) AS a,"
        " greatest(source_id, target_id) AS b FROM alledges"
        " WHERE source_id <> target_id),",
        "sym AS (SELECT a, b FROM e0 UNION ALL SELECT b, a FROM e0),",
        "l0 AS (SELECT id, id AS lbl FROM nodes)",
    ]
    for k in range(1, iters + 1):
        p, c = k - 1, k
        parts.append(
            f""",
c{c} AS (SELECT s.a, l.lbl, COUNT(*) AS c
        FROM sym s JOIN l{p} l ON l.id = s.b GROUP BY s.a, l.lbl),
w{c} AS (SELECT a, lbl FROM (
          SELECT a, lbl,
                 ROW_NUMBER() OVER (PARTITION BY a ORDER BY c DESC, lbl) AS rn
          FROM c{c}) WHERE rn = 1),
l{c} AS (SELECT n.id, COALESCE(w.lbl, n.id) AS lbl
        FROM l{p} n LEFT JOIN w{c} w ON w.a = n.id)"""
        )
    return parts


def label_propagation_sql(nodes_sql: str, edges_sql: str, *, iters: int = 3) -> str:
    """The identical min-tie-break synchronous LPA unrolled into CTEs."""
    parts = _lpa_cte_parts(nodes_sql, edges_sql, iters)
    parts.append(f"\nSELECT id, lbl AS community FROM l{iters}")
    return "\n".join(parts)


def modularity(
    nodes: rd.Dataset,
    edges: rd.Dataset,
    *,
    iters: int = 3,
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """Newman modularity of the label-propagation partition, exact-integer.

    Partition = ``label_propagation(iters)`` communities; graph = the
    distinct undirected simple edge set ``e0`` (a<b, self-loops dropped).
    With m = |e0|, per community c the row carries

        n_nodes, intra_edges (= e_c), degree_sum (= d_c) and
        q_num = 4·m·e_c − d_c²                       (int64)

    so Q = Σ_c q_num / (4m²) is reconstructible exactly — the integer
    numerator keeps the DuckDB oracle bit-identical (the repo's
    exact-integer-money rule applied to a graph statistic). int64 is exact
    while 4·m·e_c < 2⁶³, i.e. up to ~1.5×10⁹ edges; beyond that consumers
    should recombine the emitted e_c/d_c terms in big-int space.

    Physical plan: everything after label_propagation is community- or
    node-vocabulary-bounded — two size-hybrid label attaches onto the pair
    stream (an edge is intra iff both endpoint labels agree), per-batch
    count partials, three grouped exchanges, and one broadcast-sized final
    assembly. ``broadcast_limit=0`` forces the shuffle-join parity path.
    """
    labels = label_propagation(nodes, edges, iters=iters).materialize()
    e0 = _distinct_undirected_pairs(edges, "source_id", "target_id").materialize()
    m = e0.count()

    lbl_b = labels.map_batches(
        lambda t: pa.table(
            {"id_b": t.column("id"), "community_b": t.column("community")}
        ),
        batch_format="pyarrow",
    ).materialize()
    # materialize between chained attaches: on the forced-shuffle path a
    # join output feeding another join carries empty blocks, and
    # large_join's _compact_if_sparse guard only fires on materialized
    # inputs (stages/joins.py chained-join hazard)
    tagged = _hybrid_attach(
        _hybrid_attach(
            e0, labels, on="a", right_on="id", broadcast_limit=broadcast_limit
        ).materialize(),
        lbl_b,
        on="b",
        right_on="id_b",
        broadcast_limit=broadcast_limit,
    )

    def _intra_partial(t: pa.Table) -> pa.Table:
        ca = t.column("community").to_numpy(zero_copy_only=False)
        cb = t.column("community_b").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"community": ca[ca == cb]})
        g = df.groupby("community", sort=False).size().rename("intra").reset_index()
        return pa.table(
            {
                "community": pa.array(g["community"].to_numpy(), pa.string()),
                "intra": pa.array(g["intra"].to_numpy().astype(np.int64)),
            }
        )

    intra = grouped_aggregate_hybrid(
        tagged.map_batches(_intra_partial, batch_format="pyarrow"),
        "community",
        [("intra", "sum", "intra_edges")],
    )
    # NOTE: intra can legitimately be EMPTY (every edge crosses
    # communities — seen on small banded host graphs); _hybrid_attach's
    # typed-empty broadcast guard keeps the left join schema-correct.

    # distinct-neighbor degree per node from the undirected pair melt
    def _deg_partial(t: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                t.column("a").to_numpy(zero_copy_only=False),
                t.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        u, c = np.unique(both, return_counts=True)
        return pa.table(
            {
                "id": pa.array(u, pa.string()),
                "degree": pa.array(c.astype(np.int64)),
            }
        )

    deg = grouped_aggregate_hybrid(
        e0.map_batches(_deg_partial, batch_format="pyarrow"),
        "id",
        [("degree", "sum", "degree")],
    )
    deg_tagged = _hybrid_attach(
        deg, labels, on="id", right_on="id", broadcast_limit=broadcast_limit
    )
    degsum = _grouped_sum_of(
        deg_tagged, "community", "degree", "community", "degree_sum"
    )

    def _ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "community": t.column("community"),
                "one": pa.array(np.ones(len(t), dtype=np.int64)),
            }
        )

    comm = grouped_aggregate_hybrid(
        labels.map_batches(_ones, batch_format="pyarrow"),
        "community",
        [("one", "sum", "n_nodes")],
    )

    j = _hybrid_attach(
        _hybrid_attach(
            comm, intra, on="community", right_on="community", how="left",
            broadcast_limit=broadcast_limit,
        ).materialize(),
        degsum.map_batches(
            lambda t: pa.table(
                {
                    "community_d": t.column("community"),
                    "degree_sum": t.column("degree_sum"),
                }
            ),
            batch_format="pyarrow",
        ).materialize(),
        on="community",
        right_on="community_d",
        how="left",
        broadcast_limit=broadcast_limit,
    )

    def _finalize(t: pa.Table) -> pa.Table:
        names = t.column_names
        n = len(t)
        e_c = (
            pc_int64(t.column("intra_edges"))
            if "intra_edges" in names
            else np.zeros(n, dtype=np.int64)
        )
        d_c = (
            pc_int64(t.column("degree_sum"))
            if "degree_sum" in names
            else np.zeros(n, dtype=np.int64)
        )
        return pa.table(
            {
                "community": pa.array(
                    t.column("community").to_numpy(zero_copy_only=False),
                    pa.string(),
                ),
                "n_nodes": pa.array(pc_int64(t.column("n_nodes"))),
                "intra_edges": pa.array(e_c),
                "degree_sum": pa.array(d_c),
                "q_num": pa.array(4 * m * e_c - d_c * d_c),
            }
        )

    return j.map_batches(_finalize, batch_format="pyarrow")


def _partition_terms_ctes(iters: int) -> str:
    """The shared per-community term CTEs (labels/mm/deg/intra/degsum/comm)
    both modularity_sql and conductance_sql append after the LPA chain."""
    return f""",
labels AS (SELECT id, lbl AS community FROM l{iters}),
mm AS (SELECT COUNT(*) AS m FROM e0),
deg AS (SELECT a AS id, CAST(COUNT(*) AS BIGINT) AS degree
        FROM sym GROUP BY a),
intra AS (SELECT la.community, CAST(COUNT(*) AS BIGINT) AS intra_edges
          FROM e0
          JOIN labels la ON la.id = e0.a
          JOIN labels lb ON lb.id = e0.b
          WHERE la.community = lb.community
          GROUP BY la.community),
degsum AS (SELECT l.community,
                  CAST(COALESCE(SUM(d.degree), 0) AS BIGINT) AS degree_sum
           FROM labels l LEFT JOIN deg d ON d.id = l.id
           GROUP BY l.community),
comm AS (SELECT community, CAST(COUNT(*) AS BIGINT) AS n_nodes
         FROM labels GROUP BY community)"""


def modularity_sql(nodes_sql: str, edges_sql: str, *, iters: int = 3) -> str:
    """The identical partition + exact-integer modularity terms in SQL."""
    parts = _lpa_cte_parts(nodes_sql, edges_sql, iters)
    parts.append(
        _partition_terms_ctes(iters)
        + """
SELECT c.community, c.n_nodes,
       CAST(COALESCE(i.intra_edges, 0) AS BIGINT) AS intra_edges,
       CAST(COALESCE(ds.degree_sum, 0) AS BIGINT) AS degree_sum,
       CAST(4 * mm.m * COALESCE(i.intra_edges, 0)
            - COALESCE(ds.degree_sum, 0) * COALESCE(ds.degree_sum, 0)
            AS BIGINT) AS q_num
FROM comm c
CROSS JOIN mm
LEFT JOIN intra i ON i.community = c.community
LEFT JOIN degsum ds ON ds.community = c.community"""
    )
    return "\n".join(parts)


def conductance(
    nodes: rd.Dataset,
    edges: rd.Dataset,
    *,
    iters: int = 3,
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """Exact-integer conductance per LPA community: cut(c) = d_c − 2·e_c
    boundary edges, vol(c) = d_c, and

        conductance_permille = 1000·cut // min(vol, 2m − vol)

    (0 when the denominator is 0 — an isolated or whole-graph community
    has no boundary to leak through). The complement of modularity's
    "how much stays inside": how leaky each community's boundary is —
    the partition diagnostic used to pick crawl shard boundaries.

    Physical plan: ONE modularity pass (all exchanges vocabulary-bounded,
    see :func:`modularity`) and a per-batch arithmetic map over its
    community-sized output; 2m folds from that same tiny table."""
    mod = modularity(
        nodes, edges, iters=iters, broadcast_limit=broadcast_limit
    ).materialize()
    two_m = 0
    for b in mod.iter_batches(batch_format="pyarrow"):
        two_m += int(pc_int64(b.column("degree_sum")).sum())

    def _cond(t: pa.Table) -> pa.Table:
        d_c = pc_int64(t.column("degree_sum"))
        e_c = pc_int64(t.column("intra_edges"))
        cut = d_c - 2 * e_c
        denom = np.minimum(d_c, two_m - d_c)
        cond = np.where(denom > 0, 1000 * cut // np.maximum(denom, 1), 0)
        return pa.table(
            {
                "community": t.column("community"),
                "n_nodes": t.column("n_nodes"),
                "cut_edges": pa.array(cut.astype(np.int64)),
                "degree_sum": pa.array(d_c),
                "conductance_permille": pa.array(cond.astype(np.int64)),
            }
        )

    return mod.map_batches(_cond, batch_format="pyarrow")


def conductance_sql(nodes_sql: str, edges_sql: str, *, iters: int = 3) -> str:
    """The identical partition + integer conductance in SQL."""
    parts = _lpa_cte_parts(nodes_sql, edges_sql, iters)
    parts.append(
        _partition_terms_ctes(iters)
        + """,
t AS (
  SELECT c.community, c.n_nodes,
         COALESCE(ds.degree_sum, 0)
           - 2 * COALESCE(i.intra_edges, 0) AS cut_edges,
         COALESCE(ds.degree_sum, 0) AS degree_sum,
         (SELECT COALESCE(SUM(degree), 0) FROM deg) AS two_m
  FROM comm c
  LEFT JOIN intra i ON i.community = c.community
  LEFT JOIN degsum ds ON ds.community = c.community
)
SELECT community, n_nodes,
       CAST(cut_edges AS BIGINT) AS cut_edges,
       CAST(degree_sum AS BIGINT) AS degree_sum,
       CAST(CASE WHEN least(degree_sum, two_m - degree_sum) > 0
                 THEN 1000 * cut_edges
                      // least(degree_sum, two_m - degree_sum)
                 ELSE 0 END AS BIGINT) AS conductance_permille
FROM t"""
    )
    return "\n".join(parts)


def adjacency_lists(edges: rd.Dataset, *, num_shards: int = 64) -> rd.Dataset:
    """Materialized sorted adjacency lists: per source node the distinct
    out-neighbor count and the comma-joined target list in byte order —
    kgw's edges-indexed-by-source access path (transform.py:27
    idx_edges_source) as an exportable table.

    Physical plan: distinct ordered pairs (ONE vocabulary-sized exchange),
    then a hash-sharded exchange on source and a fully-vectorized
    per-shard fold: lexsort by (s, t), segment boundaries via
    ``np.unique``, and the string join as ONE Arrow ``binary_join`` over a
    ListArray built from the segment offsets — no per-group Python loop.
    Skew note: a super-hub's list is one row; lists beyond ~10⁷ neighbors
    should switch to the exploded layout (this operator is for serving
    bounded-degree adjacency).
    """
    import pyarrow.compute as pc

    pairs = _distinct_ordered_pairs(edges)
    # num_shards: raise on a cluster so one shard group fits a worker

    def _shard(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(s.astype("U"), hash_key="kgw_ray_adjlist0") % num_shards
        return batch.append_column("_shard", pa.array(h.astype(np.int64)))

    _empty = pa.table(
        {
            "id": pa.array([], pa.string()),
            "outdeg": pa.array([], pa.int64()),
            "neighbors": pa.array([], pa.string()),
        }
    )

    def _per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        s = g["s"].to_numpy()
        t = g["t"].to_numpy()
        order = np.lexsort((t, s))
        s, t = s[order], t[order]
        uq, starts, counts = np.unique(s, return_index=True, return_counts=True)
        offsets = np.append(starts, len(t)).astype(np.int32)
        lists = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(t, pa.string())
        )
        joined = pc.binary_join(lists, ",")
        return pa.table(
            {
                "id": pa.array(uq, pa.string()),
                "outdeg": pa.array(counts.astype(np.int64)),
                "neighbors": joined,
            }
        )

    return (
        pairs.map_batches(_shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(_per_shard, batch_format="pandas")
    )


def bellman_ford(
    edges_w: rd.Dataset,
    *,
    rounds: int = 6,
    src_col: str = "s",
    dst_col: str = "t",
    w_col: str = "w",
) -> rd.Dataset:
    """k-round single-source WEIGHTED shortest paths (min-plus semiring —
    Bellman-Ford) over a directed edge set with nonnegative int64 weights:
    dist after round r = exact cheapest cost among paths of ≤ r edges
    from the lexicographically smallest node (the BFS source convention).

    Integer min-plus is engine-exact (the oracle unrolls the identical
    rounds). Physical plan per round: ONE size-hybrid join of the
    (node-vocabulary-sized) dist table onto the edge stream at ``s``, a
    per-batch min combiner of ``dist+w`` per target, then a grouped Min
    folding candidates against the previous dist table — the edge stream
    is materialized once and re-consumed; nothing corpus-sized crosses
    per round beyond ≤ one row per (block, reached node).

    Returns ``(id, dist)`` for nodes reachable within ``rounds`` edges.
    Overflow: path cost ≤ rounds·max(w) must fit int64.
    """
    pairs = edges_w.materialize()

    def _src_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.min(t.column(src_col)).as_py()
        n = pc.min(t.column(dst_col)).as_py()
        cand = [x for x in (m, n) if x is not None]
        if not cand:  # explicit None test: "" is a VALID (falsy) node id
            return pa.table({"lo": pa.array([], pa.string())})
        return pa.table({"lo": pa.array([min(cand)], pa.string())})

    los = pairs.map_batches(_src_partial, batch_format="pyarrow").to_pandas()
    if len(los) == 0:
        return rd.from_arrow(
            pa.table({"id": pa.array([], pa.string()), "dist": pa.array([], pa.int64())})
        )
    source = los["lo"].min()

    dist = rd.from_arrow(
        pa.table({"id": pa.array([source], pa.string()), "dist": pa.array([0], pa.int64())})
    )

    def _cand_partial(batch: pa.Table) -> pa.Table:
        d = pc_int64(batch.column("dist"))
        w = pc_int64(batch.column(w_col))
        df = pd.DataFrame(
            {"id": batch.column(dst_col).to_numpy(zero_copy_only=False), "dist": d + w}
        )
        g = df.groupby("id", sort=False)["dist"].min().reset_index()
        return pa.table(
            {
                "id": pa.array(g["id"].to_numpy(), pa.string()),
                "dist": pa.array(g["dist"].to_numpy().astype(np.int64)),
            }
        )

    for _ in range(rounds):
        reached = _hybrid_attach(pairs, dist, on=src_col, right_on="id")
        cands = reached.map_batches(_cand_partial, batch_format="pyarrow")
        dist = grouped_aggregate_hybrid(
            cands.union(dist), "id", [("dist", "min", "dist")]
        ).materialize()

    return dist


def bellman_ford_sql(edges_sql: str, *, rounds: int = 6) -> str:
    """The identical k-round integer min-plus iteration unrolled into CTEs.
    ``edges_sql`` must yield (s, t, w)."""
    parts = [
        f"WITH e AS ({edges_sql}),",
        "src AS (SELECT LEAST(MIN(s), MIN(t)) AS v FROM e),",
        "d0 AS (SELECT v AS id, CAST(0 AS BIGINT) AS dist FROM src"
        " WHERE v IS NOT NULL)",
    ]
    for r in range(1, rounds + 1):
        p = r - 1
        parts.append(
            f""",
c{r} AS (SELECT e.t AS id, MIN(d.dist + e.w) AS dist
        FROM e JOIN d{p} d ON d.id = e.s GROUP BY e.t),
d{r} AS (SELECT id, MIN(dist) AS dist FROM (
          SELECT id, dist FROM d{p} UNION ALL SELECT id, dist FROM c{r}
        ) GROUP BY id)"""
        )
    parts.append(f"\nSELECT id, CAST(dist AS BIGINT) AS dist FROM d{rounds}")
    return "\n".join(parts)


# the packed (src, id) anti-join key separator: a control char no unified-IR
# node id contains (ids are 'E:<word>' / '<type>:<key>' strings)
_PAIR_SEP = "\x1f"


def _pack_pair_key(t: pa.Table, a: str, b: str) -> pa.Table:
    import pyarrow.compute as pc

    return t.append_column(
        "k", pc.binary_join_element_wise(t.column(a), t.column(b), _PAIR_SEP)
    )


def sssp_counts(
    edges: rd.Dataset,
    *,
    rounds: int = 6,
    src: str = "source_id",
    dst: str = "target_id",
    seeds: rd.Dataset | None = None,
) -> rd.Dataset:
    """Multi-source level-synchronized BFS with shortest-path COUNTING —
    the σ_st table Brandes-style betweenness and path-diversity metrics
    consume. Runs on the distinct DIRECTED simple-edge set (parallel
    edges deduped first: they would multiply counts).

    ``seeds`` defaults to every node (all-pairs, right for
    vocabulary-sized graphs); at open-vocabulary scale pass a bounded
    deterministic seed set (e.g. the K smallest ids) — the published
    source-sampled betweenness estimator runs on exactly this output.

    Physical plan per hop (all vocabulary-sized, nothing corpus-sized on
    the driver): ONE size-hybrid attach of the frontier onto the edge
    set, a per-batch (seed, target) partial-sum combiner, the grouped
    Sum, then a size-hybrid anti join against the settled set on a
    packed (seed, node) key. Frontiers shrink monotonically; the loop
    exits early when one empties. Returns (src, id, dist, n_paths) for
    pairs reachable within ``rounds`` hops.

    Correctness sketch: a node at hop d is settled exactly at round d,
    when every hop-(d-1) predecessor's count is final; candidates in
    later rounds are anti-joined away, so no shortest path is counted
    twice (pinned against brute-force enumeration in tests)."""
    pairs = _distinct_ordered_pairs(edges, src, dst).materialize()
    if seeds is None:
        seeds = nodes_from_edges(pairs, src="s", dst="t")

    def _seed_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t.column("id"),
                "id": t.column("id"),
                "cnt": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )

    frontier = seeds.map_batches(_seed_rows, batch_format="pyarrow")

    def _with_dist(ds: rd.Dataset, d: int) -> rd.Dataset:
        return ds.map_batches(
            lambda t, _d=d: _pack_pair_key(t, "src", "id").append_column(
                "dist", pa.array(np.full(t.num_rows, _d, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )

    settled = _with_dist(frontier, 0).materialize()
    for r in range(1, rounds + 1):
        reached = _hybrid_attach(pairs, frontier, on="s", right_on="id")

        def _cand_partial(batch: pa.Table) -> pa.Table:
            df = pd.DataFrame(
                {
                    "src": batch.column("src").to_numpy(zero_copy_only=False),
                    "t": batch.column("t").to_numpy(zero_copy_only=False),
                    "cnt": batch.column("cnt").to_numpy(zero_copy_only=False),
                }
            )
            g = df.groupby(["src", "t"], sort=False)["cnt"].sum().reset_index()
            return pa.table(
                {
                    "src": pa.array(g["src"].to_numpy(), pa.string()),
                    "id": pa.array(g["t"].to_numpy(), pa.string()),
                    "cnt": pa.array(g["cnt"].to_numpy().astype(np.int64)),
                }
            )

        cands = grouped_aggregate_hybrid(
            reached.map_batches(_cand_partial, batch_format="pyarrow"),
            ["src", "id"],
            [("cnt", "sum", "cnt")],
        )
        from kgw_ray.stages.joins import anti_join

        cands = cands.map_batches(
            lambda t: _pack_pair_key(t, "src", "id"), batch_format="pyarrow"
        )
        fresh = anti_join(cands, settled, on="k").materialize()
        if fresh.count() == 0:
            break
        frontier = fresh.drop_columns(["k"])
        settled = settled.union(
            fresh.map_batches(
                lambda t, _d=r: t.append_column(
                    "dist", pa.array(np.full(t.num_rows, _d, dtype=np.int64))
                ),
                batch_format="pyarrow",
            )
        ).materialize()
    return settled.drop_columns(["k"]).rename_columns({"cnt": "n_paths"})


def sssp_counts_sql(edges_sql: str, *, rounds: int = 6) -> str:
    """The identical level-synchronized counting BFS unrolled into CTEs
    (all seeds = all nodes). ``edges_sql`` must yield directed (s, t);
    pairs are deduped here. Iteration CTEs are MATERIALIZED — each level
    is referenced twice downstream, so plain CTEs would inline the plan
    exponentially in ``rounds``."""
    parts = [
        f"WITH e AS MATERIALIZED (SELECT DISTINCT s, t FROM ({edges_sql})),",
        "n AS (SELECT s AS v FROM e UNION SELECT t AS v FROM e),",
        "s0 AS MATERIALIZED (SELECT v AS src, v AS id,"
        " CAST(0 AS BIGINT) AS dist, CAST(1 AS BIGINT) AS cnt FROM n)",
    ]
    for r in range(1, rounds + 1):
        p = r - 1
        parts.append(
            f""",
f{r} AS MATERIALIZED (
  SELECT f.src, e.t AS id, CAST(SUM(f.cnt) AS BIGINT) AS cnt
  FROM s{p} f JOIN e ON e.s = f.id
  LEFT JOIN s{p} st ON st.src = f.src AND st.id = e.t
  WHERE f.dist = {p} AND st.id IS NULL
  GROUP BY f.src, e.t),
s{r} AS MATERIALIZED (
  SELECT src, id, dist, cnt FROM s{p}
  UNION ALL
  SELECT src, id, CAST({r} AS BIGINT) AS dist, cnt FROM f{r})"""
        )
    parts.append(
        f"\nSELECT src, id, dist, cnt AS n_paths FROM s{rounds}"
    )
    return "\n".join(parts)


def betweenness_from_counts(
    apsp: rd.Dataset,
    *,
    driver_limit: int = 2_000_000,
    force_exchange: bool = False,
) -> rd.Dataset:
    """EXACT betweenness centrality in integer micro-units from the σ
    table: bc_micro(v) = Σ_{s≠v≠t, s≠t} (σ_sv · σ_vt · 10^6) // σ_st over
    triples with d_sv + d_vt = d_st — per-term integer floor keeps both
    engines bit-identical (the fractional Brandes sum is float-unstable).

    Size-hybrid fold (the chain_depth convention): σ tables under
    ``driver_limit`` rows fold in driver pandas (a vocabulary²-bounded
    statistic at KG scale — the kmeans/centroid rule); beyond the limit
    (or with ``force_exchange``, the parity-test hook) the fold is
    distributed — the σ table shuffles by intermediate node ``v`` (one
    hash join), closing pairs attach by (s, t) (second hash join), and
    each partition folds its triples locally with the per-term integer
    floor (order-independent), so nothing σ-scale ever lands on the
    driver. At open-vocabulary scale feed a seed-sampled σ table and
    divide by the seed fraction."""
    apsp = apsp.materialize()
    if apsp.count() == 0:  # empty graph: typed empty result
        return rd.from_arrow(
            pa.table(
                {
                    "id": pa.array([], pa.string()),
                    "betweenness_micro": pa.array([], pa.int64()),
                }
            )
        )
    if not force_exchange and apsp.count() <= driver_limit:
        ap = apsp.to_pandas()
        nodes = pd.unique(ap["src"])
        sv = ap.rename(
            columns={"src": "s", "id": "v", "dist": "d_sv", "n_paths": "c_sv"}
        )
        vt = ap.rename(
            columns={"src": "v", "id": "t", "dist": "d_vt", "n_paths": "c_vt"}
        )
        st = ap.rename(
            columns={"src": "s", "id": "t", "dist": "d_st", "n_paths": "c_st"}
        )
        m = sv.merge(vt, on="v").merge(st, on=["s", "t"])
        m = m[
            (m.d_sv + m.d_vt == m.d_st)
            & (m.s != m.v)
            & (m.v != m.t)
            & (m.s != m.t)
        ]
        if len(m) and int(m.c_sv.max()) * int(m.c_vt.max()) > 2**42:
            # σ products ride int64 alongside the 10^6 scale; fail loudly
            # instead of wrapping (HUGEINT on the oracle side would diverge)
            raise ValueError(
                "betweenness_from_counts: path counts too large for the "
                "int64 micro-unit fold"
            )
        term = (
            m.c_sv.to_numpy(dtype=np.int64)
            * m.c_vt.to_numpy(dtype=np.int64)
            * 1_000_000
        ) // m.c_st.to_numpy(dtype=np.int64)
        bc = (
            pd.DataFrame({"id": m.v.to_numpy(), "bc": term})
            .groupby("id", sort=False)["bc"]
            .sum()
        )
        out = pd.DataFrame({"id": nodes})
        out["betweenness_micro"] = (
            out["id"].map(bc).fillna(0).astype("int64")
        )
        return rd.from_arrow(
            pa.table(
                {
                    "id": pa.array(out["id"].to_numpy(), pa.string()),
                    "betweenness_micro": pa.array(
                        out["betweenness_micro"].to_numpy()
                    ),
                }
            )
        )

    # distributed fold: σ ⋈ σ on the intermediate node, σ on (s, t)
    from kgw_ray.stages.joins import large_join

    sv = apsp.rename_columns(
        {"src": "s", "id": "v", "dist": "d_sv", "n_paths": "c_sv"}
    )
    vt = apsp.rename_columns(
        {"src": "v", "id": "t", "dist": "d_vt", "n_paths": "c_vt"}
    )
    st = apsp.rename_columns(
        {"src": "s", "id": "t", "dist": "d_st", "n_paths": "c_st"}
    )
    m1 = large_join(sv, vt, on=["v"])
    m2 = large_join(m1, st, on=["s", "t"])

    def _term_partial(t: pa.Table) -> pa.Table:
        s = t.column("s").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        tt = t.column("t").to_numpy(zero_copy_only=False)
        d_sv = t.column("d_sv").to_numpy(zero_copy_only=False)
        d_vt = t.column("d_vt").to_numpy(zero_copy_only=False)
        d_st = t.column("d_st").to_numpy(zero_copy_only=False)
        keep = (d_sv + d_vt == d_st) & (s != v) & (v != tt) & (s != tt)
        c_sv = t.column("c_sv").to_numpy(zero_copy_only=False)[keep].astype(np.int64)
        c_vt = t.column("c_vt").to_numpy(zero_copy_only=False)[keep].astype(np.int64)
        c_st = t.column("c_st").to_numpy(zero_copy_only=False)[keep].astype(np.int64)
        # overflow guard BEFORE the multiply (Python ints, like the driver
        # path): checking prod.max() after an int64 multiply would let a
        # wrapped product slip past the bound silently
        if len(c_sv) and int(c_sv.max()) * int(c_vt.max()) > 2**42:
            raise ValueError(
                "betweenness_from_counts: path counts too large for the "
                "int64 micro-unit fold"
            )
        term = c_sv * c_vt * 1_000_000 // c_st
        g = (
            pd.DataFrame({"id": v[keep], "bc": term})
            .groupby("id", sort=False)["bc"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "id": pa.array(g["id"].to_numpy(), pa.string()),
                "bc": pa.array(g["bc"].to_numpy().astype(np.int64)),
            }
        )

    bc = grouped_aggregate_hybrid(
        m2.map_batches(_term_partial, batch_format="pyarrow"),
        "id",
        [("bc", "sum", "bc")],
    )

    def _node_partial(t: pa.Table) -> pa.Table:
        ids = np.unique(t.column("src").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "id": pa.array(ids, pa.string()),
                "one": pa.array(np.ones(len(ids), dtype=np.int64)),
            }
        )

    nodes_ds = grouped_aggregate_hybrid(
        apsp.map_batches(_node_partial, batch_format="pyarrow"),
        "id",
        [("one", "sum", "n")],
    ).select_columns(["id"])
    # assemble WITHOUT a left join: bc restricted to seed nodes ∪ zero rows
    # for seeds carrying no mass — int64 survives exactly (a pandas left
    # merge would round-trip bc through float64 NaN, corrupting > 2^53)
    from kgw_ray.stages.joins import anti_join, semi_join_dataset

    bc = bc.materialize()
    with_mass = semi_join_dataset(bc, nodes_ds, on="id", key_col="id").map_batches(
        lambda t: pa.table(
            {
                "id": t.column("id"),
                "betweenness_micro": pc.cast(t.column("bc"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    zeros = anti_join(nodes_ds, bc, on="id", key_col="id").map_batches(
        lambda t: pa.table(
            {
                "id": t.column("id"),
                "betweenness_micro": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
            }
        ),
        batch_format="pyarrow",
    )
    return with_mass.union(zeros)


def nodes_from_edges(
    edges: rd.Dataset, *, src: str = "source_id", dst: str = "target_id"
) -> rd.Dataset:
    """Distinct endpoint ids of an edge dataset → ``(id)`` — the shared
    node-derivation for operators whose node set IS the edge vocabulary
    (HITS, label propagation). Per-batch melt + unique combiner, one
    vocabulary-sized exchange."""

    def _melt(t: pa.Table) -> pa.Table:
        ids = np.unique(
            np.concatenate(
                [
                    t.column(src).to_numpy(zero_copy_only=False),
                    t.column(dst).to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table(
            {
                "id": pa.array(ids, pa.string()),
                "one": pa.array(np.ones(len(ids), dtype=np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        edges.map_batches(_melt, batch_format="pyarrow"),
        "id",
        [("one", "sum", "n")],
    ).select_columns(["id"])


def _grouped_min_label(ds: rd.Dataset) -> rd.Dataset:
    """(id, label) partial rows → one MIN label per id (per-batch pandas
    combiner + the size-hybrid grouped Min)."""

    def _partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "id": t.column("id").to_numpy(zero_copy_only=False),
                "label": t.column("label").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("id", sort=False)["label"].min().reset_index()
        return pa.table(
            {
                "id": pa.array(g["id"].to_numpy(), pa.string()),
                "label": pa.array(g["label"].to_numpy(), pa.string()),
            }
        )

    return grouped_aggregate_hybrid(
        ds.map_batches(_partial, batch_format="pyarrow"),
        "id",
        [("label", "min", "label")],
    )


def strongly_connected_components(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    max_peels: int = 32,
    max_rounds: int = 64,
) -> rd.Dataset:
    """Distributed SCC by FORWARD-MIN COLORING + BACKWARD CONFIRMATION
    (the FW-BW / coloring family — Fleischer et al. 2000, Orzan 2004),
    expressed entirely as vocabulary-sized Dataset joins:

    peel loop (≤ ``max_peels``; typically O(log |SCC|) on web graphs):
      1. color(v) = min node id that forward-reaches v within the
         remaining subgraph — min-label propagation along edges, one
         size-hybrid attach + grouped Min per round, early-exit when a
         round changes nothing;
      2. every color class contains exactly one ROOT r (color(r)=r);
         nodes of SCC(r) all carry color r (reachers(v) = reachers(r)
         for v in SCC(r)), so
      3. the backward BFS from each root along REVERSED edges restricted
         to its own color class reaches exactly SCC(r) — all roots
         confirm in parallel in the same frontier Dataset;
      4. confirmed nodes peel off (anti joins); repeat on the rest.

    Returns (id, scc) with scc = the component's min node id. Raises if
    coloring or peeling fails to converge within the caps (silent
    truncation would mislabel components)."""
    from kgw_ray.stages.joins import anti_join

    pairs = _distinct_ordered_pairs(edges, src, dst).materialize()
    remaining = nodes_from_edges(pairs, src="s", dst="t").materialize()
    done_parts: list[rd.Dataset] = []
    for _peel in range(max_peels):
        if remaining.count() == 0:
            break
        # ---- 1. forward-min coloring within the remaining subgraph
        color = remaining.map_batches(
            lambda t: pa.table({"id": t.column("id"), "label": t.column("id")}),
            batch_format="pyarrow",
        ).materialize()
        for _r in range(max_rounds):
            # candidate labels flow s → t along remaining edges
            reached = _hybrid_attach(pairs, color, on="s", right_on="id")
            cands = reached.map_batches(
                lambda t: pa.table(
                    {"id": t.column("t"), "label": t.column("label")}
                ),
                batch_format="pyarrow",
            )
            new = _grouped_min_label(cands.union(color)).materialize()
            # stability probe: any id whose label shrank this round?
            chk = _hybrid_attach(
                new.rename_columns({"label": "new_label"}),
                color,
                on="id",
                right_on="id",
            )
            changed = chk.map_batches(
                lambda t: t.filter(
                    pc.not_equal(t.column("new_label"), t.column("label"))
                ).select(["id"]),
                batch_format="pyarrow",
            ).count()
            color = new
            if changed == 0:
                break
        else:
            raise RuntimeError(
                "strongly_connected_components: coloring did not converge "
                f"within {max_rounds} rounds"
            )
        # colors only ever shrink toward the true min, so `color` is exact
        # ---- 2+3. backward confirmation from all roots in parallel
        roots = color.map_batches(
            lambda t: t.filter(
                pc.equal(t.column("id"), t.column("label"))
            ).select(["id"]),
            batch_format="pyarrow",
        )
        settled = roots.map_batches(
            lambda t: _pack_pair_key(
                pa.table({"root": t.column("id"), "id": t.column("id")}),
                "root",
                "id",
            ),
            batch_format="pyarrow",
        ).materialize()
        frontier = settled.drop_columns(["k"])
        # reversed edges carrying the TARGET's color: predecessor v joins
        # the root's set only if color(v) == root
        rev = _hybrid_attach(pairs, color, on="s", right_on="id").map_batches(
            # project away the joined-in 'id' column: the frontier attach
            # below joins on right_on='id' and a lingering left 'id' would
            # make pandas suffix both into id_x/id_y
            lambda t: t.select(["s", "t", "label"]),
            batch_format="pyarrow",
        )
        # rev rows: (s, t, label(s)); walk t → s restricted to label match
        for _r in range(max_rounds):
            hop = _hybrid_attach(rev, frontier, on="t", right_on="id")
            cand = hop.map_batches(
                lambda t: _pack_pair_key(
                    pa.table(
                        {"root": t.column("root"), "id": t.column("s")}
                    ).filter(pc.equal(t.column("label"), t.column("root"))),
                    "root",
                    "id",
                ),
                batch_format="pyarrow",
            )
            # dedup candidates before the anti join (many paths, one row)
            cand = grouped_aggregate_hybrid(
                cand.map_batches(
                    lambda t: t.append_column(
                        "one", pa.array(np.ones(t.num_rows, dtype=np.int64))
                    ),
                    batch_format="pyarrow",
                ),
                ["root", "id", "k"],
                [("one", "sum", "n")],
            ).drop_columns(["n"])
            fresh = anti_join(cand, settled, on="k").materialize()
            if fresh.count() == 0:
                break
            frontier = fresh.drop_columns(["k"])
            settled = settled.union(fresh).materialize()
        else:
            raise RuntimeError(
                "strongly_connected_components: backward confirmation did "
                f"not converge within {max_rounds} rounds"
            )
        part = settled.map_batches(
            lambda t: pa.table(
                {"id": t.column("id"), "scc": t.column("root")}
            ),
            batch_format="pyarrow",
        ).materialize()
        done_parts.append(part)
        remaining = anti_join(remaining, part, on="id").materialize()
        # shrink the edge set to the unassigned subgraph (both endpoints)
        pairs = anti_join(
            anti_join(pairs, part, on="s", key_col="id"),
            part,
            on="t",
            key_col="id",
        ).materialize()
    else:
        raise RuntimeError(
            f"strongly_connected_components: {max_peels} peels exhausted"
        )
    if not done_parts:  # empty graph: typed empty component table
        return rd.from_arrow(
            pa.table(
                {"id": pa.array([], pa.string()), "scc": pa.array([], pa.string())}
            )
        )
    out = done_parts[0]
    for p in done_parts[1:]:
        out = out.union(p)
    return out


def scc_sql(edges_sql: str) -> str:
    """INDEPENDENT oracle: mutual reachability via one recursive CTE —
    scc(x) = MIN over {y : x reaches y AND y reaches x} (self included).
    Re-derives, does not replay the coloring algorithm."""
    return f"""
WITH RECURSIVE e AS (SELECT DISTINCT s, t FROM ({edges_sql})),
n AS (SELECT s AS v FROM e UNION SELECT t AS v FROM e),
r(src, id) AS (
  SELECT v, v FROM n
  UNION
  SELECT r.src, e.t FROM r JOIN e ON e.s = r.id
)
SELECT a.src AS id, MIN(a.id) AS scc
FROM r a JOIN r b ON b.src = a.id AND b.id = a.src
GROUP BY a.src
"""


def _reach_from(
    pairs: rd.Dataset,
    seeds: rd.Dataset,
    *,
    forward: bool = True,
    max_rounds: int = 64,
) -> rd.Dataset:
    """Distinct nodes reachable from the ``seeds`` id set along directed
    (s→t if forward else t→s) edges — the multi-source BSP frontier loop
    (one size-hybrid attach + one distinct combiner + one anti join per
    hop; frontiers shrink monotonically, early exit on empty). Returns
    the visited set INCLUDING the seeds. Everything exchanged is
    frontier-adjacency-bounded; nothing graph-sized lands on the
    driver."""
    from kgw_ray.stages.joins import anti_join

    key_from, key_to = ("s", "t") if forward else ("t", "s")

    def _next_partial(t: pa.Table, col: str = key_to) -> pa.Table:
        u = np.unique(t.column(col).to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "id": pa.array(u, pa.string()),
                "one": pa.array(np.ones(len(u), dtype=np.int64)),
            }
        )

    frontier = seeds.materialize()
    visited = frontier
    for _ in range(max_rounds):
        reached = _hybrid_attach(pairs, frontier, on=key_from, right_on="id")
        nxt = grouped_aggregate_hybrid(
            reached.map_batches(_next_partial, batch_format="pyarrow"),
            "id",
            [("one", "sum", "n")],
        ).select_columns(["id"])
        fresh = anti_join(nxt, visited, on="id").materialize()
        if fresh.count() == 0:
            break
        frontier = fresh
        visited = visited.union(fresh).materialize()
    return visited


def bowtie_profile(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
) -> rd.Dataset:
    """Bow-tie decomposition of a directed graph (Broder et al. 2000, the
    canonical web-graph macro-structure): the largest SCC is the CORE,
    IN = nodes that reach the core, OUT = nodes the core reaches,
    OTHER = tendrils/tubes/disconnected. Returns per-class node counts.

    Physical plan: the gated SCC coloring → vocabulary-sized component
    census → ONE distributed_topk row picks the core label (size desc,
    label asc) → two multi-source BSP reach loops (_reach_from, forward
    and backward) seeded by the core → membership priorities union into
    one grouped Min (no joins: core=0 < in=1 < out=2 < other=3, and SCC
    maximality makes {in ∩ out} \\ core impossible, so the priority order
    is semantics-free) → a 4-row class census. The oracle re-derives
    every stage independently (recursive-CTE reachability)."""
    pairs = _distinct_ordered_pairs(edges, src, dst).materialize()
    nodes = nodes_from_edges(pairs, src="s", dst="t").materialize()
    comp = strongly_connected_components(edges, src=src, dst=dst).materialize()

    def _one(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "scc": t.column("scc"),
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )

    sizes = grouped_aggregate_hybrid(
        comp.map_batches(_one, batch_format="pyarrow"),
        "scc",
        [("one", "sum", "n")],
    )
    from kgw_ray.pipelines.relational import distributed_topk

    top = distributed_topk(sizes, ["n", "scc"], [True, False], 1)

    def _pri(ds: rd.Dataset, p: int) -> rd.Dataset:
        return ds.map_batches(
            lambda t, _p=p: pa.table(
                {
                    "id": t.column("id"),
                    "p": pa.array(np.full(t.num_rows, _p, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )

    if top.num_rows == 0:
        allpri = _pri(nodes, 3)
    else:
        core_label = top.column("scc")[0].as_py()
        core = (
            comp.filter(expr=f'scc == "{core_label}"')
            .select_columns(["id"])
            .materialize()
        )
        bwd = _reach_from(pairs, core, forward=False)
        fwd = _reach_from(pairs, core, forward=True)
        allpri = (
            _pri(core, 0).union(_pri(bwd, 1)).union(_pri(fwd, 2)).union(_pri(nodes, 3))
        )

    membership = grouped_aggregate_hybrid(allpri, "id", [("p", "min", "p")])
    _CLASSES = np.array(["core", "in", "out", "other"])

    def _census(t: pa.Table) -> pa.Table:
        p = t.column("p").to_numpy(zero_copy_only=False).astype(np.int64)
        cls = _CLASSES[p]
        uq, cnt = np.unique(cls, return_counts=True)
        return pa.table(
            {
                "class": pa.array(uq, pa.string()),
                "n_nodes": pa.array(cnt.astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        membership.map_batches(_census, batch_format="pyarrow"),
        "class",
        [("n_nodes", "sum", "n_nodes")],
    )


def bowtie_sql(edges_sql: str) -> str:
    """INDEPENDENT oracle: ONE recursive reachability closure r(src, id)
    powers everything — SCC labels via mutual reachability (scc_sql's
    identity), core = (size desc, label asc) top-1, IN = sources reaching
    the core, OUT = targets the core reaches, then the same priority-min
    classification as the engine. (A nested WITH RECURSIVE subquery
    inside an outer recursive WITH crashes DuckDB's planner, hence the
    single flattened closure.)"""
    return f"""
WITH RECURSIVE e AS MATERIALIZED (SELECT DISTINCT s, t FROM ({edges_sql})),
n AS (SELECT s AS v FROM e UNION SELECT t AS v FROM e),
r(src, id) AS (
  SELECT v, v FROM n
  UNION
  SELECT r.src, e.t FROM r JOIN e ON e.s = r.id
),
comps AS (
  SELECT a.src AS id, MIN(a.id) AS scc
  FROM r a JOIN r b ON b.src = a.id AND b.id = a.src
  GROUP BY a.src
),
csize AS (SELECT scc, COUNT(*) AS n FROM comps GROUP BY scc),
core_label AS (SELECT scc FROM csize ORDER BY n DESC, scc LIMIT 1),
core AS (SELECT id FROM comps WHERE scc = (SELECT scc FROM core_label)),
fwd AS (SELECT DISTINCT r.id FROM r JOIN core c ON r.src = c.id),
bwd AS (SELECT DISTINCT r.src AS id FROM r JOIN core c ON r.id = c.id),
pri AS (
  SELECT id, 0 AS p FROM core
  UNION ALL SELECT id, 1 AS p FROM bwd
  UNION ALL SELECT id, 2 AS p FROM fwd
  UNION ALL SELECT v AS id, 3 AS p FROM n
),
m AS (SELECT id, MIN(p) AS p FROM pri GROUP BY id)
SELECT CASE m.p WHEN 0 THEN 'core' WHEN 1 THEN 'in' WHEN 2 THEN 'out'
       ELSE 'other' END AS class,
       CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM m GROUP BY 1
"""


def random_walks(
    edges: rd.Dataset,
    *,
    length: int = 4,
    src: str = "source_id",
    dst: str = "target_id",
) -> rd.Dataset:
    """DETERMINISTIC random walks — one walk of ≤ ``length`` hops from
    every node, the corpus node2vec/DeepWalk samplers feed on. The
    "random" next hop is an argmin over a portable hash: at step r the
    walk started at s moves to the out-neighbor t minimizing
    ``md5_le(s|r|t)`` — per-walk, per-step pseudo-randomness that any
    engine (and the SQL oracle) reproduces bit-for-bit, where a PRNG
    would be block-layout-dependent.

    Physical plan per hop: ONE size-hybrid attach of the walk frontier
    onto the (distinct, materialized) edge set, then the packed-key
    grouped Min (lpad(hash,20)||t — the lexicographic Min IS the
    (hash, t) argmin, the repo's packed-order trick) selects each walk's
    next node. The hop hash is VECTORIZED portable splitmix64
    (functions/porthash): mix64(mix64(base_start ^ r) ^ base_t) over
    md5-LE bases hashed ONCE per node / pair endpoint — no per-row md5
    in the hop loop (the r4 review's constant-factor tax). Walks die at
    sinks (no row emitted past a dead end). Output: (start, step, node),
    step 0 = the start itself."""
    from kgw_ray.functions.porthash import md5_le_u64, mix64, u64_to_key20

    def _base_pairs(t: pa.Table) -> pa.Table:
        ts = t.column("t").to_numpy(zero_copy_only=False)
        # int64 VIEW of the uint64 base: grouped Min never runs on it and
        # signed storage keeps every exchange kernel happy
        return pa.table(
            {
                "s": t.column("s"),
                "t": t.column("t"),
                "ht": pa.array(md5_le_u64(ts).view(np.int64)),
            }
        )

    pairs = (
        _distinct_ordered_pairs(edges, src, dst)
        .map_batches(_base_pairs, batch_format="pyarrow")
        .materialize()
    )
    nodes = nodes_from_edges(pairs, src="s", dst="t")

    def _seed(t: pa.Table) -> pa.Table:
        ids = t.column("id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "start": t.column("id"),
                "hstart": pa.array(md5_le_u64(ids).view(np.int64)),
                "step": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "node": t.column("id"),
            }
        )

    seeds = nodes.map_batches(_seed, batch_format="pyarrow").materialize()
    walk_rows = [seeds.select_columns(["start", "step", "node"])]
    frontier = seeds.map_batches(
        lambda t: pa.table(
            {
                "start": t.column("start"),
                "hstart": t.column("hstart"),
                "cur": t.column("node"),
            }
        ),
        batch_format="pyarrow",
    )
    for r in range(1, length + 1):
        cands = _hybrid_attach(pairs, frontier, on="s", right_on="cur")

        def _pick_partial(batch: pa.Table, *, _r=r) -> pa.Table:
            starts = batch.column("start").to_numpy(zero_copy_only=False)
            hstart = (
                batch.column("hstart")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
                .view(np.uint64)
            )
            ts = batch.column("t").to_numpy(zero_copy_only=False)
            ht = (
                batch.column("ht")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
                .view(np.uint64)
            )
            hu = mix64(mix64(hstart ^ np.uint64(_r)) ^ ht)
            if len(ts):
                keys = np.char.add(u64_to_key20(hu), ts.astype("U"))
            else:
                keys = np.zeros(0, dtype=object)
            df = pd.DataFrame(
                {"start": starts, "hstart": hstart.view(np.int64), "key": keys}
            )
            g = (
                df.groupby("start", sort=False)
                .agg(key=("key", "min"), hstart=("hstart", "first"))
                .reset_index()
            )
            return pa.table(
                {
                    "start": pa.array(g["start"].to_numpy(), pa.string()),
                    "hstart": pa.array(g["hstart"].to_numpy().astype(np.int64)),
                    "key": pa.array(g["key"].to_numpy(), pa.string()),
                }
            )

        picked = grouped_aggregate_hybrid(
            cands.map_batches(_pick_partial, batch_format="pyarrow"),
            "start",
            [("key", "min", "key"), ("hstart", "min", "hstart")],
        )

        def _unpack(t: pa.Table, *, _r=r) -> pa.Table:
            key = t.column("key")
            node = pc.utf8_slice_codeunits(key, 20, 2**31 - 1)
            return pa.table(
                {
                    "start": t.column("start"),
                    "hstart": t.column("hstart"),
                    "step": pa.array(np.full(t.num_rows, _r, dtype=np.int64)),
                    "node": node,
                }
            )

        stepped = picked.map_batches(_unpack, batch_format="pyarrow").materialize()
        if stepped.count() == 0:
            break
        walk_rows.append(stepped.select_columns(["start", "step", "node"]))
        frontier = stepped.map_batches(
            lambda t: pa.table(
                {
                    "start": t.column("start"),
                    "hstart": t.column("hstart"),
                    "cur": t.column("node"),
                }
            ),
            batch_format="pyarrow",
        )
    out = walk_rows[0]
    for w in walk_rows[1:]:
        out = out.union(w)
    return out


def random_walks_sql(edges_sql: str, *, length: int = 4, md5_le_expr: str = "") -> str:
    """The identical argmin-hash walk unrolled into CTEs: per-node base =
    md5-LE-uint64 hashed ONCE (``md5_le_expr`` is the portable fragment
    over column ``hx``, training_data._MD5_LE_UINT64), per-hop hash =
    splitmix64(splitmix64(base_start ^ r) ^ base_t) via
    functions/porthash.mix64_sql — the same UHUGEINT arithmetic numpy
    computes, bit-for-bit."""
    if not md5_le_expr:
        raise ValueError(
            "random_walks_sql: md5_le_expr is required (an empty default "
            "would silently generate invalid SQL — pass the registry's "
            "md5-LE uint64 expression over column hx)"
        )
    from kgw_ray.functions.porthash import mix64_sql

    parts = [
        f"WITH e0 AS MATERIALIZED (SELECT DISTINCT s, t FROM ({edges_sql})),",
        "n AS (SELECT s AS v FROM e0 UNION SELECT t AS v FROM e0),",
        "bs AS MATERIALIZED (SELECT v, "
        f"({md5_le_expr}) AS base FROM (SELECT v, md5(v) AS hx FROM n)),",
        "e AS MATERIALIZED (SELECT e0.s, e0.t, bt.base AS bt "
        "FROM e0 JOIN bs bt ON bt.v = e0.t),",
        "w0 AS (SELECT v AS start, v AS node, base AS bstart FROM bs)",
    ]
    sel = ["SELECT start, CAST(0 AS BIGINT) AS step, node FROM w0"]
    for r in range(1, length + 1):
        p = r - 1
        inner = mix64_sql(f"xor(bstart, CAST({r} AS UBIGINT))")
        hu = mix64_sql(f"xor(({inner}), bt)")
        parts.append(
            f""",
c{r} AS (
  SELECT w.start, w.bstart, e.t, e.bt
  FROM w{p} w JOIN e ON e.s = w.node),
h{r} AS (SELECT start, bstart, t, {hu} AS hu FROM c{r}),
w{r} AS MATERIALIZED (
  SELECT start, bstart, t AS node FROM (
    SELECT start, bstart, t,
           ROW_NUMBER() OVER (PARTITION BY start ORDER BY hu, t) AS rk
    FROM h{r}) WHERE rk = 1)"""
        )
        sel.append(
            f"SELECT start, CAST({r} AS BIGINT) AS step, node FROM w{r}"
        )
    parts.append("\n" + "\nUNION ALL\n".join(sel))
    return "\n".join(parts)


def luby_mis(
    edges: rd.Dataset,
    *,
    rounds: int = 4,
    src: str = "source_id",
    dst: str = "target_id",
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """DETERMINISTIC Luby maximal-independent-set — the classic parallel
    symmetry-breaking primitive (seed selection for clustering, landmark
    placement, conflict-free scheduling). Each round every undecided node
    draws the portable priority ``md5_le(v|round)`` (the random-walks
    hash trick: bit-for-bit reproducible in any engine, where a PRNG
    would be block-layout-dependent) and joins the MIS iff its packed
    (priority, id) key is strictly smaller than every undecided
    neighbor's; winners' neighbors become ``dominated``. Fixed-round
    (Luby terminates in O(log n) rounds w.h.p.; leftovers report
    ``undecided`` with round −1 and both engines agree on them).

    Physical plan per round: undecided-subgraph edges via two size-hybrid
    semi-joins, ONE packed-key grouped Min per node (the argmin-hash
    pattern), winners by vectorized key compare with the no-undecided-
    neighbor case falling out of a size-hybrid LEFT attach of the
    (Dataset-valued) min-neighbor table, removals via size-hybrid
    anti-joins — every exchanged table is node-vocabulary-sized and
    nothing node-scale is pulled to the driver.

    Priorities are PORTABLE and vectorized (functions/porthash): base =
    md5-LE-uint64(id) computed ONCE per pair endpoint / node (the only
    per-row hash, paid once — not per round per edge), per-round priority
    = splitmix64(base ^ round), bit-identical to the oracle's UHUGEINT
    arithmetic; the packed key lpad(priority,20)||id makes ties
    impossible. Zero-row blocks (the semi/anti-join filter paths emit
    them) pass through: every kernel is typed-dtype vectorized."""
    from kgw_ray.functions.porthash import md5_le_u64, mix64, u64_to_key20
    from kgw_ray.stages.joins import anti_join, semi_join_dataset

    # one knob forces EVERY size-hybrid join in the round loop onto the
    # shuffle path (the forced-distributed parity-test hook; 0 = shuffle)
    _bl = 5_000_000 if broadcast_limit is None else broadcast_limit

    def _base_pairs(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": t.column("a"),
                "b": t.column("b"),
                "ha": pa.array(md5_le_u64(a), pa.uint64()),
                "hb": pa.array(md5_le_u64(b), pa.uint64()),
            }
        )

    pairs = (
        _distinct_undirected_pairs(edges, src, dst)
        .map_batches(_base_pairs, batch_format="pyarrow")
        .materialize()
    )

    def _base_nodes(t: pa.Table) -> pa.Table:
        ids = t.column("id").to_numpy(zero_copy_only=False)
        return pa.table(
            {"id": t.column("id"), "h": pa.array(md5_le_u64(ids), pa.uint64())}
        )

    undecided = (
        nodes_from_edges(pairs, src="a", dst="b")
        .map_batches(_base_nodes, batch_format="pyarrow")
        .materialize()
    )
    decided_parts: list[rd.Dataset] = []

    def _packed_keys(h: np.ndarray, ids: np.ndarray, r: int) -> np.ndarray:
        """Packed (priority, id) keys: zfill20(mix64(h ^ r)) || id —
        typed-dtype vectorized, zero-row-safe (np.char on empty U arrays)."""
        pri = u64_to_key20(mix64(h.astype(np.uint64) ^ np.uint64(r)))
        if len(ids) == 0:
            return np.zeros(0, dtype=object)
        return np.char.add(pri, ids.astype("U"))

    for r in range(1, rounds + 1):
        if undecided.count() == 0:
            break
        # materialize between the chained semi-joins AND before the
        # touched_a/b joins below: join-output blocks can be empty-schema
        # and a downstream hash join then fails at aggregator finalize —
        # _compact_if_sparse (stages/joins.py:78) repairs exactly this,
        # but only on MATERIALIZED inputs (latent at gate scale, bites at
        # tiny/skewed partition counts)
        half = semi_join_dataset(
            pairs, undecided, on="a", key_col="id", broadcast_limit=_bl
        ).materialize()
        live = semi_join_dataset(
            half, undecided, on="b", key_col="id", broadcast_limit=_bl
        ).materialize()

        def _sym_keys(t: pa.Table, *, _r=r) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ha = t.column("ha").to_numpy(zero_copy_only=False)
            hb = t.column("hb").to_numpy(zero_copy_only=False)
            key_a = _packed_keys(ha, a, _r)
            key_b = _packed_keys(hb, b, _r)
            return pa.table(
                {
                    "c": pa.array(np.concatenate([a, b]), pa.string()),
                    "nkey": pa.array(np.concatenate([key_b, key_a]), pa.string()),
                }
            )

        min_nbr = grouped_aggregate_hybrid(
            live.map_batches(_sym_keys, batch_format="pyarrow"),
            "c",
            [("nkey", "min", "nkey")],
        ).materialize()

        def _own_key(t: pa.Table, *, _r=r) -> pa.Table:
            ids = t.column("id").to_numpy(zero_copy_only=False)
            h = t.column("h").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "id": t.column("id"),
                    "own": pa.array(_packed_keys(h, ids, _r), pa.string()),
                }
            )

        # size-hybrid LEFT attach of the min-neighbor Dataset; a node with
        # no undecided neighbor (null nkey) is isolated in the live
        # subgraph and wins unconditionally
        if min_nbr.count() == 0:
            # no live edges at all: every undecided node is isolated → wins
            winners = undecided.select_columns(["id"]).materialize()
        else:
            attached = _hybrid_attach(
                undecided.map_batches(_own_key, batch_format="pyarrow"),
                min_nbr,
                on="id",
                right_on="c",
                how="left",
                broadcast_limit=broadcast_limit,
            )

            def _winners(t: pa.Table) -> pa.Table:
                nk = (
                    t.column("nkey")
                    if "nkey" in t.column_names
                    else pa.nulls(t.num_rows, pa.string())
                )
                win = pc.fill_null(pc.less(t.column("own"), nk), True)
                return pa.table({"id": t.filter(win).column("id")})

            winners = attached.map_batches(
                _winners, batch_format="pyarrow"
            ).materialize()

        def _tag(status: str, *, _r=r):
            def tag(t: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        "id": t.column("id"),
                        "status": pa.array([status] * t.num_rows, pa.string()),
                        "round_decided": pa.array(
                            np.full(t.num_rows, _r, dtype=np.int64)
                        ),
                    }
                )

            return tag

        decided_parts.append(
            winners.map_batches(_tag("mis"), batch_format="pyarrow").materialize()
        )
        # dominated = undecided neighbors of winners (minus the winners)
        touched_a = semi_join_dataset(
            live, winners, on="a", key_col="id", broadcast_limit=_bl
        )
        touched_b = semi_join_dataset(
            live, winners, on="b", key_col="id", broadcast_limit=_bl
        )

        def _other(col_keep: str):
            def pick(t: pa.Table) -> pa.Table:
                return pa.table({"id": t.column(col_keep)})

            return pick

        nbrs = (
            touched_a.map_batches(_other("b"), batch_format="pyarrow")
            .union(touched_b.map_batches(_other("a"), batch_format="pyarrow"))
        )

        def _uniq_ids(t: pa.Table) -> pa.Table:
            ids = np.unique(t.column("id").to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "id": pa.array(ids, pa.string()),
                    "one": pa.array(np.ones(len(ids), dtype=np.int64)),
                }
            )

        dominated = anti_join(
            grouped_aggregate_hybrid(
                nbrs.map_batches(_uniq_ids, batch_format="pyarrow"),
                "id",
                [("one", "sum", "n")],
            ).select_columns(["id"]),
            winners,
            on="id",
            key_col="id",
            broadcast_limit=_bl,
        ).materialize()
        decided_parts.append(
            dominated.map_batches(_tag("dominated"), batch_format="pyarrow").materialize()
        )
        undecided = anti_join(
            anti_join(
                undecided, winners, on="id", key_col="id", broadcast_limit=_bl
            ),
            dominated,
            on="id",
            key_col="id",
            broadcast_limit=_bl,
        ).materialize()

    def _tag_und(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t.column("id"),
                "status": pa.array(["undecided"] * t.num_rows, pa.string()),
                "round_decided": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
            }
        )

    out = undecided.map_batches(_tag_und, batch_format="pyarrow")
    for p in decided_parts:
        out = out.union(p)
    return out


def luby_mis_sql(edges_sql: str, *, rounds: int = 4, md5_le_expr: str = "") -> str:
    """The identical fixed-round deterministic Luby iteration unrolled
    into MATERIALIZED CTEs (the random_walks_sql technique); priorities
    are the portable splitmix64 over base ^ round with base =
    md5-LE-uint64(id) hashed ONCE (functions/porthash.mix64_sql — the
    same UHUGEINT arithmetic numpy computes, bit-for-bit), packed with
    the id as lpad(hu,20)||id so ties are impossible."""
    if not md5_le_expr:
        raise ValueError(
            "luby_mis_sql: md5_le_expr is required (an empty default would "
            "silently generate invalid SQL — pass the registry's md5-LE "
            "uint64 expression over column hx)"
        )
    from kgw_ray.functions.porthash import mix64_sql

    parts = [
        f"""WITH e AS MATERIALIZED (
  SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
  FROM ({edges_sql}) WHERE s <> t),""",
        "n AS (SELECT a AS id FROM e UNION SELECT b FROM e),",
        "bs AS MATERIALIZED (SELECT id, "
        f"({md5_le_expr}) AS base FROM (SELECT id, md5(id) AS hx FROM n)),",
        "u0 AS MATERIALIZED (SELECT id FROM n)",
    ]
    sels = []
    for r in range(1, rounds + 1):
        p = r - 1
        hu = mix64_sql(f"xor(b.base, CAST({r} AS UBIGINT))")
        parts.append(
            f""",
k{r} AS MATERIALIZED (
  SELECT u.id, lpad(CAST({hu} AS VARCHAR), 20, '0') || u.id AS key
  FROM u{p} u JOIN bs b ON b.id = u.id),
live{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM e
  JOIN u{p} ua ON ua.id = e.a JOIN u{p} ub ON ub.id = e.b),
mn{r} AS MATERIALIZED (
  SELECT c, MIN(nkey) AS mn FROM (
    SELECT l.a AS c, kb.key AS nkey FROM live{r} l JOIN k{r} kb ON kb.id = l.b
    UNION ALL
    SELECT l.b AS c, ka.key AS nkey FROM live{r} l JOIN k{r} ka ON ka.id = l.a
  ) GROUP BY c),
w{r} AS MATERIALIZED (
  SELECT k.id FROM k{r} k LEFT JOIN mn{r} m ON m.c = k.id
  WHERE m.mn IS NULL OR k.key < m.mn),
d{r} AS MATERIALIZED (
  SELECT DISTINCT nb AS id FROM (
    SELECT l.b AS nb FROM live{r} l JOIN w{r} w ON w.id = l.a
    UNION ALL
    SELECT l.a AS nb FROM live{r} l JOIN w{r} w ON w.id = l.b
  ) WHERE nb NOT IN (SELECT id FROM w{r})),
u{r} AS MATERIALIZED (
  SELECT id FROM u{p}
  WHERE id NOT IN (SELECT id FROM w{r}) AND id NOT IN (SELECT id FROM d{r}))"""
        )
        sels.append(
            f"SELECT id, 'mis' AS status, CAST({r} AS BIGINT) AS round_decided FROM w{r}"
        )
        sels.append(
            f"SELECT id, 'dominated', CAST({r} AS BIGINT) FROM d{r}"
        )
    sels.append(
        f"SELECT id, 'undecided', CAST(-1 AS BIGINT) FROM u{rounds}"
    )
    parts.append("\n" + "\nUNION ALL\n".join(sels))
    return "\n".join(parts)


def motif_census(
    edges: rd.Dataset,
    *,
    src: str = "source_id",
    dst: str = "target_id",
    broadcast_limit: int = _BROADCAST_LIMIT,
) -> pa.Table:
    """Directed TRIAD MOTIF census over the simple digraph: one row
    (n_wedges, n_cycle_triples, n_ffl_triples) — the cycle-vs-feed-forward
    balance network science uses to characterize directed graphs (a
    3-cycle contributes 3 rotations to n_cycle_triples; a feed-forward
    loop contributes 1 to n_ffl_triples per (source, sink) orientation,
    matching the oracle's ordered-triple joins).

    Plan: the wedge stream (a→b→c, distinct endpoints) is ONE
    size-hybrid self-join of the distinct-pair set; cycle/ffl closure is
    the packed-key size-hybrid SEMI JOIN of the wedge's candidate closing
    edge against the (vocabulary-sized) simple-edge key set —
    triangle_counts' plan (stages/graph.py), vectorized ``pc.is_in``
    under ``broadcast_limit`` keys, a hash join beyond. Nothing
    edge-scale reaches the driver; only the three scalar counts do."""
    from kgw_ray.stages.graph import _TRI_SEP
    from kgw_ray.stages.joins import semi_join_dataset

    pairs = _distinct_ordered_pairs(edges, src, dst)

    def _nonloop(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.equal(t.column("s"), t.column("t"))))

    nonloop = pairs.map_batches(_nonloop, batch_format="pyarrow").materialize()
    wedges = _hybrid_attach(
        nonloop,
        nonloop.rename_columns({"s": "b", "t": "c"}),
        on="t",
        right_on="b",
        broadcast_limit=broadcast_limit,
    )

    def _wedge_keys(t: pa.Table) -> pa.Table:
        # distinct triad endpoints; pack both candidate closing edges:
        # (c,a) ∈ E closes a 3-cycle, (a,c) ∈ E a feed-forward loop
        keep = pc.invert(pc.equal(t.column("s"), t.column("c")))
        f = t.filter(keep)
        return pa.table(
            {
                "ca": pc.binary_join_element_wise(
                    f.column("c"), f.column("s"), _TRI_SEP
                ),
                "ac": pc.binary_join_element_wise(
                    f.column("s"), f.column("c"), _TRI_SEP
                ),
            }
        )

    wk = wedges.map_batches(_wedge_keys, batch_format="pyarrow").materialize()
    ekeys = nonloop.map_batches(
        lambda t: pa.table(
            {"k": pc.binary_join_element_wise(t.column("s"), t.column("t"), _TRI_SEP)}
        ),
        batch_format="pyarrow",
    )
    n_wedges = wk.count()
    n_cyc = semi_join_dataset(
        wk, ekeys, on="ca", key_col="k", broadcast_limit=broadcast_limit
    ).count()
    n_ffl = semi_join_dataset(
        wk, ekeys, on="ac", key_col="k", broadcast_limit=broadcast_limit
    ).count()
    return pa.table(
        {
            "n_wedges": pa.array([n_wedges], pa.int64()),
            "n_cycle_triples": pa.array([n_cyc], pa.int64()),
            "n_ffl_triples": pa.array([n_ffl], pa.int64()),
        }
    )


def motif_census_sql(edges_sql: str) -> str:
    """Ordered-triple joins re-deriving the census independently."""
    return f"""
WITH e AS MATERIALIZED (
  SELECT DISTINCT s, t FROM ({edges_sql}) WHERE s <> t
)
SELECT
  (SELECT COUNT(*) FROM e a JOIN e b ON b.s = a.t WHERE a.s <> b.t)
    AS n_wedges,
  (SELECT COUNT(*) FROM e a JOIN e b ON b.s = a.t
     JOIN e c ON c.s = b.t AND c.t = a.s WHERE a.s <> b.t)
    AS n_cycle_triples,
  (SELECT COUNT(*) FROM e a JOIN e b ON b.s = a.t
     JOIN e c ON c.s = a.s AND c.t = b.t WHERE a.s <> b.t)
    AS n_ffl_triples
"""


def _truss_wedges(g: pd.DataFrame) -> pa.Table:
    """Per-shard wedge candidates of an undirected (a<b) pair set: one
    lexsort + per-segment ``triu_indices`` (triangle_counts' enumeration,
    stages/graph.py) — every potential triangle x<y<z emitted exactly once
    at its smallest vertex (pivot) as (p, x, y) with x<y. No per-pivot
    Python beyond the segment loop."""
    empty = pa.table(
        {
            "p": pa.array([], pa.string()),
            "x": pa.array([], pa.string()),
            "y": pa.array([], pa.string()),
        }
    )
    if len(g) == 0:
        return empty
    a = g["a"].to_numpy()
    b = g["b"].to_numpy()
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    seg = np.nonzero(np.concatenate(([True], a[1:] != a[:-1])))[0]
    ends = np.append(seg[1:], len(a))
    ps, xs, ys = [], [], []
    for s, e in zip(seg, ends):
        d = e - s
        if d < 2:
            continue
        i, j2 = np.triu_indices(d, 1)
        ps.append(np.repeat(a[s], len(i)))
        xs.append(b[s:e][i])
        ys.append(b[s:e][j2])
    if not ps:
        return empty
    return pa.table(
        {
            "p": pa.array(np.concatenate(ps), pa.string()),
            "x": pa.array(np.concatenate(xs), pa.string()),
            "y": pa.array(np.concatenate(ys), pa.string()),
        }
    )


def _edge_support(
    cur: rd.Dataset,
    *,
    num_shards: int = 64,
    broadcast_limit: int = _BROADCAST_LIMIT,
) -> rd.Dataset:
    """Per-EDGE triangle support of an undirected (a<b) pair Dataset,
    Datasets end-to-end: wedge candidates enumerate per hash(pivot) shard
    (lexsort + per-segment triu), close via the packed-key SIZE-HYBRID
    semi join against the current edge-key set (triangle_counts' plan —
    ``pc.is_in`` broadcast under ``broadcast_limit``, hash join beyond),
    and each closed triangle (p,x,y) contributes +1 to its three edges
    through a per-batch combiner feeding ONE pair-keyed Sum. Nothing
    edge-scale touches the driver."""
    from kgw_ray.stages.graph import _TRI_SEP
    from kgw_ray.stages.joins import semi_join_dataset

    def _shard(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(a.astype(object)) % num_shards
        return t.append_column("_shard", pa.array(h.astype(np.int64)))

    wedges = (
        cur.map_batches(_shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(_truss_wedges, batch_format="pandas")
    )

    def _wedge_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "ek", pc.binary_join_element_wise(t.column("x"), t.column("y"), _TRI_SEP)
        )

    ekeys = cur.map_batches(
        lambda t: pa.table(
            {"k": pc.binary_join_element_wise(t.column("a"), t.column("b"), _TRI_SEP)}
        ),
        batch_format="pyarrow",
    )
    closed = semi_join_dataset(
        wedges.map_batches(_wedge_key, batch_format="pyarrow"),
        ekeys,
        on="ek",
        key_col="k",
        broadcast_limit=broadcast_limit,
    )

    def _edges3(t: pa.Table) -> pa.Table:
        p = t.column("p").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        df = (
            pd.DataFrame(
                {
                    "a": np.concatenate([p, p, x]),
                    "b": np.concatenate([x, y, y]),
                }
            )
            .groupby(["a", "b"], sort=False)
            .size()
            .rename("sup")
            .reset_index()
        )
        return pa.table(
            {
                "a": pa.array(df["a"].to_numpy(), pa.string()),
                "b": pa.array(df["b"].to_numpy(), pa.string()),
                "sup": pa.array(df["sup"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        closed.map_batches(_edges3, batch_format="pyarrow"),
        ["a", "b"],
        [("sup", "sum", "sup")],
    )


def k_truss(
    edges: rd.Dataset,
    *,
    k: int = 4,
    rounds: int = 6,
    src: str = "source_id",
    dst: str = "target_id",
    broadcast_limit: int = _BROADCAST_LIMIT,
) -> rd.Dataset:
    """k-TRUSS edge peeling (fixed ``rounds``): iteratively drop every
    edge supported by fewer than k−2 triangles — the edge-level cohesion
    core (stronger than k-core) community detection uses. Output:
    (a, b, support) for surviving edges with their final-round support.

    Fixed-round semantics (the bellman_ford convention): after ``rounds``
    peels the result equals the true truss whenever peeling has
    converged, and the SQL oracle unrolls the identical rounds so gate
    equality holds regardless. Per round: triangle candidates enumerate
    at the smallest-vertex pivot (coarse hash(pivot) shards), close via
    the packed-key size-hybrid semi join (triangle_counts' plan), per-edge
    support Sum, one vectorized filter — the edge set stays a Dataset
    through every round; only scalar counts (convergence check) reach
    the driver."""
    from kgw_ray.stages.graph import _TRI_SEP

    _empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "support": pa.array([], pa.int64()),
        }
    )
    cur = _distinct_undirected_pairs(edges, src, dst).materialize()
    for _ in range(rounds):
        n_cur = cur.count()
        if n_cur == 0:
            return rd.from_arrow(_empty)
        sup = _edge_support(cur, broadcast_limit=broadcast_limit).materialize()
        keep = sup.map_batches(
            lambda t, _k=k: t.filter(
                pc.greater_equal(t.column("sup"), _k - 2)
            ).select(["a", "b"]),
            batch_format="pyarrow",
        ).materialize()
        n_keep = keep.count()
        if n_keep == 0:
            return rd.from_arrow(_empty)
        if n_keep == n_cur:
            break  # converged: keep ⊆ cur and same size ⇒ nothing peeled
        cur = keep
    # final support over the surviving set (left attach: an edge whose
    # triangles all peeled reports 0, matching the oracle's COALESCE)
    fin = _edge_support(cur, broadcast_limit=broadcast_limit).materialize()
    if fin.count() == 0:
        # no triangles survive: every edge reports 0 (an empty right side
        # would drop its schema on the broadcast to_pandas)
        return cur.map_batches(
            lambda t: pa.table(
                {
                    "a": t.column("a"),
                    "b": t.column("b"),
                    "support": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )

    def _pack(t: pa.Table) -> pa.Table:
        return t.append_column(
            "ek", pc.binary_join_element_wise(t.column("a"), t.column("b"), _TRI_SEP)
        )

    fink = fin.map_batches(_pack, batch_format="pyarrow").drop_columns(["a", "b"])
    out = _hybrid_attach(
        cur.map_batches(_pack, batch_format="pyarrow"),
        fink,
        on="ek",
        right_on="ek",
        how="left",
        broadcast_limit=broadcast_limit,
    )

    def _fill(t: pa.Table) -> pa.Table:
        s = pc.cast(pc.fill_null(t.column("sup"), 0), pa.int64())
        return pa.table(
            {"a": t.column("a"), "b": t.column("b"), "support": s}
        )

    return out.map_batches(_fill, batch_format="pyarrow")


def k_truss_sql(edges_sql: str, *, k: int = 4, rounds: int = 6) -> str:
    """The identical fixed-round peel unrolled into CTEs. Triangles close
    at the smallest vertex (x<y<z as (x,y)+(x,z)+(y,z)); support = the
    per-edge triangle count; edges below k−2 drop each round."""
    parts = [
        f"""WITH e0 AS MATERIALIZED (
  SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
  FROM ({edges_sql}) WHERE s <> t)""",
    ]
    prev = "e0"
    for r in range(1, rounds + 1):
        parts.append(
            f""",
tri{r} AS MATERIALIZED (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM {prev} e1 JOIN {prev} e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN {prev} e3 ON e3.a = e1.b AND e3.b = e2.b),
sup{r} AS MATERIALIZED (
  SELECT a, b, COUNT(*) AS sup FROM (
    SELECT x AS a, y AS b FROM tri{r}
    UNION ALL SELECT x, z FROM tri{r}
    UNION ALL SELECT y, z FROM tri{r}) GROUP BY a, b),
e{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM {prev} e JOIN sup{r} s ON s.a = e.a AND s.b = e.b
  WHERE s.sup >= {k - 2})"""
        )
        prev = f"e{r}"
    parts.append(
        f""",
trif AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM {prev} e1 JOIN {prev} e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN {prev} e3 ON e3.a = e1.b AND e3.b = e2.b),
supf AS (
  SELECT a, b, COUNT(*) AS sup FROM (
    SELECT x AS a, y AS b FROM trif
    UNION ALL SELECT x, z FROM trif
    UNION ALL SELECT y, z FROM trif) GROUP BY a, b)
SELECT e.a, e.b, CAST(COALESCE(s.sup, 0) AS BIGINT) AS support
FROM {prev} e LEFT JOIN supf s ON s.a = e.a AND s.b = e.b"""
    )
    return "\n".join(parts)


def greedy_maximal_matching(
    edges: rd.Dataset,
    *,
    rounds: int = 4,
    src: str = "source_id",
    dst: str = "target_id",
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """DETERMINISTIC parallel greedy MAXIMAL MATCHING — the edge analog of
    ``luby_mis`` (Israeli–Itai 1986 family): each round every live edge
    (both endpoints unmatched) draws the portable priority
    ``mix64(mix64(ha ^ round) ^ hb)`` over the endpoints' base md5-LE
    hashes and is matched iff its packed (priority, a, b) key is the
    strict MIN among live edges at BOTH endpoints — two adjacent edges can
    never both win (keys are unique per node), and the globally smallest
    live edge always wins, so every round makes progress. Fixed-round:
    leftovers simply stay unmatched and both engines agree on them.
    Output: (a, b, round_matched) for the matched edge set.

    Physical plan per round (the luby_mis machinery): live edges via two
    size-hybrid semi-joins against the unmatched-node Dataset, ONE
    packed-key grouped Min per endpoint, winner filter via two size-hybrid
    attaches of the (Dataset-valued) min-key table, unmatched update via
    anti-joins — every exchanged table is edge- or node-vocabulary-sized
    and nothing graph-scale is pulled to the driver. Base hashes are
    computed ONCE per endpoint (never per round); per-round keys are one
    vectorized splitmix64. Zero-row blocks pass through every kernel."""
    from kgw_ray.functions.porthash import md5_le_u64, mix64, u64_to_key20
    from kgw_ray.stages.joins import anti_join, semi_join_dataset

    _bl = 5_000_000 if broadcast_limit is None else broadcast_limit

    def _base_pairs(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": t.column("a"),
                "b": t.column("b"),
                "ha": pa.array(md5_le_u64(a), pa.uint64()),
                "hb": pa.array(md5_le_u64(b), pa.uint64()),
            }
        )

    pairs = (
        _distinct_undirected_pairs(edges, src, dst)
        .map_batches(_base_pairs, batch_format="pyarrow")
        .materialize()
    )
    unmatched = nodes_from_edges(pairs, src="a", dst="b").materialize()
    matched_parts: list[rd.Dataset] = []

    def _edge_keys(t: pa.Table, *, _r: int) -> np.ndarray:
        if t.num_rows == 0:
            return np.zeros(0, dtype=object)
        ha = t.column("ha").to_numpy(zero_copy_only=False).astype(np.uint64)
        hb = t.column("hb").to_numpy(zero_copy_only=False).astype(np.uint64)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        pri = u64_to_key20(mix64(mix64(ha ^ np.uint64(_r)) ^ hb))
        return np.char.add(
            np.char.add(np.char.add(pri, a.astype("U")), "|"), b.astype("U")
        )

    for r in range(1, rounds + 1):
        if unmatched.count() == 0:
            break
        # materialize between the chained semi-joins: a join-output block
        # can be empty-schema, and the downstream hash join's aggregator
        # then fails at finalize — _compact_if_sparse (stages/joins.py:78)
        # repairs exactly this, but only on MATERIALIZED inputs
        half = semi_join_dataset(
            pairs, unmatched, on="a", key_col="id", broadcast_limit=_bl
        ).materialize()
        live = semi_join_dataset(
            half, unmatched, on="b", key_col="id", broadcast_limit=_bl
        )

        def _keyed(t: pa.Table, *, _r=r) -> pa.Table:
            return pa.table(
                {
                    "a": t.column("a"),
                    "b": t.column("b"),
                    "ek": pa.array(_edge_keys(t, _r=_r), pa.string()),
                }
            )

        keyed = live.map_batches(_keyed, batch_format="pyarrow").materialize()

        def _melt(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ek = t.column("ek").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "c": pa.array(np.concatenate([a, b]), pa.string()),
                    "ek": pa.array(np.concatenate([ek, ek]), pa.string()),
                }
            )

        mk = grouped_aggregate_hybrid(
            keyed.map_batches(_melt, batch_format="pyarrow"),
            "c",
            [("ek", "min", "mk")],
        ).materialize()
        if mk.count() == 0:
            break

        wa = _hybrid_attach(
            keyed, mk, on="a", right_on="c", broadcast_limit=broadcast_limit
        ).map_batches(
            lambda t: t.filter(pc.equal(t["ek"], t["mk"])).select(
                ["a", "b", "ek"]
            ),
            batch_format="pyarrow",
        ).materialize()  # chained-attach hazard: see the semi-join note
        winners = _hybrid_attach(
            wa, mk, on="b", right_on="c", broadcast_limit=broadcast_limit
        ).map_batches(
            lambda t: t.filter(pc.equal(t["ek"], t["mk"])).select(["a", "b"]),
            batch_format="pyarrow",
        ).materialize()

        def _tag(t: pa.Table, *, _r=r) -> pa.Table:
            return pa.table(
                {
                    "a": t.column("a"),
                    "b": t.column("b"),
                    "round_matched": pa.array(
                        np.full(t.num_rows, _r, dtype=np.int64)
                    ),
                }
            )

        matched_parts.append(
            winners.map_batches(_tag, batch_format="pyarrow").materialize()
        )

        def _ends(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ids = np.unique(np.concatenate([a, b]))
            return pa.table({"id": pa.array(ids, pa.string())})

        ends = winners.map_batches(_ends, batch_format="pyarrow")
        ends = grouped_aggregate_hybrid(
            ends.map_batches(
                lambda t: t.append_column(
                    "one",
                    pa.array(np.ones(t.num_rows, dtype=np.int64)),
                ),
                batch_format="pyarrow",
            ),
            "id",
            [("one", "sum", "n")],
        ).select_columns(["id"])
        unmatched = anti_join(
            unmatched, ends, on="id", key_col="id", broadcast_limit=_bl
        ).materialize()

    if not matched_parts:
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.string()),
                    "b": pa.array([], pa.string()),
                    "round_matched": pa.array([], pa.int64()),
                }
            )
        )
    out = matched_parts[0]
    for p in matched_parts[1:]:
        out = out.union(p)
    return out


def maximal_matching_sql(
    edges_sql: str, *, rounds: int = 4, md5_le_expr: str = ""
) -> str:
    """The identical fixed-round deterministic matching unrolled into
    MATERIALIZED CTEs (the luby_mis_sql technique): per-edge priority =
    splitmix64(splitmix64(ha ^ round) ^ hb) over once-hashed endpoint
    bases, packed as lpad(pri, 20) || a || '|' || b; an edge wins iff its
    key is the per-node MIN at both endpoints."""
    if not md5_le_expr:
        raise ValueError(
            "maximal_matching_sql: md5_le_expr is required (an empty "
            "default would silently generate invalid SQL)"
        )
    from kgw_ray.functions.porthash import mix64_sql

    parts = [
        f"""WITH e AS MATERIALIZED (
  SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
  FROM ({edges_sql}) WHERE s <> t),""",
        "n AS (SELECT a AS id FROM e UNION SELECT b FROM e),",
        "bs AS MATERIALIZED (SELECT id, "
        f"({md5_le_expr}) AS base FROM (SELECT id, md5(id) AS hx FROM n)),",
        "u0 AS MATERIALIZED (SELECT id FROM n)",
    ]
    sels = []
    for r in range(1, rounds + 1):
        p = r - 1
        inner = mix64_sql(f"xor(ba.base, CAST({r} AS UBIGINT))")
        pri = mix64_sql(f"xor(CAST({inner} AS UBIGINT), bb.base)")
        parts.append(
            f""",
live{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM e
  JOIN u{p} ua ON ua.id = e.a JOIN u{p} ub ON ub.id = e.b),
ek{r} AS MATERIALIZED (
  SELECT l.a, l.b,
         lpad(CAST({pri} AS VARCHAR), 20, '0') || l.a || '|' || l.b AS key
  FROM live{r} l
  JOIN bs ba ON ba.id = l.a JOIN bs bb ON bb.id = l.b),
mk{r} AS MATERIALIZED (
  SELECT c, MIN(key) AS mk FROM (
    SELECT a AS c, key FROM ek{r}
    UNION ALL
    SELECT b AS c, key FROM ek{r}
  ) GROUP BY c),
w{r} AS MATERIALIZED (
  SELECT k.a, k.b FROM ek{r} k
  JOIN mk{r} ma ON ma.c = k.a AND ma.mk = k.key
  JOIN mk{r} mb ON mb.c = k.b AND mb.mk = k.key),
u{r} AS MATERIALIZED (
  SELECT id FROM u{p}
  WHERE id NOT IN (SELECT a FROM w{r}) AND id NOT IN (SELECT b FROM w{r}))"""
        )
        sels.append(
            f"SELECT a, b, CAST({r} AS BIGINT) AS round_matched FROM w{r}"
        )
    parts.append("\n" + "\nUNION ALL\n".join(sels))
    return "\n".join(parts)


def jones_plassmann_coloring(
    edges: rd.Dataset,
    *,
    rounds: int = 5,
    src: str = "source_id",
    dst: str = "target_id",
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """DETERMINISTIC Jones–Plassmann greedy graph coloring (Jones &
    Plassmann 1993) — the third member of the parallel symmetry-breaking
    family next to ``luby_mis`` (nodes) and ``greedy_maximal_matching``
    (edges): every node holds ONE static portable priority key
    (zfill20(mix64(md5_le(id))) || id); each round the undecided nodes
    whose key exceeds every undecided neighbor's key color themselves with
    the smallest color unused by their already-colored neighbors.
    Same-round winners are independent in the undecided subgraph (one of
    two adjacent undecided nodes has the larger key), so the parallel
    assignment is race-free and the coloring is PROPER by construction.
    Fixed-round: leftovers report color −1 / round −1 and both engines
    agree on them. Output: (id, color, round_colored).

    Physical plan per round: live undecided-subgraph edges via two
    size-hybrid semi-joins (materialized between — the chained-join
    empty-block rule), ONE grouped MAX of neighbor keys, winners by
    vectorized key compare, used-color bitmaps as Σ 2^color over the
    DISTINCT (winner, neighbor-color) pairs (two bounded exchanges —
    colors < round, so bitmaps are tiny ints), smallest-unused-color via
    the lowest-zero-bit identity bitlen((~bm) & (bm+1)) − 1 (exactly the
    oracle's CASE chain). Node-vocabulary-sized exchanges throughout."""
    from kgw_ray.functions.porthash import (
        bitlen_u64,
        md5_le_u64,
        mix64,
        u64_to_key20,
    )
    from kgw_ray.stages.joins import anti_join, semi_join_dataset

    _bl = 5_000_000 if broadcast_limit is None else broadcast_limit

    def _keyed_pairs(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        ka = _static_keys(a)
        kb = _static_keys(b)
        return pa.table(
            {
                "a": t.column("a"),
                "b": t.column("b"),
                "ka": pa.array(ka, pa.string()),
                "kb": pa.array(kb, pa.string()),
            }
        )

    def _static_keys(ids: np.ndarray) -> np.ndarray:
        if len(ids) == 0:
            return np.zeros(0, dtype=object)
        pri = u64_to_key20(mix64(md5_le_u64(ids)))
        return np.char.add(pri, ids.astype("U"))

    pairs = (
        _distinct_undirected_pairs(edges, src, dst)
        .map_batches(_keyed_pairs, batch_format="pyarrow")
        .materialize()
    )

    def _node_keys(t: pa.Table) -> pa.Table:
        ids = t.column("id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "id": t.column("id"),
                "own": pa.array(_static_keys(ids), pa.string()),
            }
        )

    undecided = (
        nodes_from_edges(pairs, src="a", dst="b")
        .map_batches(_node_keys, batch_format="pyarrow")
        .materialize()
    )
    colored: rd.Dataset | None = None
    colored_parts: list[rd.Dataset] = []

    for r in range(1, rounds + 1):
        if undecided.count() == 0:
            break
        half = semi_join_dataset(
            pairs, undecided, on="a", key_col="id", broadcast_limit=_bl
        ).materialize()
        live = semi_join_dataset(
            half, undecided, on="b", key_col="id", broadcast_limit=_bl
        ).materialize()

        def _melt(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ka = t.column("ka").to_numpy(zero_copy_only=False)
            kb = t.column("kb").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "c": pa.array(np.concatenate([a, b]), pa.string()),
                    "nkey": pa.array(np.concatenate([kb, ka]), pa.string()),
                }
            )

        mx = grouped_aggregate_hybrid(
            live.map_batches(_melt, batch_format="pyarrow"),
            "c",
            [("nkey", "max", "mx")],
        ).materialize()

        if mx.count() == 0:
            winners = undecided.select_columns(["id"]).materialize()
        else:
            attached = _hybrid_attach(
                undecided,
                mx,
                on="id",
                right_on="c",
                how="left",
                broadcast_limit=broadcast_limit,
            )

            def _winners(t: pa.Table) -> pa.Table:
                mxc = (
                    t.column("mx")
                    if "mx" in t.column_names
                    else pa.nulls(t.num_rows, pa.string())
                )
                win = pc.fill_null(pc.greater(t.column("own"), mxc), True)
                return pa.table({"id": t.filter(win).column("id")})

            winners = attached.map_batches(
                _winners, batch_format="pyarrow"
            ).materialize()

        # used-color bitmap per winner from ALREADY-colored neighbors
        if colored is None or colored.count() == 0:
            bm = None
        else:
            wa = semi_join_dataset(
                pairs, winners, on="a", key_col="id", broadcast_limit=_bl
            ).materialize()
            ca = _hybrid_attach(
                wa.map_batches(
                    lambda t: pa.table(
                        {"w": t.column("a"), "nb": t.column("b")}
                    ),
                    batch_format="pyarrow",
                ).materialize(),  # chained-join empty-block rule
                colored,
                on="nb",
                right_on="id",
                how="inner",
                broadcast_limit=broadcast_limit,
            )
            wb = semi_join_dataset(
                pairs, winners, on="b", key_col="id", broadcast_limit=_bl
            ).materialize()
            cb = _hybrid_attach(
                wb.map_batches(
                    lambda t: pa.table(
                        {"w": t.column("b"), "nb": t.column("a")}
                    ),
                    batch_format="pyarrow",
                ).materialize(),  # chained-join empty-block rule
                colored,
                on="nb",
                right_on="id",
                how="inner",
                broadcast_limit=broadcast_limit,
            )

            def _wc(t: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        "w": t.column("w"),
                        "color": t.column("color"),
                        "one": pa.array(
                            np.ones(t.num_rows, dtype=np.int64)
                        ),
                    }
                )

            wc = grouped_aggregate_hybrid(
                ca.map_batches(_wc, batch_format="pyarrow").union(
                    cb.map_batches(_wc, batch_format="pyarrow")
                ),
                ["w", "color"],
                [("one", "max", "one")],
            )

            def _bits(t: pa.Table) -> pa.Table:
                c = t.column("color").to_numpy(zero_copy_only=False)
                return pa.table(
                    {
                        "w": t.column("w"),
                        "bit": pa.array(np.int64(1) << c),
                    }
                )

            bm = grouped_aggregate_hybrid(
                wc.map_batches(_bits, batch_format="pyarrow"),
                "w",
                [("bit", "sum", "bm")],
            ).materialize()

        if bm is None or bm.count() == 0:
            withbm = winners.map_batches(
                lambda t: t.append_column(
                    "bm", pa.array(np.zeros(t.num_rows, dtype=np.int64))
                ),
                batch_format="pyarrow",
            )
        else:
            withbm = _hybrid_attach(
                winners,
                bm,
                on="id",
                right_on="w",
                how="left",
                broadcast_limit=broadcast_limit,
            ).map_batches(
                lambda t: pa.table(
                    {
                        "id": t.column("id"),
                        "bm": pc.fill_null(
                            t.column("bm")
                            if "bm" in t.column_names
                            else pa.nulls(t.num_rows, pa.int64()),
                            0,
                        ),
                    }
                ),
                batch_format="pyarrow",
            )

        def _assign(t: pa.Table, *, _r=r) -> pa.Table:
            bmv = t.column("bm").to_numpy(zero_copy_only=False).astype(np.int64)
            low = (~bmv) & (bmv + 1)  # lowest zero bit of the bitmap
            color = bitlen_u64(low.astype(np.uint64)) - 1
            return pa.table(
                {
                    "id": t.column("id"),
                    "color": pa.array(color.astype(np.int64)),
                    "round_colored": pa.array(
                        np.full(t.num_rows, _r, dtype=np.int64)
                    ),
                }
            )

        newly = withbm.map_batches(_assign, batch_format="pyarrow").materialize()
        colored_parts.append(newly)
        colored = (
            newly
            if colored is None
            else colored.union(newly).materialize()
        )
        undecided = anti_join(
            undecided, winners, on="id", key_col="id", broadcast_limit=_bl
        ).materialize()

    def _tag_und(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t.column("id"),
                "color": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
                "round_colored": pa.array(
                    np.full(t.num_rows, -1, dtype=np.int64)
                ),
            }
        )

    out = undecided.select_columns(["id"]).map_batches(
        _tag_und, batch_format="pyarrow"
    )
    for p in colored_parts:
        out = out.union(p)
    return out


def jp_coloring_sql(
    edges_sql: str, *, rounds: int = 5, md5_le_expr: str = ""
) -> str:
    """The identical fixed-round Jones–Plassmann iteration unrolled into
    MATERIALIZED CTEs: static packed keys, per-round MAX-neighbor winner
    rule, used-color bitmaps as SUM(DISTINCT-pair 2^color), and the
    smallest-unused-color CASE chain (colors assigned in round r are
    < r, so the chain is bounded by the round index)."""
    if not md5_le_expr:
        raise ValueError(
            "jp_coloring_sql: md5_le_expr is required (an empty default "
            "would silently generate invalid SQL)"
        )
    from kgw_ray.functions.porthash import mix64_sql

    key = mix64_sql("b.base")
    parts = [
        f"""WITH e AS MATERIALIZED (
  SELECT DISTINCT least(s, t) AS a, greatest(s, t) AS b
  FROM ({edges_sql}) WHERE s <> t),""",
        "n AS (SELECT a AS id FROM e UNION SELECT b FROM e),",
        "bs0 AS MATERIALIZED (SELECT id, "
        f"({md5_le_expr}) AS base FROM (SELECT id, md5(id) AS hx FROM n)),",
        "k AS MATERIALIZED (SELECT b.id, "
        f"lpad(CAST({key} AS VARCHAR), 20, '0') || b.id AS key FROM bs0 b),",
        "u0 AS MATERIALIZED (SELECT id FROM n),",
        "c0 AS MATERIALIZED (SELECT id, CAST(0 AS BIGINT) AS color, "
        "CAST(0 AS BIGINT) AS round_colored FROM n WHERE 1 = 0)",
    ]
    sels = []
    for r in range(1, rounds + 1):
        p = r - 1
        case = " ".join(
            f"WHEN (bm >> {c}) % 2 = 0 THEN {c}" for c in range(r)
        )
        parts.append(
            f""",
live{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM e
  JOIN u{p} ua ON ua.id = e.a JOIN u{p} ub ON ub.id = e.b),
mx{r} AS MATERIALIZED (
  SELECT c, MAX(nkey) AS mx FROM (
    SELECT l.a AS c, kb.key AS nkey FROM live{r} l JOIN k kb ON kb.id = l.b
    UNION ALL
    SELECT l.b AS c, ka.key AS nkey FROM live{r} l JOIN k ka ON ka.id = l.a
  ) GROUP BY c),
w{r} AS MATERIALIZED (
  SELECT u.id FROM u{p} u
  JOIN k ON k.id = u.id
  LEFT JOIN mx{r} m ON m.c = u.id
  WHERE m.mx IS NULL OR k.key > m.mx),
bm{r} AS MATERIALIZED (
  SELECT w, CAST(SUM(CAST(1 AS BIGINT) << color) AS BIGINT) AS bm FROM (
    SELECT DISTINCT x.w, x.color FROM (
      SELECT e.a AS w, c.color FROM e
      JOIN w{r} ww ON ww.id = e.a JOIN c{p} c ON c.id = e.b
      UNION ALL
      SELECT e.b AS w, c.color FROM e
      JOIN w{r} ww ON ww.id = e.b JOIN c{p} c ON c.id = e.a
    ) x
  ) GROUP BY w),
c{r} AS MATERIALIZED (
  SELECT id, color, round_colored FROM c{p}
  UNION ALL
  SELECT id,
         CAST(CASE {case} ELSE {r} END AS BIGINT) AS color,
         CAST({r} AS BIGINT) AS round_colored
  FROM (SELECT ww.id, COALESCE(b.bm, 0) AS bm
        FROM w{r} ww LEFT JOIN bm{r} b ON b.w = ww.id) t),
u{r} AS MATERIALIZED (
  SELECT id FROM u{p} WHERE id NOT IN (SELECT id FROM w{r}))"""
        )
    sels.append(f"SELECT id, color, round_colored FROM c{rounds}")
    sels.append(
        f"SELECT id, CAST(-1 AS BIGINT), CAST(-1 AS BIGINT) FROM u{rounds}"
    )
    parts.append("\n" + "\nUNION ALL\n".join(sels))
    return "\n".join(parts)
