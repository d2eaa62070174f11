"""The one grouped fold (stages/agg.py:fold): its driver branch and its
exchange branch agree for every caller on empty, one-row, NULL-key and
normal inputs; a materialized input costs at most one execution; and the
query-mix plans reduce driver-sized results without an all-to-all."""

import ast
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from tests.conftest import SF_SMOKE as SF
from tests.oracle_utils import assert_matches, run_oracle, to_pandas

VARIANTS = ["empty", "one_row", "null_key", "normal"]


def _nullify(t: pa.Table, col: str) -> pa.Table:
    keep = pa.array(np.arange(t.num_rows) % 3 != 0)
    i = t.column_names.index(col)
    c = t.column(col)
    return t.set_column(i, col, pa.compute.if_else(keep, c, pa.scalar(None, c.type)))


@pytest.fixture(scope="module")
def sf_variant(tmp_path_factory):
    """sf0.001 tables cut to zero rows, one row, or with NULL group keys."""
    from kgw_ray.sources.readers import TABLES

    dirs = {"normal": SF}
    for kind in ("empty", "one_row", "null_key"):
        d = tmp_path_factory.mktemp(kind)
        for name in TABLES:
            t = pq.read_table(os.path.join(SF, f"{name}.parquet"))
            if kind == "empty":
                t = t.slice(0, 0)
            elif kind == "one_row":
                t = t.slice(0, 1)
            elif name == "events":
                t = _nullify(t, "event_type")
            elif name == "lineitem":
                t = _nullify(t, "l_returnflag")
            pq.write_table(t, os.path.join(d, f"{name}.parquet"))
        dirs[kind] = str(d)
    return dirs


@pytest.fixture
def force_exchange(monkeypatch):
    """Pin every fold to its exchange branch (driver limit 0)."""
    from kgw_ray.stages import agg

    def pin():
        monkeypatch.setattr(agg, "DRIVER_LIMIT", 0)

    return pin


def _frame(result) -> pd.DataFrame:
    df = to_pandas(result)
    return df.astype({c: str for c in df.columns if df[c].dtype == object})


def _sf_callers():
    from kgw_ray.pipelines import relational as rel
    from kgw_ray.pipelines import training_data as td
    from kgw_ray.pipelines import webkg

    def triples(sf):
        return webkg.triples_dataset(sf)

    return {
        "q1_pricing_summary": rel.q1_pricing_summary,
        "q3_top_orders": rel.q3_top_orders,
        "q5_revenue_by_nation": rel.q5_revenue_by_nation,
        "events_hourly_window": rel.events_hourly_window,
        "events_hourly_gapfill": rel.events_hourly_gapfill,
        "top_users_by_value": rel.top_users_by_value,
        "events_sliding_window": rel.events_sliding_window,
        "events_props_extract": rel.events_props_extract,
        "events_rollup": rel.events_rollup,
        "parts_by_type_stats": rel.parts_by_type_stats,
        "orders_monthly_rollup": rel.orders_monthly_rollup,
        "events_users_per_type": rel.events_users_per_type,
        "events_latest_per_user": rel.events_latest_per_user,
        "web_domain_stats": td.web_domain_stats,
        "curate_documents": td.curate_documents,
        "webkg_edges": lambda sf: webkg.edge_rows(triples(sf)),
        "webkg_nodes": lambda sf: webkg.node_rows(triples(sf)),
        "webkg_edges_provenance": webkg.edges_with_provenance,
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list(_sf_callers()))
def test_query_fold_branches_agree(name, variant, sf_variant, force_exchange):
    fn = _sf_callers()[name]
    sf = sf_variant[variant]
    driver = _frame(fn(sf))
    force_exchange()
    exchange = _frame(fn(sf))
    if len(driver) == 0:
        assert len(exchange) == 0
    else:
        assert_matches(driver, exchange, f"{name}/{variant}")


# registry queries that GROUP BY (a key derived from) events.event_type or
# lineitem.l_returnflag, plus the DISTINCT over event_type and the
# per-user journey string_agg (which skips NULL types): on the null_key
# fixture a third of those keys are NULL, and SQL keeps NULL as a group. Left out: events_value_quantiles (Ray's sort-based map_groups
# raises on NULL string keys) and events_unpivot_type_counts (the wide
# pivot it unpivots has one column per known type, none for NULL).
_NULL_KEY_QUERIES = [
    "q1_pricing_summary", "q12_priority_by_returnflag", "lineitem_price_quantiles",
    "events_hourly_window", "events_hourly_modal_type", "events_user_simpson",
    "events_hll_registers", "events_props_extract", "events_minmax_by_type",
    "events_rollup", "events_cube", "events_markov_transitions",
    "events_markov_stationary", "events_users_per_type", "events_user_modal_type",
    "events_value_var_parts", "events_user_sketch_by_type",
    "events_top3_users_per_type", "events_hourly_dispersion", "events_path_trigrams",
    "events_type_lift", "users_by_type_signature", "distinct_event_types",
    "events_user_journeys",
]


@pytest.mark.parametrize("name", _NULL_KEY_QUERIES)
def test_null_key_groups_match_sql(name, sf_variant):
    from kgw_ray.pipelines.registry import ORACLES, QUERIES

    sf = sf_variant["null_key"]
    assert_matches(to_pandas(QUERIES[name](sf)), run_oracle(ORACLES[name], sf), name)


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_user_sketch_null_group_any_block_layout(n_blocks, sf_variant, tmp_path):
    """The per-block k-smallest sample keeps each (type, user hash) once,
    the NULL type included, however the events are cut into blocks (the
    reader yields one block per row group)."""
    from kgw_ray.pipelines.registry import ORACLES, QUERIES

    t = pq.read_table(os.path.join(sf_variant["null_key"], "events.parquet"))
    pq.write_table(t, tmp_path / "events.parquet", row_group_size=-(-t.num_rows // n_blocks))
    assert pq.read_metadata(tmp_path / "events.parquet").num_row_groups == n_blocks
    name = "events_user_sketch_by_type"
    got = to_pandas(QUERIES[name](str(tmp_path)))
    assert_matches(got, run_oracle(ORACLES[name], str(tmp_path)), name)


def test_neighborhood_null_target_ids():
    """NULL target ids over three blocks: the distinct neighbor set is a
    fold (Ray's sort-based aggregate raises comparing None with str)."""
    from kgw_ray.stages.graph import neighborhood

    src = ["a", "a", "b", "c", "a", "d", "b", "e", "c"]
    dst = ["b", None, "c", "a", "c", None, None, "f", "b"]
    edges = pa.table(
        {"source_id": pa.array(src, pa.string()), "target_id": pa.array(dst, pa.string()),
         "type": pa.array(["r"] * len(src), pa.string()),
         "properties": pa.array(["{}"] * len(src), pa.string())}
    )
    got = to_pandas(neighborhood(rd.from_arrow(edges).repartition(3), "a"))
    ids = {x for s, d in zip(src, dst) if "a" in (s, d) for x in (s, d)}
    want = [(s, d) for s, d in zip(src, dst) if s in ids and d is not None and d in ids]
    assert sorted(zip(got["source_id"], got["target_id"])) == sorted(want)


def _graph(variant: str):
    """Small (nodes, edges) IR graph; the NULL-key variant has NULL types."""
    if variant == "empty":
        ids, src, dst = [], [], []
    elif variant == "one_row":
        ids, src, dst = ["a", "b"], ["a"], ["b"]
    else:
        ids = [f"n{i}" for i in range(12)]
        src = [f"n{i % 7}" for i in range(40)]
        dst = [f"n{(i * 5 + 1) % 12}" for i in range(40)]
    ntype = [("T" if i % 2 else "U") for i in range(len(ids))]
    etype = [("r" if i % 3 else "s") for i in range(len(src))]
    if variant == "null_key":
        ntype = [None if i % 4 == 0 else t for i, t in enumerate(ntype)]
        etype = [None if i % 5 == 0 else t for i, t in enumerate(etype)]
    nodes = pa.table(
        {"id": pa.array(ids, pa.string()), "type": pa.array(ntype, pa.string()),
         "properties": pa.array(["{}"] * len(ids), pa.string())}
    )
    edges = pa.table(
        {"source_id": pa.array(src, pa.string()), "target_id": pa.array(dst, pa.string()),
         "type": pa.array(etype, pa.string()),
         "properties": pa.array(["{}"] * len(src), pa.string())}
    )
    n_blocks = max(1, min(3, edges.num_rows))
    return (
        rd.from_arrow(nodes).repartition(max(1, min(2, nodes.num_rows))).materialize(),
        rd.from_arrow(edges).repartition(n_blocks).materialize(),
    )


def _graph_callers():
    from kgw_ray.stages import graph as g

    return {
        "type_histogram": lambda n, e, x: g.type_histogram(e),
        "schema_graph": lambda n, e, x: g.schema_graph(n, e),
        "schema_graph_compact": lambda n, e, x: g.schema_graph_compact(n, e),
        "triple_dedup": lambda n, e, x: g.triple_dedup(e),
        "degree_distribution": lambda n, e, x: g.degree_distribution(e),
        "pagerank": lambda n, e, x: g.pagerank(n, e, force_exchange=x),
        "personalized_pagerank": lambda n, e, x: g.personalized_pagerank(
            n, e, ["n1", "a"], force_exchange=x
        ),
        "eigenvector_centrality": lambda n, e, x: g.eigenvector_centrality(n, e),
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list(_graph_callers()))
def test_graph_fold_branches_agree(name, variant, force_exchange):
    fn = _graph_callers()[name]
    nodes, edges = _graph(variant)
    driver = _frame(fn(nodes, edges, False))
    force_exchange()
    exchange = _frame(fn(nodes, edges, True))
    if len(driver) == 0:
        assert len(exchange) == 0
    else:
        assert_matches(driver, exchange, f"{name}/{variant}")


def test_degree_distribution_values():
    from kgw_ray.stages.graph import degree_distribution

    _, edges = _graph("normal")
    got = to_pandas(degree_distribution(edges))
    want = (
        edges.to_pandas().groupby("source_id").size().value_counts()
        .rename_axis("degree").rename("n_nodes").reset_index()
    )
    assert_matches(got, want)
    assert list(got["degree"]) == sorted(got["degree"])


@pytest.mark.parametrize("combine", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fold_branches_agree(variant, combine):
    """The primitive itself over a three-block input: string and int keys
    with NULLs, every op."""
    from kgw_ray.stages.agg import fold

    n = {"empty": 0, "one_row": 1}.get(variant, 30)
    k = [["a", "b", "c"][i % 3] for i in range(n)]
    j = [i % 4 for i in range(n)]
    if variant == "null_key":
        k = [None if i % 4 == 0 else v for i, v in enumerate(k)]
        j = [None if i % 5 == 0 else v for i, v in enumerate(j)]
    t = pa.table(
        {"k": pa.array(k, pa.string()), "j": pa.array(j, pa.int64()),
         "v": pa.array(range(n), pa.int64())}
    )
    # an empty input stays one schema-carrying block (repartitioning it
    # drops the schema; that case is test_fold_typed_empty_without_schema)
    ds = rd.from_arrow(t) if n == 0 else rd.from_arrow(t).repartition(min(3, n)).materialize()
    specs = [("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx"),
             (None, "count", "c")]

    def finalize(df):
        df["s2"] = df["s"] * 2
        return df

    driver = fold(ds, ["k", "j"], specs, combine=combine, finalize=finalize)
    exchange = fold(ds, ["k", "j"], specs, combine=combine, finalize=finalize,
                    driver_limit=0)
    assert isinstance(driver, pa.Table)
    assert driver.schema.field("j").type == pa.int64()
    assert driver.schema.field("c").type == pa.int64()
    want = t.to_pandas().groupby(["k", "j"], dropna=False).agg(
        s=("v", "sum"), mn=("v", "min"), mx=("v", "max"), c=("v", "size")
    ).reset_index()
    want["s2"] = want["s"] * 2
    if n == 0:
        assert driver.num_rows == 0 and to_pandas(exchange).shape[0] == 0
        assert driver.column_names == ["k", "j", "s", "mn", "mx", "c", "s2"]
        return
    want = _frame(pa.Table.from_pandas(want, preserve_index=False))
    assert_matches(_frame(driver), want)
    assert_matches(_frame(exchange), want)


def test_fold_typed_empty_without_schema():
    """A never-executed empty map has no schema: the fold still returns a
    typed empty table (string keys, int64 counts)."""
    from kgw_ray.stages.agg import fold

    never = rd.from_items([]).map_batches(lambda b: b)
    out = fold(never, ["k"], [(None, "count", "n"), ("v", "sum", "s")], combine=True)
    assert out.num_rows == 0
    assert out.schema.field("k").type == pa.string()
    assert out.schema.field("n").type == pa.int64()


def _exchanges(seen):
    return [
        op for ops in seen for op in ops
        if "AllToAll" in op or "Hash" in op.split(":")[0]
        or any(w in op.split(":")[1] for w in ("Aggregate", "Sort"))
    ]


def test_fold_one_execution_on_materialized_input(executions):
    """A materialized input is merged as is, or combined by block tasks on
    its refs: no Ray Data execution on either branch."""
    from kgw_ray.stages.agg import fold

    t = pa.table({"k": pa.array(["a", "b", "a"]), "v": pa.array([1, 2, 3])})
    ds = rd.from_arrow(t).repartition(2).materialize()
    executions.clear()
    out = fold(ds, "k", [("v", "sum", "v")])
    assert len(executions) == 0 and out.num_rows == 2
    out = fold(ds, "k", [("v", "sum", "v")], combine=True)
    assert len(executions) == 0 and out.num_rows == 2
    got = fold(ds, "k", [("v", "sum", "v")], combine=True, driver_limit=0)
    assert sorted(to_pandas(got).itertuples(index=False)) == [("a", 4), ("b", 2)]


def test_combiner_collapses_null_string_key(sf_variant):
    """One block's partial holds each distinct key once, the NULL string
    key included, when a nullable string key precedes a fixed-width one
    (pyarrow 16 splits the NULL group when grouping in that order)."""
    import pyarrow.compute as pc

    from kgw_ray.stages.agg import _combiner

    t = pq.read_table(os.path.join(sf_variant["null_key"], "events.parquet"))
    t = t.append_column("h", pc.hour(t.column("ts")))
    keys = ["event_type", "h"]
    part = _combiner(keys, [(None, "count", "n")])(t)
    distinct = {tuple(r.values()) for r in t.select(keys).to_pylist()}
    assert part.column_names == ["event_type", "h", "n"]
    assert part.num_rows == len(distinct)
    assert sum(part.column("n").to_pylist()) == t.num_rows


@pytest.mark.parametrize(
    "name,budget",
    [
        ("q1_pricing_summary", 1),
        ("events_hourly_window", 1),
        ("q3_top_orders", 2),
        ("kg_degree_distribution", 2),
        ("kg_pagerank", 4),
        ("kg_statistics", 2),
    ],
)
def test_mix_query_has_no_all_to_all(name, budget, executions):
    """Driver-sized results reduce without an Aggregate/Sort exchange, in
    at most ``budget`` executions (the graph hub is built beforehand)."""
    from kgw_ray.pipelines.registry import QUERIES
    from kgw_ray.pipelines.tpch_kg import tpch_graph

    tpch_graph(SF)
    executions.clear()
    to_pandas(QUERIES[name](SF))
    assert len(executions) <= budget, executions
    assert _exchanges(executions) == []


@pytest.mark.parametrize(
    "name,budget", [("type_histogram", 0), ("degree_distribution", 0), ("pagerank", 1)]
)
def test_materialized_graph_executions(name, budget, executions):
    """Over a materialized graph the per-block work runs as block tasks:
    the histograms start no Ray Data execution, and PageRank only the
    consumer's read of its final join."""
    nodes, edges = _graph("normal")
    executions.clear()
    to_pandas(_graph_callers()[name](nodes, edges, False))
    assert len(executions) == budget, executions


def test_edges_with_provenance_executions(executions):
    """The provenance edge fold runs the page chain with its per-block
    combine once; the merge and the render run on the driver."""
    from kgw_ray.pipelines.webkg import edges_with_provenance

    executions.clear()
    out = to_pandas(edges_with_provenance(SF))
    assert len(out) > 0
    assert len(executions) <= 1, executions


def test_minhash_dedup_executions(executions):
    """The shingle hub build and the consumer's read of the survivors:
    candidates, verify and components run as block tasks and on the
    driver."""
    from kgw_ray.sources.readers import read_table
    from kgw_ray.stages.dedup import minhash_dedup_keep

    docs = read_table(SF, "documents", columns=["doc_id", "text"])
    executions.clear()
    minhash_dedup_keep(docs, threshold=0.5).to_pandas()
    assert len(executions) <= 2, executions


def test_curate_exact_dedup_has_no_all_to_all(executions):
    from kgw_ray.pipelines.training_data import _exact_dedup_winners

    good = rd.from_arrow(
        pa.table({"content_md5": pa.array(["x", "y", "x", None]),
                  "doc_id": pa.array([3, 1, 2, 5], pa.int64())})
    ).repartition(2).materialize()
    executions.clear()
    w = _exact_dedup_winners(good)
    assert len(executions) <= 1 and _exchanges(executions) == []
    got = dict(zip(w.column("content_md5").to_pylist(), w.column("doc_id").to_pylist()))
    assert got == {"x": 2, "y": 1, None: 5}


def test_broadcast_join_schema_less_empty_side():
    """A never-executed empty map has no schema; the probe must still find
    its merge keys (inner → no rows, left → every row, NULL side)."""
    from kgw_ray.stages.joins import broadcast_join

    big = rd.from_arrow(pa.table({"k": pa.array([1, 2]), "x": pa.array(["a", "b"])}))
    never = rd.from_items([]).map_batches(lambda b: b)
    assert to_pandas(broadcast_join(big, never, on=["k"], right_on=["id"])).shape[0] == 0
    left = to_pandas(broadcast_join(big, never, on=["k"], right_on=["id"], how="left"))
    assert sorted(left["k"]) == [1, 2]


def test_ivf_topk_on_empty_corpus():
    from kgw_ray.stages.similarity import IVFIndex

    empty = rd.from_arrow(
        pa.table({"vec_id": pa.array([], pa.int64()),
                  "embedding": pa.array([], pa.list_(pa.float32()))})
    )
    idx = IVFIndex.build(empty)
    assert idx.n_cells == 0
    out = idx.topk(np.ones((2, 4)), np.array([7, 8]), k=3)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "vec_id", "cosine", "rank"]


def test_kg_centralization_empty_edges_parity(sf_variant):
    """Empty edges: (0, 0, 0) on both engines (the oracle COALESCEs)."""
    from kgw_ray.pipelines.registry import ORACLES, QUERIES

    sf = sf_variant["empty"]
    got = to_pandas(QUERIES["kg_centralization"](sf))
    want = run_oracle(ORACLES["kg_centralization"], sf)
    assert_matches(got, want, "kg_centralization")
    assert got.iloc[0].tolist() == [0, 0, 0]


def test_events_rollup_no_future_warning(sf_variant):
    import warnings

    from kgw_ray.pipelines.relational import events_rollup

    for variant in ("empty", "normal"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            out = events_rollup(sf_variant[variant])
        assert out.schema.field("hour").type == pa.timestamp("us")


# every grouped aggregate folds with ``combine=True``. Three group-bys are
# not combiners: a per-block k-smallest sample (it feeds fold with
# combine=False), per-document term counts and per-document shingle sets
# (a document is one row, so its distinct values are complete in a block).
_HAND_COMBINER_ALLOWED = {
    "events_user_sketch_by_type", "_distinct_doc_tokens", "_doc_shingle_sets",
}
_HAND_COMBINER = re.compile(
    r"\.groupby\(|\.group_by\(|np\.unique\(|np\.add\.at\(|\.value_counts\(|drop_duplicates\("
)


def _hand_combiners(path: str) -> list[str]:
    """``fold(x, ...)`` call sites in ``path`` whose input ``x`` maps
    batches through a function that groups, histograms or deduplicates by
    hand. ``x`` is followed along its Dataset method chain, through
    ``union`` and through names assigned in enclosing scopes (``a =
    ds.map_batches(f)``; ``fold(a.union(b), ...)``), a lambda's calls are
    followed into the local functions they name, and so are the local
    functions that ``f`` calls, one level deep. Not seen: a per-block
    group-by whose result is pulled and regrouped without ``fold``, and
    ``map_groups`` bodies (their group-bys are mostly the per-user or
    per-order computation itself)."""
    src = open(path).read()
    found = []

    def called(expr) -> list[str]:
        return [
            c.func.id for c in ast.walk(expr)
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
        ]

    def mapped(expr, chains, seen=()) -> list[str]:
        """Functions mapped along the Dataset method chain of ``expr``."""
        if isinstance(expr, ast.Name):
            if expr.id in seen:
                return []
            return [
                f for value in chains.get(expr.id, [])
                for f in mapped(value, chains, (*seen, expr.id))
            ]
        if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)):
            return []
        out = mapped(expr.func.value, chains, seen)
        if expr.func.attr == "map_batches" and expr.args:
            f = expr.args[0]
            out += [f.id] if isinstance(f, ast.Name) else called(f)
        elif expr.func.attr == "union":
            out += [g for a in expr.args for g in mapped(a, chains, seen)]
        return out

    def visit(node, scopes, owners, chains):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [d for d in ast.walk(node) if d is not node]
            local = {d.name: d for d in inner if isinstance(d, ast.FunctionDef)}
            chain = {}
            for a in inner:
                if (
                    isinstance(a, ast.Assign) and len(a.targets) == 1
                    and isinstance(a.targets[0], ast.Name)
                ):
                    chain.setdefault(a.targets[0].id, []).append(a.value)
            scopes, owners, chains = scopes + [local], owners + [node.name], {**chains, **chain}
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "fold"
            and node.args
        ):
            def resolve(name):
                return next((sc[name] for sc in reversed(scopes) if name in sc), None)

            for name in mapped(node.args[0], chains):
                fn = resolve(name)
                if fn is None:
                    continue
                body = [fn] + [h for h in map(resolve, called(fn)) if h is not None]
                if not _HAND_COMBINER_ALLOWED & {name, *owners} and any(
                    _HAND_COMBINER.search(ast.get_source_segment(src, b))
                    and b.name not in _HAND_COMBINER_ALLOWED
                    for b in body
                ):
                    found.append(f"{path}:{node.lineno} {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, owners, chains)

    tree = ast.parse(src)
    top = {d.name: d for d in tree.body if isinstance(d, ast.FunctionDef)}
    visit(tree, [top], [], {})
    return found


def test_grouped_aggregates_use_fold():
    """No second entry point to the grouped fold, and no hand-written
    per-block group-by, histogram or distinct feeding a ``fold`` call
    (what ``_hand_combiners`` can see): its per-block combine is the
    fold's own (``combine=True``)."""
    root = os.path.join(os.path.dirname(__file__), "..", "kgw_ray")
    wrapper, hand = [], []
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                if "grouped_aggregate_hybrid" in open(path).read():
                    wrapper.append(path)
                hand += _hand_combiners(path)
    assert wrapper == [], wrapper
    assert hand == [], "\n".join(hand)


# Ray Data's sort-based ``groupby(...).aggregate(...)`` raises on NULL
# string keys spread over several blocks; these callers still use it and
# are to move onto ``fold``. No new caller may appear.
_RAY_GROUPBY_AGGREGATE = {
    "stages/agg.py": {"salted_aggregate"},
    "stages/canonicalize.py": {"connected_components"},
    "stages/dedup.py": {"exact_dedup_keep", "jaccard_verify_pairs", "simhash_near_dup_pairs"},
    "pipelines/relational.py": {"events_users_no_purchase"},
}


def test_ray_groupby_aggregate_callers():
    """The direct ``groupby(...).aggregate(`` calls in kgw_ray/, by
    top-level function, are exactly the known ones (none in webkg)."""
    root = os.path.join(os.path.dirname(__file__), "..", "kgw_ray")
    found = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            if not f.endswith(".py"):
                continue
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            for top in ast.parse(open(path).read()).body:
                for node in ast.walk(top):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "aggregate"
                        and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "attr", None) == "groupby"
                    ):
                        found.setdefault(rel, set()).add(getattr(top, "name", "<module>"))
    assert "pipelines/webkg.py" not in found
    assert found == _RAY_GROUPBY_AGGREGATE
