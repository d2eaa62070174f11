"""The one grouped fold (stages/agg.py:fold): its driver branch and its
exchange branch agree for every caller on empty, one-row, NULL-key and
normal inputs; a materialized input costs at most one execution; and the
query-mix plans reduce driver-sized results without an all-to-all."""

import os

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
    from kgw_ray.pipelines import webkg
    from kgw_ray.stages import agg

    def pin():
        monkeypatch.setattr(agg, "DRIVER_LIMIT", 0)
        monkeypatch.setattr(webkg, "_DRIVER_MERGE_LIMIT", 0)

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
        "curate_documents": td.curate_documents,
        "webkg_edges": lambda sf: webkg.edge_rows(triples(sf)),
        "webkg_nodes": lambda sf: webkg.node_rows(triples(sf)),
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
    from kgw_ray.stages.agg import fold

    t = pa.table({"k": pa.array(["a", "b", "a"]), "v": pa.array([1, 2, 3])})
    ds = rd.from_arrow(t).repartition(2).materialize()
    executions.clear()
    out = fold(ds, "k", [("v", "sum", "v")])
    assert len(executions) == 0 and out.num_rows == 2
    out = fold(ds, "k", [("v", "sum", "v")], combine=True)
    assert len(executions) == 1 and out.num_rows == 2


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
