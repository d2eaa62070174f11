"""Relational pipelines over the star schema: scan→filter→project→join→
aggregate→sort→limit, plus event-stream windowing / sessionization / as-of.

These prove the engine's core operator set (SURVEY.md §2.2/§2.4/§2.5) on
non-graph workloads. Design rules applied throughout:

- column pruning at the read (``read_table(columns=[...])``),
- vectorized Arrow/pandas kernels inside ``map_batches`` (no row loops),
- partial per-batch pre-aggregation before every ``groupby`` shuffle,
- broadcast joins for dimension tables, hash-partitioned ``Dataset.join``
  when both sides are large,
- float aggregates rounded identically to the oracle SQL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Max, Min

from kgw_ray.functions.arrow_utils import arrow_from_pandas, typed_pandas
from kgw_ray.functions.porthash import bitlen_u64 as _bitlen_u64
from kgw_ray.functions.porthash import mix64 as _mix64
from kgw_ray.sources.readers import read_table, read_table_pandas, scan_parquet
from kgw_ray.stages.agg import as_dataset, fold, order_by
from kgw_ray.stages.joins import broadcast_join, large_join

_R = 2  # money rounding (both sides of every oracle)


def _rint(col) -> pa.Array:
    """Round half to even to int64 (np.rint, as the oracles' ROUND)."""
    return pa.array(np.rint(col.to_numpy(zero_copy_only=False)).astype(np.int64))


def _cents(col) -> pa.Array:
    """A money column as exact integer cents."""
    return pa.array(
        np.rint(col.to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
    )


def _lookup(col, mapping: pd.Series) -> pa.Array:
    """``mapping[key]`` for every key of ``col`` (NULL for a missing key)."""
    at = pc.index_in(col, value_set=pa.array(mapping.index.to_numpy()))
    return pc.take(pa.array(mapping.to_numpy(), from_pandas=True), at)


def _first_us(event_type: str, out_col: str):
    """Derive for a per-user first-``event_type`` fold: (user_id, ts in
    µs) of the matching rows."""

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), event_type))
        return pa.table(
            {"user_id": pc.cast(t.column("user_id"), pa.int64()),
             out_col: pc.cast(t.column("ts"), pa.int64())}
        )

    return derive


def distributed_topk(
    ds: "rd.Dataset | pa.Table", keys: list[str], descending: list[bool], k: int
) -> pa.Table:
    """Top-k under a deterministic total order WITHOUT a global sort: each
    block emits its local top-k (vectorized pandas sort over ≤ block rows),
    and the ≤ (#blocks × k)-row partials merge on the driver with the same
    ordering. The global ``Dataset.sort`` alternative shuffles every block
    and builds one reduce partition per input block — measured ~2s of pure
    overhead for a 10-row answer over 64 blocks at sf0.1 (same pattern as
    stages/similarity.py:brute_force_topk). ``keys`` must include a unique
    tie-break column so the order is total. A driver table (a fold's
    driver branch) is ordered in place."""
    if isinstance(ds, pa.Table):
        return order_by(ds, keys, descending).slice(0, k)
    ascending = [not d for d in descending]

    def local(df: pd.DataFrame) -> pa.Table:
        return arrow_from_pandas(
            df.sort_values(keys, ascending=ascending).head(k)
        )

    parts = ds.map_batches(local, batch_format="pandas").to_pandas()
    if len(parts) == 0 or not set(keys).issubset(parts.columns):
        # an all-empty result drops its schema on the pandas pull (the
        # repo-wide empty-pull hazard) — rebuild a typed empty table from
        # the upstream schema so callers and the driver's schema compare
        # still see the right columns; a never-executed/schema-less input
        # returns None from schema(), in which case the (possibly
        # column-less) parts frame is the best available answer
        sch = ds.schema()
        if sch is None:
            return arrow_from_pandas(parts.head(0))
        return pa.table(
            {n: pa.array([], t) for n, t in zip(sch.names, sch.types)}
        )
    out = parts.sort_values(keys, ascending=ascending).head(k).reset_index(drop=True)
    return arrow_from_pandas(out)


def q1_pricing_summary(sf_dir: str) -> rd.Dataset:
    """TPC-H Q1 shape: grouped pricing summary over lineitem.

    Partial aggregation per batch (combiner) → tiny final groupby: the
    shuffle moves ≤ |groups| rows per batch, not the table.
    """
    ds = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    )

    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), pa.timestamp("us"))

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("l_shipdate"), cutoff))
        disc_price = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(1, t.column("l_discount"))
        )
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "l_quantity": t.column("l_quantity"),
                "l_extendedprice": t.column("l_extendedprice"),
                "l_discount": t.column("l_discount"),
                "disc_price": disc_price,
                "charge": pc.multiply(disc_price, pc.add(1, t.column("l_tax"))),
            }
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        n = df["count_order"]
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["sum_qty"].round(_R),
                "sum_base_price": df["sum_base_price"].round(_R),
                "sum_disc_price": df["sum_disc_price"].round(_R),
                "sum_charge": df["sum_charge"].round(_R),
                "avg_qty": (df["sum_qty"] / n).round(_R),
                "avg_price": (df["sum_base_price"] / n).round(_R),
                "avg_disc": (df["sum_disc"] / n).round(_R),
                "count_order": n.astype("int64"),
            }
        )

    # output cardinality is bounded by |returnflag|x|linestatus| (6 rows at
    # ANY scale): the fold merges, finalizes and orders it on the driver
    merged = fold(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [
            ("l_quantity", "sum", "sum_qty"),
            ("l_extendedprice", "sum", "sum_base_price"),
            ("disc_price", "sum", "sum_disc_price"),
            ("charge", "sum", "sum_charge"),
            ("l_discount", "sum", "sum_disc"),
            (None, "count", "count_order"),
        ],
        finalize=finalize,
        combine=True,
    )
    return order_by(merged, ["l_returnflag", "l_linestatus"], [False, False])


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2) AS sum_qty,
       ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2) AS sum_charge,
       ROUND(SUM(l_quantity) / COUNT(*), 2) AS avg_qty,
       ROUND(SUM(l_extendedprice) / COUNT(*), 2) AS avg_price,
       ROUND(SUM(l_discount) / COUNT(*), 2) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# filtered join sides below this row count broadcast instead of hash-joining
_BROADCAST_SIDE_LIMIT = 5_000_000


def q3_top_orders(
    sf_dir: str, *, force_hash_join: bool = False, use_bloom: bool = False
) -> rd.Dataset:
    """TPC-H Q3 shape: dimension broadcast join + size-hybrid fact join +
    grouped revenue + top-k (deterministic tie-break on o_orderkey).

    The filtered orders side is counted after the selective predicates; if
    it broadcasts (≤5M rows — at sf0.1 it is ~14k) the lineitem join is a
    map-side merge with zero shuffle, otherwise a hash-partitioned
    ``Dataset.join``. ``force_hash_join`` pins the shuffle path (used by
    the ``join_lineitem_orders_hash`` oracle query so the hash-join
    machinery stays under the correctness gate)."""
    import pyarrow.dataset as pads

    # predicate + projection pushed into the Parquet scan: only the ~1/5
    # matching keys of ONE column leave storage (row-group pruning)
    # direct driver-side scan: the filtered key column is the broadcast
    # side, so a Ray Dataset execution here is pure overhead (readers.py)
    cust = read_table_pandas(
        sf_dir,
        "customer",
        columns=["c_custkey"],
        filter=(pads.field("c_mktsegment") == "BUILDING"),
    )
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    cutoff = pd.Timestamp("1998-01-01")
    orders = orders.map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], pa.scalar(cutoff))),
        batch_format="pyarrow",
    )
    orders = broadcast_join(orders, cust, on=["o_custkey"], right_on=["c_custkey"])
    line = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    )
    orders_side = orders.select_columns(["o_orderkey", "o_orderdate"]).materialize()
    if not force_hash_join and orders_side.count() <= _BROADCAST_SIDE_LIMIT:
        j = broadcast_join(line, orders_side, on=["l_orderkey"], right_on=["o_orderkey"]
        )
    else:
        probe = line
        if use_bloom:
            # bloom-prefiltered hash join: the build side's bloom filter
            # (~bits_per_key/8 bytes per key — 10x smaller than the key
            # set) drops definite non-matches BEFORE the exchange; false
            # positives only waste shuffle rows, the join stays exact
            from kgw_ray.stages.joins import bloom_prefilter, build_bloom

            ref, m = build_bloom(
                orders_side.select_columns(["o_orderkey"]),
                "o_orderkey",
                orders_side.count(),
            )
            probe = bloom_prefilter(line, "l_orderkey", ref, m)
        j = large_join(
            probe,
            orders_side,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )

    def derive(t: pa.Table) -> pa.Table:
        revenue = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(1, t.column("l_discount"))
        )
        return pa.table(
            {"l_orderkey": t.column("l_orderkey"), "o_orderdate": t.column("o_orderdate"),
             "revenue": revenue}
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["revenue"] = df["revenue"].round(_R)
        return df.rename(columns={"l_orderkey": "o_orderkey"})[
            ["o_orderkey", "o_orderdate", "revenue"]
        ]

    out = fold(
        j.map_batches(derive, batch_format="pyarrow"),
        ["l_orderkey", "o_orderdate"],
        [("revenue", "sum", "revenue")],
        finalize=finalize,
        combine=True,
    )
    return distributed_topk(out, ["revenue", "o_orderkey"], [True, False], 10)


Q3_SQL = """
SELECT l_orderkey AS o_orderkey, o_orderdate,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
              JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1998-01-01'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderkey
LIMIT 10
"""


def q5_revenue_by_nation(sf_dir: str, *, force_hash_join: bool = False) -> rd.Dataset:
    """TPC-H Q5 shape: star join + grouped revenue.

    True dimensions (nation, supplier, customer) broadcast; ORDERS is a
    fact table, so the orders→customer nation map is built distributed
    (broadcast-join of the customer dim into the orders scan) and the
    lineitem⋈orders join follows the q3 size-hybrid rule: count the
    (o_orderkey, c_nationkey) side, broadcast under the limit, else a
    hash-partitioned ``large_join``. ``force_hash_join`` pins the shuffle
    path (the ``q5_revenue_by_nation_hash`` oracle query)."""
    nation = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    supplier = read_table_pandas(
        sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]
    )
    customer = read_table_pandas(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    )
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    # order → customer nation, distributed: broadcast the customer dim into
    # the orders scan (never pull the fact table to the driver)
    o2n = (
        broadcast_join(orders, customer, on=["o_custkey"], right_on=["c_custkey"])
        .map_batches(
            lambda df: arrow_from_pandas(df[["o_orderkey", "c_nationkey"]]),
            batch_format="pandas",
        )
        .materialize()
    )
    if not force_hash_join and o2n.count() <= _BROADCAST_SIDE_LIMIT:
        j = broadcast_join(line, o2n, on=["l_orderkey"], right_on=["o_orderkey"])
    else:
        j = large_join(line, o2n, on=("l_orderkey",), right_on=("o_orderkey",))
    s2n = supplier[["s_suppkey", "s_nationkey"]]
    j = broadcast_join(j, s2n, on=["l_suppkey"], right_on=["s_suppkey"])

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("c_nationkey"), t.column("s_nationkey")))
        revenue = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(1, t.column("l_discount"))
        )
        return pa.table({"c_nationkey": t.column("c_nationkey"), "revenue": revenue})

    nmap = dict(zip(nation["n_nationkey"], nation["n_name"]))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": df["c_nationkey"].map(nmap),
                "revenue": df["revenue"].round(_R),
            }
        )

    # bounded by |nation| (25 rows) — driver-order the tiny result
    merged = fold(
        j.map_batches(derive, batch_format="pyarrow"),
        "c_nationkey",
        [("revenue", "sum", "revenue")],
        finalize=finalize,
        combine=True,
    )
    return order_by(merged, ["revenue", "n_name"], [True, False])


Q5_SQL = """
SELECT n_name, ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


# ---------------------------------------------------------------------------
# Event-stream shapes: tumbling windows, sessionization, as-of join
# ---------------------------------------------------------------------------


def events_hourly_window(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Tumbling 1h event-time window per event_type: count + rounded sum.

    Ray Data has no event-time windowing; the window key is derived per
    batch (vectorized floor) and the aggregation is an ordinary grouped
    shuffle with per-batch partials — the documented batch-engine mapping
    for stream-shaped references (SURVEY.md §2.8).
    """
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.floor_temporal(t.column("ts"), unit="hour"),
                "value": t.column("value"),
            }
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_value"] = df["sum_value"].round(_R)
        df["n"] = df["n"].astype("int64")
        return df[["event_type", "hour", "n", "sum_value"]]

    return fold(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["event_type", "hour"],
        [(None, "count", "n"), ("value", "sum", "sum_value")],
        finalize=finalize,
        combine=True,
    )


EVENTS_HOURLY_SQL = """
SELECT event_type, date_trunc('hour', ts) AS hour, COUNT(*) AS n,
       ROUND(SUM(value), 2) AS sum_value
FROM events
GROUP BY event_type, date_trunc('hour', ts)
"""

_HOUR_US = 3_600_000_000


def events_hourly_gapfill(sf_dir: str) -> "rd.Dataset | pa.Table":
    """Dense hourly timeline with zero-filled gaps: every hour between the
    corpus min and max — including hours with NO events — gets a row
    (hour, n, sum_value). The time-spine generation + left join + fill
    is the standard streaming-dashboard/feature-store densification that
    a plain groupby cannot produce (absent groups have no rows to group).

    Physical plan: one (Min, Max) aggregate bounds the spine; the spine is
    a DISTRIBUTED ``rd.range(n_hours)`` (a century of hours is ~876k rows
    — generated, never shipped from the driver); the hourly aggregate is
    the usual per-batch partial + vocabulary-sized grouped Sum, and it
    broadcasts back onto the spine via one ``ray.put`` (hours are
    vocabulary-sized by construction). No shuffle of event rows.
    """
    from ray.data.aggregate import Max, Min

    ds = read_table(sf_dir, "events", columns=["ts", "value"]).materialize()
    if ds.count() == 0:
        # return the typed Arrow table itself: a zero-row Dataset's
        # to_pandas drops its columns (the repo-wide empty-pull hazard)
        return pa.table(
            {
                "hour": pa.array([], pa.timestamp("us")),
                "n": pa.array([], pa.int64()),
                "sum_value": pa.array([], pa.float64()),
            }
        )
    bounds = ds.aggregate(Min("ts", alias_name="lo"), Max("ts", alias_name="hi"))
    lo_us = pc.cast(pa.scalar(bounds["lo"]), pa.timestamp("us")).cast(pa.int64()).as_py()
    hi_us = pc.cast(pa.scalar(bounds["hi"]), pa.timestamp("us")).cast(pa.int64()).as_py()
    lo_h, hi_h = lo_us // _HOUR_US, hi_us // _HOUR_US

    def derive(t: pa.Table) -> pa.Table:
        he = pc.divide(pc.cast(t.column("ts"), pa.int64()), _HOUR_US)
        return pa.table({"he": he, "value": t.column("value")})

    counts = fold(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["he"],
        [(None, "count", "n"), ("value", "sum", "sum_value")],
        combine=True,
    )

    spine = rd.range(hi_h - lo_h + 1).map_batches(
        lambda t: pa.table(
            {"he": pc.add(pc.cast(t.column("id"), pa.int64()), lo_h)}
        ),
        batch_format="pyarrow",
    )
    joined = broadcast_join(spine, counts, on=["he"], how="left")

    def finalize(df: pd.DataFrame) -> pa.Table:
        he = df["he"].to_numpy().astype(np.int64)
        n = df["n"].fillna(0).to_numpy().astype(np.int64)
        sv = df["sum_value"].fillna(0.0).to_numpy().round(_R)
        return pa.table(
            {
                "hour": pa.array(he * _HOUR_US, pa.timestamp("us")),
                "n": pa.array(n),
                "sum_value": pa.array(sv, pa.float64()),
            }
        )

    return joined.map_batches(finalize, batch_format="pandas")


EVENTS_GAPFILL_SQL = """
WITH b AS (
  SELECT CAST(epoch_us(MIN(ts)) AS BIGINT) // 3600000000 AS lo,
         CAST(epoch_us(MAX(ts)) AS BIGINT) // 3600000000 AS hi
  FROM events
),
spine AS (SELECT unnest(generate_series(b.lo, b.hi)) AS he FROM b),
c AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS he,
         CAST(COUNT(*) AS BIGINT) AS n, ROUND(SUM(value), 2) AS sum_value
  FROM events GROUP BY 1
)
SELECT make_timestamp(s.he * 3600000000) AS hour,
       COALESCE(c.n, 0) AS n,
       COALESCE(c.sum_value, 0.0) AS sum_value
FROM spine s LEFT JOIN c ON c.he = s.he
"""


_WINDOW_SHARDS = 64


def _user_segments(u: "np.ndarray"):
    """Sorted-by-user array → (segment start indices, per-segment lengths).
    The boundary mask replaces one Python call per user with two numpy
    ops per SHARD — the sharded-coarse pattern (stages/dedup.py:
    simhash_near_dup_pairs)."""
    import numpy as np

    new_user = np.ones(len(u), dtype=bool)
    new_user[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(new_user)
    lengths = np.diff(np.concatenate((starts, [len(u)])))
    return starts, lengths


def _shard_by_user(t: "pa.Table") -> "pa.Table":
    """Append the window-family shard key (``user_id % _WINDOW_SHARDS``) —
    ONE definition for every sharded-coarse per-user window operator."""
    u = t.column("user_id").to_numpy(zero_copy_only=False).astype("int64")
    return t.append_column("_shard", pa.array(u % _WINDOW_SHARDS))


def events_sessionize(sf_dir: str, gap_minutes: int = 30) -> rd.Dataset:
    """Session windows per user (gap > 30min starts a new session):
    (user_id, n_sessions, n_events).

    Sharded-coarse plan: ONE shuffle keyed on ``user_id % 64`` (64 groups,
    not one per user), then inside each shard a vectorized lexsort by
    (user, ts) + segment-boundary reduceat — no per-user Python call, the
    constant-factor fix for 10^9-user logs (VERDICT r3 task 6). Users
    never split across shards, so session gaps are computed exactly."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes).to_timedelta64()

    def per_shard(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy()
        if len(u) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        ts = g["ts"].to_numpy()
        starts, lengths = _user_segments(u)
        new_sess = np.zeros(len(u), dtype=np.int64)
        same_user = np.zeros(len(u), dtype=bool)
        same_user[1:] = u[1:] == u[:-1]
        new_sess[1:] = ((ts[1:] - ts[:-1]) > gap).astype(np.int64)
        new_sess *= same_user
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "n_sessions": pa.array(np.add.reduceat(new_sess, starts) + 1),
                "n_events": pa.array(lengths.astype(np.int64)),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_SESSIONIZE_SQL = """
WITH d AS (
    SELECT user_id, ts,
           CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                     > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
    FROM events
)
SELECT user_id, CAST(SUM(new_sess) + 1 AS BIGINT) AS n_sessions,
       COUNT(*) AS n_events
FROM d GROUP BY user_id
"""


def events_asof_last_signup(sf_dir: str) -> rd.Dataset:
    """As-of join within the event log: for every 'purchase', the ts of the
    user's most recent prior 'signup' (NULL if none).

    Sharded-coarse as-of (VERDICT r3 task 6): irrelevant event types are
    dropped BEFORE the shuffle (map-side), the exchange is keyed on
    ``user_id % 64``, and inside each shard one lexsort by
    (user, ts, is_signup) + a segment-reset ``np.maximum.accumulate``
    forward-fills each purchase's latest STRICTLY-earlier signup position
    — purchases sort before signups at equal ts, so exact-ts signups are
    excluded (merge_asof ``allow_exact_matches=False`` semantics) without
    any per-user Python. Returns (event_id, user_id, ts, last_signup_ts).
    """
    import numpy as np

    ds = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def shard(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(
            t.column("event_type"),
            value_set=pa.array(["purchase", "signup"], pa.string()),
        )
        return _shard_by_user(t.filter(keep))

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            # ns: pandas .to_numpy() yields datetime64[ns] in nonempty
            # shards — empty blocks must carry the identical schema
            "ts": pa.array([], pa.timestamp("ns")),
            "last_signup_ts": pa.array([], pa.timestamp("ns")),
        }
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        is_signup = (g["event_type"] == "signup").to_numpy()
        g = g.assign(_sig=is_signup).sort_values(
            ["user_id", "ts", "_sig"], kind="mergesort"
        )
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        sig = g["_sig"].to_numpy()
        n = len(u)
        starts, lengths = _user_segments(u)
        seg_start = np.repeat(starts, lengths)
        # last signup position at-or-before each row, reset per user:
        # signup rows carry their own index, others carry the segment
        # start - 1 sentinel floor; the running max never crosses segments
        # because each segment's floor >= any earlier segment's indices + 1
        # is NOT guaranteed — so mask afterwards against seg_start instead
        idx = np.where(sig, np.arange(n), -1)
        last_sig = np.maximum.accumulate(idx)
        valid = last_sig >= seg_start
        is_purch = ~sig
        out_ts = ts[np.maximum(last_sig, 0)]
        result = pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy()[is_purch]),
                "user_id": pa.array(u[is_purch]),
                "ts": pa.array(ts[is_purch]),
                "last_signup_ts": pa.array(
                    np.where(
                        valid[is_purch],
                        out_ts[is_purch],
                        np.datetime64("NaT"),
                    )
                ),
            }
        )
        return result

    return (
        ds.map_batches(shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_ASOF_SQL = """
SELECT event_id, user_id, ts,
       (SELECT MAX(s.ts) FROM events s
        WHERE s.user_id = e.user_id AND s.event_type = 'signup' AND s.ts < e.ts)
       AS last_signup_ts
FROM events e
WHERE event_type = 'purchase'
"""


def top_users_by_value(sf_dir: str, k: int = 10) -> rd.Dataset:
    """groupby user → rounded sum(value) → top-k with deterministic tie-break."""
    ds = read_table(sf_dir, "events", columns=["user_id", "value"])

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["total_value"] = df["total_value"].round(_R)
        return df

    merged = fold(
        ds.select_columns(["user_id", "value"]),
        "user_id",
        [("value", "sum", "total_value")],
        finalize=finalize,
        combine=True,
    )
    return distributed_topk(merged, ["total_value", "user_id"], [True, False], k)


TOP_USERS_SQL = """
SELECT user_id, ROUND(SUM(value), 2) AS total_value
FROM events GROUP BY user_id
ORDER BY total_value DESC, user_id
LIMIT 10
"""


def events_rank_in_user(sf_dir: str, k: int = 3) -> rd.Dataset:
    """Window-rank shape: top-k events per user by value (ROW_NUMBER
    analog). Sharded-coarse (VERDICT r3 task 6): shuffle on
    ``user_id % 64``, one lexsort by (user, -value, event_id) per shard,
    rank = position − segment start + 1, mask rank ≤ k — no per-user
    Python call."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "value": pa.array([], pa.float64()),
                    "rnk": pa.array([], pa.int64()),
                }
            )
        g = g.sort_values(
            ["user_id", "value", "event_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        u = g["user_id"].to_numpy()
        starts, lengths = _user_segments(u)
        rnk = np.arange(len(u), dtype=np.int64) - np.repeat(starts, lengths) + 1
        keep = rnk <= k
        return pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy()[keep]),
                "user_id": pa.array(u[keep]),
                "value": pa.array(g["value"].to_numpy()[keep]),
                "rnk": pa.array(rnk[keep]),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_RANK_SQL = """
SELECT event_id, user_id, value,
       CAST(row_number() OVER (PARTITION BY user_id ORDER BY value DESC, event_id) AS BIGINT) AS rnk
FROM events
QUALIFY rnk <= 3
"""


def events_users_no_purchase(sf_dir: str, *, force_shuffle: bool = False) -> rd.Dataset:
    """Anti-join shape: users who have events but never a 'purchase'.

    Fully distributed: distinct users and distinct buyers come from native
    hash aggregates, then the size-hybrid ``anti_join`` (broadcast negated
    filter under the limit, hash-partitioned ``left_anti`` beyond — the
    10^9-user path, pinned by ``force_shuffle`` in tests)."""
    from ray.data.aggregate import Count as _Count

    from kgw_ray.stages.joins import anti_join

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    distinct_users = (
        ds.groupby("user_id").aggregate(_Count(alias_name="_n")).drop_columns(["_n"])
    )
    buyers = (
        ds.filter(expr="event_type == 'purchase'")
        .groupby("user_id")
        .aggregate(_Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    out = anti_join(
        distinct_users,
        buyers,
        on="user_id",
        broadcast_limit=0 if force_shuffle else 5_000_000,
    ).materialize()
    # non-buyers can be MOST users at 10^9 scale — return the Dataset, never
    # a driver table. Only the empty case pins a driver-side schema (an
    # empty Ray dataset drops its columns on to_pandas, which would fail
    # the driver's schema compare).
    if out.count() == 0:
        return pa.table({"user_id": pa.array([], pa.int64())})
    return out


EVENTS_NO_PURCHASE_SQL = """
SELECT DISTINCT user_id FROM events
WHERE user_id NOT IN (SELECT user_id FROM events WHERE event_type = 'purchase')
"""


def distinct_event_types(sf_dir: str) -> "pa.Table | rd.Dataset":
    """DISTINCT shape (reference load.py:557: SELECT DISTINCT type): a
    COUNT fold with the count dropped (NULL is one distinct value)."""
    ds = read_table(sf_dir, "events", columns=["event_type"])
    return fold(ds, "event_type", [(None, "count", "n")], combine=True).drop_columns(["n"])


DISTINCT_EVENT_TYPES_SQL = "SELECT DISTINCT event_type FROM events"


def events_sliding_window(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Sliding 1h window advancing 30min: each event belongs to 2 windows
    (flat-map the window starts per batch, then an ordinary grouped
    partial-agg shuffle — the batch-engine mapping for sliding windows)."""
    ds = read_table(sf_dir, "events", columns=["ts", "value"])

    def expand(t: pa.Table) -> pa.Table:
        half = pc.floor_temporal(t.column("ts"), multiple=30, unit="minute")
        prev = pc.subtract(half, pa.scalar(pd.Timedelta(minutes=30), pa.duration("us")))
        value = t.column("value")
        return pa.concat_tables(
            [
                pa.table({"window_start": half, "value": value}),
                pa.table({"window_start": prev, "value": value}),
            ]
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["n"] = df["n"].astype("int64")
        df["sum_value"] = df["sum_value"].round(_R)
        return df[["window_start", "n", "sum_value"]]

    return fold(
        ds.map_batches(expand, batch_format="pyarrow"),
        "window_start",
        [(None, "count", "n"), ("value", "sum", "sum_value")],
        finalize=finalize,
        combine=True,
    )


EVENTS_SLIDING_SQL = """
WITH e AS (
    SELECT value, date_trunc('hour', ts) + CASE WHEN minute(ts) >= 30
           THEN INTERVAL 30 MINUTE ELSE INTERVAL 0 MINUTE END AS half
    FROM events
), w AS (
    SELECT half AS window_start, value FROM e
    UNION ALL
    SELECT half - INTERVAL 30 MINUTE, value FROM e
)
SELECT window_start, COUNT(*) AS n, ROUND(SUM(value), 2) AS sum_value
FROM w GROUP BY window_start
"""


def docs_english_short(sf_dir: str) -> rd.Dataset:
    """Predicate + projection pushdown at the Parquet scan: only ``en`` rows
    and two columns leave storage (``read_table(filter=...)`` maps to
    pyarrow dataset row-group pruning — reference analog: header-index
    projection in the TSV readers, _monarchkg.py:125-149)."""
    import pyarrow.dataset as pads

    expr = (pads.field("lang") == "en") & (pads.field("n_chars") < 200)
    return read_table(sf_dir, "documents", columns=["doc_id", "n_chars"], filter=expr)


DOCS_EN_SHORT_SQL = """
SELECT doc_id, n_chars FROM documents WHERE lang = 'en' AND n_chars < 200
"""


def events_value_quantiles(sf_dir: str) -> rd.Dataset:
    """Per-type value quantiles (p50/p95): groupby + per-group vectorized
    quantile — each group fits a worker by the grouping contract; a
    corpus-wide quantile at 100 TB would use a t-digest sketch merge
    instead (same partial/merge shape as the combiners)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "p50": [round(g["value"].quantile(0.5), 2)],
                "p95": [round(g["value"].quantile(0.95), 2)],
            }
        )

    return ds.groupby("event_type").map_groups(per_type, batch_format="pandas")


EVENTS_QUANTILES_SQL = """
SELECT event_type,
       ROUND(quantile_cont(value, 0.5), 2) AS p50,
       ROUND(quantile_cont(value, 0.95), 2) AS p95
FROM events GROUP BY event_type
"""


def top_users_by_value_salted(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Same result as top_users_by_value but through the salted two-phase
    aggregation (stages/agg.py:salted_aggregate) — puts the skew path under
    the value-parity gate."""
    from kgw_ray.stages.agg import salted_aggregate

    ds = read_table(sf_dir, "events", columns=["user_id", "value"]).rename_columns(
        {"value": "total_value"}
    )
    merged = salted_aggregate(ds, "user_id", ["total_value"], salt=16)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["total_value"] = df["total_value"].round(_R)
        return df

    return distributed_topk(
        merged.map_batches(finalize, batch_format="pandas"),
        ["total_value", "user_id"],
        [True, False],
        k,
    )


def events_minmax_by_type(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Min/Max/Count aggregate family per event type."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["min_value"] = df["min_value"].round(_R)
        df["max_value"] = df["max_value"].round(_R)
        df["n"] = df["n"].astype("int64")
        return df

    return fold(
        ds,
        "event_type",
        [("value", "min", "min_value"), ("value", "max", "max_value"), (None, "count", "n")],
        finalize=finalize,
        combine=True,
    )


EVENTS_MINMAX_SQL = """
SELECT event_type, ROUND(MIN(value), 2) AS min_value,
       ROUND(MAX(value), 2) AS max_value, COUNT(*) AS n
FROM events GROUP BY event_type
"""


def events_props_extract(sf_dir: str) -> "pa.Table | rd.Dataset":
    """JSON property extraction on the data plane (§2.7; the reference
    parses/merges JSON property columns per record, _pharmebinet.py:168-178):
    pull ``k`` out of the events ``props`` JSON column, vectorized orjson
    per batch, and aggregate per event_type."""
    from kgw_ray.functions.scalars import json_loads

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        # missing / null / non-numeric k counts as 0 (a JSON null would
        # otherwise poison the pandas sum with a NoneType); the oracle's
        # SUM skips NULLs, which only differs for an all-null group —
        # impossible in this schema's generator
        def k_of(p):
            v = json_loads(p).get("k") if p else None
            return int(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else 0

        ks = [k_of(p) for p in batch.column("props").to_pylist()]
        return pa.table({"event_type": batch.column("event_type"), "k": pa.array(ks, pa.int64())})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["sum_k"] = df["sum_k"].astype("int64")
        df["n"] = df["n"].astype("int64")
        return df[["event_type", "sum_k", "n"]]

    return fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        "event_type",
        [("k", "sum", "sum_k"), (None, "count", "n")],
        finalize=finalize,
        combine=True,
    )


EVENTS_PROPS_SQL = """
SELECT event_type,
       CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       COUNT(*) AS n
FROM events GROUP BY event_type
"""

def events_range_join(sf_dir: str) -> rd.Dataset:
    """Interval (range) join WITHOUT an equi-key: every (signup, purchase)
    event pair where the purchase happens within 10 minutes at-or-after the
    signup, across ALL users — the bucketed distributed range join
    (stages/joins.py:range_join): both sides bucket by 10-minute windows,
    the signup side replicates to its ≤2 overlapping buckets, one hash
    join co-locates candidates, and an exact vectorized filter keeps true
    pairs. Output: (signup_id, purchase_id, delta_s)."""
    if read_table(sf_dir, "events", columns=["event_id"]).count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "signup_id": pa.array([], pa.int64()),
                    "purchase_id": pa.array([], pa.int64()),
                    "delta_s": pa.array([], pa.int64()),
                }
            )
        )
    from kgw_ray.stages.joins import range_join

    # materialized once: both join inputs filter off this read — lazy, the
    # events scan would execute twice (the endemic double-execution gotcha)
    ev = read_table(
        sf_dir, "events", columns=["event_id", "ts", "event_type"]
    ).materialize()
    signups = ev.filter(expr="event_type == 'signup'").rename_columns(
        {"event_id": "signup_id", "ts": "signup_ts"}
    ).drop_columns(["event_type"])
    purchases = ev.filter(expr="event_type == 'purchase'").rename_columns(
        {"event_id": "purchase_id"}
    ).drop_columns(["event_type"])
    j = range_join(
        signups,
        purchases,
        left_ts="signup_ts",
        right_ts="ts",
        lower_us=0,
        upper_us=10 * 60 * 1_000_000,
    )

    def finalize(batch: pa.Table) -> pa.Table:
        lt = pc.cast(batch["signup_ts"], pa.int64()).to_numpy(zero_copy_only=False)
        rt = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "signup_id": batch["signup_id"],
                "purchase_id": batch["purchase_id"],
                "delta_s": pa.array((rt - lt) // 1_000_000, pa.int64()),
            }
        )

    return j.map_batches(finalize, batch_format="pyarrow")


EVENTS_RANGE_JOIN_SQL = """
SELECT a.event_id AS signup_id, b.event_id AS purchase_id,
       CAST(date_diff('microsecond', a.ts, b.ts) // 1000000 AS BIGINT) AS delta_s
FROM events a JOIN events b
  ON a.event_type = 'signup' AND b.event_type = 'purchase'
 AND b.ts >= a.ts AND b.ts <= a.ts + INTERVAL 10 MINUTE
"""


def events_value_exact_quantiles(sf_dir: str) -> pa.Table:
    """EXACT p50/p90/p99 of events.value via distributed histogram-
    refinement rank selection (stages/agg.py:exact_quantiles) — no sort,
    no shuffle, only located bins are ever pulled; the engine-exact
    companion to the mergeable ``approx_quantiles`` sketch. Both engines
    select the ceil(q·N)-th element (identical float64 ceil on both
    sides), so the values hash-match bit-for-bit."""
    from kgw_ray.stages.agg import exact_quantiles

    ds = read_table(sf_dir, "events", columns=["value"])
    res = exact_quantiles(ds, "value", [0.5, 0.9, 0.99])
    labels = {0.5: "p50", 0.9: "p90", 0.99: "p99"}
    qs = sorted(res)
    return pa.table(
        {
            "quantile": pa.array([labels[q] for q in qs], pa.string()),
            "value": pa.array([res[q] for q in qs], pa.float64()),
        }
    )


EVENTS_EXACT_QUANTILES_SQL = """
WITH s AS (
  SELECT value, ROW_NUMBER() OVER (ORDER BY value) AS rn,
         COUNT(*) OVER () AS n
  FROM events WHERE value IS NOT NULL
)
SELECT 'p50' AS quantile, value FROM s WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)
UNION ALL
SELECT 'p90', value FROM s WHERE rn = CAST(ceil(0.9 * n) AS BIGINT)
UNION ALL
SELECT 'p99', value FROM s WHERE rn = CAST(ceil(0.99 * n) AS BIGINT)
"""


def events_median_by_type(sf_dir: str) -> pa.Table:
    """Exact per-event-type median of value (stages/agg.py:
    grouped_exact_median — value-count sharding, vocabulary-sized
    shuffle; both engines SELECT the ceil(n/2)-th element, no float
    arithmetic to diverge)."""
    from kgw_ray.stages.agg import grouped_exact_median

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    return grouped_exact_median(ds, "event_type", "value")


EVENTS_MEDIAN_SQL = """
WITH s AS (
  SELECT event_type, value,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY value) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM events WHERE value IS NOT NULL
)
SELECT event_type, value AS median FROM s
WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)
"""


def events_median_ts_by_type(sf_dir: str) -> pa.Table:
    """Exact per-group median over a CONTINUOUS column (~n distinct
    values): the event timestamp in epoch microseconds. This is the
    domain where ``grouped_exact_median``'s distinct-value-vocabulary
    contract breaks (the "vocabulary" would be the table), so it runs the
    per-group histogram-refinement rank selection instead
    (stages/agg.py: grouped_exact_quantiles — one corpus pass per
    refinement level for ALL groups together, targets×bins exchange,
    pulls only located bins). Epoch-µs values (< 2^53) are float64-exact,
    so the selected element round-trips to BIGINT bit-exactly."""
    from kgw_ray.stages.agg import grouped_exact_quantiles

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "ts_us": pc.cast(
                    pc.cast(t.column("ts"), pa.timestamp("us")), pa.int64()
                ),
            }
        )

    out = grouped_exact_quantiles(
        ds.map_batches(to_us, batch_format="pyarrow"), "event_type", "ts_us", [0.5]
    )
    return pa.table(
        {
            "event_type": out.column("event_type"),
            "median_ts_us": pc.cast(out.column("q0.5"), pa.int64()),
        }
    )


EVENTS_MEDIAN_TS_SQL = """
WITH v AS (
  SELECT event_type, epoch_us(ts) AS t FROM events WHERE ts IS NOT NULL
),
r AS (
  SELECT event_type, t,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY t) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM v
)
SELECT event_type, CAST(t AS BIGINT) AS median_ts_us
FROM r WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)
"""


def events_latest_per_user(sf_dir: str) -> rd.Dataset:
    """CDC-style compaction: the LATEST event row per user (ts desc,
    event_id desc tie-break) — the keep-newest-version dedup every
    changelog/crawl-revisit pipeline runs.

    Physical plan: arg-max by COMBINER, not by window function — each
    batch keeps one packed key per user (zero-padded ts|event_id prefix,
    so lexicographic Max IS the (ts, event_id) max; the value payload
    rides behind the unique prefix as its raw IEEE-754 bits, recovered
    bit-exactly), then one vocabulary-sized groupby Max. The shuffle
    moves ≤ one row per (batch, user) — never the event log. Contrast
    ``events_rank_in_user``, which demonstrates the window-function plan.
    """
    import numpy as np
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def pack(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        vbits = (
            batch.column("value")
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
            .view(np.uint64)
        )
        # lpad never truncates: an out-of-width or negative field would
        # silently corrupt both the lexicographic order and the
        # fixed-offset unpack — fail loudly instead
        if len(ts_us) and (
            ts_us.min() < 0 or eid.min() < 0 or eid.max() >= 10**12
        ):
            raise ValueError(
                "events_latest_per_user: ts/event_id outside the packed-key "
                "width contract (0 <= ts_us, 0 <= event_id < 10^12)"
            )
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(pa.array(ts_us), pa.string()), 20, "0"),
            pc.utf8_lpad(pc.cast(pa.array(eid), pa.string()), 12, "0"),
            pc.utf8_lpad(
                pc.cast(pa.array(vbits, pa.uint64()), pa.string()), 20, "0"
            ),
            "",
        )
        return pa.table({"user_id": batch.column("user_id"), "key": key})

    merged = as_dataset(fold(
        ds.map_batches(pack, batch_format="pyarrow"),
        "user_id",
        [("key", "max", "key")],
        combine=True,
    ))

    def unpack(batch: pa.Table) -> pa.Table:
        import numpy as np

        keys = batch.column("key").to_pylist()
        ts_us = np.array([int(k[:20]) for k in keys], dtype=np.int64)
        eid = np.array([int(k[20:32]) for k in keys], dtype=np.int64)
        val = np.array([int(k[32:]) for k in keys], dtype=np.uint64).view(
            np.float64
        )
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": pa.array(eid),
                "ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
                "value": pa.array(val),
            }
        )

    return merged.map_batches(unpack, batch_format="pyarrow")


EVENTS_LATEST_SQL = """
WITH r AS (
  SELECT user_id, event_id, ts, value,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events
)
SELECT user_id, event_id, ts, value FROM r WHERE rn = 1
"""


def events_user_distinct_sketch(sf_dir: str) -> pa.Table:
    """Distinct-user cardinality via the KMV sketch (stages/agg.py:
    kmv_distinct) — the zero-shuffle COUNT DISTINCT path for columns whose
    exact distinct set would itself be a shuffle. Integer-exact across
    engines: kth-min hash + estimator are pure integer functions."""
    from kgw_ray.stages.agg import kmv_distinct

    ds = read_table(sf_dir, "events", columns=["user_id"])
    r = kmv_distinct(ds, "user_id", k=1024)
    return pa.table(
        {
            "k": pa.array([r["k"]], pa.int64()),
            "n": pa.array([r["n"]], pa.int64()),
            "kth_min": pa.array(
                [None if r["kth_min"] is None else str(r["kth_min"])], pa.string()
            ),
            "est_distinct": pa.array([r["est_distinct"]], pa.int64()),
        }
    )


def _kmv_sql() -> str:
    from kgw_ray.pipelines.training_data import _MD5_LE_UINT64

    return f"""
WITH hsrc AS (
  SELECT DISTINCT md5(CAST(user_id AS VARCHAR)) AS hx
  FROM events WHERE user_id IS NOT NULL
),
u AS (SELECT ({_MD5_LE_UINT64}) AS hv FROM hsrc),
kmin AS (SELECT hv FROM u ORDER BY hv LIMIT 1024),
agg AS (SELECT COUNT(*) AS n, MAX(hv) AS kth FROM kmin)
SELECT 1024 AS k, CAST(n AS BIGINT) AS n, CAST(kth AS VARCHAR) AS kth_min,
       CASE WHEN n < 1024 THEN CAST(n AS BIGINT)
            ELSE CAST((CAST(n - 1 AS UHUGEINT) * CAST(18446744073709551616 AS UHUGEINT))
                      // CAST(kth AS UHUGEINT) AS BIGINT)
       END AS est_distinct
FROM agg
"""


EVENTS_KMV_SQL = _kmv_sql()


def events_funnel(sf_dir: str) -> rd.Dataset:
    """Sequential 3-stage funnel per user (view → click → purchase, each
    STRICTLY after the previous stage's first occurrence) — the
    order-sensitive analytics pattern, computed WITHOUT any per-user
    ordered window: each stage is a per-batch Min combiner + a
    vocabulary-sized groupby Min, with the previous stage's (user, ts)
    table attached via the size-hybrid join rule (broadcast under the
    limit, hash-partitioned beyond). One materialized hub feeds all three
    stage scans."""
    from kgw_ray.stages.joins import large_join

    hub = read_table(
        sf_dir, "events", columns=["user_id", "event_type", "ts"]
    ).materialize()

    def _typed_stage_pandas(prev, col: str) -> pd.DataFrame:
        # an empty stage dataset drops its schema on the pandas pull (the
        # repo-wide empty-pull hazard): rebuild the typed empty frame so
        # the downstream merge still sees user_id + the stage column
        bp = prev.to_pandas()
        if "user_id" not in bp.columns:
            bp = pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    col: pd.Series([], dtype="int64"),
                }
            )
        return bp

    def stage_min(etype: str, prev, prev_col: str | None, out_col: str):
        ev = hub.map_batches(
            lambda t, _e=etype: t.filter(pc.equal(t["event_type"], _e)),
            batch_format="pyarrow",
        )
        if prev is not None:
            prev = prev.materialize()
            if prev.count() <= _BROADCAST_SIDE_LIMIT:
                ev = broadcast_join(
                    ev, _typed_stage_pandas(prev, prev_col), on=["user_id"]
                )
            else:
                ev = large_join(ev, prev, on=("user_id",))
            ev = ev.map_batches(
                lambda t, _p=prev_col: t.filter(
                    pc.greater(pc.cast(t["ts"], pa.int64()), t[_p])
                ),
                batch_format="pyarrow",
            )

        def first_ts(t: pa.Table) -> pa.Table:
            return pa.table(
                {"user_id": t.column("user_id"), out_col: pc.cast(t.column("ts"), pa.int64())}
            )

        return as_dataset(fold(
            ev.map_batches(first_ts, batch_format="pyarrow"),
            "user_id",
            [(out_col, "min", out_col)],
            combine=True,
        ))

    t1 = stage_min("view", None, None, "t_view")
    t2 = stage_min("click", t1, "t_view", "t_click")
    t3 = stage_min("purchase", t2, "t_click", "t_purchase")

    def hybrid_left(a: rd.Dataset, b: rd.Dataset, col: str) -> rd.Dataset:
        b = b.materialize()
        if b.count() <= _BROADCAST_SIDE_LIMIT:
            return broadcast_join(
                a, _typed_stage_pandas(b, col), on=["user_id"], how="left"
            )
        return large_join(a, b, on=("user_id",), how="left_outer")

    joined = hybrid_left(hybrid_left(t1, t2, "t_click"), t3, "t_purchase")

    def finalize(df: pd.DataFrame) -> pa.Table:
        out = pd.DataFrame({"user_id": df["user_id"].astype("int64")})
        # left-join misses surface as NaN floats; us-values are exact in
        # float64 (< 2^53), so the Int64 round-trip is lossless
        for c in ("t_view", "t_click", "t_purchase"):
            out[c] = pd.to_datetime(
                df[c].astype("float64").astype("Int64"), unit="us"
            )
        out["stage_reached"] = (
            1
            + df["t_click"].notna().astype("int64")
            + df["t_purchase"].notna().astype("int64")
        )
        return arrow_from_pandas(out)

    return joined.map_batches(finalize, batch_format="pandas")


EVENTS_FUNNEL_SQL = """
WITH t1 AS (
  SELECT user_id, MIN(ts) AS t_view FROM events
  WHERE event_type = 'view' GROUP BY user_id
),
t2 AS (
  SELECT e.user_id, MIN(e.ts) AS t_click
  FROM events e JOIN t1 ON e.user_id = t1.user_id
  WHERE e.event_type = 'click' AND e.ts > t1.t_view GROUP BY e.user_id
),
t3 AS (
  SELECT e.user_id, MIN(e.ts) AS t_purchase
  FROM events e JOIN t2 ON e.user_id = t2.user_id
  WHERE e.event_type = 'purchase' AND e.ts > t2.t_click GROUP BY e.user_id
)
SELECT t1.user_id, t1.t_view, t2.t_click, t3.t_purchase,
       1 + CAST(t2.user_id IS NOT NULL AS BIGINT)
         + CAST(t3.user_id IS NOT NULL AS BIGINT) AS stage_reached
FROM t1 LEFT JOIN t2 ON t1.user_id = t2.user_id
        LEFT JOIN t3 ON t1.user_id = t3.user_id
"""


def events_rollup(sf_dir: str) -> pa.Table:
    """GROUP BY ROLLUP(event_type, hour): the three aggregation levels —
    (type, hour), (type), grand total — from ONE combiner pass over the
    event log. The detail level is the only distributed aggregate (same
    exchange as events_hourly_window); the two super-aggregate levels
    re-reduce the bounded detail table (types × hours rows) on the
    driver, never the corpus. Super-levels sum the UNROUNDED detail sums
    so rounding composes exactly like the SQL ROLLUP."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.floor_temporal(t.column("ts"), unit="hour"),
                "value": t.column("value"),
            }
        )

    detail = fold(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["event_type", "hour"],
        [(None, "count", "n"), ("value", "sum", "sum_value")],
        combine=True,
    ).to_pandas()
    lvl1 = (
        detail.groupby("event_type", sort=False, dropna=False)
        .agg(n=("n", "sum"), sum_value=("sum_value", "sum"))
        .reset_index()
    )

    def level(event_type, hour, n, sum_value) -> pa.Table:
        # typed Arrow levels: a pandas concat of the all-NULL super-level
        # columns is deprecated (FutureWarning) and would drop their types
        return pa.table(
            {
                "event_type": pa.array(event_type, pa.string(), from_pandas=True),
                "hour": pa.array(hour, pa.timestamp("us"), from_pandas=True),
                "n": pa.array(n, pa.int64()),
                "sum_value": pa.array(np.round(np.asarray(sum_value, np.float64), _R)),
            }
        )

    return pa.concat_tables(
        [
            level(detail["event_type"], detail["hour"], detail["n"], detail["sum_value"]),
            level(lvl1["event_type"], [None] * len(lvl1), lvl1["n"], lvl1["sum_value"]),
            level([None], [None], [detail["n"].sum()], [detail["sum_value"].sum()]),
        ]
    )


EVENTS_ROLLUP_SQL = """
SELECT event_type, date_trunc('hour', ts) AS hour, COUNT(*) AS n,
       ROUND(SUM(value), 2) AS sum_value
FROM events
GROUP BY ROLLUP(event_type, date_trunc('hour', ts))
"""


def events_snapshot_diff(sf_dir: str) -> rd.Dataset:
    """CDC snapshot diff: compare the latest-event-per-user state at the
    HALFWAY point of the log (event_id ≤ max(event_id)//2) against the
    final state → (user_id, old_event_id, new_event_id, status in
    added/changed/unchanged) — the table-diff every incremental-ingest
    pipeline runs to validate a changefeed replay.

    Physical plan: ONE pass packs both snapshots' arg-max keys per batch
    (zero-padded ts|event_id, lexicographic Max == (ts, event_id) max;
    the old-snapshot key is NULL for rows past the cutoff so the same
    grouped Max ignores them); one vocabulary-sized exchange merges both
    columns, then a vectorized unpack + compare. The event log itself
    never shuffles. Sibling of events_latest_per_user (the gated single
    snapshot)."""
    import numpy as np
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    mx_id = ds.max("event_id")
    cutoff = (mx_id // 2) if mx_id is not None else 0

    def pack(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        if len(ts_us) and (ts_us.min() < 0 or eid.min() < 0 or eid.max() >= 10**12):
            raise ValueError(
                "events_snapshot_diff: ts/event_id outside the packed-key "
                "width contract (0 <= ts_us, 0 <= event_id < 10^12)"
            )
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(pa.array(ts_us), pa.string()), 20, "0"),
            pc.utf8_lpad(pc.cast(pa.array(eid), pa.string()), 12, "0"),
            "",
        ).to_numpy(zero_copy_only=False)
        # "" sentinel for rows past the cutoff: every packed key is 52
        # digits so "" sorts below all of them and the SAME Max aggregate
        # works on both merge paths (pandas object-max chokes on None)
        old_key = np.where(eid <= cutoff, key, "")
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "new_key": pa.array(key, pa.string()),
                "old_key": pa.array(old_key, pa.string()),
            }
        )

    merged = as_dataset(fold(
        ds.map_batches(pack, batch_format="pyarrow"),
        "user_id",
        [("new_key", "max", "new_key"), ("old_key", "max", "old_key")],
        combine=True,
    ))

    def unpack(batch: pa.Table) -> pa.Table:
        new_keys = batch.column("new_key").to_pylist()
        old_keys = batch.column("old_key").to_pylist()
        new_eid = np.array([int(k[20:32]) for k in new_keys], dtype=np.int64)
        old_eid = pa.array(
            [None if not k else int(k[20:32]) for k in old_keys], pa.int64()
        )
        status = [
            "added" if not o else ("unchanged" if int(o[20:32]) == n else "changed")
            for o, n in zip(old_keys, new_eid)
        ]
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "old_event_id": old_eid,
                "new_event_id": pa.array(new_eid),
                "status": pa.array(status, pa.string()),
            }
        )

    return merged.map_batches(unpack, batch_format="pyarrow")


EVENTS_SNAPSHOT_DIFF_SQL = """
WITH cut AS (SELECT MAX(event_id) // 2 AS c FROM events),
nw AS (
  SELECT user_id, event_id, ROW_NUMBER() OVER (
    PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
),
newest AS (SELECT user_id, event_id AS new_event_id FROM nw WHERE rn = 1),
od AS (
  SELECT e.user_id, e.event_id, ROW_NUMBER() OVER (
    PARTITION BY e.user_id ORDER BY e.ts DESC, e.event_id DESC) AS rn
  FROM events e, cut WHERE e.event_id <= cut.c
),
oldest AS (SELECT user_id, event_id AS old_event_id FROM od WHERE rn = 1)
SELECT n.user_id, o.old_event_id, n.new_event_id,
       CASE WHEN o.user_id IS NULL THEN 'added'
            WHEN o.old_event_id = n.new_event_id THEN 'unchanged'
            ELSE 'changed' END AS status
FROM newest n LEFT JOIN oldest o ON n.user_id = o.user_id
"""


def docs_table_checksum(sf_dir: str) -> pa.Table:
    """Anti-entropy fingerprint of the documents table: order-insensitive
    md5-sum checksum + row count (stages/agg.py:table_checksum) — the
    replica/engine-parity check that validates a 10^12-row copy without
    moving it. Zero shuffle: one (sum, n) row per block."""
    from kgw_ray.stages.agg import table_checksum

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    ds = read_table(sf_dir, "documents", columns=cols)
    r = table_checksum(ds, cols)
    return pa.table(
        {
            "n_rows": pa.array([r["n_rows"]], pa.int64()),
            "checksum": pa.array([r["checksum"]], pa.string()),
        }
    )


def _docs_checksum_sql() -> str:
    from kgw_ray.pipelines.training_data import _MD5_LE_UINT64

    row = (
        "COALESCE(CAST(doc_id AS VARCHAR), '') || '|' || COALESCE(text, '')"
        " || '|' || COALESCE(lang, '') || '|' || COALESCE(source, '')"
        " || '|' || COALESCE(CAST(n_chars AS VARCHAR), '')"
    )
    return f"""
WITH h AS (SELECT md5({row}) AS hx FROM documents),
u AS (SELECT ({_MD5_LE_UINT64}) AS hv FROM h)
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CAST(hv AS HUGEINT)) % CAST(18446744073709551616 AS HUGEINT)
            AS VARCHAR) AS checksum
FROM u
"""


DOCS_CHECKSUM_SQL = _docs_checksum_sql()

_COMPACT_TARGET = 64  # rows/file at gate scale; production passes ~1e6


def docs_compact_small_files(sf_dir: str) -> pa.Table:
    """Small-file compaction with VERIFIED content preservation: rewrite
    the documents table into ceil(n/target) Parquet files
    (sinks/compact.py:compact_parquet), read the compacted output back,
    and fingerprint it with the order-insensitive md5-sum table checksum.
    The returned (n_rows, n_files, checksum) row is hash-gated against an
    oracle computed over the ORIGINAL table — so the gate proves the
    rewrite dropped, duplicated and corrupted nothing, and produced the
    contracted file count."""
    import tempfile

    from kgw_ray.sinks.compact import compact_parquet
    from kgw_ray.stages.agg import table_checksum

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    ds = read_table(sf_dir, "documents", columns=cols)
    if ds.count() == 0:  # empty corpus: the oracle's COUNT/SUM-over-empty row
        return pa.table(
            {
                "n_rows": pa.array([0], pa.int64()),
                "n_files": pa.array([0], pa.int64()),
                "checksum": pa.array([None], pa.string()),
            }
        )
    out_dir = tempfile.mkdtemp(prefix="kgw_ray_compact_")
    stats = compact_parquet(ds, out_dir, target_rows_per_file=_COMPACT_TARGET)
    r = table_checksum(scan_parquet(out_dir, columns=cols), cols)
    return pa.table(
        {
            "n_rows": pa.array([r["n_rows"]], pa.int64()),
            "n_files": pa.array([stats["n_files"]], pa.int64()),
            "checksum": pa.array([r["checksum"]], pa.string()),
        }
    )


def _docs_compact_sql() -> str:
    from kgw_ray.pipelines.training_data import _MD5_LE_UINT64

    row = (
        "COALESCE(CAST(doc_id AS VARCHAR), '') || '|' || COALESCE(text, '')"
        " || '|' || COALESCE(lang, '') || '|' || COALESCE(source, '')"
        " || '|' || COALESCE(CAST(n_chars AS VARCHAR), '')"
    )
    return f"""
WITH h AS (SELECT md5({row}) AS hx FROM documents),
u AS (SELECT ({_MD5_LE_UINT64}) AS hv FROM h)
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST((COUNT(*) + {_COMPACT_TARGET} - 1) // {_COMPACT_TARGET}
            AS BIGINT) AS n_files,
       CAST(SUM(CAST(hv AS HUGEINT)) % CAST(18446744073709551616 AS HUGEINT)
            AS VARCHAR) AS checksum
FROM u
"""


DOCS_COMPACT_SQL = _docs_compact_sql()


def orders_period_diff(sf_dir: str) -> rd.Dataset:
    """Period-over-period customer activity: per-customer order counts in
    the first vs second half of the order-date range, FULL OUTER joined so
    single-period customers surface with a NULL other side → (o_custkey,
    n_h1, n_h2, status in both/h1_only/h2_only).

    Pins the full_outer path of the hash-shuffle join (the one join type
    no other registered query exercises; a single-pass conditional-sum
    aggregate could compute the same table — this operator exists to keep
    the outer-join machinery under the value gate). The halfway cutoff is
    integer epoch-µs arithmetic on both engines."""
    if read_table(sf_dir, "orders", columns=["o_orderkey"]).count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "n_h1": pa.array([], pa.int64()),
                    "n_h2": pa.array([], pa.int64()),
                    "status": pa.array([], pa.string()),
                }
            )
        )
    import numpy as np
    import pyarrow.compute as pc

    from kgw_ray.stages.joins import large_join

    from ray.data.aggregate import Max, Min

    ds = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate"]
    ).materialize()  # consumed three times: min/max probe + both halves
    bounds = ds.aggregate(
        Min("o_orderdate", alias_name="lo"), Max("o_orderdate", alias_name="hi")
    )
    if bounds is None or bounds.get("lo") is None:  # empty orders table
        lo = hi = 0
    else:
        lo = pc.cast(pa.scalar(bounds["lo"]), pa.timestamp("us")).cast(pa.int64()).as_py()
        hi = pc.cast(pa.scalar(bounds["hi"]), pa.timestamp("us")).cast(pa.int64()).as_py()
    cut = (lo + hi) // 2

    def half_counts(which_first: bool):
        def partial(batch: pa.Table) -> pa.Table:
            ts = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            keep = ts < cut if which_first else ts >= cut
            keys = batch.column("o_custkey").filter(pa.array(keep))
            return pa.table({"o_custkey": pc.cast(keys, pa.int64())})

        col = "n_h1" if which_first else "n_h2"
        return as_dataset(fold(
            ds.map_batches(partial, batch_format="pyarrow"),
            "o_custkey",
            [(None, "count", col)],
            combine=True,
        )).materialize()

    joined = large_join(
        half_counts(True), half_counts(False), on=("o_custkey",), how="full_outer"
    )

    def finalize(batch: pa.Table) -> pa.Table:
        h1 = batch.column("n_h1").to_numpy(zero_copy_only=False)
        h2 = batch.column("n_h2").to_numpy(zero_copy_only=False)
        status = np.where(
            np.isnan(h1.astype(np.float64)),
            "h2_only",
            np.where(np.isnan(h2.astype(np.float64)), "h1_only", "both"),
        )
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "n_h1": batch.column("n_h1"),
                "n_h2": batch.column("n_h2"),
                "status": pa.array(status, pa.string()),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")


ORDERS_PERIOD_DIFF_SQL = """
WITH cut AS (
  SELECT (epoch_us(MIN(o_orderdate)) + epoch_us(MAX(o_orderdate))) // 2 AS c
  FROM orders
),
h1 AS (SELECT o_custkey, COUNT(*) AS n_h1 FROM orders, cut
       WHERE epoch_us(o_orderdate) < cut.c GROUP BY o_custkey),
h2 AS (SELECT o_custkey, COUNT(*) AS n_h2 FROM orders, cut
       WHERE epoch_us(o_orderdate) >= cut.c GROUP BY o_custkey)
SELECT COALESCE(h1.o_custkey, h2.o_custkey) AS o_custkey, h1.n_h1, h2.n_h2,
       CASE WHEN h1.o_custkey IS NULL THEN 'h2_only'
            WHEN h2.o_custkey IS NULL THEN 'h1_only'
            ELSE 'both' END AS status
FROM h1 FULL OUTER JOIN h2 ON h1.o_custkey = h2.o_custkey
"""


def dq_validate_orders(sf_dir: str) -> pa.Table:
    """Data-quality gate over the orders table: one streaming pass counts
    NULL keys, non-positive totals and out-of-domain statuses (per-block
    partials, driver add), plus referential orphans vs customer via the
    size-hybrid anti join — the ingest-validation report a pipeline runs
    before promoting a snapshot. One row: n_rows, n_null_custkey,
    n_nonpositive_total, n_bad_status, n_orphan_orders."""
    import pyarrow.compute as pc

    from kgw_ray.stages.joins import anti_join

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus"]
    )
    valid_status = pa.array(["O", "F", "P"], pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        null_ck = pc.sum(
            pc.cast(pc.is_null(batch.column("o_custkey")), pa.int64())
        ).as_py() or 0
        tot = batch.column("o_totalprice")
        nonpos = pc.sum(
            pc.cast(pc.less_equal(pc.fill_null(tot, 0.0), 0.0), pa.int64())
        ).as_py() or 0
        bad = pc.sum(
            pc.cast(
                pc.invert(
                    pc.is_in(
                        pc.fill_null(batch.column("o_orderstatus"), ""),
                        value_set=valid_status,
                    )
                ),
                pa.int64(),
            )
        ).as_py() or 0
        return pa.table(
            {
                "n_rows": pa.array([batch.num_rows], pa.int64()),
                "n_null_custkey": pa.array([null_ck], pa.int64()),
                "n_nonpositive_total": pa.array([nonpos], pa.int64()),
                "n_bad_status": pa.array([bad], pa.int64()),
            }
        )

    parts = orders.map_batches(partial, batch_format="pyarrow").take_all()
    customers = read_table(sf_dir, "customer", columns=["c_custkey"])
    orphans = anti_join(
        orders.select_columns(["o_orderkey", "o_custkey"]),
        customers,
        on="o_custkey",
        key_col="c_custkey",
    ).count()
    return pa.table(
        {
            "n_rows": pa.array([sum(p["n_rows"] for p in parts)], pa.int64()),
            "n_null_custkey": pa.array(
                [sum(p["n_null_custkey"] for p in parts)], pa.int64()
            ),
            "n_nonpositive_total": pa.array(
                [sum(p["n_nonpositive_total"] for p in parts)], pa.int64()
            ),
            "n_bad_status": pa.array(
                [sum(p["n_bad_status"] for p in parts)], pa.int64()
            ),
            "n_orphan_orders": pa.array([orphans], pa.int64()),
        }
    )


DQ_ORDERS_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(SUM(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_null_custkey,
       CAST(SUM(CASE WHEN COALESCE(o_totalprice, 0) <= 0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_nonpositive_total,
       CAST(SUM(CASE WHEN COALESCE(o_orderstatus, '')
                     NOT IN ('O', 'F', 'P') THEN 1 ELSE 0 END) AS BIGINT)
         AS n_bad_status,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM orders o
        WHERE o.o_custkey NOT IN (SELECT c_custkey FROM customer
                                  WHERE c_custkey IS NOT NULL)) AS n_orphan_orders
FROM orders
"""


def events_pivot_by_type(sf_dir: str) -> rd.Dataset:
    """Pivot (crosstab): per user one row with a count column per event
    type — the wide feature layout feature stores and BI extracts want.

    The type list is FIXED (the five generator types, sorted) so the
    output schema is static: a dynamic pivot would need a driver-side
    distinct first; callers with open vocabularies should stay long-form.
    Physical plan: one 0/1 indicator column per fixed type, summed by a
    ``fold(combine=True)`` over users — the classic
    conditional-aggregation plan, no row explosion, no shuffle of the log.
    """

    types = ["click", "error", "purchase", "signup", "view"]
    cols = [f"n_{t}" for t in types]
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def indicators(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        out = {"user_id": t.column("user_id")}
        for ty, c in zip(types, cols):
            out[c] = pc.cast(pc.fill_null(pc.equal(et, ty), False), pa.int64())
        return pa.table(out)

    return as_dataset(fold(
        ds.map_batches(indicators, batch_format="pyarrow"),
        "user_id",
        [(c, "sum", c) for c in cols],
        combine=True,
    ))


EVENTS_PIVOT_SQL = """
SELECT user_id,
       CAST(COUNT(*) FILTER (event_type = 'click') AS BIGINT) AS n_click,
       CAST(COUNT(*) FILTER (event_type = 'error') AS BIGINT) AS n_error,
       CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(COUNT(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup,
       CAST(COUNT(*) FILTER (event_type = 'view') AS BIGINT) AS n_view
FROM events GROUP BY user_id
"""


def events_cumulative_value(sf_dir: str) -> rd.Dataset:
    """Per-user running total (prefix scan): cumulative event value in
    integer cents ordered by (ts, event_id) — the balance/LTV scan every
    ledger pipeline runs.

    Integer cents (``rint(value·100)``) make the prefix sum
    associative-exact, so the hash gate holds — a float running sum is
    engine-order-dependent (DuckDB's windowed SUM uses segment trees).
    Physical plan: the sharded-coarse window pattern (``user_id % 64``
    exchange, one lexsort per shard, segment-reset ``np.cumsum``) — the
    same vectorized shape as events_rank_in_user, no per-user Python.
    """
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("ns")),
            "cum_value_cents": pa.array([], pa.int64()),
        }
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        starts, lengths = _user_segments(u)
        run = np.cumsum(cents)
        # subtract the running total just before each segment start
        base = np.where(starts > 0, run[starts - 1], 0)
        cum = run - np.repeat(base, lengths)
        return pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy()),
                "user_id": pa.array(u),
                "ts": pa.array(g["ts"].to_numpy()),
                "cum_value_cents": pa.array(cum),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_CUMSUM_SQL = """
SELECT event_id, user_id, ts,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
       ) AS BIGINT) AS cum_value_cents
FROM events
"""


def events_value_delta(sf_dir: str) -> rd.Dataset:
    """LAG window: per event, the change in value (integer cents) vs the
    user's previous event by (ts, event_id) — NULL on each user's first
    event. The sessionize/trend-detection primitive.

    Physical plan: sharded-coarse window (``user_id % 64`` exchange, one
    lexsort per shard), the lag itself is ONE shifted-array subtraction
    with the segment-start rows masked to NULL — no per-user Python.
    """
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "delta_cents": pa.array([], pa.int64()),
        }
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        prev = np.empty_like(cents)
        prev[1:] = cents[:-1]
        prev[0] = 0
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        delta = cents - prev
        return pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy()),
                "user_id": pa.array(u),
                "delta_cents": pa.array(
                    np.where(first, 0, delta), mask=first
                ),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_DELTA_SQL = """
SELECT event_id, user_id,
       CAST(ROUND(value * 100) AS BIGINT)
       - LAG(CAST(ROUND(value * 100) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS delta_cents
FROM events
"""


_MOVING_AVG_WINDOW = 3  # shared by the pipeline AND its oracle SQL below


def events_moving_avg(
    sf_dir: str, window: int = _MOVING_AVG_WINDOW
) -> rd.Dataset:
    """ROWS-frame moving aggregate: per event the mean value (integer
    permille-cents, floor) over the user's last ``window`` events
    including this one — the rows-frame complement of the time-based
    events_sliding_window.

    Integer output (``1000·sum_cents // n``) keeps the hash gate exact.
    Physical plan: sharded window; the rows-frame sum is a cumsum
    difference with the frame clipped at each segment start — two numpy
    ops, no per-user Python, no per-row frame scan.
    """
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "avg_permille_cents": pa.array([], pa.int64()),
        }
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        cents = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        n = len(u)
        starts, lengths = _user_segments(u)
        seg_start = np.repeat(starts, lengths)
        pos = np.arange(n)
        # frame start: max(row - window + 1, segment start)
        fstart = np.maximum(pos - (window - 1), seg_start)
        run = np.concatenate(([0], np.cumsum(cents)))
        fsum = run[pos + 1] - run[fstart]
        fn = pos - fstart + 1
        avg = (1000 * fsum) // fn
        return pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy()),
                "user_id": pa.array(u),
                "avg_permille_cents": pa.array(avg),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_MOVING_AVG_SQL = f"""
WITH c AS (
  SELECT event_id, user_id, ts,
         CAST(ROUND(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, user_id,
       CAST(1000 * SUM(cents) OVER w AS BIGINT)
       // CAST(COUNT(*) OVER w AS BIGINT) AS avg_permille_cents
FROM c
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN {_MOVING_AVG_WINDOW - 1} PRECEDING AND CURRENT ROW)
"""


def events_cube(sf_dir: str) -> pa.Table:
    """CUBE grouping sets: event counts + total integer cents for every
    combination of (event_type, hour-of-day) including both marginals and
    the grand total — the OLAP complement of events_rollup (which pins
    the ROLLUP hierarchy).

    Physical plan: ONE per-batch partial pass computes the finest
    (type, hour) cell counts; the three coarser grouping sets are exact
    integer re-aggregations of those cells on the driver (the cell table
    is |types|·24 rows — never the log). NULL marks the rolled-up
    dimension, mirroring SQL CUBE output.
    """
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hour = pc.hour(t.column("ts")).to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pa.array(hour),
                "cents": pa.array(cents),
            }
        )

    cells = fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "hour"],
        [(None, "count", "n"), ("cents", "sum", "cents")],
        combine=True,
    ).to_pandas()

    frames = [cells.assign(grp=0)]
    by_type = (
        cells.groupby("event_type", as_index=False, dropna=False)[["n", "cents"]]
        .sum()
        .assign(hour=pd.NA, grp=1)
    )
    by_hour = (
        cells.groupby("hour", as_index=False)[["n", "cents"]]
        .sum()
        .assign(event_type=pd.NA, grp=2)
    )
    # empty-input parity with SQL CUBE: the () grouping set still emits
    # one row, with COUNT(*) = 0 but SUM(...) = NULL (not 0)
    total = pd.DataFrame(
        {
            "event_type": [pd.NA],
            "hour": [pd.NA],
            "n": [cells["n"].sum() if len(cells) else 0],
            "cents": [cells["cents"].sum() if len(cells) else pd.NA],
            "grp": [3],
        }
    )
    out = pd.concat([frames[0], by_type, by_hour, total], ignore_index=True)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"].astype(object), pa.string()),
            "hour": pa.array(
                [None if pd.isna(x) else int(x) for x in out["hour"]], pa.int64()
            ),
            "n": pa.array(out["n"].to_numpy(dtype=object), pa.int64()),
            "cents": pa.array(
                [None if pd.isna(x) else int(x) for x in out["cents"]],
                pa.int64(),
            ),
        }
    )


EVENTS_CUBE_SQL = """
SELECT event_type, CAST(hour(ts) AS BIGINT) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS cents
FROM events
GROUP BY CUBE (event_type, hour(ts))
"""


def events_unpivot_type_counts(sf_dir: str) -> rd.Dataset:
    """UNPIVOT (melt): the wide per-user type-count table
    (events_pivot_by_type) back to long form (user_id, event_type, n),
    zero cells dropped — the wide→long reshaping half of the pivot pair.

    Physical plan: the pivot's one vocabulary-sized exchange, then a
    per-batch vectorized melt (np.repeat/tile over the five fixed
    columns) — reshaping adds NO further shuffle.
    """
    import numpy as np

    types = ["click", "error", "purchase", "signup", "view"]
    cols = [f"n_{t}" for t in types]
    wide = events_pivot_by_type(sf_dir)

    def melt(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        mat = np.stack(
            [t.column(c).to_numpy(zero_copy_only=False) for c in cols], axis=1
        )
        flat = mat.reshape(-1)
        keep = flat > 0
        return pa.table(
            {
                "user_id": pa.array(np.repeat(u, len(types))[keep]),
                "event_type": pa.array(
                    np.tile(np.array(types, dtype=object), len(u))[keep],
                    pa.string(),
                ),
                "n": pa.array(flat[keep].astype(np.int64)),
            }
        )

    return wide.map_batches(melt, batch_format="pyarrow")


EVENTS_UNPIVOT_SQL = """
SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY user_id, event_type
"""


def events_global_rank(sf_dir: str) -> rd.Dataset:
    """Global ROW_NUMBER over events ordered by (value cents, event_id) —
    the distributed total-order ranking primitive
    (stages/agg.py:global_row_number: range-bucket histogram + per-bucket
    lexsort + exclusive prefix offsets; one key-column exchange, no
    global sort, nothing corpus-sized on the driver). event_id breaks
    value ties, making the order — and the hash gate — deterministic.
    """
    import numpy as np

    from kgw_ray.stages.agg import global_row_number

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    def with_cents(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {"cents": pa.array(cents), "event_id": t.column("event_id")}
        )

    return global_row_number(
        ds.map_batches(with_cents, batch_format="pyarrow"),
        ["cents", "event_id"],
        rank_name="rn",
    )


EVENTS_GLOBAL_RANK_SQL = """
SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents, event_id,
       ROW_NUMBER() OVER (
         ORDER BY CAST(ROUND(value * 100) AS BIGINT), event_id
       ) AS rn
FROM events
"""


def events_users_per_type(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Exact grouped COUNT DISTINCT: unique users per event type — the
    audience-size query. Two-level exact plan: per-batch (type, user)
    dedup combiner → ONE exchange keyed on the pair (≤ one row per
    (block, type, user)) → vocabulary-sized per-type count. The user
    payload never shuffles twice; contrast events_user_distinct_sketch,
    the zero-shuffle approximate path for when even the pair exchange is
    too wide.
    """

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    pairs = as_dataset(fold(
        ds.select_columns(["event_type", "user_id"]),
        ["event_type", "user_id"],
        [(None, "count", "n")],
        combine=True,
    ))
    return fold(pairs, "event_type", [(None, "count", "n_users")], combine=True)


EVENTS_USERS_PER_TYPE_SQL = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


def events_user_skew(sf_dir: str) -> pa.Table:
    """Key-skew diagnostic: the per-user event-count distribution as ONE
    row — user count, total events, hottest key's count, and the Gini
    coefficient in integer permille. The pre-flight check that tells a
    pipeline whether a user-keyed shuffle needs salting BEFORE it runs.

    Exact integer plan: per-user counts (vocabulary exchange) → global
    rank of (count, user_id) via the range-bucket ranking primitive
    (stages/agg.py:global_row_number — no global sort) → one tiny
    partial-sum reduce for Σ rn·cnt. Gini = (2·Σ rn·cnt − (n+1)·Σcnt)
    · 1000 // (n·Σcnt), nonnegative by the rearrangement inequality, so
    floor division is engine-portable.
    """

    from kgw_ray.stages.agg import as_dataset, fold, global_row_number

    ds = read_table(sf_dir, "events", columns=["user_id"])

    counts = as_dataset(fold(ds, "user_id", [(None, "count", "cnt")], combine=True))
    ranked = global_row_number(counts, ["cnt", "user_id"], rank_name="rn")

    def fold_partial(t: pa.Table) -> pa.Table:
        cnt = t.column("cnt").to_numpy(zero_copy_only=False)
        rn = t.column("rn").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n": pa.array([len(cnt)], pa.int64()),
                "tot": pa.array([int(cnt.sum())], pa.int64()),
                "mx": pa.array([int(cnt.max()) if len(cnt) else 0], pa.int64()),
                "w": pa.array([int((rn * cnt).sum())], pa.int64()),
            }
        )

    parts = typed_pandas(
        ranked.map_batches(fold_partial, batch_format="pyarrow"),
        ["n", "tot", "mx", "w"],
    )
    n = int(parts["n"].sum())
    tot = int(parts["tot"].sum())
    mx = int(parts["mx"].max()) if len(parts) else 0
    w = int(parts["w"].sum())
    gini = (1000 * (2 * w - (n + 1) * tot)) // (n * tot) if n and tot else 0
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "total_events": pa.array([tot], pa.int64()),
            "max_count": pa.array([mx], pa.int64()),
            "gini_permille": pa.array([gini], pa.int64()),
        }
    )


EVENTS_USER_SKEW_SQL = """
WITH c AS (SELECT user_id, COUNT(*) AS cnt FROM events GROUP BY user_id),
r AS (SELECT cnt, ROW_NUMBER() OVER (ORDER BY cnt, user_id) AS rn FROM c),
s AS (SELECT COUNT(*) AS n, SUM(cnt) AS tot, MAX(cnt) AS mx,
             SUM(rn * cnt) AS w
      FROM r)
SELECT CAST(n AS BIGINT) AS n_users, CAST(tot AS BIGINT) AS total_events,
       CAST(mx AS BIGINT) AS max_count,
       CAST((1000 * (2 * w - (n + 1) * tot)) // (n * tot) AS BIGINT)
         AS gini_permille
FROM s
"""


def events_value_mad(sf_dir: str) -> pa.Table:
    """Robust dispersion: exact median and median-absolute-deviation of
    the event value in integer cents — the outlier-resistant (median,
    MAD) pair monitoring pipelines prefer over (mean, stddev).

    Two chained EXACT rank selections (stages/agg.py:exact_quantiles —
    histogram-refinement, no sort, no shuffle): median of cents, then
    median of |cents − median|. Both are element SELECTIONS of the
    ceil(N/2)-th order statistic, so the oracle reproduces them with
    ROW_NUMBER rank math — no float arithmetic anywhere.
    """
    import numpy as np

    from kgw_ray.stages.agg import exact_quantiles

    ds = read_table(sf_dir, "events", columns=["value"])

    def cents_of(t: pa.Table) -> pa.Table:
        c = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"cents": pa.array(c)})

    cents = ds.map_batches(cents_of, batch_format="pyarrow")
    med_q = exact_quantiles(cents, "cents", [0.5])[0.5]
    med = int(med_q) if med_q is not None else 0

    def dev_of(t: pa.Table) -> pa.Table:
        c = t.column("cents").to_numpy(zero_copy_only=False)
        return pa.table({"dev": pa.array(np.abs(c - med).astype(np.int64))})

    devs = cents.map_batches(dev_of, batch_format="pyarrow")
    mad_q = exact_quantiles(devs, "dev", [0.5])[0.5]
    mad = int(mad_q) if mad_q is not None else 0
    return pa.table(
        {
            "median_cents": pa.array([med], pa.int64()),
            "mad_cents": pa.array([mad], pa.int64()),
        }
    )


EVENTS_MAD_SQL = """
WITH c AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events),
r AS (SELECT cents, ROW_NUMBER() OVER (ORDER BY cents) AS rn,
             COUNT(*) OVER () AS n FROM c),
m AS (SELECT cents AS med FROM r WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)),
d AS (SELECT ABS(cents - (SELECT med FROM m)) AS dev FROM c),
rd AS (SELECT dev, ROW_NUMBER() OVER (ORDER BY dev) AS rn,
              COUNT(*) OVER () AS n FROM d)
SELECT (SELECT med FROM m) AS median_cents,
       (SELECT dev FROM rd WHERE rn = CAST(ceil(0.5 * n) AS BIGINT))
         AS mad_cents
"""


def events_trailing_hour_sum(sf_dir: str) -> rd.Dataset:
    """Time-RANGE window aggregate: per event, the user's total value
    (integer cents) over the trailing hour INCLUSIVE of equal-timestamp
    peers — SQL's ``RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT
    ROW`` (value-based frame; contrast the ROWS frame of
    events_moving_avg and the tumbling events_sliding_window).

    Fully vectorized frame lookup, no per-user Python: within a shard
    sorted by (user, ts), users factorize to dense codes and the
    composite key ``code·2⁴⁵ + (ts − ts_min)`` is globally monotone, so
    ONE ``np.searchsorted`` of ``key − 1h`` finds every row's frame
    start (an out-of-range query clamps to the user's segment start by
    construction) and a prefix-sum difference finishes the job.
    """
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    _empty = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "trailing_hour_cents": pa.array([], pa.int64()),
        }
    )
    W = 3_600_000_000  # 1 hour in µs
    SEG = np.int64(1) << np.int64(45)  # > any single-shard ts span + W

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").view("int64")
        cents = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        codes = np.unique(u, return_inverse=True)[1].astype(np.int64)
        dt = ts - ts.min()
        if len(dt) and (
            dt.max() + W >= SEG or codes.max() >= (1 << 63) // SEG
        ):
            raise ValueError(
                "events_trailing_hour_sum: composite-key budget exceeded "
                "(shard time span >= 2^45 µs or >= 2^18 distinct users "
                "per shard) — raise SEG / _WINDOW_SHARDS"
            )
        key = codes * SEG + dt
        lo = np.searchsorted(key, key - W, side="left")
        pre = np.concatenate(([0], np.cumsum(cents)))
        hi = np.searchsorted(key, key, side="right")
        out = pre[hi] - pre[lo]
        return pa.table(
            {
                "event_id": pa.array(g["event_id"].to_numpy()),
                "user_id": pa.array(u),
                "trailing_hour_cents": pa.array(out),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_TRAILING_HOUR_SQL = """
WITH c AS (SELECT event_id, user_id, ts,
                  CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events)
SELECT event_id, user_id,
       CAST(SUM(cents) OVER (
         PARTITION BY user_id ORDER BY ts
         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
       ) AS BIGINT) AS trailing_hour_cents
FROM c
"""


def events_value_outliers(sf_dir: str) -> rd.Dataset:
    """Robust outlier detection: events whose value deviates from the
    corpus median by more than 5×MAD (integer cents — the modified
    z-score cut data-cleaning pipelines run before training-data
    aggregation). Composition: the exact (median, MAD) pair
    (events_value_mad) broadcast into one vectorized filter pass —
    detection costs two rank selections plus a single streaming scan.
    """
    import numpy as np

    from kgw_ray.stages.agg import exact_quantiles

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    def cents_of(t: pa.Table) -> pa.Table:
        c = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"event_id": t.column("event_id"), "cents": pa.array(c)})

    cents = ds.map_batches(cents_of, batch_format="pyarrow").materialize()
    med_q = exact_quantiles(cents, "cents", [0.5])[0.5]
    med = int(med_q) if med_q is not None else 0

    def dev_of(t: pa.Table) -> pa.Table:
        c = t.column("cents").to_numpy(zero_copy_only=False)
        return pa.table({"dev": pa.array(np.abs(c - med).astype(np.int64))})

    mad_q = exact_quantiles(
        cents.map_batches(dev_of, batch_format="pyarrow"), "dev", [0.5]
    )[0.5]
    mad = int(mad_q) if mad_q is not None else 0
    cut = 5 * mad

    def flag(t: pa.Table) -> pa.Table:
        c = t.column("cents").to_numpy(zero_copy_only=False)
        keep = np.abs(c - med) > cut
        return pa.table(
            {
                "event_id": t.column("event_id").filter(pa.array(keep)),
                "cents": pa.array(c[keep]),
                "abs_dev_cents": pa.array(np.abs(c[keep] - med)),
            }
        )

    return cents.map_batches(flag, batch_format="pyarrow")


EVENTS_OUTLIERS_SQL = """
WITH c AS (SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events),
r AS (SELECT cents, ROW_NUMBER() OVER (ORDER BY cents) AS rn,
             COUNT(*) OVER () AS n FROM c),
m AS (SELECT cents AS med FROM r WHERE rn = CAST(ceil(0.5 * n) AS BIGINT)),
d AS (SELECT ABS(cents - (SELECT med FROM m)) AS dev FROM c),
rd AS (SELECT dev, ROW_NUMBER() OVER (ORDER BY dev) AS rn,
              COUNT(*) OVER () AS n FROM d),
mad AS (SELECT dev FROM rd WHERE rn = CAST(ceil(0.5 * n) AS BIGINT))
SELECT event_id, cents,
       ABS(cents - (SELECT med FROM m)) AS abs_dev_cents
FROM c
WHERE ABS(cents - (SELECT med FROM m)) > 5 * (SELECT dev FROM mad)
"""


def events_users_click_and_purchase(sf_dir: str) -> rd.Dataset:
    """Set INTERSECT: users that both clicked AND purchased — the
    audience-overlap query (contrast events_users_no_purchase's anti
    side). ONE scan folds each user's type presence into a 2-bit mask
    (per-batch bitwise-OR combiner → vocabulary-sized Max), so the plan
    never materializes either side of the intersection separately."""

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    # mergeable fold: per-batch per-user presence bits, grouped Max —
    # bitwise-OR isn't a native grouped agg and Sum would double-count
    def bits(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        flag = lambda v: pc.cast(pc.fill_null(pc.equal(et, v), False), pa.int64())  # noqa: E731
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "b_click": flag("click"),
                "b_purchase": flag("purchase"),
            }
        )

    folded = as_dataset(fold(
        ds.map_batches(bits, batch_format="pyarrow"),
        "user_id",
        [("b_click", "max", "b_click"), ("b_purchase", "max", "b_purchase")],
        combine=True,
    ))

    def both(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.and_(
            pc.equal(t.column("b_click"), 1), pc.equal(t.column("b_purchase"), 1)
        )
        return pa.table({"user_id": t.column("user_id").filter(keep)})

    return folded.map_batches(both, batch_format="pyarrow")


EVENTS_INTERSECT_SQL = """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase'
"""


def events_value_histogram(sf_dir: str, width_cents: int = 1000) -> "pa.Table | rd.Dataset":
    """Equi-width histogram of event value (bucket = cents // width,
    left-closed) — the fixed-bin reporting complement of the equi-depth
    docs_length_band. ONE pass: per-batch ``np.bincount``-style partial
    (np.unique on integer bucket ids) → vocabulary-sized grouped Sum;
    empty buckets are omitted (SQL GROUP BY parity).
    """
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["value"])

    def partial(t: pa.Table) -> pa.Table:
        c = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        b = c // width_cents
        return pa.table({"bucket": pa.array(b), "lo_cents": pa.array(b * width_cents)})

    return fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        "bucket",
        [("lo_cents", "min", "lo_cents"), (None, "count", "n")],
        combine=True,
    )


EVENTS_HISTOGRAM_SQL = """
WITH c AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS cents FROM events)
SELECT cents // 1000 AS bucket,
       CAST((cents // 1000) * 1000 AS BIGINT) AS lo_cents,
       CAST(COUNT(*) AS BIGINT) AS n
FROM c GROUP BY cents // 1000
"""


def events_percent_rank(sf_dir: str) -> rd.Dataset:
    """Percent rank in integer PERMILLION: each event's position in the
    global (cents, event_id) total order scaled to [0, 1e6] — the
    feature-scaling / calibration transform, exact at any N. Reuses the
    distributed ranking primitive (stages/agg.py:global_row_number);
    the permillion formula ``(rn−1)·10⁶ // (N−1)`` is pure integer math
    both engines reproduce (N>1 on any real corpus; N==1 maps to 0).
    """
    import numpy as np

    from kgw_ray.stages.agg import global_row_number

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    def with_cents(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {"cents": pa.array(cents), "event_id": t.column("event_id")}
        )

    ranked = global_row_number(
        ds.map_batches(with_cents, batch_format="pyarrow"),
        ["cents", "event_id"],
        rank_name="rn",
    ).materialize()
    n = ranked.count()

    def scale(t: pa.Table) -> pa.Table:
        rn = t.column("rn").to_numpy(zero_copy_only=False)
        pr = (rn - 1) * 1_000_000 // (n - 1) if n > 1 else np.zeros(len(rn), dtype=np.int64)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "cents": t.column("cents"),
                "pr_permillion": pa.array(pr.astype(np.int64)),
            }
        )

    return ranked.map_batches(scale, batch_format="pyarrow")


EVENTS_PERCENT_RANK_SQL = """
WITH c AS (SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS cents
           FROM events),
r AS (SELECT event_id, cents,
             ROW_NUMBER() OVER (ORDER BY cents, event_id) AS rn,
             COUNT(*) OVER () AS n
      FROM c)
SELECT event_id, cents,
       CAST(CASE WHEN n > 1 THEN (rn - 1) * 1000000 // (n - 1)
                 ELSE 0 END AS BIGINT) AS pr_permillion
FROM r
"""


def orders_monthly_rollup(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Calendar rollup on a DATE column: order count + total price cents
    per (year, month) — the time-bucketed reporting aggregate over the
    orders table (the events table's hourly windows, at date grain).
    ONE pass: per-batch Arrow year()/month() + pandas partial, then a
    (year, month)-vocabulary grouped Sum.
    """
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        d = t.column("o_orderdate")
        return pa.table(
            {
                "year": pc.cast(pc.year(d), pa.int64()),
                "month": pc.cast(pc.month(d), pa.int64()),
                "cents": _cents(t.column("o_totalprice")),
            }
        )

    return fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["year", "month"],
        [(None, "count", "n_orders"), ("cents", "sum", "total_cents")],
        combine=True,
    )


ORDERS_MONTHLY_SQL = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
       CAST(month(o_orderdate) AS BIGINT) AS month,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders GROUP BY year(o_orderdate), month(o_orderdate)
"""


def parts_by_type_stats(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Dimension-table profile: per part type the count, size span and
    retail-price extremes/total in exact cents — the catalog summary a
    pricing pipeline reads before joining parts at fact scale. One
    combiner pass + a type-vocabulary grouped reduce (Min/Max/Sum all
    mergeable)."""

    ds = read_table(
        sf_dir, "part", columns=["p_type", "p_size", "p_retailprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_type": t.column("p_type"),
                "size": pc.cast(t.column("p_size"), pa.int64()),
                "cents": _cents(t.column("p_retailprice")),
            }
        )

    return fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        "p_type",
        [
            (None, "count", "n_parts"),
            ("size", "min", "min_size"),
            ("size", "max", "max_size"),
            ("cents", "min", "min_price_cents"),
            ("cents", "max", "max_price_cents"),
            ("cents", "sum", "total_price_cents"),
        ],
        combine=True,
    )


PARTS_BY_TYPE_SQL = """
SELECT p_type,
       CAST(COUNT(*) AS BIGINT) AS n_parts,
       CAST(MIN(p_size) AS BIGINT) AS min_size,
       CAST(MAX(p_size) AS BIGINT) AS max_size,
       CAST(MIN(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS BIGINT)
         AS min_price_cents,
       CAST(MAX(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS BIGINT)
         AS max_price_cents,
       CAST(SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS BIGINT)
         AS total_price_cents
FROM part GROUP BY p_type
"""


def customers_by_segment_nation(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Two-dimension dimension-table profile with a name join: customer
    count + exact account-balance cents per (market segment, nation
    NAME) — the broadcast-dimension pattern (nation is tiny → pandas
    merge inside the combiner, never a shuffle)."""

    from kgw_ray.sources.readers import read_table_pandas

    nat = read_table_pandas(
        sf_dir, "nation", columns=["n_nationkey", "n_name"]
    )

    ds = read_table(
        sf_dir, "customer", columns=["c_mktsegment", "c_nationkey", "c_acctbal"]
    )

    nat_keys = pa.array(nat["n_nationkey"], pa.int64())
    nat_names = pa.array(nat["n_name"], pa.string())

    def partial(t: pa.Table) -> pa.Table:
        at = pc.index_in(pc.cast(t.column("c_nationkey"), pa.int64()), value_set=nat_keys)
        return pa.table(
            {
                "c_mktsegment": t.column("c_mktsegment"),
                "n_name": pc.take(nat_names, at),
                "cents": _cents(t.column("c_acctbal")),
            }
        )

    return fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["c_mktsegment", "n_name"],
        [(None, "count", "n_customers"), ("cents", "sum", "total_bal_cents")],
        combine=True,
    )


CUSTOMERS_SEGMENT_NATION_SQL = """
SELECT c_mktsegment, n_name,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS BIGINT)
         AS total_bal_cents
FROM customer JOIN nation ON n_nationkey = c_nationkey
GROUP BY c_mktsegment, n_name
"""


def q6_revenue_forecast(sf_dir: str) -> rd.Dataset:
    """TPC-H Q6 shape: highly selective filter + global sum — the
    predicate-pushdown showcase (shipdate year + discount band + quantity
    cap all pushed into the Parquet scan, ~2% of row groups survive).
    Revenue in exact cents; one combiner row per block, tiny final Sum."""
    import numpy as np
    import pyarrow.dataset as pads

    lo = pd.Timestamp("1995-01-01")
    hi = pd.Timestamp("1996-01-01")
    ds = read_table(
        sf_dir,
        "lineitem",
        columns=["l_extendedprice", "l_discount"],
        filter=(
            (pads.field("l_shipdate") >= lo)
            & (pads.field("l_shipdate") < hi)
            & (pads.field("l_discount") >= 0.05)
            & (pads.field("l_discount") <= 0.07)
            & (pads.field("l_quantity") < 24)
        ),
    )

    def partial(t: pa.Table) -> pa.Table:
        # quantize each 2-decimal factor SEPARATELY (price cents x discount
        # percent -> exact 1e-4-dollar integers); rounding the double
        # product hits genuine .5 ties where np.rint (half-even) and SQL
        # ROUND (half-away) disagree
        ext = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        e4 = np.rint(ext * 100.0).astype(np.int64) * np.rint(disc * 100.0).astype(
            np.int64
        )
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "n_items": pa.array([len(t)], pa.int64()),
                "revenue_e4": pa.array([int(e4.sum())], pa.int64()),
            }
        )

    return as_dataset(fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        "one",
        [("n_items", "sum", "n_items"), ("revenue_e4", "sum", "revenue_e4")],
    )).select_columns(["n_items", "revenue_e4"])


Q6_FORECAST_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * CAST(ROUND(l_discount * 100) AS BIGINT))
            AS BIGINT) AS revenue_e4
FROM lineitem
WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'
  AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24
"""


def q4_priority_returned(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q4 shape (EXISTS rewrite): orders with at least one returned
    lineitem, counted per order priority. The R-flag keys are distinct-ed
    by a per-block unique combiner + grouped reduce, then the orders scan
    is semi-joined size-hybrid (broadcast value-set under the limit,
    left_semi hash join beyond) — no fact-x-fact row expansion anywhere."""
    import pyarrow.dataset as pads

    from kgw_ray.stages.joins import semi_join_dataset

    rline = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey"],
        filter=(pads.field("l_returnflag") == "R"),
    )

    rkeys = as_dataset(fold(
        rline.select_columns(["l_orderkey"]), "l_orderkey", [(None, "count", "n")], combine=True
    )).select_columns(["l_orderkey"])

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    hit = semi_join_dataset(orders, rkeys, on="o_orderkey", key_col="l_orderkey")

    return fold(
        hit.select_columns(["o_orderpriority"]),
        "o_orderpriority",
        [(None, "count", "n_orders")],
        combine=True,
    )


Q4_PRIORITY_SQL = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""


def q12_priority_by_returnflag(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q12 shape (shipmode → returnflag adaptation): per return
    flag, how many lineitems belong to critical (1-URGENT/2-HIGH) orders
    vs not. Size-hybrid fact join (orders side broadcasts under the
    limit, hash-partitioned beyond) + conditional-count combiner."""

    from kgw_ray.stages.joins import large_join

    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])
    orders_side = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"]
    ).materialize()
    if orders_side.count() <= _BROADCAST_SIDE_LIMIT:
        j = broadcast_join(line, orders_side,
            on=["l_orderkey"],
            right_on=["o_orderkey"],
        )
    else:
        j = large_join(line, orders_side, on=("l_orderkey",), right_on=("o_orderkey",))

    def partial(t: pa.Table) -> pa.Table:
        urgent = pa.array(["1-URGENT", "2-HIGH"])
        crit = pc.fill_null(pc.is_in(t.column("o_orderpriority"), value_set=urgent), False)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "critical_items": pc.cast(crit, pa.int64()),
                "normal_items": pc.cast(pc.invert(crit), pa.int64()),
            }
        )

    return fold(
        j.map_batches(partial, batch_format="pyarrow"),
        "l_returnflag",
        [("critical_items", "sum", "critical_items"), ("normal_items", "sum", "normal_items")],
        combine=True,
    )


Q12_RETURNFLAG_SQL = """
SELECT l_returnflag,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS critical_items,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS normal_items
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
GROUP BY l_returnflag
"""


def q14_promo_revenue_monthly(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q14 shape: promo vs total revenue per ship month. The part
    dimension (p_partkey → is-promo bit) broadcasts once into a combiner
    that merges + aggregates in the same pass — the revenue share stays
    exact-integer (promo_cents / total_cents emitted separately, no float
    division under the hash gate)."""

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_type"])
    promo_keys = pa.array(part.loc[part["p_type"] == "PROMO", "p_partkey"], pa.int64())

    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        # exact 1e-4-dollar integers: price cents x (100 - discount pct),
        # each factor quantized separately (see q6_revenue_forecast note)
        e4 = pc.multiply(
            _cents(t.column("l_extendedprice")), pc.subtract(100, _cents(t.column("l_discount")))
        )
        isp = pc.is_in(t.column("l_partkey"), value_set=promo_keys)
        d = t.column("l_shipdate")
        return pa.table(
            {
                "year": pc.cast(pc.year(d), pa.int64()),
                "month": pc.cast(pc.month(d), pa.int64()),
                "promo_e4": pc.if_else(isp, e4, 0),
                "total_e4": e4,
            }
        )

    return fold(
        line.map_batches(partial, batch_format="pyarrow"),
        ["year", "month"],
        [("promo_e4", "sum", "promo_e4"), ("total_e4", "sum", "total_e4")],
        combine=True,
    )


Q14_PROMO_SQL = """
SELECT CAST(year(l_shipdate) AS BIGINT) AS year,
       CAST(month(l_shipdate) AS BIGINT) AS month,
       CAST(SUM(CASE WHEN p_type = 'PROMO'
                     THEN CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                          * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                     ELSE 0 END) AS BIGINT) AS promo_e4,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS total_e4
FROM lineitem JOIN part ON p_partkey = l_partkey
GROUP BY year(l_shipdate), month(l_shipdate)
"""


def q18_large_orders_by_customer(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q18 shape: orders whose total quantity exceeds a threshold,
    rolled up per customer. Per-orderkey quantity totals come from a
    combiner + grouped Sum (never a row shuffle of lineitem), the HAVING
    filter drops ~80% before the custkey attach (size-hybrid), and the
    final rollup is one more combiner pass."""

    from kgw_ray.stages.joins import broadcast_join as _bj, large_join as _lj

    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    totals = as_dataset(fold(
        line.map_batches(
            lambda t: pa.table(
                {"l_orderkey": t.column("l_orderkey"), "qty": _rint(t.column("l_quantity"))}
            ),
            batch_format="pyarrow",
        ),
        "l_orderkey",
        [("qty", "sum", "qty")],
        combine=True,
    ))
    big = totals.map_batches(
        lambda t: t.filter(pc.greater(t["qty"], pa.scalar(150))),
        batch_format="pyarrow",
    ).materialize()

    orders_side = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey"]
    ).materialize()
    if orders_side.count() <= _BROADCAST_SIDE_LIMIT:
        j = _bj(big, orders_side.to_pandas(), on=["l_orderkey"], right_on=["o_orderkey"])
    else:
        j = _lj(big, orders_side, on=("l_orderkey",), right_on=("o_orderkey",))

    return fold(
        j.select_columns(["o_custkey", "qty"]),
        "o_custkey",
        [(None, "count", "n_big_orders"), ("qty", "sum", "total_qty")],
        combine=True,
    )


Q18_LARGE_ORDERS_SQL = """
SELECT o_custkey,
       CAST(COUNT(*) AS BIGINT) AS n_big_orders,
       CAST(SUM(qty) AS BIGINT) AS total_qty
FROM orders JOIN (
  SELECT l_orderkey, CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem GROUP BY l_orderkey HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > 150
) ON l_orderkey = o_orderkey
GROUP BY o_custkey
"""


def events_retention_cohorts(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Cohort retention matrix: users grouped by their FIRST-signup week,
    counted distinct per week offset of later activity. Plan: per-user
    min-signup (combiner + grouped Min), size-hybrid attach onto the
    event stream, then the exact grouped COUNT DISTINCT two-level plan
    (per-block (cohort, offset, user) dedup combiner → one pair-keyed
    exchange → vocabulary-sized count). Weeks are epoch-microsecond floor
    divisions — integer-exact on both engines."""

    from kgw_ray.stages.graph_metrics import _hybrid_attach

    WEEK_US = 604_800 * 1_000_000

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    cohorts = as_dataset(fold(
        ds.map_batches(_first_us("signup", "signup_us"), batch_format="pyarrow"),
        "user_id",
        [("signup_us", "min", "signup_us")],
        combine=True,
    ))

    # event_type is consumed by the cohort combiner only — drop it before
    # the fact-side join so the attach moves two columns, not three
    joined = _hybrid_attach(
        ds.select_columns(["user_id", "ts"]), cohorts, on="user_id", right_on="user_id"
    )

    def triple_partial(t: pa.Table) -> pa.Table:
        # µs since the epoch are non-negative: truncating division floors
        cohort_week = pc.divide(t.column("signup_us"), WEEK_US)
        ev_week = pc.divide(pc.cast(t.column("ts"), pa.int64()), WEEK_US)
        out = pa.table(
            {
                "cohort_week": cohort_week,
                "week_offset": pc.subtract(ev_week, cohort_week),
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
            }
        )
        return out.filter(pc.greater_equal(out.column("week_offset"), 0))

    triples = as_dataset(fold(
        joined.map_batches(triple_partial, batch_format="pyarrow"),
        ["cohort_week", "week_offset", "user_id"],
        [(None, "count", "n")],
        combine=True,
    ))
    return fold(
        triples, ["cohort_week", "week_offset"], [(None, "count", "n_users")], combine=True
    )


RETENTION_COHORTS_SQL = """
WITH fs AS (
  SELECT user_id,
         CAST(epoch_us(MIN(ts)) AS BIGINT) // 604800000000 AS cohort_week
  FROM events WHERE event_type = 'signup' GROUP BY user_id
),
a AS (
  SELECT fs.cohort_week,
         CAST(epoch_us(e.ts) AS BIGINT) // 604800000000 - fs.cohort_week
           AS week_offset,
         e.user_id
  FROM events e JOIN fs ON fs.user_id = e.user_id
)
SELECT cohort_week, week_offset,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM a WHERE week_offset >= 0
GROUP BY cohort_week, week_offset
"""


def events_time_to_convert(sf_dir: str) -> rd.Dataset:
    """Per-user click→purchase conversion latency: microseconds between
    the FIRST click and the first purchase at-or-after it — the funnel
    timing metric. Two grouped Mins (combiner each) + one size-hybrid
    attach; the conditional second Min never sees pre-click purchases
    (filtered in the combiner), and the delta stays integer microseconds
    end-to-end."""

    from kgw_ray.stages.graph_metrics import _hybrid_attach

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    clicks = as_dataset(fold(
        ds.map_batches(_first_us("click", "click_us"), batch_format="pyarrow"),
        "user_id",
        [("click_us", "min", "click_us")],
        combine=True,
    ))

    purchases = ds.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], pa.scalar("purchase"))),
        batch_format="pyarrow",
    )
    j = _hybrid_attach(purchases, clicks, on="user_id", right_on="user_id")

    def after_click(t: pa.Table) -> pa.Table:
        ev_us = pc.cast(t.column("ts"), pa.int64())
        t = t.filter(pc.greater_equal(ev_us, t.column("click_us")))
        return pa.table(
            {
                "user_id": pc.cast(t.column("user_id"), pa.int64()),
                "purchase_us": pc.cast(t.column("ts"), pa.int64()),
                "click_us": t.column("click_us"),
            }
        )

    merged = as_dataset(fold(
        j.map_batches(after_click, batch_format="pyarrow"),
        "user_id",
        [("purchase_us", "min", "purchase_us"), ("click_us", "min", "click_us")],
        combine=True,
    ))

    def delta(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "convert_us": pc.subtract(
                    t.column("purchase_us"), t.column("click_us")
                ),
            }
        )

    return merged.map_batches(delta, batch_format="pyarrow")


TIME_TO_CONVERT_SQL = """
WITH fc AS (
  SELECT user_id, CAST(epoch_us(MIN(ts)) AS BIGINT) AS click_us
  FROM events WHERE event_type = 'click' GROUP BY user_id
),
fp AS (
  SELECT e.user_id, CAST(epoch_us(MIN(e.ts)) AS BIGINT) AS purchase_us
  FROM events e JOIN fc ON fc.user_id = e.user_id
  WHERE e.event_type = 'purchase' AND CAST(epoch_us(e.ts) AS BIGINT) >= fc.click_us
  GROUP BY e.user_id
)
SELECT fp.user_id, CAST(fp.purchase_us - fc.click_us AS BIGINT) AS convert_us
FROM fp JOIN fc ON fc.user_id = fp.user_id
"""


def events_value_quartile(sf_dir: str) -> rd.Dataset:
    """NTILE-style quartile assignment under the deterministic total order
    (value cents, event_id): quartile = (rank-1)*4 // n. Reuses the
    distributed ranking plan (stages/agg.py:global_row_number — range
    buckets + per-bucket lexsort, no global sort); n is one driver-side
    count of the already-materialized ranked keys. The bucket formula is
    pinned identically in the oracle (instead of SQL NTILE, whose
    remainder distribution differs)."""
    import numpy as np

    from kgw_ray.stages.agg import global_row_number

    ds = read_table(sf_dir, "events", columns=["event_id", "value"])

    def with_cents(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table({"cents": pa.array(cents), "event_id": t.column("event_id")})

    ranked = global_row_number(
        ds.map_batches(with_cents, batch_format="pyarrow"),
        ["cents", "event_id"],
        rank_name="rn",
    ).materialize()
    n = ranked.count()
    if n == 0:
        return ranked.map_batches(
            lambda t: t.append_column("quartile", pa.array([], pa.int64())),
            batch_format="pyarrow",
        )

    def bucketize(t: pa.Table) -> pa.Table:
        rn = t.column("rn").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "cents": t.column("cents"),
                "quartile": pa.array(((rn - 1) * 4 // n).astype(np.int64)),
            }
        )

    return ranked.map_batches(bucketize, batch_format="pyarrow")


EVENTS_QUARTILE_SQL = """
WITH w AS (
  SELECT event_id, CAST(ROUND(value * 100) AS BIGINT) AS cents,
         ROW_NUMBER() OVER (
           ORDER BY CAST(ROUND(value * 100) AS BIGINT), event_id
         ) AS rn,
         COUNT(*) OVER () AS n
  FROM events
)
SELECT event_id, cents, CAST((rn - 1) * 4 // n AS BIGINT) AS quartile FROM w
"""


def events_user_modal_type(sf_dir: str) -> rd.Dataset:
    """Grouped MODE with deterministic tie-break: each user's most
    frequent event type (ties → lexicographically smallest type). Exact
    three-reduce plan over the vocabulary-sized (user, type) count table:
    grouped Max picks the modal count, an equality semi-filter keeps the
    tied types, a grouped Min breaks the tie — every exchange is native
    sum/min/max-mergeable, no per-user Python and no window sort."""

    from kgw_ray.stages.graph_metrics import _hybrid_attach

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    counts = as_dataset(fold(
        ds.select_columns(["user_id", "event_type"]),
        ["user_id", "event_type"],
        [(None, "count", "n")],
        combine=True,
    ))
    mx = as_dataset(fold(counts, "user_id", [("n", "max", "mx")]))
    j = _hybrid_attach(counts, mx, on="user_id", right_on="user_id")

    def keep_modal(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["n"], t["mx"]))

    modal = j.map_batches(keep_modal, batch_format="pyarrow")
    out = as_dataset(fold(
        modal.map_batches(
            lambda t: pa.table(
                {
                    "user_id": t.column("user_id"),
                    "modal_type": t.column("event_type"),
                    "n_events": t.column("n"),
                }
            ),
            batch_format="pyarrow",
        ),
        "user_id",
        [("modal_type", "min", "modal_type"), ("n_events", "min", "n_events")],
    ))
    return out


USER_MODAL_TYPE_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY user_id, event_type
),
m AS (SELECT user_id, MAX(n) AS mx FROM c GROUP BY user_id)
SELECT c.user_id, MIN(c.event_type) AS modal_type,
       CAST(MIN(m.mx) AS BIGINT) AS n_events
FROM c JOIN m ON m.user_id = c.user_id AND c.n = m.mx
GROUP BY c.user_id
"""


def nation_top_customer_names(sf_dir: str, *, k: int = 3) -> pa.Table:
    """Per-nation ordered string aggregation: the k highest-balance
    customer names (exact cents, name tie-break), comma-joined in rank
    order. Block-local per-nation top-k combiner (vectorized sort + head)
    → driver merge of ≤ nations x k x blocks rows → one broadcast-sized
    name join; the ordered STRING_AGG itself happens on the merged
    ≤ nations x k rows — never on fact-scale data."""
    import numpy as np

    from kgw_ray.sources.readers import read_table_pandas

    nat = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    ds = read_table(
        sf_dir, "customer", columns=["c_name", "c_nationkey", "c_acctbal"]
    )

    def local_topk(df: pd.DataFrame) -> pa.Table:
        df = df.assign(
            cents=np.rint(df["c_acctbal"].to_numpy() * 100.0).astype(np.int64)
        )
        g = (
            df.sort_values(
                ["c_nationkey", "cents", "c_name"],
                ascending=[True, False, True],
            )
            .groupby("c_nationkey", sort=False)
            .head(k)
        )
        return arrow_from_pandas(g[["c_nationkey", "c_name", "cents"]])

    parts = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return pa.table(
            {"n_name": pa.array([], pa.string()), "top_names": pa.array([], pa.string())}
        )
    top = (
        parts.sort_values(
            ["c_nationkey", "cents", "c_name"], ascending=[True, False, True]
        )
        .groupby("c_nationkey", sort=False)
        .head(k)
        .merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    )
    agg = (
        top.groupby("n_name", sort=False)["c_name"]
        .agg(",".join)
        .reset_index(name="top_names")
    )
    return arrow_from_pandas(agg)


NATION_TOP_NAMES_SQL = """
WITH r AS (
  SELECT n_name, c_name,
         ROW_NUMBER() OVER (
           PARTITION BY n_name
           ORDER BY CAST(ROUND(c_acctbal * 100) AS BIGINT) DESC, c_name
         ) AS rn
  FROM customer JOIN nation ON n_nationkey = c_nationkey
)
SELECT n_name, STRING_AGG(c_name, ',' ORDER BY rn) AS top_names
FROM r WHERE rn <= 3 GROUP BY n_name
"""


_CMS_DEPTH = 4
_CMS_WIDTH = 1024


def _cms_buckets(uids) -> "np.ndarray":
    """(n, depth) bucket matrix: splitmix64(splitmix64(uid) ^ j) mod
    width — user_id is an INTEGER key, so every depth row is fully
    vectorized portable splitmix64 (functions/porthash; mix64_sql lets
    the oracle reproduce every bucket exactly — the r4 review's
    per-row-md5 tax removed). NOTE: runs on workers — the porthash
    import must stay module-level (inner kgw_ray imports bypass
    pickle-by-value and fail from a foreign driver cwd)."""
    base = _mix64(np.asarray(uids, dtype=np.int64).view(np.uint64))
    out = np.empty((len(base), _CMS_DEPTH), dtype=np.int64)
    for j in range(_CMS_DEPTH):
        out[:, j] = (_mix64(base ^ np.uint64(j)) % np.uint64(_CMS_WIDTH)).astype(
            np.int64
        )
    return out


def events_cms_estimates(sf_dir: str) -> rd.Dataset:
    """COUNT-MIN SKETCH over the event stream, plus its point-query
    estimates checked against truth: (user_id, n_events, cms_estimate)
    with estimate = min over depth rows of the user's bucket counters
    (always ≥ truth; collisions only inflate).

    The sketch is the canonical MERGEABLE stream summary: each block
    folds its users into a (depth x width) counter grid — 4096 int64s
    regardless of corpus size — and grids merge by plain Sum, so the
    exchange is sketch-sized, never stream-sized (the fixed-memory
    companion to the KMV distinct sketch, stages/agg.py:kmv_sketch).
    Hashes follow the portable md5-LE convention, which is what lets an
    independent SQL oracle rebuild the identical sketch."""

    ds = read_table(sf_dir, "events", columns=["user_id"])

    counts = as_dataset(fold(
        ds.select_columns(["user_id"]), "user_id", [(None, "count", "n_events")], combine=True
    )).materialize()

    def sketch_partial(t: pa.Table) -> pa.Table:
        uids = t.column("user_id").to_numpy(zero_copy_only=False)
        n = t.column("n_events").to_numpy(zero_copy_only=False)
        b = _cms_buckets(uids)
        rows, buckets, cnts = [], [], []
        for j in range(_CMS_DEPTH):
            # fold this block's users into the row-j counters
            s = np.bincount(b[:, j], weights=n, minlength=_CMS_WIDTH)
            nz = np.flatnonzero(s)
            rows.append(np.full(len(nz), j, dtype=np.int64))
            buckets.append(nz.astype(np.int64))
            cnts.append(s[nz].astype(np.int64))
        return pa.table(
            {
                "row": pa.array(np.concatenate(rows)),
                "bucket": pa.array(np.concatenate(buckets)),
                "cnt": pa.array(np.concatenate(cnts)),
            }
        )

    sketch = as_dataset(fold(
        counts.map_batches(sketch_partial, batch_format="pyarrow"),
        ["row", "bucket"],
        [("cnt", "sum", "cnt")],
    )).materialize()

    # point queries: the (depth x width)-bounded grid broadcasts once
    import ray as _ray

    sk_df = sketch.to_pandas()
    grid = np.zeros((_CMS_DEPTH, _CMS_WIDTH), dtype=np.int64)
    if len(sk_df) and "row" in sk_df.columns:  # empty-pull column loss
        grid[sk_df["row"].to_numpy(), sk_df["bucket"].to_numpy()] = sk_df[
            "cnt"
        ].to_numpy()
    grid_ref = _ray.put(grid)

    def estimate(t: pa.Table) -> pa.Table:
        g = _ray.get(grid_ref)
        uids = t.column("user_id").to_numpy(zero_copy_only=False)
        b = _cms_buckets(uids)
        est = np.min(
            np.stack([g[j, b[:, j]] for j in range(_CMS_DEPTH)]), axis=0
        )
        return t.append_column("cms_estimate", pa.array(est.astype(np.int64)))

    return counts.map_batches(estimate, batch_format="pyarrow")


def _cms_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    js = ", ".join(str(j) for j in range(_CMS_DEPTH))
    base = mix64_sql("CAST(user_id AS UBIGINT)")
    hu = mix64_sql(f"xor(({base}), CAST(j AS UBIGINT))")
    return f"""
WITH counts AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY user_id
),
hb AS (
  SELECT user_id, j,
         CAST(({hu}) % {_CMS_WIDTH} AS BIGINT) AS bucket
  FROM counts, UNNEST([{js}]) AS t(j)
),
sk AS (
  SELECT hb.j, hb.bucket, SUM(c.n_events) AS cnt
  FROM hb JOIN counts c USING (user_id) GROUP BY hb.j, hb.bucket
),
est AS (
  SELECT hb.user_id, MIN(sk.cnt) AS e
  FROM hb JOIN sk ON sk.j = hb.j AND sk.bucket = hb.bucket
  GROUP BY hb.user_id
)
SELECT c.user_id, c.n_events, CAST(e.e AS BIGINT) AS cms_estimate
FROM counts c JOIN est e USING (user_id)
"""


EVENTS_CMS_SQL = _cms_sql()


_LATE_THRESHOLD_S = 600
_LATE_BUCKETS = 1024
# Knuth multiplicative hash — the deterministic ARRIVAL-ORDER permutation.
# The fixture's event_ids are already time-sorted (nothing would ever be
# late); a real ingest interleaves shards/network paths, which this
# pseudo-shuffle models identically in numpy and SQL (BIGINT-safe:
# max event_id × the constant stays far under 2^63).
_LATE_MIX = 2654435761
_LATE_MOD = 2**32


def events_late_arrivals(sf_dir: str) -> rd.Dataset:
    """Streaming WATERMARK audit: events whose event-time lags the running
    maximum event-time over ARRIVAL order by more than 600 s — exactly
    the rows a watermarking stream processor routes to the late-data
    path. Arrival order is the deterministic hash permutation
    ``(event_id · 2654435761) mod 2^32`` (tie-broken by event_id).
    Output: (event_id, lateness_s).

    Physical plan is the ordered-scan two-pass (stages/agg.py:
    global_ordered_prefix_sum) on the MAX monoid: one partial pass
    range-buckets the arrival key and folds per-bucket ts maxima on the
    driver (n_buckets int64s), whose exclusive prefix-max is each
    bucket's carry-in watermark; one coarse bucket exchange then scans
    each bucket locally (sort + cummax). Nothing corpus-sized lands
    anywhere."""
    ds = read_table(sf_dir, "events", columns=["event_id", "ts"])

    def _proj(t: pa.Table) -> pa.Table:
        e = t.column("event_id").to_numpy(zero_copy_only=False)
        arr = (e * _LATE_MIX) % _LATE_MOD
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "arr": pa.array(arr.astype(np.int64)),
                "ts_us": pc.cast(t.column("ts"), pa.int64()),
            }
        )

    proj = ds.map_batches(_proj, batch_format="pyarrow").materialize()
    width = max(1, _LATE_MOD // _LATE_BUCKETS)

    def _bucket(t: pa.Table) -> pa.Table:
        e = t.column("arr").to_numpy(zero_copy_only=False)
        b = np.minimum(e // width, _LATE_BUCKETS - 1)
        return pa.table({"bucket": pa.array(b, pa.int64()), "m": t.column("ts_us")})

    hist = fold(
        proj.map_batches(_bucket, batch_format="pyarrow"),
        "bucket",
        [("m", "max", "m")],
        combine=True,
    ).to_pandas()
    NEG = np.iinfo(np.int64).min
    bmax = np.full(_LATE_BUCKETS, NEG, dtype=np.int64)
    # an all-NULL-ts bucket carries no watermark; an empty fold types its
    # key column from nothing (string), hence the casts
    b = hist["bucket"].to_numpy().astype(np.int64)
    bmax[b] = hist["m"].fillna(NEG).to_numpy().astype(np.int64)
    # exclusive prefix max = each bucket's carry-in watermark
    carry = np.concatenate(([NEG], np.maximum.accumulate(bmax)[:-1]))

    def _tag(t: pa.Table) -> pa.Table:
        e = t.column("arr").to_numpy(zero_copy_only=False)
        b = np.minimum(e // width, _LATE_BUCKETS - 1)
        return t.append_column("_bucket", pa.array(b.astype(np.int64)))

    thr_us = _LATE_THRESHOLD_S * 1_000_000

    def _per_bucket(g: pd.DataFrame) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "lateness_s": pa.array([], pa.int64()),
            }
        )
        if len(g) == 0:
            return empty
        b = int(g["_bucket"].iloc[0])
        order = np.lexsort(
            (g["event_id"].to_numpy(), g["arr"].to_numpy())
        )
        e = g["event_id"].to_numpy()[order]
        ts = g["ts_us"].to_numpy()[order]
        run = np.maximum.accumulate(ts)
        wm = np.maximum(
            carry[b], np.concatenate(([NEG], run[:-1]))
        )  # exclusive: strictly-earlier arrivals only
        gap = wm - ts
        late = (wm != NEG) & (gap > thr_us)
        if not late.any():
            return empty
        return pa.table(
            {
                "event_id": pa.array(e[late].astype(np.int64)),
                "lateness_s": pa.array((gap[late] // 1_000_000).astype(np.int64)),
            }
        )

    return (
        proj.map_batches(_tag, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(_per_bucket, batch_format="pandas")
    )


EVENTS_LATE_SQL = f"""
WITH w AS (
  SELECT event_id, ts,
         MAX(ts) OVER (ORDER BY (event_id * {_LATE_MIX}) % {_LATE_MOD}, event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events
)
SELECT event_id,
       CAST(date_diff('microsecond', ts, wm) // 1000000 AS BIGINT) AS lateness_s
FROM w
WHERE wm IS NOT NULL
  AND date_diff('microsecond', ts, wm) > {_LATE_THRESHOLD_S} * 1000000
"""


def star_revenue_by_nation_parttype(sf_dir: str) -> rd.Dataset:
    """Six-table STAR FLATTEN rollup — the warehouse denormalization
    query: lineitem facts joined through orders→customer→nation (customer
    side) and part (product side), rolled up to
    (n_name, p_type, n_items, revenue_e4).

    Physical plan: every true dimension (nation, customer, part)
    broadcasts once via the object store; the orders fact scan absorbs
    the customer→nation map distributed (broadcast-join inside the scan,
    q5's rule), and the only potentially-large exchange — lineitem ⋈
    orders — follows the size-hybrid rule (broadcast under the limit,
    hash-partitioned large_join beyond). Revenue is the exact-1e-4-dollar
    integer convention (q14): price cents × (100 − discount pct), each
    factor quantized separately, so the hash gate holds with no float
    sum anywhere."""
    nation = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    customer = read_table_pandas(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"]
    )
    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_type"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_partkey", "l_extendedprice", "l_discount"],
    )

    import ray as _ray

    # no dimension STRING ever rides the fact join: the o2n map carries the
    # int nationkey (q5's projection) and p_type resolves inside the
    # combiner from a broadcast partkey→type Series — measured 7.1s → with
    # strings through the join vs integer-only traffic
    o2n = (
        broadcast_join(orders, customer, on=["o_custkey"], right_on=["c_custkey"])
        .map_batches(
            lambda df: arrow_from_pandas(df[["o_orderkey", "c_nationkey"]]),
            batch_format="pandas",
        )
        .materialize()
    )
    if o2n.count() <= _BROADCAST_SIDE_LIMIT:
        j = broadcast_join(line, o2n, on=["l_orderkey"], right_on=["o_orderkey"]
        )
    else:
        j = large_join(line, o2n, on=("l_orderkey",), right_on=("o_orderkey",))

    ptype_ref = _ray.put(
        pd.Series(part["p_type"].to_numpy(), index=part["p_partkey"].to_numpy())
    )

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_nationkey": t.column("c_nationkey"),
                "p_type": _lookup(t.column("l_partkey"), _ray.get(ptype_ref)),
                "e4": pa.array(_rev_e4(t.column("l_extendedprice"), t.column("l_discount"))),
            }
        )

    merged = as_dataset(fold(
        j.map_batches(partial, batch_format="pyarrow"),
        ["c_nationkey", "p_type"],
        [(None, "count", "n_items"), ("e4", "sum", "revenue_e4")],
        combine=True,
    ))
    nmap = dict(zip(nation["n_nationkey"], nation["n_name"]))

    def finalize(df: pd.DataFrame) -> pa.Table:
        return arrow_from_pandas(
            pd.DataFrame(
                {
                    "n_name": df["c_nationkey"].map(nmap),
                    "p_type": df["p_type"],
                    "n_items": df["n_items"].astype("int64"),
                    "revenue_e4": df["revenue_e4"].astype("int64"),
                }
            )
        )

    return merged.map_batches(finalize, batch_format="pandas")


STAR_REVENUE_SQL = """
SELECT n_name, p_type, COUNT(*) AS n_items,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_e4
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
JOIN part ON l_partkey = p_partkey
GROUP BY n_name, p_type
"""


def events_user_gaps(sf_dir: str) -> rd.Dataset:
    """Per-user inter-event cadence: the MAX gap and the count of gaps
    over an hour, from the time-ordered event sequence — churn-risk /
    engagement features. Output: (user_id, n_gaps, max_gap_s,
    n_gaps_over_1h); single-event users emit zero gaps.

    Sharded-coarse window plan (the sessionize shape): ONE shuffle on
    ``user_id % 64``, per-shard vectorized lexsort + boundary-masked
    diff — no per-user Python."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def per_shard(g: pd.DataFrame) -> pa.Table:
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "n_gaps": pa.array([], pa.int64()),
                "max_gap_s": pa.array([], pa.int64()),
                "n_gaps_over_1h": pa.array([], pa.int64()),
            }
        )
        if len(g) == 0:
            return empty
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        same = np.concatenate(([False], u[1:] == u[:-1]))
        gaps_s = np.where(
            same, np.concatenate(([0], np.diff(ts))) // 1_000_000, 0
        )
        uq, inv = np.unique(u, return_inverse=True)
        n_gaps = np.bincount(inv, weights=same).astype(np.int64)
        mx = np.zeros(len(uq), dtype=np.int64)
        np.maximum.at(mx, inv[same], gaps_s[same])
        over = np.bincount(
            inv, weights=same & (gaps_s > 3600), minlength=len(uq)
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uq.astype(np.int64)),
                "n_gaps": pa.array(n_gaps),
                "max_gap_s": pa.array(mx),
                "n_gaps_over_1h": pa.array(over),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_USER_GAPS_SQL = """
WITH d AS (
  SELECT user_id,
         date_diff('microsecond',
                   LAG(ts) OVER (PARTITION BY user_id ORDER BY ts),
                   ts) // 1000000 AS gap_s
  FROM events
)
SELECT user_id,
       CAST(COUNT(gap_s) AS BIGINT) AS n_gaps,
       CAST(COALESCE(MAX(gap_s), 0) AS BIGINT) AS max_gap_s,
       CAST(COALESCE(SUM(CASE WHEN gap_s > 3600 THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS n_gaps_over_1h
FROM d GROUP BY user_id
"""


def events_markov_transitions(sf_dir: str) -> "pa.Table | rd.Dataset":
    """First-order behavior model: global event-type TRANSITION COUNTS
    over each user's time-ordered stream — (from_type, to_type, n), the
    sufficient statistic of the Markov chain session models train on.

    Sharded-coarse window plan (the sessionize shape): ONE shuffle on
    ``user_id % 64``; per shard a vectorized lexsort by (user, ts,
    event_id) — the event_id tiebreak makes the order TOTAL, so both
    engines see identical bigrams on equal timestamps — then a
    boundary-masked shift emits the transitions and one count fold
    (``combine=True``) collapses each block to ≤ |types|² rows."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            e0 = pa.array([], pa.string())
            return pa.table({"from_type": e0, "to_type": e0})
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        same = np.concatenate(([False], u[1:] == u[:-1]))
        frm = np.concatenate(([""], t[:-1]))[same]
        to = t[same]
        # LAG(...) IS NOT NULL drops NULL sources; a NULL target is a group
        keep = pd.notna(frm)
        return pa.table(
            {
                "from_type": pa.array(frm[keep], pa.string(), from_pandas=True),
                "to_type": pa.array(to[keep], pa.string(), from_pandas=True),
            }
        )

    shards = (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )
    return fold(
        shards, ["from_type", "to_type"], [(None, "count", "n")], combine=True
    )


EVENTS_MARKOV_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type AS from_type, event_type AS to_type,
       CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY prev_type, event_type
"""


def orders_fill_rate(sf_dir: str) -> rd.Dataset:
    """Fulfilment SLA rollup: per order priority, how many lineitems
    shipped within 30 days of the order date — (o_orderpriority, n_lines,
    n_shipped_30d, fill_permille). The ratio is integer permille
    (1000·shipped // lines) so the hash gate holds.

    Plan: the orders fact scan projects (key, orderdate µs) and joins
    into the lineitem stream under the size-hybrid rule; one vectorized
    conditional-count combiner per batch, then a priority-vocabulary
    Sum."""

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_orderpriority"]
    )

    def proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "odate_us": pc.cast(t.column("o_orderdate"), pa.int64()),
                "o_orderpriority": t.column("o_orderpriority"),
            }
        )

    o = orders.map_batches(proj, batch_format="pyarrow").materialize()
    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    if o.count() <= _BROADCAST_SIDE_LIMIT:
        j = broadcast_join(line, o, on=["l_orderkey"], right_on=["o_orderkey"]
        )
    else:
        j = large_join(line, o, on=("l_orderkey",), right_on=("o_orderkey",))

    _30D_US = 30 * 86_400 * 1_000_000

    def partial(t: pa.Table) -> pa.Table:
        waited = pc.subtract(pc.cast(t.column("l_shipdate"), pa.int64()), t.column("odate_us"))
        return pa.table(
            {
                "o_orderpriority": t.column("o_orderpriority"),
                "ok": pc.cast(pc.less_equal(waited, _30D_US), pa.int64()),
            }
        )

    merged = as_dataset(fold(
        j.map_batches(partial, batch_format="pyarrow"),
        "o_orderpriority",
        [(None, "count", "n_lines"), ("ok", "sum", "n_shipped_30d")],
        combine=True,
    ))

    def finalize(t: pa.Table) -> pa.Table:
        nl = t.column("n_lines").to_numpy(zero_copy_only=False)
        ns = t.column("n_shipped_30d").to_numpy(zero_copy_only=False)
        return t.append_column(
            "fill_permille",
            pa.array(np.where(nl > 0, 1000 * ns // np.maximum(nl, 1), 0)),
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


ORDERS_FILL_RATE_SQL = """
SELECT o_orderpriority,
       CAST(COUNT(*) AS BIGINT) AS n_lines,
       CAST(SUM(CASE WHEN l_shipdate <= o_orderdate + INTERVAL 30 DAY
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_shipped_30d,
       CAST(1000 * SUM(CASE WHEN l_shipdate <= o_orderdate + INTERVAL 30 DAY
                            THEN 1 ELSE 0 END) // COUNT(*) AS BIGINT)
         AS fill_permille
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


def basket_brand_pairs(sf_dir: str) -> "pa.Table | rd.Dataset":
    """MARKET-BASKET co-occurrence mining: for every unordered brand pair,
    the number of orders containing parts of BOTH brands —
    (brand_a, brand_b, n_orders), the support statistic association-rule
    mining starts from.

    Plan: the part→brand dim broadcasts once (a 25-value vocabulary);
    ONE coarse shuffle on ``l_orderkey % 64`` co-locates each basket,
    then a per-shard vectorized self-merge of the deduped (order, brand)
    rows expands pairs (baskets are ≤ ~13 lines, so the expansion is
    bounded by |basket|² per order, never corpus²); partials are ≤ 325
    rows per shard (25·24/2) before the tiny final Sum."""
    import ray as _ray

    from kgw_ray.sources.readers import read_table_pandas

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_brand"])
    brand_ref = _ray.put(
        pd.Series(part["p_brand"].to_numpy(), index=part["p_partkey"].to_numpy())
    )
    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def shard(t: pa.Table) -> pa.Table:
        k = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype("int64")
        return t.append_column("_shard", pa.array(k % 64))

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            e0 = pa.array([], pa.string())
            return pa.table({"brand_a": e0, "brand_b": e0})
        ob = pd.DataFrame(
            {
                "o": g["l_orderkey"].to_numpy(),
                "b": g["l_partkey"].map(_ray.get(brand_ref)).to_numpy(),
            }
        ).drop_duplicates()
        m = ob.merge(ob, on="o")
        m = m[m["b_x"] < m["b_y"]]
        return pa.table(
            {
                "brand_a": pa.array(m["b_x"].to_numpy(), pa.string()),
                "brand_b": pa.array(m["b_y"].to_numpy(), pa.string()),
            }
        )

    shards = (
        line.map_batches(shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )
    return fold(
        shards, ["brand_a", "brand_b"], [(None, "count", "n_orders")], combine=True
    )


BASKET_BRAND_PAIRS_SQL = """
WITH ob AS (
  SELECT DISTINCT l_orderkey, p_brand
  FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT a.p_brand AS brand_a, b.p_brand AS brand_b,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM ob a JOIN ob b
  ON a.l_orderkey = b.l_orderkey AND a.p_brand < b.p_brand
GROUP BY a.p_brand, b.p_brand
"""


def parts_skyline(sf_dir: str) -> pa.Table:
    """SKYLINE (Pareto frontier) operator: parts not dominated on
    (p_retailprice minimize, p_size maximize) — the classic
    multi-criteria shortlist query. Output: (p_partkey, price_cents,
    p_size), every non-dominated part (exact-duplicate criterion points
    all survive together).

    Distributed skyline = skyline-of-local-skylines: each block filters
    to its own frontier with one vectorized pass (sort by price asc /
    size desc; survivor ⟺ size strictly above the running max of
    strictly-cheaper points), and the final pass applies the identical
    scan to the pulled candidates — local frontiers of random data are
    tiny (O(log² n) expected), so nothing corpus-sized reaches the
    driver."""
    part = read_table(
        sf_dir, "part", columns=["p_partkey", "p_retailprice", "p_size"]
    )

    def _frontier(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        # per-price champion: only the max size at a given price can
        # survive (same price, strictly larger size dominates) — but keep
        # all rows TIED at that max
        gmax = df.groupby("p_retailprice")["p_size"].transform("max")
        df = df[df["p_size"] == gmax]
        agg = (
            df[["p_retailprice", "p_size"]]
            .drop_duplicates()
            .sort_values("p_retailprice")
        )
        p = agg["p_retailprice"].to_numpy()
        s = agg["p_size"].to_numpy()
        # running max size over STRICTLY cheaper prices
        run = np.maximum.accumulate(s)
        prev = np.concatenate(([np.iinfo(np.int64).min], run[:-1]))
        keep_pairs = agg[s > prev]
        return df.merge(keep_pairs, on=["p_retailprice", "p_size"])

    def local(df: pd.DataFrame) -> pa.Table:
        return arrow_from_pandas(_frontier(df))

    cands = part.map_batches(local, batch_format="pandas").to_pandas()
    out = _frontier(cands) if len(cands) else cands
    if len(out) == 0:
        return pa.table(
            {
                "p_partkey": pa.array([], pa.int64()),
                "price_cents": pa.array([], pa.int64()),
                "p_size": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values("p_partkey").reset_index(drop=True)
    return pa.table(
        {
            "p_partkey": pa.array(out["p_partkey"].to_numpy(), pa.int64()),
            "price_cents": pa.array(
                np.rint(out["p_retailprice"].to_numpy() * 100.0).astype(np.int64)
            ),
            "p_size": pa.array(out["p_size"].to_numpy(), pa.int64()),
        }
    )


PARTS_SKYLINE_SQL = """
SELECT p_partkey,
       CAST(ROUND(p_retailprice * 100) AS BIGINT) AS price_cents,
       CAST(p_size AS BIGINT) AS p_size
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size))
"""


def orders_backlog_timeline(sf_dir: str) -> pa.Table:
    """SWEEP-LINE interval stabbing: how many orders are OPEN (placed but
    not fully shipped) on each boundary day — the backlog-over-time
    step function every fulfilment dashboard plots. An order is open
    from o_orderdate through its last lineitem shipdate (inclusive).
    Output: (day, open_orders) at every day the count changes, day as
    integer epoch days.

    Plan: the only fact-sized exchange is the per-order close date (a
    packed Max combiner over l_orderkey — order-vocabulary rows); the
    interval endpoints then collapse to ±1 deltas on a DAY vocabulary
    (one tiny groupby), and the running sum folds on the driver over
    the ~thousands of boundary days (the kmeans/centroid rule — no
    distributed prefix machinery needed at day granularity)."""

    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def close_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": pc.cast(t.column("l_orderkey"), pa.int64()),
                "close_us": pc.cast(t.column("l_shipdate"), pa.int64()),
            }
        )

    closes = as_dataset(fold(
        line.map_batches(close_partial, batch_format="pyarrow"),
        "o_orderkey",
        [("close_us", "max", "close_us")],
        combine=True,
    )).materialize()

    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])

    def day_net(col: str, shift: int, net: int):
        def derive(t: pa.Table) -> pa.Table:
            us = pc.cast(t.column(col), pa.int64())
            day = pc.add(pc.divide(us, pa.scalar(86_400_000_000, pa.int64())), shift)
            return pa.table(
                {"day": day, "net": pa.array(np.full(t.num_rows, net, np.int64))}
            )

        return derive

    # +1 at the order day — ONLY for orders that have lineitems (the close
    # side is inner on both engines)
    keyed = closes.map_batches(
        lambda t: pa.table({"o_orderkey": t.column("o_orderkey")}),
        batch_format="pyarrow",
    )
    from kgw_ray.stages.joins import semi_join_dataset

    opened = semi_join_dataset(orders, keyed, on="o_orderkey").map_batches(
        day_net("o_orderdate", 0, 1), batch_format="pyarrow"
    )
    # -1 the day after the close day: open THROUGH the close day
    closed = closes.map_batches(day_net("close_us", 1, -1), batch_format="pyarrow")
    daily = (
        fold(opened.union(closed), "day", [("net", "sum", "net")], combine=True)
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    open_orders = daily["net"].cumsum().astype("int64")
    return pa.table(
        {
            "day": pa.array(daily["day"].to_numpy().astype(np.int64)),
            "open_orders": pa.array(open_orders.to_numpy()),
        }
    )


ORDERS_BACKLOG_SQL = """
WITH close AS (
  SELECT l_orderkey AS ok, MAX(l_shipdate) AS cd FROM lineitem GROUP BY l_orderkey
),
ev AS (
  -- epoch_us (BIGINT), not epoch (DOUBLE): integer day bucketing holds
  -- even for non-midnight-aligned timestamps (the anomalous-hours lesson)
  SELECT epoch_us(o_orderdate) // 86400000000 AS day,
         CAST(1 AS BIGINT) AS net
  FROM orders JOIN close ON ok = o_orderkey
  UNION ALL
  SELECT epoch_us(cd) // 86400000000 + 1 AS day, CAST(-1 AS BIGINT)
  FROM close
),
daily AS (SELECT day, SUM(net) AS net FROM ev GROUP BY day)
SELECT day, CAST(SUM(net) OVER (ORDER BY day
                                ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS open_orders
FROM daily
"""


def events_anomalous_hours(sf_dir: str) -> pa.Table:
    """Time-series anomaly flags on the AGGREGATED stream: hours whose
    event count deviates from the hourly median by more than 5x the
    median absolute deviation — the volume-spike/outage alarm an
    always-on ingest monitors. Output: (hour_us, n, dev) for flagged
    hours only. Integer order statistics end-to-end (median = the lower
    middle element, rank (n-1)//2, on both engines — never the float
    interpolation DuckDB's median() would return on even counts).

    Plan: one hour-vocabulary count rollup (per-batch bincount partials),
    then the median/MAD fold over the tiny hourly table on the driver."""

    ds = read_table(sf_dir, "events", columns=["ts"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"hour": pc.divide(pc.cast(t.column("ts"), pa.int64()), 3_600_000_000)})

    hourly = (
        fold(
            ds.map_batches(partial, batch_format="pyarrow"),
            "hour",
            [(None, "count", "n")],
            combine=True,
        ).to_pandas()
        .sort_values("hour")
        .reset_index(drop=True)
    )
    if len(hourly) == 0:
        return pa.table(
            {
                "hour_us": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "dev": pa.array([], pa.int64()),
            }
        )

    def lower_median(a: np.ndarray) -> int:
        return int(np.sort(a)[(len(a) - 1) // 2])

    med = lower_median(hourly["n"].to_numpy())
    dev = np.abs(hourly["n"].to_numpy() - med)
    mad = lower_median(dev)
    flag = dev > 5 * mad
    out = hourly[flag]
    return pa.table(
        {
            "hour_us": pa.array(
                (out["hour"].to_numpy() * 3_600_000_000).astype(np.int64)
            ),
            "n": pa.array(out["n"].to_numpy().astype(np.int64)),
            "dev": pa.array(dev[flag].astype(np.int64)),
        }
    )


EVENTS_ANOMALOUS_HOURS_SQL = """
WITH h AS (
  -- epoch_us (BIGINT), not epoch (DOUBLE): float '//' + CAST rounds the
  -- x.55-hour boundaries up, shifting events across hour buckets
  SELECT epoch_us(ts) // 3600000000 AS hour, COUNT(*) AS n
  FROM events GROUP BY hour
),
med AS (
  SELECT n AS m FROM h ORDER BY n
  LIMIT 1 OFFSET (SELECT (COUNT(*) - 1) // 2 FROM h)
),
dv AS (SELECT hour, n, ABS(n - med.m) AS dev FROM h, med),
mad AS (
  SELECT dev AS m FROM dv ORDER BY dev
  LIMIT 1 OFFSET (SELECT (COUNT(*) - 1) // 2 FROM dv)
)
SELECT CAST(hour * 3600000000 AS BIGINT) AS hour_us,
       CAST(n AS BIGINT) AS n, CAST(dev AS BIGINT) AS dev
FROM dv, mad WHERE dev > 5 * mad.m
"""


# ---------------------------------------------------------------------------
# TPC-H wave 3: the remaining classic query shapes, adapted to the columns
# this star schema carries (no partsupp table, no o_comment/l_commitdate).
# Reference analog: kgw's per-source SQL aggregation sinks
# (kgw/_shared/tasks.py aggregate/statistics flows); each query here keeps
# money exact-integer (cents / 1e-4 dollars, factors quantized separately)
# so the hash gate compares integers, never float sums.
# ---------------------------------------------------------------------------


def _rev_e4(price: pd.Series, disc: pd.Series) -> np.ndarray:
    """Exact 1e-4-dollar revenue integers: price cents x (100 - discount
    pct), each 2-decimal factor rounded separately (half-even vs half-away
    ties never arise on exact cents; see q6_revenue_forecast note)."""
    return np.rint(price.to_numpy() * 100.0).astype(np.int64) * (
        100 - np.rint(disc.to_numpy() * 100.0).astype(np.int64)
    )


def _orders_join(line: rd.Dataset, orders_side: rd.Dataset, cols=None) -> rd.Dataset:
    """Size-hybrid lineitem-x-orders attach: the orders side broadcasts as
    one pandas frame under ``_BROADCAST_SIDE_LIMIT`` rows (dimension-scale
    at test SF), and switches to the hash-partitioned ``Dataset.join``
    beyond it (fact-scale on a cluster) — the q12/q18 pattern shared."""
    orders_side = orders_side.materialize()
    if orders_side.count() <= _BROADCAST_SIDE_LIMIT:
        return broadcast_join(line, orders_side, on=["l_orderkey"], right_on=["o_orderkey"]
        )
    return large_join(line, orders_side, on=("l_orderkey",), right_on=("o_orderkey",))


def q7_volume_shipping(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q7 shape: cross-nation shipping volume — revenue per
    (supplier nation, customer nation, ship year) for cross-border flows.
    Supplier/customer nation names resolve from broadcast dimension maps
    inside the combiner (no dimension string rides the fact exchange); the
    orders attach is size-hybrid."""
    import pyarrow.dataset as pads

    lo, hi = pd.Timestamp("1995-01-01"), pd.Timestamp("1997-01-01")
    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )
    orders_side = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    nname = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"]).set_index("n_nationkey")["n_name"]
    c_nat = (
        read_table_pandas(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
        .set_index("c_custkey")["c_nationkey"]
        .map(nname)
    )
    s_nat = (
        read_table_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
        .set_index("s_suppkey")["s_nationkey"]
        .map(nname)
    )
    j = _orders_join(line, orders_side)

    def partial(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "supp_nation": _lookup(t.column("l_suppkey"), s_nat),
                "cust_nation": _lookup(t.column("o_custkey"), c_nat),
                "year": pc.cast(pc.year(t.column("l_shipdate")), pa.int64()),
                "revenue_e4": pa.array(
                    _rev_e4(t.column("l_extendedprice"), t.column("l_discount"))
                ),
            }
        )
        return out.filter(pc.not_equal(out.column("supp_nation"), out.column("cust_nation")))

    return fold(
        j.map_batches(partial, batch_format="pyarrow"),
        ["supp_nation", "cust_nation", "year"],
        [("revenue_e4", "sum", "revenue_e4")],
        combine=True,
    )


Q7_VOLUME_SQL = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS year,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_e4
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ns ON ns.n_nationkey = s_nationkey
JOIN nation nc ON nc.n_nationkey = c_nationkey
WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1997-01-01'
  AND ns.n_name <> nc.n_name
GROUP BY 1, 2, 3
"""


def q8_market_share(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q8 shape: NATION_7's share of STANDARD-part revenue sold to
    ASIA-region customers, per order year. The share stays exact-integer
    (focal_e4 / total_e4 emitted separately). Part/customer/supplier
    predicates all resolve from broadcast dimension maps in the combiner;
    only the orders attach is a (size-hybrid) join."""

    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    import pyarrow.dataset as pads

    lo, hi = pd.Timestamp("1995-01-01"), pd.Timestamp("1997-01-01")
    orders_side = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )
    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_type"])
    std_parts = frozenset(part.loc[part["p_type"] == "STANDARD", "p_partkey"].tolist())
    nat = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name", "n_regionkey"])
    region = read_table_pandas(sf_dir, "region", columns=["r_regionkey", "r_name"])
    asia_keys = frozenset(
        nat.loc[
            nat["n_regionkey"].isin(
                region.loc[region["r_name"] == "ASIA", "r_regionkey"]
            ),
            "n_nationkey",
        ].tolist()
    )
    cust = read_table_pandas(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    asia_cust = frozenset(
        cust.loc[cust["c_nationkey"].isin(asia_keys), "c_custkey"].tolist()
    )
    supp = read_table_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    focal_supp = frozenset(
        supp.loc[
            supp["s_nationkey"].map(nat.set_index("n_nationkey")["n_name"]) == "NATION_7",
            "s_suppkey",
        ].tolist()
    )
    j = _orders_join(line, orders_side)

    std_keys = pa.array(sorted(std_parts), pa.int64())
    cust_keys = pa.array(sorted(asia_cust), pa.int64())
    focal_keys = pa.array(sorted(focal_supp), pa.int64())

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.is_in(t.column("l_partkey"), value_set=std_keys),
                pc.is_in(t.column("o_custkey"), value_set=cust_keys),
            )
        )
        e4 = pa.array(_rev_e4(t.column("l_extendedprice"), t.column("l_discount")), pa.int64())
        focal = pc.is_in(t.column("l_suppkey"), value_set=focal_keys)
        return pa.table(
            {
                "year": pc.cast(pc.year(t.column("o_orderdate")), pa.int64()),
                "focal_e4": pc.if_else(focal, e4, 0),
                "total_e4": e4,
            }
        )

    return fold(
        j.map_batches(partial, batch_format="pyarrow"),
        "year",
        [("focal_e4", "sum", "focal_e4"), ("total_e4", "sum", "total_e4")],
        combine=True,
    )


Q8_MARKET_SHARE_SQL = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
       CAST(SUM(CASE WHEN ns.n_name = 'NATION_7'
                     THEN CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                          * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                     ELSE 0 END) AS BIGINT) AS focal_e4,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS total_e4
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN part     ON p_partkey = l_partkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation nc ON nc.n_nationkey = c_nationkey
JOIN nation ns ON ns.n_nationkey = s_nationkey
JOIN region   ON r_regionkey = nc.n_regionkey
WHERE o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1997-01-01'
  AND p_type = 'STANDARD' AND r_name = 'ASIA'
GROUP BY 1
"""


def q9_profit_by_nation_year(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q9 shape (no partsupp in this schema: ``p_retailprice``
    stands in for supply cost): per supplier nation x order year, profit =
    discounted revenue minus retail cost of the ECONOMY parts shipped.
    Profit stays 1e-4-dollar exact-integer (cost = retail cents x integer
    qty x 100); int64 headroom is ~9e18, sums at 100 TB need the same
    per-nation-year split the oracle groups by."""

    line = read_table(
        sf_dir,
        "lineitem",
        columns=[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )
    orders_side = read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_type", "p_retailprice"])
    eco = part[part["p_type"] == "ECONOMY"]
    retail_c = pd.Series(
        np.rint(eco["p_retailprice"].to_numpy() * 100.0).astype(np.int64),
        index=eco["p_partkey"].to_numpy(),
    )
    nname = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"]).set_index("n_nationkey")["n_name"]
    s_nat = (
        read_table_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
        .set_index("s_suppkey")["s_nationkey"]
        .map(nname)
    )
    j = _orders_join(line, orders_side)

    def partial(t: pa.Table) -> pa.Table:
        cost_c = _lookup(t.column("l_partkey"), retail_c)  # NULL for non-ECONOMY -> dropped
        keep = pc.is_valid(cost_c)
        t, cost_c = t.filter(keep), cost_c.filter(keep)
        rev = _rev_e4(t.column("l_extendedprice"), t.column("l_discount"))
        qty = np.rint(t.column("l_quantity").to_numpy()).astype(np.int64)
        profit = rev - cost_c.to_numpy(zero_copy_only=False).astype(np.int64) * qty * 100
        return pa.table(
            {
                "nation": _lookup(t.column("l_suppkey"), s_nat),
                "year": pc.cast(pc.year(t.column("o_orderdate")), pa.int64()),
                "profit_e4": pa.array(profit, pa.int64()),
            }
        )

    return fold(
        j.map_batches(partial, batch_format="pyarrow"),
        ["nation", "year"],
        [("profit_e4", "sum", "profit_e4")],
        combine=True,
    )


Q9_PROFIT_SQL = """
SELECT n_name AS nation,
       CAST(year(o_orderdate) AS BIGINT) AS year,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                - CAST(ROUND(p_retailprice * 100) AS BIGINT)
                  * CAST(ROUND(l_quantity) AS BIGINT) * 100)
            AS BIGINT) AS profit_e4
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN part     ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
WHERE p_type = 'ECONOMY'
GROUP BY 1, 2
"""


def q10_returned_revenue_by_customer(sf_dir: str) -> rd.Dataset:
    """TPC-H Q10 shape: revenue lost to returns per customer for orders
    placed in 1995Q3. The R-flag predicate pushes into the lineitem scan,
    the order-date predicate into the orders scan (so the size-hybrid
    attach only carries the quarter), and c_name/n_name attach AFTER the
    per-customer aggregation — dimension strings never ride the fact
    exchange."""
    import pyarrow.dataset as pads

    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_returnflag") == "R"),
    )
    lo, hi = pd.Timestamp("1995-07-01"), pd.Timestamp("1995-10-01")
    orders_side = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )
    j = _orders_join(line, orders_side)

    def partial(t: pa.Table) -> pa.Table:
        rev = _rev_e4(t.column("l_extendedprice"), t.column("l_discount"))
        return pa.table(
            {"c_custkey": t.column("o_custkey"), "revenue_e4": pa.array(rev, pa.int64())}
        )

    per_cust = as_dataset(fold(
        j.map_batches(partial, batch_format="pyarrow"),
        "c_custkey",
        [("revenue_e4", "sum", "revenue_e4")],
        combine=True,
    ))

    cust = read_table_pandas(sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"])
    nname = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"]).set_index("n_nationkey")["n_name"]
    c_name = cust.set_index("c_custkey")["c_name"]
    c_nat = cust.set_index("c_custkey")["c_nationkey"].map(nname)

    def attach(df: pd.DataFrame) -> pa.Table:
        df = df.assign(
            c_name=df["c_custkey"].map(c_name).to_numpy(),
            n_name=df["c_custkey"].map(c_nat).to_numpy(),
        )
        return arrow_from_pandas(df[["c_custkey", "c_name", "n_name", "revenue_e4"]])

    return per_cust.map_batches(attach, batch_format="pandas")


Q10_RETURNED_SQL = """
SELECT c_custkey, c_name, n_name,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_e4
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN nation   ON n_nationkey = c_nationkey
WHERE l_returnflag = 'R'
  AND o_orderdate >= DATE '1995-07-01' AND o_orderdate < DATE '1995-10-01'
GROUP BY 1, 2, 3
"""


def q11_important_parts(sf_dir: str) -> rd.Dataset:
    """TPC-H Q11 shape (lineitem spend stands in for partsupp stock
    value): parts whose total extended-price spend exceeds 1.5x the mean
    per-part spend (scale-free, unlike the classic fixed-share cutoff
    which empties out as the part count grows). Two passes over ONE
    per-part aggregate: the grand total and part count are the (tiny) sum
    of the per-part partials, and the HAVING compare is exact-integer
    (value_c * n_parts * 2 > 3 * grand_c) — no float share."""

    line = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {"p_partkey": t.column("l_partkey"), "value_c": _cents(t.column("l_extendedprice"))}
        )

    per_part = as_dataset(fold(
        line.map_batches(partial, batch_format="pyarrow"),
        "p_partkey",
        [("value_c", "sum", "value_c")],
        combine=True,
    )).materialize()
    grand = int(per_part.sum("value_c") or 0)
    n_parts = int(per_part.count())

    return per_part.map_batches(
        lambda t: t.filter(
            pc.greater(
                pc.multiply(t["value_c"], pa.scalar(2 * n_parts, pa.int64())),
                pa.scalar(3 * grand, pa.int64()),
            )
        ),
        batch_format="pyarrow",
    )


Q11_IMPORTANT_SQL = """
WITH v AS (
  SELECT l_partkey AS p_partkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS value_c
  FROM lineitem GROUP BY l_partkey
)
SELECT p_partkey, value_c
FROM v, (SELECT CAST(SUM(value_c) AS BIGINT) AS total,
                CAST(COUNT(*) AS BIGINT) AS np FROM v) g
WHERE value_c * g.np * 2 > 3 * g.total
"""


def q13_order_count_distribution(sf_dir: str) -> pa.Table:
    """TPC-H Q13 shape: distribution of customers by how many orders they
    placed, INCLUDING the zero-order bucket (the classic left-join
    wrinkle). Per-customer counts come from a combiner + grouped Sum over
    orders only; the zero bucket is arithmetic (total customers minus
    customers seen in orders) — the customer table is scanned for its
    count alone, never joined."""

    orders = read_table(sf_dir, "orders", columns=["o_custkey"])

    per_cust = as_dataset(fold(
        orders.map_batches(
            lambda t: pa.table({"c_custkey": pc.cast(t.column("o_custkey"), pa.int64())}),
            batch_format="pyarrow",
        ),
        "c_custkey",
        [(None, "count", "n_orders")],
        combine=True,
    )).materialize()

    buckets = fold(
        per_cust.select_columns(["n_orders"]),
        "n_orders",
        [(None, "count", "n_customers")],
        combine=True,
    ).to_pandas()  # bounded: one row per distinct order count

    n_total = read_table(sf_dir, "customer", columns=["c_custkey"]).count()
    zero = n_total - int(per_cust.count())
    if zero > 0:
        buckets = pd.concat(
            [buckets, pd.DataFrame({"n_orders": [0], "n_customers": [zero]})],
            ignore_index=True,
        )
    return arrow_from_pandas(buckets.astype({"n_orders": np.int64, "n_customers": np.int64}))


Q13_DISTRIBUTION_SQL = """
SELECT n_orders, CAST(COUNT(*) AS BIGINT) AS n_customers
FROM (
  SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders
  FROM customer LEFT JOIN orders ON o_custkey = c_custkey
  GROUP BY c_custkey
)
GROUP BY n_orders
"""


def q15_top_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q15 shape: the top supplier(s) by 1996Q1 shipped revenue,
    ties kept (the view + MAX subquery wrinkle). Per-supplier totals are
    combiner partials + one grouped Sum (bounded by supplier count); the
    global max is a scalar over that bounded aggregate; names attach on
    the (tiny) winner set only."""
    import pyarrow.dataset as pads

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")
    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = _rev_e4(t.column("l_extendedprice"), t.column("l_discount"))
        return pa.table(
            {"s_suppkey": t.column("l_suppkey"), "total_revenue_e4": pa.array(rev, pa.int64())}
        )

    totals = as_dataset(fold(
        line.map_batches(partial, batch_format="pyarrow"),
        "s_suppkey",
        [("total_revenue_e4", "sum", "total_revenue_e4")],
        combine=True,
    )).materialize()
    mx = totals.max("total_revenue_e4")
    s_name = read_table_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_name"]).set_index("s_suppkey")["s_name"]

    def winners(df: pd.DataFrame) -> pa.Table:
        df = df[df["total_revenue_e4"] == mx]
        df = df.assign(s_name=df["s_suppkey"].map(s_name).to_numpy())
        return arrow_from_pandas(df[["s_suppkey", "s_name", "total_revenue_e4"]])

    return totals.map_batches(winners, batch_format="pandas")


Q15_TOP_SUPPLIER_SQL = """
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
              AS BIGINT) AS total_revenue_e4
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
  GROUP BY l_suppkey
)
SELECT rev.s_suppkey, s_name, total_revenue_e4
FROM rev JOIN supplier ON supplier.s_suppkey = rev.s_suppkey
WHERE total_revenue_e4 = (SELECT MAX(total_revenue_e4) FROM rev)
"""


def q16_supplier_count_by_part_attrs(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q16 shape: how many distinct suppliers ship parts of each
    (brand, type, size) combination, excluding one brand — the exact
    grouped COUNT DISTINCT. Plan: per-block unique (partkey, suppkey)
    pairs + one grouped reduce dedups the fact, part attrs attach from a
    broadcast frame (inner semantics drop the excluded brand), a second
    attr-level dedup removes suppliers shipping several same-attr parts,
    and the final count is a combiner sum — three bounded exchanges, no
    row-level COUNT DISTINCT shuffle."""

    line = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    pairs = as_dataset(fold(
        line.select_columns(["l_partkey", "l_suppkey"]),
        ["l_partkey", "l_suppkey"],
        [(None, "count", "n")],
        combine=True,
    ))

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_brand", "p_type", "p_size"])
    part = part[part["p_brand"] != "Brand#13"].set_index("p_partkey")

    def attach(t: pa.Table) -> pa.Table:
        # inner join with the filtered part dimension: parts absent from it drop
        key = t.column("l_partkey")
        t = t.filter(pc.is_in(key, value_set=pa.array(part.index.to_numpy())))
        key = t.column("l_partkey")
        return pa.table(
            {
                "p_brand": _lookup(key, part["p_brand"]),
                "p_type": _lookup(key, part["p_type"]),
                "p_size": pc.cast(_lookup(key, part["p_size"]), pa.int64()),
                "l_suppkey": t.column("l_suppkey"),
            }
        )

    attr_supp = as_dataset(fold(
        pairs.map_batches(attach, batch_format="pyarrow"),
        ["p_brand", "p_type", "p_size", "l_suppkey"],
        [(None, "count", "n")],
        combine=True,
    ))
    return fold(
        attr_supp,
        ["p_brand", "p_type", "p_size"],
        [(None, "count", "supplier_cnt")],
        combine=True,
    )


Q16_SUPPLIER_CNT_SQL = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM part JOIN (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem)
     ON l_partkey = p_partkey
WHERE p_brand <> 'Brand#13'
GROUP BY 1, 2, 3
"""


def q17_small_quantity_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q17 shape: revenue from Brand#23 lineitems whose quantity is
    below 20% of that part's average order quantity (the correlated-
    average wrinkle). The per-part average never becomes a float: the
    filter is the exact cross-multiplication 5*qty*cnt < sum_qty. Pass 1
    builds per-part (sum, count) partials restricted to the brand's part
    keys (broadcast set — same values the oracle's unfiltered correlated
    average yields for those parts); pass 2 re-scans, filters against the
    broadcast per-part sums and reduces to one row."""

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_brand"])
    brand_keys = frozenset(part.loc[part["p_brand"] == "Brand#23", "p_partkey"].tolist())

    line = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice"]
    )

    brand_arr = pa.array(sorted(brand_keys), pa.int64())

    def qstats(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("l_partkey"), value_set=brand_arr))
        return pa.table({"l_partkey": t.column("l_partkey"), "q": _rint(t.column("l_quantity"))})

    stats = fold(
        line.map_batches(qstats, batch_format="pyarrow"),
        "l_partkey",
        [("q", "sum", "sq"), (None, "count", "cq")],
        combine=True,
    ).to_pandas()
    sq = stats.set_index("l_partkey")["sq"]
    cq = stats.set_index("l_partkey")["cq"]

    def small(df: pd.DataFrame) -> pa.Table:
        df = df[df["l_partkey"].isin(brand_keys)]
        q = np.rint(df["l_quantity"].to_numpy()).astype(np.int64)
        s = df["l_partkey"].map(sq).to_numpy(dtype=np.int64)
        c = df["l_partkey"].map(cq).to_numpy(dtype=np.int64)
        keep = 5 * q * c < s
        rev = np.rint(df["l_extendedprice"].to_numpy()[keep] * 100.0).astype(np.int64)
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
                "revenue_c": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    out = fold(
        line.map_batches(small, batch_format="pandas"),
        "one",
        [("n_items", "sum", "n_items"), ("revenue_c", "sum", "revenue_c")],
    ).to_pandas()
    if len(out) == 0:
        out = pd.DataFrame({"n_items": [0], "revenue_c": [0]})
    return arrow_from_pandas(out[["n_items", "revenue_c"]])


Q17_SMALL_QTY_SQL = """
WITH avgq AS (
  SELECT l_partkey AS pk,
         CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sq,
         CAST(COUNT(*) AS BIGINT) AS cq
  FROM lineitem GROUP BY l_partkey
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS revenue_c
FROM lineitem JOIN part ON p_partkey = l_partkey JOIN avgq ON pk = l_partkey
WHERE p_brand = 'Brand#23'
  AND 5 * CAST(ROUND(l_quantity) AS BIGINT) * cq < sq
"""


def q19_bracketed_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19 shape: revenue under an OR of three (brand, size-range,
    quantity-range) conjunctions — the disjunctive-predicate showcase.
    Part attrs resolve from two broadcast maps; the whole predicate is one
    vectorized boolean expression per block, reduced to a single row."""

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"])
    brand = part.set_index("p_partkey")["p_brand"]
    size = part.set_index("p_partkey")["p_size"]

    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pa.Table:
        b = df["l_partkey"].map(brand).to_numpy()
        s = df["l_partkey"].map(size).to_numpy(dtype=np.int64)
        q = np.rint(df["l_quantity"].to_numpy()).astype(np.int64)
        keep = (
            ((b == "Brand#12") & (s >= 1) & (s <= 15) & (q >= 1) & (q <= 11))
            | ((b == "Brand#23") & (s >= 1) & (s <= 25) & (q >= 10) & (q <= 20))
            | ((b == "Brand#3") & (s >= 1) & (s <= 35) & (q >= 20) & (q <= 30))
        )
        e4 = _rev_e4(df["l_extendedprice"], df["l_discount"])[keep]
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
                "revenue_e4": pa.array([int(e4.sum())], pa.int64()),
            }
        )

    out = fold(
        line.map_batches(partial, batch_format="pandas"),
        "one",
        [("n_items", "sum", "n_items"), ("revenue_e4", "sum", "revenue_e4")],
    ).to_pandas()
    if len(out) == 0:
        out = pd.DataFrame({"n_items": [0], "revenue_e4": [0]})
    return arrow_from_pandas(out[["n_items", "revenue_e4"]])


Q19_BRACKET_SQL = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
            AS BIGINT) AS revenue_e4
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15
       AND CAST(ROUND(l_quantity) AS BIGINT) BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 25
       AND CAST(ROUND(l_quantity) AS BIGINT) BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 35
       AND CAST(ROUND(l_quantity) AS BIGINT) BETWEEN 20 AND 30)
"""


def q22_idle_customer_balance(sf_dir: str) -> "pa.Table | rd.Dataset":
    """TPC-H Q22 shape: lapsed customers — above-average positive balance
    and NO orders since 2000-01-01 (every customer in this corpus has at
    least one lifetime order, so the classic "never ordered" form is
    vacuous; the date-windowed anti join keeps the same plan non-trivial).
    The global average stays exact (compare bal_c * n_pos > sum_pos_c);
    the "not ordered since" test is the size-hybrid anti-join against the
    distinct recent-order custkeys (combiner unique + grouped reduce —
    never a row-level orders shuffle)."""
    from kgw_ray.stages.joins import anti_join

    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )

    def pos_partial(t: pa.Table) -> pa.Table:
        c = np.rint(t.column("c_acctbal").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        c = c[c > 0]
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "s": pa.array([int(c.sum())], pa.int64()),
                "n": pa.array([len(c)], pa.int64()),
            }
        )

    pos = fold(
        cust.map_batches(pos_partial, batch_format="pyarrow"),
        "one",
        [("s", "sum", "s"), ("n", "sum", "n")],
    ).to_pandas()
    if len(pos) == 0:
        sum_pos, n_pos = 0, 0
    else:
        sum_pos, n_pos = int(pos["s"].iloc[0]), int(pos["n"].iloc[0])

    def rich(t: pa.Table) -> pa.Table:
        bal = np.rint(t.column("c_acctbal").to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        keep = bal * n_pos > sum_pos
        return pa.table(
            {
                "c_custkey": t.column("c_custkey").filter(pa.array(keep)),
                "c_nationkey": t.column("c_nationkey").filter(pa.array(keep)),
                "bal_c": pa.array(bal[keep], pa.int64()),
            }
        )

    rich_ds = cust.map_batches(rich, batch_format="pyarrow")

    import pyarrow.dataset as pads

    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_custkey"],
        filter=(pads.field("o_orderdate") >= pd.Timestamp("2000-01-01")),
    )

    ordered = as_dataset(fold(
        orders.select_columns(["o_custkey"]), "o_custkey", [(None, "count", "n")], combine=True
    )).select_columns(["o_custkey"])

    idle = anti_join(rich_ds, ordered, on="c_custkey", key_col="o_custkey")
    nname = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"]).set_index("n_nationkey")["n_name"]

    def roll(t: pa.Table) -> pa.Table:
        return pa.table(
            {"n_name": _lookup(t.column("c_nationkey"), nname), "bal_c": t.column("bal_c")}
        )

    return fold(
        idle.map_batches(roll, batch_format="pyarrow"),
        "n_name",
        [(None, "count", "n_customers"), ("bal_c", "sum", "total_acctbal_c")],
        combine=True,
    )


Q22_IDLE_BALANCE_SQL = """
WITH pos AS (
  SELECT CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS s,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM customer WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) > 0
)
SELECT n_name,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT)) AS BIGINT) AS total_acctbal_c
FROM customer JOIN nation ON n_nationkey = c_nationkey, pos
WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) * pos.n > pos.s
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderdate >= DATE '2000-01-01')
GROUP BY n_name
"""


def q2_min_balance_supplier_per_part(sf_dir: str) -> rd.Dataset:
    """TPC-H Q2 shape (no partsupp: the suppliers who actually shipped a
    part, from lineitem, stand in for its candidate suppliers): for every
    part, the shipping supplier with the lowest account balance, suppkey
    as tie-break. The argmin travels as ONE packed int64 through a native
    Min ((bal_c + 2e6) * 1e7 + suppkey — bal in [-1e6, 1e6] cents,
    suppkey < 1e7; both bounds asserted) — the CDC latest-per-user
    pattern, no per-part window sort."""

    supp = read_table_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])
    bal_c = pd.Series(
        np.rint(supp["s_acctbal"].to_numpy() * 100.0).astype(np.int64),
        index=supp["s_suppkey"].to_numpy(),
    )
    if len(supp) == 0:  # empty supplier table: nothing to argmin over
        return pa.table(
            {
                "p_partkey": pa.array([], pa.int64()),
                "s_suppkey": pa.array([], pa.int64()),
                "s_acctbal": pa.array([], pa.float64()),
            }
        )
    assert bal_c.abs().max() < 2_000_000 and int(supp["s_suppkey"].max()) < 10_000_000

    line = read_table(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])

    def packed(t: pa.Table) -> pa.Table:
        supp_key = t.column("l_suppkey")
        bal = pc.cast(_lookup(supp_key, bal_c), pa.int64())
        key = pc.add(pc.multiply(pc.add(bal, 2_000_000), 10_000_000), pc.cast(supp_key, pa.int64()))
        return pa.table({"p_partkey": t.column("l_partkey"), "packed": key})

    mins = as_dataset(fold(
        line.map_batches(packed, batch_format="pyarrow"),
        "p_partkey",
        [("packed", "min", "packed")],
        combine=True,
    ))

    def unpack(t: pa.Table) -> pa.Table:
        p = t.column("packed").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "s_suppkey": pa.array(p % 10_000_000, pa.int64()),
                "s_acctbal_c": pa.array(p // 10_000_000 - 2_000_000, pa.int64()),
            }
        )

    return mins.map_batches(unpack, batch_format="pyarrow")


Q2_MIN_SUPPLIER_SQL = """
WITH pairs AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
j AS (
  SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
         CAST(ROUND(s_acctbal * 100) AS BIGINT) AS bal
  FROM pairs JOIN supplier ON supplier.s_suppkey = pairs.l_suppkey
)
SELECT p_partkey, s_suppkey, bal AS s_acctbal_c
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY p_partkey ORDER BY bal, s_suppkey) rn FROM j)
WHERE rn = 1
"""


def events_hourly_distinct_users(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Exact distinct users per hour — the time-bucketed audience query
    (hourly-active-users). Same two-level exact COUNT DISTINCT plan as
    events_users_per_type, keyed on the integer hour bucket: per-batch
    (hour, user) dedup combiner → ONE pair-keyed exchange → per-hour
    count. Hours bucket as integer microseconds (epoch_us // 3.6e9 — a
    float epoch would round the x.55 boundaries)."""

    _HOUR_US = 3_600_000_000
    ds = read_table(sf_dir, "events", columns=["ts", "user_id"])

    def pair_partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64())
        return pa.table(
            {"hour_us": pc.multiply(pc.divide(us, _HOUR_US), _HOUR_US),
             "user_id": pc.cast(t.column("user_id"), pa.int64())}
        )

    pairs = as_dataset(fold(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["hour_us", "user_id"],
        [(None, "count", "n")],
        combine=True,
    ))
    return fold(pairs, "hour_us", [(None, "count", "n_users")], combine=True)


EVENTS_HOURLY_DISTINCT_SQL = """
SELECT CAST((epoch_us(ts) // 3600000000) * 3600000000 AS BIGINT) AS hour_us,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY 1
"""


def dq_orphan_lineitems(sf_dir: str) -> pa.Table:
    """Referential-integrity audit between the two fact tables — the
    foreign-key validation every at-scale ingest needs: lineitem orderkeys
    with no orders row (orphans) and orders with no lineitem (childless).
    Both sides reduce to their DISTINCT key sets first (per-block unique
    combiner + one bounded grouped reduce each), then the two set
    differences run as size-hybrid anti-joins over those key Datasets —
    the raw fact rows never shuffle. Output is one summary row."""
    from kgw_ray.stages.joins import anti_join

    def distinct_keys(table: str, col: str) -> rd.Dataset:
        ds = read_table(sf_dir, table, columns=[col])

        return as_dataset(
            fold(ds, col, [(None, "count", "n")], combine=True)
        ).select_columns([col])

    lkeys = distinct_keys("lineitem", "l_orderkey").materialize()
    okeys = distinct_keys("orders", "o_orderkey").materialize()
    orphan = anti_join(lkeys, okeys, on="l_orderkey", key_col="o_orderkey")
    childless = anti_join(okeys, lkeys, on="o_orderkey", key_col="l_orderkey")
    return pa.table(
        {
            "n_orphan_lineitem_keys": pa.array([orphan.count()], pa.int64()),
            "n_childless_orders": pa.array([childless.count()], pa.int64()),
        }
    )


DQ_ORPHAN_SQL = """
SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM
         (SELECT DISTINCT l_orderkey FROM lineitem) l
         WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_orderkey = l.l_orderkey))
       AS n_orphan_lineitem_keys,
       (SELECT CAST(COUNT(*) AS BIGINT) FROM orders o
         WHERE NOT EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o.o_orderkey))
       AS n_childless_orders
"""


def users_by_type_signature(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Behavioral cohorts: users grouped by their exact SET of event types
    within the day-one analysis window (the sorted distinct-type
    signature) — the set-valued-key aggregation a segmentation pipeline
    runs; over the full month every user reaches every type and the
    cohorts collapse, so the window is what makes the key non-trivial.
    Plan: window predicate pushed into the scan → per-block (user, type)
    dedup → ONE pair-keyed grouped reduce → signatures built per 64-way
    user shard (sorted vectorized join inside the shard, never per-user
    Python-group dispatch) → signature counts via combiner + bounded
    Sum. The signature string exists only on the deduped pair table
    (≤ users x type-vocabulary rows), never on the raw event stream."""
    import pyarrow.dataset as pads

    ds = read_table(
        sf_dir,
        "events",
        columns=["user_id", "event_type"],
        filter=(pads.field("ts") < pd.Timestamp("2024-01-02")),
    )

    pairs = as_dataset(fold(
        ds.select_columns(["user_id", "event_type"]),
        ["user_id", "event_type"],
        [(None, "count", "n")],
        combine=True,
    ))

    def shard_sig(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "event_type"])
        # string_agg skips NULL types; a user with only NULL types has a
        # NULL signature, and NULL is a GROUP BY group
        sig = df.groupby("user_id", sort=False)["event_type"].agg(
            lambda s: ",".join(s.dropna()) if s.notna().any() else None
        )
        return pa.table({"signature": pa.array(sig.to_numpy(), pa.string())})

    def add_shard(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        return t.append_column("shard", pa.array(u % 64, pa.int64()))

    sigs = (
        pairs.map_batches(add_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_sig, batch_format="pandas")
    )
    return fold(sigs, "signature", [(None, "count", "n_users")], combine=True)


USERS_BY_TYPE_SIGNATURE_SQL = """
SELECT signature, CAST(COUNT(*) AS BIGINT) AS n_users
FROM (
  SELECT user_id, string_agg(event_type, ',' ORDER BY event_type) AS signature
  FROM (SELECT DISTINCT user_id, event_type FROM events
        WHERE ts < TIMESTAMP '2024-01-02')
  GROUP BY user_id
)
GROUP BY signature
"""


def events_value_var_parts(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Exact second-moment parts per event type: (n, sum_c, sumsq_c) over
    cent-quantized values — variance/stddev derive on the consumer side
    while the engine ships only three int64 monoids (the Welford
    alternative needs non-commutative merges; raw power sums are the
    mergeable form). Overflow headroom: cents ≤ ~5.6e4 here, squares
    ~3e9/row, ~9e18/int64 ⇒ ~3e9 rows per type per partial; beyond that
    split groups or widen to per-block HUGEINT partials."""

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        c = _cents(t.column("value"))
        return pa.table({"event_type": t.column("event_type"), "c": c, "c2": pc.multiply(c, c)})

    return fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        "event_type",
        [(None, "count", "n"), ("c", "sum", "sum_c"), ("c2", "sum", "sumsq_c")],
        combine=True,
    )


EVENTS_VALUE_VAR_PARTS_SQL = """
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_c,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)
                * CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sumsq_c
FROM events GROUP BY event_type
"""


def q20_promotion_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q20 shape (no partsupp: a pair's all-time shipped quantity
    stands in for availability, reference kgw has no partsupp either):
    suppliers in one nation holding "promotion-ready" stock of a part
    family — (part, supplier) pairs whose 1995 shipments exceed HALF the
    pair's all-time shipments, for parts named 'small%', counted per
    supplier. Plan: the part-key filter set is dimension-sized and rides
    the closure (the q2 bal_c pattern); quantities quantize to int64
    centi-units so the halving test is exact integer arithmetic; ONE
    pair-keyed combiner exchange, then the per-supplier count is a
    second bounded reduce and names attach on the driver-sized result."""

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_name"])
    fam_keys = np.sort(
        part.loc[part["p_name"].str.startswith("small"), "p_partkey"].to_numpy(
            dtype=np.int64
        )
    )
    lo, hi = np.datetime64("1995-01-01"), np.datetime64("1996-01-01")

    line = read_table(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        m = np.isin(pk, fam_keys)
        qty_c = np.rint(
            t.column("l_quantity").to_numpy(zero_copy_only=False)[m] * 100.0
        ).astype(np.int64)
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False)[m]
        in95 = (ship >= lo) & (ship < hi)
        return pa.table(
            {
                "l_partkey": pa.array(pk[m], pa.int64()),
                "l_suppkey": t.column("l_suppkey").filter(pa.array(m)),
                "qty_c": pa.array(qty_c),
                "qty95_c": pa.array(np.where(in95, qty_c, 0)),
            }
        )

    pairs = as_dataset(fold(
        line.map_batches(pair_partial, batch_format="pyarrow"),
        ["l_partkey", "l_suppkey"],
        [("qty_c", "sum", "qty_c"), ("qty95_c", "sum", "qty95_c")],
        combine=True,
    ))

    def qualifying(t: pa.Table) -> pa.Table:
        q = t.filter(pc.greater(pc.multiply(t.column("qty95_c"), 2), t.column("qty_c")))
        return pa.table({"l_suppkey": pc.cast(q.column("l_suppkey"), pa.int64())})

    per_supp = fold(
        pairs.map_batches(qualifying, batch_format="pyarrow"),
        "l_suppkey",
        [(None, "count", "n_qual_parts")],
        combine=True,
    ).to_pandas()

    supp = read_table_pandas(
        sf_dir, "supplier", columns=["s_suppkey", "s_name", "s_nationkey"]
    )
    nat = read_table_pandas(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    supp = supp.merge(nat, left_on="s_nationkey", right_on="n_nationkey")
    supp = supp[supp["n_name"] == "NATION_7"]
    out = per_supp.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    return pa.table(
        {
            "s_suppkey": pa.array(out["s_suppkey"].to_numpy(dtype=np.int64)),
            "s_name": pa.array(out["s_name"].to_numpy(), pa.string()),
            "n_qual_parts": pa.array(out["n_qual_parts"].to_numpy(dtype=np.int64)),
        }
    )


Q20_PROMOTION_SQL = """
WITH qual AS (
  SELECT l_partkey, l_suppkey
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'small%'
  GROUP BY l_partkey, l_suppkey
  HAVING 2 * SUM(CASE WHEN l_shipdate >= TIMESTAMP '1995-01-01'
                       AND l_shipdate <  TIMESTAMP '1996-01-01'
                      THEN CAST(ROUND(l_quantity * 100) AS BIGINT) ELSE 0 END)
        > SUM(CAST(ROUND(l_quantity * 100) AS BIGINT))
)
SELECT s_suppkey, s_name, CAST(COUNT(*) AS BIGINT) AS n_qual_parts
FROM qual JOIN supplier ON supplier.s_suppkey = qual.l_suppkey
          JOIN nation ON n_nationkey = s_nationkey
WHERE n_name = 'NATION_7'
GROUP BY s_suppkey, s_name
"""


def q21_waiting_suppliers(sf_dir: str) -> rd.Dataset:
    """TPC-H Q21 shape (no commit/receipt dates: "late" = shipped more
    than 90 days after the order date): suppliers who were the SOLE late
    shipper on a multi-supplier finalized order, counted per supplier
    (numwait). Plan: the F-orders predicate pushes into the scan; order
    dates attach via the size-hybrid large join; per-(order, supplier)
    lateness reduces through a Max combiner; then ONE order-keyed reduce
    carries three int64 monoids — supplier count, late count, and the
    late supplier's identity packed into max(late * (suppkey + 1)) — so
    the sole-late-supplier test and its argmax need no second pass over
    the pairs. Names attach on the supplier-bounded result."""
    if read_table(sf_dir, "orders", columns=["o_orderkey"]).count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "s_suppkey": pa.array([], pa.int64()),
                    "s_name": pa.array([], pa.string()),
                    "numwait": pa.array([], pa.int64()),
                }
            )
        )
    import pyarrow.dataset as pads

    orders = read_table(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_orderdate"],
        filter=(pads.field("o_orderstatus") == "F"),
    )
    line = read_table(
        sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    )
    j = large_join(line, orders, on=["l_orderkey"], right_on=["o_orderkey"])
    _D90 = np.timedelta64(90, "D")

    def flag_partial(t: pa.Table) -> pa.Table:
        ship = t.column("l_shipdate").to_numpy(zero_copy_only=False)
        od = t.column("o_orderdate").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_suppkey": t.column("l_suppkey"),
                "late": pa.array((ship > od + _D90).astype(np.int64)),
            }
        )

    flags = as_dataset(fold(
        j.map_batches(flag_partial, batch_format="pyarrow"),
        ["l_orderkey", "l_suppkey"],
        [("late", "max", "late")],
        combine=True,
    ))

    def order_partial(t: pa.Table) -> pa.Table:
        late = pc.cast(t.column("late"), pa.int64())
        supp = pc.cast(t.column("l_suppkey"), pa.int64())
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "late": late,
                "late_packed": pc.multiply(late, pc.add(supp, 1)),
            }
        )

    per_order = as_dataset(fold(
        flags.map_batches(order_partial, batch_format="pyarrow"),
        "l_orderkey",
        [
            (None, "count", "n_supp"),
            ("late", "sum", "n_late"),
            ("late_packed", "max", "late_packed"),
        ],
        combine=True,
    ))

    def waiting(t: pa.Table) -> pa.Table:
        q = t.filter(
            pc.and_(pc.greater_equal(t.column("n_supp"), 2), pc.equal(t.column("n_late"), 1))
        )
        return pa.table({"s_suppkey": pc.subtract(pc.cast(q.column("late_packed"), pa.int64()), 1)})

    waits = fold(
        per_order.map_batches(waiting, batch_format="pyarrow"),
        "s_suppkey",
        [(None, "count", "numwait")],
        combine=True,
    ).to_pandas()

    supp = read_table_pandas(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    out = waits.merge(supp, on="s_suppkey")
    return pa.table(
        {
            "s_suppkey": pa.array(out["s_suppkey"].to_numpy(dtype=np.int64)),
            "s_name": pa.array(out["s_name"].to_numpy(), pa.string()),
            "numwait": pa.array(out["numwait"].to_numpy(dtype=np.int64)),
        }
    )


Q21_WAITING_SQL = """
WITH flag AS (
  SELECT l_orderkey AS ok, l_suppkey AS sk,
         MAX(CASE WHEN l_shipdate > o_orderdate + INTERVAL 90 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  WHERE o_orderstatus = 'F'
  GROUP BY 1, 2
),
per_order AS (
  SELECT ok, COUNT(*) AS n_supp, SUM(late) AS n_late,
         MAX(late * (sk + 1)) AS late_packed
  FROM flag GROUP BY ok
)
SELECT s_suppkey, s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM (SELECT late_packed - 1 AS sk FROM per_order
      WHERE n_supp >= 2 AND n_late = 1) q
JOIN supplier ON supplier.s_suppkey = q.sk
GROUP BY s_suppkey, s_name
"""


def events_type_lift(sf_dir: str) -> pa.Table:
    """Association lift between event types over distinct users — the
    market-basket normalization (lift = P(a,b) / (P(a)·P(b)), reported as
    exact ppm): which behaviors co-occur in the same users beyond what
    their popularity predicts. Plan: ONE (user, type) dedup reduce (the
    users_by_type_signature exchange), pair expansion inside 64-way user
    shards (type vocabulary is small, so pairs-per-user is bounded),
    bounded (a, b) sums — then the lift arithmetic folds the
    type-vocab²-sized count table on the driver in arbitrary-precision
    Python int (n_ab·n_users·10⁶ overflows int64 at web scale; the
    counts it folds are tiny, the corpus never lands here)."""

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    du = as_dataset(fold(
        ds.select_columns(["user_id", "event_type"]),
        ["user_id", "event_type"],
        [(None, "count", "n")],
        combine=True,
    )).materialize()

    def add_shard(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "event_type": t.column("event_type"),
                "shard": pa.array(u % 64, pa.int64()),
            }
        )

    def shard_pairs(df: pd.DataFrame) -> pa.Table:
        j = df.merge(df, on="user_id", suffixes=("_a", "_b"))
        j = j[j["event_type_a"] < j["event_type_b"]]
        return pa.table(
            {
                "type_a": pa.array(j["event_type_a"].to_numpy(), pa.string()),
                "type_b": pa.array(j["event_type_b"].to_numpy(), pa.string()),
            }
        )

    ab = fold(
        du.map_batches(add_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_pairs, batch_format="pandas"),
        ["type_a", "type_b"],
        [(None, "count", "n_ab")],
        combine=True,
    ).to_pandas()

    n_users = int(
        as_dataset(fold(
            du.select_columns(["user_id"]), "user_id", [(None, "count", "n")], combine=True
        )).count()
    )

    per = (
        fold(du.select_columns(["event_type"]), "event_type", [(None, "count", "n")], combine=True)
        .to_pandas()
        .set_index("event_type")["n"]
    )

    if len(ab) == 0 or "type_a" not in ab.columns:
        return pa.table(
            {
                "type_a": pa.array([], pa.string()),
                "type_b": pa.array([], pa.string()),
                "n_ab": pa.array([], pa.int64()),
                "lift_ppm": pa.array([], pa.int64()),
            }
        )
    lifts = [
        int(n_ab) * n_users * 1_000_000 // (int(per[a]) * int(per[b]))
        for a, b, n_ab in zip(ab["type_a"], ab["type_b"], ab["n_ab"])
    ]
    return pa.table(
        {
            "type_a": pa.array(ab["type_a"].to_numpy(), pa.string()),
            "type_b": pa.array(ab["type_b"].to_numpy(), pa.string()),
            "n_ab": pa.array(ab["n_ab"].to_numpy(dtype=np.int64)),
            "lift_ppm": pa.array(np.asarray(lifts, dtype=np.int64)),
        }
    )


EVENTS_TYPE_LIFT_SQL = """
WITH du AS (SELECT DISTINCT user_id, event_type FROM events),
tot AS (SELECT CAST(COUNT(DISTINCT user_id) AS HUGEINT) AS nu FROM events),
per AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n FROM du GROUP BY 1),
ab AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
              CAST(COUNT(*) AS HUGEINT) AS n_ab
       FROM du a JOIN du b ON a.user_id = b.user_id
                          AND a.event_type < b.event_type
       GROUP BY 1, 2)
SELECT type_a, type_b, CAST(n_ab AS BIGINT) AS n_ab,
       CAST(n_ab * nu * 1000000 // (p1.n * p2.n) AS BIGINT) AS lift_ppm
FROM ab, tot
JOIN per p1 ON p1.event_type = type_a
JOIN per p2 ON p2.event_type = type_b
"""


def events_user_sketch_by_type(sf_dir: str, k: int = 64) -> pa.Table:
    """PER-GROUP distinct-user cardinality via mergeable KMV sketches —
    the zero-pair-shuffle path to per-key COUNT DISTINCT at corpus scale
    (the exact twin `events_users_per_type` pays a (type, user)-keyed
    exchange; the sketch exchanges ≤ |types|·k·blocks fixed-size hash
    rows instead). Per block, each type folds to its k smallest portable
    md5-LE-uint64 user hashes; the global per-type k-min merges through
    ONE bounded (type, hash) reduce and the estimator
    ``(n−1)·2⁶⁴ // kth_min`` folds on the driver — pure integer
    functions of the value set, bit-for-bit reproducible in SQL.
    Standard error ~1/√k (~12% at the default k=64 — chosen so the
    estimator branch, not just the exact-small branch, is live at the
    sf0.01 gate scale of ~150 users/type; production would run k≥1024)."""
    from kgw_ray.stages.dedup import _portable_token_hashes

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(t: pa.Table) -> pa.Table:
        # each type's k smallest distinct user hashes in this block (NULL
        # types are a group; NULL users hash to nothing)
        t = t.filter(pc.is_valid(t.column("user_id")))
        users = pc.cast(t.column("user_id"), pa.string()).to_pylist()
        h = pa.array(_portable_token_hashes(users), pa.uint64())
        pairs = pa.table({"event_type": t.column("event_type"), "h": h}).sort_by(
            [("event_type", "ascending"), ("h", "ascending")]
        )
        et = pairs.column("event_type").to_numpy(zero_copy_only=False)
        hv = pairs.column("h").to_numpy()
        new = np.ones(len(et), dtype=bool)
        new[1:] = et[1:] != et[:-1]
        # sorted, so a repeated (type, hash) pair follows its first copy.
        # Not an Arrow group_by: with a NULL string key before an integer
        # key, pyarrow 16 splits the NULL group into duplicate groups.
        first = new.copy()
        first[1:] |= hv[1:] != hv[:-1]
        pairs, new = pairs.filter(pa.array(first)), new[first]
        start = np.flatnonzero(new)[np.cumsum(new) - 1]
        return pairs.filter(pa.array(np.arange(len(new)) - start < k))

    pairs = fold(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        [(None, "count", "n")],
    ).to_pandas()

    if len(pairs) == 0:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "k": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "kth_min": pa.array([], pa.string()),
                "est_distinct": pa.array([], pa.int64()),
            }
        )

    out_t, out_n, out_kth, out_est = [], [], [], []
    for g, sub in pairs.groupby("event_type", sort=False, dropna=False):
        h = np.sort(sub["h"].to_numpy().astype(np.uint64))[:k]
        n = int(len(h))
        kth = int(h[-1])
        est = n if n < k else ((n - 1) * (1 << 64)) // kth
        out_t.append(None if pd.isna(g) else g)
        out_n.append(n)
        out_kth.append(str(kth))
        out_est.append(int(est))
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "k": pa.array(np.full(len(out_t), k, dtype=np.int64)),
            "n": pa.array(np.asarray(out_n, np.int64)),
            "kth_min": pa.array(out_kth, pa.string()),
            "est_distinct": pa.array(np.asarray(out_est, np.int64)),
        }
    )


def _grouped_kmv_sql(k: int = 64) -> str:
    from kgw_ray.pipelines.training_data import _MD5_LE_UINT64

    return f"""
WITH hsrc AS (
  SELECT DISTINCT event_type, md5(CAST(user_id AS VARCHAR)) AS hx
  FROM events WHERE user_id IS NOT NULL
),
u AS (SELECT event_type, ({_MD5_LE_UINT64}) AS hv FROM hsrc),
kmin AS (
  SELECT event_type, hv,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY hv) AS rk
  FROM u
),
agg AS (
  SELECT event_type, COUNT(*) AS n, MAX(hv) AS kth
  FROM kmin WHERE rk <= {k} GROUP BY event_type
)
SELECT event_type, CAST({k} AS BIGINT) AS k, CAST(n AS BIGINT) AS n,
       CAST(kth AS VARCHAR) AS kth_min,
       CASE WHEN n < {k} THEN CAST(n AS BIGINT)
            ELSE CAST((CAST(n - 1 AS UHUGEINT)
                       * CAST(18446744073709551616 AS UHUGEINT))
                      // CAST(kth AS UHUGEINT) AS BIGINT)
       END AS est_distinct
FROM agg
"""


EVENTS_GROUPED_KMV_SQL = _grouped_kmv_sql()


# ---------------------------------------------------------------------------
# RFM customer segmentation
# ---------------------------------------------------------------------------


def customers_rfm(sf_dir: str) -> rd.Dataset:
    """RFM segmentation over orders: per customer, Recency (max order
    timestamp, epoch µs), Frequency (order count) and Monetary (exact
    integer cents — per-order ROUND(price*100) BEFORE the sum, so the
    int64 fold is order-independent), each cut into NTILE(4) quartiles
    under the deterministic (metric, custkey) total order.

    Physical plan: per-batch pandas-groupby combiner → one grouped
    exchange over the CUSTOMER key → three exact distributed ROW_NUMBER
    passes (range-bucket histogram plan, stages/agg.py:global_row_number —
    no global sort) → vectorized NTILE arithmetic folded back with two
    size-hybrid joins on custkey. Nothing larger than the customer
    vocabulary crosses a single node."""
    import numpy as np
    import pyarrow.compute as pc

    from kgw_ray.sources.readers import read_table
    from kgw_ray.stages.agg import as_dataset, fold, global_row_number
    from kgw_ray.stages.joins import large_join

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def partials(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": pc.cast(t.column("o_custkey"), pa.int64()),
                "r": pc.cast(t.column("o_orderdate"), pa.int64()),
                "m": _cents(t.column("o_totalprice")),
            }
        )

    per_cust = as_dataset(fold(
        orders.map_batches(partials, batch_format="pyarrow"),
        "custkey",
        [("r", "max", "recency_us"), (None, "count", "frequency"), ("m", "sum", "monetary_cents")],
        combine=True,
    )).materialize()
    n = per_cust.count()
    if n == 0:
        return per_cust

    def _ntile(rn: np.ndarray, n_rows: int, k: int = 4) -> np.ndarray:
        base, rem = n_rows // k, n_rows % k
        cut = rem * (base + 1)
        base_safe = max(base, 1)
        return np.where(
            rn <= cut,
            (rn - 1) // (base + 1) + 1,
            rem + (rn - cut - 1) // base_safe + 1,
        ).astype(np.int64)

    def _bucketed(metric: str, out: str) -> rd.Dataset:
        ranked = global_row_number(
            per_cust.select_columns(["custkey", metric]),
            [metric, "custkey"],
            rank_name="rn",
        )

        def fin(t: pa.Table) -> pa.Table:
            rn = t.column("rn").to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {"custkey": t.column("custkey"), out: pa.array(_ntile(rn, n))}
            )

        return ranked.map_batches(fin, batch_format="pyarrow")

    out = large_join(per_cust, _bucketed("recency_us", "r_bucket"), on=["custkey"])
    out = large_join(out, _bucketed("frequency", "f_bucket"), on=["custkey"])
    out = large_join(out, _bucketed("monetary_cents", "m_bucket"), on=["custkey"])

    def order_cols(t: pa.Table) -> pa.Table:
        cols = [
            "custkey",
            "recency_us",
            "frequency",
            "monetary_cents",
            "r_bucket",
            "f_bucket",
            "m_bucket",
        ]
        return t.select(cols)

    return out.map_batches(order_cols, batch_format="pyarrow")


CUSTOMERS_RFM_SQL = """
WITH a AS (
  SELECT o_custkey AS custkey,
         CAST(epoch_us(MAX(o_orderdate)) AS BIGINT) AS recency_us,
         CAST(COUNT(*) AS BIGINT) AS frequency,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
             AS monetary_cents
  FROM orders GROUP BY o_custkey
)
SELECT custkey, recency_us, frequency, monetary_cents,
       CAST(NTILE(4) OVER (ORDER BY recency_us, custkey) AS BIGINT) AS r_bucket,
       CAST(NTILE(4) OVER (ORDER BY frequency, custkey) AS BIGINT) AS f_bucket,
       CAST(NTILE(4) OVER (ORDER BY monetary_cents, custkey) AS BIGINT) AS m_bucket
FROM a
"""


def orders_cohort_ltv(sf_dir: str) -> rd.Dataset:
    """Cohort lifetime-value rollup: customers are cohorted by their FIRST
    order month; revenue (exact integer cents, per-order rounding before
    any sum) and active-customer counts fold by (cohort_month,
    month_offset) — the retention/LTV triangle every subscription or
    marketplace analytics stack maintains.

    Physical plan: a (custkey, month) cents-sum fold → grouped Min
    derives each customer's cohort → one hash join back (customer-
    vocabulary-bounded) → the (cohort, offset) census. After the
    (custkey, month) grouping each (custkey, offset) pair is unique, so
    n_active is a plain COUNT — no distinct-count machinery needed."""
    from kgw_ray.stages.joins import large_join

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def partials(t: pa.Table) -> pa.Table:
        midx = (
            t.column("o_orderdate")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[M]")
            .astype(np.int64)
        )
        cents = np.round(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "custkey": pc.cast(t.column("o_custkey"), pa.int64()),
                "midx": pa.array(midx),
                "cents": pa.array(cents),
            }
        )

    cm = as_dataset(fold(
        orders.map_batches(partials, batch_format="pyarrow"),
        ["custkey", "midx"],
        [("cents", "sum", "cents")],
        combine=True,
    )).materialize()

    def cohort_partial(t: pa.Table) -> pa.Table:
        return pa.table({"custkey": t.column("custkey"), "cohort": t.column("midx")})

    fc = as_dataset(fold(
        cm.map_batches(cohort_partial, batch_format="pyarrow"),
        "custkey",
        [("cohort", "min", "cohort")],
    ))

    j = large_join(cm, fc, on=["custkey"])

    def census_partial(t: pa.Table) -> pa.Table:
        midx = t.column("midx").to_numpy(zero_copy_only=False).astype(np.int64)
        cohort = t.column("cohort").to_numpy(zero_copy_only=False).astype(np.int64)
        cents = t.column("cents").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "cohort": pa.array(cohort),
                "month_offset": pa.array(midx - cohort),
                "revenue_cents": pa.array(cents),
            }
        )

    agg = as_dataset(fold(
        j.map_batches(census_partial, batch_format="pyarrow"),
        ["cohort", "month_offset"],
        [("revenue_cents", "sum", "revenue_cents"), (None, "count", "n_active")],
        combine=True,
    ))

    def finish(t: pa.Table) -> pa.Table:
        cohort = t.column("cohort").to_numpy(zero_copy_only=False).astype(np.int64)
        labels = np.datetime_as_string(
            cohort.astype("datetime64[M]"), unit="M"
        )
        return pa.table(
            {
                "cohort_month": pa.array(labels, pa.string()),
                "month_offset": t.column("month_offset"),
                "revenue_cents": t.column("revenue_cents"),
                "n_active": t.column("n_active"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


ORDERS_COHORT_LTV_SQL = """
WITH o AS (
  SELECT o_custkey AS c,
         (year(o_orderdate) - 1970) * 12 + month(o_orderdate) - 1 AS midx,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
cm AS (SELECT c, midx, SUM(cents) AS cents FROM o GROUP BY c, midx),
fc AS (SELECT c, MIN(midx) AS cohort FROM cm GROUP BY c),
j AS (
  SELECT cm.c, fc.cohort, cm.midx - fc.cohort AS month_offset, cm.cents
  FROM cm JOIN fc ON cm.c = fc.c
)
SELECT strftime(make_date(CAST(1970 + cohort // 12 AS INT),
                          CAST(cohort % 12 + 1 AS INT), 1), '%Y-%m')
           AS cohort_month,
       CAST(month_offset AS BIGINT) AS month_offset,
       CAST(SUM(cents) AS BIGINT) AS revenue_cents,
       CAST(COUNT(*) AS BIGINT) AS n_active
FROM j GROUP BY cohort, month_offset
"""


def lineitem_price_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-returnflag p50/p90/p99 of l_extendedprice — the grouped
    histogram-refinement rank selection (stages/agg.py:
    grouped_exact_quantiles) exercised on the LARGEST table with a
    continuous ~n-distinct column, i.e. exactly the regime the
    distinct-value-vocabulary median plan cannot handle. 2-decimal TPC-H
    prices are float64-exact, so the selected elements hash-match the
    SQL rank selection bit-for-bit."""
    from kgw_ray.stages.agg import grouped_exact_quantiles

    ds = read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])
    out = grouped_exact_quantiles(
        ds, "l_returnflag", "l_extendedprice", [0.5, 0.9, 0.99]
    )
    return pa.table(
        {
            "l_returnflag": out.column("l_returnflag"),
            "p50": out.column("q0.5"),
            "p90": out.column("q0.9"),
            "p99": out.column("q0.99"),
        }
    )


LINEITEM_PRICE_QUANTILES_SQL = """
WITH r AS (
  SELECT l_returnflag, l_extendedprice AS v,
         ROW_NUMBER() OVER (PARTITION BY l_returnflag
                            ORDER BY l_extendedprice) AS rn,
         COUNT(*) OVER (PARTITION BY l_returnflag) AS n
  FROM lineitem WHERE l_extendedprice IS NOT NULL
)
SELECT l_returnflag,
       MAX(CASE WHEN rn = CAST(ceil(0.50 * n) AS BIGINT) THEN v END) AS p50,
       MAX(CASE WHEN rn = CAST(ceil(0.90 * n) AS BIGINT) THEN v END) AS p90,
       MAX(CASE WHEN rn = CAST(ceil(0.99 * n) AS BIGINT) THEN v END) AS p99
FROM r GROUP BY l_returnflag
"""


def lineitem_benford_digits(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Benford first-significant-digit audit over l_extendedprice — the
    classic financial-data-quality screen (a fabricated or truncated price
    feed shows a flat digit histogram instead of log10(1+1/d)).

    Exactness: first digit is taken from ``abs(floor(price))`` rendered as
    a decimal string — pure IEEE floor + integer formatting, identical in
    numpy and DuckDB, so counts hash bit-for-bit (no log10 near-boundary
    float hazard). Physical plan: per-batch bincount combiner (≤10 rows
    per block cross the wire) → tiny digit-keyed groupby. Reference
    analog: kgw's statistics sinks (graph.py:get_statistics) — corpus
    audit as a first-class pipeline output."""

    ds = read_table(sf_dir, "lineitem", columns=["l_extendedprice"])

    def partials(batch: pa.Table) -> pa.Table:
        v = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        ints = np.abs(np.floor(v)).astype(np.int64)
        # leading decimal digit: format to string, truncate to 1 char —
        # vectorized (U21→U1 cast keeps only the first code unit)
        first = ints.astype("U21").astype("U1")
        digits = first.astype(np.int64)
        counts = np.bincount(digits, minlength=10)
        present = np.nonzero(counts)[0]
        return pa.table(
            {
                "digit": pa.array(present.astype(np.int64)),
                "n": pa.array(counts[present].astype(np.int64)),
            }
        )

    return fold(
        ds.map_batches(partials, batch_format="pyarrow"),
        "digit",
        [("n", "sum", "n")],
    )


def events_dow_hour_heatmap(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Traffic heatmap: event counts by (day-of-week, hour-of-day) — the
    ops-dashboard grid behind load shaping and anomaly baselines.

    Convention-proof exactness: dow/hour are derived with the SAME pure
    integer epoch arithmetic on both engines — dow = (epoch_days + 4) % 7
    (1970-01-01 was a Thursday; 0 = Sunday), hour = in-day microseconds
    // 3.6e9 — so no dayofweek()/strftime() locale or ISO-vs-US mismatch
    can split Ray from the oracle. Combiner: per-batch bincount over the
    ≤168-cell grid; one row per (block, cell) crosses the wire."""

    ds = read_table(sf_dir, "events", columns=["ts"])
    _US_DAY = 86_400_000_000
    _US_HOUR = 3_600_000_000

    def partials(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((us // _US_DAY) + 4) % 7
        hour = (us % _US_DAY) // _US_HOUR
        cell = dow * 24 + hour
        counts = np.bincount(cell, minlength=168)
        present = np.nonzero(counts)[0].astype(np.int64)
        return pa.table(
            {
                "dow": pa.array(present // 24),
                "hour": pa.array(present % 24),
                "n": pa.array(counts[present].astype(np.int64)),
            }
        )

    return fold(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["dow", "hour"],
        [("n", "sum", "n")],
    )


EVENTS_DOW_HOUR_SQL = """
SELECT CAST(((epoch_us(ts) // 86400000000) + 4) % 7 AS BIGINT) AS dow,
       CAST((epoch_us(ts) % 86400000000) // 3600000000 AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n
FROM events
GROUP BY 1, 2
"""


LINEITEM_BENFORD_SQL = """
SELECT CAST(substr(CAST(CAST(abs(floor(l_extendedprice)) AS BIGINT)
                        AS VARCHAR), 1, 1) AS BIGINT) AS digit,
       CAST(count(*) AS BIGINT) AS n
FROM lineitem
WHERE l_extendedprice IS NOT NULL
GROUP BY 1
"""


def events_session_stats(sf_dir: str, gap_minutes: int = 30) -> "pa.Table | rd.Dataset":
    """Session-length distribution across the whole event log: sessionize
    (same 30-minute-gap rule and sharded-coarse plan as
    events_sessionize), then census sessions by their event count —
    (events_per_session, n_sessions, n_users) — the engagement histogram
    product analytics publishes next to the per-user table.

    The per-shard kernel emits one row per SESSION LENGTH per user
    (vectorized segment arithmetic over the lexsorted shard: session ids
    via cumsum of gap starts, lengths via one bincount, then a per-user
    (len → count) unique fold), so the second exchange is bounded by the
    length histogram vocabulary, never the session count."""
    import numpy as np

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes).to_timedelta64()

    def per_shard(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        u = g["user_id"].to_numpy()
        if len(u) == 0:
            return pa.table(
                {
                    "events_per_session": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        ts = g["ts"].to_numpy()
        new_seg = np.ones(len(u), dtype=np.int64)
        same_user = np.zeros(len(u), dtype=bool)
        same_user[1:] = u[1:] == u[:-1]
        gap_start = np.zeros(len(u), dtype=bool)
        gap_start[1:] = (ts[1:] - ts[:-1]) > gap
        new_seg[1:] = (~same_user[1:] | gap_start[1:]).astype(np.int64)
        sess_id = np.cumsum(new_seg) - 1
        sess_len = np.bincount(sess_id)
        sess_user = u[new_seg.astype(bool)]
        # one row per distinct (user, session_length): count sessions,
        # mark the user once per length for the distinct-user fold
        df = pd.DataFrame({"u": sess_user, "len": sess_len})
        per = (
            df.groupby(["u", "len"], sort=False)
            .size()
            .reset_index(name="n_sessions")
        )
        return pa.table(
            {
                "events_per_session": pa.array(
                    per["len"].to_numpy().astype(np.int64)
                ),
                "n_sessions": pa.array(
                    per["n_sessions"].to_numpy().astype(np.int64)
                ),
                "n_users": pa.array(np.ones(len(per), dtype=np.int64)),
            }
        )

    per_user_len = (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )
    return fold(
        per_user_len,
        "events_per_session",
        [("n_sessions", "sum", "n_sessions"), ("n_users", "sum", "n_users")],
    )


EVENTS_SESSION_STATS_SQL = """
WITH d AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events
),
s AS (
  SELECT user_id,
         SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts
                             ROWS UNBOUNDED PRECEDING) AS sess_id
  FROM d
),
sl AS (SELECT user_id, sess_id, COUNT(*) AS len FROM s GROUP BY user_id, sess_id),
ul AS (
  SELECT user_id, len, COUNT(*) AS n_sessions
  FROM sl GROUP BY user_id, len
)
SELECT CAST(len AS BIGINT) AS events_per_session,
       CAST(SUM(n_sessions) AS BIGINT) AS n_sessions,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM ul GROUP BY len
"""


def events_hourly_modal_type(sf_dir: str) -> rd.Dataset:
    """Per-hour modal event type (ties → lexicographically smallest) with
    its count — the hourly traffic-mix readout; the TIME-bucketed sibling
    of events_user_modal_type, reusing its exact three-reduce plan
    (grouped Max picks the modal count, an equality semi-filter keeps the
    tied types, a grouped Min breaks the tie) over the (hour, type)
    vocabulary — every exchange is native-mergeable, no window sort."""

    from kgw_ray.stages.graph_metrics import _hybrid_attach

    ds = read_table(sf_dir, "events", columns=["ts", "event_type"])

    def pair_partial(t: pa.Table) -> pa.Table:
        hour = pc.divide(pc.cast(t.column("ts"), pa.int64()), 3_600_000_000)
        return pa.table({"hour": hour, "event_type": t.column("event_type")})

    counts = as_dataset(fold(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["hour", "event_type"],
        [(None, "count", "n")],
        combine=True,
    ))
    mx = as_dataset(fold(counts, "hour", [("n", "max", "mx")]))
    j = _hybrid_attach(counts, mx, on="hour", right_on="hour")

    modal = j.map_batches(
        lambda t: t.filter(pc.equal(t["n"], t["mx"])), batch_format="pyarrow"
    )
    winner = as_dataset(fold(
        modal.map_batches(
            lambda t: pa.table(
                {
                    "hour": t.column("hour"),
                    "modal_type": t.column("event_type"),
                }
            ),
            batch_format="pyarrow",
        ),
        "hour",
        [("modal_type", "min", "modal_type")],
    ))
    out = _hybrid_attach(winner, mx, on="hour", right_on="hour")
    return out.map_batches(
        lambda t: pa.table(
            {
                "hour": t.column("hour"),
                "modal_type": t.column("modal_type"),
                "n": pc.cast(t.column("mx"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


EVENTS_HOURLY_MODAL_SQL = """
WITH h AS (
  SELECT CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour, event_type
  FROM events WHERE ts IS NOT NULL
),
c AS (SELECT hour, event_type, COUNT(*) AS n FROM h GROUP BY hour, event_type),
m AS (SELECT hour, MAX(n) AS mx FROM c GROUP BY hour)
SELECT c.hour, MIN(c.event_type) AS modal_type, CAST(m.mx AS BIGINT) AS n
FROM c JOIN m ON c.hour = m.hour AND c.n = m.mx
GROUP BY c.hour, m.mx
"""


def events_user_journeys(sf_dir: str) -> rd.Dataset:
    """Per-user time-ordered JOURNEY STRING — (user_id, n_events, journey)
    with journey = the '>'-joined event-type sequence under the total
    order (ts, event_id) — the path signature session-analysis and
    behavioral-clustering recipes key on (the ORDER-SENSITIVE string_agg
    shape; the existing session-census signature is order-insensitive).

    Sharded-coarse window plan (the sessionize shape): ONE shuffle on
    ``user_id % 64``; per shard a vectorized lexsort by (user, ts,
    event_id) — the event_id tiebreak makes both engines see the same
    sequence on equal timestamps — then ONE pandas groupby-join per
    shard (C-level loop over users, not events). Journey length is
    bounded by events-per-user, never corpus size; a production corpus
    with unbounded per-user streams would cap the string (LIMIT inside
    the segment) before the concat."""

    ds = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "journey": pa.array([], pa.string()),
                }
            )
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        starts, lengths = _user_segments(u)
        # string_agg skips NULL types; a user with none gets a NULL journey
        typed = g[g["event_type"].notna()]
        agg = typed.groupby("user_id", sort=False)["event_type"].agg(">".join)
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "n_events": pa.array(lengths.astype(np.int64)),
                "journey": pa.array(
                    agg.reindex(u[starts]).to_numpy(), pa.string(), from_pandas=True
                ),
            }
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_JOURNEYS_SQL = """
SELECT user_id,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS journey
FROM events GROUP BY user_id
"""


def events_path_trigrams(sf_dir: str, k: int = 20) -> pa.Table:
    """SECOND-ORDER path mining: the top-k most common CONSECUTIVE
    event-type triples across every user's time-ordered stream —
    (t1, t2, t3, n) under the total order (n desc, t1, t2, t3). The
    trigram extends the first-order ``events_markov_transitions``
    sufficient statistic to the 3-step journeys funnel designers look
    for.

    Plan: the markov shape with a double shift — per shard (user_id %
    64) one lexsort by (user, ts, event_id), two boundary-masked numpy
    shifts build (t1, t2, t3) rows only where all three events share a
    user, one count fold (``combine=True``: ≤ |types|³ rows per block)
    merges them, and ``distributed_topk``
    avoids the global sort."""

    ds = read_table(
        sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"]
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            e0 = pa.array([], pa.string())
            return pa.table({"t1": e0, "t2": e0, "t3": e0})
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["event_type"].to_numpy()
        # LAG(event_type, 2) IS NOT NULL; NULL t2/t3 are groups
        ok = (u[2:] == u[1:-1]) & (u[1:-1] == u[:-2]) & pd.notna(t[:-2])
        return pa.table(
            {
                "t1": pa.array(t[:-2][ok], pa.string(), from_pandas=True),
                "t2": pa.array(t[1:-1][ok], pa.string(), from_pandas=True),
                "t3": pa.array(t[2:][ok], pa.string(), from_pandas=True),
            }
        )

    shards = (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )
    counts = as_dataset(fold(
        shards, ["t1", "t2", "t3"], [(None, "count", "n")], combine=True
    ))
    return distributed_topk(
        counts, ["n", "t1", "t2", "t3"], [True, False, False, False], k
    )


EVENTS_PATH_TRIGRAMS_SQL = """
WITH s AS (
  SELECT LAG(event_type, 2) OVER w AS t1,
         LAG(event_type, 1) OVER w AS t2,
         event_type AS t3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE t1 IS NOT NULL
GROUP BY t1, t2, t3
ORDER BY n DESC, t1, t2, t3
LIMIT 20
"""


def events_user_simpson(sf_dir: str) -> rd.Dataset:
    """Per-user behavioral CONCENTRATION census — (user_id, n_events,
    simpson_micro) where simpson_micro = 10⁶·Σcnt²//n² over the user's
    event-type histogram (the Simpson/Herfindahl index: 10⁶ = every
    event the same type, →0 = maximally diverse). Exact integers, so the
    hash gate holds where an entropy score would drift between engines'
    float logs.

    Plan: per-batch (user, type) count partials → one (user×type)-keyed
    Sum exchange → a vectorized cnt² projection → one user-keyed Sum →
    the closed-form division. int64-safe to ~3·10⁹ events per user
    (cnt²·10⁶ < 2⁶³)."""

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    per_type = as_dataset(fold(
        ds.select_columns(["user_id", "event_type"]),
        ["user_id", "event_type"],
        [(None, "count", "cnt")],
        combine=True,
    ))

    def square(t: pa.Table) -> pa.Table:
        c = pc.cast(t.column("cnt"), pa.int64())
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "n_events": c,
                "ss": pc.multiply(c, c),
            }
        )

    per_user = as_dataset(fold(
        per_type.map_batches(square, batch_format="pyarrow"),
        "user_id",
        [("n_events", "sum", "n_events"), ("ss", "sum", "ss")],
    ))

    def finalize(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n_events"), pa.int64())
        ss = pc.cast(t.column("ss"), pa.int64())
        micro = pc.divide(
            pc.multiply(ss, pa.scalar(1_000_000, pa.int64())),
            pc.multiply(n, n),
        )
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "n_events": n,
                "simpson_micro": micro,
            }
        )

    return per_user.map_batches(finalize, batch_format="pyarrow")


EVENTS_USER_SIMPSON_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM events GROUP BY user_id, event_type
)
SELECT user_id,
       CAST(SUM(cnt) AS BIGINT) AS n_events,
       CAST((SUM(cnt * cnt) * 1000000) // (SUM(cnt) * SUM(cnt)) AS BIGINT)
         AS simpson_micro
FROM c GROUP BY user_id
"""

_WEEK_US = 7 * 86_400_000_000


def events_weekly_retention(sf_dir: str) -> "pa.Table | rd.Dataset":
    """COHORT RETENTION matrix over the event stream — (cohort_week,
    week_offset, n_users): users grouped by first-seen epoch-week, and
    for each later week the count still active — the engagement triangle
    every growth dashboard draws (the events-side sibling of
    ``orders_cohort_ltv``). Weeks are integer epoch-weeks (epoch_us //
    604.8e9) so both engines bucket identically with no calendar/locale
    dependence.

    Plan: one (user, week)-keyed Sum dedups activity; a user-keyed Min
    derives first-seen weeks; the cohort attach is a size-hybrid join
    (broadcast under the limit, hash-partitioned beyond); after the
    distinct, each (user, offset) is unique so n_users is a plain Sum
    over a (weeks²)-bounded key space."""

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def to_week(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("ts")))
        us = pc.cast(t.column("ts"), pa.int64())
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "week": pc.divide(us, pa.scalar(_WEEK_US, pa.int64())),
            }
        )

    weekly = ds.map_batches(to_week, batch_format="pyarrow")
    user_week = as_dataset(fold(
        weekly, ["user_id", "week"], [(None, "count", "n")], combine=True
    )).materialize()
    first = as_dataset(fold(
        user_week, "user_id", [("week", "min", "cohort_week")]
    )).materialize()

    if first.count() <= _BROADCAST_SIDE_LIMIT:
        joined = broadcast_join(user_week, first, on=["user_id"])
    else:
        joined = large_join(user_week, first, on=("user_id",))

    def offsets(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_week": pc.cast(t.column("cohort_week"), pa.int64()),
                "week_offset": pc.subtract(
                    pc.cast(t.column("week"), pa.int64()),
                    pc.cast(t.column("cohort_week"), pa.int64()),
                ),
            }
        )

    return fold(
        joined.map_batches(offsets, batch_format="pyarrow"),
        ["cohort_week", "week_offset"],
        [(None, "count", "n_users")],
        combine=True,
    )


EVENTS_WEEKLY_RETENTION_SQL = """
WITH uw AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 604800000000 AS week
  FROM events WHERE ts IS NOT NULL
),
fw AS (SELECT user_id, MIN(week) AS cohort_week FROM uw GROUP BY user_id)
SELECT CAST(fw.cohort_week AS BIGINT) AS cohort_week,
       CAST(uw.week - fw.cohort_week AS BIGINT) AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM uw JOIN fw ON uw.user_id = fw.user_id
GROUP BY fw.cohort_week, week_offset
"""


def orders_basket_triples(sf_dir: str, min_support: int = 2) -> rd.Dataset:
    """FREQUENT 3-ITEMSET mining: every unordered brand TRIPLE carried
    together by ≥ min_support orders — (brand_a, brand_b, brand_c,
    n_orders), the next apriori lattice level above
    ``basket_brand_pairs``.

    Plan: the basket shape — the 25-value part→brand dim broadcasts
    once; ONE coarse shuffle on ``l_orderkey % 64`` co-locates each
    basket; per shard the deduped (order, brand) rows expand triples via
    two chained vectorized self-merges under b1<b2<b3 (bounded by
    |basket|³ per ORDER, never corpus³ — and the global key space by
    C(25,3)=2300); partials fold per shard before the tiny final Sum and
    support filter."""
    import ray as _ray

    part = read_table_pandas(sf_dir, "part", columns=["p_partkey", "p_brand"])
    brand_ref = _ray.put(
        pd.Series(part["p_brand"].to_numpy(), index=part["p_partkey"].to_numpy())
    )
    line = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def shard(t: pa.Table) -> pa.Table:
        k = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype("int64")
        return t.append_column("_shard", pa.array(k % 64))

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            e0 = pa.array([], pa.string())
            return pa.table({"brand_a": e0, "brand_b": e0, "brand_c": e0})
        ob = pd.DataFrame(
            {
                "o": g["l_orderkey"].to_numpy(),
                "b": g["l_partkey"].map(_ray.get(brand_ref)).to_numpy(),
            }
        ).drop_duplicates()
        m2 = ob.merge(ob, on="o")
        m2 = m2[m2["b_x"] < m2["b_y"]]
        m3 = m2.merge(ob, on="o")
        m3 = m3[m3["b_y"] < m3["b"]]
        return pa.table(
            {
                "brand_a": pa.array(m3["b_x"].to_numpy(), pa.string()),
                "brand_b": pa.array(m3["b_y"].to_numpy(), pa.string()),
                "brand_c": pa.array(m3["b"].to_numpy(), pa.string()),
            }
        )

    shards = (
        line.map_batches(shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )
    counts = as_dataset(fold(
        shards,
        ["brand_a", "brand_b", "brand_c"],
        [(None, "count", "n_orders")],
        combine=True,
    ))
    return counts.filter(
        expr=f"n_orders >= {int(min_support)}"
    )


ORDERS_BASKET_TRIPLES_SQL = """
WITH ob AS (
  SELECT DISTINCT l_orderkey, p_brand
  FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT a.p_brand AS brand_a, b.p_brand AS brand_b, c.p_brand AS brand_c,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM ob a
JOIN ob b ON a.l_orderkey = b.l_orderkey AND a.p_brand < b.p_brand
JOIN ob c ON b.l_orderkey = c.l_orderkey AND b.p_brand < c.p_brand
GROUP BY a.p_brand, b.p_brand, c.p_brand
HAVING COUNT(*) >= 2
"""

_DAY_US = 86_400_000_000


def events_dau_wau_stickiness(sf_dir: str) -> rd.Dataset:
    """STICKINESS time-series — (day, dau, wau, stickiness_permille):
    per epoch-day, the distinct users active that day (DAU), the distinct
    users active in the trailing 7-day window (WAU), and the DAU/WAU
    ratio in integer permille — the engagement metric growth teams track
    daily.

    Exact windowed COUNT DISTINCT without a window engine: the distinct
    (user, day) activity table EXPLODES each row to the ≤7 future days
    whose trailing window it falls in (a fixed ×7 fan-out, never
    corpus²), a second (user, target-day) distinct collapses multi-day
    users, and a day-keyed Sum yields WAU; DAU is a plain distinct
    count. Gap days appear via the WAU spine with dau = 0 (a user's
    activity keeps windows alive for 6 more days)."""
    from kgw_ray.stages.joins import broadcast_join

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def to_day(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column("ts")))
        us = pc.cast(t.column("ts"), pa.int64())
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "day": pc.divide(us, pa.scalar(_DAY_US, pa.int64())),
            }
        )

    act = as_dataset(fold(
        ds.map_batches(to_day, batch_format="pyarrow"),
        ["user_id", "day"],
        [(None, "count", "n")],
        combine=True,
    )).materialize()

    # corpus day bounds: a 2-value aggregate, driver-scalar by design
    bounds = act.aggregate(Min("day"), Max("day"))
    if bounds is None or bounds.get("max(day)") is None:  # empty corpus
        return rd.from_arrow(
            pa.table(
                {
                    "day": pa.array([], pa.int64()),
                    "dau": pa.array([], pa.int64()),
                    "wau": pa.array([], pa.int64()),
                    "stickiness_permille": pa.array([], pa.int64()),
                }
            )
        )
    mx = int(bounds["max(day)"])

    def explode(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        d = t.column("day").to_numpy(zero_copy_only=False).astype(np.int64)
        uu = np.repeat(u, 7)
        tgt = np.repeat(d, 7) + np.tile(np.arange(7, dtype=np.int64), len(d))
        keep = tgt <= mx
        return pa.table(
            {
                "user_id": pa.array(uu[keep]),
                "day": pa.array(tgt[keep]),
            }
        )

    windowed = as_dataset(fold(
        act.map_batches(explode, batch_format="pyarrow"),
        ["user_id", "day"],
        [(None, "count", "n")],
        combine=True,
    ))

    wau = as_dataset(fold(
        windowed.select_columns(["day"]), "day", [(None, "count", "wau")], combine=True
    )).materialize()
    dau = as_dataset(fold(
        act.select_columns(["day"]), "day", [(None, "count", "dau")], combine=True
    )).materialize()

    # the day spine is calendar-bounded (≤ 36.5k rows/century) — broadcast
    joined = broadcast_join(wau, dau, on=["day"], how="left")

    def finalize(t: pa.Table) -> pa.Table:
        d = pc.cast(pc.fill_null(t.column("dau"), 0), pa.int64())
        w = pc.cast(t.column("wau"), pa.int64())
        return pa.table(
            {
                "day": pc.cast(t.column("day"), pa.int64()),
                "dau": d,
                "wau": w,
                "stickiness_permille": pc.divide(
                    pc.multiply(d, pa.scalar(1000, pa.int64())), w
                ),
            }
        )

    return joined.map_batches(finalize, batch_format="pyarrow")


EVENTS_STICKINESS_SQL = """
WITH act AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
  FROM events WHERE ts IS NOT NULL
),
b AS (SELECT MAX(day) AS mx FROM act),
exp AS (
  SELECT DISTINCT user_id, act.day + i AS day
  FROM act, UNNEST(generate_series(0, 6)) AS t(i), b
  WHERE act.day + i <= b.mx
),
wau AS (SELECT day, COUNT(*) AS wau FROM exp GROUP BY day),
dau AS (SELECT day, COUNT(*) AS dau FROM act GROUP BY day)
SELECT CAST(wau.day AS BIGINT) AS day,
       CAST(COALESCE(dau.dau, 0) AS BIGINT) AS dau,
       CAST(wau.wau AS BIGINT) AS wau,
       CAST((COALESCE(dau.dau, 0) * 1000) // wau.wau AS BIGINT)
         AS stickiness_permille
FROM wau LEFT JOIN dau ON wau.day = dau.day
"""




# ---------------------------------------------------------------------------
# HyperLogLog registers (the mergeable COUNT DISTINCT sketch, Flajolet 2007)
# ---------------------------------------------------------------------------

_HLL_P = 10  # 2^10 = 1024 registers; std err ≈ 1.04/√1024 ≈ 3.3%
_HLL_WBITS = 64 - _HLL_P
_HLL_WMASK = np.uint64((1 << _HLL_WBITS) - 1)


def events_hll_registers(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Per-event-type HyperLogLog register table over user_id — the third
    mergeable-sketch primitive next to CMS (events_cms_estimates) and KMV
    (events_user_distinct_sketch): register = top-10 bits of
    splitmix64(user_id), rho = leading-zero rank of the remaining 54 bits,
    state = MAX(rho) per (event_type, register). The register TABLE is the
    output — it is the exact fixed-size state a 256-node cluster ships to
    merge windowed distincts, and every cell is an integer both engines
    derive bit-identically (functions/porthash.mix64 / bitlen_u64 ↔
    ``mix64_sql`` / ``length(bin(w))``). Only touched registers surface
    (vocabulary ≤ |types| × 1024). Estimation accuracy is pinned in
    tests/test_hll.py (within 10%% of exact per type at sf0.01)."""

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def _partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["user_id"]))
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "reg": pa.array([], pa.int64()),
                    "rho": pa.array([], pa.int64()),
                }
            )
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        h = _mix64(uid)
        reg = (h >> np.uint64(_HLL_WBITS)).astype(np.int64)
        w = h & _HLL_WMASK
        rho = np.where(w == 0, _HLL_WBITS + 1, _HLL_WBITS - _bitlen_u64(w) + 1)
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "reg": pa.array(reg),
                "rho": pa.array(rho.astype(np.int64)),
            }
        )

    return fold(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["event_type", "reg"],
        [("rho", "max", "max_rho")],
        combine=True,
    )


def _hll_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    h = mix64_sql("CAST(user_id AS UBIGINT)")
    wm = f"CAST({(1 << _HLL_WBITS) - 1} AS UBIGINT)"
    return f"""
WITH h AS (
  SELECT event_type, {h} AS h FROM events WHERE user_id IS NOT NULL
),
r AS (
  SELECT event_type,
         CAST(h >> {_HLL_WBITS} AS BIGINT) AS reg,
         CASE WHEN (h & {wm}) = CAST(0 AS UBIGINT) THEN {_HLL_WBITS + 1}
              ELSE {_HLL_WBITS} - length(bin(h & {wm})) + 1 END AS rho
  FROM h
)
SELECT event_type, reg, CAST(MAX(rho) AS BIGINT) AS max_rho
FROM r GROUP BY event_type, reg
"""


EVENTS_HLL_SQL = _hll_sql()


def hll_estimate(registers: pd.DataFrame, p: int = _HLL_P) -> float:
    """Driver-side HLL cardinality estimate from ONE group's register rows
    (reg, max_rho) — the standard raw estimator with linear counting for
    the small range (Flajolet et al. 2007). Float is fine HERE: estimation
    is post-gate analytics, the gated artifact is the integer register
    table."""
    import math

    m = 1 << p
    regs = np.zeros(m)
    regs[registers["reg"].to_numpy()] = registers["max_rho"].to_numpy()
    alpha = 0.7213 / (1 + 1.079 / m)
    raw = alpha * m * m / np.sum(np.exp2(-regs))
    zeros = int(np.sum(regs == 0))
    if raw <= 2.5 * m and zeros:
        return m * math.log(m / zeros)
    return float(raw)


# ---------------------------------------------------------------------------
# Recency feature engineering: decayed engagement + L28 activity bitmaps
# ---------------------------------------------------------------------------

_US_PER_DAY = 86_400_000_000


def _events_ref_day(ds: rd.Dataset) -> int:
    """Max epoch-day in the corpus — the deterministic 'now' anchor both
    engines derive from the data (no wall clock). Empty corpus → 0 (the
    downstream maps then see zero rows anyway)."""
    mx = ds.max("ts")
    if mx is None:
        return 0
    ts_us = pa.scalar(mx, pa.timestamp("us")).cast(pa.int64()).as_py()
    return ts_us // _US_PER_DAY


def users_decayed_engagement(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Per-user exponentially time-decayed engagement value with a 1-week
    half-life, EXACT: each event contributes ``cents >> age_weeks``
    (integer floor per event, order-independent, identical to the oracle's
    ``cents // (1 << LEAST(age_weeks, 62))``), anchored at the corpus max
    event day. The classic recency-weighted scoring feature computed
    without a single float. Plan: one tiny max(ts) pass for the anchor,
    then per-batch per-user partial sums → one user-vocabulary Sum."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    ref_day = _events_ref_day(ds)

    def _partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "dc": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        cents = np.rint(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        day = (
            t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // _US_PER_DAY
        )
        wk = np.minimum((ref_day - day) // 7, 62)
        dec = cents // (np.int64(1) << wk)
        return pa.table({"user_id": t.column("user_id"), "dc": pa.array(dec)})

    return fold(
        ds.map_batches(_partial, batch_format="pyarrow"),
        "user_id",
        [("dc", "sum", "decayed_cents"), (None, "count", "n_events")],
        combine=True,
    )


USERS_DECAYED_SQL = """
WITH ref AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(max(ts) AS DATE))
         AS BIGINT) AS rd
  FROM events
),
e AS (
  SELECT user_id, CAST(ROUND(value * 100) AS BIGINT) AS cents,
         CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d
  FROM events
)
SELECT user_id,
       CAST(SUM(cents // (CAST(1 AS BIGINT)
                << LEAST((ref.rd - d) // 7, 62))) AS BIGINT) AS decayed_cents,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM e, ref GROUP BY user_id
"""


def users_activity_bitmap(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Per-user L28 daily-activity bitmap: bit k set iff the user was
    active k days before the corpus max day (k < 28) — the fixed-width
    engagement feature a training pipeline joins onto every example, plus
    its popcount. Exact integers; the bitmap is ``Σ 2^k`` over DISTINCT
    active offsets, so the plan is two bounded exchanges: a grouped
    distinct over (user, k) — users × 28 rows — then a user-keyed Sum.
    n_active_days = the distinct-day count (no popcount kernel needed)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    ref_day = _events_ref_day(ds)

    def _pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "k": pa.array([], pa.int64()),
                }
            )
        day = (
            t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // _US_PER_DAY
        )
        k = ref_day - day
        keep = pa.array(k < 28)
        return pa.table(
            {"user_id": t.column("user_id").filter(keep), "k": pa.array(k).filter(keep)}
        )

    distinct = as_dataset(fold(
        ds.map_batches(_pairs, batch_format="pyarrow"),
        ["user_id", "k"],
        [(None, "count", "n")],
        combine=True,
    ))

    def _bits(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "bit": pa.array(np.int64(1) << k),
            }
        )

    return fold(
        distinct.map_batches(_bits, batch_format="pyarrow"),
        "user_id",
        [("bit", "sum", "l28_bitmap"), (None, "count", "n_active_days")],
        combine=True,
    )


USERS_BITMAP_SQL = """
WITH ref AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(max(ts) AS DATE))
         AS BIGINT) AS rd
  FROM events
),
d AS (
  SELECT DISTINCT user_id,
         ref.rd - CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
                       AS BIGINT) AS k
  FROM events, ref
  WHERE ref.rd - CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
                      AS BIGINT) < 28
)
SELECT user_id,
       CAST(SUM(CAST(1 AS BIGINT) << k) AS BIGINT) AS l28_bitmap,
       CAST(COUNT(*) AS BIGINT) AS n_active_days
FROM d GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Interval-union coverage: exact per-user active time
# ---------------------------------------------------------------------------

_ACTIVE_WINDOW_US = 300_000_000  # each event opens a 5-minute activity window


def events_user_active_time(sf_dir: str) -> rd.Dataset:
    """EXACT per-user union-of-intervals coverage: every event opens the
    interval [ts, ts + 5 min); overlapping intervals merge, and the output
    is (user_id, active_us, n_intervals, n_islands) — total covered
    microseconds, raw interval count, and merged-run count. The classic
    gaps-and-islands interval-union op (billing/engagement coverage) that
    plain GROUP BY cannot express.

    Sharded-coarse plan (the house per-user window machinery): ONE
    shuffle on ``user_id % 64``, then per shard a pandas sort +
    ``groupby.cummax`` (C-level over users) finds island breaks — an
    interval starts a new island iff its start exceeds the running max
    end of everything before it — and one (user, island) groupby folds
    max(end) − min(start). Integer µs end to end; the oracle re-derives
    the same islands with a MAX window frame."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    _empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "active_us": pa.array([], pa.int64()),
            "n_intervals": pa.array([], pa.int64()),
            "n_islands": pa.array([], pa.int64()),
        }
    )

    def per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _empty
        s = g["ts"].astype("int64").to_numpy()
        df = pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(), "s": s, "e": s + _ACTIVE_WINDOW_US}
        ).sort_values(["user_id", "s", "e"], kind="mergesort")
        prev_max_e = (
            df.groupby("user_id", sort=False)["e"].cummax().shift(1)
        )
        first = ~df["user_id"].duplicated()
        brk = (df["s"] > prev_max_e) | first
        df["isl"] = brk.cumsum()  # global island ids (unique across users)
        isl = (
            df.groupby(["user_id", "isl"], sort=False)
            .agg(smin=("s", "min"), emax=("e", "max"), n=("s", "size"))
            .reset_index()
        )
        out = (
            isl.assign(length=isl["emax"] - isl["smin"])
            .groupby("user_id", sort=False)
            .agg(
                active_us=("length", "sum"),
                n_intervals=("n", "sum"),
                n_islands=("length", "size"),
            )
            .reset_index()
        )
        return arrow_from_pandas(
            out.astype(
                {
                    "user_id": "int64",
                    "active_us": "int64",
                    "n_intervals": "int64",
                    "n_islands": "int64",
                }
            )
        )

    return (
        ds.map_batches(_shard_by_user, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_shard, batch_format="pandas")
    )


EVENTS_ACTIVE_TIME_SQL = f"""
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + {_ACTIVE_WINDOW_US} AS e
  FROM events
),
w AS (
  SELECT user_id, s, e,
         CASE WHEN s > COALESCE(MAX(e) OVER (
                PARTITION BY user_id ORDER BY s, e
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), -1)
              THEN 1 ELSE 0 END AS brk
  FROM iv
),
g AS (
  SELECT user_id, s, e,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY s, e
                        ROWS UNBOUNDED PRECEDING) AS isl
  FROM w
),
isl AS (
  SELECT user_id, isl, MAX(e) - MIN(s) AS len, COUNT(*) AS n
  FROM g GROUP BY user_id, isl
)
SELECT user_id,
       CAST(SUM(len) AS BIGINT) AS active_us,
       CAST(SUM(n) AS BIGINT) AS n_intervals,
       CAST(COUNT(*) AS BIGINT) AS n_islands
FROM isl GROUP BY user_id
"""


def events_hourly_dispersion(sf_dir: str) -> pa.Table:
    """Per-event-type burstiness: the index of dispersion of HOURLY event
    counts, D = sample-variance/mean, in exact integer milli-units —
    ``d_milli = 1000·(N·Σc² − S²) // ((N−1)·S)`` over the N observed
    hours (Poisson arrivals ⇒ D ≈ 1; bursty ⇒ D ≫ 1). One (type, hour)
    grouped count (vocabulary-bounded), then a per-type Python-int fold
    over ≤ |types|·|hours| rows — nothing corpus-scale on the driver.
    Types with a single observed hour are excluded (variance undefined)."""

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])

    def _partial(t: pa.Table) -> pa.Table:
        hour = (
            t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 3_600_000_000
        )
        return pa.table({"event_type": t.column("event_type"), "hour": pa.array(hour)})

    counts = fold(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["event_type", "hour"],
        [(None, "count", "c")],
        combine=True,
    ).to_pandas()  # |types| × |hours| rows
    rows = []
    for et, g in counts.groupby("event_type", dropna=False):
        c = [int(x) for x in g["c"]]
        n = len(c)
        if n < 2:
            continue
        s, s2 = sum(c), sum(x * x for x in c)
        rows.append((None if pd.isna(et) else et, n, 1000 * (n * s2 - s * s) // ((n - 1) * s)))
    rows.sort(key=lambda r: (r[0] is None, r[0] or ""))
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_hours": pa.array([r[1] for r in rows], pa.int64()),
            "d_milli": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


EVENTS_DISPERSION_SQL = """
WITH hc AS (
  SELECT event_type, epoch_us(ts) // 3600000000 AS hour,
         COUNT(*) AS c
  FROM events GROUP BY event_type, hour
),
agg AS (
  SELECT event_type, COUNT(*) AS n,
         SUM(c) AS s, SUM(CAST(c AS HUGEINT) * c) AS s2
  FROM hc GROUP BY event_type
)
SELECT event_type, CAST(n AS BIGINT) AS n_hours,
       CAST(1000 * (n * s2 - CAST(s AS HUGEINT) * s)
            // ((n - 1) * CAST(s AS HUGEINT)) AS BIGINT) AS d_milli
FROM agg WHERE n >= 2
"""


def events_daily_hll_trailing(sf_dir: str) -> "pa.Table | rd.Dataset":
    """Trailing-7-day sliding-window HLL registers over user_id — HOW a
    100 TB pipeline serves sliding COUNT DISTINCT when the exact ×7
    explode (events_dau_wau_stickiness) stops being affordable: per-day
    registers fold once (day-vocabulary-sized), then each day's register
    table max-merges into its next 7 target days (a ×7 explode over
    REGISTERS — days × 1024 rows — never over events). Output
    (day, reg, max_rho): the exact integer sketch state per target day,
    from which the estimate is one driver-side fold
    (relational.hll_estimate). Mergeability is the load-bearing property
    and is exactly what the hash gate pins."""

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def _partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["user_id"]))
        if t.num_rows == 0:
            return pa.table(
                {
                    "d": pa.array([], pa.int64()),
                    "reg": pa.array([], pa.int64()),
                    "rho": pa.array([], pa.int64()),
                }
            )
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        day = (
            t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // _US_PER_DAY
        )
        h = _mix64(uid)
        reg = (h >> np.uint64(_HLL_WBITS)).astype(np.int64)
        w = h & _HLL_WMASK
        rho = np.where(w == 0, _HLL_WBITS + 1, _HLL_WBITS - _bitlen_u64(w) + 1)
        return pa.table(
            {"d": pa.array(day), "reg": pa.array(reg), "rho": pa.array(rho.astype(np.int64))}
        )

    daily = as_dataset(fold(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["d", "reg"],
        [("rho", "max", "rho")],
        combine=True,
    ))

    def _explode(t: pa.Table) -> pa.Table:
        d = t.column("d").to_numpy(zero_copy_only=False)
        reg = t.column("reg").to_numpy(zero_copy_only=False)
        rho = t.column("rho").to_numpy(zero_copy_only=False)
        off = np.arange(7, dtype=np.int64)
        return pa.table(
            {
                "day": pa.array((d[:, None] + off[None, :]).ravel()),
                "reg": pa.array(np.repeat(reg, 7)),
                "rho": pa.array(np.repeat(rho, 7)),
            }
        )

    return fold(
        daily.map_batches(_explode, batch_format="pyarrow"),
        ["day", "reg"],
        [("rho", "max", "max_rho")],
    )


def _hll_trailing_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    h = mix64_sql("CAST(user_id AS UBIGINT)")
    wm = f"CAST({(1 << _HLL_WBITS) - 1} AS UBIGINT)"
    return f"""
WITH h AS (
  SELECT CAST(date_diff('day', DATE '1970-01-01', CAST(ts AS DATE))
              AS BIGINT) AS d,
         {h} AS h
  FROM events WHERE user_id IS NOT NULL
),
r AS (
  SELECT d,
         CAST(h >> {_HLL_WBITS} AS BIGINT) AS reg,
         CASE WHEN (h & {wm}) = CAST(0 AS UBIGINT) THEN {_HLL_WBITS + 1}
              ELSE {_HLL_WBITS} - length(bin(h & {wm})) + 1 END AS rho
  FROM h
),
daily AS (SELECT d, reg, MAX(rho) AS rho FROM r GROUP BY d, reg),
t AS (
  SELECT daily.d + o.off AS day, reg, rho
  FROM daily, UNNEST(generate_series(0, 6)) AS o(off)
)
SELECT day, reg, CAST(MAX(rho) AS BIGINT) AS max_rho
FROM t GROUP BY day, reg
"""


EVENTS_HLL_TRAILING_SQL = _hll_trailing_sql()


def events_top3_users_per_type(sf_dir: str) -> rd.Dataset:
    """Per-group leaderboard: the top-3 users by total value (exact
    cents) within each event type, rank included — the grouped top-k
    shape (trending-per-category, leaderboards) distinct from global
    top-k (distributed_topk) and full per-user windows. Plan: one
    (type, user) Sum — the only corpus-scale exchange — then per-type
    top-3 inside a |types|-group map_groups under the (cents desc,
    user_id) total order."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id", "value"])

    def _partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "user_id": t.column("user_id"),
                "c": _cents(t.column("value")),
            }
        )

    sums = as_dataset(fold(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["event_type", "user_id"],
        [("c", "sum", "total_cents")],
        combine=True,
    ))

    def _top3(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(
            ["total_cents", "user_id"], ascending=[False, True]
        ).head(3)
        df = df.assign(rank=np.arange(1, len(df) + 1, dtype=np.int64))
        return arrow_from_pandas(
            df[["event_type", "user_id", "total_cents", "rank"]].astype(
                {"user_id": "int64", "total_cents": "int64", "rank": "int64"}
            )
        )

    return sums.groupby("event_type").map_groups(_top3, batch_format="pandas")


EVENTS_TOP3_SQL = """
WITH s AS (
  SELECT event_type, user_id,
         SUM(CAST(ROUND(value * 100) AS BIGINT)) AS total_cents
  FROM events GROUP BY event_type, user_id
),
r AS (
  SELECT event_type, user_id, total_cents,
         ROW_NUMBER() OVER (PARTITION BY event_type
                            ORDER BY total_cents DESC, user_id) AS rank
  FROM s
)
SELECT event_type, user_id, CAST(total_cents AS BIGINT) AS total_cents,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 3
"""


_MARKOV_PI_ROUNDS = 3


def events_markov_stationary(sf_dir: str) -> pa.Table:
    """Stationary-distribution estimate of the event-type Markov chain:
    3 exact integer power-iteration rounds of ``π' _j = Σ_i π_i·C_ij //
    R_i`` (floor per term, micro units, uniform start 1e6 // k) over the
    gated transition counts — the behavioral equilibrium profile a
    session simulator seeds from. All state is |types|²-bounded: the
    count matrix pulls once (vocabulary rule) and the iteration is
    Python-int exact; the oracle unrolls the identical floor arithmetic
    into CTE rounds."""
    counts = events_markov_transitions(sf_dir).to_pandas()  # ≤ |types|² rows
    seen = set(counts["from_type"]) | set(counts["to_type"])
    # a NULL target type is a state no transition ever enters (SQL's
    # join on to_type never matches NULL), so its mass stays 0
    types = sorted(t for t in seen if t is not None) + [None] * (None in seen)
    k = len(types)
    if k == 0:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "pi_micro": pa.array([], pa.int64()),
            }
        )
    c = {
        (r["from_type"], r["to_type"]): int(r["n"])
        for _, r in counts.iterrows()
    }
    row = {}
    for (a, _b), n in c.items():
        row[a] = row.get(a, 0) + n
    pi = {t: 1_000_000 // k for t in types}
    for _ in range(_MARKOV_PI_ROUNDS):
        nxt = {t: 0 for t in types}
        for (a, b), n in c.items():
            if b is not None:
                nxt[b] += pi[a] * n // row[a]
        pi = nxt
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "pi_micro": pa.array([pi[t] for t in types], pa.int64()),
        }
    )


def _markov_stationary_sql() -> str:
    body = EVENTS_MARKOV_SQL.strip().rstrip(";")
    parts = [
        f"""WITH c AS ({body}),
r AS (SELECT from_type, SUM(n) AS rn FROM c GROUP BY from_type),
ty AS (SELECT from_type AS t FROM c UNION SELECT to_type FROM c),
k AS (SELECT COUNT(*) AS k FROM ty),
p0 AS (SELECT ty.t, 1000000 // k.k AS pi FROM ty, k)"""
    ]
    for i in range(1, _MARKOV_PI_ROUNDS + 1):
        parts.append(
            f""",
p{i} AS (
  SELECT ty.t,
         CAST(COALESCE(SUM(p.pi * c.n // r.rn), 0) AS BIGINT) AS pi
  FROM ty
  LEFT JOIN c ON c.to_type = ty.t
  LEFT JOIN p{i - 1} p ON p.t = c.from_type
  LEFT JOIN r ON r.from_type = c.from_type
  GROUP BY ty.t)"""
        )
    parts.append(
        f"\nSELECT t AS event_type, pi AS pi_micro FROM p{_MARKOV_PI_ROUNDS}"
    )
    return "".join(parts)


EVENTS_MARKOV_PI_SQL = _markov_stationary_sql()


def events_selfjoin_size_estimate(sf_dir: str) -> pa.Table:
    """JOIN-SIZE ESTIMATION — the query-planning primitive: the exact
    self-join cardinality |events ⋈ events on user_id| = Σ_u c_u² next to
    its COUNT-MIN inner-product estimate min_r Σ_b grid[r][b]² (AMS/CMS
    F₂ estimation, Alon-Matias-Szegedy / Cormode-Muthukrishnan) — the
    fixed-memory statistic a planner uses to choose broadcast vs shuffle
    before running the join. Estimate ≥ exact always (collisions only
    inflate); over_permille quantifies the gap. Exact integers end to end
    (HUGEINT oracle, decimal-string output for > 2^63); the sketch is the
    SAME portable-splitmix grid the gated events_cms_estimates builds.

    Plan: one user-vocabulary count fold, a per-batch Σc² partial (int64
    partials, bound asserted), and the (depth × width)-bounded sketch
    Sum; everything after the count fold is sketch-sized."""

    ds = read_table(sf_dir, "events", columns=["user_id"])

    counts = as_dataset(fold(
        ds.select_columns(["user_id"]), "user_id", [(None, "count", "n")], combine=True
    )).materialize()
    if counts.count() == 0:
        return pa.table(
            {
                "exact_selfjoin": pa.array([], pa.string()),
                "cms_estimate": pa.array([], pa.string()),
                "over_permille": pa.array([], pa.int64()),
            }
        )

    def sq_partial(t: pa.Table) -> pa.Table:
        c = t.column("n").to_numpy(zero_copy_only=False)
        s = int((c.astype(object) ** 2).sum())
        assert s < 2**62, "selfjoin partial overflows int64 — shard finer"
        return pa.table({"s": pa.array([s], pa.int64())})

    exact = int(
        counts.map_batches(sq_partial, batch_format="pyarrow")
        .to_pandas()["s"]
        .sum()
    )

    def grid_partial(t: pa.Table) -> pa.Table:
        uids = t.column("user_id").to_numpy(zero_copy_only=False)
        n = t.column("n").to_numpy(zero_copy_only=False)
        b = _cms_buckets(uids)
        depth = b.shape[1]
        return pa.table(
            {
                "row": pa.array(np.tile(np.arange(depth, dtype=np.int64), len(n))),
                "bucket": pa.array(b.astype(np.int64).ravel()),
                "cnt": pa.array(np.repeat(np.asarray(n, np.int64), depth)),
            }
        )

    sk = (
        fold(
            counts.map_batches(grid_partial, batch_format="pyarrow"),
            ["row", "bucket"],
            [("cnt", "sum", "cnt")],
            combine=True,
        ).to_pandas()  # ≤ depth × width rows
    )
    est = min(
        int(sum(int(x) ** 2 for x in g["cnt"]))
        for _, g in sk.groupby("row")
    )
    return pa.table(
        {
            "exact_selfjoin": pa.array([str(exact)], pa.string()),
            "cms_estimate": pa.array([str(est)], pa.string()),
            "over_permille": pa.array([1000 * est // exact], pa.int64()),
        }
    )


def _selfjoin_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    js = ", ".join(str(j) for j in range(_CMS_DEPTH))
    base = mix64_sql("CAST(user_id AS UBIGINT)")
    hu = mix64_sql(f"xor(({base}), CAST(j AS UBIGINT))")
    return f"""
WITH counts AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n FROM events GROUP BY user_id
),
hb AS (
  SELECT user_id, j, CAST(({hu}) % {_CMS_WIDTH} AS BIGINT) AS bucket
  FROM counts, UNNEST([{js}]) AS t(j)
),
sk AS (
  SELECT hb.j, hb.bucket, SUM(c.n) AS cnt
  FROM hb JOIN counts c USING (user_id) GROUP BY hb.j, hb.bucket
),
ex AS (SELECT SUM(CAST(n AS HUGEINT) * n) AS v FROM counts),
rs AS (SELECT j, SUM(CAST(cnt AS HUGEINT) * cnt) AS s FROM sk GROUP BY j),
est AS (SELECT MIN(s) AS v FROM rs)
SELECT CAST(ex.v AS VARCHAR) AS exact_selfjoin,
       CAST(est.v AS VARCHAR) AS cms_estimate,
       CAST(1000 * est.v // ex.v AS BIGINT) AS over_permille
FROM ex, est
"""


EVENTS_SELFJOIN_SQL = _selfjoin_sql()
