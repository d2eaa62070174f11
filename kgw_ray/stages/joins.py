"""Join strategies (SURVEY.md §2.3/§2.4).

Two physical strategies, chosen by side size — the scale rule the engine
follows everywhere:

- ``broadcast_join``: the small side (dimension table, annotation map, KB) is
  ``ray.put`` ONCE and probed per batch inside an actor pool — the reference's
  side-dict lookup joins (kgw/biomedicine/_oregano.py:157-201,
  _primekg.py:155-172) without re-shipping per batch. No shuffle.
- ``large_join``: both sides large → Ray Data's hash-partitioned
  ``Dataset.join`` (explicit ``num_partitions``); every block moves once.

Semi/anti joins broadcast the key set and filter vectorized.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from kgw_ray.stages.agg import pull
from kgw_ray.stages.dedup import _mix64


def broadcast_join(
    big: rd.Dataset,
    small: pd.DataFrame,
    *,
    on: Sequence[str],
    right_on: Optional[Sequence[str]] = None,
    how: str = "inner",
    concurrency: int = 8,
) -> rd.Dataset:
    """Map-side hash join: ``small`` is broadcast via the object store once,
    merged into every batch with a vectorized pandas merge.

    ``small`` may be a pandas DataFrame, an Arrow table (a fold's driver
    result) or a Dataset. A Dataset side is pulled by block reference
    (stages/agg.py:pull), so an empty side keeps its Arrow schema; a
    schema-less one (e.g. a map that never ran) becomes an empty frame
    holding the ``right_on`` keys, and the probe gives those the probe
    side's dtypes — the merge keys always exist."""
    right_on = list(right_on or on)
    on = list(on)
    if isinstance(small, rd.Dataset):
        small = pull(small)
    if isinstance(small, pa.Table):
        small = small.to_pandas()
    if not set(right_on).issubset(small.columns):  # schema-less empty
        small = pd.DataFrame({c: [] for c in right_on})
    ref = ray.put(small)

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    def probe(batch: pd.DataFrame) -> pa.Table:
        # task map, not an actor pool: the broadcast side lives in the
        # object store once; ray.get per task is a zero-copy plasma read
        # (pandas reconstruction is cheap relative to the merge), and task
        # maps scale elastically with zero pool-startup/rampup cost
        side = ray.get(ref)
        if len(side) == 0:
            side = side.astype({r: batch[o].dtype for o, r in zip(on, right_on)})
        out = batch.merge(side, how=how, left_on=on, right_on=right_on, copy=False)
        drop = [c for c in right_on if c not in on and c in out.columns]
        # arrow_from_pandas strips pandas schema metadata — raw pandas
        # returns defeat shuffle schema dedup downstream (~20x aggregates)
        return arrow_from_pandas(out.drop(columns=drop))

    return big.map_batches(probe, batch_format="pandas")


def default_join_partitions() -> int:
    """Join parallelism sized to the cluster: one hash-aggregator per CPU.

    A fixed num_partitions larger than the CPU count strands the shuffle —
    Ray schedules that many HashShuffleAggregator actors, and on a small
    cluster they starve each other (observed: 16 aggregators on 4 CPUs →
    load 0.27, pipeline stalled indefinitely).
    """
    try:
        n = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover
        n = 8
    # measured on 32 CPUs at sf0.1: np=8 → 3.0s, np=16 → 3.4s, np=32 → 5.6s
    # (aggregator-actor startup dominates past ~cpus/4); multi-node clusters
    # want ≥ one partition per node×2 — callers pass num_partitions there.
    return max(2, min(16, n // 4 if n >= 16 else n))


def _compact_if_sparse(ds: rd.Dataset) -> rd.Dataset:
    """Rebalance a MATERIALIZED join input so no block is empty.

    Ray 2.49's hash-shuffle join skips empty input blocks when scattering;
    an aggregator partition fed only by skipped blocks never learns that
    side's schema and ``pyarrow.Table.join`` raises ``ArrowInvalid: No
    match ... FieldRef`` at finalize (repro pinned in
    tests/test_graph_metrics.py + test_joins_empty_blocks.py). Empty
    blocks arise exactly on join-output/filtered intermediates — the
    chained-join shape — so compaction runs only when the input is already
    materialized (count/num_blocks are then metadata reads, no extra
    execution) and provably contains an empty block (rows < blocks)."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        return ds
    n = ds.count()
    if n == 0:
        return ds
    try:
        # per-block row counts are metadata on a materialized dataset —
        # no block fetch, no re-execution
        has_empty = any(
            (meta.num_rows or 0) == 0
            for bundle in ds.iter_internal_ref_bundles()
            for _, meta in bundle.blocks
        )
    except Exception:  # pragma: no cover - internal API drift
        has_empty = n < ds.num_blocks()
    if not has_empty:
        return ds
    return ds.repartition(max(1, min(n, default_join_partitions()))).materialize()


def _empty_arrow_like(ds: rd.Dataset) -> Optional[pa.Table]:
    sch = ds.schema()
    if sch is None:
        return None  # schema-less empty dataset: caller falls through
    base = getattr(sch, "base_schema", sch)
    return base.empty_table()


def large_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: Sequence[str],
    right_on: Optional[Sequence[str]] = None,
    how: str = "inner",
    num_partitions: Optional[int] = None,
) -> rd.Dataset:
    """Hash-partitioned shuffle join (both sides large).

    Materialized inputs are compacted so empty blocks never reach the
    shuffle (see ``_compact_if_sparse``); an empty materialized side
    short-circuits to the schema-correct empty result computed by the
    SAME pyarrow join kernel Ray uses, since the distributed path cannot
    learn a schema from zero blocks."""
    from ray.data.dataset import MaterializedDataset

    left = _compact_if_sparse(left)
    right = _compact_if_sparse(right)
    left_empty = isinstance(left, MaterializedDataset) and left.count() == 0
    right_empty = isinstance(right, MaterializedDataset) and right.count() == 0
    if left_empty or right_empty:
        if right_empty and how == "left_anti":
            return left  # anti vs nothing keeps everything
        if left_empty and how in ("left_semi", "left_anti"):
            return left  # already the schema-correct empty result
        if right_empty and how == "left_semi":
            return left.limit(0)
        rt = _empty_arrow_like(right)
        lt = _empty_arrow_like(left)
        if rt is None or lt is None:
            # a schema-less empty side (a never-executed map over an empty
            # join output) would crash the distributed join's aggregator
            # (FieldRef on a column-less block); the ROW-wise result is
            # known without any schema, so short-circuit the safe cases
            if left_empty and how in (
                "inner",
                "left_outer",
                "left_semi",
                "left_anti",
            ):
                return left  # zero rows either way
            if right_empty and how in ("inner", "left_semi"):
                return left.limit(0)
            return _distributed_join(left, right, on, right_on, how, num_partitions)
        keys = list(on)
        rkeys = list(right_on) if right_on else None
        jt = how.replace("_", " ")
        if right_empty and how == "left_outer" and not left_empty:
            # null-pad the right columns per batch with the SAME pyarrow
            # kernel Ray's aggregator uses — semantics identical, and the
            # (big) left keeps streaming
            rt_ref = ray.put(rt)

            def pad(batch: pa.Table) -> pa.Table:
                return batch.join(
                    ray.get(rt_ref),
                    keys=keys,
                    right_keys=rkeys,
                    join_type="left outer",
                    right_suffix="_r",
                )

            return left.map_batches(pad, batch_format="pyarrow")
        out = lt.join(
            rt, keys=keys, right_keys=rkeys, join_type=jt, right_suffix="_r"
        )
        return rd.from_arrow(out)
    return _distributed_join(left, right, on, right_on, how, num_partitions)


def _distributed_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: Sequence[str],
    right_on: Optional[Sequence[str]],
    how: str,
    num_partitions: Optional[int],
) -> rd.Dataset:
    return left.join(
        right,
        join_type=how,
        num_partitions=num_partitions or default_join_partitions(),
        on=tuple(on),
        right_on=tuple(right_on) if right_on else None,
        right_suffix="_r",
    )


def _small_keys(keys_ds: "rd.Dataset | pa.Table", key_col: str, broadcast_limit: int):
    """(key side, row count): a driver table within the broadcast limit as
    is; otherwise a Dataset projected and materialized ONCE — the count
    probe and the key pull must not execute the keys pipeline twice."""
    if isinstance(keys_ds, pa.Table):
        if keys_ds.num_rows <= broadcast_limit:
            return keys_ds, keys_ds.num_rows
        keys_ds = rd.from_arrow(keys_ds)
    keys_small = keys_ds.select_columns([key_col]).materialize()
    return keys_small, keys_small.count()


def _key_values(keys_small: "rd.Dataset | pa.Table", key_col: str) -> pa.Array:
    t = keys_small if isinstance(keys_small, pa.Table) else pull(keys_small)
    return t.column(key_col).combine_chunks().drop_null()


def semi_join_dataset(
    big: rd.Dataset,
    keys_ds: "rd.Dataset | pa.Table",
    *,
    on: str,
    key_col: Optional[str] = None,
    broadcast_limit: int = 5_000_000,
    num_partitions: Optional[int] = None,
) -> rd.Dataset:
    """Size-hybrid distributed semi join: keep ``big`` rows whose ``on``
    value appears in ``keys_ds[key_col]`` (keys must be unique).

    Below ``broadcast_limit`` keys: the key column is pulled ONCE, put in
    the object store, and probed by an actor pool whose value-set is built
    in ``__init__`` (never per batch) — zero shuffle. Above it: a
    hash-partitioned ``Dataset.join`` (both sides shuffle once), the
    10^12-row path. A ``pa.Table`` key set (a fold's driver result) is
    already pulled and broadcasts as is under the limit."""
    key_col = key_col or on
    keys_small, n_keys = _small_keys(keys_ds, key_col, broadcast_limit)
    if n_keys == 0:
        # semi join against nothing keeps nothing
        return big.limit(0)
    if n_keys <= broadcast_limit:
        import pyarrow.compute as pc

        # no sort: pc.is_in needs no ordering
        ref = ray.put(_key_values(keys_small, key_col))

        def probe(batch: pa.Table) -> pa.Table:
            # task map, not an actor pool: ray.get(ref) per task is a
            # zero-copy plasma read; pools pay startup+rampup (broadcast_join
            # note above — same measured trade)
            keys = ray.get(ref)
            return batch.filter(pc.is_in(batch[on], value_set=keys))

        return big.map_batches(probe, batch_format="pyarrow")
    return large_join(
        big,
        keys_small,
        on=(on,),
        right_on=(key_col,),
        how="left_semi",
        num_partitions=num_partitions,
    )


def anti_join(
    big: rd.Dataset,
    keys_ds: "rd.Dataset | pa.Table",
    *,
    on: str,
    key_col: Optional[str] = None,
    broadcast_limit: int = 5_000_000,
    num_partitions: Optional[int] = None,
) -> rd.Dataset:
    """Size-hybrid distributed anti join: keep ``big`` rows whose ``on``
    value does NOT appear in ``keys_ds[key_col]`` (a Dataset or a driver
    table). Broadcast negated filter below the limit; hash-partitioned
    ``left_anti`` join beyond (the 10^9-key path)."""
    import pyarrow.compute as pc

    key_col = key_col or on
    keys_small, n_keys = _small_keys(keys_ds, key_col, broadcast_limit)
    if n_keys == 0:
        # anti join against an empty key set keeps everything (the empty
        # to_pandas would otherwise KeyError — schema drops on empty pulls)
        return big
    if n_keys <= broadcast_limit:
        ref = ray.put(_key_values(keys_small, key_col))

        def probe(batch: pa.Table) -> pa.Table:
            mask = pc.is_in(batch[on], value_set=ray.get(ref))
            return batch.filter(pc.invert(mask))

        return big.map_batches(probe, batch_format="pyarrow")
    return large_join(
        big,
        keys_small,
        on=(on,),
        right_on=(key_col,),
        how="left_anti",
        num_partitions=num_partitions,
    )


def range_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_ts: str = "ts",
    right_ts: str = "ts",
    lower_us: int = 0,
    upper_us: int = 0,
    on: Sequence[str] = (),
    num_partitions: Optional[int] = None,
) -> rd.Dataset:
    """Distributed interval (range) join: pairs where
    ``lower_us ≤ right.ts − left.ts ≤ upper_us`` (microseconds), plus
    optional equi-keys ``on``.

    Physical plan — the standard bucketed range join: both sides bucket by
    ``floor(ts / W)`` with W = window width, the LEFT side replicates to
    the (≤2) buckets its interval ``[ts+lower, ts+upper]`` overlaps, ONE
    hash join on (bucket, *on) co-locates every possibly-matching pair,
    and a vectorized exact filter keeps true matches. Replication factor
    is ≤2 regardless of data, so the shuffle moves ~2·|left| + |right|
    rows — never a cross product. A time-skewed hot bucket (flash-crowd
    windows) concentrates one join partition; salt the bucket key with a
    secondary column via ``on`` when that bites.

    Timestamp columns may be Arrow timestamps or int64 — both are cast to
    epoch-microsecond int64 internally. Right-side columns keep their
    names; colliding left names would need pre-renaming by the caller.
    """
    import pyarrow.compute as pc

    if upper_us < lower_us:
        raise ValueError("range_join needs lower_us <= upper_us")
    w = max(upper_us - lower_us, 1)

    def left_buckets(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[left_ts], pa.int64()).to_numpy(zero_copy_only=False)
        lo = (ts + lower_us) // w
        hi = (ts + upper_us) // w
        # the interval spans at most 2 buckets (its length == W): emit the
        # lo copy for every row plus an hi copy where hi > lo — fully
        # vectorized, no per-row loop
        t1 = batch.append_column("_bucket", pa.array(lo, pa.int64()))
        spans2 = hi > lo
        if not spans2.any():
            return t1
        t2 = batch.filter(pa.array(spans2)).append_column(
            "_bucket", pa.array(hi[spans2], pa.int64())
        )
        return pa.concat_tables([t1, t2])

    def right_buckets(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch[right_ts], pa.int64()).to_numpy(zero_copy_only=False)
        # the right ts travels under a reserved internal name so a collision
        # with ANY left column can never silently redirect the exact filter
        # to the wrong column (the join suffixes colliding right names)
        out = batch.rename_columns(
            ["_rj_ts" if c == right_ts else c for c in batch.column_names]
        )
        return out.append_column("_bucket", pa.array(ts // w, pa.int64()))

    lb = left.map_batches(left_buckets, batch_format="pyarrow")
    rb = right.map_batches(right_buckets, batch_format="pyarrow")
    j = large_join(
        lb, rb, on=("_bucket", *on), num_partitions=num_partitions
    )

    def exact(batch: pa.Table) -> pa.Table:
        lt = pc.cast(batch[left_ts], pa.int64()).to_numpy(zero_copy_only=False)
        rt = pc.cast(batch["_rj_ts"], pa.int64()).to_numpy(zero_copy_only=False)
        d = rt - lt
        keep = (d >= lower_us) & (d <= upper_us)
        out = batch.filter(pa.array(keep)).drop_columns(["_bucket"])
        # restore the public name; keep the join's suffix convention if it
        # would collide with a left column
        restored = (
            right_ts if right_ts not in out.column_names else f"{right_ts}_r"
        )
        return out.rename_columns(
            [restored if c == "_rj_ts" else c for c in out.column_names]
        )

    return j.map_batches(exact, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-filter join prefilter
# ---------------------------------------------------------------------------

_BLOOM_HASHES = 3


def _bloom_positions(keys, m: int, i: int):
    """Bit positions of hash i for integer keys (splitmix mix per seed;
    m is a power of two so the mask is exact). NB the dedup import lives
    at call sites on the DRIVER only in the rest of this file; here the
    function runs on workers, so the import must be module-level — an
    inner ``from kgw_ray...`` bypasses pickle-by-value and fails only
    from a foreign cwd (the drive-recipe gotcha)."""
    import numpy as np

    seed = _mix64(np.array([i + 1], dtype=np.uint64))[0]
    h = _mix64(keys.astype(np.int64).view(np.uint64) ^ seed)
    return (h & np.uint64(m - 1)).astype(np.uint64)


def build_bloom(ds: rd.Dataset, col: str, n_keys: int, *, bits_per_key: int = 10):
    """Distributed Bloom-filter build over a key column: each block sets
    its bits into a local word array and ships ONE blob; the driver ORs
    the blobs and ``ray.put``s the final filter.

    The filter is ~bits_per_key/8 bytes per key — an order of magnitude
    smaller than the key set it summarizes, which is exactly when a
    bloom-prefiltered hash join beats both the broadcast join (keys too
    big to broadcast) and the raw hash join (most probe rows don't match:
    the prefilter drops them BEFORE the exchange). ~1% false positives at
    10 bits/key; false positives only cost wasted shuffle rows — the join
    itself stays exact."""
    import numpy as np

    m = 64
    while m < max(n_keys, 1) * bits_per_key:
        m <<= 1

    def part(t: pa.Table) -> pa.Table:
        keys = t.column(col).to_numpy(zero_copy_only=False)
        pos = np.concatenate(
            [_bloom_positions(keys, m, i) for i in range(_BLOOM_HASHES)]
        ) if len(keys) else np.zeros(0, dtype=np.uint64)
        pos = np.unique(pos)
        # ship the SMALLER encoding: sparse set-bit positions (8 B each)
        # when the block touches few bits, dense words when it saturates —
        # build traffic is min(block-bits, filter-size) per block, not
        # #blocks x filter-size (review finding)
        if pos.nbytes < m // 8:
            return pa.table(
                {
                    "kind": pa.array(["s"]),
                    "w": pa.array([pos.tobytes()], pa.binary()),
                }
            )
        words = np.zeros(m // 64, dtype=np.uint64)
        np.bitwise_or.at(
            words, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
        return pa.table(
            {"kind": pa.array(["d"]), "w": pa.array([words.tobytes()], pa.binary())}
        )

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    words = np.zeros(m // 64, dtype=np.uint64)
    if "w" in parts.columns:
        for kind, blob in zip(parts["kind"], parts["w"]):
            if kind == "d":
                words |= np.frombuffer(blob, dtype=np.uint64)
            else:
                pos = np.frombuffer(blob, dtype=np.uint64)
                np.bitwise_or.at(
                    words, (pos >> np.uint64(6)).astype(np.int64),
                    np.uint64(1) << (pos & np.uint64(63)),
                )
    return ray.put(words), m


def bloom_prefilter(ds: rd.Dataset, col: str, bloom_ref, m: int) -> rd.Dataset:
    """Drop rows whose key is DEFINITELY absent from the bloom filter
    (no false negatives: every true match survives)."""
    import numpy as np

    def filt(t: pa.Table) -> pa.Table:
        words = ray.get(bloom_ref)
        keys = t.column(col).to_numpy(zero_copy_only=False)
        mask = np.ones(len(keys), dtype=bool)
        for i in range(_BLOOM_HASHES):
            pos = _bloom_positions(keys, m, i)
            bit = (
                words[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))
            ) & np.uint64(1)
            mask &= bit.astype(bool)
        return t.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow")
