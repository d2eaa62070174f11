"""The one grouped fold: partials → merge → finalize, sized by the result.

Every grouped aggregate in the repo runs through :func:`fold`:

- **partials.** Callers hand in per-batch combiner output (≤ |groups| rows
  per block), or raw rows with ``combine=True``, in which case each block
  is first collapsed by an Arrow ``group_by`` with the same specs. The
  partials are materialized once (not again when they already are), and
  the row count is read from the block metadata — no extra execution.
- **driver branch.** At or under ``driver_limit`` partial rows the merge
  is one pandas group-by on the driver and ``finalize`` runs there too;
  the result is a ``pa.Table``. A result this small is pulled or
  broadcast by its consumer anyway, so an all-to-all exchange to reduce
  it is pure fixed latency (120–290 ms per ``Aggregate``/``Sort`` at
  1 CPU, for a few hundred rows).
- **exchange branch.** Above the limit the partials are reduced by one
  hash-shard exchange (each row hashes to an int shard, ``map_groups``
  merges each shard with the same pandas group-by) and ``finalize`` runs
  as a ``map_batches``; the result is a Dataset. So ``finalize`` must be
  row-local; order-dependent tails (sort, top-k) follow the fold
  (:func:`order_by`). Ray Data's sort-based ``groupby().aggregate`` is
  not used: it raises on NULL string keys spread over several blocks
  (Ray 2.49 compares None with str while picking sort boundaries), and
  for near-unique multi-column keys it sorts the full key tuple.
- **typed empty.** An empty input returns a zero-row table whose key
  types come from the partials' schema (read from the materialized
  blocks, never a ``ds.schema()`` execution) and whose aggregate types
  follow the ops. NULL keys are groups on both branches (SQL GROUP BY).

Exact either way: sum/min/max/count over integers and strings have one
answer, so the branches agree row for row.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from kgw_ray.functions.arrow_utils import arrow_from_pandas

# partial rows at or under this count merge on the driver (read at call
# time, so a test can pin the exchange branch for callers without a hook)
DRIVER_LIMIT = 2_000_000


def default_shuffle_partitions() -> int:
    try:
        n = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover
        n = 8
    return max(2, n)


def as_dataset(result: "pa.Table | rd.Dataset") -> rd.Dataset:
    """A fold result as a Dataset (for consumers that chain Dataset ops)."""
    return rd.from_arrow(result) if isinstance(result, pa.Table) else result


def order_by(result, keys: Sequence[str], descending: Sequence[bool]):
    """ORDER BY over a fold result, NULLs last: a driver table sorts in
    place, a Dataset pays the exchange ``sort``. Ray Data's sort cannot
    compare NULL with a value while it picks range boundaries, so every
    key rides as (is-null flag, null-filled value) through the exchange."""
    if isinstance(result, pa.Table):
        return result.sort_by(
            [(k, "descending" if d else "ascending") for k, d in zip(keys, descending)]
        )
    import pyarrow.compute as pc

    flags = [f"_null_{k}" for k in keys]

    def split(t: pa.Table) -> pa.Table:
        for k, f in zip(keys, flags):
            c = t.column(k)
            fill = pa.scalar("" if pa.types.is_string(c.type) else 0).cast(c.type)
            t = t.set_column(t.column_names.index(k), k, pc.fill_null(c, fill))
            t = t.append_column(f, pc.cast(pc.is_null(c), pa.int8()))
        return t

    def join(t: pa.Table) -> pa.Table:
        for k, f in zip(keys, flags):
            c = t.column(k)
            null = pa.scalar(None, c.type)
            c = pc.if_else(pc.cast(t.column(f), pa.bool_()), null, c)
            t = t.set_column(t.column_names.index(k), k, c)
        return t.drop_columns(flags)

    sort_keys = [c for pair in zip(flags, keys) for c in pair]
    sort_desc = [d for dd in descending for d in (False, dd)]
    return (
        result.map_batches(split, batch_format="pyarrow")
        .sort(sort_keys, descending=sort_desc)
        .map_batches(join, batch_format="pyarrow")
    )


def _materialized(ds: rd.Dataset):
    """(materialized dataset, block refs, row count, Arrow schema): one
    execution at most, none when ``ds`` is already materialized."""
    if not isinstance(ds, MaterializedDataset):
        ds = ds.materialize()
    bundles = list(ds.iter_internal_ref_bundles())
    refs = [ref for b in bundles for ref, _ in b.blocks]
    n = sum(m.num_rows or 0 for b in bundles for _, m in b.blocks)
    schema = next((b.schema for b in bundles if b.schema is not None), None)
    return ds, refs, n, schema


def pull(ds: rd.Dataset) -> pa.Table:
    """All rows of ``ds`` as one Arrow table on the driver. The blocks are
    fetched by reference, so a materialized Dataset costs no execution
    (``to_pandas`` runs one even then); a schema-less empty Dataset gives
    a zero-column table."""
    from ray.data.block import BlockAccessor

    _, refs, _, schema = _materialized(ds)
    tables = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    if not tables:
        return schema.empty_table() if schema is not None else pa.table({})
    return pa.concat_tables(
        [t.replace_schema_metadata(None) for t in tables],
        promote_options="permissive",
    )


def _types(schema) -> dict:
    schema = getattr(schema, "base_schema", schema)
    return dict(zip(schema.names, schema.types)) if schema is not None else {}


def _out_type(op: str, t: Optional[pa.DataType]) -> pa.DataType:
    if op == "count":
        return pa.int64()
    if t is None:
        return pa.float64()
    if op == "sum" and pa.types.is_integer(t):
        return pa.int64()
    if op == "sum" and pa.types.is_floating(t):
        return pa.float64()
    return t


def _to_arrow(df: pd.DataFrame, types: dict) -> pa.Table:
    """pandas → Arrow with the columns named in ``types`` pinned to their
    type (a NULL int key must not turn float); an empty object column with
    no pinned type is a string column (every object column here is)."""
    cols = {}
    for c in df.columns:
        t = types.get(c)
        if t is None and len(df) == 0 and df[c].dtype == object:
            t = pa.string()
        try:
            cols[c] = pa.array(df[c], type=t, from_pandas=True)
        except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
            cols[c] = pa.array(df[c], from_pandas=True)
    return pa.table(cols) if cols else arrow_from_pandas(df)


def _finalized(finalize: Callable, types: dict) -> Callable:
    """``finalize`` with an Arrow result whose pass-through columns keep
    the merged types (a NULL int key stays int on both branches)."""

    def run(batch):
        res = finalize(batch)
        return res if isinstance(res, pa.Table) else _to_arrow(res, types)

    return run


def _merge_frame(pdf: pd.DataFrame, key_list, specs, types: dict) -> pa.Table:
    """One pandas group-by merge of partial rows (``dropna=False``: NULL
    keys are groups), typed by ``types``."""
    agg = {
        alias: (key_list[0], "size") if op == "count" else (col, op)
        for col, op, alias in specs
    }
    g = pdf.groupby(key_list, sort=False, dropna=False).agg(**agg).reset_index()
    return _to_arrow(g, types)


def _combiner(key_list, specs) -> Callable[[pa.Table], pa.Table]:
    """Per-block Arrow group_by with ``specs``: output (keys, aliases)."""
    aggs = [([], "count_all") if op == "count" else (col, op) for col, op, _ in specs]
    names = ["count_all" if op == "count" else f"{col}_{op}" for col, op, _ in specs]
    aliases = [alias for _, _, alias in specs]

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key_list, use_threads=False).aggregate(aggs)
        return g.select(key_list + names).rename_columns(key_list + aliases)

    return combine


def _sharded_exchange(ds, key_list, specs, types, n_shards: int) -> rd.Dataset:
    """The fold's exchange: each row hashes to one of ``n_shards`` int
    shards, ONE shuffle groups by the cheap int key, and a pandas group-by
    merges exactly within each shard (a sort-based aggregate pays a full
    multi-string-column sort instead: 7.8s vs 1.5s for a 766k-row
    3-string-key count at sf0.1/32cpus). The hash only partitions —
    groups stay the full key tuple, NULL keys included."""

    def shard(batch: pa.Table) -> pa.Table:
        k = pd.util.hash_pandas_object(
            batch.select(key_list).to_pandas(), index=False
        ).to_numpy()
        return batch.append_column(
            "shard", pa.array((k % n_shards).astype(np.int32), pa.int32())
        )

    def merge(g: pd.DataFrame) -> pa.Table:
        return _merge_frame(g.drop(columns=["shard"]), key_list, specs, types)

    return ds.map_batches(shard, batch_format="pyarrow").groupby("shard").map_groups(
        merge, batch_format="pandas"
    )


def fold(
    partials: rd.Dataset,
    keys: Union[str, Sequence[str]],
    specs: Sequence[tuple],
    *,
    finalize: Optional[Callable] = None,
    batch_format: str = "pandas",
    combine: bool = False,
    driver_limit: Optional[int] = None,
    n_shards: Optional[int] = None,
) -> "pa.Table | rd.Dataset":
    """GROUP BY ``keys`` over ``partials`` (see the module docstring).

    ``specs`` is ``[(col, op, alias)]`` with op in {sum, min, max, count};
    ``count`` counts rows (``col`` is None). With ``combine=False`` the
    partials already hold one row per (block, group) and ``count`` counts
    partial rows; with ``combine=True`` raw rows are collapsed per block
    first and every op merges exactly. ``finalize`` is a row-local map in
    ``batch_format`` applied to the merged groups. ``n_shards`` sizes the
    exchange (default: one shard per CPU). Returns a ``pa.Table`` on the
    driver branch, a Dataset on the exchange branch.
    """
    key_list = [keys] if isinstance(keys, str) else list(keys)
    if driver_limit is None:
        driver_limit = DRIVER_LIMIT
    # the input's schema as far as it is known without executing: types
    # the result when no partial block carries a schema (an all-empty map)
    hint = _types(
        _materialized(partials)[3]
        if isinstance(partials, MaterializedDataset)
        else partials.schema(fetch_if_missing=False)
    )
    types = {k: hint.get(k) for k in key_list}
    for col, op, alias in specs:
        types[alias] = _out_type(op, hint.get(col))
    if combine:
        partials = partials.map_batches(_combiner(key_list, specs), batch_format="pyarrow")
        # a combined count merges by summing the per-block counts
        specs = [(a, "sum" if op == "count" else op, a) for _, op, a in specs]
    mat, _, n, schema = _materialized(partials)
    in_types = _types(schema)
    for k in key_list:
        types[k] = in_types.get(k) or hint.get(k) or pa.string()
    for col, op, alias in specs:
        if col in in_types:
            types[alias] = _out_type(op, in_types[col])

    if n <= driver_limit:
        if n == 0:
            out = pa.table({c: pa.array([], t) for c, t in types.items()})
        else:
            out = _merge_frame(pull(mat).to_pandas(), key_list, specs, types)
        if finalize is None:
            return out
        return _finalized(finalize, types)(
            out.to_pandas() if batch_format == "pandas" else out
        )

    merged = _sharded_exchange(
        mat, key_list, specs, types, n_shards or default_shuffle_partitions()
    )
    if finalize is None:
        return merged
    return merged.map_batches(_finalized(finalize, types), batch_format=batch_format)


def sharded_count(
    ds: rd.Dataset,
    keys: Sequence[str],
    *,
    count_name: str = "n",
    n_shards: Optional[int] = None,
) -> "pa.Table | rd.Dataset":
    """COUNT(*) GROUP BY ``keys``: a per-block Arrow count combiner feeding
    :func:`fold`. Over the driver limit the merge is the hash-shard
    exchange (``n_shards`` bounds per-shard memory to ~|rows|/n_shards;
    default 4×CPUs) — high-cardinality keys barely collapse per block, and
    a sort-based aggregate would sort the full key tuple."""
    keys = list(keys)
    return fold(
        ds.select_columns(keys),
        keys,
        [(None, "count", count_name)],
        combine=True,
        n_shards=n_shards or 4 * default_shuffle_partitions(),
    )


def salted_aggregate(
    ds: rd.Dataset,
    keys: Union[str, Sequence[str]],
    sum_cols: Sequence[str],
    *,
    salt: int = 16,
) -> rd.Dataset:
    """Two-phase aggregation with salted keys for head-key skew
    (BASELINE.json north_rule: 'salted-key handling for head-entity skew').

    A single groupby on a skewed key sends every row of the hot key to ONE
    reduce partition — that partition becomes the straggler. Salting splits
    each key into ``salt`` sub-keys:

        phase 1: groupby(keys + _salt) — the hot key's rows spread over
                 ``salt`` partitions, each producing one partial row
        phase 2: groupby(keys) over ≤ salt rows per key — trivially small

    Works for decomposable aggregates (sum/count/min/max; this helper does
    sums — extend per aggregate). The per-batch combiner pattern used by the
    flagship (``_edge_partials``) makes salting unnecessary when partials
    fit per batch; salting is for groupby paths that CANNOT pre-combine
    (e.g. ``map_groups`` bodies needing all rows of a key, or aggregate
    states too large to merge per batch).
    """
    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Sum

    key_list = [keys] if isinstance(keys, str) else list(keys)

    def add_salt(batch: pa.Table) -> pa.Table:
        # deterministic per-row salt: spreads every key's rows uniformly
        n = batch.num_rows
        s = (np.arange(n, dtype=np.int64) * 2654435761 % salt).astype(np.int64)
        return batch.append_column("_salt", pa.array(s))

    salted = ds.map_batches(add_salt, batch_format="pyarrow")
    phase1 = salted.groupby(key_list + ["_salt"]).aggregate(
        *[Sum(c, alias_name=c) for c in sum_cols]
    )
    phase2 = phase1.groupby(key_list).aggregate(
        *[Sum(c, alias_name=c) for c in sum_cols]
    )
    return phase2


def resilient_map_batches(
    ds: rd.Dataset,
    fn,
    *,
    max_retries: int = 3,
    batch_format: str = "pyarrow",
    **kwargs,
):
    """map_batches with task-level exception retries (the engine's
    fault-tolerance default for stages touching flaky externals — model
    servers, object stores; reference analog: 3 download retries,
    kgw/_shared/tasks.py:104).

    Ray retries worker CRASHES automatically; user exceptions need
    ``retry_exceptions`` opted in — this wrapper is that opt-in.
    """
    # map_batches forwards extra kwargs straight to the remote task options
    return ds.map_batches(
        fn,
        batch_format=batch_format,
        retry_exceptions=True,
        max_retries=max_retries,
        **kwargs,
    )


def approx_quantiles(
    ds: "rd.Dataset",
    col: str,
    qs,
    *,
    grid: int = 128,
) -> dict[float, float]:
    """Mergeable approximate quantiles of a column — the 100 TB analog of a
    corpus-wide ``quantile_cont`` (events_value_quantiles' per-group exact
    quantile assumes a group fits one worker; a GLOBAL quantile at web
    scale cannot).

    Classic mergeable-summary scheme (the GK/t-digest family's simplest
    member): every block emits its own ``grid``-point equi-probable
    quantile summary weighted by its row count — a fixed-size sketch per
    block, so the driver merge sees ``grid × n_blocks`` tiny rows, never
    the data. The merged weighted sample is then queried by weighted
    interpolation. Error is bounded by ~1/grid of each block's mass
    (exact for blocks with ≤ grid distinct values).

    Returns ``{q: value}``. Zero shuffle; one streaming pass.
    """
    import numpy as np
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        n = len(v)
        if n == 0:
            return pa.table(
                {"q": pa.array([], pa.float64()), "w": pa.array([], pa.float64())}
            )
        g = min(grid, n)
        pts = np.quantile(v, np.linspace(0.0, 1.0, g))
        return pa.table(
            {
                "q": pa.array(pts, pa.float64()),
                "w": pa.array(np.full(g, n / g), pa.float64()),
            }
        )

    merged = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if len(merged) == 0:
        return {float(q): float("nan") for q in qs}
    order = merged["q"].to_numpy().argsort(kind="stable")
    vals = merged["q"].to_numpy()[order]
    w = merged["w"].to_numpy()[order]
    cum = np.cumsum(w)
    total = cum[-1]
    # weighted quantile: position of each sample is the center of its mass
    centers = (cum - w / 2.0) / total
    return {
        float(q): float(np.interp(float(q), centers, vals)) for q in qs
    }


# ---------------------------------------------------------------------------
# EXACT distributed quantiles — histogram-refinement rank selection
# ---------------------------------------------------------------------------


def _bin_index(v, lo: float, width: float, bins: int):
    """The one shared binning rule (pass-1 counts and pass-2 filters MUST
    agree bin-for-bin; float edge fuzz is harmless as long as both passes
    use this exact function)."""
    import numpy as np

    idx = np.floor((v - lo) / width).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def exact_quantiles(
    ds: rd.Dataset,
    col: str,
    qs: Sequence[float],
    *,
    bins: int = 4096,
    pull_cap: int = 5_000_000,
) -> dict:
    """EXACT rank-selection quantiles of a numeric column with NO sort and
    NO shuffle: quantile q = the ceil(q*N)-th smallest non-null value (the
    inverted-CDF definition — pure element SELECTION, so the result is
    engine-exact, no float arithmetic to diverge).

    Physical plan (the companion to the mergeable ``approx_quantiles``
    sketch when the answer must be exact):
      pass 0 — per-block (count, min, max) partials, tiny driver merge;
      pass 1 — per-block histogram over ``bins`` fixed-width bins, driver
               sums to a global CDF and locates each target rank's bin;
      pass 2 — pull ONLY the located bins' values (expected N/bins rows
               per bin) and select by within-bin rank offset.
    A skew-degenerate bin (> ``pull_cap`` values, e.g. a constant-heavy
    column) recurses one refinement level over that bin's sub-range; a
    zero-width bin IS a single value and answers directly.
    """
    import numpy as np
    import pyarrow as pa

    def stats_partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table(
                {"n": pa.array([0], pa.int64()),
                 "lo": pa.array([np.inf]), "hi": pa.array([-np.inf])}
            )
        return pa.table(
            {"n": pa.array([len(v)], pa.int64()),
             "lo": pa.array([float(v.min())]), "hi": pa.array([float(v.max())])}
        )

    ds = ds.materialize()
    st = ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    n_total = int(st["n"].sum()) if "n" in st.columns else 0
    if n_total == 0:
        return {float(q): None for q in qs}
    lo, hi = float(st["lo"].min()), float(st["hi"].max())
    ranks = {float(q): int(np.ceil(float(q) * n_total)) for q in qs}
    ranks = {q: min(max(r, 1), n_total) for q, r in ranks.items()}

    def select(sub: rd.Dataset, lo: float, hi: float, want: dict, depth: int) -> dict:
        """want: {rank_within_sub: [q, ...]} over the sub-range values."""
        import numpy as np

        if lo == hi:  # constant range: every rank IS that value
            return {q: lo for qs_ in want.values() for q in qs_}
        width = (hi - lo) / bins

        def hist_partial(t: pa.Table) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            v = v[(v >= lo) & (v <= hi)]
            c = np.bincount(_bin_index(v, lo, width, bins), minlength=bins)
            return pa.table({"b": pa.array(np.arange(bins, dtype=np.int64)),
                             "c": pa.array(c.astype(np.int64))})

        hp = sub.map_batches(hist_partial, batch_format="pyarrow").to_pandas()
        counts = np.zeros(bins, dtype=np.int64)
        np.add.at(counts, hp["b"].to_numpy(), hp["c"].to_numpy())
        cum = np.concatenate(([0], np.cumsum(counts)))
        out: dict = {}
        by_bin: dict = {}
        for r, qlist in want.items():
            b = int(np.searchsorted(cum, r, side="left")) - 1
            b = min(max(b, 0), bins - 1)
            by_bin.setdefault(b, []).append((r - int(cum[b]), qlist))
        for b, items in by_bin.items():
            if counts[b] > pull_cap and depth < 4:
                def nest(t: pa.Table, _b=b) -> pa.Table:
                    v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
                    v = v[~np.isnan(v)]
                    v = v[(v >= lo) & (v <= hi)]
                    keep = _bin_index(v, lo, width, bins) == _b
                    return pa.table({col: pa.array(v[keep])})

                nested = sub.map_batches(nest, batch_format="pyarrow").materialize()
                # nested range from the ACTUAL values, not the bin edges —
                # a boundary value can sit epsilon outside its edge and a
                # re-filter against computed edges would shift ranks
                nst = nested.map_batches(
                    stats_partial, batch_format="pyarrow"
                ).to_pandas()
                blo, bhi = float(nst["lo"].min()), float(nst["hi"].max())
                out.update(
                    select(nested, blo, bhi,
                           {r: ql for r, ql in items}, depth + 1)
                )
                continue

            def pull(t: pa.Table, _b=b) -> pa.Table:
                v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
                v = v[~np.isnan(v)]
                v = v[(v >= lo) & (v <= hi)]
                keep = _bin_index(v, lo, width, bins) == _b
                return pa.table({col: pa.array(v[keep])})

            vals = sub.map_batches(pull, batch_format="pyarrow").to_pandas()
            arr = (
                np.sort(vals[col].to_numpy()) if col in vals.columns
                else np.zeros(0)
            )
            for r_in_bin, qlist in items:
                x = float(arr[min(max(r_in_bin, 1), len(arr)) - 1])
                for q in qlist:
                    out[q] = x
        return out

    want: dict = {}
    for q, r in ranks.items():
        want.setdefault(r, []).append(q)
    return select(ds, lo, hi, want, 0)


def grouped_exact_quantiles(
    ds: rd.Dataset,
    key: str,
    col: str,
    qs: Sequence[float],
    *,
    bins: int = 1024,
    pull_cap: int = 1_000_000,
    max_depth: int = 4,
) -> "pyarrow.Table":  # noqa: F821
    """EXACT per-group rank-selection quantiles for UNBOUNDED/continuous
    columns — the documented fallback where ``grouped_exact_median``'s
    distinct-value-vocabulary contract breaks (a float column with ~n
    distinct values would shuffle the whole table as "vocabulary").

    The ``exact_quantiles`` histogram-refinement plan, run for EVERY group
    simultaneously (never one pass per group):

      pass 0 — per-block (key → n, lo, hi) combiner → one vocabulary-sized
               groupby → driver holds per-group stats;
      per refinement level (≤ ``max_depth``, one corpus pass each) — each
               unresolved (group, q) target histograms its CURRENT range
               (per-block bincount keyed by target id, combined per block;
               the exchange is O(targets × bins) rows, never data-sized),
               the driver locates the rank's bin, and the target either
               narrows to that bin or — once the bin holds ≤ ``pull_cap``
               values — marks itself pullable;
      final pass — pull ONLY the located (group, bin) values, sort each
               tiny set, select by within-bin rank offset.

    Quantile q = the ceil(q·n_g)-th smallest non-null value of group g
    (inverted CDF — pure selection, engine-exact, no interpolation).
    Groups with only NULL values emit NULL. NULL group keys are groups
    (the ``dropna=False`` convention). Scale contract: the GROUP COUNT
    (× len(qs)) is driver-bounded metadata; the data itself is never
    pulled beyond located bins.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    ds = ds.materialize()

    def stats_partial(t: pa.Table) -> pa.Table:
        k = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        df = pd.DataFrame({key: k, "_v": v})
        g = df.groupby(key, sort=False, dropna=False)["_v"]
        out = g.agg(n="count", lo="min", hi="max").reset_index()
        return arrow_from_pandas(out)

    st = grouped_aggregate_hybrid(
        ds.map_batches(stats_partial, batch_format="pyarrow"),
        key,
        [("n", "sum", "n"), ("lo", "min", "lo"), ("hi", "max", "hi")],
    ).to_pandas()
    qcols = {f"q{q}": q for q in qs}
    if len(st) == 0 or key not in st.columns:
        sch = ds.schema()
        key_type = (
            dict(zip(sch.names, sch.types)).get(key, pa.string())
            if sch is not None
            else pa.string()
        )
        return pa.table(
            {key: pa.array([], key_type)}
            | {c: pa.array([], pa.float64()) for c in qcols}
        )

    # targets: one per (group, q); tid indexes every parallel array.
    # Each target carries its level-0 range (the group's ACTUAL min/max,
    # so nothing falls outside) plus a CHAIN of (lo, hi, bin) refinement
    # constraints: membership at depth d is "parent _bin_index == bin" for
    # every ancestor — never a recomputed range compare, so float edge
    # fuzz cannot shift ranks (the exact_quantiles boundary rule; the
    # child histogram range is the bin's computed edges with np.clip, a
    # CONSISTENT partition even when a value sits epsilon outside them).
    keys_list, q_list, rank_list = [], [], []
    range_list: list[tuple] = []  # current histogram range per target
    chain_list: list[list] = []   # [(lo, hi, bin), ...] ancestry per target
    resolved: dict[int, object] = {}
    for _, row in st.iterrows():
        kv = row[key]
        n_g = int(row["n"])
        for q in qs:
            tid = len(keys_list)
            keys_list.append(None if pd.isna(kv) else kv)
            q_list.append(float(q))
            chain_list.append([])
            if n_g == 0:  # all-NULL group -> NULL quantile
                rank_list.append(0)
                range_list.append((0.0, 0.0))
                resolved[tid] = None
                continue
            rank_list.append(min(max(int(np.ceil(float(q) * n_g)), 1), n_g))
            range_list.append((float(row["lo"]), float(row["hi"])))

    def _targets_ref(tids):
        """Broadcast the active targets (ray.put once per level)."""
        karr = [keys_list[t] for t in tids]
        rng = [range_list[t] for t in tids]
        chn = [list(chain_list[t]) for t in tids]
        return ray.put((list(tids), karr, rng, chn))

    def _member_values(v, rng, chn):
        """Values of one key filtered to a target's refinement region:
        level-0 actual-range filter, then consistent parent binning."""
        if chn:
            lo0, hi0, _ = chn[0]
            v = v[(v >= lo0) & (v <= hi0)]
        else:
            lo0, hi0 = rng
            v = v[(v >= lo0) & (v <= hi0)]
        for lo_j, hi_j, b_j in chn:
            w = (hi_j - lo_j) / bins
            if w == 0:
                continue
            v = v[_bin_index(v, lo_j, w, bins) == b_j]
        return v

    pull_targets: list[int] = []
    active = [t for t in range(len(keys_list)) if t not in resolved]
    depth = 0
    while active and depth < max_depth:
        ref = _targets_ref(active)

        def hist_partial(t: pa.Table, _ref=ref) -> pa.Table:
            tids, karr, rng, chn = ray.get(_ref)
            k = t.column(key).to_numpy(zero_copy_only=False)
            v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            ok = ~np.isnan(v)
            k, v = k[ok], v[ok]
            kser = pd.Series(k, dtype=object)
            isna = kser.isna().to_numpy()
            out_t, out_b, out_c = [], [], []
            for i, tid in enumerate(tids):
                m = isna if karr[i] is None else (kser == karr[i]).to_numpy()
                vv = _member_values(v[m], rng[i], chn[i])
                if len(vv) == 0:
                    continue
                lo_c, hi_c = rng[i]
                width = (hi_c - lo_c) / bins
                if width == 0:
                    b = np.zeros(len(vv), dtype=np.int64)
                else:
                    b = _bin_index(vv, lo_c, width, bins)
                c = np.bincount(b, minlength=bins)
                nz = np.nonzero(c)[0]
                out_t.append(np.full(len(nz), tid, dtype=np.int64))
                out_b.append(nz.astype(np.int64))
                out_c.append(c[nz].astype(np.int64))
            if not out_t:
                return pa.table(
                    {"tid": pa.array([], pa.int64()),
                     "b": pa.array([], pa.int64()),
                     "c": pa.array([], pa.int64())}
                )
            return pa.table(
                {"tid": pa.array(np.concatenate(out_t)),
                 "b": pa.array(np.concatenate(out_b)),
                 "c": pa.array(np.concatenate(out_c))}
            )

        hp = grouped_aggregate_hybrid(
            ds.map_batches(hist_partial, batch_format="pyarrow"),
            ["tid", "b"],
            [("c", "sum", "c")],
        ).to_pandas()
        next_active = []
        for tid in active:
            rows = hp[hp["tid"] == tid].sort_values("b")
            counts = np.zeros(bins, dtype=np.int64)
            counts[rows["b"].to_numpy()] = rows["c"].to_numpy()
            cum = np.concatenate(([0], np.cumsum(counts)))
            r = rank_list[tid]
            b = int(np.searchsorted(cum, r, side="left")) - 1
            b = min(max(b, 0), bins - 1)
            lo_c, hi_c = range_list[tid]
            width = (hi_c - lo_c) / bins
            rank_list[tid] = r - int(cum[b])
            if width == 0.0:  # constant region IS the answer
                resolved[tid] = lo_c
            elif counts[b] <= pull_cap or depth == max_depth - 1:
                chain_list[tid].append((lo_c, hi_c, b))
                pull_targets.append(tid)
            else:  # push the located bin onto the chain and refine
                chain_list[tid].append((lo_c, hi_c, b))
                range_list[tid] = (lo_c + b * width, lo_c + (b + 1) * width)
                next_active.append(tid)
        active = next_active
        depth += 1

    if pull_targets:
        tids = sorted(pull_targets)
        ref = _targets_ref(tids)

        def pull(t: pa.Table, _ref=ref) -> pa.Table:
            tids_, karr, rng, chn = ray.get(_ref)
            k = t.column(key).to_numpy(zero_copy_only=False)
            v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
            ok = ~np.isnan(v)
            k, v = k[ok], v[ok]
            kser = pd.Series(k, dtype=object)
            isna = kser.isna().to_numpy()
            out_t, out_v = [], []
            for i, tid in enumerate(tids_):
                m = isna if karr[i] is None else (kser == karr[i]).to_numpy()
                vv = _member_values(v[m], rng[i], chn[i])
                if len(vv):
                    out_t.append(np.full(len(vv), tid, dtype=np.int64))
                    out_v.append(vv)
            if not out_t:
                return pa.table(
                    {"tid": pa.array([], pa.int64()),
                     "v": pa.array([], pa.float64())}
                )
            return pa.table(
                {"tid": pa.array(np.concatenate(out_t)),
                 "v": pa.array(np.concatenate(out_v))}
            )

        pulled = ds.map_batches(pull, batch_format="pyarrow").to_pandas()
        for tid in tids:
            arr = np.sort(
                pulled[pulled["tid"] == tid]["v"].to_numpy()
                if "tid" in pulled.columns
                else np.zeros(0)
            )
            if len(arr) == 0:  # defensive: should not happen
                resolved[tid] = None
                continue
            r = rank_list[tid]
            resolved[tid] = float(arr[min(max(r, 1), len(arr)) - 1])

    # assemble: one row per group, one column per q (group order = st order)
    key_type = pa.array(st[key]).type
    n_q = len(qs)
    uniq_keys = keys_list[::n_q]
    out: dict = {key: pa.array(uniq_keys, key_type)}
    for j, (cname, _q) in enumerate(qcols.items()):
        out[cname] = pa.array(
            [resolved.get(g * n_q + j) for g in range(len(uniq_keys))],
            pa.float64(),
        )
    return pa.table(out)


def grouped_exact_median(
    ds: rd.Dataset, key: str, col: str
) -> "pyarrow.Table":  # noqa: F821
    """EXACT per-group median via sharded VALUE COUNTS: per-block
    (key, value) count combiner → groupby Sum over the (group × distinct
    value) vocabulary → driver-side CDF selection of the ceil(n/2)-th
    element per group.

    Scale contract: the shuffle and the driver pull are sized to the
    DISTINCT-value vocabulary, not the row count — exact and scale-safe
    for bounded-precision columns (2-dp money has ≤ ~50k distinct values
    per group no matter how many rows); for unbounded continuous columns
    use ``exact_quantiles`` (histogram refinement) per group instead.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    def vc_partial(t: pa.Table) -> pa.Table:
        k = t.column(key).to_numpy(zero_copy_only=False)
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~np.isnan(v)
        df = pd.DataFrame({key: k[ok], col: v[ok]})
        # dropna=False: a NULL group key is a group too (SQL GROUP BY
        # keeps it — the sharded_count convention)
        g = (
            df.groupby([key, col], sort=False, dropna=False)
            .size()
            .reset_index(name="c")
        )
        return arrow_from_pandas(g)

    counts = grouped_aggregate_hybrid(
        ds.map_batches(vc_partial, batch_format="pyarrow"),
        [key, col],
        [("c", "sum", "c")],
    ).to_pandas()
    if len(counts) == 0 or key not in counts.columns:
        # type the empty key column from the INPUT schema — hard-coding
        # string would make the empty result's schema differ from the
        # non-empty one for integer/timestamp group keys
        sch = ds.schema()
        key_type = (
            dict(zip(sch.names, sch.types)).get(key, pa.string())
            if sch is not None
            else pa.string()
        )
        return pa.table(
            {key: pa.array([], key_type), "median": pa.array([], pa.float64())}
        )
    counts = counts.sort_values([key, col])
    out_k, out_m = [], []
    for kv, grp in counts.groupby(key, sort=True, dropna=False):
        if pd.isna(kv):
            kv = None
        c = grp["c"].to_numpy()
        cum = np.cumsum(c)
        r = int(np.ceil(0.5 * cum[-1]))
        out_k.append(kv)
        out_m.append(float(grp[col].to_numpy()[np.searchsorted(cum, r)]))
    return pa.table({key: pa.array(out_k), "median": pa.array(out_m, pa.float64())})


def kmv_distinct(ds: rd.Dataset, col: str, k: int = 1024) -> dict:
    """Mergeable KMV (k-minimum-values) cardinality sketch: per-block the k
    smallest md5-LE-uint64 hashes of the column's distinct values, driver
    merge of ≤ (#blocks × k) hashes, estimator (n−1)·2⁶⁴ // kth_min — the
    classic zero-shuffle COUNT DISTINCT estimate (Bar-Yossef et al.).

    Deterministic and ENGINE-EXACT: the kth-min hash and the estimator are
    pure integer functions of the value set (no RNG, no floats), so a SQL
    oracle reproduces them bit-for-bit; when fewer than k distinct values
    exist the sketch IS the exact distinct count. Standard error ~1/sqrt(k)
    (~3% at k=1024).
    """
    import numpy as np
    import pyarrow as pa

    from kgw_ray.stages.dedup import _portable_token_hashes

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_pylist()
        vals = sorted({str(x) for x in v if x is not None})
        h = np.unique(_portable_token_hashes(vals))
        return pa.table({"h": pa.array(h[:k])})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if "h" not in parts.columns or len(parts) == 0:
        return {"k": k, "n": 0, "kth_min": None, "est_distinct": 0}
    h = np.unique(parts["h"].to_numpy().astype(np.uint64))[:k]
    n = int(len(h))
    if n == 0:
        return {"k": k, "n": 0, "kth_min": None, "est_distinct": 0}
    kth = int(h[-1])
    est = n if n < k else ((n - 1) * (1 << 64)) // kth
    return {"k": k, "n": n, "kth_min": kth, "est_distinct": int(est)}


def grouped_aggregate_hybrid(
    partials: rd.Dataset,
    keys: Union[str, Sequence[str]],
    specs: Sequence[tuple],
    *,
    driver_limit: Optional[int] = None,
) -> rd.Dataset:
    """:func:`fold` for consumers that chain Dataset operations: the driver
    branch's table comes back wrapped (``rd.from_arrow``, no execution)."""
    return as_dataset(fold(partials, keys, specs, driver_limit=driver_limit))


def table_checksum(ds: rd.Dataset, cols: "Sequence[str]") -> dict:
    """Order-insensitive distributed table fingerprint: per-row md5 of the
    '|'-joined canonical column rendering (None → ''), first 8 digest bytes
    little-endian as uint64, summed mod 2⁶⁴, plus the row count — the
    cheap anti-entropy check two replicas/engines can both compute to
    verify a 10^12-row table without moving it (per-block partials are one
    (sum, count) row each; no shuffle, no sort).

    Engine-exact: md5 + wrap-around integer addition have one answer, so
    a SQL oracle reproduces the checksum bit-for-bit. Canonical renders
    must match the SQL side: integers via str(), floats are NOT supported
    (no portable text rendering) — pass pre-scaled integer columns.
    """
    import hashlib

    import numpy as np
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        rendered = [
            [("" if v is None else str(v)) for v in t.column(c).to_pylist()]
            for c in cols
        ]
        acc = 0  # unbounded python int; one mod at the end (no numpy
        # overflow warnings, same wrap-around result)
        for row in zip(*rendered):
            d = hashlib.md5("|".join(row).encode("utf-8")).digest()
            acc += int.from_bytes(d[:8], "little")
        return pa.table(
            {
                "sum": pa.array([acc % (1 << 64)], pa.uint64()),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    total = sum(int(p["sum"]) for p in parts) % (1 << 64)
    return {"n_rows": int(sum(p["n"] for p in parts)), "checksum": str(total)}


def global_row_number(
    ds: rd.Dataset,
    keys: "Sequence[str]",
    *,
    n_buckets: int = 1024,
    rank_name: str = "rn",
) -> rd.Dataset:
    """EXACT global ROW_NUMBER() ORDER BY ``keys`` (int64 columns, the
    composite must be unique) — the classic distributed ranking plan:

    1. one partial pass bincounts the LEADING key into ``n_buckets``
       equal-width value ranges (driver folds the tiny per-block
       histograms → exclusive prefix offsets);
    2. one bucket-keyed exchange co-locates each range; inside a bucket a
       single lexsort assigns local ranks, shifted by the bucket's offset.

    No global sort, no driver-sized pull: the exchange moves only the key
    columns + the bucket tag, and every bucket is a value RANGE so the
    concatenation of (offset + local rank) is the total order. Skew note:
    equal-width ranges are exact for any distribution (a hot range just
    makes one bucket bigger — correctness unaffected); re-bucket by
    splitting on the histogram when one range exceeds a worker's heap.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    lead = keys[0]

    def _minmax_partial(t: pa.Table) -> pa.Table:
        v = t.column(lead).to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table(
                {"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "lo": pa.array([int(v.min())], pa.int64()),
                "hi": pa.array([int(v.max())], pa.int64()),
            }
        )

    proj = ds.select_columns(list(keys)).materialize()
    mm = proj.map_batches(_minmax_partial, batch_format="pyarrow").to_pandas()
    if len(mm) == 0:
        return proj.map_batches(
            lambda t: t.append_column(rank_name, pa.array([], pa.int64())),
            batch_format="pyarrow",
        )
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    width = max(1, (hi - lo + n_buckets) // n_buckets)

    def _hist_partial(t: pa.Table) -> pa.Table:
        v = t.column(lead).to_numpy(zero_copy_only=False)
        b = np.minimum((v - lo) // width, n_buckets - 1)
        cnt = np.bincount(b, minlength=n_buckets).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"bucket": pa.array(nz.astype(np.int64)), "c": pa.array(cnt[nz])}
        )

    hist = (
        proj.map_batches(_hist_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("bucket")["c"]
        .sum()
    )
    counts = np.zeros(n_buckets, dtype=np.int64)
    counts[hist.index.to_numpy()] = hist.to_numpy()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    def _tag(t: pa.Table) -> pa.Table:
        v = t.column(lead).to_numpy(zero_copy_only=False)
        b = np.minimum((v - lo) // width, n_buckets - 1)
        return t.append_column("_bucket", pa.array(b.astype(np.int64)))

    key_list = list(keys)

    def _per_bucket(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table(
                {
                    **{k: pa.array([], pa.int64()) for k in key_list},
                    rank_name: pa.array([], pa.int64()),
                }
            )
        b = int(g["_bucket"].iloc[0])
        order = np.lexsort(tuple(g[k].to_numpy() for k in reversed(key_list)))
        out = g.iloc[order][key_list].reset_index(drop=True)
        out[rank_name] = offsets[b] + 1 + np.arange(len(g), dtype=np.int64)
        return arrow_from_pandas(out)

    return (
        proj.map_batches(_tag, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(_per_bucket, batch_format="pandas")
    )


def global_ordered_prefix_sum(
    ds: rd.Dataset,
    keys: "Sequence[str]",
    val: str,
    *,
    n_buckets: int = 1024,
    out_name: str = "prefix",
) -> rd.Dataset:
    """EXACT running ``SUM(val) OVER (ORDER BY keys ROWS UNBOUNDED
    PRECEDING)`` (inclusive; int64 columns, composite key unique) — the
    ordered-scan analog of :func:`global_row_number`, same two-pass plan:

    1. one partial pass range-buckets the LEADING key and folds per-bucket
       VALUE SUMS on the driver (tiny: ``n_buckets`` int64s) → exclusive
       bucket offsets;
    2. one bucket-keyed exchange; inside a bucket a single lexsort orders
       the rows and a local cumsum, shifted by the bucket's offset, is the
       global running total.

    The exchange moves keys + one value column; nothing corpus-sized lands
    on the driver. Same skew note as global_row_number (a hot value range
    only makes one bucket bigger)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    lead = keys[0]
    cols = list(keys) + [val]

    def _minmax_partial(t: pa.Table) -> pa.Table:
        v = t.column(lead).to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table(
                {"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "lo": pa.array([int(v.min())], pa.int64()),
                "hi": pa.array([int(v.max())], pa.int64()),
            }
        )

    proj = ds.select_columns(cols).materialize()
    mm = proj.map_batches(_minmax_partial, batch_format="pyarrow").to_pandas()
    if len(mm) == 0:
        return proj.map_batches(
            lambda t: t.append_column(out_name, pa.array([], pa.int64())),
            batch_format="pyarrow",
        )
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    width = max(1, (hi - lo + n_buckets) // n_buckets)

    def _sum_partial(t: pa.Table) -> pa.Table:
        k = t.column(lead).to_numpy(zero_copy_only=False)
        v = t.column(val).to_numpy(zero_copy_only=False)
        b = np.minimum((k - lo) // width, n_buckets - 1)
        s = np.bincount(b, weights=v.astype(np.float64), minlength=n_buckets)
        # weights force float64; totals < 2^53 stay exact (documented cap)
        nz = np.flatnonzero(s)
        return pa.table(
            {
                "bucket": pa.array(nz.astype(np.int64)),
                "s": pa.array(s[nz].astype(np.int64)),
            }
        )

    hist = (
        proj.map_batches(_sum_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("bucket")["s"]
        .sum()
    )
    sums = np.zeros(n_buckets, dtype=np.int64)
    sums[hist.index.to_numpy()] = hist.to_numpy()
    offsets = np.concatenate(([0], np.cumsum(sums)[:-1]))

    def _tag(t: pa.Table) -> pa.Table:
        k = t.column(lead).to_numpy(zero_copy_only=False)
        b = np.minimum((k - lo) // width, n_buckets - 1)
        return t.append_column("_bucket", pa.array(b.astype(np.int64)))

    key_list = list(keys)

    def _per_bucket(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table(
                {
                    **{c: pa.array([], pa.int64()) for c in cols},
                    out_name: pa.array([], pa.int64()),
                }
            )
        b = int(g["_bucket"].iloc[0])
        order = np.lexsort(tuple(g[k].to_numpy() for k in reversed(key_list)))
        out = g.iloc[order][cols].reset_index(drop=True)
        out[out_name] = offsets[b] + np.cumsum(out[val].to_numpy().astype(np.int64))
        return arrow_from_pandas(out)

    return (
        proj.map_batches(_tag, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(_per_bucket, batch_format="pandas")
    )
