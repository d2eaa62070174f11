"""Similarity search over embedding columns (``list<float>``).

- ``brute_force_topk``: exact cosine top-k per query — the baseline. The
  query matrix (small) is broadcast once; each batch does one numpy matmul
  and emits its LOCAL top-k per query; a tiny final reduce keeps the global
  top-k. Work is O(N·Q·d) spread over all workers; nothing but (Q·k) rows
  per batch crosses the wire.
- ``ivf_topk``: the scale path — IVF (inverted-file) index: k-means-style
  centroids (deterministically seeded sample), each vector assigned to its
  nearest centroid at build; queries probe only ``nprobe`` nearest cells.
  Recall < 1 by design; bench measures the recall/speed trade.
- ``ivf_near_dup_pairs``: cell-bucketed near-dup (the companion to
  stages/dedup.py:embedding_near_dup_pairs for corpora whose matrix no
  longer broadcasts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from kgw_ray.functions.arrow_utils import arrow_from_pandas


def _normalize(M: np.ndarray) -> np.ndarray:
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def _empty_topk_table() -> pa.Table:
    """Typed empty result — empty Ray pulls drop their schema (pc.is_in
    pruning can legitimately empty the probed set: dead IVF cells)."""
    return pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
            "rank": pa.array([], pa.int64()),
        }
    )


_TIE_MARGIN = 32


def _topk_partial(
    bids: np.ndarray, V: np.ndarray, Q: np.ndarray, qids: np.ndarray, k: int
) -> pd.DataFrame:
    """Local top-k of one batch against all queries. V, Q pre-normalized.

    Vectorized and exact: ONE argpartition narrows each query to k +
    ``_TIE_MARGIN`` candidates, then a single row-wise lexsort orders only
    that slice by the global (sim DESC, vec_id ASC) tie-break. A query
    whose candidate window is saturated by boundary-sim ties (the only
    case where ties could hide outside the window — duplicate-heavy data)
    falls back to a full lexsort for that query alone, so an exact
    duplicate with a smaller id can never be dropped locally."""
    S = Q @ V.T  # (nq, B)
    nq, B = S.shape
    kk = min(k, B)
    P = min(B, kk + _TIE_MARGIN)
    if P >= B:
        cand = np.broadcast_to(np.arange(B), (nq, B)).copy()
    else:
        cand = np.argpartition(-S, P - 1, axis=1)[:, :P]
    csims = np.take_along_axis(S, cand, axis=1)
    cbids = bids[cand]
    order = np.lexsort((cbids, -csims), axis=1)  # per-row (sim DESC, id ASC)
    top = np.take_along_axis(cand, order[:, :kk], axis=1)
    if P < B:
        sorted_sims = np.take_along_axis(csims, order, axis=1)
        saturated = np.nonzero(sorted_sims[:, kk - 1] == sorted_sims[:, P - 1])[0]
        for qi in saturated:  # rare: > _TIE_MARGIN exact ties at the boundary
            top[qi] = np.lexsort((bids, -S[qi]))[:kk]
    rows = np.repeat(np.arange(nq), kk)
    cols = top.reshape(-1)
    return pd.DataFrame(
        {
            "query_id": qids[rows],
            "vec_id": bids[cols],
            "cosine": S[rows, cols],
        }
    )


def brute_force_topk(
    embeds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    *,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k per query. Returns (query_id, vec_id, cosine, rank)
    sorted by (query_id, rank); ties broken by vec_id ascending."""
    import ray

    Qn = _normalize(np.asarray(queries, dtype=np.float64))
    ref = ray.put((Qn, np.asarray(query_ids)))

    # task map, not an actor pool: the broadcast query matrix is trivial
    # state read zero-copy from plasma per task; pools pay startup+rampup
    # and cap concurrency (the repo-wide actor-vs-task rule, joins.py)
    def local(batch: pa.Table) -> pa.Table:
        Q, qids = ray.get(ref)
        bids = batch.column(id_col).to_numpy(zero_copy_only=False)
        V = _normalize(
            np.vstack(batch.column(vec_col).to_numpy(zero_copy_only=False)).astype(
                np.float64
            )
        )
        return arrow_from_pandas(_topk_partial(bids, V, Q, qids, k))

    partials = embeds.map_batches(local, batch_format="pyarrow")
    # final reduce: ≤ (#blocks × nq × k) rows — tiny
    df = partials.to_pandas()
    if len(df) == 0 or "query_id" not in df.columns:
        return _empty_topk_table()
    df = df.sort_values(
        ["query_id", "cosine", "vec_id"], ascending=[True, False, True]
    )
    df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df["cosine"] = df["cosine"].round(6)
    return arrow_from_pandas(
        df[["query_id", "vec_id", "cosine", "rank"]].astype(
            {"query_id": "int64", "vec_id": "int64", "rank": "int64"}
        )
    )


# ---------------------------------------------------------------------------
# IVF index
# ---------------------------------------------------------------------------


def _centroids_from_sample(M: np.ndarray, n_cells: int, iters: int = 5) -> np.ndarray:
    """Deterministic k-means on the (already sampled) matrix — seeded init,
    fixed iteration count; stands in for faiss-style training."""
    rng = np.random.default_rng(42)
    init = rng.choice(len(M), size=min(n_cells, len(M)), replace=False)
    C = M[init].copy()
    for _ in range(iters):
        assign = np.argmax(M @ C.T, axis=1)
        for c in range(len(C)):
            members = M[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 1e-12:
                    C[c] = v / n
    return C


class IVFIndex:
    """Driver-side handle: centroids + a cell-partitioned Dataset.

    ``build`` computes centroids from a driver-side sample (``sample_n``
    rows via ``ds.limit`` — deterministic), then assigns every vector to its
    cell in one map_batches pass. The assignment column is the partition key
    for probe-side pruning.
    """

    def __init__(self, centroids: np.ndarray, assigned: rd.Dataset, id_col: str, vec_col: str):
        self.centroids = centroids
        self.assigned = assigned
        self.id_col = id_col
        self.vec_col = vec_col

    @property
    def n_cells(self) -> int:
        return len(self.centroids)

    @classmethod
    def build(
        cls,
        embeds: rd.Dataset,
        *,
        n_cells: Optional[int] = None,
        sample_n: int = 2048,
        id_col: str = "vec_id",
        vec_col: str = "embedding",
    ) -> "IVFIndex":
        """``n_cells=None`` scales the cell count to the corpus:
        ``clamp(sqrt(N), 16, 4096)`` (the faiss nlist rule of thumb), so a
        cell holds ~sqrt(N) vectors instead of N/16 — a fixed 16 puts
        1/16th of a web-scale corpus in ONE map_groups group."""
        import ray

        # materialize once: the count probe, the sample pull and the
        # assignment pass must not re-execute a derived input pipeline
        # (the semi_join_dataset rule)
        embeds = embeds.materialize()
        if n_cells is None:
            n = embeds.count()
            n_cells = int(min(4096, max(16, round(np.sqrt(max(n, 1))))))
        sample_n = max(sample_n, 16 * n_cells)
        sample = embeds.limit(sample_n).to_pandas()
        if len(sample) == 0:  # empty corpus: a 0-cell index (topk is empty)
            return cls(np.zeros((0, 0), dtype=np.float64), embeds, id_col, vec_col)
        M = _normalize(np.vstack(sample[vec_col].to_numpy()).astype(np.float64))
        C = _centroids_from_sample(M, n_cells)
        ref = ray.put(C)

        # task map: the centroid matrix is trivial broadcast state
        # (actor-vs-task rule, joins.py)
        def assign(batch: pa.Table) -> pa.Table:
            C_ = ray.get(ref)
            V = _normalize(
                np.vstack(batch.column(vec_col).to_numpy(zero_copy_only=False)).astype(
                    np.float64
                )
            )
            cell = np.argmax(V @ C_.T, axis=1).astype(np.int32)
            return batch.append_column("cell", pa.array(cell, pa.int32()))

        assigned = embeds.map_batches(assign, batch_format="pyarrow")
        return cls(C, assigned.materialize(), id_col, vec_col)

    def topk(
        self, queries: np.ndarray, query_ids: np.ndarray, *, k: int = 10, nprobe: int = 4
    ) -> pa.Table:
        """Probe ``nprobe`` nearest cells per query; exact cosine within."""
        import ray
        import pyarrow.compute as pc

        if self.n_cells == 0:  # empty corpus: nothing to rank
            return _empty_topk_table()
        Qn = _normalize(np.asarray(queries, dtype=np.float64))
        qcells = np.argsort(-(Qn @ self.centroids.T), axis=1)[:, :nprobe]
        probe_cells = pa.array(sorted(set(qcells.reshape(-1).tolist())), pa.int32())
        ref = ray.put((Qn, np.asarray(query_ids), qcells))
        id_col, vec_col = self.id_col, self.vec_col

        # task map: (queries, cells) are trivial broadcast state
        def local(batch: pa.Table) -> pa.Table:
            Q, qids, qcells = ray.get(ref)
            bids = batch.column(id_col).to_numpy(zero_copy_only=False)
            cells = batch.column("cell").to_numpy(zero_copy_only=False)
            V = _normalize(
                np.vstack(batch.column(vec_col).to_numpy(zero_copy_only=False)).astype(
                    np.float64
                )
            )
            outs = []
            for qi in range(len(Q)):
                mask = np.isin(cells, qcells[qi])
                if not mask.any():
                    continue
                outs.append(
                    _topk_partial(
                        bids[mask],
                        V[mask],
                        Q[qi : qi + 1],
                        qids[qi : qi + 1],
                        k,
                    )
                )
            if not outs:
                return pa.table(
                    {
                        "query_id": pa.array([], pa.int64()),
                        "vec_id": pa.array([], pa.int64()),
                        "cosine": pa.array([], pa.float64()),
                    }
                )
            return arrow_from_pandas(pd.concat(outs, ignore_index=True))

        pruned = self.assigned.map_batches(
            lambda t: t.filter(pc.is_in(t["cell"], value_set=probe_cells)),
            batch_format="pyarrow",
        )
        partials = pruned.map_batches(local, batch_format="pyarrow")
        df = partials.to_pandas()
        if len(df) == 0 or "query_id" not in df.columns:
            return _empty_topk_table()
        df = df.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
        df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
        df["rank"] = df.groupby("query_id").cumcount() + 1
        df["cosine"] = df["cosine"].round(6)
        return arrow_from_pandas(
            df[["query_id", "vec_id", "cosine", "rank"]].astype(
                {"query_id": "int64", "vec_id": "int64", "rank": "int64"}
            )
        )


_PAIRS = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("cosine", pa.float64())])


def ivf_near_dup_pairs(
    embeds: rd.Dataset,
    *,
    threshold: float = 0.9,
    n_cells: Optional[int] = None,
    cell_cap: int = 4096,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Near-dup pairs via cell blocking: exact cosine only WITHIN each IVF
    cell (groupby(cell).map_groups) — recall trades against the all-pairs
    matmul; cross-cell near-dups are missed by design (bench reports it).

    ``cell_cap`` guards degenerate cells (e.g. a boilerplate cluster): a
    cell larger than the cap splits into contiguous id-ordered chunks and
    expands pairs only within each chunk — O(m·cap) instead of O(m²),
    with documented additional recall loss on the oversized cell."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    idx = IVFIndex.build(embeds, n_cells=n_cells, id_col=id_col, vec_col=vec_col)
    if idx.n_cells == 0:  # empty corpus: no cell column to group by
        return rd.from_arrow(_PAIRS.empty_table())

    def pairs_of_cell(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(id_col)
        ids_all = g[id_col].to_numpy()
        V_all = _normalize(np.vstack(g[vec_col].to_numpy()).astype(np.float64))
        outs = []
        for s in range(0, len(ids_all), cell_cap):
            ids = ids_all[s : s + cell_cap]
            V = V_all[s : s + cell_cap]
            if len(ids) < 2:
                continue
            S = V @ V.T
            iu, ju = np.triu_indices(len(ids), k=1)
            keep = S[iu, ju] >= threshold
            outs.append(
                pd.DataFrame(
                    {
                        "a": ids[iu[keep]],
                        "b": ids[ju[keep]],
                        "cosine": np.round(S[iu, ju][keep], 6),
                    }
                )
            )
        if not outs:
            return _PAIRS.empty_table()
        return arrow_from_pandas(pd.concat(outs, ignore_index=True))

    return idx.assigned.groupby("cell").map_groups(pairs_of_cell, batch_format="pandas")


# ---------------------------------------------------------------------------
# Distributed fixed-point k-means (exact, oracle-parity)
# ---------------------------------------------------------------------------

_KM_SCALE = 1_000_000


def _quantize_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    """Micro-unit quantization: floor(x * 1e6 + 0.5) — half-up rounding,
    identical in numpy and DuckDB (ROUND() is NOT: DuckDB rounds half away
    from zero, np.rint half-to-even)."""
    M = np.vstack(batch.column(vec_col).to_numpy(zero_copy_only=False)).astype(
        np.float64
    )
    return np.floor(M * _KM_SCALE + 0.5).astype(np.int64)


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer division truncating toward zero — DuckDB ``//`` semantics
    (numpy ``//`` floors: -7 // 2 is -4 in numpy, -3 in DuckDB)."""
    return np.where(a >= 0, a // b, -((-a) // b))


def _blobs_to_matrix(blobs, dim: int) -> np.ndarray:
    """One concat + one frombuffer for the whole batch (a per-row
    frombuffer loop is interpreter-bound on wide batches)."""
    if not blobs:
        return np.zeros((0, dim), dtype=np.int64)
    return np.frombuffer(b"".join(blobs), dtype=np.int64).reshape(len(blobs), dim)


def _km_assign(Q: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Nearest centroid per row by exact integer squared L2; ties go to the
    lowest cluster id (argmin picks the first minimum — the SQL mirror
    orders by (dist, cluster))."""
    # ||q||^2 is constant per row — argmin needs only the cross terms
    d = (C * C).sum(axis=1)[None, :] - 2 * (Q @ C.T)
    return np.argmin(d, axis=1).astype(np.int64)


def kmeans_assignments(
    embeds: rd.Dataset,
    *,
    k: int = 8,
    iters: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Distributed Lloyd's k-means over an embedding column, EXACT across
    engines: micro-unit integer arithmetic end-to-end (quantize half-up,
    integer distances, truncating-division centroid updates), seeded by
    the k smallest vec_ids, fixed ``iters`` assignment passes.

    Physical plan: ONE materialized quantized hub (int64 blobs in the
    object store), then per iteration an embarrassingly parallel task map
    emitting (cluster, count, sum-vector) partials — k x dim per BLOCK
    crosses the wire, merged on the driver, and the new centroid matrix is
    ``ray.put`` for the next pass. No shuffle anywhere; ``iters`` passes
    over the hub is the textbook distributed k-means exchange pattern.
    Empty clusters keep their previous centroid.
    """
    import ray

    def quant(t: pa.Table) -> pa.Table:
        Q = _quantize_matrix(t, vec_col)
        return pa.table(
            {
                id_col: t.column(id_col),
                "qblob": pa.array([q.tobytes() for q in Q], pa.binary()),
            }
        )

    hub = embeds.map_batches(quant, batch_format="pyarrow").materialize()

    # seed pull: per-block k smallest ids, merged on the driver (min-k is
    # a distributed_topk shape — ≤ #blocks × k rows cross the wire)
    def block_min_k(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(np.isin(ids, np.sort(ids)[:k])))

    init = hub.map_batches(block_min_k, batch_format="pyarrow").to_pandas()
    if id_col not in init.columns or len(init) == 0:
        # empty input: the pandas pull drops its schema — return a TYPED
        # empty assignment table (the repo-wide empty-pull rule)
        return rd.from_arrow(
            pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                }
            )
        )
    init = init.sort_values(id_col).head(k)
    C = np.vstack([np.frombuffer(b, dtype=np.int64) for b in init["qblob"]])

    def partial_factory(ref):
        def partial(t: pa.Table) -> pa.Table:
            Cc = ray.get(ref)
            Q = _blobs_to_matrix(t["qblob"].to_pylist(), Cc.shape[1])
            a = _km_assign(Q, Cc)
            sums = np.zeros_like(Cc)
            np.add.at(sums, a, Q)
            cnts = np.bincount(a, minlength=len(Cc)).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(len(Cc), dtype=np.int64)),
                    "cnt": pa.array(cnts),
                    "sums": pa.array([s.tobytes() for s in sums], pa.binary()),
                }
            )

        return partial

    for _ in range(iters - 1):
        ref = ray.put(C)
        parts = hub.map_batches(
            partial_factory(ref), batch_format="pyarrow"
        ).to_pandas()
        S = np.zeros_like(C)
        n = np.zeros(len(C), dtype=np.int64)
        for _, row in parts.iterrows():
            S[int(row["cluster"])] += np.frombuffer(row["sums"], dtype=np.int64)
            n[int(row["cluster"])] += int(row["cnt"])
        newC = C.copy()
        nz = n > 0
        newC[nz] = _trunc_div(S[nz], n[nz][:, None])
        C = newC

    ref = ray.put(C)

    def assign_out(t: pa.Table) -> pa.Table:
        Cc = ray.get(ref)
        Q = _blobs_to_matrix(t["qblob"].to_pylist(), Cc.shape[1])
        return pa.table(
            {
                id_col: t.column(id_col),
                "cluster": pa.array(_km_assign(Q, Cc)),
            }
        )

    return hub.map_batches(assign_out, batch_format="pyarrow")


def kmeans_sql(
    k: int = 8,
    iters: int = 3,
    scale: int = _KM_SCALE,
    vec_expr: str = "embedding",
) -> str:
    """The exact SQL mirror of ``kmeans_assignments``: the same quantized
    integer iteration unrolled into CTEs (the pagerank-oracle technique).
    Centroids live as (cluster, pos, val) rows; DuckDB's truncating ``//``
    matches ``_trunc_div`` by construction. ``vec_expr`` substitutes the
    vector column (e.g. a ``list_slice`` for product-quantization
    subspaces)."""
    ctes = [
        f"""q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS pos,
         CAST(floor(CAST(({vec_expr})[i] AS DOUBLE) * {scale} + 0.5) AS BIGINT) AS val
  FROM embeddings, UNNEST(generate_series(1, len({vec_expr}))) AS t(i)
)""",
        f"""ranked AS (
  SELECT vec_id, ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS cluster
  FROM (SELECT DISTINCT vec_id FROM embeddings ORDER BY vec_id LIMIT {k})
)""",
        """c0 AS (
  SELECT r.cluster, q.pos, q.val FROM ranked r JOIN q USING (vec_id)
)""",
    ]
    for t in range(1, iters + 1):
        ctes.append(
            f"""d{t} AS (
  SELECT q.vec_id, c.cluster,
         SUM((q.val - c.val) * (q.val - c.val)) AS dist
  FROM q JOIN c{t - 1} c ON q.pos = c.pos
  GROUP BY q.vec_id, c.cluster
)"""
        )
        ctes.append(
            f"""a{t} AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY dist, cluster) AS rn
    FROM d{t}
  ) WHERE rn = 1
)"""
        )
        if t < iters:
            ctes.append(
                f"""c{t} AS (
  SELECT p.cluster, p.pos, COALESCE(u.val, p.val) AS val
  FROM c{t - 1} p LEFT JOIN (
    SELECT a.cluster, q.pos, SUM(q.val) // COUNT(*) AS val
    FROM a{t} a JOIN q USING (vec_id) GROUP BY a.cluster, q.pos
  ) u ON p.cluster = u.cluster AND p.pos = u.pos
)"""
            )
    return "WITH " + ",\n".join(ctes) + f"\nSELECT vec_id, cluster FROM a{iters}"
