"""Deduplication suite for training-data pipelines.

Five dedup families, all expressed Ray-Data-first:

- **exact**: content hash → groupby(hash) → first-wins (min doc_id) — the
  distributed analog of the reference's in-memory ``seen_node_ids`` set
  (kgw/biomedicine/_primekg.py:182,210-211), scaled past RAM by the shuffle.
- **MinHash + LSH**: shingle → minhash signature → band buckets →
  groupby(band, bucket) → in-bucket candidate pairs → exact-Jaccard verify →
  connected components → keep one doc per component.
- **SimHash**: 64-bit simhash per doc; near-dup blocking via 4×16-bit band
  buckets (Hamming ≤ 3 guaranteed to collide in ≥1 band by pigeonhole).
- **n-gram Jaccard**: the exact verifier used inside the MinHash pipeline
  (and standalone for candidate pair lists).
- **embedding-cosine**: near-dup by cosine ≥ t over an embedding column —
  exact path broadcasts the (small) matrix; scale path buckets by
  random-hyperplane LSH first (stages/similarity.py).

Scale notes: every family shuffles ONLY compact derived keys (16-byte hash,
uint64 bands), never text. Band buckets for a 10^12-doc corpus are heavily
skewed on boilerplate — ``max_bucket`` caps the candidate fan-out per bucket
(documented truncation, logged via the ``truncated`` column) the standard
web-dedup mitigation for degenerate buckets.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from kgw_ray.functions.arrow_utils import arrow_from_pandas
from kgw_ray.functions.tokenize import py_tokens
from kgw_ray.stages import agg
from kgw_ray.stages.agg import _concat, _materialized, _per_block, as_dataset, fold, pull

# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_keep(ds: rd.Dataset, *, text_col: str = "text", id_col: str = "doc_id") -> rd.Dataset:
    """Rows that survive exact dedup: first-wins (min id) per distinct text.

    Pipeline: hash per batch (md5, 16 bytes — the shuffle key, never the
    text) → groupby(hash).min(id) → semi-join back by id. Returns
    (doc_id, content_md5).
    """
    from ray.data.aggregate import Min

    from kgw_ray.stages.textstats import content_md5_list

    def hash_batch(batch: pa.Table) -> pa.Table:
        md5s = content_md5_list(batch.column(text_col).to_pylist())
        return pa.table(
            {
                id_col: batch.column(id_col),
                "content_md5": pa.array(md5s, pa.string()),
            }
        )

    hashed = ds.map_batches(hash_batch, batch_format="pyarrow")
    keep = hashed.groupby("content_md5").aggregate(Min(id_col, alias_name=id_col))
    return keep.select_columns([id_col, "content_md5"])


# ---------------------------------------------------------------------------
# MinHash signatures (vectorized)
# ---------------------------------------------------------------------------

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)

# splitmix64 finalizer, vectorized — ONE canonical copy lives in
# functions/porthash (with its DuckDB twin mix64_sql); re-exported here
# under the historical name every minhash/bloom call site uses.
from kgw_ray.functions.porthash import mix64 as _mix64  # noqa: E402


def _hash_tokens(toks) -> np.ndarray:
    """Deterministic uint64 token hashes, vectorized (pandas C siphash)."""
    import pandas as pd

    if len(toks) == 0:
        return np.zeros(0, dtype=np.uint64)
    return pd.util.hash_array(
        np.asarray(toks, dtype=object), hash_key="kgw_ray_dedup_00"
    )


_POLY_B = np.uint64(1000003)
# modular inverse of B mod 2^64 (B odd → invertible); enables a fully
# vectorized polynomial prefix: pre[i] = B^(i-1) · cumsum(th · B^(-j))
_POLY_B_INV = np.uint64(pow(1000003, -1, 1 << 64))


def _window_hashes(th: np.ndarray, k: int) -> np.ndarray:
    """Rolling polynomial hash of every k-token window — O(n), vectorized
    (cumprod/cumsum with intended uint64 wraparound)."""
    n = len(th)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    if n < k:
        k = n
    with np.errstate(over="ignore"):
        invpow = np.cumprod(np.full(n, _POLY_B_INV, dtype=np.uint64)) * _POLY_B  # inv^j
        S = np.cumsum(th * invpow)
        Bpow = np.cumprod(np.full(n, _POLY_B, dtype=np.uint64)) * _POLY_B_INV  # B^j
        pre = np.empty(n + 1, dtype=np.uint64)
        pre[0] = np.uint64(0)
        pre[1:] = Bpow * S
        win = pre[k:] - pre[:-k] * (Bpow[k - 1] * _POLY_B)
    return _mix64(win)


def shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Word k-shingle hash set of a document (uint64, unique, sorted)."""
    w = _window_hashes(_hash_tokens(py_tokens(text)), k)
    return np.unique(w)


def batch_shingle_hashes(texts: list, k: int = 5):
    """Vectorized batch shingles: ONE hash_array over all tokens of the
    batch, ONE rolling-window pass over the flat stream (windows crossing
    document boundaries masked out). Returns (flat_shingles, doc_offsets)
    where doc i's (non-unique) shingles are flat[off[i]:off[i+1]].

    Identical values to ``shingle_hashes`` per doc (property-tested)."""
    tok_lists = [py_tokens(t) for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
    flat_toks: list = []
    for t in tok_lists:
        flat_toks.extend(t)
    th = _hash_tokens(flat_toks)
    out: list[np.ndarray] = []
    pos = 0
    for ln in lens:
        out.append(_window_hashes(th[pos : pos + ln], k))
        pos += ln
    offs = np.concatenate(([0], np.cumsum([len(o) for o in out])))
    flat = np.concatenate(out) if out else np.zeros(0, dtype=np.uint64)
    return flat, offs


def _doc_shingle_sets(texts: list, k: int = 5) -> list:
    """Each document's UNIQUE shingle hashes (sorted uint64 arrays), from
    one ``batch_shingle_hashes`` pass. A document is one row, so its set
    is complete within the batch that holds it."""
    flat, offs = batch_shingle_hashes(texts, k)
    return [np.unique(flat[offs[i] : offs[i + 1]]) for i in range(len(texts))]


def minhash_signature(sh: np.ndarray, num_perm: int = 64) -> np.ndarray:
    """num_perm minhash values via seeded splitmix64 mixes (vectorized:
    one (num_perm × |shingles|) broadcast min)."""
    if sh.size == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    seeds = _mix64(np.arange(1, num_perm + 1, dtype=np.uint64))
    # (P, S) mix: h_p(s) = mix(s ^ seed_p)
    return _mix64(sh[None, :] ^ seeds[:, None]).min(axis=1)


def _band_rows_from_flat(
    ids: np.ndarray, flat: np.ndarray, offs: np.ndarray, num_perm: int, bands: int
) -> pa.Table:
    """(doc ids, flat shingle stream, offsets) → melted (doc_id, band,
    bucket) rows. ONE P×S permutation-mix with per-doc mins via a single
    reduceat per axis — shared by the text path (``MinHashLSH``) and the
    shingle-hub path (``minhash_dedup_keep``) so band buckets can never
    diverge between them."""
    n = len(ids)
    r = num_perm // bands
    seeds = _mix64(np.arange(1, num_perm + 1, dtype=np.uint64))
    sigs = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    nonempty = np.nonzero(np.diff(offs) > 0)[0]
    if len(flat):
        mixed = _mix64(flat[None, :] ^ seeds[:, None])  # (P, S_total)
        starts = offs[nonempty]
        mins = np.minimum.reduceat(mixed, starts, axis=1)
        # reduceat with consecutive equal starts would misbehave; starts
        # are strictly increasing over nonempty docs, and each segment
        # ends at the next start (last runs to end) — exactly our layout
        sigs[nonempty] = mins.T
    # bucket hash per band: mix the r signature values together
    bands_out = np.empty((n, bands), dtype=np.uint64)
    for b in range(bands):
        sl = sigs[:, b * r : (b + 1) * r]
        acc = np.full(n, np.uint64(b + 1), dtype=np.uint64)
        for j in range(r):
            acc = _mix64(acc ^ sl[:, j])
        bands_out[:, b] = acc
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()),
            "bucket": pa.array(bands_out.reshape(-1)),
        }
    )


class MinHashLSH:
    """(doc_id, text) → band-key rows for LSH blocking.

    Emits one row per (doc, band): (doc_id, band, bucket) where bucket is
    the 64-bit hash of the band's signature slice. Buckets with >1 doc are
    near-dup candidates. num_perm=64, bands=16 → rows_per_band=4 targets
    Jaccard ≈ (1/16)^(1/4) ≈ 0.5 threshold.
    """

    def __init__(self, num_perm: int = 64, bands: int = 16, shingle_k: int = 5):
        assert num_perm % bands == 0
        self.num_perm = num_perm
        self.bands = bands
        self.r = num_perm // bands
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        flat, offs = batch_shingle_hashes(texts, self.k)
        return _band_rows_from_flat(ids, flat, offs, self.num_perm, self.bands)


def _unpack_shingle_blobs(blobs) -> tuple[np.ndarray, np.ndarray]:
    """List of uint64 ``tobytes()`` blobs (or None) → (flat, offsets)."""
    arrs = [
        np.frombuffer(b, dtype=np.uint64) if b else np.zeros(0, dtype=np.uint64)
        for b in blobs
    ]
    offs = np.concatenate(([0], np.cumsum([len(a) for a in arrs])))
    flat = np.concatenate(arrs) if arrs else np.zeros(0, dtype=np.uint64)
    return flat, offs


def shingle_blob_batch(batch: pa.Table, *, shingle_k: int = 5, keep: Sequence[str] = ()) -> pa.Table:
    """(doc_id, text, …) → (doc_id, keep…, shingles) with the per-doc UNIQUE
    shingle set encoded as a uint64 ``tobytes()`` blob — the single-scan
    sidecar the whole MinHash pipeline derives from (bands, verify and
    survivor selection all read this, never the corpus again)."""
    texts = batch.column("text").to_pylist()
    blobs = [a.tobytes() for a in _doc_shingle_sets(texts, shingle_k)]
    cols = {"doc_id": batch.column("doc_id")}
    for c in keep:
        if c != "doc_id":
            cols[c] = batch.column(c)
    cols["shingles"] = pa.array(blobs, pa.large_binary())
    return pa.table(cols)


def _bucket_pairs(ids: np.ndarray, buckets: np.ndarray, max_bucket: int) -> pd.DataFrame:
    """Vectorized in-group pair expansion: sort by bucket, find runs, emit
    triu pairs per run. Runs past ``max_bucket`` emit stride-1 AND stride-2
    chain pairs instead of O(m²) triu — the skew guard for boilerplate
    buckets. Truncation note: chains keep a bucket's TRUE duplicates
    connected only while the verify stage keeps the chain links; stride-2
    links survive any single interleaved false collision, but adversarial
    alternations can still split groups — a documented bounded-recall
    trade, standard degenerate-bucket mitigation."""
    order = np.lexsort((ids, buckets))
    b, i = buckets[order], ids[order]
    starts = np.concatenate(([0], np.nonzero(np.diff(b))[0] + 1, [len(b)]))
    out_a, out_b = [], []
    for s, e in zip(starts[:-1], starts[1:]):
        m = e - s
        if m < 2:
            continue
        run = np.unique(i[s:e])
        m = len(run)
        if m < 2:
            continue
        if m > max_bucket:
            out_a.append(run[:-1])
            out_b.append(run[1:])
            if m > 2:  # stride-2 links tolerate one false-collision gap
                out_a.append(run[:-2])
                out_b.append(run[2:])
        else:
            iu, ju = np.triu_indices(m, k=1)
            out_a.append(run[iu])
            out_b.append(run[ju])
    if not out_a:
        return pd.DataFrame(
            {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}
        )
    df = pd.DataFrame({"a": np.concatenate(out_a), "b": np.concatenate(out_b)})
    return df.drop_duplicates(ignore_index=True)


def lsh_candidate_pairs(
    band_rows: rd.Dataset, *, max_bucket: int = 64, coarse_groups: bool = True
) -> rd.Dataset:
    """Candidate pairs (a < b) from band buckets; may contain cross-band
    duplicates (consumers dedup — tiny relative to the corpus).

    Two grouping granularities, both ONE shuffle:

    - ``coarse_groups=True`` (default): groupby(``band``) → ``bands`` groups,
      bucket runs expanded vectorized inside each group. Right up to ~10^7
      docs per band group; group-count overhead is constant.
    - ``coarse_groups=False`` (web scale): groupby(``band, bucket``) → one
      group per bucket, each tiny; required when a single band's rows exceed
      a worker (10^9+ docs), at the price of per-group scheduling overhead.
    """
    if coarse_groups:

        def pairs_of_band(g: pd.DataFrame) -> pa.Table:
            # arrow_from_pandas strips pandas schema metadata, which breaks
            # schema dedup in downstream hash shuffles (~20x slower)
            return arrow_from_pandas(
                _bucket_pairs(
                    g["doc_id"].to_numpy(), g["bucket"].to_numpy(), max_bucket
                )
            )

        return band_rows.groupby("band").map_groups(
            pairs_of_band, batch_format="pandas"
        )

    def pairs_of_bucket(g: pd.DataFrame) -> pa.Table:
        ids = np.unique(g["doc_id"].to_numpy())
        m = len(ids)
        if m < 2:
            out = pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}
            )
        elif m > max_bucket:
            out = pd.DataFrame(
                {
                    "a": np.concatenate([ids[:-1], ids[:-2]]),
                    "b": np.concatenate([ids[1:], ids[2:]]),
                }
            )
        else:
            iu, ju = np.triu_indices(m, k=1)
            out = pd.DataFrame({"a": ids[iu], "b": ids[ju]})
        return arrow_from_pandas(out)

    return band_rows.groupby(["band", "bucket"]).map_groups(
        pairs_of_bucket, batch_format="pandas"
    )


def _jaccard_of_shingle_lists(sa_list, sb_list) -> np.ndarray:
    """Exact Jaccard per (shingle-set, shingle-set) row pair. Accepts
    uint64 arrays or their ``tobytes()`` encoding (the shuffle-join path
    ships sets as binary — Arrow's hash join rejects list payloads)."""
    jac = np.empty(len(sa_list), dtype=np.float64)
    for i, (sa, sb) in enumerate(zip(sa_list, sb_list)):
        if sa is None or sb is None or len(sa) == 0 or len(sb) == 0:
            jac[i] = 0.0
            continue
        if isinstance(sa, (bytes, bytearray)):
            sa = np.frombuffer(sa, dtype=np.uint64)
        else:
            sa = np.asarray(sa, dtype=np.uint64)
        if isinstance(sb, (bytes, bytearray)):
            sb = np.frombuffer(sb, dtype=np.uint64)
        else:
            sb = np.asarray(sb, dtype=np.uint64)
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        jac[i] = inter / (len(sa) + len(sb) - inter)
    return jac


def jaccard_verify_pairs(
    pairs: rd.Dataset,
    docs: Optional[rd.Dataset] = None,
    *,
    threshold: float = 0.5,
    shingle_k: int = 5,
    text_col: str = "text",
    broadcast_limit: int = 500_000,
    force_shuffle: bool = False,
    shingles_ds: Optional[rd.Dataset] = None,
) -> rd.Dataset:
    """Exact n-gram Jaccard for candidate pairs; keep pairs ≥ threshold.
    Returns (a, b, jaccard) with jaccard rounded to 6 dp.

    Shingle source: pass ``shingles_ds`` — a (doc_id, shingles) dataset of
    uint64-blob shingle sets (``shingle_blob_batch``) — to reuse sets
    already computed upstream (the single-scan path ``minhash_dedup_keep``
    takes); otherwise ``docs`` (doc_id, text) is shingled here.

    Two physical paths, chosen by candidate-pair count:

    - **broadcast** (≤ ``broadcast_limit`` pairs): candidate ids are pulled
      once, the candidate-only shingle sets are filtered map-side and put
      in the object store as one map probed per verify batch. Zero shuffle.
    - **shuffle join** (beyond, or ``force_shuffle``): pairs are deduped
      with a native hash aggregate, candidate shingle sets are taken as
      a (doc_id, shingles) Dataset, and two hash-partitioned joins attach
      each side's shingles to its pairs — nothing corpus-sized ever
      touches the driver. The 10^12-doc path.
    """
    import ray

    import pyarrow.compute as pc

    from kgw_ray.stages.joins import large_join, semi_join_dataset

    if shingles_ds is None and docs is None:
        raise ValueError("jaccard_verify_pairs needs docs or shingles_ds")

    # candidate pairs are compact (two int64 per row) — materialize once so
    # the size probe and the chosen path don't re-execute the LSH pipeline
    pairs = pairs.materialize()
    if pairs.count() == 0:
        # dup-free corpus: no candidates at all (an empty Ray dataset loses
        # its schema on to_pandas, so return an explicitly-typed empty set)
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )

    if not force_shuffle and pairs.count() <= broadcast_limit:
        cand_ids_tbl = pull(pairs).select(["a", "b"]).to_pandas().drop_duplicates(
            ignore_index=True
        )
        # re-feed the deduped (small) pair set so cross-band duplicates are
        # verified once; from_arrow yields ONE block, so a LARGE pair set
        # must repartition or the per-pair verify loop runs serially in one
        # task (small sets skip the extra op — one task is already optimal)
        pairs = rd.from_arrow(arrow_from_pandas(cand_ids_tbl))
        n_parts = min(32, len(cand_ids_tbl) // 5000)
        if n_parts > 1:
            pairs = pairs.repartition(n_parts)
        cand_ids = set(cand_ids_tbl["a"]) | set(cand_ids_tbl["b"])
        # value-set built ONCE on the driver; tasks read it zero-copy from
        # plasma (task map beats an actor pool for trivial state)
        id_arr_ref = ray.put(pa.array(sorted(cand_ids)))

        def filter_cands(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t["doc_id"], value_set=ray.get(id_arr_ref)))

        sh_map = {}
        if shingles_ds is not None:
            # single-scan path: candidate shingle sets come from the hub —
            # no re-read, no re-shingle; only candidate rows reach the driver
            cand_sh = shingles_ds.select_columns(["doc_id", "shingles"]).map_batches(
                filter_cands, batch_format="pyarrow"
            )
            for b in cand_sh.iter_batches(batch_format="pyarrow"):
                for d, blob in zip(
                    b.column("doc_id").to_pylist(), b.column("shingles").to_pylist()
                ):
                    sh_map[d] = (
                        np.frombuffer(blob, dtype=np.uint64)
                        if blob
                        else np.zeros(0, dtype=np.uint64)
                    )
        else:
            docs_small = docs.map_batches(
                filter_cands, batch_format="pyarrow"
            ).select_columns(["doc_id", text_col])
            for b in docs_small.iter_batches(batch_format="pyarrow"):
                for d, t in zip(
                    b.column("doc_id").to_pylist(), b.column(text_col).to_pylist()
                ):
                    sh_map[d] = shingle_hashes(t or "", shingle_k)
        ref = ray.put(sh_map)

        # task map, not an actor pool: the broadcast shingle map is read
        # zero-copy from plasma per task (actor-vs-task rule, joins.py)
        def verify_bc(batch: pa.Table) -> pa.Table:
            sh = ray.get(ref)
            a = batch.column("a").to_pylist()
            b = batch.column("b").to_pylist()
            jac = _jaccard_of_shingle_lists(
                [sh.get(x) for x in a], [sh.get(y) for y in b]
            )
            out = batch.append_column("jaccard", pa.array(np.round(jac, 6)))
            return out.filter(pa.array(jac >= threshold))

        return pairs.map_batches(verify_bc, batch_format="pyarrow")

    # ---- shuffle-join path: nothing corpus-sized on the driver ----------
    from ray.data.aggregate import Count

    pairs = (
        pairs.select_columns(["a", "b"])
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def melt_ids(t: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                t.column("a").to_numpy(zero_copy_only=False),
                t.column("b").to_numpy(zero_copy_only=False),
            ]
        )
        return pa.table({"doc_id": pa.array(np.unique(ids), pa.int64())})

    cand_ids_ds = (
        pairs.map_batches(melt_ids, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    if shingles_ds is not None:
        # single-scan path: the hub already holds the blobs — semi-join it
        cand_src = semi_join_dataset(
            shingles_ds.select_columns(["doc_id", "shingles"]), cand_ids_ds, on="doc_id"
        )
        sh_ds = cand_src.materialize()
    else:
        cand_docs = semi_join_dataset(docs, cand_ids_ds, on="doc_id")

        def shingles_of(t: pa.Table) -> pa.Table:
            texts = t.column(text_col).to_pylist()
            # binary encoding: Arrow's hash join rejects list<> payload columns
            sets = [a.tobytes() for a in _doc_shingle_sets(texts, shingle_k)]
            return pa.table(
                {
                    "doc_id": t.column("doc_id"),
                    "shingles": pa.array(sets, pa.large_binary()),
                }
            )

        # candidate-only intermediates are small; materializing them runs the
        # two hash shuffles one at a time (concurrent aggregator-actor sets
        # starve each other on small clusters — stages/joins.py note)
        sh_ds = cand_docs.map_batches(shingles_of, batch_format="pyarrow").materialize()
    sh_a = sh_ds.rename_columns({"doc_id": "a", "shingles": "sh_a"})
    sh_b = sh_ds.rename_columns({"doc_id": "b", "shingles": "sh_b"})
    j = large_join(pairs, sh_a, on=("a",)).materialize()
    j = large_join(j, sh_b, on=("b",))

    def verify(batch: pa.Table) -> pa.Table:
        jac = _jaccard_of_shingle_lists(
            batch.column("sh_a").to_pylist(), batch.column("sh_b").to_pylist()
        )
        out = pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "jaccard": pa.array(np.round(jac, 6)),
            }
        )
        return out.filter(pa.array(jac >= threshold))

    return j.map_batches(verify, batch_format="pyarrow")


def _hub_verified_pairs(
    refs: list, *, threshold: float, num_perm: int, bands: int, max_bucket: int
) -> pa.Table:
    """LSH candidates and their exact Jaccard verify for a driver-sized
    shingle hub, from block tasks on the hub's block refs (no Ray Data
    execution): one round returns every block's (doc_id, band, bucket)
    rows, the driver pairs each (band, bucket) run under
    :func:`_bucket_pairs`' ``max_bucket`` rule, a second round returns the
    candidates' shingle sets, and the driver keeps the pairs at or above
    ``threshold``. Returns (a, b) int64 pairs, a < b, each once."""

    def band_rows(t: pa.Table, _start: int) -> pa.Table:
        flat, offs = _unpack_shingle_blobs(t.column("shingles").to_pylist())
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return _band_rows_from_flat(ids, flat, offs, num_perm, bands)

    rows = _concat(ray.get(_per_block(band_rows, refs)))
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    if rows.num_rows == 0:
        return empty
    ids = rows.column("doc_id").to_numpy()
    band = rows.column("band").to_numpy()
    bucket = rows.column("bucket").to_numpy()
    cands = pd.concat(
        [_bucket_pairs(ids[band == k], bucket[band == k], max_bucket) for k in range(bands)]
    ).drop_duplicates(ignore_index=True)
    if len(cands) == 0:
        return empty
    a, b = cands["a"].to_numpy(), cands["b"].to_numpy()
    cand_ref = ray.put(pa.array(np.unique(np.concatenate([a, b])), pa.int64()))

    def cand_sets(t: pa.Table, _start: int) -> pa.Table:
        keep = pc.is_in(t.column("doc_id"), value_set=ray.get(cand_ref))
        return t.select(["doc_id", "shingles"]).filter(keep)

    sets = _concat(ray.get(_per_block(cand_sets, refs)))
    sh = dict(zip(sets.column("doc_id").to_pylist(), sets.column("shingles").to_pylist()))
    jac = _jaccard_of_shingle_lists([sh.get(x) for x in a.tolist()], [sh.get(y) for y in b.tolist()])
    ok = jac >= threshold
    return pa.table({"a": pa.array(a[ok], pa.int64()), "b": pa.array(b[ok], pa.int64())})


def minhash_dedup_keep(
    docs: rd.Dataset,
    *,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 5,
    keep_columns: Optional[list] = None,
    verify_broadcast_limit: int = 500_000,
    force_shuffle_verify: bool = False,
    coarse_groups: bool = True,
    max_bucket: int = 64,
    driver_pair_limit: int = 5_000_000,
    drop_broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Full near-dup dedup: LSH candidates → Jaccard verify → connected
    components → keep min doc_id per component.

    Returns (doc_id,) survivors by default; ``keep_columns`` returns those
    columns of the surviving input rows instead. The result is lazy: the
    survivor anti-join runs when the consumer reads it.

    **Single-scan design**: the corpus is read ONCE into a materialized
    shingle hub (doc_id, keep columns, unique-shingle uint64 blobs). Band
    rows, the Jaccard verify (every physical path) and survivor selection
    all derive from the hub — no second corpus read anywhere. The hub is an
    object-store checkpoint (≈ corpus-sized, spills to disk; the 100 TB
    trade is one spillable checkpoint vs three full input scans).

    **Physical plans.** While hub rows × ``bands`` fit ``agg.DRIVER_LIMIT``
    (and ``force_shuffle_verify`` is off) candidates and verify come from
    block tasks on the hub's refs (:func:`_hub_verified_pairs`): the hub
    build and the consumer's read are the only two Ray Data executions.
    Beyond it, band rows are a ``map_batches`` over the hub,
    ``lsh_candidate_pairs`` groups them (``coarse_groups`` picks the
    grouping; both give the same pairs) and ``jaccard_verify_pairs``
    verifies (``force_shuffle_verify`` / ``verify_broadcast_limit`` pick
    its path). ``max_bucket`` is the skew guard of every path.

    **Components and drop set**: up to ``driver_pair_limit`` verified
    pairs merge with the driver union-find
    (``stages/canonicalize.py:union_find``; pairs, never members of the
    corpus), beyond it with the distributed ``connected_components``.
    Survivors are selected with the size-hybrid ``anti_join`` (broadcast
    value-set up to ``drop_broadcast_limit`` drop ids, hash-partitioned
    ``left_anti`` beyond). Setting the limits to 0 pins the distributed
    variants (as the tests do).
    """
    from kgw_ray.stages.canonicalize import connected_components, union_find
    from kgw_ray.stages.joins import anti_join

    keep_columns = keep_columns or ["doc_id"]

    # ONE corpus scan: shingle sets + carried keep-columns, checkpointed.
    def hub_fn(batch: pa.Table) -> pa.Table:
        return shingle_blob_batch(batch, shingle_k=shingle_k, keep=keep_columns)

    in_cols = list(dict.fromkeys(["doc_id", "text", *keep_columns]))
    hub, refs, rows, _ = _materialized(
        docs.select_columns(in_cols).map_batches(hub_fn, batch_format="pyarrow")
    )

    verified: "rd.Dataset | pa.Table"
    if not force_shuffle_verify and sum(rows) * bands <= agg.DRIVER_LIMIT:
        verified = _hub_verified_pairs(
            refs,
            threshold=threshold,
            num_perm=num_perm,
            bands=bands,
            max_bucket=max_bucket,
        )
        n_verified = verified.num_rows
    else:
        # band rows from stored shingles — signature math identical to the
        # text path (both call _band_rows_from_flat)
        def band_fn(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            flat, offs = _unpack_shingle_blobs(batch.column("shingles").to_pylist())
            return _band_rows_from_flat(ids, flat, offs, num_perm, bands)

        band_rows = hub.select_columns(["doc_id", "shingles"]).map_batches(
            band_fn, batch_format="pyarrow"
        )
        cands = lsh_candidate_pairs(
            band_rows, max_bucket=max_bucket, coarse_groups=coarse_groups
        )
        # materialized ONCE: the size probe must not pull an over-limit
        # pair set to the driver, and the component fallback must not
        # re-execute the verify DAG
        verified = jaccard_verify_pairs(
            cands,
            threshold=threshold,
            shingle_k=shingle_k,
            broadcast_limit=verify_broadcast_limit,
            force_shuffle=force_shuffle_verify,
            shingles_ds=hub,
        ).select_columns(["a", "b"]).materialize()
        n_verified = verified.count()

    survivors_src = hub.select_columns(
        list(dict.fromkeys(["doc_id", *keep_columns]))
    )
    drop_ds: "rd.Dataset | pa.Table | None"
    if n_verified == 0:
        drop_ds = None
    elif n_verified <= driver_pair_limit:
        pairs = verified if isinstance(verified, pa.Table) else pull(verified)
        members, roots = union_find(
            pairs.column("a").to_pylist(), pairs.column("b").to_pylist()
        )
        # the root is the component's smallest doc_id: first wins
        drop_ids = [m for m, r in zip(members, roots) if m != r]
        drop_ds = pa.table({"doc_id": pa.array(drop_ids, pa.int64())})
    else:
        # zero-pad ids so lexicographic min-label == numeric min (first-wins);
        # non-keeper members flow straight into the anti-join
        comps = connected_components(
            as_dataset(verified).map_batches(
                lambda t: pa.table(
                    {
                        "a": pc.utf8_lpad(pc.cast(t["a"], pa.string()), 20, "0"),
                        "b": pc.utf8_lpad(pc.cast(t["b"], pa.string()), 20, "0"),
                    }
                ),
                batch_format="pyarrow",
            )
        )

        def non_keepers(t: pa.Table) -> pa.Table:
            kept = t.filter(pc.invert(pc.equal(t["id"], t["component"])))
            return pa.table({"doc_id": pc.cast(kept["id"], pa.int64())})

        drop_ds = as_dataset(comps).map_batches(non_keepers, batch_format="pyarrow")

    if drop_ds is None:
        return survivors_src.select_columns(keep_columns)
    return anti_join(
        survivors_src, drop_ds, on="doc_id", broadcast_limit=drop_broadcast_limit
    ).select_columns(keep_columns)


def exact_jaccard_pairs(
    docs: rd.Dataset,
    *,
    threshold: float = 0.5,
    shingle_k: int = 5,
    n_shards: int = 64,
    max_df: Optional[int] = 4096,
    size_broadcast_limit: int = 5_000_000,
    metric: str = "jaccard",
) -> rd.Dataset:
    """EXACT n-gram Jaccard pairs (a < b, J ≥ threshold) via a distributed
    shingle inverted index — no LSH approximation, no all-pairs scan:

    1. one corpus pass emits (doc_id, shingle) rows (unique per doc),
    2. ONE shuffle groups them by ``shingle % n_shards`` (the sharded-
       coarse grouping — per-shingle groups would pay per-group Python on
       millions of tiny groups, a pure shard split keeps groups ~|rows|/
       n_shards with vectorized run expansion inside),
    3. co-occurring docs per shingle become candidate pairs, a count
       fold (stages/agg.py:fold) gives each pair's intersection size,
    4. per-doc set sizes (a count fold over the shingle rows) attach
       (broadcast map under ``size_broadcast_limit`` docs, hash joins
       beyond) and J = i / (na + nb - i) filters exactly.

    ``max_df`` drops shingles occurring in more documents (df-pruning, the
    standard inverted-index skew guard): a shingle shared by >4096 docs is
    boilerplate and contributes O(df²) candidate pairs. Pruning can only
    LOWER a pair's computed intersection, so at web scale this is a
    documented precision-preserving recall trade. The oracle-gated
    pipeline wrapper (``training_data.dedup_jaccard_pairs``) passes
    ``max_df=None`` so its EXACT label holds unconditionally — the cap is
    an opt-in for scale callers, never a silent default under the gate.

    Output: (a, b, jaccard) with jaccard rounded to 6 dp.

    ``metric="containment"`` swaps the final filter formula to max
    containment i / min(na, nb) (Broder's C — the asymmetric
    quote/subset-detection signal that Jaccard under-scores when one doc
    embeds another much larger one); everything upstream (shingle index,
    sharded pair enumeration, intersection count) is byte-identical, and
    the output column is named ``containment``.
    """
    from kgw_ray.stages.joins import large_join

    def shingle_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        per_doc = _doc_shingle_sets(texts, shingle_k)
        counts = np.fromiter((len(a) for a in per_doc), dtype=np.int64, count=len(per_doc))
        sh = np.concatenate(per_doc) if per_doc else np.zeros(0, dtype=np.uint64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, counts), pa.int64()),
                "shingle": pa.array(sh),
                "shard": pa.array((sh % np.uint64(n_shards)).astype(np.int64)),
            }
        )

    # materialized once: the sizes aggregate and the inverted index both
    # consume the shingle rows
    sh = docs.select_columns(["doc_id", "text"]).map_batches(
        shingle_rows, batch_format="pyarrow"
    ).materialize()

    # per-doc set sizes: a count fold over the shingle rows (one row per
    # (doc, shingle)), combined per block by block tasks on the
    # materialized refs — no execution, and a doc whose rows span blocks
    # (Ray splits oversized map outputs) merges exactly
    sizes = fold(sh, "doc_id", [(None, "count", "n")], combine=True)

    def pairs_of_shard(g: pd.DataFrame) -> pa.Table:
        order = np.lexsort((g["doc_id"].to_numpy(), g["shingle"].to_numpy()))
        shv = g["shingle"].to_numpy()[order]
        ids = g["doc_id"].to_numpy()[order]
        starts = np.concatenate(([0], np.nonzero(np.diff(shv))[0] + 1, [len(shv)]))
        out_a, out_b = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2 or (max_df is not None and m > max_df):
                continue
            iu, ju = np.triu_indices(m, k=1)
            out_a.append(ids[s:e][iu])
            out_b.append(ids[s:e][ju])
        if not out_a:
            return pa.table(
                {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "a": pa.array(np.concatenate(out_a), pa.int64()),
                "b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )

    out_col = "containment" if metric == "containment" else "jaccard"

    def _score(i, na, nb):
        if metric == "containment":
            return i / np.minimum(na, nb)
        return i / (na + nb - i)

    cand = sh.groupby("shard").map_groups(pairs_of_shard, batch_format="pandas")
    inter = fold(cand, ["a", "b"], [(None, "count", "i")], combine=True)
    inter = as_dataset(inter).materialize()
    if inter.count() == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    out_col: pa.array([], pa.float64()),
                }
            )
        )

    # the sizes fold's exchange branch (over agg.DRIVER_LIMIT shingle rows)
    # can still give few enough docs to broadcast
    if not isinstance(sizes, pa.Table):
        sizes = sizes.materialize()
        if sizes.count() <= size_broadcast_limit:
            sizes = pull(sizes)
    if isinstance(sizes, pa.Table) and sizes.num_rows <= size_broadcast_limit:
        ref = ray.put(
            dict(zip(sizes.column("doc_id").to_pylist(), sizes.column("n").to_pylist()))
        )

        def attach(batch: pa.Table) -> pa.Table:
            m = ray.get(ref)
            a = batch.column("a").to_numpy(zero_copy_only=False)
            b = batch.column("b").to_numpy(zero_copy_only=False)
            i = batch.column("i").to_numpy(zero_copy_only=False).astype(np.float64)
            na = np.fromiter((m[x] for x in a), dtype=np.float64, count=len(a))
            nb = np.fromiter((m[x] for x in b), dtype=np.float64, count=len(b))
            jac = _score(i, na, nb)
            keep = jac >= threshold
            return pa.table(
                {
                    "a": pa.array(a[keep], pa.int64()),
                    "b": pa.array(b[keep], pa.int64()),
                    out_col: pa.array(np.round(jac[keep], 6)),
                }
            )

        return inter.map_batches(attach, batch_format="pyarrow")

    # 10^9-doc path: two hash joins attach the sizes
    sizes = as_dataset(sizes)
    sa = sizes.rename_columns({"doc_id": "a", "n": "na"})
    sb = sizes.rename_columns({"doc_id": "b", "n": "nb"})
    j = large_join(inter, sa, on=("a",)).materialize()
    j = large_join(j, sb, on=("b",))

    def verify(batch: pa.Table) -> pa.Table:
        i = batch.column("i").to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch.column("na").to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch.column("nb").to_numpy(zero_copy_only=False).astype(np.float64)
        jac = _score(i, na, nb)
        keep = jac >= threshold
        return pa.table(
            {
                "a": batch.column("a").filter(pa.array(keep)),
                "b": batch.column("b").filter(pa.array(keep)),
                out_col: pa.array(np.round(jac[keep], 6)),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_BITS64 = np.arange(64, dtype=np.uint64)
_POW2_64 = (np.uint64(1) << _BITS64).astype(np.uint64)


def _portable_token_hashes(toks) -> np.ndarray:
    """md5-first-8-bytes-little-endian per token — byte-identical to the
    DuckDB expression the SimHash oracle uses (and to
    textstats._token_hashes), so the simhash VALUE is engine-portable.
    md5 runs once per UNIQUE token in the batch (per-batch vocabulary is
    sublinear in tokens — Heaps' law) and maps back via the inverse index;
    MinHash keeps the faster pandas siphash because its oracle checks the
    exact-Jaccard END RESULT, not the hash values."""
    import hashlib

    if len(toks) == 0:
        return np.zeros(0, dtype=np.uint64)
    uniq, inv = np.unique(np.asarray(toks, dtype=object), return_inverse=True)
    uh = np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "little")
            for t in uniq
        ),
        dtype=np.uint64,
        count=len(uniq),
    )
    return uh[inv]


def simhash64(toks: list[str]) -> int:
    """Classic 64-bit SimHash over token hashes (Charikar), vectorized."""
    if not toks:
        return 0
    h = _portable_token_hashes(toks)
    bits = ((h[:, None] >> _BITS64[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) * _POW2_64).sum())


def _simhash_of_texts(texts: list) -> np.ndarray:
    """Batch SimHash: ONE token-hash pass + per-doc bit sums via reduceat."""
    tok_lists = [py_tokens(t) for t in texts]
    lens = np.fromiter((len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists))
    flat: list = []
    for t in tok_lists:
        flat.extend(t)
    out = np.zeros(len(texts), dtype=np.uint64)
    if not flat:
        return out
    h = _portable_token_hashes(flat)
    bits = ((h[:, None] >> _BITS64[None, :]) & np.uint64(1)).astype(np.int64) * 2 - 1
    nonempty = np.nonzero(lens > 0)[0]
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))[nonempty]
    sums = np.add.reduceat(bits, starts, axis=0)  # (n_nonempty, 64)
    out[nonempty] = ((sums > 0).astype(np.uint64) * _POW2_64[None, :]).sum(axis=1)
    return out


def simhash_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, text) → (doc_id, simhash, band0..band3).

    The four 16-bit bands support Hamming-distance blocking: two docs with
    Hamming ≤ 3 share at least one band exactly (pigeonhole).
    """
    ids = batch.column("doc_id")
    sh = _simhash_of_texts(batch.column("text").to_pylist())
    cols = {"doc_id": ids, "simhash": pa.array(sh)}
    for b in range(4):
        cols[f"band{b}"] = pa.array(
            ((sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        )
    return pa.table(cols)


def _hamming64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of uint64 XORs."""
    ham = np.zeros(len(x), dtype=np.int64)
    x = x.copy()
    while x.any():
        ham += (x & np.uint64(1)).astype(np.int64)
        x >>= np.uint64(1)
    return ham


def simhash_near_dup_pairs(
    docs: rd.Dataset,
    *,
    max_hamming: int = 3,
    max_bucket: int = 256,
    n_shards: int = 16,
) -> rd.Dataset:
    """SimHash blocking + exact Hamming verify → (a, b, hamming) pairs.

    ONE shuffle: rows are melted to (shard, band_value, doc_id, simhash)
    where ``shard = band_idx * n_shards + band_value % n_shards`` — the
    sharded-coarse grouping: 4·n_shards groups of ~|corpus|/n_shards rows
    each (a pure band_idx grouping puts the WHOLE corpus in each of 4
    groups; per-(band,value) grouping pays per-group scheduling on 65k+
    tiny groups, measured 8.7s vs ~2s at sf0.1). band_value determines its
    shard, so equal-value runs never split across groups. Scale n_shards up
    with corpus size to bound group memory.

    Degenerate buckets (boilerplate: many docs sharing a band value) are
    capped at ``max_bucket``: larger runs emit CHAIN pairs (run[i],
    run[i+1]) instead of O(m²) triu pairs — connectivity-preserving
    truncation, same guard as ``_bucket_pairs``."""
    sh = docs.select_columns(["doc_id", "text"]).map_batches(
        simhash_batch, batch_format="pyarrow"
    )

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hs = batch.column("simhash").to_numpy(zero_copy_only=False)
        band_idx = np.repeat(np.arange(4, dtype=np.int64), n)
        band_value = np.concatenate(
            [batch.column(f"band{b}").to_numpy(zero_copy_only=False) for b in range(4)]
        )
        parts = {
            "shard": band_idx * n_shards + band_value % n_shards,
            "band_value": band_value,
            "doc_id": np.tile(ids, 4),
            "simhash": np.tile(hs, 4),
        }
        return pa.table({k: pa.array(v) for k, v in parts.items()})

    melted = sh.map_batches(melt, batch_format="pyarrow")

    def pairs_of_shard(g: pd.DataFrame) -> pd.DataFrame:
        # one shard holds one band_idx, so a doc appears at most once
        g = g.drop_duplicates("doc_id")
        order = np.lexsort((g["doc_id"].to_numpy(), g["band_value"].to_numpy()))
        ids = g["doc_id"].to_numpy()[order]
        vals = g["band_value"].to_numpy()[order]
        hs = g["simhash"].to_numpy(dtype=np.uint64)[order]
        starts = np.concatenate(
            ([0], np.nonzero(np.diff(vals))[0] + 1, [len(vals)])
        )
        out_a, out_b, out_h = [], [], []
        for s, e in zip(starts[:-1], starts[1:]):
            m = e - s
            if m < 2:
                continue
            if m > max_bucket:
                # stride-1 + stride-2 chains (see _bucket_pairs truncation note)
                iu = np.concatenate([np.arange(m - 1), np.arange(m - 2)])
                ju = np.concatenate([np.arange(1, m), np.arange(2, m)])
            else:
                iu, ju = np.triu_indices(m, k=1)
            ham = _hamming64(hs[s:e][iu] ^ hs[s:e][ju])
            keep = ham <= max_hamming
            out_a.append(ids[s:e][iu[keep]])
            out_b.append(ids[s:e][ju[keep]])
            out_h.append(ham[keep])
        if not out_a:
            out = pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64"),
                 "hamming": pd.Series([], dtype="int64")}
            )
        else:
            out = pd.DataFrame(
                {
                    "a": np.concatenate(out_a),
                    "b": np.concatenate(out_b),
                    "hamming": np.concatenate(out_h),
                }
            )
        # strip pandas metadata before the (a, b) hash aggregate
        return arrow_from_pandas(out)

    from ray.data.aggregate import Min

    pairs = melted.groupby("shard").map_groups(
        pairs_of_shard, batch_format="pandas"
    )
    return pairs.groupby(["a", "b"]).aggregate(Min("hamming", alias_name="hamming"))


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup (exact; LSH-bucketed path in stages/similarity.py)
# ---------------------------------------------------------------------------


def embedding_near_dup_pairs(
    embeds: rd.Dataset,
    *,
    threshold: float = 0.9,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """All pairs (a < b) with cosine ≥ threshold.

    Exact path: the normalized matrix is broadcast once (``ray.put``) and
    each batch does ONE numpy matmul against it — O(N·B·d) FLOPs, zero
    shuffle. The matrix is assembled by STREAMING blocks off the object
    store (``iter_batches``) — peak driver memory is the final matrix plus
    one block, never a second pandas copy of the whole table. Valid while
    N·d floats fit a worker heap; past ``broadcast_limit`` vectors the
    size-hybrid rule (the joins.py convention) routes to the IVF-bucketed
    scale path (stages/similarity.py: ivf_near_dup_pairs) automatically —
    approximate by design, which is the only honest option once the
    matrix cannot broadcast.
    """
    import ray

    proj = embeds.select_columns([id_col, vec_col]).materialize()
    if proj.count() > broadcast_limit:
        from kgw_ray.stages.similarity import ivf_near_dup_pairs

        return ivf_near_dup_pairs(
            proj, threshold=threshold, id_col=id_col, vec_col=vec_col
        )

    id_parts: list[np.ndarray] = []
    vec_parts: list[np.ndarray] = []
    for b in proj.iter_batches(batch_format="pyarrow"):
        id_parts.append(b.column(id_col).to_numpy(zero_copy_only=False))
        vec_parts.append(
            np.vstack(b.column(vec_col).to_numpy(zero_copy_only=False))
        )
    ids_all = (
        np.concatenate(id_parts) if id_parts else np.zeros(0, dtype=np.int64)
    )
    order = np.argsort(ids_all)
    ids_all = ids_all[order]
    M = (
        np.concatenate(vec_parts).astype(np.float64)[order]
        if vec_parts
        else np.zeros((0, 1), dtype=np.float64)
    )
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    ref = ray.put((ids_all, M))

    # task map, not an actor pool: the broadcast matrix is read zero-copy
    # from plasma per task (actor-vs-task rule, joins.py)
    def pairs_of(batch: pa.Table) -> pa.Table:
        ids, Mn = ray.get(ref)
        bids = batch.column(id_col).to_numpy(zero_copy_only=False)
        V = np.vstack(batch.column(vec_col).to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        V /= np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
        S = V @ Mn.T  # (B, N)
        rows, cols = np.nonzero(S >= threshold)
        a = bids[rows]
        b = ids[cols]
        keep = a < b  # dedup + drop self-pairs
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "cosine": pa.array(np.round(S[rows, cols][keep], 6)),
            }
        )

    return proj.map_batches(pairs_of, batch_format="pyarrow")


def edit_distance_pairs(
    ds: "rd.Dataset",
    col: str,
    *,
    max_bucket: Optional[int] = 256,
    n_shards: int = 64,
) -> "rd.Dataset":
    """Fuzzy-match pairs at edit distance ≤ 1 over the DISTINCT values of
    ``col`` — SymSpell-style deletion-neighborhood blocking (Garbe's
    symmetric delete algorithm, public): two strings within one
    edit (substitution / insertion / deletion) ALWAYS share at least one
    entry of {s} ∪ {s minus one char}, so candidate generation is an
    equi-join on deletion variants — never an all-pairs scan.

    Plan: distinct values (vocabulary-sized exchange) → per-batch variant
    explosion (length+1 variants per value) → one groupby(variant) with
    triu pair emission capped at ``max_bucket`` per bucket (hot buckets =
    short/boilerplate values; the cap is the same skew guard as the
    MinHash band buckets, stages/dedup.py:_bucket_pairs) → exact
    distance-≤1 verification, vectorized per equal-length group via a
    fixed-width byte-matrix mismatch count (the unequal-length remainder
    is a bounded candidate set) → distinct (a < b) pairs.

    Exactness: blocking RECALL is 1.0 for distance ≤ 1 when no bucket
    overflows the cap; a bucket past ``max_bucket`` falls back to the
    stride-1/2 chains and SILENTLY loses the non-adjacent pairs of that
    bucket, so the EXACT label is cap-conditional. The oracle-gated
    pipeline (registry: fuzzy_name_pairs) therefore passes
    ``max_bucket=None`` — unconditionally exact, at O(m²) per bucket;
    the default cap is the skew guard for uncapped web corpora. The
    verify step makes precision exact either way. Output: ``(a, b)``.
    """
    import numpy as np
    import pandas as pd

    def _values(batch: pa.Table) -> pa.Table:
        return pa.table({"v": pc.cast(batch.column(col), pa.string())})

    vocab = as_dataset(fold(
        ds.map_batches(_values, batch_format="pyarrow"),
        "v",
        [(None, "count", "n")],
        combine=True,
    )).select_columns(["v"])

    def _variants(batch: pa.Table) -> pa.Table:
        vals = batch.column("v").to_pylist()
        out_k, out_v = [], []
        for s in vals:
            ks = {s}
            for i in range(len(s)):
                ks.add(s[:i] + s[i + 1 :])  # set-dedup: repeated-char runs
            out_k.extend(ks)
            out_v.extend([s] * len(ks))
        return pa.table(
            {
                "k": pa.array(out_k, pa.string()),
                "v": pa.array(out_v, pa.string()),
            }
        )

    # sharded-coarse bucket expansion (the lsh_candidate_pairs shape):
    # ONE exchange keyed on hash(variant) % 64, then a vectorized
    # sort + run-boundary pass per shard. A groupby(variant).map_groups
    # plan pays per-group pandas overhead × |variants| (measured 112s on
    # 285k buckets at sf0.1 — 40× this plan); shard groups are O(n_shards)
    # — raise n_shards on a cluster so one shard group fits a worker.

    def _shard(batch: pa.Table) -> pa.Table:
        k = batch.column("k").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(k.astype("U"), hash_key="kgw_ray_editdist") % n_shards
        return batch.append_column("_shard", pa.array(h.astype(np.int64)))

    _cand_empty = pa.table(
        {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
    )

    def _per_shard(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return _cand_empty
        g = g.sort_values(["k", "v"], kind="mergesort")
        k = g["k"].to_numpy()
        v = g["v"].to_numpy()
        new_k = np.ones(len(k), dtype=bool)
        new_k[1:] = k[1:] != k[:-1]
        starts = np.append(np.flatnonzero(new_k), len(k))
        out_a, out_b = [], []
        for s, e in zip(starts[:-1], starts[1:]):
            run = v[s:e]
            run = run[np.append(True, run[1:] != run[:-1])]  # sorted unique
            m = len(run)
            if m < 2:
                continue
            if max_bucket is not None and m > max_bucket:
                # skew guard: stride-1 + stride-2 chains (sorted order
                # keeps near-identical values adjacent)
                out_a.append(run[:-1])
                out_b.append(run[1:])
                out_a.append(run[:-2])
                out_b.append(run[2:])
            else:
                iu, ju = np.triu_indices(m, k=1)
                out_a.append(run[iu])
                out_b.append(run[ju])
        if not out_a:
            return _cand_empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        keep = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        return pa.table(
            {
                "a": pa.array(keep["a"].to_numpy(), pa.string()),
                "b": pa.array(keep["b"].to_numpy(), pa.string()),
            }
        )

    cand = (
        vocab.map_batches(_variants, batch_format="pyarrow")
        .map_batches(_shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(_per_shard, batch_format="pandas")
    )

    distinct_cand = as_dataset(fold(
        cand.select_columns(["a", "b"]), ["a", "b"], [(None, "count", "n")], combine=True
    )).select_columns(["a", "b"])

    def _le1_eqlen(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # fixed-width byte-matrix mismatch count per equal-length run
        out = np.zeros(len(a), dtype=bool)
        la = np.char.str_len(a.astype("U"))
        for L in np.unique(la):
            sel = la == L
            if L == 0:
                out[sel] = True
                continue
            am = (
                np.frombuffer(
                    "".join(a[sel].tolist()).encode("utf-32-le"), dtype=np.uint32
                ).reshape(-1, int(L))
            )
            bm = (
                np.frombuffer(
                    "".join(b[sel].tolist()).encode("utf-32-le"), dtype=np.uint32
                ).reshape(-1, int(L))
            )
            out[sel] = (am != bm).sum(axis=1) <= 1
        return out

    def _verify(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False)
        b = batch.column("b").to_numpy(zero_copy_only=False)
        if len(a) == 0:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string())}
            )
        la = np.char.str_len(a.astype("U"))
        lb = np.char.str_len(b.astype("U"))
        keep = np.zeros(len(a), dtype=bool)
        eq = la == lb
        if eq.any():
            keep[eq] = _le1_eqlen(a[eq], b[eq])
        off1 = np.abs(la - lb) == 1
        for i in np.flatnonzero(off1):  # bounded: insert/delete remainder
            s, t = (a[i], b[i]) if la[i] < lb[i] else (b[i], a[i])
            keep[i] = any(
                t[:j] + t[j + 1 :] == s for j in range(len(t))
            )
        return pa.table(
            {
                "a": pa.array(a[keep], pa.string()),
                "b": pa.array(b[keep], pa.string()),
            }
        )

    return distinct_cand.map_batches(_verify, batch_format="pyarrow")
