"""Training-data pipeline operators over ``documents`` / ``embeddings``:
dedup (exact / MinHash-LSH / SimHash / embedding-cosine), similarity search
(brute-force + IVF), text analysis (tokens / quality / lang-ID /
fingerprint), multimodal plumbing.

Each public function is a registry query ``fn(sf_dir) -> Dataset | Table``;
SQL-expressible ones have a DuckDB oracle string alongside (identical column
names + identical rounding — the driver hashes values).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from kgw_ray.functions.arrow_utils import typed_pandas
from kgw_ray.functions.tokenize import split_tokens
from kgw_ray.sources.readers import read_table
from kgw_ray.stages.agg import fold, grouped_aggregate_hybrid


def _docs(sf_dir: str, cols=("doc_id", "text")) -> rd.Dataset:
    return read_table(sf_dir, "documents", columns=list(cols))


# --- portable-hash SQL fragments (shared by the simhash + fingerprint
# oracles): md5(token) first-8-bytes little-endian as uint64, byte-identical
# to dedup._portable_token_hashes / textstats._token_hashes ---------------

_HEXPOS = "0123456789abcdef"
_MD5_LE_UINT64 = " + ".join(
    f"(CAST(strpos('{_HEXPOS}', substr(hx, {2 * k + 1}, 1)) - 1 AS UBIGINT) * 16 "
    f"+ CAST(strpos('{_HEXPOS}', substr(hx, {2 * k + 2}, 1)) - 1 AS UBIGINT)) "
    f"* CAST({256 ** k} AS UBIGINT)"
    for k in range(8)
)

# tokens with multiplicity, Python str.split() semantics (any whitespace,
# empties dropped) — the TRIPLES_SQL equivalence class
_TOKS_SQL = """
SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
FROM documents
"""


# ---------------------------------------------------------------------------
# Text analysis
# ---------------------------------------------------------------------------


def text_token_stats(sf_dir: str) -> rd.Dataset:
    from kgw_ray.stages.textstats import token_stats_batch

    return _docs(sf_dir).map_batches(token_stats_batch, batch_format="pyarrow")


def text_sentence_stats(sf_dir: str) -> rd.Dataset:
    """Per-document sentence segmentation stats (terminator-run counting,
    one vectorized RE2 scan — stages/textstats.py:sentence_stats_batch)."""
    from kgw_ray.stages.textstats import sentence_stats_batch

    return _docs(sf_dir).map_batches(sentence_stats_batch, batch_format="pyarrow")


def text_readability(sf_dir: str) -> rd.Dataset:
    """Per-document integer Flesch reading-ease (alpha-run words,
    terminator-run sentences, vowel-run syllable proxy — three RE2 scans,
    milli-unit integer score; stages/textstats.py:readability_batch)."""
    from kgw_ray.stages.textstats import readability_batch

    return _docs(sf_dir).map_batches(readability_batch, batch_format="pyarrow")


def text_quality(sf_dir: str) -> rd.Dataset:
    from kgw_ray.stages.textstats import quality_stats_batch

    return _docs(sf_dir).map_batches(quality_stats_batch, batch_format="pyarrow")


def text_lang_id(sf_dir: str) -> rd.Dataset:
    """Heuristic language ID (task map with per-process singleton profiles;
    hash-gated against the marker-count SQL oracle + accuracy test)."""
    from kgw_ray.stages.textstats import lang_id_batch

    return _docs(sf_dir).map_batches(lang_id_batch, batch_format="pyarrow")


def text_fingerprint(sf_dir: str) -> rd.Dataset:
    from kgw_ray.stages.textstats import fingerprint_batch

    ds = _docs(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")
    # uint64 fingerprint → decimal string so pandas/duckdb canon agree
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda t: t.set_column(
            t.column_names.index("fingerprint"),
            "fingerprint",
            pc.cast(t["fingerprint"], pa.string()),
        ),
        batch_format="pyarrow",
    )


def text_repetition(sf_dir: str) -> rd.Dataset:
    """Gopher-style repetition signals (dup/top n-gram counts) per doc —
    embarrassingly parallel, zero shuffle; exact int64 columns under the
    DuckDB hash oracle (stages/textstats.py:repetition_stats_batch)."""
    from kgw_ray.stages.textstats import repetition_stats_batch

    return _docs(sf_dir).map_batches(repetition_stats_batch, batch_format="pyarrow")


def text_rare_token_stats(sf_dir: str, rare_divisor: int = 1000) -> rd.Dataset:
    """Corpus-frequency broadcast scoring: the classic two-pass web-pipeline
    op (C4-style rare-token filters, TF-IDF family).

    Pass 1 — global token frequencies: per-batch ``np.unique`` combiner →
    tiny ``groupby(tok).Sum`` (the only shuffle, over the VOCABULARY, not
    the corpus). Pass 2 — the rare-token set (freq < total/rare_divisor)
    is ``ray.put`` once and read zero-copy per task; each doc's rare-token
    occurrences are segment-summed. Broadcast assumption: the rare
    vocabulary fits one object (fine to ~10^8 tokens); beyond that the
    scale path is the size-hybrid token join (stages/joins.py), same shape
    as semi_join_dataset.
    """
    import ray
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from kgw_ray.stages.textstats import _segment_sums

    docs = _docs(sf_dir)

    def tok_partials(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        flat = pc.list_flatten(split_tokens(text))
        flat = pc.filter(flat, pc.greater(pc.utf8_length(flat), 0))
        arr = flat.to_numpy(zero_copy_only=False)
        uq, cnt = np.unique(arr, return_counts=True)
        return pa.table(
            {"tok": pa.array(uq, pa.string()), "c": pa.array(cnt.astype(np.int64))}
        )

    freq = grouped_aggregate_hybrid(
        docs.map_batches(tok_partials, batch_format="pyarrow"),
        "tok",
        [("c", "sum", "c")],
    ).materialize()
    total = freq.sum("c") or 0
    thr = total / rare_divisor
    rare_tbl = freq.map_batches(
        lambda t: t.filter(pc.less(pc.cast(t["c"], pa.float64()), thr)),
        batch_format="pyarrow",
    ).to_pandas()
    # empty Dataset → to_pandas() drops ALL columns (contract gotcha) —
    # an empty rare set must still broadcast a TYPED string array
    rare_toks = (
        rare_tbl["tok"].astype(str).tolist() if "tok" in rare_tbl.columns else []
    )
    rare_ref = ray.put(pa.array(rare_toks, pa.string()))

    def score(batch: pa.Table) -> pa.Table:
        rare_arr = ray.get(rare_ref)
        text = pc.fill_null(batch.column("text"), "")
        splits = split_tokens(text)
        sizes = pc.cast(pc.list_value_length(splits), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        flat = pc.list_flatten(splits)
        nonempty = (
            pc.greater(pc.utf8_length(flat), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        is_rare = (
            pc.is_in(flat, value_set=rare_arr)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            * nonempty
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(_segment_sums(nonempty, sizes)),
                "n_rare_tokens": pa.array(_segment_sums(is_rare, sizes)),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


RARE_TOKENS_SQL = """
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks
  FROM documents
),
u AS (SELECT doc_id, unnest(toks) AS tok FROM t),
f AS (SELECT tok, count(*) AS c FROM u GROUP BY tok),
tot AS (SELECT CAST(sum(c) AS DOUBLE) AS s FROM f),
rare AS (SELECT tok FROM f, tot WHERE CAST(c AS DOUBLE) < s / 1000),
r AS (
  SELECT doc_id, count(*) AS n_rare FROM u
  WHERE tok IN (SELECT tok FROM rare) GROUP BY doc_id
)
SELECT t.doc_id, len(toks) AS n_tokens,
       COALESCE(r.n_rare, 0) AS n_rare_tokens
FROM t LEFT JOIN r ON t.doc_id = r.doc_id
"""


def web_domain_stats(sf_dir: str) -> rd.Dataset:
    """Per-source-domain corpus rollup (domain blocklist / quality-by-domain
    shape): per-batch per-source partials via one ``np.unique`` combiner,
    then a tiny groupby over the DOMAIN key — the shuffle moves one row per
    (batch, domain), never the corpus."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Sum


    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "source", "n_chars"]
    )

    def partials(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        text = pc.fill_null(batch.column("text"), "")
        ws = pc.cast(
            pc.count_substring_regex(text, pattern=r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        uq, inv = np.unique(src, return_inverse=True)
        max_chars = np.zeros(len(uq), dtype=np.int64)
        np.maximum.at(max_chars, inv, n_chars)
        return pa.table(
            {
                "source": pa.array(uq, pa.string()),
                "n_docs": pa.array(np.bincount(inv).astype(np.int64)),
                "total_chars": pa.array(
                    np.bincount(inv, weights=n_chars).astype(np.int64)
                ),
                "total_tokens": pa.array(
                    np.bincount(inv, weights=ws).astype(np.int64)
                ),
                "max_doc_chars": pa.array(max_chars),
            }
        )

    return grouped_aggregate_hybrid(
        docs.map_batches(partials, batch_format="pyarrow"),
        "source",
        [
            ("n_docs", "sum", "n_docs"),
            ("total_chars", "sum", "total_chars"),
            ("total_tokens", "sum", "total_tokens"),
            ("max_doc_chars", "max", "max_doc_chars"),
        ],
    )


DOMAIN_STATS_SQL = """
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS total_tokens,
       CAST(max(n_chars) AS BIGINT) AS max_doc_chars
FROM documents GROUP BY source
"""


_PARETO_PCTS = (50, 80, 90, 95, 99)


def pareto_concentration(sf_dir: str) -> "pa.Table":
    """Corpus-concentration curve (the 80/20 audit a web-crawl curation run
    does before domain rebalancing): for each coverage threshold, the
    MINIMAL number of top sources (by total chars, ties by source name)
    whose cumulative char mass reaches that fraction of the corpus.

    Physical plan: per-batch ``np.unique`` char-sum combiner (one row per
    (block, domain) crosses the wire) → ``grouped_aggregate_hybrid`` over
    the DOMAIN vocabulary → the cumulative scan runs on the driver over
    the vocabulary-sized table (hosts, not docs — bounded by design; at
    100 TB the host vocabulary is ~10⁷ rows, still a driver-safe fold).
    Threshold test is exact integer math (``cum*100 >= pct*total``), so
    the oracle hashes bit-identically. Reference analog: the corpus
    statistics reports of kgw's ``*_stats`` sinks (graph.py:get_statistics).
    """

    docs = read_table(sf_dir, "documents", columns=["source", "n_chars"])

    def partials(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        uq, inv = np.unique(src, return_inverse=True)
        return pa.table(
            {
                "source": pa.array(uq, pa.string()),
                "c": pa.array(np.bincount(inv, weights=n_chars).astype(np.int64)),
            }
        )

    per_src = grouped_aggregate_hybrid(
        docs.map_batches(partials, batch_format="pyarrow"),
        "source",
        [("c", "sum", "c")],
    )
    pdf = per_src.to_pandas()
    if len(pdf) == 0:
        empty = pa.array([], pa.int64())
        return pa.table(
            {"pct": empty, "n_sources": empty, "cum_chars": empty,
             "total_chars": empty}
        )
    pdf = pdf.sort_values(["c", "source"], ascending=[False, True])
    cum = pdf["c"].to_numpy(dtype=np.int64).cumsum()
    total = int(cum[-1])
    rows = {"pct": [], "n_sources": [], "cum_chars": [], "total_chars": []}
    for pct in _PARETO_PCTS:
        # first rank whose cumulative mass clears pct% — exact integers
        idx = int(np.searchsorted(cum * 100, pct * total, side="left"))
        rows["pct"].append(pct)
        rows["n_sources"].append(idx + 1)
        rows["cum_chars"].append(int(cum[idx]))
        rows["total_chars"].append(total)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


PARETO_SQL = f"""
WITH s AS (
  SELECT source, CAST(sum(n_chars) AS BIGINT) AS c
  FROM documents GROUP BY source
),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS t FROM s),
r AS (
  SELECT c,
         ROW_NUMBER() OVER (ORDER BY c DESC, source) AS rn,
         CAST(SUM(c) OVER (ORDER BY c DESC, source) AS BIGINT) AS cum
  FROM s
)
SELECT CAST(p.pct AS BIGINT) AS pct,
       CAST(MIN(r.rn) AS BIGINT) AS n_sources,
       CAST(MIN(r.cum) AS BIGINT) AS cum_chars,
       CAST(MIN(tot.t) AS BIGINT) AS total_chars
FROM (VALUES {", ".join(f"({p})" for p in _PARETO_PCTS)}) AS p(pct)
JOIN tot ON TRUE
JOIN r ON r.cum * 100 >= p.pct * tot.t
GROUP BY p.pct
"""


def source_gini(sf_dir: str) -> "pa.Table":
    """Gini coefficient of corpus mass across sources — the scalar
    companion to ``pareto_concentration`` (0 = perfectly balanced crawl,
    →1 = one domain owns the corpus). Emitted as the EXACT integer pair
    (numerator, denominator) of the closed form over ascending-sorted
    char sums ``c_1..c_n``: G = (2·Σ i·c_i − (n+1)·Σ c_i) / (n·Σ c_i) —
    no division ever happens, so the oracle hashes bit-for-bit.

    Same physical plan as pareto_concentration: per-batch combiner → one
    domain-vocabulary exchange → driver fold over the bounded host table.
    int64 bound: Σ i·c_i ≤ n_hosts·total_chars — overflows only past
    ~10⁷ hosts × 10¹⁴ chars; swap the fold to Python ints (exact) and
    the oracle to HUGEINT if a corpus ever gets there."""

    docs = read_table(sf_dir, "documents", columns=["source", "n_chars"])

    def partials(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        uq, inv = np.unique(src, return_inverse=True)
        return pa.table(
            {
                "source": pa.array(uq, pa.string()),
                "c": pa.array(np.bincount(inv, weights=n_chars).astype(np.int64)),
            }
        )

    per_src = grouped_aggregate_hybrid(
        docs.map_batches(partials, batch_format="pyarrow"),
        "source",
        [("c", "sum", "c")],
    )
    pdf = per_src.to_pandas()
    one = pa.array([0], pa.int64())
    if len(pdf) == 0:
        return pa.table({"n_sources": one, "gini_num": one, "gini_den": one})
    # ascending sort with source tiebreak — rank weights are then pinned
    pdf = pdf.sort_values(["c", "source"], ascending=[True, True])
    c = pdf["c"].to_numpy(dtype=np.int64)
    n = len(c)
    total = int(c.sum())
    ranks = np.arange(1, n + 1, dtype=np.int64)
    num = 2 * int((ranks * c).sum()) - (n + 1) * total
    return pa.table(
        {
            "n_sources": pa.array([n], pa.int64()),
            "gini_num": pa.array([num], pa.int64()),
            "gini_den": pa.array([n * total], pa.int64()),
        }
    )


SOURCE_GINI_SQL = """
WITH s AS (
  SELECT source, CAST(sum(n_chars) AS BIGINT) AS c
  FROM documents GROUP BY source
),
r AS (
  SELECT c, ROW_NUMBER() OVER (ORDER BY c, source) AS rn FROM s
)
SELECT CAST(count(*) AS BIGINT) AS n_sources,
       CAST(2 * sum(rn * c) - (count(*) + 1) * sum(c) AS BIGINT) AS gini_num,
       CAST(count(*) * sum(c) AS BIGINT) AS gini_den
FROM r
"""


_DOMAIN_CAP = 20


def sample_per_domain(sf_dir: str, k: int = _DOMAIN_CAP) -> rd.Dataset:
    """Cap documents per domain ("at most k docs per source" — the
    domain-rebalancing curation rule): deterministic k-smallest doc_ids per
    source.

    Physical plan: a block-local per-source k-smallest combiner first (one
    vectorized sort+head per batch), so the per-source merge shuffles at
    most ``k`` rows per (block, domain) — the corpus never moves. The
    merge is ``groupby(source).map_groups`` over ≤ n_blocks·k rows per
    group; group count = domain count, small by construction.
    """
    import pandas as pd

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def local_topk(df: pd.DataFrame) -> pa.Table:
        out = (
            df.sort_values(["source", "doc_id"]).groupby("source", sort=False).head(k)
        )
        return arrow_from_pandas(out.reset_index(drop=True))

    partials = docs.map_batches(local_topk, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pa.Table:
        return arrow_from_pandas(
            g.nsmallest(k, "doc_id").sort_values("doc_id").reset_index(drop=True)
        )

    # materialize-partials rule (stages/agg.py): never feed a lazy pandas
    # map chain straight into a sort-based groupby
    return partials.materialize().groupby("source").map_groups(
        merge, batch_format="pandas"
    )


SAMPLE_PER_DOMAIN_SQL = f"""
SELECT doc_id, source FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= {_DOMAIN_CAP}
"""


_HASHED_DOMAIN_CAP = 10


def sample_per_domain_hashed(sf_dir: str, k: int = _HASHED_DOMAIN_CAP) -> rd.Dataset:
    """Uniform-ish deterministic per-domain sample: keep each source's k
    docs with the SMALLEST splitmix64(doc_id) — unlike sample_per_domain
    (first-k by doc_id, biased toward old docs), the hash order is a
    reproducible shuffle, so the sample is representative across the
    crawl timeline while staying engine/layout/run independent (the KMV
    trick applied to sampling).

    Same distributed shape as sample_per_domain: per-block local top-k
    partials (the exchange moves ≤ k rows per (block, source)) → per-
    source merge. Hash via the shared portable kernel
    (functions/porthash.mix64 == mix64_sql in the oracle)."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas
    from kgw_ray.functions.porthash import mix64

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def local_topk(df: pd.DataFrame) -> pa.Table:
        h = mix64(df["doc_id"].to_numpy().astype(np.uint64))
        df = df.assign(hkey=h.astype(np.uint64))
        out = (
            df.sort_values(["source", "hkey"])
            .groupby("source", sort=False)
            .head(k)
        )
        return arrow_from_pandas(out.reset_index(drop=True))

    partials = docs.map_batches(local_topk, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pa.Table:
        out = g.nsmallest(k, "hkey").sort_values("doc_id")
        return arrow_from_pandas(
            out[["doc_id", "source"]].reset_index(drop=True)
        )

    # materialize-partials rule (stages/agg.py): never feed a lazy pandas
    # map chain straight into a sort-based groupby
    return partials.materialize().groupby("source").map_groups(
        merge, batch_format="pandas"
    )


def _sample_hashed_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    return f"""
SELECT doc_id, source FROM documents
QUALIFY row_number()
        OVER (PARTITION BY source
              ORDER BY {mix64_sql('CAST(doc_id AS UBIGINT)')})
        <= {_HASHED_DOMAIN_CAP}
"""


SAMPLE_HASHED_SQL = _sample_hashed_sql()


FINGERPRINT_MD5_SQL = "SELECT doc_id, md5(text) AS content_md5 FROM documents"


def _winh_ctes() -> str:
    """Shared CTE block computing every rolling polynomial window hash
    (doc_id, st, wh) — token hashes are md5-first-8-bytes-LE, each window
    of w' = min(n, 8) tokens hashes to Σ h[i+j]·B^(w'-1-j) mod 2^64
    (B = 1000003). Every B^k is a precomputed literal; the mod-2^64 ring
    runs in UHUGEINT/HUGEINT (DuckDB integer ops raise on overflow, so the
    128-bit intermediates are reduced explicitly). Byte-identical to
    textstats.window_hashes; used by the fingerprint AND winnowing
    oracles."""
    B, M = 1000003, 1 << 64
    bp = [pow(B, k, M) for k in range(8)]
    powcase = (
        "CASE least(nn.n, 8) - 1 - (t.i - w.st) "
        + " ".join(f"WHEN {k} THEN CAST({bp[k]} AS UHUGEINT)" for k in range(8))
        + " END"
    )
    return f"""
WITH toks AS ({_TOKS_SQL}),
nn AS (SELECT doc_id, len(w) AS n FROM toks),
th AS (
  SELECT doc_id, i, {_MD5_LE_UINT64} AS h
  FROM (SELECT doc_id, u.i AS i, md5(w[u.i]) AS hx
        FROM toks, UNNEST(generate_series(1, len(w))) AS u(i))
),
wins AS (
  SELECT nn.doc_id, s.i AS st
  FROM nn, UNNEST(generate_series(1, nn.n - least(nn.n, 8) + 1)) AS s(i)
  WHERE nn.n > 0
),
winh AS (
  SELECT w.doc_id, w.st,
    CAST(SUM(CAST((CAST(t.h AS UHUGEINT) * ({powcase}))
                  % CAST(18446744073709551616 AS UHUGEINT) AS HUGEINT))
         % CAST(18446744073709551616 AS HUGEINT) AS UBIGINT) AS wh
  FROM wins w
  JOIN nn ON nn.doc_id = w.doc_id
  JOIN th t ON t.doc_id = w.doc_id AND t.i BETWEEN w.st AND w.st + least(nn.n, 8) - 1
  GROUP BY w.doc_id, w.st
)"""


def _fingerprint_sql() -> str:
    """Oracle for the winnowing rolling fingerprint (textstats.
    rolling_fingerprint): min over the shared window-hash CTEs."""
    return f"""
{_winh_ctes()}
SELECT d.doc_id, md5(d.text) AS content_md5,
       CAST(COALESCE(m.fp, 0) AS VARCHAR) AS fingerprint
FROM documents d LEFT JOIN (SELECT doc_id, MIN(wh) AS fp FROM winh GROUP BY doc_id) m
  ON m.doc_id = d.doc_id
"""


FINGERPRINT_SQL = _fingerprint_sql()


def text_winnowing(sf_dir: str) -> rd.Dataset:
    """Full winnowing fingerprint selection (Schleimer et al. 2003, the
    MOSS scheme): from every window of W=4 consecutive k-gram hashes keep
    the minimum (ties → leftmost), emitting per document the selected-set
    profile (n_grams / n_wins / n_selected / min_fp / mod-2^64 digest).
    Zero shuffle — one vectorized map_batches pass
    (stages/textstats.py:winnow_batch); the digest gates the ENTIRE
    selected set against the SQL oracle's (hash, pos)-lexicographic
    window-min, so the selection logic itself is hash-verified."""
    from kgw_ray.stages.textstats import winnow_batch

    return _docs(sf_dir).map_batches(winnow_batch, batch_format="pyarrow")


def _winnowing_sql() -> str:
    from kgw_ray.stages.textstats import _WINNOW_W

    w = _WINNOW_W
    return f"""
{_winh_ctes()},
sel AS (
  SELECT doc_id, st,
         MIN(CAST(wh AS HUGEINT) * 4294967296 + st)
           OVER (PARTITION BY doc_id ORDER BY st
                 ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS key,
         COUNT(*) OVER (PARTITION BY doc_id) AS n_h,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY st) AS rn
  FROM winh
),
picked AS (
  SELECT DISTINCT doc_id,
         CAST(key % 4294967296 AS BIGINT) AS p,
         CAST(key // 4294967296 AS UBIGINT) AS swh
  FROM sel WHERE rn <= GREATEST(n_h - {w} + 1, 1)
),
prof AS (
  SELECT doc_id, COUNT(*) AS n_selected, MIN(swh) AS min_fp,
         CAST(SUM(CAST(swh AS HUGEINT))
              % CAST(18446744073709551616 AS HUGEINT) AS UBIGINT) AS digest
  FROM picked GROUP BY doc_id
)
SELECT nn.doc_id,
       CAST(CASE WHEN nn.n > 0 THEN nn.n - least(nn.n, 8) + 1 ELSE 0 END
            AS BIGINT) AS n_grams,
       CAST(CASE WHEN nn.n > 0
                 THEN GREATEST(nn.n - least(nn.n, 8) + 1 - {w} + 1, 1)
                 ELSE 0 END AS BIGINT) AS n_wins,
       CAST(COALESCE(prof.n_selected, 0) AS BIGINT) AS n_selected,
       CAST(COALESCE(prof.min_fp, 0) AS VARCHAR) AS min_fp,
       CAST(COALESCE(prof.digest, 0) AS VARCHAR) AS digest
FROM nn LEFT JOIN prof ON nn.doc_id = prof.doc_id
"""


WINNOWING_SQL = _winnowing_sql()


def text_content_md5(sf_dir: str) -> rd.Dataset:
    """Exact-dedup content hash only (oracle: DuckDB md5)."""
    from kgw_ray.stages.textstats import fingerprint_batch

    return (
        _docs(sf_dir)
        .map_batches(fingerprint_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "content_md5"])
    )


# ---------------------------------------------------------------------------
# Dedup
# ---------------------------------------------------------------------------

EXACT_DEDUP_SQL = """
SELECT MIN(doc_id) AS doc_id, md5(text) AS content_md5
FROM documents GROUP BY text
"""


def dedup_exact(sf_dir: str) -> rd.Dataset:
    from kgw_ray.stages.dedup import exact_dedup_keep

    return exact_dedup_keep(_docs(sf_dir))


def _near_dup_survivor_sql(base_cte: str, select_cols: str) -> str:
    """Exact-Jaccard near-dup oracle over a (doc_id, text) base relation:
    word 5-shingles (k = min(len, 5), matching ``shingle_hashes``), exact
    Jaccard ≥ 0.5 pairs, transitive closure via a recursive CTE, keep the
    min doc_id per component. The SQL ground truth the LSH pipeline must
    reproduce (LSH candidate recall at J ≥ 0.5 is ~1 on real near-dups;
    verified pairs are exact, so outputs coincide)."""
    return f"""
WITH RECURSIVE {base_cte},
toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM base
),
shd AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i : i + least(len(w), 5) - 1], ' ') AS s
  FROM toks, UNNEST(generate_series(1, len(w) - least(len(w), 5) + 1)) AS t(i)
  WHERE len(w) > 0
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM shd GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, COUNT(*) AS i
  FROM shd a JOIN shd b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
),
pairs AS (
  SELECT i.a, i.b
  FROM inter i JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b
  WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.5
),
edges AS (SELECT a AS x, b AS y FROM pairs UNION ALL SELECT b AS x, a AS y FROM pairs),
r(id, m) AS (
  SELECT x, y FROM edges
  UNION
  SELECT r.id, e.y FROM r JOIN edges e ON r.m = e.x
),
comp AS (SELECT id, LEAST(id, MIN(m)) AS comp FROM r GROUP BY id)
SELECT {select_cols} FROM base
WHERE doc_id NOT IN (SELECT id FROM comp WHERE id <> comp)
"""


MINHASH_DEDUP_SQL = _near_dup_survivor_sql(
    "base AS (SELECT doc_id, text FROM documents)", "doc_id"
)

# exact-Jaccard PAIRS oracle (the standalone n-gram Jaccard operator):
# same shingle/size/intersection fragments as the survivor oracle, but
# emitting the pair list with the rounded Jaccard value
JACCARD_PAIRS_SQL = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
shd AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i : i + least(len(w), 5) - 1], ' ') AS s
  FROM toks, UNNEST(generate_series(1, len(w) - least(len(w), 5) + 1)) AS t(i)
  WHERE len(w) > 0
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM shd GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, COUNT(*) AS i
  FROM shd a JOIN shd b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.a, i.b,
       ROUND(CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i), 6) AS jaccard
FROM inter i JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b
WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.5
"""


def dedup_jaccard_pairs(sf_dir: str) -> rd.Dataset:
    """Standalone EXACT n-gram Jaccard near-dup pairs (J ≥ 0.5) via the
    distributed shingle inverted index (stages/dedup.py:
    exact_jaccard_pairs) — the non-approximate companion to the
    MinHash-LSH pipeline, hash-gated against the all-pairs SQL oracle.

    ``max_df=None``: the gated entry is labelled EXACT, so df-pruning (a
    recall trade for boilerplate shingles) is disabled here — the oracle
    is the uncapped all-pairs SQL and must hold on ANY corpus, not just
    one whose shingle dfs stay under the default cap. Scale callers use
    ``exact_jaccard_pairs`` directly with its documented ``max_df`` skew
    guard."""
    from kgw_ray.stages.dedup import exact_jaccard_pairs

    return exact_jaccard_pairs(_docs(sf_dir), threshold=0.5, max_df=None)


CONTAINMENT_PAIRS_SQL = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
shd AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i : i + least(len(w), 5) - 1], ' ') AS s
  FROM toks, UNNEST(generate_series(1, len(w) - least(len(w), 5) + 1)) AS t(i)
  WHERE len(w) > 0
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM shd GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, COUNT(*) AS i
  FROM shd a JOIN shd b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.a, i.b,
       ROUND(CAST(i.i AS DOUBLE) / LEAST(sa.n, sb.n), 6) AS containment
FROM inter i JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b
WHERE CAST(i.i AS DOUBLE) / LEAST(sa.n, sb.n) >= 0.8
"""


def dedup_containment_pairs(sf_dir: str) -> rd.Dataset:
    """EXACT shingle max-containment pairs (C = |A∩B| / min(|A|,|B|) ≥
    0.8, Broder's containment): the asymmetric quote/subset-detection
    signal — a short doc wholly embedded in a long one scores C≈1 where
    Jaccard stays small, so this catches the duplication Jaccard
    under-reports. Identical distributed shingle inverted index as
    dedup_jaccard_pairs (one sharded-coarse shuffle, Count intersection,
    size attach); only the final filter formula differs. ``max_df=None``
    under the gate, same EXACT-label rule."""
    from kgw_ray.stages.dedup import exact_jaccard_pairs

    return exact_jaccard_pairs(
        _docs(sf_dir), threshold=0.8, max_df=None, metric="containment"
    )


def dedup_minhash_lsh(sf_dir: str) -> rd.Dataset:
    """Near-dup survivors via MinHash-LSH → Jaccard ≥ 0.5 → components.

    Hash-gated against the exact-Jaccard + transitive-closure DuckDB oracle
    (``MINHASH_DEDUP_SQL``); also covered by the brute-force-Jaccard
    comparison test (tests/test_training_data.py). Gate validity is
    data-conditional, as for any LSH scheme: band recall at J just above
    the 0.5 threshold is <1 (16 bands × r=4 ≈ 0.64 at J=0.5, →1 as J→1),
    so the oracle equality holds because the corpus's near-dup clusters
    are high-J — the per-corpus brute-force test verifies exactly that.
    The truly exact distributed operator is ``dedup_jaccard_pairs``.
    """
    from kgw_ray.stages.dedup import minhash_dedup_keep

    return minhash_dedup_keep(_docs(sf_dir), threshold=0.5)


SIMHASH_PAIRS_SQL = f"""
WITH toks AS ({_TOKS_SQL}),
th AS (
  SELECT doc_id, {_MD5_LE_UINT64} AS h
  FROM (SELECT doc_id, md5(w[u.i]) AS hx
        FROM toks, UNNEST(generate_series(1, len(w))) AS u(i))
),
bits AS (
  SELECT doc_id, b.b,
         SUM(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
  FROM th, UNNEST(generate_series(0, 63)) AS b(b)
  GROUP BY doc_id, b.b
),
sh AS (
  SELECT d.doc_id, COALESCE(s.s, CAST(0 AS UBIGINT)) AS s
  FROM documents d LEFT JOIN (
    SELECT doc_id,
           CAST(CAST(SUM(CAST(CAST(1 AS UBIGINT) << b AS HUGEINT)) AS HUGEINT) AS UBIGINT) AS s
    FROM bits WHERE acc > 0 GROUP BY doc_id
  ) s ON s.doc_id = d.doc_id
)
SELECT a.doc_id AS a, b.doc_id AS b, CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3
"""


def dedup_simhash_pairs(sf_dir: str) -> rd.Dataset:
    """SimHash near-dup candidate pairs (Hamming ≤ 3), exact-verified.
    Hash-gated: the 4×16-bit-band blocking finds EVERY pair at Hamming ≤ 3
    (pigeonhole), so the output equals the DuckDB all-pairs oracle — as
    long as no band bucket exceeds ``max_bucket`` (the skew guard then
    emits chain pairs instead of full triu; on the test corpora no bucket
    comes near the cap, so equality is exact; a >256-doc boilerplate
    cluster at web scale trades the tail of its pair list for bounded
    fan-out, by design)."""
    from kgw_ray.stages.dedup import simhash_near_dup_pairs

    return simhash_near_dup_pairs(_docs(sf_dir))


# Pair membership only: margins vs the threshold are ≥5e-4 on this data, so
# the set is stable across numpy-f64 vs DuckDB float paths; the rounded
# cosine VALUE is not hash-stable (engines differ at ~1e-7) and is excluded.
EMBED_NEAR_DUP_SQL = """
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
"""


def dedup_embedding_pairs(sf_dir: str) -> rd.Dataset:
    """Exact embedding-cosine near-dup pairs (cos ≥ 0.4); matmul vs the
    broadcast matrix per batch — DuckDB cross-join oracle."""
    from kgw_ray.stages.dedup import embedding_near_dup_pairs

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_near_dup_pairs(emb, threshold=0.4).select_columns(["a", "b"])


def dedup_embedding_pairs_ivf(sf_dir: str) -> rd.Dataset:
    """IVF-bucketed near-dup pairs — the reduced-recall scale path."""
    from kgw_ray.stages.similarity import ivf_near_dup_pairs

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_near_dup_pairs(emb, threshold=0.4)


# ---------------------------------------------------------------------------
# Similarity search
# ---------------------------------------------------------------------------

_N_QUERIES = 4
_TOPK = 10

# rank/membership only — float cosine excluded for hash stability (see above);
# rank margins on this data are ≥2e-4, far above cross-engine float error.
ANN_TOPK_SQL = f"""
WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings WHERE vec_id < {_N_QUERIES}),
s AS (
    SELECT q.query_id, e.vec_id,
           list_cosine_similarity(q.embedding, e.embedding) AS sim
    FROM q JOIN embeddings e ON true
)
SELECT query_id, vec_id,
       CAST(row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
FROM s
QUALIFY rank <= {_TOPK}
ORDER BY query_id, rank
"""


def _query_matrix(sf_dir: str):
    """Driver-side input prep (4 query vectors) — a direct pyarrow read
    with a pushed filter, not a Ray pipeline execution."""
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    qt = (
        pq.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filters=pads.field("vec_id") < _N_QUERIES,
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    if len(qt) == 0:  # empty corpus: no query vectors
        return np.zeros((0, 0)), np.zeros(0, np.int64)
    return np.vstack(qt["embedding"].to_numpy()), qt["vec_id"].to_numpy()


def ann_cosine_topk(sf_dir: str) -> pa.Table:
    """Brute-force exact cosine top-k for the first 4 vectors as queries."""
    from kgw_ray.stages.similarity import brute_force_topk

    Q, qids = _query_matrix(sf_dir)
    if len(qids) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return brute_force_topk(emb, Q, qids, k=_TOPK).select(
        ["query_id", "vec_id", "rank"]
    )


def ann_ivf_topk(sf_dir: str) -> pa.Table:
    """IVF top-k with EXHAUSTIVE probing (nprobe = n_cells): the full IVF
    physical plan — driver k-means, distributed cell assignment, probe-side
    cell pruning, per-cell local top-k, global merge — must reproduce the
    exact brute-force answer, so this variant sits under the same DuckDB
    hash oracle as ``ann_cosine_topk``. The reduced-probe approximate
    behavior users actually run at scale is ``ann_ivf_topk_probe`` (tail
    registration; recall measured in tests/test_training_data.py)."""
    from kgw_ray.stages.similarity import IVFIndex

    Q, qids = _query_matrix(sf_dir)
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    idx = IVFIndex.build(emb)
    return idx.topk(Q, qids, k=_TOPK, nprobe=idx.n_cells).select(
        ["query_id", "vec_id", "rank"]
    )


def ann_ivf_topk_probe(sf_dir: str) -> pa.Table:
    """IVF approximate top-k (same queries; recall measured in tests).
    Cell count auto-scales to ~sqrt(N); nprobe scales with it so the
    probed fraction stays roughly constant."""
    from kgw_ray.stages.similarity import IVFIndex

    Q, qids = _query_matrix(sf_dir)
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    idx = IVFIndex.build(emb)
    # ~1/3 of cells: the synthetic embeddings are near-uniform (worst case
    # for IVF), so a constant probed FRACTION keeps recall stable as cells
    # scale; clustered real data can probe far fewer
    return idx.topk(Q, qids, k=_TOPK, nprobe=max(4, -(-idx.n_cells // 3)))


def ann_recall_at_k(sf_dir: str) -> pa.Table:
    """Recall@k of the approximate IVF probe path against exact brute
    force — the ANN quality-evaluation harness as a first-class query
    (previously only a test assertion). Both top-k tables come from the
    distributed engine (brute_force_topk's broadcast-matmul partials and
    the IVF cell-pruned plan); the recall join itself is a
    (queries × k)-row driver fold — evaluation output, not data plane.
    Integer recall_permille keeps the result hash-stable; no SQL oracle
    because the probe side is approximate BY DESIGN (same gating class as
    ann_ivf_topk_probe itself)."""
    from kgw_ray.stages.similarity import IVFIndex, brute_force_topk

    Q, qids = _query_matrix(sf_dir)
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact = brute_force_topk(emb, Q, qids, k=_TOPK).to_pandas()
    idx = IVFIndex.build(emb)
    approx = idx.topk(
        Q, qids, k=_TOPK, nprobe=max(4, -(-idx.n_cells // 3))
    ).to_pandas()

    rows = []
    for qid in sorted(exact["query_id"].unique()):
        truth = set(exact.loc[exact["query_id"] == qid, "vec_id"])
        got = set(approx.loc[approx["query_id"] == qid, "vec_id"])
        hits = len(truth & got)
        rows.append((int(qid), _TOPK, hits, 1000 * hits // _TOPK))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "k": pa.array([r[1] for r in rows], pa.int64()),
            "n_hits": pa.array([r[2] for r in rows], pa.int64()),
            "recall_permille": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def dedup_ivf_recall(sf_dir: str) -> pa.Table:
    """Pair recall of the IVF-bucketed near-dup path against the exact
    all-pairs set — quantifies exactly what the cell blocking trades away
    (cross-cell near-dups), as a queryable number instead of a docstring
    caveat. The pair sets never land on the driver: both sides pack
    (a, b) into one int64 key per pair and the intersection is the
    size-hybrid distributed semi join; only three scalar counts return.
    Rows-only (the IVF side is approximate by design)."""
    from kgw_ray.stages.dedup import embedding_near_dup_pairs
    from kgw_ray.stages.joins import semi_join_dataset
    from kgw_ray.stages.similarity import ivf_near_dup_pairs

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def _pack(t: pa.Table) -> pa.Table:
        # vec_ids are < 2^31 at any plausible corpus (pair keys, not doc
        # counts, are the scale axis here); pack to one comparable int64
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"k": pa.array(a * (1 << 32) + b, pa.int64())})

    exact = (
        embedding_near_dup_pairs(emb, threshold=0.4)
        .select_columns(["a", "b"])
        .map_batches(_pack, batch_format="pyarrow")
        .materialize()
    )
    ivf = (
        ivf_near_dup_pairs(emb, threshold=0.4)
        .map_batches(_pack, batch_format="pyarrow")
        .materialize()
    )
    n_exact, n_ivf = exact.count(), ivf.count()
    n_hits = semi_join_dataset(exact, ivf, on="k").count()
    recall = 1000 * n_hits // n_exact if n_exact else 1000
    return pa.table(
        {
            "n_exact_pairs": pa.array([n_exact], pa.int64()),
            "n_ivf_pairs": pa.array([n_ivf], pa.int64()),
            "n_hits": pa.array([n_hits], pa.int64()),
            "recall_permille": pa.array([recall], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Multimodal plumbing
# ---------------------------------------------------------------------------


# The synthetic PPM payload is a pure function of (doc_id, text) — SQL can
# rebuild it exactly (the text is ASCII, so VARCHAR length/tiling/sha256
# operate byte-identically to the Python bytes path). Shared base: target
# raster dims + the cyclically tiled pixel string.
_MEDIA_BASE_SQL = """
WITH p AS (
  SELECT doc_id, 16 + doc_id % 17 AS w, 12 + doc_id % 13 AS h,
         CASE WHEN text IS NULL OR text = '' THEN ' ' ELSE text END AS src
  FROM documents
),
t AS (
  SELECT doc_id, w, h,
         substr(repeat(src, CAST(w*h*3 / length(src) AS INT) + 1), 1, w*h*3) AS tiled
  FROM p
)
"""

# crc32 has no DuckDB builtin, so the GATED projection carries the other
# metadata columns; crc32 stays in media_metadata_batch under unit test
MEDIA_META_SQL = _MEDIA_BASE_SQL + """
SELECT doc_id AS media_id, 'image/x-portable-pixmap' AS media_type,
       length(payload) AS n_bytes, sha256(payload) AS sha256
FROM (SELECT doc_id,
        'P6' || chr(10) || w || ' ' || h || chr(10) || '255' || chr(10) || tiled AS payload
      FROM t)
"""

_FEATURE_COLS = ["mean_r", "mean_g", "mean_b", "std_r", "std_g", "std_b"]

MEDIA_FEATURES_SQL = _MEDIA_BASE_SQL + """,
b AS (
  SELECT doc_id, w, h, (u.i - 1) % 3 AS c,
         ascii(substr(tiled, u.i, 1)) / 255.0 AS v
  FROM t, UNNEST(generate_series(1, w*h*3)) AS u(i)
),
agg AS (
  SELECT doc_id, w, h, c, AVG(v) AS m,
         sqrt(greatest(AVG(v*v) - AVG(v)*AVG(v), 0)) AS s
  FROM b GROUP BY doc_id, w, h, c
)
SELECT doc_id AS media_id,
       CAST(h AS DOUBLE) AS height, CAST(w AS DOUBLE) AS width,
       ROUND(MAX(CASE WHEN c = 0 THEN m END), 6) AS mean_r,
       ROUND(MAX(CASE WHEN c = 1 THEN m END), 6) AS mean_g,
       ROUND(MAX(CASE WHEN c = 2 THEN m END), 6) AS mean_b,
       ROUND(MAX(CASE WHEN c = 0 THEN s END), 6) AS std_r,
       ROUND(MAX(CASE WHEN c = 1 THEN s END), 6) AS std_g,
       ROUND(MAX(CASE WHEN c = 2 THEN s END), 6) AS std_b
FROM agg GROUP BY doc_id, w, h
"""


def media_metadata(sf_dir: str) -> rd.Dataset:
    """Binary payload sidecar metadata — hash-gated on (n_bytes, sha256);
    the crc32 column stays in the stage (no DuckDB crc32) under unit test."""
    from kgw_ray.stages.multimodal import media_metadata_batch, synth_media_dataset

    return synth_media_dataset(sf_dir).map_batches(
        media_metadata_batch, batch_format="pyarrow", batch_size=64
    ).select_columns(["media_id", "media_type", "n_bytes", "sha256"])


def media_decode_features(sf_dir: str) -> rd.Dataset:
    """Real PPM decode → shape/intensity features (pure-python P6 codec in
    the actor pool; stages/multimodal.py), widened to float64 columns so
    the DuckDB oracle hashes them (a raw list<float32> column is not
    hash-stable across engines)."""
    from kgw_ray.stages.multimodal import DecodeImage, synth_media_dataset

    feats = synth_media_dataset(sf_dir).map_batches(
        DecodeImage,
        batch_format="pyarrow",
        batch_size=32,
        concurrency=(1, 12),
    )

    def widen(batch: pa.Table) -> pa.Table:
        lists = batch.column("feature").to_pylist()
        cols = {"media_id": batch.column("media_id")}
        if lists:
            F = np.asarray(lists, dtype=np.float64)
        else:
            F = np.zeros((0, 8), dtype=np.float64)
        cols["height"] = pa.array(F[:, 0])
        cols["width"] = pa.array(F[:, 1])
        for i, c in enumerate(_FEATURE_COLS):
            # re-round after the float32→float64 cast: the stage rounded to
            # 6 dp BEFORE storing float32, and float32 eps (≲1.2e-7 in
            # [0,1]) is far below the 5e-7 rounding half-step
            cols[c] = pa.array(np.round(F[:, i + 2], 6))
        return pa.table(cols)

    return feats.map_batches(widen, batch_format="pyarrow")


def media_resize(sf_dir: str) -> rd.Dataset:
    """Real PPM resize: decode → nearest-neighbor 16×16 → re-encode, as an
    actor-pool stage over the binary media column (stages/multimodal.py)."""
    from kgw_ray.stages.multimodal import ResizeImage, synth_media_dataset

    return synth_media_dataset(sf_dir).map_batches(
        ResizeImage,
        batch_format="pyarrow",
        batch_size=32,
        concurrency=(1, 12),
    )


def media_frame_sample(sf_dir: str) -> rd.Dataset:
    """'Video' frame sampling over the binary payload column: fixed-size
    chunks as frames, every 4th kept — one row per kept frame (the
    flat_map shape a real ffmpeg frame decoder slots into)."""
    from kgw_ray.stages.multimodal import frame_sample_batch, synth_media_dataset

    return synth_media_dataset(sf_dir).map_batches(
        frame_sample_batch, batch_format="pyarrow", batch_size=64
    )


def _exact_dedup_winners(good: rd.Dataset) -> "pa.Table | rd.Dataset":
    """Exact dedup, first wins: MIN(doc_id) per content hash, folded per
    block and merged on the driver while the hash set is driver-sized
    (16-byte keys move, never text)."""
    return fold(
        good.select_columns(["content_md5", "doc_id"]),
        "content_md5",
        [("doc_id", "min", "doc_id")],
        combine=True,
    )


def curate_documents(sf_dir: str) -> rd.Dataset:
    """End-to-end training-data curation: quality filter → exact dedup →
    MinHash near-dedup, returning surviving (doc_id, n_tokens,
    quality_score). The composite pipeline a 100 TB pretraining corpus
    runs; each stage is the operator verified individually above.

    Fully distributed chain — the corpus is read ONCE, stats + content
    hash come from one enrichment pass, the quality filter runs inline,
    exact-dedup winners semi-join back via the size-hybrid
    ``semi_join_dataset`` (broadcast ids under the limit, hash join
    beyond), and the near-dup stage selects survivors with the
    size-hybrid ``anti_join`` against its drop-set Dataset. No
    driver-side O(N) id materialization anywhere; the ``materialize()``
    calls (quality-filtered set here, shingle hub inside
    ``minhash_dedup_keep``) are object-store checkpoints for datasets
    consumed twice (they spill, never sit in driver heap).

    Ordering note: cheap vectorized filters run FIRST so the expensive
    shingle/LSH stage sees only the quality-surviving subset.
    """
    from kgw_ray.stages.dedup import minhash_dedup_keep
    from kgw_ray.stages.joins import semi_join_dataset
    from kgw_ray.stages.textstats import content_md5_list, quality_stats_batch

    def enrich(batch: pa.Table) -> pa.Table:
        # ONE pass: quality stats + exact-dedup hash, text kept for LSH
        stats = quality_stats_batch(batch)
        md5s = content_md5_list(batch.column("text").to_pylist())
        return stats.append_column(
            "content_md5", pa.array(md5s, pa.string())
        ).append_column("text", batch.column("text"))

    enriched = _docs(sf_dir).map_batches(enrich, batch_format="pyarrow")
    good = enriched.filter(expr="n_tokens >= 10 and quality_score >= 0.2").materialize()
    winners = _exact_dedup_winners(good)
    # no materialize here: minhash_dedup_keep consumes its input exactly
    # once (into its shingle hub), so a second corpus-sized checkpoint
    # between the semi join and the hub would be pure overhead
    exact_docs = semi_join_dataset(good, winners, on="doc_id")
    return minhash_dedup_keep(
        exact_docs,
        threshold=0.5,
        keep_columns=["doc_id", "n_tokens", "quality_score"],
    )


def _curate_sql() -> str:
    """Oracle for the full curation chain: quality filter → exact dedup
    (min doc_id per text) → exact-Jaccard near-dup survivors — the SQL
    composition of the three individually-oracled stages."""
    from kgw_ray.stages.textstats import QUALITY_SQL

    base = f"""q AS (
  SELECT doc_id, n_tokens, quality_score FROM ({QUALITY_SQL}) qq
),
goodq AS (
  SELECT q.doc_id, q.n_tokens, q.quality_score, d.text
  FROM q JOIN documents d ON d.doc_id = q.doc_id
  WHERE q.n_tokens >= 10 AND q.quality_score >= 0.2
),
winners AS (SELECT MIN(doc_id) AS doc_id FROM goodq GROUP BY text),
base AS (
  SELECT g.doc_id, g.n_tokens, g.quality_score, g.text
  FROM goodq g JOIN winners w ON g.doc_id = w.doc_id
)"""
    return _near_dup_survivor_sql(base, "doc_id, n_tokens, quality_score")


CURATE_SQL = _curate_sql()


def shuffle_documents(sf_dir: str) -> rd.Dataset:
    """Seeded global corpus shuffle (`Dataset.random_shuffle`) — the
    pre-training epoch-order op. All-to-all exchange; at 100 TB prefer
    `randomize_block_order` + windowed local shuffles unless a true global
    permutation is required. Oracle compares the multiset (order-insensitive
    driver check); permutation-ness asserted in tests."""
    return _docs(sf_dir, cols=("doc_id",)).random_shuffle(seed=42)


SHUFFLE_DOCS_SQL = "SELECT doc_id FROM documents"


def sample_documents_every_k(sf_dir: str, k: int = 10) -> rd.Dataset:
    """Deterministic systematic sample (reference tests/utils.py:60-61 takes
    evenly spaced samples): every k-th doc_id, as a pushed-down filter."""
    import numpy as np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keep(batch: pa.Table) -> pa.Table:
        # modulo never prunes row groups (every group holds multiples of k),
        # so a vectorized in-map filter IS the pushdown-equivalent here
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % k == 0))

    return ds.map_batches(keep, batch_format="pyarrow")


SAMPLE_DOCS_SQL = "SELECT doc_id, n_chars FROM documents WHERE doc_id % 10 = 0"


# ---------------------------------------------------------------------------
# Corpus-level ops: decontamination, n-gram counts, normalization,
# stratified mixing, TF-IDF (stages/corpus.py kernels)
# ---------------------------------------------------------------------------

_DECONTAM_MOD = 41  # synthetic "eval set" = doc_id % 41 == 0
_DECONTAM_K = 8  # word 8-grams, the published decontamination convention


def _benchmark_gram_ref(docs: rd.Dataset):
    """Distinct 8-gram hash set of the synthetic eval docs
    (doc_id % _DECONTAM_MOD == 0): per-block uniques → one sorted uint64
    array, ``ray.put`` once (benchmark suites are broadcast-sized by
    construction). Shared by the standalone decontamination query and the
    curation composite."""
    import ray

    from kgw_ray.stages.corpus import bench_gram_partial

    evals = docs.map_batches(
        lambda t: t.filter(
            pa.array(
                t.column("doc_id").to_numpy(zero_copy_only=False) % _DECONTAM_MOD
                == 0
            )
        ),
        batch_format="pyarrow",
    )
    parts = evals.map_batches(
        lambda t: bench_gram_partial(t, _DECONTAM_K), batch_format="pyarrow"
    ).to_pandas()
    # empty eval set → the pandas pull drops its columns (repo-wide
    # empty-pull hazard); an empty TYPED gram set is the correct broadcast
    if "g" in parts.columns and len(parts):
        bench = np.sort(np.unique(parts["g"].to_numpy().astype(np.uint64)))
    else:
        bench = np.zeros(0, dtype=np.uint64)
    return ray.put(bench)


def decontaminate_documents(sf_dir: str) -> rd.Dataset:
    """Benchmark-overlap decontamination: flag corpus docs sharing any word
    8-gram with the (synthetic, in-corpus) eval set ``doc_id % 41 == 0``.

    The eval side's distinct gram hashes reduce through per-block uniques
    to one sorted uint64 array, ``ray.put`` once (benchmark suites are
    broadcast-sized by construction — ~10^6-10^8 grams); the corpus pass
    is an embarrassingly parallel task map, zero shuffle. Hash membership
    stands in for string membership (64-bit siphash; a collision would
    need ~2^32 grams — the oracle compares the strings themselves).
    """
    import ray

    from kgw_ray.stages.corpus import decontaminate_batch

    docs = _docs(sf_dir)
    bench_ref = _benchmark_gram_ref(docs)

    def score(batch: pa.Table) -> pa.Table:
        corpus_mask = (
            batch.column("doc_id").to_numpy(zero_copy_only=False) % _DECONTAM_MOD
            != 0
        )
        return decontaminate_batch(
            batch.filter(pa.array(corpus_mask)), ray.get(bench_ref), _DECONTAM_K
        )

    return docs.map_batches(score, batch_format="pyarrow")


DECONTAM_SQL = f"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i : i + least(len(w), {_DECONTAM_K}) - 1], ' ') AS g
  FROM toks, UNNEST(generate_series(1, len(w) - least(len(w), {_DECONTAM_K}) + 1)) AS t(i)
  WHERE len(w) > 0
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {_DECONTAM_MOD} = 0),
cnt AS (
  SELECT doc_id, COUNT(*) AS n_grams,
         COUNT(*) FILTER (WHERE g IN (SELECT g FROM bench)) AS n_cont
  FROM grams GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(c.n_grams, 0) AS n_grams,
       COALESCE(c.n_cont, 0) AS n_contaminated,
       CAST(COALESCE(c.n_cont, 0) > 0 AS BIGINT) AS contaminated
FROM documents d LEFT JOIN cnt c ON d.doc_id = c.doc_id
WHERE d.doc_id % {_DECONTAM_MOD} <> 0
"""


# ---------------------------------------------------------------------------
# Cross-document duplicated spans (substring-level dedup)
# ---------------------------------------------------------------------------

_DUP_SPAN_K = 8
_DUP_SPAN_MIN_COUNT = 2


def _dup_window_hash_set(docs: rd.Dataset, k: int, min_count: int) -> rd.Dataset:
    """Pass A of the duplicated-span family: per-batch window-hash
    combiner → vocabulary-sized Sum → the (wh) set with corpus-wide
    occurrence count ≥ min_count, materialized (both consumers probe its
    size)."""
    import pyarrow.compute as pc

    from kgw_ray.stages.corpus import window_count_partial

    partials = docs.map_batches(
        lambda b: window_count_partial(b, k), batch_format="pyarrow"
    )
    counts = grouped_aggregate_hybrid(partials, "wh", [("n", "sum", "n")])
    return counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], min_count)).select(["wh"]),
        batch_format="pyarrow",
    ).materialize()


def _dup_hash_broadcast(dup: rd.Dataset):
    """Stream the dup vocabulary into ONE sorted uint64 array (bounded
    pull: caller checked ≤ broadcast_limit rows) and ``ray.put`` it once."""
    import ray

    chunks = [
        b["wh"].to_numpy(zero_copy_only=False)
        for b in dup.iter_batches(batch_format="pyarrow")
    ]
    dup_sorted = (
        np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, np.uint64)
    )
    return ray.put(dup_sorted)


def text_dup_spans(
    sf_dir: str,
    k: int = _DUP_SPAN_K,
    min_count: int = _DUP_SPAN_MIN_COUNT,
    broadcast_limit: int = 5_000_000,
    _dup: rd.Dataset | None = None,
) -> rd.Dataset:
    """Cross-document duplicated-span extraction — substring-level dedup
    (the Lee et al. 2021 "Deduplicating Training Data" operator): per
    document, every MAXIMAL token span covered by word-``k``-gram windows
    whose exact token sequence occurs ≥ ``min_count`` times corpus-wide.
    Window identity is the engine-portable polynomial over md5-LE token
    hashes (the fingerprint oracle's ring), so the SQL oracle re-derives
    the VALUES, not a replay. Output: (doc_id, span_start, span_end,
    n_windows), token positions 1-based inclusive.

    Plan: (1) corpus pass → per-batch window-hash combiner, then a
    vocabulary-sized Sum (``grouped_aggregate_hybrid``) and an ``n ≥
    min_count`` filter; (2) under ``broadcast_limit`` the duplicated-hash
    vocabulary broadcasts once (``ray.put`` of ONE sorted uint64 array)
    and the mark pass is a zero-shuffle task map — a document's tokens
    live in one row, so island merge is batch-local; beyond the limit the
    exploded window table hash-semi-joins the dup set and spans assemble
    per doc (the 10^9-dup-gram path; parity-pinned in
    tests/test_training_data.py).

    Reference scope: the reference dedups whole triples/nodes
    (kgw/_shared/transform.py); span-level text dedup extends the
    LLM-training-data surface.
    """
    import ray

    from kgw_ray.stages.corpus import (
        batch_window_positions,
        covered_spans,
        dup_span_mark_batch,
    )

    docs = _docs(sf_dir)
    dup = _dup if _dup is not None else _dup_window_hash_set(docs, k, min_count)
    if dup.count() <= broadcast_limit:
        ref = _dup_hash_broadcast(dup)
        return docs.map_batches(
            lambda b: dup_span_mark_batch(b, ray.get(ref), k),
            batch_format="pyarrow",
        )

    # scale path: exploded windows → size-hybrid semi join on wh → per-doc
    # island merge (groups are document-sized: #windows < #tokens)
    from kgw_ray.stages.joins import semi_join_dataset

    def _window_rows(b: pa.Table) -> pa.Table:
        d, starts, wh = batch_window_positions(b, k)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids[d]),
                "st": pa.array(starts.astype(np.int64)),
                "wh": pa.array(wh),
            }
        )

    wins = docs.map_batches(_window_rows, batch_format="pyarrow")
    hits = semi_join_dataset(
        wins, dup, on="wh", broadcast_limit=broadcast_limit
    )

    def _merge_group(df) -> "pa.Table":
        s = np.sort(df["st"].to_numpy())
        ids = np.array([int(df["doc_id"].iloc[0])], dtype=np.int64)
        return covered_spans(ids, np.zeros(len(s), dtype=np.int64), s, k)

    return hits.groupby("doc_id").map_groups(_merge_group, batch_format="pandas")


def _dup_spans_sql(k: int = _DUP_SPAN_K, min_count: int = _DUP_SPAN_MIN_COUNT) -> str:
    """Independent SQL re-derivation of ``text_dup_spans``: per-position
    md5-LE token hashes, the winh polynomial (same ring as the fingerprint
    oracle), total-occurrence dup counts, and gaps-and-islands span
    assembly via window functions."""
    B, M = 1000003, 1 << 64
    bp = [pow(B, j, M) for j in range(k)]
    powcase = (
        f"CASE {k - 1} - (t.i - w.st) "
        + " ".join(f"WHEN {j} THEN CAST({bp[j]} AS UHUGEINT)" for j in range(k))
        + " END"
    )
    return f"""
WITH toks AS ({_TOKS_SQL}),
nn AS (SELECT doc_id, len(w) AS n FROM toks),
th AS (
  SELECT doc_id, i, {_MD5_LE_UINT64} AS h
  FROM (SELECT doc_id, u.i AS i, md5(w[u.i]) AS hx
        FROM toks, UNNEST(generate_series(1, len(w))) AS u(i))
),
wins AS (
  SELECT nn.doc_id, s.i AS st
  FROM nn, UNNEST(generate_series(1, nn.n - {k} + 1)) AS s(i)
  WHERE nn.n >= {k}
),
winh AS (
  SELECT w.doc_id, w.st,
    CAST(SUM(CAST((CAST(t.h AS UHUGEINT) * ({powcase}))
                  % CAST(18446744073709551616 AS UHUGEINT) AS HUGEINT))
         % CAST(18446744073709551616 AS HUGEINT) AS UBIGINT) AS wh
  FROM wins w
  JOIN th t ON t.doc_id = w.doc_id AND t.i BETWEEN w.st AND w.st + {k - 1}
  GROUP BY w.doc_id, w.st
),
dup AS (SELECT wh FROM winh GROUP BY wh HAVING COUNT(*) >= {min_count}),
cov AS (
  SELECT doc_id, st,
    CASE WHEN st - lag(st) OVER (PARTITION BY doc_id ORDER BY st) <= {k}
         THEN 0 ELSE 1 END AS brk
  FROM winh WHERE wh IN (SELECT wh FROM dup)
),
isl AS (
  SELECT doc_id, st, SUM(brk) OVER (PARTITION BY doc_id ORDER BY st) AS g
  FROM cov
)
SELECT doc_id, MIN(st) AS span_start, MAX(st) + {k - 1} AS span_end,
       COUNT(*) AS n_windows
FROM isl GROUP BY doc_id, g
"""


DUP_SPANS_SQL = _dup_spans_sql()


def text_dup_span_doc_stats(
    sf_dir: str,
    k: int = _DUP_SPAN_K,
    min_count: int = _DUP_SPAN_MIN_COUNT,
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Per-document duplication rollup — the curation-filter signal
    (drop/trim docs whose duplicated-coverage fraction is high): one row
    per doc, (doc_id, n_tokens, dup_tokens, n_spans, dup_permille), all
    int64 (permille = dup_tokens·1000 // n_tokens — no float in the gate).

    Broadcast regime: ONE zero-shuffle corpus pass (the dup-hash set rides
    along like decontamination's gram set). Past ``broadcast_limit`` dup
    grams: compose the span scale path's output with a per-doc rollup and
    a left hash join onto the token counts (parity-pinned in tests).
    """
    import ray

    from kgw_ray.stages.corpus import dup_span_doc_stats_batch

    docs = _docs(sf_dir)
    dup = _dup_window_hash_set(docs, k, min_count)
    if dup.count() <= broadcast_limit:
        ref = _dup_hash_broadcast(dup)
        return docs.map_batches(
            lambda b: dup_span_doc_stats_batch(b, ray.get(ref), k),
            batch_format="pyarrow",
        )

    from kgw_ray.stages.corpus import flat_tokens
    from kgw_ray.stages.joins import large_join

    spans = text_dup_spans(
        sf_dir, k, min_count, broadcast_limit=broadcast_limit, _dup=dup
    )

    def _rollup(t: pa.Table) -> pa.Table:
        # doc-complete per batch: the scale path emits each doc's spans
        # from ONE map_groups return, which never splits across blocks
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        sl = (
            t.column("span_end").to_numpy(zero_copy_only=False)
            - t.column("span_start").to_numpy(zero_copy_only=False)
            + 1
        )
        uq, inv = np.unique(ids, return_inverse=True)
        return pa.table(
            {
                "doc_id": pa.array(uq),
                "dup_tokens": pa.array(
                    np.bincount(inv, weights=sl).astype(np.int64)
                ),
                "n_spans": pa.array(np.bincount(inv).astype(np.int64)),
            }
        )

    def _tok_counts(b: pa.Table) -> pa.Table:
        d, _toks = flat_tokens(b)
        n = np.bincount(d, minlength=b.num_rows).astype(np.int64)
        return pa.table({"doc_id": b.column("doc_id"), "n_tokens": pa.array(n)})

    toks = docs.map_batches(_tok_counts, batch_format="pyarrow")
    j = large_join(
        toks,
        spans.map_batches(_rollup, batch_format="pyarrow"),
        on=["doc_id"],
        how="left_outer",
    )

    def _fill(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        dt = pc.fill_null(t["dup_tokens"], 0)
        ns = pc.fill_null(t["n_spans"], 0)
        nt = t["n_tokens"]
        dtn = dt.to_numpy(zero_copy_only=False).astype(np.int64)
        ntn = nt.to_numpy(zero_copy_only=False).astype(np.int64)
        permille = np.where(ntn > 0, dtn * 1000 // np.maximum(ntn, 1), 0)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": nt,
                "dup_tokens": pc.cast(dt, pa.int64()),
                "n_spans": pc.cast(ns, pa.int64()),
                "dup_permille": pa.array(permille.astype(np.int64)),
            }
        )

    return j.map_batches(_fill, batch_format="pyarrow")


DUP_SPAN_DOC_STATS_SQL = f"""
WITH spans AS ({DUP_SPANS_SQL}),
toks2 AS ({_TOKS_SQL}),
nn2 AS (SELECT doc_id, COALESCE(len(w), 0) AS n FROM toks2),
agg AS (
  SELECT doc_id, CAST(SUM(span_end - span_start + 1) AS BIGINT) AS dup_tokens,
         COUNT(*) AS n_spans
  FROM spans GROUP BY doc_id
)
SELECT nn2.doc_id, nn2.n AS n_tokens,
       COALESCE(agg.dup_tokens, 0) AS dup_tokens,
       COALESCE(agg.n_spans, 0) AS n_spans,
       CASE WHEN nn2.n > 0 THEN COALESCE(agg.dup_tokens, 0) * 1000 // nn2.n
            ELSE 0 END AS dup_permille
FROM nn2 LEFT JOIN agg ON nn2.doc_id = agg.doc_id
"""


_NGRAM_TOPK_K = 20


def ngram_topk(sf_dir: str, k: int = _NGRAM_TOPK_K) -> pa.Table:
    """Corpus-wide top-k word bigrams (the n-gram-LM count workload):
    per-batch vectorized combiner (the shuffle moves each batch's bigram
    VOCABULARY, not the token stream) → groupby Sum → block-local top-k
    with the deterministic (n desc, gram asc) total order."""
    from ray.data.aggregate import Sum

    from kgw_ray.stages.corpus import bigram_count_partial
    from kgw_ray.pipelines.relational import distributed_topk

    counts = grouped_aggregate_hybrid(
        _docs(sf_dir).map_batches(bigram_count_partial, batch_format="pyarrow"),
        "gram",
        [("n", "sum", "n")],
    )
    return distributed_topk(counts, ["n", "gram"], [True, False], k)


NGRAM_TOPK_SQL = f"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
g AS (
  SELECT w[i] || ' ' || w[i + 1] AS gram
  FROM toks, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE len(w) >= 2
),
c AS (SELECT gram, COUNT(*) AS n FROM g GROUP BY gram)
SELECT gram, n FROM c ORDER BY n DESC, gram LIMIT {_NGRAM_TOPK_K}
"""


def docs_inverted_index(sf_dir: str) -> rd.Dataset:
    """Inverted-index posting statistics: per token, document frequency
    (df), total term frequency (tf) and the first posting (min doc_id) —
    the skeleton every sharded index build / BM25 scorer starts from.

    Exactness across blocks: each document is one row, so a block's
    distinct (doc, token) pairs are globally distinct — the per-batch
    pandas hash-groupby partial (df, tf, min_doc) is an exact combiner and
    the ONE shuffle moves per-(batch, token) partials, i.e. the
    vocabulary, never the token stream. Output is vocabulary-bounded."""
    import pyarrow.compute as pc

    from kgw_ray.stages.corpus import flat_tokens

    def partials(batch: pa.Table) -> pa.Table:
        idx, toks = flat_tokens(batch)
        doc_ids = (
            batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        d = doc_ids[idx]
        if len(toks) == 0:
            return pa.table(
                {
                    "tok": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "tf": pa.array([], pa.int64()),
                    "first_doc": pa.array([], pa.int64()),
                }
            )
        g = pd.DataFrame({"tok": toks, "doc": d}).groupby("tok", sort=False)["doc"]
        agg = g.agg(["nunique", "size", "min"])
        return pa.table(
            {
                "tok": pa.array(agg.index.to_numpy(), pa.string()),
                "df": pa.array(agg["nunique"].to_numpy().astype(np.int64)),
                "tf": pa.array(agg["size"].to_numpy().astype(np.int64)),
                "first_doc": pa.array(agg["min"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        _docs(sf_dir).map_batches(partials, batch_format="pyarrow"),
        "tok",
        [
            ("df", "sum", "df"),
            ("tf", "sum", "tf"),
            ("first_doc", "min", "first_doc"),
        ],
    )


INVERTED_INDEX_SQL = """
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks
  FROM documents
),
u AS (SELECT doc_id, unnest(toks) AS tok FROM t)
SELECT tok, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df,
       CAST(COUNT(*) AS BIGINT) AS tf,
       CAST(MIN(doc_id) AS BIGINT) AS first_doc
FROM u GROUP BY tok
"""


def text_commonness(sf_dir: str) -> rd.Dataset:
    """Unigram-LM commonness scoring: each document's sum (and per-token
    mean, ‰) of GLOBAL corpus token frequencies — the exact-integer stand-in
    for average unigram log-likelihood that data-curation pipelines use to
    separate fluent text from gibberish (high mean = stopword-like prose,
    low mean = rare-token noise). Complements text_rare_token_stats (which
    thresholds) by carrying the full magnitude.

    Physical plan: pass 1 builds the global frequency table with the
    per-batch np.unique combiner (the shuffle moves the VOCABULARY); the
    vocabulary ships ONCE via ray.put as two parallel Arrow arrays and
    pass 2 scores each doc with one vectorized index_in + take + segment
    sum. Broadcast assumption: vocabulary fits one object (~10^8 tokens);
    beyond that the scale path is the size-hybrid token join
    (stages/joins.py), identical shape to text_rare_token_stats."""
    import ray
    import pyarrow.compute as pc

    from kgw_ray.stages.textstats import _segment_sums

    docs = _docs(sf_dir)

    def tok_partials(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        flat = pc.list_flatten(split_tokens(text))
        flat = pc.filter(flat, pc.greater(pc.utf8_length(flat), 0))
        arr = flat.to_numpy(zero_copy_only=False)
        uq, cnt = np.unique(arr, return_counts=True)
        return pa.table(
            {"tok": pa.array(uq, pa.string()), "c": pa.array(cnt.astype(np.int64))}
        )

    freq = grouped_aggregate_hybrid(
        docs.map_batches(tok_partials, batch_format="pyarrow"),
        "tok",
        [("c", "sum", "c")],
    )
    vocab_toks: list[pa.Array] = []
    vocab_counts: list[np.ndarray] = []
    for part in freq.iter_batches(batch_format="pyarrow"):
        vocab_toks.append(part.column("tok").combine_chunks())
        vocab_counts.append(
            part.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        )
    tok_arr = (
        pa.concat_arrays([a.cast(pa.string()) for a in vocab_toks])
        if vocab_toks
        else pa.array([], pa.string())
    )
    cnt_arr = (
        np.concatenate(vocab_counts) if vocab_counts else np.zeros(0, np.int64)
    )
    vocab_ref = ray.put((tok_arr, cnt_arr))

    def score(batch: pa.Table) -> pa.Table:
        toks, counts = ray.get(vocab_ref)
        text = pc.fill_null(batch.column("text"), "")
        splits = split_tokens(text)
        sizes = pc.cast(pc.list_value_length(splits), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        flat = pc.list_flatten(splits)
        nonempty = (
            pc.greater(pc.utf8_length(flat), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        # empty-string tokens miss the vocabulary (index_in null → -1)
        idx = (
            pc.fill_null(pc.index_in(flat, value_set=toks), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        hit = idx >= 0
        safe = np.where(hit, idx, 0)
        per_tok = counts[safe] * nonempty * hit.astype(np.int64)
        sum_freq = _segment_sums(per_tok, sizes)
        n_tokens = _segment_sums(nonempty, sizes)
        mean = np.where(n_tokens > 0, sum_freq * 1000 // np.maximum(n_tokens, 1), 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tokens.astype(np.int64)),
                "sum_freq": pa.array(sum_freq.astype(np.int64)),
                "mean_freq_x1000": pa.array(mean.astype(np.int64)),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


COMMONNESS_SQL = """
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks
  FROM documents
),
u AS (SELECT doc_id, unnest(toks) AS tok FROM t),
f AS (SELECT tok, count(*) AS c FROM u GROUP BY tok),
s AS (
  SELECT u.doc_id, CAST(SUM(f.c) AS BIGINT) AS sum_freq
  FROM u JOIN f ON u.tok = f.tok GROUP BY u.doc_id
)
SELECT t.doc_id, CAST(len(toks) AS BIGINT) AS n_tokens,
       COALESCE(s.sum_freq, 0) AS sum_freq,
       CASE WHEN len(toks) > 0
            THEN COALESCE(s.sum_freq, 0) * 1000 // len(toks)
            ELSE 0 END AS mean_freq_x1000
FROM t LEFT JOIN s ON t.doc_id = s.doc_id
"""


_KEYWORD_TOPN = 3


def text_keyword_extraction(sf_dir: str, topn: int = _KEYWORD_TOPN) -> rd.Dataset:
    """Per-document keyword extraction: top-n tokens by exact-integer
    tf·idf surrogate score_ppm = tf(doc,tok) * 10^6 // df(tok) — the
    rare-but-frequent-here signal (no float log: integer floor keeps both
    engines bit-identical), ties broken token-ascending. This is the
    per-doc tagging pass a corpus search/routing layer runs after
    indexing (complements tfidf_top_terms, which ranks corpus-wide).

    Physical plan: pass 1 reuses the inverted-index df combiner (the one
    vocabulary exchange); df broadcasts ONCE via ray.put; pass 2 is a
    zero-shuffle per-batch pandas kernel — (doc, token) tf groupby, one
    vectorized df lookup (index_in), one (doc, -score, token) lexsort +
    groupby head(n). Broadcast assumption identical to
    text_rare_token_stats (vocabulary fits one object)."""
    import ray
    import pyarrow.compute as pc

    from kgw_ray.stages.corpus import flat_tokens

    docs = _docs(sf_dir)

    def df_partials(batch: pa.Table) -> pa.Table:
        idx, toks = flat_tokens(batch)
        if len(toks) == 0:
            return pa.table(
                {"tok": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        pairs = pd.DataFrame({"tok": toks, "d": idx}).drop_duplicates()
        g = pairs.groupby("tok", sort=False).size()
        return pa.table(
            {
                "tok": pa.array(g.index.to_numpy(), pa.string()),
                "df": pa.array(g.to_numpy().astype(np.int64)),
            }
        )

    dfreq = grouped_aggregate_hybrid(
        docs.map_batches(df_partials, batch_format="pyarrow"),
        "tok",
        [("df", "sum", "df")],
    )
    tok_parts: list[pa.Array] = []
    df_parts: list[np.ndarray] = []
    for part in dfreq.iter_batches(batch_format="pyarrow"):
        tok_parts.append(part.column("tok").combine_chunks().cast(pa.string()))
        df_parts.append(
            part.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        )
    tok_arr = (
        pa.concat_arrays(tok_parts) if tok_parts else pa.array([], pa.string())
    )
    df_arr = np.concatenate(df_parts) if df_parts else np.zeros(0, np.int64)
    vocab_ref = ray.put((tok_arr, df_arr))

    def score(batch: pa.Table) -> pa.Table:
        toks_v, dfs = ray.get(vocab_ref)
        idx, toks = flat_tokens(batch)
        doc_ids = (
            batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        if len(toks) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "token": pa.array([], pa.string()),
                    "score_ppm": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        tf = (
            pd.DataFrame({"d": idx, "tok": toks})
            .groupby(["d", "tok"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        pos = (
            pc.fill_null(
                pc.index_in(
                    pa.array(tf["tok"].to_numpy(), pa.string()), value_set=toks_v
                ),
                -1,
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        # every token is in the corpus vocabulary by construction
        tf["score_ppm"] = (
            tf["tf"].to_numpy().astype(np.int64) * 1_000_000 // dfs[pos]
        )
        top = (
            tf.sort_values(
                ["d", "score_ppm", "tok"], ascending=[True, False, True]
            )
            .groupby("d", sort=False)
            .head(topn)
        )
        top["rank"] = top.groupby("d", sort=False).cumcount() + 1
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[top["d"].to_numpy()]),
                "token": pa.array(top["tok"].to_numpy(), pa.string()),
                "score_ppm": pa.array(top["score_ppm"].to_numpy().astype(np.int64)),
                "rank": pa.array(top["rank"].to_numpy().astype(np.int64)),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


KEYWORD_EXTRACTION_SQL = f"""
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS toks
  FROM documents
),
u AS (SELECT doc_id, unnest(toks) AS tok FROM t),
tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM u GROUP BY doc_id, tok),
df AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM u GROUP BY tok),
s AS (
  SELECT tf.doc_id, tf.tok AS token,
         tf.tf * 1000000 // df.df AS score_ppm
  FROM tf JOIN df ON tf.tok = df.tok
)
SELECT doc_id, token, CAST(score_ppm AS BIGINT) AS score_ppm,
       CAST(rn AS BIGINT) AS rank
FROM (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY doc_id ORDER BY score_ppm DESC, token) AS rn
  FROM s
)
WHERE rn <= {_KEYWORD_TOPN}
"""


_BIGRAM_LIFT_CAND = 200
_BIGRAM_LIFT_K = 20


def text_bigram_lift(
    sf_dir: str, cand: int = _BIGRAM_LIFT_CAND, k: int = _BIGRAM_LIFT_K
) -> pa.Table:
    """Collocation mining: top-k bigrams by EXACT integer association lift
    (PMI's ratio, un-logged) over the HEAD of the bigram distribution —
    the phrase-extraction workload (word2vec phrases, stopword-collocation
    filters) a curation pipeline runs before tokenizer training.

    lift_ppm = c_xy * N^2 * 1e6 // (M * c_x * c_y) with N = total tokens,
    M = total bigrams — exact arbitrary-precision integers (Python int on
    the engine side, HUGEINT in the DuckDB oracle), so no log/float drift.
    Ranking lift over the top-``cand``-by-count head is deliberate: PMI on
    rare bigrams is noise, and it bounds the exact-arithmetic fold to a
    constant-size table.

    Physical plan: one bigram-vocabulary combiner shuffle (shared with
    ngram_topk) + one unigram-vocabulary combiner shuffle; candidates via
    distributed_topk (no global sort); the ≤ 2*cand unigram counts are
    fetched with a vectorized is_in filter, never the whole vocabulary.
    """
    import pyarrow.compute as pc

    from kgw_ray.stages.corpus import bigram_count_partial
    from kgw_ray.pipelines.relational import distributed_topk

    docs = _docs(sf_dir)

    bcounts = grouped_aggregate_hybrid(
        docs.map_batches(bigram_count_partial, batch_format="pyarrow"),
        "gram",
        [("n", "sum", "n")],
    ).materialize()

    def tok_partials(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch.column("text"), "")
        flat = pc.list_flatten(split_tokens(text))
        flat = pc.filter(flat, pc.greater(pc.utf8_length(flat), 0))
        arr = flat.to_numpy(zero_copy_only=False)
        uq, cnt = np.unique(arr, return_counts=True)
        return pa.table(
            {"tok": pa.array(uq, pa.string()), "c": pa.array(cnt.astype(np.int64))}
        )

    ucounts = grouped_aggregate_hybrid(
        docs.map_batches(tok_partials, batch_format="pyarrow"),
        "tok",
        [("c", "sum", "c")],
    ).materialize()

    n_tokens = int(ucounts.sum("c") or 0)
    m_bigrams = int(bcounts.sum("n") or 0)
    head = distributed_topk(bcounts, ["n", "gram"], [True, False], cand)
    if head.num_rows == 0 or m_bigrams == 0:
        return pa.table(
            {
                "gram": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "lift_ppm": pa.array([], pa.int64()),
            }
        )

    grams = head.column("gram").to_pylist()
    ns = head.column("n").to_pylist()
    toks = sorted({t for g in grams for t in g.split(" ")})
    tok_set = pa.array(toks, pa.string())
    lookup = ucounts.map_batches(
        lambda t: t.filter(pc.is_in(t["tok"], value_set=tok_set)),
        batch_format="pyarrow",
    ).to_pandas()
    freq = dict(zip(lookup["tok"].astype(str), lookup["c"].astype(int)))

    rows = []
    for g, cxy in zip(grams, ns):
        x, y = g.split(" ")
        lift = (
            int(cxy) * n_tokens * n_tokens * 1_000_000
            // (m_bigrams * freq[x] * freq[y])
        )
        rows.append((g, int(cxy), lift))
    rows.sort(key=lambda r: (-r[2], r[0]))
    rows = rows[:k]
    return pa.table(
        {
            "gram": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "lift_ppm": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


BIGRAM_LIFT_SQL = f"""
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
g AS (
  SELECT w[i] AS x, w[i + 1] AS y
  FROM toks, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE len(w) >= 2
),
bc AS (SELECT x, y, COUNT(*) AS n FROM g GROUP BY x, y),
u AS (SELECT unnest(w) AS tok FROM toks),
uc AS (SELECT tok, COUNT(*) AS c FROM u GROUP BY tok),
tot AS (
  SELECT (SELECT CAST(SUM(c) AS HUGEINT) FROM uc) AS nn,
         (SELECT CAST(SUM(n) AS HUGEINT) FROM bc) AS mm
),
cand AS (
  SELECT x, y, n FROM bc
  ORDER BY n DESC, x || ' ' || y LIMIT {_BIGRAM_LIFT_CAND}
),
l AS (
  SELECT cand.x || ' ' || cand.y AS gram, CAST(cand.n AS BIGINT) AS n,
         CAST((CAST(cand.n AS HUGEINT) * tot.nn * tot.nn * 1000000)
              // (tot.mm * CAST(cx.c AS HUGEINT) * CAST(cy.c AS HUGEINT))
              AS BIGINT) AS lift_ppm
  FROM cand, tot
  JOIN uc cx ON cand.x = cx.tok
  JOIN uc cy ON cand.y = cy.tok
)
SELECT gram, n, lift_ppm FROM l ORDER BY lift_ppm DESC, gram LIMIT {_BIGRAM_LIFT_K}
"""


def text_normalize(sf_dir: str) -> rd.Dataset:
    """C4-style normalization (lower / collapse whitespace / trim) emitting
    the normalized identity (md5 + codepoint length) — zero shuffle."""
    from kgw_ray.stages.corpus import normalize_batch

    return _docs(sf_dir).map_batches(normalize_batch, batch_format="pyarrow")


NORMALIZE_SQL = """
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(lower(COALESCE(text, '')), '\\s+', ' ', 'g')) AS norm
  FROM documents
)
SELECT doc_id, md5(norm) AS norm_md5, length(norm) AS n_norm_chars FROM n
"""


# data-mixing weights: keep 1/denom of each language stratum
_MIX_DENOMS = {"en": 1, "es": 2, "fr": 2, "de": 2, "zh": 3}
_MIX_DEFAULT = 4


def sample_stratified(sf_dir: str) -> rd.Dataset:
    """Deterministic per-language data mixing: keep doc iff
    md5-LE-uint64(str(doc_id)) % denom(lang) == 0 (en 1/1, es/fr/de 1/2,
    zh 1/3, other 1/4). Reproducible across engines/runs/cluster sizes —
    no RNG state, no shuffle, resumable for free."""
    from kgw_ray.stages.corpus import stratified_keep_batch

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    return ds.map_batches(
        lambda t: stratified_keep_batch(t, _MIX_DENOMS, _MIX_DEFAULT),
        batch_format="pyarrow",
    )


def _stratified_sql() -> str:
    case = " ".join(
        f"WHEN '{lang}' THEN {d}" for lang, d in sorted(_MIX_DENOMS.items())
    )
    return f"""
WITH h AS (
  SELECT doc_id, lang, md5(CAST(doc_id AS VARCHAR)) AS hx FROM documents
),
u AS (SELECT doc_id, lang, ({_MD5_LE_UINT64}) AS hv FROM h)
SELECT doc_id, lang FROM u
WHERE hv % (CASE lang {case} ELSE {_MIX_DEFAULT} END) = 0
"""


STRATIFIED_SQL = _stratified_sql()


def tfidf_top_terms(sf_dir: str) -> rd.Dataset:
    """Top TF-IDF term per document, two-pass: document frequencies via
    per-batch distinct-(doc,tok) combiner → vocabulary-sized groupby Sum →
    broadcast (sorted vocab, df) arrays ``ray.put`` once; pass 2 scores
    each doc vectorized. Integer score tf * 1e6 // df — no float in the
    ordering, engine-exact. Broadcast assumption: vocabulary fits one
    object (Heaps' law, ~10^8 tokens); beyond that the scale path is the
    size-hybrid token join (stages/joins.py)."""
    import ray
    from ray.data.aggregate import Sum

    from kgw_ray.stages.corpus import df_partial, tfidf_batch

    docs = _docs(sf_dir)

    df_tbl = grouped_aggregate_hybrid(
        docs.map_batches(df_partial, batch_format="pyarrow"),
        "tok",
        [("df", "sum", "df")],
    ).to_pandas()
    if "tok" in df_tbl.columns and len(df_tbl):
        vocab = df_tbl["tok"].to_numpy(dtype=object)
        order = np.argsort(vocab)
        vocab, dfs = vocab[order], df_tbl["df"].to_numpy()[order].astype(np.int64)
    else:  # empty corpus: typed empties keep the schema
        vocab, dfs = np.array([], dtype=object), np.array([], dtype=np.int64)
    vocab_ref = ray.put(vocab)
    dfs_ref = ray.put(dfs)

    def score(batch: pa.Table) -> pa.Table:
        return tfidf_batch(batch, ray.get(vocab_ref), ray.get(dfs_ref))

    return docs.map_batches(score, batch_format="pyarrow")


TFIDF_SQL = """
WITH toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
u AS (SELECT doc_id, unnest(w) AS term FROM toks),
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM u GROUP BY doc_id, term),
df AS (SELECT term, COUNT(DISTINCT doc_id) AS df FROM u GROUP BY term),
s AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         tf.tf * 1000000 // df.df AS score_micro,
         ROW_NUMBER() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * 1000000 // df.df DESC, tf.term
         ) AS rn
  FROM tf JOIN df USING (term)
)
SELECT doc_id, term, tf, df, score_micro FROM s WHERE rn = 1
"""


def kmeans_embeddings(sf_dir: str) -> rd.Dataset:
    """Distributed exact fixed-point k-means over the embeddings table
    (k=8, 3 assignment passes) — see stages/similarity.py:
    kmeans_assignments for the physical plan and the integer-arithmetic
    contract that makes the unrolled SQL oracle hash-exact."""
    from kgw_ray.stages.similarity import kmeans_assignments

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans_assignments(emb, k=8, iters=3)


def _kmeans_sql() -> str:
    from kgw_ray.stages.similarity import kmeans_sql

    return kmeans_sql(k=8, iters=3)


KMEANS_SQL = _kmeans_sql()


def media_resize_digest(sf_dir: str) -> rd.Dataset:
    """Hash-gated projection of the REAL resize pipeline: the resized P6
    payload's (n_bytes, sha256) — the oracle reconstructs the whole
    nearest-neighbor resample in SQL (pixel-center grid, same double
    arithmetic), so a one-pixel sampling drift fails the gate. Reuses THE
    one digest implementation (multimodal.media_metadata_batch)."""
    from kgw_ray.stages.multimodal import media_metadata_batch

    return media_resize(sf_dir).map_batches(
        media_metadata_batch, batch_format="pyarrow"
    ).select_columns(["media_id", "width", "height", "n_bytes", "sha256"])


# Nearest-neighbor grid: src = min(floor((i + 0.5) * (dim/16)), dim-1); the
# float product is never an exact integer for the synth dim ranges except
# when dim/16 is itself exact (w=16/32), where both engines compute it
# exactly — no rounding ambiguity on either side.
MEDIA_RESIZE_SQL = _MEDIA_BASE_SQL + """,
g AS (
  SELECT doc_id, w, h, tiled, u.i - 1 AS j
  FROM t, UNNEST(generate_series(1, 768)) AS u(i)
),
m AS (
  SELECT doc_id, j, tiled, w, h,
         least(CAST(floor(((j // 48) + 0.5) * (CAST(h AS DOUBLE) / 16)) AS BIGINT), h - 1) AS sy,
         least(CAST(floor((((j % 48) // 3) + 0.5) * (CAST(w AS DOUBLE) / 16)) AS BIGINT), w - 1) AS sx,
         j % 3 AS ch
  FROM g
),
r AS (
  SELECT doc_id,
         string_agg(substr(tiled, CAST((sy * w + sx) * 3 + ch + 1 AS INT), 1), '' ORDER BY j) AS body
  FROM m GROUP BY doc_id
)
SELECT doc_id AS media_id, 16 AS width, 16 AS height,
       length(payload) AS n_bytes, sha256(payload) AS sha256
FROM (
  SELECT doc_id,
         'P6' || chr(10) || '16 16' || chr(10) || '255' || chr(10) || body AS payload
  FROM r
)
"""


def media_frame_sample_digest(sf_dir: str) -> rd.Dataset:
    """Hash-gated projection of frame sampling: per kept frame the
    (frame_idx, n_bytes, sha256) triple; the oracle re-chunks the
    reconstructed payload with the same 256-byte/every-4th rule."""
    from kgw_ray.stages.multimodal import media_metadata_batch

    return media_frame_sample(sf_dir).map_batches(
        lambda t: media_metadata_batch(t, payload_col="frame"),
        batch_format="pyarrow",
    ).select_columns(["media_id", "frame_idx", "n_bytes", "sha256"])


# kept frames: idx 0, 4, 8, …; count = ceil(ceil(len/256)/4) = ceil(len/1024)
MEDIA_FRAMES_SQL = _MEDIA_BASE_SQL + """,
pay AS (
  SELECT doc_id,
         'P6' || chr(10) || w || ' ' || h || chr(10) || '255' || chr(10) || tiled AS payload
  FROM t
)
SELECT doc_id AS media_id,
       (u.i - 1) * 4 AS frame_idx,
       length(substr(payload, (u.i - 1) * 1024 + 1, 256)) AS n_bytes,
       sha256(substr(payload, (u.i - 1) * 1024 + 1, 256)) AS sha256
FROM pay,
     UNNEST(generate_series(1, CAST(ceil(length(payload) / 1024.0) AS INT))) AS u(i)
"""


def docs_length_band(sf_dir: str) -> rd.Dataset:
    """Global-statistic filter (the 'drop the length-outlier tails' curation
    step): keep docs whose n_chars lies in the corpus [p10, p90] band,
    with the band computed by the EXACT distributed quantile selector
    (stages/agg.py:exact_quantiles — histogram refinement, no sort); the
    filter itself is an embarrassingly parallel map."""
    import pyarrow.compute as pc

    from kgw_ray.stages.agg import exact_quantiles

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    # quantile pass over the single-column read: exact_quantiles pins its
    # input in the object store for its multi-pass selection — don't make
    # it hold doc_id too (review finding)
    qs = exact_quantiles(
        read_table(sf_dir, "documents", columns=["n_chars"]), "n_chars", [0.1, 0.9]
    )
    lo, hi = qs[0.1], qs[0.9]
    if lo is None:
        return ds
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["n_chars"], int(lo)),
                pc.less_equal(t["n_chars"], int(hi)),
            )
        ),
        batch_format="pyarrow",
    )


DOCS_LENGTH_BAND_SQL = """
WITH s AS (
  SELECT n_chars, ROW_NUMBER() OVER (ORDER BY n_chars) AS rn,
         COUNT(*) OVER () AS n
  FROM documents WHERE n_chars IS NOT NULL
),
lo AS (SELECT n_chars AS v FROM s WHERE rn = CAST(ceil(0.1 * n) AS BIGINT)),
hi AS (SELECT n_chars AS v FROM s WHERE rn = CAST(ceil(0.9 * n) AS BIGINT))
SELECT doc_id, n_chars FROM documents, lo, hi
WHERE n_chars BETWEEN lo.v AND hi.v
"""


def curate_documents_full(sf_dir: str) -> rd.Dataset:
    """The COMPLETE pretraining-corpus recipe in one distributed chain:

        length band (global p10–p90, exact-quantile selector)
        → quality filter → benchmark decontamination
        → exact dedup (first-wins) → MinHash near-dedup
        → stratified per-language mixing

    Every stage is the operator verified individually above; the corpus is
    read once for the band (pruned n_chars column), once for the benchmark
    gram set, and ONCE for everything else: a single enrichment pass
    computes quality stats + content md5 + contamination counts per batch,
    one inline vectorized filter applies the cheap predicates, exact-dedup
    winners semi-join back size-hybrid, the near-dup stage selects
    survivors via its Dataset-native drop set, and the final mixing is an
    embarrassingly parallel md5-mod map. No driver-side O(N) id lists."""
    import ray

    from kgw_ray.stages.agg import exact_quantiles
    from kgw_ray.stages.corpus import decontaminate_batch, stratified_keep_mask
    from kgw_ray.stages.dedup import minhash_dedup_keep
    from kgw_ray.stages.joins import semi_join_dataset
    from kgw_ray.stages.textstats import content_md5_list, quality_stats_batch

    docs = _docs(sf_dir, cols=("doc_id", "text", "lang"))
    band = exact_quantiles(
        read_table(sf_dir, "documents", columns=["n_chars"]), "n_chars", [0.1, 0.9]
    )
    if band[0.1] is None:  # empty corpus: typed empty result, no crash
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "lang": pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                    "quality_score": pa.array([], pa.float64()),
                }
            )
        )
    lo, hi = int(band[0.1]), int(band[0.9])
    bench_ref = _benchmark_gram_ref(docs)

    def enrich(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % _DECONTAM_MOD != 0))
        stats = quality_stats_batch(sub)
        md5s = content_md5_list(sub.column("text").to_pylist())
        dec = decontaminate_batch(sub, ray.get(bench_ref), _DECONTAM_K)
        return (
            stats.append_column("content_md5", pa.array(md5s, pa.string()))
            .append_column("lang", sub.column("lang"))
            .append_column("n_contaminated", dec.column("n_contaminated"))
            .append_column("text", sub.column("text"))
        )

    enriched = docs.map_batches(enrich, batch_format="pyarrow")
    good = enriched.filter(
        expr=(
            f"n_tokens >= 10 and quality_score >= 0.2 "
            f"and n_chars >= {lo} and n_chars <= {hi} and n_contaminated <= 0"
        )
    ).materialize()
    winners = _exact_dedup_winners(good)
    exact_docs = semi_join_dataset(good, winners, on="doc_id")
    survivors = minhash_dedup_keep(
        exact_docs,
        threshold=0.5,
        keep_columns=["doc_id", "lang", "n_tokens", "quality_score"],
    )

    def mix(batch: pa.Table) -> pa.Table:
        keep = stratified_keep_mask(
            batch.column("doc_id").to_numpy(zero_copy_only=False),
            batch.column("lang").to_pylist(),
            _MIX_DENOMS,
            _MIX_DEFAULT,
        )
        return batch.filter(pa.array(keep))

    return survivors.map_batches(mix, batch_format="pyarrow")


def _curate_full_sql() -> str:
    """Oracle for the full recipe: the SQL composition of the six
    individually-oracled stages (band rank selection, quality CTE,
    decontamination membership, first-wins dedup, exact-Jaccard closure
    survivors, md5-mod mixing)."""
    from kgw_ray.stages.textstats import QUALITY_SQL

    case = " ".join(
        f"WHEN '{lang}' THEN {d}" for lang, d in sorted(_MIX_DENOMS.items())
    )
    base = f"""dtoks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
dgrams AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i : i + least(len(w), {_DECONTAM_K}) - 1], ' ') AS g
  FROM dtoks, UNNEST(generate_series(1, len(w) - least(len(w), {_DECONTAM_K}) + 1)) AS t(i)
  WHERE len(w) > 0
),
dbench AS (SELECT DISTINCT g FROM dgrams WHERE doc_id % {_DECONTAM_MOD} = 0),
contam AS (
  SELECT DISTINCT doc_id FROM dgrams
  WHERE doc_id % {_DECONTAM_MOD} <> 0 AND g IN (SELECT g FROM dbench)
),
bandsrc AS (
  SELECT n_chars, ROW_NUMBER() OVER (ORDER BY n_chars) AS rn,
         COUNT(*) OVER () AS n
  FROM documents WHERE n_chars IS NOT NULL
),
blo AS (SELECT n_chars AS v FROM bandsrc WHERE rn = CAST(ceil(0.1 * n) AS BIGINT)),
bhi AS (SELECT n_chars AS v FROM bandsrc WHERE rn = CAST(ceil(0.9 * n) AS BIGINT)),
q AS (SELECT doc_id, n_chars, n_tokens, quality_score FROM ({QUALITY_SQL}) qq),
goodq AS (
  SELECT q.doc_id, d.lang, q.n_tokens, q.quality_score, d.text
  FROM q JOIN documents d ON d.doc_id = q.doc_id, blo, bhi
  WHERE q.n_tokens >= 10 AND q.quality_score >= 0.2
    AND q.n_chars BETWEEN blo.v AND bhi.v
    AND d.doc_id % {_DECONTAM_MOD} <> 0
    AND d.doc_id NOT IN (SELECT doc_id FROM contam)
),
winners AS (SELECT MIN(doc_id) AS doc_id FROM goodq GROUP BY text),
base AS (
  SELECT g.doc_id, g.lang, g.n_tokens, g.quality_score, g.text
  FROM goodq g JOIN winners w ON g.doc_id = w.doc_id
)"""
    survivor = _near_dup_survivor_sql(
        base, "doc_id, lang, n_tokens, quality_score"
    )
    return f"""SELECT doc_id, lang, n_tokens, quality_score FROM (
  SELECT s.*, md5(CAST(s.doc_id AS VARCHAR)) AS hx FROM ({survivor}) s
) mixed
WHERE ({_MD5_LE_UINT64}) % (CASE lang {case} ELSE {_MIX_DEFAULT} END) = 0"""


CURATE_FULL_SQL = _curate_full_sql()


def text_pii_redact(sf_dir: str) -> rd.Dataset:
    """PII redaction compliance pass: per doc the redaction count and the
    md5 of the text after the ordered email/IPv4/phone regex chain
    (stages/textstats.py:pii_redact_batch — Arrow RE2 kernels; DuckDB's
    regexp_* is RE2 too, so the oracle replays the identical chain). Only
    digests cross the cluster, never redacted text. The fixture corpus
    carries no PII (counts are 0 and the digest equals the raw-text md5);
    the machinery is exercised on a PII-laden fixture in
    tests/test_training_data.py."""
    from kgw_ray.stages.textstats import pii_redact_batch

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(pii_redact_batch, batch_format="pyarrow")


def _pii_sql() -> str:
    from kgw_ray.stages.textstats import pii_redact_sql

    return pii_redact_sql("documents")


PII_REDACT_SQL = _pii_sql()


def web_host_stats(sf_dir: str) -> rd.Dataset:
    """Per-HOST crawl rollup over the flagship pages table: page count,
    first/last observed warc_ts, total extracted-text codepoints — the
    crawl-frontier / politeness summary a CommonCrawl-scale pipeline keeps
    per host. The host is parsed from the page URL string (RE2 extract);
    the oracle re-derives it independently from the source column. One
    np-vectorized partial per batch, then a host-vocabulary exchange."""
    import pyarrow.compute as pc

    from kgw_ray.sources.pages import url_for  # noqa: F401 (derivation doc)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        urls = pc.binary_join_element_wise(
            "https://",
            batch.column("source"),
            ".example.org/doc/",
            pc.utf8_lpad(pc.cast(batch.column("doc_id"), pa.string()), 8, "0"),
            "",
        )
        host = pc.struct_field(
            pc.extract_regex(urls, pattern=r"^https://(?P<host>[^/]+)/"), "host"
        ).to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        chars = pc.cast(
            pc.utf8_length(pc.fill_null(batch.column("text"), "")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        uq, inv = np.unique(host, return_inverse=True)
        first = np.full(len(uq), np.iinfo(np.int64).max, dtype=np.int64)
        last = np.full(len(uq), np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(first, inv, ids)
        np.maximum.at(last, inv, ids)
        return pa.table(
            {
                "host": pa.array(uq, pa.string()),
                "n_pages": pa.array(np.bincount(inv).astype(np.int64)),
                "first_id": pa.array(first),
                "last_id": pa.array(last),
                "total_text_chars": pa.array(
                    np.bincount(inv, weights=chars).astype(np.int64)
                ),
            }
        )

    merged = grouped_aggregate_hybrid(
        docs.map_batches(partial, batch_format="pyarrow"),
        "host",
        [
            ("n_pages", "sum", "n_pages"),
            ("first_id", "min", "first_id"),
            ("last_id", "max", "last_id"),
            ("total_text_chars", "sum", "total_text_chars"),
        ],
    )

    _EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00 in µs since Unix epoch

    def finalize(batch: pa.Table) -> pa.Table:
        first = batch.column("first_id").to_numpy(zero_copy_only=False)
        last = batch.column("last_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "host": batch.column("host"),
                "n_pages": batch.column("n_pages"),
                "first_ts": pa.array(_EPOCH_US + first * 1_000_000, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "last_ts": pa.array(_EPOCH_US + last * 1_000_000, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "total_text_chars": batch.column("total_text_chars"),
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


WEB_HOST_STATS_SQL = """
SELECT source || '.example.org' AS host,
       COUNT(*) AS n_pages,
       TIMESTAMP '2024-01-01' + MIN(doc_id) * INTERVAL 1 SECOND AS first_ts,
       TIMESTAMP '2024-01-01' + MAX(doc_id) * INTERVAL 1 SECOND AS last_ts,
       CAST(SUM(length(COALESCE(text, ''))) AS BIGINT) AS total_text_chars
FROM documents
GROUP BY source
"""


def web_url_canonicalize(sf_dir: str) -> rd.Dataset:
    """URL canonicalization + grouped variant fold — the crawl-dedup
    normalizer every CC-scale pipeline runs before url-level dedup
    (scheme/host case-folding, www-stripping, https upgrade, trailing-slash
    and query/fragment drop).

    The deterministic variant synthesis (2-3 spellings per url: the base,
    an http://www. + trailing-slash twin for even doc_ids, and an
    uppercased + ?utm tracking twin for all) stands in for the
    heterogeneous spellings a real frontier sees; the canonicalizer itself
    is generic — ONE RE2 ``extract_regex`` per batch over arbitrary urls,
    all Arrow kernels, no Python per row. Counts fold per batch
    (np.unique) then one url-vocabulary exchange.
    Output: (canon_url, n_variants)."""
    import pyarrow.compute as pc

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def variants(batch: pa.Table) -> pa.Table:
        ids = pc.utf8_lpad(pc.cast(batch.column("doc_id"), pa.string()), 8, "0")
        src = batch.column("source")
        base = pc.binary_join_element_wise(
            "https://", src, ".example.org/doc/", ids, ""
        )
        v_www = pc.binary_join_element_wise(
            "http://www.", src, ".example.org/doc/", ids, "/", ""
        )
        v_track = pc.binary_join_element_wise(
            "HTTPS://",
            pc.utf8_upper(src),
            ".EXAMPLE.ORG/doc/",
            ids,
            "?utm_source=feed#top",
            "",
        )
        even = pa.array(
            batch.column("doc_id").to_numpy(zero_copy_only=False) % 2 == 0
        )
        arrs = [base, v_www.filter(even), v_track]
        return pa.table({"url": pa.concat_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in arrs]
        )})

    def canonicalize(batch: pa.Table) -> pa.Table:
        parts = pc.extract_regex(
            batch.column("url"),
            pattern=r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://(?P<host>[^/?#]+)(?P<path>[^?#]*)",
        )
        host = pc.replace_substring_regex(
            pc.utf8_lower(pc.struct_field(parts, "host")), r"^www\.", ""
        )
        path = pc.replace_substring_regex(
            pc.struct_field(parts, "path"), r"/+$", ""
        )
        canon = pc.binary_join_element_wise("https://", host, path, "")
        uq, counts = np.unique(
            canon.to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "canon_url": pa.array(uq, pa.string()),
                "n_variants": pa.array(counts.astype(np.int64)),
            }
        )

    partials = docs.map_batches(variants, batch_format="pyarrow").map_batches(
        canonicalize, batch_format="pyarrow"
    )
    return grouped_aggregate_hybrid(
        partials, "canon_url", [("n_variants", "sum", "n_variants")]
    )


WEB_URL_CANON_SQL = """
WITH v AS (
  SELECT 'https://' || source || '.example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS u
  FROM documents
  UNION ALL
  SELECT 'http://www.' || source || '.example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 8, '0') || '/'
  FROM documents WHERE doc_id % 2 = 0
  UNION ALL
  SELECT 'HTTPS://' || upper(source) || '.EXAMPLE.ORG/doc/' || lpad(CAST(doc_id AS VARCHAR), 8, '0') || '?utm_source=feed#top'
  FROM documents
),
c AS (
  SELECT 'https://' ||
         regexp_replace(lower(regexp_extract(u, '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)', 1)), '^www\\.', '') ||
         regexp_replace(regexp_extract(u, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+([^?#]*)', 1), '/+$', '') AS canon_url
  FROM v
)
SELECT canon_url, CAST(COUNT(*) AS BIGINT) AS n_variants FROM c GROUP BY canon_url
"""


def docs_token_rows(sf_dir: str, max_doc_id: int = 50) -> "rd.Dataset":
    """EXPLODE (flat_map): the first ``max_doc_id`` documents unnested to
    one row per token position — (doc_id, pos, token), the long-form
    layout token-level labeling/inspection tools consume. Predicate
    pushed into the read; the explode itself is the vectorized
    flat-token pass (ONE Arrow split per batch, np.repeat for ids,
    grouped cumcount-free position arithmetic — no per-row loop)."""
    import numpy as np
    import pyarrow as pa

    from kgw_ray.sources.readers import read_table
    from kgw_ray.stages.corpus import flat_tokens

    import pyarrow.dataset as pads

    ds = read_table(
        sf_dir,
        "documents",
        columns=["doc_id", "text"],
        filter=pads.field("doc_id") < max_doc_id,
    )

    def explode(batch: pa.Table) -> pa.Table:
        idx, toks = flat_tokens(batch)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[idx]
        # position within doc: run-relative arange (docs are contiguous)
        boundary = np.ones(len(idx), dtype=bool)
        boundary[1:] = idx[1:] != idx[:-1]
        starts = np.flatnonzero(boundary)
        lengths = np.diff(np.append(starts, len(idx)))
        pos = np.arange(len(idx)) - np.repeat(starts, lengths)
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64)),
                "pos": pa.array(pos.astype(np.int64)),
                "token": pa.array(toks, pa.string()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


DOCS_TOKEN_ROWS_SQL = """
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents WHERE doc_id < 50
)
SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos, w[i] AS token
FROM t, UNNEST(generate_series(1, len(w))) AS u(i)
"""


def docs_chunk_windows(
    sf_dir: str, *, window: int = 128, stride: int = 96
) -> rd.Dataset:
    """Fixed-size token-window chunking with overlap — the sequence-prep
    stage that turns documents into training examples. Emits one row per
    chunk ``(doc_id, chunk_idx, tok_start, tok_end)``; the explode is a
    vectorized repeat/arange inside ONE ``map_batches`` (no per-doc
    Python), and only token COUNTS are computed (single RE2 scan) — the
    text itself never re-materializes. Zero-token docs emit no chunks
    (matching the SQL lateral-unnest semantics)."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir)

    def explode(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t.column("text"), "")
        n_tok = pc.cast(
            pc.count_substring_regex(text, pattern=r"\S+"), pa.int64()
        ).to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        tail = np.maximum(n_tok - window, 0)
        n_chunks = np.where(n_tok > 0, 1 + (tail + stride - 1) // stride, 0)
        total = int(n_chunks.sum())
        if total == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "chunk_idx": pa.array([], pa.int64()),
                    "tok_start": pa.array([], pa.int64()),
                    "tok_end": pa.array([], pa.int64()),
                }
            )
        doc_rep = np.repeat(ids, n_chunks)
        ntok_rep = np.repeat(n_tok, n_chunks)
        offs = np.cumsum(n_chunks) - n_chunks
        idx = np.arange(total, dtype=np.int64) - np.repeat(offs, n_chunks)
        start = idx * stride
        end = np.minimum(start + window, ntok_rep)
        return pa.table(
            {
                "doc_id": pa.array(doc_rep.astype(np.int64)),
                "chunk_idx": pa.array(idx),
                "tok_start": pa.array(start.astype(np.int64)),
                "tok_end": pa.array(end.astype(np.int64)),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


CHUNK_WINDOWS_SQL = """
WITH t AS (
  SELECT doc_id, len(regexp_extract_all(text, '\\S+')) AS n_tok FROM documents
),
c AS (
  SELECT doc_id, n_tok,
         CASE WHEN n_tok = 0 THEN 0
              ELSE 1 + (GREATEST(n_tok - 128, 0) + 95) // 96 END AS n_chunks
  FROM t
),
x AS (
  SELECT doc_id, n_tok,
         unnest(generate_series(0, n_chunks - 1)) AS chunk_idx
  FROM c WHERE n_chunks > 0
)
SELECT doc_id,
       CAST(chunk_idx AS BIGINT) AS chunk_idx,
       CAST(chunk_idx * 96 AS BIGINT) AS tok_start,
       CAST(LEAST(chunk_idx * 96 + 128, n_tok) AS BIGINT) AS tok_end
FROM x
"""


def embeddings_norm_quantized(sf_dir: str, *, scale: int = 1000) -> rd.Dataset:
    """Per-vector quantized squared L2 norm: each float32 component is
    promoted to double and half-up-quantized to ``round(x*scale)`` int64
    (the kmeans_embeddings convention — exact on both engines), so the
    squared norm is an exact BIGINT under the hash gate. The normalize /
    magnitude-filter precursor every embedding pipeline runs; one
    vectorized pass, no shuffle."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def norms(t: pa.Table) -> pa.Table:
        V = np.vstack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        Q = np.floor(V * scale + 0.5).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(
                    t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "label": pa.array(
                    t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "qnorm2": pa.array(np.einsum("ij,ij->i", Q, Q)),
            }
        )

    return ds.map_batches(norms, batch_format="pyarrow")


EMB_NORM_SQL = """
SELECT vec_id, CAST(label AS BIGINT) AS label,
       CAST(SUM(q * q) AS BIGINT) AS qnorm2
FROM (
  SELECT vec_id, label,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000 + 0.5) AS BIGINT) AS q
  FROM embeddings
)
GROUP BY vec_id, label
"""


def docs_batch_by_token_budget(sf_dir: str, *, budget: int = 2048) -> rd.Dataset:
    """Token-budget batching: documents in doc_id order are assigned to
    consecutive training batches of ~``budget`` tokens (a document may
    straddle a boundary — this is the bytes-per-batch planner, not the
    no-split packer). batch_id = exclusive-prefix-sum // budget, computed
    by the distributed ordered-scan (stages/agg.py:
    global_ordered_prefix_sum — range-bucket exchange, no global sort)."""
    import pyarrow.compute as pc

    from kgw_ray.stages.agg import global_ordered_prefix_sum

    ds = _docs(sf_dir)

    def counts(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t.column("text"), "")
        n_tok = pc.cast(
            pc.count_substring_regex(text, pattern=r"\S+"), pa.int64()
        )
        return pa.table({"doc_id": t.column("doc_id"), "n_tok": n_tok})

    scanned = global_ordered_prefix_sum(
        ds.map_batches(counts, batch_format="pyarrow"), ["doc_id"], "n_tok"
    )

    def finish(t: pa.Table) -> pa.Table:
        import numpy as _np

        excl = t.column("prefix").to_numpy(zero_copy_only=False) - t.column(
            "n_tok"
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_tok": t.column("n_tok"),
                "batch_id": pa.array((excl // budget).astype(_np.int64)),
            }
        )

    return scanned.map_batches(finish, batch_format="pyarrow")


BATCH_BY_BUDGET_SQL = """
WITH t AS (
  SELECT doc_id, len(regexp_extract_all(text, '\\S+')) AS n_tok FROM documents
)
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST((CAST(SUM(n_tok) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                  AS BIGINT) - n_tok) // 2048 AS BIGINT) AS batch_id
FROM t
"""


def dedup_cross_source_overlap(sf_dir: str, *, prefix_tokens: int = 16) -> rd.Dataset:
    """Cross-source syndication matrix: for every source pair, how many
    distinct 16-token document PREFIXES they share — the "same article on
    two domains" detector that exact whole-text dedup misses. Plan: one
    text pass hashes each doc's prefix (pinned tokenizer, md5 of the
    space-joined head — byte-identical to the SQL), per-block dedup
    combiner + ONE (hash, source) exchange, then a size-hybrid self-join
    keyed on the 32-char hash and a vocabulary-sized pair count. Nothing
    wider than the distinct (hash, source) set ever shuffles."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas
    from kgw_ray.functions.tokenize import py_tokens
    from kgw_ray.stages.graph_metrics import _hybrid_attach
    import hashlib as _hashlib
    import pandas as _pd

    ds = read_table(sf_dir, "documents", columns=["text", "source"])

    def prefix_hash(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        hs = [
            _hashlib.md5(
                " ".join(py_tokens(x)[:prefix_tokens]).encode("utf-8")
            ).hexdigest()
            for x in texts
        ]
        g = _pd.DataFrame(
            {"h": hs, "source": t.column("source").to_pylist()}
        ).drop_duplicates()
        g["one"] = 1
        return pa.table(
            {
                "h": pa.array(g["h"].to_numpy(), pa.string()),
                "source": pa.array(g["source"].to_numpy(), pa.string()),
                "one": pa.array(g["one"].to_numpy().astype(np.int64)),
            }
        )

    distinct = grouped_aggregate_hybrid(
        ds.map_batches(prefix_hash, batch_format="pyarrow"),
        ["h", "source"],
        [("one", "min", "n")],
    ).select_columns(["h", "source"])

    right = distinct.map_batches(
        lambda t: pa.table({"h2": t.column("h"), "source_b": t.column("source")}),
        batch_format="pyarrow",
    )
    joined = _hybrid_attach(distinct, right, on="h", right_on="h2")

    def pair_count(t: pa.Table) -> pa.Table:
        df = _pd.DataFrame(
            {
                "source_a": t.column("source").to_pylist(),
                "source_b": t.column("source_b").to_pylist(),
            }
        )
        df = df[df["source_a"] < df["source_b"]]
        g = df.groupby(["source_a", "source_b"], sort=False).size().reset_index(
            name="n_shared"
        )
        return arrow_from_pandas(g)

    return grouped_aggregate_hybrid(
        joined.map_batches(pair_count, batch_format="pyarrow"),
        ["source_a", "source_b"],
        [("n_shared", "sum", "n_shared")],
    )


CROSS_SOURCE_OVERLAP_SQL = """
WITH d AS (
  SELECT DISTINCT
         md5(array_to_string(
           list_slice(list_filter(string_split_regex(text, '\\s+'),
                                  x -> x <> ''), 1, 16), ' ')) AS h,
         source
  FROM documents
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(COUNT(*) AS BIGINT) AS n_shared
FROM d a JOIN d b ON a.h = b.h AND a.source < b.source
GROUP BY a.source, b.source
"""


_PACK_BUDGET = 2048


def docs_pack_greedy(sf_dir: str, *, budget: int = _PACK_BUDGET) -> rd.Dataset:
    """Greedy no-split sequence packing: within each source, documents in
    doc_id order are packed first-fit into bins of ``budget`` tokens (a
    doc never straddles; an oversized doc gets a bin alone) — the
    training-example packer, contrast docs_batch_by_token_budget (the
    straddling planner). Sources are the parallel unit (coarse
    ``map_groups``); within a source the recurrence is genuinely
    sequential (bin state carries doc to doc), so the inner scan is the
    sequential frontier — at cluster scale shard sources across nodes and,
    for a single giant source, split on pre-agreed doc_id ranges and chain
    the carried remainder. Oracle: an independent recursive-CTE replay of
    the same recurrence in DuckDB."""
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def counts(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t.column("text"), "")
        n_tok = pc.cast(pc.count_substring_regex(text, pattern=r"\S+"), pa.int64())
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "source": t.column("source"),
                "n_tok": n_tok,
            }
        )

    def pack(g):
        import pandas as _pd

        g = g.sort_values("doc_id").reset_index(drop=True)
        toks = g["n_tok"].to_numpy()
        bins = np.empty(len(toks), dtype=np.int64)
        rem, b = budget, 0
        for i, tok in enumerate(toks):
            if rem < budget and tok > rem:
                b += 1
                rem = budget
            rem -= int(tok)
            bins[i] = b
        out = _pd.DataFrame(
            {
                "source": g["source"],
                "doc_id": g["doc_id"].astype("int64"),
                "n_tok": g["n_tok"].astype("int64"),
                "bin_id": bins,
            }
        )
        return out

    return (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby("source")
        .map_groups(pack, batch_format="pandas")
    )


PACK_GREEDY_SQL = f"""
WITH RECURSIVE t AS (
  SELECT source, doc_id, len(regexp_extract_all(text, '\\S+')) AS n_tok,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
),
s AS (
  SELECT source, doc_id, n_tok, rn,
         CAST(0 AS BIGINT) AS bin_id,
         {_PACK_BUDGET} - n_tok AS rem
  FROM t WHERE rn = 1
  UNION ALL
  SELECT t.source, t.doc_id, t.n_tok, t.rn,
         CASE WHEN s.rem < {_PACK_BUDGET} AND t.n_tok > s.rem
              THEN s.bin_id + 1 ELSE s.bin_id END,
         CASE WHEN s.rem < {_PACK_BUDGET} AND t.n_tok > s.rem
              THEN {_PACK_BUDGET} - t.n_tok ELSE s.rem - t.n_tok END
  FROM s JOIN t ON t.source = s.source AND t.rn = s.rn + 1
)
SELECT source, doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST(bin_id AS BIGINT) AS bin_id
FROM s
"""


def embeddings_gram_quantized(sf_dir: str, *, scale: int = 1000) -> rd.Dataset:
    """Distributed Gram matrix (the PCA / whitening sufficient statistic):
    the upper triangle of Σ xᵀx over the quantized embedding column,
    exact BIGINTs. Each block contributes ONE dim x dim int64 matmul
    (Q.T @ Q — the vectorized kernel), flattened to (i, j, gram) partials;
    the exchange is dim²/2 rows per block regardless of corpus size, so
    the plan scales with dimensionality, not row count. Quantization is
    the kmeans convention (floor(x*scale + 0.5), stages/similarity.py)."""
    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def gram_partial(t: pa.Table) -> pa.Table:
        V = np.vstack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        Q = np.floor(V * scale + 0.5).astype(np.int64)
        G = Q.T @ Q
        d = G.shape[0]
        iu = np.triu_indices(d)
        return pa.table(
            {
                "i": pa.array(iu[0].astype(np.int64)),
                "j": pa.array(iu[1].astype(np.int64)),
                "gram": pa.array(G[iu]),
            }
        )

    return grouped_aggregate_hybrid(
        ds.map_batches(gram_partial, batch_format="pyarrow"),
        ["i", "j"],
        [("gram", "sum", "gram")],
    )


EMB_GRAM_SQL = """
WITH q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS pos,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) AS BIGINT) AS val
  FROM embeddings, UNNEST(generate_series(1, len(embedding))) AS t(i)
)
SELECT a.pos AS i, b.pos AS j, CAST(SUM(a.val * b.val) AS BIGINT) AS gram
FROM q a JOIN q b ON b.vec_id = a.vec_id AND b.pos >= a.pos
GROUP BY a.pos, b.pos
"""


# 60 rounds: the synthetic embedding cloud's top eigen-gap is flat
# (λ2/λ1 ≈ 0.93-0.98), so the direction needs tens of rounds — convergence
# of the power method is spectrum-dependent; the oracle mirrors whatever
# count is pinned here, so gate equality holds at ANY setting
_POWER_ITERS = 60
_POWER_OUT_SCALE = 1_000_000


def embeddings_top_component(sf_dir: str) -> pa.Table:
    """Top principal direction of the embedding cloud (uncentered PCA) by
    POWER ITERATION over the distributed Gram sufficient statistic —
    iterative distributed linear algebra in the kmeans/pagerank mold.

    Scale shape: the corpus is touched ONCE — each block contributes one
    dim x dim integer matmul and the exchange is dim²/2 rows per block
    (embeddings_gram_quantized); the iterations then run on the driver
    over the tiny d x d matrix (d=64 here), exactly like kmeans' centroid
    updates. Arithmetic is exact integers end-to-end: Python bignums here,
    HUGEINT in the oracle; the per-iteration max-norm rescale uses
    sign-magnitude division ``sign(w) * (|w| * 10^6 // max|w|)`` because
    Python ``//`` floors while DuckDB ``//`` truncates toward zero — on
    magnitudes the two agree. Output: (pos, component), the direction
    scaled to max|component| = 10^6."""
    gram = embeddings_gram_quantized(sf_dir).to_pandas()
    if len(gram) == 0 or "i" not in gram.columns:
        gram = pd.DataFrame({"i": [], "j": [], "gram": []})
    d = int(gram["i"].max()) + 1 if len(gram) else 0
    G = [[0] * d for _ in range(d)]
    for i, j, g in zip(gram["i"], gram["j"], gram["gram"]):
        G[int(i)][int(j)] = int(g)
        G[int(j)][int(i)] = int(g)
    v = [1] * d
    for _ in range(_POWER_ITERS):
        w = [sum(Gi[j] * v[j] for j in range(d)) for Gi in G]
        m = max((abs(x) for x in w), default=0)
        if m == 0:
            v = [0] * d
            break
        v = [
            (1 if x >= 0 else -1) * ((abs(x) * _POWER_OUT_SCALE) // m)
            for x in w
        ]
    return pa.table(
        {
            "pos": pa.array(range(d), pa.int64()),
            "component": pa.array(v, pa.int64()),
        }
    )


def _power_iteration_sql() -> str:
    """Unrolled power-iteration CTE chain mirroring embeddings_top_component
    in exact HUGEINT arithmetic (same Gram, same sign-magnitude rescale)."""
    parts = [
        # MATERIALIZED: DuckDB inlines plain CTEs per reference, so the 60
        # unrolled iterations would otherwise re-scan the parquet 60+ times
        # (and exhaust the open-file limit)
        f"WITH gu AS MATERIALIZED ({EMB_GRAM_SQL}),",
        "g AS MATERIALIZED (SELECT i, j, gram FROM gu"
        " UNION ALL SELECT j AS i, i AS j, gram FROM gu WHERE i <> j),",
        "dim AS (SELECT CAST(len(embedding) AS BIGINT) AS n"
        " FROM embeddings LIMIT 1),",
        "v0 AS (SELECT CAST(t.x - 1 AS BIGINT) AS pos,"
        " CAST(1 AS HUGEINT) AS val"
        " FROM dim, UNNEST(generate_series(1, dim.n)) AS t(x)),",
    ]
    prev = "v0"
    # every iteration CTE is MATERIALIZED: each w/v is referenced twice
    # downstream, so plain (inlined) CTEs would expand the plan 2^iters
    for t in range(1, _POWER_ITERS + 1):
        parts.append(
            f"w{t} AS MATERIALIZED (SELECT g.i AS pos,"
            f" SUM(CAST(g.gram AS HUGEINT) * v.val) AS w"
            f" FROM g JOIN {prev} v ON v.pos = g.j GROUP BY g.i),"
        )
        parts.append(f"m{t} AS (SELECT MAX(ABS(w)) AS m FROM w{t}),")
        parts.append(
            f"v{t} AS MATERIALIZED (SELECT pos, CASE WHEN w >= 0"
            f" THEN (ABS(w) * {_POWER_OUT_SCALE}) // m"
            f" ELSE -((ABS(w) * {_POWER_OUT_SCALE}) // m) END AS val"
            f" FROM w{t}, m{t}),"
        )
        prev = f"v{t}"
    parts.append(
        f"fin AS (SELECT pos, CAST(val AS BIGINT) AS component FROM {prev})\n"
        "SELECT pos, component FROM fin"
    )
    return "\n".join(parts)


EMB_TOP_COMPONENT_SQL = _power_iteration_sql()


_WSAMPLE_K = 100


def docs_sample_weighted(sf_dir: str, k: int = _WSAMPLE_K) -> pa.Table:
    """DETERMINISTIC weighted sampling (integer Efraimidis-Spirakis
    analog): priority = (splitmix64(doc_id) >> 1) // n_chars — a fixed
    pseudo-random draw divided by the weight, so longer documents win
    proportionally more often while the sample stays a pure function of
    doc_id (bit-reproducible at any cluster size / block layout, which a
    PRNG-based sampler is not). doc_id is an INTEGER key, so the draw is
    the fully vectorized portable splitmix64 (functions/porthash — the
    r4 review's per-row-md5 tax removed; mix64_sql keeps the oracle
    bit-identical). The k smallest priorities are selected via
    block-local k-smallest + tiny driver merge (relational.py:
    distributed_topk) — no global sort, no shuffle.
    Output: (doc_id, n_chars, priority)."""
    from kgw_ray.functions.porthash import mix64
    from kgw_ray.pipelines.relational import distributed_topk

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def prio(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        w = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        h = (mix64(ids.astype(np.uint64)) >> np.uint64(1)).astype(np.int64)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_chars": pa.array(w),
                "priority": pa.array(h // np.maximum(w, 1)),
            }
        )

    return distributed_topk(
        docs.map_batches(prio, batch_format="pyarrow"),
        ["priority", "doc_id"],
        [False, False],
        k,
    )


def _sample_weighted_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    hu = mix64_sql("CAST(doc_id AS UBIGINT)")
    return f"""
SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
       CAST(CAST(({hu}) >> 1 AS BIGINT) // greatest(n_chars, 1) AS BIGINT)
         AS priority
FROM documents
ORDER BY priority, doc_id
LIMIT {_WSAMPLE_K}
"""


SAMPLE_WEIGHTED_SQL = _sample_weighted_sql()


def embeddings_scatter_quantized(sf_dir: str, *, scale: int = 1000) -> pa.Table:
    """CENTERED scatter matrix n·S = n·Σ qqᵀ − (Σq)(Σq)ᵀ over the quantized
    embeddings — the covariance sufficient statistic (whitening / PCA with
    mean removal), exact BIGINTs: multiplying through by n avoids the
    mean division that would break integer equality. Upper triangle only.

    Scale shape: same as the Gram (each block ships one d×d matmul, one
    d-vector column sum and a count — the exchange is O(d²) per block);
    the three partials fold on the driver (d=64 ⇒ 2080 output rows).
    Output: (i, j, scatter)."""
    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def partials(t: pa.Table) -> pa.Table:
        V = np.vstack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        Q = np.floor(V * scale + 0.5).astype(np.int64)
        G = Q.T @ Q
        s = Q.sum(axis=0)
        d = G.shape[0]
        iu = np.triu_indices(d)
        # gram partial rows plus one marker row block for (count, colsums):
        # encode colsums as j = -1 rows and the count as (i=-1, j=-1)
        gi = np.concatenate([iu[0], np.arange(d), [-1]])
        gj = np.concatenate([iu[1], np.full(d, -1), [-1]])
        gv = np.concatenate([G[iu], s, [len(Q)]])
        return pa.table(
            {
                "i": pa.array(gi.astype(np.int64)),
                "j": pa.array(gj.astype(np.int64)),
                "v": pa.array(gv.astype(np.int64)),
            }
        )

    merged = grouped_aggregate_hybrid(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["i", "j"],
        [("v", "sum", "v")],
    ).to_pandas()
    if len(merged) == 0 or "i" not in merged.columns:
        return pa.table(
            {
                "i": pa.array([], pa.int64()),
                "j": pa.array([], pa.int64()),
                "scatter": pa.array([], pa.int64()),
            }
        )
    n = int(merged.loc[(merged.i == -1) & (merged.j == -1), "v"].iloc[0])
    sums = merged[(merged.j == -1) & (merged.i >= 0)].set_index("i")["v"]
    gram = merged[(merged.j >= 0)]
    d = int(sums.index.max()) + 1
    s = np.zeros(d, dtype=object)
    for i, v in sums.items():
        s[int(i)] = int(v)
    ii = gram["i"].to_numpy()
    jj = gram["j"].to_numpy()
    gg = gram["v"].to_numpy()
    scatter = [
        int(n) * int(g) - int(s[i]) * int(s[j])
        for i, j, g in zip(ii, jj, gg)
    ]
    order = np.lexsort((jj, ii))
    return pa.table(
        {
            "i": pa.array(ii[order].astype(np.int64)),
            "j": pa.array(jj[order].astype(np.int64)),
            "scatter": pa.array(
                np.array(scatter, dtype=object)[order].tolist(), pa.int64()
            ),
        }
    )


EMB_SCATTER_SQL = """
WITH q AS (
  SELECT vec_id, CAST(i - 1 AS BIGINT) AS pos,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000 + 0.5) AS BIGINT) AS val
  FROM embeddings, UNNEST(generate_series(1, len(embedding))) AS t(i)
),
n AS (SELECT COUNT(DISTINCT vec_id) AS n FROM q),
s AS (SELECT pos, SUM(val) AS sv FROM q GROUP BY pos),
g AS (
  SELECT a.pos AS i, b.pos AS j, SUM(a.val * b.val) AS gram
  FROM q a JOIN q b ON b.vec_id = a.vec_id AND b.pos >= a.pos
  GROUP BY a.pos, b.pos
)
SELECT g.i, g.j,
       CAST(n.n * g.gram - sa.sv * sb.sv AS BIGINT) AS scatter
FROM g, n
JOIN s sa ON sa.pos = g.i
JOIN s sb ON sb.pos = g.j
"""


_Z_BITS = 16


def docs_zorder_keys(sf_dir: str) -> rd.Dataset:
    """Z-ORDER (Morton) layout keys — the multi-dimensional sort key that
    makes BOTH `n_chars` range filters and `doc_id` range filters prune
    row groups after a single physical ordering (the 100 TB data-layout
    lever: write Parquet sorted by zvalue and min/max stats skip on
    either dimension). Interleaves the low 16 bits of n_chars (odd bit
    positions) with the low 16 bits of doc_id (even positions) —
    pure vectorized numpy bit ops; the oracle unrolls the identical
    interleave as integer arithmetic. Output: (doc_id, zvalue, zbucket)
    with zbucket = zvalue >> 24 (the coarse write-partition id)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def zkeys(t: pa.Table) -> pa.Table:
        a = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        a &= (1 << _Z_BITS) - 1
        b &= (1 << _Z_BITS) - 1
        z = np.zeros(len(a), dtype=np.int64)
        for k in range(_Z_BITS):
            z |= ((a >> k) & 1) << (2 * k + 1)
            z |= ((b >> k) & 1) << (2 * k)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "zvalue": pa.array(z),
                "zbucket": pa.array(z >> 24),
            }
        )

    return docs.map_batches(zkeys, batch_format="pyarrow")


def _zorder_sql() -> str:
    terms = []
    for k in range(_Z_BITS):
        terms.append(f"((n_chars // {1 << k}) % 2) * {1 << (2 * k + 1)}")
        terms.append(f"((doc_id // {1 << k}) % 2) * {1 << (2 * k)}")
    z = " + ".join(terms)
    return f"""
WITH m AS (
  SELECT doc_id, n_chars % {1 << _Z_BITS} AS n_chars,
         doc_id % {1 << _Z_BITS} AS did
  FROM documents
),
z AS (SELECT doc_id, CAST({z.replace('doc_id', 'did')} AS BIGINT) AS zvalue FROM m)
SELECT doc_id, zvalue, CAST(zvalue // {1 << 24} AS BIGINT) AS zbucket FROM z
"""


ZORDER_SQL = _zorder_sql()


_KNN_K = 5


def embeddings_knn_graph(sf_dir: str, k: int = _KNN_K) -> pa.Table:
    """k-NN GRAPH construction: every vector's k nearest neighbors by
    cosine (self excluded) — the substrate for graph-based ANN indexes,
    embedding-cluster analysis and near-dup chains. Output:
    (query_id, vec_id, rank).

    Plan: the query matrix IS the corpus — broadcast once via the object
    store, each block computes one (block × corpus) matmul and its local
    top-(k+1), the tiny partials merge on the driver
    (stages/similarity.py:brute_force_topk; k+1 so dropping the self hit
    still leaves k exact neighbors). This all-pairs form is the
    exactness baseline (fine to ~10^6 vectors); at corpus scale the same
    output comes from the IVF-bucketed plan (dedup_embedding_pairs_ivf's
    shape) with this as its verification oracle."""
    from kgw_ray.sources.readers import read_table_pandas
    from kgw_ray.stages.similarity import brute_force_topk

    emb_df = read_table_pandas(
        sf_dir, "embeddings", columns=["vec_id", "embedding"]
    ).sort_values("vec_id")
    if len(emb_df) == 0:  # empty corpus: typed empty kNN graph
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    Q = np.vstack(emb_df["embedding"].to_numpy())
    qids = emb_df["vec_id"].to_numpy()
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    top = brute_force_topk(emb, Q, qids, k=k + 1).to_pandas()
    top = top[top["query_id"] != top["vec_id"]]
    top = top.sort_values(["query_id", "rank"]).reset_index(drop=True)
    top["rank"] = top.groupby("query_id").cumcount() + 1
    top = top[top["rank"] <= k]
    return pa.table(
        {
            "query_id": pa.array(top["query_id"].to_numpy(), pa.int64()),
            "vec_id": pa.array(top["vec_id"].to_numpy(), pa.int64()),
            "rank": pa.array(top["rank"].to_numpy(), pa.int64()),
        }
    )


KNN_GRAPH_SQL = f"""
WITH s AS (
    SELECT q.vec_id AS query_id, e.vec_id,
           list_cosine_similarity(q.embedding, e.embedding) AS sim
    FROM embeddings q JOIN embeddings e ON e.vec_id <> q.vec_id
)
SELECT query_id, vec_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
FROM s
QUALIFY rank <= {_KNN_K}
"""


def embeddings_knn_label_vote(sf_dir: str, k: int = _KNN_K) -> pa.Table:
    """k-NN label classification by majority vote: every vector's
    predicted label = the modal label of its k cosine neighbors (ties →
    lexicographically smallest label) — the standard embedding-space
    label-propagation / probe-classifier evaluation. Output:
    (vec_id, label, predicted, n_votes).

    Plan: rides the gated knn-graph (broadcast-corpus matmul baseline —
    the documented exactness oracle for the IVF scale path); the vote is
    a fold over the k·N-row neighbor table joined to the label column,
    driver-sized at baseline scale. At corpus scale the identical fold
    is a (query_id, label) grouped Sum + per-query arg-max combiner —
    the events_latest_per_user shape."""
    from kgw_ray.sources.readers import read_table_pandas

    knn = embeddings_knn_graph(sf_dir, k).to_pandas()
    lab = read_table_pandas(sf_dir, "embeddings", columns=["vec_id", "label"])
    m = knn.merge(lab, on="vec_id")
    votes = (
        m.groupby(["query_id", "label"], sort=False)
        .size()
        .reset_index(name="n_votes")
    )
    votes = votes.sort_values(
        ["query_id", "n_votes", "label"], ascending=[True, False, True]
    )
    top = votes.groupby("query_id", sort=False).head(1)
    top = top.rename(columns={"label": "predicted"})
    out = top.merge(
        lab.rename(columns={"vec_id": "query_id", "label": "label"}),
        on="query_id",
    ).sort_values("query_id")
    return pa.table(
        {
            "vec_id": pa.array(out["query_id"].to_numpy(), pa.int64()),
            "label": pa.array(out["label"].to_numpy().astype(np.int64)),
            "predicted": pa.array(out["predicted"].to_numpy().astype(np.int64)),
            "n_votes": pa.array(out["n_votes"].to_numpy().astype(np.int64)),
        }
    )


KNN_LABEL_VOTE_SQL = f"""
WITH knn AS ({KNN_GRAPH_SQL}),
nv AS (
  SELECT k.query_id, e.label, COUNT(*) AS n_votes
  FROM knn k JOIN embeddings e ON e.vec_id = k.vec_id
  GROUP BY k.query_id, e.label
),
top AS (
  SELECT query_id, label AS predicted, n_votes,
         ROW_NUMBER() OVER (PARTITION BY query_id
                            ORDER BY n_votes DESC, label) AS rn
  FROM nv
)
SELECT t.query_id AS vec_id, CAST(q.label AS BIGINT) AS label,
       CAST(t.predicted AS BIGINT) AS predicted,
       CAST(t.n_votes AS BIGINT) AS n_votes
FROM top t JOIN embeddings q ON q.vec_id = t.query_id
WHERE t.rn = 1
"""


_CRAWL_BUDGET = 10_000


def webkg_crawl_budget(sf_dir: str, budget: int = _CRAWL_BUDGET) -> pa.Table:
    """Crawl-budget APPORTIONMENT: split a global per-cycle fetch budget
    across hosts proportional to their page counts by the
    largest-remainder (Hamilton) method — the frontier-planning step a
    polite distributed crawler runs each cycle. Integer-exact: quota
    floor = B·n // total; the leftover seats go to the largest
    remainders B·n mod total (host name breaks ties), so both engines
    agree bit-for-bit where float quotas would not.

    Plan: the host page counts are ONE vocabulary-sized distributed
    rollup (web_host_stats' combiner); the apportionment folds on the
    driver over that tiny table (the kmeans/centroid rule). Output:
    (host, n_pages, budget)."""
    from kgw_ray.pipelines.training_data import web_domain_stats  # noqa: F401

    docs = read_table(sf_dir, "documents", columns=["source"])

    def partial(t: pa.Table) -> pa.Table:
        uq, cnt = np.unique(
            t.column("source").to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        return pa.table(
            {
                "host": pa.array(
                    [f"{s}.example.org" for s in uq], pa.string()
                ),
                "n_pages": pa.array(cnt.astype(np.int64)),
            }
        )

    counts = (
        typed_pandas(
            grouped_aggregate_hybrid(
                docs.map_batches(partial, batch_format="pyarrow"),
                "host",
                [("n_pages", "sum", "n_pages")],
            ),
            ["host", "n_pages"],
        )
        .sort_values("host")
        .reset_index(drop=True)
    )
    total = int(counts["n_pages"].sum())
    if total == 0:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "n_pages": pa.array([], pa.int64()),
                "budget": pa.array([], pa.int64()),
            }
        )
    n = counts["n_pages"].to_numpy().astype(object)
    floor = np.array([budget * int(x) // total for x in n], dtype=np.int64)
    rem = np.array([budget * int(x) % total for x in n], dtype=np.int64)
    leftover = budget - int(floor.sum())
    # seats to the largest remainders; host name ascending breaks ties
    order = np.lexsort((counts["host"].to_numpy(), -rem))
    bonus = np.zeros(len(n), dtype=np.int64)
    bonus[order[:leftover]] = 1
    return pa.table(
        {
            "host": pa.array(counts["host"].to_numpy(), pa.string()),
            "n_pages": pa.array(counts["n_pages"].to_numpy().astype(np.int64)),
            "budget": pa.array(floor + bonus),
        }
    )


CRAWL_BUDGET_SQL = f"""
WITH c AS (
  SELECT source || '.example.org' AS host, CAST(COUNT(*) AS BIGINT) AS n_pages
  FROM documents GROUP BY source
),
tot AS (SELECT SUM(n_pages) AS t FROM c),
q AS (
  SELECT host, n_pages,
         ({_CRAWL_BUDGET} * n_pages) // tot.t AS fl,
         ({_CRAWL_BUDGET} * n_pages) % tot.t AS rem
  FROM c, tot
),
lo AS (SELECT {_CRAWL_BUDGET} - SUM(fl) AS seats FROM q),
r AS (
  SELECT host, n_pages, fl,
         ROW_NUMBER() OVER (ORDER BY rem DESC, host) AS rk
  FROM q
)
SELECT host, n_pages,
       CAST(fl + CASE WHEN rk <= lo.seats THEN 1 ELSE 0 END AS BIGINT) AS budget
FROM r, lo
"""


def docs_interleave_roundrobin(sf_dir: str) -> rd.Dataset:
    """Deterministic ROUND-ROBIN curriculum order: global training
    positions that cycle across sources (doc 0 of every source first,
    then doc 1 of every source, ...) — the source-interleave a training
    run uses so no source dominates any window. Output: (doc_id, pos).

    SORT-FREE global ordering: with per-source counts broadcast (a tiny
    table), every doc computes its global position by pure rank
    arithmetic — pos = Σ_s' min(cnt_s', r) + |{s' < s : cnt_s' > r}|
    where r is the doc's rank inside its source — so the total order by
    (r, source) materializes with ONE coarse per-source shuffle and no
    global sort (the ordered-scan family's cheapest member)."""
    import ray as _ray

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source"])

    def count_partial(t: pa.Table) -> pa.Table:
        uq, cnt = np.unique(
            t.column("source").to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "source": pa.array(uq, pa.string()),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    counts = (
        typed_pandas(
            grouped_aggregate_hybrid(
                docs.map_batches(count_partial, batch_format="pyarrow"),
                "source",
                [("n", "sum", "n")],
            ),
            ["source", "n"],
        )
        .sort_values("source")
        .reset_index(drop=True)
    )
    srcs = counts["source"].to_numpy()
    cnts = counts["n"].to_numpy().astype(np.int64)
    src_idx = {s: i for i, s in enumerate(srcs)}
    ref = _ray.put((src_idx, cnts))

    def per_source(g: pd.DataFrame) -> pa.Table:
        if len(g) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
            )
        idx_map, all_cnts = _ray.get(ref)
        g = g.sort_values("doc_id")
        out_ids, out_pos = [], []
        for s, sub in g.groupby("source", sort=False):
            si = idx_map[s]
            r = np.arange(len(sub), dtype=np.int64)
            # docs ranked below r across all sources
            below = np.minimum.outer(r, all_cnts).sum(axis=1)
            # sources before this one still alive at rank r
            alive_before = (all_cnts[:si, None] > r[None, :]).sum(axis=0)
            out_ids.append(sub["doc_id"].to_numpy())
            out_pos.append(below + alive_before)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_ids).astype(np.int64)),
                "pos": pa.array(np.concatenate(out_pos).astype(np.int64)),
            }
        )

    def shard(t: pa.Table) -> pa.Table:
        return t.append_column("_shard", t.column("source"))

    return (
        docs.map_batches(shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(per_source, batch_format="pandas")
    )


INTERLEAVE_RR_SQL = """
WITH r AS (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY doc_id) - 1 AS rk
  FROM documents
)
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (ORDER BY rk, source) - 1 AS BIGINT) AS pos
FROM r
"""


_TEMPLATE_PREFIX_LEN = 3


def text_template_groups(sf_dir: str, k: int = _TEMPLATE_PREFIX_LEN) -> rd.Dataset:
    """BOILERPLATE TEMPLATE detection: documents sharing an identical
    k-token prefix — the shared-header/shared-intro pattern templated
    web pages exhibit — grouped to (prefix_md5, n_docs, min_doc) for
    groups of 2+. The md5 of the joined prefix (never the text) is what
    crosses the exchange, so the shuffle is fixed-width regardless of
    prefix length.

    One vectorized tokenize + slice + hash per batch, per-batch combiner
    (count + min doc per prefix), one hash-vocabulary Sum/Min, then a
    trivial n>=2 filter."""
    import hashlib

    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    docs = _docs(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        hashes = [
            hashlib.md5(" ".join(tx.split()[:k]).encode("utf-8")).hexdigest()
            for tx in texts
        ]
        df = pd.DataFrame({"prefix_md5": hashes, "doc_id": ids})
        g = (
            df.groupby("prefix_md5", sort=False)["doc_id"]
            .agg(n_docs="size", min_doc="min")
            .reset_index()
        )
        return arrow_from_pandas(g)

    merged = grouped_aggregate_hybrid(
        docs.map_batches(partial, batch_format="pyarrow"),
        "prefix_md5",
        [("n_docs", "sum", "n_docs"), ("min_doc", "min", "min_doc")],
    )

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater_equal(t.column("n_docs"), pa.scalar(2, pa.int64()))
        b = t.filter(keep)
        return pa.table(
            {
                "prefix_md5": b.column("prefix_md5"),
                "n_docs": pc.cast(b.column("n_docs"), pa.int64()),
                "min_doc": pc.cast(b.column("min_doc"), pa.int64()),
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


TEMPLATE_GROUPS_SQL = f"""
WITH t AS (
  SELECT doc_id,
         md5(array_to_string(list_slice(
             list_filter(string_split_regex(text, '\\s+'), x -> x <> ''),
             1, {_TEMPLATE_PREFIX_LEN}), ' ')) AS prefix_md5
  FROM documents
)
SELECT prefix_md5, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MIN(doc_id) AS BIGINT) AS min_doc
FROM t GROUP BY prefix_md5 HAVING COUNT(*) >= 2
"""


_PQ_SUBSPACES = 4
_PQ_K = 8


def embeddings_pq_codes(sf_dir: str) -> rd.Dataset:
    """PRODUCT QUANTIZATION (PQ) code assignment — the vector-compression
    backbone of corpus-scale ANN (each 64-dim vector compresses to 4
    one-byte codes: ~64x): the dimensions split into 4 subspaces of 16
    and each subspace trains its own k=8 integer k-means codebook
    (stages/similarity.py:kmeans_assignments — the micro-unit Lloyd's
    whose unrolled SQL is hash-exact), then every vector takes its
    nearest-centroid code per subspace.
    Output: (vec_id, subspace, code).

    Scale shape: 4 independent codebook trainings, each the no-shuffle
    k x dim-partials exchange; the corpus is read once per subspace from
    the same pruned column scan."""
    from kgw_ray.stages.similarity import kmeans_assignments

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    width = None
    outs = []
    for s in range(_PQ_SUBSPACES):

        def slicer(t: pa.Table, _s=s) -> pa.Table:
            V = np.vstack(t.column("embedding").to_numpy(zero_copy_only=False))
            w = V.shape[1] // _PQ_SUBSPACES
            sub = V[:, _s * w : (_s + 1) * w]
            return pa.table(
                {
                    "vec_id": t.column("vec_id"),
                    "embedding": pa.array(list(sub)),
                }
            )

        asg = kmeans_assignments(
            emb.map_batches(slicer, batch_format="pyarrow"),
            k=_PQ_K,
            iters=3,
        )

        def tag(t: pa.Table, _s=s) -> pa.Table:
            return pa.table(
                {
                    "vec_id": t.column("vec_id"),
                    "subspace": pa.array(
                        np.full(t.num_rows, _s, dtype=np.int64)
                    ),
                    "code": pc_cast_int64(t.column("cluster")),
                }
            )

        outs.append(asg.map_batches(tag, batch_format="pyarrow"))
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out


def pc_cast_int64(col):
    import pyarrow.compute as pc

    return pc.cast(col, pa.int64())


def _pq_sql() -> str:
    from kgw_ray.stages.similarity import kmeans_sql

    parts = []
    for s in range(_PQ_SUBSPACES):
        # 64 dims / 4 subspaces; list_slice is 1-based inclusive
        lo = s * 16 + 1
        hi = (s + 1) * 16
        inner = kmeans_sql(
            k=_PQ_K, iters=3, vec_expr=f"list_slice(embedding, {lo}, {hi})"
        )
        parts.append(
            f"SELECT vec_id, CAST({s} AS BIGINT) AS subspace,"
            f" CAST(cluster AS BIGINT) AS code FROM ({inner})"
        )
    return "\nUNION ALL\n".join(parts)


PQ_CODES_SQL = _pq_sql()


def docs_vocab_growth(sf_dir: str) -> pa.Table:
    """HEAPS'-LAW vocabulary growth curve: cumulative distinct-token count
    after each decile of the corpus (by doc_id order) — the
    diminishing-returns statistic data-scaling studies plot. Output:
    (decile, vocab_size), decile k covering doc_ids < (max+1)·(k+1)/10.

    ONE vocabulary exchange total: tokens reduce to (token, first_doc)
    via a grouped Min, each block then bins its tokens' first-appearance
    deciles into a 10-int histogram partial, and the cumulative sum
    folds on the driver — the corpus is never re-scanned per decile."""
    import ray as _ray
    from ray.data.aggregate import Max

    docs = _docs(sf_dir)
    _mx = read_table(sf_dir, "documents", columns=["doc_id"]).aggregate(
        Max("doc_id", alias_name="m")
    )["m"]
    if _mx is None:  # empty corpus: empty growth curve
        return pa.table(
            {
                "decile": pa.array([], pa.int64()),
                "vocab_size": pa.array([], pa.int64()),
            }
        )
    m = int(_mx) + 1

    def tok_partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        toks, firsts = [], []
        seen = {}
        for i, tx in zip(ids, texts):
            for w in tx.split():
                prev = seen.get(w)
                if prev is None or i < prev:
                    seen[w] = int(i)
        return pa.table(
            {
                "tok": pa.array(list(seen.keys()), pa.string()),
                "first_doc": pa.array(
                    np.fromiter(seen.values(), dtype=np.int64, count=len(seen))
                ),
            }
        )

    firsts = grouped_aggregate_hybrid(
        docs.map_batches(tok_partial, batch_format="pyarrow"),
        "tok",
        [("first_doc", "min", "first_doc")],
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        fd = t.column("first_doc").to_numpy(zero_copy_only=False)
        dec = np.minimum(fd * 10 // m, 9)
        h = np.bincount(dec, minlength=10).astype(np.int64)
        return pa.table(
            {
                "decile": pa.array(np.arange(10, dtype=np.int64)),
                "n": pa.array(h),
            }
        )

    hist = (
        firsts.map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("decile")["n"]
        .sum()
    )
    h = np.zeros(10, dtype=np.int64)
    h[hist.index.to_numpy()] = hist.to_numpy()
    return pa.table(
        {
            "decile": pa.array(np.arange(10, dtype=np.int64)),
            "vocab_size": pa.array(np.cumsum(h)),
        }
    )


VOCAB_GROWTH_SQL = f"""
WITH toks AS ({_TOKS_SQL}),
u AS (SELECT doc_id, unnest(w) AS tok FROM toks),
f AS (SELECT tok, MIN(doc_id) AS first_doc FROM u GROUP BY tok),
mx AS (SELECT MAX(doc_id) + 1 AS m FROM documents),
d AS (SELECT least(first_doc * 10 // mx.m, 9) AS dec FROM f, mx),
s AS (SELECT unnest(generate_series(0, 9)) AS decile)
SELECT CAST(s.decile AS BIGINT) AS decile,
       CAST(COUNT(d.dec) AS BIGINT) AS vocab_size
FROM s LEFT JOIN d ON d.dec <= s.decile
GROUP BY s.decile
"""


_SEMDEDUP_T = 0.4


def semdedup_pairs(sf_dir: str, threshold: float = _SEMDEDUP_T) -> rd.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    near-duplicate pairs found WITHIN k-means clusters only — the
    cluster-prune that turns the O(N²) embedding-pair scan into
    k·(N/k)² and is how corpus-scale semantic dedup actually ships.
    Output: (cluster, a, b) for same-cluster pairs with cosine ≥ 0.4
    (the dedup_embedding_pairs threshold convention).

    Plan: the integer-Lloyd's assignment pass (hash-exact, so the SQL
    oracle reproduces the identical clusters), then ONE coarse shuffle on
    the cluster id and a per-cluster vectorized normalized matmul — the
    quadratic work is bounded per cluster, and k scales up at corpus
    scale to keep clusters bite-sized (the paper's regime)."""
    from kgw_ray.stages.similarity import kmeans_assignments

    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    asg = typed_pandas(
        kmeans_assignments(emb, k=8, iters=3),
        ["vec_id", "embedding", "cluster"],
    )
    import ray as _ray

    asg_ref = _ray.put(
        pd.Series(asg["cluster"].to_numpy(), index=asg["vec_id"].to_numpy())
    )

    def attach(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        cl = pd.Series(ids).map(_ray.get(asg_ref)).to_numpy()
        return t.append_column("cluster", pa.array(cl.astype(np.int64)))

    def per_cluster(g: pd.DataFrame) -> pa.Table:
        empty = pa.table(
            {
                "cluster": pa.array([], pa.int64()),
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
            }
        )
        if len(g) < 2:
            return empty
        ids = g["vec_id"].to_numpy()
        V = np.vstack(g["embedding"].to_numpy()).astype(np.float64)
        V = V / np.linalg.norm(V, axis=1, keepdims=True)
        S = V @ V.T
        iu = np.triu_indices(len(ids), k=1)
        hit = S[iu] >= threshold
        if not hit.any():
            return empty
        ai, bi = ids[iu[0][hit]], ids[iu[1][hit]]
        lo, hi = np.minimum(ai, bi), np.maximum(ai, bi)
        return pa.table(
            {
                "cluster": pa.array(
                    np.full(len(lo), int(g["cluster"].iloc[0]), dtype=np.int64)
                ),
                "a": pa.array(lo.astype(np.int64)),
                "b": pa.array(hi.astype(np.int64)),
            }
        )

    return (
        emb.map_batches(attach, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(per_cluster, batch_format="pandas")
    )


def _semdedup_sql() -> str:
    from kgw_ray.stages.similarity import kmeans_sql

    return f"""
WITH asg AS MATERIALIZED ({kmeans_sql(k=8, iters=3)})
SELECT CAST(x.cluster AS BIGINT) AS cluster,
       a.vec_id AS a, b.vec_id AS b
FROM embeddings a JOIN asg x ON x.vec_id = a.vec_id
JOIN asg y ON TRUE
JOIN embeddings b ON b.vec_id = y.vec_id
WHERE y.cluster = x.cluster AND a.vec_id < b.vec_id
  AND list_cosine_similarity(a.embedding, b.embedding) >= {_SEMDEDUP_T}
"""


SEMDEDUP_SQL = _semdedup_sql()


def dedup_cluster_sizes(sf_dir: str) -> rd.Dataset:
    """Near-dup observability: the duplicate-CLUSTER size histogram
    (cluster_size >= 2 -> how many clusters) — the report a curation run
    publishes before deciding drop policy. Exact end to end: the pair
    front end is the uncapped exact-Jaccard inverted index (no LSH recall
    conditionality), components come from the distributed min-label
    propagation (stages/canonicalize.py:connected_components, zero-padded
    ids so lexicographic min == numeric min), and the two counts are
    per-block combiners + bounded grouped Sums. Oracle: the same
    recursive-CTE closure used by the dedup survivors gate, reduced to
    sizes."""
    import pyarrow.compute as pc

    from kgw_ray.stages.canonicalize import connected_components
    from kgw_ray.stages.dedup import exact_jaccard_pairs

    pairs = exact_jaccard_pairs(_docs(sf_dir), threshold=0.5, max_df=None)
    comps = connected_components(
        pairs.map_batches(
            lambda t: pa.table(
                {
                    "a": pc.utf8_lpad(pc.cast(t["a"], pa.string()), 20, "0"),
                    "b": pc.utf8_lpad(pc.cast(t["b"], pa.string()), 20, "0"),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def size_partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("component", sort=False).size().rename("n").reset_index()
        return pa.table(
            {
                "component": pa.array(g["component"].to_numpy(), pa.string()),
                "n": pa.array(g["n"].to_numpy().astype(np.int64)),
            }
        )

    sizes = grouped_aggregate_hybrid(
        comps.map_batches(size_partial, batch_format="pandas"),
        "component",
        [("n", "sum", "cluster_size")],
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        k, n = np.unique(
            t.column("cluster_size").to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "cluster_size": pa.array(k, pa.int64()),
                "m": pa.array(n.astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        sizes.map_batches(hist_partial, batch_format="pyarrow"),
        "cluster_size",
        [("m", "sum", "n_clusters")],
    )


DEDUP_CLUSTER_SIZES_SQL = """
WITH RECURSIVE toks AS (
  SELECT doc_id, list_filter(string_split_regex(text, '\\s+'), x -> x <> '') AS w
  FROM documents
),
shd AS (
  SELECT DISTINCT doc_id,
         array_to_string(w[i : i + least(len(w), 5) - 1], ' ') AS s
  FROM toks, UNNEST(generate_series(1, len(w) - least(len(w), 5) + 1)) AS t(i)
  WHERE len(w) > 0
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM shd GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, COUNT(*) AS i
  FROM shd a JOIN shd b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
),
pairs AS (
  SELECT i.a, i.b
  FROM inter i JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b
  WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.5
),
edges AS (SELECT a AS x, b AS y FROM pairs UNION ALL SELECT b AS x, a AS y FROM pairs),
r(id, m) AS (
  SELECT x, y FROM edges
  UNION
  SELECT r.id, e.y FROM r JOIN edges e ON r.m = e.x
),
comp AS (SELECT id, LEAST(id, MIN(m)) AS comp FROM r GROUP BY id),
cs AS (SELECT comp, CAST(COUNT(*) AS BIGINT) AS cluster_size FROM comp GROUP BY comp)
SELECT cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters
FROM cs GROUP BY cluster_size
"""


def docs_lang_source_contingency(sf_dir: str) -> rd.Dataset:
    """Corpus-mix audit: the language x source contingency table with the
    independence-model expected count (ppm-quantized integer — the
    chi-square ingredients without a float in the engine). One combiner
    pass builds the observed cell counts; row/column/grand totals derive
    from the (vocabulary-sized) cell table on the driver and the expected
    count attaches as exact integer arithmetic (row_tot * col_tot * 1e6
    // N, truncating division — both engines agree on non-negative
    ints)."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas

    ds = _docs(sf_dir, cols=("lang", "source"))

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["lang", "source"], sort=False).size().rename("n").reset_index()
        return arrow_from_pandas(g)

    cells = typed_pandas(
        grouped_aggregate_hybrid(
            ds.map_batches(partial, batch_format="pandas"),
            ["lang", "source"],
            [("n", "sum", "n_docs")],
        ),
        ["lang", "source", "n_docs"],
    )  # bounded: |langs| x |sources| rows
    row_tot = cells.groupby("lang")["n_docs"].sum()
    col_tot = cells.groupby("source")["n_docs"].sum()
    total = int(cells["n_docs"].sum())
    if total == 0:
        return pa.table(
            {
                "lang": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "expected_ppm": pa.array([], pa.int64()),
            }
        )
    # python ints, not numpy: row_tot * col_tot * 1e6 wraps int64 silently
    # past ~1e6-doc rows x columns at corpus scale; the cell table is
    # vocabulary-sized so the driver loop is trivial, and the quotient
    # (<= total * 1e6) fits int64 again
    rt, ct = row_tot.to_dict(), col_tot.to_dict()
    exp = np.array(
        [
            (int(rt[lg]) * int(sc_n) * 1_000_000) // total
            for lg, sc_n in zip(
                cells["lang"], cells["source"].map(ct)
            )
        ],
        dtype=np.int64,
    )
    out = cells.assign(
        n_docs=cells["n_docs"].to_numpy(np.int64), expected_ppm=exp.astype(np.int64)
    )
    return arrow_from_pandas(out[["lang", "source", "n_docs", "expected_ppm"]])


DOCS_CONTINGENCY_SQL = """
WITH o AS (
  SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n_docs
  FROM documents GROUP BY lang, source
),
r AS (SELECT lang, CAST(SUM(n_docs) AS BIGINT) AS rn FROM o GROUP BY lang),
c AS (SELECT source, CAST(SUM(n_docs) AS BIGINT) AS cn FROM o GROUP BY source),
t AS (SELECT CAST(SUM(n_docs) AS BIGINT) AS tot FROM o)
SELECT o.lang, o.source, o.n_docs,
       -- HUGEINT product: BIGINT rn*cn*1e6 overflows at corpus scale
       CAST(CAST(r.rn AS HUGEINT) * c.cn * 1000000 // t.tot AS BIGINT)
         AS expected_ppm
FROM o JOIN r ON o.lang = r.lang JOIN c ON o.source = c.source, t
"""


_NULL_SENTINEL = "\x00__null__"


def profile_documents(sf_dir: str) -> rd.Dataset:
    """Table profiler (SUMMARIZE / reference statistics-sink analog,
    kgw/_shared/tasks.py stats outputs): per column of ``documents`` —
    row count, null count, and EXACT distinct count, in ONE pass + ONE
    pair-keyed exchange. Per block, every column folds to (col, key,
    cnt) value-count partials — long text values hash to md5 first so
    the shuffle never carries document bodies (the dedup_exact rule;
    md5-distinct == value-distinct absent collisions), nulls fold into
    a sentinel key so null counts ride the same reduce. The global
    (col, key) reduce is vocabulary-bounded for every column except the
    primary key, whose distinct-count shuffle is inherently key-sized."""
    import hashlib

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    ds = read_table(sf_dir, "documents", columns=cols)

    def partial(t: pa.Table) -> pa.Table:
        out_col, out_key, out_cnt = [], [], []
        for c in cols:
            arr = t.column(c)
            n_null = arr.null_count
            vals = arr.drop_null()
            if c == "text":
                keys = np.asarray(
                    [
                        hashlib.md5(v.encode("utf-8")).hexdigest()
                        for v in vals.to_pylist()
                    ]
                )
            else:
                keys = vals.cast(pa.string()).to_numpy(zero_copy_only=False)
            uk, cnts = np.unique(keys, return_counts=True)
            out_col.extend([c] * len(uk))
            out_key.extend(uk.tolist())
            out_cnt.extend(cnts.tolist())
            if n_null:
                out_col.append(c)
                out_key.append(_NULL_SENTINEL)
                out_cnt.append(n_null)
        return pa.table(
            {
                "col_name": pa.array(out_col, pa.string()),
                "key": pa.array(out_key, pa.string()),
                "cnt": pa.array(np.asarray(out_cnt, dtype=np.int64)),
            }
        )

    keyed = grouped_aggregate_hybrid(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["col_name", "key"],
        [("cnt", "sum", "cnt")],
    )

    def fold(df: pd.DataFrame) -> pa.Table:
        is_null = df["key"].to_numpy() == _NULL_SENTINEL
        g = pd.DataFrame(
            {
                "col_name": df["col_name"].to_numpy(),
                "n": df["cnt"].to_numpy(dtype=np.int64),
                "n_null": np.where(is_null, df["cnt"].to_numpy(dtype=np.int64), 0),
                "n_distinct": (~is_null).astype(np.int64),
            }
        ).groupby("col_name", sort=False).sum().reset_index()
        return pa.table(
            {
                "col_name": pa.array(g["col_name"].to_numpy(), pa.string()),
                "n": pa.array(g["n"].to_numpy(dtype=np.int64)),
                "n_null": pa.array(g["n_null"].to_numpy(dtype=np.int64)),
                "n_distinct": pa.array(g["n_distinct"].to_numpy(dtype=np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        keyed.map_batches(fold, batch_format="pandas"),
        "col_name",
        [
            ("n", "sum", "n"),
            ("n_null", "sum", "n_null"),
            ("n_distinct", "sum", "n_distinct"),
        ],
    )


PROFILE_DOCUMENTS_SQL = """
SELECT 'doc_id' AS col_name, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN doc_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null,
       CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_distinct FROM documents
UNION ALL
SELECT 'text', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN text IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(COUNT(DISTINCT text) AS BIGINT) FROM documents
UNION ALL
SELECT 'lang', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN lang IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(COUNT(DISTINCT lang) AS BIGINT) FROM documents
UNION ALL
SELECT 'source', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN source IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(COUNT(DISTINCT source) AS BIGINT) FROM documents
UNION ALL
SELECT 'n_chars', CAST(COUNT(*) AS BIGINT),
       CAST(SUM(CASE WHEN n_chars IS NULL THEN 1 ELSE 0 END) AS BIGINT),
       CAST(COUNT(DISTINCT n_chars) AS BIGINT) FROM documents
"""


def embeddings_label_centroid_parts(sf_dir: str) -> rd.Dataset:
    """Per-label centroid PARTS over the embedding table — (label, dim,
    n, sum_q): the mergeable form of class centroids (supervised
    prototype / class-balance audit; consumers derive means, the engine
    ships only int64 monoids — the events_value_var_parts rule). Values
    quantize half-up to micro-units (floor(x·1e6 + 0.5), the kmeans
    convention both engines share); per block, np.add.at folds a batch
    to |labels|×dim partial rows, so the ONE exchange is
    label-vocabulary × dimension bounded regardless of corpus size."""
    from kgw_ray.stages.similarity import _quantize_matrix

    ds = read_table(sf_dir, "embeddings", columns=["label", "embedding"])

    def partial(t: pa.Table) -> pa.Table:
        M = _quantize_matrix(t, "embedding")
        labels = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        uq, inv = np.unique(labels, return_inverse=True)
        dim = M.shape[1]
        sums = np.zeros((len(uq), dim), np.int64)
        np.add.at(sums, inv, M)
        cnt = np.bincount(inv, minlength=len(uq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uq, dim)),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uq))),
                "n": pa.array(np.repeat(cnt, dim)),
                "sum_q": pa.array(sums.ravel()),
            }
        )

    return grouped_aggregate_hybrid(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "dim"],
        [("n", "sum", "n"), ("sum_q", "sum", "sum_q")],
    )


EMBEDDINGS_LABEL_CENTROID_SQL = """
SELECT CAST(label AS BIGINT) AS label, CAST(i - 1 AS BIGINT) AS dim,
       CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(CAST(embedding[i] AS DOUBLE) * 1000000 + 0.5)
                     AS BIGINT)) AS BIGINT) AS sum_q
FROM embeddings, UNNEST(generate_series(1, len(embedding))) AS t(i)
GROUP BY label, i
"""


_VAL_PCT = 10  # deterministic 10% validation split


def docs_train_val_split(sf_dir: str) -> rd.Dataset:
    """DETERMINISTIC train/val split with per-host stratification audit:
    every doc lands in 'val' iff splitmix64(doc_id) % 100 < 10 — a pure
    function of the KEY (functions/porthash), so the split is identical
    at any cluster size / block layout / rerun, where a PRNG split (or
    ds.train_test_split) is layout-dependent and irreproducible. Output:
    (source, split, n_docs, n_chars) — the per-host×split counts a data
    curator audits for stratification skew before training. One combiner
    pass + a host-vocabulary-bounded Sum; no shuffle of the corpus."""
    from kgw_ray.functions.porthash import mix64

    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars", "source"])

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        split = np.where(
            mix64(ids.astype(np.int64).view(np.uint64)) % np.uint64(100)
            < np.uint64(_VAL_PCT),
            "val",
            "train",
        )
        df = (
            pd.DataFrame(
                {
                    "source": t.column("source").to_numpy(zero_copy_only=False),
                    "split": split,
                    "n_docs": 1,
                    "n_chars": t.column("n_chars")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64),
                }
            )
            .groupby(["source", "split"], sort=False)
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "source": pa.array(df["source"], pa.string()),
                "split": pa.array(df["split"], pa.string()),
                "n_docs": pa.array(df["n_docs"].to_numpy().astype(np.int64)),
                "n_chars": pa.array(df["n_chars"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["source", "split"],
        [("n_docs", "sum", "n_docs"), ("n_chars", "sum", "n_chars")],
    )


def _train_val_split_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    hu = mix64_sql("CAST(doc_id AS UBIGINT)")
    return f"""
WITH s AS (
  SELECT source,
         CASE WHEN ({hu}) % 100 < {_VAL_PCT} THEN 'val' ELSE 'train' END
           AS split,
         n_chars
  FROM documents
)
SELECT source, split, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS n_chars
FROM s GROUP BY source, split
"""


TRAIN_VAL_SPLIT_SQL = _train_val_split_sql()


def docs_partitioned_export(sf_dir: str) -> rd.Dataset:
    """Hive-partitioned export with a gated read-back: write the documents
    table as ``lang=<value>/`` Parquet partitions (the resumable-output
    layout — a re-run skips finished partition directories), then read the
    partitioned lake BACK (Ray re-derives the partition column from the
    directory names) and count rows per partition in-engine. The returned
    (lang, n_docs) table is hash-gated against GROUP BY over the ORIGINAL
    table, so the gate proves the partitioned write routed and preserved
    every row."""
    import tempfile

    import ray.data as rd

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    out_dir = tempfile.mkdtemp(prefix="kgw_ray_part_export_")
    docs.write_parquet(out_dir, partition_cols=["lang"])

    back = rd.read_parquet(out_dir)

    def _count_partial(t: pa.Table) -> pa.Table:
        import pandas as _pd

        g = (
            _pd.DataFrame(
                {"lang": t.column("lang").to_numpy(zero_copy_only=False)}
            )
            .groupby("lang", sort=False)
            .size()
            .rename("n_docs")
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"].astype(str).to_numpy(), pa.string()),
                "n_docs": pa.array(g["n_docs"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        back.map_batches(_count_partial, batch_format="pyarrow"),
        "lang",
        [("n_docs", "sum", "n_docs")],
    )


PARTITIONED_EXPORT_SQL = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang
"""


def docs_lang_source_chi2(sf_dir: str) -> pa.Table:
    """INDEPENDENCE TEST between corpus dimensions: the full lang × source
    contingency grid with exact-integer chi-square terms — (lang, source,
    observed, expected_milli, chi2_term_micro), including the
    zero-observed cells of the margin cross product. The corpus-health
    check that catches a crawl source collapsing onto one language (a
    mixing-weights red flag) BEFORE training.

    expected_milli  = 10³·row_total·col_total // N
    chi2_term_micro = 10⁶·(o·N − r·c)² // (N·r·c)

    Plan: one (lang×source)-vocabulary-bounded count exchange; the grid
    arithmetic folds on the driver in PYTHON ints (the products reach
    (o·N)² — far past int64 at corpus scale; the oracle mirrors with
    HUGEINT). The driver fold is legitimate under the house rule: the
    grid is vocabulary², never corpus-sized."""

    docs = read_table(sf_dir, "documents", columns=["lang", "source"])

    def ones(t: pa.Table) -> pa.Table:
        return t.append_column(
            "one", pa.array(np.ones(len(t), dtype=np.int64))
        )

    counts = (
        grouped_aggregate_hybrid(
            docs.map_batches(ones, batch_format="pyarrow"),
            ["lang", "source"],
            [("one", "sum", "o")],
        )
        .to_pandas()  # vocabulary-bounded: |langs| × |sources| rows
    )
    obs = {
        (r.lang, r.source): int(r.o) for r in counts.itertuples(index=False)
    }
    langs = sorted({k[0] for k in obs})
    sources = sorted({k[1] for k in obs})
    row_tot = {l: sum(v for (a, _), v in obs.items() if a == l) for l in langs}
    col_tot = {s: sum(v for (_, b), v in obs.items() if b == s) for s in sources}
    n = sum(obs.values())

    out_l, out_s, out_o, out_e, out_chi = [], [], [], [], []
    for l in langs:
        for s in sources:
            o = obs.get((l, s), 0)
            r, c = row_tot[l], col_tot[s]
            out_l.append(l)
            out_s.append(s)
            out_o.append(o)
            out_e.append((1000 * r * c) // n)
            d = o * n - r * c
            out_chi.append((1_000_000 * d * d) // (n * r * c))
    return pa.table(
        {
            "lang": pa.array(out_l, pa.string()),
            "source": pa.array(out_s, pa.string()),
            "observed": pa.array(out_o, pa.int64()),
            "expected_milli": pa.array(out_e, pa.int64()),
            "chi2_term_micro": pa.array(out_chi, pa.int64()),
        }
    )


LANG_SOURCE_CHI2_SQL = """
WITH c AS (
  SELECT lang, source, CAST(COUNT(*) AS HUGEINT) AS o
  FROM documents GROUP BY lang, source
),
r AS (SELECT lang, SUM(o) AS rl FROM c GROUP BY lang),
s AS (SELECT source, SUM(o) AS cs FROM c GROUP BY source),
n AS (SELECT SUM(o) AS n FROM c)
SELECT r.lang, s.source,
       CAST(COALESCE(c.o, 0) AS BIGINT) AS observed,
       CAST((1000 * r.rl * s.cs) // n.n AS BIGINT) AS expected_milli,
       CAST((1000000 * (COALESCE(c.o, 0) * n.n - r.rl * s.cs)
                     * (COALESCE(c.o, 0) * n.n - r.rl * s.cs))
            // (n.n * r.rl * s.cs) AS BIGINT) AS chi2_term_micro
FROM r CROSS JOIN s CROSS JOIN n
LEFT JOIN c ON c.lang = r.lang AND c.source = s.source
"""


# ---------------------------------------------------------------------------
# Hybrid retrieval: reciprocal-rank fusion of keyword + model rankings
# ---------------------------------------------------------------------------

_RRF_QUERY_TOKENS = ("join", "scan", "filter")
_RRF_K = 60
_RRF_DEPTH = 100
_RRF_TOPN = 20


def docs_hybrid_search_rrf(sf_dir: str) -> pa.Table:
    """Hybrid document retrieval by Reciprocal-Rank Fusion (Cormack et al.
    2009): ranking A = keyword tf of a fixed query token set (matching docs
    only), ranking B = the bundled warm-model quality logit, each cut to
    the top ``_RRF_DEPTH`` under a (score desc, doc_id) TOTAL order, fused
    as ``rrf_micro = Σ 1_000_000 // (60 + rank)`` — integer floor per term,
    so both engines agree bit-for-bit where float 1/(k+r) would drift.
    Output: top ``_RRF_TOPN`` of (doc_id, rrf_micro, kw_rank, q_rank)
    (rank 0 = absent from that ranking).

    Plan: two independent streaming rankings — a zero-shuffle tf map +
    ``distributed_topk`` (per-block top-k, driver merge of ≤ blocks×k
    rows), and the QualityModelScorer actor pool (weights load once per
    actor) + the same top-k — then a ≤ 2·depth-row driver fuse. Nothing
    corpus-sized leaves the workers; depth caps the exchange regardless
    of corpus size."""
    from kgw_ray.pipelines.relational import distributed_topk
    from kgw_ray.stages.corpus import flat_tokens
    from kgw_ray.stages.scoring import QualityModelScorer

    docs = _docs(sf_dir)

    def _tf(batch: pa.Table) -> pa.Table:
        d, toks = flat_tokens(batch)
        hit = np.isin(toks, np.array(_RRF_QUERY_TOKENS, dtype=object))
        tf = np.bincount(d[hit], minlength=batch.num_rows).astype(np.int64)
        keep = tf > 0
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {"doc_id": pa.array(ids[keep]), "tf": pa.array(tf[keep])}
        )

    kw = distributed_topk(
        docs.map_batches(_tf, batch_format="pyarrow"),
        ["tf", "doc_id"],
        [True, False],
        _RRF_DEPTH,
    ).to_pandas()
    if "doc_id" not in kw.columns:  # empty-pull column loss
        kw = pd.DataFrame({"doc_id": [], "tf": []})
    kw = kw.sort_values(["tf", "doc_id"], ascending=[False, True]).reset_index(
        drop=True
    )
    kw["kw_rank"] = np.arange(1, len(kw) + 1, dtype=np.int64)

    scored = _docs(sf_dir).map_batches(
        QualityModelScorer,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )
    q = distributed_topk(
        scored, ["logit_micro", "doc_id"], [True, False], _RRF_DEPTH
    ).to_pandas()
    if "doc_id" not in q.columns:  # empty-pull column loss
        q = pd.DataFrame({"doc_id": [], "logit_micro": []})
    q = q.sort_values(
        ["logit_micro", "doc_id"], ascending=[False, True]
    ).reset_index(drop=True)
    q["q_rank"] = np.arange(1, len(q) + 1, dtype=np.int64)

    fused = pd.merge(
        kw[["doc_id", "kw_rank"]],
        q[["doc_id", "q_rank"]],
        on="doc_id",
        how="outer",
    ).fillna(0)
    fused = fused.astype({"kw_rank": "int64", "q_rank": "int64"})
    kr = fused["kw_rank"].to_numpy()
    qr = fused["q_rank"].to_numpy()
    fused["rrf_micro"] = np.where(
        kr > 0, 1_000_000 // (_RRF_K + kr), 0
    ) + np.where(qr > 0, 1_000_000 // (_RRF_K + qr), 0)
    fused = fused.sort_values(
        ["rrf_micro", "doc_id"], ascending=[False, True]
    ).head(_RRF_TOPN)
    return pa.table(
        {
            "doc_id": pa.array(fused["doc_id"].to_numpy().astype(np.int64)),
            "rrf_micro": pa.array(fused["rrf_micro"].to_numpy()),
            "kw_rank": pa.array(fused["kw_rank"].to_numpy()),
            "q_rank": pa.array(fused["q_rank"].to_numpy()),
        }
    )


def _hybrid_rrf_sql() -> str:
    from kgw_ray.stages.scoring import quality_model_sql

    toks = ", ".join(f"'{t}'" for t in _RRF_QUERY_TOKENS)
    return f"""
WITH kwscore AS (
  SELECT doc_id,
         CAST(len(list_filter(string_split_regex(COALESCE(text, ''), '\\s+'),
              x -> x IN ({toks}))) AS BIGINT) AS tf
  FROM documents
),
kwrank AS (
  SELECT doc_id, ROW_NUMBER() OVER (ORDER BY tf DESC, doc_id) AS r
  FROM kwscore WHERE tf > 0
  ORDER BY tf DESC, doc_id LIMIT {_RRF_DEPTH}
),
qm AS ({quality_model_sql()}),
qrank AS (
  SELECT doc_id, ROW_NUMBER() OVER (ORDER BY logit_micro DESC, doc_id) AS r
  FROM qm ORDER BY logit_micro DESC, doc_id LIMIT {_RRF_DEPTH}
),
fused AS (
  SELECT doc_id,
         COALESCE(1000000 // ({_RRF_K} + k.r), 0)
           + COALESCE(1000000 // ({_RRF_K} + s.r), 0) AS rrf_micro,
         COALESCE(k.r, 0) AS kw_rank,
         COALESCE(s.r, 0) AS q_rank
  FROM kwrank k FULL OUTER JOIN qrank s USING (doc_id)
)
SELECT doc_id, CAST(rrf_micro AS BIGINT) AS rrf_micro,
       CAST(kw_rank AS BIGINT) AS kw_rank, CAST(q_rank AS BIGINT) AS q_rank
FROM fused ORDER BY rrf_micro DESC, doc_id LIMIT {_RRF_TOPN}
"""


HYBRID_RRF_SQL = _hybrid_rrf_sql()


# ---------------------------------------------------------------------------
# Doc-level token co-occurrence lift (collocation beyond adjacency)
# ---------------------------------------------------------------------------

_COOC_VOCAB = 100
_COOC_MIN_CO = 5
_COOC_TOPN = 50


def text_cooccurrence_lift(sf_dir: str) -> pa.Table:
    """Document-level token co-occurrence association: for the top
    ``_COOC_VOCAB`` tokens by document frequency, every pair's exact lift
    ``co_df · N · 10⁶ // (df_x · df_y)`` (arbitrary-precision on both
    engines — Python int here, HUGEINT in the oracle), co_df ≥
    ``_COOC_MIN_CO``, top ``_COOC_TOPN`` under (lift desc, x, y). The
    doc-LEVEL complement of text_bigram_lift's adjacency collocation —
    "appear in the same document" vs "appear adjacent".

    Plan: one df pass (the shared ``df_partial`` combiner → vocabulary
    Sum) picks the head vocabulary under a (df desc, tok) total order and
    broadcasts it ONCE sorted; the pair pass maps each doc's distinct
    in-vocab tokens to indices and emits integer-packed upper-triangle
    pair partials (≤ V²-bounded), one Sum exchange, Python-int driver
    fold over ≤ V² rows. The head-vocabulary cap is the scale guard: the
    pair space is V², never corpus-vocabulary²."""
    import ray

    from kgw_ray.stages.corpus import df_partial, distinct_doc_grams, flat_tokens

    docs = _docs(sf_dir)
    dfs = grouped_aggregate_hybrid(
        docs.map_batches(df_partial, batch_format="pyarrow"),
        "tok",
        [("df", "sum", "df")],
    ).to_pandas()  # vocabulary-sized pull
    n_docs = docs.count()
    if len(dfs) == 0 or "df" not in dfs.columns:
        # empty corpus: a zero-row pull drops its columns (repo-wide
        # empty-pull hazard) — return the typed empty result
        return pa.table(
            {
                "x": pa.array([], pa.string()),
                "y": pa.array([], pa.string()),
                "co_df": pa.array([], pa.int64()),
                "lift_micro": pa.array([], pa.int64()),
            }
        )
    dfs = (
        dfs.sort_values(["df", "tok"], ascending=[False, True])
        .head(_COOC_VOCAB)
        .reset_index(drop=True)
    )
    vocab_sorted = np.sort(dfs["tok"].to_numpy())
    df_of = dict(zip(dfs["tok"], dfs["df"].astype(int)))
    V = len(vocab_sorted)
    ref = ray.put(vocab_sorted)

    def _pair_partial(batch: pa.Table) -> pa.Table:
        vs = ray.get(ref)
        d, toks = flat_tokens(batch)
        dd, tt = distinct_doc_grams(d, toks)
        if len(tt):
            pos = np.searchsorted(vs, tt)
            pos[pos == len(vs)] = 0
            hit = vs[pos] == tt
            dd, idx = dd[hit], np.searchsorted(vs, tt[hit])
        else:
            idx = np.zeros(0, np.int64)
        keys = []
        if len(idx):
            order = np.lexsort((idx, dd))
            dd, idx = dd[order], idx[order]
            seg = np.nonzero(np.concatenate(([True], dd[1:] != dd[:-1])))[0]
            ends = np.append(seg[1:], len(dd))
            for s, e in zip(seg, ends):
                m = e - s
                if m < 2:
                    continue
                i, j = np.triu_indices(m, 1)
                keys.append(idx[s:e][i] * np.int64(V) + idx[s:e][j])
        if not keys:
            return pa.table(
                {"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        uq, cnt = np.unique(np.concatenate(keys), return_counts=True)
        return pa.table(
            {"k": pa.array(uq.astype(np.int64)), "n": pa.array(cnt.astype(np.int64))}
        )

    co = grouped_aggregate_hybrid(
        docs.map_batches(_pair_partial, batch_format="pyarrow"),
        "k",
        [("n", "sum", "co_df")],
    ).to_pandas()  # ≤ V² rows
    rows = []
    for k, co_df in zip(co["k"].astype(int), co["co_df"].astype(int)):
        if co_df < _COOC_MIN_CO:
            continue
        x, y = vocab_sorted[k // V], vocab_sorted[k % V]
        lift = co_df * n_docs * 1_000_000 // (df_of[x] * df_of[y])
        rows.append((x, y, co_df, lift))
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    rows = rows[:_COOC_TOPN]
    return pa.table(
        {
            "x": pa.array([r[0] for r in rows], pa.string()),
            "y": pa.array([r[1] for r in rows], pa.string()),
            "co_df": pa.array([r[2] for r in rows], pa.int64()),
            "lift_micro": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


COOC_LIFT_SQL = f"""
WITH toks AS (
  SELECT doc_id,
         unnest(list_distinct(list_filter(
             string_split_regex(COALESCE(text, ''), '\\s+'), x -> x <> ''
         ))) AS tok
  FROM documents
),
df AS (SELECT tok, COUNT(*) AS df FROM toks GROUP BY tok),
vocab AS (SELECT tok, df FROM df ORDER BY df DESC, tok LIMIT {_COOC_VOCAB}),
vt AS (SELECT t.doc_id, t.tok FROM toks t JOIN vocab v USING (tok)),
pairs AS (
  SELECT a.tok AS x, b.tok AS y, COUNT(*) AS co_df
  FROM vt a JOIN vt b ON a.doc_id = b.doc_id AND a.tok < b.tok
  GROUP BY a.tok, b.tok
),
n AS (SELECT COUNT(*) AS n_docs FROM documents)
SELECT p.x, p.y, CAST(p.co_df AS BIGINT) AS co_df,
       CAST(CAST(p.co_df AS HUGEINT) * n.n_docs * 1000000
            // (CAST(dx.df AS HUGEINT) * dy.df) AS BIGINT) AS lift_micro
FROM pairs p
JOIN vocab dx ON dx.tok = p.x
JOIN vocab dy ON dy.tok = p.y
CROSS JOIN n
WHERE p.co_df >= {_COOC_MIN_CO}
ORDER BY lift_micro DESC, p.x, p.y
LIMIT {_COOC_TOPN}
"""


# ---------------------------------------------------------------------------
# Span-corruption mask planning (T5 pretraining objective prep)
# ---------------------------------------------------------------------------

_SPAN_K = 3
_SPAN_RATE = 20  # a span starts at ~1/20 of eligible positions (≈15% masked)


def docs_span_corruption(sf_dir: str) -> rd.Dataset:
    """Deterministic T5-style span-corruption mask plan (Raffel et al.
    2020): at every token position p ≤ n−2 a length-3 mask span starts
    iff ``mix64(mix64(doc_id) ^ p) % 20 == 0``; overlapping/adjacent
    spans merge (the dup-spans gaps-and-islands rule). Output per doc:
    (doc_id, n_tokens, n_spans, n_masked) — the mask layout every
    denoising-pretraining data pipeline must plan per document, pure
    function of (doc_id, token count) so any engine regenerates it
    bit-identically (no RNG state to ship).

    Zero shuffle: token counts and mask islands are batch-local (a doc's
    tokens live in one row); the hash is the vectorized portable splitmix
    (functions/porthash), the island merge is the shared
    ``corpus.covered_spans`` kernel with k = 3."""
    from kgw_ray.functions.porthash import mix64
    from kgw_ray.stages.corpus import covered_spans, flat_tokens

    docs = _docs(sf_dir)

    def _plan(batch: pa.Table) -> pa.Table:
        nb = batch.num_rows
        if nb == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "n_spans": pa.array([], pa.int64()),
                    "n_masked": pa.array([], pa.int64()),
                }
            )
        d_tok, _ = flat_tokens(batch)
        n = np.bincount(d_tok, minlength=nb).astype(np.int64)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_elig = np.maximum(n - _SPAN_K + 1, 0)
        d = np.repeat(np.arange(nb, dtype=np.int64), n_elig)
        offs = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(n_elig, out=offs[1:])
        pos = np.arange(len(d), dtype=np.int64) - offs[d] + 1
        seed = mix64(ids[d].astype(np.uint64))
        r = mix64(seed ^ pos.astype(np.uint64))
        hit = (r % np.uint64(_SPAN_RATE)) == 0
        spans = covered_spans(ids, d[hit], pos[hit], _SPAN_K).to_pandas()
        n_spans = np.zeros(nb, dtype=np.int64)
        n_masked = np.zeros(nb, dtype=np.int64)
        if len(spans):
            idx = {int(i): j for j, i in enumerate(ids)}
            rows = spans.assign(
                j=[idx[int(x)] for x in spans["doc_id"]],
                length=spans["span_end"] - spans["span_start"] + 1,
            )
            g = rows.groupby("j")
            n_spans[g.size().index] = g.size().to_numpy()
            n_masked[g["length"].sum().index] = g["length"].sum().to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids),
                "n_tokens": pa.array(n),
                "n_spans": pa.array(n_spans),
                "n_masked": pa.array(n_masked),
            }
        )

    return docs.map_batches(_plan, batch_format="pyarrow")


def _span_corruption_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    seed = mix64_sql("CAST(doc_id AS UBIGINT)")
    r = mix64_sql(f"xor(CAST({seed} AS UBIGINT), CAST(s.i AS UBIGINT))")
    return f"""
WITH toks AS ({_TOKS_SQL}),
nn AS (SELECT doc_id, len(w) AS n FROM toks),
starts AS (
  SELECT nn.doc_id, s.i AS st
  FROM nn, UNNEST(generate_series(1, nn.n - {_SPAN_K} + 1)) AS s(i)
  WHERE nn.n >= {_SPAN_K} AND ({r}) % {_SPAN_RATE} = 0
),
cov AS (
  SELECT doc_id, st,
    CASE WHEN st - lag(st) OVER (PARTITION BY doc_id ORDER BY st)
              <= {_SPAN_K} THEN 0 ELSE 1 END AS brk
  FROM starts
),
isl AS (
  SELECT doc_id, st, SUM(brk) OVER (PARTITION BY doc_id ORDER BY st) AS g
  FROM cov
),
sp AS (
  SELECT doc_id, MIN(st) AS s, MAX(st) + {_SPAN_K} - 1 AS e
  FROM isl GROUP BY doc_id, g
)
SELECT nn.doc_id, CAST(nn.n AS BIGINT) AS n_tokens,
       CAST(COALESCE(agg.cnt, 0) AS BIGINT) AS n_spans,
       CAST(COALESCE(agg.msk, 0) AS BIGINT) AS n_masked
FROM nn
LEFT JOIN (
  SELECT doc_id, COUNT(*) AS cnt, SUM(e - s + 1) AS msk
  FROM sp GROUP BY doc_id
) agg USING (doc_id)
"""


SPAN_CORRUPTION_SQL = _span_corruption_sql()


# ---------------------------------------------------------------------------
# Prefix-redundant document detection (sorted-successor dedup)
# ---------------------------------------------------------------------------


def dedup_prefix_docs(sf_dir: str) -> rd.Dataset:
    """Prefix-redundant docs — every document whose GLOBAL lexicographic
    successor (by (text, doc_id)) starts with it: truncation artifacts,
    re-crawl prefixes and exact-dup copies in one rule (if ANY doc extends
    A, the lexicographically next doc after A extends A, so one successor
    probe decides). Output (doc_id, n_chars) of flagged docs.

    Distributed WITHOUT a global sort: a strict prefix shares its first
    character, so non-empty docs shard by first char (ONE groupby over ≤
    |alphabet| groups) and the per-shard sorted LEAD is exactly the
    global successor test — the cross-shard successor starts with a
    different character and can never match. Empty docs are a prefix of
    everything: all are flagged when any non-empty doc exists; among
    all-empty corpora every one but the (text, doc_id)-last is flagged.
    The oracle runs the plain global-window form; both agree because the
    sharding is semantics-preserving, not an approximation."""
    docs = _docs(sf_dir)

    def _shard(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = pc.fill_null(t.column("text"), "")
        first = pc.utf8_slice_codeunits(txt, 0, 1)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "text": txt,
                "shard": first,
            }
        )

    sharded = docs.map_batches(_shard, batch_format="pyarrow")
    n_nonempty = sharded.map_batches(
        lambda t: pa.table(
            {
                "n": pa.array(
                    [int(np.sum(np.array(t.column("shard")) != ""))], pa.int64()
                )
            }
        ),
        batch_format="pyarrow",
    ).sum("n")

    def _flag(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["text", "doc_id"], kind="mergesort")
        texts = df["text"].to_numpy()
        ids = df["doc_id"].to_numpy()
        if len(df) and df["shard"].iloc[0] == "":
            # the empty-text shard: every doc has a successor that starts
            # with '' — all flagged except the last IF no non-empty doc
            # exists anywhere
            flag = np.ones(len(df), dtype=bool)
            if not n_nonempty:
                flag[-1] = False
        else:
            nxt = np.roll(texts, -1)
            flag = np.zeros(len(df), dtype=bool)
            if len(df) > 1:
                flag[:-1] = np.fromiter(
                    (n.startswith(t) for t, n in zip(texts[:-1], nxt[:-1])),
                    dtype=bool,
                    count=len(df) - 1,
                )
        return pa.table(
            {
                "doc_id": pa.array(ids[flag].astype(np.int64)),
                "n_chars": pa.array(
                    np.fromiter(
                        (len(t) for t in texts[flag]),
                        dtype=np.int64,
                        count=int(flag.sum()),
                    )
                ),
            }
        )

    return sharded.groupby("shard").map_groups(_flag, batch_format="pandas")


DEDUP_PREFIX_SQL = """
WITH o AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents),
w AS (
  SELECT doc_id, text,
         LEAD(text) OVER (ORDER BY text, doc_id) AS nxt
  FROM o
)
SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
FROM w WHERE nxt IS NOT NULL AND starts_with(nxt, text)
"""


# ---------------------------------------------------------------------------
# Curation-filter agreement: model × heuristic confusion matrix
# ---------------------------------------------------------------------------


def docs_model_heuristic_confusion(sf_dir: str) -> rd.Dataset:
    """Filter-agreement confusion matrix — the table a curation pipeline
    reads before swapping a heuristic for a learned filter: warm-model
    label (keep/drop, the gated QualityModelScorer) × the p10–p90
    length-band heuristic (in_band/outlier, the gated docs_length_band
    rule), with exact doc counts per cell. Two verified operators
    composed; the only exchange is the 4-cell count Sum."""
    import pyarrow.compute as pc

    from kgw_ray.stages.agg import exact_quantiles, grouped_aggregate_hybrid
    from kgw_ray.stages.scoring import QualityModelScorer

    qs = exact_quantiles(
        read_table(sf_dir, "documents", columns=["n_chars"]), "n_chars", [0.1, 0.9]
    )
    if qs[0.1] is None:  # empty corpus: typed empty confusion table
        return rd.from_arrow(
            pa.table(
                {
                    "model_label": pa.array([], pa.string()),
                    "length_band": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        )
    lo, hi = int(qs[0.1]), int(qs[0.9])
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])
    def _with_band(t: pa.Table) -> pa.Table:
        nc = t.column("n_chars").to_numpy(zero_copy_only=False)
        band = np.where((nc >= lo) & (nc <= hi), "in_band", "outlier")
        g = (
            pd.DataFrame(
                {
                    "model_label": t.column("label").to_numpy(
                        zero_copy_only=False
                    ),
                    "length_band": band,
                }
            )
            .groupby(["model_label", "length_band"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "model_label": pa.array(
                    g["model_label"].to_numpy(), pa.string()
                ),
                "length_band": pa.array(
                    g["length_band"].to_numpy(), pa.string()
                ),
                "n": pa.array(g["n"].to_numpy().astype(np.int64)),
            }
        )

    # the scorer drops n_chars from its output — subclass to carry it
    # through (setup still happens once per actor in __init__)
    class _ScorerKeepChars(QualityModelScorer):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            return out.append_column("n_chars", batch.column("n_chars"))

    scored = docs.map_batches(
        _ScorerKeepChars,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, 4),
    )
    return grouped_aggregate_hybrid(
        scored.map_batches(_with_band, batch_format="pyarrow"),
        ["model_label", "length_band"],
        [("n", "sum", "n")],
    )


def _confusion_sql() -> str:
    from kgw_ray.stages.scoring import quality_model_sql

    return f"""
WITH qm AS ({quality_model_sql()}),
s AS (
  SELECT n_chars, ROW_NUMBER() OVER (ORDER BY n_chars) AS rn,
         COUNT(*) OVER () AS n
  FROM documents WHERE n_chars IS NOT NULL
),
lo AS (SELECT n_chars AS v FROM s WHERE rn = CAST(ceil(0.1 * n) AS BIGINT)),
hi AS (SELECT n_chars AS v FROM s WHERE rn = CAST(ceil(0.9 * n) AS BIGINT)),
band AS (
  SELECT doc_id,
         CASE WHEN n_chars BETWEEN lo.v AND hi.v
              THEN 'in_band' ELSE 'outlier' END AS length_band
  FROM documents, lo, hi
)
SELECT qm.label AS model_label, band.length_band,
       CAST(COUNT(*) AS BIGINT) AS n
FROM qm JOIN band USING (doc_id)
GROUP BY qm.label, band.length_band
"""


MODEL_CONFUSION_SQL = _confusion_sql()


# ---------------------------------------------------------------------------
# Per-dimension embedding statistics (whitening / normalization prep)
# ---------------------------------------------------------------------------


def embeddings_dim_stats(sf_dir: str) -> pa.Table:
    """Per-dimension first/second moments of the embedding matrix in
    exact quantized integers: each element quantizes to
    ``round(v · 10⁶)`` FIRST (both engines, element-wise), then integer
    sums — (dim, n, sum_micro, sumsq_micro), the feature-scaling /
    whitening statistics a preprocessing stage broadcasts. One zero-
    shuffle pass: per-batch numpy column sums → a dim-bounded Python-int
    driver fold (HUGEINT oracle); dim is the vector width, never the
    corpus."""
    ds = read_table(sf_dir, "embeddings", columns=["embedding"])

    def _partial(t: pa.Table) -> pa.Table:
        col = t.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if t.num_rows == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "s2": pa.array([], pa.int64()),
                }
            )
        m = np.stack(col.to_numpy(zero_copy_only=False))
        x = m.astype(np.float64) * 1_000_000
        # DuckDB ROUND is half-AWAY-FROM-ZERO; np.rint is half-to-even —
        # match the oracle exactly
        q = np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5)).astype(
            np.int64
        )
        return pa.table(
            {
                "dim": pa.array(np.arange(1, q.shape[1] + 1, dtype=np.int64)),
                "n": pa.array(np.full(q.shape[1], q.shape[0], dtype=np.int64)),
                "s": pa.array(q.sum(axis=0)),
                "s2": pa.array((q.astype(object) ** 2).sum(axis=0)),
            }
        )

    parts = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        return pa.table(
            {
                "dim": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "sum_micro": pa.array([], pa.string()),
                "sumsq_micro": pa.array([], pa.string()),
            }
        )
    g = parts.groupby("dim", sort=True).agg(
        n=("n", "sum"), s=("s", "sum"), s2=("s2", "sum")
    )
    # sums are Python-int exact; emit decimal strings so >2^63 survives
    # the driver's value compare (HUGEINT casts to VARCHAR on the oracle)
    return pa.table(
        {
            "dim": pa.array(g.index.to_numpy().astype(np.int64)),
            "n": pa.array(g["n"].to_numpy().astype(np.int64)),
            "sum_micro": pa.array([str(int(x)) for x in g["s"]], pa.string()),
            "sumsq_micro": pa.array([str(int(x)) for x in g["s2"]], pa.string()),
        }
    )


EMB_DIM_STATS_SQL = """
WITH el AS (
  SELECT unnest(range(1, len(embedding) + 1)) AS dim,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000) AS BIGINT) AS q
  FROM embeddings
)
SELECT dim, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(CAST(SUM(CAST(q AS HUGEINT)) AS HUGEINT) AS VARCHAR) AS sum_micro,
       CAST(CAST(SUM(CAST(q AS HUGEINT) * q) AS HUGEINT) AS VARCHAR)
         AS sumsq_micro
FROM el GROUP BY dim ORDER BY dim
"""


_WSAMPLE_GROUP_K = 5


def docs_sample_weighted_per_lang(sf_dir: str, k: int = _WSAMPLE_GROUP_K) -> rd.Dataset:
    """PER-GROUP deterministic weighted sampling — the data-mixing form
    of docs_sample_weighted: the k lowest Efraimidis-Spirakis priorities
    (splitmix64(doc_id) >> 1 // n_chars, longer docs win proportionally)
    WITHIN EACH LANGUAGE, with rank — how a mixing stage draws a
    length-weighted representative subset per source/language bucket in
    one pass, bit-reproducible at any layout. Plan: per-block per-lang
    k-smallest partials (one pandas groupby-head per block — blocks
    collapse to ≤ |langs|·k rows each), then a |langs|-group map_groups
    picks the global per-lang top-k under the (priority, doc_id) total
    order. Output (lang, doc_id, n_chars, priority, rank)."""
    from kgw_ray.functions.arrow_utils import arrow_from_pandas
    from kgw_ray.functions.porthash import mix64

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def prio_partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        w = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        h = (mix64(ids.astype(np.uint64)) >> np.uint64(1)).astype(np.int64)
        df = pd.DataFrame(
            {
                "lang": t.column("lang").to_numpy(zero_copy_only=False),
                "doc_id": ids,
                "n_chars": w,
                "priority": h // np.maximum(w, 1),
            }
        )
        local = (
            df.sort_values(["priority", "doc_id"])
            .groupby("lang", sort=False)
            .head(k)
        )
        return arrow_from_pandas(local)

    def per_lang(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["priority", "doc_id"]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return arrow_from_pandas(
            g[["lang", "doc_id", "n_chars", "priority", "rank"]].astype(
                {
                    "doc_id": "int64",
                    "n_chars": "int64",
                    "priority": "int64",
                    "rank": "int64",
                }
            )
        )

    return (
        docs.map_batches(prio_partial, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(per_lang, batch_format="pandas")
    )


def _sample_weighted_per_lang_sql() -> str:
    from kgw_ray.functions.porthash import mix64_sql

    hu = mix64_sql("CAST(doc_id AS UBIGINT)")
    return f"""
WITH p AS (
  SELECT lang, doc_id, CAST(n_chars AS BIGINT) AS n_chars,
         CAST(CAST(({hu}) >> 1 AS BIGINT) // greatest(n_chars, 1) AS BIGINT)
           AS priority
  FROM documents
),
r AS (
  SELECT lang, doc_id, n_chars, priority,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY priority, doc_id) AS rank
  FROM p
)
SELECT lang, doc_id, n_chars, priority, CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= {_WSAMPLE_GROUP_K}
"""


SAMPLE_WEIGHTED_PER_LANG_SQL = _sample_weighted_per_lang_sql()
