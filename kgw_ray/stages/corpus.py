"""Corpus-level training-data kernels: decontamination, n-gram counting,
text normalization, stratified sampling, TF-IDF.

Reference scope: the reference's per-record transform + aggregate family
(kgw/_shared/transform.py, load.py) has no corpus-statistics operators;
these extend the engine with the standard web-pipeline set (benchmark
decontamination, n-gram LM counts, C4-style normalization, data-mixing
samplers, TF-IDF term scoring) expressed Ray-Data-first: every kernel here
is a vectorized per-batch map; the only shuffles are vocabulary-sized
(stages/agg.py:fold over per-batch combined partials).

Tokenization: every token-based operator here uses THE pinned tokenizer
(functions/tokenize.py — RE2 ``\\s`` runs, both engines), so the gates
are byte-exact on ARBITRARY UTF-8 text, not just the ASCII fixture
(parity proven in tests/test_unicode_tokens.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from kgw_ray.functions.porthash import md5_le_u64
from kgw_ray.functions.tokenize import py_tokens, split_tokens
from kgw_ray.stages.dedup import _portable_token_hashes, batch_shingle_hashes
from kgw_ray.stages.textstats import content_md5_list


def flat_tokens(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_index, token) flat arrays for a (doc_id, text) batch.

    The pinned tokenizer (functions/tokenize.py: RE2 ``\\s`` runs,
    empties dropped) — byte-identical to the SQL oracles'
    ``list_filter(string_split_regex(text, '\\s+'), x -> x <> '')`` for
    any UTF-8 text. Vectorized: one Arrow split + one boolean mask, no
    per-row loop.
    """
    text = pc.fill_null(batch.column("text"), "")
    splits = split_tokens(text)
    sizes = pc.cast(pc.list_value_length(splits), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    flat = pc.list_flatten(splits)
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    flat_np = flat.to_numpy(zero_copy_only=False)
    return doc_idx[keep], flat_np[keep]


def distinct_doc_grams(
    doc_idx: np.ndarray, grams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-document DISTINCT value rows from flat (doc_index, value)
    arrays — one lexsort + one neighbor-diff mask, no per-doc loop.
    Works for uint64 gram hashes AND object token arrays (np.lexsort
    handles both)."""
    if len(grams) == 0:
        return doc_idx[:0], grams[:0]
    order = np.lexsort((grams, doc_idx))
    d, g = doc_idx[order], grams[order]
    new = np.ones(len(g), dtype=bool)
    new[1:] = (d[1:] != d[:-1]) | (g[1:] != g[:-1])
    return d[new], g[new]


def bigram_rows(batch: pa.Table) -> pa.Table:
    """One ``gram`` row per word bigram within a document (a fold with
    ``combine=True`` collapses them per block, so the shuffle moves each
    block's bigram VOCABULARY, not the token stream)."""
    d, toks = flat_tokens(batch)
    same = d[1:] == d[:-1]
    left = pd.Series(toks[:-1][same], dtype=object)
    right = pd.Series(toks[1:][same], dtype=object)
    return pa.table({"gram": pa.array(left.str.cat(right, sep=" ").to_numpy(), pa.string())})


def normalize_batch(batch: pa.Table) -> pa.Table:
    """C4-style text normalization: lowercase, collapse whitespace runs,
    trim. Emits the dedup-grade identity of the normalized form
    (md5, codepoint length) instead of shipping the text back.

    Byte-identical to DuckDB
    ``trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))`` + ``md5``,
    for ANY UTF-8 input: the collapse pattern is RE2 ``\\s`` on both
    engines, and the trim is pinned to the ASCII space character — DuckDB
    ``trim()`` removes only spaces, so Arrow's Unicode-whitespace trim
    would diverge on text edged with U+00A0-style whitespace (which is
    token content under the pinned rule, functions/tokenize.py).
    """
    text = pc.fill_null(batch.column("text"), "")
    norm = pc.utf8_trim(
        pc.replace_substring_regex(pc.utf8_lower(text), r"\s+", " "),
        characters=" ",
    )
    md5s = content_md5_list(norm.to_pylist())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "norm_md5": pa.array(md5s, pa.string()),
            "n_norm_chars": pc.cast(pc.utf8_length(norm), pa.int64()),
        }
    )


def decontaminate_batch(
    batch: pa.Table, bench_sorted: np.ndarray, k: int
) -> pa.Table:
    """Flag benchmark n-gram overlap for one corpus batch.

    Per doc: distinct word k-gram hashes (k = min(len, k), the shingle
    convention), membership against the SORTED benchmark gram array via
    one searchsorted — no per-doc loop beyond the shingle window pass.
    """
    texts = batch.column("text").to_pylist()
    flat, offs = batch_shingle_hashes(texts, k)
    doc_idx = np.repeat(
        np.arange(len(texts), dtype=np.int64), np.diff(offs).astype(np.int64)
    )
    dd, gg = distinct_doc_grams(doc_idx, flat)
    n = len(texts)
    n_grams = np.bincount(dd, minlength=n).astype(np.int64)
    if len(bench_sorted) and len(gg):
        pos = np.searchsorted(bench_sorted, gg)
        pos[pos == len(bench_sorted)] = 0
        hit = bench_sorted[pos] == gg
    else:
        hit = np.zeros(len(gg), dtype=bool)
    n_cont = np.bincount(dd[hit], minlength=n).astype(np.int64)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_grams": pa.array(n_grams),
            "n_contaminated": pa.array(n_cont),
            "contaminated": pa.array((n_cont > 0).astype(np.int64)),
        }
    )


def bench_gram_partial(batch: pa.Table, k: int) -> pa.Table:
    """Distinct k-gram hashes of an eval-set batch (uint64 column)."""
    texts = batch.column("text").to_pylist()
    flat, _ = batch_shingle_hashes(texts, k)
    return pa.table({"g": pa.array(np.unique(flat))})


def df_partial(batch: pa.Table) -> pa.Table:
    """Per-batch document-frequency combiner: distinct (doc, token) pairs
    collapsed to (tok, df-within-batch)."""
    d, toks = flat_tokens(batch)
    dd, tt = distinct_doc_grams(d, toks)
    if len(tt) == 0:
        return pa.table(
            {"tok": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
        )
    uq, cnt = np.unique(tt, return_counts=True)
    return pa.table(
        {"tok": pa.array(uq, pa.string()), "df": pa.array(cnt.astype(np.int64))}
    )


def tfidf_batch(
    batch: pa.Table, vocab_sorted: np.ndarray, dfs: np.ndarray
) -> pa.Table:
    """Top TF-IDF term per document against the broadcast (vocab, df)
    arrays. Integer score ``tf * 1_000_000 // df`` (monotone in tf·N/df,
    exact in both numpy and DuckDB — no float in the ordering), ties by
    term ascending; docs with zero tokens emit no row (SQL inner-join
    semantics)."""
    d, toks = flat_tokens(batch)
    if len(toks) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "df": pa.array([], pa.int64()),
                "score_micro": pa.array([], pa.int64()),
            }
        )
    pairs = pd.DataFrame({"d": d, "t": toks})
    tf = pairs.groupby(["d", "t"], sort=False).size().reset_index(name="tf")
    terms = tf["t"].to_numpy()
    idx = np.minimum(
        np.searchsorted(vocab_sorted, terms), max(len(vocab_sorted) - 1, 0)
    )
    if len(vocab_sorted) == 0 or not np.array_equal(vocab_sorted[idx], terms):
        raise ValueError(
            "tfidf_batch: batch token absent from the broadcast vocabulary "
            "(the df pass must cover the same corpus)"
        )
    tf["df"] = dfs[idx]
    tf["score_micro"] = tf["tf"].to_numpy() * 1_000_000 // tf["df"].to_numpy()
    top = tf.sort_values(
        ["d", "score_micro", "t"], ascending=[True, False, True]
    ).drop_duplicates("d")
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[top["d"].to_numpy()]),
            "term": pa.array(top["t"].to_numpy(), pa.string()),
            "tf": pa.array(top["tf"].to_numpy().astype(np.int64)),
            "df": pa.array(top["df"].to_numpy().astype(np.int64)),
            "score_micro": pa.array(top["score_micro"].to_numpy().astype(np.int64)),
        }
    )


# ---------------------------------------------------------------------------
# Cross-document duplicated-span extraction (substring-level dedup)
# ---------------------------------------------------------------------------

_POLY_B = np.uint64(1000003)  # same ring as textstats.rolling_fingerprint
_POLY_B_INV = np.uint64(pow(1000003, -1, 1 << 64))


def portable_window_hashes(th: np.ndarray, k: int) -> np.ndarray:
    """``wh(i) = Σ_j th[i+j]·B^(k-1-j) mod 2^64`` for every FULL k-window
    of a token-hash stream — the fingerprint oracle's ``winh`` formula
    (training_data._fingerprint_sql), NO final mix, so the VALUE is
    SQL-reproducible. Vectorized via the modular-inverse prefix trick
    (B odd → invertible mod 2^64); streams shorter than k yield no
    windows (unlike the fingerprint's min(n,k) clamp)."""
    n = len(th)
    if n < k:
        return np.zeros(0, dtype=np.uint64)
    with np.errstate(over="ignore"):
        invpow = np.cumprod(np.full(n, _POLY_B_INV, dtype=np.uint64)) * _POLY_B
        S = np.cumsum(th * invpow)
        Bpow = np.cumprod(np.full(n, _POLY_B, dtype=np.uint64)) * _POLY_B_INV
        pre = np.empty(n + 1, dtype=np.uint64)
        pre[0] = np.uint64(0)
        pre[1:] = Bpow * S
        win = pre[k:] - pre[:-k] * (Bpow[k - 1] * _POLY_B)
    return win


def batch_window_positions(
    batch: pa.Table, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_id, text) batch → flat ``(doc_row_index, start_pos, wh)`` for
    every full k-token window (start_pos 1-based, the SQL convention).

    One md5 pass over the batch's unique tokens
    (dedup._portable_token_hashes), ONE polynomial pass over the
    concatenated hash stream — windows crossing a document boundary are
    masked out (the polynomial is position-independent, so in-document
    windows are unaffected by concatenation). Docs with < k tokens
    contribute nothing."""
    th, lens = _token_hash_stream(batch.column("text").to_pylist())
    win = portable_window_hashes(th, k)
    d, starts, valid = _mask_windows(win, lens, k)
    return d, starts, win[valid]


def _token_hash_stream(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated md5-LE token-hash stream + per-doc token counts."""
    tok_lists = [py_tokens(t) for t in texts]
    lens = np.fromiter(
        (len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists)
    )
    flat_toks: list = []
    for t in tok_lists:
        flat_toks.extend(t)
    return _portable_token_hashes(flat_toks), lens


def _mask_windows(
    win: np.ndarray, lens: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask flat-stream windows that cross a document boundary; return
    (doc_row_index, 1-based in-doc start, valid mask over ``win``)."""
    if len(win) == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0, dtype=bool)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    p = np.arange(len(win), dtype=np.int64)  # flat window start (0-based)
    valid = doc_of[p] == doc_of[p + k - 1]  # window inside ONE doc
    d = doc_of[p[valid]]
    starts = p[valid] - offsets[d] + 1
    return d, starts, valid


def window_count_partial(batch: pa.Table, k: int) -> pa.Table:
    """Per-batch window-hash combiner: (wh, n) with within-batch counts
    collapsed — the shuffle moves the batch's WINDOW VOCABULARY (sublinear
    in windows for natural text), not the window stream."""
    _, _, wh = batch_window_positions(batch, k)
    uq, cnt = np.unique(wh, return_counts=True)
    return pa.table(
        {"wh": pa.array(uq), "n": pa.array(cnt.astype(np.int64))}
    )


def covered_spans(
    doc_ids: np.ndarray, d: np.ndarray, starts: np.ndarray, k: int
) -> pa.Table:
    """Merge duplicated window starts into maximal covered spans —
    gaps-and-islands, fully vectorized (one boundary mask, no per-doc
    loop). Inputs must be ordered by (doc, start) — true by construction
    for ``batch_window_positions`` output filtered by a mask. Two windows
    merge when the next start ≤ prev start + k (overlapping or adjacent
    coverage). Emits (doc_id, span_start, span_end, n_windows)."""
    if len(starts) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "span_start": pa.array([], pa.int64()),
                "span_end": pa.array([], pa.int64()),
                "n_windows": pa.array([], pa.int64()),
            }
        )
    new = np.ones(len(starts), dtype=bool)
    new[1:] = (d[1:] != d[:-1]) | (starts[1:] > starts[:-1] + k)
    b = np.nonzero(new)[0]
    e = np.append(b[1:], len(starts)) - 1
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[d[b]]),
            "span_start": pa.array(starts[b].astype(np.int64)),
            "span_end": pa.array((starts[e] + k - 1).astype(np.int64)),
            "n_windows": pa.array((e - b + 1).astype(np.int64)),
        }
    )


def dup_span_doc_stats_batch(
    batch: pa.Table, dup_sorted: np.ndarray, k: int
) -> pa.Table:
    """Per-document duplication rollup against the broadcast dup-hash set:
    (doc_id, n_tokens, dup_tokens, n_spans, dup_permille) — dup_tokens is
    the UNION size of all duplicated-window coverage (islands), and
    dup_permille = dup_tokens·1000 // n_tokens (integer, no float in the
    gate). Every input doc emits one row (zeros when nothing duplicated) —
    the curation-filter shape (drop/trim docs above a duplication
    threshold)."""
    th, lens = _token_hash_stream(batch.column("text").to_pylist())
    win = portable_window_hashes(th, k)
    d, starts, valid = _mask_windows(win, lens, k)
    wh = win[valid]
    if len(dup_sorted) and len(wh):
        pos = np.searchsorted(dup_sorted, wh)
        pos[pos == len(dup_sorted)] = 0
        hit = dup_sorted[pos] == wh
    else:
        hit = np.zeros(len(wh), dtype=bool)
    d, starts = d[hit], starts[hit]
    n = len(lens)
    dup_tokens = np.zeros(n, dtype=np.int64)
    n_spans = np.zeros(n, dtype=np.int64)
    if len(starts):
        new = np.ones(len(starts), dtype=bool)
        new[1:] = (d[1:] != d[:-1]) | (starts[1:] > starts[:-1] + k)
        b = np.nonzero(new)[0]
        e = np.append(b[1:], len(starts)) - 1
        span_len = starts[e] + k - 1 - starts[b] + 1
        np.add.at(dup_tokens, d[b], span_len)
        np.add.at(n_spans, d[b], 1)
    permille = np.where(lens > 0, dup_tokens * 1000 // np.maximum(lens, 1), 0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(lens),
            "dup_tokens": pa.array(dup_tokens),
            "n_spans": pa.array(n_spans),
            "dup_permille": pa.array(permille.astype(np.int64)),
        }
    )


def dup_span_mark_batch(batch: pa.Table, dup_sorted: np.ndarray, k: int) -> pa.Table:
    """Broadcast-path marker: membership of each window hash in the SORTED
    duplicated-hash array (one searchsorted), then island merge — all of a
    document's tokens live in one row, so span assembly is batch-local and
    the whole mark pass is a zero-shuffle task map."""
    d, starts, wh = batch_window_positions(batch, k)
    if len(dup_sorted) and len(wh):
        pos = np.searchsorted(dup_sorted, wh)
        pos[pos == len(dup_sorted)] = 0
        hit = dup_sorted[pos] == wh
    else:
        hit = np.zeros(len(wh), dtype=bool)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return covered_spans(ids, d[hit], starts[hit], k)


def stratified_keep_mask(
    ids: np.ndarray, langs, denoms: dict, default: int
) -> np.ndarray:
    """THE mixing keep rule: md5-LE-uint64(str(doc_id)) % denom(lang) == 0
    — reproducible across engines/runs/cluster sizes (same md5-LE
    convention as the SimHash oracle); both the standalone sampler and the
    curation composite call this so the rule can never diverge."""
    h = _portable_token_hashes([str(i) for i in ids])
    dn = (
        pd.Series(list(langs), dtype=object)
        .map(denoms)
        .fillna(default)
        .to_numpy()
        .astype(np.uint64)
    )
    return (h % dn) == 0


def stratified_keep_batch(batch: pa.Table, denoms: dict, default: int) -> pa.Table:
    """Deterministic data-mixing filter over a (doc_id, lang) batch —
    embarrassingly parallel, zero shuffle."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    langs = batch.column("lang").to_pylist()
    keep = stratified_keep_mask(ids, langs, denoms, default)
    return pa.table(
        {
            "doc_id": pa.array(ids[keep]),
            "lang": pa.array(np.asarray(langs, dtype=object)[keep], pa.string()),
        }
    )


def token_heavy_hitters(docs, *, k: int = 64):
    """EXACT corpus heavy hitters: every token with frequency strictly
    above ``N/k`` (N = total token count) and its exact count — the
    two-pass candidate/verify plan that stays bounded when the token
    vocabulary is NOT (the regime where ngram_topk's vocabulary-sized
    exchange stops being safe).

    Pass 1 (candidates, zero shuffle): per block, exact local counts via
    ``np.unique``; a block emits the tokens with ``c_b > n_b/k`` (at most
    k per block) plus its token total. The local-heavy-hitter lemma makes
    the union a SUPERSET of every global heavy hitter: if
    ``Σc_b(v) > Σn_b/k`` then ``c_b(v) > n_b/k`` in at least one block.
    Driver folds the ≤k-per-block candidate partials (tiny) and
    broadcasts the candidate vocabulary once via ``ray.put``.

    Pass 2 (verify): per block, exact counts restricted to candidates
    (one ``np.isin`` mask) → vocabulary-≤-candidates grouped Sum →
    strict integer filter ``k·c > N``. Output: ``(token, n)``.
    """
    import ray
    import ray.data as rd

    from kgw_ray.stages.agg import as_dataset, fold

    def _cand_partial(batch: pa.Table) -> pa.Table:
        _, toks = flat_tokens(batch)
        n_b = len(toks)
        if n_b == 0:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                    "n_b": pa.array([], pa.int64()),
                }
            )
        uq, cnt = np.unique(toks, return_counts=True)
        hot = cnt * k > n_b  # strict c_b > n_b/k without float division
        return pa.table(
            {
                "token": pa.array(np.append(uq[hot], [""]), pa.string()),
                "c": pa.array(
                    np.append(cnt[hot], [0]).astype(np.int64)
                ),
                "n_b": pa.array(
                    np.append(np.zeros(hot.sum(), dtype=np.int64), [n_b])
                ),
            }
        )

    parts = docs.map_batches(_cand_partial, batch_format="pyarrow").to_pandas()
    if len(parts) == 0 or "n_b" not in parts.columns:
        # never-executed/empty corpus: typed empty result
        return rd.from_arrow(
            pa.table(
                {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        )
    total = int(parts["n_b"].sum())
    cand = np.unique(parts.loc[parts["c"] > 0, "token"].to_numpy())
    cand_ref = ray.put(cand)

    def _candidates(batch: pa.Table) -> pa.Table:
        cset = ray.get(cand_ref)
        _, toks = flat_tokens(batch)
        return pa.table({"token": pa.array(toks[np.isin(toks, cset)], pa.string())})

    counts = as_dataset(fold(
        docs.map_batches(_candidates, batch_format="pyarrow"),
        "token",
        [(None, "count", "n")],
        combine=True,
    ))

    def _thresh(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        keep = pa.array(n * k > total)
        return pa.table(
            {
                "token": batch.column("token").filter(keep),
                "n": batch.column("n").filter(keep),
            }
        )

    return counts.map_batches(_thresh, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Line-level corpus dedup (RefinedWeb / MassiveText boilerplate-line removal)
# ---------------------------------------------------------------------------


def _batch_lines(batch: pa.Table, col: str = "text") -> tuple[np.ndarray, np.ndarray]:
    """Split each row's ``col`` into newline-delimited lines (ONE vectorized
    Arrow kernel) → (flat object array of line strings, per-row line counts).
    ``split_pattern('')`` yields ``['']`` so every row has ≥ 1 line."""
    text = batch.column(col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    la = pc.split_pattern(pc.fill_null(text, ""), "\n")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    counts = np.diff(la.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
    flat = np.asarray(la.flatten().to_pandas(), dtype=object)
    return flat, counts


def line_df_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner for corpus line document-frequency: distinct
    (doc, line) pairs → one (lh, n) partial per distinct non-blank line,
    where ``lh`` is the portable md5-LE uint64 of the line (SQL twin:
    ``training_data._MD5_LE_UINT64`` over ``md5(line)``) and ``n`` counts
    the docs in THIS batch containing it. Blank lines (``''``) are excluded
    — they are record structure, always kept. md5 runs once per DISTINCT
    line in the batch, never per occurrence."""
    empty = pa.table(
        {"lh": pa.array([], pa.uint64()), "n": pa.array([], pa.int64())}
    )
    if batch.num_rows == 0:
        return empty
    flat, counts = _batch_lines(batch)
    didx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    cand = np.fromiter((s != "" for s in flat), dtype=bool, count=len(flat))
    if not cand.any():
        return empty
    uniq, inv = np.unique(flat[cand], return_inverse=True)
    pair = np.unique(didx[cand] * np.int64(len(uniq)) + inv)
    n = np.bincount(pair % len(uniq), minlength=len(uniq)).astype(np.int64)
    return pa.table(
        {"lh": pa.array(md5_le_u64(uniq), pa.uint64()), "n": pa.array(n)}
    )


def _line_drop_flags(flat: np.ndarray, drop_sorted: np.ndarray) -> np.ndarray:
    """Bool mask over flat lines: non-blank AND hash ∈ drop_sorted (one
    searchsorted over the sorted drop vocabulary; md5 once per distinct
    line in the batch)."""

    drop = np.zeros(len(flat), dtype=bool)
    if len(flat) == 0 or len(drop_sorted) == 0:
        return drop
    cand = np.fromiter((s != "" for s in flat), dtype=bool, count=len(flat))
    if not cand.any():
        return drop
    uniq, inv = np.unique(flat[cand], return_inverse=True)
    lh = md5_le_u64(uniq)
    pos = np.searchsorted(drop_sorted, lh)
    pos[pos == len(drop_sorted)] = 0
    drop[cand] = (drop_sorted[pos] == lh)[inv]
    return drop


def line_dedup_mark_batch(batch: pa.Table, drop_sorted: np.ndarray) -> pa.Table:
    """Broadcast-path line dedup: each doc's lines live in one row, so the
    whole rewrite is a zero-shuffle task map. Output one row per doc:
    (doc_id, n_lines, n_dropped, kept_md5) — kept_md5 = md5 hex of the
    surviving lines rejoined with newlines (oracle:
    ``md5(string_agg(line, chr(10) ORDER BY pos))``)."""
    import hashlib

    if batch.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_lines": pa.array([], pa.int64()),
                "n_dropped": pa.array([], pa.int64()),
                "kept_md5": pa.array([], pa.string()),
            }
        )
    flat, counts = _batch_lines(batch)
    drop = _line_drop_flags(flat, drop_sorted)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    nd = np.add.reduceat(drop.astype(np.int64), starts[:-1])
    md5s = []
    for i in range(len(counts)):
        seg = flat[starts[i] : starts[i + 1]]
        keep = ~drop[starts[i] : starts[i + 1]]
        kept = "\n".join(seg[keep])
        md5s.append(hashlib.md5(kept.encode("utf-8")).hexdigest())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_lines": pa.array(counts),
            "n_dropped": pa.array(nd),
            "kept_md5": pa.array(md5s, pa.string()),
        }
    )


def line_rows_batch(batch: pa.Table) -> pa.Table:
    """Scale-path explode: one row per line — (doc_id, pos, line, lh, cand,
    n_lines). ``pos`` is 1-based (the oracle's unnest ordinal); blank lines
    carry lh = 0 and cand = false (membership is decided on cand rows only,
    so the placeholder can never collide into a drop)."""

    if batch.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "line": pa.array([], pa.string()),
                "lh": pa.array([], pa.uint64()),
                "cand": pa.array([], pa.bool_()),
                "n_lines": pa.array([], pa.int64()),
            }
        )
    flat, counts = _batch_lines(batch)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    didx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(len(flat), dtype=np.int64) - starts[didx] + 1
    cand = np.fromiter((s != "" for s in flat), dtype=bool, count=len(flat))
    lh = np.zeros(len(flat), dtype=np.uint64)
    if cand.any():
        uniq, inv = np.unique(flat[cand], return_inverse=True)
        lh[cand] = md5_le_u64(uniq)[inv]
    return pa.table(
        {
            "doc_id": pa.array(ids[didx]),
            "pos": pa.array(pos),
            "line": pa.array(flat, pa.string()),
            "lh": pa.array(lh, pa.uint64()),
            "cand": pa.array(cand),
            "n_lines": pa.array(counts[didx]),
        }
    )
