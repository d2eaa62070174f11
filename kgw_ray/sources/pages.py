"""Deterministic Common-Crawl-style web-page synthesis.

``BASELINE.json input_hint`` defines the flagship input table:
``pages(url: string, warc_ts: timestamp[us], html: binary, text: string,
lang: string)``. No external data is allowed, so pages are synthesized
deterministically from the driver-generated ``documents`` table
(doc_id, text, lang, source, n_chars): one page per document, with the
document text embedded in boilerplate-laden HTML such that
``extract_text(render_html(text)) == text`` byte-identically — the per-row
invariant the correctness gate checks.

Determinism: url/warc_ts/html are pure functions of (doc_id, source, text);
no randomness, no wall clock.
"""

from __future__ import annotations

import html as _html
import os
from datetime import datetime, timedelta

import pyarrow as pa
import ray.data as rd

# epoch for warc_ts: fixed, timezone-naive (matches Arrow/DuckDB defaults)
_WARC_EPOCH = datetime(2024, 1, 1, 0, 0, 0)
# the same instant as naive microseconds since the Unix epoch (what a naive
# datetime stores in an Arrow timestamp[us] column)
_WARC_EPOCH_US = int((_WARC_EPOCH - datetime(1970, 1, 1)).total_seconds() * 1_000_000)

_HEAD = (
    "<!DOCTYPE html><html><head><meta charset=\"utf-8\"/>"
    "<title>doc {doc_id}</title>"
    "<script>window.__boiler={{v:1,id:{doc_id}}};</script>"
    "<style>.main{{margin:0}}</style></head>"
)
_NAV = "<body><nav><a href=\"/\">home</a> | <a href=\"/about\">about</a></nav>"
_FOOT = "<footer>&copy; {source} crawl archive</footer></body></html>"


def url_for(doc_id: int, source: str) -> str:
    return f"https://{source}.example.org/doc/{doc_id:08d}"


def warc_ts_for(doc_id: int) -> datetime:
    return _WARC_EPOCH + timedelta(seconds=int(doc_id))


def render_html(doc_id: int, source: str, text: str) -> bytes:
    """Render deterministic HTML embedding ``text`` inside ``<div id="main">``.

    The escaped text is chunked into ``<p>`` paragraphs at a width that varies
    by doc_id; the extractor concatenates paragraph contents (no separator)
    and unescapes, recovering the text byte-identically for ANY input string.
    """
    esc = _html.escape(text, quote=False)
    width = 60 + (doc_id % 7) * 17  # deterministic paragraph width per doc
    n = len(esc)
    if "&" not in esc:
        # fast path — no entities anywhere (the only entity starter is '&'),
        # so fixed-width cuts can never split one; identical output to the
        # guarded loop below. ONE join over raw slices (no per-chunk
        # f-string objects — synth is in the timed flagship path and its
        # allocations tax the shared memory-bandwidth budget)
        paras = (
            ["<p>" + "</p><p>".join([esc[k:k + width] for k in range(0, n, width)]) + "</p>"]
            if n
            else []
        )
    else:
        # chunk the ESCAPED text, never splitting inside an entity
        # (&amp; &lt; &gt;)
        paras = []
        i = 0
        while i < n:
            j = min(i + width, n)
            # if the cut lands inside an entity, extend to its terminating ';'
            amp = esc.rfind("&", max(i, j - 5), j)
            if amp != -1 and ";" not in esc[amp:j]:
                j = esc.index(";", amp) + 1
            paras.append(f"<p>{esc[i:j]}</p>")
            i = j
    body = (
        _HEAD.format(doc_id=doc_id)
        + _NAV
        + f"<div id=\"main\">{''.join(paras)}</div>"
        # deterministic outlinks (doc_id+1, doc_id//2 within the same
        # source host): the link-graph extraction operator's ground truth
        # is a pure function of doc_id, so its oracle re-derives the same
        # edges from the documents table. The aside is boilerplate to the
        # text extractor (dropped before <div id="main"> harvesting).
        + "<aside>related: "
        + f"<a href=\"{url_for(doc_id + 1, source)}\">next</a> "
        + f"<a href=\"{url_for(doc_id // 2, source)}\">half</a> "
        # one CROSS-host link (src{(doc_id+3) % 20}): the driver assigns
        # source = src{doc_id % 20}, so the +3 shift guarantees off-diagonal
        # host-graph structure; some targets are uncrawled hosts at small
        # SF, exactly like the web
        + f"<a href=\"{url_for(doc_id * 7 % 1000, f'src{(doc_id + 3) % 20}')}\">xref</a>"
        + "</aside>"
        + _FOOT.format(source=source)
    )
    return body.encode("utf-8")


def synth_pages(batch: pa.Table) -> pa.Table:
    """map_batches fn: documents batch → pages batch (Arrow in/out).

    url and warc_ts are built with Arrow kernels (no per-row Python
    objects); only the html render — inherently per-row string templating —
    walks Python."""
    import numpy as np
    import pyarrow.compute as pc

    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    sources = batch.column("source")
    if isinstance(sources, pa.ChunkedArray):
        sources = sources.combine_chunks()
    # url: 'https://' || source || '.example.org/doc/' || lpad(doc_id, 8)
    urls = pc.binary_join_element_wise(
        "https://",
        sources,
        ".example.org/doc/",
        pc.utf8_lpad(pc.cast(batch.column("doc_id"), pa.string()), 8, "0"),
        "",
    )
    # warc_ts: epoch + doc_id seconds, as int64 microseconds
    ids_np = batch.column("doc_id").to_numpy(zero_copy_only=False)
    ts_us = _WARC_EPOCH_US + ids_np.astype(np.int64) * 1_000_000
    ts = pa.array(ts_us).cast(pa.timestamp("us"))
    src_list = sources.to_pylist()
    htmls = [render_html(d, s, t) for d, s, t in zip(doc_ids, src_list, texts)]
    return pa.table(
        {
            "url": urls,
            "warc_ts": ts,
            "html": pa.array(htmls, pa.binary()),
            "text": batch.column("text"),
            "lang": batch.column("lang"),
            "doc_id": batch.column("doc_id"),  # provenance join key for oracles
        }
    )


_REPEAT_STRIDE = 100_000_000  # doc_id offset per replica (distinct id space)


def pages_dataset(
    sf_dir: str,
    *,
    override_num_blocks: int | None = None,
    repeat: int = 1,
) -> rd.Dataset:
    """documents.parquet → pages Dataset of the input_hint shape (+doc_id).

    ``repeat`` > 1 deterministically replicates the corpus with a distinct
    doc_id space per replica (offset ``r × 10^8``) — scales benchmark work
    without external data; every replica synthesizes different page HTML
    (doc_id feeds the paragraph-width variation) but identical text.
    """
    from kgw_ray.sources.readers import cluster_cpus, read_table

    if override_num_blocks is None and repeat > 1:
        # the single small parquet file reads as one block per row group,
        # which caps task parallelism of the whole downstream chain — fan
        # the read out to 2 blocks per CPU so replicas saturate the cluster
        override_num_blocks = 2 * cluster_cpus()

    docs = read_table(
        sf_dir,
        "documents",
        columns=["doc_id", "text", "lang", "source"],
        override_num_blocks=override_num_blocks,
    )
    if repeat > 1:

        def replicate(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            parts = []
            for r in range(repeat):
                t = batch.set_column(
                    batch.column_names.index("doc_id"),
                    "doc_id",
                    pc.add(batch.column("doc_id"), r * _REPEAT_STRIDE),
                )
                parts.append(t)
            return pa.concat_tables(parts)

        docs = docs.map_batches(replicate, batch_format="pyarrow")
    return docs.map_batches(synth_pages, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Deterministic re-crawl synthesis (Common-Crawl revisit model)
# --------------------------------------------------------------------------
# A real CC archive holds MULTIPLE snapshots of the same url across crawls;
# the second synthetic crawl revisits two thirds of the urls 10^7 seconds
# later with an edited body. Everything stays a pure function of
# (doc_id, source, text) so DuckDB oracles re-derive both crawls in SQL.
_RECRAWL_OFFSET_US = 10_000_000 * 1_000_000  # crawl-2 warc_ts offset (us)
_RECRAWL_PREFIX = "v2 "  # crawl-2 body edit (prepended token)
_RECRAWL_KEEP_MOD = 3  # doc_id % 3 != 0 ⇒ the url is re-crawled


def recrawl_pages_batch(batch: pa.Table, *, crawls: str = "both") -> pa.Table:
    """documents batch → two-crawl pages batch (no html; metadata + text).

    Snapshot dedup happens BEFORE extraction in a crawl pipeline — selecting
    the newest (url, warc_ts) needs no html bytes, so this source skips the
    render entirely (the html-bearing path for downstream extraction is
    ``recrawl_pages_dataset(with_html=True)``). Crawl-2 rows keep the url of
    their crawl-1 twin but get a distinct doc_id (+``_REPEAT_STRIDE``) for
    provenance, a later warc_ts, and an edited body.
    """
    import numpy as np
    import pyarrow.compute as pc

    sources = batch.column("source")
    if isinstance(sources, pa.ChunkedArray):
        sources = sources.combine_chunks()
    urls = pc.binary_join_element_wise(
        "https://",
        sources,
        ".example.org/doc/",
        pc.utf8_lpad(pc.cast(batch.column("doc_id"), pa.string()), 8, "0"),
        "",
    )
    ids_np = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    ts1 = _WARC_EPOCH_US + ids_np * 1_000_000
    parts = []
    if crawls in ("both", "first"):
        parts.append(
            pa.table(
                {
                    "url": urls,
                    "warc_ts": pa.array(ts1).cast(pa.timestamp("us")),
                    "text": batch.column("text"),
                    "lang": batch.column("lang"),
                    "doc_id": batch.column("doc_id"),
                }
            )
        )
    if crawls in ("both", "second"):
        keep = pa.array(ids_np % _RECRAWL_KEEP_MOD != 0)
        b2 = batch.filter(keep)
        u2 = urls.filter(keep) if isinstance(urls, pa.Array) else pc.filter(urls, keep)
        ids2 = b2.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        parts.append(
            pa.table(
                {
                    "url": u2,
                    "warc_ts": pa.array(
                        _WARC_EPOCH_US + ids2 * 1_000_000 + _RECRAWL_OFFSET_US
                    ).cast(pa.timestamp("us")),
                    "text": pc.binary_join_element_wise(
                        _RECRAWL_PREFIX, b2.column("text"), ""
                    ),
                    "lang": b2.column("lang"),
                    "doc_id": pc.add(b2.column("doc_id"), _REPEAT_STRIDE),
                }
            )
        )
    return pa.concat_tables(parts)


def recrawl_pages_dataset(
    sf_dir: str, *, crawls: str = "both", with_html: bool = False
) -> rd.Dataset:
    """Two-crawl page stream (url, warc_ts, [html,] text, lang, doc_id).

    ``crawls`` selects "first" / "second" / "both"; ``with_html=True``
    renders the crawl bodies through the standard deterministic HTML
    template so the full extract→triples chain runs on re-crawl snapshots
    exactly as on the flagship pages."""
    from kgw_ray.sources.readers import read_table

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "source"]
    )
    pages = docs.map_batches(
        recrawl_pages_batch, batch_format="pyarrow", fn_kwargs={"crawls": crawls}
    )
    if not with_html:
        return pages

    def add_html(batch: pa.Table) -> pa.Table:
        # re-derive source from the url host (crawl-2 rows carry shifted
        # doc_ids, so the render varies per snapshot exactly like the
        # flagship synth — doc_id feeds the paragraph width)
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        srcs = [
            u.split("https://", 1)[1].split(".example.org", 1)[0]
            for u in batch.column("url").to_pylist()
        ]
        htmls = [render_html(d, s, t) for d, s, t in zip(doc_ids, srcs, texts)]
        return batch.append_column("html", pa.array(htmls, pa.binary()))

    return pages.map_batches(add_html, batch_format="pyarrow")


def render_pages_parquet(sf_dir: str, *, repeat: int = 1) -> str:
    """Render this corpus's pages ONCE into a cached Parquet pages table
    of the input_hint shape (url, warc_ts, html:binary, text, lang +
    doc_id) under /tmp and return the directory — the library-side twin of
    bench._prepare_rendered_pages for registry queries that exercise the
    stored-pages read path. Cache keyed on the source file's size+mtime;
    the marker records the shard count so a partially-cleaned /tmp
    invalidates instead of silently serving fewer docs."""
    import ray

    base = os.path.basename(os.path.normpath(sf_dir))
    out = f"/tmp/kgw_ray_cache/{base}_pages_x{repeat}"
    done = out + ".done"
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    key = f"{st.st_size}:{int(st.st_mtime)}:lib-pages-v1"

    def _valid() -> bool:
        if not (os.path.exists(done) and os.path.isdir(out)):
            return False
        rec = open(done).read().split("|")
        n = len([f for f in os.listdir(out) if f.endswith(".parquet")])
        return len(rec) == 2 and rec[0] == key and n == int(rec[1])

    if not _valid():
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        if not ray.is_initialized():  # pragma: no cover - callers init first
            ray.init(address="local", include_dashboard=False)
        n_blocks = 16 if repeat == 1 else max(64, min(1024, repeat))
        pages_dataset(
            sf_dir, repeat=repeat, override_num_blocks=n_blocks
        ).write_parquet(out)
        os.makedirs(out, exist_ok=True)  # empty write may not create it
        n = len([f for f in os.listdir(out) if f.endswith(".parquet")])
        if n == 0:
            # empty corpus: write_parquet emits no files and a read of the
            # bare directory raises — persist ONE typed empty shard
            import pyarrow.parquet as _pq

            _pq.write_table(
                pa.table(
                    {
                        "url": pa.array([], pa.string()),
                        "warc_ts": pa.array([], pa.timestamp("us")),
                        "html": pa.array([], pa.binary()),
                        "text": pa.array([], pa.string()),
                        "lang": pa.array([], pa.string()),
                        "doc_id": pa.array([], pa.int64()),
                    }
                ),
                os.path.join(out, "empty.parquet"),
            )
            n = 1
        open(done, "w").write(f"{key}|{n}")
    return out
