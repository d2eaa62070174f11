"""Seeded input generator for the kgbench workloads.

Everything the program reads in a benchmark run is written here, from the
``--seed`` argument alone: the same seed and sizes give byte-identical files
(the run records their digest). Nothing is read from outside the run
directory, so the tables are synthesized with the shapes and value domains
of the repo's synthetic TPC-H-star test tables (see README.md):

- ``documents``: texts over the 31-word web-text vocabulary the triple
  grammar (``kgw_ray.stages.triples``) is written for, with 5% near
  duplicates (``<earlier text> dup``) so the dedup queries find pairs;
- the TPC-H star (region, nation, customer, supplier, part, orders,
  lineitem), referentially consistent;
- ``events`` and 64-dim unit ``embeddings``;
- ``pages``: the documents rendered into input_hint-shaped Parquet page
  shards ``(url, warc_ts, html, text, lang, doc_id)``.
"""

from __future__ import annotations

import hashlib
import html
import os
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a the big small fast slow customer part order line table column row key "
    "value data query window batch stream spark vector hash agg join merge "
    "group sort filter scan"
).split()
LANGS = ["en", "zh", "es", "fr", "de"]
LANG_P = [0.41, 0.15, 0.15, 0.15, 0.14]
N_SOURCES = 20
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
PART_ADJ = ["small", "large", "red", "blue", "hot", "old", "new", "cold"]
PART_NOUN = ["ring", "widget", "bolt", "gear", "plate", "rod", "nut", "pipe"]
PART_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]

_DAY_US = 86_400_000_000
_EPOCH = datetime(1970, 1, 1)


def _us(dt: datetime) -> int:
    return int((dt - _EPOCH).total_seconds()) * 1_000_000


def _ts(us: np.ndarray) -> pa.Array:
    return pa.array(us.astype(np.int64)).cast(pa.timestamp("us"))


def _write(table: pa.Table, path: str) -> None:
    # no pandas metadata, fixed writer settings: identical bytes per seed
    pq.write_table(table.replace_schema_metadata(None), path, compression="snappy")


def _texts(rng: np.random.Generator, n: int) -> list[str]:
    lens = rng.integers(10, 101, n)
    words = rng.integers(0, len(VOCAB), int(lens.sum()))
    vocab = np.array(VOCAB, dtype=object)[words]
    out, k = [], 0
    for m in lens:
        out.append(" ".join(vocab[k:k + m]))
        k += m
    # 5% near duplicates: an earlier document's text plus one token
    dups = np.flatnonzero(rng.random(n) < 0.05)
    for i in dups[dups > 0]:
        out[i] = out[int(rng.integers(0, i))] + " dup"
    return out


def documents(rng: np.random.Generator, n: int, first_id: int = 0) -> pa.Table:
    ids = np.arange(first_id, first_id + n, dtype=np.int64)
    texts = _texts(rng, n)
    return pa.table(
        {
            "doc_id": pa.array(ids),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(np.array(LANGS)[rng.choice(5, n, p=LANG_P)]),
            "source": pa.array([f"src{i % N_SOURCES}" for i in ids], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def _url(doc_id: int, source: str) -> str:
    return f"https://{source}.example.org/doc/{doc_id:08d}"


def render_page(doc_id: int, source: str, text: str) -> bytes:
    """One crawled page: boilerplate head/nav/aside/footer around a
    ``<div id="main">`` whose ``<p>`` paragraphs hold the escaped text."""
    esc = html.escape(text, quote=False)  # vocabulary texts hold no '&'
    width = 60 + (doc_id % 7) * 17
    paras = "".join(f"<p>{esc[k:k + width]}</p>" for k in range(0, len(esc), width))
    return (
        '<!DOCTYPE html><html><head><meta charset="utf-8"/>'
        f"<title>doc {doc_id}</title><script>var id={doc_id};</script>"
        "<style>.main{margin:0}</style></head>"
        '<body><nav><a href="/">home</a> | <a href="/about">about</a></nav>'
        f'<div id="main">{paras}</div>'
        f'<aside>related: <a href="{_url(doc_id + 1, source)}">next</a></aside>'
        f"<footer>&copy; {source} crawl archive</footer></body></html>"
    ).encode("utf-8")


def pages(docs: pa.Table) -> pa.Table:
    ids = docs.column("doc_id").to_pylist()
    srcs = docs.column("source").to_pylist()
    texts = docs.column("text").to_pylist()
    ts = _us(datetime(2024, 1, 1)) + np.array(ids, dtype=np.int64) * 1_000_000
    return pa.table(
        {
            "url": pa.array([_url(d, s) for d, s in zip(ids, srcs)], pa.string()),
            "warc_ts": _ts(ts),
            "html": pa.array(
                [render_page(d, s, t) for d, s, t in zip(ids, srcs, texts)],
                pa.binary(),
            ),
            "text": docs.column("text"),
            "lang": docs.column("lang"),
            "doc_id": docs.column("doc_id"),
        }
    )


def tpch(rng: np.random.Generator, sf: float) -> dict[str, pa.Table]:
    """A referentially consistent TPC-H-star sample at scale factor ``sf``
    (sf 0.01 → 1.5k customers, 15k orders, 60k lineitems)."""
    n_cust, n_supp = int(150_000 * sf), max(10, int(10_000 * sf))
    n_part, n_ord = int(200_000 * sf), int(1_500_000 * sf)
    n_line = int(6_000_000 * sf)
    t = {}
    t["region"] = pa.table(
        {"r_regionkey": pa.array(range(5), pa.int32()), "r_name": REGIONS}
    )
    t["nation"] = pa.table(
        {
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
        }
    )

    def money(n, lo, hi):
        return np.round(rng.uniform(lo, hi, n), 2)

    t["customer"] = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
            "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
            "c_acctbal": money(n_cust, -999.99, 9999.99),
            "c_mktsegment": np.array(SEGMENTS)[rng.integers(0, 5, n_cust)],
        }
    )
    t["supplier"] = pa.table(
        {
            "s_suppkey": pa.array(np.arange(n_supp, dtype=np.int64)),
            "s_name": [f"Supplier#{i:09d}" for i in range(n_supp)],
            "s_nationkey": pa.array(rng.integers(0, 25, n_supp).astype(np.int32)),
            "s_acctbal": money(n_supp, -999.99, 9999.99),
        }
    )
    names = [f"{a} {b}" for a in PART_ADJ for b in PART_NOUN]
    t["part"] = pa.table(
        {
            "p_partkey": pa.array(np.arange(n_part, dtype=np.int64)),
            "p_name": np.array(names)[rng.integers(0, len(names), n_part)],
            "p_brand": [f"Brand#{b}" for b in rng.integers(1, 26, n_part)],
            "p_type": np.array(PART_TYPES)[rng.integers(0, 6, n_part)],
            "p_size": pa.array(rng.integers(1, 51, n_part).astype(np.int32)),
            "p_retailprice": np.round(900 + (np.arange(n_part) % 1000) * 0.1, 2),
        }
    )
    d0, d1 = _us(datetime(1995, 1, 1)), _us(datetime(2001, 8, 2))
    o_days = rng.integers(0, (d1 - d0) // _DAY_US, n_ord)
    t["orders"] = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_ord)),
            "o_orderstatus": np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)],
            "o_totalprice": money(n_ord, 1000, 500_000),
            "o_orderdate": _ts(d0 + o_days * _DAY_US),
            "o_orderpriority": np.array(PRIORITIES)[rng.integers(0, 5, n_ord)],
        }
    )
    ship = d0 + rng.integers(1, (d1 - d0) // _DAY_US + 95, n_line) * _DAY_US
    t["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n_ord, n_line)),
            "l_partkey": pa.array(rng.integers(0, n_part, n_line)),
            "l_suppkey": pa.array(rng.integers(0, n_supp, n_line)),
            "l_linenumber": pa.array(rng.integers(1, 8, n_line).astype(np.int32)),
            "l_quantity": rng.integers(1, 51, n_line).astype(np.float64),
            "l_extendedprice": money(n_line, 900, 105_000),
            "l_discount": rng.integers(0, 11, n_line) / 100.0,
            "l_tax": rng.integers(0, 9, n_line) / 100.0,
            "l_returnflag": np.array(["A", "N", "R"])[rng.integers(0, 3, n_line)],
            "l_linestatus": np.array(["F", "O"])[rng.integers(0, 2, n_line)],
            "l_shipdate": _ts(ship),
        }
    )
    return t


def events(rng: np.random.Generator, n: int, n_users: int) -> pa.Table:
    gaps = rng.exponential(26.0, n) * 1_000_000
    ts = _us(datetime(2024, 1, 1)) + np.cumsum(gaps).astype(np.int64)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": _ts(ts),
            "user_id": pa.array(rng.integers(0, n_users, n)),
            "event_type": np.array(EVENT_TYPES)[rng.integers(0, 5, n)],
            "value": np.round(rng.exponential(50.0, n), 2),
            "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, n)],
        }
    )


def embeddings(rng: np.random.Generator, n: int, dim: int = 64) -> pa.Table:
    v = rng.standard_normal((n, dim)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(v), pa.list_(pa.float32())),
            "label": pa.array(rng.integers(0, 10, n).astype(np.int32)),
        }
    )


def write_tables(out_dir: str, seed: int, *, sf: float, n_docs: int,
                 n_events: int, n_vectors: int) -> None:
    """All ten source tables of the registry queries, one file each."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    tables = tpch(rng, sf)
    tables["documents"] = documents(rng, n_docs)
    tables["events"] = events(rng, n_events, max(10, n_events // 66))
    tables["embeddings"] = embeddings(rng, n_vectors)
    for name, t in tables.items():
        _write(t, os.path.join(out_dir, f"{name}.parquet"))


def write_pages(out_dir: str, seed: int, *, n_docs: int, n_shards: int) -> None:
    """``documents.parquet`` (the oracle's view) plus ``pages.parquet/``
    shards of the same documents, with fresh doc ids (offset 10^9)."""
    os.makedirs(os.path.join(out_dir, "pages.parquet"), exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    docs = documents(rng, n_docs, first_id=1_000_000_000)
    _write(docs, os.path.join(out_dir, "documents.parquet"))
    per = -(-n_docs // n_shards)
    for s in range(n_shards):
        part = docs.slice(s * per, per)
        if part.num_rows:
            _write(pages(part), os.path.join(out_dir, "pages.parquet", f"part-{s:04d}.parquet"))


def digest(root: str) -> str:
    """sha256 over every file under ``root`` (relative path + bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()

