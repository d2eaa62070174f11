"""Answer checks, run outside the timed regions.

- ``oracle``: the registry's DuckDB oracle SQL over the generated tables;
  ``same_answer`` compares column names, row counts and order-insensitive
  values (floats to 1e-9 relative, or one unit in the last place of a
  rounded value; everything else as strings).
- ``export_counts``: records per export file, for the "one record per node
  and edge" check; the GraphML file must also parse as XML.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import xml.etree.ElementTree as ET

import pandas as pd

def oracle(sql: str, data_dir: str) -> pd.DataFrame:
    import duckdb
    from kgw_ray.sources.readers import TABLES

    con = duckdb.connect()
    try:
        for t in TABLES:
            path = os.path.join(data_dir, f"{t}.parquet")
            if os.path.exists(path):
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        return con.execute(sql).df()
    finally:
        con.close()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if not (pd.api.types.is_float_dtype(df[c]) or pd.api.types.is_integer_dtype(df[c])):
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def _last_place(col: pd.Series) -> float:
    """One unit in the last decimal place of a column rounded to one to six
    places, else 0 (whole numbers compare exactly). Both sides ROUND a float SUM, and SQL leaves the order
    of summation open: when the exact sum is a tie (x.xx5), which way it
    rounds depends on that order, so such values may differ by one unit."""
    places = 0
    for v in col:
        if not math.isfinite(v):
            continue
        d = next((d for d in range(7) if round(v, d) == v), None)
        if d is None:
            return 0.0
        places = max(places, d)
    return 10.0 ** -places if places else 0.0


def same_answer(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """None when ``got`` equals ``want`` as a multiset of rows, else why not."""
    if sorted(got.columns) != sorted(want.columns):
        return f"columns {sorted(got.columns)} != {sorted(want.columns)}"
    if len(got) != len(want):
        return f"{len(got)} rows != {len(want)}"
    a, b = _canon(got), _canon(want)
    for c in a.columns:
        if pd.api.types.is_float_dtype(a[c]) or pd.api.types.is_float_dtype(b[c]):
            want_c = b[c].astype(float)
            unit = _last_place(want_c)
            for x, y in zip(a[c].astype(float), want_c):
                if not ((math.isnan(x) and math.isnan(y))
                        or abs(x - y) <= unit + 1e-9 * max(1.0, abs(y))):
                    return f"column {c}: {x} != {y}"
        elif not a[c].astype(str).equals(b[c].astype(str)):
            return f"column {c} differs"
    return None


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _sections(lines: list[str], first: str, second: str) -> tuple[list[str], list[str]]:
    i, j = lines.index(first), lines.index(second)
    return lines[i + 1:j], lines[j + 1:]


def export_counts(out: str, n_nodes: int) -> dict[str, tuple[int, int]]:
    """(node records, edge records) found in each export file under ``out``;
    MeTTa repr3 numbers nodes first, so its ids below ``n_nodes`` are nodes."""
    c: dict[str, tuple[int, int]] = {}
    with open(os.path.join(out, "statistics.json")) as f:
        s = json.load(f)
    c["statistics"] = (s["num_nodes"], s["num_edges"])

    def csv_rows(name: str) -> int:
        with open(os.path.join(out, name), newline="", encoding="utf-8") as f:
            return sum(1 for _ in csv.reader(f)) - 1  # header

    c["csv"] = (csv_rows("kg_nodes.csv"), csv_rows("kg_edges.csv"))
    c["jsonl"] = tuple(
        sum(1 for ln in _lines(os.path.join(out, n)) if json.loads(ln))
        for n in ("kg_nodes.jsonl", "kg_edges.jsonl")
    )
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    graph = ET.parse(os.path.join(out, "kg.graphml")).getroot().find(f"{ns}graph")
    c["graphml"] = (len(graph.findall(f"{ns}node")), len(graph.findall(f"{ns}edge")))
    nodes, edges = _sections(_lines(os.path.join(out, "kg_repr1.metta")), "; Nodes", "; Edges")
    c["metta1"] = (len(nodes), len(edges))
    nodes, edges = _sections(_lines(os.path.join(out, "kg_repr2.metta")), "; Nodes", "; Edges")
    c["metta2"] = (
        sum(1 for ln in nodes if ln.startswith("(: ")),
        sum(1 for ln in edges if ln.startswith('(: "e')),
    )
    ids = {m.group(1) for ln in _lines(os.path.join(out, "kg_repr3.metta"))
           if (m := re.match(r"\((\d+) \(", ln))}
    c["metta3"] = (
        sum(1 for i in ids if int(i) < n_nodes),
        sum(1 for i in ids if int(i) >= n_nodes),
    )
    dump = _lines(os.path.join(out, "kg.sql"))
    c["sql"] = (
        sum(1 for ln in dump if ln.startswith("INSERT INTO nodes ")),
        sum(1 for ln in dump if ln.startswith("INSERT INTO edges ")),
    )
    return c
