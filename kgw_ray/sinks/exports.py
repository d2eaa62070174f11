"""Export sinks over the unified graph IR (SURVEY.md §2.6; reference
kgw/_shared/load.py).

Every sink reads the hub (nodes/edges Datasets with schema
``(id,type,properties)`` / ``(source_id,target_id,type,properties)``) and
writes the reference's output formats:

- ``write_statistics`` — statistics.json (load.py:10-81)
- ``write_csv_export`` — kg_nodes.csv / kg_edges.csv, excel dialect,
  QUOTE_ALL, header row (load.py:294-315)
- ``write_jsonl_export`` — one JSON object per row, properties nested
  (load.py:318-364)
- ``write_graphml`` — key decls + nodes + edges, XML-escaped, sequential
  edge ids (load.py:367-535)
- ``write_metta_repr1/2/3`` — S-expression exports (load.py:548-842)
- ``write_sql_dump`` — CREATE TABLE + INSERT statements (load.py:286-291)

Physical strategy: **render-parallel, assemble-serial**. Row formatting runs
distributed (each block → one rendered UTF-8 fragment); the driver streams
fragments IN ORDER to the single output file with O(window) memory.

Order-dependent formats (GraphML edge ids, MeTTa repr2/3 ids) use the
**counted two-pass** scheme: pass 1 takes per-block row counts from the
materialized block refs (tiny remote tasks — no data to the driver), the
prefix sum gives each block its global id offset, and pass 2 renders every
block IN PARALLEL with final ids baked in. The driver's only serial work is
ordered file I/O — no string processing (SURVEY.md §7 hard part 1/3).
All files are written atomically (temp + rename), mirroring the reference's
``temp_output_path`` (kgw/_shared/tasks.py:13-28).
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from typing import Callable, Iterator
from xml.sax import saxutils

import pyarrow as pa
import pyarrow.dataset as pads
import ray.data as rd

from kgw_ray.functions.scalars import clean, json_dumps, json_loads


def _atomic_write(path: str, chunks: Iterator[str]) -> None:
    tmp = f"{path}.partial"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        for c in chunks:
            f.write(c)
    os.replace(tmp, path)


def _fragments(ds: rd.Dataset, render: Callable[[pa.Table], str]) -> rd.Dataset:
    """Distributed render: each block → one fragment string row."""

    def to_frag(batch: pa.Table) -> pa.Table:
        return pa.table({"frag": pa.array([render(batch)], pa.large_string())})

    return ds.map_batches(to_frag, batch_format="pyarrow")


@contextmanager
def _ordered(ds: rd.Dataset):
    """Force deterministic block order WHILE a sink executes: Ray's
    streaming executor consumes blocks in COMPLETION order by default
    (execution_options.preserve_order=False), which would let export row
    order — and therefore sequential ids — drift run to run.

    The flag must be set on the DATASET'S plan context: Ray deep-copies the
    DataContext into the plan when the ROOT dataset is created, and the
    executor reads that snapshot — mutating the global context afterwards
    (the obvious fix) is a no-op. Root and derived datasets SHARE the
    snapshot, so the flag is restored on exit (try/finally) — a permanent
    flip would silently serialize every later execution in the lineage."""
    try:
        opts = ds._plan._context.execution_options
    except AttributeError:  # pragma: no cover - private-API drift guard
        opts = rd.DataContext.get_current().execution_options
    prev = opts.preserve_order
    opts.preserve_order = True
    try:
        yield ds
    finally:
        opts.preserve_order = prev


def _stream_fragments(frags: rd.Dataset) -> Iterator[str]:
    # generator-scoped ordering: the finally restores the flag when the
    # consumer exhausts (or abandons) the stream
    with _ordered(frags):
        for b in frags.iter_batches(batch_format="pyarrow", batch_size=1):
            for s in b.column("frag").to_pylist():
                yield s


# --- counted two-pass assembly for order-dependent formats -----------------

import ray  # noqa: E402


@ray.remote
def _block_num_rows(tbl: pa.Table) -> int:
    return tbl.num_rows


@ray.remote
def _render_block(tbl: pa.Table, render: Callable[[pa.Table, int], str], start: int) -> str:
    return render(tbl, start)


def _blocks_with_offsets(ds: rd.Dataset, start: int = 0) -> tuple[list, list[int]]:
    """Materialize ``ds`` in dataset order → (block refs, global row
    offsets). Counts travel via tiny remote tasks; blocks stay put. The
    shared pass-1 of every counted two-pass consumer below."""
    with _ordered(ds):
        refs = ds.materialize().to_arrow_refs()
    counts = ray.get([_block_num_rows.remote(r) for r in refs])
    # drop zero-row blocks: an EMPTY dataset's blocks can be column-less
    # (schema drops), and renderers indexing columns would crash on them
    refs = [r for r, c in zip(refs, counts) if c > 0]
    counts = [c for c in counts if c > 0]
    offsets = [start]
    for c in counts:
        offsets.append(offsets[-1] + c)
    return refs, offsets


def _fragments_from_refs(
    refs: list,
    offsets: list[int],
    render: Callable[[pa.Table, int], str],
    *,
    window: int = 32,
) -> Iterator[str]:
    """Pass 2: render every block IN PARALLEL with its global row offset
    baked in; the driver consumes fragments in dataset order with at most
    ``window`` render tasks outstanding (bounds object-store residency for
    single-file exports — a small-graph surface anyway; the 100 TB sink is
    the partitioned Parquet hub below)."""
    pending = []
    for i, r in enumerate(refs):
        pending.append(_render_block.remote(r, render, offsets[i]))
        if len(pending) >= window:
            yield ray.get(pending.pop(0))
    while pending:
        yield ray.get(pending.pop(0))


def _counted_fragments(
    ds: rd.Dataset,
    render: Callable[[pa.Table, int], str],
    start: int = 0,
    *,
    window: int = 32,
) -> tuple[Iterator[str], int]:
    """Counted two-pass parallel render with global per-row counters.

    Returns ``(ordered fragment iterator, total_row_count)``; the total is
    known immediately so a second dataset can chain its counter (MeTTa
    repr3 numbers nodes then edges from one sequence, load.py:795-840).
    """
    refs, offsets = _blocks_with_offsets(ds, start)
    return _fragments_from_refs(refs, offsets, render, window=window), offsets[-1]


# ---------------------------------------------------------------------------
# statistics.json
# ---------------------------------------------------------------------------


def write_statistics(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> dict:
    """statistics.json with total + per-type counts (reference shape,
    load.py:69-76)."""
    from kgw_ray.stages.graph import statistics_dict

    stats = statistics_dict(nodes, edges)
    _atomic_write(path, iter([json.dumps(stats, indent=2)]))
    return stats


# ---------------------------------------------------------------------------
# CSV (excel dialect, QUOTE_ALL, header — load.py:294-315)
# ---------------------------------------------------------------------------


def _csv_fragment(batch: pa.Table) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, dialect="excel", quoting=csv.QUOTE_ALL)
    cols = [batch.column(c).to_pylist() for c in batch.column_names]
    for row in zip(*cols):
        w.writerow(row)
    return buf.getvalue()


def write_csv_export(ds: rd.Dataset, path: str) -> None:
    """Single CSV file: header + QUOTE_ALL rows; parallel per-block render,
    ordered assembly."""
    sch = ds.schema()
    header_cols = sch.names if sch is not None else []  # empty ds: no schema
    buf = io.StringIO()
    csv.writer(buf, dialect="excel", quoting=csv.QUOTE_ALL).writerow(header_cols)
    frags = _fragments(ds, _csv_fragment)

    def chunks():
        yield buf.getvalue()
        yield from _stream_fragments(frags)

    _atomic_write(path, chunks())


# ---------------------------------------------------------------------------
# JSONL (properties nested — load.py:318-364)
# ---------------------------------------------------------------------------


def _jsonl_fragment(batch: pa.Table) -> str:
    names = batch.column_names
    cols = [batch.column(c).to_pylist() for c in names]
    out = []
    for row in zip(*cols):
        d = dict(zip(names, row))
        if "properties" in d and isinstance(d["properties"], str):
            d["properties"] = json_loads(d["properties"])
        out.append(json_dumps(d))
    return "\n".join(out) + "\n" if out else ""


def write_jsonl_export(ds: rd.Dataset, path: str) -> None:
    _atomic_write(path, _stream_fragments(_fragments(ds, _jsonl_fragment)))


# ---------------------------------------------------------------------------
# GraphML (load.py:367-535)
# ---------------------------------------------------------------------------

_GRAPHML_TYPES = {bool: "boolean", int: "long", float: "double", str: "string"}


def _graphml_type(v) -> str:
    # bool before int: bool is an int subclass (reference load.py:394-402)
    if isinstance(v, bool):
        return "boolean"
    for t, name in _GRAPHML_TYPES.items():
        if isinstance(v, t):
            return name
    return "string"


def _attr_schema_of_block(batch: pa.Table, start: int) -> dict:
    """Local (key → (gtype, global_ordinal)) of one block; ``start`` is the
    block's global row offset so first-seen order is GLOBAL scan order
    (reference load.py:404-459 walks rows in one sequence). Ordinals are
    (row, key_index) TUPLES — a row-stride integer would overflow into the
    next row's range for property dicts with 1000+ keys."""
    seen: dict[str, tuple[str, tuple[int, int]]] = {}
    for base, props in enumerate(batch.column("properties").to_pylist()):
        if not props:
            continue
        d = json_loads(props)
        for i, (k, v) in enumerate(d.items()):
            if k not in seen:
                seen[k] = (_graphml_type(v), (start + base, i))
    return seen


@ray.remote
def _attr_schema_task(batch: pa.Table, start: int) -> dict:
    return _attr_schema_of_block(batch, start)


def _graphml_key_id(owner: str, k: str) -> str:
    """Key id for a property attribute. A property literally named "type"
    would collide with the built-in ``{owner}_type`` declaration (duplicate
    XML ids — the reference load.py:404-459 shares this bug); disambiguate
    that one id, keeping every other id reference-identical."""
    return f"{owner}_{k}_prop" if k == "type" else f"{owner}_{k}"


def _attr_schema_from_refs(
    refs: list, offsets: list, owner: str
) -> list[tuple[str, str, str]]:
    """Union of property keys + inferred type in first-seen order over
    already-materialized blocks (pass 1 of GraphML, load.py:404-459):
    per-block maps computed in parallel, tiny driver merge by min
    (row, key_index) ordinal."""
    merged: dict[str, tuple[str, tuple[int, int]]] = {}
    for seen in ray.get(
        [_attr_schema_task.remote(r, offsets[i]) for i, r in enumerate(refs)]
    ):
        for k, (t, o) in seen.items():
            if k not in merged or o < merged[k][1]:
                merged[k] = (t, o)
    ordered = sorted(merged.items(), key=lambda kv: kv[1][1])
    return [(k, owner, t) for k, (t, _) in ordered]


def _esc(s) -> str:
    return saxutils.escape(str(s))


def _attr(s) -> str:
    """Escape for XML *attribute* position: also encodes double quotes,
    which ``saxutils.escape`` alone does not — an id containing ``"`` would
    otherwise produce malformed ``id="a"b"`` markup."""
    return saxutils.escape(str(s), {'"': "&quot;"})


def _graphml_value(v) -> str:
    if isinstance(v, (list, dict)):
        return _esc(json_dumps(v))  # compound → JSON string (load.py:376-378)
    if isinstance(v, bool):
        return "true" if v else "false"
    return _esc(v)


def write_graphml(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """GraphML export: attribute-schema pass, then parallel rendering with
    sequential edge ids (load.py:503) assigned by the counted two-pass
    scheme — each block knows its global edge offset up front.

    Each input executes ONCE: the materialized block refs feed both the
    attribute-schema pass and the render pass."""
    n_refs, n_offs = _blocks_with_offsets(nodes)
    e_refs, e_offs = _blocks_with_offsets(edges)
    node_attrs = _attr_schema_from_refs(n_refs, n_offs, "node")
    edge_attrs = _attr_schema_from_refs(e_refs, e_offs, "edge")

    def node_frag(batch: pa.Table, _start: int) -> str:
        out = []
        for nid, ntype, props in zip(
            batch.column("id").to_pylist(),
            batch.column("type").to_pylist(),
            batch.column("properties").to_pylist(),
        ):
            out.append(f'    <node id="{_attr(nid)}">')
            out.append(f'      <data key="node_type">{_esc(ntype)}</data>')
            if props:
                for k, v in json_loads(props).items():
                    out.append(
                        f'      <data key="{_attr(_graphml_key_id("node", k))}">'
                        f"{_graphml_value(v)}</data>"
                    )
            out.append("    </node>")
        return "\n".join(out) + "\n" if out else ""

    # final edge ids baked in per block from the block's global row offset
    def edge_frag(batch: pa.Table, start: int) -> str:
        out = []
        for i, (s, t, etype, props) in enumerate(
            zip(
                batch.column("source_id").to_pylist(),
                batch.column("target_id").to_pylist(),
                batch.column("type").to_pylist(),
                batch.column("properties").to_pylist(),
            )
        ):
            out.append(
                f'    <edge id="e{start + i}" source="{_attr(s)}" target="{_attr(t)}">'
            )
            out.append(f'      <data key="edge_type">{_esc(etype)}</data>')
            if props:
                for k, v in json_loads(props).items():
                    out.append(
                        f'      <data key="{_attr(_graphml_key_id("edge", k))}">'
                        f"{_graphml_value(v)}</data>"
                    )
            out.append("    </edge>")
        return "\n".join(out) + "\n" if out else ""

    def chunks():
        yield '<?xml version="1.0" encoding="UTF-8"?>\n'
        yield (
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
            'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
            'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
            "http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd\">\n"
        )
        yield '  <key id="node_type" for="node" attr.name="type" attr.type="string"/>\n'
        yield '  <key id="edge_type" for="edge" attr.name="type" attr.type="string"/>\n'
        for k, owner, t in node_attrs:
            yield (
                f'  <key id="{_attr(_graphml_key_id("node", k))}" for="node" '
                f'attr.name="{_attr(k)}" attr.type="{t}"/>\n'
            )
        for k, owner, t in edge_attrs:
            yield (
                f'  <key id="{_attr(_graphml_key_id("edge", k))}" for="edge" '
                f'attr.name="{_attr(k)}" attr.type="{t}"/>\n'
            )
        yield '  <graph edgedefault="directed">\n'
        yield from _fragments_from_refs(n_refs, n_offs, node_frag)
        yield from _fragments_from_refs(e_refs, e_offs, edge_frag)
        yield "  </graph>\n</graphml>\n"

    _atomic_write(path, chunks())


# ---------------------------------------------------------------------------
# MeTTa exports (load.py:548-842)
# ---------------------------------------------------------------------------


def _distinct_types(ds: rd.Dataset) -> list[str]:
    return sorted(ds.unique("type") or [])  # unique() is None when empty


def write_metta_repr1(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """repr1 "spo" (load.py:548-607): ``; Types`` / ``; Nodes`` / ``; Edges``
    sections, node-type decls, node type atoms, (s p o) triples. Type decls
    render in sorted order (the reference emits SQLite's DISTINCT order,
    which is storage-dependent)."""
    ntypes = _distinct_types(nodes)

    def node_frag(batch: pa.Table) -> str:
        return (
            "".join(
                f"(: {clean(i)} {clean(t)})\n"
                for i, t in zip(
                    batch.column("id").to_pylist(), batch.column("type").to_pylist()
                )
            )
        )

    def edge_frag(batch: pa.Table) -> str:
        return (
            "".join(
                f"({clean(s)} {clean(t)} {clean(o)})\n"
                for s, t, o in zip(
                    batch.column("source_id").to_pylist(),
                    batch.column("type").to_pylist(),
                    batch.column("target_id").to_pylist(),
                )
            )
        )

    def chunks():
        yield "; Types\n"
        yield "(: NodeType Type)\n"
        for t in ntypes:
            yield f"(: {clean(t)} NodeType)\n"
        yield "; Nodes\n"
        yield from _stream_fragments(_fragments(nodes, node_frag))
        yield "; Edges\n"
        yield from _stream_fragments(_fragments(edges, edge_frag))

    _atomic_write(path, chunks())


def write_metta_repr2(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """repr2 (load.py:610-716): Types section (NodeType/EdgeType decls +
    per-type atoms), node atoms with ``("has_property" id (k v))`` lines,
    and edges in prefix notation ``("eN" (pred subj obj))`` with a typed
    ``(: "eN" pred)`` decl per edge.

    Deviation from the reference (documented): edge ids are GLOBALLY
    monotone via the counted two-pass scheme; the reference's ``enumerate``
    restarts per 10k-row fetch batch (load.py:691-694), repeating ids —
    a bug we do not reproduce."""
    ntypes = _distinct_types(nodes)
    etypes = _distinct_types(edges)
    prop_rel = '"has_property"'

    def node_frag(batch: pa.Table) -> str:
        out = []
        for nid, ntype, props in zip(
            batch.column("id").to_pylist(),
            batch.column("type").to_pylist(),
            batch.column("properties").to_pylist(),
        ):
            out.append(f"(: {clean(nid)} {clean(ntype)})")
            if props:
                for k, v in json_loads(props).items():
                    out.append(f"({prop_rel} {clean(nid)} ({clean(k)} {clean(v)}))")
        return "\n".join(out) + "\n" if out else ""

    def edge_frag(batch: pa.Table, start: int) -> str:
        out = []
        for i, (s, t, o, props) in enumerate(
            zip(
                batch.column("source_id").to_pylist(),
                batch.column("type").to_pylist(),
                batch.column("target_id").to_pylist(),
                batch.column("properties").to_pylist(),
            )
        ):
            eid = f'"e{start + i}"'
            out.append(f"(: {eid} {clean(t)})")
            out.append(f"({eid} ({clean(t)} {clean(s)} {clean(o)}))")
            if props:
                for k, v in json_loads(props).items():
                    out.append(f"({prop_rel} {eid} ({clean(k)} {clean(v)}))")
        return "\n".join(out) + "\n" if out else ""

    def chunks():
        yield "; Types\n"
        yield "(: NodeType Type)\n"
        yield "(: EdgeType Type)\n"
        for t in ntypes:
            yield f"(: {clean(t)} NodeType)\n"
        for t in etypes:
            yield f"(: {clean(t)} EdgeType)\n"
        yield "; Nodes\n"
        yield from _stream_fragments(_fragments(nodes, node_frag))
        yield "; Edges\n"
        edge_frags, _ = _counted_fragments(edges, edge_frag)
        yield from edge_frags

    _atomic_write(path, chunks())


# --- repr3 nested-property walker (reference load.py:720-789) --------------


def _dict_gen(d, pre: list):
    """Path generator over nested dicts/lists, matching the reference's
    ``dict_generator``: dict keys extend the path; (nested) list indices
    collapse into one ``(key, i0, i1, …)`` tuple path element; scalar
    leaves terminate the path."""
    if isinstance(d, dict):
        for key, value in d.items():
            if isinstance(value, dict):
                yield from _dict_gen(value, pre + [key])
            elif isinstance(value, (list, tuple)):
                yield from _list_gen(key, value, pre)
            else:
                yield pre + [key, value]
    else:
        yield pre + [d]


def _list_gen(key, value, pre: list, idx: tuple = ()):
    if len(idx) >= 5:  # same nesting ceiling as the reference (load.py:744)
        raise NotImplementedError("list nesting deeper than 5 levels")
    for k, v in enumerate(value):
        if isinstance(v, (list, tuple)):
            yield from _list_gen(key, v, pre, idx + (k,))
        else:
            yield from _dict_gen(v, pre + [(key, *idx, k)])


def _path_to_line(path: list) -> str:
    """Reference ``dict_to_metta`` line rendering: strings cleaned, numbers
    verbatim, path elements wrapped innermost-out.

    Parity note: ONLY str leaves are cleaned (load.py:779-781), so a JSON
    ``null`` renders as the bare atom ``None`` — matching the reference's
    repr3 byte-for-byte even though its own repr2 cleans the same value to
    ``"null"``; the inconsistency is the reference's, reproduced on purpose.
    """
    s = path[-1]
    if isinstance(s, str):
        s = clean(s)
    for item in reversed(path[:-1]):
        if isinstance(item, tuple):
            item_str = " ".join(clean(x) for x in item)
            s = f"({item_str} {s})"
        else:
            s = f"({clean(item)} {s})"
    return s


def write_metta_repr3(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """repr3 (load.py:719-842): fully expanded nested-property
    S-expressions — every record becomes ``{cnt: {...record dict...}}``
    walked to one line per scalar leaf, with ONE global monotone counter
    across nodes then edges, assigned by the counted two-pass scheme."""

    def node_frag(batch: pa.Table, start: int) -> str:
        out = []
        for i, (nid, ntype, props) in enumerate(
            zip(
                batch.column("id").to_pylist(),
                batch.column("type").to_pylist(),
                batch.column("properties").to_pylist(),
            )
        ):
            rec = {
                "id": nid,
                "type": ntype,
                "properties": json_loads(props) if props else {},
            }
            out.extend(_path_to_line(p) for p in _dict_gen({start + i: rec}, []))
        return "\n".join(out) + "\n" if out else ""

    def edge_frag(batch: pa.Table, start: int) -> str:
        out = []
        for i, (s, t, o, props) in enumerate(
            zip(
                batch.column("source_id").to_pylist(),
                batch.column("target_id").to_pylist(),
                batch.column("type").to_pylist(),
                batch.column("properties").to_pylist(),
            )
        ):
            rec = {
                "source_id": s,
                "target_id": t,
                "type": o,
                "properties": json_loads(props) if props else {},
            }
            out.extend(_path_to_line(p) for p in _dict_gen({start + i: rec}, []))
        return "\n".join(out) + "\n" if out else ""

    def chunks():
        node_frags, n_nodes = _counted_fragments(nodes, node_frag)
        yield from node_frags
        edge_frags, _ = _counted_fragments(edges, edge_frag, n_nodes)
        yield from edge_frags

    _atomic_write(path, chunks())


# ---------------------------------------------------------------------------
# SQL dump (load.py:286-291 via conn.iterdump())
# ---------------------------------------------------------------------------

_SCHEMA_SQL = """BEGIN TRANSACTION;
CREATE TABLE nodes (
    id TEXT PRIMARY KEY,
    type TEXT NOT NULL,
    properties TEXT
);
CREATE TABLE edges (
    source_id TEXT,
    target_id TEXT,
    type TEXT NOT NULL,
    properties TEXT,
    FOREIGN KEY (source_id) REFERENCES nodes (id),
    FOREIGN KEY (target_id) REFERENCES nodes (id)
);
"""


def _sql_quote(v) -> str:
    if v is None:
        return "NULL"
    return "'" + str(v).replace("'", "''") + "'"


def write_sql_dump(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """SQLite-compatible dump: the reference's schema (transform.py:10-30)
    + INSERT per row, indexes, COMMIT."""

    def node_frag(batch: pa.Table) -> str:
        return "".join(
            f"INSERT INTO nodes VALUES({_sql_quote(i)},{_sql_quote(t)},{_sql_quote(p)});\n"
            for i, t, p in zip(
                batch.column("id").to_pylist(),
                batch.column("type").to_pylist(),
                batch.column("properties").to_pylist(),
            )
        )

    def edge_frag(batch: pa.Table) -> str:
        return "".join(
            f"INSERT INTO edges VALUES({_sql_quote(s)},{_sql_quote(t)},"
            f"{_sql_quote(ty)},{_sql_quote(p)});\n"
            for s, t, ty, p in zip(
                batch.column("source_id").to_pylist(),
                batch.column("target_id").to_pylist(),
                batch.column("type").to_pylist(),
                batch.column("properties").to_pylist(),
            )
        )

    def chunks():
        yield _SCHEMA_SQL
        yield from _stream_fragments(_fragments(nodes, node_frag))
        yield from _stream_fragments(_fragments(edges, edge_frag))
        yield "CREATE INDEX idx_edges_source ON edges (source_id);\n"
        yield "CREATE INDEX idx_edges_target ON edges (target_id);\n"
        yield "COMMIT;\n"

    _atomic_write(path, chunks())


# ---------------------------------------------------------------------------
# Parquet hub writers (the scale-native sink)
# ---------------------------------------------------------------------------


def _bucket_of(ids, num_buckets: int):
    """Deterministic hash bucket of a string-id column (stable across
    processes — NOT Python hash())."""
    import pandas as pd

    h = pd.util.hash_array(
        ids.to_numpy(zero_copy_only=False), hash_key="kgw_ray_bucket00"
    )
    return (h % num_buckets).astype("int64")


EDGE_COLUMNS = ["source_id", "target_id", "type", "properties"]


def write_hub(
    nodes: rd.Dataset,
    edges: rd.Dataset,
    out_dir: str,
    *,
    num_buckets: int = 0,
) -> None:
    """Partitioned Parquet hub — the kg.sqlite analog (transform.py:10-30).

    With ``num_buckets`` > 0, edges are written under
    ``edges/bucket=<hash(source_id) % B>/`` — the reference's
    ``idx_edges_source`` B-tree analog (transform.py:27-28): an adjacency
    lookup then reads ONE bucket directory instead of the whole table
    (``read_adjacency``). Nodes are bucketed by id the same way. Each block
    is sorted by (bucket, key) before the write, so the rows one block puts
    in a bucket file are ordered by key (the whole file, when a write task
    carries one block) and the file's row-group min/max statistics let a
    pushed-down key filter skip row groups. At 100 TB, B is sized so one
    bucket ≈ a few GB (e.g. B=4096)."""
    if num_buckets <= 0:
        nodes.write_parquet(os.path.join(out_dir, "nodes"))
        edges.write_parquet(os.path.join(out_dir, "edges"))
        return

    def tag(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "bucket", pa.array(_bucket_of(batch.column(col), num_buckets))
            ).sort_by([("bucket", "ascending"), (col, "ascending")])

        return fn

    nodes.map_batches(tag("id"), batch_format="pyarrow").write_parquet(
        os.path.join(out_dir, "nodes"), partition_cols=["bucket"]
    )
    edges.map_batches(tag("source_id"), batch_format="pyarrow").write_parquet(
        os.path.join(out_dir, "edges"), partition_cols=["bucket"]
    )


class Adjacency:
    """A lookup answer held on the driver as a ``pa.Table``, with the three
    Dataset verbs callers use (no Ray object behind it)."""

    def __init__(self, table: pa.Table):
        self.table = table

    def take_all(self) -> list[dict]:
        return self.table.to_pylist()

    def to_pandas(self):
        return self.table.to_pandas()

    def count(self) -> int:
        return self.table.num_rows


def _edge_schema(edges_dir: str) -> pa.Schema:
    """Schema of the hub's edge files (from any one bucket); the IR's
    all-string schema when no edge was written."""
    if os.path.isdir(edges_dir):
        for entry in os.scandir(edges_dir):
            if entry.name.startswith("bucket="):
                return pads.dataset(entry.path, format="parquet").schema
    return pa.schema([(c, pa.string()) for c in EDGE_COLUMNS])


def read_adjacency(out_dir: str, node_id: str, *, num_buckets: int) -> Adjacency:
    """Out-edges of ``node_id`` from a hub written with the same
    ``num_buckets``: a driver-side index probe, no Ray Data execution. Only
    ``edges/bucket=<b>/`` is opened (partition pruning at the path level),
    and the ``source_id`` filter is pushed into the Parquet scan, where the
    key-sorted files' row-group statistics skip what cannot match. Returns
    an ``Adjacency`` over the four edge IR columns, typed as the hub files
    are (a typed empty table when no edge hashed into the bucket)."""
    if num_buckets < 1:
        raise ValueError(
            f"read_adjacency needs a bucketed hub (num_buckets >= 1), got {num_buckets}"
        )
    b = int(_bucket_of(pa.array([node_id]), num_buckets)[0])
    edges_dir = os.path.join(out_dir, "edges")
    bucket_dir = os.path.join(edges_dir, f"bucket={b}")
    if not os.path.isdir(bucket_dir):
        schema = _edge_schema(edges_dir)
        return Adjacency(schema.empty_table().select(EDGE_COLUMNS))
    table = pads.dataset(bucket_dir, format="parquet").to_table(
        columns=EDGE_COLUMNS, filter=pads.field("source_id") == node_id
    )
    return Adjacency(table)
