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

Physical strategy: **one ordered pass, render-parallel, assemble-serial.**
Every writer takes each input table's block refs in dataset order from
``stages.agg._materialized`` (no execution when the table is already
materialized, one order-preserving execution when it is lazy) and each
block's global row offset from the prefix sum of the block metadata's row
counts. Every block renders in its own task with its offset baked in, so
the sequential ids of GraphML edges and MeTTa repr2/3 need no second pass,
and the driver writes the fragments to the one output file in order
(``_publish``). What a header needs from the rows (the distinct types of
the MeTTa type decls, the GraphML attribute schema) comes from per-block
tasks over the same refs, merged on the driver. The block tasks are the
shared ``stages.agg._on_block``/``_per_block`` primitive, the same one
``fold`` combines a materialized table with.

Renderers build a block's lines a column at a time with
``pyarrow.compute``: line templates are ``binary_join_element_wise`` over
whole columns, CSV/SQL quote doubling and the XML escapes are
``replace_substring``, and ``_clean`` quotes a string column in one pass,
handing only values that hold ``"``, ``\\`` or a control character to the
scalar ``clean``. Python touches single rows only to walk a ``properties``
JSON object (GraphML, MeTTa repr2/3, JSONL), caching each key's rendering.
All files are written atomically (temp + rename; the temp is removed when
a render fails), mirroring the reference's ``temp_output_path``
(kgw/_shared/tasks.py:13-28).
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import deque
from contextlib import contextmanager
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple
from xml.sax import saxutils

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from kgw_ray.functions.scalars import clean, json_dumps, json_loads
from kgw_ray.stages.agg import _materialized, _on_block, _per_block


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    tmp = f"{path}.partial"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            for c in chunks:
                f.write(c)
        os.replace(tmp, path)
    except BaseException:
        # a failed render leaves neither the target nor a half-written temp
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


# --- the one assembly path -------------------------------------------------


class _Blocks(NamedTuple):
    """One table's non-empty blocks in dataset order: ``refs[i]`` holds the
    rows from global offset ``starts[i]`` on; ``end`` is one past the last."""

    refs: list
    starts: list[int]
    end: int
    schema: object


def _blocks(ds: rd.Dataset, start: int = 0) -> _Blocks:
    """Non-empty block refs of ``ds`` in dataset order, numbered from
    ``start`` by the block metadata's row counts."""
    with _ordered(ds):
        _, refs, rows, schema = _materialized(ds)
    *starts, end = accumulate(rows, initial=start)
    return _Blocks(refs, starts, end, schema)


# parts in flight while a file is assembled: bounds object-store residency
# for single-file exports (a small-graph surface anyway; the 100 TB sink is
# the partitioned Parquet hub below)
_WINDOW = 32


def _publish(path: str, parts: list) -> None:
    """Write ``path`` from ``parts`` in order. A ``str`` part is written as
    is and an object ref as the string it holds; a ``(blocks, render)``
    part renders every block in its own task as ``render(block, start) ->
    str``, at most ``_WINDOW`` parts ahead of the driver's ordered writes."""

    def submitted():
        for part in parts:
            if not isinstance(part, tuple):
                yield part
            else:
                blocks, render = part
                for r, s in zip(blocks.refs, blocks.starts):
                    yield _on_block.remote(render, r, s)

    def fetch(item) -> str:
        return item if isinstance(item, str) else ray.get(item)

    def chunks():
        queue: deque = deque()
        for item in submitted():
            queue.append(item)
            if len(queue) >= _WINDOW:
                yield fetch(queue.popleft())
        while queue:
            yield fetch(queue.popleft())

    _atomic_write(path, chunks())


# --- column kernels --------------------------------------------------------


def _cols(tbl: pa.Table, *names: str) -> list[pa.Array]:
    # one string type throughout: the join kernels do not mix string with
    # large_string
    out = []
    for n in names:
        col = tbl.column(n).combine_chunks()
        out.append(col.cast(pa.string()) if pa.types.is_large_string(col.type) else col)
    return out


def _join(*parts) -> pa.Array:
    """Element-wise concatenation of string columns and scalars."""
    return pc.binary_join_element_wise(*parts, "")


def _lines(rows: pa.Array, end: str = "\n") -> str:
    """Every value of ``rows`` followed by ``end``, as one string."""
    if len(rows) == 0:
        return ""
    one = pa.LargeListArray.from_arrays(pa.array([0, len(rows)], pa.int64()), rows)
    return pc.binary_join(one, end)[0].as_py() + end


def _strings(values: list) -> pa.Array:
    return pa.array(values, pa.string())


def _str(col: pa.Array) -> pa.Array:
    """``str()`` of every non-NULL value (string columns as they are)."""
    if pa.types.is_string(col.type):
        return col
    return _strings([None if v is None else str(v) for v in col.to_pylist()])


def _ids(start: int, n: int) -> pa.Array:
    return pa.array(np.arange(start, start + n)).cast(pa.string())


_NEEDS_ESCAPE = r'[[:cntrl:]"\\]'


def _clean(col: pa.Array, null: str = '"null"') -> pa.Array:
    """``clean`` of every value, NULL rendered as ``null``. orjson escapes
    only ``"``, ``\\`` and characters below U+0020 in a string, so a string
    free of those is quoted as is; the flagged rest (and non-string
    columns) go through the scalar ``clean``."""
    if not pa.types.is_string(col.type):
        return _strings([null if v is None else clean(v) for v in col.to_pylist()])
    out = pc.fill_null(_join('"', col, '"'), null)
    flagged = pc.fill_null(pc.match_substring_regex(col, _NEEDS_ESCAPE), False)
    if pc.any(flagged).as_py():
        slow = [clean(v) for v in pc.filter(col, flagged).to_pylist()]
        out = pc.replace_with_mask(out, flagged, _strings(slow))
    return out


def _quoted(col: pa.Array, quote: str, null: str) -> pa.Array:
    """``quote + str(v) + quote`` with ``quote`` doubled inside (CSV, SQL)."""
    doubled = pc.replace_substring(_str(col), quote, quote * 2)
    return pc.fill_null(_join(quote, doubled, quote), null)


def _xml(col: pa.Array, attr: bool = False) -> pa.Array:
    """``_esc`` (``_attr`` with ``attr``) of every value; NULL is "None"."""
    out = pc.fill_null(_str(col), "None")
    subs = [("&", "&amp;"), (">", "&gt;"), ("<", "&lt;")] + ([('"', "&quot;")] if attr else [])
    for a, b in subs:
        out = pc.replace_substring(out, a, b)
    return out


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


def _csv_rows(tbl: pa.Table, _start: int) -> str:
    # csv.writer's QUOTE_ALL: every cell quoted, quotes doubled, NULL as ""
    cells = [_quoted(c, '"', '""') for c in _cols(tbl, *tbl.column_names)]
    return _lines(pc.binary_join_element_wise(*cells, ","), "\r\n")


def write_csv_export(ds: rd.Dataset, path: str) -> None:
    """Single CSV file: header + QUOTE_ALL rows; parallel per-block render,
    ordered assembly."""
    blocks = _blocks(ds)
    header = io.StringIO()
    csv.writer(header, dialect="excel", quoting=csv.QUOTE_ALL).writerow(
        blocks.schema.names if blocks.schema is not None else []  # schema-less empty
    )
    _publish(path, [header.getvalue(), (blocks, _csv_rows)])


# ---------------------------------------------------------------------------
# JSONL (properties nested — load.py:318-364)
# ---------------------------------------------------------------------------


def _json_values(name: str, col: pa.Array) -> pa.Array:
    if not pa.types.is_string(col.type):
        return _strings([json_dumps(v) for v in col.to_pylist()])
    if name == "properties":  # nested: re-serialized as its JSON object
        # "" is "no properties", as in GraphML, MeTTa and SQL: null like NULL
        return _strings(
            [json_dumps(json_loads(p)) if p else "null" for p in col.to_pylist()]
        )
    return _clean(col, "null")  # clean() of a str is its JSON string


def _jsonl_rows(tbl: pa.Table, _start: int) -> str:
    fields = [
        _join(json_dumps(name) + ":", _json_values(name, col))
        for name, col in zip(tbl.column_names, _cols(tbl, *tbl.column_names))
    ]
    return _lines(_join("{", pc.binary_join_element_wise(*fields, ","), "}"))


def write_jsonl_export(ds: rd.Dataset, path: str) -> None:
    _publish(path, [(_blocks(ds), _jsonl_rows)])


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


def _graphml_key_id(owner: str, k: str) -> str:
    """Key id for a property attribute. A property literally named "type"
    would collide with the built-in ``{owner}_type`` declaration (duplicate
    XML ids — the reference load.py:404-459 shares this bug); disambiguate
    that one id, keeping every other id reference-identical."""
    return f"{owner}_{k}_prop" if k == "type" else f"{owner}_{k}"


def _attr_schema(rendered: list, owner: str) -> list[str]:
    """``<key>`` declarations of every property key in first-seen order,
    typed by its first value (pass 1 of GraphML, load.py:404-459): the
    per-block maps of ``_graphml_block``, merged on the driver by min
    (row, key_index) ordinal."""
    merged: dict[str, tuple[str, tuple[int, int]]] = {}
    for seen in ray.get([seen for seen, _ in rendered]):
        for k, (t, o) in seen.items():
            if k not in merged or o < merged[k][1]:
                merged[k] = (t, o)
    return [
        f'  <key id="{_attr(_graphml_key_id(owner, k))}" for="{owner}" '
        f'attr.name="{_attr(k)}" attr.type="{t}"/>\n'
        for k, (t, _) in sorted(merged.items(), key=lambda kv: kv[1][1])
    ]


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


def _graphml_nodes(tbl: pa.Table, _start: int, data: pa.Array) -> str:
    nid, ntype = _cols(tbl, "id", "type")
    return _lines(_join(
        '    <node id="', _xml(nid, attr=True), '">\n      <data key="node_type">',
        _xml(ntype), "</data>", data, "\n    </node>",
    ))


def _graphml_edges(tbl: pa.Table, start: int, data: pa.Array) -> str:
    # final edge ids baked in from the block's global row offset
    s, t, etype = _cols(tbl, "source_id", "target_id", "type")
    return _lines(_join(
        '    <edge id="e', _ids(start, tbl.num_rows), '" source="', _xml(s, attr=True),
        '" target="', _xml(t, attr=True), '">\n      <data key="edge_type">',
        _xml(etype), "</data>", data, "\n    </edge>",
    ))


def _graphml_block(owner: str, tbl: pa.Table, start: int) -> tuple[dict, str]:
    """One block of ``owner`` rows: (its attribute schema, its GraphML
    lines), each ``properties`` value parsed once for both.

    The schema maps key → (gtype, global ordinal); ``start`` is the
    block's global row offset, so first-seen order is GLOBAL scan order
    (reference load.py:404-459 walks rows in one sequence). Ordinals are
    (row, key_index) TUPLES — a row-stride integer would overflow into the
    next row's range for property dicts with 1000+ keys. A row's
    ``<data>`` lines each follow a newline ("" without properties)."""
    props = [json_loads(p) if p else {} for p in tbl.column("properties").to_pylist()]
    seen: dict[str, tuple[str, tuple[int, int]]] = {}
    for row, d in enumerate(props):
        for i, (k, v) in enumerate(d.items()):
            if k not in seen:
                seen[k] = (_graphml_type(v), (start + row, i))
    tag = lru_cache(maxsize=None)(
        lambda k: f'\n      <data key="{_attr(_graphml_key_id(owner, k))}">'
    )
    data = _strings([
        "".join(f"{tag(k)}{_graphml_value(v)}</data>" for k, v in d.items())
        for d in props
    ])
    render = _graphml_nodes if owner == "node" else _graphml_edges
    return seen, render(tbl, start, data)


def write_graphml(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """GraphML export with sequential edge ids (load.py:503). Each input
    executes at most once, and each block is parsed and rendered once, in
    one task that also returns the block's attribute schema: the rendered
    blocks wait in the object store while the driver merges the schemas
    into the ``<key>`` declarations that head the file."""
    rendered = {
        owner: [
            _on_block.options(num_returns=2).remote(partial(_graphml_block, owner), r, s)
            for r, s in zip(b.refs, b.starts)
        ]
        for owner, b in (("node", _blocks(nodes)), ("edge", _blocks(edges)))
    }
    _publish(path, [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns" '
        'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
        'xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns '
        'http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n'
        '  <key id="node_type" for="node" attr.name="type" attr.type="string"/>\n'
        '  <key id="edge_type" for="edge" attr.name="type" attr.type="string"/>\n',
        *_attr_schema(rendered["node"], "node"),
        *_attr_schema(rendered["edge"], "edge"),
        '  <graph edgedefault="directed">\n',
        *[text for _, text in rendered["node"]],
        *[text for _, text in rendered["edge"]],
        "  </graph>\n</graphml>\n",
    ])


# ---------------------------------------------------------------------------
# MeTTa exports (load.py:548-842)
# ---------------------------------------------------------------------------


def _block_types(tbl: pa.Table, _start: int) -> list:
    return pc.unique(tbl.column("type")).to_pylist()


def _type_decls(blocks: _Blocks, kind: str) -> list[str]:
    """One ``(: "t" NodeType)`` line per distinct type, sorted (the
    reference emits SQLite's DISTINCT order, which is storage-dependent);
    a NULL type sorts last and is declared ``"null"``, as repr1 renders it."""
    types = {t for ts in ray.get(_per_block(_block_types, blocks.refs)) for t in ts}
    names = [clean(t) for t in sorted(types - {None})] + ['"null"'] * (None in types)
    return [f"(: {n} {kind})\n" for n in names]


def _repr1_nodes(tbl: pa.Table, _start: int) -> str:
    nid, ntype = _cols(tbl, "id", "type")
    return _lines(_join("(: ", _clean(nid), " ", _clean(ntype), ")"))


def _repr1_edges(tbl: pa.Table, _start: int) -> str:
    s, t, o = _cols(tbl, "source_id", "type", "target_id")
    return _lines(_join("(", _clean(s), " ", _clean(t), " ", _clean(o), ")"))


def write_metta_repr1(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """repr1 "spo" (load.py:548-607): ``; Types`` / ``; Nodes`` / ``; Edges``
    sections, node-type decls, node type atoms, (s p o) triples."""
    n = _blocks(nodes)
    _publish(path, [
        "; Types\n(: NodeType Type)\n",
        *_type_decls(n, "NodeType"),
        "; Nodes\n",
        (n, _repr1_nodes),
        "; Edges\n",
        (_blocks(edges), _repr1_edges),
    ])


def _has_property(subjects: pa.Array, props: pa.Array) -> pa.Array:
    """Per row, its ``("has_property" subject (k v))`` lines, each after a
    newline ("" for a row without properties)."""
    key = lru_cache(maxsize=None)(clean)
    return _strings([
        "".join(f'\n("has_property" {subj} ({key(k)} {clean(v)}))' for k, v in json_loads(p).items())
        if p else ""
        for subj, p in zip(subjects.to_pylist(), props.to_pylist())
    ])


def _repr2_nodes(tbl: pa.Table, _start: int) -> str:
    nid, ntype, props = _cols(tbl, "id", "type", "properties")
    subj = _clean(nid)
    return _lines(_join("(: ", subj, " ", _clean(ntype), ")", _has_property(subj, props)))


def _repr2_edges(tbl: pa.Table, start: int) -> str:
    s, t, o, props = _cols(tbl, "source_id", "type", "target_id", "properties")
    eid = _join('"e', _ids(start, tbl.num_rows), '"')
    pred = _clean(t)
    return _lines(_join(
        "(: ", eid, " ", pred, ")\n(", eid, " (", pred, " ", _clean(s), " ",
        _clean(o), "))", _has_property(eid, props),
    ))


def write_metta_repr2(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """repr2 (load.py:610-716): Types section (NodeType/EdgeType decls +
    per-type atoms), node atoms with ``("has_property" id (k v))`` lines,
    and edges in prefix notation ``("eN" (pred subj obj))`` with a typed
    ``(: "eN" pred)`` decl per edge.

    Deviation from the reference (documented): edge ids are GLOBALLY
    monotone from each block's global row offset; the reference's
    ``enumerate`` restarts per 10k-row fetch batch (load.py:691-694),
    repeating ids — a bug we do not reproduce."""
    n, e = _blocks(nodes), _blocks(edges)
    _publish(path, [
        "; Types\n(: NodeType Type)\n(: EdgeType Type)\n",
        *_type_decls(n, "NodeType"),
        *_type_decls(e, "EdgeType"),
        "; Nodes\n",
        (n, _repr2_nodes),
        "; Edges\n",
        (e, _repr2_edges),
    ])


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


def _path_to_line(path: list, key: Callable = clean) -> str:
    """Reference ``dict_to_metta`` line rendering: strings cleaned, numbers
    verbatim, path elements wrapped innermost-out; ``key`` renders a path
    element (a memoized ``clean`` when keys repeat).

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
            item_str = " ".join(key(x) for x in item)
            s = f"({item_str} {s})"
        else:
            s = f"({key(item)} {s})"
    return s


def _repr3_rows(fields: tuple[str, ...], tbl: pa.Table, start: int) -> str:
    """Each record ``{cnt: {field: value, ..., "properties": {...}}}``
    walked to one line per scalar leaf. The record's own fields are
    string leaves (NULL is the bare atom ``None``), rendered per column;
    only the properties object is walked per row."""
    *cols, props = _cols(tbl, *fields, "properties")
    cnt = _ids(start, tbl.num_rows)
    parts: list = []
    for name, col in zip(fields, cols):
        parts += ["\n(" if parts else "(", cnt, f" ({clean(name)} ", _clean(col, "None"), "))"]
    key = lru_cache(maxsize=None)(clean)
    walked = _strings([
        "".join(
            f"\n({c} {_path_to_line(p, key)})"
            for p in _dict_gen({"properties": json_loads(v)}, [])
        )
        if v else ""
        for c, v in zip(range(start, start + tbl.num_rows), props.to_pylist())
    ])
    return _lines(_join(*parts, walked))


def write_metta_repr3(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """repr3 (load.py:719-842): fully expanded nested-property
    S-expressions — every record becomes ``{cnt: {...record dict...}}``
    walked to one line per scalar leaf, with ONE global monotone counter
    across nodes then edges (the edges' offsets continue the nodes')."""
    n = _blocks(nodes)
    e = _blocks(edges, n.end)
    _publish(path, [
        (n, partial(_repr3_rows, ("id", "type"))),
        (e, partial(_repr3_rows, ("source_id", "target_id", "type"))),
    ])


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


def _sql_rows(table: str, columns: list[str], tbl: pa.Table, _start: int) -> str:
    values = [_quoted(c, "'", "NULL") for c in _cols(tbl, *columns)]
    return _lines(_join(
        f"INSERT INTO {table} VALUES(", pc.binary_join_element_wise(*values, ","), ");"
    ))


def write_sql_dump(nodes: rd.Dataset, edges: rd.Dataset, path: str) -> None:
    """SQLite-compatible dump: the reference's schema (transform.py:10-30)
    + INSERT per row, indexes, COMMIT."""
    _publish(path, [
        _SCHEMA_SQL,
        (_blocks(nodes), partial(_sql_rows, "nodes", ["id", "type", "properties"])),
        (_blocks(edges), partial(_sql_rows, "edges", EDGE_COLUMNS)),
        "CREATE INDEX idx_edges_source ON edges (source_id);\n"
        "CREATE INDEX idx_edges_target ON edges (target_id);\n"
        "COMMIT;\n",
    ])


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
