"""Sink format-validity tests, mirroring the reference's strategy
(tests/test_workflows.py:193-354): CSV/JSONL parse + row counts, GraphML
cross-parser check (xml.etree), MeTTa balanced-paren grammar, SQL dump
replays into sqlite3."""

import csv
import json
import sqlite3
import xml.etree.ElementTree as ET

import pyarrow as pa
import pytest
import ray.data as rd

from kgw_ray.sinks import exports


@pytest.fixture(scope="module")
def tiny_graph():
    nodes = rd.from_arrow(
        pa.table(
            {
                "id": ["a", "b", "c"],
                "type": ["gene", "gene", "disease"],
                "properties": [
                    '{"name":"A","score":1.5,"flags":[1,2]}',
                    '{"name":"B <x> & \'q\'"}',
                    "{}",
                ],
            }
        )
    )
    edges = rd.from_arrow(
        pa.table(
            {
                "source_id": ["a", "b", "a"],
                "target_id": ["c", "c", "b"],
                "type": ["causes", "causes", "interacts"],
                "properties": ['{"w":2}', "{}", '{"w":3,"tags":["x"]}'],
            }
        )
    )
    return nodes, edges


def test_statistics(tiny_graph, tmp_path):
    nodes, edges = tiny_graph
    p = str(tmp_path / "statistics.json")
    stats = exports.write_statistics(nodes, edges, p)
    on_disk = json.load(open(p))
    assert on_disk == stats
    assert stats["num_nodes"] == 3 and stats["num_edges"] == 3
    assert stats["num_node_types"] == 2 and stats["num_edge_types"] == 2
    assert stats["node_types"] == {"gene": 2, "disease": 1}


def test_csv_export(tiny_graph, tmp_path):
    nodes, _ = tiny_graph
    p = str(tmp_path / "kg_nodes.csv")
    exports.write_csv_export(nodes, p)
    rows = list(csv.reader(open(p)))
    assert rows[0] == ["id", "type", "properties"]
    assert len(rows) == 4
    # every properties cell must be JSON-parsable (reference :193-219)
    for r in rows[1:]:
        json.loads(r[2])


def test_jsonl_export(tiny_graph, tmp_path):
    _, edges = tiny_graph
    p = str(tmp_path / "kg_edges.jsonl")
    exports.write_jsonl_export(edges, p)
    lines = [json.loads(line) for line in open(p)]
    assert len(lines) == 3
    assert all(isinstance(d["properties"], dict) for d in lines)
    assert lines[0].keys() == {"source_id", "target_id", "type", "properties"}


def test_graphml(tiny_graph, tmp_path):
    nodes, edges = tiny_graph
    p = str(tmp_path / "kg.graphml")
    exports.write_graphml(nodes, edges, p)
    root = ET.parse(p).getroot()
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    g = root.find(f"{ns}graph")
    xml_nodes = g.findall(f"{ns}node")
    xml_edges = g.findall(f"{ns}edge")
    assert len(xml_nodes) == 3 and len(xml_edges) == 3
    # sequential edge ids e0..e2 (reference load.py:503)
    assert sorted(e.get("id") for e in xml_edges) == ["e0", "e1", "e2"]
    # key declarations cover all property keys
    keys = {k.get("attr.name") for k in root.findall(f"{ns}key")}
    assert {"type", "name", "score", "flags", "w", "tags"} <= keys
    # compound values JSON-stringified
    a = next(n for n in xml_nodes if n.get("id") == "a")
    data = {d.get("key"): d.text for d in a.findall(f"{ns}data")}
    assert json.loads(data["node_flags"]) == [1, 2]


def _assert_balanced_metta(path):
    """Reference grammar property: every line balanced-parenthesized with
    string-literal/escape awareness (test_workflows.py:310-354)."""
    for line in open(path):
        line = line.rstrip("\n")
        if not line:
            continue
        depth = 0
        in_str = False
        esc = False
        for ch in line:
            if esc:
                esc = False
                continue
            if ch == "\\":
                esc = True
            elif ch == '"':
                in_str = not in_str
            elif not in_str and ch == "(":
                depth += 1
            elif not in_str and ch == ")":
                depth -= 1
                assert depth >= 0, line
        assert depth == 0 and not in_str, line


def test_metta_repr1(tiny_graph, tmp_path):
    nodes, edges = tiny_graph
    p = str(tmp_path / "kg_spo.metta")
    exports.write_metta_repr1(nodes, edges, p)
    _assert_balanced_metta(p)
    lines = [line.rstrip("\n") for line in open(p) if line.strip()]
    # reference layout (load.py:548-607): 3 section comments + NodeType decl
    # + 2 type decls + 3 node atoms + 3 triples
    assert len(lines) == 12
    assert lines[0] == "; Types"
    assert lines[1] == "(: NodeType Type)"
    assert "; Nodes" in lines and "; Edges" in lines


def test_metta_repr2(tiny_graph, tmp_path):
    nodes, edges = tiny_graph
    p = str(tmp_path / "kg_repr2.metta")
    exports.write_metta_repr2(nodes, edges, p)
    _assert_balanced_metta(p)
    text = open(p).read()
    # Types section with both decl kinds (load.py:617-646)
    assert "(: NodeType Type)" in text and "(: EdgeType Type)" in text
    assert '(: "causes" EdgeType)' in text
    for eid in ('"e0"', '"e1"', '"e2"'):
        assert eid in text
        assert f"(: {eid} " in text  # typed edge-id decl
    # prefix notation: ("eN" (pred subj obj)) — load.py:700-702
    assert '("e2" ("interacts" "a" "b"))' in text
    assert '("has_property"' in text  # quoted property relation (load.py:611)


def test_metta_repr3_monotone_ids(tiny_graph, tmp_path):
    import re

    nodes, edges = tiny_graph
    p = str(tmp_path / "kg_repr3.metta")
    exports.write_metta_repr3(nodes, edges, p)
    _assert_balanced_metta(p)
    ids = []
    for line in open(p):
        m = re.match(r"\((\d+) ", line)
        if m and (not ids or int(m.group(1)) != ids[-1]):
            ids.append(int(m.group(1)))
    assert ids == sorted(ids) and len(set(ids)) == 6  # 3 nodes + 3 edges
    text = open(p).read()
    # reference record expansion (load.py:795-811): (cnt ("id" val)) etc. —
    # keys are clean()ed, i.e. JSON-quoted, exactly like the reference
    assert '(0 ("id" "a"))' in text and '(0 ("type" "gene"))' in text
    # nested list property fully expanded: flags [1,2] → the index tuple and
    # leaf share one paren group, as in the reference: ("flags" i v)
    assert '(0 ("properties" ("flags" 0 1)))' in text
    assert '(0 ("properties" ("flags" 1 2)))' in text


def test_metta_repr3_deep_nesting_walker():
    """The repr3 walker collapses nested list indices into one tuple path
    (reference dict_generator, load.py:720-773) and refuses >5 levels."""
    import pytest

    lines = [
        exports._path_to_line(p)
        for p in exports._dict_gen({7: {"properties": {"m": [[1, 2], [3]]}}}, [])
    ]
    assert lines == [
        '(7 ("properties" ("m" 0 0 1)))',
        '(7 ("properties" ("m" 0 1 2)))',
        '(7 ("properties" ("m" 1 0 3)))',
    ]
    too_deep = {0: {"p": {"k": [[[[[[1]]]]]]}}}
    with pytest.raises(NotImplementedError):
        list(exports._dict_gen(too_deep, []))


def test_graphml_quote_in_id(tmp_path):
    """Attribute-position values escape double quotes (quoteattr semantics) —
    an id like a"b must still yield well-formed XML."""
    nodes = rd.from_arrow(
        pa.table(
            {"id": ['a"b', "c"], "type": ["t", "t"], "properties": ["{}", "{}"]}
        )
    )
    edges = rd.from_arrow(
        pa.table(
            {
                "source_id": ['a"b'],
                "target_id": ["c"],
                "type": ["r"],
                "properties": ["{}"],
            }
        )
    )
    p = str(tmp_path / "q.graphml")
    exports.write_graphml(nodes, edges, p)
    root = ET.parse(p).getroot()  # parse fails on malformed attributes
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    g = root.find(f"{ns}graph")
    assert {n.get("id") for n in g.findall(f"{ns}node")} == {'a"b', "c"}
    e = g.find(f"{ns}edge")
    assert e.get("source") == 'a"b' and e.get("target") == "c"


def test_schema_html(tiny_graph, tmp_path):
    """schema.html is a well-formed, self-contained document whose SVG
    contains every type-level node and arrow from the (oracle-verified)
    schema_graph aggregate."""
    from kgw_ray.sinks.schema_html import write_schema_html
    from kgw_ray.stages.graph import schema_graph

    nodes, edges = tiny_graph
    p = str(tmp_path / "schema.html")
    write_schema_html(nodes, edges, p)
    text = open(p).read()
    assert "<script" not in text and "http-equiv" not in text  # self-contained
    root = ET.parse(p).getroot()  # XHTML → must parse as XML
    svg = root.find(".//{http://www.w3.org/2000/svg}svg")
    got_nodes = {
        g.get("data-type")
        for g in svg.findall(".//{http://www.w3.org/2000/svg}g[@class='node']")
    }
    got_edges = {
        g.get("data-edge")
        for g in svg.findall(".//{http://www.w3.org/2000/svg}g[@class='edge']")
    }
    expect = schema_graph(nodes, edges).to_pandas()
    assert got_nodes == {"gene", "disease"}
    assert got_edges == {
        f"{r.source_type}|{r.edge_type}|{r.target_type}" for r in expect.itertuples()
    }
    # hover strings carry the reference's text (load.py:141-148)
    assert "Node type: gene" in text and "Number of instances: 2" in text


def test_schema_html_compact(tiny_graph, tmp_path):
    from kgw_ray.sinks.schema_html import write_schema_html

    nodes, edges = tiny_graph
    p = str(tmp_path / "schema_compact.html")
    write_schema_html(nodes, edges, p, compact=True)
    root = ET.parse(p).getroot()
    svg = root.find(".//{http://www.w3.org/2000/svg}svg")
    got_edges = {
        g.get("data-edge")
        for g in svg.findall(".//{http://www.w3.org/2000/svg}g[@class='edge']")
    }
    # tiny graph: gene->disease (causes x2) and gene->gene (interacts)
    assert got_edges == {"gene|*|disease", "gene|*|gene"}
    assert "Number of edge types: 1" in open(p).read()


def test_sql_dump_replays(tiny_graph, tmp_path):
    nodes, edges = tiny_graph
    p = str(tmp_path / "kg.sql")
    exports.write_sql_dump(nodes, edges, p)
    con = sqlite3.connect(":memory:")
    con.executescript(open(p).read())
    assert con.execute("SELECT COUNT(*) FROM nodes").fetchone()[0] == 3
    assert con.execute("SELECT COUNT(*) FROM edges").fetchone()[0] == 3
    props = con.execute("SELECT properties FROM nodes WHERE id='b'").fetchone()[0]
    assert json.loads(props)["name"] == "B <x> & 'q'"


def test_hub_roundtrip(tiny_graph, tmp_path):
    nodes, edges = tiny_graph
    out = str(tmp_path / "hub")
    exports.write_hub(nodes, edges, out)
    n2 = rd.read_parquet(f"{out}/nodes")
    assert n2.count() == 3
    assert set(n2.schema().names) == {"id", "type", "properties"}


@pytest.fixture(scope="module")
def multi_block_graph():
    """Edges over three blocks, every source in every block, so each
    non-empty bucket of a hub holds several files."""
    n_src, per_block = 10, 30
    blocks = []
    for blk in range(3):
        src = [f"s{(i * 7 + blk) % n_src}" for i in range(per_block)]
        blocks.append(
            pa.table(
                {
                    "source_id": src,
                    "target_id": [f"t{blk}_{i}" for i in range(per_block)],
                    "type": ["rel" if i % 3 else "other" for i in range(per_block)],
                    "properties": [
                        None if i % 5 == 0 else f'{{"i":{i}}}' for i in range(per_block)
                    ],
                }
            )
        )
    nodes = rd.from_arrow(
        pa.table(
            {
                "id": [f"s{i}" for i in range(n_src)],
                "type": ["n"] * n_src,
                "properties": ["{}"] * n_src,
            }
        )
    )
    edges = rd.from_arrow(blocks)
    assert edges.num_blocks() >= 3
    return nodes, edges


def _hub_lookup(out: str, node_id: str) -> pa.Table:
    """Reference answer: a pyarrow filter over the whole hive-partitioned
    edge table."""
    import pyarrow.dataset as pads

    return pads.dataset(f"{out}/edges", partitioning="hive").to_table(
        columns=exports.EDGE_COLUMNS, filter=pads.field("source_id") == node_id
    )


def _same_rows(got: pa.Table, want: pa.Table) -> None:
    assert got.schema.names == exports.EDGE_COLUMNS
    assert got.schema.equals(want.schema)
    order = [("target_id", "ascending"), ("type", "ascending")]
    assert got.sort_by(order).to_pylist() == want.sort_by(order).to_pylist()


def _bucket_dirs(path: str) -> set[str]:
    import os

    return {d for d in os.listdir(path) if d.startswith("bucket=")}


def test_bucketed_hub_and_adjacency(tiny_graph, multi_block_graph, tmp_path, executions):
    """Bucketed hub layout: adjacency lookup reads only the node's hash
    bucket on the driver (no Ray Data execution) and returns exactly its
    out-edges; every bucket file is sorted by key."""
    import os

    import pyarrow.parquet as pq

    nodes, edges = tiny_graph
    out = str(tmp_path / "hub_bucketed")
    exports.write_hub(nodes, edges, out, num_buckets=4)
    executions.clear()
    adj = exports.read_adjacency(out, "a", num_buckets=4).to_pandas()
    assert sorted(adj["target_id"]) == ["b", "c"]
    assert set(adj["source_id"]) == {"a"}
    assert executions == []
    # bucket dirs exist on disk (path-level pruning is real)
    assert _bucket_dirs(f"{out}/edges")

    nodes, edges = multi_block_graph
    out = str(tmp_path / "hub_multi")
    exports.write_hub(nodes, edges, out, num_buckets=4)
    present = _bucket_dirs(f"{out}/edges")
    assert max(len(os.listdir(f"{out}/edges/{d}")) for d in present) >= 3
    for table, key in (("edges", "source_id"), ("nodes", "id")):
        for d in _bucket_dirs(f"{out}/{table}"):
            for f in os.listdir(f"{out}/{table}/{d}"):
                keys = pq.read_table(f"{out}/{table}/{d}/{f}")[key].to_pylist()
                assert keys == sorted(keys), f"{table}/{d}/{f} not sorted by {key}"

    miss = next(
        f"missing{i}" for i in range(1000)
        if f"bucket={exports._bucket_of(pa.array([f'missing{i}']), 4)[0]}" in present
    )
    executions.clear()
    hit = exports.read_adjacency(out, "s3", num_buckets=4)
    missed = exports.read_adjacency(out, miss, num_buckets=4)
    assert executions == []
    assert isinstance(hit.table, pa.Table) and not isinstance(hit, rd.Dataset)
    assert hit.count() == 9 and hit.take_all() == hit.table.to_pylist()
    _same_rows(hit.table, _hub_lookup(out, "s3"))
    assert missed.count() == 0 and missed.take_all() == []
    _same_rows(missed.table, _hub_lookup(out, miss))

    # a flat hub has no buckets: fail loudly instead of answering empty
    with pytest.raises(ValueError, match="num_buckets"):
        exports.read_adjacency(out, "s3", num_buckets=0)


def test_counted_two_pass_ids_across_many_blocks(tmp_path):
    """Sequential ids must be continuous and in dataset order when the
    edge table spans MANY blocks (the global row offsets are per
    block — this is the case the single-block tiny_graph can't catch)."""
    n = 1000
    nodes = rd.from_arrow(
        pa.table(
            {
                "id": [f"n{i}" for i in range(10)],
                "type": ["t"] * 10,
                "properties": ["{}"] * 10,
            }
        )
    )
    edges = rd.from_arrow(
        pa.table(
            {
                "source_id": [f"n{i % 10}" for i in range(n)],
                "target_id": [f"n{(i + 1) % 10}" for i in range(n)],
                "type": [f"r{i}" for i in range(n)],  # per-row marker
                "properties": ["{}"] * n,
            }
        )
    ).repartition(16)
    p = str(tmp_path / "many.graphml")
    exports.write_graphml(nodes, edges, p)
    root = ET.parse(p).getroot()
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    xml_edges = root.find(f"{ns}graph").findall(f"{ns}edge")
    assert len(xml_edges) == n
    ids = [e.get("id") for e in xml_edges]
    assert ids == [f"e{i}" for i in range(n)]  # continuous, file order
    # and each id is attached to the row the dataset order dictates
    types = [e.find(f"{ns}data").text for e in xml_edges]
    assert types == [f"r{i}" for i in range(n)]

    p3 = str(tmp_path / "many_repr3.metta")
    exports.write_metta_repr3(nodes, edges, p3)
    import re

    recs = []
    for line in open(p3):
        m = re.match(r"\((\d+) ", line)
        if m and (not recs or int(m.group(1)) != recs[-1]):
            recs.append(int(m.group(1)))
    assert recs == list(range(10 + n))  # nodes 0..9 then edges continue

    p2 = str(tmp_path / "many_repr2.metta")
    exports.write_metta_repr2(nodes, edges, p2)
    decls = re.findall(r'^\(: "e(\d+)" "r(\d+)"\)$', open(p2).read(), re.M)
    assert decls == [(str(i), str(i)) for i in range(n)]  # typed decl per edge, in order


def test_ordered_sets_plan_context_flag():
    """The preserve-order knob must land on the DATASET'S plan context —
    Ray snapshots the DataContext at root creation, so the global flag is
    a no-op for already-built datasets (guards the private-API mechanism
    _ordered relies on against Ray upgrades) — and must be RESTORED on
    exit: the snapshot is shared by every dataset in the lineage, so a
    permanent flip would serialize later non-export executions."""
    ds = rd.from_arrow(pa.table({"x": [1, 2]})).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    assert ds._plan._context.execution_options.preserve_order is False
    with exports._ordered(ds):
        assert ds._plan._context.execution_options.preserve_order is True
    assert ds._plan._context.execution_options.preserve_order is False


def test_graphml_property_named_type(tmp_path):
    """A property literally named 'type' must not collide with the built-in
    node_type/edge_type key ids (duplicate XML ids — a reference bug we
    fix); the property value must stay distinguishable."""
    nodes = rd.from_arrow(
        pa.table(
            {
                "id": ["a"],
                "type": ["gene"],
                "properties": ['{"type":"custom","x":1}'],
            }
        )
    )
    edges = rd.from_arrow(
        pa.table(
            {
                "source_id": ["a"],
                "target_id": ["a"],
                "type": ["self"],
                "properties": ['{"type":"edgeprop"}'],
            }
        )
    )
    p = str(tmp_path / "typeprop.graphml")
    exports.write_graphml(nodes, edges, p)
    root = ET.parse(p).getroot()
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    key_ids = [k.get("id") for k in root.findall(f"{ns}key")]
    assert len(key_ids) == len(set(key_ids))  # no duplicate ids
    node = root.find(f"{ns}graph").find(f"{ns}node")
    data = {d.get("key"): d.text for d in node.findall(f"{ns}data")}
    assert data["node_type"] == "gene"
    assert data["node_type_prop"] == "custom"


def test_sinks_on_empty_graph(tmp_path):
    """Empty nodes/edges must export cleanly (unique() returns None and
    empty pulls drop schemas — both previously crashed)."""
    empty_nodes = rd.from_arrow(
        pa.table({"id": pa.array([], pa.string()), "type": pa.array([], pa.string()),
                  "properties": pa.array([], pa.string())})
    ).filter(expr="id == 'nope'")
    empty_edges = rd.from_arrow(
        pa.table({"source_id": pa.array([], pa.string()),
                  "target_id": pa.array([], pa.string()),
                  "type": pa.array([], pa.string()),
                  "properties": pa.array([], pa.string())})
    )
    exports.write_metta_repr1(empty_nodes, empty_edges, str(tmp_path / "e1.metta"))
    exports.write_metta_repr2(empty_nodes, empty_edges, str(tmp_path / "e2.metta"))
    exports.write_metta_repr3(empty_nodes, empty_edges, str(tmp_path / "e3.metta"))
    exports.write_graphml(empty_nodes, empty_edges, str(tmp_path / "e.graphml"))
    exports.write_csv_export(empty_nodes, str(tmp_path / "e.csv"))
    exports.write_jsonl_export(empty_edges, str(tmp_path / "e.jsonl"))
    exports.write_sql_dump(empty_nodes, empty_edges, str(tmp_path / "e.sql"))
    stats = exports.write_statistics(empty_nodes, empty_edges, str(tmp_path / "e.json"))
    assert stats["num_nodes"] == 0 and stats["node_types"] == {}
    from kgw_ray.sinks.schema_html import write_schema_html

    write_schema_html(empty_nodes, empty_edges, str(tmp_path / "e.html"))
    assert "; Types" in open(tmp_path / "e1.metta").read()
    ET.parse(tmp_path / "e.graphml")  # well-formed empty graph
    # a hub with no edge file still answers lookups with the IR's typed empty
    exports.write_hub(empty_nodes, empty_edges, str(tmp_path / "hub"), num_buckets=4)
    adj = exports.read_adjacency(str(tmp_path / "hub"), "x", num_buckets=4)
    assert adj.count() == 0
    assert adj.table.schema == pa.schema([(c, pa.string()) for c in exports.EDGE_COLUMNS])


def test_read_adjacency_empty_bucket(multi_block_graph, tmp_path, executions):
    """A node hashing to a bucket no edge landed in must yield a typed
    empty adjacency, not FileNotFoundError, with no Ray Data execution."""
    nodes, edges = multi_block_graph
    out = str(tmp_path / "hub_sparse")
    exports.write_hub(nodes, edges, out, num_buckets=64)
    # find an id whose bucket dir does not exist (probe via the SAME
    # helper the sink uses, so a salt change can't silently detune this)
    existing = _bucket_dirs(f"{out}/edges")
    probe = None
    for i in range(1000):
        cand = f"missing{i}"
        b = int(exports._bucket_of(pa.array([cand]), 64)[0])
        if f"bucket={b}" not in existing:
            probe = cand
            break
    assert probe is not None
    executions.clear()
    adj = exports.read_adjacency(out, probe, num_buckets=64)
    assert executions == []
    assert adj.count() == 0 and adj.take_all() == [] and adj.to_pandas().empty
    _same_rows(adj.table, _hub_lookup(out, probe))


# --- byte parity: every export file pinned by its SHA-256 ------------------
# Values carry every character class the renderers escape differently
# (", \, control characters, tab, newline, non-ASCII, & < > and '), NULL
# ids, targets and properties, nested list/dict properties, a property
# named "type", -0.5 and a 20-digit integer, spread over several blocks.
# ``type`` is never NULL and ``properties`` never "" (the MeTTa type decls
# sort the types, and JSONL parses every properties value).

_NODE_ROWS = [
    [
        ('a"q', "gene", '{"name":"A \\"quoted\\" \\\\ back","score":-0.5,"big":12345678901234567890}'),
        ("b\\slash", "gene", '{"type":"custom","nested":{"k":[1,[2,3]],"d":{"x":null}},"list":[{"a":1},"s"]}'),
        (None, "disease", None),
    ],
    [
        ("c\x01ctl", "dis\tease", '{"txt":"tab\\there\\nnl","uni":"é—ü 日本","xml":"& < > \' \\""}'),
        ("d é & <x>", "it's", "{}"),
        ("e'q", "gene", '{ "flag" : true, "off":false,"n":null,"f":1.5e-7,"k\\"ey":1,"a<b":"x"}'),
    ],
    [("f", "gene\nline", '{"empty":[],"ed":{},"score":"high"}')],
]
_EDGE_ROWS = [
    [
        ('a"q', "b\\slash", 'rel"q', '{"w":2,"type":"edgeprop"}'),
        ('a"q', None, "dangling", None),
    ],
    [
        (None, "f", "r\x01", '{"nested":{"deep":[[1,2],[3]]}}'),
        ("c\x01ctl", "d é & <x>", "it's & <ok>", '{"s":"a\\\\b","u":"\\u00e9\\u2028","w":"two"}'),
    ],
    [
        ("f", "f", "self", "{}"),
        ("e'q", 'a"q', 'rel"q', '{"v":-0.5,"big":12345678901234567890,"l":["x\\ty",null]}'),
    ],
    [("b\\slash", "c\x01ctl", "gene", '{"deep":{"a":{"b":[{"c":[1]}]}}}')],
]
_PLAIN_SCHEMA = pa.schema(
    [("n", pa.int64()), ("x", pa.float64()), ("ok", pa.bool_()),
     ("s", pa.string()), ("z", pa.null())]
)
_PLAIN_ROWS = [
    [(1, 0.5, True, 'q"t', None), (None, -0.5, None, None, None)],
    [(-3, 1e16, False, "tab\there\nnl", None), (2**62, None, True, "é & <'>", None)],
    [(0, float("nan"), None, "\\", None), (12, 1e-05, False, "", None)],
]


def _blocks(rows, schema) -> list[pa.Table]:
    return [
        pa.Table.from_pylist([dict(zip(schema.names, r)) for r in block], schema)
        for block in rows
    ]


def _parity_inputs(mode: str):
    """(nodes, edges, plain) as ``materialized``, ``lazy`` (an identity map
    over the blocks) or ``empty`` Datasets."""
    node_schema = pa.schema([(c, pa.string()) for c in ("id", "type", "properties")])
    edge_schema = pa.schema([(c, pa.string()) for c in exports.EDGE_COLUMNS])
    out = []
    for rows, schema in (
        (_NODE_ROWS, node_schema), (_EDGE_ROWS, edge_schema), (_PLAIN_ROWS, _PLAIN_SCHEMA)
    ):
        ds = rd.from_arrow(_blocks(rows, schema))
        if mode == "materialized":
            ds = ds.materialize()
        elif mode == "lazy":
            ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        else:
            ds = ds.filter(lambda row: False)
        out.append(ds)
    return out


def _write_every_export(nodes, edges, plain, out) -> None:
    exports.write_csv_export(nodes, f"{out}/kg_nodes.csv")
    exports.write_csv_export(edges, f"{out}/kg_edges.csv")
    exports.write_jsonl_export(nodes, f"{out}/kg_nodes.jsonl")
    exports.write_jsonl_export(edges, f"{out}/kg_edges.jsonl")
    exports.write_graphml(nodes, edges, f"{out}/kg.graphml")
    exports.write_metta_repr1(nodes, edges, f"{out}/kg_repr1.metta")
    exports.write_metta_repr2(nodes, edges, f"{out}/kg_repr2.metta")
    exports.write_metta_repr3(nodes, edges, f"{out}/kg_repr3.metta")
    exports.write_sql_dump(nodes, edges, f"{out}/kg.sql")
    exports.write_csv_export(plain, f"{out}/plain.csv")
    exports.write_jsonl_export(plain, f"{out}/plain.jsonl")


def _digests(out) -> dict:
    import hashlib
    import os

    return {
        f: hashlib.sha256(open(os.path.join(out, f), "rb").read()).hexdigest()
        for f in sorted(os.listdir(out))
    }


_PARITY_DIGESTS = {
    "materialized": {
        "kg.graphml": "c8308026ee9b6d8740ae3578b1cb4c16f1d9a8f07d2d3b110ca3534f0c884608",
        "kg.sql": "92602cf53550ab4ec7521cb454c72cce86515e22f4ffaa1c26ea7aebf6e6f910",
        "kg_edges.csv": "0012b31b42d078f8b3898eb105e6c74520ad83175806a99c215f594074618f56",
        "kg_edges.jsonl": "151634e5600368b4bdf6516f9df0d548200a38a4d8b131afbe11ad4fe5455463",
        "kg_nodes.csv": "85a3c673f72208427af8ae0e6f3f50735c516f283d753443016e60ef1ad50b41",
        "kg_nodes.jsonl": "72d4cab54de42de54e2ecb272b64b9d46b4dfc652dfbb334a41128d9a988ec0e",
        "kg_repr1.metta": "153d042be1003ff914114026c1556584aaf830d3e0fe13aa95dd9b49eba4bba5",
        "kg_repr2.metta": "9a521338d57b5f1837ad690fa139854c6bbf5d87e3f95ad3cc61a84a33088838",
        "kg_repr3.metta": "c44d87a4a954abf6bb047a95cd413b7c89e18ba088e74b7358076478714d6dae",
        "plain.csv": "55266adaa13d42eafd79f2216100844490a67c3aa9ad16ff5cf55ac53d32cb3a",
        "plain.jsonl": "9788681ad69c47ae174b4629a6987af588c6d823c5e8b2021f3b8d394dde798a",
    },
    "lazy": {
        "kg.graphml": "c8308026ee9b6d8740ae3578b1cb4c16f1d9a8f07d2d3b110ca3534f0c884608",
        "kg.sql": "92602cf53550ab4ec7521cb454c72cce86515e22f4ffaa1c26ea7aebf6e6f910",
        "kg_edges.csv": "0012b31b42d078f8b3898eb105e6c74520ad83175806a99c215f594074618f56",
        "kg_edges.jsonl": "151634e5600368b4bdf6516f9df0d548200a38a4d8b131afbe11ad4fe5455463",
        "kg_nodes.csv": "85a3c673f72208427af8ae0e6f3f50735c516f283d753443016e60ef1ad50b41",
        "kg_nodes.jsonl": "72d4cab54de42de54e2ecb272b64b9d46b4dfc652dfbb334a41128d9a988ec0e",
        "kg_repr1.metta": "153d042be1003ff914114026c1556584aaf830d3e0fe13aa95dd9b49eba4bba5",
        "kg_repr2.metta": "9a521338d57b5f1837ad690fa139854c6bbf5d87e3f95ad3cc61a84a33088838",
        "kg_repr3.metta": "c44d87a4a954abf6bb047a95cd413b7c89e18ba088e74b7358076478714d6dae",
        "plain.csv": "55266adaa13d42eafd79f2216100844490a67c3aa9ad16ff5cf55ac53d32cb3a",
        "plain.jsonl": "9788681ad69c47ae174b4629a6987af588c6d823c5e8b2021f3b8d394dde798a",
    },
    "empty": {
        "kg.graphml": "884a366b62a80e20dcf8f59a77ef012a494af5190599b0b791877a76c96c5cc3",
        "kg.sql": "ee937350d618fc3f320afd2d5a6dac03fe30d6adde47bc78340688c6b6372480",
        "kg_edges.csv": "7eb70257593da06f682a3ddda54a9d260d4fc514f645237f5ca74b08f8da61a6",
        "kg_edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "kg_nodes.csv": "7eb70257593da06f682a3ddda54a9d260d4fc514f645237f5ca74b08f8da61a6",
        "kg_nodes.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "kg_repr1.metta": "dba9878f6a076365a4c14e87af952b5c9435238ab318364657c38eed989af6cc",
        "kg_repr2.metta": "004346ef43e2c0349af83daa09cdd74746b47946382a97bfe91c281ca1991370",
        "kg_repr3.metta": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "plain.csv": "7eb70257593da06f682a3ddda54a9d260d4fc514f645237f5ca74b08f8da61a6",
        "plain.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


@pytest.mark.parametrize("mode", ["materialized", "lazy", "empty"])
def test_exports_byte_parity(mode, tmp_path):
    """Every export file is byte-identical to the row-at-a-time renderers'
    output (digests pinned from them), whatever the input's execution
    state."""
    _write_every_export(*_parity_inputs(mode), tmp_path)
    assert _digests(tmp_path) == _PARITY_DIGESTS[mode]


_WRITERS = {
    "csv": lambda n, e, out: (
        exports.write_csv_export(n, f"{out}/kg_nodes.csv"),
        exports.write_csv_export(e, f"{out}/kg_edges.csv"),
    ),
    "jsonl": lambda n, e, out: (
        exports.write_jsonl_export(n, f"{out}/kg_nodes.jsonl"),
        exports.write_jsonl_export(e, f"{out}/kg_edges.jsonl"),
    ),
    "graphml": lambda n, e, out: exports.write_graphml(n, e, f"{out}/kg.graphml"),
    "metta1": lambda n, e, out: exports.write_metta_repr1(n, e, f"{out}/kg_repr1.metta"),
    "metta2": lambda n, e, out: exports.write_metta_repr2(n, e, f"{out}/kg_repr2.metta"),
    "metta3": lambda n, e, out: exports.write_metta_repr3(n, e, f"{out}/kg_repr3.metta"),
    "sql": lambda n, e, out: exports.write_sql_dump(n, e, f"{out}/kg.sql"),
}


@pytest.mark.parametrize("mode", ["materialized", "lazy"])
def test_export_execution_budget(mode, tmp_path, executions):
    """Block refs, row offsets, schema and distinct types all come from the
    blocks themselves: on materialized tables no writer starts a Ray Data
    execution, and a lazy table is executed at most once per writer."""
    nodes, edges, _ = _parity_inputs(mode)
    budget = 0 if mode == "materialized" else 2  # one per table
    for name, write in _WRITERS.items():
        executions.clear()
        write(nodes, edges, tmp_path)
        assert len(executions) <= budget, (name, executions)


def test_failed_render_leaves_no_partial(tmp_path):
    """A render that raises (orjson cannot parse a truncated properties
    object) propagates, and leaves neither the target nor its temp file."""
    edges = rd.from_arrow(
        pa.table({c: ["x", "y"] for c in exports.EDGE_COLUMNS[:3]} | {"properties": ["{}", "{"]})
    )
    path = tmp_path / "kg_edges.jsonl"
    with pytest.raises(ValueError):
        exports.write_jsonl_export(edges, str(path))
    assert list(tmp_path.iterdir()) == []  # neither the target nor its .partial


def test_type_decls_null_type_last(tmp_path):
    """A NULL type is declared last, as ``"null"`` (how repr1 renders it),
    instead of failing the sort."""
    nodes = rd.from_arrow(
        pa.table({"id": ["x", "y", "z"], "type": pa.array(["b", None, "a"], pa.string()),
                  "properties": ["{}"] * 3})
    ).repartition(3)
    edges = rd.from_arrow(
        pa.table({c: pa.array([], pa.string()) for c in exports.EDGE_COLUMNS})
    )
    path = tmp_path / "kg.metta"
    exports.write_metta_repr1(nodes, edges, str(path))
    decls = [l for l in path.read_text().splitlines() if l.endswith(" NodeType)")]
    assert decls == ['(: "a" NodeType)', '(: "b" NodeType)', '(: "null" NodeType)']
    assert '(: "y" "null")' in path.read_text().splitlines()


def test_jsonl_empty_properties_is_null(tmp_path):
    """An empty properties string means "no properties", like NULL."""
    edges = rd.from_arrow(
        pa.table({c: ["x", "y", "z"] for c in exports.EDGE_COLUMNS[:3]}
                 | {"properties": pa.array(['{"w":1}', "", None], pa.string())})
    )
    path = tmp_path / "kg_edges.jsonl"
    exports.write_jsonl_export(edges, str(path))
    props = [json.loads(l)["properties"] for l in path.read_text().splitlines()]
    assert props == [{"w": 1}, None, None]
