"""Flagship pipeline: web pages → knowledge graph (the graft's north star).

Re-expresses the reference's four workflow stages (fetch → extract/transform
→ build → serve; kgw/__init__.py:1-9, SURVEY.md §3) as one streaming Ray
Data DAG over Common-Crawl-style Parquet pages:

    pages(url, warc_ts, html, text, lang)
      → HtmlExtract (actor pool, byte-identical text per url)
      → extract_triples_batch (stateless vectorized map)
      → link_triples_batch (broadcast-dictionary entity link)
      → partial pre-aggregation per batch (combiner)
      → groupby (subj_id, pred, obj_id) merge  [the ONE shuffle]
      → edges + nodes Parquet hub (partitioned, manifested)

Scale notes: the per-batch combiner collapses each batch to ≤ |distinct
triples in batch| rows before the shuffle, so the all-to-all exchange moves
partial aggregates, not raw mentions. Node/edge id spaces are strings; the
hub layout hash-partitions edges by source_id (the reference's
idx_edges_source analog, kgw/_shared/transform.py:27-28).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import ray.data as rd

from kgw_ray.functions.arrow_utils import arrow_from_pandas
from kgw_ray.functions.scalars import json_dumps, json_loads
from kgw_ray.sources.pages import pages_dataset, url_for, warc_ts_for
from kgw_ray.stages.agg import as_dataset, fold, grouped_aggregate_hybrid
from kgw_ray.stages.extract import HtmlExtract
from kgw_ray.stages.linking import link_triples_batch
from kgw_ray.stages.triples import ENTITY_TYPE, extract_triples_batch


def extracted_pages(
    sf_dir: str, *, concurrency: int | None = None, repeat: int = 1
) -> rd.Dataset:
    """pages → +extracted_text (actor pool; regexes compiled once per actor).

    ``concurrency`` is the pool MAX (default: scaled to the cluster); the
    pool autoscales from 1 so it never reserves every CPU and starves the
    upstream read (a fixed-size pool equal to num_cpus deadlocks the
    streaming executor). ``repeat`` deterministically replicates the corpus
    (distinct doc_ids per replica) — the bench knob that scales work without
    external data.
    """
    pages = pages_dataset(sf_dir, repeat=repeat)
    if concurrency:
        # explicit actor-pool mode (the heavy-state configuration)
        return pages.map_batches(
            HtmlExtract,
            batch_format="pyarrow",
            batch_size=256,
            concurrency=(max(1, concurrency // 3), concurrency),
        )
    # default: task map with per-process singleton state — scales elastically
    # (see stages/extract.py:extract_batch for the actor-vs-task rule)
    from kgw_ray.stages.extract import extract_batch

    return pages.map_batches(extract_batch, batch_format="pyarrow")


def triples_from_pages(pages: rd.Dataset) -> rd.Dataset:
    """pages(doc_id, html, ...) → linked triple mentions — the SAME fused
    extract → triples → link chain as ``triples_dataset``, but over an
    EXISTING pages Dataset (e.g. a stored Parquet pages table of the
    input_hint shape (url, warc_ts, html, text, lang); prune the read to
    (doc_id, html) — the chain needs nothing else). The bench flagship
    reads rendered pages from Parquet through this path so the timed
    region measures the ENGINE, not the page generator."""
    from kgw_ray.stages.extract import extract_batch

    ds = pages.map_batches(extract_batch, batch_format="pyarrow")
    ds = ds.map_batches(extract_triples_batch, batch_format="pyarrow")
    return ds.map_batches(link_triples_batch, batch_format="pyarrow")


def triples_dataset(
    sf_dir: str, *, concurrency: int | None = None, repeat: int = 1
) -> rd.Dataset:
    """pages → linked triple mentions (doc_id, subj, pred, obj, pos, subj_id, obj_id).

    No explicit projection between extract and triples: the map stages FUSE
    into one task chain (verified in ds.stats()), so intermediate columns
    never cross the object store — an added select_columns would break
    fusion and cost an extra operator round (measured +0.4s at sf0.1×64).
    The extractor itself drops raw html (stages/extract.py), which is what
    matters on the non-fused actor-pool path."""
    ds = extracted_pages(sf_dir, concurrency=concurrency, repeat=repeat)
    ds = ds.map_batches(extract_triples_batch, batch_format="pyarrow")
    return ds.map_batches(link_triples_batch, batch_format="pyarrow")


def _edge_partials(batch: pa.Table, carry_prov: bool = False) -> pa.Table:
    """Combiner: collapse a mention batch to per-triple partial aggregates.

    ``carry_prov=True`` (pass via ``fn_kwargs``) additionally carries the
    FIRST page url as a packed arg-min key ``lpad(doc_id, 20) || '|' ||
    url`` — the lexicographic Min over the pack IS the numeric min over
    doc_id (ids are zero-padded; every mention of a doc shares its url),
    so a native decomposable Min aggregate moves the url through the
    shuffle with no corpus-sized side map anywhere. One combiner for both
    edge builds so the grouping/count semantics can never diverge."""
    import pyarrow.compute as pc

    keys = ["subj_id", "pred", "obj_id"]
    t = batch.select(keys + ["doc_id"] + (["url"] if carry_prov else []))
    # Arrow-native group_by (single-threaded: the worker owns ONE CPU slot;
    # Arrow's default thread pool would oversubscribe) — no pandas
    # conversion, no Python objects: measured ~2× over the pandas combiner
    # and far less heap churn under 32 concurrent workers
    if carry_prov:
        prov = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(t.column("doc_id"), pa.string()), 20, "0"),
            t.column("url"),
            "|",
        )
        g = (
            t.append_column("prov", prov)
            .group_by(keys, use_threads=False)
            .aggregate([("doc_id", "count"), ("prov", "min")])
        )
        return g.select(keys + ["doc_id_count", "prov_min"]).rename_columns(
            keys + ["n_obs", "prov"]
        )
    g = t.group_by(keys, use_threads=False).aggregate(
        [("doc_id", "count"), ("doc_id", "min")]
    )
    return g.select(keys + ["doc_id_count", "doc_id_min"]).rename_columns(
        keys + ["n_obs", "first_doc"]
    )


def _edge_props_json(n_obs_list, first_docs) -> list:
    """THE canonical edge-properties JSON layout — one definition shared by
    every edge render path so the byte format cannot fork."""
    return [
        json_dumps({"n_obs": int(n), "first_doc": int(d)})
        for n, d in zip(n_obs_list, first_docs)
    ]


def _coalesce_partials(partials: rd.Dataset) -> rd.Dataset:
    """Coalesce many small partial blocks before a sort-based groupby: the
    aggregate builds one reduce partition per input block, so hundreds of
    tiny partial blocks turn the reduce into a task storm. Measured at
    sf0.1×64 / 32 CPUs: 5.6s → 3.3s with repartition(num_cpus) first.

    The partials are MATERIALIZED first: a sort-based AllToAll consuming a
    lazy map chain throttles the upstream map's task concurrency (measured
    here at sf0.1×64: 14.5s lazy vs 4.3s materialized on 8 CPUs, 3.1s vs
    2.3s on 32 — the gap grows as CPUs shrink, which silently inflated the
    8→32 scaling ratio; the reason stages/agg.py:fold materializes its
    partials). Scale note: what lands in the object store is the per-block
    COMBINED representation (≤ |distinct keys| rows per block, ~28 bytes/doc
    here), not the corpus — the map stage upstream still streams."""
    import ray

    try:
        n = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover
        n = 8
    return partials.materialize().repartition(max(2, n))


def _tree_combine(
    partials: rd.Dataset, keys: list[str], spec: list[tuple[str, str]]
) -> rd.Dataset:
    """Second combine level between the per-block combiners and the global
    aggregate: materialize → repartition(n_cpus) → per-block Arrow
    group_by. Each coalesced block collapses to ≤ |distinct keys in block|
    rows, so the sort-based exchange downstream sees O(n_cpus × keyspace)
    rows REGARDLESS of corpus size (the per-map-block partials alone grow
    linearly with block count). Keeps full scale-correctness: the final
    groupby still places arbitrary key cardinality; this level only folds
    co-resident duplicates. ``spec`` uses Arrow aggregate names
    (("col", "sum"|"min"|...)); output keeps the input column names."""

    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(keys, use_threads=False).aggregate(spec)
        return g.select(keys + [f"{c}_{f}" for c, f in spec]).rename_columns(
            keys + [c for c, _ in spec]
        )

    return _coalesce_partials(partials).map_batches(
        combine, batch_format="pyarrow"
    )


# THE combiner-schema → unified-IR rename — one definition shared by the
# streaming merge and the incremental-state render so they cannot fork
_STATE_TO_IR = {"subj_id": "source_id", "obj_id": "target_id", "pred": "type"}


# combined partials at or under this row count merge on the driver (ONE
# pandas groupby) instead of paying two all-to-all operators; see
# stages/agg.py:grouped_aggregate_hybrid for the rule's rationale
_DRIVER_MERGE_LIMIT = 2_000_000


def _ir_edge_rows(batch: pa.Table) -> pa.Table:
    """Merged combiner state → rendered unified-IR edge rows."""
    names = [_STATE_TO_IR.get(c, c) for c in batch.column_names]
    return _render_edge_rows(batch.rename_columns(names))


def _merge_edge_partials(partials: rd.Dataset, *, render: bool = True):
    """Final reduce of the triple combiner through the size-hybrid fold
    (stages/agg.py:fold):

    - at or under ``_DRIVER_MERGE_LIMIT`` combined-partial rows the merge
      and the render run on the driver and a ``pa.Table`` comes back.
      Measured at ×1024/32 CPUs the Repartition + Aggregate all-to-all
      pair costs ~2.6s of an 8.8s wall (~30%) to reduce ~2k rows — a pure
      fixed latency that CAPS scaling efficiency;
    - beyond the limit, the two-level tree combine bounds the exchange at
      O(cpus × keyspace) rows and the fold's exchange merges them.

    ``render=False`` keeps the COMBINER schema, making the output a
    mergeable state (closed under another merge — Sum/Min monoids)."""
    keys = ["subj_id", "pred", "obj_id"]
    parts = partials.materialize()
    if parts.count() > _DRIVER_MERGE_LIMIT:
        parts = _tree_combine(
            parts, keys, [("n_obs", "sum"), ("first_doc", "min")]
        )
    return fold(
        parts,
        keys,
        [("n_obs", "sum", "n_obs"), ("first_doc", "min", "first_doc")],
        finalize=_ir_edge_rows if render else None,
        batch_format="pyarrow",
        driver_limit=_DRIVER_MERGE_LIMIT,
    )


def edge_state(triples: rd.Dataset, prior: rd.Dataset | None = None) -> rd.Dataset:
    """INCREMENTAL view maintenance of the edge aggregate: the merged
    combiner table IS the mergeable state. Ingesting a new shard set
    combines only the NEW triples and re-merges their partials with the
    prior state — no reprocessing of already-ingested documents, and any
    ingest order yields the identical result as one full recompute
    (Sum/Min are commutative monoids; equality pinned by test). Pairs
    with state/manifest.py's partition resume for the at-scale
    append-only ingest loop."""
    partials = triples.map_batches(_edge_partials, batch_format="pyarrow")
    if prior is not None:
        partials = partials.union(prior)
    return as_dataset(_merge_edge_partials(partials, render=False)).materialize()


def edges_from_state(state: rd.Dataset) -> rd.Dataset:
    """Render the unified-IR edge rows from an incremental state table."""
    return state.rename_columns(_STATE_TO_IR).map_batches(
        _render_edge_rows, batch_format="pyarrow"
    )


def _input_fingerprint(prefix: str, paths) -> str:
    """Stage fingerprint encoding the ACTUAL input lineage: a digest of the
    ordered path list (a count-only fingerprint would let a same-sized but
    different input reuse stale merged output)."""
    import hashlib

    h = hashlib.md5("\n".join(paths).encode("utf-8")).hexdigest()
    return f"{prefix}:{len(list(paths))}:{h}"


def _render_edge_rows(batch: pa.Table) -> pa.Table:
    """(source_id, target_id, type, n_obs, first_doc) → unified-IR edge rows
    with canonical JSON properties — shared by the streaming and
    partitioned builds so the two cannot diverge."""
    props = _edge_props_json(
        batch.column("n_obs").to_pylist(), batch.column("first_doc").to_pylist()
    )
    return pa.table(
        {
            "source_id": batch.column("source_id"),
            "target_id": batch.column("target_id"),
            "type": batch.column("type"),
            "properties": pa.array(props, pa.string()),
        }
    )


def _render_node_rows(batch: pa.Table) -> pa.Table:
    """(surface, n_mentions) → unified-IR node rows — shared by every node
    build path (streaming, partitioned, edges-derived)."""
    surfaces = batch.column("surface").to_pylist()
    n = batch.column("n_mentions").to_pylist()
    return pa.table(
        {
            "id": pa.array([f"E:{s}" for s in surfaces], pa.string()),
            "type": pa.array(
                # .get fallback matches the oracle's ELSE 'code' branch
                [ENTITY_TYPE.get(s, "code") for s in surfaces],
                pa.string(),
            ),
            "properties": pa.array(
                [
                    json_dumps({"surface": s, "n_mentions": int(c)})
                    for s, c in zip(surfaces, n)
                ],
                pa.string(),
            ),
        }
    )


def edge_rows(triples: rd.Dataset) -> "pa.Table | rd.Dataset":
    """Triple dedup + provenance merge (the Oregano triple-dedup analog,
    kgw/biomedicine/_oregano.py:226-237, as a combiner fold).

    Output: edges(source_id, target_id, type, properties) with properties a
    canonical JSON string {"n_obs": N, "first_doc": D} — the unified-IR edge
    shape (kgw/_shared/transform.py:18-25); a driver table when the merged
    edges are driver-sized.
    """
    return _merge_edge_partials(
        triples.map_batches(_edge_partials, batch_format="pyarrow")
    )


def edges_from_triples(triples: rd.Dataset) -> rd.Dataset:
    """:func:`edge_rows` as a Dataset (for writers and Dataset chains)."""
    return as_dataset(edge_rows(triples))


def _node_partials(batch: pa.Table) -> pa.Table:
    """Combiner: per-batch mention counts per entity (subj and obj sides).
    Arrow-native value_counts — no pandas round-trip, no Python objects."""
    import pyarrow.compute as pc

    chunks: list[pa.Array] = []
    for name in ("subj", "obj"):
        col = batch.column(name)
        chunks.extend(col.chunks if isinstance(col, pa.ChunkedArray) else [col])
    vc = pc.value_counts(pa.chunked_array(chunks, pa.string()))
    return pa.table(
        {
            "surface": vc.field("values"),
            "n_partial": pc.cast(vc.field("counts"), pa.int64()),
        }
    )


def node_rows(triples: rd.Dataset) -> "pa.Table | rd.Dataset":
    """Distinct entities with types + mention counts → unified-IR node rows
    (id, type, properties) per kgw/_shared/transform.py:12-16; merged and
    rendered by the fold (a driver table when driver-sized).
    """
    partials = triples.map_batches(_node_partials, batch_format="pyarrow")
    parts = partials.materialize()
    if parts.count() > _DRIVER_MERGE_LIMIT:
        parts = _tree_combine(parts, ["surface"], [("n_partial", "sum")])
    return fold(
        parts,
        "surface",
        [("n_partial", "sum", "n_mentions")],
        finalize=_render_node_rows,
        batch_format="pyarrow",
        driver_limit=_DRIVER_MERGE_LIMIT,
    )


def nodes_from_triples(triples: rd.Dataset) -> rd.Dataset:
    """:func:`node_rows` as a Dataset."""
    return as_dataset(node_rows(triples))


def nodes_from_edges(edges: rd.Dataset) -> rd.Dataset:
    """Node table derived from the MERGED edges table instead of a second
    corpus pass: every triple mention contributes one subj and one obj
    occurrence, so n_mentions(s) = Σ n_obs over edges where s is source
    plus Σ n_obs where s is target — two tiny aggregations over the edge
    table (identical output to ``nodes_from_triples``; equality-tested).
    ``build_webkg`` uses this so the expensive pages→extract→link pipeline
    runs ONCE, not once per hub table."""
    from ray.data.aggregate import Sum

    def melt(batch: pa.Table) -> pa.Table:
        import numpy as np

        n_obs = batch.column("n_obs").to_numpy(zero_copy_only=False)
        surfaces = [s[2:] for s in batch.column("source_id").to_pylist()] + [
            s[2:] for s in batch.column("target_id").to_pylist()
        ]
        return pa.table(
            {
                "surface": pa.array(surfaces, pa.string()),
                "n_partial": pa.array(np.concatenate([n_obs, n_obs]), pa.int64()),
            }
        )

    def unrender(batch: pa.Table) -> pa.Table:
        # recover (source_id, target_id, n_obs) from rendered edge rows
        n_obs = [json_loads(p)["n_obs"] for p in batch.column("properties").to_pylist()]
        return pa.table(
            {
                "source_id": batch.column("source_id"),
                "target_id": batch.column("target_id"),
                "n_obs": pa.array(n_obs, pa.int64()),
            }
        )

    counts = (
        edges.map_batches(unrender, batch_format="pyarrow")
        .map_batches(melt, batch_format="pyarrow")
        .groupby("surface")
        .aggregate(Sum("n_partial", alias_name="n_mentions"))
    )
    return counts.map_batches(_render_node_rows, batch_format="pyarrow")


def build_webkg(
    sf_dir: str,
    out_dir: str,
    *,
    concurrency: int = 4,
    resume: bool = True,
) -> tuple[rd.Dataset, rd.Dataset]:
    """End-to-end: pages → nodes/edges Parquet hub with resume manifests.

    Returns (nodes_ds, edges_ds) reading from the committed hub. With
    ``resume=True`` a rerun with the same input fingerprint skips completed
    stages (reference resume semantics, kgw/_shared/tasks.py:75-83).
    """
    from kgw_ray.state.manifest import resumable_stage

    fingerprint = f"webkg:{os.path.abspath(sf_dir)}"
    triples = triples_dataset(sf_dir, concurrency=concurrency)

    edges = resumable_stage(
        os.path.join(out_dir, "edges"),
        "edges",
        fingerprint,
        lambda: edges_from_triples(triples),
        force=not resume,
    )
    # nodes derive from the COMMITTED edges table (nodes_from_edges) — the
    # pages→extract→link pipeline executes once, not once per hub table
    nodes = resumable_stage(
        os.path.join(out_dir, "nodes"),
        "nodes",
        fingerprint,
        lambda: nodes_from_edges(edges),
        force=not resume,
    )
    return nodes, edges


def _render_prov_edge_rows(batch: pa.Table) -> pa.Table:
    """Unpack the arg-min prov key into first_doc / first_url /
    first_warc_ts and render unified-IR edge rows (properties via the
    shared ``_edge_props_json`` layout)."""
    provs = batch.column("prov").to_pylist()
    first_docs = [int(p[:20]) for p in provs]
    urls = [p[21:] for p in provs]
    props = _edge_props_json(batch.column("n_obs").to_pylist(), first_docs)
    return pa.table(
        {
            "source_id": batch.column("source_id"),
            "target_id": batch.column("target_id"),
            "type": batch.column("type"),
            "properties": pa.array(props, pa.string()),
            "first_url": pa.array(urls, pa.string()),
            "first_warc_ts": pa.array(
                [warc_ts_for(d) for d in first_docs], pa.timestamp("us")
            ),
        }
    )


def edges_with_provenance(sf_dir: str, *, concurrency: int | None = None) -> rd.Dataset:
    """Edge table with first-observation provenance (url + warc_ts), fully
    distributed: the page url rides the triple stream into the combiner as
    an arg-min-by-doc_id packed key and through the ONE shuffle as a native
    Min aggregate — the scale-safe alternative to broadcasting a doc→url
    map (which is corpus-sized on a web crawl). Same edge rows as
    ``edges_from_triples`` plus (first_url, first_warc_ts)."""
    from ray.data.aggregate import Min, Sum

    pages = extracted_pages(sf_dir, concurrency=concurrency)
    triples = pages.map_batches(
        extract_triples_batch,
        batch_format="pyarrow",
        fn_kwargs={"carry_url": True},
    ).map_batches(link_triples_batch, batch_format="pyarrow")
    partials = triples.map_batches(
        _edge_partials, batch_format="pyarrow", fn_kwargs={"carry_prov": True}
    )
    merged = _tree_combine(
        partials,
        ["subj_id", "pred", "obj_id"],
        [("n_obs", "sum"), ("prov", "min")],
    ).groupby(
        ["subj_id", "pred", "obj_id"]
    ).aggregate(
        Sum("n_obs", alias_name="n_obs"), Min("prov", alias_name="prov")
    ).rename_columns(
        {"subj_id": "source_id", "obj_id": "target_id", "pred": "type"}
    )
    return merged.map_batches(_render_prov_edge_rows, batch_format="pyarrow")


def build_webkg_partitioned(
    document_files: list[str],
    out_dir: str,
    *,
    num_partitions: int = 8,
) -> rd.Dataset:
    """Shard-partitioned flagship build with per-partition checkpoints.

    Input document shard files are assigned deterministically to
    ``num_partitions`` partitions; each partition runs the full
    pages→extract→triples→partial-aggregate pipeline and commits its own
    ``part=<i>/`` Parquet + manifest (lineage, rows, latency). A killed run
    resumes from the first incomplete partition. A final (cheap) global
    merge re-aggregates the per-partition partials into the edges table —
    the only cross-partition shuffle, over pre-collapsed rows.
    """
    import ray.data as rd

    from kgw_ray.sources.readers import read_table  # noqa: F401 (docs parity)
    from kgw_ray.state.manifest import (
        partition_input_shards,
        resumable_partitioned_run,
        resumable_stage,
    )

    shards = partition_input_shards(document_files, num_partitions)
    fingerprint = _input_fingerprint("webkg_part", sorted(document_files))

    def per_partition(paths: list[str]) -> rd.Dataset:
        docs = rd.read_parquet(paths, columns=["doc_id", "text", "lang", "source"])
        from kgw_ray.functions.arrow_utils import strip_meta
        from kgw_ray.sources.pages import synth_pages
        from kgw_ray.stages.extract import extract_batch
        from kgw_ray.stages.linking import link_triples_batch
        from kgw_ray.stages.triples import extract_triples_batch

        pages = docs.map_batches(strip_meta, batch_format="pyarrow").map_batches(
            synth_pages, batch_format="pyarrow"
        )
        triples = (
            pages.map_batches(extract_batch, batch_format="pyarrow")
            .map_batches(extract_triples_batch, batch_format="pyarrow")
            .map_batches(link_triples_batch, batch_format="pyarrow")
        )
        return triples.map_batches(_edge_partials, batch_format="pyarrow")

    partials = resumable_partitioned_run(
        os.path.join(out_dir, "edge_partials"),
        "edge_partials",
        fingerprint,
        shards,
        per_partition,
    )

    def merge() -> rd.Dataset:
        return as_dataset(_merge_edge_partials(partials))

    return resumable_stage(
        os.path.join(out_dir, "edges"), "edges", fingerprint, merge
    )


def build_webkg_partitioned_full(
    document_files: list[str],
    out_dir: str,
    *,
    num_partitions: int = 8,
) -> tuple[rd.Dataset, rd.Dataset]:
    """Partitioned flagship producing BOTH hub tables (nodes + edges).

    Edge partials come from ``build_webkg_partitioned`` (per-partition
    checkpoints + resume); node partials are a second per-partition stage
    over the same shard assignment — a rerun reuses every completed
    partition of both stages. Returns (nodes, edges).
    """
    import ray.data as rd

    from kgw_ray.state.manifest import (
        partition_input_shards,
        resumable_partitioned_run,
        resumable_stage,
    )

    edges = build_webkg_partitioned(
        document_files, out_dir, num_partitions=num_partitions
    )

    shards = partition_input_shards(document_files, num_partitions)
    fingerprint = _input_fingerprint("webkg_part", sorted(document_files))

    def per_partition_nodes(paths: list[str]) -> rd.Dataset:
        docs = rd.read_parquet(paths, columns=["doc_id", "text", "lang", "source"])
        from kgw_ray.functions.arrow_utils import strip_meta
        from kgw_ray.sources.pages import synth_pages
        from kgw_ray.stages.extract import extract_batch
        from kgw_ray.stages.linking import link_triples_batch
        from kgw_ray.stages.triples import extract_triples_batch

        pages = docs.map_batches(strip_meta, batch_format="pyarrow").map_batches(
            synth_pages, batch_format="pyarrow"
        )
        triples = (
            pages.map_batches(extract_batch, batch_format="pyarrow")
            .map_batches(extract_triples_batch, batch_format="pyarrow")
            .map_batches(link_triples_batch, batch_format="pyarrow")
        )
        return triples.map_batches(_node_partials, batch_format="pyarrow")

    node_partials = resumable_partitioned_run(
        os.path.join(out_dir, "node_partials"),
        "node_partials",
        fingerprint,
        shards,
        per_partition_nodes,
    )

    def merge_nodes() -> rd.Dataset:
        from ray.data.aggregate import Sum

        counts = _tree_combine(
            node_partials, ["surface"], [("n_partial", "sum")]
        ).groupby("surface").aggregate(Sum("n_partial", alias_name="n_mentions"))
        return counts.map_batches(_render_node_rows, batch_format="pyarrow")

    nodes = resumable_stage(
        os.path.join(out_dir, "nodes"), "nodes", fingerprint, merge_nodes
    )
    return nodes, edges


# ---------------------------------------------------------------------------
# Entity linking + canonicalization queries (north-star stages 3-4)
# ---------------------------------------------------------------------------


def _variant_surface(surface: str, doc_id: int) -> str:
    """Deterministic noisy mention: doc_id selects a char to drop/duplicate
    (simulates scraped-text surface variation without external data)."""
    if len(surface) < 4:
        return surface
    k = doc_id % (2 * len(surface))
    if k < len(surface):
        return surface[:k] + surface[k + 1 :]  # deletion
    k -= len(surface)
    return surface[:k] + surface[k] + surface[k:]  # duplication


def _make_variants(batch: pa.Table) -> pa.Table:
    """(doc_id, subj) → (doc_id, surface, variant) with the deterministic
    corruption applied; shared by the LSH and exhaustive linkers."""
    doc_ids = batch.column("doc_id").to_pylist()
    surfaces = batch.column("subj").to_pylist()
    variants = [_variant_surface(s, d) for s, d in zip(surfaces, doc_ids)]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "surface": pa.array(surfaces, pa.string()),
            "variant": pa.array(variants, pa.string()),
        }
    )


def mention_variants(sf_dir: str) -> rd.Dataset:
    """Noisy mention stream (doc_id, surface, variant) from the triple subj
    column — the linking stages' common input."""
    return triples_dataset(sf_dir).map_batches(
        _make_variants, batch_format="pyarrow"
    )


def linked_mentions_exact(sf_dir: str) -> rd.Dataset:
    """Deterministic entity linking: exhaustive exact char-3-gram-Jaccard
    scoring of every mention against the whole (broadcast-sized) KB
    (stages/linking.py:exact_link_batch). Output: (doc_id, surface,
    variant, entity_id, inter_ct, union_ct) — hash-gated against
    registry.LINK_EXACT_SQL.

    Task map, not actor pool: the KB shingle index is a per-process
    singleton (trivial state — see the actor-pool-vs-task-map note in
    stages/extract.py)."""
    from kgw_ray.stages.linking import exact_link_batch

    return mention_variants(sf_dir).map_batches(
        exact_link_batch, batch_format="pyarrow"
    )


def canonical_entities_exact(sf_dir: str) -> rd.Dataset:
    """Canonicalization over the DETERMINISTIC linker: union-find components
    of (variant, canonical word) pairs whose exact Jaccard ≥ 0.5 (integer
    threshold 2·inter ≥ union — no float compare). Output (id, component);
    hash-gated against registry.CANON_EXACT_SQL (recursive-CTE closure)."""
    from kgw_ray.stages.canonicalize import connected_components

    linked = linked_mentions_exact(sf_dir)

    def pairs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater_equal(
            pc.multiply(batch.column("inter_ct"), pa.scalar(2, pa.int64())),
            batch.column("union_ct"),
        )
        b = batch.filter(keep)
        canon = pc.utf8_replace_slice(b.column("entity_id"), 0, 2, "")  # strip E:
        return pa.table({"a": b.column("variant"), "b": canon})

    return connected_components(linked.map_batches(pairs, batch_format="pyarrow"))


def linked_mentions(sf_dir: str) -> rd.Dataset:
    """Noisy mention surfaces → canonical entity ids via the MinHash-LSH +
    embedding-cosine EntityLinker actor pool (stages/linking.py).

    The KB is the entity lexicon (id ``E:<word>``, aliases = the word);
    mention surfaces are deterministic noisy variants — the linker must
    recover the entity despite the corruption. Output:
    (doc_id, surface, variant, entity_id, link_score).
    """
    import ray

    from kgw_ray.stages.linking import EntityLinker
    from kgw_ray.stages.triples import ENTITIES

    kb = [{"entity_id": f"E:{w}", "aliases": [w]} for w in sorted(ENTITIES)]
    kb_ref = ray.put(kb)

    mentions = mention_variants(sf_dir)
    # heavy-state actor pool (KB index built once per actor). num_gpus=0
    # here; with a neural scorer this same call carries num_gpus=1 and the
    # pool schedules onto GPU workers (BASELINE.json north_star's
    # "embedding-cosine scoring on GPU actors" slot).
    return mentions.map_batches(
        EntityLinker,
        fn_constructor_kwargs={"kb_ref": kb_ref, "column": "variant"},
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=(1, 8),
        num_gpus=0,
    )


def canonical_entities(sf_dir: str) -> rd.Dataset:
    """Canonicalization: union-find over surface-form match pairs
    (north-star stage 4; distributed min-label propagation,
    stages/canonicalize.py).

    Pairs = (variant, linked entity surface) from the linker — components
    merge every observed corruption of an entity with its canonical form.
    Output: (id, component) where component is the canonical (min) surface.
    """
    from kgw_ray.stages.canonicalize import connected_components

    linked = linked_mentions(sf_dir)

    def pairs(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = pc.is_valid(batch.column("entity_id"))
        b = batch.filter(ok)
        canon = pc.utf8_replace_slice(b.column("entity_id"), 0, 2, "")  # strip E:
        return pa.table({"a": b.column("variant"), "b": canon})

    pair_ds = linked.map_batches(pairs, batch_format="pyarrow")
    return connected_components(pair_ds)


# --------------------------------------------------------------------------
# Re-crawl snapshot handling (Common-Crawl revisit model)
# --------------------------------------------------------------------------


def latest_pages(sf_dir: str) -> rd.Dataset:
    """Snapshot dedup: the NEWEST crawl per url across the two-crawl archive
    — the keep-latest-revision compaction every Common-Crawl ingest runs
    BEFORE paying for extraction (reference analog: kgw re-downloads only
    newer dump versions, kgw/_shared/fetch.py).

    Physical plan: packed arg-max by combiner, the CDC pattern
    (relational.py:events_latest_per_user) lifted to STRING group keys —
    each batch keeps one packed ``lpad(warc_ts_us,20) || md5hex(32) ||
    lpad(n_chars,12)`` key per url (fixed-width fields: lexicographic Max
    IS the warc_ts max; the content digest and length ride behind the
    ordering prefix), then one vocabulary-sized groupby Max. The shuffle
    moves ≤ one ~90-byte row per (batch, url) — never page text, never
    html. Output: (url, warc_ts_us, text_md5, n_chars)."""
    import hashlib

    import numpy as np
    import pyarrow.compute as pc

    from kgw_ray.sources.pages import recrawl_pages_dataset

    pages = recrawl_pages_dataset(sf_dir, crawls="both", with_html=False)

    def pack(batch: pa.Table) -> pa.Table:
        ts_us = pc.cast(batch.column("warc_ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(ts_us) and ts_us.min() < 0:
            raise ValueError(
                "latest_pages: negative warc_ts breaks the packed-key order"
            )
        texts = batch.column("text").to_pylist()
        md5s = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        n_chars = pc.utf8_length(batch.column("text"))
        key = pc.binary_join_element_wise(
            pc.utf8_lpad(pc.cast(pa.array(ts_us), pa.string()), 20, "0"),
            pa.array(md5s, pa.string()),
            pc.utf8_lpad(pc.cast(n_chars, pa.string()), 12, "0"),
            "",
        )
        df = pd.DataFrame(
            {
                "url": batch.column("url").to_numpy(zero_copy_only=False),
                "key": key.to_numpy(zero_copy_only=False),
            }
        )
        top = df.groupby("url", sort=False)["key"].max().reset_index()
        return arrow_from_pandas(top)

    merged = grouped_aggregate_hybrid(
        pages.map_batches(pack, batch_format="pyarrow"),
        "url",
        [("key", "max", "key")],
    )

    def unpack(batch: pa.Table) -> pa.Table:
        key = batch.column("key")
        return pa.table(
            {
                "url": batch.column("url"),
                "warc_ts_us": pc.cast(
                    pc.utf8_slice_codeunits(key, 0, 20), pa.int64()
                ),
                "text_md5": pc.utf8_slice_codeunits(key, 20, 52),
                "n_chars": pc.cast(
                    pc.utf8_slice_codeunits(key, 52, 64), pa.int64()
                ),
            }
        )

    return merged.map_batches(unpack, batch_format="pyarrow")


def _two_crawl_states(sf_dir: str) -> tuple[rd.Dataset, rd.Dataset]:
    """(crawl-1 edge state, two-crawl edge state) — the second built by
    ingesting ONLY crawl 2 as an increment over the first
    (``edge_state(prior=...)``); crawl-1 pages are never reprocessed.

    This is the at-scale append-only ingest loop of the north rule: each
    new crawl is one ``edge_state`` call over its pages; the mergeable
    state table is the checkpoint (state/manifest.py partitions it)."""
    from kgw_ray.sources.pages import recrawl_pages_dataset
    from kgw_ray.stages.extract import extract_batch

    def crawl_triples(which: str) -> rd.Dataset:
        pages = recrawl_pages_dataset(sf_dir, crawls=which, with_html=True)
        ds = pages.map_batches(extract_batch, batch_format="pyarrow")
        ds = ds.map_batches(extract_triples_batch, batch_format="pyarrow")
        return ds.map_batches(link_triples_batch, batch_format="pyarrow")

    state1 = edge_state(crawl_triples("first"))
    state2 = edge_state(crawl_triples("second"), prior=state1)
    return state1, state2


def edges_incremental_two_crawls(sf_dir: str) -> rd.Dataset:
    """INCREMENTAL KG maintenance under the external gate: the rendered
    two-crawl state equals a full recompute over the unioned corpus
    (Sum/Min monoids), which is exactly what the DuckDB oracle computes
    independently."""
    return edges_from_state(_two_crawl_states(sf_dir)[1])


def edge_deltas_two_crawls(sf_dir: str) -> rd.Dataset:
    """CDC on the graph itself: which edges did crawl 2 ADD or STRENGTHEN?
    Diff of the two mergeable states — the downstream-consumer feed
    (embedding refresh, cache invalidation) an always-on KG pipeline
    publishes per ingest instead of re-shipping the full edge table.

    Physical plan: both states are already vocabulary-sized combiner
    tables; the diff is ONE size-hybrid left-outer join of the after-state
    against the before-state (stages/joins.py:large_join — broadcast under
    the limit, hash-partitioned beyond, so open-vocabulary entity spaces
    never funnel through the driver) followed by a vectorized classify
    filter. Output: (source_id, target_id, type, n_obs_before,
    n_obs_after, change ∈ {new, updated})."""
    import pyarrow.compute as pc

    from kgw_ray.stages.joins import large_join

    state1, state2 = _two_crawl_states(sf_dir)
    before = state1.drop_columns(["first_doc"]).rename_columns(
        {"n_obs": "n_obs_before"}
    )
    joined = large_join(
        state2, before, on=("subj_id", "pred", "obj_id"), how="left_outer"
    )

    def classify(batch: pa.Table) -> pa.Table:
        after = batch.column("n_obs")
        bef = pc.fill_null(batch.column("n_obs_before"), 0)
        changed = pc.not_equal(after, bef)
        b = batch.filter(changed)
        bef_f = pc.fill_null(b.column("n_obs_before"), 0)
        change = pc.if_else(
            pc.equal(bef_f, pa.scalar(0, bef_f.type)), "new", "updated"
        )
        return pa.table(
            {
                "source_id": b.column("subj_id"),
                "target_id": b.column("obj_id"),
                "type": b.column("pred"),
                "n_obs_before": pc.cast(bef_f, pa.int64()),
                "n_obs_after": pc.cast(b.column("n_obs"), pa.int64()),
                "change": change,
            }
        )

    return joined.map_batches(classify, batch_format="pyarrow")


def _extract_links_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html, doc_id) → one row per absolute /doc/ outlink:
    (src_doc_id, src_host, dst_doc_id, dst_host). A projection of the
    ONE outlink extractor (``_extract_anchors_batch``) so the rendered
    href format is parsed in exactly one place."""
    return _extract_anchors_batch(batch).drop_columns(["anchor"])


def link_graph(sf_dir: str) -> rd.Dataset:
    """Crawl link graph: extract the absolute same-corpus outlinks from
    every page's HTML — the web-graph construction step (host-level
    PageRank, crawl frontier expansion, SEO-spam analysis all start
    here). One streaming pass over the synthesized pages; no shuffle —
    the edge list is the product. Oracle: the outlink rule is a pure
    function of doc_id (sources/pages.py:render_html — next and half
    links on the same source host), so DuckDB re-derives the identical
    edge set from the documents table."""
    from kgw_ray.sources.pages import pages_dataset

    return pages_dataset(sf_dir).map_batches(
        _extract_links_batch, batch_format="pyarrow"
    )


LINK_GRAPH_SQL = """
SELECT doc_id AS src_doc_id,
       source || '.example.org' AS src_host,
       doc_id + 1 AS dst_doc_id,
       source || '.example.org' AS dst_host
FROM documents
UNION ALL
SELECT doc_id, source || '.example.org', doc_id // 2,
       source || '.example.org'
FROM documents
UNION ALL
SELECT doc_id, source || '.example.org', doc_id * 7 % 1000,
       'src' || ((doc_id + 3) % 20) || '.example.org'
FROM documents
"""


def host_graph(sf_dir: str) -> rd.Dataset:
    """Host-level web graph: (src_host, dst_host, n_links) aggregated from
    the page outlinks — the input every host-authority / crawl-budget /
    spam-farm analysis consumes. One extraction pass feeds a per-block
    combiner (host pairs are near-vocabulary cardinality, ~|hosts|²
    bounded) + one bounded grouped Sum."""

    links = link_graph(sf_dir)

    def partial(df: "pd.DataFrame") -> pa.Table:
        import numpy as np

        g = (
            df.groupby(["src_host", "dst_host"], sort=False)
            .size()
            .rename("n_links")
            .reset_index()
        )
        return pa.table(
            {
                "src_host": pa.array(g["src_host"].to_numpy(), pa.string()),
                "dst_host": pa.array(g["dst_host"].to_numpy(), pa.string()),
                "n_links": pa.array(g["n_links"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        links.map_batches(partial, batch_format="pandas"),
        ["src_host", "dst_host"],
        [("n_links", "sum", "n_links")],
    )


HOST_GRAPH_SQL = f"""
SELECT src_host, dst_host, CAST(COUNT(*) AS BIGINT) AS n_links
FROM ({LINK_GRAPH_SQL})
GROUP BY src_host, dst_host
"""


_ANCHOR_RE = None  # per-process compiled singleton (extract_batch pattern)


def _extract_anchors_batch(batch: pa.Table) -> pa.Table:
    """pages(url, html, doc_id) → one row per absolute /doc/ outlink WITH
    its anchor text: (src_doc_id, src_host, dst_doc_id, dst_host,
    anchor). THE single place the rendered href markup is parsed — every
    link-consuming pipeline (link/host graphs, frontier, chain hops,
    alias table) derives from this output, so a markup change can't
    desynchronize extractors. Nav/footer relative links don't match the
    absolute pattern; the compiled regex is a process-wide singleton."""
    import re

    import numpy as np

    global _ANCHOR_RE
    if _ANCHOR_RE is None:
        # \d{8,}: url_for zero-pads to AT LEAST 8 digits ({doc_id:08d}) —
        # replica/recrawl ids offset by _REPEAT_STRIDE=1e8 render 9 digits,
        # and an exact {8} would silently extract nothing from those pages
        _ANCHOR_RE = re.compile(
            rb"href=\"https://([a-z0-9_.-]+\.example\.org)/doc/(\d{8,})\">([a-z]+)</a>"
        )
    src, shost, dst, host, anchor = [], [], [], [], []
    for sid, page_url, html in zip(
        batch.column("doc_id").to_pylist(),
        batch.column("url").to_pylist(),
        batch.column("html").to_pylist(),
    ):
        page_host = page_url.split("://", 1)[1].split("/", 1)[0]
        for m in _ANCHOR_RE.finditer(bytes(html)):
            src.append(sid)
            shost.append(page_host)
            dst.append(int(m.group(2)))
            host.append(m.group(1).decode("ascii"))
            anchor.append(m.group(3).decode("ascii"))
    return pa.table(
        {
            "src_doc_id": pa.array(np.asarray(src, dtype=np.int64)),
            "src_host": pa.array(shost, pa.string()),
            "dst_doc_id": pa.array(np.asarray(dst, dtype=np.int64)),
            "dst_host": pa.array(host, pa.string()),
            "anchor": pa.array(anchor, pa.string()),
        }
    )


def anchor_stats(sf_dir: str) -> rd.Dataset:
    """Anchor-text aggregation per link target — the surface-form/alias
    table of KG construction (how the web refers to each entity, weighted
    by mention count; the fixture corpus has a 3-word anchor vocabulary,
    a real crawl has millions — the plan is anchor-cardinality-bounded
    either way). One extraction pass → per-block (target, anchor) count
    combiner → ONE pair-keyed bounded Sum; raw links never shuffle."""

    anchors = pages_dataset(sf_dir).map_batches(
        _extract_anchors_batch, batch_format="pyarrow"
    )

    def partial(df: "pd.DataFrame") -> pa.Table:
        import numpy as np

        g = (
            df.groupby(["dst_doc_id", "anchor"], sort=False)
            .size()
            .rename("n_mentions")
            .reset_index()
        )
        return pa.table(
            {
                "dst_doc_id": pa.array(g["dst_doc_id"].to_numpy(), pa.int64()),
                "anchor": pa.array(g["anchor"].to_numpy(), pa.string()),
                "n_mentions": pa.array(g["n_mentions"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        anchors.map_batches(partial, batch_format="pandas"),
        ["dst_doc_id", "anchor"],
        [("n_mentions", "sum", "n_mentions")],
    )


ANCHOR_STATS_SQL = """
WITH links AS (
  SELECT doc_id + 1 AS dst, 'next' AS anchor FROM documents
  UNION ALL SELECT doc_id // 2, 'half' FROM documents
  UNION ALL SELECT doc_id * 7 % 1000, 'xref' FROM documents
)
SELECT dst AS dst_doc_id, anchor, CAST(COUNT(*) AS BIGINT) AS n_mentions
FROM links GROUP BY dst, anchor
"""


def frontier_targets(sf_dir: str) -> rd.Dataset:
    """Distinct uncrawled link targets (dst_host, dst_doc_id): per-block
    target dedup → ONE pair-keyed reduce to the distinct target set →
    size-hybrid anti-join against the crawled URL set (both sides travel
    as packed host|id keys, never full URLs)."""
    from kgw_ray.sources.readers import read_table
    from kgw_ray.stages.joins import anti_join

    anchors = pages_dataset(sf_dir).map_batches(
        _extract_anchors_batch, batch_format="pyarrow"
    )

    def target_partial(df: "pd.DataFrame") -> pa.Table:
        import numpy as np

        g = df[["dst_host", "dst_doc_id"]].drop_duplicates()
        return pa.table(
            {
                "dst_host": pa.array(g["dst_host"].to_numpy(), pa.string()),
                "dst_doc_id": pa.array(g["dst_doc_id"].to_numpy(), pa.int64()),
                "one": pa.array(np.ones(len(g), np.int64)),
            }
        )

    targets = grouped_aggregate_hybrid(
        anchors.map_batches(target_partial, batch_format="pandas"),
        ["dst_host", "dst_doc_id"],
        [("one", "sum", "n")],
    )

    def pack_t(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = pc.binary_join_element_wise(
            t.column("dst_host"),
            pc.cast(t.column("dst_doc_id"), pa.string()),
            "|",
        )
        return pa.table(
            {
                "dst_host": t.column("dst_host"),
                "dst_doc_id": t.column("dst_doc_id"),
                "key": key,
            }
        )

    def pack_c(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = pc.binary_join_element_wise(
            pc.binary_join_element_wise(
                t.column("source"), ".example.org", ""
            ),
            pc.cast(t.column("doc_id"), pa.string()),
            "|",
        )
        return pa.table({"key": key})

    crawled = read_table(sf_dir, "documents", columns=["doc_id", "source"]).map_batches(
        pack_c, batch_format="pyarrow"
    )
    return anti_join(
        targets.map_batches(pack_t, batch_format="pyarrow"),
        crawled,
        on="key",
    )


def _count_by_host(frontier: rd.Dataset) -> rd.Dataset:

    def host_count(df: "pd.DataFrame") -> pa.Table:
        import numpy as np

        g = df.groupby("dst_host", sort=False).size().rename("n_frontier").reset_index()
        return pa.table(
            {
                "dst_host": pa.array(g["dst_host"].to_numpy(), pa.string()),
                "n_frontier": pa.array(g["n_frontier"].to_numpy().astype(np.int64)),
            }
        )

    return grouped_aggregate_hybrid(
        frontier.map_batches(host_count, batch_format="pandas"),
        "dst_host",
        [("n_frontier", "sum", "n_frontier")],
    )


def frontier_by_host(sf_dir: str) -> rd.Dataset:
    """Crawl-frontier discovery: link targets whose exact URL was never
    crawled, counted per destination host — the seed list (and its
    per-host politeness budget) for the NEXT crawl round."""
    return _count_by_host(frontier_targets(sf_dir))


def frontier_polite_by_host(sf_dir: str) -> rd.Dataset:
    """Politeness-filtered frontier: the uncrawled targets a compliant
    crawler may actually fetch, per host — each destination host's
    robots.txt rules (sources/robots.py, RFC 9309-lite longest-match
    Allow/Disallow) drop excluded paths BEFORE scheduling. Rules are
    parsed once per host on the driver (host-vocabulary-sized), shipped
    once via ``ray.put``, and applied as a per-batch mask; the synthetic
    rule is a pure function of the host name so the oracle re-derives
    its effect arithmetically."""
    import ray

    from kgw_ray.sources.robots import allowed_mask, rules_for_hosts

    # derive the host universe from the FRONTIER itself (distinct dst_host —
    # the only hosts the politeness mask ever consults), one per-block
    # unique pass + a host-vocabulary-sized reduce. Deriving it from
    # documents.source would leave a linked-but-never-crawled host
    # rule-less (allowed) while the oracle applies its band to every
    # srcN-pattern host — divergent for corpora where some source residue
    # is absent.

    targets = frontier_targets(sf_dir).materialize()

    def _uniq_host(t: pa.Table) -> pa.Table:
        import numpy as np

        u = np.unique(t.column("dst_host").to_numpy(zero_copy_only=False))
        return pa.table(
            {"h": pa.array(u, pa.string()), "one": pa.array(np.ones(len(u), np.int64))}
        )

    hdf = grouped_aggregate_hybrid(
        targets.map_batches(_uniq_host, batch_format="pyarrow"),
        "h",
        [("one", "sum", "n")],
    ).to_pandas()
    hosts = list(hdf["h"]) if "h" in hdf.columns else []
    rules_ref = ray.put(rules_for_hosts(hosts))

    def polite(t: pa.Table) -> pa.Table:
        rules = ray.get(rules_ref)
        hs = t.column("dst_host").to_pylist()
        ids = t.column("dst_doc_id").to_pylist()
        paths = [f"/doc/{i:08d}" for i in ids]
        mask = pa.array(allowed_mask(rules, hs, paths), pa.bool_())
        return t.filter(mask)

    return _count_by_host(targets.map_batches(polite, batch_format="pyarrow"))


FRONTIER_BY_HOST_SQL = """
WITH links AS (
  SELECT source || '.example.org' AS h, doc_id + 1 AS d FROM documents
  UNION ALL SELECT source || '.example.org', doc_id // 2 FROM documents
  UNION ALL SELECT 'src' || ((doc_id + 3) % 20) || '.example.org',
                   doc_id * 7 % 1000 FROM documents
),
dl AS (SELECT DISTINCT h, d FROM links),
crawled AS (SELECT source || '.example.org' AS h, doc_id AS d FROM documents)
SELECT h AS dst_host, CAST(COUNT(*) AS BIGINT) AS n_frontier
FROM dl
WHERE NOT EXISTS (SELECT 1 FROM crawled c WHERE c.h = dl.h AND c.d = dl.d)
GROUP BY h
"""


# robots rule effect, re-derived arithmetically (sources/robots.py:
# srcN disallows the 8-digit prefix /doc/0000K with K = N % 5, with an
# Allow exception /doc/0000K9 — so a target is excluded iff its id sits
# in the K-thousand band and not in that band's 9-hundreds)
FRONTIER_POLITE_SQL = """
WITH links AS (
  SELECT source || '.example.org' AS h, doc_id + 1 AS d FROM documents
  UNION ALL SELECT source || '.example.org', doc_id // 2 FROM documents
  UNION ALL SELECT 'src' || ((doc_id + 3) % 20) || '.example.org',
                   doc_id * 7 % 1000 FROM documents
),
dl AS (SELECT DISTINCT h, d FROM links),
crawled AS (SELECT source || '.example.org' AS h, doc_id AS d FROM documents)
SELECT h AS dst_host, CAST(COUNT(*) AS BIGINT) AS n_frontier
FROM dl
WHERE NOT EXISTS (SELECT 1 FROM crawled c WHERE c.h = dl.h AND c.d = dl.d)
  AND NOT (d // 1000 = CAST(regexp_extract(h, 'src(\\d+)', 1) AS BIGINT) % 5
           AND (d // 100) % 10 <> 9)
GROUP BY h
"""


def chain_hops(sf_dir: str) -> rd.Dataset:
    """Pointer doubling over the half-link chain: every page's 2-hop
    (anc2 = doc//4) and 4-hop (anc4 = doc//16) ancestor in log-many
    distributed self-joins (2 rounds double 1-hop → 2-hop → 4-hop; the
    general k-round plan reaches 2^k hops) —
    the canonical-chain / redirect-resolution primitive, where the naive
    per-hop walk needs 2^k sequential joins. Each round is ONE
    hash-partitioned large join of the jump table with itself; the chain
    function here (doc//2 per hop) closes over the contiguous doc-id
    space, so no dangling-pointer guard path executes on the fixture."""
    from kgw_ray.stages.joins import large_join

    anchors = pages_dataset(sf_dir).map_batches(
        _extract_anchors_batch, batch_format="pyarrow"
    )

    def half_edges(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.equal(t.column("anchor"), "half")
        f = t.filter(m)
        return pa.table({"node": f.column("src_doc_id"), "to": f.column("dst_doc_id")})

    jump = anchors.map_batches(half_edges, batch_format="pyarrow").materialize()
    if jump.count() == 0:  # empty corpus: typed empty ancestor table
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "anc2": pa.array([], pa.int64()),
                    "anc4": pa.array([], pa.int64()),
                }
            )
        )

    def double(j: rd.Dataset) -> rd.Dataset:
        right = j.map_batches(
            lambda t: pa.table({"jnode": t.column("node"), "jto": t.column("to")}),
            batch_format="pyarrow",
        )
        out = large_join(j, right, on=["to"], right_on=["jnode"])
        return out.map_batches(
            lambda t: pa.table({"node": t.column("node"), "to": t.column("jto")}),
            batch_format="pyarrow",
        )

    jump2 = double(jump).materialize()  # node → 2-hop ancestor
    right4 = jump2.map_batches(
        lambda t: pa.table({"jnode": t.column("node"), "jto": t.column("to")}),
        batch_format="pyarrow",
    )
    out = large_join(jump2, right4, on=["to"], right_on=["jnode"])
    return out.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("node"),
                "anc2": t.column("to"),
                "anc4": t.column("jto"),
            }
        ),
        batch_format="pyarrow",
    )


CHAIN_HOPS_SQL = """
SELECT doc_id, doc_id // 4 AS anc2, doc_id // 16 AS anc4 FROM documents
"""


def link_spam_scores(sf_dir: str) -> rd.Dataset:
    """Link-farm signal per source host: total outlinks and the share of
    them aimed at the single most-linked target host, in exact permille
    (floor; a host funneling most links at one target is the classic
    farm shape). Composes the verified host_graph aggregate — the farm
    score itself is host-vocabulary-bounded arithmetic: per-block
    (sum, max) partials over (src, dst, n) triples + ONE host-keyed
    reduce; integer permille keeps the oracle float-free."""

    hg = host_graph(sf_dir)

    def partial(df: "pd.DataFrame") -> pa.Table:
        import numpy as np

        g = (
            df.groupby("src_host", sort=False)
            .agg(total_links=("n_links", "sum"), top_links=("n_links", "max"))
            .reset_index()
        )
        return pa.table(
            {
                "src_host": pa.array(g["src_host"].to_numpy(), pa.string()),
                "total_links": pa.array(g["total_links"].to_numpy(dtype=np.int64)),
                "top_links": pa.array(g["top_links"].to_numpy(dtype=np.int64)),
            }
        )

    folded = grouped_aggregate_hybrid(
        hg.map_batches(partial, batch_format="pandas"),
        "src_host",
        [("total_links", "sum", "total_links"), ("top_links", "max", "top_links")],
    )

    def score(t: pa.Table) -> pa.Table:
        import numpy as np

        tot = t.column("total_links").to_numpy(zero_copy_only=False)
        top = t.column("top_links").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src_host": t.column("src_host"),
                "total_links": t.column("total_links"),
                "top_share_pm": pa.array((top * 1000) // np.maximum(tot, 1), pa.int64()),
            }
        )

    return folded.map_batches(score, batch_format="pyarrow")


LINK_SPAM_SQL = f"""
SELECT src_host,
       CAST(SUM(n_links) AS BIGINT) AS total_links,
       CAST(MAX(n_links) * 1000 // GREATEST(SUM(n_links), 1) AS BIGINT)
         AS top_share_pm
FROM ({HOST_GRAPH_SQL})
GROUP BY src_host
"""


def chain_depth(sf_dir: str, *, driver_limit: int = 2_000_000) -> rd.Dataset:
    """Distance to the chain root for EVERY page, via distance-accumulating
    pointer doubling: the jump table carries (node, ancestor, hops); each
    round composes it with itself so reach doubles — ceil(log₂ depth)
    rounds instead of depth sequential steps (canonicalization-chain /
    redirect-depth resolution at graph diameter ∝ corpus size). The root's
    self-edge enters with weight 0 (node == target at extraction), so
    saturated hops stop accumulating exactly — no post-hoc clamp. Round
    count derives from the observed max id on the driver (one pruned Max
    aggregate), so the plan stays correct at any corpus scale. Size-hybrid
    (the repo rule): at or under ``driver_limit`` nodes the doubling runs
    as vectorized searchsorted rounds on the driver (each distributed
    round would pay a full hash-join exchange for a node-sized table);
    beyond it, each round is ONE hash-partitioned self-join
    (tests/test_webkg.py pins path parity). Oracle: depth along d → d//2
    is the closed-form bit length of doc_id."""
    import numpy as np

    from kgw_ray.sources.readers import read_table
    from kgw_ray.stages.joins import large_join

    anchors = pages_dataset(sf_dir).map_batches(
        _extract_anchors_batch, batch_format="pyarrow"
    )

    def half_w(t: pa.Table) -> pa.Table:
        import numpy as _np
        import pyarrow.compute as pc

        f = t.filter(pc.equal(t.column("anchor"), "half"))
        n = f.column("src_doc_id").to_numpy(zero_copy_only=False)
        a = f.column("dst_doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(n, pa.int64()),
                "anc": pa.array(a, pa.int64()),
                "hops": pa.array((n != a).astype(_np.int64)),
            }
        )

    jump = anchors.map_batches(half_w, batch_format="pyarrow").materialize()

    # rounds: 2^R ≥ max chain depth = bit_length(max_id)
    _mx = read_table(sf_dir, "documents", columns=["doc_id"]).max("doc_id")
    if _mx is None:  # empty corpus: typed empty depth table
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "depth": pa.array([], pa.int64()),
                }
            )
        )
    max_id = int(_mx)
    depth_bound = max(1, max_id.bit_length())
    rounds = max(1, (depth_bound - 1).bit_length())

    if jump.count() <= driver_limit:
        df = jump.to_pandas()
        node = df["node"].to_numpy(dtype=np.int64)
        anc = df["anc"].to_numpy(dtype=np.int64)
        hops = df["hops"].to_numpy(dtype=np.int64)
        order = np.argsort(node)
        node_s, anc_s, hops_s = node[order], anc[order], hops[order]
        for _ in range(rounds):
            idx = np.searchsorted(node_s, anc_s)
            hops_s = hops_s + hops_s[idx]
            anc_s = anc_s[idx]
        return rd.from_arrow(
            pa.table({"doc_id": pa.array(node_s), "depth": pa.array(hops_s)})
        )

    for _ in range(rounds):
        right = jump.map_batches(
            lambda t: pa.table(
                {
                    "jnode": t.column("node"),
                    "janc": t.column("anc"),
                    "jhops": t.column("hops"),
                }
            ),
            batch_format="pyarrow",
        )
        jump = large_join(jump, right, on=["anc"], right_on=["jnode"]).map_batches(
            lambda t: pa.table(
                {
                    "node": t.column("node"),
                    "anc": t.column("janc"),
                    "hops": pa.compute.add(t.column("hops"), t.column("jhops")),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    return jump.map_batches(
        lambda t: pa.table({"doc_id": t.column("node"), "depth": t.column("hops")}),
        batch_format="pyarrow",
    )


CHAIN_DEPTH_SQL = """
SELECT doc_id,
       CAST(CASE WHEN doc_id = 0 THEN 0
                 ELSE LENGTH(bin(doc_id)) END AS BIGINT) AS depth
FROM documents
"""


# ---------------------------------------------------------------------------
# WET-record line dedup (RefinedWeb / MassiveText boilerplate-line removal)
# ---------------------------------------------------------------------------


def wet_records(sf_dir: str) -> rd.Dataset:
    """documents → Common-Crawl-WET-style records: per doc, header lines
    (target URI / language / length) + a blank separator + the payload
    text, joined with newlines. Pure Arrow concat (one
    ``binary_join_element_wise`` kernel, zero per-row Python); URI matches
    ``sources.pages.url_for``. The repeating header lines ARE the corpus
    boilerplate a line-level dedup must strip (Content-Language repeats per
    lang, Content-Length collides across equal-length docs) while URI and
    payload lines stay unique — real drop/keep variety at every scale."""
    import pyarrow.compute as pc

    from kgw_ray.sources.readers import read_table

    docs = read_table(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "source", "n_chars"]
    )

    def _wet(b: pa.Table) -> pa.Table:
        src = b.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        rec = pc.binary_join_element_wise(
            "WARC-Target-URI: https://",
            src,
            ".example.org/doc/",
            pc.utf8_lpad(pc.cast(b.column("doc_id"), pa.string()), 8, "0"),
            "\nContent-Language: ",
            pc.fill_null(b.column("lang"), ""),
            "\nContent-Length: ",
            pc.cast(b.column("n_chars"), pa.string()),
            "\n\n",
            pc.fill_null(b.column("text"), ""),
            "",
        )
        return pa.table({"doc_id": b.column("doc_id"), "text": rec})

    return docs.map_batches(_wet, batch_format="pyarrow")


def line_dedup(
    docs: rd.Dataset,
    *,
    max_df: int = 3,
    broadcast_limit: int = 5_000_000,
) -> rd.Dataset:
    """Corpus line-level dedup (the RefinedWeb / MassiveText
    boilerplate-removal operator): drop every non-blank line occurring in
    ≥ ``max_df`` DISTINCT documents; blank lines are record structure and
    always survive. Output one row per doc: (doc_id, n_lines, n_dropped,
    kept_md5) with kept_md5 = md5 of the surviving lines rejoined.

    Plan: (1) per-batch distinct-(doc, line) combiner
    (``corpus.line_df_partial``) → vocabulary-sized grouped Sum → the
    ``df ≥ max_df`` drop vocabulary, materialized; (2) under
    ``broadcast_limit`` the drop set ships ONCE (``ray.put`` of one sorted
    uint64 array) and the rewrite is a zero-shuffle task map (a doc's
    lines live in one row); beyond it the exploded line table anti-joins
    the drop set (size-hybrid) and docs reassemble per group — the
    10^9-boilerplate-line path, parity-pinned in
    tests/test_line_dedup.py. Line identity is the portable md5-LE uint64
    (functions/porthash.md5_le_u64; SQL twin ``_MD5_LE_UINT64``), so both
    engines agree bit-for-bit, collisions included.

    Reference scope: the reference dedups whole records
    (kgw/_shared/transform.py); line-level text dedup extends the
    LLM-training-data surface (Penedo et al. 2023, Rae et al. 2021).
    """
    import hashlib

    import pyarrow.compute as pc
    import ray

    from kgw_ray.stages.corpus import (
        line_df_partial,
        line_dedup_mark_batch,
        line_rows_batch,
    )

    partials = docs.map_batches(line_df_partial, batch_format="pyarrow")
    counts = grouped_aggregate_hybrid(partials, "lh", [("n", "sum", "n")])
    drop = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], max_df)).select(["lh"]),
        batch_format="pyarrow",
    ).materialize()

    if drop.count() <= broadcast_limit:
        import numpy as np

        chunks = [
            b["lh"].to_numpy(zero_copy_only=False)
            for b in drop.iter_batches(batch_format="pyarrow")
        ]
        drop_sorted = (
            np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, np.uint64)
        )
        ref = ray.put(drop_sorted)
        return docs.map_batches(
            lambda b: line_dedup_mark_batch(b, ray.get(ref)),
            batch_format="pyarrow",
        )

    # scale path: exploded lines → size-hybrid anti join on lh → per-doc
    # reassembly (groups are document-sized)
    import numpy as np

    from kgw_ray.stages.joins import anti_join

    rows = docs.map_batches(line_rows_batch, batch_format="pyarrow")
    cands = rows.map_batches(
        lambda t: t.filter(t["cand"]), batch_format="pyarrow"
    )
    blanks = rows.map_batches(
        lambda t: t.filter(pc.invert(t["cand"])), batch_format="pyarrow"
    )
    kept = anti_join(
        cands, drop, on="lh", key_col="lh", broadcast_limit=broadcast_limit
    ).union(blanks)

    def _assemble(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values("pos")
        joined = "\n".join(df["line"].tolist())
        n_lines = int(df["n_lines"].iloc[0])
        return pa.table(
            {
                "doc_id": pa.array([int(df["doc_id"].iloc[0])], pa.int64()),
                "n_lines": pa.array([n_lines], pa.int64()),
                "n_dropped": pa.array([n_lines - len(df)], pa.int64()),
                "kept_md5": pa.array(
                    [hashlib.md5(joined.encode("utf-8")).hexdigest()], pa.string()
                ),
            }
        )

    out = kept.groupby("doc_id").map_groups(_assemble, batch_format="pandas")

    # docs whose EVERY line dropped vanish from `kept` — reattach them with
    # kept_md5 = md5('') (exactly the oracle's COALESCE(txt, ''))
    from kgw_ray.stages.corpus import _batch_lines

    def _base(b: pa.Table) -> pa.Table:
        counts = (
            _batch_lines(b)[1] if b.num_rows else np.zeros(0, np.int64)
        )
        return pa.table(
            {"doc_id": b.column("doc_id"), "n_lines": pa.array(counts)}
        )

    base = docs.map_batches(_base, batch_format="pyarrow")
    out = out.materialize()
    empty_md5 = hashlib.md5(b"").hexdigest()
    missing = anti_join(
        base, out.select_columns(["doc_id"]), on="doc_id", key_col="doc_id"
    ).map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_lines": t.column("n_lines"),
                "n_dropped": t.column("n_lines"),
                "kept_md5": pa.array([empty_md5] * t.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
    return out.union(missing)


def wet_line_dedup(
    sf_dir: str, *, max_df: int = 3, broadcast_limit: int = 5_000_000
) -> rd.Dataset:
    """WET-record line dedup over the synthesized record corpus — the
    registry query: header boilerplate (Content-Language, colliding
    Content-Length) drops at ``df ≥ max_df``; URI, blank-separator and
    payload lines survive."""
    return line_dedup(
        wet_records(sf_dir), max_df=max_df, broadcast_limit=broadcast_limit
    )


# ---------------------------------------------------------------------------
# Mirror-host detection: outlink-set Jaccard over the host graph
# ---------------------------------------------------------------------------

_MIRROR_MIN_PERMILLE = 250


def mirror_host_pairs(sf_dir: str) -> rd.Dataset:
    """Mirror/syndication host detection: host pairs whose DISTINCT
    outlink-target sets overlap with Jaccard ≥ 250‰ — near-identical
    linking behavior flags mirrors, link farms and boilerplate syndicates
    at the HOST level (the |hosts|-sized problem the doc-level dedup
    family can't see). Output (h1, h2, n_common, jaccard_permille),
    h1 < h2, exact integers.

    Plan: the host graph collapses first (the gated webkg_host_graph
    aggregate — vocabulary-sized), then shared-target pairs enumerate by
    center-sharded wedge fold over the bipartite (dst → srcs) adjacency
    (lexsort + per-segment triu, the common_neighbor_counts shape; Σ
    fan-in² work, cap popular targets upstream at open-web scale) and
    set sizes attach from a host-vocabulary broadcast."""
    import numpy as np
    import pyarrow.compute as pc

    hg = host_graph(sf_dir).select_columns(["src_host", "dst_host"])

    def _ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src_host": t.column("src_host"),
                "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            }
        )

    sizes = grouped_aggregate_hybrid(
        hg.map_batches(_ones, batch_format="pyarrow"),
        "src_host",
        [("one", "sum", "n")],
    )
    from kgw_ray.functions.arrow_utils import typed_pandas as _tp

    sizes = _tp(sizes, ["src_host", "n"])
    import ray as _ray

    size_ref = _ray.put(dict(zip(sizes["src_host"], sizes["n"].astype(int))))

    def _shard(t: pa.Table) -> pa.Table:
        d = t.column("dst_host").to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(d, hash_key="kgw_ray_mirrorsh") % 64
        return t.append_column("shard", pa.array(h.astype("int64")))

    def _pairs(df: pd.DataFrame) -> pa.Table:
        d = df["dst_host"].to_numpy()
        s = df["src_host"].to_numpy()
        order = np.lexsort((s, d))
        d, s = d[order], s[order]
        seg = np.nonzero(np.concatenate(([True], d[1:] != d[:-1])))[0]
        ends = np.append(seg[1:], len(d))
        xs, ys = [], []
        for a, e in zip(seg, ends):
            m = e - a
            if m < 2:
                continue
            i, j = np.triu_indices(m, 1)
            xs.append(s[a:e][i])
            ys.append(s[a:e][j])
        if not xs:
            e0 = pa.array([], pa.string())
            return pa.table({"h1": e0, "h2": e0, "n": pa.array([], pa.int64())})
        packed = pd.DataFrame(
            {"h1": np.concatenate(xs), "h2": np.concatenate(ys)}
        )
        cnt = packed.groupby(["h1", "h2"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "h1": pa.array(cnt["h1"].to_numpy(), pa.string()),
                "h2": pa.array(cnt["h2"].to_numpy(), pa.string()),
                "n": pa.array(cnt["n"].to_numpy().astype(np.int64)),
            }
        )

    pairs = grouped_aggregate_hybrid(
        hg.map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_pairs, batch_format="pandas"),
        ["h1", "h2"],
        [("n", "sum", "n_common")],
    )

    def _score(t: pa.Table) -> pa.Table:
        import ray

        size_of = ray.get(size_ref)
        h1 = t.column("h1").to_numpy(zero_copy_only=False)
        h2 = t.column("h2").to_numpy(zero_copy_only=False)
        n = t.column("n_common").to_numpy(zero_copy_only=False)
        na = np.fromiter((size_of[x] for x in h1), dtype=np.int64, count=len(h1))
        nb = np.fromiter((size_of[x] for x in h2), dtype=np.int64, count=len(h2))
        jp = 1000 * n // (na + nb - n)
        keep = jp >= _MIRROR_MIN_PERMILLE
        return pa.table(
            {
                "h1": pa.array(h1[keep], pa.string()),
                "h2": pa.array(h2[keep], pa.string()),
                "n_common": pa.array(n[keep]),
                "jaccard_permille": pa.array(jp[keep].astype(np.int64)),
            }
        )

    return pairs.map_batches(_score, batch_format="pyarrow")


def _mirror_hosts_sql() -> str:
    return f"""
WITH hg AS (SELECT DISTINCT src_host, dst_host FROM ({HOST_GRAPH_SQL})),
sz AS (SELECT src_host, COUNT(*) AS n FROM hg GROUP BY src_host),
p AS (
  SELECT a.src_host AS h1, b.src_host AS h2, COUNT(*) AS n_common
  FROM hg a JOIN hg b
    ON a.dst_host = b.dst_host AND a.src_host < b.src_host
  GROUP BY a.src_host, b.src_host
)
SELECT h1, h2, CAST(n_common AS BIGINT) AS n_common,
       CAST(1000 * n_common // (sa.n + sb.n - n_common) AS BIGINT)
         AS jaccard_permille
FROM p
JOIN sz sa ON sa.src_host = p.h1
JOIN sz sb ON sb.src_host = p.h2
WHERE 1000 * n_common // (sa.n + sb.n - n_common) >= {_MIRROR_MIN_PERMILLE}
"""


MIRROR_HOSTS_SQL = _mirror_hosts_sql()


def host_outlink_simpson(sf_dir: str) -> rd.Dataset:
    """Per-host outlink concentration: the exact-integer Simpson index of
    each host's weighted outlink distribution, ``1e6·Σw² // W²`` over the
    host-graph link counts — a navigation-template / link-farm signal
    (all links to one target → 1e6; uniform spread → 1e6/k). Host-graph
    aggregate first (the gated webkg_host_graph exchange), then one
    host-vocabulary fold; no corpus-scale work after the collapse."""
    import numpy as np

    hg = host_graph(sf_dir)

    def _fold(df: pd.DataFrame) -> pa.Table:
        w = df["n_links"].to_numpy().astype(np.int64)
        W = int(w.sum())
        s2 = int((w.astype(object) ** 2).sum())
        return pa.table(
            {
                "src_host": pa.array([df["src_host"].iloc[0]], pa.string()),
                "n_targets": pa.array([len(w)], pa.int64()),
                "total_links": pa.array([W], pa.int64()),
                "simpson_micro": pa.array(
                    [1_000_000 * s2 // (W * W)], pa.int64()
                ),
            }
        )

    return hg.groupby("src_host").map_groups(_fold, batch_format="pandas")


HOST_OUTLINK_SIMPSON_SQL = f"""
WITH hg AS ({HOST_GRAPH_SQL})
SELECT src_host,
       CAST(COUNT(*) AS BIGINT) AS n_targets,
       CAST(SUM(n_links) AS BIGINT) AS total_links,
       CAST(1000000 * SUM(CAST(n_links AS HUGEINT) * n_links)
            // (CAST(SUM(n_links) AS HUGEINT) * SUM(n_links)) AS BIGINT)
         AS simpson_micro
FROM hg GROUP BY src_host
"""
