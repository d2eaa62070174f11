"""Per-partition checkpoint/resume tests: a killed run must resume without
recomputing completed partitions (BASELINE.json north_star)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from kgw_ray.state.manifest import (
    partition_input_shards,
    partition_metrics,
    resumable_partitioned_run,
)


@pytest.fixture()
def shard_files(tmp_path):
    files = []
    for i in range(6):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(
            pa.table({"doc_id": pa.array([i * 10 + j for j in range(5)], pa.int64())}),
            p,
        )
        files.append(p)
    return files


def test_shard_assignment_deterministic(shard_files):
    a = partition_input_shards(shard_files, 3)
    b = partition_input_shards(list(reversed(shard_files)), 3)
    assert a == b
    assert sum(len(s) for s in a) == 6 and len(a) == 3


def test_partitioned_run_and_metrics(shard_files, tmp_path):
    out = str(tmp_path / "stage")
    shards = partition_input_shards(shard_files, 3)

    def fn(paths):
        return rd.read_parquet(paths)

    ds = resumable_partitioned_run(out, "s", "fp1", shards, fn)
    assert ds.count() == 30
    metrics = partition_metrics(out)
    assert len(metrics) == 3
    assert all(m["num_rows"] == 10 for m in metrics)
    assert all(m["wall_time_sec"] > 0 for m in metrics)
    assert [m["extra"]["partition"] for m in metrics] == [0, 1, 2]


def test_killed_run_resumes_without_recompute(shard_files, tmp_path):
    out = str(tmp_path / "stage")
    shards = partition_input_shards(shard_files, 3)
    calls = []

    def failing_fn(paths):
        calls.append(tuple(paths))
        if len(calls) == 3:  # "kill" during the third partition
            raise RuntimeError("simulated kill")
        return rd.read_parquet(paths)

    with pytest.raises(RuntimeError, match="simulated kill"):
        resumable_partitioned_run(out, "s", "fp1", shards, failing_fn)
    assert len(partition_metrics(out)) == 2  # two committed, third dead

    mtimes = {
        m["partition_dir"]: os.path.getmtime(
            os.path.join(out, m["partition_dir"], "_MANIFEST.json")
        )
        for m in partition_metrics(out)
    }

    calls2 = []

    def fn2(paths):
        calls2.append(tuple(paths))
        return rd.read_parquet(paths)

    ds = resumable_partitioned_run(out, "s", "fp1", shards, fn2)
    assert ds.count() == 30
    assert len(calls2) == 1  # ONLY the incomplete partition recomputed
    for m in partition_metrics(out)[:2]:
        assert (
            os.path.getmtime(os.path.join(out, m["partition_dir"], "_MANIFEST.json"))
            == mtimes[m["partition_dir"]]
        )


def test_stale_fingerprint_reruns(shard_files, tmp_path):
    out = str(tmp_path / "stage")
    shards = partition_input_shards(shard_files, 2)

    def fn(paths):
        return rd.read_parquet(paths)

    resumable_partitioned_run(out, "s", "fp1", shards, fn)
    calls = []

    def fn2(paths):
        calls.append(1)
        return rd.read_parquet(paths)

    resumable_partitioned_run(out, "s", "fp2", shards, fn2)
    assert len(calls) == 2  # new lineage → all partitions rerun


def test_build_webkg_partitioned(tmp_path):
    """End-to-end partitioned flagship == streaming flagship results."""
    import shutil

    src = "/root/testdata/sf0.001/documents.parquet"
    files = []
    t = pq.read_table(src, columns=["doc_id", "text", "lang", "source"])
    third = t.num_rows // 3
    for i in range(3):
        p = str(tmp_path / f"docs-{i}.parquet")
        sl = t.slice(i * third, third if i < 2 else None)
        pq.write_table(sl, p)
        files.append(p)

    from kgw_ray.pipelines.webkg import (
        build_webkg_partitioned,
        edges_from_triples,
        triples_dataset,
    )

    out = str(tmp_path / "out")
    edges = build_webkg_partitioned(files, out, num_partitions=3)
    expected = edges_from_triples(triples_dataset("/root/testdata/sf0.001"))
    got = edges.to_pandas().sort_values(["source_id", "type", "target_id"]).reset_index(drop=True)
    want = (
        expected.to_pandas()
        .sort_values(["source_id", "type", "target_id"])
        .reset_index(drop=True)
    )
    assert got.equals(want)
    assert len(partition_metrics(os.path.join(out, "edge_partials"))) == 3


def test_build_webkg_partitioned_full(tmp_path):
    """Partitioned nodes+edges == streaming flagship nodes+edges."""
    src = "/root/testdata/sf0.001/documents.parquet"
    files = []
    t = pq.read_table(src, columns=["doc_id", "text", "lang", "source"])
    half = t.num_rows // 2
    for i in range(2):
        p = str(tmp_path / f"docs-{i}.parquet")
        pq.write_table(t.slice(i * half, half if i < 1 else None), p)
        files.append(p)

    from kgw_ray.pipelines.webkg import (
        build_webkg_partitioned_full,
        nodes_from_triples,
        triples_dataset,
    )

    out = str(tmp_path / "out")
    nodes, edges = build_webkg_partitioned_full(files, out, num_partitions=2)
    got = nodes.to_pandas().sort_values("id").reset_index(drop=True)
    want = (
        nodes_from_triples(triples_dataset("/root/testdata/sf0.001"))
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert got.equals(want)
    assert edges.count() > 0


def test_build_webkg_partitioned_full_one_corpus_pass(tmp_path, monkeypatch):
    """Nodes fold from the committed edges: the page pipeline is built once
    per partition (one document scan each) and no node partials are
    written."""
    from kgw_ray.pipelines import webkg
    from tests.conftest import SF_SMOKE

    t = pq.read_table(
        os.path.join(SF_SMOKE, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    )
    half = t.num_rows // 2
    files = []
    for i in range(2):
        p = str(tmp_path / f"docs-{i}.parquet")
        pq.write_table(t.slice(i * half, half if i < 1 else None), p)
        files.append(p)

    scans = []
    scan = webkg.scan_parquet

    def counted(paths, **kw):
        scans.append(list(paths))
        return scan(paths, **kw)

    monkeypatch.setattr(webkg, "scan_parquet", counted)
    out = str(tmp_path / "out")
    nodes, edges = webkg.build_webkg_partitioned_full(files, out, num_partitions=2)
    assert nodes.count() > 0 and edges.count() > 0
    assert sorted(p for ps in scans for p in ps) == sorted(files)
    assert len(scans) == 2
    assert not os.path.exists(os.path.join(out, "node_partials"))


def test_stale_tmp_dirs_cleaned(tmp_path):
    """Orphaned .tmp-<uuid> dirs from a killed run are removed when the
    stage next executes (they would otherwise leak a full output copy per
    crash, forever)."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from kgw_ray.state.manifest import resumable_stage

    out = str(tmp_path / "stage_out")
    stale = f"{out}.tmp-deadbeef"
    os.makedirs(stale)
    open(os.path.join(stale, "leftover.parquet"), "w").write("x")
    resumable_stage(
        out, "s", "fp", lambda: rd.from_arrow(pa.table({"x": [1, 2]}))
    )
    assert not os.path.exists(stale)
    assert os.path.exists(os.path.join(out, "_MANIFEST.json"))
