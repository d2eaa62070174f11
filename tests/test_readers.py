"""The footer-planned Parquet reader (sources/readers.py:scan_parquet):
the same rows and schema as ``pyarrow.dataset`` with the pandas metadata
stripped, no Ray task while the read is planned, one fused operator with
the map after it, and a ``count()`` that runs nothing."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray

from kgw_ray.sources.readers import read_table, scan_parquet
from tests.conftest import SF_SMOKE


def _frame(i: int, n: int) -> pd.DataFrame:
    ids = np.arange(i * n, (i + 1) * n)
    return pd.DataFrame(
        {"doc_id": ids, "lang": np.where(ids % 3 == 0, "en", "de"),
         "text": [f"t{j}" for j in ids], "score": ids * 0.5}
    )


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """pandas-written Parquet (schema metadata included): one file with
    six row groups, a 32-file shard directory, an empty table and a hive
    directory."""
    d = tmp_path_factory.mktemp("readers")
    pq.write_table(pa.Table.from_pandas(_frame(0, 600)), d / "file.parquet", row_group_size=100)
    os.makedirs(d / "shards.parquet")
    for i in range(32):
        pq.write_table(pa.Table.from_pandas(_frame(i, 40)), d / "shards.parquet" / f"part-{i:04d}.parquet")
    pq.write_table(pa.Table.from_pandas(_frame(0, 0)), d / "empty.parquet")
    for lang in ("de", "en"):
        os.makedirs(d / "hive" / f"lang={lang}")
        f = _frame(0, 90).query("lang == @lang").drop(columns=["lang"])
        pq.write_table(pa.Table.from_pandas(f, preserve_index=False), d / "hive" / f"lang={lang}" / "a.parquet")
    return d


def _blocks(ds) -> list[pa.Table]:
    return ray.get(ds.to_arrow_refs())


CASES = {
    "file": ("file.parquet", {}),
    "directory": ("shards.parquet", {}),
    "columns": ("shards.parquet", {"columns": ["text", "doc_id"]}),
    "filter_unprojected": (
        "shards.parquet", {"columns": ["doc_id"], "filter": pc.field("lang") == "en"}),
    "empty": ("empty.parquet", {}),
    "hive": ("hive", {}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_parity_with_pyarrow_dataset(case, tables):
    path, kw = CASES[case]
    path = str(tables / path)
    want = pads.dataset(path, partitioning="hive").to_table(**kw)
    blocks = _blocks(scan_parquet(path, **kw))
    got = pa.concat_tables(blocks)
    assert got.schema.equals(want.schema)
    for t in blocks:
        assert t.schema.metadata is None
        assert all(f.metadata is None for f in t.schema)
    key = [("doc_id", "ascending")]
    assert got.sort_by(key).equals(want.sort_by(key))


def test_read_table_is_scan_of_the_table_file():
    want = pads.dataset(os.path.join(SF_SMOKE, "orders.parquet")).to_table(
        columns=["o_orderkey", "o_totalprice"])
    got = pa.concat_tables(_blocks(read_table(SF_SMOKE, "orders", columns=["o_orderkey", "o_totalprice"])))
    assert got.sort_by("o_orderkey").equals(want.sort_by("o_orderkey"))
    assert got.schema.metadata is None


def _batch_rows(ds) -> list[int]:
    sizes = ds.map_batches(lambda t: pa.table({"n": [t.num_rows]}), batch_format="pyarrow")
    return sorted(sizes.to_pandas()["n"])


def test_one_block_per_row_group(tables):
    # the map after the read sees every row group as one batch: six row
    # groups of one file are six read pieces at 4 CPUs, and 32 files are
    # 8 tasks of four files
    assert _batch_rows(scan_parquet(str(tables / "file.parquet"))) == [100] * 6
    assert _batch_rows(scan_parquet(str(tables / "shards.parquet"))) == [40] * 32


def test_planning_submits_no_task(tables, monkeypatch):
    from ray.remote_function import RemoteFunction

    submitted = []
    orig = RemoteFunction._remote

    def record(self, *a, **k):
        submitted.append(self._function_name)
        return orig(self, *a, **k)

    monkeypatch.setattr(RemoteFunction, "_remote", record)
    read_table(str(tables), "shards", columns=["doc_id", "text"])
    read_table(str(tables), "file", filter=pc.field("lang") == "en")
    assert submitted == []


def test_read_fuses_with_its_map(tables, executions):
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("x", pc.add(t.column("doc_id"), 1))

    for name in ("shards", "file"):
        read_table(str(tables), name, columns=["doc_id"]).map_batches(
            tag, batch_format="pyarrow").materialize()
    assert len(executions) == 2
    for ops in executions:
        work = [op for op in ops if not op.startswith("InputDataBuffer")]
        assert work == ["TaskPoolMapOperator:ReadParquet->MapBatches(tag)"], ops


def test_count_runs_no_execution(tables, executions):
    assert read_table(str(tables), "shards").count() == 32 * 40
    assert read_table(str(tables), "file", columns=["doc_id"]).count() == 600
    assert read_table(str(tables), "empty").count() == 0
    assert executions == []
