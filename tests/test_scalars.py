"""Unit tests for shared scalar functions (reference golden cases,
tests/test_shared.py:72-84)."""

from kgw_ray.functions.scalars import clean, filter_informative, is_informative_value


def test_is_informative_value():
    for val in [0, 1, -3.14, "a", " ", [], {}, [1], {"a": 1}, False, True]:
        assert is_informative_value(val)
    for val in [None, "", float("nan")]:
        assert not is_informative_value(val)


def test_clean_golden():
    assert clean(1) == "1"
    assert clean(3.14) == "3.14"
    assert clean("a c") == '"a c"'
    assert clean([1, 3.14, "a c"]) == r'"[1,3.14,\"a c\"]"'


def test_filter_informative_preserves_order():
    d = {"b": 1, "a": None, "c": "", "d": "x"}
    assert list(filter_informative(d).items()) == [("b", 1), ("d", "x")]


def test_salted_aggregate_equivalence(sf_smoke):
    """Salted two-phase sums == plain groupby sums (skew-path correctness)."""
    import pandas as pd

    from kgw_ray.sources.readers import read_table
    from kgw_ray.stages.agg import salted_aggregate

    ds = read_table(sf_smoke, "events", columns=["event_type", "value"])
    got = (
        salted_aggregate(ds, "event_type", ["value"], salt=8)
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    want = (
        ds.to_pandas()
        .groupby("event_type", as_index=False)["value"]
        .sum()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    pd.testing.assert_series_equal(
        got["value"].round(6), want["value"].round(6), check_names=False
    )


def test_tuning_profiles(ray_session):
    from ray.data import DataContext

    from kgw_ray.tuning import MiB, configure, recommended_batch_size

    before = DataContext.get_current().target_max_block_size
    try:
        ctx = configure("binary")
        assert ctx.target_max_block_size == 32 * MiB
        configure("text")
        assert DataContext.get_current().target_max_block_size == 128 * MiB
        import pytest

        with pytest.raises(ValueError, match="unknown profile"):
            configure("nope")
    finally:
        DataContext.get_current().target_max_block_size = before

    # 5 MB payloads, 8 actors, 2 GiB heap, 8x working set → 6 rows
    assert recommended_batch_size(5 * MiB, concurrency=8) == 6
