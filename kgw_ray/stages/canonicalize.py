"""Canonicalization: connected components over candidate-match pairs.

The reference dedups entities with in-memory first-wins sets
(kgw/biomedicine/_primekg.py:182,210-211; _oregano.py:190-196) — O(nodes)
driver memory, its scale ceiling. Here canonicalization is a distributed
union-find expressed as iterated min-label propagation over ``groupby``
shuffles (SURVEY.md §7 hard part 6): converges in O(log n) rounds over the
pair set, never holds the full id universe on one machine.

``connected_components(pairs)`` takes a Dataset of undirected edges
(a:string, b:string) and returns (id:string, component:string) where
``component`` is the lexicographically smallest id reachable from ``id``:
a ``pa.Table`` from the driver union-find (:func:`union_find`, shared
with the MinHash dedup) while the pair set is driver-sized, a Dataset
from the distributed propagation beyond.
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd
import pyarrow as pa
import ray.data as rd

from kgw_ray.stages.agg import pull


def _nparts() -> int:
    from kgw_ray.stages.joins import default_join_partitions

    return default_join_partitions()
from ray.data.aggregate import Min


def _symmetrize(pairs: rd.Dataset) -> rd.Dataset:
    def both(df: pd.DataFrame) -> pd.DataFrame:
        fwd = df.rename(columns={"a": "id", "b": "nbr"})[["id", "nbr"]]
        rev = df.rename(columns={"b": "id", "a": "nbr"})[["id", "nbr"]]
        selfloop = pd.DataFrame({"id": df["a"], "nbr": df["a"]})
        selfloop2 = pd.DataFrame({"id": df["b"], "nbr": df["b"]})
        return pd.concat([fwd, rev, selfloop, selfloop2], ignore_index=True)

    return pairs.map_batches(both, batch_format="pandas")


_DRIVER_PAIR_LIMIT = 5_000_000


def union_find(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Driver union-find over the pairs ``(a[i], b[i])``: every id that
    appears, sorted, and the smallest id of its component. Python values
    order themselves: numeric for integer ids, lexicographic for strings."""
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        if rx != ry:
            # min-root union: the root is the component's smallest id
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
    members = sorted(set(a) | set(b))
    return members, [find(m) for m in members]


def connected_components(
    pairs: rd.Dataset, max_iter: int = 16
) -> "pa.Table | rd.Dataset":
    """Min-label propagation with pointer jumping. pairs: columns (a, b).
    Returns (id, component).

    Small-graph fast path: a pair set ≤ 5M rows is pulled by reference and
    merged with driver-side union-find (candidate-match pair sets are tiny
    relative to the corpus — seconds vs a dozen join rounds); the result
    is a ``pa.Table``, as a fold's driver branch returns (callers chaining
    Dataset ops wrap it with ``stages.agg.as_dataset``). Beyond that,
    distributed label propagation, returned as a Dataset: each round takes
    the min over neighbors' labels AND then
    jumps ``label ← label(label)`` (pointer doubling), so the covered
    radius roughly doubles per round — ``max_iter=16`` handles component
    diameters far beyond any real near-dup chain. A non-converged exit
    RAISES instead of silently returning split components. Partition key
    throughout: ``id`` — one hash shuffle per round over a table that is ≤
    |pairs| rows, not the full corpus.
    """
    # compact two-column projection, materialized ONCE: the size probe and
    # both physical paths must not re-execute the pairs pipeline
    pairs = pairs.select_columns(["a", "b"]).materialize()
    if pairs.count() <= _DRIVER_PAIR_LIMIT:
        t = pull(pairs)
        if t.num_rows == 0 or "a" not in t.column_names:
            return pa.table(
                {"id": pa.array([], pa.string()), "component": pa.array([], pa.string())}
            )
        members, roots = union_find(t.column("a").to_pylist(), t.column("b").to_pylist())
        return pa.table({"id": pa.array(members), "component": pa.array(roots)})

    adj = _symmetrize(pairs).materialize()
    # initial label = min neighbor (includes self)
    labels = adj.groupby("id").aggregate(Min("nbr", alias_name="component"))
    labels_mat = labels.materialize()
    for _ in range(max_iter):
        # propagate: join neighbor's current label onto each edge, take min per id
        nbr_labels = adj.join(
            labels_mat,
            join_type="inner",
            num_partitions=_nparts(),
            on=("nbr",),
            right_on=("id",),
            right_suffix="_r",
        )
        new_labels = nbr_labels.groupby("id").aggregate(
            Min("component", alias_name="component")
        ).materialize()
        # pointer jump: component ← label(component). Neighbor-min alone
        # covers distance r after r rounds; the jump doubles the covered
        # radius per round (label values are themselves ids in the label
        # table, so an inner self-join resolves them)
        lab_of_lab = new_labels.rename_columns(
            {"id": "component", "component": "component_jump"}
        )
        jumped = new_labels.join(
            lab_of_lab,
            join_type="inner",
            num_partitions=_nparts(),
            on=("component",),
            right_suffix="_j",
        )

        def take_jump(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "id": df["id"],
                    "component": df[["component", "component_jump"]].min(axis=1),
                }
            )

        new_mat = jumped.map_batches(take_jump, batch_format="pandas").materialize()
        # convergence: has any label changed?
        joined = new_mat.join(
            labels_mat,
            join_type="inner",
            num_partitions=_nparts(),
            on=("id",),
            right_suffix="_old",
        )
        changed = joined.map_batches(
            lambda df: pd.DataFrame(
                {"n": [int((df["component"] != df["component_old"]).sum())]}
            ),
            batch_format="pandas",
        ).sum("n")
        labels_mat = new_mat
        if not changed:
            return labels_mat
    raise RuntimeError(
        f"connected_components did not converge in {max_iter} pointer-jump "
        "rounds — component diameter exceeds 2^max_iter or the pair set is "
        "inconsistent; raise max_iter explicitly"
    )
