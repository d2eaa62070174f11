"""Arrow block hygiene.

Blocks whose schema carries pandas metadata (written by pandas→Parquet, or
produced by ``pa.Table.from_pandas``) defeat Ray Data's schema deduplication
("Failed to hash the schemas: unhashable type: 'dict'") and send every
shuffle down a slow schema-unification path — measured 20× slowdown on a
sort-based aggregate at sf0.01. Strip custom schema metadata at the source
and whenever converting pandas → Arrow.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def arrow_from_pandas(df: pd.DataFrame) -> pa.Table:
    """pandas → Arrow without the pandas schema-metadata payload."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def typed_pandas(ds, columns):
    """Driver-side pull that survives the repo-wide empty-pull hazard: a
    zero-row Ray ``to_pandas()`` drops its columns, so rebuild the typed
    empty frame from ``columns`` (the caller's expected names) when they
    are missing. Nonempty pulls pass through untouched."""
    import pandas as pd

    df = ds.to_pandas()
    if len(df) == 0 and not set(columns).issubset(df.columns):
        return pd.DataFrame({c: [] for c in columns})
    return df
