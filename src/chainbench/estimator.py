"""Baseline cardinality estimator: per-column equi-depth histograms combined
under the independence assumption.

Statistics are exact full scans (no sampling): at desk scale exactness is
affordable and removes a noise source, so any drift in estimate quality is
attributable to the staleness of the catalog, not to sampling error. A
catalog is immutable once built and pinned to the state it was built on,
which is what makes the refreshed-vs-stale comparison meaningful.

Composition rules: estimate = product of table row counts, filter
selectivities, and equi-join selectivities (1 / max ndv). Range predicates
interpolate fractional bucket coverage; equality uses the most-common-value
list with an ndv fallback; substring predicates use fixed constants (0.005
contains / 0.995 not-contains) so their failure mode stays transparent.
Join selectivity reads only the distinct count, so a probe builds histograms
and most-common-value lists for the columns its filters read, and only the
exact distinct count for a column that join edges alone read.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .chain_model import PRIMARY_KEYS, SCHEMA
from .memstore import SPJQuery, Store


class EstimateError(KeyError):
    """A column the catalog has no statistics for. A ``KeyError``, so callers
    catching one still catch it, but its text is the message itself, where a
    ``KeyError`` quotes its key."""

    __str__ = Exception.__str__


@dataclass(frozen=True)
class ColumnStats:
    n_rows: int  # total rows scanned, nulls included
    null_fraction: float
    ndv: int  # distinct non-null values, exact
    boundaries: tuple = ()  # equi-depth bucket bounds over non-null values
    mcv: tuple[tuple[object, float], ...] = ()  # (value, fraction of non-null)
    bool_true_fraction: float | None = None

    @property
    def mcv_mass(self) -> float:
        return sum(f for _, f in self.mcv)

    @property
    def n_buckets(self) -> int:
        return max(0, len(self.boundaries) - 1)


def build_column_stats(values: list, n_buckets: int = 100, mcv_k: int = 10) -> ColumnStats:
    n_rows = len(values)
    counts = Counter(values)
    n_null = counts.pop(None, 0)
    n = n_rows - n_null  # non-null values
    null_fraction = 1.0 - n / n_rows if n_rows else 0.0
    ndv = len(counts)

    if counts and all(isinstance(v, bool) for v in counts):
        return ColumnStats(n_rows, null_fraction, ndv, (), (), counts[True] / n)
    if not counts:
        return ColumnStats(n_rows, null_fraction, 0)

    # Upper bound at each bucket's last rank: populations are equal to
    # within one row by construction. Only the ndv distinct values are sorted;
    # rank r of the sorted column is the first of them whose cumulative count
    # exceeds r.
    keys = sorted(counts)
    buckets = min(n_buckets, n)
    ranks = [(j * n) // buckets - 1 for j in range(1, buckets + 1)]
    if ndv == n:  # every value distinct (hash columns): rank r is keys[r]
        bounds = [keys[r] for r in ranks]
        top = range(min(mcv_k, ndv))
    else:
        freq = [counts[k] for k in keys]
        cumulative = list(accumulate(freq))
        bounds = [keys[bisect_right(cumulative, r)] for r in ranks]
        # nlargest is stable, so tied counts keep ascending value order.
        top = heapq.nlargest(mcv_k, range(ndv), key=freq.__getitem__)
    boundaries = (keys[0], *bounds)
    mcv = tuple((keys[i], counts[keys[i]] / n) for i in top)
    return ColumnStats(n_rows, null_fraction, ndv, boundaries, mcv)


@dataclass
class StatsCatalog:
    built_at: str
    row_counts: dict[str, int]
    columns: dict[tuple[str, str], ColumnStats] = field(default_factory=dict)
    # Columns that only join edges read: their exact distinct non-null count.
    distinct: dict[tuple[str, str], int] = field(default_factory=dict)
    # Estimates already made from this catalog, by query: filled by
    # ``eval_harness.evaluate_state``, so a catalog probed in many states
    # (the ``initial`` policy's) estimates each query once.
    estimates: dict[SPJQuery, float] = field(default_factory=dict, compare=False, repr=False)

    def stats(self, table: str, column: str) -> ColumnStats:
        try:
            return self.columns[(table, column)]
        except KeyError:
            have = "only a distinct count" if (table, column) in self.distinct else "no statistics"
            raise EstimateError(f"{have} for {table}.{column}") from None

    def ndv(self, table: str, column: str) -> int:
        if (table, column) in self.distinct:
            return self.distinct[(table, column)]
        return self.stats(table, column).ndv


def refresh(
    store: Store,
    label: str = "",
    n_buckets: int = 100,
    columns: set[tuple[str, str]] | None = None,
    distinct: set[tuple[str, str]] = frozenset(),
) -> StatsCatalog:
    """Build a catalog from full column scans of the current store state.

    ``columns`` get full statistics, by default every schema column. A column
    only in ``distinct`` gets its exact distinct non-null count and nothing
    else: all that a join edge reads. That count is not scanned for a column
    that is its table's whole primary key: the store refuses a duplicate or
    NULL key, so it is the table's row count. Rebuilding on an unchanged store
    yields an identical catalog.
    """
    if columns is None:
        columns = {(table, name) for table, cols in SCHEMA.items() for name, _ in cols}
    cat = StatsCatalog(
        built_at=label,
        row_counts={table: store.row_count(table) for table in SCHEMA},
    )
    for table, name in sorted(columns):
        cat.columns[(table, name)] = build_column_stats(list(store.column(table, name)), n_buckets=n_buckets)
    for table, name in sorted(distinct - columns):
        if PRIMARY_KEYS[table] == (name,):
            cat.distinct[(table, name)] = cat.row_counts[table]
            continue
        cells = set(store.column(table, name))
        cells.discard(None)
        cat.distinct[(table, name)] = len(cells)
    return cat


def _interval_fraction(stats: ColumnStats, lo, hi) -> float:
    """Fraction of non-null mass inside [lo, hi], by bucket interpolation."""
    bounds = stats.boundaries
    if not bounds or lo > hi:
        return 0.0
    buckets = len(bounds) - 1
    if buckets == 0:
        return 1.0 if lo <= bounds[0] <= hi else 0.0
    total = 0.0
    for j in range(1, buckets + 1):
        b_lo, b_hi = bounds[j - 1], bounds[j]
        if b_hi < lo or b_lo > hi:
            continue
        if b_lo == b_hi:
            total += 1.0
            continue
        if isinstance(b_lo, (int, float)) and not isinstance(b_lo, bool):
            overlap = min(hi, b_hi) - max(lo, b_lo)
            total += max(0.0, min(1.0, overlap / (b_hi - b_lo)))
        else:
            # Non-numeric ordering: count fully covered buckets, half credit
            # for partially covered ones.
            total += 1.0 if (lo <= b_lo and b_hi <= hi) else 0.5
    return min(1.0, total / buckets)


def _equality_fraction(stats: ColumnStats, value) -> float:
    for v, f in stats.mcv:
        if v == value:
            return f
    k = len(stats.mcv)
    if stats.ndv <= k:
        return 0.0
    return (1.0 - stats.mcv_mass) / (stats.ndv - k)


def _filter_selectivity(stats: ColumnStats, op: str, value) -> float:
    non_null = 1.0 - stats.null_fraction
    if stats.n_rows == 0:
        return 0.0
    if op == "range":
        lo, hi = value
        return non_null * _interval_fraction(stats, lo, hi)
    if op == "ge":
        if not stats.boundaries:
            return 0.0
        return non_null * _interval_fraction(stats, value, stats.boundaries[-1])
    if op == "le":
        if not stats.boundaries:
            return 0.0
        return non_null * _interval_fraction(stats, stats.boundaries[0], value)
    if op == "eq":
        return non_null * _equality_fraction(stats, value)
    if op == "ne":
        return non_null * (1.0 - _equality_fraction(stats, value))
    if op == "is_true":
        return non_null * (stats.bool_true_fraction or 0.0)
    if op == "is_false":
        frac = stats.bool_true_fraction if stats.bool_true_fraction is not None else 1.0
        return non_null * (1.0 - frac)
    if op == "contains":
        return 0.005
    if op == "not_contains":
        return 0.995
    raise ValueError(f"unknown filter op {op!r}")


def estimate(cat: StatsCatalog, q: SPJQuery) -> float:
    """Estimated output cardinality of the join+filter; never negative."""
    amap = q.alias_map
    result = 1.0
    for table in amap.values():
        result *= cat.row_counts[table]
    for f in q.filters:
        stats = cat.stats(amap[f.alias], f.column)
        result *= _filter_selectivity(stats, f.op, f.value)
    for edge in q.joins:
        left = cat.ndv(amap[edge.left_alias], edge.left_column)
        top_ndv = max(left, cat.ndv(amap[edge.right_alias], edge.right_column))
        result *= (1.0 / top_ndv) if top_ndv else 0.0
    return max(0.0, result)


# ---------------------------------------------------------------------------
# JSON round trip, so a stale ("initial") catalog can be pinned and replayed.


def _encode_value(v):
    if v is None:
        return None
    if isinstance(v, bool):
        return {"t": v}
    if isinstance(v, int):
        return {"i": str(v)}
    if isinstance(v, float):
        return {"f": v}
    if isinstance(v, bytes):
        return {"b": "0x" + v.hex()}
    if isinstance(v, str):
        return {"s": v}
    if isinstance(v, tuple):  # list-valued columns such as function_sighashes
        return {"l": [_encode_value(x) for x in v]}
    raise TypeError(f"unsupported stat value {type(v).__name__}")


def _decode_value(v):
    if v is None:
        return None
    if "t" in v:
        return v["t"]
    if "i" in v:
        return int(v["i"])
    if "f" in v:
        return v["f"]
    if "b" in v:
        return bytes.fromhex(v["b"][2:])
    if "l" in v:
        return tuple(_decode_value(x) for x in v["l"])
    return v["s"]


def catalog_to_dict(cat: StatsCatalog) -> dict:
    out = {
        "built_at": cat.built_at,
        "row_counts": dict(sorted(cat.row_counts.items())),
        "columns": {
            f"{table}.{col}": {
                "n_rows": st.n_rows,
                "null_fraction": st.null_fraction,
                "ndv": st.ndv,
                "boundaries": [_encode_value(b) for b in st.boundaries],
                "mcv": [[_encode_value(v), f] for v, f in st.mcv],
                "bool_true_fraction": st.bool_true_fraction,
            }
            for (table, col), st in sorted(cat.columns.items())
        },
    }
    if cat.distinct:  # a catalog of full statistics only keeps its older form
        out["distinct"] = {f"{table}.{col}": n for (table, col), n in sorted(cat.distinct.items())}
    return out


def catalog_from_dict(data: dict) -> StatsCatalog:
    cat = StatsCatalog(built_at=data["built_at"], row_counts=dict(data["row_counts"]))
    for key, st in data["columns"].items():
        table, col = key.rsplit(".", 1)
        cat.columns[(table, col)] = ColumnStats(
            n_rows=st["n_rows"],
            null_fraction=st["null_fraction"],
            ndv=st["ndv"],
            boundaries=tuple(_decode_value(b) for b in st["boundaries"]),
            mcv=tuple((_decode_value(v), f) for v, f in st["mcv"]),
            bool_true_fraction=st["bool_true_fraction"],
        )
    for key, n in data.get("distinct", {}).items():
        table, col = key.rsplit(".", 1)
        cat.distinct[(table, col)] = n
    return cat


def save_catalog(cat: StatsCatalog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog_to_dict(cat), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_catalog(path: str | Path) -> StatsCatalog:
    with open(path, encoding="utf-8") as fh:
        return catalog_from_dict(json.load(fh))
