import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainbench import memstore
from chainbench.chain_model import FOREIGN_KEYS, PRIMARY_KEYS, SCHEMA, AddressRow
from chainbench.estimator import (
    EstimateError,
    build_column_stats,
    catalog_from_dict,
    catalog_to_dict,
    estimate,
    refresh,
)
from chainbench.eval_harness import enumerate_subqueries, probe_columns
from chainbench.memstore import Filter, InsertRow, JoinEdge, SPJQuery, Store, apply_ops
from chainbench.query_assets import q1_spj
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, gen_batches, gen_initial

from util import (
    addr,
    full_catalog_digests,
    make_block,
    make_tx,
    max_ndv_estimate,
    naive_column_stats,
    random_spj,
)


@pytest.fixture(scope="module")
def store():
    ds = generate(SynthConfig(seed=55, n_blocks=110, mean_tx_per_block=100, address_pool=200, n_tokens=10))
    return Store.from_dataset(ds)


def test_equi_depth_buckets_uniform():
    stats = build_column_stats(list(range(1000)), n_buckets=100)
    assert len(stats.boundaries) == 101
    assert stats.boundaries[0] == 0
    assert stats.boundaries[-1] == 999
    widths = [b - a for a, b in zip(stats.boundaries[1:], stats.boundaries[2:])]
    assert all(w == 10 for w in widths)
    assert stats.ndv == 1000
    assert stats.null_fraction == 0.0


def test_all_null_column():
    stats = build_column_stats([None] * 50)
    assert stats.null_fraction == 1.0
    assert stats.boundaries == ()
    assert stats.ndv == 0


def test_boolean_column_stats():
    stats = build_column_stats([True] * 30 + [False] * 10 + [None] * 10)
    assert stats.bool_true_fraction == 0.75
    assert stats.null_fraction == pytest.approx(0.2)


def test_refresh_deterministic(store):
    c1 = refresh(store, label="S")
    c2 = refresh(store, label="S")
    assert c1.row_counts == c2.row_counts
    assert c1.columns == c2.columns


def test_unfiltered_single_table_is_exact(store):
    cat = refresh(store)
    q = SPJQuery.build(tables={"tx": "transactions"})
    assert estimate(cat, q) == store.row_count("transactions")


def test_uniform_key_join_estimate():
    store = Store()
    ops = [InsertRow("addresses", AddressRow(addr(0), 0))]  # miner
    ops += [
        InsertRow("addresses", AddressRow(bytes([1, i // 256, i % 256] + [0] * 17), 10**18))
        for i in range(1000)
    ]
    ops.append(InsertRow("blocks", make_block(0, miner=addr(0))))
    senders = [bytes([1, i // 256, i % 256] + [0] * 17) for i in range(500)]
    ops += [
        InsertRow("transactions", make_tx(i, 0, senders[i], None, 0, nonce=0, index=i))
        for i in range(500)
    ]
    apply_ops(store, ops)
    cat = refresh(store)
    q = SPJQuery.build(
        tables={"tx": "transactions", "a": "addresses"},
        joins=[("tx", "from_address", "a", "address")],
    )
    est = estimate(cat, q)
    actual = memstore.count(store, q)
    assert actual == 500
    assert est == pytest.approx(500, rel=0.01)


def test_correlated_filters_fool_independence():
    # Rows 0..99 have gas in [100k, 200k] and nonce 0..99; the nonce band
    # [900, 999] only hits rows whose gas is out of band. Each filter alone
    # keeps 10% of rows but their conjunction is empty.
    store = Store()
    ops = [InsertRow("addresses", AddressRow(addr(1), 10**18)), InsertRow("blocks", make_block(0))]
    for i in range(1000):
        gas = 150_000 if i < 100 else 250_000
        row = make_tx(i, 0, addr(1), None, 0, nonce=i, index=i)._replace(gas=gas)
        ops.append(InsertRow("transactions", row))
    apply_ops(store, ops)
    cat = refresh(store)
    q = SPJQuery.build(
        tables={"tx": "transactions"},
        filters=[
            Filter("tx", "gas", "range", (100_000, 200_000)),
            Filter("tx", "nonce", "range", (900, 999)),
        ],
    )
    actual = memstore.count(store, q)
    est = estimate(cat, q)
    assert actual == 0
    assert est == pytest.approx(1000 * 0.1 * 0.1, rel=0.2)  # ~10 rows predicted


def test_monotonicity_adding_filters(store):
    cat = refresh(store)
    base = SPJQuery.build(tables={"tx": "transactions"})
    filters = [
        Filter("tx", "gas", "range", (100_000, 700_000)),
        Filter("tx", "value", "ge", 10**15),
        Filter("tx", "transaction_type", "eq", 2),
    ]
    last = estimate(cat, base)
    for i in range(1, len(filters) + 1):
        q = SPJQuery.build(tables={"tx": "transactions"}, filters=filters[:i])
        est = estimate(cat, q)
        assert est <= last + 1e-9
        last = est


def test_uniform_range_qerror_bound(store):
    # gas is drawn uniformly; with >=100 rows per bucket the histogram keeps
    # single-table range estimates within 1.5x.
    cat = refresh(store)
    rng = random.Random(11)
    n = store.row_count("transactions")
    assert n >= 100 * 100
    from chainbench.eval_harness import qerror

    for _ in range(50):
        a, b = sorted((rng.randrange(21_000, 1_000_000), rng.randrange(21_000, 1_000_000)))
        if b - a < 50_000:  # skip slivers where counting noise dominates
            continue
        q = SPJQuery.build(tables={"tx": "transactions"}, filters=[Filter("tx", "gas", "range", (a, b))])
        est = estimate(cat, q)
        actual = memstore.count(store, q)
        assert qerror(est, actual) <= 1.5


def test_estimate_never_negative(store):
    cat = refresh(store)
    q = SPJQuery.build(
        tables={"tk": "tokens"},
        filters=[Filter("tk", "total_supply", "range", (10**40, 10**41))],
    )
    assert estimate(cat, q) >= 0.0


def test_missing_column_stats_error(store):
    cat = refresh(store, columns={("transactions", "gas")})
    q = SPJQuery.build(tables={"tx": "transactions"}, filters=[Filter("tx", "nonce", "ge", 5)])
    with pytest.raises(EstimateError, match="transactions.nonce"):
        estimate(cat, q)


def test_catalog_json_round_trip(store):
    cat = refresh(store, label="W1")
    clone = catalog_from_dict(catalog_to_dict(cat))
    assert clone.built_at == cat.built_at
    assert clone.row_counts == cat.row_counts
    assert clone.columns == cat.columns
    q = SPJQuery.build(
        tables={"tx": "transactions", "a": "addresses"},
        joins=[("tx", "from_address", "a", "address")],
        filters=[Filter("a", "eth_balance", "ge", 10**18)],
    )
    assert estimate(clone, q) == estimate(cat, q)


# One column type per list, as in a table column: few distinct values so that
# duplicates and tied counts are common, plus wide ints for hash-like columns.
_CELLS = (
    st.integers(-4, 4) | st.integers(-(2**256), 2**256),
    st.binary(max_size=2),
    st.text(alphabet="abc", max_size=2),
    st.booleans(),
    st.lists(st.binary(max_size=1), max_size=2).map(tuple),
)


@settings(max_examples=400, deadline=None)
@given(
    values=st.sampled_from(_CELLS).flatmap(lambda cells: st.lists(st.none() | cells, max_size=250)),
    n_buckets=st.sampled_from((1, 2, 3, 100)),
    mcv_k=st.sampled_from((1, 3, 10)),
)
@example(values=[], n_buckets=1, mcv_k=10)
@example(values=[None] * 7, n_buckets=3, mcv_k=10)
@example(values=[3, None, 1], n_buckets=100, mcv_k=10)
@example(values=[b"b", b"a", b"b", b"a", b"c"], n_buckets=2, mcv_k=1)
def test_column_stats_match_the_naive_oracle(values, n_buckets, mcv_k):
    expected = naive_column_stats(values, n_buckets, mcv_k)
    assert build_column_stats(values, n_buckets, mcv_k) == expected
    # One pass over any iterable: counted from the cells, or told their number.
    assert build_column_stats(iter(values), n_buckets, mcv_k) == expected
    assert build_column_stats(iter(values), n_buckets, mcv_k, n_rows=len(values)) == expected


# sha256 of every schema column's statistics on two states
# (util.full_catalog_digests), recorded before refresh read each table once
# and counted distinct values only. tests/stdlib_pins.py reads it too.
_FULL_CATALOG = [
    "8c91df3f50b758c686352bffb9da6f9f89e37bb5ea3349d4819b8203551b6b05",
    "70f594f2642c5092386976685dc7d5e57939446362ec3e86be77805bb2c48e9b",
]


def test_full_catalog_is_pinned():
    assert full_catalog_digests() == _FULL_CATALOG
    import stdlib_pins  # which reads the same digests without pytest

    assert stdlib_pins.pinned("test_estimator.py", "_FULL_CATALOG") == _FULL_CATALOG


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), prefix=st.integers(0, 5), max_tables=st.integers(1, 5), data=st.data())
def test_role_split_catalog_estimates_equal_the_full_catalog(seed, prefix, max_tables, data):
    ds = generate(SynthConfig(seed=seed, n_blocks=30, mean_tx_per_block=6, address_pool=30, n_tokens=6))
    cfg = WorkloadConfig(init_blocks=15, granularity=3, expire=True)
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    for pair in gen_batches(ds, cfg)[0][:prefix]:
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
    subqueries = enumerate_subqueries(q1_spj(), max_tables)
    columns = probe_columns(subqueries)
    split = refresh(store, label="S", columns=columns.filtered, distinct=columns.join_only)
    full = refresh(store, label="S")
    assert set(split.columns) == columns.filtered and set(split.distinct) == columns.join_only
    for sub in subqueries:
        assert estimate(split, sub) == estimate(full, sub)
    # The distinct counts round-trip; a catalog of full statistics keeps its older form.
    assert catalog_from_dict(catalog_to_dict(split)) == split
    assert "distinct" not in catalog_to_dict(full)

    # A filter on a column of which only the distinct count was built is
    # refused (single-table subqueries have no join edges, so no such column).
    if columns.join_only:
        table, column = data.draw(st.sampled_from(sorted(columns.join_only)))
        q = SPJQuery.build(tables={"t": table}, filters=[Filter("t", column, "eq", None)])
        with pytest.raises(EstimateError, match=f"only a distinct count for {table}.{column}"):
            estimate(split, q)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), prefix=st.integers(0, 6), expire=st.booleans())
def test_a_primary_key_distinct_count_equals_a_scan(seed, prefix, expire):
    # A join-only column that is its table's whole primary key takes its
    # table's row count; every other distinct count is scanned.
    ds = generate(SynthConfig(seed=seed, n_blocks=24, mean_tx_per_block=5, address_pool=25, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=10, granularity=3, expire=expire)
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    for pair in gen_batches(ds, cfg)[0][:prefix]:
        if pair.expire is not None:
            memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
    every = {(table, name) for table, cols in SCHEMA.items() for name, _ in cols}
    columns = probe_columns(enumerate_subqueries(q1_spj(), 5))
    split = refresh(store, label="S", columns=columns.filtered, distinct=every)
    scanned = {(t, c): len(set(store.column(t, c)) - {None}) for t, c in every - columns.filtered}
    assert split.distinct == scanned
    assert {("transactions", "hash"), ("tokens", "address"), ("addresses", "address")} <= set(scanned)
    assert split.columns == refresh(store, label="S", columns=columns.filtered).columns


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    prefix=st.integers(0, 6),
    expire=st.booleans(),
    query_seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6),
)
def test_a_foreign_key_join_estimates_as_one_over_the_larger_ndv(seed, prefix, expire, query_seeds):
    # A foreign-key join reads its parent's row count, and a probe's catalog
    # holds no distinct count for it; the estimate is the one 1 / max(ndv)
    # gives from full statistics, since the store enforces the key.
    ds = generate(SynthConfig(seed=seed, n_blocks=24, mean_tx_per_block=5, address_pool=25, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=10, granularity=3, expire=expire)
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    for pair in gen_batches(ds, cfg)[0][:prefix]:
        if pair.expire is not None:
            memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
    full = refresh(store)
    queries = enumerate_subqueries(q1_spj(), 3)
    for s in query_seeds:
        rng = random.Random(s)
        q = random_spj(rng, max_tables=4)
        # Either side of an edge may come first.
        flip = [rng.random() < 0.5 for _ in q.joins]
        joins = [JoinEdge(e.right_alias, e.right_column, e.left_alias, e.left_column) if f else e for e, f in zip(q.joins, flip)]
        queries.append(replace(q, joins=tuple(joins)))
    foreign = {frozenset({(child, col), (parent, *PRIMARY_KEYS[parent])}) for child, col, parent in FOREIGN_KEYS}
    for q in queries:
        columns = probe_columns([q])
        split = refresh(store, columns=columns.filtered, distinct=columns.join_only)
        assert estimate(split, q) == max_ndv_estimate(full, q), q
        amap = q.alias_map
        edges = [{(amap[e.left_alias], e.left_column), (amap[e.right_alias], e.right_column)} for e in q.joins]
        assert set(split.distinct) == set().union(*(e for e in edges if e not in foreign)) - columns.filtered
