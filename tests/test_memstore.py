import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench import memstore
from chainbench.chain_model import SCHEMA, AddressRow
from chainbench.memstore import (
    BatchRejected,
    DeleteRow,
    Filter,
    InsertRow,
    SPJQuery,
    Store,
    UpdateBalance,
    apply_ops,
)
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import Batch, WorkloadConfig, gen_batches, gen_initial

from util import _oracle_matches, addr, hsh, make_block, make_tx, nested_loop_count, random_spj, tiny_dataset


@pytest.fixture(scope="module")
def store():
    ds = generate(SynthConfig(seed=33, n_blocks=40, mean_tx_per_block=20, address_pool=60, n_tokens=6))
    return Store.from_dataset(ds)


def test_apply_empty_batch(store):
    before = store.table_multisets()
    summary = memstore.apply(store, Batch(1, "upsert", 0, 0, ()))
    assert summary.total() == 0
    assert store.table_multisets() == before


def test_insert_transaction_before_block_rejected():
    store = Store()
    ops = [
        InsertRow("addresses", AddressRow(addr(1), 100)),
        InsertRow("transactions", make_tx(0, 7, addr(1), None, 0, nonce=0)),
        InsertRow("blocks", make_block(7)),
    ]
    with pytest.raises(BatchRejected, match="op 1.*block_hash dangling"):
        apply_ops(store, ops)
    assert store.row_count("addresses") == 0  # rollback removed the address too


def test_atomic_rollback_leaves_store_identical(store):
    before = store.table_multisets()
    bad = Batch(
        9,
        "upsert",
        0,
        0,
        (
            InsertRow("addresses", AddressRow(addr(200), 5)),
            UpdateBalance(addr(200), -100),  # drives below zero -> rejected
        ),
    )
    with pytest.raises(BatchRejected, match="balance out of range"):
        memstore.apply(store, bad)
    assert store.table_multisets() == before


def test_delete_block_with_rows_rejected():
    ds = tiny_dataset()
    store = Store.from_dataset(ds)
    with pytest.raises(BatchRejected, match="still referenced"):
        apply_ops(store, [DeleteRow("blocks", (hsh(1),))])


def test_address_delete_unsupported():
    ds = tiny_dataset()
    store = Store.from_dataset(ds)
    with pytest.raises(BatchRejected, match="not supported"):
        apply_ops(store, [DeleteRow("addresses", (addr(1),))])


def test_count_single_table_no_filter(store):
    q = SPJQuery.build(tables={"tx": "transactions"})
    assert memstore.count(store, q) == store.row_count("transactions")


def test_count_matches_nested_loop_oracle(store):
    rng = random.Random(77)
    for _ in range(10):
        q = random_spj(rng)
        assert memstore.count(store, q) == nested_loop_count(store, q), q


def test_count_join_order_insensitive(store):
    rng = random.Random(5)
    q = random_spj(rng, max_tables=3)
    while len(q.joins) < 2:
        q = random_spj(rng, max_tables=3)
    reference = memstore.count(store, q)
    for _ in range(3):
        edges = list(q.joins)
        rng.shuffle(edges)
        shuffled = SPJQuery(tables=q.tables, joins=tuple(edges), filters=q.filters)
        assert memstore.count(store, shuffled) == reference


def test_count_null_join_keys_never_match():
    ds = tiny_dataset()
    store = Store.from_dataset(ds)
    q = SPJQuery.build(
        tables={"tx": "transactions", "a": "addresses"},
        joins=[("tx", "to_address", "a", "address")],
    )
    # One transaction is a creation with to_address NULL; it must not join.
    assert memstore.count(store, q) == 2


def test_disconnected_query_rejected():
    with pytest.raises(ValueError, match="not connected"):
        SPJQuery.build(tables={"a": "addresses", "b": "blocks"})


def test_snapshot_blocks_empty_and_loaded():
    assert memstore.snapshot_blocks(Store()) == []
    ds = tiny_dataset()
    store = Store.from_dataset(ds)
    assert memstore.snapshot_blocks(store) == [0, 1, 2]


def test_store_copy_is_independent():
    store = Store.from_dataset(tiny_dataset())
    dup = store.copy()
    apply_ops(dup, [UpdateBalance(addr(1), 5)])
    assert store.balances[addr(1)] != dup.balances[addr(1)]


def test_summary_counts():
    store = Store()
    summary = apply_ops(
        store,
        [
            InsertRow("addresses", AddressRow(addr(1), 10)),
            InsertRow("addresses", AddressRow(addr(2), 0)),
            InsertRow("blocks", make_block(0)),
            UpdateBalance(addr(2), 7),
        ],
    )
    assert summary.inserts == {"addresses": 2, "blocks": 1}
    assert summary.updates == {"addresses": 1}


# Filter ops that apply to each declared column type ("?" marks nullable);
# byte, text and list-valued columns also take the substring ops.
_ORDERED = ("range", "eq", "ne", "ge", "le")
_OPS_BY_TYPE = {"int": _ORDERED, "bool": ("eq", "ne", "is_true", "is_false")}
_SUBSTRING_OPS = _ORDERED + ("contains", "not_contains")
_NULLABLE = [(table, name) for table, cols in SCHEMA.items() for name, kind in cols if kind.endswith("?")]


def _window_state(seed: int, prefix: int) -> Store:
    """A moving-window state: expired creation blocks leave NULL block_hash cells."""
    ds = generate(SynthConfig(seed=seed, n_blocks=30, mean_tx_per_block=6, address_pool=30, n_tokens=6))
    cfg = WorkloadConfig(init_blocks=15, granularity=3, expire=True)
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    pairs, _ = gen_batches(ds, cfg)
    for pair in pairs[:prefix]:
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
    return store


def _operand(draw, op: str, cells: list):
    """A filter value drawn from the column's non-NULL cells."""
    if op in ("is_true", "is_false"):
        return None
    if op == "range":
        return tuple(sorted((draw(st.sampled_from(cells)), draw(st.sampled_from(cells)))))
    cell = draw(st.sampled_from(cells))
    if op in ("contains", "not_contains"):
        if isinstance(cell, tuple):  # list-valued column: one element
            return draw(st.sampled_from(cell)) if cell else b""
        lo = draw(st.integers(0, len(cell)))
        return cell[lo : draw(st.integers(lo, len(cell)))]
    return cell


def _filters_on(draw, store: Store, table: str, columns, n: int) -> list[Filter]:
    rows = list(store.rows(table))
    filters = []
    for _ in range(n):
        name = draw(st.sampled_from(columns))
        kind = dict(SCHEMA[table])[name].rstrip("?")
        op = draw(st.sampled_from(_OPS_BY_TYPE.get(kind, _SUBSTRING_OPS)))
        cells = [getattr(row, name) for row in rows if getattr(row, name) is not None]
        if cells or op in ("is_true", "is_false"):
            filters.append(Filter("t", name, op, _operand(draw, op, cells)))
    return filters


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), prefix=st.integers(0, 5), data=st.data())
def test_base_relation_matches_the_oracle_filter(seed, prefix, data):
    store = _window_state(seed, prefix)
    table = data.draw(st.sampled_from(sorted(SCHEMA)))
    columns = [name for name, _ in SCHEMA[table]]
    filters = _filters_on(data.draw, store, table, columns, data.draw(st.integers(0, 3)))
    expected = [row for row in store.rows(table) if all(_oracle_matches(f, row) for f in filters)]
    assert memstore.base_relation(store, table, filters) == expected


@pytest.fixture(scope="module")
def null_window():
    """A state holding NULL cells in every nullable column."""
    store = _window_state(85, 3)
    for table, name in _NULLABLE:
        assert any(getattr(row, name) is None for row in store.rows(table)), (table, name)
    return store


@settings(max_examples=80, deadline=None)
@given(column=st.sampled_from(_NULLABLE), data=st.data())
def test_base_relation_null_cells_match_the_oracle(null_window, column, data):
    table, name = column
    filters = _filters_on(data.draw, null_window, table, [name], 1)
    expected = [row for row in null_window.rows(table) if all(_oracle_matches(f, row) for f in filters)]
    assert memstore.base_relation(null_window, table, filters) == expected
