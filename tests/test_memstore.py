import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench import memstore, replay_driver
from chainbench.chain_model import SCHEMA, WEI_MAX, AddressRow
from chainbench.memstore import (
    BatchRejected,
    DeleteRow,
    Filter,
    InsertRow,
    NullBlockHash,
    SPJQuery,
    Store,
    UpdateBalance,
    apply_ops,
)
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import Batch, WorkloadConfig, gen_batches, gen_initial, render_sql

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


# ---------------------------------------------------------------------------
# Refusals and rollback

_TINY = tiny_dataset()
_TOKEN, _CONTRACT = _TINY.tokens[0], _TINY.contracts[0]
_TTX, _WD = _TINY.token_transactions[0], _TINY.withdrawals[0]
A1, A2, NEW = addr(1), addr(2), addr(9)

# Every rule apply_ops refuses by: ops applied to the tiny dataset's store,
# the index of the refused op, and its exact reason. ReplayError shows these
# reasons to users, so a rewrite of the write path must keep them.
_REFUSALS = {
    "insert-addresses-duplicate": (
        [InsertRow("addresses", AddressRow(A1, 1))],
        0,
        "addresses: duplicate 0x0000000100000001000000010000000100000001",
    ),
    "insert-addresses-negative": (
        [InsertRow("addresses", AddressRow(NEW, -1))],
        0,
        "addresses: eth_balance out of range",
    ),
    "insert-addresses-too-large": (
        [InsertRow("addresses", AddressRow(NEW, WEI_MAX))],
        0,
        "addresses: eth_balance out of range",
    ),
    "insert-blocks-duplicate-hash": (
        [InsertRow("blocks", make_block(1))],
        0,
        "blocks: duplicate hash 0x0000000100000001000000010000000100000001000000010000000100000001",
    ),
    "insert-blocks-duplicate-number": (
        [InsertRow("blocks", replace(make_block(9), number=1))],
        0,
        "blocks: duplicate number 1",
    ),
    "insert-blocks-miner-dangling": (
        [InsertRow("blocks", make_block(9, miner=NEW))],
        0,
        "blocks: miner dangling 0x0000000900000009000000090000000900000009",
    ),
    "insert-transactions-duplicate-hash": (
        [InsertRow("transactions", make_tx(0, 2, A1, A2, 1, nonce=0, index=5))],
        0,
        "transactions: duplicate hash 0x0000006400000064000000640000006400000064000000640000006400000064",
    ),
    "insert-transactions-duplicate-slot": (
        [InsertRow("transactions", make_tx(9, 1, A1, A2, 1, nonce=0, index=1))],
        0,
        "transactions: duplicate slot 1",
    ),
    "insert-transactions-block-dangling": (
        [InsertRow("transactions", make_tx(9, 9, A1, A2, 1, nonce=0))],
        0,
        "transactions: block_hash dangling 0x0000000900000009000000090000000900000009000000090000000900000009",
    ),
    "insert-transactions-from-dangling": (
        [InsertRow("transactions", make_tx(9, 2, NEW, A2, 1, nonce=0, index=5))],
        0,
        "transactions: from_address dangling",
    ),
    "insert-transactions-to-dangling": (
        [InsertRow("transactions", make_tx(9, 2, A1, NEW, 1, nonce=0, index=5))],
        0,
        "transactions: to_address dangling",
    ),
    "insert-contracts-duplicate": ([InsertRow("contracts", _CONTRACT)], 0, "contracts: duplicate (address, version)"),
    "insert-contracts-address-dangling": (
        [InsertRow("contracts", replace(_CONTRACT, address=NEW))],
        0,
        "contracts: address dangling",
    ),
    "insert-contracts-block-dangling": (
        [InsertRow("contracts", replace(_CONTRACT, version=2, block_hash=hsh(9)))],
        0,
        "contracts: block_hash dangling",
    ),
    "insert-tokens-duplicate": ([InsertRow("tokens", _TOKEN)], 0, "tokens: duplicate address"),
    "insert-tokens-address-dangling": (
        [InsertRow("tokens", replace(_TOKEN, address=NEW))],
        0,
        "tokens: address dangling",
    ),
    "insert-tokens-block-dangling": (
        [InsertRow("tokens", replace(_TOKEN, address=A1, block_hash=hsh(9)))],
        0,
        "tokens: block_hash dangling",
    ),
    "insert-token-transactions-duplicate": (
        [InsertRow("token_transactions", _TTX)],
        0,
        "token_transactions: duplicate (transaction_hash, log_index)",
    ),
    "insert-token-transactions-tx-dangling": (
        [InsertRow("token_transactions", replace(_TTX, transaction_hash=hsh(109)))],
        0,
        "token_transactions: transaction_hash dangling",
    ),
    "insert-token-transactions-token-dangling": (
        [InsertRow("token_transactions", replace(_TTX, log_index=1, token_address=A1))],
        0,
        "token_transactions: token_address dangling",
    ),
    "insert-withdrawals-duplicate": (
        [InsertRow("withdrawals", _WD)],
        0,
        "withdrawals: duplicate (hash, withdrawal_index)",
    ),
    "insert-withdrawals-hash-dangling": (
        [InsertRow("withdrawals", replace(_WD, hash=hsh(9)))],
        0,
        "withdrawals: hash dangling",
    ),
    "insert-withdrawals-address-dangling": (
        [InsertRow("withdrawals", replace(_WD, withdrawal_index=1, address=NEW))],
        0,
        "withdrawals: address dangling",
    ),
    "insert-unknown-table": ([InsertRow("receipts", _WD)], 0, "unknown table 'receipts'"),
    "delete-blocks-missing": ([DeleteRow("blocks", (hsh(9),))], 0, "blocks: no such row"),
    "delete-blocks-referenced-by-transactions": (
        [DeleteRow("blocks", (hsh(1),))],
        0,
        "blocks: still referenced by transactions",
    ),
    "delete-blocks-referenced-by-withdrawals": (
        [DeleteRow("transactions", (hsh(102),)), DeleteRow("blocks", (hsh(2),))],
        1,
        "blocks: still referenced by withdrawals",
    ),
    "delete-blocks-referenced-by-tokens": ([DeleteRow("blocks", (hsh(0),))], 0, "blocks: still referenced by tokens"),
    "delete-blocks-referenced-by-contracts": (
        [NullBlockHash("tokens", (addr(3),)), DeleteRow("blocks", (hsh(0),))],
        1,
        "blocks: still referenced by contracts",
    ),
    "delete-transactions-missing": ([DeleteRow("transactions", (hsh(109),))], 0, "transactions: no such row"),
    "delete-transactions-referenced": (
        [DeleteRow("transactions", (hsh(101),))],
        0,
        "transactions: still referenced by token_transactions",
    ),
    "delete-token-transactions-missing": (
        [DeleteRow("token_transactions", (hsh(101), 1))],
        0,
        "token_transactions: no such row",
    ),
    "delete-withdrawals-missing": ([DeleteRow("withdrawals", (hsh(2), 1))], 0, "withdrawals: no such row"),
    "delete-addresses-unsupported": ([DeleteRow("addresses", (A1,))], 0, "delete not supported on table 'addresses'"),
    "delete-contracts-unsupported": (
        [DeleteRow("contracts", (addr(3), 1))],
        0,
        "delete not supported on table 'contracts'",
    ),
    "delete-tokens-unsupported": ([DeleteRow("tokens", (addr(3),))], 0, "delete not supported on table 'tokens'"),
    "delete-unknown-table": ([DeleteRow("receipts", (hsh(1),))], 0, "delete not supported on table 'receipts'"),
    "update-balance-missing": (
        [UpdateBalance(NEW, 1)],
        0,
        "addresses: no such row 0x0000000900000009000000090000000900000009",
    ),
    "update-balance-negative": (
        [UpdateBalance(A1, -(10**9))],
        0,
        "addresses: balance out of range for 0x0000000100000001000000010000000100000001",
    ),
    "update-balance-too-large": (
        [UpdateBalance(A1, WEI_MAX)],
        0,
        "addresses: balance out of range for 0x0000000100000001000000010000000100000001",
    ),
    "null-tokens-missing": ([NullBlockHash("tokens", (NEW,))], 0, "tokens: no such row"),
    "null-contracts-missing": ([NullBlockHash("contracts", (addr(3), 2))], 0, "contracts: no such row"),
    "null-blocks-unsupported": ([NullBlockHash("blocks", (hsh(0),))], 0, "null-out not supported on table 'blocks'"),
    "unknown-mutation-row": ([UpdateBalance(A1, 1), AddressRow(NEW, 1)], 1, "unknown mutation AddressRow"),
    "unknown-mutation-text": (["DELETE FROM Blocks;"], 0, "unknown mutation str"),
}


def _containers(store: Store) -> dict:
    """Copies of the store's containers, leaving out empty reverse-index sets."""
    state = {}
    for name, container in vars(store).items():
        if isinstance(container, dict) and any(isinstance(v, set) for v in container.values()):
            state[name] = {k: set(v) for k, v in container.items() if v}
        else:
            state[name] = container.copy()
    return state


def test_the_store_has_fourteen_containers():
    store = Store.from_dataset(_TINY)
    assert len(vars(store)) == 14
    assert all(_containers(store).values())


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_every_refusal_reason_is_pinned(case):
    ops, op_index, reason = _REFUSALS[case]
    store = Store.from_dataset(_TINY)
    before = _containers(store)
    with pytest.raises(BatchRejected) as rejected:
        apply_ops(store, ops)
    assert (rejected.value.op_index, rejected.value.reason) == (op_index, reason)
    assert str(rejected.value) == f"batch rejected at op {op_index}: {reason}"
    assert _containers(store) == before


@pytest.mark.parametrize(
    "malformed, error",
    [(DeleteRow("withdrawals", [b"x", 1]), TypeError), (InsertRow("blocks", AddressRow(NEW, 1)), AttributeError)],
)
def test_any_exception_rolls_the_batch_back_and_propagates_unchanged(malformed, error):
    store = Store()
    with pytest.raises(error) as raised:
        apply_ops(store, [InsertRow("addresses", AddressRow(addr(5), 5)), malformed])
    assert not isinstance(raised.value, BatchRejected)
    assert _containers(store) == _containers(Store())


_UNKNOWN_ADDRESS, _UNKNOWN_HASH = b"\xee" * 20, b"\xee" * 32


def _failing_ops(store: Store) -> dict[str, tuple]:
    """``(op, expected exception)`` per failure that ``store`` refuses as it
    stands; the kinds that need rows appear only when the store has them."""
    u, h = _UNKNOWN_ADDRESS, _UNKNOWN_HASH
    failures = {
        "dangling blocks.miner": InsertRow("blocks", make_block(4_000_000_000, miner=u)),
        "dangling transactions.block_hash": InsertRow("transactions", make_tx(3_999_999_000, 4_000_000_000, u, u, 1, 0)),
        "dangling contracts.address": InsertRow("contracts", replace(_CONTRACT, address=u)),
        "dangling tokens.address": InsertRow("tokens", replace(_TOKEN, address=u)),
        "dangling token_transactions.transaction_hash": InsertRow("token_transactions", replace(_TTX, transaction_hash=h)),
        "dangling withdrawals.hash": InsertRow("withdrawals", replace(_WD, hash=h)),
        "missing blocks row": DeleteRow("blocks", (h,)),
        "missing transactions row": DeleteRow("transactions", (h,)),
        "missing token_transactions row": DeleteRow("token_transactions", (h, 0)),
        "missing withdrawals row": DeleteRow("withdrawals", (h, 0)),
        "missing tokens row to null": NullBlockHash("tokens", (u,)),
        "delete on addresses": DeleteRow("addresses", (u,)),
        "delete on tokens": DeleteRow("tokens", (u,)),
    }
    failures = {name: (op, BatchRejected) for name, op in failures.items()}
    failures["unhashable key"] = (DeleteRow("withdrawals", [h, 0]), TypeError)
    failures["row of the wrong table"] = (InsertRow("blocks", AddressRow(u, 0)), AttributeError)
    for table in SCHEMA:
        rows = list(store.rows(table))
        if rows:
            failures[f"duplicate {table} key"] = (InsertRow(table, rows[-1]), BatchRejected)
    if store.transactions:
        tx = next(iter(store.transactions.values()))
        failures["duplicate transaction slot"] = (InsertRow("transactions", replace(tx, hash=h)), BatchRejected)
    for name in ("tx_by_block", "wd_by_block", "tokens_by_block", "contracts_by_block"):
        parents = [block for block, children in getattr(store, name).items() if children]
        if parents:
            failures[f"delete of a block in {name}"] = (DeleteRow("blocks", (parents[0],)), BatchRejected)
    if store.balances:
        address, balance = next(iter(store.balances.items()))
        failures["balance below zero"] = (UpdateBalance(address, -balance - 1), BatchRejected)
        failures["balance at WEI_MAX"] = (UpdateBalance(address, WEI_MAX - balance), BatchRejected)
    return failures


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_a_refused_op_anywhere_leaves_every_container_as_it_was(seed, data):
    ds = generate(SynthConfig(seed=seed, n_blocks=12, mean_tx_per_block=3, address_pool=12, n_tokens=3))
    cfg = WorkloadConfig(init_blocks=6, granularity=2, expire=True)
    batches = [gen_initial(ds, cfg)] + [b for pair in gen_batches(ds, cfg)[0] for b in (pair.expire, pair.upsert)]
    k = data.draw(st.integers(0, len(batches) - 1), label="batch")
    store = Store()
    for batch in batches[:k]:
        memstore.apply(store, batch)
    ops = batches[k].ops
    i = data.draw(st.integers(0, len(ops)), label="index")
    ahead = store.copy()
    apply_ops(ahead, ops[:i])
    failures = _failing_ops(ahead)
    bad, error = failures[data.draw(st.sampled_from(sorted(failures)), label="failure")]
    before = _containers(store)
    with pytest.raises(error) as raised:
        apply_ops(store, [*ops[:i], bad, *ops[i:]])
    if error is BatchRejected:
        assert raised.value.op_index == i
    assert _containers(store) == before
    apply_ops(store, ops)


def test_every_structured_write_reaches_the_patched_apply_ops(monkeypatch):
    # The bench tracer wraps memstore.apply_ops and replay_driver.apply_ops;
    # each caller must look the name up when it is called.
    calls = []

    def spy(site, real):
        def apply_ops(store, ops):
            calls.append(site)
            return real(store, ops)

        return apply_ops

    monkeypatch.setattr(memstore, "apply_ops", spy("memstore", memstore.apply_ops))
    monkeypatch.setattr(replay_driver, "apply_ops", spy("replay_driver", replay_driver.apply_ops))
    store = Store.from_dataset(_TINY)
    memstore.apply(store, Batch(1, "upsert", 0, 0, (UpdateBalance(A1, 1),)))
    load = render_sql(gen_initial(_TINY, WorkloadConfig(init_blocks=3, granularity=1)))
    replay_driver.MemstoreTarget().apply_script("load.sql", load)
    assert calls == ["memstore", "memstore", "replay_driver"]
