"""The integrity rules declared in ``chain_model`` against both checkers.

``validate_dataset`` is derived from the declarations; ``memstore``'s
handlers are written by hand. Each test here breaks one declared rule and
asks both to name it.
"""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainbench import memstore
from chainbench.chain_model import (
    BYTE_LENGTHS,
    FOREIGN_KEYS,
    PRIMARY_KEYS,
    ROW_TYPES,
    SCHEMA,
    UNIQUE_KEYS,
    VALUE_RANGES,
    AddressRow,
    referenced_addresses,
    validate_dataset,
)
from chainbench.memstore import BatchRejected, DeleteRow, InsertRow, Store, apply_ops
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, gen_batches, gen_initial

from util import containers, tiny_dataset

_KINDS = {table: dict(columns) for table, columns in SCHEMA.items()}
# The rules validate_dataset checks by hand, over many rows at once.
_DATASET_WIDE = {"timestamps decrease", "nonce not consecutive"}


def test_every_declared_column_exists():
    for table, column, parent in FOREIGN_KEYS:
        assert column in _KINDS[table] and parent in SCHEMA
    for table, key in UNIQUE_KEYS:
        assert key and set(key) <= set(_KINDS[table])
    for table, column, lo, hi in VALUE_RANGES:
        assert _KINDS[table][column] == "int" and lo < hi
    assert set(BYTE_LENGTHS) <= {kind.rstrip("?") for kinds in _KINDS.values() for kind in kinds.values()}


def test_every_foreign_key_names_its_parents_whole_key_of_the_same_kind():
    assert len(FOREIGN_KEYS) == len({(table, column) for table, column, _ in FOREIGN_KEYS}) == 12
    for table, column, parent in FOREIGN_KEYS:
        (key,) = PRIMARY_KEYS[parent]
        assert _KINDS[table][column].rstrip("?") == _KINDS[parent][key]


def test_a_contract_identified_by_an_int_is_reported_not_a_crash():
    ds = tiny_dataset()
    bad = replace(ds, contracts=(ds.contracts[0]._replace(address=7),))
    rules = {(v.table, v.rule, v.detail) for v in validate_dataset(bad).violations}
    assert rules == {
        ("contracts", "address bad length", "7#1: expected 20 bytes"),
        ("contracts", "address dangling", "7#1"),
    }


def test_referenced_addresses_reads_every_foreign_key_into_addresses():
    ds = tiny_dataset()
    tables = {table: ds.table(table) for table in SCHEMA if table != "addresses"}
    assert referenced_addresses(tables) == {a.address for a in ds.addresses}
    assert referenced_addresses({"transactions": ds.transactions[1:2]}) == {ds.transactions[1].from_address}


# Every hash and address column, and every declared range, broken in one row.
_CELL_RULES = [
    (table, column, f"{column} bad length", None)
    for table, kinds in _KINDS.items()
    for column, kind in kinds.items()
    if kind.rstrip("?") in BYTE_LENGTHS
] + [
    (table, column, f"{column} out of range", value) for table, column, lo, hi in VALUE_RANGES for value in (lo - 1, hi)
]


@pytest.mark.parametrize("table, column, rule, value", _CELL_RULES)
def test_each_declared_cell_rule_is_reported(table, column, rule, value):
    ds = tiny_dataset()
    rows = ds.table(table)
    if value is None:
        value = getattr(rows[0], column)[:-1] + b"\x00\x00"
    bad = replace(ds, **{table: (rows[0]._replace(**{column: value}), *rows[1:])})
    reported = [(v.table, v.rule) for v in validate_dataset(bad).violations if v.rule not in _DATASET_WIDE]
    assert (table, rule) in reported
    # A key cell cut short also leaves the rows that name it dangling.
    assert all(r == (table, rule) or r[1].endswith(" dangling") for r in reported)


# ---------------------------------------------------------------------------
# One declared key or foreign key broken at op i of a valid batch


def _key_rule(key: tuple[str, ...]) -> str:
    return f"duplicate {key[0]}" if len(key) == 1 else f"duplicate ({', '.join(key)})"


# Every hash or address column that is not its table's whole primary key
# names a row of another table. Read from SCHEMA, not FOREIGN_KEYS, so a
# foreign key missing from the declaration still gets its case below.
_REFERENCES = [
    (table, column)
    for table, kinds in _KINDS.items()
    for column, kind in kinds.items()
    if kind.rstrip("?") in ("hash", "address") and (column,) != PRIMARY_KEYS[table]
]
# (table, rule, how to break it): a row whose key repeats one in the store, a
# row whose reference names no row, or the delete of a parent still named.
_RULES = sorted(
    [(table, _key_rule(key), ("key", key)) for table, key in PRIMARY_KEYS.items()]
    + [(table, _key_rule(key), ("key", key)) for table, key in UNIQUE_KEYS]
    + [(table, f"{column} dangling", ("fk", column)) for table, column in _REFERENCES]
    + [
        (table, f"{column} dangling", ("delete", column, parent))
        for table, column, parent in FOREIGN_KEYS
        if parent in ("blocks", "transactions")
    ]
)
# The store's reasons where they do not start with "<table>: <rule>".
_STORE_WORDING = {
    ("addresses", "duplicate address"): "addresses: duplicate 0x",
    ("transactions", "duplicate (block_hash, transaction_index)"): "transactions: duplicate slot ",
}
_UNKNOWN = {"hash": b"\xdd" * 32, "address": b"\xdd" * 20}
_FRESH_HASH, _FRESH_ADDRESS, _FRESH_INT = b"\xee" * 32, b"\xee" * 20, 10**9


def _fresh_row(store: Store, table: str):
    """A row the store would take as it stands: every key in it is new and
    every foreign key names a row of the store (None where that is not
    possible)."""
    address = next(iter(store.balances), None)
    block = next(iter(store.blocks), None)
    if table == "addresses":
        return AddressRow(_FRESH_ADDRESS, 0)
    if table == "contracts":
        return None if address is None else ROW_TYPES[table](address, _FRESH_INT, (), b"", False, False, None)
    if table == "tokens":
        free = next((a for a in store.balances if a not in store.tokens), None)
        return None if free is None else ROW_TYPES[table](free, "", "", None, 0, None)
    if address is None or block is None:
        return None
    if table == "blocks":
        return ROW_TYPES[table](_FRESH_HASH, _FRESH_INT, _FRESH_INT, b"", 0, 0, address)
    if table == "transactions":
        return ROW_TYPES[table](_FRESH_HASH, _FRESH_INT, 0, address, None, 0, None, b"", block, 2, 0)
    if table == "withdrawals":
        return ROW_TYPES[table](block, _FRESH_INT, 0, address, 0)
    tx, token = next(iter(store.transactions), None), next(iter(store.tokens), None)
    return None if tx is None or token is None else ROW_TYPES[table](tx, _FRESH_INT, token, 0)


def _named(store: Store, table: str, column: str) -> set:
    """The cells of a foreign-key column in the store, NULL left out."""
    position = [name for name, _ in SCHEMA[table]].index(column)
    return {row[position] for row in store.rows(table)} - {None}


def _breaking_op(store: Store, table: str, name: str, how: tuple):
    """The op that breaks the rule in ``store`` as it stands, the start of the
    store's reason for refusing it, and what the op does to the store's
    dataset: ``(table, row to add or None, key of the row to drop or
    None)``. None where the store lacks the rows it needs."""
    if how[0] == "delete":
        _, column, parent = how
        named = _named(store, table, column)
        if not named:
            return None
        # A parent no other child names, where there is one, shows which check refused it.
        elsewhere = set().union(
            *(_named(store, t, c) for t, c, p in FOREIGN_KEYS if p == parent and (t, c) != (table, column))
        )
        key = (min(named - elsewhere or named),)
        reason = f"{parent}: still referenced by {table if key[0] not in elsewhere else ''}"
        return DeleteRow(parent, key), reason, (parent, None, key)
    row = _fresh_row(store, table)
    if row is None:
        return None
    if how[0] == "fk":
        row = row._replace(**{how[1]: _UNKNOWN[_KINDS[table][how[1]].rstrip("?")]})
    else:
        existing = next(iter(store.rows(table)), None)
        if existing is None:
            return None
        row = row._replace(**{column: getattr(existing, column) for column in how[1]})
    reason = _STORE_WORDING.get((table, name), f"{table}: {name}")
    return InsertRow(table, row), reason, (table, row, None)


def _window_batches(seed: int):
    ds = generate(SynthConfig(seed=seed, n_blocks=12, mean_tx_per_block=3, address_pool=12, n_tokens=3))
    cfg = WorkloadConfig(init_blocks=6, granularity=2, expire=True)
    return [gen_initial(ds, cfg)] + [b for pair in gen_batches(ds, cfg)[0] for b in (pair.expire, pair.upsert)]


def _declared_violations(ds) -> set[tuple[str, str]]:
    return {(v.table, v.rule) for v in validate_dataset(ds).violations if v.rule not in _DATASET_WIDE}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**16), rule=st.sampled_from(_RULES), data=st.data())
def test_each_declared_rule_is_enforced_by_the_store_and_reported_by_validate(seed, rule, data):
    table, name, how = rule
    batches = _window_batches(seed)
    k = data.draw(st.integers(1, len(batches) - 1), label="batch")
    store = Store()
    for batch in batches[:k]:
        memstore.apply(store, batch)
    ops = batches[k].ops
    i = data.draw(st.integers(0, len(ops)), label="index")
    ahead = store.copy()
    apply_ops(ahead, ops[:i])
    broken = _breaking_op(ahead, table, name, how)
    assume(broken is not None)
    bad, reason, (changed, added, dropped) = broken

    before = containers(store)
    with pytest.raises(BatchRejected) as rejected:
        apply_ops(store, [*ops[:i], bad, *ops[i:]])
    assert rejected.value.op_index == i and rejected.value.reason.startswith(reason)
    assert containers(store) == before

    ds = ahead.to_dataset()
    assert not _declared_violations(ds)
    rows = ds.table(changed)
    if added is not None:
        rows = (*rows, added)
    else:
        (column,) = PRIMARY_KEYS[changed]
        rows = tuple(row for row in rows if (getattr(row, column),) != dropped)
    reported = _declared_violations(replace(ds, **{changed: rows}))
    if how[0] == "delete":
        assert (table, name) in reported
    else:
        assert reported == {(table, name)}


# ---------------------------------------------------------------------------
# Any one cell corrupted: a report, never a crash

_SMALL = generate(SynthConfig(seed=9, n_blocks=6, mean_tx_per_block=3, address_pool=8, n_tokens=2, withdrawal_rate=1.0))
_CELLS = [
    (table, row, column)
    for table in SCHEMA
    for row in range(len(_SMALL.table(table)))
    for column, _ in SCHEMA[table]
]
# Hashable values of every kind a cell could be mistaken to hold.
_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**300), 2**300),
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=33),
    st.tuples(st.binary(min_size=4, max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(cell=st.sampled_from(_CELLS), value=_ANY_VALUE)
def test_no_single_cell_corruption_makes_validate_raise(cell, value):
    table, i, column = cell
    rows = _SMALL.table(table)
    bad = replace(_SMALL, **{table: (*rows[:i], rows[i]._replace(**{column: value}), *rows[i + 1 :])})
    report = validate_dataset(bad)
    if column in ("number", "timestamp", "transaction_index", "nonce") and not isinstance(value, int):
        assert (table, f"{column} not an int") in {(v.table, v.rule) for v in report.violations}


@pytest.mark.parametrize("value", [None, "5", 5.0])
@pytest.mark.parametrize(
    "table, column",
    [("blocks", "number"), ("blocks", "timestamp"), ("transactions", "transaction_index"), ("transactions", "nonce")],
)
def test_a_compared_cell_that_is_not_an_int_is_reported_and_its_row_left_out(table, column, value):
    ds = tiny_dataset()
    rows = ds.table(table)
    bad = replace(ds, **{table: (rows[0]._replace(**{column: value}), *rows[1:])})
    key = "#".join("0x" + getattr(rows[0], col).hex() for col in PRIMARY_KEYS[table])
    violations = [(v.table, v.rule, v.detail) for v in validate_dataset(bad).violations]
    assert violations == [(table, f"{column} not an int", f"{key}: {value!r}")]
