"""In-memory relational store over the ledger schema.

Enforces every key and foreign-key constraint on each mutation, through one
handler per (mutation kind, table), applies batches atomically (all-or-nothing
via a journal of undo records), and answers select-project-join COUNT queries
exactly with hash joins. This is the harness's ground-truth engine: not a SQL
engine, no persistence, no cost model. One writer at a time; readers must not
overlap a mutation.

The four mutation records are named tuples, so the hot sites build them with
``tuple.__new__`` in C (``records`` does it for a whole sequence) rather than
through a Python-level constructor. A record compares equal only to a record
of its own class: a ``DeleteRow`` never equals a ``NullBlockHash`` with the
same fields. The handlers read row cells by their ``SCHEMA`` position, so an
insert whose row is not its table's row type is a ``TypeError``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .chain_model import (
    PRIMARY_KEYS,
    ROW_TYPES,
    SCHEMA,
    UNIQUE_KEYS,
    WEI_MAX,
    AddressRow,
    ChainDataset,
    Contract,
    Token,
    TokenTransaction,
    Transaction,
    Withdrawal,
    encode_hex,
)

# ---------------------------------------------------------------------------
# Structured mutations


class _Record:
    """Equality and hashing of a mutation record: its class and its fields.
    Tuple equality alone would make records of two kinds with equal fields
    equal."""

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.__class__, tuple.__hash__(self)))


class InsertRow(_Record, namedtuple("InsertRow", "table row")):
    """Insert ``row``, which must be its table's row type: the store refuses
    a plain tuple."""

    __slots__ = ()


class DeleteRow(_Record, namedtuple("DeleteRow", "table key")):
    """Delete the row whose primary key is the tuple ``key``."""

    __slots__ = ()


class UpdateBalance(_Record, namedtuple("UpdateBalance", "address delta")):
    """Add ``delta`` to an address's balance."""

    __slots__ = ()
    table = "addresses"


class NullBlockHash(_Record, namedtuple("NullBlockHash", "table key")):
    """Set ``block_hash`` to NULL on a "tokens" or "contracts" row, by key."""

    __slots__ = ()


Mutation = InsertRow | DeleteRow | UpdateBalance | NullBlockHash

_new = tuple.__new__


def records(kind: type, table: str, values: Iterable) -> Iterator[Mutation]:
    """``kind(table, value)`` per value: an ``InsertRow`` per row, or a
    ``DeleteRow`` or ``NullBlockHash`` per key. Each is built by
    ``tuple.__new__`` in C, with no Python-level call per record."""
    return map(_new, repeat(kind), zip(repeat(table), values))


class BatchRejected(Exception):
    def __init__(self, op_index: int, reason: str):
        super().__init__(f"batch rejected at op {op_index}: {reason}")
        self.op_index = op_index
        self.reason = reason


@dataclass
class MutationSummary:
    inserts: dict[str, int] = field(default_factory=dict)
    deletes: dict[str, int] = field(default_factory=dict)
    updates: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Query form


@dataclass(frozen=True)
class JoinEdge:
    left_alias: str
    left_column: str
    right_alias: str
    right_column: str


@dataclass(frozen=True)
class Filter:
    """One column predicate. Supported ops:

    range (value=(lo, hi) inclusive), eq, ne, is_true, is_false,
    contains, not_contains (case-sensitive substring), ge, le.
    """

    alias: str
    column: str
    op: str
    value: object = None

    _OPS = frozenset({"range", "eq", "ne", "is_true", "is_false", "contains", "not_contains", "ge", "le"})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown filter op {self.op!r}")

@dataclass(frozen=True)
class SPJQuery:
    """Select-project-join COUNT query: aliased tables, equi-join edges, filters."""

    tables: tuple[tuple[str, str], ...]  # (alias, table name), alias-sorted
    joins: tuple[JoinEdge, ...] = ()
    filters: tuple[Filter, ...] = ()

    @classmethod
    def build(
        cls,
        tables: dict[str, str],
        joins: Iterable[tuple[str, str, str, str]] = (),
        filters: Iterable[Filter] = (),
    ) -> "SPJQuery":
        q = cls(
            tables=tuple(sorted(tables.items())),
            joins=tuple(JoinEdge(*j) for j in joins),
            filters=tuple(filters),
        )
        q.check()
        return q

    @property
    def alias_map(self) -> dict[str, str]:
        return dict(self.tables)

    def check(self) -> None:
        amap = self.alias_map
        columns = {alias: {name for name, _ in SCHEMA[table]} for alias, table in amap.items()}
        for edge in self.joins:
            for alias, col in ((edge.left_alias, edge.left_column), (edge.right_alias, edge.right_column)):
                if alias not in amap:
                    raise ValueError(f"join references unknown alias {alias!r}")
                if col not in columns[alias]:
                    raise ValueError(f"no column {col!r} in {amap[alias]!r}")
        for f in self.filters:
            if f.alias not in amap:
                raise ValueError(f"filter references unknown alias {f.alias!r}")
            if f.column not in columns[f.alias]:
                raise ValueError(f"no column {f.column!r} in {amap[f.alias]!r}")
        if len(amap) > 1 and not self._connected():
            raise ValueError("join graph is not connected")

    def _connected(self) -> bool:
        aliases = [a for a, _ in self.tables]
        adj: dict[str, set[str]] = {a: set() for a in aliases}
        for e in self.joins:
            adj[e.left_alias].add(e.right_alias)
            adj[e.right_alias].add(e.left_alias)
        seen = {aliases[0]}
        frontier = [aliases[0]]
        while frontier:
            for nxt in adj[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(aliases)

    def label(self) -> str:
        return "⨝".join(a for a, _ in self.tables)  # aliases joined with the bowtie glyph


# ---------------------------------------------------------------------------
# Store


# Parents before children, so a dataset loads in one batch.
_LOAD_ORDER = ("addresses", "blocks", "tokens", "contracts", "withdrawals", "transactions", "token_transactions")
# Each column's position in its table's rows (SCHEMA order).
_POSITION = {table: {name: i for i, (name, _) in enumerate(cols)} for table, cols in SCHEMA.items()}


# Per table (addresses keep only their balances): the Store attribute holding
# its rows by primary key and, if the table has a parent column, its reverse
# index, that column's position and the getter of a row's sibling key. The
# index maps each parent to its children's sibling keys: the columns of the
# first unique key holding the parent column, else of the primary key, less
# the parent column.
def _sibling_key(table: str, parent: str) -> Callable:
    key = next((k for t, k in UNIQUE_KEYS if t == table and parent in k), PRIMARY_KEYS[table])
    return itemgetter(*(_POSITION[table][c] for c in key if c != parent))


_LAYOUT = {
    table: (rows, index, _POSITION[table][parent], _sibling_key(table, parent)) if parent else (rows, None, None, None)
    for table, rows, index, parent in (
        ("blocks", "blocks", None, None),
        ("transactions", "transactions", "tx_by_block", "block_hash"),
        ("contracts", "contracts", "contracts_by_block", "block_hash"),
        ("tokens", "tokens", "tokens_by_block", "block_hash"),
        ("token_transactions", "token_txs", "ttx_by_tx", "transaction_hash"),
        ("withdrawals", "withdrawals", "wd_by_block", "hash"),
    )
}
_REVERSE_INDEXES = frozenset(index for _, index, _, _ in _LAYOUT.values() if index)
_KEY_OF = {table: itemgetter(*(_POSITION[table][c] for c in columns)) for table, columns in PRIMARY_KEYS.items()}
# The cells the write path reads, by position.
_TX_HASH, _TX_INDEX, _TX_FROM, _TX_TO, _TX_BLOCK = itemgetter(
    "hash", "transaction_index", "from_address", "to_address", "block_hash"
)(_POSITION["transactions"])
_TTX_HASH, _TTX_LOG, _TTX_TOKEN = itemgetter("transaction_hash", "log_index", "token_address")(
    _POSITION["token_transactions"]
)
_WD_HASH, _WD_ADDRESS = itemgetter("hash", "address")(_POSITION["withdrawals"])
_CONTRACT_ADDRESS, _CONTRACT_BLOCK = itemgetter("address", "block_hash")(_POSITION["contracts"])
_TOKEN_ADDRESS, _TOKEN_BLOCK = itemgetter("address", "block_hash")(_POSITION["tokens"])


class Store:
    """Seven keyed tables with the FK indexes the update workload needs."""

    def __init__(self) -> None:
        self.blocks: dict[bytes, object] = {}
        self.block_by_number: dict[int, bytes] = {}
        self.balances: dict[bytes, int] = {}
        self.transactions: dict[bytes, object] = {}
        self.tx_by_block: dict[bytes, set[int]] = {}
        self.contracts: dict[tuple[bytes, int], object] = {}
        self.contracts_by_block: dict[bytes, set[tuple[bytes, int]]] = {}
        self.tokens: dict[bytes, object] = {}
        self.tokens_by_block: dict[bytes, set[bytes]] = {}
        self.token_txs: dict[tuple[bytes, int], object] = {}
        self.ttx_by_tx: dict[bytes, set[int]] = {}
        self.withdrawals: dict[tuple[bytes, int], object] = {}
        self.wd_by_block: dict[bytes, set[int]] = {}

    @classmethod
    def from_dataset(cls, ds: ChainDataset) -> "Store":
        store = cls()
        apply_ops(store, chain.from_iterable(records(InsertRow, table, ds.table(table)) for table in _LOAD_ORDER))
        return store

    def copy(self) -> "Store":
        dup = Store()
        for name, container in vars(self).items():
            deep = name in _REVERSE_INDEXES
            setattr(dup, name, {k: set(v) for k, v in container.items()} if deep else container.copy())
        return dup

    # -- row access ---------------------------------------------------------

    def rows(self, table: str) -> Iterable:
        if table == "addresses":
            return map(_new, repeat(AddressRow), self.balances.items())
        return getattr(self, _LAYOUT[table][0]).values()

    def column(self, table: str, name: str) -> Iterable:
        """The cells of one column, in ``rows`` order."""
        if table == "addresses":
            return self.balances.keys() if name == "address" else self.balances.values()
        return map(itemgetter(_POSITION[table][name]), getattr(self, _LAYOUT[table][0]).values())

    def row_count(self, table: str) -> int:
        return len(self.balances if table == "addresses" else getattr(self, _LAYOUT[table][0]))

    # -- conversions ---------------------------------------------------------

    def to_dataset(self) -> ChainDataset:
        blocks = tuple(sorted(self.blocks.values(), key=lambda b: b.number))
        number_of = {b.hash: b.number for b in blocks}
        return ChainDataset(
            blocks=blocks,
            addresses=tuple(AddressRow(a, b) for a, b in sorted(self.balances.items())),
            transactions=tuple(
                sorted(self.transactions.values(), key=lambda t: (number_of[t.block_hash], t.transaction_index))
            ),
            contracts=tuple(sorted(self.contracts.values(), key=lambda c: (c.address, c.version))),
            tokens=tuple(sorted(self.tokens.values(), key=lambda t: t.address)),
            token_transactions=tuple(
                sorted(self.token_txs.values(), key=lambda t: (t.transaction_hash, t.log_index))
            ),
            withdrawals=tuple(sorted(self.withdrawals.values(), key=lambda w: (w.hash, w.withdrawal_index))),
            final_block=max(self.block_by_number) if self.block_by_number else 0,
        )

    def table_multisets(self) -> dict[str, dict[tuple, int]]:
        """Table contents as multisets of plain value tuples (never row
        types, whose repr differs), for engine-level comparison."""
        return {table: dict(Counter(map(tuple, self.rows(table)))) for table in SCHEMA}


# ---------------------------------------------------------------------------
# Write path: one handler per (mutation kind, table)
#
# A handler checks one op against its table's rules, in order, applies it and
# returns its undo record: a function and its arguments, as one tuple. The undo
# functions are unchecked row moves: a drop undoes an insert, a put a delete or
# a null-out. A reverse index drops a parent's entry with its last child, so a
# parent is referenced exactly when it has an entry.


def _link(index: dict, key, member) -> None:
    members = index.get(key)
    if members is None:
        index[key] = {member}
    else:
        members.add(member)


def _unlink(index: dict, key, member) -> None:
    members = index[key]
    members.discard(member)
    if not members:
        del index[key]


# Block rows are few, and reading their cells by name keeps a row of another
# table an AttributeError rather than a broken rule.
def _put_blocks(store: Store, row) -> None:
    store.blocks[row.hash] = row
    store.block_by_number[row.number] = row.hash


def _drop_blocks(store: Store, row) -> None:
    del store.blocks[row.hash]
    del store.block_by_number[row.number]


def _put_row(store: Store, table: str, row) -> None:
    """Put a row of a table with a parent column; a token or contract whose
    creating block has gone is under no parent."""
    rows, index, parent, sibling_key = _LAYOUT[table]
    getattr(store, rows)[_KEY_OF[table](row)] = row
    if row[parent] is not None:
        _link(getattr(store, index), row[parent], sibling_key(row))


def _drop_row(store: Store, table: str, row) -> None:
    rows, index, parent, sibling_key = _LAYOUT[table]
    del getattr(store, rows)[_KEY_OF[table](row)]
    if row[parent] is not None:
        _unlink(getattr(store, index), row[parent], sibling_key(row))


def _wrong_row(table: str, row) -> TypeError:
    """The error for a row that is not its table's row type: read by
    position, a row of another shape would be taken apart silently."""
    return TypeError(f"{table}: row is a {type(row).__name__}, not a {ROW_TYPES[table].__name__}")


def _insert_addresses(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.__class__ is not AddressRow:
        raise _wrong_row("addresses", row)
    address, balance = row
    if address is None:
        raise ValueError("addresses: NULL address")
    if address in store.balances:
        raise ValueError(f"addresses: duplicate {encode_hex(address)}")
    if not 0 <= balance < WEI_MAX:
        raise ValueError("addresses: eth_balance out of range")
    store.balances[address] = balance
    return dict.pop, store.balances, address


def _insert_blocks(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.hash is None:
        raise ValueError("blocks: NULL hash")
    if row.hash in store.blocks:
        raise ValueError(f"blocks: duplicate hash {encode_hex(row.hash)}")
    if row.number in store.block_by_number:
        raise ValueError(f"blocks: duplicate number {row.number}")
    if row.miner not in store.balances:
        raise ValueError(f"blocks: miner dangling {encode_hex(row.miner)}")
    _put_blocks(store, row)
    return _drop_blocks, store, row


def _insert_transactions(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.__class__ is not Transaction:
        raise _wrong_row("transactions", row)
    tx_hash, index, block_hash, to_address = row[_TX_HASH], row[_TX_INDEX], row[_TX_BLOCK], row[_TX_TO]
    if tx_hash is None:
        raise ValueError("transactions: NULL hash")
    if tx_hash in store.transactions:
        raise ValueError(f"transactions: duplicate hash {encode_hex(tx_hash)}")
    slots = store.tx_by_block.get(block_hash)
    if slots is not None and index in slots:
        raise ValueError(f"transactions: duplicate slot {index}")
    if block_hash not in store.blocks:
        raise ValueError(f"transactions: block_hash dangling {encode_hex(block_hash)}")
    if row[_TX_FROM] not in store.balances:
        raise ValueError("transactions: from_address dangling")
    if to_address is not None and to_address not in store.balances:
        raise ValueError("transactions: to_address dangling")
    # _put_row, inlined: this is a window batch's commonest insert. The slot
    # goes in first, so an unhashable index changes nothing.
    if slots is None:
        store.tx_by_block[block_hash] = {index}
    else:
        slots.add(index)
    store.transactions[tx_hash] = row
    return _drop_row, store, "transactions", row


def _insert_contracts(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.__class__ is not Contract:
        raise _wrong_row("contracts", row)
    address, block_hash = row[_CONTRACT_ADDRESS], row[_CONTRACT_BLOCK]
    if _KEY_OF["contracts"](row) in store.contracts:
        raise ValueError("contracts: duplicate (address, version)")
    if address not in store.balances:
        raise ValueError("contracts: address dangling")
    if block_hash is not None and block_hash not in store.blocks:
        raise ValueError("contracts: block_hash dangling")
    _put_row(store, "contracts", row)
    return _drop_row, store, "contracts", row


def _insert_tokens(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.__class__ is not Token:
        raise _wrong_row("tokens", row)
    address, block_hash = row[_TOKEN_ADDRESS], row[_TOKEN_BLOCK]
    if address in store.tokens:
        raise ValueError("tokens: duplicate address")
    if address not in store.balances:
        raise ValueError("tokens: address dangling")
    if block_hash is not None and block_hash not in store.blocks:
        raise ValueError("tokens: block_hash dangling")
    _put_row(store, "tokens", row)
    return _drop_row, store, "tokens", row


def _insert_token_transactions(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.__class__ is not TokenTransaction:
        raise _wrong_row("token_transactions", row)
    # The generic row move is too slow for the commonest insert of a window batch.
    tx_hash, log_index = row[_TTX_HASH], row[_TTX_LOG]
    key = (tx_hash, log_index)
    if key in store.token_txs:
        raise ValueError("token_transactions: duplicate (transaction_hash, log_index)")
    if tx_hash not in store.transactions:
        raise ValueError("token_transactions: transaction_hash dangling")
    if row[_TTX_TOKEN] not in store.tokens:
        raise ValueError("token_transactions: token_address dangling")
    store.token_txs[key] = row
    members = store.ttx_by_tx.get(tx_hash)
    if members is None:
        store.ttx_by_tx[tx_hash] = {log_index}
    else:
        members.add(log_index)
    return _drop_row, store, "token_transactions", row


def _insert_withdrawals(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.__class__ is not Withdrawal:
        raise _wrong_row("withdrawals", row)
    if _KEY_OF["withdrawals"](row) in store.withdrawals:
        raise ValueError("withdrawals: duplicate (hash, withdrawal_index)")
    if row[_WD_HASH] not in store.blocks:
        raise ValueError("withdrawals: hash dangling")
    if row[_WD_ADDRESS] not in store.balances:
        raise ValueError("withdrawals: address dangling")
    _put_row(store, "withdrawals", row)
    return _drop_row, store, "withdrawals", row


def _delete_blocks(store: Store, op: DeleteRow) -> tuple:
    (block_hash,) = op.key
    row = store.blocks.get(block_hash)
    if row is None:
        raise ValueError("blocks: no such row")
    for label in ("transactions", "withdrawals", "tokens", "contracts"):
        if block_hash in getattr(store, _LAYOUT[label][1]):
            raise ValueError(f"blocks: still referenced by {label}")
    _drop_blocks(store, row)
    return _put_blocks, store, row


def _delete_transactions(store: Store, op: DeleteRow) -> tuple:
    (tx_hash,) = op.key
    row = store.transactions.get(tx_hash)
    if row is None:
        raise ValueError("transactions: no such row")
    if tx_hash in store.ttx_by_tx:
        raise ValueError("transactions: still referenced by token_transactions")
    # _drop_row, inlined: this is a window batch's commonest delete.
    del store.transactions[tx_hash]
    block_hash = row[_TX_BLOCK]
    slots = store.tx_by_block[block_hash]
    slots.discard(row[_TX_INDEX])
    if not slots:
        del store.tx_by_block[block_hash]
    return _put_row, store, "transactions", row


def _delete_token_transactions(store: Store, op: DeleteRow) -> tuple:
    key = op.key
    row = store.token_txs.get(key)
    if row is None:
        raise ValueError("token_transactions: no such row")
    del store.token_txs[key]
    _unlink(store.ttx_by_tx, row[_TTX_HASH], row[_TTX_LOG])
    return _put_row, store, "token_transactions", row


def _delete_withdrawals(store: Store, op: DeleteRow) -> tuple:
    row = store.withdrawals.get(op.key)
    if row is None:
        raise ValueError("withdrawals: no such row")
    _drop_row(store, "withdrawals", row)
    return _put_row, store, "withdrawals", row


def _update_balance(store: Store, op: UpdateBalance) -> tuple:
    address, delta = op
    balances = store.balances
    if address not in balances:
        raise ValueError(f"addresses: no such row {encode_hex(address)}")
    old = balances[address]
    new = old + delta
    if not 0 <= new < WEI_MAX:
        raise ValueError(f"addresses: balance out of range for {encode_hex(address)}")
    balances[address] = new
    return dict.__setitem__, balances, address, old


def _null_out(store: Store, table: str, key) -> tuple:
    """Set a tokens or contracts row's block_hash to NULL; unlink it from its block."""
    rows, index, parent, sibling_key = _LAYOUT[table]
    row = getattr(store, rows).get(key)
    if row is None:
        raise ValueError(f"{table}: no such row")
    getattr(store, rows)[key] = row._replace(block_hash=None)
    if row[parent] is not None:
        _unlink(getattr(store, index), row[parent], sibling_key(row))
    return _put_row, store, table, row


def _null_tokens(store: Store, op: NullBlockHash) -> tuple:
    (address,) = op.key
    return _null_out(store, "tokens", address)


def _null_contracts(store: Store, op: NullBlockHash) -> tuple:
    return _null_out(store, "contracts", op.key)


_HANDLERS: dict[type, dict[str, Callable[[Store, Mutation], tuple]]] = {
    InsertRow: {
        "addresses": _insert_addresses, "blocks": _insert_blocks, "transactions": _insert_transactions,
        "contracts": _insert_contracts, "tokens": _insert_tokens,
        "token_transactions": _insert_token_transactions, "withdrawals": _insert_withdrawals,
    },
    DeleteRow: {
        "blocks": _delete_blocks, "transactions": _delete_transactions,
        "token_transactions": _delete_token_transactions, "withdrawals": _delete_withdrawals,
    },
    UpdateBalance: {"addresses": _update_balance},
    NullBlockHash: {"tokens": _null_tokens, "contracts": _null_contracts},
}
# Per mutation kind: the summary field counting it, and the refusal of a table without a handler.
_KINDS = {
    InsertRow: ("inserts", "unknown table"),
    DeleteRow: ("deletes", "delete not supported on table"),
    UpdateBalance: ("updates", "update not supported on table"),
    NullBlockHash: ("updates", "null-out not supported on table"),
}
_COUNTED_IN = {h: (_KINDS[kind][0], table) for kind, by_table in _HANDLERS.items() for table, h in by_table.items()}


def _resolve(op) -> Callable[[Store, Mutation], tuple]:
    """Handler of an op the direct lookup misses (its class subclasses a
    mutation record), or the refusal of one no handler takes."""
    for kind, (_, refusal) in _KINDS.items():
        if isinstance(op, kind):
            try:
                return _HANDLERS[kind][op.table]
            except (KeyError, TypeError):
                raise ValueError(f"{refusal} {op.table!r}") from None
    raise ValueError(f"unknown mutation {type(op).__name__}")


def apply_ops(store: Store, ops: Iterable[Mutation]) -> MutationSummary:
    """Apply mutations atomically: on any exception the undo records run in
    reverse, so the store is left unchanged. A ``ValueError`` (a broken rule,
    or an op no handler takes) then becomes ``BatchRejected`` at the failing
    op's index; any other exception is re-raised as it is."""
    journal: list[tuple] = []
    push = journal.append
    # One (handler, index of its first op) per run of ops with equal
    # handlers: a batch comes grouped by kind and table, so a run is long.
    runs: list[tuple[Callable | None, int]] = []
    last = None
    try:
        for op in ops:
            try:
                handler = _HANDLERS[op.__class__][op.table]
            except (AttributeError, KeyError, TypeError):
                handler = _resolve(op)
            if handler is not last:
                runs.append((handler, len(journal)))
                last = handler
            push(handler(store, op))
    except BaseException as exc:
        for undo, *args in reversed(journal):
            undo(*args)
        if isinstance(exc, ValueError):
            raise BatchRejected(len(journal), str(exc)) from exc
        raise
    runs.append((None, len(journal)))  # the end of the last run
    summary = MutationSummary()
    for (handler, start), (_, stop) in zip(runs, runs[1:]):
        field_name, table = _COUNTED_IN[handler]
        counts = getattr(summary, field_name)
        counts[table] = counts.get(table, 0) + stop - start
    return summary


def apply(store: Store, batch) -> MutationSummary:
    """Apply a generated batch (anything carrying an ``ops`` sequence)."""
    return apply_ops(store, batch.ops)


def base_relation(store: Store, table: str, filters: Sequence[Filter]) -> list:
    """Rows of ``table`` that satisfy every filter: one alias's input to a join.

    The filters run one after another, each over the rows the previous one
    kept, and read their cell once, by its ``SCHEMA`` position. SQL
    semantics: NULL satisfies no predicate.
    """
    rows = store.rows(table)
    for f in filters:
        i, op, value = _POSITION[table][f.column], f.op, f.value
        if op == "range":
            lo, hi = value
            rows = [r for r in rows if (v := r[i]) is not None and lo <= v <= hi]
        elif op == "eq":
            rows = [r for r in rows if (v := r[i]) is not None and v == value]
        elif op == "ne":
            rows = [r for r in rows if (v := r[i]) is not None and v != value]
        elif op == "is_true":
            rows = [r for r in rows if r[i] is True]
        elif op == "is_false":
            rows = [r for r in rows if r[i] is False]
        elif op == "contains":
            rows = [r for r in rows if (v := r[i]) is not None and value in v]
        elif op == "not_contains":
            rows = [r for r in rows if (v := r[i]) is not None and value not in v]
        elif op == "ge":
            rows = [r for r in rows if (v := r[i]) is not None and v >= value]
        else:  # le
            rows = [r for r in rows if (v := r[i]) is not None and v <= value]
    return rows if filters else list(rows)


def _hash_table(relations: dict, key: tuple, rows: list, position: int) -> dict:
    """``rows`` by their non-null cell at ``position``: the build side of a
    hash join, kept in ``relations`` under ``(key, position)``, where ``key``
    is the rows' relation key."""
    table = relations.get((key, position))
    if table is None:
        table = relations[(key, position)] = {}
        for row in rows:
            cell = row[position]
            if cell is not None:
                table.setdefault(cell, []).append(row)
    return table


def count(store: Store, q: SPJQuery, relations: dict | None = None) -> int:
    """Exact result cardinality of the join+filter, via hash joins.

    Each alias reads its base relation (``base_relation``). ``relations``
    lets the counts of one probe call share them and their hash tables: it
    maps ``(table, filters)``, the filters taken without their alias, to the
    relation, and that key plus a column position to the relation's rows by
    their cell in that column. What is missing from it is built and added. It
    must last for one probe call (``eval_harness.evaluate_state``) on one
    frozen state and no longer. Relations are never cached on the ``Store``:
    any mutation would make them stale, and ``run-queries --median`` times
    repeated calls to measure a full count.
    """
    q.check()
    if relations is None:
        relations = {}
    filtered: dict[str, list] = {}
    relation_key: dict[str, tuple] = {}
    for alias, table in q.tables:
        preds = tuple(f for f in q.filters if f.alias == alias)
        key = relation_key[alias] = (table, tuple((f.column, f.op, f.value) for f in preds))
        if key not in relations:
            relations[key] = base_relation(store, table, preds)
        filtered[alias] = relations[key]

    aliases = [a for a, _ in q.tables]
    amap = q.alias_map
    if len(aliases) == 1:
        return len(filtered[aliases[0]])

    # Grow a connected cover, one hash join per edge that adds a new alias;
    # edges between already-covered aliases become residual equality filters.
    # The last step, if it is a hash join, only sums its bucket sizes.
    position = {aliases[0]: 0}
    covered = {aliases[0]}
    tuples: list[tuple] = list(zip(filtered[aliases[0]]))
    pending = list(q.joins)
    while pending:
        progressed = False
        for i, edge in enumerate(pending):
            l_in, r_in = edge.left_alias in covered, edge.right_alias in covered
            if not (l_in or r_in):
                continue
            pending.pop(i)
            progressed = True
            lc = _POSITION[amap[edge.left_alias]][edge.left_column]
            rc = _POSITION[amap[edge.right_alias]][edge.right_column]
            if l_in and r_in:
                li, ri = position[edge.left_alias], position[edge.right_alias]
                tuples = [t for t in tuples if t[li][lc] is not None and t[li][lc] == t[ri][rc]]
            else:
                if l_in:
                    old_alias, oc, new_alias, nc = edge.left_alias, lc, edge.right_alias, rc
                else:
                    old_alias, oc, new_alias, nc = edge.right_alias, rc, edge.left_alias, lc
                table = _hash_table(relations, relation_key[new_alias], filtered[new_alias], nc)
                keys = map(itemgetter(oc), map(itemgetter(position[old_alias]), tuples))
                if not pending:  # None is never a key, so it finds no bucket
                    return sum(map(len, map(table.__getitem__, filter(table.__contains__, keys))))
                tuples = [t + (row,) for t, key in zip(tuples, keys) for row in table.get(key, ())]
                position[new_alias] = len(position)
                covered.add(new_alias)
            break
        if not progressed:
            raise ValueError("join graph is not connected")
    return len(tuples)
