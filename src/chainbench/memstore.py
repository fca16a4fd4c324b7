"""In-memory relational store over the ledger schema.

Enforces every key and foreign-key constraint on each mutation, through one
handler per (mutation kind, table), applies batches atomically (all-or-nothing
via a journal of undo records), and answers select-project-join COUNT queries
exactly with hash joins. This is the harness's ground-truth engine: not a SQL
engine, no persistence, no cost model. One writer at a time; readers must not
overlap a mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, ClassVar, Iterable, Sequence

from .chain_model import AddressRow, ChainDataset, PRIMARY_KEYS, SCHEMA, WEI_MAX, encode_hex

# ---------------------------------------------------------------------------
# Structured mutations


@dataclass(frozen=True, slots=True)
class InsertRow:
    table: str
    row: object


@dataclass(frozen=True, slots=True)
class DeleteRow:
    table: str
    key: tuple


@dataclass(frozen=True, slots=True)
class UpdateBalance:
    address: bytes
    delta: int
    table: ClassVar[str] = "addresses"


@dataclass(frozen=True, slots=True)
class NullBlockHash:
    table: str  # "tokens" or "contracts"
    key: tuple


Mutation = InsertRow | DeleteRow | UpdateBalance | NullBlockHash


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

    def total(self) -> int:
        return sum(self.inserts.values()) + sum(self.deletes.values()) + sum(self.updates.values())


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
# Per table (addresses keep only their balances): the Store attribute holding
# its rows by primary key, and the reverse index listing each row's key under
# its parent column's value, if the table has one.
_LAYOUT = {
    "blocks": ("blocks", None, None),
    "transactions": ("transactions", "tx_by_block", "block_hash"),
    "contracts": ("contracts", "contracts_by_block", "block_hash"),
    "tokens": ("tokens", "tokens_by_block", "block_hash"),
    "token_transactions": ("token_txs", "ttx_by_tx", "transaction_hash"),
    "withdrawals": ("withdrawals", "wd_by_block", "hash"),
}
_REVERSE_INDEXES = frozenset(index for _, index, _ in _LAYOUT.values() if index)
_KEY_OF = {table: attrgetter(*columns) for table, columns in PRIMARY_KEYS.items()}


class Store:
    """Seven keyed tables with the FK indexes the update workload needs."""

    def __init__(self) -> None:
        self.blocks: dict[bytes, object] = {}
        self.block_by_number: dict[int, bytes] = {}
        self.balances: dict[bytes, int] = {}
        self.transactions: dict[bytes, object] = {}
        self.tx_slots: set[tuple[bytes, int]] = set()
        self.tx_by_block: dict[bytes, set[bytes]] = {}
        self.contracts: dict[tuple[bytes, int], object] = {}
        self.contracts_by_block: dict[bytes, set[tuple[bytes, int]]] = {}
        self.tokens: dict[bytes, object] = {}
        self.tokens_by_block: dict[bytes, set[bytes]] = {}
        self.token_txs: dict[tuple[bytes, int], object] = {}
        self.ttx_by_tx: dict[bytes, set[tuple[bytes, int]]] = {}
        self.withdrawals: dict[tuple[bytes, int], object] = {}
        self.wd_by_block: dict[bytes, set[tuple[bytes, int]]] = {}

    @classmethod
    def from_dataset(cls, ds: ChainDataset) -> "Store":
        store = cls()
        apply_ops(store, [InsertRow(table, row) for table in _LOAD_ORDER for row in ds.table(table)])
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
            return (AddressRow(a, b) for a, b in self.balances.items())
        return getattr(self, _LAYOUT[table][0]).values()

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
            final_balances=dict(sorted(self.balances.items())),
            final_block=max(self.block_by_number) if self.block_by_number else 0,
        )

    def table_multisets(self) -> dict[str, dict[tuple, int]]:
        """Table contents as value-tuple multisets, for engine-level comparison."""
        out: dict[str, dict[tuple, int]] = {}
        for table in SCHEMA:
            counts: dict[tuple, int] = {}
            cols = [name for name, _ in SCHEMA[table]]
            for row in self.rows(table):
                key = tuple(getattr(row, c) for c in cols)
                counts[key] = counts.get(key, 0) + 1
            out[table] = counts
        return out


# ---------------------------------------------------------------------------
# Write path: one handler per (mutation kind, table)
#
# A handler checks one op against its table's rules, in order, applies it and
# returns its undo record: a function and its arguments, as one tuple. The undo
# functions are unchecked row moves: a drop undoes an insert, a put a delete or
# a null-out. A reverse index keeps a parent's set once it is empty.


def _link(index: dict, key, member) -> None:
    members = index.get(key)
    if members is None:
        index[key] = {member}
    else:
        members.add(member)


def _put_blocks(store: Store, row) -> None:
    store.blocks[row.hash] = row
    store.block_by_number[row.number] = row.hash


def _drop_blocks(store: Store, row) -> None:
    del store.blocks[row.hash]
    del store.block_by_number[row.number]


def _put_transactions(store: Store, row) -> None:
    store.transactions[row.hash] = row
    store.tx_slots.add((row.block_hash, row.transaction_index))
    _link(store.tx_by_block, row.block_hash, row.hash)


def _drop_transactions(store: Store, row) -> None:
    del store.transactions[row.hash]
    store.tx_slots.discard((row.block_hash, row.transaction_index))
    store.tx_by_block[row.block_hash].discard(row.hash)


def _put_row(store: Store, table: str, row) -> None:
    """Put a contracts, tokens, token_transactions or withdrawals row; a token
    or contract whose creating block has gone is under no parent."""
    rows, index, parent = _LAYOUT[table]
    getattr(store, rows)[_KEY_OF[table](row)] = row
    if getattr(row, parent) is not None:
        _link(getattr(store, index), getattr(row, parent), _KEY_OF[table](row))


def _drop_row(store: Store, table: str, row) -> None:
    rows, index, parent = _LAYOUT[table]
    del getattr(store, rows)[_KEY_OF[table](row)]
    if getattr(row, parent) is not None:
        getattr(store, index)[getattr(row, parent)].discard(_KEY_OF[table](row))


def _insert_addresses(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.address in store.balances:
        raise ValueError(f"addresses: duplicate {encode_hex(row.address)}")
    if not 0 <= row.eth_balance < WEI_MAX:
        raise ValueError("addresses: eth_balance out of range")
    store.balances[row.address] = row.eth_balance
    return dict.pop, store.balances, row.address


def _insert_blocks(store: Store, op: InsertRow) -> tuple:
    row = op.row
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
    if row.hash in store.transactions:
        raise ValueError(f"transactions: duplicate hash {encode_hex(row.hash)}")
    if (row.block_hash, row.transaction_index) in store.tx_slots:
        raise ValueError(f"transactions: duplicate slot {row.transaction_index}")
    if row.block_hash not in store.blocks:
        raise ValueError(f"transactions: block_hash dangling {encode_hex(row.block_hash)}")
    if row.from_address not in store.balances:
        raise ValueError("transactions: from_address dangling")
    if row.to_address is not None and row.to_address not in store.balances:
        raise ValueError("transactions: to_address dangling")
    _put_transactions(store, row)
    return _drop_transactions, store, row


def _insert_contracts(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if (row.address, row.version) in store.contracts:
        raise ValueError("contracts: duplicate (address, version)")
    if row.address not in store.balances:
        raise ValueError("contracts: address dangling")
    if row.block_hash is not None and row.block_hash not in store.blocks:
        raise ValueError("contracts: block_hash dangling")
    _put_row(store, "contracts", row)
    return _drop_row, store, "contracts", row


def _insert_tokens(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if row.address in store.tokens:
        raise ValueError("tokens: duplicate address")
    if row.address not in store.balances:
        raise ValueError("tokens: address dangling")
    if row.block_hash is not None and row.block_hash not in store.blocks:
        raise ValueError("tokens: block_hash dangling")
    _put_row(store, "tokens", row)
    return _drop_row, store, "tokens", row


def _insert_token_transactions(store: Store, op: InsertRow) -> tuple:
    row = op.row
    # The generic row move is too slow for the commonest insert of a window batch.
    tx_hash, key = row.transaction_hash, (row.transaction_hash, row.log_index)
    if key in store.token_txs:
        raise ValueError("token_transactions: duplicate (transaction_hash, log_index)")
    if tx_hash not in store.transactions:
        raise ValueError("token_transactions: transaction_hash dangling")
    if row.token_address not in store.tokens:
        raise ValueError("token_transactions: token_address dangling")
    store.token_txs[key] = row
    members = store.ttx_by_tx.get(tx_hash)
    if members is None:
        store.ttx_by_tx[tx_hash] = {key}
    else:
        members.add(key)
    return _drop_row, store, "token_transactions", row


def _insert_withdrawals(store: Store, op: InsertRow) -> tuple:
    row = op.row
    if (row.hash, row.withdrawal_index) in store.withdrawals:
        raise ValueError("withdrawals: duplicate (hash, withdrawal_index)")
    if row.hash not in store.blocks:
        raise ValueError("withdrawals: hash dangling")
    if row.address not in store.balances:
        raise ValueError("withdrawals: address dangling")
    _put_row(store, "withdrawals", row)
    return _drop_row, store, "withdrawals", row


def _delete_blocks(store: Store, op: DeleteRow) -> tuple:
    (block_hash,) = op.key
    row = store.blocks.get(block_hash)
    if row is None:
        raise ValueError("blocks: no such row")
    for label in ("transactions", "withdrawals", "tokens", "contracts"):
        if getattr(store, _LAYOUT[label][1]).get(block_hash):
            raise ValueError(f"blocks: still referenced by {label}")
    _drop_blocks(store, row)
    return _put_blocks, store, row


def _delete_transactions(store: Store, op: DeleteRow) -> tuple:
    (tx_hash,) = op.key
    row = store.transactions.get(tx_hash)
    if row is None:
        raise ValueError("transactions: no such row")
    if store.ttx_by_tx.get(tx_hash):
        raise ValueError("transactions: still referenced by token_transactions")
    _drop_transactions(store, row)
    return _put_transactions, store, row


def _delete_token_transactions(store: Store, op: DeleteRow) -> tuple:
    key = op.key
    row = store.token_txs.get(key)
    if row is None:
        raise ValueError("token_transactions: no such row")
    del store.token_txs[key]
    store.ttx_by_tx[row.transaction_hash].discard(key)
    return _put_row, store, "token_transactions", row


def _delete_withdrawals(store: Store, op: DeleteRow) -> tuple:
    row = store.withdrawals.get(op.key)
    if row is None:
        raise ValueError("withdrawals: no such row")
    _drop_row(store, "withdrawals", row)
    return _put_row, store, "withdrawals", row


def _update_balance(store: Store, op: UpdateBalance) -> tuple:
    address, balances = op.address, store.balances
    if address not in balances:
        raise ValueError(f"addresses: no such row {encode_hex(address)}")
    old = balances[address]
    new = old + op.delta
    if not 0 <= new < WEI_MAX:
        raise ValueError(f"addresses: balance out of range for {encode_hex(address)}")
    balances[address] = new
    return dict.__setitem__, balances, address, old


def _null_tokens(store: Store, op: NullBlockHash) -> tuple:
    (address,) = op.key
    row = store.tokens.get(address)
    if row is None:
        raise ValueError("tokens: no such row")
    store.tokens[address] = replace(row, block_hash=None)
    if row.block_hash is not None:
        store.tokens_by_block[row.block_hash].discard(address)
    return _put_row, store, "tokens", row


def _null_contracts(store: Store, op: NullBlockHash) -> tuple:
    key = op.key
    row = store.contracts.get(key)
    if row is None:
        raise ValueError("contracts: no such row")
    store.contracts[key] = replace(row, block_hash=None)
    if row.block_hash is not None:
        store.contracts_by_block[row.block_hash].discard(key)
    return _put_row, store, "contracts", row


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
    tally: dict[Callable, int] = {}
    try:
        for op in ops:
            try:
                handler = _HANDLERS[op.__class__][op.table]
            except (AttributeError, KeyError, TypeError):
                handler = _resolve(op)
            push(handler(store, op))
            tally[handler] = tally.get(handler, 0) + 1
    except BaseException as exc:
        for undo, *args in reversed(journal):
            undo(*args)
        if isinstance(exc, ValueError):
            raise BatchRejected(len(journal), str(exc)) from exc
        raise
    summary = MutationSummary()
    for handler, n in tally.items():
        field_name, table = _COUNTED_IN[handler]
        getattr(summary, field_name)[table] = n
    return summary


def apply(store: Store, batch) -> MutationSummary:
    """Apply a generated batch (anything carrying an ``ops`` sequence)."""
    return apply_ops(store, batch.ops)


def snapshot_blocks(store: Store) -> list[int]:
    return sorted(store.block_by_number)


def _cell_test(f: Filter) -> Callable[[object], bool]:
    """``f`` as a one-argument test on a cell. SQL semantics: NULL satisfies
    no predicate."""
    op, value = f.op, f.value
    if op == "range":
        lo, hi = value
        return lambda cell: cell is not None and lo <= cell <= hi
    if op == "eq":
        return lambda cell: cell is not None and cell == value
    if op == "ne":
        return lambda cell: cell is not None and cell != value
    if op == "is_true":
        return lambda cell: cell is True
    if op == "is_false":
        return lambda cell: cell is False
    if op == "contains":
        return lambda cell: cell is not None and value in cell
    if op == "not_contains":
        return lambda cell: cell is not None and value not in cell
    if op == "ge":
        return lambda cell: cell is not None and cell >= value
    return lambda cell: cell is not None and cell <= value  # le


def base_relation(store: Store, table: str, filters: Sequence[Filter]) -> list:
    """Rows of ``table`` that satisfy every filter: one alias's input to a join.

    The filters run one after another, each over the rows the previous one
    kept.
    """
    if not filters:
        return list(store.rows(table))
    rows = store.rows(table)
    for f in filters:
        column, test = attrgetter(f.column), _cell_test(f)
        rows = [row for row in rows if test(column(row))]
    return rows


def count(store: Store, q: SPJQuery, relations: dict | None = None) -> int:
    """Exact result cardinality of the join+filter, via hash joins.

    Each alias reads its base relation (``base_relation``). ``relations``
    lets the counts of one probe call share them: it maps ``(table,
    filters)``, the filters taken without their alias, to the relation, and
    a relation missing from it is built and added. It must last for one
    probe call (``eval_harness.evaluate_state``) on one frozen state and no
    longer. Relations are never cached on the ``Store``: any mutation would
    make them stale, and ``run-queries --median`` times repeated calls to
    measure a full count.
    """
    q.check()
    if relations is None:
        relations = {}
    filtered: dict[str, list] = {}
    for alias, table in q.tables:
        preds = tuple(f for f in q.filters if f.alias == alias)
        key = (table, tuple((f.column, f.op, f.value) for f in preds))
        if key not in relations:
            relations[key] = base_relation(store, table, preds)
        filtered[alias] = relations[key]

    aliases = [a for a, _ in q.tables]
    if len(aliases) == 1:
        return len(filtered[aliases[0]])

    # Grow a connected cover, one hash join per edge that adds a new alias;
    # edges between already-covered aliases become residual equality filters.
    position = {aliases[0]: 0}
    covered = {aliases[0]}
    tuples: list[tuple] = [(row,) for row in filtered[aliases[0]]]
    pending = list(q.joins)
    while pending:
        progressed = False
        for i, edge in enumerate(pending):
            l_in, r_in = edge.left_alias in covered, edge.right_alias in covered
            if not (l_in or r_in):
                continue
            pending.pop(i)
            progressed = True
            if l_in and r_in:
                li, ri = position[edge.left_alias], position[edge.right_alias]
                tuples = [
                    t
                    for t in tuples
                    if getattr(t[li], edge.left_column) is not None
                    and getattr(t[li], edge.left_column) == getattr(t[ri], edge.right_column)
                ]
            else:
                if l_in:
                    old_alias, old_col = edge.left_alias, edge.left_column
                    new_alias, new_col = edge.right_alias, edge.right_column
                else:
                    old_alias, old_col = edge.right_alias, edge.right_column
                    new_alias, new_col = edge.left_alias, edge.left_column
                table: dict = {}
                for row in filtered[new_alias]:
                    key = getattr(row, new_col)
                    if key is None:
                        continue
                    table.setdefault(key, []).append(row)
                oi = position[old_alias]
                joined: list[tuple] = []
                for t in tuples:
                    key = getattr(t[oi], old_col)
                    if key is None:
                        continue
                    for row in table.get(key, ()):
                        joined.append(t + (row,))
                tuples = joined
                position[new_alias] = len(position)
                covered.add(new_alias)
            break
        if not progressed:
            raise ValueError("join graph is not connected")
    return len(tuples)
