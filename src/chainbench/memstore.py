"""In-memory relational store over the ledger schema.

Enforces every key and foreign-key constraint on each mutation, applies
batches atomically (all-or-nothing via an undo journal), and answers
select-project-join COUNT queries exactly with hash joins. This is the
harness's ground-truth engine: not a SQL engine, no persistence, no cost
model. One writer at a time; readers must not overlap a mutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .chain_model import AddressRow, ChainDataset, SCHEMA, WEI_MAX, encode_hex

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

    def _bump(self, counter: dict[str, int], table: str) -> None:
        counter[table] = counter.get(table, 0) + 1

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
        if len(amap) > 1:
            if not self._connected():
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
        ops: list[Mutation] = []
        for a in ds.addresses:
            ops.append(InsertRow("addresses", a))
        for b in ds.blocks:
            ops.append(InsertRow("blocks", b))
        for tk in ds.tokens:
            ops.append(InsertRow("tokens", tk))
        for c in ds.contracts:
            ops.append(InsertRow("contracts", c))
        for w in ds.withdrawals:
            ops.append(InsertRow("withdrawals", w))
        for t in ds.transactions:
            ops.append(InsertRow("transactions", t))
        for tt in ds.token_transactions:
            ops.append(InsertRow("token_transactions", tt))
        apply_ops(store, ops)
        return store

    def copy(self) -> "Store":
        dup = Store()
        dup.blocks = dict(self.blocks)
        dup.block_by_number = dict(self.block_by_number)
        dup.balances = dict(self.balances)
        dup.transactions = dict(self.transactions)
        dup.tx_slots = set(self.tx_slots)
        dup.tx_by_block = {k: set(v) for k, v in self.tx_by_block.items()}
        dup.contracts = dict(self.contracts)
        dup.contracts_by_block = {k: set(v) for k, v in self.contracts_by_block.items()}
        dup.tokens = dict(self.tokens)
        dup.tokens_by_block = {k: set(v) for k, v in self.tokens_by_block.items()}
        dup.token_txs = dict(self.token_txs)
        dup.ttx_by_tx = {k: set(v) for k, v in self.ttx_by_tx.items()}
        dup.withdrawals = dict(self.withdrawals)
        dup.wd_by_block = {k: set(v) for k, v in self.wd_by_block.items()}
        return dup

    # -- row access ---------------------------------------------------------

    def rows(self, table: str) -> Iterable:
        if table == "addresses":
            return (AddressRow(a, b) for a, b in self.balances.items())
        if table == "blocks":
            return self.blocks.values()
        if table == "transactions":
            return self.transactions.values()
        if table == "contracts":
            return self.contracts.values()
        if table == "tokens":
            return self.tokens.values()
        if table == "token_transactions":
            return self.token_txs.values()
        if table == "withdrawals":
            return self.withdrawals.values()
        raise KeyError(table)

    def row_count(self, table: str) -> int:
        return {
            "addresses": len(self.balances),
            "blocks": len(self.blocks),
            "transactions": len(self.transactions),
            "contracts": len(self.contracts),
            "tokens": len(self.tokens),
            "token_transactions": len(self.token_txs),
            "withdrawals": len(self.withdrawals),
        }[table]

    # -- low-level mutators; each returns an undo thunk ----------------------

    def _insert(self, table: str, row) -> Callable[[], None]:
        if table == "addresses":
            if row.address in self.balances:
                raise ValueError(f"addresses: duplicate {encode_hex(row.address)}")
            if not 0 <= row.eth_balance < WEI_MAX:
                raise ValueError("addresses: eth_balance out of range")
            self.balances[row.address] = row.eth_balance
            return lambda: self.balances.pop(row.address)
        if table == "blocks":
            if row.hash in self.blocks:
                raise ValueError(f"blocks: duplicate hash {encode_hex(row.hash)}")
            if row.number in self.block_by_number:
                raise ValueError(f"blocks: duplicate number {row.number}")
            if row.miner not in self.balances:
                raise ValueError(f"blocks: miner dangling {encode_hex(row.miner)}")
            self.blocks[row.hash] = row
            self.block_by_number[row.number] = row.hash

            def undo() -> None:
                self.blocks.pop(row.hash)
                self.block_by_number.pop(row.number)

            return undo
        if table == "transactions":
            if row.hash in self.transactions:
                raise ValueError(f"transactions: duplicate hash {encode_hex(row.hash)}")
            slot = (row.block_hash, row.transaction_index)
            if slot in self.tx_slots:
                raise ValueError(f"transactions: duplicate slot {row.transaction_index}")
            if row.block_hash not in self.blocks:
                raise ValueError(f"transactions: block_hash dangling {encode_hex(row.block_hash)}")
            if row.from_address not in self.balances:
                raise ValueError("transactions: from_address dangling")
            if row.to_address is not None and row.to_address not in self.balances:
                raise ValueError("transactions: to_address dangling")
            self.transactions[row.hash] = row
            self.tx_slots.add(slot)
            self.tx_by_block.setdefault(row.block_hash, set()).add(row.hash)

            def undo() -> None:
                self.transactions.pop(row.hash)
                self.tx_slots.discard(slot)
                self.tx_by_block[row.block_hash].discard(row.hash)

            return undo
        if table == "contracts":
            key = (row.address, row.version)
            if key in self.contracts:
                raise ValueError("contracts: duplicate (address, version)")
            if row.address not in self.balances:
                raise ValueError("contracts: address dangling")
            if row.block_hash is not None and row.block_hash not in self.blocks:
                raise ValueError("contracts: block_hash dangling")
            self.contracts[key] = row
            if row.block_hash is not None:
                self.contracts_by_block.setdefault(row.block_hash, set()).add(key)

            def undo() -> None:
                self.contracts.pop(key)
                if row.block_hash is not None:
                    self.contracts_by_block[row.block_hash].discard(key)

            return undo
        if table == "tokens":
            if row.address in self.tokens:
                raise ValueError("tokens: duplicate address")
            if row.address not in self.balances:
                raise ValueError("tokens: address dangling")
            if row.block_hash is not None and row.block_hash not in self.blocks:
                raise ValueError("tokens: block_hash dangling")
            self.tokens[row.address] = row
            if row.block_hash is not None:
                self.tokens_by_block.setdefault(row.block_hash, set()).add(row.address)

            def undo() -> None:
                self.tokens.pop(row.address)
                if row.block_hash is not None:
                    self.tokens_by_block[row.block_hash].discard(row.address)

            return undo
        if table == "token_transactions":
            key = (row.transaction_hash, row.log_index)
            if key in self.token_txs:
                raise ValueError("token_transactions: duplicate (transaction_hash, log_index)")
            if row.transaction_hash not in self.transactions:
                raise ValueError("token_transactions: transaction_hash dangling")
            if row.token_address not in self.tokens:
                raise ValueError("token_transactions: token_address dangling")
            self.token_txs[key] = row
            self.ttx_by_tx.setdefault(row.transaction_hash, set()).add(key)

            def undo() -> None:
                self.token_txs.pop(key)
                self.ttx_by_tx[row.transaction_hash].discard(key)

            return undo
        if table == "withdrawals":
            key = (row.hash, row.withdrawal_index)
            if key in self.withdrawals:
                raise ValueError("withdrawals: duplicate (hash, withdrawal_index)")
            if row.hash not in self.blocks:
                raise ValueError("withdrawals: hash dangling")
            if row.address not in self.balances:
                raise ValueError("withdrawals: address dangling")
            self.withdrawals[key] = row
            self.wd_by_block.setdefault(row.hash, set()).add(key)

            def undo() -> None:
                self.withdrawals.pop(key)
                self.wd_by_block[row.hash].discard(key)

            return undo
        raise ValueError(f"unknown table {table!r}")

    def _delete(self, table: str, key: tuple) -> Callable[[], None]:
        if table == "blocks":
            (block_hash,) = key
            row = self.blocks.get(block_hash)
            if row is None:
                raise ValueError("blocks: no such row")
            for index, label in (
                (self.tx_by_block, "transactions"),
                (self.wd_by_block, "withdrawals"),
                (self.tokens_by_block, "tokens"),
                (self.contracts_by_block, "contracts"),
            ):
                if index.get(block_hash):
                    raise ValueError(f"blocks: still referenced by {label}")
            self.blocks.pop(block_hash)
            self.block_by_number.pop(row.number)

            def undo() -> None:
                self.blocks[block_hash] = row
                self.block_by_number[row.number] = block_hash

            return undo
        if table == "transactions":
            (tx_hash,) = key
            row = self.transactions.get(tx_hash)
            if row is None:
                raise ValueError("transactions: no such row")
            if self.ttx_by_tx.get(tx_hash):
                raise ValueError("transactions: still referenced by token_transactions")
            slot = (row.block_hash, row.transaction_index)
            self.transactions.pop(tx_hash)
            self.tx_slots.discard(slot)
            self.tx_by_block[row.block_hash].discard(tx_hash)

            def undo() -> None:
                self.transactions[tx_hash] = row
                self.tx_slots.add(slot)
                self.tx_by_block.setdefault(row.block_hash, set()).add(tx_hash)

            return undo
        if table == "token_transactions":
            row = self.token_txs.get(key)
            if row is None:
                raise ValueError("token_transactions: no such row")
            self.token_txs.pop(key)
            self.ttx_by_tx[row.transaction_hash].discard(key)

            def undo() -> None:
                self.token_txs[key] = row
                self.ttx_by_tx.setdefault(row.transaction_hash, set()).add(key)

            return undo
        if table == "withdrawals":
            row = self.withdrawals.get(key)
            if row is None:
                raise ValueError("withdrawals: no such row")
            self.withdrawals.pop(key)
            self.wd_by_block[row.hash].discard(key)

            def undo() -> None:
                self.withdrawals[key] = row
                self.wd_by_block.setdefault(row.hash, set()).add(key)

            return undo
        raise ValueError(f"delete not supported on table {table!r}")

    def _update_balance(self, address: bytes, delta: int) -> Callable[[], None]:
        if address not in self.balances:
            raise ValueError(f"addresses: no such row {encode_hex(address)}")
        new = self.balances[address] + delta
        if not 0 <= new < WEI_MAX:
            raise ValueError(f"addresses: balance out of range for {encode_hex(address)}")
        old = self.balances[address]
        self.balances[address] = new

        def undo() -> None:
            self.balances[address] = old

        return undo

    def _null_block_hash(self, table: str, key: tuple) -> Callable[[], None]:
        if table == "tokens":
            (addr,) = key
            row = self.tokens.get(addr)
            if row is None:
                raise ValueError("tokens: no such row")
            old_hash = row.block_hash
            self.tokens[addr] = replace(row, block_hash=None)
            if old_hash is not None:
                self.tokens_by_block[old_hash].discard(addr)

            def undo() -> None:
                self.tokens[addr] = row
                if old_hash is not None:
                    self.tokens_by_block.setdefault(old_hash, set()).add(addr)

            return undo
        if table == "contracts":
            row = self.contracts.get(key)
            if row is None:
                raise ValueError("contracts: no such row")
            old_hash = row.block_hash
            self.contracts[key] = replace(row, block_hash=None)
            if old_hash is not None:
                self.contracts_by_block[old_hash].discard(key)

            def undo() -> None:
                self.contracts[key] = row
                if old_hash is not None:
                    self.contracts_by_block.setdefault(old_hash, set()).add(key)

            return undo
        raise ValueError(f"null-out not supported on table {table!r}")

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


def apply_ops(store: Store, ops: Iterable[Mutation]) -> MutationSummary:
    """Apply mutations atomically; on any violation the store is left unchanged."""
    journal: list[Callable[[], None]] = []
    summary = MutationSummary()
    for i, op in enumerate(ops):
        try:
            if isinstance(op, InsertRow):
                journal.append(store._insert(op.table, op.row))
                summary._bump(summary.inserts, op.table)
            elif isinstance(op, DeleteRow):
                journal.append(store._delete(op.table, op.key))
                summary._bump(summary.deletes, op.table)
            elif isinstance(op, UpdateBalance):
                journal.append(store._update_balance(op.address, op.delta))
                summary._bump(summary.updates, "addresses")
            elif isinstance(op, NullBlockHash):
                journal.append(store._null_block_hash(op.table, op.key))
                summary._bump(summary.updates, op.table)
            else:
                raise ValueError(f"unknown mutation {type(op).__name__}")
        except ValueError as exc:
            for undo in reversed(journal):
                undo()
            raise BatchRejected(i, str(exc)) from exc
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
