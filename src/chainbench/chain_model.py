"""Core domain model: the seven ledger tables, their integrity rules, and hex codecs.

``SCHEMA`` is the one declaration of each table's columns, in order, with
their value kinds. The row types are ``collections.namedtuple`` classes built
from it: a row is a tuple of its cells in schema order that also reads them
by column name, so the CSV and SQL codecs and the store take and make rows
without re-packing them. Rows are immutable and therefore safe to share
across threads.

All byte-valued identifiers (block hashes, account addresses) are plain
``bytes`` of a fixed length; all monetary and token amounts are plain Python
``int`` (arbitrary precision, so 256-bit values stay exact -- floating point
is never used for amounts).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Callable, Sequence

HASH_LEN = 32
ADDRESS_LEN = 20
WEI_MAX = 2**256  # exclusive upper bound for all amount-like columns

TABLE_NAMES = (
    "blocks",
    "addresses",
    "transactions",
    "contracts",
    "tokens",
    "token_transactions",
    "withdrawals",
)


class FormatError(ValueError):
    """Raised when a textual value does not match its declared wire form."""


def decode_hex(text: str, expected_len: int, field_name: str = "value") -> bytes:
    """Decode a ``0x``-prefixed hex string into exactly ``expected_len`` bytes.

    Input casing is accepted either way; the canonical text form produced by
    :func:`encode_hex` is always lowercase.
    """
    if not isinstance(text, str) or not text.startswith("0x"):
        raise FormatError(f"{field_name}: expected 0x-prefixed hex string, got {text!r}")
    digits = text[2:]
    if len(digits) != 2 * expected_len:
        raise FormatError(
            f"{field_name}: expected {expected_len} bytes "
            f"({2 * expected_len} hex digits), got {len(digits)} digits"
        )
    try:
        value = bytes.fromhex(digits)
    except ValueError:
        value = None
    # bytes.fromhex skips ASCII whitespace: a short result means some was there.
    if value is None or len(value) != expected_len:
        raise FormatError(f"{field_name}: non-hex digit in {text!r}")
    return value


def encode_hex(value: bytes) -> str:
    """Canonical text form of a byte value: ``0x`` + lowercase hex digits."""
    return "0x" + value.hex()


@dataclass(frozen=True, slots=True)
class SliceSpec:
    """A contiguous block-number window [lo, hi] naming one database state."""

    lo: int
    hi: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"slice lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class ChainDataset:
    """The seven tables, as of block ``final_block``: the addresses table is
    the balance snapshot, each address's balance at the end of that block."""

    blocks: tuple[Block, ...]
    addresses: tuple[AddressRow, ...]
    transactions: tuple[Transaction, ...]
    contracts: tuple[Contract, ...]
    tokens: tuple[Token, ...]
    token_transactions: tuple[TokenTransaction, ...]
    withdrawals: tuple[Withdrawal, ...]
    final_block: int = 0

    def table(self, name: str) -> tuple:
        return getattr(self, name)

    @property
    def block_range(self) -> tuple[int, int] | None:
        if not self.blocks:
            return None
        numbers = [b.number for b in self.blocks]
        return min(numbers), max(numbers)


# Column name -> value kind, per table, in row order: the row types below, the
# CSV export codecs, the SQL renderer and the text stub engine all read it.
# Kinds and their cell values: hash, address, bytes (bytes), int (int), bool
# (bool), text (str), sighashes (tuple of 4-byte bytes). Nullable columns carry
# a trailing "?" and hold None for NULL.
SCHEMA: dict[str, tuple[tuple[str, str], ...]] = {
    "blocks": (
        ("hash", "hash"),
        ("number", "int"),
        ("timestamp", "int"),
        ("extra_data", "bytes"),
        ("base_fee_per_gas", "int"),
        ("size", "int"),
        ("miner", "address"),
    ),
    "addresses": (
        ("address", "address"),
        ("eth_balance", "int"),
    ),
    "transactions": (
        ("hash", "hash"),
        ("transaction_index", "int"),
        ("value", "int"),
        ("from_address", "address"),
        ("to_address", "address?"),
        ("gas", "int"),
        ("max_priority_fee_per_gas", "int?"),
        ("input", "bytes"),
        ("block_hash", "hash"),
        ("transaction_type", "int"),
        ("nonce", "int"),
    ),
    "contracts": (
        ("address", "address"),
        ("version", "int"),
        ("function_sighashes", "sighashes"),
        ("bytecode", "bytes"),
        ("is_erc20", "bool"),
        ("is_erc721", "bool"),
        ("block_hash", "hash?"),
    ),
    "tokens": (
        ("address", "address"),
        ("symbol", "text"),
        ("name", "text"),
        ("decimals", "int?"),
        ("total_supply", "int"),
        ("block_hash", "hash?"),
    ),
    "token_transactions": (
        ("transaction_hash", "hash"),
        ("log_index", "int"),
        ("token_address", "address"),
        ("value", "int"),
    ),
    "withdrawals": (
        ("hash", "hash"),  # the block's hash
        ("withdrawal_index", "int"),
        ("validator", "int"),
        ("address", "address"),
        ("amount", "int"),
    ),
}

# Primary-key columns per table, in declaration order.
PRIMARY_KEYS: dict[str, tuple[str, ...]] = {
    "blocks": ("hash",),
    "addresses": ("address",),
    "transactions": ("hash",),
    "contracts": ("address", "version"),
    "tokens": ("address",),
    "token_transactions": ("transaction_hash", "log_index"),
    "withdrawals": ("hash", "withdrawal_index"),
}

# The integrity rules beside the keys. validate_dataset checks a dataset
# against them, and a differential test ties memstore's handlers to them.
#
# Foreign keys: (child table, column, parent table). The parent column is the
# parent's whole one-column primary key. A "?" column may hold NULL, which
# names no parent row. A parent row that is still referenced may not be deleted.
FOREIGN_KEYS: tuple[tuple[str, str, str], ...] = (
    ("blocks", "miner", "addresses"),
    ("transactions", "block_hash", "blocks"),
    ("transactions", "from_address", "addresses"),
    ("transactions", "to_address", "addresses"),
    ("contracts", "address", "addresses"),
    ("contracts", "block_hash", "blocks"),
    ("tokens", "address", "addresses"),
    ("tokens", "block_hash", "blocks"),
    ("token_transactions", "transaction_hash", "transactions"),
    ("token_transactions", "token_address", "tokens"),
    ("withdrawals", "hash", "blocks"),
    ("withdrawals", "address", "addresses"),
)
# Keys besides the primary key: (table, columns) no two rows share.
UNIQUE_KEYS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("blocks", ("number",)),
    ("transactions", ("block_hash", "transaction_index")),
)
# (table, column, lo, hi): the column holds ints in [lo, hi).
VALUE_RANGES: tuple[tuple[str, str, int, int], ...] = (
    ("blocks", "base_fee_per_gas", 0, WEI_MAX),
    ("addresses", "eth_balance", 0, WEI_MAX),
    ("transactions", "value", 0, WEI_MAX),
    ("transactions", "transaction_type", 0, 0x80),
    ("tokens", "total_supply", 0, WEI_MAX),
    ("token_transactions", "value", 0, WEI_MAX),
    ("withdrawals", "amount", 0, WEI_MAX),
)
# Tables rows may be deleted from, by primary key: the rows an expiring
# window drops. Addresses are never deleted, and tokens and contracts only
# lose their block_hash link, since later rows may still reference them.
DELETABLE_TABLES: tuple[str, ...] = ("blocks", "transactions", "token_transactions", "withdrawals")
# The byte length of every cell of a column kind (nullable or not).
BYTE_LENGTHS = {"hash": HASH_LEN, "address": ADDRESS_LEN}

# Table name as written in rendered SQL text. The SQL stub engine reads it back
# exactly as written.
SQL_TABLE_NAMES: dict[str, str] = {
    "blocks": "Blocks",
    "addresses": "Addresses",
    "transactions": "Transactions",
    "contracts": "Contracts",
    "tokens": "Tokens",
    "token_transactions": "Token_Transactions",
    "withdrawals": "Withdrawals",
}

# Row type per table: a named tuple of the table's SCHEMA columns.
ROW_TYPES = {
    table: namedtuple(class_name, [name for name, _ in SCHEMA[table]])
    for table, class_name in (
        ("blocks", "Block"),
        ("addresses", "AddressRow"),
        ("transactions", "Transaction"),
        ("contracts", "Contract"),
        ("tokens", "Token"),
        ("token_transactions", "TokenTransaction"),
        ("withdrawals", "Withdrawal"),
    )
}
Block = ROW_TYPES["blocks"]
AddressRow = ROW_TYPES["addresses"]
Transaction = ROW_TYPES["transactions"]
Contract = ROW_TYPES["contracts"]
Token = ROW_TYPES["tokens"]
TokenTransaction = ROW_TYPES["token_transactions"]
Withdrawal = ROW_TYPES["withdrawals"]


@dataclass(frozen=True, slots=True)
class Violation:
    table: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.table}: {self.rule} ({self.detail})"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, table: str, rule: str, detail: str) -> None:
        self.violations.append(Violation(table, rule, detail))

    def __str__(self) -> str:
        if self.ok:
            return "ok: 0 violations"
        return "\n".join(str(v) for v in self.violations)


def _shown(value) -> str:
    """A cell as a violation names it: hex for bytes, ``repr`` otherwise."""
    return encode_hex(value) if isinstance(value, bytes) else repr(value)


def _compared_rows(add, columns, identify, table: str, read: tuple[str, ...], ints: tuple[str, ...]) -> list[tuple]:
    """The ``read`` cells of each row of ``table`` whose ``ints`` cells are
    all ints, for a dataset-wide rule to compare; every other value in an
    ``ints`` column is reported, and its row left out."""
    cells = columns[table]
    rows = list(zip(*(cells[name] for name in read)))
    bad: set[int] = set()
    for name in ints:
        values = cells[name]
        if set(map(type, values)) <= {int}:
            continue
        for i, v in enumerate(values):
            if not isinstance(v, int):
                add(table, f"{name} not an int", f"{identify[table](i)}: {v!r}")
                bad.add(i)
    return [row for i, row in enumerate(rows) if i not in bad] if bad else rows


def validate_dataset(ds: ChainDataset) -> ValidationReport:
    """Check the dataset against every declared rule (byte lengths, value
    ranges, primary, unique and foreign keys) and the two dataset-wide ones,
    whose int cells are checked first: a block's number or timestamp, or a
    transaction's index or nonce, that is not an int is reported, and its
    row left out of those rules.

    Violations are data, not failures: the report lists each one with the
    owning table, the broken rule, and the offending row's identifier (its
    primary-key cells joined by ``#``). Each rule first tests a whole column
    at once; only a column that fails is scanned cell by cell for the rows
    to name.
    """
    report = ValidationReport()
    add = report.add
    columns: dict[str, dict[str, tuple]] = {}
    identify: dict[str, Callable[[int], str]] = {}
    keys: dict[str, set] = {}  # each table's primary-key cells, for the foreign keys into it
    for table, schema in SCHEMA.items():
        rows = ds.table(table)
        cells = columns[table] = dict(zip((name for name, _ in schema), zip(*rows) if rows else repeat(())))
        key_cells = [cells[name] for name in PRIMARY_KEYS[table]]
        ident = identify[table] = lambda i, key_cells=key_cells: "#".join([_shown(c[i]) for c in key_cells])
        for name, kind in schema:
            length = BYTE_LENGTHS.get(kind.rstrip("?"))
            if length is None:
                continue
            nullable, values = kind.endswith("?"), cells[name]
            present = [v for v in values if v is not None] if nullable else values
            if set(map(type, present)) <= {bytes} and set(map(len, present)) <= {length}:
                continue
            for i, v in enumerate(values):
                if not (isinstance(v, bytes) and len(v) == length or nullable and v is None):
                    add(table, f"{name} bad length", f"{ident(i)}: expected {length} bytes")
        for _, name, lo, hi in [r for r in VALUE_RANGES if r[0] == table]:
            values = cells[name]
            if set(map(type, values)) <= {int} and (not values or lo <= min(values) and max(values) < hi):
                continue
            for i, v in enumerate(values):
                if not (isinstance(v, int) and lo <= v < hi):
                    add(table, f"{name} out of range", f"{ident(i)}: {v!r}")
        for key in (PRIMARY_KEYS[table], *(key for t, key in UNIQUE_KEYS if t == table)):
            values = cells[key[0]] if len(key) == 1 else list(zip(*(cells[name] for name in key)))
            distinct = set(values)
            keys.setdefault(table, distinct)  # the primary key's, which comes first
            if len(distinct) == len(values):
                continue
            rule = f"duplicate {key[0]}" if len(key) == 1 else f"duplicate ({', '.join(key)})"
            seen: set = set()
            for i, v in enumerate(values):
                if v in seen:
                    add(table, rule, ident(i))
                seen.add(v)
    for child, name, parent in FOREIGN_KEYS:
        values = columns[child][name]
        dangling = set(values) - keys[parent]
        if dict(SCHEMA[child])[name].endswith("?"):
            dangling.discard(None)
        if dangling:
            ident = identify[child]
            for i, v in enumerate(values):
                if v in dangling:
                    add(child, f"{name} dangling", ident(i))

    # Dataset-wide rules, written out here: each spans many rows of a table
    # and compares the int cells _compared_rows checks first.
    blocks = _compared_rows(add, columns, identify, "blocks", ("hash", "number", "timestamp"), ("number", "timestamp"))
    by_number = sorted(blocks, key=itemgetter(1))
    for (_, _, t0), (_, number, t1) in zip(by_number, by_number[1:]):
        if t1 < t0:
            add("blocks", "timestamps decrease", f"block {number}")
    # Per sender, nonces form one consecutive run in block/index order. A
    # transaction whose block is missing is left out; of two blocks with one
    # hash, the first counts.
    number_of = {block_hash: number for block_hash, number, _ in reversed(blocks)}
    by_sender: dict[bytes, list[tuple[int, int, int]]] = {}
    txs = _compared_rows(
        add, columns, identify, "transactions",
        ("from_address", "block_hash", "transaction_index", "nonce"), ("transaction_index", "nonce"),
    )
    for sender, block_hash, index, nonce in txs:
        number = number_of.get(block_hash)
        if number is not None:
            by_sender.setdefault(sender, []).append((number, index, nonce))
    for sender, entries in by_sender.items():
        entries.sort()
        for (_, _, n0), (number, index, n1) in zip(entries, entries[1:]):
            if n1 != n0 + 1:
                detail = f"sender {_shown(sender)} at block {number} index {index}: {n0} -> {n1}"
                add("transactions", "nonce not consecutive", detail)
    return report


# The cell getter of each foreign key into addresses, per child table.
_ADDRESS_REFERENCES = tuple(
    (child, itemgetter([name for name, _ in SCHEMA[child]].index(column)))
    for child, column, parent in FOREIGN_KEYS
    if parent == "addresses"
)


def referenced_addresses(tables: dict[str, Sequence]) -> set[bytes]:
    """Every address named by the rows of ``{table: rows}``, through the
    foreign keys into addresses (the closure over Addresses); NULL names none."""
    out: set[bytes] = set()
    for child, cell in _ADDRESS_REFERENCES:
        if child in tables:
            out.update(map(cell, tables[child]))
    out.discard(None)
    return out
