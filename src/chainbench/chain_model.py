"""Core domain model: the seven ledger tables, hex codecs, and integrity checks.

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
from typing import Iterable

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
    """The seven tables plus the balance snapshot at the final block."""

    blocks: tuple[Block, ...]
    addresses: tuple[AddressRow, ...]
    transactions: tuple[Transaction, ...]
    contracts: tuple[Contract, ...]
    tokens: tuple[Token, ...]
    token_transactions: tuple[TokenTransaction, ...]
    withdrawals: tuple[Withdrawal, ...]
    final_balances: dict[bytes, int] = field(default_factory=dict)
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


def _check_bytes(report: ValidationReport, table: str, col: str, value, length: int, ident: str) -> None:
    if not isinstance(value, bytes) or len(value) != length:
        report.add(table, f"{col} bad length", f"{ident}: expected {length} bytes")


def _check_amount(report: ValidationReport, table: str, col: str, value, ident: str) -> None:
    if not isinstance(value, int) or value < 0 or value >= WEI_MAX:
        report.add(table, f"{col} out of range", f"{ident}: {value!r}")


def validate_dataset(ds: ChainDataset) -> ValidationReport:
    """Check every key, foreign-key, and value invariant of the dataset.

    Violations are data, not failures: the report lists each one with the
    owning table, the broken rule, and the offending row identifier.
    """
    report = ValidationReport()

    block_by_hash: dict[bytes, Block] = {}
    numbers_seen: set[int] = set()
    for b in ds.blocks:
        ident = encode_hex(b.hash) if isinstance(b.hash, bytes) else repr(b.hash)
        _check_bytes(report, "blocks", "hash", b.hash, HASH_LEN, ident)
        _check_bytes(report, "blocks", "miner", b.miner, ADDRESS_LEN, ident)
        _check_amount(report, "blocks", "base_fee_per_gas", b.base_fee_per_gas, ident)
        if b.hash in block_by_hash:
            report.add("blocks", "duplicate hash", ident)
        else:
            block_by_hash[b.hash] = b
        if b.number in numbers_seen:
            report.add("blocks", "duplicate number", str(b.number))
        numbers_seen.add(b.number)
    by_number = sorted(ds.blocks, key=lambda b: b.number)
    for prev, cur in zip(by_number, by_number[1:]):
        if cur.timestamp < prev.timestamp:
            report.add("blocks", "timestamps decrease", f"block {cur.number}")

    addr_set: set[bytes] = set()
    for a in ds.addresses:
        ident = encode_hex(a.address) if isinstance(a.address, bytes) else repr(a.address)
        _check_bytes(report, "addresses", "address", a.address, ADDRESS_LEN, ident)
        _check_amount(report, "addresses", "eth_balance", a.eth_balance, ident)
        if a.address in addr_set:
            report.add("addresses", "duplicate address", ident)
        addr_set.add(a.address)

    for b in ds.blocks:
        if b.miner not in addr_set:
            report.add("blocks", "miner dangling", encode_hex(b.hash))

    tx_by_hash: dict[bytes, Transaction] = {}
    slot_seen: set[tuple[bytes, int]] = set()
    for t in ds.transactions:
        ident = encode_hex(t.hash)
        _check_bytes(report, "transactions", "hash", t.hash, HASH_LEN, ident)
        _check_amount(report, "transactions", "value", t.value, ident)
        if t.hash in tx_by_hash:
            report.add("transactions", "duplicate hash", ident)
        else:
            tx_by_hash[t.hash] = t
        slot = (t.block_hash, t.transaction_index)
        if slot in slot_seen:
            report.add("transactions", "duplicate (block_hash, transaction_index)", ident)
        slot_seen.add(slot)
        if t.block_hash not in block_by_hash:
            report.add("transactions", "block_hash dangling", ident)
        if t.from_address not in addr_set:
            report.add("transactions", "from_address dangling", ident)
        if t.to_address is not None and t.to_address not in addr_set:
            report.add("transactions", "to_address dangling", ident)
        if not 0 <= t.transaction_type <= 0x7F:
            report.add("transactions", "transaction_type out of range", f"{ident}: {t.transaction_type}")

    # Per sender, nonces must form one consecutive run in block/index order.
    by_sender: dict[bytes, list[tuple[int, int, int]]] = {}
    for t in ds.transactions:
        blk = block_by_hash.get(t.block_hash)
        if blk is None:
            continue
        by_sender.setdefault(t.from_address, []).append((blk.number, t.transaction_index, t.nonce))
    for sender, entries in by_sender.items():
        entries.sort()
        for (_, _, n0), (num, idx, n1) in zip(entries, entries[1:]):
            if n1 != n0 + 1:
                report.add(
                    "transactions",
                    "nonce not consecutive",
                    f"sender {encode_hex(sender)} at block {num} index {idx}: {n0} -> {n1}",
                )

    contract_keys: set[tuple[bytes, int]] = set()
    for c in ds.contracts:
        ident = f"{encode_hex(c.address)} v{c.version}"
        _check_bytes(report, "contracts", "address", c.address, ADDRESS_LEN, ident)
        key = (c.address, c.version)
        if key in contract_keys:
            report.add("contracts", "duplicate (address, version)", ident)
        contract_keys.add(key)
        if c.address not in addr_set:
            report.add("contracts", "address dangling", ident)
        if c.block_hash is not None and c.block_hash not in block_by_hash:
            report.add("contracts", "block_hash dangling", ident)

    token_set: set[bytes] = set()
    for tk in ds.tokens:
        ident = encode_hex(tk.address)
        _check_bytes(report, "tokens", "address", tk.address, ADDRESS_LEN, ident)
        _check_amount(report, "tokens", "total_supply", tk.total_supply, ident)
        if tk.address in token_set:
            report.add("tokens", "duplicate address", ident)
        token_set.add(tk.address)
        if tk.address not in addr_set:
            report.add("tokens", "address dangling", ident)
        if tk.block_hash is not None and tk.block_hash not in block_by_hash:
            report.add("tokens", "block_hash dangling", ident)

    tt_seen: set[tuple[bytes, int]] = set()
    for tt in ds.token_transactions:
        ident = f"{encode_hex(tt.transaction_hash)}#{tt.log_index}"
        _check_amount(report, "token_transactions", "value", tt.value, ident)
        key = (tt.transaction_hash, tt.log_index)
        if key in tt_seen:
            report.add("token_transactions", "duplicate (transaction_hash, log_index)", ident)
        tt_seen.add(key)
        if tt.transaction_hash not in tx_by_hash:
            report.add("token_transactions", "transaction_hash dangling", ident)
        if tt.token_address not in token_set:
            report.add("token_transactions", "token_address dangling", ident)

    wd_seen: set[tuple[bytes, int]] = set()
    for w in ds.withdrawals:
        ident = f"{encode_hex(w.hash)}#{w.withdrawal_index}"
        _check_amount(report, "withdrawals", "amount", w.amount, ident)
        key = (w.hash, w.withdrawal_index)
        if key in wd_seen:
            report.add("withdrawals", "duplicate (hash, withdrawal_index)", ident)
        wd_seen.add(key)
        if w.hash not in block_by_hash:
            report.add("withdrawals", "hash dangling", ident)
        if w.address not in addr_set:
            report.add("withdrawals", "address dangling", ident)

    for addr, bal in ds.final_balances.items():
        if not isinstance(bal, int) or bal < 0 or bal >= WEI_MAX:
            report.add("addresses", "final balance out of range", encode_hex(addr))

    return report


def referenced_addresses(
    blocks: Iterable[Block],
    transactions: Iterable[Transaction],
    withdrawals: Iterable[Withdrawal],
    tokens: Iterable[Token] = (),
    contracts: Iterable[Contract] = (),
) -> set[bytes]:
    """Every address named by the given rows (the FK closure over Addresses)."""
    out: set[bytes] = set()
    for b in blocks:
        out.add(b.miner)
    for t in transactions:
        out.add(t.from_address)
        if t.to_address is not None:
            out.add(t.to_address)
    for w in withdrawals:
        out.add(w.address)
    for tk in tokens:
        out.add(tk.address)
    for c in contracts:
        out.add(c.address)
    return out
