"""Table-export I/O, slice extraction with dependency closure, balance ledgers.

Export format (bit-exact, round-trips through :func:`write_export` /
:func:`read_export`): one UTF-8 CSV per table named ``blocks.csv``,
``addresses.csv``, ``transactions.csv``, ``contracts.csv``, ``tokens.csv``,
``token_transactions.csv``, ``withdrawals.csv`` plus ``balances.csv``
(address, eth_balance, as_of_block) and ``manifest.json`` with row counts and
the block range. Header row carries the exact schema column names, RFC-4180
quoting, hex fields in canonical ``0x...`` form, integers in plain decimal,
null as the empty field, ``function_sighashes`` as ``|``-separated hex items.
"""

from __future__ import annotations

import csv
import json
import logging
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

from .chain_model import (
    AddressRow,
    ChainDataset,
    FormatError,
    ROW_TYPES,
    SCHEMA,
    TABLE_NAMES,
    decode_hex,
    encode_hex,
    referenced_addresses,
)

log = logging.getLogger(__name__)

_BYTE_LENGTHS = {"hash": 32, "address": 20}


class ExportError(ValueError):
    """Raised for missing or malformed export files."""


@dataclass(frozen=True)
class RawDataset:
    """Parsed export content before slicing/validation.

    Rows use the same dataclasses as :class:`ChainDataset`; ``snapshot_balances``
    holds the exported per-address balances, valid at ``snapshot_block`` (the
    export's last block).
    """

    blocks: tuple
    addresses: tuple
    transactions: tuple
    contracts: tuple
    tokens: tuple
    token_transactions: tuple
    withdrawals: tuple
    snapshot_balances: dict[bytes, int] = field(default_factory=dict)
    snapshot_block: int = 0

    def table(self, name: str) -> tuple:
        return getattr(self, name)


def as_raw(ds: ChainDataset) -> RawDataset:
    """View a dataset as raw export content (its snapshot is the final balances)."""
    return RawDataset(
        blocks=ds.blocks,
        addresses=ds.addresses,
        transactions=ds.transactions,
        contracts=ds.contracts,
        tokens=ds.tokens,
        token_transactions=ds.token_transactions,
        withdrawals=ds.withdrawals,
        snapshot_balances=dict(ds.final_balances),
        snapshot_block=ds.final_block,
    )


def _encode_cell(kind: str, value) -> str:
    base = kind.rstrip("?")
    if value is None:
        return ""
    if base in ("hash", "address", "bytes"):
        return encode_hex(value)
    if base == "int":
        return str(value)
    if base == "bool":
        return "true" if value else "false"
    if base == "text":
        return value
    if base == "sighashes":
        return "|".join(encode_hex(v) for v in value)
    raise ValueError(f"unknown column kind {kind}")


def _decode_cell(kind: str, text: str, col: str):
    nullable = kind.endswith("?")
    base = kind.rstrip("?")
    if text == "" and base != "text" and base != "sighashes":
        if nullable:
            return None
        raise FormatError(f"{col}: empty value in non-null column")
    if base in ("hash", "address"):
        return decode_hex(text, _BYTE_LENGTHS[base], col)
    if base == "bytes":
        if not text.startswith("0x"):
            raise FormatError(f"{col}: expected 0x-prefixed hex, got {text!r}")
        try:
            return bytes.fromhex(text[2:])
        except ValueError:
            raise FormatError(f"{col}: non-hex digit in {text!r}") from None
    if base == "int":
        # Exact integers only: scientific notation and decimals are rejected.
        if not (text.isdigit() or (text.startswith("-") and text[1:].isdigit())):
            raise FormatError(f"{col}: not a plain decimal integer: {text!r}")
        return int(text)
    if base == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise FormatError(f"{col}: expected true/false, got {text!r}")
    if base == "text":
        return text
    if base == "sighashes":
        if text == "":
            return ()
        return tuple(decode_hex(item, 4, col) for item in text.split("|"))
    raise ValueError(f"unknown column kind {kind}")


def write_export(ds: ChainDataset, out_dir: str | Path) -> dict:
    """Write the dataset as table CSVs plus balance snapshot and manifest.

    Returns the manifest dict (also written to ``manifest.json``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts: dict[str, int] = {}
    for table in TABLE_NAMES:
        cols = SCHEMA[table]
        rows = ds.table(table)
        counts[table] = len(rows)
        with open(out / f"{table}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([name for name, _ in cols])
            for row in rows:
                writer.writerow([_encode_cell(kind, getattr(row, name)) for name, kind in cols])
    with open(out / "balances.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["address", "eth_balance", "as_of_block"])
        for addr in sorted(ds.final_balances):
            writer.writerow([encode_hex(addr), str(ds.final_balances[addr]), str(ds.final_block)])
    manifest = {
        "tables": counts,
        "block_range": list(ds.block_range) if ds.block_range else None,
        "snapshot_block": ds.final_block,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _read_table(path: Path, table: str) -> list:
    if not path.exists():
        raise ExportError(f"table {table}: file not found: {path}")
    cols = SCHEMA[table]
    expected_header = [name for name, _ in cols]
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ExportError(f"table {table}: bad header {header!r}")
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(cols):
                raise ExportError(f"{path.name}:{lineno}: expected {len(cols)} fields, got {len(record)}")
            values = []
            for (name, kind), cell in zip(cols, record):
                try:
                    values.append(_decode_cell(kind, cell, name))
                except FormatError as exc:
                    raise ExportError(f"{path.name}:{lineno}: column {name}: {exc}") from exc
            rows.append(ROW_TYPES[table](*values))
    return rows


def read_export(in_dir: str | Path) -> RawDataset:
    """Parse an export directory back into rows with exact integer values."""
    src = Path(in_dir)
    tables = {table: tuple(_read_table(src / f"{table}.csv", table)) for table in TABLE_NAMES}

    balances: dict[bytes, int] = {}
    as_of = 0
    bal_path = src / "balances.csv"
    if not bal_path.exists():
        raise ExportError(f"table balances: file not found: {bal_path}")
    with open(bal_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["address", "eth_balance", "as_of_block"]:
            raise ExportError(f"balances.csv: bad header {header!r}")
        for lineno, record in enumerate(reader, start=2):
            if len(record) != 3:
                raise ExportError(f"balances.csv:{lineno}: expected 3 fields")
            try:
                addr = decode_hex(record[0], 20, "address")
                bal = _decode_cell("int", record[1], "eth_balance")
                as_of = _decode_cell("int", record[2], "as_of_block")
            except FormatError as exc:
                raise ExportError(f"balances.csv:{lineno}: {exc}") from exc
            balances[addr] = bal

    manifest_path = src / "manifest.json"
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        as_of = manifest.get("snapshot_block", as_of)

    return RawDataset(
        blocks=tables["blocks"],
        addresses=tables["addresses"],
        transactions=tables["transactions"],
        contracts=tables["contracts"],
        tokens=tables["tokens"],
        token_transactions=tables["token_transactions"],
        withdrawals=tables["withdrawals"],
        snapshot_balances=balances,
        snapshot_block=as_of,
    )


def _rollback_balances(raw: RawDataset, hi: int, block_number: dict[bytes, int]) -> dict[bytes, int]:
    """Balances at block ``hi``, derived from the snapshot by undoing later flows."""
    balances = dict(raw.snapshot_balances)
    tx_block = {t.hash: block_number.get(t.block_hash) for t in raw.transactions}
    for t in raw.transactions:
        num = tx_block[t.hash]
        if num is None or num <= hi:
            continue
        balances[t.from_address] = balances.get(t.from_address, 0) + t.value
        if t.to_address is not None:
            balances[t.to_address] = balances.get(t.to_address, 0) - t.value
    for w in raw.withdrawals:
        num = block_number.get(w.hash)
        if num is None or num <= hi:
            continue
        balances[w.address] = balances.get(w.address, 0) - w.amount
    return balances


def slice_closure(
    raw: RawDataset | ChainDataset, block_hashes: set[bytes], transactions, token_txs
) -> tuple[tuple, tuple]:
    """The tokens and contracts that a slice keeps, given the hashes of its
    blocks, its transactions and its token transactions.

    A token or contract is kept when a kept row references it or a kept block
    created it; one whose creating block is outside the slice gets
    ``block_hash`` set to null.
    """
    used_tokens = {tt.token_address for tt in token_txs}
    tokens = []
    for tk in raw.tokens:
        created_here = tk.block_hash in block_hashes
        if tk.address in used_tokens or created_here:
            if tk.block_hash is not None and not created_here:
                tk = replace(tk, block_hash=None)
            tokens.append(tk)

    touched = {t.from_address for t in transactions}
    touched |= {t.to_address for t in transactions if t.to_address is not None}
    contracts = []
    for c in raw.contracts:
        created_here = c.block_hash in block_hashes
        if c.address in touched or c.address in used_tokens or created_here:
            if c.block_hash is not None and not created_here:
                c = replace(c, block_hash=None)
            contracts.append(c)
    return tuple(tokens), tuple(contracts)


def extract_slice(raw: RawDataset | ChainDataset, lo: int, hi: int) -> ChainDataset:
    """Restrict the export to blocks [lo, hi] plus the dependency closure.

    Tokens and contracts are retained when referenced by a retained row or
    created by a retained block; a retained token/contract whose creating
    block falls outside the window gets ``block_hash`` set to null. The
    addresses table covers every address referenced anywhere in the slice,
    with balances rolled back from the snapshot to block ``hi``.
    """
    if isinstance(raw, ChainDataset):
        raw = as_raw(raw)
    if lo > hi:
        raise ValueError(f"slice lo {lo} > hi {hi}")

    blocks = tuple(b for b in raw.blocks if lo <= b.number <= hi)
    if not blocks:
        raise ExportError("slice empty: no blocks in requested range")
    block_hashes = {b.hash for b in blocks}
    block_number = {b.hash: b.number for b in raw.blocks}

    transactions = tuple(t for t in raw.transactions if t.block_hash in block_hashes)
    tx_hashes = {t.hash for t in transactions}
    withdrawals = tuple(w for w in raw.withdrawals if w.hash in block_hashes)
    token_txs = tuple(tt for tt in raw.token_transactions if tt.transaction_hash in tx_hashes)

    tokens_t, contracts_t = slice_closure(raw, block_hashes, transactions, token_txs)
    refs = referenced_addresses(blocks, transactions, withdrawals, tokens_t, contracts_t)
    balances_at_hi = _rollback_balances(raw, hi, block_number)
    final_balances: dict[bytes, int] = {}
    addresses = []
    for addr in sorted(refs):
        bal = balances_at_hi.get(addr, 0)
        if bal < 0:
            log.warning("balance for %s at block %d is %d; clamping to 0", encode_hex(addr), hi, bal)
            bal = 0
        final_balances[addr] = bal
        addresses.append(AddressRow(addr, bal))

    return ChainDataset(
        blocks=blocks,
        addresses=tuple(addresses),
        transactions=transactions,
        contracts=contracts_t,
        tokens=tokens_t,
        token_transactions=token_txs,
        withdrawals=withdrawals,
        final_balances=final_balances,
        final_block=hi,
    )


@dataclass
class BalanceLedger:
    """Per-address balance trajectories over a dataset's block range.

    ``balance_at(a, b)`` is the snapshot balance minus all deltas in blocks
    after ``b``; a block's delta is incoming transfer value minus outgoing
    transfer value plus withdrawal credits. Addresses absent from the snapshot
    start from 0 before deltas. Gas and fee flows are not in the schema and
    are deliberately not modelled.

    The deltas are also indexed by block, so ``touched_in_range`` costs the
    blocks in the range rather than every address.
    """

    final_balances: dict[bytes, int]
    final_block: int
    first_block: int
    deltas: dict[bytes, list[tuple[int, int]]]  # address -> sorted (block, delta)
    _blocks: list[int] = field(init=False, repr=False, compare=False)  # sorted blocks with a delta
    _by_block: dict[int, list[tuple[bytes, int]]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_block = {}
        for addr, entries in self.deltas.items():
            for blk, delta in entries:
                self._by_block.setdefault(blk, []).append((addr, delta))
        self._blocks = sorted(self._by_block)

    def balance_at(self, address: bytes, block: int) -> int:
        bal = self.final_balances.get(address, 0)
        for blk, delta in self.deltas.get(address, ()):
            if blk > block:
                bal -= delta
        return bal

    def delta_in_range(self, address: bytes, lo: int, hi: int) -> int:
        return sum(d for blk, d in self.deltas.get(address, ()) if lo <= blk <= hi)

    def touched_in_range(self, lo: int, hi: int) -> dict[bytes, int]:
        """Net nonzero per-address delta over blocks [lo, hi]."""
        net: dict[bytes, int] = {}
        blocks = self._blocks
        for i in range(bisect_left(blocks, lo), bisect_right(blocks, hi)):
            for addr, delta in self._by_block[blocks[i]]:
                net[addr] = net.get(addr, 0) + delta
        return {addr: d for addr, d in net.items() if d}

    def consistency_warnings(self) -> list[tuple[bytes, int]]:
        """(address, block) pairs where the derived balance dips below zero."""
        bad: list[tuple[bytes, int]] = []
        for addr, entries in self.deltas.items():
            bal = self.final_balances.get(addr, 0)
            # Walk backwards: balance before each delta block.
            for blk, delta in reversed(entries):
                if bal < 0:
                    bad.append((addr, blk))
                bal -= delta
            if bal < 0:
                bad.append((addr, self.first_block - 1))
        return bad


def build_ledger(ds: ChainDataset) -> BalanceLedger:
    """Derive per-block balance deltas so any in-range state can be priced."""
    block_number = {b.hash: b.number for b in ds.blocks}
    rng = ds.block_range
    first = rng[0] if rng else ds.final_block
    # address -> block -> net delta, addresses in first-touch order
    deltas: defaultdict[bytes, dict[int, int]] = defaultdict(dict)
    for t in ds.transactions:
        blk = block_number[t.block_hash]
        value = t.value
        if value:
            per_block = deltas[t.from_address]
            per_block[blk] = per_block.get(blk, 0) - value
            if t.to_address is not None:
                per_block = deltas[t.to_address]
                per_block[blk] = per_block.get(blk, 0) + value
    for w in ds.withdrawals:
        blk = block_number[w.hash]
        per_block = deltas[w.address]
        per_block[blk] = per_block.get(blk, 0) + w.amount

    compact = {
        addr: sorted((blk, d) for blk, d in per_block.items() if d != 0)
        for addr, per_block in deltas.items()
    }
    compact = {addr: entries for addr, entries in compact.items() if entries}
    ledger = BalanceLedger(
        final_balances=dict(ds.final_balances),
        final_block=ds.final_block,
        first_block=first,
        deltas=compact,
    )
    for addr, blk in ledger.consistency_warnings():
        log.warning("ledger: balance of %s negative at block %d", encode_hex(addr), blk)
    return ledger
