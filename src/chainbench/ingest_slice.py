"""Table-export I/O, slice extraction with dependency closure, balance ledgers.

Export format (bit-exact, round-trips through :func:`write_export` /
:func:`read_export`): one UTF-8 CSV per table named ``blocks.csv``,
``addresses.csv``, ``transactions.csv``, ``contracts.csv``, ``tokens.csv``,
``token_transactions.csv``, ``withdrawals.csv`` plus ``manifest.json`` with
row counts, the block range and the snapshot block, the block as of which
``addresses.csv``'s balances hold: the addresses table is the one balance
snapshot. Header row carries the exact column names, RFC-4180 quoting, hex
fields in canonical ``0x...`` form, integers in plain decimal, null as the
empty field, ``function_sighashes`` as ``|``-separated hex items.
A row whose text holds a carriage return is quoted in full. Text holding a NUL
character is refused, on write and on read, with an ``ExportError`` naming
its table, row and column: Python 3.10's ``csv`` module can neither write nor
read one, so no version accepts it. Each column has one encoder and one
decoder, built once from ``SCHEMA``.

``BalanceLedger`` prices any in-range state: ``build_ledger`` nets a dataset's
flows per block and address into per-block entries, which ``touched_in_range``
and ``balances_at`` read.
"""

from __future__ import annotations

import csv
import json
import logging
from bisect import bisect_left, bisect_right
from operator import methodcaller
from pathlib import Path
from typing import Callable

from .chain_model import (
    BYTE_LENGTHS,
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


class ExportError(ValueError):
    """Raised for missing or malformed export files."""


def _bytes_decoder(col: str) -> Callable[[str], bytes]:
    def decode(text: str) -> bytes:
        if not text.startswith("0x"):
            raise FormatError(f"{col}: expected 0x-prefixed hex, got {text!r}")
        try:
            value = bytes.fromhex(text[2:])
        except ValueError:
            value = None
        # bytes.fromhex skips ASCII whitespace: a short result means some was there.
        if value is None or 2 * len(value) != len(text) - 2:
            raise FormatError(f"{col}: non-hex digit in {text!r}")
        return value

    return decode


def _int_decoder(col: str) -> Callable[[str], int]:
    def decode(text: str) -> int:
        # Exact ASCII integers only: scientific notation, decimals and other
        # scripts' digits are rejected.
        if not (text.isascii() and (text.isdigit() or (text.startswith("-") and text[1:].isdigit()))):
            raise FormatError(f"{col}: not a plain decimal integer: {text!r}")
        return int(text)

    return decode


def _bool_decoder(col: str) -> Callable[[str], bool]:
    def decode(text: str) -> bool:
        if text == "true":
            return True
        if text == "false":
            return False
        raise FormatError(f"{col}: expected true/false, got {text!r}")

    return decode


def _sighashes_decoder(col: str) -> Callable[[str], tuple[bytes, ...]]:
    def decode(text: str) -> tuple[bytes, ...]:
        if text == "":
            return ()
        return tuple(decode_hex(item, 4, col) for item in text.split("|"))

    return decode


# What a NUL character in a file becomes before the csv reader sees it (the
# 3.10 reader refuses a line holding one): a lone surrogate, which strict
# UTF-8 decoding never yields, so it marks exactly the cells that held a NUL.
_NUL_MARK = "\ud800"
_MARK_NULS = methodcaller("replace", "\x00", _NUL_MARK)


def _text_decoder(col: str) -> Callable[[str], str]:
    def decode(text: str) -> str:
        if _NUL_MARK in text:
            raise FormatError(f"{col}: holds a NUL character")
        return text

    return decode


# Column kind (without the nullable "?") -> (encoder of a non-None value,
# maker of the column's decoder from its name). Text and sighashes read the
# empty field as a value; every other kind reads it as NULL.
_CSV_KINDS = {
    **{kind: (encode_hex, lambda col, n=n: lambda text: decode_hex(text, n, col)) for kind, n in BYTE_LENGTHS.items()},
    "bytes": (encode_hex, _bytes_decoder),
    "int": (str, _int_decoder),
    "bool": (lambda value: "true" if value else "false", _bool_decoder),
    "text": (str, _text_decoder),
    "sighashes": (lambda value: "|".join(map(encode_hex, value)), _sighashes_decoder),
}


def _decoder(col: str, kind: str) -> Callable[[str], object]:
    """The decoder of one column's cell text; its errors name the column."""
    base = kind.rstrip("?")
    decode = _CSV_KINDS[base][1](col)
    if base in ("text", "sighashes"):
        return decode
    if kind.endswith("?"):
        return lambda text: None if text == "" else decode(text)

    def non_null(text: str):
        if text == "":
            raise FormatError(f"{col}: empty value in non-null column")
        return decode(text)

    return non_null


# Per table: one encoder and one decoder per column, in column order.
_ENCODERS = {table: tuple(_CSV_KINDS[kind.rstrip("?")][0] for _, kind in cols) for table, cols in SCHEMA.items()}
_DECODERS = {table: tuple(_decoder(col, kind) for col, kind in cols) for table, cols in SCHEMA.items()}
# Per table with text columns: their positions.
_TEXT_AT = {
    table: positions
    for table, cols in SCHEMA.items()
    if (positions := tuple(i for i, (_, kind) in enumerate(cols) if kind == "text"))
}


def write_export(ds: ChainDataset, out_dir: str | Path) -> dict:
    """Write the dataset as table CSVs plus manifest.

    Returns the manifest dict (also written to ``manifest.json``). A text
    cell holding a NUL is refused before any file is written.
    """
    for table, text_at in _TEXT_AT.items():
        for number, row in enumerate(ds.table(table), start=1):
            for i in text_at:
                if row[i] is not None and "\x00" in str(row[i]):
                    column = SCHEMA[table][i][0]
                    raise ExportError(f"table {table}: row {number}: column {column}: holds a NUL character")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for table in TABLE_NAMES:
        encoders = _ENCODERS[table]
        text_at = _TEXT_AT.get(table, ())
        with open(out / f"{table}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            # Before Python 3.13 the writer leaves a lone "\r" unquoted, and it
            # reads back as a line end: a row with one is written fully quoted.
            quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow([name for name, _ in SCHEMA[table]])
            for row in ds.table(table):
                cells = ["" if value is None else encode(value) for encode, value in zip(encoders, row)]
                if text_at and any("\r" in cells[i] for i in text_at):
                    quoted.writerow(cells)
                else:
                    writer.writerow(cells)
    manifest = {
        "tables": {table: len(ds.table(table)) for table in TABLE_NAMES},
        "block_range": list(ds.block_range) if ds.block_range else None,
        "snapshot_block": ds.final_block,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _read_table(src: Path, table: str) -> tuple:
    """The rows of ``table``'s file in ``src``; a malformed file is refused
    with its file, line and column."""
    path = src / f"{table}.csv"
    if not path.exists():
        raise ExportError(f"table {table}: file not found: {path}")
    names = [name for name, _ in SCHEMA[table]]
    decoders = _DECODERS[table]
    make = ROW_TYPES[table]._make
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(map(_MARK_NULS, fh))
        header = next(reader, None)
        if header != names:
            raise ExportError(f"table {table}: bad header {header!r}")
        for lineno, record in enumerate(reader, start=2):
            if len(record) != len(names):
                raise ExportError(f"{path.name}:{lineno}: expected {len(names)} fields, got {len(record)}")
            values = []
            try:
                for decode, cell in zip(decoders, record):
                    values.append(decode(cell))
            except FormatError as exc:  # the cell after the last decoded one
                column = names[len(values)]
                reason = f"{column}: holds a NUL character" if _NUL_MARK in record[len(values)] else exc
                raise ExportError(f"{path.name}:{lineno}: column {column}: {reason}") from exc
            rows.append(make(values))
    return tuple(rows)


def read_export(in_dir: str | Path) -> ChainDataset:
    """Parse an export directory back into rows with exact integer values.

    ``final_block``, the block as of which the addresses' balances hold, is
    ``manifest.json``'s ``snapshot_block``; without one it is the export's
    last block number, or 0 when it has no blocks. Any other file in the
    directory is ignored."""
    src = Path(in_dir)
    tables = {table: _read_table(src, table) for table in TABLE_NAMES}
    as_of = max((b.number for b in tables["blocks"]), default=0)

    manifest_path = src / "manifest.json"
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        as_of = manifest.get("snapshot_block", as_of)

    return ChainDataset(**tables, final_block=as_of)


def load_export(in_dir: str | Path, lo: int | None = None, hi: int | None = None) -> ChainDataset:
    """The export's blocks [lo, hi] with their closure, as ``extract_slice``
    cuts them; a bound left out is the export's first or last block."""
    ds = read_export(in_dir)
    block_range = ds.block_range
    if block_range is None:
        raise ExportError("export has no blocks")
    first, last = block_range
    return extract_slice(ds, first if lo is None else lo, last if hi is None else hi)


def _rollback_balances(ds: ChainDataset, hi: int, block_number: dict[bytes, int]) -> dict[bytes, int]:
    """Balances at block ``hi``, derived from the snapshot by undoing later
    flows; a row whose block is not in ``block_number`` is skipped."""
    balances = dict(ds.addresses)
    number = block_number.get
    for t in ds.transactions:
        num = number(t.block_hash)
        if num is None or num <= hi:
            continue
        balances[t.from_address] = balances.get(t.from_address, 0) + t.value
        if t.to_address is not None:
            balances[t.to_address] = balances.get(t.to_address, 0) - t.value
    for w in ds.withdrawals:
        num = number(w.hash)
        if num is None or num <= hi:
            continue
        balances[w.address] = balances.get(w.address, 0) - w.amount
    return balances


def slice_closure(ds: ChainDataset, block_hashes: set[bytes], transactions, token_txs) -> tuple[tuple, tuple]:
    """The tokens and contracts that a slice keeps, given the hashes of its
    blocks, its transactions and its token transactions.

    A token or contract is kept when a kept row references it or a kept block
    created it; one whose creating block is outside the slice gets
    ``block_hash`` set to null.
    """
    used_tokens = {tt.token_address for tt in token_txs}
    tokens = []
    for tk in ds.tokens:
        created_here = tk.block_hash in block_hashes
        if tk.address in used_tokens or created_here:
            if tk.block_hash is not None and not created_here:
                tk = tk._replace(block_hash=None)
            tokens.append(tk)

    touched = referenced_addresses({"transactions": transactions})
    contracts = []
    for c in ds.contracts:
        created_here = c.block_hash in block_hashes
        if c.address in touched or c.address in used_tokens or created_here:
            if c.block_hash is not None and not created_here:
                c = c._replace(block_hash=None)
            contracts.append(c)
    return tuple(tokens), tuple(contracts)


def extract_slice(ds: ChainDataset, lo: int, hi: int) -> ChainDataset:
    """Restrict the export to blocks [lo, hi] plus the dependency closure.

    Tokens and contracts are retained when referenced by a retained row or
    created by a retained block; a retained token/contract whose creating
    block falls outside the window gets ``block_hash`` set to null. The
    addresses table covers every address referenced anywhere in the slice,
    with balances rolled back from the snapshot to block ``hi``.
    """
    if lo > hi:
        raise ValueError(f"slice lo {lo} > hi {hi}")

    blocks = tuple(b for b in ds.blocks if lo <= b.number <= hi)
    if not blocks:
        raise ExportError("slice empty: no blocks in requested range")
    block_hashes = {b.hash for b in blocks}
    block_number = {b.hash: b.number for b in ds.blocks}

    transactions = tuple(t for t in ds.transactions if t.block_hash in block_hashes)
    tx_hashes = {t.hash for t in transactions}
    withdrawals = tuple(w for w in ds.withdrawals if w.hash in block_hashes)
    token_txs = tuple(tt for tt in ds.token_transactions if tt.transaction_hash in tx_hashes)

    tokens, contracts = slice_closure(ds, block_hashes, transactions, token_txs)
    tables = dict(
        blocks=blocks, transactions=transactions, contracts=contracts, tokens=tokens,
        token_transactions=token_txs, withdrawals=withdrawals,
    )
    refs = referenced_addresses(tables)
    balances_at_hi = _rollback_balances(ds, hi, block_number)
    addresses = []
    for addr in sorted(refs):
        bal = balances_at_hi.get(addr, 0)
        if bal < 0:
            log.warning("balance for %s at block %d is %d; clamping to 0", encode_hex(addr), hi, bal)
            bal = 0
        addresses.append(AddressRow(addr, bal))

    return ChainDataset(addresses=tuple(addresses), **tables, final_block=hi)


class BalanceLedger:
    """Per-block balance deltas over a dataset's block range.

    A block's delta for an address is incoming transfer value minus outgoing
    transfer value plus withdrawal credits; the balance at the end of block
    ``b`` is the snapshot balance minus the deltas of the blocks after ``b``.
    Addresses absent from the snapshot start from 0 before deltas. Gas and
    fee flows are not in the schema and are deliberately not modelled.

    The deltas are held by block (``by_block``, in ascending block order), so
    ``touched_in_range`` and ``balances_at`` cost the blocks they read rather
    than every address.
    """

    def __init__(
        self,
        snapshot: dict[bytes, int],
        first_block: int,
        by_block: dict[int, list[tuple[bytes, int]]],
    ) -> None:
        self.snapshot = snapshot
        self.first_block = first_block
        self.by_block = by_block  # block -> [(address, delta)], blocks ascending
        self._blocks = list(by_block)  # sorted blocks with a delta

    def balances_at(self, block: int) -> dict[bytes, int]:
        """Every address's balance at the end of ``block``: the snapshot
        minus the deltas of the blocks after it."""
        balances = dict(self.snapshot)
        blocks, by_block = self._blocks, self.by_block
        for i in range(bisect_right(blocks, block), len(blocks)):
            for addr, delta in by_block[blocks[i]]:
                balances[addr] = balances.get(addr, 0) - delta
        return balances

    def touched_in_range(self, lo: int, hi: int) -> dict[bytes, int]:
        """Net nonzero per-address delta over blocks [lo, hi]."""
        net: dict[bytes, int] = {}
        blocks, by_block = self._blocks, self.by_block
        for i in range(bisect_left(blocks, lo), bisect_right(blocks, hi)):
            for addr, delta in by_block[blocks[i]]:
                net[addr] = net.get(addr, 0) + delta
        return {addr: d for addr, d in net.items() if d}

    def consistency_warnings(self) -> list[tuple[bytes, int]]:
        """(address, block) pairs where the derived balance dips below zero:
        the balance after that block, or before the address's first delta
        (reported at ``first_block - 1``). One walk over the blocks from the
        last one down, keeping a running balance per address; the pairs come
        in descending block order."""
        bad: list[tuple[bytes, int]] = []
        final = self.snapshot
        running: dict[bytes, int] = {}
        for blk in reversed(self._blocks):
            for addr, delta in reversed(self.by_block[blk]):
                bal = running.get(addr)
                if bal is None:
                    bal = final.get(addr, 0)
                if bal < 0:
                    bad.append((addr, blk))
                running[addr] = bal - delta
        bad.extend((addr, self.first_block - 1) for addr, bal in running.items() if bal < 0)
        return bad


def build_ledger(ds: ChainDataset) -> BalanceLedger:
    """Derive per-block balance deltas so any in-range state can be priced.

    The transfers and withdrawals are netted per block and address; each
    block's nonzero nets, in ascending block order, are its entries.
    """
    block_number = {b.hash: b.number for b in ds.blocks}
    rng = ds.block_range
    first = rng[0] if rng else ds.final_block
    net: dict[int, dict[bytes, int]] = {}  # block -> address -> net delta
    for t in ds.transactions:
        value = t.value
        if value:
            blk = block_number[t.block_hash]
            per_addr = net.get(blk)
            if per_addr is None:
                per_addr = net[blk] = {}
            sender, receiver = t.from_address, t.to_address
            per_addr[sender] = per_addr.get(sender, 0) - value
            if receiver is not None:
                per_addr[receiver] = per_addr.get(receiver, 0) + value
    for w in ds.withdrawals:
        blk = block_number[w.hash]
        per_addr = net.get(blk)
        if per_addr is None:
            per_addr = net[blk] = {}
        per_addr[w.address] = per_addr.get(w.address, 0) + w.amount

    by_block: dict[int, list[tuple[bytes, int]]] = {}
    for blk in sorted(net):
        entries = [(addr, d) for addr, d in net[blk].items() if d]
        if entries:
            by_block[blk] = entries
    ledger = BalanceLedger(dict(ds.addresses), first, by_block)
    for addr, blk in ledger.consistency_warnings():
        log.warning("ledger: balance of %s negative at block %d", encode_hex(addr), blk)
    return ledger
