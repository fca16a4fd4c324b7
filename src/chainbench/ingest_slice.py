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

``block_view`` groups a dataset by block once into bundles: each block's row
with its transactions, withdrawals, token transactions, the tokens and
contracts it creates, and its net balance flow per address. Slicing
(``extract_slice`` keeps a block range's bundles; ``slice_tables`` is their
closure), the ledger and ``workload_gen``'s load and batches read them, and
take a dataset or its view, so a caller that cuts one dataset several times
groups it once. ``BalanceLedger`` prices any in-range state from the bundles'
nets: ``touched_in_range`` nets a block range and ``balances_at`` gives every
address's balance at a block.
"""

from __future__ import annotations

import csv
import json
import logging
from bisect import bisect_left, bisect_right
from operator import attrgetter, methodcaller
from pathlib import Path
from typing import Callable, NamedTuple

from .chain_model import (
    BYTE_LENGTHS,
    AddressRow,
    Block,
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
    cuts them; a bound left out is the export's first or last block. An
    export with a row no slice would keep (a transaction, withdrawal or token
    transaction whose block or transaction is missing, or a token or contract
    whose ``block_hash`` names no block) is refused."""
    view = block_view(read_export(in_dir))
    block_range = view.ds.block_range
    if block_range is None:
        raise ExportError("export has no blocks")
    _, txs, wds, token_txs, tokens, contracts, _ = view.orphans
    linked = sum(r.block_hash is not None for r in tokens), sum(r.block_hash is not None for r in contracts)
    lost = zip(BlockBundle._fields[1:6], (len(txs), len(wds), len(token_txs), *linked))
    if counts := ", ".join(f"{table}: {n} row{'s' * (n != 1)}" for table, n in lost if n):
        raise ExportError(f"export rows name a block or transaction not in it ({counts}); `ingest --strict` lists them")
    first, last = block_range
    return extract_slice(view, first if lo is None else lo, last if hi is None else hi)


class BlockBundle(NamedTuple):
    """One block's rows: its transactions in ``transaction_index`` order, its
    withdrawals in ``withdrawal_index`` order, its token transactions in
    transaction order and then ``log_index``, the tokens and contracts it
    creates in dataset order, and its nonzero net balance flow per address
    (transfer value in minus out, plus withdrawal credits)."""

    block: Block
    transactions: list
    withdrawals: list
    token_transactions: list
    tokens: list
    contracts: list
    nets: list  # (address, nonzero net flow)


class BlockView(NamedTuple):
    """A dataset, its bundles, their block numbers, and the rows in no bundle
    (``orphans``, whose ``block`` is None)."""

    ds: ChainDataset
    bundles: list[BlockBundle]
    numbers: list[int]
    orphans: BlockBundle

    def span(self, lo: int, hi: int) -> list[BlockBundle]:
        """The bundles of blocks [lo, hi]."""
        return self.bundles[bisect_left(self.numbers, lo) : bisect_right(self.numbers, hi)]


def block_view(ds: ChainDataset | BlockView) -> BlockView:
    """A view as it is, or a dataset's rows grouped by block, in ascending
    block order, one pass per table. A row whose block (or transaction) is
    not in the dataset is in no bundle; of two blocks with one hash, only the
    first in block order has one."""
    if isinstance(ds, BlockView):
        return ds
    bundles: dict[bytes, BlockBundle] = {}
    for block in sorted(ds.blocks, key=attrgetter("number")):
        bundles.setdefault(block.hash, BlockBundle(block, [], [], [], [], [], []))
    orphans = BlockBundle(None, [], [], [], [], [], [])  # takes the rows in no bundle
    of_transaction: dict[bytes, BlockBundle] = {}
    for t in ds.transactions:
        bundle = of_transaction[t.hash] = bundles.get(t.block_hash, orphans)
        bundle.transactions.append(t)
    for w in ds.withdrawals:
        bundles.get(w.hash, orphans).withdrawals.append(w)
    for tt in ds.token_transactions:
        of_transaction.get(tt.transaction_hash, orphans).token_transactions.append(tt)
    for tk in ds.tokens:
        bundles.get(tk.block_hash, orphans).tokens.append(tk)
    for c in ds.contracts:
        bundles.get(c.block_hash, orphans).contracts.append(c)

    for _, transactions, withdrawals, token_txs, _, _, nets in bundles.values():
        transactions.sort(key=attrgetter("transaction_index"))
        withdrawals.sort(key=attrgetter("withdrawal_index"))
        if len(token_txs) > 1:
            position = {t.hash: i for i, t in enumerate(transactions)}
            token_txs.sort(key=lambda tt: (position[tt.transaction_hash], tt.log_index))
        net: dict[bytes, int] = {}
        for t in transactions:
            value = t.value
            if value:
                sender, receiver = t.from_address, t.to_address
                net[sender] = net.get(sender, 0) - value
                if receiver is not None:
                    net[receiver] = net.get(receiver, 0) + value
        for w in withdrawals:
            net[w.address] = net.get(w.address, 0) + w.amount
        nets.extend(entry for entry in net.items() if entry[1])
    grouped = list(bundles.values())
    return BlockView(ds, grouped, [b.block.number for b in grouped], orphans)


def unlinked(row):
    """A token or contract row with its ``block_hash`` link nulled."""
    return row if row.block_hash is None else row._replace(block_hash=None)


def slice_tables(ds: ChainDataset, bundles: list[BlockBundle]) -> dict[str, tuple]:
    """Every table but addresses of the slice made of ``bundles``: their rows
    in block order, and the dependency closure.

    A token or contract is kept, in dataset order, when a kept row references
    it or a kept block created it; one whose creating block is not kept gets
    ``block_hash`` set to null.
    """
    transactions = tuple(t for b in bundles for t in b.transactions)
    token_txs = tuple(tt for b in bundles for tt in b.token_transactions)
    kept = {b.block.hash for b in bundles}
    used_tokens = {tt.token_address for tt in token_txs}
    touched = referenced_addresses({"transactions": transactions}) | used_tokens

    def closure(rows, referenced: set[bytes]) -> tuple:
        return tuple(
            row if row.block_hash in kept else unlinked(row)
            for row in rows
            if row.address in referenced or row.block_hash in kept
        )

    return dict(
        blocks=tuple(b.block for b in bundles),
        transactions=transactions,
        contracts=closure(ds.contracts, touched),
        tokens=closure(ds.tokens, used_tokens),
        token_transactions=token_txs,
        withdrawals=tuple(w for b in bundles for w in b.withdrawals),
    )


def extract_slice(source: ChainDataset | BlockView, lo: int, hi: int) -> ChainDataset:
    """Restrict the dataset (or the view's) to blocks [lo, hi] plus the
    dependency closure (``slice_tables``). The addresses table covers every
    address referenced anywhere in the slice, with its balance at block
    ``hi`` (the ledger's ``balances_at``; a negative one is clamped to 0).
    """
    if lo > hi:
        raise ValueError(f"slice lo {lo} > hi {hi}")
    view = block_view(source)
    ds, kept = view.ds, view.span(lo, hi)
    if not kept:
        raise ExportError("slice empty: no blocks in requested range")
    tables = slice_tables(ds, kept)
    balances_at_hi = bundle_ledger(ds, view.bundles).balances_at(hi)
    addresses = []
    for addr in sorted(referenced_addresses(tables)):
        bal = balances_at_hi.get(addr, 0)
        if bal < 0:
            log.warning("balance for %s at block %d is %d; clamping to 0", encode_hex(addr), hi, bal)
            bal = 0
        addresses.append(AddressRow(addr, bal))

    return ChainDataset(addresses=tuple(addresses), **tables, final_block=hi)


class BalanceLedger:
    """Per-block balance deltas over a dataset's block range.

    A block's delta for an address is its bundle's net: incoming transfer
    value minus outgoing transfer value plus withdrawal credits (see
    ``block_view``); the balance at the end of block
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


def bundle_ledger(ds: ChainDataset, bundles: list[BlockBundle]) -> BalanceLedger:
    """The ledger of ``ds``'s balance snapshot and the nets of its bundles
    (all of them, from ``block_view``)."""
    first = bundles[0].block.number if bundles else ds.final_block
    return BalanceLedger(dict(ds.addresses), first, {b.block.number: b.nets for b in bundles if b.nets})


def log_consistency_warnings(ledger: BalanceLedger) -> BalanceLedger:
    """Log each of the ledger's consistency warnings; return the ledger."""
    for addr, blk in ledger.consistency_warnings():
        log.warning("ledger: balance of %s negative at block %d", encode_hex(addr), blk)
    return ledger


def build_ledger(ds: ChainDataset) -> BalanceLedger:
    """Derive per-block balance deltas so any in-range state can be priced:
    each block's entries are its bundle's nets. Each consistency warning is
    logged."""
    return log_consistency_warnings(bundle_ledger(ds, block_view(ds).bundles))
