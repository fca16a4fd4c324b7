"""Turn a dataset into an initial-load artifact plus ordered update batches.

Each upsert batch advances the state by ``granularity`` blocks, inserting new
blocks with their withdrawals, transactions, and token transactions, plus any
referenced tokens, contracts, or addresses not seen before, and ends with one
aggregated balance UPDATE per touched address. With expiration enabled, each
batch is preceded by an expire batch deleting the oldest blocks' rows so the
state keeps a constant number of blocks (a moving window). Batches exist in
two equivalent forms: structured mutations (for the in-memory store) and
rendered SQL text (``load.sql`` / ``upserts-*.sql`` / ``expire-*.sql``).

Notes on semantics the schema forces:
- Addresses are never deleted; they are the referential hub.
- Expired tokens/contracts are kept with ``block_hash`` nulled out, since
  later rows may still reference them.
- A token/contract inserted after its creating block has left the window is
  inserted with ``block_hash`` null.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace as dc_replace
from operator import add, attrgetter
from pathlib import Path
from typing import Callable

from .chain_model import (
    AddressRow,
    ChainDataset,
    PRIMARY_KEYS,
    SCHEMA,
    SQL_TABLE_NAMES,
    encode_hex,
    referenced_addresses,
)
from .gcpause import collector_paused
from .ingest_slice import build_ledger, extract_slice, slice_closure
from .memstore import DeleteRow, InsertRow, Mutation, NullBlockHash, UpdateBalance

log = logging.getLogger(__name__)


class WorkloadError(ValueError):
    pass


@dataclass(frozen=True)
class WorkloadConfig:
    init_blocks: int
    granularity: int
    expire: bool = False

    def __post_init__(self) -> None:
        if self.init_blocks < 1:
            raise WorkloadError("init_blocks must be >= 1")
        if self.granularity < 1:
            raise WorkloadError("granularity must be >= 1")


@dataclass(frozen=True)
class Batch:
    index: int  # 0 for the load, 1-based for update batches
    kind: str  # "load" | "upsert" | "expire"
    block_lo: int
    block_hi: int
    ops: tuple[Mutation, ...]


@dataclass(frozen=True)
class BatchPair:
    expire: Batch | None
    upsert: Batch


@dataclass(frozen=True)
class BatchInfo:
    index: int
    lo: int
    hi: int
    first_timestamp: int
    short: bool
    expire_lo: int | None = None
    expire_hi: int | None = None


@dataclass
class Manifest:
    initial_lo: int
    initial_hi: int
    granularity: int
    expire: bool
    batches: list[BatchInfo]

    def to_dict(self) -> dict:
        return {
            "initial": {"lo": self.initial_lo, "hi": self.initial_hi},
            "granularity": self.granularity,
            "expire": self.expire,
            "batch_count": len(self.batches),
            "batches": [
                {
                    "index": b.index,
                    "lo": b.lo,
                    "hi": b.hi,
                    "first_timestamp": b.first_timestamp,
                    "short": b.short,
                    "expire_lo": b.expire_lo,
                    "expire_hi": b.expire_hi,
                }
                for b in self.batches
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        return cls(
            initial_lo=data["initial"]["lo"],
            initial_hi=data["initial"]["hi"],
            granularity=data["granularity"],
            expire=data["expire"],
            batches=[
                BatchInfo(
                    index=b["index"],
                    lo=b["lo"],
                    hi=b["hi"],
                    first_timestamp=b["first_timestamp"],
                    short=b["short"],
                    expire_lo=b.get("expire_lo"),
                    expire_hi=b.get("expire_hi"),
                )
                for b in data["batches"]
            ],
        )


def _dataset_ops(ds: ChainDataset) -> tuple[Mutation, ...]:
    """FK-safe insert sequence materializing a whole dataset state."""
    ops: list[Mutation] = []
    for a in sorted(ds.addresses, key=lambda r: r.address):
        ops.append(InsertRow("addresses", a))
    number_of = {b.hash: b.number for b in ds.blocks}
    for b in sorted(ds.blocks, key=lambda r: r.number):
        ops.append(InsertRow("blocks", b))
    for tk in sorted(ds.tokens, key=lambda r: r.address):
        ops.append(InsertRow("tokens", tk))
    for c in sorted(ds.contracts, key=lambda r: (r.address, r.version)):
        ops.append(InsertRow("contracts", c))
    for w in sorted(ds.withdrawals, key=lambda r: (number_of[r.hash], r.withdrawal_index)):
        ops.append(InsertRow("withdrawals", w))
    tx_order = {}
    for t in sorted(ds.transactions, key=lambda r: (number_of[r.block_hash], r.transaction_index)):
        tx_order[t.hash] = len(tx_order)
        ops.append(InsertRow("transactions", t))
    for tt in sorted(ds.token_transactions, key=lambda r: (tx_order[r.transaction_hash], r.log_index)):
        ops.append(InsertRow("token_transactions", tt))
    return tuple(ops)


def gen_initial(ds: ChainDataset, cfg: WorkloadConfig) -> Batch:
    """Load artifact: the first ``init_blocks`` blocks with closure and
    balances extrapolated to the end of the initial window."""
    rng = ds.block_range
    if rng is None:
        raise WorkloadError("dataset has no blocks")
    first, last = rng
    init_hi = first + cfg.init_blocks - 1
    if init_hi > last:
        raise WorkloadError(f"init_blocks {cfg.init_blocks} exceeds dataset ({last - first + 1} blocks)")
    initial_state = extract_slice(ds, first, init_hi)
    return Batch(index=0, kind="load", block_lo=first, block_hi=init_hi, ops=_dataset_ops(initial_state))


class _SeenTracker:
    """Cumulative visibility of addresses/tokens/contracts across batches."""

    def __init__(self, number_of: dict[bytes, int], addresses: set[bytes], tokens, contracts):
        self.addresses = addresses
        # Value is the live creating-block number, or None once nulled/absent.
        self.tokens: dict[bytes, int | None] = {
            tk.address: (None if tk.block_hash is None else number_of[tk.block_hash]) for tk in tokens
        }
        self.contracts: dict[tuple[bytes, int], int | None] = {
            (c.address, c.version): (None if c.block_hash is None else number_of[c.block_hash]) for c in contracts
        }


def gen_batches(ds: ChainDataset, cfg: WorkloadConfig) -> tuple[list[BatchPair], Manifest]:
    """Ordered update batches advancing the state beyond the initial window."""
    rng = ds.block_range
    if rng is None:
        raise WorkloadError("dataset has no blocks")
    first, last = rng
    init_hi = first + cfg.init_blocks - 1
    if init_hi >= last:
        raise WorkloadError("no blocks beyond the initial range: nothing to batch")

    blocks_by_number = {b.number: b for b in ds.blocks}
    number_of = {b.hash: b.number for b in ds.blocks}
    txs_by_block: dict[int, list] = {}
    for t in ds.transactions:
        txs_by_block.setdefault(number_of[t.block_hash], []).append(t)
    for lst in txs_by_block.values():
        lst.sort(key=lambda t: t.transaction_index)
    wds_by_block: dict[int, list] = {}
    for w in ds.withdrawals:
        wds_by_block.setdefault(number_of[w.hash], []).append(w)
    for lst in wds_by_block.values():
        lst.sort(key=lambda w: w.withdrawal_index)
    ttx_by_tx: dict[bytes, list] = {}
    for tt in ds.token_transactions:
        ttx_by_tx.setdefault(tt.transaction_hash, []).append(tt)
    for lst in ttx_by_tx.values():
        lst.sort(key=lambda tt: tt.log_index)
    tokens_by_addr = {tk.address: tk for tk in ds.tokens}
    contracts_by_addr: dict[bytes, list] = {}
    for c in ds.contracts:
        contracts_by_addr.setdefault(c.address, []).append(c)
    tokens_by_creation: dict[int, list] = {}
    for tk in ds.tokens:
        if tk.block_hash is not None:
            tokens_by_creation.setdefault(number_of[tk.block_hash], []).append(tk)
    contracts_by_creation: dict[int, list] = {}
    for c in ds.contracts:
        if c.block_hash is not None:
            contracts_by_creation.setdefault(number_of[c.block_hash], []).append(c)

    ledger = build_ledger(ds)
    # The initial window's closure, as gen_initial's slice has it, read from
    # the indexes above; its balances are not needed here.
    init_nums = range(first, init_hi + 1)
    init_blocks = [blocks_by_number[n] for n in init_nums if n in blocks_by_number]
    init_txs = [t for n in init_nums for t in txs_by_block.get(n, ())]
    init_ttxs = [tt for t in init_txs for tt in ttx_by_tx.get(t.hash, ())]
    init_tokens, init_contracts = slice_closure(ds, {b.hash for b in init_blocks}, init_txs, init_ttxs)
    init_wds = [w for n in init_nums for w in wds_by_block.get(n, ())]
    init_addrs = referenced_addresses(init_blocks, init_txs, init_wds, init_tokens, init_contracts)
    seen = _SeenTracker(number_of, init_addrs, init_tokens, init_contracts)
    # The window is always the contiguous block range [window_lo, window_hi]:
    # expiry drops its oldest blocks and each batch appends the next ones.
    window_lo, window_hi = first, init_hi

    pairs: list[BatchPair] = []
    infos: list[BatchInfo] = []
    index = 0
    next_lo = init_hi + 1
    while next_lo <= last:
        index += 1
        lo = next_lo
        hi = min(lo + cfg.granularity - 1, last)
        size = hi - lo + 1
        next_lo = hi + 1

        expire_batch = None
        expire_lo = expire_hi = None
        if cfg.expire:
            expire_lo = window_lo
            expire_hi = expire_lo + size - 1
            exp_ops: list[Mutation] = []
            exp_nums = range(expire_lo, min(expire_hi, window_hi) + 1)
            for n in exp_nums:
                for t in txs_by_block.get(n, ()):
                    for tt in ttx_by_tx.get(t.hash, ()):
                        exp_ops.append(DeleteRow("token_transactions", (tt.transaction_hash, tt.log_index)))
            for n in exp_nums:
                for t in txs_by_block.get(n, ()):
                    exp_ops.append(DeleteRow("transactions", (t.hash,)))
            for n in exp_nums:
                for w in wds_by_block.get(n, ()):
                    exp_ops.append(DeleteRow("withdrawals", (w.hash, w.withdrawal_index)))
            # Null out token/contract links into the expiring blocks before the
            # block rows disappear, so no foreign key ever dangles.
            for addr in sorted(a for a, n in seen.tokens.items() if n is not None and expire_lo <= n <= expire_hi):
                exp_ops.append(NullBlockHash("tokens", (addr,)))
                seen.tokens[addr] = None
            for key in sorted(k for k, n in seen.contracts.items() if n is not None and expire_lo <= n <= expire_hi):
                exp_ops.append(NullBlockHash("contracts", key))
                seen.contracts[key] = None
            for n in exp_nums:
                exp_ops.append(DeleteRow("blocks", (blocks_by_number[n].hash,)))
            window_lo = expire_hi + 1
            expire_batch = Batch(index=index, kind="expire", block_lo=expire_lo, block_hi=expire_hi, ops=tuple(exp_ops))

        batch_nums = range(lo, hi + 1)
        # An expire wider than the window empties it; the batch then starts it anew.
        window_lo, window_hi = min(window_lo, lo), hi
        batch_blocks = [blocks_by_number[n] for n in batch_nums if n in blocks_by_number]
        batch_txs = [t for n in batch_nums for t in txs_by_block.get(n, ())]
        batch_wds = [w for n in batch_nums for w in wds_by_block.get(n, ())]
        batch_ttxs = [tt for t in batch_txs for tt in ttx_by_tx.get(t.hash, ())]

        new_tokens: dict[bytes, object] = {}
        for tt in batch_ttxs:
            if tt.token_address not in seen.tokens and tt.token_address not in new_tokens:
                new_tokens[tt.token_address] = tokens_by_addr[tt.token_address]
        for n in batch_nums:
            for tk in tokens_by_creation.get(n, ()):
                if tk.address not in seen.tokens:
                    new_tokens[tk.address] = tk

        touched_addrs = {t.from_address for t in batch_txs}
        touched_addrs |= {t.to_address for t in batch_txs if t.to_address is not None}
        new_contracts: dict[tuple[bytes, int], object] = {}
        for addr in sorted(touched_addrs | set(new_tokens)):
            for c in contracts_by_addr.get(addr, ()):
                key = (c.address, c.version)
                if key not in seen.contracts:
                    new_contracts[key] = c
        for n in batch_nums:
            for c in contracts_by_creation.get(n, ()):
                key = (c.address, c.version)
                if key not in seen.contracts:
                    new_contracts[key] = c

        # Link adjustment: a creating block outside the post-insert window
        # cannot be referenced, so the link is nulled at insert time.
        def place(row, kind: str, key):
            num = None if row.block_hash is None else number_of[row.block_hash]
            if num is not None and not window_lo <= num <= window_hi:
                row = dc_replace(row, block_hash=None)
                num = None
            if kind == "token":
                seen.tokens[key] = num
            else:
                seen.contracts[key] = num
            return row

        ops: list[Mutation] = []
        refs = referenced_addresses(
            batch_blocks, batch_txs, batch_wds, new_tokens.values(), new_contracts.values()
        )
        new_addrs = sorted(refs - seen.addresses)
        for addr in new_addrs:
            base = ledger.balance_at(addr, lo - 1)
            if base < 0:
                log.warning("address %s enters with negative balance %d; clamped", encode_hex(addr), base)
                base = 0
            ops.append(InsertRow("addresses", AddressRow(addr, base)))
            seen.addresses.add(addr)
        for b in batch_blocks:
            ops.append(InsertRow("blocks", b))
        for addr in sorted(new_tokens):
            ops.append(InsertRow("tokens", place(new_tokens[addr], "token", addr)))
        for key in sorted(new_contracts):
            ops.append(InsertRow("contracts", place(new_contracts[key], "contract", key)))
        for w in batch_wds:
            ops.append(InsertRow("withdrawals", w))
        for t in batch_txs:
            ops.append(InsertRow("transactions", t))
        for tt in batch_ttxs:
            ops.append(InsertRow("token_transactions", tt))
        for addr, delta in sorted(ledger.touched_in_range(lo, hi).items()):
            ops.append(UpdateBalance(addr, delta))

        upsert = Batch(index=index, kind="upsert", block_lo=lo, block_hi=hi, ops=tuple(ops))
        pairs.append(BatchPair(expire=expire_batch, upsert=upsert))
        infos.append(
            BatchInfo(
                index=index,
                lo=lo,
                hi=hi,
                first_timestamp=batch_blocks[0].timestamp if batch_blocks else 0,
                short=size < cfg.granularity,
                expire_lo=expire_lo,
                expire_hi=expire_hi,
            )
        )

    manifest = Manifest(
        initial_lo=first,
        initial_hi=init_hi,
        granularity=cfg.granularity,
        expire=cfg.expire,
        batches=infos,
    )
    return pairs, manifest


# ---------------------------------------------------------------------------
# SQL rendering


def _bytea(value: bytes) -> str:
    return f"'\\x{value.hex()}'::bytea"


def _text(value: str) -> str:
    escaped = value.replace("'", "''")
    return f"'{escaped}'"


def _boolean(value) -> str:
    return "TRUE" if value else "FALSE"


def _bytea_array(value) -> str:
    if not value:
        return "ARRAY[]::bytea[]"
    return f"ARRAY[{', '.join(map(_bytea, value))}]"


# Column kind (without the nullable "?") -> encoder of a non-None value.
_ENCODERS = {
    "hash": _bytea,
    "address": _bytea,
    "bytes": _bytea,
    "int": str,
    "bool": _boolean,
    "text": _text,
    "sighashes": _bytea_array,
}


def _literals(encoders, values) -> list[str]:
    """One SQL literal per value; None is NULL in any column."""
    return ["NULL" if v is None else encode(v) for encode, v in zip(encoders, values)]


@dataclass(frozen=True)
class _Template:
    """One table's statement text, compiled once from ``SCHEMA`` and
    ``PRIMARY_KEYS``: each statement's head, the row's values in column
    order with an encoder each, and the WHERE clause's ``col = `` parts with
    an encoder each."""

    insert: str
    values: Callable[[object], tuple]
    encoders: tuple[Callable[[object], str], ...]
    delete: str
    null_out: str
    key_columns: tuple[str, ...]
    key_encoders: tuple[Callable[[object], str], ...]

    def where(self, key: tuple) -> str:
        return " AND ".join(map(add, self.key_columns, _literals(self.key_encoders, key)))


def _template(table: str) -> _Template:
    names = [name for name, _ in SCHEMA[table]]
    encoders = {name: _ENCODERS[kind.rstrip("?")] for name, kind in SCHEMA[table]}
    sql_name = SQL_TABLE_NAMES[table]
    return _Template(
        insert=f"INSERT INTO {sql_name} ({', '.join(names)}) VALUES (",
        values=attrgetter(*names),
        encoders=tuple(encoders.values()),
        delete=f"DELETE FROM {sql_name} WHERE ",
        null_out=f"UPDATE {sql_name} SET block_hash = NULL WHERE ",
        key_columns=tuple(f"{col} = " for col in PRIMARY_KEYS[table]),
        key_encoders=tuple(encoders[col] for col in PRIMARY_KEYS[table]),
    )


_TEMPLATES = {table: _template(table) for table in SCHEMA}


def _render_op(op: Mutation) -> str:
    if isinstance(op, InsertRow):
        t = _TEMPLATES[op.table]
        return f"{t.insert}{', '.join(_literals(t.encoders, t.values(op.row)))});"
    if isinstance(op, UpdateBalance):
        sign, amount = ("+", op.delta) if op.delta >= 0 else ("-", -op.delta)
        address = "NULL" if op.address is None else _bytea(op.address)
        return f"UPDATE Addresses SET eth_balance = eth_balance {sign} {amount} WHERE address = {address};"
    if isinstance(op, DeleteRow):
        t = _TEMPLATES[op.table]
        return f"{t.delete}{t.where(op.key)};"
    if isinstance(op, NullBlockHash):
        t = _TEMPLATES[op.table]
        return f"{t.null_out}{t.where(op.key)};"
    raise ValueError(f"unknown mutation {type(op).__name__}")


def render_sql(batch: Batch, dialect: str = "postgres") -> str:
    """One transaction per batch file; one statement per mutation, in order."""
    if dialect != "postgres":
        raise WorkloadError(f"unsupported dialect {dialect!r}")
    lines = [
        f"-- {batch.kind} batch {batch.index}: blocks [{batch.block_lo}, {batch.block_hi}]",
        "BEGIN;",
    ]
    lines.extend(_render_op(op) for op in batch.ops)
    lines.append("COMMIT;")
    return "\n".join(lines) + "\n"


@collector_paused
def write_workload(ds: ChainDataset, cfg: WorkloadConfig, out_dir: str | Path, dialect: str = "postgres") -> Manifest:
    """Render load + batches to ``out_dir`` and write ``manifest.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    load = gen_initial(ds, cfg)
    (out / "load.sql").write_text(render_sql(load, dialect), encoding="utf-8")
    pairs, manifest = gen_batches(ds, cfg)
    for pair in pairs:
        if pair.expire is not None:
            (out / f"expire-{pair.expire.index:06d}.sql").write_text(
                render_sql(pair.expire, dialect), encoding="utf-8"
            )
        (out / f"upserts-{pair.upsert.index:06d}.sql").write_text(
            render_sql(pair.upsert, dialect), encoding="utf-8"
        )
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
