"""Turn a dataset into an initial-load artifact plus ordered update batches.

Each upsert batch advances the state by ``granularity`` blocks, inserting new
blocks with their withdrawals, transactions, and token transactions, plus any
referenced tokens, contracts, or addresses not seen before, and ends with one
aggregated balance UPDATE per touched address. With expiration enabled, each
batch is preceded by an expire batch deleting the oldest blocks' rows so the
state keeps a constant number of blocks (a moving window). Batches exist in
two equivalent forms: structured mutations (for the in-memory store) and
rendered SQL text, one script per batch.

A workload directory holds ``workload.sql``, every script in replay order
(the load, then per batch its expire script when expiring and its upsert
script), so ``psql -f workload.sql`` applies the whole sequence, one
transaction per script; ``scripts.json``, the index of that file: one
``[name, offset, length]`` per script, in bytes, under the script's name
(``load.sql``, ``expire-000001.sql``, ``upserts-000001.sql``, ...); and
``manifest.json``, the batches' block ranges.

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
import os
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator

from .chain_model import (
    DELETABLE_TABLES,
    AddressRow,
    ChainDataset,
    PRIMARY_KEYS,
    SCHEMA,
    SQL_TABLE_NAMES,
    encode_hex,
    referenced_addresses,
)
from .gcpause import collector_paused
from .ingest_slice import BlockView, block_view, build_ledger, extract_slice, slice_tables, unlinked
from .memstore import DeleteRow, InsertRow, Mutation, NullBlockHash, UpdateBalance, records

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


# The files of a workload directory.
WORKLOAD_FILE = "workload.sql"
INDEX_FILE = "scripts.json"
MANIFEST_FILE = "manifest.json"


def script_name(kind: str, index: int) -> str:
    """The name a batch's script goes by in the index, the replay report and
    the checkpoint: ``load.sql``, ``expire-NNNNNN.sql``, ``upserts-NNNNNN.sql``."""
    return "load.sql" if kind == "load" else f"{'upserts' if kind == 'upsert' else kind}-{index:06d}.sql"


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
            "batches": [dict(vars(b)) for b in self.batches],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Manifest":
        return cls(
            initial_lo=data["initial"]["lo"],
            initial_hi=data["initial"]["hi"],
            granularity=data["granularity"],
            expire=data["expire"],
            batches=[BatchInfo(**b) for b in data["batches"]],
        )

    def units(self) -> list[tuple[int, list[str]]]:
        """The replay order: each batch's index (0 for the load) and the
        names of its scripts, the expire script first where there is one."""
        kinds = ("expire", "upsert") if self.expire else ("upsert",)
        return [(0, [script_name("load", 0)])] + [
            (b.index, [script_name(kind, b.index) for kind in kinds]) for b in self.batches
        ]


def _window(ds: ChainDataset, cfg: WorkloadConfig, batched: bool) -> tuple[int, int, int]:
    """The first block, the initial window's last and the last block; refuses a dataset
    without blocks or shorter than the window, and, if ``batched``, one with no block beyond it."""
    rng = ds.block_range
    if rng is None:
        raise WorkloadError("dataset has no blocks")
    first, last = rng
    init_hi = first + cfg.init_blocks - 1
    if init_hi > last:
        raise WorkloadError(f"init_blocks {cfg.init_blocks} exceeds dataset ({last - first + 1} blocks)")
    if batched and init_hi == last:
        raise WorkloadError("no blocks beyond the initial range: nothing to batch")
    return first, init_hi, last


def gen_initial(source: ChainDataset | BlockView, cfg: WorkloadConfig) -> Batch:
    """Load artifact: the first ``init_blocks`` blocks with closure and
    balances extrapolated to the end of the initial window, inserted in an
    FK-safe table order. The slice's blocks and their rows come in block
    order, and its addresses in address order."""
    view = block_view(source)
    first, init_hi, _ = _window(view.ds, cfg, batched=False)
    initial = extract_slice(view, first, init_hi)
    ops = (
        *records(InsertRow, "addresses", initial.addresses),
        *records(InsertRow, "blocks", initial.blocks),
        *records(InsertRow, "tokens", sorted(initial.tokens, key=attrgetter("address"))),
        *records(InsertRow, "contracts", sorted(initial.contracts, key=attrgetter("address", "version"))),
        *records(InsertRow, "withdrawals", initial.withdrawals),
        *records(InsertRow, "transactions", initial.transactions),
        *records(InsertRow, "token_transactions", initial.token_transactions),
    )
    return Batch(index=0, kind="load", block_lo=first, block_hi=init_hi, ops=ops)


def _keys(table: str, rows) -> Iterator[tuple]:
    """Each row's primary key, as the tuple a keyed record holds."""
    key = attrgetter(*PRIMARY_KEYS[table])
    return map(key, rows) if len(PRIMARY_KEYS[table]) > 1 else zip(map(key, rows))


def gen_batches(source: ChainDataset | BlockView, cfg: WorkloadConfig) -> tuple[list[BatchPair], Manifest]:
    """Ordered update batches advancing the state beyond the initial window."""
    view = block_view(source)
    ds, span = view.ds, view.span
    first, init_hi, last = _window(ds, cfg, batched=True)
    ledger = build_ledger(view)
    tokens_by_addr = {tk.address: tk for tk in ds.tokens}
    contracts_by_addr: dict[bytes, list] = {}
    for c in ds.contracts:
        contracts_by_addr.setdefault(c.address, []).append(c)

    # What the state holds so far, starting from the initial window's closure
    # as gen_initial's slice has it: its addresses, and its tokens and
    # contracts, each with whether it still links to its creating block.
    initial = slice_tables(ds, span(first, init_hi))
    seen_addrs = referenced_addresses(initial)
    seen_tokens = {tk.address: tk.block_hash is not None for tk in initial["tokens"]}
    seen_contracts = {(c.address, c.version): c.block_hash is not None for c in initial["contracts"]}
    # Every address's balance at the end of the window's newest block: the
    # balances at the initial window's end, then each batch's net deltas.
    balances = ledger.balances_at(init_hi)
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
            expiring = span(expire_lo, min(expire_hi, window_hi))
            exp_ttxs = [tt for b in expiring for tt in b.token_transactions]
            exp_txs = [t for b in expiring for t in b.transactions]
            exp_wds = [w for b in expiring for w in b.withdrawals]
            # Null out token/contract links into the expiring blocks before the
            # block rows disappear, so no foreign key ever dangles.
            nulled_tokens = sorted(tk.address for b in expiring for tk in b.tokens if seen_tokens.get(tk.address))
            nulled_contracts = sorted(
                key for b in expiring for c in b.contracts if seen_contracts.get(key := (c.address, c.version))
            )
            exp_ops = (
                *records(DeleteRow, "token_transactions", _keys("token_transactions", exp_ttxs)),
                *records(DeleteRow, "transactions", _keys("transactions", exp_txs)),
                *records(DeleteRow, "withdrawals", _keys("withdrawals", exp_wds)),
                *records(NullBlockHash, "tokens", zip(nulled_tokens)),
                *records(NullBlockHash, "contracts", nulled_contracts),
                *records(DeleteRow, "blocks", _keys("blocks", [b.block for b in expiring])),
            )
            seen_tokens.update(dict.fromkeys(nulled_tokens, False))
            seen_contracts.update(dict.fromkeys(nulled_contracts, False))
            window_lo = expire_hi + 1
            expire_batch = Batch(index=index, kind="expire", block_lo=expire_lo, block_hi=expire_hi, ops=exp_ops)

        batch = span(lo, hi)
        # An expire wider than the window empties it; the batch then starts it anew.
        window_lo, window_hi = min(window_lo, lo), hi
        batch_blocks = [b.block for b in batch]
        batch_txs = [t for b in batch for t in b.transactions]
        batch_wds = [w for b in batch for w in b.withdrawals]
        batch_ttxs = [tt for b in batch for tt in b.token_transactions]

        # A token or contract goes in linked only when this batch creates it:
        # the window's older blocks inserted theirs already, so any other new
        # one was created outside the window and goes in with its link nulled.
        new_tokens: dict[bytes, object] = {}
        for tt in batch_ttxs:
            if tt.token_address not in seen_tokens and tt.token_address not in new_tokens:
                new_tokens[tt.token_address] = unlinked(tokens_by_addr[tt.token_address])
        for b in batch:
            for tk in b.tokens:
                if tk.address not in seen_tokens:
                    new_tokens[tk.address] = tk

        touched_addrs = referenced_addresses({"transactions": batch_txs})
        new_contracts: dict[tuple[bytes, int], object] = {}
        for addr in touched_addrs | new_tokens.keys():
            for c in contracts_by_addr.get(addr, ()):
                key = (c.address, c.version)
                if key not in seen_contracts:
                    new_contracts[key] = unlinked(c)
        for b in batch:
            for c in b.contracts:
                key = (c.address, c.version)
                if key not in seen_contracts:
                    new_contracts[key] = c
        seen_tokens.update((a, tk.block_hash is not None) for a, tk in new_tokens.items())
        seen_contracts.update((k, c.block_hash is not None) for k, c in new_contracts.items())

        refs = referenced_addresses(
            dict(blocks=batch_blocks, transactions=batch_txs, withdrawals=batch_wds,
                 tokens=new_tokens.values(), contracts=new_contracts.values())
        )
        new_addrs = sorted(refs - seen_addrs)
        address_rows = []
        for addr in new_addrs:
            base = balances.get(addr, 0)
            if base < 0:
                log.warning("address %s enters with negative balance %d; clamped", encode_hex(addr), base)
                base = 0
            address_rows.append(AddressRow(addr, base))
        seen_addrs.update(new_addrs)
        touched = ledger.touched_in_range(lo, hi)
        for addr, delta in touched.items():
            balances[addr] = balances.get(addr, 0) + delta
        ops = (
            *records(InsertRow, "addresses", address_rows),
            *records(InsertRow, "blocks", batch_blocks),
            *records(InsertRow, "tokens", [new_tokens[a] for a in sorted(new_tokens)]),
            *records(InsertRow, "contracts", [new_contracts[k] for k in sorted(new_contracts)]),
            *records(InsertRow, "withdrawals", batch_wds),
            *records(InsertRow, "transactions", batch_txs),
            *records(InsertRow, "token_transactions", batch_ttxs),
            # Each (address, delta) pair becomes its UpdateBalance in C.
            *map(tuple.__new__, repeat(UpdateBalance), sorted(touched.items())),
        )

        upsert = Batch(index=index, kind="upsert", block_lo=lo, block_hi=hi, ops=ops)
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
#
# One function per (record class, table), compiled once at import from
# SCHEMA, PRIMARY_KEYS and SQL_TABLE_NAMES: it unpacks the record into
# locals and returns the whole statement, newline included, from one
# f-string, testing for None only where the column may be NULL (elsewhere a
# None fails the render or is written as text the parser refuses). The source
# compiles on Python 3.10, where an f-string's expressions may hold neither a
# backslash nor the string's own quote (PEP 701 lifts both in 3.12): the
# f-string is quoted with ', and its expressions use " only.


def _sighashes(values) -> str:
    items = ", ".join([f"'\\x{value.hex()}'::bytea" for value in values])
    return f"ARRAY[{items}]" if items else "ARRAY[]::bytea[]"


# Value kind -> how a value in the local ``%(v)s`` is written: its f-string
# source, and a statement that prepares the local first (None: none). The
# value kinds are the column kinds (without the nullable "?") and a balance
# UPDATE's signed amount.
_BYTEA = r"\'\\x{%(v)s.hex()}\'::bytea"
_CELLS = {
    "hash": (_BYTEA, None),
    "address": (_BYTEA, None),
    "bytes": (_BYTEA, None),
    "int": ("{%(v)s}", None),
    "bool": ('{("FALSE", "TRUE")[%(v)s]}', None),
    "text": (r"\'{%(v)s}\'", """%(v)s = %(v)s.replace("'", "''")"""),
    "sighashes": ("{_sighashes(%(v)s)}", None),
    "delta": ('{"+" if %(v)s >= 0 else "-"} {abs(%(v)s)}', None),
}


def _literal_source(text: str) -> str:
    """``text`` as the source of a literal part of an f-string quoted with '."""
    for char, escaped in (("\\", "\\\\"), ("'", "\\'"), ("\n", "\\n"), ("{", "{{"), ("}", "}}")):
        text = text.replace(char, escaped)
    return text


def _renderer(fields: str, parts: list) -> Callable[[Mutation], str]:
    """A record's statement: ``fields`` is the unpacking target that takes
    the record apart into locals, and ``parts`` the statement's text, with a
    (local, value kind) pair wherever a value goes."""
    body = [f"def render(op):\n    {fields} = op\n"]
    fstring = []
    for part in parts:
        if isinstance(part, str):
            fstring.append(_literal_source(part))
            continue
        v, kind = part
        cell, prepare = _CELLS[kind.rstrip("?")]
        cell = cell % {"v": v}
        if prepare is not None:
            prepare = prepare % {"v": v}
        if kind.endswith("?"):
            # NULL, or the value's own text, is in the local before the statement.
            body.append(f'    if {v} is None:\n        {v} = "NULL"\n    else:\n')
            if prepare is not None:
                body.append(f"        {prepare}\n")
            body.append(f"        {v} = f'{cell}'\n")
            fstring.append(f"{{{v}}}")
        else:
            if prepare is not None:
                body.append(f"    {prepare}\n")
            fstring.append(cell)
    body.append(f"    return f'{''.join(fstring)};\\n'\n")
    built: dict = {}
    exec("".join(body), {"__name__": __name__, "_sighashes": _sighashes}, built)
    return built["render"]


def _compile_renderers() -> dict[type, dict[str, Callable[[Mutation], str]]]:
    """Record class -> table -> renderer: an INSERT for every table, a keyed
    DELETE for each of ``DELETABLE_TABLES``, a block_hash NULL-out where that
    column may be NULL, and the balance UPDATE."""
    renderers: dict[type, dict[str, Callable[[Mutation], str]]] = {
        InsertRow: {},
        DeleteRow: {},
        NullBlockHash: {},
        UpdateBalance: {},
    }
    for table, columns in SCHEMA.items():
        name = SQL_TABLE_NAMES[table]
        cells = {col: (f"c{i}", kind) for i, (col, kind) in enumerate(columns)}
        values = [f"INSERT INTO {name} ({', '.join(cells)}) VALUES ("]
        for i, cell in enumerate(cells.values()):
            values += [", " if i else "", cell]
        where = [" WHERE "]
        for i, col in enumerate(PRIMARY_KEYS[table]):
            where += [f"{' AND ' if i else ''}{col} = ", cells[col]]
        row = f"_, ({', '.join(v for v, _ in cells.values())},)"
        key = f"_, ({', '.join(cells[col][0] for col in PRIMARY_KEYS[table])},)"
        renderers[InsertRow][table] = _renderer(row, [*values, ")"])
        if table in DELETABLE_TABLES:
            renderers[DeleteRow][table] = _renderer(key, [f"DELETE FROM {name}", *where])
        if ("block_hash", "hash?") in columns:
            renderers[NullBlockHash][table] = _renderer(key, [f"UPDATE {name} SET block_hash = NULL", *where])
    (col,) = PRIMARY_KEYS[UpdateBalance.table]
    address = dict(SCHEMA[UpdateBalance.table])[col]
    balance = f"UPDATE {SQL_TABLE_NAMES[UpdateBalance.table]} SET eth_balance = eth_balance "
    renderers[UpdateBalance][UpdateBalance.table] = _renderer(
        "c0, delta", [balance, ("delta", "delta"), f" WHERE {col} = ", ("c0", address)]
    )
    return renderers


_RENDERERS = _compile_renderers()


def _resolve(op) -> Callable[[Mutation], str]:
    """Renderer of an op the direct lookup misses (its class subclasses a
    mutation record), or the refusal of one no renderer takes."""
    for kind, by_table in _RENDERERS.items():
        if isinstance(op, kind):
            try:
                return by_table[op.table]
            except KeyError:
                raise ValueError(f"no {kind.__name__} statement for table {op.table!r}") from None
    raise ValueError(f"unknown mutation {type(op).__name__}")


def render_sql(batch: Batch) -> str:
    """One transaction per batch file; one statement per mutation, in order."""
    try:
        statements = [_RENDERERS[op.__class__][op.table](op) for op in batch.ops]
    except KeyError:
        statements = [_resolve(op)(op) for op in batch.ops]
    head = f"-- {batch.kind} batch {batch.index}: blocks [{batch.block_lo}, {batch.block_hi}]\nBEGIN;\n"
    return "".join([head, *statements, "COMMIT;\n"])  # one copy of the text, not two


class ScriptWriter:
    """Writes a workload's scripts into ``out_dir``: ``add`` appends a
    script's UTF-8 bytes to ``workload.sql`` through one descriptor with
    ``os.write`` (again after a short write), through no Python-level buffer
    or text wrapper; leaving the ``with`` block without an error closes the
    file and writes its index, ``scripts.json``."""

    def __init__(self, out_dir: str | Path):
        self.out = Path(out_dir)
        self.index: list[tuple[str, int, int]] = []  # (name, offset, length) in bytes
        self.size = 0
        self.fd = os.open(self.out / WORKLOAD_FILE, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def add(self, name: str, text: str) -> None:
        data = memoryview(text.encode())
        self.index.append((name, self.size, len(data)))
        self.size += len(data)
        while data:
            data = data[os.write(self.fd, data) :]

    def __enter__(self) -> "ScriptWriter":
        return self

    def __exit__(self, exc_type, *_) -> None:
        os.close(self.fd)
        if exc_type is None:
            entries = ",\n".join(json.dumps(entry) for entry in self.index)
            (self.out / INDEX_FILE).write_text(f"[\n{entries}\n]\n", encoding="utf-8")


def write_manifest(out_dir: str | Path, manifest: Manifest) -> None:
    with open(Path(out_dir) / MANIFEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@collector_paused
def write_workload(ds: ChainDataset, cfg: WorkloadConfig, out_dir: str | Path) -> Manifest:
    """Render the load and every batch into ``out_dir``: each script is
    appended to ``workload.sql`` as soon as it is rendered, then
    ``scripts.json`` and ``manifest.json`` are written. A dataset the generators refuse
    is refused before any file is opened, so a workload already in ``out_dir`` stays."""
    _window(ds, cfg, batched=True)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with ScriptWriter(out) as scripts:
        view = block_view(ds)  # one grouping for the load and the batches
        scripts.add(script_name("load", 0), render_sql(gen_initial(view, cfg)))
        pairs, manifest = gen_batches(view, cfg)
        del view
        for pair in pairs:
            for batch in (pair.expire, pair.upsert):
                if batch is not None:
                    scripts.add(script_name(batch.kind, batch.index), render_sql(batch))
    write_manifest(out, manifest)
    return manifest
