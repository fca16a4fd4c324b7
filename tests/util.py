"""Independent oracles and handcrafted fixtures shared across tests.

The evaluators here deliberately reimplement semantics (predicates, joins,
subgraph connectivity) instead of importing the production code paths they
check.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

from chainbench.chain_model import (
    DELETABLE_TABLES,
    PRIMARY_KEYS,
    ROW_TYPES,
    SCHEMA,
    SQL_TABLE_NAMES,
    WEI_MAX,
    AddressRow,
    Block,
    ChainDataset,
    Contract,
    Token,
    TokenTransaction,
    Transaction,
    Withdrawal,
    referenced_addresses,
)
from chainbench.estimator import ColumnStats
from chainbench.ingest_slice import ExportError
from chainbench.memstore import DeleteRow, Filter, InsertRow, Mutation, NullBlockHash, SPJQuery, Store, UpdateBalance
from chainbench.sqlstub import SqlParseError
from chainbench.workload_gen import INDEX_FILE, WORKLOAD_FILE, Manifest, ScriptWriter, write_manifest


def _oracle_matches(f: Filter, row) -> bool:
    v = getattr(row, f.column)
    if v is None:
        return False
    if f.op == "range":
        return f.value[0] <= v <= f.value[1]
    if f.op == "eq":
        return v == f.value
    if f.op == "ne":
        return v != f.value
    if f.op == "is_true":
        return v is True
    if f.op == "is_false":
        return v is False
    if f.op == "contains":
        return f.value in v
    if f.op == "not_contains":
        return f.value not in v
    if f.op == "ge":
        return v >= f.value
    if f.op == "le":
        return v <= f.value
    raise AssertionError(f.op)


def naive_column_stats(values: list, n_buckets: int = 100, mcv_k: int = 10) -> ColumnStats:
    """Column statistics the plain way: sort every value, count with a dict,
    and rank the most common values by (-count, value)."""
    n_rows = len(values)
    non_null = [v for v in values if v is not None]
    null_fraction = 1.0 - len(non_null) / n_rows if n_rows else 0.0

    freq: dict = {}
    for v in non_null:
        freq[v] = freq.get(v, 0) + 1
    ndv = len(freq)

    bool_true_fraction = None
    if non_null and all(isinstance(v, bool) for v in non_null):
        bool_true_fraction = sum(1 for v in non_null if v) / len(non_null)
        return ColumnStats(n_rows, null_fraction, ndv, (), (), bool_true_fraction)

    boundaries: tuple = ()
    if non_null:
        ordered = sorted(non_null)
        n = len(ordered)
        buckets = min(n_buckets, n)
        bounds = [ordered[0]]
        for j in range(1, buckets + 1):
            bounds.append(ordered[(j * n) // buckets - 1])
        boundaries = tuple(bounds)

    top = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:mcv_k]
    mcv = tuple((v, c / len(non_null)) for v, c in top) if non_null else ()
    return ColumnStats(n_rows, null_fraction, ndv, boundaries, mcv, bool_true_fraction)


def _connected_order(aliases: list[str], joins) -> list[str]:
    """Breadth-first alias order from the first alias; unreached aliases last."""
    neighbours = {a: set() for a in aliases}
    for e in joins:
        neighbours[e.left_alias].add(e.right_alias)
        neighbours[e.right_alias].add(e.left_alias)
    order = aliases[:1]
    for alias in order:  # grows while it is walked
        order.extend(n for n in sorted(neighbours[alias]) if n not in order)
    return order + [a for a in aliases if a not in order]


def nested_loop_count(store: Store, q: SPJQuery) -> int:
    """Naive nested-loop evaluation of a select-project-join count.

    Aliases are bound in breadth-first order over the join edges, so each
    alias after the first is checked against an already bound neighbour as
    soon as it is bound, rather than forming a cross product with unjoined
    tables first.
    """
    amap = q.alias_map
    aliases = _connected_order(sorted(amap), q.joins)
    rows = {
        alias: [
            r
            for r in store.rows(amap[alias])
            if all(_oracle_matches(f, r) for f in q.filters if f.alias == alias)
        ]
        for alias in aliases
    }

    def edges_ready(bound: dict, alias: str):
        for e in q.joins:
            other = None
            if e.left_alias == alias and e.right_alias in bound:
                other = (e.left_column, e.right_alias, e.right_column)
            elif e.right_alias == alias and e.left_alias in bound:
                other = (e.right_column, e.left_alias, e.left_column)
            if other:
                yield other

    def recurse(i: int, bound: dict) -> int:
        if i == len(aliases):
            return 1
        alias = aliases[i]
        total = 0
        for row in rows[alias]:
            ok = True
            for my_col, other_alias, other_col in edges_ready(bound, alias):
                mine = getattr(row, my_col)
                theirs = getattr(bound[other_alias], other_col)
                if mine is None or theirs is None or mine != theirs:
                    ok = False
                    break
            if ok:
                bound[alias] = row
                total += recurse(i + 1, bound)
                del bound[alias]
        return total

    return recurse(0, {})


def brute_force_connected_subsets(aliases, edges, max_size):
    """All connected induced alias subsets of size <= max_size, by enumeration."""
    adjacent = {a: set() for a in aliases}
    for left, right in edges:
        adjacent[left].add(right)
        adjacent[right].add(left)

    def connected(subset) -> bool:
        members = set(subset)
        seen = {subset[0]}
        frontier = [subset[0]]
        while frontier:
            for nxt in adjacent[frontier.pop()]:
                if nxt in members and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen == members

    out = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(sorted(aliases), size):
            if connected(combo):
                out.append(frozenset(combo))
    return out


# Join edges of the schema, used to synthesize random well-formed queries.
SCHEMA_JOIN_EDGES = [
    ("transactions", "block_hash", "blocks", "hash"),
    ("transactions", "from_address", "addresses", "address"),
    ("transactions", "to_address", "addresses", "address"),
    ("transactions", "to_address", "contracts", "address"),
    ("token_transactions", "transaction_hash", "transactions", "hash"),
    ("token_transactions", "token_address", "tokens", "address"),
    ("withdrawals", "hash", "blocks", "hash"),
    ("withdrawals", "address", "addresses", "address"),
    ("contracts", "address", "addresses", "address"),
    ("tokens", "address", "addresses", "address"),
    ("tokens", "block_hash", "blocks", "hash"),
    ("contracts", "block_hash", "blocks", "hash"),
    ("blocks", "miner", "addresses", "address"),
]

_FILTER_POOL = {
    "blocks": [
        lambda rng: Filter("blocks", "number", "range", tuple(sorted((rng.randrange(0, 200), rng.randrange(0, 200))))),
        lambda rng: Filter("blocks", "size", "ge", rng.randrange(20_000, 200_000)),
    ],
    "addresses": [
        lambda rng: Filter("addresses", "eth_balance", "ge", 10 ** rng.randrange(15, 22)),
    ],
    "transactions": [
        lambda rng: Filter("transactions", "nonce", "range", tuple(sorted((rng.randrange(0, 3_000_000), rng.randrange(0, 3_000_000))))),
        lambda rng: Filter("transactions", "gas", "range", tuple(sorted((rng.randrange(21_000, 1_000_000), rng.randrange(21_000, 1_000_000))))),
        lambda rng: Filter("transactions", "value", "ge", 10 ** rng.randrange(12, 19)),
        lambda rng: Filter("transactions", "transaction_type", "eq", rng.choice((0, 1, 2))),
    ],
    "contracts": [
        lambda rng: Filter("contracts", "is_erc20", rng.choice(("is_true", "is_false"))),
        lambda rng: Filter("contracts", "version", "eq", 1),
    ],
    "tokens": [
        lambda rng: Filter("tokens", "name", rng.choice(("contains", "not_contains")), "US"),
        lambda rng: Filter("tokens", "decimals", "eq", 18),
        lambda rng: Filter("tokens", "total_supply", "ge", 10 ** rng.randrange(10, 28)),
    ],
    "token_transactions": [
        lambda rng: Filter("token_transactions", "value", "range", tuple(sorted((10 ** rng.randrange(6, 14), 10 ** rng.randrange(6, 14))))),
        lambda rng: Filter("token_transactions", "log_index", "le", rng.randrange(0, 50)),
    ],
    "withdrawals": [
        lambda rng: Filter("withdrawals", "amount", "ge", 10 ** rng.randrange(15, 18)),
        lambda rng: Filter("withdrawals", "validator", "le", rng.randrange(10, 1000)),
    ],
}


def random_spj(rng: random.Random, max_tables: int = 3) -> SPJQuery:
    """A random connected query over the schema join graph (tables as aliases)."""
    n = rng.randrange(1, max_tables + 1)
    start = rng.choice(sorted(_FILTER_POOL))
    chosen = {start}
    joins = []
    while len(chosen) < n:
        candidates = [
            e for e in SCHEMA_JOIN_EDGES
            if (e[0] in chosen) != (e[2] in chosen)
        ]
        if not candidates:
            break
        edge = rng.choice(candidates)
        joins.append(edge)
        chosen.add(edge[0])
        chosen.add(edge[2])
    filters = []
    for table in sorted(chosen):
        for maker in _FILTER_POOL[table]:
            if rng.random() < 0.4:
                filters.append(maker(rng))
    return SPJQuery.build(
        tables={t: t for t in chosen},
        joins=[(e[0], e[1], e[2], e[3]) for e in joins],
        filters=filters,
    )


# ---------------------------------------------------------------------------
# The SQL-text parser as it was before statements were parsed in one pass,
# kept as an oracle: split_statements tokenizes the script and joins the
# tokens back, then each INSERT's VALUES list is tokenized again and every
# value goes through parse_literal. Copied unchanged but for the two_pass_
# prefix on the public names, and the store's mutation records (an INSERT's
# row still a column dict) in place of the parser's own statement classes.

_TABLE_BY_SQL_NAME = {sql.lower(): table for table, sql in SQL_TABLE_NAMES.items()}

# One token per match: a whole single-quoted literal (with '' escapes), a --
# comment, a separator or bracket, or a run of anything else. A lone quote is
# a literal that never closes. The (?!') keeps a literal from ending between
# the two quotes of an escape.
_TOKEN_RE = re.compile(r"'[^']*(?:''[^']*)*'(?!')|--[^\n]*|[;,()\[\]]|[^';,()\[\]-]+|-|'")


def two_pass_split_statements(script: str) -> list[str]:
    """Split on top-level semicolons; ``--`` starts a comment only outside
    string literals."""
    statements: list[str] = []
    parts: list[str] = []
    for tok in _TOKEN_RE.findall(script):
        if tok == ";":
            stmt = "".join(parts).strip()
            if stmt:
                statements.append(stmt)
            parts = []
        elif tok[0] != "-" or tok == "-":  # anything but a comment
            if tok == "'":
                stmt = "".join(parts).strip()
                raise SqlParseError(f"unterminated statement: string literal never closes in {stmt[:60]!r}")
            parts.append(tok)
    trailing = "".join(parts).strip()
    if trailing:
        raise SqlParseError(f"unterminated statement: {trailing[:60]!r}")
    return statements


_OPEN = frozenset("([")
_CLOSE = frozenset(")]")


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside string literals and brackets."""
    parts: list[str] = []
    buf: list[str] = []
    depth = 0
    for tok in _TOKEN_RE.findall(text):
        if tok == ",":
            if depth == 0:
                parts.append("".join(buf).strip())
                buf = []
                continue
        elif tok in _OPEN:
            depth += 1
        elif tok in _CLOSE:
            depth -= 1
        buf.append(tok)
    last = "".join(buf).strip()
    if last:
        parts.append(last)
    return parts


_INT_RE = re.compile(r"-?\d+")
# A quoted literal and its suffix. The (?!') makes "'a''" unterminated rather
# than "'a'" followed by a stray quote.
_STRING_RE = re.compile(r"'([^']*(?:''[^']*)*)'(?!')(.*)", re.S)
_KEYWORDS = {"NULL": None, "TRUE": True, "FALSE": False}


def two_pass_parse_literal(token: str):
    token = token.strip()
    if token[:1] == "'":
        m = _STRING_RE.fullmatch(token)
        if m is None:
            raise SqlParseError(f"unterminated string literal: {token!r}")
        text = m.group(1).replace("''", "'")
        suffix = m.group(2).strip()
        if suffix == "::bytea":
            if text.startswith("\\x"):
                try:
                    return bytes.fromhex(text[2:])
                except ValueError:
                    pass
            raise SqlParseError(f"bad bytea literal: {token!r}")
        if suffix:
            raise SqlParseError(f"unexpected literal suffix: {suffix!r}")
        return text
    if _INT_RE.fullmatch(token):
        return int(token)
    if token in _KEYWORDS:
        return _KEYWORDS[token]
    if token.startswith("ARRAY"):
        if token == "ARRAY[]::bytea[]":
            return ()
        inner = token[token.index("[") + 1 : token.rindex("]")]
        return tuple(two_pass_parse_literal(item) for item in _split_top_level(inner))
    raise SqlParseError(f"cannot parse literal: {token!r}")


_INSERT_RE = re.compile(r"^INSERT\s+INTO\s+(\w+)\s*\(([^)]*)\)\s*VALUES\s*\((.*)\)$", re.S)
_BALANCE_RE = re.compile(
    r"^UPDATE\s+Addresses\s+SET\s+eth_balance\s*=\s*eth_balance\s*([+-])\s*(\d+)\s+WHERE\s+(.*)$",
    re.S,
)
_NULLOUT_RE = re.compile(r"^UPDATE\s+(\w+)\s+SET\s+block_hash\s*=\s*NULL\s+WHERE\s+(.*)$", re.S)
_DELETE_RE = re.compile(r"^DELETE\s+FROM\s+(\w+)\s+WHERE\s+(.*)$", re.S)


def _table_of(sql_name: str) -> str:
    table = _TABLE_BY_SQL_NAME.get(sql_name.lower())
    if table is None:
        raise SqlParseError(f"unknown table {sql_name!r}")
    return table


_AND_RE = re.compile(r"\s+AND\s+")


def _parse_conditions(text: str) -> dict[str, object]:
    # Only key columns may be named, and they hold bytes or integers, so
    # " AND " never appears inside a literal of a WHERE clause that is accepted.
    conditions: dict[str, object] = {}
    for clause in _AND_RE.split(text.strip()):
        col, eq, lit = clause.partition("=")
        col = col.strip()
        if not eq or col in conditions:
            raise SqlParseError(f"cannot parse condition {clause!r}")
        conditions[col] = two_pass_parse_literal(lit)
    return conditions


def two_pass_primary_key(table: str, conditions: dict[str, object]) -> tuple:
    """The key tuple a keyed write names, in ``PRIMARY_KEYS`` order; the WHERE
    clause must name exactly the table's primary-key columns."""
    columns = PRIMARY_KEYS[table]
    if conditions.keys() != set(columns):
        raise SqlParseError(
            f"{table}: WHERE must name exactly the primary key {columns}, got {tuple(conditions)}"
        )
    return tuple(conditions[col] for col in columns)


def two_pass_parse_statement(stmt: str) -> Mutation | None:
    """Parse one statement; BEGIN/COMMIT yield None."""
    flat = stmt.strip()
    if flat.upper() in ("BEGIN", "COMMIT"):
        return None
    m = _INSERT_RE.match(flat)
    if m:
        table = _table_of(m.group(1))
        names = [c.strip() for c in m.group(2).split(",")]
        literals = _split_top_level(m.group(3))
        if len(names) != len(literals):
            raise SqlParseError(f"column/value arity mismatch in {flat[:60]!r}")
        return InsertRow(table, {n: two_pass_parse_literal(v) for n, v in zip(names, literals)})
    m = _BALANCE_RE.match(flat)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        (address,) = two_pass_primary_key("addresses", _parse_conditions(m.group(3)))
        return UpdateBalance(address, sign * int(m.group(2)))
    m = _NULLOUT_RE.match(flat)
    if m:
        table = _table_of(m.group(1))
        return NullBlockHash(table, two_pass_primary_key(table, _parse_conditions(m.group(2))))
    m = _DELETE_RE.match(flat)
    if m:
        table = _table_of(m.group(1))
        return DeleteRow(table, two_pass_primary_key(table, _parse_conditions(m.group(2))))
    raise SqlParseError(f"unsupported statement: {flat[:80]!r}")


def two_pass_parse_script(script: str) -> list[Mutation]:
    parsed = []
    for stmt in two_pass_split_statements(script):
        p = two_pass_parse_statement(stmt)
        if p is not None:
            parsed.append(p)
    return parsed


def rollback_balances(ds: ChainDataset, hi: int, block_number: dict[bytes, int]) -> dict[bytes, int]:
    """Balances at block ``hi``, derived from the snapshot by undoing later
    flows row by row; a row whose block is not in ``block_number`` is skipped."""
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


def filtered_slice(ds: ChainDataset, lo: int, hi: int) -> ChainDataset:
    """Blocks [lo, hi] with their closure, cut by filtering every table
    against hash sets in dataset order, with balances rolled back row by row:
    the slice as it was cut before the per-block view."""
    if lo > hi:
        raise ValueError(f"slice lo {lo} > hi {hi}")
    blocks = tuple(b for b in ds.blocks if lo <= b.number <= hi)
    if not blocks:
        raise ExportError("slice empty: no blocks in requested range")
    block_hashes = {b.hash for b in blocks}
    transactions = tuple(t for t in ds.transactions if t.block_hash in block_hashes)
    tx_hashes = {t.hash for t in transactions}
    withdrawals = tuple(w for w in ds.withdrawals if w.hash in block_hashes)
    token_txs = tuple(tt for tt in ds.token_transactions if tt.transaction_hash in tx_hashes)
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
    tables = dict(
        blocks=blocks, transactions=transactions, contracts=tuple(contracts), tokens=tuple(tokens),
        token_transactions=token_txs, withdrawals=withdrawals,
    )
    balances = rollback_balances(ds, hi, {b.hash: b.number for b in ds.blocks})
    addresses = tuple(AddressRow(a, max(0, balances.get(a, 0))) for a in sorted(referenced_addresses(tables)))
    return ChainDataset(addresses=addresses, **tables, final_block=hi)


def per_address_warnings(
    snapshot: dict[bytes, int], first_block: int, deltas: dict[bytes, list[tuple[int, int]]]
) -> set[tuple[bytes, int]]:
    """Where a ledger's balance dips below zero, one address at a time: from
    its snapshot balance back over its (block, delta) entries, newest first,
    flagging (address, block) when the balance after that block is negative,
    and (address, first_block - 1) when it is negative before every delta."""
    bad = set()
    for address, entries in deltas.items():
        balance = snapshot.get(address, 0)
        for block, delta in sorted(entries, reverse=True):
            if balance < 0:
                bad.add((address, block))
            balance -= delta
        if balance < 0:
            bad.add((address, first_block - 1))
    return bad


def containers(store: Store) -> dict:
    """Copies of the store's containers, each reverse-index set copied too."""
    state = {}
    for name, container in vars(store).items():
        if isinstance(container, dict) and any(isinstance(v, set) for v in container.values()):
            state[name] = {k: set(v) for k, v in container.items()}
        else:
            state[name] = container.copy()
    return state


# ---------------------------------------------------------------------------
# Handcrafted rows for edge-case tests


def addr(i: int) -> bytes:
    return i.to_bytes(4, "big") * 5


def hsh(i: int) -> bytes:
    return i.to_bytes(4, "big") * 8


def make_block(i: int, timestamp: int | None = None, miner: bytes | None = None) -> Block:
    return Block(
        hash=hsh(i),
        number=i,
        timestamp=timestamp if timestamp is not None else 1000 + 12 * i,
        extra_data=b"",
        base_fee_per_gas=10**9,
        size=50_000,
        miner=miner if miner is not None else addr(1),
    )


def make_tx(i: int, block: int, sender: bytes, to: bytes | None, value: int, nonce: int, index: int = 0) -> Transaction:
    return Transaction(
        hash=hsh(100 + i),
        transaction_index=index,
        value=value,
        from_address=sender,
        to_address=to,
        gas=21_000,
        max_priority_fee_per_gas=None,
        input=b"",
        block_hash=hsh(block),
        transaction_type=2,
        nonce=nonce,
    )


def tiny_dataset() -> ChainDataset:
    """Three blocks, two user addresses, one token+contract, one withdrawal."""
    a1, a2, tk = addr(1), addr(2), addr(3)
    blocks = (make_block(0), make_block(1), make_block(2))
    txs = (
        make_tx(0, 1, a1, a2, 50, nonce=7, index=0),
        make_tx(1, 1, a1, None, 0, nonce=8, index=1),  # creation: no receiver
        make_tx(2, 2, a2, a1, 20, nonce=3, index=0),
    )
    token = Token(address=tk, symbol="TOK", name="tok-token", decimals=18, total_supply=10**24, block_hash=hsh(0))
    contract = Contract(
        address=tk, version=1, function_sighashes=(b"\x01\x02\x03\x04",),
        bytecode=b"\x60\x60", is_erc20=True, is_erc721=False, block_hash=hsh(0),
    )
    token_tx = TokenTransaction(transaction_hash=hsh(101), log_index=0, token_address=tk, value=5 * 10**9)
    withdrawal = Withdrawal(hash=hsh(2), withdrawal_index=0, validator=9, address=a2, amount=1000)
    balances = {a1: 10_000 - 50 + 20, a2: 10_000 + 50 - 20 + 1000, tk: 0}
    addresses = tuple(AddressRow(a, balances[a]) for a in sorted(balances))
    return ChainDataset(
        blocks=blocks,
        addresses=addresses,
        transactions=txs,
        contracts=(contract,),
        tokens=(token,),
        token_transactions=(token_tx,),
        withdrawals=(withdrawal,),
        final_block=2,
    )


def with_balance(ds: ChainDataset, address: bytes, balance) -> ChainDataset:
    """The dataset with ``address``'s row in the addresses table, its
    balance snapshot, set to ``balance``."""
    return replace(
        ds, addresses=tuple(row._replace(eth_balance=balance) if row.address == address else row for row in ds.addresses)
    )


# ---------------------------------------------------------------------------
# SQL text the plain way: one literal per value, one statement per record,
# read from SCHEMA at every call (never from workload_gen's renderer).


def reference_literal(kind: str, value) -> str:
    """A value's SQL literal; None is NULL."""
    if value is None:
        return "NULL"
    kind = kind.rstrip("?")
    if kind in ("hash", "address", "bytes"):
        return "'\\x" + value.hex() + "'::bytea"
    if kind == "int":
        return str(value)
    if kind == "bool":
        return "TRUE" if value else "FALSE"
    if kind == "text":
        return "'" + value.replace("'", "''") + "'"
    if kind == "sighashes":
        if not value:
            return "ARRAY[]::bytea[]"
        return "ARRAY[" + ", ".join(reference_literal("bytes", item) for item in value) + "]"
    raise AssertionError(kind)


def reference_statement(op: Mutation) -> str:
    if isinstance(op, UpdateBalance):
        sign = "+" if op.delta >= 0 else "-"
        address = reference_literal("address", op.address)
        return f"UPDATE Addresses SET eth_balance = eth_balance {sign} {abs(op.delta)} WHERE address = {address};"
    name, kinds = SQL_TABLE_NAMES[op.table], dict(SCHEMA[op.table])
    if isinstance(op, InsertRow):
        values = ", ".join(reference_literal(kind, value) for kind, value in zip(kinds.values(), op.row, strict=True))
        return f"INSERT INTO {name} ({', '.join(kinds)}) VALUES ({values});"
    keys = PRIMARY_KEYS[op.table]
    where = " AND ".join(f"{col} = {reference_literal(kinds[col], v)}" for col, v in zip(keys, op.key, strict=True))
    if isinstance(op, DeleteRow):
        return f"DELETE FROM {name} WHERE {where};"
    if isinstance(op, NullBlockHash):
        return f"UPDATE {name} SET block_hash = NULL WHERE {where};"
    raise AssertionError(op)


def reference_render(batch) -> str:
    head = f"-- {batch.kind} batch {batch.index}: blocks [{batch.block_lo}, {batch.block_hi}]"
    return "\n".join([head, "BEGIN;", *map(reference_statement, batch.ops), "COMMIT;"]) + "\n"


# Column kind -> two values at the edges of its rendered form.
_EDGE_VALUES = {
    "hash": (bytes(range(32)), b""),
    "address": (b"\xff" * 20, bytes(20)),
    "bytes": (b"", b"\x00'\\{"),
    "int": (0, WEI_MAX - 1),
    "bool": (True, False),
    "text": ("it's \r\n\u00e9t\u00e9", "''\r{x}\\"),
    "sighashes": ((), (b"\x01\x02\x03\x04", b"\xa9\x05\x9c\xbb")),
}


def edge_ops() -> tuple[Mutation, ...]:
    """Every statement form at its edges: per table, an insert of each
    column's first edge value, one of its second with NULL in every nullable
    column, a keyed DELETE of the first where the table may be deleted from,
    and a block_hash NULL-out where that column may be NULL; then balance
    UPDATEs by zero, negative and positive deltas."""
    ops: list[Mutation] = []
    for table, columns in SCHEMA.items():
        first = ROW_TYPES[table](*(_EDGE_VALUES[kind.rstrip("?")][0] for _, kind in columns))
        second = ROW_TYPES[table](
            *(None if kind.endswith("?") else _EDGE_VALUES[kind][1] for _, kind in columns)
        )
        key = tuple(getattr(first, col) for col in PRIMARY_KEYS[table])
        ops += [InsertRow(table, first), InsertRow(table, second)]
        if table in DELETABLE_TABLES:
            ops.append(DeleteRow(table, key))
        if ("block_hash", "hash?") in columns:
            ops.append(NullBlockHash(table, key))
    address = _EDGE_VALUES["address"][0]
    ops += [UpdateBalance(address, delta) for delta in (0, -1, 1, -(WEI_MAX - 1), WEI_MAX - 1)]
    return tuple(ops)


# ---------------------------------------------------------------------------
# Workload directories: written by hand through the library's writer, and
# read back through the index by slicing the whole file (never through the
# replay's own reader).


def write_scripts(directory: Path, scripts: Iterable[tuple[str, str]], manifest: Manifest | None = None) -> None:
    """Write ``scripts`` ((name, text) pairs, in replay order) as a workload
    directory's ``workload.sql`` and ``scripts.json``, and ``manifest`` as
    its ``manifest.json`` when one is given."""
    directory.mkdir(parents=True, exist_ok=True)
    with ScriptWriter(directory) as writer:
        for name, text in scripts:
            writer.add(name, text)
    if manifest is not None:
        write_manifest(directory, manifest)


def read_scripts(directory: Path) -> dict[str, str]:
    """Each script of a workload directory by name, in index order."""
    data = (directory / WORKLOAD_FILE).read_bytes()
    index = json.loads((directory / INDEX_FILE).read_text(encoding="utf-8"))
    return {name: data[offset : offset + length].decode("utf-8") for name, offset, length in index}


def edit_script(directory: Path, name: str, edit: Callable[[str], str]) -> None:
    """Rewrite a workload directory's scripts with ``edit(text)`` in place of
    script ``name``'s text; the manifest is left as it is."""
    scripts = read_scripts(directory)
    scripts[name] = edit(scripts[name])
    write_scripts(directory, scripts.items())
