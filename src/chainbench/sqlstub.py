"""Minimal scripted SQL-text engine for the emitted workload dialect.

Parses exactly the statement shapes the workload renderer produces (INSERT,
balance UPDATE, block_hash NULL-out, keyed DELETE, BEGIN/COMMIT) into the
in-memory store's mutation records, and applies them to its own tables of
rows keyed by primary key. It shares those record classes and ``ROW_TYPES``
with the store but no table, index or key code, which is what makes SQL-text
replay a meaningful independent check against structured replay. Each script
is applied atomically.

Keyed DELETE and NULL-out must name exactly the table's primary key, so each
resolves with one lookup in the table's key dict; a write to a missing row,
and a balance UPDATE that leaves ``[0, WEI_MAX)``, are refused.

``parse_script`` takes each statement with one anchored ``match``. The
statement forms are built once, per table, from ``SCHEMA``, ``PRIMARY_KEYS``
and ``SQL_TABLE_NAMES`` (never from the renderer's code, so the stub stays an
independent check): the INSERT with the full column list in schema order, the
keyed DELETE with the WHERE clause fixed by the primary key for each table of
``DELETABLE_TABLES`` (the others have none), the same for the block_hash
NULL-out of each table where that column may be NULL (tokens and
contracts), the balance UPDATE, BEGIN, COMMIT and ``--`` comment lines, each
followed by any whitespace. Each form types its positions (hex digits in a
bytea, an optional sign and digits in an integer, ``''`` escapes in text, the
bytea ARRAY) and has one converter per position, and is compiled at import
into one function from its match to its record (an insert's row is already
its table's row type from ``ROW_TYPES``, so the store takes it as it is)
that reads only the form's groups and tests for NULL only where the column
may be NULL. Hex digits are decoded by ``binascii.unhexlify``, in C. Text
that no form takes, or a position whose converter fails (an odd number of
hex digits, an integer too long to convert), is a ``SqlParseError`` that
names the line and quotes the text from there.

The patterns are written unrolled, without the possessive quantifiers and
atomic groups that need Python 3.11, and no input makes them backtrack
through alternative splits.
"""
from __future__ import annotations

import binascii
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .chain_model import DELETABLE_TABLES, PRIMARY_KEYS, ROW_TYPES, SCHEMA, SQL_TABLE_NAMES, WEI_MAX
from .memstore import DeleteRow, InsertRow, Mutation, NullBlockHash, UpdateBalance


class SqlParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The statement forms the renderer writes, built once from SCHEMA,
# PRIMARY_KEYS and SQL_TABLE_NAMES (never from the renderer's code).

_BYTEA = r"'\\x[0-9a-fA-F]*'::bytea"
_HEX = r"'\\x([0-9a-fA-F]*)'::bytea"
_ARRAY_ITEM_RE = re.compile(r"'\\x([0-9a-fA-F]*)'")


def _unquote(text: str) -> str:
    return text.replace("''", "'")


def _bytea_array(text: str) -> tuple[bytes, ...]:
    return tuple(map(binascii.unhexlify, _ARRAY_ITEM_RE.findall(text)))


# Value kind -> (pattern with one group, converter of the group's text): the
# column kinds, and the sign of a balance UPDATE. Converters raise ValueError
# on an odd number of hex digits (``binascii.Error`` is one) or an integer too
# long to convert.
_VALUE_FORMS = {
    "hash": (_HEX, binascii.unhexlify),
    "address": (_HEX, binascii.unhexlify),
    "bytes": (_HEX, binascii.unhexlify),
    "int": (r"(-?[0-9]+)", int),
    "bool": (r"(TRUE|FALSE)", {"TRUE": True, "FALSE": False}.__getitem__),
    "text": (r"'([^']*(?:''[^']*)*)'", _unquote),
    "sighashes": (rf"(ARRAY\[\]::bytea\[\]|ARRAY\[{_BYTEA}(?:, {_BYTEA})*\])", _bytea_array),
    "sign": (r"([+-])", {"+": 1, "-": -1}.__getitem__),
}


def _pattern(kind: str) -> str:
    pattern = _VALUE_FORMS[kind.rstrip("?")][0]
    return f"(?:NULL|{pattern})" if kind.endswith("?") else pattern  # NULL leaves the group unmatched


@dataclass(frozen=True)
class _Form:
    """One statement form: its pattern after the head, the value kind of each
    of its groups (a ``?`` kind may be NULL), and the source of the record
    its values become, with a ``{}`` per value (None: nothing, for BEGIN,
    COMMIT and comment lines)."""

    pattern: str
    kinds: tuple[str, ...] = ()
    record: str | None = None


def _keyed(record: str, table: str, n: int) -> str:
    """Source of a record naming a table and a tuple of ``n`` values: a keyed
    write's key."""
    return f"_new({record}, ({table!r}, ({'{}, ' * n})))"


def _forms() -> dict[str, list[_Form]]:
    """Statement head -> the forms that start with it."""
    inserts, deletes, updates = [], [], []
    for table, columns in SCHEMA.items():
        name = SQL_TABLE_NAMES[table]
        kinds = tuple(kind for _, kind in columns)
        head = re.escape(f"{name} ({', '.join(col for col, _ in columns)}) VALUES (")
        values = ", ".join(map(_pattern, kinds))
        row = f"_new({ROW_TYPES[table].__name__}, ({'{}, ' * len(kinds)}))"
        inserts.append(_Form(head + values + r"\);", kinds, f"_new(InsertRow, ({table!r}, {row}))"))
        keys = tuple(dict(columns)[col] for col in PRIMARY_KEYS[table])
        where = " AND ".join(f"{col} = {_pattern(kind)}" for col, kind in zip(PRIMARY_KEYS[table], keys))
        if table in DELETABLE_TABLES:
            deletes.append(_Form(f"{name} WHERE {where};", keys, _keyed("DeleteRow", table, len(keys))))
        if ("block_hash", "hash?") in columns:
            nulled = f"{name} SET block_hash = NULL WHERE {where};"
            updates.append(_Form(nulled, keys, _keyed("NullBlockHash", table, len(keys))))
    (key,) = PRIMARY_KEYS["addresses"]
    kind = dict(SCHEMA["addresses"])[key]
    balance = f"{SQL_TABLE_NAMES['addresses']} SET eth_balance = eth_balance {_pattern('sign')} ([0-9]+)"
    balance += f" WHERE {key} = {_pattern(kind)};"
    updates.append(_Form(balance, ("sign", "int", kind), "_new(UpdateBalance, ({2}, {0} * {1}))"))
    return {
        "INSERT INTO ": inserts,
        "DELETE FROM ": deletes,
        "UPDATE ": updates,
        "": [_Form("BEGIN;"), _Form("COMMIT;"), _Form("--[^\n]*")],
    }


# What a builder's source names: the record classes and row types,
# ``tuple.__new__``, which builds either without a Python-level call, and each
# value kind's converter as ``_<kind>``.
_BUILD_GLOBALS = {
    "__name__": __name__,
    "_new": tuple.__new__,
    **{cls.__name__: cls for cls in (InsertRow, DeleteRow, NullBlockHash, UpdateBalance, *ROW_TYPES.values())},
    **{f"_{kind}": convert for kind, (_, convert) in _VALUE_FORMS.items()},
}


def _builder(form: _Form, first: int) -> Callable[[re.Match], Mutation]:
    """The form's record straight from a match whose groups ``first``,
    ``first + 1``, ... hold its value texts: one function compiled from
    source that reads only those groups and tests for NULL only where the
    value may be NULL."""
    texts = [f"v{i}" for i in range(len(form.kinds))]
    values = [
        f"None if {text} is None else _{kind[:-1]}({text})" if kind.endswith("?") else f"_{kind}({text})"
        for text, kind in zip(texts, form.kinds)
    ]
    groups = ", ".join(str(first + i) for i in range(len(texts)))  # one group's text, or several's tuple
    source = f"def build(m):\n    {', '.join(texts)} = m.group({groups})\n    return {form.record.format(*values)}\n"
    built: dict = {}
    exec(source, _BUILD_GLOBALS, built)
    return built["build"]


def _compile_forms() -> tuple[re.Pattern, dict[int, Callable | None], dict[int, _Form]]:
    """One alternation of every form, each wrapped in a group, then the
    whitespace up to the next statement. A match's ``lastindex`` is the
    matched form's group (it closes after the groups inside it, which hold
    its values): it maps to the form's builder (None for BEGIN, COMMIT and
    comment lines) and to the form."""
    alternatives = []
    builders: dict[int, Callable | None] = {}
    forms: dict[int, _Form] = {}
    group = 0
    for head, members in _forms().items():
        branches = []
        for form in members:
            group += 1
            assert re.compile(form.pattern).groups == len(form.kinds), form.pattern
            builders[group] = None if form.record is None else _builder(form, group + 1)
            forms[group] = form
            branches.append(f"({form.pattern})")
            group += len(form.kinds)
        alternatives.append(re.escape(head) + "(?:" + "|".join(branches) + ")")
    return re.compile("(?:" + "|".join(alternatives) + r")[ \t\n\r\f\v]*"), builders, forms


_RENDERED_RE, _BUILDERS, _RENDERED_FORMS = _compile_forms()

_TABLE_NAMES = frozenset(SQL_TABLE_NAMES.values())
# A statement head and the table it names, read only to word the error where
# no form matches (a script's leading whitespace, which no form takes, too).
_HEAD_RE = re.compile(r"\s*(?:(?:INSERT INTO|DELETE FROM|UPDATE) (\w+)|BEGIN|COMMIT|--)")


def _refusal(script: str, pos: int, reason: str | None = None) -> SqlParseError:
    """The error for the text at ``pos``: its line, why it was refused, and
    its first 80 characters."""
    if reason is None:
        head = _HEAD_RE.match(script, pos)
        if head is None:
            reason = "unsupported statement"
        elif head.group(1) is not None and head.group(1) not in _TABLE_NAMES:
            reason = f"unknown table {head.group(1)!r}"
        else:
            reason = "not in the rendered form"
    line = script.count("\n", 0, pos) + 1
    return SqlParseError(f"line {line}: {reason}: {script[pos : pos + 80]!r}")


def _too_long(m: re.Match) -> str | None:
    """Why the values of a matched statement did not convert, when an integer
    was too long (more digits than ``sys.get_int_max_str_digits()``)."""
    kinds = _RENDERED_FORMS[m.lastindex].kinds
    for kind, text in zip(kinds, m.groups()[m.lastindex : m.lastindex + len(kinds)]):
        if kind.rstrip("?") == "int" and text is not None:
            try:
                int(text)
            except ValueError:
                return f"integer literal of {len(text)} characters is too long"
    return None


def parse_script(script: str) -> list[Mutation]:
    """The store's mutation records of a script's statements, BEGIN, COMMIT
    and comment lines dropped: one match per statement, and the first text in
    no rendered form is a ``SqlParseError``. An insert's row is its table's
    row type from ``ROW_TYPES``; hex digits are decoded by ``unhexlify``."""
    records: list[Mutation] = []
    append, match, builders = records.append, _RENDERED_RE.match, _BUILDERS
    pos, end = 0, len(script)
    while pos < end:
        m = match(script, pos)
        if m is None:
            raise _refusal(script, pos)
        build = builders[m.lastindex]
        if build is not None:
            try:
                append(build(m))
            except ValueError:  # an odd number of hex digits, or an integer too long to convert
                raise _refusal(script, pos, _too_long(m)) from None
        pos = m.end()
    return records


def to_mutations(records: list[Mutation]) -> list[Mutation]:
    """``records`` itself: ``parse_script`` already gives the store its row
    types. It stays only while ``bench/bench_trace.py`` wraps it as a span."""
    return records


def _key_getter(table: str) -> Callable[[tuple], tuple]:
    """The primary key of a ``table`` row as a plain tuple, read in C: a
    one-column key as a one-item slice, since ``itemgetter`` of one position
    gives the bare value."""
    names = [name for name, _ in SCHEMA[table]]
    positions = [names.index(col) for col in PRIMARY_KEYS[table]]
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


class SqlStubEngine:
    """Executes workload scripts against its own tables: per table, a dict
    from the primary key as a plain tuple to the row."""

    def __init__(self) -> None:
        self.tables: dict[str, dict[tuple, tuple]] = {t: {} for t in SCHEMA}
        self._key_of = {t: _key_getter(t) for t in SCHEMA}

    def execute(self, script: str) -> None:
        """Parse and apply a whole script atomically."""
        statements = parse_script(script)
        undo: list[tuple[dict, tuple, tuple | None]] = []
        try:
            for i, s in enumerate(statements):
                try:
                    undo.append(_APPLY[s.__class__](self, s))
                except SqlParseError as exc:
                    raise SqlParseError(f"statement {i}: {exc}") from exc
        except Exception:
            for table, key, old in reversed(undo):
                if old is None:
                    del table[key]
                else:
                    table[key] = old
            raise

    # Each statement's apply returns its undo record: the table, the key
    # written, and the row it replaced (None for an insert).

    def _insert(self, s: InsertRow) -> tuple[dict, tuple, None]:
        table = self.tables[s.table]
        key = self._key_of[s.table](s.row)
        if key in table:
            raise SqlParseError(f"{s.table}: duplicate key {key!r}")
        table[key] = s.row
        return table, key, None

    def _update_balance(self, s: UpdateBalance) -> tuple[dict, tuple, tuple]:
        table, key = self.tables["addresses"], (s.address,)
        old = table.get(key)
        if old is None:
            raise SqlParseError("addresses: no row to update")
        balance = old[1] + s.delta
        if not 0 <= balance < WEI_MAX:
            raise SqlParseError("addresses: balance out of range")
        table[key] = (old[0], balance)
        return table, key, old

    def _delete(self, s: DeleteRow) -> tuple[dict, tuple, tuple]:
        table = self.tables[s.table]
        if s.key not in table:
            raise SqlParseError(f"{s.table}: no such row {s.key!r}")
        return table, s.key, table.pop(s.key)

    def _null_out(self, s: NullBlockHash) -> tuple[dict, tuple, tuple]:
        table = self.tables[s.table]
        old = table.get(s.key)
        if old is None:
            raise SqlParseError(f"{s.table}: no such row {s.key!r}")
        # Only tables whose block_hash may be NULL have a NULL-out form, and
        # only inserts and null-outs write their rows, which are typed.
        table[s.key] = old._replace(block_hash=None)
        return table, s.key, old

    def table_multisets(self) -> dict[str, dict[tuple, int]]:
        out: dict[str, dict[tuple, int]] = {}
        for table, rows in self.tables.items():
            counts: dict[tuple, int] = {}
            for row in map(tuple, rows.values()):
                counts[row] = counts.get(row, 0) + 1
            out[table] = counts
        return out


# Record class -> the engine method applying it: the dispatch memstore's
# handlers use, over the engine's own tables.
_APPLY = {
    InsertRow: SqlStubEngine._insert,
    UpdateBalance: SqlStubEngine._update_balance,
    DeleteRow: SqlStubEngine._delete,
    NullBlockHash: SqlStubEngine._null_out,
}
