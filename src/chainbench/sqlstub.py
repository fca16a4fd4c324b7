"""Minimal scripted SQL-text engine for the emitted workload dialect.

Parses exactly the statement shapes the workload renderer produces (INSERT,
balance UPDATE, block_hash NULL-out, keyed DELETE, BEGIN/COMMIT) and applies
them to plain column-tuple tables. It shares no table or index code with the
in-memory store, which is what makes SQL-text replay a meaningful independent
check against structured replay. Each script is applied atomically.

Keyed DELETE and NULL-out must name exactly the table's primary key, so each
resolves with one lookup in the table's key dict; a write to a missing row,
and a balance UPDATE that leaves ``[0, WEI_MAX)``, are refused.

``parse_script`` takes each statement with one anchored ``match``. The
statement forms are built once, per table, from ``SCHEMA``, ``PRIMARY_KEYS``
and ``SQL_TABLE_NAMES`` (never from the renderer's code, so the stub stays an
independent check): the INSERT with the full column list in schema order, the
keyed DELETE and block_hash NULL-out with the WHERE clause fixed by the
primary key, the balance UPDATE, BEGIN, COMMIT and ``--`` comment lines, each
followed by any whitespace. Each form types its positions (hex digits in a
bytea, an optional sign and digits in an integer, ``''`` escapes in text, the
bytea ARRAY) and has one converter per position. Text that no form takes, or
a position whose converter fails (an odd number of hex digits, an integer too
long to convert), is a ``SqlParseError`` that names the line and quotes the
text from there.

The patterns are written unrolled, without the possessive quantifiers and
atomic groups that need Python 3.11, and no input makes them backtrack
through alternative splits.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .chain_model import PRIMARY_KEYS, ROW_TYPES, SCHEMA, SQL_TABLE_NAMES, WEI_MAX
from .memstore import DeleteRow, InsertRow, Mutation, NullBlockHash, UpdateBalance


class SqlParseError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ParsedInsert:
    table: str
    row: tuple  # column values in SCHEMA order


@dataclass(frozen=True, slots=True)
class ParsedBalanceUpdate:
    address: bytes
    delta: int


@dataclass(frozen=True, slots=True)
class ParsedNullOut:
    table: str
    key: tuple


@dataclass(frozen=True, slots=True)
class ParsedDelete:
    table: str
    key: tuple


ParsedStatement = ParsedInsert | ParsedBalanceUpdate | ParsedNullOut | ParsedDelete

# ---------------------------------------------------------------------------
# The statement forms the renderer writes, built once from SCHEMA,
# PRIMARY_KEYS and SQL_TABLE_NAMES (never from the renderer's code).

_BYTEA = r"'\\x[0-9a-fA-F]*'::bytea"
_HEX = r"'\\x([0-9a-fA-F]*)'::bytea"
_ARRAY_ITEM_RE = re.compile(r"'\\x([0-9a-fA-F]*)'")


def _unquote(text: str) -> str:
    return text.replace("''", "'")


def _bytea_array(text: str) -> tuple[bytes, ...]:
    return tuple(bytes.fromhex(h) for h in _ARRAY_ITEM_RE.findall(text))


# Column kind -> (pattern with one group, converter of the group's text).
# Converters raise ValueError on an odd number of hex digits or an integer
# too long to convert.
_VALUE_FORMS = {
    "hash": (_HEX, bytes.fromhex),
    "address": (_HEX, bytes.fromhex),
    "bytes": (_HEX, bytes.fromhex),
    "int": (r"(-?[0-9]+)", int),
    "bool": (r"(TRUE|FALSE)", {"TRUE": True, "FALSE": False}.__getitem__),
    "text": (r"'([^']*(?:''[^']*)*)'", _unquote),
    "sighashes": (rf"(ARRAY\[\]::bytea\[\]|ARRAY\[{_BYTEA}(?:, {_BYTEA})*\])", _bytea_array),
}


def _value_form(kind: str) -> tuple[str, Callable]:
    pattern, convert = _VALUE_FORMS[kind.rstrip("?")]
    if kind.endswith("?"):  # NULL leaves the group unmatched: the value is None
        pattern = f"(?:NULL|{pattern})"
    return pattern, convert


@dataclass(frozen=True)
class _Form:
    """One statement form: its pattern after the head, one converter per
    group, and what the converted values become (None: nothing, for BEGIN,
    COMMIT and comment lines)."""

    pattern: str
    converters: tuple[Callable, ...] = ()
    build: Callable[[list], ParsedStatement] | None = None


def _balance(values: list) -> ParsedBalanceUpdate:
    sign, amount, address = values
    return ParsedBalanceUpdate(address, sign * amount)


def _forms() -> dict[str, list[_Form]]:
    """Statement head -> the forms that start with it."""
    inserts, deletes, updates = [], [], []
    for table, columns in SCHEMA.items():
        name = SQL_TABLE_NAMES[table]
        names = tuple(col for col, _ in columns)
        values = [_value_form(kind) for _, kind in columns]
        inserts.append(
            _Form(
                re.escape(f"{name} ({', '.join(names)}) VALUES (") + ", ".join(p for p, _ in values) + r"\);",
                tuple(c for _, c in values),
                lambda values, table=table: ParsedInsert(table, tuple(values)),
            )
        )
        kinds = dict(columns)
        keys = [(col, *_value_form(kinds[col])) for col in PRIMARY_KEYS[table]]
        where = " AND ".join(f"{col} = {p}" for col, p, _ in keys) + ";"
        converters = tuple(c for _, _, c in keys)
        deletes.append(
            _Form(f"{name} WHERE {where}", converters, lambda values, table=table: ParsedDelete(table, tuple(values)))
        )
        updates.append(
            _Form(
                f"{name} SET block_hash = NULL WHERE {where}",
                converters,
                lambda values, table=table: ParsedNullOut(table, tuple(values)),
            )
        )
    (key,) = PRIMARY_KEYS["addresses"]
    key_pattern, key_converter = _value_form(dict(SCHEMA["addresses"])[key])
    updates.append(
        _Form(
            f"{SQL_TABLE_NAMES['addresses']} SET eth_balance = eth_balance ([+-]) ([0-9]+) WHERE {key} = {key_pattern};",
            ({"+": 1, "-": -1}.__getitem__, int, key_converter),
            _balance,
        )
    )
    return {
        "INSERT INTO ": inserts,
        "DELETE FROM ": deletes,
        "UPDATE ": updates,
        "": [_Form("BEGIN;"), _Form("COMMIT;"), _Form("--[^\n]*")],
    }


def _compile_forms() -> tuple[re.Pattern, dict[int, tuple[_Form, int, int]]]:
    """One alternation of every form, each wrapped in a group, then the
    whitespace up to the next statement. A match's ``lastindex`` is the
    matched form's group (it closes after the groups inside it), which maps
    to the form and the slice of ``groups()`` holding its values."""
    alternatives = []
    forms: dict[int, tuple[_Form, int, int]] = {}
    group = 0
    for head, members in _forms().items():
        branches = []
        for form in members:
            group += 1
            inner = re.compile(form.pattern).groups
            assert inner == len(form.converters), form.pattern
            forms[group] = (form, group, group + inner)
            branches.append(f"({form.pattern})")
            group += inner
        alternatives.append(re.escape(head) + "(?:" + "|".join(branches) + ")")
    return re.compile("(?:" + "|".join(alternatives) + r")[ \t\n\r\f\v]*"), forms


_RENDERED_RE, _RENDERED_FORMS = _compile_forms()

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


def _too_long(converters: tuple[Callable, ...], texts: tuple) -> str | None:
    """Why a statement's values did not convert, when an integer was too long
    (more digits than ``sys.get_int_max_str_digits()``)."""
    for convert, text in zip(converters, texts):
        if convert is int and text is not None:
            try:
                int(text)
            except ValueError:
                return f"integer literal of {len(text)} characters is too long"
    return None


def parse_script(script: str) -> list[ParsedStatement]:
    """Parsed statements of a script, BEGIN, COMMIT and comment lines
    dropped: one match per statement, and the first text in no rendered form
    is a ``SqlParseError``."""
    parsed: list[ParsedStatement] = []
    pos, end = 0, len(script)
    while pos < end:
        m = _RENDERED_RE.match(script, pos)
        if m is None:
            raise _refusal(script, pos)
        form, first, stop = _RENDERED_FORMS[m.lastindex]
        if form.build is not None:
            texts = m.groups()[first:stop]
            try:
                values = [None if text is None else convert(text) for convert, text in zip(form.converters, texts)]
            except ValueError:  # an odd number of hex digits, or an integer too long to convert
                raise _refusal(script, pos, _too_long(form.converters, texts)) from None
            parsed.append(form.build(values))
        pos = m.end()
    return parsed


def to_mutations(statements: list[ParsedStatement]) -> list[Mutation]:
    """Recover structured mutations from parsed SQL for store-backed targets."""
    ops: list[Mutation] = []
    for s in statements:
        if isinstance(s, ParsedInsert):
            ops.append(InsertRow(s.table, tuple.__new__(ROW_TYPES[s.table], s.row)))
        elif isinstance(s, ParsedBalanceUpdate):
            ops.append(UpdateBalance(s.address, s.delta))
        elif isinstance(s, ParsedNullOut):
            ops.append(NullBlockHash(s.table, s.key))
        elif isinstance(s, ParsedDelete):
            ops.append(DeleteRow(s.table, s.key))
    return ops


class SqlStubEngine:
    """Executes workload scripts against plain column-tuple tables."""

    def __init__(self) -> None:
        self.tables: dict[str, dict[tuple, tuple]] = {t: {} for t in SCHEMA}
        self._key_pos = {
            t: [[name for name, _ in cols].index(c) for c in PRIMARY_KEYS[t]] for t, cols in SCHEMA.items()
        }
        # Tables whose rows may lose their creating block: position of the
        # nullable block_hash column.
        self._nullable_block_hash = {
            t: i
            for t, cols in SCHEMA.items()
            for i, (name, kind) in enumerate(cols)
            if (name, kind) == ("block_hash", "hash?")
        }

    def execute(self, script: str) -> None:
        """Parse and apply a whole script atomically."""
        statements = parse_script(script)
        undo: list[tuple[dict, tuple, tuple | None]] = []
        try:
            for i, s in enumerate(statements):
                try:
                    undo.append(self._apply(s))
                except SqlParseError as exc:
                    raise SqlParseError(f"statement {i}: {exc}") from exc
        except Exception:
            for table, key, old in reversed(undo):
                if old is None:
                    del table[key]
                else:
                    table[key] = old
            raise

    def _apply(self, s: ParsedStatement) -> tuple[dict, tuple, tuple | None]:
        """Apply one statement; returns its undo record: the table, the key
        written, and the row it replaced (None for an insert)."""
        if isinstance(s, ParsedInsert):
            table = self.tables[s.table]
            key = tuple(s.row[i] for i in self._key_pos[s.table])
            if key in table:
                raise SqlParseError(f"{s.table}: duplicate key {key!r}")
            table[key] = s.row
            return table, key, None
        if isinstance(s, ParsedBalanceUpdate):
            table, key = self.tables["addresses"], (s.address,)
            old = table.get(key)
            if old is None:
                raise SqlParseError("addresses: no row to update")
            balance = old[1] + s.delta
            if not 0 <= balance < WEI_MAX:
                raise SqlParseError("addresses: balance out of range")
            table[key] = (old[0], balance)
            return table, key, old
        if isinstance(s, (ParsedNullOut, ParsedDelete)):
            table = self.tables[s.table]
            old = table.get(s.key)
            if old is None:
                raise SqlParseError(f"{s.table}: no such row {s.key!r}")
            if isinstance(s, ParsedDelete):
                del table[s.key]
            else:
                bh = self._nullable_block_hash.get(s.table)
                if bh is None:
                    raise SqlParseError(f"{s.table}: block_hash is not nullable")
                table[s.key] = old[:bh] + (None,) + old[bh + 1 :]
            return table, s.key, old
        raise SqlParseError(f"unknown statement type {type(s).__name__}")

    def table_multisets(self) -> dict[str, dict[tuple, int]]:
        out: dict[str, dict[tuple, int]] = {}
        for table, rows in self.tables.items():
            counts: dict[tuple, int] = {}
            for row in rows.values():
                counts[row] = counts.get(row, 0) + 1
            out[table] = counts
        return out
