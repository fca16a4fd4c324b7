"""Minimal scripted SQL-text engine for the emitted workload dialect.

Parses exactly the statement shapes the workload renderer produces (INSERT,
balance UPDATE, block_hash NULL-out, keyed DELETE, BEGIN/COMMIT) and applies
them to plain column-tuple tables. It shares no table or index code with the
in-memory store, which is what makes SQL-text replay a meaningful independent
check against structured replay. Each script is applied atomically.

Keyed DELETE and NULL-out must name exactly the table's primary key, so each
resolves with one lookup in the table's key dict; a write to a missing row,
and a balance UPDATE that leaves ``[0, WEI_MAX)``, are refused.

``parse_script`` reads a script in two tiers.

The compiled tier takes the statements in the form the renderer writes, one
anchored ``match`` each. Its patterns are built once, per table, from
``SCHEMA``, ``PRIMARY_KEYS`` and ``SQL_TABLE_NAMES`` (never from the
renderer's code, so the stub stays an independent check): the INSERT with the
full column list, the keyed DELETE and block_hash NULL-out with the WHERE
clause fixed by the primary key, the balance UPDATE, BEGIN, COMMIT and ``--``
comment lines. Each pattern types its positions (hex digits in a bytea, an
optional sign and digits in an integer, ``''`` escapes in text) and has one
converter per position. The tier never raises: at the first position no
pattern takes, or where a converter fails (an odd number of hex digits, an
integer too long to convert), it stops.

The general tier parses the rest of the script from there, and only it
decides errors. It takes one regex pass per statement. One compiled statement
regex cuts the text at top-level semicolons (string literals with ``''``
escapes and ``--`` comments, which start only outside literals, are matched
whole), and one ``findall`` of a value regex turns an INSERT's VALUES list
into typed values. A list not in the form the renderer writes is parsed
again item by item with ``parse_literal``, which gives the same result or
error as the earlier two-pass parser, but for ARRAY literals. That path also
accepts a few value shapes the renderer never writes, such as whitespace
before ``::bytea`` or inside ARRAY brackets. An ARRAY is either the empty
``ARRAY[]::bytea[]`` or a non-empty list of bytea items with nothing after
its closing bracket; a bare ``ARRAY[]``, a non-bytea item, a trailing comma
or trailing text is refused, where the two-pass parser took them.

The compiled tier consumes only whole statements, each up to its top-level
semicolon, and whole comment lines, and what it returns for a statement is
what the general tier returns for it. So ``parse_script`` gives the general
tier's result, or its error type and message, on every input.

The patterns are written unrolled, without the possessive quantifiers and
atomic groups that need Python 3.11, and no input makes them backtrack
through alternative splits.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable

from .chain_model import PRIMARY_KEYS, ROW_TYPES, SCHEMA, SQL_TABLE_NAMES, WEI_MAX
from .memstore import DeleteRow, InsertRow, Mutation, NullBlockHash, UpdateBalance

_TABLE_BY_SQL_NAME = {sql.lower(): table for table, sql in SQL_TABLE_NAMES.items()}


class SqlParseError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedInsert:
    table: str
    values: dict[str, object]


@dataclass(frozen=True)
class ParsedBalanceUpdate:
    address: bytes
    delta: int


@dataclass(frozen=True)
class ParsedNullOut:
    table: str
    key: tuple


@dataclass(frozen=True)
class ParsedDelete:
    table: str
    key: tuple


ParsedStatement = ParsedInsert | ParsedBalanceUpdate | ParsedNullOut | ParsedDelete

# One token per match: a whole single-quoted literal (with '' escapes), a --
# comment, a separator or bracket, or a run of anything else. A lone quote is
# a literal that never closes. The (?!') keeps a literal from ending between
# the two quotes of an escape. Only the item-by-item parse of values outside
# the rendered form (``_split_top_level``) still tokenizes.
_TOKEN_RE = re.compile(r"'[^']*(?:''[^']*)*'(?!')|--[^\n]*|[;,()\[\]]|[^';,()\[\]-]+|-|'")

# A string literal with '' escapes; (?!') makes its end unique, so "'a''b'"
# is one literal and never two adjacent ones.
_LITERAL = r"'[^']*(?:''[^']*)*'(?!')"
# A comment runs to the end of its line; a lone - is text.
_COMMENT = r"--[^\n]*(?![^\n])"
# One statement body, then what ended it: ';', a quote that opens no literal,
# or the end of the script. Written unrolled (text, then any number of
# literal/comment/dash items each followed by text): every item starts with a
# character the text runs exclude, so each body has one match and a failure
# cannot backtrack through alternative splits.
_STATEMENT_RE = re.compile(
    rf"([^';-]*(?:(?:{_LITERAL}|{_COMMENT}|-(?!-))[^';-]*)*)(;|'|\Z)"
)
# Literals (kept) and comments (dropped) in a statement body.
_COMMENT_RE = re.compile(rf"({_LITERAL})|{_COMMENT}")


def split_statements(script: str) -> list[str]:
    """Split on top-level semicolons; ``--`` starts a comment only outside
    string literals."""
    statements: list[str] = []
    for body, end in _STATEMENT_RE.findall(script):
        if "--" in body:
            body = _COMMENT_RE.sub(r"\1", body)
        stmt = body.strip()
        if end == ";":
            if stmt:
                statements.append(stmt)
        elif end:
            raise SqlParseError(f"unterminated statement: string literal never closes in {stmt[:60]!r}")
        elif stmt:
            raise SqlParseError(f"unterminated statement: {stmt[:60]!r}")
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


def _parse_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts (sys.get_int_max_str_digits)
        raise SqlParseError(f"integer literal of {len(digits)} characters is too long") from None


def parse_literal(token: str):
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
        return _parse_int(token)
    if token in _KEYWORDS:
        return _KEYWORDS[token]
    if token.startswith("ARRAY") and "[" in token and "]" in token:
        if token == "ARRAY[]::bytea[]":
            return ()
        # Items first, so an item's error reads as the two-pass parser's did;
        # then the shape: ARRAY [ one or more bytea items ], with no comma
        # after the last item and nothing after the closing bracket.
        head, inner = token[: token.index("[")], token[token.index("[") + 1 : token.rindex("]")]
        items = tuple(parse_literal(item) for item in _split_top_level(inner))
        shaped = head.rstrip() == "ARRAY" and token[-1] == "]" and not inner.rstrip().endswith(",")
        if not shaped or not items or any(type(item) is not bytes for item in items):
            raise SqlParseError(f"bad bytea array literal: {token!r}")
        return items
    raise SqlParseError(f"cannot parse literal: {token!r}")


_BYTEA = r"'\\x[0-9a-fA-F]*'::bytea"
# One VALUES item in the form the renderer writes, with the comma after it:
# bytea, text, integer, keyword, or a bytea ARRAY. The bytea and text groups
# keep their quotes, so an empty value still reads as matched. Anything else
# matches the last group, which sends the whole list to the item-by-item
# parse and its error messages.
_VALUE_RE = re.compile(
    rf"""\s*(?:
        ({_BYTEA})
      | ({_LITERAL})
      | (-?\d+)
      | (NULL|TRUE|FALSE)
      | (ARRAY\[\]::bytea\[\] | ARRAY\[{_BYTEA}(?:\s*,\s*{_BYTEA})*\])
    )\s*(?:,|\Z)
    | (.+)""",
    re.S | re.X,
)
_ARRAY_ITEM_RE = re.compile(r"'\\x([0-9a-fA-F]*)'")


def _unquote(text: str) -> str:
    return text.replace("''", "'")


def _bytea_array(text: str) -> tuple[bytes, ...]:
    return tuple(bytes.fromhex(h) for h in _ARRAY_ITEM_RE.findall(text))


def _insert_values(text: str) -> list | None:
    """Typed values of an INSERT's VALUES list in one regex pass, or None when
    the list is not in the form the renderer writes."""
    values: list = []
    try:
        for bytea, string, number, keyword, array, other in _VALUE_RE.findall(text):
            if bytea:
                values.append(bytes.fromhex(bytea[3:-8]))
            elif number:
                values.append(int(number))
            elif string:
                values.append(_unquote(string[1:-1]))
            elif keyword:
                values.append(_KEYWORDS[keyword])
            elif array:
                values.append(_bytea_array(array))
            else:
                return None
    except ValueError:  # an odd number of hex digits, or an int too long to convert
        return None
    return values


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
        conditions[col] = parse_literal(lit)
    return conditions


def primary_key(table: str, conditions: dict[str, object]) -> tuple:
    """The key tuple a keyed write names, in ``PRIMARY_KEYS`` order; the WHERE
    clause must name exactly the table's primary-key columns."""
    columns = PRIMARY_KEYS[table]
    if conditions.keys() != set(columns):
        raise SqlParseError(
            f"{table}: WHERE must name exactly the primary key {columns}, got {tuple(conditions)}"
        )
    return tuple(conditions[col] for col in columns)


@functools.lru_cache(maxsize=64)
def _column_names(text: str) -> tuple[str, ...]:
    # Every INSERT into a table names the same columns, so this is a lookup.
    return tuple(c.strip() for c in text.split(","))


def parse_statement(stmt: str) -> ParsedStatement | None:
    """Parse one statement; BEGIN/COMMIT yield None."""
    flat = stmt.strip()
    m = _INSERT_RE.match(flat)
    if m:
        table = _table_of(m.group(1))
        names = _column_names(m.group(2))
        values = _insert_values(m.group(3))
        if values is None:  # not the rendered form: item by item, for the errors
            values = _split_top_level(m.group(3))
            if len(names) == len(values):
                values = [parse_literal(v) for v in values]
        if len(names) != len(values):
            raise SqlParseError(f"column/value arity mismatch in {flat[:60]!r}")
        return ParsedInsert(table, dict(zip(names, values)))
    if flat.upper() in ("BEGIN", "COMMIT"):
        return None
    m = _BALANCE_RE.match(flat)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        (address,) = primary_key("addresses", _parse_conditions(m.group(3)))
        return ParsedBalanceUpdate(address, sign * _parse_int(m.group(2)))
    m = _NULLOUT_RE.match(flat)
    if m:
        table = _table_of(m.group(1))
        return ParsedNullOut(table, primary_key(table, _parse_conditions(m.group(2))))
    m = _DELETE_RE.match(flat)
    if m:
        table = _table_of(m.group(1))
        return ParsedDelete(table, primary_key(table, _parse_conditions(m.group(2))))
    raise SqlParseError(f"unsupported statement: {flat[:80]!r}")


# ---------------------------------------------------------------------------
# Compiled tier: the statement forms the renderer writes, built once from
# SCHEMA, PRIMARY_KEYS and SQL_TABLE_NAMES (never from the renderer's code).

_HEX = r"'\\x([0-9a-fA-F]*)'::bytea"


# Column kind -> (pattern with one group, converter of the group's text).
# Converters raise ValueError on an odd number of hex digits or an integer
# too long to convert; the general tier then decides.
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
    if kind.endswith("?"):  # NULL leaves the group unmatched
        return f"(?:NULL|{pattern})", lambda text: None if text is None else convert(text)
    return pattern, convert


@dataclass(frozen=True)
class _Form:
    """One statement form: its pattern after the head, one converter per
    group, and what the converted values become (None: nothing, for BEGIN,
    COMMIT and comment lines)."""

    pattern: str
    converters: tuple[Callable, ...] = ()
    build: Callable[[list], ParsedStatement] | None = None


def _insert(table: str, names: tuple[str, ...], values: list) -> ParsedInsert:
    return ParsedInsert(table, dict(zip(names, values)))


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
                functools.partial(_insert, table, names),
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


def parse_script(script: str) -> list[ParsedStatement]:
    """Parsed statements of a script, BEGIN/COMMIT dropped: the compiled tier
    takes rendered statements one match each, and the general tier parses
    the rest of the script from the first position the compiled tier stops."""
    parsed: list[ParsedStatement] = []
    pos, end = 0, len(script)
    while pos < end:
        m = _RENDERED_RE.match(script, pos)
        if m is None:
            break
        form, first, stop = _RENDERED_FORMS[m.lastindex]
        if form.build is not None:
            try:
                values = [convert(text) for convert, text in zip(form.converters, m.groups()[first:stop])]
            except ValueError:  # odd hex digits, or an int too long: the general tier decides
                break
            parsed.append(form.build(values))
        pos = m.end()
    if pos < end:
        for stmt in split_statements(script[pos:]):
            p = parse_statement(stmt)
            if p is not None:
                parsed.append(p)
    return parsed


def to_mutations(statements: list[ParsedStatement]) -> list[Mutation]:
    """Recover structured mutations from parsed SQL for store-backed targets."""
    ops: list[Mutation] = []
    for s in statements:
        if isinstance(s, ParsedInsert):
            ops.append(InsertRow(s.table, ROW_TYPES[s.table](**s.values)))
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
        self._columns = {t: [name for name, _ in cols] for t, cols in SCHEMA.items()}
        self._key_pos = {
            t: [self._columns[t].index(c) for c in PRIMARY_KEYS[t]] for t in SCHEMA
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
        undo: list = []
        try:
            for i, s in enumerate(statements):
                try:
                    undo.append(self._apply(s))
                except SqlParseError as exc:
                    raise SqlParseError(f"statement {i}: {exc}") from exc
        except Exception:
            for action in reversed(undo):
                action()
            raise

    def _key_of(self, table: str, row: tuple) -> tuple:
        return tuple(row[i] for i in self._key_pos[table])

    def _apply(self, s: ParsedStatement):
        if isinstance(s, ParsedInsert):
            row = tuple(s.values[c] for c in self._columns[s.table])
            key = self._key_of(s.table, row)
            if key in self.tables[s.table]:
                raise SqlParseError(f"{s.table}: duplicate key {key!r}")
            self.tables[s.table][key] = row
            return lambda: self.tables[s.table].pop(key)
        if isinstance(s, ParsedBalanceUpdate):
            key = (s.address,)
            old = self.tables["addresses"].get(key)
            if old is None:
                raise SqlParseError("addresses: no row to update")
            balance = old[1] + s.delta
            if not 0 <= balance < WEI_MAX:
                raise SqlParseError("addresses: balance out of range")
            self.tables["addresses"][key] = (old[0], balance)

            def undo_balance(old=old, key=key):
                self.tables["addresses"][key] = old

            return undo_balance
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

            def undo_keyed(old=old, key=s.key, table=table):
                table[key] = old

            return undo_keyed
        raise SqlParseError(f"unknown statement type {type(s).__name__}")

    def table_multisets(self) -> dict[str, dict[tuple, int]]:
        out: dict[str, dict[tuple, int]] = {}
        for table, rows in self.tables.items():
            counts: dict[tuple, int] = {}
            for row in rows.values():
                counts[row] = counts.get(row, 0) + 1
            out[table] = counts
        return out
