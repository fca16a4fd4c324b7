import ast
import dataclasses
import functools
import re
import sys
import tempfile
import time
import types
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from chainbench import memstore, sqlstub, workload_gen
from chainbench.chain_model import (
    DELETABLE_TABLES,
    PRIMARY_KEYS,
    ROW_TYPES,
    SCHEMA,
    SQL_TABLE_NAMES,
    WEI_MAX,
    AddressRow,
)
from chainbench.memstore import BatchRejected, DeleteRow, InsertRow, NullBlockHash, Store, UpdateBalance
from chainbench.replay_driver import MemstoreTarget, ReplayError, SqlStubTarget, replay
from chainbench.sqlstub import SqlParseError, SqlStubEngine, parse_script, to_mutations
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import (
    Batch,
    WorkloadConfig,
    gen_batches,
    gen_initial,
    render_sql,
    write_workload,
)
from util import read_scripts, reference_statement, two_pass_parse_script


def test_unsupported_statement_rejected():
    with pytest.raises(SqlParseError, match="unsupported statement"):
        parse_script("SELECT 1;")


def test_script_application_is_atomic():
    engine = SqlStubEngine()
    good = (
        "BEGIN;\n"
        "INSERT INTO Addresses (address, eth_balance) VALUES ('\\x" + "01" * 20 + "'::bytea, 5);\n"
        "COMMIT;\n"
    )
    engine.execute(good)
    dup = (
        "BEGIN;\n"
        "INSERT INTO Addresses (address, eth_balance) VALUES ('\\x" + "02" * 20 + "'::bytea, 1);\n"
        "INSERT INTO Addresses (address, eth_balance) VALUES ('\\x" + "01" * 20 + "'::bytea, 9);\n"
        "COMMIT;\n"
    )
    # BEGIN/COMMIT are dropped at parse time, so the duplicate is statement 1.
    with pytest.raises(SqlParseError, match="statement 1.*duplicate"):
        engine.execute(dup)
    multis = engine.table_multisets()
    assert sum(multis["addresses"].values()) == 1  # the failed script left nothing behind


@pytest.mark.parametrize("seed,expire", [(101, False), (102, True)])
def test_sql_text_equals_structured_replay(seed, expire):
    ds = generate(SynthConfig(seed=seed, n_blocks=50, mean_tx_per_block=10, address_pool=50, n_tokens=6))
    cfg = WorkloadConfig(init_blocks=25, granularity=5, expire=expire)
    load = gen_initial(ds, cfg)
    pairs, _ = gen_batches(ds, cfg)

    store = Store()
    engine = SqlStubEngine()
    memstore.apply(store, load)
    engine.execute(render_sql(load))
    for pair in pairs:
        if pair.expire is not None:
            memstore.apply(store, pair.expire)
            engine.execute(render_sql(pair.expire))
        memstore.apply(store, pair.upsert)
        engine.execute(render_sql(pair.upsert))
        assert store.table_multisets() == engine.table_multisets()


def test_to_mutations_round_trip():
    ds = generate(SynthConfig(seed=103, n_blocks=30, mean_tx_per_block=8, address_pool=40, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=15, granularity=5, expire=True)
    load = gen_initial(ds, cfg)
    pairs, _ = gen_batches(ds, cfg)

    direct = Store()
    via_sql = Store()
    for batch in [load] + [b for p in pairs for b in (p.expire, p.upsert) if b is not None]:
        memstore.apply_ops(direct, batch.ops)
        memstore.apply_ops(via_sql, to_mutations(parse_script(render_sql(batch))))
    assert direct.table_multisets() == via_sql.table_multisets()
    assert direct.balances == via_sql.balances


ADDR = "'\\x" + "ab" * 20 + "'::bytea"
HASH = "'\\x" + "cd" * 32 + "'::bytea"


def _insert_head(table: str) -> str:
    """The head of a rendered INSERT: the full column list, in SCHEMA order."""
    return f"INSERT INTO {SQL_TABLE_NAMES[table]} ({', '.join(col for col, _ in SCHEMA[table])}) VALUES ("


# A rendered Tokens row before its text columns, and after them.
_TOKEN_HEAD = _insert_head("tokens") + ADDR + ", "
_TOKEN_TAIL = ", 18, 1000, NULL);"
_TOKEN_ROW = _TOKEN_HEAD + "'SYM', 'name'" + _TOKEN_TAIL


@pytest.mark.parametrize(
    "fn,text,match",
    [
        (parse_script, "BEGIN;\nCOMMIT", "line 2: not in the rendered form: 'COMMIT'"),
        *(
            pytest.param(parse_script, text, match, id=f"parse_script-{name}-{match}")
            for name, text, match in [
                ("semicolon-in-open-literal", _TOKEN_HEAD + "'a;b', 'c);\n", "line 1: not in the rendered form"),
                ("open-literal", "BEGIN;\n" + _TOKEN_HEAD + "'abc" + _TOKEN_TAIL, "line 2: not in the rendered form"),
                ("open-escape", "BEGIN;\n" + _TOKEN_HEAD + "'a'', 'b'" + _TOKEN_TAIL, "line 2: not in the rendered form"),
                ("bytea-without-x", _insert_head("tokens") + "'01'::bytea, 'a', 'b'" + _TOKEN_TAIL, "not in the rendered form"),
                ("non-hex-bytea", _insert_head("tokens") + "'\\xzz'::bytea, 'a', 'b'" + _TOKEN_TAIL, "not in the rendered form"),
                ("odd-hex-bytea", _insert_head("tokens") + "'\\x0'::bytea, 'a', 'b'" + _TOKEN_TAIL, "not in the rendered form"),
                ("text-suffix", _TOKEN_HEAD + "'abc'::text, 'b'" + _TOKEN_TAIL, "not in the rendered form"),
                ("bare-word", _TOKEN_HEAD + "abc, 'b'" + _TOKEN_TAIL, "not in the rendered form"),
                ("partial-columns", "INSERT INTO Addresses (address) VALUES (" + ADDR + ", 5);", "not in the rendered form"),
            ]
        ),
        (parse_script, "INSERT INTO Nowhere (a) VALUES (1);", "unknown table"),
        (parse_script, "SELECT 1;", "unsupported statement"),
    ],
)
def test_parse_errors(fn, text, match):
    with pytest.raises(SqlParseError, match=match):
        fn(text)


def test_comment_marker_inside_a_string_literal_is_text():
    script = (
        "-- header; with semicolon\n"
        "BEGIN;\n"
        + _TOKEN_HEAD + "'a\n-- b;', 'name'" + _TOKEN_TAIL + "\n"
        "COMMIT; -- trailing\n"
    )
    (token,) = parse_script(script)
    assert token.row[1:3] == ("a\n-- b;", "name")

    ds = generate(SynthConfig(seed=104, n_blocks=10, mean_tx_per_block=4, address_pool=20, n_tokens=3))
    load = gen_initial(ds, WorkloadConfig(init_blocks=10, granularity=1))
    ops = tuple(
        InsertRow(op.table, op.row._replace(symbol="a\n-- b")) if op.table == "tokens" else op
        for op in load.ops
    )
    assert any(op.table == "tokens" for op in ops if isinstance(op, InsertRow))
    batch = dataclasses.replace(load, ops=ops)
    assert to_mutations(parse_script(render_sql(batch))) == list(ops)
    SqlStubEngine().execute(render_sql(batch))


@pytest.mark.parametrize(
    "script",
    [
        "UPDATE Tokens SET block_hash = NULL WHERE name = 'x';",
        "UPDATE Contracts SET block_hash = NULL WHERE address = " + ADDR + ";",
        "UPDATE Tokens SET block_hash = NULL WHERE address = " + ADDR + " AND name = 'x';",
        "DELETE FROM Withdrawals WHERE hash = " + HASH + ";",
        "DELETE FROM Blocks WHERE hash = " + HASH + " AND hash = " + HASH + ";",
        "DELETE FROM Blocks WHERE number = 3;",
        "UPDATE Addresses SET eth_balance = eth_balance + 1 WHERE eth_balance = 0;",
    ],
)
def test_keyed_writes_must_name_exactly_the_primary_key(script):
    with pytest.raises(SqlParseError, match="line 1: not in the rendered form"):
        parse_script(script)
    with pytest.raises(SqlParseError):
        SqlStubEngine().execute(script)
    with pytest.raises(ReplayError):
        MemstoreTarget().apply_script("bad.sql", script)


@pytest.fixture(scope="module")
def loaded_workload():
    ds = generate(SynthConfig(seed=105, n_blocks=30, mean_tx_per_block=8, address_pool=30, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=15, granularity=5, expire=True)
    return gen_initial(ds, cfg), gen_batches(ds, cfg)[0]


_MISSING_KEYS = {
    "blocks": (b"\xee" * 32,),
    "transactions": (b"\xee" * 32,),
    "token_transactions": (b"\xee" * 32, 0),
    "withdrawals": (b"\xee" * 32, 0),
    "tokens": (b"\xee" * 20,),
    "contracts": (b"\xee" * 20, 0),
}


@pytest.mark.parametrize("table", sorted(_MISSING_KEYS))
def test_both_routes_refuse_a_keyed_write_to_a_missing_row_at_the_same_index(loaded_workload, table):
    load, _ = loaded_workload
    op = NullBlockHash if table in ("tokens", "contracts") else DeleteRow
    ops = (InsertRow("addresses", AddressRow(b"\xee" * 20, 0)), op(table, _MISSING_KEYS[table]))
    script = render_sql(Batch(1, "expire", 0, 0, ops))

    engine = SqlStubEngine()
    engine.execute(render_sql(load))
    before = engine.table_multisets()
    with pytest.raises(SqlParseError, match=f"statement 1: {table}: no such row"):
        engine.execute(script)
    assert engine.table_multisets() == before

    store = Store()
    memstore.apply(store, load)
    with pytest.raises(BatchRejected) as rejected:
        memstore.apply_ops(store, to_mutations(parse_script(script)))
    assert rejected.value.op_index == 1
    assert store.table_multisets() == before


def test_both_routes_refuse_a_null_out_of_a_required_block_hash(loaded_workload):
    load, _ = loaded_workload
    tx = next(op.row for op in load.ops if isinstance(op, InsertRow) and op.table == "transactions")
    with pytest.raises(ValueError, match="no NullBlockHash statement for table 'transactions'"):
        render_sql(Batch(1, "expire", 0, 0, (NullBlockHash("transactions", (tx.hash,)),)))
    # Written by hand, the statement is in no rendered form, so both targets refuse its text.
    script = f"BEGIN;\nUPDATE Transactions SET block_hash = NULL WHERE hash = '\\x{tx.hash.hex()}'::bytea;\nCOMMIT;\n"
    stub, structured = SqlStubTarget(), MemstoreTarget()
    stub.apply_script("load.sql", render_sql(load))
    structured.apply_script("load.sql", render_sql(load))
    before = stub.engine.table_multisets()
    for target in (stub, structured):
        with pytest.raises(ReplayError, match="expire.sql: line 2: not in the rendered form"):
            target.apply_script("expire.sql", script)
    assert stub.engine.table_multisets() == before == structured.store.table_multisets()


@pytest.mark.parametrize("table", sorted(set(SCHEMA) - set(DELETABLE_TABLES)))
def test_both_routes_refuse_a_delete_from_a_table_rows_are_never_deleted_from(loaded_workload, table):
    load, _ = loaded_workload
    row = next(op.row for op in load.ops if isinstance(op, InsertRow) and op.table == table)
    key = tuple(getattr(row, col) for col in PRIMARY_KEYS[table])
    with pytest.raises(ValueError, match=f"^no DeleteRow statement for table '{table}'$"):
        render_sql(Batch(1, "expire", 0, 0, (DeleteRow(table, key),)))
    # Written by hand, the statement is in no rendered form, so both targets
    # refuse its text: the stub no longer drops a row others still name.
    script = f"BEGIN;\n{reference_statement(DeleteRow(table, key))}\nCOMMIT;\n"
    stub, structured = SqlStubTarget(), MemstoreTarget()
    stub.apply_script("load.sql", render_sql(load))
    structured.apply_script("load.sql", render_sql(load))
    before = stub.engine.table_multisets()
    for target in (stub, structured):
        with pytest.raises(ReplayError, match="expire.sql: line 2: not in the rendered form"):
            target.apply_script("expire.sql", script)
    assert stub.engine.table_multisets() == before == structured.store.table_multisets()


def test_the_deletable_tables_are_the_stores_delete_handlers():
    assert set(memstore._HANDLERS[DeleteRow]) == set(DELETABLE_TABLES)


@pytest.mark.parametrize("overshoot", ["below zero", "at WEI_MAX"])
def test_both_routes_refuse_a_balance_out_of_range_at_the_same_index(loaded_workload, overshoot):
    load, _ = loaded_workload
    row = next(op.row for op in load.ops if isinstance(op, InsertRow) and op.table == "addresses")
    balance = row.eth_balance + 5
    delta = -(balance + 1) if overshoot == "below zero" else WEI_MAX - balance
    ops = (
        InsertRow("addresses", AddressRow(b"\xee" * 20, 0)),
        UpdateBalance(row.address, 5),
        UpdateBalance(row.address, delta),
    )
    script = render_sql(Batch(1, "upsert", 0, 0, ops))

    engine = SqlStubEngine()
    engine.execute(render_sql(load))
    before = engine.table_multisets()
    with pytest.raises(SqlParseError, match="statement 2: addresses: balance out of range"):
        engine.execute(script)
    assert engine.table_multisets() == before

    store = Store()
    memstore.apply(store, load)
    with pytest.raises(BatchRejected) as rejected:
        memstore.apply_ops(store, to_mutations(parse_script(script)))
    assert rejected.value.op_index == 2
    assert store.table_multisets() == before

    # One step back inside the range, the balance lands on the bound.
    edge = UpdateBalance(row.address, delta + 1 if delta < 0 else delta - 1)
    engine.execute(render_sql(Batch(1, "upsert", 0, 0, ops[:2] + (edge,))))
    assert engine.tables["addresses"][(row.address,)][1] == (0 if delta < 0 else WEI_MAX - 1)


def test_stub_refuses_a_delete_on_an_empty_engine():
    with pytest.raises(SqlParseError, match="no such row"):
        SqlStubEngine().execute("DELETE FROM Blocks WHERE hash = '\\x01'::bytea;")



# More digits than int() converts by default (sys.get_int_max_str_digits() is 4300).
_HUGE_INT = "9" * 5000


@pytest.mark.parametrize(
    "statement",
    [
        f"INSERT INTO Addresses (address, eth_balance) VALUES ('\\x00'::bytea, {_HUGE_INT});",
        f"DELETE FROM Withdrawals WHERE hash = '\\x00'::bytea AND withdrawal_index = {_HUGE_INT};",
        f"UPDATE Addresses SET eth_balance = eth_balance + {_HUGE_INT} WHERE address = '\\x00'::bytea;",
        f"{_insert_head('tokens')}'\\x00'::bytea, 'S', 'n', {_HUGE_INT}, 1, NULL);",
    ],
    ids=["values", "where", "balance-amount", "nullable-value"],
)
@pytest.mark.parametrize("target", [MemstoreTarget, SqlStubTarget])
def test_an_integer_literal_too_long_to_convert_is_a_replay_error(target, statement):
    with pytest.raises(ReplayError, match="line 1: integer literal of 5000 characters is too long") as failed:
        target().apply_script("huge.sql", statement)
    assert isinstance(failed.value.__cause__, SqlParseError)


# ARRAY values outside the rendered form: trailing text, items that are not
# bytea, an empty ARRAY without its ::bytea[] cast, and a comma after the
# last item.
_LOOSE_ARRAYS = ["ARRAY['\\x01'::bytea]junk", "ARRAY[1, 'x', NULL]", "ARRAY[]", "ARRAY['\\x01'::bytea, ]"]


@pytest.mark.parametrize("shape", _LOOSE_ARRAYS)
@pytest.mark.parametrize("target", [MemstoreTarget, SqlStubTarget])
def test_a_loose_array_literal_is_a_replay_error(loaded_workload, target, shape):
    load, _ = loaded_workload
    rendered = next(line for line in render_sql(load).splitlines() if "ARRAY['" in line)
    assert parse_script(rendered)  # the rendered statement parses
    loose = re.sub(r"ARRAY\[[^\]]*\]", lambda _: shape, rendered, count=1)
    with pytest.raises(ReplayError, match="line 1: not in the rendered form") as failed:
        target().apply_script("loose.sql", loose)
    assert isinstance(failed.value.__cause__, SqlParseError)


# Text that the renderer must quote and the tokenizer must keep inside one literal.
_TRICKY_TEXT = st.lists(
    st.sampled_from(["'", "''", ";", ",", "(", ")", "[", "]", " AND ", "--", "\n", "\r", "a", " ", "\\x", "é"]),
    max_size=12,
).map("".join)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pick=st.integers(0, 2**16), texts=st.lists(st.tuples(_TRICKY_TEXT, _TRICKY_TEXT), min_size=1, max_size=8))
def test_render_parse_round_trip_with_tricky_text(loaded_workload, pick, texts):
    load, pairs = loaded_workload
    batches = [load] + [b for p in pairs for b in (p.expire, p.upsert) if b is not None]
    batch = batches[pick % len(batches)]
    ops = []
    for op in batch.ops:
        if isinstance(op, InsertRow) and op.table == "tokens":
            symbol, name = texts[len(ops) % len(texts)]
            op = InsertRow("tokens", op.row._replace(symbol=symbol, name=name))
        ops.append(op)
    batch = dataclasses.replace(batch, ops=tuple(ops))
    assert to_mutations(parse_script(render_sql(batch))) == list(batch.ops)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    init_blocks=st.integers(1, 10),
    granularity=st.integers(1, 40),
    expire=st.booleans(),
)
def test_stub_text_and_structured_replay_agree_on_every_workload_shape(seed, init_blocks, granularity, expire):
    ds = generate(SynthConfig(seed=seed, n_blocks=45, mean_tx_per_block=4, address_pool=25, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=init_blocks, granularity=granularity, expire=expire)
    structured = Store()
    memstore.apply(structured, gen_initial(ds, cfg))
    for pair in gen_batches(ds, cfg)[0]:
        if pair.expire is not None:
            memstore.apply(structured, pair.expire)
        memstore.apply(structured, pair.upsert)

    stub, text = SqlStubTarget(), MemstoreTarget()
    with tempfile.TemporaryDirectory() as tmp:
        write_workload(ds, cfg, tmp)
        replay(stub, tmp)
        replay(text, tmp)
    expected = structured.table_multisets()
    assert stub.engine.table_multisets() == expected
    assert text.store.table_multisets() == expected


@st.composite
def _small_workloads(draw):
    """A small synthesized chain and a workload over it: its load and every
    batch, in replay order."""
    n_blocks = draw(st.integers(2, 30))
    ds = generate(
        SynthConfig(
            seed=draw(st.integers(0, 2**16)),
            n_blocks=n_blocks,
            mean_tx_per_block=draw(st.integers(0, 6)),
            address_pool=draw(st.integers(5, 30)),
            n_tokens=draw(st.integers(0, 4)),
        )
    )
    cfg = WorkloadConfig(
        init_blocks=draw(st.integers(1, n_blocks - 1)), granularity=draw(st.integers(1, 8)), expire=draw(st.booleans())
    )
    pairs, _ = gen_batches(ds, cfg)
    return [gen_initial(ds, cfg)] + [b for p in pairs for b in (p.expire, p.upsert) if b is not None]


@settings(max_examples=50, deadline=None)
@given(batches=_small_workloads())
def test_a_parse_yields_the_batch_records_and_to_mutations_only_retypes_rows(batches):
    engine, store = SqlStubEngine(), Store()
    for batch in batches:
        script = render_sql(batch)
        records = parse_script(script)
        assert records == list(batch.ops)
        assert all(type(r.row) is tuple for r in records if isinstance(r, InsertRow))
        ops = to_mutations(records)
        assert ops == records
        for record, op in zip(records, ops):
            if isinstance(record, InsertRow):
                assert type(op.row) is ROW_TYPES[record.table]
            else:
                assert op is record
        engine.execute(script)
        memstore.apply_ops(store, ops)
    assert engine.table_multisets() == store.table_multisets()


class _NoScan(dict):
    """A table that fails any attempt to iterate it."""

    def _scan(self, *args):
        raise AssertionError("table scanned")

    items = values = keys = __iter__ = _scan


def test_keyed_delete_and_null_out_never_iterate_the_table(loaded_workload):
    load, pairs = loaded_workload
    engine = SqlStubEngine()
    engine.execute(render_sql(load))
    expected = Store()
    memstore.apply(expected, load)
    engine.tables = {name: _NoScan(rows) for name, rows in engine.tables.items()}

    expire = pairs[0].expire
    assert {type(op) for op in expire.ops} >= {DeleteRow, NullBlockHash}
    # A failing final statement rolls the keyed writes back, also without a scan.
    failing = dataclasses.replace(expire, ops=expire.ops + (DeleteRow("blocks", (b"\xee" * 32,)),))
    with pytest.raises(SqlParseError, match="no such row"):
        engine.execute(render_sql(failing))
    engine.execute(render_sql(expire))
    memstore.apply(expected, expire)

    engine.tables = {name: dict(dict.items(rows)) for name, rows in engine.tables.items()}
    assert engine.table_multisets() == expected.table_multisets()


@pytest.fixture(scope="module")
def replay_states(loaded_workload):
    """The first batches after the load, each with the stub tables and the
    store it applies to."""
    load, pairs = loaded_workload
    batches = [load] + [b for p in pairs[:2] for b in (p.expire, p.upsert)]
    engine, store, states = SqlStubEngine(), Store(), []
    for before, batch in zip(batches, batches[1:]):
        engine.execute(render_sql(before))
        memstore.apply(store, before)
        states.append(({t: dict(rows) for t, rows in engine.tables.items()}, store.copy(), batch))
    return load, states


@settings(max_examples=60, deadline=None)
@given(
    pick=st.integers(0, 2**16),
    at=st.integers(0, 2**16),
    failing=st.sampled_from(["duplicate insert", "missing-row delete", "balance out of range"]),
)
def test_a_failing_statement_at_any_index_is_refused_there_and_rolled_back(replay_states, pick, at, failing):
    load, states = replay_states
    tables, loaded_store, batch = states[pick % len(states)]
    address = next(op.row for op in load.ops if isinstance(op, InsertRow) and op.table == "addresses")
    bad = {
        "duplicate insert": InsertRow("addresses", address),
        "missing-row delete": DeleteRow("blocks", (b"\xee" * 32,)),
        "balance out of range": UpdateBalance(address.address, -WEI_MAX),
    }[failing]
    i = at % (len(batch.ops) + 1)
    script = render_sql(dataclasses.replace(batch, ops=batch.ops[:i] + (bad,) + batch.ops[i:]))

    engine = SqlStubEngine()
    engine.tables = {t: dict(rows) for t, rows in tables.items()}
    before = engine.table_multisets()
    with pytest.raises(SqlParseError, match=f"^statement {i}: "):
        engine.execute(script)
    assert engine.table_multisets() == before

    store = loaded_store.copy()
    with pytest.raises(BatchRejected) as rejected:
        memstore.apply_ops(store, to_mutations(parse_script(script)))
    assert rejected.value.op_index == i
    assert store.table_multisets() == before


# ---------------------------------------------------------------------------
# The parser against the two-pass oracle in tests/util.py


def _oracle(script: str) -> list:
    """The two-pass oracle's statements, each INSERT's column dict put in
    SCHEMA order as ``parse_script`` gives its row (a dict naming other
    columns stays a dict)."""
    parsed = []
    for p in two_pass_parse_script(script):
        if isinstance(p, InsertRow):
            names = [col for col, _ in SCHEMA[p.table]]
            if sorted(p.row) == sorted(names):
                p = InsertRow(p.table, tuple(p.row[col] for col in names))
        parsed.append(p)
    return parsed


_REFUSAL = re.compile(
    r"line ([0-9]+): (?:unsupported statement|not in the rendered form|unknown table '\w+'"
    r"|integer literal of [0-9]+ characters is too long): (.+)",
    re.S,
)


def _refused_or_oracle(script: str):
    """``parse_script``'s result, which must equal the oracle's; or its
    refusal, which must be a ``SqlParseError`` (never another exception) that
    names a line of the script and quotes the text from there."""
    try:
        parsed = parse_script(script)
    except SqlParseError as exc:
        m = _REFUSAL.fullmatch(str(exc))
        assert m, str(exc)
        quoted = ast.literal_eval(m.group(2))
        assert quoted and quoted in "\n".join(script.split("\n")[int(m.group(1)) - 1 :]), str(exc)
        return exc
    assert parsed == _oracle(script)
    return parsed


def _column(kind: str, text=_TRICKY_TEXT):
    base = {
        "hash": st.binary(max_size=32),
        "address": st.binary(max_size=20),
        "bytes": st.binary(max_size=24),
        "int": st.one_of(st.sampled_from([0, WEI_MAX - 1]), st.integers(0, WEI_MAX - 1)),
        "bool": st.booleans(),
        "text": text,
        "sighashes": st.lists(st.binary(min_size=4, max_size=4), max_size=3).map(tuple),
    }[kind.rstrip("?")]
    return st.one_of(st.none(), base) if kind.endswith("?") else base


def _key(table: str):
    kinds = dict(SCHEMA[table])
    return st.tuples(*(_column(kinds[col]) for col in PRIMARY_KEYS[table]))


# The tables with a block_hash NULL-out: where that column may be NULL.
_NULLABLE_BLOCK_HASH = sorted(t for t, cols in SCHEMA.items() if ("block_hash", "hash?") in cols)


def _ops(text=_TRICKY_TEXT):
    """Mutations of every kind on every table that has it. Edge values: None
    in each nullable column, empty bytes, empty and multi-item sighashes, 0
    and WEI_MAX - 1, and negative balance deltas."""
    tables = st.sampled_from(sorted(SCHEMA))
    return st.one_of(
        tables.flatmap(
            lambda t: st.builds(
                InsertRow, st.just(t), st.builds(ROW_TYPES[t], **{c: _column(k, text) for c, k in SCHEMA[t]})
            )
        ),
        st.sampled_from(DELETABLE_TABLES).flatmap(lambda t: st.builds(DeleteRow, st.just(t), _key(t))),
        st.sampled_from(_NULLABLE_BLOCK_HASH).flatmap(lambda t: st.builds(NullBlockHash, st.just(t), _key(t))),
        st.builds(UpdateBalance, st.binary(max_size=20), st.integers(-(WEI_MAX - 1), WEI_MAX - 1)),
    )


_OP = _ops()
_RENDERED = st.lists(_OP, max_size=10).map(lambda ops: render_sql(Batch(1, "upsert", 0, 0, tuple(ops))))


@settings(max_examples=300, deadline=None)
@given(script=_RENDERED)
def test_one_pass_parse_equals_the_two_pass_oracle(script):
    assert parse_script(script) == _oracle(script)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OP, max_size=10))
def test_render_round_trip_over_every_table(ops):
    script = render_sql(Batch(1, "upsert", 0, 0, tuple(ops)))
    assert to_mutations(parse_script(script)) == ops


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


_BYTEA = st.builds(
    lambda raw, upper: "'\\x" + (raw.hex().upper() if upper else raw.hex()) + "'::bytea",
    st.binary(max_size=8),
    st.booleans(),
)
_INT = st.integers(-(2**80), 2**80).map(str)


def _literal(kind: str):
    """SQL text of a value of a column kind, upper-case hex digits included."""
    base = {
        "hash": _BYTEA,
        "address": _BYTEA,
        "bytes": _BYTEA,
        "int": _INT,
        "bool": st.sampled_from(["TRUE", "FALSE"]),
        "text": _TRICKY_TEXT.map(_quote),
        "sighashes": st.lists(_BYTEA, max_size=3).map(
            lambda xs: f"ARRAY[{', '.join(xs)}]" if xs else "ARRAY[]::bytea[]"
        ),
    }[kind.rstrip("?")]
    return st.one_of(st.just("NULL"), base) if kind.endswith("?") else base


# Values just outside the rendered form, some of which the two-pass parser
# takes.
_NEAR_MISS = st.sampled_from(
    [
        "ARRAY['\\x01'::bytea]::bytea[]",
        "ARRAY['\\x01'::bytea]junk",
        "ARRAY['\\x01'::bytea, ]",
        "ARRAY[]",
        "ARRAY [ '\\x01'::bytea ]",
        "ARRAY[1, 'x', NULL]",
        "ARRAY'\\x01'::bytea]",
        "'\\x01' ::bytea",
        "'\\x01 02'::bytea",
        "'\\x0'::bytea",
        "'\\xzz'::bytea",
        "'01'::bytea",
        "'\\x01'::BYTEA",
        "'a'::text",
        "'a' 'b'",
        "'a''",
        "1 2",
        "- 1",
        "+1",
        "1.5",
        "NULLx",
        "null",
        "true",
        "",
    ]
)
_ANY_KIND = st.sampled_from(sorted({kind for columns in SCHEMA.values() for _, kind in columns})).flatmap(_literal)


@st.composite
def _near_miss_insert(draw):
    """An INSERT with the full column list, most values of their column's
    kind, some a near miss or a value of another kind, sometimes one value
    short or with a comma after the last."""
    table = draw(st.sampled_from(sorted(SCHEMA)))
    values = []
    for _, kind in SCHEMA[table]:
        choice = draw(st.integers(0, 9))
        values.append(draw(_literal(kind) if choice < 7 else _NEAR_MISS if choice < 9 else _ANY_KIND))
    values = values[: len(values) - draw(st.sampled_from([0, 0, 0, 1]))]
    return f"{_insert_head(table)}{', '.join(values)}{draw(st.sampled_from(['', '', ',']))})"


@st.composite
def _keyed_write(draw):
    kind = draw(st.sampled_from(["delete", "null-out", "balance"]))
    if kind == "balance":
        sign, amount = draw(st.sampled_from("+-")), draw(st.integers(0, 2**70))
        return f"UPDATE Addresses SET eth_balance = eth_balance {sign} {amount} WHERE address = {draw(_BYTEA)}"
    table = draw(st.sampled_from(sorted(PRIMARY_KEYS)))
    where = " AND ".join(f"{col} = {draw(st.one_of(_BYTEA, _INT))}" for col in PRIMARY_KEYS[table])
    if kind == "delete":
        return f"DELETE FROM {SQL_TABLE_NAMES[table]} WHERE {where}"
    return f"UPDATE {SQL_TABLE_NAMES[table]} SET block_hash = NULL WHERE {where}"


_NEAR_MISS_SCRIPT = st.lists(
    st.one_of(_near_miss_insert(), _keyed_write(), st.sampled_from(["BEGIN", "COMMIT"])), max_size=4
).map(lambda statements: "".join(f"{s};\n" for s in statements))


@settings(max_examples=300, deadline=None)
@given(script=st.one_of(_RENDERED, _NEAR_MISS_SCRIPT, st.text(alphabet="'-;,()[] \nxNUL0\\", max_size=40)))
def test_one_pass_parse_equals_the_two_pass_oracle_on_any_text(script):
    # Mostly invalid text: it is refused, or parsed as the oracle parses it.
    _refused_or_oracle(script)


# Text without a dash, a backslash or a bracket: dropping a quote cannot turn
# text into a comment, and every backslash and bracket belongs to the syntax.
_PLAIN_TEXT = st.lists(st.sampled_from(["a", " ", ";", ",", "''", "é"]), max_size=8).map("".join)
_EMPTY_ARRAY = "ARRAY[]::bytea[]"


def _corrupt(script: str, kind: str, at: int) -> str | None:
    """``script`` with one defect of ``kind``, or None when it has no place for one."""
    if kind == "trailing":
        return script + "DELETE FROM Blocks WHERE hash = 1"
    if kind == "quote":
        spots, cut, insert = [i for i, ch in enumerate(script) if ch == "'"], 1, ""
    elif kind == "bracket":  # an empty ARRAY stays valid without some of its brackets
        masked = script.replace(_EMPTY_ARRAY, "#" * len(_EMPTY_ARRAY))
        spots, cut, insert = [i for i, ch in enumerate(masked) if ch in "()[]"], 1, ""
    else:
        spots = [m.end() for m in re.finditer(r"'\\x", script)]
        cut, insert = 0, {"odd-hex": "a", "non-hex": "zz"}[kind]
    if not spots:
        return None
    i = spots[at % len(spots)]
    return script[:i] + insert + script[i + cut :]


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(_ops(_PLAIN_TEXT), max_size=6),
    kind=st.sampled_from(["quote", "bracket", "odd-hex", "non-hex", "trailing"]),
    at=st.integers(0, 2**16),
)
def test_both_parsers_refuse_a_corrupted_script(ops, kind, at):
    # The rendered statements without the header comment, whose brackets are text.
    script = render_sql(Batch(1, "upsert", 0, 0, tuple(ops))).split("\n", 1)[1]
    bad = _corrupt(script, kind, at)
    assume(bad is not None)
    with pytest.raises(SqlParseError):
        parse_script(bad)
    # The two-pass parser lets a bare ValueError out of an ARRAY literal that
    # lacks a bracket.
    with pytest.raises(ValueError):
        two_pass_parse_script(bad)


_HUGE = 200_000


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def valid_parse_seconds():
    """Best of three parses of a rendered script of the same size: the linear
    cost that a malformed statement is held to, on whatever host runs this.
    Its one token's symbol is a run of quotes, which the renderer writes as
    ``''`` escapes: a long escaped literal costs the regex engine several
    times more per byte than short rows do, whether it closes or not."""
    token = ROW_TYPES["tokens"](b"\xab" * 20, "'" * (_HUGE // 2), "name", 18, 1000, None)
    valid = render_sql(Batch(1, "upsert", 0, 0, (InsertRow("tokens", token),)))
    return min(_seconds(lambda: parse_script(valid)) for _ in range(3))


# Malformed statements of about 200 kB: with a partial column list, which no
# statement form takes past its head, and with the full rendered column list,
# where a form reads up to the malformed text.
_MALFORMED = {
    "open-literal": "INSERT INTO Tokens (name) VALUES ('" + "a''" * (_HUGE // 3),
    "open-escapes": "'" + "''" * (_HUGE // 2),
    "quote-runs": "'a" * (_HUGE // 2),
    "dashes": "- " * (_HUGE // 2),
    "literal-suffix": "INSERT INTO Tokens (name) VALUES ('" + "x" * _HUGE + "' junk);",
    "bad-last-value": "INSERT INTO Tokens (name) VALUES (" + "'a', " * (_HUGE // 5) + "'b' 'c');",
    "odd-hex": "INSERT INTO Blocks (hash) VALUES ('\\x" + "ab" * (_HUGE // 2) + "a'::bytea);",
    "open-array": "INSERT INTO Tokens (name) VALUES (ARRAY[" + "'\\x01'::bytea, " * (_HUGE // 16) + ");",
    "where-clause": "UPDATE Addresses SET eth_balance = eth_balance + 1 WHERE " + "x = 1 AND " * (_HUGE // 10) + "y;",
}
_MALFORMED_FULL_COLUMNS = {
    "open-literal": _TOKEN_HEAD + "'" + "a''" * (_HUGE // 3),
    "open-escapes": _TOKEN_HEAD + "'" + "''" * (_HUGE // 2),
    "quote-runs": _TOKEN_HEAD + "'a" * (_HUGE // 2),
    "dashes": _TOKEN_HEAD + "'a', 'b', " + "- " * (_HUGE // 2),
    "literal-suffix": _TOKEN_HEAD + "'" + "x" * _HUGE + "' junk, 'b'" + _TOKEN_TAIL,
    "bad-last-value": _TOKEN_ROW[:-2] + ", 'a'" * (_HUGE // 5) + ");",
    "odd-hex": _insert_head("blocks") + "'\\x" + "ab" * (_HUGE // 2) + "a'::bytea, 1, 2, '\\x'::bytea, 3, 4, " + ADDR + ");",
    "open-array": _insert_head("contracts") + ADDR + ", 0, ARRAY[" + "'\\x01'::bytea, " * (_HUGE // 16) + ");",
    "where-clause": "UPDATE Addresses SET eth_balance = eth_balance + 1 WHERE "
    + f"address = {ADDR} AND " * (_HUGE // 60)
    + f"address = {ADDR};",
}


@pytest.mark.parametrize(
    "script",
    [pytest.param(script, id=name) for name, script in _MALFORMED.items()]
    + [pytest.param(script, id=f"{name}-full-columns") for name, script in _MALFORMED_FULL_COLUMNS.items()],
)
def test_a_huge_malformed_statement_is_refused_quickly(script, valid_parse_seconds):
    def refuse():
        with pytest.raises(SqlParseError):
            parse_script(script)

    # Every case takes at most a few times the valid parse; a regex that
    # backtracks over 200 kB would take thousands of times as long.
    assert _seconds(refuse) < 20 * valid_parse_seconds


def _compiled_patterns(module) -> list[str]:
    """Every compiled pattern reachable from the module's globals: also one
    kept in a dict, a sequence, a dataclass, a partial, a bound method, or a
    default or closure of one of the module's functions."""
    patterns, seen, todo = [], set(), list(vars(module).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, re.Pattern):
            patterns.append(obj.pattern)
        elif isinstance(obj, dict):
            todo.extend(obj.items())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, functools.partial):
            todo.extend((obj.func, obj.args, obj.keywords))
        elif isinstance(obj, (types.MethodType, types.BuiltinMethodType)):
            todo.append(obj.__self__)
        elif isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            todo.extend(obj.__defaults__ or ())
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif dataclasses.is_dataclass(obj):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return patterns


def test_no_sqlstub_pattern_needs_python_3_11():
    # Possessive quantifiers and atomic groups arrived in Python 3.11; the
    # package supports 3.10.
    patterns = _compiled_patterns(sqlstub)
    assert sqlstub._RENDERED_RE.pattern in patterns
    assert sqlstub._HEAD_RE.pattern in patterns
    for pattern in patterns:
        for construct in ("(?>", "*+", "++", "?+"):
            assert construct not in pattern, (construct, pattern)


def test_compiled_patterns_are_found_wherever_they_are_kept():
    hidden = re.compile("hidden")
    module = types.ModuleType(__name__)

    def closure():
        return hidden

    module.table = {"t": [(dataclasses.make_dataclass("F", ["p"])(hidden),)]}
    module.match = re.compile("bound").match
    module.partial = functools.partial(print, re.compile("partial"))
    module.closure = closure
    assert sorted(_compiled_patterns(module)) == ["bound", "hidden", "partial"]


# ---------------------------------------------------------------------------
# Rendered scripts with one defect each


@functools.lru_cache(maxsize=None)
def _rendered_scripts(seed: int) -> tuple[str, ...]:
    ds = generate(SynthConfig(seed=seed, n_blocks=16, mean_tx_per_block=3, address_pool=15, n_tokens=3))
    cfg = WorkloadConfig(init_blocks=8, granularity=3, expire=True)
    batches = [gen_initial(ds, cfg)] + [b for p in gen_batches(ds, cfg)[0] for b in (p.expire, p.upsert)]
    return tuple(render_sql(b) for b in batches)


_KEYWORD = r"\b(?:INSERT|INTO|VALUES|DELETE|FROM|UPDATE|SET|WHERE|AND|NULL|TRUE|FALSE|ARRAY|BEGIN|COMMIT)\b"
_COLUMN_PAIR = r"(?<=\()(\w+), (\w+)(?=[,)])"
_TRAILING = ["DELETE FROM Blocks WHERE hash = 1", " junk", "'", "-- note", "\n\t", ";"]

# Defect kind -> (where it may go, what replaces the matched text there).
_DEFECTS = {
    "quote": ("'", lambda m: ""),
    "bracket": (r"[()\[\]]", lambda m: ""),
    "odd-hex": (r"(?<='\\x)", lambda m: "a"),
    "non-hex": (r"(?<='\\x)", lambda m: "zz"),
    "upper-hex": (r"(?<='\\x)[0-9a-f]+", lambda m: m.group().upper()),
    "whitespace": (r"(?=[ ,;=()\[\]])|^", lambda m: " "),
    "line-break": (r"(?=[ ,;=()\[\]])", lambda m: "\n"),
    "lower-keyword": (_KEYWORD, lambda m: m.group().lower()),
    "reordered-columns": (_COLUMN_PAIR, lambda m: f"{m.group(2)}, {m.group(1)}"),
    "huge-int": (r"(?<=[ (])-?[0-9]+(?=[,);])", lambda m: "9" * 5000),
}


def _defect(script: str, kind: str, at: int) -> str | None:
    """``script`` with one defect of ``kind``, or None when it has no place for one."""
    if kind == "trailing":
        return script + _TRAILING[at % len(_TRAILING)]
    pattern, replace = _DEFECTS[kind]
    spots = list(re.finditer(pattern, script))
    if not spots:
        return None
    m = spots[at % len(spots)]
    return script[: m.start()] + replace(m) + script[m.end() :]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 5),
    pick=st.integers(0, 2**16),
    kind=st.sampled_from(sorted(_DEFECTS) + ["trailing"]),
    at=st.integers(0, 2**16),
)
def test_a_defective_rendered_script_is_refused_or_parsed_as_the_oracle(seed, pick, kind, at):
    scripts = _rendered_scripts(seed)
    script = _defect(scripts[pick % len(scripts)], kind, at)
    assume(script is not None)
    _refused_or_oracle(script)


def test_each_defect_kind_has_a_place_in_the_rendered_scripts():
    scripts = [s for seed in range(6) for s in _rendered_scripts(seed)]
    for kind in _DEFECTS:
        assert any(re.search(_DEFECTS[kind][0], s) for s in scripts), kind
    assert any("ARRAY['" in s for s in scripts)
    assert any(", NULL" in s for s in scripts)


def test_every_defect_kind_but_upper_case_hex_is_refused_somewhere():
    # The statement forms take hex digits in either case, as the oracle does.
    scripts = _rendered_scripts(0)
    for kind in [*_DEFECTS, "trailing"]:
        outcomes = [
            _refused_or_oracle(bad) for script in scripts for at in range(6) if (bad := _defect(script, kind, at))
        ]
        refused = [o for o in outcomes if isinstance(o, SqlParseError)]
        if kind == "upper-hex":
            assert outcomes and not refused
        else:
            assert refused, kind


# The benchmark's three workload shapes (synthesis, init_blocks,
# granularity; expire on), at small sizes.
_BENCH_SHAPES = {
    "drift-window": (
        {"n_blocks": 120, "mean_tx_per_block": 20, "address_pool": 800, "token_value_drift": 0.00125, "token_value_mu0": 7.0},
        60,
        50,
    ),
    "replay-fine": ({"n_blocks": 40, "mean_tx_per_block": 10}, 20, 1),
    "stub-expire": ({"n_blocks": 40, "mean_tx_per_block": 15}, 20, 5),
}


@pytest.mark.parametrize("shape", sorted(_BENCH_SHAPES))
def test_every_written_workload_file_takes_the_compiled_tier_only(shape, tmp_path):
    synth, init_blocks, granularity = _BENCH_SHAPES[shape]
    ds = generate(SynthConfig(seed=7, **synth))
    write_workload(ds, WorkloadConfig(init_blocks, granularity, expire=True), tmp_path)
    scripts = read_scripts(tmp_path)
    parsed = {name: parse_script(script) for name, script in scripts.items()}
    for name, script in scripts.items():
        assert parsed[name] == _oracle(script), name
    kinds = {(type(p).__name__, getattr(p, "table", "addresses")) for statements in parsed.values() for p in statements}
    assert {("InsertRow", t) for t in SQL_TABLE_NAMES} <= kinds
    assert {"DeleteRow", "UpdateBalance"} <= {kind for kind, _ in kinds}


class _Unreadable(dict):
    """A schema that fails any attempt to read it."""

    def _read(self, *args):
        raise AssertionError("SCHEMA read while rendering")

    __getitem__ = get = items = values = keys = __iter__ = _read


def test_render_sql_switches_on_no_column_kind(loaded_workload):
    load, pairs = loaded_workload
    batches = [load] + [b for p in pairs[:2] for b in (p.expire, p.upsert)]
    expected = [render_sql(b) for b in batches]
    assert not hasattr(workload_gen, "_sql_literal")
    # No function taking a column kind runs while rendering, and the
    # schema is never read: the templates were compiled at import.
    calls = []

    def profile(frame, event, arg):
        if event == "call" and "kind" in frame.f_code.co_varnames[: frame.f_code.co_argcount]:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    with mock.patch.object(workload_gen, "SCHEMA", _Unreadable()):
        sys.setprofile(profile)
        try:
            rendered = [render_sql(b) for b in batches]
        finally:
            sys.setprofile(previous)
    assert rendered == expected
    assert calls == []
