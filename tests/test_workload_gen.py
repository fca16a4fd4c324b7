import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench import memstore, workload_gen
from chainbench.chain_model import DELETABLE_TABLES, PRIMARY_KEYS, ROW_TYPES, SCHEMA, WEI_MAX, validate_dataset
from chainbench.ingest_slice import block_view, extract_slice
from chainbench.memstore import DeleteRow, InsertRow, NullBlockHash, Store, UpdateBalance
from chainbench.sqlstub import SqlParseError, parse_script
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import (
    Batch,
    WorkloadConfig,
    WorkloadError,
    gen_batches,
    gen_initial,
    render_sql,
    script_name,
    write_workload,
)

from util import addr, edge_ops, read_scripts, reference_render, rollback_balances


@pytest.fixture(scope="module")
def sparse_2000():
    # Batch counting only needs block structure, so keep row volume tiny.
    return generate(SynthConfig(seed=21, n_blocks=2000, mean_tx_per_block=1, address_pool=30, n_tokens=3, withdrawal_rate=0.2))


def test_thousand_batches_at_granularity_one(sparse_2000):
    pairs, manifest = gen_batches(sparse_2000, WorkloadConfig(init_blocks=1000, granularity=1))
    assert len(pairs) == 1000
    assert manifest.batches[0].lo == manifest.batches[0].hi == 1000
    assert manifest.batches[-1].hi == 1999


def test_ten_expire_pairs_at_granularity_100(sparse_2000):
    pairs, manifest = gen_batches(sparse_2000, WorkloadConfig(init_blocks=1000, granularity=100, expire=True))
    assert len(pairs) == 10
    assert all(p.expire is not None for p in pairs)
    assert manifest.batches[0].expire_lo == 0 and manifest.batches[0].expire_hi == 99


def test_window_shifts_by_one_with_granularity_one(sparse_2000):
    cfg = WorkloadConfig(init_blocks=1000, granularity=1, expire=True)
    load = gen_initial(sparse_2000, cfg)
    pairs, _ = gen_batches(sparse_2000, cfg)
    store = Store()
    memstore.apply(store, load)
    memstore.apply(store, pairs[0].expire)
    memstore.apply(store, pairs[0].upsert)
    assert sorted(store.block_by_number) == list(range(1, 1001))


def test_init_equal_to_total_leaves_nothing_to_batch():
    ds = generate(SynthConfig(seed=2, n_blocks=20, mean_tx_per_block=2, address_pool=20, n_tokens=2))
    with pytest.raises(WorkloadError, match="nothing to batch"):
        gen_batches(ds, WorkloadConfig(init_blocks=20, granularity=5))


def test_init_beyond_dataset_errors():
    ds = generate(SynthConfig(seed=2, n_blocks=20, mean_tx_per_block=2, address_pool=20, n_tokens=2))
    with pytest.raises(WorkloadError, match="exceeds dataset"):
        gen_initial(ds, WorkloadConfig(init_blocks=21, granularity=1))


def test_short_final_batch_flagged():
    ds = generate(SynthConfig(seed=3, n_blocks=95, mean_tx_per_block=2, address_pool=20, n_tokens=2))
    pairs, manifest = gen_batches(ds, WorkloadConfig(init_blocks=50, granularity=20))
    assert [(b.lo, b.hi) for b in manifest.batches] == [(50, 69), (70, 89), (90, 94)]
    assert [b.short for b in manifest.batches] == [False, False, True]
    assert pairs[-1].upsert.block_hi == 94


def test_short_final_batch_expires_matching_count():
    ds = generate(SynthConfig(seed=3, n_blocks=95, mean_tx_per_block=2, address_pool=20, n_tokens=2))
    cfg = WorkloadConfig(init_blocks=50, granularity=20, expire=True)
    load = gen_initial(ds, cfg)
    pairs, _ = gen_batches(ds, cfg)
    store = Store()
    memstore.apply(store, load)
    for pair in pairs:
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
        assert len(store.block_by_number) == 50


def test_manifest_first_timestamps(sparse_2000):
    _, manifest = gen_batches(sparse_2000, WorkloadConfig(init_blocks=1990, granularity=2))
    by_number = {b.number: b.timestamp for b in sparse_2000.blocks}
    for info in manifest.batches:
        assert info.first_timestamp == by_number[info.lo]


def test_moving_window_and_overlap_small():
    ds = generate(SynthConfig(seed=9, n_blocks=200, mean_tx_per_block=5, address_pool=40, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=100, granularity=10, expire=True)
    load = gen_initial(ds, cfg)
    pairs, _ = gen_batches(ds, cfg)
    store = Store()
    memstore.apply(store, load)
    previous = set(store.block_by_number)
    for i, pair in enumerate(pairs, start=1):
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
        current = set(store.block_by_number)
        assert current == set(range(10 * i, 10 * i + 100))
        assert len(previous & current) == 90
        previous = current


def test_window_narrower_than_a_batch_widens_to_the_batch():
    # The first expire empties the 3-block window, so from then on the window
    # holds 10 blocks; the short last batch moves it by 2.
    ds = generate(SynthConfig(seed=9, n_blocks=45, mean_tx_per_block=3, address_pool=20, n_tokens=3))
    cfg = WorkloadConfig(init_blocks=3, granularity=10, expire=True)
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    pairs, manifest = gen_batches(ds, cfg)
    for pair, info in zip(pairs, manifest.batches):
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
        assert sorted(store.block_by_number) == list(range(info.hi - 9, info.hi + 1))


# sha256 of the manifest JSON and every rendered batch, recorded before the
# window became an int range.
_PINNED_BATCHES = {
    (3, 10, True): "59deb5a1b76d47e47a95da13b20eba99b4f1e5b4038cf695290756b8a091862e",
    (20, 7, True): "287b461d693a2261144ed643bf3c0ab8b77570f20fedf36818c9f8358565b2fb",
    (5, 9, False): "4a8821461463363172e34cd0a084e310ad4d0d417f902e53073f108fab4f4fb7",
}


@pytest.mark.parametrize("init_blocks,granularity,expire", sorted(_PINNED_BATCHES))
def test_batches_and_manifest_are_pinned(init_blocks, granularity, expire):
    ds = generate(SynthConfig(seed=31, n_blocks=80, mean_tx_per_block=4, address_pool=25, n_tokens=4))
    pairs, manifest = gen_batches(ds, WorkloadConfig(init_blocks, granularity, expire))
    digest = hashlib.sha256(json.dumps(manifest.to_dict(), sort_keys=True).encode())
    for batch in (b for pair in pairs for b in (pair.expire, pair.upsert) if b is not None):
        digest.update(render_sql(batch).encode())
    assert digest.hexdigest() == _PINNED_BATCHES[init_blocks, granularity, expire]


def test_one_write_workload_pass_slices_the_initial_window_once(monkeypatch, tmp_path):
    # gen_batches seeds its visibility tracker from the initial window's
    # closure over its own block bundles (slice_tables), so only gen_initial's
    # load takes the (balance-pricing) initial slice.
    slices = []
    real = workload_gen.extract_slice

    def counting_slice(raw, lo, hi):
        slices.append((lo, hi))
        return real(raw, lo, hi)

    monkeypatch.setattr(workload_gen, "extract_slice", counting_slice)
    ds = generate(SynthConfig(seed=31, n_blocks=80, mean_tx_per_block=4, address_pool=25, n_tokens=4))
    manifest = write_workload(ds, WorkloadConfig(20, 7, expire=True), tmp_path)
    assert slices == [(manifest.initial_lo, manifest.initial_hi)]


def test_monotone_growth_without_expire():
    ds = generate(SynthConfig(seed=9, n_blocks=60, mean_tx_per_block=5, address_pool=30, n_tokens=3))
    cfg = WorkloadConfig(init_blocks=30, granularity=10)
    load = gen_initial(ds, cfg)
    pairs, _ = gen_batches(ds, cfg)
    store = Store()
    memstore.apply(store, load)
    for i, pair in enumerate(pairs, start=1):
        assert pair.expire is None
        memstore.apply(store, pair.upsert)
        assert sorted(store.block_by_number) == list(range(0, 30 + 10 * i))


def test_fk_safety_every_prefix_validates():
    ds = generate(SynthConfig(seed=14, n_blocks=120, mean_tx_per_block=6, address_pool=40, n_tokens=5))
    for expire in (False, True):
        cfg = WorkloadConfig(init_blocks=60, granularity=20, expire=expire)
        load = gen_initial(ds, cfg)
        pairs, _ = gen_batches(ds, cfg)
        store = Store()
        memstore.apply(store, load)
        assert validate_dataset(store.to_dataset()).ok
        for pair in pairs:
            if pair.expire is not None:
                memstore.apply(store, pair.expire)
            memstore.apply(store, pair.upsert)
            assert validate_dataset(store.to_dataset()).ok


def test_final_balances_after_all_batches():
    ds = generate(SynthConfig(seed=15, n_blocks=80, mean_tx_per_block=8, address_pool=40, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=40, granularity=8)
    load = gen_initial(ds, cfg)
    pairs, _ = gen_batches(ds, cfg)
    store = Store()
    memstore.apply(store, load)
    for pair in pairs:
        memstore.apply(store, pair.upsert)
    snapshot = dict(ds.addresses)
    for address, balance in store.balances.items():
        assert balance == snapshot[address]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_blocks=st.integers(2, 30),
    init=st.floats(0, 1),
    granularity=st.integers(1, 6),
    expire=st.booleans(),
)
def test_an_entering_address_takes_the_ledgers_balance(seed, n_blocks, init, granularity, expire):
    # gen_batches carries each address's balance forward batch by batch; an
    # address entering at batch [lo, hi] must hold its balance at lo - 1,
    # clamped at zero. The reference rolls the snapshot back over the raw
    # rows, without the ledger.
    ds = generate(SynthConfig(seed=seed, n_blocks=n_blocks, mean_tx_per_block=4, address_pool=15, n_tokens=3))
    pairs, _ = gen_batches(ds, WorkloadConfig(1 + round(init * (n_blocks - 2)), granularity, expire))
    block_number = {b.hash: b.number for b in ds.blocks}
    for pair in pairs:
        before = rollback_balances(ds, pair.upsert.block_lo - 1, block_number)
        for op in pair.upsert.ops:
            if isinstance(op, InsertRow) and op.table == "addresses":
                assert op.row.eth_balance == max(0, before.get(op.row.address, 0))


@settings(max_examples=40, deadline=None)
@given(
    config=st.builds(
        SynthConfig,
        seed=st.integers(0, 2**16),
        n_blocks=st.integers(2, 30),
        start_number=st.integers(0, 5),
        mean_tx_per_block=st.integers(0, 6),
        address_pool=st.integers(2, 20),
        n_tokens=st.integers(1, 4),
        token_tx_prob=st.floats(0, 1),
        contract_fraction=st.floats(0, 1),
        withdrawal_rate=st.floats(0, 3),
    ),
    init=st.floats(0, 1),
    granularity=st.integers(1, 6),
    expire=st.booleans(),
    data=st.data(),
)
def test_one_shared_block_view_cuts_as_the_dataset_does(config, init, granularity, expire, data):
    # One view serves the load, the batches and every slice, in turn; each
    # result equals the one a plain dataset gives, so no use alters the view.
    ds = generate(config)
    cfg = WorkloadConfig(1 + round(init * (config.n_blocks - 2)), granularity, expire)
    view = block_view(ds)
    assert block_view(view) is view
    assert gen_initial(view, cfg) == gen_initial(ds, cfg)
    assert gen_batches(view, cfg) == gen_batches(ds, cfg)
    bounds = st.integers(config.start_number - 2, config.start_number + config.n_blocks + 1)

    def outcome(source, lo, hi):
        try:
            return extract_slice(source, lo, hi)
        except ValueError as exc:  # ExportError too
            return type(exc), str(exc)

    for _ in range(3):
        lo, hi = data.draw(bounds), data.draw(bounds)
        assert outcome(view, lo, hi) == outcome(ds, lo, hi)


def test_render_empty_batch():
    text = render_sql(Batch(index=3, kind="upsert", block_lo=5, block_hi=5, ops=()))
    lines = [l for l in text.splitlines() if not l.startswith("--")]
    assert lines == ["BEGIN;", "COMMIT;"]


def test_render_balance_update_directions():
    up = render_sql(Batch(1, "upsert", 0, 0, (UpdateBalance(addr(1), 42),)))
    down = render_sql(Batch(1, "upsert", 0, 0, (UpdateBalance(addr(1), -42),)))
    assert f"SET eth_balance = eth_balance + 42 WHERE address = '\\x{addr(1).hex()}'::bytea;" in up
    assert "SET eth_balance = eth_balance - 42" in down


def test_render_refuses_an_unknown_mutation():
    with pytest.raises(ValueError, match="unknown mutation tuple"):
        render_sql(Batch(1, "upsert", 0, 0, (UpdateBalance(addr(1), 1), ("addresses", (addr(2), 0)))))
    with pytest.raises(ValueError, match="no InsertRow statement for table 'ledger'"):
        render_sql(Batch(1, "upsert", 0, 0, (InsertRow("ledger", (1,)),)))


def test_render_takes_a_subclass_of_a_mutation_record():
    class Marked(DeleteRow):
        __slots__ = ()

    ops = (Marked("blocks", (b"\x01",)),)
    assert render_sql(Batch(1, "expire", 0, 0, ops)) == reference_render(Batch(1, "expire", 0, 0, ops))


def test_the_edge_batch_holds_every_form_and_renders_as_the_reference():
    ops = edge_ops()
    forms = {(type(op).__name__, op.table) for op in ops}
    assert forms == {("InsertRow", t) for t in SCHEMA} | {("DeleteRow", t) for t in DELETABLE_TABLES} | {
        ("NullBlockHash", "tokens"),
        ("NullBlockHash", "contracts"),
        ("UpdateBalance", "addresses"),
    }
    batch = Batch(7, "upsert", 3, 4, ops)
    assert render_sql(batch) == reference_render(batch)


def test_workload_file_pins_hold():
    # The listing and render pins that stdlib_pins.py also checks without pytest.
    import stdlib_pins

    for label, got, pinned in stdlib_pins.workload_file_checks():
        assert got == pinned, label


def test_none_where_the_column_is_not_nullable_is_never_written_as_a_value():
    # The renderers test for None only where SCHEMA allows NULL.
    refused = 0
    for op in edge_ops():
        if not isinstance(op, InsertRow):
            continue
        for col, kind in SCHEMA[op.table]:
            if kind.endswith("?"):
                continue
            batch = Batch(1, "upsert", 0, 0, (InsertRow(op.table, op.row._replace(**{col: None})),))
            try:
                script = render_sql(batch)
            except (AttributeError, TypeError):
                refused += 1
                continue
            with pytest.raises(SqlParseError, match="not in the rendered form"):
                parse_script(script)
    assert refused


# Text with quotes, line breaks, non-ASCII characters, and what an f-string
# or a SQL literal could take for its own syntax.
_TEXT = st.lists(
    st.sampled_from(["'", "''", "\r", "\n", "\r\n", "\u00e9", "a", " ", "\\", "{", "}", "%s"]), max_size=8
).map("".join)
_VALUES = {
    "hash": st.binary(max_size=32),
    "address": st.binary(max_size=20),
    "bytes": st.binary(max_size=8),
    "int": st.one_of(st.sampled_from([0, -1, WEI_MAX - 1]), st.integers(-(2**70), 2**260)),
    "bool": st.booleans(),
    "text": _TEXT,
    "sighashes": st.lists(st.binary(min_size=4, max_size=4), max_size=3).map(tuple),
}


def _value(kind: str):
    base = _VALUES[kind.rstrip("?")]
    return st.one_of(st.none(), base) if kind.endswith("?") else base


def _row(table: str):
    return st.builds(ROW_TYPES[table], **{col: _value(kind) for col, kind in SCHEMA[table]})


def _key(table: str):
    kinds = dict(SCHEMA[table])
    return st.tuples(*(_value(kinds[col]) for col in PRIMARY_KEYS[table]))


_TABLES = st.sampled_from(sorted(SCHEMA))
_MUTATIONS = st.one_of(
    _TABLES.flatmap(lambda t: st.builds(InsertRow, st.just(t), _row(t))),
    st.sampled_from(DELETABLE_TABLES).flatmap(lambda t: st.builds(DeleteRow, st.just(t), _key(t))),
    st.sampled_from(["contracts", "tokens"]).flatmap(lambda t: st.builds(NullBlockHash, st.just(t), _key(t))),
    st.builds(UpdateBalance, st.binary(min_size=20, max_size=20), st.one_of(st.just(0), st.integers(-(2**260), 2**260))),
)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(_MUTATIONS, max_size=8),
    kind=st.sampled_from(["load", "upsert", "expire"]),
    index=st.integers(0, 10**6),
    lo=st.integers(0, 10**9),
)
def test_render_sql_equals_the_reference_renderer(ops, kind, index, lo):
    batch = Batch(index, kind, lo, lo + index, tuple(ops))
    assert render_sql(batch) == reference_render(batch)


def test_write_workload_files(tmp_path):
    ds = generate(SynthConfig(seed=16, n_blocks=40, mean_tx_per_block=3, address_pool=20, n_tokens=2))
    manifest = write_workload(ds, WorkloadConfig(init_blocks=20, granularity=5, expire=True), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "scripts.json", "workload.sql"]
    assert list(read_scripts(tmp_path)) == [
        "load.sql",
        *(f"{kind}-{i:06d}.sql" for i in range(1, 5) for kind in ("expire", "upserts")),
    ]
    assert len(manifest.batches) == 4
    assert [names for _, names in manifest.units()] == [
        ["load.sql"],
        *([f"expire-{i:06d}.sql", f"upserts-{i:06d}.sql"] for i in range(1, 5)),
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_blocks=st.integers(2, 24),
    init=st.floats(0, 1),
    granularity=st.integers(1, 6),
    expire=st.booleans(),
)
def test_each_script_read_back_through_the_index_is_its_rendered_batch(seed, n_blocks, init, granularity, expire):
    ds = generate(SynthConfig(seed=seed, n_blocks=n_blocks, mean_tx_per_block=3, address_pool=15, n_tokens=3))
    cfg = WorkloadConfig(1 + round(init * (n_blocks - 2)), granularity, expire)
    load = gen_initial(ds, cfg)
    pairs, manifest = gen_batches(ds, cfg)
    batches = [load, *(b for pair in pairs for b in (pair.expire, pair.upsert) if b is not None)]
    rendered = {script_name(b.kind, b.index): render_sql(b) for b in batches}
    with tempfile.TemporaryDirectory() as tmp:
        assert write_workload(ds, cfg, tmp) == manifest
        scripts = read_scripts(Path(tmp))
        whole = (Path(tmp) / "workload.sql").read_bytes()
    assert list(rendered) == [name for _, names in manifest.units() for name in names]
    assert scripts == rendered
    assert whole == "".join(rendered.values()).encode()


def test_write_workload_finishes_a_file_the_kernel_writes_in_parts(monkeypatch, tmp_path):
    ds = generate(SynthConfig(seed=16, n_blocks=40, mean_tx_per_block=3, address_pool=20, n_tokens=2))
    cfg = WorkloadConfig(init_blocks=20, granularity=5, expire=True)
    write_workload(ds, cfg, tmp_path / "whole")
    real = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real(fd, data[:1000]))
    write_workload(ds, cfg, tmp_path / "parts")
    monkeypatch.undo()
    whole = {p.name: p.read_bytes() for p in (tmp_path / "whole").iterdir()}
    assert max(map(len, whole.values())) > 1000
    assert {p.name: p.read_bytes() for p in (tmp_path / "parts").iterdir()} == whole
