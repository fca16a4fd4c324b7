import csv
import hashlib
import tempfile
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench import ingest_slice
from chainbench.chain_model import (
    ROW_TYPES,
    SCHEMA,
    AddressRow,
    Block,
    ChainDataset,
    Contract,
    FormatError,
    Token,
    TokenTransaction,
    Transaction,
    Withdrawal,
    encode_hex,
    validate_dataset,
)
from chainbench.ingest_slice import (
    BalanceLedger,
    ExportError,
    block_bundles,
    build_ledger,
    extract_slice,
    read_export,
    write_export,
)
from chainbench.synth_chain import SynthConfig, generate

from util import addr, filtered_slice, per_address_warnings, rollback_balances, tiny_dataset, with_balance


def test_export_round_trip(small_dataset, tmp_path):
    ds = small_dataset
    write_export(ds, tmp_path)
    raw = read_export(tmp_path)
    for table in ("blocks", "addresses", "transactions", "contracts", "tokens", "token_transactions", "withdrawals"):
        assert raw.table(table) == ds.table(table), table
    assert raw.final_block == ds.final_block


def test_export_empty_dataset(tmp_path):
    ds = ChainDataset((), (), (), (), (), (), ())
    manifest = write_export(ds, tmp_path)
    assert manifest["tables"] == {t: 0 for t in manifest["tables"]}
    for name in ("blocks", "addresses", "transactions", "contracts", "tokens", "token_transactions", "withdrawals"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
    raw = read_export(tmp_path)
    assert raw.blocks == () and raw.addresses == () and raw.final_block == 0


def test_missing_table_file(small_dataset, tmp_path):
    write_export(small_dataset, tmp_path)
    (tmp_path / "blocks.csv").unlink()
    with pytest.raises(ExportError, match="table blocks: file not found"):
        read_export(tmp_path)


def test_scientific_notation_rejected(small_dataset, tmp_path):
    write_export(small_dataset, tmp_path)
    path = tmp_path / "addresses.csv"
    lines = path.read_text().splitlines()
    first_cols = lines[1].split(",")
    lines[1] = ",".join([first_cols[0], "1e18"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ExportError, match="not a plain decimal integer"):
        read_export(tmp_path)


def test_malformed_row_reports_location(small_dataset, tmp_path):
    write_export(small_dataset, tmp_path)
    path = tmp_path / "blocks.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace("0x", "0q", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ExportError, match=r"blocks\.csv:3"):
        read_export(tmp_path)


def test_extract_single_block():
    ds = tiny_dataset()
    sl = extract_slice(ds, 1, 1)
    assert [b.number for b in sl.blocks] == [1]
    assert len(sl.transactions) == 2  # both block-1 transactions
    assert validate_dataset(sl).ok


def test_token_created_before_slice_gets_null_link():
    ds = tiny_dataset()  # token created in block 0, transacted in block 1
    sl = extract_slice(ds, 1, 2)
    assert len(sl.tokens) == 1
    assert sl.tokens[0].block_hash is None
    assert len(sl.contracts) == 1
    assert sl.contracts[0].block_hash is None
    assert validate_dataset(sl).ok


def test_extract_empty_slice_errors():
    ds = tiny_dataset()
    with pytest.raises(ExportError, match="slice empty"):
        extract_slice(ds, 50, 60)


def test_slice_partition_covers_export(tmp_path):
    ds = generate(SynthConfig(seed=12, n_blocks=300, mean_tx_per_block=6, address_pool=50, n_tokens=5))
    write_export(ds, tmp_path)
    raw = read_export(tmp_path)
    first = extract_slice(raw, 0, 149)
    second = extract_slice(raw, 150, 299)
    a = {t.hash for t in first.transactions}
    b = {t.hash for t in second.transactions}
    assert not (a & b)
    assert a | b == {t.hash for t in raw.transactions}


def test_slice_idempotence(small_dataset):
    sl = extract_slice(small_dataset, 10, 39)
    assert extract_slice(sl, 10, 39) == sl


def test_closure_minimality(small_dataset):
    sl = extract_slice(small_dataset, 20, 50)
    block_hashes = {b.hash for b in sl.blocks}
    used_tokens = {tt.token_address for tt in sl.token_transactions}
    for tk in sl.tokens:
        assert tk.address in used_tokens or tk.block_hash in block_hashes
    touched = {t.from_address for t in sl.transactions}
    touched |= {t.to_address for t in sl.transactions if t.to_address is not None}
    for c in sl.contracts:
        assert c.address in touched or c.address in used_tokens or c.block_hash in block_hashes


def test_slice_balances_roll_back(small_dataset):
    ds = small_dataset
    ledger = build_ledger(ds)
    sl = extract_slice(ds, 0, 29)
    at_29 = ledger.balances_at(29)
    for row in sl.addresses:
        assert row.eth_balance == at_29.get(row.address, 0)


def test_ledger_constant_for_inactive_address():
    ds = tiny_dataset()
    ledger = build_ledger(ds)
    quiet = addr(3)  # token contract: no value ever flows through it
    assert ledger.balances_at(0)[quiet] == ledger.balances_at(2)[quiet] == dict(ds.addresses)[quiet]


def test_ledger_single_transfer_delta():
    ds = tiny_dataset()
    ledger = build_ledger(ds)
    a1 = addr(1)
    # Before block 1's transfer of 50 out (and 20 back at block 2):
    assert ledger.balances_at(0)[a1] == dict(ds.addresses)[a1] + 50 - 20


def test_ledger_forward_replay(small_dataset):
    ds = small_dataset
    ledger = build_ledger(ds)
    first, last = ds.block_range
    start, net = ledger.balances_at(first - 1), ledger.touched_in_range(first, last)
    for a, balance in ds.addresses:
        assert start.get(a, 0) + net.get(a, 0) == balance


def test_ledger_warns_on_inconsistent_snapshot():
    ds = tiny_dataset()
    # Claim a1 ends with less than it spent: its pre-transfer balance goes negative.
    bad = with_balance(ds, addr(1), 10)
    ledger = build_ledger(bad)
    warnings = ledger.consistency_warnings()
    assert any(a == addr(1) for a, _ in warnings)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_blocks=st.integers(1, 25), start=st.integers(0, 5))
def test_ledger_lookups_equal_a_naive_scan(seed, n_blocks, start):
    ds = generate(
        SynthConfig(seed=seed, n_blocks=n_blocks, start_number=start, mean_tx_per_block=4, address_pool=12, n_tokens=2)
    )
    ledger = build_ledger(ds)
    # Every (block, delta) an address sees, read off the rows one at a time.
    number = {b.hash: b.number for b in ds.blocks}
    snapshot = dict(ds.addresses)
    flows: dict[bytes, list[tuple[int, int]]] = {a: [] for a in snapshot}
    for t in ds.transactions:
        flows.setdefault(t.from_address, []).append((number[t.block_hash], -t.value))
        if t.to_address is not None:
            flows.setdefault(t.to_address, []).append((number[t.block_hash], t.value))
    for w in ds.withdrawals:
        flows.setdefault(w.address, []).append((number[w.hash], w.amount))
    flows[b"\xee" * 20] = []
    first, last = ds.block_range
    blocks = range(first - 2, last + 3)
    for lo in blocks:
        at = ledger.balances_at(lo)
        for a, entries in flows.items():
            assert at.get(a, 0) == snapshot.get(a, 0) - sum(d for b, d in entries if b > lo)
        for hi in blocks:
            in_range = {a: sum(d for b, d in entries if lo <= b <= hi) for a, entries in flows.items()}
            assert ledger.touched_in_range(lo, hi) == {a: d for a, d in in_range.items() if d}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_a_ledger_does_not_depend_on_row_order(seed, data):
    # build_ledger sorts nothing per address: its one walk goes over the
    # blocks in order, whatever order the rows come in.
    ds = generate(SynthConfig(seed=seed, n_blocks=12, mean_tx_per_block=4, address_pool=10, n_tokens=2))
    shuffled = replace(
        ds,
        transactions=tuple(data.draw(st.permutations(ds.transactions))),
        withdrawals=tuple(data.draw(st.permutations(ds.withdrawals))),
    )
    ledger, again = build_ledger(ds), build_ledger(shuffled)
    # Within a block the entries follow the block's rows in index order;
    # across blocks they ascend.
    assert {blk: sorted(entries) for blk, entries in again.by_block.items()} == {
        blk: sorted(entries) for blk, entries in ledger.by_block.items()
    }
    assert list(again.by_block) == list(ledger.by_block) == sorted(ledger.by_block)
    first, last = ds.block_range
    for lo in range(first - 1, last + 2):
        assert again.balances_at(lo) == ledger.balances_at(lo)
        for hi in range(lo, last + 2):
            assert again.touched_in_range(lo, hi) == ledger.touched_in_range(lo, hi)
    assert sorted(again.consistency_warnings()) == sorted(ledger.consistency_warnings())


def _by_block(deltas: dict[bytes, dict[int, int]]) -> dict[int, list[tuple[bytes, int]]]:
    """A ledger's per-block entries from drawn per-address deltas, blocks ascending."""
    by_block: dict[int, list[tuple[bytes, int]]] = {}
    for a, per_block in deltas.items():
        for blk, d in per_block.items():
            by_block.setdefault(blk, []).append((a, d))
    return dict(sorted(by_block.items()))


@settings(max_examples=100, deadline=None)
@given(
    deltas=st.dictionaries(
        st.binary(min_size=1, max_size=1),
        st.dictionaries(st.integers(0, 12), st.integers(-3, 3).filter(bool), min_size=1),
        max_size=6,
    ),
    lo=st.integers(-1, 13),
    hi=st.integers(-1, 13),
)
def test_touched_in_range_drops_addresses_whose_deltas_cancel(deltas, lo, hi):
    ledger = BalanceLedger({}, 0, _by_block(deltas))
    in_range = {a: sum(d for b, d in per_block.items() if lo <= b <= hi) for a, per_block in deltas.items()}
    assert ledger.touched_in_range(lo, hi) == {a: d for a, d in in_range.items() if d}
    at = ledger.balances_at(lo)
    for a in deltas:
        assert at.get(a, 0) == -sum(d for b, d in deltas[a].items() if b > lo)


@settings(max_examples=200, deadline=None)
@given(
    deltas=st.dictionaries(
        st.binary(min_size=1, max_size=1),
        st.dictionaries(st.integers(0, 12), st.integers(-4, 4).filter(bool), min_size=1),
        max_size=6,
    ),
    final=st.dictionaries(st.binary(min_size=1, max_size=1), st.integers(-3, 6), max_size=8),
    first_block=st.integers(-2, 0),  # at or before every delta's block
)
def test_ledger_warnings_equal_a_per_address_walk(deltas, final, first_block):
    # Small balances against deltas of the same size dip below zero often,
    # before the first delta as well as after any block.
    trajectories = {a: sorted(per_block.items()) for a, per_block in deltas.items()}
    expected = per_address_warnings(final, first_block, trajectories)
    warnings = BalanceLedger(final, first_block, _by_block(deltas)).consistency_warnings()
    assert len(warnings) == len(expected)
    assert set(warnings) == expected
    # One walk from the last block down: the pairs come newest first.
    assert [blk for _, blk in warnings] == sorted((blk for _, blk in warnings), reverse=True)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n_blocks=st.integers(1, 20), data=st.data())
def test_balances_at_and_rollback_equal_the_snapshot_minus_later_nets(seed, n_blocks, data):
    ds = generate(SynthConfig(seed=seed, n_blocks=n_blocks, mean_tx_per_block=4, address_pool=12, n_tokens=2))
    first, last = ds.block_range
    hi = data.draw(st.integers(first - 1, last + 1))

    def later_nets_undone(dataset):
        balances = dict(dataset.addresses)
        for blk, entries in build_ledger(dataset).by_block.items():
            if blk > hi:
                for a, d in entries:
                    balances[a] = balances.get(a, 0) - d
        return balances

    def same(got, want):
        return all(got.get(a, 0) == want.get(a, 0) for a in set(got) | set(want))

    block_number = {b.hash: b.number for b in ds.blocks}
    expected = later_nets_undone(ds)
    assert same(rollback_balances(ds, hi, block_number), expected)
    assert same(build_ledger(ds).balances_at(hi), expected)
    # A row whose block is not in block_number is skipped: the result is the
    # dataset's without that block's transactions and withdrawals.
    gone = data.draw(st.sampled_from(ds.blocks))
    rest = replace(
        ds,
        blocks=tuple(b for b in ds.blocks if b is not gone),
        transactions=tuple(t for t in ds.transactions if t.block_hash != gone.hash),
        withdrawals=tuple(w for w in ds.withdrawals if w.hash != gone.hash),
    )
    del block_number[gone.hash]
    assert same(rollback_balances(ds, hi, block_number), later_nets_undone(rest))


def _with_blocks_dropped(data, ds: ChainDataset) -> ChainDataset:
    """``ds`` less a drawn set of its blocks: their rows, and tokens and
    contracts they created, are left naming a block that is not there."""
    dropped = set(data.draw(st.sets(st.sampled_from([b.hash for b in ds.blocks]), max_size=3)))
    return replace(ds, blocks=tuple(b for b in ds.blocks if b.hash not in dropped))


_SLICED = dict(mean_tx_per_block=4, address_pool=12, n_tokens=3, withdrawal_rate=0.5, token_tx_prob=0.5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_blocks=st.integers(1, 20), start=st.integers(0, 5), data=st.data())
def test_a_slice_equals_the_filtered_slice_over_any_range(seed, n_blocks, start, data):
    ds = generate(SynthConfig(seed=seed, n_blocks=n_blocks, start_number=start, **_SLICED))
    ds = _with_blocks_dropped(data, ds)
    bounds = st.integers(start - 3, start + n_blocks + 2)
    lo, hi = data.draw(bounds), data.draw(bounds)

    def outcome(cut):
        try:
            return cut(ds, lo, hi)
        except ValueError as exc:  # ExportError too
            return type(exc), str(exc)

    assert outcome(extract_slice) == outcome(filtered_slice)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), n_blocks=st.integers(1, 20), data=st.data())
def test_the_bundles_partition_every_row_whose_parent_exists(seed, n_blocks, data):
    ds = _with_blocks_dropped(data, generate(SynthConfig(seed=seed, n_blocks=n_blocks, **_SLICED)))
    # Row order within a block is the bundles' to restore.
    shuffled = ("transactions", "withdrawals", "token_transactions")
    ds = replace(ds, **{table: tuple(data.draw(st.permutations(ds.table(table)))) for table in shuffled})
    bundles = block_bundles(ds)
    blocks = {b.hash for b in ds.blocks}
    kept_txs = {t.hash for t in ds.transactions if t.block_hash in blocks}
    assert [b.block for b in bundles] == sorted(ds.blocks, key=lambda b: b.number)
    for table, has_parent in (
        ("transactions", lambda t: t.block_hash in blocks),
        ("withdrawals", lambda w: w.hash in blocks),
        ("token_transactions", lambda tt: tt.transaction_hash in kept_txs),
        ("tokens", lambda tk: tk.block_hash in blocks),
        ("contracts", lambda c: c.block_hash in blocks),
    ):
        in_bundles = [row for b in bundles for row in getattr(b, table)]
        assert Counter(in_bundles) == Counter(filter(has_parent, ds.table(table))), table
    for bundle in bundles:
        block_hash = bundle.block.hash
        assert all(t.block_hash == block_hash for t in bundle.transactions)
        assert all(w.hash == block_hash for w in bundle.withdrawals)
        assert all(r.block_hash == block_hash for r in (*bundle.tokens, *bundle.contracts))
        position = {t.hash: i for i, t in enumerate(bundle.transactions)}
        for order in (
            [t.transaction_index for t in bundle.transactions],
            [w.withdrawal_index for w in bundle.withdrawals],
            [(position[tt.transaction_hash], tt.log_index) for tt in bundle.token_transactions],
        ):
            assert order == sorted(order)
        assert bundle.tokens == [tk for tk in ds.tokens if tk.block_hash == block_hash]
        assert bundle.contracts == [c for c in ds.contracts if c.block_hash == block_hash]
        net = Counter()
        for t in bundle.transactions:
            net[t.from_address] -= t.value
            net[t.to_address] += t.value
        for w in bundle.withdrawals:
            net[w.address] += w.amount
        assert dict(bundle.nets) == {a: d for a, d in net.items() if d and a is not None}


# sha256 over every file an export writes (name, NUL, bytes; by name). The
# loop below over the same export as written when it also held balances.csv
# gives 6e4e3f5e6b979278dde06f16bebaae26b6ef0bee0844c83597fa9ee7eab4e0d0 for
# all its files; this is that export's digest with balances.csv left out, so
# the seven table CSVs and manifest.json keep their bytes.
_EXPORT_CONFIG = dict(seed=19, n_blocks=40, mean_tx_per_block=6, address_pool=30, n_tokens=5)
_EXPORT_DIGEST = "57f245b5f32fcb52fb461a47f0a011c22265838e91dcd30a333512779d88552d"


def test_export_bytes_are_pinned(tmp_path):
    write_export(generate(SynthConfig(**_EXPORT_CONFIG)), tmp_path)
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\x00" + path.read_bytes())
    assert h.hexdigest() == _EXPORT_DIGEST


# One malformed cell per column kind (text takes any cell), in the first data
# row, and its error; the messages down to the non-ASCII digits were recorded
# before the CSV codec was compiled per column.
_MALFORMED = (
    ("blocks", "hash", "0x12", "blocks.csv:2: column hash: hash: expected 32 bytes (64 hex digits), got 2 digits"),
    ("blocks", "miner", "zz", "blocks.csv:2: column miner: miner: expected 0x-prefixed hex string, got 'zz'"),
    ("blocks", "extra_data", "0xzz", "blocks.csv:2: column extra_data: extra_data: non-hex digit in '0xzz'"),
    ("blocks", "extra_data", "12", "blocks.csv:2: column extra_data: extra_data: expected 0x-prefixed hex, got '12'"),
    ("blocks", "number", "1.5", "blocks.csv:2: column number: number: not a plain decimal integer: '1.5'"),
    ("blocks", "timestamp", "", "blocks.csv:2: column timestamp: timestamp: empty value in non-null column"),
    ("contracts", "is_erc20", "yes", "contracts.csv:2: column is_erc20: is_erc20: expected true/false, got 'yes'"),
    (
        "contracts",
        "function_sighashes",
        "0x12345678|0x12",
        "contracts.csv:2: column function_sighashes: function_sighashes: expected 4 bytes (8 hex digits), got 2 digits",
    ),
    (
        "contracts",
        "block_hash",
        "0x00",
        "contracts.csv:2: column block_hash: block_hash: expected 32 bytes (64 hex digits), got 2 digits",
    ),
    ("tokens", "decimals", "x", "tokens.csv:2: column decimals: decimals: not a plain decimal integer: 'x'"),
    (
        "transactions",
        "to_address",
        "0x" + "g" * 40,
        "transactions.csv:2: column to_address: to_address: non-hex digit in '0x" + "g" * 40 + "'",
    ),
    # bytes.fromhex skips ASCII whitespace; a cell holding some is refused.
    (
        "blocks",
        "hash",
        "0x" + "ab" * 31 + "  ",
        "blocks.csv:2: column hash: hash: non-hex digit in '0x" + "ab" * 31 + "  '",
    ),
    ("blocks", "extra_data", "0x 12", "blocks.csv:2: column extra_data: extra_data: non-hex digit in '0x 12'"),
    # Digits of other scripts pass str.isdigit, and int() reads some of them;
    # the decoder refuses them all.
    ("blocks", "size", "²", "blocks.csv:2: column size: size: not a plain decimal integer: '²'"),
    ("blocks", "size", "١٢", "blocks.csv:2: column size: size: not a plain decimal integer: '١٢'"),
)


@pytest.mark.parametrize("table,column,cell,message", _MALFORMED)
def test_a_malformed_cell_names_its_file_line_and_column(tmp_path, table, column, cell, message):
    write_export(generate(SynthConfig(**_EXPORT_CONFIG)), tmp_path)
    path = tmp_path / f"{table}.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    records[1][records[0].index(column)] = cell
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)
    with pytest.raises(ExportError) as info:
        read_export(tmp_path)
    assert str(info.value) == message


@pytest.mark.parametrize("cell", ["0x 12", "0x12 ", "0x\n12"])
def test_a_bytes_cell_with_whitespace_is_refused(cell):
    decode = ingest_slice._decoder("extra_data", "bytes")
    assert decode("0x12") == b"\x12"
    with pytest.raises(FormatError, match="non-hex digit"):
        decode(cell)


# Text holding the CSV and SQL specials (and a lone "\r", which csv before
# Python 3.13 does not quote by itself); UTF-8 files cannot hold lone surrogates,
# and an export refuses a NUL.
_TEXT = st.lists(
    st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
        st.sampled_from((",", '"', "\n", "\r", "\r\n", "|", "''", "0x")),
    ),
    max_size=5,
).map("".join)
_CELLS = {
    "hash": st.binary(min_size=32, max_size=32),
    "address": st.binary(min_size=20, max_size=20),
    "bytes": st.binary(max_size=12),
    "int": st.integers(-(2**300), 2**300),
    "bool": st.booleans(),
    "text": _TEXT,
    "sighashes": st.lists(st.binary(min_size=4, max_size=4), max_size=3).map(tuple),
}


def _cell(kind: str):
    base = _CELLS[kind.rstrip("?")]
    return st.one_of(st.none(), base) if kind.endswith("?") else base


def _rows(table: str):
    row = st.tuples(*(_cell(kind) for _, kind in SCHEMA[table])).map(ROW_TYPES[table]._make)
    return st.lists(row, max_size=4).map(tuple)


_DATASETS = st.builds(
    ChainDataset,
    **{table: _rows(table) for table in SCHEMA},
    final_block=st.integers(0, 2**40),
)


def _round_trip(ds: ChainDataset) -> ChainDataset:
    with tempfile.TemporaryDirectory() as out:
        write_export(ds, out)
        return read_export(out)


@settings(max_examples=150, deadline=None)
@given(ds=_DATASETS)
def test_export_round_trips_any_rows_of_every_table(ds):
    assert _round_trip(ds) == ds


# Fixed examples of the property above, runnable without hypothesis: nulls,
# empty and full sighashes, negative and 256-bit integers, and text with every
# special at once.
_SPECIAL_TEXT = "a,b \"q\" ''x'' | y\nz\r\nw\rv é"
_ROUND_TRIP_EXAMPLES = (
    ChainDataset((), (), (), (), (), (), ()),
    ChainDataset(
        blocks=(Block(b"\x01" * 32, -3, 2**256, b"", 0, 7, b"\x02" * 20),),
        addresses=(AddressRow(b"\x02" * 20, 2**255),),
        transactions=(
            Transaction(b"\x03" * 32, 0, 5, b"\x02" * 20, None, 21000, None, b"\x00\xff", b"\x01" * 32, 2, 9),
            Transaction(b"\x04" * 32, 1, 0, b"\x02" * 20, b"\x05" * 20, 1, 3, b"", b"\x01" * 32, 0, 10),
        ),
        contracts=(
            Contract(b"\x05" * 20, 1, (), b"\x60", True, False, None),
            Contract(b"\x05" * 20, 2, (b"\xaa\xbb\xcc\xdd", b"\x00" * 4), b"", False, True, b"\x01" * 32),
        ),
        tokens=(
            Token(b"\x05" * 20, _SPECIAL_TEXT, "", None, 0, None),
            Token(b"\x06" * 20, "|", "\r", 18, 10**30, b"\x01" * 32),
        ),
        token_transactions=(TokenTransaction(b"\x04" * 32, 0, b"\x05" * 20, 2**200),),
        withdrawals=(Withdrawal(b"\x01" * 32, 0, 4, b"\x02" * 20, 1),),
        final_block=2**40,
    ),
)


def test_export_round_trips_nulls_specials_and_empty_sighashes():
    for ds in _ROUND_TRIP_EXAMPLES:
        back = _round_trip(ds)
        assert back == ds
        for table in SCHEMA:
            assert all(type(row) is ROW_TYPES[table] for row in back.table(table))



@pytest.mark.parametrize("column", ["symbol", "name"])
def test_a_nul_in_text_is_refused_on_write_and_on_read(tmp_path, column):
    # Python 3.10's csv module can neither write nor read a NUL: every
    # version refuses one, naming the table, the row and the column.
    tokens = (Token(b"\x05" * 20, "TOK", "tok", 18, 1, None), Token(b"\x06" * 20, "TOK", "tok", 18, 1, None))
    ds = ChainDataset((), (), (), (), tokens, (), ())
    bad = replace(ds, tokens=(tokens[0], tokens[1]._replace(**{column: "a\x00b"})))
    with pytest.raises(ExportError) as info:
        write_export(bad, tmp_path / "refused")
    assert str(info.value) == f"table tokens: row 2: column {column}: holds a NUL character"
    assert not (tmp_path / "refused").exists()

    write_export(ds, tmp_path)
    path = tmp_path / "tokens.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[2].split(",")
    cells[SCHEMA["tokens"].index((column, "text"))] = "a\x00b"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ExportError) as info:
        read_export(tmp_path)
    assert str(info.value) == f"tokens.csv:3: column {column}: {column}: holds a NUL character"


def test_a_nul_in_any_other_cell_is_refused_on_read(tmp_path):
    write_export(generate(SynthConfig(**_EXPORT_CONFIG)), tmp_path)
    path = tmp_path / "blocks.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(",0x", ",0x\x00", 1), encoding="utf-8")
    with pytest.raises(ExportError, match=r"^blocks\.csv:2: column \w+: \w+: holds a NUL character$"):
        read_export(tmp_path)


def _edit_addresses(directory, edit) -> None:
    path = directory / "addresses.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join(edit(lines)), encoding="utf-8")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0], lines[1] + ",7", *lines[2:]], "addresses.csv:2: expected 2 fields, got 3"),
        (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]], "addresses.csv:2: expected 2 fields, got 1"),
        (
            lambda lines: [lines[0], lines[1].replace(",", ",\x00", 1), *lines[2:]],
            "addresses.csv:2: column eth_balance: eth_balance: holds a NUL character",
        ),
        (
            lambda lines: ["address,balance", *lines[1:]],
            "table addresses: bad header ['address', 'balance']",
        ),
    ],
    ids=["extra-field", "missing-field", "nul", "header"],
)
def test_a_malformed_table_file_is_refused_with_its_line(tmp_path, edit, message):
    write_export(generate(SynthConfig(**_EXPORT_CONFIG)), tmp_path)
    _edit_addresses(tmp_path, edit)
    with pytest.raises(ExportError) as info:
        read_export(tmp_path)
    assert str(info.value) == message


def test_without_a_manifest_the_snapshot_block_is_the_last_blocks(tmp_path):
    ds = generate(SynthConfig(**_EXPORT_CONFIG))
    write_export(ds, tmp_path)
    (tmp_path / "manifest.json").unlink()
    assert read_export(tmp_path) == ds
    assert ds.final_block == ds.block_range[1]
    write_export(ChainDataset((), (), (), (), (), (), ()), tmp_path / "empty")
    (tmp_path / "empty" / "manifest.json").unlink()
    assert read_export(tmp_path / "empty").final_block == 0


def test_an_export_with_the_older_balances_file_reads_the_same(tmp_path):
    # Exports once also wrote the snapshot as balances.csv (address,
    # eth_balance, as_of_block): such a file is ignored, not refused.
    ds = generate(SynthConfig(**_EXPORT_CONFIG))
    write_export(ds, tmp_path)
    rows = [f"{encode_hex(a)},{balance},{ds.final_block}" for a, balance in sorted(ds.addresses)]
    (tmp_path / "balances.csv").write_text("\n".join(["address,eth_balance,as_of_block", *rows, ""]), encoding="utf-8")
    assert read_export(tmp_path) == ds
