from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench.chain_model import ChainDataset, validate_dataset
from chainbench.ingest_slice import (
    BalanceLedger,
    ExportError,
    as_raw,
    build_ledger,
    extract_slice,
    read_export,
    write_export,
)
from chainbench.synth_chain import SynthConfig, generate

from util import addr, tiny_dataset


def test_export_round_trip(small_dataset, tmp_path):
    ds = small_dataset
    write_export(ds, tmp_path)
    raw = read_export(tmp_path)
    for table in ("blocks", "addresses", "transactions", "contracts", "tokens", "token_transactions", "withdrawals"):
        assert raw.table(table) == ds.table(table), table
    assert raw.snapshot_balances == ds.final_balances
    assert raw.snapshot_block == ds.final_block


def test_export_empty_dataset(tmp_path):
    ds = ChainDataset((), (), (), (), (), (), ())
    manifest = write_export(ds, tmp_path)
    assert manifest["tables"] == {t: 0 for t in manifest["tables"]}
    for name in ("blocks", "addresses", "transactions", "contracts", "tokens", "token_transactions", "withdrawals"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert len(lines) == 1  # header only
    raw = read_export(tmp_path)
    assert raw.blocks == () and raw.snapshot_balances == {}


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
    sl = extract_slice(as_raw(ds), 1, 1)
    assert [b.number for b in sl.blocks] == [1]
    assert len(sl.transactions) == 2  # both block-1 transactions
    assert validate_dataset(sl).ok


def test_token_created_before_slice_gets_null_link():
    ds = tiny_dataset()  # token created in block 0, transacted in block 1
    sl = extract_slice(as_raw(ds), 1, 2)
    assert len(sl.tokens) == 1
    assert sl.tokens[0].block_hash is None
    assert len(sl.contracts) == 1
    assert sl.contracts[0].block_hash is None
    assert validate_dataset(sl).ok


def test_extract_empty_slice_errors():
    ds = tiny_dataset()
    with pytest.raises(ExportError, match="slice empty"):
        extract_slice(as_raw(ds), 50, 60)


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
    sl = extract_slice(as_raw(small_dataset), 10, 39)
    assert extract_slice(sl, 10, 39) == sl


def test_closure_minimality(small_dataset):
    sl = extract_slice(as_raw(small_dataset), 20, 50)
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
    sl = extract_slice(as_raw(ds), 0, 29)
    for row in sl.addresses:
        assert row.eth_balance == ledger.balance_at(row.address, 29)


def test_ledger_constant_for_inactive_address():
    ds = tiny_dataset()
    ledger = build_ledger(ds)
    quiet = addr(3)  # token contract: no value ever flows through it
    assert ledger.balance_at(quiet, 0) == ledger.balance_at(quiet, 2) == ds.final_balances[quiet]


def test_ledger_single_transfer_delta():
    ds = tiny_dataset()
    ledger = build_ledger(ds)
    a1 = addr(1)
    # Before block 1's transfer of 50 out (and 20 back at block 2):
    assert ledger.balance_at(a1, 0) == ds.final_balances[a1] + 50 - 20


def test_ledger_forward_replay(small_dataset):
    ds = small_dataset
    ledger = build_ledger(ds)
    first, last = ds.block_range
    for a in ds.final_balances:
        start = ledger.balance_at(a, first - 1)
        assert start + ledger.delta_in_range(a, first, last) == ds.final_balances[a]


def test_ledger_warns_on_inconsistent_snapshot():
    ds = tiny_dataset()
    # Claim a1 ends with less than it spent: its pre-transfer balance goes negative.
    bad = replace(ds, final_balances={**ds.final_balances, addr(1): 10})
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
    first, last = ds.block_range
    blocks = range(first - 2, last + 3)
    addresses = sorted(set(ledger.deltas) | set(ds.final_balances)) + [b"\xee" * 20]
    for lo in blocks:
        for a in addresses:
            naive = ledger.final_balances.get(a, 0) - sum(d for b, d in ledger.deltas.get(a, ()) if b > lo)
            assert ledger.balance_at(a, lo) == naive
        for hi in blocks:
            in_range = {a: sum(d for b, d in e if lo <= b <= hi) for a, e in ledger.deltas.items()}
            assert ledger.touched_in_range(lo, hi) == {a: d for a, d in in_range.items() if d}
            for a in addresses:
                assert ledger.delta_in_range(a, lo, hi) == in_range.get(a, 0)


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
    ledger = BalanceLedger({}, 12, 0, {a: sorted(per_block.items()) for a, per_block in deltas.items()})
    in_range = {a: sum(d for b, d in per_block.items() if lo <= b <= hi) for a, per_block in deltas.items()}
    assert ledger.touched_in_range(lo, hi) == {a: d for a, d in in_range.items() if d}
    for a in deltas:
        assert ledger.delta_in_range(a, lo, hi) == in_range[a]
        assert ledger.balance_at(a, lo) == -sum(d for b, d in deltas[a].items() if b > lo)
