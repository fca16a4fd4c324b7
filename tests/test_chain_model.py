import random
from dataclasses import replace

import pytest

from chainbench.chain_model import (
    ChainDataset,
    FormatError,
    decode_hex,
    encode_hex,
    validate_dataset,
)
from chainbench.synth_chain import SynthConfig, generate

from util import addr, hsh, make_tx, tiny_dataset, with_balance


def test_decode_hex_identity():
    value = decode_hex("0x" + "00" * 31 + "01", 32)
    assert len(value) == 32
    assert value[-1] == 0x01
    assert value[:-1] == b"\x00" * 31


def test_decode_hex_short_input_rejected():
    with pytest.raises(FormatError):
        decode_hex("0xabc", 20)


def test_decode_hex_requires_prefix_and_hex_digits():
    with pytest.raises(FormatError):
        decode_hex("ff" * 20, 20)
    with pytest.raises(FormatError):
        decode_hex("0x" + "zz" * 20, 20)


@pytest.mark.parametrize("text, n", [("0x" + "ab" * 31 + "  ", 32), ("0x 12 ", 2), ("0x\t12\n", 2)])
def test_decode_hex_refuses_whitespace_among_the_digits(text, n):
    # bytes.fromhex skips ASCII whitespace, so these would decode short.
    with pytest.raises(FormatError, match="non-hex digit"):
        decode_hex(text, n)


def test_decode_hex_error_names_field():
    with pytest.raises(FormatError, match="miner"):
        decode_hex("0x00", 20, field_name="miner")


def test_hex_round_trip_property():
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.choice((4, 20, 32))
        raw = rng.randbytes(n)
        text = "0x" + "".join(
            ch.upper() if rng.random() < 0.5 else ch for ch in raw.hex()
        )
        decoded = decode_hex(text, n)
        assert decoded == raw  # reference codec agreement
        assert encode_hex(decoded) == text.lower()


def test_validate_empty_dataset():
    ds = ChainDataset((), (), (), (), (), (), ())
    assert validate_dataset(ds).ok


def test_validate_tiny_dataset_clean():
    assert validate_dataset(tiny_dataset()).ok


def test_validate_dangling_transaction_block():
    ds = tiny_dataset()
    bad = ds.transactions[0]._replace(block_hash=hsh(99))
    ds2 = replace(ds, transactions=(bad,) + ds.transactions[1:])
    report = validate_dataset(ds2)
    assert any(v.table == "transactions" and v.rule == "block_hash dangling" for v in report.violations)


def test_validate_duplicate_block_number():
    ds = tiny_dataset()
    dup = ds.blocks[0]._replace(hash=hsh(50))
    ds2 = replace(ds, blocks=ds.blocks + (dup,))
    report = validate_dataset(ds2)
    assert any(v.rule == "duplicate number" for v in report.violations)


def test_validate_nonce_gap():
    ds = tiny_dataset()
    a9 = addr(9)
    from chainbench.chain_model import AddressRow

    txs = ds.transactions + (
        make_tx(10, 0, a9, addr(1), 1, nonce=4, index=0),
        make_tx(11, 2, a9, addr(1), 1, nonce=6, index=1),  # skips nonce 5
    )
    ds2 = replace(
        ds,
        transactions=txs,
        addresses=ds.addresses + (AddressRow(a9, 100),),
    )
    report = validate_dataset(ds2)
    assert any(v.rule == "nonce not consecutive" for v in report.violations)


def test_validate_decreasing_timestamps():
    ds = tiny_dataset()
    blocks = (ds.blocks[0], ds.blocks[1]._replace(timestamp=10), ds.blocks[2])
    report = validate_dataset(replace(ds, blocks=blocks))
    assert any(v.rule == "timestamps decrease" for v in report.violations)


def test_validate_negative_balance():
    ds = tiny_dataset()
    report = validate_dataset(with_balance(ds, addr(1), -5))
    assert any((v.table, v.rule) == ("addresses", "eth_balance out of range") for v in report.violations)


def test_synthetic_dataset_has_no_violations():
    ds = generate(SynthConfig(seed=5, n_blocks=100, mean_tx_per_block=10, address_pool=50, n_tokens=6))
    assert validate_dataset(ds).ok
