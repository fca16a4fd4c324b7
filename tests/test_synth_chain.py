import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench.chain_model import SCHEMA, validate_dataset
from chainbench.ingest_slice import build_ledger
from chainbench.synth_chain import SynthConfig, ZipfSampler, generate


def test_block_numbering_and_timestamps():
    ds = generate(SynthConfig(seed=1, n_blocks=10, start_number=0, mean_tx_per_block=2, address_pool=20, n_tokens=2))
    assert [b.number for b in ds.blocks] == list(range(10))
    gaps = [b2.timestamp - b1.timestamp for b1, b2 in zip(ds.blocks, ds.blocks[1:])]
    assert gaps == [12] * 9


def test_custom_start_number():
    ds = generate(SynthConfig(seed=1, n_blocks=5, start_number=19_005_000, mean_tx_per_block=2, address_pool=20, n_tokens=2))
    assert [b.number for b in ds.blocks] == list(range(19_005_000, 19_005_005))
    assert ds.final_block == 19_005_004


def test_determinism_bit_identical():
    cfg = SynthConfig(seed=99, n_blocks=30, mean_tx_per_block=8, address_pool=40, n_tokens=5)
    assert generate(cfg) == generate(cfg)


def test_different_seeds_differ():
    cfg1 = SynthConfig(seed=1, n_blocks=10, mean_tx_per_block=5, address_pool=30, n_tokens=3)
    cfg2 = SynthConfig(seed=2, n_blocks=10, mean_tx_per_block=5, address_pool=30, n_tokens=3)
    assert generate(cfg1) != generate(cfg2)


def test_value_conservation(small_dataset):
    ds = small_dataset
    total_final = sum(row.eth_balance for row in ds.addresses)
    total_initial = 80 * 10**21  # pool size x initial balance of the fixture
    total_withdrawn = sum(w.amount for w in ds.withdrawals)
    assert total_final == total_initial + total_withdrawn


def test_addresses_table_matches_snapshot(small_dataset):
    ds = small_dataset
    assert len(dict(ds.addresses)) == len(ds.addresses)


def test_sender_skew():
    ds = generate(
        SynthConfig(seed=3, n_blocks=120, mean_tx_per_block=100, address_pool=1000, address_zipf_s=1.1, n_tokens=10)
    )
    assert len(ds.transactions) >= 10_000
    counts = Counter(t.from_address for t in ds.transactions)
    ordered = sorted(counts.values(), reverse=True)
    median = ordered[len(ordered) // 2]
    assert ordered[0] >= 5 * max(1, median)


def test_generated_dataset_valid_with_drift():
    cfg = SynthConfig(
        seed=8, n_blocks=80, mean_tx_per_block=10, address_pool=60, n_tokens=8,
        token_value_drift=0.01, token_value_mu0=8.0,
    )
    ds = generate(cfg)
    assert validate_dataset(ds).ok


def test_nonces_consecutive_per_sender(small_dataset):
    ds = small_dataset
    number_of = {b.hash: b.number for b in ds.blocks}
    per_sender: dict[bytes, list[tuple[int, int, int]]] = {}
    for t in ds.transactions:
        per_sender.setdefault(t.from_address, []).append(
            (number_of[t.block_hash], t.transaction_index, t.nonce)
        )
    for entries in per_sender.values():
        entries.sort()
        nonces = [n for _, _, n in entries]
        assert nonces == list(range(nonces[0], nonces[0] + len(nonces)))


def test_sender_balance_never_negative():
    ds = generate(SynthConfig(seed=4, n_blocks=50, mean_tx_per_block=20, address_pool=10, initial_balance=10**15, n_tokens=2))
    # Tiny initial balances force the cap to kick in; replay forward to verify.
    balances = {a: 10**15 for a in {r.address for r in ds.addresses}}
    number_of = {b.hash: b.number for b in ds.blocks}
    events = []
    for t in ds.transactions:
        events.append((number_of[t.block_hash], t.transaction_index, 0, t))
    for w in ds.withdrawals:
        events.append((number_of[w.hash], 10**9 + w.withdrawal_index, 1, w))
    for _, _, kind, row in sorted(events, key=lambda e: (e[0], e[1])):
        if kind == 0:
            balances[row.from_address] -= row.value
            assert balances[row.from_address] >= 0
            if row.to_address is not None:
                balances[row.to_address] += row.value
        else:
            balances[row.address] += row.amount
    assert balances == dict(ds.addresses)


def test_us_token_names_present():
    ds = generate(SynthConfig(seed=6, n_blocks=10, mean_tx_per_block=2, address_pool=100, n_tokens=40, us_name_fraction=0.3))
    with_us = [tk for tk in ds.tokens if "US" in tk.name]
    without_us = [tk for tk in ds.tokens if "US" not in tk.name]
    assert with_us and without_us


def test_zipf_sampler_prefix():
    import random

    z = ZipfSampler(10, 1.0)
    rng = random.Random(0)
    draws = [z.sample(rng, prefix=3) for _ in range(100)]
    assert set(draws) <= {0, 1, 2}


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_blocks=0)
    with pytest.raises(ValueError):
        SynthConfig(token_tx_prob=1.5)
    with pytest.raises(ValueError):
        SynthConfig(address_zipf_s=-0.1)


def test_an_empty_address_pool_is_refused_at_config_time():
    with pytest.raises(ValueError, match="address_pool must be >= 1: every block draws its miner from it"):
        SynthConfig(address_pool=0)
    ds = generate(SynthConfig(seed=1, n_blocks=3, mean_tx_per_block=2, address_pool=1, n_tokens=0))
    assert len({b.miner for b in ds.blocks}) == 1


def _feed_dataset(h, ds) -> None:
    # Cell tuples in SCHEMA order, so the digest does not depend on the row class.
    for table, cols in SCHEMA.items():
        for row in ds.table(table):
            h.update(repr(tuple(getattr(row, name) for name, _ in cols)).encode())
    h.update(repr(sorted(dict(ds.addresses).items())).encode())
    h.update(repr(ds.final_block).encode())


# Configs that between them reach every branch of generate: the bench
# drift-window dataset (seed 7), drifting token values, no nonce offsets and no
# withdrawals, and no tokens with every address a contract.
_PINNED = (
    (
        dict(seed=7, n_blocks=1000, mean_tx_per_block=20, address_pool=800,
             token_value_drift=0.00125, token_value_mu0=7.0),
        "516f775f7dfd2f7de52e269a1fd2db139ada2b6da31ff7ac624afae6054dc954",
    ),
    (
        dict(seed=7, n_blocks=120, mean_tx_per_block=12, address_pool=60,
             token_value_drift=0.01, token_value_mu0=7.0),
        "1172b73d7165546b65565e3d1f46278a5026749400d28beea6678d8955e4bbb9",
    ),
    (
        dict(seed=3, n_blocks=80, mean_tx_per_block=5, address_pool=25, n_tokens=4,
             nonce_offset_max=0, withdrawal_rate=0.0),
        "133a07ce9d13da5579910c158ee7ca9bf7fa10610bd957d39afafc816c2be6e6",
    ),
    (
        dict(seed=11, n_blocks=50, mean_tx_per_block=3, address_pool=10, n_tokens=0,
             contract_fraction=1.0),
        "e194d3ec7485dd5f5f7bd263b63f1092583af90826563c9f191c8de8b2900990",
    ),
)


@pytest.mark.parametrize("config,digest", _PINNED, ids=["drift-window", "drift", "no-offsets", "no-tokens"])
def test_generate_output_is_pinned(config, digest):
    h = hashlib.sha256()
    _feed_dataset(h, generate(SynthConfig(**config)))
    assert h.hexdigest() == digest


@st.composite
def _small_configs(draw):
    drift = draw(st.booleans())
    return SynthConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_blocks=draw(st.integers(1, 30)),
        start_number=draw(st.sampled_from((0, 19_000_000))),
        mean_tx_per_block=draw(st.integers(0, 12)),
        address_pool=draw(st.integers(1, 30)),
        n_tokens=draw(st.integers(0, 5)),
        withdrawal_rate=draw(st.floats(0.0, 3.0)),
        nonce_offset_max=draw(st.sampled_from((0, 1, 1000, 10_000_000))),
        token_value_drift=draw(st.floats(0.001, 0.05)) if drift else 0.0,
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_small_configs())
def test_generated_dataset_is_valid_and_its_ledger_spans_initial_to_final(cfg):
    ds = generate(cfg)
    assert validate_dataset(ds).ok
    ledger = build_ledger(ds)
    initial, final = ledger.balances_at(cfg.start_number - 1), ledger.balances_at(ds.final_block)
    for row in ds.addresses:
        assert initial.get(row.address, 0) == cfg.initial_balance
        assert final.get(row.address, 0) == row.eth_balance
