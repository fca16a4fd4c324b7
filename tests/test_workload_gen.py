import hashlib
import json

import pytest

from chainbench import memstore, workload_gen
from chainbench.chain_model import validate_dataset
from chainbench.memstore import Store, UpdateBalance
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import (
    Batch,
    WorkloadConfig,
    WorkloadError,
    gen_batches,
    gen_initial,
    render_sql,
    write_workload,
)

from util import addr


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
    assert memstore.snapshot_blocks(store) == list(range(1, 1001))


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
        assert len(memstore.snapshot_blocks(store)) == 50


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
    previous = set(memstore.snapshot_blocks(store))
    for i, pair in enumerate(pairs, start=1):
        memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
        current = set(memstore.snapshot_blocks(store))
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
        assert memstore.snapshot_blocks(store) == list(range(info.hi - 9, info.hi + 1))


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
    # gen_batches seeds its visibility tracker from its own block indexes, so
    # only gen_initial's load takes the (balance-rolling) initial slice.
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
        assert memstore.snapshot_blocks(store) == list(range(0, 30 + 10 * i))


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
    for address, balance in store.balances.items():
        assert balance == ds.final_balances[address]


def test_render_empty_batch():
    text = render_sql(Batch(index=3, kind="upsert", block_lo=5, block_hi=5, ops=()))
    lines = [l for l in text.splitlines() if not l.startswith("--")]
    assert lines == ["BEGIN;", "COMMIT;"]


def test_render_balance_update_directions():
    up = render_sql(Batch(1, "upsert", 0, 0, (UpdateBalance(addr(1), 42),)))
    down = render_sql(Batch(1, "upsert", 0, 0, (UpdateBalance(addr(1), -42),)))
    assert f"SET eth_balance = eth_balance + 42 WHERE address = '\\x{addr(1).hex()}'::bytea;" in up
    assert "SET eth_balance = eth_balance - 42" in down


def test_render_rejects_unknown_dialect():
    with pytest.raises(WorkloadError, match="dialect"):
        render_sql(Batch(1, "upsert", 0, 0, ()), dialect="oracle")


def test_write_workload_files(tmp_path):
    ds = generate(SynthConfig(seed=16, n_blocks=40, mean_tx_per_block=3, address_pool=20, n_tokens=2))
    manifest = write_workload(ds, WorkloadConfig(init_blocks=20, granularity=5, expire=True), tmp_path)
    assert (tmp_path / "load.sql").exists()
    assert sorted(p.name for p in tmp_path.glob("upserts-*.sql")) == [
        f"upserts-{i:06d}.sql" for i in range(1, 5)
    ]
    assert sorted(p.name for p in tmp_path.glob("expire-*.sql")) == [
        f"expire-{i:06d}.sql" for i in range(1, 5)
    ]
    assert (tmp_path / "manifest.json").exists()
    assert len(manifest.batches) == 4
