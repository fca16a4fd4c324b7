import json

import pytest

from chainbench import memstore, replay_driver
from chainbench.memstore import Store
from chainbench.replay_driver import (
    CheckpointMismatch,
    Hook,
    MemstoreTarget,
    ReplayError,
    SqlStubTarget,
    connect_target,
    manifest_hash,
    pacing_delays,
    read_checkpoint,
    read_manifest,
    replay,
)
from chainbench.synth_chain import SynthConfig, generate
from chainbench.workload_gen import WorkloadConfig, gen_batches, gen_initial, write_workload


@pytest.fixture()
def workload(tmp_path):
    ds = generate(SynthConfig(seed=61, n_blocks=40, mean_tx_per_block=6, address_pool=40, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=25, granularity=5, expire=True)
    write_workload(ds, cfg, tmp_path)
    return ds, cfg, tmp_path


def _expected_store(ds, cfg):
    store = Store()
    memstore.apply(store, gen_initial(ds, cfg))
    pairs, _ = gen_batches(ds, cfg)
    for pair in pairs:
        if pair.expire is not None:
            memstore.apply(store, pair.expire)
        memstore.apply(store, pair.upsert)
    return store


def test_replay_memstore_matches_structured(workload):
    ds, cfg, wdir = workload
    target = MemstoreTarget()
    report = replay(target, wdir)
    assert report.resumed_from is None
    assert report.applied[0]["file"] == "load.sql"
    assert {entry["index"] for entry in report.applied} == {0, 1, 2, 3}
    assert len(report.applied) == 7  # load + 3 expire/upsert pairs
    expected = _expected_store(ds, cfg)
    assert target.store.table_multisets() == expected.table_multisets()


def test_replay_sqlstub_target(workload):
    ds, cfg, wdir = workload
    target = SqlStubTarget()
    replay(target, wdir)
    expected = _expected_store(ds, cfg)
    assert target.engine.table_multisets() == expected.table_multisets()


def test_pacing_formula(workload):
    _, _, wdir = workload
    manifest = read_manifest(wdir)
    delays = pacing_delays(manifest, scale=12.0)
    # Blocks are 12 s apart and batches span 5 blocks: 60 s gaps, scale 12 -> 5 s.
    assert delays[0] == 0.0
    assert delays[1:] == [5.0, 5.0]


def test_realtime_mode_sleeps(workload):
    _, _, wdir = workload
    naps = []
    replay(MemstoreTarget(), wdir, mode="realtime", scale=12.0, sleep=naps.append)
    assert naps == [5.0, 5.0]


def test_hooks_run_after_load_and_each_batch(workload):
    _, _, wdir = workload
    seen = []
    replay(MemstoreTarget(), wdir, hooks=[Hook(lambda i, t: seen.append(i))])
    assert seen == [0, 1, 2, 3]


def test_hook_failure_halts(workload):
    _, _, wdir = workload

    def explode(i, target):
        if i == 1:
            raise RuntimeError("probe failed")

    with pytest.raises(ReplayError, match="hook failed after batch 1"):
        replay(MemstoreTarget(), wdir, hooks=[Hook(explode)])


def test_hook_failure_continue_flag(workload):
    _, _, wdir = workload

    def explode(i, target):
        raise RuntimeError("noisy probe")

    report = replay(MemstoreTarget(), wdir, hooks=[Hook(explode, continue_on_error=True)])
    assert len(report.hook_errors) == 4
    assert len(report.applied) == 7  # every file still applied


class FailingTarget(MemstoreTarget):
    """Raises on the first attempt to apply a chosen batch file."""

    def __init__(self, fail_on: str):
        super().__init__()
        self.fail_on = fail_on
        self.fired = False

    def apply_script(self, name, text):
        if name == self.fail_on and not self.fired:
            self.fired = True
            raise ReplayError(f"{name}: injected failure")
        super().apply_script(name, text)


def test_resume_applies_each_batch_exactly_once(workload):
    ds, cfg, wdir = workload
    target = FailingTarget("upserts-000002.sql")
    with pytest.raises(ReplayError, match="injected failure"):
        replay(target, wdir)
    ckpt = read_checkpoint(wdir)
    assert ckpt.last_batch == 1  # load + batch 1 committed before the crash
    assert ckpt.partial_files == ["expire-000002.sql"]  # pair was half-applied
    report = replay(target, wdir, from_checkpoint=True)
    assert report.resumed_from == 1
    assert [entry["file"] for entry in report.applied] == [
        "upserts-000002.sql",
        "expire-000003.sql",
        "upserts-000003.sql",
    ]
    expected = _expected_store(ds, cfg)
    assert target.store.table_multisets() == expected.table_multisets()


def test_mid_batch_failure_keeps_target_consistent(workload):
    ds, cfg, wdir = workload
    # Fail on the expire file before it mutates anything: the checkpoint still
    # names batch 2 and the resume replays the whole expire+upsert pair once.
    target = FailingTarget("expire-000003.sql")
    with pytest.raises(ReplayError):
        replay(target, wdir)
    assert read_checkpoint(wdir).last_batch == 2
    report = replay(target, wdir, from_checkpoint=True)
    assert [entry["index"] for entry in report.applied] == [3, 3]
    expected = _expected_store(ds, cfg)
    assert target.store.table_multisets() == expected.table_multisets()


def test_checkpoint_written_after_each_file_but_a_units_last(workload, monkeypatch):
    _, _, wdir = workload
    writes = []
    original = replay_driver._write_checkpoint

    def counted(path, ckpt):
        writes.append((ckpt.last_batch, ckpt.partial_files))
        original(path, ckpt)

    monkeypatch.setattr(replay_driver, "_write_checkpoint", counted)
    replay(MemstoreTarget(), wdir)
    # The load writes once, each expire+upsert batch twice: after its expire
    # file and when it completes.
    assert writes == [
        (0, []),
        (0, ["expire-000001.sql"]),
        (1, []),
        (1, ["expire-000002.sql"]),
        (2, []),
        (2, ["expire-000003.sql"]),
        (3, []),
    ]
    assert read_checkpoint(wdir).last_batch == 3


def test_checkpoint_mismatch_refuses(workload, tmp_path):
    ds, cfg, wdir = workload
    replay(MemstoreTarget(), wdir)
    manifest_file = wdir / "manifest.json"
    data = json.loads(manifest_file.read_text())
    data["granularity"] = 999
    manifest_file.write_text(json.dumps(data))
    with pytest.raises(CheckpointMismatch):
        replay(MemstoreTarget(), wdir, from_checkpoint=True)


def test_connect_target_kinds():
    assert isinstance(connect_target({"kind": "memstore"}), MemstoreTarget)
    assert isinstance(connect_target({"kind": "sqlstub"}), SqlStubTarget)
    with pytest.raises(ReplayError, match="no driver"):
        connect_target({"kind": "postgres"})


def test_capability_overrides_from_config():
    for capabilities in ({"can_refresh_stats": False}, {"can_fly": True}, {}):
        with pytest.raises(ReplayError, match="'capabilities' is not supported"):
            connect_target({"kind": "memstore", "capabilities": capabilities})


def test_manifest_hash_stable(workload):
    _, _, wdir = workload
    assert manifest_hash(wdir) == manifest_hash(wdir)
