import dataclasses
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainbench import memstore, replay_driver
from chainbench.memstore import Store
from chainbench.replay_driver import (
    CheckpointMismatch,
    Hook,
    MemstoreTarget,
    ReplayCheckpoint,
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
from chainbench.workload_gen import Manifest, WorkloadConfig, gen_batches, gen_initial, write_workload

from util import read_scripts, write_scripts


def _write_test_workload(path):
    ds = generate(SynthConfig(seed=61, n_blocks=40, mean_tx_per_block=6, address_pool=40, n_tokens=4))
    cfg = WorkloadConfig(init_blocks=25, granularity=5, expire=True)
    write_workload(ds, cfg, path)
    return ds, cfg, path


@pytest.fixture()
def workload(tmp_path):
    return _write_test_workload(tmp_path)


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


def test_every_script_reaches_the_patched_parse_script_and_to_mutations(workload, monkeypatch):
    # The bench tracer wraps replay_driver.parse_script and
    # replay_driver.to_mutations; MemstoreTarget must look both names up when
    # it is called, and parse_script must return a list.
    calls = []

    def spy(site, real):
        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((site, type(result)))
            return result

        return wrapper

    monkeypatch.setattr(replay_driver, "parse_script", spy("parse_script", replay_driver.parse_script))
    monkeypatch.setattr(replay_driver, "to_mutations", spy("to_mutations", replay_driver.to_mutations))
    _, _, wdir = workload
    report = replay(MemstoreTarget(), wdir)
    files = len(report.applied)
    assert calls == [("parse_script", list), ("to_mutations", list)] * files


def test_replay_sqlstub_target(workload):
    ds, cfg, wdir = workload
    target = SqlStubTarget()
    replay(target, wdir)
    expected = _expected_store(ds, cfg)
    assert target.engine.table_multisets() == expected.table_multisets()


# Token text the replay must store exactly as written: carriage returns,
# alone and before a newline, doubled quotes and non-ASCII characters.
_RAW_TEXTS = ("na\r\nme", "sym\rbol", "it''s", "\u00e9t\u00e9 \u20ac", "\r", "a'\r\n'b")


@pytest.mark.parametrize("target_class", [MemstoreTarget, SqlStubTarget])
def test_replay_keeps_carriage_returns_and_non_ascii_in_text(tmp_path, target_class):
    ds = generate(SynthConfig(seed=61, n_blocks=40, mean_tx_per_block=6, address_pool=40, n_tokens=8))
    tokens = tuple(
        tk._replace(symbol=_RAW_TEXTS[i % len(_RAW_TEXTS)], name=_RAW_TEXTS[(i + 1) % len(_RAW_TEXTS)])
        for i, tk in enumerate(ds.tokens)
    )
    ds = dataclasses.replace(ds, tokens=tokens)
    cfg = WorkloadConfig(init_blocks=25, granularity=5, expire=True)
    write_workload(ds, cfg, tmp_path)
    target = target_class()
    replay(target, tmp_path)
    expected = _expected_store(ds, cfg).table_multisets()
    assert any("\r" in row[2] for row in expected["tokens"])  # the text reaches the files
    got = target.store.table_multisets() if target_class is MemstoreTarget else target.engine.table_multisets()
    assert got == expected


@pytest.mark.parametrize("target_class", [MemstoreTarget, SqlStubTarget])
def test_a_hand_written_script_with_crlf_line_endings_replays(tmp_path, target_class):
    manifest = Manifest(initial_lo=0, initial_hi=0, granularity=1, expire=False, batches=[])
    one, two = "'\\x" + "01" * 20 + "'::bytea", "'\\x" + "02" * 20 + "'::bytea"
    script = [
        "-- written by hand, with CRLF line endings",
        "BEGIN;",
        f"INSERT INTO Addresses (address, eth_balance) VALUES ({one}, 5);",
        f"INSERT INTO Addresses (address, eth_balance) VALUES ({two}, 0);",
        f"UPDATE Addresses SET eth_balance = eth_balance - 2 WHERE address = {one};",
        "COMMIT;",
    ]
    write_scripts(tmp_path, [("load.sql", "\r\n".join(script) + "\r\n")], manifest)
    target = target_class()
    report = replay(target, tmp_path)
    assert [entry["file"] for entry in report.applied] == ["load.sql"]
    got = target.store.table_multisets() if target_class is MemstoreTarget else target.engine.table_multisets()
    assert got["addresses"] == {(b"\x01" * 20, 3): 1, (b"\x02" * 20, 0): 1}


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
    replay(MemstoreTarget(), wdir, realtime=12.0, sleep=naps.append)
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


def _log_records(wdir) -> list[tuple[int, list[str]]]:
    lines = (wdir / "replay.ckpt.json").read_text(encoding="utf-8").splitlines()
    return [(record["last_batch"], record["partial_files"]) for record in map(json.loads, lines)]


def test_checkpoint_written_after_each_file_but_a_units_last(workload):
    _, _, wdir = workload
    replay(MemstoreTarget(), wdir)
    # The load writes once, each expire+upsert batch twice: after its expire
    # file and when it completes.
    assert _log_records(wdir) == [
        (0, []),
        (0, ["expire-000001.sql"]),
        (1, []),
        (1, ["expire-000002.sql"]),
        (2, []),
        (2, ["expire-000003.sql"]),
        (3, []),
    ]
    assert read_checkpoint(wdir).last_batch == 3


def test_fresh_replay_discards_the_previous_runs_checkpoint(workload):
    ds, cfg, wdir = workload
    replay(MemstoreTarget(), wdir)
    assert read_checkpoint(wdir).last_batch == 3
    # A new run on a new target fails in its load: the finished run's
    # checkpoint must not survive it, or a resume would skip every file.
    target = FailingTarget("load.sql")
    with pytest.raises(ReplayError, match="injected failure"):
        replay(target, wdir)
    assert read_checkpoint(wdir) is None
    report = replay(target, wdir, from_checkpoint=True)
    assert report.resumed_from is None
    assert [entry["file"] for entry in report.applied][0] == "load.sql"
    assert len(report.applied) == 7
    expected = _expected_store(ds, cfg)
    assert target.store.table_multisets() == expected.table_multisets()


def _spy_checkpoint_io(monkeypatch, wdir):
    """Record the descriptors opened on and closed for the checkpoint log,
    and every rename, while a replay runs."""
    path = os.fspath(wdir / "replay.ckpt.json")
    opened, closed, renamed = [], [], []
    real_open, real_close = os.open, os.close

    def spy_open(file, flags, *args, **kwargs):
        fd = real_open(file, flags, *args, **kwargs)
        if os.fspath(file) == path:
            opened.append(fd)
        return fd

    def spy_close(fd):
        if fd in opened:
            closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "close", spy_close)
    monkeypatch.setattr(os, "replace", lambda *args, **kwargs: renamed.append(args))
    monkeypatch.setattr(Path, "replace", lambda self, target: renamed.append((self, target)))
    return opened, closed, renamed


def _explode_after_batch_1(index, target):
    if index == 1:
        raise RuntimeError("probe failed")


@pytest.mark.parametrize("outcome", ["success", "target-error", "hook-failure", "resume"])
def test_a_replay_opens_the_checkpoint_log_once_and_renames_nothing(workload, monkeypatch, outcome):
    _, _, wdir = workload
    target, hooks, resume = MemstoreTarget(), (), False
    if outcome == "target-error":
        target = FailingTarget("upserts-000002.sql")
    elif outcome == "hook-failure":
        hooks = [Hook(_explode_after_batch_1)]
    elif outcome == "resume":
        target = FailingTarget("upserts-000002.sql")
        with pytest.raises(ReplayError):
            replay(target, wdir)
        resume = True
    opened, closed, renamed = _spy_checkpoint_io(monkeypatch, wdir)
    if outcome in ("target-error", "hook-failure"):
        with pytest.raises(ReplayError):
            replay(target, wdir, hooks=hooks)
    else:
        replay(target, wdir, from_checkpoint=resume)
    assert len(opened) == 1
    assert closed == opened
    assert renamed == []


def _write_log(path, records) -> list[int]:
    """Write ``records`` as a checkpoint log; the offset where each one ends."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    ends = []
    try:
        for record in records:
            replay_driver._append_checkpoint(fd, record)
            ends.append(os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)
    return ends


_RECORDS = st.lists(
    st.builds(
        ReplayCheckpoint,
        st.text(max_size=8),
        st.integers(-1, 10**6),
        st.lists(st.text(max_size=12), max_size=2),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(records=_RECORDS)
def test_a_torn_log_reads_as_its_last_complete_record(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "replay.ckpt.json"
        ends = _write_log(path, records)
        for cut in range(path.stat().st_size, -1, -1):
            os.truncate(path, cut)
            complete = [record for record, end in zip(records, ends) if end <= cut]
            assert read_checkpoint(tmp) == (complete[-1] if complete else None)


class RecordingTarget:
    """A durable target that only records the files it is given."""

    kind = "recording"
    durable = True

    def __init__(self):
        self.files = []

    def apply_script(self, name, text):
        self.files.append(name)


@pytest.fixture(scope="module")
def full_log(tmp_path_factory):
    """A workload directory and the checkpoint log of one full replay of it."""
    _, _, wdir = _write_test_workload(tmp_path_factory.mktemp("workload"))
    target = RecordingTarget()
    replay(target, wdir)
    return wdir, (wdir / "replay.ckpt.json").read_bytes(), target.files


@settings(max_examples=100, deadline=None)
@given(fraction=st.floats(0, 1))
def test_a_resume_trims_a_torn_tail_and_appends_in_order(full_log, fraction):
    wdir, data, files = full_log
    cut = round(fraction * len(data))
    (wdir / "replay.ckpt.json").write_bytes(data[:cut])
    target = RecordingTarget()
    replay(target, wdir, from_checkpoint=True)
    # One record follows each applied file: the resume applies the files after
    # the last complete record, and the log reads as that of an unbroken replay.
    assert target.files == files[data[:cut].count(b"\n") :]
    assert _log_records(wdir) == [(rec["last_batch"], rec["partial_files"]) for rec in map(json.loads, data.splitlines())]


@pytest.mark.parametrize("bad", [b"not json", b"[]", b"{}", b'{"last_batch": 1}', b"\xff", b""])
@pytest.mark.parametrize("line", [0, 1, 2])
def test_a_corrupt_complete_line_is_a_replay_error(workload, bad, line):
    _, _, wdir = workload
    replay(MemstoreTarget(), wdir)
    path = wdir / "replay.ckpt.json"
    lines = path.read_bytes().splitlines(keepends=True)[:3]
    lines[line] = bad + b"\n"
    path.write_bytes(b"".join(lines) + b'{"last_batch": 3')  # and a torn tail
    before = path.read_bytes()
    with pytest.raises(ReplayError, match=f"checkpoint log line {line + 1} is corrupt"):
        read_checkpoint(wdir)
    with pytest.raises(ReplayError, match=f"checkpoint log line {line + 1} is corrupt"):
        replay(MemstoreTarget(), wdir, from_checkpoint=True)
    assert path.read_bytes() == before


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
    assert isinstance(connect_target("memstore"), MemstoreTarget)
    assert isinstance(connect_target("sqlstub"), SqlStubTarget)
    with pytest.raises(ReplayError, match="no driver for target kind 'postgres'"):
        connect_target("postgres")


def test_manifest_hash_stable(workload):
    _, _, wdir = workload
    assert manifest_hash(wdir) == manifest_hash(wdir)


# ---------------------------------------------------------------------------
# The one-file layout: read through the index, one script at a time


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_blocks=st.integers(2, 20),
    init=st.floats(0, 1),
    granularity=st.integers(1, 5),
    expire=st.booleans(),
)
def test_replay_onto_both_targets_equals_the_structured_apply(seed, n_blocks, init, granularity, expire):
    ds = generate(SynthConfig(seed=seed, n_blocks=n_blocks, mean_tx_per_block=3, address_pool=15, n_tokens=3))
    cfg = WorkloadConfig(1 + round(init * (n_blocks - 2)), granularity, expire)
    expected = _expected_store(ds, cfg).table_multisets()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_workload(ds, cfg, tmp)
        memstore_target, stub_target = MemstoreTarget(), SqlStubTarget()
        report = replay(memstore_target, tmp)
        replay(stub_target, tmp)
    assert [(entry["index"], entry["file"]) for entry in report.applied] == [
        (index, name) for index, names in manifest.units() for name in names
    ]
    assert memstore_target.store.table_multisets() == expected
    assert stub_target.engine.table_multisets() == expected


def test_a_replay_reads_each_script_with_one_pread_of_its_index_entry(workload, monkeypatch):
    _, _, wdir = workload
    index = json.loads((wdir / "scripts.json").read_text())
    reads = []
    real = os.pread

    def spy(fd, length, offset):
        reads.append((offset, length))
        return real(fd, length, offset)

    monkeypatch.setattr(os, "pread", spy)
    replay(MemstoreTarget(), wdir)
    assert reads == [(offset, length) for _, offset, length in index]


def test_a_replay_finishes_a_script_the_kernel_reads_in_parts(workload, monkeypatch):
    ds, cfg, wdir = workload
    real = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, length, offset: real(fd, min(length, 1000), offset))
    target = SqlStubTarget()
    replay(target, wdir)
    assert max(length for _, _, length in json.loads((wdir / "scripts.json").read_text())) > 1000
    assert target.engine.table_multisets() == _expected_store(ds, cfg).table_multisets()


def test_a_workload_file_cut_short_during_the_replay_is_a_replay_error(workload, monkeypatch):
    _, _, wdir = workload
    real = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, length, offset: real(fd, length, offset)[: length // 2])
    with pytest.raises(ReplayError, match="workload.sql ends inside load.sql"):
        replay(MemstoreTarget(), wdir)


def _refused(wdir, match):
    """Replay refuses ``wdir`` before it applies a script or opens the checkpoint log."""
    target = RecordingTarget()
    with pytest.raises(ReplayError, match=match):
        replay(target, wdir)
    assert target.files == []
    assert not (wdir / "replay.ckpt.json").exists()


def test_a_truncated_workload_file_is_refused(workload):
    _, _, wdir = workload
    path = wdir / "workload.sql"
    os.truncate(path, path.stat().st_size - 1)
    _refused(wdir, r"workload\.sql is truncated: it holds \d+ bytes, and scripts\.json indexes \d+")


def test_trailing_bytes_in_the_workload_file_are_refused(workload):
    _, _, wdir = workload
    with open(wdir / "workload.sql", "ab") as fh:
        fh.write(b"COMMIT;\n")
    _refused(wdir, "workload.sql has bytes no script covers")


def test_an_index_with_a_gap_is_refused(workload):
    _, _, wdir = workload
    index = json.loads((wdir / "scripts.json").read_text())
    index[2][1] += 1
    (wdir / "scripts.json").write_text(json.dumps(index))
    _refused(wdir, f"scripts.json: {index[2][0]} starts at byte {index[2][1]}, not at {index[2][1] - 1}, where the one")


@pytest.mark.parametrize("bad", ["not json", "{}", '[["load.sql", 0]]', '[["load.sql", "0", 10]]', '[[1, 0, 10]]'])
def test_a_corrupt_index_is_refused(workload, bad):
    _, _, wdir = workload
    (wdir / "scripts.json").write_text(bad)
    _refused(wdir, "scripts.json is corrupt")


def test_an_index_that_disagrees_with_the_manifest_is_refused(workload):
    _, _, wdir = workload
    scripts = read_scripts(wdir)
    write_scripts(wdir, [item for item in scripts.items() if item[0] != "upserts-000003.sql"])
    _refused(wdir, "scripts.json disagrees with manifest.json: it lists no upserts-000003.sql")
    # Every script, but in another order.
    write_scripts(wdir, [*reversed(scripts.items())])
    _refused(wdir, "scripts.json disagrees with manifest.json: it lists scripts .* not in replay order")


def test_a_manifest_with_a_batch_the_index_lacks_is_refused(workload):
    _, _, wdir = workload
    data = json.loads((wdir / "manifest.json").read_text())
    data["batches"].append({**data["batches"][-1], "index": 4})
    (wdir / "manifest.json").write_text(json.dumps(data))
    _refused(wdir, "it lists no expire-000004.sql")


def test_a_directory_of_one_file_per_script_is_refused(workload):
    _, _, wdir = workload
    for name, text in read_scripts(wdir).items():
        (wdir / name).write_text(text, encoding="utf-8")
    (wdir / "workload.sql").unlink()
    (wdir / "scripts.json").unlink()
    _refused(wdir, "has no workload.sql but a file per script: regenerate the workload with gen-updates")


@pytest.mark.parametrize("missing", ["workload.sql", "scripts.json"])
def test_a_directory_missing_a_layout_file_is_refused(workload, missing):
    _, _, wdir = workload
    (wdir / missing).unlink()
    _refused(wdir, f"has no {missing}: regenerate the workload with gen-updates")
