"""Apply a generated workload directory to a target, in order, with optional
real-time pacing and checkpointed resume.

A workload directory holds ``workload.sql``, every script in replay order,
and its index ``scripts.json``: one ``[name, offset, length]`` per script,
in bytes (see ``workload_gen``). When a replay opens the directory it checks
the index against the file and the manifest: the scripts follow one another
from byte 0, their lengths sum to the file's size, and the index names
exactly the scripts the manifest implies, in replay order. A directory
without ``workload.sql`` or ``scripts.json`` (such as one holding a file per
script) is a ``ReplayError`` that says to regenerate it with ``gen-updates``.
The replay then reads one script at a time with ``os.pread`` from one
descriptor, so it never holds more of the file than the script it applies.

Order is strict: the load first, then per batch the expire script (when
present) followed by the upsert script. Each script is applied atomically by
the target under its name (``load.sql``, ``expire-000001.sql``,
``upserts-000001.sql``, ...), and a checkpoint is written after every
batch, so a halted replay can resume without re-applying completed batches.
The crash window between a target commit and the checkpoint write is the
target's concern: durable targets should bind the checkpoint into the same
transaction or tolerate replayed duplicates. The bundled targets are
in-process (``durable`` is False): their state dies with the process, so
only the same target object can resume, and the CLI refuses ``--resume`` for
them.

The checkpoint is an append-only log of JSON lines in ``replay.ckpt.json``:
one ``json.dumps(..., sort_keys=True)`` record and a newline per checkpoint,
written with one ``os.write`` to a descriptor that stays open for the whole
replay. The last complete record wins. A final fragment without its newline
is a torn write: the reader ignores it (no proper prefix of a JSON object
parses), and a resume truncates it away before appending. A complete line
that is not a record raises ``ReplayError``. A fresh replay truncates the log
when it opens it, so a checkpoint from an earlier run never outlives the run
it describes. A one-record log is byte for byte the single-object file that
earlier versions wrote, so those still read. Nothing is fsynced: a
checkpoint is as durable as the page cache.

Between batches, registered hooks run synchronously on the replay thread;
that is where drift probes and other experiments observe each state. A hook
that raises halts the replay with a ``ReplayError`` naming the batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

from .gcpause import collector_paused
from .memstore import BatchRejected, Store, apply_ops
from .sqlstub import SqlParseError, SqlStubEngine, parse_script, to_mutations
from .workload_gen import INDEX_FILE, MANIFEST_FILE, WORKLOAD_FILE, Manifest


class ReplayError(RuntimeError):
    def __init__(self, message: str, batch_index: int | None = None, statement: int | None = None):
        super().__init__(message)
        self.batch_index = batch_index
        self.statement = statement


class CheckpointMismatch(ReplayError):
    pass


class MemstoreTarget:
    """Replay target that recovers structured mutations from the SQL text."""

    kind = "memstore"
    durable = False  # in-process: a new process starts from an empty store

    def __init__(self, store: Store | None = None):
        self.store = store if store is not None else Store()

    def apply_script(self, name: str, text: str) -> None:
        try:
            ops = to_mutations(parse_script(text))
        except SqlParseError as exc:
            raise ReplayError(f"{name}: {exc}") from exc
        try:
            apply_ops(self.store, ops)
        except BatchRejected as exc:
            raise ReplayError(f"{name}: {exc}", statement=exc.op_index) from exc


class SqlStubTarget:
    """Replay target executing the SQL text against the stub engine."""

    kind = "sqlstub"
    durable = False  # in-process: a new process starts from an empty engine

    def __init__(self, engine: SqlStubEngine | None = None):
        self.engine = engine if engine is not None else SqlStubEngine()

    def apply_script(self, name: str, text: str) -> None:
        try:
            self.engine.execute(text)
        except Exception as exc:
            raise ReplayError(f"{name}: {exc}") from exc


def connect_target(kind: str):
    """A new target of the named kind: ``memstore`` or ``sqlstub``."""
    if kind == "memstore":
        return MemstoreTarget()
    if kind == "sqlstub":
        return SqlStubTarget()
    raise ReplayError(f"no driver for target kind {kind!r}")


@dataclass(frozen=True)
class Hook:
    """Between-batch callback: fn(batch_index, target)."""

    fn: Callable[[int, object], None]


@dataclass
class ReplayCheckpoint:
    manifest_hash: str
    last_batch: int  # last fully completed batch (0 = load)
    partial_files: list[str] = field(default_factory=list)  # applied files of the next batch
    wall_clock: float = 0.0

    def to_dict(self) -> dict:
        return {
            "manifest_hash": self.manifest_hash,
            "last_batch": self.last_batch,
            "partial_files": list(self.partial_files),
            "wall_clock": self.wall_clock,
        }


@dataclass
class ReplayReport:
    resumed_from: int | None
    applied: list[dict] = field(default_factory=list)  # {"index", "file", "ms"}: one per script

    def to_dict(self) -> dict:
        return {"resumed_from": self.resumed_from, "applied": self.applied}


def manifest_hash(workload_dir: str | Path) -> str:
    return hashlib.sha256((Path(workload_dir) / MANIFEST_FILE).read_bytes()).hexdigest()


def read_manifest(workload_dir: str | Path) -> Manifest:
    with open(Path(workload_dir) / MANIFEST_FILE, encoding="utf-8") as fh:
        return Manifest.from_dict(json.load(fh))


def read_index(workload_dir: str | Path, manifest: Manifest) -> dict[str, tuple[int, int]]:
    """Script name -> (offset, length) in ``workload.sql``, once the index
    is checked against the file and the manifest; a ``ReplayError`` names
    what does not hold."""
    wdir = Path(workload_dir)
    for name in (WORKLOAD_FILE, INDEX_FILE):
        if not (wdir / name).is_file():
            # A file per script is the layout replay read before workload.sql.
            layout = " but a file per script" if (wdir / "load.sql").exists() else ""
            raise ReplayError(f"{wdir} has no {name}{layout}: regenerate the workload with gen-updates")
    try:
        entries = json.loads((wdir / INDEX_FILE).read_bytes())
        if not isinstance(entries, list):
            raise TypeError(f"a JSON {type(entries).__name__}, not a list")
        entries = [(name, offset, length) for name, offset, length in entries]
    except (ValueError, TypeError) as exc:
        raise ReplayError(f"{INDEX_FILE} is corrupt: {exc}") from exc
    end = 0
    for name, offset, length in entries:
        if not (isinstance(name, str) and type(offset) is int and type(length) is int and length >= 0):
            raise ReplayError(f"{INDEX_FILE} is corrupt: {[name, offset, length]!r} is no [name, offset, length] entry")
        if offset != end:
            raise ReplayError(f"{INDEX_FILE}: {name} starts at byte {offset}, not at {end}, where the one before ends")
        end += length
    size = (wdir / WORKLOAD_FILE).stat().st_size
    if size != end:
        problem = "is truncated" if size < end else "has bytes no script covers"
        raise ReplayError(f"{WORKLOAD_FILE} {problem}: it holds {size} bytes, and {INDEX_FILE} indexes {end}")
    implied = [name for _, names in manifest.units() for name in names]
    listed = [name for name, _, _ in entries]
    if listed != implied:
        missing = [name for name in implied if name not in listed]
        detail = f"no {missing[0]}" if missing else "scripts the manifest does not imply, or not in replay order"
        raise ReplayError(f"{INDEX_FILE} disagrees with {MANIFEST_FILE}: it lists {detail}")
    return {name: (offset, length) for name, offset, length in entries}


def _read_script(fd: int, name: str, offset: int, length: int) -> bytes:
    """The script's bytes, read with ``os.pread`` (again after a short read)."""
    data = os.pread(fd, length, offset)
    while len(data) < length:
        more = os.pread(fd, length - len(data), offset + len(data))
        if not more:
            raise ReplayError(f"{WORKLOAD_FILE} ends inside {name}: it was truncated during the replay")
        data += more
    return data


def pacing_delays(manifest: Manifest, scale: float) -> list[float]:
    """Per-batch pre-apply sleep: first-block timestamp gap / scale."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    delays = [0.0]
    for prev, cur in zip(manifest.batches, manifest.batches[1:]):
        delays.append(max(0.0, (cur.first_timestamp - prev.first_timestamp) / scale))
    return delays


def _checkpoint_path(workload_dir: Path) -> Path:
    return workload_dir / "replay.ckpt.json"


def _parse_log(data: bytes) -> tuple[ReplayCheckpoint | None, int]:
    """The last complete record of a checkpoint log, and the length in bytes
    of the complete records; a final fragment without its newline is ignored."""
    end = data.rfind(b"\n") + 1
    last = None
    for number, line in enumerate(data[:end].split(b"\n")[:-1], 1):
        try:
            record = json.loads(line)
            last = ReplayCheckpoint(
                record["manifest_hash"], record["last_batch"], record.get("partial_files", []), record["wall_clock"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ReplayError(f"checkpoint log line {number} is corrupt: {exc!r}") from exc
    return last, end


def read_checkpoint(workload_dir: str | Path) -> ReplayCheckpoint | None:
    path = _checkpoint_path(Path(workload_dir))
    if not path.exists():
        return None
    return _parse_log(path.read_bytes())[0]


def _append_checkpoint(fd: int, ckpt: ReplayCheckpoint) -> None:
    line = (json.dumps(ckpt.to_dict(), sort_keys=True) + "\n").encode("ascii")
    if os.write(fd, line) != len(line):
        raise ReplayError("short write to the replay checkpoint log")


def _run_hooks(hooks: Sequence[Hook], index: int, target) -> None:
    for hook in hooks:
        try:
            hook.fn(index, target)
        except Exception as exc:
            raise ReplayError(f"hook failed after batch {index}: {exc}", batch_index=index) from exc


@collector_paused
def replay(
    target,
    workload_dir: str | Path,
    realtime: float | None = None,
    from_checkpoint: bool = False,
    hooks: Sequence[Hook] = (),
    sleep: Callable[[float], None] = time.sleep,
) -> ReplayReport:
    """Apply load then every batch in order; checkpoint after each batch.

    ``realtime=SCALE`` sleeps the inter-batch first-block timestamp gap
    divided by ``SCALE`` before each subsequent batch; None applies them at
    full speed.
    """
    wdir = Path(workload_dir)
    manifest = read_manifest(wdir)
    digest = manifest_hash(wdir)
    index = read_index(wdir, manifest)

    completed = -1
    partial: set[str] = set()
    resumed_from = None
    # One descriptor on the checkpoint log for the whole replay: a fresh run
    # truncates the log, a resume trims a torn tail and appends after the
    # last complete record. One more reads the scripts.
    flags = os.O_RDWR | os.O_CREAT | os.O_APPEND | (0 if from_checkpoint else os.O_TRUNC)
    scripts = os.open(wdir / WORKLOAD_FILE, os.O_RDONLY)
    try:
        fd = os.open(_checkpoint_path(wdir), flags, 0o666)
    except BaseException:
        os.close(scripts)
        raise
    try:
        if from_checkpoint:
            with open(fd, "rb", closefd=False) as fh:
                ckpt, end = _parse_log(fh.read())
            if ckpt is not None:
                if ckpt.manifest_hash != digest:
                    raise CheckpointMismatch("checkpoint does not match this workload manifest; refusing to resume")
                completed = ckpt.last_batch
                partial = set(ckpt.partial_files)
                resumed_from = ckpt.last_batch
            os.ftruncate(fd, end)

        report = ReplayReport(resumed_from=resumed_from)

        def run_unit(batch: int, names: list[str]) -> None:
            # A batch may span two scripts (expire + upserts). Each script is
            # one target transaction, so the checkpoint tracks script
            # progress: a crash between the scripts resumes with the remaining
            # one only. After the last script, the batch-complete record below
            # is the next.
            nonlocal completed, partial
            for name in names:
                if name in partial:
                    continue
                start = time.perf_counter()
                try:
                    # Bytes decoded as strict UTF-8: no newline translation
                    # touches a \r inside a text literal.
                    target.apply_script(name, _read_script(scripts, name, *index[name]).decode("utf-8"))
                except ReplayError as exc:
                    raise ReplayError(str(exc), batch_index=batch, statement=exc.statement) from exc
                elapsed = (time.perf_counter() - start) * 1000.0
                partial.add(name)
                if name != names[-1]:
                    _append_checkpoint(fd, ReplayCheckpoint(digest, completed, sorted(partial), time.time()))
                report.applied.append({"index": batch, "file": name, "ms": elapsed})
            completed = batch
            partial = set()
            _append_checkpoint(fd, ReplayCheckpoint(digest, completed, [], time.time()))

        # The load is never paced; each batch after it is.
        delays = repeat(0.0) if realtime is None else [0.0, *pacing_delays(manifest, realtime)]
        for (batch, names), delay in zip(manifest.units(), delays):
            if batch <= completed:
                continue
            if delay > 0:
                sleep(delay)
            run_unit(batch, names)
            _run_hooks(hooks, batch, target)
    finally:
        os.close(fd)
        os.close(scripts)

    return report
