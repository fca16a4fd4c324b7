"""Check the generator and workload-file pins with the standard library alone.

``synth_chain.generate`` writes out ``random.Random``'s draw algorithms
inline, so its output must not depend on the Python version. This script
runs where pytest is not installed:

    python tests/stdlib_pins.py

It checks the ``test_generate_output_is_pinned`` digests (read from
``tests/test_synth_chain.py``), the ``test_full_catalog_is_pinned`` digests
(read from ``tests/test_estimator.py``: every schema column's statistics,
whose most-common-value tie order rests on a stable sort), the sha256 of the
``sha256sum``-style listing of every script ``write_workload`` writes, by
name as its index names it, and of its ``manifest.json``, for each benchmark
workload at seed 7, and the sha256 of ``render_sql`` of one batch that holds every
statement form with edge values (``util.edge_ops``) and of the ``repr`` of
``parse_script`` of that text, so the renderer's and the parser's compiled
source are checked on each version too. It prints one line per check
and exits 1 if any fails. ``test_workload_file_pins_hold`` runs the listing
and render checks under pytest; ``test_generate_output_is_pinned`` and
``test_full_catalog_is_pinned`` cover the generate and catalog pins there.
"""

from __future__ import annotations

import ast
import hashlib
import sys
import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from bench_workloads import WORKLOADS  # noqa: E402
from util import edge_ops, full_catalog_digests, read_scripts  # noqa: E402

from chainbench.chain_model import SCHEMA  # noqa: E402
from chainbench.sqlstub import parse_script  # noqa: E402
from chainbench.synth_chain import SynthConfig, generate  # noqa: E402
from chainbench.workload_gen import Batch, render_sql, write_workload  # noqa: E402

# sha256 of "<sha256>  <name>\n" per script and for manifest.json, by name, of
# write_workload's output for each benchmark workload at seed 7.
LISTINGS = {
    "drift-window": "5527eb9260fe1e529110bc3ce38c347de53c97afb9ed62caeeaa6ba5b766f77c",
    "replay-fine": "4e62323b97d2a5fafa7e2f28d01e8421f7fdd1a611e439ad30fb9369f9339570",
    "stub-expire": "7236c80c294aa5e3a348a0bececb5eeb22f50fcecae6b7c3fbe3d3ed5390101c",
}

# sha256 of render_sql(Batch(1, "upsert", 0, 0, edge_ops())) in UTF-8.
RENDER = "23b01ef11f9b4c32fd1cab3ad9c480aabe07dc6afd443efcbb26508feb07009f"

# sha256 of repr(parse_script(...)) of that text in UTF-8: the repr names each
# row's type, so it covers the compiled builders, the row types and the hex
# decoding.
PARSE = "f9d11d5f04d02f5fccb9a3b0ccef4e4638ff421e0c600f5df36c9e1c698aaf32"


def pinned(module: str, name: str):
    """The value a test module assigns to ``name`` at top level, read without
    importing the module (which imports pytest)."""
    tree = ast.parse((ROOT / "tests" / module).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            # Literals and dict(...) calls only: no other name is bound.
            return eval(compile(ast.Expression(node.value), name, "eval"), {"__builtins__": {}, "dict": dict})
    raise LookupError(f"{name} not found in {module}")


def dataset_digest(ds) -> str:
    """As ``test_synth_chain._feed_dataset`` hashes a dataset."""
    h = hashlib.sha256()
    for table, cols in SCHEMA.items():
        for row in ds.table(table):
            h.update(repr(tuple(getattr(row, name) for name, _ in cols)).encode())
    h.update(repr(sorted(dict(ds.addresses).items())).encode())
    h.update(repr(ds.final_block).encode())
    return h.hexdigest()


def listing_digest(directory: Path) -> str:
    """The listing as ``sha256sum`` prints it over one file per script and
    the manifest: each script's bytes read back through ``scripts.json``."""
    files = {name: text.encode() for name, text in read_scripts(directory).items()}
    files["manifest.json"] = (directory / "manifest.json").read_bytes()
    listing = "".join(f"{hashlib.sha256(files[name]).hexdigest()}  {name}\n" for name in sorted(files))
    return hashlib.sha256(listing.encode()).hexdigest()


def generate_checks() -> Iterator[tuple[str, str, str]]:
    """(label, digest, pinned digest) of each ``generate`` pin."""
    for config, digest in pinned("test_synth_chain.py", "_PINNED"):
        label = f"generate seed={config['seed']} n_blocks={config['n_blocks']}"
        yield label, dataset_digest(generate(SynthConfig(**config))), digest


def catalog_checks() -> Iterator[tuple[str, str, str]]:
    """(label, digest, pinned digest) of each full-catalog pin."""
    states = ("load", "after 3 batches")
    for state, got, digest in zip(states, full_catalog_digests(), pinned("test_estimator.py", "_FULL_CATALOG")):
        yield f"refresh full catalog, {state}", got, digest


def workload_file_checks() -> Iterator[tuple[str, str, str]]:
    """(label, digest, pinned digest) of each ``write_workload`` listing pin
    and of the ``render_sql`` and ``parse_script`` pins."""
    for name, digest in LISTINGS.items():
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as out:
            write_workload(generate(w.synth_config(7)), w.workload_config(), out)
            yield f"write_workload {name}", listing_digest(Path(out)), digest
    text = render_sql(Batch(1, "upsert", 0, 0, edge_ops()))
    yield "render_sql every statement form", hashlib.sha256(text.encode()).hexdigest(), RENDER
    yield "parse_script every statement form", hashlib.sha256(repr(parse_script(text)).encode()).hexdigest(), PARSE


def main() -> int:
    failed = 0
    for label, got, digest in chain(generate_checks(), catalog_checks(), workload_file_checks()):
        failed += got != digest
        print(f"{'ok' if got == digest else 'FAIL'} {label}: {got[:8]}")
    print(f"python {sys.version.split()[0]}: {'all pins hold' if not failed else f'{failed} pin(s) differ'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
