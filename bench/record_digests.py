"""Record the drift-window output digest for a range of seeds into digests.json.

    python3 bench/record_digests.py FIRST LAST

Run this only after a deliberate change to the drift workload or to the
format of report/qerror_points.jsonl: the recorded digests are the reference
every later run is checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from bench_workloads import RECORDED, WORKLOADS, recorded_digests, run_pass  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    name = "drift-window"
    digests = recorded_digests()
    per_seed = digests.setdefault(name, {})
    work = BENCH.parent / ".bench_work" / "record"
    try:
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            per_seed[str(seed)] = run_pass(WORKLOADS[name], seed, work).output
            print(f"{name} seed {seed}: {per_seed[str(seed)]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    digests[name] = dict(sorted(per_seed.items(), key=lambda kv: int(kv[0])))
    RECORDED.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
