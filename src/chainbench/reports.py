"""Persisted experiment outputs: JSONL point streams, figure-ready CSV series,
regret-matrix CSV, and the self-describing run record.

Every writer here is deterministic: fixed key order, fixed float repr, no
wall-clock content. Identical inputs produce byte-identical files, which is
what makes whole experiment runs reproducible and diffable.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .eval_harness import PlanMeasurement, QErrorPoint, RegretMatrix

ACCURACY_CUTOFF = 1.01


def write_jsonl(records: Iterable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            data = vars(record) if hasattr(record, "__dataclass_fields__") else record
            fh.write(json.dumps(data, sort_keys=True))
            fh.write("\n")


def read_plan_measurements(path: str | Path) -> list[PlanMeasurement]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            data = json.loads(line)
            try:
                out.append(
                    PlanMeasurement(
                        plan_for=data["plan_for"],
                        run_on=data["run_on"],
                        c_e=data.get("c_e"),
                        c_r=data.get("c_r"),
                        reps=data.get("reps", 0),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def accurate_subqueries(points: Sequence[QErrorPoint], cutoff: float = ACCURACY_CUTOFF) -> set[str]:
    """Subqueries whose Q-error stays below the cutoff in every state.

    These may be omitted from rendered reports (the raw JSONL always keeps
    them); anything that ever drifts past the cutoff stays visible.
    """
    worst: dict[str, float] = {}
    for p in points:
        worst[p.subquery] = max(worst.get(p.subquery, 1.0), p.qerror)
    return {sub for sub, q in worst.items() if q < cutoff}


def write_series_csv(points: Sequence[QErrorPoint], path: str | Path, omit_accurate: bool = False) -> None:
    """Figure-ready series: one row per (state, subquery, policy) point."""
    hidden = accurate_subqueries(points) if omit_accurate else set()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "subquery", "policy", "estimated", "actual", "qerror"])
        for p in points:
            if p.subquery in hidden:
                continue
            writer.writerow([p.state, p.subquery, p.policy, repr(p.estimated), p.actual, repr(p.qerror)])


def write_matrix_csv(matrix: RegretMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in matrix.rows():
            writer.writerow(row)


def write_run_record(out_dir: str | Path, subcommand: str, inputs: dict) -> Path:
    """Write ``run.json``: everything needed to reproduce the run bit-for-bit.

    Output locations are deliberately excluded so two runs of the same inputs
    into different directories stay byte-identical.
    """
    from . import __version__

    record = {
        "tool": "chainbench",
        "version": __version__,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
        "subcommand": subcommand,
        "inputs": inputs,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "run.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
