"""Summary statistics and accounting helpers shared by the benchmark runner."""

from __future__ import annotations

import gc
import re
import statistics
import time
from typing import Callable, Sequence

# (name, unit) of the end-to-end metrics an untraced run's result carries, the
# ones BENCHMARK.json bounds. probe_ms.p50 and failed_ratio are printed beside
# them without a bound (see README.md).
END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("batch_ms.p50", "ms"),
    ("batch_ms.p90", "ms"),
    ("stmts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Metric names start with a letter or digit and use only [A-Za-z0-9_.-], at most 64 long."""
    return _NAME_RE.fullmatch(name) is not None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``statistics.quantiles`` inclusive method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values: Sequence[float], pct: float) -> tuple[float, int]:
    """(percentile, sample count): every reported timing states how many samples it rests on."""
    return percentile(values, pct), len(values)


def position_medians(passes: Sequence[Sequence[float]]) -> list[float]:
    """Median over the passes of each position: the time of batch (or probe)
    i across a run. Every pass of a run applies the same batches, because the
    inputs come from the seed, so a slow spell that hits one pass drops out."""
    if not passes or len({len(p) for p in passes}) != 1:
        raise ValueError("passes must be non-empty and hold the same number of positions")
    return [statistics.median(column) for column in zip(*passes)]


def tail_supported(n_samples: int, pct: float) -> bool:
    """True when at least ten samples lie beyond the percentile."""
    return n_samples * (100.0 - pct) / 100.0 >= 10.0


def failed_ratio(attempted: int, failed: int) -> float:
    """Units (files or batches) rejected or failing a correctness gate, over those attempted."""
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted unit")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_s") or stat == "s":
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    if stat == "bytes":
        return "bytes"
    return "count"


# Host speed. On a shared machine the same pass can take 1.5x longer for
# minutes at a time while other tenants load the host, and the speed can
# change within a pass. A pass therefore times a fixed piece of interpreter
# work (the calibration chunk) at points spread through it, and its times are
# scaled by REFERENCE_CHUNK_S over the median chunk time: the reported seconds
# are those the pass would take on a host that runs the chunk in
# REFERENCE_CHUNK_S. The chunk runs no chainbench code, so a change to the
# program moves the scaled times as much as the raw ones.
REFERENCE_CHUNK_S = 0.008
CALIBRATE_EVERY_S = 0.1  # least time between two calibration points of a pass
CHUNKS_PER_POINT = 2


def calibration_chunk() -> int:
    """Dict updates on tuple keys, string formatting and splitting, and a
    keyed sort: the kind of interpreter work the workloads are made of."""
    counts: dict[tuple, int] = {}
    rows = []
    for i in range(6000):
        key = (i % 97, str(i % 1013))
        counts[key] = counts.get(key, 0) + 1
        rows.append(f"INSERT INTO t VALUES ({i}, '{i * 7919 % 10007}');".split(" "))
    rows.sort(key=lambda r: r[-1])
    return len(counts) + len(rows)


class Calibrator:
    """Calibration chunks timed at points spread through one pass.

    The pass calls ``point()`` between its phases; a point runs
    ``CHUNKS_PER_POINT`` chunks unless the previous point ended less than
    ``every_s`` ago, or always with ``force=True`` (just before and just after
    the timed region). The collector is off meanwhile, so a chunk's cost does
    not depend on how many objects the program keeps alive. ``within(a, b)``
    is the calibration time inside [a, b], which the pass subtracts from every
    interval it reports. ``on_point`` receives each point's duration: a traced
    pass passes ``Tracer.exclude``, so the calibration stays out of its spans.
    """

    def __init__(
        self,
        every_s: float = CALIBRATE_EVERY_S,
        clock: Callable[[], float] = time.perf_counter,
        on_point: Callable[[float], None] | None = None,
    ):
        self.every_s = every_s
        self.on_point = on_point
        self.clock = clock
        self.chunk_times: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def point(self, force: bool = False) -> None:
        begin = self.clock()
        if not force and self.spans and begin - self.spans[-1][1] < self.every_s:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(CHUNKS_PER_POINT):
                start = self.clock()
                calibration_chunk()
                self.chunk_times.append(self.clock() - start)
        finally:
            if enabled:
                gc.enable()
        end = self.clock()
        self.spans.append((begin, end))
        if self.on_point is not None:
            self.on_point(end - begin)

    def within(self, a: float, b: float) -> float:
        """Seconds of calibration inside [a, b]."""
        return sum(max(0.0, min(b, end) - max(a, start)) for start, end in self.spans)

    def scale(self) -> float:
        return speed_scale(self.chunk_times)


def speed_scale(chunk_times: Sequence[float]) -> float:
    """Factor that turns times measured beside these chunks into reference-host times."""
    return REFERENCE_CHUNK_S / statistics.median(chunk_times)
