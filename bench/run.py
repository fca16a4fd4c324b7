"""chainbench benchmark: end-to-end metrics per workload, or a traced run for per-layer metrics.

    python3 bench/run.py --workload drift-window --seed 7 --trace 0
    python3 bench/run.py                      # every workload, one process each

A run repeats whole passes of one workload until the next pass would end
after ``--seconds`` (default: ``run_seconds`` in BENCHMARK.json; at least
one pass), checks every pass's output, and
prints one JSON object as the last line of standard output. With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` passes
alternate untraced and traced, and it holds the per-layer metrics plus the
tracing overhead. The exit code is 0 only when every correctness gate passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _git_commit() -> str:
    """Commit of the checkout; 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, state_rows: int | None) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "state_rows": state_rows,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Measurement:
    untraced: list = field(default_factory=list)  # PassResult
    traced: list = field(default_factory=list)  # (PassResult, Tracer)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float | None = None
    reference: str = ""


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, reference, run_pass

    w = WORKLOADS[name]
    m = Measurement()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    ref = None
    outputs: set[str] = set()
    began = time.perf_counter()
    try:
        while True:
            index = len(m.untraced) + len(m.traced)
            tracer = Tracer() if trace and index % 2 == 1 else None
            out = work / f"pass-{index}"
            gc.collect()
            m.attempted += w.units
            try:
                p = run_pass(w, seed, out, tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                m.failed += w.units
                m.problems.append(f"pass {index} raised")
                break
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if ref is None:
                # Read before the reference is built, so it holds only the pass's own memory.
                m.peak_rss_mb = _peak_rss_mb()
                ref = reference(w, seed)
            if ref.statements is not None:
                p.statements = ref.statements
            mismatches = []
            if not p.restored:
                mismatches.append("a patched attribute was not restored")
            if ref.output is not None and p.output != ref.output:
                mismatches.append(f"output {p.output[:12]} != reference {ref.output[:12]}")
            if outputs and p.output not in outputs:
                mismatches.append("output differs from an earlier pass")
            outputs.add(p.output)
            if tracer is not None:
                mismatches.extend(f"span {s} never fired" for s in w.exercises if s not in tracer.spans)
                m.traced.append((p, tracer))
            else:
                m.untraced.append(p)
            if mismatches:
                m.failed += w.units
                m.problems.extend(f"pass {index}: {x}" for x in mismatches)
            done = index + 1
            elapsed = time.perf_counter() - began
            if elapsed * (done + 1) / done > seconds and (not trace or done >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if ref is not None:
        m.reference = (
            "none recorded; passes checked against each other" if ref.output is None
            else "recorded digest" if w.target is None else "structured apply"
        )
    return m


def end_to_end(m: Measurement) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples) for every end-to-end metric, from untraced
    passes, with each pass's times scaled to the reference host speed.
    Batch and probe percentiles are taken over each batch's (probe's) median
    time across the passes; their sample count is the number of batches."""
    from bench_metrics import failed_ratio, position_medians, summarize

    runs = m.untraced
    batch = position_medians([[ms * p.scale for ms in p.batch_ms] for p in runs])
    probes = position_medians([[ms * p.scale for ms in p.probe_ms] for p in runs])
    stats = {
        "total_s": (summarize([p.total_s * p.scale for p in runs], 50), "s"),
        "setup_s": (summarize([p.setup_s * p.scale for p in runs], 50), "s"),
        "batch_ms.p50": (summarize(batch, 50), "ms"),
        "batch_ms.p90": (summarize(batch, 90), "ms"),
        "stmts_per_s": (summarize([p.statements / (p.update_s * p.scale) for p in runs], 50), "1/s"),
        "peak_rss_mb": ((m.peak_rss_mb, 1), "MB"),
    }
    if probes:
        stats["probe_ms.p50"] = (summarize(probes, 50), "ms")
    stats["failed_ratio"] = ((failed_ratio(m.attempted, m.failed), m.attempted), "ratio")
    return {name: (value, unit, n) for name, ((value, n), unit) in stats.items()}


def per_layer(m: Measurement) -> dict[str, float]:
    """Median over traced passes of every per-layer metric, plus the tracing
    overhead. Times are scaled to the reference host speed pass by pass, as
    in end_to_end; counts and ratios are not."""
    from bench_metrics import layer_unit
    from bench_trace import COUNTERS, RATIOS, layers

    span_names = [layer.name for layer in layers()]
    per_pass = []
    for p, tracer in m.traced:
        pm = tracer.metrics(span_names, COUNTERS, RATIOS)
        per_pass.append({k: v * p.scale if layer_unit(k) == "s" else v for k, v in pm.items()})
    out = {k: statistics.median(pm[k] for pm in per_pass) for k in per_pass[0]}
    out["trace.total_s"] = statistics.median(p.total_s * p.scale for p, _ in m.traced)
    out["trace.overhead_s"] = out["trace.total_s"] - statistics.median(p.total_s * p.scale for p in m.untraced)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from bench_metrics import END_TO_END, layer_unit, tail_supported, valid_metric_name

    m = measure(name, seed, seconds, trace)
    details: dict = {
        "workload": name,
        "passes": len(m.untraced) + len(m.traced),
        "pass_total_s": [p.total_s for p in m.untraced],
        "pass_speed_scale": [p.scale for p in m.untraced],
        "traced_pass_total_s": [p.total_s for p, _ in m.traced],
        "reference": m.reference,
        "problems": m.problems,
        "provenance": provenance(seed, m.untraced[0].state_rows if m.untraced else None),
    }
    metrics: dict[str, dict] = {}
    if m.untraced:
        e2e = end_to_end(m)
        details["end_to_end"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()}
        details["batch_ms.p90_tail_supported"] = tail_supported(e2e["batch_ms.p90"][2], 90)
        for key, (value, unit, n) in e2e.items():
            print(f"# {name} {key} = {value:.6g} {unit} (n={n})")
        metrics = {k: {"value": e2e[k][0], "unit": unit} for k, unit in END_TO_END}
    if m.traced and m.untraced:
        layer = per_layer(m)
        top = sorted((k for k in layer if k.endswith(".self_s")), key=layer.get, reverse=True)[:5]
        details["largest_self_s"] = [[k, layer[k]] for k in top]
        for k in top:
            print(f"# {name} {k} = {layer[k]:.6g} s")
        print(f"# {name} trace overhead = {layer['trace.overhead_s']:.6g} s on {layer['trace.total_s']:.6g} s")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    m.problems.extend(f"invalid metric name {k!r}" for k in metrics if not valid_metric_name(k))
    for problem in m.problems:
        print(f"# {name} FAILED: {problem}")
    correct = not m.problems and m.failed == 0 and bool(metrics)
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, so peak memory is attributed to it."""
    from bench_workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        details = next((json.loads(x[len("details: "):]) for x in lines if x.startswith("details: ")), {})
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        correct = proc.returncode == 0 and result.get("correct") is True
        status = status or (0 if correct else 1)
        shown = details.get("end_to_end", {}) if not trace else result.get("metrics", {})
        rows.extend((name, key, v["value"], v["unit"], v.get("samples")) for key, v in shown.items())
        rows.append((name, "correct", correct, "", None))
        rows.extend((name, "problem", problem, "", None) for problem in details.get("problems", []))
        if "provenance" in details:
            print(f"# {name} provenance {json.dumps(details['provenance'], sort_keys=True)}")
    print(f"{'workload':<14} {'metric':<52} {'value':>14} unit")
    for name, key, value, unit, n in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<14} {key:<52} {text:>14} {unit}{f' (n={n})' if n else ''}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run every workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="how long one workload measures; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chainbench" / "__init__.py").is_file():
        print(f"bench: no chainbench sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["run_seconds"]
    sys.path.insert(0, str(SRC))
    from bench_workloads import WORKLOADS

    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
