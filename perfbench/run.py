"""rbc benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root; ``rbc`` is imported from ``src/`` beside this
directory, so nothing needs installing or building.  With ``--trace 0`` the
workload's operations run in a closed loop for ``--seconds`` seconds of
measured time and the end-to-end metrics are reported.  With ``--trace 1``
the per-layer metrics are reported instead: the workload's loop runs with
every other operation traced, which gives the tracing overhead, then the
layer calls of every workload are timed one by one on that workload's
inputs, so every per-layer metric is measured in every traced run.  Spans
are kept in memory and written to ``.perfbench/`` when the run ends.

The machine's own speed drifts by up to 2x over tens of seconds, so the
end-to-end times are scaled to a reference speed: a fixed piece of
pure-Python work runs between the timed steps of the operations once 0.1 s
of step time has passed, and each step's time is multiplied by REFERENCE_S
over the mean of the two reference times that bracket it.  The unscaled figures are in the environment line.

Every timed output is checked.  The last line of standard output is the
result object; the line before it records the environment.  Exit status is
0 on a correct run, 1 when a check failed and 2 when ``rbc`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from bench_trace import NullTracer, Tracer, percentile
from workloads import OUT_DIR, WORKLOADS, CheckFailed

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("spacetime", "rng", "codec", "agents", "netsim", "verifier",
          "adversary", "transcript_io", "cli")
# set-up repeats at least 3 times and for at least this long; median reported
SETUP_SECONDS = 1.0
# reference_work() takes exactly this long on a machine at reference speed
REFERENCE_S = 0.010
PROBE_EVERY_S = 0.1


def load_rbc() -> SimpleNamespace:
    """Import every rbc layer afresh from src/ and return the modules."""
    for name in [n for n in sys.modules if n == "rbc" or n.startswith("rbc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = SimpleNamespace(**{name: importlib.import_module(f"rbc.{name}")
                             for name in LAYERS})
    if not Path(api.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rbc was imported from {api.cli.__file__}, not {SRC}")
    return api


def reference_work() -> float:
    """Seconds taken by fixed pure-Python work: ints, Fractions, dicts, JSON."""
    start = perf_counter()
    acc = 0
    for i in range(15_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    table = {i: [i, str(i), (i, i + 1)] for i in range(3000)}
    json.loads(json.dumps(table))
    return perf_counter() - start


def measure(wl, seconds: float, tracer_for, min_ops: int = 1) -> dict:
    """Closed loop: the next operation starts when the previous one ends.

    Runs until ``seconds`` of operation time have passed and at least
    ``min_ops`` and ``wl.min_ops`` operations have run.  An exception from
    the program is a failed operation: counted, its time kept, and the loop
    goes on.  A workload with a ``counted`` method, whose corpus is cycled,
    reports its attempted and failed operations itself, each input once;
    ``units`` counts every processing for the throughput.  The reference work runs between steps once 0.1 s of step time
    has passed since it last ran; each step's time is scaled by the mean of
    the two reference times around it.  Unit times are returned raw and
    scaled, split by whether the operation was traced.
    """
    # compact per-operation records, so the loop's own memory stays small
    raw = array("d")
    scaled = array("d")
    traced = bytearray()
    pending: list[tuple[int, float]] = []  # (operation, step time) not yet scaled
    probes = [reference_work()]
    busy = since_probe = 0.0
    units = failed = 0
    errors: dict[str, int] = {}

    def settle() -> None:
        nonlocal since_probe
        probes.append(reference_work())
        scale = REFERENCE_S / ((probes[-2] + probes[-1]) / 2)
        for op, elapsed in pending:
            scaled[op] += elapsed * scale
        pending.clear()
        since_probe = 0.0

    def timed(op: int, step):
        nonlocal busy, since_probe
        if since_probe >= PROBE_EVERY_S:
            settle()
        start = perf_counter()
        try:
            return step()
        finally:
            elapsed = perf_counter() - start
            raw[op] += elapsed
            busy += elapsed
            since_probe += elapsed
            pending.append((op, elapsed))

    i = 0
    while busy < seconds or i < max(min_ops, wl.min_ops):
        tracer = tracer_for(i)
        raw.append(0.0)
        scaled.append(0.0)
        traced.append(isinstance(tracer, Tracer))
        try:
            outcome = [timed(i, step) for step in wl.steps(i, tracer)]
        except Exception as exc:  # counted as a failed operation
            outcome = exc
            failed += wl.units
            kind = f"{type(exc).__name__}: {str(exc)[:80]}"
            errors[kind] = errors.get(kind, 0) + 1
        wl.check(i, outcome)
        units += wl.units
        i += 1
    settle()
    attempted = units
    if hasattr(wl, "counted"):
        attempted, failed = wl.counted()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def split(times):
        return {flag: [t / wl.units for t, f in zip(times, traced) if f == flag]
                for flag in (False, True)}
    return {"raw": split(raw), "scaled": split(scaled), "busy": busy,
            "scaled_busy": sum(scaled), "probe_ms": statistics.median(probes) * 1e3,
            "peak_rss_mb": peak_rss_mb, "units": units,
            "attempted": attempted, "failed": failed,
            "errors": errors, "ops": i}


def run_untraced(wl, seconds: float, setup_s: float) -> tuple[dict, dict]:
    stats = measure(wl, seconds, lambda i: NullTracer())
    wl.finish()
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (stats["peak_rss_mb"], "MB"),
        "op_ms": (statistics.median(stats["scaled"][False]) * 1e3, "ms"),
        "ops_per_s": (stats["units"] / stats["scaled_busy"], "1/s"),
        "ok_ratio": ((stats["attempted"] - stats["failed"]) / stats["attempted"], "ratio"),
    }
    return stats, metrics


def run_traced(wl, everyone: dict, seconds: float, seed: int) -> tuple[dict, dict]:
    tracer = Tracer(wl.name)
    stats = measure(wl, seconds, lambda i: tracer if i % 2 else NullTracer(), min_ops=2)
    scaled = stats["scaled"]
    overhead_ms = (statistics.median(scaled[True])
                   - statistics.median(scaled[False])) * 1e3
    tracers = [tracer]
    metrics = {}
    for other in everyone.values():
        layer_tracer = Tracer(other.name)
        metrics.update(other.decompose(layer_tracer))
        tracers.append(layer_tracer)
    for other in everyone.values():
        other.finish()
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    metrics["trace.spans"] = (sum(len(t.spans) for t in tracers), "count")
    origin = min(t.spans[0][1] for t in tracers if t.spans)
    with open(OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl", "w",
              encoding="utf-8") as fh:
        for t in tracers:
            t.write(fh, origin)
    return stats, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rbc" / "__init__.py").is_file():
        print(f"rbc sources not found under {SRC}", file=sys.stderr)
        return 2
    load_rbc()  # the first import may compile bytecode; not part of set-up

    setup_raw: list[float] = []
    setup_scaled: list[float] = []
    while len(setup_raw) < 3 or sum(setup_raw) < SETUP_SECONDS:
        api = wl = None
        gc.collect()  # drop the previous repeat's modules and inputs
        before = reference_work()
        start = perf_counter()
        api = load_rbc()
        wl = WORKLOADS[args.workload](api, args.seed)
        setup_raw.append(perf_counter() - start)
        after = reference_work()
        setup_scaled.append(setup_raw[-1] * REFERENCE_S / ((before + after) / 2))

    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "setup_repeats": len(setup_raw),
           "setup_s_raw": statistics.median(setup_raw)}
    correct = True
    try:
        if args.trace:
            everyone = {name: (wl if name == wl.name else cls(api, args.seed))
                        for name, cls in WORKLOADS.items()}
            stats, metrics = run_traced(wl, everyone, args.seconds, args.seed)
        else:
            stats, metrics = run_untraced(wl, args.seconds,
                                          statistics.median(setup_scaled))
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        correct = False
        stats, metrics = {"attempted": 1, "failed": 0}, {}

    if correct:
        plain = stats["raw"][False]
        env.update({"probe_ms": stats["probe_ms"], "ops": stats["ops"],
                    "samples": len(plain), "busy_s": stats["busy"],
                    "op_ms_raw": statistics.median(plain) * 1e3,
                    "op_p99_ms_raw": percentile(plain, 99) * 1e3,
                    "ops_per_s_raw": stats["units"] / stats["busy"],
                    "errors": stats["errors"]})
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
