"""bhmat benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload halving --seed 0 --seconds 25 --trace 0

Runs passes over the workload's operation list (see workloads.py) for
``--seconds`` seconds, checks every outcome against pins.json, and prints
every metric with its unit; the last line of standard output is one JSON
object.  With ``--trace 0`` it reports the end-to-end metrics of untraced
passes, with times scaled to a fixed reference speed (see end_to_end).
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, in raw seconds, plus the
tracing overhead; the spans go to .perfbench/trace-<workload>-<seed>.json.

``--record-pins`` runs one pass and writes the workload's outcomes into
pins.json, with the documented outcome wherever the program's differs.

bhmat is imported from the src/ directory beside this one, never from an
installed copy; without it the benchmark exits with an error.
"""

from __future__ import annotations

import os

# A later numpy-backed verifier must not oversubscribe the shared cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Any

from spans import Tracer, Untraced, replica_self, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
PINS = HERE / "pins.json"
# Set-up samples per untraced run, taken one after each of the first passes.
SETUP_SAMPLES = 7
# A fixed pure-Python loop, timed around every operation and after every
# set-up sample, and its time on a quiet 2-CPU host with Python 3.11.7:
# end-to-end times are given at that speed (see end_to_end).  A call is
# compared with the loop's runs that start within its own length, and at
# least the window, of it.
REFERENCE_ITERATIONS = 20_000
REFERENCE_S = 0.0014
REFERENCE_WINDOW_S = 0.5

KIND_METRICS = {
    "construct": "construct_s",
    "family": "family_s",
    "accept": "verify_accept_s",
    "reject": "verify_reject_s",
}
TIMED_LAYERS = (
    "galois.field",
    "latin.classical",
    "latin.encode",
    "latin.reconstruct",
    "latin.mols_check",
    "latin.inflate",
    "latin.lsesc_check",
    "latin.io",
    "butson.verify_out",
    "butson.verify_in",
    "butson.reject",
    "butson.analysis",
    "butson.extract_t",
    "butson.dump",
    "butson.parse",
    "scarpis.call",
    "scarpis.check_t",
    "cli.construct",
    "cli.verify",
    "cli.lsesc",
)
# Spans that time bhmat: the timed layers and the replicas they contain.
# The rest of a traced pass is the harness (bench.op): input preparation,
# pin checks and digests.
LAYER_SPANS = TIMED_LAYERS + ("butson.fourier",)
# Per-layer counts: metric name -> (key in the operations' counts, unit).
COUNTS = {
    "butson.verify_cells": ("verify_cells", "count"),
    "latin.lsesc_pairs": ("lsesc_pairs", "count"),
    "butson.bytes_out": ("bytes_out", "bytes"),
    "cli.exit_mismatches": ("exit_mismatches", "count"),
    "bench.known_defects": ("known_defects", "count"),
}


def import_bhmat() -> Any:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bhmat
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bhmat from {src}: {exc}")
    if not Path(bhmat.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: bhmat was imported from {bhmat.__file__}, not {src}")
    return bhmat


def build(workload: str, seed: int, work: Path) -> list[Any]:
    import workloads

    return workloads.WORKLOADS[workload](Random(f"{workload}:{seed}"), work)


@dataclass
class PassResult:
    wall: float = 0.0
    # Scaled passes only: per operation, the (start, end) of each call, and
    # the (start, seconds) of each run of the reference loop.
    calls: defaultdict[str, list[tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    refs: list[tuple[float, float]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known_defects: list[str] = field(default_factory=list)
    outcomes: dict[str, dict[str, Any]] = field(default_factory=dict)


def reference_time() -> float:
    """Seconds the reference loop takes now; see end_to_end."""
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += (i * 7) % 13
    return perf_counter() - t0


def reference(refs: list[tuple[float, float]]) -> None:
    refs.append((perf_counter(), reference_time()))


def run_pass(ops: list[Any], pins: dict[str, Any], tracer: Any, scaled: bool = False) -> PassResult:
    """One pass over ``ops``; ``scaled`` runs the reference loop just
    before and just after each operation, for the end-to-end metrics."""
    res = PassResult()
    expected_all = pins.get("ops", {})
    known = set(pins.get("known_defects", []))
    # Each pass starts from a collected heap and each operation frees its
    # objects before the next is timed, so that the collector runs at the
    # same points in every pass.
    gc.collect()
    start = perf_counter()
    for op in ops:
        with tracer.span("bench.op"):
            raw = arg = None
            try:
                arg = op.prepare() if op.prepare else None
                if scaled:
                    reference(res.refs)
                t0 = perf_counter()
                raw = op.run(tracer, arg)
                t1 = perf_counter()
                if scaled:
                    res.calls[op.name].append((t0, t1))
                    reference(res.refs)
                outcome, counts = op.observe(raw)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                outcome, counts = {"error": f"{type(exc).__name__}: {exc}"}, {}
            raw = arg = None
        res.attempted += 1
        res.outcomes[op.name] = outcome
        res.counts.update(counts)
        expected = expected_all.get(op.name)
        if "exit" in op.documented and outcome.get("exit") != (expected or {}).get("exit"):
            res.counts["exit_mismatches"] += 1
        if outcome != expected:
            target = res.known_defects if op.name in known else res.failures
            target.append(f"{op.name}: got {outcome}, pinned {expected}")
    res.counts["known_defects"] = len(res.known_defects)
    res.wall = perf_counter() - start
    return res


def check_counts(passes: list[PassResult]) -> None:
    first = passes[0]
    for p in passes[1:]:
        if (p.attempted, p.counts) != (first.attempted, first.counts):
            raise SystemExit(
                f"error: counts differ between passes: {first.attempted} {dict(first.counts)}"
                f" vs {p.attempted} {dict(p.counts)}"
            )


def time_setup(args: argparse.Namespace, k: int) -> float:
    """Process start to inputs ready, in a fresh process, at the reference
    speed (see end_to_end) measured just after it."""
    work = WORK / f"{args.workload}-{os.getpid()}-setup{k}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    t0 = perf_counter()
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = perf_counter() - t0
        return elapsed / statistics.median(reference_time() for _ in range(3)) * REFERENCE_S
    finally:
        shutil.rmtree(work, ignore_errors=True)


def environment(bhmat: Any, args: argparse.Namespace) -> dict[str, Any]:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy,
        "bhmat": bhmat.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(ops: list[Any], passes: list[PassResult], setups: list[float]
               ) -> dict[str, tuple[float, str]]:
    """Times at the reference speed: each call's time is divided by the
    median time of the reference loop runs that started within the call's
    own length (or REFERENCE_WINDOW_S, if that is longer) of the call; the
    median of those ratios over the run, times REFERENCE_S, is the
    operation's time.  wall_s sums it over the pass's operation list, the
    per-kind metrics over the kind's distinct operations.

    Other tenants of a shared machine slow it, by up to half, in spells of
    seconds to minutes that can cover a whole run; the reference loop,
    timed in the same spell, slows with it and cancels it."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    refs = sorted(r for p in passes for r in p.refs)
    starts = [t for t, _ in refs]

    def ratio(t0: float, t1: float) -> float:
        window = max(REFERENCE_WINDOW_S, t1 - t0)
        lo = bisect_left(starts, t0 - window)
        hi = bisect_right(starts, t1 + window)
        return (t1 - t0) / statistics.median(seconds for _, seconds in refs[lo:hi])

    ratios: defaultdict[str, list[float]] = defaultdict(list)
    for p in passes:
        for name, calls in p.calls.items():
            ratios[name] += [ratio(t0, t1) for t0, t1 in calls]
    op_s = {name: statistics.median(values) * REFERENCE_S for name, values in ratios.items()}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(op_s.get(op.name, 0.0) for op in ops), "s"),
    }
    unique = {op.name: op for op in ops}.values()
    for kind, name in KIND_METRICS.items():
        metrics[name] = (sum(op_s.get(op.name, 0.0) for op in unique if op.kind == kind), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ops_ok"] = ((attempted - failed) / attempted, "ratio")
    return metrics


def per_layer(tracer: Any, traced: list[tuple[int, PassResult]], untraced: list[PassResult]
              ) -> dict[str, tuple[float, str]]:
    rows: list[dict[str, float]] = []
    for pass_id, res in traced:
        spans = tracer.of_pass(pass_id)
        selfs = self_times(spans)
        row = {f"{layer}_s": selfs.get(layer, 0.0) for layer in TIMED_LAYERS}
        row["scarpis.self_s"] = replica_self(spans, "scarpis.call")
        verify_out = row["butson.verify_out_s"]
        row["butson.verify_cells_per_s"] = res.counts["verify_cells"] / verify_out if verify_out else 0.0
        row["trace.unaccounted_s"] = res.wall - sum(selfs.get(name, 0.0) for name in LAYER_SPANS)
        rows.append(row)
    metrics = {name: (statistics.median(r[name] for r in rows), "s") for name in rows[0]}
    metrics["butson.verify_cells_per_s"] = (metrics["butson.verify_cells_per_s"][0], "cells/s")
    for name, (key, unit) in COUNTS.items():
        metrics[name] = (traced[0][1].counts[key], unit)
    traced_wall = statistics.median(res.wall for _, res in traced)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(p.wall for p in untraced), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("halving", "phi_odd", "cli_files", "lsesc_families"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        import_bhmat()
        build(args.workload, args.seed, args.setup_only)
        return 0

    bhmat = import_bhmat()
    env = environment(bhmat, args)
    print("env:", json.dumps(env))
    time_setups = not (args.trace or args.record_pins)
    setups: list[float] = []
    pins_all = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins = pins_all.get(args.workload, {})
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops = build(args.workload, args.seed, work)
        if args.record_pins:
            return record_pins(ops, run_pass(ops, {}, Untraced()), pins_all, args.workload)
        untraced: list[PassResult] = []
        traced: list[tuple[int, PassResult]] = []
        tracer = Tracer()
        # Set-up samples are spread over the run, so that a slow spell of the
        # machine reaches few of them; they count against --seconds.
        deadline = perf_counter() + args.seconds
        while not untraced or (args.trace and not traced) or perf_counter() < deadline:
            if args.trace and len(traced) < len(untraced):
                tracer.pass_id = len(untraced) + len(traced)
                traced.append((tracer.pass_id, run_pass(ops, pins, tracer)))
            else:
                untraced.append(run_pass(ops, pins, Untraced(), scaled=not args.trace))
            if time_setups and len(setups) < SETUP_SAMPLES:
                setups.append(time_setup(args, len(setups)))
        while time_setups and len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(args, len(setups)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + [res for _, res in traced]
    check_counts(passes)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "spans": tracer.dump()}))
        print(f"spans: {trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(ops, untraced, setups)

    failures = [f for p in passes for f in p.failures]
    for line in sorted(set(failures)):
        print("FAILED", line)
    for line in sorted({f for p in passes for f in p.known_defects}):
        print("known defect", line)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; operations per pass: {passes[0].attempted}")
    print("pass walls (s):", " ".join(f"{p.wall:.3f}" for p in untraced), "|",
          " ".join(f"{res.wall:.3f}" for _, res in traced))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def record_pins(ops: list[Any], res: PassResult, pins_all: dict[str, Any], workload: str) -> int:
    errors = [f"{name}: {o['error']}" for name, o in res.outcomes.items() if "error" in o]
    if errors:
        raise SystemExit("error: not pinning operations that raised: " + "; ".join(errors))
    expected = {op.name: {**res.outcomes[op.name], **op.documented} for op in ops}
    pins_all[workload] = {
        "ops": expected,
        "known_defects": [name for name in expected if res.outcomes[name] != expected[name]],
    }
    PINS.write_text(json.dumps(pins_all, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(expected)} operations of {workload}; known defects: {pins_all[workload]['known_defects']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
