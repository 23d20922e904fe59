"""Benchmark of tsppsd membership decisions and oracle checks.

One run measures one workload in a fresh process, as a single-client closed
loop: each call waits for the previous verdict.  Run from the repository
root:

    python3 bench/run.py --workload facet-p1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1    # every workload, one process each

--trace 0 prints the end-to-end metrics: setup_s, items_per_s, item_p50_s,
item_p90_s and peak_rss_mib.  --trace 1 runs one pass of the workload
untraced and one traced, and prints the per-layer metrics (see METRICS.md).
Every output is checked against ground truth that holds by construction,
outside the timed calls; the last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics".

Seed 1 is the default; seed 2 is the hold-out seed for checking later
claims on inputs not used while writing them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("facet-p1", "explicit-cli", "oracle-enum")
DEFAULT_SEED = 1  # seed 2 is the hold-out seed
SETUP_ROUNDS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import tsppsd; print(time.perf_counter() - t)"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# On a shared host the speed of this process drifts by up to 2x within
# minutes as other tenants come and go, and the time of a pass tracks the
# time of a fixed interpreter loop (correlation 0.95 per pass on a 2-CPU
# Xeon).  So a probe runs between timed calls, and each call's time is
# scaled by PROBE_REF_S / (mean of the probes before and after it): times
# read in seconds of a host running at reference speed.  Raw values are
# printed on a "# speed factor" line.
PROBE_REF_S = 1.6e-3  # probe time on an idle 2-CPU Xeon
PROBE_LOOPS = 20000
SETUP_PROBES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="input seed (default 1; 2 is the hold-out seed)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="target summed call time of the untraced timed phase, "
                        "rounded to whole passes; a traced run times one pass each way")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="desk-size inputs, for the self-test")
    p.add_argument("--plant-fault", action="store_true",
                   help="flip one expected verdict, for the self-test")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def probe() -> float:
    """Seconds taken by a fixed interpreter loop that allocates nothing the
    gc tracks, so the program's heap cannot slow it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def speed_factor(probes: list[float]) -> float:
    """Multiply a measured time by this to read it at reference speed."""
    return PROBE_REF_S / statistics.mean(probes)


@dataclass(frozen=True)
class Record:
    slot: int
    raw_s: float  # measured call time
    scaled_s: float  # call time at reference speed
    fingerprint: str


def timed_loop(wl, items, *, seconds=None, passes=None, tracer=None):
    """Run whole passes over `items`: `passes` of them, or as many as bring
    the summed call time closest to `seconds` (at least one).  Whole passes
    keep the mix of items, and so every percentile, the same in every run.
    Returns one Record per call and the first outcome of each distinct
    result."""
    calls: list[tuple[int, float, str]] = []
    outcomes: dict[tuple[int, str], object] = {}
    probes = [probe()]
    clock = time.perf_counter
    busy = 0.0
    done = 0
    while True:
        for slot, item in enumerate(items):
            if tracer is not None:
                tracer.item = len(calls)
            t0 = clock()
            try:
                raw = wl.execute(item)
            except Exception as exc:  # a failed item is counted, never dropped
                raw = wl.Raised(f"{type(exc).__name__}: {exc}")
            latency = clock() - t0
            probes.append(probe())
            outcome = wl.collect(item, raw)
            fp = wl.fingerprint(outcome)
            outcomes.setdefault((slot, fp), outcome)
            calls.append((slot, latency, fp))
            busy += latency
        done += 1
        if done == passes or (passes is None and busy + busy / done / 2 >= seconds):
            records = [Record(slot, lat, lat * speed_factor(probes[i: i + 2]), fp)
                       for i, (slot, lat, fp) in enumerate(calls)]
            return records, outcomes


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def import_seconds() -> float:
    """Import time of tsppsd in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def check_all(wl, items, records, outcomes) -> list[tuple[int, str]]:
    reasons = {}
    for (slot, fp), outcome in outcomes.items():
        try:
            reasons[(slot, fp)] = wl.check(items[slot], outcome)
        except Exception as exc:
            reasons[(slot, fp)] = f"check raised {type(exc).__name__}: {exc}"
    return [(r.slot, reasons[(r.slot, r.fingerprint)])
            for r in records if reasons[(r.slot, r.fingerprint)]]


def rate(records: list[Record], scaled: bool = True) -> float:
    return len(records) / sum(r.scaled_s if scaled else r.raw_s for r in records)


def run_workload(args: argparse.Namespace) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tsppsd
    except ImportError as exc:
        print(f"error: cannot import tsppsd from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(tsppsd.__file__).resolve().parent != ROOT / "src" / "tsppsd":
        print(f"error: tsppsd imported from {tsppsd.__file__}, not from src/", file=sys.stderr)
        return 2
    import tracer as tr
    import workloads as wl

    print("# env " + json.dumps(environment()))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # One set-up round: a fresh interpreter's import, input generation and
        # one warm-up item per kind.  setup_s is the median round.
        rounds, raw_rounds = [], []
        for _ in range(SETUP_ROUNDS):
            factor = speed_factor([probe() for _ in range(SETUP_PROBES)])
            import_s = import_seconds()
            t0 = time.perf_counter()
            items = wl.build_pass(args.workload, args.seed, args.tiny, str(workdir))
            for item in wl.warmup_items(items):
                try:
                    wl.execute(item)
                except Exception as exc:  # the timed calls count it as a failure
                    print(f"# warm-up {item.label} raised {type(exc).__name__}: {exc}")
            raw_rounds.append(import_s + time.perf_counter() - t0)
            rounds.append(raw_rounds[-1] * factor)
        if args.plant_fault:
            items = wl.plant_fault(items)
        print(f"# inputs workload={args.workload} seed={args.seed} "
              f"items_per_pass={len(items)} digest={wl.spec_digest(items)}")

        if args.trace:
            records_u, outcomes_u = timed_loop(wl, items, passes=1)
            tracer = tr.Tracer()
            tracer.install()
            try:
                records_t, outcomes_t = timed_loop(wl, items, passes=1, tracer=tracer)
            finally:
                tracer.uninstall()
            records = records_u + records_t
            outcomes = {**outcomes_u, **outcomes_t}
            factor = rate(records_t, scaled=False) / rate(records_t)
            metrics = {name: (value * factor if name.endswith(".self_s") else value,
                              tr.PER_LAYER_UNITS[name])
                       for name, value in tracer.metrics(rate(records_u) / rate(records_t)).items()}
            print(f"# speed factor of the traced pass {factor:.4f}")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(str(spans_path))
            print(f"# spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}; "
                  f"missing entry points: {tracer.missing or 'none'}")
        else:
            records, outcomes = timed_loop(wl, items, seconds=args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            scaled = [r.scaled_s for r in records]
            raw = [r.raw_s for r in records]
            values = {
                "setup_s": statistics.median(rounds),
                "items_per_s": rate(records),
                "item_p50_s": statistics.median(scaled),
                "item_p90_s": p90(scaled),
                "peak_rss_mib": peak_rss_mib,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            tail = len(records) - math.ceil(0.9 * len(records))
            print(f"# samples {len(records)} ({tail} beyond p90), "
                  f"{len(records) / len(items):.2f} passes")
            print(f"# speed factor {rate(records, scaled=False) / rate(records):.4f}; "
                  f"raw setup_s = {statistics.median(raw_rounds):.6g} s, "
                  f"raw items_per_s = {rate(records, scaled=False):.6g} 1/s, "
                  f"raw item_p50_s = {statistics.median(raw):.6g} s, "
                  f"raw item_p90_s = {p90(raw):.6g} s")

        failures = check_all(wl, items, records, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# fail_ratio = {len(failures) / len(records):.6g} "
          f"({len(failures)} failed / {len(records)} attempted)")
    for slot, reason in sorted(set(failures))[:20]:
        print(f"# FAIL slot {slot} {items[slot].label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--plant-fault"] * args.plant_fault
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
