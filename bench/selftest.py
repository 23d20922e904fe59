"""Self-test of the benchmark at desk size (--tiny, about a minute).

Checks two things, for every workload in BENCHMARK.json:

1. an untraced run prints every end-to-end metric, and a traced run every
   per-layer metric, each with the unit BENCHMARK.json gives it, and both
   runs are correct;
2. a planted wrong expected verdict (--plant-fault) shows up as failed
   items: fail_ratio > 0 and "correct" false.

Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
FAIL_RATIO = re.compile(r"^# fail_ratio = (\S+) ", re.MULTILINE)


def run(workload: str, *flags: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--tiny", *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            result, _ = run(workload, "--trace", trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} --trace {trace}: metrics differ from {key}: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"unit mismatch {sorted(n for n in want if n in got and got[n] != want[n])}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{workload} --trace {trace}: non-numeric values {bad}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} items failed")
        result, text = run(workload, "--plant-fault")
        ratio = FAIL_RATIO.search(text)
        if result["correct"] or not result["failed"] or ratio is None or float(ratio[1]) <= 0:
            problems.append(f"{workload}: planted fault not seen "
                            f"(failed={result['failed']}, fail_ratio={ratio and ratio[1]})")
        print(f"{workload}: checked")
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
