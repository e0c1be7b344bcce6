#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (IQR over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).

    python3 bench/repeat.py --workload otp-session --seeds 1-10 --seconds 20

Runs one seed at a time, each in a fresh interpreter, and compares every
spread with the bound BENCHMARK.json sets for the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        digest = next((ln.split("=")[1].split()[0] for ln in lines
                       if "digest sha256" in ln), "?")
        reference = next((ln.split("median")[1].split()[0] for ln in lines
                          if "reference loop ms" in ln), "?")
        res = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        ok &= proc.returncode == 0 and res["correct"]
        print(f"seed {seed}: rc={proc.returncode} correct={res['correct']} "
              f"digest={digest[:16]} reference_loop_ms={reference} "
              + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
              flush=True)
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for metric in spec["end_to_end"]:
        vs = values.get(metric["name"], [])
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        flag = "ok" if spread <= metric["bound"] / 3 else (
            "within bound" if spread <= metric["bound"] else "TOO WIDE")
        print(f"{metric['name']}: median={statistics.median(vs):.6g} "
              f"spread={spread:.4f} bound={metric['bound']} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
