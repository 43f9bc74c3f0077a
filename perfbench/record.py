"""Record a baseline: seeded runs of every workload, summarised.

Usage, from the root of a fadecap checkout:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

For each workload this makes one ``--trace 0`` run per seed and gives
each end-to-end metric's median, quartiles and quartile spread (the
distance between the quartiles as a share of the median). It then makes
``--trace 1`` runs on the first two seeds and a second run on the first
seed, and records whether that repeat reproduced every count exactly.
Takes about 25 minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = json.loads(lines[1][2:])
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as bench

    record = {"environment": bench.environment(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            r = run(name, seed, spec["run_seconds"], 0)
            runs.append(r)
            print(name, seed, r["correct"], r["attempted"], r["failed"], flush=True)
        traced = {seed: run(name, seed, spec["run_seconds"], 1) for seed in seeds[:2]}
        repeat = run(name, seeds[0], spec["run_seconds"], 1)
        counts = [m for m, v in traced[seeds[0]]["metrics"].items() if v["unit"] == "count"]
        record["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + list(traced.values())),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summarise(runs),
            "per_layer": {str(seed): {m: v["value"] for m, v in r["metrics"].items()}
                          for seed, r in traced.items()},
            "counts_repeat_exactly": all(
                traced[seeds[0]]["metrics"][m]["value"] == repeat["metrics"][m]["value"]
                for m in counts),
            "notes": {str(seed): r["notes"] for seed, r in zip(seeds, runs)},
        }
        for metric, s in record["workloads"][name]["end_to_end"].items():
            print(f"  {metric:14s} median {s['median']:12.6g} spread {s['spread']:.4f}", flush=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
