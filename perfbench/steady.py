"""Steadiness check: run the benchmark over several seeds and report each
end-to-end metric's median and quartile spread against its bound.

    python3 perfbench/steady.py --workloads mirror,link-bulk --seeds 1-10

Runs one benchmark process at a time from the checkout root, with the
``run_seconds`` and bounds of ``BENCHMARK.json``. A spread is (Q3 - Q1) /
median over the seeds; the target is a third of the bound. Results also go
to ``.bench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            result = run_once(spec["command"], workload, seed, args.seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.5g}" for n in bounds), flush=True)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(values, indent=1))
        for name, vals in values.items():
            spread = quartile_spread(vals)
            target = bounds[name] / 3
            flag = "ok" if spread < target else "WIDE"
            ok &= flag == "ok"
            print(f"  {workload:15} {name:18} median={statistics.median(vals):<12.6g} "
                  f"spread={spread:.4f} target<{target:.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
