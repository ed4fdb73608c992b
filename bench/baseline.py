"""Run the benchmark over several seeds and record each metric's quartiles.

    python3 bench/baseline.py                  # seeds 0-9 on every workload
    python3 bench/baseline.py --fingerprints   # after a deliberate generator change

Each run is a fresh ``run.py`` process with ``--trace 0`` and the run
length ``BENCHMARK.json`` fixes.  Per workload and end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (q3 - q1) / median next to the metric's bound, and writes
them to ``bench/baseline.json``, which ``run.py`` prints beside its own
numbers.  It exits with 1 when any spread is a third of its bound or
more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEEDS = range(10)

def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def record_fingerprints() -> None:
    prints = {w: workloads.fingerprint(workloads.generate(w, 0)) for w in workloads.NAMES}
    with (BENCH / "fingerprints.json").open("w", encoding="utf-8") as fh:
        json.dump(prints, fh, indent=2)
        fh.write("\n")
    print(json.dumps(prints, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if args.fingerprints:
        record_fingerprints()
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = {}
    steady = True
    for workload in workloads.NAMES:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 5) for k, v in runs[-1]["metrics"].items()}
            ), flush=True)
        rows[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        rows[workload]["failed"] = [r["failed"] for r in runs]
        rows[workload]["correct"] = all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            s = rows[workload][name]
            ok = s["spread"] < bound / 3
            steady &= ok
            print(
                f"  {workload:10s} {name:14s} median {s['median']:.6g} "
                f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] spread {s['spread']:.3f} "
                f"(bound {bound}{'' if ok else ', above a third of it'})"
            )
    record = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": rows,
    }
    with (BENCH / "baseline.json").open("w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
