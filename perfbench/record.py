"""Run the benchmark over several seeds, twice, and summarise it.

    python3 perfbench/record.py [--out FILE.json]

Every workload of BENCHMARK.json runs on seeds 1-10, then again on the same
seeds as a second set, then once on the held-out seed 9001, which was kept
out of the tuning, then once traced.  Each run is one ``run.py`` process,
run one after another, never two at once.  For every end-to-end metric it
prints, with the unit and the workload, each set's median and quartile
spread (Q3 - Q1) / median, how much worse the second median is than the
first, how far the held-out run is from the first median, and the bound
from BENCHMARK.json.  ``--out`` writes all of it, with the machine and
library versions, as one trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)$")
SEEDS = range(1, 11)
SETS = 2
HOLDOUT = 9001


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    # the per-step lines run.py prints before the result, such as lemma.k6_s
    result["named"] = {
        m.group(1): {"value": float(m.group(2)), "unit": m.group(3)}
        for m in map(LINE.match, lines[1:-1]) if m and m.group(1) not in result["metrics"]
    }
    result["seed"] = seed
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    entry = {**environment(), "run_seconds": seconds, "workloads": {}}
    print(f"{'workload':<13} {'metric':<20} {'unit':<5} {'median1':>10} {'spread1':>7} "
          f"{'median2':>10} {'spread2':>7} {'2 vs 1':>7} {'holdout':>7} {'bound':>6}")
    for w in spec["workloads"]:
        workload = w["name"]
        sets = [[run_once(workload, s, seconds, 0) for s in SEEDS] for _ in range(SETS)]
        holdout = run_once(workload, HOLDOUT, seconds, 0)
        rows = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            rows[name] = {"unit": m["unit"], "bound": m["bound"],
                          "sets": [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets],
                          "holdout": holdout["metrics"][name]["value"]}
        for name, meta in sets[0][0]["named"].items():
            rows[name] = {"unit": meta["unit"], "bound": None,
                          "sets": [summary([r["named"][name]["value"] for r in runs]) for runs in sets],
                          "holdout": holdout["named"][name]["value"]}
        for name, row in rows.items():
            first, second = row["sets"]
            row["second_vs_first"] = second["median"] / first["median"] - 1
            row["holdout_vs_first"] = row["holdout"] / first["median"] - 1
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            print(f"{workload:<13} {name:<20} {row['unit']:<5} {first['median']:10.4g} "
                  f"{first['spread']:7.3f} {second['median']:10.4g} {second['spread']:7.3f} "
                  f"{row['second_vs_first']:+7.3f} {row['holdout_vs_first']:+7.3f} {bound:>6}")
        runs = [r for runs in sets for r in runs] + [holdout]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:<13} {'fail_rate':<20} {'':<5} {failed / attempted:10.4g} "
              f"({failed} failed of {attempted} attempted)")
        traced = run_once(workload, SEEDS[0], seconds, 1)
        for name, m in traced["metrics"].items():
            if name.startswith(("split.", "trace.")) and m["value"]:
                print(f"{workload:<13} {name:<44} {m['value']:10.4g} {m['unit']}")
        entry["workloads"][workload] = {
            "seeds": list(SEEDS), "holdout_seed": HOLDOUT, "attempted": attempted,
            "failed": failed, "end_to_end": rows, "sets": sets, "holdout": holdout,
            "traced": traced,
        }
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
