"""Benchmark for the rainbow_cliques library and its ``rbc`` CLI.

    python3 perfbench/run.py --workload NAME \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` it sets up the workload again and again for
``SETUP_BUDGET_S``, then runs passes of the workload until ``--seconds``
have elapsed, and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs one untraced and one traced pass over the same
inputs, reports the per-layer metrics, and writes the spans to
``perfbench/out/trace-<workload>.npz``.
End-to-end times are normalised to a reference host speed (see speed.py).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up is repeated for this long, and at least SETUP_MIN times, and
# setup_s is the median, so that one slow import does not move it
SETUP_BUDGET_S = 3.0
SETUP_MIN = 7

import layers  # noqa: E402
from speed import Probe  # noqa: E402
from tracing import PACKAGE, Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS, median  # noqa: E402


def fresh_import():
    """Import the library as a new process would, dropping earlier copies."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return SimpleNamespace(
        verify=importlib.import_module(PACKAGE + ".verify"),
        cli=importlib.import_module(PACKAGE + ".cli"),
    )


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _call(op):
    try:
        return op.call()
    except Exception as exc:  # a failed operation must not end the run
        return exc


def run_pass(ops, probe: Probe, tracer: Tracer | None = None):
    """Issue each op after the previous one returned.  An op that raises
    yields its exception as output, so the check counts it as failed.
    Times are normalised by the probe's timed samples, and it takes an idle
    sample before each op (see speed.py).  The time timed samples took
    inside an op is taken out of the op's wall and CPU time.

    Returns [(kind, normalised s)], the outputs, and the pass's normalised
    wall, raw CPU and raw wall seconds."""
    spans, outputs = [], []
    for op in ops:
        probe.idle()
        span = tracer.begin_op(op.kind, op.meta) if tracer else None
        stolen, cpu0, start = probe.stolen, _cpu(), time.perf_counter()
        outputs.append(_call(op))
        end, cpu1 = time.perf_counter(), _cpu()
        if tracer:
            tracer.finish(span)
        stolen = probe.stolen - stolen
        spans.append((op.kind, start, end, end - start - stolen, cpu1 - cpu0 - stolen))
    probe.idle()
    records = [(kind, raw * probe.factor(start, end)) for kind, start, end, raw, _ in spans]
    wall = sum(norm for _, norm in records)
    cpu = sum(cpu for *_, cpu in spans)
    raw_wall = sum(raw for *_, raw, _ in spans)
    return records, outputs, wall, cpu, raw_wall


def count_failures(ops, outputs) -> int:
    failed = 0
    for op, out in zip(ops, outputs):
        try:
            ok = not isinstance(out, Exception) and op.check(out)
        except Exception:  # a malformed output that breaks its check fails it
            ok = False
        if not ok:
            detail = "".join(traceback.format_exception(out)) if isinstance(out, Exception) else repr(out)
            print(f"FAILED {op.kind}: {detail}"[:2000], file=sys.stderr)
            failed += 1
    return failed


def measure(workload, lib, rng, seconds: float, probe: Probe):
    passes, walls, cpus, raw_walls = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        ops = workload.ops(lib, rng)
        records, outputs, wall, cpu, raw_wall = run_pass(ops, probe)
        passes.append(records)
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw_wall)
        attempted += len(ops)
        failed += count_failures(ops, outputs)
    part1, part2, named = workload.summarize(passes)
    metrics = {
        "wall_s": median(walls),
        # idle samples either side of one pass follow the host too loosely;
        # over the whole run they sample it in proportion to time, so the
        # run's mean is scaled by their mean
        "cpu_s": sum(cpus) / len(cpus) * probe.idle_factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "part1_s": part1,
        "part2_s": part2,
    }
    named.append(("wall_s.raw", median(raw_walls), "s"))
    return metrics, named, attempted, failed, len(passes)


def measure_traced(workload, lib, rng, seed: int, probe: Probe):
    ops = workload.ops(lib, rng)
    _, outputs, wall_untraced, _, _ = run_pass(ops, probe)
    failed = count_failures(ops, outputs)
    tracer = Tracer()
    with instrumented(tracer):
        _, outputs, wall_traced, _, _ = run_pass(ops, probe, tracer)
    failed += count_failures(ops, outputs)
    metrics = layers.layer_metrics(tracer, wall_untraced, wall_traced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.npz", workload=workload.name, seed=seed)
    named = [("wall_s.untraced", wall_untraced, "s"), ("wall_s.traced", wall_traced, "s")]
    return metrics, named, 2 * len(ops), failed, 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  a dependency, imported once before set-up is timed

    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    probe = Probe()
    try:
        with probe:
            setups = []
            deadline = time.perf_counter() + SETUP_BUDGET_S
            while len(setups) < SETUP_MIN or time.perf_counter() < deadline:
                stolen, start = probe.stolen, time.perf_counter()
                lib = fresh_import()
                workload.setup(lib, args.seed, workdir)
                end = time.perf_counter()
                setups.append((start, end, end - start - (probe.stolen - stolen)))
            rng = random.Random(args.seed)
            if args.trace:
                metrics, named, attempted, failed, passes = measure_traced(
                    workload, lib, rng, args.seed, probe)
            else:
                metrics, named, attempted, failed, passes = measure(
                    workload, lib, rng, args.seconds, probe)
                metrics["setup_s"] = median([raw * probe.factor(s, e) for s, e, raw in setups])
                named.append(("setup_repeats", len(setups), "count"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    named.append(("host_speed", probe.factor(probe.times[0], probe.times[-1]), "x"))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} passes {passes}")
    for name, value, unit in named:
        print(f"  {name:<44} {value:12.6g} {unit}")
    print(f"  {'fail_rate':<44} {failed / attempted:12.6g} ({failed} failed of {attempted} attempted)")
    for name in sorted(metrics):
        print(f"  {name:<44} {metrics[name]:12.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
