"""Per-layer metrics from one traced pass.

``<layer>.<function>.calls`` counts spans, ``.yielded`` counts items a
generator produced, and ``.self_s`` sums span self time (duration minus the
time covered by traced callees).  ``split.<function>.<op>`` is that
function's self time as a share of the total time of the named operations.
Every metric is reported on every workload, as 0 where the layer did not run.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Tracer, self_times

TIMED = (
    "graph.parse_ecg", "graph.format_ecg", "graph.ColoredGraph", "graph.saturation",
    "search.count_rainbow_cliques", "search.find_rainbow_clique",
    "search.find_properly_colored_c4", "search.find_monochromatic_path",
    "search.find_rainbow_turan", "search.find_monochromatic_cycle",
    "constructions.perturb_fresh_colors", "constructions.extremal",
    "verify.canonical_form",
)
SELF_ONLY = (
    "partitions.iter_all_partitions", "verify.verify_k6_dichotomy",
    "verify.labeled_regular_graphs", "verify.falsify_two_cliques", "cli.run",
)
YIELDED = ("partitions.iter_all_partitions", "verify.labeled_regular_graphs")
# (function, op-kind prefix): the cost splits measured when this benchmark
# was defined, which the traced run must reproduce
SPLITS = (
    ("search.count_rainbow_cliques", "falsify."),
    ("search.count_rainbow_cliques", "supersat.k4"),
    ("verify.canonical_form", "lemma.k8"),
    ("verify.verify_k6_dichotomy", "lemma.k6"),
)
K6 = "verify.verify_k6_dichotomy"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, wall_untraced: float, wall_traced: float) -> dict[str, float]:
    selfs = self_times(tr.start, tr.end, tr.parent)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    by_op_kind: dict[tuple[str, str], float] = defaultdict(float)
    op_time: dict[str, float] = defaultdict(float)
    names = [tr.names[i] for i in tr.name_id]
    k6_survivors = 0
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += selfs[i]
        kind = tr.op_kinds[tr.op[i]] if tr.op[i] >= 0 else ""
        by_op_kind[(name, kind)] += selfs[i]
        op_time[kind] += selfs[i]
        if tr.parent[i] >= 0 and name == "graph.saturation" and names[tr.parent[i]] == K6:
            k6_survivors += 1

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.calls"] = calls[name]
    for name in TIMED + SELF_ONLY:
        m[f"{name}.self_s"] = self_s[name]
    for name in YIELDED:
        m[f"{name}.yielded"] = tr.counters[f"{name}.yielded"]
    c = tr.counters
    m["graph.parse_ecg.bytes_per_s"] = _ratio(c["graph.parse_ecg.bytes"], self_s["graph.parse_ecg"])
    m["search.count_rainbow_cliques.cliques_per_s"] = _ratio(
        c["search.count_rainbow_cliques.cliques"], self_s["search.count_rainbow_cliques"])
    m["partitions.iter_all_partitions.useful_ratio"] = _ratio(
        c["partitions.iter_all_partitions.useful"], c["partitions.iter_all_partitions.yielded"])
    m["verify.verify_k6_dichotomy.space_per_s"] = _ratio(c[f"{K6}.space"], self_s[K6])
    m["verify.verify_k6_dichotomy.survivor_ratio"] = _ratio(k6_survivors, c[f"{K6}.space"])
    for name, prefix in SPLITS:
        kinds = [k for k in op_time if k.startswith(prefix)]
        share = _ratio(sum(by_op_kind[(name, k)] for k in kinds), sum(op_time[k] for k in kinds))
        m[f"split.{name.split('.', 1)[1]}.{prefix.rstrip('.').replace('.', '_')}"] = share
    m["trace.spans"] = len(names)
    m["trace.overhead_s"] = wall_traced - wall_untraced
    return m
