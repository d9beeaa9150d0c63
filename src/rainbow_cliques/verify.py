"""Desk-scale exhaustive and randomized verification of the rainbow-clique
lemmas, using the same reductions the statements themselves rely on to keep
search spaces tractable.

Each verifier returns a :class:`VerificationReport`; an empty counterexample
list means success.  Reports serialize to a line-oriented text format
(``LEMMA <id> SPACE <count> CE <count> TIME <ms>``) followed by the
counterexamples as embedded ECG blocks.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import ceil, comb, isfinite, log

from .constructions import _recolor_fresh, extremal, perturb_fresh_colors
from .graph import ColoredGraph, ECGParseError, _field, format_ecg, parse_ecg, saturation
from .partitions import _balanced_partitions, completions, rainbow_pruned_partitions, stirling2
from .search import (
    _rainbow_cliques,
    count_rainbow_cliques,
    find_monochromatic_cycle,
    find_rainbow_clique,
    find_rainbow_turan,
)
from .turan import thresholds


@dataclass
class VerificationReport:
    lemma_id: str
    space_size: int
    counterexamples: list[ColoredGraph] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def format_report(report: VerificationReport) -> str:
    ms = round(report.elapsed * 1000)
    lines = [
        f"LEMMA {report.lemma_id} SPACE {report.space_size} "
        f"CE {len(report.counterexamples)} TIME {ms}"
    ]
    for g in report.counterexamples:
        lines.append(format_ecg(g).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> VerificationReport:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("LEMMA "):
        raise ValueError("report must start with a LEMMA line")
    # the fixed prefix `LEMMA <id> SPACE n CE n TIME n`, read by position
    fields = lines[0].split()

    def number(pos: int, name: str) -> int:
        try:
            if fields[pos - 1] != name:
                raise ValueError(name)
            value = _field(fields[pos])
        except (ValueError, IndexError):
            raise ValueError(f"line 1: no integer {name} field in {lines[0]!r}") from None
        if value < 0:
            raise ValueError(f"line 1: negative {name} field in {lines[0]!r}")
        return value

    space, ce_count, ms = number(3, "SPACE"), number(5, "CE"), number(7, "TIME")
    if len(fields) % 2:
        raise ValueError(f"line 1: field {fields[-1]!r} has no value in {lines[0]!r}")
    keys = fields[2::2]
    if len(set(keys)) != len(keys):
        raise ValueError(f"line 1: repeated field in {lines[0]!r}")
    ces = []
    pos = 1
    for i in range(ce_count):
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos == len(lines):
            raise ValueError(
                f"line {pos + 1}: report ends before counterexample {i + 1} of {ce_count}"
            )
        header = lines[pos].split()
        if len(header) != 2 or not (header[1].isascii() and header[1].isdigit()):
            raise ValueError(f"line {pos + 1}: expected an ECG header 'n m', got {lines[pos]!r}")
        m = int(header[1])
        block = lines[pos:pos + m + 1]
        try:
            ces.append(parse_ecg("\n".join(block)))
        except ECGParseError as exc:
            # renumber from the block's first line to the report's
            raise ECGParseError(pos + exc.line_no, str(exc).partition(": ")[2]) from None
        pos += m + 1
    for i in range(pos, len(lines)):
        if lines[i].strip():
            raise ValueError(
                f"line {i + 1}: text after the {ce_count} declared counterexamples: "
                f"{lines[i]!r}"
            )
    return VerificationReport(fields[1], space, ces, ms / 1000.0)


@lru_cache(maxsize=None)
def _subset_pairs(n: int, s: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The pairs inside each s-subset of 1..n, in combinations order."""
    return tuple(tuple(combinations(sub, 2)) for sub in combinations(range(1, n + 1), s))


def _colorings_without_rainbow(
    n: int, edges: list[tuple[int, int]], s: int, lo: int, hi: int
) -> tuple[list[ColoredGraph], int]:
    """Every coloring of `edges` (pairs on 1..n) with lo..hi colors, up to
    color renaming, in which no K_s on those edges is rainbow, as
    ColoredGraphs with colors 1..c, and the exact number of colorings
    skipped.  The cuts are the s-subsets of 1..n whose pairs all lie in
    `edges`, as edge-index tuples in `combinations` order."""
    index = {e: i for i, e in enumerate(edges)}
    cuts = []
    for pairs in _subset_pairs(n, s):
        ids = tuple(map(index.get, pairs))
        if None not in ids:
            cuts.append(ids)
    survivors, skipped = rainbow_pruned_partitions(len(edges), lo, hi, cuts)
    graphs = [ColoredGraph(n, {e: b + 1 for e, b in zip(edges, rgs)}) for rgs in survivors]
    return graphs, skipped


# -- Theorem: rainbow triangle above C(n,2)+n ------------------------------


def verify_triangle_threshold(n: int) -> VerificationReport:
    """Enumerate every edge subset of K_n and every set partition of it into
    color classes; assert each coloring with e+c >= C(n,2)+n has a rainbow
    triangle.  Only colorings at or above the threshold are generated, and a
    subtree is skipped (with its size counted exactly) once a triangle is
    rainbow, so the colorings that _colorings_without_rainbow returns are
    exactly the counterexamples."""
    if not (3 <= n <= 5):
        raise ValueError(f"triangle verifier supports 3 <= n <= 5, got n={n}")
    t0 = time.perf_counter()
    all_edges = list(combinations(range(1, n + 1), 2))
    threshold = thresholds(n, 3)[1]
    space = 0
    ces: list[ColoredGraph] = []
    for subset_mask in range(1 << len(all_edges)):
        m = subset_mask.bit_count()
        lo = max(threshold - m, 0)
        if lo > m:
            # e + c <= 2m < threshold: every coloring lies below it, none is built
            space += completions(m, 0, m)
            continue
        edges = [all_edges[i] for i in range(len(all_edges)) if subset_mask >> i & 1]
        graphs, skipped = _colorings_without_rainbow(n, edges, 3, lo, m)
        space += completions(m, 0, lo - 1) + skipped + len(graphs)
        ces.extend(graphs)
    report = VerificationReport(
        f"triangle-n{n}", space, ces, time.perf_counter() - t0
    )
    # Bell(m) summed over the edge subsets is Bell(C(n,2)+1)
    top = comb(n, 2) + 1
    if report.space_size != completions(top, 0, top):
        raise RuntimeError("partition accounting mismatch")
    return report


# -- Lemma: K6 with 10 colors dichotomy ------------------------------------

# Edges of K6 in colex order so that the K4 on the first j vertices is
# completed as early as possible, which lets whole subtrees be skipped as soon
# as a completed 4-subset is rainbow.
_K6_EDGES = sorted(combinations(range(1, 7), 2), key=lambda e: (e[1], e[0]))


def verify_k6_dichotomy() -> VerificationReport:
    """Enumerate all set partitions of the 15 edges of K6 into exactly 10
    classes.  Any coloring with a rainbow K4 satisfies the lemma vacuously,
    so the enumerator's one recursion skips a subtree (with its size counted
    exactly) once a completed 4-subset is rainbow, and at a node with at
    most two block reuses left it lists the completions with no rainbow
    4-subset directly instead of walking on (both through
    _colorings_without_rainbow, as in the triangle verifier).
    Each surviving coloring must have saturation tallies (c_2,c_1,c_0) =
    (9,0,1) and contain a rainbow T_{6,2} or a monochromatic C_6.  The C_6
    is looked for first: its search is the cheaper one, and 60 of the 70
    survivors have one, so the T_{6,2} search runs on only 10."""
    t0 = time.perf_counter()
    m, r = len(_K6_EDGES), 10
    survivors, skipped = _colorings_without_rainbow(6, _K6_EDGES, 4, r, r)
    space = skipped + len(survivors)
    ces: list[ColoredGraph] = []
    for g in survivors:
        c0, c1, c2 = saturation(g).tallies
        if (c2, c1, c0) != (9, 0, 1):
            ces.append(g)
            continue
        if find_monochromatic_cycle(g, 6) is None and find_rainbow_turan(g, 2) is None:
            ces.append(g)
    report = VerificationReport(
        "k6-dichotomy", space, ces, time.perf_counter() - t0
    )
    if report.space_size != stirling2(m, r):
        raise RuntimeError("partition accounting mismatch")
    return report


# -- labeled regular graph enumeration -------------------------------------


def _pair_bits(n: int) -> list[list[int]]:
    """bits[u][v] (1 <= u < v <= n) is 1 << i for the i-th pair of
    combinations(range(1, n + 1), 2): the bit of edge uv in an edge mask."""
    bits = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(combinations(range(1, n + 1), 2)):
        bits[u][v] = 1 << i
    return bits


def _regular_graphs(
    n: int, d: int, subsets: tuple[tuple[tuple[int, int], ...], ...]
) -> tuple[int, list[int]]:
    """The number of labeled simple d-regular graphs on vertices 1..n, and
    the edge masks of those in which every pair list in `subsets` holds at
    least 2 edges (distinct pairs u < v), in enumeration order.  Bit i of a
    mask is the i-th pair of combinations(range(1, n + 1), 2).

    Backtracking completes the smallest deficient vertex first, joining it
    only to later deficient vertices, so every edge has an end that is full
    once the edge is added: no edge ever joins two deficient vertices.  The
    completions of a partial graph therefore depend only on its state, the
    residual degree of each vertex, and each state lists its completions
    once; the state keeps the vertex labels, since the edges a completion
    adds depend on them.  A state is one int holding vertex v's residual
    degree in a field of w = max(d.bit_length(), 1) bits at bit w*v, so a
    branch takes one subtraction per chosen neighbour (a residual is at
    least 1 before it, so nothing borrows) and the memo looks up an int;
    the empty state is 0.  The graphs come in the order of plain
    backtracking over combinations.

    A completion holds every edge of the final graph between two vertices
    of its state, so a list whose vertices all lie in the state already has
    its final edge count there, and a completion short of 2 on such a list
    is dropped once, in the memo.  Those lists are the ones no vertex
    outside the state lies on: `within` clears, from every list, the
    `lists_at` mask of each full vertex.  Each completion carries per-list
    counts saturated at 2 as two bitmasks over the lists (bit i of `ones`:
    list i holds at least one of its edges; of `twos`: at least two), which
    compose by OR when a branch's edges are joined to a completion."""
    if n * d % 2 != 0 or d >= n:
        return 0, []
    bits = _pair_bits(n)
    holds = [[0] * (n + 1) for _ in range(n + 1)]  # holds[u][v]: the lists with uv
    lists_at = [0] * (n + 1)  # lists_at[v]: the lists with v among their vertices
    for i, pairs in enumerate(subsets):
        for u, v in pairs:
            holds[u][v] |= 1 << i
            lists_at[u] |= 1 << i
            lists_at[v] |= 1 << i
    every = (1 << len(subsets)) - 1
    w = max(d.bit_length(), 1)
    unit = [1 << w * v for v in range(n + 1)]  # residual degree 1 at vertex v
    low = sum(unit[1:])  # the low bit of every vertex's field
    inside: dict[int, int] = {}  # deficient vertices (as low bits) -> the lists within them
    # state -> (graph count, kept (mask, ones, twos) completions)
    memo: dict[int, tuple[int, list]] = {0: (1, [(0, 0, 0)])}

    def listed(state):
        got = memo.get(state)
        if got is None:
            occ = state  # bit w*v is set when vertex v is deficient
            for j in range(1, w):
                occ |= state >> j
            occ &= low
            within = inside.get(occ)
            if within is None:
                within = every
                for v in range(1, n + 1):
                    if not occ & unit[v]:
                        within &= ~lists_at[v]
                inside[occ] = within
            u = ((occ & -occ).bit_length() - 1) // w  # the smallest deficient vertex
            need = state >> w * u & (1 << w) - 1
            rest = [
                (unit[v], bits[u][v], holds[u][v])
                for v in range(u + 1, n + 1) if occ & unit[v]
            ]
            base = state - need * unit[u]
            count, kept = 0, []
            for chosen in combinations(rest, need):
                nxt = base
                edges = oe = te = 0
                for one, bit, hold in chosen:
                    nxt -= one
                    edges |= bit
                    te |= oe & hold
                    oe |= hold
                c, sub = listed(nxt)
                count += c
                for g, ones, twos in sub:
                    twos |= te | ones & oe
                    if twos & within == within:
                        kept.append((edges | g, ones | oe, twos))
            got = memo[state] = count, kept
        return got

    count, kept = listed(d * low)
    del listed  # it names itself, so the memo would outlive the call
    # the seeded empty state is never checked: test every list here
    return count, [g for g, _, twos in kept if twos == every]


def _mono_graph(edges: int, n: int) -> ColoredGraph:
    """Plain graph as a monochromatic ColoredGraph (for report embedding)."""
    pairs = combinations(range(1, n + 1), 2)
    return ColoredGraph(n, {p: 1 for i, p in enumerate(pairs) if edges >> i & 1})


def _regular_reduction(lemma_id: str, n: int, d: int, size: int) -> VerificationReport:
    """Enumerate the labeled d-regular graphs on 1..n as edge masks, keeping
    only those in which every `size`-subset of the subset table spans >= 2
    edges (see _regular_graphs, which drops a partial graph's completions as
    soon as a subset inside its deficient vertices spans fewer); assert the
    kept graphs are exactly the disjoint unions of K_{d+1}.  SPACE counts
    every regular graph.  The clique unions are the edge masks of the
    partitions of the vertices into q = n/(d+1) parts of size d+1.  The
    counterexamples are each kept graph that is not a clique union, in
    enumeration order, then each clique union that was dropped, in
    partition order.  Only counterexamples are unpacked from their masks."""
    t0 = time.perf_counter()
    bits = _pair_bits(n)
    unions = dict.fromkeys(
        sum(bits[u][v] for part in parts for u, v in combinations(part, 2))
        for parts in _balanced_partitions(n, (d + 1,) * (n // (d + 1)))
    )  # an ordered set: clique-union masks in partition order
    space, kept = _regular_graphs(n, d, _subset_pairs(n, size))
    found = set(kept)
    ces = [g for g in kept if g not in unions] + [g for g in unions if g not in found]
    return VerificationReport(
        lemma_id, space, [_mono_graph(g, n) for g in ces], time.perf_counter() - t0
    )


def verify_k8_reduction() -> VerificationReport:
    """Assert that the labeled 3-regular graphs on 8 vertices in which every
    4-subset spans >= 2 edges are exactly the 35 labeled copies of K4 + K4.
    Also check that the (c2,c1,c0) solution list for c=17,
    32 <= 2c2+c1 <= 34 matches the four admissible tuples."""
    expected = [(17, 0, 0), (16, 1, 0), (16, 0, 1), (15, 2, 0)]
    if verify_saturation_solutions(17, 32, 34) != expected:
        raise RuntimeError("saturation tally elimination list mismatch at c=17")
    return _regular_reduction("k8-reduction", 8, 3, 4)


def verify_k9_reduction() -> VerificationReport:
    """Assert that the labeled 2-regular graphs on 9 vertices (disjoint cycle
    covers with cycle lengths >= 3) in which every 5-subset spans >= 2 edges
    are exactly the 280 labeled copies of C3 + C3 + C3, so the C9, C6+C3 and
    C5+C4 types are all eliminated."""
    return _regular_reduction("k9-reduction", 9, 2, 5)


def verify_saturation_solutions(c_total: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """All nonnegative integer triples (c2, c1, c0) with c2+c1+c0 = c_total
    and lo <= 2*c2+c1 <= hi, sorted descending by c2 then c1."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    out = []
    for c2 in range(c_total, -1, -1):
        for c1 in range(c_total - c2, -1, -1):
            c0 = c_total - c2 - c1
            if lo <= 2 * c2 + c1 <= hi:
                out.append((c2, c1, c0))
    return out


def verify_tightness(n: int, k: int) -> VerificationReport:
    """Assert the extremal construction sits exactly at the extremal
    threshold with no rainbow K_k, and that recoloring any single intra-part
    edge with a fresh color creates a rainbow K_k (exhaustive over intra-part
    edges).  Needs n >= k: a graph on fewer than k vertices has no K_k, so
    no recoloring can make one rainbow."""
    if k not in (4, 5):
        raise ValueError(f"tightness verified for k in {{4,5}}, got k={k}")
    if n < k:
        raise ValueError(f"tightness needs n >= k, got n={n}, k={k}")
    t0 = time.perf_counter()
    g = extremal(n, k)
    extremal_ec, _ = thresholds(n, k)
    ces: list[ColoredGraph] = []
    space = 1
    if g.e + g.c != extremal_ec or find_rainbow_clique(g, k) is not None:
        ces.append(g)
    shared = max(g.colors.values())
    fresh = shared + 1
    intra_edges = sorted(e for e, c in g.colors.items() if c == shared)
    for edge in intra_edges:
        space += 1
        colors = dict(g.colors)
        colors[edge] = fresh
        perturbed = ColoredGraph(n, colors)
        if find_rainbow_clique(perturbed, k) is None:
            ces.append(perturbed)
    return VerificationReport(
        f"tightness-n{n}-k{k}", space, ces, time.perf_counter() - t0
    )


def falsify_two_cliques(
    k: int, n: int, trials: int, seed: int
) -> VerificationReport:
    """Seeded randomized search for a coloring at or above the existence
    threshold with exactly one rainbow K_k; success is finding none.  A hit
    would be a genuine counterexample and is emitted.

    Each trial draws every edge's color uniformly from a palette of
    target - C(n,2) colors, in one call, and recolors edges of monochromatic
    classes fresh until e+c reaches the target.  The colors stay a flat list
    in `combinations` edge order: the search reads them through one color
    matrix, whose lower triangle (all that it reads) is rewritten each
    trial, and a ColoredGraph is built only for a hit."""
    if not (n > k >= 6 or (k == 5 and n >= 10)):
        raise ValueError(
            f"two-cliques theorem covers n > k >= 6 or k=5, n >= 10; got k={k}, n={n}"
        )
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    t0 = time.perf_counter()
    e = comb(n, 2)
    target = thresholds(n, k)[1]
    rng = random.Random(seed)
    all_edges = list(combinations(range(1, n + 1), 2))
    palette = range(1, target - e + 1)
    full = (1 << (n + 1)) - 2
    adj = [0] + [full ^ 1 << v for v in range(1, n + 1)]
    # the host is K_n, so each trial writes every entry below the diagonal
    cm = [[0] * (n + 1) for _ in range(n + 1)]
    ces: list[ColoredGraph] = []
    for _ in range(trials):
        colors = rng.choices(palette, k=e)
        _recolor_fresh(colors, target, rng)
        for (u, v), c in zip(all_edges, colors):
            cm[v][u] = c
        # stop at a second rainbow K_k: only exactly one is a counterexample
        if len(_rainbow_cliques(adj, cm, k, 2)) == 1:
            ces.append(ColoredGraph(n, dict(zip(all_edges, colors))))
    return VerificationReport(
        f"two-cliques-k{k}-n{n}", trials, ces, time.perf_counter() - t0
    )


# Largest n per k, in steps of 10 up to 100, whose count takes under 10 s at
# eps 0.1, seed 1 (one core of a 2-core Xeon VM).  k = 6 takes 1.7-2.1 s at
# n = 60, 3.3-4.1 s at 70, 7.2-7.7 s at 80 and 10.2-12.3 s at 90; k = 5
# takes 0.8 s and k = 4 0.04 s at n = 100.
_SUPERSAT_MAX_N = {3: 100, 4: 100, 5: 100, 6: 80}


def supersaturation_experiment(
    k: int, ns: list[int], eps: float, seed: int
) -> tuple[list[tuple[int, int, int]], float]:
    """For each n, perturb the extremal pattern up to the supersaturation
    budget (1 + (k-3)/(k-2) + 2*eps) * C(n,2) and count rainbow K_k exactly.
    Returns the rows (n, e+c, count) and the least-squares slope of
    log(count) against log(n)."""
    if not 3 <= k <= 6:
        raise ValueError(f"experiment supports k in 3..6, got k={k}")
    if not (isfinite(eps) and eps > 0):
        raise ValueError(f"need a finite eps > 0, got {eps}")
    if len(set(ns)) < 2:
        raise ValueError(f"a slope needs at least two distinct n, got {ns}")
    # checked before any product: a huge finite eps overflows it to inf
    budget = 1 + (k - 3) / (k - 2) + 2 * eps
    if budget > 2:
        raise ValueError(
            f"target {budget:.6g}*C(n,2) exceeds the all-rainbow maximum 2*C(n,2)"
        )
    cap = _SUPERSAT_MAX_N[k]
    if max(ns) > cap:
        raise ValueError(f"experiment for k={k} capped at n <= {cap}, got n={max(ns)}")
    rows = []
    for n in ns:
        target = ceil(budget * comb(n, 2))
        g = perturb_fresh_colors(extremal(n, k), target, seed)
        cnt = count_rainbow_cliques(g, k)
        if cnt == 0:
            raise ValueError(f"no rainbow K_{k} at n={n}, so log(count) is undefined")
        rows.append((n, g.e + g.c, cnt))
    xs = [log(n) for n, _, _ in rows]
    ys = [log(cnt) for _, _, cnt in rows]
    return rows, statistics.linear_regression(xs, ys).slope
