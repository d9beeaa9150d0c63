"""Brute-force reference oracles for the tests, independent of the search
paths they check."""

import random
from bisect import bisect_left
from collections import Counter
from itertools import combinations, permutations, product

from rainbow_cliques import ColoredGraph, stirling2


def count_rainbow_cliques_naive(g: ColoredGraph, k: int) -> int:
    """All-subsets oracle, independent of the backtracking path."""
    if k < 1:
        raise ValueError(f"clique size must be positive, got k={k}")
    if k == 1:
        return g.n
    cm = g.color_matrix
    count = 0
    for subset in combinations(range(1, g.n + 1), k):
        cols = set()
        ok = True
        for u, v in combinations(subset, 2):
            col = cm[u][v]
            if col == 0 or col in cols:
                ok = False
                break
            cols.add(col)
        if ok:
            count += 1
    return count


def count_rainbow_cliques_one_big_class(g: ColoredGraph, k: int) -> int:
    """Rainbow K_k count for a graph in which every color class but at most
    one, H, is a single edge, as in the supersaturation experiment (the
    extremal pattern plus fresh colors).  There a k-clique is rainbow
    exactly when it spans at most one H-edge, so vertex sets grow in
    increasing order along common neighbours and stop at a second H-edge."""
    if k < 1:
        raise ValueError(f"clique size must be positive, got k={k}")
    big = [c for c, size in Counter(g.colors.values()).items() if size >= 2]
    if len(big) > 1:
        raise ValueError(f"needs at most one class of two or more edges, got {len(big)}")
    h = [0] * (g.n + 1)  # H-neighbour masks
    for (u, v), c in g.colors.items():
        if c in big:
            h[u] |= 1 << v
            h[v] |= 1 << u
    adj = g.adj

    def grow(size: int, members: int, common: int, hedges: int) -> int:
        if size == k:
            return 1
        total = 0
        for v in range(1, g.n + 1):
            if common >> v & 1:
                more = hedges + (h[v] & members).bit_count()
                if more <= 1:
                    above = common & adj[v] & ~((2 << v) - 1)
                    total += grow(size + 1, members | 1 << v, above, more)
        return total

    return grow(0, 0, (1 << (g.n + 1)) - 2, 0)


# The finder oracles below try every candidate vertex tuple.  `combinations`
# and `permutations` emit tuples in lexicographic order, so the first tuple
# that passes is the least witness under the finder's canonical orientation.


def _colors(g: ColoredGraph, pairs) -> list:
    return [g.color_of(u, v) for u, v in pairs]


def _rainbow(g: ColoredGraph, pairs) -> bool:
    cols = _colors(g, pairs)
    return None not in cols and len(set(cols)) == len(cols)


def _one_color(g: ColoredGraph, pairs) -> bool:
    cols = _colors(g, pairs)
    return None not in cols and len(set(cols)) == 1


def mono_path_naive(g: ColoredGraph, nverts: int) -> tuple[int, ...] | None:
    """Least path (first endpoint below the last) on nverts distinct vertices
    whose edges all share one color."""
    return next((
        p for p in permutations(range(1, g.n + 1), nverts)
        if p[0] < p[-1] and _one_color(g, zip(p, p[1:]))
    ), None)


def mono_cycle_naive(g: ColoredGraph, length: int) -> tuple[int, ...] | None:
    """Least cycle (smallest vertex first, second below the last) on
    `length` distinct vertices whose edges all share one color."""
    return next((
        p for p in permutations(range(1, g.n + 1), length)
        if p[0] == min(p) and p[1] < p[-1] and _one_color(g, zip(p, p[1:] + p[:1]))
    ), None)


def proper_c4_naive(g: ColoredGraph) -> tuple[int, ...] | None:
    """Least 4-cycle (smallest vertex first, second below the last) whose
    consecutive edges differ in color."""
    for p in permutations(range(1, g.n + 1), 4):
        cols = _colors(g, zip(p, p[1:] + p[:1]))
        if p[0] == min(p) and p[1] < p[3] and None not in cols and all(
            cols[i] != cols[i - 1] for i in range(4)
        ):
            return p
    return None


def rainbow_bipartite_naive(g: ColoredGraph, a: int, b: int) -> tuple[int, ...] | None:
    """Least A + B over disjoint increasing vertex tuples of sizes a and b
    (with A[0] < B[0] when a == b) whose a*b cross edges all exist with
    pairwise distinct colors."""
    verts = range(1, g.n + 1)
    return next((
        A + B for A in combinations(verts, a) for B in combinations(verts, b)
        if not set(A) & set(B) and (a != b or A[0] < B[0])
        and _rainbow(g, [(u, v) for u in A for v in B])
    ), None)


def rainbow_turan_exists_naive(g: ColoredGraph, r: int) -> bool:
    """Whether some split of the vertices into r parts whose sizes differ by
    at most one has all cross edges present with pairwise distinct colors."""
    for labels in product(range(r), repeat=g.n):
        sizes = [labels.count(i) for i in range(r)]
        if min(sizes) == 0 or max(sizes) - min(sizes) > 1:
            continue
        pairs = [
            (u, v) for u, v in combinations(range(1, g.n + 1), 2)
            if labels[u - 1] != labels[v - 1]
        ]
        if _rainbow(g, pairs):
            return True
    return False


def bell(m: int) -> int:
    return sum(stirling2(m, r) for r in range(m + 1))


def blocks_of(rgs: tuple[int, ...]) -> list[list[int]]:
    nblocks = max(rgs) + 1 if rgs else 0
    out: list[list[int]] = [[] for _ in range(nblocks)]
    for i, b in enumerate(rgs):
        out[b].append(i)
    return out


def max_cross_edges_brute_force(n: int, k: int) -> int:
    """Independent oracle: maximum cross-edge count over all partitions of n
    labeled vertices into at most k parts, by enumerating part-size
    compositions.  Cross edges depend only on the size multiset."""
    if k <= 0:
        raise ValueError(f"part count must be positive, got k={k}")
    best = 0

    def rec(remaining: int, parts_left: int, max_size: int, sizes: list[int]):
        nonlocal best
        if parts_left == 0:
            if remaining == 0:
                cross = sum(
                    sizes[i] * sizes[j]
                    for i in range(len(sizes))
                    for j in range(i + 1, len(sizes))
                )
                best = max(best, cross)
            return
        lo = (remaining + parts_left - 1) // parts_left
        for s in range(min(max_size, remaining), lo - 1, -1):
            rec(remaining - s, parts_left - 1, s, sizes + [s])

    rec(n, k, n, [])
    return best


def labeled_regular_graphs_naive(n: int, d: int) -> list[int]:
    """Every d-regular edge subset of K_n, n <= 6, as an edge mask whose bit
    i is the i-th pair of combinations(range(n), 2), in increasing order:
    all 2^C(n,2) subsets are tried, skipping those without n*d/2 edges."""
    if n > 6:
        raise ValueError(f"the all-subsets oracle is for n <= 6, got n={n}")
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        if 2 * mask.bit_count() != n * d:
            continue
        deg = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if all(x == d for x in deg):
            out.append(mask)
    return out


def recolor_fresh_randrange(colors: list[int], target_ec: int, rng: random.Random) -> list[int]:
    """The fresh-color recoloring drawn with `rng.randrange`, the reference
    for the library's inlined draws: it counts e+c and the next fresh id
    as it goes and returns the recolored indices, in order."""
    recolored = []
    class_size = Counter(colors)
    ec = len(colors) + len(class_size)
    next_color = max(class_size) + 1
    candidates = [i for i, c in enumerate(colors) if class_size[c] >= 2]
    while ec < target_ec:
        i = candidates.pop(rng.randrange(len(candidates)))
        recolored.append(i)
        old = colors[i]
        colors[i] = next_color
        class_size[old] -= 1
        if class_size[old] == 1:
            del candidates[bisect_left(candidates, colors.index(old))]
        next_color += 1
        ec += 1
    return recolored
