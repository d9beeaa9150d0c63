"""Brute-force reference oracles for the tests, independent of the search
paths they check."""

from itertools import combinations

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
