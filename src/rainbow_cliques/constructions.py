"""Generators for the explicit colorings exhibited in the rainbow-clique
extremal analysis: the extremal pattern, the lexicographic coloring, the two
K6 dichotomy colorings, the 7-vertex tightness counterexample, and seeded
fresh-color perturbations for supersaturation experiments.

Fresh colors are always allocated as max-existing-id + 1, 2, ... so id
collisions are impossible and outputs are reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, combinations, count, product

from .graph import ColoredGraph, _check_int, is_complete
from .turan import turan_number, turan_partition


def extremal(n: int, k: int) -> ColoredGraph:
    """Complete K_n with t_{n,k-2} pairwise distinct colors on the cross
    edges of a balanced (k-2)-partition and one single shared color on every
    intra-part edge.  Counts: e = C(n,2), c = t_{n,k-2} + 1 for n >= k-1.
    At n = k-2 every part is one vertex and no pair takes the shared color,
    so c = t_{n,k-2} = C(n,2).

    k = 3 is allowed as the degenerate single-part pattern (monochromatic
    K_n), used as the base graph of supersaturation experiments.
    """
    _check_int("k", k, 3)
    _check_int("n", n, max(2, k - 2))
    # every pair gets the shared color t + 1, then the cross pairs get 1..t
    colors = dict.fromkeys(combinations(range(1, n + 1), 2), turan_number(n, k - 2) + 1)
    sizes = turan_partition(n, k - 2)
    cross = count(1)
    for size, top in zip(sizes, accumulate(sizes)):  # top: the part's last vertex
        for pair in product(range(top - size + 1, top + 1), range(top + 1, n + 1)):
            colors[pair] = next(cross)
    return ColoredGraph(n, colors)


def lexicographic(n: int) -> ColoredGraph:
    """Complete K_n with color(u,v) = min(u,v); counts (C(n,2), n-1)."""
    _check_int("n", n, 2)
    colors = {(u, v): u for u, v in combinations(range(1, n + 1), 2)}
    return ColoredGraph(n, colors)


def k6_variant(which: str) -> ColoredGraph:
    """K6 with 10 colors and no rainbow K4, one of two shapes:

    * ``turan-pair``: ``extremal(6, 4)``, a rainbow T_{6,2} on parts
      {1,2,3} | {4,5,6} (9 distinct cross colors) plus both intra-part
      triangles in one shared 10th color.
    * ``mono-c6``: the 6-cycle 1-2-3-4-5-6-1 in one color plus the remaining
      9 edges in 9 fresh distinct colors.
    """
    if which == "turan-pair":
        return extremal(6, 4)
    if which == "mono-c6":
        cycle = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]
        colors = {e: 1 for e in cycle}
        next_color = 2
        for u, v in combinations(range(1, 7), 2):
            if (u, v) not in colors:
                colors[(u, v)] = next_color
                next_color += 1
        return ColoredGraph(6, colors)
    raise ValueError(f"unknown K6 variant {which!r}")


def counterexample_n7() -> ColoredGraph:
    """The 7-vertex, e+c = 34 graph with no rainbow K4 that is not complete:
    a lexicographic K5 on vertices 1..5 plus two nonadjacent vertices 6 and 7,
    each joined to all of 1..5 with five fresh pairwise-distinct colors."""
    colors = dict(lexicographic(5).colors)
    next_color = 5  # lexicographic K5 uses colors 1..4
    for w in (6, 7):
        for u in range(1, 6):
            colors[(u, w)] = next_color
            next_color += 1
    return ColoredGraph(7, colors)


def _recolor_fresh(colors: list[int], target_ec: int, rng: random.Random) -> list[int]:
    """Recolor uniformly random edges of monochromatic classes of `colors`,
    one color per edge, in place, drawing from `rng`, each with a fresh
    distinct color, until e+c >= target_ec.  Needs target_ec <= 2e.
    Returns the indices recolored, in order.

    Each index is drawn as ``rng.randrange(m)`` draws it on CPython: m's
    bit length of `getrandbits`, redrawn until below m.  That keeps every
    seeded output while skipping randrange's checks, most of a draw's cost."""
    # past 2e the candidates run out, and a draw from none would never end
    if target_ec > 2 * len(colors):
        raise ValueError(f"target e+c={target_ec} unreachable, maximum is {2 * len(colors)}")
    class_size = Counter(colors)
    top = max(class_size)
    getrandbits = rng.getrandbits
    recolored = []
    # the indices, in order, of the edges in classes of two or more: classes
    # only shrink and fresh classes stay singletons, so only the last edge of
    # a class that falls to one has to leave
    candidates = [i for i, c in enumerate(colors) if class_size[c] >= 2]
    for fresh in range(top + 1, top + 1 + target_ec - len(colors) - len(class_size)):
        m = len(candidates)
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        i = candidates.pop(r)
        recolored.append(i)
        old = colors[i]
        colors[i] = fresh
        class_size[old] -= 1
        if class_size[old] == 1:
            del candidates[bisect_left(candidates, colors.index(old))]
    return recolored


def perturb_fresh_colors(g: ColoredGraph, target_ec: int, seed: int) -> ColoredGraph:
    """Recolor uniformly random (seeded) edges of monochromatic classes with
    fresh distinct colors until e(G)+c(G) >= target_ec.  The edge set never
    changes and the result is deterministic for a fixed seed."""
    _check_int("target_ec", target_ec, 0)
    if not is_complete(g):
        raise ValueError("perturbation requires a complete host graph")
    # a target above 2e >= e+c passes the next test, and _recolor_fresh rejects it
    if g.e + g.c >= target_ec:
        return g
    # copying the dict skips the rehash of every edge that dict(g.colors) does
    out = g.colors.copy()
    edges = sorted(out)
    colors = list(map(out.__getitem__, edges))
    for i in _recolor_fresh(colors, target_ec, random.Random(seed)):
        out[edges[i]] = colors[i]
    return ColoredGraph(g.n, out)
