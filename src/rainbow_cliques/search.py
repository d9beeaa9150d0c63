"""Exact detection and counting of rainbow, monochromatic, and properly
colored patterns in edge-colored graphs.

All finders are deterministic: when several witnesses exist, the one with the
lexicographically smallest vertex list (under the canonical orientation of the
pattern) is returned.  Clique search uses ordered backtracking over vertices
with adjacency-bitmask and used-color pruning.
"""

from __future__ import annotations

from itertools import combinations

from .graph import ColoredGraph, Witness
from .turan import TuranPartition, turan_partition


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _clique_edges(g: ColoredGraph, verts: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    cm = g.color_matrix
    return tuple(
        (u, v, cm[u][v]) for u, v in combinations(sorted(verts), 2)
    )


def _rainbow_cliques(
    g: ColoredGraph, k: int, limit: int | None
) -> tuple[int, tuple[int, ...] | None]:
    """Count the k-cliques whose C(k,2) edges have pairwise distinct colors,
    in lexicographic order of their vertex lists, stopping once `limit` are
    found (None: count all).  Returns the count and, if the search stopped
    at `limit`, the clique it stopped at (so the first one for limit=1)."""
    if k < 1:
        raise ValueError(f"clique size must be positive, got k={k}")
    if k > g.n:
        return 0, None
    cm = g.color_matrix
    adj = g.adj

    def rec(clique: list[int], cand: int, used: set[int], budget: int) -> int:
        # on reaching the budget, returns without undoing `clique`
        total = 0
        last = len(clique) == k - 1
        for v in _iter_bits(cand):
            row = cm[v]
            new = []
            ok = True
            for u in clique:
                col = row[u]
                if col in used or col in new:
                    ok = False
                    break
                new.append(col)
            if not ok:
                continue
            if last:
                total += 1
                if total == budget:
                    clique.append(v)
                    return total
                continue
            used.update(new)
            clique.append(v)
            total += rec(clique, cand & adj[v] & ~((1 << (v + 1)) - 1), used, budget - total)
            if total == budget:
                return total
            clique.pop()
            used.difference_update(new)
        return total

    clique: list[int] = []
    # a budget of -1 is never reached: no limit
    count = rec(clique, (1 << (g.n + 1)) - 2, set(), -1 if limit is None else limit)
    return count, (tuple(clique) if clique else None)


def find_rainbow_clique(g: ColoredGraph, k: int) -> Witness | None:
    """First k-clique (lexicographically smallest vertex list) whose C(k,2)
    edges have pairwise distinct colors, or None."""
    _, verts = _rainbow_cliques(g, k, 1)
    if verts is None:
        return None
    return Witness("rainbow-clique", verts, _clique_edges(g, verts))


def count_rainbow_cliques(g: ColoredGraph, k: int) -> int:
    """Exact number of k-vertex subsets inducing a rainbow clique."""
    return _rainbow_cliques(g, k, None)[0]


def find_rainbow_complete_bipartite(g: ColoredGraph, a: int, b: int) -> Witness | None:
    """Disjoint vertex sets of sizes a and b with all a*b cross edges present
    and pairwise distinct colors, or None."""
    if a < 1 or b < 1:
        raise ValueError(f"part sizes must be positive, got ({a},{b})")
    if a + b > g.n:
        return None
    cm = g.color_matrix
    verts = range(1, g.n + 1)
    for A in combinations(verts, a):
        aset = set(A)
        rest = [v for v in verts if v not in aset]
        for B in combinations(rest, b):
            if a == b and B[0] < A[0]:
                continue  # unordered pair of parts
            cols = set()
            ok = True
            for u in A:
                row = cm[u]
                for v in B:
                    col = row[v]
                    if col == 0 or col in cols:
                        ok = False
                        break
                    cols.add(col)
                if not ok:
                    break
            if ok:
                edges = tuple(
                    (min(u, v), max(u, v), cm[u][v]) for u in A for v in B
                )
                return Witness("rainbow-bipartite", A + B, edges)
    return None


def _balanced_partitions(n: int, sizes: tuple[int, ...]):
    """All partitions of {1..n} into unordered parts with the given size
    multiset, each emitted once; parts ordered by their minimum element."""
    def rec(remaining: list[int], size_pool: list[int], acc: list[tuple[int, ...]]):
        if not remaining:
            yield list(acc)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        seen_sizes = set()
        for idx, s in enumerate(size_pool):
            if s in seen_sizes:
                continue
            seen_sizes.add(s)
            pool2 = size_pool[:idx] + size_pool[idx + 1:]
            for others in combinations(rest, s - 1):
                part = (anchor,) + others
                left = [v for v in rest if v not in others]
                acc.append(part)
                yield from rec(left, pool2, acc)
                acc.pop()

    yield from rec(list(range(1, n + 1)), list(sizes), [])


def find_rainbow_turan(g: ColoredGraph, r: int) -> tuple[TuranPartition, Witness] | None:
    """A balanced r-partition of V(G) whose cross edges all exist with
    pairwise distinct colors, or None.  Exhaustive over balanced partitions."""
    if not (1 <= r <= g.n):
        raise ValueError(f"part count must satisfy 1 <= r <= n, got r={r}")
    sizes = turan_partition(g.n, r).sizes
    cm = g.color_matrix
    for parts in _balanced_partitions(g.n, sizes):
        cols = set()
        ok = True
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                for u in parts[i]:
                    row = cm[u]
                    for v in parts[j]:
                        col = row[v]
                        if col == 0 or col in cols:
                            ok = False
                            break
                        cols.add(col)
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            edges = tuple(
                (min(u, v), max(u, v), cm[u][v])
                for i in range(len(parts))
                for j in range(i + 1, len(parts))
                for u in parts[i]
                for v in parts[j]
            )
            ordered = tuple(sorted(parts, key=len, reverse=True))
            vertices = tuple(v for part in parts for v in part)
            return (
                TuranPartition(tuple(len(p) for p in ordered)),
                Witness("rainbow-turan", vertices, edges),
            )
    return None


def find_monochromatic_cycle(g: ColoredGraph, length: int) -> Witness | None:
    """A cycle on `length` distinct vertices whose edges all share one color,
    or None.  Canonical orientation: smallest vertex first, second vertex
    smaller than the last."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    if length > g.n:
        return None
    cm = g.color_matrix
    adj = g.adj

    def rec(path: list[int], color: int):
        last = path[-1]
        if len(path) == length:
            if path[1] < path[-1] and cm[path[-1]][path[0]] == color:
                return list(path)
            return None
        for v in _iter_bits(adj[last] & ~(1 << path[0])):
            if v in path:
                continue
            if v < path[0]:
                continue
            if cm[last][v] != color:
                continue
            path.append(v)
            found = rec(path, color)
            path.pop()
            if found is not None:
                return found
        return None

    for start in range(1, g.n + 1):
        for v in _iter_bits(adj[start]):
            if v < start:
                continue
            color = cm[start][v]
            found = rec([start, v], color)
            if found is not None:
                edges = tuple(
                    (min(found[i], found[(i + 1) % length]),
                     max(found[i], found[(i + 1) % length]),
                     color)
                    for i in range(length)
                )
                return Witness("mono-cycle", tuple(found), edges)
    return None


def find_monochromatic_path(g: ColoredGraph, nverts: int) -> Witness | None:
    """A path on `nverts` distinct vertices with all edges one color, or None.
    Canonical orientation: first endpoint smaller than the last."""
    if nverts < 2:
        raise ValueError(f"path needs >= 2 vertices, got {nverts}")
    if nverts > g.n:
        return None
    cm = g.color_matrix
    adj = g.adj

    def rec(path: list[int], color: int):
        if len(path) == nverts:
            if path[0] < path[-1]:
                return list(path)
            return None
        last = path[-1]
        for v in _iter_bits(adj[last]):
            if v in path or cm[last][v] != color:
                continue
            path.append(v)
            found = rec(path, color)
            path.pop()
            if found is not None:
                return found
        return None

    for start in range(1, g.n + 1):
        for v in _iter_bits(adj[start]):
            color = cm[start][v]
            found = rec([start, v], color)
            if found is not None:
                edges = tuple(
                    (min(found[i], found[i + 1]), max(found[i], found[i + 1]), color)
                    for i in range(nverts - 1)
                )
                return Witness("mono-path", tuple(found), edges)
    return None


def find_properly_colored_c4(g: ColoredGraph) -> Witness | None:
    """A 4-cycle in which consecutive edges differ in color, or None.
    Canonical orientation: smallest vertex first, second smaller than last."""
    cm = g.color_matrix
    adj = g.adj
    for a in range(1, g.n + 1):
        for b in _iter_bits(adj[a]):
            if b <= a:
                continue
            cab = cm[a][b]
            for c in _iter_bits(adj[b]):
                if c == a or c <= a:
                    continue
                cbc = cm[b][c]
                if cbc == cab:
                    continue
                for d in _iter_bits(adj[c] & adj[a]):
                    if d <= b or d == a or d == c:
                        continue
                    ccd = cm[c][d]
                    cda = cm[d][a]
                    if ccd != cbc and ccd != cda and cda != cab:
                        verts = (a, b, c, d)
                        edges = (
                            (a, b, cab),
                            (min(b, c), max(b, c), cbc),
                            (min(c, d), max(c, d), ccd),
                            (min(a, d), max(a, d), cda),
                        )
                        return Witness("proper-c4", verts, edges)
    return None


# -- witness validation ----------------------------------------------------


def _runs(verts: tuple[int, ...], pairs: set[tuple[int, int]]) -> list[list[int]]:
    """Split the vertex list where consecutive vertices are joined by one of
    `pairs`: the parts of a complete multipartite witness, listed part by
    part."""
    parts = [[verts[0]]]
    for u, v in zip(verts, verts[1:]):
        if (min(u, v), max(u, v)) in pairs:
            parts.append([])
        parts[-1].append(v)
    return parts


def validate_witness(g: ColoredGraph, w: Witness) -> bool:
    """Re-check a witness against its host graph: its edges are exactly the
    pattern's edges on `vertices` (for bipartite and Turan witnesses, parts
    listed one after another), each with its color in g, and the colors
    satisfy the predicate of `kind`."""
    verts = w.vertices
    if not verts or len(set(verts)) != len(verts):
        return False
    if any(g.color_of(u, v) != c for u, v, c in w.edges):
        return False
    pairs = {(min(u, v), max(u, v)) for u, v, _ in w.edges}
    ring = list(zip(verts, verts[1:] + verts[:1]))
    if w.kind == "rainbow-clique":
        expected = list(combinations(verts, 2))
    elif w.kind in ("rainbow-bipartite", "rainbow-turan"):
        parts = _runs(verts, pairs)
        if w.kind == "rainbow-bipartite" and len(parts) != 2:
            return False
        if w.kind == "rainbow-turan" and (
            sorted(verts) != list(range(1, g.n + 1))
            or tuple(sorted(map(len, parts), reverse=True))
            != turan_partition(g.n, len(parts)).sizes
        ):
            return False
        expected = [
            (u, v) for i, a in enumerate(parts) for b in parts[i + 1:] for u in a for v in b
        ]
    elif w.kind == "mono-cycle" and len(verts) >= 3:
        expected = ring
    elif w.kind == "mono-path" and len(verts) >= 2:
        expected = ring[:-1]
    elif w.kind == "proper-c4" and len(verts) == 4:
        expected = ring
    else:
        return False
    if len(w.edges) != len(expected) or pairs != {(min(u, v), max(u, v)) for u, v in expected}:
        return False
    cols = [g.color_of(u, v) for u, v in expected]
    if w.kind.startswith("rainbow-"):
        return len(set(cols)) == len(cols)
    if w.kind.startswith("mono-"):
        return len(set(cols)) == 1
    return all(cols[i] != cols[i - 1] for i in range(4))
