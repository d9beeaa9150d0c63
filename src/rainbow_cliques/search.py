"""Exact detection and counting of rainbow, monochromatic, and properly
colored patterns in edge-colored graphs.

Every finder returns None or a Witness, which validate_witness re-checks
against the host graph.  When several witnesses exist, every finder but
find_rainbow_turan returns the one with the lexicographically smallest vertex
list (under the canonical orientation of the pattern); find_rainbow_turan's
docstring states its order.  count_rainbow_cliques counts exactly and states
its algorithm.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice

from .graph import ColoredGraph, Witness, _check_int, _is_vertex
from .partitions import _balanced_partitions
from .turan import turan_partition


def _iter_bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _cross(parts):
    """The vertex pairs between distinct parts, part by part: every (u, v)
    with u in an earlier part than v.  With single-vertex parts these are all
    pairs of a clique, in `combinations` order."""
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            for u in a:
                for v in b:
                    yield u, v


def _shape(kind: str, verts: tuple[int, ...], parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """The vertex pairs of a `kind` witness on `verts`: with part sizes, the
    cross pairs of the parts that `verts` lists in turn, in `_cross` order;
    without, the ring through `verts`, closed unless `kind` is mono-path."""
    if parts:
        it = iter(verts)
        return list(_cross([tuple(islice(it, size)) for size in parts]))
    return list(zip(verts, verts[1:] if kind == "mono-path" else verts[1:] + verts[:1]))


def _witness(g: ColoredGraph, kind: str, verts, parts=()) -> Witness:
    """The `kind` witness on `verts`, split into parts of the sizes `parts`
    if given: each pair of its `_shape` becomes an edge (u, v, color) with
    u < v and its color in g."""
    verts, parts = tuple(verts), tuple(parts)
    cm = g.color_matrix
    edges = tuple((min(u, v), max(u, v), cm[u][v]) for u, v in _shape(kind, verts, parts))
    return Witness(kind, verts, edges, parts)


def _first_rainbow_split(g: ColoredGraph, kind: str, splits) -> Witness | None:
    """The first of `splits` (each a sequence of parts, vertex tuples) whose
    cross pairs are edges with pairwise distinct colors, as a `kind` witness."""
    cm = g.color_matrix
    for parts in splits:
        cols = set()
        for u, v in _cross(parts):
            col = cm[u][v]
            if col == 0 or col in cols:
                break
            cols.add(col)
        else:
            verts = [v for part in parts for v in part]
            return _witness(g, kind, verts, map(len, parts))
    return None


def _color_nbhds(g: ColoredGraph) -> list[dict[int, int]]:
    """at[x][c] is N_c(x), x's neighbours over an edge of color c, for the
    colors on two or more edges only: a color on one edge cannot repeat."""
    multi = {c for c, size in Counter(g.colors.values()).items() if size >= 2}
    at: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    for (u, v), c in g.colors.items():
        if c in multi:
            at[u][c] = at[u].get(c, 0) | 1 << v
            at[v][c] = at[v].get(c, 0) | 1 << u
    return at


# The least class N_c(x) whose edges the k = 3 count takes from a packed
# square; it loops over the vertices of a smaller one.  Squaring every class
# of two or more made the sparse few-color graphs of the cli benchmark corpus
# (n = 24 and 40, density 0.35) count 1.4x slower (2-core Xeon VM); from 6
# they count as fast as by the loop, and the supersaturation graphs, whose
# one big class holds most edges, keep the gain.
_PACKED_CLASS = 6


def _rainbow_cliques(adj, cm, k: int, limit: int) -> list[tuple[int, ...]]:
    """The first `limit` (at least 1) k-cliques whose C(k,2) edges have
    pairwise distinct colors, in lexicographic order of their vertex lists,
    or all of them if there are fewer.  The graph on 1..n, n = len(adj) - 1,
    is given by its adjacency masks and color matrix, as `ColoredGraph.adj`
    and `.color_matrix` hold them.

    The clique grows in increasing order, so a candidate v is checked
    against members u < v only: the search reads cm[v][u] with u < v and
    never the upper triangle, which a caller may leave stale.  It checks
    each candidate's colors rather than building count_rainbow_cliques' tables:
    a hit at the limit comes early, and the tables would cost more."""
    _check_int("clique size", k, 1)
    _check_int("limit", limit, 1)
    n = len(adj) - 1
    found: list[tuple[int, ...]] = []
    if k > n:
        return found

    def rec(clique: list[int], cand: int, used: set[int]) -> bool:
        # True once `limit` cliques are found
        last = len(clique) == k - 1
        # each round takes the lowest vertex v out of cand, which leaves the
        # candidates above v
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            row = cm[v]
            new = []
            for u in clique:
                col = row[u]
                if col in used or col in new:
                    break
                new.append(col)
            else:
                if last:
                    found.append((*clique, v))
                    if len(found) == limit:
                        return True
                    continue
                used.update(new)
                clique.append(v)
                if rec(clique, cand & adj[v], used):
                    return True
                clique.pop()
                used.difference_update(new)
        return False

    rec([], (1 << (n + 1)) - 2, set())
    del rec  # the closure names itself
    return found


def find_rainbow_clique(g: ColoredGraph, k: int) -> Witness | None:
    """First k-clique (lexicographically smallest vertex list) whose C(k,2)
    edges have pairwise distinct colors, or None."""
    found = _rainbow_cliques(g.adj, g.color_matrix, k, 1)
    return _witness(g, "rainbow-clique", found[0], (1,) * k) if found else None


def count_rainbow_cliques(g: ColoredGraph, k: int) -> int:
    """Exact number of k-vertex subsets inducing a rainbow clique.

    The backtracking adds vertices in decreasing order and keeps `cand`
    equal to the vertices below the clique's last vertex that extend the
    clique to a rainbow clique.  The clique Q on k-2 vertices then counts
    the pairs of `cand` that finish it in a few big-int operations, so no
    (k-1)-clique is visited one by one.

    N_c(x) is x's neighbours over an edge of color c, kept only for the
    colors on two or more edges (`_color_nbhds`).

    k = 3 is T - (p/2 - q/3), T the triangles.  Over S = N_c(x) for every
    vertex x and color c, e(S) counts each of the t2 triangles with exactly
    two c-edges once (at x, where they meet) and each of the t3
    monochromatic ones at all three vertices, so it sums to t2 + 3*t3; the
    c-edges in S, e_c(S), count only the latter, 3*t3.  p and q sum 2e(S)
    and 2e_c(S), so p/2 - q/3 = t2 + t3.  On a class of `_PACKED_CLASS` or
    more vertices these are the bits of square(S) & ADJ and square(S) &
    A(c), with the packing below; on a smaller one, the sums of |adj[u] & S|
    and |N_c(u) & S| over u in S.  6T is the bits of square(N(x)) & ADJ
    over every vertex x: 2e(N(x)) counts each triangle at x twice.

    For k >= 4, good(u, v), built once per count for each edge, is the w
    that make uvw a rainbow triangle.  Adding v to the clique Q, whose
    edges use the colors U, keeps the w in cand below v that lie in
    good(u, v) for every u in Q and outside N_c(v) for c in U and
    N_{c(v,u')}(u) for u != u' in Q.

    The pair count packs one vertex mask per block of a big int: block w,
    W = 8*ceil((n+2)/8) bits wide, holds a mask that belongs to vertex w.
    square(C) = ((C*R) & D)*C, with R = sum of 2^(j(W-1)) and D = sum of
    2^(wW), holds C in block w for each w in C (and 0 elsewhere); nothing
    carries, as C < 2^(W-1).  One packer fills ADJ with adj[w], G(q) with
    good(q, w) in block w < q and A(c) with N_c(w) = at[w][c] in block w.
    The pairs {w, x} of C that make Q + w + x rainbow are the bits of
    square(C) & AND G(q) over q in Q, each counted from both ends, outside
    A(c) for c in U (c(w,x) in U) and outside square(M) for each color c on
    edges from two vertices q, q' of Q, where M is the candidates that meet
    c at q or q' (c(w,q) = c(x,q'); the pairs that meet c at one q are out
    of good already).  As the candidates lie below Q, these big ints stop
    at Q's lowest block."""
    _check_int("clique size", k, 1)
    n = g.n
    if k > n:
        return 0
    if k <= 2:
        return n if k == 1 else g.e  # every vertex and every edge is rainbow
    adj = g.adj
    at = _color_nbhds(g)
    nbytes = (n + 9) // 8
    width = 8 * nbytes
    # D in closed form as a geometric series: one division instead of n + 1
    # shifts, about 6x faster at n = 24
    D = ((1 << (n + 1) * width) - 1) // ((1 << width) - 1)
    # R[t] is R cut to its first t terms, all that a C below 2^t needs
    R = [0]
    for t in range(n + 1):
        R.append(R[-1] | 1 << t * (width - 1))

    def square(m: int) -> int:
        return ((m * R[m.bit_length()]) & D) * m

    def pack(masks) -> int:  # mask i in block i
        return int.from_bytes(b"".join(m.to_bytes(nbytes, "little") for m in masks), "little")

    A: dict[int, int] = {}

    def packed(c: int) -> int:  # A(c), packed on first use
        a = A.get(c)
        if a is None:
            a = A[c] = pack(x.get(c, 0) for x in at)
        return a

    if k == 3:  # T - (p/2 - q/3), as in the docstring
        ADJ = pack(adj)
        p = q = t = 0
        for nx, ax in zip(adj, at):
            t += (square(nx) & ADJ).bit_count()
            for c, s in ax.items():
                if s.bit_count() >= _PACKED_CLASS:
                    sq = square(s)
                    p += (sq & ADJ).bit_count()
                    q += (sq & packed(c)).bit_count()
                elif s & (s - 1):
                    for u in _iter_bits(s):
                        p += (adj[u] & s).bit_count()
                        q += (at[u][c] & s).bit_count()
        return t // 6 - p // 2 + q // 3
    # good[v][u] is good(u, v) and shared[v][u] the colors met at both u and
    # v, for the edge uv with u < v
    good = [[0] * v for v in range(n + 1)]
    shared: list[list[tuple[int, ...]]] = [[()] * v for v in range(n + 1)]
    for (u, v), c in g.colors.items():
        au, av = at[u], at[v]
        drop = au.get(c, 0) | av.get(c, 0)
        both = au.keys() & av.keys()
        for c2 in both:
            drop |= au[c2] & av[c2]
        good[v][u] = adj[u] & adj[v] & ~drop
        if both:
            shared[v][u] = tuple(both)

    cm = g.color_matrix
    G = [pack(row) for row in good]

    def pairs(clique: list[int], used: list[int], cand: int, live: int) -> int:
        """The pairs of `cand` that finish `clique` (colors `used`) to a
        rainbow clique; `live` is the AND of G over the clique."""
        live &= square(cand)
        for c in used:
            live ^= live & (A.get(c) or packed(c))  # A(c) > 0: c is on two edges
        for j, q2 in enumerate(clique):
            a2 = at[q2]
            for q in clique[:j]:
                for c in shared[q][q2]:
                    m = at[q][c] & cand
                    if m:
                        m2 = a2[c] & cand
                        if m2:
                            live ^= live & square(m | m2)
        return live.bit_count() >> 1

    # `used` keeps the colors of U on two or more edges: N_c is empty for the others
    def rec(clique: list[int], used: list[int], cand: int, both: int) -> int:
        total = 0
        last = len(clique) == k - 3
        # each round takes the highest vertex v out of cand, which leaves the
        # candidates below v
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            ext = cand & adj[v]
            if not ext:
                continue
            av = at[v]
            row = cm[v]
            new = []
            drop = 0
            for u in clique:
                ext &= good[u][v]
                c = row[u]
                if c in av:
                    new.append(c)
            for c in used:
                drop |= av.get(c, 0)
            if len(clique) > 1:
                for c in new:
                    for u in clique:
                        drop |= at[u].get(c, 0)
            ext &= ~drop
            if not ext & (ext - 1):
                continue  # no pair left to finish a clique
            clique.append(v)
            if last:
                total += pairs(clique, used + new, ext, both & G[v])
            else:
                total += rec(clique, used + new, ext, both & G[v])
            clique.pop()
        return total

    total = sum(rec([u], [], adj[u] & (1 << u) - 1, G[u]) for u in range(1, n + 1))
    del rec  # the closure names itself: a cycle that would keep the tables
    return total


def find_rainbow_complete_bipartite(g: ColoredGraph, a: int, b: int) -> Witness | None:
    """Disjoint vertex sets of sizes a and b with all a*b cross edges present
    and pairwise distinct colors, or None."""
    _check_int("part size", a, 1)
    _check_int("part size", b, 1)
    if a + b > g.n:
        return None
    verts = range(1, g.n + 1)
    splits = (
        (A, B)
        for A in combinations(verts, a)
        for B in combinations([v for v in verts if v not in A], b)
        if a != b or A[0] < B[0]  # with a == b the pair of parts is unordered
    )
    return _first_rainbow_split(g, "rainbow-bipartite", splits)


def find_rainbow_turan(g: ColoredGraph, r: int) -> Witness | None:
    """A balanced r-partition of V(G) whose cross edges all exist with
    pairwise distinct colors, or None.  Exhaustive over balanced partitions;
    the first rainbow one in `_balanced_partitions` order is returned (the
    part holding the least unplaced vertex first, larger sizes before
    smaller ones, members in `combinations` order), so the witness lists
    its parts by their smallest vertex."""
    splits = _balanced_partitions(g.n, turan_partition(g.n, r))
    return _first_rainbow_split(g, "rainbow-turan", splits)


def _mono_extend(at, cm, path: list[int], nverts: int, closed: bool, c: int, seen: int) -> bool:
    """Extend `path` over c-edges (`at` as `_color_nbhds` gives them) to new
    vertices outside `seen` until it has `nverts`, closing it with `closed`.
    True leaves the hit in `path`; False leaves `path` as it was."""
    last = path[-1]
    if len(path) == nverts:
        return not closed or cm[last][path[0]] == c
    for v in _iter_bits(at[last].get(c, 0) & ~seen):
        path.append(v)
        if _mono_extend(at, cm, path, nverts, closed, c, seen | 1 << v):
            return True
        path.pop()
    return False


def _mono_walk(g: ColoredGraph, kind: str, nverts: int) -> Witness | None:
    """The `kind` witness on the lexicographically first walk on `nverts`
    distinct vertices whose edges all share one color, or None.  A mono-cycle
    walk is closed: the closing edge has that color too and the first vertex
    is the smallest.  The reverse of a hit is a hit, so the first one found
    has its second vertex below its last (cycle) or its first endpoint below
    its last (path).  Past its first edge a walk reads N_c, which has no
    color on one edge.  So a walk on three or more vertices starts only on an
    edge whose color is on two or more edges: the neighbours in the start's
    N_c masks, which are disjoint, so their sum is their union.  A path on
    two vertices tries every edge at its start, in the same increasing
    order."""
    if nverts > g.n:
        return None
    closed = kind == "mono-cycle"
    cm = g.color_matrix
    at = _color_nbhds(g)
    for start in range(1, g.n + 1):
        # a cycle through a smaller vertex was tried from that vertex
        seen = (1 << (start + 1)) - 1 if closed else 1 << start
        first = sum(at[start].values()) if nverts >= 3 else g.adj[start]
        for v in _iter_bits(first & ~seen):
            path = [start, v]
            if _mono_extend(at, cm, path, nverts, closed, cm[start][v], seen | 1 << v):
                return _witness(g, kind, path)
    return None


def find_monochromatic_cycle(g: ColoredGraph, length: int) -> Witness | None:
    """A cycle on `length` distinct vertices whose edges all share one color,
    or None.  Canonical orientation: smallest vertex first, second vertex
    smaller than the last."""
    _check_int("cycle length", length, 3)
    return _mono_walk(g, "mono-cycle", length)


def find_monochromatic_path(g: ColoredGraph, nverts: int) -> Witness | None:
    """A path on `nverts` distinct vertices with all edges one color, or None.
    Canonical orientation: first endpoint smaller than the last."""
    _check_int("nverts", nverts, 2)
    return _mono_walk(g, "mono-path", nverts)


def find_properly_colored_c4(g: ColoredGraph) -> Witness | None:
    """A 4-cycle in which consecutive edges differ in color, or None.
    Canonical orientation: smallest vertex first, second smaller than last."""
    cm = g.color_matrix
    adj = g.adj
    for a in range(1, g.n + 1):
        above_a = ~((1 << (a + 1)) - 1)
        for b in _iter_bits(adj[a] & above_a):
            cab = cm[a][b]
            for c in _iter_bits(adj[b] & above_a):
                cbc = cm[b][c]
                if cbc == cab:
                    continue
                for d in _iter_bits(adj[c] & adj[a] & ~((1 << (b + 1)) - 1)):
                    ccd = cm[c][d]
                    cda = cm[d][a]
                    if ccd != cbc and ccd != cda and cda != cab:
                        return _witness(g, "proper-c4", (a, b, c, d))
    return None


# -- witness validation ----------------------------------------------------


def validate_witness(g: ColoredGraph, w: Witness) -> bool:
    """Re-check a witness against its host graph: `vertices` are distinct
    vertices of g, its edges are exactly the pattern's edges on them, each an
    edge of g with its color in g, and the colors satisfy the predicate of
    `kind`.  `vertices`, `edges` and `parts` must be tuples, and each edge a
    tuple of three fields.  Vertices, edge ends and part sizes must be ints,
    not floats or bools that compare equal to one, and an edge's color must
    have the type of its color in g as well as its value.  A multipartite
    witness is split into parts by `w.parts` (all 1 for a clique, two parts
    for a bipartite one, the balanced sizes of len(w.parts) parts on all of
    V(G) for a Turan one), so the expected edges never come from the edges
    being checked."""
    verts, parts, kind = w.vertices, w.parts, w.kind
    if not all(type(f) is tuple for f in (verts, w.edges, parts)) or not all(
        type(e) is tuple and len(e) == 3 for e in w.edges
    ):
        return False
    if not verts or len(set(verts)) != len(verts) or not all(_is_vertex(g, v) for v in verts):
        return False
    for u, v, c in w.edges:
        if not (_is_vertex(g, u) and _is_vertex(g, v)):
            return False
        color = g.color_of(u, v)
        if c is None or color != c or type(color) is not type(c):
            return False
    if kind in ("rainbow-clique", "rainbow-bipartite", "rainbow-turan"):
        if not all(type(s) is int for s in parts) or sum(parts) != len(verts) or min(parts) < 1:
            return False
        if kind == "rainbow-clique" and max(parts) != 1:
            return False
        if kind == "rainbow-bipartite" and len(parts) != 2:
            return False
        if kind == "rainbow-turan" and (
            sorted(verts) != list(range(1, g.n + 1))
            or tuple(sorted(parts, reverse=True)) != turan_partition(g.n, len(parts))
        ):
            return False
    elif parts or not (
        kind == "mono-cycle" and len(verts) >= 3
        or kind == "proper-c4" and len(verts) == 4
        or kind == "mono-path" and len(verts) >= 2
    ):
        return False
    expected = _shape(kind, verts, parts)
    pairs = {(min(u, v), max(u, v)) for u, v, _ in w.edges}
    if len(w.edges) != len(expected) or pairs != {(min(u, v), max(u, v)) for u, v in expected}:
        return False
    cols = [g.color_of(u, v) for u, v in expected]
    if kind.startswith("rainbow-"):
        return len(set(cols)) == len(cols)
    if kind.startswith("mono-"):
        return len(set(cols)) == 1
    return all(cols[i] != cols[i - 1] for i in range(4))
