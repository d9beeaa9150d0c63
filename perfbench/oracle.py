"""Brute-force oracles for checking ``rbc`` output against the graphs the
benchmark generated.  They share no code with the library, so a defect in a
library finder cannot hide itself here.

A graph is ``(n, colors)`` with ``colors`` mapping ``(u, v)``, ``u < v``, to a
positive color id, vertices ``1..n``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def format_ecg(n: int, colors: dict) -> str:
    lines = [f"{n} {len(colors)}"]
    lines += [f"{u} {v} {colors[(u, v)]}" for u, v in sorted(colors)]
    return "\n".join(lines) + "\n"


def parse_ecg(text: str) -> tuple[int, dict]:
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]
    n, m = map(int, rows[0])
    colors = {(int(u), int(v)): int(c) for u, v, c in rows[1:]}
    if len(colors) != m or len(rows) != m + 1:
        raise ValueError("edge count does not match the header")
    return n, colors


def turan_number(n: int, r: int) -> int:
    """Edges of the balanced complete r-partite graph on n vertices."""
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    return (n * n - sum(s * s for s in sizes)) // 2


def analyze_lines(n: int, colors: dict) -> list[str]:
    """The two lines ``rbc analyze`` documents, from first principles: a color
    is saturated at v when every edge of that color touches v."""
    e, c = len(colors), len(set(colors.values()))
    common: dict[int, set] = {}
    for (u, v), col in colors.items():
        common[col] = common.get(col, {u, v}) & {u, v}
    tallies = [0, 0, 0]
    for verts in common.values():
        tallies[len(verts)] += 1
    sum_ds = sum(len(verts) for verts in common.values())
    complete = "true" if e == n * (n - 1) // 2 else "false"
    return [
        f"e={e} c={c} e+c={e + c} complete={complete}",
        f"c0={tallies[0]} c1={tallies[1]} c2={tallies[2]} sum_ds={sum_ds}",
    ]


def _matrix(n: int, colors: dict) -> np.ndarray:
    cm = np.zeros((n + 1, n + 1), dtype=np.int64)
    for (u, v), c in colors.items():
        cm[u, v] = cm[v, u] = c
    return cm


def _rainbow_subsets(n: int, colors: dict, k: int) -> np.ndarray:
    """Boolean per k-subset of 1..n (in combinations order): all C(k,2) edges
    present with pairwise distinct colors."""
    subsets = np.array(list(combinations(range(1, n + 1), k)), dtype=np.int64).reshape(-1, k)
    cm = _matrix(n, colors)
    pairs = list(combinations(range(k), 2))
    cols = np.stack([cm[subsets[:, i], subsets[:, j]] for i, j in pairs], axis=1)
    cols.sort(axis=1)
    return (cols[:, 0] > 0) & (np.diff(cols, axis=1) != 0).all(axis=1)


def count_rainbow_cliques(n: int, colors: dict, k: int) -> int:
    return int(_rainbow_subsets(n, colors, k).sum()) if n >= k else 0


def has_proper_c4(n: int, colors: dict) -> bool:
    if n < 4:
        return False
    subsets = np.array(list(combinations(range(1, n + 1), 4)), dtype=np.int64)
    cm = _matrix(n, colors)
    for order in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
        cyc = subsets[:, order]
        cols = np.stack([cm[cyc[:, i], cyc[:, (i + 1) % 4]] for i in range(4)], axis=1)
        ok = (cols > 0).all(axis=1) & (cols != np.roll(cols, 1, axis=1)).all(axis=1)
        if ok.any():
            return True
    return False


def has_mono_path4(colors: dict) -> bool:
    """A path a-u-v-b on four vertices in one color: some edge uv of that
    color has another such edge at u and another at v with distinct far ends."""
    nbrs: dict[tuple[int, int], set] = {}
    for (u, v), c in colors.items():
        nbrs.setdefault((c, u), set()).add(v)
        nbrs.setdefault((c, v), set()).add(u)
    for (u, v), c in colors.items():
        left = nbrs[(c, u)] - {v}
        right = nbrs[(c, v)] - {u}
        if left and right and (len(left) > 1 or len(right) > 1 or left != right):
            return True
    return False


def _edge(colors: dict, u: int, v: int) -> tuple[int, int, int] | None:
    key = (min(u, v), max(u, v))
    return (*key, colors[key]) if key in colors else None


def witness_ok(pattern: str, k: int, colors: dict, verts: list[int], edges: list[tuple]) -> bool:
    """Rebuild the pattern's edge list from its vertices and the host graph,
    compare it exactly with the printed edges, then test the predicate."""
    if len(set(verts)) != len(verts):
        return False
    if pattern == "rainbow-clique":
        pairs = list(combinations(sorted(verts), 2)) if len(verts) == k else None
    elif pattern == "proper-c4":
        pairs = [(verts[i], verts[(i + 1) % 4]) for i in range(4)] if len(verts) == 4 else None
    else:  # mono-path on k vertices
        pairs = [(verts[i], verts[i + 1]) for i in range(k - 1)] if len(verts) == k else None
    if pairs is None:
        return False
    expect = [_edge(colors, u, v) for u, v in pairs]
    if None in expect or expect != [tuple(e) for e in edges]:
        return False
    cols = [c for _, _, c in expect]
    if pattern == "rainbow-clique":
        return len(set(cols)) == len(cols)
    if pattern == "proper-c4":
        return all(cols[i] != cols[(i + 1) % 4] for i in range(4))
    return len(set(cols)) == 1
