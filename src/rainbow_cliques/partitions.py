"""Set-partition enumeration via restricted growth strings.

A coloring of m edges with r colors, up to color renaming, is a set
partition of the edge list into r nonempty classes, emitted as a restricted
growth string (RGS): position i holds the block index of element i, blocks
numbered by first appearance.  One table of RGS counts per (m, lo, hi),
built row by row, gives `completions`, `stirling2` and the sizes of the
subtrees the enumerator skips.  Partitions of a vertex set into parts of
given sizes are listed directly, as tuples of parts.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def _count_table(m: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Row j, column b <= min(hi, m - j): the number of ways to fill j more
    positions of an RGS that has b blocks so far and end with lo..hi blocks.
    The next position joins one of the b blocks or opens block b + 1."""
    rows = [tuple(int(lo <= b) for b in range(min(hi, m) + 1))]
    for j in range(1, m + 1):
        row = rows[-1] + (0,)  # no completion passes hi blocks
        rows.append(tuple(b * row[b] + row[b + 1] for b in range(min(hi, m - j) + 1)))
    return tuple(rows)


def completions(m: int, lo: int, hi: int) -> int:
    """Number of RGS of length m with between lo and hi blocks: the sum of
    S(m, r) over r = lo..hi."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    return _count_table(m, lo, hi)[m][0] if hi >= 0 else 0


def stirling2(m: int, r: int) -> int:
    """Stirling number of the second kind S(m, r): set partitions of m
    elements into exactly r blocks."""
    return completions(m, r, r)


def rainbow_pruned_partitions(
    m: int, lo: int, hi: int, cuts: Iterable[tuple[int, ...]] = ()
) -> tuple[list[tuple[int, ...]], int]:
    """Every RGS of length m with lo..hi blocks, except those in which some
    tuple of element indices in `cuts` is rainbow (its elements lie in
    pairwise distinct blocks).

    Cut c is the bit 1 << c.  Each block keeps one mask: the cuts that hold
    an element already in it.  Call a cut broken once two of its assigned
    elements share a block: it can no longer end rainbow.  The broken cuts
    are a mask too, passed down the recursion: assigning position p to block
    b breaks the cuts that hold p and are in b's mask, so opening a new block
    breaks none.  A cut is rainbow once its last element is assigned and it
    is unbroken, and that subtree is skipped.  So at every node that is
    visited each finished cut is broken, and the unbroken cuts are exactly
    the open ones: those that end rainbow unless one of their unassigned
    positions reuses a block, i.e. joins a block opened at an earlier
    position.  Reaching lo blocks needs lo - blocks of the remaining
    positions to open new blocks, which leaves at most r reuses.  So a node
    is skipped when r = 0 and some cut is unbroken.  At r = 1 the one reuse p
    breaks an open cut exactly when p is one of its unassigned positions and
    joins a block that holds one of its elements, or the block that one of
    its earlier unassigned positions opened.  So a node is skipped when r = 1
    and the open cuts share no unassigned position, or share exactly one and
    no block's mask holds every open cut.  Both rules are exact: a node with
    r <= 1 that is not skipped has a surviving completion.  Cuts that repeat
    an index are never rainbow and are dropped first.  A cut that is empty
    or has an index outside 0..m-1 raises ValueError.

    Returns the surviving RGS, in lexicographic order, and the exact number
    of RGS in the skipped subtrees, so survivors + skipped is the sum of
    S(m, r) over r = lo..hi."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    cuts = list(cuts)
    for ids in cuts:
        if not ids or not all(0 <= i < m for i in ids):
            raise ValueError(f"cut {ids} needs one or more indices in 0..{m - 1}")
    if max(lo, 0) > min(hi, m):
        return [], 0
    # a cut that repeats an index is never rainbow
    cuts = [ids for ids in cuts if len(set(ids)) == len(ids)]
    # at[p]: the cuts that hold p; finish[p]: the cuts whose last index is p
    at = [0] * m
    finish = [0] * m
    for c, ids in enumerate(cuts):
        finish[max(ids)] |= 1 << c
        for i in ids:
            at[i] |= 1 << c
    masks = [sum(1 << i for i in ids) for ids in cuts]
    every = (1 << len(cuts)) - 1
    counts = _count_table(m, lo, hi)
    rgs = [0] * m
    # held[b]: the cuts that hold an element in block b; none before it opens
    held = [0] * min(hi, m)
    survivors: list[tuple[int, ...]] = []
    skipped = 0
    # broken -> the AND of the unbroken cuts' index masks
    shared: dict[int, int] = {}

    def doomed(pos: int, reuses: int, broken: int) -> bool:
        """Whether every completion of this node makes some cut rainbow."""
        unbroken = every & ~broken
        if not unbroken:
            return False
        if not reuses:
            return True
        need = shared.get(broken)
        if need is None:
            need, rest = -1, unbroken
            while rest:
                low = rest & -rest
                need &= masks[low.bit_length() - 1]
                rest ^= low
            shared[broken] = need
        # the one reuse p must lie in every open cut's unassigned positions
        need >>= pos
        if not need:
            return True
        if need & (need - 1):
            # the later of two shared positions can join the block the
            # earlier one opened
            return False
        # p is the only shared position: it must join a block that holds
        # every open cut
        return all(unbroken & ~h for h in held)

    # every node keeps blocks + (m - pos) >= lo, so lo stays reachable
    def rec(pos: int, blocks: int, broken: int) -> None:
        nonlocal skipped
        if pos == m:
            survivors.append(tuple(rgs))
            return
        done = finish[pos]
        here = at[pos]
        left = m - pos - 1
        sizes = counts[left]
        # once the used blocks alone cannot reach lo, only a new block can
        start = blocks if blocks + left < lo else 0
        for b in range(start, min(blocks + 1, hi)):
            new_blocks = blocks if b < blocks else blocks + 1
            was = held[b]
            now = broken | was & here
            if done & ~now:
                # a cut finished here unbroken, so rainbow
                skipped += sizes[new_blocks]
                continue
            rgs[pos] = b
            held[b] = was | here
            reuses = left - max(lo - new_blocks, 0)
            if reuses <= 1 and left and doomed(pos + 1, reuses, now):
                skipped += sizes[new_blocks]
            else:
                rec(pos + 1, new_blocks, now)
            held[b] = was

    rec(0, 0, 0)
    del rec  # the closure names itself: a cycle that would keep the tables
    return survivors, skipped


def _balanced_partitions(n: int, sizes: tuple[int, ...]):
    """All partitions of {1..n} into unordered parts with the given size
    multiset, each emitted once; parts ordered by their minimum element."""
    return _partitions_of(list(range(1, n + 1)), list(sizes), [])


def _partitions_of(remaining: list[int], size_pool: list[int], acc: list[tuple[int, ...]]):
    """Extend the parts in `acc` by every partition of `remaining` into parts
    with the sizes in `size_pool`, the first part holding remaining[0]."""
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
            yield from _partitions_of(left, pool2, acc)
            acc.pop()
