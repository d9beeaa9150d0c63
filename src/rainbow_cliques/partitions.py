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

from .graph import _check_int


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
    _check_int("m", m, 0)
    return _count_table(m, lo, hi)[m][0] if hi >= 0 else 0


def stirling2(m: int, r: int) -> int:
    """Stirling number of the second kind S(m, r): set partitions of m
    elements into exactly r blocks."""
    _check_int("r", r, 0)
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
    position that holds another of its elements.  Reaching lo blocks needs
    lo - blocks of the remaining positions to open new blocks, which leaves
    at most r reuses, and the one recursion passes r down: joining a used
    block spends a reuse, and so does opening a block once lo blocks are
    reached.  A node with r >= 3 walks its position; a node with r <= 2
    lists its surviving completions directly, by first reuse p1 and its
    block b1, then second reuse p2 and its block b2.  Every open cut needs
    a reuse at one of its positions, so the open cuts that do not hold p1
    must all hold p2, a later position, and p2 must join a block that holds
    all of them.  Which positions can be p1 so depends only on the open cuts
    and r, and each such pair gets one mask of them per call; a listed node
    whose mask has no position from its own on, and that cannot finish with
    no reuse at all, lists nothing and returns at once.  The first reuse may
    lie in no cut: it can join any block, such as one opened just before
    it.  In each (p1, b1) group the completion with fewer reuses comes last,
    which keeps the list in lexicographic order.  A listed node adds its
    count-table size minus the completions listed to `skipped`, so the count
    holds by construction and the verifiers' accounting check cannot catch a
    survivor that the listing misses (nor could it catch one that a pruning
    rule wrongly skipped): the brute-force tests guard the listing.  Cuts
    that repeat an index are never rainbow and are dropped first.  A cut that
    is empty or has an index outside 0..m-1 raises ValueError.

    Returns the surviving RGS, in lexicographic order, and the exact number
    of RGS in the skipped subtrees, so survivors + skipped is the sum of
    S(m, r) over r = lo..hi."""
    _check_int("m", m, 0)
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
    # a set of cuts -> the positions that all of them hold
    common: dict[int, int] = {}
    # (open cuts, reuses left) -> the positions that can take the first reuse
    starts: dict[tuple[int, int], int] = {}

    def shared(open_cuts: int) -> int:
        need = common.get(open_cuts)
        if need is None:
            need, rest = (1 << m) - 1, open_cuts
            while rest:
                low = rest & -rest
                need &= masks[low.bit_length() - 1]
                rest ^= low
            common[open_cuts] = need
        return need

    def first_reuses(unbroken: int, most: int) -> int:
        """The positions p1 that can take the first reuse of a listed node
        with open cuts `unbroken` and `most` reuses left: the open cuts that
        do not hold p1 must all hold some later position, the second reuse,
        and with one reuse left there must be none.  Called once per key;
        `rec` keeps the masks in `starts`."""
        firsts = 0
        for p1 in range(m) if most else ():
            outside = unbroken & ~at[p1]
            if not outside or most > 1 and shared(outside) >> p1 + 1:
                firsts |= 1 << p1
        return firsts

    def rec(pos: int, blocks: int, broken: int, most: int) -> None:
        """The node that has put positions 0..pos-1 in `blocks` blocks and
        has `most` reuses left: walk position pos, or list the surviving
        completions once most <= 2."""
        nonlocal skipped
        if most > 2:
            done = finish[pos]
            here = at[pos]
            sizes = counts[m - pos - 1]
            # b == blocks opens a new block: it holds no cut yet, so it
            # breaks none, and it spends a reuse only once lo blocks are open
            for b in range(min(blocks + 1, hi)):
                opens = b == blocks
                was = held[b]
                now = broken | was & here
                if done & ~now:
                    # a cut finished here unbroken, so rainbow
                    skipped += sizes[blocks + opens]
                    continue
                rgs[pos] = b
                held[b] = was | here
                rec(pos + 1, blocks + opens, now, most - (not opens or blocks >= lo))
                held[b] = was
            return
        left = m - pos
        least = blocks + left - hi  # fewer reuses would pass hi blocks
        unbroken = every & ~broken
        firsts = starts.get((unbroken, most))
        if firsts is None:
            firsts = starts[unbroken, most] = first_reuses(unbroken, most)
        firsts = firsts >> pos << pos
        if not firsts and (least > 0 or unbroken):
            skipped += counts[left][blocks]  # no completion survives
            return
        found = len(survivors)
        head = tuple(rgs[:pos])
        # the cuts each block holds: the used blocks, then one block per
        # position from pos on, opened there unless a reuse comes first
        opened = held[:blocks] + at[pos:]
        fresh = tuple(range(blocks, blocks + left))
        while firsts:
            low = firsts & -firsts
            firsts ^= low
            p1 = low.bit_length() - 1
            here = at[p1]
            # p1 breaks no cut that does not hold it: those are left to p2, a
            # later position that all of them hold
            outside = unbroken & ~here
            k1 = p1 - pos  # new blocks before p1
            top = blocks + k1
            # past p1 the blocks it did not open shift down one slot
            after = opened[:top] + opened[top + 1:]
            # p2 joins a block opened before it that holds every cut that
            # p1 cannot break
            reach = top + (shared(outside) >> p1 + 1).bit_length() - 1
            holders = [b for b in range(reach) if not outside & ~after[b]]
            if outside and not holders:
                continue
            for b1 in range(top):
                rest = unbroken & ~(here & opened[b1])
                if most == 2:
                    later = shared(rest) >> p1 + 1 << p1 + 1
                    if later:
                        good = [
                            b for b in holders
                            if not rest & ~(after[b] | here if b == b1 else after[b])
                        ]
                        while later and good:
                            low = later & -later
                            later ^= low
                            k2 = low.bit_length() - pos - 2  # new blocks before p2
                            for b2 in good:
                                if b2 >= blocks + k2:
                                    break
                                survivors.append(
                                    head + fresh[:k1] + (b1,) + fresh[k1:k2]
                                    + (b2,) + fresh[k2:left - 2]
                                )
                if least <= 1 and not rest:
                    survivors.append(head + fresh[:k1] + (b1,) + fresh[k1:left - 1])
        if least <= 0 and not unbroken:
            survivors.append(head + fresh)
        skipped += counts[left][blocks] - (len(survivors) - found)

    rec(0, 0, 0, m - max(lo, 0))
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
