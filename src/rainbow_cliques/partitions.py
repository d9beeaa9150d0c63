"""Set-partition enumeration via restricted growth strings.

A coloring of m edges with r colors, considered up to color renaming, is a
set partition of the edge list into r nonempty classes.  Partitions are
emitted as restricted growth strings (RGS): position i holds the block index
of element i, blocks numbered by first appearance.  Partitions of a vertex
set into parts of given sizes are listed directly, as tuples of parts.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations
from operator import itemgetter


@lru_cache(maxsize=None)
def completions(m_left: int, blocks: int, lo: int, hi: int) -> int:
    """Number of RGS completions of m_left more positions, starting from
    `blocks` blocks, that end with between lo and hi blocks."""
    if m_left == 0:
        return 1 if lo <= blocks <= hi else 0
    total = blocks * completions(m_left - 1, blocks, lo, hi)
    if blocks < hi:
        total += completions(m_left - 1, blocks + 1, lo, hi)
    return total


def stirling2(m: int, r: int) -> int:
    """Stirling number of the second kind S(m, r): set partitions of m
    elements into exactly r blocks."""
    return completions(m, 0, r, r)


@lru_cache(maxsize=None)
def _skip_sizes(m: int, lo: int, hi: int) -> tuple[tuple[int, ...], ...]:
    """Row pos, column b: RGS completions of a prefix of length pos + 1 with
    b blocks, i.e. the size of the subtree skipped there."""
    return tuple(
        tuple(completions(m - pos - 1, b, lo, hi) for b in range(min(hi, m) + 1))
        for pos in range(m)
    )


def rainbow_pruned_partitions(
    m: int, lo: int, hi: int, cuts: Iterable[tuple[int, ...]] = ()
) -> tuple[list[tuple[int, ...]], int]:
    """Every RGS of length m with lo..hi blocks, except those in which some
    tuple of element indices in `cuts` is rainbow (its elements lie in
    pairwise distinct blocks).

    A subtree is skipped as soon as every RGS below it makes some cut
    rainbow.  A cut is rainbow once its last element is assigned and its
    elements lie in distinct blocks.  Before that, call a cut open if its
    assigned elements lie in distinct blocks: it ends rainbow unless one of
    its unassigned positions reuses a block, i.e. joins a block opened at an
    earlier position.  Reaching lo blocks needs lo - blocks of the remaining
    positions to open new blocks, which leaves at most r reuses.  So a node
    is skipped when r = 0 and some cut is open.  At r = 1 the one reuse p
    breaks an open cut exactly when p is one of its unassigned positions and
    joins a block its assigned elements hold, or the block that one of its
    earlier unassigned positions opened.  So a node is skipped when r = 1
    and the open cuts share no unassigned position, or share exactly one and
    no block held by all of them (a cut with no assigned element holds
    none).  Both rules are exact: a node with r <= 1 that is not skipped
    has a surviving completion.  Cuts that repeat an index are never rainbow
    and are dropped first.  A cut that is empty or has an index outside
    0..m-1 raises ValueError.

    Returns the surviving RGS and the exact number of RGS in the skipped
    subtrees, so survivors + skipped is the sum of S(m, r) over r = lo..hi."""
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
    # block b is stored as the bit 1 << b; index m holds 0, so that a getter
    # always has two indices and returns a tuple.  Bits add without a carry
    # exactly when they are distinct, and each carry loses a one, so a cut is
    # rainbow exactly when the sum of its bits has `size` ones.
    finishing_at: list[list[tuple[itemgetter, int]]] = [[] for _ in range(m)]
    for ids in cuts:
        finishing_at[max(ids)].append((itemgetter(m, *ids), len(ids)))
    skip_sizes = _skip_sizes(m, lo, hi)
    bits = [0] * (m + 1)
    survivors: list[tuple[int, ...]] = []
    skipped = 0
    # rows[pos]: the cuts still unfinished once pos positions are assigned,
    # as (whether one has under two assigned elements, so is surely open;
    # the AND of those cuts' unassigned masks, -1 for none; 0 if one of them
    # has no assigned element, else -1; the assigned index of each of the
    # others; (getter, size, unassigned mask) for each of the rest).  A row
    # is built on first use: building every row up front made the triangle
    # verifier's ~1,100 calls here take about 1.6x as long.
    rows: list = [None] * m

    def open_cuts(pos: int):
        sure, need, held, singles, tested = False, -1, -1, set(), []
        for ids in cuts:
            if max(ids) < pos:
                continue
            done = [i for i in ids if i < pos]
            mask = sum(1 << i for i in ids if i >= pos)
            if len(done) < 2:
                sure, need = True, need & mask
                if done:
                    singles.add(done[0])
                else:
                    held = 0
            else:
                tested.append((itemgetter(*done), len(done), mask))
        rows[pos] = sure, need, held, tuple(singles), tested
        return rows[pos]

    def doomed(pos: int, reuses: int) -> bool:
        """Whether every completion of this node makes some cut rainbow."""
        sure, need, held, singles, tested = rows[pos] or open_cuts(pos)
        if not reuses:
            need = 0
        if sure and not need:
            return True
        for i in singles:
            held &= bits[i]
        for test, size, mask in tested:
            h = sum(test(bits))
            if h.bit_count() == size:
                need &= mask
                if not need:
                    return True
                held &= h
        # the one reuse p must lie in every open cut's unassigned positions
        # and join a block that all of them hold or that an earlier such
        # position opened
        return not (held or need & (need - 1))

    # every node keeps blocks + (m - pos) >= lo, so lo stays reachable
    def rec(pos: int, blocks: int) -> None:
        nonlocal skipped
        if pos == m:
            survivors.append(tuple(x.bit_length() - 1 for x in bits[:m]))
            return
        tests = finishing_at[pos]
        sizes = skip_sizes[pos]
        left = m - pos - 1
        # once the used blocks alone cannot reach lo, only a new block can
        start = blocks if blocks + left < lo else 0
        for b in range(start, min(blocks + 1, hi)):
            new_blocks = blocks if b < blocks else blocks + 1
            bits[pos] = 1 << b
            for test, size in tests:
                if sum(test(bits)).bit_count() == size:
                    skipped += sizes[new_blocks]
                    break
            else:
                reuses = left - max(lo - new_blocks, 0)
                if reuses <= 1 and left and doomed(pos + 1, reuses):
                    skipped += sizes[new_blocks]
                else:
                    rec(pos + 1, new_blocks)

    rec(0, 0)
    return survivors, skipped


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
