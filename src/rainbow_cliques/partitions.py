"""Set-partition enumeration via restricted growth strings.

A coloring of m edges with r colors, considered up to color renaming, is a
set partition of the edge list into r nonempty classes.  Partitions are
emitted as restricted growth strings (RGS): position i holds the block index
of element i, blocks numbered by first appearance.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache


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


def rainbow_pruned_partitions(
    m: int, lo: int, hi: int, cuts: Iterable[tuple[int, ...]] = ()
) -> tuple[list[tuple[int, ...]], int]:
    """Every RGS of length m with lo..hi blocks, except those in which some
    tuple of element indices in `cuts` is rainbow (its elements lie in
    pairwise distinct blocks).

    A tuple is tested as soon as its last element is assigned, and the whole
    subtree below a rainbow tuple is skipped.  Returns the surviving RGS and
    the exact number of RGS in the skipped subtrees, so survivors + skipped
    is the sum of S(m, r) over r = lo..hi."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    finishing_at: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for ids in cuts:
        finishing_at[max(ids)].append(ids)
    rgs = [0] * m
    survivors: list[tuple[int, ...]] = []
    skipped = 0

    def rec(pos: int, blocks: int) -> None:
        nonlocal skipped
        if pos == m:
            survivors.append(tuple(rgs))
            return
        remaining_after = m - pos - 1
        for b in range(min(blocks + 1, hi)):
            new_blocks = blocks if b < blocks else blocks + 1
            if new_blocks + remaining_after < lo:
                continue
            rgs[pos] = b
            for ids in finishing_at[pos]:
                if len({rgs[i] for i in ids}) == len(ids):
                    skipped += completions(remaining_after, new_blocks, lo, hi)
                    break
            else:
                rec(pos + 1, new_blocks)

    if m > 0 or lo <= 0 <= hi:
        rec(0, 0)
    return survivors, skipped
