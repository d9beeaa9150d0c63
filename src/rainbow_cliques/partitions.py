"""Set-partition enumeration via restricted growth strings.

A coloring of m edges with r colors, considered up to color renaming, is a
set partition of the edge list into r nonempty classes.  Partitions are
emitted as restricted growth strings (RGS): position i holds the block index
of element i, blocks numbered by first appearance.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
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

    A tuple is tested as soon as its last element is assigned, and the whole
    subtree below a rainbow tuple is skipped.  Returns the surviving RGS and
    the exact number of RGS in the skipped subtrees, so survivors + skipped
    is the sum of S(m, r) over r = lo..hi."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
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

    # every node keeps blocks + (m - pos) >= lo, so lo stays reachable
    def rec(pos: int, blocks: int) -> None:
        nonlocal skipped
        if pos == m:
            survivors.append(tuple(x.bit_length() - 1 for x in bits[:m]))
            return
        tests = finishing_at[pos]
        sizes = skip_sizes[pos]
        # once the used blocks alone cannot reach lo, only a new block can
        start = blocks if blocks + m - pos - 1 < lo else 0
        for b in range(start, min(blocks + 1, hi)):
            new_blocks = blocks if b < blocks else blocks + 1
            bits[pos] = 1 << b
            for test, size in tests:
                if sum(test(bits)).bit_count() == size:
                    skipped += sizes[new_blocks]
                    break
            else:
                rec(pos + 1, new_blocks)

    if max(lo, 0) <= min(hi, m):
        rec(0, 0)
    return survivors, skipped
