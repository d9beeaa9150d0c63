import hashlib
import random
import re
from itertools import combinations

import pytest

from rainbow_cliques import stirling2, thresholds, verify
from rainbow_cliques.partitions import completions, rainbow_pruned_partitions
from conftest import count_inner_calls
from oracles import bell, blocks_of


def exactly(m, r):
    """Every RGS of length m with exactly r blocks, no cuts."""
    survivors, skipped = rainbow_pruned_partitions(m, r, r)
    assert skipped == 0
    return survivors


def random_cut(rng, m):
    """1..4 element indices below m: a single index now and then, and in a
    third of the cuts drawn with replacement, so an index may repeat (such a
    cut is never rainbow)."""
    size = rng.randint(1, min(m, 4))
    if rng.random() < 1 / 3:
        return tuple(rng.choices(range(m), k=size))
    return tuple(rng.sample(range(m), size))


def rainbow(rgs, cuts):
    """Whether some cut's elements lie in pairwise distinct blocks."""
    return any(len({rgs[i] for i in ids}) == len(ids) for ids in cuts)


def all_rgs(m):
    """Brute force: every restricted growth string of length m, each prefix
    extended by every block used so far and by one new block."""
    out = [()]
    for _ in range(m):
        out = [g + (b,) for g in out for b in range(max(g, default=-1) + 2)]
    return out


class TestStirling:
    def test_known_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(15, 10) == 12662650
        assert stirling2(5, 6) == 0

    def test_large_m_needs_no_recursion(self):
        # S(m, 2) = 2^(m-1) - 1: the count table is built row by row, so m
        # is not bounded by the interpreter's recursion limit
        assert stirling2(1500, 2) == 2**1499 - 1

    def test_negative_counts_are_rejected(self):
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            stirling2(-1, 0)
        with pytest.raises(ValueError, match="m must be >= 0, got -1"):
            completions(-1, 0, 3)

    def test_bell(self):
        assert [bell(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_completions_sum_stirling_numbers(self):
        for m in range(0, 9):
            for lo in range(0, m + 2):
                for hi in range(lo, m + 2):
                    expect = sum(stirling2(m, r) for r in range(lo, hi + 1))
                    assert completions(m, lo, hi) == expect


class TestCursor:
    """Enumeration with exactly r blocks and no cuts."""

    def test_counts_match_recurrence_small(self):
        for m in range(0, 11):
            for r in range(0, m + 1):
                assert len(exactly(m, r)) == stirling2(m, r)

    def test_counts_match_recurrence_m15_edges(self):
        for r in (1, 2, 13, 14, 15):
            assert len(exactly(15, r)) == stirling2(15, r)

    def test_emits_each_partition_once(self):
        for m, r in ((6, 3), (7, 4), (8, 2)):
            assert len(set(exactly(m, r))) == stirling2(m, r)

    def test_restricted_growth_invariant(self):
        for rgs in exactly(7, 3):
            top = -1
            for b in rgs:
                assert b <= top + 1  # blocks indexed by first appearance
                top = max(top, b)
            assert top + 1 == 3
            assert all(block for block in blocks_of(rgs))

    def test_infeasible(self):
        assert rainbow_pruned_partitions(3, 5, 5) == ([], 0)
        assert rainbow_pruned_partitions(3, 0, 0) == ([], 0)
        assert rainbow_pruned_partitions(0, 0, 0) == ([()], 0)
        assert rainbow_pruned_partitions(0, 1, 3) == ([], 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rainbow_pruned_partitions(-1, 2, 2)

    @pytest.mark.parametrize("cut", [(-1, 0), (5,), ()])
    def test_cut_outside_the_indices_names_the_cut(self, cut):
        # alone, (-1, 0) once read the getter's padding slot and kept all 5 RGS;
        # (5,) raised a bare IndexError and () an error from max()
        message = rf"^cut {re.escape(str(cut))} needs one or more indices in 0\.\.2$"
        with pytest.raises(ValueError, match=message):
            rainbow_pruned_partitions(3, 0, 3, [(0, 1), cut])


class TestAllPartitions:
    """Enumeration over a range of block counts, with and without cuts."""

    def test_counts_are_bell(self):
        for m in range(0, 9):
            survivors, skipped = rainbow_pruned_partitions(m, 0, m)
            assert skipped == 0 and len(set(survivors)) == len(survivors) == bell(m)

    def test_blocks_round_trip(self):
        for rgs in rainbow_pruned_partitions(5, 0, 5)[0]:
            blocks = blocks_of(rgs)
            rebuilt = [None] * 5
            for b, block in enumerate(blocks):
                for i in block:
                    rebuilt[i] = b
            assert tuple(rebuilt) == rgs

    def test_matches_brute_force_filter_with_random_cuts(self):
        rng = random.Random(20230815)
        for m in range(0, 9):
            every = all_rgs(m)
            assert len(every) == bell(m)
            for _ in range(30):
                # lo > m and hi < lo are infeasible: no survivors, nothing
                # skipped.  lo >= m - 2 leaves at most two positions that
                # reuse a block, so the root's completions are listed directly.
                lo = rng.choice((rng.randint(0, m + 1), rng.randint(max(m - 2, 0), m)))
                hi = rng.randint(lo - 1, m + 1)
                cuts = [random_cut(rng, m) for _ in range(rng.randint(0, 4) if m else 0)]
                survivors, skipped = rainbow_pruned_partitions(m, lo, hi, cuts)
                in_range = [g for g in every if lo <= len(set(g)) <= hi]
                # all_rgs lists in lexicographic order, as the enumerator does
                assert survivors == [g for g in in_range if not rainbow(g, cuts)]
                assert len(survivors) + skipped == len(in_range) == sum(
                    stirling2(m, r) for r in range(lo, hi + 1)
                )

    def test_lo_below_zero_and_hi_past_m_change_nothing(self):
        # every RGS of length m has 0..m blocks, so lo < 0 reads as lo = 0
        # and hi > m as hi = m, in the survivors and in `skipped`; the root's
        # reuse budget m - max(lo, 0) and the new-block rule rely on the first
        rng = random.Random(27)
        for _ in range(300):
            m = rng.randint(0, 9)
            lo, hi = rng.randint(0, m), rng.randint(0, m)
            cuts = [random_cut(rng, m) for _ in range(rng.randint(0, 6) if m else 0)]
            assert rainbow_pruned_partitions(
                m, rng.randint(-3, -1), hi, cuts
            ) == rainbow_pruned_partitions(m, 0, hi, cuts)
            assert rainbow_pruned_partitions(
                m, lo, m + rng.randint(1, 3), cuts
            ) == rainbow_pruned_partitions(m, lo, m, cuts)

    @pytest.mark.parametrize("m", range(9, 13))
    def test_matches_the_cut_free_list_filtered_past_m8(self, m):
        # lo >= m - 3 leaves at most three reuses, so the completions below
        # the root, or the root's own, are listed directly
        rng = random.Random(m)
        for lo in range(m - 3, m + 1):
            hi = rng.randint(lo, m)
            every, skipped = rainbow_pruned_partitions(m, lo, hi)
            assert skipped == 0
            for _ in range(8):
                cuts = [
                    tuple(rng.sample(range(m), rng.randint(2, 4)))
                    for _ in range(rng.randint(1, 12))
                ]
                survivors, skipped = rainbow_pruned_partitions(m, lo, hi, cuts)
                assert survivors == [g for g in every if not rainbow(g, cuts)]
                assert len(survivors) + skipped == len(every) == sum(
                    stirling2(m, r) for r in range(lo, hi + 1)
                )


def check_listing(m, lo, hi, cuts, expect=None):
    """The survivors, checked against brute force, against `expect` unless
    it is None, and against the Stirling sum with `skipped`."""
    survivors, skipped = rainbow_pruned_partitions(m, lo, hi, cuts)
    # all_rgs lists in lexicographic order, as the enumerator does
    assert survivors == [
        g for g in all_rgs(m) if lo <= len(set(g)) <= hi and not rainbow(g, cuts)
    ]
    assert expect is None or survivors == expect
    assert len(survivors) + skipped == sum(stirling2(m, r) for r in range(lo, hi + 1))
    return survivors


class TestOneReuseLeft:
    """With lo = m - 1 exactly one position reuses a block: the reuse p must
    lie in every open cut's unassigned positions and join a block all of
    them hold, or the block an earlier such position opened."""

    def test_reuse_joins_a_block_every_open_cut_holds(self):
        # below 0123 the cuts hold block 0 and share position 4 alone
        check_listing(5, 4, 4, [(0, 1, 4), (0, 2, 4), (0, 3, 4)], [(0, 1, 2, 3, 0)])

    def test_reuse_joins_the_block_a_shared_position_opened(self):
        # below 012 the cuts hold blocks 0, 1, 2 (none in common) and share
        # positions 3 and 4, so 4 must join the block 3 opens
        check_listing(5, 4, 4, [(0, 3, 4), (1, 3, 4), (2, 3, 4)], [(0, 1, 2, 3, 3)])

    def test_one_shared_position_and_no_common_block_has_no_survivor(self):
        # below 0123 the cuts share only position 4 and hold blocks {0, 1}
        # and {2, 3}; with a second reuse 4 can join block 1 once 2 joined it
        cuts = [(0, 1, 4), (2, 3, 4)]
        check_listing(5, 4, 4, cuts, [])
        assert (0, 1, 1, 2, 1) in rainbow_pruned_partitions(5, 3, 4, cuts)[0]


class TestTwoReusesLeft:
    """With at most two reuses left the completions are listed by (first
    reuse p1, its block b1, second reuse p2, its block b2)."""

    def test_first_reuse_outside_every_cut(self):
        # lo = m - 2 at the root; 2 joins block 0 and lies in no cut, then 4
        # joins 1's block and breaks the cut
        survivors = check_listing(7, 5, 5, [(1, 4)])
        assert (0, 1, 0, 2, 1, 3, 4) in survivors
        assert len(survivors) == 15

    def test_second_reuse_joins_the_block_the_first_grew(self):
        # 2 joins block 0, breaking (0, 2); 3 then breaks (2, 3) only by
        # joining the block 2 joined
        check_listing(5, 3, 3, [(0, 2), (2, 3)], [(0, 1, 0, 0, 2)])

    def test_second_reuse_joins_a_block_opened_between_the_reuses(self):
        # 1 joins block 0, 2 opens block 1 and 4 joins it
        check_listing(5, 3, 3, [(0, 1), (2, 4)], [(0, 0, 1, 2, 1)])
        check_listing(6, 4, 4, [(0, 1), (2, 5)], [(0, 0, 1, 2, 3, 1)])

    def test_one_and_two_reuse_completions_interleave(self):
        # lo < hi: a completion with one reuse comes last in its (p1, b1)
        # group and before the groups of later first reuses
        survivors = check_listing(5, 3, 4, [(0, 1, 2)])
        one, two = survivors.index((0, 0, 1, 2, 3)), survivors.index((0, 1, 0, 0, 2))
        assert survivors[one - 1] == (0, 0, 1, 2, 2) and one < two
        assert len(survivors) == 19

    def test_listed_nodes_with_no_open_cut_differ_in_blocks(self):
        # no cuts and hi = 4: every listed node has the same (empty) set of
        # open cuts, but they differ in position and block count, and any
        # listing memoised on the open cuts alone would mix them up
        check_listing(9, 0, 4, [])


class TestPruningNodeCount:
    """The survivors and `skipped` stay exact whether a node is walked
    position by position or its completions are listed (the finishing test
    still catches every rainbow cut), so the amount of work is pinned by
    the calls of `rec`: with more than two reuses left a node is walked,
    with at most two it is listed.  A listed node with no position for its
    first reuse ends before it builds its `head`, and each mask of such
    positions is one call of `first_reuses`."""

    @staticmethod
    def counted(run, walked):
        """The number of nodes walked (or, with walked=False, listed) while
        run() runs, and its result."""
        return count_inner_calls(
            rainbow_pruned_partitions, run, where=lambda args: (args["most"] > 2) == walked
        )

    @staticmethod
    def ended(run):
        """The number of listed nodes that end at once while run() runs, and
        the number of first-reuse masks made."""
        early, _ = count_inner_calls(
            rainbow_pruned_partitions, run, at_return=True,
            where=lambda local: local["most"] <= 2 and "head" not in local,
        )
        made, _ = count_inner_calls(rainbow_pruned_partitions, run, name="first_reuses")
        return early, made

    def test_k6_dichotomy_walks_768_nodes_and_lists_3210(self):
        # the K6 verifier's call: the 15 edges of K6 (ordered by larger,
        # then smaller end) into exactly 10 blocks, one cut per 4-subset of
        # vertices (its 6 edge indices)
        edges = sorted(combinations(range(1, 7), 2), key=lambda e: (e[1], e[0]))
        index = {e: i for i, e in enumerate(edges)}
        cuts = [
            tuple(index[e] for e in combinations(sub, 2))
            for sub in combinations(range(1, 7), 4)
        ]
        def run():
            return rainbow_pruned_partitions(15, 10, 10, cuts)

        walked, (survivors, skipped) = self.counted(run, True)
        listed, _ = self.counted(run, False)
        assert (len(survivors), skipped) == (70, 12662580)
        assert (walked, listed) == (768, 3210)
        assert self.ended(run) == (1071, 441)
        # the 70 survivors, their content and their order
        assert hashlib.sha256(repr(survivors).encode()).hexdigest() == (
            "65283961303a7ea641cef4883d56c68e784b0cb93c5f9ce99d7c2e87607e81d9"
        )

    @pytest.mark.parametrize("lower, walked, listed, ended, ces", [
        pytest.param(
            0, (0, 0, 101), (1, 7, 194), ((1, 1), (6, 7), (193, 119)), (0, 0, 0),
            id="at-the-threshold",
        ),
        pytest.param(
            1, (0, 4, 329), (1, 11, 615), ((0, 1), (0, 9), (458, 304)), (3, 15, 105),
            id="threshold-lowered-by-one",
        ),
    ])
    def test_triangle_verifier_nodes(self, lower, walked, listed, ended, ces, monkeypatch):
        # summed over the verifier's calls, one per edge subset of K_n for
        # n = 3, 4, 5; one below the threshold colorings without a rainbow
        # triangle survive
        monkeypatch.setattr(
            verify, "thresholds", lambda n, k: tuple(t - lower for t in thresholds(n, k))
        )
        for walk, expect in ((True, walked), (False, listed)):
            found = [
                self.counted(lambda: verify.verify_triangle_threshold(n), walk)
                for n in (3, 4, 5)
            ]
            assert [calls for calls, _ in found] == list(expect)
            assert [len(report.counterexamples) for _, report in found] == list(ces)
        assert [
            self.ended(lambda: verify.verify_triangle_threshold(n)) for n in (3, 4, 5)
        ] == list(ended)

    def test_lo_below_hi_walks_18_nodes_and_lists_24(self):
        # with lo < hi a new block spends a reuse once lo blocks are open;
        # counting it as free walks 27 nodes and lists 51 for the same result
        cuts = [(0, 1, 2), (2, 3, 4), (4, 5, 6)]
        def run():
            return rainbow_pruned_partitions(7, 2, 5, cuts)

        walked, (survivors, skipped) = self.counted(run, True)
        listed, _ = self.counted(run, False)
        assert (len(survivors), skipped) == (198, 656)
        assert (walked, listed) == (18, 24)

    def test_a_root_with_one_reuse_left_is_listed_without_a_walk(self):
        # lo = m - 1 leaves one reuse at the root, so the reuse must be 4,
        # the only position both cuts hold; 0..3 open the blocks it can
        # join, and none of them holds both cuts, so nothing is listed
        cuts = [(0, 1, 4), (2, 3, 4)]
        for walk, calls in ((True, 0), (False, 1)):
            assert self.counted(
                lambda: rainbow_pruned_partitions(5, 4, 4, cuts), walk
            ) == (calls, ([], stirling2(5, 4)))
