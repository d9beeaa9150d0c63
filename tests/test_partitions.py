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
        with pytest.raises(ValueError, match="m >= 0"):
            stirling2(-1, 0)
        with pytest.raises(ValueError, match="m >= 0"):
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
                # skipped.  lo = m - 1 or m leaves at most one position that
                # reuses a block, where the lookahead prunes.
                lo = rng.choice((rng.randint(0, m + 1), rng.randint(max(m - 1, 0), m)))
                hi = rng.randint(lo - 1, m + 1)
                cuts = [random_cut(rng, m) for _ in range(rng.randint(0, 4) if m else 0)]
                survivors, skipped = rainbow_pruned_partitions(m, lo, hi, cuts)
                in_range = [g for g in every if lo <= len(set(g)) <= hi]
                # all_rgs lists in lexicographic order, as the enumerator does
                assert survivors == [g for g in in_range if not rainbow(g, cuts)]
                assert len(survivors) + skipped == len(in_range) == sum(
                    stirling2(m, r) for r in range(lo, hi + 1)
                )

    @pytest.mark.parametrize("m", range(9, 13))
    def test_matches_the_cut_free_list_filtered_past_m8(self, m):
        # lo >= m - 3 leaves at most three reuses, so the r <= 1 rules fire
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


class TestOneReuseLookahead:
    """With lo = m - 1 exactly one position reuses a block, and the
    lookahead decides each node exactly: the reuse p must lie in every open
    cut's unassigned positions and join a block all of them hold, or the
    block an earlier such position opened."""

    @staticmethod
    def brute_force(m, lo, hi, cuts):
        return sorted(
            g for g in all_rgs(m)
            if lo <= len(set(g)) <= hi
            and not rainbow(g, cuts)
        )

    def check(self, m, lo, hi, cuts, expect):
        survivors, skipped = rainbow_pruned_partitions(m, lo, hi, cuts)
        assert survivors == self.brute_force(m, lo, hi, cuts) == expect
        assert len(survivors) + skipped == sum(stirling2(m, r) for r in range(lo, hi + 1))

    def test_reuse_joins_a_block_every_open_cut_holds(self):
        # below 0123 the cuts hold block 0 and share position 4 alone
        self.check(5, 4, 4, [(0, 1, 4), (0, 2, 4), (0, 3, 4)], [(0, 1, 2, 3, 0)])

    def test_reuse_joins_the_block_a_shared_position_opened(self):
        # below 012 the cuts hold blocks 0, 1, 2 (none in common) and share
        # positions 3 and 4, so 4 must join the block 3 opens
        self.check(5, 4, 4, [(0, 3, 4), (1, 3, 4), (2, 3, 4)], [(0, 1, 2, 3, 3)])

    def test_one_shared_position_and_no_common_block_has_no_survivor(self):
        # below 0123 the cuts share only position 4 and hold blocks {0, 1}
        # and {2, 3}; with a second reuse 4 can join block 1 once 2 joined it
        cuts = [(0, 1, 4), (2, 3, 4)]
        self.check(5, 4, 4, cuts, [])
        assert (0, 1, 1, 2, 1) in rainbow_pruned_partitions(5, 3, 4, cuts)[0]


class TestPruningNodeCount:
    """The survivors and `skipped` stay exact even when a pruning rule is
    dropped (the finishing test still catches every rainbow cut), so the
    amount of pruning is pinned by the nodes the recursion visits."""

    @staticmethod
    def counted(run):
        """The number of calls of `rec` while run() runs, and its result."""
        return count_inner_calls(rainbow_pruned_partitions, run)

    def nodes(self, m, lo, hi, cuts):
        return self.counted(lambda: rainbow_pruned_partitions(m, lo, hi, cuts))

    def test_k6_dichotomy_visits_10013_nodes(self):
        # the K6 verifier's call: the 15 edges of K6 (ordered by larger,
        # then smaller end) into exactly 10 blocks, one cut per 4-subset of
        # vertices (its 6 edge indices)
        edges = sorted(combinations(range(1, 7), 2), key=lambda e: (e[1], e[0]))
        index = {e: i for i, e in enumerate(edges)}
        cuts = [
            tuple(index[e] for e in combinations(sub, 2))
            for sub in combinations(range(1, 7), 4)
        ]
        calls, (survivors, skipped) = self.nodes(15, 10, 10, cuts)
        assert (len(survivors), skipped) == (70, 12662580)
        assert calls == 10013

    @pytest.mark.parametrize("lower, visits, ces", [
        pytest.param(0, (1, 10, 374), (0, 0, 0), id="at-the-threshold"),
        pytest.param(1, (7, 50, 1478), (3, 15, 105), id="threshold-lowered-by-one"),
    ])
    def test_triangle_verifier_nodes(self, lower, visits, ces, monkeypatch):
        # summed over the verifier's calls, one per edge subset of K_n for
        # n = 3, 4, 5; one below the threshold colorings without a rainbow
        # triangle survive
        monkeypatch.setattr(
            verify, "thresholds", lambda n, k: tuple(t - lower for t in thresholds(n, k))
        )
        found = [self.counted(lambda: verify.verify_triangle_threshold(n)) for n in (3, 4, 5)]
        assert [calls for calls, _ in found] == list(visits)
        assert [len(report.counterexamples) for _, report in found] == list(ces)

    def test_one_reuse_rule_skips_the_only_child_of_the_root(self):
        # lo = m - 1 leaves one reuse below the root's child 0; the open cuts
        # share only position 4, and (2, 3, 4) holds no block yet, so the
        # child is skipped before any cut finishes
        calls, (survivors, skipped) = self.nodes(5, 4, 4, [(0, 1, 4), (2, 3, 4)])
        assert (survivors, skipped) == ([], stirling2(5, 4))
        assert calls == 1
