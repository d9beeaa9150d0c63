import hashlib
import random
from math import comb

import pytest

from rainbow_cliques import (
    count_rainbow_cliques,
    counterexample_n7,
    extremal,
    find_monochromatic_cycle,
    format_ecg,
    find_monochromatic_path,
    find_rainbow_clique,
    find_rainbow_turan,
    is_complete,
    k6_variant,
    lexicographic,
    perturb_fresh_colors,
    saturation,
    thresholds,
    turan_partition,
)
from rainbow_cliques.constructions import _recolor_fresh
from oracles import recolor_fresh_randrange


def extremal_part_ranges(n: int, k: int):
    sizes = turan_partition(n, k - 2)
    start = 1
    for s in sizes:
        yield range(start, start + s)
        start += s


class TestExtremal:
    def test_counts_8_4(self):
        g = extremal(8, 4)
        assert (g.e, g.c) == (28, 17)
        prof = saturation(g)
        assert prof.tallies == (1, 0, 16)

    def test_counts_9_5(self):
        g = extremal(9, 5)
        assert (g.e, g.c) == (36, 28)
        assert set(saturation(g).ds.values()) == {6}

    def test_6_4_has_rainbow_turan(self):
        g = extremal(6, 4)
        assert (g.e, g.c) == (15, 10)
        assert find_rainbow_turan(g, 2) is not None

    def test_sits_at_extremal_threshold(self):
        for k in (4, 5, 6, 7, 8):
            for n in [*range(k - 1, k + 3), *range(max(k, 8), 61, 7)]:
                g = extremal(n, k)
                assert g.e + g.c == thresholds(n, k)[0], (n, k)

    def test_single_vertex_parts_leave_the_shared_color_unused(self):
        for k in range(4, 9):
            g = extremal(k - 2, k)
            m = comb(k - 2, 2)
            assert (g.e, g.c) == (m, m), k
            # the threshold lies one above the all-rainbow maximum here
            assert thresholds(k - 2, k)[0] == 2 * m + 1, k

    def test_no_rainbow_clique_exhaustive(self):
        for k in (4, 5, 6):
            for n in range(max(k, k + 2), 13):
                assert count_rainbow_cliques(extremal(n, k), k) == 0

    def test_no_rainbow_clique_structural(self):
        # beyond exhaustive range: every part has >= 2 vertices, intra edges
        # share one color and cross colors are distinct, so any k-subset
        # carries two same-colored intra edges by pigeonhole
        for k, n in ((4, 40), (5, 45), (6, 36)):
            g = extremal(n, k)
            shared = max(g.colors.values())
            parts = list(extremal_part_ranges(n, k))
            assert all(len(p) >= 2 for p in parts)
            cross = [c for e, c in g.colors.items()
                     if not any(e[0] in p and e[1] in p for p in parts)]
            assert len(cross) == len(set(cross)) and shared not in cross
            intra = [c for e, c in g.colors.items()
                     if any(e[0] in p and e[1] in p for p in parts)]
            assert set(intra) == {shared}

    def test_ecg_digest_is_frozen(self):
        # SHA-256 of the ECG texts of extremal(n, k), concatenated, for
        # k = 3..8 and n = max(2, k-2)..40: every edge keeps its color id,
        # which the supersaturation rows and the CLI's outputs depend on
        h = hashlib.sha256()
        for k in range(3, 9):
            for n in range(max(2, k - 2), 41):
                h.update(format_ecg(extremal(n, k)).encode())
        assert h.hexdigest() == (
            "8f363e6e8ce30bf149f577fa1562b99adc839ac2cea4d7d014851cb9806fd6f0"
        )

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            extremal(8, 2)
        with pytest.raises(ValueError):
            extremal(1, 4)


class TestLexicographic:
    def test_n3(self):
        g = lexicographic(3)
        assert set(g.colors.values()) == {1, 2}
        assert g.e + g.c == 5

    def test_n2(self):
        g = lexicographic(2)
        assert (g.e, g.c) == (1, 1) and g.color_of(1, 2) == 1

    def test_detectors_all_absent(self):
        for n in range(3, 11):
            g = lexicographic(n)
            assert find_rainbow_clique(g, 3) is None
            assert find_monochromatic_cycle(g, 3) is None
            assert find_monochromatic_path(g, 4) is None

    def test_degree_plus_saturated_degree_bound(self):
        for n in range(2, 11):
            g = lexicographic(n)
            prof = saturation(g)
            for v in range(1, n + 1):
                assert g.degree(v) + prof.ds[v] <= n

    def test_counts_formula(self):
        for n in range(2, 11):
            g = lexicographic(n)
            assert (g.e, g.c) == (n * (n - 1) // 2, n - 1)
            assert g.e + g.c == n * (n + 1) // 2 - 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            lexicographic(1)


class TestK6Variant:
    def test_turan_pair(self):
        g = k6_variant("turan-pair")
        assert (g.e, g.c) == (15, 10)
        assert find_rainbow_clique(g, 4) is None
        assert find_rainbow_turan(g, 2) is not None

    def test_mono_c6(self):
        g = k6_variant("mono-c6")
        assert (g.e, g.c) == (15, 10)
        assert find_rainbow_clique(g, 4) is None
        assert find_monochromatic_cycle(g, 6) is not None
        assert find_rainbow_turan(g, 2) is None

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            k6_variant("nope")


class TestCounterexampleN7:
    def test_counts(self):
        g = counterexample_n7()
        assert (g.e, g.c) == (20, 14)
        assert g.e + g.c == 34

    def test_not_complete(self):
        assert not is_complete(counterexample_n7())

    def test_no_rainbow_k4(self):
        assert find_rainbow_clique(counterexample_n7(), 4) is None

    def test_attachment_degrees(self):
        g = counterexample_n7()
        prof = saturation(g)
        for v in (6, 7):
            assert g.degree(v) == 5 and prof.ds[v] == 5
        assert g.color_of(6, 7) is None


class TestPerturbFreshColors:
    def test_at_threshold_creates_rainbow_k4(self):
        g = perturb_fresh_colors(extremal(8, 4), 46, seed=0)
        assert g.e + g.c == 46
        assert find_rainbow_clique(g, 4) is not None

    def test_noop_when_target_met(self):
        g = extremal(8, 4)
        assert perturb_fresh_colors(g, 40, seed=1) == g

    def test_all_rainbow_already_maximal(self):
        from itertools import combinations
        from rainbow_cliques import ColoredGraph
        colors = {e: i + 1 for i, e in enumerate(combinations(range(1, 6), 2))}
        g = ColoredGraph(5, colors)
        assert perturb_fresh_colors(g, 2 * g.e, seed=1) == g

    def test_target_unreachable(self):
        with pytest.raises(ValueError, match=r"^target e\+c=57 unreachable, maximum is 56$"):
            perturb_fresh_colors(extremal(8, 4), 57, seed=1)

    def test_incomplete_host_rejected(self):
        # checked first, so an unreachable target fails on this rule too
        for target in (35, 10**6):
            with pytest.raises(ValueError, match="^perturbation requires a complete host graph$"):
                perturb_fresh_colors(counterexample_n7(), target, seed=1)

    def test_edge_set_unchanged_and_deterministic(self):
        base = extremal(10, 4)
        a = perturb_fresh_colors(base, 70, seed=9)
        b = perturb_fresh_colors(base, 70, seed=9)
        assert a == b
        assert set(a.colors) == set(base.colors)
        assert a.e + a.c >= 70

    def test_pinned_output(self):
        # a fixed seed must keep giving this exact recoloring
        base = extremal(10, 4)
        g = perturb_fresh_colors(base, 78, seed=2024)
        assert g.e + g.c == 78
        assert {e: c for e, c in g.colors.items() if base.colors[e] != c} == {
            (2, 4): 28, (3, 4): 30, (6, 7): 29, (7, 8): 33,
            (7, 9): 27, (7, 10): 32, (8, 9): 31,
        }
        # classes of two and three edges, so some fall to one edge on the way
        from itertools import combinations
        from rainbow_cliques import ColoredGraph
        colors = {e: i % 7 + 1 for i, e in enumerate(combinations(range(1, 7), 2))}
        g = perturb_fresh_colors(ColoredGraph(6, colors), 27, seed=11)
        assert {e: c for e, c in g.colors.items() if colors[e] != c} == {
            (2, 5): 8, (3, 5): 10, (3, 6): 11, (4, 6): 12, (5, 6): 9,
        }

    @pytest.mark.parametrize("shape", ["one-class", "small-palette", "far-ids"])
    def test_recoloring_matches_the_randrange_reference(self, shape):
        # the same indices, the same colors and the same state of the
        # stream after, so every seeded output built on it is kept
        rng = random.Random(shape)
        for _ in range(200):
            e = rng.randint(1, 60)
            if shape == "one-class":
                colors = [rng.randint(1, 5)] * e
            elif shape == "small-palette":
                # classes of one to a few edges, many falling to one edge
                colors = [rng.randint(1, max(1, e // 2)) for _ in range(e)]
            else:
                colors = [rng.randint(10**8, 10**8 + 3) for _ in range(e)]
            target = rng.randint(e, 2 * e)
            seed = rng.randrange(2**32)
            ours, ref = list(colors), list(colors)
            ours_rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _recolor_fresh(ours, target, ours_rng) == recolor_fresh_randrange(
                ref, target, ref_rng
            )
            assert ours == ref
            assert ours_rng.random() == ref_rng.random()

    def test_recoloring_rejects_an_unreachable_target(self):
        # past 2e no class of two edges is left to draw from
        with pytest.raises(ValueError, match="unreachable"):
            _recolor_fresh([1, 1, 2], 7, random.Random(0))
