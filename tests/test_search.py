import hashlib
import random
from dataclasses import replace
from itertools import combinations
from math import ceil, comb, prod

import pytest

from rainbow_cliques import (
    ColoredGraph,
    count_rainbow_cliques,
    delete_vertex,
    extremal,
    find_monochromatic_cycle,
    find_monochromatic_path,
    find_properly_colored_c4,
    find_rainbow_clique,
    find_rainbow_complete_bipartite,
    find_rainbow_turan,
    k6_variant,
    lexicographic,
    perturb_fresh_colors,
    supersaturation_experiment,
    turan_partition,
    validate_witness,
    Witness,
)
from rainbow_cliques.search import _mono_extend, _rainbow_cliques
from conftest import count_inner_calls, random_colored_graph, random_complete_colored_graph
from oracles import (
    count_rainbow_cliques_naive,
    count_rainbow_cliques_one_big_class,
    mono_cycle_naive,
    mono_path_naive,
    proper_c4_naive,
    rainbow_bipartite_naive,
    rainbow_turan_exists_naive,
)


def rainbow_complete(n: int) -> ColoredGraph:
    colors = {}
    for i, e in enumerate(combinations(range(1, n + 1), 2)):
        colors[e] = i + 1
    return ColoredGraph(n, colors)


def mono_complete(n: int) -> ColoredGraph:
    return ColoredGraph(n, {e: 1 for e in combinations(range(1, n + 1), 2)})


RAINBOW6 = rainbow_complete(6)
MONO6 = mono_complete(6)


def _multipartite(kind, verts, parts):
    """A `kind` witness in RAINBOW6 on `verts`, split into parts of the
    given sizes, with the edges between those parts."""
    it = iter(verts)
    split = [[next(it) for _ in range(size)] for size in parts]
    pairs = [(u, v) for i, a in enumerate(split) for b in split[i + 1:] for u in a for v in b]
    return Witness(kind, verts, tuple((u, v, RAINBOW6.color_of(u, v)) for u, v in pairs), parts)


def _walk(kind, verts):
    """A `kind` witness in MONO6 with the edges of the cycle through `verts`
    (one edge for two vertices)."""
    pairs = {tuple(sorted(p)) for p in zip(verts, verts[1:] + verts[:1])}
    return Witness(kind, verts, tuple((u, v, 1) for u, v in sorted(pairs)))


V6 = tuple(range(1, 7))
CLIQUE3 = _multipartite("rainbow-clique", (1, 2, 3), (1, 1, 1))
CYCLE3 = _walk("mono-cycle", (1, 2, 3))


def k6_minus_11_colors() -> ColoredGraph:
    """K6 minus edge (1,2); rainbow K_{2,4} between {1,2} and {3..6} (colors
    1..8), the K4 on {3..6} colored lexicographically with 3 new colors."""
    colors = {}
    c = 1
    for u in (1, 2):
        for v in (3, 4, 5, 6):
            colors[(u, v)] = c
            c += 1
    for u, v in combinations((3, 4, 5, 6), 2):
        colors[(u, v)] = 8 + (u - 2)
    return ColoredGraph(6, colors)


class TestFindRainbowClique:
    def test_lexicographic_k6_no_triangle(self):
        assert find_rainbow_clique(lexicographic(6), 3) is None

    def test_extremal_8_4_no_k4(self):
        assert find_rainbow_clique(extremal(8, 4), 4) is None
        # exhaustive cross-check over all 70 4-subsets
        assert count_rainbow_cliques_naive(extremal(8, 4), 4) == 0

    def test_rainbow_k4(self):
        w = find_rainbow_clique(rainbow_complete(4), 4)
        assert w is not None and w.vertices == (1, 2, 3, 4)

    def test_lexicographic_least_witness(self):
        w = find_rainbow_clique(rainbow_complete(6), 3)
        assert w.vertices == (1, 2, 3)

    def test_degenerate_sizes(self):
        g = rainbow_complete(3)
        assert find_rainbow_clique(g, 1).vertices == (1,)
        assert find_rainbow_clique(g, 2).vertices == (1, 2)
        assert count_rainbow_cliques(g, 1) == 3
        assert count_rainbow_cliques(g, 2) == 3

    def test_k_larger_than_n(self):
        assert find_rainbow_clique(rainbow_complete(3), 4) is None

    def test_bad_k(self):
        with pytest.raises(ValueError):
            find_rainbow_clique(rainbow_complete(3), 0)

    def test_bool_k_rejected(self):
        # True == 1: it would be read as k = 1 and give a one-vertex witness
        with pytest.raises(TypeError):
            find_rainbow_clique(extremal(6, 4), True)

    def test_float_k_rejected(self):
        with pytest.raises(TypeError):
            find_rainbow_clique(extremal(6, 4), 2.5)


class TestCountRainbowCliques:
    def test_rainbow_k5_triangles(self):
        assert count_rainbow_cliques(rainbow_complete(5), 3) == 10

    def test_extremal_8_4_triangles(self):
        g = extremal(8, 4)
        assert count_rainbow_cliques(g, 3) == 48
        assert count_rainbow_cliques_naive(g, 3) == 48

    def test_extremal_8_4_no_k4(self):
        assert count_rainbow_cliques(extremal(8, 4), 4) == 0

    def test_bool_k_rejected(self):
        # True == 1: it would count the 6 vertices as cliques
        with pytest.raises(TypeError):
            count_rainbow_cliques(extremal(6, 4), True)

    def test_float_k_rejected(self):
        with pytest.raises(TypeError):
            count_rainbow_cliques(extremal(6, 4), 3.5)

    def test_matches_naive_oracle(self):
        rng = random.Random(23)
        graphs = [random_colored_graph(rng, rng.randint(3, 9)) for _ in range(100)]
        # one large color class plus fresh colors, as in the supersaturation
        # experiment
        for n in range(3, 11):
            for k in range(3, n + 3):
                base = extremal(n, k)
                graphs.append(perturb_fresh_colors(base, rng.randint(base.e + base.c, 2 * base.e), n))
        # 1-6 colors on complete and non-complete graphs.  With 1-3 colors a
        # color repeats at a vertex (c(w,u) = c(w,v)); with 4-6 a rainbow
        # triangle and a candidate can also repeat one across the clique
        # (c(w,u) = c(v,u'))
        for _ in range(160):
            n = rng.randint(3, 10)
            palette = rng.randint(1, 6)
            p = rng.choice((0.5, 0.8, 0.95, 1.0))
            colors = {
                e: rng.randint(1, palette)
                for e in combinations(range(1, n + 1), 2) if rng.random() < p
            }
            graphs.append(ColoredGraph(n, colors))
        for g in graphs:
            for k in range(1, 8):
                assert count_rainbow_cliques(g, k) == count_rainbow_cliques_naive(g, k)

    @pytest.mark.parametrize("n", [6, 7, 14, 15, 22, 23])
    def test_matches_naive_oracle_at_the_block_widths(self, n):
        # the pair count packs one vertex mask per block of 8*ceil((n+2)/8)
        # bits: 6 | 7, 14 | 15 and 22 | 23 sit on either side of the steps
        # from 8 to 16, 16 to 24 and 24 to 32 bits
        rng = random.Random(n)
        pairs = list(combinations(range(1, n + 1), 2))
        for p in (1.0, 0.8):
            # 1-6 colors; n colors, whose classes of about n/2 edges repeat
            # colors across the clique; and a color-rich palette where most
            # classes are single edges and the rest are small
            for palette in (rng.randint(1, 5), 6, n, len(pairs)):
                g = ColoredGraph(n, {
                    e: rng.randint(1, palette) for e in pairs if rng.random() < p
                })
                for k in (3, 4, 5):
                    assert count_rainbow_cliques(g, k) == count_rainbow_cliques_naive(g, k)

    # k = 3 at n = 100, the experiment's cap: the widest blocks, 112 bits,
    # under the packed squares of its big color classes
    @pytest.mark.parametrize("k, ns", [(3, (20, 100)), (4, (20, 40)), (5, (16, 30)), (6, (12, 20))])
    def test_supersaturation_counts_match_the_one_big_class_oracle(self, k, ns):
        rows, _ = supersaturation_experiment(k, list(ns), 0.1, seed=1)
        for n, ec, count in rows:
            # the experiment's graph: the pattern plus fresh colors
            target = ceil((1 + (k - 3) / (k - 2) + 0.2) * comb(n, 2))
            g = perturb_fresh_colors(extremal(n, k), target, 1)
            assert g.e + g.c == ec
            assert count_rainbow_cliques_one_big_class(g, k) == count == count_rainbow_cliques(g, k)
            if n <= 16:
                assert count_rainbow_cliques_naive(g, k) == count

    def test_one_edge_split_of_the_pattern_closed_form(self):
        # one intra-part edge of extremal(n, k), in a part p, recolored
        # fresh: a rainbow K_k holds that edge, two vertices of one other
        # part j and one vertex of each further part, so the count is the sum
        # over j != p of C(s_j, 2) * e_{k-4}(the sizes other than s_p, s_j)
        def e(r, xs):
            return sum(prod(sub) for sub in combinations(xs, r))

        for k in range(5, 9):
            for n in range(k + 1, k + 9):
                g = extremal(n, k)
                fresh = max(g.colors.values()) + 1
                sizes = turan_partition(n, k - 2)
                first = 1  # the parts hold consecutive vertices
                for p, sp in enumerate(sizes):
                    if sp >= 2:
                        split = ColoredGraph(n, {**g.colors, (first, first + 1): fresh})
                        others = sizes[:p] + sizes[p + 1:]
                        want = sum(
                            comb(sj, 2) * e(k - 4, others[:j] + others[j + 1:])
                            for j, sj in enumerate(others)
                        )
                        assert count_rainbow_cliques(split, k) == want
                    first += sp

    def test_triangle_with_two_edges_sharing_a_color(self):
        g = ColoredGraph(3, {(1, 2): 1, (1, 3): 2, (2, 3): 2})
        assert count_rainbow_cliques(g, 3) == 0

    @pytest.mark.parametrize("k", range(3, 9))
    def test_extremal_triangles_closed_form(self, k):
        # a triangle is rainbow unless all three vertices lie in one part,
        # where every edge has the shared color
        for n in (*range(max(3, k - 2), 31), 47, 64, 99, 100):
            want = comb(n, 3) - sum(comb(s, 3) for s in turan_partition(n, k - 2))
            assert count_rainbow_cliques(extremal(n, k), 3) == want

    def test_lexicographic_has_no_rainbow_triangle(self):
        # a < b < c: the edges ab and ac both have color a
        for n in range(2, 41):
            assert count_rainbow_cliques(lexicographic(n), 3) == 0

    def test_monochromatic_and_two_colored_triangles_at_one_vertex(self):
        # 123 is monochromatic, 145 has two edges of color 1 meeting at 1
        # and 456 is rainbow.  Within the neighbours of 1 over color 1,
        # {2, 3, 4, 5}, the edges 23 and 45 count each non-rainbow triangle
        # once, but 123 is also seen from 2 and 3: only the term for the
        # color-1 edges (13 at 2, 12 at 3, 23 at 1) takes it back to once
        g = ColoredGraph(6, {
            (1, 2): 1, (1, 3): 1, (2, 3): 1,
            (1, 4): 1, (1, 5): 1, (4, 5): 2,
            (4, 6): 3, (5, 6): 4,
        })
        assert count_rainbow_cliques(g, 3) == count_rainbow_cliques_naive(g, 3) == 1

    def test_triangles_square_only_the_classes_of_six_or_more(self):
        # at 1, 7 and 14 a star of 5, 6 and 7 edges in its own color; the
        # leaves of each star are a clique in fresh colors but for one edge
        # in the star's color, which closes a monochromatic triangle
        colors, fresh = {}, iter(range(100, 200))
        for x, size in ((1, 5), (7, 6), (14, 7)):
            leaves = range(x + 1, x + size + 1)
            for u, v in combinations(leaves, 2):
                colors[u, v] = next(fresh)
            colors[x + 1, x + 2] = x
            for v in leaves:
                colors[x, v] = x
        g = ColoredGraph(21, colors)

        def run():
            return count_rainbow_cliques(g, 3)

        def squared(color):  # the times A(color) is asked for
            return count_inner_calls(count_rainbow_cliques, run, "packed", lambda f: f["c"] == color)[0]

        assert [squared(c) for c in (1, 7, 14)] == [0, 1, 1]
        assert run() == count_rainbow_cliques_naive(g, 3) == 65

    def test_limit_stops_at_the_limit_th_clique(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_colored_graph(rng, rng.randint(3, 9))
            for k in (1, 2, 3, 4):
                # every rainbow k-clique, in lexicographic order
                cliques = [
                    sub for sub in combinations(range(1, g.n + 1), k)
                    if None not in (cols := [g.color_of(u, v) for u, v in combinations(sub, 2)])
                    and len(set(cols)) == len(cols)
                ]
                assert len(cliques) == count_rainbow_cliques_naive(g, k)
                for limit in (1, 2, 5):
                    assert _rainbow_cliques(g.adj, g.color_matrix, k, limit) == cliques[:limit]

    def test_limit_must_be_positive(self):
        g = rainbow_complete(4)
        with pytest.raises(ValueError, match="limit must be positive"):
            _rainbow_cliques(g.adj, g.color_matrix, 3, 0)

    @staticmethod
    def stop_test_graphs():
        """150 seeded graphs on 1..10 vertices, from sparse to complete."""
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 10)
            p = rng.choice((0.6, 0.9, 1.0))
            palette = rng.randint(1, max(1, n * (n - 1) // 2))
            colors = {
                e: rng.randint(1, palette)
                for e in combinations(range(1, n + 1), 2) if rng.random() < p
            }
            yield ColoredGraph(n, colors)

    def test_stop_at_two_matches_the_count(self):
        # the falsifier's test: no, one, or at least two rainbow K_k
        seen = set()
        for g in self.stop_test_graphs():
            for k in range(1, 8):
                want = min(count_rainbow_cliques(g, k), 2)
                assert len(_rainbow_cliques(g.adj, g.color_matrix, k, 2)) == want
                seen.add(want)
        assert seen == {0, 1, 2}

    def test_limit_search_reads_only_the_lower_triangle(self):
        # the falsifier writes only cm[v][u] for u < v, so junk above the
        # diagonal must not change the cliques found
        for g in self.stop_test_graphs():
            lower = [
                [c if u < v else -1 for u, c in enumerate(row)]
                for v, row in enumerate(g.color_matrix)
            ]
            for k in range(1, 8):
                for limit in (1, 2, 5):
                    assert _rainbow_cliques(g.adj, lower, k, limit) == _rainbow_cliques(
                        g.adj, g.color_matrix, k, limit
                    )

    def test_find_iff_count_positive(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_colored_graph(rng, rng.randint(3, 9))
            for k in (3, 4):
                present = find_rainbow_clique(g, k) is not None
                assert present == (count_rainbow_cliques(g, k) > 0)

    def test_monotone_under_deletion(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_colored_graph(rng, rng.randint(4, 9))
            v = rng.randint(1, g.n)
            assert count_rainbow_cliques(delete_vertex(g, v), 3) <= count_rainbow_cliques(g, 3)

    def test_existence_theorem_on_random_suite(self):
        # whenever e+c meets the existence threshold, a rainbow K_k exists
        from rainbow_cliques import thresholds
        rng = random.Random(37)
        checked = 0
        for _ in range(1000):
            n = rng.randint(6, 12)
            g = random_complete_colored_graph(rng, n, rng.randint(2, n * (n - 1) // 2))
            for k in (4, 5):
                if g.e + g.c >= thresholds(n, k)[1]:
                    checked += 1
                    assert find_rainbow_clique(g, k) is not None
        assert checked > 0


class TestRainbowBipartite:
    def test_rainbow_k6(self):
        w = find_rainbow_complete_bipartite(rainbow_complete(6), 2, 4)
        assert w is not None and validate_witness(rainbow_complete(6), w)

    def test_mono_k6_absent(self):
        assert find_rainbow_complete_bipartite(mono_complete(6), 2, 4) is None

    def test_k6_minus_lemma_instance(self):
        g = k6_minus_11_colors()
        assert g.e == 14 and g.c == 11
        assert find_rainbow_clique(g, 4) is None  # lemma hypothesis
        w = find_rainbow_complete_bipartite(g, 2, 4)
        assert w is not None and validate_witness(g, w)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            find_rainbow_complete_bipartite(rainbow_complete(4), 0, 2)


class TestRainbowTuran:
    def test_extremal_8_4(self):
        w = find_rainbow_turan(extremal(8, 4), 2)
        assert w is not None
        assert w.parts == (4, 4)
        assert validate_witness(extremal(8, 4), w)

    def test_mono_c6_variant_absent(self):
        assert find_rainbow_turan(k6_variant("mono-c6"), 2) is None

    def test_extremal_9_5(self):
        w = find_rainbow_turan(extremal(9, 5), 3)
        assert w is not None and w.parts == (3, 3, 3)

    def test_bad_r(self):
        with pytest.raises(ValueError):
            find_rainbow_turan(rainbow_complete(4), 5)

    def test_witness_is_the_first_rainbow_split_in_partition_order(self):
        # K8 with its own color on each pair, except that 67 repeats 14's:
        # 12 | 345 | 678 is rainbow with vertex list 1..8, yet parts of the
        # larger size 3 are tried first for 1, and 123 | 458 | 67 is the
        # first rainbow split in that order
        colors = {e: i + 1 for i, e in enumerate(combinations(range(1, 9), 2))}
        colors[6, 7] = colors[1, 4]
        g = ColoredGraph(8, colors)
        w = find_rainbow_turan(g, 3)
        assert (w.vertices, w.parts) == ((1, 2, 3, 4, 5, 8, 6, 7), (3, 3, 2))
        assert validate_witness(g, w)
        least = [(1, 2), (3, 4, 5), (6, 7, 8)]
        cross = [
            colors[u, v] for i, a in enumerate(least) for b in least[i + 1:] for u in a for v in b
        ]
        assert len(set(cross)) == len(cross) == 21


class TestMonochromaticCycle:
    def test_mono_k3(self):
        g = ColoredGraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        w = find_monochromatic_cycle(g, 3)
        assert w is not None and validate_witness(g, w)

    def test_mono_c6_variant(self):
        g = k6_variant("mono-c6")
        w = find_monochromatic_cycle(g, 6)
        assert w is not None and validate_witness(g, w)

    def test_lexicographic_k5_no_mono_triangle(self):
        assert find_monochromatic_cycle(lexicographic(5), 3) is None

    def test_bad_length(self):
        with pytest.raises(ValueError):
            find_monochromatic_cycle(lexicographic(5), 2)


class TestMonochromaticPath:
    def test_mono_c4(self):
        g = ColoredGraph(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1})
        w = find_monochromatic_path(g, 4)
        assert w is not None and validate_witness(g, w)

    def test_lexicographic_k6_no_p4(self):
        # each color class is a star; stars contain no 4-vertex path
        assert find_monochromatic_path(lexicographic(6), 4) is None

    def test_rainbow_k4_no_p3(self):
        assert find_monochromatic_path(rainbow_complete(4), 3) is None

    def test_bad_size(self):
        with pytest.raises(ValueError):
            find_monochromatic_path(rainbow_complete(4), 1)


class TestMonoWalkPruning:
    """A walk on three or more vertices starts only on an edge whose color
    is on another edge too, pinned by the calls of `_mono_extend`."""

    def test_rainbow_k10_starts_no_walk(self):
        # all 45 colors distinct: trying every first edge made 90 calls
        # (path) and 45 (cycle, above the start only)
        g = rainbow_complete(10)
        for find in (find_monochromatic_path, find_monochromatic_cycle):
            assert count_inner_calls(_mono_extend, lambda: find(g, 4), name=None) == (0, None)

    def test_two_vertex_path_still_tries_every_edge(self):
        w = find_monochromatic_path(rainbow_complete(10), 2)
        assert w is not None and w.vertices == (1, 2)


class TestProperC4:
    def test_rainbow_k4(self):
        w = find_properly_colored_c4(rainbow_complete(4))
        assert w is not None and validate_witness(rainbow_complete(4), w)

    def test_mono_k4_absent(self):
        assert find_properly_colored_c4(mono_complete(4)) is None

    def test_threshold_falsification_search(self):
        # e+c >= C(8,2)+8+1 = 37 always yields a properly colored C4
        target = comb(8, 2) + 8 + 1
        for seed in range(1000):
            g = perturb_fresh_colors(mono_complete(8), target, seed)
            assert g.e + g.c >= target
            assert find_properly_colored_c4(g) is not None


def small_graphs(seed: int, count: int, max_n: int = 8):
    """Seeded random colorings with n <= max_n, from one color up to all
    distinct colors, so that every pattern is both found and missed."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, max_n)
        palette = rng.choice((1, 2, 3, n, n * (n - 1) // 2))
        density = rng.choice((0.5, 0.8, 1.0))
        yield ColoredGraph(n, {
            e: rng.randint(1, palette)
            for e in combinations(range(1, n + 1), 2) if rng.random() < density
        })


class TestFindersAgainstOracles:
    """Each finder returns the brute-force oracle's least witness, or None
    exactly when the oracle finds none."""

    def check(self, find, oracle, graphs):
        outcomes = set()
        for g in graphs:
            w = find(g)
            assert (w and w.vertices) == oracle(g)
            outcomes.add(w is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("nverts", [2, 3, 4, 5])
    def test_mono_path(self, nverts):
        self.check(
            lambda g: find_monochromatic_path(g, nverts),
            lambda g: mono_path_naive(g, nverts),
            small_graphs(51, 200),
        )

    @pytest.mark.parametrize("length", [3, 4, 5])
    def test_mono_cycle(self, length):
        self.check(
            lambda g: find_monochromatic_cycle(g, length),
            lambda g: mono_cycle_naive(g, length),
            small_graphs(53, 200),
        )

    def test_proper_c4(self):
        self.check(find_properly_colored_c4, proper_c4_naive, small_graphs(57, 200))

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3)])
    def test_rainbow_bipartite(self, a, b):
        self.check(
            lambda g: find_rainbow_complete_bipartite(g, a, b),
            lambda g: rainbow_bipartite_naive(g, a, b),
            small_graphs(59, 200),
        )

    @pytest.mark.parametrize("r", [2, 3])
    def test_rainbow_turan_exists_and_validates(self, r):
        outcomes = set()
        for g in small_graphs(61, 80, max_n=7):
            if r > g.n:
                continue
            hit = find_rainbow_turan(g, r)
            assert (hit is not None) == rainbow_turan_exists_naive(g, r)
            assert hit is None or validate_witness(g, hit)
            outcomes.add(hit is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("r, hits, digest", [
        (2, 55, "2aea099a2d2df6776ea9e2c4efae69afc15eeb42e900c5c323c0c3774f66d46c"),
        (3, 35, "d5e219b8ef6e7705f947a59d525c94a98ac6acd615f72115e2862a60cd0cbb0e"),
    ])
    def test_rainbow_turan_witness_choice(self, r, hits, digest):
        # which balanced partition comes back first, frozen; the complete
        # colorings from a palette of n^2 colors hit past the first partition
        rng = random.Random(67)
        graphs = list(small_graphs(61, 80, max_n=7))
        graphs += [extremal(n, r + 2) for n in range(r + 2, 10)]
        graphs += [random_complete_colored_graph(rng, n, n * n) for n in range(4, 9) for _ in range(8)]
        found = [find_rainbow_turan(g, r) for g in graphs if r <= g.n]
        assert sum(w is not None for w in found) == hits
        assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


class TestWitnessValidation:
    def test_all_finders_validate(self):
        rng = random.Random(41)
        for _ in range(100):
            g = random_colored_graph(rng, rng.randint(4, 9))
            for k in (3, 4):
                w = find_rainbow_clique(g, k)
                if w is not None:
                    assert validate_witness(g, w)
            w = find_properly_colored_c4(g)
            if w is not None:
                assert validate_witness(g, w)
            w = find_monochromatic_cycle(g, 3)
            if w is not None:
                assert validate_witness(g, w)
            w = find_monochromatic_path(g, 3)
            if w is not None:
                assert validate_witness(g, w)

    def test_wrong_color_rejected(self):
        g = rainbow_complete(4)
        w = find_rainbow_clique(g, 3)
        bad = Witness(w.kind, w.vertices, tuple((u, v, c + 99) for u, v, c in w.edges))
        assert not validate_witness(g, bad)

    def test_bipartite_and_turan_finders_validate(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = random_complete_colored_graph(rng, n, rng.randint(n, 3 * n))
            w = find_rainbow_complete_bipartite(g, 2, 2)
            if w is not None:
                assert validate_witness(g, w)
            for r in range(1, 4):
                hit = find_rainbow_turan(g, r)
                if hit is not None:
                    assert validate_witness(g, hit)

    def test_bipartite_without_edges_rejected(self):
        assert not validate_witness(
            rainbow_complete(6), Witness("rainbow-bipartite", (1, 2, 3, 4), (), (2, 2))
        )

    def test_turan_with_one_edge_rejected(self):
        g = rainbow_complete(4)
        bad = Witness("rainbow-turan", (1, 3, 2, 4), ((1, 2, g.color_of(1, 2)),), (2, 2))
        assert not validate_witness(g, bad)

    def test_turan_without_its_edge_rejected(self):
        # T(2,2) on a one-edge K2 minus that edge would be a valid T(2,1)
        # if the parts were read off the edges
        g = ColoredGraph(2, {(1, 2): 1})
        w = find_rainbow_turan(g, 2)
        assert w.parts == (1, 1) and validate_witness(g, w)
        assert not validate_witness(g, Witness(w.kind, w.vertices, (), w.parts))

    @pytest.mark.parametrize("g, good, change", [
        pytest.param(RAINBOW6, CLIQUE3, {"parts": (1, 1)}, id="parts-sum-below-vertex-count"),
        pytest.param(
            RAINBOW6, _multipartite("rainbow-bipartite", (1, 2, 3), (2, 1)),
            {"kind": "rainbow-clique"}, id="clique-with-a-part-of-2",
        ),
        pytest.param(RAINBOW6, CLIQUE3, {"kind": "rainbow-bipartite"}, id="bipartite-with-3-parts"),
        pytest.param(
            RAINBOW6, _multipartite("rainbow-turan", V6, (3, 3)), {"parts": (2, 2, 2)},
            id="turan-re-split-as-2-2-2",
        ),
        pytest.param(
            RAINBOW6, _multipartite("rainbow-bipartite", V6, (4, 2)), {"kind": "rainbow-turan"},
            id="turan-unbalanced",
        ),
        pytest.param(
            RAINBOW6, _multipartite("rainbow-bipartite", (1, 2, 3, 4), (2, 2)),
            {"kind": "rainbow-turan"}, id="turan-not-covering-v",
        ),
        pytest.param(MONO6, CYCLE3, {"parts": (1, 1, 1)}, id="walk-with-parts"),
        pytest.param(MONO6, _walk("mono-path", (1, 2)), {"kind": "mono-cycle"}, id="mono-cycle-on-2"),
        pytest.param(MONO6, CYCLE3, {"kind": "mono-star"}, id="unknown-kind"),
    ])
    def test_malformed_witness_rejected(self, g, good, change):
        # a valid witness with one field changed
        assert validate_witness(g, good)
        assert not validate_witness(g, replace(good, **change))

    TRIANGLE = ColoredGraph(3, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
    RAINBOW_K3 = Witness("rainbow-clique", (1, 2, 3), ((1, 2, 1), (1, 3, 2), (2, 3, 3)), (1, 1, 1))

    @pytest.mark.parametrize("change", [
        pytest.param({"kind": "rainbow-bipartite", "parts": (2.0, 1)}, id="float-part-size"),
        pytest.param({"parts": (True, True, True)}, id="bool-part-sizes"),
        pytest.param({"vertices": (1, 2, "3")}, id="str-vertex"),
        pytest.param({"vertices": (True, 2, 3)}, id="bool-vertex"),
        pytest.param({"vertices": (1, 2.0, 3)}, id="float-vertex"),
        pytest.param({"edges": ((1, 2.0, 1), (1, 3, 2), (2, 3, 3))}, id="float-edge-end"),
        pytest.param({"edges": ((1, 2, 1.0), (1, 3, 2), (2, 3, 3))}, id="float-edge-color"),
        pytest.param({"edges": ((1, 2, True), (1, 3, 2), (2, 3, 3))}, id="bool-edge-color"),
        pytest.param({"edges": ((1, 2), (1, 3, 2), (2, 3, 3))}, id="two-field-edge"),
        pytest.param({"edges": ((1, 2, 1, 0), (1, 3, 2), (2, 3, 3))}, id="four-field-edge"),
        pytest.param({"edges": (5, (1, 3, 2), (2, 3, 3))}, id="int-edge"),
        pytest.param({"edges": None}, id="no-edges"),
        pytest.param({"parts": None}, id="no-parts"),
        pytest.param({"vertices": 5}, id="int-vertices"),
    ])
    def test_non_int_fields_rejected(self, change):
        # each field equals a valid one, or made validate_witness raise (in
        # islice, comparing a str with an int, or unpacking an edge that is
        # not a triple) where the answer is False
        assert validate_witness(self.TRIANGLE, self.RAINBOW_K3)
        assert validate_witness(self.TRIANGLE, replace(self.RAINBOW_K3, **change)) is False

    def test_float_colors_validate(self):
        # the color type test holds a witness to its graph's colors, whatever their type
        g = ColoredGraph(3, {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 3.0})
        w = find_rainbow_clique(g, 3)
        assert w is not None and validate_witness(g, w)

    @pytest.mark.parametrize("g, w", [
        pytest.param(
            ColoredGraph(4, {}), Witness("mono-path", (1, 2, 3), ((1, 2, None), (2, 3, None))),
            id="mono-path-on-no-edges",
        ),
        pytest.param(
            ColoredGraph(4, {}),
            Witness("mono-cycle", (1, 2, 3), ((1, 2, None), (2, 3, None), (1, 3, None))),
            id="mono-cycle-on-no-edges",
        ),
        pytest.param(
            ColoredGraph(3, {(1, 2): 1}), Witness("rainbow-clique", (1, 3), ((1, 3, None),), (1, 1)),
            id="rainbow-k2-on-a-non-edge",
        ),
        pytest.param(
            ColoredGraph(3, {(1, 2): 1}),
            Witness("rainbow-bipartite", (1, 3), ((1, 3, None),), (1, 1)),
            id="rainbow-k11-on-a-non-edge",
        ),
        pytest.param(
            ColoredGraph(3, {(1, 2): 1}), Witness("rainbow-clique", (99,), (), (1,)),
            id="clique-on-a-vertex-outside-the-graph",
        ),
    ])
    def test_pattern_off_the_graph_rejected(self, g, w):
        # a missing edge reads as color None on both sides, and {None} passes
        # both the rainbow and the monochromatic color test
        assert not validate_witness(g, w)

    def test_proper_c4_edges_off_the_cycle_rejected(self):
        g = rainbow_complete(5)
        # edges of the cycle 1-2-3-5, listed for the vertices 1, 2, 3, 4
        edges = tuple((u, v, g.color_of(u, v)) for u, v in ((1, 2), (2, 3), (3, 5), (1, 5)))
        assert not validate_witness(g, Witness("proper-c4", (1, 2, 3, 4), edges))
