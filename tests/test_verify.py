import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from oracles import labeled_regular_graphs_naive
from rainbow_cliques import (
    ColoredGraph,
    ECGParseError,
    count_rainbow_cliques,
    extremal,
    falsify_two_cliques,
    find_monochromatic_cycle,
    find_rainbow_turan,
    format_ecg,
    format_report,
    k6_variant,
    parse_report,
    saturation,
    thresholds,
    verify_saturation_solutions,
    verify_tightness,
    verify_triangle_threshold,
    VerificationReport,
    Witness,
)
from rainbow_cliques import verify
from rainbow_cliques.verify import _pair_bits, _regular_graphs, _subset_pairs


class TestSaturationSolutions:
    def test_k6_list(self):
        assert verify_saturation_solutions(10, 18, 20) == [
            (10, 0, 0), (9, 1, 0), (9, 0, 1), (8, 2, 0),
        ]

    def test_k9_list(self):
        assert verify_saturation_solutions(28, 54, 56) == [
            (28, 0, 0), (27, 1, 0), (27, 0, 1), (26, 2, 0),
        ]

    def test_trivial(self):
        assert verify_saturation_solutions(1, 2, 2) == [(1, 0, 0)]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            verify_saturation_solutions(10, 20, 18)


class TestTriangleThreshold:
    def test_n3(self):
        r = verify_triangle_threshold(3)
        assert r.ok and r.space_size == 15

    def test_n4(self):
        r = verify_triangle_threshold(4)
        assert r.ok and r.space_size == 877

    def test_n5(self):
        r = verify_triangle_threshold(5)
        assert r.ok and r.space_size == 678570  # Bell(11)

    def test_range(self):
        with pytest.raises(ValueError):
            verify_triangle_threshold(6)

    @pytest.mark.parametrize("n, space, ces", [(3, 15, 1), (4, 877, 87)])
    def test_enumerator_ignoring_cuts_reports_each_coloring_at_the_threshold(
        self, n, space, ces, monkeypatch
    ):
        real = verify.rainbow_pruned_partitions
        monkeypatch.setattr(
            verify, "rainbow_pruned_partitions", lambda m, lo, hi, cuts: real(m, lo, hi)
        )
        r = verify_triangle_threshold(n)
        assert r.space_size == space and len(r.counterexamples) == ces
        for g in r.counterexamples:
            assert g.e + g.c >= comb(n, 2) + n
            assert count_rainbow_cliques(g, 3) >= 1


def edge_mask(adj):
    """Adjacency bitmasks as the enumerator's edge mask: bit i is the i-th
    pair of combinations(range(n), 2)."""
    pairs = combinations(range(len(adj)), 2)
    return sum(1 << i for i, (u, v) in enumerate(pairs) if adj[u] >> v & 1)


def sparse_subset(edges, n, size):
    """The first `size`-subset in the library's own subset table that spans
    fewer than 2 edges of the mask, as vertices 0..n-1 like edge_mask's
    adjacency, or None."""
    bits = _pair_bits(n)
    for pairs in _subset_pairs(n, size):
        if (edges & sum(bits[u][v] for u, v in pairs)).bit_count() < 2:
            return tuple(sorted({v - 1 for pair in pairs for v in pair}))
    return None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestRegularGraphEnumeration:
    def test_k4_is_only_cubic_on_4(self):
        graphs = _regular_graphs(4, 3, ())[1]
        k4 = tuple(0b1111 & ~(1 << v) for v in range(4))
        assert graphs == [edge_mask(k4)]
        # sanity mode: every 4-subset of K4 spans 6 >= 2 edges
        assert sparse_subset(graphs[0], 4, 4) is None

    def test_two_regular_on_6(self):
        # 60 labeled C6 plus 10 labeled C3+C3
        assert len(_regular_graphs(6, 2, ())[1]) == 70

    def test_odd_degree_sum_empty(self):
        assert _regular_graphs(5, 3, ())[1] == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_all_subsets_oracle(self, n):
        for d in range(n + 1):
            graphs = _regular_graphs(n, d, ())[1]
            # sorted equality also rules out a graph yielded twice
            assert sorted(graphs) == labeled_regular_graphs_naive(n, d), (n, d)

    @pytest.mark.parametrize("d, counts", [
        (2, {3: 1, 4: 3, 5: 12, 6: 70, 7: 465, 8: 3507, 9: 30016}),
        (3, {4: 1, 6: 70, 8: 19355}),
        (4, {5: 1, 6: 15, 7: 465, 8: 19355}),
    ])
    def test_labeled_counts(self, d, counts):
        for n, count in counts.items():
            assert len(_regular_graphs(n, d, ())[1]) == count, n
            # the count is of every regular graph, whatever the pair lists drop
            assert _regular_graphs(n, d, _subset_pairs(n, d + 1))[0] == count, n

    @pytest.mark.parametrize("n, d, digest", [
        (8, 3, "6ddd6a664f75846b7c2d7f6566f73366d6c9bbf18fe1496dd19ce3f85629aa83"),
        (9, 2, "f1622dcb36e61394982bc56a6668c91de689be8487768ecf54090b31ad10ecd6"),
    ])
    def test_masks_and_their_order_are_frozen(self, n, d, digest):
        graphs = _regular_graphs(n, d, ())[1]
        assert sha256(",".join(map(str, graphs))) == digest

    @pytest.mark.parametrize("n, degrees", [
        (8, range(8)),
        (9, (0, 2, 6, 8)),  # d = 4 has 1,024,380 graphs: too slow for a unit test
    ])
    def test_complements_of_the_co_regular_graphs(self, n, degrees):
        # d runs over residual fields of 1 to 4 bits
        full = (1 << n * (n - 1) // 2) - 1
        for d in degrees:
            co = _regular_graphs(n, n - 1 - d, ())[1]
            assert sorted(_regular_graphs(n, d, ())[1]) == sorted(full ^ g for g in co), d


def pair_lists(n, rng):
    """Pair lists on 1..n for the differential test: the fixed edge cases,
    then seeded random lists that may repeat a pair."""
    pairs = list(combinations(range(1, n + 1), 2))
    path = tuple(zip(range(1, n), range(2, n + 1)))
    yield ()
    yield ((),)
    yield (path,)  # spans all n vertices
    yield (tuple(pairs), path[:2])
    if pairs:
        yield ((pairs[0], pairs[0]),)
        yield ((pairs[0], pairs[-1], pairs[0]), (pairs[-1],) * 3)
        for _ in range(6):
            yield tuple(
                tuple(rng.choices(pairs, k=rng.randint(1, 5)))
                for _ in range(rng.randint(1, 4))
            )


def memo_at_return(run):
    """The `memo` of the _regular_graphs call that run() makes, as it stands
    when that call returns, and run()'s result."""
    code = _regular_graphs.__code__
    got = {}

    def on_return(frame, event, arg):
        if event == "return":
            got["memo"] = frame.f_locals["memo"]
        return on_return

    def tracer(frame, event, arg):
        return on_return if frame.f_code is code else None

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(old)
    return got["memo"], result


class TestRegularGraphFilter:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_keeps_the_graphs_every_list_holds_two_edges_of(self, n):
        rng = random.Random(n)
        bits = _pair_bits(n)
        for d in range(n + 1):
            graphs = _regular_graphs(n, d, ())[1]
            for lists in pair_lists(n, rng):
                masks = [0] * len(lists)
                for i, pairs in enumerate(lists):
                    for u, v in pairs:
                        masks[i] |= bits[u][v]
                expected = [
                    g for g in graphs if all((g & m).bit_count() >= 2 for m in masks)
                ]
                assert _regular_graphs(n, d, lists) == (len(graphs), expected), (d, lists)

    @pytest.mark.parametrize("n, d, size, states, completions, digest", [
        pytest.param(
            9, 2, 5, 510, 9354, "f58d9de67578ad981158aab45688d76a218b5c63381d1a2da686c4a1d86544e8",
            id="k9",
        ),
        pytest.param(
            8, 3, 4, 735, 2118, "5deebc44e1cb03801e7bc18aa9553f81462306603ac5091161389997b4305655",
            id="k8",
        ),
        pytest.param(
            9, 2, 0, 510, 71346, "f1622dcb36e61394982bc56a6668c91de689be8487768ecf54090b31ad10ecd6",
            id="k9-no-lists",
        ),
        pytest.param(
            8, 3, 0, 735, 44838, "6ddd6a664f75846b7c2d7f6566f73366d6c9bbf18fe1496dd19ce3f85629aa83",
            id="k8-no-lists",
        ),
    ])
    def test_completions_kept_across_memo_states(self, n, d, size, states, completions, digest):
        # the top-level check alone keeps the same graphs, so the pruning
        # inside the memo is pinned by the completions it keeps; the seeded
        # empty state is counted among the states but its completion is
        # not.  The state count shows the key neither splits nor merges
        # states.  size 0 means no pair lists.
        lists = _subset_pairs(n, size) if size else ()
        memo, (_, graphs) = memo_at_return(lambda: _regular_graphs(n, d, lists))
        assert len(memo) == states
        assert sum(len(kept) for state, (_, kept) in memo.items() if state) == completions
        assert sha256(",".join(map(str, graphs))) == digest


class TestK9Eliminations:
    def cycle_adj(self, cycles):
        adj = [0] * 9
        for cyc in cycles:
            for i, v in enumerate(cyc):
                w = cyc[(i + 1) % len(cyc)]
                adj[v] |= 1 << w
                adj[w] |= 1 << v
        return tuple(adj)

    def count_edges(self, adj, sub):
        return sum(
            1
            for i in range(len(sub))
            for j in range(i + 1, len(sub))
            if adj[sub[i]] >> sub[j] & 1
        )

    def assert_filtered(self, adj):
        # the mask filter finds a 5-subset that the adjacency count agrees on
        sub = sparse_subset(edge_mask(adj), 9, 5)
        assert sub is not None and self.count_edges(adj, sub) < 2

    def test_c9_tuple(self):
        adj = self.cycle_adj([[0, 1, 2, 3, 4, 5, 6, 7, 8]])
        assert self.count_edges(adj, (0, 1, 3, 5, 7)) == 1  # v1 v2 v4 v6 v8
        self.assert_filtered(adj)

    def test_c6_c3_tuple(self):
        adj = self.cycle_adj([[0, 1, 2, 3, 4, 5], [6, 7, 8]])
        # three independent C6 vertices plus two triangle vertices
        assert self.count_edges(adj, (0, 2, 4, 6, 7)) == 1
        self.assert_filtered(adj)

    def test_c5_c4_tuple(self):
        adj = self.cycle_adj([[0, 1, 2, 3, 4], [5, 6, 7, 8]])
        assert self.count_edges(adj, (0, 2, 3, 5, 7)) == 1  # edge v3 v4 only
        self.assert_filtered(adj)

    def test_three_triangles_pass_filter(self):
        adj = self.cycle_adj([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        assert sparse_subset(edge_mask(adj), 9, 5) is None


class TestRegularReductionMutations:
    def test_filter_keeping_nothing_fails_k8(self, monkeypatch):
        # one subset with no pairs spans 0 edges of every graph
        monkeypatch.setattr(verify, "_subset_pairs", lambda n, s: ((),))
        r = verify.verify_k8_reduction()
        # every dropped K4 + K4 is reported, in partition order
        assert len(r.counterexamples) == 35
        assert sha256("".join(map(format_ecg, r.counterexamples))) == (
            "42f198423d52f3c9ff4160b361237a08d11892900b81287087c4af3f963ec9cc"
        )

    def test_filter_keeping_everything_fails_k9(self, monkeypatch):
        monkeypatch.setattr(verify, "_subset_pairs", lambda n, s: ())
        r = verify.verify_k9_reduction()
        # every kept graph that is not C3 + C3 + C3, in enumeration order
        assert len(r.counterexamples) == 30016 - 280
        assert sha256("".join(map(format_ecg, r.counterexamples))) == (
            "f94cede6f4ae24c1ffd710825f6871c1d74b1f2c3f42ab600119dde46b7000dc"
        )


class TestK6DichotomyMutation:
    def test_finders_finding_nothing_fail_k6(self, monkeypatch):
        monkeypatch.setattr(verify, "find_rainbow_turan", lambda g, r: None)
        monkeypatch.setattr(verify, "find_monochromatic_cycle", lambda g, length: None)
        r = verify.verify_k6_dichotomy()
        # all 70 survivors of the enumeration reach the classification
        assert format_report(r).splitlines()[0].startswith("LEMMA k6-dichotomy SPACE 12662650 CE 70 ")

    def test_wrong_saturation_tallies_fail_k6(self, monkeypatch):
        monkeypatch.setattr(verify, "saturation", lambda g: SimpleNamespace(tallies=(0, 0, 0)))
        r = verify.verify_k6_dichotomy()
        assert r.space_size == 12662650 and len(r.counterexamples) == 70


def skipped_one_short(monkeypatch):
    """Patch the verifiers' enumerator to under-count each skipped subtree
    total by one."""
    real = verify.rainbow_pruned_partitions

    def short(m, lo, hi, cuts):
        survivors, skipped = real(m, lo, hi, cuts)
        return survivors, skipped - 1

    monkeypatch.setattr(verify, "rainbow_pruned_partitions", short)


class TestAccountingChecks:
    """The accounting checks raise, so they also hold under python -O."""

    def test_skipped_one_short_fails_the_triangle_verifier(self, monkeypatch):
        skipped_one_short(monkeypatch)
        with pytest.raises(RuntimeError, match="^partition accounting mismatch$"):
            verify_triangle_threshold(3)

    def test_skipped_one_short_fails_k6(self, monkeypatch):
        skipped_one_short(monkeypatch)
        with pytest.raises(RuntimeError, match="^partition accounting mismatch$"):
            verify.verify_k6_dichotomy()

    def test_wrong_saturation_list_fails_k8(self, monkeypatch):
        monkeypatch.setattr(verify, "verify_saturation_solutions", lambda c, lo, hi: [])
        with pytest.raises(RuntimeError, match="^saturation tally elimination list mismatch at c=17$"):
            verify.verify_k8_reduction()

    def test_skipped_one_short_fails_under_python_O(self):
        code = (
            "from rainbow_cliques import verify\n"
            "real = verify.rainbow_pruned_partitions\n"
            "def short(m, lo, hi, cuts):\n"
            "    survivors, skipped = real(m, lo, hi, cuts)\n"
            "    return survivors, skipped - 1\n"
            "verify.rainbow_pruned_partitions = short\n"
            "verify.verify_triangle_threshold(3)\n"
        )
        src = os.path.dirname(os.path.dirname(verify.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.rstrip().endswith("RuntimeError: partition accounting mismatch")


class TestK6Survivors:
    def test_ten_rainbow_turan_pairs_and_sixty_monochromatic_c6(self):
        # the 70 colorings with no rainbow K4 split 10 + 60, none in both
        graphs, _ = verify._colorings_without_rainbow(6, verify._K6_EDGES, 4, 10, 10)
        turan = [find_rainbow_turan(g, 2) is not None for g in graphs]
        cycle = [find_monochromatic_cycle(g, 6) is not None for g in graphs]
        assert len(graphs) == 70
        assert sum(turan) == 10 and sum(cycle) == 60
        assert not any(t and c for t, c in zip(turan, cycle))

    def test_the_c6_search_runs_first(self, monkeypatch):
        # every survivor is searched for a monochromatic C6, and only the 10
        # without one for a rainbow T_{6,2}
        calls = {}
        for name in ("find_monochromatic_cycle", "find_rainbow_turan"):
            def counted(*args, real=getattr(verify, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            monkeypatch.setattr(verify, name, counted)
        r = verify.verify_k6_dichotomy()
        assert (r.space_size, len(r.counterexamples)) == (12662650, 0)
        assert calls == {"find_monochromatic_cycle": 70, "find_rainbow_turan": 10}


class TestK6VariantClassification:
    def test_turan_pair_branch(self):
        g = k6_variant("turan-pair")
        assert find_rainbow_turan(g, 2) is not None
        c0, c1, c2 = saturation(g).tallies
        assert (c2, c1, c0) == (9, 0, 1)

    def test_mono_c6_branch(self):
        g = k6_variant("mono-c6")
        assert find_monochromatic_cycle(g, 6) is not None
        c0, c1, c2 = saturation(g).tallies
        assert (c2, c1, c0) == (9, 0, 1)


class TestTightness:
    def test_8_4(self):
        r = verify_tightness(8, 4)
        assert r.ok and r.space_size == 13  # construction + 12 intra edges

    def test_12_4(self):
        assert verify_tightness(12, 4).ok

    def test_bad_k(self):
        with pytest.raises(ValueError):
            verify_tightness(8, 6)

    def test_finder_finding_nothing_reports_each_recoloring(self, monkeypatch):
        monkeypatch.setattr(verify, "find_rainbow_clique", lambda g, k: None)
        r = verify_tightness(8, 4)
        assert r.space_size == 13 and len(r.counterexamples) == 12
        for g in r.counterexamples:
            assert g.e + g.c == thresholds(8, 4)[0] + 1

    def test_finder_always_finding_reports_the_construction(self, monkeypatch):
        fake = Witness("rainbow-clique", (1, 2, 3, 4), (), (1, 1, 1, 1))
        monkeypatch.setattr(verify, "find_rainbow_clique", lambda g, k: fake)
        r = verify_tightness(8, 4)
        assert r.space_size == 13 and r.counterexamples == [extremal(8, 4)]


class TestFalsifyTwoCliques:
    def test_small_run_deterministic(self):
        a = falsify_two_cliques(6, 8, 50, seed=7)
        b = falsify_two_cliques(6, 8, 50, seed=7)
        assert a.ok and b.ok
        assert a.space_size == b.space_size == 50

    def test_excluded_region(self):
        with pytest.raises(ValueError):
            falsify_two_cliques(5, 9, 10, seed=1)

    def test_lowered_threshold_yields_checked_counterexamples(self, monkeypatch):
        # three below the theorem's threshold one rainbow K_6 is possible,
        # so a falsifier that reads the colorings correctly must find some
        from rainbow_cliques.turan import thresholds
        monkeypatch.setattr(verify, "thresholds", lambda n, k: tuple(t - 3 for t in thresholds(n, k)))
        report = falsify_two_cliques(6, 8, 2000, seed=1)
        target = thresholds(8, 6)[1] - 3
        for g in report.counterexamples:
            assert g.e == comb(8, 2)
            assert g.e + g.c >= target
            assert count_rainbow_cliques(g, 6) == 1
        # the seeded draws, so the sampler's stream is pinned too
        assert len(report.counterexamples) == 179
        text = "".join(map(format_ecg, report.counterexamples))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f03fe50fb260965e0c3d854d31ee14f10e2dae1914f24ff4490df5404fd4d255"
        )

    def test_builds_no_graph_without_a_hit(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return ColoredGraph(*args, **kwargs)

        monkeypatch.setattr(verify, "ColoredGraph", counting)
        assert falsify_two_cliques(6, 8, 200, seed=3).ok
        assert built == []


class TestReportFormat:
    def test_round_trip_with_counterexample(self):
        ce = ColoredGraph(3, {(1, 2): 1, (1, 3): 2})
        report = VerificationReport("demo", 42, [ce], 0.123)
        text = format_report(report)
        assert text.startswith("LEMMA demo SPACE 42 CE 1 TIME 123\n")
        back = parse_report(text)
        assert back.lemma_id == "demo"
        assert back.space_size == 42
        assert back.counterexamples == [ce]

    def test_counterexample_revalidates(self):
        # a graph below threshold without a rainbow triangle would be the
        # emitted shape; re-parsing must reproduce the violated predicate
        from rainbow_cliques import find_rainbow_clique, parse_ecg, format_ecg
        ce = ColoredGraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        back = parse_ecg(format_ecg(ce))
        assert find_rainbow_clique(back, 3) is None

    def test_time_round_trips(self):
        # 1.001 * 1000 is 1000.9999999999999, so truncating would write 1000
        for ms in range(100_000):
            text = f"LEMMA x SPACE 0 CE 0 TIME {ms}\n"
            assert format_report(parse_report(text)) == text

    def test_success_report(self):
        report = VerificationReport("x", 1, [], 0.0)
        assert parse_report(format_report(report)).ok

    def test_missing_counterexample_block_names_the_line(self):
        with pytest.raises(ValueError, match="^line 2: report ends before counterexample 1"):
            parse_report("LEMMA x SPACE 1 CE 1 TIME 0")

    def test_counterexample_block_error_names_the_report_line(self):
        # the block's header is report line 3; its edge count runs out on line 4
        with pytest.raises(ECGParseError, match="^line 4: declared 2 edges but found 1"):
            parse_report("LEMMA x SPACE 1 CE 1 TIME 0\n\n3 2\n1 2 1\n")

    def test_header_without_time_names_the_line(self):
        with pytest.raises(ValueError, match="^line 1: no integer TIME field"):
            parse_report("LEMMA x SPACE 1 CE 0")

    @pytest.mark.parametrize("name", ["SPACE", "CE", "TIME"])
    def test_negative_field_names_the_line(self, name):
        fields = {"SPACE": 5, "CE": 0, "TIME": 3, name: -1}
        text = "LEMMA x " + " ".join(f"{k} {v}" for k, v in fields.items()) + "\n"
        with pytest.raises(ValueError, match=f"^line 1: negative {name} field"):
            parse_report(text)

    @pytest.mark.parametrize("line, message", [
        ("LEMMA x SPACE +5 CE 0 TIME 1", "no integer SPACE field"),
        ("LEMMA x SPACE 5 CE 0 TIME 1_0", "no integer TIME field"),
        ("LEMMA x SPACE 5 CE \u0660 TIME 1", "no integer CE field"),
        ("LEMMA SPACE 1 CE 0 TIME 0", "no integer SPACE field"),
        ("LEMMA x SPACE 1 CE 0 TIME 0 CE 3", "repeated field"),
        ("LEMMA x CE 0 SPACE 1 TIME 0", "no integer SPACE field"),
        ("LEMMA x SPACE 1 CE 0 TIME 0 junk", "field 'junk' has no value"),
        ("LEMMA x SPACE 1 CE 0 TIME 0 NOTE 4 junk", "field 'junk' has no value"),
    ])
    def test_header_is_read_by_position_with_ascii_digits(self, line, message):
        with pytest.raises(ValueError, match=f"^line 1: {message}"):
            parse_report(line + "\n")

    def test_counterexample_header_needs_ascii_digits(self):
        # '²' passes str.isdigit() but int() rejects it
        with pytest.raises(ValueError, match="^line 2: expected an ECG header"):
            parse_report("LEMMA x SPACE 1 CE 1 TIME 0\n3 \u00b2\n")

    def test_text_after_the_last_counterexample_names_the_line(self):
        with pytest.raises(ValueError, match="^line 2: text after the 0 declared"):
            parse_report("LEMMA x SPACE 5 CE 0 TIME 3\n2 1\n1 2 1\n")
        ce = format_report(VerificationReport("x", 5, [ColoredGraph(2, {(1, 2): 1})]))
        with pytest.raises(ValueError, match="^line 5: text after the 1 declared"):
            parse_report(ce + "\n2 1\n1 2 1\n")
        assert parse_report(ce + "\n \n").counterexamples == [ColoredGraph(2, {(1, 2): 1})]
