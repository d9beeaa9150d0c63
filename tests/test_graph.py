import random
import re

import pytest

from rainbow_cliques import (
    ColoredGraph,
    ECGParseError,
    delete_vertex,
    format_ecg,
    induced_subgraph,
    is_complete,
    lexicographic,
    extremal,
    parse_ecg,
    saturation,
)
from rainbow_cliques import graph
from conftest import random_colored_graph


def rainbow_k4() -> ColoredGraph:
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return ColoredGraph(4, {e: i + 1 for i, e in enumerate(edges)})


class TestParse:
    def test_smallest_rainbow_triangle(self):
        g = parse_ecg("3 3\n1 2 1\n1 3 2\n2 3 3")
        assert (g.e, g.c) == (3, 3)
        assert g.color_of(2, 3) == 3

    def test_single_edge(self):
        g = parse_ecg("2 1\n1 2 5")
        assert (g.e, g.c) == (1, 1)

    def test_duplicate_edge_names_line(self):
        with pytest.raises(ECGParseError, match="line 3"):
            parse_ecg("3 2\n1 2 1\n1 2 2")

    def test_self_loop(self):
        with pytest.raises(ECGParseError, match="self-loop"):
            parse_ecg("3 1\n2 2 1")

    def test_out_of_range(self):
        with pytest.raises(ECGParseError, match="out of range"):
            parse_ecg("3 1\n1 4 1")

    def test_nonpositive_color(self):
        with pytest.raises(ECGParseError, match="color"):
            parse_ecg("3 1\n1 2 0")

    def test_endpoints_out_of_order(self):
        with pytest.raises(ECGParseError, match="order"):
            parse_ecg("3 1\n2 1 1")

    def test_malformed_line(self):
        with pytest.raises(ECGParseError, match="line 2"):
            parse_ecg("3 1\n1 2")

    def test_edge_count_mismatch(self):
        with pytest.raises(ECGParseError):
            parse_ecg("3 2\n1 2 1")

    def test_comments_blanks_crlf(self):
        g = parse_ecg("# a comment\r\n\r\n3 2\r\n1 2 1\r\n\r\n# another\r\n2 3 4\r\n")
        assert (g.e, g.c) == (2, 2)

    def test_empty_document(self):
        with pytest.raises(ECGParseError):
            parse_ecg("# nothing here\n")

    @pytest.mark.parametrize("text, line_no, message", [
        ("# c\n3\n", 2, "expected header 'n m', got '3'"),
        ("3 x\n", 1, "non-integer header field in '3 x'"),
        ("\n0 1\n", 2, "invalid header values n=0 m=1"),
        ("3 1\n 1 2 \t\r\n", 2, "expected edge line 'u v c', got '1 2'"),
        ("3 1\r\n1 2 c\r\n", 2, "non-integer edge field in '1 2 c'"),
        ("3 1\n2 2 1\n", 2, "self-loop at vertex 2"),
        ("3 1\n3 1 0\n", 2, "edge endpoints out of order: 3 > 1"),
        ("3 1\n0 4 -1\n", 2, "vertex out of range in edge (0,4), n=3"),
        ("3 1\n1 2 -5\n", 2, "nonpositive color -5"),
        ("3 2\n1 2 1\n# c\n1 2 2\n", 4, "duplicate edge (1,2)"),
        ("3 1\n1 2 1\n\n2 3 1\n", 4, "more than the declared 1 edges"),
        ("# only\n\n", 1, "empty document"),
        ("3 2\n1 2 1\n\n# end\n", 5, "declared 2 edges but found 1"),
        # a field is an optional `-` and ASCII digits; int() alone would read
        # 1_0, +1, ٢ and +2 as 10, 1, 2 and 2
        ("2 1\n1 2 1_0\n", 2, "non-integer edge field in '1 2 1_0'"),
        ("2 1\n+1 2 1\n", 2, "non-integer edge field in '+1 2 1'"),
        ("2 1\n1 ٢ 1\n", 2, "non-integer edge field in '1 ٢ 1'"),
        ("+2 1\n1 2 1\n", 1, "non-integer header field in '+2 1'"),
        ("# +_é\n3 1\n1 2 -1\n", 3, "nonpositive color -1"),
        # 2-field edge lines where the document's field count is right: only
        # the per-line check catches them
        ("5 2\n1 2\n3 4 5 1\n", 2, "expected edge line 'u v c', got '1 2'"),
        ("5 2\n1 2\n3 4\n5 1\n", 2, "expected edge line 'u v c', got '1 2'"),
        ("3 1\n1 07 1\n", 2, "vertex out of range in edge (1,7), n=3"),
        # colors at and past the edge of the bulk reader's numeral table
        ("3 2\n1 2 4095\n1 2 4096\n", 3, "duplicate edge (1,2)"),
        ("3 1\n2 1 4097\n", 2, "edge endpoints out of order: 2 > 1"),
        ("3 1\n1 2 4097\n2 3 4096\n", 3, "more than the declared 1 edges"),
        # one edge too many, but a repeat: the duplicate is the fault
        ("3 1\n1 2 1\n1 2 2\n", 3, "duplicate edge (1,2)"),
    ])
    def test_error_message_and_line(self, text, line_no, message):
        with pytest.raises(ECGParseError) as info:
            parse_ecg(text)
        assert str(info.value) == f"line {line_no}: {message}"
        assert info.value.line_no == line_no

    def test_comment_with_underscore_plus_or_non_ascii_parses(self):
        g = parse_ecg("# n_m +1 é٢\n3 2\n#  \n1 2 1\n2 3 07\n")
        assert g.colors == {(1, 2): 1, (2, 3): 7}

    def test_numeral_table_is_not_sized_from_the_header(self):
        parse_ecg("2 1\n1 2 1\n")
        size = len(graph._numerals())
        g = parse_ecg("99999999999 1\n1 99999999999 4097\n")
        assert g.n == 99999999999 and g.colors == {(1, 99999999999): 4097}
        assert len(graph._numerals()) == size

    @pytest.mark.parametrize("text", [
        "3 2\n1 2 1\n2 3 4\n",
        "3 2\n1 2 1\n2 3 4",
        "# a comment\r\n\r\n3 2\r\n1 2 1\r\n\r\n  # another é٢\r\n2 3 4\r\n",
        "\t3\x0b2\x0c\n\x1c1 2 07\x1f\n\n2\t3 99999999999 \n",
        "3 0\n",
        # colors at and past the edge of the numeral table
        "4 3\n1 2 4095\n1 3 4096\n2 4 0004097\n",
    ])
    def test_well_formed_documents_skip_the_line_walk(self, text, monkeypatch):
        want = graph._parse_lines(text)

        def walk(text):
            raise AssertionError("line walk on a well-formed document")

        monkeypatch.setattr(graph, "_parse_lines", walk)
        assert parse_ecg(text) == want


# what a random edit may insert: digits, ASCII whitespace that str.split()
# splits on, newline, comment and sign characters, spellings int() reads but
# the format does not (`_`, `٢`, an ideographic space), and numbers at and
# past the numeral table's edge and int()'s digit limit
_EDIT_ALPHABET = list("0123456789 \t\r\x0b\x0c\x1c\n#-+_٢　") + [
    "4095", "4096", "4097", "99999999999", "0" * 5000,
]


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except ECGParseError as exc:
        return "error", str(exc), exc.line_no
    return "graph", g.n, dict(g.colors)


def test_bulk_read_agrees_with_line_walk():
    """parse_ecg against the line walk on round-tripped documents with 1-3
    random character edits: equal graphs, or the same error and line."""
    rng = random.Random(14)
    for _ in range(3000):
        text = format_ecg(random_colored_graph(rng, rng.randint(2, 6)))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + rng.choice(_EDIT_ALPHABET) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice(_EDIT_ALPHABET) + text[i + 1:]
        assert _parse_outcome(parse_ecg, text) == _parse_outcome(graph._parse_lines, text), text


class TestFormat:
    def test_writer_sorted_lf(self):
        g = ColoredGraph(3, {(2, 3): 7, (1, 2): 1})
        assert format_ecg(g) == "3 2\n1 2 1\n2 3 7\n"

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_colored_graph(rng)
            assert parse_ecg(format_ecg(g)) == g

    @pytest.mark.parametrize("colors, named", [
        pytest.param({(1, 2): 1, (1.5, 2): 1}, "(1.5, 2) with color 1", id="float-end"),
        pytest.param({(1, 3): 1, (True, 2): 1}, "(True, 2) with color 1", id="bool-end"),
        pytest.param({(1, 2): 1, (2, 3): 1.5}, "(2, 3) with color 1.5", id="float-color"),
        pytest.param({(1, 2): True, (2, 3): 2}, "(1, 2) with color True", id="bool-color"),
    ])
    def test_a_field_that_is_not_an_int_does_not_round_trip(self, colors, named):
        # ColoredGraph accepts such a graph, but its text (`1.5 2 1`,
        # `1 2 True`) would not parse back: parse_ecg rejects a non-integer
        # edge field
        message = rf"^edge {re.escape(named)}: ECG text holds only int fields$"
        with pytest.raises(ValueError, match=message):
            format_ecg(ColoredGraph(3, colors))


class TestCounts:
    def test_rainbow_k4(self):
        g = rainbow_k4()
        assert (g.e, g.c) == (6, 6)

    def test_extremal_anchors(self):
        for g, ec in ((extremal(8, 4), (28, 17)), (extremal(9, 5), (36, 28))):
            assert (g.e, g.c) == ec


class TestColorOf:
    def test_either_order_and_none_off_the_edges(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_colored_graph(rng)
            for u in range(1, g.n + 1):
                assert g.color_of(u, u) is None
                for v in range(u + 1, g.n + 1):
                    assert g.color_of(v, u) == g.color_of(u, v) == g.colors.get((u, v))


class TestInducedSubgraph:
    def test_identity(self):
        g = rainbow_k4()
        assert induced_subgraph(g, range(1, 5)) == g

    def test_rainbow_k4_to_k3(self):
        sub = induced_subgraph(rainbow_k4(), [1, 2, 4])
        assert sub.n == 3 and sub.e == 3
        assert len(set(sub.colors.values())) == 3

    def test_lexicographic_delete_last(self):
        sub = delete_vertex(lexicographic(5), 5)
        assert sub == lexicographic(4)
        for (u, v), c in sub.colors.items():
            assert c == min(u, v)

    def test_extremal_part_is_monochromatic(self):
        # first part of extremal(8,4) is vertices 1..4
        sub = induced_subgraph(extremal(8, 4), [1, 2, 3, 4])
        assert (sub.e, sub.c) == (6, 1)

    def test_counts_never_increase(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_colored_graph(rng)
            keep = [v for v in range(1, g.n + 1) if rng.random() < 0.7] or [1]
            sub = induced_subgraph(g, keep)
            assert sub.e <= g.e and sub.c <= g.c

    def test_unsorted_keep_with_repeats_keeps_host_colors(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_colored_graph(rng)
            keep = rng.choices(range(1, g.n + 1), k=rng.randint(1, 2 * g.n))
            kept = sorted(set(keep))
            sub = induced_subgraph(g, keep)
            assert sub.n == len(kept)
            for i in range(1, sub.n + 1):
                for j in range(1, sub.n + 1):
                    assert sub.color_of(i, j) == g.color_of(kept[i - 1], kept[j - 1])

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            induced_subgraph(rainbow_k4(), [])

    @pytest.mark.parametrize("v", [0, 5, -1, 2.5, True, 2.0])
    def test_delete_vertex_out_of_range(self, v):
        # 2.5 lies between 1 and 4 but is no vertex: it once returned the
        # input graph unchanged; True and 2.0 equal a vertex but are no int
        # one, and were once deleted as 1 and 2
        with pytest.raises(ValueError, match=rf"^vertex out of range: {v} not in 1\.\.4$"):
            delete_vertex(lexicographic(4), v)

    @pytest.mark.parametrize("keep, v", [
        ([1, 5], 5), ([0, 2], 0), ([1, 2.5, 3], 2.5), ([True, 2, 3], True), ([1, 2.0, 3], 2.0),
        (["a", 2], "a"),
    ])
    def test_out_of_range_keep(self, keep, v):
        # [1, 2.5, 3] once gave K3 with 2.5 as an isolated vertex 2, and
        # [True, 2, 3] a triangle on 1, 2, 3; ["a", 2] failed in the sort
        with pytest.raises(ValueError, match=rf"^vertex out of range in keep set: {v}$"):
            induced_subgraph(lexicographic(4), keep)


class TestSaturation:
    def test_rainbow_k4(self):
        prof = saturation(rainbow_k4())
        assert set(prof.ds.values()) == {3}
        assert prof.tallies == (0, 0, 6)

    def test_monochromatic_k3(self):
        g = ColoredGraph(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        prof = saturation(g)
        assert set(prof.ds.values()) == {0}
        assert prof.tallies == (1, 0, 0)

    def test_extremal_8_4(self):
        prof = saturation(extremal(8, 4))
        assert set(prof.ds.values()) == {4}
        assert prof.tallies == (1, 0, 16)

    def test_identities_random_suite(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_colored_graph(rng)
            prof = saturation(g)
            c0, c1, c2 = prof.tallies
            assert c0 + c1 + c2 == g.c
            assert 2 * c2 + c1 == prof.sum_ds
            assert prof.sum_ds <= 2 * g.c
            for v in range(1, g.n + 1):
                assert prof.ds[v] <= g.degree(v)

    def test_deletion_identity(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_colored_graph(rng)
            prof = saturation(g)
            v = rng.randint(1, g.n)
            if g.n == 1:
                continue
            assert delete_vertex(g, v).c == g.c - prof.ds[v]


class TestConstruction:
    @pytest.mark.parametrize("n, colors, message", [
        (0, {}, "vertex count must be >= 1, got 0"),
        (-1, {}, "vertex count must be >= 1, got -1"),
        (3, {(2, 1): 1}, r"bad edge \(2,1\) for n=3"),
        (3, {(1, 4): 1}, r"bad edge \(1,4\) for n=3"),
        (3, {(1, 2): 0}, r"nonpositive color 0 on edge \(1,2\)"),
        # the first bad item in insertion order decides the error
        (3, {(1, 4): 1, (1, 2, 3): 1}, r"bad edge \(1,4\) for n=3"),
        (3, {(1, 2): 0, (1, 4): 1}, r"nonpositive color 0 on edge \(1,2\)"),
    ])
    def test_rejects_bad_input(self, n, colors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ColoredGraph(n, colors)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(TypeError, match=rf"^vertex count must be an int, got {n}$"):
            ColoredGraph(n, {})

    @pytest.mark.parametrize("colors, error, message", [
        ({(1, 2, 3): 1}, ValueError,
         r"bad edge item \(\(1, 2, 3\), 1\): too many values to unpack"),
        ({(1, 2): 1, (2,): 4}, ValueError,
         r"bad edge item \(\(2,\), 4\): not enough values to unpack"),
        ({(1, 2, 3): 1, (1, 4): 1}, ValueError,
         r"bad edge item \(\(1, 2, 3\), 1\): too many values to unpack"),
        ({1: 1}, TypeError, r"bad edge item \(1, 1\): cannot unpack non-iterable int"),
        ({(1, "2"): 1}, TypeError, r"bad edge item \(\(1, '2'\), 1\): '<' not supported"),
        ({(1, 2): "x"}, TypeError, r"bad edge item \(\(1, 2\), 'x'\): '<=' not supported"),
    ])
    def test_names_an_item_that_does_not_unpack_or_compare(self, colors, error, message):
        with pytest.raises(error, match=f"^{message}"):
            ColoredGraph(3, colors)


class TestImmutability:
    def test_colors_reject_item_assignment(self):
        g = rainbow_k4()
        with pytest.raises(TypeError):
            g.colors[(1, 3)] = 7

    def test_caller_dict_is_copied(self):
        colors = {(1, 2): 1, (2, 3): 2}
        g = ColoredGraph(3, colors)
        colors[(1, 3)] = 3
        colors[(1, 2)] = 5
        assert g.e == 2 and g.color_of(1, 2) == 1 and g.color_of(1, 3) is None


class TestEquality:
    def test_compares_n_and_colors(self):
        g = ColoredGraph(3, {(1, 2): 1, (2, 3): 2})
        assert g == ColoredGraph(3, {(2, 3): 2, (1, 2): 1})
        assert g != ColoredGraph(4, {(1, 2): 1, (2, 3): 2})
        assert g != ColoredGraph(3, {(1, 2): 1, (2, 3): 3})
        assert g != (3, {(1, 2): 1, (2, 3): 2})

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'ColoredGraph'"):
            hash(rainbow_k4())


class TestIsComplete:
    def test_k4(self):
        assert is_complete(rainbow_k4())

    def test_single_edge_on_three(self):
        assert not is_complete(ColoredGraph(3, {(1, 2): 1}))
