"""Property-based checks of the structural identities, driven by hypothesis."""

from dataclasses import replace
from itertools import combinations

from hypothesis import given, settings, strategies as st

from rainbow_cliques import (
    ColoredGraph,
    count_rainbow_cliques,
    delete_vertex,
    find_monochromatic_cycle,
    find_monochromatic_path,
    find_properly_colored_c4,
    find_rainbow_clique,
    find_rainbow_complete_bipartite,
    find_rainbow_turan,
    format_ecg,
    induced_subgraph,
    parse_ecg,
    saturation,
    validate_witness,
)
from oracles import count_rainbow_cliques_naive


@st.composite
def colored_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    picks = draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
    )
    palette = draw(st.integers(min_value=1, max_value=8))
    cols = draw(
        st.lists(
            st.integers(min_value=1, max_value=palette),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    colors = {e: c for e, keep, c in zip(pairs, picks, cols) if keep}
    if not colors:
        colors[pairs[0]] = 1
    return ColoredGraph(n, colors)


@given(colored_graphs())
@settings(max_examples=200, deadline=None)
def test_saturation_identities(g):
    prof = saturation(g)
    c0, c1, c2 = prof.tallies
    assert c0 + c1 + c2 == g.c
    assert 2 * c2 + c1 == prof.sum_ds
    assert prof.sum_ds <= 2 * g.c


@given(colored_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_color_deletion_identity(g, data):
    v = data.draw(st.integers(min_value=1, max_value=g.n))
    prof = saturation(g)
    assert delete_vertex(g, v).c == g.c - prof.ds[v]


@given(colored_graphs())
@settings(max_examples=100, deadline=None)
def test_induced_identity(g):
    assert induced_subgraph(g, range(1, g.n + 1)) == g


@given(colored_graphs())
@settings(max_examples=100, deadline=None)
def test_ecg_round_trip(g):
    assert parse_ecg(format_ecg(g)) == g


@given(colored_graphs(), st.integers(min_value=3, max_value=5))
@settings(max_examples=200, deadline=None)
def test_count_matches_naive_oracle(g, k):
    assert count_rainbow_cliques(g, k) == count_rainbow_cliques_naive(g, k)


def _witnesses(g):
    """What the finders return on g, for patterns with at least one edge."""
    found = [find_rainbow_clique(g, k) for k in (2, 3, 4)]
    found += [find_rainbow_complete_bipartite(g, a, b) for a, b in ((1, 2), (2, 2))]
    found += [find_rainbow_turan(g, r) for r in (2, 3) if r <= g.n]
    found += [find_monochromatic_cycle(g, n) for n in (3, 4)]
    found += [find_monochromatic_path(g, n) for n in (2, 3)]
    found.append(find_properly_colored_c4(g))
    return [w for w in found if w is not None]


@given(colored_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_corrupted_witnesses_rejected(g, data):
    for w in _witnesses(g):
        assert validate_witness(g, w)
        verts, edges = list(w.vertices), list(w.edges)
        i = data.draw(st.integers(0, len(edges) - 1))
        u, v, c = edges[i]
        bad = [replace(w, edges=tuple(edges[:i] + [(u, v, c + 1)] + edges[i + 1:]))]
        i = data.draw(st.integers(0, len(edges) - 1))
        bad.append(replace(w, edges=tuple(edges[:i] + edges[i + 1:])))
        pattern = {(min(x, y), max(x, y)) for x, y, _ in edges}
        add = [(x, y) for x, y in sorted(g.colors) if (x, y) not in pattern]
        if add:
            x, y = data.draw(st.sampled_from(add))
            bad.append(replace(w, edges=w.edges + ((x, y, g.color_of(x, y)),)))
        j = data.draw(st.integers(0, len(verts) - 1))
        unused = [x for x in range(1, g.n + 1) if x not in verts]
        if unused:
            x = data.draw(st.sampled_from(unused))
            bad.append(replace(w, vertices=tuple(verts[:j] + [x] + verts[j + 1:])))
        k = data.draw(st.sampled_from([k for k in range(len(verts)) if k != j]))
        bad.append(replace(w, vertices=tuple(verts[:j] + [verts[k]] + verts[j + 1:])))
        for b in bad:
            assert not validate_witness(g, b), (w, b)
