"""Edge-colored graph core: representation, ECG text format, saturation bookkeeping.

Vertices are labeled 1..n.  Edges are unordered pairs with a positive integer
color id; color ids need not be contiguous.  All values are immutable after
construction and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType
from typing import Iterable, Mapping


class ECGParseError(ValueError):
    """Raised on malformed ECG input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SaturationProfile:
    """Per-vertex saturated degrees and the (c_0, c_1, c_2) color tallies.

    A color is saturated at v when v is incident to one of its edges and the
    color disappears from the graph once v is deleted.  c_t counts colors
    saturated at exactly t vertices; no color can be saturated at 3 or more.
    """

    ds: Mapping[int, int]
    tallies: tuple[int, int, int]  # (c_0, c_1, c_2)

    @property
    def sum_ds(self) -> int:
        return sum(self.ds.values())


@dataclass(frozen=True)
class Witness:
    """A vertex subset plus its edge-color assignment certifying a pattern.

    kind is one of: rainbow-clique, rainbow-bipartite, rainbow-turan,
    mono-cycle, mono-path, proper-c4.  The three rainbow kinds are complete
    multipartite: `vertices` lists the parts one after another and `parts`
    holds their sizes in that order ((1,)*k for a clique).  The walk kinds
    (cycle, path, proper C4) leave `parts` empty.
    """

    kind: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, color)
    parts: tuple[int, ...] = ()


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable edge-colored simple graph on vertices 1..n."""

    n: int
    colors: Mapping[tuple[int, int], int] = field(repr=False)
    __hash__ = None  # the colors mapping has no hash, so neither has the graph

    def __post_init__(self):
        # a read-only view of a private copy, so the cached properties below
        # cannot go stale and validation cannot be skipped
        object.__setattr__(self, "colors", MappingProxyType(dict(self.colors)))
        _check_int("vertex count", self.n, 1)
        n = self.n
        try:
            # unpacked at once, so the items iterator can reuse its tuple
            for key, c in self.colors.items():
                u, v = key
                if not (1 <= u < v <= n) or c <= 0:
                    break
            else:
                return  # every edge is good
        except (TypeError, ValueError) as exc:
            # a key that is not a pair, or an end or color not comparable with an int
            raise type(exc)(f"bad edge item {(key, c)!r}: {exc}") from None
        if not (1 <= u < v <= n):
            raise ValueError(f"bad edge ({u},{v}) for n={n}")
        raise ValueError(f"nonpositive color {c} on edge ({u},{v})")

    # -- basic accessors ---------------------------------------------------

    @property
    def e(self) -> int:
        return len(self.colors)

    @cached_property
    def c(self) -> int:
        return len(set(self.colors.values()))

    def color_of(self, u: int, v: int) -> int | None:
        return self.colors.get((u, v) if u < v else (v, u))

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency bitmasks indexed by vertex (index 0 unused); bit v set
        means adjacency to vertex v."""
        masks = [0] * (self.n + 1)
        for u, v in self.colors:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def color_matrix(self) -> tuple[tuple[int, ...], ...]:
        """(n+1)x(n+1) color lookup, 0 where no edge.  Fast path for search."""
        m = [[0] * (self.n + 1) for _ in range(self.n + 1)]
        for (u, v), c in self.colors.items():
            m[u][v] = c
            m[v][u] = c
        return tuple(tuple(row) for row in m)

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")


# -- operations -----------------------------------------------------------


def is_complete(g: ColoredGraph) -> bool:
    return g.e == g.n * (g.n - 1) // 2


def _is_vertex(g: ColoredGraph, v) -> bool:
    """Whether v is a vertex of g: an int in 1..n.  A float such as 2.0 or
    a bool (an int, but one ECG text cannot carry) is none.  `_check_int`
    is the raising form of the same rule."""
    return type(v) is int and 1 <= v <= g.n


def _check_int(name: str, value, least: int, most: int | None = None) -> None:
    """Raise unless `value` is an int in least..most (no upper end when most
    is None).  A bool is an int and 4.0 equals one, but neither is accepted:
    each would answer for another size.  TypeError for the type, ValueError
    for the range, each naming the argument."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if most is None:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    elif not least <= value <= most:
        raise ValueError(f"{name} must be in {least}..{most}, got {value}")


def induced_subgraph(g: ColoredGraph, keep: Iterable[int]) -> ColoredGraph:
    """Subgraph on `keep`, vertices relabeled 1..|keep| preserving relative
    order; colors preserved verbatim."""
    keep = list(keep)  # it may be an iterator
    if not keep:
        raise ValueError("keep set must be nonempty")
    # checked before sorting, which a member such as "a" would break
    for v in keep:
        if not _is_vertex(g, v):
            raise ValueError(f"vertex out of range in keep set: {v}")
    ks = sorted(set(keep))
    relabel = {v: i + 1 for i, v in enumerate(ks)}
    colors = {}
    for (u, v), c in g.colors.items():
        if u in relabel and v in relabel:
            colors[relabel[u], relabel[v]] = c  # relabel keeps u < v
    return ColoredGraph(len(ks), colors)


def delete_vertex(g: ColoredGraph, v: int) -> ColoredGraph:
    """G - v with order-preserving relabeling."""
    if not _is_vertex(g, v):
        raise ValueError(f"vertex out of range: {v} not in 1..{g.n}")
    return induced_subgraph(g, [u for u in range(1, g.n + 1) if u != v])


def saturation(g: ColoredGraph) -> SaturationProfile:
    """Saturated degrees d^s(v) and tallies (c_0, c_1, c_2).

    Computed in one pass: per color, intersect the endpoint pairs of its
    edges.  A single-edge color is saturated at both endpoints; a color whose
    edges all share one vertex is saturated there; otherwise at no vertex.
    """
    common: dict[int, set[int]] = {}
    for (u, v), c in g.colors.items():
        if c in common:
            common[c] &= {u, v}
        else:
            common[c] = {u, v}
    ds = {v: 0 for v in range(1, g.n + 1)}
    tallies = [0, 0, 0]
    for c, verts in common.items():
        assert len(verts) <= 2, f"color {c} saturated at 3+ vertices"
        tallies[len(verts)] += 1
        for v in verts:
            ds[v] += 1
    return SaturationProfile(ds=ds, tallies=(tallies[0], tallies[1], tallies[2]))


# -- ECG text format ------------------------------------------------------
#
# line 1: `n m`; then exactly m lines `u v c` with 1 <= u < v <= n and c >= 1.
# A field is an optional `-` and ASCII digits.  Lines whose first field starts
# with `#` and blank lines are ignored.  LF or CRLF accepted; the writer emits
# LF with edges sorted lexicographically by (u, v).
#
# parse_ecg reads in two stages.  A document that fullmatches _WELL_FORMED
# (ASCII whitespace, digit-only fields, three fields on every edge line) is
# read in bulk: comment lines are dropped, the rest is split once, each field
# is looked up in a table of decimal spellings, and ColoredGraph does the
# range and positivity checks.  Anything else, or any doubt on the way (a
# wrong field count, a duplicate edge, an invalid graph), goes to
# _parse_lines, which walks the lines and names the one at fault.

_FIELD = re.compile(r"-?[0-9]+")

# the characters str.split() splits on inside a line, minus non-ASCII ones
_WS = r"[ \t\r\x0b\x0c\x1c-\x1f]"
_SKIP = rf"{_WS}*+(?:#[^\n]*+)?"  # a blank or comment line
_WELL_FORMED = re.compile(
    rf"(?:{_SKIP}\n)*+"
    rf"{_WS}*+[0-9]++{_WS}++[0-9]++{_WS}*+"
    rf"(?:\n(?:{_WS}*+[0-9]++{_WS}++[0-9]++{_WS}++[0-9]++{_WS}*+|{_SKIP}))*+"
)
_COMMENT = re.compile(rf"(?m)^{_WS}*+#[^\n]*+")


@cache
def _numerals() -> dict[str, int]:
    """The decimal spellings of 0..4095, for the bulk read to look fields up
    in; a field outside it sends the whole document through int().  The size
    is fixed: taken from a header, it could exhaust memory."""
    return {str(i): i for i in range(4096)}


def _field(text: str) -> int:
    if not _FIELD.fullmatch(text):
        raise ValueError(text)
    return int(text)


def parse_ecg(text: str) -> ColoredGraph:
    if _WELL_FORMED.fullmatch(text):
        fields = (_COMMENT.sub("", text) if "#" in text else text).split()
        try:
            values = list(map(_numerals().__getitem__, fields))
        except KeyError:
            try:
                values = list(map(int, fields))
            except ValueError:  # more digits than int() reads
                return _parse_lines(text)
        n, m = values[:2]
        if len(values) == 2 + 3 * m:
            colors = dict(zip(zip(values[2::3], values[3::3]), values[4::3]))
            if len(colors) == m:
                try:
                    return ColoredGraph(n, colors)
                except ValueError:
                    pass
    return _parse_lines(text)


def _parse_lines(text: str) -> ColoredGraph:
    """parse_ecg one line at a time, raising ECGParseError at the first line
    at fault."""
    n = m = None
    colors: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        # a line takes one split, one field map and one range test; which
        # message applies is worked out only once a test fails
        if n is None:
            try:
                n, m = map(_field, parts)
            except ValueError:
                line = raw.strip()
                if len(parts) != 2:
                    raise ECGParseError(line_no, f"expected header 'n m', got {line!r}") from None
                raise ECGParseError(line_no, f"non-integer header field in {line!r}") from None
            if n <= 0 or m < 0:
                raise ECGParseError(line_no, f"invalid header values n={n} m={m}")
            continue
        try:
            u, v, c = map(_field, parts)
        except ValueError:
            line = raw.strip()
            if len(parts) != 3:
                raise ECGParseError(line_no, f"expected edge line 'u v c', got {line!r}") from None
            raise ECGParseError(line_no, f"non-integer edge field in {line!r}") from None
        if not (0 < u < v <= n and c > 0):
            if u == v:
                raise ECGParseError(line_no, f"self-loop at vertex {u}")
            if u > v:
                raise ECGParseError(line_no, f"edge endpoints out of order: {u} > {v}")
            if u < 1 or v > n:
                raise ECGParseError(line_no, f"vertex out of range in edge ({u},{v}), n={n}")
            raise ECGParseError(line_no, f"nonpositive color {c}")
        if (u, v) in colors:
            raise ECGParseError(line_no, f"duplicate edge ({u},{v})")
        if len(colors) == m:
            raise ECGParseError(line_no, f"more than the declared {m} edges")
        colors[(u, v)] = c
    if n is None:
        raise ECGParseError(1, "empty document")
    if len(colors) != m:
        raise ECGParseError(line_no, f"declared {m} edges but found {len(colors)}")
    return ColoredGraph(n, colors)


# the characters of an ECG text whose fields are all ints
_INT_FIELDS = re.compile(r"[0-9 \n]*+")


def format_ecg(g: ColoredGraph) -> str:
    """ECG text of g.  A float or bool end or color (which ColoredGraph
    accepts) would be written as text that parse_ecg rejects, so it raises
    ValueError naming the first such edge."""
    items = sorted(g.colors.items())
    lines = [f"{g.n} {g.e}"]
    for (u, v), c in items:
        lines.append(f"{u} {v} {c}")
    text = "\n".join(lines) + "\n"
    if not _INT_FIELDS.fullmatch(text):
        # one check over the whole text; the edge is looked for only now
        key, c = next(
            item for item, line in zip(items, lines[1:]) if not _INT_FIELDS.fullmatch(line)
        )
        raise ValueError(f"edge {key!r} with color {c!r}: ECG text holds only int fields")
    return text
