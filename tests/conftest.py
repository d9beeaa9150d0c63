import random
import sys
from itertools import combinations
from types import CodeType

from rainbow_cliques import ColoredGraph


def random_colored_graph(rng: random.Random, n: int | None = None) -> ColoredGraph:
    """Seeded random edge-colored graph on up to 12 vertices: independent
    edges with probability ~0.6, colors drawn from a palette of random size."""
    if n is None:
        n = rng.randint(3, 12)
    palette = rng.randint(1, max(2, n * (n - 1) // 2))
    colors = {}
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < 0.6:
            colors[(u, v)] = rng.randint(1, palette)
    if not colors:
        colors[(1, 2)] = 1
    return ColoredGraph(n, colors)


def random_complete_colored_graph(rng: random.Random, n: int, palette: int) -> ColoredGraph:
    colors = {
        (u, v): rng.randint(1, palette)
        for u, v in combinations(range(1, n + 1), 2)
    }
    return ColoredGraph(n, colors)


def count_inner_calls(outer, run, name="rec", where=None, at_return=False):
    """The number of calls of the closure `name` defined in the function
    `outer` (of `outer` itself with name=None) while run() runs, and run()'s
    result.  With `where`, only the calls whose arguments, as the frame's
    locals, satisfy it count; with at_return too, `where` sees the frame's
    locals as the call returns instead, so a name the call never bound is
    missing from them."""
    code = outer.__code__ if name is None else next(
        c for c in outer.__code__.co_consts
        if isinstance(c, CodeType) and c.co_name == name
    )
    calls = 0

    def returns(frame, event, arg):
        nonlocal calls
        if event == "return" and where(frame.f_locals):
            calls += 1
        return returns

    def tracer(frame, event, arg):
        nonlocal calls
        if frame.f_code is not code:
            return None
        if at_return:
            return returns
        if where is None or where(frame.f_locals):
            calls += 1

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(old)
    return calls, result
