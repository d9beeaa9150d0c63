"""The recursive helpers are closures that name themselves, a reference
cycle that would keep every table they read alive until the cyclic
collector runs.  Each call must break that cycle before it returns, so with
the collector off nothing is left for it to find."""

import gc

import pytest

from rainbow_cliques import (
    count_rainbow_cliques,
    extremal,
    find_monochromatic_cycle,
    find_monochromatic_path,
    find_rainbow_clique,
    find_rainbow_turan,
    lexicographic,
)
from rainbow_cliques.partitions import _balanced_partitions, rainbow_pruned_partitions
from rainbow_cliques.verify import _regular_graphs, verify_k9_reduction


CALLS = {
    # the one class of 19 vertices at each vertex takes the packed squares
    "count k=3": lambda: count_rainbow_cliques(extremal(20, 3), 3),
    "count k=4": lambda: count_rainbow_cliques(extremal(20, 4), 4),
    "count k=5": lambda: count_rainbow_cliques(lexicographic(9), 5),
    "find clique, hit": lambda: find_rainbow_clique(extremal(8, 4), 3),
    "find clique, none": lambda: find_rainbow_clique(extremal(8, 5), 5),
    "mono cycle, hit": lambda: find_monochromatic_cycle(extremal(8, 4), 4),
    "mono cycle, none": lambda: find_monochromatic_cycle(lexicographic(6), 4),
    "mono path, hit": lambda: find_monochromatic_path(extremal(8, 4), 3),
    "pruned partitions": lambda: rainbow_pruned_partitions(6, 2, 4, [(0, 1, 2), (2, 3, 4)]),
    "balanced partitions": lambda: list(_balanced_partitions(6, (2, 2, 2))),
    "rainbow turan, stops early": lambda: find_rainbow_turan(extremal(6, 4), 2),
    "regular graphs": lambda: _regular_graphs(8, 3, ()),
    "k9 reduction": verify_k9_reduction,
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_call_leaves_nothing_for_the_cyclic_collector(call):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
