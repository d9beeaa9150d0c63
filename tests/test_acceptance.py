"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure) and enforcing
its stated time budget."""

import random
import time

from rainbow_cliques import (
    count_rainbow_cliques,
    counterexample_n7,
    delete_vertex,
    extremal,
    falsify_two_cliques,
    find_rainbow_clique,
    is_complete,
    saturation,
    stirling2,
    supersaturation_experiment,
    thresholds,
    turan_number,
    turan_partition,
    verify_k6_dichotomy,
    verify_k8_reduction,
    verify_k9_reduction,
    verify_saturation_solutions,
    verify_tightness,
    verify_triangle_threshold,
)
from conftest import random_colored_graph
from oracles import count_rainbow_cliques_naive, max_cross_edges_brute_force


def _gate(cid: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {cid} failed"
    assert elapsed < budget, f"criterion {cid} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_turan_table():
    t0 = time.perf_counter()
    ok = turan_number(8, 2) == 16 and turan_number(9, 3) == 27
    for n in range(1, 13):
        for k in range(1, n + 1):
            ok = ok and turan_number(n, k) == max_cross_edges_brute_force(n, k)
    _gate("1 turan-table", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_threshold_constants():
    t0 = time.perf_counter()
    ok = thresholds(8, 4) == (45, 46) and thresholds(9, 5) == (64, 65)
    _gate("2 thresholds", ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_triangle_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        report = verify_triangle_threshold(n)
        ok = ok and report.ok
    _gate("3 triangle-threshold", ok, time.perf_counter() - t0, 30.0)


def test_criterion_04_k6_dichotomy():
    t0 = time.perf_counter()
    report = verify_k6_dichotomy()
    ok = report.ok and report.space_size == stirling2(15, 10)
    _gate("4 k6-dichotomy", ok, time.perf_counter() - t0, 600.0)


def test_criterion_05_k8_reduction():
    t0 = time.perf_counter()
    report = verify_k8_reduction()
    ok = report.ok and report.space_size == 19355  # labeled cubic graphs on 8
    _gate("5 k8-reduction", ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_k9_reduction():
    t0 = time.perf_counter()
    report = verify_k9_reduction()
    ok = report.ok and report.space_size == 30016  # labeled 2-regular graphs on 9
    _gate("6 k9-reduction", ok, time.perf_counter() - t0, 10.0)


def test_criterion_07_saturation_solution_lists():
    t0 = time.perf_counter()
    ok = (
        verify_saturation_solutions(10, 18, 20)
        == [(10, 0, 0), (9, 1, 0), (9, 0, 1), (8, 2, 0)]
        and verify_saturation_solutions(17, 32, 34)
        == [(17, 0, 0), (16, 1, 0), (16, 0, 1), (15, 2, 0)]
        and verify_saturation_solutions(28, 54, 56)
        == [(28, 0, 0), (27, 1, 0), (27, 0, 1), (26, 2, 0)]
    )
    _gate("7 saturation-solutions", ok, time.perf_counter() - t0, 1.0)


def _extremal_is_rainbow_free_structurally(n: int, k: int) -> bool:
    g = extremal(n, k)
    sizes = turan_partition(n, k - 2)
    if min(sizes) < 2:
        return False
    shared = max(g.colors.values())
    parts = []
    start = 1
    for s in sizes:
        parts.append(set(range(start, start + s)))
        start += s
    cross = []
    for (u, v), c in g.colors.items():
        same = any(u in p and v in p for p in parts)
        if same and c != shared:
            return False
        if not same:
            cross.append(c)
    # distinct cross colors + >= 2 same-colored intra edges in any k-subset
    return len(cross) == len(set(cross)) and shared not in cross


def test_criterion_08_extremal_constructions():
    t0 = time.perf_counter()
    ok = True
    for k, n_lo in ((4, 8), (5, 9)):
        for n in range(n_lo, 21):
            g = extremal(n, k)
            ok = ok and g.e + g.c == thresholds(n, k)[0]
            if n <= 12:
                ok = ok and count_rainbow_cliques(g, k) == 0
            else:
                ok = ok and _extremal_is_rainbow_free_structurally(n, k)
    _gate("8 extremal-constructions", ok, time.perf_counter() - t0, 60.0)


def test_criterion_09_tightness():
    t0 = time.perf_counter()
    ok = verify_tightness(8, 4).ok and verify_tightness(9, 5).ok
    _gate("9 tightness", ok, time.perf_counter() - t0, 60.0)


def test_criterion_10_counterexample_n7():
    t0 = time.perf_counter()
    g = counterexample_n7()
    ok = (
        (g.e, g.c) == (20, 14)
        and g.e + g.c == 34
        and not is_complete(g)
        and find_rainbow_clique(g, 4) is None
    )
    _gate("10 counterexample-n7", ok, time.perf_counter() - t0, 1.0)


def test_criterion_11_supersaturation_slopes():
    t0 = time.perf_counter()
    ns = [30, 40, 50, 60, 70, 80]
    rows3, slope3 = supersaturation_experiment(3, ns, 0.1, seed=1)
    rows4, slope4 = supersaturation_experiment(4, ns, 0.1, seed=1)
    ok = 2.7 <= slope3 <= 3.3 and 3.6 <= slope4 <= 4.4
    # the exact counts, so a wrong count that keeps the slope in range fails
    ok = ok and rows3 == [
        (30, 522, 433), (40, 936, 1023), (50, 1470, 2062),
        (60, 2124, 3543), (70, 2898, 5692), (80, 3792, 8603),
    ]
    ok = ok and rows4 == [
        (30, 740, 11209), (40, 1326, 38089), (50, 2083, 95019),
        (60, 3009, 202997), (70, 4106, 381707), (80, 5372, 657786),
    ]
    _gate("11 supersaturation", ok, time.perf_counter() - t0, 300.0)


def test_criterion_12_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        g = random_colored_graph(rng)
        prof = saturation(g)
        c0, c1, c2 = prof.tallies
        ok = ok and 2 * c2 + c1 == prof.sum_ds <= 2 * g.c
        v = rng.randint(1, g.n)
        ok = ok and delete_vertex(g, v).c == g.c - prof.ds[v]
        k = rng.choice((3, 4))
        cnt = count_rainbow_cliques(g, k)
        ok = ok and cnt == count_rainbow_cliques_naive(g, k)
        ok = ok and (find_rainbow_clique(g, k) is not None) == (cnt > 0)
    _gate("12 identity-suite", ok, time.perf_counter() - t0, 60.0)


def test_criterion_13_two_cliques_falsification():
    t0 = time.perf_counter()
    ok = (
        falsify_two_cliques(6, 8, 10**4, seed=1).ok
        and falsify_two_cliques(5, 10, 10**4, seed=1).ok
    )
    _gate("13 two-cliques", ok, time.perf_counter() - t0, 120.0)
