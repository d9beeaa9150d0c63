"""Tests of the benchmark's own logic: ``python3 -m pytest -q perfbench``."""

import random
import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from speed import REFERENCE_S, Probe  # noqa: E402
from tracing import Tracer, instrumented, self_times  # noqa: E402
from workloads import Op, Workload, tail  # noqa: E402


def test_self_time_subtracts_direct_children_once():
    # root [0,10] with a child [1,4] that has its own child [2,3], then
    # back-to-back children [4,6] and [6,7]
    start = [0.0, 1.0, 2.0, 4.0, 6.0]
    end = [10.0, 4.0, 3.0, 6.0, 7.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children():
    start, end, parent = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(5.0)


@pytest.mark.parametrize("n, pct", [(19, None), (20, 50), (100, 90), (828, 98), (999, 98), (1000, 99), (10_000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    if pct is None:
        with pytest.raises(ValueError):
            tail(samples)
        return
    got_pct, value = tail(samples)
    assert got_pct == pct
    assert sum(x > value for x in samples) >= 10


class _Forced(Workload):
    name = "forced"
    parts = (("ok",), ("wrong", "raises"))

    def ops(self, lib, rng):
        def boom():
            raise RuntimeError("operation failed")

        return [
            Op("ok", lambda: 1, lambda r: r == 1),
            Op("wrong", lambda: 2, lambda r: r == 1),
            Op("raises", boom, lambda r: True),
            Op("bad-check", lambda: None, lambda r: r.space_size == 0),
        ]


def test_wrong_output_counts_as_failed_and_run_completes():
    with Probe() as probe:
        metrics, _, attempted, failed, passes = run.measure(_Forced(), None, random.Random(0), 0.0, probe)
    assert (attempted, failed, passes) == (4, 3, 1)
    assert metrics["wall_s"] > 0


def test_instrumented_traces_callers_view_and_restores():
    lib = run.fresh_import()
    original = lib.verify.find_rainbow_clique
    tr = Tracer()
    with instrumented(tr):
        span = tr.begin_op("lemma.tightness", {})
        assert lib.verify.verify_tightness(8, 4).ok
        tr.finish(span)
    assert lib.verify.find_rainbow_clique is original
    names = [tr.names[i] for i in tr.name_id]
    top = names.index("verify.verify_tightness")
    assert tr.parent[top] == 0
    clique_spans = [i for i, n in enumerate(names) if n == "search.find_rainbow_clique"]
    assert clique_spans and all(tr.parent[i] == top for i in clique_spans)
    assert all(tr.op[i] == 0 for i in range(len(names)))


def test_speed_factor_takes_the_probes_either_side_of_a_long_op():
    probe = Probe()
    probe.times = array("d", [0.0, 10.0, 10.05, 20.0])
    probe.costs = array("d", [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, 8 * REFERENCE_S])
    assert probe.factor(0.5, 9.5) == pytest.approx(1 / 1.5)
    # a short op takes the probes within the window, not the far ones
    assert probe.factor(10.01, 10.04) == pytest.approx(1 / 3)
