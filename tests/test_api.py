import inspect
import os
import re
import subprocess
import sys

import pytest

import rainbow_cliques
import oracles
from rainbow_cliques import (
    ColoredGraph,
    count_rainbow_cliques,
    extremal,
    falsify_two_cliques,
    find_monochromatic_cycle,
    find_monochromatic_path,
    find_rainbow_clique,
    find_rainbow_complete_bipartite,
    find_rainbow_turan,
    lexicographic,
    perturb_fresh_colors,
    stirling2,
    supersaturation_experiment,
    thresholds,
    turan_number,
    turan_partition,
    verify_saturation_solutions,
    verify_tightness,
    verify_triangle_threshold,
)


def test_every_exported_name_resolves():
    assert len(set(rainbow_cliques.__all__)) == len(rainbow_cliques.__all__)
    for name in rainbow_cliques.__all__:
        assert getattr(rainbow_cliques, name, None) is not None, name


def test_public_names():
    assert sorted(rainbow_cliques.__all__) == [
        "ColoredGraph", "ECGParseError", "SaturationProfile", "VerificationReport", "Witness",
        "count_rainbow_cliques", "counterexample_n7", "delete_vertex", "extremal",
        "falsify_two_cliques", "find_monochromatic_cycle", "find_monochromatic_path",
        "find_properly_colored_c4", "find_rainbow_clique", "find_rainbow_complete_bipartite",
        "find_rainbow_turan", "format_ecg", "format_report", "induced_subgraph", "is_complete",
        "k6_variant", "lexicographic", "parse_ecg", "parse_report", "perturb_fresh_colors",
        "saturation", "stirling2", "supersaturation_experiment", "thresholds", "turan_number",
        "turan_partition", "validate_witness", "verify_k6_dichotomy", "verify_k8_reduction",
        "verify_k9_reduction", "verify_saturation_solutions", "verify_tightness",
        "verify_triangle_threshold",
    ]


def test_no_test_oracle_is_exported():
    names = [
        n for n, f in vars(oracles).items()
        if inspect.isfunction(f) and f.__module__ == "oracles"
    ]
    assert {"bell", "blocks_of", "count_rainbow_cliques_naive", "max_cross_edges_brute_force"} <= set(names)
    for name in names:
        assert name not in rainbow_cliques.__all__, name
        assert not hasattr(rainbow_cliques, name), name


def test_runs_without_numpy():
    # a None entry in sys.modules makes `import numpy` raise ImportError
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import rainbow_cliques\n"
        "from rainbow_cliques.cli import run\n"
        "sys.exit(run(['supersat', '--k', '3', '--ns', '10,12', '--eps', '0.1']))\n"
    )
    src = os.path.dirname(os.path.dirname(rainbow_cliques.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,ec,count\n10,")


_G = extremal(6, 4)

# name: (call with the value in place, argument name, values that are no
# int, out-of-range ints).  Each no-int list holds True and a float equal to
# a valid value: unchecked, such a value is read as another size, or fails
# later with a message that names no argument; 3.5 and 2.5 return None.
_INT_ARGUMENTS = {
    "ColoredGraph-n": (lambda v: ColoredGraph(v, {}), "vertex count", [True, 3.0], [0]),
    "extremal-n": (lambda v: extremal(v, 4), "n", [True, 6.0], [1]),
    "extremal-k": (lambda v: extremal(6, v), "k", [True, 4.0], [2]),
    "lexicographic-n": (lexicographic, "n", [True, 2.0], [1]),
    "turan_number-n": (lambda v: turan_number(v, 2), "vertex count", [True, 5.0], [-1]),
    "turan_number-k": (lambda v: turan_number(5, v), "part count", [True, 2.0, 2.5], [0]),
    "turan_partition-n": (lambda v: turan_partition(v, 1), "vertex count", [True, 5.0], [0]),
    "turan_partition-k": (lambda v: turan_partition(5, v), "part count", [True, 2.0], [0, 6]),
    "thresholds-n": (lambda v: thresholds(v, 4), "n", [True, 5.0], [-1]),
    "thresholds-k": (lambda v: thresholds(5, v), "k", [True, 4.0], [2]),
    "stirling2-m": (lambda v: stirling2(v, 1), "m", [True, 3.0], [-1]),
    "stirling2-r": (lambda v: stirling2(3, v), "r", [True, 2.0], [-1]),
    "find_rainbow_clique-k": (
        lambda v: find_rainbow_clique(_G, v), "clique size", [True, 3.0], [0]),
    "count_rainbow_cliques-k": (
        lambda v: count_rainbow_cliques(_G, v), "clique size", [True, 3.0], [0]),
    "find_rainbow_complete_bipartite-a": (
        lambda v: find_rainbow_complete_bipartite(_G, v, 2), "part size", [True, 1.0], [0]),
    "find_rainbow_complete_bipartite-b": (
        lambda v: find_rainbow_complete_bipartite(_G, 2, v), "part size", [True, 1.0], [0]),
    "find_rainbow_turan-r": (
        lambda v: find_rainbow_turan(_G, v), "part count", [True, 2.0], [0, 7]),
    "find_monochromatic_cycle-length": (
        lambda v: find_monochromatic_cycle(_G, v), "cycle length", [True, 3.0, 3.5], [2]),
    "find_monochromatic_path-nverts": (
        lambda v: find_monochromatic_path(_G, v), "nverts", [True, 2.0, 2.5], [1]),
    "verify_triangle_threshold-n": (verify_triangle_threshold, "n", [True, 4.0], [2, 6]),
    "verify_tightness-n": (lambda v: verify_tightness(v, 4), "n", [True, 8.0], [3]),
    "verify_tightness-k": (lambda v: verify_tightness(8, v), "k", [True, 4.0], [3, 6]),
    "falsify_two_cliques-k": (lambda v: falsify_two_cliques(v, 8, 1, 1), "k", [True, 6.0], [0]),
    "falsify_two_cliques-n": (lambda v: falsify_two_cliques(6, v, 1, 1), "n", [True, 8.0], [0]),
    "falsify_two_cliques-trials": (
        lambda v: falsify_two_cliques(6, 8, v, 1), "trials", [True, 1.0], [0]),
    "supersaturation_experiment-k": (
        lambda v: supersaturation_experiment(v, [10, 12], 0.1, 1), "k", [True, 3.0], [2, 7]),
    "supersaturation_experiment-n": (
        lambda v: supersaturation_experiment(3, [10, v], 0.1, 1), "n", [True, 12.0], [1]),
    "verify_saturation_solutions-c_total": (
        lambda v: verify_saturation_solutions(v, 0, 2), "c_total", [True, 2.0], [-1]),
    "perturb_fresh_colors-target_ec": (
        lambda v: perturb_fresh_colors(_G, v, 1), "target_ec", [True, 30.0], [-1]),
}


@pytest.mark.parametrize(
    "call, name, no_ints, bad_ints", _INT_ARGUMENTS.values(), ids=_INT_ARGUMENTS
)
def test_an_int_argument_must_be_an_int_in_range(call, name, no_ints, bad_ints):
    for value in no_ints:
        message = f"^{name} must be an int, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=message):
            call(value)
    for value in bad_ints:
        with pytest.raises(ValueError, match=f"^{name} must be (>= |in )"):
            call(value)
