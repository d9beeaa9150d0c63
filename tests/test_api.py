import inspect
import os
import subprocess
import sys

import rainbow_cliques
import oracles


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
