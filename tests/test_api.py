import inspect

import rainbow_cliques
import oracles


def test_every_exported_name_resolves():
    assert len(set(rainbow_cliques.__all__)) == len(rainbow_cliques.__all__)
    for name in rainbow_cliques.__all__:
        assert getattr(rainbow_cliques, name, None) is not None, name


def test_no_test_oracle_is_exported():
    names = [
        n for n, f in vars(oracles).items()
        if inspect.isfunction(f) and f.__module__ == "oracles"
    ]
    assert {"bell", "blocks_of", "count_rainbow_cliques_naive", "max_cross_edges_brute_force"} <= set(names)
    for name in names:
        assert name not in rainbow_cliques.__all__, name
        assert not hasattr(rainbow_cliques, name), name
