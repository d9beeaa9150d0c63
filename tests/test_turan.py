import pytest

from rainbow_cliques import (
    thresholds,
    turan_number,
    turan_partition,
)
from oracles import max_cross_edges_brute_force


class TestTuranNumber:
    def test_anchors(self):
        assert turan_number(8, 2) == 16
        assert turan_number(9, 3) == 27

    def test_one_part(self):
        for n in range(20):
            assert turan_number(n, 1) == 0

    def test_brute_force_oracle(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert turan_number(n, k) == max_cross_edges_brute_force(n, k)

    def test_seven_two(self):
        assert turan_number(7, 2) == max_cross_edges_brute_force(7, 2) == 12

    def test_sandwich_bounds(self):
        for n in range(1, 201):
            for k in range(1, n + 1):
                t = turan_number(n, k)
                assert (k - 1) * n * n / (2 * k) - n / 4 <= t
                assert t <= (k - 1) * n * n // (2 * k)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            turan_number(5, 0)


class TestTuranIncrement:
    """t_{n+1,k} - t_{n,k} = n - floor(n/k): the vertex added to a smallest
    part meets every vertex outside it."""

    def test_identity(self):
        for k in range(1, 11):
            for n in range(0, 201):
                assert turan_number(n + 1, k) - turan_number(n, k) == n - n // k

    def test_anchors(self):
        assert turan_number(9, 2) - turan_number(8, 2) == 20 - 16 == 4
        assert turan_number(10, 3) - turan_number(9, 3) == 6

    def test_complete_to_next(self):
        for k in range(2, 12):
            assert turan_number(k + 1, k) - turan_number(k, k) == k - 1

    def test_divisibility_identity(self):
        # when (k-2) | n: n * (t_{n,k-2} - t_{n-1,k-2}) = 2 * t_{n,k-2}
        for k in (4, 5):
            r = k - 2
            for n in range(r, 121, r):
                lhs = n * (turan_number(n, r) - turan_number(n - 1, r))
                assert lhs == 2 * turan_number(n, r)


class TestTuranPartition:
    def test_examples(self):
        assert turan_partition(8, 2) == (4, 4)
        assert turan_partition(9, 3) == (3, 3, 3)
        assert turan_partition(7, 3) == (3, 2, 2)

    def test_invariants(self):
        for n in range(1, 30):
            for k in range(1, n + 1):
                sizes = turan_partition(n, k)
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert list(sizes) == sorted(sizes, reverse=True)

    def test_errors(self):
        with pytest.raises(ValueError):
            turan_partition(3, 4)
        with pytest.raises(ValueError):
            turan_partition(3, 0)


class TestThresholds:
    def test_paper_constants(self):
        assert thresholds(8, 4) == (45, 46)
        assert thresholds(9, 5) == (64, 65)

    def test_triangle_case(self):
        assert thresholds(5, 3) == (14, 15)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            thresholds(8, 2)
