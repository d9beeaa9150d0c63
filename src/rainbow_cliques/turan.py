"""Exact Turán numbers, balanced partitions, and the e(G)+c(G) thresholds
for rainbow cliques.

All arithmetic is exact integer arithmetic: thresholds are compared for
equality downstream, so no floating point enters here.
"""

from __future__ import annotations

from math import comb

from .graph import _check_int


def turan_number(n: int, k: int) -> int:
    """Edge count t_{n,k} of the complete balanced k-partite graph on n
    vertices: (k-1)(n^2-i^2)/(2k) + C(i,2) with i = n mod k."""
    _check_int("part count", k, 1)
    _check_int("vertex count", n, 0)
    i = n % k
    num = (k - 1) * (n * n - i * i)
    assert num % (2 * k) == 0
    return num // (2 * k) + comb(i, 2)


def turan_partition(n: int, k: int) -> tuple[int, ...]:
    """Balanced part sizes: the first n mod k parts get ceil(n/k), the rest
    floor(n/k); nonincreasing order."""
    _check_int("vertex count", n, 1)
    _check_int("part count", k, 1, n)
    q, i = divmod(n, k)
    return tuple([q + 1] * i + [q] * (k - i))


def thresholds(n: int, k: int) -> tuple[int, int]:
    """(extremal, existence) values of e(G)+c(G) for rainbow K_k on n vertices.

    For k >= 4: existence = C(n,2) + t_{n,k-2} + 2 and the extremal value is
    one less, the e+c of extremal(n, k) for n >= k-1.  At n = k-2 the
    extremal value is 2*C(n,2) + 1, one above the all-rainbow maximum.  For
    k = 3 the existence threshold is C(n,2) + n.
    """
    _check_int("k", k, 3)
    _check_int("n", n, 0)
    if k == 3:
        existence = comb(n, 2) + n
    else:
        existence = comb(n, 2) + turan_number(n, k - 2) + 2
    return existence - 1, existence
