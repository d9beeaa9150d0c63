"""Exact Turán numbers, balanced partitions, and the e(G)+c(G) thresholds
for rainbow cliques.

All arithmetic is exact integer arithmetic: thresholds are compared for
equality downstream, so no floating point enters here.
"""

from __future__ import annotations

from math import comb


def turan_number(n: int, k: int) -> int:
    """Edge count t_{n,k} of the complete balanced k-partite graph on n
    vertices: (k-1)(n^2-i^2)/(2k) + C(i,2) with i = n mod k."""
    if k <= 0:
        raise ValueError(f"part count must be positive, got k={k}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got n={n}")
    i = n % k
    num = (k - 1) * (n * n - i * i)
    assert num % (2 * k) == 0
    return num // (2 * k) + comb(i, 2)


def turan_partition(n: int, k: int) -> tuple[int, ...]:
    """Balanced part sizes: the first n mod k parts get ceil(n/k), the rest
    floor(n/k); nonincreasing order."""
    if k <= 0:
        raise ValueError(f"part count must be positive, got k={k}")
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} nonempty parts")
    q, i = divmod(n, k)
    return tuple([q + 1] * i + [q] * (k - i))


def thresholds(n: int, k: int) -> tuple[int, int]:
    """(extremal, existence) values of e(G)+c(G) for rainbow K_k on n vertices.

    For k >= 4: existence = C(n,2) + t_{n,k-2} + 2 and the extremal value is
    one less, the e+c of extremal(n, k) for n >= k-1.  At n = k-2 the
    extremal value is 2*C(n,2) + 1, one above the all-rainbow maximum.  For
    k = 3 the existence threshold is C(n,2) + n.
    """
    if k < 3:
        raise ValueError(f"rainbow clique thresholds need k >= 3, got k={k}")
    if k == 3:
        existence = comb(n, 2) + n
    else:
        existence = comb(n, 2) + turan_number(n, k - 2) + 2
    return existence - 1, existence
