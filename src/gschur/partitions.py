"""Partition combinatorics used throughout the determinantal engine.

Partitions are plain tuples of weakly decreasing positive integers, stored
without trailing zeros; the empty tuple is the empty partition.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator

from .exactalg import as_index

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Normalise an iterable of parts into a canonical partition tuple.

    Each part goes through the index gate with lower bound 0, so a bool, a
    float (integral or not) or a `Fraction` raises TypeError and a negative
    part ValueError.  Trailing zeros are stripped, and parts that are not
    weakly decreasing raise ValueError.
    """
    p = tuple(parts)
    for v in p:
        as_index(v, "partition part", 0)
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts are not weakly decreasing: {p}")
    return p


def pad(p: Partition, n: int) -> tuple[int, ...]:
    """Extend with zeros to exactly n >= 0 entries."""
    if len(p) > as_index(n, "n", 0):
        raise ValueError(f"partition {p} has more than {n} parts")
    return p + (0,) * (n - len(p))


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    p = check_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment: every part of `inner` fits inside `outer`."""
    outer = check_partition(outer)
    inner = check_partition(inner)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def diagonal_rank(p: Partition) -> int:
    """Number of diagonal cells of the diagram (largest k with p_k >= k)."""
    p = check_partition(p)
    r = 0
    while r < len(p) and p[r] >= r + 1:
        r += 1
    return r


def frobenius_coordinates(p: Partition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Arm and leg lengths (p_k - k, p'_k - k) along the diagonal, 1-based k."""
    p = check_partition(p)
    q = conjugate(p)
    r = diagonal_rank(p)
    arms = tuple(p[k] - (k + 1) for k in range(r))
    legs = tuple(q[k] - (k + 1) for k in range(r))
    return arms, legs


def dominated_partial_sums(mu: Partition, lam: Partition, n: int) -> bool:
    """Partial-sum domination after zero-padding both partitions to n parts.

    This is the preorder in which monomial expansions of the engine are
    triangular; it does not require equal weights.
    """
    mu = check_partition(mu)
    lam = check_partition(lam)
    if len(mu) > as_index(n, "n", 0) or len(lam) > n:
        raise ValueError("both partitions must fit in n parts")
    return all(x <= y for x, y in zip(accumulate(pad(mu, n)), accumulate(pad(lam, n))))


def partitions_of(
    total: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """All partitions of `total` in reverse-lexicographic order.

    `max_part` bounds every part and `max_length` the number of parts; the
    recursion stops at `max_length` parts, so a short bound is cheap.  The
    counts go through the index gate here, before the first partition.
    """
    as_index(total, "total")
    cap = total if max_part is None else as_index(max_part, "max_part")
    length = total if max_length is None else as_index(max_length, "max_length")
    return _partitions_of(total, cap, length)


def _partitions_of(total: int, cap: int, length: int) -> Iterator[Partition]:
    if total < 0 or length < 0:
        return
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        if first * length < total:  # the rest cannot fit in length - 1 parts
            return
        for rest in _partitions_of(total - first, first, length - 1):
            yield (first,) + rest


def compositions(length: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `length` nonnegative integers summing to `total`.

    Lexicographically decreasing, so (total, 0, ..., 0) comes first; nothing
    for a negative total, and () alone for length 0 and total 0.  The counts
    go through the index gate here, before the first tuple, and each tuple
    is stepped to the next in place, with no recursion.
    """
    return _compositions(as_index(length, "length", 0), as_index(total, "total"))


def _compositions(length: int, total: int) -> Iterator[tuple[int, ...]]:
    if total < 0 or (length == 0 and total):
        return
    c = [total] + [0] * (length - 1) if length else []
    last, k = length - 1, 0
    while True:
        yield tuple(c)
        # One unit moves from the rightmost positive entry before the last
        # to its right neighbour, which also takes the last entry.
        k = min(k, last - 1)
        while k >= 0 and not c[k]:
            k -= 1
        if k < 0:
            return
        c[k] -= 1
        tail, c[last] = c[last], 0
        k += 1
        c[k] = tail + 1


def partitions_up_to(max_weight: int, max_length: int | None = None) -> Iterator[Partition]:
    """Partitions of every weight 0..max_weight, ordered by weight then revlex.
    The counts go through the index gate here, before the first partition."""
    as_index(max_weight, "max_weight")
    length = max_weight if max_length is None else as_index(max_length, "max_length")
    return (p for w in range(max_weight + 1) for p in _partitions_of(w, w, length))


def parse_partition(text: str) -> Partition:
    """Parse the command-line syntax: comma-separated parts, '' for empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad partition syntax: {text!r}") from exc
    return check_partition(parts)


def format_partition(p: Partition) -> str:
    return ",".join(str(v) for v in p)
