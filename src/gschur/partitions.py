"""Partition combinatorics used throughout the determinantal engine.

Partitions are plain tuples of weakly decreasing positive integers, stored
without trailing zeros; the empty tuple is the empty partition.
"""

from __future__ import annotations

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
    """Extend with zeros to exactly n entries."""
    if len(p) > n:
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
    if len(mu) > n or len(lam) > n:
        raise ValueError("both partitions must fit in n parts")
    mu_p = pad(mu, n)
    lam_p = pad(lam, n)
    total_mu = 0
    total_lam = 0
    for a, b in zip(mu_p, lam_p):
        total_mu += a
        total_lam += b
        if total_mu > total_lam:
            return False
    return True


def partitions_of(
    total: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """All partitions of `total` in reverse-lexicographic order.

    `max_part` bounds every part and `max_length` the number of parts; the
    recursion stops at `max_length` parts, so a short bound is cheap.
    """
    length = total if max_length is None else max_length
    if total < 0 or length < 0:
        return
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        if first * length < total:  # the rest cannot fit in length - 1 parts
            return
        for rest in partitions_of(total - first, first, length - 1):
            yield (first,) + rest


def compositions(length: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `length` nonnegative integers summing to `total`.

    Lexicographically decreasing, so (total, 0, ..., 0) comes first; nothing
    for a negative total, and () alone for length 0 and total 0.
    """
    if total < 0 or (length == 0 and total):
        return
    if length <= 1:
        yield (total,) if length else ()
        return
    for first in range(total, -1, -1):
        for rest in compositions(length - 1, total - first):
            yield (first,) + rest


def partitions_up_to(max_weight: int, max_length: int | None = None) -> Iterator[Partition]:
    """Partitions of every weight 0..max_weight, ordered by weight then revlex."""
    for w in range(max_weight + 1):
        yield from partitions_of(w, max_length=max_length)


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
