"""Ready-made coefficient sequences and classical-group specific routines.

The presets cover the classical specialisations of the engine: the ordinary
Schur case (a = b = 0), the three families whose recurrence families are
Laurent characters in disguise (odd/even orthogonal and symplectic), the
factorial case (b = 0, arbitrary a), and a two-parameter Jacobi-type family
whose closed-form coefficients can have genuine poles at small indices.

Also here: the compact character determinant whose rows combine two one-row
polynomials (valid exactly for the orthogonal/symplectic presets), and a
check that the exceptional boundary values a(0) and b(1) of those presets
never reach the shifted families used by the Jacobi-Trudi route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm
from typing import Sequence

from .coeffseq import CoeffSeq, PoleError
from .engine import GschurContext, first_column_det, shift_coefficients
from .exactalg import MultiPoly, as_container, as_index, as_rational
from .partitions import check_partition

CLASSICAL_PRESETS = ("so_odd", "so_even", "sp")

_F = Fraction


def schur() -> CoeffSeq:
    """a = b = 0: the recurrence family is just the monomials z^i."""
    return CoeffSeq.from_functions(lambda x: _F(0), lambda x: _F(0), name="schur")


def so_odd() -> CoeffSeq:
    """Odd orthogonal sequence: a(0) = -1, b(0) = 0, otherwise a = 0, b = 1."""

    def a(x: Fraction) -> Fraction:
        return _F(-1) if x == 0 else _F(0)

    def b(x: Fraction) -> Fraction:
        return _F(0) if x == 0 else _F(1)

    return CoeffSeq.from_functions(a, b, name="so_odd")


def so_even() -> CoeffSeq:
    """Even orthogonal sequence: a = 0, b(1) = 2, b(i) = 1 for i > 1.

    b(0) is not pinned down by the recurrence family (it multiplies the zero
    polynomial) and is set to 0 here.
    """

    def b(x: Fraction) -> Fraction:
        if x == 0:
            return _F(0)
        return _F(2) if x == 1 else _F(1)

    return CoeffSeq.from_functions(lambda x: _F(0), b, name="so_even")


def sp() -> CoeffSeq:
    """Symplectic sequence: a = 0, b = 1 throughout."""
    return CoeffSeq.from_functions(lambda x: _F(0), lambda x: _F(1), name="sp")


def factorial(a_values) -> CoeffSeq:
    """b = 0 with a prescribed a-table, so phi_i = (z - a(0))...(z - a(i-1)).

    Accepts either a callable closed form or a finite table, read as
    `CoeffSeq.from_tables` reads one: a sequence through the container gate,
    each entry through the scalar gate.
    """
    if callable(a_values):
        return CoeffSeq.from_functions(a_values, lambda x: _F(0), name="factorial")
    a_values = as_container(a_values, "a_values", Sequence)
    return CoeffSeq.from_tables(a_values, [0] * len(a_values), name="factorial")


def bc_jacobi(p, q, probe_upto: int = 8) -> CoeffSeq:
    """Jacobi-type two-parameter sequence with closed-form coefficients.

        a(x) = -2p(p + 2q + 1) / ((2x - p - 2q - 1)(2x - p - 2q + 1))

        b(x) = 2x(2x - 2q - 1)(2x - 2p - 2q - 1)(2x - 2p - 4q - 2)
               / ((2x - p - 2q)(2x - p - 2q - 1)^2 (2x - p - 2q - 2))

    Both formulas can vanish in the denominator at small indices, depending
    on p and q.  Construction eagerly probes indices 0..probe_upto and fails
    fast with a PoleError naming the first singular index; pass probe_upto=-1
    to defer every failure to first use (0 still probes index 0).  p and q go
    through the scalar gate and probe_upto through the index gate.
    """
    p, q = as_rational(p, "p"), as_rational(q, "q")
    as_index(probe_upto, "probe_upto", -1)
    # Each factor is linear in x: times D t at x = s/t, with D the common
    # denominator of p and q, it is the integer 2 D s - c t for an integer
    # c, and the powers of D t cancel between numerator and denominator.
    D = lcm(p.denominator, q.denominator)
    P, Q = p.numerator * (D // p.denominator), q.numerator * (D // q.denominator)
    c = P + 2 * Q  # D (p + 2q)
    a_top = -2 * P * (c + D)
    n1, n2, n3 = 2 * Q + D, 2 * P + 2 * Q + D, 2 * P + 4 * Q + 2 * D

    def a(x: Fraction) -> Fraction:
        u, t = 2 * D * x.numerator, x.denominator
        d1, d2 = u - (c + D) * t, u - (c - D) * t
        if not d1 or not d2:
            raise PoleError(x)
        return Fraction(a_top * t * t, d1 * d2)

    def b(x: Fraction) -> Fraction:
        u, t = 2 * D * x.numerator, x.denominator
        d1, d2, d3 = u - c * t, u - (c + D) * t, u - (c + 2 * D) * t
        if not d1 or not d2 or not d3:
            raise PoleError(x)
        return Fraction(u * (u - n1 * t) * (u - n2 * t) * (u - n3 * t), d1 * d2 * d2 * d3)

    seq = CoeffSeq.from_functions(a, b, name="bc_jacobi")
    for i in range(probe_upto + 1):
        seq.a(i)
        seq.b(i)
    return seq


# Each preset's builder and the parameters it reads, in call order.
PRESETS = {
    "schur": (schur, ()),
    "so_odd": (so_odd, ()),
    "so_even": (so_even, ()),
    "sp": (sp, ()),
    "factorial": (factorial, ("a_table",)),
    "bc_jacobi": (bc_jacobi, ("p", "q")),
}


def make(name: str, **params) -> CoeffSeq:
    """Build a preset from exactly the parameters it reads, or raise ValueError."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset: {name!r}")
    build, reads = PRESETS[name]
    if any(key not in params for key in reads):
        raise ValueError(f"the {name} preset needs {' and '.join(reads)}")
    unread = [key for key in params if key not in reads]
    if unread:
        raise ValueError(f"the {name} preset does not read {', '.join(unread)}")
    return build(*(params[key] for key in reads))


def fh_character_det(ctx: GschurContext, lam) -> MultiPoly:
    """Compact character determinant for the orthogonal/symplectic presets.

    A `first_column_det` over the indices i = lam_j - j (0-based): column
    c = 0 holds h_i and every later column c holds h_{i+c} + h_{i-c}.
    The column operations that produce this shape from the Jacobi-Trudi
    determinant use b = 1 and a = 0 beyond the boundary, so the construction
    is only claimed, and only allowed, for those presets.
    """
    if ctx.seq.name not in CLASSICAL_PRESETS:
        raise ValueError(
            "the compact character determinant applies only to the "
            f"{'/'.join(CLASSICAL_PRESETS)} presets"
        )
    lam = ctx.fit_partition(lam)

    def entry(i: int, c: int) -> MultiPoly:
        return ctx.h(i + c) + ctx.h(i - c) if c else ctx.h(i)

    return first_column_det(entry, [part - j for j, part in enumerate(lam)], ctx.n)


@cache
def _boundary_variants(n: int) -> list:
    """(a_of, b_of, memo) for a(0) in {0, -1} and b(1) in {1, 2}, elsewhere
    a = 0 and b = 1; each memo holds shift scalars at offset n for every lam."""

    def variant(a0: int, b1: int):
        def a_of(k) -> Fraction:
            return _F(a0) if k == 0 else _F(0)

        def b_of(k) -> Fraction:
            return _F(0) if k < 0 else _F(b1) if k == 1 else _F(1)

        return a_of, b_of, {}

    return [variant(a0, b1) for a0, b1 in product((0, -1), (1, 2))]


def boundary_insensitivity(lam, n: int) -> bool:
    """Check that a(0) and b(1) never reach the Jacobi-Trudi shift entries.

    Each h^{(r)}_i is a combination sum_j c_j h_j whose scalars c_j come from
    the recursion coefficients alone (`shift_coefficients`).  This reports
    whether the reduced (numerators, denominator) pairs of the four
    `_boundary_variants(n)`, equal exactly when the maps are, agree for
    every entry with positive shift used by the Jacobi-Trudi determinant of
    lam.  It compares scalars only, memoised per n at module level and, like
    a context's memos, meant for a single thread; no polynomial is built.
    """
    lam = check_partition(lam)
    as_index(n, "n", len(lam))
    variants = _boundary_variants(n)
    for j, part in enumerate(lam):
        for r in range(1, len(lam)):
            seen = [shift_coefficients(a, b, n, part - j, r, memo) for a, b, memo in variants]
            if any(v != seen[0] for v in seen[1:]):
                return False
    return True
