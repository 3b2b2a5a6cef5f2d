"""Stable layer: expansions on the classical Schur basis and their dependence
on the number of variables.

For a fixed partition and coefficient sequence, the coefficients of the
generalized polynomial on the classical Schur basis are rational functions of
the variable count.  This module computes those coefficients exactly at
integer counts (`schur_expand_at`), reconstructs the rational functions by
exact interpolation with surplus validation points (`interpolate_c_family`),
and evaluates the resulting "any-d" object at arbitrary rational parameter
values (`gschur_function`).  On top of that sit the parameterised Jacobi-Trudi
consistency check (`jt_infinite_check`, at non-integer d or integer
d >= l(lam)) and the super-symmetric realisation (`super_schur`).

A Schur-basis coefficient map becomes a polynomial in one place,
`realize_expansion`: Jacobi-Trudi determinants over the complete homogeneous
functions of n x and m y variables, written from their generating function,
so no realisation goes through the bialternant it is compared against.  The
one-row entries of `jt_infinite_check` are written by `engine._from_degrees`.

The expensive step, expanding at a single integer count n, needs no
polynomials in x at all.  Write C_{i,m} = [z^m] phi_i for the lower
unitriangular coefficient matrix of the family.  Expanding each row
phi_{lam_j+n-j}(x_i) = sum_m C_{lam_j+n-j,m} x_i^m of the bialternant's
numerator by Cauchy-Binet turns it into a sum of alternants a_{mu+delta}, so

    [s_mu] S_lam(x_1..x_n) = det[ C_{lam_j+n-j, mu_k+n-k} ]_{j,k <= l},

with l = l(lam) and mu padded with zeros to l parts: the bottom n - l rows of
the full n x n minor form a unit triangular block, and the minor vanishes
unless mu lies inside lam.  `schur_expand_at` is the one finite-count
expansion: it takes these l x l scalar minors over the sequence's own phi
table (`seq.phis`), which every sample count of every interpolation shares,
as integer determinants of the phi numerators over the product of the row
denominators.  Which mu lie inside lam, in decreasing graded-lex order,
depends on lam alone, so that list is enumerated once per partition and
shared process-wide (`_inside`) by every sample count.  The fit solves its
linear system and checks every sample in integers, and each sequence keeps
its successful fits (`seq.families`), so the one-row families that
`jt_infinite_check` needs, or a family evaluated at many d, are fitted
once.  The minors and the fit share one fraction-free elimination,
`_echelon`.  A fitted function is evaluated in integers as well: at
x = s/t its numerator and denominator are homogenised in s and t over one
common denominator of their coefficients, and the value is the one
`Fraction` built.

A fit needs no polynomial gcd: it comes out reduced.  Suppose P0/Q0, in
lowest terms, fits the 2*bound + 1 nodes with Q0 nonzero at each.  For any
kernel vector (P, Q), P Q0 - P0 Q has degree <= 2*bound and vanishes at
every node, so P Q0 = P0 Q and (P, Q) = R (P0, Q0) for a polynomial R.  With
the unknowns ordered P's coefficients then Q's, the kernel vector of the
first free column ends lowest in Q's block, so its R is a constant.  A fit
that validates is such a P0/Q0, so the vector is already P0/Q0 up to scale.

Samples that no rational function of degree at most 32 explains raise
`InterpolationInconsistentError`, an `ArithmeticError` like the poles of
the lower layers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm, prod
from typing import Mapping, NamedTuple, Sequence

from .coeffseq import CoeffSeq, PoleError, _to_fraction
from .engine import _from_degrees, _support, first_column_det, shift_coefficients
from .exactalg import MultiPoly, _scaled_sum, format_poly_text
from .partitions import Partition, check_partition, contains, pad, partitions_up_to

_F = Fraction


class InterpolationInconsistentError(ArithmeticError):
    """Samples cannot be explained by a rational function within the bound."""


class SuperAlphabet(NamedTuple):
    """Sizes of the two variable families of a super-symmetric realisation."""

    n: int
    m: int


# -- univariate helpers over Fraction coefficient lists ---------------------


def _trimmed(cs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eval_homogeneous(cs: Sequence[int], s: int, t: int = 1) -> int:
    """t^k P(s/t) for the integer coefficient list of P, k = len(cs) - 1;
    with the default t = 1 that is P(s)."""
    total, power = 0, 1
    for c in reversed(cs):
        total = total * s + c * power
        power *= t
    return total


class RationalFunctionOfD:
    """Rational function of one parameter with a monic denominator.

    The constructor trims trailing zeros and scales the denominator monic;
    it divides out no common factor, so the caller passes a coprime pair
    (the fit in `_fit_and_validate` only ever finds one).  Then equal
    functions have equal coefficient tuples and `==` is semantic equality.
    A call evaluates both over one common integer denominator of the
    coefficients, homogenised in x's numerator and denominator, so the only
    `Fraction` it builds is the value.
    """

    __slots__ = ("num", "den", "_ints")

    def __init__(self, num: Sequence[Fraction], den: Sequence[Fraction]):
        num = _trimmed(num)
        den = _trimmed(den)
        if not den:
            raise ZeroDivisionError("denominator is the zero polynomial")
        if not num:
            den = (_F(1),)
        lead = den[-1]
        self.num = tuple(c / lead for c in num)
        self.den = tuple(c / lead for c in den)
        common = lcm(*(c.denominator for c in self.num + self.den))
        self._ints = tuple(
            [c.numerator * (common // c.denominator) for c in cs]
            for cs in (self.num, self.den)
        )

    def __call__(self, x) -> Fraction:
        """Value at an exact rational x; a float or bool raises TypeError."""
        x = _to_fraction(x)
        s, t = x.numerator, x.denominator
        top, bottom = self._ints
        q = _eval_homogeneous(bottom, s, t)
        if not q:
            raise PoleError(x, f"rational function has a pole at d = {x}")
        p = _eval_homogeneous(top, s, t)
        # P(x) / Q(x) = p t^deg(Q) / (q t^deg(P)).
        shift = len(bottom) - len(top)
        if shift > 0:
            p *= t**shift
        elif shift < 0:
            q *= t**-shift
        return Fraction(p, q)

    def __eq__(self, other) -> bool:
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, RationalFunctionOfD):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den == (_F(1),) and (
                self.num == (Fraction(other),) or (not self.num and other == 0)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        def fmt(cs):
            if not cs:
                return "0"
            poly = MultiPoly(1, {(i,): c for i, c in enumerate(cs)})
            return format_poly_text(poly, names=["d"])

        if self.den == (_F(1),):
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


# -- realisation on n x and m y variables ------------------------------------


def super_complete_homogeneous(n: int, m: int, upto: int) -> list[MultiPoly]:
    """h_0..h_upto on n x and m y variables, x variables first.

    Read off the generating function prod_j (1 - y_j t) / prod_i (1 - x_i t):
    the coefficient of x^alpha y^beta in h_d is (-1)^|beta| when every beta_j
    is 0 or 1 and |alpha| + |beta| = d, and 0 otherwise.  With m = 0 these
    are the classical complete homogeneous polynomials.
    """
    hs = []
    for d in range(upto + 1):
        terms = {}
        for beta in product((0, 1), repeat=m):
            k = sum(beta)
            for alpha in _support(n, d - k):
                terms[alpha + beta] = (-1) ** k
        hs.append(MultiPoly._make(n + m, terms))
    return hs


def realize_expansion(
    expansion: Mapping[Partition, Fraction], n: int, m: int = 0
) -> MultiPoly:
    """Polynomial of a Schur-basis coefficient map on n x and m y variables.

    Each s_mu is its Jacobi-Trudi determinant det[h_{mu_j - j + c}] over
    `super_complete_homogeneous`, the hook Schur function of the two
    alphabets.  It vanishes exactly when mu_{n+1} > m, so those mu are
    skipped; with m = 0 that is the truncation of a symmetric function to n
    variables, which drops every mu with more than n rows.
    """
    if n < 0 or m < 0:
        raise ValueError("alphabet sizes must be nonnegative")
    inside = {
        mu: c for mu, c in expansion.items() if c and (len(mu) <= n or mu[n] <= m)
    }
    depth = max((mu[0] + len(mu) - 1 for mu in inside if mu), default=0)
    hs = super_complete_homogeneous(n, m, depth)
    zero = MultiPoly.zero(n + m)

    def h_entry(i: int, c: int) -> MultiPoly:
        return hs[i + c] if i + c >= 0 else zero

    out = zero
    for mu, c in inside.items():
        out = out + c * first_column_det(h_entry, [p - j for j, p in enumerate(mu)], n + m)
    return out


def classical_schur(k: int, mu) -> MultiPoly:
    """Ordinary Schur polynomial in k variables; zero when mu has > k rows."""
    return realize_expansion({check_partition(mu): 1}, k)


def expand_in_classical_schur(poly: MultiPoly) -> dict[Partition, Fraction]:
    """Triangular solve of a symmetric polynomial against classical Schurs.

    Repeatedly subtracts the classical Schur polynomial matching the current
    graded-lex leading term; since each Schur polynomial is its own leading
    monomial plus dominated terms, the loop is a back-substitution and always
    terminates.
    """
    out: dict[Partition, Fraction] = {}
    work = poly
    while not work.is_zero:
        e, c = work.leading_term()
        try:
            mu = check_partition(e)
        except ValueError as exc:
            raise ValueError("polynomial is not symmetric") from exc
        if pad(mu, poly.arity) != e:
            raise ValueError("polynomial is not symmetric")
        out[mu] = c
        work = work - c * classical_schur(poly.arity, mu)
    return out


def schur_expand_at(lam, seq: CoeffSeq, n: int) -> dict[Partition, Fraction]:
    """Coefficients of S_lam(x | a, b) in n variables on classical Schurs.

    Requires n >= l(lam).  The answer is exact, zero coefficients are
    dropped, and its support is contained in the diagrams inside lam.

    Each coefficient is the l x l minor of the phi coefficients on rows
    lam_j + n - 1 - j and columns mu_k + n - 1 - k (0-based j, k); only
    phi_0..phi_{lam_1 + n - 1} are read, from `seq.phis`.  The keys come in
    decreasing graded-lex order, as a triangular solve would find them.
    """
    lam = check_partition(lam)
    l = len(lam)
    if n < l:
        raise ValueError(f"need at least {l} variables for {lam}")
    if l == 0:
        return {(): _F(1)}
    # Row j holds the integer numerators of phi_{lam_j + n - 1 - j}; the
    # product of the row denominators is every minor's denominator.
    phis = [seq.phis.phi(part + n - 1 - j) for j, part in enumerate(lam)]
    rows = [{m: c for (m,), c in phi._num.items()} for phi in phis]
    den = prod(phi._den for phi in phis)
    out: dict[Partition, Fraction] = {}
    for mu, offsets in _inside(lam):
        minor = _int_det([[row.get(n - 1 + o, 0) for o in offsets] for row in rows])
        if minor:
            out[mu] = Fraction(minor, den)
    return out


@cache
def _inside(lam: Partition) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """The mu inside lam in decreasing graded-lex order, each with mu_k - k.

    Padded to l(lam) parts, mu's column in `schur_expand_at` at count n is
    n - 1 + mu_k - k; the list depends on lam alone, so it is built once
    per partition and shared process-wide.
    """
    l = len(lam)
    inside = sorted(
        (mu for mu in partitions_up_to(sum(lam), l) if contains(lam, mu)),
        key=lambda mu: (sum(mu), mu),
        reverse=True,
    )
    return tuple(
        (mu, tuple(part - k for k, part in enumerate(pad(mu, l)))) for mu in inside
    )


# -- exact rational interpolation in the variable count ---------------------


def _echelon(rows: list[list[int]], upward: bool = True):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Bareiss's (1968) update: each row is replaced by its 2 x 2 minors with
    the pivot row, divided exactly by the previous pivot, which keeps every
    entry a minor of the input.  Applied to every other row (Nakos, Turner
    and Williams 1997), it leaves every pivot equal to the last one, d, and
    the rows equal to d times the reduced echelon form; `upward=False`
    updates only the rows below each pivot, which is all a determinant
    needs.  Returns the rows, their pivot columns, d (1 without pivots) and
    the sign of the row permutation.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(len(m[0]) if m else 0):
        rank = sel = len(pivots)
        while sel < len(m) and not m[sel][col]:
            sel += 1
        if sel == len(m):
            continue
        if sel != rank:
            m[rank], m[sel] = m[sel], m[rank]
            sign = -sign
        pivot_row, pv = m[rank], m[rank][col]
        for r in range(0 if upward else rank + 1, len(m)):
            if r != rank:
                f = m[r][col]
                m[r] = [(pv * a - f * b) // prev for a, b in zip(m[r], pivot_row)]
        pivots.append(col)
        prev = pv
        if rank + 1 == len(m):
            break
    return m, pivots, prev, sign


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the last pivot of `_echelon`."""
    _, pivots, d, sign = _echelon(rows, upward=False)
    return sign * d if len(pivots) == len(rows) else 0


def _kernel_vector(rows: list[list[int]]) -> list[int]:
    """d times the kernel vector of the reduced echelon form over Q.

    Requires strictly more columns than the rank, which the callers guarantee
    by construction.  The rational vector has 1 in the first free column and
    0 in the other free columns, which makes it unique; scaled by `_echelon`'s
    last pivot d it is an integer vector, read straight off the rows.
    """
    m, pivots, d, _ = _echelon(rows)
    vec = [0] * len(rows[0])
    free = next(c for c in range(len(vec)) if c not in pivots)
    vec[free] = d
    for row, col in zip(m, pivots):
        vec[col] = -row[free]
    return vec


def _fit_and_validate(
    xs: Sequence[int], ys: list[Fraction], degree_bound: int
) -> RationalFunctionOfD:
    """Fit P/Q with deg P, deg Q <= bound, then check everywhere.

    The fit solves the homogenised conditions P(x) - y Q(x) = 0 at the first
    2*bound + 1 points; with 2*bound + 2 unknown coefficients the kernel is
    never trivial, and any nonzero solution has Q not identically zero (a
    zero Q would force P to vanish at more points than its degree allows).
    The remaining points are pure validation.  A pole at a sample or a
    mismatched value raises InterpolationInconsistentError.

    The sample counts x are integers, so everything runs in integers: each
    condition is multiplied by y's denominator, P and Q are `_kernel_vector`'s
    integer vector, and each sample is checked as P(x) * den(y) == num(y) * Q(x).
    A fit that validates is in lowest terms (see the module docstring).
    """
    g = degree_bound
    rows = []
    for x, y in zip(xs[: 2 * g + 1], ys):
        powers = [x**j for j in range(g + 1)]
        rows.append(
            [y.denominator * p for p in powers] + [-y.numerator * p for p in powers]
        )
    sol = _kernel_vector(rows)
    top, bottom = sol[: g + 1], sol[g + 1 :]
    for x, y in zip(xs, ys):
        q = _eval_homogeneous(bottom, x)
        if not q:
            raise InterpolationInconsistentError(
                f"fitted function has a pole at sample {x}"
            )
        if _eval_homogeneous(top, x) * y.denominator != y.numerator * q:
            raise InterpolationInconsistentError(
                f"fitted function disagrees with the sample at {x}"
            )
    return RationalFunctionOfD(top, bottom)


_DEGREE_BOUNDS = (4, 8, 16, 32)  # tried in turn by interpolate_c_family


def _interpolate_all(
    lam: Partition, seq: CoeffSeq, degree_bound: int
) -> dict[Partition, RationalFunctionOfD]:
    start = max(len(lam), 1)
    ns = range(start, start + 2 * degree_bound + 3)
    expansions = [schur_expand_at(lam, seq, n) for n in ns]
    support = sorted(
        {mu for exp in expansions for mu in exp}, key=lambda p: (sum(p), p)
    )
    out: dict[Partition, RationalFunctionOfD] = {}
    for mu in support:
        ys = [exp.get(mu, _F(0)) for exp in expansions]
        out[mu] = _fit_and_validate(ns, ys, degree_bound)
    return out


def interpolate_c_family(lam, seq: CoeffSeq) -> dict[Partition, RationalFunctionOfD]:
    """All Schur-basis coefficients of lam as rational functions of d.

    Tries the degree bounds 4, 8, 16 and 32 in turn, re-sampling at more
    integer counts each time, and raises the last inconsistency when even
    32 cannot explain the samples.

    A table-backed sequence may run out of entries on a retry; the samples
    it did have were inconsistent, so that inconsistency is raised, chained
    from the IndexError.  Running out on the first attempt stays an
    IndexError.

    Each success is memoised in `seq.families` under lam, so a later request
    fits nothing; the caller gets a fresh dict each time.  Failures are not
    stored and are raised again on every call.
    """
    lam = check_partition(lam)
    if lam in seq.families:
        return dict(seq.families[lam])
    inconsistency = None
    for bound in _DEGREE_BOUNDS:
        try:
            family = _interpolate_all(lam, seq, bound)
        except InterpolationInconsistentError as exc:
            inconsistency = exc
        except IndexError as exc:
            if inconsistency is None:
                raise
            raise inconsistency from exc
        else:
            seq.families[lam] = family
            return dict(family)
    raise inconsistency


def gschur_function(lam, seq: CoeffSeq, d_value) -> dict[Partition, Fraction]:
    """Schur-basis coefficients of the any-d object evaluated at d_value.

    Raises PoleError when some coefficient has a pole at d_value.  Zero
    coefficients are dropped.

    An integer d >= l(lam) is served by the finite-count expansion directly:
    a rational coefficient function agrees with the finite values at every
    admissible integer, so the answers coincide whenever interpolation would
    succeed, and the direct route stays meaningful for table sequences whose
    coefficients have no rational interpolant at all.

    d_value must be exact (int, Fraction or a string Fraction reads); a
    float or bool raises TypeError.
    """
    lam = check_partition(lam)
    d = _to_fraction(d_value)
    if not lam:
        return {(): _F(1)}
    if d.denominator == 1 and d >= len(lam):
        return schur_expand_at(lam, seq, int(d))
    family = interpolate_c_family(lam, seq)
    out: dict[Partition, Fraction] = {}
    for mu, func in family.items():
        value = func(d)
        if value:
            out[mu] = value
    return out


def jt_infinite_check(lam, seq: CoeffSeq, d_value, n_eval: int) -> bool:
    """Does the parameterised Jacobi-Trudi determinant reproduce lam's object?

    Entry (i, c) is sum_j c_j S_(j), the one-row any-d objects S_(j)
    combined with the `shift_coefficients` scalars whose coefficient
    arguments are offset by d - 1 (so the sequence must be closed form,
    evaluable off the integers).  S_(j) at d is the degree map
    sum_k [s_(k)] S_(j) h_k, so an entry is one `_scaled_sum` of degree maps,
    written by `engine._from_degrees` as `h_shift` writes the finite ones;
    only the right-hand side goes through `realize_expansion`.  Both sides
    are compared after truncation to n_eval variables, which is faithful
    because truncation is a ring homomorphism; both sides lie in the span
    of the S_mu with l(mu) <= l(lam) (products of l(lam) one-row objects on
    the left), where truncation is injective exactly when n_eval >= l(lam),
    so a smaller n_eval raises ValueError.  A float or bool d_value raises
    TypeError.

    An integer d < l(lam) raises ValueError before any fit: there the entries
    read boundary values such as a(0) and b(1), which no finite-count entry
    with n >= l(lam) reads, so the two sides differ for so_odd and so_even.
    """
    if not seq.is_closed_form:
        raise ValueError("the parameterised recursion needs a closed-form sequence")
    lam = check_partition(lam)
    l = len(lam)
    if n_eval < max(1, l):
        raise ValueError(f"need n_eval >= max(1, l(lambda)) = {max(1, l)}, got {n_eval}")
    d = _to_fraction(d_value)
    if d.denominator == 1 and d < l:
        raise ValueError(f"at an integer d the check needs d >= l(lambda) = {l}, got {d}")
    rhs = realize_expansion(gschur_function(lam, seq, d), n_eval)
    one_rows = [
        _scaled_sum(
            (v.numerator, {sum(mu): 1}, v.denominator)
            for mu, v in gschur_function((j,) if j else (), seq, d).items()
        )
        for j in range(max(lam, default=0) + l)
    ]
    memo: dict = {}

    def entry(i: int, c: int) -> MultiPoly:
        nums, den = shift_coefficients(seq.a_at, seq.b_at, d, i, c, memo)
        parts = [(s, one_rows[j][0], one_rows[j][1] * den) for j, s in nums.items()]
        return _from_degrees(n_eval, *_scaled_sum(parts))

    return first_column_det(entry, [part - j for j, part in enumerate(lam)], n_eval) == rhs


# -- super-symmetric realisation -------------------------------------------


def super_schur(lam, seq: CoeffSeq, alphabet: SuperAlphabet) -> MultiPoly:
    """Super-symmetric realisation at superdimension d = n - m.

    The any-d object at d = n - m, realised by `realize_expansion` on the
    alphabet's n x and m y variables.
    """
    lam = check_partition(lam)
    n, m = alphabet
    if n < 0 or m < 0:
        raise ValueError("alphabet sizes must be nonnegative")
    return realize_expansion(gschur_function(lam, seq, n - m), n, m)
