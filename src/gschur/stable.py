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
so no realisation goes through the bialternant it is compared against.
`jt_infinite_check` takes the same determinants over free generators h_k
(`engine._in_lambda`), so both of its sides are compared in Lambda.

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
shared process-wide (`_inside`) by every sample count.  The sample counts
are consecutive integers, and the counts of one degree bound are a prefix
of the next one's, so a retry at a larger bound samples only the counts it
adds.  The fit solves for the denominator Q alone, on one integer row per
vanishing forward difference of y Q; the numerator P is the Newton forward
interpolant of y Q, and every sample is checked in integers.  Each
sequence keeps its successful fits (`seq.families`), so the one-row
families that `jt_infinite_check` needs, or a family evaluated at many d,
are fitted once.  The minors and the fit share one fraction-free
elimination, `_echelon`.  A fitted function is evaluated in integers as
well: at x = s/t its numerator and denominator are homogenised in s and t
over one common denominator of their coefficients
(`exactalg._eval_homogeneous`), and the value is the one `Fraction` built.

A fit needs no polynomial gcd: it comes out reduced.  At the 2*bound + 1
consecutive nodes, a Q of degree <= bound solves the difference system
exactly when the values y Q are those of a polynomial P of degree <= bound
(the Newton form of their interpolant has the differences as
coefficients).  Suppose P0/Q0, in lowest terms, fits the nodes with Q0
nonzero at each.  For any solution Q, P Q0 - P0 Q has degree <= 2*bound
and vanishes at every node, so P Q0 = P0 Q and Q = R Q0 for a polynomial R
of degree <= m = bound - max(deg P0, deg Q0).  The kernel is therefore
{R Q0}: a kernel vector's last nonzero entry sits at its degree, so the
free columns are deg Q0 .. deg Q0 + m, and the kernel vector of the first
free column, zero at the others, has R constant.  A fit that validates is
such a P0/Q0, so P/Q is already P0/Q0 up to scale.

Samples that no rational function of degree at most 32 explains raise
`InterpolationInconsistentError`, an `ArithmeticError` like the poles of
the lower layers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .coeffseq import _ZERO, CoeffSeq, PoleError
from .engine import _lambda_det, _lambda_width, _shifted, _support, first_column_det
from .exactalg import (
    MultiPoly, _eval_homogeneous, _scaled_sum, as_container, as_index, as_rational,
    format_poly_text,
)
from .partitions import Partition, check_partition, contains, pad, partitions_up_to


class InterpolationInconsistentError(ArithmeticError):
    """Samples cannot be explained by a rational function within the bound."""


class SuperAlphabet(NamedTuple):
    """Sizes of the two variable families of a super-symmetric realisation."""

    n: int
    m: int


# -- rational functions of d ------------------------------------------------


class RationalFunctionOfD:
    """Rational function of one parameter, held as one integer pair.

    The constructor reads each coefficient (lowest degree first) through the
    scalar gate and clears the denominators; it and `_make`, which the fit
    calls directly, keep the integer lists as `_normalised` leaves them:
    content 1, the denominator's leading coefficient positive.  No common
    factor is divided out, so the caller passes a coprime pair
    (`_fit_and_validate` only finds one); then equal functions have equal
    pairs and `==` is semantic equality.  `num` and `den` read the pair back as `Fraction` tuples over
    a monic denominator.  A call evaluates the pair homogenised in x's
    numerator and denominator, building no `Fraction` but the value.
    """

    __slots__ = ("_ints",)

    def __init__(self, num: Sequence, den: Sequence):
        num = [as_rational(c, "num") for c in num]
        den = [as_rational(c, "den") for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        top, bottom = ([c.numerator * (scale // c.denominator) for c in cs] for cs in (num, den))
        self._ints = _normalised(top, bottom)

    @classmethod
    def _make(cls, top: list[int], bottom: list[int]) -> "RationalFunctionOfD":
        """Trusted constructor from integer coefficient lists (the fit's)."""
        obj = object.__new__(cls)
        obj._ints = _normalised(top, bottom)
        return obj

    num = property(lambda self: self._monic(0))
    den = property(lambda self: self._monic(1))

    def _monic(self, k: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._ints[1][-1]) for c in self._ints[k])

    def __call__(self, x) -> Fraction:
        """Value at x, read through the scalar gate."""
        x = as_rational(x, "d")
        s, t = x.numerator, x.denominator
        top, bottom = self._ints
        q = _eval_homogeneous(bottom, s, t)
        if not q:
            raise PoleError(x, f"rational function has a pole at d = {x}")
        p = _eval_homogeneous(top, s, t)
        # P(x) / Q(x) = p t^deg(Q) / (q t^deg(P)).
        shift = len(bottom) - len(top)
        return Fraction(p * t ** max(shift, 0), q * t ** max(-shift, 0))

    def __eq__(self, other) -> bool:
        # A truth value is not a constant function, though True == 1.
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._ints == _normalised([other.numerator], [other.denominator])
        if isinstance(other, RationalFunctionOfD):
            return self._ints == other._ints
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        def fmt(cs):
            poly = MultiPoly(1, {(i,): c for i, c in enumerate(cs)})
            return format_poly_text(poly, names=["d"])

        if len(self._ints[1]) == 1:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


def _normalised(top: list[int], bottom: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Trimmed, content 1, positive leading denominator; zero is ((), (1,))."""
    for cs in (top, bottom):
        while cs and not cs[-1]:
            cs.pop()
    if not bottom:
        raise ZeroDivisionError("denominator is the zero polynomial")
    if not top:
        bottom = [1]
    g = gcd(*top, *bottom) * (1 if bottom[-1] > 0 else -1)
    return tuple(c // g for c in top), tuple(c // g for c in bottom)


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
    variables, which drops every mu with more than n rows.  `expansion` goes
    through the container gate, n and m through the index gate.
    """
    expansion = as_container(expansion, "expansion", Mapping)
    as_index(n, "n", 0)
    as_index(m, "m", 0)
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
    if not isinstance(seq, CoeffSeq):
        raise TypeError(f"seq must be a CoeffSeq, got {type(seq).__name__}")
    lam = check_partition(lam)
    l = len(lam)
    as_index(n, "n", l)
    if l == 0:
        return {(): Fraction(1)}
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


@cache
def _difference_weights(g: int) -> tuple[tuple[int, ...], ...]:
    """(-1)^(k-i) C(k, i), i = 0..k, for each order k = g+1..2g: dotted with
    samples v_0, v_1, ... at consecutive counts, row k is Delta^k v_0."""
    return tuple(
        tuple((-1) ** (k - i) * comb(k, i) for i in range(k + 1))
        for k in range(g + 1, 2 * g + 1)
    )


def _fit_and_validate(
    xs: Sequence[int], ys: list[Fraction], degree_bound: int
) -> RationalFunctionOfD:
    """Fit P/Q with deg P, deg Q <= bound on consecutive counts, then check
    everywhere.

    xs must be consecutive integers x_0, x_0 + 1, ..., at least 2*bound + 1
    of them, or ValueError is raised.  The fit reads the first 2*bound + 1
    samples: P/Q explains them exactly when the values y Q at those counts
    are a polynomial of degree <= bound, that is when the forward
    differences Delta^k (y Q)(x_0) vanish for k = bound+1..2*bound.  Those
    are bound conditions on Q's bound + 1 coefficients, so the kernel is
    never trivial.  With L the lcm of the samples' denominators, entry
    (k, j) is sum_{i<=k} (-1)^(k-i) C(k, i) L y_i x_i^j, an integer, and Q is
    `_kernel_vector`'s integer vector.  P is then the Newton forward
    interpolant of L y_i Q(x_i) on x_0..x_bound, times bound! so that its
    coefficients are integers; the denominator returned is L bound! Q.

    The remaining samples are pure validation, and every sample is checked
    as P(x) * den(y) == num(y) * Q(x) after a pole check; a pole at a
    sample or a mismatched value raises InterpolationInconsistentError.  A
    fit that validates is in lowest terms (see the module docstring).
    """
    g = degree_bound
    x0 = xs[0]
    if len(xs) < 2 * g + 1 or any(x != x0 + i for i, x in enumerate(xs)):
        raise ValueError(f"a fit at bound {g} needs {2 * g + 1} or more consecutive counts")
    nodes = ys[: 2 * g + 1]
    scale = lcm(*(y.denominator for y in nodes))
    col = [y.numerator * (scale // y.denominator) for y in nodes]
    cols = []  # column j holds L y_i x_i^j
    for _ in range(g + 1):
        cols.append(col)
        col = [v * x for v, x in zip(col, xs)]
    rows = [[sum(map(mul, w, col)) for col in cols] for w in _difference_weights(g)]
    q_coeffs = _kernel_vector(rows) if rows else [1]
    # The differences of v_i = L y_i Q(x_i) at x_0, and the nested Newton
    # form g! P = c_0 + (x - x_0)(c_1 + (x - x_1)(...)), c_k = Delta^k v_0 g!/k!.
    v = [c * _eval_homogeneous(q_coeffs, x) for c, x in zip(cols[0][: g + 1], xs)]
    diffs = []
    for _ in range(g + 1):
        diffs.append(v[0])
        v = [b - a for a, b in zip(v, v[1:])]
    top, ratio = [], 1
    for k in range(g, -1, -1):
        nxt = [0, *top]
        for j, c in enumerate(top):
            nxt[j] -= xs[k] * c
        nxt[0] += diffs[k] * ratio
        top, ratio = nxt, ratio * k
    bottom = [scale * factorial(g) * c for c in q_coeffs]
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
    return RationalFunctionOfD._make(top, bottom)


_DEGREE_BOUNDS = (4, 8, 16, 32)  # tried in turn by interpolate_c_family


def _interpolate_all(
    lam: Partition, seq: CoeffSeq, degree_bound: int, expansions: list
) -> dict[Partition, RationalFunctionOfD]:
    """One attempt at one bound.  `expansions` holds the samples at counts
    max(l(lam), 1), ... of earlier attempts, a prefix of this one's; the
    counts it lacks are sampled and appended to it."""
    start = max(len(lam), 1)
    ns = range(start, start + 2 * degree_bound + 3)
    expansions.extend(schur_expand_at(lam, seq, n) for n in ns[len(expansions) :])
    support = sorted(
        {mu for exp in expansions for mu in exp}, key=lambda p: (sum(p), p)
    )
    out: dict[Partition, RationalFunctionOfD] = {}
    for mu in support:
        ys = [exp.get(mu, _ZERO) for exp in expansions]
        out[mu] = _fit_and_validate(ns, ys, degree_bound)
    return out


def interpolate_c_family(lam, seq: CoeffSeq) -> dict[Partition, RationalFunctionOfD]:
    """All Schur-basis coefficients of lam as rational functions of d.

    Tries the degree bounds 4, 8, 16 and 32 in turn, each at more integer
    counts, and raises the last inconsistency when even 32 cannot explain
    the samples.  The counts of one attempt are a prefix of the next one's,
    so each count is expanded once across the attempts.

    A table-backed sequence may run out of entries on a retry; the samples
    it did have were inconsistent, so that inconsistency is raised, chained
    from the IndexError.  Running out on the first attempt stays an
    IndexError.

    Each success is memoised in `seq.families` under lam, so a later request
    fits nothing; the caller gets a fresh dict each time.  Failures are not
    stored and are raised again on every call.
    """
    if not isinstance(seq, CoeffSeq):
        raise TypeError(f"seq must be a CoeffSeq, got {type(seq).__name__}")
    lam = check_partition(lam)
    if lam in seq.families:
        return dict(seq.families[lam])
    inconsistency, expansions = None, []
    for bound in _DEGREE_BOUNDS:
        try:
            family = _interpolate_all(lam, seq, bound, expansions)
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

    d_value goes through the scalar gate.
    """
    lam = check_partition(lam)
    d = as_rational(d_value, "d_value")
    if not lam:
        return {(): Fraction(1)}
    if d.denominator == 1 and d >= len(lam):
        return schur_expand_at(lam, seq, d.numerator)
    family = interpolate_c_family(lam, seq)
    out: dict[Partition, Fraction] = {}
    for mu, func in family.items():
        value = func(d)
        if value:
            out[mu] = value
    return out


def jt_infinite_check(lam, seq: CoeffSeq, d_value, n_eval: int) -> bool:
    """Does the parameterised Jacobi-Trudi determinant reproduce lam's object?

    Both sides are compared in Lambda = Q[h_1, h_2, ...], the h_k
    algebraically independent (Macdonald, *Symmetric Functions and Hall
    Polynomials*, ch. I (2.8)), both determinants by `engine._lambda_det` on
    the finite entries' packed maps, fields of `_lambda_width(l(lam))` bits.
    Entry (i, c) is h_i^{(c)} from `engine._shifted`, the recursion of the
    finite entries, with arguments offset by d - 1 (so the sequence must be
    closed form) and the one-row any-d objects at d, each sum_k [s_(k)]
    S_(j) h_k, as its base.  The right-hand side is sum_mu c_mu
    det[h_{mu_j - j + c}] over `gschur_function`.  Equality in Lambda
    implies it after truncation, so n_eval (index gate, at least
    max(1, l(lam))) does not change the verdict.

    An integer d < l(lam) raises ValueError before any fit: there the entries
    read boundary values such as a(0) and b(1), which no finite-count entry
    with n >= l(lam) reads, so the two sides differ for so_odd and so_even.
    """
    if not isinstance(seq, CoeffSeq):
        raise TypeError(f"seq must be a CoeffSeq, got {type(seq).__name__}")
    if not seq.is_closed_form:
        raise ValueError("the parameterised recursion needs a closed-form sequence")
    lam = check_partition(lam)
    l = len(lam)
    as_index(n_eval, "n_eval", max(1, l))
    d = as_rational(d_value, "d_value")
    if d.denominator == 1 and d < l:
        raise ValueError(f"at an integer d the check needs d >= l(lambda) = {l}, got {d}")
    width = _lambda_width(l)

    def h(i: int, c: int) -> tuple[dict[int, int], int]:
        return {i + c: 1} if i + c >= 0 else {}, 1

    rhs = _scaled_sum((v.numerator, _lambda_det(h, mu, width)[0], v.denominator)  # h: den 1
                      for mu, v in gschur_function(lam, seq, d).items())
    one_rows = [
        _scaled_sum((v.numerator, {sum(mu): 1}, v.denominator)
                    for mu, v in gschur_function((j,) if j else (), seq, d).items())
        for j in range(lam[0] + l if lam else 1)
    ]
    memo: dict = {}

    def entry(i: int, c: int) -> tuple[dict[int, int], int]:
        return _shifted(one_rows.__getitem__, seq.a_at, seq.b_at, d, i, c, memo)

    return _scaled_sum([(1, *_lambda_det(entry, lam, width))]) == rhs


# -- super-symmetric realisation -------------------------------------------


def super_schur(lam, seq: CoeffSeq, alphabet: SuperAlphabet) -> MultiPoly:
    """Super-symmetric realisation at superdimension d = n - m.

    The any-d object at d = n - m, realised by `realize_expansion` on the
    alphabet's n x and m y variables.  The alphabet goes through the
    container gate and must be a pair; both sizes go through the index gate
    before any fit.
    """
    if not isinstance(seq, CoeffSeq):
        raise TypeError(f"seq must be a CoeffSeq, got {type(seq).__name__}")
    lam = check_partition(lam)
    if len(as_container(alphabet, "alphabet", Sequence)) != 2:
        raise ValueError(f"alphabet must be a pair (n, m), got {alphabet!r}")
    n, m = alphabet
    as_index(n, "alphabet.n", 0)
    as_index(m, "alphabet.m", 0)
    return realize_expansion(gschur_function(lam, seq, n - m), n, m)
