"""Core engine: generalized Schur polynomials by three independent routes.

A `GschurContext` fixes the number of variables n and a coefficient sequence
(a, b).  The recurrence family phi_i feeds the bialternant

    S_lam(x | a, b) = det[ phi_{lam_j + n - j}(x_i) ] / prod_{i<j} (x_i - x_j),

which is the defining route, computed as divided differences rather than by
polynomial division.  The same polynomials come out of a Jacobi-Trudi
determinant over shifted one-row families h_i^{(r)} and out of a Giambelli
determinant over hooks; keeping all three live is the point of the package,
since their agreement is the principal correctness check.

The one-row polynomials behind the other two routes are not taken from the
bialternant.  Row-reducing the one-row bialternant with the monic phi gives

    S_(i)(x_1..x_n) = sum_m [z^m] phi_{i+n-1} * h_{m-n+1}(x_1..x_n),

with h_d the classical complete homogeneous polynomial of degree d.  The
shift recursion is linear in its base family, so each shifted one-row
polynomial is a scalar combination h_i^{(r)} = sum_j c_j S_(j) whose c_j
depend only on a, b and the offset; `shift_coefficients` computes those
scalars, and `h_shift` folds them into one scalar per degree d, as integer
numerators over one denominator.  The h_d of different degrees have disjoint
monomial supports, so each is written straight onto its monomials once.
The stable layer reads the same phi coefficients as scalar minors and builds
no one-row polynomials.

The sequence memoises its own phi family (`seq.phis`), so every context
over one sequence shares it; contexts memoise shift scalars, shifted
families, bialternants and hooks.  They are cheap to create and are meant
to be used by a single thread; the polynomials they hand out are immutable
and can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import lcm
from typing import Callable

from .coeffseq import CoeffSeq
from .exactalg import MultiPoly, determinant, grlex_key
from .partitions import (
    Partition,
    check_partition,
    compositions,
    diagonal_rank,
    frobenius_coordinates,
    pad,
)


def shift_coefficients(
    a_of: Callable,
    b_of: Callable,
    offset,
    i: int,
    r: int,
    memo: dict,
) -> dict[int, Fraction]:
    """Scalars c_j with f_i^{(r)} = sum_j c_j f_j, for any base family f.

    The shifted families obey

        f_i^{(r+1)} = f_{i+1}^{(r)} + a(i + offset - 1) f_i^{(r)}
                                    + b(i + offset - 1) f_{i-1}^{(r)},

    with f^{(0)} = f and f_j = 0 for j < 0.  The recursion is linear in the
    base, so it runs here on {j: c_j} maps and the caller writes the sum
    out once.  `offset` is the variable count in the finite case and may be
    a rational parameter in the stable case; `a_of` / `b_of` just have to
    accept whatever `i + offset - 1` evaluates to.  Entries with i + r < 0
    are the empty map and read no coefficients; every other entry with
    r >= 1 reads a and b at i + offset - 1.  No zero scalar is stored.
    `memo` is keyed by (i, r) and its maps must not be mutated.
    """
    if r < 0:
        raise ValueError("shift order must be nonnegative")
    if i + r < 0:
        return {}
    key = (i, r)
    got = memo.get(key)
    if got is not None:
        return got
    if r == 0:
        value = {i: Fraction(1)}
    else:
        arg = i + offset - 1
        value = dict(shift_coefficients(a_of, b_of, offset, i + 1, r - 1, memo))
        a = a_of(arg)
        same = shift_coefficients(a_of, b_of, offset, i, r - 1, memo)
        b = b_of(arg)
        lower = shift_coefficients(a_of, b_of, offset, i - 1, r - 1, memo)
        for scale, part in ((a, same), (b, lower)):
            if not scale:
                continue
            for j, c in part.items():
                total = value.get(j, 0) + scale * c
                if total:
                    value[j] = total
                else:
                    value.pop(j, None)
    memo[key] = value
    return value


def first_column_det(
    entry: Callable[[int, int], MultiPoly], indices: list[int], arity: int
) -> MultiPoly:
    """Jacobi-Trudi shape det[ entry(i_j, c) ], rows j and columns c = 0..l-1.

    `indices` are the first-column subscripts i_j (lam_j - j for a
    partition lam); the empty determinant is 1.
    """
    size = len(indices)
    if size == 0:
        return MultiPoly.one(arity)
    return determinant([[entry(i, c) for c in range(size)] for i in indices])


def _divided_difference(num: dict[tuple, int], i: int) -> dict[tuple, int]:
    """d_i f = (f - s_i f) / (x_i - x_{i+1}) on integer numerators (i from 0):
    x_i^a x_{i+1}^b with a > b goes to sum_{j < a-b} x_i^{a-1-j} x_{i+1}^{b+j},
    a = b to 0 and a < b to minus the swapped case."""
    out: dict[tuple, int] = {}
    for e, c in num.items():
        a, b = e[i], e[i + 1]
        if a < b:
            a, b, c = b, a, -c
        head, rest = e[:i], e[i + 2:]
        for j in range(a - b):
            k = head + (a - 1 - j, b + j) + rest
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def monomial_symmetric(n: int, mu: Partition) -> MultiPoly:
    """The monomial symmetric polynomial m_mu in n variables.

    Sum of all distinct monomials whose exponent multiset is mu; zero when mu
    has more parts than variables.
    """
    mu = check_partition(mu)
    if len(mu) > n:
        return MultiPoly.zero(n)
    return MultiPoly._make(n, dict.fromkeys(set(permutations(pad(mu, n))), 1))


class GschurContext:
    """All determinantal routes for one (n, coefficient sequence) pair."""

    def __init__(self, n: int, seq: CoeffSeq):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"n must be an int, got {type(n).__name__}")
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.seq = seq
        self._bialternant: dict[Partition, MultiPoly] = {}
        self._shift_memo: dict[tuple[int, int], dict[int, Fraction]] = {}
        self._h_shift_memo: dict[tuple[int, int], MultiPoly] = {}
        self._compositions: dict[int, list[tuple[int, ...]]] = {}
        self._hook_memo: dict[tuple[int, int], MultiPoly] = {}

    # -- building blocks ---------------------------------------------------

    def fit_partition(self, lam) -> Partition:
        """lam as a partition, checked to have at most n parts."""
        lam = check_partition(lam)
        if len(lam) > self.n:
            raise ValueError(f"partition {lam} needs more than {self.n} variables")
        return lam

    @cached_property
    def _sub(self) -> "GschurContext":
        """The context in x_2..x_n over the same sequence, built once."""
        return GschurContext(self.n - 1, self.seq)

    def phi_at_var(self, degree_index: int, var: int) -> MultiPoly:
        """phi_{degree_index}(x_var) as an n-variable polynomial."""
        uni = self.seq.phis.phi(degree_index)
        before, after = (0,) * var, (0,) * (self.n - 1 - var)
        num = {before + e + after: c for e, c in uni._num.items()}
        return MultiPoly._make(self.n, num, uni._den)

    # -- route 1: bialternant ---------------------------------------------

    def bialternant(self, lam) -> MultiPoly:
        """det[ phi_{lam_k + n - k}(x_i) ] / prod_{i<j} (x_i - x_j), lam padded to n rows.

        Computed without dividing: Delta^{-1} sum_w sgn(w) w is the divided
        difference d_{w0} (Bernstein-Gelfand-Gelfand, "Schubert cells and
        cohomology of the spaces G/P", 1973; Macdonald, "Notes on Schubert
        polynomials", 1991), and w0 = (s_{n-1} ... s_1) w0' gives

            S_lam(x_1..x_n) = d_{n-1} ... d_1 [ phi_{lam_1+n-1}(x_1) S_(lam_2, ...)(x_2..x_n) ],

        d_1 first, the tail memoised in the (n-1)-variable sub-context.  Only
        phi is read, so the other routes stay independent.  No cap on n.
        """
        lam = self.fit_partition(lam)
        n = self.n
        got = self._bialternant.get(lam)
        if got is not None:
            return got
        phi = self.seq.phis.phi(pad(lam, n)[0] + n - 1)
        tail = self._sub.bialternant(lam[1:]) if n > 1 else MultiPoly.one(0)
        # x_1 does not occur in the tail, so the product has no like terms.
        num = {e + t: p * c for e, p in phi._num.items() for t, c in tail._num.items()}
        for i in range(n - 1):
            num = _divided_difference(num, i)
        value = self._bialternant[lam] = MultiPoly._make(n, num, phi._den * tail._den)
        return value

    # -- route 2: Jacobi-Trudi --------------------------------------------

    def h(self, i: int) -> MultiPoly:
        """One-row polynomial S_(i), that is h_i^{(0)}; zero for negative i."""
        return self.h_shift(i, 0)

    def h_shift(self, i: int, r: int) -> MultiPoly:
        """The r-times shifted one-row family h_i^{(r)} = sum_j c_j S_(j).

        The scalars c_j come from `shift_coefficients` with arguments offset
        by n - 1.  Composed with S_(j) = sum_m [z^m] phi_{j+n-1} h_{m-n+1},
        they give one scalar per classical degree d,

            sum_j c_j [z^{d+n-1}] phi_{j+n-1},

        which is written once onto every exponent tuple of total degree d;
        the h_d of different degrees have disjoint supports.  Values with
        i + r < 0 vanish identically, whatever negative-index extension the
        sequence carries.
        """
        key = (i, r)
        got = self._h_shift_memo.get(key)
        if got is not None:
            return got
        n = self.n
        coeffs = shift_coefficients(self.seq.a, self.seq.b, n, i, r, self._shift_memo)
        parts = [(c, self.seq.phis.phi(j + n - 1)) for j, c in coeffs.items()]
        den = lcm(*(c.denominator * phi._den for c, phi in parts))
        by_degree: dict[int, int] = {}
        for c, phi in parts:
            scale = c.numerator * (den // (c.denominator * phi._den))
            for (m,), p in phi._num.items():
                if m >= n - 1:
                    by_degree[m - n + 1] = by_degree.get(m - n + 1, 0) + scale * p
        terms = {}
        for degree, c in by_degree.items():
            if c:
                if degree not in self._compositions:
                    self._compositions[degree] = list(compositions(n, degree))
                terms.update(dict.fromkeys(self._compositions[degree], c))
        got = self._h_shift_memo[key] = MultiPoly._make(n, terms, den)
        return got

    def jacobi_trudi(self, lam) -> MultiPoly:
        """The l x l determinant det[ h^{(k-1)}_{lam_j - j + 1} ]."""
        lam = self.fit_partition(lam)
        indices = [lam[j] - j for j in range(len(lam))]
        return first_column_det(self.h_shift, indices, self.n)

    # -- route 3: hooks and Giambelli -------------------------------------

    def hook(self, u: int, v: int) -> MultiPoly:
        """Hook-indexed polynomial S_(u|v) for arm u and leg v.

        For u >= 0 this is the polynomial of the hook partition
        (u+1, 1, ..., 1) with v ones, computed by its own first-column
        determinant.  For u < 0 the determinant collapses to a constant:
        (-1)^v when u + v = -1 and zero otherwise.
        """
        if v < 0:
            raise ValueError("leg length must be nonnegative")
        if u < 0:
            value = Fraction(-1) ** v if u + v == -1 else Fraction(0)
            return MultiPoly.constant(self.n, value)
        if v + 1 > self.n:
            raise ValueError(f"hook ({u}|{v}) needs more than {self.n} variables")
        key = (u, v)
        got = self._hook_memo.get(key)
        if got is None:
            got = self.jacobi_trudi((u + 1,) + (1,) * v)
            self._hook_memo[key] = got
        return got

    def giambelli(self, lam) -> MultiPoly:
        """Determinant of hooks over the Frobenius coordinates of lam."""
        lam = self.fit_partition(lam)
        arms, legs = frobenius_coordinates(lam)
        r = diagonal_rank(lam)
        if r == 0:
            return MultiPoly.one(self.n)
        rows = [[self.hook(arms[i], legs[j]) for j in range(r)] for i in range(r)]
        return determinant(rows)

    # -- expansions and identities ----------------------------------------

    def monomial_expansion(self, lam) -> dict[Partition, Fraction]:
        """Coefficients of the bialternant on monomial symmetric polynomials.

        On a symmetric polynomial the coefficient of m_mu is that of x^mu,
        so the expansion is read off the terms with weakly decreasing
        exponents, in decreasing graded-lex order.  Symmetry is checked
        first, under the transposition (1 2) and the n-cycle, which together
        generate every permutation; a failure raises AssertionError.
        """
        poly = self.bialternant(lam)
        n = self.n
        if n > 1:
            for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)):
                if poly.apply_permutation(perm) != poly:
                    raise AssertionError(f"bialternant is not symmetric under {perm}")
        num, den = poly._num, poly._den
        keys = [e for e in num if all(x >= y for x, y in zip(e, e[1:]))]
        keys.sort(key=grlex_key, reverse=True)
        return {check_partition(e): Fraction(num[e], den) for e in keys}

    def lemma_residual(self, i: int, r: int) -> MultiPoly:
        """Defect of the variable-splitting identity for shifted families.

        Returns h_i^{(r)}(x_1..x_n) - x_1 h_i^{(r-1)}(x_1..x_n)
        - h_{i+1}^{(r-1)}(x_2..x_n), the last term computed in an (n-1)-variable
        context over the same sequence and then re-embedded.  Must vanish
        whenever r <= i + 2n - 2.
        """
        if r < 1:
            raise ValueError("the identity needs a positive shift order")
        if self.n < 2:
            raise ValueError("the identity needs at least two variables")
        if r > i + 2 * self.n - 2:
            raise ValueError("shift order exceeds the extension-independence bound")
        x1 = MultiPoly.variable(self.n, 0)
        tail = self._sub.h_shift(i + 1, r - 1).prepend_variable()
        return self.h_shift(i, r) - x1 * self.h_shift(i, r - 1) - tail
