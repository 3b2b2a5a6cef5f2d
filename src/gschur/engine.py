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

with h_d the classical complete homogeneous polynomial of degree d, so
S_(i) is a map of degree scalars.  The one shift recursion, `_shifted`,
runs on maps: on those of the S_(j) in `shift_scalars`, giving
h_i^{(r)} = sum_d s_d h_d, and on unit maps in `shift_coefficients`.
`h_shift` writes its polynomial from the degree map by `_from_degrees`,
and `gschur verify` checks the shift identities on the same map; the
stable layer runs the recursion on the one-row objects at d.  The
variable-splitting lemma is one defect function on these maps,
`_splitting_defect`: `gschur verify` reads its two maps, and
`lemma_residual` writes the residual polynomial from them alone.  Every
entry is linear in the h_d, so the Jacobi-Trudi, compact-character and
Giambelli determinants are taken in Lambda = Q[h_1, h_2, ...] on packed
maps (`_in_lambda`), and `_realise` writes each result in x_1..x_n once,
through Kostka numbers.

The sequence memoises its own phi family (`seq.phis`), so every context over
one sequence shares it; contexts memoise degree scalars, shifted families,
bialternants and Jacobi-Trudi determinants (in Lambda too), which hooks and
Giambelli read.  They are cheap to create and meant for a single thread; the
polynomials they hand out are immutable and can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import compress, permutations
from math import lcm
from operator import itemgetter
from typing import Callable

from .coeffseq import CoeffSeq
from .exactalg import (
    MultiPoly, _Cleared, _cofactor_det, _scaled_sum, as_index, as_rational, determinant,
)
from .partitions import (
    Partition,
    _partitions_of,
    check_partition,
    compositions,
    frobenius_coordinates,
    kostka,
    pad,
)


def shift_coefficients(
    a_of: Callable, b_of: Callable, offset, i: int, r: int, memo: dict
) -> tuple[dict[int, int], int]:
    """Scalars c_j with f_i^{(r)} = sum_j c_j f_j, for any base family f:
    `_shifted` on the unit maps f_j = {j: 1}.  i and r >= 0 go through the
    index gate here, once.  `memo` is keyed by (i, r); its pairs must not
    be mutated."""
    i, r = as_index(i, "i"), as_index(r, "r", 0)
    return _shifted(lambda j: ({j: 1}, 1), a_of, b_of, offset, i, r, memo)


def _shifted(base, a_of, b_of, offset, i: int, r: int, memo: dict) -> tuple[dict, int]:
    """The one shift recursion, on maps: f_i^{(r)} with f_j = base(j), j >= 0,

        f_i^{(r+1)} = f_{i+1}^{(r)} + a(i + offset - 1) f_i^{(r)}
                                    + b(i + offset - 1) f_{i-1}^{(r)},

    and f_j = 0 for j < 0.  Every map is nonzero integer numerators over one
    den > 0, content-reduced (`base` must return such pairs), so equal maps
    are equal pairs and the empty map is ({}, 1); each step is one
    `_scaled_sum`.  `offset` is the variable count in the finite case and
    may be a rational parameter in the stable case; `a_of` / `b_of` just
    have to accept whatever `i + offset - 1` evaluates to.  The memo is read
    first; then entries with i + r < 0 are empty and read nothing, and every
    other entry with r >= 1 reads a and b at i + offset - 1, each through
    the scalar gate.  The indices are not checked.
    """
    key = (i, r)
    got = memo.get(key)
    if got is not None:
        return got
    if i + r < 0:
        return {}, 1
    if r == 0:
        value = base(i)
    else:
        arg = i + offset - 1
        up = _shifted(base, a_of, b_of, offset, i + 1, r - 1, memo)
        a = as_rational(a_of(arg), "a")
        same = _shifted(base, a_of, b_of, offset, i, r - 1, memo)
        b = as_rational(b_of(arg), "b")
        lower = _shifted(base, a_of, b_of, offset, i - 1, r - 1, memo)
        value = _scaled_sum(
            (s.numerator, nums, s.denominator * d)
            for s, (nums, d) in ((1, up), (a, same), (b, lower))
        )
    memo[key] = value
    return value


def first_column_det(
    entry: Callable[[int, int], MultiPoly], indices: list[int], arity: int
) -> MultiPoly:
    """Jacobi-Trudi shape det[ entry(i_j, c) ], rows j and columns c = 0..l-1.

    `indices` are the first-column subscripts i_j (lam_j - j for a
    partition lam); the empty determinant is 1.
    """
    if not indices:
        return MultiPoly.one(arity)
    return determinant([[entry(i, c) for c in range(len(indices))] for i in indices])


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


@cache
def _support(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of h_d(x_1..x_n): `compositions(n, d)`, built once
    per process and shared by every context and the super h_d of `stable`."""
    return tuple(compositions(n, d))


@cache
def _shapes(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The shape of each exponent tuple of `_support(n, d)`, in its order: its
    entries sorted increasing, one shared tuple per shape."""
    shapes, first = list(map(tuple, map(sorted, _support(n, d)))), {}
    return tuple(map(first.setdefault, shapes, shapes))


def _from_degrees(n: int, nums: dict[int, int], den: int) -> MultiPoly:
    """sum_d (nums[d] / den) h_d(x_1..x_n), each numerator written once onto
    degree d's exponent tuples (`_support`; the h_d have disjoint supports):
    `h_shift`'s writer; determinants are written by `_realise`."""
    terms = {}
    for degree, c in nums.items():
        terms.update(dict.fromkeys(_support(n, degree), c))
    return MultiPoly._make(n, terms, den)


def _lambda_width(n: int) -> int:
    """Bits per generator field in n variables: a Jacobi-Trudi or fh term multiplies
    l <= n generators, a Giambelli term r <= n hook terms of at most n, so no
    exponent of any term, cancelled or not, exceeds n * n and none carries."""
    return (n * n).bit_length()


def _in_lambda(nums: dict[int, int], den: int, width: int) -> _Cleared:
    """sum_d (nums[d] / den) h_d in Lambda = Q[h_1, h_2, ...], the h_k free
    (Macdonald, I (2.8)), as a packed map: h_1^{e_1} h_2^{e_2} ... is the key
    with e_k in field k of `width` bits from the lowest, so h_0 = 1 is key 0."""
    return {1 << width * d >> width: c for d, c in nums.items()}, den


def _lambda_det(entry: Callable, lam: Partition, width: int) -> _Cleared:
    """det[ entry(lam_j - j, c) ] over degree maps, put in Lambda by `_in_lambda`."""
    cols = range(len(lam))
    return _cofactor_det(
        [[_in_lambda(*entry(part - j, c), width) for c in cols] for j, part in enumerate(lam)]
    )


@cache
def _h_monomials(key: int, n: int) -> tuple[int, tuple]:
    """The degree d of the packed key of h_nu and its (shape, [m_mu] h_nu) pairs
    for every mu of d with at most n parts, through Schur coordinates:
    sum_rho K_{rho nu} K_{rho mu}, rho of more than n parts dropping out."""
    width = _lambda_width(n)
    fields = range((key.bit_length() + width - 1) // width, 0, -1)
    nu = tuple(k for k in fields for _ in range(key >> width * (k - 1) & (1 << width) - 1))
    d = sum(nu)
    schur = [(rho, k) for rho in _partitions_of(d, d, d) if (k := kostka(rho, nu))]
    return d, tuple(
        ((0,) * (n - len(mu)) + mu[::-1], sum(k * kostka(rho, mu) for rho, k in schur))
        for mu in _partitions_of(d, d, n)
    )


def _realise(elem: _Cleared, n: int) -> MultiPoly:
    """A packed element of Lambda in x_1..x_n, fields `_lambda_width(n)`: per degree,
    sum_nu C_nu [m_mu] h_nu written onto `_support(n, d)` by `_shapes(n, d)`."""
    by_degree: dict[int, dict[tuple[int, ...], int]] = {}
    for key, k in elem[0].items():
        d, row = _h_monomials(key, n)
        m = by_degree.setdefault(d, {})
        for shape, c in row:
            m[shape] = m.get(shape, 0) + k * c
    terms = {}
    for d in sorted(by_degree, reverse=True):  # printing's order: its sort is linear
        m = by_degree[d]
        values = list(map(m.__getitem__, _shapes(n, d)))
        terms.update(zip(compress(_support(n, d), values), filter(None, values)))
    return MultiPoly._make(n, terms, elem[1])


def monomial_symmetric(n: int, mu: Partition) -> MultiPoly:
    """The monomial symmetric polynomial m_mu in n variables.

    Sum of all distinct monomials whose exponent multiset is mu; zero when mu
    has more parts than variables.
    """
    mu = check_partition(mu)
    if len(mu) > as_index(n, "n", 0):
        return MultiPoly.zero(n)
    return MultiPoly._make(n, dict.fromkeys(set(permutations(pad(mu, n))), 1))


class GschurContext:
    """All determinantal routes for one (n, coefficient sequence) pair."""

    def __init__(self, n: int, seq: CoeffSeq):
        self.n = as_index(n, "n", 1)
        if not isinstance(seq, CoeffSeq):
            raise TypeError(f"seq must be a CoeffSeq, got {type(seq).__name__}")
        self.seq = seq
        self._bialternant: dict[Partition, MultiPoly] = {}
        self._scalar_memo: dict[tuple[int, int], tuple[dict[int, int], int]] = {}
        self._h_shift_memo: dict[tuple[int, int], MultiPoly] = {}
        self._jt_memo: dict[Partition, MultiPoly] = {}
        self._lambda_memo: dict[Partition, _Cleared] = {}
        self._width = _lambda_width(self.n)

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

    # -- route 1: bialternant ---------------------------------------------

    def bialternant(self, lam) -> MultiPoly:
        """det[ phi_{lam_k + n - k}(x_i) ] / prod_{i<j} (x_i - x_j), lam padded to n rows.

        Computed without dividing: Delta^{-1} sum_w sgn(w) w is the divided
        difference d_{w0} (Bernstein-Gelfand-Gelfand, "Schubert cells and
        cohomology of the spaces G/P", 1973; Macdonald, "Notes on Schubert
        polynomials", 1991), and w0 = (s_{n-1} ... s_1) w0' gives

            S_lam(x_1..x_n) = d_{n-1} ... d_1 [ phi_{lam_1+n-1}(x_1) S_(lam_2, ...)(x_2..x_n) ],

        d_1 first, the tail memoised in the (n-1)-variable sub-context.  Only
        phi is read, so the other routes stay independent.  The tail recurses
        through `_sub` once per variable, so n = 1000 exceeds Python's
        recursion limit and raises RecursionError.
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

    def shift_scalars(self, i: int, r: int) -> tuple[dict[int, int], int]:
        """The degree scalars of h_i^{(r)} = sum_d s_d h_d(x_1..x_n).

        `_shifted` with arguments offset by n - 1 on the base
        S_(j) = sum_d [z^{d+n-1}] phi_{j+n-1} h_d.  Returned as ({d: n_d}, den),
        reduced, so equal maps are equal pairs; every (i, r) the recursion
        reaches is memoised in `_scalar_memo`, not to be mutated.  Empty for
        i + r < 0, whatever the negative extension.
        """
        i, r = as_index(i, "i"), as_index(r, "r", 0)
        return _shifted(self._one_row, self.seq.a, self.seq.b, self.n, i, r, self._scalar_memo)

    def _one_row(self, j: int) -> tuple[dict[int, int], int]:
        """The degree map of S_(j): the phi_{j+n-1} coefficients from z^{n-1} on."""
        n = self.n
        phi = self.seq.phis.phi(j + n - 1)
        tail = {m - n + 1: p for (m,), p in phi._num.items() if m >= n - 1}
        return _scaled_sum([(1, tail, phi._den)])

    def h_shift(self, i: int, r: int) -> MultiPoly:
        """The r-times shifted one-row family h_i^{(r)}, written from
        `shift_scalars` alone by `_from_degrees`."""
        key = (as_index(i, "i"), as_index(r, "r", 0))
        got = self._h_shift_memo.get(key)
        if got is None:
            got = self._h_shift_memo[key] = _from_degrees(self.n, *self.shift_scalars(i, r))
        return got

    def jacobi_trudi(self, lam) -> MultiPoly:
        """The l x l determinant det[ h^{(k-1)}_{lam_j - j + 1} ], memoised for `hook`."""
        lam = self.fit_partition(lam)
        got = self._jt_memo.get(lam)
        if got is None:
            got = self._jt_memo[lam] = self._det_in_lambda(lam)
        return got

    def _jt_in_lambda(self, lam: Partition) -> _Cleared:
        """The Jacobi-Trudi determinant of lam in Lambda, memoised for `giambelli`."""
        got = self._lambda_memo.get(lam)
        if got is None:
            got = self._lambda_memo[lam] = _lambda_det(self.shift_scalars, lam, self._width)
        return got

    def _det_in_lambda(self, lam: Partition, entry: Callable | None = None) -> MultiPoly:
        """det[ entry(lam_j - j, c) ] in Lambda (by default `_jt_in_lambda`) written
        by `_realise`; of order <= 1 it is its entry, h_shift(lam_1, 0)."""
        if len(lam) < 2:
            return self.h_shift(lam[0], 0) if lam else MultiPoly.one(self.n)
        elem = self._jt_in_lambda(lam) if entry is None else _lambda_det(entry, lam, self._width)
        return _realise(elem, self.n)

    # -- route 3: hooks and Giambelli -------------------------------------

    def hook(self, u: int, v: int) -> MultiPoly:
        """Hook-indexed polynomial S_(u|v) for arm u and leg v.

        For u >= 0 this is the memoised Jacobi-Trudi determinant of the hook
        partition (u+1, 1, ..., 1) with v ones, so Giambelli of a hook
        partition is a lookup.  For u < 0 the determinant collapses to a
        constant: (-1)^v when u + v = -1 and zero otherwise.
        """
        as_index(v, "v", 0)
        if as_index(u, "u") < 0:
            value = Fraction(-1) ** v if u + v == -1 else Fraction(0)
            return MultiPoly.constant(self.n, value)
        if v + 1 > self.n:
            raise ValueError(f"hook ({u}|{v}) needs more than {self.n} variables")
        return self.jacobi_trudi((u + 1,) + (1,) * v)

    def giambelli(self, lam) -> MultiPoly:
        """Determinant of hooks over the Frobenius coordinates of lam.  Of rank <= 1
        it is the hook, a memo read; from rank 2 on, the arms being >= 0, it is
        taken in Lambda over the `_jt_in_lambda` of the hook partitions."""
        lam = self.fit_partition(lam)
        arms, legs = frobenius_coordinates(lam)
        if len(arms) < 2:
            return self.hook(arms[0], legs[0]) if arms else MultiPoly.one(self.n)
        rows = [[self._jt_in_lambda((u + 1,) + (1,) * v) for v in legs] for u in arms]
        return _realise(_cofactor_det(rows), self.n)

    # -- expansions and identities ----------------------------------------

    def monomial_expansion(self, lam) -> dict[Partition, Fraction]:
        """Coefficients of the bialternant on monomial symmetric polynomials.

        On a symmetric polynomial the coefficient of m_mu is that of x^mu,
        so the expansion is read off the terms with weakly decreasing
        exponents, in decreasing graded-lex order.  Symmetry is checked
        first, under the transposition (1 2) and the n-cycle, which together
        generate every permutation, by looking up each term's image (a
        bijection of the support); a failure raises AssertionError.
        """
        poly = self.bialternant(lam)
        num, den = poly._num, poly._den
        n = self.n
        if n > 1:
            for perm in ((1, 0, *range(2, n)), (*range(1, n), 0)):
                if list(map(num.get, map(itemgetter(*perm), num))) != list(num.values()):
                    raise AssertionError(f"bialternant is not symmetric under {perm}")
        keys = [e for e in num if list(e) == sorted(e, reverse=True)]  # zeros trail
        pairs = sorted(zip(map(sum, keys), keys), reverse=True)
        return {e[:n - e.count(0)]: Fraction(num[e], den) for _, e in pairs}

    def _splitting_defect(self, i: int, r: int) -> tuple[tuple[dict, int], tuple[dict, int]]:
        """The degree maps (A, B) of the variable-splitting residual,

            h_i^{(r)} - x_1 h_i^{(r-1)} - h_{i+1}^{(r-1)}(x_2..x_n)
                = x_1 sum_d A_d h_d(x_1..x_n) + sum_d B_d h_d(x_2..x_n),

        by h_d = x_1 h_{d-1} + h_d(x_2..x_n): A_d = s_{d+1}(i, r, n) -
        s_d(i, r-1, n) and B_d = s_d(i, r, n) - s_d(i+1, r-1, n-1), each a
        reduced pair, so the identity holds iff both are ({}, 1).  The
        indices are not checked.
        """
        nums, den = head = self.shift_scalars(i, r)
        tail = self._sub.shift_scalars(i + 1, r - 1)
        prev = self.shift_scalars(i, r - 1)
        lowered = {d - 1: c for d, c in nums.items() if d}
        return (
            _scaled_sum([(1, lowered, den), (-1, *prev)]),
            _scaled_sum([(1, *head), (-1, *tail)]),
        )

    def lemma_residual(self, i: int, r: int) -> MultiPoly:
        """Defect of the variable-splitting identity for shifted families.

        Returns h_i^{(r)}(x_1..x_n) - x_1 h_i^{(r-1)}(x_1..x_n)
        - h_{i+1}^{(r-1)}(x_2..x_n), written once from the two degree maps
        of `_splitting_defect`: the x_1 part on exponents with e_1 >= 1 and
        the x_2..x_n part on those with e_1 = 0, so the supports are disjoint
        and nothing is added.  A zero defect writes nothing.  Must vanish
        whenever r <= i + 2n - 2.
        """
        as_index(i, "i")
        as_index(r, "r", 1)
        n = self.n
        if n < 2:
            raise ValueError("the identity needs at least two variables")
        if r > i + 2 * n - 2:
            raise ValueError("shift order exceeds the extension-independence bound")
        (a_nums, a_den), (b_nums, b_den) = self._splitting_defect(i, r)
        den = lcm(a_den, b_den)
        terms = {}
        for degree, c in a_nums.items():
            c *= den // a_den
            terms.update(((e[0] + 1,) + e[1:], c) for e in _support(n, degree))
        for degree, c in b_nums.items():
            c *= den // b_den
            terms.update(((0,) + e, c) for e in _support(n - 1, degree))
        return MultiPoly._make(n, terms, den)
