"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent tuples (one entry per ring
variable) to nonzero rational coefficients.  Canonical form is enforced on
every construction: coefficients are `fractions.Fraction`, zero terms are
never stored, so structural equality of term maps is polynomial equality.

The global monomial order is graded lexicographic (total degree first, then
lexicographic on the exponent tuple).  Leading-term extraction, the exact
division loop, serialisation and printing all follow it, which keeps every
output of the library deterministic.

The costly loops (polynomial products, the cofactor sums of `determinant`
and `exact_divide`) run in Python integers.  Each operand is cleared to
integer numerators over one common denominator, with every exponent tuple
packed into a single integer whose order is the graded lexicographic order;
coefficients become `Fraction`s again once per output term.  The division
loop takes its leading terms from a max-heap of packed exponents.  Sums,
differences and scalar multiples stay on the `Fraction` maps.

Polynomials are immutable by convention: no method mutates `self`, and all
arithmetic returns fresh objects, so values can be shared freely between
threads once constructed.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]
# Integer numerators keyed by packed exponents, and their common denominator.
_Cleared = tuple[dict[int, int], int]

_ZERO = Fraction(0)


class DivisionNotExactError(ArithmeticError):
    """No polynomial quotient exists for the requested exact division."""


def _coerce_scalar(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def grlex_key(exponents: Exponent) -> tuple[int, Exponent]:
    """Sort key realising the graded lexicographic monomial order."""
    return (sum(exponents), exponents)


class MultiPoly:
    """Immutable sparse polynomial over Q in a fixed number of variables.

    Construct with an explicit arity and a mapping from exponent tuples to
    coefficients; use the classmethod helpers for common shapes.  Variables
    are indexed from 0, so `variable(3, 0)` is x1 of a three-variable ring.
    """

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[Exponent, Scalar] | None = None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                e = tuple(int(v) for v in exps)
                if len(e) != arity:
                    raise ValueError(f"exponent tuple {e} does not match arity {arity}")
                if any(v < 0 for v in e):
                    raise ValueError(f"negative exponent in {e}")
                c = _coerce_scalar(coeff)
                if c:
                    clean[e] = c
        self.arity = arity
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: Scalar) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls.constant(arity, 1)

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: 1})

    @classmethod
    def monomial(cls, arity: int, exponents: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(arity, {tuple(exponents): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Iterate over (exponent, coefficient) pairs in unspecified order."""
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms sorted by the global monomial order, leading term first."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponents), _ZERO)

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.arity, _ZERO)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Greatest term in the graded lexicographic order."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self._terms, key=grlex_key)
        return e, self._terms[e]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            self._check_same_ring(other)
            out = dict(self._terms)
            for e, c in other._terms.items():
                s = out.get(e, _ZERO) + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
            return self._wrap(out)
        if isinstance(other, (int, Fraction)):
            return self + MultiPoly.constant(self.arity, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            self._check_same_ring(other)
            out = dict(self._terms)
            for e, c in other._terms.items():
                s = out.get(e, _ZERO) - c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
            return self._wrap(out)
        if isinstance(other, (int, Fraction)):
            return self - MultiPoly.constant(self.arity, other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.arity, other) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_same_ring(other)
            if not self._terms or not other._terms:
                return MultiPoly.zero(self.arity)
            width = _field_width(_degree(self._terms) + _degree(other._terms))
            a = _to_ints(self._terms, width)
            b = _to_ints(other._terms, width)
            return self._wrap(_from_ints(_product_sum([(1, a, b)]), self.arity, width))
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                return MultiPoly.zero(self.arity)
            return self._wrap({e: k * c for e, k in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            if not c:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self._wrap({e: k / c for e, k in self._terms.items()})
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.one(self.arity)
        for _ in range(exponent):
            result = result * self
        return result

    def _wrap(self, terms: dict[Exponent, Fraction]) -> "MultiPoly":
        # Internal fast path: `terms` is already canonical.
        obj = object.__new__(MultiPoly)
        obj.arity = self.arity
        obj._terms = terms
        return obj

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(self.arity, other)
        return NotImplemented

    __hash__ = None  # mutable-free but we do not promise hashability

    # -- substitution and reshaping ---------------------------------------

    def bind(self, index: int, value: Scalar) -> "MultiPoly":
        """Substitute a scalar for one variable.

        The arity is preserved; the variable simply no longer occurs.
        """
        if not 0 <= index < self.arity:
            raise ValueError(f"variable index {index} out of range")
        v = _coerce_scalar(value)
        out_terms: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            scaled = c * v ** e[index]
            if not scaled:
                continue
            rest = tuple(0 if i == index else x for i, x in enumerate(e))
            s = out_terms.get(rest, _ZERO) + scaled
            if s:
                out_terms[rest] = s
            else:
                out_terms.pop(rest, None)
        return self._wrap(out_terms)

    def compose(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Evaluate the polynomial at a tuple of polynomials.

        `args` must supply one polynomial per variable, all in a common
        (possibly different) ring; the result lives in that ring.
        """
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        if self.arity == 0:
            target = 0
        else:
            target = args[0].arity
            for g in args:
                if g.arity != target:
                    raise ValueError("composition arguments must share one ring")
        power_cache: dict[tuple[int, int], MultiPoly] = {}

        def power(i: int, k: int) -> MultiPoly:
            if k == 0:
                return MultiPoly.one(target)
            got = power_cache.get((i, k))
            if got is None:
                got = power(i, k - 1) * args[i]
                power_cache[(i, k)] = got
            return got

        out = MultiPoly.zero(target)
        for e, c in self._terms.items():
            term = MultiPoly.constant(target, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
        return out

    def prepend_variable(self) -> "MultiPoly":
        """Reinterpret in a ring with one extra leading variable (x_i -> x_{i+1})."""
        return MultiPoly(self.arity + 1, {(0,) + e: c for e, c in self._terms.items()})

    def apply_permutation(self, perm: Sequence[int]) -> "MultiPoly":
        """Rename variable i to perm[i] for a permutation of 0..arity-1."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError("perm must be a permutation of the variable indices")
        out: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            ne = [0] * self.arity
            for i, k in enumerate(e):
                ne[perm[i]] = k
            out[tuple(ne)] = c
        return self._wrap(out)

    def __repr__(self) -> str:
        return f"MultiPoly({self.arity}: {format_poly_text(self)})"


# -- integer kernels -------------------------------------------------------
#
# The product and division loops run on a cleared form of a polynomial: a
# dict from packed exponents to integer numerators, plus one common
# denominator.  An exponent tuple (e_1..e_n) packs into the integer whose
# fields, most significant first, are (e_1 + ... + e_n, e_1, ..., e_n), each
# `width` bits wide.  Adding packed keys adds exponent vectors as long as no
# field outgrows its width, and comparing them compares in the graded
# lexicographic order, so each loop sizes the width from the largest total
# degree it can produce.


def _degree(terms: Mapping[Exponent, Fraction]) -> int:
    return max(map(sum, terms))


def _field_width(degree: int) -> int:
    return max(degree, 1).bit_length()


def _pack(e: Exponent, width: int) -> int:
    key = sum(e)
    for v in e:
        key = (key << width) | v
    return key


def _unpack(key: int, arity: int, width: int) -> Exponent:
    mask = (1 << width) - 1
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        out[i] = key & mask
        key >>= width
    return tuple(out)


def _to_ints(terms: Mapping[Exponent, Fraction], width: int) -> _Cleared:
    """Packed integer numerators of `terms` over their least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return (
        {_pack(e, width): c.numerator * (den // c.denominator) for e, c in terms.items()},
        den,
    )


def _from_ints(cleared: _Cleared, arity: int, width: int) -> dict[Exponent, Fraction]:
    """Inverse of `_to_ints`: the canonical term map, zero numerators dropped."""
    nums, den = cleared
    return {_unpack(k, arity, width): Fraction(c, den) for k, c in nums.items() if c}


def _product_sum(pairs: Sequence[tuple[int, _Cleared, _Cleared]]) -> _Cleared:
    """Sum of sign * a * b over (sign, a, b) triples of cleared polynomials.

    The result's denominator is the least common multiple of the pairs'
    denominator products; each pair's scale factor is folded into the
    shorter factor once, so the inner loop is integer multiply-adds only.
    Numerators that cancel to zero are dropped.
    """
    den = lcm(*(a[1] * b[1] for _, a, b in pairs))
    acc: dict[int, int] = {}
    get = acc.get
    for sign, (a, da), (b, db) in pairs:
        if len(a) > len(b):
            a, b = b, a
        scale = sign * (den // (da * db))
        b_items = b.items()
        for ka, ca in a.items():
            ca *= scale
            for kb, cb in b_items:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return {k: c for k, c in acc.items() if c}, den


# -- exact division --------------------------------------------------------


def exact_divide(numerator: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Return q with numerator == q * divisor, or raise DivisionNotExactError.

    Runs the single-divisor division loop under the graded lexicographic
    order: the leading term of the running remainder must always be divisible
    by the leading term of the divisor, otherwise no exact quotient exists.

    Both polynomials are cleared of denominators and the loop runs in
    integers.  Remainder terms wait in a max-heap of packed exponents; a
    popped term whose coefficient has cancelled to zero is skipped.  When the
    divisor's leading integer coefficient does not divide the remainder's
    leading one, the remainder and the partial quotient are both scaled by
    the missing factor (pseudo-division), which the quotient's denominator
    absorbs at the end.  For an exact division this happens only when the
    cleared divisor's coefficients share a factor (Gauss's lemma); the
    Vandermonde, with leading coefficient 1, never scales.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.arity != divisor.arity:
        raise ValueError("polynomials live in different rings")
    if numerator.is_zero:
        return MultiPoly.zero(numerator.arity)
    arity = numerator.arity
    # No remainder or quotient term outgrows the larger of the two degrees.
    width = _field_width(max(_degree(numerator._terms), _degree(divisor._terms)))
    rem, num_den = _to_ints(numerator._terms, width)
    div, div_den = _to_ints(divisor._terms, width)
    lead_k = max(div)
    lead_c = div.pop(lead_k)
    lead_e = _unpack(lead_k, arity, width)
    tail = list(div.items())
    heap = [-k for k in rem]
    heapify(heap)
    quot: dict[int, int] = {}
    scale = 1
    while heap:
        k = -heappop(heap)
        rc = rem.pop(k)
        if not rc:
            continue
        re = _unpack(k, arity, width)
        if any(a < b for a, b in zip(re, lead_e)):
            raise DivisionNotExactError(
                f"leading term x^{re} not divisible by divisor leading term x^{lead_e}"
            )
        missing = abs(lead_c) // gcd(rc, lead_c)
        if missing != 1:
            scale *= missing
            rc *= missing
            for r in rem:
                rem[r] *= missing
            for q in quot:
                quot[q] *= missing
        qc = rc // lead_c
        qk = k - lead_k
        quot[qk] = qc
        for dk, dc in tail:
            key = qk + dk
            c = rem.get(key)
            if c is None:
                rem[key] = -qc * dc
                heappush(heap, -key)
            else:
                rem[key] = c - qc * dc
    # The loop found quot / scale = (num_den * numerator) / (div_den * divisor).
    for q in quot:
        quot[q] *= div_den
    return numerator._wrap(_from_ints((quot, scale * num_den), arity, width))


# -- determinants ----------------------------------------------------------


def determinant(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square matrix given as a list of rows.

    Cofactor expansion along the top row with memoised minors, which suits
    the small orders the engine uses.  The entries must share one ring.

    The expansion runs on cleared integer forms: each cofactor is one fused
    `sum of +-entry * minor` over the nonzero entries of its row, and the
    minors stay in integer form, so coefficients become `Fraction`s only
    once, in the result.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("matrix needs at least one row")
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    arity = rows[0][0].arity
    if any(p.arity != arity for row in rows for p in row):
        raise ValueError("matrix entries must share one ring")
    # The determinant's total degree is at most the sum of the rows' largest.
    width = _field_width(
        sum(max((_degree(p._terms) for p in row if p._terms), default=0) for row in rows)
    )
    cleared = [[_to_ints(p._terms, width) if p._terms else None for p in row] for row in rows]
    one = ({0: 1}, 1)
    memo: dict[int, _Cleared] = {}

    def minor(mask: int) -> _Cleared:
        # Determinant of the lower rows on the columns still in `mask`; the
        # row index is implied by how many columns remain.
        if mask == 0:
            return one
        got = memo.get(mask)
        if got is not None:
            return got
        row = cleared[n - mask.bit_count()]
        pairs = []
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            entry = row[low.bit_length() - 1]
            if entry is not None:
                sub = minor(mask ^ low)
                if sub[0]:
                    pairs.append((sign, entry, sub))
            sign = -sign
            rest ^= low
        got = memo[mask] = _product_sum(pairs)
        return got

    return rows[0][0]._wrap(_from_ints(minor((1 << n) - 1), arity, width))


def vandermonde(n: int) -> MultiPoly:
    """The alternant prod_{i<j} (x_i - x_j); the empty product 1 for n <= 1."""
    out = MultiPoly.one(n)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * (MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
    return out


# -- serialisation and printing --------------------------------------------


def poly_to_json_terms(poly: MultiPoly) -> list[dict]:
    """JSON-ready term list, sorted by the global monomial order (leading first)."""
    return [{"e": list(e), "c": str(c)} for e, c in poly.sorted_terms()]


def _join_signed(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Join (body, coefficient) pairs as a signed sum of magnitudes.

    The first body keeps its own sign; later ones are joined with " + " or
    " - " by the sign of their coefficient.  Every printer of the package
    (text, LaTeX, Schur-basis expansions) writes its sums through here.
    """
    pieces: list[str] = []
    for body, c in terms:
        if pieces:
            pieces.append(f" + {body}" if c > 0 else f" - {body}")
        else:
            pieces.append(body if c > 0 else f"-{body}")
    return "".join(pieces)


def format_poly_text(poly: MultiPoly, names: Sequence[str] | None = None) -> str:
    """Plain-text rendering such as ``x1^2 - 1``, deterministic term order."""
    if names is None:
        names = [f"x{i + 1}" for i in range(poly.arity)]
    terms = []
    for e, c in poly.sorted_terms():
        mono = "*".join(
            f"{names[i]}^{k}" if k > 1 else names[i] for i, k in enumerate(e) if k
        )
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        terms.append((body, c))
    return _join_signed(terms) or "0"
