"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored as FLINT's `fmpq_mpoly` stores one: nonzero integer
numerators keyed by exponent tuples (one entry per ring variable) over one
positive denominator, content-reduced so that the denominator shares no
factor with every numerator (the zero polynomial has denominator 1).  That
form is unique, so structural equality is polynomial equality.

The global monomial order is graded lexicographic (total degree first, then
lexicographic on the exponent tuple).  Leading-term extraction, the exact
division loop, serialisation and printing all follow it, which keeps every
output of the library deterministic.

All arithmetic runs in Python integers: sums and differences rescale to the
lcm of the two denominators, and the costly loops (products and the
determinant core `_cofactor_det`) run on packed keys, an exponent tuple
packed into one integer ordered as graded lex.  The package's other exact
maps in this format (shift and degree scalars, the phi recurrence, the
parameterised Jacobi-Trudi entries) are summed by one kernel, `_scaled_sum`,
and every integer coefficient list of one variable (a fitted function of d,
the fit's own check, a random closed-form coefficient) is evaluated by one
homogeneous Horner, `_eval_homogeneous`.  `exact_divide` is uncalled in the
package and kept because the benchmark's tracer looks it up by name.
Coefficients become reduced `Fraction`s only in `items()`, `coefficient()`
and `leading_term()`.  Output (JSON, text, LaTeX) is written from the
numerators by `_terms`, which orders the terms by one sort of (degree,
exponent, numerator) triples, with no Python key per term, and reduces each
distinct numerator against the denominator once: a shifted one-row family
repeats one numerator per degree on every monomial of that degree, so the
output holds far fewer distinct coefficients than terms.  Text builds each
monomial from its nonzero exponents, once per piece.

Polynomials are immutable by convention: no method mutates `self`, and all
arithmetic returns fresh objects, so values can be shared freely between
threads once constructed.

The package's one input policy is the three gates here, and every module
reads caller input through them.  `as_rational` is the exact-scalar gate: an
int that is not a bool, a `Fraction`, or a string `Fraction` reads.
`as_index` is the index gate: an int that is not a bool, with an optional
lower bound.  Integral floats and `Fraction`s are not indices.
`as_container` is the container gate for tables and alphabets (a `Sequence`)
and negative-index extensions (a `Mapping`); text is neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]
# Integer numerators keyed by packed exponents, and their common denominator.
_Cleared = tuple[dict[int, int], int]
# A coefficient in lowest terms, (numerator, denominator > 0).
_Ratio = tuple[int, int]


class DivisionNotExactError(ArithmeticError):
    """No polynomial quotient exists for the requested exact division."""


def as_rational(value, name: str) -> Fraction:
    """The exact-scalar gate: `value` as a `Fraction`.  Text that `Fraction`
    does not read, or reads with a zero denominator, raises ValueError; any
    other value but an int (not a bool) or a `Fraction` raises TypeError.
    Both messages start with `name` and show the value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{name}: zero denominator in {value!r}") from None
        except ValueError:
            raise ValueError(f"{name}: {value!r} does not read as a rational") from None
    raise TypeError(
        f"{name}: cannot interpret {value!r} as an exact rational: expected an int"
        f" or Fraction or a str, got {type(value).__name__}"
    )


def as_index(value, name: str, low: int | None = None) -> int:
    """The index gate: `value` itself when it is an int, not a bool, and at
    least `low` (if given); otherwise TypeError or ValueError naming `name`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def as_container(value, name: str, kind: type):
    """The container gate: `value` itself when it is a `kind` (`Sequence` or
    `Mapping`) and not text; otherwise TypeError naming `name`."""
    if isinstance(value, kind) and not isinstance(value, (str, bytes)):
        return value
    raise TypeError(f"{name} must be a {kind.__name__.lower()}, got {type(value).__name__}")


def _scaled_sum(parts: Iterable[tuple[int, dict, int]]) -> tuple[dict, int]:
    """sum s * nums / den over (s, nums, den) triples (s an int, den > 0) over
    the lcm of the dens, reduced as a polynomial is: equal sums are equal
    pairs, the empty sum is ({}, 1)."""
    den, live = 1, []
    for part in parts:
        if part[0] and part[1]:
            live.append(part)
            den = lcm(den, part[2])
    out: dict = {}
    get = out.get
    for s, nums, d in live:
        s *= den // d
        for k, c in nums.items():
            out[k] = get(k, 0) + s * c
    out = {k: c for k, c in out.items() if c}
    g = gcd(den, *out.values())
    return ({k: c // g for k, c in out.items()}, den // g) if g != 1 else (out, den)


def _eval_homogeneous(cs: Sequence[int], s: int, t: int = 1) -> int:
    """t^k P(s/t) for the integer coefficient list of P (index = degree),
    k = len(cs) - 1: Horner's rule homogenised in s and t, so a rational
    argument costs no `Fraction`.  With the default t = 1 that is P(s)."""
    total, power = 0, 1
    for c in reversed(cs):
        total = total * s + c * power
        power *= t
    return total


def _exponents(exps: Iterable[int], arity: int) -> Exponent:
    """exps as an exponent tuple of an arity-variable ring, each entry read
    by the index gate (int() would truncate 1.9 to 1)."""
    e = tuple(exps)
    for v in e:
        as_index(v, "exponent", 0)
    if len(e) != arity:
        raise ValueError(f"exponent tuple {e} does not match arity {arity}")
    return e


def grlex_key(exponents: Exponent) -> tuple[int, Exponent]:
    """Sort key realising the graded lexicographic monomial order."""
    return (sum(exponents), exponents)


class MultiPoly:
    """Immutable sparse polynomial over Q in a fixed number of variables.

    Construct with an explicit arity and a mapping from exponent tuples to
    coefficients; use the classmethod helpers for common shapes.  Variables
    are indexed from 0, so `variable(3, 0)` is x1 of a three-variable ring.
    The public constructor reads `terms` through the container gate and
    validates every term; the package's own builders write integer
    numerators through `_make` instead.
    """

    __slots__ = ("arity", "_num", "_den")

    def __init__(self, arity: int, terms: Mapping[Exponent, Scalar] | None = None):
        as_index(arity, "arity", 0)
        clean: dict[Exponent, Fraction] = {}
        if terms is not None:
            for exps, coeff in as_container(terms, "terms", Mapping).items():
                e = _exponents(exps, arity)
                c = as_rational(coeff, "coefficient")
                if c:
                    clean[e] = c
        # Over the lcm of reduced denominators the content is already 1.
        den = lcm(*(c.denominator for c in clean.values()))
        self.arity, self._den = arity, den
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}

    @classmethod
    def _make(cls, arity: int, num: dict[Exponent, int], den: int = 1) -> "MultiPoly":
        """Trusted constructor: nonzero integer numerators over den > 0."""
        obj = object.__new__(cls)
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        obj.arity, obj._num, obj._den = arity, num, den
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value: Scalar) -> "MultiPoly":
        return cls(arity, {(0,) * as_index(arity, "arity", 0): value})

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls.constant(arity, 1)

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if as_index(index, "index", 0) >= as_index(arity, "arity", 0):
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: 1})

    @classmethod
    def monomial(cls, arity: int, exponents: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(arity, {tuple(exponents): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def items(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Iterate over (exponent, coefficient) pairs in unspecified order."""
        return ((e, Fraction(c, self._den)) for e, c in self._num.items())

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(_exponents(exponents, self.arity), 0), self._den)

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Greatest term in the graded lexicographic order."""
        if not self._num:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self._num, key=grlex_key)
        return e, Fraction(self._num[e], self._den)

    def __len__(self) -> int:
        return len(self._num)

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def _combine(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators; a scalar
        other goes through the gate."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        self._check_same_ring(other)
        den = lcm(self._den, other._den)
        up, scale = den // self._den, sign * (den // other._den)
        out = dict(self._num) if up == 1 else {e: c * up for e, c in self._num.items()}
        get = out.get
        for e, c in other._num.items():
            s = get(e, 0) + c * scale
            if s:
                out[e] = s
            else:
                del out[e]
        return MultiPoly._make(self.arity, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return MultiPoly.constant(self.arity, other) - self

    def _scale(self, c: Scalar) -> "MultiPoly":
        if not c:
            return MultiPoly.zero(self.arity)
        num = {e: k * c.numerator for e, k in self._num.items()}
        return MultiPoly._make(self.arity, num, self._den * c.denominator)

    def __neg__(self):
        return self._scale(-1)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_same_ring(other)
            if not self._num or not other._num:
                return MultiPoly.zero(self.arity)
            width = _field_width(_degree(self._num) + _degree(other._num))
            pair = (1, _to_ints(self, width), _to_ints(other, width))
            return _from_ints(_product_sum([pair]), self.arity, width)
        return self._scale(as_rational(other, "coefficient"))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_rational(other, "divisor")
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self._scale(1 / c)

    def __pow__(self, exponent: int):
        result = MultiPoly.one(self.arity)
        for _ in range(as_index(exponent, "exponent", 0)):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return (self.arity, self._den, self._num) == (other.arity, other._den, other._num)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == MultiPoly.constant(self.arity, other)
        return NotImplemented

    __hash__ = None  # mutable-free but we do not promise hashability

    # -- substitution and reshaping ---------------------------------------

    def bind(self, index: int, value: Scalar) -> "MultiPoly":
        """Substitute a scalar for one variable.

        The arity is preserved; the variable simply no longer occurs.
        """
        if as_index(index, "index", 0) >= self.arity:
            raise ValueError(f"variable index {index} out of range")
        v = as_rational(value, "value")
        # Every term goes over v's denominator to the variable's top power.
        most = max((e[index] for e in self._num), default=0)
        out: dict[Exponent, int] = {}
        for e, c in self._num.items():
            k = e[index]
            rest = e[:index] + (0,) + e[index + 1:]
            out[rest] = out.get(rest, 0) + c * v.numerator**k * v.denominator ** (most - k)
        out = {e: c for e, c in out.items() if c}
        return MultiPoly._make(self.arity, out, self._den * v.denominator**most)

    def __repr__(self) -> str:
        return f"MultiPoly({self.arity}: {format_poly_text(self)})"


# -- integer kernels -------------------------------------------------------
#
# The product and division loops run on a packed form of a polynomial: its
# numerators keyed by packed exponents, plus its denominator.  An exponent
# tuple (e_1..e_n) packs into the integer whose fields, most significant
# first, are (e_1 + ... + e_n, e_1, ..., e_n), each `width` bits wide.
# Adding packed keys adds exponent vectors as long as no field outgrows its
# width, and comparing them compares in the graded lexicographic order, so
# each loop sizes the width from the largest total degree it can produce.


def _degree(terms: Mapping[Exponent, object]) -> int:
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


def _to_ints(poly: MultiPoly, width: int) -> _Cleared:
    """Numerators of `poly` keyed by packed exponents, and its denominator."""
    return {_pack(e, width): c for e, c in poly._num.items()}, poly._den


def _from_ints(cleared: _Cleared, arity: int, width: int) -> MultiPoly:
    """Inverse of `_to_ints`; the numerators must be nonzero."""
    nums, den = cleared
    return MultiPoly._make(arity, {_unpack(k, arity, width): c for k, c in nums.items()}, den)


def _product_sum(pairs: Sequence[tuple[int, _Cleared, _Cleared]]) -> _Cleared:
    """Sum of sign * a * b over (sign, a, b) triples of packed polynomials.

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

    The loop runs on packed integer numerators, the divisor's divided by
    their content.  By Gauss's lemma an exact quotient by that primitive
    divisor has integer numerators, so each remainder's leading numerator
    must be a multiple of the divisor's, or the division is not exact.
    Remainder terms wait in a max-heap of packed exponents; a popped term
    whose coefficient has cancelled to zero is skipped.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.arity != divisor.arity:
        raise ValueError("polynomials live in different rings")
    if numerator.is_zero:
        return MultiPoly.zero(numerator.arity)
    arity = numerator.arity
    # No remainder or quotient term outgrows the larger of the two degrees.
    width = _field_width(max(_degree(numerator._num), _degree(divisor._num)))
    rem, num_den = _to_ints(numerator, width)
    div, div_den = _to_ints(divisor, width)
    content = gcd(*div.values())
    lead_k = max(div)
    lead_c = div.pop(lead_k) // content
    lead_e = _unpack(lead_k, arity, width)
    tail = [(k, c // content) for k, c in div.items()]
    heap = [-k for k in rem]
    heapify(heap)
    quot: dict[int, int] = {}
    while heap:
        k = -heappop(heap)
        rc = rem.pop(k)
        if not rc:
            continue
        re = _unpack(k, arity, width)
        qc, left = divmod(rc, lead_c)
        if left or any(a < b for a, b in zip(re, lead_e)):
            raise DivisionNotExactError(
                f"leading term {rc}*x^{re} not divisible by divisor leading term"
                f" {lead_c}*x^{lead_e}"
            )
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
    # quot = (num_den * numerator) / (div_den * divisor / content).
    for q in quot:
        quot[q] *= div_den
    return _from_ints((quot, content * num_den), arity, width)


# -- determinants ----------------------------------------------------------


def determinant(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a square matrix given as a list of rows, whose entries share
    one ring: packed and expanded by `_cofactor_det`, then unpacked and reduced.
    A 1 x 1 determinant is its entry, returned as it is, with nothing packed."""
    n = len(rows)
    if n == 0:
        raise ValueError("matrix needs at least one row")
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    arity = rows[0][0].arity
    if any(p.arity != arity for row in rows for p in row):
        raise ValueError("matrix entries must share one ring")
    if n == 1:
        return rows[0][0]
    # The determinant's total degree is at most the sum of the rows' largest.
    width = _field_width(
        sum(max((_degree(p._num) for p in row if p._num), default=0) for row in rows)
    )
    cleared = [[_to_ints(p, width) for p in row] for row in rows]
    return _from_ints(_cofactor_det(cleared), arity, width)


def _cofactor_det(rows: Sequence[Sequence[_Cleared]]) -> _Cleared:
    """The determinant of packed entries (keys add as monomials multiply, and the
    caller sizes the fields so that none carries), along the top row with
    memoised minors, each cofactor one `_product_sum` over the row's nonzero
    entries.  Not reduced; the empty matrix gives 1, a 1 x 1 one its entry."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
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
        row = rows[n - mask.bit_count()]
        pairs = []
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            entry = row[low.bit_length() - 1]
            if entry[0]:
                sub = minor(mask ^ low)
                if sub[0]:
                    pairs.append((sign, entry, sub))
            sign = -sign
            rest ^= low
        got = memo[mask] = _product_sum(pairs)
        return got

    return minor((1 << n) - 1)


# -- serialisation and printing --------------------------------------------

# Per printed style: variable name, power, product, coefficient joint, fraction.
_STYLES = {
    "text": ("x{}", "{}^{}", "*", "*", "{}/{}"),
    "latex": ("x_{{{}}}", "{}^{{{}}}", "", " ", "\\frac{{{}}}{{{}}}"),
}


def _terms(poly: MultiPoly) -> tuple[list[tuple[int, Exponent, int]], dict[int, _Ratio]]:
    """The (degree, exponent, numerator) triples, leading term first (the
    exponents are distinct, so the sort never compares numerators), and each
    distinct numerator reduced once, {numerator: (p, q)} with q > 0.  Every
    output of a polynomial is written from here, formatting each distinct
    coefficient once and looking it up for each term."""
    num, den = poly._num, poly._den
    reduced = {}
    for c in set(num.values()):
        g = gcd(c, den)
        reduced[c] = (c // g, den // g)
    return sorted(zip(map(sum, num), num, num.values()), reverse=True), reduced


def _ratio(p: int, q: int, style: str = "text") -> str:
    """Reduced p/q, q > 0, in a printed style ("text" reads as a `Fraction`)."""
    return str(p) if q == 1 else _STYLES[style][4].format(p, q)


def poly_to_json_terms(poly: MultiPoly) -> list[dict]:
    """JSON-ready term list, leading term first; each coefficient reads as `str`
    of its reduced `Fraction`."""
    terms, reduced = _terms(poly)
    text = {c: _ratio(p, q) for c, (p, q) in reduced.items()}
    return [{"e": list(e), "c": text[c]} for _, e, c in terms]


def _join_signed(terms: Iterable[tuple[str, Scalar]]) -> str:
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


def format_poly_text(
    poly: MultiPoly, names: Sequence[str] | None = None, style: str = "text"
) -> str:
    """Rendering such as ``x1^2 - 1``, or ``x_{1}^{2} - 1`` in the "latex"
    style, leading term first."""
    var, power, times, sep, _ = _STYLES[style]
    if names is None:
        names = [var.format(i + 1) for i in range(poly.arity)]
    terms, reduced = _terms(poly)
    mags = {c: _ratio(abs(p), q, style) for c, (p, q) in reduced.items()}

    @cache
    def atom(i: int, k: int) -> str:
        return power.format(names[i], k) if k > 1 else names[i]

    variables = range(poly.arity)
    bodies = []
    for _, e, c in terms:
        mono = times.join(map(atom, compress(variables, e), filter(None, e)))
        mag = mags[c]
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}{sep}{mono}"
        bodies.append((body, c))
    return _join_signed(bodies) or "0"
