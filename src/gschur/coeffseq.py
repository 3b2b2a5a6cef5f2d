"""Recurrence coefficient pairs (a, b) and the polynomial family they generate.

A coefficient sequence drives the monic three-term recurrence

    phi_{i+1}(z) = (z - a(i)) * phi_i(z) - b(i) * phi_{i-1}(z),

with phi_0 = 1 and phi_{-1} = 0, so phi_i is monic of degree i.  Sequences
come in two kinds: finite lookup tables, and closed forms that can also be
evaluated at non-integer rational arguments (needed by the stable layer's
shifted recursion).  Negative integer indices are governed by an extension
policy; the default extends by zero, and a custom table can be supplied to
exercise the fact that downstream determinants never depend on the choice.

Each sequence owns one memoised family, `seq.phis`, built with it; every
route of the package (bialternant rows, one-row polynomials, the stable
layer's scalar minors) reads phi_i from there, so each coefficient a(j),
b(j) that the family needs is evaluated once per sequence.  The family is
extended on integer coefficient maps over one denominator per row, with
no polynomial products or sums.  Next to it, `seq.families` memoises the
stable layer's successful interpolations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

from .exactalg import (
    MultiPoly, _eval_homogeneous, _scaled_sum, as_container, as_index, as_rational,
)

_ZERO = Fraction(0)


class PoleError(ZeroDivisionError):
    """A closed-form coefficient was evaluated at a pole.

    Carries the offending argument in `index` so callers can report exactly
    which evaluation failed.
    """

    def __init__(self, index, message: str | None = None):
        self.index = index
        super().__init__(message or f"coefficient sequence has a pole at {index}")


def _lookup(values: Sequence, which: str) -> Callable[[int], Fraction]:
    """Index function of a finite table; raises IndexError past its end."""
    values = as_container(values, f"{which}_table", Sequence)
    table = tuple(as_rational(v, f"{which}[{k}]") for k, v in enumerate(values))

    def of(i: int) -> Fraction:
        try:
            return table[i]
        except IndexError:
            raise IndexError(
                f"{which}({i}) is beyond the stored table of length {len(table)}"
            ) from None

    return of


def _extension(table, which: str) -> dict[int, Fraction]:
    """A custom negative-index table (None for none): a mapping, its keys
    through the index gate and its values through the scalar gate."""
    table = {} if table is None else as_container(table, which, Mapping)
    out = {as_index(k, f"{which} key"): as_rational(v, f"{which}[{k}]")
           for k, v in table.items()}
    if any(k >= 0 for k in out):
        raise ValueError("custom extension tables may only hold negative indices")
    return out


class CoeffSeq:
    """A pair of coefficient sequences with a negative-index extension policy.

    A table (`from_tables`) and a closed form (`from_functions`, which also
    takes non-integer rationals) are both two functions of the index, a_of
    and b_of; `kind` says which ("table" or "closed-form").  `a(i)` / `b(i)`
    read them at integer indices, or the extension below 0; `a_at(x)` /
    `b_at(x)` evaluate a closed form at any rational and refuse a table.
    `phis` is the sequence's own memoised recurrence family.  `families`
    maps a partition to the family `stable.interpolate_c_family` fitted for
    it; it holds successes only and starts empty, so `with_negative` gets its
    own.
    """

    def __init__(
        self,
        a_of: Callable[[int], Fraction],
        b_of: Callable[[int], Fraction],
        *,
        closed_form: bool,
        negative_a: Mapping[int, Fraction] | None = None,
        negative_b: Mapping[int, Fraction] | None = None,
        name: str | None = None,
    ):
        self._a_of = a_of
        self._b_of = b_of
        self.is_closed_form = closed_form
        self.kind = "closed-form" if closed_form else "table"
        self.name = name
        self._neg_a = _extension(negative_a, "negative_a")
        self._neg_b = _extension(negative_b, "negative_b")
        self.phis = UniPolySeq(self)
        self.families: dict = {}

    @classmethod
    def from_tables(
        cls,
        a_table: Sequence,
        b_table: Sequence,
        *,
        negative_a: Mapping[int, Fraction] | None = None,
        negative_b: Mapping[int, Fraction] | None = None,
        name: str | None = None,
    ) -> "CoeffSeq":
        return cls(
            _lookup(a_table, "a"),
            _lookup(b_table, "b"),
            closed_form=False,
            negative_a=negative_a,
            negative_b=negative_b,
            name=name,
        )

    @classmethod
    def from_functions(
        cls,
        a_func: Callable[[Fraction], Fraction],
        b_func: Callable[[Fraction], Fraction],
        *,
        negative_a: Mapping[int, Fraction] | None = None,
        negative_b: Mapping[int, Fraction] | None = None,
        name: str | None = None,
    ) -> "CoeffSeq":
        return cls(
            lambda x: a_func(as_rational(x, "x")),
            lambda x: b_func(as_rational(x, "x")),
            closed_form=True,
            negative_a=negative_a,
            negative_b=negative_b,
            name=name,
        )

    def a(self, i: int) -> Fraction:
        """a(i) at an index read by the index gate, applying the negative-index
        extension."""
        return self._neg_a.get(i, _ZERO) if as_index(i, "i") < 0 else self._a_of(i)

    def b(self, i: int) -> Fraction:
        """b(i), read as `a` reads a(i)."""
        return self._neg_b.get(i, _ZERO) if as_index(i, "i") < 0 else self._b_of(i)

    def a_at(self, x: Fraction) -> Fraction:
        """Closed-form evaluation of a at an arbitrary rational argument."""
        if not self.is_closed_form:
            raise ValueError("a_at requires a closed-form coefficient sequence")
        return self._a_of(x)

    def b_at(self, x: Fraction) -> Fraction:
        if not self.is_closed_form:
            raise ValueError("b_at requires a closed-form coefficient sequence")
        return self._b_of(x)

    def with_negative(
        self, negative_a: Mapping[int, Fraction], negative_b: Mapping[int, Fraction]
    ) -> "CoeffSeq":
        """Same nonnegative-index data, different negative-index extension."""
        return CoeffSeq(
            self._a_of,
            self._b_of,
            closed_form=self.is_closed_form,
            negative_a=negative_a,
            negative_b=negative_b,
            name=self.name,
        )

    def table_dump(self, upto: int) -> dict:
        """First `upto` coefficients as strings, for counterexample reports."""

        def grab(get):
            out = []
            for i in range(upto):
                try:
                    out.append(str(get(i)))
                except (IndexError, PoleError):
                    out.append(None)
            return out

        return {"a": grab(self.a), "b": grab(self.b)}

    def __repr__(self) -> str:
        tag = self.name or self.kind
        return f"CoeffSeq({tag})"


class UniPolySeq:
    """Memoised generator of the monic recurrence family phi_i.

    phi_{-1} = 0 and phi_0 = 1 seed the recurrence; phi_i for i >= 1 is monic
    of degree i.  All values are univariate MultiPoly instances.  Every
    `CoeffSeq` builds one of these as `seq.phis`; the package reads phi only
    from there.  Each step of the recurrence is one `exactalg._scaled_sum`
    of integer coefficient maps over one denominator per row, reading a(j)
    before b(j); no polynomial arithmetic is involved.  Only computed rows
    are memoised, so a PoleError or IndexError met while extending the
    family is raised again on every call that needs the missing row.  The
    index goes through the index gate (at least -1) before the memo is read.
    """

    def __init__(self, seq: CoeffSeq):
        self.seq = seq
        self._memo: dict[int, MultiPoly] = {-1: MultiPoly.zero(1), 0: MultiPoly.one(1)}
        # Numerators {power of z: n} and denominator of the two highest
        # stored rows, lower first: the state that extends the family.
        self._last = (({}, 1), ({0: 1}, 1))

    def phi(self, i: int) -> MultiPoly:
        got = self._memo.get(as_index(i, "i", -1))
        if got is not None:
            return got
        (p2, d2), (p1, d1) = self._last
        for j in range(len(self._memo) - 2, i):
            a = as_rational(self.seq.a(j), "a")
            b = as_rational(self.seq.b(j), "b")
            # (z - a) p1/d1 - b p2/d2, low powers first to keep the terms ordered
            nxt, den = _scaled_sum((
                (-b.numerator, p2, b.denominator * d2),
                (-a.numerator, p1, a.denominator * d1),
                (1, {m + 1: c for m, c in p1.items()}, d1),
            ))
            self._memo[j + 1] = MultiPoly._make(1, {(m,): c for m, c in nxt.items()}, den)
            (p2, d2), (p1, d1) = self._last = ((p1, d1), (nxt, den))
        return self._memo[i]


# -- JSON sequence files ----------------------------------------------------


def coeffseq_from_json(obj) -> CoeffSeq:
    """Build a table-kind sequence from the JSON file format.

    The format is an object ``{"a": [...], "b": [...], "negative": "zero"}``
    whose arrays hold integers or strings read exactly by `Fraction`, such as
    "-3/2", "1.5" (3/2) or "1e3" (1000); JSON floats are rejected.  `negative`
    may instead be an object with optional "a" and "b" objects mapping
    negative indices to values.  Other keys, `name` included, are not read.
    Any other shape, or an entry that is not an exact rational, raises
    ValueError.
    """
    if not isinstance(obj, Mapping):
        raise ValueError("a sequence file must hold a JSON object")
    if not isinstance(obj.get("a"), list) or not isinstance(obj.get("b"), list):
        raise ValueError("sequence object needs 'a' and 'b' arrays")
    negative = obj.get("negative", "zero")
    if negative == "zero":
        negative = {}
    if not isinstance(negative, Mapping) or not all(
        isinstance(v, Mapping) for v in negative.values()
    ):
        raise ValueError("'negative' must be \"zero\" or an object with a/b maps")
    neg = {key: {int(k): v for k, v in negative.get(key, {}).items()} for key in "ab"}
    try:
        return CoeffSeq.from_tables(
            obj["a"], obj["b"], negative_a=neg["a"], negative_b=neg["b"]
        )
    except TypeError as exc:
        raise ValueError(f"bad sequence entry: {exc}") from None


def load_coeffseq(path) -> CoeffSeq:
    with open(path, "r", encoding="utf-8") as fh:
        return coeffseq_from_json(json.load(fh))


def random_coeffseq(rng, length: int = 64) -> CoeffSeq:
    """Seeded random table sequence used by the verification sweeps.

    Coefficients are small rationals p/q with |p| <= 9 and 1 <= q <= 4, which
    keeps Fraction arithmetic fast while still exercising non-integer values.
    """

    def draw() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    as_index(length, "length", 0)
    a = [draw() for _ in range(length)]
    b = [draw() for _ in range(length)]
    return CoeffSeq.from_tables(a, b)


def random_polynomial_coeffseq(rng, degree: int = 1) -> CoeffSeq:
    """Seeded closed-form sequence with random polynomial a and b.

    Polynomial coefficients are the generic choice for which the stable-layer
    expansion coefficients really are rational in the variable count, so this
    is the right randomised input for interpolation checks; a plain lookup
    table carries no such structure.
    """

    def draw_poly():
        cs = tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(degree + 1)
        )
        # Integer numerators over one denominator, evaluated at x = s/t by
        # homogeneous Horner: the value is their sum over den * t^degree.
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]

        def evaluate(x: Fraction) -> Fraction:
            t = x.denominator
            return Fraction(_eval_homogeneous(nums, x.numerator, t), den * t**degree)

        return evaluate

    return CoeffSeq.from_functions(draw_poly(), draw_poly())
