"""Tests for the sparse polynomial core and exact determinants."""

import json
import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gschur.exactalg import (
    DivisionNotExactError,
    MultiPoly,
    _scaled_sum,
    _terms,
    determinant,
    exact_divide,
    format_poly_text,
    grlex_key,
    poly_to_json_terms,
)

from oracles import (
    apply_permutation,
    fraction_linear,
    fraction_product,
    leibniz_det,
    per_term_json,
    per_term_text,
    scalar_pair,
    vandermonde,
)

F = Fraction


def x(i, arity=2):
    return MultiPoly.variable(arity, i)


@st.composite
def small_polys(draw, arity=2, max_exp=3, max_terms=5):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        e = tuple(
            draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(arity)
        )
        num = draw(st.integers(min_value=-8, max_value=8))
        den = draw(st.integers(min_value=1, max_value=4))
        terms[e] = F(num, den)
    return MultiPoly(arity, terms)


def rational_terms(arity=3, max_exp=2, max_terms=4):
    """Term maps with coefficients of denominator up to 12, zeros included."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * arity),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        max_size=max_terms,
    )


def rational_polys(arity=3, max_exp=2, max_terms=4):
    """Polynomials whose coefficients have denominators up to 12."""
    return rational_terms(arity, max_exp, max_terms).map(lambda t: MultiPoly(arity, t))


def assert_canonical(p):
    """Reduced nonzero Fraction coefficients, Fraction(0) for an absent
    monomial, and the stored form's invariants: nonzero integer numerators
    over a positive denominator sharing no factor with them."""
    for _, c in p.items():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    if p.arity:
        top = max((sum(e) for e, _ in p.items()), default=0)
        absent = p.coefficient((top + 1,) + (0,) * (p.arity - 1))
        assert type(absent) is Fraction and absent == 0
    assert all(type(c) is int and c for c in p._num.values())
    assert p._den > 0 and gcd(p._den, *p._num.values()) == 1


def test_construction_strips_zero_coefficients():
    p = MultiPoly(2, {(1, 0): F(0), (0, 1): F(3)})
    assert len(p) == 1
    assert p.coefficient((1, 0)) == 0
    assert p.coefficient((0, 1)) == 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(2, {(1.9, 0): 1, (1, 0): 2}),
        lambda: MultiPoly(2, {(1.0, 0): 1}),
        lambda: MultiPoly(1, {(F(2),): 1}),
        lambda: MultiPoly(2, {(True, 0): 1}),
        lambda: MultiPoly.monomial(1, [F(3, 2)]),
        lambda: MultiPoly.monomial(2, (0, "1")),
    ],
    ids=["float", "integral-float", "integral-fraction", "bool", "monomial-fraction", "str"],
)
def test_exponents_must_be_integers(build):
    # Truncating would read {(1.9, 0): 1, (1, 0): 2} as 2*x1, losing a term.
    with pytest.raises(TypeError, match="^exponent must be an int, got "):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(2, {(1, 0): True, (0, 1): False}),
        lambda: MultiPoly.constant(2, False),
        lambda: MultiPoly.variable(2, 0) * True,
        lambda: True * MultiPoly.variable(2, 0),
        lambda: MultiPoly.variable(2, 0) + True,
        lambda: False - MultiPoly.variable(2, 0),
        lambda: MultiPoly.variable(2, 0) / True,
    ],
    ids=["constructor", "constant", "mul", "rmul", "add", "rsub", "truediv"],
)
def test_coefficients_must_not_be_bools(build):
    # bool is an int subclass; reading True as 1 would hide a malformed input.
    with pytest.raises(TypeError, match="got bool"):
        build()


def test_zero_polynomial_degree_convention():
    z = MultiPoly.zero(3)
    assert z.is_zero
    assert not z


def test_grlex_orders_by_degree_then_lex():
    assert grlex_key((2, 0)) > grlex_key((1, 1)) > grlex_key((0, 2))
    assert grlex_key((0, 3)) > grlex_key((2, 0))


def test_leading_term_of_zero_raises():
    with pytest.raises(ValueError):
        MultiPoly.zero(1).leading_term()


def test_leading_term_pinned():
    p = x(0) ** 2 * x(1) + x(0) * x(1) ** 2 + x(0)
    assert p.leading_term() == ((2, 1), F(1))


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MultiPoly.zero(2)
    assert a * MultiPoly.one(2) == a


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_scalar_promotion(a):
    assert a + 0 == a
    assert 1 * a == a
    assert a * F(1, 2) + a * F(1, 2) == a
    assert a - F(2) == a + (-2)
    assert 3 - a == -(a - 3)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiPoly.one(2) + MultiPoly.one(3)


def test_power_and_division_by_scalar():
    p = x(0) + x(1)
    assert p ** 0 == MultiPoly.one(2)
    assert p ** 2 == x(0) ** 2 + 2 * x(0) * x(1) + x(1) ** 2
    assert (2 * p) / 2 == p
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_bind_scalar():
    p = x(0) ** 2 * x(1) - x(1)
    assert p.bind(0, 2) == 4 * x(1) - x(1)
    # the bound variable no longer occurs, and the arity is kept
    assert p.bind(1, F(1, 2)) == F(1, 2) * x(0) ** 2 - F(1, 2)


def test_apply_permutation_swaps_variables():
    p = x(0) ** 2 + 3 * x(1)
    assert apply_permutation(p, [1, 0]) == x(1) ** 2 + 3 * x(0)
    with pytest.raises(ValueError):
        apply_permutation(p, [0, 0])


def test_exact_divide_pinned_product():
    # (x1 + x2)(x1^2 + x1 x2 + x2^2) = x1^3 + 2x1^2 x2 + 2x1 x2^2 + x2^3
    a = x(0) + x(1)
    b = x(0) ** 2 + x(0) * x(1) + x(1) ** 2
    assert exact_divide(a * b, a) == b
    assert exact_divide(a * b, b) == a


@given(small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_exact_divide_roundtrip(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            exact_divide(a, b)
    else:
        assert exact_divide(a * b, b) == a


def test_exact_divide_rejects_inexact():
    with pytest.raises(DivisionNotExactError):
        exact_divide(x(0) ** 2 + x(1), x(0) + x(1))


@given(rational_polys(), rational_polys())
@settings(max_examples=80, deadline=None)
def test_product_matches_fraction_oracle(a, b):
    product = a * b
    assert product == fraction_product(a, b)
    assert_canonical(product)


@given(st.integers(1, 3).flatmap(
    lambda size: st.lists(
        st.lists(rational_polys(arity=2), min_size=size, max_size=size),
        min_size=size, max_size=size,
    )
))
@settings(max_examples=40, deadline=None)
def test_determinant_matches_fraction_leibniz(rows):
    det = determinant(rows)
    assert det == leibniz_det(rows)
    assert_canonical(det)


@given(rational_polys(), rational_polys())
@settings(max_examples=60, deadline=None)
def test_exact_divide_of_oracle_product_is_canonical(a, b):
    if b.is_zero:
        return
    q = exact_divide(fraction_product(a, b), b)
    assert q == a
    assert_canonical(q)


def symmetrized(p):
    out = MultiPoly.zero(p.arity)
    for perm in permutations(range(p.arity)):
        out = out + apply_permutation(p, perm)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_divide_by_vandermonde_round_trip(n):
    rng = random.Random(n)
    for _ in range(3):
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)): F(rng.randint(-9, 9), rng.randint(1, 12))
            for _ in range(3)
        }
        p = symmetrized(MultiPoly(n, terms))
        v = vandermonde(n)
        assert exact_divide(fraction_product(v, p), v) == p


def test_exact_divide_scales_for_a_non_unit_leading_coefficient():
    # Cleared, the divisor is 21*x1 + 18*x2 (content 3) and the numerator's
    # leading numerator is 77, not a multiple of 21 but of 7, the leading
    # numerator of the primitive divisor 7*x1 + 6*x2.
    divisor = F(3, 2) * x(0) + F(9, 7) * x(1)
    quotient = F(1, 3) * x(0) ** 2 - F(2, 3) * x(0) * x(1) + F(5, 11) * x(1) ** 2 + F(1, 3)
    q = exact_divide(fraction_product(quotient, divisor), divisor)
    assert q == quotient
    assert_canonical(q)


def test_exact_divide_rejects_a_leading_coefficient_it_cannot_divide():
    # x1 + 1 is no multiple of the primitive 2*x1 + 1 over the integers, so
    # by Gauss's lemma it is none over the rationals either.
    with pytest.raises(DivisionNotExactError, match=r"1\*x\^\(1, 0\)"):
        exact_divide(x(0) + 1, 2 * x(0) + 1)
    assert exact_divide(4 * x(0) + 2, 2 * x(0) + 1) == MultiPoly.constant(2, 2)


def test_exact_divide_fails_after_several_quotient_terms():
    # The quotient gains x1^3, x1^2*x2 and x1*x2^2 before 5*x2^4 is left.
    divisor = x(0) + x(1)
    partial = x(0) ** 3 + 2 * x(0) ** 2 * x(1) + F(1, 2) * x(0) * x(1) ** 2
    numerator = fraction_product(divisor, partial) + 5 * x(1) ** 4
    with pytest.raises(DivisionNotExactError, match=r"x\^\(0, 4\)"):
        exact_divide(numerator, divisor)


def test_exact_divide_skips_cancelled_remainder_terms():
    # x2^3 cancels before it is popped.
    assert exact_divide(x(0) ** 3 - x(1) ** 3, x(0) - x(1)) == (
        x(0) ** 2 + x(0) * x(1) + x(1) ** 2
    )
    # The remainder's x1^2 term cancels and is revived by the next step
    # before it is popped; its x1 and constant terms end cancelled.
    divisor = x(0) ** 2 + 2 * x(0) - 1
    quotient = 2 * x(0) ** 2 + x(0) - 2
    assert exact_divide(fraction_product(divisor, quotient), divisor) == quotient


def test_determinant_2x2_pinned():
    m = [[x(0), x(1)], [MultiPoly.one(2), x(0)]]
    assert determinant(m) == x(0) ** 2 - x(1)


def test_determinant_of_order_one_is_its_entry():
    p, q = x(0) ** 2 - 3 * x(1), x(1)
    assert determinant([[p]]) is p
    for rows in ([[p, q]], [[p], [q]], []):
        with pytest.raises(ValueError):
            determinant(rows)


def test_determinant_row_swap_changes_sign():
    rows = [[x(0), x(1)], [x(1) ** 2, MultiPoly.one(2)]]
    swapped = [rows[1], rows[0]]
    assert determinant(rows) == -determinant(swapped)


def test_determinant_with_zero_row_is_zero():
    z = MultiPoly.zero(2)
    rows = [[x(0), x(1)], [z, z]]
    assert determinant(rows).is_zero


def test_determinant_agrees_with_leibniz():
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = F(rng.randint(-5, 5), rng.randint(1, 3))
        return MultiPoly(2, terms)

    for size in (1, 2, 3, 4):
        for _ in range(4):
            rows = [[rand_poly() for _ in range(size)] for _ in range(size)]
            assert determinant(rows) == leibniz_det(rows)


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant([[x(0), x(1)]])
    with pytest.raises(ValueError):
        determinant([[x(0)], [x(1)]])


def test_vandermonde_matches_leibniz_power_matrix():
    n = 3
    rows = [
        [MultiPoly.variable(n, i) ** (n - 1 - j) for j in range(n)]
        for i in range(n)
    ]
    assert vandermonde(n) == leibniz_det(rows)


def test_determinant_shape_checks():
    with pytest.raises(ValueError):
        determinant([])
    with pytest.raises(ValueError):
        determinant([[x(0)], [x(0), x(1)]])
    with pytest.raises(ValueError):
        determinant([[x(0), x(1)], [x(0), MultiPoly.one(3)]])


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(p):
    data = poly_to_json_terms(p)
    assert MultiPoly(2, {tuple(item["e"]): F(item["c"]) for item in data}) == p
    # terms must come out in descending graded-lex order
    keys = [tuple(item["e"]) for item in data]
    assert keys == sorted(keys, key=grlex_key, reverse=True)


@given(
    st.integers(0, 5).flatmap(
        lambda k: st.tuples(st.just(k), rational_terms(arity=k, max_exp=3, max_terms=8))
    ),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_terms_come_in_descending_grlex_order_and_reduced(case, integral):
    arity, terms = case
    if integral:  # den == 1, so every (p, q) has q == 1
        terms = {e: c.numerator for e, c in terms.items()}
    p = MultiPoly(arity, terms)
    terms, reduced = _terms(p)
    assert [e for _, e, _ in terms] == sorted(p._num, key=grlex_key, reverse=True)
    assert set(reduced) == set(p._num.values())
    for degree, e, c in terms:
        assert degree == sum(e) and c == p._num[e]
        top, bottom = reduced[c]
        assert F(top, bottom) == p.coefficient(e)
        assert bottom > 0 and gcd(top, bottom) == 1


@st.composite
def repeated_coefficient_polys(draw):
    """Polynomials in 0..5 variables whose few distinct coefficients, of
    either sign and mostly with denominators other than 1, sit on many
    terms each, as a shifted one-row family's do."""
    arity = draw(st.integers(0, 5))
    pool = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=4
        )
    )
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=40, unique=True))
    return MultiPoly(arity, {e: draw(st.sampled_from(pool)) for e in exps})


@given(repeated_coefficient_polys())
@settings(max_examples=150, deadline=None)
def test_writers_match_the_per_term_oracle_byte_for_byte(p):
    assert json.dumps(poly_to_json_terms(p)) == json.dumps(per_term_json(p))
    for style in ("text", "latex"):
        assert format_poly_text(p, style=style) == per_term_text(p, style=style)
    names = [f"y{k}" for k in range(p.arity)]
    assert format_poly_text(p, names) == per_term_text(p, names)


def test_equality_with_a_bool_is_false():
    for p in (MultiPoly.variable(1, 0), MultiPoly.one(1), MultiPoly.zero(2)):
        assert not p == True  # noqa: E712 (the comparison is the test)
        assert not p == False  # noqa: E712
        assert p != True  # noqa: E712
        assert p not in [True, False]
    assert MultiPoly.one(1) == 1 and MultiPoly.zero(1) == 0


def test_format_poly_text_pinned():
    assert format_poly_text(x(0) ** 2 - MultiPoly.one(2)) == "x1^2 - 1"
    assert format_poly_text(MultiPoly.zero(2)) == "0"
    assert format_poly_text(MultiPoly.constant(2, F(3, 4))) == "3/4"
    assert format_poly_text(-F(1, 2) * x(0) + 2) == "-1/2*x1 + 2"
    assert format_poly_text(2 * x(0) * x(1)) == "2*x1*x2"
    assert format_poly_text(x(0), names=["z"]) == "z"
    latex = format_poly_text(-F(1, 2) * x(0) ** 2 * x(1) + 2, style="latex")
    assert latex == "-\\frac{1}{2} x_{1}^{2}x_{2} + 2"


# -- the stored integer form against plain Fraction dicts ------------------


@given(st.integers(0, 3).flatmap(lambda k: st.tuples(st.just(k), rational_terms(arity=k))))
@settings(max_examples=80, deadline=None)
def test_items_round_trip_the_term_map(case):
    arity, terms = case
    p = MultiPoly(arity, terms)
    assert dict(p.items()) == {e: c for e, c in terms.items() if c}
    assert_canonical(p)


@given(
    rational_terms(),
    rational_terms(),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_linear_arithmetic_matches_fraction_oracle(ta, tb, s, same):
    if same:  # the same polynomial, written with a zero term more
        tb = {**ta, (3, 3, 3): F(0)}
    a, b = MultiPoly(3, ta), MultiPoly(3, tb)
    for got, want in (
        (a + b, fraction_linear([(1, ta), (1, tb)])),
        (a - b, fraction_linear([(1, ta), (-1, tb)])),
        (a * s, fraction_linear([(s, ta)])),
        (s * a, fraction_linear([(s, ta)])),
        (-a, fraction_linear([(-1, ta)])),
    ):
        assert dict(got.items()) == want
        assert_canonical(got)
    if s:
        q = a / s
        assert dict(q.items()) == fraction_linear([(1 / s, ta)])
        assert_canonical(q)
    assert (a == b) == (fraction_linear([(1, ta)]) == fraction_linear([(1, tb)]))


@given(rational_polys(), rational_polys())
@settings(max_examples=60, deadline=None)
def test_equal_polynomials_from_different_paths_are_identical(p, q):
    paths = [(p * 3) / 3, p + q - q, q + p - q, (p * F(7, 4)) * F(4, 7)]
    if q:
        paths.append(exact_divide(p * q, q))
    for other in paths:
        assert other == p
        assert poly_to_json_terms(other) == poly_to_json_terms(p)
        assert_canonical(other)


# -- the scaled-sum kernel ---------------------------------------------------


@st.composite
def scaled_parts(draw):
    """(s, nums, den) triples with mixed signs and denominators and zero
    scales; with `cancel`, each part is followed by its negation over a
    multiplied denominator, so the whole sum is zero."""
    parts = draw(st.lists(st.tuples(
        st.integers(-6, 6),
        st.dictionaries(st.integers(0, 4), st.integers(-9, 9), max_size=4),
        st.integers(1, 12),
    ), max_size=4))
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        parts += [(-s * k, nums, den * k) for s, nums, den in parts]
    return draw(st.permutations(parts))


@given(scaled_parts())
@settings(max_examples=200, deadline=None)
def test_scaled_sum_is_the_reduced_fraction_sum(parts):
    total = {}
    for s, nums, den in parts:
        for key, c in nums.items():
            total[key] = total.get(key, 0) + Fraction(s * c, den)
    got = _scaled_sum(parts)
    assert got == scalar_pair(total)
    nums, den = got
    assert den > 0 and all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1


def test_scaled_sum_pinned():
    assert _scaled_sum([]) == ({}, 1)
    assert _scaled_sum([(0, {0: 5}, 7), (3, {}, 2)]) == ({}, 1)
    assert _scaled_sum([(2, {0: 3, 1: -1}, 4), (-1, {0: 3, 1: -1}, 2)]) == ({}, 1)
    # 6/4 and 2/4 over the lcm 4 share the factor 2 with it.
    assert _scaled_sum([(3, {0: 2, 1: 1}, 4), (-1, {1: 1}, 4)]) == ({0: 3, 1: 1}, 2)
    assert _scaled_sum([(1, {2: 1}, 3), (1, {2: 1}, 6)]) == ({2: 1}, 2)
