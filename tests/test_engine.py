"""Tests for the finite-variable computation routes and their agreement."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gschur import engine, presets, verify
from gschur.coeffseq import CoeffSeq, PoleError, random_coeffseq
from gschur.engine import (
    GschurContext,
    first_column_det,
    monomial_symmetric,
    shift_coefficients,
)
from gschur.exactalg import MultiPoly
from gschur.partitions import compositions, partitions_up_to
from gschur.presets import bc_jacobi, schur, so_even, so_odd, sp
from gschur.stable import jt_infinite_check

from oracles import (
    alternation,
    apply_permutation,
    fraction_phi_table,
    fraction_product,
    fraction_shift_coefficients,
    leibniz_det,
    polynomial_lemma_residual,
    realised_by_products,
    scalar_pair,
    schur_by_tableaux,
    vandermonde,
)

F = Fraction


def xv(i, n):
    return MultiPoly.variable(n, i)


def seeded_seq(seed):
    return random_coeffseq(random.Random(seed))


def test_bialternant_single_variable_is_phi():
    ctx = GschurContext(1, sp())
    assert ctx.bialternant((2,)) == xv(0, 1) ** 2 - 1
    assert ctx.bialternant((5,)) == ctx.seq.phis.phi(5)


def test_bialternant_classical_pinned():
    ctx = GschurContext(2, schur())
    x1, x2 = xv(0, 2), xv(1, 2)
    assert ctx.bialternant((2, 1)) == x1 ** 2 * x2 + x1 * x2 ** 2
    ctx3 = GschurContext(3, schur())
    y1, y2, y3 = (xv(i, 3) for i in range(3))
    assert ctx3.bialternant((1, 1)) == y1 * y2 + y1 * y3 + y2 * y3


def test_bialternant_empty_partition_is_one():
    for n in (1, 2, 3):
        ctx = GschurContext(n, seeded_seq(1))
        assert ctx.bialternant(()) == MultiPoly.one(n)


def test_bialternant_rejects_long_partitions():
    ctx = GschurContext(2, schur())
    with pytest.raises(ValueError):
        ctx.bialternant((1, 1, 1))


def test_bialternant_matches_tableau_oracle():
    for n in (1, 2, 3):
        ctx = GschurContext(n, schur())
        for lam in partitions_up_to(5, n):
            assert ctx.bialternant(lam) == schur_by_tableaux(lam, n)


def test_bialternant_is_symmetric():
    ctx = GschurContext(3, seeded_seq(2))
    p = ctx.bialternant((3, 1))
    for perm in permutations(range(3)):
        assert apply_permutation(p, perm) == p


ORACLE_PRESETS = {
    "schur": schur,
    "sp": sp,
    "so_odd": so_odd,
    "so_even": so_even,
    "bc_jacobi(1, -3)": lambda: bc_jacobi(1, -3),
}


# A five-variable Leibniz sum takes about a second, so few examples.
@settings(max_examples=25, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(ORACLE_PRESETS)), st.integers(0, 2**16)),
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(list(partitions_up_to(4, n))))
    ),
)
def test_bialternant_times_vandermonde_is_the_phi_alternant(table, case):
    # The defining identity, checked by multiplying back: the Leibniz sum of
    # det[phi_{lam_k + n - k}(x_i)], with phi from the oracle's own recurrence.
    n, lam = case
    seq = ORACLE_PRESETS[table]() if isinstance(table, str) else seeded_seq(table)
    padded = list(lam) + [0] * (n - len(lam))
    phi = fraction_phi_table(seq, padded[0] + n - 1)
    rows = [
        [
            MultiPoly(n, {(0,) * i + (m,) + (0,) * (n - 1 - i): c
                          for m, c in enumerate(phi[padded[k] + n - 1 - k])})
            for i in range(n)
        ]
        for k in range(n)
    ]
    product = fraction_product(GschurContext(n, seq).bialternant(lam), vandermonde(n))
    assert product == leibniz_det(rows)


def test_h_is_one_row_bialternant():
    for seed in (3, 16):
        seq = seeded_seq(seed)
        for n in range(1, 5):
            ctx = GschurContext(n, seq)
            assert ctx.h(0) == MultiPoly.one(n)
            assert ctx.h(-4).is_zero
            for i in range(0, 9):
                assert ctx.h(i) == ctx.bialternant((i,) if i else ())


def test_routes_do_not_call_the_bialternant(monkeypatch):
    seq = seeded_seq(17)
    n = 3
    lams = [lam for lam in partitions_up_to(4, n) if lam]
    reference = GschurContext(n, seq)
    expected = {lam: reference.bialternant(lam) for lam in lams}
    one_rows = {i: reference.bialternant((i,) if i else ()) for i in range(6)}

    def forbidden(self, lam):
        raise AssertionError("the bialternant route was called")

    monkeypatch.setattr(GschurContext, "bialternant", forbidden)
    ctx = GschurContext(n, seq)
    for i, value in one_rows.items():
        assert ctx.h_shift(i, 0) == value
    for lam in lams:
        assert ctx.jacobi_trudi(lam) == expected[lam]
        assert ctx.giambelli(lam) == expected[lam]
    for i in range(0, 3):
        for r in range(1, i + 2 * n - 1):
            assert ctx.lemma_residual(i, r).is_zero


def test_h_shift_zero_is_h():
    ctx = GschurContext(3, seeded_seq(4))
    for i in range(-2, 4):
        assert ctx.h_shift(i, 0) == ctx.h(i)


def test_h_shift_pinned_single_step():
    # with a = 0, b = 1 the first shift is h_{i+1} + h_{i-1}
    ctx = GschurContext(2, sp())
    assert ctx.h_shift(1, 1) == ctx.h(2) + ctx.h(0)
    assert ctx.h_shift(0, 1) == ctx.h(1)  # h_{-1} contributes nothing


def test_h_shift_unrolls_the_recursion():
    seq = seeded_seq(5)
    n = 2
    ctx = GschurContext(n, seq)
    for i in range(-1, 3):
        for r in range(0, 4):
            lhs = ctx.h_shift(i, r + 1)
            rhs = (
                ctx.h_shift(i + 1, r)
                + seq.a(i + n - 1) * ctx.h_shift(i, r)
                + seq.b(i + n - 1) * ctx.h_shift(i - 1, r)
            )
            assert lhs == rhs


def test_h_shift_vanishes_below_the_diagonal():
    ctx = GschurContext(2, seeded_seq(6))
    for r in range(0, 5):
        for i in range(-6, -r):
            assert ctx.h_shift(i, r).is_zero
        # the boundary value sits at exactly i + r = 0
        assert ctx.h_shift(-r, r) == MultiPoly.one(2)


def test_support_is_the_compositions():
    for n in range(6):
        for d in range(9):
            assert engine._support(n, d) == tuple(compositions(n, d))


@pytest.mark.parametrize("first", [0, 1])
def test_h_shift_is_the_same_whichever_context_is_built_first(first):
    # The supports are shared process-wide by contexts of every n.  Start them
    # cold and fill them from either of two fresh contexts over equal,
    # separately built sequences, with a 2-variable context in between.
    engine._support.cache_clear()
    cases = [(i, r) for i in range(-1, 4) for r in range(4)]
    pair = [GschurContext(3, seeded_seq(8)), GschurContext(3, seeded_seq(8))]
    for ctx in (pair[first], GschurContext(2, seeded_seq(8)), pair[1 - first]):
        for i, r in cases:
            ctx.h_shift(i, r)
        # The bialternant reads no support, so it checks what was filled.
        assert [ctx.h(i) for i in range(4)] == [ctx.bialternant((i,)) for i in range(4)]
    assert [pair[0].h_shift(i, r) for i, r in cases] == [
        pair[1].h_shift(i, r) for i, r in cases
    ]


def test_shift_coefficients_single_step_for_sp():
    seq = sp()
    for n in (1, 2, 3):
        assert shift_coefficients(seq.a, seq.b, n, 0, 1, {}) == ({1: 1}, 1)
        for i in range(1, 5):
            step = shift_coefficients(seq.a, seq.b, n, i, 1, {})
            assert step == ({i + 1: 1, i - 1: 1}, 1)


def test_shift_coefficients_below_the_diagonal_read_nothing():
    def refuse(k):
        raise AssertionError(f"coefficient read at {k}")

    memo = {}
    for r in range(0, 5):
        for i in range(-8, -r):
            assert shift_coefficients(refuse, refuse, 2, i, r, memo) == ({}, 1)
    assert memo == {}


def test_shift_coefficients_store_no_zero_scalars():
    # a(k) = (-1)^k, b = 0: the f_{i+1} terms of the second shift cancel
    def a_of(k):
        return F(-1) ** k

    def b_of(k):
        return F(0)

    memo = {}
    for i in range(0, 4):
        assert shift_coefficients(a_of, b_of, 1, i, 2, memo) == ({i + 2: 1, i: 1}, 1)
    for i in range(-2, 3):
        for r in range(0, 5):
            shift_coefficients(a_of, b_of, 1, i, r, memo)
    assert memo
    assert all(c for nums, _ in memo.values() for c in nums.values())


def test_shift_coefficients_propagate_poles():
    def a_of(k):
        if k == 2:
            raise PoleError(k)
        return F(0)

    with pytest.raises(PoleError):
        shift_coefficients(a_of, lambda k: F(1), 1, 2, 1, {})
    with pytest.raises(ValueError):
        shift_coefficients(a_of, lambda k: F(1), 1, 2, -1, {})


def test_shift_coefficients_see_a_boundary_value_they_read():
    # at offset 1 the entry (0, 1) reads a(0), so the four-way comparison of
    # boundary_insensitivity can tell a(0) = 0 from a(0) = -1 there
    def b_of(k):
        return F(1)

    plain = shift_coefficients(lambda k: F(0), b_of, 1, 0, 1, {})
    moved = shift_coefficients(lambda k: F(-1) if k == 0 else F(0), b_of, 1, 0, 1, {})
    assert plain == ({1: 1}, 1)
    assert moved == ({1: 1, 0: -1}, 1)
    assert plain != moved


def _logged(of, log, tag):
    def read(k):
        log.append((tag, k))
        return of(k)

    return read


def _table_case(seed, extend, offset):
    seq = random_coeffseq(random.Random(seed))
    if extend:
        rng = random.Random(-seed - 1)
        neg_a, neg_b = ({-k: F(rng.randint(-9, 9), rng.randint(1, 4)) for k in range(1, 5)}
                        for _ in range(2))
        seq = seq.with_negative(neg_a, neg_b)
    return seq.a, seq.b, offset


_BC = bc_jacobi(1, -3)

# (a_of, b_of, offset): random tables and their negative extensions at
# integer offsets, bc_jacobi(1, -3) off the integers, the boundary variants.
shift_cases = st.one_of(
    st.builds(_table_case, st.integers(0, 999), st.booleans(), st.integers(1, 4)),
    st.fractions(-4, 4, max_denominator=4).map(lambda d: (_BC.a_at, _BC.b_at, d)),
    st.builds(
        lambda n, k: (*presets._boundary_variants(n)[k][:2], n),
        st.integers(1, 4), st.integers(0, 3),
    ),
)


@given(shift_cases, st.integers(-6, 5), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_shift_coefficients_match_the_fraction_oracle(case, i, r):
    a_of, b_of, offset = case
    logs, results = [], []
    for compute in (shift_coefficients, fraction_shift_coefficients):
        log, memo = [], {}
        try:
            got = compute(_logged(a_of, log, "a"), _logged(b_of, log, "b"), offset, i, r, memo)
        except PoleError:
            assert (i, r) not in memo
            got = PoleError
        logs.append(log)
        results.append(got)
    assert logs[0] == logs[1]
    got, want = results
    if want is PoleError:
        assert got is PoleError
        return
    nums, den = got
    assert {j: F(c, den) for j, c in nums.items()} == want
    assert den > 0 and all(type(c) is int and c for c in nums.values())
    assert gcd(den, *nums.values()) == 1


def test_jacobi_trudi_pinned_classical():
    ctx = GschurContext(2, schur())
    x1, x2 = xv(0, 2), xv(1, 2)
    # h2*h1 - h3, written out
    assert ctx.jacobi_trudi((2, 1)) == x1 ** 2 * x2 + x1 * x2 ** 2


def test_jacobi_trudi_equals_bialternant_on_seeded_sequences():
    for seed in (0, 1):
        seq = seeded_seq(seed)
        for n in (1, 2, 3):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(5, n):
                assert ctx.jacobi_trudi(lam) == ctx.bialternant(lam)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(sorted(ORACLE_PRESETS)), st.integers(0, 2**16)),
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from(list(partitions_up_to(6, n))))
    ),
)
def test_jacobi_trudi_and_fh_taken_in_lambda_equal_the_bialternant(table, case):
    # Both determinants are taken over free generators h_k and written in
    # x_1..x_n through Kostka numbers; the bialternant reads only phi.
    n, lam = case
    seq = ORACLE_PRESETS[table]() if isinstance(table, str) else seeded_seq(table)
    ctx = GschurContext(n, seq)
    bialt = ctx.bialternant(lam)
    assert ctx.jacobi_trudi(lam) == bialt
    if seq.name in presets.CLASSICAL_PRESETS:
        assert presets.fh_character_det(ctx, lam) == bialt


def _lambda_elements(depth):
    """Elements of Lambda on depth generators h_1..h_depth, of degree <= 6."""
    exponents = st.lists(st.integers(0, 3), min_size=depth, max_size=depth).map(tuple)
    coefficients = st.fractions(-5, 5, max_denominator=6).filter(bool)
    return st.dictionaries(
        exponents.filter(lambda e: sum(k * p for k, p in enumerate(e, 1)) <= 6),
        coefficients,
        max_size=6,
    ).map(lambda terms: MultiPoly(depth, terms))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5).flatmap(_lambda_elements))
def test_realise_equals_the_product_of_the_h_polynomials(n, elem):
    # Through the Schur and monomial coordinates against sum C prod h_k(x).
    assert engine._realise(elem, n) == realised_by_products(elem, n)


def test_hook_negative_arm_closed_form():
    ctx = GschurContext(2, seeded_seq(7))
    assert ctx.hook(-1, 0) == MultiPoly.one(2)
    assert ctx.hook(-2, 1) == MultiPoly.constant(2, -1)
    assert ctx.hook(-3, 2) == MultiPoly.one(2)
    assert ctx.hook(-3, 1).is_zero
    assert ctx.hook(-1, 3).is_zero


def test_hook_negative_arm_matches_its_determinant():
    # the first-column determinant with subscripts (u+1, 0, -1, ..., 1-v)
    # collapses to the closed form, whatever the negative extension does
    custom = {-1: F(3, 2), -2: F(-1), -3: F(2), -4: F(1, 3)}
    base = seeded_seq(8)
    for seq in (base, base.with_negative(custom, custom)):
        ctx = GschurContext(2, seq)
        for u in range(-4, 0):
            for v in range(0, 3):
                indices = [u + 1] + [1 - j for j in range(1, v + 1)]
                det = first_column_det(ctx.h_shift, indices, 2)
                assert det == ctx.hook(u, v)


def test_hook_positive_arm_is_the_hook_partition():
    ctx = GschurContext(3, seeded_seq(9))
    assert ctx.hook(1, 1) == ctx.bialternant((2, 1))
    assert ctx.hook(2, 0) == ctx.bialternant((3,))
    assert ctx.hook(0, 2) == ctx.bialternant((1, 1, 1))


def test_hook_shape_errors():
    ctx = GschurContext(2, seeded_seq(10))
    with pytest.raises(ValueError):
        ctx.hook(1, 2)  # leg needs three variables
    with pytest.raises(ValueError):
        ctx.hook(1, -1)


def test_giambelli_pinned_two_by_two():
    ctx = GschurContext(2, schur())
    # λ=(2,2) has Frobenius coordinates (1,0 | 1,0)
    expected = ctx.hook(1, 1) * ctx.hook(0, 0) - ctx.hook(1, 0) * ctx.hook(0, 1)
    assert ctx.giambelli((2, 2)) == expected
    assert ctx.giambelli((2, 2)) == ctx.bialternant((2, 2))


def test_giambelli_equals_bialternant_on_seeded_sequences():
    for seed in (2, 3):
        seq = seeded_seq(seed)
        for n in (1, 2, 3):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(5, n):
                assert ctx.giambelli(lam) == ctx.bialternant(lam)


def test_jacobi_trudi_and_giambelli_share_each_determinant(monkeypatch):
    # The order of every engine determinant call of order >= 2; a 1 x 1
    # determinant is its entry and is not counted.
    orders = []
    real = engine.determinant

    def counting(rows):
        if len(rows) >= 2:
            orders.append(len(rows))
        return real(rows)

    monkeypatch.setattr(engine, "determinant", counting)
    for seq in (schur(), seeded_seq(14)):
        # A hook partition: Giambelli reads the Jacobi-Trudi result as its 1 x 1 matrix.
        ctx = GschurContext(3, seq)
        orders.clear()
        jt = ctx.jacobi_trudi((3, 1, 1))
        assert ctx.giambelli((3, 1, 1)) == jt == ctx.bialternant((3, 1, 1))
        assert orders == [3]
        # (2, 2) = (1 0 | 1 0): once its four hooks are memoised, one 2 x 2 determinant.
        ctx = GschurContext(2, seq)
        hooks = [ctx.hook(u, v) for u in (1, 0) for v in (1, 0)]
        assert hooks[0] == ctx.jacobi_trudi((2, 1)) == ctx.bialternant((2, 1))
        orders.clear()
        assert ctx.giambelli((2, 2)) == ctx.bialternant((2, 2))
        assert orders == [2]
        assert ctx.jacobi_trudi((2, 2)) == ctx.bialternant((2, 2))
        assert orders == [2, 2]


def test_giambelli_empty_partition():
    ctx = GschurContext(2, seeded_seq(12))
    assert ctx.giambelli(()) == MultiPoly.one(2)


def test_monomial_symmetric_basics():
    m = monomial_symmetric(3, (2, 1))
    # six distinct exponent arrangements of (2,1,0)
    assert len(m) == 6
    assert m.coefficient((2, 1, 0)) == 1
    assert monomial_symmetric(2, (1, 1)) == xv(0, 2) * xv(1, 2)
    assert monomial_symmetric(2, (1, 1, 1)).is_zero


def test_monomial_expansion_classical_kostka():
    ctx = GschurContext(3, schur())
    assert ctx.monomial_expansion((2, 1)) == {(2, 1): 1, (1, 1, 1): 2}


def test_monomial_expansion_reconstructs_the_polynomial():
    ctx = GschurContext(3, seeded_seq(13))
    lam = (2, 2)
    expansion = ctx.monomial_expansion(lam)
    rebuilt = MultiPoly.zero(3)
    for mu, c in expansion.items():
        rebuilt = rebuilt + c * monomial_symmetric(3, mu)
    assert rebuilt == ctx.bialternant(lam)
    assert expansion[lam] == 1


def test_monomial_expansion_rejects_a_non_symmetric_polynomial(monkeypatch):
    ctx = GschurContext(2, schur())
    monkeypatch.setattr(ctx, "bialternant", lambda lam: xv(0, 2) ** 2)
    with pytest.raises(AssertionError):
        ctx.monomial_expansion((2,))


@pytest.mark.parametrize(
    "planted",
    [
        # symmetric under (1 2), not under the 3-cycle
        lambda x1, x2, x3: x1 + x2,
        # symmetric under the 3-cycle, not under (1 2)
        lambda x1, x2, x3: x1 ** 2 * x2 + x2 ** 2 * x3 + x3 ** 2 * x1,
    ],
    ids=["transposition-only", "cycle-only"],
)
def test_monomial_expansion_checks_both_generators(planted):
    ctx = GschurContext(3, schur())
    ctx._bialternant[(2, 1)] = planted(*(xv(i, 3) for i in range(3)))
    with pytest.raises(AssertionError):
        ctx.monomial_expansion((2, 1))


def _plant(ctx, key, degree, delta):
    """Memoise a wrong shift_scalars map, delta added at degree.  One memo
    holds every (i, r) the recursion reaches, so a map planted before the
    entries above it are computed would feed them too: the tests run their
    check once before planting, so the check reads the planted map itself."""
    nums, den = ctx.shift_scalars(*key)
    fracs = {d: F(c, den) for d, c in nums.items()}
    fracs[degree] = fracs.get(degree, 0) + delta
    ctx._scalar_memo[key] = scalar_pair(fracs)


shift_tables = st.one_of(
    st.integers(0, 999).map(seeded_seq),
    st.sampled_from([schur(), sp(), so_odd(), so_even()]),
)
deltas = st.fractions(-3, 3, max_denominator=3).filter(bool)


@st.composite
def lemma_cases(draw):
    n = draw(st.integers(2, 4))
    i = draw(st.integers(3 - 2 * n, 4))
    return n, i, draw(st.integers(1, i + 2 * n - 2))


def _planted_lemma_context(seq, case, plants=(), other=None):
    """A context for the lemma case (n, i, r) with wrong degree maps planted,
    each (name, dd, delta) with name "head", "prev" or "tail", and with its
    sub-context over the table `seeded_seq(other)` when other is given."""
    n, i, r = case
    ctx = GschurContext(n, seq)
    if other is not None:
        ctx._sub = GschurContext(n - 1, seeded_seq(other))
    ctx._splitting_defect(i, r)
    owners = {"head": (ctx, (i, r)), "prev": (ctx, (i, r - 1)),
              "tail": (ctx._sub, (i + 1, r - 1))}
    for name, dd, delta in plants:
        _plant(*owners[name], max(0, i + r) // 2 + dd, delta)
    return ctx


@given(shift_tables, lemma_cases(), st.sampled_from([None, "head", "prev", "tail", "table"]),
       st.integers(0, 4), deltas, st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_lemma_check_agrees_with_the_residual(seq, case, plant, dd, delta, other):
    n, i, r = case
    plants = [(plant, dd, delta)] if plant in ("head", "prev", "tail") else []
    ctx = _planted_lemma_context(seq, case, plants, other if plant == "table" else None)
    holds = verify._splits_variables(ctx, {"i": i, "r": r}) is None
    assert holds == polynomial_lemma_residual(ctx, i, r).is_zero
    if plant != "table":
        assert holds == (plant is None)


# Each map planted or not, so both parts of the residual are often nonzero
# over different denominators.
@given(shift_tables, lemma_cases(),
       st.tuples(*[st.none() | st.tuples(st.just(name), st.integers(0, 4), deltas)
                   for name in ("head", "prev", "tail")]),
       st.none() | st.integers(0, 999))
@settings(max_examples=80, deadline=None)
def test_lemma_residual_equals_the_polynomial_residual(seq, case, plants, other):
    n, i, r = case
    plants = [plant for plant in plants if plant]
    ctx = _planted_lemma_context(seq, case, plants, other)
    residual = ctx.lemma_residual(i, r)
    assert residual == polynomial_lemma_residual(ctx, i, r)
    if not plants and other is None:
        assert residual.is_zero


@given(shift_tables, st.integers(1, 4), st.data(),
       st.sampled_from([None, "scalars", "table"]), st.integers(0, 4), deltas)
@settings(max_examples=60, deadline=None)
def test_extension_check_agrees_with_h_shift(seq, n, data, plant, dd, delta):
    i = data.draw(st.integers(2 - 2 * n, 5))
    r = data.draw(st.integers(0, i + 2 * n - 2))
    other = seeded_seq(data.draw(st.integers(0, 999))) if plant == "table" else seq
    pair = tuple(GschurContext(n, s) for s in (
        seq, other.with_negative(verify.CUSTOM_NEGATIVE_A, verify.CUSTOM_NEGATIVE_B)))
    verify._ignores_extension(pair, {"i": i, "r": r})
    if plant == "scalars":
        _plant(pair[1], (i, r), max(0, i + r) // 2 + dd, delta)
    holds = verify._ignores_extension(pair, {"i": i, "r": r}) is None
    assert holds == (pair[0].h_shift(i, r) == pair[1].h_shift(i, r))
    if plant != "table":
        assert holds == (plant is None)


@given(shift_tables, st.integers(1, 4), st.data(), st.booleans(), st.integers(0, 4), deltas)
@settings(max_examples=40, deadline=None)
def test_alternation_check_agrees_with_the_permutation_sum(seq, n, data, plant, dd, delta):
    i = data.draw(st.integers(0, 4))
    r = data.draw(st.integers(0, i + 2 * n - 2))
    ctx = GschurContext(n, seq)
    verify._bracket_identity(ctx, {"i": i, "r": r})
    if plant:
        _plant(ctx, (i, r), (i + r) // 2 + dd, delta)
    holds = verify._bracket_identity(ctx, {"i": i, "r": r}) is None
    delta_n = tuple(range(n - 1, -1, -1))
    phi = ctx.seq.phis.phi(i + n - 1)
    lhs = ctx.h_shift(i, r) * MultiPoly.monomial(n, delta_n)
    rhs = MultiPoly(n, {(m + r,) + delta_n[1:]: c for (m,), c in phi.items()})
    assert holds == (alternation(lhs) == alternation(rhs))
    assert holds != plant


@given(shift_tables, st.integers(1, 4), st.integers(-5, 5), st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_shift_scalars_equal_the_fold_over_the_shift_coefficients(seq, n, i, r):
    # An independent formulation: the scalars c_j of
    # h_i^{(r)} = sum_j c_j S_(j), folded with the phi_{j+n-1} tails,
    # s_d = sum_j c_j [z^{d+n-1}] phi_{j+n-1}, all over Fraction.
    phis = fraction_phi_table(seq, max(0, i + r + n - 1))
    fold = {}
    for j, c in fraction_shift_coefficients(seq.a, seq.b, n, i, r, {}).items():
        for m, p in enumerate(phis[j + n - 1]):
            if m >= n - 1:
                fold[m - n + 1] = fold.get(m - n + 1, 0) + c * p
    assert GschurContext(n, seq).shift_scalars(i, r) == scalar_pair(fold)


def test_shift_scalars_are_reduced_and_write_h_shift():
    ctx = GschurContext(3, seeded_seq(6))
    for i in range(-3, 5):
        for r in range(0, i + 5):
            nums, den = ctx.shift_scalars(i, r)
            assert den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1
            written = {e: F(nums[sum(e)], den) for e, _ in ctx.h_shift(i, r).items()}
            assert ctx.h_shift(i, r) == MultiPoly(3, written)
            assert set(nums) == {sum(e) for e in written}


def _mixed(bad):
    """A closed form that is an int at the integers and `bad` elsewhere."""
    return lambda x: x if x.denominator == 1 else bad


@pytest.mark.parametrize("bad", [True, 0.5], ids=repr)
def test_shift_coefficients_refuse_a_bool_or_float_coefficient(bad):
    seq = CoeffSeq.from_functions(lambda x: bad, lambda x: F(1))
    with pytest.raises(TypeError, match="expected an int or Fraction"):
        shift_coefficients(seq.a_at, seq.b_at, F(1, 3), 1, 2, {})
    with pytest.raises(TypeError, match="expected an int or Fraction"):
        GschurContext(2, seq).h_shift(1, 2)
    # phi reads a and b at the integers only, so the fit goes through and
    # the entries at d - 1 + i are where the check must fire
    mixed = CoeffSeq.from_functions(_mixed(bad), lambda x: F(1))
    with pytest.raises(TypeError, match="expected an int or Fraction"):
        jt_infinite_check((2, 1), mixed, F(1, 3), 2)


def test_lemma_residual_vanishes_in_range():
    for seed in (4, 5):
        seq = seeded_seq(seed)
        for n in (2, 3):
            ctx = GschurContext(n, seq)
            for i in range(3 - 2 * n, 4):
                for r in range(1, i + 2 * n - 1):
                    assert ctx.lemma_residual(i, r).is_zero


def test_lemma_residual_argument_checks():
    ctx = GschurContext(2, seeded_seq(15))
    with pytest.raises(ValueError):
        ctx.lemma_residual(1, 0)
    with pytest.raises(ValueError):
        ctx.lemma_residual(1, 4)  # beyond i + 2n - 2 = 3
    with pytest.raises(ValueError):
        GschurContext(1, seeded_seq(15)).lemma_residual(1, 1)


def test_context_rejects_bad_variable_count():
    with pytest.raises(ValueError):
        GschurContext(0, schur())


@pytest.mark.parametrize("n", [True, 2.0, F(2), "2"], ids=repr)
def test_context_needs_an_exact_int_variable_count(n):
    with pytest.raises(TypeError, match="n must be an int"):
        GschurContext(n, sp())


def test_classical_presets_give_integer_coefficients():
    ctx = GschurContext(3, so_odd())
    for lam in partitions_up_to(4, 3):
        for _, c in ctx.bialternant(lam).items():
            assert c.denominator == 1
