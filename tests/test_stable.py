"""Tests for the any-d layer: expansions, interpolation, super realisation."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gschur import stable
from gschur.coeffseq import (
    CoeffSeq,
    PoleError,
    random_coeffseq,
    random_polynomial_coeffseq,
)
from gschur.engine import GschurContext, first_column_det
from gschur.exactalg import MultiPoly
from gschur.partitions import contains, partitions_up_to
from gschur.presets import bc_jacobi, factorial, schur, so_even, so_odd, sp
from gschur.stable import (
    InterpolationInconsistentError,
    RationalFunctionOfD,
    SuperAlphabet,
    _echelon,
    _fit_and_validate,
    _int_det,
    _kernel_vector,
    classical_schur,
    expand_in_classical_schur,
    gschur_function,
    interpolate_c_family,
    jt_infinite_check,
    realize_expansion,
    schur_expand_at,
    super_complete_homogeneous,
    super_schur,
)

from oracles import (
    fraction_kernel_vector,
    fraction_rational_value,
    fraction_reduced_ratio,
    kernel_fit,
    leibniz_det,
    minor_expansion,
    newton_complete_homogeneous,
    realized_jt_entries,
    schur_by_tableaux,
    truncated_jt_check,
)

F = Fraction


def seeded_table(seed):
    return random_coeffseq(random.Random(seed))


# -- rational functions of the parameter ------------------------------------


def test_rational_function_scalar_equality():
    assert RationalFunctionOfD([3], [1]) == 3
    assert RationalFunctionOfD([], [5]) == 0
    assert RationalFunctionOfD([1, 1], [1]) != 5
    # A constant term alone does not make a constant: 1 + d != 1 and d != 0.
    assert RationalFunctionOfD([1, 1], [1]) != 1 and RationalFunctionOfD([0, 1], [1]) != 0
    assert RationalFunctionOfD([2], [2, 2]) != 1


def test_rational_function_pole_and_repr():
    f = RationalFunctionOfD([1], [-2, 1])  # 1/(d - 2)
    assert repr(f) == "(1)/(d - 2)"
    assert f(3) == 1
    with pytest.raises(PoleError):
        f(2)
    with pytest.raises(ZeroDivisionError):
        RationalFunctionOfD([1], [0])


def test_rational_function_is_not_equal_to_a_bool():
    # True == 1 and False == 0, but a truth value is not a constant function.
    one, zero = RationalFunctionOfD([1], [1]), RationalFunctionOfD([], [1])
    assert (one == True) is False and (one != True) is True  # noqa: E712
    assert (zero == False) is False  # noqa: E712
    assert one.__eq__(True) is NotImplemented
    assert one == 1 and zero == 0


@pytest.mark.parametrize(
    "num, den, slot",
    [([0.5], [1], "num"), ([True], [1], "num"), ([1], [1, 2.0], "den"), ([1], [None], "den")],
    ids=repr,
)
def test_rational_function_reads_its_coefficients_through_the_scalar_gate(num, den, slot):
    with pytest.raises(TypeError, match=rf"^{slot}: cannot interpret"):
        RationalFunctionOfD(num, den)
    with pytest.raises(ValueError, match=r"^num: zero denominator"):
        RationalFunctionOfD([1, "1/0"], [1])
    assert RationalFunctionOfD(["1/2", 0], [" 3 ", "0"]) == F(1, 6)


@given(st.lists(st.fractions(max_denominator=9), max_size=4),
       st.lists(st.fractions(max_denominator=9), max_size=4).filter(any),
       st.fractions(max_denominator=9).filter(bool))
@settings(max_examples=100, deadline=None)
def test_rational_function_holds_one_normalised_integer_pair(num, den, scale):
    func = RationalFunctionOfD(num, den)
    top, bottom = func._ints
    assert all(type(c) is int for c in top + bottom)
    assert bottom[-1] > 0 and gcd(*top, *bottom) == 1 and (not top or top[-1])
    assert top or bottom == (1,)
    # num and den are the monic Fraction form, and a rescaled pair is the same function.
    lead = bottom[-1]
    assert func.num == tuple(F(c, lead) for c in top) and func.den[-1] == 1
    assert func.den == tuple(F(c, lead) for c in bottom)
    assert RationalFunctionOfD([c * scale for c in num], [c * scale for c in den]) == func
    with pytest.raises(AttributeError):
        func.num = ()


# -- classical expansion ----------------------------------------------------


def test_classical_schur_matches_tableaux():
    for k in (1, 2, 3, 4):
        for mu in partitions_up_to(5, k):
            assert classical_schur(k, mu) == schur_by_tableaux(mu, k)
    assert classical_schur(2, (1, 1, 1)).is_zero
    assert classical_schur(0, ()) == MultiPoly.one(0)
    assert classical_schur(0, (1,)).is_zero


def test_expand_in_classical_schur_roundtrip():
    combo = (
        F(3) * classical_schur(2, (2, 1))
        - classical_schur(2, (1,))
        + F(5, 2) * classical_schur(2, ())
    )
    assert expand_in_classical_schur(combo) == {
        (2, 1): F(3),
        (1,): F(-1),
        (): F(5, 2),
    }
    assert expand_in_classical_schur(MultiPoly.zero(3)) == {}


def test_expand_in_classical_schur_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        expand_in_classical_schur(MultiPoly.variable(2, 0))


def test_schur_expand_at_classical_is_delta():
    seq = schur()
    for n in (1, 2, 3):
        for lam in partitions_up_to(4, n):
            assert schur_expand_at(lam, seq, n) == {lam: F(1)}


def test_schur_expand_at_matches_full_expansion():
    for seed in (0, 1):
        seq = seeded_table(seed)
        for n in range(1, 6):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(5, n):
                got = schur_expand_at(lam, seq, n)
                assert got == expand_in_classical_schur(ctx.jacobi_trudi(lam))
                assert got == expand_in_classical_schur(ctx.bialternant(lam))


def restricted(poly, k):
    """poly with all but its first k variables set to zero, in k variables."""
    for v in range(k, poly.arity):
        poly = poly.bind(v, 0)
    return MultiPoly(k, {e[:k]: c for e, c in poly.items()})


def test_schur_expand_at_closed_form_many_variables():
    # Truncation to l variables is a ring homomorphism that keeps every
    # classical Schur polynomial with at most l rows, so the Jacobi-Trudi
    # polynomial restricted to l variables has the same expansion.
    seq = bc_jacobi(1, -3)
    for lam in partitions_up_to(5):
        l = len(lam)
        for n in range(max(l, 1), l + 7):
            jt = GschurContext(n, seq).jacobi_trudi(lam)
            assert schur_expand_at(lam, seq, n) == expand_in_classical_schur(
                restricted(jt, l)
            )


def test_schur_expand_at_support_and_diagonal():
    seq = seeded_table(2)
    lam = (3, 1)
    expansion = schur_expand_at(lam, seq, 2)
    assert expansion[lam] == 1
    for mu in expansion:
        assert contains(lam, mu)


def test_partitions_inside_are_listed_once_per_partition_in_decreasing_grlex():
    for lam in partitions_up_to(7):
        l = len(lam)
        want = sorted(
            (mu for mu in partitions_up_to(sum(lam), l) if contains(lam, mu)),
            key=lambda mu: (sum(mu), mu),
            reverse=True,
        )
        got = stable._inside(lam)
        assert [mu for mu, _ in got] == want
        for mu, offsets in got:
            padded = mu + (0,) * (l - len(mu))
            assert offsets == tuple(part - k for k, part in enumerate(padded))
        assert stable._inside(lam) is got


def test_schur_expand_at_needs_enough_variables():
    with pytest.raises(ValueError):
        schur_expand_at((1, 1), seeded_table(3), 1)
    assert schur_expand_at((), seeded_table(3), 2) == {(): F(1)}


@pytest.mark.parametrize(
    "seq",
    [seeded_table(5), seeded_table(6), schur(), sp(), so_odd(), so_even(),
     factorial([2, 3, 5, 7, 11, 13, 17, 19, 23]), bc_jacobi(1, -3)],
    ids=["table5", "table6", "schur", "sp", "so_odd", "so_even", "factorial",
         "bc_jacobi"],
)
def test_schur_expand_at_matches_leibniz_minors(seq):
    for lam in partitions_up_to(4):
        l = len(lam)
        for n in range(max(l, 1), l + 4):
            got = schur_expand_at(lam, seq, n)
            # every mu with at most l parts, so the containment filter is
            # checked too: minors outside lam must vanish
            assert got == minor_expansion(lam, seq, n, partitions_up_to(sum(lam), l))
            assert all(type(c) is Fraction for c in got.values())
            order = sorted(got, key=lambda mu: (sum(mu), mu), reverse=True)
            assert list(got) == order


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 5 x 5, often singular or with a zero
    leading pivot."""
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**12, 10**12))
    n = draw(st.integers(1, 5))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [s * a + t * b for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        rows[0][0] = 0
    if draw(st.booleans()):
        rows.reverse()
    return rows


@given(integer_matrices())
@settings(max_examples=150, deadline=None)
def test_int_det_matches_leibniz(rows):
    before = [list(row) for row in rows]
    got = _int_det(rows)
    assert type(got) is int
    assert rows == before
    constants = [[MultiPoly.constant(0, v) for v in row] for row in rows]
    assert got == leibniz_det(constants).coefficient(())


def test_every_layer_reads_each_coefficient_once():
    # All routes read phi from the sequence's own table, so a closed-form
    # coefficient is evaluated at most once per sequence and index.
    reads = Counter()

    def counted(name, formula):
        def value(x):
            reads[name, x] += 1
            return formula(x)

        return value

    seq = CoeffSeq.from_functions(
        counted("a", lambda x: x), counted("b", lambda x: x + 1)
    )
    schur_expand_at((2, 1), seq, 5)
    interpolate_c_family((2, 1), seq)
    gschur_function((2, 1), seq, F(1, 3))
    for n in (2, 3):
        GschurContext(n, seq).bialternant((2, 1))
    assert reads and max(reads.values()) == 1


def test_single_box_constant_term_is_negated_partial_sum():
    seq = factorial([2, 3, 5, 7, 11, 13])
    for n in range(1, 6):
        expansion = schur_expand_at((1,), seq, n)
        assert expansion.get((), F(0)) == -sum((seq.a(i) for i in range(n)), F(0))


# -- interpolation in the parameter ----------------------------------------


def test_interpolate_c_linear_a_gives_binomial():
    seq = factorial(lambda x: x)
    func = interpolate_c_family((1,), seq)[()]
    assert func.num == (F(0), F(1, 2), F(-1, 2))  # d/2 - d^2/2
    assert func.den == (F(1),)
    assert func(F(7, 2)) == F(-35, 8)
    assert func(10) == -45  # held out from the samples


def test_interpolation_rejects_table_coefficients():
    # The family would double its bound until the 64-entry table runs out,
    # so the fit is checked at one bound, on the samples the family uses.
    seq = seeded_table(0)
    xs = range(1, 8)
    ys = [schur_expand_at((1,), seq, n).get((), F(0)) for n in xs]
    with pytest.raises(InterpolationInconsistentError):
        _fit_and_validate(xs, ys, 2)


def test_table_running_out_on_a_retry_is_an_inconsistency():
    # The samples n = 1..11 at bound 4 fit in a 12-entry random table and
    # are inconsistent; the retry at bound 8 needs entries the table lacks.
    # Failures are never memoised, so a second call fails the same way.
    seq = random_coeffseq(random.Random(0), length=12)
    for _ in range(2):
        with pytest.raises(InterpolationInconsistentError) as caught:
            interpolate_c_family((1,), seq)
        assert isinstance(caught.value.__cause__, IndexError)
    # Too short for the first attempt: the IndexError itself.
    short = random_coeffseq(random.Random(0), length=4)
    for _ in range(2):
        with pytest.raises(IndexError):
            interpolate_c_family((1,), short)
    # a(1) is a pole of bc_jacobi(1, 1), and the samples need it.
    poles = bc_jacobi(1, 1, probe_upto=0)
    for _ in range(2):
        with pytest.raises(PoleError) as caught:
            interpolate_c_family((1,), poles)
        assert caught.value.index == 1
    assert not seq.families and not short.families and not poles.families


def test_each_family_is_fitted_once_per_sequence(monkeypatch):
    samples = Counter()
    expand = stable.schur_expand_at

    def counted(lam, seq, n):
        samples[lam, n] += 1
        return expand(lam, seq, n)

    monkeypatch.setattr(stable, "schur_expand_at", counted)
    seq = CoeffSeq.from_functions(lambda x: F(1), lambda x: x)
    lam = (2, 1)
    interpolate_c_family(lam, seq)
    for d in (F(1, 3), F(7, 5)):
        gschur_function(lam, seq, d)
    super_schur(lam, seq, SuperAlphabet(2, 2))  # d = 0 < l(lam)
    assert jt_infinite_check(lam, seq, F(1, 3), 2)
    # Every family fits at bound 4 on its first attempt, at the 11 counts
    # from max(l, 1); the check needs the one-row families (j,), j <= 3.
    assert samples == Counter(
        {(mu, n): 1 for mu in (lam, (1,), (2,), (3,))
         for n in range(max(len(mu), 1), max(len(mu), 1) + 11)}
    )


def test_memoised_family_matches_a_fresh_sequence():
    seq = random_polynomial_coeffseq(random.Random(3))
    first = interpolate_c_family((2, 1), seq)
    memoised = interpolate_c_family((2, 1), seq)
    fresh = interpolate_c_family((2, 1), random_polynomial_coeffseq(random.Random(3)))
    # == on RationalFunctionOfD compares the reduced coefficient tuples.
    assert list(memoised.items()) == list(first.items()) == list(fresh.items())


def test_mutating_a_returned_family_leaves_the_memo_intact():
    seq = factorial(lambda x: x)
    family = interpolate_c_family((1,), seq)
    expected = dict(family)
    family.clear()
    interpolate_c_family((1,), seq)[(5,)] = RationalFunctionOfD([1], [1])
    assert interpolate_c_family((1,), seq) == expected
    value = gschur_function((1,), seq, F(7, 2))
    assert value == {(1,): F(1), (): F(-35, 8)}


def test_one_interpolation_attempt_reads_each_coefficient_once():
    calls = Counter()

    def counted(name, func):
        def read(x):
            calls[name, x] += 1
            return func(x)

        return read

    seq = CoeffSeq.from_functions(
        counted("a", lambda x: F(1)), counted("b", lambda x: x)
    )
    lam = (2, 1)
    family = interpolate_c_family(lam, seq)
    # every coefficient has degree 3, so the first attempt succeeds
    assert max(max(len(f.num), len(f.den)) - 1 for f in family.values()) == 3
    # One attempt at bound 4 samples n = 2..12; phi_{lam_1 + n - 1} at the
    # largest n reads a(j) and b(j) for j <= lam_1 + 12 - 2.
    assert set(calls) == {(name, F(j)) for name in "ab" for j in range(13)}
    assert max(calls.values()) == 1


@st.composite
def underdetermined_systems(draw):
    """Rational matrices with more columns than rows, often rank deficient."""
    entry = st.one_of(
        st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=6)
    )
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(nrows + 1, nrows + 3))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        i = draw(st.integers(0, nrows - 2))
        j = draw(st.integers(0, nrows - 2))
        s, t = draw(entry), draw(entry)
        rows[-1] = [s * a + t * b for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [F(0)] * ncols
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = F(0)
    return rows


def cleared_rows(rows):
    """Each row times the lcm of its denominators: a positive scale, which
    keeps the kernel and the reduced echelon pivots."""
    cleared = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        cleared.append([v.numerator * (den // v.denominator) for v in row])
    return cleared


@given(underdetermined_systems())
@settings(max_examples=150, deadline=None)
def test_kernel_vector_matches_fraction_oracle(rows):
    got = _kernel_vector(cleared_rows(rows))
    oracle = fraction_kernel_vector(rows)
    # The oracle's vector ends with the 1 in its first free column; the
    # integer vector holds the last pivot there.
    free = max(c for c, v in enumerate(oracle) if v)
    assert all(type(v) is int for v in got) and got[free]
    assert [Fraction(v, got[free]) for v in got] == oracle
    assert all(sum(a * b for a, b in zip(row, got)) == 0 for row in rows)


@given(st.one_of(integer_matrices(), underdetermined_systems().map(cleared_rows)))
@settings(max_examples=150, deadline=None)
def test_echelon_pivots_all_equal_the_last(rows):
    # The inputs are often rank deficient; the pivots are still all d and
    # each pivot column is zero off its pivot row.
    m, pivots, d, _ = _echelon(rows)
    for i, col in enumerate(pivots):
        assert [row[col] for row in m] == [d if r == i else 0 for r in range(len(m))]
    assert all(not any(row) for row in m[len(pivots) :])


coefficient_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1
)


def list_product(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def fraction_value(cs, x):
    return sum(Fraction(c) * x**j for j, c in enumerate(cs))


@given(
    st.integers(1, 3), coefficient_lists, coefficient_lists, coefficient_lists,
    st.one_of(st.none(), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
)
@settings(max_examples=150, deadline=None)
def test_fit_matches_fraction_oracle(g, num, den, common, noise):
    # num and den share the factor `common` and stay within the bound; the
    # samples are those of the truth, num/den reduced by Euclid's algorithm.
    common = common[: g + 1]
    keep = g + 2 - len(common)
    num, den = (list_product(p[:keep], common) for p in (num, den))
    assume(any(den) and any(common))
    truth = fraction_reduced_ratio(num, den)
    xs = range(1, 2 * g + 4)
    assume(all(fraction_value(truth[1], x) for x in xs))
    ys = [fraction_value(truth[0], x) / fraction_value(truth[1], x) for x in xs]
    if noise is None:
        fit = _fit_and_validate(xs, ys, g)
        assert (fit.num, fit.den) == truth
        return
    # A perturbed validation sample: any fit that still succeeds is in
    # lowest terms and reproduces every sample.
    ys[-1] += noise
    try:
        fit = _fit_and_validate(xs, ys, g)
    except InterpolationInconsistentError:
        return
    assert fraction_reduced_ratio(fit.num, fit.den) == (fit.num, fit.den)
    assert [fit(x) for x in xs] == ys


@given(
    st.integers(1, 6), st.integers(-3, 3),
    st.sampled_from(["consistent", "perturbed", "pole"]), st.data(),
)
@settings(max_examples=150, deadline=None)
def test_fit_matches_the_kernel_fit_oracle(g, x0, case, data):
    # num and den share the factor `common` and reach the bound, where a
    # fit on fewer nodes than 2g + 1 would find a spurious Q; a perturbed
    # case moves one sample, fit node or not, and a pole-bearing case gives
    # den a root at one sample, whose value is then arbitrary.
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    common = data.draw(st.lists(coefficient, min_size=1, max_size=g + 1))
    keep = g + 2 - len(common)
    num, den = (
        list_product(data.draw(st.lists(coefficient, min_size=keep, max_size=keep)), common)
        for _ in range(2)
    )
    assume(any(den) and any(common))
    xs = range(x0, x0 + 2 * g + 3)
    k = data.draw(st.integers(0, len(xs) - 1))
    noise = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    if case == "pole":
        den = list_product(den, [-xs[k], F(1)])
    truth = fraction_reduced_ratio(num, den)
    ys = [
        fraction_value(truth[0], x) / fraction_value(truth[1], x)
        if fraction_value(truth[1], x) else noise
        for x in xs
    ]
    if case == "perturbed":
        ys[k] += noise

    def outcome(fit):
        try:
            func = fit(xs, ys, g)
        except InterpolationInconsistentError:
            return None
        return func.num, func.den

    got = outcome(_fit_and_validate)
    assert got == outcome(kernel_fit)
    if case == "consistent" and all(fraction_value(truth[1], x) for x in xs):
        assert got == truth


def test_fit_needs_consecutive_counts():
    ys = [F(x) for x in range(1, 8)]
    assert _fit_and_validate([3, 4, 5, 6, 7], ys[2:], 2) == RationalFunctionOfD([0, 1], [1])
    with pytest.raises(ValueError, match="consecutive"):
        _fit_and_validate([1, 2, 3, 4, 6], ys[:5], 2)
    with pytest.raises(ValueError, match="5 or more"):
        _fit_and_validate(range(1, 5), ys[:4], 2)


short_coefficient_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=1, max_size=6
)


@given(
    short_coefficient_lists, short_coefficient_lists,
    st.fractions(min_value=-6, max_value=6, max_denominator=5), st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_call_matches_the_fraction_horner_oracle(num, den, x, pole):
    # With `pole`, den gains the factor (d - x): x is a pole even where num
    # shares that factor, since the constructor divides out nothing.
    if pole:
        den = list_product(den, [-x, F(1)])
    assume(any(den))
    func = RationalFunctionOfD(num, den)
    try:
        want = fraction_rational_value(func, x)
    except PoleError as exc:
        with pytest.raises(PoleError) as got:
            func(x)
        assert (got.value.index, str(got.value)) == (exc.index, str(exc))
        return
    got = func(x)
    assert type(got) is Fraction and got == want


def test_fit_rejects_a_planted_disagreement():
    # d/2 - d^2/2 at d = 1..7 fits at bound 2; one validation sample is off.
    ys = [F(x - x * x, 2) for x in range(1, 8)]
    assert _fit_and_validate(range(1, 8), ys, 2).num == (F(0), F(1, 2), F(-1, 2))
    ys[-1] += F(1, 3)
    with pytest.raises(InterpolationInconsistentError, match="disagrees .* at 7$"):
        _fit_and_validate(range(1, 8), ys, 2)


def test_fit_rejects_a_pole_at_a_sample():
    # 1/(d - 5) fits the nodes 1, 2, 3; the validation sample 5 is its pole.
    ys = [F(1, x - 5) for x in range(1, 5)] + [F(0)]
    with pytest.raises(InterpolationInconsistentError, match="pole at sample 5$"):
        _fit_and_validate(range(1, 6), ys, 1)


def test_interpolate_c_family_doubles_the_bound():
    # The constant term -sum_{i<d} i^4 has degree 5: bound 4 fails, 8 fits.
    seq = factorial(lambda x: x**4)
    family = interpolate_c_family((1,), seq)
    assert family[(1,)] == 1
    assert family[()](4) == -98  # -(0 + 1 + 16 + 81)
    assert len(family[()].num) == 6 and family[()].den == (F(1),)


def test_a_retry_expands_each_count_once(monkeypatch):
    # Bound 4 reads the counts 1..11 and fails; bound 8 reads 1..19 and fits.
    calls = Counter()
    expand = stable.schur_expand_at

    def counted(lam, seq, n):
        calls[n] += 1
        return expand(lam, seq, n)

    monkeypatch.setattr(stable, "schur_expand_at", counted)
    family = interpolate_c_family((1,), factorial(lambda x: x**4))
    assert len(family[()].num) == 6
    assert calls == Counter(range(1, 20))


def test_families_are_memoised_by_partition():
    seq = random_polynomial_coeffseq(random.Random(2))
    interpolate_c_family([2, 1, 0], seq)
    gschur_function((1,), seq, F(1, 2))
    super_schur((2,), seq, SuperAlphabet(1, 2))
    assert list(seq.families) == [(2, 1), (1,), (2,)]


def test_gschur_function_integer_arguments():
    seq = seeded_table(4)
    direct = {m: c for m, c in schur_expand_at((2, 1), seq, 3).items() if c}
    assert gschur_function((2, 1), seq, 3) == direct
    assert gschur_function((), seq, F(1, 3)) == {(): F(1)}


@pytest.mark.parametrize("d", [0.1, 2.0, True, False])
def test_parameter_must_be_exact(d):
    seq = factorial(lambda x: x)
    family = interpolate_c_family((1,), seq)
    with pytest.raises(TypeError):
        gschur_function((1,), seq, d)
    with pytest.raises(TypeError):
        jt_infinite_check((1,), seq, d, 2)
    with pytest.raises(TypeError):
        family[()](d)


def test_gschur_function_classical_off_integer():
    assert gschur_function((2, 1), schur(), F(5, 2)) == {(2, 1): F(1)}


def test_gschur_function_off_integer_matches_closed_form():
    seq = factorial(lambda x: x)
    value = gschur_function((1,), seq, F(7, 2))
    assert value == {(1,): F(1), (): F(-35, 8)}


def test_realize_expansion():
    k = 2
    got = realize_expansion({(): F(2), (1,): F(-1)}, k)
    assert got == MultiPoly.constant(k, 2) - MultiPoly.variable(k, 0) - MultiPoly.variable(k, 1)
    assert realize_expansion({(1, 1, 1): F(5)}, 2).is_zero
    with pytest.raises(ValueError):
        realize_expansion({(1,): F(1)}, 1, -1)


# -- the parameterised Jacobi-Trudi identity --------------------------------


def test_jt_infinite_argument_checks():
    with pytest.raises(ValueError):
        jt_infinite_check((1,), seeded_table(5), 2, 2)
    with pytest.raises(ValueError):
        jt_infinite_check((1,), schur(), 2, 0)
    with pytest.raises(ValueError, match="^n_eval must be at least 4, got 3$"):
        jt_infinite_check((1, 1, 1, 1), schur(), F(1, 3), 3)


@pytest.mark.parametrize("n_eval", [True, 3.0])
def test_jt_infinite_needs_an_int_n_eval(n_eval):
    seq = schur()
    with pytest.raises(TypeError, match=f"n_eval must be an int, got {type(n_eval).__name__}"):
        jt_infinite_check((1,), seq, F(1, 3), n_eval)
    assert not seq.families


@pytest.mark.parametrize("seq", [schur(), bc_jacobi(1, -3)], ids=["schur", "bc_jacobi"])
def test_jt_infinite_sees_an_error_on_the_longest_partition(monkeypatch, seq):
    # The error sits on S_(1,1,1,1), which truncation to fewer than
    # l(lam) = 4 variables would send to zero; the comparison in Lambda sees it.
    lam, d = (1, 1, 1, 1), F(1, 3)
    assert jt_infinite_check(lam, seq, d, 4)
    honest = stable.gschur_function

    def planted(mu, s, value):
        out = honest(mu, s, value)
        if mu == lam:
            out = {**out, lam: out.get(lam, F(0)) + 1}
        return out

    monkeypatch.setattr(stable, "gschur_function", planted)
    assert not jt_infinite_check(lam, seq, d, 4)


# Each (sequence, d, lam) returned False before integer d < l(lam) was
# refused: the entries read a(0) or b(1) there, which the finite-count
# entries never read.
JT_BELOW_LENGTH = [
    (so_odd, 0, (1, 1)),
    (so_odd, 1, (2, 1)),
    (so_odd, 2, (1, 1, 1)),
    (so_even, -1, (2, 1)),
    (so_even, 0, (2, 1)),
    (so_even, 1, (1, 1)),
]


@pytest.mark.parametrize(
    "build, d, lam",
    JT_BELOW_LENGTH,
    ids=[f"{b.__name__}-d{d}-{''.join(map(str, lam))}" for b, d, lam in JT_BELOW_LENGTH],
)
def test_jt_infinite_refuses_an_integer_d_below_the_length(build, d, lam):
    seq = build()
    n_eval = max(3, len(lam))
    with pytest.raises(ValueError, match=f"d >= l\\(lambda\\) = {len(lam)}, got {d}$"):
        jt_infinite_check(lam, seq, d, n_eval)
    assert not seq.families  # refused before anything was fitted
    assert jt_infinite_check(lam, seq, len(lam), n_eval)
    assert jt_infinite_check(lam, seq, len(lam) + 1, n_eval)


JT_ENTRY_SEQS = [bc_jacobi(1, -3), random_polynomial_coeffseq(random.Random(7))]


@pytest.mark.parametrize("n_eval", [3, 4, 5])
@pytest.mark.parametrize("d", [F(1, 3), F(7, 3)], ids=["1/3", "7/3"])
@pytest.mark.parametrize("seq", JT_ENTRY_SEQS, ids=["bc_jacobi", "poly-table"])
def test_jt_infinite_entries_equal_the_realised_one_row_sums(monkeypatch, seq, d, n_eval):
    # The check writes each entry from a degree map onto the free generators
    # h_k of Lambda; the oracle realises every one-row object on them first
    # and sums Fraction * MultiPoly.  n_eval changes no entry.
    lam = (3, 2, 1)
    seen = {}

    def spy(entry, indices, arity):
        seen["entry"] = entry
        return first_column_det(entry, indices, arity)

    monkeypatch.setattr(stable, "first_column_det", spy)
    assert jt_infinite_check(lam, seq, d, n_eval)
    top = lam[0] + len(lam)
    one_rows = [gschur_function((j,) if j else (), seq, d) for j in range(top)]
    oracle = realized_jt_entries(seq, d, one_rows)
    cases = [(i, c) for i in range(-len(lam), lam[0] + 1) for c in range(len(lam))
             if i + c < top]
    for i, c in cases:
        assert seen["entry"](i, c) == oracle(i, c), (i, c)
    assert any(not oracle(i, c).is_zero for i, c in cases if c)


JT_GRID_SEQS = {
    "sp": sp,
    "so_odd": so_odd,
    "so_even": so_even,
    "schur": schur,
    "bc_jacobi(1,-3)": lambda: bc_jacobi(1, -3),
    "bc_jacobi(1/3,1/5)": lambda: bc_jacobi(F(1, 3), F(1, 5)),
    **{
        f"poly-table-{k}": (lambda k=k: random_polynomial_coeffseq(random.Random(k)))
        for k in range(4)
    },
}
JT_GRID_D = [F(7, 3), F(-5, 2), F(1, 3), 4, 6]


def _verdict(check, lam, seq, d, n_eval):
    try:
        return check(lam, seq, d, n_eval)
    except PoleError:
        return "pole"


@pytest.mark.parametrize("build", JT_GRID_SEQS.values(), ids=JT_GRID_SEQS)
def test_jt_infinite_in_lambda_matches_the_truncated_check(build):
    # The comparison in Lambda gives the verdict, or the PoleError, of the
    # earlier comparison after truncation to n_eval >= l(lam) variables.
    seq = build()
    cases = [
        (lam, n_eval)
        for lam in [(1,), (2, 1), (1, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1)]
        for n_eval in sorted({len(lam), 3, 5})
    ] + [((4, 3, 2, 1), 4)]
    for lam, n_eval in cases:
        for d in JT_GRID_D:
            got = _verdict(jt_infinite_check, lam, seq, d, n_eval)
            assert got == _verdict(truncated_jt_check, lam, seq, d, n_eval), (lam, d, n_eval)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(JT_GRID_SEQS)),
    lam=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 1, 1), (3, 2, 1)]),
    d=st.sampled_from([F(7, 3), F(1, 3), 4]),
    data=st.data(),
)
def test_jt_infinite_fails_on_a_planted_wrong_one_row_object(name, lam, d, data):
    # +1 on one Schur coefficient [s_(k)] S_(j) of one one-row object that
    # the entries read (1 <= j <= lam_1 + l(lam) - 1); with two or more rows
    # the right-hand side reads no one-row object.
    seq = JT_GRID_SEQS[name]()
    try:
        assert jt_infinite_check(lam, seq, d, 3)
    except PoleError:
        assume(False)
    j = data.draw(st.integers(1, lam[0] + len(lam) - 1), label="j")
    k = data.draw(st.integers(0, j), label="k")
    honest = stable.gschur_function

    def planted(mu, s, value):
        out = honest(mu, s, value)
        if mu == (j,):
            key = (k,) if k else ()
            out = {**out, key: out.get(key, F(0)) + 1}
        return out

    with mock.patch.object(stable, "gschur_function", planted):
        assert not jt_infinite_check(lam, seq, d, 3)


def test_jt_infinite_of_the_empty_partition_is_one():
    assert jt_infinite_check((), bc_jacobi(1, -3), F(7, 3), 2)


def test_jt_infinite_classical_off_integer():
    assert jt_infinite_check((2, 1), schur(), F(5, 2), 2)


def test_jt_infinite_symplectic_off_integer():
    assert jt_infinite_check((2, 1), sp(), F(5, 2), 2)


def test_jt_infinite_factorial_integer():
    assert jt_infinite_check((2,), factorial(lambda x: x), 4, 2)


def test_jt_infinite_random_polynomial_sequence():
    seq = random_polynomial_coeffseq(random.Random(3))
    assert jt_infinite_check((2,), seq, F(1, 2), 2)


# -- super-symmetric realisation -------------------------------------------


def test_super_complete_homogeneous_matches_newton():
    for n in range(4):
        for m in range(4):
            assert super_complete_homogeneous(n, m, 6) == newton_complete_homogeneous(
                n, m, 6
            )


def test_hook_schur_vanishes_exactly_outside_the_hook():
    # det[h_{mu_j - j + c}] on n x and m y variables is zero exactly when
    # mu_{n+1} > m, the rows `realize_expansion` skips.
    for n in range(3):
        for m in range(3):
            hs = super_complete_homogeneous(n, m, 6)
            zero = MultiPoly.zero(n + m)

            def h_entry(i, c):
                return hs[i + c] if i + c >= 0 else zero

            for mu in partitions_up_to(6):
                det = first_column_det(
                    h_entry, [part - j for j, part in enumerate(mu)], n + m
                )
                outside = len(mu) > n and mu[n] > m
                assert det.is_zero == outside, (n, m, mu)


def test_super_complete_homogeneous_one_one():
    hs = super_complete_homogeneous(1, 1, 3)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert hs[0] == MultiPoly.one(2)
    assert hs[1] == x - y
    assert hs[2] == x * x - x * y
    assert hs[3] == x ** 3 - x ** 2 * y


def test_super_schur_rejects_negative_alphabet():
    with pytest.raises(ValueError):
        super_schur((1,), schur(), SuperAlphabet(-1, 0))


@pytest.mark.parametrize(
    "alphabet, name",
    [((True, 1), "alphabet.n"), ((2.0, 1), "alphabet.n"), ((2, False), "alphabet.m"),
     ((2, 1.0), "alphabet.m")],
)
def test_super_schur_needs_int_sizes(monkeypatch, alphabet, name):
    def no_work(*args):
        raise AssertionError("the sizes are checked before any expansion")

    monkeypatch.setattr(stable, "gschur_function", no_work)
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        super_schur((1,), schur(), SuperAlphabet(*alphabet))


def test_super_schur_without_odd_variables_is_bialternant():
    seq = seeded_table(6)
    ctx = GschurContext(2, seq)
    for lam in ((2,), (2, 1), (1, 1)):
        assert super_schur(lam, seq, SuperAlphabet(2, 0)) == ctx.bialternant(lam)


def test_super_schur_single_box():
    seq = factorial([2, 3, 5, 7, 11])
    got = super_schur((1,), seq, SuperAlphabet(3, 1))
    x1, x2, x3, y1 = (MultiPoly.variable(4, i) for i in range(4))
    # c_() at d = 2 is -(a(0) + a(1)) = -5
    assert got == x1 + x2 + x3 - y1 - MultiPoly.constant(4, 5)


def test_super_schur_cancellation():
    # identifying one x variable with one y variable at a common value must
    # reproduce the realisation on the smaller alphabet (binding keeps the
    # arity, so the small realisation is embedded into the surviving slots)
    cases = [
        ((2, 1), schur()),
        ((2,), random_polynomial_coeffseq(random.Random(7))),
    ]
    for lam, seq in cases:
        big = super_schur(lam, seq, SuperAlphabet(2, 2))
        small = super_schur(lam, seq, SuperAlphabet(1, 1))
        embedded = MultiPoly(4, {(a, 0, 0, b): c for (a, b), c in small.items()})
        for t in (F(0), F(1), F(-2)):
            assert big.bind(1, t).bind(2, t) == embedded
