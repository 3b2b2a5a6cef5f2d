"""Coefficient sequence and recurrence polynomial tests."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gschur.coeffseq import (
    CoeffSeq,
    PoleError,
    UniPolySeq,
    coeffseq_from_json,
    load_coeffseq,
    random_coeffseq,
    random_polynomial_coeffseq,
)
from gschur.exactalg import MultiPoly
from gschur.presets import bc_jacobi

from oracles import coeffseq_to_json, fraction_phi_table, fraction_random_polynomials

F = Fraction


def z():
    return MultiPoly.variable(1, 0)


fractions = st.builds(
    F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=4)
)


def test_table_lookup_and_negative_default():
    seq = CoeffSeq.from_tables([F(1), F(2)], [F(3), F(4)])
    assert seq.a(0) == 1 and seq.a(1) == 2
    assert seq.b(0) == 3 and seq.b(1) == 4
    assert seq.a(-1) == 0 and seq.b(-5) == 0


def test_table_overflow_raises_without_padding():
    seq = CoeffSeq.from_tables([F(1)], [F(1)])
    with pytest.raises(IndexError, match=r"^a\(1\) is beyond the stored table of length 1$"):
        seq.a(1)


def test_custom_negative_extension():
    seq = CoeffSeq.from_tables(
        [F(0)], [F(0)], negative_a={-1: F(5)}, negative_b={-2: F(-1, 2)}
    )
    assert seq.a(-1) == 5
    assert seq.a(-2) == 0
    assert seq.b(-2) == F(-1, 2)
    other = seq.with_negative({-1: F(7)}, {})
    assert other.a(-1) == 7
    assert seq.a(-1) == 5  # original untouched


def test_closed_form_evaluation_off_the_integers():
    seq = CoeffSeq.from_functions(lambda t: t * t, lambda t: t + 1)
    assert seq.a(3) == 9
    assert seq.a_at(F(1, 2)) == F(1, 4)
    assert seq.b_at(F(-3, 2)) == F(-1, 2)
    # negative integers go through the extension, not the formula
    assert seq.a(-2) == 0
    assert seq.a_at(-2) == 4


def test_closed_forms_receive_fraction_arguments():
    # A user closed form may divide its argument; an int index would give a
    # float here.
    seq = CoeffSeq.from_functions(lambda x: x / 2, lambda x: x / 3)
    assert seq.kind == "closed-form"
    assert type(seq.a(1)) is F and seq.a(1) == F(1, 2)
    assert seq.with_negative({}, {}).b(2) == F(2, 3)


def test_a_at_rejected_for_tables():
    seq = CoeffSeq.from_tables([F(1)], [F(1)])
    assert not seq.is_closed_form and seq.kind == "table"
    with pytest.raises(ValueError):
        seq.a_at(F(1, 2))
    with pytest.raises(ValueError):
        seq.b_at(0)


def test_phi_pinned_symplectic_like():
    # a = 0, b = 1 gives the monic Chebyshev-style chain
    seq = CoeffSeq.from_functions(lambda t: F(0), lambda t: F(1))
    phi = UniPolySeq(seq)
    assert phi.phi(0) == MultiPoly.one(1)
    assert phi.phi(1) == z()
    assert phi.phi(2) == z() ** 2 - 1
    assert phi.phi(3) == z() ** 3 - 2 * z()
    assert phi.phi(4) == z() ** 4 - 3 * z() ** 2 + 1


def test_phi_pinned_zero_sequence():
    seq = CoeffSeq.from_tables([F(0)] * 6, [F(0)] * 6)
    phi = UniPolySeq(seq)
    for i in range(6):
        assert phi.phi(i) == z() ** i


def test_phi_pinned_with_shifted_start():
    # a(0) = -1, b(0) irrelevant, then a = 0, b = 1
    def a(t):
        return F(-1) if t == 0 else F(0)

    def b(t):
        return F(0) if t == 0 else F(1)

    phi = UniPolySeq(CoeffSeq.from_functions(a, b))
    assert phi.phi(1) == z() + 1
    assert phi.phi(2) == z() ** 2 + z() - 1
    assert phi.phi(3) == z() ** 3 + z() ** 2 - 2 * z() - 1


def test_phi_negative_index_is_zero():
    phi = UniPolySeq(CoeffSeq.from_tables([F(1)] * 4, [F(1)] * 4))
    assert phi.phi(-1).is_zero
    with pytest.raises(ValueError):
        phi.phi(-2)


@given(st.lists(fractions, min_size=6, max_size=6), st.lists(fractions, min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_phi_monic_of_expected_degree(a_table, b_table):
    phi = UniPolySeq(CoeffSeq.from_tables(a_table, b_table))
    for i in range(7):
        p = phi.phi(i)
        assert p.leading_term() == ((i,), 1)


@given(st.lists(fractions, min_size=5, max_size=5), st.lists(fractions, min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_phi_satisfies_the_recurrence(a_table, b_table):
    seq = CoeffSeq.from_tables(a_table, b_table)
    phi = UniPolySeq(seq)
    for i in range(5):
        lhs = phi.phi(i + 1)
        rhs = (z() - seq.a(i)) * phi.phi(i) - seq.b(i) * phi.phi(i - 1)
        assert lhs == rhs


def test_each_sequence_owns_one_phi_table():
    seq = CoeffSeq.from_tables([F(1)] * 3, [F(2)] * 3)
    assert seq.phis.phi(3) is seq.phis.phi(3)
    other = seq.with_negative({-1: F(7)}, {})
    assert other.phis is not seq.phis
    assert other.phis.phi(3) == seq.phis.phi(3)


def test_phi_failure_is_not_memoised():
    seq = CoeffSeq.from_tables([F(1)] * 2, [F(1)] * 2)
    for _ in range(2):
        with pytest.raises(IndexError):
            seq.phis.phi(4)
    assert seq.phis.phi(2).leading_term() == ((2,), 1)


def assert_phis_match_the_oracle(seq, upto):
    """phi_0..phi_upto equal `fraction_phi_table`.  When reading a(j), then
    b(j), for j < upto fails first at some j, phi_{j+1} must raise that
    error on every call with phi_j the last row stored."""
    failure = None
    for j in range(upto):
        try:
            seq.a(j)
            seq.b(j)
        except (PoleError, IndexError) as exc:
            failure, upto = exc, j
            break
    for i, coeffs in enumerate(fraction_phi_table(seq, upto)):
        assert seq.phis.phi(i) == MultiPoly(1, {(m,): c for m, c in enumerate(coeffs)})
    if failure is not None:
        for _ in range(2):
            with pytest.raises(type(failure)) as got:
                seq.phis.phi(upto + 1)
            assert str(got.value) == str(failure)
            assert max(seq.phis._memo) == upto


negative_tables = st.dictionaries(st.integers(-4, -1), fractions, max_size=3)


@given(
    st.lists(fractions, min_size=1, max_size=8),
    st.lists(fractions, min_size=1, max_size=8),
    negative_tables,
    negative_tables,
)
@settings(max_examples=60, deadline=None)
def test_phi_matches_the_fraction_oracle_on_tables(a_table, b_table, neg_a, neg_b):
    # Unequal lengths run out on a(j) or on b(j) first.
    seq = CoeffSeq.from_tables(a_table, b_table, negative_a=neg_a, negative_b=neg_b)
    assert_phis_match_the_oracle(seq, max(len(a_table), len(b_table)) + 1)


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
@settings(max_examples=40, deadline=None)
def test_phi_matches_the_fraction_oracle_on_bc_jacobi(p, q):
    # Unprobed, so a pole at a small index reaches phi.
    assert_phis_match_the_oracle(bc_jacobi(p, q, probe_upto=-1), 8)


@given(st.integers(0, 10**6), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_phi_matches_the_fraction_oracle_on_random_polynomials(seed, degree):
    seq = random_polynomial_coeffseq(random.Random(seed), degree=degree)
    assert_phis_match_the_oracle(seq, 10)


def test_phi_reads_each_a_before_its_b_and_each_once():
    log = []

    def reader(which, value):
        def of(i):
            log.append((which, i))
            return value(i)

        return of

    seq = CoeffSeq(
        reader("a", lambda i: F(i + 1, 2)), reader("b", lambda i: F(-i, 3)),
        closed_form=False,
    )
    for i in (3, 2, 6):
        seq.phis.phi(i)
    assert log == [(which, j) for j in range(6) for which in "ab"]
    assert_phis_match_the_oracle(seq, 6)


@pytest.mark.parametrize("bad", [0.5, True, False])
@pytest.mark.parametrize("which", ["a", "b"])
def test_a_float_or_bool_coefficient_raises_type_error(which, bad):
    def coeff(name):
        return lambda x: bad if name == which and x == 2 else F(x + 1)

    seq = CoeffSeq.from_functions(coeff("a"), coeff("b"))
    for _ in range(2):
        with pytest.raises(TypeError):
            seq.phis.phi(4)
        assert max(seq.phis._memo) == 2


@pytest.mark.parametrize("which", ["a", "b"])
def test_a_pole_is_raised_again_with_no_row_past_the_last_good_one(which):
    def coeff(name):
        def of(x):
            if name == which and x == 3:
                raise PoleError(x)
            return F(1, x + 2)

        return of

    seq = CoeffSeq.from_functions(coeff("a"), coeff("b"))
    assert_phis_match_the_oracle(seq, 6)
    with pytest.raises(PoleError, match="pole at 3$"):
        seq.phis.phi(5)


def test_pole_error_carries_index():
    err = PoleError(F(5, 2))
    assert err.index == F(5, 2)
    assert "5/2" in str(err)
    assert isinstance(err, ZeroDivisionError)


def test_json_roundtrip_with_negative_extension():
    seq = CoeffSeq.from_tables(
        [F(1, 2), F(-3)], [F(0), F(7, 3)], negative_a={-1: F(2)}, negative_b={}
    )
    obj = coeffseq_to_json(seq, 2)
    back = coeffseq_from_json(obj)
    for i in range(-2, 2):
        assert back.a(i) == seq.a(i)
        assert back.b(i) == seq.b(i)
    assert obj["negative"]["a"] == {"-1": "2"}


def test_json_zero_negative_tag():
    seq = CoeffSeq.from_tables([F(1)], [F(2)])
    obj = coeffseq_to_json(seq, 1)
    assert obj["negative"] == "zero"
    assert obj["a"] == ["1"] and obj["b"] == ["2"]


def test_json_requires_both_tables():
    with pytest.raises(ValueError):
        coeffseq_from_json({"a": ["1"]})


def test_load_coeffseq_from_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"a": ["0", "1/2"], "b": ["1", "-2"]}))
    seq = load_coeffseq(path)
    assert seq.a(1) == F(1, 2)
    assert seq.b(1) == -2


def test_random_coeffseq_is_deterministic_per_seed():
    one = random_coeffseq(random.Random(5))
    two = random_coeffseq(random.Random(5))
    other = random_coeffseq(random.Random(6))
    dump = lambda s: s.table_dump(64)
    assert dump(one) == dump(two)
    assert dump(one) != dump(other)


def test_random_polynomial_coeffseq_matches_its_integer_values():
    seq = random_polynomial_coeffseq(random.Random(3), degree=2)
    assert seq.is_closed_form
    for i in range(6):
        assert seq.a(i) == seq.a_at(F(i))
    # degree-2 polynomial: third finite difference vanishes
    vals = [seq.a_at(F(i)) for i in range(5)]
    third = [
        vals[i + 3] - 3 * vals[i + 2] + 3 * vals[i + 1] - vals[i] for i in range(2)
    ]
    assert all(v == 0 for v in third)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_random_polynomial_coeffseq_matches_fraction_horner(seed, degree):
    # Same draws from the same stream, and the same values everywhere.
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    seq = random_polynomial_coeffseq(rng, degree=degree)
    a, b = fraction_random_polynomials(oracle_rng, degree)
    assert rng.getstate() == oracle_rng.getstate()
    for x in sorted({F(s, t) for s in range(-9, 10) for t in range(1, 5)}):
        for got, want in ((seq.a_at(x), a(x)), (seq.b_at(x), b(x))):
            assert type(got) is Fraction and got == want


def test_table_dump_marks_unavailable_entries():
    seq = CoeffSeq.from_tables([F(1)], [F(1)])
    dump = seq.table_dump(3)
    assert dump["a"] == ["1", None, None]
