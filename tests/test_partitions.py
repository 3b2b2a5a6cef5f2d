"""Partition combinatorics tests."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gschur.partitions import (
    check_partition,
    compositions,
    conjugate,
    contains,
    diagonal_rank,
    dominated_partial_sums,
    format_partition,
    frobenius_coordinates,
    kostka,
    pad,
    parse_partition,
    partitions_of,
    partitions_up_to,
)

from oracles import index_set_identity, kostka as tableau_kostka, recursive_compositions


@st.composite
def partitions(draw, max_weight=12):
    w = draw(st.integers(min_value=0, max_value=max_weight))
    parts = []
    remaining = w
    bound = w
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(part)
        bound = part
        remaining -= part
    return tuple(parts)


def test_check_partition_strips_trailing_zeros():
    assert check_partition([3, 1, 0, 0]) == (3, 1)
    assert check_partition([]) == ()
    assert check_partition((5,)) == (5,)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, -1])
    with pytest.raises(ValueError):
        check_partition([2, 0, 1])


@pytest.mark.parametrize(
    "parts, kind",
    [((Fraction(2), 1.0), "Fraction"), ((2, 1.0), "float"), ((2.7, 1), "float"),
     ((Fraction(5, 2),), "Fraction"), ((True,), "bool"), ((1, False), "bool")],
    ids=repr,
)
def test_check_partition_reads_parts_through_the_index_gate(parts, kind):
    # Integral floats and Fractions are not indices, so nothing is rounded.
    with pytest.raises(TypeError, match=f"^partition part must be an int, got {kind}$"):
        check_partition(parts)


def test_pad():
    assert pad((3, 1), 4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        pad((3, 1, 1), 2)


def test_conjugate_pinned():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_conjugate_is_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == sum(p)
    assert diagonal_rank(conjugate(p)) == diagonal_rank(p)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (2, 2, 1))
    assert not contains((3, 2), (4,))


def test_diagonal_rank_pinned():
    assert diagonal_rank(()) == 0
    assert diagonal_rank((1,)) == 1
    assert diagonal_rank((4, 3, 1)) == 2
    assert diagonal_rank((3, 3, 3)) == 3


def test_frobenius_coordinates_pinned():
    arms, legs = frobenius_coordinates((4, 3, 1))
    assert arms == (3, 1)
    assert legs == (2, 0)
    assert frobenius_coordinates(()) == ((), ())
    # one-box diagram: a corner box with no arm and no leg
    assert frobenius_coordinates((1,)) == ((0,), (0,))


@given(partitions())
@settings(max_examples=80, deadline=None)
def test_frobenius_coordinates_transpose_swaps_arms_and_legs(p):
    arms, legs = frobenius_coordinates(p)
    carms, clegs = frobenius_coordinates(conjugate(p))
    assert (arms, legs) == (clegs, carms)
    assert all(a >= 0 for a in arms) and all(b >= 0 for b in legs)
    # strictly decreasing coordinate sequences
    assert list(arms) == sorted(arms, reverse=True) and len(set(arms)) == len(arms)
    assert list(legs) == sorted(legs, reverse=True) and len(set(legs)) == len(legs)


def test_dominated_partial_sums_examples():
    assert dominated_partial_sums((1, 1, 1), (2, 1), 3)
    assert dominated_partial_sums((2, 1), (2, 1), 3)
    # lower weight is allowed, only the running sums matter
    assert dominated_partial_sums((1,), (2, 1), 3)
    assert not dominated_partial_sums((3,), (2, 1), 3)
    with pytest.raises(ValueError):
        dominated_partial_sums((1, 1, 1), (2, 1), 2)


def test_partitions_of_counts_and_order():
    sixes = list(partitions_of(6))
    assert len(sixes) == 11  # p(6)
    assert sixes[0] == (6,)
    assert sixes[-1] == (1, 1, 1, 1, 1, 1)
    # reverse-lexicographic: each successor is strictly smaller
    assert all(a > b for a, b in zip(sixes, sixes[1:]))
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(-1)) == []
    assert list(partitions_of(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_up_to_respects_length_bound():
    ps = list(partitions_up_to(4, 2))
    assert (1, 1, 1) not in ps
    assert (2, 2) in ps
    assert () in ps
    assert len(ps) == len(set(ps))


def test_length_bound_enumerates_the_filtered_sequence():
    for w in range(19):
        every = list(partitions_up_to(w))
        for l in range(w + 2):
            assert list(partitions_up_to(w, l)) == [p for p in every if len(p) <= l]
    # At most two parts: (w - k, k) for 0 <= k <= w / 2, in each weight w.
    assert list(partitions_up_to(60, 2)) == [
        tuple(p for p in (w - k, k) if p) for w in range(61) for k in range(w // 2 + 1)
    ]


def test_compositions_edges_counts_and_order():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(0, 2)) == []
    assert list(compositions(3, -1)) == []
    assert list(compositions(1, 4)) == [(4,)]
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    for length in range(1, 5):
        for total in range(7):
            got = list(compositions(length, total))
            assert len(got) == comb(total + length - 1, length - 1)
            assert got == sorted(got, reverse=True)
            assert all(len(e) == length and sum(e) == total for e in got)


@given(st.integers(0, 7), st.integers(-1, 7))
@settings(max_examples=200, deadline=None)
def test_compositions_match_the_recursive_oracle(length, total):
    assert list(compositions(length, total)) == list(recursive_compositions(length, total))


def test_compositions_run_at_any_length():
    # No stack level per entry: Python's recursion limit is about a thousand.
    for length in (1000, 2000):
        got = list(compositions(length, 1))
        assert len(got) == length and got[0] == (1,) + (0,) * (length - 1)
        assert got[-1] == (0,) * (length - 1) + (1,)


def test_index_set_identity_small_cases():
    for p in [(), (1,), (2, 1), (4, 3, 1), (5, 5, 5, 2, 1)]:
        assert index_set_identity(p)


def test_parse_and_format_partition():
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition("") == ()
    assert parse_partition(" 2 , 2 ") == (2, 2)
    assert parse_partition("5") == (5,)
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == ""
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")


@settings(max_examples=200, deadline=None)
@given(shape=partitions(max_weight=7), data=st.data())
def test_kostka_counts_the_semistandard_tableaux(shape, data):
    # The content is a partition of the shape's weight, or of a weight near it.
    weight = data.draw(st.sampled_from(sorted({sum(shape), max(sum(shape) - 1, 0)})))
    content = data.draw(st.sampled_from(list(partitions_of(weight))))
    assert kostka(shape, content) == tableau_kostka(shape, content)


def test_kostka_pinned():
    # The classical table of weight 3: h_(1,1,1) = s_3 + 2 s_(2,1) + s_(1,1,1).
    assert [kostka(rho, (1, 1, 1)) for rho in partitions_of(3)] == [1, 2, 1]
    assert kostka((2, 1), (3,)) == 0 and kostka((), ()) == 1
    assert kostka((3, 2), (2, 2, 1)) == 2
