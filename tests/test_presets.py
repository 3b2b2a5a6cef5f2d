"""Tests for the ready-made coefficient sequences and classical routines."""

from fractions import Fraction

import pytest

from gschur.coeffseq import CoeffSeq, PoleError
from gschur.engine import GschurContext
from gschur.exactalg import MultiPoly
from gschur.partitions import partitions_up_to
from gschur.presets import (
    _boundary_variants,
    bc_jacobi,
    boundary_insensitivity,
    factorial,
    fh_character_det,
    make,
    schur,
    so_even,
    so_odd,
    sp,
)
from gschur.verify import laurent_identity_holds

from oracles import fraction_bc_jacobi

F = Fraction


def test_schur_preset_is_zero_everywhere():
    seq = schur()
    assert seq.a(7) == 0 and seq.b(7) == 0
    assert seq.a_at(F(5, 3)) == 0
    assert seq.name == "schur"


def test_so_odd_coefficients():
    seq = so_odd()
    assert seq.a(0) == -1
    assert seq.b(0) == 0
    assert seq.a(3) == 0
    assert seq.b(3) == 1


def test_so_even_coefficients():
    seq = so_even()
    assert seq.b(0) == 0
    assert seq.b(1) == 2
    assert seq.b(2) == 1
    assert seq.a(4) == 0


def test_sp_coefficients():
    seq = sp()
    assert seq.a(0) == 0
    assert all(seq.b(i) == 1 for i in range(6))


def test_factorial_table_form():
    seq = factorial([F(1, 2), 3, -1])
    assert seq.a(1) == 3
    assert seq.b(2) == 0
    with pytest.raises(IndexError):
        seq.a(3)


@pytest.mark.parametrize("value", [0.5, True, "1/2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "build",
    [lambda v: factorial([v]), lambda v: bc_jacobi(v, -3),
     lambda v: bc_jacobi(1, v, probe_upto=-1)],
    ids=["factorial", "bc_jacobi-p", "bc_jacobi-q"],
)
def test_presets_read_parameters_as_table_entries(build, value):
    # A string reads as its Fraction; a float or bool is refused when the
    # preset is built, with the value named.
    if isinstance(value, str):
        assert build(value).a(0) == build(F(value)).a(0)
    else:
        with pytest.raises(TypeError, match=f"cannot interpret {value!r}"):
            build(value)


def test_factorial_callable_form():
    seq = factorial(lambda x: x * x)
    assert seq.a(3) == 9
    assert seq.a_at(F(1, 2)) == F(1, 4)
    assert seq.b(5) == 0


def test_bc_jacobi_probes_fail_fast():
    for (p, q), index in (((1, 1), 1), ((1, 2), 2), ((3, 1), 2)):
        with pytest.raises(PoleError) as err:
            bc_jacobi(p, q)
        assert err.value.index == index


def test_bc_jacobi_deferred_probe():
    seq = bc_jacobi(1, 1, probe_upto=0)
    assert seq.a(0) == -1
    assert seq.a(3) == -1
    with pytest.raises(PoleError):
        seq.a(1)


def test_bc_jacobi_pole_free_instance():
    # both parameter signs negative enough pushes every pole below zero
    seq = bc_jacobi(1, -3)
    values = [seq.a(i) for i in range(9)] + [seq.b(i) for i in range(9)]
    assert all(isinstance(v, Fraction) for v in values)


# Every s/t with |s| <= 24 and t dividing 12: the poles of the instances
# below (such as 5/12 and 17/12 for p, q = 1/2, 2/3) are on it.
RATIONAL_GRID = sorted({F(s, t) for s in range(-24, 25) for t in (1, 2, 3, 4, 6, 12)})


@pytest.mark.parametrize(
    "p, q, probe_upto",
    [(1, -3, 8), (F(1, 2), F(2, 3), 8), (F(-1, 3), F(3, 4), 8), (-3, F(5, 2), -1)],
    ids=["1,-3", "1/2,2/3", "-1/3,3/4", "-3,5/2"],
)
def test_bc_jacobi_matches_its_fraction_formulas(p, q, probe_upto):
    # The integer evaluation gives each value, and at each pole the same
    # PoleError, as the Fraction formulas.
    seq = bc_jacobi(p, q, probe_upto=probe_upto)
    poles = set()
    for got, want in zip((seq.a_at, seq.b_at), fraction_bc_jacobi(p, q)):
        for x in RATIONAL_GRID:
            try:
                value = want(x)
            except PoleError as exc:
                with pytest.raises(PoleError) as caught:
                    got(x)
                assert (caught.value.index, str(caught.value)) == (exc.index, str(exc))
                poles.add(x)
                continue
            assert type(got(x)) is Fraction and got(x) == value
    assert poles and (F(1) in poles) == (probe_upto == -1)


def test_make_dispatch():
    assert make("sp").name == "sp"
    assert make("factorial", a_table=[1, 2]).a(1) == 2
    assert make("bc_jacobi", p=1, q=-3).name == "bc_jacobi"
    with pytest.raises(ValueError):
        make("factorial")
    with pytest.raises(ValueError):
        make("bc_jacobi", p=1)
    with pytest.raises(ValueError):
        make("no_such_preset")
    with pytest.raises(ValueError, match="the schur preset does not read p, q$"):
        make("schur", p=1, q=7)
    with pytest.raises(ValueError, match="the factorial preset does not read p$"):
        make("factorial", a_table=[1, 2], p=1)


def test_fh_determinant_matches_other_routes():
    for build in (so_odd, so_even, sp):
        seq = build()
        for n in (2, 3):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(4, n):
                value = fh_character_det(ctx, lam)
                assert value == ctx.jacobi_trudi(lam)
                assert value == ctx.bialternant(lam)


def test_fh_determinant_empty_partition():
    ctx = GschurContext(2, sp())
    assert fh_character_det(ctx, ()) == MultiPoly.one(2)


def test_fh_determinant_rejects_other_presets():
    ctx = GschurContext(2, schur())
    with pytest.raises(ValueError):
        fh_character_det(ctx, (1,))
    with pytest.raises(ValueError):
        fh_character_det(GschurContext(2, sp()), (1, 1, 1))


def test_laurent_characters():
    for build in (so_odd, sp):
        seq = build()
        for i in range(0, 11):
            assert laurent_identity_holds(seq, i)
    # the even orthogonal character identity starts at degree one
    seq = so_even()
    for i in range(1, 11):
        assert laurent_identity_holds(seq, i)


@pytest.mark.parametrize("build, which, index, value, first_bad", [
    (sp, "b", 3, 2, 4),
    (so_odd, "a", 5, F(1, 7), 6),
])
def test_laurent_check_fails_exactly_above_a_planted_entry(
    build, which, index, value, first_bad
):
    # phi_{j+1} reads a(j) and b(j), so a wrong entry at j first shows in phi_{j+1}
    seq = build()
    tables = {"a": [seq.a(j) for j in range(12)], "b": [seq.b(j) for j in range(12)]}
    tables[which][index] = value
    planted = CoeffSeq.from_tables(tables["a"], tables["b"], name=seq.name)
    held = [laurent_identity_holds(planted, i) for i in range(11)]
    assert held == [i < first_bad for i in range(11)]


def test_boundary_values_never_reach_shift_entries():
    for n in (2, 3):
        for lam in partitions_up_to(4, n):
            assert boundary_insensitivity(lam, n)


def test_boundary_verdicts_do_not_depend_on_the_call_order():
    # The shift-scalar memos behind the check are shared across calls per n.
    cases = [(lam, n) for n in range(1, 5) for lam in partitions_up_to(6, n)]
    _boundary_variants.cache_clear()
    forward = {case: boundary_insensitivity(*case) for case in cases}
    _boundary_variants.cache_clear()
    backward = {case: boundary_insensitivity(*case) for case in reversed(cases)}
    assert forward == backward
    assert all(forward.values())


def test_boundary_check_short_partitions_trivial():
    assert boundary_insensitivity((), 1)
    assert boundary_insensitivity((4,), 1)
    with pytest.raises(ValueError):
        boundary_insensitivity((1, 1), 1)
