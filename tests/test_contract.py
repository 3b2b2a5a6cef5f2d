"""The library's input contract, one table for every public entry.

Each row is one argument slot of one entry: an index, read by
`exactalg.as_index` (from `low` on, when the row has one), a partition part
(an index from 0), an exact scalar, read by `exactalg.as_rational`, a
container (a sequence or a mapping), read by `exactalg.as_container`, a
partition as a whole, which must be iterable, or a coefficient sequence,
which must be a `CoeffSeq`.  Every
out-of-contract value in a slot must raise TypeError or ValueError whose
message starts with the slot's name, before any work: the sequence's phi
memo, its fitted families and every memo of the context stay as they were.
"""

import random
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import gschur
from gschur import presets
from gschur.coeffseq import CoeffSeq, random_coeffseq
from gschur.engine import GschurContext, monomial_symmetric
from gschur.exactalg import MultiPoly
from gschur.partitions import (
    check_partition, compositions, dominated_partial_sums, pad, partitions_of,
    partitions_up_to,
)
from gschur.presets import bc_jacobi, factorial, sp
from gschur.stable import (
    SuperAlphabet,
    gschur_function,
    interpolate_c_family,
    jt_infinite_check,
    realize_expansion,
    schur_expand_at,
    super_schur,
)
from gschur.verify import run_property

F = Fraction


class World:
    """Fresh inputs for one call: a closed-form sequence, a context over it
    and a polynomial in two variables.  The memos hold the entries that a
    bool read as 1 would hit (phi_1, h_1, h_1^(1), S_(2), S_(2,1)), so a
    gate behind a memo read shows as a returned value."""

    def __init__(self):
        self.seq = sp()
        self.ctx = GschurContext(3, self.seq)
        for lam in ((2,), (2, 1)):
            self.ctx.bialternant(lam)
            self.ctx.jacobi_trudi(lam)
        self.ctx.h(1)
        self.ctx.h_shift(1, 1)
        self.poly = MultiPoly.variable(2, 0) + 1

    def state(self):
        memos = {k: len(v) for k, v in vars(self.ctx).items() if isinstance(v, dict)}
        # A cached `_sub` context would show up as a new attribute.
        return len(self.seq.phis._memo), len(self.seq.families), sorted(vars(self.ctx)), memos


class Slot(NamedTuple):
    """`call(value, world)` puts `value` in the slot named `label`."""

    label: str
    kind: str  # "index", "scalar", "sequence", "mapping", "iterable" or "coeffseq"
    call: Callable
    low: int | None = None
    none_ok: bool = False  # None is the slot's default, so it is in contract
    extra: tuple = ()

    @property
    def prefix(self) -> str:
        return f"{self.label}: " if self.kind == "scalar" else f"{self.label} must be "

    def fixed(self) -> list:
        """The out-of-contract values every slot of its kind gets."""
        if self.kind == "scalar":
            bad = [True, False, 2.0, 1.5, None, "x", "1/0"]
        elif self.kind == "sequence":
            bad = [True, 2, 2.0, F(1, 2), None, "12", b"12", {0: 1}]
        elif self.kind == "mapping":
            bad = [True, 2, 2.0, None, "x", [(-1, 1)], ((-1, 1),)]
        elif self.kind == "iterable":
            bad = [True, 2, 2.0, F(1, 2), None]
        elif self.kind == "coeffseq":
            bad = [None, 2, "sp", [0, 1], {"a": [0], "b": [0]}, sp]
        else:
            bad = [True, False, 2.0, 1.5, F(2), F(5, 2), None, "x", "1/0", "2"]
            if self.low is not None:
                bad.append(self.low - 1)
        return [v for v in bad if v is not None or not self.none_ok] + list(self.extra)

    def drawn(self):
        """Drawn out-of-contract values of the slot's kind."""
        kinds = [st.booleans(), st.floats()]
        if not self.none_ok:
            kinds.append(st.none())
        if self.kind == "scalar":
            kinds += [st.text().filter(_unreadable), st.integers().map(lambda p: f"{p}/0")]
        elif self.kind == "sequence":
            kinds += [st.integers(), st.text(), st.dictionaries(st.integers(), st.integers())]
        elif self.kind == "mapping":
            kinds += [st.integers(), st.text(), st.lists(st.integers())]
        elif self.kind == "iterable":
            kinds += [st.integers(), st.fractions()]
        elif self.kind == "coeffseq":
            kinds += [st.integers(), st.text(), st.lists(st.integers())]
        else:
            kinds += [st.fractions(), st.text()]
            if self.low is not None:
                kinds.append(st.integers(max_value=self.low - 1))
        return st.one_of(kinds)


def _unreadable(text: str) -> bool:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


@cache
def _fitted():
    """The constant coefficient of S_(1) for a(i) = i, a fitted function of d."""
    return interpolate_c_family((1,), factorial(lambda x: x))[()]


def index(label, call, low=None, **kw) -> Slot:
    return Slot(label, "index", call, low, **kw)


def part(call) -> Slot:
    return Slot("partition part", "index", call, 0)


def scalar(label, call) -> Slot:
    return Slot(label, "scalar", call)



SLOTS = {
    # GschurContext and its methods
    "GschurContext-n": index("n", lambda v, w: GschurContext(v, w.seq), 1),
    "GschurContext-seq": Slot("seq", "coeffseq", lambda v, w: GschurContext(2, v).h(1)),
    "fit_partition": part(lambda v, w: w.ctx.fit_partition((2, v))),
    "bialternant": part(lambda v, w: w.ctx.bialternant((2, v))),
    "jacobi_trudi": part(lambda v, w: w.ctx.jacobi_trudi((2, v))),
    "jacobi_trudi-first-part": part(lambda v, w: w.ctx.jacobi_trudi((v, 1))),
    "jacobi_trudi-lam": Slot("partition", "iterable", lambda v, w: w.ctx.jacobi_trudi(v)),
    "giambelli": part(lambda v, w: w.ctx.giambelli((2, v))),
    "monomial_expansion": part(lambda v, w: w.ctx.monomial_expansion((2, v))),
    "h-i": index("i", lambda v, w: w.ctx.h(v)),
    "h_shift-i": index("i", lambda v, w: w.ctx.h_shift(v, 1)),
    "h_shift-r": index("r", lambda v, w: w.ctx.h_shift(1, v), 0),
    "shift_scalars-i": index("i", lambda v, w: w.ctx.shift_scalars(v, 1)),
    "shift_scalars-r": index("r", lambda v, w: w.ctx.shift_scalars(1, v), 0),
    "hook-u": index("u", lambda v, w: w.ctx.hook(v, 0)),
    "hook-v": index("v", lambda v, w: w.ctx.hook(1, v), 0),
    "lemma_residual-i": index("i", lambda v, w: w.ctx.lemma_residual(v, 1)),
    "lemma_residual-r": index("r", lambda v, w: w.ctx.lemma_residual(1, v), 1),
    "monomial_symmetric-n": index("n", lambda v, w: monomial_symmetric(v, (1,)), 0),
    # partition helpers: the counts are read when called, not when iterated
    "check_partition": Slot("partition", "iterable", lambda v, w: check_partition(v)),
    "pad": index("n", lambda v, w: pad((1,), v), 0),
    "partitions_of-total": index("total", lambda v, w: partitions_of(v)),
    "partitions_of-max_part": index(
        "max_part", lambda v, w: partitions_of(4, max_part=v), none_ok=True
    ),
    "partitions_of-max_length": index(
        "max_length", lambda v, w: partitions_of(4, max_length=v), none_ok=True
    ),
    "partitions_up_to-max_weight": index("max_weight", lambda v, w: partitions_up_to(v)),
    "partitions_up_to-max_length": index(
        "max_length", lambda v, w: partitions_up_to(2, v), none_ok=True
    ),
    "compositions-length": index("length", lambda v, w: compositions(v, 1), 0),
    "compositions-total": index("total", lambda v, w: compositions(2, v)),
    "dominated_partial_sums": index(
        "n", lambda v, w: dominated_partial_sums((1,), (1,), v), 0
    ),
    # sequences and their families
    "phi": index("i", lambda v, w: w.seq.phis.phi(v), -1),
    "a-table": index("i", lambda v, w: CoeffSeq.from_tables([1, 2], [1, 2]).a(v)),
    "b-table": index("i", lambda v, w: CoeffSeq.from_tables([1, 2], [1, 2]).b(v)),
    "a-closed-form": index("i", lambda v, w: w.seq.a(v)),
    "from_tables-a_table": Slot(
        "a_table", "sequence", lambda v, w: CoeffSeq.from_tables(v, [0])
    ),
    "from_tables-b_table": Slot(
        "b_table", "sequence", lambda v, w: CoeffSeq.from_tables([0], v)
    ),
    "from_tables-negative_a": Slot(
        "negative_a", "mapping", lambda v, w: CoeffSeq.from_tables([1], [1], negative_a=v),
        none_ok=True,
    ),
    "from_tables-a": scalar("a[0]", lambda v, w: CoeffSeq.from_tables([v], [0])),
    "from_tables-b": scalar("b[1]", lambda v, w: CoeffSeq.from_tables([0, 0], [0, v])),
    "from_tables-negative-key": index(
        "negative_a key",
        lambda v, w: CoeffSeq.from_tables([1, 2, 3], [1, 2, 3], negative_a={v: 7}),
        extra=(-1.5, -1.0),
    ),
    "from_tables-negative-value": scalar(
        "negative_b[-1]", lambda v, w: CoeffSeq.from_tables([1], [1], negative_b={-1: v})
    ),
    "from_functions-value": scalar(
        "a", lambda v, w: CoeffSeq.from_functions(lambda x: v, lambda x: F(1)).phis.phi(2)
    ),
    "with_negative-negative_a": Slot(
        "negative_a", "mapping", lambda v, w: w.seq.with_negative(v, {}), none_ok=True
    ),
    "with_negative-negative_b": Slot(
        "negative_b", "mapping", lambda v, w: w.seq.with_negative({}, v), none_ok=True
    ),
    "random_coeffseq-length": index(
        "length", lambda v, w: random_coeffseq(random.Random(0), v), 0
    ),
    # presets
    "bc_jacobi-p": scalar("p", lambda v, w: bc_jacobi(v, -3)),
    "bc_jacobi-q": scalar("q", lambda v, w: bc_jacobi(1, v)),
    "bc_jacobi-probe_upto": index("probe_upto", lambda v, w: bc_jacobi(1, -3, v), -1),
    "factorial": scalar("a[0]", lambda v, w: factorial([v])),
    "factorial-a_values": Slot("a_values", "sequence", lambda v, w: factorial(v)),
    "make-p": scalar("p", lambda v, w: presets.make("bc_jacobi", p=v, q=-3)),
    "make-q": scalar("q", lambda v, w: presets.make("bc_jacobi", p=1, q=v)),
    "make-a_table": scalar("a[1]", lambda v, w: presets.make("factorial", a_table=[0, v])),
    # the any-d layer
    "schur_expand_at-lam": part(lambda v, w: schur_expand_at((2, v), w.seq, 3)),
    "schur_expand_at-n": index("n", lambda v, w: schur_expand_at((2,), w.seq, v), 1),
    "schur_expand_at-seq": Slot("seq", "coeffseq", lambda v, w: schur_expand_at((1,), v, 2)),
    "realize_expansion-expansion": Slot(
        "expansion", "mapping", lambda v, w: realize_expansion(v, 2)
    ),
    "realize_expansion-n": index("n", lambda v, w: realize_expansion({(1,): 1}, v), 0),
    "realize_expansion-m": index("m", lambda v, w: realize_expansion({(1,): 1}, 2, v), 0),
    "interpolate_c_family": part(lambda v, w: interpolate_c_family((2, v), w.seq)),
    "gschur_function-lam": part(lambda v, w: gschur_function((2, v), w.seq, F(1, 3))),
    "gschur_function-d": scalar("d_value", lambda v, w: gschur_function((1,), w.seq, v)),
    "jt_infinite_check-lam": part(
        lambda v, w: jt_infinite_check((2, v), w.seq, F(1, 3), 3)
    ),
    "jt_infinite_check-d": scalar(
        "d_value", lambda v, w: jt_infinite_check((1,), w.seq, v, 2)
    ),
    "jt_infinite_check-n_eval": index(
        "n_eval", lambda v, w: jt_infinite_check((2, 1), w.seq, F(1, 3), v), 2
    ),
    "super_schur-lam": part(lambda v, w: super_schur((2, v), w.seq, SuperAlphabet(2, 1))),
    "super_schur-alphabet": Slot(
        "alphabet", "sequence", lambda v, w: super_schur((1,), w.seq, v),
        extra=((2,), (2, 1, 0), [2, 1, 0]),
    ),
    "super_schur-n": index(
        "alphabet.n", lambda v, w: super_schur((1,), w.seq, SuperAlphabet(v, 1)), 0
    ),
    "super_schur-m": index(
        "alphabet.m", lambda v, w: super_schur((1,), w.seq, SuperAlphabet(2, v)), 0
    ),
    "fitted-function": scalar("d", lambda v, w: _fitted()(v)),
    # MultiPoly: the constructor, the builders and the operators
    "MultiPoly-arity": index("arity", lambda v, w: MultiPoly(v), 0),
    "MultiPoly-terms": Slot("terms", "mapping", lambda v, w: MultiPoly(2, v), none_ok=True),
    "MultiPoly-exponent": index("exponent", lambda v, w: MultiPoly(2, {(v, 0): 1}), 0),
    "MultiPoly-coefficient": scalar("coefficient", lambda v, w: MultiPoly(2, {(1, 0): v})),
    "zero": index("arity", lambda v, w: MultiPoly.zero(v), 0),
    "one": index("arity", lambda v, w: MultiPoly.one(v), 0),
    "constant-arity": index("arity", lambda v, w: MultiPoly.constant(v, 1), 0),
    "constant-value": scalar("coefficient", lambda v, w: MultiPoly.constant(2, v)),
    "variable-arity": index("arity", lambda v, w: MultiPoly.variable(v, 0), 0),
    "variable-index": index("index", lambda v, w: MultiPoly.variable(2, v), 0),
    "monomial-exponent": index("exponent", lambda v, w: MultiPoly.monomial(2, (1, v)), 0),
    "monomial-coeff": scalar("coefficient", lambda v, w: MultiPoly.monomial(2, (1, 0), v)),
    "coefficient-exponent": index("exponent", lambda v, w: w.poly.coefficient((1, v)), 0),
    "bind-index": index("index", lambda v, w: w.poly.bind(v, 1), 0),
    "bind-value": scalar("value", lambda v, w: w.poly.bind(0, v)),
    "add": scalar("coefficient", lambda v, w: w.poly + v),
    "radd": scalar("coefficient", lambda v, w: v + w.poly),
    "sub": scalar("coefficient", lambda v, w: w.poly - v),
    "rsub": scalar("coefficient", lambda v, w: v - w.poly),
    "mul": scalar("coefficient", lambda v, w: w.poly * v),
    "rmul": scalar("coefficient", lambda v, w: v * w.poly),
    "truediv": scalar("divisor", lambda v, w: w.poly / v),
    "pow": index("exponent", lambda v, w: w.poly**v, 0),
    # the verification runner
    "run_property-trials": index("trials", lambda v, w: run_property("jt", trials=v, seed=0), 1),
    "run_property-seed": index("seed", lambda v, w: run_property("jt", trials=1, seed=v)),
    "run_property-max_weight": index(
        "max_weight", lambda v, w: run_property("jt", trials=1, seed=0, max_weight=v), 0,
        none_ok=True,
    ),
    "run_property-max_vars": index(
        "max_vars", lambda v, w: run_property("jt", trials=1, seed=0, max_vars=v), 1,
        none_ok=True,
    ),
}


def assert_refused(slot: Slot, value) -> None:
    world = World()
    before = world.state()
    with pytest.raises((TypeError, ValueError)) as info:
        slot.call(value, world)
    assert type(info.value) in (TypeError, ValueError), repr(info.value)
    assert str(info.value).startswith(slot.prefix), (value, str(info.value))
    assert world.state() == before, value


@pytest.mark.parametrize("slot", SLOTS.values(), ids=SLOTS)
def test_every_slot_refuses_the_fixed_out_of_contract_values(slot):
    for value in slot.fixed():
        assert_refused(slot, value)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_every_slot_refuses_drawn_out_of_contract_values(data):
    slot = data.draw(st.sampled_from(list(SLOTS.values())), label="slot")
    assert_refused(slot, data.draw(slot.drawn(), label="value"))


def test_the_table_covers_every_exported_entry_and_context_method():
    # The exception classes take no input; SuperAlphabet's sizes are read by
    # super_schur, UniPolySeq is reached as seq.phis and CoeffSeq through
    # its two builders.
    entries = set(gschur.__all__) - {
        "DivisionNotExactError", "InterpolationInconsistentError", "PoleError",
    }
    named = {key.split("-")[0] for key in SLOTS}
    assert {"from_tables", "from_functions", "phi", "super_schur"} <= named
    assert entries <= named | {"CoeffSeq", "SuperAlphabet", "UniPolySeq"}
    methods = {name for name in vars(GschurContext) if not name.startswith("_")}
    assert methods <= named


@pytest.mark.parametrize(
    "text, value",
    [("1/2", F(1, 2)), (" -3/2 ", F(-3, 2)), ("1.5", F(3, 2)), ("1e3", F(1000))],
)
def test_rational_text_reads_wherever_a_scalar_is_read(text, value):
    seq = CoeffSeq.from_tables([text], [0], negative_a={-1: text})
    assert seq.a(0) == seq.a(-1) == value
    assert MultiPoly.constant(1, text) == MultiPoly.constant(1, value)
    x = MultiPoly.variable(1, 0)
    assert x * text == x * value and x + text == x + value and text - x == value - x
    assert x.bind(0, text) == MultiPoly.constant(1, value)
    closed = CoeffSeq.from_functions(lambda x: text, lambda x: text)
    assert closed.phis.phi(2) == CoeffSeq.from_functions(lambda x: value, lambda x: value).phis.phi(2)
    assert bc_jacobi(text, -3, probe_upto=-1).a(5) == bc_jacobi(value, -3, probe_upto=-1).a(5)
