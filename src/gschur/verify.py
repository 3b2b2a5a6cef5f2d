"""Verification suites behind `gschur verify` and the acceptance gate.

`_PROPERTIES` is the one table of the properties.  A table-driven row (the
three routes, the lemma, the extension, the alternation) gives its check,
first variable count, cases, contexts, reach into a table and the options
it reads, and `sweep` runs any rows that share a sweep shape in one pass.
A failure names the trial (the table's position in the input list), the
table, the partition or shift indices, the variable count and both
mismatched values.  The shift suites build no polynomial: they read the
degree scalars of `GschurContext.shift_scalars`, the map
h_i^{(r)} = sum_d s_d h_d behind the Jacobi-Trudi entries, so they run at
any variable count.  `fh` and `stable` keep their own runners: `suite_fh`
sweeps the classical presets (its Laurent check reads the coefficients of
phi_i(x + 1/x), substituting no polynomial into another), and
`suite_stable` loops `spot_check` over the any-d layer's `SPOT_CHECKS`.

The suites draw nothing, apart from `suite_stable`'s polynomial table.
`run_property` draws one table per trial from one `random.Random(seed)`,
each long enough for every coefficient its configuration reads, so equal
configurations give equal reports; the acceptance gate passes its own
tables to `sweep` and its own cases to `spot_check`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from . import presets as presets_mod
from .coeffseq import CoeffSeq, random_coeffseq, random_polynomial_coeffseq
from .engine import GschurContext
from .exactalg import _scaled_sum, as_index, poly_to_json_terms
from .partitions import dominated_partial_sums, partitions_up_to
from .presets import boundary_insensitivity, factorial, fh_character_det, schur
from .stable import (
    SuperAlphabet,
    gschur_function,
    interpolate_c_family,
    jt_infinite_check,
    realize_expansion,
    schur_expand_at,
    super_schur,
)

_F = Fraction


@dataclass
class SuiteReport:
    """Outcome of one verification run."""

    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _seq_info(seq: CoeffSeq, upto: int = 24) -> dict:
    return {"preset": seq.name} if seq.name else seq.table_dump(upto)


def _lambda_cases(n: int, max_weight: int):
    """Cases {"lambda": [...]} for the partitions of weight <= max_weight in n rows."""
    return ({"lambda": list(lam)} for lam in partitions_up_to(max_weight, n))


def _agrees_with_bialternant(route):
    def check(ctx, case):
        lam = tuple(case["lambda"])
        lhs, rhs = route(ctx, lam), ctx.bialternant(lam)
        if lhs != rhs:
            return {"lhs": poly_to_json_terms(lhs), "rhs": poly_to_json_terms(rhs)}

    return check


def _unitriangular(ctx, case):
    lam = tuple(case["lambda"])
    expansion = ctx.monomial_expansion(lam)
    bad = [mu for mu in expansion if not dominated_partial_sums(mu, lam, ctx.n)]
    if expansion.get(lam) == 1 and not bad:
        return None
    return {"leading": str(expansion.get(lam)), "outside": [list(mu) for mu in bad]}


def _scalars_json(pair) -> dict:
    nums, den = pair
    return {d: str(Fraction(c, den)) for d, c in sorted(nums.items())}


def _splits_variables(ctx, case):
    """The variable-splitting lemma on degree scalars s_d(i, r, n).

    The residual h_i^{(r)} - x_1 h_i^{(r-1)} - h_{i+1}^{(r-1)}(x_2..x_n) is
    x_1 sum_d A_d h_d(x_1..x_n) + sum_d B_d h_d(x_2..x_n), with the two maps
    of `GschurContext._splitting_defect`, and those pieces are linearly
    independent for n >= 2, so it vanishes iff both maps are empty: that is,
    s_d(i, r, n) = s_d(i+1, r-1, n-1) for every d and
    s_d(i, r, n) = s_{d-1}(i, r-1, n) for every d >= 1.  A failure records
    the three maps themselves.
    """
    i, r = case["i"], case["r"]
    if ctx._splitting_defect(i, r) == (({}, 1), ({}, 1)):
        return None
    maps = {
        "scalars": ctx.shift_scalars(i, r),
        "prev": ctx.shift_scalars(i, r - 1),
        "tail": ctx._sub.shift_scalars(i + 1, r - 1),
    }
    return {name: _scalars_json(pair) for name, pair in maps.items()}


def _ignores_extension(pair, case):
    zero, custom = (ctx.shift_scalars(case["i"], case["r"]) for ctx in pair)
    if zero == custom:
        return None
    return {"lhs": _scalars_json(zero), "rhs": _scalars_json(custom)}


def _bracket_identity(ctx, case):
    """Alternating h_i^{(r)} x^delta against phi_{i+n-1}(x_1) x^{(r, n-2, .., 0)}.

    The alternation of h_d x^delta is h_d a_delta = a_{(d+n-1, n-2, .., 0)},
    and that of x_1^{m+r} x^{(0, n-2, .., 0)} is a_{(m+r, n-2, .., 0)} when
    m + r >= n - 1 and zero otherwise (a repeated exponent).  So the two
    sides agree iff the reduced pairs s_d(i, r, n) and [z^{d+n-1-r}] phi_{i+n-1},
    d >= 0, are equal.
    """
    n, i, r = ctx.n, case["i"], case["r"]
    phi = ctx.seq.phis.phi(i + n - 1)
    low = n - 1 - r
    tail = {m - low: c for (m,), c in phi._num.items() if m >= low}
    coeffs = _scaled_sum([(1, tail, phi._den)])
    scalars = ctx.shift_scalars(i, r)
    if scalars == coeffs:
        return None
    return {"lhs": _scalars_json(scalars), "rhs": _scalars_json(coeffs)}


CUSTOM_NEGATIVE_A = {-1: _F(1, 2), -2: _F(-3), -3: _F(2, 3), -4: _F(-5, 4)}
CUSTOM_NEGATIVE_B = {-1: _F(-2), -2: _F(5, 2), -3: _F(1), -4: _F(7, 3)}


class _Property(NamedTuple):
    """A row of `_PROPERTIES`: `check(ctx, case)` on each case of
    `cases(n, max_weight)`, first_n <= n <= max_vars, with one context
    `contexts(n, table)` per (table, n); `table(seq)` is what a drawn
    sequence becomes and `reach(max_vars, max_weight)` the highest index of
    a and b read.  A row with no check has its own runner."""

    reads: tuple[str, ...]
    check: Callable | None = None
    first_n: int = 1
    cases: Callable | None = None
    contexts: Callable = GschurContext
    table: Callable = lambda seq: seq
    reach: Callable = lambda max_vars, max_weight: 0


def _route(check) -> _Property:
    """A route row over the partitions of weight <= max_weight; S_lam reads
    phi_{lam_1 + n - 1}, that is a and b up to lam_1 + n - 2."""
    return _Property(
        ("max_weight", "max_vars"), check, 1, _lambda_cases,
        reach=lambda max_vars, max_weight: max_weight + max_vars - 2,
    )


def _shifts(check, first_n, first_i, first_r, last_i=5, **row) -> _Property:
    """A shift row over the cases {"i": i, "r": r} with first_i(n) <= i <=
    last_i and first_r <= r < i + 2n - 1.  The last, h_i^{(r)} at i = last_i
    and r = i + 2n - 2, reads phi_{i+r+n-1}: a and b up to 2 last_i + 3n - 4."""

    def cases(n, _):
        for i in range(first_i(n), last_i + 1):
            for r in range(first_r, i + 2 * n - 1):
                yield {"i": i, "r": r}

    return _Property(
        ("max_vars",), check, first_n, cases,
        reach=lambda max_vars, _: 2 * last_i + 3 * max_vars - 4, **row,
    )


# The Jacobi-Trudi and hook (Giambelli) determinants against the bialternant,
# the unitriangular monomial expansion, and the shift identities; the extension
# reads (base, other) pairs of tables that differ only at negative indices.
_PROPERTIES = {
    "jt": _route(_agrees_with_bialternant(lambda ctx, lam: ctx.jacobi_trudi(lam))),
    "giambelli": _route(_agrees_with_bialternant(lambda ctx, lam: ctx.giambelli(lam))),
    "lemma": _shifts(_splits_variables, 2, lambda n: 3 - 2 * n, 1),
    "triangularity": _route(_unitriangular),
    "extension": _shifts(
        _ignores_extension, 1, lambda n: 2 - 2 * n, 0,
        contexts=lambda n, pair: tuple(GschurContext(n, seq) for seq in pair),
        table=lambda seq: (seq, seq.with_negative(CUSTOM_NEGATIVE_A, CUSTOM_NEGATIVE_B)),
    ),
    "fh": _Property(("max_weight", "max_vars")),
    "alternation": _shifts(_bracket_identity, 1, lambda n: 0, 0, last_i=4),
    "stable": _Property(()),
}
PROPERTY_NAMES = tuple(_PROPERTIES)


def sweep(names, tables, max_vars, max_weight=0) -> dict[str, SuiteReport]:
    """Run the named table-driven properties over `tables` in one pass.

    The rows must share a sweep shape (first n, cases, contexts), as the
    routes do, so one context per (table, n), and its bialternant memo,
    serves every check.  A check returns None or the mismatched values.
    `tables` holds what the contexts read: sequences, or (base, other)
    pairs for the extension, whose failures name the base.
    """
    rows = [_PROPERTIES[name] for name in names]
    shapes = {(row.first_n, row.cases, row.contexts) for row in rows}
    if len(shapes) != 1 or not all(row.check for row in rows):
        raise ValueError(f"properties {list(names)} share no table-driven sweep")
    ((first_n, cases, contexts),) = shapes
    reports = {name: SuiteReport(name) for name in names}
    for trial, table in enumerate(tables):
        seq = table if isinstance(table, CoeffSeq) else table[0]
        for n in range(first_n, max_vars + 1):
            ctx = contexts(n, table)
            for case in cases(n, max_weight):
                for name, row in zip(names, rows):
                    reports[name].checks += 1
                    values = row.check(ctx, case)
                    if values is not None:
                        record = {"property": name, "trial": trial, "n": n, **case}
                        record.update(seq=_seq_info(seq), **values)
                        reports[name].failures.append(record)
    return reports


# -- classical presets ------------------------------------------------------


def laurent_identity_holds(seq: CoeffSeq, i: int) -> bool:
    """Check phi_i(x + 1/x) against the preset's Laurent character.

    (x + 1/x)^m is sum_k C(m, k) x^(m - 2k), so each coefficient c_m of phi_i
    adds C(m, k) c_m to the power m - 2k.  The character is the sum of x^p
    over the powers p: i, i - 2, .., -i for sp, i, i - 1, .., -i for so_odd
    and i, -i for so_even.
    """
    laurent: dict = {}
    for (m,), c in seq.phis.phi(i).items():
        for k in range(m + 1):
            laurent[m - 2 * k] = laurent.get(m - 2 * k, 0) + comb(m, k) * c
    if seq.name == "sp":
        powers = range(i, -i - 1, -2)
    elif seq.name == "so_odd":
        powers = range(i, -i - 1, -1)
    elif seq.name == "so_even":
        powers = (i, -i)
    else:
        raise ValueError(f"no Laurent form for preset {seq.name!r}")
    return {p: c for p, c in laurent.items() if c} == dict.fromkeys(powers, 1)


def suite_fh(max_weight, max_vars) -> SuiteReport:
    """Classical-preset identities: compact determinant, Laurent characters,
    boundary insensitivity.  Deterministic: it takes no tables."""
    report = SuiteReport("fh")
    boundary: dict = {}  # (n, lam) -> bool; the check ignores the preset
    for build in (presets_mod.so_odd, presets_mod.so_even, presets_mod.sp):
        seq = build()
        for i in range(0 if seq.name != "so_even" else 1, 11):
            report.checks += 1
            if not laurent_identity_holds(seq, i):
                report.failures.append(
                    {"property": "fh", "preset": seq.name, "laurent_index": i}
                )
        for n in range(1, max_vars + 1):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(max_weight, n):
                case = {"preset": seq.name, "n": n, "lambda": list(lam)}
                fh, jt = fh_character_det(ctx, lam), ctx.jacobi_trudi(lam)
                bialt = ctx.bialternant(lam)
                report.checks += 1
                if fh != bialt or jt != bialt:
                    values = {"fh": fh, "jt": jt, "bialternant": bialt}
                    terms = {k: poly_to_json_terms(v) for k, v in values.items()}
                    report.failures.append({"property": "fh", **case, **terms})
                report.checks += 1
                if (n, lam) not in boundary:
                    boundary[n, lam] = boundary_insensitivity(lam, n)
                if not boundary[n, lam]:
                    report.failures.append(
                        {"property": "fh", "kind": "boundary", **case}
                    )
    return report


# -- the any-d layer ----------------------------------------------------------


def _factorial_closed_form(seq) -> bool:
    """The factorial sequence a(i) = i has S_(1) = s_1 - d(d - 1)/2 at every d."""
    family = interpolate_c_family((1,), seq)
    const = family.get(())
    return family.get((1,)) == 1 and const is not None and all(
        const(_F(d)) == -_F(d * (d - 1), 2) for d in range(1, 9)
    )


def _realises(lam, seq, n) -> bool:
    """The any-d object at d = n, realised on n variables, is the bialternant."""
    expansion = gschur_function(lam, seq, n)
    return realize_expansion(expansion, n) == GschurContext(n, seq).bialternant(lam)


def _held_out_agrees(lam, seq, n) -> bool:
    """The interpolated family at a count n outside its sample window equals
    the direct expansion there, zeros dropped on both sides."""
    direct = {mu: c for mu, c in schur_expand_at(lam, seq, n).items() if c}
    through = {mu: func(n) for mu, func in interpolate_c_family(lam, seq).items()}
    return direct == {mu: c for mu, c in through.items() if c}


def _super_cancels(lam, seq) -> bool:
    """The realisation on 2 x and 2 y variables does not change along
    x_1 = y_1 = t (compared at t = 0, 1, -2)."""
    poly = super_schur(lam, seq, SuperAlphabet(2, 2))
    slices = [poly.bind(0, _F(t)).bind(2, _F(t)) for t in (0, 1, -2)]
    return slices[0] == slices[1] == slices[2]


# Each check takes keyword arguments and says whether its identity holds.
SPOT_CHECKS = {
    "factorial-closed-form": _factorial_closed_form,
    "realisation": _realises,
    "held-out": _held_out_agrees,
    "jt-infinite": jt_infinite_check,
    "super-cancellation": _super_cancels,
}


def spot_check(report: SuiteReport, kind: str, cases) -> None:
    """Run `SPOT_CHECKS[kind](**case)` on every case, counting each in
    `report` and recording each failing case with its arguments."""
    for case in cases:
        report.checks += 1
        if not SPOT_CHECKS[kind](**case):
            args = {
                key: _seq_info(v) if isinstance(v, CoeffSeq)
                else str(v) if isinstance(v, Fraction) else v
                for key, v in case.items()
            }
            report.failures.append({"property": report.name, "kind": kind, **args})


def suite_stable(seqs, seed) -> SuiteReport:
    """The any-d layer's spot checks on (2, 1): realisation on each of
    `seqs`, the rest on presets and on a polynomial table drawn from
    `random.Random(seed + 1)`, the generic case where rationality holds."""
    report = SuiteReport("stable")
    lam, classical = (2, 1), schur()
    poly = random_polynomial_coeffseq(random.Random(seed + 1))
    spot_check(report, "factorial-closed-form", [{"seq": factorial(lambda x: x)}])
    spot_check(report, "realisation", [{"lam": lam, "seq": s, "n": 3} for s in seqs])
    spot_check(report, "held-out", [{"lam": lam, "seq": poly, "n": n} for n in (14, 17)])
    spot_check(report, "jt-infinite",
               [{"lam": lam, "seq": classical, "d_value": _F(7, 3), "n_eval": 3}])
    spot_check(report, "super-cancellation",
               [{"lam": lam, "seq": s} for s in (classical, poly)])
    return report


def run_property(
    name: str, *, trials: int, seed: int, max_weight: int | None = None,
    max_vars: int | None = None,
) -> SuiteReport:
    """Run one named property on `trials` tables drawn from
    `random.Random(seed)`; `fh` sweeps the classical presets, so it draws
    none.

    A table-driven property runs through `sweep` on tables of length 64, or
    longer where the configuration reads further (the row's `reach`), so
    the draws of every configuration that 64 serves are unchanged.
    `max_weight` and `max_vars` default to 5 and 3 for the properties that
    read them.  Raises ValueError, before any case runs, for an option the
    property does not read and for a configuration that leaves the suite
    with nothing to check; trials >= 1, seed, max_weight >= 0 and
    max_vars >= 1 go through the index gate first.
    """
    if name not in _PROPERTIES:
        raise ValueError(f"unknown property {name!r}; pick from {PROPERTY_NAMES}")
    row = _PROPERTIES[name]
    given = {"max_weight": max_weight, "max_vars": max_vars}
    ignored = [opt for opt, v in given.items() if v is not None and opt not in row.reads]
    if ignored:
        flags = " or ".join("--" + opt.replace("_", "-") for opt in ignored)
        raise ValueError(f"property {name} does not read {flags}")
    as_index(trials, "trials", 1)
    as_index(seed, "seed")
    max_weight = as_index(5 if max_weight is None else max_weight, "max_weight", 0)
    max_vars = as_index(3 if max_vars is None else max_vars, "max_vars", 1)
    if name == "fh":
        report = suite_fh(max_weight, max_vars)
    else:
        rng = random.Random(seed)
        length = max(64, row.reach(max_vars, max_weight) + 1)
        tables = [row.table(random_coeffseq(rng, length)) for _ in range(trials)]
        if row.check:
            report = sweep([name], tables, max_vars, max_weight)[name]
        else:
            report = suite_stable(tables, seed)
    if report.checks == 0:
        raise ValueError(f"property {name}: this configuration performs no checks")
    return report
