"""Verification suites behind `gschur verify` and the acceptance gate.

Each suite sweeps an identity over the coefficient tables it is given (or
over the fixed classical presets) and reports every counterexample it finds,
with enough context to replay the failure: the trial number (the table's
position in the input list), the table, the partition or shift indices and
variable count, and both mismatched values.  The table-driven suites (the
three routes, the lemma, the extension and the alternation) are one driver,
`_sweep`, run with one check function per property.  The three shift
suites build no polynomial: each reads the degree scalars of
`GschurContext.shift_scalars`, the map h_i^{(r)} = sum_d s_d h_d that the
Jacobi-Trudi entries are written from, so they run at any variable count.
The Laurent check compares the coefficients of phi_i(x + 1/x) with no
substitution of one polynomial into another.

The suites take their tables as an explicit list and draw nothing
themselves, apart from `suite_stable`'s polynomial table.  `run_property`
draws that list from one `random.Random(seed)`, one table per trial in trial
order, so identical configurations produce identical reports; the
acceptance gate passes its own seeded tables to the same suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import presets as presets_mod
from .coeffseq import CoeffSeq, random_coeffseq, random_polynomial_coeffseq
from .engine import GschurContext
from .exactalg import MultiPoly, poly_to_json_terms
from .partitions import dominated_partial_sums, partitions_up_to
from .presets import boundary_insensitivity, fh_character_det
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

# Per property: the options it reads.
_PROPERTIES = {
    "jt": ("max_weight", "max_vars"),
    "giambelli": ("max_weight", "max_vars"),
    "lemma": ("max_vars",),
    "triangularity": ("max_weight", "max_vars"),
    "extension": ("max_vars",),
    "fh": ("max_weight", "max_vars"),
    "alternation": ("max_vars",),
    "stable": (),
}
PROPERTY_NAMES = tuple(_PROPERTIES)


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
    if seq.name:
        return {"preset": seq.name}
    return seq.table_dump(upto)


def _failure(name, trial, n, case: dict, seq, **values) -> dict:
    record = {"property": name, "trial": trial, "n": n, **case}
    return {**record, "seq": _seq_info(seq), **values}


def _lambda_cases(n: int, max_weight: int):
    """Cases {"lambda": [...]} for the partitions of weight <= max_weight in n rows."""
    for lam in partitions_up_to(max_weight, n):
        yield {"lambda": list(lam)}


def _shift_cases(n: int, first_i: int, first_r: int, last_i: int = 5):
    """Cases {"i": i, "r": r}, first_i <= i <= last_i and first_r <= r < i + 2n - 1."""
    for i in range(first_i, last_i + 1):
        for r in range(first_r, i + 2 * n - 1):
            yield {"i": i, "r": r}


def _sweep(checks, tables, ns, cases, contexts=GschurContext) -> dict[str, SuiteReport]:
    """Run every named check on every case of every (table, n).

    A check (ctx, case) returns None on success and the mismatched values
    otherwise.  `cases(n)` yields the case dicts; `contexts(n, table)` builds
    one ctx per (table, n), shared by all checks.  A failure names the table,
    or the first member of a pair of tables.  Returns one report per name.
    """
    reports = {name: SuiteReport(name) for name in checks}
    for trial, table in enumerate(tables):
        seq = table if isinstance(table, CoeffSeq) else table[0]
        for n in ns:
            ctx = contexts(n, table)
            for case in cases(n):
                for name, check in checks.items():
                    reports[name].checks += 1
                    values = check(ctx, case)
                    if values is not None:
                        reports[name].failures.append(
                            _failure(name, trial, n, case, seq, **values)
                        )
    return reports


def _mismatch(lhs: MultiPoly, rhs: MultiPoly):
    if lhs == rhs:
        return None
    return {"lhs": poly_to_json_terms(lhs), "rhs": poly_to_json_terms(rhs)}


def _agrees_with_bialternant(route):
    def check(ctx, case):
        lam = tuple(case["lambda"])
        return _mismatch(route(ctx, lam), ctx.bialternant(lam))

    return check


def _unitriangular(ctx, case):
    lam = tuple(case["lambda"])
    expansion = ctx.monomial_expansion(lam)
    bad = [mu for mu in expansion if not dominated_partial_sums(mu, lam, ctx.n)]
    if expansion.get(lam) == 1 and not bad:
        return None
    return {"leading": str(expansion.get(lam)), "outside": [list(mu) for mu in bad]}


_ROUTE_CHECKS = {
    "jt": _agrees_with_bialternant(lambda ctx, lam: ctx.jacobi_trudi(lam)),
    "giambelli": _agrees_with_bialternant(lambda ctx, lam: ctx.giambelli(lam)),
    "triangularity": _unitriangular,
}


def _scalars_json(pair) -> dict:
    nums, den = pair
    return {d: str(Fraction(c, den)) for d, c in sorted(nums.items())}


def _same_ratios(lhs, rhs) -> bool:
    """Whether two ({key: numerator}, den) maps hold equal fractions at every key."""
    (lnums, lden), (rnums, rden) = lhs, rhs
    return lnums.keys() == rnums.keys() and all(
        c * rden == rnums[k] * lden for k, c in lnums.items()
    )


def _splits_variables(ctx, case):
    """The variable-splitting lemma on degree scalars s_d(i, r, n).

    With h_d(x_1..x_n) = x_1 h_{d-1}(x_1..x_n) + h_d(x_2..x_n) for d >= 1,
    and those pieces linearly independent for n >= 2, the residual
    h_i^{(r)} - x_1 h_i^{(r-1)} - h_{i+1}^{(r-1)}(x_2..x_n) vanishes iff
    s_d(i, r, n) = s_d(i+1, r-1, n-1) for every d (equal pairs) and
    s_d(i, r, n) = s_{d-1}(i, r-1, n) for every d >= 1.
    """
    i, r = case["i"], case["r"]
    head = ctx.shift_scalars(i, r)
    tail = ctx._sub.shift_scalars(i + 1, r - 1)
    nums, den = ctx.shift_scalars(i, r - 1)
    raised = {d: c for d, c in head[0].items() if d}, head[1]
    if head == tail and _same_ratios(raised, ({d + 1: c for d, c in nums.items()}, den)):
        return None
    maps = {"scalars": head, "prev": (nums, den), "tail": tail}
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
    sides agree iff s_d(i, r, n) = [z^{d+n-1-r}] phi_{i+n-1} for every d >= 0.
    """
    n, i, r = ctx.n, case["i"], case["r"]
    phi = ctx.seq.phis.phi(i + n - 1)
    low = n - 1 - r
    coeffs = {m - low: c for (m,), c in phi._num.items() if m >= low}, phi._den
    scalars = ctx.shift_scalars(i, r)
    if _same_ratios(scalars, coeffs):
        return None
    return {"lhs": _scalars_json(scalars), "rhs": _scalars_json(coeffs)}


def suite_routes(seqs, max_weight, max_vars, names) -> dict[str, SuiteReport]:
    """One sweep over every table, n <= max_vars and |lambda| <= max_weight.

    The named checks share each context's bialternant memo: "jt"
    (Jacobi-Trudi determinant vs the defining bialternant), "giambelli" (hook
    determinant vs the bialternant) and "triangularity" (the monomial
    expansion is unitriangular for the partial-sum preorder).
    """
    return _sweep(
        {name: _ROUTE_CHECKS[name] for name in names},
        seqs,
        range(1, max_vars + 1),
        lambda n: _lambda_cases(n, max_weight),
    )


def suite_lemma(seqs, max_vars) -> SuiteReport:
    """Vanishing of the variable-splitting residual within its bound."""
    return _sweep(
        {"lemma": _splits_variables},
        seqs,
        range(2, max_vars + 1),
        lambda n: _shift_cases(n, 3 - 2 * n, 1),
    )["lemma"]


CUSTOM_NEGATIVE_A = {-1: _F(1, 2), -2: _F(-3), -3: _F(2, 3), -4: _F(-5, 4)}
CUSTOM_NEGATIVE_B = {-1: _F(-2), -2: _F(5, 2), -3: _F(1), -4: _F(7, 3)}


def suite_extension(pairs, max_vars) -> SuiteReport:
    """Shifted families within the bound ignore the negative-index extension.

    `pairs` holds (base, other) tables that differ only at negative indices,
    such as `(seq, seq.with_negative(CUSTOM_NEGATIVE_A, CUSTOM_NEGATIVE_B))`.
    """
    return _sweep(
        {"extension": _ignores_extension},
        pairs,
        range(1, max_vars + 1),
        lambda n: _shift_cases(n, 2 - 2 * n, 0),
        contexts=lambda n, pair: tuple(GschurContext(n, seq) for seq in pair),
    )["extension"]


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


def suite_alternation(seqs, max_vars) -> SuiteReport:
    """Bracket identity tying shifted families to a single phi factor, over
    n = 1..max_vars, on the degree scalars of the shifted families."""
    return _sweep(
        {"alternation": _bracket_identity},
        seqs,
        range(1, max_vars + 1),
        lambda n: _shift_cases(n, 0, 0, last_i=4),
    )["alternation"]


def suite_stable(seqs, seed) -> SuiteReport:
    """Spot checks of the any-d layer: a known closed form, interpolation at
    held-out counts, realisation, the parameterised determinant, and super
    cancellation.  Realisation runs on each of `seqs`; the polynomial table
    for the rest is drawn from `random.Random(seed + 1)`."""
    report = SuiteReport("stable")

    # Known closed form: factorial sequence with a(i) = i.
    fact = presets_mod.factorial(lambda x: x)
    family = interpolate_c_family((1,), fact)
    report.checks += 1
    empty = family.get(())
    one = family.get((1,))
    closed_ok = (
        one == 1
        and empty is not None
        and all(empty(Fraction(d)) == -Fraction(d * (d - 1), 2) for d in range(1, 9))
    )
    if not closed_ok:
        report.failures.append(
            {
                "property": "stable",
                "kind": "factorial-closed-form",
                "family": {str(list(mu)): repr(fn) for mu, fn in family.items()},
            }
        )

    # Realisation at an integer count.
    for trial, seq in enumerate(seqs):
        lam = (2, 1)
        coeffs = gschur_function(lam, seq, 3)
        ctx = GschurContext(3, seq)
        report.checks += 1
        if realize_expansion(coeffs, 3) != ctx.bialternant(lam):
            report.failures.append(
                {
                    "property": "stable",
                    "kind": "realisation",
                    "trial": trial,
                    "seq": _seq_info(seq),
                }
            )

    # Interpolation vs direct expansion at held-out counts, for a seeded
    # polynomial sequence (the generic case where rationality really holds).
    poly_seq = random_polynomial_coeffseq(random.Random(seed + 1))
    lam = (2, 1)
    family = interpolate_c_family(lam, poly_seq)
    held_out = [14, 17]
    for n in held_out:
        direct = schur_expand_at(lam, poly_seq, n)
        report.checks += 1
        bad = any(
            family[mu](Fraction(n)) != direct.get(mu, Fraction(0)) for mu in family
        )
        if bad:
            report.failures.append({"property": "stable", "kind": "held-out", "n": n})

    # Parameterised determinant at a non-integer d for a closed form.
    report.checks += 1
    if not jt_infinite_check((2, 1), presets_mod.schur(), Fraction(7, 3), 3):
        report.failures.append({"property": "stable", "kind": "jt-infinite"})

    # Super cancellation for the classical and a seeded polynomial sequence.
    for seq in (presets_mod.schur(), poly_seq):
        report.checks += 1
        poly = super_schur((2, 1), seq, SuperAlphabet(2, 2))
        slices = [poly.bind(0, Fraction(t)).bind(2, Fraction(t)) for t in (0, 1, -2)]
        if not (slices[0] == slices[1] == slices[2]):
            report.failures.append({"property": "stable", "kind": "super-cancellation"})
    return report


def run_property(
    name: str, *, trials: int, seed: int, max_weight: int | None = None,
    max_vars: int | None = None,
) -> SuiteReport:
    """Run one named suite on `trials` tables drawn from `random.Random(seed)`;
    `fh` sweeps the classical presets, so it draws none.

    `max_weight` and `max_vars` default to 5 and 3 for the properties that
    read them.  Raises ValueError, before any case runs, for an option the
    property does not read and for a configuration that is out of range or
    leaves the suite with nothing to check.
    """
    if name not in _PROPERTIES:
        raise ValueError(f"unknown property {name!r}; pick from {PROPERTY_NAMES}")
    reads = _PROPERTIES[name]
    given = {"max_weight": max_weight, "max_vars": max_vars}
    ignored = [opt for opt, v in given.items() if v is not None and opt not in reads]
    if ignored:
        flags = " or ".join("--" + opt.replace("_", "-") for opt in ignored)
        raise ValueError(f"property {name} does not read {flags}")
    max_weight = 5 if max_weight is None else max_weight
    max_vars = 3 if max_vars is None else max_vars
    if trials < 1 or max_vars < 1 or max_weight < 0:
        raise ValueError("need trials >= 1, max_vars >= 1 and max_weight >= 0")
    rng = random.Random(seed)
    seqs = [] if name == "fh" else [random_coeffseq(rng) for _ in range(trials)]
    if name in _ROUTE_CHECKS:
        report = suite_routes(seqs, max_weight, max_vars, [name])[name]
    elif name == "lemma":
        report = suite_lemma(seqs, max_vars)
    elif name == "extension":
        pairs = [
            (s, s.with_negative(CUSTOM_NEGATIVE_A, CUSTOM_NEGATIVE_B)) for s in seqs
        ]
        report = suite_extension(pairs, max_vars)
    elif name == "fh":
        report = suite_fh(max_weight, max_vars)
    elif name == "alternation":
        report = suite_alternation(seqs, max_vars)
    else:
        report = suite_stable(seqs, seed)
    if report.checks == 0:
        raise ValueError(f"property {name}: this configuration performs no checks")
    return report
