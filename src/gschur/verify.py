"""Seeded verification suites behind the command-line front end.

Each suite sweeps an identity over randomly drawn coefficient tables (or over
the fixed classical presets) and reports every counterexample it finds, with
enough context to replay the failure: the trial number, the table, the
partition and variable count, and both mismatched values.  All randomness
flows through one `random.Random(seed)` per run, so identical configurations
produce identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import presets as presets_mod
from .coeffseq import CoeffSeq, random_coeffseq, random_polynomial_coeffseq
from .engine import GschurContext
from .exactalg import MultiPoly, poly_to_json_terms
from .partitions import (
    check_partition,
    dominated_partial_sums,
    partitions_up_to,
)
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

PROPERTY_NAMES = (
    "jt",
    "giambelli",
    "lemma",
    "triangularity",
    "extension",
    "fh",
    "alternation",
    "stable",
)


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


def _case_failure(name, trial, n, lam, seq, lhs, rhs) -> dict:
    return {
        "property": name,
        "trial": trial,
        "n": n,
        "lambda": list(lam),
        "seq": _seq_info(seq),
        "lhs": poly_to_json_terms(lhs),
        "rhs": poly_to_json_terms(rhs),
    }


def _two_route_suite(name, route, trials, seed, max_weight, max_vars) -> SuiteReport:
    report = SuiteReport(name)
    rng = random.Random(seed)
    for trial in range(trials):
        seq = random_coeffseq(rng)
        for n in range(1, max_vars + 1):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(max_weight, n):
                lhs = route(ctx, lam)
                rhs = ctx.bialternant(lam)
                report.checks += 1
                if lhs != rhs:
                    report.failures.append(
                        _case_failure(name, trial, n, lam, seq, lhs, rhs)
                    )
    return report


def suite_jt(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Jacobi-Trudi determinant vs the defining bialternant."""
    return _two_route_suite(
        "jt", lambda ctx, lam: ctx.jacobi_trudi(lam), trials, seed, max_weight, max_vars
    )


def suite_giambelli(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Giambelli hook determinant vs the defining bialternant."""
    return _two_route_suite(
        "giambelli",
        lambda ctx, lam: ctx.giambelli(lam),
        trials,
        seed,
        max_weight,
        max_vars,
    )


def suite_lemma(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Vanishing of the variable-splitting residual within its bound."""
    report = SuiteReport("lemma")
    rng = random.Random(seed)
    for trial in range(trials):
        seq = random_coeffseq(rng)
        for n in range(2, max_vars + 1):
            ctx = GschurContext(n, seq)
            for i in range(3 - 2 * n, 6):
                for r in range(1, i + 2 * n - 1):
                    residual = ctx.lemma_residual(i, r)
                    report.checks += 1
                    if not residual.is_zero:
                        report.failures.append(
                            {
                                "property": "lemma",
                                "trial": trial,
                                "n": n,
                                "i": i,
                                "r": r,
                                "seq": _seq_info(seq),
                                "residual": poly_to_json_terms(residual),
                            }
                        )
    return report


CUSTOM_NEGATIVE_A = {-1: _F(1, 2), -2: _F(-3), -3: _F(2, 3), -4: _F(-5, 4)}
CUSTOM_NEGATIVE_B = {-1: _F(-2), -2: _F(5, 2), -3: _F(1), -4: _F(7, 3)}


def suite_extension(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Shifted families within the bound ignore the negative-index extension."""
    report = SuiteReport("extension")
    rng = random.Random(seed)
    for trial in range(trials):
        seq = random_coeffseq(rng)
        other = seq.with_negative(CUSTOM_NEGATIVE_A, CUSTOM_NEGATIVE_B)
        for n in range(1, max_vars + 1):
            ctx_zero = GschurContext(n, seq)
            ctx_custom = GschurContext(n, other)
            for i in range(2 - 2 * n, 6):
                for r in range(0, i + 2 * n - 1):
                    lhs = ctx_zero.h_shift(i, r)
                    rhs = ctx_custom.h_shift(i, r)
                    report.checks += 1
                    if lhs != rhs:
                        report.failures.append(
                            {
                                "property": "extension",
                                "trial": trial,
                                "n": n,
                                "i": i,
                                "r": r,
                                "seq": _seq_info(seq),
                                "lhs": poly_to_json_terms(lhs),
                                "rhs": poly_to_json_terms(rhs),
                            }
                        )
    return report


def suite_triangularity(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Monomial expansions are unitriangular for the partial-sum preorder."""
    report = SuiteReport("triangularity")
    rng = random.Random(seed)
    for trial in range(trials):
        seq = random_coeffseq(rng)
        for n in range(1, max_vars + 1):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(max_weight, n):
                expansion = ctx.monomial_expansion(lam)
                report.checks += 1
                bad = [
                    mu for mu in expansion if not dominated_partial_sums(mu, lam, n)
                ]
                if expansion.get(lam) != 1 or bad:
                    report.failures.append(
                        {
                            "property": "triangularity",
                            "trial": trial,
                            "n": n,
                            "lambda": list(lam),
                            "seq": _seq_info(seq),
                            "leading": str(expansion.get(lam)),
                            "outside": [list(mu) for mu in bad],
                        }
                    )
    return report


# -- classical presets ------------------------------------------------------


def laurent_reduce(poly: MultiPoly) -> MultiPoly:
    """Normal form of a two-variable polynomial modulo x * x_inv = 1."""
    if poly.arity != 2:
        raise ValueError("expected a polynomial in x and x_inv")
    out = MultiPoly.zero(2)
    for (a, b), c in poly.items():
        t = min(a, b)
        out = out + MultiPoly.monomial(2, (a - t, b - t), c)
    return out


def expected_laurent_phi(preset_name: str, i: int) -> MultiPoly:
    """The Laurent character that phi_i(x + 1/x) must reduce to."""
    if i == 0:
        return MultiPoly.one(2)

    def lterm(e: int) -> MultiPoly:
        exps = (e, 0) if e >= 0 else (0, -e)
        return MultiPoly.monomial(2, exps, 1)

    if preset_name == "sp":
        exponents = range(i, -i - 1, -2)
    elif preset_name == "so_odd":
        exponents = range(i, -i - 1, -1)
    elif preset_name == "so_even":
        exponents = (i, -i)
    else:
        raise ValueError(f"no Laurent form for preset {preset_name!r}")
    out = MultiPoly.zero(2)
    for e in exponents:
        out = out + lterm(e)
    return out


def laurent_identity_holds(seq: CoeffSeq, i: int) -> bool:
    """Check phi_i at z = x + 1/x against the preset's Laurent character."""
    from .coeffseq import UniPolySeq

    z_sub = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
    value = UniPolySeq(seq).phi(i).compose([z_sub])
    return laurent_reduce(value) == expected_laurent_phi(seq.name, i)


def suite_fh(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Classical-preset identities: compact determinant, Laurent characters,
    boundary insensitivity.  Deterministic; trials and seed are ignored."""
    report = SuiteReport("fh")
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
                fh = fh_character_det(ctx, lam)
                jt = ctx.jacobi_trudi(lam)
                bialt = ctx.bialternant(lam)
                report.checks += 1
                if fh != bialt or jt != bialt:
                    report.failures.append(
                        {
                            "property": "fh",
                            "preset": seq.name,
                            "n": n,
                            "lambda": list(lam),
                            "fh": poly_to_json_terms(fh),
                            "jt": poly_to_json_terms(jt),
                            "bialternant": poly_to_json_terms(bialt),
                        }
                    )
                report.checks += 1
                if not boundary_insensitivity(lam, n):
                    report.failures.append(
                        {
                            "property": "fh",
                            "kind": "boundary",
                            "preset": seq.name,
                            "n": n,
                            "lambda": list(lam),
                        }
                    )
    return report


def suite_alternation(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Bracket identity tying shifted families to a single phi factor."""
    report = SuiteReport("alternation")
    rng = random.Random(seed)
    cap_vars = min(max_vars, 3)
    for trial in range(trials):
        seq = random_coeffseq(rng)
        for n in range(1, cap_vars + 1):
            ctx = GschurContext(n, seq)
            delta = MultiPoly.monomial(n, tuple(range(n - 1, -1, -1)), 1)
            for i in range(0, 5):
                for r in range(0, i + 2 * n - 1):
                    lhs = ctx.alternation(ctx.h_shift(i, r) * delta)
                    rhs_mono = MultiPoly.monomial(
                        n, (r,) + tuple(range(n - 2, -1, -1)), 1
                    )
                    rhs = ctx.alternation(ctx.phi_at_var(i + n - 1, 0) * rhs_mono)
                    report.checks += 1
                    if lhs != rhs:
                        report.failures.append(
                            {
                                "property": "alternation",
                                "trial": trial,
                                "n": n,
                                "i": i,
                                "r": r,
                                "seq": _seq_info(seq),
                                "lhs": poly_to_json_terms(lhs),
                                "rhs": poly_to_json_terms(rhs),
                            }
                        )
    return report


def suite_stable(trials, seed, max_weight, max_vars) -> SuiteReport:
    """Spot checks of the any-d layer: a known closed form, interpolation at
    held-out counts, realisation, the parameterised determinant, and super
    cancellation."""
    report = SuiteReport("stable")

    # Known closed form: factorial sequence with a(i) = i.
    fact = presets_mod.factorial(lambda x: x)
    family = interpolate_c_family((1,), fact)
    report.checks += 1
    empty = family.get(())
    one = family.get((1,))
    closed_ok = (
        one is not None
        and one == 1
        and empty is not None
        and all(
            empty(Fraction(d)) == -Fraction(d * (d - 1), 2) for d in range(1, 9)
        )
    )
    if not closed_ok:
        report.failures.append(
            {
                "property": "stable",
                "kind": "factorial-closed-form",
                "family": {str(list(mu)): repr(fn) for mu, fn in family.items()},
            }
        )

    # Realisation at an integer count on a seeded random table.
    rng = random.Random(seed)
    for trial in range(trials):
        seq = random_coeffseq(rng)
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
    family = interpolate_c_family(lam, poly_seq, degree_bound=4)
    held_out = [14, 17]
    for n in held_out:
        direct = schur_expand_at(lam, poly_seq, n)
        report.checks += 1
        bad = any(
            family[mu](Fraction(n)) != direct.get(mu, Fraction(0)) for mu in family
        )
        if bad:
            report.failures.append(
                {"property": "stable", "kind": "held-out", "n": n}
            )

    # Parameterised determinant at a non-integer d for a closed form.
    report.checks += 1
    if not jt_infinite_check((2, 1), presets_mod.schur(), Fraction(7, 3), 3):
        report.failures.append({"property": "stable", "kind": "jt-infinite"})

    # Super cancellation for the classical and a seeded polynomial sequence.
    for seq in (presets_mod.schur(), poly_seq):
        report.checks += 1
        poly = super_schur((2, 1), seq, SuperAlphabet(2, 2))
        slices = [
            poly.bind(0, Fraction(t)).bind(2, Fraction(t)) for t in (0, 1, -2)
        ]
        if not (slices[0] == slices[1] == slices[2]):
            report.failures.append(
                {"property": "stable", "kind": "super-cancellation"}
            )
    return report


_SUITES = {
    "jt": suite_jt,
    "giambelli": suite_giambelli,
    "lemma": suite_lemma,
    "triangularity": suite_triangularity,
    "extension": suite_extension,
    "fh": suite_fh,
    "alternation": suite_alternation,
    "stable": suite_stable,
}


def run_property(
    name: str, *, trials: int, seed: int, max_weight: int, max_vars: int
) -> SuiteReport:
    """Run one named suite with the given sweep configuration.

    Raises ValueError for a configuration that is out of range or that
    leaves the suite with nothing to check.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown property {name!r}; pick from {PROPERTY_NAMES}")
    if trials < 1 or max_vars < 1 or max_weight < 0:
        raise ValueError("need trials >= 1, max_vars >= 1 and max_weight >= 0")
    report = _SUITES[name](trials, seed, max_weight, max_vars)
    if report.checks == 0:
        raise ValueError(f"property {name}: this configuration performs no checks")
    return report
