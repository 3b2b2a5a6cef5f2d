"""Acceptance gate: every shipped guarantee as one exact-equality test.

Each test prints a single `criterion N (...): PASS` or `FAIL` line; run with
`pytest tests/test_acceptance.py -s` to see them on a green run.  All
comparisons are literal equality of Fraction coefficients, never approximate.
"""

import random
import time
from fractions import Fraction

import pytest

from gschur.coeffseq import (
    PoleError,
    random_coeffseq,
    random_polynomial_coeffseq,
)
from gschur.engine import GschurContext
from gschur.partitions import partitions_of, partitions_up_to
from gschur.presets import bc_jacobi, schur
from gschur.stable import SuperAlphabet, super_schur
from gschur.verify import SuiteReport, spot_check, suite_fh, sweep

from oracles import index_set_identity, kostka, schur_by_tableaux

F = Fraction

SWEEP_SEEDS = 20
SWEEP_VARS = (1, 2, 3, 4)
SWEEP_WEIGHT = 6

NEGATIVE_A = {-1: F(2, 3), -2: F(-3), -3: F(1, 2), -4: F(5)}
NEGATIVE_B = {-1: F(-1, 2), -2: F(4), -3: F(-2, 5), -4: F(1)}


def _finish(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({label}): {status}")
    assert not failures, f"{len(failures)} failing cases, first: {failures[0]}"


def _tables(count: int) -> list:
    return [random_coeffseq(random.Random(seed)) for seed in range(count)]


def _checked(report, expected_checks: int) -> list:
    """The suite's failures, plus one if it ran a different number of cases."""
    failures = list(report.failures)
    if report.checks != expected_checks:
        failures.append({"kind": "check count", "checks": report.checks})
    return failures


@pytest.fixture(scope="session")
def route_sweep():
    """Every route evaluated over 20 random tables, shared by three tests."""
    started = time.perf_counter()
    reports = sweep(
        ["jt", "giambelli", "triangularity"],
        _tables(SWEEP_SEEDS),
        max(SWEEP_VARS),
        SWEEP_WEIGHT,
    )
    return reports, time.perf_counter() - started


def test_determinant_route_agrees_on_random_tables(route_sweep):
    reports, elapsed = route_sweep
    failures = _checked(reports["jt"], 1460)
    if elapsed >= 120.0:
        failures.append({"kind": "runtime", "elapsed": elapsed})
    _finish(1, "h-determinant equals bialternant, 20 seeds, under 2 minutes", failures)


def test_hook_determinant_agrees_on_random_tables(route_sweep):
    reports, _ = route_sweep
    failures = _checked(reports["giambelli"], 1460)
    _finish(2, "hook determinant equals bialternant on the same sweep", failures)


def test_shift_recursion_residual_vanishes():
    failures = _checked(sweep(["lemma"], _tables(10), max(SWEEP_VARS))["lemma"], 1390)
    _finish(3, "alternation residual of the shift recursion is zero", failures)


def test_shift_entries_ignore_negative_extension():
    pairs = [
        (base, base.with_negative(NEGATIVE_A, NEGATIVE_B)) for base in _tables(5)
    ]
    failures = _checked(sweep(["extension"], pairs, max(SWEEP_VARS))["extension"], 950)
    _finish(4, "in-range shifted entries ignore negative-index values", failures)


def test_zero_coefficient_case_matches_tableaux_oracle():
    failures = []
    seq = schur()
    for n in SWEEP_VARS:
        ctx = GschurContext(n, seq)
        for lam in partitions_up_to(SWEEP_WEIGHT, n):
            expected = schur_by_tableaux(lam, n)
            if ctx.bialternant(lam) != expected:
                failures.append({"n": n, "lambda": lam, "route": "bialternant"})
            if ctx.jacobi_trudi(lam) != expected:
                failures.append({"n": n, "lambda": lam, "route": "determinant"})
            expansion = ctx.monomial_expansion(lam)
            for mu in partitions_of(sum(lam)):
                if len(mu) > n:
                    continue
                if expansion.get(mu, F(0)) != kostka(lam, mu):
                    failures.append({"n": n, "lambda": lam, "mu": mu, "kind": "kostka"})
    pinned = GschurContext(3, seq).monomial_expansion((2, 1)).get((1, 1, 1))
    if pinned != 2 or kostka((2, 1), (1, 1, 1)) != 2:
        failures.append({"kind": "pinned kostka value"})
    _finish(5, "zero sequence reproduces tableaux schur and kostka numbers", failures)


def test_character_presets_agree_and_reduce():
    failures = _checked(suite_fh(SWEEP_WEIGHT, max(SWEEP_VARS)), 470)
    _finish(6, "classical presets: three routes and laurent characters", failures)


def test_monomial_expansion_is_triangular(route_sweep):
    reports, _ = route_sweep
    failures = _checked(reports["triangularity"], 1460)
    _finish(7, "expansion support dominated, leading coefficient one", failures)


def test_jacobi_pair_poles_and_pole_free_agreement():
    failures = []
    first_pole = {(1, 1): 1, (1, 2): 2, (3, 1): 2}
    for (p, q), index in first_pole.items():
        for _ in range(2):  # the probe must fail identically on repeats
            try:
                bc_jacobi(p, q)
            except PoleError as err:
                if err.index != index:
                    failures.append({"pair": [p, q], "got": str(err.index)})
            else:
                failures.append({"pair": [p, q], "kind": "probe missed the pole"})
    for p, q in first_pole:
        seq = bc_jacobi(p, q, probe_upto=0)
        ran = 0
        skipped = 0
        for n in (1, 2, 3):
            ctx = GschurContext(n, seq)
            for lam in partitions_up_to(5, n):
                try:
                    bialt = ctx.bialternant(lam)
                    det = ctx.jacobi_trudi(lam)
                except PoleError:
                    skipped += 1
                    continue
                ran += 1
                if det != bialt:
                    failures.append({"pair": [p, q], "n": n, "lambda": lam})
        if ran == 0:
            failures.append({"pair": [p, q], "kind": "no pole-free cases"})
        if skipped == 0:
            failures.append({"pair": [p, q], "kind": "poles never reached"})
    _finish(8, "jacobi pairs: deterministic pole rejection, pole-free agreement", failures)


def test_parameter_layer_interpolation_and_determinant():
    report = SuiteReport("criterion 9")
    poly_seq = random_polynomial_coeffseq(random.Random(101))
    # far outside the interpolation sample window
    spot_check(report, "held-out", [
        {"lam": (2, 1), "seq": poly_seq, "n": n} for n in (14, 17)
    ])
    table = random_coeffseq(random.Random(5))
    spot_check(report, "realisation", [
        {"lam": mu, "seq": table, "n": n} for n in (2, 3) for mu in partitions_up_to(4, n)
    ])
    seq_bc = bc_jacobi(1, -3)
    # Fewer than l(mu) variables cannot see every coefficient.
    spot_check(report, "jt-infinite", [
        {"lam": mu, "seq": seq_bc, "d_value": d, "n_eval": max(3, len(mu))}
        for d in (F(1, 3), F(4, 3), F(7, 5))
        for mu in partitions_up_to(4, 4)
    ])
    failures = _checked(report, 2 + 20 + 36)
    _finish(9, "parameter coefficients: held-out integers, realisation, determinant", failures)


def test_super_realisation_even_case_and_cancellation():
    report = SuiteReport("criterion 10")
    table = random_coeffseq(random.Random(6))
    ctx = GschurContext(2, table)
    for lam in partitions_up_to(4, 2):
        if super_schur(lam, table, SuperAlphabet(2, 0)) != ctx.bialternant(lam):
            report.failures.append({"lambda": lam, "kind": "purely-even"})
    spot_check(report, "super-cancellation", [
        {"lam": lam, "seq": seq}
        for seq in (schur(), random_polynomial_coeffseq(random.Random(202)))
        for lam in partitions_up_to(4, 4)
    ])
    failures = _checked(report, 2 * 12)
    _finish(10, "two-alphabet realisation: even case equality, cancellation", failures)


def test_diagonal_index_sets_tile_exhaustively():
    failures = []
    started = time.perf_counter()
    count = 0
    for w in range(0, 21):
        for lam in partitions_of(w):
            count += 1
            if not index_set_identity(lam):
                failures.append({"lambda": lam})
    elapsed = time.perf_counter() - started
    if count != 2714:
        failures.append({"kind": "enumeration", "count": count})
    if elapsed >= 10.0:
        failures.append({"kind": "runtime", "elapsed": elapsed})
    _finish(11, "hook and row index sets tile 0..l-1, all weights to 20", failures)
