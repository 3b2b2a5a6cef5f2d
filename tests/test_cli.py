"""End-to-end tests of the command-line front end."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gschur
from gschur import cli, engine, stable, verify
from gschur.coeffseq import random_coeffseq, random_polynomial_coeffseq
from gschur.engine import GschurContext
from gschur.exactalg import MultiPoly, format_poly_text
from gschur.presets import PRESETS
from gschur.verify import _PROPERTIES, SuiteReport, run_property

from oracles import coeffseq_to_json, scalar_pair


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text_pinned(capsys):
    code, out, _ = run(
        capsys, "compute", "--preset", "sp", "--n", "1", "--lambda", "2"
    )
    assert code == 0
    assert out == "x1^2 - 1\n"


def test_compute_json_pinned(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--preset",
        "schur",
        "--n",
        "2",
        "--lambda",
        "2,1",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"e": [2, 1], "c": "1"},
        {"e": [1, 2], "c": "1"},
    ]


def test_compute_latex_pinned(capsys):
    code, out, _ = run(
        capsys,
        "compute",
        "--preset",
        "sp",
        "--n",
        "1",
        "--lambda",
        "2",
        "--format",
        "latex",
    )
    assert code == 0
    assert out == "x_{1}^{2} - 1\n"


def test_compute_empty_partition(capsys):
    code, out, _ = run(capsys, "compute", "--preset", "schur", "--n", "2")
    assert code == 0
    assert out == "1\n"


def test_compute_methods_agree(capsys):
    outputs = []
    for method in ("bialternant", "jt", "giambelli", "fh"):
        code, out, _ = run(
            capsys,
            "compute",
            "--preset",
            "sp",
            "--n",
            "2",
            "--lambda",
            "2,1",
            "--method",
            method,
        )
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1


def test_expand_monomial_pinned(capsys):
    code, out, _ = run(
        capsys, "expand", "--preset", "schur", "--n", "3", "--lambda", "2,1"
    )
    assert code == 0
    assert out == "1,1,1: 2\n2,1: 1\n"


def test_expand_schur_basis(capsys):
    code, out, _ = run(
        capsys,
        "expand",
        "--preset",
        "factorial",
        "--a-table",
        "2,3",
        "--n",
        "1",
        "--lambda",
        "1",
        "--basis",
        "schur",
    )
    assert code == 0
    assert out == "empty: -2\n1: 1\n"


def test_stable_expansion_pinned(capsys):
    table = ",".join(str(i) for i in range(16))
    code, out, _ = run(
        capsys,
        "stable",
        "--preset",
        "factorial",
        "--a-table",
        table,
        "--d",
        "7/2",
        "--lambda",
        "1",
    )
    assert code == 0
    assert out == "empty: -35/8\n1: 1\n"


def test_stable_jt_check_passes(capsys):
    code, out, _ = run(
        capsys,
        "stable",
        "--preset",
        "bc_jacobi",
        "--p",
        "1",
        "--q",
        "-3",
        "--d",
        "1/3",
        "--lambda",
        "2",
        "--n-eval",
        "2",
        "--jt-check",
    )
    assert code == 0
    assert out.endswith("jt-infinite holds at d = 1/3 (truncated to 2 variables)\n")


def test_verify_reports_clean_run(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--property",
        "jt",
        "--trials",
        "2",
        "--max-weight",
        "3",
        "--max-vars",
        "2",
    )
    assert code == 0
    assert out.startswith("property jt: ")
    assert out.rstrip().endswith("0 failures")


def test_verify_counterexamples_exit_one(capsys, monkeypatch):
    planted = {"property": "jt", "trial": 0, "n": 2, "lambda": [1]}

    def fake(name, *, trials, seed, max_weight, max_vars):
        return SuiteReport(name, checks=3, failures=[planted])

    monkeypatch.setattr(verify, "run_property", fake)
    code, out, _ = run(capsys, "verify", "--property", "jt")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "property jt: 3 checks, 1 failures"
    assert json.loads(lines[1]) == planted


def options_read_by(prop, max_weight, max_vars):
    """The options run_property accepts for prop: the routes and fh read
    both, the shift suites and the alternation only max_vars, stable none."""
    if prop == "stable":
        return {}
    if prop in ("jt", "giambelli", "triangularity", "fh"):
        return {"max_weight": max_weight, "max_vars": max_vars}
    return {"max_vars": max_vars}


# The verify lines of perfbench/workloads.py::cli_universe, with the CLI's
# defaults (max weight 5, max vars 3) where a line sets none; those lines
# pass only the options their property reads.
CLI_WORKLOAD_VERIFY = [
    ("jt", 3, 2, 10),
    ("giambelli", 3, 2, 10),
    ("lemma", 5, 2, 28),
    ("triangularity", 3, 2, 10),
    ("extension", 5, 2, 57),
    ("fh", 3, 2, 92),
    ("alternation", 5, 2, 40),
    ("stable", 5, 3, 7),
]


@pytest.mark.parametrize(
    "prop, max_weight, max_vars, checks",
    # not workload lines: the alternation at four variables, the shift suites
    # at ten and twenty, which they reach on degree scalars with no variable
    # cap, and a route at weight 70; the last two draw tables longer than 64
    CLI_WORKLOAD_VERIFY + [
        ("alternation", 5, 4, 120),
        ("lemma", 5, 10, 1200),
        ("extension", 5, 10, 1365),
        ("alternation", 5, 10, 600),
        ("lemma", 5, 20, 7315),
        ("extension", 5, 20, 7830),
        ("alternation", 5, 20, 2200),
        ("jt", 70, 1, 71),
    ],
)
def test_verify_check_counts_are_pinned(prop, max_weight, max_vars, checks):
    report = run_property(
        prop, trials=1, seed=0, **options_read_by(prop, max_weight, max_vars)
    )
    assert report.checks == checks
    assert report.ok


@pytest.mark.parametrize("command, option", [
    (["stable", "--preset", "schur", "--d", "1/3"], "--degree-bound 4"),
    (["super", "--preset", "schur", "--n", "1", "--m", "1"], "--degree-bound 4"),
    (["compute", "--preset", "bc_jacobi", "--p", "1", "--q", "-3", "--n", "1"],
     "--probe-upto 0"),
], ids=["stable-degree-bound", "super-degree-bound", "compute-probe-upto"])
def test_dropped_option_is_unrecognised(capsys, command, option):
    # The any-d layer tries a fixed schedule of degree bounds, and bc_jacobi
    # always probes indices 0..8 for poles.
    code, out, err = run(capsys, *command, "--lambda", "1", *option.split())
    assert code == 2 and not out
    assert f"unrecognized arguments: {option}" in err


def test_fh_draws_no_tables(monkeypatch):
    draws = Counter()

    def counted(rng):
        draws["tables"] += 1
        return random_coeffseq(rng)

    monkeypatch.setattr(verify, "random_coeffseq", counted)
    report = run_property("fh", trials=2000, seed=0, max_weight=1, max_vars=1)
    assert report.checks == 44 and report.ok
    assert not draws


def test_fh_checks_boundary_once_per_shape_and_reports_every_preset(monkeypatch):
    calls = Counter()

    def broken(lam, n):
        calls[n, lam] += 1
        return len(lam) < 2

    monkeypatch.setattr(verify, "boundary_insensitivity", broken)
    report = run_property("fh", trials=1, seed=0, max_weight=3, max_vars=2)
    assert report.checks == 92
    assert set(calls.values()) == {1}
    shapes = [(n, list(lam)) for n, lam in calls if len(lam) > 1]
    boundary = [f for f in report.failures if f.get("kind") == "boundary"]
    assert [(f["preset"], f["n"], f["lambda"]) for f in boundary] == [
        (preset, n, lam) for preset in ("so_odd", "so_even", "sp") for n, lam in shapes
    ]


@pytest.mark.parametrize("prop", ["jt", "giambelli", "triangularity", "fh"])
def test_verify_bialternant_properties_run_above_nine_variables(prop):
    report = run_property(prop, trials=1, seed=0, max_weight=2, max_vars=10)
    assert report.checks > 0
    assert report.failures == []


@pytest.mark.parametrize("prop, option", [
    ("lemma", "max_weight"),
    ("extension", "max_weight"),
    ("alternation", "max_weight"),
    ("stable", "max_weight"),
    ("stable", "max_vars"),
])
def test_verify_refuses_an_option_the_property_ignores(prop, option):
    flag = "--" + option.replace("_", "-")
    with pytest.raises(ValueError, match=f"property {prop} does not read {flag}$"):
        run_property(prop, trials=1, seed=0, **{option: 2})


@pytest.mark.parametrize("names", [["jt", "lemma"], ["lemma", "alternation"], ["fh"], []])
def test_sweep_refuses_properties_that_share_no_sweep(names):
    with pytest.raises(ValueError, match="share no table-driven sweep$"):
        verify.sweep(names, [random_coeffseq(random.Random(0))], 2)


def _plus_one(original):
    def wrong(*args):
        value = original(*args)
        return value + MultiPoly.one(value.arity)

    return wrong


def _degree_zero_plus(value_of):
    """Add value_of(ctx) to the degree-0 shift scalar of every map."""

    def corrupt(original):
        def wrong(ctx, i, r):
            nums, den = original(ctx, i, r)
            fracs = {d: Fraction(c, den) for d, c in nums.items()}
            fracs[0] = fracs.get(0, 0) + value_of(ctx)
            return scalar_pair(fracs)

        return wrong

    return corrupt


def _leading_two(original):
    def wrong(ctx, lam):
        return {**original(ctx, lam), lam: 2}

    return wrong


BROKEN_QUANTITIES = [
    ("jt", GschurContext, "jacobi_trudi", _plus_one),
    ("giambelli", GschurContext, "giambelli", _plus_one),
    ("triangularity", GschurContext, "monomial_expansion", _leading_two),
    ("lemma", GschurContext, "shift_scalars", _degree_zero_plus(lambda ctx: 1)),
    # depends on the negative-index extension, via a(-1)
    ("extension", GschurContext, "shift_scalars", _degree_zero_plus(lambda ctx: ctx.seq.a(-1))),
    ("fh", verify, "fh_character_det", _plus_one),
    ("alternation", GschurContext, "shift_scalars", _degree_zero_plus(lambda ctx: 1)),
    ("stable", verify, "realize_expansion", _plus_one),
]


@pytest.mark.parametrize(
    "prop, owner, attr, corrupt",
    BROKEN_QUANTITIES,
    ids=[case[0] for case in BROKEN_QUANTITIES],
)
def test_verify_suites_detect_a_wrong_quantity(monkeypatch, prop, owner, attr, corrupt):
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    report = run_property(prop, trials=1, seed=3, **options_read_by(prop, 3, 2))
    assert report.failures
    if prop != "fh":  # the presets are not drawn
        first_draw = random_coeffseq(random.Random(3))
        assert report.failures[0]["seq"] == first_draw.table_dump(24)


@pytest.mark.parametrize("prop", ["jt", "fh", "giambelli"])
def test_a_wrong_kostka_number_fails_the_jt_and_fh_properties(monkeypatch, prop):
    # The three determinants are written in x_1..x_n through Kostka numbers,
    # so one wrong number, K_(2,2),(2,2) = 2, must show against the
    # bialternant at (2, 2), where Giambelli is a 2 x 2 determinant in Lambda
    # and no hook's realisation reads the number.  The monomial coordinates
    # of each h_nu are memoised in one cache, replaced by a cold one here.
    real = engine.kostka

    def wrong(shape, content):
        return real(shape, content) + (shape == content == (2, 2))

    monkeypatch.setattr(engine, "kostka", wrong)
    monkeypatch.setattr(engine, "_h_monomials", cache(engine._h_monomials.__wrapped__))
    report = run_property(prop, trials=1, seed=3, **options_read_by(prop, 4, 2))
    assert report.checks
    assert {tuple(f["lambda"]) for f in report.failures} == {(2, 2)}


def test_a_broken_spot_check_fails_in_the_suite_and_in_the_gate(monkeypatch):
    # The held-out check of the stable suite and of acceptance criterion 9 is
    # one function; a direct expansion with a coefficient the interpolated
    # family lacks (s_3 lies outside (2, 1)) must fail it in both.
    def extra_term(lam, seq, n):
        return {**stable.schur_expand_at(lam, seq, n), (3,): Fraction(1)}

    monkeypatch.setattr(verify, "schur_expand_at", extra_term)
    report = run_property("stable", trials=1, seed=3)
    assert [(f["kind"], f["n"]) for f in report.failures] == [
        ("held-out", 14), ("held-out", 17)
    ]
    gate = SuiteReport("criterion 9")
    poly_seq = random_polynomial_coeffseq(random.Random(101))
    verify.spot_check(gate, "held-out", [
        {"lam": (2, 1), "seq": poly_seq, "n": n} for n in (14, 17)
    ])
    assert gate.checks == 2
    assert [(f["kind"], f["n"]) for f in gate.failures] == [
        ("held-out", 14), ("held-out", 17)
    ]


def test_super_output_uses_two_families(capsys):
    code, out, _ = run(
        capsys,
        "super",
        "--preset",
        "schur",
        "--n",
        "1",
        "--m",
        "1",
        "--lambda",
        "1",
    )
    assert code == 0
    assert out == "x1 - y1\n"


def test_seq_file_round_trip(tmp_path, capsys):
    seq = random_coeffseq(random.Random(9))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(coeffseq_to_json(seq, 16)))
    code, out, _ = run(
        capsys, "compute", "--seq-file", str(path), "--n", "2", "--lambda", "2,1"
    )
    assert code == 0
    expected = format_poly_text(GschurContext(2, seq).bialternant((2, 1)))
    assert out == expected + "\n"


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "compute", "--n", "2", "--lambda", "1")
    assert code == 2  # no sequence source
    assert "error:" in err
    code, _, _ = run(
        capsys,
        "compute",
        "--preset",
        "schur",
        "--seq-file",
        "x.json",
        "--n",
        "1",
        "--lambda",
        "1",
    )
    assert code == 2  # both sources
    code, _, _ = run(
        capsys, "compute", "--preset", "schur", "--n", "1", "--lambda", "1,2"
    )
    assert code == 2  # not a partition
    code, _, _ = run(
        capsys, "compute", "--preset", "schur", "--n", "1", "--lambda", "1,1"
    )
    assert code == 2  # too many rows for one variable
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


@pytest.mark.parametrize("argv, option, out", [
    ("stable --preset schur --d -1/2 --lambda 1", "--d", "1: 1\n"),
    ("compute --preset bc_jacobi --p 1 --q -7/2 --n 2 --lambda 1", "--q",
     "x1 + x2 - 4/9\n"),
    ("compute --preset factorial --a-table -1,2 --n 1 --lambda 1", "--a-table",
     "x1 + 1\n"),
], ids=["d", "q", "a-table"])
def test_negative_value_after_a_space_reads_as_with_equals(capsys, argv, option, out):
    spaced = run(capsys, *argv.split())
    joined = run(capsys, *argv.replace(f"{option} -", f"{option}=-").split())
    assert spaced == joined == (0, out, "")


def test_pole_exits_three(capsys):
    code, _, err = run(
        capsys,
        "compute",
        "--preset",
        "bc_jacobi",
        "--p",
        "1",
        "--q",
        "1",
        "--n",
        "2",
        "--lambda",
        "1",
    )
    assert code == 3
    assert "error:" in err


def test_bialternant_has_no_variable_cap(capsys):
    code, out, _ = run(capsys, "compute", "--preset", "schur", "--n", "10", "--lambda", "1")
    assert code == 0
    assert out == " + ".join(f"x{i}" for i in range(1, 11)) + "\n"
    argv = ["compute", "--preset", "schur", "--n", "9", "--lambda", "2,1"]
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 0
    start = time.perf_counter()
    assert run(capsys, *argv, "--method", "jt") == (0, out, "")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--preset", "schur", "--method", "jt"],
        ["compute", "--preset", "schur", "--method", "giambelli"],
        ["compute", "--preset", "sp", "--method", "fh"],
        ["super", "--preset", "schur", "--m", "0"],
    ],
    ids=lambda argv: argv[-1],
)
def test_a_thousand_variables_run(capsys, argv):
    # The supports of h_d take no stack level per variable: Python's
    # recursion limit is about a thousand.
    code, out, err = run(capsys, *argv, "--n", "1000", "--lambda", "1")
    assert (code, err) == (0, "")
    assert out == " + ".join(f"x{i}" for i in range(1, 1001)) + "\n"


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["stable", "--help"]) == 0
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    argv = (
        "verify",
        "--property",
        "triangularity",
        "--trials",
        "2",
        "--seed",
        "5",
        "--max-weight",
        "4",
        "--max-vars",
        "2",
    )
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


SRC = Path(gschur.__file__).resolve().parents[1]


def run_python(*args):
    """Run Python on the package in a fresh interpreter; a hang times out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_subprocess(*argv):
    """Run the CLI as a user would."""
    return run_python("-m", "gschur.cli", *argv)


FLOAT_SEQ = json.dumps({"a": [0.5, 1], "b": ["0", "1"]})
# A random 64-entry table has no rational interpolant in d; the doubling
# bound runs past the table's end.
RANDOM_SEQ = json.dumps(coeffseq_to_json(random_coeffseq(random.Random(0)), 64))

SEQ_FILE_COMPUTE = ["compute", "--seq-file", "{seq}", "--n", "2", "--lambda", "1"]

EXIT_CODE_CASES = [
    # (case id, argv, body of the file at {seq} or None for no file, exit code)
    ("float-coefficient", ["compute", "--seq-file", "{seq}", "--n", "1",
                           "--lambda", "1"], FLOAT_SEQ, 2),
    ("missing-seq-file", ["compute", "--seq-file", "{seq}", "--n", "1",
                          "--lambda", "1"], None, 2),
    ("zero-denominator-d", ["stable", "--preset", "schur", "--d", "1/0",
                            "--lambda", "1"], None, 2),
    ("zero-denominator-p", ["compute", "--preset", "bc_jacobi", "--p", "1/0",
                            "--q", "1", "--n", "1", "--lambda", "1"], None, 2),
    ("pole", ["compute", "--preset", "bc_jacobi", "--p", "1", "--q", "1",
              "--n", "2", "--lambda", "1"], None, 3),
    # bc_jacobi(1, 9) first has a pole at index 9, past the probed 0..8, so
    # the alphabet is checked before the expansion can reach the pole.
    ("super-negative-alphabet", ["super", "--preset", "bc_jacobi", "--p", "1",
                                 "--q", "9", "--n", "-1", "--m", "0",
                                 "--lambda", "9"], None, 2),
    ("inconsistent-interpolation", ["stable", "--seq-file", "{seq}", "--d", "1/3",
                                    "--lambda", "1"], RANDOM_SEQ, 3),
    ("n-eval-zero", ["stable", "--preset", "sp", "--d", "1/3", "--lambda", "2",
                     "--jt-check", "--n-eval", "0"], None, 2),
    # Fewer variables than rows cannot see every coefficient; refused before
    # the expansion is printed.
    ("n-eval-below-length", ["stable", "--preset", "sp", "--d", "1/3",
                             "--lambda", "1,1,1,1", "--jt-check"], None, 2),
    ("jt-check-table", ["stable", "--preset", "factorial", "--a-table",
                        ",".join(str(v) for v in range(1, 21)), "--d", "1/3",
                        "--lambda", "1", "--jt-check"], None, 2),
    ("schur-basis-pole", ["expand", "--preset", "bc_jacobi", "--p", "1", "--q", "9",
                          "--n", "2", "--lambda", "9", "--basis", "schur"], None, 3),
    ("schur-basis-too-few-variables", ["expand", "--preset", "schur", "--n", "1",
                                       "--lambda", "2,1", "--basis", "schur"], None, 2),
    ("negative-trials", ["verify", "--property", "jt", "--trials", "-1"], None, 2),
    ("zero-max-vars", ["verify", "--property", "jt", "--max-vars", "0"], None, 2),
    ("verify-ignored-option", ["verify", "--property", "stable", "--max-weight",
                               "4"], None, 2),
    ("no-checks", ["verify", "--property", "lemma", "--max-vars", "1"], None, 2),
    ("unknown-property", ["verify", "--property", "nope"], None, 2),
    ("seq-file-not-object", SEQ_FILE_COMPUTE, "5", 2),
    ("seq-file-string-tables", SEQ_FILE_COMPUTE,
     json.dumps({"a": "123", "b": "456"}), 2),
    ("seq-file-object-table", SEQ_FILE_COMPUTE,
     json.dumps({"a": {"0": 1, "1": 1, "2": 1}, "b": ["1", "1", "1"]}), 2),
    ("seq-file-negative-not-maps", SEQ_FILE_COMPUTE,
     json.dumps({"a": ["1"], "b": ["1"], "negative": {"a": 5}}), 2),
    ("seq-file-negative-array", SEQ_FILE_COMPUTE,
     json.dumps({"a": ["1"], "b": ["1"], "negative": {"b": []}}), 2),
    # A file's "name" is not read, so it cannot unlock the preset-only route.
    ("seq-file-name-is-not-a-preset", ["compute", "--seq-file", "{seq}", "--n", "2",
                                       "--lambda", "2,1", "--method", "fh"],
     json.dumps({"name": "sp", "a": [str(i) for i in range(1, 9)],
                 "b": ["1"] * 8}), 2),
    # JSON booleans are not numbers, although Python's bool is an int.
    ("seq-file-booleans", SEQ_FILE_COMPUTE,
     json.dumps({"a": [True, False, True], "b": [False, True, True]}), 2),
    # A sequence option the source does not read is refused, not ignored.
    ("preset-unread-p-q", ["compute", "--preset", "schur", "--p", "1", "--q", "7",
                           "--n", "2", "--lambda", "1"], None, 2),
    ("preset-unread-a-table", ["stable", "--preset", "bc_jacobi", "--p", "1",
                               "--q", "-3", "--a-table", "1,2", "--d", "1/3",
                               "--lambda", "1"], None, 2),
    ("seq-file-unread-p", ["compute", "--seq-file", "{seq}", "--p", "1", "--n", "2",
                           "--lambda", "1"], json.dumps({"a": ["1"], "b": ["1"]}), 2),
    # At an integer d below l(lambda) the two sides of --jt-check differ for
    # so_odd and so_even, so every sequence is refused there.
    ("jt-check-integer-d-below-length", ["stable", "--preset", "so_odd", "--d", "1",
                                         "--lambda", "2,1", "--jt-check"], None, 2),
    # The bialternant recurses once per variable, so a thousand variables
    # outgrow the stack: one error line, not a traceback and exit 1.
    ("bialternant-thousand-variables", ["compute", "--preset", "schur", "--n", "1000",
                                        "--lambda", "1"], None, 2),
    ("monomial-expand-thousand-variables", ["expand", "--preset", "schur", "--n", "1000",
                                            "--lambda", "1", "--basis", "monomial"], None, 2),
]


@pytest.mark.parametrize(
    "argv, seq_body, expected",
    [case[1:] for case in EXIT_CODE_CASES],
    ids=[case[0] for case in EXIT_CODE_CASES],
)
def test_exit_code_contract(tmp_path, argv, seq_body, expected):
    seq_path = tmp_path / "seq.json"
    if seq_body is not None:
        seq_path.write_text(seq_body)
    proc = run_subprocess(*(arg.format(seq=seq_path) for arg in argv))
    assert proc.returncode == expected
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    if expected == 2:
        assert proc.stdout == ""


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(), "input too large for this route (MemoryError)"),
        (RecursionError("maximum recursion depth exceeded"),
         "input too large for this route (RecursionError: maximum recursion depth exceeded)"),
    ],
    ids=["memory", "recursion"],
)
def test_an_exhausted_memory_or_stack_exits_two_with_one_line(capsys, monkeypatch, error, line):
    def exhausted(self, lam):
        raise error

    monkeypatch.setattr(GschurContext, "bialternant", exhausted)
    code, out, err = run(capsys, "compute", "--preset", "schur", "--n", "2", "--lambda", "1")
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_a_closed_stdout_exits_141_in_silence():
    # About 660 kB of text, far beyond a pipe's buffer, so a write after the
    # reader has gone always fails.
    argv = ["compute", "--preset", "schur", "--n", "30", "--lambda", "4", "--method", "jt"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "gschur.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == 141


# -- the exit-code contract over the parser's grammar -----------------------


# Each list of words repeats the valid ones, so most vectors get past the
# parser and the sequence checks.
RATIONALS = ["1", "-3", "1/2", "-7/2", "1", "-3", "0", "1/0", "x"]
A_TABLES = [",".join(str(i) for i in range(24))] * 3 + ["0,1,2,3", "-1,2", "1/0"]
PARTITIONS = ["", "1", "2", "1,1", "2,1", "1,1,1", "3,1", "2,1", "1,1", "1,2", "a"]
SIZES = ["1", "2", "3", "2", "1", "3", "2", "0", "-1"]
SMALL = ["1", "2", "1", "2", "0"]
FORMATS = ["--format", st.sampled_from(["text", "json", "latex"])]
# a = 0, 1, 2, ... and b = 1 as a table: it interpolates in d, but it is not
# a closed form, so --jt-check refuses it.
POLYNOMIAL_TABLE = json.dumps({"a": [str(i) for i in range(24)], "b": ["1"] * 24})


def words(*parts):
    """Argument vectors joined from parts: words, and strategies that draw
    a word or a list of words."""

    def join(drawn):
        return [w for part in drawn for w in ([part] if isinstance(part, str) else part)]

    return st.tuples(
        *(part if isinstance(part, st.SearchStrategy) else st.just(part) for part in parts)
    ).map(join)


def maybe(*parts, chance):
    """parts in `chance` sixteenths of the draws, nothing in the others."""
    return st.integers(0, 15).flatmap(
        lambda k: words(*parts) if k >= 16 - chance else st.just([])
    )


@st.composite
def sequence_sources(draw, seq_file):
    source = draw(st.sampled_from([*PRESETS, "seq-file"]))
    argv = ["--seq-file", seq_file] if source == "seq-file" else ["--preset", source]
    reads = PRESETS[source][1] if source in PRESETS else ()
    for key, values in (("p", RATIONALS), ("q", RATIONALS), ("a_table", A_TABLES)):
        option = "--" + key.replace("_", "-")
        argv += draw(maybe(option, st.sampled_from(values), chance=15 if key in reads else 1))
    return argv


def command_lines(seq_file):
    src = sequence_sources(seq_file)
    lam = ["--lambda", st.sampled_from(PARTITIONS)]
    size = st.sampled_from(SIZES)
    small = st.sampled_from(SMALL)
    return st.one_of(
        words("compute", src, "--n", size, *lam, "--method",
              st.sampled_from(["bialternant", "jt", "giambelli", "fh"]), *FORMATS),
        words("expand", src, "--n", size, *lam, "--basis",
              st.sampled_from(["monomial", "schur"]), *FORMATS),
        words("super", src, "--n", size, "--m", size, *lam, *FORMATS),
        words("stable", src, "--d",
              st.sampled_from(["-1", "0", "1", "2", "3", "1/3", "7/3", "-1/2", "1/0"]),
              *lam, *FORMATS, maybe("--jt-check", chance=12),
              maybe("--n-eval", size, chance=6)),
        words("verify", "--property", st.sampled_from([*_PROPERTIES, "nope"]),
              "--trials", st.sampled_from(["1", "1", "0", "-1"]), "--seed", small,
              maybe("--max-weight", small, chance=12),
              maybe("--max-vars", small, chance=12)),
    )


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def polynomial_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("seq") / "polynomial.json"
    path.write_text(POLYNOMIAL_TABLE)
    return str(path)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_every_command_line_keeps_the_exit_code_contract(polynomial_table, data):
    argv = data.draw(command_lines(polynomial_table), label="argv")
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2, 3), err
    if code == 1:
        assert argv[0] == "verify" or "--jt-check" in argv
        json.loads(out.splitlines()[-1])
    if code in (2, 3):
        assert out == ""
        assert err.startswith(("error:", "usage:"))
    assert run_in_process(argv) == (code, out, err)


DEMOS = [
    "classical_characters.py",
    "factorial_and_jacobi.py",
    "stable_parameter.py",
    "super_polynomials.py",
    "three_routes.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = run_python(str(SRC.parent / "demos" / demo))
    assert proc.returncode == 0, proc.stderr


LAZY_IMPORT_PROBE = """
import sys
from gschur import cli
codes = [
    cli.main(["compute", "--preset", "sp", "--n", "2", "--lambda", "2,1"]),
    cli.main(["expand", "--preset", "schur", "--n", "2", "--lambda", "2,1",
              "--basis", "monomial"]),
]
print(codes, sorted(m for m in sys.modules if m in ("gschur.stable", "gschur.verify")))
"""


def test_compute_and_monomial_expand_load_neither_stable_nor_verify():
    proc = run_python("-c", LAZY_IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
