"""The benchmark's four workloads: inputs from a seed, the case list, and the
per-case work with its correctness check.

Every case calls public functions of gschur through their defining module
(`engine`, `presets`, `stable`, ...), looked up at call time, so the span
tracer sees each call.  A case returns whether its cross-route check held
and the outputs that feed the output guard: a hash of a canonical form of
every output, compared with `expected.json` on the default seed (and on
every seed for `cli`, whose outputs do not depend on it).

Workloads (why each exists is recorded in BENCHMARK.json):

- routes: every finite-variable route on random and classical tables.
- shifts: high-order shifted families (lemma residual, negative extension).
- stable: the any-d parameter layer and the super realisation.
- cli:    cold single-shot `gschur` command lines, one subprocess at a time.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from gschur import coeffseq, engine, exactalg, partitions, presets, stable
from worker import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("routes", "shifts", "stable", "cli")
DEFAULT_SEED = 1

ROUTES_RANDOM_TABLES = 2
ROUTES_VARS = (1, 2, 3, 4)
ROUTES_WEIGHT = 5

SHIFTS_TABLES = 4
SHIFTS_VARS = (2, 3, 4)
# Largest first index i of the shifted families.  A case is one family row:
# every shift order r in the in-bound range r <= i + 2n - 2 for one (n, i).
# i = 1 keeps a pass near three seconds; the one-row polynomials reach h_8.
SHIFTS_MAX_I = 1

# Any-d workload: bc_jacobi(1, -3) is pole free at every d used here and at
# every integer count.  Random polynomial tables cost very different amounts
# from seed to seed (large rationals), so several small ones share the
# random part of the work and keep a pass's cost steady across seeds.
STABLE_BC_WEIGHT = 3
STABLE_POLY_TABLES = 4
STABLE_POLY_WEIGHT = 2
STABLE_D_FRACTIONS = (Fraction(1, 3), Fraction(7, 5))
STABLE_D_JT = Fraction(1, 3)
STABLE_HELD_OUT = (14, 17)
STABLE_SUPER = (2, 2)
STABLE_N_EVAL = 3

CLASSICAL = ("so_odd", "so_even", "sp")


def fmt_lam(lam) -> str:
    return ",".join(str(p) for p in lam)


@dataclass(frozen=True)
class Case:
    key: str  # unique within a workload and seed; the digest key
    kind: str
    table: str
    params: tuple


@dataclass
class Setup:
    workload: str
    seed: int
    tables: dict
    cases: list
    pinned: dict  # case key -> expected digest, for keys that are pinned
    contexts: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)


# -- canonical outputs -----------------------------------------------------


def canonical(value):
    """JSON-ready canonical form: term lists, sorted pairs, coefficient tuples."""
    if isinstance(value, exactalg.MultiPoly):
        return ["poly", value.arity, exactalg.poly_to_json_terms(value)]
    if isinstance(value, stable.RationalFunctionOfD):
        return ["ratfn", [str(c) for c in value.num], [str(c) for c in value.den]]
    if isinstance(value, dict):
        return ["map", [[list(k), canonical(v)] for k, v in sorted(value.items())]]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(outputs) -> str:
    text = json.dumps(canonical(outputs), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def term_count(value) -> int:
    """Exact size of an output: polynomial terms, map entries, coefficients."""
    if isinstance(value, exactalg.MultiPoly):
        return len(value)
    if isinstance(value, stable.RationalFunctionOfD):
        return len(value.num) + len(value.den)
    if isinstance(value, dict):
        return sum(1 + term_count(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(term_count(v) for v in value)
    if isinstance(value, str):
        return value.count("\n")
    return 0


def load_pinned(workload: str, seed: int) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        data = json.load(fh)
    if workload != "cli" and seed != data["seed"]:
        return {}
    return data["digests"][workload]


# -- inputs and case lists ---------------------------------------------------


def build(workload: str, seed: int, pinned: bool = True) -> Setup:
    """Tables and the case list of one workload; deterministic in the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    tables, cases = _BUILDERS[workload](rng)
    keys = [c.key for c in cases]
    if len(set(keys)) != len(keys):
        raise AssertionError("case keys are not unique")
    setup = Setup(workload, seed, tables, cases,
                  load_pinned(workload, seed) if pinned else {})
    if workload in ("routes", "shifts"):
        for case in cases:
            n = case.params[0]
            for name in (case.table, case.table + "~"):
                if name in tables and (name, n) not in setup.contexts:
                    setup.contexts[(name, n)] = engine.GschurContext(n, tables[name])
    return setup


def _routes_cases(rng):
    tables = {
        f"rand{t}": coeffseq.random_coeffseq(rng)
        for t in range(ROUTES_RANDOM_TABLES)
    }
    for name in CLASSICAL:
        tables[name] = getattr(presets, name)()
    cases = [
        Case(f"{t}|n{n}|{fmt_lam(lam)}", "route", t, (n, lam))
        for t in tables
        for n in ROUTES_VARS
        for lam in partitions.partitions_up_to(ROUTES_WEIGHT, n)
    ]
    return tables, cases


def _draw_negative(rng) -> dict:
    return {-k: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for k in range(1, 5)}


def _shifts_cases(rng):
    tables = {}
    cases = []
    for t in range(SHIFTS_TABLES):
        name = f"rand{t}"
        seq = coeffseq.random_coeffseq(rng)
        tables[name] = seq
        tables[name + "~"] = seq.with_negative(_draw_negative(rng), _draw_negative(rng))
        for n in SHIFTS_VARS:
            for i in range(3 - 2 * n, SHIFTS_MAX_I + 1):
                cases.append(Case(f"{name}|n{n}|lemma|i={i}", "lemma", name, (n, i)))
            for i in range(2 - 2 * n, SHIFTS_MAX_I + 1):
                cases.append(Case(f"{name}|n{n}|ext|i={i}", "ext", name, (n, i)))
    return tables, cases


def _stable_cases(rng):
    tables = {
        f"poly{t}": coeffseq.random_polynomial_coeffseq(rng)
        for t in range(STABLE_POLY_TABLES)
    }
    tables["bc"] = presets.bc_jacobi(1, -3)
    weights = {t: STABLE_POLY_WEIGHT for t in tables}
    weights["bc"] = STABLE_BC_WEIGHT
    cases = []
    for t, w in weights.items():
        lams = [lam for lam in partitions.partitions_up_to(w) if lam]
        # Families first: the later checks of a partition compare against
        # its family, and the Jacobi-Trudi check needs one-row families.
        for lam in lams:
            cases.append(Case(f"{t}|{fmt_lam(lam)}|family", "family", t, (lam,)))
        for lam in lams:
            key = f"{t}|{fmt_lam(lam)}"
            for d in STABLE_D_FRACTIONS:
                cases.append(Case(f"{key}|d={d}", "d_frac", t, (lam, d)))
            cases.append(Case(f"{key}|d=int", "d_int", t, (lam,)))
            cases.append(Case(f"{key}|super", "super", t, (lam,)))
            cases.append(Case(f"{key}|jt", "jt", t, (lam,)))
    return tables, cases


def cli_universe() -> list[list[str]]:
    """Every command line of the cli workload, verify seeds left out."""
    sources = {
        "schur": ["--preset", "schur"],
        "sp": ["--preset", "sp"],
        "so_odd": ["--preset", "so_odd"],
        "so_even": ["--preset", "so_even"],
        "factorial": ["--preset", "factorial", "--a-table", ",".join(str(i) for i in range(24))],
        "bc_jacobi": ["--preset", "bc_jacobi", "--p", "1", "--q", "-3"],
    }
    shapes = (("1", "2"), ("2", "2,1"), ("3", "2,1,1"))
    formats = ("text", "json", "latex")
    out = []
    for k, (preset, src) in enumerate(sources.items()):
        methods = ["bialternant", "jt", "giambelli"]
        if preset in CLASSICAL:
            methods.append("fh")
        for m, method in enumerate(methods):
            for s, (n, lam) in enumerate(shapes):
                fmt = formats[(k + m + s) % 3]
                out.append(["compute", *src, "--n", n, "--lambda", lam,
                            "--method", method, "--format", fmt])
        for b, basis in enumerate(("monomial", "schur")):
            n, lam = shapes[(k + b) % 3]
            out.append(["expand", *src, "--n", n, "--lambda", lam,
                        "--basis", basis, "--format", formats[(k + b) % 3]])
        for lam in ("1", "2,1"):
            extra = [] if preset == "factorial" else ["--jt-check"]
            out.append(["stable", *src, "--d", "1/3", "--lambda", lam, *extra])
        out.append(["super", *src, "--n", "2", "--m", "1", "--lambda", "2,1"])
    for prop, extra in (
        ("jt", ["--max-weight", "3", "--max-vars", "2"]),
        ("giambelli", ["--max-weight", "3", "--max-vars", "2"]),
        ("lemma", ["--max-vars", "2"]),
        ("triangularity", ["--max-weight", "3", "--max-vars", "2"]),
        ("extension", ["--max-vars", "2"]),
        ("fh", ["--max-weight", "3", "--max-vars", "2"]),
        ("alternation", ["--max-vars", "2"]),
        ("stable", []),
    ):
        out.append(["verify", "--property", prop, "--trials", "1", *extra])
    return out


def _cli_cases(rng):
    cases = []
    for argv in cli_universe():
        key = " ".join(argv)
        if argv[0] == "verify":
            # The check count, and so the expected output, does not depend
            # on the verify seed; the benchmark seed picks it.
            argv = argv + ["--seed", str(rng.randrange(10**6))]
        cases.append(Case(key, "cli", argv[0], tuple(argv)))
    rng.shuffle(cases)
    return {}, cases


_BUILDERS = {
    "routes": _routes_cases,
    "shifts": _shifts_cases,
    "stable": _stable_cases,
    "cli": _cli_cases,
}


# -- running one case ------------------------------------------------------


def run_case(setup: Setup, case: Case, spans_out: Path | None = None):
    """Do one case's work and check it; returns (ok, outputs)."""
    return _RUNNERS[case.kind](setup, case, spans_out)


def _route(setup, case, _):
    n, lam = case.params
    ctx = setup.contexts[(case.table, n)]
    bialt = ctx.bialternant(lam)
    ok = ctx.jacobi_trudi(lam) == bialt and ctx.giambelli(lam) == bialt
    mono = ctx.monomial_expansion(lam)
    rebuilt = exactalg.MultiPoly.zero(n)
    for mu, c in mono.items():
        rebuilt = rebuilt + c * engine.monomial_symmetric(n, mu)
    ok = ok and rebuilt == bialt and mono.get(lam) == 1
    if case.table in CLASSICAL:
        ok = ok and presets.fh_character_det(ctx, lam) == bialt
        ok = ok and presets.boundary_insensitivity(lam, n)
    return ok, [bialt, mono]


def _lemma(setup, case, _):
    n, i = case.params
    ctx = setup.contexts[(case.table, n)]
    orders = range(1, i + 2 * n - 1)
    ok = all(ctx.lemma_residual(i, r).is_zero for r in orders)
    return ok, [ctx.h_shift(i, r) for r in orders]


def _ext(setup, case, _):
    n, i = case.params
    orders = range(0, i + 2 * n - 1)
    zero = [setup.contexts[(case.table, n)].h_shift(i, r) for r in orders]
    custom = [setup.contexts[(case.table + "~", n)].h_shift(i, r) for r in orders]
    return zero == custom, zero


def _family(setup, table, lam):
    got = setup.families.get((table, lam))
    if got is None:
        got = stable.interpolate_c_family(lam, setup.tables[table])
        setup.families[(table, lam)] = got
    return got


def _has_pole(setup, table, lams, d) -> bool:
    """Does some coefficient function of these partitions have a pole at d?"""
    for lam in lams:
        for func in _family(setup, table, lam).values():
            try:
                func(d)
            except coeffseq.PoleError:
                return True
    return False


def _evaluated(family, d) -> dict:
    return {mu: v for mu, func in family.items() if (v := func(d))}


def _stable_family(setup, case, _):
    (lam,) = case.params
    seq = setup.tables[case.table]
    family = stable.interpolate_c_family(lam, seq)
    setup.families[(case.table, lam)] = family
    ok = True
    for n in STABLE_HELD_OUT:
        direct = stable.schur_expand_at(lam, seq, n)
        ok = ok and _evaluated(family, Fraction(n)) == {m: c for m, c in direct.items() if c}
    return ok, [family]


def _stable_d_frac(setup, case, _):
    lam, d = case.params
    try:
        got = stable.gschur_function(lam, setup.tables[case.table], d)
    except coeffseq.PoleError:
        return _has_pole(setup, case.table, [lam], d), ["pole"]
    return got == _evaluated(_family(setup, case.table, lam), d), [got]


def _stable_d_int(setup, case, _):
    (lam,) = case.params
    seq = setup.tables[case.table]
    k = max(len(lam), STABLE_N_EVAL)
    got = stable.gschur_function(lam, seq, k)
    realized = stable.realize_expansion(got, k)
    return realized == engine.GschurContext(k, seq).bialternant(lam), [got]


def _stable_super(setup, case, _):
    (lam,) = case.params
    n, m = STABLE_SUPER
    try:
        poly = stable.super_schur(lam, setup.tables[case.table], stable.SuperAlphabet(n, m))
    except coeffseq.PoleError:
        return _has_pole(setup, case.table, [lam], Fraction(n - m)), ["pole"]
    # x1 = y1 = t cancels: the result must not depend on t.
    slices = [poly.bind(0, Fraction(t)).bind(n, Fraction(t)) for t in (0, 1, -2)]
    return slices[0] == slices[1] == slices[2], [poly]


def _stable_jt(setup, case, _):
    (lam,) = case.params
    d = STABLE_D_JT
    try:
        ok = stable.jt_infinite_check(lam, setup.tables[case.table], d, STABLE_N_EVAL)
    except coeffseq.PoleError:
        rows = [(i,) for i in range(1, lam[0] + len(lam))]
        return _has_pole(setup, case.table, [lam, *rows], d), ["pole"]
    return ok, [ok]


def _cli(setup, case, spans_out):
    argv = list(case.params)
    if spans_out is None:
        cmd = [sys.executable, "-m", "gschur.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_out), *argv]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=150, check=False)
    return proc.returncode == 0, [proc.stdout.decode()]


_RUNNERS = {
    "route": _route,
    "lemma": _lemma,
    "ext": _ext,
    "family": _stable_family,
    "d_frac": _stable_d_frac,
    "d_int": _stable_d_int,
    "super": _stable_super,
    "jt": _stable_jt,
    "cli": _cli,
}

CLI_COMMANDS = tuple(sorted({argv[0] for argv in cli_universe()}))
