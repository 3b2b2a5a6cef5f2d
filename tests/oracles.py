"""Independent reference implementations used as ground truth in tests.

Everything here is deliberately naive: determinants and alternations by
summing over all permutations, products by a double loop over `Fraction` terms, kernel vectors
by Gauss-Jordan over `Fraction`, rational functions reduced by Euclid's
algorithm over `Fraction` coefficient lists and evaluated by Horner's rule
over `Fraction`, Schur polynomials by listing semistandard
tableaux, super complete homogeneous functions by Newton's identities,
Schur-basis minors by the Leibniz sum over a `Fraction` phi table, shift
scalars by their recursion on `Fraction` maps (and a `Fraction` map put
back in the package's reduced integer form), the variable-splitting residual
as three written polynomials and two subtractions, the parameterised Jacobi-Trudi
entries as `Fraction` sums of one-row objects realised on free generators
h_k of the ring of symmetric functions, the closed-form
coefficients of `bc_jacobi` and `random_polynomial_coeffseq` by their
`Fraction` formulas, and compositions by the recursion on the first part
that `partitions.compositions` replaced.  Slow, but with no shared code
paths with the package internals beyond the MultiPoly container and its
`+`/`-`.  Three exceptions: the splitting residual writes its three
polynomials from the package's degree maps with `engine._from_degrees`, so
that it checks how `lemma_residual` combines them;
`kernel_fit` is the package's earlier rational fit, kept as the reference
for the current one; it solves the full (2g+1) x (2g+2) system with the
package's integer kernel and Horner, which have their own oracle tests; and
`truncated_jt_check` is the package's earlier parameterised Jacobi-Trudi
check on polynomials in n_eval variables, kept as the reference for the
comparison in the ring of symmetric functions.

The last sections hold the per-term polynomial writer (a gcd and a
coefficient string for every term, which the package's writers must match
byte for byte), and helpers only the tests use: the table-style JSON writer
that round-trips with `coeffseq_from_json`, the hook/row index identity
behind the Giambelli route, and renaming variables by a permutation.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

from gschur.coeffseq import PoleError
from gschur.engine import _from_degrees, _shifted, first_column_det
from gschur.exactalg import MultiPoly, _eval_homogeneous, _scaled_sum
from gschur.stable import (
    InterpolationInconsistentError, RationalFunctionOfD, _kernel_vector, gschur_function,
    realize_expansion,
)
from gschur.partitions import check_partition, conjugate, diagonal_rank


def fraction_product(a, b) -> MultiPoly:
    """Product by a double loop over the Fraction terms (no MultiPoly.__mul__)."""
    assert a.arity == b.arity
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            terms[e] = terms.get(e, Fraction(0)) + ca * cb
    return MultiPoly(a.arity, terms)


def fraction_linear(pairs) -> dict:
    """sum of scale * terms over (scale, term map) pairs, on plain Fraction
    dicts (no MultiPoly arithmetic); zero coefficients are dropped."""
    out = {}
    for scale, terms in pairs:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + Fraction(scale) * Fraction(c)
    return {e: c for e, c in out.items() if c}


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations, multiplying with
    `fraction_product`."""
    n = len(rows)
    assert all(len(row) == n for row in rows)
    total = None
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = fraction_product(prod, rows[i][perm[i]])
        signed = prod if inversions % 2 == 0 else -prod
        total = signed if total is None else total + signed
    return total


def vandermonde(n):
    """prod_{i<j} (x_i - x_j) in n variables, multiplied out factor by factor
    with `fraction_product`; 1 for n <= 1."""
    total = MultiPoly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            xi = [0] * n
            xi[i] = 1
            xj = [0] * n
            xj[j] = 1
            total = fraction_product(total, MultiPoly(n, {tuple(xi): 1, tuple(xj): -1}))
    return total


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a sequence of distinct indices, from
    the parity of its even-length cycles."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alternation(poly) -> MultiPoly:
    """Signed sum of poly over all n! permutations of its variables."""
    n = poly.arity
    terms = {}
    for perm in permutations(range(n)):
        sign = permutation_sign(perm)
        for e, c in poly.items():
            moved = [0] * n
            for i, k in enumerate(e):
                moved[perm[i]] = k
            key = tuple(moved)
            terms[key] = terms.get(key, Fraction(0)) + sign * c
    return MultiPoly(n, {e: c for e, c in terms.items() if c})


def fraction_phi_table(seq, upto):
    """Coefficient lists of phi_0..phi_upto, [z^m] phi_i at index m, from
    phi_{j+1} = (z - a(j)) phi_j - b(j) phi_{j-1} on plain Fraction lists."""
    table = [[Fraction(1)]]
    prev2 = []
    for j in range(upto):
        prev = table[-1]
        nxt = [Fraction(0)] + prev
        for m, c in enumerate(prev):
            nxt[m] -= seq.a(j) * c
        for m, c in enumerate(prev2):
            nxt[m] -= seq.b(j) * c
        prev2 = prev
        table.append(nxt)
    return table


def fraction_scalar_det(rows):
    """Determinant of a square Fraction matrix as the signed permutation sum."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return total


def minor_expansion(lam, seq, n, mus):
    """[s_mu] S_lam(x_1..x_n) for each mu in mus (at most l(lam) parts) as
    the l x l Leibniz minor of the phi coefficients on rows lam_j + n - 1 - j
    and columns mu_k + n - 1 - k; zero coefficients are dropped."""
    l = len(lam)
    table = fraction_phi_table(seq, max(lam, default=0) + n - 1)

    def coeff(i, m):
        return table[i][m] if m < len(table[i]) else Fraction(0)

    out = {}
    for mu in mus:
        mu = tuple(mu) + (0,) * (l - len(mu))
        minor = fraction_scalar_det(
            [[coeff(lam[j] + n - 1 - j, mu[k] + n - 1 - k) for k in range(l)]
             for j in range(l)]
        )
        if minor:
            out[tuple(p for p in mu if p)] = minor
    return out


def fraction_shift_coefficients(a_of, b_of, offset, i, r, memo) -> dict:
    """The shift scalars {j: c_j} of `engine.shift_coefficients`, by the same
    recursion on `Fraction` maps, reading a and b in the same order."""
    if r < 0:
        raise ValueError("shift order must be nonnegative")
    if i + r < 0:
        return {}
    key = (i, r)
    got = memo.get(key)
    if got is not None:
        return got
    if r == 0:
        value = {i: Fraction(1)}
    else:
        arg = i + offset - 1
        value = dict(fraction_shift_coefficients(a_of, b_of, offset, i + 1, r - 1, memo))
        a = a_of(arg)
        same = fraction_shift_coefficients(a_of, b_of, offset, i, r - 1, memo)
        b = b_of(arg)
        lower = fraction_shift_coefficients(a_of, b_of, offset, i - 1, r - 1, memo)
        for scale, part in ((a, same), (b, lower)):
            for j, c in part.items():
                value[j] = value.get(j, 0) + scale * c
        value = {j: c for j, c in value.items() if c}
    memo[key] = value
    return value


def scalar_pair(fracs) -> tuple:
    """A {key: Fraction} map as `GschurContext.shift_scalars` returns one:
    nonzero integer numerators over the lcm of the reduced denominators,
    over which their gcd with it is 1."""
    fracs = {k: Fraction(f) for k, f in fracs.items() if f}
    den = 1
    for f in fracs.values():
        den = den * f.denominator // gcd(den, f.denominator)
    return {k: f.numerator * (den // f.denominator) for k, f in fracs.items()}, den


def polynomial_lemma_residual(ctx, i, r) -> MultiPoly:
    """h_i^{(r)}(x_1..x_n) - x_1 h_i^{(r-1)}(x_1..x_n) - h_{i+1}^{(r-1)}(x_2..x_n)
    as three written polynomials and two `MultiPoly` subtractions: the
    middle one by an exponent shift, the last one written in n - 1
    variables (from `ctx._sub`) and re-embedded with x_1 absent.  Each is
    written by `engine._from_degrees` straight from `shift_scalars`, not
    through the `h_shift` memo, so a map planted there is read."""
    n = ctx.n
    head = _from_degrees(n, *ctx.shift_scalars(i, r))
    prev = _from_degrees(n, *ctx.shift_scalars(i, r - 1))
    tail = _from_degrees(n - 1, *ctx._sub.shift_scalars(i + 1, r - 1))
    x1_prev = MultiPoly(n, {(e[0] + 1,) + e[1:]: c for e, c in prev.items()})
    embedded = MultiPoly(n, {(0,) + e: c for e, c in tail.items()})
    return head - x1_prev - embedded


def newton_complete_homogeneous(n, m, upto):
    """h_0..h_upto on n x and m y variables (x first) by Newton's identities.

    k h_k = sum_{i=1..k} p_i h_{k-i}, with the super power sums
    p_i = sum x^i - sum y^i, multiplying with `fraction_product`.
    """
    arity = n + m

    def power_sum(i):
        terms = {}
        for v in range(arity):
            e = [0] * arity
            e[v] = i
            terms[tuple(e)] = Fraction(1 if v < n else -1)
        return MultiPoly(arity, terms)

    ps = [None] + [power_sum(i) for i in range(1, upto + 1)]
    hs = [MultiPoly(arity, {(0,) * arity: Fraction(1)})]
    for k in range(1, upto + 1):
        acc = MultiPoly(arity)
        for i in range(1, k + 1):
            acc = acc + fraction_product(ps[i], hs[k - i])
        hs.append(MultiPoly(arity, {e: c / k for e, c in acc.items()}))
    return hs


def realized_jt_entries(seq, d, one_rows):
    """Entry (i, c) -> element of Lambda = Q[h_1, h_2, ...] of
    `stable.jt_infinite_check`'s determinant: each one-row map
    {mu: [s_mu] S_(j)} (`one_rows[j]`, mu = () or (k,)) realised with
    s_() = 1 and s_(k) = h_k, the k-th variable of a MultiPoly in
    len(one_rows) - 1 variables, then summed with the
    `fraction_shift_coefficients` scalars at offset d as Fraction * MultiPoly."""
    depth = len(one_rows) - 1
    hs = [MultiPoly.one(depth)] + [MultiPoly.variable(depth, k) for k in range(depth)]
    realized = []
    for row in one_rows:
        poly = MultiPoly(depth)
        for mu, c in row.items():
            poly = poly + c * hs[sum(mu)]
        realized.append(poly)
    memo = {}

    def entry(i, c):
        out = MultiPoly(depth)
        for j, coeff in fraction_shift_coefficients(seq.a_at, seq.b_at, d, i, c, memo).items():
            out = out + coeff * realized[j]
        return out

    return entry


def truncated_jt_check(lam, seq, d, n_eval) -> bool:
    """The parameterised Jacobi-Trudi check as the package first ran it:
    every entry written as a polynomial in n_eval variables by
    `engine._from_degrees` and the right-hand side by `realize_expansion`,
    compared after truncation, which is injective on both sides' span
    (the s_mu with l(mu) <= l(lam)) when n_eval >= l(lam).  Reads the
    package's one-row any-d objects, shift recursion and determinant; the
    reference for the comparison in Lambda."""
    lam = check_partition(lam)
    rhs = realize_expansion(gschur_function(lam, seq, d), n_eval)
    one_rows = [
        _scaled_sum(
            (v.numerator, {sum(mu): 1}, v.denominator)
            for mu, v in gschur_function((j,) if j else (), seq, d).items()
        )
        for j in range(max(lam, default=0) + len(lam))
    ]
    memo = {}

    def entry(i, c):
        degrees = _shifted(one_rows.__getitem__, seq.a_at, seq.b_at, d, i, c, memo)
        return _from_degrees(n_eval, *degrees)

    return first_column_det(entry, [part - j for j, part in enumerate(lam)], n_eval) == rhs


def fraction_kernel_vector(rows):
    """Kernel vector by Gauss-Jordan over Fraction, each pivot scaled to 1.

    The first free column is set to 1 and the other free columns to 0;
    requires more columns than the rank.
    """
    ncols = len(rows[0])
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pv = m[rank][col]
        m[rank] = [v / pv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    free = next(c for c in range(ncols) if c not in pivots)
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = -m[row_idx][free]
    return vec


def kernel_fit(xs, ys, degree_bound):
    """The package's earlier rational fit, on the full linear system.

    Solves P(x) - y Q(x) = 0 at the first 2*bound + 1 samples for the
    2*bound + 2 coefficients of P and Q together, each condition multiplied
    by y's denominator, with `stable._kernel_vector`, then checks every
    sample as `_fit_and_validate` does.  It reads no forward difference and
    no Newton form, so it checks the smaller system of the current fit.
    """
    g = degree_bound
    rows = []
    for x, y in zip(xs[: 2 * g + 1], ys):
        powers = [x**j for j in range(g + 1)]
        rows.append(
            [y.denominator * p for p in powers] + [-y.numerator * p for p in powers]
        )
    sol = _kernel_vector(rows)
    top, bottom = sol[: g + 1], sol[g + 1 :]
    for x, y in zip(xs, ys):
        q = _eval_homogeneous(bottom, x)
        if not q:
            raise InterpolationInconsistentError(
                f"fitted function has a pole at sample {x}"
            )
        if _eval_homogeneous(top, x) * y.denominator != y.numerator * q:
            raise InterpolationInconsistentError(
                f"fitted function disagrees with the sample at {x}"
            )
    return RationalFunctionOfD(top, bottom)


def fraction_bc_jacobi(p, q):
    """bc_jacobi's a and b by their formulas over Fraction, raising the
    same PoleError at a vanishing denominator factor."""
    p, q = Fraction(p), Fraction(q)

    def a(x):
        d1 = 2 * x - p - 2 * q - 1
        d2 = 2 * x - p - 2 * q + 1
        if d1 == 0 or d2 == 0:
            raise PoleError(x)
        return Fraction(-2) * p * (p + 2 * q + 1) / (d1 * d2)

    def b(x):
        d1 = 2 * x - p - 2 * q
        d2 = 2 * x - p - 2 * q - 1
        d3 = 2 * x - p - 2 * q - 2
        if d1 == 0 or d2 == 0 or d3 == 0:
            raise PoleError(x)
        num = 2 * x * (2 * x - 2 * q - 1) * (2 * x - 2 * p - 2 * q - 1) * (
            2 * x - 2 * p - 4 * q - 2
        )
        return num / (d1 * d2 ** 2 * d3)

    return a, b


def fraction_random_polynomials(rng, degree):
    """The a and b of `random_polynomial_coeffseq(rng, degree)`, drawn from
    rng in the same order and evaluated by Horner's rule over Fraction."""

    def draw_poly():
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)]

        def evaluate(x):
            total = Fraction(0)
            for c in reversed(cs):
                total = total * x + c
            return total

        return evaluate

    return draw_poly(), draw_poly()


def _fraction_divmod(num, den):
    """Quotient and remainder of coefficient lists (index = degree)."""
    rem = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = rem[k + len(den) - 1] / den[-1]
        for j, c in enumerate(den):
            rem[k + j] -= quot[k] * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def fraction_reduced_ratio(num, den):
    """num/den in lowest terms with a monic denominator, as coefficient tuples.

    The gcd comes from Euclid's algorithm over Fraction coefficient lists;
    a zero numerator gives ((), (1,)).  The denominator must be nonzero.
    """
    def trim(cs):
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    num, den = trim(num), trim(den)
    assert den
    if not num:
        return (), (Fraction(1),)
    a, b = num, den
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    num, den = _fraction_divmod(num, a)[0], _fraction_divmod(den, a)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def fraction_rational_value(func, x):
    """func(x) for a `RationalFunctionOfD` by Horner's rule over Fraction on
    its `num` and `den`, raising the same PoleError at a root of `den`."""
    x = Fraction(x)

    def horner(cs):
        total = Fraction(0)
        for c in reversed(cs):
            total = total * x + c
        return total

    bottom = horner(func.den)
    if bottom == 0:
        raise PoleError(x, f"rational function has a pole at d = {x}")
    return horner(func.num) / bottom


def semistandard_tableaux(shape, max_entry):
    """All semistandard tableaux of the given shape with entries 1..max_entry.

    Rows weakly increase, columns strictly increase.  Yields tuples of row
    tuples.
    """
    shape = tuple(shape)
    if not shape:
        yield ()
        return

    def fill(row_index, above):
        if row_index == len(shape):
            yield ()
            return
        width = shape[row_index]
        for row in combinations_with_replacement(range(1, max_entry + 1), width):
            if above is not None and any(
                row[j] <= above[j] for j in range(width)
            ):
                continue
            for rest in fill(row_index + 1, row):
                yield (row,) + rest

    yield from fill(0, None)


def schur_by_tableaux(lam, n) -> MultiPoly:
    """Classical Schur polynomial as the tableau generating function."""
    terms = {}
    for tab in semistandard_tableaux(lam, n):
        e = [0] * n
        for row in tab:
            for entry in row:
                e[entry - 1] += 1
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + 1
    return MultiPoly(n, {e: c for e, c in terms.items() if c})


def kostka(lam, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    lam = tuple(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        return 0
    count = 0
    for tab in semistandard_tableaux(lam, len(mu)):
        content = [0] * len(mu)
        for row in tab:
            for entry in row:
                content[entry - 1] += 1
        if tuple(content) == mu:
            count += 1
    return count


# -- the per-term polynomial writer -----------------------------------------

# Per printed style: variable name, power, product, coefficient joint, fraction.
_STYLES = {
    "text": ("x{}", "{}^{}", "*", "*", "{}/{}"),
    "latex": ("x_{{{}}}", "{}^{{{}}}", "", " ", "\\frac{{{}}}{{{}}}"),
}


def _per_term(poly):
    """(exponent, p, q) of each term, leading term first in graded lex, each
    reduced by its own gcd."""
    num, den = poly._num, poly._den
    for e in sorted(num, key=lambda e: (sum(e), e), reverse=True):
        g = gcd(num[e], den)
        yield e, num[e] // g, den // g


def _per_term_ratio(p, q, style):
    return str(p) if q == 1 else _STYLES[style][4].format(p, q)


def per_term_json(poly) -> list:
    """JSON term list, leading term first, each coefficient formatted anew."""
    return [{"e": list(e), "c": _per_term_ratio(p, q, "text")} for e, p, q in _per_term(poly)]


def per_term_text(poly, names=None, style="text") -> str:
    """Text or LaTeX rendering, leading term first, each coefficient
    formatted anew and each term joined by its own sign."""
    var, power, times, sep, _ = _STYLES[style]
    if names is None:
        names = [var.format(i + 1) for i in range(poly.arity)]
    pieces = []
    for e, p, q in _per_term(poly):
        mono = times.join(
            power.format(names[i], k) if k > 1 else names[i] for i, k in enumerate(e) if k
        )
        mag = _per_term_ratio(abs(p), q, style)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}{sep}{mono}"
        if pieces:
            pieces.append(f" + {body}" if p > 0 else f" - {body}")
        else:
            pieces.append(body if p > 0 else f"-{body}")
    return "".join(pieces) or "0"


# -- test-only helpers ------------------------------------------------------


def coeffseq_to_json(seq, upto: int) -> dict:
    """Table-style JSON object for a sequence, truncated at `upto` entries."""
    body = seq.table_dump(upto)
    if any(v is None for v in body["a"] + body["b"]):
        raise ValueError("sequence has unavailable entries below the requested length")
    negative = "zero"
    if seq._neg_a or seq._neg_b:
        negative = {
            "a": {str(k): str(v) for k, v in sorted(seq._neg_a.items())},
            "b": {str(k): str(v) for k, v in sorted(seq._neg_b.items())},
        }
    return {"a": body["a"], "b": body["b"], "negative": negative}


def index_set_identity(p) -> bool:
    """Check that the hook and off-diagonal row indices tile 0..l-1.

    With r the diagonal rank and l the length, the multiset
    {k - p_k - 1 : k = r+1..l} together with {p'_j - j : j = 1..r} must be
    exactly {0, ..., l-1}.
    """
    p = check_partition(p)
    l = len(p)
    r = diagonal_rank(p)
    q = conjugate(p)
    left = [k - p[k - 1] - 1 for k in range(r + 1, l + 1)]
    right = [q[j - 1] - j for j in range(1, r + 1)]
    return sorted(left + right) == list(range(l))


def recursive_compositions(length, total):
    """`partitions.compositions` by recursion on the first part, one level
    per entry: lexicographically decreasing tuples of `length` nonnegative
    integers summing to `total`."""
    if total < 0 or (length == 0 and total):
        return
    if length <= 1:
        yield (total,) if length else ()
        return
    for first in range(total, -1, -1):
        for rest in recursive_compositions(length - 1, total - first):
            yield (first,) + rest


def apply_permutation(poly, perm) -> MultiPoly:
    """Rename variable i to perm[i] for a permutation of 0..arity-1."""
    n = poly.arity
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of the variable indices")
    moved = {}
    for e, c in poly.items():
        key = [0] * n
        for i, k in enumerate(e):
            key[perm[i]] = k
        moved[tuple(key)] = c
    return MultiPoly(n, moved)
