"""Independent reference implementations used as ground truth in tests.

Everything here is deliberately naive: determinants by summing over all
permutations, products by a double loop over `Fraction` terms, Schur
polynomials by listing semistandard tableaux.  Slow, but with no shared code
paths with the package internals beyond the MultiPoly container and its
`+`/`-`.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from gschur.exactalg import MultiPoly


def fraction_product(a, b) -> MultiPoly:
    """Product by a double loop over the Fraction terms (no MultiPoly.__mul__)."""
    assert a.arity == b.arity
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            terms[e] = terms.get(e, Fraction(0)) + ca * cb
    return MultiPoly(a.arity, terms)


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
