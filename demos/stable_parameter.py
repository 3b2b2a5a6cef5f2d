"""
Treating the number of variables as a parameter
===============================================

Expanded on classical Schur polynomials, the coefficients of a generalized
Schur polynomial depend on the variable count n.  For closed-form coefficient
sequences that dependence is a rational function of n, so it can be
reconstructed exactly from finitely many integer values and then evaluated
anywhere, including off the integers.
"""

from fractions import Fraction

from gschur import gschur_function, interpolate_c_family, jt_infinite_check
from gschur.presets import factorial

# With a(i) = i the expansion of the single box is S_(1) = s_(1) + c(n) where
# c(n) = -(0 + 1 + ... + (n-1)), a polynomial in n.
seq = factorial(lambda x: x)

family = interpolate_c_family((1,), seq)
for mu, func in sorted(family.items()):
    print(f"c_(1),{mu or '()'}(d) = {func!r}")
print()

# The reconstructed functions evaluate at any rational d.
for d in (3, Fraction(7, 2), Fraction(-1, 2)):
    print(f"expansion at d = {d}:", dict(gschur_function((1,), seq, d)))
print()

# The one-row determinant identity survives at non-integer d: both sides are
# symmetric functions of infinitely many variables, compared as polynomials
# in the free generators h_1, h_2, ... of the ring of symmetric functions.
for d in (Fraction(7, 2), Fraction(1, 3)):
    ok = jt_infinite_check((2, 1), seq, d, 2)
    print(f"determinant identity at d = {d}: {'holds' if ok else 'fails'}")
