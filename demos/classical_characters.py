"""
Characters of the classical groups from one recurrence
======================================================

Three small tweaks of the coefficient sequence turn the generalized Schur
polynomial into irreducible characters of the odd orthogonal, even
orthogonal, and symplectic groups.  The recurrence family itself becomes a
Laurent character after substituting z = x + 1/x.
"""

from gschur import GschurContext, UniPolySeq
from gschur.exactalg import format_poly_text
from gschur.presets import fh_character_det, so_even, so_odd, sp
from gschur.verify import laurent_identity_holds

# The symplectic family: phi_0 = 1, phi_1 = z, then phi_{i+1} = z phi_i - phi_{i-1}.
symplectic = sp()
phis = UniPolySeq(symplectic)
for i in range(4):
    print(f"sp phi_{i} =", format_poly_text(phis.phi(i), names=["z"]))
print()

# Substituting z = x + 1/x collapses each phi_i to x^i + x^(i-2) + ... + x^(-i),
# the character of an irreducible sp(2) representation; laurent_identity_holds
# checks it from (x + 1/x)^m = sum_k C(m, k) x^(m - 2k).
for i in range(1, 5):
    assert laurent_identity_holds(symplectic, i)
    character = " + ".join(f"x^{p}" for p in range(i, -i - 1, -2))
    print(f"sp phi_{i}(x + 1/x) =", character)
print()

# For partitions, the same engine produces the full characters; a compact
# determinant with rows h_{m}, h_{m+j-1} + h_{m+1-j} gives a third route
# specific to these presets.
for build in (so_odd, so_even, sp):
    seq = build()
    ctx = GschurContext(2, seq)
    lam = (2, 1)
    value = ctx.bialternant(lam)
    assert value == fh_character_det(ctx, lam)
    assert value == ctx.jacobi_trudi(lam)
    print(f"{seq.name:7} S_(2,1) =", format_poly_text(value))
