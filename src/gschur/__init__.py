"""Generalized Schur polynomials from three-term recurrences.

A coefficient pair (a, b) defines monic polynomials by

    phi_{i+1}(z) = (z - a(i)) phi_i(z) - b(i) phi_{i-1}(z),
    phi_0 = 1,  phi_{-1} = 0,

and the generalized Schur polynomial of a partition is the bialternant
det[phi_{lambda_j + n - j}(x_i)] divided by the Vandermonde determinant.
The package computes these objects exactly over the rationals by four
independent routes (bialternant, Jacobi-Trudi type determinant, hook-based
determinant, compact character form), expands them on monomial and classical
Schur bases, specialises them to classical characters, factorial Schur
polynomials and multivariate Jacobi polynomials, and extends them to a
rational dimension parameter and to two-alphabet (super) realisations.

The names in `_EXPORTS` are importable from the package itself; each is
loaded from its home module on first use, so `import gschur` loads none of
the modules.  Every other name is imported from its module, e.g.
`from gschur.presets import sp`.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "coeffseq": ("CoeffSeq", "PoleError", "UniPolySeq", "random_coeffseq"),
    "engine": ("GschurContext",),
    "exactalg": ("DivisionNotExactError", "MultiPoly"),
    "presets": ("bc_jacobi", "factorial"),
    "stable": (
        "InterpolationInconsistentError",
        "SuperAlphabet",
        "gschur_function",
        "interpolate_c_family",
        "jt_infinite_check",
        "super_schur",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import an exported name's home module on first access (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
