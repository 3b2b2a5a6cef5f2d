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
"""

from .coeffseq import (
    CoeffSeq,
    PoleError,
    UniPolySeq,
    coeffseq_from_json,
    coeffseq_to_json,
    load_coeffseq,
    random_coeffseq,
    random_polynomial_coeffseq,
)
from .engine import GschurContext, monomial_symmetric, shift_coefficients
from .exactalg import (
    DivisionNotExactError,
    MultiPoly,
    determinant,
    exact_divide,
    format_poly_text,
    grlex_key,
    poly_from_json_terms,
    poly_to_json_terms,
    vandermonde,
)
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    contains,
    diagonal_rank,
    frobenius_coordinates,
    index_set_identity,
    parse_partition,
    partitions_of,
    partitions_up_to,
    weight,
)
from .presets import (
    bc_jacobi,
    boundary_insensitivity,
    factorial,
    fh_character_det,
    schur,
    so_even,
    so_odd,
    sp,
)
from .stable import (
    InterpolationInconsistentError,
    RationalFunctionOfD,
    SuperAlphabet,
    classical_schur,
    expand_in_classical_schur,
    gschur_function,
    interpolate_c_family,
    jt_infinite_check,
    realize_expansion,
    schur_expand_at,
    super_schur,
)
from .verify import SuiteReport, run_property

__version__ = "0.1.0"

__all__ = [
    "CoeffSeq",
    "DivisionNotExactError",
    "GschurContext",
    "InterpolationInconsistentError",
    "MultiPoly",
    "Partition",
    "PoleError",
    "RationalFunctionOfD",
    "SuiteReport",
    "SuperAlphabet",
    "UniPolySeq",
    "bc_jacobi",
    "boundary_insensitivity",
    "check_partition",
    "classical_schur",
    "coeffseq_from_json",
    "coeffseq_to_json",
    "conjugate",
    "contains",
    "determinant",
    "diagonal_rank",
    "exact_divide",
    "expand_in_classical_schur",
    "factorial",
    "fh_character_det",
    "format_poly_text",
    "frobenius_coordinates",
    "grlex_key",
    "gschur_function",
    "index_set_identity",
    "interpolate_c_family",
    "jt_infinite_check",
    "load_coeffseq",
    "monomial_symmetric",
    "parse_partition",
    "partitions_of",
    "partitions_up_to",
    "poly_from_json_terms",
    "poly_to_json_terms",
    "random_coeffseq",
    "random_polynomial_coeffseq",
    "realize_expansion",
    "run_property",
    "schur",
    "schur_expand_at",
    "shift_coefficients",
    "so_even",
    "so_odd",
    "sp",
    "super_schur",
    "vandermonde",
    "weight",
]
