"""grothlab: exact arithmetic for refined (dual) Grothendieck polynomials.

Everything is computed over exact rationals; no floating point enters any
symbolic path.  See README.md for a tour of the modules.
"""

from .polynomial import (
    BETA,
    GAMMA,
    Polynomial,
    PolyMatrix,
    T,
    Variable,
    X,
    Y,
    Z,
    as_poly,
    determinant,
    divided_difference,
    divided_difference_word,
    ek,
    hk,
    longest_word,
    pi_w0,
)

__all__ = [
    "BETA",
    "GAMMA",
    "Polynomial",
    "PolyMatrix",
    "T",
    "Variable",
    "X",
    "Y",
    "Z",
    "as_poly",
    "determinant",
    "divided_difference",
    "divided_difference_word",
    "ek",
    "hk",
    "longest_word",
    "pi_w0",
]

__version__ = "0.1.0"
