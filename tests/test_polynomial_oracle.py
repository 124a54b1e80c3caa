"""The packed determinant and packed products against sympy.

The oracle never uses grothlab arithmetic.  It works in sympy's sparse
polynomial ring over QQ: a Laurent polynomial is shifted to nonnegative
exponents, multiplied there, and shifted back.  A determinant is the Leibniz
sum over the permutations (``sympy.Matrix.det`` takes minutes on polynomial
entries, and ``sympy.expand`` of the Leibniz products several seconds).
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from grothlab.polynomial import GAMMA, Polynomial, T, X, as_poly, determinant

sympy = pytest.importorskip("sympy")

VARS = [X(1), X(2), T(1), GAMMA]
RING = sympy.ring([str(v) for v in VARS], sympy.QQ)[0]

exponents = st.one_of(
    st.integers(-4, 4),
    st.integers(-10 ** 5, 10 ** 5),
    st.sampled_from([2 ** 16 - 1, 2 ** 16, -(2 ** 16 - 1), -(2 ** 16)]),
)
coeffs = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
monomials = st.lists(st.tuples(st.sampled_from(VARS), exponents), max_size=3)
entries = st.lists(st.tuples(monomials, coeffs), max_size=5).map(
    lambda terms: Polynomial.sum(Polynomial.monomial(m, c) for m, c in terms))


@st.composite
def grids(draw):
    n = draw(st.integers(0, 4))
    grid = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a row that is a multiple of another: the determinant cancels to 0
        i, j = draw(st.permutations(range(n)))[:2]
        grid[i] = [e * draw(coeffs) for e in grid[j]]
    return grid


def exponent_dict(p: Polynomial) -> dict:
    """{exponent vector over VARS: Fraction}, read from the JSON form."""
    out = {}
    for term in p.to_json_obj():
        num, den = term["coeff"].split("/")
        out[tuple(term["exps"].get(str(v), 0) for v in VARS)] = Fraction(int(num), int(den))
    return out


def lowest(dicts) -> list:
    """Per variable, the least exponent in the dicts, or 0 if that is less."""
    return [min([0] + [vec[i] for d in dicts for vec in d]) for i in range(len(VARS))]


def to_ring(d: dict, low):
    """The exponent dict times prod v**-low, an element of RING."""
    return RING.from_dict({tuple(e - s for e, s in zip(vec, low)):
                           sympy.QQ(c.numerator, c.denominator) for vec, c in d.items()})


def from_ring(elem, low) -> dict:
    """The exponent dict of elem times prod v**low."""
    return {tuple(e + s for e, s in zip(vec, low)): Fraction(int(c.numerator), int(c.denominator))
            for vec, c in elem.items()}


def leibniz(grid) -> dict:
    """The determinant as a sum over permutations; each row is first shifted
    to nonnegative exponents, and the sum shifted back."""
    n = len(grid)
    rows = [[exponent_dict(as_poly(e)) for e in row] for row in grid]
    lows = [lowest(row) for row in rows]
    cells = [[to_ring(d, low) for d in row] for row, low in zip(rows, lows)]
    total = RING.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = RING((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= cells[i][j]
        total += term
    return from_ring(total, [sum(col) for col in zip([0] * len(VARS), *lows)])


def assert_det_matches(grid):
    assert exponent_dict(determinant(grid)) == leibniz(grid)


@given(grids())
@example([])
@example([[Fraction(1, 2), 3, -1], [4, 5, Fraction(2, 3)], [0, 1, 7]])
@example([[0, 0], [X(1), X(2)]])
@settings(max_examples=35, deadline=None)
def test_determinant_matches_leibniz(grid):
    assert_det_matches(grid)


def _x(e):
    return as_poly(X(1)) ** e


def _t(e):
    return as_poly(T(1)) ** e


@pytest.mark.parametrize("k", [1, 4, 16, 17])
@pytest.mark.parametrize("extra", [-1, 0])
def test_span_at_slot_width_boundary(k, extra):
    # x1 spans [-a, b] with a + b = 2**k + extra, so the slot width is k or
    # k + 1; t1 sits in the next slot and catches any carry or borrow
    span = 2 ** k + extra
    a = span // 2
    b = span - a
    grid = [[_x(-a) * _t(3) + 1, _x(-a) - _t(-2), 2],
            [_t(1), _x(b) * _t(-1) + Fraction(1, 3), _x(b)],
            [1, _x(1) - 1, _t(2) * _x(-1)]]
    assert_det_matches(grid)


def test_variable_negative_in_one_row_positive_in_another():
    grid = [[_x(-3) + _t(2), _x(-1)], [_x(4) - 1, _x(2) * _t(-5) + 2]]
    assert_det_matches(grid)
    assert determinant(grid) == (_x(-3) + _t(2)) * (_x(2) * _t(-5) + 2) - _x(-1) * (_x(4) - 1)


def test_cancelling_rows_give_zero():
    row = [_x(3) - _t(-1), Fraction(5, 2) * _x(-2), _t(7)]
    grid = [row, [_x(1), _t(1), 1], [e * Fraction(-2, 3) for e in row]]
    assert determinant(grid).is_zero()


def packed_factor(rng: random.Random) -> Polynomial:
    """23-30 distinct Laurent monomials over VARS with nonzero rational
    coefficients, exponents drawn like ``exponents``."""
    def exponent():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-4, 4)
        if kind == 1:
            return rng.randint(-10 ** 5, 10 ** 5)
        return rng.choice([2 ** 16 - 1, 2 ** 16, -(2 ** 16 - 1), -(2 ** 16)])

    vecs = set()
    size = rng.randint(23, 30)
    while len(vecs) < size:
        vecs.add(tuple(exponent() for _ in VARS))
    return Polynomial.sum(
        Polynomial.monomial(zip(VARS, vec), Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                                     rng.randint(1, 7)))
        for vec in vecs)


def ring_product(a: Polynomial, b: Polynomial) -> dict:
    da, db = exponent_dict(a), exponent_dict(b)
    low_a, low_b = lowest([da]), lowest([db])
    return from_ring(to_ring(da, low_a) * to_ring(db, low_b),
                     [s + t for s, t in zip(low_a, low_b)])


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_packed_product_matches_sympy_ring(seed):
    # factors come from a seeded generator: hypothesis draws them far slower
    rng = random.Random(seed)
    a, b = packed_factor(rng), packed_factor(rng)
    assert len(a) * len(b) > 512  # the packed path of Polynomial.__mul__
    assert exponent_dict(a * b) == ring_product(a, b)
