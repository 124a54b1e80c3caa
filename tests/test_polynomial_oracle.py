"""The packed determinant, products, sums, substitution and exact division
against sympy.

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


def polys(exps):
    """Sums of up to 5 terms over VARS with exponents drawn from exps."""
    monomials = st.lists(st.tuples(st.sampled_from(VARS), exps), max_size=3)
    return st.lists(st.tuples(monomials, coeffs), max_size=5).map(
        lambda terms: Polynomial.sum(Polynomial.monomial(m, c) for m, c in terms))


entries = polys(exponents)
small_entries = polys(st.integers(-4, 4))


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


def dict_product(da: dict, db: dict) -> dict:
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
    assert exponent_dict(a * b) == dict_product(exponent_dict(a), exponent_dict(b))


def dict_sum(da: dict, db: dict, sign: int = 1) -> dict:
    """da + sign * db, both shifted by one common monomial."""
    low = lowest([da, db])
    return from_ring(to_ring(da, low) + sign * to_ring(db, low), low)


def dict_power(d: dict, e: int) -> dict:
    """d ** e; a negative power needs a single nonzero term."""
    if len(d) == 1:
        ((vec, c),) = d.items()
        return {tuple(x * e for x in vec): c ** e}
    if e < 0:
        raise ZeroDivisionError if not d else ValueError
    low = lowest([d])
    return from_ring(to_ring(d, low) ** e, [s * e for s in low])


def substituted(p: Polynomial, bindings: dict) -> dict:
    """p with VARS[i] replaced by bindings[i], term by term in RING."""
    values = {VARS.index(v): exponent_dict(as_poly(val)) for v, val in bindings.items()}
    total: dict = {}
    for vec, c in exponent_dict(p).items():
        term = {tuple(0 if i in values else e for i, e in enumerate(vec)): c}
        for i, val in values.items():
            if vec[i]:
                term = dict_product(term, dict_power(val, vec[i]))
        total = dict_sum(total, term)
    return total


@given(entries, entries, st.sampled_from([0, 1, -1]))
@example(Polynomial.zero(), Polynomial.zero(), 0)
@settings(max_examples=40, deadline=None)
def test_add_sub_match_sympy_ring(a, b, mix):
    # mix = -1 makes a + b cancel a's terms, mix = 1 makes a - b cancel them
    b = b + a * mix
    da, db = exponent_dict(a), exponent_dict(b)
    assert exponent_dict(a + b) == dict_sum(da, db)
    assert exponent_dict(a - b) == dict_sum(da, db, -1)


def check_substitute(p, bindings):
    try:
        want = substituted(p, bindings)
    except (ZeroDivisionError, ValueError) as exc:
        with pytest.raises(type(exc)):
            p.substitute(bindings)
    else:
        assert exponent_dict(p.substitute(bindings)) == want


invertibles = st.tuples(st.lists(st.tuples(st.sampled_from(VARS), st.integers(-3, 3)), max_size=2),
                        st.sampled_from([1, -1])).map(lambda mc: Polynomial.monomial(*mc))


@given(entries, st.dictionaries(st.sampled_from(VARS), invertibles, max_size=3))
@settings(max_examples=40, deadline=None)
def test_substitute_monomials_matches_sympy_ring(p, bindings):
    # exponents up to 10**5: only single-term values can be raised to them,
    # and only a coefficient of +-1 keeps their powers printable
    check_substitute(p, bindings)


@given(small_entries, st.dictionaries(st.sampled_from(VARS), st.one_of(coeffs, small_entries),
                                      max_size=3))
@example(_x(-2) + 1, {X(1): Polynomial.zero()})
@example(_x(-1) * _t(2), {X(1): _x(1) + _t(1)})
@example(_x(2) - _t(1), {X(1): _t(1), T(1): _x(1)})
@settings(max_examples=40, deadline=None)
def test_substitute_polynomials_matches_sympy_ring(p, bindings):
    # a negative power of a zero or of a many-term value must raise
    check_substitute(p, bindings)


@given(small_entries, small_entries, st.lists(exponents, min_size=2, max_size=2),
       st.permutations(VARS), st.booleans())
@example(Polynomial.zero(), Polynomial.zero(), [0, 0], VARS, True)
@settings(max_examples=40, deadline=None)
def test_divexact_diff_matches_sympy_ring(q, noise, far, order, exact):
    # p = q * (a - b), times a monomial in the other two variables with
    # exponents up to 10**5, plus noise when not exact
    a, b = order[:2]
    ia, ib = VARS.index(a), VARS.index(b)
    others = [i for i in range(len(VARS)) if i not in (ia, ib)]
    qd = {tuple(e + far[others.index(i)] if i in others else e for i, e in enumerate(vec)): c
          for vec, c in exponent_dict(q).items()}
    nd = {} if exact else exponent_dict(noise)
    low = lowest([qd, nd])
    diff = RING.gens[ia] - RING.gens[ib]
    ring_p = to_ring(qd, low) * diff + to_ring(nd, low)
    p = Polynomial.from_exponent_counts(from_ring(ring_p, low), VARS)
    quotients, rem = ring_p.div([diff])  # no quotients when ring_p is 0
    quo = quotients[0] if quotients else RING.zero
    if rem:
        with pytest.raises(ArithmeticError):
            p.divexact_diff(a, b)
    else:
        assert exponent_dict(p.divexact_diff(a, b)) == from_ring(quo, low)
