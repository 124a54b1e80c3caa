from fractions import Fraction
import decimal
import hashlib
import json
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from grothlab import diffops, symfunc
from grothlab.polynomial import (
    BETA,
    GAMMA,
    Polynomial,
    T,
    Variable,
    X,
    Y,
    Z,
    as_poly,
    determinant,
    divided_difference,
    divided_difference_word,
    e_table,
    ek,
    h_table,
    hk,
    int_text,
    longest_word,
    PolyMatrix,
    pi_w0,
    text_int,
    var_from_name,
)


def P(v):
    return as_poly(v)


x1, x2, x3 = P(X(1)), P(X(2)), P(X(3))
t1, t2 = P(T(1)), P(T(2))


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (x1 + t1) * (x1 - t1) == x1 ** 2 - t1 ** 2

    def test_add_zero_identity(self):
        p = 3 * x1 * x2 - t1
        assert p + Polynomial.zero() == p

    def test_laurent_cancellation(self):
        assert (x1 * P(T(1)) ** -1) * t1 == x1

    def test_scalar_coercion(self):
        assert 2 + x1 - 2 == x1
        assert Fraction(1, 2) * (2 * x1) == x1

    def test_pow_negative_monomial(self):
        m = Polynomial.monomial([(X(1), 2), (T(1), -1)], Fraction(3, 2))
        inv = m ** -1
        assert m * inv == Polynomial.one()

    def test_pow_negative_nonmonomial_raises(self):
        with pytest.raises(ValueError):
            (x1 + x2) ** -1


class TestSubstitution:
    def test_kill_t(self):
        p = x1 ** 2 * t1
        assert p.substitute({T(1): 1}) == x1 ** 2

    def test_invert_ts(self):
        p = t1 * t2
        q = p.substitute({T(1): P(T(1)) ** -1, T(2): P(T(2)) ** -1})
        assert q == P(T(1)) ** -1 * P(T(2)) ** -1

    def test_zero_to_negative_power_raises(self):
        p = P(T(1)) ** -1
        with pytest.raises(ZeroDivisionError):
            p.substitute({T(1): 0})

    def test_evaluate(self):
        p = x1 ** 2 + t1
        assert p.evaluate({X(1): Fraction(1, 2), T(1): Fraction(1, 3)}) == Fraction(7, 12)

    def test_many_terms_match_folded_sum(self):
        # Laurent, rational and compound values on a polynomial of a few
        # hundred terms, against the term-by-term `out = out + term` loop
        import random

        rng = random.Random(7)
        terms = {}
        for _ in range(300):
            mono = [(X(1), rng.randint(0, 3)), (X(2), rng.randint(-2, 2)),
                    (T(1), rng.randint(-3, 3)), (Y(1), rng.randint(-2, 2))]
            key = tuple((v.code, e) for v, e in mono if e)
            terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = Polynomial(terms)
        assert len(p) > 200
        bindings = {X(1): x1 + t2, X(2): Fraction(1, 2), T(1): P(T(1)) ** -1,
                    Y(1): 3 * x1 * t2}
        got = p.substitute(bindings)
        want = _substitute_by_folding(p, bindings)
        assert got == want and got.to_json() == want.to_json()


def _substitute_by_folding(p, bindings):
    """Substitution accumulated one term at a time with `+`."""
    vals = {v.code: as_poly(val) for v, val in bindings.items()}
    out = Polynomial.zero()
    for mono, coeff in p.terms.items():
        free = [(code, e) for code, e in mono if code not in vals]
        term = Polynomial({tuple(free): coeff})
        for code, e in mono:
            if code in vals:
                term = term * vals[code] ** e
        out = out + term
    return out


class TestSum:
    def test_matches_folded_addition(self):
        parts = [x1 + t1, Fraction(1, 2) * x1 - t1, x2 ** -1, Polynomial.zero(),
                 Fraction(1, 2) * x1]
        want = Polynomial.zero()
        for q in parts:
            want = want + q
        assert Polynomial.sum(parts) == want == 2 * x1 + x2 ** -1

    def test_normalises_and_drops_zeros(self):
        half = Fraction(1, 2) * x1
        got = Polynomial.sum(iter([half, half, t1, -t1]))
        assert got.terms == {((X(1).code, 1),): 1}
        assert type(got.terms[((X(1).code, 1),)]) is int

    def test_empty(self):
        assert Polynomial.sum([]).is_zero()


class TestGenerators:
    def test_h2(self):
        assert hk(2, [X(1), X(2)]) == x1 ** 2 + x1 * x2 + x2 ** 2

    def test_e2(self):
        t3 = P(T(3))
        assert ek(2, [T(1), T(2), T(3)]) == t1 * t2 + t1 * t3 + t2 * t3

    def test_negative_degree(self):
        assert hk(-1, [X(1)]).is_zero()
        assert ek(-1, [X(1)]).is_zero()
        assert ek(3, [X(1), X(2)]).is_zero()
        assert hk(0, []) == Polynomial.one()

    def test_h_table_against_multisets(self):
        atoms = [X(1), P(T(1)) ** -1, Fraction(2, 3), GAMMA]
        table = h_table(4, atoms)
        assert len(table) == 5
        for d, got in enumerate(table):
            want = Polynomial.zero()
            for pick in combinations_with_replacement(atoms, d):
                term = Polynomial.one()
                for a in pick:
                    term = term * P(a)
                want = want + term
            assert got == want == hk(d, atoms), d

    def test_e_table_against_subsets(self):
        atoms = [X(1), P(T(1)) ** -1, Fraction(2, 3), GAMMA]
        for k in range(7):
            table = e_table(k, atoms)
            assert len(table) == k + 1
            for d, got in enumerate(table):
                want = Polynomial.zero()
                for pick in combinations(atoms, d):
                    term = Polynomial.one()
                    for a in pick:
                        term = term * P(a)
                    want = want + term
                assert got == want == ek(d, atoms), (k, d)

    def test_h_table_extends_start(self):
        a = [T(1), P(T(2)) ** -1]
        b = [X(1), Fraction(1, 3), GAMMA]
        for k in range(5):
            start = h_table(k + 2, b)
            kept = list(start)
            assert h_table(k, a, start=h_table(k, b)) == h_table(k, b + a)
            assert h_table(k, a, start=start) == h_table(k, b + a)
            assert start == kept

    @staticmethod
    def series(k, xs, ts):
        """Coefficients of u^0..u^k in prod(1 - t u) / prod(1 - x u)."""
        return e_table(k, [-P(a) for a in ts], start=h_table(k, xs))

    def test_series_coeffs(self):
        assert self.series(0, [X(1)], [T(1)]) == [Polynomial.one()]
        assert self.series(1, [X(1), X(2)], [T(1)])[1] == hk(1, [X(1), X(2)]) - ek(1, [T(1)])
        # frozen from expanding (1 - t1 u) / (1 - x1 u) to order u^2
        assert self.series(2, [X(1)], [T(1)])[2] == x1 ** 2 - t1 * x1

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_series_matches_em_hk_sum(self, i):
        xs, ts = [X(1), X(2)], [T(1), T(2)]
        total = Polynomial.zero()
        for m in range(i + 1):
            total = total + ek(m, [-P(a) for a in ts]) * hk(i - m, xs)
        assert self.series(i, xs, ts)[i] == total


class TestDeterminant:
    def test_2x2_cofactor(self):
        h = lambda k: hk(k, [X(1), X(2)])
        assert determinant([[h(2), h(3)], [Polynomial.one(), h(1)]]) == h(1) * h(2) - h(3)

    def test_identity_pattern(self):
        one, zero = Polynomial.one(), Polynomial.zero()
        assert determinant([[one, zero], [zero, one]]) == one

    def test_schur_21(self):
        h = lambda k: hk(k, [X(1), X(2)])
        det = determinant([[h(2), h(3)], [hk(0, []), h(1)]])
        # oracle: SSYT of shape (2,1) with entries <= 2
        assert det == x1 ** 2 * x2 + x1 * x2 ** 2

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            determinant([[x1, x2]])

    def test_size_cap(self):
        eye = lambda n: [[int(i == j) for j in range(n)] for i in range(n)]
        assert determinant(eye(12)) == Polynomial.one()
        with pytest.raises(ValueError, match="capped at 12"):
            determinant(eye(13))

    def test_polymatrix_determinant_matches_function(self):
        h = lambda k: hk(k, [X(1), P(T(1)) ** -1, Fraction(1, 3)])
        entries = [[h(2), h(3), x1], [h(0), h(1), t1 ** -2], [0, h(0), h(4)]]
        want = determinant(entries)
        assert PolyMatrix(entries).determinant() == want
        assert want.to_json() == determinant(PolyMatrix(entries)).to_json()


small_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from([X(1), X(2), T(1)]),
                           st.integers(-2, 2)), max_size=2),
        st.integers(-3, 3),
    ),
    max_size=4,
).map(lambda terms: sum((Polynomial.monomial(m, c) for m, c in terms),
                        Polynomial.zero()))


class TestRingLaws:
    @given(small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert (p * q - q * p).is_zero()

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=25, deadline=None)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(st.lists(st.lists(small_polys, min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(st.lists(small_polys, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=8, deadline=None)
    def test_det_multiplicative(self, a, b):
        from grothlab.polynomial import PolyMatrix

        A, B = PolyMatrix(a), PolyMatrix(b)
        assert determinant(A * B) == determinant(A) * determinant(B)


class TestDividedDifferences:
    def test_basic(self):
        assert divided_difference(x1, 1) == Polynomial.one()
        assert divided_difference(x1 * x2, 1).is_zero()

    @given(small_polys)
    @settings(max_examples=30, deadline=None)
    def test_square_zero(self, p):
        assert divided_difference(divided_difference(p, 1), 1).is_zero()

    @given(small_polys)
    @settings(max_examples=20, deadline=None)
    def test_braid(self, p):
        p = p * x3  # make sure x3 participates
        lhs = divided_difference_word(p, (1, 2, 1))
        rhs = divided_difference_word(p, (2, 1, 2))
        assert lhs == rhs

    def test_longest_words(self):
        assert longest_word(2) == (1,)
        assert longest_word(3) == (1, 2, 1)
        assert longest_word(4) == (1, 2, 3, 1, 2, 1)

    def test_pinned_multi_schur_evaluation(self):
        # d_{s1 s2 s1} (x1^4 x2 (1-t1 x2)(1-t1 x3)(1-t2 x3))
        p = (Polynomial.monomial([(X(1), 4), (X(2), 1)])
             * (1 - t1 * x2) * (1 - t1 * x3) * (1 - t2 * P(X(3))))
        got = divided_difference_word(p, (1, 2, 1))
        from grothlab.symfunc import schur

        xs = [X(1), X(2), X(3)]
        want = (t1 ** 2 * schur((2, 1, 1), xs) - t1 * schur((2, 1), xs)
                + schur((2,), xs))
        assert got == want

    def test_pi_w0_matches_direct(self):
        p = x1 ** 2
        from grothlab.polynomial import x_staircase

        assert pi_w0(p, 2) == divided_difference_word(x_staircase(2) * p, (1,))


class TestSerialization:
    def test_json_roundtrip(self):
        p = Fraction(3, 2) * x1 ** 2 * P(T(1)) ** -1 - x2 + 7
        assert Polynomial.from_json_obj(json.loads(p.to_json())) == p

    def test_json_sorted_deterministic(self):
        p = x1 + x2 + t1
        q = t1 + x2 + x1
        assert p.to_json() == q.to_json()

    def test_coefficients_past_the_int_digit_limit(self):
        # 5,000-digit numerator over a 5,000-digit denominator: str() of
        # such an int raises under the interpreter's default limit
        num, den = 3 ** 10479 + 2, 7 ** 5916
        assert len(int_text(num)) == len(int_text(den)) == 5000
        c = Fraction(num, den)
        p = c * x1 ** 2 * P(T(1)) ** -1 - 10 ** 6000 * x2 + 7
        assert Polynomial.from_json_obj(json.loads(p.to_json())) == p
        assert p.to_json_obj()[0]["coeff"] == f"{int_text(num)}/{int_text(den)}"
        assert str(p) == f"{int_text(num)}/{int_text(den)}*x1^2*t1^-1 - 1{'0' * 6000}*x2 + 7"

    @pytest.mark.parametrize("n", [0, 7, -1, 10 ** 599, 10 ** 600, -(10 ** 600) + 1,
                                   3 ** 10479 + 2, -(2 ** 40000) + 1],
                             ids=lambda n: f"bits{n.bit_length()}{'-' if n < 0 else ''}")
    def test_int_text_round_trip(self, n):
        # decimal converts ints without the interpreter's digit limit
        want = str(decimal.Context(prec=decimal.MAX_PREC).create_decimal(n))
        assert int_text(n) == want
        assert text_int(want) == n

    @pytest.mark.parametrize("text", ["1" * 700 + "-2", "--" + "1" * 700, "1" * 700 + "x"])
    def test_text_int_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            text_int(text)

    def test_variable_names(self):
        assert str(GAMMA) == "gamma"
        assert str(BETA) == "beta"
        assert var_from_name("x12") == X(12)
        assert var_from_name("gamma") == GAMMA

    def test_canonical_order(self):
        assert X(2) < T(1) < Y(1) < Z(3) < GAMMA < BETA


def _termwise(a, b):
    """a * b expanded one pair of terms at a time, without packing."""
    from grothlab.polynomial import _mono_mul

    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = _mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return Polynomial(out)


class TestLargeProducts:
    def test_packed_path_matches_naive(self):
        # products above the packing threshold agree with pairwise expansion
        import random

        rng = random.Random(0)
        vars_ = [X(1), X(2), T(1), T(2)]

        def rnd(terms):
            p = Polynomial.zero()
            for _ in range(terms):
                mono = [(v, rng.randint(-4, 4))
                        for v in rng.sample(vars_, k=rng.randint(1, 4))]
                p = p + Polynomial.monomial(mono, rng.randint(1, 5))
            return p

        a, b = rnd(90), rnd(90)
        assert len(a) * len(b) > 512
        assert a * b == _termwise(a, b)

    @pytest.mark.parametrize("shift", [-70000, -(1 << 16) - 1, 1 << 32, -(10 ** 12)])
    def test_packed_large_exponents(self, shift):
        # fixed 32-bit slots with a 2^16 offset used to spill exponents below
        # -2^16 or near 2^32 into the neighbouring variable's slot
        a = Polynomial.var(X(1), shift) * sum((x1 ** i for i in range(30)), Polynomial.zero())
        b = sum((x2 ** j for j in range(30)), Polynomial.zero())
        assert len(a) * len(b) > 512
        got = a * b
        assert got == _termwise(a, b)
        want = Polynomial.zero()
        for i in range(30):
            for j in range(30):
                want = want + Polynomial.monomial([(X(1), shift + i), (X(2), j)])
        assert got == want

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_packed_matches_termwise_property(self, data):
        # random Laurent products above the packing threshold, exponents up
        # to +-10^5, against the pairwise (small-path) definition
        exps = st.tuples(*[st.integers(-10 ** 5, 10 ** 5)] * 3)
        coeffs = st.integers(-9, 9).filter(bool)

        def poly(size):
            terms = data.draw(st.dictionaries(exps, coeffs, min_size=size, max_size=size + 15))
            return sum((Polynomial.monomial(zip((X(1), X(2), T(1)), e), c)
                        for e, c in terms.items()), Polynomial.zero())

        a, b = poly(20), poly(26)
        assert len(a) * len(b) > 512
        assert a * b == _termwise(a, b)

    def test_packed_cancellation_drops_zeros(self):
        # (sum x1^i) * (1 - x1) * c telescopes to (1 - x1^30) * c
        a = sum((x1 ** i for i in range(30)), Polynomial.zero())
        c = sum((t1 ** j for j in range(-10, 10)), Polynomial.zero())
        b = c - x1 * c
        assert len(a) * len(b) > 512
        got = a * b
        assert got == c - x1 ** 30 * c
        assert len(got) == 40 and all(got.terms.values())

    def test_packed_laurent_associativity(self):
        big = hk(6, [X(1), X(2), X(3)]) + Polynomial.var(T(1), -3)
        assert (big * big) * big == big * (big * big)


def _triple_loop(a, b):
    """Every entry of a * b as a sum over all k, zeros included."""
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), Polynomial.zero())
             for j in range(b.cols)] for i in range(a.rows)]


class TestPolyMatrixProduct:
    @staticmethod
    def _random(rng, rows, cols, zero_share):
        pool = [x1, -x1, t1, x1 * t1, 1 - x2, x2 - 1, Fraction(1, 2) * t2 ** -1]
        return PolyMatrix([[Polynomial.zero() if rng.random() < zero_share
                            else rng.choice(pool) for _ in range(cols)]
                           for _ in range(rows)])

    @pytest.mark.parametrize("r,k,c", [(1, 1, 1), (3, 3, 3), (2, 5, 3), (5, 2, 4),
                                       (1, 6, 1), (6, 1, 6), (8, 8, 8)])
    def test_matches_triple_loop(self, r, k, c):
        import random

        rng = random.Random(f"{r}x{k}x{c}")
        for zero_share in (0.0, 0.5, 0.9):
            a = self._random(rng, r, k, zero_share)
            b = self._random(rng, k, c, zero_share)
            got = a * b
            assert (got.rows, got.cols) == (r, c)
            assert got.entries == _triple_loop(a, b)

    def test_zero_rows_and_columns(self):
        z = Polynomial.zero()
        a = PolyMatrix([[x1, z, t1], [z, z, z], [1, x2, z]])
        b = PolyMatrix([[z, x1, 2], [z, t2, z], [z, 1, t1]])
        got = a * b
        assert got.entries == _triple_loop(a, b)
        assert all(e.is_zero() for e in got.entries[1])
        assert all(row[0].is_zero() for row in got.entries)

    def test_cancelling_entries(self):
        a = PolyMatrix([[x1, x1, t1], [x2, -x2, 0]])
        b = PolyMatrix([[1, t1], [-1, t1], [0, x1]])
        got = a * b
        assert got.entries == _triple_loop(a, b)
        assert got[0, 0].is_zero() and got[1, 1].is_zero()
        assert got[0, 1] == 3 * x1 * t1 and got[1, 0] == 2 * x2

    def test_empty_inner_dimension(self):
        got = PolyMatrix([[], []]) * PolyMatrix([])
        assert (got.rows, got.cols, got.entries) == (2, 0, [[], []])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix([[x1, x2]]) * PolyMatrix([[x1, x2]])


class TestFromExponentCounts:
    def test_plain_variables(self):
        counts = {(2, 0, 1): 3, (0, 1, 0): -1, (1, 1, 1): 0}
        got = Polynomial.from_exponent_counts(counts, [X(1), X(2), T(1)])
        assert got == 3 * x1 ** 2 * t1 - x2

    @pytest.mark.parametrize("atoms", [
        [T(2), T(1)],  # reordered
        [T(1), T(1)],  # repeated
        [Fraction(1, 2), Fraction(-2, 3)],  # rational
        [t1 ** -1, t2 ** -1],  # Laurent
        [GAMMA, T(1)],  # out of canonical order
        [x1 + t1, 1 - t2],  # compound
    ])
    def test_matches_product_of_powers(self, atoms):
        counts = {(2, 0): 3, (0, 1): -1, (1, 3): 2, (0, 0): 5}
        want = Polynomial.zero()
        for (i, j), c in counts.items():
            want = want + as_poly(atoms[0]) ** i * as_poly(atoms[1]) ** j * c
        assert Polynomial.from_exponent_counts(counts, atoms) == want

    def test_cancellation(self):
        got = Polynomial.from_exponent_counts({(1, 0): 1, (0, 1): -1}, [T(1), T(1)])
        assert got.is_zero()

    def test_vector_length_must_match(self):
        with pytest.raises(ValueError):
            Polynomial.from_exponent_counts({(1,): 1}, [X(1), X(2)])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputBytes:
    """sha256 of to_json() and str(), taken before the key-based term sort
    and the packed determinant: term order and coefficient formatting must
    not drift."""

    x3, y1, z2 = P(X(3)), P(Y(1)), P(Z(2))
    gamma, beta = P(GAMMA), P(BETA)
    POLYS = {
        "zero": Polynomial.zero(),
        "one": Polynomial.one(),
        "const": Polynomial.const(Fraction(-7, 3)),
        "linear": x1 + x2 + t1,
        "laurent": Fraction(3, 2) * x1 ** 2 * t1 ** -1 - x2 + 7,
        "rational": Fraction(1, 6) * x1 * x3 - Fraction(5, 4) * t2 ** 3 + Fraction(2, 9),
        "families": (x1 - y1 * z2 + gamma * beta ** 2) ** 2,
        "mixed_degree": x1 ** -3 * x2 ** 5 - t1 ** 2 * t2 ** -2 + x3 * y1 - 1,
        "h3": hk(3, [X(1), X(2), T(1)]),
        "big_exps": x1 ** 100000 * t2 ** -99999 - 3 * x2 ** 65536 + z2 ** -65535,
    }
    DIGESTS = {
        "zero": ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
                 "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9"),
        "one": ("0e4c9cddee9a6cf3a85a6c72f95baa0fa584e2f9ccce640a14864834cda82a25",
                "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        "const": ("25c0cf4c6bf371dab93c29b4a4fe008b7dac41f870c29213f4d71ece4e88a898",
                  "2e7242e91759da0f99770a5b5d96b1531023c9874178a08c5acf79aef266d22a"),
        "linear": ("863f545f8f6005d04567fe1d0bcd649f312e6da041553d40bd550415ad4535cc",
                   "402362e59f1a74245a6a06be714ac0777e2838bad3a0f677e457c276951ced9b"),
        "laurent": ("c3330f4149f583b226dcdb991ab1260864ae2c4a073eb562aa4c13df28042725",
                    "127de4065c9d4b5c485b07fa31848ffeb74df9eebaffb0aeafaeea69d8a730a5"),
        "rational": ("9bf4f53df858b17375cb046a3aca4ae7d6d0419ee18db82eb2892289eca89aa8",
                     "730177b28357f09778f2b0dbedcbbea0e3b93e5c1d8c0e0eb424ec123a3f6654"),
        "families": ("48f15709c254ab229c74531b78f52b0d118992688986ae21861aba9d2e08306f",
                     "b8a2267bcf41a3ca12305d0adb6255f7802adb9cc4b5e097a8860d5ea899e5d9"),
        "mixed_degree": ("784966024e7c4614f088bed6f94726f518d5ab38900307ad1b902c013adf011c",
                         "7297fd0596b6318ad5df26cad30090221016d0fbe54b14c07a448dc4e2808a12"),
        "h3": ("e441c09a0eb57f8571e7722e6c9c7100e17891a539be1008fbcc83c9ade000d5",
               "a013d5e725f2333d3dcfb10cf78fcd6bea4d76729b497fd728672474f1e0fd03"),
        "big_exps": ("6cc6af18a0746b40cd76803e278d9c6e4fb071a3f788125c36b98f706d89b5cb",
                     "d7c36d73e174900b63a4ac84c0a00e2959f99d5d85624ab4411f901097d15e71"),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_polynomial_bytes(self, name):
        p = self.POLYS[name]
        assert (_sha(p.to_json()), _sha(str(p))) == self.DIGESTS[name]

    @pytest.mark.parametrize("route", ["rpp", "schur_decomp", "jt_h", "jt_e", "multischur"])
    def test_dual_grothendieck_bytes(self, route):
        from grothlab.symfunc import dual_grothendieck

        got = dual_grothendieck((3, 2, 1), 4, route=route).to_json()
        assert _sha(got) == "3f3e248a1300c1590762f540b3e3d3d19dee1c417e5c201a5a943ec2eac983d9"

    def test_grothendieck_jacobi_trudi_bytes(self):
        from grothlab.symfunc import grothendieck

        got = grothendieck((3, 2, 1), 4, route="jacobi_trudi").to_json()
        assert _sha(got) == "f97589af9ab08774d57f1ac9223c2ec2c92e4d5929dda99bb33e34196d696f8d"

    # grids built from per-column or per-row tables, pinned at the per-entry
    # grids they replaced
    GRID_ROUTES = {
        "multi_schur": lambda: symfunc.multi_schur(
            [3, 2, 2], [([X(1), X(2)], [T(1)]), ([X(1), X(2), X(3)], [T(1), T(2)]),
                        ([X(2), Y(1)], [T(3)])]),
        "multi_schur_tinv": lambda: symfunc.multi_schur(
            [4, 3, 2], [([X(1), X(2), X(3)], []), ([X(1), X(2), X(3)], [P(T(1)) ** -1]),
                        ([X(1), X(2)], [P(T(1)) ** -1, P(T(2)) ** -1])]),
        "grothendieck_multischur": lambda: symfunc.grothendieck_multischur((3, 2, 1), 4),
        "g_multischur": lambda: symfunc.dual_grothendieck((3, 3, 2, 1), 4, route="multischur"),
        "g_jt_e": lambda: symfunc.dual_grothendieck((3, 3, 2, 1), 4, route="jt_e"),
        "p_coeff_det": lambda: symfunc.p_coeff_det((3, 3, 3), (2, 1), [T(1), T(2), T(3)]),
        "p_coeff_det_skew": lambda: symfunc.p_coeff_det((4, 3, 1), (1,), [T(i) for i in range(1, 5)]),
        "det_h_tinv": lambda: diffops.det_h_tinv((4, 2, 1), 3, 3),
        "det_h_tinv_unsorted": lambda: diffops.det_h_tinv((2, 5, 0), 3, 4),
        "lpp_cdf_det": lambda: diffops.lpp_cdf_det(3, 3, 3),
        "transition_h": lambda: diffops.transition_prob_det((2, 1), (1,), 2, 2),
        "transition_e": lambda: diffops.transition_prob_det((2, 1), (1,), 2, 2, version="e"),
    }
    GRID_DIGESTS = {
        "multi_schur": "e1c9e0df8368347105272ac9c81d2c41a5b2b73622d6741a3dc0853f42d7adcb",
        "multi_schur_tinv": "13e6398545afc53d2ac8e5e193caabd3ac270e041267400f6f2c86b72337867f",
        "grothendieck_multischur":
            "f97589af9ab08774d57f1ac9223c2ec2c92e4d5929dda99bb33e34196d696f8d",
        "g_multischur": "e3ae56fd45a7e1e7c0210a7af94055569e9413eea9ef987544bbbb81d24540f5",
        "g_jt_e": "e3ae56fd45a7e1e7c0210a7af94055569e9413eea9ef987544bbbb81d24540f5",
        "p_coeff_det": "f5f396033b8120c3f0827c275b513d7aa4d465c46ebc42102bfd49283513c928",
        "p_coeff_det_skew": "ae10a298fdcc8083468986338daeed0fe3ff02d4871f183a9fdc9f66f2d919fe",
        "det_h_tinv": "d78eaa5d78eb5921176eb759d30f14e6049e04afd4f0500db8fc21b5e4aa0257",
        "det_h_tinv_unsorted": "78494665b77b5f8250dc642b3238759757733f841a8a321cdba93f8e89ba7467",
        "lpp_cdf_det": "749301656dd7d2dc5580d109d56a728463bd19c9b2cae45f06758e12b4a22710",
        "transition_h": "01beddff7a0848ee1d349d0f796277f73a274b125b27e3d6a8d98ec27f6d8a8d",
        "transition_e": "01beddff7a0848ee1d349d0f796277f73a274b125b27e3d6a8d98ec27f6d8a8d",
    }

    @pytest.mark.parametrize("name", sorted(GRID_DIGESTS))
    def test_grid_route_bytes(self, name):
        assert _sha(self.GRID_ROUTES[name]().to_json()) == self.GRID_DIGESTS[name]
