from itertools import product

import pytest

from grothlab.diffops import (
    convolve_eval,
    delta_span,
    det_delta_h_rows,
    det_h_tinv,
    e_seq,
    e_short_seq,
    eval_delta,
    forward_closed,
    h_seq,
    inverse_closed,
    inversions,
    lpp_cdf_det,
    lpp_cdf_schur,
    lpp_cdf_schur_measure_sum,
    one_variable_det,
    one_variable_factorized,
    schur_reduction_h_rows,
    schur_reduction_skew_t,
    skew_jt_e,
    skew_jt_h,
    transition_prob_det,
    v_seq,
    verify_convolution,
    verify_expansion_det,
    verify_generalized_cauchy_det,
    verify_one_variable_e,
    verify_one_variable_lemma,
    verify_summation_identity,
)
from grothlab.polynomial import Polynomial, T, X, as_poly
from grothlab.shapes import contains, subpartitions
from grothlab.symfunc import skew_dual_grothendieck

t1 = as_poly(T(1))
x1 = as_poly(X(1))


class TestDeltaOperators:
    def test_inverse_of_h_at_two(self):
        # the definition sum: over u <= 1 of t^{1-u} h_u(x1) = x1 + t1; the
        # paper's closed form t^{v-1}(1-t^{-v}x^v)/(1-t^{-1}x) agrees
        f = h_seq([X(1)])
        assert eval_delta([(t1, -1)], f, 2) == x1 + t1

    def test_closed_form_matches_rational_expression(self):
        f = v_seq(X(1))
        for v in (1, 2, 3, 4):
            got = eval_delta([(t1, -1)], f, v)
            # t^{v-1} (1 - t^{-v} x^v) / (1 - t^{-1} x), cross-multiplied
            lhs = got * (1 - as_poly(T(1)) ** -1 * x1)
            rhs = t1 ** (v - 1) * (1 - as_poly(T(1)) ** -v * x1 ** v)
            assert lhs == rhs

    @pytest.mark.parametrize("v", [-1, 0, 1, 2])
    def test_inverse_pair(self, v):
        f = h_seq([X(1), X(2)])
        assert eval_delta([(t1, 1), (t1, -1)], f, v) == f.eval(v)
        assert eval_delta([(t1, -1), (t1, 1)], f, v) == f.eval(v)

    @pytest.mark.parametrize("v", range(-3, 7))
    def test_operators_commute(self, v):
        t2 = as_poly(T(2))
        f = h_seq([X(1)])
        a = eval_delta([(t1, 1), (t2, 1)], f, v)
        b = eval_delta([(t2, 1), (t1, 1)], f, v)
        assert a == b

    def test_closed_forms_match_step_evaluation(self):
        ts = [as_poly(T(i)) for i in (1, 2, 3)]
        f = h_seq([X(1), X(2)])
        for v in range(-2, 5):
            got_f = forward_closed(ts, f, v)
            want_f = eval_delta([(ts[2], 1), (ts[1], 1), (ts[0], 1)], f, v)
            assert got_f == want_f
            got_i = inverse_closed(ts, f, v)
            want_i = eval_delta([(ts[2], -1), (ts[1], -1), (ts[0], -1)], f, v)
            assert got_i == want_i

    def test_e_short_support(self):
        f = e_short_seq(X(1))
        assert f.eval(0) == Polynomial.one()
        assert f.eval(1) == x1
        assert f.eval(2).is_zero() and f.eval(-1).is_zero()

    def test_convolution_of_h_sequences(self):
        from grothlab.polynomial import hk

        f, g = h_seq([X(1)]), h_seq([X(2)])
        for v in range(0, 5):
            assert convolve_eval(f, g, v) == hk(v, [X(1), X(2)])


class TestOneVariableLemmas:
    def test_h_version_sweep(self):
        shapes = subpartitions((3, 3, 3))
        for la in shapes:
            for mu in shapes:
                assert verify_one_variable_lemma(la, mu, 3), (la, mu)

    def test_e_version_sweep(self):
        shapes = subpartitions((3, 3, 3))
        for la in shapes:
            for mu in shapes:
                assert verify_one_variable_e(la, mu, 3), (la, mu)

    def test_equal_shapes_give_one(self):
        ts = [as_poly(T(i)) for i in (1, 2, 3)]
        assert one_variable_det((2, 1), (2, 1), 3, X(1), ts) == Polynomial.one()
        assert one_variable_factorized((2, 1), (2, 1), 3, X(1), ts) == Polynomial.one()

    def test_factor_structure_when_interlacing_fails(self):
        # l = 2 with la_2 < mu_1: both sides carry v(la_1 - max(mu_1, la_2))
        ts = [as_poly(T(i)) for i in (1, 2)]
        la, mu = (4, 1), (2,)
        det = one_variable_det(la, mu, 2, X(1), ts)
        fac = one_variable_factorized(la, mu, 2, X(1), ts)
        assert det == fac
        assert fac == x1 ** 3  # v(4 - max(2,1)) * v(1 - 0), no t factor

    def test_factorized_is_zero_unless_contained(self):
        # mu has more rows than la, yet no factor of the product has a
        # negative exponent, so only the containment check gives 0
        assert one_variable_factorized((2,), (1, 1), 1, X(1), []) == Polynomial.zero()


class TestSkewJacobiTrudi:
    def test_straight_shape_matches_jt(self):
        from grothlab.symfunc import dual_grothendieck

        assert skew_jt_h((2, 1), (), 2) == dual_grothendieck((2, 1), 2)

    def test_sweep_h_and_e(self):
        for la in subpartitions((3, 3, 3)):
            for mu in subpartitions(la):
                if not contains(la, mu):
                    continue
                rpp = skew_dual_grothendieck(la, mu, 2, route="rpp")
                assert skew_jt_h(la, mu, 2) == rpp, (la, mu)
                assert skew_jt_e(la, mu, 2) == rpp, (la, mu)

    def test_small_skew(self):
        got = skew_jt_h((2, 2), (1,), 2)
        assert got == skew_dual_grothendieck((2, 2), (1,), 2)

    def test_trivial(self):
        assert skew_jt_h((2, 1), (2, 1), 3) == Polynomial.one()
        assert skew_jt_e((2, 1), (2, 1), 3) == Polynomial.one()


class TestConvolutionIdentity:
    def test_l1_associativity(self):
        f, g = h_seq([X(1)]), h_seq([X(2)])
        assert verify_convolution(f, g, (2,), (), 1)

    def test_l2(self):
        f, g = h_seq([X(1)]), h_seq([X(2)])
        assert verify_convolution(f, g, (2, 1), (), 2)

    def test_l2_skew(self):
        f, g = h_seq([X(1)]), h_seq([X(2)])
        assert verify_convolution(f, g, (2, 2), (1,), 2)

    def test_chaining_matches_two_variable_determinant(self):
        # chaining single-variable determinants equals the two-variable one
        got = skew_jt_h((2, 1), (), 2)
        assert got == skew_dual_grothendieck((2, 1), (), 2, route="one_var_chain")


class TestCdfDeterminants:
    def test_three_way_symbolic(self):
        a = lpp_cdf_det(2, 2, 2)
        b = lpp_cdf_schur(2, 2, 2)
        c = lpp_cdf_schur_measure_sum(2, 2, 2)
        assert a == b == c

    def test_l1_reduction(self):
        assert lpp_cdf_det(1, 2, 3) == lpp_cdf_schur(1, 2, 3)

    def test_m_zero(self):
        # only the empty shape contributes
        assert lpp_cdf_det(2, 2, 0) == lpp_cdf_schur_measure_sum(2, 2, 0)

    def test_summation_identity(self):
        assert verify_summation_identity(1, 1, 2)
        assert verify_summation_identity(2, 2, 2)

    def test_generalized_cauchy(self):
        assert verify_generalized_cauchy_det(2, 2, 2)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_expansion_det(self, l):
        assert verify_expansion_det(l)


class TestSchurReductions:
    def test_all_tuples(self):
        for nu in product(range(0, 4), repeat=2):
            assert det_delta_h_rows(nu, 2, 2) == schur_reduction_h_rows(nu, 2, 2)
            assert det_h_tinv(nu, 2, 2) == schur_reduction_skew_t(nu, 2, 2)

    def test_repeats_vanish(self):
        assert det_delta_h_rows((2, 2), 2, 2).is_zero()
        assert det_h_tinv((1, 1), 2, 2).is_zero()

    def test_paper_sign_example(self):
        from grothlab.symfunc import schur

        got = det_delta_h_rows((10, 2, 7), 3, 3)
        assert got == -schur((8, 6, 2), [X(1), X(2), X(3)])

    def test_inversion_count(self):
        assert inversions((10, 2, 7)) == 1
        assert inversions((3, 2, 1)) == 0


class TestTransitionDeterminants:
    @pytest.mark.parametrize("version", ["h", "e"])
    def test_matches_skew_g(self, version):
        la, mu, l, n = (2, 1), (1,), 2, 2
        tp = transition_prob_det(la, mu, l, n, version=version)
        tinv = [as_poly(T(i)) ** -1 for i in range(1, l)]
        g = skew_dual_grothendieck(la, mu, n, t_atoms=tinv, route="rpp")
        want = g
        for i in range(1, l + 1):
            d = (la + (0,) * l)[i - 1] - (mu + (0,) * l)[i - 1]
            want = want * as_poly(T(i)) ** d
        for i in range(1, l + 1):
            for j in range(1, n + 1):
                want = want * (1 - as_poly(T(i)) * as_poly(X(j)))
        assert tp == want

    def test_trivial_la_eq_mu(self):
        tp = transition_prob_det((2, 1), (2, 1), 2, 2)
        want = Polynomial.one()
        for i in (1, 2):
            for j in (1, 2):
                want = want * (1 - as_poly(T(i)) * as_poly(X(j)))
        assert tp == want

    def test_h_equals_e_version(self):
        for la, mu in [((2, 1), ()), ((2, 2), (1,)), ((3, 1), (1,))]:
            a = transition_prob_det(la, mu, 2, 2, version="h")
            b = transition_prob_det(la, mu, 2, 2, version="e")
            assert a == b, (la, mu)
