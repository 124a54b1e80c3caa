import hashlib
import inspect
from fractions import Fraction

import pytest

from grothlab.polynomial import BETA, GAMMA, Polynomial, T, X, Y, as_poly
from grothlab.shapes import enumerate_partitions_in_box, subpartitions
from grothlab.symfunc import (
    E_coeff,
    ROUTES,
    dual_grothendieck,
    e_coeff,
    flagged_schur,
    g_jt_h,
    grothendieck,
    grothendieck_multischur,
    multi_schur,
    p_coeff,
    schur,
    skew_dual_grothendieck,
    verify_identity,
    verify_symmetry,
)

x1, x2, x3 = (as_poly(X(i)) for i in (1, 2, 3))
t1, t2, t3 = (as_poly(T(i)) for i in (1, 2, 3))
XS2 = [X(1), X(2)]
XS3 = [X(1), X(2), X(3)]


def paper_g221():
    return (x1 ** 2 * x2 ** 2 * x3 + x1 ** 2 * x2 * x3 ** 2 + x1 * x2 ** 2 * x3 ** 2
            + (t1 + t2) * (x1 ** 2 * x2 ** 2 + x1 ** 2 * x3 ** 2 + x2 ** 2 * x3 ** 2
                           + x1 ** 2 * x2 * x3 + x1 * x2 ** 2 * x3 + x1 * x2 * x3 ** 2)
            + t1 * (x1 ** 2 * x2 * x3 + x1 * x2 ** 2 * x3 + x1 * x2 * x3 ** 2)
            + t1 * (t1 + t2) * (x1 ** 2 * x2 + x1 ** 2 * x3 + x2 ** 2 * x3
                                + x1 * x2 ** 2 + x1 * x3 ** 2 + x2 * x3 ** 2
                                + 2 * x1 * x2 * x3)
            + t1 ** 2 * t2 * (x1 ** 2 + x2 ** 2 + x3 ** 2 + x1 * x2 + x1 * x3 + x2 * x3))


def paper_G21(n=3):
    xs = [X(i) for i in range(1, n + 1)]
    s = lambda mu: schur(mu, xs)
    return (s((2, 1)) - t1 * s((2, 2)) - (t1 + t2) * s((2, 1, 1))
            + (t1 * t1 + t1 * t2) * s((2, 2, 1)) - t1 ** 2 * t2 * s((2, 2, 2)))


class TestSchur:
    def test_empty(self):
        assert schur((), XS2) == Polynomial.one()

    def test_21_two_vars(self):
        assert schur((2, 1), XS2) == x1 ** 2 * x2 + x1 * x2 ** 2

    def test_routes_agree(self):
        for la in subpartitions((3, 2)):
            assert schur(la, XS3, "combinatorial") == schur(la, XS3, "jacobi_trudi")

    def test_skew(self):
        got = schur((2, 2), XS2, inner=(1,))
        want = schur((2, 2), XS2, "combinatorial", inner=(1,))
        assert got == want

    def test_flagged_matches_g(self):
        # g_la(x; t) is the flagged Schur function with flags (n, n+1, ...)
        for la in [(2, 1), (2, 2), (3, 1)]:
            l, n = len(la), 2
            atoms = [X(1), X(2), T(1)]
            flags = [n + i for i in range(l)]
            assert flagged_schur(la, flags, atoms) == dual_grothendieck(la, n)

    def test_flagged_routes(self):
        atoms = [X(1), X(2), X(3)]
        assert (flagged_schur((2, 1), [1, 2], atoms)
                == flagged_schur((2, 1), [1, 2], atoms, "combinatorial"))


class TestMultiSchur:
    def test_empty(self):
        assert multi_schur([], []) == Polynomial.one()

    def test_single_row_is_h(self):
        from grothlab.polynomial import hk

        assert multi_schur([3], [(XS2, [])]) == hk(3, XS2)

    def test_rect_coincidence(self):
        # s_{m^l}(x, t) = g_{m^l}(x; t) for m = l = n = 2
        got = schur((2, 2), [X(1), X(2), T(1)])
        assert got == dual_grothendieck((2, 2), 2)


class TestCoefficients:
    def test_e_trivial(self):
        assert e_coeff((2, 1), (2, 1)) == Polynomial.one()
        assert e_coeff((2, 1), (3,)).is_zero()

    def test_E_from_G21(self):
        # coefficient of s_22 in G_21 is -t1, so E with positive t is t1
        assert E_coeff((2, 1), (2, 2)) == t1
        assert E_coeff((2, 1), (2, 2), negate=True) == -t1

    def test_p_trivial(self):
        assert p_coeff((2, 1), (2, 1), [T(1), T(2)]) == Polynomial.one()

    def test_p_single_box(self):
        # nu = (1), la = (): the determinant is h_1(t_m..t_1)
        assert p_coeff((1,), (), [T(1), T(2), T(3)]) == t1 + t2 + t3

    def test_p_routes_agree_everywhere(self):
        ts = [T(1), T(2), T(3)]
        for nu in subpartitions((3, 3)):
            for la in subpartitions(nu):
                p_coeff(nu, la, ts)  # asserts internally


class TestDualGrothendieck:
    def test_paper_g221_all_routes(self):
        want = paper_g221()
        for route in ROUTES["g"]:
            assert dual_grothendieck((2, 2, 1), 3, route=route) == want

    def test_paper_g221_two_vars(self):
        want = ((t1 + t2) * x1 ** 2 * x2 ** 2
                + t1 * (t1 + t2) * (x1 * x2 ** 2 + x1 ** 2 * x2)
                + t1 ** 2 * t2 * (x1 ** 2 + x1 * x2 + x2 ** 2))
        assert dual_grothendieck((2, 2, 1), 2) == want

    def test_empty(self):
        assert dual_grothendieck((), 2) == Polynomial.one()

    def test_single_box(self):
        assert dual_grothendieck((1,), 2) == x1 + x2

    def test_t_zero_specializes_to_schur(self):
        g = dual_grothendieck((2, 2, 1), 3)
        s = g.substitute({T(1): 0, T(2): 0})
        assert s == schur((2, 2, 1), XS3, "combinatorial")

    def test_route_agreement_box(self):
        for la in enumerate_partitions_in_box(3, 3):
            if not la:
                continue
            base = dual_grothendieck(la, 2, route="rpp")
            for route in list(ROUTES["g"])[1:]:
                assert dual_grothendieck(la, 2, route=route) == base

    def test_beta_specialization_routes_agree(self):
        b = as_poly(BETA)
        for la in [(2, 1), (2, 2, 1)]:
            vals = [dual_grothendieck(la, 2, [b, b], route=r) for r in ROUTES["g"]]
            assert all(v == vals[0] for v in vals)

    def test_symmetric_in_x(self):
        for la in enumerate_partitions_in_box(3, 3):
            g = dual_grothendieck(la, 3)
            assert g.is_symmetric_under_swap(X(1), X(2))
            assert g.is_symmetric_under_swap(X(2), X(3))


class TestGJtH:
    """g_jt_h with atoms in both slots against the jt_e route with x_i and
    t_i substituted by the same atoms."""

    SHAPES = [(1,), (2, 1), (1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]
    X_ATOMS = [
        [X(1), X(2), GAMMA],
        [Y(1), Y(2)],
        [Fraction(1, 2), Fraction(-2, 3)],
        [t1 ** -1, t2 ** -1],
    ]

    @staticmethod
    def t_atom_lists(l):
        ts = [as_poly(T(i)) for i in range(1, l)]
        return [ts[::-1], [as_poly(GAMMA)] + ts, [t ** -1 for t in ts]]

    def test_against_substituted_jt_e(self):
        for la in self.SHAPES:
            l = len(la)
            for xa in self.X_ATOMS:
                g = dual_grothendieck(la, len(xa), route="jt_e")
                for ta in self.t_atom_lists(l):
                    bind = {X(i): as_poly(a) for i, a in enumerate(xa, 1)}
                    bind.update({T(i): ta[i - 1] for i in range(1, l)})
                    assert g_jt_h(la, xa, ta) == g.substitute(bind), (la, xa, ta)

    def test_empty_shape_and_short_t_atoms(self):
        assert g_jt_h((), [X(1)], []) == Polynomial.one()
        with pytest.raises(ValueError):
            g_jt_h((2, 1, 1), [X(1)], [T(1)])


class TestSkewDualGrothendieck:
    def test_trivial(self):
        assert skew_dual_grothendieck((2, 1), (2, 1), 2) == Polynomial.one()

    def test_single_variable_example(self):
        # shape (2,1)/(1) with one variable: the unique all-1 filling has two
        # occupied columns and no vertical repeats, so the weight is x^2
        got = skew_dual_grothendieck((2, 1), (1,), 1)
        assert got == x1 ** 2

    def test_one_var_chain_route(self):
        for outer in subpartitions((2, 2, 1)):
            for inner in subpartitions(outer):
                a = skew_dual_grothendieck(outer, inner, 2, route="rpp")
                b = skew_dual_grothendieck(outer, inner, 2, route="one_var_chain")
                assert a == b, (outer, inner)

    def test_branching_chain_consistency(self):
        # one-variable factorized product chained over x1, x2 equals the sum
        got = skew_dual_grothendieck((2, 1), (1, 1), 1)
        from grothlab.diffops import one_variable_factorized

        want = one_variable_factorized((2, 1), (1, 1), 2, X(1), [t1, t2])
        assert got == want


class TestGrothendieck:
    def test_paper_G21_all_routes(self):
        want = paper_G21()
        for route in ROUTES["G"]:
            assert grothendieck((2, 1), 3, route=route) == want
        assert grothendieck_multischur((2, 1), 3) == want

    def test_G2_divided_difference(self):
        got = grothendieck((2,), 3, route="divided_diff")
        s = lambda mu: schur(mu, XS3)
        assert got == s((2,)) - t1 * s((2, 1)) + t1 ** 2 * s((2, 1, 1))

    def test_t_zero_is_schur(self):
        G = grothendieck((2, 1), 3)
        assert G.substitute({T(1): 0, T(2): 0}) == schur((2, 1), XS3)

    def test_G211_five_vars(self):
        xs = [X(i) for i in range(1, 6)]
        ts = [T(i) for i in range(1, 5)]
        got = grothendieck((2, 1, 1), 5, ts)
        s = lambda mu: schur(mu, xs)
        e1_123 = t1 + t2 + t3
        e2ish = schur((2,), [T(1), T(2), T(3)])
        s1_23 = t2 + t3
        s2_23 = schur((2,), [T(2), T(3)])
        # the s_22221 coefficient is -t1^3 (s_2(t2,t3) + t1 s_1(t2,t3)),
        # confirmed by enumerating the increasing elegant tableaux of
        # (2,2,2,2,1)/(2,1,1) and by the set-valued route
        want = (s((2, 1, 1)) - e1_123 * s((2, 1, 1, 1)) + e2ish * s((2, 1, 1, 1, 1))
                - t1 * (s((2, 2, 1)) - e1_123 * s((2, 2, 1, 1)) + e2ish * s((2, 2, 1, 1, 1)))
                + t1 ** 2 * (s((2, 2, 2)) - e1_123 * s((2, 2, 2, 1)) + e2ish * s((2, 2, 2, 1, 1)))
                - t1 ** 3 * (-s1_23 * s((2, 2, 2, 2))
                             + (s2_23 + t1 * s1_23) * s((2, 2, 2, 2, 1)))
                + t1 ** 4 * s2_23 * s((2, 2, 2, 2, 2)))
        assert got == want
        assert got == grothendieck((2, 1, 1), 5, ts, route="svt")
        assert got.is_symmetric_under_swap(T(2), T(3))
        assert got.is_symmetric_under_swap(T(4), T(5))  # t4, t5 absent

    def test_route_agreement_box_n3(self):
        for la in enumerate_partitions_in_box(3, 3):
            if not la:
                continue
            base = grothendieck(la, 3, route="svt")
            for route in list(ROUTES["G"])[1:]:
                assert grothendieck(la, 3, route=route) == base, (la, route)



class TestRouteTable:
    def test_names_and_order(self):
        # the first route of each object is its tableau enumeration
        assert list(ROUTES["g"]) == ["rpp", "schur_decomp", "jt_h", "jt_e", "multischur"]
        assert list(ROUTES["skew_g"]) == ["rpp", "one_var_chain"]
        assert list(ROUTES["G"]) == ["svt", "schur_expansion", "jacobi_trudi", "divided_diff"]

    @pytest.mark.parametrize("fn, obj", [(dual_grothendieck, "g"), (grothendieck, "G"),
                                         (skew_dual_grothendieck, "skew_g")])
    def test_default_route_is_listed(self, fn, obj):
        assert inspect.signature(fn).parameters["route"].default in ROUTES[obj]

    @pytest.mark.parametrize("call", [
        lambda: dual_grothendieck((), 2, route="bogus"),
        lambda: dual_grothendieck((2, 1), 2, route="bogus"),
        lambda: grothendieck((), 2, route="bogus"),
        lambda: grothendieck((2, 1, 1), 2, route="bogus"),  # len(la) > n
        lambda: skew_dual_grothendieck((), (), 2, route="bogus"),
        lambda: skew_dual_grothendieck((2, 1), (1,), 2, route="bogus"),
    ], ids=["g_empty", "g_21", "G_empty", "G_taller_than_n", "skew_empty", "skew_21_1"])
    def test_unknown_route_raises_before_any_early_return(self, call):
        with pytest.raises(ValueError, match="unknown (g|G|skew g) route 'bogus'"):
            call()

class TestPaperG4422:
    def test_schur_decomposition_example(self):
        xs5 = [X(i) for i in range(1, 6)]
        atoms = xs5 + [T(1)]
        s = lambda mu: schur(mu, atoms)
        want = (s((4, 4, 2, 2)) + (t2 + t3) * s((4, 4, 2, 1))
                + (t2 ** 2 + t2 * t3 + t3 ** 2) * s((4, 4, 2))
                + t2 * t3 * s((4, 4, 1, 1))
                + (t2 ** 2 * t3 + t2 * t3 ** 2) * s((4, 4, 1))
                + t2 ** 2 * t3 ** 2 * s((4, 4)))
        got = dual_grothendieck((4, 4, 2, 2), 5, route="schur_decomp")
        assert got == want
        assert got.is_symmetric_under_swap(T(2), T(3))


class TestIdentities:
    def test_cauchy(self):
        assert verify_identity("cauchy", m=3, l=2, n=2).holds

    def test_littlewood(self):
        assert verify_identity("littlewood", m=4, l=3, n=2).holds

    def test_littlewood_requires_wide_box(self):
        with pytest.raises(ValueError):
            verify_identity("littlewood", m=2, l=3, n=2)

    def test_coincidence(self):
        assert verify_identity("coincidence", m=3, l=3, n=2).holds
        # m = l = 1: s_(1)(x, nothing extra) vs g_(1)
        assert verify_identity("coincidence", m=1, l=1, n=1).holds

    def test_branching_box(self):
        for la in enumerate_partitions_in_box(3, 3):
            if not la:
                continue
            assert verify_identity("branching", la=la, n=2).holds, la

    def test_generalized_coincidence_box(self):
        for nu in enumerate_partitions_in_box(3, 3):
            if not nu:
                continue
            assert verify_identity("generalized_coincidence", nu=nu, m=3, n=2).holds

    def test_symmetry(self):
        rep = verify_symmetry((3, 2, 2), 3)
        assert rep.holds and any("t1<->t2: ok" in n for n in rep.notes)
        rep = verify_symmetry((2, 2, 1), 3)
        assert rep.holds  # the i=1 case is recorded, not asserted
        assert any("recorded" in n for n in rep.notes)

    def test_duality_box(self):
        shapes = enumerate_partitions_in_box(3, 3)
        for la in shapes:
            for mu in shapes:
                assert verify_identity("duality", la=la, mu=mu, box=(3, 3)).holds

    def test_duality_needs_mu_in_the_box(self):
        with pytest.raises(ValueError, match="inside the 3 x 3 box"):
            verify_identity("duality", la=(), mu=(4,), box=(3, 3))
        with pytest.raises(ValueError, match="inside the 3 x 3 box"):
            verify_identity("duality", la=(), mu=(1, 1, 1, 1), box=(3, 3))

    @pytest.mark.parametrize("name, params, digest", [
        ("littlewood", dict(m=4, l=3, n=2),
         "5c78956f605a374f18f3518a554ee6cdcfaaa516a56bfc374e5663f75c464987"),
        ("cauchy_littlewood_box", dict(m=3, l=2, n=2),
         "67c5daea1dce72fbe3246e76e3c3a8cb6e2f6cd0a222c3dd62ad319a0b499191"),
        ("bounded_cauchy_littlewood", dict(l=2, n=2, degree_cap=8),
         "b69902400fae94a11fef65407fad7c841f3286f8d629341089541189903e9512"),
    ], ids=["littlewood", "cauchy_littlewood_box", "bounded"])
    def test_littlewood_box_sums_are_pinned(self, name, params, digest):
        # sha256 of to_json() of both sides, taken before the three verifiers
        # shared one box sum; each identity holds, so both sides agree
        rep = verify_identity(name, **params)
        for side in (rep.lhs, rep.rhs):
            assert hashlib.sha256(side.to_json().encode()).hexdigest() == digest

    def test_fnr_dual_paper_case(self):
        assert verify_identity("fnr_dual", la=(2, 2, 1), n=3).holds

    def test_fnr_dual_four_vars(self):
        assert verify_identity("fnr_dual", la=(2, 2, 1), n=4).holds

    def test_fnr_G_paper_case(self):
        assert verify_identity("fnr_G", la=(1,), m=4, k=2, n=4).holds

    def test_finite_cauchy(self):
        assert verify_identity("finite_cauchy_schur", m=2, l=2, n=2).holds

    def test_cauchy_littlewood_box(self):
        assert verify_identity("cauchy_littlewood_box", m=3, l=2, n=2).holds

    def test_bounded_cauchy_littlewood(self):
        assert verify_identity("bounded_cauchy_littlewood", l=2, n=2,
                               degree_cap=8).holds

    def test_w_poly_structure(self):
        # W_{10}(x1, x2; t): no single Grothendieck polynomial, but a finite
        # G-combination; at t = 0 it degenerates to the Schur polynomial
        from grothlab.symfunc import w_poly

        got = w_poly((1,), [X(1), X(2)], 4, 2, 4, [t1, t2, t3])
        ts = [T(1), T(2), T(3)]
        G = lambda nu: grothendieck(nu, 2, ts)
        want = (G((1,)) - (t1 + t2) * G((2,)) - (t2 + t3) * G((1, 1))
                + (t1 * t2 + t1 * t3 + t2 ** 2 + t2 * t3) * G((2, 1))
                - t2 ** 2 * t3 * G((2, 2)))
        assert got == want
        zeroed = got.substitute({T(i): 0 for i in (1, 2, 3)})
        assert zeroed == schur((1,), [X(1), X(2)])

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify_identity("nope")


# Non-default t atoms force Polynomial.from_exponent_counts off its direct
# path (plain variables in canonical order) onto the cached-powers path.
T_ATOM_CASES = {
    "reversed": lambda k: [T(i) for i in range(k, 0, -1)],
    "repeated": lambda k: [T(1)] * k,
    "rational": lambda k: [Fraction(i, i + 2) for i in range(1, k + 1)],
    "inverse": lambda k: [as_poly(T(i)) ** -1 for i in range(1, k + 1)],
    "gamma": lambda k: [GAMMA] + [T(i) for i in range(1, k)],
}


class TestTableauSumsWithAtoms:
    @pytest.mark.parametrize("case", sorted(T_ATOM_CASES))
    @pytest.mark.parametrize("la,n", [((2, 1), 2), ((2, 1, 1), 2), ((2, 2, 1), 3)])
    def test_rpp_matches_jt_h(self, case, la, n):
        ts = T_ATOM_CASES[case](len(la) - 1)
        want = dual_grothendieck(la, n, ts, route="jt_h")
        assert dual_grothendieck(la, n, ts, route="rpp") == want
        assert dual_grothendieck(la, n, ts, route="schur_decomp") == want

    @pytest.mark.parametrize("case", sorted(T_ATOM_CASES))
    @pytest.mark.parametrize("la,n", [((2, 1), 3), ((1, 1), 2), ((2, 2, 1), 3)])
    def test_svt_matches_jacobi_trudi(self, case, la, n):
        ts = T_ATOM_CASES[case](n - 1)
        want = grothendieck(la, n, ts, route="jacobi_trudi")
        assert grothendieck(la, n, ts, route="svt") == want
        assert grothendieck(la, n, ts, route="schur_expansion") == want

