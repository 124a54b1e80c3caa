"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is an exact equality of polynomials, rationals, or discrete
structures except the Monte Carlo criterion, which is statistical (4 standard
errors at 10^5 trials).  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import time
from fractions import Fraction

from grothlab.polynomial import T, X, as_poly
from grothlab.shapes import (
    complement,
    conjugate,
    dual,
    enumerate_partitions_in_box,
    subpartitions,
    to_01,
)
from grothlab.symfunc import (
    ROUTES,
    dual_grothendieck,
    grothendieck,
    schur,
    verify_identity,
    verify_symmetry,
)

t1, t2, t3 = (as_poly(T(i)) for i in (1, 2, 3))
x1, x2, x3 = (as_poly(X(i)) for i in (1, 2, 3))


def _report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, criterion


def paper_g221_three_vars():
    return (x1 ** 2 * x2 ** 2 * x3 + x1 ** 2 * x2 * x3 ** 2 + x1 * x2 ** 2 * x3 ** 2
            + (t1 + t2) * (x1 ** 2 * x2 ** 2 + x1 ** 2 * x3 ** 2 + x2 ** 2 * x3 ** 2
                           + x1 ** 2 * x2 * x3 + x1 * x2 ** 2 * x3 + x1 * x2 * x3 ** 2)
            + t1 * (x1 ** 2 * x2 * x3 + x1 * x2 ** 2 * x3 + x1 * x2 * x3 ** 2)
            + t1 * (t1 + t2) * (x1 ** 2 * x2 + x1 ** 2 * x3 + x2 ** 2 * x3
                                + x1 * x2 ** 2 + x1 * x3 ** 2 + x2 * x3 ** 2
                                + 2 * x1 * x2 * x3)
            + t1 ** 2 * t2 * (x1 ** 2 + x2 ** 2 + x3 ** 2
                              + x1 * x2 + x1 * x3 + x2 * x3))


def test_criterion_1_pinned_paper_values():
    start = time.time()
    ok = dual_grothendieck((2, 2, 1), 3) == paper_g221_three_vars()

    two_var = ((t1 + t2) * x1 ** 2 * x2 ** 2
               + t1 * (t1 + t2) * (x1 * x2 ** 2 + x1 ** 2 * x2)
               + t1 ** 2 * t2 * (x1 ** 2 + x1 * x2 + x2 ** 2))
    ok &= dual_grothendieck((2, 2, 1), 2) == two_var

    s3 = lambda mu: schur(mu, [X(1), X(2), X(3)])
    ok &= grothendieck((2, 1), 3) == (
        s3((2, 1)) - t1 * s3((2, 2)) - (t1 + t2) * s3((2, 1, 1))
        + (t1 ** 2 + t1 * t2) * s3((2, 2, 1)) - t1 ** 2 * t2 * s3((2, 2, 2)))

    ok &= grothendieck((2,), 3, route="divided_diff") == (
        s3((2,)) - t1 * s3((2, 1)) + t1 ** 2 * s3((2, 1, 1)))

    s6 = lambda mu: schur(mu, [X(i) for i in range(1, 6)] + [T(1)])
    ok &= dual_grothendieck((4, 4, 2, 2), 5, route="schur_decomp") == (
        s6((4, 4, 2, 2)) + (t2 + t3) * s6((4, 4, 2, 1))
        + (t2 ** 2 + t2 * t3 + t3 ** 2) * s6((4, 4, 2))
        + t2 * t3 * s6((4, 4, 1, 1))
        + (t2 ** 2 * t3 + t2 * t3 ** 2) * s6((4, 4, 1))
        + t2 ** 2 * t3 ** 2 * s6((4, 4)))

    from grothlab.bijections import phi, rsk

    m = ((0, 0, 2, 0), (1, 0, 0, 1), (1, 0, 1, 0))
    P, Q = rsk(m)
    ok &= P == ((1, 1, 3), (3, 3, 4)) and Q == ((1, 1, 2), (2, 3, 3))

    rows = ((1, 1, 4), (1, 3, 4), (3, 3))
    ok &= phi(rows, (3, 3, 2), 3, 4) == ((0, 0, 2, 0), (1, 0, 0, 1), (1, 0, 0, 0))

    ok &= to_01((5, 3, 3), 4, 6) == (1, 0, 0, 0, 1, 1, 0, 0, 1, 0)
    ok &= dual((5, 3, 3), 4, 6) == (4, 3, 3, 1, 1, 1)
    ok &= complement((5, 3, 3), 4, 6) == (6, 3, 3, 1)
    ok &= conjugate((5, 3, 3)) == (3, 3, 3, 1, 1)

    _report("1: pinned paper values", ok, f"{time.time() - start:.1f}s")


def test_criterion_2_route_agreement():
    start = time.time()
    from grothlab.vertex import build_dualg_model, build_g_model, partition_function

    ok = True
    for la in enumerate_partitions_in_box(3, 3):
        if la:
            base = dual_grothendieck(la, 3, route="rpp")
            for route in list(ROUTES["g"])[1:]:
                ok &= dual_grothendieck(la, 3, route=route) == base
            gbase = grothendieck(la, 3, route="svt")
            for route in list(ROUTES["G"])[1:]:
                ok &= grothendieck(la, 3, route=route) == gbase
            ok &= partition_function(build_dualg_model(la, 3)) == base
            ok &= partition_function(build_g_model(la, 3)) == gbase
    elapsed = time.time() - start
    _report("2: route agreement over the 3x3 box, n=3",
            ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_3_identity_suite():
    start = time.time()
    ok = verify_identity("cauchy", m=3, l=2, n=2).holds
    ok &= verify_identity("littlewood", m=4, l=3, n=2).holds
    ok &= verify_identity("coincidence", m=3, l=3, n=2).holds
    for la in enumerate_partitions_in_box(3, 3):
        if la:
            ok &= verify_identity("branching", la=la, n=2).holds
            ok &= verify_symmetry(la, 2).holds
    for nu in enumerate_partitions_in_box(3, 3):
        if nu:
            ok &= verify_identity("generalized_coincidence", nu=nu, m=3, n=2).holds
    shapes = enumerate_partitions_in_box(3, 3)
    for la in shapes:
        for mu in shapes:
            ok &= verify_identity("duality", la=la, mu=mu, box=(3, 3)).holds
    ok &= verify_identity("fnr_dual", la=(2, 2, 1), n=3).holds
    ok &= verify_identity("fnr_dual", la=(2, 2, 1), n=4).holds
    ok &= verify_identity("fnr_G", la=(1,), m=4, k=2, n=4).holds
    ok &= verify_identity("finite_cauchy_schur", m=2, l=2, n=2).holds
    ok &= verify_identity("cauchy_littlewood_box", m=3, l=2, n=2).holds
    ok &= verify_identity("bounded_cauchy_littlewood", l=2, n=2, degree_cap=8).holds
    _report("3: identity suite", ok, f"{time.time() - start:.1f}s")


def test_criterion_4_integrability():
    start = time.time()
    from grothlab.vertex import (
        BUNDLED_FAMILIES,
        check_ybe,
        lmatrix_nilp,
        rmatrix_nilp,
        verify_operator_relations,
    )
    from grothlab.polynomial import Z

    ok = True
    for family, (lfac, rfac) in BUNDLED_FAMILIES.items():
        ok &= check_ybe(lfac(), rfac()).ok
    for m in range(2, 6):
        ok &= verify_operator_relations("AB", m).ok
        ok &= verify_operator_relations("BD", m).ok
    ok &= verify_operator_relations("A_tilde_symmetry", 5).ok
    bad = lmatrix_nilp().perturbed((0, 1, 1, 0), as_poly(Z(1)) + 1)
    rep = check_ybe(bad, rmatrix_nilp())
    ok &= (not rep.ok) and len(rep.failures) > 0 and len(rep.failures[0][0]) == 6
    _report("4: integrability (YBE, operator relations, negative control)",
            ok, f"{time.time() - start:.1f}s")


def test_criterion_5_difference_operators():
    start = time.time()
    from itertools import product

    from grothlab.diffops import (
        det_delta_h_rows,
        det_h_tinv,
        h_seq,
        schur_reduction_h_rows,
        schur_reduction_skew_t,
        skew_jt_e,
        skew_jt_h,
        verify_convolution,
        verify_expansion_det,
        verify_one_variable_e,
        verify_one_variable_lemma,
    )
    from grothlab.shapes import contains
    from grothlab.symfunc import skew_dual_grothendieck

    ok = True
    shapes = subpartitions((3, 3, 3))
    for la in shapes:
        for mu in shapes:
            ok &= verify_one_variable_lemma(la, mu, 3)
            ok &= verify_one_variable_e(la, mu, 3)
    for la in shapes:
        for mu in subpartitions(la):
            if not contains(la, mu):
                continue
            rpp = skew_dual_grothendieck(la, mu, 2, route="rpp")
            ok &= skew_jt_h(la, mu, 2) == rpp
            ok &= skew_jt_e(la, mu, 2) == rpp
    f, g = h_seq([X(1)]), h_seq([X(2)])
    ok &= verify_convolution(f, g, (2,), (), 1)
    ok &= verify_convolution(f, g, (2, 1), (), 2)
    for nu in product(range(0, 4), repeat=2):
        ok &= det_delta_h_rows(nu, 2, 2) == schur_reduction_h_rows(nu, 2, 2)
        ok &= det_h_tinv(nu, 2, 2) == schur_reduction_skew_t(nu, 2, 2)
    for l in (1, 2, 3):
        ok &= verify_expansion_det(l)
    _report("5: difference-operator suite", ok, f"{time.time() - start:.1f}s")


def test_criterion_6_probability():
    start = time.time()
    from grothlab.lpp import (
        GeomParams,
        exact_prob,
        exact_prob_bruteforce,
        lpp_cdf_value_det,
        lpp_cdf_value_schur,
        monte_carlo,
        schur_measure,
        tasep_check,
        tasep_evolution,
        first_passage_times,
        last_passage,
    )
    from grothlab.bijections import phi
    from grothlab.tableaux import enumerate_rpp

    ok = True
    param_sets = [
        GeomParams(t=(Fraction(1, 2), Fraction(1, 3)),
                   x=(Fraction(1, 3), Fraction(1, 4))),
        GeomParams(t=(Fraction(1, 5), Fraction(1, 7)),
                   x=(Fraction(1, 2), Fraction(1, 6))),
    ]
    for params in param_sets:
        for la in enumerate_partitions_in_box(2, 2):
            ok &= exact_prob(la, params) == exact_prob_bruteforce(la, params)

    params = param_sets[0]
    m = 2
    four_way = {
        lpp_cdf_value_det(m, params),
        lpp_cdf_value_schur(m, params),
        sum(schur_measure(la, params) for la in enumerate_partitions_in_box(2, m)),
        sum(exact_prob(la, params) for la in enumerate_partitions_in_box(2, m)),
    }
    ok &= len(four_way) == 1

    mc = monte_carlo((2, 1), params, 100_000, seed=42)
    exact = float(exact_prob((2, 1), params))
    sigma = abs(mc.estimate - exact) / mc.std_error
    ok &= sigma <= 4.0

    rows = ((1, 1, 4), (1, 3, 4), (3, 3))
    history = tasep_evolution(rows, (3, 3, 2), 3, 4, horizon=12)
    ok &= first_passage_times(history, 4, 3) == [6, 8, 9]
    ok &= last_passage(phi(rows, (3, 3, 2), 3)) == (3, 3, 2)
    for la in subpartitions((2, 2)):
        if not la:
            continue
        for n in (1, 2, 3):
            for rpp_rows in enumerate_rpp(la, (), n):
                ok &= tasep_check(rpp_rows, la, len(la), n)
    _report("6: probability (exact, CDF, Monte Carlo, particle bijection)",
            ok, f"{time.time() - start:.1f}s, mc sigma={sigma:.2f}")


def test_criterion_7_bijections():
    start = time.time()
    from grothlab.bijections import (
        crowd,
        deflate,
        inflate,
        left_flank,
        phi,
        phi_inverse,
        psi,
        psi_inverse,
        rsk,
        rsk_inverse,
        uncrowd,
    )
    from grothlab.tableaux import (
        enumerate_rpp,
        enumerate_svt,
        weight_increasing_elegant,
        weight_rpp,
        weight_ssyt,
        weight_svt,
    )
    from grothlab.lpp import last_passage

    ok = True
    for la in subpartitions((3, 2, 1)):
        if not la:
            continue
        l = len(la)
        for n in (1, 2, 3):
            for rows in enumerate_rpp(la, (), n):
                m = phi(rows, la, l, n)
                ok &= phi_inverse(m, la) == rows
                P, Q = rsk(m)
                ok &= rsk_inverse(P, Q, l, n) == m
                dP, dE = deflate(rows, la)
                ok &= inflate(dP, dE, la) == rows
                # inflation = matrix map followed by insertion, as a pair
                mu = tuple(len(r) for r in dP)
                ok &= P == dP
                ok &= len(mu) <= len(la) or not mu
                ok &= left_flank(Q, mu, l) == la
                ok &= psi(Q, mu, la, l) == dE
                ok &= psi_inverse(dE, la, mu, l) == Q
            for svt in enumerate_svt(la, n):
                res = uncrowd(svt)
                ok &= crowd(res) == svt
                sign = (-1) ** sum(len(r) for r in res.recording)
                ok &= weight_svt(svt) == (weight_increasing_elegant(res.recording)
                                          * weight_ssyt(res.insertion) * sign)
    # longest-increasing-subsequence property over 2x3 matrices
    from itertools import product as iproduct

    for entries in iproduct(range(3), repeat=6):
        mat = (entries[:3], entries[3:])
        P, _ = rsk(mat)
        ok &= (len(P[0]) if P else 0) == last_passage(mat)[0]
    _report("7: bijection round trips and weight preservation",
            ok, f"{time.time() - start:.1f}s")
