import pytest

from grothlab import vertex
from grothlab.polynomial import BETA, Polynomial, PolyMatrix, T, X, Z, as_poly
from grothlab.shapes import enumerate_partitions_in_box
from grothlab.symfunc import dual_grothendieck, grothendieck
from grothlab.vertex import (
    BUNDLED_FAMILIES,
    JaggedModel,
    RowSpec,
    alt_fermionic_shape_component,
    apply_to_basis,
    build_alt_fermionic,
    build_beta_model,
    build_dualg_model,
    build_g_model,
    check_ybe,
    compose,
    enumerate_states,
    lmatrix_fermionic,
    lmatrix_g_jagged,
    lmatrix_nilp,
    operator_route_dualg,
    partition_function,
    rmatrix_nilp,
    row_operator,
    set_valued_elegant_expansion,
    verify_operator_relations,
    _mat_eq,
    _mat_sub,
    _scale,
)

zero, one = Polynomial.zero(), Polynomial.one()

# Paths of this L-matrix merge: from aux 0 a column fed 0 may leave aux 0 or 1.
MERGING_L = lmatrix_nilp().perturbed((0, 0, 0, 1), as_poly(Z(1)) + 1)
KERNEL_LMATRICES = [fac[0]() for _, fac in sorted(BUNDLED_FAMILIES.items())] + [MERGING_L]


def _dense_row_operator(kind, z, m, L):
    """One path at a time per input, every L key scanned per column."""
    aux_in, aux_out = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}[kind]
    weights = L.specialize(as_poly(z))
    dim = 1 << m
    grid = [[zero] * dim for _ in range(dim)]
    for idx in range(dim):
        frontier = [(aux_in, 0, one)]
        for c in range(m):
            frontier = [(ao, top | qo << c, w * wt)
                        for aux, top, w in frontier
                        for (ai, qi, qo, ao), wt in weights.items()
                        if ai == aux and qi == idx >> c & 1]
        for aux, top, w in frontier:
            if aux == aux_out:
                grid[top][idx] = grid[top][idx] + w
    return grid


class TestYangBaxter:
    @pytest.mark.parametrize("family", sorted(BUNDLED_FAMILIES))
    def test_bundled_families(self, family):
        lfac, rfac = BUNDLED_FAMILIES[family]
        assert check_ybe(lfac(), rfac()).ok

    def test_perturbed_negative_control(self):
        bad = lmatrix_nilp().perturbed((0, 1, 1, 0), as_poly(Z(1)) + 1)
        rep = check_ybe(bad, rmatrix_nilp())
        assert not rep.ok
        boundary, lhs, rhs = rep.failures[0]
        assert len(boundary) == 6 and lhs != rhs

    def test_mixed_lmatrix_pairs_fail_as_expected(self):
        # the NILP R-matrix does not intertwine the fermionic L with itself
        rep = check_ybe(lmatrix_fermionic(), rmatrix_nilp())
        assert not rep.ok


class TestPartitionFunctions:
    def test_dualg_models_match_polynomial_routes(self):
        for la in enumerate_partitions_in_box(3, 3):
            model = build_dualg_model(la, 3)
            assert partition_function(model) == dual_grothendieck(la, 3), la

    def test_dualg_small_example(self):
        model = build_dualg_model((2, 1), 2)
        assert partition_function(model) == dual_grothendieck((2, 1), 2, [T(1)])

    def test_empty_grid(self):
        model = JaggedModel((), frozenset(), frozenset())
        assert partition_function(model) == one

    def test_inconsistent_boundary_is_zero(self):
        # a single NILP row with a 1 entering the bottom but no exit
        model = JaggedModel(
            (RowSpec(2, lmatrix_nilp(), as_poly(X(1))),),
            frozenset({1}), frozenset())
        assert partition_function(model) == zero

    def test_g_models_match_polynomial_routes(self):
        for la in enumerate_partitions_in_box(3, 3):
            model = build_g_model(la, 3)
            assert partition_function(model) == grothendieck(la, 3), la

    def test_g_model_single_row(self):
        model = build_g_model((2,), 3)
        assert partition_function(model) == grothendieck((2,), 3)

    def test_beta_model_matches_grothendieck(self):
        b = as_poly(BETA)
        for la, n, k in [((1,), 2, 2), ((2, 1), 2, 2), ((2, 1), 3, 3)]:
            model = build_beta_model(la, n, k, beta=-b)
            want = grothendieck(la, n, [b] * (n - 1))
            assert partition_function(model) == want

    def test_train_argument_swap_invariance(self):
        # swapping adjacent x spectral parameters leaves Z fixed
        model = build_dualg_model((2, 1), 3)
        Zval = partition_function(model)
        swapped = Zval.substitute({X(1): as_poly(X(2)), X(2): as_poly(X(1))})
        assert swapped == Zval

    def test_path_conservation(self):
        model = build_dualg_model((2, 1), 2)
        for weight, grids in enumerate_states(model):
            for grid in grids:
                for _, (ai, qi, qo, ao) in grid:
                    assert ai + qi == qo + ao  # per-vertex conservation


class TestRowKernel:
    @pytest.mark.parametrize("L", KERNEL_LMATRICES, ids=lambda L: L.name)
    @pytest.mark.parametrize("kind", "ABCD")
    def test_row_operator_matches_dense_sweep(self, L, kind):
        for m in range(1, 5):
            got = row_operator(kind, Z(2), m, L)
            assert got.entries == _dense_row_operator(kind, Z(2), m, L), m

    def test_merging_lmatrix_merges(self):
        # two paths end at aux 1 with top 00: the entry is their sum
        z = as_poly(Z(1))
        assert row_operator("C", Z(1), 2, MERGING_L)[0, 0] == (z + 1) * z + (z + 1)

    @pytest.mark.parametrize("model", [
        build_dualg_model((2, 1), 2),
        build_dualg_model((2, 2, 1), 2),
        build_g_model((2, 1), 2),
        build_g_model((2, 2), 3),
        build_beta_model((2, 1), 2, 2, beta=-as_poly(BETA)),
        build_beta_model((1,), 3),
        build_alt_fermionic(2, 2, 2, beta=0),
        build_alt_fermionic(2, 1, 1),
    ], ids=lambda m: f"{m.rows[0].lmatrix.name}-{len(m.rows)}x{m.rows[0].length}")
    def test_partition_function_matches_state_sum(self, model):
        states = [w for w, _ in enumerate_states(model)]
        assert states
        assert partition_function(model) == Polynomial.sum(states)


class TestAltFermionic:
    def test_beta_zero_total(self):
        n, m, l = 2, 2, 2
        model = build_alt_fermionic(n, m, l, beta=0)
        got = partition_function(model)
        want = zero
        for la in enumerate_partitions_in_box(l, m):
            w = one
            for i in range(1, l + 1):
                w = w * as_poly(T(i)) ** (m - (la[i - 1] if i - 1 < len(la) else 0))
            want = want + w * dual_grothendieck(la, n, [T(1)])
        assert got == want

    def test_beta_zero_components(self):
        n, m, l = 2, 2, 2
        model = build_alt_fermionic(n, m, l, beta=0)
        for la in enumerate_partitions_in_box(l, m):
            comp = alt_fermionic_shape_component(model, la, n, l)
            w = one
            for i in range(1, l + 1):
                w = w * as_poly(T(i)) ** (m - (la[i - 1] if i - 1 < len(la) else 0))
            assert comp == w * dual_grothendieck(la, n, [T(1)]), la

    def test_empty_shape_component_is_pure_t(self):
        n, m, l = 2, 2, 2
        model = build_alt_fermionic(n, m, l, beta=0)
        comp = alt_fermionic_shape_component(model, (), n, l)
        assert comp == Polynomial.monomial([(T(1), m), (T(2), m)])

    def test_set_valued_expansion_beta_zero(self):
        for la in [(1,), (2, 1), (2, 2)]:
            expanded = set_valued_elegant_expansion(la, 2)
            assert expanded.substitute({BETA: 0}) == dual_grothendieck(la, 2)

    def test_set_valued_expansion_schur_positive(self):
        # with the extra entries weighted t^T beta^extra and G at t = -beta,
        # every Schur coefficient of the expansion is a positive polynomial
        from grothlab.symfunc import schur
        from grothlab.shapes import subpartitions

        for la in [(2, 1), (2, 2)]:
            rem = set_valued_elegant_expansion(la, 2)
            for d in range(0, 11):
                for mu in subpartitions((10, 10)):
                    if sum(mu) != d or len(mu) > 2:
                        continue
                    a = mu[0] if mu else 0
                    b = mu[1] if len(mu) > 1 else 0
                    coeff_terms = {}
                    for mono, co in rem.terms.items():
                        dd = dict(mono)
                        if dd.get(X(1).code, 0) == a and dd.get(X(2).code, 0) == b:
                            rest = tuple((c0, e) for c0, e in mono
                                         if c0 not in (X(1).code, X(2).code))
                            coeff_terms[rest] = coeff_terms.get(rest, 0) + co
                    coeff = Polynomial(coeff_terms)
                    if coeff.is_zero():
                        continue
                    assert all(c > 0 for c in coeff.terms.values()), (mu, coeff)
                    rem = rem - coeff * schur(mu, [X(1), X(2)])
            assert rem.is_zero()


class TestRowOperators:
    def test_a_on_vacuum(self):
        op = row_operator("A", Z(1), 4)
        assert apply_to_basis(op, (0, 0, 0, 0)) == {(0, 0, 0, 0): one}

    def test_d_on_vacuum_scales(self):
        op = row_operator("D", Z(1), 4)
        z = as_poly(Z(1))
        assert apply_to_basis(op, (0, 0, 0, 0)) == {(0, 0, 0, 0): z ** 4}

    def test_operator_route_matches_transfer(self):
        for la, n in [((2, 1), 2), ((2, 2, 1), 2), ((3, 2, 1), 3), ((3, 3, 2), 3)]:
            assert operator_route_dualg(la, n) == dual_grothendieck(la, n)

    def test_compose(self):
        a = row_operator("A", Z(1), 2)
        b = row_operator("B", Z(2), 2)
        ab = compose([a, b])
        assert ab.rows == ab.cols == 4


class TestOperatorRelations:
    @pytest.mark.parametrize("family", ["AB", "BD"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_families_small(self, family, m):
        rep = verify_operator_relations(family, m)
        assert rep.ok, rep.results

    @pytest.mark.parametrize("family", ["AB", "BD"])
    def test_families_m5(self, family):
        rep = verify_operator_relations(family, 5)
        assert rep.ok, rep.results

    def test_a_tilde_symmetry(self):
        rep = verify_operator_relations("A_tilde_symmetry", 4)
        assert rep.ok, rep.results

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify_operator_relations("XY", 2)

    @pytest.mark.parametrize("family", ["AB", "BD"])
    def test_perturbed_operators_fail(self, family, monkeypatch):
        bad = lmatrix_nilp().perturbed((0, 1, 1, 0), as_poly(Z(1)) + 1)
        built = vertex.row_operator
        monkeypatch.setattr(vertex, "row_operator",
                            lambda kind, z, m, lmatrix=None: built(kind, z, m, bad))
        rep = verify_operator_relations(family, 3)
        assert not rep.ok, rep.results

    def test_mat_eq_sees_one_sided_entries(self):
        x = as_poly(X(1))
        a = PolyMatrix([[zero, x], [zero, zero]])
        b = PolyMatrix([[zero, zero], [zero, zero]])
        assert not _mat_eq(a, b) and not _mat_eq(b, a)
        assert not _mat_eq(a, PolyMatrix([[zero, x], [x - x, x]]))
        assert _mat_eq(a, PolyMatrix([[zero, x], [x - x, zero]]))
        assert not _mat_eq(a, PolyMatrix([[zero, x]]))

    def test_sub_and_scale_with_zero_entries(self):
        x, t = as_poly(X(1)), as_poly(T(1))
        a = PolyMatrix([[zero, x], [t, zero]])
        b = PolyMatrix([[x, x], [zero, zero]])
        assert _mat_sub(a, b).entries == [[-x, zero], [t, zero]]
        assert _mat_sub(b, a).entries == [[x, zero], [-t, zero]]
        assert _scale(a, t).entries == [[zero, x * t], [t * t, zero]]


class TestSerialization:
    def test_model_json(self):
        model = build_dualg_model((2, 1), 2)
        obj = model.to_json_obj()
        assert obj["rows"][0]["lmatrix"] == "nilp"
        assert obj["bottom_ones"] == [1, 2]
        assert sorted(obj["top_ones"]) == [2, 4]

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            JaggedModel((RowSpec(2, lmatrix_nilp(), as_poly(X(1))),
                         RowSpec(3, lmatrix_nilp(), as_poly(X(2)))),
                        frozenset(), frozenset())
