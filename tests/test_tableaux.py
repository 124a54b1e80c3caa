from grothlab.polynomial import Polynomial, T, X, as_poly
from grothlab.shapes import enumerate_partitions_in_box, subpartitions
from grothlab.tableaux import (
    enumerate_elegant,
    enumerate_gt,
    enumerate_increasing_elegant,
    enumerate_rpp,
    enumerate_ssyt,
    enumerate_svt,
    gt_to_ssyt,
    nilp_is_disjoint,
    nilp_to_ssyt,
    nilp_weight,
    rpp_exponents,
    ssyt_to_gt,
    ssyt_to_nilp,
    svt_exponents,
    validate_gt,
    weight_rpp,
    weight_ssyt,
    weight_svt,
)


def mono(*pairs):
    return Polynomial.monomial(pairs)


class TestEnumeration:
    def test_five_rpps(self):
        rpps = list(enumerate_rpp((2, 1), (), 2))
        assert len(rpps) == 5
        weights = [weight_rpp(r, (2, 1), (), 2) for r in rpps]
        expected = [
            mono((T(1), 1), (X(1), 2)),
            mono((X(1), 2), (X(2), 1)),
            mono((T(1), 1), (X(1), 1), (X(2), 1)),
            mono((X(1), 1), (X(2), 2)),
            mono((T(1), 1), (X(2), 2)),
        ]
        assert sorted(map(str, weights)) == sorted(map(str, expected))

    def test_ssyt_single_box(self):
        assert len(list(enumerate_ssyt((1,), (), 3))) == 3

    def test_elegant_single_cell(self):
        out = list(enumerate_elegant((2, 1), (2,)))
        assert out == [((), (1,))]

    def test_deterministic_order(self):
        a = list(enumerate_rpp((2, 2), (), 2))
        b = list(enumerate_rpp((2, 2), (), 2))
        assert a == b
        assert a == sorted(a)

    def test_svt_weight(self):
        assert weight_svt((((1,), (1, 2)),)) == -mono((T(1), 1), (X(1), 2), (X(2), 1))

    def test_increasing_elegant_subset(self):
        inc = set(enumerate_increasing_elegant((3, 2), (3,)))
        all_ = set(enumerate_elegant((3, 2), (3,)))
        assert inc <= all_


def _rpp_vectors_by_sets(rows, outer, inner, n):
    """a and b of an RPP from their definitions: the distinct values of each
    column, and the boxes equal to the box below."""
    grid = {}
    for r, row in enumerate(rows, start=1):
        off = inner[r - 1] if r <= len(inner) else 0
        for j, v in enumerate(row):
            grid[(r, off + j + 1)] = v
    a = [0] * n
    for c in {c for _, c in grid}:
        for v in {v for (_, cc), v in grid.items() if cc == c}:
            a[v - 1] += 1
    b = [0] * (len(outer) - 1)
    for (r, c), v in grid.items():
        if grid.get((r + 1, c)) == v:
            b[r - 1] += 1
    return tuple(a + b)


class TestExponentVectors:
    SKEW = [((2, 1), ()), ((3, 2, 2), (1,)), ((3, 3, 1), (2, 1)), ((2, 2, 2, 1), ())]

    def test_rpp_column_walk_matches_definition(self):
        for outer, inner in self.SKEW:
            for rows in enumerate_rpp(outer, inner, 3):
                assert (rpp_exponents(rows, outer, inner, 3)
                        == _rpp_vectors_by_sets(rows, outer, inner, 3))

    def test_weight_rpp_is_the_single_entry_count(self):
        for outer, inner in self.SKEW:
            atoms = [X(1), X(2), X(3)] + [T(i) for i in range(1, len(outer))]
            for rows in enumerate_rpp(outer, inner, 3):
                vec = rpp_exponents(rows, outer, inner, 3)
                want = mono(*zip(atoms, vec))
                assert weight_rpp(rows, outer, inner, 3) == want
                assert Polynomial.from_exponent_counts({vec: 1}, atoms) == want

    def test_weight_svt_is_the_single_entry_count(self):
        atoms = [X(1), X(2), X(3), T(1), T(2)]
        for rows in enumerate_svt((2, 1), 3):
            vec, sign = svt_exponents(rows, 3, 2)
            extras = sum(len(cell) - 1 for row in rows for cell in row)
            assert sign == (-1) ** extras
            want = mono(*zip(atoms, vec)) * sign
            assert weight_svt(rows, 2) == want
            assert Polynomial.from_exponent_counts({vec: sign}, atoms) == want


class TestGTPatterns:
    def test_paper_example(self):
        T_rows = ((1, 1, 2, 4), (2, 3, 3), (4,))
        gt = ssyt_to_gt(T_rows, (4, 3, 1), 4)
        assert gt == ((2,), (3, 1), (3, 3, 0), (4, 3, 1, 0))
        assert validate_gt(gt)
        assert gt_to_ssyt(gt) == T_rows

    def test_empty(self):
        assert ssyt_to_gt((), (), 2) == ((0,), (0, 0))
        assert gt_to_ssyt(((0,), (0, 0))) == ()

    def test_single_cell_two(self):
        gt = ssyt_to_gt(((2,),), (1,), 2)
        assert gt == ((0,), (1, 0))

    def test_counts_match_ssyt(self):
        for la in enumerate_partitions_in_box(3, 3):
            for n in (1, 2, 3, 4):
                if len(la) > n:
                    continue
                ssyt = list(enumerate_ssyt(la, (), n))
                gts = list(enumerate_gt(la, n))
                assert len(ssyt) == len(gts)

    def test_roundtrip_all_small(self):
        for la in subpartitions((3, 2, 1)):
            for T_rows in enumerate_ssyt(la, (), 3):
                gt = ssyt_to_gt(T_rows, la, 3)
                assert validate_gt(gt)
                assert gt_to_ssyt(gt) == T_rows


class TestNilp:
    def test_worked_example(self):
        T_rows = ((1, 1, 2, 4), (2, 3, 3), (4,))
        paths = ssyt_to_nilp(T_rows, (4, 3, 1), n=4)
        assert nilp_is_disjoint(paths)
        # endpoints: u_i = (l-i+1, 1), v_i = (l-i+1+la_i, n)
        assert [p[0] for p in paths] == [(3, 1), (2, 1), (1, 1)]
        assert [p[-1] for p in paths] == [(7, 4), (5, 4), (2, 4)]
        w = nilp_weight(paths, [X(i) for i in range(1, 5)])
        assert w == mono((X(1), 2), (X(2), 2), (X(3), 2), (X(4), 2))
        assert nilp_to_ssyt(paths) == T_rows

    def test_empty_tableau_vertical_paths(self):
        paths = ssyt_to_nilp(((), ()), (0, 0), n=2)
        assert paths == ()

    def test_flagged_example(self):
        # the flagged tableau of shape 4322 on letters x1..x5, t1..t3
        full = ((1, 1, 3, 4), (3, 6, 6), (6, 7), (8, 8))
        flags = (5, 6, 7, 8)
        paths = ssyt_to_nilp(full, (4, 3, 2, 2), flags=flags, n=8)
        assert nilp_is_disjoint(paths)
        atoms = [as_poly(X(i)) for i in range(1, 6)] + [as_poly(T(i)) for i in (1, 2, 3)]
        w = nilp_weight(paths, atoms)
        want = mono((T(1), 3), (T(2), 1), (T(3), 2),
                    (X(1), 2), (X(3), 2), (X(4), 1))
        assert w == want
        # the sub-5 part is the insertion shape (4,1)
        low = tuple(tuple(v for v in row if v <= 5) for row in full)
        assert tuple(len(r) for r in low if r) == (4, 1)

    def test_roundtrips(self):
        for la in subpartitions((3, 2, 1)):
            for T_rows in enumerate_ssyt(la, (), 3):
                paths = ssyt_to_nilp(T_rows, la, n=3)
                assert nilp_is_disjoint(paths)
                assert nilp_to_ssyt(paths) == T_rows


class TestSchurDecompositionConsistency:
    def test_rpp_weights_match_elegant_expansion(self):
        """Sum of RPP weights equals the elegant-coefficient Schur expansion."""
        from grothlab.symfunc import dual_grothendieck

        for la in enumerate_partitions_in_box(3, 3):
            if not la:
                continue
            total = Polynomial.zero()
            for rows in enumerate_rpp(la, (), 2):
                total = total + weight_rpp(rows, la, (), 2)
            assert total == dual_grothendieck(la, 2, route="schur_decomp")
