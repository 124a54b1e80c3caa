import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from grothlab.lpp import (
    GeomParams,
    MonteCarloResult,
    SplitMix64,
    exact_prob,
    exact_prob_bruteforce,
    last_passage,
    lpp_cdf_value_det,
    lpp_cdf_value_schur,
    monte_carlo,
    phi_row_counts,
    prob_of_matrix,
    sample_geometric,
    sample_matrix,
    schur_measure,
    tasep_check,
    tasep_evolution,
    first_passage_times,
    transition_prob,
    transition_prob_multistep,
    verify_schur_measure_cdf,
    _h_rows,
    _law_constants,
    _numeric_det,
    g_numeric,
)
from grothlab.polynomial import T, X
from grothlab.shapes import enumerate_partitions_in_box, subpartitions
from grothlab.symfunc import dual_grothendieck
from grothlab.tableaux import enumerate_rpp

PARAMS_A = GeomParams(t=(Fraction(1, 2), Fraction(1, 3)),
                      x=(Fraction(1, 3), Fraction(1, 4)))
PARAMS_B = GeomParams(t=(Fraction(1, 5), Fraction(1, 7)),
                      x=(Fraction(1, 2), Fraction(1, 6)))


class TestLastPassage:
    def test_paper_example(self):
        w = ((0, 0, 2, 0), (1, 0, 0, 1), (1, 0, 1, 0))
        assert last_passage(w) == (3, 3, 2)

    def test_zero_matrix(self):
        assert last_passage(((0, 0), (0, 0))) == (0, 0)

    def test_single_cell(self):
        assert last_passage(((7,),)) == (7,)

    def test_initial_condition_shift(self):
        w = ((0, 0), (0, 0))
        assert last_passage(w, mu=(3, 1)) == (3, 1)
        w = ((1, 0), (0, 1))
        # G(1, j) row starts from mu_2 = 1; G(2, j) from mu_1 = 3
        assert last_passage(w, mu=(3, 1)) == (4, 2)


class TestExactProbability:
    def test_single_geometric(self):
        p = GeomParams(t=(Fraction(1, 2),), x=(Fraction(1, 3),))
        assert exact_prob((1,), p) == Fraction(5, 36)

    def test_empty_shape(self):
        p = GeomParams(t=(Fraction(1, 2),), x=(Fraction(1, 3),))
        assert exact_prob((), p) == 1 - Fraction(1, 6)

    @pytest.mark.parametrize("params", [PARAMS_A, PARAMS_B])
    def test_matches_bruteforce_on_box(self, params):
        for la in enumerate_partitions_in_box(2, 2):
            assert exact_prob(la, params) == exact_prob_bruteforce(la, params), la

    def test_third_parameter_set(self):
        params = GeomParams(t=(Fraction(2, 5), Fraction(1, 4)),
                            x=(Fraction(1, 5), Fraction(3, 7)))
        for la in enumerate_partitions_in_box(2, 2):
            assert exact_prob(la, params) == exact_prob_bruteforce(la, params)

    def test_truncated_mass_below_one(self):
        total = sum(exact_prob(la, PARAMS_A)
                    for la in enumerate_partitions_in_box(2, 6))
        assert 0 < total < 1

    def test_mass_identity_via_cdf(self):
        # sum over the box la_1 <= m equals the determinant value, and the
        # cdf increases toward 1 with m
        prev = Fraction(0)
        for m in (1, 2, 3, 4):
            cdf = sum(exact_prob(la, PARAMS_A)
                      for la in enumerate_partitions_in_box(2, m))
            assert prev < cdf < 1
            prev = cdf

    def test_interleaved_parameter_sets_past_the_caches(self):
        # one shape at a time over more parameter sets than the caches hold,
        # so their entries are evicted and rebuilt between calls
        rng = random.Random("interleaved")
        sets = [GeomParams(t=tuple(Fraction(rng.randint(1, 6), 7) for _ in range(1 + k % 2)),
                           x=tuple(Fraction(j, k + 3) for j in range(1, 2 + k // 2 % 2)))
                for k in range(12)]
        assert len(set(sets)) == 12
        assert max(_law_constants.cache_info().maxsize, _h_rows.cache_info().maxsize) < 12
        box = enumerate_partitions_in_box(2, 2)
        want = {(la, p): exact_prob_bruteforce(la, p) for la in box for p in sets}
        assert {(la, p): exact_prob(la, p) for la in box for p in sets} == want
        assert {(la, p): exact_prob(la, p) for la in box[::-1] for p in sets[::-1]} == want

    def test_params_validated(self):
        with pytest.raises(ValueError):
            GeomParams(t=(Fraction(3, 2),), x=(Fraction(1, 2),))


class TestTransitionProbability:
    def test_la_equals_mu(self):
        p = GeomParams(t=(Fraction(1, 2), Fraction(1, 3)), x=(Fraction(1, 3),))
        got = transition_prob((2, 1), (2, 1), p)
        assert got == (1 - Fraction(1, 6)) * (1 - Fraction(1, 9))

    def test_single_column_enumeration(self):
        p = GeomParams(t=(Fraction(1, 2), Fraction(1, 3)), x=(Fraction(1, 3),))
        total = Fraction(0)
        for a in range(9):
            for b in range(9):
                w = ((a,), (b,))
                if last_passage(w) == (2, 1):
                    total += prob_of_matrix(w, p)
        assert total == transition_prob((2, 1), (), p)

    def test_chain_matches_exact(self):
        for la in [(1,), (2, 1), (2, 2)]:
            assert transition_prob_multistep(la, (), PARAMS_A) == exact_prob(la, PARAMS_A)

    def test_law_of_total_probability(self):
        # summing the one-step transitions over la recovers 1
        p = GeomParams(t=(Fraction(1, 2), Fraction(1, 3)), x=(Fraction(1, 3),))
        total = Fraction(0)
        for la in enumerate_partitions_in_box(2, 12):
            total += transition_prob(la, (), p)
        assert 1 - total < Fraction(1, 1000)


class TestSchurMeasure:
    def test_empty(self):
        want = Fraction(1)
        for tv in PARAMS_A.t:
            for xv in PARAMS_A.x:
                want *= 1 - tv * xv
        assert schur_measure((), PARAMS_A) == want

    def test_cdf_identity(self):
        assert verify_schur_measure_cdf(2, PARAMS_A)
        assert verify_schur_measure_cdf(3, PARAMS_B)

    def test_three_way_equality(self):
        m = 2
        a = lpp_cdf_value_det(m, PARAMS_A)
        b = lpp_cdf_value_schur(m, PARAMS_A)
        c = sum(schur_measure(la, PARAMS_A)
                for la in enumerate_partitions_in_box(2, m))
        d = sum(exact_prob(la, PARAMS_A)
                for la in enumerate_partitions_in_box(2, m))
        assert a == b == c == d


class TestSampling:
    def test_prng_determinism(self):
        a = [SplitMix64(42).next_u64() for _ in range(5)]
        b = [SplitMix64(42).next_u64() for _ in range(5)]
        assert a == b
        assert SplitMix64(42, 1).next_u64() != SplitMix64(42, 0).next_u64()

    def test_matrix_stream_determinism(self):
        rng1, rng2 = SplitMix64(7), SplitMix64(7)
        ms1 = [sample_matrix(PARAMS_A, rng1) for _ in range(10)]
        ms2 = [sample_matrix(PARAMS_A, rng2) for _ in range(10)]
        assert ms1 == ms2

    def test_geometric_support(self):
        rng = SplitMix64(1)
        draws = [sample_geometric(0.25, rng) for _ in range(2000)]
        assert min(draws) == 0
        mean = sum(draws) / len(draws)
        assert abs(mean - 1 / 3) < 0.1  # q/(1-q) = 1/3

    def test_monte_carlo_within_four_sigma(self):
        res = monte_carlo((2, 1), PARAMS_A, 20_000, seed=42)
        exact = float(exact_prob((2, 1), PARAMS_A))
        assert res.std_error > 0
        assert abs(res.estimate - exact) <= 4 * res.std_error

    def test_empirical_total_mass(self):
        # frequencies over all observed shapes sum to one by construction
        rng = SplitMix64(3)
        counts = {}
        trials = 2000
        for _ in range(trials):
            g = last_passage(sample_matrix(PARAMS_A, rng))
            counts[g] = counts.get(g, 0) + 1
        assert sum(counts.values()) == trials

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            monte_carlo((1,), PARAMS_A, 0, seed=1)


def _permutation_det(grid):
    """Reference determinant: the O(n!·n) signed permutation expansion."""
    n = len(grid)
    total = Fraction(0)
    for perm in permutations(range(n)):
        visited = [False] * n
        cycles = 0
        for s in range(n):
            if not visited[s]:
                cycles += 1
                while not visited[s]:
                    visited[s] = True
                    s = perm[s]
        term = Fraction(-1 if (n - cycles) % 2 else 1)
        for i in range(n):
            term *= grid[i][perm[i]]
        total += term
    return total


def _random_grid(rng, n, zero_share=0.0):
    return [[Fraction(0) if rng.random() < zero_share
             else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             for _ in range(n)] for _ in range(n)]


def _det_cases():
    rng = random.Random(20240)
    cases = []
    for n in range(8):
        for _ in range(3 if n < 7 else 1):
            cases.append(_random_grid(rng, n))
            cases.append(_random_grid(rng, n, zero_share=0.5))  # many zero pivots
    f = Fraction
    cases += [
        [[f(0), f(1)], [f(1), f(0)]],  # first pivot zero: one row swap
        [[f(0), f(0), f(2)], [f(0), f(3), f(1)], [f(5), f(1), f(1)]],  # two swaps
        [[f(1), f(2), f(3)], [f(2), f(4), f(5)], [f(3), f(7), f(1)]],  # zero after a step
        [[f(1, 2), f(1, 3)], [f(3, 2), f(1)]],  # singular: row 2 = 3 * row 1
        [[f(0), f(1), f(2)], [f(0), f(3), f(4)], [f(0), f(5), f(6)]],  # zero column
    ]
    base = _random_grid(rng, 4)
    cases.append(base[:3] + [[a + 2 * b for a, b in zip(base[0], base[1])]])  # dependent
    cases.append(base[:2] + [base[0]] + base[3:])  # repeated row
    return cases


DET_CASES = _det_cases()


class TestNumericDeterminant:
    @pytest.mark.parametrize("grid", DET_CASES, ids=lambda g: f"n{len(g)}")
    def test_matches_permutation_expansion(self, grid):
        assert _numeric_det(grid) == _permutation_det(grid)

    def test_cases_include_singular_and_every_size(self):
        dets = [_permutation_det(g) for g in DET_CASES]
        assert sum(1 for d in dets if d == 0) >= 4
        assert {len(g) for g in DET_CASES} == set(range(8))

    @pytest.mark.parametrize("grid", DET_CASES, ids=lambda g: f"n{len(g)}")
    def test_matches_sympy(self, grid):
        sympy = pytest.importorskip("sympy")
        m = sympy.Matrix(len(grid), len(grid),
                         [sympy.Rational(a.numerator, a.denominator) for row in grid for a in row])
        want = m.det() if grid else sympy.Integer(1)
        assert _numeric_det(grid) == Fraction(int(want.p), int(want.q))

    @pytest.mark.parametrize("la,n", [((1,), 2), ((2, 1), 2), ((2, 2), 3), ((3, 1, 1), 2),
                                      ((2, 2, 1), 3), ((3, 2, 1), 2), ((2, 1, 1, 1), 2)])
    def test_g_numeric_matches_jt_e(self, la, n):
        rng = random.Random(f"{la}:{n}")
        for _ in range(3):
            xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
            ts = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(len(la) - 1)]
            poly = dual_grothendieck(la, n, route="jt_e")
            values = {X(i): v for i, v in enumerate(xs, start=1)}
            values.update({T(i): v for i, v in enumerate(ts, start=1)})
            assert g_numeric(la, xs, ts) == poly.evaluate(values)

    def test_g_numeric_lists_ints_and_the_empty_shape(self):
        poly = dual_grothendieck((2, 1), 2, route="jt_e")
        xs, ts = [Fraction(1, 2), 3], [Fraction(2, 5)]
        want = poly.evaluate({X(1): Fraction(1, 2), X(2): 3, T(1): Fraction(2, 5)})
        assert g_numeric([2, 1], xs, ts) == g_numeric((2, 1), tuple(xs), tuple(ts)) == want
        xs[1] = 5  # the cached tables were built from a copy of the list
        want = poly.evaluate({X(1): Fraction(1, 2), X(2): 5, T(1): Fraction(2, 5)})
        assert g_numeric([2, 1], xs, ts) == want
        assert g_numeric((), [], []) == g_numeric([], [Fraction(1, 3)], []) == 1

    @pytest.mark.parametrize("la,ts", [((2, 1), []), ((2, 2, 1), [Fraction(1, 3)]),
                                       ((1, 1, 1, 1), [Fraction(1, 2)] * 2)])
    def test_g_numeric_too_few_t_values_raises(self, la, ts):
        with pytest.raises(ValueError, match=f"need at least {len(la) - 1} t atoms"):
            g_numeric(la, [Fraction(1, 2)], ts)


def _loop_geometric(q, rng):
    """The per-draw inverse-CDF loop the tabled sampler must reproduce."""
    u = rng.uniform()
    k = 0
    cum = 1.0 - q
    tail = cum
    while u >= cum:
        k += 1
        tail *= q
        cum += tail
        if k > 10_000:
            raise RuntimeError("geometric sampler runaway; q too close to 1")
    return k


def _loop_matrix(params, rng):
    qs = [[float(params.cell_param(i, j)) for j in range(1, params.n + 1)]
          for i in range(1, params.l + 1)]
    return tuple(tuple(_loop_geometric(qs[i][j], rng) for j in range(params.n))
                 for i in range(params.l))


def _loop_hits(la, params, trials, seed, stream=0):
    rng = SplitMix64(seed, stream)
    target = tuple(la[i] if i < len(la) else 0 for i in range(params.l))
    return sum(last_passage(_loop_matrix(params, rng)) == target for _ in range(trials))


def _matrices_until_runaway(sample, params, seed, limit):
    """Matrices drawn before the first runaway, and whether one occurred."""
    rng = SplitMix64(seed)
    out = []
    try:
        for _ in range(limit):
            out.append(sample(params, rng))
    except RuntimeError:
        return out, True
    return out, False


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


LONG_TAIL = GeomParams(t=(Fraction(199, 200), Fraction(1, 2)),
                       x=(Fraction(198, 199), Fraction(1998, 1999)))  # q = 0.99 in cell (2, 1)
VERY_LONG_TAIL = GeomParams(t=(Fraction(1999, 2000),), x=(Fraction(1998, 1999),))  # q = 0.999
SAMPLER_PARAMS = [PARAMS_A, PARAMS_B, LONG_TAIL, VERY_LONG_TAIL,
                  GeomParams(t=(Fraction(3, 4), Fraction(2, 3), Fraction(1, 5)),
                             x=(Fraction(3, 5), Fraction(1, 2)))]


class TestSamplerBytes:
    @pytest.mark.parametrize("params", SAMPLER_PARAMS)
    @pytest.mark.parametrize("seed", [0, 11, 2 ** 40 + 3])
    def test_sample_matrix_stream(self, params, seed):
        rng1, rng2 = SplitMix64(seed, 5), SplitMix64(seed, 5)
        assert ([sample_matrix(params, rng1) for _ in range(150)]
                == [_loop_matrix(params, rng2) for _ in range(150)])
        assert rng1.state == rng2.state

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.99, 0.999])
    def test_sample_geometric(self, q):
        rng1, rng2 = SplitMix64(9), SplitMix64(9)
        assert ([sample_geometric(q, rng1) for _ in range(300)]
                == [_loop_geometric(q, rng2) for _ in range(300)])

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.999, 0.99954])
    def test_uniforms_on_table_edges(self, q):
        # uniforms equal to a cumulative value, or just below it, decide
        # between neighbouring k; the runaway edge is at k = 10 000
        cums = [1.0 - q]
        tail = cums[0]
        for _ in range(10_000):
            tail *= q
            cums.append(cums[-1] + tail)
        us = [0.0, math.nextafter(1.0, 0.0)]
        for c in cums[:3] + cums[9_999:]:
            us += [c, math.nextafter(c, 0.0)]
        for u in us:
            if u >= 1.0:
                continue
            outcomes = []
            for sample in (sample_geometric, _loop_geometric):
                try:
                    outcomes.append(sample(q, _FixedUniform(u)))
                except RuntimeError:
                    outcomes.append("runaway")
            assert outcomes[0] == outcomes[1], u

    @pytest.mark.parametrize("params", SAMPLER_PARAMS)
    @pytest.mark.parametrize("seed", [1, 42])
    def test_monte_carlo_hits(self, params, seed):
        # targets: the G-vectors the reference draws most often, so that hit
        # counts are far from 0, plus two small shapes
        rng = SplitMix64(seed)
        seen = Counter(last_passage(_loop_matrix(params, rng)) for _ in range(300))
        shapes = [g for g, _ in seen.most_common(3)] + [(), (1,)]
        assert seen.most_common(1)[0][1] > 1
        for la in shapes:
            assert monte_carlo(la, params, 300, seed).hits == _loop_hits(la, params, 300, seed)

    @pytest.mark.parametrize("params", [
        # float(q) rounds to 1.0: the cumulative sum stagnates at 0.0 at once
        GeomParams(t=(1 - Fraction(1, 2 ** 60),), x=(1 - Fraction(1, 2 ** 60),)),
        # cum stops short of 1 at k = 10 000: about one draw in a hundred runs away
        GeomParams(t=(Fraction(1, 2), Fraction(99977, 100000)),
                   x=(Fraction(1, 3), Fraction(99977, 100000))),
    ])
    def test_runaway_on_the_same_draw(self, params):
        for seed in (3, 4, 5):
            got = _matrices_until_runaway(sample_matrix, params, seed, 2000)
            want = _matrices_until_runaway(_loop_matrix, params, seed, 2000)
            assert got == want and got[1]
            trials = len(want[0]) + 1  # the trial that runs away
            with pytest.raises(RuntimeError, match="runaway"):
                monte_carlo((1,), params, trials, seed)
            if trials > 1:
                monte_carlo((1,), params, trials - 1, seed)  # one trial short: no runaway


def _assert_hits_match_the_loop(params, seed, stream, trials=300):
    """monte_carlo hits equal the reference loop's on the G-vectors the loop
    draws most often and on two small shapes."""
    rng = SplitMix64(seed, stream)
    seen = Counter(last_passage(_loop_matrix(params, rng)) for _ in range(trials))
    assert seen.most_common(1)[0][1] > 1
    for la in [g for g, _ in seen.most_common(3)] + [(), (1,)]:
        got = monte_carlo(la, params, trials, seed, stream).hits
        assert got == _loop_hits(la, params, trials, seed, stream), la


class TestInlineSampler:
    @pytest.mark.parametrize("params", [PARAMS_A, SAMPLER_PARAMS[-1]])
    @pytest.mark.parametrize("seed,stream", [(7, 3), (2 ** 63 + 17, 0),
                                             (2 ** 64 - 5, 2 ** 31 + 1)])
    def test_hits_on_any_stream_and_seed(self, params, seed, stream):
        _assert_hits_match_the_loop(params, seed, stream)

    @pytest.mark.parametrize("name,value", [("GAMMA", 0xD1B54A32D192ED03),
                                            ("MIX1", 0xFF51AFD7ED558CCD),
                                            ("MIX2", 0xC4CEB9FE1A85EC53)])
    def test_next_u64_and_the_draw_loop_read_the_same_constants(self, monkeypatch,
                                                                 name, value):
        before = [SplitMix64(1, 2).next_u64() for _ in range(3)]
        monkeypatch.setattr(SplitMix64, name, value)
        assert [SplitMix64(1, 2).next_u64() for _ in range(3)] != before
        _assert_hits_match_the_loop(SAMPLER_PARAMS[-1], 1, 2)


class TestTasep:
    def test_appendix_timeline(self):
        rows = ((1, 1, 4), (1, 3, 4), (3, 3))
        counts = phi_row_counts(rows, (3, 3, 2), 3)
        g = last_passage(counts)
        assert g == (3, 3, 2)
        history = tasep_evolution(rows, (3, 3, 2), 3, 4, horizon=10)
        times = first_passage_times(history, 4, 3)
        assert times == [6, 8, 9]
        assert tasep_check(rows, (3, 3, 2), 3, 4)

    def test_single_box(self):
        # all-ones tableau of shape (1): p_1 blocked once then moves
        assert tasep_check(((1,),), (1,), 1, 1)
        history = tasep_evolution(((1,),), (1,), 1, 1, horizon=4)
        assert first_passage_times(history, 1, 1) == [2]

    def test_free_flow_empty(self):
        # empty tableau: no scheduled blocks; p_2 still waits for p_1 once,
        # matching G*(k, 2) = 0 + k + 1
        history = tasep_evolution((), (), 2, 2, horizon=5)
        assert first_passage_times(history, 2, 2) == [2, 3]

    def test_exhaustive_small_shapes(self):
        for la in subpartitions((2, 2)):
            if not la:
                continue
            for n in (1, 2, 3):
                for rows in enumerate_rpp(la, (), n):
                    for l in (len(la), len(la) + 1):
                        assert tasep_check(rows, la, l, n), (la, n, l, rows)
