"""Last passage percolation with geometric weights: exact laws, brute-force
oracles, Monte Carlo sampling, the Schur measure, and the particle-blocking
consistency check.

Matrices are indexed with the bottom-left corner as entry (1,1); the stored
tuple ``rows[i-1]`` is matrix row i.  Parameter bookkeeping: ``GeomParams.t``
is indexed so that t_j is attached to the passage level G(l+1-j, n), i.e.
matrix row i carries the geometric parameter t_{l+1-i}.  All exact values
are Fractions end to end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, sqrt

from .polynomial import T, X, _h_grid
from .shapes import part, partition, subpartitions


@dataclass(frozen=True)
class GeomParams:
    t: tuple  # l rationals in (0,1); t_j pairs with G(l+1-j, n)
    x: tuple  # n rationals in (0,1)

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(Fraction(a) for a in self.t))
        object.__setattr__(self, "x", tuple(Fraction(a) for a in self.x))
        for a in self.t + self.x:
            if not (0 < a < 1):
                raise ValueError("parameters must lie in (0,1)")

    @property
    def l(self):
        return len(self.t)

    @property
    def n(self):
        return len(self.x)

    def cell_param(self, i: int, j: int) -> Fraction:
        """Geometric ratio of matrix cell (i, j), bottom-left indexing."""
        return self.t[self.l - i] * self.x[j - 1]


def last_passage(w, mu=None) -> tuple:
    """G-vector (G(l,n), ..., G(1,n)) of the matrix by dynamic programming.

    G(i,j) = w_ij + max(G(i-1,j), G(i,j-1)); the optional initial condition
    enters as the j=0 column G(i,0) = mu_{l+1-i}.
    """
    rows = [tuple(r) for r in w]
    l = len(rows)
    n = len(rows[0]) if l else 0
    mu = partition(mu or ())
    if n == 0:
        return tuple(part(mu, l + 1 - k) for k in range(l, 0, -1))
    prev = [0] * (n + 1)  # row i-1; prev[0] handled per row
    table = []
    for i in range(1, l + 1):
        cur = [part(mu, l + 1 - i)] + [0] * n
        for j in range(1, n + 1):
            cur[j] = rows[i - 1][j - 1] + max(prev[j], cur[j - 1])
        table.append(cur)
        prev = cur
    return tuple(table[k - 1][n] for k in range(l, 0, -1))


def enumerate_matrices(l, n, cap):
    """All l x n matrices with entries in [0, cap]."""

    def rec(cells, prefix):
        if cells == 0:
            flat = iter(prefix)
            yield tuple(tuple(next(flat) for _ in range(n)) for _ in range(l))
            return
        for v in range(cap + 1):
            yield from rec(cells - 1, prefix + [v])

    yield from rec(l * n, [])


def prob_of_matrix(w, params: GeomParams) -> Fraction:
    p = Fraction(1)
    for i in range(1, params.l + 1):
        for j in range(1, params.n + 1):
            q = params.cell_param(i, j)
            p *= (1 - q) * q ** w[i - 1][j - 1]
    return p


def exact_prob_bruteforce(la, params: GeomParams) -> Fraction:
    """Sum the geometric weights of every matrix whose G-vector equals la.

    Entries above la_1 are impossible for the event, so the enumeration cap
    is la_1.
    """
    la = partition(la)
    l, n = params.l, params.n
    if len(la) > l:
        return Fraction(0)
    cap = part(la, 1)
    if l * n > 8 or cap > 6:
        raise ValueError("brute force capped at 8 cells with entries <= 6")
    target = tuple(part(la, i) for i in range(1, l + 1))
    total = Fraction(0)
    for w in enumerate_matrices(l, n, cap):
        if last_passage(w) == target:
            total += prob_of_matrix(w, params)
    return total


@lru_cache(maxsize=8)
def _h_rows(xs: tuple, ts: tuple, degree: int) -> tuple:
    """Row i (i = 1..len(ts)+1) is (h_0, ..., h_degree) of (xs, ts[:i-1]);
    each row extends the one above by one t."""
    H = [Fraction(1)] + [Fraction(0)] * degree
    rows = []
    for vals in (xs, *((a,) for a in ts)):
        for a in vals:
            for d in range(1, degree + 1):
                H[d] += a * H[d - 1]
        rows.append(tuple(H))
    return tuple(rows)


def _table_degree(k: int) -> int:
    """The degree the cached h-tables are built to for a need of k: k
    rounded up to 2^j - 1, at least 7.  h_d for d <= k does not depend on
    the degree a table is built to, so every shape of a box sum whose
    la_1 + l - 1 falls in one such range reads the same tables."""
    return max(7, (1 << k.bit_length()) - 1)


def _numeric_det(grid):
    """Determinant of a square grid of Fractions by fraction-free Bareiss
    elimination (Bareiss, Math. Comp. 22, 1968).

    Each row is scaled to integers by the LCM of its denominators; every
    Bareiss quotient is then an exact integer division, and the integer
    determinant is divided by the product of the row scales at the end.
    """
    rows = []
    scale = 1
    for row in grid:
        d = lcm(*(a.denominator for a in row))
        rows.append([a.numerator * (d // a.denominator) for a in row])
        scale *= d
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = rows[i]
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * pivot_row[j]) // prev
        prev = pivot
    return Fraction(sign * rows[-1][-1], scale) if n else Fraction(1)


def g_numeric(la, x_vals, t_vals) -> Fraction:
    """g_la evaluated at rational points via the h-determinant.

    Row i of the grid reads h of (x, t_1..t_{i-1}), up to degree
    la_i + l - i, from the cached tables of ``_h_rows``.
    """
    la = partition(la)
    l = len(la)
    if len(t_vals) < l - 1:
        raise ValueError(f"need at least {l - 1} t atoms for shape {la}")
    if not l:
        return Fraction(1)
    rows = _h_rows(tuple(x_vals), tuple(t_vals), _table_degree(la[0] + l - 1))
    return _numeric_det(_h_grid(la, rows))


def schur_numeric(la, vals, inner=()) -> Fraction:
    la, inner = partition(la), partition(inner)
    l = len(la)
    if not l:
        return Fraction(1)
    (H,) = _h_rows(tuple(vals), (), _table_degree(la[0] + l - 1))
    return _numeric_det(_h_grid(la, [H] * l, inner))


@lru_cache(maxsize=8)
def _law_constants(params: GeomParams) -> tuple:
    """The prefactor prod (1 - t_i x_j) and (t_1^-1, ..., t_{l-1}^-1) of
    one parameter set."""
    pref = Fraction(1)
    for tv in params.t:
        for xv in params.x:
            pref *= 1 - tv * xv
    return pref, tuple(1 / tv for tv in params.t[:-1])


def exact_prob(la, params: GeomParams) -> Fraction:
    """P(G(n) = la) = prod (1 - t_i x_j) * prod_i t_i^{la_i} * g_la(x; t^-1)
    with the skew t-parameters reversed to match the matrix rows."""
    la = partition(la)
    if len(la) > params.l:
        return Fraction(0)
    pref, tinv = _law_constants(params)
    num = den = 1  # prod_i t_i^{la_i}, reduced once
    for tv, a in zip(params.t, la):
        num *= tv.numerator ** a
        den *= tv.denominator ** a
    return pref * Fraction(num, den) * g_numeric(la, params.x, tinv)


def transition_prob(la, mu, params: GeomParams, column: int | None = None) -> Fraction:
    """One-step transition probability P(G(j) = la | G(j-1) = mu) when the
    new column is j (defaults to n): the factorized product formula."""
    la, mu = partition(la), partition(mu)
    l = params.l
    j = column if column is not None else params.n
    xj = params.x[j - 1]
    p = Fraction(1)
    for k in range(1, l + 1):
        gap = part(la, k) - max(part(mu, k), part(la, k + 1))
        if gap < 0 or part(mu, k) > part(la, k):
            return Fraction(0)
        q = params.t[k - 1] * xj
        p *= (1 - q) * q ** gap
    return p


def transition_prob_multistep(la, mu, params: GeomParams) -> Fraction:
    """P(G(n) = la | G(0) = mu) by chaining single columns over x_1..x_n."""
    la, mu = partition(la), partition(mu)
    states = {tuple(part(mu, i) for i in range(1, params.l + 1)): Fraction(1)}
    for j in range(1, params.n + 1):
        nxt = {}
        for nu, p in states.items():
            for target in subpartitions(la, nu):
                q = transition_prob(target, nu, params, column=j)
                if q:
                    key = tuple(part(target, i) for i in range(1, params.l + 1))
                    nxt[key] = nxt.get(key, Fraction(0)) + p * q
        states = nxt
    return states.get(tuple(part(la, i) for i in range(1, params.l + 1)), Fraction(0))


def schur_measure(la, params: GeomParams) -> Fraction:
    """P_Schur(la) = prod (1 - t_i x_j) s_la(t) s_la(x)."""
    la = partition(la)
    pref = _law_constants(params)[0]
    return pref * schur_numeric(la, params.t) * schur_numeric(la, params.x)


def verify_schur_measure_cdf(m, params: GeomParams) -> bool:
    """P(G(l,n) <= m) as sum of exact_prob over the box equals the sum of
    the Schur measure over la_1 <= m."""
    from .shapes import enumerate_partitions_in_box

    l, n = params.l, params.n
    lhs = Fraction(0)
    for la in enumerate_partitions_in_box(l, m):
        lhs += exact_prob(la, params)
    rhs = Fraction(0)
    for la in enumerate_partitions_in_box(min(l, n), m):
        rhs += schur_measure(la, params)
    return lhs == rhs


def _at_params(poly, params: GeomParams) -> Fraction:
    """poly in x_1..x_n and t_1..t_l, evaluated at the parameters."""
    values = {X(i): params.x[i - 1] for i in range(1, params.n + 1)}
    values.update({T(i): params.t[i - 1] for i in range(1, params.l + 1)})
    return poly.evaluate(values)


def lpp_cdf_value_det(m, params: GeomParams) -> Fraction:
    """Numeric evaluation of the difference-operator determinant form."""
    from .diffops import lpp_cdf_det

    return _at_params(lpp_cdf_det(params.l, params.n, m), params)


def lpp_cdf_value_schur(m, params: GeomParams) -> Fraction:
    from .diffops import lpp_cdf_schur

    return _at_params(lpp_cdf_schur(params.l, params.n, m), params)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class SplitMix64:
    """Deterministic 64-bit generator (Steele, Lea and Flood, OOPSLA 2014);
    uniform() has 53 random bits.  ``monte_carlo`` runs the same step
    inline and reads the same constants."""

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15  # the golden-ratio increment
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int, stream: int = 0):
        self.state = (seed + (stream << 32) + self.GAMMA) & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & self.MASK
        z = ((z ^ (z >> 27)) * self.MIX2) & self.MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


_RUNAWAY = "geometric sampler runaway; q too close to 1"


def _geometric_table(q: float) -> tuple:
    """Cumulative distribution (cum_0, cum_1, ...) of P(k) = (1-q) q^k,
    summed as cum_0 = 1 - q, tail_k = tail_{k-1} * q, cum_k = cum_{k-1} +
    tail_k.  The draw for a uniform u is the number of entries <= u.

    The table ends where no uniform can pass it: once cum reaches 1.0
    (uniforms are < 1), once cum stops changing (every later term is
    smaller, so it never changes again), or at k = 10 000.  A uniform past
    the end is a runaway draw.
    """
    cum = 1.0 - q
    tail = cum
    table = [cum]
    while cum < 1.0 and len(table) <= 10_000:
        tail *= q
        if cum + tail == cum:
            break
        cum += tail
        table.append(cum)
    return tuple(table)


def _draw(table, rng: SplitMix64) -> int:
    k = bisect_right(table, rng.uniform())
    if k == len(table):
        raise RuntimeError(_RUNAWAY)
    return k


def sample_geometric(q: float, rng: SplitMix64) -> int:
    """Inverse-CDF sampling of P(k) = (1-q) q^k by cumulative sum."""
    return _draw(_geometric_table(q), rng)


@lru_cache(maxsize=8)
def _cell_tables(params: GeomParams) -> tuple:
    """The cumulative table of every matrix cell, row by row."""
    return tuple(_geometric_table(float(params.cell_param(i, j)))
                 for i in range(1, params.l + 1) for j in range(1, params.n + 1))


def sample_matrix(params: GeomParams, rng: SplitMix64):
    """One l x n matrix with independent geometric entries."""
    tables = iter(_cell_tables(params))
    return tuple(tuple(_draw(next(tables), rng) for _ in range(params.n))
                 for _ in range(params.l))


@dataclass
class MonteCarloResult:
    estimate: float
    std_error: float
    trials: int
    hits: int


def monte_carlo(la, params: GeomParams, trials: int, seed: int,
                stream: int = 0) -> MonteCarloResult:
    """Hit-frequency estimate of P(G(n) = la) with binomial standard error.

    Draws the matrices of ``sample_matrix`` in the same order and runs the
    ``last_passage`` recurrence row by row as it draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    la = partition(la)
    l, n = params.l, params.n
    # G(i, n) for i = 1..l, i.e. the G-vector read bottom-up
    target = [part(la, l + 1 - i) for i in range(1, l + 1)]
    tables = _cell_tables(params)
    rows = [tables[i * n:(i + 1) * n] for i in range(l)]
    # SplitMix64.uniform, inlined: the generator state is a local int
    mask, gamma = SplitMix64.MASK, SplitMix64.GAMMA
    mix1, mix2 = SplitMix64.MIX1, SplitMix64.MIX2
    scale = float(1 << 53)
    state = SplitMix64(seed, stream).state
    hits = 0
    for _ in range(trials):
        below = [0] * n  # G(i-1, 1..n)
        ends = []
        for row in rows:
            g = 0
            for j, table in enumerate(row):
                state = (state + gamma) & mask
                z = ((state ^ (state >> 30)) * mix1) & mask
                z = ((z ^ (z >> 27)) * mix2) & mask
                k = bisect_right(table, ((z ^ (z >> 31)) >> 11) / scale)
                if k == len(table):
                    raise RuntimeError(_RUNAWAY)
                b = below[j]
                g = k + (b if b > g else g)
                below[j] = g
            ends.append(g)
        if ends == target:
            hits += 1
    p = hits / trials
    se = sqrt(max(p * (1 - p), 1e-300) / trials)
    return MonteCarloResult(p, se, trials, hits)


# ---------------------------------------------------------------------------
# TASEP blocking bijection
# ---------------------------------------------------------------------------


def tasep_evolution(rows, outer, l, n, horizon):
    """Deterministic TASEP trajectories under the blocking schedule read off
    the tableau: particle p_i (starting at 1-i) stays during step t -> t+1
    iff the tableau holds an i at row j+1 from the bottom, column t-j-i+2
    (j = steps completed), with the cell below different; otherwise it moves
    right when the next site was free."""
    outer = partition(outer)
    grid = {}
    for r in range(1, len(outer) + 1):
        for c, v in enumerate(rows[r - 1], start=1):
            grid[(r, c)] = v

    def scheduled_block(i, steps, tnow):
        r = steps + 1  # row from the bottom of the l-row frame
        if r > l:
            return False
        c = tnow - steps - i + 2
        row = l + 1 - r  # English row index within the frame
        if row > len(outer) or c < 1 or c > outer[row - 1]:
            return False
        if grid[(row, c)] != i:
            return False
        below = grid.get((row + 1, c))
        return below != i

    pos = [1 - i for i in range(1, n + 1)]
    history = [tuple(pos)]
    for tnow in range(0, horizon):
        new = list(pos)
        for idx in range(n):
            i = idx + 1
            steps = pos[idx] - (1 - i)
            ahead = pos[idx] + 1
            occupied = any(pos[k] == ahead for k in range(n))
            if occupied:
                continue
            if scheduled_block(i, steps, tnow):
                continue
            new[idx] = ahead
        pos = new
        history.append(tuple(pos))
    return history


def first_passage_times(history, n, l):
    """times[k-1] = first time particle p_n has completed k steps."""
    start = 1 - n
    times = []
    for k in range(1, l + 1):
        t_hit = None
        for tnow, pos in enumerate(history):
            if pos[n - 1] - start >= k:
                t_hit = tnow
                break
        times.append(t_hit)
    return times


def tasep_check(rows, outer, l, n) -> bool:
    """The first-passage times of p_n under the blocking schedule equal
    G(k, n) + k + n - 1 computed from the differ-below matrix of the
    tableau."""
    from .bijections import phi

    outer = partition(outer)
    g = last_passage(phi(rows, outer, l))
    horizon = g[0] + l + n + 2
    history = tasep_evolution(rows, outer, l, n, horizon)
    times = first_passage_times(history, n, l)
    for k in range(1, l + 1):
        want = g[l - k] + k + n - 1
        if times[k - 1] != want:
            return False
    return True
