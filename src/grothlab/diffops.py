"""Weighted difference operators on integer-indexed sequences and the
determinant identities built from them.

The operators act on sequences f : Z -> Polynomial as

    forward(s) f(v) = f(v+1) - s f(v)
    inverse(s) f(v) = sum_{u < v} s^{v-1-u} f(u)

and are mutually inverse.  Every sequence here vanishes below a computable
bound, so inverse applications evaluate as finite sums.  Multi-operator
words indexed consecutively have closed forms through e_m / h_m, which the
determinant builders use directly.
"""

from __future__ import annotations

from .polynomial import Polynomial, T, X, as_poly, determinant, e_table, ek, h_table, hk
from .shapes import conjugate, contains, part, partition

_ONE = Polynomial.one()
_ZERO = Polynomial.zero()


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


class Seq:
    """The sequence v -> fn(v), zero below ``lower``; each value is computed
    once."""

    def __init__(self, fn, lower: int = 0):
        self._fn, self._lower, self._cache = fn, lower, {}

    def eval(self, v: int) -> Polynomial:
        if v < self._lower:
            return _ZERO
        got = self._cache.get(v)
        if got is None:
            got = self._cache[v] = self._fn(v)
        return got

    def lower_bound(self) -> int:
        """Largest L with eval(v) = 0 for all v < L."""
        return self._lower


def h_seq(atoms) -> Seq:
    """v -> h_v(atoms)."""
    atoms = tuple(atoms)
    return Seq(lambda v: hk(v, atoms))


def v_seq(atom) -> Seq:
    """v -> atom^v H(v), with H the Heaviside step."""
    x = as_poly(atom)
    return Seq(lambda v: x ** v)


def e_short_seq(atom) -> Seq:
    """v -> atom^v E(v), with E the indicator of {0, 1}."""
    x = as_poly(atom)
    return Seq(lambda v: _ONE if v == 0 else x if v == 1 else _ZERO)


def e_seq(atoms) -> Seq:
    """v -> e_v(atoms), zero outside 0..len(atoms)."""
    atoms = tuple(atoms)
    return Seq(lambda v: ek(v, atoms))


def convolve_eval(f: Seq, g: Seq, v: int) -> Polynomial:
    """(f*g)(v) = sum_u f(v-u) g(u), a finite sum by the support bounds."""
    lo = g.lower_bound()
    hi = v - f.lower_bound()
    total = _ZERO
    for u in range(lo, hi + 1):
        gv = g.eval(u)
        if gv.is_zero():
            continue
        fv = f.eval(v - u)
        if not fv.is_zero():
            total = total + fv * gv
    return total


# ---------------------------------------------------------------------------
# difference operator words
# ---------------------------------------------------------------------------


def eval_delta(word, f: Seq, v: int) -> Polynomial:
    """Apply the operators in the word (leftmost acts last) to f, evaluated
    at v.  Inverse steps expand as finite sums using the support bound."""

    def rec(k, v):
        if k == len(word):
            return f.eval(v)
        t, direction = word[k]
        if direction > 0:
            return rec(k + 1, v + 1) - t * rec(k + 1, v)
        # inverse: sum_{m >= 0} t^m f_rest(v - 1 - m); the tail vanishes once
        # v - 1 - m drops below the support of the remaining word applied to f
        lo = f.lower_bound()
        for kk in range(k + 1, len(word)):
            lo += -1 if word[kk][1] > 0 else 1
        total = _ZERO
        m = 0
        while v - 1 - m >= lo:
            inner = rec(k + 1, v - 1 - m)
            if not inner.is_zero():
                total = total + t ** m * inner
            m += 1
        return total

    return rec(0, v)


def forward_closed(ts, f: Seq, v: int) -> Polynomial:
    """Delta_{t_k} ... Delta_{t_1} f(v) = sum_m e_m(-t) f(v+k-m)."""
    k = len(ts)
    E = e_table(k, [-as_poly(t) for t in ts])
    total = _ZERO
    for m, e in enumerate(E):
        if e.is_zero():
            continue
        val = f.eval(v + k - m)
        if not val.is_zero():
            total = total + e * val
    return total


def inverse_closed(ts, f: Seq, v: int) -> Polynomial:
    """Delta^{-1}_{t_k} ... Delta^{-1}_{t_1} f(v) = sum_m h_m(t) f(v-k-m)."""
    top = v - len(ts) - f.lower_bound()
    H = h_table(max(top, 0), ts)
    total = _ZERO
    for m in range(top + 1):
        val = f.eval(v - len(ts) - m)
        if not val.is_zero():
            total = total + H[m] * val
    return total


def delta_span(ts, i: int, j: int, f: Seq, v: int) -> Polynomial:
    """The multiple operator indexed from i to j: forward Delta_{t_i}..
    Delta_{t_{j-1}} when j >= i, else inverse Delta_{t_j}^-1..Delta_{t_{i-1}}^-1."""
    if j >= i:
        return forward_closed(ts[i - 1: j - 1], f, v)
    return inverse_closed(ts[j - 1: i - 1], f, v)


def delta_span_values(ts, a: int, b: int, f: Seq, v: int) -> Polynomial:
    """Value-indexed span: forward word over t_a .. t_{b-1} when b >= a,
    else inverse word over t_b .. t_{a-1}.  Index 0 denotes the zero
    spectral value (the inverse step at 0 is a plain shift)."""

    def at(k):
        return _ZERO if k == 0 else as_poly(ts[k - 1])

    if b >= a:
        return forward_closed([at(k) for k in range(a, b)], f, v)
    return inverse_closed([at(k) for k in range(b, a)], f, v)


def _span_det(ts, f, tops, bots, l) -> Polynomial:
    """det[ delta_span(ts, i, j, f, tops_i - bots_j) ] over i, j = 1..l."""
    return determinant([[delta_span(ts, i, j, f, part(tops, i) - part(bots, j))
                         for j in range(1, l + 1)] for i in range(1, l + 1)])


def _span_values_det(ts, f, tops, bots, l) -> Polynomial:
    """det[ delta_span_values(ts, bots_j + 1, tops_i, f, j - i + 1) ] over
    i, j = 1..l."""
    return determinant([[delta_span_values(ts, part(bots, j) + 1, part(tops, i), f, j - i + 1)
                         for j in range(1, l + 1)] for i in range(1, l + 1)])


# ---------------------------------------------------------------------------
# one-variable determinant lemmas
# ---------------------------------------------------------------------------


def one_variable_det(la, mu, l, x_atom, ts) -> Polynomial:
    """det[ Delta^{j-i} v(la_i - mu_j) ] with v(k) = x^k H(k)."""
    return _span_det(ts, v_seq(x_atom), la, mu, l)


def one_variable_factorized(la, mu, l, x_atom, ts) -> Polynomial:
    """prod_j t_j^{max(mu_j, la_{j+1}) - mu_j} v(la_j - max(mu_j, la_{j+1})):
    the factorized single-variable g_{la/mu}(x; t), 0 unless mu is contained
    in la.  t_l never enters, so ts may hold l - 1 atoms."""
    la, mu = partition(la), partition(mu)
    if not contains(la, mu):
        return _ZERO
    x = as_poly(x_atom)
    out = _ONE
    for j in range(1, l + 1):
        m = max(part(mu, j), part(la, j + 1))
        k = part(la, j) - m
        if k < 0:
            return _ZERO
        if k:
            out = out * x ** k
        d = m - part(mu, j)
        if d and j < l:
            out = out * as_poly(ts[j - 1]) ** d
    return out


def verify_one_variable_lemma(la, mu, l) -> bool:
    la, mu = partition(la), partition(mu)
    ts = [T(i) for i in range(1, l + 1)]
    x = X(1)
    return one_variable_det(la, mu, l, x, ts) == one_variable_factorized(la, mu, l, x, ts)


def one_variable_det_e(la, mu, l, x_atom, ts) -> Polynomial:
    """det[ Delta_{-t}^{la_i - mu_j - 1} f~(j - i + 1) ] with f~ = x^v E(v);
    the operator word is indexed by part values, negated spectrals."""
    return _span_values_det([-as_poly(t) for t in ts], e_short_seq(x_atom), la, mu, l)


def one_variable_factorized_e(la, mu, l, x_atom, ts) -> Polynomial:
    """prod_i ( prod_{v=mu_i+1}^{la_i-1} t_v ) f~( min(1, la_i - mu_i) ).

    The t-range is strictly interior: a column with c cells above mu_i
    contributes c-1 equal-below pairs; pinned against the RPP oracle.
    """
    x = as_poly(x_atom)
    out = _ONE
    for i in range(1, l + 1):
        a, b = part(mu, i), part(la, i)
        if b < a:
            return _ZERO
        for vv in range(a + 1, b):
            out = out * as_poly(ts[vv - 1])
        k = min(1, b - a)
        if k == 1:
            out = out * x
    return out


def verify_one_variable_e(la, mu, l) -> bool:
    la, mu = partition(la), partition(mu)
    top = max(part(la, 1), part(mu, 1), 1)
    ts = [T(i) for i in range(1, top + 1)]
    x = X(1)
    return one_variable_det_e(la, mu, l, x, ts) == one_variable_factorized_e(la, mu, l, x, ts)


# ---------------------------------------------------------------------------
# skew Jacobi-Trudi determinants
# ---------------------------------------------------------------------------


def skew_jt_h(outer, inner, n, t_atoms=None) -> Polynomial:
    """det[ sum_m alpha_m^{ij}(t) h_{la_i - mu_j - i + j - m}(x) ] with
    alpha_m^{ij} = h_m(t_j..t_{i-1}) for i >= j and e_m(-t_i..-t_{j-1}) else."""
    outer, inner = partition(outer), partition(inner)
    l = len(outer)
    if l == 0:
        return _ONE
    if t_atoms is None:
        t_atoms = [T(i) for i in range(1, l)]
    ts = [as_poly(t) for t in t_atoms]
    return _span_det(ts, h_seq([X(i) for i in range(1, n + 1)]), outer, inner, l)


def skew_jt_e(outer, inner, n, t_atoms=None) -> Polynomial:
    """Dual determinant over the conjugate shape: entries apply the value-
    indexed word Delta_{-t}^{la'_i - mu'_j - 1} to the e-sequence of x."""
    outer, inner = partition(outer), partition(inner)
    oc, ic = conjugate(outer), conjugate(inner)
    l = len(oc)
    if l == 0:
        return _ONE
    if t_atoms is None:
        t_atoms = [T(i) for i in range(1, len(outer) + 1)]
    neg = [-as_poly(t) for t in t_atoms]
    return _span_values_det(neg, e_seq([X(i) for i in range(1, n + 1)]), oc, ic, l)


# ---------------------------------------------------------------------------
# convolution identity
# ---------------------------------------------------------------------------


def verify_convolution(f: Seq, g: Seq, la, mu, l, window_pad=2) -> bool:
    """Ordered nu-sum of det[D f(nu_i - mu_j)] det[D g(la_i - nu_j)] equals
    det[D (f*g)(la_i - mu_j)]; the nu window is derived from the supports."""
    la, mu = partition(la), partition(mu)
    ts = [T(i) for i in range(1, l + 1)]

    fg = Seq(lambda v: convolve_eval(f, g, v), f.lower_bound() + g.lower_bound())
    lo = min(part(mu, l) + f.lower_bound(), 0) - l - window_pad
    hi = part(la, 1) - g.lower_bound() + l + window_pad
    lhs = _ZERO

    def ordered(i, hi_cap, prefix):
        if i == l:
            yield tuple(prefix)
            return
        for v in range(lo, hi_cap + 1):
            yield from ordered(i + 1, v, prefix + [v])

    for nus in ordered(0, hi, []):
        nu = tuple(nus)
        d1 = _span_det(ts, f, nu, mu, l)
        if d1.is_zero():
            continue
        d2 = _span_det(ts, g, la, nu, l)
        if d2.is_zero():
            continue
        lhs = lhs + d1 * d2
    rhs = _span_det(ts, fg, la, mu, l)
    return lhs == rhs


# ---------------------------------------------------------------------------
# last-passage distribution determinants
# ---------------------------------------------------------------------------


def _t_values(l, ts=None):
    """t_1..t_l as polynomials, or the given ts."""
    if ts is None:
        return [as_poly(T(i)) for i in range(1, l + 1)]
    return [as_poly(t) for t in ts]


def _tinv_atoms(l):
    return [t ** -1 for t in _t_values(l)]


def _cdf_prefactor(tvals, xs, exps=()) -> Polynomial:
    """prod t_i^{exps_i} prod (1 - t_i x_j), one factor at a time: the powers
    of t first, then the factors (1 - t_i x_j) for i, then j, in order."""
    pref = _ONE
    for tv, e in zip(tvals, exps):
        pref = pref * tv ** e
    for tv in tvals:
        for xv in xs:
            pref = pref * (_ONE - tv * as_poly(xv))
    return pref


def stacked_delta_h(j, i, v, tinv, xs) -> Polynomial:
    """Delta_{t^-1}^{j-i-1} h_v(x) := (inverse word t_1..t_i)(forward word
    t_1..t_{j-1}) applied to the h-sequence, evaluated at v."""
    f = h_seq(xs)
    fwd = Seq(lambda w: forward_closed(tinv[: j - 1], f, w), f.lower_bound() - (j - 1))
    return inverse_closed(tinv[:i], fwd, v)


def _stacked_det(tinv, xs, vs) -> Polynomial:
    """det[ stacked_delta_h(j, i, vs_j) ] over i, j = 1..len(vs)."""
    l = len(vs)
    return determinant([[stacked_delta_h(j, i, vs[j - 1], tinv, xs) for j in range(1, l + 1)]
                        for i in range(1, l + 1)])


def lpp_cdf_det(l, n, m, ts=None) -> Polynomial:
    """prod t_i^m prod (1 - t_i x_j) det[ Delta^{j-i-1} h_v(x) |_{v=m+1} ]."""
    xs = [X(i) for i in range(1, n + 1)]
    tvals = _t_values(l, ts)
    det = _stacked_det([t ** -1 for t in tvals], xs, [m + 1] * l)
    return _cdf_prefactor(tvals, xs, [m] * len(tvals)) * det


def lpp_cdf_schur(l, n, m, ts=None) -> Polynomial:
    """prod t_i^m prod (1 - t_i x_j) s_{m^l}(x, t_1^-1, ..., t_l^-1)."""
    from .symfunc import schur

    xs = [X(i) for i in range(1, n + 1)]
    tvals = _t_values(l, ts)
    s = schur([m] * l, [as_poly(x) for x in xs] + [t ** -1 for t in tvals])
    return _cdf_prefactor(tvals, xs, [m] * len(tvals)) * s


def lpp_cdf_schur_measure_sum(l, n, m, ts=None) -> Polynomial:
    """prod (1 - t_i x_j) * sum over la in the l x m box of s_la(x) s_la(t)."""
    from .shapes import enumerate_partitions_in_box
    from .symfunc import schur

    xs = [X(i) for i in range(1, n + 1)]
    tvals = _t_values(l, ts)
    total = _ZERO
    for la in enumerate_partitions_in_box(l, m):
        total = total + schur(la, xs) * schur(la, tvals)
    return _cdf_prefactor(tvals, xs) * total


def verify_summation_identity(l, n, m) -> bool:
    """sum_{la_1 <= m} s_la(x) s_la(t) = prod t_i^m det[Delta^{j-i-1} h|_{m+1}]."""
    from .shapes import enumerate_partitions_in_box
    from .symfunc import schur

    xs = [X(i) for i in range(1, n + 1)]
    tvals = _t_values(l)
    lhs = _ZERO
    for la in enumerate_partitions_in_box(l, m):
        lhs = lhs + schur(la, xs) * schur(la, tvals)
    rhs = _stacked_det(_tinv_atoms(l), xs, [m + 1] * l)
    for tv in tvals:
        rhs = rhs * tv ** m
    return lhs == rhs


def verify_generalized_cauchy_det(l, n, m) -> bool:
    """s_{m^l}(x, y, t^-1) = sum over mu in the box of g_mu(x; t^-1) times
    det[Delta^{j-i-1} h_v(y)|_{v=m+1-mu_j}]."""
    from .shapes import enumerate_partitions_in_box
    from .symfunc import g_jt_h, schur
    from .polynomial import Y

    xs = [X(i) for i in range(1, n + 1)]
    ys = [Y(i) for i in range(1, n + 1)]
    tinv = _tinv_atoms(l)
    lhs = schur([m] * l, [as_poly(a) for a in xs + ys] + tinv)
    rhs = _ZERO
    for mu in enumerate_partitions_in_box(l, m):
        det = _stacked_det(tinv, ys, [m + 1 - part(mu, j) for j in range(1, l + 1)])
        if det.is_zero():
            continue
        rhs = rhs + g_jt_h(mu, xs, tinv) * det
    return lhs == rhs


def verify_expansion_det(l) -> bool:
    """The cleared form of the z-ratio determinant: after multiplying row i
    by prod_{m<i}(1 - t_m z_i^-1), det equals the Vandermonde prod (z_j - z_i)."""
    from .polynomial import Z

    zs = [as_poly(Z(i)) for i in range(1, l + 1)]
    tvals = [as_poly(T(i)) for i in range(1, l + 1)]
    grid = []
    for i in range(1, l + 1):
        row = []
        for j in range(1, l + 1):
            entry = zs[i - 1] ** (j - 1)
            if j >= i:
                for mm in range(i, j):
                    entry = entry * (_ONE - tvals[mm - 1] * zs[i - 1] ** -1)
                for mm in range(1, i):
                    entry = entry * (_ONE - tvals[mm - 1] * zs[i - 1] ** -1)
            else:
                for mm in range(1, j):
                    entry = entry * (_ONE - tvals[mm - 1] * zs[i - 1] ** -1)
            row.append(entry)
        grid.append(row)
    lhs = determinant(grid)
    rhs = _ONE
    for i in range(l):
        for j in range(i + 1, l):
            rhs = rhs * (zs[j] - zs[i])
    return lhs == rhs


# ---------------------------------------------------------------------------
# internal determinant-to-Schur reductions
# ---------------------------------------------------------------------------


def inversions(nu) -> int:
    """Pairs (i < j) with nu_i < nu_j: the sorting sign of a tuple with
    distinct entries relative to weakly decreasing order."""
    nu = list(nu)
    return sum(1 for i in range(len(nu)) for j in range(i + 1, len(nu))
               if nu[i] < nu[j])


def det_delta_h_rows(nu, l, n) -> Polynomial:
    """det[ Delta_{t^-1}^{j-1} h_{nu_i - l + 1}(x) ]."""
    xs = [X(i) for i in range(1, n + 1)]
    tinv = _tinv_atoms(l)
    f = h_seq(xs)
    grid = [[forward_closed(tinv[: j - 1], f, nu[i - 1] - l + 1)
             for j in range(1, l + 1)] for i in range(1, l + 1)]
    return determinant(grid)


def det_h_tinv(nu, l, m) -> Polynomial:
    """det[ h_{m + l - nu_j - i}(t_1^-1 ... t_i^-1) ].

    Row i needs h up to degree m + l - min(nu) - i, which falls with i, so
    each row's table extends the one above it by t_i^-1.
    """
    tinv = _tinv_atoms(l)
    grid, H = [], None
    for i in range(1, l + 1):
        H = h_table(max(m + l - min(nu) - i, 0), tinv[i - 1:i], H)
        grid.append([H[d] if (d := m + l - nu[j - 1] - i) >= 0 else 0 for j in range(1, l + 1)])
    return determinant(grid)


def schur_reduction_h_rows(nu, l, n) -> Polynomial:
    """(-1)^{inv(nu)} s_{sorted(nu) - rho_l}(x), zero on repeats."""
    from .symfunc import schur

    if len(set(nu)) < len(nu):
        return _ZERO
    bar = tuple(sorted(nu, reverse=True))
    shape = tuple(bar[i] - (l - 1 - i) for i in range(l))
    sign = (-1) ** inversions(nu)
    return schur(partition(shape), [X(i) for i in range(1, n + 1)]) * sign


def schur_reduction_skew_t(nu, l, m) -> Polynomial:
    """(-1)^{inv(nu)} s_{m^l / (sorted(nu) - rho)}(t^-1), zero on repeats."""
    from .symfunc import schur

    if len(set(nu)) < len(nu):
        return _ZERO
    bar = tuple(sorted(nu, reverse=True))
    shape = partition(tuple(bar[i] - (l - 1 - i) for i in range(l)))
    sign = (-1) ** inversions(nu)
    return schur([m] * l, _tinv_atoms(l), inner=shape) * sign


# ---------------------------------------------------------------------------
# transition probability determinants
# ---------------------------------------------------------------------------


def transition_prob_det(la, mu, l, n, version="h") -> Polynomial:
    """prod (1-t_i x_j) t^{la-mu} times the skew determinant at t^-1; equals
    the multi-step transition probability as a polynomial identity."""
    la, mu = partition(la), partition(mu)
    tvals = _t_values(l)
    tinv = [t ** -1 for t in tvals]
    if version == "h":
        det = skew_jt_h(la, mu, n, t_atoms=tinv[: max(l - 1, 0)])
    elif version == "e":
        det = skew_jt_e(la, mu, n, t_atoms=tinv)
    else:
        raise ValueError(f"unknown version {version!r}")
    exps = [part(la, i) - part(mu, i) for i in range(1, l + 1)]
    return _cdf_prefactor(tvals, [X(i) for i in range(1, n + 1)], exps) * det
