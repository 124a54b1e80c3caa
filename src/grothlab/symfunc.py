"""Schur, flagged/multi-Schur, refined (dual) Grothendieck polynomials, and
the identity verifiers.

Routes and conventions:

* ``dual_grothendieck`` (g) carries parameters t_1..t_{l-1} for a shape of
  length l; all five routes return the identical canonical polynomial.
* ``grothendieck`` (G) carries t_1..t_{n-1} for n x-variables.
* Coefficient families: ``e_coeff(la, mu, t_atoms)`` sums t^T over elegant
  tableaux of la/mu; ``E_coeff(la, mu, t_atoms, negate)`` sums
  prod t_{i - value} over increasing elegant tableaux of mu/la, optionally
  with every t negated; ``p_coeff(nu, la, ts)`` is the lower-flagged skew
  count with its determinant form.  The t atoms default to t_1, t_2, ...
* Every tableau-sum route (``rpp``, ``svt``, the ``combinatorial`` Schur
  routes and the coefficient families) enumerates its tableaux, counts their
  exponent vectors (``tableaux.*_exponents``) and builds one polynomial with
  ``Polynomial.from_exponent_counts``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .diffops import one_variable_factorized
from .polynomial import (
    _FAM_SHIFT,
    _h_grid,
    GAMMA,
    Polynomial,
    T,
    X,
    Y,
    as_poly,
    determinant,
    divided_difference_word,
    e_table,
    h_table,
    longest_word,
)
from .shapes import (
    conjugate,
    contains,
    enumerate_partitions_in_box,
    part,
    partition,
    staircase,
    subpartitions,
)
from . import tableaux as tb


def _atoms(vals):
    return [as_poly(a) for a in vals]


def _tableau_sum(vectors, atoms) -> Polynomial:
    """sum of prod(atoms[i] ** v[i]) over the exponent vectors v."""
    return Polynomial.from_exponent_counts(Counter(vectors), atoms)


# ---------------------------------------------------------------------------
# Schur functions
# ---------------------------------------------------------------------------


def schur(la, atoms, route="jacobi_trudi", inner=()) -> Polynomial:
    """Schur polynomial of the given atoms (skew if inner is nonempty)."""
    la = partition(la)
    inner = partition(inner)
    if not contains(la, inner):
        return Polynomial.zero()
    atoms = _atoms(atoms)
    if route == "combinatorial":
        n = len(atoms)
        return _tableau_sum((tb.ssyt_exponents(rows, n)
                             for rows in tb.enumerate_ssyt(la, inner, n=n)), atoms)
    if route == "jacobi_trudi":
        l = len(la)
        if l == 0:
            return Polynomial.one()
        H = h_table(part(la, 1) + l - 1, atoms)
        return determinant(_h_grid(la, [H] * l, inner))
    raise ValueError(f"unknown schur route {route!r}")


def flagged_schur(la, flags, atoms, route="jacobi_trudi", inner=()) -> Polynomial:
    """Row-flagged Schur polynomial: row i entries at most flags[i-1].

    The Jacobi-Trudi route uses alphabet prefixes atoms[:flags[i-1]].
    """
    la = partition(la)
    inner = partition(inner)
    atoms = _atoms(atoms)
    l = len(la)
    if route == "combinatorial":
        n = len(atoms)
        return _tableau_sum((tb.ssyt_exponents(rows, n) for rows in
                             tb.enumerate_ssyt(la, inner, n=n, upper_flags=list(flags))),
                            atoms)
    if route == "jacobi_trudi":
        if l == 0:
            return Polynomial.one()
        tables = [h_table(part(la, i) + l - i, atoms[:flags[i - 1]])
                  for i in range(1, l + 1)]
        return determinant(_h_grid(la, tables, inner))
    raise ValueError(f"unknown flagged route {route!r}")


def multi_schur(index_seq, diffs) -> Polynomial:
    """Multi-Schur determinant det[ S_{I_k + h - k}(x^{(k)} - t^{(k)}) ].

    ``diffs[k-1]`` is a pair (x_atoms, t_atoms) for column k; S_i is the
    generating-series coefficient of u^i in prod(1-t u)/prod(1-x u).

    Column k reads its table S_0..S_{I_k + l - k}: h of its x atoms, then one
    (1 - t u) factor at a time.  When column k's atoms extend those of the
    column before and it needs no higher degree, its table extends that one.
    """
    index_seq = list(index_seq)
    l = len(index_seq)
    if l != len(diffs):
        raise ValueError("index/alphabet length mismatch")
    if l == 0:
        return Polynomial.one()
    if l > 8:
        raise ValueError("multi-Schur size capped at 8")
    tables = []
    done_x, done_t, S = [], [], None
    for k, (xs, ts) in enumerate(diffs, 1):
        top = index_seq[k - 1] + l - k
        if top < 0:
            return Polynomial.zero()  # column k is all zero
        xs, ts = _atoms(xs), _atoms(ts)
        if not (S and len(S) > top and xs[:len(done_x)] == done_x
                and ts[:len(done_t)] == done_t):
            done_x, done_t, S = [], [], None
        S = h_table(top, xs[len(done_x):], S)
        S = e_table(top, [-t for t in ts[len(done_t):]], S)
        tables.append(S)
        done_x, done_t = xs, ts
    return determinant([list(row) for row in zip(*_h_grid(index_seq, tables))])


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------


def _t_atoms(t_atoms, count):
    """The first count t atoms: t_atoms[:count], or t_1..t_count by default."""
    if t_atoms is None:
        return [T(i) for i in range(1, count + 1)]
    return _atoms(t_atoms)[:count]


def e_coeff(la, mu, t_atoms=None) -> Polynomial:
    """sum of t^T over elegant tableaux of shape la/mu (0 if mu not in la)."""
    la, mu = partition(la), partition(mu)
    if la == mu:
        return Polynomial.one()
    if not contains(la, mu) or part(la, 1) != part(mu, 1):
        return Polynomial.zero()
    ts = _t_atoms(t_atoms, len(la) - 1)
    return _tableau_sum((tb.ssyt_exponents(rows, len(ts))
                         for rows in tb.enumerate_elegant(la, mu)), ts)


def E_coeff(la, mu, t_atoms=None, negate=False) -> Polynomial:
    """sum over increasing elegant tableaux of mu/la of prod t_{i - value};
    negate replaces every t by -t."""
    la, mu = partition(la), partition(mu)
    if la == mu:
        return Polynomial.one()
    if not contains(mu, la) or part(la, 1) != part(mu, 1):
        return Polynomial.zero()
    ts = _t_atoms(t_atoms, len(mu) - 1)
    total = _tableau_sum((tb.increasing_elegant_exponents(rows, len(ts))
                          for rows in tb.enumerate_increasing_elegant(mu, la)), ts)
    return -total if negate and (sum(mu) - sum(la)) % 2 else total


def p_coeff_det(nu, la, t_atoms) -> Polynomial:
    """det[ h_{nu_i - la_j - i + j}(t_m, ..., t_j) ] over i,j = 1..l(nu)."""
    nu, la = partition(nu), partition(la)
    l = len(nu)
    if l == 0:
        return Polynomial.one()
    ts = _atoms(t_atoms)
    # column j needs h up to degree nu_1 - la_j + j - 1, of t_j..t_m
    tables = [h_table(max(part(nu, 1) - part(la, j) + j - 1, 0), ts[j - 1:])
              for j in range(1, l + 1)]
    return determinant([[tables[j - 1][d] if (d := part(nu, i) - part(la, j) - i + j) >= 0 else 0
                         for j in range(1, l + 1)] for i in range(1, l + 1)])


def p_coeff_tableaux(nu, la, t_atoms) -> Polynomial:
    """sum of t^T over skew SSYT of nu/la, max entry m, row-i entries > i-1."""
    nu, la = partition(nu), partition(la)
    if not contains(nu, la):
        return Polynomial.zero()
    ts = _atoms(t_atoms)
    m = len(ts)
    flags = [r - 1 for r in range(1, len(nu) + 1)]
    return _tableau_sum((tb.ssyt_exponents(rows, m)
                         for rows in tb.enumerate_ssyt(nu, la, n=m, lower_flags=flags)), ts)


def p_coeff(nu, la, t_atoms) -> Polynomial:
    """Lower-flagged expansion coefficient; determinant and tableau routes
    are computed together and must agree."""
    d = p_coeff_det(nu, la, t_atoms)
    s = p_coeff_tableaux(nu, la, t_atoms)
    if d != s:
        raise AssertionError(f"p-coefficient routes disagree for {nu}/{la}")
    return d


# ---------------------------------------------------------------------------
# refined dual Grothendieck polynomials g
# ---------------------------------------------------------------------------


def _prepare(obj, route, n, t_atoms, count):
    """ROUTES[obj][route], x_1..x_n, and the t atoms (t_1..t_count by
    default) as polynomials; an unknown route raises ValueError."""
    if route not in ROUTES[obj]:
        raise ValueError(f"unknown {obj.replace('_', ' ')} route {route!r}")
    if t_atoms is None:
        t_atoms = [T(i) for i in range(1, count + 1)]
    return ROUTES[obj][route], [as_poly(X(i)) for i in range(1, n + 1)], _atoms(t_atoms)


def dual_grothendieck(la, n, t_atoms=None, route="jt_h") -> Polynomial:
    """g_la(x_1..x_n; t), polynomial in x and the t atoms, by ROUTES["g"].

    t_atoms defaults to (t_1, ..., t_{l-1}); longer lists are fine (the
    extras are unused).
    """
    la = partition(la)
    l = len(la)
    fn, xs, ts = _prepare("g", route, n, t_atoms, l - 1)
    if len(ts) < l - 1:
        raise ValueError(f"need at least {l - 1} t atoms for shape {la}")
    if l == 0:
        return Polynomial.one()
    return fn(la, xs, ts)


def _g_rpp(la, xs, ts):
    return _skew_rpp((la, ()), xs, ts)


def _g_schur_decomp(la, xs, ts):
    total = Polynomial.zero()
    for mu in subpartitions(la):
        c = e_coeff(la, mu, ts)
        if c.is_zero():
            continue
        total = total + c * schur(mu, xs)
    return total


def g_jt_h(la, x_atoms, t_atoms) -> Polynomial:
    """g_la with arbitrary atoms in both slots, by the h-determinant
    det[h_{la_i - i + j}(x, t_1..t_{i-1})].

    Row i needs h up to degree la_i + l - i, which falls with i, so each
    row's table extends the one above it by t_{i-1}.
    """
    la = partition(la)
    l = len(la)
    if len(t_atoms) < l - 1:
        raise ValueError(f"need at least {l - 1} t atoms for shape {la}")
    tables = []
    H = None
    for i in range(1, l + 1):
        H = h_table(part(la, i) + l - i, t_atoms[i - 2: i - 1] if H else x_atoms, H)
        tables.append(H)
    return determinant(_h_grid(la, tables))


def _g_jt_e(la, xs, ts):
    lac = conjugate(la)
    size = len(lac)
    grid = []
    for i in range(1, size + 1):
        E = e_table(part(lac, i) + size - i, xs + ts[: part(lac, i) - 1])
        grid.append([E[d] if (d := part(lac, i) + j - i) >= 0 else 0
                     for j in range(1, size + 1)])
    return determinant(grid)


def _g_multischur(la, xs, ts):
    return multi_schur(list(la), [(xs + ts[: k - 1], []) for k in range(1, len(la) + 1)])


def skew_dual_grothendieck(outer, inner, n, t_atoms=None, route="rpp") -> Polynomial:
    """g_{outer/inner}(x_1..x_n; t), by ROUTES["skew_g"]."""
    outer, inner = partition(outer), partition(inner)
    fn, xs, ts = _prepare("skew_g", route, n, t_atoms, len(outer) - 1)
    if not contains(outer, inner):
        raise ValueError(f"{inner} not contained in {outer}")
    return fn((outer, inner), xs, ts)


def _skew_rpp(shape, xs, ts):
    outer, inner = shape
    n = len(xs)
    return _tableau_sum((tb.rpp_exponents(rows, outer, inner, n)
                         for rows in tb.enumerate_rpp(outer, inner, n)),
                        xs + ts[: max(len(outer) - 1, 0)])


def _skew_one_var_chain(shape, xs, ts):
    # chain the factorized single-variable skew over x_1..x_n; each step
    # visits every nu between mid and outer, not only horizontal strips,
    # since single-variable skew RPPs allow columns
    outer, inner = shape
    states = {inner: Polynomial.one()}
    for x in xs:
        nxt: dict = {}
        for mid, w in states.items():
            for nu in subpartitions(outer, mid):
                f = one_variable_factorized(nu, mid, len(nu), x, ts)
                if f.is_zero():
                    continue
                nxt[nu] = nxt.get(nu, Polynomial.zero()) + w * f
        states = nxt
    return states.get(outer, Polynomial.zero())


# ---------------------------------------------------------------------------
# refined Grothendieck polynomials G
# ---------------------------------------------------------------------------


def grothendieck(la, n, t_atoms=None, route="schur_expansion") -> Polynomial:
    """G_la(x_1..x_n; t) by ROUTES["G"]; t_atoms defaults to (t_1, ..., t_{n-1})."""
    la = partition(la)
    fn, xs, ts = _prepare("G", route, n, t_atoms, n - 1)
    if len(la) > n:
        return Polynomial.zero()
    return fn(la, xs, ts)


def _G_svt(la, xs, ts):
    n = len(xs)
    ts_rows = ts[: len(la)]
    counts: dict = {}
    for rows in tb.enumerate_svt(la, n):
        vec, sign = tb.svt_exponents(rows, n, len(ts_rows))
        counts[vec] = counts.get(vec, 0) + sign
    return Polynomial.from_exponent_counts(counts, xs + ts_rows)


def _G_schur_expansion(la, xs, ts):
    total = Polynomial.zero()
    # mu >= la with mu_1 = la_1 and at most n rows (the E support)
    for mu in subpartitions((part(la, 1),) * len(xs), la):
        c = E_coeff(la, mu, ts, negate=True)
        if c.is_zero():
            continue
        total = total + c * schur(mu, xs)
    return total


def _G_jacobi_trudi(la, xs, ts):
    n = len(xs)
    H = h_table(part(la, 1) + n - 1, xs)
    grid = []
    for i in range(1, n + 1):
        E = e_table(i - 1, [-a for a in ts[: i - 1]])
        grid.append([Polynomial.sum(E[k] * H[d] for k in range(i)
                                    if (d := k + part(la, i) - i + j) >= 0)
                     for j in range(1, n + 1)])
    return determinant(grid)


def _G_divided_diff(la, xs, ts):
    n = len(xs)
    if len(ts) < n - 1:
        raise ValueError("divided_diff route needs t_1..t_{n-1}")
    rho = staircase(n)
    p = Polynomial.monomial([(X(i), part(la, i) + rho[i - 1]) for i in range(1, n + 1)])
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            p = p * (Polynomial.one() - ts[i - 1] * xs[j - 1])
    return divided_difference_word(p, longest_word(n))


def grothendieck_multischur(la, n, t_atoms=None) -> Polynomial:
    """The multi-Schur form: (-1)^{n(n-1)/2} t^{rho_n} s_I with
    I = (la_1, la_2+1, ..., la_n+n-1) and k-th alphabet x - (t_1^-1...t_{k-1}^-1)."""
    la = partition(la)
    ts = _atoms([T(i) for i in range(1, n)] if t_atoms is None else t_atoms)
    xs = [as_poly(X(i)) for i in range(1, n + 1)]
    index_seq = [part(la, k) + k - 1 for k in range(1, n + 1)]
    diffs = [(xs, [t ** -1 for t in ts[: k - 1]]) for k in range(1, n + 1)]
    det = multi_schur(index_seq, diffs)
    rho_mono = Polynomial.one()
    for i in range(1, n):
        rho_mono = rho_mono * ts[i - 1] ** (n - i)
    return det * rho_mono * ((-1) ** (n * (n - 1) // 2))


# Every route to g, skew g and G.  Each takes (shape, xs, ts): x_1..x_n and
# the t atoms as polynomials, and (outer, inner) as the shape of skew g.  An
# object's first route is its tableau enumeration, which `verify routes`
# checks the others against; each comment says what the route computes
# through.
ROUTES = {
    "g": {
        "rpp": _g_rpp,  # enumeration of reverse plane partitions
        "schur_decomp": _g_schur_decomp,  # elegant-tableau coefficients x Schur
        "jt_h": g_jt_h,  # h-determinant
        "jt_e": _g_jt_e,  # e-determinant of the conjugate shape
        # the transposed jt_h grid, so it checks only det(A) = det(A^T)
        "multischur": _g_multischur,
    },
    "skew_g": {
        "rpp": _skew_rpp,  # enumeration of skew reverse plane partitions
        # one-variable factorized weights, chained over x_1..x_n
        "one_var_chain": _skew_one_var_chain,
    },
    "G": {
        "svt": _G_svt,  # enumeration of set-valued tableaux
        "schur_expansion": _G_schur_expansion,  # increasing elegant coefficients x Schur
        "jacobi_trudi": _G_jacobi_trudi,  # h-determinant with e(-t) row factors
        # divided differences of x^(la + rho) prod(1 - t_i x_j)
        "divided_diff": _G_divided_diff,
    },
}


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    name: str
    params: dict
    holds: bool
    lhs: Polynomial | None = None
    rhs: Polynomial | None = None
    notes: list = field(default_factory=list)

    def __bool__(self):
        return self.holds


def _report(name, params, lhs, rhs, notes=None):
    return IdentityReport(name, params, lhs == rhs, lhs, rhs, notes or [])


def verify_cauchy(m, l, n) -> IdentityReport:
    """s_{m^l}(x, t, y) = sum over la in the l x m box of
    g_la(x; t) g_{la^dagger}(y; t reversed)."""
    ts = [T(i) for i in range(1, l)]
    xs = [X(i) for i in range(1, n + 1)]
    ys = [Y(i) for i in range(1, n + 1)]
    lhs = schur([m] * l, xs + ts + ys)
    rhs = Polynomial.zero()
    t_rev = list(reversed(ts))
    for la in enumerate_partitions_in_box(l, m):
        left = dual_grothendieck(la, n, ts)
        comp = tuple(m - part(la, l + 1 - j) for j in range(1, l + 1))
        right = g_jt_h(comp, ys, t_rev)
        rhs = rhs + left * right
    return _report("cauchy", dict(m=m, l=l, n=n), lhs, rhs)


def _littlewood_sum(m, width, l, n) -> Polynomial:
    """sum over la in the l x width box of prod t_i^{m - la_i} g_la(x; t_1..t_{l-1})."""
    ts = [as_poly(T(i)) for i in range(1, l + 1)]
    total = Polynomial.zero()
    for la in enumerate_partitions_in_box(l, width):
        w = Polynomial.one()
        for i in range(1, l + 1):
            w = w * ts[i - 1] ** (m - part(la, i))
        total = total + w * dual_grothendieck(la, n, ts[:-1])
    return total


def verify_littlewood(m, l, n) -> IdentityReport:
    """s_{m^l}(x, t, t_l) = sum prod t_i^{m - la_i} g_la(x; t)."""
    if m < l:
        raise ValueError("needs m >= l")
    lhs = schur([m] * l, [X(i) for i in range(1, n + 1)] + [T(i) for i in range(1, l + 1)])
    return _report("littlewood", dict(m=m, l=l, n=n), lhs, _littlewood_sum(m, m, l, n))


def verify_coincidence(m, l, n) -> IdentityReport:
    """s_{m^l}(x, t) = g_{m^l}(x; t)."""
    ts = [T(i) for i in range(1, l)]
    xs = [X(i) for i in range(1, n + 1)]
    lhs = schur([m] * l, xs + ts)
    rhs = dual_grothendieck([m] * l, n, ts)
    return _report("coincidence", dict(m=m, l=l, n=n), lhs, rhs)


def verify_symmetry(la, n) -> IdentityReport:
    """g is symmetric in t_{i-1}, t_i whenever la_i = la_{i+1} (i >= 2).

    For i = 1 the literal swap t_1 <-> x_j is evaluated and recorded in the
    notes without being asserted.
    """
    la = partition(la)
    l = len(la)
    ts = [T(i) for i in range(1, l)]
    g = dual_grothendieck(la, n, ts)
    holds = True
    notes = []
    for i in range(1, l):
        if part(la, i) != part(la, i + 1):
            continue
        if i >= 2:
            ok = g.is_symmetric_under_swap(T(i - 1), T(i))
            notes.append(f"t{i-1}<->t{i}: {'ok' if ok else 'FAIL'}")
            holds = holds and ok
        else:
            for j in range(1, l):
                if j > n:
                    break
                ok = g.is_symmetric_under_swap(X(j), T(1))
                notes.append(f"x{j}<->t1 (recorded, not asserted): {ok}")
    return IdentityReport("symmetry", dict(la=la, n=n), holds, None, None, notes)


def verify_branching(la, n) -> IdentityReport:
    """g_la(x, gamma; t) = sum over mu <= la of
    gamma^{la_1-mu_1} t_1^{la_2-mu_2} ... g_mu(x; gamma, t)."""
    la = partition(la)
    l = len(la)
    ts = [T(i) for i in range(1, l)]
    xs = [X(i) for i in range(1, n + 1)]
    lhs = g_jt_h(la, xs + [GAMMA], ts)
    rhs = Polynomial.zero()
    gam = as_poly(GAMMA)
    for mu in subpartitions(la):
        w = gam ** (part(la, 1) - part(mu, 1))
        for i in range(2, l + 1):
            d = part(la, i) - part(mu, i)
            if d < 0:
                w = Polynomial.zero()
                break
            w = w * Polynomial.var(T(i - 1)) ** d
        if w.is_zero():
            continue
        rhs = rhs + w * g_jt_h(mu, xs, [GAMMA] + ts)
    return _report("branching", dict(la=la, n=n), lhs, rhs)


def verify_generalized_coincidence(nu, m, n) -> IdentityReport:
    """s_nu(x, t_1..t_m) = sum over la <= nu of p_nu^la(t~) g_la(x; t)."""
    nu = partition(nu)
    ts_tilde = [T(i) for i in range(1, m + 1)]
    xs = [X(i) for i in range(1, n + 1)]
    lhs = schur(nu, xs + ts_tilde)
    rhs = Polynomial.zero()
    for la in subpartitions(nu):
        p = p_coeff(nu, la, ts_tilde)
        if p.is_zero():
            continue
        rhs = rhs + p * dual_grothendieck(la, n, ts_tilde[: max(len(nu) - 1, 0)])
    return _report("generalized_coincidence", dict(nu=nu, m=m, n=n), lhs, rhs)


def verify_duality(la, mu, box) -> IdentityReport:
    """sum over la <= nu <= mu of E_la^nu(-t) e_mu^nu(t) = delta_{la,mu}."""
    la, mu = partition(la), partition(mu)
    n, k = box
    if len(mu) > n or part(mu, 1) > k:
        raise ValueError(f"duality needs mu={mu} inside the {n} x {k} box")
    total = Polynomial.zero()
    for nu in subpartitions(mu, la):
        a = E_coeff(la, nu, negate=True)
        if a.is_zero():
            continue
        b = e_coeff(mu, nu)
        if b.is_zero():
            continue
        total = total + a * b
    expected = Polynomial.one() if la == mu else Polynomial.zero()
    return _report("duality", dict(la=la, mu=mu), total, expected)


def _vandermonde_cleared(vals, S):
    """prod over same-side pairs a<b of (v_b - v_a), times the sign from
    cross pairs (i in complement, j in S) with j < i.

    This equals prod_{a<b}(v_b - v_a) / prod_{i notin S, j in S}(v_j - v_i).
    """
    N = len(vals)
    Sset = set(S)
    out = Polynomial.one()
    sign = 1
    for a in range(N):
        for b in range(a + 1, N):
            both_in = a in Sset and b in Sset
            both_out = a not in Sset and b not in Sset
            if both_in or both_out:
                out = out * (vals[b] - vals[a])
            elif a in Sset and b not in Sset:
                # cross pair with the S-element first: j = a < i = b
                sign = -sign
    return out * sign


def verify_fnr_dual(la, n) -> IdentityReport:
    """The subset-sum interpolation identity for g, checked after clearing
    the common denominator prod_{i<j}(x_j - x_i) with x_{n+j} := t_j."""
    from itertools import combinations

    la = partition(la)
    l = len(la)
    k = 1
    while k < l and part(la, k + 1) == part(la, 1):
        k += 1
    N = n + k - 1
    vals = [as_poly(X(i)) for i in range(1, n + 1)]
    vals += [as_poly(T(j)) for j in range(1, k)]
    ts_tail = [as_poly(T(j)) for j in range(k, l)]
    denom_full = Polynomial.one()
    for a in range(N):
        for b in range(a + 1, N):
            denom_full = denom_full * (vals[b] - vals[a])
    lhs = dual_grothendieck(la, n, [T(i) for i in range(1, l)]) * denom_full
    rhs = Polynomial.zero()
    for S in combinations(range(N), l):
        xsel = [vals[j] for j in S]
        numer = Polynomial.one()
        for i in range(N):
            if i not in S:
                for j in S:
                    numer = numer * vals[j]
        gpart = g_jt_h(la, xsel[: l - k + 1], xsel[l - k + 1:] + ts_tail)
        rhs = rhs + gpart * numer * _vandermonde_cleared(vals, S)
    return _report("fnr_dual", dict(la=la, n=n), lhs, rhs)


def w_poly(la, x_sel, m, k, n, t_atoms) -> Polynomial:
    """W_la(x_S; t) = sum over nu in the k x (m-k) box of
    E_{(m-k)^{n-k} + la}^{(m-k)^{n-k} + nu}(-t) s_nu(x_S)."""
    la = partition(la)
    base = [m - k] * (n - k)
    total = Polynomial.zero()
    for nu in enumerate_partitions_in_box(k, m - k):
        alpha = partition(tuple(base) + tuple(part(la, i) for i in range(1, k + 1)))
        betap = partition(tuple(base) + tuple(part(nu, i) for i in range(1, k + 1)))
        c = E_coeff(alpha, betap, t_atoms, negate=True)
        if c.is_zero():
            continue
        total = total + c * schur(nu, x_sel)
    return total


def verify_fnr_G(la, m, k, n) -> IdentityReport:
    """The subset identity for G_mu with mu = (m-k)^{n-k} + la, cleared by
    prod_{i<j}(x_j - x_i)."""
    from itertools import combinations

    la = partition(la)
    if not 0 <= k <= min(m, n):
        raise ValueError(f"fnr_G needs 0 <= k <= min(m, n), got m={m}, k={k}, n={n}")
    if len(la) > k or part(la, 1) > m - k:
        raise ValueError(f"fnr_G needs la={la} inside the {k} x {m - k} box")
    mu = partition([m - k] * (n - k) + [part(la, i) for i in range(1, k + 1)])
    ts = [as_poly(T(i)) for i in range(1, n)]
    vals = [as_poly(X(i)) for i in range(1, n + 1)]
    denom_full = Polynomial.one()
    for a in range(n):
        for b in range(a + 1, n):
            denom_full = denom_full * (vals[b] - vals[a])
    lhs = grothendieck(mu, n, ts) * denom_full
    rhs = Polynomial.zero()
    for S in combinations(range(n), k):
        x_sel = [vals[j] for j in S]
        numer = Polynomial.one()
        for i in range(n):
            if i not in S:
                numer = numer * vals[i] ** m
        # the summand denominators are prod (x_i - x_j), i notin S, j in S:
        # flip each cleared cross pair relative to the dual-g version
        cross = sum(1 for i in range(n) if i not in S for j in S)
        cleared = _vandermonde_cleared(vals, S) * ((-1) ** cross)
        rhs = rhs + w_poly(la, x_sel, m, k, n, ts) * numer * cleared
    return _report("fnr_G", dict(la=la, m=m, k=k, n=n), lhs, rhs)


def verify_finite_cauchy_schur(m, l, n) -> IdentityReport:
    """sum over la in the l x m box of s_la(x) s_{la^dagger}(t^-1) =
    s_{m^l}(x, t^-1), in the Laurent ring."""
    xs = [as_poly(X(i)) for i in range(1, n + 1)]
    tinvs = [as_poly(T(i)) ** -1 for i in range(1, l + 1)]
    lhs = Polynomial.zero()
    for la in enumerate_partitions_in_box(l, m):
        comp = partition(tuple(m - part(la, l + 1 - j) for j in range(1, l + 1)))
        lhs = lhs + schur(la, xs) * schur(comp, tinvs)
    rhs = schur([m] * l, xs + tinvs)
    return _report("finite_cauchy_schur", dict(m=m, l=l, n=n), lhs, rhs)


def verify_cauchy_littlewood_box(m, l, n) -> IdentityReport:
    """The boxed Cauchy-Littlewood identity for l = n, cross-multiplied:

    [sum prod t_i^{m-la_i} g_la(x;t)] * prod_{i<j}(x_i-x_j)(t_i^-1-t_j^-1)
      = prod_i t_i^m * det[ sum_{k<m+n} (x_i t_j^-1)^k ].
    """
    if l != n:
        raise ValueError("the cross-multiplied check is implemented for l == n")
    xs = [as_poly(X(i)) for i in range(1, n + 1)]
    ts = [as_poly(T(i)) for i in range(1, l + 1)]
    van = Polynomial.one()
    for i in range(n):
        for j in range(i + 1, n):
            van = van * (xs[i] - xs[j]) * (ts[i] ** -1 - ts[j] ** -1)
    lhs = _littlewood_sum(m, m, l, n) * van
    rhs = determinant([[Polynomial.sum((x * t ** -1) ** kk for kk in range(m + n))
                        for t in ts] for x in xs])
    for i in range(l):
        rhs = rhs * ts[i] ** m
    return _report("cauchy_littlewood_box", dict(m=m, l=l, n=n), lhs, rhs)


def verify_bounded_cauchy_littlewood(l, n, degree_cap=8) -> IdentityReport:
    """sum over la with at most l rows of prod t_i^{-la_i} g_la(x;t) =
    prod_{i,j} t_j/(t_j - x_i), compared after truncating both sides to
    total x-degree <= degree_cap."""
    xs = [as_poly(X(i)) for i in range(1, n + 1)]
    ts = [as_poly(T(i)) for i in range(1, l + 1)]
    lhs = _littlewood_sum(0, degree_cap, l, n)
    rhs = Polynomial.one()
    for i in range(n):
        for j in range(l):
            rhs = rhs * Polynomial.sum((ts[j] ** -1 * xs[i]) ** kk for kk in range(degree_cap + 1))
    lhs = _truncate_x_degree(lhs, degree_cap)
    rhs = _truncate_x_degree(rhs, degree_cap)
    return _report("bounded_cauchy_littlewood",
                   dict(l=l, n=n, D=degree_cap), lhs, rhs)


def _truncate_x_degree(p: Polynomial, cap: int) -> Polynomial:
    x_fam = X(1).code >> _FAM_SHIFT
    out = {}
    for mono, coeff in p.terms.items():
        deg = sum(e for c, e in mono if c >> _FAM_SHIFT == x_fam)
        if deg <= cap:
            out[mono] = coeff
    return Polynomial(out)


IDENTITY_REGISTRY = {
    "cauchy": verify_cauchy,
    "littlewood": verify_littlewood,
    "coincidence": verify_coincidence,
    "symmetry": verify_symmetry,
    "branching": verify_branching,
    "generalized_coincidence": verify_generalized_coincidence,
    "duality": verify_duality,
    "fnr_dual": verify_fnr_dual,
    "fnr_G": verify_fnr_G,
    "finite_cauchy_schur": verify_finite_cauchy_schur,
    "cauchy_littlewood_box": verify_cauchy_littlewood_box,
    "bounded_cauchy_littlewood": verify_bounded_cauchy_littlewood,
}


def verify_identity(name, **params) -> IdentityReport:
    if name not in IDENTITY_REGISTRY:
        raise ValueError(f"unknown identity {name!r}")
    return IDENTITY_REGISTRY[name](**params)
