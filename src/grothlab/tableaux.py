"""Enumerators and weight functions for the tableau families.

Tableaux of skew shape outer/inner are stored as tuples of row tuples, where
row r holds the values of columns inner_r+1 .. outer_r left to right.
Set-valued tableaux hold sorted tuples of ints in each cell.  All enumerators
are exhaustive backtracking generators in row-reading order, so their output
order is deterministic (lexicographic in the reading word).
"""

from __future__ import annotations

from functools import lru_cache

from .polynomial import Polynomial, T, X
from .shapes import cells, contains, part, partition

# ---------------------------------------------------------------------------
# generic semistandard enumeration
# ---------------------------------------------------------------------------


def enumerate_ssyt(outer, inner=(), n=1, upper_flags=None, lower_flags=None,
                   strict_rows=False):
    """Semistandard fillings: rows weakly increase, columns strictly increase.

    upper_flags[r-1] caps row r's entries (defaults to n); lower_flags[r-1]
    is a strict lower bound for row r's entries.  strict_rows additionally
    forces strictly increasing rows.
    """
    outer = partition(outer)
    inner = partition(inner)
    if not contains(outer, inner):
        return
    cs = cells(outer, inner)
    if not cs:
        yield _rows_from_grid(outer, inner, {})
        return
    grid: dict = {}

    def cap(r):
        u = n
        if upper_flags is not None and r - 1 < len(upper_flags):
            u = min(u, upper_flags[r - 1])
        return u

    def floor(r):
        if lower_flags is not None and r - 1 < len(lower_flags):
            return lower_flags[r - 1]
        return 0

    def rec(k):
        if k == len(cs):
            yield _rows_from_grid(outer, inner, grid)
            return
        r, c = cs[k]
        lo = floor(r) + 1
        left = grid.get((r, c - 1))
        if left is not None:
            lo = max(lo, left + (1 if strict_rows else 0))
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, cap(r) + 1):
            grid[(r, c)] = v
            yield from rec(k + 1)
        grid.pop((r, c), None)

    yield from rec(0)


def enumerate_rpp(outer, inner=(), n=1):
    """Reverse plane partitions: rows and columns weakly increase."""
    outer = partition(outer)
    inner = partition(inner)
    if not contains(outer, inner):
        return
    cs = cells(outer, inner)
    if not cs:
        yield _rows_from_grid(outer, inner, {})
        return
    grid: dict = {}

    def rec(k):
        if k == len(cs):
            yield _rows_from_grid(outer, inner, grid)
            return
        r, c = cs[k]
        lo = 1
        left = grid.get((r, c - 1))
        if left is not None:
            lo = max(lo, left)
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above)
        for v in range(lo, n + 1):
            grid[(r, c)] = v
            yield from rec(k + 1)
        grid.pop((r, c), None)

    yield from rec(0)


def _rows_from_grid(outer, inner, grid):
    rows = []
    for r in range(1, len(outer) + 1):
        rows.append(tuple(grid[(r, c)] for c in range(part(inner, r) + 1, outer[r - 1] + 1)))
    return tuple(rows)


def enumerate_elegant(outer, inner):
    """Elegant tableaux of outer/inner: skew SSYT with row-r entries < r."""
    l = len(partition(outer))
    yield from enumerate_ssyt(outer, inner, n=max(l - 1, 0),
                              upper_flags=[r - 1 for r in range(1, l + 1)])


def enumerate_increasing_elegant(outer, inner):
    """Elegant tableaux whose rows also strictly increase."""
    l = len(partition(outer))
    yield from enumerate_ssyt(outer, inner, n=max(l - 1, 0),
                              upper_flags=[r - 1 for r in range(1, l + 1)],
                              strict_rows=True)


# ---------------------------------------------------------------------------
# set-valued tableaux
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _subsets_in_range(lo, n):
    """Nonempty sorted subsets of {lo..n} as tuples, ordered by (min, rest)."""
    vals = list(range(lo, n + 1))
    out = []
    m = len(vals)
    for mask in range(1, 1 << m):
        out.append(tuple(vals[i] for i in range(m) if mask >> i & 1))
    out.sort()
    return tuple(out)


def enumerate_svt(outer, n, inner=(), row_caps=None):
    """Set-valued tableaux: cells are nonempty sets, max A <= min(right of A),
    max A < min(below A).  row_caps optionally caps entries per row."""
    outer = partition(outer)
    inner = partition(inner)
    cs = cells(outer, inner)
    if not cs:
        yield _rows_from_grid(outer, inner, {})
        return
    grid: dict = {}

    def rec(k):
        if k == len(cs):
            yield _rows_from_grid(outer, inner, grid)
            return
        r, c = cs[k]
        lo = 1
        left = grid.get((r, c - 1))
        if left is not None:
            lo = max(lo, left[-1])
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above[-1] + 1)
        cap = n
        if row_caps is not None and r - 1 < len(row_caps):
            cap = min(cap, row_caps[r - 1])
        if lo > cap:
            return
        for s in _subsets_in_range(lo, cap):
            grid[(r, c)] = s
            yield from rec(k + 1)
        grid.pop((r, c), None)

    yield from rec(0)


def enumerate_set_valued_elegant(outer, inner):
    """Set-valued tableaux of skew shape with all row-r entries < r."""
    outer = partition(outer)
    l = len(outer)
    yield from enumerate_svt(outer, n=max(l - 1, 0), inner=inner,
                             row_caps=[r - 1 for r in range(1, l + 1)])


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


# Each family's weight is defined once, as an exponent vector over a fixed
# list of atoms; the weight_* functions build the monomial from that vector.


def _weight(vec, atoms, coeff=1) -> Polynomial:
    return Polynomial.from_exponent_counts({vec: coeff}, atoms)


def _xs(n):
    return [X(i) for i in range(1, n + 1)]


def _ts(n):
    return [T(i) for i in range(1, n + 1)]


def _max_entry(rows):
    return max((v for row in rows for v in row), default=0)


def ssyt_exponents(rows, n) -> tuple:
    """Content vector over atoms 1..n: entry v-1 counts the entries equal to v.

    This is the weight of SSYT, elegant and lower-flagged tableaux alike.
    """
    vec = [0] * n
    for row in rows:
        for v in row:
            vec[v - 1] += 1
    return tuple(vec)


def weight_ssyt(rows, atoms=None) -> Polynomial:
    """prod over entries of atom(value); atoms default to (x1, x2, ...)."""
    if atoms is None:
        atoms = _xs(_max_entry(rows))
    return _weight(ssyt_exponents(rows, len(atoms)), atoms)


@lru_cache(maxsize=256)
def _rpp_columns(outer, inner):
    """(l, columns) for a skew shape: its number of rows and, per column,
    the (row index, index within the row) of its cells from top to bottom."""
    outer, inner = partition(outer), partition(inner)
    cols: dict = {}
    for r, c in cells(outer, inner):
        cols.setdefault(c, []).append((r - 1, c - part(inner, r) - 1))
    return len(outer), tuple(tuple(col) for _, col in sorted(cols.items()))


def rpp_exponents(rows, outer, inner, n) -> tuple:
    """(a_1..a_n, b_1..b_{l-1}) of a reverse plane partition, over the atoms
    x_1..x_n, t_1..t_{l-1}.

    a_i counts the columns containing an i; b_r counts the row-r boxes whose
    entry equals the box directly below (b_l is always 0).  Columns weakly
    increase, so one walk down each column finds both: a new value adds 1 to
    its a, a repeated value adds 1 to the b of the row above.
    """
    l, columns = _rpp_columns(tuple(outer), tuple(inner))
    a = [0] * n
    b = [0] * max(l - 1, 0)
    for col in columns:
        prev = None
        for r, j in col:
            v = rows[r][j]
            if v == prev:
                b[r - 1] += 1
            else:
                a[v - 1] += 1
                prev = v
    return tuple(a + b)


def rpp_a_vector(rows, outer, inner, n):
    """a_i = number of columns of the filling containing an i."""
    return rpp_exponents(rows, outer, inner, n)[:n]


def rpp_b_vector(rows, outer, inner):
    """b_r = number of row-r boxes whose entry equals the box directly below."""
    n = _max_entry(rows)
    last = (0,) if partition(outer) else ()  # the last row has no row below
    return rpp_exponents(rows, outer, inner, n)[n:] + last


def weight_rpp(rows, outer, inner=(), n=None) -> Polynomial:
    """t^{b(T)} x^{a(T)} for a reverse plane partition."""
    if n is None:
        n = max(_max_entry(rows), 1)
    vec = rpp_exponents(rows, outer, inner, n)
    return _weight(vec, _xs(n) + _ts(len(vec) - n))


def svt_exponents(rows, n, nrows) -> tuple:
    """(vector, sign) of a set-valued tableau over the atoms x_1..x_n,
    t_1..t_nrows: x_v counts the entries equal to v, t_r the extra entries
    (beyond the first) in the cells of row r, and sign is (-1)^{extras}."""
    x = [0] * n
    t = [0] * nrows
    for r, row in enumerate(rows):
        for cell in row:
            for v in cell:
                x[v - 1] += 1
            if len(cell) > 1:
                t[r] += len(cell) - 1
    return tuple(x + t), -1 if sum(t) & 1 else 1


def weight_svt(rows, nrows=None) -> Polynomial:
    """(-1)^{|e(T)|} t^{e(T)} x^T with the sign carried in the coefficient."""
    if nrows is None:
        nrows = len(rows)
    n = max((cell[-1] for row in rows for cell in row), default=0)
    vec, sign = svt_exponents(rows, n, nrows)
    return _weight(vec, _xs(n) + _ts(nrows), sign)


def weight_elegant(rows) -> Polynomial:
    """t^T: product of t_value over all entries."""
    n = _max_entry(rows)
    return _weight(ssyt_exponents(rows, n), _ts(n))


def increasing_elegant_exponents(rows, n) -> tuple:
    """Entry k-1 counts the cells in some row i holding the value i - k, so
    the weight is prod over cells of t_{i - value}, over atoms t_1..t_n."""
    vec = [0] * n
    for i, row in enumerate(rows, start=1):
        for v in row:
            vec[i - v - 1] += 1
    return tuple(vec)


def weight_increasing_elegant(rows) -> Polynomial:
    """prod over cells in row i of t_{i - value} (uncrowding weight)."""
    n = max((i - v for i, row in enumerate(rows, start=1) for v in row), default=0)
    return _weight(increasing_elegant_exponents(rows, n), _ts(n))


def weight_set_valued_elegant(rows) -> Polynomial:
    """t^T: product of t_value over all entries of all cells."""
    entries = (tuple(v for row in rows for cell in row for v in cell),)
    n = _max_entry(entries)
    return _weight(ssyt_exponents(entries, n), _ts(n))


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin patterns
# ---------------------------------------------------------------------------


def ssyt_to_gt(rows, shape, n):
    """GT pattern of a straight-shape SSYT: row k is the shape formed by the
    entries <= k, padded to length k; row n equals the shape."""
    shape = partition(shape)
    gt = []
    for k in range(1, n + 1):
        counts = []
        for r in range(1, len(shape) + 1):
            counts.append(sum(1 for v in rows[r - 1] if v <= k))
        la = partition(tuple(c for c in counts))
        gt.append(tuple(part(la, i) for i in range(1, k + 1)))
    return tuple(gt)


def gt_to_ssyt(gt):
    """Inverse of ssyt_to_gt; gt[k-1] has length k and interlaces upward."""
    n = len(gt)
    shape = partition(gt[-1]) if n else ()
    rows = []
    for r in range(1, len(shape) + 1):
        row = []
        prev = 0
        for k in range(1, n + 1):
            cur = gt[k - 1][r - 1] if r - 1 < len(gt[k - 1]) else 0
            row.extend([k] * (cur - prev))
            prev = cur
        rows.append(tuple(row))
    return tuple(rows)


def validate_gt(gt) -> bool:
    n = len(gt)
    for k in range(n):
        if len(gt[k]) != k + 1:
            return False
        if any(gt[k][j] < gt[k][j + 1] for j in range(k)):
            return False
    for k in range(n - 1):
        for j in range(k + 1):
            if not (gt[k + 1][j] >= gt[k][j] >= gt[k + 1][j + 1]):
                return False
    return True


def enumerate_gt(shape, n):
    """All GT patterns with top row equal to shape (padded to n)."""
    shape = partition(shape)
    top = tuple(part(shape, i) for i in range(1, n + 1))

    def rec(rows_above):
        k = len(rows_above[-1]) - 1
        if k == 0:
            yield tuple(reversed(rows_above))
            return
        above = rows_above[-1]

        def fill(j, cur):
            if j == k:
                yield from rec(rows_above + [tuple(cur)])
                return
            lo = above[j + 1]
            hi = above[j]
            if cur:
                hi = min(hi, cur[-1])
            for v in range(hi, lo - 1, -1):
                yield from fill(j + 1, cur + [v])

        yield from fill(0, [])

    if n == 0:
        yield ()
        return
    yield from rec([top])


# ---------------------------------------------------------------------------
# nonintersecting lattice paths
# ---------------------------------------------------------------------------

NILP_START_Y = 1
"""Paths for a (flagged, skew) tableau of shape outer/inner with l rows start
at u_i = (l - i + 1 + inner_i, NILP_START_Y) and end at
v_i = (l - i + 1 + outer_i, f_i); east steps at height j carry weight x_j."""


def ssyt_to_nilp(rows, outer, inner=(), flags=None, n=None):
    """Translate a (skew, flagged) SSYT into its path family.

    Path i follows row i: the j-th east step is at height row[j]; returns a
    tuple of paths, each a tuple of lattice points from u_i to v_i.
    """
    outer = partition(outer)
    inner = partition(inner)
    l = len(outer)
    if n is None:
        n = max((v for row in rows for v in row), default=1)
    if flags is None:
        flags = [n] * l
    paths = []
    for i in range(1, l + 1):
        xpos = l - i + 1 + part(inner, i)
        ypos = NILP_START_Y
        pts = [(xpos, ypos)]
        for v in rows[i - 1]:
            while ypos < v:
                ypos += 1
                pts.append((xpos, ypos))
            xpos += 1
            pts.append((xpos, ypos))
        while ypos < flags[i - 1]:
            ypos += 1
            pts.append((xpos, ypos))
        paths.append(tuple(pts))
    return tuple(paths)


def nilp_to_ssyt(paths):
    """Inverse: read each path's east-step heights as a tableau row."""
    rows = []
    for pts in paths:
        row = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 == x0 + 1 and y1 == y0:
                row.append(y0)
            elif not (x1 == x0 and y1 == y0 + 1):
                raise ValueError("not a monotone north/east path")
        rows.append(tuple(row))
    return tuple(rows)


def nilp_weight(paths, atoms) -> Polynomial:
    """Product over east steps of atoms[height-1]: the weight of the tableau
    the paths encode."""
    return _weight(ssyt_exponents(nilp_to_ssyt(paths), len(atoms)), atoms)


def nilp_is_disjoint(paths) -> bool:
    seen = set()
    for pts in paths:
        for p in pts:
            if p in seen:
                return False
            seen.add(p)
    return True

