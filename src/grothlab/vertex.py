"""Five-vertex models: L/R-matrices, Yang-Baxter (RLL) checking, jagged-grid
partition functions, and the A/B/C/D row operators.

Conventions
-----------
An L-matrix maps ``(aux_in, q_in, q_out, aux_out)`` to a Boltzmann weight in
a formal spectral symbol z (stored as the variable z1).  ``q_in`` is the
bottom edge and ``q_out`` the top edge of the vertex.  For east-flow rows the
auxiliary line enters at the left; jagged rows of the G-model flow west, with
the auxiliary line entering at the right.  Absent keys have weight zero.

An R-matrix maps ``(in_i, in_j, out_i, out_j)`` to a weight in z1 (= z_i) and
z2 (= z_j).  The RLL contraction used by :func:`check_ybe` fixes the slot
reading of the published weight tables; the bundled dictionaries are stored
already translated into this canonical key order, which is pinned by the
integrability of the bundled families (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomial import BETA, Polynomial, PolyMatrix, T, X, Z, as_poly
from .shapes import part, partition, subpartitions

_ONE = Polynomial.one()
_ZERO = Polynomial.zero()
_ZI = as_poly(Z(1))
_ZJ = as_poly(Z(2))


@dataclass(frozen=True)
class LMatrix:
    name: str
    weights: dict  # (aux_in, q_in, q_out, aux_out) -> Polynomial in z1

    def specialize(self, z: Polynomial) -> dict:
        sub = {Z(1): as_poly(z)}
        return {k: w.substitute(sub) for k, w in self.weights.items()}

    def perturbed(self, key, weight) -> "LMatrix":
        w = dict(self.weights)
        w[key] = as_poly(weight)
        return LMatrix(self.name + "~perturbed", w)


@dataclass(frozen=True)
class RMatrix:
    name: str
    weights: dict  # (in_i, in_j, out_i, out_j) -> Polynomial in z1, z2


def lmatrix_nilp() -> LMatrix:
    """One east step per column of travel; the all-occupied crossing is
    forbidden (paths are vertex disjoint)."""
    z = _ZI
    return LMatrix("nilp", {
        (0, 0, 0, 0): _ONE,
        (0, 1, 1, 0): _ONE,       # vertical pass
        (1, 0, 0, 1): z,          # horizontal pass
        (1, 0, 1, 0): z,          # turn: west in, north out
        (0, 1, 0, 1): _ONE,       # turn: south in, east out
    })


def lmatrix_fermionic(beta=None) -> LMatrix:
    """The modified five-vertex model; beta=None keeps the formal symbol."""
    z = _ZI
    b = as_poly(BETA) if beta is None else as_poly(beta)
    return LMatrix("fermionic", {
        (0, 0, 0, 0): _ONE,
        (1, 1, 1, 1): _ONE,       # crossing allowed
        (1, 0, 0, 1): z,          # horizontal pass
        (1, 0, 1, 0): _ONE,       # turn: west in, north out
        (0, 1, 0, 1): _ONE + b * z,  # turn: south in, east out
    })


def lmatrix_g_jagged() -> LMatrix:
    """West-flow jagged rows of the G-model: paths step up-left, at most one
    flat step at a time, touching corners allowed."""
    z = _ZI
    return LMatrix("g_jagged", {
        (0, 0, 0, 0): _ONE,
        (1, 1, 1, 1): z,          # corner touch
        (0, 1, 1, 0): _ONE,       # vertical pass
        (0, 1, 0, 1): _ONE,       # turn: south in, west out
        (1, 0, 1, 0): z,          # turn: east in, north out
    })


def rmatrix_nilp() -> RMatrix:
    return RMatrix("nilp", {
        (0, 0, 0, 0): _ZJ,
        (0, 1, 0, 1): _ZJ - _ZI,
        (1, 0, 0, 1): _ZI,
        (0, 1, 1, 0): _ZJ,
        (1, 1, 1, 1): _ZI,
    })


def rmatrix_fermionic(beta=None) -> RMatrix:
    b = as_poly(BETA) if beta is None else as_poly(beta)
    return RMatrix("fermionic", {
        (0, 0, 0, 0): _ONE + b * _ZI,
        (1, 1, 1, 1): _ONE + b * _ZI,
        (0, 1, 0, 1): _ZJ - _ZI,
        (0, 1, 1, 0): _ONE + b * _ZI,
        (1, 0, 0, 1): _ONE + b * _ZJ,
    })


def rmatrix_g_jagged() -> RMatrix:
    return RMatrix("g_jagged", {
        (0, 0, 0, 0): _ZI,
        (1, 1, 1, 1): _ZJ,
        (1, 0, 1, 0): _ZI - _ZJ,
        (1, 0, 0, 1): _ZI,
        (0, 1, 1, 0): _ZJ,
    })


BUNDLED_FAMILIES = {
    "nilp": (lmatrix_nilp, rmatrix_nilp),
    "fermionic": (lmatrix_fermionic, rmatrix_fermionic),
    "g_jagged": (lmatrix_g_jagged, rmatrix_g_jagged),
}


# ---------------------------------------------------------------------------
# Yang-Baxter / RLL verification
# ---------------------------------------------------------------------------


@dataclass
class YbeReport:
    ok: bool
    failures: list  # [(boundary, lhs, rhs)]


def check_ybe(L: LMatrix, R: RMatrix, L2: LMatrix | None = None) -> YbeReport:
    """Verify the RLL equation symbolically for all 64 boundary labelings.

    Line i carries z1, line j carries z2.  With L2 given, line i uses L and
    line j uses L2 (the mixed-row case); otherwise both lines use L.
    """
    sub_i = {Z(1): _ZI}
    sub_j = {Z(1): _ZJ}
    Li = {k: w.substitute(sub_i) for k, w in L.weights.items()}
    Lj = {k: w.substitute(sub_j) for k, w in (L2 or L).weights.items()}
    Rw = R.weights
    failures = []
    for code in range(64):
        a = code & 1
        b = code >> 1 & 1
        c = code >> 2 & 1
        d = code >> 3 & 1
        e = code >> 4 & 1
        f = code >> 5 & 1
        lhs = _ZERO
        for f1 in (0, 1):
            for a1 in (0, 1):
                r = Rw.get((f, a, f1, a1))
                if r is None:
                    continue
                for e1 in (0, 1):
                    w1 = Lj.get((a1, e, e1, d))
                    if w1 is None:
                        continue
                    w2 = Li.get((f1, e1, b, c))
                    if w2 is None:
                        continue
                    lhs = lhs + r * w1 * w2
        rhs = _ZERO
        for e1 in (0, 1):
            for f1 in (0, 1):
                w1 = Li.get((f, e, e1, f1))
                if w1 is None:
                    continue
                for a1 in (0, 1):
                    w2 = Lj.get((a, e1, b, a1))
                    if w2 is None:
                        continue
                    r = Rw.get((f1, a1, c, d))
                    if r is None:
                        continue
                    rhs = rhs + w1 * w2 * r
        if lhs != rhs:
            failures.append(((a, b, c, d, e, f), lhs, rhs))
    return YbeReport(not failures, failures)


# ---------------------------------------------------------------------------
# jagged models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowSpec:
    length: int
    lmatrix: LMatrix
    spectral: Polynomial
    left: int = 0
    right: int = 0
    flow: str = "E"  # "E": aux enters at the left; "W": enters at the right


@dataclass(frozen=True)
class JaggedModel:
    rows: tuple  # bottom to top; lengths weakly decreasing
    bottom_ones: frozenset
    top_ones: frozenset

    def __post_init__(self):
        lengths = [r.length for r in self.rows]
        if lengths and lengths[0] > 14:
            raise ValueError("row length capped at 14")
        if len(lengths) > 12:
            raise ValueError("row count capped at 12")
        for a, b in zip(lengths, lengths[1:]):
            if b > a:
                raise ValueError("row lengths must not increase going up")
        width = lengths[0] if lengths else 0
        if any(c < 1 or c > width for c in self.bottom_ones):
            raise ValueError("bottom boundary outside the grid")
        if any(c < 1 or c > width for c in self.top_ones):
            raise ValueError("top boundary outside the grid")

    def to_json_obj(self):
        return {
            "rows": [
                {
                    "length": r.length,
                    "lmatrix": r.lmatrix.name,
                    "spectral": str(r.spectral),
                    "left": r.left,
                    "right": r.right,
                    "flow": r.flow,
                }
                for r in self.rows
            ],
            "bottom_ones": sorted(self.bottom_ones),
            "top_ones": sorted(self.top_ones),
        }


def _cell_table(L: LMatrix, z) -> dict:
    """L at spectral z as a table (aux_in, q_in) -> [(q_out, aux_out, w)]."""
    table: dict = {}
    for (ai, qi, qo, ao), w in L.specialize(as_poly(z)).items():
        table.setdefault((ai, qi), []).append((qo, ao, w))
    return table


def _sweep(table: dict, bits, cols, start_aux: int, end_aux: int) -> dict:
    """The column sweep of one row: {top: weight} for the bottom edges bits.

    Columns are visited in the order cols; top packs column c into bit c.
    Paths start at weight 1 and merge where they reach the same (aux, top),
    so each weight is the row's own, summed over its internal edges.
    """
    frontier = {(start_aux, 0): _ONE}
    for c in cols:
        q_in = bits[c]
        nxt: dict = {}
        for (aux, top), w in frontier.items():
            for qo, ao, wt in table.get((aux, q_in), ()):
                key = (ao, top | qo << c)
                got = nxt.get(key)
                nxt[key] = w * wt if got is None else got + w * wt
        frontier = nxt
        if not frontier:
            break
    return {top: w for (aux, top), w in frontier.items() if aux == end_aux}


def _row_transfer(states: dict, row: RowSpec, table: dict) -> dict:
    """Push a bit-state distribution through one row.

    states maps bottom-edge bit tuples (length row.length) to Polynomial
    weights; returns the same for the top edges.  table is row.lmatrix at
    row.spectral, from :func:`_cell_table`.
    """
    n = row.length
    if n == 0:
        return dict(states) if row.left == row.right else {}
    east = row.flow == "E"
    cols = range(n) if east else range(n - 1, -1, -1)
    start_aux, end_aux = (row.left, row.right) if east else (row.right, row.left)
    out: dict = {}
    for bits, w0 in states.items():
        for top, w in _sweep(table, bits, cols, start_aux, end_aux).items():
            out.setdefault(top, []).append(w0 * w)
    summed = ((tuple(top >> c & 1 for c in range(n)), Polynomial.sum(ws))
              for top, ws in out.items())
    return {k: v for k, v in summed if v}


def _project(states: dict, width: int, want) -> dict:
    """Narrow bit-states to their first width columns, keeping those whose
    dropped columns read as want does there; merged weights are summed."""
    out: dict = {}
    for bits, w in states.items():
        if bits[width:] == want[width:len(bits)]:
            key = bits[:width]
            got = out.get(key)
            out[key] = w if got is None else got + w
    return out


def partition_function(model: JaggedModel) -> Polynomial:
    """Exact sum over all admissible states by row-to-row transfer.

    Inconsistent boundary prescriptions give the zero polynomial.
    """
    rows = model.rows
    if not rows:
        return _ONE if not model.bottom_ones and not model.top_ones else _ZERO
    width = rows[0].length
    bottom = tuple(1 if c in model.bottom_ones else 0 for c in range(1, width + 1))
    top = tuple(1 if c in model.top_ones else 0 for c in range(1, width + 1))
    states = {bottom: _ONE}
    for idx, row in enumerate(rows):
        states = _row_transfer(states, row, _cell_table(row.lmatrix, row.spectral))
        next_len = rows[idx + 1].length if idx + 1 < len(rows) else 0
        if next_len < row.length:
            states = _project(states, next_len, top)
        if not states:
            return _ZERO
    return states.get((), _ZERO)


def enumerate_states(model: JaggedModel):
    """Yield (weight, per-row vertex grids) for every admissible state.

    Each grid entry is the (aux_in, q_in, q_out, aux_out) key chosen at that
    column.  Exponential in the grid size; intended for desk-scale models.
    """
    rows = model.rows
    if not rows:
        yield _ONE, []
        return
    width = rows[0].length
    bottom = tuple(1 if c in model.bottom_ones else 0 for c in range(1, width + 1))
    specs = [(r, _cell_table(r.lmatrix, r.spectral)) for r in rows]

    def rec(idx, bits, weight, grids):
        if idx == len(rows):
            if all(bits[c - 1] == (1 if c in model.top_ones else 0)
                   for c in range(1, len(bits) + 1)):
                yield weight, grids
            return
        row, table = specs[idx]
        n = row.length
        east = row.flow == "E"
        cols = list(range(n)) if east else list(range(n - 1, -1, -1))
        start_aux = row.left if east else row.right
        end_aux = row.right if east else row.left

        def cell(k, aux, top, w, chosen):
            if k == n:
                if aux != end_aux:
                    return
                # columns beyond the next row's width are exposed here
                nxt = rows[idx + 1].length if idx + 1 < len(rows) else 0
                for c in range(nxt + 1, n + 1):
                    want = 1 if c in model.top_ones else 0
                    if top[c - 1] != want:
                        return
                yield from rec(idx + 1, tuple(top[:nxt]), w, grids + [chosen])
                return
            c = cols[k]
            q_in = bits[c]
            for qo, ao, wt in table.get((aux, q_in), ()):
                top2 = list(top)
                top2[c] = qo
                yield from cell(k + 1, ao, top2, w * wt,
                                chosen + [(c + 1, (aux, q_in, qo, ao))])

        yield from cell(0, start_aux, [0] * n, weight, [])

    yield from rec(0, bottom, _ONE, [])


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def build_dualg_model(la, n) -> JaggedModel:
    """Jagged NILP model whose partition function is g_la(x_1..x_n; t)."""
    la = partition(la)
    l = len(la)
    L = lmatrix_nilp()
    rows = []
    width = part(la, 1) + l
    for i in range(1, n + 1):
        rows.append(RowSpec(width, L, as_poly(X(i))))
    for i in range(1, l):
        rows.append(RowSpec(part(la, i + 1) + l - i, L, as_poly(T(i))))
    top = frozenset(part(la, i) + l + 1 - i for i in range(1, l + 1))
    bottom = frozenset(range(1, l + 1))
    return JaggedModel(tuple(rows), bottom, top)


def build_g_model(la, n) -> JaggedModel:
    """Jagged model (NILP rows below, west-flow rows above) whose partition
    function is G_la(x_1..x_n; t); the upper rows carry spectral -t_i."""
    la = partition(la)
    if len(la) > n:
        raise ValueError("shape taller than the number of x rows")
    rows = []
    width = part(la, 1) + n
    Lx = lmatrix_nilp()
    Lj = lmatrix_g_jagged()
    for i in range(1, n + 1):
        rows.append(RowSpec(width, Lx, as_poly(X(i))))
    for i in range(1, n):
        rows.append(RowSpec(part(la, i) + n - i, Lj, -as_poly(T(i)), flow="W"))
    top = frozenset(part(la, i) + n - i + 1 for i in range(1, n + 1))
    bottom = frozenset(range(1, n + 1))
    return JaggedModel(tuple(rows), bottom, top)


def build_beta_model(la, n, k=None, beta=None) -> JaggedModel:
    """Rectangular fermionic model: top boundary is the 01-sequence of la in
    an n x k box, left boundary all 1."""
    la = partition(la)
    if k is None:
        k = part(la, 1)
    L = lmatrix_fermionic(beta)
    width = n + k
    rows = tuple(RowSpec(width, L, as_poly(X(i)), left=1, right=0)
                 for i in range(1, n + 1))
    top = frozenset(part(la, i) + n + 1 - i for i in range(1, n + 1))
    return JaggedModel(rows, frozenset(), top)


def build_alt_fermionic(n, m, l, beta=0) -> JaggedModel:
    """Rectangle of fermionic rows realizing C^l A^{n-l} B^l between vacua.

    B rows (x_1..x_l) enter from the left, C rows (t_1..t_l) exit right.
    """
    if l > n:
        raise ValueError("needs n >= l")
    L = lmatrix_fermionic(beta)
    width = m + n
    rows = []
    for i in range(1, l + 1):
        rows.append(RowSpec(width, L, as_poly(X(i)), left=1, right=0))
    for i in range(l + 1, n + 1):
        rows.append(RowSpec(width, L, as_poly(X(i)), left=0, right=0))
    for i in range(1, l + 1):
        rows.append(RowSpec(width, L, as_poly(T(i)), left=0, right=1))
    return JaggedModel(tuple(rows), frozenset(), frozenset())


def alt_fermionic_shape_component(model: JaggedModel, la, n, l) -> Polynomial:
    """Partition-function restriction of the C^l A^{n-l} B^l model to states
    whose exit shape is la: the path leaving the i-th C-row from the bottom
    takes its last vertical step in column la_i + n."""
    la = partition(la)
    targets = [part(la, i) + n for i in range(1, l + 1)]
    n_rows = len(model.rows)
    total = _ZERO
    for weight, grids in enumerate_states(model):
        ok = True
        for i in range(1, l + 1):
            row_idx = n_rows - l + (i - 1)  # i-th C row from the bottom
            keys = dict(grids[row_idx])
            # trace the exiting path west from the right boundary; paths
            # touch (never cross) at the all-occupied vertex, so the run
            # starts at the first vertex fed from below
            col = max(keys)
            while col >= 1 and keys[col][1] == 0:
                col -= 1
            if col < 1 or keys[col][1] != 1 or col != targets[i - 1]:
                ok = False
                break
        if ok:
            total = total + weight
    return total


def set_valued_elegant_expansion(la, n) -> Polynomial:
    """The symmetric function sum over mu <= la and set-valued elegant
    tableaux of la/mu of t^T beta^{extra} G_mu(x; t=-beta).

    At beta = 0 this degenerates to the dual Grothendieck polynomial; its
    Schur expansion is sign-alternating by degree (see tests).
    """
    from .symfunc import grothendieck
    from . import tableaux as tb

    la = partition(la)
    b = as_poly(BETA)
    total = _ZERO
    for mu in subpartitions(la):
        Gmu = grothendieck(mu, n, [-b] * (n - 1))
        ssum = _ZERO
        for rows in tb.enumerate_set_valued_elegant(la, mu):
            extra = sum(len(cell) - 1 for row in rows for cell in row)
            ssum = ssum + tb.weight_set_valued_elegant(rows) * b ** extra
        if not ssum.is_zero():
            total = total + ssum * Gmu
    return total


# ---------------------------------------------------------------------------
# row operators
# ---------------------------------------------------------------------------

_KIND_AUX = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}


def row_operator(kind: str, z, m: int, lmatrix: LMatrix | None = None) -> PolyMatrix:
    """The 2^m x 2^m matrix of one auxiliary row over m quantum spaces.

    Entry [out][in] sums over internal edge configurations; basis index packs
    column c into bit c-1.
    """
    if m > 12:
        raise ValueError("operator width capped at 12")
    aux_in, aux_out = _KIND_AUX[kind]
    table = _cell_table(lmatrix or lmatrix_nilp(), z)
    dim = 1 << m
    grid = [[_ZERO] * dim for _ in range(dim)]
    for idx in range(dim):
        bits = tuple(idx >> c & 1 for c in range(m))
        for top, w in _sweep(table, bits, range(m), aux_in, aux_out).items():
            grid[top][idx] = w
    return PolyMatrix._from_rows(grid, dim)


def compose(ops) -> PolyMatrix:
    """Matrix product ops[0] @ ops[1] @ ...; the last factor acts first."""
    out = None
    for op in ops:
        out = op if out is None else out * op
    if out is None:
        raise ValueError("empty composition")
    return out


def basis_index(bits) -> int:
    idx = 0
    for c, b in enumerate(bits):
        idx |= (b & 1) << c
    return idx


def apply_to_basis(op: PolyMatrix, bits) -> dict:
    """Column of op at the given basis label, as {bit tuple: coefficient}."""
    m = len(bits)
    j = basis_index(bits)
    out = {}
    for i in range(op.rows):
        entry = op.entries[i][j]
        if not entry.is_zero():
            out[tuple(i >> c & 1 for c in range(m))] = entry
    return out


def e_lowest(l: int, width: int) -> tuple:
    """1s in the leftmost l slots, 0 elsewhere."""
    return tuple(1 if c < l else 0 for c in range(width))


def e_lambda_bits(la, width: int) -> tuple:
    """1s at columns la_i + l(la) - i + 1."""
    la = partition(la)
    l = len(la)
    ones = {part(la, i) + l - i + 1 for i in range(1, l + 1)}
    return tuple(1 if c in ones else 0 for c in range(1, width + 1))


def operator_route_dualg(la, n) -> Polynomial:
    """Evaluate the dual-Grothendieck partition function through the row
    operators A(z) (the columns of :func:`row_operator`, whose exchange
    relations :func:`verify_operator_relations` checks), narrowing the width
    between rows, as a cross-check of the transfer."""
    la = partition(la)
    l = len(la)
    width = part(la, 1) + l
    target = e_lambda_bits(la, width)

    def apply_op(vec, z, w):
        op = row_operator("A", z, w)
        out: dict = {}
        for bits, coeff in vec.items():
            for key, entry in apply_to_basis(op, bits).items():
                got = out.get(key)
                out[key] = coeff * entry if got is None else got + coeff * entry
        return out

    vec = {e_lowest(l, width): _ONE}
    for i in range(1, n + 1):
        vec = apply_op(vec, X(i), width)
    for i in range(1, l):
        w = part(la, i + 1) + l - i
        vec = apply_op(_project(vec, w, target), T(i), w)
    return _project(vec, 0, target).get((), _ZERO)


# ---------------------------------------------------------------------------
# operator relation checks
# ---------------------------------------------------------------------------


@dataclass
class RelationReport:
    family: str
    m: int
    results: dict

    @property
    def ok(self):
        return all(self.results.values())


def _mat_eq(a: PolyMatrix, b: PolyMatrix) -> bool:
    """Entrywise equality.  Most zero entries are the shared zero
    polynomial, which the row comparison passes over by identity."""
    return a.rows == b.rows and a.cols == b.cols and a.entries == b.entries


def _scale(mat: PolyMatrix, p: Polynomial) -> PolyMatrix:
    return PolyMatrix._from_rows(
        [[e * p if e.terms else e for e in row] for row in mat.entries], mat.cols)


def _mat_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    return PolyMatrix._from_rows(
        [[x - y if y.terms else x for x, y in zip(ra, rb)]
         for ra, rb in zip(a.entries, b.entries)], a.cols)


def verify_operator_relations(family: str, m: int) -> RelationReport:
    """Matrix identities for the Yang-Baxter algebra of the NILP model,
    cleared of denominators where they appear."""
    zi, zj = _ZI, _ZJ
    ops: dict = {}  # each distinct (kind, z) operator is built once

    def op(kind, z):
        got = ops.get((kind, z))
        if got is None:
            got = ops[(kind, z)] = row_operator(kind, z, m)
        return got

    A = lambda z: op("A", z)
    B = lambda z: op("B", z)
    D = lambda z: op("D", z)
    results = {}
    if family == "AB":
        ab = A(zi) * B(zj)
        lhs = _scale(ab, zj - zi)
        rhs = _mat_sub(_scale(B(zj) * A(zi), zj), _scale(B(zi) * A(zj), zj))
        results["exchange"] = _mat_eq(lhs, rhs)
        results["weighted_swap"] = _mat_eq(_scale(A(zj) * B(zi), zj),
                                           _scale(ab, zi))
        results["bb"] = _mat_eq(_scale(B(zj) * B(zi), zj),
                                _scale(B(zi) * B(zj), zi))
        results["aa"] = _mat_eq(A(zj) * A(zi), A(zi) * A(zj))
    elif family == "BD":
        db = D(zi) * B(zj)
        lhs = _scale(db, zi - zj)
        rhs = _mat_sub(_scale(B(zj) * D(zi), zj), _scale(B(zi) * D(zj), zj))
        results["exchange"] = _mat_eq(lhs, rhs)
        results["weighted_swap"] = _mat_eq(_scale(D(zj) * B(zi), zj),
                                           _scale(db, zi))
        results["bb"] = _mat_eq(_scale(B(zj) * B(zi), zj),
                                _scale(B(zi) * B(zj), zi))
        results["dd"] = _mat_eq(D(zj) * D(zi), D(zi) * D(zj))
    elif family == "A_tilde_symmetry":
        # z_3 z_1^{-1} A(z_3) B(z_2) B(z_1) is symmetric in z_1, z_2, z_3
        z1, z2, z3 = (as_poly(Z(i)) for i in (1, 2, 3))
        expr = _scale(compose([A(z3), B(z2), B(z1)]), z3 * z1 ** -1)

        def subbed(mat, sub):
            return PolyMatrix._from_rows(
                [[e.substitute(sub) if e.terms else e for e in row]
                 for row in mat.entries], mat.cols)

        swap12 = {Z(1): z2, Z(2): z1}
        swap23 = {Z(2): z3, Z(3): z2}
        results["swap_z1_z2"] = _mat_eq(expr, subbed(expr, swap12))
        results["swap_z2_z3"] = _mat_eq(expr, subbed(expr, swap23))
    else:
        raise ValueError(f"unknown relation family {family!r}")
    return RelationReport(family, m, results)
