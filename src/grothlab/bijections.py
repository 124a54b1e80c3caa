"""Bijections: RSK, the tableau/matrix correspondence, uncrowding of
set-valued tableaux, inflation/deflation of reverse plane partitions, and
the pattern/elegant-tableau correspondence.

All tableaux are tuples of row tuples (straight shapes unless noted);
matrices use bottom-left (1,1) indexing, stored as rows[0] = matrix row 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shapes import part, partition
from .tableaux import ssyt_to_gt, gt_to_ssyt


# ---------------------------------------------------------------------------
# RSK
# ---------------------------------------------------------------------------


def matrix_to_biword(m):
    """Lexicographically sorted two-line array of the matrix: entry m[i-1][j-1]
    contributes that many biletters (i, j)."""
    pairs = []
    for i, row in enumerate(m, start=1):
        for j, k in enumerate(row, start=1):
            pairs.extend([(i, j)] * k)
    pairs.sort()
    return pairs


def biword_to_matrix(pairs, rows, cols):
    m = [[0] * cols for _ in range(rows)]
    for i, j in pairs:
        m[i - 1][j - 1] += 1
    return tuple(tuple(r) for r in m)


def _row_insert_from(rows, x, start_row):
    """Row-insert x starting the bumping at the given row (1-based); returns
    (new rows, (r, c) of the new box)."""
    rows = [list(r) for r in rows]
    r = start_row - 1
    while True:
        if r == len(rows):
            rows.append([x])
            return tuple(tuple(q) for q in rows), (r + 1, 1)
        row = rows[r]
        # leftmost entry strictly greater than x
        pos = None
        for c, v in enumerate(row):
            if v > x:
                pos = c
                break
        if pos is None:
            row.append(x)
            return tuple(tuple(q) for q in rows), (r + 1, len(row))
        x, row[pos] = row[pos], x
        r += 1


def rsk(m):
    """Row-insert the sorted biword; P records insertions, Q the top line."""
    P: tuple = ()
    Q: list = []
    for i, j in matrix_to_biword(m):
        P, (r, c) = _row_insert_from(P, j, 1)
        while len(Q) < r:
            Q.append([])
        Q[r - 1].append(i)
    return P, tuple(tuple(q) for q in Q)


def _reverse_insert_to(rows, box, stop_row):
    """Remove the box and reverse-bump up to (and including) stop_row;
    returns (ejected value, new rows)."""
    rows = [list(r) for r in rows]
    r, c = box
    if c - 1 != len(rows[r - 1]) - 1:
        raise ValueError("can only reverse from the end of a row")
    x = rows[r - 1].pop()
    if not rows[r - 1]:
        rows.pop(r - 1)
    for rr in range(r - 2, stop_row - 2, -1):
        row = rows[rr]
        # rightmost entry strictly less than x
        pos = None
        for cc in range(len(row) - 1, -1, -1):
            if row[cc] < x:
                pos = cc
                break
        x, row[pos] = row[pos], x
    return x, tuple(tuple(q) for q in rows)


def rsk_inverse(P, Q, rows=None, cols=None):
    """Invert RSK; P and Q must have the same shape."""
    if tuple(len(r) for r in P) != tuple(len(r) for r in Q):
        raise ValueError("P and Q have different shapes")
    pairs = []
    Qw = [list(r) for r in Q]
    Pw = P
    # repeatedly remove the largest recording entry, rightmost first
    remaining = sum(len(r) for r in Q)
    while remaining:
        best = None
        for r in range(len(Qw)):
            if Qw[r]:
                v = Qw[r][-1]
                # equal maxima form a horizontal strip; undo rightmost first,
                # which is the smallest row
                if best is None or v > best[0]:
                    best = (v, r)
        v, r = best
        Qw[r].pop()
        j, Pw = _reverse_insert_to(Pw, (r + 1, len(Pw[r])), 1)
        pairs.append((v, j))
        remaining -= 1
    pairs.reverse()
    if rows is None:
        rows = max((i for i, _ in pairs), default=0)
    if cols is None:
        cols = max((j for _, j in pairs), default=0)
    return biword_to_matrix(pairs, rows, cols)


# ---------------------------------------------------------------------------
# tableau <-> matrix map (differ-below counts)
# ---------------------------------------------------------------------------


def phi(rows, outer, l, n=None):
    """The l x n matrix counting, for tableau row r and value j, the cells
    not equal to the cell below; tableau row r feeds matrix row l+1-r."""
    outer = partition(outer)
    if len(outer) > l:
        raise ValueError("shape taller than the requested matrix height")
    if n is None:
        n = max((v for row in rows for v in row), default=1)
    grid = {}
    for r in range(1, len(outer) + 1):
        for c, v in enumerate(rows[r - 1], start=1):
            grid[(r, c)] = v
    m = [[0] * n for _ in range(l)]
    for (r, c), v in grid.items():
        if grid.get((r + 1, c)) != v:
            m[l - r][v - 1] += 1
    return tuple(tuple(r) for r in m)


def phi_inverse(m, outer):
    """Reconstruct the reverse plane partition of the given shape from its
    differ-below count matrix; raises if the matrix is not in the image.

    Rows are rebuilt bottom-up; at each level the filling extending the row
    below with the prescribed differ-multiset is unique, which is asserted.
    """
    outer = partition(outer)
    l = len(m)
    L = len(outer)
    rows: list = [None] * L
    below: tuple = ()
    for r in range(L, 0, -1):
        counts = m[l - r]
        want = []
        for j, k in enumerate(counts, start=1):
            want.extend([j] * k)
        width = outer[r - 1]
        fills = _row_completions(width, below, want)
        if not fills:
            raise ValueError("matrix not in the image for this shape")
        if len(fills) > 1:
            raise AssertionError("non-unique reconstruction; bijection bug")
        rows[r - 1] = fills[0]
        below = rows[r - 1]
    for r in range(L, 0, -1):
        if r < L and any(rows[r - 1][c] > rows[r][c] for c in range(len(rows[r]))):
            raise ValueError("matrix not in the image (column condition)")
    return tuple(rows)


def _row_completions(width, below, differ_multiset):
    """All weakly increasing rows of the given width whose cells either equal
    the cell below or contribute exactly the differ multiset."""
    from collections import Counter

    need = Counter(differ_multiset)
    out = []

    def rec(c, row, need):
        if c == width:
            if not +need:
                out.append(tuple(row))
            return
        lo = row[-1] if row else 1
        b = below[c] if c < len(below) else None
        # equal-below choice
        if b is not None and b >= lo:
            row.append(b)
            rec(c + 1, row, need)
            row.pop()
        # differ choice: any value from the multiset, <= below strictly less
        for v in sorted(need):
            if need[v] <= 0 or v < lo:
                continue
            if b is not None and v >= b:
                continue
            if b is None or v < b:
                row.append(v)
                need[v] -= 1
                rec(c + 1, row, need)
                need[v] += 1
                row.pop()

    rec(0, [], need)
    return out


# ---------------------------------------------------------------------------
# uncrowding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncrowdResult:
    insertion: tuple  # SSYT of shape mu >= la
    recording: tuple  # increasing elegant tableau of mu/la (skew rows)
    markings: tuple   # ((row, col, subscript) ...) for the marked display


def uncrowd(svt_rows):
    """Expand multi-entry cells: repeatedly take the bottommost row with an
    extra entry, remove its largest extra, and row-insert it below; the new
    box records its displacement."""
    la = tuple(len(r) for r in svt_rows)
    work = [list(list(cell) for cell in row) for row in svt_rows]
    overflow = tuple(tuple(c[0] for c in row) for row in work)
    # recording entries keyed by box position
    rec_entries: dict = {}
    events = []
    while True:
        src = None
        for r in range(len(work) - 1, -1, -1):
            if any(len(c) > 1 for c in work[r]):
                src = r
                break
        if src is None:
            break
        # largest extra entry in the row
        best = None
        for c, cell in enumerate(work[src]):
            if len(cell) > 1:
                v = cell[-1]
                if best is None or v > best[0]:
                    best = (v, c)
        v, c = best
        work[src][c].pop()
        flat = tuple(tuple(cell[0] for cell in row) for row in work)
        inserted, box = _row_insert_from(flat, v, src + 2)
        # write the (possibly bumped) row data back, keeping multi-cells
        new_work = []
        for r, row in enumerate(inserted):
            if r < len(work):
                cells = [list(cell) for cell in work[r]]
                for cc in range(len(cells)):
                    cells[cc][0] = row[cc] if cc < len(row) else cells[cc][0]
                while len(cells) < len(row):
                    cells.append([row[len(cells)]])
                new_work.append(cells)
            else:
                new_work.append([[x] for x in row])
        work = new_work
        rec_entries[box] = box[0] - (src + 1)
        events.append((src + 1, v, box))
    mu = tuple(len(r) for r in work)
    insertion = tuple(tuple(cell[0] for cell in row) for row in work)
    recording = []
    for r in range(1, len(mu) + 1):
        inner_r = la[r - 1] if r - 1 < len(la) else 0
        recording.append(tuple(rec_entries[(r, c)]
                               for c in range(inner_r + 1, mu[r - 1] + 1)))
    # inelegant marking: the subscript r - entry, i.e. the source row of the
    # extra value that created the box
    markings = tuple(sorted((r, c, r - rec_entries[(r, c)])
                            for (r, c) in rec_entries))
    return UncrowdResult(insertion, tuple(recording), markings)


def crowd(result: UncrowdResult):
    """Invert uncrowding: undo recorded boxes latest-first."""
    mu = tuple(len(r) for r in result.insertion)
    la_rows = tuple(len(result.insertion[r - 1]) - len(result.recording[r - 1])
                    for r in range(1, len(mu) + 1))
    events = []
    for r in range(1, len(mu) + 1):
        inner_r = la_rows[r - 1]
        for idx, val in enumerate(result.recording[r - 1]):
            box = (r, inner_r + idx + 1)
            src = r - val
            events.append((src, box))
    # uncrowding processed sources bottom-up and, within a source row,
    # larger extras first; invert in the exact reverse order: sources
    # top-down, and for equal sources the later (smaller-value) event first.
    # Within a source row the later event sits further left in its row.
    events.sort(key=lambda e: (e[0], -e[1][0], -e[1][1]))
    work = [list(r) for r in result.insertion]
    cells = [[[v] for v in row] for row in work]
    for src, box in events:
        flat = [list(cell[0] for cell in row) for row in cells]
        value, flat2 = _reverse_insert_to(flat, box, src + 1)
        new_cells = []
        for r, row in enumerate(flat2):
            crow = []
            for c in range(len(row)):
                old = cells[r][c]
                crow.append([row[c]] + old[1:])
            new_cells.append(crow)
        cells = new_cells
        cells[src - 1] = cells[src - 1]
        # put the value back as an extra entry in its source row
        placed = False
        row = cells[src - 1]
        for c in range(len(row) - 1, -1, -1):
            cell = row[c]
            nxt = row[c + 1] if c + 1 < len(row) else None
            ok_right = nxt is None or value <= min(nxt)
            ok_here = value > max(cell)  # strict: set entries are distinct
            below = cells[src][c] if src < len(cells) and c < len(cells[src]) else None
            ok_below = below is None or value < min(below)
            if ok_here and ok_right and ok_below:
                cell.append(value)
                cell.sort()
                placed = True
                break
        if not placed:
            raise ValueError("cannot re-crowd the recorded entry")
    return tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells)


# ---------------------------------------------------------------------------
# inflation / deflation
# ---------------------------------------------------------------------------


def deflate(rpp_rows, outer):
    """Remove each cell equal to the cell directly below it and rectify the
    survivors by jeu de taquin; the vacated rim boxes record the original
    rows of the removed duplicates, forming an elegant tableau of outer/mu."""
    outer = partition(outer)
    grid = {}
    for r in range(1, len(outer) + 1):
        for c, v in enumerate(rpp_rows[r - 1], start=1):
            grid[(r, c)] = v
    holes = [(r, c) for (r, c), v in grid.items() if grid.get((r + 1, c)) == v]
    labels = {}
    filled = dict(grid)
    for h in holes:
        filled.pop(h)
    # slide holes one at a time, farthest (by r+c) first; the sliding hole
    # then never meets another hole
    for (hr, hc) in sorted(holes, key=lambda rc: (-(rc[0] + rc[1]), -rc[0])):
        r, c = hr, hc
        while True:
            right = filled.get((r, c + 1))
            below = filled.get((r + 1, c))
            if right is None and below is None:
                break
            if right is None:
                filled[(r, c)] = below
                del filled[(r + 1, c)]
                r += 1
            elif below is None:
                filled[(r, c)] = right
                del filled[(r, c + 1)]
                c += 1
            elif right < below:
                filled[(r, c)] = right
                del filled[(r, c + 1)]
                c += 1
            else:
                filled[(r, c)] = below
                del filled[(r + 1, c)]
                r += 1
        labels[(r, c)] = hr
    mu_rows = {}
    for (r, c) in filled:
        mu_rows[r] = max(mu_rows.get(r, 0), c)
    mu = partition(tuple(mu_rows.get(r, 0) for r in range(1, len(outer) + 1)))
    insertion = tuple(tuple(filled[(r, c)] for c in range(1, part(mu, r) + 1))
                      for r in range(1, len(mu) + 1))
    elegant = []
    for r in range(1, len(outer) + 1):
        row = []
        for c in range(part(mu, r) + 1, outer[r - 1] + 1):
            row.append(labels[(r, c)])
        elegant.append(tuple(row))
    return insertion, tuple(elegant)


def inflate(insertion, elegant, outer):
    """Inverse of deflate: re-insert duplicate rows via reverse slides.

    Reverse slides move max(left, above) into the hole (ties upward) from a
    rim box back to the labeled source row, where the hole is refilled with
    a duplicate of the cell below it.  Neither the rim processing order nor
    the stopping column is forced locally, so both are searched and every
    candidate is validated by replaying deflate; the result is the unique
    preimage.
    """
    outer = partition(outer)
    mu = tuple(len(r) for r in insertion)
    target = (tuple(tuple(r) for r in insertion), tuple(tuple(r) for r in elegant))

    rim = []
    for r in range(1, len(outer) + 1):
        inner_r = part(mu, r)
        for c in range(inner_r + 1, outer[r - 1] + 1):
            rim.append((r, c, elegant[r - 1][c - 1 - inner_r]))

    def slide_candidates(box, filled):
        """Stop states of the reverse slide from the rim box: each is the
        grid after the hole reached the source row and was refilled."""
        r0, c0, src = box
        out = []
        filled2 = dict(filled)
        r, c = r0, c0
        while True:
            if r == src:
                below = filled2.get((r + 1, c))
                if below is not None:
                    snap = dict(filled2)
                    snap[(r, c)] = below
                    out.append(snap)
            left = filled2.get((r, c - 1))
            above = filled2.get((r - 1, c))
            if left is None and above is None:
                break
            if above is not None and (left is None or above >= left):
                filled2[(r, c)] = above
                del filled2[(r - 1, c)]
                r -= 1
            else:
                filled2[(r, c)] = left
                del filled2[(r, c - 1)]
                c -= 1
            if r < src:
                break
        return out

    def attempt(pending, filled):
        if not pending:
            rows = _rows_from_cells(filled, outer)
            if rows is not None and deflate(rows, outer) == target:
                return rows
            return None
        # prefer undoing boxes closest to the diagonal first, but search all
        for k in range(len(pending)):
            box = pending[k]
            rest = pending[:k] + pending[k + 1:]
            for snap in slide_candidates(box, filled):
                got = attempt(rest, snap)
                if got is not None:
                    return got
        return None

    filled = {}
    for r, row in enumerate(insertion, start=1):
        for c, v in enumerate(row, start=1):
            filled[(r, c)] = v
    rim.sort(key=lambda rcl: (rcl[0] + rcl[1], rcl[0]))
    got = attempt(rim, filled)
    if got is None:
        raise ValueError("no inflation reproduces the pair")
    return got


def _rows_from_cells(filled, outer):
    rows = []
    for r in range(1, len(outer) + 1):
        row = []
        for c in range(1, outer[r - 1] + 1):
            if (r, c) not in filled:
                return None
            row.append(filled[(r, c)])
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# left-pinned patterns <-> elegant tableaux
# ---------------------------------------------------------------------------


def left_flank(Q, mu, l):
    """The leftmost entries of the pattern of Q, top row first."""
    gt = ssyt_to_gt(Q, mu, l)
    return partition(tuple(gt[k - 1][0] for k in range(l, 0, -1)))


def psi(Q, mu, la, l):
    """SSYT Q of shape mu with left flank la -> elegant tableau of la/mu.

    The chain sigma^(v) of the elegant tableau is read off the pattern:
    sigma^(v)_i = R_{l-v}[i-v] for v < i, where R_k is the shape of the
    entries at most k in Q.
    """
    mu, la = partition(mu), partition(la)
    if left_flank(Q, mu, l) != la:
        raise ValueError("left flank of the pattern is not la")
    gt = ssyt_to_gt(Q, mu, l)

    def R(k, idx):
        if k == 0:
            return 0
        row = gt[k - 1]
        return row[idx - 1] if 1 <= idx <= len(row) else 0

    L = len(la)
    chains = []
    for v in range(0, l):
        sigma = []
        for i in range(1, L + 1):
            if i <= v:
                sigma.append(part(la, i))
            else:
                sigma.append(R(l - v, i - v))
        chains.append(partition(tuple(sigma)))
    rows = []
    for i in range(1, L + 1):
        row = []
        for c in range(part(mu, i) + 1, part(la, i) + 1):
            val = None
            for v in range(1, l):
                if part(chains[v], i) >= c > part(chains[v - 1], i):
                    val = v
                    break
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def psi_inverse(elegant, la, mu, l):
    """Rebuild Q from the elegant tableau by inverting the chain reading."""
    la, mu = partition(la), partition(mu)
    L = len(la)
    chains = [list(mu) + [0] * (L - len(mu))]
    for v in range(1, l):
        prev = chains[-1]
        cur = list(prev)
        for i in range(1, L + 1):
            cnt = 0
            inner_i = part(mu, i)
            row = elegant[i - 1] if i - 1 < len(elegant) else ()
            for idx, val in enumerate(row):
                if val <= v:
                    cnt = idx + 1
            cur[i - 1] = inner_i + cnt
        chains.append(cur)
    gt = []
    for k in range(1, l + 1):
        v = l - k
        row = []
        for idx in range(1, k + 1):
            i = idx + v
            if i <= L:
                row.append(chains[v][i - 1])
            elif v == 0:
                row.append(part(mu, i))
            else:
                row.append(0)
        gt.append(tuple(row))
    return gt_to_ssyt(tuple(gt))
