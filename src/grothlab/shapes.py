"""Partitions (plain and skew), 01-sequences, and box operations.

Partitions are canonical tuples of positive ints (weakly decreasing, trailing
zeros stripped).  Cells use 1-based (row, col) English convention, row 1 at
the top.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


def partition(parts) -> tuple:
    """Canonicalize an iterable of nonnegative ints into a partition."""
    p = tuple(int(a) for a in parts)
    if any(a < 0 for a in p):
        raise ValueError(f"negative part in {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"{p} is not weakly decreasing")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def parse_partition(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return partition(int(a) for a in text.split(","))


def parse_skew(text: str):
    """Parse "5,3,3/2,1" into (outer, inner); bare "5,3,3" has empty inner."""
    outer_text, _, inner_text = text.partition("/")
    outer = parse_partition(outer_text)
    inner = parse_partition(inner_text)
    if not contains(outer, inner):
        raise ValueError(f"inner shape {inner} not contained in outer {outer}")
    return outer, inner


def part(la: tuple, i: int) -> int:
    """The i-th part (1-based), zero beyond the length."""
    return la[i - 1] if 1 <= i <= len(la) else 0


def contains(outer: tuple, inner: tuple) -> bool:
    return all(part(outer, i) >= part(inner, i) for i in range(1, len(inner) + 1))


def cells(la: tuple, inner: tuple = ()):
    """Cells of the (skew) shape in row-reading order."""
    out = []
    for r in range(1, len(la) + 1):
        for c in range(part(inner, r) + 1, la[r - 1] + 1):
            out.append((r, c))
    return out


def conjugate(la: tuple) -> tuple:
    if not la:
        return ()
    return tuple(sum(1 for a in la if a >= c) for c in range(1, la[0] + 1))


@dataclass(frozen=True)
class BoxedPartition:
    """A partition confined to an n_rows x k_cols box."""

    parts: tuple
    n_rows: int
    k_cols: int

    def __post_init__(self):
        object.__setattr__(self, "parts", partition(self.parts))
        if len(self.parts) > self.n_rows:
            raise ValueError("partition taller than the box")
        if self.parts and self.parts[0] > self.k_cols:
            raise ValueError("partition wider than the box")


def to_01(la: tuple, n: int, k: int) -> tuple:
    """01-sequence of la in an n x k box: bit p is 1 iff p = la_i + n - i + 1.

    Vertical steps of the boundary path are 1s, horizontal steps 0s; the
    orientation is pinned by (5,3,3) in a 4x6 box giving 1000110010.
    """
    b = BoxedPartition(la, n, k)
    ones = {part(b.parts, i) + n - i + 1 for i in range(1, n + 1)}
    return tuple(1 if p in ones else 0 for p in range(1, n + k + 1))


def from_01(bits) -> BoxedPartition:
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0/1")
    n = sum(bits)
    k = len(bits) - n
    positions = [p for p, b in enumerate(bits, start=1) if b == 1]
    parts = [positions[n - i] - n + i - 1 for i in range(1, n + 1)]
    return BoxedPartition(partition(parts), n, k)


def complement(la: tuple, n: int, k: int) -> tuple:
    """Reverse the 01-sequence (rotate the box by pi)."""
    return from_01(tuple(reversed(to_01(la, n, k)))).parts


def dual(la: tuple, n: int, k: int) -> tuple:
    """Interchange 0 <-> 1 in the 01-sequence (lives in the k x n box)."""
    return from_01(tuple(1 - b for b in to_01(la, n, k))).parts


def staircase(l: int) -> tuple:
    return tuple(range(l - 1, -1, -1))


def enumerate_partitions_in_box(n: int, k: int):
    """All binomial(n+k, n) partitions with at most n rows and k columns,
    in graded lexicographic order (by size, then lex descending parts)."""
    if n < 0 or k < 0:
        raise ValueError(f"box sides must be nonnegative, got {n} x {k}")
    out = []

    def rec(prefix, remaining_rows, maxpart):
        out.append(tuple(prefix))
        if remaining_rows == 0:
            return
        for a in range(1, maxpart + 1):
            prefix.append(a)
            rec(prefix, remaining_rows - 1, a)
            prefix.pop()

    rec([], n, k)
    out = [partition(p) for p in out]
    out.sort(key=lambda p: (sum(p), tuple(-a for a in p)))
    expected = comb(n + k, n)
    if len(out) != expected:
        raise AssertionError(f"enumeration bug: {len(out)} != {expected}")
    return out


def subpartitions(la: tuple, inner: tuple = ()):
    """All mu with inner <= mu <= la componentwise, in graded lexicographic
    order (by size, then lex descending parts); empty unless inner is
    contained in la.  inner may carry trailing zeros."""
    out = []

    def rec(i, prefix):
        if part(inner, i + 1) == 0:
            out.append(tuple(prefix))
        cap = min(part(la, i + 1), prefix[-1]) if prefix else part(la, 1)
        for a in range(max(part(inner, i + 1), 1), cap + 1):
            prefix.append(a)
            rec(i + 1, prefix)
            prefix.pop()

    rec(0, [])
    out.sort(key=lambda p: (sum(p), tuple(-a for a in p)))
    return out
