"""Sparse multivariate Laurent polynomials over exact rationals.

This is the value type everything else in the package computes with.  A
polynomial is a map from monomials to nonzero rational coefficients; a
monomial is a sorted tuple of ``(variable_code, exponent)`` pairs with
nonzero (possibly negative) integer exponents.  All arithmetic is exact:
coefficients are Python ints or :class:`fractions.Fraction`.

Variables come in six families with a fixed canonical order
``x < t < y < z < gamma < beta``; within a family they are ordered by index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .shapes import part

FAMILIES = ("x", "t", "y", "z", "gamma", "beta")
_FAM_ORDER = {fam: i for i, fam in enumerate(FAMILIES)}
_FAM_SHIFT = 24


@dataclass(frozen=True, order=False)
class Variable:
    """A named indeterminate, e.g. x_3 or gamma."""

    family: str
    index: int = 1

    def __post_init__(self):
        if self.family not in _FAM_ORDER:
            raise ValueError(f"unknown variable family {self.family!r}")
        if self.index < 1:
            raise ValueError("variable index must be >= 1")

    @property
    def code(self) -> int:
        return (_FAM_ORDER[self.family] << _FAM_SHIFT) | self.index

    def __lt__(self, other: "Variable") -> bool:
        return self.code < other.code

    def __str__(self) -> str:
        if self.family in ("gamma", "beta") and self.index == 1:
            return self.family
        return f"{self.family}{self.index}"

    __repr__ = __str__


def _decode(code: int) -> Variable:
    return Variable(FAMILIES[code >> _FAM_SHIFT], code & ((1 << _FAM_SHIFT) - 1))


def var_from_name(name: str) -> Variable:
    """Parse "x3", "t12", "gamma", "beta1" back into a Variable."""
    for fam in FAMILIES:
        if name == fam:
            return Variable(fam, 1)
        if name.startswith(fam) and name[len(fam):].isdigit():
            return Variable(fam, int(name[len(fam):]))
    raise ValueError(f"cannot parse variable name {name!r}")


def X(i: int) -> Variable:
    return Variable("x", i)


def T(i: int) -> Variable:
    return Variable("t", i)


def Y(i: int) -> Variable:
    return Variable("y", i)


def Z(i: int) -> Variable:
    return Variable("z", i)


GAMMA = Variable("gamma", 1)
BETA = Variable("beta", 1)


# A monomial key: tuple of (code, exp) pairs, sorted by code, exp != 0.
_ONE = ()


def _mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ca, ea = a[i]
        cb, eb = b[j]
        if ca < cb:
            out.append(a[i])
            i += 1
        elif cb < ca:
            out.append(b[j])
            j += 1
        else:
            e = ea + eb
            if e:
                out.append((ca, e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_pow(a: tuple, n: int) -> tuple:
    if n == 0:
        return _ONE
    return tuple((c, e * n) for c, e in a)


def _packing(groups):
    """(pack, unpack) for one integer layout of the products that take a
    monomial from each group (from some of the groups, for pack alone).

    A variable's exponent in such a product lies in [lo, hi], the sums over
    the groups of its least and greatest exponent (absent counts as 0).  Each
    variable gets a slot of one width, enough for the largest hi - lo, and a
    monomial packs to the signed sum of e << slot, so the key of a product is
    the sum of its factors' keys and distinct products get distinct keys.
    unpack maps a {key: coeff} dict of full products to a Polynomial.
    """
    lo: dict = {}
    hi: dict = {}
    for group in groups:
        mn: dict = {}
        mx: dict = {}
        for mono in group:
            for c, e in mono:
                if e < mn.get(c, 0):
                    mn[c] = e
                elif e > mx.get(c, 0):
                    mx[c] = e
        for c, e in mn.items():
            lo[c] = lo.get(c, 0) + e
        for c, e in mx.items():
            hi[c] = hi.get(c, 0) + e
    codes = sorted(lo.keys() | hi.keys())
    width = max(((hi.get(c, 0) - lo.get(c, 0)).bit_length() for c in codes), default=0)
    pos = {c: width * i for i, c in enumerate(codes)}
    slots = [(c, pos[c], lo.get(c, 0)) for c in codes]
    base = sum(low << p for _, p, low in slots)
    mask = (1 << width) - 1

    def pack(mono) -> int:
        key = 0
        for c, e in mono:
            key += e << pos[c]
        return key

    def unpack(packed: dict) -> "Polynomial":
        res = {}
        for key, coeff in packed.items():
            if coeff:
                d = key - base
                mono = []
                for c, p, low in slots:
                    e = ((d >> p) & mask) + low
                    if e:
                        mono.append((c, e))
                res[tuple(mono)] = _norm_coeff(coeff)
        return Polynomial._raw(res)

    return pack, unpack


def _add_products(acc: dict, left, right, sign: int = 1) -> None:
    """acc += sign * left * right on packed (key, coeff) pairs; zeros stay."""
    get = acc.get
    for ka, ca in left:
        if sign < 0:
            ca = -ca
        for kb, cb in right:
            kk = ka + kb
            acc[kk] = get(kk, 0) + ca * cb


def _plain_code(p) -> int | None:
    """The variable code if p is a single variable to the first power."""
    if len(p.terms) != 1:
        return None
    ((mono, c),) = p.terms.items()
    if c == 1 and len(mono) == 1 and mono[0][1] == 1:
        return mono[0][0]
    return None


# Decimal text is made and read in pieces of at most 600 digits, below 640,
# the least limit sys.set_int_max_str_digits accepts, so integers of any
# length convert whatever the interpreter's limit is.
_PIECE = 600


def int_text(n: int) -> str:
    """The decimal text of an int of any length."""
    if n.bit_length() < 1990:  # 2^1990 < 10^600
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10 ** k)
    return int_text(hi) + int_text(lo).zfill(k)


def text_int(s: str) -> int:
    """The int of a decimal text of any length; the inverse of int_text."""
    if len(s) <= _PIECE:
        return int(s)
    digits = s[1:] if s[0] in "+-" else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {s[:20]}... ({len(s)} characters)")
    k = len(digits) // 2
    n = text_int(digits[:-k]) * 10 ** k + text_int(digits[-k:])
    return -n if s[0] == "-" else n


def _norm_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)}")


class Polynomial:
    """Immutable sparse Laurent polynomial.

    Do not mutate ``terms`` after construction; all operations return new
    objects, so values are safe to share across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = _norm_coeff(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, terms: dict) -> "Polynomial":
        """Internal constructor: terms assumed already normalized."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return _P_ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        return _P_ONE

    @classmethod
    def const(cls, c) -> "Polynomial":
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return cls._raw({_ONE: c} if c else {})

    @classmethod
    def var(cls, v: Variable, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return _P_ONE
        return cls._raw({((v.code, exp),): 1})

    @classmethod
    def monomial(cls, pairs, coeff=1) -> "Polynomial":
        """Build coeff * prod(v**e) from (Variable, exp) pairs; repeated
        variables accumulate."""
        acc: dict = {}
        for v, e in pairs:
            acc[v.code] = acc.get(v.code, 0) + e
        key = tuple((c, e) for c, e in sorted(acc.items()) if e)
        c = _norm_coeff(coeff)
        if not c:
            return _P_ZERO
        return cls._raw({key: c})

    @classmethod
    def from_exponent_counts(cls, counts: dict, atoms) -> "Polynomial":
        """sum of c * prod(atoms[i] ** v[i]) over the items (v, c) of counts.

        Each exponent vector v has one entry per atom; atoms are Variables,
        rationals or polynomials.  When the atoms are distinct plain variables
        in canonical order, each vector is already a monomial and is written
        out directly.  Otherwise (reordered, repeated, rational, Laurent or
        compound atoms) cached atom powers are multiplied into one dict.
        """
        vals = [as_poly(a) for a in atoms]
        k = len(vals)
        for vec in counts:
            if len(vec) != k:
                raise ValueError(f"exponent vector {vec} does not match {k} atoms")
        codes = [_plain_code(p) for p in vals]
        if None not in codes and all(a < b for a, b in zip(codes, codes[1:])):
            terms = {}
            for vec, c in counts.items():
                c = _norm_coeff(c)
                if c:
                    terms[tuple((code, e) for code, e in zip(codes, vec) if e)] = c
            return cls._raw(terms)
        powers: dict = {}
        out: dict = {}
        for vec, c in counts.items():
            if not c:
                continue
            w = _P_ONE
            for i, e in enumerate(vec):
                if e:
                    p = powers.get((i, e))
                    if p is None:
                        p = powers[(i, e)] = vals[i] ** e
                    w = w * p
            for m, coeff in w.terms.items():
                s = out.get(m, 0) + coeff * c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return cls._raw({m: _norm_coeff(c) for m, c in out.items()})

    @classmethod
    def sum(cls, polys) -> "Polynomial":
        """The sum of an iterable of polynomials, accumulated in one dict."""
        out: dict = {}
        get = out.get
        for p in polys:
            for m, c in p.terms.items():
                out[m] = get(m, 0) + c
        return cls._raw({m: _norm_coeff(c) for m, c in out.items() if c})

    # -- basic queries -----------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def variables(self) -> list:
        codes = set()
        for mono in self.terms:
            for c, _ in mono:
                codes.add(c)
        return [_decode(c) for c in sorted(codes)]

    def is_symmetric_under_swap(self, a: Variable, b: Variable) -> bool:
        pa, pb = Polynomial.var(a), Polynomial.var(b)
        return self.substitute({a: pb, b: pa}) == self

    # -- arithmetic --------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = _norm_coeff(s)
            else:
                out.pop(m, None)
        return Polynomial._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = _norm_coeff(s)
            else:
                out.pop(m, None)
        return Polynomial._raw(out)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.const(other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _norm_coeff(other)
            if not c:
                return _P_ZERO
            return Polynomial._raw({m: _norm_coeff(k * c) for m, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _P_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) * len(b) > 512:
            return self._mul_packed(a, b)
        out = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = _mono_mul(ma, mb)
                s = get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._raw({m: _norm_coeff(c) for m, c in out.items()})

    @staticmethod
    def _mul_packed(a: dict, b: dict) -> "Polynomial":
        """Large products: pack each monomial into one integer (_packing) so
        the inner loop is plain integer addition."""
        pack, unpack = _packing((a, b))
        out: dict = {}
        _add_products(out, [(pack(m), c) for m, c in a.items()],
                      [(pack(m), c) for m, c in b.items()])
        return unpack(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            if len(self.terms) == 1:
                ((m, c),) = self.terms.items()
                inv_c = Fraction(1, 1) / Fraction(c)
                return Polynomial._raw({_mono_pow(m, -1): _norm_coeff(inv_c)}) ** (-n)
            raise ValueError("negative power of a non-monomial polynomial")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            inv = Fraction(1, 1) / Fraction(other)
            return self * inv
        if isinstance(other, Polynomial) and len(other.terms) == 1:
            return self * other ** -1
        return NotImplemented

    # -- substitution and evaluation ---------------------------------
    def substitute(self, bindings: dict) -> "Polynomial":
        """Simultaneously substitute variables by polynomials or rationals.

        A bound value raised to a negative exponent must be invertible: a
        nonzero rational or a single-term (monomial) polynomial.  A zero
        raised to a negative exponent anywhere raises ZeroDivisionError,
        before any other value raises ValueError.
        """
        by_code = {}
        for v, val in bindings.items():
            if isinstance(val, (int, Fraction)):
                val = Polynomial.const(val)
            by_code[v.code] = val
        if not by_code:
            return self
        zeros = {code for code, val in by_code.items() if val.is_zero()}
        if zeros:
            for mono in self.terms:
                for code, e in mono:
                    if e < 0 and code in zeros:
                        raise ZeroDivisionError(
                            f"negative exponent of a value bound to 0 ({_decode(code)})"
                        )
        power_cache: dict = {}

        def powered(code: int, e: int) -> Polynomial:
            key = (code, e)
            got = power_cache.get(key)
            if got is None:
                # Polynomial.__pow__ checks that a negative power is invertible
                got = power_cache[key] = by_code[code] ** e
            return got

        terms = []
        for mono, coeff in self.terms.items():
            free = []
            factor = None
            for code, e in mono:
                if code in by_code:
                    f = powered(code, e)
                    factor = f if factor is None else factor * f
                else:
                    free.append((code, e))
            term = Polynomial._raw({tuple(free): coeff})
            terms.append(term if factor is None else term * factor)
        return Polynomial.sum(terms)

    def evaluate(self, values: dict) -> Fraction:
        """Evaluate at an all-rational point; every variable must be bound."""
        by_code = {v.code: Fraction(val) for v, val in values.items()}
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = Fraction(coeff)
            for code, e in mono:
                if code not in by_code:
                    raise KeyError(f"unbound variable {_decode(code)}")
                v = by_code[code]
                if v == 0 and e < 0:
                    raise ZeroDivisionError("negative exponent at value 0")
                prod *= v ** e
            total += prod
        return total

    # -- exact division ----------------------------------------------
    def divexact_diff(self, a: Variable, b: Variable) -> "Polynomial":
        """Exact division by (a - b); raises if a nonzero remainder appears."""
        ca = a.code
        by_dega: dict[int, dict] = {}
        for mono, coeff in self.terms.items():
            d = 0
            rest = []
            for code, e in mono:
                if code == ca:
                    d = e
                else:
                    rest.append((code, e))
            by_dega.setdefault(d, {})[tuple(rest)] = coeff
        if not by_dega:
            return _P_ZERO
        lo = min(by_dega)
        hi = max(by_dega)
        shift = -lo if lo < 0 else 0
        coeffs = {d + shift: Polynomial._raw(t) for d, t in by_dega.items()}
        vb = Polynomial.var(b)
        quo: dict[int, Polynomial] = {}
        carry = _P_ZERO
        for k in range(hi + shift, 0, -1):
            qk = coeffs.get(k, _P_ZERO) + carry
            quo[k - 1] = qk
            carry = vb * qk
        rem = coeffs.get(0, _P_ZERO) + carry
        if not rem.is_zero():
            raise ArithmeticError("division by (a - b) left a nonzero remainder")
        result = _P_ZERO
        for k, q in quo.items():
            e = k - shift
            result = result + (q if e == 0 else q * Polynomial.var(a, e))
        return result

    # -- serialization -----------------------------------------------
    def sorted_terms(self):
        """Graded order: higher total degree first, then the first variable
        (in canonical order) whose exponents differ; the larger one first."""
        slot = {c: i for i, c in enumerate(sorted({c for m in self.terms for c, _ in m}), 1)}

        def key(item):
            v = [0] * (len(slot) + 1)
            for c, e in item[0]:
                v[0] -= e
                v[slot[c]] = -e
            return v

        return sorted(self.terms.items(), key=key)

    def to_json_obj(self) -> list:
        names = {c: str(_decode(c)) for c in {c for m in self.terms for c, _ in m}}
        out = []
        for mono, coeff in self.sorted_terms():
            coeff = f"{int_text(coeff.numerator)}/{int_text(coeff.denominator)}"
            out.append({"coeff": coeff, "exps": {names[c]: e for c, e in mono}})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: list) -> "Polynomial":
        terms = {}
        for entry in obj:
            num, _, den = entry["coeff"].partition("/")
            coeff = Fraction(text_int(num), text_int(den) if den else 1)
            pairs = [(var_from_name(name), e) for name, e in entry["exps"].items()]
            key = tuple(sorted(((v.code, e) for v, e in pairs if e), key=lambda p: p[0]))
            terms[key] = terms.get(key, 0) + coeff
        return cls(terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            f = Fraction(coeff)
            factors = []
            for c, e in mono:
                name = str(_decode(c))
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(f)
            num = int_text(mag.numerator)
            mag_text = num if mag.denominator == 1 else f"{num}/{int_text(mag.denominator)}"
            if not factors:
                text = mag_text
            elif mag == 1:
                text = body
            else:
                text = f"{mag_text}*{body}"
            if not parts:
                parts.append(text if f >= 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if f >= 0 else f"- {text}")
        return " ".join(parts)

    __repr__ = __str__


_P_ZERO = Polynomial._raw({})
_P_ONE = Polynomial._raw({_ONE: 1})


def as_poly(v) -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, Variable):
        return Polynomial.var(v)
    if isinstance(v, (int, Fraction)):
        return Polynomial.const(v)
    raise TypeError(f"cannot interpret {v!r} as a polynomial")


# ---------------------------------------------------------------------------
# polynomial matrices and determinants
# ---------------------------------------------------------------------------

class PolyMatrix:
    """Matrix of polynomials with a zero-skipping product and an exact
    determinant."""

    def __init__(self, entries):
        self.entries = [[as_poly(e) for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def _from_rows(cls, entries, cols: int) -> "PolyMatrix":
        """Internal constructor: rows of Polynomials, each cols long."""
        mat = object.__new__(cls)
        mat.entries = entries
        mat.rows = len(entries)
        mat.cols = cols
        return mat

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Product over nonzero entries only: each nonzero (k, a) of a row
        of self meets the nonzero entries of row k of other."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        right = [[(j, b) for j, b in enumerate(row) if b.terms]
                 for row in other.entries]
        out = []
        for row in self.entries:
            acc: dict = {}
            for k, a in enumerate(row):
                if a.terms:
                    for j, b in right[k]:
                        got = acc.get(j)
                        if got is None:
                            acc[j] = [a * b]
                        else:
                            got.append(a * b)
            new = [_P_ZERO] * other.cols
            for j, prods in acc.items():
                new[j] = Polynomial.sum(prods)
            out.append(new)
        return PolyMatrix._from_rows(out, other.cols)

    def determinant(self) -> Polynomial:
        return determinant(self)


def determinant(m) -> Polynomial:
    """Exact determinant by Laplace expansion memoized over column subsets.

    Accepts a PolyMatrix or a list-of-lists of polynomials; size <= 12.
    Every minor stays packed in one integer layout (_packing, with the rows
    as groups), as an {key: coeff} dict; only the full determinant is
    unpacked.
    """
    if isinstance(m, PolyMatrix):
        grid = m.entries
    else:
        grid = [[as_poly(e) for e in row] for row in m]
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("determinant of a non-square matrix")
    if n > 12:
        raise ValueError("determinant size capped at 12")
    if n == 0:
        return _P_ONE
    pack, unpack = _packing([mono for e in row for mono in e.terms] for row in grid)
    packed = [[[(pack(m), c) for m, c in e.terms.items()] for e in row] for row in grid]
    memo = {0: {0: 1}}

    def minor(mask: int) -> dict:
        got = memo.get(mask)
        if got is not None:
            return got
        row = packed[n - mask.bit_count()]
        acc: dict = {}
        sign = 1
        rest = mask
        while rest:
            low = rest & -rest
            entry = row[low.bit_length() - 1]
            if entry:
                _add_products(acc, entry, minor(mask ^ low).items(), sign)
            sign = -sign
            rest ^= low
        got = memo[mask] = {kk: c for kk, c in acc.items() if c}
        return got

    return unpack(minor((1 << n) - 1))


# ---------------------------------------------------------------------------
# symmetric polynomial generators
# ---------------------------------------------------------------------------

def h_table(k: int, atoms, start=None) -> list:
    """[h_0, ..., h_k] of the atoms, k >= 0.

    Atoms may be Variables, rationals, or arbitrary polynomials (e.g. t1**-1).
    ``start``, if given, is the table (to degree k or more) of atoms already
    included, and the result extends it by ``atoms``.
    """
    H = list(start[: k + 1]) if start is not None else [_P_ONE] + [_P_ZERO] * k
    for a in atoms:
        a = as_poly(a)
        for d in range(1, k + 1):
            H[d] = H[d] + a * H[d - 1]
    return H


def _h_grid(la, tables, inner=()):
    """The Jacobi-Trudi grid h_{la_i - inner_j - i + j}, row i read from
    tables[i-1]; the tables hold Polynomials or Fractions, and an entry of
    negative degree is 0."""
    l = len(la)
    return [[H[d] if d >= 0 else 0
             for d in (part(la, i) - part(inner, j) - i + j for j in range(1, l + 1))]
            for i, H in zip(range(1, l + 1), tables)]


def hk(k: int, atoms) -> Polynomial:
    """Complete homogeneous symmetric polynomial of the given atoms.

    h_k = 0 for k < 0, h_0 = 1.
    """
    if k < 0:
        return _P_ZERO
    return h_table(k, atoms)[k]


def e_table(k: int, atoms, start=None) -> list:
    """[e_0, ..., e_k] of the atoms, k >= 0; e_d = 0 for d > len(atoms).

    ``start``, if given, is a table of series coefficients (to degree k or
    more), and the result is that series times prod(1 + a u) over the atoms,
    one factor at a time.
    """
    E = list(start[: k + 1]) if start is not None else [_P_ONE] + [_P_ZERO] * k
    top = k if start is not None else 0
    for a in atoms:
        a = as_poly(a)
        top = min(k, top + 1)
        for d in range(top, 0, -1):
            E[d] = E[d] + a * E[d - 1]
    return E


def ek(k: int, atoms) -> Polynomial:
    """Elementary symmetric polynomial; e_k = 0 for k < 0 or k > len(atoms)."""
    if k < 0:
        return _P_ZERO
    return e_table(k, atoms)[k]


# ---------------------------------------------------------------------------
# divided difference operators
# ---------------------------------------------------------------------------

def swap_x(p: Polynomial, i: int) -> Polynomial:
    """Apply the simple transposition s_i exchanging x_i and x_{i+1}."""
    return p.substitute({X(i): Polynomial.var(X(i + 1)), X(i + 1): Polynomial.var(X(i))})


def divided_difference(p: Polynomial, i: int) -> Polynomial:
    """Newton divided difference (p - s_i p)/(x_i - x_{i+1}), exactly."""
    num = p - swap_x(p, i)
    if num.is_zero():
        return _P_ZERO
    return num.divexact_diff(X(i), X(i + 1))


def divided_difference_word(p: Polynomial, word) -> Polynomial:
    """Apply d_{i_1} ... d_{i_m} for word = (i_1, ..., i_m).

    The word is applied right-to-left, matching operator composition.
    """
    for i in reversed(list(word)):
        p = divided_difference(p, i)
    return p


def longest_word(n: int) -> tuple:
    """Reduced word (1,2,...,n-1, 1,2,...,n-2, ..., 1) for the longest
    element of the symmetric group S_n, e.g. (1,2,1) for n=3."""
    if n <= 1:
        return ()
    return tuple(range(1, n)) + longest_word(n - 1)


def x_staircase(n: int) -> Polynomial:
    """The monomial x1^{n-1} x2^{n-2} ... x_{n-1}."""
    return Polynomial.monomial([(X(i), n - i) for i in range(1, n + 1)])


def pi_w0(p: Polynomial, n: int) -> Polynomial:
    """Demazure operator for the longest element: pi_w0 f = d_w0(x^rho f)."""
    return divided_difference_word(x_staircase(n) * p, longest_word(n))
