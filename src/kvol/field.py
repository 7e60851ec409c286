"""Exact arithmetic in the real cyclotomic field Q(Phi), Phi = 2*cos(pi/n).

Every length, coordinate and ratio in this package lives in the totally real
field Q(2*cos(pi/n)) of degree d.  An element is a polynomial in Phi of degree
below d, stored as d integer numerators over one positive common denominator,
normalised so that gcd(den, *num) = 1: the ``nf_elem`` layout of FLINT and
e-antic.  The form is unique, so equality is a tuple compare.  A product is an
integer convolution folded by the minimal polynomial of Phi; sums of elements
with equal denominators add numerators directly; every operation ends with
one gcd pass.  Inverses come from fraction-free (Bareiss) elimination on the
integer matrix of multiplication.

Every conversion of an element to a number reads one cached table per
precision p: T_i = Phi^i 2^p rounded, i < d (``_powers``, from a certified
integer enclosure of Phi; ``sqrt_in_field`` reads the same table of each
conjugate of Phi).  The dot product S = sum a_i T_i of the
numerators a_i is within E = sum |a_i| units of 2^p N, N = sum a_i Phi^i,
and it climbs the rungs p = 128, 256, ... (``_rung``).  The sign is S's
once |S| > E; ``float`` is the correctly rounded quotient S / (den 2^p) once
|S| > 2^60 E, the double nearest a value within 2^-60 relative of the
element.  The root-separation bound (``_separation_bits``) proves that a
nonzero element passes both tests at a finite rung.  ``_rounded`` rounds an
element once, correctly, at the first rung where S -+ E round alike, a rung
that a like bound caps.  mpmath is never imported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul, truediv
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

FLOAT_SPEC = ".17g"  # 17 significant digits: round-trip safe

_new = object.__new__
_set = object.__setattr__


class ComputationLimitError(RuntimeError):
    """A search or iteration hit its budget before reaching an answer."""


def _poly_divexact_int(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (q monic up to sign at top)."""
    p = list(p)
    dq = len(q) - 1
    out = [0] * (len(p) - dq)
    for k in range(len(out) - 1, -1, -1):
        c = p[k + dq]
        if c % q[dq] != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= q[dq]
        out[k] = c
        if c:
            for j, b in enumerate(q):
                p[k + j] -= c * b
    if any(p[: dq]):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("m must be positive")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_divexact_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def minimal_polynomial(n: int) -> tuple[int, ...]:
    """Minimal polynomial of Phi = 2*cos(pi/n) over Q, monic, low degree first.

    Obtained by folding the 2n-th cyclotomic polynomial through the
    substitution x = z + 1/z, using z^k + z^-k = p_k(x) with the Chebyshev-like
    recurrence p_0 = 2, p_1 = x, p_{k+1} = x*p_k - p_{k-1}.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    cyc = cyclotomic_polynomial(2 * n)
    deg = len(cyc) - 1
    if deg % 2 != 0:
        raise ArithmeticError("cyclotomic degree not even")
    half = deg // 2
    # p_k(x) as integer polynomials
    p = [[2], [0, 1]]
    for _ in range(2, half + 1):
        nxt = [0] + p[-1]  # x * p_k
        for i, c in enumerate(p[-2]):
            nxt[i] -= c
        p.append(nxt)
    out = [0] * (half + 1)
    out[0] += cyc[half]
    for k in range(1, half + 1):
        a = cyc[half + k]
        if cyc[half - k] != a:
            raise ArithmeticError("cyclotomic polynomial not palindromic")
        if a:
            for i, c in enumerate(p[k]):
                out[i] += a * c
    if out[-1] != 1:
        raise ArithmeticError("minimal polynomial not monic")
    return tuple(out)


def field_degree(n: int) -> int:
    return len(minimal_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _fold_terms(n: int) -> tuple[tuple[int, int], ...]:
    """``(i, -m_i)`` for the nonzero m_i below the top of the minimal
    polynomial, so that Phi^d = sum of -m_i * Phi^i."""
    return tuple((i, -c) for i, c in enumerate(minimal_polynomial(n)[:-1]) if c)


def _fold(n: int, p: list[int], d: int) -> list[int]:
    """Reduce the integer polynomial ``p`` modulo the minimal polynomial, in
    place, from its top degree down; any length is accepted."""
    terms = _fold_terms(n)
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        if c:
            base = k - d
            for i, m in terms:
                p[base + i] += c * m
    del p[d:]
    return p


@lru_cache(maxsize=None)
def _zero_tail(n: int) -> tuple[int, ...]:
    return (0,) * (field_degree(n) - 1)


def common_denominator(xs: Sequence["CycloReal"]) -> tuple[int, list[tuple[int, ...]]]:
    """One common denominator D of the elements ``xs`` (the lcm of theirs)
    and each element's integer numerators over it."""
    D = math.lcm(*(x._den for x in xs))
    return D, [tuple(a * (D // x._den) for a in x._num) for x in xs]


def _element(n: int, num, den: int) -> "CycloReal":
    """The element ``num / den`` (den > 0), normalised to gcd(den, *num) = 1."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    x = _new(CycloReal)
    _set(x, "n", n)
    _set(x, "_num", tuple(num))
    _set(x, "_den", den)
    return x


def _mul_matrix(n: int, num: Sequence[int]) -> list[list[int]]:
    """Rows of the integer matrix of multiplication by ``num`` on the basis
    1, Phi, ..., Phi^(d-1): column j holds ``num * Phi^j``."""
    d = len(num)
    col = list(num)
    cols = [col]
    for _ in range(d - 1):
        col = _fold(n, [0] + col, d)
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _bareiss(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss) of an integer matrix.

    ``rows`` holds d rows of at least d integers; columns past d are carried
    along.  The rows are made upper triangular in place, every division being
    exact, and the last pivot ``rows[-1][d-1]`` is the determinant of the
    row-permuted square part.  Returns the determinant of the square part, 0
    when it is singular (the elimination then stops early).
    """
    d = len(rows)
    sign, prev = 1, 1
    for k in range(d):
        if not rows[k][k]:
            for r in range(k + 1, d):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k]
        p = pivot[k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * p - f * pivot[j]) // prev
            row[k] = 0
        prev = p
    return sign * prev


def _solve(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(D, [D x_1, D x_2, ...]) for M x_c = b_c, with ``rows`` the augmented
    [M | b_1 b_2 ...]: ``_bareiss`` gives D = det M, and back substitution
    the integer vectors D x_c = adj(M) b_c, every division exact; D is made
    positive.  (0, []) when M is singular."""
    d = len(rows)
    D = _bareiss(rows)
    if not D:
        return 0, []
    sols = []
    for c in range(d, len(rows[0])):
        x = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            x[i] = (D * row[c] - sum(row[j] * x[j] for j in range(i + 1, d))) // row[i]
        sols.append(x)
    if D < 0:
        D, sols = -D, [[-v for v in x] for x in sols]
    return D, sols


def _horner(num: Sequence[int], X: int, shift: int) -> int:
    """``2^(shift len(num))`` times the polynomial ``num`` at ``X/2^shift``."""
    acc = 0
    for k, c in enumerate(reversed(num), 1):
        acc = acc * X + (c << shift * k)
    return acc


@lru_cache(maxsize=None)
def _root_enclosure(n: int, k: int, bits: int) -> tuple[int, int, int]:
    """Rigorous enclosure ``lo / 2**shift <= 2cos(k pi/n) <= hi / 2**shift``
    in integers, at most ``2^-bits`` wide, for k prime to 2n (k = 1: Phi).

    Newton steps on the minimal polynomial P, evaluated exactly, start from
    the double.  The precisions are chosen top-down from ``shift = bits + 3``:
    each is half the next, rounded up, plus 8 guard bits, down to at most 50
    bits, where the double starts.  A step from an X good to b bits is good
    to about 2b - log2|P''/2P'| bits, so the guard bits keep each step's
    shortfall from doubling, and one step at ``shift`` lands within a few
    units; the bracket is +-4 units.  P(lo) and P(hi), exact integers,
    differ in sign, so a root lies in [lo, hi]; should they not, another
    step runs at ``shift``.
    Isolation: P's roots 2cos(j pi/n), j odd, are at least g = 2cos(pi/n) -
    2cos(3pi/n) > 2^-30 apart (n < 2^18).  The bracket lies within g/2 of
    the double, checked in doubles; the double is within 2^-48 of the root
    and the check errs by under 2^-48, so no other root is in it."""
    P = minimal_polynomial(n)
    dP = [i * c for i, c in enumerate(P)][1:]
    x0, shift = 2.0 * math.cos(k * math.pi / n), bits + 3
    qs = [shift]
    while qs[-1] > 50:
        qs.append((qs[-1] + 1) // 2 + 8)
    q = qs.pop()
    X = round(x0 * 2.0 ** q)
    for _ in range(len(qs) + 64):
        if qs:
            X, q = X << (qs[-1] - q), qs.pop()
        elif _horner(P, X - 4, q) * _horner(P, X + 4, q) <= 0:
            break
        X -= _horner(P, X, q) // _horner(dP, X, q)
    else:
        raise ArithmeticError("root enclosure not certified")
    g, one = _phi_float(n) - 2.0 * math.cos(3 * math.pi / n), 1 << q
    if abs(X / one - x0) + 4 / one > g / 2:
        raise ArithmeticError("root enclosure not certified")
    return X - 4, X + 4, q


class CycloReal:
    """An element of Q(Phi), Phi = 2*cos(pi/n), with exact arithmetic.

    Immutable.  Stored as ``_num``, a tuple of field_degree(n) integer
    numerators of 1, Phi, ..., Phi^(d-1), over ``_den``, a positive integer
    with gcd(_den, *_num) = 1; ``coeffs`` gives the same coefficients as
    Fractions.  The constructor takes rational coefficients of any length and
    reduces them modulo the minimal polynomial.  Supports +, -, *, /, integer
    powers, exact comparisons, hashing, float embedding and JSON round-trip.
    """

    __slots__ = ("n", "_num", "_den", "_float", "_hash")

    def __init__(self, n: int, coeffs: Iterable[Rational]):
        d = field_degree(n)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        num = _fold(n, [c.numerator * (den // c.denominator) for c in cs], d)
        num += [0] * (d - len(num))
        x = _element(n, num, den)
        _set(self, "n", n)
        _set(self, "_num", x._num)
        _set(self, "_den", x._den)

    def __setattr__(self, *_):
        raise AttributeError("CycloReal is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, Phi, ..., Phi^(d-1) as Fractions."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, n: int, value: Rational) -> "CycloReal":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _element(n, (value.numerator,) + _zero_tail(n), value.denominator)

    @classmethod
    def phi(cls, n: int) -> "CycloReal":
        """The generator Phi = 2*cos(pi/n)."""
        return cls(n, [0, 1])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "CycloReal | None":
        if isinstance(other, CycloReal):
            if other.n != self.n:
                raise ValueError(f"field mismatch: n={self.n} vs n={other.n}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloReal.from_rational(self.n, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._den, o._den
        if da == db:
            return _element(self.n, [x + y for x, y in zip(self._num, o._num)], da)
        return _element(self.n, [x * db + y * da for x, y in zip(self._num, o._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._den, o._den
        if da == db:
            return _element(self.n, [x - y for x, y in zip(self._num, o._num)], da)
        return _element(self.n, [x * db - y * da for x, y in zip(self._num, o._num)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        x = _new(CycloReal)
        _set(x, "n", self.n)
        _set(x, "_num", tuple(-a for a in self._num))
        _set(x, "_den", self._den)
        return x

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._num, o._num
        d = len(a)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    prod[k] += x * y
        return _element(self.n, _fold(self.n, prod, d), self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloReal.from_rational(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CycloReal":
        """Multiplicative inverse, in integers only.

        With self = N / den, solve M y = e_0 for the integer matrix M of
        multiplication by N (``_solve``): it yields the integers D*y with D
        the final pivot, so the inverse is den * (D*y) / D.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num, den = self._num, self._den
        d = len(num)
        if self.is_rational():
            a = num[0]
            return _element(self.n, (den if a > 0 else -den,) + num[1:], abs(a))
        rows = _mul_matrix(self.n, num)
        for i, row in enumerate(rows):
            row.append(1 if i == 0 else 0)
        D, sols = _solve(rows)
        if not D:
            raise ArithmeticError("element not invertible (reducible modulus?)")
        return _element(self.n, [den * v for v in sols[0]], D)

    # -- predicates and comparisons -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1, that of the table dot product at the
        first rung where it exceeds its error bound (``_rung``)."""
        S = _rung(self.n, self._num, 0)[0]
        return (S > 0) - (S < 0)  # den > 0

    def __eq__(self, other):
        if isinstance(other, CycloReal):
            return self.n == other.n and self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == CycloReal.from_rational(self.n, other)
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # a rational element equals, and so hashes as, its int or Fraction
        num, den = self._num, self._den
        h = hash(Fraction(num[0], den)) if self.is_rational() else hash((self.n, num, den))
        _set(self, "_hash", h)
        return h

    # -- embeddings ----------------------------------------------------------

    def __float__(self) -> float:
        try:
            return self._float
        except AttributeError:
            pass
        f = _to_float(self.n, self._num, self._den)
        _set(self, "_float", f)
        return f

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CycloReal":
        coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
        return cls(int(data["n"]), coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*Phi")
            else:
                terms.append(f"{c}*Phi^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"CycloReal(n={self.n}: {body} ~= {float(self):.6g})"


def as_field(n: int, value) -> CycloReal:
    """``value`` as an element of Q(2*cos(pi/n)): a CycloReal of that field
    as it is, a rational (or a float, read exactly) through ``from_rational``.
    A CycloReal of another field is a ValueError."""
    if isinstance(value, CycloReal):
        if value.n != n:
            raise ValueError(f"field mismatch: n={value.n} vs n={n}")
        return value
    return CycloReal.from_rational(n, value)


@lru_cache(maxsize=None)
def _phi_float(n: int) -> float:
    return 2.0 * math.cos(math.pi / n)


@lru_cache(maxsize=None)
def _cos_table(n: int) -> tuple[CycloReal, ...]:
    """cos(k*pi/n) for k = 0..n as exact field elements."""
    one = CycloReal.from_rational(n, 1)
    half_phi = CycloReal.phi(n) / 2
    vals = [one, half_phi]
    for _ in range(2, n + 1):
        vals.append(CycloReal.phi(n) * vals[-1] - vals[-2])
    return tuple(vals)


def trig_value(n: int, kind: str, k: int) -> CycloReal:
    """Exact cos(k*pi/n) or sin(k*pi/n) as an element of Q(2*cos(pi/n)).

    Requires n even for sin (the package only builds surfaces with even n).
    Any integer k is accepted; symmetry reductions are applied exactly.
    """
    if kind == "sin":
        if n % 2 != 0:
            raise ValueError("sin values need even n")
        return trig_value(n, "cos", n // 2 - k)
    if kind != "cos":
        raise ValueError(f"unknown trig kind: {kind!r}")
    k = k % (2 * n)
    if k > n:
        k = 2 * n - k
    return _cos_table(n)[k]


@lru_cache(maxsize=None)
def _powers(n: int, p: int, k: int = 1) -> tuple[int, ...]:
    """The table T_i = phi_k^i 2^p, i < d, of the conjugate phi_k =
    2cos(k pi/n), k prime to 2n (k = 1: Phi), each rounded to within 1/2 +
    2^-64: the nearest integer, unless phi_k^i 2^p is that close to a half.

    X, the midpoint of the enclosure of phi_k at ``t`` >= p + d + bitlen(d)
    + 67 bits (a multiple of 64 past p, plus 3, to share enclosures), is
    within 4 units of phi_k 2^t.  The powers P_(i+1) = X P_i / 2^t, each
    rounded, are off by e_(i+1) <= |phi_k| e_i + 4 |phi_k|^i + 1/2 with
    |phi_k| < 2, so e_i <= (4i + 1) 2^i < 2d 2^d, and rounding P_i from
    2^-t to 2^-p adds at most 1/2 to e_i 2^(p - t) < 2^-66."""
    d = field_degree(n)
    lo, hi, t = _root_enclosure(n, k, -(-(p + d + d.bit_length() + 64) // 64) * 64)
    X, P = (lo + hi) >> 1, [1 << t]
    for _ in range(1, d):
        P.append((P[-1] * X + (1 << (t - 1))) >> t)
    s = t - p
    return tuple((v + (1 << (s - 1))) >> s for v in P)


def _rung(n: int, num: Sequence[int], margin: int) -> tuple[int, int]:
    """(S, p): the dot product S = sum a_i T_i of the numerators a_i of
    ``num`` with the table at the first rung p = 128, 256, ... where
    |S| > 2^margin E, E = sum |a_i|; (0, 128) when every a_i is 0.

    S is within E units of 2^p N, N = sum a_i Phi^i, so it has N's sign, and
    S / 2^p is within 2^-margin |S| / 2^p of N.  The test depends on num only
    up to a positive factor, so a fraction and its reduced form stop at the
    same rung.  For margin <= 60 every rung from ``_separation_bits`` up
    passes it, so the ladder ends."""
    E, p, top = sum(map(abs, num)) << margin, 128, 0
    while True:
        S = sum(map(mul, num, _powers(n, p)))
        if abs(S) > E or not E:
            return S, p
        top = top or _separation_bits(num)
        if p >= top:
            raise ArithmeticError("dot product undecided at the proven precision")
        p *= 2


def _separation_bits(num: Sequence[int]) -> int:
    """A precision p at which the table dot product S of ``N = sum a_i
    Phi^i`` (``num`` = a_0 .. a_(d-1), not all 0) exceeds 2^60 E.

    N is a nonzero algebraic integer, so the product of its d conjugates is
    a nonzero integer.  Each conjugate is at most ``A = sum |a_i| 2^i``,
    hence ``|N| >= A^(1 - d)``.  At ``p = 62 + d bitlen(A)``, ``|N| 2^p >
    2^62 A >= 2^62 E``, so ``|S| >= |N| 2^p - E > 2^60 E``; a larger p only
    raises ``|N| 2^p``.
    """
    return 62 + len(num) * sum(abs(a) << i for i, a in enumerate(num)).bit_length()


def _rounded(x: "CycloReal", rnd=truediv, bits: int = 53):
    """``x`` rounded once, correctly, by ``rnd(a, b)``, which rounds a / b to
    nearest in a format of ``bits``-bit significands (by default, int true
    division, to a double).

    Ziv's test.  T_0 = 2^p exactly and every other T_i is off by under 1,
    so the dot product S at rung p (``_rung``) is within E = sum_(i >= 1)
    |a_i| of 2^p N, N = x den: exact for a rational x.  Rounding is
    monotone, so once S - E and S + E, over den 2^p, round alike and have
    one sign (a zero keeps its sign), that is x's rounding; a rational
    midpoint rounds as ``rnd`` does, half to even.  Else the next rung, up
    to a proven one, past which ArithmeticError.

    The proven rung.  Every conjugate of N is at most A = sum |a_i| 2^i, so
    |N| >= A^(1 - d) (``_separation_bits``).  A rounding boundary b with
    2^(t - 1) <= |b| < 2^t is a multiple of 2^(t - bits - 1); one within
    |x|/2 of an irrational x has |b| >= |x|/2 >= A^(1 - d)/(2 den), so b 2^K
    is an integer for K = bits + 2 + (d - 1) bitlen(A) + bitlen(den).  Then
    2^K (N - den b) is a nonzero algebraic integer with conjugates at most
    2^K (A + 2|N|) <= 3A 2^K, so |x - b| >= (3A)^(1 - d) 2^(-dK)/den.  At
    p = 1 + d (bitlen(3A) + K) the interval's width 2E/(den 2^p) is below
    that and below |x|/2: no boundary lies in it, and its ends have x's
    sign."""
    n, num, den = x.n, x._num, x._den
    d, E, p, top = len(num), sum(map(abs, num[1:])), 128, 0
    while True:
        S = sum(map(mul, num, _powers(n, p)))
        lo = rnd(S - E, den << p)
        if (S - E >= 0 or S + E <= 0) and lo == rnd(S + E, den << p):
            return lo
        if not top:
            A = sum(abs(a) << i for i, a in enumerate(num))
            K = bits + 2 + (d - 1) * A.bit_length() + den.bit_length()
            top = 1 + d * ((3 * A).bit_length() + K)
        if p >= top:
            raise ArithmeticError("rounding undecided at the proven precision")
        p *= 2


def _to_float(n: int, num: Sequence[int], den: int) -> float:
    """``num / den`` as a double: the correctly rounded quotient
    S / (den 2^p) of one integer division, at the first rung with
    |S| > 2^60 E (``_rung``).  That quotient is within 2^-60 relative of
    the element, so the double is within half an ulp plus 2^-60 relative,
    however far the numerators cancel; it depends on ``num`` and ``den``
    only up to a common positive factor.  Past the double range it raises
    OverflowError."""
    S, p = _rung(n, num, 60)
    return S / (den << p)


@lru_cache(maxsize=None)
def _trace_inverse(n: int) -> tuple[int, list[list[int]]]:
    """``scale`` and the integers ``scale T^-1`` for the trace matrix
    ``T[i][j] = Tr(Phi^(i+j))``, V^T V for V[k][j] = phi_k^j (conjugates),
    with ``scale`` the least common denominator of T^-1."""
    d = field_degree(n)
    powers = (_fold(n, [0] * k + [1] + [0] * d, d) for k in range(2 * d - 1))
    tr = [sum(r[i] for i, r in enumerate(_mul_matrix(n, x))) for x in powers]
    D, cols = _solve([tr[i:i + d] + [int(i == j) for j in range(d)] for i in range(d)])
    g = math.gcd(D, *(v for col in cols for v in col))  # T is positive definite, so D > 0
    return D // g, [[v // g for v in row] for row in zip(*cols)]


@lru_cache(maxsize=None)
def _residue_maps(n: int) -> tuple[tuple[int, int], ...]:
    """32 pairs (p, r): the first primes p = 1 mod 2n above 10^6, found by
    trial division, and for each a root r of ``minimal_polynomial(n)`` mod
    p, checked by evaluating the polynomial.  F_p* is cyclic of order
    p - 1, a multiple of 2n, so it holds a primitive 2n-th root z, and
    z + 1/z is such a root; r is taken as z + 1/z for the first power
    z = a^((p - 1)/2n), a = 2, 3, ..., that passes the check."""
    P, out, p = minimal_polynomial(n), [], 10**6 // (2 * n) * 2 * n + 1
    while len(out) < 32:
        p += 2 * n
        if not all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            continue  # p is odd: trial division by the odd q <= sqrt(p)
        for a in range(2, p):
            z = pow(a, (p - 1) // (2 * n), p)
            r = (z + pow(z, -1, p)) % p
            if _horner(P, r, 0) % p == 0:
                out.append((p, r))
                break
    return tuple(out)


def sqrt_in_field(x: CycloReal) -> Union[CycloReal, None]:
    """The exact square root of ``x`` inside Q(Phi), or None.  The returned
    root is the nonnegative one; the answer is exact both ways.

    Z[Phi] is the ring of integers of Q(zeta_2n)^+ (Washington, Prop. 2.16).
    Write x = N / D with N in Z[Phi] and D a positive integer, and m = N*D.
    If x = r^2 in the field, then D*r squares to m, so it is an algebraic
    integer of the field: s = D*r lies in Z[Phi] and has integer
    coefficients.  Hence:

    - Sign: x < 0 has no root, and 0 is its own.
    - Residues: for (p, r) of ``_residue_maps``, Phi -> r is a ring
      homomorphism Z[Phi] = Z[X]/(P) -> F_p, since the minimal polynomial P
      vanishes at r mod p, so it maps s^2 = m to a square.  An image that is
      a non-residue by Euler's criterion, v^((p - 1)/2) = -1 mod p, proves
      that x has no root.
    - Search: the conjugates of s are rho_k = +-sqrt(sigma_k(m)), with + at
      Phi itself, and s = V^-1 rho = T^-1 V^T rho (``_trace_inverse``),
      where V^T rho holds the traces Tr(s Phi^i), integers.  Under each sign
      pattern, traces all within 1/4 of integers are rounded and T^-1
      (exact) gives s; a pattern whose s has a non-integer coefficient is
      skipped.  The candidate s/D is accepted only if it squares to x
      exactly; a square has the true pattern among them (below), so None
      is exact too.  A negative conjugate of m, as no square has, reads as 0.

    Precision: with |m_i| < 2^h, |sigma_k(m)| < 2^(h+d).  From the powers
    phi_k^i 2^p of ``_powers`` (each off by at most 1/2 + 2^-64 units), it
    is off by at most E = 2^(h+d+8-p) (d <= 64), its ``math.isqrt`` by
    sqrt(E) + 2^-p, and V^T rho, as ||V^T||_inf <= d 2^(d-1), by
    2^(log2(d)+d+(h+d+8-p)/2) plus terms in 2^-p.  p >= h + 3d + 2 log2(d) + 64 makes that below 2^-27, so
    the true pattern always rounds to the traces, and a square root, when it
    exists, is never missed.  T^-1 acts exactly, after the rounding, so
    ||T^-1 V^T||_inf, unlike ||V^T||_inf, sets no precision.
    """
    s = x.sign()
    if s == 0:
        return CycloReal.from_rational(x.n, 0)
    if s < 0:
        return None
    n, den = x.n, x._den
    d = len(x._num)
    m = [a * den for a in x._num]
    for p, r in _residue_maps(n):
        if pow(_horner(m, r, 0) % p, (p - 1) // 2, p) == p - 1:
            return None
    h = max(abs(a) for a in m).bit_length()
    prec = -(-(h + 3 * d + 2 * d.bit_length() + 64) // 64) * 64  # few distinct enclosures
    # phi_k^i 2^p, i < d, for phi_k = 2cos(k pi/n), Phi first
    pows = [_powers(n, prec, k) for k in range(1, n) if math.gcd(k, 2 * n) == 1]
    conj = (sum(a * w for a, w in zip(m, row)) for row in pows)
    # Tr(s Phi^i) = sum_k +-cols[k][i] over 2^(2p)
    cols = [[w * math.isqrt(max(c, 0) << prec) for w in row] for row, c in zip(pows, conj)]
    scale, inv = _trace_inverse(n)
    unit = 1 << (2 * prec)
    for pattern in range(1 << (d - 1)):
        traces = []
        for i in range(d):
            c = cols[0][i]
            for k in range(1, d):
                c = c - cols[k][i] if pattern >> (k - 1) & 1 else c + cols[k][i]
            t = (c + (unit >> 1)) >> (2 * prec)
            if abs(c - t * unit) > unit >> 2:
                break
            traces.append(t)
        else:
            num = [sum(a * t for a, t in zip(r, traces)) for r in inv]  # scale * s
            if any(c % scale for c in num):
                continue  # s is not in Z[Phi]
            cand = _element(n, [c // scale for c in num], den)
            if cand * cand == x:
                return cand if cand.sign() > 0 else -cand
    return None
