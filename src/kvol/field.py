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

Sign determination is exact: a floating-point filter with a rigorous forward
error bound handles the bulk of queries, and the remainder fall through to
interval arithmetic on the integer numerators at increasing precision
(53 -> 113 -> 233 -> ... bits), up to the precision that the root-separation
bound proves decides the sign.  Phi is enclosed by certified integer Newton
steps, and mpmath is never imported.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

_FLOAT_EPS = 2.0 ** -52
_HASH_MODULUS = sys.hash_info.modulus
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
    the double and double the precision up to ``shift = bits + 3``, then run
    there until a correction is at most one unit (a doubling step gains
    log2|P''/2P'| bits fewer than it adds); the bracket is +-4 units.  P(lo)
    and P(hi), exact integers, differ in sign, so a root lies in [lo, hi].
    Isolation: P's roots 2cos(j pi/n), j odd, are at least g = 2cos(pi/n) -
    2cos(3pi/n) > 2^-30 apart (n < 2^18).  The bracket lies within g/2 of
    the double, checked in doubles; the double is within 2^-48 of the root
    and the check errs by under 2^-48, so no other root is in it."""
    P = minimal_polynomial(n)
    dP = [i * c for i, c in enumerate(P)][1:]
    x0, shift = 2.0 * math.cos(k * math.pi / n), bits + 3
    X, q = round(x0 * 2.0 ** min(shift, 50)), min(shift, 50)
    for _ in range(shift.bit_length() + 64):
        X, q = X << (min(2 * q, shift) - q), min(2 * q, shift)
        corr = _horner(P, X, q) // _horner(dP, X, q)
        X -= corr
        if q == shift and abs(corr) <= 1:
            break
    g, one = _phi_float(n) - 2.0 * math.cos(3 * math.pi / n), 1 << q
    if abs(X / one - x0) + 4 / one > g / 2 or _horner(P, X - 4, q) * _horner(P, X + 4, q) > 0:
        raise ArithmeticError("root enclosure not certified")
    return X - 4, X + 4, q


def _interval_eval(num: Sequence[int], lo: int, hi: int, shift: int) -> tuple[int, int]:
    """Exact interval Horner evaluation of the integer polynomial ``num`` at
    Phi in [lo, hi] / 2**shift.  The bounds come back multiplied by a power of
    two, which leaves their signs unchanged."""
    acc_lo = acc_hi = 0
    k = 0
    for c in reversed(num):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        k += shift
        acc_lo = min(cands) + (c << k)
        acc_hi = max(cands) + (c << k)
    return acc_lo, acc_hi


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
        multiplication by N by Bareiss elimination; back substitution yields
        the integers D*y with D the final pivot (Cramer), so the inverse is
        den * (D*y) / D.
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
        if not _bareiss(rows):
            raise ArithmeticError("element not invertible (reducible modulus?)")
        D = rows[-1][d - 1]
        x = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            x[i] = (D * row[d] - sum(row[j] * x[j] for j in range(i + 1, d))) // row[i]
        if D < 0:
            D, x = -D, [-v for v in x]
        return _element(self.n, [den * v for v in x], D)

    # -- predicates and comparisons -----------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1.

        The interval ladder ends at ``_separation_bits``, where a nonzero
        element's enclosure is narrower than the root-separation lower
        bound on its size, so it excludes 0 and the last rung decides.
        """
        # den > 0, so the numerator polynomial has the sign of self.  Float
        # filter with rigorous forward error bound: float(a) is the correctly
        # rounded coefficient (a numerator past the float range skips it).
        phi, rel_err = _filter_constants(self.n)
        try:
            top = reversed(self._num)
            val = float(next(top))
            mag = abs(val)
            for a in top:
                fc = float(a)
                val = val * phi + fc
                mag = mag * phi + abs(fc)
        except OverflowError:
            val = mag = math.inf
        if abs(val) > mag * rel_err:
            return 1 if val > 0 else -1
        if not mag:  # every numerator is 0
            return 0
        bits, top = 53, _separation_bits(self._num)
        while True:
            lo, hi = _interval_eval(self._num, *_root_enclosure(self.n, 1, bits))
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if bits == top:
                raise ArithmeticError("sign undecided at the proven precision")
            bits = min(2 * bits + 7, top)

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
        # hash((n, coeffs)) without building Fractions: when the hash modulus
        # P does not divide den, the Fraction a/den (reduced or not) hashes
        # like the integer +-(|a| den^-1 mod P), and a tuple hashes its
        # entries' hashes
        n, num, den = self.n, self._num, self._den
        P = _HASH_MODULUS
        if den == 1:
            h = hash((n, num))
        elif den % P:
            inv = pow(den, -1, P)
            h = hash((n, tuple([a * inv % P if a >= 0 else -(-a * inv % P) for a in num])))
        else:
            h = hash((n, self.coeffs))
        _set(self, "_hash", h)
        return h

    # -- embeddings ----------------------------------------------------------

    def __float__(self) -> float:
        try:
            return self._float
        except AttributeError:
            pass
        phi = _phi_float(self.n)
        den = self._den
        f = 0.0
        for a in reversed(self._num):
            f = f * phi + a / den
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
def _filter_constants(n: int) -> tuple[float, float]:
    """Phi as a float, and the sign filter's relative error bound
    (4d + 4) * eps for d coefficients."""
    return _phi_float(n), (4 * field_degree(n) + 4) * _FLOAT_EPS


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


def _separation_bits(num: Sequence[int]) -> int:
    """Precision of an enclosure of Phi at which interval Horner evaluation
    of ``N = sum a_i Phi^i`` (``num`` = a_0 .. a_(d-1), not all 0) is good to
    2^-60 relative, so certainly excludes 0.

    N is a nonzero algebraic integer, so the product of its d conjugates is
    a nonzero integer.  Each conjugate is at most ``A = sum |a_i| 2^i``,
    hence ``|N| >= A^(1 - d)``.  Interval Horner over an enclosure of Phi of
    width ``2^-p`` encloses N in width about ``d 2^-p A``, so
    ``p = 64 + d (log2 A + 1)`` bits suffice; p is rounded up to a multiple
    of 64 to keep few distinct precisions in the enclosure cache.
    """
    d = len(num)
    bits = 64 + d * (sum(abs(a) << i for i, a in enumerate(num)).bit_length() + 1)
    return -(-bits // 64) * 64


def accurate_float(x: CycloReal) -> float:
    """``x`` as a double with relative error below about 2^-60, however far
    its numerators cancel.  (``float(x)`` runs Horner's rule in doubles,
    whose error is relative to the numerators, not to ``x``.)  The
    enclosure of ``den * x`` at ``_separation_bits`` has its midpoint good
    to 2^-60 relative; it is rounded to a double by one integer division.
    """
    d = len(x._num)
    lo, hi, shift = _root_enclosure(x.n, 1, _separation_bits(x._num))
    acc_lo, acc_hi = _interval_eval(x._num, lo, hi, shift)
    return (acc_lo + acc_hi) / (x._den << (d * shift + 1))


@lru_cache(maxsize=None)
def _trace_inverse(n: int) -> tuple[int, list[list[int]]]:
    """``scale`` and the integers ``scale T^-1`` for the trace matrix
    ``T[i][j] = Tr(Phi^(i+j))``, V^T V for V[k][j] = phi_k^j (conjugates)."""
    d = field_degree(n)
    powers = (_fold(n, [0] * k + [1] + [0] * d, d) for k in range(2 * d - 1))
    tr = [sum(r[i] for i, r in enumerate(_mul_matrix(n, x))) for x in powers]
    rows = [tr[i:i + d] + [int(i == j) for j in range(d)] for i in range(d)]
    for c, pivot in enumerate(rows):  # Gauss-Jordan; T is positive definite
        pivot[:] = [Fraction(v, pivot[c]) for v in pivot]
        for row in rows:
            if row is not pivot:
                row[:] = [v - row[c] * w for v, w in zip(row, pivot)]
    scale = math.lcm(*(v.denominator for row in rows for v in row[d:]))
    return scale, [[int(v * scale) for v in row[d:]] for row in rows]


def sqrt_in_field(x: CycloReal) -> Union[CycloReal, None]:
    """The exact square root of ``x`` inside Q(Phi), or None.  The returned
    root is the nonnegative one; the answer is exact both ways.

    Z[Phi] is the ring of integers of Q(zeta_2n)^+ (Washington, Prop. 2.16).
    Write x = N / D with N in Z[Phi] and D a positive integer, and m = N*D.
    If x = r^2 in the field, then D*r squares to m, so it is an algebraic
    integer of the field: s = D*r lies in Z[Phi] and has integer
    coefficients.  Hence:

    - Norm(m) = det(multiplication by m) = Norm(s)^2 must be the square of
      an integer (checked exactly), and no conjugate of m may be negative.
    - The conjugates of s are rho_k = +-sqrt(sigma_k(m)), with + at Phi
      itself, and s = V^-1 rho = T^-1 V^T rho (``_trace_inverse``), where
      V^T rho holds the traces Tr(s Phi^i), integers.  Under each sign
      pattern, traces all within 1/4 of integers are rounded, T^-1 (exact)
      gives a candidate, and it is accepted only if it squares to x exactly.

    Precision: with |m_i| < 2^h, |sigma_k(m)| < 2^(h+d).  From the powers
    phi_k^i rounded to 2^-p (off by under i 2^i 2^-p), it is off by at most
    E = 2^(h+d+8-p) (d <= 64), its ``math.isqrt`` by sqrt(E) + 2^-p, and
    V^T rho, as ||V^T||_inf <= d 2^(d-1), by 2^(log2(d)+d+(h+d+8-p)/2) plus
    terms in 2^-p.  p >= h + 3d + 2 log2(d) + 64 makes that below 2^-27, so
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
    norm = _bareiss(_mul_matrix(n, m))
    if norm < 0 or math.isqrt(norm) ** 2 != norm:
        return None
    h = max(abs(a) for a in m).bit_length()
    prec = -(-(h + 3 * d + 2 * d.bit_length() + 64) // 64) * 64  # few distinct enclosures
    pows = []  # phi_k^i 2^p, i < d, rounded, for phi_k = 2cos(k pi/n), Phi first
    for k in (k for k in range(1, n) if math.gcd(k, 2 * n) == 1):
        lo, hi, t = _root_enclosure(n, k, prec + 2)
        row = [1 << prec, (lo + hi + (1 << (t - prec))) >> (t - prec + 1)]
        while len(row) < d:
            row.append((row[-1] * row[1] + (1 << (prec - 1))) >> prec)
        pows.append(row[:d])
    conj = [sum(a * w for a, w in zip(m, row)) for row in pows]
    if min(conj) < -(1 << (h + d + 8)):  # below -E: a negative conjugate
        return None
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
            cand = _element(n, [sum(a * t for a, t in zip(r, traces)) for r in inv], den * scale)
            if cand * cand == x:
                return cand if cand.sign() > 0 else -cand
    return None
