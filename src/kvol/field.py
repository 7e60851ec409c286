"""Exact arithmetic in the real cyclotomic field Q(Phi), Phi = 2*cos(pi/n).

Every length, coordinate and ratio in this package lives in the totally real
field Q(2*cos(pi/n)).  Elements are represented as polynomials in Phi with
rational coefficients, reduced modulo the minimal polynomial of Phi.  Sign
determination is exact: a floating-point filter with a rigorous forward error
bound handles the bulk of queries, and the remainder fall through to interval
arithmetic over Q at increasing precision (53 -> 113 -> 237 -> ... bits).

The starting precision of the interval ladder can be overridden with the
environment variable KVOL_PRECISION_BITS (read at call time).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from mpmath import iv

Rational = Union[int, Fraction]

_LADDER_MAX_BITS = 1 << 16
_FLOAT_EPS = 2.0 ** -52


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
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """x^(D+k) mod minpoly for k = 0..D-2, as integer coefficient rows."""
    mp = minimal_polynomial(n)
    d = len(mp) - 1
    rows = []
    cur = [-c for c in mp[:d]]  # x^D
    rows.append(tuple(cur))
    for _ in range(d - 2):
        cur = [0] + cur
        top = cur.pop()
        if top:
            for i in range(d):
                cur[i] -= top * mp[i]
        rows.append(tuple(cur))
    return tuple(rows)


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man)
    if exp >= 0:
        v *= 1 << exp
    else:
        v /= 1 << (-exp)
    return -v if sign else v


@lru_cache(maxsize=None)
def _phi_enclosure(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational enclosure of Phi = 2*cos(pi/n) at the given precision."""
    old = iv.prec
    try:
        iv.prec = bits
        x = 2 * iv.cos(iv.pi / n)
        lo, hi = _mpf_to_fraction(x.a), _mpf_to_fraction(x.b)
    finally:
        iv.prec = old
    if not lo <= hi:
        raise ArithmeticError("bad enclosure")
    return lo, hi


def _starting_bits() -> int:
    raw = os.environ.get("KVOL_PRECISION_BITS")
    if raw is None:
        return 53
    bits = int(raw)
    if bits < 8 or bits > _LADDER_MAX_BITS:
        raise ValueError(f"KVOL_PRECISION_BITS out of range: {bits}")
    return bits


def _interval_eval(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction):
    """Exact interval Horner evaluation of the polynomial over [lo, hi]."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(coeffs):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = min(cands) + c
        acc_hi = max(cands) + c
    return acc_lo, acc_hi


class CycloReal:
    """An element of Q(Phi), Phi = 2*cos(pi/n), with exact arithmetic.

    Immutable.  Coefficients are fractions.Fraction, low degree first, always
    of length field_degree(n).  Supports +, -, *, /, integer powers, exact
    comparisons, hashing, float embedding and JSON round-trip.
    """

    __slots__ = ("n", "coeffs", "_float", "_hash")

    def __init__(self, n: int, coeffs: Iterable[Rational]):
        d = field_degree(n)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            cs = _reduce_mod(n, cs)
        cs += [Fraction(0)] * (d - len(cs))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_float", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("CycloReal is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, n: int, value: Rational) -> "CycloReal":
        return cls(n, [Fraction(value)])

    @classmethod
    def phi(cls, n: int) -> "CycloReal":
        """The generator Phi = 2*cos(pi/n)."""
        if field_degree(n) == 1:
            # n = 3: Phi = 1
            return cls(n, [Fraction(1)])
        return cls(n, [Fraction(0), Fraction(1)])

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
        return CycloReal(self.n, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloReal(self.n, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloReal(self.n, [b - a for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return CycloReal(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [Fraction(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return CycloReal(self.n, _reduce_mod(self.n, prod))

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
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        mp = [Fraction(c) for c in minimal_polynomial(self.n)]
        a = list(self.coeffs)
        # extended gcd of a and mp in Q[x]; mp irreducible so gcd is a unit
        r0, r1 = mp, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if not r1 or r1[0] == 0:
            raise ArithmeticError("element not invertible (reducible modulus?)")
        inv = [c / r1[0] for c in s1]
        return CycloReal(self.n, inv)

    # -- predicates and comparisons -----------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        if self.is_zero():
            return 0
        # float filter with rigorous forward error bound
        phi = _phi_float(self.n)
        val = 0.0
        mag = 0.0
        for c in reversed(self.coeffs):
            fc = float(c)
            val = val * phi + fc
            mag = mag * phi + abs(fc)
        err = mag * (4 * len(self.coeffs) + 4) * _FLOAT_EPS
        if abs(val) > err:
            return 1 if val > 0 else -1
        bits = _starting_bits()
        while bits <= _LADDER_MAX_BITS:
            lo, hi = _interval_eval(self.coeffs, *_phi_enclosure(self.n, bits))
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits = 2 * bits + 7
        raise ArithmeticError("sign ladder exhausted (element suspiciously near zero)")

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

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
        h = self._hash
        if h is None:
            h = hash((self.n, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    # -- embeddings ----------------------------------------------------------

    def __float__(self) -> float:
        f = self._float
        if f is None:
            phi = _phi_float(self.n)
            f = 0.0
            for c in reversed(self.coeffs):
                f = f * phi + float(c)
            object.__setattr__(self, "_float", f)
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


def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / b[-1]
        q[k] = c
        if c:
            for j, y in enumerate(b):
                a[k + j] -= c * y
    return _trim(q), _trim(a[: len(b) - 1] or [Fraction(0)])


def _reduce_mod(n: int, coeffs: list[Fraction]) -> list[Fraction]:
    d = field_degree(n)
    if len(coeffs) <= d:
        return coeffs
    rows = _reduction_rows(n)
    out = list(coeffs[:d])
    for k in range(d, len(coeffs)):
        c = coeffs[k]
        if c:
            row = rows[k - d]
            for i in range(d):
                if row[i]:
                    out[i] += c * row[i]
    return out


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


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    return f"{x:.17g}"


def mpf_eval(x: CycloReal, root):
    """``x`` as a polynomial evaluated at ``root`` in mpmath.

    ``root`` is Phi, or one of its conjugates ``2 cos(k pi/n)`` for the other
    real embeddings, as an mpf at the caller's working precision.
    """
    import mpmath

    acc = mpmath.mpf(0)
    for c in reversed(x.coeffs):
        acc = acc * root + mpmath.mpf(c.numerator) / c.denominator
    return acc


def _conjugate_indices(n: int) -> list[int]:
    """The k with gcd(k, 2n) = 1, 0 < k < n: Phi's conjugates are 2cos(k*pi/n)."""
    return [k for k in range(1, n) if math.gcd(k, 2 * n) == 1]


def sqrt_in_field(x: CycloReal) -> Union[CycloReal, None]:
    """The exact square root of ``x`` inside Q(Phi), or None.

    A square root exists in the field only when every Galois conjugate of
    ``x`` is nonnegative and some choice of conjugate sign pattern solves to
    rational coordinates.  Candidate coordinates are reconstructed from the
    conjugate embeddings at high precision and then verified exactly, so a
    non-None answer is always correct.  The returned root is the nonnegative
    one.
    """
    import mpmath

    if x.sign() == 0:
        return CycloReal.from_rational(x.n, 0)
    if x.sign() < 0:
        return None
    ks = _conjugate_indices(x.n)
    d = field_degree(x.n)
    if len(ks) != d:  # pragma: no cover - guards degenerate small n
        return None
    with mpmath.workprec(260):
        phis = [2 * mpmath.cos(mpmath.pi * k / x.n) for k in ks]
        vals = [mpf_eval(x, p) for p in phis]
        if any(v < 0 for v in vals):
            return None
        roots = [mpmath.sqrt(v) for v in vals]
        V = mpmath.matrix(d, d)
        for i, p in enumerate(phis):
            acc = mpmath.mpf(1)
            for j in range(d):
                V[i, j] = acc
                acc *= p
        for pattern in range(1 << (d - 1)):
            rhs = mpmath.matrix(
                [roots[0]] + [(-r if (pattern >> (i - 1)) & 1 else r) for i, r in enumerate(roots) if i]
            )
            try:
                sol = mpmath.lu_solve(V, rhs)
            except ZeroDivisionError:  # pragma: no cover
                continue
            coeffs = []
            ok = True
            for v in sol:
                f = Fraction(str(v)).limit_denominator(10**12)
                if abs(f - Fraction(str(v))) > Fraction(1, 10**18):
                    ok = False
                    break
                coeffs.append(f)
            if not ok:
                continue
            cand = CycloReal(x.n, coeffs)
            if cand * cand == x:
                return cand if cand.sign() >= 0 else -cand
    return None
