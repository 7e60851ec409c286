"""An independent square root in Q(Phi), in mpmath: the test suite's judge
of ``kvol.field.sqrt_in_field``.

It finds the same root by the same algebra, through a different engine:
Phi's conjugates and the inverse of their Vandermonde matrix come from
mpmath in a private context, where the library takes fixed-point powers of
certified integer enclosures and the exact inverse of the trace matrix.
The library does not use it; ``test_field.py`` compares the two.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Union

from kvol.field import CycloReal, _bareiss, _element, _mul_matrix


@lru_cache(maxsize=None)
def _conjugates(n: int, prec: int):
    """A private mpmath context at ``prec`` bits, Phi's conjugates
    2cos(k*pi/n), 0 < k < n with gcd(k, 2n) = 1 (k = 1, Phi itself, first),
    in it, and the inverse of their Vandermonde matrix V[i][j] = phi_i^j."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = prec
    ks = [k for k in range(1, n) if math.gcd(k, 2 * n) == 1]
    phis = [2 * ctx.cos(ctx.pi * k / n) for k in ks]
    return ctx, phis, ctx.inverse(ctx.matrix([[p ** j for j in range(len(ks))] for p in phis]))


@lru_cache(maxsize=None)
def _vinv_bits(n: int) -> int:
    """An integer b with ||V^-1||_inf <= 2^b, for the Vandermonde V above."""
    ctx, _, vinv = _conjugates(n, 64)
    return int(ctx.ceil(ctx.log(ctx.mnorm(vinv, "inf"), 2))) + 1


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
    - The conjugates of s are +-sqrt(sigma_k(m)), with + at Phi itself, and
      s = V^-1 (+-sqrt(sigma_k(m))) for the Vandermonde matrix V of Phi's
      conjugates.  Each sign pattern is tried; a candidate whose
      coefficients all lie within 1/4 of integers is rounded and accepted
      only if it squares to x exactly.

    Precision: with |m_i| < 2^h, |sigma_k(m)| < 2^(h+d).  At p bits the
    conjugates are off by at most E = 2^(h+d+8-p) (d <= 64 Horner steps),
    so the square roots by at most sqrt(E) plus their own rounding, and the
    coefficients by at most ||V^-1|| * 2 sqrt(E) <= 2^(b+1+(h+d+8-p)/2).
    p >= h + d + 2b + 2 log2(d) + 64 makes that below 2^-27, and the 64-bit
    margin absorbs the rounding of V^-1 and of the sums; so the true pattern
    always rounds to s, and a square root, when it exists, is never missed.
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
    prec = h + d + 2 * _vinv_bits(n) + 2 * d.bit_length() + 64
    prec = -(-prec // 64) * 64  # few distinct precisions to cache
    ctx, phis, vinv = _conjugates(n, prec)
    err = ctx.ldexp(1, h + d + 8 - prec)
    roots = []
    for p in phis:
        acc = ctx.mpf(0)
        for a in reversed(m):
            acc = acc * p + a
        if acc < -err:  # a negative conjugate: not a square
            return None
        roots.append(ctx.sqrt(max(acc, 0)))
    cols = [[vinv[j, k] * r for j in range(d)] for k, r in enumerate(roots)]
    for pattern in range(1 << (d - 1)):
        num = []
        for j in range(d):
            c = cols[0][j]
            for k in range(1, d):
                c = c - cols[k][j] if pattern >> (k - 1) & 1 else c + cols[k][j]
            r = int(ctx.nint(c))
            if abs(c - r) > 0.25:
                break
            num.append(r)
        else:
            cand = _element(n, num, den)
            if cand * cand == x:
                return cand if cand.sign() > 0 else -cand
    return None
