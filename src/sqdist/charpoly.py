"""Exact characteristic-polynomial machinery over arbitrary-precision integers.

Floats never enter this module: the determinant, the factored characteristic
polynomial and the sign criterion for the (s+1)-th eigenvalue are all decided
by integer arithmetic, so knife-edge cases (a zero eigenvalue) are classified
exactly.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import SqDistError
from .partitions import Partition


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs: Sequence[int]) -> "IntPolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, num: int, den: int) -> int:
        """Sign (-1/0/+1) of the polynomial at num/den, for den > 0.

        Integer-only homogeneous Horner: the accumulator ends at
        sum c_i * num^i * den^(deg-i) = den^deg * poly(num/den), which has
        the sign of poly(num/den) because den > 0.  No gcd is ever taken.
        """
        acc, pw = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * pw
            pw *= den
        return (acc > 0) - (acc < 0)

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """Greatest common divisor over Z, primitive with a positive leading
        coefficient (the zero polynomial when both are zero).

        Primitive PRS: each pseudo-remainder is taken in integers, then its
        content is divided out, so coefficients stay small.
        """
        a, b = _primitive(self.coeffs), _primitive(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))
        return IntPolynomial(tuple(a))

    def to_json(self) -> dict:
        coeffs = [_to_text(c, "a coefficient") for c in self.coeffs]
        return {"coeffs": coeffs, "ascending": True}


def _to_text(x, what: str) -> str:
    """str(x) of an int or Fraction; raises SqDistError naming what when x
    passes Python's int-to-text digit limit."""
    try:
        return str(x)
    except ValueError as exc:  # str() refuses ints past the digit limit
        limit = sys.get_int_max_str_digits()
        raise SqDistError(f"{what} has more than {limit} digits: too large to print") from exc


def _primitive(cs: Sequence[int]) -> list[int]:
    """cs over the gcd of its entries, leading coefficient made positive."""
    g = math.gcd(*cs)
    if g == 0:
        return []
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^k * a mod b for some k >= 0: the remainder over Z, no division.

    Both are ascending with nonzero leading entries; len(a) >= len(b).
    """
    r, lc = list(a), b[-1]
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        r = [lc * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    return r


@dataclass(frozen=True)
class FactoredCharPoly:
    """Characteristic polynomial of the squared distance matrix, factored.

    linear_factors holds (c, mult) meaning (x + c)^mult; the residual is the
    monic degree-t (no singleton parts) or degree-(s+1) polynomial carrying
    the non-analytic eigenvalues.
    """

    linear_factors: tuple[tuple[int, int], ...]
    residual: IntPolynomial

    def to_json(self) -> dict:
        return {
            "linear_factors": [
                {"root": -c, "mult": m} for c, m in self.linear_factors
            ],
            "residual": self.residual.to_json(),
        }


def _times_linear(cs: list[int], c: int) -> list[int]:
    """Ascending coefficients of (x + c) * poly(cs)."""
    return [c * a + b for a, b in zip(cs + [0], [0] + cs)]


def _secular(pairs: Sequence[tuple[int, int]]) -> IntPolynomial:
    """The deflated residual of Partition.pairs, in O(d^2) for d pairs.

    Q = prod (x + 4 - 3m) over the distinct sizes and
    S = Q - sum k*m * Q/(x + 4 - 3m), each quotient taken by one exact
    synthetic division; the residual is S.  Singletons are the group (1, h)
    with pole 3*1 - 4 = -1, so the complete graph gives x + 1 - h.
    """
    q = [1]
    for m, _ in pairs:
        q = _times_linear(q, 4 - 3 * m)
    s = list(q)
    for m, k in pairs:
        c, w, r = 4 - 3 * m, k * m, 0
        for i in range(len(q) - 1, 0, -1):
            r = q[i] - c * r  # coefficient i-1 of Q/(x + c)
            s[i - 1] -= w * r
    return IntPolynomial(tuple(s))


def _with_repeats(poly: IntPolynomial, pairs: Sequence[tuple[int, int]]) -> IntPolynomial:
    """poly * prod (x + 4 - 3m)^(k-1): the poles a deflated form dropped."""
    cs = list(poly.coeffs)
    for m, k in pairs:
        for _ in range(k - 1):
            cs = _times_linear(cs, 4 - 3 * m)
    return IntPolynomial(tuple(cs))


def _gap(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """1 + sum k*m/(3m - 4) as num/den, den = prod (3m - 4), over Partition.pairs.

    Singletons are the group (1, h) with pole -1: when h >= 1, den < 0 and
    num/(-den) is the criterion (h - 1) - sum ni/(3ni - 4) over sizes >= 2.
    """
    num, den = 1, 1
    for m, k in pairs:
        c = 3 * m - 4
        num, den = num * c + k * m * den, den * c
    return num, den


# Highest residual degree (s, plus 1 when h >= 1) char_poly_factored
# expands: degree 2000 on parts of 2 and 3 takes about 0.5 s.
MAX_RESIDUAL_DEGREE = 2000


def char_poly_factored(p: Partition) -> FactoredCharPoly:
    """(x+4)^(n-t) * (x+1)^(h-1) * residual.

    Raises SqDistError when the residual degree passes MAX_RESIDUAL_DEGREE.
    """
    degree = p.s + (p.h >= 1)
    if degree > MAX_RESIDUAL_DEGREE:
        raise SqDistError(
            f"residual degree {degree} > {MAX_RESIDUAL_DEGREE}: too large to expand"
        )
    factors = tuple((c, e) for c, e in ((4, p.n - p.t), (1, p.h - 1)) if e > 0)
    residual = _with_repeats(_secular(p.pairs), [(m, k) for m, k in p.pairs if m > 1])
    return FactoredCharPoly(linear_factors=factors, residual=residual)


def det_delta_exact(p: Partition) -> int:
    """det of the squared distance matrix, as an exact integer.

    prod(3ni - 4) + sum_i ni * prod_{j!=i}(3nj - 4) over all parts, read
    off the grouped gap: prod_m (3m - 4)^(k-1) * num.
    Raises SqDistError when n - t > 10^6.
    """
    if p.n - p.t > 10**6:  # the factor (-4)^(n-t) alone has 2(n-t) bits
        raise SqDistError(f"n - t = {p.n - p.t} > 10^6: (-4)^(n-t) is too large")
    total, _ = _gap(p.pairs)
    for m, k in p.pairs:
        total *= (3 * m - 4) ** (k - 1)
    return (-4) ** (p.n - p.t) * total


class Sign(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


def lambda_s1_sign(p: Partition) -> Sign:
    """Exact sign of the (s+1)-th eigenvalue when singletons are present.

    The sign is that of (h-1) - sum ni/(3ni-4) over the s parts >= 2; at
    s = 0 (the complete graph K_h) that is the sign of lambda_1 = h - 1.
    Singletons are the group (1, h) with pole -1, so den < 0 and this is
    the sign of the numerator of the grouped gap over all parts, decided in
    integers.
    """
    if p.h == 0:
        raise SqDistError("sign criterion needs h >= 1")
    num, _ = _gap(p.pairs)
    if num > 0:
        return Sign.POSITIVE
    if num == 0:
        return Sign.ZERO
    return Sign.NEGATIVE
