"""Exact characteristic-polynomial machinery over arbitrary-precision integers.

Floats never enter this module: the determinant, the factored characteristic
polynomial and the sign criterion for the (s+1)-th eigenvalue are all decided
by integer arithmetic, so knife-edge cases (a zero eigenvalue) are classified
exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NoSingletonParts, NotApplicable
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

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial.make(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.make(out)

    def scale(self, c: int) -> "IntPolynomial":
        return IntPolynomial.make([c * a for a in self.coeffs])

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

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs], "ascending": True}


def linear(c: int) -> IntPolynomial:
    """The factor x + c."""
    return IntPolynomial((c, 1))


ONE = IntPolynomial((1,))


@dataclass(frozen=True)
class FactoredCharPoly:
    """Characteristic polynomial of the squared distance matrix, factored.

    linear_factors holds (c, mult) meaning (x + c)^mult; the residual is the
    monic degree-t (no singleton parts) or degree-(s+1) polynomial carrying
    the non-analytic eigenvalues.
    """

    linear_factors: tuple[tuple[int, int], ...]
    residual: IntPolynomial
    n: int

    def expand(self) -> IntPolynomial:
        out = self.residual
        for c, mult in self.linear_factors:
            for _ in range(mult):
                out = out * linear(c)
        return out

    def to_json(self) -> dict:
        return {
            "linear_factors": [
                {"root": -c, "mult": m} for c, m in self.linear_factors
            ],
            "residual": self.residual.to_json(),
        }


def reduced_matrix_B(p: Partition) -> list[list[int]]:
    """The t x t reduction: diagonal 4(ni - 1), row i off-diagonal ni."""
    t = p.t
    return [
        [4 * (p.parts[i] - 1) if i == j else p.parts[i] for j in range(t)]
        for i in range(t)
    ]


def _det_poly(sizes: Sequence[int]) -> IntPolynomial:
    """det(xI - B) = prod(x+4-3ni) - sum_i ni * prod_{j!=i}(x+4-3nj)."""
    factors = [linear(4 - 3 * ni) for ni in sizes]
    prod_all = ONE
    for f in factors:
        prod_all = prod_all * f
    total = prod_all
    for i, ni in enumerate(sizes):
        partial = ONE
        for j, f in enumerate(factors):
            if j != i:
                partial = partial * f
        total = total - partial.scale(ni)
    return total


def det_B_charpoly(p: Partition) -> IntPolynomial:
    """Monic degree-t characteristic polynomial of the reduced matrix."""
    return _det_poly(p.parts)


def reduced_poly_p(p: Partition) -> IntPolynomial:
    """Monic degree-(s+1) residual when at least one part is a singleton."""
    if p.h == 0:
        raise NoSingletonParts(
            "no singleton parts; use det_B_charpoly for the residual"
        )
    if p.s == 0:
        return linear(1 - p.h)  # complete graph: x + 1 - h
    big = p.big_parts
    prod_big = ONE
    for ni in big:
        prod_big = prod_big * linear(4 - 3 * ni)
    return linear(1) * _det_poly(big) - prod_big.scale(p.h)


def char_poly_factored(p: Partition) -> FactoredCharPoly:
    """(x+4)^(n-t) * (x+1)^(h-1) * residual."""
    factors: list[tuple[int, int]] = []
    if p.n - p.t > 0:
        factors.append((4, p.n - p.t))
    if p.h >= 1:
        residual = reduced_poly_p(p)
        if p.h - 1 > 0:
            factors.append((1, p.h - 1))
    else:
        residual = det_B_charpoly(p)
    return FactoredCharPoly(
        linear_factors=tuple(factors), residual=residual, n=p.n
    )


def det_delta_exact(p: Partition) -> int:
    """det of the squared distance matrix, as an exact integer."""
    sizes = p.parts
    prod_all = 1
    for ni in sizes:
        prod_all *= 3 * ni - 4
    total = prod_all
    for i, ni in enumerate(sizes):
        partial = ni
        for j, nj in enumerate(sizes):
            if j != i:
                partial *= 3 * nj - 4
        total += partial
    return (-4) ** (p.n - p.t) * total


class Sign(enum.Enum):
    POSITIVE = "positive"
    ZERO = "zero"
    NEGATIVE = "negative"


def lambda_s1_sign(p: Partition) -> Sign:
    """Exact sign of the (s+1)-th eigenvalue when singletons are present.

    Compares (h-1) * prod(3ni - 4) against sum_i ni * prod_{j!=i}(3nj - 4)
    over the s parts >= 2; every factor 3ni - 4 >= 2 > 0 so the integer
    comparison decides the sign exactly.
    """
    if p.h == 0 or p.s == 0:
        raise NotApplicable("sign criterion needs h >= 1 and s >= 1")
    big = p.big_parts
    prod_all = 1
    for ni in big:
        prod_all *= 3 * ni - 4
    lhs = (p.h - 1) * prod_all
    rhs = 0
    for i, ni in enumerate(big):
        partial = ni
        for j, nj in enumerate(big):
            if j != i:
                partial *= 3 * nj - 4
        rhs += partial
    if lhs > rhs:
        return Sign.POSITIVE
    if lhs == rhs:
        return Sign.ZERO
    return Sign.NEGATIVE


def criterion_gap(p: Partition) -> Fraction:
    """(h-1) - sum ni/(3ni-4) as an exact rational (diagnostic)."""
    return Fraction(p.h - 1) - sum(
        (Fraction(ni, 3 * ni - 4) for ni in p.big_parts), Fraction(0)
    )
