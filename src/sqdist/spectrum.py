"""Eigenvalue structure, inertia, energy and spectral radius from closed forms.

The residual polynomial splits analytically: repeated part sizes m (k copies)
contribute 3m-4 exactly with multiplicity k-1, and what remains is a secular
function with simple poles at the distinct 3m-4 and exactly one simple root
per gap.  Those simple roots are isolated by bisection with exact integer
sign evaluation, so every bracket is certified, not heuristic: the bracket
ends are integer numerators over one common denominator that doubles with
each halving, and the sign of the residual at num/den is read off the
integer den^deg * P(num/den) (IntPolynomial.sign_at).  No Fraction is formed
until the final bracket, and each query isolates only the roots it reports.
An exact root is a point bracket [r, r], certified by its zero sign.
Singletons are the size-1 group with pole -1, so the complete graph's
residual is x + 1 - h; its root h-1 is the upper end 3*1 + n - 4 of the
bracket, returned at once as [h-1, h-1].  When lambda_{s+1} = 0 the lowest
bracket starts at that root, so it is [0, 0] and prints as 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .charpoly import IntPolynomial, Sign, _lambda_sign, _secular
from .errors import BracketFailure
from .partitions import Partition

BRACKET_WIDTH = Fraction(1, 10**12)
BISECT_STEPS = 60


@dataclass(frozen=True)
class IsolatedRoot:
    """A simple root with a certified isolating bracket.

    Either lo_exact < hi_exact, with nonzero signs of the residual polynomial
    of opposite sign at the two ends, or lo_exact == hi_exact is the root
    itself, where the sign is 0.  value is the float midpoint.  poly is the
    deflated residual the bracket certifies against.
    """

    lo_exact: Fraction
    hi_exact: Fraction
    poly: IntPolynomial

    @cached_property
    def value(self) -> float:
        return float((self.lo_exact + self.hi_exact) / 2)

    @property
    def lo(self) -> float:
        return float(self.lo_exact)

    @property
    def hi(self) -> float:
        return float(self.hi_exact)

    def refined(self) -> "IsolatedRoot":
        """The bracket after a further run of bisection; a point stays."""
        lo, hi = _bisect(self.poly, self.lo_exact, self.hi_exact, Fraction(0))
        return IsolatedRoot(lo, hi, self.poly)

    def to_json(self) -> dict:
        return {"value": self.value, "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class SpectrumReport:
    """Closed-form spectrum: exact rational part plus isolated simple roots."""

    exact: tuple[tuple[Fraction, int], ...]
    isolated: tuple[IsolatedRoot, ...]

    def eigenvalues(self) -> list[float]:
        """All eigenvalues with multiplicity, descending."""
        vals: list[float] = []
        for v, mult in self.exact:
            vals.extend([float(v)] * mult)
        vals.extend(r.value for r in self.isolated)
        return sorted(vals, reverse=True)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.exact) + len(self.isolated)

    def to_json(self) -> dict:
        return {
            "exact": [{"value": str(v), "mult": m} for v, m in self.exact],
            "isolated": [r.to_json() for r in self.isolated],
        }


@dataclass(frozen=True)
class InertiaTriple:
    n_plus: int
    n_zero: int
    n_minus: int
    derivation: str

    def to_json(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "n_zero": self.n_zero,
            "n_minus": self.n_minus,
            "derivation": self.derivation,
        }


@dataclass(frozen=True)
class EnergyReport:
    """Energy = integer_part + 2*theta; theta present iff lambda_{s+1} < 0."""

    integer_part: int
    theta_root: Optional[IsolatedRoot] = None  # the negative root -theta itself

    @property
    def theta(self) -> Optional[float]:
        return None if self.theta_root is None else -self.theta_root.value

    @property
    def value(self) -> float:
        theta = self.theta
        return float(self.integer_part) if theta is None else self.integer_part + 2 * theta

    def to_json(self) -> dict:
        return {
            "integer_part": str(self.integer_part),
            "theta": self.theta,
            "value": self.value,
        }


def deflated_residual(p: Partition) -> IntPolynomial:
    """The simple-root part of the residual polynomial.

    Repeated poles are removed analytically; what remains has one simple root
    per secular sign change.  It is built from the distinct part sizes and
    their counts in O(d^2) for d distinct sizes; singletons are the pole -1.
    """
    return _secular(p.pairs)


def _bisect(
    poly: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] around the single root of poly inside it.

    The endpoints are kept as integer numerators a, b over one common
    denominator d; each step doubles d, so the midpoint (a+b)/2d is exact and
    every sign comes from IntPolynomial.sign_at.  An end or midpoint with
    sign 0 is the root, and the bracket collapses to that point.  Bisection
    stops once the bracket is at most width wide, or after BISECT_STEPS
    halvings.  Fractions are built only for the returned bracket.
    """
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    s_lo = poly.sign_at(a, d)
    s_hi = poly.sign_at(b, d)
    if s_lo == 0:
        b = a
    elif s_hi == 0:
        a = b
    elif s_lo == s_hi:
        raise BracketFailure(f"no sign change of {poly.coeffs} on [{lo}, {hi}]")
    wn, wd = width.numerator, width.denominator
    for _ in range(BISECT_STEPS):
        if (b - a) * wd <= wn * d:
            break
        mid = a + b
        a, b, d = 2 * a, 2 * b, 2 * d
        s_mid = poly.sign_at(mid, d)
        if s_mid == 0:
            a = b = mid
        elif s_mid == s_lo:
            a = mid
        else:
            b = mid
    return Fraction(a, d), Fraction(b, d)


def _isolate(poly: IntPolynomial, lo: Fraction, hi: Fraction) -> IsolatedRoot:
    return IsolatedRoot(*_bisect(poly, lo, hi, BRACKET_WIDTH), poly)


def _perron_bracket(p: Partition) -> tuple[Fraction, Fraction]:
    """[4(n1 - 1), 3n1 + n - 4]: a strict lower bound on the Perron value
    at or above the largest pole 3n1 - 4, and the max-row-sum bound."""
    n1 = p.parts[0]
    return Fraction(4 * (n1 - 1)), Fraction(3 * n1 + p.n - 4)


def secular_roots(p: Partition) -> list[IsolatedRoot]:
    """All simple roots of the deflated residual, ascending, with brackets.

    Bracket layout: one root per gap between consecutive distinct poles
    3m-4 and the Perron root on _perron_bracket, above the largest pole;
    singletons are the pole -1, so with them the lowest root lies in
    (-1, smallest pole of the sizes >= 2), or is the point [0, 0] when 0 is
    a root (lambda_{s+1} = 0).
    """
    poly = deflated_residual(p)
    ends = [Fraction(3 * m - 4) for m, _ in p.pairs]
    if poly.coeffs[0] == 0:
        ends[0] = Fraction(0)
    gaps = [_isolate(poly, lo, hi) for lo, hi in zip(ends, ends[1:])]
    return gaps + [_isolate(poly, *_perron_bracket(p))]


def full_spectrum(p: Partition) -> SpectrumReport:
    """Assemble the exact and isolated parts; multiplicities sum to n."""
    # k equal sizes m give 3m-4 with multiplicity k-1; the singletons' -1 last
    groups = sorted(p.pairs, key=lambda mk: mk[0] == 1)
    exact = [(Fraction(3 * m - 4), k - 1) for m, k in groups if k >= 2]
    if p.n - p.t > 0:
        exact.append((Fraction(-4), p.n - p.t))
    report = SpectrumReport(exact=tuple(exact), isolated=tuple(secular_roots(p)))
    assert report.total_multiplicity() == p.n
    return report


def inertia(p: Partition) -> InertiaTriple:
    """Signature decided exactly; no floats involved."""
    n, t, s, h = p.n, p.t, p.s, p.h
    if h == 0:
        return InertiaTriple(t, 0, n - t, "all-parts-ge-2")
    sign = _lambda_sign(p)
    if sign is Sign.POSITIVE:
        return InertiaTriple(s + 1, 0, n - s - 1, "singleton-case-positive")
    if sign is Sign.ZERO:
        return InertiaTriple(s, 1, n - s - 1, "singleton-case-zero")
    return InertiaTriple(s, 0, n - s, "singleton-case-negative")


def energy(p: Partition) -> EnergyReport:
    """Closed-form energy, exact except for the optional theta correction."""
    n, t, h = p.n, p.t, p.h
    if h == 0:
        return EnergyReport(8 * (n - t))
    ip = 8 * (n - t) + 2 * (h - 1)
    if _lambda_sign(p) is not Sign.NEGATIVE:
        return EnergyReport(ip)
    # a negative sign puts the lowest secular root in (-1, 0); neither end is a root
    return EnergyReport(ip, _isolate(deflated_residual(p), Fraction(-1), Fraction(0)))


def spectral_radius_root(p: Partition) -> IsolatedRoot:
    """The Perron root, isolated on _perron_bracket like the top secular root."""
    return _isolate(deflated_residual(p), *_perron_bracket(p))
