"""Exhaustive verification of the majorization-monotonicity theorems.

Energy ties are real (whole families can sit at the integer value), so every
comparison here is exact: integer energy parts are compared as integers and
the irrational corrections through certified root brackets.  A tie between
two roots is proven by the integer gcd of their polynomials changing sign or
vanishing on the overlap of the brackets; distinct roots are separated by
exact rational bisection until the brackets are disjoint.  Float equality is
never used, and no answer rests on a refinement cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .charpoly import Sign
from .errors import SqDistError
from .partitions import (
    Partition,
    _check_ints,
    _check_nt,
    _check_nth,
    complete_split,
    count_partitions,
    elementary_chain,
    enumerate_class,
    enumerate_partitions,
    split_h,
    turan,
    turan_h,
)
from .spectrum import (
    EnergyReport,
    IsolatedRoot,
    energy,
    inertia,
    spectral_radius_root,
)

# Most members a scan ranks: 10^5 partitions take about 15 s.
MAX_SCAN_MEMBERS = 10**5


def _compare_roots(a: IsolatedRoot, b: IsolatedRoot) -> int:
    """-1/0/+1 for the exact roots behind two certified brackets.

    Each bracket isolates one simple root of its polynomial, so the roots are
    equal iff G = gcd(P, Q) vanishes or changes sign on the overlap of the
    brackets: G has at most one root there, and that root is simple.
    Otherwise the roots differ, and refinement separates the brackets after
    finitely many halvings.
    """
    if a.hi_exact < b.lo_exact:
        return -1
    if b.hi_exact < a.lo_exact:
        return 1
    g = a.poly.gcd(b.poly)
    lo, hi = max(a.lo_exact, b.lo_exact), min(a.hi_exact, b.hi_exact)
    s_lo, s_hi = (g.sign_at(x.numerator, x.denominator) for x in (lo, hi))
    if s_lo * s_hi <= 0:
        return 0
    while True:
        a, b = a.refined(), b.refined()
        if a.hi_exact < b.lo_exact:
            return -1
        if b.hi_exact < a.lo_exact:
            return 1


def compare_energy(a: EnergyReport, b: EnergyReport) -> int:
    """Exact order on energies: integer parts first, then theta brackets."""
    if a.integer_part != b.integer_part:
        # theta in (0,1) keeps each value inside [ip, ip+2)
        return -1 if a.integer_part < b.integer_part else 1
    if a.theta_root is None and b.theta_root is None:
        return 0
    if a.theta_root is None:
        return -1  # theta strictly positive on the other side
    if b.theta_root is None:
        return 1
    # theta = -lambda, so larger energy means smaller lambda
    return -_compare_roots(a.theta_root, b.theta_root)


@dataclass
class ScanReport:
    quantity: str
    n: int
    t: int
    h: Optional[int]
    values: list[tuple[Partition, float]]
    argmax: list[Partition]
    argmin: list[Partition]
    violated_claims: list[str] = field(default_factory=list)
    signs: dict[Partition, str] = field(default_factory=dict)

    @property
    def max_unique(self) -> bool:
        return len(self.argmax) == 1

    @property
    def min_unique(self) -> bool:
        return len(self.argmin) == 1

    def to_json(self) -> dict:
        out = {
            "quantity": self.quantity,
            "n": self.n,
            "t": self.t,
            "values": [
                {"partition": str(p), "value": v} for p, v in self.values
            ],
            "argmax": [str(p) for p in self.argmax],
            "argmin": [str(p) for p in self.argmin],
            "max_unique": self.max_unique,
            "min_unique": self.min_unique,
            "violated_claims": self.violated_claims,
        }
        if self.h is not None:
            out["h"] = self.h
        if self.signs:
            out["lambda_s1_signs"] = {str(p): s for p, s in self.signs.items()}
        return out

    def to_csv(self) -> str:
        """One row per member; the scanned quantity is read from values."""
        lines = ["partition,energy,radius,inertia"]
        for p, v in self.values:
            en = v if self.quantity == "energy" else energy(p).value
            rho = v if self.quantity == "radius" else spectral_radius_root(p).value
            ine = inertia(p)
            lines.append(
                f"\"{p}\",{en:.12g},{rho:.12g},"
                f"({ine.n_plus} {ine.n_zero} {ine.n_minus})"
            )
        return "\n".join(lines)


def _extrema(members, cmp):
    """argmax and argmin under an exact comparator (-1/0/+1)."""
    argmax = [members[0]]
    argmin = [members[0]]
    for m in members[1:]:
        c = cmp(m, argmax[0])
        if c > 0:
            argmax = [m]
        elif c == 0:
            argmax.append(m)
        c = cmp(m, argmin[0])
        if c < 0:
            argmin = [m]
        elif c == 0:
            argmin.append(m)
    return argmax, argmin


def _scan(quantity, n, t, h, evaluate, compare) -> tuple[ScanReport, dict]:
    """Evaluate each member once and rank the results exactly.

    The members are the partitions of n into t parts, or M(n,t,h) when h is
    given: one per partition of n - t into s = t - h parts (the parts >= 2,
    less 1 each).  Before any is built, the parameters are checked, and
    t > MAX_SCAN_MEMBERS (each member is a t-tuple) or over MAX_SCAN_MEMBERS
    members are refused.  compare orders two results of evaluate (-1/0/+1);
    each result's .value is the float the report lists.  Returns the report
    and each member's result; the caller checks the claims after.
    """
    if h is None:
        _check_nt(n, t)
        m, k = n, t
    else:
        _check_nth(n, t, h)
        m, k = n - t, t - h
    if t > MAX_SCAN_MEMBERS:
        raise SqDistError(f"t = {t} > {MAX_SCAN_MEMBERS} parts in each member")
    if count_partitions(m, k, MAX_SCAN_MEMBERS) > MAX_SCAN_MEMBERS:
        raise SqDistError(f"n = {n}, t = {t}: more than {MAX_SCAN_MEMBERS} partitions to scan")
    members = list(enumerate_partitions(n, t) if h is None else enumerate_class(n, t, h))
    results = {p: evaluate(p) for p in members}
    argmax, argmin = _extrema(members, lambda a, b: compare(results[a], results[b]))
    report = ScanReport(
        quantity=quantity,
        n=n,
        t=t,
        h=h,
        values=[(p, results[p].value) for p in members],
        argmax=argmax,
        argmin=argmin,
    )
    return report, results


def scan_energy(n: int, t: int) -> ScanReport:
    """Energy over every partition of n into t parts; split max, Turan min.

    Turan minimality is unique exactly when n <= 2t+1; above that ties are
    guaranteed (several partitions with all parts >= 2 share 8(n-t)).
    """
    report, _ = _scan("energy", n, t, None, energy, compare_energy)
    s_nt, t_nt = complete_split(n, t), turan(n, t)
    violated = report.violated_claims
    if s_nt not in report.argmax:
        violated.append(f"energy max not at split graph {s_nt}")
    if not report.max_unique:
        violated.append(f"energy max not unique: {[str(p) for p in report.argmax]}")
    if t_nt not in report.argmin:
        violated.append(f"energy min not at Turan graph {t_nt}")
    if (n <= 2 * t + 1) != report.min_unique:
        violated.append(
            f"Turan-min uniqueness is {report.min_unique}, expected {n <= 2 * t + 1}"
        )
    return report


def scan_energy_h(n: int, t: int, h: int) -> ScanReport:
    """Energy over the class M(n,t,h) with exactly h singleton parts.

    Extremality at S_{n,t,h}/T_{n,t,h} always holds; uniqueness of both is
    asserted only under the paper-style condition that the Turan-like
    minimizer has lambda_{s+1} <= 0, and merely recorded otherwise.
    Raises SqDistError for an h that is not an int, and for h < 1, where
    that sign is undefined.
    """
    _check_ints(h=h)
    if h < 1:
        raise SqDistError(f"need h >= 1 singleton parts, got h={h}")
    report, results = _scan("energy", n, t, h, energy, compare_energy)
    s_nth, t_nth = split_h(n, t, h), turan_h(n, t, h)
    # each member's sign was decided once, by its energy
    report.signs = {p: r.sign.value for p, r in results.items()}
    violated = report.violated_claims
    if s_nth not in report.argmax:
        violated.append(f"energy max not at {s_nth}")
    if t_nth not in report.argmin:
        violated.append(f"energy min not at {t_nth}")
    if results[t_nth].sign is not Sign.POSITIVE:
        if not report.max_unique:
            violated.append("max not unique despite lambda_{s+1}(T) <= 0")
        if not report.min_unique:
            violated.append("min not unique despite lambda_{s+1}(T) <= 0")
    return report


def scan_radius(n: int, t: int) -> ScanReport:
    """Spectral radius over every partition; strict unique extrema."""
    report, _ = _scan("radius", n, t, None, spectral_radius_root, _compare_roots)
    s_nt, t_nt = complete_split(n, t), turan(n, t)
    if report.argmax != [s_nt]:
        report.violated_claims.append(f"radius max not uniquely at {s_nt}")
    if report.argmin != [t_nt]:
        report.violated_claims.append(f"radius min not uniquely at {t_nt}")
    return report


@dataclass
class ChainStepRecord:
    partition: Partition
    radius: float
    energy_value: float
    radius_strictly_decreased: bool
    energy_nonincreasing: bool

    def to_json(self) -> dict:
        return {
            "partition": str(self.partition),
            "radius": self.radius,
            "energy": self.energy_value,
            "radius_strictly_decreased": self.radius_strictly_decreased,
            "energy_nonincreasing": self.energy_nonincreasing,
        }


@dataclass
class ChainReport:
    start: Partition
    steps: list[ChainStepRecord]
    ok: bool

    def to_json(self) -> dict:
        return {
            "start": str(self.start),
            "steps": [s.to_json() for s in self.steps],
            "ok": self.ok,
        }


def verify_chain_monotone(y: Partition, x: Partition) -> ChainReport:
    """Along an elementary chain y > ... > x, certify that the radius
    strictly decreases at every step and the energy never increases."""
    chain = elementary_chain(y, x)
    prev_rho, prev_en = spectral_radius_root(y), energy(y)
    steps: list[ChainStepRecord] = []
    for cur in chain:
        rho, en = spectral_radius_root(cur), energy(cur)
        steps.append(
            ChainStepRecord(
                partition=cur,
                radius=rho.value,
                energy_value=en.value,
                radius_strictly_decreased=_compare_roots(prev_rho, rho) > 0,
                energy_nonincreasing=compare_energy(prev_en, en) >= 0,
            )
        )
        prev_rho, prev_en = rho, en
    ok = all(s.radius_strictly_decreased and s.energy_nonincreasing for s in steps)
    return ChainReport(start=y, steps=steps, ok=ok)
