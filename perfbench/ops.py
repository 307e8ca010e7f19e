"""Seeded inputs for the three workloads: ``scan``, ``query`` and ``verify``.

Each workload is a list of *slots*.  A slot is one kind of operation at one
input size, such as "energy on a partition with 55 distinct part sizes".
Every slot owns a small pool of concrete variants, generated once from a
fixed pool seed, so reference outputs can be recorded for every input the
benchmark can ever run.  A run's ``--seed`` then deals one variant per slot
for every cycle and shuffles the cycle.  A cycle therefore always has the
same composition (which keeps run-to-run spread small), while the concrete
partitions, their order and the scan sizes change with the seed.

Every partition handed to the program is built through
``sqdist.canonicalize``: the bare ``Partition`` constructor accepts unsorted
tuples and then returns wrong energies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from sqdist import Partition, canonicalize, complete_split, enumerate_partitions, turan

WORKLOADS = ("scan", "query", "verify")
POOL_SEED = "sqdist-perfbench-pool-v1"
VARIANTS = 6

QUERY_COMMANDS = ("spectrum", "energy", "radius", "inertia", "charpoly")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``argv`` is the CLI argument list; for ``verify`` ops it is
    ``("verify", <partition>)`` and ``partition`` holds the canonical
    Partition that the oracle is called with.  ``key`` names the input and
    indexes the reference outputs.
    """

    slot: str
    argv: tuple[str, ...]
    partition: Optional[Partition] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def make_partition(parts) -> Partition:
    """The one way this benchmark builds a partition."""
    return canonicalize(list(parts))


# -- scan ---------------------------------------------------------------------
# Why: thousands of low-degree residuals (degree <= 9).  This loads
# `partitions` (enumeration), the Fraction bisection in `spectrum` and the
# exact root comparator in `extremal`; it never touches `oracle`.
# (16,3), (22,7) and (24,6) are radius scans where `_compare_roots` runs into
# its refinement cap on a real tie, so every cycle carries all three.  The
# two --csv slots load ScanReport.to_csv, which recomputes energy, radius and
# inertia for every partition.

SCAN_T = range(3, 9)
TIE_CASES = ((16, 3), (22, 7), (24, 6))


def _scan_pool(rng: random.Random) -> dict[str, list[Op]]:
    pool: dict[str, list[Op]] = {}
    for t in SCAN_T:
        pool[f"scan-energy/t{t}"] = [
            Op(f"scan-energy/t{t}", ("scan-energy", str(n), str(t)))
            for n in range(19, 25)
        ]
        pool[f"scan-radius/t{t}"] = [
            Op(f"scan-radius/t{t}", ("scan-radius", str(n), str(t)))
            for n in range(20, 26)
        ]
    for n, t in TIE_CASES:
        pool[f"scan-radius/tie-{n}-{t}"] = [
            Op(f"scan-radius/tie-{n}-{t}", ("scan-radius", str(n), str(t)))
        ]
    for t in range(4, 9):
        cells = sorted({(rng.randint(18, 24), rng.randint(1, t - 2)) for _ in range(VARIANTS)})
        pool[f"scan-h/t{t}"] = [
            Op(f"scan-h/t{t}", ("scan-h", str(n), str(t), "--h", str(h)))
            for n, h in cells
        ]
    for cmd in ("scan-energy", "scan-radius"):
        cells = sorted({(rng.randint(16, 20), rng.choice(SCAN_T)) for _ in range(VARIANTS)})
        pool[f"{cmd}-csv"] = [
            Op(f"{cmd}-csv", (cmd, str(n), str(t), "--csv")) for n, t in cells
        ]
    for slot in ("chain/from-split", "chain/to-turan"):
        variants = []
        for _ in range(VARIANTS):
            n, t = rng.randint(16, 26), rng.choice(SCAN_T)
            top = make_partition(complete_split(n, t).parts)
            bottom = make_partition(turan(n, t).parts)
            middle = [p for p in enumerate_partitions(n, t) if p not in (top, bottom)]
            inner = make_partition(rng.choice(middle).parts)
            upper, lower = (top, inner) if slot == "chain/from-split" else (inner, bottom)
            variants.append(Op(slot, ("chain", str(upper), str(lower))))
        pool[slot] = variants
    return pool


# -- query --------------------------------------------------------------------
# Why: one partition per op with a residual of high degree.  The cost is the
# residual construction in `charpoly`/`spectrum` (O(t^3) today) and
# high-degree Horner on big Fractions; `partitions` and `extremal` do no work.
# `spectrum` needs all roots of a degree-80 residual while `energy` needs one,
# so a change that speeds up many small residuals (as in `scan`) but slows
# large ones shows here.  The distinct-size ladders are fixed so that every
# cycle has the same cost profile; the sizes themselves are seeded.

WIDE_LADDER = {
    "spectrum": (20, 80),
    "energy": (30, 80),
    "radius": (10, 20, 30, 40, 50, 60, 70, 80),
    "inertia": (10, 20, 30, 40, 50, 60, 70, 80),
    "charpoly": (10, 20, 30, 40, 50, 60, 70, 80),
}
HUGE_PER_COMMAND = 4
KNIFE_PER_COMMAND = 4

# Part sizes m with sum m/(3m-4) over a block an integer: a block of big
# parts adds that integer to h - 1 on the knife edge lambda_{s+1} = 0.
KNIFE_BLOCKS = ((2,), (4, 4), (3, 8), (3,) * 5, (8,) * 5, (6,) * 7, (12,) * 8)


def wide_partition(d: int, rng: random.Random) -> Partition:
    """d distinct part sizes >= 2 (a quarter of them doubled) plus 1-3
    singletons, so lambda_{s+1} < 0 and energy isolates its theta root."""
    parts = []
    for m in rng.sample(range(2, 4 * d + 2), d):
        parts.extend([m] * (2 if rng.random() < 0.25 else 1))
    parts.extend([1] * rng.randint(1, 3))
    return make_partition(parts)


def huge_partition(rng: random.Random) -> Partition:
    """Two to five parts of size up to 10^20, sometimes with singletons."""
    parts = [rng.randint(2, 10**20) for _ in range(rng.randint(2, 5))]
    parts.extend([1] * rng.randint(0, 2))
    return make_partition(parts)


def knife_partition(rng: random.Random) -> Partition:
    """lambda_{s+1} = 0 exactly: h - 1 = sum m/(3m - 4) over the big parts,
    e.g. 2,2,1,1,1 with inertia (2, 1, 4)."""
    big = [m for _ in range(rng.randint(1, 4)) for m in rng.choice(KNIFE_BLOCKS)]
    gap = sum(Fraction(m, 3 * m - 4) for m in big)
    if gap.denominator != 1:  # every block sums to an integer
        raise AssertionError(f"knife block sum {gap} is not an integer")
    return make_partition(big + [1] * (int(gap) + 1))


def _query_pool(rng: random.Random) -> dict[str, list[Op]]:
    pool: dict[str, list[Op]] = {}
    for cmd in QUERY_COMMANDS:
        for d in WIDE_LADDER[cmd]:
            slot = f"{cmd}/wide-d{d}"
            pool[slot] = [
                Op(slot, (cmd, str(wide_partition(d, rng)))) for _ in range(VARIANTS)
            ]
        for family, make, count in (
            ("huge", huge_partition, HUGE_PER_COMMAND),
            ("knife", knife_partition, KNIFE_PER_COMMAND),
        ):
            for i in range(count):
                slot = f"{cmd}/{family}-{i}"
                pool[slot] = [Op(slot, (cmd, str(make(rng)))) for _ in range(VARIANTS)]
    return pool


# -- verify -------------------------------------------------------------------
# Why: the dense oracle dominates.  At n = 112 Jacobi alone takes ~0.4 s while
# the closed forms take ~0.03 s.  This loads `oracle`, `_kernels` and
# `matrices` (including the BFS cross-check) and leaves `extremal` idle.

VERIFY_ORDERS = (40, 60, 80, 100, 120)


def verify_partition_input(n: int, rng: random.Random) -> Partition:
    """A random composition of n into 3-10 parts."""
    t = rng.randint(3, 10)
    cuts = sorted(rng.sample(range(1, n), t - 1))
    return make_partition(b - a for a, b in zip([0] + cuts, cuts + [n]))


def _verify_pool(rng: random.Random) -> dict[str, list[Op]]:
    pool: dict[str, list[Op]] = {}
    for n in VERIFY_ORDERS:
        slot = f"verify/n{n}"
        variants = []
        for _ in range(VARIANTS):
            p = verify_partition_input(n, rng)
            variants.append(Op(slot, ("verify", str(p)), p))
        pool[slot] = variants
    return pool


_POOLS = {"scan": _scan_pool, "query": _query_pool, "verify": _verify_pool}


def pool(workload: str) -> dict[str, list[Op]]:
    """Every input the workload can run, by slot; independent of the seed."""
    return _POOLS[workload](random.Random(f"{POOL_SEED}:{workload}"))


def cycles(workload: str, seed: int) -> Iterator[list[Op]]:
    """The run's input stream: endless cycles, one variant per slot each.

    Each slot deals its variants in a seeded order without replacement and
    reshuffles once all are dealt, so the first VARIANTS cycles run every
    variant once and runs on different seeds differ little in cost.
    """
    slots = pool(workload)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    decks: dict[str, list[Op]] = {slot: [] for slot in sorted(slots)}
    while True:
        cycle = []
        for slot, deck in decks.items():
            if not deck:
                deck.extend(slots[slot])
                rng.shuffle(deck)
            cycle.append(deck.pop())
        rng.shuffle(cycle)
        yield cycle


def items(op: Op, parsed) -> int:
    """Work units in one op's output: partitions ranked for scans, chain
    steps for chains, one per query or oracle check."""
    cmd = op.argv[0]
    if cmd.startswith("scan-"):
        if isinstance(parsed, dict):
            return len(parsed["values"])
        return len(parsed) - 1  # CSV rows after the header
    if cmd == "chain":
        return len(parsed["steps"])
    return 1
