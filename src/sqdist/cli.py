"""Command-line access to all queries and sweeps.

Exit codes: 0 success, 1 domain error, 2 verification failure, 64 usage.
Output is JSON; --csv switches spectrum and the scans to CSV.
JSON floats are printed in full (Python's shortest round-trip repr), CSV
floats with 12 significant digits; exact integers as decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import extremal, partitions, spectrum
from .charpoly import char_poly_factored
from .errors import SqDistError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _emit(payload) -> None:
    if not isinstance(payload, str):
        try:
            payload = json.dumps(payload)
        except ValueError as exc:  # an int past Python's int-to-text digit limit
            limit = sys.get_int_max_str_digits()
            raise SqDistError(
                f"an integer has more than {limit} digits: too large to print"
            ) from exc
    sys.stdout.write(payload + "\n")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sqdist")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, partition=False, csv=False):
        cmd = sub.add_parser(name, help=help_)
        if partition:
            cmd.add_argument("partition", help="comma-separated part sizes, e.g. 5,2,2,1")
        if csv:
            cmd.add_argument("--csv", action="store_true")
        return cmd

    add("spectrum", "full eigenvalue structure", partition=True, csv=True)
    add("inertia", "signature (n+, n0, n-)", partition=True)
    add("energy", "squared distance energy", partition=True)
    add("radius", "spectral radius with bracket", partition=True)
    add("charpoly", "factored characteristic polynomial", partition=True)

    scan_e = add("scan-energy", "energy scan over all partitions of (n,t)", csv=True)
    scan_e.add_argument("n", type=int)
    scan_e.add_argument("t", type=int)
    scan_r = add("scan-radius", "radius scan over all partitions of (n,t)", csv=True)
    scan_r.add_argument("n", type=int)
    scan_r.add_argument("t", type=int)
    scan_h = add("scan-h", "energy scan over the class with h singletons", csv=True)
    scan_h.add_argument("n", type=int)
    scan_h.add_argument("t", type=int)
    scan_h.add_argument("--h", type=int, required=True, dest="h_count")

    chain = add("chain", "verify monotonicity along a chain")
    chain.add_argument("upper", help="majorizing partition")
    chain.add_argument("lower", help="majorized partition")

    verify = add("verify", "oracle sweep up to n = nmax")
    verify.add_argument("--nmax", type=int, required=True)

    return parser


def _spectrum_csv(report) -> str:
    lines = ["value,multiplicity,lo,hi,kind"]
    for v, m in report.exact:
        lines.append(f"{spectrum._to_float(v):.12g},{m},,,exact")
    for r in report.isolated:
        lines.append(f"{r.value:.12g},1,{r.lo:.12g},{r.hi:.12g},isolated")
    return "\n".join(lines)


def run(argv) -> int:
    args = build_parser().parse_args(argv)

    try:
        if "partition" in args:
            p = partitions.parse_partition(args.partition)
        if args.command == "spectrum":
            report = spectrum.full_spectrum(p)
            _emit(_spectrum_csv(report) if args.csv else report.to_json())
        elif args.command == "inertia":
            _emit(spectrum.inertia(p).to_json())
        elif args.command == "energy":
            _emit(spectrum.energy(p).to_json())
        elif args.command == "radius":
            _emit(spectrum.spectral_radius_root(p).to_json())
        elif args.command == "charpoly":
            _emit(char_poly_factored(p).to_json())
        elif args.command in ("scan-energy", "scan-radius", "scan-h"):
            if args.command == "scan-energy":
                report = extremal.scan_energy(args.n, args.t)
            elif args.command == "scan-radius":
                report = extremal.scan_radius(args.n, args.t)
            else:
                report = extremal.scan_energy_h(args.n, args.t, args.h_count)
            _emit(report.to_csv() if args.csv else report.to_json())
            if report.violated_claims:
                return EXIT_VERIFY
        elif args.command == "chain":
            upper = partitions.parse_partition(args.upper)
            lower = partitions.parse_partition(args.lower)
            report = extremal.verify_chain_monotone(upper, lower)
            _emit(report.to_json())
            if not report.ok:
                return EXIT_VERIFY
        elif args.command == "verify":
            try:
                from . import oracle  # numpy is loaded only here
            except ModuleNotFoundError as exc:
                if exc.name != "numpy":
                    raise
                raise SqDistError(
                    "verify needs numpy: install the oracle extra, pip install 'sqdist[oracle]'"
                ) from exc
            summary = oracle.sweep(args.nmax)
            _emit(summary.to_json_lines())
            sys.stderr.write(f"{summary.failure_count} failures\n")
            if summary.failure_count:
                return EXIT_VERIFY
        else:  # pragma: no cover
            return EXIT_USAGE
    except SqDistError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    return EXIT_OK


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
