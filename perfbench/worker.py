"""One benchmark process: import sqdist, build the inputs, run the closed loop.

Started by ``run.py`` in a fresh interpreter with a pinned environment.
Protocol on stdout: a ``READY`` line once the first op is ready (the end of
set-up), then, unless ``--setup-only``, one JSON line with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import checks
import ops
import spans
from speed import SpeedLog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Tail percentile per workload, fixed so that a faster program, which
# completes more ops, is not judged at another percentile: the highest
# multiple of 5 that leaves at least ten ops beyond it in a run of
# BENCHMARK.json's run_seconds at the seed commit (95-100 ops for verify).
# For query p95 would too, but it falls in the gap between the few slowest
# ops of a cycle and the rest, where it jumps from run to run.
TAIL_PERCENTILE = {"scan": 90, "query": 90, "verify": 85}
# Cycles in the traced pass, about 5 s each at the seed commit.
TRACE_CYCLES = {"scan": 1, "query": 1, "verify": 4}


def import_sqdist():
    import sqdist
    from sqdist import cli, matrices, oracle

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sqdist.__file__), src]) != src:
        raise SystemExit(f"sqdist imported from {sqdist.__file__}, not from {src}")
    return sqdist, cli, matrices, oracle


class Runner:
    """Runs ops in a closed loop, checks each output, and times each op.

    The speed probe runs between ops, outside the timed interval.
    """

    def __init__(self, cli, matrices, oracle, reference, tracer=None):
        self.cli, self.matrices, self.oracle = cli, matrices, oracle
        self.reference = reference
        self.tracer = tracer
        self.speed = SpeedLog()
        self.intervals: list[tuple[float, float]] = []
        self.items = 0
        self.failures: list[str] = []
        self.byte_mismatches = 0
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def call(self, op):
        if op.argv[0] == "verify":
            p = op.partition
            rec = self.oracle.verify_partition(p)
            g = self.matrices.sqdist_from_graph(self.matrices.multipartite_graph(p))
            same = bool((g.data == self.matrices.sqdist_from_partition(p).data).all())
            return 0, json.dumps({**rec.to_json(), "bfs_equal": same}, sort_keys=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.run(list(op.argv))
        return rc, out.getvalue()

    def run(self, op) -> None:
        """Time one op and check its output."""
        if not self.speed.at:
            self.speed.sample()
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        t0 = perf_counter()
        try:
            rc, text = self.call(op)
        except (Exception, SystemExit) as exc:  # a failed op, not a failed run
            self.intervals.append((t0, perf_counter()))
            self.failures.append(f"{op.key}: raised {exc!r}")
            self.speed.sample()
            return
        self.intervals.append((t0, perf_counter()))
        self.speed.sample()
        self.digest.update(f"{op.key}\0{text}\0".encode())
        ref = self.reference[op.key]
        if text != ref:
            self.byte_mismatches += 1
        try:
            parsed = checks.parse_output(text)
        except ValueError as exc:
            self.failures.append(f"{op.key}: unparsable output ({exc})")
            return
        problems = checks.claim_failures(op.argv, rc, parsed)
        problems += checks.compare(checks.parse_output(ref), parsed)
        if problems:
            self.failures.append(f"{op.key}: {'; '.join(problems[:3])}")
        else:
            self.items += ops.items(op, parsed)

    def raw_times(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.intervals]

    def scaled_times(self) -> list[float]:
        """Op times at the reference machine speed (see speed.py)."""
        return [(t1 - t0) * self.speed.scale(t0, t1) for t0, t1 in self.intervals]


def _quantile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def _summary(runner, times, pct) -> dict[str, float]:
    return {
        "items_per_s": runner.items / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": _quantile(times, pct) * 1e3,
    }


def _end_to_end(args, runner_factory, cycle_iter):
    """Whole cycles until the ops' time, scaled to the reference speed, is
    as close to --seconds as whole cycles get.  Measuring in scaled time
    keeps the number of cycles, and so the mix of inputs, the same for a
    seed however fast the shared machine runs at the moment."""
    runner = runner_factory(None)
    start = perf_counter()
    cycles_done = 0
    busy = 0.0
    while cycles_done == 0 or busy * (1 + 0.5 / cycles_done) < args.seconds:
        for op in next(cycle_iter):
            runner.run(op)
        cycles_done += 1
        busy = sum(runner.scaled_times())
    pct = TAIL_PERCENTILE[args.workload]
    times = runner.scaled_times()
    metrics = _summary(runner, times, pct)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "cycles": cycles_done,
        "ops": runner.attempted,
        "wall_s": round(perf_counter() - start, 3),
        "items": runner.items,
        "tail_percentile": pct,
        "ops_beyond_tail": sum(1 for t in times if t * 1e3 > metrics["op_tail_ms"]),
        "raw": _summary(runner, runner.raw_times(), pct),
        "probe_median_s": statistics.median(runner.speed.took),
        "output_sha256": runner.digest.hexdigest(),
        "byte_mismatches": runner.byte_mismatches,
    }
    return [runner], metrics, info


def _traced(args, runner_factory, cycle_iter, sqdist):
    """The same fixed ops untraced, traced, untraced; counts repeat exactly."""
    traced_ops = [op for _ in range(TRACE_CYCLES[args.workload]) for op in next(cycle_iter)]
    runners, rates = [], []
    tracer = spans.Tracer()
    for phase in ("untraced", "traced", "untraced"):
        runner = runner_factory(tracer if phase == "traced" else None)
        if phase == "traced":
            tracer.install(sqdist)
        try:
            for op in traced_ops:
                runner.run(op)
        finally:
            tracer.uninstall()
        runners.append(runner)
        rates.append(runner.items / sum(runner.scaled_times()))
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_ratio"] = rates[1] / statistics.mean([rates[0], rates[2]])
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl.gz")
    tracer.write(trace_file)
    totals = spans.layer_self_totals(tracer.spans)
    info = {
        "ops": len(traced_ops),
        "spans": len(tracer.spans),
        "trace_file": os.path.relpath(trace_file, ROOT),
        "layer_self_s": {k: round(v, 4) for k, v in sorted(totals.items(), key=lambda kv: -kv[1])},
        "dominant": dominant_check(args.workload, totals, metrics),
        "output_sha256": runners[1].digest.hexdigest(),
        "byte_mismatches": sum(r.byte_mismatches for r in runners),
    }
    return runners, metrics, info


# Predicted dominant layers by self time; for verify, the Jacobi oracle.
PREDICTED = {"scan": {"spectrum", "extremal"}, "query": {"charpoly", "spectrum"}}


def dominant_check(workload, totals, metrics) -> str:
    if workload == "verify":
        stages = {k: metrics[k] for k in ("oracle.jacobi_s", "oracle.closed_form_s",
                                          "matrices.build_s", "matrices.graph_s", "matrices.bfs_s")}
        top = max(stages, key=stages.get)
        verdict = "agrees" if top == "oracle.jacobi_s" else "DISAGREES"
        return f"{verdict}: largest stage is {top}, predicted oracle.jacobi_s"
    top2 = set(sorted(totals, key=lambda k: -totals[k])[:2])
    predicted = PREDICTED[workload]
    verdict = "agrees" if top2 == predicted else "DISAGREES"
    return f"{verdict}: top layers by self time {sorted(top2)}, predicted {sorted(predicted)}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sqdist, cli, matrices, oracle = import_sqdist()
    cycle_iter = ops.cycles(args.workload, args.seed)
    first = next(cycle_iter)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = checks.load_reference(args.workload)

    def stream():
        yield first
        yield from cycle_iter

    def factory(tracer):
        return Runner(cli, matrices, oracle, reference, tracer)

    if args.trace:
        runners, metrics, info = _traced(args, factory, stream(), sqdist)
    else:
        runners, metrics, info = _end_to_end(args, factory, stream())
    failures = [f for r in runners for f in r.failures]
    print(json.dumps({
        "attempted": sum(r.attempted for r in runners),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "info": info,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
