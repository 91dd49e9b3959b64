#!/usr/bin/env python3
"""Run one bomtrace benchmark workload and print its metrics.

    python3 perfbench/run.py --workload run_lifecycle --seed 1 --seconds 15 --trace 0

Workloads: run_lifecycle, shared_graph, http_mixed (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the workload runs half the time
untraced and half traced, and the JSON holds the per-layer metrics (the table
above it also shows the tracing overhead, traced minus untraced). Every answer is checked against an oracle;
any failed operation or check makes the exit code 1. Exit code 2 means there
was nothing to measure (no ``src/bomtrace`` beside the benchmark).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import metrics, oracle, program, tracing, workloads  # noqa: E402


@dataclass
class Pass:
    rounds: list[workloads.Round]
    check: oracle.Checker
    peak_rss_kb: int


def run_pass(bt, workload: str, seed: int, seconds: float, sizes,
             tracer: tracing.Tracer | None = None) -> Pass:
    """Rounds until ``seconds`` have passed, and at least ``sizes.min_rounds``."""
    check = oracle.Checker()
    rounds: list[workloads.Round] = []
    spans_prefix = program.OUT / f"spans-{workload}-seed{seed}" if tracer else None
    started = time.perf_counter()
    while len(rounds) < sizes.min_rounds or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.round = len(rounds)
        ctx = workloads.Context(bt, seed, len(rounds), check, spans_prefix)
        start = time.perf_counter()
        rnd = workloads.ROUNDS[workload](ctx, sizes)
        rnd.wall_s = time.perf_counter() - start
        rounds.append(rnd)
    if workload == "http_mixed":
        peak = max(r.server_rss_kb for r in rounds)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Pass(rounds, check, peak)


def _print_end_to_end(workload: str, result: Pass, values: dict[str, float]) -> None:
    measured = metrics.end_to_end(workload, result.rounds, result.peak_rss_kb, corrected=False)
    for name, unit in metrics.END_TO_END:
        note = metrics.describe(workload, result.rounds, name)
        if name in metrics.CORRECTED[workload]:
            note += f"; {measured[name]:.4f} as measured"
        print(f"  {name:24} {values[name]:14.4f} {unit:5} ({note})")
    scales = [r.time_scale for r in result.rounds]
    print(f"  host speed correction: x{min(scales):.3f} to x{max(scales):.3f} over "
          f"{len(scales)} rounds (x1 is the reference speed)")
    check = result.check
    print(f"  {'error_rate':24} {check.failed / max(check.attempted, 1):14.4f} {'':5} "
          f"({check.failed} failed / {check.attempted} attempted)")


def _result(check: oracle.Checker, values: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": check.failed == 0,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bt = program.load_bomtrace()
    except program.ProgramMissing as exc:
        print(f"perfbench: nothing to measure: {exc}", file=sys.stderr)
        return 2
    import bomtrace.cli  # noqa: F401  (the workloads call bt.cli and bt.ledger)
    import bomtrace.ledger  # noqa: F401

    sizes = sizes or workloads.DEFAULT_SIZES[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} sizes {sizes}")
    seconds = args.seconds / 2 if args.trace else args.seconds
    # One round before the measured ones, inside the same time budget: the
    # first round of a process runs on cold caches and a fresh heap.
    started = time.perf_counter()
    warmup = run_pass(bt, args.workload, -1 - args.seed, 0, replace(sizes, min_rounds=1))
    seconds -= time.perf_counter() - started
    untraced = run_pass(bt, args.workload, args.seed, seconds, sizes)
    untraced.check.merge(warmup.check)
    e2e = metrics.end_to_end(args.workload, untraced.rounds, untraced.peak_rss_kb)
    print(f"end to end, untraced, {len(untraced.rounds)} rounds:")
    _print_end_to_end(args.workload, untraced, e2e)
    check = untraced.check
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_pass(bt, args.workload, args.seed, seconds, sizes, tracer)
        tracer.dump(program.OUT / f"spans-{args.workload}-seed{args.seed}-generator.jsonl",
                    "generator")
        traced_e2e = metrics.end_to_end(args.workload, traced.rounds, traced.peak_rss_kb)
        print(f"end to end, traced, {len(traced.rounds)} rounds:")
        _print_end_to_end(args.workload, traced, traced_e2e)
        print("tracing overhead (traced minus untraced):")
        for name, unit in metrics.END_TO_END:
            delta = traced_e2e[name] - e2e[name]
            print(f"  {name:24} {delta:+14.4f} {unit:5} ({100 * delta / e2e[name]:+.1f}%)")
        layers = metrics.Layers(traced.rounds, tracer.summary())
        print(f"per layer, per round of {len(traced.rounds)} (rebound by name: "
              f"{', '.join(tracer.rebound)}):")
        for line in metrics.layer_table(layers):
            print("  " + line)
        values = metrics.per_layer(layers)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        for name, unit in units.items():
            print(f"  {name:52} {values[name]:14.4f} {unit}")
        check.merge(traced.check)
    else:
        values, units = e2e, dict(metrics.END_TO_END)
    for message in check.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(_result(check, values, units))
    return 0 if check.failed == 0 else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
