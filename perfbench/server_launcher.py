"""Start ``bomtrace-server`` for the ``http_mixed`` workload.

    python3 perfbench/server_launcher.py --report R.json [--spans S.jsonl] -- SERVER-ARGS

Calls ``bomtrace.server.main(SERVER-ARGS)``; with ``--spans`` it first
installs the benchmark's tracing wrappers, and at shutdown (SIGINT) it writes
the spans to that file. The report holds the server's exit code, its peak
resident set size and, when traced, the span summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import program, tracing  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args

    try:
        program.load_bomtrace()
    except program.ProgramMissing as exc:
        print(f"server_launcher: {exc}", file=sys.stderr)
        return 2
    import bomtrace.server

    # a parent started in the background may have left SIGINT ignored, and
    # bomtrace.server.main stops on KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if args.spans is not None:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = bomtrace.server.main(server_args)
    report = {
        "exit": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(args.spans, "server")
        report["summary"] = tracer.summary()
    args.report.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
