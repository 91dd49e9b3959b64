"""Metric definitions and how they are computed from the rounds of a run.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced one. Per-layer counts and times are per round: every round does the
same work, so they compare across versions however many rounds fit into a
run. Shares (unit ``%``) are of the traced rounds' wall time; they stand in
for layers that some workloads never enter, where a time would read 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Callable

from . import tracing
from .workloads import Round

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("audit_s", "s"),
    ("reopen_s", "s"),
    ("store_bytes_per_write", "B"),
    ("peak_rss_mb", "MB"),
)

# Latencies are summarised per round and reported as the median over rounds,
# so one round spent on a slow stretch of the host moves no metric. The tail
# is the highest of p90/p95/p99 that leaves at least ten samples beyond it
# within one round.
TAIL_PERCENTILE: dict[str, dict[str, float]] = {
    "run_lifecycle": {"read": 90, "write": 95},  # 102 reads, 918 writes per round
    "shared_graph": {"read": 95, "write": 90},  # 500 reads, 100 writes per round
    "http_mixed": {"read": 90, "write": 90},  # 100 reads, 100 writes per round
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


# Times of work the generator's own thread does are corrected for host speed
# (``Round.corrected``, ``Round.time_scale``). An HTTP round trip waits on the
# server process and on kernel timers, so http_mixed keeps its request, set-up
# and audit times as measured and corrects only the embedded reopen.
CORRECTED = {
    "run_lifecycle": {"setup_s", "ops_per_s", "read_p50_ms", "read_tail_ms", "write_p50_ms",
                      "write_tail_ms", "audit_s", "reopen_s"},
    "http_mixed": {"reopen_s"},
}
CORRECTED["shared_graph"] = CORRECTED["run_lifecycle"]


def end_to_end(workload: str, rounds: list[Round], peak_rss_kb: int,
               corrected: bool = True) -> dict[str, float]:
    """The metrics; with ``corrected=False`` every time is as measured."""
    tails = TAIL_PERCENTILE[workload]
    scaled = CORRECTED[workload] if corrected else set()

    def times(metric: str, r: Round, name: str) -> list[float]:
        return r.corrected(name) if metric in scaled else getattr(r, name)

    def pooled(metric: str, name: str) -> float:
        return statistics.median(v for r in rounds for v in times(metric, r, name))

    def per_round(metric: str, name: str, summary) -> float:
        return statistics.median(1e3 * summary(times(metric, r, name)) for r in rounds)

    def rate(r: Round) -> float:
        return r.ops / r.timed_s / (r.time_scale if "ops_per_s" in scaled else 1.0)

    return {
        "setup_s": pooled("setup_s", "setup_s"),
        "ops_per_s": statistics.median(rate(r) for r in rounds),
        "read_p50_ms": per_round("read_p50_ms", "reads", statistics.median),
        "read_tail_ms": per_round(
            "read_tail_ms", "reads", lambda v: percentile(v, tails["read"])),
        "write_p50_ms": per_round("write_p50_ms", "writes", statistics.median),
        "write_tail_ms": per_round(
            "write_tail_ms", "writes", lambda v: percentile(v, tails["write"])),
        "audit_s": statistics.median(sum(times("audit_s", r, "audit_s")) for r in rounds),
        "reopen_s": pooled("reopen_s", "reopen_s"),
        "store_bytes_per_write": sum(r.timed_bytes for r in rounds)
        / sum(len(r.writes) for r in rounds),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def describe(workload: str, rounds: list[Round], name: str) -> str:
    """How a value was taken, printed beside it."""
    n = len(rounds)
    reads, writes = len(rounds[0].reads), len(rounds[0].writes)
    tails = TAIL_PERCENTILE[workload]
    return {
        "setup_s": f"median of {sum(len(r.setup_s) for r in rounds)} set-ups",
        "ops_per_s": f"median of {n} rounds of {reads + writes} timed ops",
        "read_p50_ms": f"median of {n} rounds' medians of {reads}",
        "read_tail_ms": f"median of {n} rounds' p{tails['read']:g} of {reads}",
        "write_p50_ms": f"median of {n} rounds' medians of {writes}",
        "write_tail_ms": f"median of {n} rounds' p{tails['write']:g} of {writes}",
        "audit_s": f"median of {n} rounds' sums of {len(rounds[0].audit_s)} audits",
        "reopen_s": f"median of {sum(len(r.reopen_s) for r in rounds)} reopens",
        "store_bytes_per_write": f"timed-phase growth / {n * writes} writes",
        "peak_rss_mb": "server process" if workload == "http_mixed" else "load generator",
    }[name]


# -- per layer -------------------------------------------------------------------


class Layers:
    """Per-round views of merged span summaries."""

    def __init__(self, rounds: list[Round], local: dict[str, Any]):
        self.server = tracing.merge([r.server_summary for r in rounds if r.server_summary])
        self.total = tracing.merge([local, self.server])
        self.rounds = rounds
        self.n = len(rounds)
        self.wall_ns = sum(r.wall_s for r in rounds) * 1e9

    def name(self, span: str, field: str) -> float:
        return self.total["names"].get(span, {}).get(field, 0)

    def per_round_ms(self, ns: float) -> float:
        return ns / 1e6 / self.n

    def share(self, ns: float) -> float:
        return 100 * ns / self.wall_ns

    def ratio(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    @property
    def client_ns(self) -> int:
        return sum(r.client_rt_ns for r in self.rounds)

    @property
    def transport_ns(self) -> float:
        """Client round trips not covered by server-side ``api.dispatch``."""
        dispatch = self.server["names"].get("api.dispatch", {}).get("busy_ns", 0)
        return self.client_ns - dispatch

    def timed_commits(self) -> int:
        """Store commits that started inside a round's timed phase."""
        windows = [w for r in self.rounds for w in r.timed_windows]
        return sum(any(a <= t < b for a, b in windows) for t in self.total["commit_ns"])

    def last_decile_over_first(self) -> float:
        ratios = []
        for series in self.total["observation_series"]:
            k = len(series) // 10
            if k:
                ratios.append(statistics.fmean(series[-k:]) / statistics.fmean(series[:k]))
        return statistics.median(ratios) if ratios else 0.0


def _group(layers: Layers, group: str) -> dict[str, float]:
    """A module's totals when ``group`` has no dot, else one span name's."""
    source = layers.total["names"] if "." in group else layers.total["modules"]
    return source.get(group, {})


def _count(layers: Layers, group: str, field: str = "calls") -> float:
    return _group(layers, group).get(field, 0) / layers.n


def _ms(layers: Layers, group: str, field: str) -> float:
    return _group(layers, group).get(field, 0) / 1e6 / layers.n


PER_LAYER: tuple[tuple[str, str, Callable[[Layers], float]], ...] = (
    ("server.calls", "count", lambda L: _count(L, "server.handle")),
    ("server.transport_share", "%",
     lambda L: 100 * L.ratio(L.transport_ns, L.client_ns)),
    ("api.dispatch.calls", "count", lambda L: _count(L, "api.dispatch")),
    ("api.dispatch.self_ms", "ms", lambda L: _ms(L, "api.dispatch", "self_ns")),
    ("gateway.calls", "count", lambda L: _count(L, "gateway")),
    ("gateway.busy_ms", "ms", lambda L: _ms(L, "gateway", "busy_ns")),
    ("gateway.self_ms", "ms", lambda L: _ms(L, "gateway", "self_ns")),
    ("gateway.failed", "count", lambda L: _count(L, "gateway", "failed")),
    ("gateway.records_decoded_per_op", "count",
     lambda L: L.ratio(sum(L.total["op_decodes"].values()), sum(L.total["op_calls"].values()))),
    ("gateway.record_observation.last_decile_over_first", "ratio",
     lambda L: L.last_decile_over_first()),
    ("gateway.define_bom.busy_ms", "ms", lambda L: _ms(L, "gateway.define_bom", "busy_ns")),
    ("manifest.define_bom.self_ms", "ms", lambda L: _ms(L, "manifest.define_bom", "self_ns")),
    ("model.validate_structure.calls", "count",
     lambda L: _count(L, "model.validate_structure")),
    ("model.validate_structure.busy_ms", "ms",
     lambda L: _ms(L, "model.validate_structure", "busy_ns")),
    ("lineage.busy_ms", "ms", lambda L: _ms(L, "lineage", "busy_ns")),
    ("lineage.closure.share", "%", lambda L: L.share(L.name("lineage.closure", "busy_ns"))),
    ("lineage.component_uses.share", "%",
     lambda L: L.share(L.name("lineage.component_uses", "busy_ns"))),
    ("lineage.nodes_per_query", "count",
     lambda L: L.ratio(L.name("lineage.closure", "note_sum") + L.name("lineage.component_uses", "note_sum"),
                       L.name("lineage.closure", "calls") + L.name("lineage.component_uses", "calls"))),
    ("runtime.bol_decodes", "count", lambda L: L.total["decodes"].get("Bol", 0) / L.n),
    ("runtime.bol_leaves.share", "%", lambda L: L.share(L.name("runtime.bol_leaves", "busy_ns"))),
    ("ledger.busy_ms", "ms", lambda L: _ms(L, "ledger", "busy_ns")),
    ("ledger.append_entry.calls", "count", lambda L: _count(L, "ledger.append_entry")),
    ("ledger.append_entry.self_share", "%",
     lambda L: L.share(L.name("ledger.append_entry", "self_ns"))),
    ("ledger.merkle.share", "%",
     lambda L: L.share(sum(L.name(f"ledger.{n}", "busy_ns")
                           for n in ("merkle_root", "inclusion_proof", "verify_inclusion")))),
    ("ledger.verify_chain.busy_ms", "ms", lambda L: _ms(L, "ledger.verify_chain", "busy_ns")),
    ("ledger.export.busy_ms", "ms", lambda L: _ms(L, "ledger.export", "busy_ns")),
    ("store.put_many.calls", "count", lambda L: _count(L, "store.put_many")),
    ("store.put_many.self_ms", "ms", lambda L: _ms(L, "store.put_many", "self_ns")),
    ("store.fsync.calls", "count", lambda L: _count(L, "store.fsync")),
    ("store.fsync.busy_ms", "ms", lambda L: _ms(L, "store.fsync", "busy_ns")),
    ("store.bytes_per_commit", "B",
     lambda L: L.ratio(sum(r.timed_bytes for r in L.rounds), L.timed_commits())),
    ("store.scan.calls", "count", lambda L: _count(L, "store.scan")),
    ("store.scan.busy_ms", "ms", lambda L: _ms(L, "store.scan", "busy_ns")),
    ("store.records_per_scan", "count",
     lambda L: L.ratio(L.name("store.scan", "note_sum"), L.name("store.scan", "calls"))),
    ("store.open.busy_ms", "ms", lambda L: _ms(L, "store.open", "busy_ns")),
    ("canonical.canonical_bytes.calls", "count",
     lambda L: _count(L, "canonical.canonical_bytes")),
    ("canonical.canonical_bytes.busy_ms", "ms",
     lambda L: _ms(L, "canonical.canonical_bytes", "busy_ns")),
    ("canonical.bytes_out", "B", lambda L: L.name("canonical.canonical_bytes", "note_sum") / L.n),
    ("cli.main.busy_ms", "ms", lambda L: _ms(L, "cli.main", "busy_ns")),
)


def per_layer(layers: Layers) -> dict[str, float]:
    return {name: compute(layers) for name, _unit, compute in PER_LAYER}


def layer_table(layers: Layers) -> list[str]:
    """Every span name and module, per round, plus the per-op ratios."""
    lines = [f"{'group':44} {'calls':>10} {'busy_ms':>12} {'self_ms':>12} {'failed':>7}"]
    groups = [(m, layers.total["modules"][m]) for m in sorted(layers.total["modules"])]
    groups += [(n, layers.total["names"][n]) for n in sorted(layers.total["names"])]
    for name, g in groups:
        lines.append(
            f"{name:44} {g['calls'] / layers.n:10.1f} {layers.per_round_ms(g['busy_ns']):12.3f} "
            f"{layers.per_round_ms(g['self_ns']):12.3f} {g['failed'] / layers.n:7.1f}")
    requests = sum(r.client_requests for r in layers.rounds)
    if requests:
        lines.append(f"server.transport_ms {layers.transport_ns / requests / 1e6:.3f} ms per "
                     f"request (client round trip minus server api.dispatch, {requests} requests)")
    for op in sorted(layers.total["op_calls"]):
        calls = layers.total["op_calls"][op]
        decoded = layers.total["op_decodes"].get(op, 0)
        lines.append(f"{op}.records_decoded_per_op {decoded / calls:.1f} ({calls} calls)")
    return lines
