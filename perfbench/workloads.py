"""The three workloads: seeded inputs, one round each, and their oracles.

A run repeats rounds until ``--seconds`` have passed (at least
``min_rounds``). Every round starts from an empty data directory and does the
same amount of work, so a faster program runs more rounds but never a
different shape of work: per-op costs that grow with BoL or store size are
compared at equal sizes. The program sees only the generated manifests,
payloads and query targets; ids come back from its answers.

* ``run_lifecycle`` — one closed-loop caller, embedded ``Gateway``: BoLs of
  one small BoM take observations with a ``resolve_access`` read every 10th
  op, each followed by its audit (seal, report, sampled proofs, chain verify,
  export); then a close and reopens of the final directory.
* ``shared_graph`` — embedded ``Gateway``: set-up links a few hundred
  single-assembly BoMs that consume earlier BoMs' outputs; the timed mix is
  ``define_bom`` links and ``trace``/``track``/``find_uses`` reads.
* ``http_mixed`` — ``bomtrace-server`` in its own process, two keep-alive
  connections in a closed loop, one BoL each; half observation POSTs, half
  reads.
"""

from __future__ import annotations

import base64
import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from random import Random
from typing import Any, Callable

from . import oracle, program

HERE = Path(__file__).resolve().parent
RUN_ASSEMBLIES = 5  # assemblies in the BoM a run_lifecycle or http_mixed BoL comes from


@dataclass(frozen=True)
class LifecycleSizes:
    bols: int = 3
    ops_per_bol: int = 340  # every 10th op is a read
    proofs_per_bol: int = 8
    reopens: int = 3
    setups: int = 7  # set-up is a few ms, so a round repeats it; the last one is used
    min_rounds: int = 2


@dataclass(frozen=True)
class SharedGraphSizes:
    boms: int = 200
    links: int = 100
    reads: int = 500
    audit_boms: int = 10
    segments: int = 4  # each timed segment ends with an audit and a reopen
    min_rounds: int = 2


@dataclass(frozen=True)
class HttpSizes:
    writes_per_connection: int = 50
    reads_per_connection: int = 50
    proofs_per_bol: int = 5
    reopens: int = 3
    min_rounds: int = 2


DEFAULT_SIZES = {
    "run_lifecycle": LifecycleSizes(),
    "shared_graph": SharedGraphSizes(),
    "http_mixed": HttpSizes(),
}


# -- host speed --------------------------------------------------------------
#
# On a shared VM the speed of one Python thread can change by up to 1.7x for
# seconds to minutes at a time, and thread CPU time slows with it, so neither
# wall nor CPU time of the program repeats from run to run. Each round
# therefore also times a fixed stdlib job between operations (canonical JSON
# encode, decode and SHA-256 of one document: the kind of work bomtrace's
# write and audit paths do). ``metrics`` scales the in-process times of each
# stretch of a round by PROBE_REFERENCE_S over the median job time in that
# stretch (``Round.corrected``). The job is the benchmark's own code, so a
# change to bomtrace cannot move it.

PROBE_DOC = {
    f"k{i:03d}": {"id": f"as_{i:032x}", "xs": list(range(i % 7)), "name": "n" * (i % 13)}
    for i in range(60)
}
# About the job's median time on a 2-vCPU Intel Xeon VM with CPython 3.11 in its
# fast stretches. Corrected times compare across runs of one workload; how fast
# the job runs also depends on what ran just before it.
PROBE_REFERENCE_S = 250e-6


def settle() -> None:
    """Collect what earlier steps left behind, before a timed step.

    The cyclic collector runs after a count of allocations, and a pass costs
    more the more garbage is lying around (a closed Gateway, decoded records),
    so a timed step would otherwise pay for earlier steps at varying points.
    """
    gc.collect()


def probe_job() -> float:
    """Run the fixed job once and return its wall time in seconds."""
    start = time.perf_counter()
    encoded = json.dumps(PROBE_DOC, sort_keys=True, separators=(",", ":")).encode()
    json.loads(encoded)
    hashlib.sha256(encoded).digest()
    return time.perf_counter() - start


SAMPLES = ("setup_s", "reads", "writes", "audit_s", "reopen_s")  # Round's time samples


@dataclass
class Round:
    """What one round measured; times in seconds."""

    setup_s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    reads: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    audit_s: list[float] = field(default_factory=list)
    reopen_s: list[float] = field(default_factory=list)
    timed_bytes: int = 0  # data directory growth over the timed phase
    timed_windows: list[tuple[int, int]] = field(default_factory=list)  # perf_counter_ns
    wall_s: float = 0.0
    server_rss_kb: int = 0
    server_summary: dict | None = None
    client_rt_ns: int = 0
    client_requests: int = 0
    probe_s: list[float] = field(default_factory=list)  # host speed, see probe_job
    stretch_ends: list[dict[str, int]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.reads) + len(self.writes)

    def probe(self) -> None:
        self.probe_s.append(probe_job())

    @property
    def time_scale(self) -> float:
        """Converts this round's in-process times to the reference speed."""
        return PROBE_REFERENCE_S / statistics.median(self.probe_s)

    def _marks(self) -> dict[str, int]:
        return {name: len(getattr(self, name)) for name in SAMPLES + ("probe_s",)}

    def end_stretch(self) -> None:
        """Close a stretch of the round: its samples are corrected by its own probes."""
        self.stretch_ends.append(self._marks())

    def corrected(self, name: str) -> list[float]:
        """The samples ``name`` at the reference speed.

        Each is scaled by the median job time of the stretch it was taken in;
        the round's last stretch ends with the round.
        """
        out: list[float] = []
        start = dict.fromkeys(SAMPLES + ("probe_s",), 0)
        for end in self.stretch_ends + [self._marks()]:
            probes = self.probe_s[start["probe_s"]:end["probe_s"]]
            scale = PROBE_REFERENCE_S / statistics.median(probes) if probes else self.time_scale
            out += [scale * v for v in getattr(self, name)[start[name]:end[name]]]
            start = end
        return out

    @contextlib.contextmanager
    def timed_phase(self, data: Path):
        """Add the block's wall time and data-directory growth to the timed phase."""
        before = dir_bytes(data)
        probed = len(self.probe_s)
        settle()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.timed_s += (end - start) / 1e9 - sum(self.probe_s[probed:])
            self.timed_windows.append((start, end))
            self.timed_bytes += dir_bytes(data) - before


@dataclass
class Context:
    """What a round needs besides its sizes."""

    bt: Any  # the bomtrace package
    seed: int
    index: int
    check: oracle.Checker
    spans_prefix: Path | None = None  # traced runs: where server spans go

    def rng(self, workload: str) -> Random:
        return Random(f"{workload}/{self.seed}/{self.index}")


def dir_bytes(path: Path) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_dir(follow_symlinks=False):
            total += dir_bytes(Path(entry.path))
        else:
            total += entry.stat(follow_symlinks=False).st_size
    return total


def payload(rng: Random) -> str:
    return f"{rng.getrandbits(256):064x}"


# -- generated inputs ----------------------------------------------------


def run_manifest(rng: Random, tag: str) -> tuple[dict, dict, list]:
    """A chain of assemblies: 5 components in the first, 4 new in each next one.

    The shape is fixed, so the seed changes names, metadata and payloads but
    not record sizes: bytes per write repeat across seeds.

    Returns the manifest, the access metadata declared per component name
    and the lineage edges by name (input -> assembly -> output).
    """
    doc: dict[str, Any] = {"name": f"run bom {tag}", "assemblies": []}
    metadata: dict[str, dict[str, str]] = {}
    edges: list[tuple[str, str]] = []
    previous = None
    for a in range(RUN_ASSEMBLIES):
        stage = f"stage {tag}.{a}"
        inputs: list[Any] = []
        for i in range(1 if previous else 2):
            name = f"input {tag}.{a}.{i}"
            metadata[name] = {"dataAccess": f"https://data.example/{rng.getrandbits(48):012x}"}
            inputs.append({"name": name, "metadata": metadata[name]})
        if previous is not None:
            inputs.append(previous)
        model = f"model {tag}.{a}"
        metadata[model] = {"codeAccess": f"https://code.example/{rng.getrandbits(48):012x}"}
        outputs = [f"output {tag}.{a}.{i}" for i in range(2)]
        for name in outputs:
            metadata[name] = {}
        doc["assemblies"].append({
            "name": stage,
            "inputData": inputs,
            "inputArtifacts": [{"name": model, "metadata": metadata[model]}],
            "outputData": [{"name": name} for name in outputs],
        })
        for entry in inputs + [model]:
            edges.append((entry if isinstance(entry, str) else entry["name"], stage))
        edges.extend((stage, name) for name in outputs)
        previous = outputs[0]
    return doc, metadata, edges


def ids_by_name(detail: dict) -> dict[str, str]:
    """Names to ids from a nested BoM detail document."""
    ids = {}
    for assembly in detail["assemblies"]:
        ids[assembly["name"]] = assembly["id"]
        for key in ("inputData", "inputArtifacts", "outputData", "outputArtifacts"):
            for component in assembly[key]:
                ids[component["name"]] = component["id"]
    return ids


def _cli_verify(ctx: Context, data: Path) -> None:
    """One embedded ``bomtrace ledger verify``, as a CLI user would run it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok, code = ctx.check.call(
            "cli ledger verify",
            lambda: ctx.bt.cli.main(["--embedded", "--data-dir", str(data), "ledger", "verify"]),
        )
    if ok:
        ctx.check.expect(code == 0 and out.getvalue().strip() == "ledger ok",
                         f"cli ledger verify: exit {code}, {out.getvalue().strip()!r}")


def _reopen(ctx: Context, data: Path, rnd: Round, export: bytes | None, count: int):
    """Time ``Gateway(dir)`` on a closed directory; its ledger must read the same."""
    rnd.probe()
    settle()
    start = time.perf_counter()
    gateway = ctx.bt.Gateway(data, deterministic_ids=True)
    rnd.reopen_s.append(time.perf_counter() - start)
    rnd.probe()
    ctx.check.expect(gateway.ledger.count == count,
                     f"reopen: ledger count {gateway.ledger.count}, expected {count}")
    ok, again = ctx.check.call("export_ledger", gateway.export_ledger)
    ctx.check.expect(ok and again == export,
                     "reopen: export_ledger bytes differ from before the close")
    return gateway


# -- run_lifecycle -------------------------------------------------------------


def run_lifecycle(ctx: Context, sizes: LifecycleSizes) -> Round:
    """BoLs one after another, each audited; then the directory is reopened."""
    bt, check, rng, rnd = ctx.bt, ctx.check, ctx.rng("run_lifecycle"), Round()
    manifest, metadata, _edges = run_manifest(rng, f"r{ctx.index}")
    data = gateway = None
    try:
        for _ in range(sizes.setups):
            if data is not None:
                gateway.close()
                program.remove_dir(data)
            data = program.new_data_dir("run_lifecycle")
            settle()
            start = time.perf_counter()
            gateway = bt.Gateway(data, deterministic_ids=True)
            bom = gateway.define_bom(manifest)
            detail = gateway.bom_detail(bom.id)
            bols = [gateway.instantiate_bol(bom.id, run_label=f"run {i}")
                    for i in range(sizes.bols)]
            rnd.setup_s.append(time.perf_counter() - start)
            rnd.probe()

        ids = ids_by_name(detail)
        expected_access = {ids[name]: meta for name, meta in metadata.items()}
        components = sorted(expected_access)
        count = len(bols)  # ledger entries: one bol_created each so far
        for bol in bols:
            check.expect(set(bol.shadow_items) == set(components),
                         f"instantiate_bol {bol.id}: shadow items differ from the manifest")
            recorded: dict[str, list[str]] = {cid: [] for cid in components}
            rnd.end_stretch()  # each BoL starts a stretch; the last one holds the reopens
            with rnd.timed_phase(data):
                for i in range(sizes.ops_per_bol):
                    cid = rng.choice(components)
                    if i % 10 == 9:
                        rnd.probe()
                        t = time.perf_counter()
                        ok, access = check.call("resolve_access",
                                                lambda: gateway.resolve_access(bol.id, cid))
                        rnd.reads.append(time.perf_counter() - t)
                        if ok:
                            check.expect(access == expected_access[cid],
                                         f"resolve_access {cid}: {access} "
                                         f"!= {expected_access[cid]}")
                        continue
                    text = payload(rng)
                    t = time.perf_counter()
                    ok, answer = check.call(
                        "record_observation",
                        lambda: gateway.record_observation_indexed(bol.id, cid, text))
                    rnd.writes.append(time.perf_counter() - t)
                    if ok:
                        observation, index = answer
                        check.expect(index == len(recorded[cid]) and observation.payload == text,
                                     f"record_observation {cid}: index {index}, "
                                     f"expected {len(recorded[cid])}")
                        recorded[cid].append(text)

            settle()
            start = time.perf_counter()
            _audit_bol(ctx, gateway, bol.id, recorded, rng, sizes.proofs_per_bol)
            ok, verdict = check.call("verify_chain", gateway.verify_chain)
            check.expect(ok and tuple(verdict) == (True, None), f"verify_chain: {verdict}")
            ok, export = check.call("export_ledger", gateway.export_ledger)
            rnd.audit_s.append(time.perf_counter() - start)
            rnd.probe()

            count += sum(len(h) for h in recorded.values()) + 1  # observations + sealed
            check.expect(gateway.ledger.count == count,
                         f"ledger count {gateway.ledger.count}, expected {count}")
        gateway.close()
        for _ in range(sizes.reopens):
            _reopen(ctx, data, rnd, export, count).close()
        _cli_verify(ctx, data)
    finally:
        if gateway is not None:
            gateway.close()
        if data is not None:
            program.remove_dir(data)
    return rnd


def _audit_bol(ctx: Context, gateway, bol_id: str, recorded: dict[str, list[str]],
               rng: Random, proofs: int) -> None:
    """Seal, report and sampled inclusion proofs for one BoL."""
    check, ledger = ctx.check, ctx.bt.ledger
    ok, anchor = check.call("seal_bol", lambda: gateway.seal_bol(bol_id))
    if not ok:
        return
    leaves = oracle.observation_leaves(recorded)
    check.expect(anchor.leaf_count == 1 + len(leaves),
                 f"seal_bol {bol_id}: {anchor.leaf_count} leaves, expected {1 + len(leaves)}")
    ok, report = check.call("lineage_report", lambda: gateway.lineage_report(bol_id))
    if ok:
        counts = {cid: len(obs) for cid, obs in report.dynamic.items()}
        check.expect(counts == {cid: len(h) for cid, h in recorded.items()}
                     and report.anchor == anchor,
                     f"lineage_report {bol_id}: observations or anchor differ")
    for leaf_index in rng.sample(range(1 + len(leaves)), min(proofs, 1 + len(leaves))):
        ok, answer = check.call("inclusion_proof",
                                lambda: gateway.inclusion_proof(bol_id, leaf_index))
        if not ok:
            continue
        leaf, proof = answer
        siblings = [list(step) for step in proof.siblings]
        ok, included = check.call(
            "verify_inclusion",
            lambda: ledger.verify_inclusion(leaf, proof, anchor.merkle_root))
        check.expect(
            ok and included and oracle.proof_verifies(leaf, siblings, anchor.merkle_root),
            f"inclusion_proof {bol_id}[{leaf_index}] does not verify against the anchor root")
        if leaf_index:
            cid, index, text = leaves[leaf_index - 1]
            check.expect(oracle.leaf_matches(leaf, bol_id, cid, index, text),
                         f"inclusion_proof {bol_id}[{leaf_index}]: leaf is not the observation")


# -- shared_graph ----------------------------------------------------------------


@dataclass
class SharedGraph:
    """The generator's own record of what it linked."""

    outputs: list[str] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)
    sites: dict[str, list[tuple[str, str, str]]] = field(default_factory=dict)
    boms: list[str] = field(default_factory=list)

    def link(self, ctx: Context, gateway, rng: Random, tag: str) -> float | None:
        """Define one single-assembly BoM consuming up to two earlier outputs."""
        consumed = rng.sample(self.outputs, rng.randint(0, min(2, len(self.outputs))))
        manifest = {
            "name": f"bom {tag}",
            "assemblies": [{
                "name": f"step {tag}",
                "inputData": [{"name": f"source {tag}",
                               "metadata": {"dataAccess": f"https://data.example/{tag}"}}]
                + consumed,
                "inputArtifacts": [{"name": f"model {tag}"}],
                "outputData": [{"name": f"out {tag}.0"}, {"name": f"out {tag}.1"}],
            }],
        }
        start = time.perf_counter()
        ok, bom = ctx.check.call("define_bom", lambda: gateway.define_bom(manifest))
        elapsed = time.perf_counter() - start
        if not ok:
            return elapsed
        assembly = gateway.get_assembly(bom.assemblies[0])
        if not ctx.check.expect(
            assembly is not None and list(assembly.input_data[1:]) == consumed
            and len(assembly.output_data) == 2 and len(assembly.input_artifacts) == 1,
            f"define_bom {bom.id}: stored assembly differs from the manifest",
        ):
            return elapsed
        aid = assembly.id
        inputs = list(assembly.input_data) + list(assembly.input_artifacts)
        self.edges.extend((cid, aid) for cid in inputs)
        self.edges.extend((aid, cid) for cid in assembly.output_data)
        for cid in inputs:
            self.sites.setdefault(cid, []).append((bom.id, aid, "input"))
        for cid in assembly.output_data:
            self.sites.setdefault(cid, []).append((bom.id, aid, "output"))
        self.outputs.extend(assembly.output_data)
        self.boms.append(bom.id)
        return elapsed

    def check_read(self, check: oracle.Checker, kind: str, target: str, answer: dict,
                   edge_count: int, site_count: int) -> None:
        """Compare an answer with the graph as it stood when it was asked."""
        if kind == "find_uses":
            expected = sorted(self.sites[target][:site_count])
            got = sorted(tuple(s[k] for k in ("bom_id", "assembly_id", "role"))
                         for s in answer["static"])
            check.expect(got == expected and answer["dynamic"] == [],
                         f"find_uses {target}: {len(got)} sites, expected {len(expected)}")
            return
        check.expect(
            oracle.graph_matches(answer, set(self.edges[:edge_count]), target, kind == "trace"),
            f"{kind} {target}: answer differs from reachability over the generated edges")


def shared_graph(ctx: Context, sizes: SharedGraphSizes) -> Round:
    """Timed mix in segments; each is followed by an audit and a reopen."""
    bt, check, rng, rnd = ctx.bt, ctx.check, ctx.rng("shared_graph"), Round()
    graph = SharedGraph()
    data = program.new_data_dir("shared_graph")
    gateway = None
    try:
        settle()
        start = time.perf_counter()
        gateway = bt.Gateway(data, deterministic_ids=True)
        for b in range(sizes.boms):
            graph.link(ctx, gateway, rng, f"{ctx.index}.{b}")
        rnd.setup_s.append(time.perf_counter() - start)
        rnd.probe()

        mix = ["link"] * sizes.links + ["trace", "track", "find_uses"] * (sizes.reads // 3)
        mix += ["trace"] * (sizes.reads % 3)
        rng.shuffle(mix)
        step = -(-len(mix) // sizes.segments)
        for first in range(0, len(mix), step):
            asked = []
            with rnd.timed_phase(data):
                for n, kind in enumerate(mix[first:first + step], first):
                    if n % 10 == 9:
                        rnd.probe()
                    if kind == "link":
                        rnd.writes.append(
                            graph.link(ctx, gateway, rng, f"{ctx.index}.{sizes.boms + n}"))
                        continue
                    target = rng.choice(graph.outputs)
                    query = getattr(gateway, kind)
                    t = time.perf_counter()
                    ok, answer = check.call(kind, lambda: query(target))
                    rnd.reads.append(time.perf_counter() - t)
                    if ok:
                        asked.append((kind, target, answer, len(graph.edges),
                                      len(graph.sites.get(target, ()))))
            for kind, target, answer, edge_count, site_count in asked:
                graph.check_read(check, kind, target, answer.to_dict(), edge_count, site_count)

            start = time.perf_counter()
            for bom_id in rng.sample(graph.boms, min(sizes.audit_boms, len(graph.boms))):
                ok, report = check.call("validate_bom", lambda: gateway.validate_bom(bom_id))
                check.expect(ok and report.ok, f"validate_bom {bom_id}: {report}")
            ok, verdict = check.call("verify_chain", gateway.verify_chain)
            check.expect(ok and tuple(verdict) == (True, None), f"verify_chain: {verdict}")
            ok, export = check.call("export_ledger", gateway.export_ledger)
            rnd.audit_s.append(time.perf_counter() - start)
            rnd.probe()
            check.expect(export == b"", "export_ledger: a graph without runs has ledger entries")
            gateway.close()
            gateway = _reopen(ctx, data, rnd, export, 0)
            rnd.end_stretch()
        gateway.close()
        _cli_verify(ctx, data)
    finally:
        if gateway is not None:
            gateway.close()
        program.remove_dir(data)
    return rnd


# -- http_mixed ----------------------------------------------------------------


class Client:
    """One keep-alive connection; every response must be 2xx canonical JSON."""

    def __init__(self, port: int, check: oracle.Checker):
        self.conn = HTTPConnection("127.0.0.1", port, timeout=60)
        self.check = check
        self.rt_ns = 0
        self.requests = 0

    def request(self, method: str, path: str, body: Any = None,
                ndjson: bool = False) -> tuple[Any, float]:
        """Returns (parsed body or raw bytes for NDJSON, seconds); None on failure."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = time.perf_counter_ns()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, ValueError) as exc:
            elapsed = time.perf_counter_ns() - start
            self.check.expect(False, f"{method} {path}: {type(exc).__name__}: {exc}")
            self.conn.close()
            return None, elapsed / 1e9
        elapsed = time.perf_counter_ns() - start
        self.rt_ns += elapsed
        self.requests += 1
        canonical = oracle.is_canonical_ndjson(raw) if ndjson else oracle.is_canonical_json(raw)
        if not self.check.expect(200 <= response.status < 300 and canonical,
                                 f"{method} {path}: status {response.status}, "
                                 f"canonical {canonical}, body {raw[:120]!r}"):
            return None, elapsed / 1e9
        return (raw if ndjson else json.loads(raw)), elapsed / 1e9

    def close(self) -> None:
        self.conn.close()


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """``bomtrace-server`` started through the benchmark's launcher."""

    START_TIMEOUT_S = 60

    def __init__(self, data: Path, check: oracle.Checker, spans: Path | None):
        self.report_path = data.with_name(data.name + ".report.json")
        self.log_path = data.with_name(data.name + ".server.log")
        self.port = _free_port()
        command = [sys.executable, str(HERE / "server_launcher.py"),
                   "--report", str(self.report_path)]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", "--host", "127.0.0.1", "--port", str(self.port),
                    "--data-dir", str(data), "--deterministic-ids"]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=log,
                                         stderr=subprocess.STDOUT, cwd=program.ROOT)
        self.probe = Client(self.port, check)

    def wait_ready(self) -> bool:
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                return False
            try:
                self.probe.conn.connect()
            except OSError:
                self.probe.conn.close()
                time.sleep(0.005)
                continue
            doc, _ = self.probe.request("GET", "/healthz")
            self.probe.close()
            return doc == {"status": "ok"}
        return False

    def stop(self) -> dict:
        """Interrupt the server, wait for it, and read the launcher's report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            return json.loads(self.report_path.read_text())
        except (OSError, ValueError):
            return {}

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def cleanup(self) -> None:
        for path in (self.report_path, self.log_path):
            path.unlink(missing_ok=True)


def _drive(client: Client, rng: Random, bol_id: str, components: list[str], edges: set,
           writes: int, reads: int, rnd_writes: list, rnd_reads: list) -> dict[str, list[str]]:
    """One closed-loop caller driving its own BoL."""
    check = client.check
    recorded: dict[str, list[str]] = {cid: [] for cid in components}
    mix = ["observe"] * writes + ["trace", "bol", "trace", "bol", "report", "healthz"] * (reads // 6)
    mix += ["healthz"] * (reads % 6)
    rng.shuffle(mix)
    for kind in mix:
        cid = rng.choice(components)
        if kind == "observe":
            text = payload(rng)
            doc, elapsed = client.request("POST", f"/bols/{bol_id}/observations",
                                          {"component_id": cid, "payload": text})
            rnd_writes.append(elapsed)
            if doc is not None:
                check.expect(
                    doc.get("observation_index") == len(recorded[cid])
                    and doc.get("component_id") == cid
                    and doc.get("observation", {}).get("payload") == text,
                    f"POST observation {cid}: index {doc.get('observation_index')}, "
                    f"expected {len(recorded[cid])}")
                recorded[cid].append(text)
            continue
        path = {
            "trace": f"/components/{cid}/trace",
            "bol": f"/bols/{bol_id}",
            "report": f"/bols/{bol_id}/report",
            "healthz": "/healthz",
        }[kind]
        doc, elapsed = client.request("GET", path)
        rnd_reads.append(elapsed)
        if doc is None:
            continue
        if kind == "trace":
            check.expect(oracle.graph_matches(doc, edges, cid, backward=True),
                         f"GET trace {cid}: answer differs from the manifest's reachability")
        elif kind == "bol":
            got = {c: [o["payload"] for o in item["observations"]]
                   for c, item in doc.get("shadow_items", {}).items()}
            check.expect(got == recorded, f"GET bol {bol_id}: observations differ")
        elif kind == "report":
            got = {c: len(obs) for c, obs in doc.get("dynamic", {}).items()}
            check.expect(got == {c: len(h) for c, h in recorded.items()},
                         f"GET report {bol_id}: observation counts differ")
        else:
            check.expect(doc == {"status": "ok"}, f"GET /healthz: {doc}")
    return recorded


def _http_audit(client: Client, rng: Random, bol_id: str, recorded: dict, proofs: int) -> None:
    check = client.check
    doc, _ = client.request("POST", f"/bols/{bol_id}/seal", {})
    if doc is None:
        return
    anchor = doc["anchor"]
    leaves = oracle.observation_leaves(recorded)
    check.expect(anchor["leaf_count"] == 1 + len(leaves),
                 f"seal {bol_id}: {anchor['leaf_count']} leaves, expected {1 + len(leaves)}")
    report, _ = client.request("GET", f"/bols/{bol_id}/report")
    if report is not None:
        check.expect(report.get("anchor") == anchor, f"report {bol_id}: anchor differs")
    for leaf_index in rng.sample(range(1 + len(leaves)), min(proofs, 1 + len(leaves))):
        proof, _ = client.request("GET", f"/bols/{bol_id}/proofs/{leaf_index}")
        if proof is None:
            continue
        leaf = base64.b64decode(proof["leaf_b64"])
        check.expect(
            proof["merkle_root"] == anchor["merkle_root"]
            and oracle.proof_verifies(leaf, proof["proof"]["siblings"], anchor["merkle_root"]),
            f"proof {bol_id}[{leaf_index}] does not verify against the anchor root")
        if leaf_index:
            cid, index, text = leaves[leaf_index - 1]
            check.expect(oracle.leaf_matches(leaf, bol_id, cid, index, text),
                         f"proof {bol_id}[{leaf_index}]: leaf is not the observation")
        verdict, _ = client.request("POST", "/ledger/verify-inclusion", proof)
        check.expect(verdict == {"included": True},
                     f"verify-inclusion {bol_id}[{leaf_index}]: {verdict}")


def http_mixed(ctx: Context, sizes: HttpSizes) -> Round:
    check, rng, rnd = ctx.check, ctx.rng("http_mixed"), Round()
    manifest, metadata, name_edges = run_manifest(rng, f"h{ctx.index}")
    data = program.new_data_dir("http_mixed")
    spans = None
    if ctx.spans_prefix is not None:
        spans = ctx.spans_prefix.with_name(f"{ctx.spans_prefix.name}-server-r{ctx.index}.jsonl")
    server = None
    clients: list[Client] = []
    try:
        start = time.perf_counter()
        server = ServerProcess(data, check, spans)
        if not server.wait_ready():
            raise RuntimeError("bomtrace-server did not start:\n" + server.log_tail())
        # the second caller runs on its own thread, so it keeps its own tally
        second_check = oracle.Checker()
        clients = [Client(server.port, check), Client(server.port, second_check)]
        doc, _ = clients[0].request("POST", "/boms", manifest)
        if doc is None:
            raise RuntimeError(f"POST /boms failed: {check.messages[-1:]}")
        ids = ids_by_name(doc["bom"])
        bols = []
        for client in clients:
            made, _ = client.request("POST", f"/boms/{doc['bom']['id']}/bols", {})
            if made is None:
                raise RuntimeError(f"POST bols failed: {check.messages[-1:]}")
            bols.append(made["bol"])
        rnd.setup_s.append(time.perf_counter() - start)

        edges = {(ids[s], ids[d]) for s, d in name_edges}
        components = sorted(bols[0]["shadow_items"])
        check.expect(set(components) == {ids[n] for n in metadata},
                     "instantiate_bol: shadow items differ from the manifest")
        rngs = [Random(f"http_mixed/{ctx.seed}/{ctx.index}/{i}") for i in range(2)]
        results: list[Any] = [None, None]
        reads: list[list[float]] = [[], []]
        writes: list[list[float]] = [[], []]

        def caller(i: int) -> None:
            results[i] = _drive(clients[i], rngs[i], bols[i]["id"], components, edges,
                                sizes.writes_per_connection, sizes.reads_per_connection,
                                writes[i], reads[i])

        with rnd.timed_phase(data):
            second = threading.Thread(target=caller, args=(1,))
            second.start()
            try:
                caller(0)
            finally:
                second.join()
                check.merge(second_check)
        rnd.reads = reads[0] + reads[1]
        rnd.writes = writes[0] + writes[1]
        if results[1] is None:
            raise RuntimeError("second caller did not finish")

        start = time.perf_counter()
        for bol, recorded in zip(bols, results):
            _http_audit(clients[0], rng, bol["id"], recorded, sizes.proofs_per_bol)
        verdict, _ = clients[0].request("GET", "/ledger/verify")
        check.expect(verdict == {"ok": True}, f"GET /ledger/verify: {verdict}")
        export, _ = clients[0].request("GET", "/ledger/export", ndjson=True)
        rnd.audit_s.append(time.perf_counter() - start)

        observations = sum(len(h) for recorded in results for h in recorded.values())
        count = 2 * len(bols) + observations
        check.expect(export is not None and export.count(b"\n") == count,
                     f"GET /ledger/export: expected {count} entries")
        for client in clients + [server.probe]:
            rnd.client_rt_ns += client.rt_ns
            rnd.client_requests += client.requests
            client.close()
        clients = []
        report = server.stop()
        check.expect(report.get("exit") == 0,
                     f"bomtrace-server report {report}, return code {server.proc.returncode}, "
                     f"log: {server.log_tail()[-500:]!r}")
        rnd.server_rss_kb = report.get("peak_rss_kb", 0)
        rnd.server_summary = report.get("summary")

        for _ in range(sizes.reopens):
            _reopen(ctx, data, rnd, export, count).close()
        _cli_verify(ctx, data)
    finally:
        for client in clients:
            client.close()
        if server is not None:
            server.stop()
            server.cleanup()
        program.remove_dir(data)
    return rnd


ROUNDS: dict[str, Callable[[Context, Any], Round]] = {
    "run_lifecycle": run_lifecycle,
    "shared_graph": shared_graph,
    "http_mixed": http_mixed,
}
