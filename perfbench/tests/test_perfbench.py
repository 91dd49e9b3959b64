"""Tests of the benchmark itself, at toy sizes.

Run with ``python3 -m pytest perfbench/tests`` from the repository root. Each
run happens in a child process, because a traced run rewires the imported
``bomtrace`` modules for the rest of its process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = """
import sys
sys.path.insert(0, {root!r})
from perfbench import run, workloads as w
TOY = {{
    "run_lifecycle": w.LifecycleSizes(bols=2, ops_per_bol=40, proofs_per_bol=4, reopens=1,
                                      setups=2, min_rounds=1),
    "shared_graph": w.SharedGraphSizes(boms=20, links=6, reads=30, audit_boms=3, segments=2,
                                       min_rounds=1),
    "http_mixed": w.HttpSizes(writes_per_connection=6, reads_per_connection=6,
                              proofs_per_bol=2, reopens=1, min_rounds=1),
}}
{inject}
sys.exit(run.main(["--workload", {workload!r}, "--seed", "3", "--seconds", "0",
                   "--trace", {trace!r}], sizes=TOY[{workload!r}]))
"""

WRONG_TRACE = """
from perfbench import program
program.load_bomtrace()
from bomtrace import gateway, lineage
real_trace = gateway.Gateway.trace
def wrong_trace(self, node_id, scope="global"):
    graph = real_trace(self, node_id, scope)
    extra = "as_" + "f" * 32
    return lineage.LineageGraph(graph.origin, graph.nodes | {extra}, graph.edges)
gateway.Gateway.trace = wrong_trace
"""

FLIPPED_PROOF = """
from perfbench import program
program.load_bomtrace()
from bomtrace import gateway, ledger
real_proof = gateway.Gateway.inclusion_proof
def flipped_proof(self, bol_id, leaf_index):
    leaf, proof = real_proof(self, bol_id, leaf_index)
    (digest, side), *rest = proof.siblings
    digest = ("0" if digest[0] != "0" else "1") + digest[1:]
    return leaf, ledger.InclusionProof(proof.leaf_index, ((digest, side), *rest))
gateway.Gateway.inclusion_proof = flipped_proof
"""


def _run(workload: str, trace: int, inject: str = ""):
    code = TOY.format(root=str(ROOT), workload=workload, trace=str(trace), inject=inject)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.mark.parametrize("workload", ["run_lifecycle", "shared_graph", "http_mixed"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_the_benchmark_metrics(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate" in proc.stdout
    if trace:
        assert "tracing overhead (traced minus untraced)" in proc.stdout


def test_oracle_rejects_a_wrong_trace_answer():
    proc, result = _run("shared_graph", 0, WRONG_TRACE)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "trace" in proc.stderr and "reachability" in proc.stderr


def test_oracle_rejects_a_flipped_proof_byte():
    proc, result = _run("run_lifecycle", 0, FLIPPED_PROOF)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "does not verify against the anchor root" in proc.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "shared_graph", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_samples_are_corrected_by_the_probes_of_their_stretch():
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    ref = workloads.PROBE_REFERENCE_S
    rnd = workloads.Round()
    rnd.writes.append(1.0)
    rnd.probe_s.append(ref)  # host at the reference speed
    rnd.end_stretch()
    rnd.writes += [1.0, 3.0]
    rnd.probe_s += [2 * ref, 2 * ref]  # host twice as slow
    assert rnd.corrected("writes") == [1.0, 0.5, 1.5]
    assert rnd.time_scale == ref / (2 * ref)
