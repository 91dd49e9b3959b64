"""Brute-force reachability oracle and random ecosystem generator.

The oracle computes the full transitive closure by repeated edge relaxation,
independent of the BFS the library uses, so trace/track results can be
checked against it node by node.
"""

from __future__ import annotations

import random

from bomtrace.canonical import from_canonical
from bomtrace.gateway import Gateway
from bomtrace.model import Bom
from bomtrace.store import KIND_BOM


def transitive_closure(nodes: set[str], edges: set[tuple[str, str]]) -> dict[str, set[str]]:
    reach: dict[str, set[str]] = {n: set() for n in nodes}
    for src, dst in edges:
        reach[src].add(dst)
    changed = True
    while changed:
        changed = False
        for node in nodes:
            extra = set()
            for mid in reach[node]:
                extra |= reach[mid]
            if not extra <= reach[node]:
                reach[node] |= extra
                changed = True
    return reach


def oracle_trace(reach: dict[str, set[str]], origin: str) -> set[str]:
    return {origin} | {n for n, targets in reach.items() if origin in targets}


def oracle_track(reach: dict[str, set[str]], origin: str) -> set[str]:
    return {origin} | reach[origin]


def induced_edges(edges: set[tuple[str, str]], nodes: set[str]) -> set[tuple[str, str]]:
    return {(src, dst) for src, dst in edges if src in nodes and dst in nodes}


def has_cycle(reach: dict[str, set[str]]) -> bool:
    return any(node in targets for node, targets in reach.items())


def stored_boms(gateway: Gateway) -> list[Bom]:
    """Every BoM, decoded from its stored record, in id order."""
    return [Bom.from_dict(from_canonical(record.data)) for record in gateway.store.scan(KIND_BOM)]


def global_graph(
    gateway: Gateway, boms: list[Bom] | None = None
) -> tuple[set[str], set[tuple[str, str]]]:
    """Nodes and edges of the stored ecosystem (or of ``boms``), read back independently."""
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for bom in stored_boms(gateway) if boms is None else boms:
        for aid in bom.assemblies:
            assembly = gateway.get_assembly(aid)
            nodes.add(aid)
            for cid in assembly.inputs:
                nodes.add(cid)
                edges.add((cid, aid))
            for cid in assembly.outputs:
                nodes.add(cid)
                edges.add((aid, cid))
    return nodes, edges


def random_ecosystem(
    gateway: Gateway,
    rng: random.Random,
    max_components: int = 40,
    max_assemblies: int = 15,
    max_boms: int = 4,
) -> dict:
    """Build a valid multi-BoM ecosystem through the public API.

    Outputs are always freshly created components, so single-producer and
    acyclicity hold by construction; inputs draw on the whole existing pool,
    which stitches BoMs together through shared components.
    """
    data_pool: list[str] = []
    artifact_pool: list[str] = []
    counter = 0

    def new_component(kind: str) -> str:
        nonlocal counter
        counter += 1
        record = gateway.create_component(kind, f"{kind} {counter}")
        pool = data_pool if kind == "data_source" else artifact_pool
        pool.append(record.id)
        return record.id

    for _ in range(rng.randint(1, 4)):
        new_component("data_source")
    for _ in range(rng.randint(0, 2)):
        new_component("artifact")

    n_assemblies = rng.randint(1, max_assemblies)
    assembly_ids: list[str] = []
    for i in range(n_assemblies):
        total = len(data_pool) + len(artifact_pool)
        budget = max_components - total
        if budget <= 0:
            break
        input_data = rng.sample(data_pool, min(len(data_pool), rng.randint(1, 3)))
        input_artifacts = rng.sample(
            artifact_pool, min(len(artifact_pool), rng.randint(0, 2))
        )
        n_out = min(budget, rng.randint(1, 2))
        output_data, output_artifacts = [], []
        for _ in range(n_out):
            if rng.random() < 0.7:
                output_data.append(new_component("data_source"))
            else:
                output_artifacts.append(new_component("artifact"))
        assembly = gateway.create_assembly(
            f"assembly {i}",
            input_data=input_data,
            input_artifacts=input_artifacts,
            output_data=output_data,
            output_artifacts=output_artifacts,
        )
        assembly_ids.append(assembly.id)

    n_boms = min(rng.randint(1, max_boms), len(assembly_ids))
    chunks: list[list[str]] = [[] for _ in range(n_boms)]
    for idx, aid in enumerate(assembly_ids):
        chunks[idx % n_boms].append(aid)
    bom_ids = [
        gateway.create_bom(f"bom {i}", None, chunk).id
        for i, chunk in enumerate(chunks)
        if chunk
    ]
    return {
        "components": data_pool + artifact_pool,
        "assemblies": assembly_ids,
        "boms": bom_ids,
    }
