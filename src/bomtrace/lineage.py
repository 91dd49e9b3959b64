"""Lineage queries over the component/assembly graph.

Edges run input component -> assembly -> output component, for every
assembly belonging to a stored BoM. Components shared between BoMs stitch
their subgraphs together, so a global query crosses experiment boundaries.
Tracing walks edges backwards to origins (where-from); tracking walks
forwards to consumers (where-used). The caller holds the graph: ``closure``
asks it for each reached node's neighbours, and ``component_uses`` gets a
component's use sites, so a query costs what it reaches, not the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .ledger import Anchor
from .model import ROLES, Assembly, Bom, ComponentRecord, graph_edges
from .runtime import Observation

GLOBAL_SCOPE = "global"


@dataclass(frozen=True)
class LineageGraph:
    origin: str
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def to_dict(self) -> dict[str, Any]:
        return {
            "origin": self.origin,
            "nodes": sorted(self.nodes),
            "edges": sorted([src, dst] for src, dst in self.edges),
        }


@dataclass(frozen=True)
class UseSite:
    bom_id: str
    assembly_id: str
    role: str  # "input" | "output"

    def to_dict(self) -> dict[str, str]:
        return {"bom_id": self.bom_id, "assembly_id": self.assembly_id, "role": self.role}


@dataclass(frozen=True)
class ComponentUses:
    static: tuple[UseSite, ...]
    dynamic: tuple[str, ...]  # BoL ids

    def to_dict(self) -> dict[str, Any]:
        return {
            "static": [site.to_dict() for site in self.static],
            "dynamic": list(self.dynamic),
        }


@dataclass(frozen=True)
class LineageReport:
    bol_id: str
    static_graph: LineageGraph
    dynamic: dict[str, tuple[Observation, ...]]
    anchor: Anchor | None
    bom_snapshot: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        dynamic = {
            cid: [obs.to_dict() for obs in observations]
            for cid, observations in self.dynamic.items()
        }
        return self.document(
            self.bol_id, self.static_graph.to_dict(), dynamic, self.anchor, self.bom_snapshot
        )

    @staticmethod
    def document(
        bol_id: str, static_graph: Any, dynamic: Any, anchor: Anchor | None, bom_snapshot: Any
    ) -> dict[str, Any]:
        """A report's document, around its rendered graph, observations and snapshot."""
        doc: dict[str, Any] = {
            "bol_id": bol_id,
            "static_graph": static_graph,
            "dynamic": dynamic,
            "bom_snapshot": bom_snapshot,
        }
        if anchor is not None:
            doc["anchor"] = anchor.to_dict()
        return doc


def closure(origin: str, neighbors: Callable[[str], Iterable[str]], backward: bool) -> LineageGraph:
    """Origin plus everything reachable from it through ``neighbors``.

    ``neighbors(node)`` yields the nodes one edge away, against the edges if
    ``backward``. The edges between reached nodes are exactly those the walk
    crosses: it crosses every edge into (or out of) each node it reaches.
    """
    reached = {origin}
    crossed = set()
    frontier = [origin]
    while frontier:
        node = frontier.pop()
        for nxt in neighbors(node):
            crossed.add((nxt, node) if backward else (node, nxt))
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return LineageGraph(origin=origin, nodes=frozenset(reached), edges=frozenset(crossed))


def component_uses(
    sites: Iterable[UseSite], bols_by_bom: Mapping[str, Iterable[str]]
) -> ComponentUses:
    """A component's static use sites, sorted, and the runs (BoLs) of their BoMs."""
    sites = sorted(sites, key=lambda s: (s.bom_id, s.assembly_id, s.role))
    bom_ids = {site.bom_id for site in sites}
    bol_ids = {bol_id for bom_id in bom_ids for bol_id in bols_by_bom.get(bom_id, ())}
    return ComponentUses(static=tuple(sites), dynamic=tuple(sorted(bol_ids)))


# -- nested detail views -------------------------------------------------


def assembly_detail(
    assembly: Assembly, components: Mapping[str, ComponentRecord]
) -> dict[str, Any]:
    """Assembly with its component records expanded inline."""
    doc = assembly.to_dict()
    for key, _, _ in ROLES:
        doc[key] = [components[cid].to_dict() for cid in doc[key]]
    return doc


def bom_detail(
    bom: Bom,
    assemblies_by_id: Mapping[str, Assembly],
    components: Mapping[str, ComponentRecord],
) -> dict[str, Any]:
    """BoM with assemblies and component records expanded inline."""
    doc = bom.to_dict()
    doc["assemblies"] = [
        assembly_detail(assemblies_by_id[aid], components) for aid in bom.assemblies
    ]
    return doc


def bom_static_graph(bom: Bom, assemblies: Iterable[Assembly]) -> LineageGraph:
    """Full graph of one BoM, with the BoM id itself as the origin node."""
    assemblies = list(assemblies)
    edges = graph_edges(assemblies)
    nodes = {bom.id}
    for assembly in assemblies:
        nodes.add(assembly.id)
        nodes.update(assembly.components)
    return LineageGraph(origin=bom.id, nodes=frozenset(nodes), edges=frozenset(edges))
