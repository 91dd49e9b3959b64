import random

import pytest

from bomtrace import lineage
from bomtrace.canonical import canonical_bytes
from bomtrace.errors import NotInScope, UnknownBol, UnknownId
from bomtrace.gateway import Gateway
from conftest import FIXED_NOW, build_hpc, build_two_stage_chain
from graphutil import (
    global_graph,
    has_cycle,
    induced_edges,
    oracle_trace,
    oracle_track,
    random_ecosystem,
    transitive_closure,
)


def test_trace_final_artifact_covers_whole_chain(gw):
    parts = build_two_stage_chain(gw)
    graph = gw.trace(parts["art2p"])
    assert graph.nodes == {
        parts["art2p"], parts["a2"], parts["data1p"], parts["art2"],
        parts["a1"], parts["data1"], parts["art1"],
    }
    assert len(graph.nodes) == 7
    assert graph.origin == parts["art2p"]


def test_trace_raw_source_is_alone(gw):
    parts = build_two_stage_chain(gw)
    assert gw.trace(parts["data1"]).nodes == {parts["data1"]}


def test_track_intermediate_data(gw):
    parts = build_two_stage_chain(gw)
    graph = gw.track(parts["data1p"])
    assert graph.nodes == {parts["data1p"], parts["a2"], parts["art2p"]}
    assert len(graph.nodes) == 3


def test_track_sink_is_alone(gw):
    parts = build_two_stage_chain(gw)
    assert gw.track(parts["art2p"]).nodes == {parts["art2p"]}


def test_trace_unknown_id(gw):
    with pytest.raises(UnknownId):
        gw.trace("ds_" + "0" * 32)


def test_edges_are_induced_subgraph(gw):
    parts = build_two_stage_chain(gw)
    graph = gw.trace(parts["data1p"])
    for src, dst in graph.edges:
        assert src in graph.nodes and dst in graph.nodes
    assert (parts["data1"], parts["a1"]) in graph.edges
    assert (parts["a2"], parts["art2p"]) not in graph.edges


def test_assembly_can_be_traced(gw):
    parts = build_two_stage_chain(gw)
    graph = gw.trace(parts["a2"])
    assert parts["data1"] in graph.nodes
    assert parts["art2p"] not in graph.nodes


def test_bom_scope_restricts_edges(gw):
    chain = build_two_stage_chain(gw)
    downstream_asm = gw.create_assembly(
        "Downstream", input_artifacts=[chain["art2p"]],
        output_data=[gw.create_component("data_source", "Derived").id],
    )
    other_bom = gw.create_bom("Other", None, [downstream_asm.id])
    full = gw.track(chain["art2p"])
    assert len(full.nodes) == 3  # art2p -> downstream -> derived
    scoped = gw.track(chain["art2p"], scope=chain["bom"])
    assert scoped.nodes == {chain["art2p"]}
    scoped_other = gw.track(chain["art2p"], scope=other_bom.id)
    assert len(scoped_other.nodes) == 3


def test_not_in_scope_rejected(gw):
    chain = build_two_stage_chain(gw)
    hpc = build_hpc(gw)
    with pytest.raises(NotInScope):
        gw.trace(hpc["scene"], scope=chain["bom"])


def test_unattached_assembly_contributes_no_edges(gw):
    parts = build_hpc(gw)
    # an assembly not in any BoM consumes the result; tracking must not see it
    floating = gw.create_assembly("floating", input_data=[parts["result"]])
    graph = gw.track(parts["result"])
    assert floating.id not in graph.nodes


def test_random_graphs_match_reachability_oracle(gw):
    rng = random.Random(4242)
    for _ in range(6):
        random_ecosystem(gw, rng, max_components=30, max_assemblies=10, max_boms=3)
    nodes, edges = global_graph(gw)
    reach = transitive_closure(nodes, edges)
    assert not has_cycle(reach)
    for node in nodes:
        for graph, expected in ((gw.trace(node), oracle_trace(reach, node)),
                                (gw.track(node), oracle_track(reach, node))):
            assert graph.nodes == expected
            assert graph.edges == induced_edges(edges, expected)


def test_closure_of_cyclic_graphs_matches_reachability_oracle():
    """A stored BoM cannot hold a cycle, so the walk meets one only here."""
    rng = random.Random(9)
    for _ in range(200):
        nodes = [f"n{i}" for i in range(rng.randint(1, 10))]
        edges = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 25))}
        reach = transitive_closure(set(nodes), edges)
        forward, back = {}, {}
        for src, dst in edges:
            forward.setdefault(src, set()).add(dst)
            back.setdefault(dst, set()).add(src)
        for node in nodes:
            for backward, expected in ((True, oracle_trace(reach, node)),
                                       (False, oracle_track(reach, node))):
                adjacent = back if backward else forward
                graph = lineage.closure(node, lambda n: adjacent.get(n, ()), backward)
                assert graph.nodes == expected
                assert graph.edges == induced_edges(edges, expected)


def test_duality_and_reflexivity(gw):
    rng = random.Random(77)
    random_ecosystem(gw, rng, max_components=25, max_assemblies=8, max_boms=2)
    nodes, _ = global_graph(gw)
    trace_sets = {n: gw.trace(n).nodes for n in nodes}
    track_sets = {n: gw.track(n).nodes for n in nodes}
    for n in nodes:
        assert n in trace_sets[n] and n in track_sets[n]
    for a in nodes:
        for b in nodes:
            assert (a in trace_sets[b]) == (b in track_sets[a])


def test_adding_bom_never_shrinks_global_results(gw):
    chain = build_two_stage_chain(gw)
    nodes, _ = global_graph(gw)
    before = {n: gw.track(n).nodes for n in nodes}
    consumer = gw.create_assembly(
        "consumer", input_data=[chain["data1p"]],
        output_artifacts=[gw.create_component("artifact", "downstream model").id],
    )
    gw.create_bom("extension", None, [consumer.id])
    for n in nodes:
        assert before[n] <= gw.track(n).nodes


def test_results_are_acyclic(gw):
    rng = random.Random(13)
    random_ecosystem(gw, rng, max_components=20, max_assemblies=8, max_boms=2)
    nodes, _ = global_graph(gw)
    for node in list(nodes)[:10]:
        graph = gw.trace(node)
        reach = transitive_closure(set(graph.nodes), set(graph.edges))
        assert not has_cycle(reach)


# -- find_uses ----------------------------------------------------------------


def test_find_uses_after_three_runs(gw):
    parts = build_hpc(gw)
    bols = [gw.instantiate_bol(parts["bom"]) for _ in range(3)]
    uses = gw.find_uses(parts["scene"])
    assert len(uses.static) == 1
    site = uses.static[0]
    assert site.bom_id == parts["bom"]
    assert site.assembly_id == parts["assembly"]
    assert site.role == "input"
    assert set(uses.dynamic) == {b.id for b in bols}


def test_find_uses_unused_component(gw):
    lonely = gw.create_component("data_source", "lonely")
    uses = gw.find_uses(lonely.id)
    assert uses.static == ()
    assert uses.dynamic == ()


def test_find_uses_component_shared_by_two_boms(gw):
    shared = gw.create_component("artifact", "shared model")
    d1 = gw.create_component("data_source", "in1")
    d2 = gw.create_component("data_source", "in2")
    a1 = gw.create_assembly("A1", input_data=[d1.id], input_artifacts=[shared.id])
    a2 = gw.create_assembly("A2", input_data=[d2.id], input_artifacts=[shared.id])
    b1 = gw.create_bom("B1", None, [a1.id])
    b2 = gw.create_bom("B2", None, [a2.id])
    uses = gw.find_uses(shared.id)
    assert {(s.bom_id, s.assembly_id) for s in uses.static} == {
        (b1.id, a1.id), (b2.id, a2.id)
    }


def test_find_uses_output_role(gw):
    parts = build_hpc(gw)
    uses = gw.find_uses(parts["result"])
    assert [s.role for s in uses.static] == ["output"]


def test_find_uses_unknown_component(gw):
    with pytest.raises(UnknownId):
        gw.find_uses("af_" + "9" * 32)


def test_observation_payload_mentioning_component_not_a_use(gw):
    parts = build_hpc(gw)
    other = build_two_stage_chain(gw)
    bol = gw.instantiate_bol(other["bom"])
    gw.record_observation(bol.id, other["data1"], f"derived from {parts['scene']}")
    uses = gw.find_uses(parts["scene"])
    assert bol.id not in uses.dynamic


def test_find_uses_dynamic_matches_bol_shadow_items(gw):
    rng = random.Random(2024)
    eco = random_ecosystem(gw, rng, max_components=30, max_assemblies=10, max_boms=4)
    bols = []
    for bom_id in eco["boms"]:
        for _ in range(rng.randint(0, 2)):
            bol = gw.instantiate_bol(bom_id)
            bols.append(bol)
            cid = rng.choice(sorted(bol.shadow_items))
            # payloads that name other components are not uses of them
            gw.record_observation(bol.id, cid, " ".join(rng.sample(eco["components"], 3)))
    for cid in eco["components"]:
        expected = sorted(bol.id for bol in bols if cid in bol.shadow_items)
        assert list(gw.find_uses(cid).dynamic) == expected, cid


def test_find_uses_dynamic_unchanged_after_reopen(tmp_path):
    def open_gateway():
        return Gateway(tmp_path / "data", deterministic_ids=True, clock=lambda: FIXED_NOW)

    gateway = open_gateway()
    hpc = build_hpc(gateway)
    chain = build_two_stage_chain(gateway)
    hpc_bols = {gateway.instantiate_bol(hpc["bom"]).id for _ in range(2)}
    gateway.instantiate_bol(chain["bom"])
    targets = (hpc["scene"], hpc["result"], chain["data1p"], chain["art2p"])
    before = {cid: gateway.find_uses(cid).dynamic for cid in targets}
    gateway.close()
    assert set(before[hpc["scene"]]) == hpc_bols
    gateway = open_gateway()
    try:
        assert {cid: gateway.find_uses(cid).dynamic for cid in targets} == before
        late = gateway.instantiate_bol(chain["bom"])
        assert late.id in gateway.find_uses(chain["art2p"]).dynamic
    finally:
        gateway.close()


# -- lineage report -------------------------------------------------------------


def test_report_for_sealed_case_study_run(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "congestion_score=7")
    gw.seal_bol(bol.id)
    report = gw.lineage_report(bol.id)
    component_nodes = {n for n in report.static_graph.nodes if n.startswith(("ds_", "af_"))}
    assert component_nodes == {parts["scene"], parts["model"], parts["result"]}
    assert len(report.dynamic[parts["result"]]) == 1
    assert report.anchor is not None
    assert report.bom_snapshot["name"] == "HPC Congestion"
    assert set(report.dynamic) == component_nodes


def test_report_for_fresh_bol(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    report = gw.lineage_report(bol.id)
    assert all(obs == () for obs in report.dynamic.values())
    assert report.anchor is None


def test_report_serialization_deterministic(gw):
    parts = build_hpc(gw)
    bol = gw.instantiate_bol(parts["bom"])
    gw.record_observation(bol.id, parts["result"], "x")
    first = canonical_bytes(gw.lineage_report(bol.id).to_dict())
    second = canonical_bytes(gw.lineage_report(bol.id).to_dict())
    assert first == second


def test_report_unknown_bol(gw):
    with pytest.raises(UnknownBol):
        gw.lineage_report("bol_" + "0" * 32)


def test_report_static_graph_spans_full_bom(gw):
    parts = build_two_stage_chain(gw)
    bol = gw.instantiate_bol(parts["bom"])
    report = gw.lineage_report(bol.id)
    assert parts["bom"] in report.static_graph.nodes
    assert {parts["a1"], parts["a2"]} <= report.static_graph.nodes
    assert report.static_graph.origin == parts["bom"]
    assert set(report.dynamic) <= report.static_graph.nodes
