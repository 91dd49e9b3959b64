import random

import pytest

from bomtrace.errors import (
    BomFrozen,
    DanglingRef,
    DuplicateMembership,
    DuplicateMetadataKey,
    EmptyName,
    InputOutputOverlap,
    KindMismatch,
    UnknownBom,
    ValidationFailed,
)
from bomtrace.model import (
    Assembly,
    ComponentKind,
    ComponentRecord,
    Violation,
    validate_structure,
)
from conftest import build_hpc, build_two_stage_chain
from graphutil import global_graph, has_cycle, random_ecosystem, stored_boms, transitive_closure


# -- components ----------------------------------------------------------


def test_create_component_case_study_fields(gw):
    record = gw.create_component(
        "data_source",
        "Traffic Scene",
        access_metadata={"dataAccess": "https://xyz.com/00001.06514.jpg"},
    )
    assert record.kind is ComponentKind.DATA_SOURCE
    assert record.name == "Traffic Scene"
    assert record.access_metadata == {"dataAccess": "https://xyz.com/00001.06514.jpg"}
    assert gw.get_component(record.id) == record


def test_create_artifact_empty_metadata(gw):
    record = gw.create_component("artifact", "Congestion Model")
    assert record.kind is ComponentKind.ARTIFACT
    assert record.access_metadata == {}
    assert record.id.startswith("af_")


def test_component_id_prefix_tracks_kind(gw):
    assert gw.create_component("data_source", "d").id.startswith("ds_")
    assert gw.create_component("artifact", "a").id.startswith("af_")


def test_empty_name_rejected(gw):
    with pytest.raises(EmptyName):
        gw.create_component("data_source", "")


def test_duplicate_metadata_key_rejected(gw):
    with pytest.raises(DuplicateMetadataKey):
        gw.create_component(
            "data_source", "x", access_metadata=[("k", "1"), ("k", "2")]
        )
    # one key in two Unicode spellings is one key once stored as NFC
    with pytest.raises(DuplicateMetadataKey):
        gw.create_component(
            "data_source", "y", access_metadata={"caf\u00e9": "1", "cafe\u0301": "2"}
        )


def test_metadata_values_stored_byte_exact(gw):
    # NFC-stable strings survive byte-for-byte, control characters included
    weird = "café " + chr(0) + "\t\\n %20"
    record = gw.create_component("data_source", "x", access_metadata={"k": weird})
    assert record.access_metadata["k"] == weird
    assert gw.get_component(record.id).access_metadata["k"] == weird


def test_created_record_equals_stored_record(gw):
    # non-NFC input is normalized on ingest; caller always holds the stored form
    decomposed = "cafe" + chr(0x301)
    record = gw.create_component("data_source", decomposed)
    assert record == gw.get_component(record.id)
    assert record.name == "café"


# -- assemblies ----------------------------------------------------------


def test_create_assembly_case_study_structure(gw):
    parts = build_hpc(gw)
    assembly = gw.get_assembly(parts["assembly"])
    assert assembly.name == "Traffic Scene Analysis"
    assert assembly.input_data == (parts["scene"],)
    assert assembly.input_artifacts == (parts["model"],)
    assert assembly.output_data == (parts["result"],)
    assert assembly.output_artifacts == ()


def test_input_output_overlap_rejected(gw):
    x = gw.create_component("data_source", "X")
    with pytest.raises(InputOutputOverlap):
        gw.create_assembly("self loop", input_data=[x.id], output_data=[x.id])


def test_kind_mismatch_rejected(gw):
    ds = gw.create_component("data_source", "d")
    with pytest.raises(KindMismatch):
        gw.create_assembly("bad", input_artifacts=[ds.id])


def test_dangling_component_rejected(gw):
    with pytest.raises(DanglingRef):
        gw.create_assembly("bad", input_data=["ds_" + "0" * 32])


def test_duplicate_component_in_list_rejected(gw):
    d = gw.create_component("data_source", "d")
    with pytest.raises(DuplicateMembership):
        gw.create_assembly("dup", input_data=[d.id, d.id])


# Each role list of an assembly, with the one component kind it may hold.
# Written out here, not read from the model, so the tests check the rule.
ROLE_CASES = [
    ("inputData", "input_data", "data_source"),
    ("inputArtifacts", "input_artifacts", "artifact"),
    ("outputData", "output_data", "data_source"),
    ("outputArtifacts", "output_artifacts", "artifact"),
]
OTHER_KIND = {"data_source": "artifact", "artifact": "data_source"}
ID_PREFIX = {"data_source": "ds_", "artifact": "af_"}


@pytest.mark.parametrize("role, attribute, kind", ROLE_CASES)
def test_role_refuses_a_member_of_the_other_kind(gw, role, attribute, kind):
    wrong = gw.create_component(OTHER_KIND[kind], "wrong")
    with pytest.raises(KindMismatch) as caught:
        gw.create_assembly("bad", **{attribute: [wrong.id]})
    assert caught.value.code == "KIND_MISMATCH"
    assert caught.value.message == (
        f"{role} expects kind {kind}, but {wrong.id} is {OTHER_KIND[kind]}"
    )


@pytest.mark.parametrize("role, attribute, kind", ROLE_CASES)
def test_role_refuses_an_unknown_member(gw, role, attribute, kind):
    unknown = ID_PREFIX[kind] + "0" * 32
    with pytest.raises(DanglingRef) as caught:
        gw.create_assembly("bad", **{attribute: [unknown]})
    assert caught.value.code == "DANGLING_REF"
    assert caught.value.message == f"{role} references unknown component {unknown}"


@pytest.mark.parametrize("role, attribute, kind", ROLE_CASES)
def test_validation_reports_each_role_member(role, attribute, kind):
    wrong = ComponentRecord(ID_PREFIX[kind] + "1" * 32, ComponentKind(OTHER_KIND[kind]), "w")
    missing = ID_PREFIX[kind] + "2" * 32
    members = {a: () for _, a, _ in ROLE_CASES}
    assembly = Assembly(
        "as_" + "3" * 32, "a", None, **{**members, attribute: (wrong.id, missing)}
    )
    report = validate_structure(
        [assembly.id], None, {assembly.id: assembly}.get, [], {wrong.id: wrong}.get
    )
    assert set(report.violations) == {
        Violation(
            "kind_mismatch", wrong.id, f"{role} of {assembly.id} expects {kind}"
        ),
        Violation(
            "dangling_ref", missing,
            f"{role} of {assembly.id} references a missing component",
        ),
    }


@pytest.mark.parametrize("description", [None, "d"])
def test_assembly_round_trips_every_role(description):
    members = {
        attribute: (f"{ID_PREFIX[kind]}{i:032x}", f"{ID_PREFIX[kind]}{i + 4:032x}")
        for i, (_, attribute, kind) in enumerate(ROLE_CASES)
    }
    assembly = Assembly("as_" + "3" * 32, "a", description, **members)
    doc = assembly.to_dict()
    roles = [role for role, _, _ in ROLE_CASES]
    assert [key for key in doc if key in roles] == roles
    assert Assembly.from_dict(doc) == assembly


def test_assembly_lists_may_be_one_shot_iterables(gw):
    d = gw.create_component("data_source", "d")
    a = gw.create_component("artifact", "a")
    assembly = gw.create_assembly("once", input_data=iter([d.id]),
                                  output_artifacts=(cid for cid in [a.id]))
    assert assembly.input_data == (d.id,)  # checked and stored, not consumed by the check
    assert assembly.output_artifacts == (a.id,)


def test_assembly_preserves_list_order(gw):
    names = [gw.create_component("data_source", f"d{i}").id for i in range(4)]
    assembly = gw.create_assembly("ordered", input_data=[names[2], names[0], names[3]])
    assert assembly.input_data == (names[2], names[0], names[3])
    assert gw.get_assembly(assembly.id).input_data == assembly.input_data


# -- BoMs ------------------------------------------------------------------


def test_create_bom_case_study(gw):
    parts = build_hpc(gw)
    bom = gw.get_bom(parts["bom"])
    assert bom.name == "HPC Congestion"
    assert bom.assemblies == (parts["assembly"],)
    assert bom.frozen is False


def test_empty_bom_is_valid(gw):
    bom = gw.create_bom("Empty", None, [])
    assert bom.assemblies == ()
    assert gw.validate_bom(bom_id=bom.id).ok


def test_multiple_producers_rejected(gw):
    shared = gw.create_component("data_source", "Y")
    src = gw.create_component("data_source", "src")
    a = gw.create_assembly("A", input_data=[src.id], output_data=[shared.id])
    b = gw.create_assembly("B", input_data=[src.id], output_data=[shared.id])
    with pytest.raises(ValidationFailed) as exc:
        gw.create_bom("conflict", None, [a.id, b.id])
    codes = [v["code"] for v in exc.value.detail["report"]["violations"]]
    assert "multiple_producers" in codes


def test_multiple_producers_across_boms_rejected(gw):
    shared = gw.create_component("data_source", "Y")
    src = gw.create_component("data_source", "src")
    a = gw.create_assembly("A", input_data=[src.id], output_data=[shared.id])
    b = gw.create_assembly("B", input_data=[src.id], output_data=[shared.id])
    gw.create_bom("first", None, [a.id])
    with pytest.raises(ValidationFailed):
        gw.create_bom("second", None, [b.id])


def test_two_cycle_rejected(gw):
    p = gw.create_component("data_source", "P")
    q = gw.create_component("data_source", "Q")
    a = gw.create_assembly("A", input_data=[p.id], output_data=[q.id])
    b = gw.create_assembly("B", input_data=[q.id], output_data=[p.id])
    with pytest.raises(ValidationFailed) as exc:
        gw.create_bom("cyclic", None, [a.id, b.id])
    codes = [v["code"] for v in exc.value.detail["report"]["violations"]]
    assert "cycle" in codes


def test_cross_bom_cycle_rejected(gw):
    p = gw.create_component("data_source", "P")
    q = gw.create_component("data_source", "Q")
    a = gw.create_assembly("A", input_data=[p.id], output_data=[q.id])
    gw.create_bom("forward", None, [a.id])
    b = gw.create_assembly("B", input_data=[q.id], output_data=[p.id])
    with pytest.raises(ValidationFailed) as exc:
        gw.create_bom("backward", None, [b.id])
    codes = [v["code"] for v in exc.value.detail["report"]["violations"]]
    assert "cycle" in codes


def test_chained_assemblies_validate(gw):
    parts = build_two_stage_chain(gw)
    report = gw.validate_bom(bom_id=parts["bom"])
    assert report.ok
    assert report.violations == ()


def test_assembly_owned_by_one_bom(gw):
    d = gw.create_component("data_source", "d")
    a = gw.create_assembly("A", input_data=[d.id])
    gw.create_bom("owner", None, [a.id])
    with pytest.raises(ValidationFailed) as exc:
        gw.create_bom("thief", None, [a.id])
    codes = [v["code"] for v in exc.value.detail["report"]["violations"]]
    assert "duplicate_membership" in codes


def test_assembly_twice_in_one_bom_rejected(gw):
    d = gw.create_component("data_source", "d")
    a = gw.create_assembly("A", input_data=[d.id])
    with pytest.raises(ValidationFailed):
        gw.create_bom("double", None, [a.id, a.id])


def test_dangling_assembly_rejected(gw):
    with pytest.raises(DanglingRef):
        gw.create_bom("bad", None, ["as_" + "0" * 32])


def test_validate_unknown_bom(gw):
    with pytest.raises(UnknownBom):
        gw.validate_bom(bom_id="bom_" + "0" * 32)


def test_validate_is_deterministic_and_pure(gw):
    parts = build_two_stage_chain(gw)
    before = gw.store.transaction_count
    first = gw.validate_bom(bom_id=parts["bom"])
    second = gw.validate_bom(bom_id=parts["bom"])
    assert first == second
    assert gw.store.transaction_count == before


def test_random_dags_validate_clean_against_cycle_oracle(gw):
    rng = random.Random(1234)
    for _ in range(8):
        random_ecosystem(gw, rng, max_components=30, max_assemblies=8, max_boms=2)
    nodes, edges = global_graph(gw)
    assert len(nodes) >= 10
    reach = transitive_closure(nodes, edges)
    assert not has_cycle(reach)
    for bom in stored_boms(gw):
        assert gw.validate_bom(bom_id=bom.id).ok


def test_cycle_verdict_matches_oracle_on_arbitrary_candidates(tmp_path):
    """Random candidate BoMs, cyclic or not: validator agrees with the oracle."""
    from bomtrace.gateway import Gateway

    rng = random.Random(321)
    saw_cyclic = saw_clean = 0
    for case in range(40):
        gateway = Gateway(tmp_path / f"c{case}", deterministic_ids=True, clock=lambda: 1)
        try:
            comps = [
                gateway.create_component("data_source", f"c{i}").id
                for i in range(rng.randint(3, 25))
            ]
            assembly_ids = []
            edges = set()
            for a in range(rng.randint(1, 15)):
                shuffled = rng.sample(comps, len(comps))
                n_in = rng.randint(1, min(3, len(comps) - 1))
                n_out = rng.randint(1, min(2, len(comps) - n_in))
                inputs, outputs = shuffled[:n_in], shuffled[n_in:n_in + n_out]
                assembly = gateway.create_assembly(
                    f"a{a}", input_data=inputs, output_data=outputs
                )
                assembly_ids.append(assembly.id)
                edges |= {(c, assembly.id) for c in inputs}
                edges |= {(assembly.id, c) for c in outputs}
            nodes = {n for e in edges for n in e}
            oracle_cyclic = has_cycle(transitive_closure(nodes, edges))
            try:
                gateway.create_bom("candidate", None, assembly_ids)
                reported = set()
            except ValidationFailed as exc:
                reported = {v["code"] for v in exc.detail["report"]["violations"]}
            assert ("cycle" in reported) == oracle_cyclic, case
            saw_cyclic += oracle_cyclic
            saw_clean += not oracle_cyclic
        finally:
            gateway.close()
    assert saw_cyclic > 0 and saw_clean > 0  # the cases exercised both verdicts


# -- update & freeze --------------------------------------------------------


def test_update_unfrozen_bom(gw):
    parts = build_hpc(gw)
    updated = gw.update_bom(parts["bom"], name="HPC v2", description="still Hyde Park")
    assert updated.name == "HPC v2"
    assert gw.get_bom(parts["bom"]).description == "still Hyde Park"


def test_update_assembly_list_revalidates(gw):
    parts = build_hpc(gw)
    p = gw.create_component("data_source", "P")
    a = gw.create_assembly("extra", input_data=[p.id])
    bom = gw.update_bom(parts["bom"], assembly_ids=[parts["assembly"], a.id])
    assert bom.assemblies == (parts["assembly"], a.id)
    dup = gw.create_assembly(
        "dup producer", input_data=[p.id], output_data=[parts["result"]]
    )
    with pytest.raises(ValidationFailed):
        gw.update_bom(parts["bom"], assembly_ids=[parts["assembly"], dup.id])


def test_frozen_bom_rejects_all_edits(gw):
    parts = build_hpc(gw)
    gw.instantiate_bol(parts["bom"])
    bom = gw.get_bom(parts["bom"])
    assert bom.frozen is True
    for kwargs in (
        {"name": "nope"},
        {"description": "nope"},
        {"assembly_ids": []},
    ):
        with pytest.raises(BomFrozen):
            gw.update_bom(parts["bom"], **kwargs)
    assert gw.get_bom(parts["bom"]) == bom
