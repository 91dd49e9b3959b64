import copy

import pytest

from bomtrace.errors import DanglingRef, EmptyName, MalformedBody, ValidationFailed
from conftest import HPC_MANIFEST


def test_case_study_manifest_golden(gw):
    bom = gw.define_bom(copy.deepcopy(HPC_MANIFEST))
    detail = gw.bom_detail(bom.id)
    assert detail["name"] == "HPC Congestion"
    assert detail["description"] == "Determine congestion levels on Hyde Park Corner"
    assembly = detail["assemblies"][0]
    assert assembly["name"] == "Traffic Scene Analysis"
    assert assembly["description"] == "Determine congestion at Hyde Park Corner"
    scene = assembly["inputData"][0]
    assert scene["name"] == "Traffic Scene"
    assert scene["metadata"] == {"dataAccess": "https://xyz.com/00001.06514.jpg"}
    assert assembly["outputData"][0]["name"] == "Result"
    assert assembly["inputArtifacts"][0]["name"] == "Congestion Model"
    assert assembly["outputArtifacts"] == []


def test_kinds_inferred_from_lists(gw):
    bom = gw.define_bom(copy.deepcopy(HPC_MANIFEST))
    detail = gw.bom_detail(bom.id)
    assembly = detail["assemblies"][0]
    assert assembly["inputData"][0]["kind"] == "data_source"
    assert assembly["inputArtifacts"][0]["kind"] == "artifact"
    assert assembly["inputData"][0]["id"].startswith("ds_")
    assert assembly["inputArtifacts"][0]["id"].startswith("af_")


def test_name_references_share_components_across_assemblies(gw):
    manifest = {
        "name": "Two Stage",
        "assemblies": [
            {
                "name": "Labelling",
                "inputData": [{"name": "Raw"}],
                "inputArtifacts": [{"name": "Roster"}],
                "outputData": [{"name": "Labelled"}],
            },
            {
                "name": "Training",
                "inputData": ["Labelled"],
                "inputArtifacts": [{"name": "Parameters"}],
                "outputArtifacts": [{"name": "Model"}],
            },
        ],
    }
    bom = gw.define_bom(manifest)
    detail = gw.bom_detail(bom.id)
    produced = detail["assemblies"][0]["outputData"][0]["id"]
    consumed = detail["assemblies"][1]["inputData"][0]["id"]
    assert produced == consumed
    graph = gw.trace(detail["assemblies"][1]["outputArtifacts"][0]["id"])
    assert len(graph.nodes) == 7


def test_components_section_with_explicit_kind(gw):
    manifest = {
        "name": "Sectioned",
        "components": [
            {"name": "Feed", "kind": "data_source", "metadata": {"dataAccess": "u"}},
            {"name": "Net", "kind": "artifact"},
        ],
        "assemblies": [
            {"name": "Run", "inputData": ["Feed"], "inputArtifacts": ["Net"],
             "outputData": [{"name": "Out"}]}
        ],
    }
    bom = gw.define_bom(manifest)
    detail = gw.bom_detail(bom.id)
    assert detail["assemblies"][0]["inputData"][0]["metadata"] == {"dataAccess": "u"}


def test_existing_component_id_reference(gw):
    existing = gw.create_component("data_source", "pre-made")
    manifest = {
        "name": "Reuse",
        "assemblies": [{"name": "A", "inputData": [existing.id],
                        "outputData": [{"name": "Out"}]}],
    }
    bom = gw.define_bom(manifest)
    assert gw.bom_detail(bom.id)["assemblies"][0]["inputData"][0]["id"] == existing.id


def test_existing_assembly_id_reference(gw):
    d = gw.create_component("data_source", "d")
    assembly = gw.create_assembly("prebuilt", input_data=[d.id])
    bom = gw.define_bom({"name": "Wrapper", "assemblies": [assembly.id]})
    assert gw.get_bom(bom.id).assemblies == (assembly.id,)


def test_duplicate_name_rejected(gw):
    manifest = {
        "name": "Dup",
        "assemblies": [
            {"name": "A", "inputData": [{"name": "X"}], "outputData": [{"name": "Y"}]},
            {"name": "B", "inputData": [{"name": "X"}], "outputData": [{"name": "Z"}]},
        ],
    }
    with pytest.raises(MalformedBody):
        gw.define_bom(manifest)


def test_assembly_name_collision_rejected(gw):
    manifest = {
        "name": "Dup",
        "assemblies": [
            {"name": "Stage", "inputData": [{"name": "X"}]},
            {"name": "Stage", "inputData": ["X"]},
        ],
    }
    with pytest.raises(MalformedBody):
        gw.define_bom(manifest)


def test_undeclared_name_rejected(gw):
    with pytest.raises(MalformedBody):
        gw.define_bom(
            {"name": "Bad", "assemblies": [{"name": "A", "inputData": ["Ghost"]}]}
        )


def test_unknown_keys_rejected(gw):
    with pytest.raises(MalformedBody):
        gw.define_bom({"name": "Bad", "pipelines": []})
    with pytest.raises(MalformedBody):
        gw.define_bom(
            {"name": "Bad",
             "assemblies": [{"name": "A", "inputs": []}]}
        )
    with pytest.raises(MalformedBody):
        gw.define_bom(
            {"name": "Bad",
             "assemblies": [{"name": "A", "inputData": [{"name": "X", "dataAccess": "u"}]}]}
        )


def _stage(**assembly):
    return {"name": "Typed", "assemblies": [{"name": "A", **assembly}]}


WRONG_TYPED_MANIFESTS = [
    {"name": "Typed", "description": 5},
    _stage(description=[1], inputData=[{"name": "X"}]),
    _stage(inputData=[{"name": "X", "description": 7}]),
    _stage(inputData=[{"name": "X", "kind": "bogus"}]),
    {"name": "Typed", "components": [{"name": "X", "kind": ["data_source"]}]},
    _stage(inputData=[{"name": "X", "metadata": "ab"}]),
    _stage(inputData=[{"name": "X", "metadata": [["k", 1]]}]),
    _stage(inputData=[{"name": "X", "metadata": {"k": None}}]),
    {"name": "Typed", "components": "X"},
    {"name": "Typed", "assemblies": {"name": "A"}},
    _stage(inputData="X"),
]


def test_wrong_typed_manifest_fields_rejected(gw):
    before = gw.store.transaction_count
    for manifest in WRONG_TYPED_MANIFESTS:
        with pytest.raises(MalformedBody):
            gw.define_bom(manifest)
    assert gw.store.transaction_count == before


def test_null_lists_read_as_empty(gw):
    bom = gw.define_bom({"name": "Nulls", "components": None,
                         "assemblies": [{"name": "A", "inputData": None,
                                         "outputData": [{"name": "Out"}]}]})
    assert gw.bom_detail(bom.id)["assemblies"][0]["inputData"] == []


def test_kind_conflict_between_section_and_list(gw):
    manifest = {
        "name": "Conflict",
        "components": [{"name": "Thing", "kind": "artifact"}],
        "assemblies": [{"name": "A", "inputData": ["Thing"]}],
    }
    with pytest.raises(Exception) as exc:
        gw.define_bom(manifest)
    assert exc.value.code in ("KIND_MISMATCH", "MALFORMED_BODY")


def test_empty_bom_name_rejected(gw):
    with pytest.raises(EmptyName):
        gw.define_bom({"name": "", "assemblies": []})


def test_unknown_external_component_rejected(gw):
    with pytest.raises(DanglingRef):
        gw.define_bom(
            {"name": "Bad",
             "assemblies": [{"name": "A", "inputData": ["ds_" + "0" * 32]}]}
        )


def test_failed_manifest_leaves_store_untouched(gw):
    before = gw.store.transaction_count
    manifest = {
        "name": "Cyclic",
        "assemblies": [
            {"name": "A", "inputData": [{"name": "P"}], "outputData": [{"name": "Q"}]},
            {"name": "B", "inputData": ["Q"], "outputData": ["P"]},
        ],
    }
    with pytest.raises(ValidationFailed):
        gw.define_bom(manifest)
    assert gw.store.transaction_count == before


def test_define_then_show_round_trips_manifest_fields(gw):
    bom = gw.define_bom(copy.deepcopy(HPC_MANIFEST))
    detail = gw.bom_detail(bom.id)
    assert detail["name"] == HPC_MANIFEST["name"]
    assert detail["description"] == HPC_MANIFEST["description"]
    src = HPC_MANIFEST["assemblies"][0]
    out = detail["assemblies"][0]
    assert out["name"] == src["name"]
    assert out["description"] == src["description"]
    for key in ("inputData", "outputData", "inputArtifacts"):
        assert [c["name"] for c in out[key]] == [c["name"] for c in src[key]]
        for got, wanted in zip(out[key], src[key]):
            assert got.get("metadata", {}) == wanted.get("metadata", {})
