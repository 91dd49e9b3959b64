import base64
import copy
import json
import logging
import sys
import threading

import pytest

from bomtrace import api
from bomtrace.api import ERROR_STATUS, MAX_BODY_BYTES, ROUTES, build_schema, dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.errors import StorageFailure
from bomtrace.gateway import Gateway
from bomtrace.model import ROLES
from conftest import HPC_MANIFEST
from graphutil import stored_boms

# endpoints promised by the external contract, verbatim
CONTRACT_ENDPOINTS = [
    ("POST", "/components"),
    ("GET", "/components/{id}"),
    ("GET", "/components/{id}/trace"),
    ("GET", "/components/{id}/track"),
    ("GET", "/components/{id}/uses"),
    ("POST", "/assemblies"),
    ("GET", "/assemblies/{id}"),
    ("POST", "/boms"),
    ("GET", "/boms/{id}"),
    ("POST", "/boms/{id}/validate"),
    ("POST", "/boms/{id}/bols"),
    ("GET", "/bols/{id}"),
    ("GET", "/bols/{id}/report"),
    ("POST", "/bols/{id}/observations"),
    ("POST", "/bols/{id}/seal"),
    ("GET", "/bols/{id}/components/{cid}/access"),
    ("GET", "/ledger/verify"),
    ("GET", "/ledger/export"),
    ("GET", "/schema"),
    ("GET", "/healthz"),
]


def call(gw, method, path, body=None, query="", base_path=""):
    payload = json.dumps(body).encode() if body is not None else None
    status, ctype, data = dispatch(gw, method, path, query, payload, base_path)
    if ctype == "application/json":
        return status, json.loads(data.decode()), data
    return status, None, data


def define_hpc(gw):
    status, doc, _ = call(gw, "POST", "/boms", copy.deepcopy(HPC_MANIFEST))
    assert status == 201
    return doc["bom"]


def component_by_name(bom_doc, name):
    for assembly in bom_doc["assemblies"]:
        for key in ("inputData", "inputArtifacts", "outputData", "outputArtifacts"):
            for comp in assembly[key]:
                if comp["name"] == name:
                    return comp["id"]
    raise AssertionError(f"{name} not in bom doc")


# -- case study through the wire -------------------------------------------


def test_post_bom_then_get_matches_case_study(gw):
    bom = define_hpc(gw)
    status, doc, _ = call(gw, "GET", f"/boms/{bom['id']}")
    assert status == 200
    assert doc["name"] == "HPC Congestion"
    assembly = doc["assemblies"][0]
    assert assembly["name"] == "Traffic Scene Analysis"
    scene = assembly["inputData"][0]
    assert scene["name"] == "Traffic Scene"
    assert scene["metadata"]["dataAccess"] == "https://xyz.com/00001.06514.jpg"


def test_posted_bom_round_trips_to_identical_canonical_json(gw):
    bom = define_hpc(gw)
    _, _, get_bytes = call(gw, "GET", f"/boms/{bom['id']}")
    assert canonical_bytes(bom) == get_bytes


def test_identical_gets_are_byte_identical(gw):
    bom = define_hpc(gw)
    result = component_by_name(bom, "Result")
    _, bol_doc, _ = call(gw, "POST", f"/boms/{bom['id']}/bols", {})
    bol_id = bol_doc["bol"]["id"]
    call(gw, "POST", f"/bols/{bol_id}/observations",
         {"component_id": result, "payload": "score=3"})
    call(gw, "POST", f"/bols/{bol_id}/seal", {})
    reads = [
        ("GET", f"/boms/{bom['id']}", ""),
        ("GET", f"/components/{result}", ""),
        ("GET", f"/components/{result}/trace", "scope=global"),
        ("GET", f"/components/{result}/track", ""),
        ("GET", f"/components/{result}/uses", ""),
        ("GET", f"/bols/{bol_id}", ""),
        ("GET", f"/bols/{bol_id}/report", ""),
        ("GET", f"/bols/{bol_id}/components/{result}/access", ""),
        ("GET", f"/bols/{bol_id}/proofs/0", ""),
        ("GET", "/ledger/verify", ""),
        ("GET", "/ledger/export", ""),
        ("GET", "/schema", ""),
        ("GET", "/healthz", ""),
    ]
    for method, path, query in reads:
        s1, _, b1 = call(gw, method, path, query=query)
        s2, _, b2 = call(gw, method, path, query=query)
        assert s1 == s2 == 200, path
        assert b1 == b2, path


def test_api_trace_equals_library_trace(gw):
    bom = define_hpc(gw)
    result = component_by_name(bom, "Result")
    _, doc, _ = call(gw, "GET", f"/components/{result}/trace")
    lib = gw.trace(result).to_dict()
    assert doc == lib
    _, doc, _ = call(gw, "GET", f"/components/{result}/track")
    assert doc == gw.track(result).to_dict()


def test_mutations_carry_request_ids(gw):
    _, doc, _ = call(gw, "POST", "/components", {"kind": "artifact", "name": "m"})
    assert doc["request_id"].startswith("req_")
    _, doc2, _ = call(gw, "POST", "/components", {"kind": "artifact", "name": "n"})
    assert doc2["request_id"] != doc["request_id"]


def test_deterministic_ids_after_reopen_skip_persisted_ids(tmp_path):
    # the entity counter resumes above every persisted entity id, so the
    # record count alone would reissue the id of a persisted component
    created = []
    for _ in range(2):
        gateway = Gateway(tmp_path / "data", deterministic_ids=True)
        try:
            for name in ("a", "b"):
                status, doc, _ = call(
                    gateway, "POST", "/components", {"kind": "data_source", "name": name}
                )
                assert status == 201, doc
                created.append(doc["component"]["id"])
        finally:
            gateway.close()
    assert len(set(created)) == 4


def test_request_ids_stay_new_after_reopen(tmp_path):
    # request ids are never stored; they count on from the committed
    # transactions, so a reopen cannot reissue one from an earlier session
    seen = []
    gateway = Gateway(tmp_path / "data", deterministic_ids=True)
    try:
        status, doc, _ = call(gateway, "POST", "/boms", copy.deepcopy(HPC_MANIFEST))
        assert status == 201, doc
        seen.append(doc["request_id"])
        component = component_by_name(doc["bom"], "Result")
        status, doc, _ = call(gateway, "POST", f"/boms/{doc['bom']['id']}/bols", {})
        assert status == 201, doc
        seen.append(doc["request_id"])
        bol_id = doc["bol"]["id"]
        for n in range(3):
            status, doc, _ = call(gateway, "POST", f"/bols/{bol_id}/observations",
                                  {"component_id": component, "payload": f"p{n}"})
            assert status == 201, doc
            seen.append(doc["request_id"])
    finally:
        gateway.close()
    gateway = Gateway(tmp_path / "data", deterministic_ids=True)
    try:
        status, doc, _ = call(gateway, "POST", f"/bols/{bol_id}/observations",
                              {"component_id": component, "payload": "after reopen"})
        assert status == 201, doc
    finally:
        gateway.close()
    assert len(set(seen)) == 5
    assert doc["request_id"] not in seen


def test_every_mutation_route_commits_a_transaction(gw):
    # request ids count on from the committed transactions (see Gateway), which
    # holds only while every successful mutation commits at least one
    def mutate(method, path, body):
        before = gw.store.transaction_count
        status, doc, _ = call(gw, method, path, body)
        assert status in (200, 201), doc
        assert gw.store.transaction_count > before, path
        return doc

    covered = set()
    component = mutate("POST", "/components", {"kind": "data_source", "name": "d"})
    covered.add("create_component")
    cid = component["component"]["id"]
    assembly = mutate("POST", "/assemblies", {"name": "a", "inputData": [cid]})
    covered.add("create_assembly")
    bom = mutate("POST", "/boms", {"name": "b", "assemblies": []})["bom"]
    covered.add("define_bom")
    mutate("PUT", f"/boms/{bom['id']}", {"assemblies": [assembly["assembly"]["id"]]})
    covered.add("update_bom")
    bol = mutate("POST", f"/boms/{bom['id']}/bols", {})["bol"]
    covered.add("instantiate_bol")
    mutate("POST", f"/bols/{bol['id']}/observations", {"component_id": cid, "payload": "p"})
    covered.add("record_observation")
    mutate("POST", f"/bols/{bol['id']}/seal", None)
    covered.add("seal_bol")
    assert covered == {route.name for route in ROUTES if route.mutation}


def test_observation_response_carries_index(gw):
    bom = define_hpc(gw)
    result = component_by_name(bom, "Result")
    _, bol_doc, _ = call(gw, "POST", f"/boms/{bom['id']}/bols", {"run_label": "r1"})
    bol_id = bol_doc["bol"]["id"]
    _, first, _ = call(gw, "POST", f"/bols/{bol_id}/observations",
                       {"component_id": result, "payload": "a"})
    _, second, _ = call(gw, "POST", f"/bols/{bol_id}/observations",
                        {"component_id": result, "payload": "b"})
    assert first["observation_index"] == 0
    assert second["observation_index"] == 1
    assert second["observation"]["payload"] == "b"


def test_validate_endpoint(gw):
    bom = define_hpc(gw)
    status, doc, _ = call(gw, "POST", f"/boms/{bom['id']}/validate", {})
    assert status == 200
    assert doc == {"ok": True, "violations": []}


# -- refused BoM structures, pinned as dispatch bytes -------------------------


def _id(prefix, counter):
    """The deterministic id with this counter."""
    return f"{prefix}_{counter:032x}"


def _held_boms(gw):
    """Components x, y, m; assemblies A (x, m -> y), B (y -> x), C (m -> y),
    D (y ->) and E (x ->); BoM Held over A and BoM Other over D."""
    bodies = [
        ("/components", {"kind": "data_source", "name": "x"}),
        ("/components", {"kind": "data_source", "name": "y"}),
        ("/components", {"kind": "artifact", "name": "m"}),
        ("/assemblies", {"name": "A", "inputData": [_id("ds", 1)],
                         "inputArtifacts": [_id("af", 3)], "outputData": [_id("ds", 2)]}),
        ("/assemblies", {"name": "B", "inputData": [_id("ds", 2)], "outputData": [_id("ds", 1)]}),
        ("/assemblies", {"name": "C", "inputArtifacts": [_id("af", 3)],
                         "outputData": [_id("ds", 2)]}),
        ("/assemblies", {"name": "D", "inputData": [_id("ds", 2)]}),
        ("/assemblies", {"name": "E", "inputData": [_id("ds", 1)]}),
        ("/boms", {"name": "Held", "assemblies": [_id("as", 4)]}),
        ("/boms", {"name": "Other", "assemblies": [_id("as", 7)]}),
    ]
    for path, body in bodies:
        status, doc, _ = call(gw, "POST", path, body)
        assert status == 201, doc
    return _id("bom", 9)


def _invalid(*violations):
    return (
        '{"code":"VALIDATION_FAILED","detail":{"report":{"ok":false,"violations":['
        + ",".join(
            f'{{"code":"{code}","detail":"{detail}","subject":"{subject}"}}'
            for code, subject, detail in violations
        )
        + ']}},"message":"BoM structure is invalid"}'
    )


def _dangling(kind, ref):
    return f'{{"code":"DANGLING_REF","detail":{{"id":"{ref}"}},"message":"unknown {kind} {ref}"}}'


_CYCLE_AB = (
    "cycle", _id("as", 4),
    "directed cycle through " + ", ".join(
        [_id("as", 4), _id("as", 5), _id("as", 7), _id("ds", 1), _id("ds", 2)]
    ),
)

# case -> (manifest, status, answer, counter of the id the next create gets);
# a refused manifest keeps the ids it staged, but takes no BoM id
POST_BOM_REFUSALS = {
    "cycle": (
        {"name": "M", "assemblies": [
            {"name": "P", "inputData": [{"name": "u"}], "outputData": [{"name": "v"}]},
            {"name": "Q", "inputData": ["v"], "outputData": ["u"]},
        ]},
        400,
        _invalid((
            "cycle", _id("as", 13),
            "directed cycle through " + ", ".join(
                [_id("as", 13), _id("as", 14), _id("ds", 11), _id("ds", 12)]
            ),
        )),
        15,
    ),
    "two producers": (
        {"name": "M", "assemblies": [
            {"name": "P", "inputData": [_id("ds", 1)], "outputData": [{"name": "w"}]},
            {"name": "Q", "inputData": [_id("ds", 2)], "outputData": ["w"]},
        ]},
        400,
        _invalid((
            "multiple_producers", _id("ds", 11),
            f"produced by assemblies {_id('as', 12)}, {_id('as', 13)}",
        )),
        14,
    ),
    "assembly listed twice": (
        {"name": "M", "assemblies": [_id("as", 8), _id("as", 8)]},
        400,
        _invalid(("duplicate_membership", _id("as", 8), "assembly listed twice in the BoM")),
        11,
    ),
    "assembly in another BoM": (
        {"name": "M", "assemblies": [_id("as", 4)]},
        400,
        _invalid((
            "duplicate_membership", _id("as", 4),
            f"assembly already belongs to BoM {_id('bom', 9)}",
        )),
        11,
    ),
    "unknown assembly": (
        {"name": "M", "components": [{"name": "k", "kind": "artifact"}],
         "assemblies": [_id("as", 99)]},
        404,
        _dangling("assembly", _id("as", 99)),
        12,
    ),
    "unknown component": (
        {"name": "M", "components": [{"name": "k", "kind": "artifact"}],
         "assemblies": [{"name": "P", "inputData": [_id("ds", 99)]}]},
        404,
        _dangling("component", _id("ds", 99)),
        12,
    ),
}

# case -> (assembly list for BoM Held, status, answer); a refused update takes no id
PUT_BOM_REFUSALS = {
    "cycle": ([_id("as", 4), _id("as", 5)], 400, _invalid(_CYCLE_AB)),
    "two producers": (
        [_id("as", 4), _id("as", 6)],
        400,
        _invalid((
            "multiple_producers", _id("ds", 2),
            f"produced by assemblies {_id('as', 4)}, {_id('as', 6)}",
        )),
    ),
    "assembly listed twice": (
        [_id("as", 4), _id("as", 4)],
        400,
        _invalid(("duplicate_membership", _id("as", 4), "assembly listed twice in the BoM")),
    ),
    "assembly in another BoM": (
        [_id("as", 7)],
        400,
        _invalid((
            "duplicate_membership", _id("as", 7),
            f"assembly already belongs to BoM {_id('bom', 10)}",
        )),
    ),
    "unknown assembly": ([_id("as", 99)], 404, _dangling("assembly", _id("as", 99))),
    # a BoM lists assemblies only, so a component id there is an unknown assembly
    "unknown component": ([_id("ds", 1)], 404, _dangling("assembly", _id("ds", 1))),
}


def _refused_then_next_id(gw, method, path, body, status, answer):
    before = gw.store.transaction_count
    assert dispatch(gw, method, path, "", json.dumps(body).encode()) == (
        status, "application/json", answer.encode()
    )
    assert gw.store.transaction_count == before
    _, doc, _ = call(gw, "POST", "/components", {"kind": "artifact", "name": "next"})
    return doc["component"]["id"]


@pytest.mark.parametrize("case", POST_BOM_REFUSALS)
def test_post_bom_refusal_bytes_and_next_id(gw, case):
    manifest, status, answer, next_counter = POST_BOM_REFUSALS[case]
    _held_boms(gw)
    created = _refused_then_next_id(gw, "POST", "/boms", manifest, status, answer)
    assert created == _id("af", next_counter)


@pytest.mark.parametrize("case", PUT_BOM_REFUSALS)
def test_put_bom_refusal_bytes_and_next_id(gw, case):
    assembly_ids, status, answer = PUT_BOM_REFUSALS[case]
    held = _held_boms(gw)
    created = _refused_then_next_id(
        gw, "PUT", f"/boms/{held}", {"assemblies": assembly_ids}, status, answer
    )
    assert created == _id("af", 11)
    assert gw.get_bom(held).assemblies == (_id("as", 4),)


def test_access_endpoint_flat_map(gw):
    bom = define_hpc(gw)
    scene = component_by_name(bom, "Traffic Scene")
    _, bol_doc, _ = call(gw, "POST", f"/boms/{bom['id']}/bols", {})
    status, doc, _ = call(
        gw, "GET", f"/bols/{bol_doc['bol']['id']}/components/{scene}/access"
    )
    assert status == 200
    assert doc == {"dataAccess": "https://xyz.com/00001.06514.jpg"}


def test_proof_round_trip_through_api(gw):
    bom = define_hpc(gw)
    result = component_by_name(bom, "Result")
    _, bol_doc, _ = call(gw, "POST", f"/boms/{bom['id']}/bols", {})
    bol_id = bol_doc["bol"]["id"]
    call(gw, "POST", f"/bols/{bol_id}/observations",
         {"component_id": result, "payload": "score=9"})
    _, seal_doc, _ = call(gw, "POST", f"/bols/{bol_id}/seal", {})
    root = seal_doc["anchor"]["merkle_root"]
    for leaf_index in (0, 1):
        _, proof_doc, _ = call(gw, "GET", f"/bols/{bol_id}/proofs/{leaf_index}")
        status, verdict, _ = call(gw, "POST", "/ledger/verify-inclusion", {
            "leaf_b64": proof_doc["leaf_b64"],
            "proof": proof_doc["proof"],
            "merkle_root": root,
        })
        assert status == 200 and verdict == {"included": True}
    # flip one byte of the leaf: must not verify
    _, proof_doc, _ = call(gw, "GET", f"/bols/{bol_id}/proofs/1")
    leaf = bytearray(base64.b64decode(proof_doc["leaf_b64"]))
    leaf[0] ^= 0x01
    _, verdict, _ = call(gw, "POST", "/ledger/verify-inclusion", {
        "leaf_b64": base64.b64encode(bytes(leaf)).decode(),
        "proof": proof_doc["proof"],
        "merkle_root": root,
    })
    assert verdict == {"included": False}
    # a leaf index is ASCII digits with an optional "-"; int() alone takes more
    for text in ("0_1", "+1", " 1", "1 ", "\t1", "١", "--1", "-", "1.0", "x", "1" * 5000):
        status, doc, _ = call(gw, "GET", f"/bols/{bol_id}/proofs/{text}")
        assert (status, doc) == (400, {
            "code": "MALFORMED_BODY", "message": "leaf index must be an integer",
        }), text
    status, doc, _ = call(gw, "GET", f"/bols/{bol_id}/proofs/-1")
    assert (status, doc["code"]) == (404, "UNKNOWN_ID")
    assert call(gw, "GET", f"/bols/{bol_id}/proofs/01")[1] == proof_doc


def test_update_bom_via_put(gw):
    bom = define_hpc(gw)
    status, doc, _ = call(gw, "PUT", f"/boms/{bom['id']}", {"name": "HPC v2"})
    assert status == 200
    assert doc["bom"]["name"] == "HPC v2"
    assert doc["bom"]["frozen"] is False


def test_ledger_export_content_type(gw):
    define_hpc(gw)
    status, ctype, data = dispatch(gw, "GET", "/ledger/export")
    assert status == 200
    assert ctype == "application/x-ndjson"
    assert data == b""  # defining a BoM alone writes no run events
    bom = stored_boms(gw)[0]
    gw.instantiate_bol(bom.id)
    _, _, data = dispatch(gw, "GET", "/ledger/export")
    assert data.count(b"\n") == 1


def test_base_path_prefix(gw):
    status, _, _ = dispatch(gw, "GET", "/api/v1/healthz", base_path="/api/v1")
    assert status == 200
    status, _, body = dispatch(gw, "GET", "/healthz", base_path="/api/v1")
    assert status == 404
    assert b"UNKNOWN_ROUTE" in body


# -- schema ------------------------------------------------------------------


def test_schema_lists_every_contract_endpoint(gw):
    _, schema, _ = call(gw, "GET", "/schema")
    served = {(r["method"], r["path"]) for r in schema["routes"]}
    for endpoint in CONTRACT_ENDPOINTS:
        assert endpoint in served, endpoint


def test_schema_matches_routing_table(gw):
    _, schema, _ = call(gw, "GET", "/schema")
    assert {(r["method"], r["path"]) for r in schema["routes"]} == {
        (r.method, r.path) for r in ROUTES
    }


def test_schema_error_codes_equal_closed_set(gw):
    _, schema, _ = call(gw, "GET", "/schema")
    assert set(schema["error_codes"]) == set(ERROR_STATUS)
    for code, info in schema["error_codes"].items():
        assert info["status"] == ERROR_STATUS[code]
    route_errors = {code for r in schema["routes"] for code in r["errors"]}
    assert route_errors <= set(ERROR_STATUS)


def test_assembly_schema_keys_are_the_role_table(gw):
    _, schema, _ = call(gw, "GET", "/schema")
    routes = {(r["method"], r["path"]): r for r in schema["routes"]}
    roles = {key for key, _, _ in ROLES}
    assert set(routes["POST", "/assemblies"]["request"]) == {"name", "description"} | roles
    assert set(routes["GET", "/assemblies/{id}"]["response"]) == {
        "id", "name", "description"} | roles


def test_schema_stable_across_restarts(tmp_path):
    def serve(path):
        gateway = Gateway(path, deterministic_ids=True)
        try:
            return dispatch(gateway, "GET", "/schema")[2]
        finally:
            gateway.close()

    first = serve(tmp_path / "data")
    second = serve(tmp_path / "data")
    assert first == second
    assert first == canonical_bytes(build_schema())

def test_unknown_entity_refusals_name_the_id(gw):
    missing = "0" * 32
    for path, code, what in [
        ("/components/{}", "UNKNOWN_ID", "component"),
        ("/assemblies/{}", "UNKNOWN_ID", "assembly"),
        ("/boms/{}", "UNKNOWN_BOM", "BoM"),
        ("/bols/{}", "UNKNOWN_BOL", "BoL"),
    ]:
        answer = (f'{{"code":"{code}","detail":{{"id":"{missing}"}},'
                  f'"message":"unknown {what} {missing}"}}')
        assert dispatch(gw, "GET", path.format(missing)) == (
            404, "application/json", answer.encode()
        ), path


def test_each_request_logs_the_ledger_entries_it_committed(gw, caplog):
    bom = define_hpc(gw)
    result = component_by_name(bom, "Result")
    bol_ids = [call(gw, "POST", f"/boms/{bom['id']}/bols", {})[1]["bol"]["id"]
               for _ in range(2)]
    first = gw.ledger.count
    errors = []

    def observe(bol_id):
        try:
            for i in range(200):
                body = json.dumps({"component_id": result, "payload": str(i)}).encode()
                status, _, data = dispatch(gw, "POST", f"/bols/{bol_id}/observations", "", body)
                assert status == 201, data
        except Exception as exc:  # noqa: BLE001 - any failure fails the test
            errors.append(exc)

    threads = [threading.Thread(target=observe, args=(bol_id,)) for bol_id in bol_ids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with caplog.at_level(logging.INFO, logger=api.logger.name):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    ranges = [record.args[3:] for record in caplog.records if record.name == api.logger.name]
    assert len(ranges) == 400
    assert sorted(ranges) == [(i, i + 1) for i in range(first, first + 400)]


# -- error exhaustiveness -----------------------------------------------------


def _error_scenarios(gw):
    """One dispatch call per documented error code."""
    bom = define_hpc(gw)
    scene = component_by_name(bom, "Traffic Scene")
    result = component_by_name(bom, "Result")
    _, other, _ = call(gw, "POST", "/components", {"kind": "data_source", "name": "x"})
    other_id = other["component"]["id"]
    _, bol_doc, _ = call(gw, "POST", f"/boms/{bom['id']}/bols", {})
    open_bol = bol_doc["bol"]["id"]
    _, bol_doc2, _ = call(gw, "POST", f"/boms/{bom['id']}/bols", {})
    sealed_bol = bol_doc2["bol"]["id"]
    call(gw, "POST", f"/bols/{sealed_bol}/seal", {})
    _, other_bom_doc, _ = call(gw, "POST", "/boms", {
        "name": "Scoper",
        "assemblies": [{"name": "S", "inputData": [{"name": "S in"}]}],
    })
    other_bom = other_bom_doc["bom"]["id"]
    missing = "0" * 32

    def raw_body(method, path, payload):
        status, _, data = dispatch(gw, method, path, "", payload)
        return status, json.loads(data.decode())

    def internal():
        def broken(*args, **kwargs):
            raise RuntimeError("a fault in the program")

        gw.trace = broken  # shadows the method on this instance only
        try:
            return call(gw, "GET", f"/components/{scene}/trace")[:2]
        finally:
            del gw.trace

    return {
        "MALFORMED_BODY": lambda: raw_body("POST", "/components", b"{not json"),
        "EMPTY_NAME": lambda: call(
            gw, "POST", "/components", {"kind": "data_source", "name": ""}
        )[:2],
        "DUPLICATE_METADATA_KEY": lambda: call(
            gw, "POST", "/components",
            {"kind": "data_source", "name": "m", "metadata": [["k", "1"], ["k", "2"]]},
        )[:2],
        "KIND_MISMATCH": lambda: call(
            gw, "POST", "/assemblies", {"name": "bad", "inputArtifacts": [scene]}
        )[:2],
        "INPUT_OUTPUT_OVERLAP": lambda: call(
            gw, "POST", "/assemblies",
            {"name": "bad", "inputData": [other_id], "outputData": [other_id]},
        )[:2],
        "DUPLICATE_MEMBERSHIP": lambda: call(
            gw, "POST", "/assemblies", {"name": "bad", "inputData": [other_id, other_id]}
        )[:2],
        "VALIDATION_FAILED": lambda: call(gw, "POST", "/boms", {
            "name": "cyclic",
            "assemblies": [
                {"name": "A", "inputData": [{"name": "P"}], "outputData": [{"name": "Q"}]},
                {"name": "B", "inputData": ["Q"], "outputData": ["P"]},
            ],
        })[:2],
        "MALFORMED_PROOF": lambda: call(gw, "POST", "/ledger/verify-inclusion", {
            "leaf_b64": base64.b64encode(b"x").decode(),
            "proof": {"leaf_index": 0, "siblings": [["ab" * 16, "sideways"]]},
            "merkle_root": "0" * 64,
        })[:2],
        "UNKNOWN_ROUTE": lambda: call(gw, "GET", "/no/such/route")[:2],
        "UNKNOWN_ID": lambda: call(gw, "GET", f"/components/ds_{missing}")[:2],
        "UNKNOWN_BOM": lambda: call(gw, "GET", f"/boms/bom_{missing}")[:2],
        "UNKNOWN_BOL": lambda: call(gw, "GET", f"/bols/bol_{missing}")[:2],
        "DANGLING_REF": lambda: call(
            gw, "POST", "/assemblies", {"name": "bad", "inputData": [f"ds_{missing}"]}
        )[:2],
        "NOT_IN_SCOPE": lambda: call(
            gw, "GET", f"/components/{scene}/trace", query=f"scope={other_bom}"
        )[:2],
        "COMPONENT_NOT_IN_BOM": lambda: call(
            gw, "POST", f"/bols/{open_bol}/observations",
            {"component_id": other_id, "payload": "x"},
        )[:2],
        "BOL_SEALED": lambda: call(
            gw, "POST", f"/bols/{sealed_bol}/observations",
            {"component_id": result, "payload": "late"},
        )[:2],
        "ALREADY_SEALED": lambda: call(gw, "POST", f"/bols/{sealed_bol}/seal", {})[:2],
        "BOL_NOT_SEALED": lambda: call(gw, "GET", f"/bols/{open_bol}/proofs/0")[:2],
        "BOM_FROZEN": lambda: call(gw, "PUT", f"/boms/{bom['id']}", {"name": "nope"})[:2],
        "REVISION_CONFLICT": lambda: call(
            gw, "PUT", f"/boms/{other_bom}", {"name": "v2", "expected_revision": 99}
        )[:2],
        "BODY_TOO_LARGE": lambda: raw_body(
            "POST", "/components", b" " * (MAX_BODY_BYTES + 1)
        ),
        "INTERNAL": internal,
    }


def test_every_documented_error_code_is_reachable(gw):
    scenarios = _error_scenarios(gw)
    covered = set(scenarios) | {"STORAGE_FAILURE"}
    assert covered == set(ERROR_STATUS)
    for code, run in scenarios.items():
        status, body = run()
        assert status == ERROR_STATUS[code], code
        assert body["code"] == code, (code, body)
        assert body["message"]


def test_storage_failure_maps_to_500(gw, monkeypatch):
    def boom(*args, **kwargs):
        raise StorageFailure("disk gone")

    monkeypatch.setattr(gw.store, "put_many", boom)
    status, body, _ = call(gw, "POST", "/components", {"kind": "artifact", "name": "x"})
    assert status == 500
    assert body["code"] == "STORAGE_FAILURE"


def test_method_mismatch_is_unknown_route(gw):
    status, body, _ = call(gw, "PUT", "/components")
    assert status == 404
    assert body["code"] == "UNKNOWN_ROUTE"
    assert "method" in body["message"]


def test_non_object_body_rejected(gw):
    # a body nested deeper than the parser's recursion limit is the client's fault too
    for body in (b'[1,2]', b'[' * 100_000, b'{"k":' * 100_000):
        status, _, data = dispatch(gw, "POST", "/components", "", body)
        assert status == 400
        assert b"MALFORMED_BODY" in data


def test_missing_required_field_rejected(gw):
    status, body, _ = call(gw, "POST", "/components", {"kind": "data_source"})
    assert status == 400
    assert body["code"] == "MALFORMED_BODY"


def test_float_in_body_rejected(gw):
    status, body, _ = call(
        gw, "POST", "/components", {"kind": "data_source", "name": "x", "metadata": {"k": 1.5}}
    )
    assert status == 400
    assert body["code"] == "MALFORMED_BODY"


# -- route matching ----------------------------------------------------------


def _reference_match(method, path):
    """The matcher that split every route's path on every request."""
    segments = [s for s in path.split("/") if s != ""]
    path_known = False
    for route in ROUTES:
        pattern = [s for s in route.path.split("/") if s != ""]
        if len(pattern) != len(segments):
            continue
        params = {}
        matched = True
        for pat, seg in zip(pattern, segments):
            if pat.startswith("{") and pat.endswith("}"):
                params[pat[1:-1]] = seg
            elif pat != seg:
                matched = False
                break
        if matched:
            path_known = True
            if route.method == method:
                return route, params, True
    return None, {}, path_known


def _concrete(path, value):
    return "/".join(value if s.startswith("{") else s for s in path.split("/"))


_PATHS = sorted(
    {_concrete(route.path, value) for route in ROUTES for value in ("x1", "seal", "ledger")}
    | {route.path for route in ROUTES}
    | {"", "/", "//", "/nope", "/components/", "//components//x1//", "/components/x1/nope",
       "/bols/x1/components/x2", "/bols/x1/proofs/0/extra", "/ledger", "/ledger/nope",
       "healthz", "/healthz/", "/api/healthz", "/a/b/c/d/e/f"}
)


@pytest.mark.parametrize("method", ["GET", "POST", "PUT", "DELETE", "PATCH"])
def test_route_table_matches_the_reference_matcher(method):
    for path in _PATHS:
        assert api._match(method, path) == _reference_match(method, path), (method, path)


def test_route_table_answers_alike_under_a_base_path(gw):
    for method in ("GET", "POST", "PUT", "DELETE", "PATCH"):
        for path in ("/healthz", "/nope", "/components/x1", "/ledger/verify", "/", "//"):
            plain = dispatch(gw, method, path)
            based = dispatch(gw, method, "/api" + path, base_path="/api")
            assert based == plain, (method, path)


# -- answers that no other test reaches -----------------------------------------


def test_verify_inclusion_refuses_a_leaf_that_is_not_base64(gw):
    status, doc, _ = call(gw, "POST", "/ledger/verify-inclusion", {
        "leaf_b64": "not base64!",
        "proof": {"leaf_index": 0, "siblings": []},
        "merkle_root": "0" * 64,
    })
    assert (status, doc["code"]) == (400, "MALFORMED_BODY")
    assert doc["message"].startswith("leaf_b64 is not valid base64: ")


def test_inline_component_whose_kind_disagrees_with_its_list_is_refused(gw):
    before = gw.store.transaction_count
    status, doc, _ = call(gw, "POST", "/boms", {
        "name": "B",
        "assemblies": [{"name": "A", "outputData": [{"name": "Out", "kind": "artifact"}]}],
    })
    assert (status, doc) == (400, {
        "code": "MALFORMED_BODY",
        "message": "component 'Out' declares kind artifact but sits in a data_source list",
    })
    assert gw.store.transaction_count == before


@pytest.mark.parametrize(
    "listed",
    ["ds_" + "a" * 32 + "\n", "ds_" + "a" * 31],
    ids=["trailing_line_feed", "short_hex"],
)
def test_a_listed_string_that_is_no_id_is_malformed_not_dangling(gw, listed):
    # an id is matched whole: a trailing LF makes a string no id, as a short one is
    status, doc, _ = call(gw, "POST", "/boms", {
        "name": "B", "assemblies": [{"name": "A", "inputData": [listed]}],
    })
    assert (status, doc) == (400, {
        "code": "MALFORMED_BODY",
        "message": f"{listed!r} is neither a name declared in this file nor a component id",
    })


def test_component_description_is_answered_also_after_reopen(tmp_path):
    gateway = Gateway(tmp_path / "data", deterministic_ids=True)
    try:
        status, doc, _ = call(gateway, "POST", "/boms", {
            "name": "B",
            "assemblies": [{"name": "A", "inputData": [
                {"name": "Frame", "description": "one camera frame"},
            ]}],
        })
        assert status == 201, doc
        bom_id = doc["bom"]["id"]
        cid = component_by_name(doc["bom"], "Frame")
        paths = [f"/components/{cid}", f"/boms/{bom_id}"]
        answers = [call(gateway, "GET", path) for path in paths]
    finally:
        gateway.close()
    assert answers[0][1]["description"] == "one camera frame"
    assert answers[1][1]["assemblies"][0]["inputData"][0]["description"] == "one camera frame"
    gateway = Gateway(tmp_path / "data", deterministic_ids=True)
    try:
        assert [call(gateway, "GET", path) for path in paths] == answers
    finally:
        gateway.close()
