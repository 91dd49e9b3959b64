"""JSON-over-HTTP surface: routing table, dispatcher, and schema document.

``dispatch`` is transport-independent — the HTTP server, the embedded CLI
client, and the tests all feed it (method, path, query, body bytes) and get
back (status, content type, body bytes). Every response body is canonical
JSON, so identical reads produce identical bytes.

The schema served at ``GET /schema`` is generated from the same ``ROUTES``
table the dispatcher matches against, so documentation cannot drift from
behaviour. Mutation responses carry a server-assigned ``request_id`` which
is also logged next to the ledger indexes the mutation produced.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
from dataclasses import dataclass
from typing import Any, Callable
from urllib.parse import parse_qsl

from . import __version__
from .canonical import canonical_bytes
from .errors import BomTraceError
from .gateway import Gateway
from .ids import REQUEST
from .ledger import InclusionProof, verify_inclusion
from .lineage import GLOBAL_SCOPE

logger = logging.getLogger(__name__)

JSON_TYPE = "application/json"
NDJSON_TYPE = "application/x-ndjson"

# status for every error code reachable through the API
ERROR_STATUS: dict[str, int] = {
    "MALFORMED_BODY": 400,
    "EMPTY_NAME": 400,
    "DUPLICATE_METADATA_KEY": 400,
    "KIND_MISMATCH": 400,
    "INPUT_OUTPUT_OVERLAP": 400,
    "DUPLICATE_MEMBERSHIP": 400,
    "VALIDATION_FAILED": 400,
    "MALFORMED_PROOF": 400,
    "UNKNOWN_ROUTE": 404,
    "UNKNOWN_ID": 404,
    "UNKNOWN_BOM": 404,
    "UNKNOWN_BOL": 404,
    "DANGLING_REF": 404,
    "NOT_IN_SCOPE": 404,
    "COMPONENT_NOT_IN_BOM": 404,
    "BOL_SEALED": 409,
    "ALREADY_SEALED": 409,
    "BOL_NOT_SEALED": 409,
    "BOM_FROZEN": 409,
    "REVISION_CONFLICT": 409,
    "STORAGE_FAILURE": 500,
}


class ApiError(BomTraceError):
    """Transport-level failure (bad body or no such route)."""

    def __init__(self, code: str, message: str, detail: dict | None = None):
        super().__init__(message, detail)
        self.code = code


# -- handlers ------------------------------------------------------------


def _need(body: dict, key: str, types) -> Any:
    if key not in body:
        raise ApiError("MALFORMED_BODY", f"missing required field {key!r}")
    value = body[key]
    if not isinstance(value, types):
        raise ApiError("MALFORMED_BODY", f"field {key!r} has the wrong type")
    return value


def _opt(body: dict, key: str, types, default=None) -> Any:
    if key not in body or body[key] is None:
        return default
    value = body[key]
    if not isinstance(value, types):
        raise ApiError("MALFORMED_BODY", f"field {key!r} has the wrong type")
    return value


def _create_component(gw: Gateway, params, query, body):
    component = gw.create_component(
        kind=_need(body, "kind", str),
        name=_need(body, "name", str),
        description=_opt(body, "description", str),
        access_metadata=_opt(body, "metadata", (dict, list)),
    )
    return {"component": component.to_dict()}


def _get_component(gw: Gateway, params, query, body):
    return gw._require_component(params["id"]).to_dict()


def _scope(query: dict[str, str]) -> str:
    return query.get("scope", GLOBAL_SCOPE) or GLOBAL_SCOPE


def _trace(gw: Gateway, params, query, body):
    return gw.trace(params["id"], scope=_scope(query)).to_dict()


def _track(gw: Gateway, params, query, body):
    return gw.track(params["id"], scope=_scope(query)).to_dict()


def _uses(gw: Gateway, params, query, body):
    return gw.find_uses(params["id"]).to_dict()


def _create_assembly(gw: Gateway, params, query, body):
    assembly = gw.create_assembly(
        name=_need(body, "name", str),
        description=_opt(body, "description", str),
        input_data=_opt(body, "inputData", list, []),
        input_artifacts=_opt(body, "inputArtifacts", list, []),
        output_data=_opt(body, "outputData", list, []),
        output_artifacts=_opt(body, "outputArtifacts", list, []),
    )
    return {"assembly": assembly.to_dict()}


def _get_assembly(gw: Gateway, params, query, body):
    assembly = gw.get_assembly(params["id"])
    if assembly is None:
        raise ApiError("UNKNOWN_ID", f"unknown assembly {params['id']}")
    return assembly.to_dict()


def _define_bom(gw: Gateway, params, query, body):
    bom = gw.define_bom(body)
    return {"bom": gw.bom_detail(bom.id)}


def _get_bom(gw: Gateway, params, query, body):
    return gw.bom_detail(params["id"])


def _update_bom(gw: Gateway, params, query, body):
    kwargs: dict[str, Any] = {}
    if "name" in body:
        kwargs["name"] = _need(body, "name", str)
    if "description" in body:
        kwargs["description"] = _opt(body, "description", str)
    if "assemblies" in body:
        kwargs["assembly_ids"] = _need(body, "assemblies", list)
    if "expected_revision" in body:
        kwargs["expected_revision"] = _need(body, "expected_revision", int)
    gw.update_bom(params["id"], **kwargs)
    return {"bom": gw.bom_detail(params["id"])}


def _validate_bom(gw: Gateway, params, query, body):
    return gw.validate_bom(bom_id=params["id"]).to_dict()


def _instantiate_bol(gw: Gateway, params, query, body):
    bol = gw.instantiate_bol(params["id"], run_label=_opt(body, "run_label", str))
    return {"bol": bol.to_dict()}


def _get_bol(gw: Gateway, params, query, body):
    return gw._require_bol(params["id"]).to_dict()


def _bol_report(gw: Gateway, params, query, body):
    return gw.lineage_report(params["id"]).to_dict()


def _record_observation(gw: Gateway, params, query, body):
    observation, index = gw.record_observation_indexed(
        params["id"],
        component_id=_need(body, "component_id", str),
        payload=_need(body, "payload", str),
        note=_opt(body, "note", str),
    )
    return {
        "bol_id": params["id"],
        "component_id": body["component_id"],
        "observation_index": index,
        "observation": observation.to_dict(),
    }


def _seal_bol(gw: Gateway, params, query, body):
    anchor = gw.seal_bol(params["id"])
    return {"anchor": anchor.to_dict()}


def _resolve_access(gw: Gateway, params, query, body):
    return gw.resolve_access(params["id"], params["cid"])


def _inclusion_proof(gw: Gateway, params, query, body):
    try:
        leaf_index = int(params["leaf_index"])
    except ValueError:
        raise ApiError("MALFORMED_BODY", "leaf index must be an integer") from None
    leaf, proof = gw.inclusion_proof(params["id"], leaf_index)
    bol = gw.get_bol(params["id"])
    return {
        "leaf_b64": base64.b64encode(leaf).decode("ascii"),
        "merkle_root": bol.anchor.merkle_root,
        "proof": proof.to_dict(),
    }


def _verify_inclusion(gw: Gateway, params, query, body):
    try:
        leaf = base64.b64decode(_need(body, "leaf_b64", str), validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ApiError("MALFORMED_BODY", f"leaf_b64 is not valid base64: {exc}") from None
    proof_doc = _need(body, "proof", dict)
    try:
        proof = InclusionProof.from_dict(proof_doc)
    except (KeyError, TypeError, IndexError) as exc:
        raise ApiError("MALFORMED_BODY", f"proof document is malformed: {exc}") from None
    included = verify_inclusion(leaf, proof, _need(body, "merkle_root", str))
    return {"included": included}


def _ledger_verify(gw: Gateway, params, query, body):
    ok, first_bad = gw.verify_chain()
    doc: dict[str, Any] = {"ok": ok}
    if first_bad is not None:
        doc["first_bad_index"] = first_bad
    return doc


def _ledger_export(gw: Gateway, params, query, body):
    return gw.export_ledger()


def _schema(gw: Gateway, params, query, body, base_path: str = ""):
    return build_schema(base_path)


def _healthz(gw: Gateway, params, query, body):
    return {"status": "ok"}


# -- route table ---------------------------------------------------------


@dataclass(frozen=True)
class Route:
    method: str
    path: str
    name: str
    summary: str
    handler: Callable
    mutation: bool
    success_status: int
    request: dict[str, str] | None
    response: dict[str, str]
    query: dict[str, str] | None
    errors: tuple[str, ...]


_GRAPH = {"origin": "string", "nodes": "array[string]", "edges": "array[[string,string]]"}

ROUTES: tuple[Route, ...] = (
    Route(
        "POST", "/components", "create_component",
        "Create a data source or artifact",
        _create_component, True, 201,
        {"kind": "string (data_source|artifact)", "name": "string",
         "description": "string?", "metadata": "map[string,string]?"},
        {"request_id": "string", "component": "object"},
        None,
        ("MALFORMED_BODY", "EMPTY_NAME", "DUPLICATE_METADATA_KEY"),
    ),
    Route(
        "GET", "/components/{id}", "get_component",
        "Fetch one component record",
        _get_component, False, 200, None,
        {"id": "string", "kind": "string", "name": "string",
         "description": "string?", "metadata": "map[string,string]?"},
        None,
        ("UNKNOWN_ID",),
    ),
    Route(
        "GET", "/components/{id}/trace", "trace_component",
        "Backward (where-from) lineage closure",
        _trace, False, 200, None, _GRAPH,
        {"scope": "string ('global' or a BoM id; default global)"},
        ("UNKNOWN_ID", "UNKNOWN_BOM", "NOT_IN_SCOPE"),
    ),
    Route(
        "GET", "/components/{id}/track", "track_component",
        "Forward (where-used) lineage closure",
        _track, False, 200, None, _GRAPH,
        {"scope": "string ('global' or a BoM id; default global)"},
        ("UNKNOWN_ID", "UNKNOWN_BOM", "NOT_IN_SCOPE"),
    ),
    Route(
        "GET", "/components/{id}/uses", "component_uses",
        "Static assembly memberships and BoLs using the component",
        _uses, False, 200, None,
        {"static": "array[{bom_id,assembly_id,role}]", "dynamic": "array[string]"},
        None,
        ("UNKNOWN_ID",),
    ),
    Route(
        "POST", "/assemblies", "create_assembly",
        "Create an assembly over existing component ids",
        _create_assembly, True, 201,
        {"name": "string", "description": "string?",
         "inputData": "array[string]?", "inputArtifacts": "array[string]?",
         "outputData": "array[string]?", "outputArtifacts": "array[string]?"},
        {"request_id": "string", "assembly": "object"},
        None,
        ("MALFORMED_BODY", "EMPTY_NAME", "DANGLING_REF", "KIND_MISMATCH",
         "INPUT_OUTPUT_OVERLAP", "DUPLICATE_MEMBERSHIP"),
    ),
    Route(
        "GET", "/assemblies/{id}", "get_assembly",
        "Fetch one assembly",
        _get_assembly, False, 200, None,
        {"id": "string", "name": "string", "description": "string?",
         "inputData": "array[string]", "inputArtifacts": "array[string]",
         "outputData": "array[string]", "outputArtifacts": "array[string]"},
        None,
        ("UNKNOWN_ID",),
    ),
    Route(
        "POST", "/boms", "define_bom",
        "Create a BoM from a manifest (inline or pre-created parts)",
        _define_bom, True, 201,
        {"name": "string", "description": "string?",
         "components": "array[object]?", "assemblies": "array[object|string]"},
        {"request_id": "string", "bom": "object (nested detail)"},
        None,
        ("MALFORMED_BODY", "EMPTY_NAME", "DUPLICATE_METADATA_KEY", "DANGLING_REF",
         "KIND_MISMATCH", "INPUT_OUTPUT_OVERLAP", "DUPLICATE_MEMBERSHIP",
         "VALIDATION_FAILED"),
    ),
    Route(
        "GET", "/boms/{id}", "get_bom",
        "Fetch a BoM with assemblies and components expanded",
        _get_bom, False, 200, None,
        {"id": "string", "name": "string", "description": "string?",
         "assemblies": "array[object]", "frozen": "bool", "created_at": "int"},
        None,
        ("UNKNOWN_BOM",),
    ),
    Route(
        "PUT", "/boms/{id}", "update_bom",
        "Replace fields of an unfrozen BoM",
        _update_bom, True, 200,
        {"name": "string?", "description": "string?",
         "assemblies": "array[string]?", "expected_revision": "int?"},
        {"request_id": "string", "bom": "object (nested detail)"},
        None,
        ("MALFORMED_BODY", "UNKNOWN_BOM", "BOM_FROZEN", "EMPTY_NAME", "DANGLING_REF",
         "VALIDATION_FAILED", "REVISION_CONFLICT"),
    ),
    Route(
        "POST", "/boms/{id}/validate", "validate_bom",
        "Structural validation report for a stored BoM",
        _validate_bom, False, 200, None,
        {"ok": "bool", "violations": "array[{code,subject,detail}]"},
        None,
        ("UNKNOWN_BOM",),
    ),
    Route(
        "POST", "/boms/{id}/bols", "instantiate_bol",
        "Instantiate the BoM into a new BoL (freezes the BoM)",
        _instantiate_bol, True, 201,
        {"run_label": "string?"},
        {"request_id": "string", "bol": "object"},
        None,
        ("UNKNOWN_BOM", "VALIDATION_FAILED"),
    ),
    Route(
        "GET", "/bols/{id}", "get_bol",
        "Fetch one BoL with its shadow items",
        _get_bol, False, 200, None,
        {"id": "string", "bom_id": "string", "run_label": "string?",
         "created_at": "int", "status": "string (open|sealed)",
         "shadow_items": "map[string,object]", "anchor": "object?"},
        None,
        ("UNKNOWN_BOL",),
    ),
    Route(
        "GET", "/bols/{id}/report", "lineage_report",
        "Combined static+dynamic lineage report for a run",
        _bol_report, False, 200, None,
        {"bol_id": "string", "static_graph": "object", "dynamic": "map[string,array]",
         "anchor": "object?", "bom_snapshot": "object"},
        None,
        ("UNKNOWN_BOL",),
    ),
    Route(
        "POST", "/bols/{id}/observations", "record_observation",
        "Append an observation to a shadow item",
        _record_observation, True, 201,
        {"component_id": "string", "payload": "string", "note": "string?"},
        {"request_id": "string", "bol_id": "string", "component_id": "string",
         "observation_index": "int", "observation": "object"},
        None,
        ("MALFORMED_BODY", "UNKNOWN_BOL", "COMPONENT_NOT_IN_BOM", "BOL_SEALED"),
    ),
    Route(
        "POST", "/bols/{id}/seal", "seal_bol",
        "Seal the BoL and anchor it in the ledger",
        _seal_bol, True, 200,
        None,
        {"request_id": "string", "anchor": "object"},
        None,
        ("UNKNOWN_BOL", "ALREADY_SEALED"),
    ),
    Route(
        "GET", "/bols/{id}/components/{cid}/access", "resolve_access",
        "Access metadata for a component, scoped to the BoL's BoM",
        _resolve_access, False, 200, None,
        {"*": "map[string,string]"},
        None,
        ("UNKNOWN_BOL", "COMPONENT_NOT_IN_BOM", "UNKNOWN_ID"),
    ),
    Route(
        "GET", "/bols/{id}/proofs/{leaf_index}", "inclusion_proof",
        "Merkle inclusion proof for one leaf of a sealed BoL",
        _inclusion_proof, False, 200, None,
        {"leaf_b64": "string", "merkle_root": "string", "proof": "object"},
        None,
        ("UNKNOWN_BOL", "BOL_NOT_SEALED", "UNKNOWN_ID", "MALFORMED_BODY"),
    ),
    Route(
        "POST", "/ledger/verify-inclusion", "verify_inclusion",
        "Check a leaf/proof pair against a Merkle root",
        _verify_inclusion, False, 200,
        {"leaf_b64": "string", "proof": "object", "merkle_root": "string"},
        {"included": "bool"},
        None,
        ("MALFORMED_BODY", "MALFORMED_PROOF"),
    ),
    Route(
        "GET", "/ledger/verify", "verify_ledger",
        "Recompute and check the whole hash chain",
        _ledger_verify, False, 200, None,
        {"ok": "bool", "first_bad_index": "int?"},
        None,
        (),
    ),
    Route(
        "GET", "/ledger/export", "export_ledger",
        "Newline-delimited canonical JSON ledger entries",
        _ledger_export, False, 200, None,
        {"*": "ndjson stream"},
        None,
        (),
    ),
    Route(
        "GET", "/schema", "schema",
        "This document",
        _schema, False, 200, None,
        {"service": "string", "version": "string", "base_path": "string",
         "error_codes": "map[string,object]", "routes": "array[object]"},
        None,
        (),
    ),
    Route(
        "GET", "/healthz", "health",
        "Liveness probe",
        _healthz, False, 200, None,
        {"status": "string"},
        None,
        (),
    ),
)


def build_schema(base_path: str = "") -> dict[str, Any]:
    routes = []
    for route in ROUTES:
        doc: dict[str, Any] = {
            "method": route.method,
            "path": route.path,
            "name": route.name,
            "summary": route.summary,
            "success_status": route.success_status,
            "mutation": route.mutation,
            "response": route.response,
            "errors": sorted(set(route.errors) | {"UNKNOWN_ROUTE", "STORAGE_FAILURE"}),
        }
        if route.request is not None:
            doc["request"] = route.request
        if route.query is not None:
            doc["query"] = route.query
        routes.append(doc)
    return {
        "service": "bomtrace",
        "version": __version__,
        "base_path": base_path,
        "error_codes": {
            code: {"status": status} for code, status in sorted(ERROR_STATUS.items())
        },
        "routes": routes,
    }


# -- dispatcher ----------------------------------------------------------


def _match(method: str, path: str) -> tuple[Route | None, dict[str, str], bool]:
    """Returns (route, params, path_known). path_known distinguishes 405-ish."""
    segments = [s for s in path.split("/") if s != ""]
    path_known = False
    for route in ROUTES:
        pattern = [s for s in route.path.split("/") if s != ""]
        if len(pattern) != len(segments):
            continue
        params: dict[str, str] = {}
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


def _error_body(code: str, message: str, detail: dict | None) -> dict[str, Any]:
    body: dict[str, Any] = {"code": code, "message": message}
    if detail:
        body["detail"] = detail
    return body


def dispatch(
    gateway: Gateway,
    method: str,
    path: str,
    query: str | dict[str, str] = "",
    body: bytes | None = None,
    base_path: str = "",
) -> tuple[int, str, bytes]:
    """Route one request; returns (status, content type, body bytes)."""
    if base_path:
        if not path.startswith(base_path):
            doc = _error_body("UNKNOWN_ROUTE", f"no route for {method} {path}", None)
            return 404, JSON_TYPE, canonical_bytes(doc)
        path = path[len(base_path):] or "/"

    if isinstance(query, str):
        query = dict(parse_qsl(query))

    route, params, path_known = _match(method, path)
    if route is None:
        message = (
            f"method {method} not supported for {path}"
            if path_known
            else f"no route for {method} {path}"
        )
        return 404, JSON_TYPE, canonical_bytes(_error_body("UNKNOWN_ROUTE", message, None))

    parsed_body: dict[str, Any] | None = None
    if body:
        try:
            parsed_body = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            doc = _error_body("MALFORMED_BODY", f"request body is not valid JSON: {exc}", None)
            return 400, JSON_TYPE, canonical_bytes(doc)
        if not isinstance(parsed_body, dict):
            doc = _error_body("MALFORMED_BODY", "request body must be a JSON object", None)
            return 400, JSON_TYPE, canonical_bytes(doc)
    if parsed_body is None and route.request is not None:
        parsed_body = {}

    try:
        ledger_before = gateway.ledger.count
        if route.name == "schema":
            result = _schema(gateway, params, query, parsed_body, base_path=base_path)
        else:
            result = route.handler(gateway, params, query, parsed_body)
        if route.mutation:
            request_id = gateway.request_ids.new_id(REQUEST)
            result = {"request_id": request_id, **result}
            logger.info(
                "request %s: %s %s -> ledger entries [%d..%d)",
                request_id, method, path, ledger_before, gateway.ledger.count,
            )
    except BomTraceError as exc:
        status = ERROR_STATUS.get(exc.code, 500)
        return status, JSON_TYPE, canonical_bytes(_error_body(exc.code, exc.message, exc.detail))
    except (TypeError, KeyError, ValueError) as exc:
        doc = _error_body("MALFORMED_BODY", f"invalid request: {exc}", None)
        return 400, JSON_TYPE, canonical_bytes(doc)
    except Exception:
        # a fault in the program, not in the request: answer rather than
        # drop the connection, and keep the traceback in the log
        logger.exception("request failed: %s %s", method, path)
        doc = _error_body("INTERNAL", f"internal error handling {method} {path}", None)
        return 500, JSON_TYPE, canonical_bytes(doc)

    if isinstance(result, bytes):
        return route.success_status, NDJSON_TYPE, result
    return route.success_status, JSON_TYPE, canonical_bytes(result)
