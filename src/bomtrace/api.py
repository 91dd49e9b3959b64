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
import json
import logging
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable
from urllib.parse import parse_qsl

from . import __version__
from .canonical import Encoded, canonical_bytes
from .errors import BodyTooLarge, BomTraceError, MalformedBody, UnknownRoute
from .gateway import Gateway
from .ids import REQUEST
from .ledger import InclusionProof, verify_inclusion
from .lineage import GLOBAL_SCOPE
from .model import ROLES

logger = logging.getLogger(__name__)

JSON_TYPE = "application/json"
NDJSON_TYPE = "application/x-ndjson"

# Largest request body accepted. The server refuses a longer Content-Length
# without reading the body; dispatch refuses a longer body it is handed.
MAX_BODY_BYTES = 8 * 1024 * 1024

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
    "BODY_TOO_LARGE": 413,
    "STORAGE_FAILURE": 500,
    "INTERNAL": 500,
}

# codes any route may answer, whatever its own errors
_ANY_ROUTE_ERRORS = {"MALFORMED_BODY", "UNKNOWN_ROUTE", "BODY_TOO_LARGE", "STORAGE_FAILURE",
                     "INTERNAL"}


# -- handlers: each reads a body already checked against its Route.request


def _create_component(gw: Gateway, params, query, body):
    component = gw.create_component(
        kind=body["kind"],
        name=body["name"],
        description=body.get("description"),
        access_metadata=body.get("metadata"),
    )
    return {"component": component.to_dict()}


def _get_component(gw: Gateway, params, query, body):
    return gw.require_component(params["id"]).to_dict()


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
        name=body["name"],
        description=body.get("description"),
        **{attribute: body.get(key) or () for key, attribute, _ in ROLES},
    )
    return {"assembly": assembly.to_dict()}


def _get_assembly(gw: Gateway, params, query, body):
    return gw.require_assembly(params["id"]).to_dict()


def _define_bom(gw: Gateway, params, query, body):
    bom = gw.define_bom(body)
    return {"bom": gw.bom_detail(bom.id)}


def _get_bom(gw: Gateway, params, query, body):
    return gw.bom_detail(params["id"])


def _update_bom(gw: Gateway, params, query, body):
    # a null description clears it; an absent one leaves it as it is
    description = {"description": body["description"]} if "description" in body else {}
    gw.update_bom(params["id"], name=body.get("name"), assembly_ids=body.get("assemblies"),
                  expected_revision=body.get("expected_revision"), **description)
    return {"bom": gw.bom_detail(params["id"])}


def _validate_bom(gw: Gateway, params, query, body):
    return gw.validate_bom(bom_id=params["id"]).to_dict()


def _instantiate_bol(gw: Gateway, params, query, body):
    bol = gw.instantiate_bol(params["id"], run_label=body.get("run_label"))
    return {"bol": bol.to_dict()}


def _get_bol(gw: Gateway, params, query, body):
    return gw.encoded_bol(params["id"])


def _bol_report(gw: Gateway, params, query, body):
    return gw.encoded_report(params["id"])


def _record_observation(gw: Gateway, params, query, body):
    observation, index = gw.record_observation_indexed(
        params["id"],
        component_id=body["component_id"],
        payload=body["payload"],
        note=body.get("note"),
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
    text = params["leaf_index"]
    try:
        # int() alone would also take "+1", "1_0", " 1" and non-ASCII digits
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError(text)
        leaf_index = int(text)  # which also refuses more than 4300 digits
    except ValueError:
        raise MalformedBody("leaf index must be an integer") from None
    leaf, proof = gw.inclusion_proof(params["id"], leaf_index)
    return {
        "leaf_b64": base64.b64encode(leaf).decode("ascii"),
        "merkle_root": gw.get_anchor(params["id"]).merkle_root,
        "proof": proof.to_dict(),
    }


def _verify_inclusion(gw: Gateway, params, query, body):
    try:
        leaf = base64.b64decode(body["leaf_b64"], validate=True)
    except ValueError as exc:  # binascii.Error is a ValueError
        raise MalformedBody(f"leaf_b64 is not valid base64: {exc}") from None
    proof = InclusionProof.from_dict(body["proof"])
    return {"included": verify_inclusion(leaf, proof, body["merkle_root"])}


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
         "description": "string?",
         "metadata": "map[string,string]|array[[string,string]]?"},
        {"request_id": "string", "component": "object"},
        None,
        ("EMPTY_NAME", "DUPLICATE_METADATA_KEY"),
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
        ("EMPTY_NAME", "DANGLING_REF", "KIND_MISMATCH",
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
         "components": "array[object]?", "assemblies": "array[object|string]?"},
        {"request_id": "string", "bom": "object (nested detail)"},
        None,
        ("EMPTY_NAME", "DUPLICATE_METADATA_KEY", "DANGLING_REF",
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
        ("UNKNOWN_BOM", "BOM_FROZEN", "EMPTY_NAME", "DANGLING_REF",
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
        ("UNKNOWN_BOL", "COMPONENT_NOT_IN_BOM", "BOL_SEALED"),
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
        ("UNKNOWN_BOL", "BOL_NOT_SEALED", "UNKNOWN_ID"),
    ),
    Route(
        "POST", "/ledger/verify-inclusion", "verify_inclusion",
        "Check a leaf/proof pair against a Merkle root",
        _verify_inclusion, False, 200,
        {"leaf_b64": "string", "proof": "object", "merkle_root": "string"},
        {"included": "bool"},
        None,
        ("MALFORMED_PROOF",),
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
            "errors": sorted(set(route.errors) | _ANY_ROUTE_ERRORS),
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


def _route_table(routes: tuple[Route, ...]) -> dict[int, list[tuple[Route, tuple, tuple]]]:
    """Each route with its (position, literal) and (position, parameter) segments.

    Routes are grouped by segment count, in ``ROUTES`` order within a group.
    """
    table: dict[int, list[tuple[Route, tuple, tuple]]] = {}
    for route in routes:
        pattern = [s for s in route.path.split("/") if s != ""]
        literals, names = [], []
        for pos, pat in enumerate(pattern):
            if pat.startswith("{") and pat.endswith("}"):
                names.append((pos, pat[1:-1]))
            else:
                literals.append((pos, pat))
        table.setdefault(len(pattern), []).append((route, tuple(literals), tuple(names)))
    return table


_ROUTE_TABLE = _route_table(ROUTES)


def _match(method: str, path: str) -> tuple[Route | None, dict[str, str], bool]:
    """Returns (route, params, path_known). path_known distinguishes 405-ish."""
    segments = [s for s in path.split("/") if s != ""]
    path_known = False
    for route, literals, names in _ROUTE_TABLE.get(len(segments), ()):
        for pos, literal in literals:
            if segments[pos] != literal:
                break
        else:
            path_known = True
            if route.method == method:
                return route, {name: segments[pos] for pos, name in names}, True
    return None, {}, path_known


def _split(shape: str, sep: str) -> list[str]:
    """Split ``shape`` at each ``sep`` outside brackets and parentheses."""
    parts, depth, start = [], 0, 0
    for i, char in enumerate(shape):
        depth += (char in "[(") - (char in "])")
        if char == sep and depth == 0:
            parts.append(shape[start:i])
            start = i + 1
    return parts + [shape[start:]]


@cache
def _shape(shape: str) -> Callable[[Any], bool]:
    """Compile one ``Route.request`` shape (grammar in README) to a predicate."""
    options = _split(shape, "|")
    if len(options) > 1:
        checks = [_shape(option) for option in options]
        return lambda value: any(check(value) for check in checks)
    if shape.startswith("string ("):
        allowed = frozenset(shape[8:-1].split("|"))
        return lambda value: isinstance(value, str) and value in allowed
    head, _, rest = shape.partition("[")
    if head == "array":
        item = _shape(rest[:-1])
        return lambda value: isinstance(value, list) and all(map(item, value))
    if head == "map" and rest.startswith("string,"):
        item = _shape(rest[7:-1])
        return lambda value: isinstance(value, dict) and all(map(item, value.values()))
    if head == "" and rest:
        items = [_shape(part) for part in _split(rest[:-1], ",")]
        return lambda value: (isinstance(value, list) and len(value) == len(items)
                              and all(check(v) for check, v in zip(items, value)))
    kind = {"string": str, "int": int, "object": dict}[shape]
    return lambda value: type(value) is kind  # so a JSON true is not an int


def _check_body(request: dict[str, str], body: dict[str, Any]) -> None:
    """Refuse a body whose declared fields do not have their declared shapes."""
    for key, shape in request.items():
        if body.get(key) is None and shape.endswith("?"):
            continue  # an optional field may be absent or null
        if key not in body:
            raise MalformedBody(f"missing required field {key!r}")
        if not _shape(shape.rstrip("?"))(body[key]):
            raise MalformedBody(f"field {key!r} has the wrong type")


def _is_text(value: Any) -> bool:
    """False when a string anywhere in ``value`` holds an unpaired surrogate.

    JSON's ``\\ud800`` escape and a non-UTF-8 command-line argument both
    yield one; it has no UTF-8 encoding, so no answer could echo it.
    """
    stack = [value]
    while stack:  # not recursive: a parsed body may nest deeper than the stack
        item = stack.pop()
        if isinstance(item, str):
            if not item.isascii():
                try:
                    item.encode("utf-8")
                except UnicodeEncodeError:
                    return False
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return True


def error_response(error: BomTraceError) -> tuple[int, str, bytes]:
    """The answer that refuses a request: its code's status and canonical body."""
    return ERROR_STATUS.get(error.code, 500), JSON_TYPE, canonical_bytes(error.to_dict())


def dispatch(
    gateway: Gateway,
    method: str,
    path: str,
    query: str | dict[str, str] = "",
    body: bytes | None = None,
    base_path: str = "",
) -> tuple[int, str, bytes]:
    """Route one request; returns (status, content type, body bytes)."""
    try:
        if isinstance(query, str):
            query = dict(parse_qsl(query, errors="surrogateescape"))
        if not _is_text([method, path, query]):
            raise MalformedBody("request path or query is not valid UTF-8")
        if body and len(body) > MAX_BODY_BYTES:
            raise BodyTooLarge(f"request body of {len(body)} bytes exceeds {MAX_BODY_BYTES}")
        if base_path:
            if not path.startswith(base_path):
                raise UnknownRoute(f"no route for {method} {path}")
            path = path[len(base_path):] or "/"

        route, params, path_known = _match(method, path)
        if route is None:
            raise UnknownRoute(
                f"method {method} not supported for {path}"
                if path_known
                else f"no route for {method} {path}"
            )

        parsed_body: dict[str, Any] = {}
        if body:
            try:
                parsed_body = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise MalformedBody(f"request body is not valid JSON: {exc}") from None
            if not isinstance(parsed_body, dict):
                raise MalformedBody("request body must be a JSON object")
            if not _is_text(parsed_body):
                raise MalformedBody("request body holds an unpaired surrogate escape")
        if route.request is not None:
            _check_body(route.request, parsed_body)

        if route.name == "schema":
            result = _schema(gateway, params, query, parsed_body, base_path=base_path)
        else:
            result = route.handler(gateway, params, query, parsed_body)
        if route.mutation:
            request_id = gateway.request_ids.new_id(REQUEST)
            result = {"request_id": request_id, **result}
            committed = gateway.committed_entries()
            logger.info(
                "request %s: %s %s -> ledger entries [%d..%d)",
                request_id, method, path, committed.start, committed.stop,
            )
        if isinstance(result, Encoded):  # canonical JSON already
            return route.success_status, JSON_TYPE, result
        if isinstance(result, bytes):
            return route.success_status, NDJSON_TYPE, result
        return route.success_status, JSON_TYPE, canonical_bytes(result)
    except BomTraceError as exc:
        return error_response(exc)
    except Exception:
        # a fault in the program, not in the request: answer rather than
        # drop the connection, and keep the traceback in the log
        logger.exception("request failed: %s %s", method, path)
        return error_response(BomTraceError(f"internal error handling {method} {path}"))
