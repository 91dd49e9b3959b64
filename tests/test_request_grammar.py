"""The request grammar: every ``Route.request`` shape parses, and ``dispatch``
answers any body with a documented code and never with a fault of its own."""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bomtrace.api import ERROR_STATUS, JSON_TYPE, ROUTES, _check_body, _shape, dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.errors import MalformedBody
from bomtrace.gateway import Gateway
from conftest import HPC_MANIFEST

EXAMPLES = 50  # per route; a fixed seed keeps the suite repeatable


def test_every_route_request_shape_parses():
    shapes = [shape for route in ROUTES for shape in (route.request or {}).values()]
    assert shapes
    for shape in shapes:
        assert callable(_shape(shape.rstrip("?"))), shape


@pytest.mark.parametrize("shape, good, bad", [
    ("string", ["", "x"], [None, 1, [], {}]),
    ("int", [0, -3, 10**30], [True, 1.0, "1", None]),
    ("object", [{}, {"a": [1]}], [[], "x", None]),
    ("string (data_source|artifact)", ["data_source", "artifact"], ["Artifact", 1, None]),
    ("array[string]", [[], ["a", "b"]], [["a", 1], "ab", {}]),
    ("array[object|string]", [[], ["a", {}]], [[1], [None]]),
    ("map[string,string]|array[[string,string]]",
     [{}, {"k": "v"}, [], [["k", "v"]]], [{"k": 1}, [["k"]], [["k", "v", "w"]], "ab"]),
])
def test_shape_accepts_and_refuses(shape, good, bad):
    check = _shape(shape)
    assert all(check(value) for value in good)
    assert not any(check(value) for value in bad)


def test_unknown_shape_is_refused():
    for shape in ("float", "array[float]", "[string,]", "map[int,string]", ""):
        with pytest.raises(KeyError):
            _shape(shape)


def test_optional_field_may_be_absent_or_null():
    request = {"name": "string", "note": "string?"}
    _check_body(request, {"name": "n"})
    _check_body(request, {"name": "n", "note": None, "unknown": 1.5})
    with pytest.raises(MalformedBody, match="missing required field 'name'"):
        _check_body(request, {"note": "x"})
    with pytest.raises(MalformedBody, match="field 'name' has the wrong type"):
        _check_body(request, {"name": None})
    with pytest.raises(MalformedBody, match="field 'note' has the wrong type"):
        _check_body(request, {"name": "n", "note": 5})


# -- dispatch never faults, whatever the body ---------------------------------


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A healthy store with a BoM, an open and a sealed BoL, and their ids."""
    gateway = Gateway(tmp_path_factory.mktemp("property") / "data",
                      deterministic_ids=True, clock=lambda: 1_700_000_000_000)
    bom = gateway.define_bom(copy.deepcopy(HPC_MANIFEST))
    assembly = bom.assemblies[0]
    component = gateway.get_assembly(assembly).input_data[0]
    open_bol = gateway.instantiate_bol(bom.id)
    sealed = gateway.instantiate_bol(bom.id)
    gateway.record_observation(sealed.id, component, "x")
    gateway.seal_bol(sealed.id)
    ids = {"components": component, "assemblies": assembly, "boms": bom.id,
           "bols": open_bol.id, "sealed": sealed.id}
    yield gateway, ids
    gateway.close()


FIELD_NAMES = sorted({key for route in ROUTES for key in (route.request or {})}
                     | {"kind", "metadata", "leaf_index", "siblings"})
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)  # lone surrogates too
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
          | st.sampled_from(["data_source", "artifact", "\ud800", "ab" * 32, "left"]))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | TEXT, inner, max_size=4),
    max_leaves=12,
)


def _body(route):
    fields = st.fixed_dictionaries({}, optional={key: JSON for key in route.request or {}})
    return st.none() | fields.map(json.dumps).map(str.encode) | JSON.map(
        lambda doc: json.dumps(doc).encode())


def _path(route, ids, draw_id):
    segments = route.path.split("/")
    for index, segment in enumerate(segments):
        if segment == "{id}":
            segments[index] = draw_id(ids[segments[index - 1]])
        elif segment == "{cid}":
            segments[index] = draw_id(ids["components"])
        elif segment == "{leaf_index}":
            segments[index] = draw_id("0")
    return "/".join(segments)


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.name)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_dispatch_answers_every_body_with_a_documented_code(store, route, data):
    gateway, ids = store
    if "/bols/{id}/proofs" in route.path:
        ids = {**ids, "bols": ids["sealed"]}
    path = _path(route, ids, lambda real: data.draw(st.just(real) | TEXT))
    query = data.draw(st.sampled_from(["", "scope=global", f"scope={ids['boms']}"])
                      | TEXT.map(lambda text: {"scope": text}))
    body = data.draw(_body(route))
    status, ctype, answer = dispatch(gateway, route.method, path, query, body)
    assert status != 500, answer
    if ctype == JSON_TYPE:
        doc = json.loads(answer)
        assert canonical_bytes(doc) == answer
        if status >= 400:
            assert ERROR_STATUS[doc["code"]] == status, doc
    else:
        assert route.name == "export_ledger" and status == 200
