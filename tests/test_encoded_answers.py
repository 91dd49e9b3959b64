"""`GET /bols/{id}` and `/report` answers, joined from rendered parts, are the canonical bytes.

The routes join each observation's bytes, rendered once, and a frozen BoM's
graph and detail, rendered once, into their answer. That answer must equal
``canonical_bytes`` of the library's ``Bol`` and ``LineageReport``, which copy
and normalize the whole run on every call: for non-NFC text anywhere, for
shadow items with no observations, for open and sealed runs, after a reopen,
and while observations keep arriving between reads. Held text is NFC, as
it was committed, unless the log was rewritten by hand; a rewrite that
decomposes it checks that the joined answers normalize it too.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bomtrace.api import dispatch
from bomtrace.canonical import canonical_bytes
from bomtrace.gateway import Gateway
from conftest import FIXED_NOW

# NFC and non-NFC spellings, a control character before a combining mark
# ("\n\u0307": NFC leaves it alone, but its encoding holds "n\u0307", which
# NFC composes), and a singleton that NFC replaces (U+212B)
TEXT = st.text(
    st.sampled_from(["a", "e", "n", "\n", "\u0301", "\u0307", "\u00e9", "\u1e45", "\u212b",
                     "\x00"]),
    max_size=4,
)
OPTIONAL = st.none() | TEXT
DECOMPOSED = ("\u00e9".encode(), "e\u0301".encode())

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("bom"), TEXT, OPTIONAL),
        st.tuples(st.just("bol"), st.integers(0, 3), OPTIONAL),
        st.tuples(st.just("observe"), st.integers(0, 7), st.integers(0, 2), TEXT, OPTIONAL),
        st.tuples(st.just("seal"), st.integers(0, 7)),
        st.tuples(st.just("read"), st.integers(0, 7)),
        st.tuples(st.just("reopen")),
        st.tuples(st.just("decompose")),
    ),
    max_size=24,
)


def open_gateway(path):
    return Gateway(path, deterministic_ids=True, clock=lambda: FIXED_NOW)


def manifest(text, description):
    doc = {
        "name": "bom " + text,
        "assemblies": [{
            "name": "stage " + text,
            "inputData": [{"name": "in " + text, "metadata": {"k" + text: "v" + text}}],
            "inputArtifacts": [{"name": "model " + text}],
            "outputData": [{"name": "out " + text}],
        }],
    }
    if description is not None:
        doc["description"] = description
    return doc


def assert_answers_match(gw, bol_id):
    bol = canonical_bytes(gw.require_bol(bol_id).to_dict())
    report = canonical_bytes(gw.lineage_report(bol_id).to_dict())
    assert dispatch(gw, "GET", f"/bols/{bol_id}") == (200, "application/json", bol)
    assert dispatch(gw, "GET", f"/bols/{bol_id}/report") == (200, "application/json", report)


@settings(max_examples=60, deadline=None)
@given(TEXT, OPTIONAL, OPTIONAL, OPS)
@example("\n\u0307", "e\u0301", "\u212b", [
    ("read", 0), ("observe", 0, 2, "\n\u0307", "e\u0301"), ("read", 0),
    ("observe", 0, 2, "n", None), ("reopen",), ("read", 0), ("observe", 0, 0, "\u1e45", None),
    ("bol", 0, None), ("decompose",), ("read", 1), ("seal", 0),
])
def test_joined_answers_are_the_canonical_bytes(text, description, label, ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        gw = open_gateway(path)
        try:
            boms = [gw.define_bom(manifest(text, description)).id]
            bols = [gw.instantiate_bol(boms[0], run_label=label).id]
            for op in ops:
                kind, *args = op
                if kind == "bom":
                    boms.append(gw.define_bom(manifest(*args)).id)
                elif kind == "bol":
                    bom_id, label = boms[args[0] % len(boms)], args[1]
                    bols.append(gw.instantiate_bol(bom_id, run_label=label).id)
                elif kind == "observe":
                    bol = gw.require_bol(bols[args[0] % len(bols)])
                    if bol.anchor is None:
                        cids = sorted(bol.shadow_items)
                        gw.record_observation(bol.id, cids[args[1] % len(cids)], args[2], args[3])
                elif kind == "seal":
                    bol = gw.require_bol(bols[args[0] % len(bols)])
                    if bol.anchor is None:
                        gw.seal_bol(bol.id)
                elif kind == "read":
                    assert_answers_match(gw, bols[args[0] % len(bols)])
                elif kind in ("reopen", "decompose"):
                    gw.close()
                    if kind == "decompose":
                        log = path / "store.ndjson"
                        log.write_bytes(log.read_bytes().replace(*DECOMPOSED))
                    gw = open_gateway(path)
            for bol_id in bols:
                assert_answers_match(gw, bol_id)
        finally:
            gw.close()
