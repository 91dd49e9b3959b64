import http.server
import json
import threading

import pytest

from bomtrace.api import ROUTES, dispatch
from bomtrace.cli import ENDPOINTS, main
from bomtrace.errors import StorageFailure
from bomtrace.gateway import Gateway
from bomtrace.server import ApiServer
from bomtrace.store import LOG_NAME, Store
from conftest import HPC_MANIFEST
from logutil import overwrite


@pytest.fixture
def workdir(tmp_path):
    manifest = tmp_path / "hpc.bom.json"
    manifest.write_text(json.dumps(HPC_MANIFEST))
    return tmp_path


def run_cli(workdir, *args, json_mode=False, capsys=None):
    argv = ["--embedded", "--data-dir", str(workdir / "data"), "--deterministic-ids"]
    if json_mode:
        argv.append("--json")
    argv += list(args)
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_bom_define_prints_id(workdir, capsys):
    code, out, err = run_cli(workdir, "bom", "define", str(workdir / "hpc.bom.json"), capsys=capsys)
    assert code == 0
    assert out.strip().startswith("bom_")
    assert err == ""


def _scripted_run(workdir, capsys):
    """define -> instantiate -> record -> seal; returns the ids involved."""
    code, out, _ = run_cli(workdir, "bom", "define", str(workdir / "hpc.bom.json"), capsys=capsys)
    assert code == 0
    bom_id = out.strip()
    code, out, _ = run_cli(workdir, "bom", "show", bom_id, json_mode=True, capsys=capsys)
    assert code == 0
    detail = json.loads(out)
    by_name = {
        comp["name"]: comp["id"]
        for assembly in detail["assemblies"]
        for key in ("inputData", "inputArtifacts", "outputData", "outputArtifacts")
        for comp in assembly[key]
    }
    code, out, _ = run_cli(workdir, "bol", "new", bom_id, "--label", "run-1",
                           json_mode=True, capsys=capsys)
    assert code == 0
    bol_id = json.loads(out)["bol"]["id"]
    code, _, _ = run_cli(workdir, "bol", "record", bol_id, by_name["Result"],
                         "congestion_score=7", capsys=capsys)
    assert code == 0
    code, _, _ = run_cli(workdir, "bol", "seal", bol_id, capsys=capsys)
    assert code == 0
    return bom_id, bol_id, by_name, detail


def test_empty_label_and_note_are_sent(workdir, capsys):
    """An empty ``--label`` or ``--note`` is a value, distinct from an absent one."""
    code, out, _ = run_cli(workdir, "bom", "define", str(workdir / "hpc.bom.json"), capsys=capsys)
    assert code == 0
    code, out, _ = run_cli(workdir, "bol", "new", out.strip(), "--label", "",
                           json_mode=True, capsys=capsys)
    assert code == 0
    bol = json.loads(out)["bol"]
    assert bol["run_label"] == ""
    cid = sorted(bol["shadow_items"])[0]
    code, out, _ = run_cli(workdir, "bol", "record", bol["id"], cid, "x", "--note", "",
                           json_mode=True, capsys=capsys)
    assert code == 0
    assert json.loads(out)["observation"]["note"] == ""
    code, out, _ = run_cli(workdir, "bol", "record", bol["id"], cid, "y",
                           json_mode=True, capsys=capsys)
    assert code == 0
    assert "note" not in json.loads(out)["observation"]


def test_scripted_case_study_trace(workdir, capsys):
    bom_id, bol_id, by_name, detail = _scripted_run(workdir, capsys)
    code, out, _ = run_cli(workdir, "trace", by_name["Result"], json_mode=True, capsys=capsys)
    assert code == 0
    graph = json.loads(out)
    names = {by_name["Traffic Scene"], by_name["Congestion Model"], by_name["Result"],
             detail["assemblies"][0]["id"]}
    assert set(graph["nodes"]) == names
    # CLI result equals the library's
    gateway = Gateway(workdir / "data")
    try:
        assert set(graph["nodes"]) == gateway.trace(by_name["Result"]).nodes
    finally:
        gateway.close()


def test_json_output_byte_identical_to_api(workdir, capsys):
    bom_id, bol_id, by_name, _ = _scripted_run(workdir, capsys)
    cases = [
        (["bom", "show", bom_id], "GET", f"/boms/{bom_id}", ""),
        (["bol", "report", bol_id], "GET", f"/bols/{bol_id}/report", ""),
        (["trace", by_name["Result"]], "GET",
         f"/components/{by_name['Result']}/trace", "scope=global"),
        (["track", by_name["Traffic Scene"]], "GET",
         f"/components/{by_name['Traffic Scene']}/track", "scope=global"),
        (["uses", by_name["Congestion Model"]], "GET",
         f"/components/{by_name['Congestion Model']}/uses", ""),
        (["ledger", "verify"], "GET", "/ledger/verify", ""),
    ]
    for argv, method, path, query in cases:
        code, out, _ = run_cli(workdir, *argv, json_mode=True, capsys=capsys)
        assert code == 0
        gateway = Gateway(workdir / "data")
        try:
            _, _, expected = dispatch(gateway, method, path, query)
        finally:
            gateway.close()
        assert out.encode() == expected, argv


def test_record_on_sealed_bol_exits_one(workdir, capsys):
    _, bol_id, by_name, _ = _scripted_run(workdir, capsys)
    code, out, err = run_cli(workdir, "bol", "record", bol_id, by_name["Result"], "x",
                             capsys=capsys)
    assert code == 1
    assert "BOL_SEALED" in err
    assert out == ""


def test_unknown_id_exits_one(workdir, capsys):
    code, _, err = run_cli(workdir, "bom", "show", "bom_" + "0" * 32, capsys=capsys)
    assert code == 1
    assert "UNKNOWN_BOM" in err


def test_argument_that_is_not_utf8_exits_one(workdir, capsys):
    # Python hands a non-UTF-8 argv byte over as a lone surrogate
    not_utf8 = b"bom_\xff".decode("utf-8", "surrogateescape")
    code, out, err = run_cli(workdir, "bom", "show", not_utf8, capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error[MALFORMED_BODY]:"), err


@pytest.mark.parametrize(
    "log",
    [
        b'{"writes":[{"data_b64":"abc","key":"k","kind":"component","revision":1}]}\n',
        b'{"writes":[]}\n{"writes":[{"key":\n{"writes":[]}\n',
        b'{"writes":[{"key":"k","kind":"component","revision":1}]}\t{}\n'
        b'{"writes":[{"key":5,"kind":"component","revision":1}]}\t{}\n',
    ],
    ids=["bad_base64", "malformed_middle_line", "int_key"],
)
def test_corrupt_data_directory_exits_one(workdir, capsys, log):
    data = workdir / "data"
    data.mkdir()
    (data / LOG_NAME).write_bytes(log)
    code, out, err = run_cli(workdir, "ledger", "verify", capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error[STORAGE_FAILURE]: corrupt store log at byte "), err
    assert "Traceback" not in err


def test_usage_errors_exit_two(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--embedded", "--data-dir", str(workdir / "data"), "bom"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--embedded", "--data-dir", str(workdir / "data"), "frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bom", "show", "x"])  # neither --server nor --embedded
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--embedded", "bom", "show", "x"])
    assert exc.value.code == 2
    assert "--embedded requires --data-dir" in capsys.readouterr().err


def test_missing_manifest_file_exits_one(workdir, capsys):
    code, _, err = run_cli(workdir, "bom", "define", str(workdir / "nope.json"), capsys=capsys)
    assert code == 1
    assert "cannot read manifest" in err


def test_ledger_export_writes_api_bytes(workdir, capsys):
    _scripted_run(workdir, capsys)
    target = workdir / "ledger.ndjson"
    code, out, _ = run_cli(workdir, "ledger", "export", str(target), capsys=capsys)
    assert code == 0
    assert "exported 3 entries" in out
    gateway = Gateway(workdir / "data")
    try:
        _, _, expected = dispatch(gateway, "GET", "/ledger/export")
    finally:
        gateway.close()
    assert target.read_bytes() == expected
    code, out, _ = run_cli(
        workdir, "ledger", "export", str(target), json_mode=True, capsys=capsys
    )
    assert code == 0
    assert out.encode() == expected == target.read_bytes()


def test_every_subcommand_maps_to_one_known_endpoint():
    expected_commands = {
        "bom define", "bom show", "bol new", "bol record", "bol seal",
        "bol report", "trace", "track", "uses", "ledger verify", "ledger export",
    }
    assert set(ENDPOINTS) == expected_commands
    route_set = {(r.method, r.path) for r in ROUTES}
    for command, (method, path) in ENDPOINTS.items():
        assert (method, path) in route_set, command


def test_human_output_mentions_names(workdir, capsys):
    code, out, _ = run_cli(workdir, "bom", "define", str(workdir / "hpc.bom.json"), capsys=capsys)
    bom_id = out.strip()
    code, out, _ = run_cli(workdir, "bom", "show", bom_id, capsys=capsys)
    assert code == 0
    for expected in ("HPC Congestion", "Traffic Scene Analysis", "Traffic Scene",
                     "Congestion Model", "Result", "dataAccess"):
        assert expected in out


def test_human_output_of_each_command(workdir, capsys):
    def human(*argv):
        code, out, err = run_cli(workdir, *argv, capsys=capsys)
        assert (code, err) == (0, ""), argv
        return out.splitlines()

    (bom_id,) = human("bom", "define", str(workdir / "hpc.bom.json"))
    code, out, _ = run_cli(workdir, "bom", "show", bom_id, json_mode=True, capsys=capsys)
    (assembly,) = json.loads(out)["assemblies"]
    scene, model, result = (
        assembly[key][0]["id"] for key in ("inputData", "inputArtifacts", "outputData")
    )
    assert human("uses", scene) == [
        "static:", f"  input of {assembly['id']} in {bom_id}", "dynamic:", "  (none)",
    ]

    (line,) = human("bol", "new", bom_id, "--label", "run-1")
    bol_id = line.split()[0]
    assert line == f"{bol_id} (bom {bom_id}, 3 shadow items)"
    assert human("bol", "report", bol_id) == [
        f"report for {bol_id}",
        "  anchor: none (BoL still open)",
        f"  bom: HPC Congestion [{bom_id}]",
        *(f"  {cid}: 0 observation(s)" for cid in sorted([scene, model, result])),
    ]
    human("bol", "record", bol_id, result, "congestion_score=7", "--note", "peak")
    (line,) = human("bol", "seal", bol_id)
    anchor = line.split(": ", 1)[1]
    assert line == f"sealed {bol_id}: {anchor}"
    assert anchor.endswith(" leaves=2 ledger_index=2")
    report = human("bol", "report", bol_id)
    assert report[:3] == [
        f"report for {bol_id}", f"  anchor: {anchor}", f"  bom: HPC Congestion [{bom_id}]",
    ]
    at = report.index(f"  {result}: 1 observation(s)")
    recorded_at, rest = report[at + 1].strip().split("  ", 1)
    assert recorded_at.isdigit() and rest == "congestion_score=7  # peak"

    assert human("trace", result) == [
        f"origin: {result}",
        "nodes (4):", *(f"  {node}" for node in sorted([scene, model, assembly["id"], result])),
        "edges (3):",
        *(f"  {src} -> {dst}" for src, dst in sorted(
            [(scene, assembly["id"]), (model, assembly["id"]), (assembly["id"], result)]
        )),
    ]
    assert human("track", scene) == [
        f"origin: {scene}",
        "nodes (3):", *(f"  {node}" for node in sorted([scene, assembly["id"], result])),
        "edges (2):",
        *(f"  {src} -> {dst}" for src, dst in sorted(
            [(scene, assembly["id"]), (assembly["id"], result)]
        )),
    ]
    assert human("uses", scene)[2:] == ["dynamic:", f"  {bol_id}"]
    gateway = Gateway(workdir / "data", deterministic_ids=True)
    try:
        lone = gateway.create_component("data_source", "Lone").id
    finally:
        gateway.close()
    assert human("uses", lone) == ["static:", "  (none)", "dynamic:", "  (none)"]

    assert human("ledger", "verify") == ["ledger ok"]
    with Store(workdir / "data") as store:
        record = store.get(f"le_{1:016d}")
        overwrite(store, record.key, record.kind, record.data.replace(b"=7", b"=8"))
    assert human("ledger", "verify") == ["ledger TAMPERED at index 1"]


def test_data_dir_that_is_a_file_exits_one(workdir, capsys):
    data = workdir / "data"
    data.write_bytes(b"")
    with pytest.raises(StorageFailure):
        Gateway(data)
    code, out, err = run_cli(workdir, "ledger", "verify", capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error[STORAGE_FAILURE]: cannot open store at {data}: "), err


def test_server_mode_round_trip(workdir, capsys):
    gateway = Gateway(workdir / "server-data", deterministic_ids=True)
    server = ApiServer(gateway, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        code = main(["--server", url, "bom", "define", str(workdir / "hpc.bom.json")])
        out, err = capsys.readouterr()
        assert code == 0, err
        bom_id = out.strip()
        code = main(["--server", url, "--json", "bom", "show", bom_id])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "HPC Congestion"
        # server-side bytes equal embedded dispatch bytes for the same store
        _, _, direct = dispatch(gateway, "GET", f"/boms/{bom_id}")
        assert out.encode() == direct
        code = main(["--server", url, "bom", "show", "bom_" + "1" * 32])
        _, err = capsys.readouterr()
        assert code == 1 and "UNKNOWN_BOM" in err
    finally:
        server.shutdown()
        server.server_close()
        gateway.close()


def test_server_and_embedded_answer_ids_that_are_not_ascii_alike(workdir, capsys):
    _, _, by_name, _ = _scripted_run(workdir, capsys)
    result = by_name["Result"]
    # Python hands a non-UTF-8 argv byte over as a lone surrogate
    not_utf8 = b"bom_\xff".decode("utf-8", "surrogateescape")
    cases = [
        (["bom", "show", "bom_\u00e9"], "UNKNOWN_BOM"),
        (["trace", result, "--scope", "bom_\u00e9"], "UNKNOWN_BOM"),
        (["bom", "show", not_utf8], "MALFORMED_BODY"),
        (["trace", result, "--scope", not_utf8], "MALFORMED_BODY"),
    ]
    gateway = Gateway(workdir / "data")
    server = ApiServer(gateway, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        for argv, code in cases:
            embedded = run_cli(workdir, *argv, capsys=capsys)
            assert embedded[:2] == (1, "") and embedded[2].startswith(f"error[{code}]:"), argv
            served = main(["--server", url, *argv]), *capsys.readouterr()
            assert served == embedded, argv
    finally:
        server.shutdown()
        server.server_close()
        gateway.close()


def test_server_config_from_environment(monkeypatch, tmp_path):
    from bomtrace.server import build_parser

    monkeypatch.setenv("BOMTRACE_DATA_DIR", str(tmp_path))
    monkeypatch.setenv("BOMTRACE_PORT", "9999")
    monkeypatch.setenv("BOMTRACE_DETERMINISTIC_IDS", "1")
    args = build_parser().parse_args([])
    assert args.data_dir == str(tmp_path)
    assert args.port == 9999
    assert args.deterministic_ids is True
    assert args.host == "127.0.0.1"
    args = build_parser().parse_args(["--port", "7777"])  # flags beat env
    assert args.port == 7777


def test_server_unreachable_exits_one(workdir, capsys):
    code = main(["--server", "http://127.0.0.1:9", "ledger", "verify"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "unreachable" in err


class _ErrorStub(http.server.BaseHTTPRequestHandler):
    """Answers every GET with 502 and the server's ``body``, as a failing proxy might."""

    def do_GET(self):
        self.send_response(502)
        self.send_header("Content-Length", str(len(self.server.body)))
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("body, expected", [
    (b'["upstream", "down"]', "error: HTTP 502"),
    (b'"busy"', "error: HTTP 502"),
    (b'{"code": "X"}', "error: HTTP 502"),
    (b"<html><body>Bad Gateway</body></html>", "error: HTTP 502"),
    (b'{"code": "X", "message": "upstream down"}', "error[X]: upstream down"),
], ids=["list", "string", "object_without_message", "html", "error_document"])
def test_error_body_of_any_shape_exits_one(capsys, body, expected):
    stub = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ErrorStub)
    stub.body = body
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    try:
        code = main(["--server", f"http://127.0.0.1:{stub.server_address[1]}", "ledger", "verify"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", expected + "\n")
    finally:
        stub.shutdown()
        stub.server_close()
