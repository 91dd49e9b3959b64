"""Command-line client for defining BoMs, driving runs, and auditing.

Talks to a running server (``--server http://host:port``) or directly to a
local data directory (``--embedded --data-dir PATH``); both paths go through
the same dispatcher, so ``--json`` output is byte-identical to the HTTP
response body. Exit codes: 0 success, 1 domain error (the error code is
printed to stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any
from urllib.parse import quote, urlencode

from .api import JSON_TYPE, dispatch
from .errors import StorageFailure
from .gateway import Gateway
from .model import ROLES

# subcommand -> (method, endpoint template) — one endpoint each
ENDPOINTS: dict[str, tuple[str, str]] = {
    "bom define": ("POST", "/boms"),
    "bom show": ("GET", "/boms/{id}"),
    "bol new": ("POST", "/boms/{id}/bols"),
    "bol record": ("POST", "/bols/{id}/observations"),
    "bol seal": ("POST", "/bols/{id}/seal"),
    "bol report": ("GET", "/bols/{id}/report"),
    "trace": ("GET", "/components/{id}/trace"),
    "track": ("GET", "/components/{id}/track"),
    "uses": ("GET", "/components/{id}/uses"),
    "ledger verify": ("GET", "/ledger/verify"),
    "ledger export": ("GET", "/ledger/export"),
}


class ClientError(Exception):
    pass


class EmbeddedClient:
    def __init__(self, data_dir: str, deterministic_ids: bool):
        self.gateway = Gateway(data_dir, deterministic_ids=deterministic_ids)

    def request(
        self, method: str, path: str, query: dict[str, str], body: dict | None = None
    ) -> tuple[int, bytes]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        status, _ctype, data = dispatch(self.gateway, method, path, query, payload)
        return status, data

    def close(self) -> None:
        self.gateway.close()


class HttpClient:
    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def request(
        self, method: str, path: str, query: dict[str, str], body: dict | None = None
    ) -> tuple[int, bytes]:
        # percent-encode the UTF-8 bytes, and the raw bytes of a non-UTF-8
        # argument (a lone surrogate), which the server decodes back
        url = self.base_url + quote(path, errors="surrogateescape")
        if query:
            url += "?" + urlencode(query, errors="surrogateescape")
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            url, data=payload, method=method,
            headers={"Content-Type": JSON_TYPE} if payload else {},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except urllib.error.URLError as exc:
            raise ClientError(f"server unreachable at {self.base_url}: {exc.reason}") from exc

    def close(self) -> None:
        pass


# -- human renderers -----------------------------------------------------


def _fmt_component(doc: dict) -> str:
    line = f"{doc['name']} [{doc['id']}]"
    for key, value in doc.get("metadata", {}).items():
        line += f"\n        {key}: {value}"
    return line


def _render_bom(doc: dict) -> str:
    lines = [f"bom {doc['id']}", f"  name: {doc['name']}"]
    if "description" in doc:
        lines.append(f"  description: {doc['description']}")
    lines.append(f"  frozen: {str(doc['frozen']).lower()}")
    for assembly in doc["assemblies"]:
        lines.append(f"  assembly {assembly['name']} [{assembly['id']}]")
        for key, _, _ in ROLES:
            for comp in assembly.get(key, []):
                lines.append(f"    {key}: {_fmt_component(comp)}")
    return "\n".join(lines)


def _render_graph(doc: dict) -> str:
    lines = [f"origin: {doc['origin']}", f"nodes ({len(doc['nodes'])}):"]
    lines += [f"  {node}" for node in doc["nodes"]]
    lines.append(f"edges ({len(doc['edges'])}):")
    lines += [f"  {src} -> {dst}" for src, dst in doc["edges"]]
    return "\n".join(lines)


def _render_report(doc: dict) -> str:
    lines = [f"report for {doc['bol_id']}"]
    if "anchor" in doc:
        anchor = doc["anchor"]
        lines.append(
            f"  anchor: root={anchor['merkle_root']} leaves={anchor['leaf_count']} "
            f"ledger_index={anchor['ledger_index']}"
        )
    else:
        lines.append("  anchor: none (BoL still open)")
    lines.append(f"  bom: {doc['bom_snapshot']['name']} [{doc['bom_snapshot']['id']}]")
    for cid in sorted(doc["dynamic"]):
        observations = doc["dynamic"][cid]
        lines.append(f"  {cid}: {len(observations)} observation(s)")
        for obs in observations:
            note = f"  # {obs['note']}" if "note" in obs else ""
            lines.append(f"    {obs['recorded_at']}  {obs['payload']}{note}")
    return "\n".join(lines)


def _render(command: str, doc: Any) -> str:
    if command == "bom define":
        return doc["bom"]["id"]
    if command == "bom show":
        return _render_bom(doc)
    if command == "bol new":
        bol = doc["bol"]
        return f"{bol['id']} (bom {bol['bom_id']}, {len(bol['shadow_items'])} shadow items)"
    if command == "bol record":
        return (
            f"recorded observation {doc['observation_index']} "
            f"on {doc['component_id']}"
        )
    if command == "bol seal":
        anchor = doc["anchor"]
        return (
            f"sealed {anchor['bol_id']}: root={anchor['merkle_root']} "
            f"leaves={anchor['leaf_count']} ledger_index={anchor['ledger_index']}"
        )
    if command == "bol report":
        return _render_report(doc)
    if command in ("trace", "track"):
        return _render_graph(doc)
    if command == "uses":
        lines = ["static:"]
        lines += [
            f"  {site['role']} of {site['assembly_id']} in {site['bom_id']}"
            for site in doc["static"]
        ] or ["  (none)"]
        lines.append("dynamic:")
        lines += [f"  {bol_id}" for bol_id in doc["dynamic"]] or ["  (none)"]
        return "\n".join(lines)
    # ledger verify; main answers ledger export without rendering
    if doc["ok"]:
        return "ledger ok"
    return f"ledger TAMPERED at index {doc['first_bad_index']}"


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bomtrace", description="Data supply-chain traceability client"
    )
    parser.add_argument("--server", help="API base URL, e.g. http://127.0.0.1:8080")
    parser.add_argument(
        "--embedded", action="store_true", help="run against a local data directory"
    )
    parser.add_argument("--data-dir", help="data directory for --embedded")
    parser.add_argument(
        "--json", action="store_true", help="emit the raw canonical JSON response"
    )
    parser.add_argument(
        "--deterministic-ids", action="store_true",
        help="counter-based ids in embedded mode (test use)",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    bom = sub.add_parser("bom", help="define and inspect BoMs").add_subparsers(
        dest="action", required=True
    )
    p = bom.add_parser("define", help="create a BoM from a manifest file")
    p.add_argument("file")
    p = bom.add_parser("show", help="show a BoM with its parts")
    p.add_argument("id")

    bol = sub.add_parser("bol", help="drive and inspect runs").add_subparsers(
        dest="action", required=True
    )
    p = bol.add_parser("new", help="instantiate a BoL for a run")
    p.add_argument("id", metavar="bom-id")
    p.add_argument("--label", help="free-form run label")
    p = bol.add_parser("record", help="append an observation")
    p.add_argument("id", metavar="bol-id")
    p.add_argument("component", metavar="component-id")
    p.add_argument("payload")
    p.add_argument("--note")
    p = bol.add_parser("seal", help="seal the BoL and anchor it")
    p.add_argument("id", metavar="bol-id")
    p = bol.add_parser("report", help="full static+dynamic run report")
    p.add_argument("id", metavar="bol-id")

    for name, help_text in (
        ("trace", "where-from lineage of a component"),
        ("track", "where-used lineage of a component"),
        ("uses", "assemblies and runs using a component"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("id", metavar="component-id")
        if name != "uses":
            p.add_argument("--scope", default="global", help="'global' or a BoM id")

    ledger = sub.add_parser("ledger", help="audit the event ledger").add_subparsers(
        dest="action", required=True
    )
    ledger.add_parser("verify", help="recompute the hash chain")
    p = ledger.add_parser("export", help="write the ledger as NDJSON")
    p.add_argument("file")

    return parser


def _command_name(args: argparse.Namespace) -> str:
    action = getattr(args, "action", None)
    return f"{args.group} {action}" if action else args.group


def _build_request(
    command: str, args: argparse.Namespace
) -> tuple[str, str, dict[str, str], dict | None]:
    method, template = ENDPOINTS[command]
    path = template.replace("{id}", getattr(args, "id", ""))
    query: dict[str, str] = {}
    body: dict | None = None
    if command == "bom define":
        body = json.loads(Path(args.file).read_text(encoding="utf-8"))
    elif command == "bol new":
        body = {"run_label": args.label} if args.label is not None else {}
    elif command == "bol record":
        body = {"component_id": args.component, "payload": args.payload}
        if args.note is not None:
            body["note"] = args.note
    elif command == "bol seal":
        body = {}
    elif command in ("trace", "track"):
        query = {"scope": args.scope}
    return method, path, query, body


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.embedded:
        if not args.data_dir:
            parser.error("--embedded requires --data-dir")
        try:
            client = EmbeddedClient(args.data_dir, args.deterministic_ids)
        except StorageFailure as exc:
            print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
            return 1
    elif args.server:
        client = HttpClient(args.server)
    else:
        parser.error("pass --server URL or --embedded --data-dir PATH")

    command = _command_name(args)
    try:
        method, path, query, body = _build_request(command, args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        client.close()
        return 1

    try:
        status, response = client.request(method, path, query, body)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()

    if status >= 400:
        try:
            doc = json.loads(response.decode("utf-8"))
            print(f"error[{doc['code']}]: {doc['message']}", file=sys.stderr)
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
            print(f"error: HTTP {status}", file=sys.stderr)
        return 1

    if command == "ledger export":
        Path(args.file).write_bytes(response)
        if args.json:
            sys.stdout.buffer.write(response)
        else:
            entries = response.count(b"\n")
            print(f"exported {entries} entries to {args.file}")
        return 0

    if args.json:
        sys.stdout.buffer.write(response)
        return 0

    print(_render(command, json.loads(response.decode("utf-8"))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
