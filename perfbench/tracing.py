"""Outside-in tracing: spans around the calls into bomtrace's public functions.

Nothing here changes the program's code. :func:`install` replaces the public
functions and methods listed in ``SPANS`` with wrappers that record one span
per call (name, start, end, parent span, op id) in memory, and rebinds every
name other ``bomtrace`` modules imported them under (``canonical_bytes`` in
store, ledger, gateway, runtime, manifest and api; ``verify_inclusion`` in
api; ``validate_structure`` in manifest; ``dispatch`` in server and cli).
The ``os.fsync`` the store module calls and the ``from_dict`` decoders of
``Bom``, ``Assembly`` and ``Bol`` are wrapped too; decodes are counted, not
spanned, and charged to the innermost open span.

A span's self time is its duration minus the durations of its child spans;
children of one span run on its thread one after another, so they never
overlap. An op id names the outermost span of a call tree.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

NAME, START, END, PARENT, OP, FAILED, NOTE, ROUND = range(8)

GATEWAY_OPS = (
    "record_observation",
    "record_observation_indexed",
    "define_bom",
    "instantiate_bol",
    "seal_bol",
    "resolve_access",
    "lineage_report",
    "inclusion_proof",
    "verify_chain",
    "export_ledger",
    "trace",
    "track",
    "find_uses",
    "bom_detail",
    "validate_bom",
)


def _bol_id(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("bol_id")


def _size(args, kwargs, result):
    return len(result)


def _lineage_nodes(args, kwargs, result):
    return len(result.nodes)


def _use_sites(args, kwargs, result):
    return len(result.static) + len(result.dynamic)


# (module, attribute path, span name, note taken from the call)
SPANS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("bomtrace.server", "_Handler._handle", "server.handle", None),
    ("bomtrace.api", "dispatch", "api.dispatch", None),
    *(
        (
            "bomtrace.gateway",
            f"Gateway.{op}",
            f"gateway.{op}",
            _bol_id if op == "record_observation_indexed" else None,
        )
        for op in GATEWAY_OPS
    ),
    ("bomtrace.manifest", "define_bom", "manifest.define_bom", None),
    ("bomtrace.model", "validate_structure", "model.validate_structure", None),
    ("bomtrace.lineage", "closure", "lineage.closure", _lineage_nodes),
    ("bomtrace.lineage", "component_uses", "lineage.component_uses", _use_sites),
    ("bomtrace.lineage", "bom_detail", "lineage.bom_detail", None),
    ("bomtrace.lineage", "bom_static_graph", "lineage.bom_static_graph", None),
    ("bomtrace.runtime", "bol_leaves", "runtime.bol_leaves", None),
    ("bomtrace.ledger", "Ledger.append_entry", "ledger.append_entry", None),
    ("bomtrace.ledger", "merkle_root", "ledger.merkle_root", None),
    ("bomtrace.ledger", "inclusion_proof", "ledger.inclusion_proof", None),
    ("bomtrace.ledger", "verify_inclusion", "ledger.verify_inclusion", None),
    ("bomtrace.ledger", "Ledger.verify_chain", "ledger.verify_chain", None),
    ("bomtrace.ledger", "Ledger.export", "ledger.export", None),
    ("bomtrace.store", "Store.__init__", "store.open", None),
    ("bomtrace.store", "Store.put_many", "store.put_many", None),
    ("bomtrace.store", "Store.scan", "store.scan", _size),
    ("bomtrace.canonical", "canonical_bytes", "canonical.canonical_bytes", _size),
    ("bomtrace.cli", "main", "cli.main", None),
)

# decoders counted per op: (module, class)
DECODERS = (("bomtrace.model", "Bom"), ("bomtrace.model", "Assembly"), ("bomtrace.runtime", "Bol"))


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.decodes: Counter = Counter()  # (span index or None, class name) -> count
        self.rebound: list[str] = []
        self.round = 0  # set by the caller; BoL ids repeat across rounds
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """Wrap ``fn`` so that every call records a span called ``name``."""
        tracer, spans, lock, clock = self, self.spans, self._lock, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            op = spans[parent][OP] if parent is not None else next(tracer._ops)
            record = [name, 0, 0, parent, op, False, None, tracer.round]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def counted(self, kind: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that every call counts one ``kind`` decode."""
        tracer = self

        def counting(*args, **kwargs):
            stack = tracer._stack()
            key = (stack[-1] if stack else None, kind)
            with tracer._lock:
                tracer.decodes[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counting)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-span-name and per-module totals; JSON-ready, mergeable."""
        spans = list(self.spans)
        child_ns = [0] * len(spans)
        for record in spans:
            if record[PARENT] is not None and record[END]:
                child_ns[record[PARENT]] += record[END] - record[START]
        names: dict[str, dict[str, float]] = {}
        modules: dict[str, dict[str, float]] = {}
        gateway_root: list[int | None] = [None] * len(spans)
        op_calls: Counter = Counter()  # outermost gateway spans by name
        series: dict[Any, list[int]] = {}
        commit_ns: list[int] = []  # start of every store commit, to place it in a phase
        for index, record in enumerate(spans):
            if not record[END]:  # still open when the summary was taken
                continue
            name, parent = record[NAME], record[PARENT]
            duration = record[END] - record[START]
            self_ns = duration - child_ns[index]
            group = names.setdefault(name, _empty_group())
            group["calls"] += 1
            group["busy_ns"] += duration
            group["self_ns"] += self_ns
            group["failed"] += record[FAILED]
            if isinstance(record[NOTE], (int, float)):
                group["note_sum"] += record[NOTE]
            module = name.split(".", 1)[0]
            entry = modules.setdefault(module, _empty_group())
            entry["self_ns"] += self_ns
            if parent is None or spans[parent][NAME].split(".", 1)[0] != module:
                entry["calls"] += 1
                entry["busy_ns"] += duration
                entry["failed"] += record[FAILED]
            if parent is not None and gateway_root[parent] is not None:
                gateway_root[index] = gateway_root[parent]
            elif module == "gateway":
                gateway_root[index] = index
                op_calls[name] += 1
            if name == "store.put_many" and not record[FAILED]:
                commit_ns.append(record[START])
            if name == "gateway.record_observation_indexed" and not record[FAILED]:
                series.setdefault((record[ROUND], record[NOTE]), []).append(duration)
        decodes: Counter = Counter()  # by class
        op_decodes: Counter = Counter()  # charged to the outermost gateway span
        for (index, kind), count in list(self.decodes.items()):
            decodes[kind] += count
            if index is not None and gateway_root[index] is not None:
                op_decodes[spans[gateway_root[index]][NAME]] += count
        return {
            "names": names,
            "modules": modules,
            "decodes": dict(decodes),
            "op_calls": dict(op_calls),
            "op_decodes": dict(op_decodes),
            "observation_series": list(series.values()),
            "commit_ns": commit_ns,
        }

    def dump(self, path: Path, role: str) -> None:
        """Write the spans out, one JSON array per line after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"role": role, "fields": ["name", "start_ns", "end_ns",
                                 "parent", "op", "failed", "note", "round"]}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


_COUNTERS = ("decodes", "op_calls", "op_decodes")


def _empty_group() -> dict[str, float]:
    return {"calls": 0, "busy_ns": 0, "self_ns": 0, "failed": 0, "note_sum": 0}


def merge(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """Add up summaries from several processes or rounds."""
    out: dict[str, Any] = {"names": {}, "modules": {}, "observation_series": [], "commit_ns": []}
    counters = {key: Counter() for key in _COUNTERS}
    for summary in summaries:
        for key in ("names", "modules"):
            for name, group in summary[key].items():
                total = out[key].setdefault(name, _empty_group())
                for field, value in group.items():
                    total[field] += value
        for key in _COUNTERS:
            counters[key].update(summary[key])
        out["observation_series"].extend(summary["observation_series"])
        out["commit_ns"].extend(summary["commit_ns"])
    out.update({key: dict(counter) for key, counter in counters.items()})
    return out


class _StoreOs:
    """Stands in for ``os`` inside the store module, with ``fsync`` traced."""

    def __init__(self, fsync: Callable) -> None:
        self.fsync = fsync

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)


def _owner(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Wrap the public functions in ``SPANS`` of the imported ``bomtrace``."""
    for module_name in {target[0] for target in SPANS}:
        importlib.import_module(module_name)
    package = [
        module for name, module in sorted(sys.modules.items())
        if name == "bomtrace" or name.startswith("bomtrace.")
    ]
    for module_name, path, span_name, note in SPANS:
        module = sys.modules[module_name]
        owner, attr = _owner(module, path)
        original = getattr(owner, attr)
        traced = tracer.span(span_name, original, note)
        setattr(owner, attr, traced)
        if owner is not module:
            continue
        for other in package:
            if other is module:
                continue
            for alias in [k for k, v in vars(other).items() if v is original]:
                setattr(other, alias, traced)
                tracer.rebound.append(f"{other.__name__}.{alias}")
    store = sys.modules["bomtrace.store"]
    store.os = _StoreOs(tracer.span("store.fsync", os.fsync))
    for module_name, class_name in DECODERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        decoder = cls.__dict__["from_dict"].__func__
        cls.from_dict = classmethod(tracer.counted(class_name, decoder))
