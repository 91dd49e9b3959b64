"""The gateway touches its held state only under the held-state lock.

An AST check on ``gateway.py``. Held state is every map the gateway answers
from (``HELD``) and every slot of ``_Run``. Outside ``__init__`` and replay,
each use of it must sit inside a ``with self._lock`` block, or in a private
helper whose every use sits inside such a block or in another such helper
(``_apply``, ``_hold``). The commit lock comes first: nothing that takes it
runs under the held-state lock, so a read never waits for a commit's fsync.

A second check keeps one write path: only ``_commit`` writes to the store or
the ledger, and ``_hold`` and ``_apply``, which turn committed bytes into held
state, run only from ``_commit`` and at open (``__init__``, ``_replay``). The
graph index (``_owner``, ``_sites``) is derived from the held BoMs, so only
``__init__`` and ``_hold`` may assign it or change it or its items.
"""

import ast

from test_stdlib_only import PACKAGE

HELD = {
    "_components", "_assemblies", "_boms", "_owner", "_sites", "_runs", "_bols_by_bom", "_frozen_parts",
}
EXEMPT = {"__init__", "_replay"}
COMMIT = {"_commit_lock"}
# each name of the write path, with the only functions that may use it
WRITE_PATH = {
    "put_many": {"_commit"},
    "append_entry": {"_commit"},
    "_hold": {"_commit", "__init__", "_replay"},
    "_apply": {"_commit", "__init__", "_replay"},
}
# the graph index, the only functions that may change it, and the methods that only read it
INDEX = {"_owner", "_sites"}
INDEX_WRITERS = {"__init__", "_hold"}
INDEX_READS = {"get", "keys", "values", "items", "__contains__"}


def _functions(tree: ast.Module) -> dict[str, tuple[ast.FunctionDef, bool]]:
    """Each module-level function and method by name, and whether it is private."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = (node, node.name.startswith("_"))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    private = item.name.startswith("_") or node.name.startswith("_")
                    out.setdefault(item.name, (item, private))
    return out


def _run_slots(tree: ast.Module) -> set[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "_Run":
            for item in node.body:
                if isinstance(item, ast.Assign) and ast.unparse(item.targets[0]) == "__slots__":
                    return set(ast.literal_eval(item.value))
    return set()


def _names(function: ast.FunctionDef) -> list[tuple[str, int, bool, bool]]:
    """(name, line, under the held-state lock, is an attribute) for each name used."""
    out = []

    def visit(node, locked):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            ast.unparse(item.context_expr) == "self._lock" for item in node.items
        ):
            locked = True
        if isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, locked, True))
        elif isinstance(node, ast.Name):
            out.append((node.id, node.lineno, locked, False))
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for statement in function.body:
        visit(statement, False)
    return out


def lock_breaches(source: str) -> list[str]:
    """``line: function: name`` for each use of held state outside the lock, and
    for each use under the held-state lock of something that takes the commit lock."""
    tree = ast.parse(source)
    functions = _functions(tree)
    held = HELD | _run_slots(tree)
    names = {name: _names(node) for name, (node, _) in functions.items()}
    sites = {}  # name -> [(function using it, under the lock)]
    for user, used in names.items():
        for name, _, locked, _ in used:
            sites.setdefault(name, []).append((user, locked))

    helpers: set[str] = set()
    grown = True
    while grown:
        grown = False
        for name, (_, private) in functions.items():
            if not private or name in EXEMPT or name in helpers or not sites.get(name):
                continue
            if all(locked or user in EXEMPT | helpers for user, locked in sites[name]):
                helpers.add(name)
                grown = True

    takers = set(COMMIT)
    grown = True
    while grown:
        grown = False
        for name, used in names.items():
            if name not in takers and any(n in takers for n, _, _, _ in used):
                takers.add(name)
                grown = True

    found = []
    for user, used in names.items():
        if user in EXEMPT:
            continue
        for name, line, locked, attribute in used:
            unguarded = attribute and name in held and not locked and user not in helpers
            nested = name in takers and name != user and (locked or user in helpers)
            if unguarded or nested:
                found.append(f"{line}: {user}: {name}")
    return sorted(found, key=lambda entry: int(entry.split(":")[0]))


def test_the_check_sees_what_it_forbids():
    source = '''
class _Run:
    __slots__ = ("header",)

    def __init__(self, header):
        self.header = header

    def label(self):
        return self.header


class Gateway:
    def __init__(self):
        self._runs = {}

    def _hold(self, key):
        self._runs[key] = None

    def _peek(self, key):
        return self._runs[key]

    def _writer(self):
        with self._commit_lock:
            pass

    def good(self, key):
        with self._lock:
            self._hold(key)
            return self._runs[key].label()

    def bad(self, key):
        run = self._peek(key)
        with self._lock:
            self._writer()
        return run.header
'''
    assert lock_breaches(source) == [
        "20: _peek: _runs",  # a helper used outside the lock
        "23: _writer: _commit_lock",  # the commit lock, taken under the held-state lock
        "34: bad: _writer",
        "35: bad: header",  # a run, read after the lock is released
    ]


def test_held_state_is_used_only_under_the_held_state_lock():
    source = (PACKAGE / "gateway.py").read_text(encoding="utf-8")
    assert lock_breaches(source) == []


def _changes(node: ast.Attribute, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether this use of a map assigns or deletes it, or changes it or an item of it.

    A method call counts as a change unless the method is in ``INDEX_READS``.
    A change made through another name for the map is not seen.
    """
    while not isinstance(node.ctx, (ast.Store, ast.Del)):
        parent = parents[node]
        if isinstance(parent, ast.Subscript) and parent.value is node:
            node = parent  # an item of the map
        elif isinstance(parent, ast.Attribute):
            return parent.attr not in INDEX_READS
        else:
            return False
    return True


def write_path_breaches(source: str) -> list[str]:
    """``line: function: name`` for each use of a ``WRITE_PATH`` name outside its
    functions, and for each change to an ``INDEX`` map outside ``INDEX_WRITERS``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr in WRITE_PATH:
            if function not in WRITE_PATH[node.attr]:
                found.append(f"{node.lineno}: {function}: {node.attr}")
        elif isinstance(node, ast.Attribute) and node.attr in INDEX:
            if function not in INDEX_WRITERS and _changes(node, parents):
                found.append(f"{node.lineno}: {function}: {node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_write_path_check_sees_what_it_forbids():
    source = '''
class Gateway:
    def __init__(self, records):
        for record in records:
            self._hold(record)

    def _replay(self, entry):
        self._apply(entry)

    def _commit(self, writes, entry=None):
        if entry is None:
            self.store.put_many(writes)
        else:
            self.ledger.append_entry(entry, extra_writes=writes)
        with self._lock:
            for op in writes:
                self._hold(op)
            self._apply(entry)

    def seal(self, entry):
        self.ledger.append_entry(entry)
        with self._lock:
            self._apply(entry)

    def freeze(self, op):
        write = self.store.put_many
        write([op])
        self._hold(op)
'''
    assert write_path_breaches(source) == [
        "21: seal: append_entry",  # a second way to the ledger
        "23: seal: _apply",  # and a second way into held state
        "26: freeze: put_many",  # also when only named
        "28: freeze: _hold",
    ]


def test_the_index_check_sees_a_change_outside_hold():
    source = '''
class Gateway:
    def __init__(self):
        self._owner = {}
        self._sites = {}

    def _hold(self, bom):
        for aid in bom.assemblies:
            self._owner.pop(aid, None)
            self._owner[aid] = bom.id
            self._sites.setdefault(aid, set()).add((aid, "input"))

    def trace(self, node):
        if node in self._owner or self._owner.get(node) or self._owner.__contains__(node):
            return sorted(self._sites.get(node, ())) + list(self._sites[node])

    def find_uses(self, cid):
        self._sites.setdefault(cid, set())
        self._sites[cid].discard(None)
        del self._owner[cid]

    def reset(self):
        self._owner = {}
        self._sites[None] += 1
'''
    assert write_path_breaches(source) == [
        "18: find_uses: _sites",  # a read method that changes the index
        "19: find_uses: _sites",  # or an item of it
        "20: find_uses: _owner",
        "23: reset: _owner",
        "24: reset: _sites",
    ]


def test_only_commit_writes_and_only_commit_and_open_hold():
    source = (PACKAGE / "gateway.py").read_text(encoding="utf-8")
    assert write_path_breaches(source) == []
