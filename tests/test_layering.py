"""Modules keep to each other's public names, the gateway to its clock, and
the store to the calls the package makes.

No module under ``src/bomtrace`` uses an ``_underscore`` attribute of
anything but ``self`` or ``cls``: another object's private state, or another
module's, is reached only through its public names. Dunder names are the
language's, not a module's, and stay allowed.

Every timestamp the gateway stores comes from its clock: no public
``Gateway`` method takes a ``now``, and ``gateway.py`` uses a time module only
inside ``wall_clock_ms``, the default clock.

The store has one way in: every public method or property of ``Store`` is
read off a store by some other module of the package, so none is kept for
tests alone.
"""

import ast

from test_stdlib_only import PACKAGE


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, expression) for each ``x._name`` where x is not self or cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_the_check_sees_what_it_forbids():
    source = "gw._commit(self._write(r))\nself.gateway._assemblies\ncls._x\nt.__name__\n"
    assert private_reads(source) == [(1, "gw._commit"), (2, "self.gateway._assemblies")]


def test_no_module_reads_another_objects_private_attributes():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}: {expression}"
        for path in sources
        for line, expression in private_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


_TIME_MODULES = ("time", "datetime")


def clock_bypasses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each way around the clock in a gateway module's source."""
    tree = ast.parse(source)
    found = []
    inside_clock = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "wall_clock_ms":
            inside_clock = {id(child) for child in ast.walk(node)}
        if isinstance(node, ast.ClassDef) and node.name == "Gateway":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    params = method.args.posonlyargs + method.args.args + method.args.kwonlyargs
                    found += [(p.lineno, f"{method.name}(now)") for p in params if p.arg == "now"]
    # the names ``import time`` or ``import datetime as dt`` bind
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name in _TIME_MODULES
    }
    for node in ast.walk(tree):
        if id(node) in inside_clock:
            continue
        if isinstance(node, ast.Name) and node.id in modules:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom) and node.module in _TIME_MODULES:
            found.append((node.lineno, f"from {node.module} import"))
    return sorted(found)


def test_the_clock_check_sees_what_it_forbids():
    source = (
        "import time\n"
        "import datetime as dt\n"
        "from time import monotonic\n"
        "def wall_clock_ms():\n"
        "    return int(time.time() * 1000)\n"
        "class Gateway:\n"
        "    def seal_bol(self, bol_id, now=None):\n"
        "        return time.time_ns()\n"
        "    def _apply(self, now):\n"
        "        return dt.datetime.now()\n"
    )
    assert clock_bypasses(source) == [
        (3, "from time import"), (7, "seal_bol(now)"), (8, "time"), (10, "dt"),
    ]


def test_gateway_time_comes_only_from_its_clock():
    assert clock_bypasses((PACKAGE / "gateway.py").read_text(encoding="utf-8")) == []


def unused_store_members(store_source: str, other_sources: list[str]) -> list[str]:
    """The public members of ``Store`` that no other source reads off a store.

    A read off a store is ``x.name`` where ``x`` is named ``store`` or
    ``_store``: ``store.scan``, ``self.store.get``, ``self._store.put_many``.
    """
    (store,) = [node for node in ast.parse(store_source).body
                if isinstance(node, ast.ClassDef) and node.name == "Store"]
    members = {node.name for node in store.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    for source in other_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                base = node.value
                name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                if name in ("store", "_store"):
                    members.discard(node.attr)
    return sorted(members)


def test_the_store_check_sees_what_it_forbids():
    store = (
        "class Store:\n"
        "    def put(self): ...\n"
        "    def get(self): ...\n"
        "    def scan(self): ...\n"
        "    @property\n"
        "    def record_count(self): ...\n"
        "    def _cut_back(self): ...\n"
        "    def __enter__(self): ...\n"
    )
    users = ["self.store.get(k)\nrecords.put(k)\nrecord_count = 1\n", "self._store.scan(k)\n"]
    assert unused_store_members(store, users) == ["put", "record_count"]


def test_every_public_store_member_has_a_caller_in_the_package():
    others = [path.read_text(encoding="utf-8")
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "store.py"]
    store = (PACKAGE / "store.py").read_text(encoding="utf-8")
    assert unused_store_members(store, others) == []
