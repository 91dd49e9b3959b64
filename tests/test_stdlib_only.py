"""The runtime stays stdlib-only.

Every absolute import in ``src/bomtrace`` must name a module of the standard
library; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bomtrace"


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {module}"
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
