"""fracfp modules import only public names from each other."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracfp"

# (importing module, name): why the private import stays
ALLOWED = {
    ("evolution", "_jump_matrix"): "perfbench/spans.py LAYERS patches this binding",
}


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracfp")):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and (path.stem, alias.name) not in ALLOWED:
                    found.append(f"{path.name}:{node.lineno} imports {node.module}.{alias.name}")
    assert not found, "\n".join(found)
