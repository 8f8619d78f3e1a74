"""The package's import order, read from its source without importing it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaplab"

# A module imports only modules of a lower rank; simulator and rtm share one.
RANK = {
    "errors": 0,
    "sparse_oracle": 1,
    "spectral": 2,
    "simulator": 3,
    "rtm": 3,
    "protocols": 4,
    "cli": 5,
}


def test_every_package_import_is_at_module_level_and_points_down():
    wrong = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.stem
        if name == "__init__":
            continue
        if name not in RANK:
            wrong.append(f"{name} has no place in the import order")
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level >= 1):
                continue
            targets = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            for target in targets:
                where = f"{name}:{node.lineno} imports {target}"
                if node not in tree.body:
                    wrong.append(f"{where} below module level")
                if RANK.get(target, len(RANK)) >= RANK[name]:
                    wrong.append(f"{where}, which is not below it")
    assert wrong == []
