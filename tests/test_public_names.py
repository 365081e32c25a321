"""Every public function and class of the package has a caller outside the
tests: in the package itself (a re-export in ``dagmut/__init__`` counts) or
in the benchmark."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def referred(tree: ast.AST) -> list[str]:
    """Each name, attribute and imported name that ``tree`` refers to."""
    return [node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))]


def unreferenced(sources: dict[str, str], package: set[str]) -> list[str]:
    """``module.name`` of each public module-level function or class of the
    ``package`` sources that nothing in ``sources`` refers to outside its
    own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    used = Counter(name for tree in trees.values() for name in referred(tree))
    return [f"{Path(path).stem}.{defn.name}"
            for path in sorted(package) for defn in trees[path].body
            if isinstance(defn, (ast.FunctionDef, ast.ClassDef))
            and not defn.name.startswith("_")
            and used[defn.name] == referred(defn).count(defn.name)]


def test_every_public_name_of_the_package_has_a_caller():
    package = {str(p) for p in (ROOT / "src" / "dagmut").glob("*.py")}
    callers = package | {str(p) for p in (ROOT / "benchmark").glob("*.py")}
    sources = {path: Path(path).read_text(encoding="utf-8") for path in callers}
    assert unreferenced(sources, package) == []


def test_a_name_only_its_own_body_uses_is_reported():
    sources = {
        "lib.py": "def used():\n    return 1\n\n\ndef lonely(n):\n    return lonely(n - 1)\n\n\n"
                  "class Kept:\n    pass\n\n\ndef _private():\n    pass\n",
        "user.py": "from lib import Kept\nimport lib\nlib.used()\n",
    }
    assert unreferenced(sources, {"lib.py"}) == ["lib.lonely"]
