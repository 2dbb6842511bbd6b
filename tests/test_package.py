"""The package holds no code that only its tests reach, and supports one numpy."""

import ast
import re
from pathlib import Path

import rtetomo

# Unexported names kept although only tests read them: write_pair's
# reader, which reads a run's pair.csv back.
ALLOWED = {("serialize", "read_pair")}


def _words(node):
    """The identifiers ``node`` reads: names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _binds(stmt):
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}


def _parse(folder):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in folder.glob("*.py")}


def test_every_module_level_name_is_exported_or_used():
    """A module-level function, class or constant is in ``__all__``, or
    another name's code in the package reads it, or perfbench does,
    strings included: its tracer names the calls it wraps as strings."""
    used = set()
    for tree in _parse(Path(__file__).resolve().parents[1] / "perfbench").values():
        used.update(_words(tree))
        used.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    stmts = [(module, stmt) for module, tree in _parse(Path(rtetomo.__file__).parent).items() for stmt in tree.body]
    words = {id(stmt): set(_words(stmt)) for _, stmt in stmts}
    unused = {
        (module, name)
        for module, stmt in stmts
        for name in _binds(stmt) - used - set(rtetomo.__all__)
        if not name.startswith("__") and not any(name in words[id(other)] for _, other in stmts if other is not stmt)
    }
    assert unused <= ALLOWED, sorted(unused - ALLOWED)


def test_the_numpy_floor_is_the_version_ci_pins():
    """pyproject.toml's numpy floor and the tier-1 workflow's numpy pin are
    one version, so the only numpy the package supports is the one tested."""
    root = Path(__file__).resolve().parents[1]
    floors = re.findall(r'"numpy>=([^"]+)"', (root / "pyproject.toml").read_text(encoding="utf-8"))
    pins = re.findall(r"\bnumpy==(\S+)", (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    assert len(floors) == len(pins) == 1 and floors == pins, (floors, pins)
