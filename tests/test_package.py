"""The package holds no code that only its tests reach, and supports the versions CI tests."""

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
    """Every package the tier-1 workflow pins has one floor in
    pyproject.toml, and it is the pinned version, so the oldest versions
    the package allows are the ones tested.  numpy is among them."""
    root = Path(__file__).resolve().parents[1]
    floors = dict(re.findall(r'"([A-Za-z0-9_.-]+)>=([^"]+)"', (root / "pyproject.toml").read_text(encoding="utf-8")))
    pins = re.findall(r"\b([A-Za-z0-9_.-]+)==(\S+)", (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    names = [name for name, _ in pins]
    assert "numpy" in names and len(set(names)) == len(names), pins
    assert {name: floors.get(name) for name in names} == dict(pins)


def test_the_python_floor_is_the_version_ci_runs():
    """pyproject.toml's requires-python floor is the one Python the tier-1
    workflow runs and the one the README states, so the oldest Python the
    package allows is tested and documented."""
    root = Path(__file__).resolve().parents[1]
    floor = re.search(r'^requires-python = ">=([^"]+)"$', (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    ran = re.findall(r'python-version: "([^"]+)"', (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    stated = re.findall(r"Requires Python (\S+)\+", (root / "README.md").read_text(encoding="utf-8"))
    assert floor and ran == [floor.group(1)] == stated, (floor, ran, stated)
