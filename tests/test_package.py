"""The package surface: every module imports on its own, every public name
has a reader outside the unit tests, and the README's library example runs as
written."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "netprox").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", ["netprox", *(f"netprox.{m}" for m in MODULES)])
def test_each_module_imports_alone(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_package_root_defines_only_the_version():
    import netprox

    public = {name for name in vars(netprox) if not name.startswith("_")}
    assert public <= set(MODULES)  # submodules a test imported are bound on the package
    assert isinstance(netprox.__version__, str)


def _exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def _reads(tree) -> set:
    """(name, top-level definition it sits in) for every name or attribute a
    module reads and every name it imports."""
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                out.add((node.name, owner))
    return out


def test_every_public_name_is_read_outside_the_unit_tests():
    # a check that only unit tests read belongs in tests/theory.py, not in src/
    package = sorted((SRC / "netprox").glob("*.py"))
    readers = [*package, *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text()) for path in readers}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    unread = [
        f"{path.stem}.{name}"
        for path in package
        for name in _exported(trees[path])
        if not any(
            read == name and (other != path or owner != name)
            for other, found in reads.items()
            for read, owner in found
        )
    ]
    assert not unread, "public names that no command, benchmark or acceptance test reads: " + ", ".join(unread)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = (ROOT / "README.md").read_text().split("## Using the library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["res"].solved
    assert (tmp_path / "dpga_circle_seed0.csv").is_file()
