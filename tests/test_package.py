"""The package surface: every module imports on its own, and the README's
library example runs as written."""

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


def test_readme_library_example_runs(tmp_path, monkeypatch):
    section = (ROOT / "README.md").read_text().split("## Using the library", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NETPROX_CACHE", str(tmp_path / "cache"))
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["res"].solved
    assert (tmp_path / "dpga_circle_seed0.csv").is_file()
