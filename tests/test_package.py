"""The installed package: its module entry points and its runtime imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layerfuse

PACKAGE = Path(layerfuse.__file__).parent


@pytest.mark.parametrize("module", ["layerfuse", "layerfuse.cli"])
@pytest.mark.parametrize("argv, code, out, err", [
    (["--version"], 0, "layerfuse 0.1.0\n", ""),
    (["gradcheck", "--classes", "1"], 1, "", "error: classes must be at least 2, got 1\n"),
], ids=["version", "refused-classes"])
def test_module_entry_point_exits_with_mains_code(tmp_path, module, argv, code, out, err):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-m", module, *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = [name for name in imported
               if name.split(".")[0] != "numpy" and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
