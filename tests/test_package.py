"""The package's lazy public namespace and its module boundaries."""

import ast
from pathlib import Path

import snvse


def test_every_export_resolves():
    # __getattr__ imports lazily, so a stale _EXPORTS entry fails only when
    # the name is first used; resolve each one here.
    for name in snvse.__all__:
        getattr(snvse, name)


def test_only_runner_runs_processes_and_pools():
    # runner is the one seam for tool processes and batch workers; the sim
    # shims stand in for the tools themselves.
    forbidden = {"subprocess", "concurrent", "run_pool"}
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        if path.name == "runner.py" or path.name.startswith("sim"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in forbidden, (path.name, name)
