"""The package's lazy public namespace and its module boundaries."""

import ast
import importlib
import re
import sys
import tempfile
from pathlib import Path

import pytest

import snvse
from snvse import errors
from snvse.config import RunConfig


def test_every_export_resolves():
    # __getattr__ imports lazily, so a stale _EXPORTS entry fails only when
    # the name is first used; resolve each one here.
    for name in snvse.__all__:
        getattr(snvse, name)
    assert dir(snvse) == sorted(snvse.__all__)


def test_package_imports_only_the_standard_library():
    # snvse has no runtime dependency; the sim shims included.
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_only_config_reads_the_environment():
    # RunConfig resolves every run-wide setting once, when it is built.
    readers = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            assert name not in readers, (path.name, node.lineno, name)


def test_run_config_defaults_come_from_the_environment(monkeypatch):
    monkeypatch.setenv("SNVSE_FFMPEG", "python -m snvse.sim_ffmpeg")
    monkeypatch.setenv("SNVSE_FFPROBE", "ffprobe-7")
    config = RunConfig()
    assert (config.ffmpeg, config.ffprobe) == ("python -m snvse.sim_ffmpeg", "ffprobe-7")
    assert config.scratch_dir == Path(tempfile.gettempdir())
    assert RunConfig(ffmpeg="ffmpeg-6").ffmpeg == "ffmpeg-6"
    monkeypatch.delenv("SNVSE_FFMPEG")
    monkeypatch.delenv("SNVSE_FFPROBE")
    config = RunConfig()
    assert (config.ffmpeg, config.ffprobe) == ("ffmpeg", "ffprobe")


def test_run_config_refuses_no_workers():
    with pytest.raises(errors.PreconditionViolation, match="workers must be >= 1, got 0"):
        RunConfig(workers=0)


def _imported_modules(tree) -> set[str]:
    """Each module a syntax tree imports, in absolute form within snvse."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["snvse" if node.level else None, node.module]))
            modules |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return modules


def test_the_sim_and_the_pipeline_stay_apart():
    # The pipeline reaches the sim only as a tool command, through the same
    # seam as real ffmpeg; only the two shims import it, and it imports
    # nothing from snvse.
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        imported = _imported_modules(ast.parse(path.read_text()))
        if path.name == "sim.py":
            assert {name for name in imported if name.startswith("snvse")} == set()
        elif path.name not in ("sim_ffmpeg.py", "sim_ffprobe.py"):
            assert "snvse.sim" not in imported, path.name


def _package_sources():
    """(file name, syntax tree) of each module, without the sim shims that
    stand in for the tools themselves."""
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        if not path.name.startswith("sim"):
            yield path.name, ast.parse(path.read_text())


def _raised_names():
    """(file name, line, raised class as written) for each raise of a new exception."""
    for module, tree in _package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield module, node.lineno, ast.unparse(exc)


ERROR_CLASSES = {name: obj for name, obj in vars(errors).items() if isinstance(obj, type)}


def test_every_raise_names_an_snvse_error():
    # Missing inputs raise FileNotFoundError; the other two are what
    # argparse and module __getattr__ require.
    protocol = {("cli.py", "argparse.ArgumentTypeError"), ("__init__.py", "AttributeError")}
    for module, line, raised in _raised_names():
        assert (raised in ERROR_CLASSES or raised == "FileNotFoundError"
                or (module, raised) in protocol), (module, line, raised)


def test_every_error_class_is_raised_or_subclassed():
    raised = {raised for _, _, raised in _raised_names()}
    for name, cls in ERROR_CLASSES.items():
        subclassed = any(other is not cls and issubclass(other, cls)
                         for other in ERROR_CLASSES.values())
        assert name in raised or subclassed, name


def test_only_runner_runs_processes_and_pools():
    # runner is the one seam for tool processes and batch workers.
    forbidden = {"subprocess", "concurrent", "run_pool"}
    for module, tree in _package_sources():
        if module == "runner.py":
            continue
        for node in ast.walk(tree):
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
                assert name.split(".")[0] not in forbidden, (module, name)


def test_each_tool_has_one_call_site():
    # encoder.encode runs the encoder and probe._run_prober the prober;
    # every other module reaches a tool through one of them.
    callers = set()
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "run_tool"
                        or isinstance(node, ast.Attribute) and node.attr == "run_tool"):
                    callers.add((path.name, owner))
    assert callers == {("encoder.py", "encode"), ("probe.py", "_run_prober")}


def _owners(predicate):
    """(file name, top-level function or class) of each node *predicate* accepts."""
    owners = set()
    for path in sorted(Path(snvse.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            owners |= {(path.name, owner) for node in ast.walk(top) if predicate(node)}
    return owners


def test_no_support_has_one_owner():
    # supporting_entries decides and words an empty CRF group; every
    # command that needs the group calls it.
    def raises_no_support(node):
        return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and ast.unparse(node.exc.func) == "NoSupport")

    assert _owners(raises_no_support) == {("planner.py", "supporting_entries")}


def test_the_bootstrap_reads_no_resolution():
    # bootstrap_stability takes one CRF group's numbers; supporting_entries
    # alone decides which entries form the group.
    tree = ast.parse(Path(snvse.__file__).with_name("analysis.py").read_text())
    names = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "rho_out" not in names


def test_the_schema_owns_the_platform_name_rule():
    # validate refuses a separator in a platform name, and emulate_batch runs
    # it; the CLI keeps its copy, so a usage error exits 2 before any work.
    def names_os_sep(node):
        return isinstance(node, ast.Attribute) and ast.unparse(node) == "os.sep"

    assert _owners(names_os_sep) == {("profile_db.py", "PlatformProfile"),
                                     ("cli.py", "_platform_name")}


def test_only_config_looks_up_commands():
    # RunConfig.check_tools admits a tool command by Popen's own lookup.
    def names_which(node):
        return (isinstance(node, ast.Attribute) and node.attr == "which"
                or isinstance(node, ast.alias) and node.name == "which")

    assert _owners(names_which) == {("config.py", "RunConfig")}


def test_only_config_splits_commands():
    # RunConfig splits each tool command once, when it is built.
    def names_split(node):
        return (isinstance(node, ast.Attribute) and ast.unparse(node) == "shlex.split"
                or isinstance(node, ast.alias) and node.name == "split")

    assert _owners(names_split) == {("config.py", "RunConfig")}


def test_only_the_runner_ends_tools():
    # run_tool ends the process it started, on an interrupt too; nothing else does.
    def ends_a_process(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("terminate", "kill"))

    assert _owners(ends_a_process) == {("runner.py", "run_tool")}


def test_every_source_parses_at_the_python_floor():
    # pyproject's requires-python is the floor. A newer syntax, such as
    # except* or a type statement, would fail only on that interpreter,
    # which a local run need not use.
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    sources = sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")])
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_console_scripts_resolve():
    # Tier-1 runs from the source tree and never installs the package, so a
    # renamed entry point would ship unnoticed. tomllib is missing on the
    # Python floor; the section is read as text.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n")[1].split("\n[")[0]
    scripts = dict(re.findall(r'^([\w-]+) = "([\w.:]+)"$', section, re.MULTILINE))
    assert scripts == {"snvse": "snvse.cli:main", "snvse-sim-ffmpeg": "snvse.sim:main_ffmpeg",
                       "snvse-sim-ffprobe": "snvse.sim:main_ffprobe"}
    for target in scripts.values():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function)), target
