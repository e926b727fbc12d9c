import ast
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import pytest

from conftest import child_env

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"

# what building, testing and running leave behind; BENCH_*.json rows are
# measurements kept on purpose, so they are not listed
OUTPUT_FILES = ("*.svg", "*.csv")
OUTPUT_DIRS = {"out", "__pycache__", ".hypothesis", ".pytest_cache"}

# one property test that fails and one plain test after it
PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failing example through code that warns; the
    # project's filterwarnings must not turn that warning into an INTERNALERROR
    # that stops the run before the tests after it
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def is_output(path: str) -> bool:
    *dirs, name = path.split("/")
    return any(fnmatch(name, p) for p in OUTPUT_FILES) or not OUTPUT_DIRS.isdisjoint(dirs)


def test_output_patterns():
    assert is_output("demos/blend.svg") and is_output("out/summary.json")
    assert is_output("src/herdsim/__pycache__/sim.cpython-311.pyc")
    assert is_output(".hypothesis/examples/x") and is_output("a/.pytest_cache/v")
    assert not is_output("BENCH_19.json") and not is_output("src/herdsim/out.py")


def test_git_tracks_no_build_or_run_output():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(["git", "ls-files", "-z"], cwd=REPO, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        pytest.skip(f"git ls-files failed: {proc.stderr.strip()}")
    assert [p for p in proc.stdout.split("\0") if p and is_output(p)] == []


# each command's exit code and the listed modules loaded after it ran;
# sweep builds arrays, and numpy imports inspect itself
@pytest.mark.parametrize("argv, after", [
    (["check"], "0 []"),
    (["simulate", "--t-max", "1", "--svg", "off", "--out", "o"], "5 []"),
    (["sweep", "--obstacle", "0", "--resolution", "64", "--svg", "off", "--out", "o"],
     "0 ['inspect']"),
], ids=["check", "simulate", "sweep"])
def test_cli_loads_no_dataclasses_inspect_or_logging(tmp_path, argv, after):
    # importing any of them costs every command 3 to 4 ms before it starts
    probe = ("import sys; from herdsim import cli; "
             "loaded = lambda: [m for m in ('dataclasses', 'inspect', 'logging') "
             "if m in sys.modules]; "
             f"imported = loaded(); code = cli.main({argv!r}); "
             "print(imported, code, loaded())")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"[] {after}"


# Runs cli.main(argv) in a fresh interpreter and prints, as the last line, the
# herdsim modules it loaded.
LOADED_PROBE = """
import sys
from herdsim import cli
try:
    cli.main({argv!r})
except SystemExit:
    pass
print(sorted(m.removeprefix("herdsim.") for m in sys.modules if m.startswith("herdsim.")))
"""


# each command compiles only the modules it runs: check, --version and
# --svg off never load the SVG writers, and only simulate loads the step loop
@pytest.mark.parametrize("argv, unused", [
    (["--version"], {"sim", "svg", "herding", "attacker"}),
    (["check"], {"sim", "svg", "herding", "attacker"}),
    (["sweep", "--obstacle", "0", "--resolution", "64", "--out", "o"],
     {"sim", "herding", "attacker"}),
    (["simulate", "--t-max", "1", "--svg", "off", "--out", "o"], {"svg"}),
    (["sweep", "--obstacle", "0", "--resolution", "64", "--svg", "off", "--out", "o"],
     {"sim", "svg", "herding", "attacker"}),
], ids=["version", "check", "sweep", "simulate-svg-off", "sweep-svg-off"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE.format(argv=argv)],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert {"cli", "environment", "errors", "geom"} <= loaded
    assert loaded & unused == set()


# Checks the lazy package protocol in a fresh interpreter; prints its
# findings as one JSON object on the last line.
PACKAGE_PROBE = """
import json, sys
import herdsim
on_import = sorted(m for m in sys.modules if m.startswith("herdsim."))
exports = {n: getattr(herdsim, n) for n in herdsim.__all__}
before = dict(vars(herdsim))
for n in herdsim.__all__:
    getattr(herdsim, n)
try:
    herdsim.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
star = {}
exec("from herdsim import *", star)
print(json.dumps({
    "on_import": on_import, "unknown": unknown,
    "not_its_module's": [n for n, obj in exports.items()
                         if not obj.__module__.startswith("herdsim.")
                         or getattr(sys.modules[obj.__module__], n) is not obj],
    "missing_from_dir": sorted(set(herdsim.__all__) - set(dir(herdsim))),
    "stored": sorted(set(herdsim.__all__) & set(vars(herdsim))),
    "vars_changed": dict(vars(herdsim)) != before,
    "missing_from_star": sorted(set(herdsim.__all__) - set(star))}))
"""


def test_package_resolves_its_exports_on_first_use(tmp_path):
    proc = subprocess.run([sys.executable, "-c", PACKAGE_PROBE], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert found.pop("on_import") == []   # `import herdsim` alone loads no module
    assert found.pop("unknown") == "module 'herdsim' has no attribute 'no_such_name'"
    # every export is the object its defining module holds, dir() and
    # `import *` list it, and no lookup is stored in the package namespace,
    # so a rebinding in the module shows through the package
    assert found == {"not_its_module's": [], "missing_from_dir": [], "stored": [],
                     "vars_changed": False, "missing_from_star": []}


# the two ways round Frozen.__setattr__: object's own, or a slot descriptor's
DIRECT_SET = re.compile(r"object\.__setattr__|\.__set__\b")


def test_only_geom_sets_record_fields_directly():
    # geom.Frozen writes every record's __init__ from its __slots__, so a
    # record's fields are named in one place
    setters = {p.name: DIRECT_SET.search(p.read_text()) is not None
               for p in (REPO / "src" / "herdsim").glob("*.py")}
    assert setters.pop("geom.py")
    assert [name for name, sets in setters.items() if sets] == []


# a record mechanism besides geom.Frozen, or Frozen filling in a field
RECORD_EXTRAS = re.compile(r"\bNamedTuple\b|\b_defaults\b")


def test_one_record_mechanism():
    # every record is a Frozen, built from one value per field; the safety
    # ratios are a plain tuple whose names are one constant
    users = [p.name for p in (REPO / "src" / "herdsim").glob("*.py")
             if RECORD_EXTRAS.search(p.read_text())]
    assert users == []
    from herdsim import environment, sim, svg
    assert svg.RATIO_COLUMNS is sim.RATIO_COLUMNS is environment.RATIO_COLUMNS


def test_no_module_reads_the_environment():
    # every command is configured by its arguments and its scenario alone
    readers = [p.name for p in (REPO / "src" / "herdsim").glob("*.py")
               if "os.environ" in p.read_text() or "getenv" in p.read_text()]
    assert readers == []


# the floor of pyproject's requires-python, read without a TOML parser
REQUIRES_PYTHON = re.compile(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', re.M)


def test_sources_parse_at_the_requires_python_floor():
    # the grammar is checked by the running interpreter's parser, told to
    # refuse what the oldest supported version could not read
    floor = REQUIRES_PYTHON.search(PYPROJECT.read_text())
    assert floor is not None
    version = (int(floor[1]), int(floor[2]))
    files = sorted((REPO / "src" / "herdsim").glob("*.py")) + sorted((REPO / "demos").glob("*.py"))
    assert len(files) > 10
    for p in files:
        ast.parse(p.read_text(), filename=str(p), feature_version=version)


def identifiers(node):
    """Every name the code under node reads, binds, imports or looks up as
    an attribute; strings and comments name nothing."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def test_every_src_name_has_a_caller():
    # each module-level function, class and constant of the package is named
    # by code in src/herdsim beyond its own definition, or by a demo; the
    # package's export table lists names as strings, so it calls nothing
    src = sorted((REPO / "src" / "herdsim").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in src + sorted((REPO / "demos").glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in identifiers(tree))
    uncalled = []
    for p in src:
        if p.name == "__init__.py":
            continue
        for node in trees[p].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = Counter(identifiers(node))
            uncalled += [f"{p.stem}.{name}" for name in defined if uses[name] == own[name]]
    assert uncalled == []


# the README's `from herdsim import ...` lines, parenthesised or not
README_IMPORT = re.compile(r"^from herdsim import (\([^)]*\)|.*)$", re.M)


def package_callers_import():
    """The names that demos/ and bench/ import from `herdsim` or read as
    `herdsim.<name>`, and those the README imports, less the submodules and
    dunders that the import system resolves itself."""
    names = set()
    for p in sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "bench").glob("*.py")):
        for n in ast.walk(ast.parse(p.read_text())):
            if isinstance(n, ast.ImportFrom) and n.module == "herdsim" and n.level == 0:
                names.update(a.name for a in n.names)
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id == "herdsim"):
                names.add(n.attr)
    for m in README_IMPORT.finditer((REPO / "README.md").read_text()):
        names.update(re.findall(r"\w+", m[1]))
    modules = {p.stem for p in (REPO / "src" / "herdsim").glob("*.py")}
    return {n for n in names if n not in modules and not n.startswith("__")}


def test_package_exports_what_its_callers_import():
    # every other name is imported from its module, e.g. herdsim.sim.SimTrace;
    # the error classes are exported for the library callers the README's
    # exit-code section names them to
    import herdsim
    from herdsim import errors
    kinds = {name for name, c in vars(errors).items()
             if isinstance(c, type) and c.__module__ == errors.__name__}
    assert len(kinds) == 7
    assert sorted(package_callers_import() | kinds) == herdsim.__all__
