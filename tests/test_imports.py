import ast
import importlib
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tomllib

import pytest

import resonatorlab
from resonatorlab import constants
from resonatorlab.cli import COMMANDS, main

PACKAGE = pathlib.Path(constants.__file__).resolve().parent


def _imported_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_no_package_module_imports_scipy_optimize():
    # every fit runs on the package's own least_squares (resonatorlab._lsq)
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _imported_names(node)
        if name == "scipy.optimize" or name.startswith("scipy.optimize.")
    ]
    assert offenders == []


def _imports_outside_functions(tree):
    """Import nodes that run when the module is imported."""
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_every_scipy_import_is_function_local():
    # scipy serves only dip segmentation (find_peaks), which imports it on
    # use; resonatorlab.constants writes out the five CODATA values it needs
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _imports_outside_functions(ast.parse(path.read_text()))
        for name in _imported_names(node)
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert offenders == []


def test_every_least_squares_call_passes_an_analytic_jacobian():
    # without jac= scipy falls back to finite differences, whose step rule
    # decides where a fit stops
    calls = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "least_squares"
    ]
    assert calls
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if not any(keyword.arg == "jac" for keyword in node.keywords)
    ]
    assert offenders == []


FACTORIZATIONS = {"qr", "svd", "eigh", "pinv", "lstsq"}


def test_only_lsq_factorizes_a_jacobian():
    # every covariance comes from _lsq._scaled_pinv, and every solver step
    # from _lsq.least_squares; no other module takes a factorization of its own
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "_lsq"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in ([node.attr] if isinstance(node, ast.Attribute) else _imported_names(node))
        if name.rsplit(".", 1)[-1] in FACTORIZATIONS
    ]
    assert offenders == []


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _notch_forward_term(node) -> str | None:
    """The notch model's forward term that ``node`` writes out, if any: the
    delay phase ``-2 pi f tau``, which the delay phasor needs whether it is
    taken as ``exp(-2j pi f tau)`` or as cos + i sin of the real phase, or the
    mismatch ``kappa_c .../cos(phi0)``."""
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and "tau" in _names(node)
        and any(getattr(n, "attr", getattr(n, "id", None)) == "pi" for n in ast.walk(node))
    ):
        return "delay phasor"
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Call)
        and getattr(node.right.func, "attr", None) == "cos"
        and "kappa_c" in _names(node.left)
    ):
        return "mismatch"
    return None


def test_notch_model_is_written_once():
    # the forward terms live in linfit._delay and linfit._notch alone; the
    # Jacobian, the seed and the Kerr model take them from there instead of a
    # copy of the model
    found = []

    def visit(node, module, function):
        term = _notch_forward_term(node)
        if term is not None:
            found.append((module, function, term))
            return  # a term's own sub-expressions are not a second copy
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert sorted(found) == [("linfit", "_delay", "delay phasor"), ("linfit", "_notch", "mismatch")]


def test_cli_holds_no_physics_formulas():
    # square roots, dips and 2 pi factors live in the modules that own the
    # physics; cli.py only parses options and formats output
    banned = {"argmin", "sqrt", "TWO_PI"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    offenders = [
        f"cli.py:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in banned)
        or (isinstance(node, ast.Name) and node.id in banned)
    ]
    assert offenders == []


def _python(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_cli_import_loads_neither_scipy_nor_jsonschema():
    code = (
        "import resonatorlab.cli, sys; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    assert _python(code).strip() == ""


def test_package_import_loads_no_numpy():
    code = "import resonatorlab, sys; print(' '.join(sys.modules))"
    modules = set(_python(code).split())
    assert "numpy" not in modules
    assert not any(m.startswith("resonatorlab.") for m in modules)


def _type_checking_nodes(tree) -> set[int]:
    """ids of the nodes inside ``if TYPE_CHECKING:`` blocks, which never run."""
    return {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If)
        and isinstance(block.test, ast.Name)
        and block.test.id == "TYPE_CHECKING"
        for node in ast.walk(block)
    }


def test_numpy_free_modules_import_no_numpy_at_module_level():
    # these serve --version and design, which must start without numpy
    offenders = []
    for name in ("__init__", "cli", "reports", "designer", "errors", "constants"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        skipped = _type_checking_nodes(tree)
        offenders += [
            f"{name}.py:{node.lineno} {imported}"
            for node in _imports_outside_functions(tree)
            if id(node) not in skipped
            for imported in _imported_names(node)
            if imported == "numpy" or imported.startswith("numpy.")
        ]
    assert offenders == []


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    for kind, extra in (("linear", ["--points", "401"]), ("kerr", ["--points", "201"]), ("field", [])):
        argv = ["synth", kind, "--out-csv", str(tmp / f"{kind}.csv"), "--out", str(tmp / "synth.json")]
        assert main(argv + extra) == 0
    return tmp


#: Modules each subcommand must not load.
ABSENT = {
    "--version": ("numpy",),
    "design": ("numpy", "resonatorlab.core", "resonatorlab.linfit", "resonatorlab.kerrfit"),
    "fit-linear": (
        "resonatorlab.kerrfit", "resonatorlab.fieldmodel", "resonatorlab.designer", "resonatorlab.synth",
        "numpy.ma",
    ),
    "fit-power-sweep": (
        "resonatorlab.kerrfit", "resonatorlab.fieldmodel", "resonatorlab.designer", "resonatorlab.synth",
        "numpy.ma",
    ),
    "fit-field": (
        "resonatorlab.linfit", "resonatorlab.kerrfit", "resonatorlab.designer", "resonatorlab.synth",
        "numpy.ma",
    ),
    "fit-kerr": ("resonatorlab.fieldmodel", "resonatorlab.designer", "resonatorlab.synth", "numpy.ma"),
}
#: The synthetic CSV each fit subcommand reads.
INPUT = {"fit-linear": "linear", "fit-power-sweep": "kerr", "fit-field": "field", "fit-kerr": "kerr"}

RUN_CLI = """
import sys
import resonatorlab.cli as cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse exits after printing --version
    code = exc.code
print(code, " ".join(sys.modules))
"""


@pytest.mark.parametrize("command", ABSENT)
def test_each_subcommand_imports_only_what_it_runs(command, cli_inputs):
    argv = [command]
    if command in INPUT:
        argv += [str(cli_inputs / f"{INPUT[command]}.csv")]
    if command != "--version":
        argv += ["--out", str(cli_inputs / f"{command}.json")]
    code, *modules = _python(RUN_CLI, *argv).splitlines()[-1].split()
    assert code in ("0", "None")
    assert [m for m in ABSENT[command] if m in modules] == []


#: The package modules that ``import resonatorlab.cli`` loads, which README's
#: table of the modules each subcommand loads leaves out.
CLI_MODULES = {"cli", "constants", "errors", "reports"}


def _readme_module_table() -> dict[str, tuple[str, str]]:
    """Each subcommand's (modules, numpy) cells in README's table."""
    text = (PACKAGE.parents[1] / "README.md").read_text()
    lines = text[text.index("| Subcommand | Package modules loaded") :].splitlines()
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[2:]):
        commands, modules, numpy = (cell.strip() for cell in line.strip("|").split("|"))
        table.update(dict.fromkeys(re.findall(r"`([^`]+)`", commands), (modules, numpy)))
    return table


@pytest.mark.parametrize("command", ["--version", *COMMANDS])
def test_readme_module_table_lists_what_each_subcommand_loads(command, cli_inputs):
    modules_cell, numpy_cell = _readme_module_table()[command]
    named = set(re.findall(r"`([^`]+)`", modules_cell))
    if modules_cell.startswith("all but"):
        named = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} - CLI_MODULES - named
    argv = [command]
    if command in INPUT:
        argv += [str(cli_inputs / f"{INPUT[command]}.csv")]
    if command == "synth":
        argv += ["field", "--out-csv", str(cli_inputs / "table.csv")]
    if command != "--version":
        argv += ["--out", str(cli_inputs / f"table-{command}.json")]
    code, *modules = _python(RUN_CLI, *argv).splitlines()[-1].split()
    assert code in ("0", "None")
    loaded = {m.split(".")[1] for m in modules if m.startswith("resonatorlab.")}
    assert loaded - CLI_MODULES == named and CLI_MODULES <= loaded
    assert ("numpy" in modules) == {"yes": True, "no": False}[numpy_cell]


def test_public_namespace_resolves_lazily_to_the_defining_modules():
    code = """
import json, sys, types
import resonatorlab as rl
bad = []
for name in rl.__all__:
    value = getattr(rl, name)
    if isinstance(value, types.ModuleType):
        ok = sys.modules[f"resonatorlab.{name}"] is value
    else:
        module = sys.modules[getattr(value, "__module__", "resonatorlab.constants")]
        ok = getattr(module, name) is value
    if not ok:
        bad.append(name)
star = {}
exec("from resonatorlab import *", star)
print(json.dumps({
    "bad": bad,
    "unbound": sorted(set(rl.__all__) - set(star)),
    "unlisted": sorted(set(rl.__all__) - set(dir(rl))),
    "extras": [
        rl.kerrfit.BRANCH_RULES is rl.constants.BRANCH_RULES,
        rl.designer.kerr_from_array is rl.kerr_from_array,
        rl.linfit.single_photon_power is rl.single_photon_power,
        rl.linfit.PARAM_NAMES == ("f_r", "kappa_c", "kappa_int", "phi0", "amplitude", "alpha", "tau"),
    ],
}))
"""
    out = json.loads(_python(code))
    assert out == {"bad": [], "unbound": [], "unlisted": [], "extras": [True] * 4}
    assert len(resonatorlab.__all__) == len(set(resonatorlab.__all__))
    with pytest.raises(AttributeError):
        resonatorlab.no_such_name


def test_every_submodule_binds_its_all():
    # a name left in a submodule's __all__ after the name is gone breaks
    # ``from resonatorlab.<module> import *``
    checked, unbound = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"resonatorlab.{path.stem}")
        if not hasattr(module, "__all__"):
            continue
        checked.append(path.stem)
        unbound += [f"{path.stem}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert checked and unbound == []


def test_one_version_string(cli_inputs, capsys):
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "resonatorlab.__version__"
    }
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == resonatorlab.__version__
    report = json.loads((cli_inputs / "synth.json").read_text())
    assert report["tool"]["version"] == resonatorlab.__version__


def test_constants_equal_scipy_codata_values():
    import scipy.constants as sc

    assert constants.PLANCK == sc.h
    assert constants.ELEMENTARY_CHARGE == sc.e
    assert constants.HBAR == sc.hbar
    assert constants.FLUX_QUANTUM == sc.physical_constants["mag. flux quantum"][0]
    assert constants.VACUUM_PERMITTIVITY == sc.epsilon_0


@pytest.mark.parametrize("command", ["--version", "design", "fit-linear"])
def test_runs_that_log_nothing_load_no_logging(command, cli_inputs):
    # logging is imported with the first record; a run without a warning or
    # an error makes none
    argv = [command]
    if command == "fit-linear":
        argv += [str(cli_inputs / "linear.csv")]
    if command != "--version":
        argv += ["--out", str(cli_inputs / f"{command}-logging.json")]
    code, *modules = _python(RUN_CLI, *argv).splitlines()[-1].split()
    assert code in ("0", "None")
    assert "logging" not in modules


LOGGED_RUN = """
import sys
import resonatorlab.cli as cli
sys.stderr = sys.stdout  # the log line joins the output
code = cli.main(sys.argv[1:])
print(code, "logging" in sys.modules)
"""


@pytest.mark.parametrize("level", ["ERROR"])
def test_runs_that_log_load_no_logging(level, cli_inputs):
    # the CLI writes its one kind of log line, a failed run's error, to
    # stderr itself
    out = str(cli_inputs / f"{level}.json")
    sweep = str(cli_inputs / "missing.csv")
    *lines, last = _python(LOGGED_RUN, "fit-kerr", sweep, "--out", out).splitlines()
    assert last == "2 False"
    assert any(line.startswith(f"{level} resonatorlab: ") for line in lines)
