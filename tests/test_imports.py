import ast
import os
import pathlib
import subprocess
import sys

from resonatorlab import constants

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


def test_cli_import_loads_neither_scipy_nor_jsonschema():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = (
        "import resonatorlab.cli, sys; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_constants_equal_scipy_codata_values():
    import scipy.constants as sc

    assert constants.PLANCK == sc.h
    assert constants.ELEMENTARY_CHARGE == sc.e
    assert constants.HBAR == sc.hbar
    assert constants.FLUX_QUANTUM == sc.physical_constants["mag. flux quantum"][0]
    assert constants.VACUUM_PERMITTIVITY == sc.epsilon_0
