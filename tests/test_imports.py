import ast
import os
import pathlib
import subprocess
import sys

from resonatorlab import constants

PACKAGE = pathlib.Path(constants.__file__).resolve().parent
# Slow scipy subpackages the CLI must not pay for on every start:
# scipy.signal (and the scipy.stats it pulls in) serves only dip segmentation,
# scipy.constants only five values written out in resonatorlab.constants.
SLOW_IMPORTS = ("scipy.signal", "scipy.stats", "scipy.constants")


def _imported_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_no_module_level_import_of_slow_scipy_subpackages():
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        for name in _imported_names(node)
        if any(name == slow or name.startswith(slow + ".") for slow in SLOW_IMPORTS)
    ]
    assert offenders == []


def _scipy_optimize_names(node) -> list[str]:
    """scipy.optimize names a node binds; a bound submodule counts as ``*``."""
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "scipy.optimize":
            return [alias.name for alias in node.names]
        if (node.module or "").startswith("scipy.optimize."):
            return [f"{node.module}.{alias.name}" for alias in node.names]
        if node.module == "scipy":
            return ["*" for alias in node.names if alias.name == "optimize"]
    if isinstance(node, ast.Import):
        return ["*" for alias in node.names if alias.name.startswith("scipy.optimize")]
    return []


def test_only_least_squares_is_imported_from_scipy_optimize():
    # every fit runs on least_squares; any other solver widens the surface a
    # package-owned replacement of scipy.optimize would have to cover
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for name in _scipy_optimize_names(node)
        if name != "least_squares"
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


def test_cli_import_loads_neither_scipy_signal_nor_stats():
    # scipy.constants is left out here: scipy.optimize itself imports it on
    # recent scipy (through scipy.spatial.transform).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = (
        "import resonatorlab.cli, sys; "
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
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
