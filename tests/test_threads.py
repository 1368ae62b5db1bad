"""Reports depend only on the inputs, not on the BLAS thread count.

Each fit runs in two fresh interpreters, one under ``OPENBLAS_NUM_THREADS=1``
and one under ``=2``, and the two reports must match byte for byte. The
inputs are long enough for OpenBLAS to split a dot product or a ``syrk``
between threads, so a reduction left to BLAS shows up in the last digits.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resonatorlab as rl
from conftest import grid_around, resonator
from resonatorlab.io import write_trace_csv

SRC = Path(__file__).resolve().parent.parent / "src"


def _report(tmp_path: Path, argv: list[str], threads: int) -> bytes:
    out = tmp_path / f"{argv[0]}-{threads}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "resonatorlab.cli", *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        check=True,
    )
    return out.read_bytes()


def _kerr_sweep(path: Path):
    """A ``cli-pipeline``-style sweep: 15 powers of 2001 points over 20 linewidths."""
    res = resonator(phi0=0.2)
    params = rl.KerrParams(
        linear=res, environment=rl.EnvironmentParams(0.95, 0.3, 35e-9), kerr=99.5e3, phi=0.2
    )
    powers = np.arange(-150.0, -115.0 + 1e-9, 2.5)
    noise = rl.NoiseSpec(snr_db=40.0, seed=0)
    grid = grid_around(res, span_linewidths=20.0)
    write_trace_csv(path, rl.generate_kerr_sweep(params, grid, powers, "lowest", noise))


def _trace(path: Path, points: int):
    """One trace of ``points`` points over 20 linewidths."""
    res = resonator(phi0=0.2)
    env = rl.EnvironmentParams(0.9, 0.3, 40e-9)
    grid = grid_around(res, span_linewidths=20.0, points=points)
    noise = rl.NoiseSpec(snr_db=40.0, seed=0)
    write_trace_csv(path, rl.generate_linear_trace(res, env, grid, -140.0, noise))


def _long_trace(path: Path):
    """One trace of 20001 points."""
    _trace(path, 20001)


def _trace_with_long_wings(path: Path):
    """One trace of 200001 points: the delay estimate's wings hold 20,000
    points each, where OpenBLAS splits a dot product between threads."""
    _trace(path, 200001)


@pytest.mark.parametrize(
    "command, make_input",
    [("fit-kerr", _kerr_sweep), ("fit-linear", _long_trace), ("fit-linear", _trace_with_long_wings)],
)
def test_report_does_not_depend_on_the_blas_thread_count(tmp_path, command, make_input):
    data = tmp_path / "data.csv"
    make_input(data)
    argv = [command, str(data)]
    assert _report(tmp_path, argv, 1) == _report(tmp_path, argv, 2)
