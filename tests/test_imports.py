"""Start-up cost: every CLI verb is a fresh process, so the package loads
no scipy at import, and each verb loads only the scipy parts it calls.
Each test runs the verb in a fresh interpreter and reads back the scipy
modules it left in sys.modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# runs cli.main on each argv of sys.argv[1] (a JSON list of argv lists),
# then prints the exit codes and the loaded scipy modules as the last
# stdout line
_RUN_VERBS = """
import contextlib, io, json, sys
from choquard_lab.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def run_fresh(*argvs):
    """Exit codes of the verbs, run in turn in one fresh process without a
    disk cache, and the scipy modules loaded by then."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CHOQUARD_LAB_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", _RUN_VERBS,
                           json.dumps(list(argvs))],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    return codes, set(loaded)


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, choquard_lab.cli; "
         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def state_stem(tmp_path_factory, state_312):
    stem = tmp_path_factory.mktemp("state") / "Q"
    state_312.save(stem)
    return stem


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["solve", "--d", "3", "--alpha", "1", "--p", "2", "--bogus"], 1),
])
def test_help_and_usage_errors_load_no_scipy(argv, code):
    assert run_fresh(argv) == ([code], set())


def test_verify_loads_no_scipy(state_stem):
    assert run_fresh(["verify", str(state_stem)]) == ([0], set())


def test_d4_solve_and_spectrum_load_no_special_or_integrate(tmp_path):
    # the angular operator is assembled in the process
    out = str(tmp_path)
    codes, loaded = run_fresh(
        ["solve", "--d", "4", "--alpha", "1.97", "--p", "2.03", "--n", "80",
         "--out-dir", out],
        ["spectrum", str(tmp_path / "Q"), "--out-dir", out])
    assert codes == [0, 0]
    assert "scipy.linalg" in loaded
    assert not any(m.startswith(("scipy.special", "scipy.integrate"))
                   for m in loaded)
