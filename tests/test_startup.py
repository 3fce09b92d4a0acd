"""formprobe loads OpenBLAS with one thread unless the user chose a count."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import formprobe

INIT = Path(formprobe.__file__)


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_to_one_thread(given, seen):
    # a fresh process: this one imported numpy before formprobe
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(INIT.parent.parent), env.get("PYTHONPATH")]))
    code = "import os, formprobe; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == seen


def _sets_default(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "os.environ.setdefault"
            and [ast.literal_eval(a) for a in node.value.args]
            == ["OPENBLAS_NUM_THREADS", "1"])


def test_default_is_set_before_numpy_can_load():
    # numpy reads the variable once, when it loads OpenBLAS; every import
    # of the package's modules imports numpy, so none may come first
    body = ast.parse(INIT.read_text()).body
    first = next(i for i, node in enumerate(body) if _sets_default(node))
    for node in body[:first]:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert isinstance(node, ast.Import)
            assert [alias.name for alias in node.names] == ["os"]
