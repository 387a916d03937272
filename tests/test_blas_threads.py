"""`import qdfit` loads numpy with one OpenBLAS thread, leaves the environment
as it found it, and yields to a thread count the caller chose."""

import os
import subprocess
import sys

import pytest

import qdfit

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_loaded():
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            return "openblas" in maps.read().lower()
    except OSError:
        return False


pytestmark = [
    pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task"),
    pytest.mark.skipif(not _openblas_loaded(), reason="numpy's BLAS is not OpenBLAS"),
]

# threads after the imports, whether os.environ is unchanged, and whether a
# child process sees the variable the pin set
PROBE = """\
import os, subprocess, sys
before = dict(os.environ)
{imports}
threads = len(os.listdir("/proc/self/task"))
child = subprocess.run(
    [sys.executable, "-c", "import os; print('OPENBLAS_NUM_THREADS' in os.environ)"],
    capture_output=True, text=True, check=True,
)
print(threads, dict(os.environ) == before, child.stdout.strip())
"""


def _probe(imports, **variables):
    src = os.path.dirname(os.path.dirname(qdfit.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = PROBE.format(imports=imports)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    threads, unchanged, child_sees = out.stdout.split()
    return int(threads), unchanged == "True", child_sees == "True"


def _cpus():
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def test_import_pins_one_thread_and_restores_the_environment():
    assert _probe("import qdfit") == (1, True, False)


def test_pin_holds_through_a_fit():
    assert _probe("import qdfit, numpy as np\nqdfit.fit(np.ones(60) / 60)") == (1, True, False)


@pytest.mark.skipif(_cpus() < 2, reason="OpenBLAS starts one thread per CPU at most")
@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_a_thread_count_the_caller_set_wins(variable):
    threads, unchanged, child_sees = _probe("import qdfit", **{variable: "2"})
    assert (threads, unchanged) == (2, True)
    assert child_sees == (variable == "OPENBLAS_NUM_THREADS")


def test_numpy_imported_first_changes_nothing():
    unpinned = _probe("import numpy")
    assert _probe("import numpy\nimport qdfit") == unpinned
    assert unpinned[1:] == (True, False)
