import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
# the address space a bounded child may map: numpy's import fits, a runaway table does not
_AS_LIMIT = 4 * 2**30
# time each call of a bounded child and report its DomainError; any other outcome prints nothing
_REFUSAL = """
import time
import spacings as sp
from spacings.errors import GRID_N_MAX
start = time.perf_counter()
try:
    {call}
except sp.DomainError as exc:
    print(time.perf_counter() - start)
    print(exc)
"""


# put first in a bounded child's code, so the limit holds in that child alone
_LIMIT = "import resource\nresource.setrlimit(resource.RLIMIT_AS, ({0}, {0}))\n"


def _fresh_python(args, *, address_space=None, env=None, start=subprocess.run, **keywords):
    """A new interpreter started on ``args`` that imports this package's source.

    The child's environment is ``env`` (this process's by default) with the
    package's source directory first on PYTHONPATH.  ``start`` is
    ``subprocess.run``, whose child has its output captured as text and is
    stopped after 120 s unless ``keywords`` say otherwise, or
    ``subprocess.Popen``, which gets ``keywords`` alone.  With
    ``address_space`` set, ``args`` are ``["-c", code, *argv]`` and the
    child may map at most that many bytes: the limit is set in the child
    alone, before ``code`` runs, and the child runs one OpenBLAS thread
    (each thread's stack counts against the limit), so a call that
    allocates past it fails in the child instead of filling the host.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    if address_space is not None:
        flag, code, *argv = args
        assert flag == "-c", f"a bounded child runs -c code, not {flag}"
        args = [flag, _LIMIT.format(address_space) + code, *argv]
        env["OPENBLAS_NUM_THREADS"] = "1"
    if start is subprocess.run:
        keywords = {"capture_output": True, "text": True, "timeout": 120, **keywords}
    return start([sys.executable, *args], env=env, **keywords)


@pytest.fixture(scope="session")
def fresh_python():
    """Start a new interpreter on this package's source: see ``_fresh_python``."""
    return _fresh_python


@pytest.fixture(scope="session")
def bounded_python():
    """``_fresh_python`` under a 4 GiB address-space limit, stopped after 60 s."""
    return partial(_fresh_python, address_space=_AS_LIMIT, timeout=60)


@pytest.fixture(scope="session")
def bounded_refusal(bounded_python):
    """Run one statement in a bounded child; its DomainError's seconds and message.

    The statement sees ``sp`` and ``GRID_N_MAX``.  A statement that
    returns, or raises anything but DomainError, fails the calling test.
    """
    def refusal(call: str) -> tuple[float, str]:
        proc = bounded_python(["-c", _REFUSAL.format(call=call)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout, f"{call} raised no DomainError"
        seconds, message = proc.stdout.split("\n", 1)
        return float(seconds), message.strip()

    return refusal


@pytest.fixture(scope="session")
def quickstart() -> str:
    """The Python block under README's "Library quickstart" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"^## Library quickstart\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
