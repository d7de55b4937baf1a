import os
import re
import subprocess
import sys
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


def _in_bounded_process(code: str) -> str:
    """stdout of ``code`` run by a new interpreter under a 4 GiB address-space limit.

    The limit is set in the child alone, before ``code`` runs, and the child
    runs one OpenBLAS thread (each thread's stack counts against the limit)
    and is stopped after 60 s.  A call that allocates past the limit then
    fails in the child instead of filling the host.
    """
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    limit = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({_AS_LIMIT}, {_AS_LIMIT}))\n"
    proc = subprocess.run([sys.executable, "-c", limit + code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def bounded_refusal():
    """Run one statement in a bounded child; its DomainError's seconds and message.

    The statement sees ``sp`` and ``GRID_N_MAX``.  A statement that
    returns, or raises anything but DomainError, fails the calling test.
    """
    def refusal(call: str) -> tuple[float, str]:
        out = _in_bounded_process(_REFUSAL.format(call=call))
        assert out, f"{call} raised no DomainError"
        seconds, message = out.split("\n", 1)
        return float(seconds), message.strip()

    return refusal


@pytest.fixture(scope="session")
def quickstart() -> str:
    """The Python block under README's "Library quickstart" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"^## Library quickstart\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
