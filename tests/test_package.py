"""The package namespace: public names resolve to their layers, and layers run on first touch."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spacings as sp
from spacings import _LAYER_OF, _PUBLIC

_LAYERS = ("diagnostics", "distribution", "errors", "logprob", "oracle", "sampler", "sequences")


def _in_fresh_process(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this package's source."""
    src = str(Path(sp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_table_names_every_layer_once():
    assert sorted(_PUBLIC) == list(_LAYERS)
    assert sp.__all__ == sorted(_LAYER_OF)
    assert len(_LAYER_OF) == sum(map(len, _PUBLIC.values()))  # no name under two layers


@pytest.mark.parametrize("name", sp.__all__)
def test_public_name_is_the_defining_layers_object(name):
    layer = sys.modules[f"spacings.{_LAYER_OF[name]}"]
    obj = vars(layer)[name]
    assert getattr(sp, name) is obj
    if isinstance(obj, (type, types.FunctionType)) and obj.__module__.startswith("spacings"):
        assert obj.__module__ == layer.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spacings import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(sp, name) for name in sp.__all__}


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sp.no_such_name  # noqa: B018
    assert not hasattr(sp, "pmf_scaled_closed")


def test_dir_lists_layers_and_public_names():
    assert {*_LAYERS, *sp.__all__} <= set(dir(sp))


_REGISTERED = """
import sys, types
import spacings
layers = sorted(k for k in sys.modules if k.startswith("spacings."))
ran = sorted(k for k in layers if type(sys.modules[k]) is types.ModuleType)
print(",".join(layers)); print(",".join(ran))
import spacings.cli
print(",".join(sorted(k for k in sys.modules if k.startswith("spacings."))))
oracle = sys.modules["spacings.oracle"]
print(type(oracle) is types.ModuleType, "enumerate_conditional_pmf" in vars(oracle),
      type(oracle) is types.ModuleType, spacings.oracle is oracle)
"""


def test_import_registers_every_layer_and_vars_runs_one():
    # bench/tracer.py walks vars() of every spacings.* module after importing spacings.cli
    registered, ran, after_cli, oracle = _in_fresh_process(_REGISTERED).splitlines()
    assert registered == ",".join(f"spacings.{layer}" for layer in _LAYERS)
    assert ran == ""  # importing the package runs no layer
    assert after_cli == ",".join(sorted([*registered.split(","), "spacings.cli"]))
    assert oracle == "False True True True"


_FIRST_TOUCH = """
import sys, threading
import spacings

TOUCHES = (lambda: spacings.collect_empirical,
           lambda: spacings.sampler.EmpiricalDistribution,
           lambda: spacings.oracle.enumerate_conditional_pmf,
           lambda: spacings.diagnostics.ks_to_geometric)
sys.setswitchinterval(1e-6)  # switch threads often, inside a layer's code too
barrier = threading.Barrier(8)
failures = []

def touch(k):
    barrier.wait()
    try:
        for j in range(len(TOUCHES)):
            assert callable(TOUCHES[(k + j) % len(TOUCHES)]())
    except BaseException as exc:
        failures.append(repr(exc))

threads = [threading.Thread(target=touch, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(sum(t.is_alive() for t in threads), len(failures), failures)
"""


@pytest.mark.parametrize("attempt", range(5))
def test_first_touch_from_eight_threads_sees_whole_layers(attempt):
    # each layer runs at most once, and a thread that touches it while another
    # runs it waits for the whole module instead of reading a partial one
    assert _in_fresh_process(_FIRST_TOUCH).splitlines()[-1] == "0 0 []"  # alive, failures


_RETRY = """
import sys, types
import spacings
sys.modules["numpy"] = None  # the layer's own import of numpy fails
try:
    spacings.LogProb
except ImportError:
    print("raised", type(sys.modules["spacings.logprob"]).__name__)
del sys.modules["numpy"]
print(spacings.LogProb.__name__, type(sys.modules["spacings.logprob"]) is types.ModuleType)
"""


def test_a_layer_whose_code_raised_runs_again_on_the_next_read():
    assert _in_fresh_process(_RETRY).splitlines() == ["raised _Registered", "LogProb True"]
