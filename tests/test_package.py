"""The package namespace: public names resolve to their layers, and layers run on first touch."""

import ast
import functools
import inspect
import sys
import textwrap
import types
from pathlib import Path

import pytest

import spacings as sp
from spacings import _LAYER_OF, _PUBLIC, distribution

_LAYERS = ("diagnostics", "distribution", "errors", "logprob", "oracle", "sampler", "sequences")
# public functions that no CLI route, demo, acceptance criterion or README example names
_LIBRARY_ONLY = {
    "size_tail": "the exact law's normalizer T: every pmf, cdf and sweep request takes log T "
                 "from it through spacing_distribution",
    "grid": "the sampler tests' point-by-point reference route: sample_subset over grid(n)",
}
# public members of public classes that no part of the system reads (none today)
_MEMBERS_WITHOUT_READER: dict[str, str] = {}
_ROOT = Path(__file__).resolve().parents[1]


def _in_fresh_process(fresh_python, code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this package's source."""
    proc = fresh_python(["-c", code])
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


def test_import_registers_every_layer_and_vars_runs_one(fresh_python):
    # bench/tracer.py walks vars() of every spacings.* module after importing spacings.cli
    out = _in_fresh_process(fresh_python, _REGISTERED)
    registered, ran, after_cli, oracle = out.splitlines()
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
def test_first_touch_from_eight_threads_sees_whole_layers(fresh_python, attempt):
    # each layer runs at most once, and a thread that touches it while another
    # runs it waits for the whole module instead of reading a partial one
    alive_and_failures = _in_fresh_process(fresh_python, _FIRST_TOUCH).splitlines()[-1]
    assert alive_and_failures == "0 0 []"


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


def test_a_layer_whose_code_raised_runs_again_on_the_next_read(fresh_python):
    out = _in_fresh_process(fresh_python, _RETRY)
    assert out.splitlines() == ["raised _Registered", "LogProb True"]


def _names_in(code: str) -> set:
    """Every name, attribute and imported name that ``code`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_function_has_a_caller_the_system_runs(quickstart):
    root = Path(__file__).resolve().parents[1]
    callers = [root / "src" / "spacings" / "cli.py", *sorted((root / "demos").glob("*.py")),
               root / "tests" / "test_acceptance.py"]
    named = _names_in(quickstart).union(*(_names_in(path.read_text()) for path in callers))
    functions = {name for name in sp.__all__ if isinstance(getattr(sp, name), types.FunctionType)}
    unreached = sorted(functions - named - set(_LIBRARY_ONLY))
    assert not unreached, f"public functions with no caller the system runs: {unreached}"
    assert set(_LIBRARY_ONLY) <= functions - named  # each exception is still needed


def _attributes_in(tree: ast.AST, outside: str | None = None) -> set:
    """Every name that ``tree`` reads or sets as an attribute, outside class ``outside``'s body."""
    parts = [node for node in ast.iter_child_nodes(tree)
             if not (isinstance(node, ast.ClassDef) and node.name == outside)]
    return {node.attr for part in parts for node in ast.walk(part)
            if isinstance(node, ast.Attribute)}


def _fields(cls) -> set:
    """Public fields of ``cls``: names it or a package base annotates, and its ``self`` stores."""
    stores = {node.attr for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(cls))))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    annotated = {name for base in cls.__mro__ if base.__module__.startswith("spacings")
                 for name in inspect.get_annotations(base)}
    return {name for name in {*annotated, *stores} if not name.startswith("_")}


def _members(cls) -> set:
    """The public fields, properties and methods of ``cls``."""
    return _fields(cls) | {name for name in vars(cls) if not name.startswith("_")}


def test_every_public_member_has_a_reader_the_system_runs(quickstart):
    """Each field, property and method of a public class is read by a part of the system.

    The readers are the package's layers, ``cli.py`` among them, the demos,
    ``tests/test_acceptance.py``, README's Library quickstart block and
    ``bench/*.py``.  Dunders, private names, exception types and classes
    defined outside the package (``Rational``) are exempt.  A member counts
    as read when its name is read or set as an attribute anywhere in those
    files, except that a property or method read only inside its own class
    body is not read: a reader within the class serves nobody outside it.
    Fields are read wherever they are, since the constructor takes them.
    The match is by name, so it cannot tell ``ExactTable.n`` from
    ``ModelParams.n``, and one reader of a name covers every class that has it.
    """
    readers = [*sorted((_ROOT / "src" / "spacings").glob("*.py")),
               *sorted((_ROOT / "demos").glob("*.py")), _ROOT / "tests" / "test_acceptance.py",
               *sorted((_ROOT / "bench").glob("*.py"))]
    files = [None, *(path.resolve() for path in readers)]  # None: the quickstart block
    trees = [ast.parse(quickstart), *(ast.parse(path.read_text()) for path in readers)]
    named = set().union(*map(_attributes_in, trees))
    classes = [obj for obj in (getattr(sp, name) for name in sp.__all__)
               if isinstance(obj, type) and obj.__module__.startswith("spacings")
               and not issubclass(obj, BaseException)]
    unread = set()
    for cls in classes:
        own = Path(inspect.getsourcefile(cls)).resolve()
        outside = set().union(*(_attributes_in(tree, cls.__name__ if path == own else None)
                                for path, tree in zip(files, trees)))
        fields = _fields(cls)
        unread |= {f"{cls.__name__}.{name}" for name in _members(cls)
                   if name not in (named if name in fields else outside)}
    missing = sorted(unread - set(_MEMBERS_WITHOUT_READER))
    assert not missing, f"public members that no part of the system reads: {missing}"
    assert set(_MEMBERS_WITHOUT_READER) <= unread  # each exception is still needed


def test_every_package_part_the_benchmark_reads_exists():
    # bench/*.py runs the package from outside it: a rename there fails the
    # benchmark, not the package's own tests, so each part it reads is named here
    bench = [ast.parse(path.read_text()) for path in sorted((_ROOT / "bench").glob("*.py"))]
    reads = {node.attr for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "sp"}
    # point_queries.py reads each query kind as getattr(sp, kind)
    kinds = {kind for tree in bench for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MIX"
             for kind in ast.literal_eval(node.value)}
    assert "ModelParams" in reads and "pmf_scaled" in kinds
    assert sorted((reads | kinds) - set(sp.__all__)) == []
    table = sp.enumerate_conditional_pmf(3, "1/2", 1)
    assert table.n == 3 and table.mass(1) == table.masses[1]
    assert type(sp.size_tail(10, 0.5, 2).log) is float
    assert type(sp.collect_empirical(10, 0.5, 1, 100, 1).total) is int
    assert sp.sample_subset(sp.grid(4), 0.5, 1).survivors.ndim == 1
    assert isinstance(vars(sp.DistributionTable)["cdf"], functools.cached_property)
    assert callable(distribution._table_masses.cache_info)
    assert {"n", "p", "i", "trials"} <= set(inspect.signature(sp.collect_empirical).parameters)
