"""The Monte Carlo and exact-rational routes never reach the closed form.

Each of the three routes to the spacing law must stay independent of the
others, so the simulation and enumeration modules may take from
``distribution`` only the parameter checks, and nothing from ``logprob``.
"""

import ast
from pathlib import Path

import pytest

import spacings

_PACKAGE = Path(spacings.__file__).parent
_ALLOWED = {"distribution": {"ModelParams"}, "logprob": set()}


def _imports(tree):
    """(module, member) for each import from the package; member None for a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs = [("." * node.level + (node.module or ""), alias.name)
                     for alias in node.names]
        else:
            continue
        for path, member in pairs:
            if path in ("spacings", "."):  # from . import m names a module
                yield member, None
            elif path.startswith(("spacings.", ".")):
                yield path.rpartition(".")[2], member


@pytest.mark.parametrize("name", ["sampler", "sequences", "oracle"])
def test_route_takes_only_parameter_checks_from_the_formula(name):
    tree = ast.parse((_PACKAGE / f"{name}.py").read_text())
    for module, member in _imports(tree):
        if module in _ALLOWED:
            assert member in _ALLOWED[module], f"{name} imports {module}.{member or ''}"
