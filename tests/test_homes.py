"""Every public name has one home: the module that defines it.

A module's ``__all__`` lists only names it defines, and the lazy table
of :mod:`cvbell` loads each name from its defining module.
"""

import ast
import importlib

import pytest

import cvbell


def defined_names(module) -> set:
    """Names bound at the top level of ``module``'s source by ``def``,
    ``class`` or assignment; imported names are not among them."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", cvbell._SUBMODULES)
def test_all_lists_only_names_the_module_defines(name):
    module = importlib.import_module(f"cvbell.{name}")
    foreign = sorted(set(getattr(module, "__all__", ())) - defined_names(module))
    assert not foreign, f"cvbell.{name}.__all__ re-exports {foreign}"


@pytest.mark.parametrize("name", sorted(cvbell._HOMES))
def test_homes_name_the_defining_module(name):
    module = importlib.import_module(f"cvbell.{name}")
    foreign = sorted(set(cvbell._HOMES[name]) - defined_names(module))
    assert not foreign, f"cvbell.{name} does not define {foreign}"


def test_benchmark_imports_still_resolve():
    # the benchmark resolves these two where they were re-exported
    from cvbell import mixtures, modes, phase_space

    assert phase_space.SqueezedStateParams is modes.SqueezedStateParams
    assert mixtures.MixtureSpec is modes.MixtureSpec
