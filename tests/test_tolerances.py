"""Every tolerance of the package has a runtime reader."""

import ast
import os

import cvbell
from cvbell.tolerances import TOLERANCES

PACKAGE = os.path.dirname(os.path.abspath(cvbell.__file__))


def _tolerances_read(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "TOLERANCES"}


def test_every_tolerance_is_read_by_the_package():
    # every report prints every field, so a field that only the tests
    # read belongs with the test oracles, not here
    read = set()
    for name in os.listdir(PACKAGE):
        if name.endswith(".py") and name != "tolerances.py":
            read |= _tolerances_read(os.path.join(PACKAGE, name))
    unread = [name for name in TOLERANCES.as_dict() if name not in read]
    assert unread == []
