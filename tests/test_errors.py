"""Every domain error the CLI can report is raised somewhere in the package."""

import ast
import inspect
from pathlib import Path

from eischow import errors

SRC = Path(errors.__file__).resolve().parent


def _raised_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = {
        name for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.EischowError) and cls is not errors.EischowError
    }
    assert classes, "errors.py defines no EischowError subclass"
    assert sorted(classes - _raised_names()) == []
