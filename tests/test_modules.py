"""Each library module keeps its private names to itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cylwave"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _package_module(node):
    """The cylwave module an ImportFrom reads from, '' for the package, or None."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "cylwave":
        return node.module.partition(".")[2]
    return None


def _foreign_private_names(path):
    """module.name strings for each private name of another cylwave module that path uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own, modules, found = path.stem, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "":
                    modules[alias.asname or alias.name] = alias.name
                elif source != own and _private(alias.name):
                    found.append("%s.%s" % (source, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and modules.get(node.value.id, own) != own
            and _private(node.attr)
        ):
            found.append("%s.%s" % (modules[node.value.id], node.attr))
    return found


def test_no_module_reaches_into_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    offenders = {
        path.name: names for path in paths if (names := _foreign_private_names(path))
    }
    assert offenders == {}
