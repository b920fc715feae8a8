"""Each library module keeps its private names to itself, its public names
have readers outside the tests, and the package has one FFT library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cylwave"
# public library names that only the tests read: each is a reference the
# tests compare the library's own route against
TEST_REFERENCES = {
    "exact.mode_denominator",
    "specfun.addition_series_h0_d1",
    "specfun.addition_series_h0_d2",
    "specfun.bessel_j",
}


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


def _imported_modules(path):
    """Dotted names of every module, and every name from one, that path imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module)
            found.update("%s.%s" % (node.module, alias.name) for alias in node.names)
    return found


def test_no_module_imports_scipy_fft():
    # every transform of the package goes through numpy.fft
    offenders = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if any(name.split(".")[:2] == ["scipy", "fft"] for name in _imported_modules(path))
    }
    assert offenders == set()


def _public_top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def _referenced_names(tree):
    """Every name tree reads, imports or reads as an attribute, unqualified."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def test_public_library_names_reached_only_by_tests_are_the_references():
    library = sorted(SRC.glob("*.py"))
    demos, bench = sorted((ROOT / "demos").glob("*.py")), sorted((ROOT / "perfbench").glob("*.py"))
    readers = library + demos + bench
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in readers}
    referenced = set().union(*map(_referenced_names, trees.values()))
    unreached = {
        "%s.%s" % (path.stem, name)
        for path in library
        for name in _public_top_level_names(trees[path])
        if name not in referenced
    }
    assert unreached == TEST_REFERENCES
