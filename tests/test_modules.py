"""Each library module keeps its private names to itself, its public names
have readers outside the tests, the package has one FFT library, one
module evaluates Bessel functions, and one reaches LAPACK."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cylwave"
# public library names that only the tests read: exact.mode_denominator is
# a reference the tests compare the library's own route against;
# specfun.bessel_j is a one-order read of specfun.bessel_orders that only
# the tests use, not an independent reference
TEST_REFERENCES = {
    "exact.mode_denominator",
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


def _scipy_linalg_reads(path):
    """Every name of scipy.linalg (or of its submodules) that path imports or reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, found = set(), set()  # aliases: local names bound to scipy.linalg
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "scipy":
                aliases.update(
                    alias.asname or "linalg" for alias in node.names if alias.name == "linalg"
                )
            elif node.module.split(".")[:2] == ["scipy", "linalg"]:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(
                alias.asname for alias in node.names
                if alias.asname and alias.name.split(".")[:2] == ["scipy", "linalg"]
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                found.add(node.attr)
            elif (
                isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name) and owner.value.id == "scipy"
            ):
                found.add(node.attr)
    return found


def test_dense_lapack_work_goes_through_get_lapack_funcs_in_discrete_only():
    # scipy.linalg's lu_factor, lu_solve, solve, inv and circulant repeat the
    # checks discrete makes itself, and lu_factor warns where it should raise
    reads = {
        path.name: names for path in sorted(SRC.glob("*.py")) if (names := _scipy_linalg_reads(path))
    }
    assert reads == {"discrete.py": {"get_lapack_funcs"}}


def test_one_discrete_function_fetches_the_lapack_routines_of_every_dense_solve():
    # _lu_solves factors, solves and applies every D2 character's system and
    # every full LU, so no caller joins a factorisation to its solves itself
    tree = ast.parse((SRC / "discrete.py").read_text())
    readers = {
        node.name: [
            ast.literal_eval(call.args[0]) for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "get_lapack_funcs"
        ]
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(getattr(name, "id", None) == "get_lapack_funcs" for name in ast.walk(node))
    }
    assert readers == {"_lu_solves": [("getrf", "getrs", "gecon")]}


def test_one_module_and_one_evaluator_name_the_bessel_functions():
    # integer-order Bessel values are formed only in specfun's _LOW_ORDER,
    # hankel2_low, bessel_orders and graf_products: no other module imports
    # scipy.special, no other top-level definition of specfun reads it or
    # _LOW_ORDER, and graf_products alone runs a recurrence from
    # hankel2_low's seeds (bessel_orders reads hankel2_low for |n| <= 1)
    importers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if any(name.split(".")[:2] == ["scipy", "special"] for name in _imported_modules(path))
    }
    assert importers == {"specfun.py"}
    tree = ast.parse((SRC / "specfun.py").read_text())
    naming = set()
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                reads = sub.value.id == "special"
            else:
                reads = isinstance(sub, ast.Name) and sub.id in ("_LOW_ORDER", "hankel2_low")
                reads = reads and isinstance(sub.ctx, ast.Load)
            if reads:
                naming.update(_top_level_names(node))
    assert naming == {"_LOW_ORDER", "hankel2_low", "bessel_orders", "graf_products"}


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in targets if isinstance(target, ast.Name)]
    return []


def _public_top_level_names(tree):
    for node in tree.body:
        yield from (name for name in _top_level_names(node) if not name.startswith("_"))


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
