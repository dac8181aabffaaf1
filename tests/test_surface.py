"""Every top-level name in src/eaqec has a caller, and every import is used.

A top-level function, class or module constant, public or private (dunders
such as __version__ exempt), counts as used when code other than its own
definition refers to it by name, attribute or import: another module of
the package, the rest of its own module, or a script under scripts/.  A
public method or property of a class counts as used when some attribute
reference (.name) in those files carries its name.  The package's
__init__ only imports modules, so it never counts.  Tests do not count
either: a helper that only its own tests call is dead code, and lives in
tests/conftest.py if the tests need it as an oracle.  The few names and
members kept on purpose without a caller are listed with their reason,
and each listing expires once its name or member gains a caller.

Every name a file under src/, tests/ or scripts/ imports must be
referenced in that file; __future__ imports and __init__.py are exempt.

The Knill-Laflamme rule is written once: codes.kl_check is the only place
in src/eaqec that compares the name residual_tol with anything.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "eaqec").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

KEPT_WITHOUT_CALLER = {
    "is_correctable_stab": "the GF(2) verdict alone, which bench/run.py and bench/oracle.py "
                           "call; src reads it with s(B) and the residual (verdict_and_s)",
    "sqrtm_psd": "bench/layertrace.py wraps it and tests/test_scripts.py requires every "
                 "wrapped target to resolve (ROADMAP item 1)",
    "subgroup_on": "the subgroup inside a set, whose size gives C = 2^(b - s): bench/oracle.py, "
                   "the tests and acceptance test 05 use it, and stabilizer inputs are to "
                   "read EA generators from it (ROADMAP item 9)",
}

KEPT_UNREAD = {
    "codes.PauliOperator.apply": "bench/layertrace.py wraps it and tests/test_scripts.py "
                                 "requires every wrapped target to resolve (ROADMAP item 1)",
}


def _referenced(nodes) -> set[str]:
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def _uncalled() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in MODULES + SCRIPTS}
    elsewhere = {path: set().union(*(_referenced(tree.body) for other, tree in trees.items()
                                     if other != path))
                 for path in MODULES}
    out = []
    for path in MODULES:
        body = trees[path].body
        for node in body:
            for name in _defined(node):
                if name not in elsewhere[path] | _referenced(n for n in body if n is not node):
                    out.append(f"{path.stem}.{name}")
    return out


def _defined(node) -> list[str]:
    """Names a top-level statement defines: a function, a class or module
    constants; dunders such as __version__ are exempt."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_public_name_has_a_caller():
    uncalled = [name for name in _uncalled()
                if name.split(".")[1] not in KEPT_WITHOUT_CALLER]
    assert uncalled == []


def test_kept_names_are_still_uncalled():
    # an exception whose name gained a caller, or vanished, is stale
    assert sorted(name.split(".")[1] for name in _uncalled()) == sorted(KEPT_WITHOUT_CALLER)


def _attributes(trees) -> set[str]:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _unread_members() -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in MODULES + SCRIPTS}
    read = _attributes(trees.values())
    return [f"{path.stem}.{cls.name}.{member.name}"
            for path in MODULES for cls in trees[path].body if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
            and member.name not in read]


def test_every_public_member_is_read():
    unread = _unread_members()
    assert [member for member in unread if member not in KEPT_UNREAD] == []
    # an exception whose member gained a reader, or vanished, is stale
    assert sorted(member for member in unread if member in KEPT_UNREAD) == sorted(KEPT_UNREAD)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a; import a as b and from m import a as b bind b
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    out.append(f"{path.relative_to(ROOT)}: {bound}")
    return out


def test_every_import_is_used():
    files = [p for p in MODULES + TESTS + SCRIPTS if p.name != "__init__.py"]
    assert [name for path in files for name in _unused_imports(path)] == []


def _residual_tol_comparisons() -> list[str]:
    """module.function of every comparison in src/eaqec with the name
    residual_tol as an operand, the innermost enclosing function named."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):       # breadth first: inner functions overwrite outer
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(operand, ast.Name) and operand.id == "residual_tol"
                    for operand in (node.left, *node.comparators)):
                out.append(f"{path.stem}.{owner.get(node, '<module>')}:{node.lineno}")
    return out


def test_only_kl_check_compares_residual_tol():
    found = _residual_tol_comparisons()
    assert [place.split(":")[0] for place in found] == ["codes.kl_check"], found
