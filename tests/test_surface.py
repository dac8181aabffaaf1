"""Every public top-level function and class in src/eaqec has a caller.

A name counts as used when code other than its own definition refers to it
by name, attribute or import: another module of the package, the rest of
its own module, or a script under scripts/.  The package's __init__ only
imports modules, so it never counts.  Tests do not count either: a helper
that only its own tests call is dead code.  The few names kept on purpose
without a caller are listed with their reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "eaqec").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

KEPT_WITHOUT_CALLER = {
    "sqrtm_psd": "bench/layertrace.py wraps it and tests/test_scripts.py requires every "
                 "wrapped target to resolve (ROADMAP item 1)",
    "group_to_json": "the JSON inverse of group_from_json",
    "is_correctable_stab": "the GF(2) verdict that bench/oracle.py and acceptance test 10 "
                           "check dense verdicts against, and stabilizer inputs are to use "
                           "(ROADMAP item 3)",
    "logical_unitary_on_complement": "presend steering: a message unitary on the kept qubits",
    "apply_on_kept": "presend steering: applies such a unitary to a full state",
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
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere[path] | _referenced(n for n in body if n is not node):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_every_public_name_has_a_caller():
    uncalled = [name for name in _uncalled()
                if name.split(".")[1] not in KEPT_WITHOUT_CALLER]
    assert uncalled == []


def test_kept_names_are_still_uncalled():
    # an exception whose name gained a caller, or vanished, is stale
    assert sorted(name.split(".")[1] for name in _uncalled()) == sorted(KEPT_WITHOUT_CALLER)
