"""No unused helpers: every function, method and module-level constant of
`src/eqsurg` is read somewhere in the package besides its own definition,
or is named below with its reason.

A read is a loaded name or an attribute access with the same name, so two
definitions that share a name shelter each other; an import alone is not a
read.  Dunders are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqsurg"

ALLOWED = {
    "lens.factor_C": "frozen by tests/test_acceptance.py",
    "lens.factor_Cprime": "frozen by tests/test_acceptance.py",
    "surgery.SurgeryDiagram.invariant_knots": "frozen by tests/test_acceptance.py",
    "lens.CatalogEntry.diagrams": "frozen by tests/test_acceptance.py",
    "lens.ChainReport.assignments": "frozen by tests/test_acceptance.py",
    "contact.tight_solid_torus_exists": "frozen by tests/test_acceptance.py",
    "words.validate_recursive_invariance": "frozen by tests/test_acceptance.py",
    "matrices.is_anti_symplectic": "public predicate checked against the reference in tests/test_matrices.py",
    "matrices.SymplecticForm.pairing": "public predicate checked against the reference in tests/test_matrices.py",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each top-level function, method and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", node


def _unused() -> set:
    definitions, reads = [], []  # reads: (module, name, line)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions += [(path.stem, q, node) for q, node in _definitions(path.stem, tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path.stem, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((path.stem, node.attr, node.lineno))
    unused = set()
    for module, qualname, node in definitions:
        name = qualname.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__"):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(n == name and not (m == module and line in own) for m, n, line in reads):
            unused.add(qualname)
    return unused


def test_every_helper_is_read_or_allowed():
    unused = _unused()
    assert sorted(unused - ALLOWED.keys()) == [], "unused: remove them or allow them with a reason"
    assert sorted(ALLOWED.keys() - unused) == [], "allowed but now read: drop them from ALLOWED"
