"""Checks on the package's source and documentation rather than its maths:
the README's library example runs, its isomorphism document parses, and
the modules carry no dead imports or private module-level names that
nothing reads."""

import ast
import json
import re
from pathlib import Path

import numpy as np

from speclat.directsum import DirectSumElement
from speclat.io import iso_from_doc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "speclat"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attribute names and names it
    imports from another module."""
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_readme_library_quick_start_runs():
    """The README's library example runs as written, so a renamed or
    deleted public name cannot leave it stale."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_iso_document_parses_and_applies():
    """The README's isomorphism document, jordan block included, is a
    valid document that maps an element of its domain."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Isomorphism documents", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL)
    assert block is not None
    iso = iso_from_doc(json.loads(block.group(1)))
    x = DirectSumElement(iso.domain_profile, [np.diag([1.0, -2.0]), np.diag([0.5, 3.0])])
    y = iso.apply(x)
    # pi = [1, 0]: slot 0 of the image is the identity-f, transposed
    # Jordan image of block 1; slot 1 is the cube of block 0
    np.testing.assert_allclose(y.blocks[0], np.diag([3.0, 0.5]), atol=1e-12)
    np.testing.assert_allclose(y.blocks[1], np.diag([1.0, -8.0]), atol=1e-12)


def test_no_module_imports_a_name_it_never_reads():
    for name, tree in _modules().items():
        if name == "__init__.py":
            # the package namespace: its imports are the public API
            continue
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in loaded, f"{name} imports {bound} and never reads it"


def test_every_private_module_level_name_has_a_reader():
    trees = _modules()
    reads = set().union(*(_reads(tree) for tree in trees.values()))
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for d in defined:
                if d.startswith("_") and not d.startswith("__"):
                    assert d in reads, f"{name} defines {d} and nothing in the package reads it"


_CONE_NAMES = {"sa", "pos", "eff", "SELF_ADJOINT", "POSITIVE", "EFFECT"}


def _names_a_cone(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in _CONE_NAMES
    if isinstance(node, (ast.Name, ast.Attribute)):
        return (node.id if isinstance(node, ast.Name) else node.attr) in _CONE_NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_cone(e) for e in node.elts)
    return False


def test_only_order_compares_a_cone_with_a_name():
    """A cone is its scalar interval: outside order.py, every decision on
    a cone reads the ends of order.cone_domain, and no code compares a
    cone with one of the names."""
    for name, tree in _modules().items():
        if name == "order.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                assert not any(_names_a_cone(o) for o in (node.left, *node.comparators)), (
                    f"{name}:{node.lineno} compares with a cone name"
                )


def _numpy_eigensolver_sites(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level definition, line) of every np.linalg.eigh or
    np.linalg.eigvalsh in a module, and of every import of either name
    from numpy.linalg."""
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"):
                if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                    sites.append((owner, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                if any(alias.name in ("eigh", "eigvalsh") for alias in node.names):
                    sites.append((owner, node.lineno))
    return sites


def test_only_linalg_calls_numpy_eigensolvers():
    """linalg._solve, the memo of recent eigensystems behind linalg.eigh,
    is the one caller of numpy's Hermitian eigensolvers, so no helper (as
    is_psd once did) solves a matrix the memo already holds. The one
    exception is the selftest's Loewner reference, selftest._min_eig,
    which must not share the code it checks."""
    for name, tree in _modules().items():
        if name == "linalg.py":
            continue
        for owner, line in _numpy_eigensolver_sites(tree):
            assert (name, owner) == ("selftest.py", "_min_eig"), (
                f"{name}:{line} calls numpy's eigensolver outside linalg.eigh"
            )
    assert [owner for owner, _ in _numpy_eigensolver_sites(_modules()["linalg.py"])] == ["_solve"]
