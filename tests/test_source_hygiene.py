"""Dead code in the package, found with the stdlib ast module alone.

Every import of a module in src/vshstools or tests must be used in it
(the package __init__ re-exports, and `from __future__` is a
directive), and every module-level private function, class or constant
must be named somewhere in the package besides its own definition.  The
package's __all__ names exactly what __init__ imports, and every
exception class it exports is raised in the package, itself or as the
base class of one that is.  series.SeriesMatrix does its arithmetic on
its lifted integers alone: the series module calls no Scalar matrix
arithmetic of linalg.  The CLI's normal-form commands share one run,
and a NormalFormReport is built by the normal form and the JSON reader
alone.
"""
import ast
import importlib
from pathlib import Path

import vshstools

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "vshstools"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}
TEST_MODULES = {f"tests/{path.name}": ast.parse(path.read_text(), str(path))
                for path in sorted(TESTS.glob("*.py"))}


def quoted_names(annotation: ast.AST) -> set[str]:
    """Names inside a quoted annotation such as "amodel.InstantonTable"."""
    names = set()
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            expr = ast.parse(sub.value, mode="eval")
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            if annotation is not None:
                names |= quoted_names(annotation)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in {**MODULES, **TEST_MODULES}.items():
        if name == "__init__.py":
            continue
        read = read_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in read]
    assert unused == []


def test_all_is_exactly_what_the_package_imports():
    imported = [alias.asname or alias.name
                for node in MODULES["__init__.py"].body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(vshstools.__all__) == sorted(imported)
    assert all(hasattr(vshstools, name) for name in vshstools.__all__)


def test_no_unreferenced_private_definitions():
    # a name read anywhere, an attribute name, or a name imported from
    # another module of the package counts as a reference
    used: set[str] = set()
    for tree in MODULES.values():
        used |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    orphans = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            orphans += [f"{name}: {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__")
                        and d not in used]
    assert orphans == []


def test_every_exported_exception_is_raised():
    # what `raise X(...)` or `raise module.X(...)` names, resolved in the
    # module that raises it
    raised = set()
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        module = importlib.import_module(f"vshstools.{Path(name).stem}")
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Attribute) and \
                    isinstance(exc.value, ast.Name):
                raised.add(getattr(getattr(module, exc.value.id, None),
                                   exc.attr, None))
            elif isinstance(exc, ast.Name):
                raised.add(getattr(module, exc.id, None))
    raised = {c for c in raised
              if isinstance(c, type) and issubclass(c, BaseException)}
    exported = [getattr(vshstools, name) for name in vshstools.__all__]
    never = [cls.__name__ for cls in exported
             if isinstance(cls, type) and issubclass(cls, BaseException)
             and not any(issubclass(r, cls) for r in raised)]
    assert never == []


def test_series_matrix_has_one_arithmetic_path():
    # Scalar matrix arithmetic beside the lifted arithmetic would be a
    # second code path; the whole module is checked, so a helper of
    # SeriesMatrix cannot hold one either
    scalar_ops = {"mat_neg", "mat_add", "mat_sub", "mat_scale", "transpose"}
    tree = MODULES["series.py"]
    assert any(isinstance(node, ast.ClassDef) and node.name == "SeriesMatrix"
               for node in tree.body)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id == "linalg" and f.attr in scalar_ops:
            calls.append(f"linalg.{f.attr}, line {node.lineno}")
        elif isinstance(f, ast.Name) and f.id in scalar_ops:
            calls.append(f"{f.id}, line {node.lineno}")
    assert calls == []


def call_sites(tree: ast.AST, name: str) -> list[str]:
    """The functions of a module that call name, as f(...) or m.f(...),
    once per call."""
    sites = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            f = node.func if isinstance(node, ast.Call) else None
            if isinstance(f, ast.Name) and f.id == name or \
                    isinstance(f, ast.Attribute) and f.attr == name:
                sites.append(func.name)
    return sites


def test_a_normal_form_report_is_built_in_two_places():
    # the normal form writes one and the JSON reader reads one; the CLI
    # applies --sign with dataclasses.replace
    sites = [(name, site) for name, tree in MODULES.items()
             for site in call_sites(tree, "NormalFormReport")]
    assert sorted(sites) == [("jsonio.py", "report_from_obj"),
                             ("vshs.py", "to_normal_form")]


def test_the_normal_form_commands_share_one_run():
    tree = MODULES["cli.py"]
    for name in ("bmodel_normal_form", "_parse_volume", "cover_power"):
        assert call_sites(tree, name) == ["_report"], name
