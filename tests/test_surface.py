"""Every public name and every function the bench tracer wraps resolves,
no module imports a name it never reads, no private helper goes
unread, and only the records that need to be are dataclasses.

``bench/tracer.py`` replaces the functions it names to time them, so a
rename or deletion in facet would otherwise surface only as a failed
``--trace 1`` run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import facet

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pair for pairs in module.TARGETS.values() for pair in pairs]


@pytest.mark.parametrize("module_name, attr", _tracer_targets())
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        # the tracer reads the raw class attribute, not an inherited one
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_public_names_resolve():
    missing = [name for name in facet.__all__ if not hasattr(facet, name)]
    assert missing == []


def _unread_imports(path: Path) -> list[str]:
    """Names an import binds in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_unread_imports():
    # __init__.py imports names only to export them through __all__
    paths = [p for p in (ROOT / "src" / "facet").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "tests").glob("*.py")
    unread = {p.relative_to(ROOT).as_posix(): _unread_imports(p) for p in sorted(paths)}
    assert {k: v for k, v in unread.items() if v} == {}


def _private_definitions(tree: ast.Module) -> set[str]:
    """``_x`` names a module or class body defines by def, class or
    assignment."""
    bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    names = set()
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_unread_private_helpers():
    # A private helper whose last caller is gone is dead code; reads are
    # loads of a bare name or an attribute anywhere in src/facet.
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "facet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in _private_definitions(tree):
            defined.setdefault(name, path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert {name: p for name, p in defined.items() if name not in read} == {}


def _decorator_name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_only_stateful_records_are_dataclasses():
    # ``@dataclass`` generates and compiles code for each class when
    # facet is imported, which every CLI call pays; a plain record is a
    # NamedTuple instead.  These four keep cached attributes in an
    # instance __dict__ or validate in __post_init__, which a tuple cannot.
    found = {
        node.name
        for path in (ROOT / "src" / "facet").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
    }
    assert found == {"EmbeddedGraph", "SimpleGraph", "ChargeLedger", "Certificate"}
