import ast
from pathlib import Path

import formprobe


def _uncalled_names(package: Path) -> set:
    """Top-level functions and classes of the package that nothing in it
    refers to outside their own definition, ``__init__`` not counted.

    A reference is a name imported from the defining module and used, a
    use inside the defining module, or any attribute of that name (so
    ``bridge_mod.roundtrip_exact`` counts, and so would a same-named
    method: the scan errs towards keeping a name).
    """
    trees = {path.stem: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    defined = {(module, node.name): node
               for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    referenced = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.update(key for key in defined if key[1] == node.attr)
            elif isinstance(node, ast.Name):
                if node.id in imported:
                    referenced.add(imported[node.id])
                elif (module, node.id) in defined:
                    own = defined[module, node.id]
                    if not own.lineno <= node.lineno <= own.end_lineno:
                        referenced.add((module, node.id))
    return {f"{module}.{name}" for module, name in defined
            if (module, name) not in referenced and name not in formprobe.__all__}


def test_every_library_name_has_a_caller_or_is_exported():
    assert _uncalled_names(Path(formprobe.__file__).parent) == set()


def _unread_fields(package: Path, roots: list) -> set:
    """Dataclass fields of the package that no code under ``roots`` reads
    as an attribute (``report.min_rayleigh``); a keyword or a positional argument
    that only fills a field is not a read."""
    fields = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields.update((f"{path.stem}.{node.name}", item.target.id)
                              for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    read = {node.attr for root in roots for path in root.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{owner}.{name}" for owner, name in fields if name not in read}


def test_every_dataclass_field_is_read():
    package = Path(formprobe.__file__).parent
    repo = Path(__file__).resolve().parent.parent
    roots = [package, repo / "tests", repo / "bench"]
    assert _unread_fields(package, [r for r in roots if r.is_dir()]) == set()
