"""No code that only tests reach: every top-level function, class and
module-level name of the library is referenced somewhere in the library,
the scripts or the benchmark, outside its own definition; and every name a
library module imports is read in that module. A reference is read off the
syntax tree: a name, an attribute, an imported name or its alias, or a
string constant that is an identifier (as `getattr` and patching take), so
a mention in a docstring or a comment is none."""

import ast
import collections
import pathlib

REPO = pathlib.Path(__file__).parents[1]


def program_files():
    files = sorted((REPO / "src" / "ctt").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    # hidden directories, such as the benchmark's working copies in `.work`,
    # are not part of it
    files += sorted(p for p in (REPO / "perfbench").rglob("*.py")
                    if not any(part.startswith(".") for part in p.relative_to(REPO).parts))
    return files


def library_modules():
    for path in sorted((REPO / "src" / "ctt").glob("*.py")):
        yield path, ast.parse(path.read_text())


def definitions(node):
    """The names a top-level statement defines: a function's or a class's,
    or the non-dunder names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and not n.id.startswith("__")]
    return []


def references(tree):
    """(name, line) for each reference in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unreached_definitions():
    # the lines each name is referenced on, per file, one entry per reference
    lines_of = {}
    for path in program_files():
        lines_of[path] = collections.defaultdict(list)
        for name, line in references(ast.parse(path.read_text())):
            lines_of[path][name].append(line)
    unreached = []
    for path, tree in library_modules():
        for node in tree.body:
            # the definition's own lines, decorators included, do not count
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for name in definitions(node):
                if not any(other != path or not first <= i <= node.end_lineno
                           for other, names in lines_of.items()
                           for i in names.get(name, ())):
                    unreached.append(f"{path.name}:{name}")
    return unreached


def unread_imports():
    unread = []
    for path, tree in library_modules():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{name}")
    return unread


def test_every_library_definition_is_reached_outside_the_tests():
    assert unreached_definitions() == []


def test_every_import_is_read_in_its_module():
    assert unread_imports() == []


def test_no_alias_is_referenced():
    # `domains.elem_rank(e)` was `e.k`; `SequentReport.counterexample()` was
    # `.failure`; this file names them only here
    gone = {"elem_rank", "counterexample"}
    tests = [p for p in sorted((REPO / "tests").glob("*.py")) if p.name != "test_reach.py"]
    found = [f"{path.relative_to(REPO)}:{line}" for path in program_files() + tests
             for name, line in references(ast.parse(path.read_text())) if name in gone]
    assert found == []


def test_the_library_has_no_assert_statements():
    # `python -O` drops an assert, and with it any check it makes
    found = [f"{path.name}:{node.lineno}" for path, tree in library_modules()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
