"""No code that only tests reach: every top-level function, class and
module-level name of the library is named somewhere in the library, the
scripts or the benchmark, outside its own definition; and every name a
library module imports is read in that module."""

import ast
import collections
import pathlib
import re

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


def unreached_definitions():
    # the lines each word occurs on, per file, one entry per occurrence
    lines_of = {}
    for path in program_files():
        lines_of[path] = collections.defaultdict(list)
        for i, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
                lines_of[path][word].append(i)
    unreached = []
    for path, tree in library_modules():
        for node in tree.body:
            # the definition's own lines, decorators included, do not count
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for name in definitions(node):
                if not any(other != path or not first <= i <= node.end_lineno
                           for other, words in lines_of.items()
                           for i in words.get(name, ())):
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
