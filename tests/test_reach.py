"""No code that only tests reach: every top-level function and class of the
library is named somewhere in the library, the scripts or the benchmark,
outside its own definition."""

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


def test_every_library_definition_is_reached_outside_the_tests():
    # the lines each word occurs on, per file, one entry per occurrence
    lines_of = {}
    for path in program_files():
        lines_of[path] = collections.defaultdict(list)
        for i, line in enumerate(path.read_text().splitlines(), 1):
            for word in re.findall(r"\w+", line):
                lines_of[path][word].append(i)
    unreached = []
    for path in sorted((REPO / "src" / "ctt").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # the definition's own lines, decorators included, do not count
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(other != path or not first <= i <= node.end_lineno
                       for other, words in lines_of.items()
                       for i in words.get(node.name, ())):
                unreached.append(f"{path.name}:{node.name}")
    assert unreached == []
