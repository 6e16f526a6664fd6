"""No code that only tests reach: every top-level function, class and
module-level name of the library, and every non-dunder method of a library
class, is referenced somewhere in the library, the scripts or the
benchmark, outside its own definition; and every name a library module
imports is read in that module. A reference is read off the
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


def methods(node):
    """The non-dunder methods a top-level class defines, as (name, node)."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [(f.name, f) for f in node.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def unreached_definitions():
    # the lines each name is referenced on, per file, one entry per reference
    lines_of = {}
    for path in program_files():
        lines_of[path] = collections.defaultdict(list)
        for name, line in references(ast.parse(path.read_text())):
            lines_of[path][name].append(line)
    unreached = []
    for path, tree in library_modules():
        defined = [(name, node) for node in tree.body for name in definitions(node)]
        defined += [(f"{node.name}.{name}", method) for node in tree.body
                    for name, method in methods(node)]
        for qualified, node in defined:
            name = qualified.rsplit(".", 1)[-1]
            # the definition's own lines, decorators included, do not count
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            if not any(other != path or not first <= i <= node.end_lineno
                       for other, names in lines_of.items()
                       for i in names.get(name, ())):
                unreached.append(f"{path.name}:{qualified}")
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


# parameters with a default that no call in the program passes, each kept
# for what it serves
UNPASSED_DEFAULTS = {
    # the acceptance criteria run the harness over several models
    "semantics.py:soundness_harness.model",
    # check-proof's reference: the line-by-line read checks under a model
    "sequents.py:check_derivation.model",
}


def defaulted_parameters(tree):
    """(qualified name, name a call uses, parameter, index) for each
    parameter with a default of a top-level function or of a method of a
    top-level class. A class is called for its `__init__` or `__new__`;
    the index counts the positional arguments a call writes, so a method
    does not count its first parameter unless it is static, and it is None
    for a keyword-only parameter."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.{f.name}",
                          node.name if f.name in ("__init__", "__new__") else f.name, f,
                          0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in f.decorator_list) else 1)
                         for f in node.body if isinstance(f, ast.FunctionDef)]
        else:
            continue
        for qualified, called, f, bound in functions:
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            found += [(qualified, called, positional[i].arg, i - bound)
                      for i in range(first, len(positional))]
            found += [(qualified, called, arg.arg, None)
                      for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults)
                      if default is not None]
    return found


def passes(call, parameter, index):
    """Whether `call` may pass `parameter`: by keyword or `**`, or by
    position, a `*` argument counting for every position from its own."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return index >= i
    return index < len(call.args)


def unpassed_defaults():
    calls = collections.defaultdict(list)  # the name a call uses -> calls
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    calls[node.func.id].append(node)
                elif isinstance(node.func, ast.Attribute):
                    calls[node.func.attr].append(node)
    return [f"{path.name}:{qualified}.{parameter}"
            for path, tree in library_modules()
            for qualified, called, parameter, index in defaulted_parameters(tree)
            if not any(passes(call, parameter, index) for call in calls[called])]


def test_every_default_is_passed_by_some_call_of_the_program():
    # an option that only tests set is code that only tests reach
    assert sorted(set(unpassed_defaults()) - UNPASSED_DEFAULTS) == []
    assert sorted(UNPASSED_DEFAULTS - set(unpassed_defaults())) == []


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


def self_reading_closures():
    """Functions nested in another function that read their own name. Such
    a closure holds itself through its cell, so each call of the function
    around it leaves a reference cycle that only the collector frees, and
    a recursive one is bound by the recursion limit."""
    found = set()
    for path, tree in library_modules():
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if (inner is not outer
                        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(n, ast.Name) and n.id == inner.name
                                and isinstance(n.ctx, ast.Load) for n in ast.walk(inner))):
                    found.add(f"{path.name}:{inner.lineno}:{inner.name}")
    return sorted(found)


def test_no_closure_reads_its_own_name():
    assert self_reading_closures() == []
