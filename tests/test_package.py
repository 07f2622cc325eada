import ast
import os
import subprocess
import sys
from pathlib import Path

import entnoise

SOURCE = Path(entnoise.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
# where a library name counts as used: the package itself, the demos and the bench
CALLER_DIRS = (ROOT / "src" / "entnoise", ROOT / "demos", ROOT / "bench")


def test_no_assert_statements_in_library():
    # postconditions must still run under python -O, which strips asserts
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_only_float_array_converts_arguments_to_float_arrays():
    # one array intake, phasespace._float_array, so that every array argument holding
    # an int beyond double range is refused alike, with ValueError
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        intake = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and (path.stem, fn.name) == ("phasespace", "_float_array") for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
                    and any(ast.unparse(dtype) in ("float", "np.float64") for dtype in
                            node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "dtype"])
                    and id(node) not in intake):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_library_runs_without_scipy():
    # numpy is the only run-time dependency; scipy serves the tests as a reference
    code = ("import sys, entnoise, entnoise.cli, entnoise.sampling; "
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout.split() == []


def _referenced_names(node, skip=None):
    """Names and attributes used under node, leaving out the subtree skip.

    Import aliases are not uses: a name that is only imported or re-exported
    (from __init__.py, say) has no caller. Words in strings, comments and
    docstrings are not references either.
    """
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _referenced_names(child, skip)


def _uncalled(selected):
    """Library top-level definitions that selected(node) picks and that nothing
    references outside their own definition in the package, a demo or the bench."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for directory in CALLER_DIRS for path in sorted(directory.glob("*.py"))}
    library = sorted(CALLER_DIRS[0].glob("*.py"))
    assert library, f"no library modules under {CALLER_DIRS[0]}"
    uncalled = []
    for path in library:
        elsewhere = {name for other, tree in trees.items() if other != path
                     for name in _referenced_names(tree)}
        for node in trees[path].body:
            if selected(node):
                own_module = set(_referenced_names(trees[path], skip=node))
                if node.name not in elsewhere | own_module:
                    uncalled.append(f"{path.stem}.{node.name}")
    return uncalled


def test_every_public_definition_has_a_caller():
    # a public top-level function or class must be used outside its own
    # definition by the package, a demo or the bench; an export from
    # __init__.py does not count, and code that only the tests call belongs in
    # the tests
    uncalled = _uncalled(lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef))
                         and not node.name.startswith("_"))
    assert not uncalled, f"public names with no caller outside the tests: {uncalled}"


def test_every_private_function_has_a_caller():
    # by the same rule a private top-level function with no caller is a
    # leftover of a change, or a helper that only the tests use
    uncalled = _uncalled(lambda node: isinstance(node, ast.FunctionDef)
                         and node.name.startswith("_"))
    assert not uncalled, f"private functions with no caller outside the tests: {uncalled}"


def _parameters(fn, skip_first):
    """{name: has a default} of fn's parameters, and its positional names in order."""
    args = fn.args
    ordered = args.posonlyargs + args.args
    defaulted = {a.arg for a in ordered[len(ordered) - len(args.defaults):]}
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    names = [a.arg for a in ordered + args.kwonlyargs]
    return {name: name in defaulted for name in names}, [a.arg for a in ordered][skip_first:]


def _dataclass_fields(cls):
    """{name: has a default} of the fields of a @dataclass class; {} for any other class."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
        return {}
    return {node.target.id: node.value is not None for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}


def _library_callees(with_fields=False):
    """The caller trees by path, and the library's functions and methods.

    Returns (trees, callees, owners): callees maps a called name (a class name
    calls its __init__) to [(qualified name, {param: defaulted}, positional
    names)], and owners maps the id of each library FunctionDef to (qualified
    name, {param: defaulted}). With with_fields, a dataclass's generated
    __init__ is in callees too, its fields as parameters in declaration order.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for directory in CALLER_DIRS for path in sorted(directory.glob("*.py"))}
    library = sorted(CALLER_DIRS[0].glob("*.py"))
    assert library, f"no library modules under {CALLER_DIRS[0]}"
    callees, owners = {}, {}
    for path in library:
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef):
                methods = [(node, node.name, f"{path.stem}.{node.name}", 0)]
            elif isinstance(node, ast.ClassDef):
                methods = [(fn, node.name if fn.name == "__init__" else fn.name,
                            f"{path.stem}.{node.name}.{fn.name}", 1)
                           for fn in node.body if isinstance(fn, ast.FunctionDef)]
                fields = _dataclass_fields(node) if with_fields else {}
                if fields:
                    callees.setdefault(node.name, []).append(
                        (f"{path.stem}.{node.name}", fields, list(fields)))
            else:
                methods = []
            for fn, called_as, qualified, skip in methods:
                params, positional = _parameters(fn, skip)
                callees.setdefault(called_as, []).append((qualified, params, positional))
                owners[id(fn)] = (qualified, params)
    return trees, callees, owners


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a defaulted parameter of a library function must be passed a value by
    # some call in the package, a demo or the bench. A bare name that is the
    # calling function's own defaulted parameter passes on that parameter, so
    # it counts only if that one is set by the same rule. Calls are matched by
    # name (a class name calls its __init__); a name shared by two
    # definitions credits both.
    trees, callees, owners = _library_callees()

    def origin(value, scopes):
        """The enclosing defaulted parameter that value passes on, else True (a value)."""
        if isinstance(value, ast.Name):
            for fn in reversed(scopes):
                qualified, params = owners.get(id(fn), (None, _parameters(fn, 0)[0]))
                if value.id in params:
                    return (qualified, value.id) if qualified and params[value.id] else True
        return True

    sources = {}  # (qualified, param) -> origins of the values calls pass it

    def visit(node, scopes):
        if isinstance(node, ast.FunctionDef):
            scopes = scopes + [node]
        if isinstance(node, ast.Call):
            for qualified, params, positional in callees.get(_called_name(node), []):
                passed = [(name, value) for name, value in zip(positional, node.args)
                          if not isinstance(value, ast.Starred)]
                passed += [(kw.arg, kw.value) for kw in node.keywords if kw.arg in params]
                for name, value in passed:
                    sources.setdefault((qualified, name), set()).add(origin(value, scopes))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    for tree in trees.values():
        visit(tree, [])
    is_set, grew = set(), True
    while grew:
        grew = False
        for key, values in sources.items():
            if key not in is_set and any(v is True or v in is_set for v in values):
                is_set.add(key)
                grew = True
    unset = sorted(f"{qualified}({name})" for entries in callees.values()
                   for qualified, params, _ in entries
                   for name, defaulted in params.items()
                   if defaulted and (qualified, name) not in is_set)
    assert not unset, f"defaulted parameters no caller outside the tests sets: {unset}"


def test_every_defaulted_parameter_is_omitted_by_a_caller():
    # the converse: a default that every call in the package, a demo or the
    # bench overrides serves only the tests, so the parameter is required. This
    # holds for a dataclass field's default as well. A call that unpacks *args
    # or **kwargs may omit any default; calls are matched by name as above
    trees, callees, _ = _library_callees(with_fields=True)
    omitted = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            unpacks = (any(isinstance(arg, ast.Starred) for arg in call.args)
                       or any(kw.arg is None for kw in call.keywords))
            for qualified, params, positional in callees.get(_called_name(call), []):
                passed = set() if unpacks else (set(positional[:len(call.args)])
                                                | {kw.arg for kw in call.keywords})
                omitted.update((qualified, name) for name in params if name not in passed)
    always_set = sorted(f"{qualified}({name})" for entries in callees.values()
                        for qualified, params, _ in entries
                        for name, defaulted in params.items()
                        if defaulted and (qualified, name) not in omitted)
    assert not always_set, f"defaulted parameters every outside caller sets: {always_set}"


def _class_members(cls):
    """Public fields and methods of a class: its annotated or assigned names, its
    methods and properties, and the attributes its methods set on self."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.FunctionDef):
            yield node.name
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    yield sub.attr


def test_every_public_member_is_read():
    # a public field or method of a library class must be read as an attribute
    # by the package, a demo or the bench; a keyword that only sets a field is
    # not a read, and a member that only the tests read belongs in the tests.
    # Members are matched by name, so a name that any class reads counts for all
    trees = [ast.parse(path.read_text(), filename=str(path))
             for directory in CALLER_DIRS for path in sorted(directory.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    library = sorted(CALLER_DIRS[0].glob("*.py"))
    assert library, f"no library modules under {CALLER_DIRS[0]}"
    unread = sorted({f"{path.stem}.{node.name}.{name}"
                     for path in library
                     for node in ast.parse(path.read_text(), filename=str(path)).body
                     if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                     for name in _class_members(node) if not name.startswith("_")
                     and name not in read})
    assert not unread, f"public members no caller outside the tests reads: {unread}"
