"""Every public module-level function and class of the library, and every
public method of a public class, must be reached by code that is not a
test: a battery, the CLI, a script or the benchmark. A name that only tests
call belongs in the tests, as an oracle or a helper next to the tests that
use it. References are read from the source by name: a Name or an
attribute anywhere in src/, scripts/ or perfbench/ outside the definition
itself, or a segment of a layer the benchmark traces. A method is matched
by its name alone, so a method that shares its name with a reached one
(TaylorPoly.monomial with BlaschkeProduct.monomial) is not flagged.
Re-exports in __init__ and the strings of __all__ do not count.

A family of functions is one coefficient array, not a list of TaylorPoly:
no public function or method returns, and no public field of a public
class holds, TaylorPoly inside list[...], tuple[...] or Sequence[...].

A value carries its own weight and window: no public function or method
takes both a value of a type in CARRIES_WINDOW and a parameter w or D that
could only repeat (or contradict) them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blaschke_lab"

#: the one public name no code outside the tests reads, and why it stays.
EXEMPT = {
    "weighted_inner": "the inner product that defines each weighted space; "
    "the tests check adjoints, Grams and norms against it",
}


#: the one family still returned as a list of TaylorPoly, and why it stays.
FAMILY_EXEMPT = {
    "blaschke.BlaschkeProduct.power_list": "the benchmark traces it by this name (perfbench/tracing.py)",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _layers():
    """perfbench/tracing.LAYERS, read from the source."""
    tree = _parse(ROOT / "perfbench" / "tracing.py")
    [layers] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    return layers


def _layer_segments():
    """The dotted segments of perfbench/tracing.LAYERS after the module."""
    return {part for name in _layers() for part in name.split(".")[1:]}


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _definitions():
    """{(module, name): (first line, last line)} of the public top-level
    functions and classes of every module but __init__, and of the public
    methods of those classes, named "Class.method". Dunders are not public."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _public(_parse(path).body, (ast.FunctionDef, ast.ClassDef)):
            defs[(path.stem, node.name)] = (node.lineno, node.end_lineno)
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for method in _public(methods, ast.FunctionDef):
                defs[(path.stem, f"{node.name}.{method.name}")] = (method.lineno, method.end_lineno)
    return defs


def _references():
    """[(file, line, name)] of every Name and attribute read outside the
    tests and __init__."""
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    refs = []
    for path in files:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    return refs


def test_every_public_name_is_reached_outside_the_tests():
    layers, refs = _layer_segments(), _references()
    unreached = []
    for (module, qualname), (first, last) in _definitions().items():
        own, name = SRC / f"{module}.py", qualname.rpartition(".")[2]
        outside = any(n == name and not (path == own and first <= line <= last) for path, line, n in refs)
        if not (outside or name in layers or name in EXEMPT):
            unreached.append(f"{module}.{qualname}")
    assert unreached == []


def test_the_exemption_is_still_needed():
    # an exempt name that gained a reader no longer needs its exemption
    refs = {n for _, _, n in _references()}
    assert sorted(name for name in EXEMPT if name in refs) == []
    assert all(("spaces", name) in _definitions() for name in EXEMPT)



def _name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _holds_taylor_polys(annotation) -> bool:
    """Whether the annotation puts TaylorPoly inside list[...], tuple[...]
    or Sequence[...]; quoted parts are read as code."""
    if annotation is None:
        return False
    tree = ast.parse(ast.unparse(annotation).replace("'", "").replace('"', ""), mode="eval")
    return any(
        isinstance(node, ast.Subscript)
        and _name(node.value) in ("list", "tuple", "Sequence")
        and any(_name(n) == "TaylorPoly" for n in ast.walk(node.slice))
        for node in ast.walk(tree)
    )


def _families_of_taylor_polys():
    """["module.name"] of the public functions and methods whose return
    annotation, and of the public fields of public classes whose annotation,
    puts TaylorPoly inside a list, tuple or Sequence."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _public(_parse(path).body, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node.returns)]
            else:
                members = [(f"{node.name}.{m.name}", m.returns) for m in node.body if isinstance(m, ast.FunctionDef)]
                members += [
                    (f"{node.name}.{m.target.id}", m.annotation)
                    for m in node.body
                    if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
                ]
            found += [
                f"{path.stem}.{name}"
                for name, annotation in members
                if not name.rpartition(".")[2].startswith("_") and _holds_taylor_polys(annotation)
            ]
    return found


def test_no_family_of_functions_is_a_list_of_taylor_polys():
    assert [name for name in _families_of_taylor_polys() if name not in FAMILY_EXEMPT] == []


def test_the_family_exemption_is_still_needed():
    # an exempt name that no longer returns a list, or that the benchmark
    # no longer traces, no longer needs its exemption
    found, layers = _families_of_taylor_polys(), _layers()
    assert sorted(name for name in FAMILY_EXEMPT if name not in found or name not in layers) == []


#: the values that carry their weight (alpha) and window (degree) themselves
CARRIES_WINDOW = {"OperatorMatrix", "CommutantOperator", "IntertwinerJ", "XSpaceChain"}


def _annotation_names(annotation) -> set:
    """The names an annotation mentions; quoted parts are read as code."""
    if annotation is None:
        return set()
    tree = ast.parse(ast.unparse(annotation).replace("'", "").replace('"', ""), mode="eval")
    return {_name(node) for node in ast.walk(tree)} - {None}


def _window_repeated(src=SRC):
    """["module.name"] of the public functions and methods of src that take a
    parameter annotated with a type of CARRIES_WINDOW and one named w or D."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _public(_parse(path).body, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node)]
            else:
                functions = [(f"{node.name}.{m.name}", m) for m in _public(node.body, ast.FunctionDef)]
            for name, fn in functions:
                params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                if any(CARRIES_WINDOW & _annotation_names(p.annotation) for p in params) and any(
                    p.arg in ("w", "D") for p in params
                ):
                    found.append(f"{path.stem}.{name}")
    return found


def test_no_value_is_passed_with_its_own_weight_or_window():
    assert _window_repeated() == []
