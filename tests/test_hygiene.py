"""Static hygiene checks, standard library only: no module of the package
imports a name it never uses, no function of it takes a parameter it
never reads (dunder methods aside), no private top-level function or
class goes unreferenced, every name the package exports resolves and
README.md names it, no module of it is imported by the tests alone,
README.md has one row per module, exact values keep one representation
behind one module, value types keep one identity (==, hash, <), one
component shift and one affine color map, elements and cosets share one
interface with no type test outside colored.py, and the command line
writes stdout only through its emit helpers and help writer, renders
JSON in one writer and exchanges the basis flags --p and --q in one
helper."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import gelfand

SOURCES = sorted(
    path
    for path in Path(gelfand.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, "%s imports unused names: %s" % (path.name, unused)


def referenced_names(tree):
    """Every name a tree reads, as a plain name, an attribute or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name


def test_no_private_definition_is_dead():
    """Every private top-level function or class of src/gelfand is
    referenced somewhere in src/gelfand outside its own body."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(gelfand.__file__).parent.glob("*.py"))
    }
    uses = Counter(name for tree in trees.values() for name in referenced_names(tree))
    dead = [
        "%s:%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and uses[node.name] <= sum(1 for name in referenced_names(node) if name == node.name)
    ]
    assert not dead, "private definitions nobody references: %s" % dead


def test_all_names_resolve():
    missing = [name for name in gelfand.__all__ if not hasattr(gelfand, name)]
    assert not missing


def test_readme_documents_every_public_name():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    undocumented = [name for name in gelfand.__all__ if "`%s`" % name not in readme]
    assert not undocumented, "README.md never names %s" % undocumented


def package_imports(tree):
    """The package modules a tree imports, all imports being relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            yield node.module.split(".")[0]


def test_no_module_of_the_package_is_test_only():
    """Every module but __init__ and cli is imported by another module of
    the package or defines a public name: a module that only the tests
    import belongs under tests/."""
    imported = {
        module
        for path in Path(gelfand.__file__).parent.glob("*.py")
        for module in package_imports(ast.parse(path.read_text(), filename=str(path)))
        if module != path.stem
    }
    used = imported | set(gelfand._EXPORTS.values()) | {"cli"}
    unused = [path.name for path in SOURCES if path.stem not in used]
    assert not unused, "modules only the tests import: %s" % unused


def test_readme_has_one_module_row_per_module():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `gelfand\.(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(rows) == sorted(path.stem for path in SOURCES)


def unread_parameters(tree):
    """(function name, parameter) for every parameter of a non-dunder
    function that no statement of its body reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [
            arg.arg
            for arg in args.posonlyargs + args.args + args.kwonlyargs
            + [args.vararg, args.kwarg]
            if arg is not None
        ]
        read = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        for param in params:
            if param not in read:
                yield node.name, param


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = sorted(unread_parameters(tree))
    assert not unread, "%s has unread parameters: %s" % (path.name, unread)


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_cyclotomic_imports_fractions():
    """Exact values are integer numerators over one denominator; Fraction
    appears only where cyclotomic.py takes and hands back coefficients."""
    importers = [
        path.name
        for path in sorted(Path(gelfand.__file__).parent.glob("*.py"))
        if "fractions" in imported_modules(ast.parse(path.read_text()))
    ]
    assert importers == ["cyclotomic.py"]


def test_only_the_value_base_defines_hash_and_order():
    """Value types compare, hash and sort through gelfand.immutable.Value;
    __hash__ = None, an assignment, stays allowed for the unhashable
    Cyclotomic, ClassFunction and ModelAction."""
    defining = sorted(
        "%s:%s.%s" % (path.name, node.name, item.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__hash__", "__lt__")
    )
    assert defining == ["immutable.py:Value.__hash__", "immutable.py:Value.__lt__"]


def negated(bound):
    """The dump of s when a slice bound reads -s, else None."""
    if isinstance(bound, ast.UnaryOp) and isinstance(bound.op, ast.USub):
        return ast.dump(bound.operand)
    return None


def rotations(tree):
    """The lines that spell the rotation x[-s:] + x[:-s]."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.Subscript)
            and isinstance(node.right, ast.Subscript)
            and isinstance(node.left.slice, ast.Slice)
            and isinstance(node.right.slice, ast.Slice)
        ):
            continue
        head, tail = node.left.slice, node.right.slice
        shift = negated(head.lower)
        if (
            shift is not None
            and shift == negated(tail.upper)
            and head.upper is None
            and tail.lower is None
            and ast.dump(node.left.value) == ast.dump(node.right.value)
        ):
            yield node.lineno


def test_one_component_shift():
    assert gelfand.shapes.multitableau_shift is gelfand.shapes.shape_shift


def test_only_shape_shift_spells_the_rotation():
    """No module but shapes.py, where shape_shift is, spells the rotation
    x[-s:] + x[:-s]; the rest call shape_shift."""
    spelled = {
        path.name: list(rotations(ast.parse(path.read_text(), filename=str(path))))
        for path in SOURCES
    }
    assert spelled.pop("shapes.py"), "the check misses shape_shift itself"
    stray = {name: lines for name, lines in spelled.items() if lines}
    assert not stray, "rotations spelled outside shape_shift: %s" % stray


def affine_maps(tree):
    """The functions, by name, whose body spells the affine color map
    (u * c + k * t) % r: a sum of two products of two names each, reduced
    mod a name, in any order of the terms and factors; "<module>" for one
    outside any function."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }

    def product_of_names(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Name)
            and isinstance(node.right, ast.Name)
        )

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and isinstance(node.right, ast.Name)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add)
            and product_of_names(node.left.left)
            and product_of_names(node.left.right)
        ):
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            yield getattr(node, "name", "<module>")


def test_only_affine_image_spells_the_affine_color_map():
    """characters._affine_image is the one statement of the affine color
    map (k, c) -> (k, u*c + k*t); the rest call it."""
    spelled = {
        (path.name, name)
        for path in SOURCES
        for name in affine_maps(ast.parse(path.read_text(), filename=str(path)))
    }
    assert spelled == {("characters.py", "_affine_image")}


def test_elements_and_cosets_share_one_interface():
    """A plain element is its own coset (q = 1, rep itself): no module but
    colored.py asks isinstance(..., ProjectiveElement), and the coset
    predicates is_identity and is_absolute_involution are defined once."""
    type_tests = []
    definitions = Counter()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                definitions[node.name] += 1
            elif (
                path.name != "colored.py"
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(
                    isinstance(name, ast.Name) and name.id == "ProjectiveElement"
                    for arg in node.args[1:]
                    for name in ast.walk(arg)
                )
            ):
                type_tests.append("%s:%d" % (path.name, node.lineno))
    assert not type_tests, "type tests for cosets at %s" % type_tests
    assert definitions["is_identity"] == definitions["is_absolute_involution"] == 1



def stdout_uses(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    ]


def test_cli_writes_stdout_only_through_the_emit_helpers():
    """In cli.py sys.stdout is touched only by _write_blocks, the block
    writer, which only _emit_json, _emit_rows and the parsers' print_help
    call; print always names its file, so no line reaches stdout on its
    own."""
    path = Path(gelfand.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    writer = stdout_uses(functions["_write_blocks"])
    assert writer and len(stdout_uses(tree)) == len(writer)
    callers = {
        name
        for name, function in functions.items()
        if any(
            isinstance(node, ast.Name) and node.id == "_write_blocks"
            for node in ast.walk(function)
        )
    }
    assert callers == {"_emit_json", "_emit_rows", "print_help"}
    bare_prints = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and not any(keyword.arg == "file" for keyword in node.keywords)
    ]
    assert not bare_prints, "print without file= at lines %s" % bare_prints


JSON_ENCODERS = {"dumps", "dump", "JSONEncoder"}


def test_cli_renders_json_in_one_writer():
    """cli.py names json.dumps, json.dump and JSONEncoder nowhere outside
    _json_chunks, the one JSON writer, and _emit_json, through which every
    command writes its JSON, writes what that writer yields."""
    path = Path(gelfand.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    inside = {id(node) for node in ast.walk(functions["_json_chunks"])}
    encoders = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Attribute) and node.attr in JSON_ENCODERS
            or isinstance(node, ast.Name) and node.id in JSON_ENCODERS
            or isinstance(node, ast.ImportFrom)
            and any(alias.name in JSON_ENCODERS for alias in node.names)
        )
    ]
    assert not encoders, "JSON encoded outside _json_chunks at lines %s" % encoders
    assert any(
        isinstance(node, ast.Name) and node.id == "_json_chunks"
        for node in ast.walk(functions["_emit_json"])
    )


def flag_reads(items):
    """The flags of args.p and args.q among some nodes, in order."""
    return [
        item.attr
        for item in items
        if isinstance(item, ast.Attribute)
        and isinstance(item.value, ast.Name)
        and item.value.id == "args"
        and item.attr in ("p", "q")
    ]


def test_cli_exchanges_p_and_q_in_one_helper():
    """The basis flags name G(r,p,q,n) and the acting group is its dual:
    only _acting_group puts args.q ahead of args.p, in a call, a tuple or
    a list, and the handlers that take the acting group from it read
    args.p and args.q nowhere else."""
    path = Path(gelfand.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    swapping = set()
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                order = flag_reads(node.args)
            elif isinstance(node, (ast.Tuple, ast.List)):
                order = flag_reads(node.elts)
            else:
                continue
            if "p" in order and "q" in order and order.index("q") < order.index("p"):
                swapping.add(function.name)
    assert swapping == {"_acting_group"}
    stray = sorted(
        (function.name, node.lineno)
        for function in functions
        if function.name != "_acting_group"
        and any(
            isinstance(node, ast.Name) and node.id == "_acting_group"
            for node in ast.walk(function)
        )
        for node in ast.walk(function)
        if flag_reads([node])
    )
    assert not stray, "args.p or args.q read beside _acting_group: %s" % stray
