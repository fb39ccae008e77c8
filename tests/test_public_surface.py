"""Every public name in the package has a caller in the package or is named
in the README as a library entry point.

A public name is a module-level function or class, or a method of a
module-level class (private classes included), whose name does not start
with an underscore, in any module of src/orbitzeta except corpus.py (the
bundled inputs of the tests).
A caller is a load of the name (`f(..)`, `obj.f`) anywhere in the package
outside the name's own definition, matched by name alone; an import or a
re-export is not one.  The README names a function by writing it in a code
span (`name`, `Class.name` or `module.name`).

No function of the package takes a `budgets` parameter: every budget check
reads the budgets of the innermost `budget_scope`.
"""

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "orbitzeta"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of every public def or class of a module,
    and of every public method of its classes, private ones included."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree: ast.Module):
    """(name, line) of every name load and attribute access of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _readme_names() -> set[str]:
    """Every identifier inside an inline code span of the README; a span may
    break across lines, and fenced blocks are left out."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def uncalled_public_names(named: set[str]) -> list[str]:
    """The public names with no caller in the package and not in named."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    loads = {name: list(_loads(tree)) for name, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        if module in ("corpus.py", "__init__.py"):
            continue
        for qualname, name, node in _public_definitions(tree):
            # a load of the name outside its own definition
            called = any(ref == name and not (other == module
                                              and node.lineno <= line <= node.end_lineno)
                         for other, refs in loads.items() for ref, line in refs)
            if not called and name not in named:
                missing.append(f"{module[:-3]}.{qualname}")
    return missing


def test_every_public_name_has_a_caller_or_is_a_readme_entry_point():
    assert uncalled_public_names(_readme_names()) == []


def test_without_the_readme_its_entry_points_are_reported():
    missing = uncalled_public_names(set())
    assert {"coadjoint.transitivity_check", "nilalg.NilAlgebra.is_fq_subspace",
            "zetalab.TruncatedDirichlet.partial_sum"} <= set(missing)
    assert "coadjoint.character_table" not in missing  # the CLI calls it


def test_public_methods_of_private_classes_are_counted():
    tree = ast.parse("class _Presentation:\n"
                     "    def collect(self):\n        pass\n"
                     "    def _letters(self):\n        pass\n")
    assert [q for q, _, _ in _public_definitions(tree)] == ["_Presentation.collect"]


def test_no_function_takes_a_budgets_parameter():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                if any(a.arg == "budgets" for a in params):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
