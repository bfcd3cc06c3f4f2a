"""The reference semantics in `reference_eval` borrows none of the engine's
judgements.

A fault in a function the reference shared with the engine would show on
both sides of every differential test, so the reference imports from
`stratcalc` only classes and constants, and nothing at all from the
evaluator or the type checker. This reads its imports from its source,
resolves each name, and names every one that breaks that rule.
"""

import ast
import importlib
from types import ModuleType

import reference_eval

ENGINE = ("stratcalc.evaluate", "stratcalc.typecheck")


def resolve(qualname):
    """The module, or the module's attribute, that qualname names."""
    try:
        return importlib.import_module(qualname)
    except ImportError:
        module, _, name = qualname.rpartition(".")
        return getattr(importlib.import_module(module), name)


def imported(source):
    """The qualified name of each module and name that source imports from
    stratcalc, and of each attribute it reads off a module so bound."""
    tree, names, modules = ast.parse(source), [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a.name, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            pairs = [(node.module + "." + a.name, a.asname or a.name)
                     for a in node.names]
        else:
            continue
        for qualname, local in pairs:
            if qualname.partition(".")[0] == "stratcalc":
                names.append(qualname)
                if isinstance(resolve(qualname), ModuleType):
                    modules[local] = qualname
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append(modules[node.value.id] + "." + node.attr)
    return names


def violations(source):
    """Each name source imports that couples it to the engine."""
    out = []
    for qualname in imported(source):
        if qualname.startswith(ENGINE):
            out.append("%s is the evaluator's or the checker's" % qualname)
            continue
        value = resolve(qualname)
        if callable(value) and not isinstance(value, type):
            out.append("%s is a function" % qualname)
    return out


def test_reference_imports_only_classes_and_constants():
    with open(reference_eval.__file__) as f:
        assert violations(f.read()) == []


def test_borrowed_judgements_are_named():
    source = ("from stratcalc import syntax as S, evaluate\n"
              "from stratcalc.terms import FunApp, UNIT, tag_term\n"
              "from stratcalc.typecheck import domains\n"
              "import stratcalc.typecheck as T\n"
              "S.Rule, S.Program\n")
    assert violations(source) == [
        "stratcalc.evaluate is the evaluator's or the checker's",
        "stratcalc.terms.tag_term is a function",
        "stratcalc.typecheck.domains is the evaluator's or the checker's",
        "stratcalc.typecheck is the evaluator's or the checker's"]
