"""The node base of terms, types and outcomes, and the records beside it."""

import ast
import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
import threading

import pytest

import stratcalc
from stratcalc import evaluate, syntax as S, terms
from stratcalc.evaluate import EngineFailure, EvalConfig, EvalState
from stratcalc.terms import (
    FAILURE,
    PAIR_NAME,
    TP_TYPE,
    UNIT,
    UNIT_NAME,
    Amp,
    Arrow,
    CombinatorType,
    Context,
    Failure,
    FunApp,
    Ok,
    PairType,
    Sort,
    TP,
    TU,
    TypeVar,
    Unit,
    Var,
)
from stratcalc.typecheck import substitute_stype

from conftest import load_program, program_path

NAT = Sort("Nat")
ZERO = FunApp("zero", (), NAT)
UNIT_TERM = FunApp(UNIT_NAME, (), UNIT)
PAIR = FunApp(PAIR_NAME, (ZERO, UNIT_TERM), PairType(NAT, UNIT))

# One node of every term, type and outcome class, with a field of it (the
# tag for a term without fields, any name for a node without any).
NODES = [
    (NAT, "name"), (UNIT, "name"), (PairType(NAT, UNIT), "left"),
    (TypeVar("a"), "name"), (Arrow(NAT, NAT), "dom"), (TP_TYPE, "name"),
    (TU(NAT), "result"), (Amp(Arrow(NAT, NAT), TP_TYPE), "right"),
    (CombinatorType(("a",), (TP_TYPE,), TU(TypeVar("a"))), "arg_types"),
    (ZERO, "args"), (Var("N", NAT), "name"), (UNIT_TERM, "tag"),
    (PAIR, "args"), (Ok(ZERO), "term"), (FAILURE, "name"),
]
# The ids of NODES: its class, or the tuple that a FunApp spells.
NODE_IDS = [{UNIT_TERM: "unit", PAIR: "pair"}.get(n, type(n).__name__)
            for n, _ in NODES]


def test_fieldless_nodes_of_different_classes_are_unequal():
    assert UNIT != TP_TYPE and TP_TYPE != UNIT and UNIT != FAILURE
    assert Failure() == FAILURE and Unit() == UNIT and TP() == TP_TYPE
    assert len({UNIT, TP_TYPE, FAILURE, Failure()}) == 3


def test_same_fields_different_classes_are_unequal():
    assert TypeVar("Nat") != NAT and NAT != TypeVar("Nat")
    assert PairType(NAT, NAT) != Amp(NAT, NAT)
    assert Var("zero") != FunApp("zero", ())


def test_tags_are_neither_compared_nor_hashed():
    assert FunApp("zero", (), Sort("Nat")) == FunApp("zero", ())
    assert hash(FunApp("zero", (), Sort("Nat"))) == hash(FunApp("zero", ()))
    assert Var("N", NAT) == Var("N") and hash(Var("N", NAT)) == hash(Var("N"))
    assert UNIT_TERM == FunApp(UNIT_NAME, ())
    pair = FunApp(PAIR_NAME, (ZERO, ZERO), PairType(NAT, NAT))
    untagged = FunApp(PAIR_NAME, (FunApp("zero", ()), FunApp("zero", ())))
    assert pair == untagged
    assert hash(pair) == hash(untagged)


def test_fields_are_compared():
    assert FunApp("zero", ()) != FunApp("one", ())
    assert FunApp("succ", (ZERO,)) != FunApp("succ", (ZERO, ZERO))
    assert Arrow(NAT, UNIT) != Arrow(UNIT, NAT)
    assert Ok(ZERO) == Ok(FunApp("zero", ())) != Ok(FunApp(UNIT_NAME, ()))
    assert EngineFailure("FuelExhausted", "x") == EngineFailure(
        "FuelExhausted", "x") != EngineFailure("FuelExhausted", "y")


@pytest.mark.parametrize("node, name", NODES,
                         ids=NODE_IDS)
def test_nodes_are_immutable(node, name):
    before = repr(node)
    with pytest.raises(AttributeError):
        setattr(node, name, None)
    with pytest.raises(AttributeError):
        delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = None
    assert repr(node) == before


@pytest.mark.parametrize("node, name", NODES,
                         ids=NODE_IDS)
def test_copy_and_pickle_keep_nodes_equal(node, name):
    for other in (copy.copy(node), copy.deepcopy(node),
                  pickle.loads(pickle.dumps(node))):
        assert other == node and repr(other) == repr(node)
        assert hash(other) == hash(node)


def test_reprs_are_exact():
    assert repr(ZERO) == "FunApp(name='zero', args=(), tag=Nat)"
    assert repr(FunApp("zero", ())) == "FunApp(name='zero', args=(), tag=None)"
    assert repr(Ok(ZERO)) == "Ok(term=FunApp(name='zero', args=(), tag=Nat))"
    assert repr(Var("N", NAT)) == "Var(name='N', tag=Nat)"
    assert repr(PAIR) == (
        "FunApp(name='(,)', args=(FunApp(name='zero', args=(), tag=Nat), "
        "FunApp(name='()', args=(), tag=())), tag=(Nat,()))")
    assert repr(FAILURE) == "Failure()"
    assert repr(CombinatorType(("a",), (Arrow(NAT, NAT), TP_TYPE),
                               TU(TypeVar("a")))) == (
        "CombinatorType(type_params=('a',), arg_types=(Nat -> Nat, TP), "
        "result_type=TU(a))")
    assert repr(Amp(Arrow(NAT, NAT), TP_TYPE)) == "Nat -> Nat & TP"
    assert repr(TU(PairType(PairType(NAT, UNIT), PairType(TypeVar("a"), NAT)))) \
        == "TU(((Nat,()),(a,Nat)))"
    assert repr(EngineFailure("FuelExhausted", "fuel exhausted expanding F")) \
        == ("EngineFailure(kind='FuelExhausted', "
            "detail='fuel exhausted expanding F')")
    assert repr(EvalConfig()) == "EvalConfig(fuel=100000, trace=False)"
    assert repr(EvalState()) == ("EvalState(fuel=None, depth=0, "
                                 "trace_lines=[], amp_dispatches=0, "
                                 "amp_branch_evals=0)")
    assert repr(Context()) == (
        "Context(sorts=set(), functions={}, term_vars={}, combinators={}, "
        "strategy_params={}, type_vars=set(), decls=[])")


def test_records_keep_their_constructors():
    with pytest.raises(ValueError):
        EvalConfig(fuel=-1)
    cfg = EvalConfig(fuel=0, trace=True)
    assert (cfg.fuel, cfg.trace) == (0, True) and EvalConfig(5) != cfg
    sink = []
    state = EvalState(trace_lines=sink)
    assert state.trace_lines is sink and EvalState().trace_lines == []
    assert EvalState().trace_lines is not EvalState().trace_lines
    failure = EngineFailure(kind="DepthExceeded", detail="deep")
    assert (failure.kind, failure.detail) == ("DepthExceeded", "deep")


def test_records_are_mutable_and_unhashable():
    state = EvalState(trace_lines=["x"])
    state.depth += 1
    assert (state.fuel, state.depth, state.trace_lines) == (None, 1, ["x"])
    for record in (state, EvalConfig(), EngineFailure("k", "d"), Context()):
        with pytest.raises(TypeError):
            hash(record)
        with pytest.raises(AttributeError):
            record.extra = None


def test_context_replace_shares_what_it_does_not_change():
    ctx = load_program("overload.strat").context
    other = ctx.replace(decls=ctx.decls[3:])
    assert other.decls == ctx.decls[3:] and other.functions is ctx.functions
    assert other != ctx and ctx.replace() == ctx
    scope = ctx.with_params(["a"], {"s": TP_TYPE})
    assert scope.type_vars == {"a"} and scope.strategy_params == {"s": TP_TYPE}
    assert ctx.type_vars == set() and ctx.strategy_params == {}
    with pytest.raises(TypeError):
        ctx.replace(bogus=1)


def fresh(text):
    """A str equal to text but not the same object (text has two or more
    characters, as CPython shares one-character strings)."""
    return "".join(list(text))


# Every type class, as a constructor of fresh but equal field values.
TYPE_MAKERS = {
    "Sort": lambda: Sort(fresh("Nat")),
    "Unit": lambda: Unit(),
    "PairType": lambda: PairType(Sort(fresh("Nat")), Unit()),
    "TypeVar": lambda: TypeVar(fresh("elem")),
    "Arrow": lambda: Arrow(Sort(fresh("Nat")), PairType(UNIT, UNIT)),
    "TP": lambda: TP(),
    "TU": lambda: TU(TypeVar(fresh("elem"))),
    "Amp": lambda: Amp(Arrow(NAT, NAT), Arrow(UNIT, UNIT)),
    "CombinatorType": lambda: CombinatorType(
        (fresh("elem"),), (TP(), Arrow(TypeVar(fresh("elem")), NAT)),
        TU(TypeVar(fresh("elem")))),
}


@pytest.mark.parametrize("name", TYPE_MAKERS)
def test_one_object_per_type(name):
    t = TYPE_MAKERS[name]()
    assert type(t).__name__ == name and isinstance(t, terms.Type)
    assert TYPE_MAKERS[name]() is t
    for other in (copy.copy(t), copy.deepcopy(t),
                  pickle.loads(pickle.dumps(t))):
        assert other is t


def test_one_sort_per_name():
    assert Sort("Nat") is Sort("Nat") is NAT
    assert Sort("Tree") is not NAT
    assert pickle.loads(pickle.dumps(PairType(NAT, NAT))).left is NAT
    assert copy.deepcopy(ZERO).tag is NAT
    functions = load_program("overload.strat").context.functions
    (arg,), result = functions["succ"]
    assert arg is result is Sort("NatOne")
    assert functions["notzero"][0][0] is arg
    assert functions["zero"][1] is functions["notzero"][1]


def test_parse_program_and_substitute_stype_build_the_one_type():
    combinators = load_program("problems.strat").context.combinators
    assert combinators["Add"].result_type is Arrow(PairType(NAT, NAT), NAT)
    assert combinators["ProblemIII"].result_type is TU(Sort("Boolean"))
    crush = combinators["Crush"]
    assert crush.result_type is TU(TypeVar("a"))
    assert crush is CombinatorType(("a",), crush.arg_types, TU(TypeVar("a")))
    subst = {"a": PairType(NAT, UNIT)}
    assert substitute_stype(subst, crush.result_type) is TU(
        PairType(NAT, UNIT))
    assert substitute_stype(subst, Amp(Arrow(TypeVar("a"), NAT), TP_TYPE)) \
        is Amp(Arrow(PairType(NAT, UNIT), NAT), TP_TYPE)


def test_reduce_and_spawn_tag_pairs_with_the_one_type(monkeypatch, problems):
    # ProblemV is a Crush, whose prelude body runs both reduce and spawn.
    made = []

    def recording(left, right):
        made.append(PairType(left, right))
        return made[-1]

    monkeypatch.setattr(evaluate, "PairType", recording)
    core = stratcalc.elaborate_program(problems).replace(
        main=S.Call("ProblemV", (), ()))
    tree = stratcalc.parse_term("fork(leaf(zero),fork(leaf(zero),leaf(zero)))",
                                core.context)
    assert stratcalc.run_program(core, tree) == Ok(stratcalc.parse_term(
        "zero", core.context))
    assert len(made) > 2
    assert {id(p) for p in made} == {id(PairType(NAT, NAT))}


@pytest.mark.parametrize("make", [
    lambda: Sort(), lambda: Sort("Nat", "Tree"), lambda: Unit(NAT),
    lambda: PairType(NAT), lambda: TypeVar(), lambda: Arrow(NAT),
    lambda: TP(NAT), lambda: TU(), lambda: Amp(TP_TYPE),
    lambda: CombinatorType((), ()),
], ids=["Sort0", "Sort2", "Unit", "PairType", "TypeVar", "Arrow", "TP", "TU",
        "Amp", "CombinatorType"])
def test_a_wrong_field_count_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_threads_making_the_same_new_types_get_one_object_each():
    # Names no other test uses, so that every type below is new.
    names = ["Threaded%d_%d" % (os.getpid(), i) for i in range(200)]
    start = threading.Barrier(8)
    made = [None] * 8

    def make(k):
        start.wait()
        made[k] = [TU(PairType(Sort(n), UNIT)) for n in names]

    threads = [threading.Thread(target=make, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as it can
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for i, n in enumerate(names):
        assert len({id(m[i]) for m in made}) == 1
        assert made[0][i] is TU(PairType(Sort(n), UNIT))


@pytest.mark.parametrize("module, one_of_its_classes",
                         [(terms, FunApp), (evaluate, EvalState)],
                         ids=["terms", "evaluate"])
def test_no_dataclasses_in_the_term_layer(module, one_of_its_classes):
    # Defining dataclasses costs start-up time in every process.
    classes = [v for v in vars(module).values() if isinstance(v, type)]
    assert one_of_its_classes in classes
    assert not [c for c in classes if dataclasses.is_dataclass(c)]
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "dataclasses" not in imported


# ---------------------------------------------------------------------------
# Syntax nodes and programs

# The fields of every syntax class, in the order `dataclasses.fields`
# gives them, as they were when these classes were dataclasses, and the
# slots of `Program`.
SYNTAX_FIELDS = {
    "Rule": ("lhs", "rhs", "where", "pos"), "Id": ("pos",),
    "Fail": ("pos",), "Seq": ("left", "right", "pos"),
    "Choice": ("left", "right", "pos"), "LChoice": ("left", "right", "pos"),
    "RChoice": ("left", "right", "pos"), "Neg": ("arg", "pos"),
    "CongFun": ("name", "args", "pos"), "CongUnit": ("pos",),
    "CongPair": ("left", "right", "pos"), "All": ("arg", "pos"),
    "One": ("arg", "pos"), "Reduce": ("splus", "child", "pos"),
    "Select": ("arg", "pos"), "Void": ("pos",),
    "Spawn": ("left", "right", "pos"), "Extend": ("arg", "stype", "pos"),
    "Restrict": ("arg", "stype", "pos"), "Annot": ("arg", "stype", "pos"),
    "AmpS": ("left", "right", "pos"), "TypeGuard": ("ttype", "stype", "pos"),
    "TLChoice": ("left", "right", "pos"), "TRChoice": ("left", "right", "pos"),
    "ParamRef": ("name", "pos"), "Call": ("name", "type_args", "args", "pos"),
    "Where": ("var", "strat", "arg"),
    "Definition": ("name", "params", "ctype", "body", "pos"),
    "Program": ("context", "definitions", "main"),
}
SYNTAX_CLASSES = [c for c in vars(S).values()
                  if isinstance(c, type) and issubclass(c, S.Syntax)
                  and c.__name__ in SYNTAX_FIELDS]
POSITIONED = [c for c in SYNTAX_CLASSES if c is not S.Where]


def positioned(cls, pos):
    """A node of cls at pos, each of its other fields a node at 9:9."""
    return cls(*[S.Id((9, 9))] * (len(SYNTAX_FIELDS[cls.__name__]) - 1), pos)


def test_every_syntax_class_is_a_node():
    assert sorted(c.__name__ for c in SYNTAX_CLASSES + [S.Program]) \
        == sorted(SYNTAX_FIELDS)
    assert all(issubclass(c, terms.Node) for c in SYNTAX_CLASSES)
    assert issubclass(S.Program, terms.Record)
    assert not issubclass(S.Program, terms.Node)


@pytest.mark.parametrize("cls", POSITIONED, ids=lambda c: c.__name__)
def test_positions_are_neither_compared_nor_hashed(cls):
    here, there = positioned(cls, (1, 2)), positioned(cls, None)
    assert here == there and hash(here) == hash(there)
    assert here.pos == (1, 2) and repr(here) != repr(there)


def test_syntax_fields_are_compared():
    a, b = S.Id(), S.Fail()
    assert a != b and S.Seq(a, b) != S.Seq(b, a) != S.Choice(b, a)
    assert S.Call("F", (), ()) != S.CongFun("F", ()) != S.ParamRef("F")
    assert S.Where("X", a, Var("N")) != S.Where("X", a, Var("M"))
    assert len({S.Id(), S.Id((1, 1)), S.Fail(), S.Void(), S.CongUnit()}) == 4


@pytest.mark.parametrize("cls", SYNTAX_CLASSES, ids=lambda c: c.__name__)
def test_syntax_nodes_are_immutable(cls):
    node = S.Where("X", S.Id(), Var("N")) if cls is S.Where \
        else positioned(cls, (1, 2))
    before = repr(node)
    for name in SYNTAX_FIELDS[cls.__name__]:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    with pytest.raises(AttributeError):
        node.extra = None
    assert repr(node) == before


@pytest.mark.parametrize("cls", POSITIONED, ids=lambda c: c.__name__)
def test_copy_and_pickle_keep_positions(cls):
    node = positioned(cls, (1, 2))
    for other in (copy.copy(node), copy.deepcopy(node),
                  pickle.loads(pickle.dumps(node))):
        assert type(other) is cls and other == node
        assert other.pos == (1, 2) and repr(other) == repr(node)


def test_syntax_reprs_are_exact():
    # The text the dataclass repr gave, which the request digest reads.
    assert repr(S.Seq(S.Id((1, 2)), S.Fail(), (1, 1))) == (
        "Seq(left=Id(pos=(1, 2)), right=Fail(pos=None), pos=(1, 1))")
    assert repr(S.Rule(Var("N", NAT), ZERO,
                       (S.Where("M", S.ParamRef("s", (2, 3)), Var("N")),),
                       (2, 1))) == (
        "Rule(lhs=Var(name='N', tag=Nat), rhs=FunApp(name='zero', args=(), "
        "tag=Nat), where=(Where(var='M', strat=ParamRef(name='s', "
        "pos=(2, 3)), arg=Var(name='N', tag=None)),), pos=(2, 1))")
    assert repr(S.Call("TD", (NAT,), (S.Extend(S.Id(), TP_TYPE, (3, 4)),),
                       (3, 1))) == (
        "Call(name='TD', type_args=(Nat,), args=(Extend(arg=Id(pos=None), "
        "stype=TP, pos=(3, 4)),), pos=(3, 1))")
    assert repr(S.Definition("F", ("s",),
                             CombinatorType((), (TP_TYPE,), TP_TYPE),
                             S.ParamRef("s"), (5, 1))) == (
        "Definition(name='F', params=('s',), ctype=CombinatorType("
        "type_params=(), arg_types=(TP,), result_type=TP), "
        "body=ParamRef(name='s', pos=None), pos=(5, 1))")
    assert repr(S.Program(Context(), {}, S.Id())) == (
        "Program(context=Context(sorts=set(), functions={}, "
        "term_vars={}, combinators={}, strategy_params={}, "
        "type_vars=set(), decls=[]), definitions={}, main=Id(pos=None))")


@pytest.mark.parametrize("cls", SYNTAX_CLASSES, ids=lambda c: c.__name__)
def test_dataclass_fields_of_syntax_classes(cls):
    # The one dataclass protocol kept: a walk by `dataclasses.fields`.
    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == SYNTAX_FIELDS[cls.__name__]
    assert SYNTAX_FIELDS[cls.__name__] == cls._fields + cls._uncompared
    assert dataclasses.is_dataclass(cls)


def test_program_replace():
    program = load_program("problems.strat")
    other = program.replace(main=S.Fail())
    assert type(other) is S.Program and other.main == S.Fail()
    assert other.context is program.context
    assert other.definitions is program.definitions
    assert other != program
    assert other.replace(main=program.main) == program
    with pytest.raises(TypeError):
        program.replace(pos=None)
    assert not dataclasses.is_dataclass(program)


def test_programs_compare_by_their_fields():
    program = load_program("problems.strat")
    other = S.Program(program.context, program.definitions, program.main)
    assert other == program and repr(other) == repr(program)
    with pytest.raises(TypeError):
        hash(program)


def test_no_module_imports_dataclasses_at_module_level():
    # Only the syntax classes' adapter imports it, when first read.
    package = os.path.dirname(stratcalc.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert "dataclasses" not in imported, name


FRESH = """
import io, sys
before = set(sys.modules)
from stratcalc import cli
out, sys.stdout = sys.stdout, io.StringIO()
rc = cli.main(["check", sys.argv[1]])
sys.stdout = out
print(rc, sorted({"dataclasses", "inspect", "stratcalc.evaluate", "argparse"}
                & (set(sys.modules) - before)))
"""


def test_a_fresh_check_imports_neither_dataclasses_nor_inspect():
    # Generating dataclass code was the largest cost of a fresh process;
    # a check runs no evaluator and reads a plain command line itself.
    src = os.path.dirname(os.path.dirname(stratcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, program_path("problems.strat")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")
