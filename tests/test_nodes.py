"""The node base of terms, types and outcomes, and the records beside it."""

import ast
import copy
import dataclasses
import inspect
import pickle

import pytest

from stratcalc import evaluate, terms
from stratcalc.evaluate import EngineFailure, EvalConfig, EvalState
from stratcalc.terms import (
    FAILURE,
    TP_TYPE,
    UNIT,
    Amp,
    Arrow,
    CombinatorType,
    Context,
    Failure,
    FunApp,
    Ok,
    Pair,
    PairType,
    Sort,
    TP,
    TU,
    TypeVar,
    Unit,
    UnitTuple,
    Var,
)

from conftest import load_program

NAT = Sort("Nat")
ZERO = FunApp("zero", (), NAT)

# One node of every term, type and outcome class, with a field of it (the
# tag for a term without fields, any name for a node without any).
NODES = [
    (NAT, "name"), (UNIT, "name"), (PairType(NAT, UNIT), "left"),
    (TypeVar("a"), "name"), (Arrow(NAT, NAT), "dom"), (TP_TYPE, "name"),
    (TU(NAT), "result"), (Amp(Arrow(NAT, NAT), TP_TYPE), "right"),
    (CombinatorType(("a",), (TP_TYPE,), TU(TypeVar("a"))), "arg_types"),
    (ZERO, "args"), (Var("N", NAT), "name"), (UnitTuple(UNIT), "tag"),
    (Pair(ZERO, UnitTuple(UNIT), PairType(NAT, UNIT)), "right"),
    (Ok(ZERO), "term"), (FAILURE, "name"),
]


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
    assert UnitTuple(UNIT) == UnitTuple()
    pair = Pair(ZERO, ZERO, PairType(NAT, NAT))
    assert pair == Pair(FunApp("zero", ()), FunApp("zero", ()))
    assert hash(pair) == hash(Pair(FunApp("zero", ()), FunApp("zero", ())))


def test_fields_are_compared():
    assert FunApp("zero", ()) != FunApp("one", ())
    assert FunApp("succ", (ZERO,)) != FunApp("succ", (ZERO, ZERO))
    assert Arrow(NAT, UNIT) != Arrow(UNIT, NAT)
    assert Ok(ZERO) == Ok(FunApp("zero", ())) != Ok(UnitTuple())
    assert EngineFailure("FuelExhausted", "x") == EngineFailure(
        "FuelExhausted", "x") != EngineFailure("FuelExhausted", "y")


@pytest.mark.parametrize("node, name", NODES,
                         ids=[type(n).__name__ for n, _ in NODES])
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
                         ids=[type(n).__name__ for n, _ in NODES])
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
    assert repr(Pair(ZERO, UnitTuple(UNIT), PairType(NAT, UNIT))) == (
        "Pair(left=FunApp(name='zero', args=(), tag=Nat), "
        "right=UnitTuple(tag=()), tag=(Nat,()))")
    assert repr(FAILURE) == "Failure()"
    assert repr(CombinatorType(("a",), (Arrow(NAT, NAT), TP_TYPE),
                               TU(TypeVar("a")))) == (
        "CombinatorType(type_params=('a',), arg_types=(Nat -> Nat, TP), "
        "result_type=TU(a))")
    assert repr(Amp(Arrow(NAT, NAT), TP_TYPE)) == "Nat -> Nat & TP"
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
