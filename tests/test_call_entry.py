"""Where a call is charged: at its callee's entry, whatever the body's shape.

Each call costs one unit of fuel and, traced, writes one `comb` line. The
engine charges it and writes that line at the entry of the callee, so a
call site only finds the entry and builds the env it runs on. Here a
definition `B` whose body takes each shape is called from the three
kinds of site there are, and run at every fuel value up to what it needs,
traced and untraced. Each run must give what `tests/reference_eval.py`
gives: the outcome's `repr`, the fuel left and every trace line.
"""

import pytest

import stratcalc as sc
from stratcalc import evaluate
from stratcalc.evaluate import EvalState

from conftest import NAT_TREE_HEADER
from reference_eval import run_reference

NAT = "TP -> (Nat -> Nat)"

# Per shape: the body of B(v) and its type.
SHAPES = {
    "rule": ("succ(N) -> N1 where N1 := v @ N", NAT),
    "amp": ("(succ(N) -> N1 where N1 := v @ N) & (leaf(N) -> leaf(N))",
            "TP -> (Nat -> Nat) & (Tree -> Tree)"),
    "extend": ("extend(succ(N) -> N1 where N1 := v @ N, TP)", "TP -> TP"),
    "neg": ("!v", "TP -> TP"),
    "param": ("v", "TP -> TP"),
    "call": ("Try(v)", "TP -> TP"),
    "all": ("all(v)", "TP -> TP"),
    "one": ("one(v)", "TP -> TP"),
    "cong": ("succ(v)", NAT),
    "seq": ("v ; v", "TP -> TP"),
    "seq-all": ("v ; all(v)", "TP -> TP"),
    "lchoice-id": ("v <+ id", "TP -> TP"),
    "one-lchoice": ("one(v) <+ v", "TP -> TP"),
    "choice": ("v + all(v)", "TP -> TP"),
}

# Per kind of site that calls B, the main that makes it. B's own copy in
# main builds no env. Inside Pack's copy, B(v) passes a closure, so it runs
# B's shared instance on a packed env. Inside Hop's copy, made in Via's
# shared instance, v is Via's own parameter, so B(v) hands its parents B's
# shared instance, which runs on the env they have.
SITES = {"copy": "B(%s)", "pack": "Pack(%s)", "no env": "Top(%s)"}
ACTUAL = "extend(succ(N) -> N, TP)"
TERMS = ["succ(succ(zero))", "zero"]


def core(shape, site):
    body, stype = SHAPES[shape]
    defs = ["def B(v) : %s = %s;" % (stype, body)] + [
        "def %s(v) : %s = %s(v);" % (name, stype, callee)
        for name, callee in [("Pack", "B"), ("Top", "Via"), ("Via", "Hop"),
                             ("Hop", "B")]]
    text = NAT_TREE_HEADER.replace(
        "main = id;", "\n".join(defs) + "\nmain = %s;" % (SITES[site]
                                                          % ACTUAL))
    program = sc.parse_program(text, prelude=sc.load_prelude())
    diags, _, out = sc.check_and_elaborate(program)
    assert diags == [], [d.render() for d in diags]
    return out


@pytest.fixture
def sites(monkeypatch):
    """The kind of site of each call of B that a run resolves."""
    kinds, expansion = [], evaluate._expansion

    def recording(sc_, name, key, actuals):
        entry, pack = expansion(sc_, name, key, actuals)
        if name == "B":
            shared = entry is sc_.run.instances.get((name, key))
            kinds.append("copy" if not shared
                         else "no env" if pack is None else "pack")
        return entry, pack

    monkeypatch.setattr(evaluate, "_expansion", recording)
    return kinds


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("shape", SHAPES)
def test_each_body_shape_charges_its_calls_once(shape, site, sites):
    program = core(shape, site)
    for text in TERMS:
        t = sc.parse_term(text, program.context)
        _, ref = run_reference(program, t, sc.EvalConfig(fuel=10 ** 6))
        need = 10 ** 6 - ref.fuel
        for trace in (False, True):
            for fuel in range(1, need + 1):
                cfg = sc.EvalConfig(fuel=fuel, trace=trace)
                state = EvalState()
                got = sc.run_program(program, t, cfg, state)
                want, ref = run_reference(program, t, cfg)
                assert repr(got) == repr(want), (text, trace, fuel)
                assert state.fuel == ref.fuel, (text, trace, fuel)
                assert state.trace_lines == ref.trace_lines, (text, fuel)
            assert type(got) is not sc.EngineFailure
    assert sites and set(sites) == {site}
