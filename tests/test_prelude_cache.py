"""`check_and_elaborate` reuses the cores of a program's prelude definitions,
checked once in the prelude's own context. Reuse must change no result:
the same diagnostics, at the same positions, and an equal core as checking
every definition in the program's context."""


import pytest
from hypothesis import given, settings, strategies as st

import stratcalc as sc

from conftest import NAT_TREE_HEADER
from randgen import Gen, edited

PRELUDES = {
    "shipped": sc.load_prelude(),
    # IncAll names Inc, which only a program declares.
    "IncAll": sc.parse_program("def Try(v) : TP -> TP = v <+ id;\n"
                               "def IncAll : TP = all(extend(Inc, TP));\n",
                               require_main=False),
    "ill-typed": sc.parse_program("def Try(v) : TP -> TP = v <+ id;\n"
                                  "def Bad(v) : TP -> TP = select(v);\n",
                                  require_main=False),
}
SIG = "sort Nat; con zero : Nat; fun succ : Nat -> Nat; var N : Nat;\n"
# Seeds that redeclare a prelude name, use one, or declare what IncAll needs.
SEEDS = [SIG + text for text in [
    "main = Try(N -> succ(N));",
    "def Inc : Nat -> Nat = N -> succ(N); main = IncAll;",
    "def Inc : Nat -> Nat = N -> succ(N); main = TD(extend(Inc, TP));",
    "fun Try : Nat -> Nat; main = Try(id);",
    "con Inc : Nat; main = Try(Inc);",
    "var Try : Nat; main = all(id);",
    "sort Nat; main = Repeat(fail);"]]
TOKENS = ["sort", "con", "fun", "var", "def", "main", ";", ":", "=", "->",
          "(", ")", ",", "id", "all", "extend", "TP", "Nat", "zero", "succ",
          "N", "Try", "TD", "Repeat", "Inc", "IncAll", "Bad"]


def outcome(program):
    diags, main_type, core = sc.check_and_elaborate(program)
    return [(type(d), d.render()) for d in diags], main_type, core


def assert_reuse_changes_nothing(program, cold):
    """Cold, the program's prelude has no cores kept yet; warm, a program
    that declares what IncAll needs has had them checked."""
    if cold:
        program.prelude.cores = None
    else:
        sc.check_and_elaborate(sc.parse_program(
            SIG + "def Inc : Nat -> Nat = N -> succ(N);\nmain = id;",
            prelude=program.prelude))
    want = outcome(program.replace(prelude=None))
    assert outcome(program) == want
    assert outcome(program) == want  # the prelude's cores are now cached


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@given(seed=st.integers(0, 10**9))
def test_reuse_on_generated_programs(nat_tree, cold, seed):
    _, s = Gen(seed).strategy()
    assert_reuse_changes_nothing(nat_tree.replace(main=s), cold)


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@given(prelude=st.sampled_from(sorted(PRELUDES)), text=edited(SEEDS, TOKENS))
@settings(max_examples=200, deadline=None)
def test_reuse_on_edited_programs(cold, prelude, text):
    try:
        program = sc.parse_program(text, prelude=PRELUDES[prelude])
    except (sc.ParseError, sc.StaticError):
        return
    assert program.prelude is PRELUDES[prelude]
    assert_reuse_changes_nothing(program, cold)


def ill_typed_try(program):
    """The program with its prelude's Try replaced by an ill-typed one."""
    bad = sc.parse_program("def Try(v) : TP -> TP = select(v);\nmain = id;")
    return program.replace(definitions={**program.definitions,
                                        "Try": bad.definitions["Try"]})


def without_prelude_declarations(program):
    """The program's definitions in a context that declares none of them."""
    ctx = sc.parse_program(NAT_TREE_HEADER).context
    return program.replace(context=ctx)


# Parsing never builds these: each breaks one condition of reuse.
@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@pytest.mark.parametrize("build", [ill_typed_try, without_prelude_declarations])
def test_no_reuse_for_other_definitions_or_declarations(nat_tree, build,
                                                        cold):
    program = build(nat_tree)
    assert outcome(program)[0]
    assert_reuse_changes_nothing(program, cold)
