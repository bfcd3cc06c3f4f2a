"""Seeded inputs for the three workloads, and the expected result of each.

Every request is a `stratcalc` command line over files written here. The
programs are the benchmark's own copies, so an edit to `programs/` or
`tests/` does not silently change a workload.

A pass holds one request per slot, and each slot has a fixed size; the
seed varies only content that hardly moves the cost (leaf values, g/gp
patterns, the sign of an Int, generated definitions), so a run's
cost barely depends on which seed it was given. Passes of 25 or 35 slots
put the 50th and 90th percentile ranks in the middle of a slot rather
than on the edge between two slots of different cost; oneshot's 17 slots
rise in cost smoothly, so its edges matter less.
"""

import os
import random
from dataclasses import dataclass

import oracle as O

SIGNATURE_PROBLEMS = """\
sort Nat;
sort Tree;
sort Boolean;
sort NatList;
sort A;

con zero : Nat;
fun succ : Nat -> Nat;
fun leaf : Nat -> Tree;
fun fork : Tree * Tree -> Tree;
con true : Boolean;
con false : Boolean;
con nil : NatList;
fun cons : Nat * NatList -> NatList;
con a : A;
fun g : A -> A;
fun gp : A -> A;

var N : Nat;
var N1 : Nat;
var N2 : Nat;
var N3 : Nat;
var P : A;
var L : NatList;
var L1 : NatList;
var L2 : NatList;
var L3 : NatList;

def True : () -> Boolean = () -> true;
def False : () -> Boolean = () -> false;
def Zero : () -> Nat = () -> zero;
def One : () -> Nat = () -> succ(zero);
def IsNat : Nat -> Nat = zero + succ(id);
def Inc : Nat -> Nat = N -> succ(N);
def Add : (Nat,Nat) -> Nat =
    ((N1,zero) -> N1)
  + ((N1,succ(N2)) -> succ(N3) where N3 := Add @ (N1,N2));
def Nil : () -> NatList = () -> nil;
def Singleton : Nat -> NatList = N -> cons(N,nil);
def Append : (NatList,NatList) -> NatList =
    ((nil,L) -> L)
  + ((cons(N,L1),L2) -> cons(N,L3) where L3 := Append @ (L1,L2));

def ProblemI : TP = StopTD(extend(Inc, TP));
def ProblemII : TP = OnceBU(extend(g(P) -> gp(P), TP));
def ProblemIII : TU(Boolean) =
    Chi[Boolean](Any[()](extend(IsNat, TP) ; void), True, False);
def ProblemIV : TU(NatList) =
    StopCrush[NatList](extend(IsNat, TU(Nat)) ; Singleton, Nil, Append);
def ProblemV : TU(Nat) =
    Crush[Nat](Chi[Nat](extend(g(id), TP) ; void, One, Zero), Zero, Add);
"""

SIGNATURE_ADDITION = """\
sort Nat;

con zero : Nat;
fun succ : Nat -> Nat;
fun add : Nat * Nat -> Nat;

var N1 : Nat;
var N2 : Nat;

def AddStep : Nat -> Nat =
    (add(N1,zero) -> N1)
  + (add(N1,succ(N2)) -> succ(add(N1,N2)));
"""

SIGNATURE_OVERLOAD = """\
sort NatOne;
sort NatZero;
sort Int;

con i : NatOne;
fun succ : NatOne -> NatOne;
con zero : NatZero;
fun notzero : NatOne -> NatZero;
fun positive : NatZero -> Int;
fun negative : NatOne -> Int;

var NO : NatOne;

def Inc : (NatOne -> NatOne) & (NatZero -> NatZero) & (Int -> Int) =
    (NO -> succ(NO))
  & ((zero -> notzero(i)) + notzero(Inc))
  & ((positive(Inc) + negative(Dec)) + (negative(i) -> positive(zero)));

def Dec : (NatOne -> NatOne) & (NatZero -> NatZero) & (Int -> Int) =
    (succ(NO) -> NO)
  & ((notzero(i) -> zero) + notzero(Dec))
  & ((positive(Dec) + negative(Inc)) + (positive(zero) -> negative(i)));
"""

SIGNATURE_NAT_TREE = """\
sort Nat;
sort Tree;

con zero : Nat;
fun succ : Nat -> Nat;
fun leaf : Nat -> Tree;
fun fork : Tree * Tree -> Tree;

var N : Nat;
var N1 : Nat;
var N2 : Nat;
var T1 : Tree;
var T2 : Tree;

def IncN : Nat -> Nat = N -> succ(N);
"""

NORMALIZE_ADD = "Innermost(extend(AddStep,TP))"
NORMALIZE_NO_REDEX = "Try(OnceBU(extend(AddStep,TP)))"

# The README quick-start runs the repository's own example file.
QUICKSTART_PROGRAM = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "programs", "problems.strat")
QUICKSTART_TREE = ("fork", ("leaf", ("zero",)), ("leaf", ("succ", ("zero",))))
QUICKSTART_TERM = "fork(leaf(zero),leaf(succ(zero)))"

# Leaf naturals are small so that a tree's cost is set by its shape.
MAX_LEAF = 3


@dataclass
class Request:
    """One `stratcalc` command line and its reference outcome."""

    cls: str
    argv: list
    rc: int
    out: str = None  # expected stdout without the trailing newline
    defs: tuple = None  # `elaborate`: the def names it must print, in order

    def check(self, rc, stdout):
        if rc != self.rc:
            return False
        if self.out is not None and stdout.rstrip("\n") != self.out:
            return False
        if self.defs is not None:
            lines = stdout.splitlines()
            names = tuple(l.split()[1] for l in lines if l.startswith("def "))
            if names != self.defs or not any(l.startswith("main = ")
                                             for l in lines):
                return False
        return True


class Writer:
    """Writes programs and terms into one directory, each text once."""

    def __init__(self, root):
        self.root = root
        self.paths = {}

    def file(self, text, suffix):
        path = self.paths.get(text)
        if path is None:
            path = os.path.join(self.root, "in%05d%s" % (len(self.paths), suffix))
            with open(path, "w") as f:
                f.write(text)
            self.paths[text] = path
        return path

    def program(self, signature, main):
        return self.file("%s\nmain = %s;\n" % (signature, main), ".strat")

    def run(self, cls, signature, main, term, expected):
        """A `run` request whose reduct is `expected` (a term tuple)."""
        argv = ["run", self.program(signature, main),
                "--term", self.file(O.show(term), ".term")]
        return Request(cls, argv, 0, O.show(expected))


# -- term generators -----------------------------------------------------------


def full_tree(rng, depth):
    if depth == 0:
        return ("leaf", O.nat(rng.randint(0, MAX_LEAF)))
    return ("fork", full_tree(rng, depth - 1), full_tree(rng, depth - 1))


def small_tree(rng, depth):
    if depth <= 1 or rng.random() < 0.4:
        return ("leaf", O.nat(rng.randint(0, MAX_LEAF)))
    return ("fork", small_tree(rng, depth - 1), small_tree(rng, depth - 1))


def g_chain(rng, length):
    """A chain of g/gp over a with at least one g."""
    heads = [rng.choice(("g", "gp")) for _ in range(length)]
    heads[rng.randrange(length)] = "g"
    return O.chain(heads, ("a",))


def split(rng, total, parts):
    """`parts` naturals summing to `total`."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


# -- workloads -----------------------------------------------------------------

TRAVERSE_PROBLEMS = ("ProblemI", "ProblemIII", "ProblemIV", "ProblemV")
TREE_DEPTHS = (6, 7, 8, 9)
CHAIN_LENGTHS = (20, 40)
# Cost grows faster than linearly in an Int's magnitude, so magnitudes
# are fixed and the seed picks only the sign.
INT_MAGNITUDES = (33, 66, 100, 133, 166, 200)


def traverse_pass(rng, w):
    """Single-pass schemes on large terms plus `&` dispatch on Ints."""
    out = []
    for depth in TREE_DEPTHS:
        t = full_tree(rng, depth)
        for name in TRAVERSE_PROBLEMS:
            if name == "ProblemIV" and depth > 8:
                continue  # overflows the Python stack today; see depth_probes
            out.append(w.run("%s/tree%d" % (name, depth), SIGNATURE_PROBLEMS,
                             name, t, O.problem_reduct(name, t)))
    for length in CHAIN_LENGTHS:
        t = g_chain(rng, length)
        for name in TRAVERSE_PROBLEMS:
            out.append(w.run("%s/chain%d" % (name, length), SIGNATURE_PROBLEMS,
                             name, t, O.problem_reduct(name, t)))
    for m in INT_MAGNITUDES:
        for name in ("Inc", "Dec"):
            v = m * rng.choice((1, -1))
            out.append(w.run("%s/int%d" % (name, m), SIGNATURE_OVERLOAD, name,
                             O.int_term(v), O.overload_reduct(name, v)))
    return out


# Requests that overflow the Python stack on the current engine (ROADMAP
# item 3). They stay out of the timed loop, where a crash would count as a
# failed request on every run, and are replayed by the traced pass, which
# reports how many of them crash as `evaluate.crash`.
def depth_probes(rng, w):
    t = full_tree(rng, 9)
    chain = g_chain(rng, 80)
    return [
        w.run("ProblemIV/tree9", SIGNATURE_PROBLEMS, "ProblemIV", t,
              O.problem_reduct("ProblemIV", t)),
        w.run("ProblemIV/chain80", SIGNATURE_PROBLEMS, "ProblemIV", chain,
              O.problem_reduct("ProblemIV", chain)),
        w.run("ProblemV/chain80", SIGNATURE_PROBLEMS, "ProblemV", chain,
              O.problem_reduct("ProblemV", chain)),
    ]


NO_REDEX_DEPTHS = tuple(range(6, 13))
# Cost depends on both operands, not only on their sum, so the pairs are
# fixed: every split of 6 and four sizes on the diagonal.
ADD_PAIRS = ((0, 6), (1, 5), (2, 4), (3, 3), (4, 2), (5, 1), (6, 0),
             (1, 1), (2, 3), (4, 4), (5, 5))
NESTED_TOTAL = 6
ONCE_BU_LENGTHS = (10, 30, 60, 80)


def normalize_pass(rng, w):
    """Fixpoint and once-schemes whose failing `<+` operands run twice."""
    out = []
    for d in NO_REDEX_DEPTHS:
        t = O.nat(d)
        out.append(w.run("TryOnceBU/succ%d" % d, SIGNATURE_ADDITION,
                         NORMALIZE_NO_REDEX, t, t))
    for a, b in ADD_PAIRS:
        t = ("add", O.nat(a), O.nat(b))
        out.append(w.run("Innermost/add%d,%d" % (a, b), SIGNATURE_ADDITION,
                         NORMALIZE_ADD, t, O.nat(a + b)))
    for shape in ("left", "right", "both"):
        xs = [O.nat(x) for x in split(rng, NESTED_TOTAL,
                                      4 if shape == "both" else 3)]
        if shape == "left":
            t = ("add", ("add", xs[0], xs[1]), xs[2])
        elif shape == "right":
            t = ("add", xs[0], ("add", xs[1], xs[2]))
        else:
            t = ("add", ("add", xs[0], xs[1]), ("add", xs[2], xs[3]))
        out.append(w.run("Innermost/nested-%s" % shape, SIGNATURE_ADDITION,
                         NORMALIZE_ADD, t, O.nat(O.nat_value(t))))
    for length in ONCE_BU_LENGTHS:
        t = g_chain(rng, length)
        out.append(w.run("ProblemII/chain%d" % length, SIGNATURE_PROBLEMS,
                         "ProblemII", t, O.problem_reduct("ProblemII", t)))
    return out


# -- generated programs for oneshot ---------------------------------------------
#
# A text-emitting copy of the type-directed generator in tests/randgen.py:
# every expression it returns has exactly the target type, over the Nat/Tree
# signature above. Types are "TP", ("TU", tau), ("->", dom, cod) and
# ("&", left, right); term types are "Nat", "Tree", "()" and ("pair", l, r).

NAT, TREE, UNIT = "Nat", "Tree", "()"
NN = ("->", NAT, NAT)
TT = ("->", TREE, TREE)
NT = ("->", NAT, TREE)
TN = ("->", TREE, NAT)
UN = ("->", UNIT, NAT)
PRESERVE = ("&", NN, TT)

RULES = {
    NN: ["N -> succ(N)", "succ(N) -> N", "zero -> succ(zero)", "N -> zero"],
    TT: ["fork(T1,T2) -> fork(T2,T1)", "leaf(N) -> leaf(succ(N))",
         "T1 -> leaf(zero)", "fork(T1,T1) -> T1"],
    NT: ["N -> leaf(N)", "succ(N) -> leaf(N)"],
    TN: ["leaf(N) -> N", "T1 -> zero"],
    UN: ["() -> zero"],
    ("->", UNIT, TREE): ["() -> leaf(zero)"],
    ("->", ("pair", NAT, NAT), NAT): ["(N1,N2) -> N1", "(N1,N2) -> N2"],
    ("->", ("pair", TREE, TREE), TREE): ["(T1,T2) -> T2"],
}

ARROWS = [NN, TT, NT, TN, UN]
TOP_TARGETS = (["TP"] * 3 + [("TU", NAT), ("TU", TREE), ("TU", UNIT),
                             ("TU", ("pair", NAT, TREE))] + ARROWS + [PRESERVE])
# Declared in place of a definition's real type to make a program ill-typed.
WRONG_TYPES = ["TP", ("TU", NAT), ("TU", TREE), NN, TT, NT, TN]

BINOP = {"seq": ";", "choice": "+", "lchoice": "<+", "rchoice": "+>"}


def _rule(text):
    return "(%s)" % text


class StrategyGen:
    def __init__(self, rng):
        self.rng = rng

    def pick(self, xs):
        return xs[self.rng.randrange(len(xs))]

    def strategy(self, target, depth=5):
        if target == "TP":
            return self.tp(depth)
        if target[0] == "TU":
            return self.tu(target, depth)
        if target[0] == "&":
            return self.amp(target, depth)
        return self.arrow(target, depth)

    def tp(self, depth):
        if depth <= 0:
            return self.pick(["id", "fail"])
        case = self.pick(["id", "fail", "all", "one", "neg", "seq", "choice",
                          "lchoice", "rchoice", "extend", "guard"])
        if case in ("id", "fail"):
            return case
        if case in ("all", "one"):
            return "%s(%s)" % (case, self.tp(depth - 1))
        if case == "neg":
            # Negation yields TP only for generic operands.
            pi = self.pick(["TP", ("TU", NAT), ("TU", TREE)])
            return "!(%s)" % self.strategy(pi, depth - 1)
        if case in BINOP:
            return "(%s %s %s)" % (self.tp(depth - 1), BINOP[case],
                                   self.tp(depth - 1))
        if case == "extend":
            inner = self.pick([NN, TT, PRESERVE])
            return "extend(%s, TP)" % self.strategy(inner, depth - 1)
        return "guard(%s, TP)" % self.pick([NAT, TREE, UNIT])

    def arrow(self, target, depth):
        pool = ["rule"]
        if depth > 0:
            pool += ["seq_tp_r", "seq_l_tp", "choice", "lchoice", "annot",
                     "restrict_tu", "seq_mid"]
            if target[1] == target[2]:
                pool += ["restrict_tp", "cong"]
        case = self.pick(pool)
        if case == "rule" or target not in RULES:
            if target in RULES:
                return _rule(self.pick(RULES[target]))
            case = "cong"  # no rule pool for this arrow
        if case == "cong":
            return self.congruence(target[1], depth)
        if case == "seq_tp_r":
            return "(%s ; %s)" % (self.tp(depth - 1), self.arrow(target, depth - 1))
        if case == "seq_l_tp":
            return "(%s ; %s)" % (self.arrow(target, depth - 1), self.tp(depth - 1))
        if case == "seq_mid":
            mid = self.pick([NAT, TREE])
            return "(%s ; %s)" % (self.arrow(("->", target[1], mid), depth - 1),
                                  self.arrow(("->", mid, target[2]), depth - 1))
        if case in ("choice", "lchoice"):
            return "(%s %s %s)" % (self.arrow(target, depth - 1), BINOP[case],
                                   self.arrow(target, depth - 1))
        if case == "annot":
            return "(%s : %s)" % (self.arrow(target, depth - 1),
                                  O.show_stype(target))
        if case == "restrict_tu":
            return "restrict(%s, %s)" % (self.tu(("TU", target[2]), depth - 1),
                                         O.show_stype(target))
        return "restrict(%s, %s)" % (self.tp(depth - 1), O.show_stype(target))

    def congruence(self, sort, depth):
        if sort == NAT:
            if depth <= 0 or self.rng.random() < 0.4:
                return "zero"
            return "succ(%s)" % self.arrow(NN, depth - 1)
        if sort == TREE:
            if depth <= 0 or self.rng.random() < 0.5:
                return "leaf(%s)" % self.arrow(NN, max(depth - 1, 0))
            return "fork(%s,%s)" % (self.arrow(TT, depth - 1),
                                    self.arrow(TT, depth - 1))
        return "()"

    def tu(self, target, depth):
        tau = target[1]
        if isinstance(tau, tuple):
            return "spawn(%s,%s)" % (self.tu(("TU", tau[1]), max(depth - 1, 0)),
                                     self.tu(("TU", tau[2]), max(depth - 1, 0)))
        if tau == UNIT:
            if depth <= 0:
                return "void"
            case = self.pick(["void", "select", "seq_tp", "choice"])
        else:
            if depth <= 0:
                src = ("->", NAT, tau)
                return "extend(%s, %s)" % (
                    _rule(self.pick(RULES[src if src in RULES else TN])),
                    O.show_stype(target))
            case = self.pick(["extend", "select", "seq_tp", "choice",
                              "lchoice", "reduce"])
        if case == "void":
            return "void"
        if case == "extend":
            src = ("->", self.pick([NAT, TREE]), tau)
            if src not in RULES:
                src = TN if tau == NAT else NT
            return "extend(%s, %s)" % (_rule(self.pick(RULES[src])),
                                       O.show_stype(target))
        if case == "select":
            return "select(%s)" % self.tu(target, depth - 1)
        if case == "seq_tp":
            return "(%s ; %s)" % (self.tp(depth - 1), self.tu(target, depth - 1))
        if case in ("choice", "lchoice"):
            return "(%s %s %s)" % (self.tu(target, depth - 1), BINOP[case],
                                   self.tu(target, depth - 1))
        splus = self.pick(RULES[("->", ("pair", tau, tau), tau)])
        return "reduce(%s,%s)" % (_rule(splus), self.tu(target, depth - 1))

    def amp(self, target, depth):
        return "(%s & %s)" % (self.arrow(target[1], max(depth - 1, 0)),
                              self.arrow(target[2], max(depth - 1, 0)))


def generated_program(rng, n_defs, ill_typed):
    """Definitions D0..D{n-1} over the Nat/Tree signature. Returns the
    program text without `main`, the def names and the type of the last
    definition; `ill_typed` declares one definition at a wrong type."""
    gen = StrategyGen(rng)
    wrong = rng.randrange(n_defs) if ill_typed else -1
    lines = [SIGNATURE_NAT_TREE]
    last = None
    for k in range(n_defs):
        last = gen.pick(TOP_TARGETS)
        body = gen.strategy(last)
        declared = last
        if k == wrong:
            declared = gen.pick([t for t in WRONG_TYPES if t != last])
        lines.append("def D%d : %s = %s;" % (k, O.show_stype(declared), body))
    names = ("IncN",) + tuple("D%d" % k for k in range(n_defs))
    return "\n".join(lines) + "\n", names, last


PROGRAM_SIZES = (10, 25, 50, 100, 200)
# One program in five is ill-typed. It is always the same slot, so that
# every pass costs the same; the seed picks which definition is wrong.
ILL_TYPED_SIZE = 50


def oneshot_pass(rng, w):
    """check, elaborate and run on generated programs, one in five of them
    ill-typed, plus the README quick-start commands."""
    out = []
    for n in PROGRAM_SIZES:
        bad = n == ILL_TYPED_SIZE
        text, names, last_type = generated_program(rng, n, bad)
        cls = "n%d%s" % (n, "-illtyped" if bad else "")
        checked = w.program(text, "D%d" % (n - 1))
        if bad:
            out.append(Request("check/" + cls, ["check", checked], 2))
            out.append(Request("elaborate/" + cls, ["elaborate", checked], 2))
        else:
            out.append(Request("check/" + cls, ["check", checked], 0,
                               O.show_stype(last_type)))
            out.append(Request("elaborate/" + cls, ["elaborate", checked], 0,
                               defs=names))
        t = small_tree(rng, 4)
        req = w.run("run/" + cls, text, "StopTD(extend(IncN, TP))", t,
                    O.inc_nats(t))
        if bad:
            req.rc, req.out = 2, None
        out.append(req)
    out.append(Request("quickstart/check", ["check", QUICKSTART_PROGRAM], 0, "TP"))
    out.append(Request("quickstart/run",
                       ["run", QUICKSTART_PROGRAM, "--term", QUICKSTART_TERM],
                       0, O.show(O.inc_nats(QUICKSTART_TREE))))
    return out


PASSES = {"traverse": traverse_pass, "normalize": normalize_pass,
          "oneshot": oneshot_pass}


def build(workload, seed, root, passes):
    """The workload's request list: `passes` seeded passes, each holding
    every request slot once, in a seeded order. Files go under `root`."""
    w = Writer(root)
    requests = []
    for p in range(passes):
        rng = random.Random("%s/%d/%d" % (workload, seed, p))
        batch = PASSES[workload](rng, w)
        rng.shuffle(batch)
        requests.extend(batch)
    return requests, w


def build_probes(seed, w):
    return depth_probes(random.Random("probes/%d" % seed), w)
