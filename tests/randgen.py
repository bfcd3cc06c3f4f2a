"""Random generation of well-typed strategies and terms over the
Nat/Tree signature, used by the determinism / subject-reduction suites.

Generation is type-directed: gen_strategy(target) only produces
expressions whose unique type is the target, drawing from every
combinator family (rules, congruences, seq/choice/neg, traversal,
type-unifying primitives, extend/restrict/annot, overloading, sugar).
`edited` draws program texts instead, most of them ill-formed.
"""

import random

from hypothesis import strategies as st

import stratcalc as sc
from stratcalc import syntax as S
from stratcalc.parser import tokenize
from stratcalc.terms import (
    Arrow,
    Amp,
    FunApp,
    PAIR_NAME,
    PairType,
    Sort,
    TP_TYPE,
    TU,
    UNIT,
    UNIT_NAME,
    Var,
)

NAT = Sort("Nat")
TREE = Sort("Tree")

NN = Arrow(NAT, NAT)
TT = Arrow(TREE, TREE)
NT = Arrow(NAT, TREE)
TN = Arrow(TREE, NAT)
UN = Arrow(UNIT, NAT)
PRESERVE = Amp(NN, TT)


def _rule(lhs, rhs):
    return S.Rule(lhs, rhs)


def _v(name):
    return Var(name)


RULES = {
    NN: [
        _rule(_v("N"), FunApp("succ", (_v("N"),))),
        _rule(FunApp("succ", (_v("N"),)), _v("N")),
        _rule(FunApp("zero", ()), FunApp("succ", (FunApp("zero", ()),))),
        _rule(_v("N"), FunApp("zero", ())),
    ],
    TT: [
        _rule(FunApp("fork", (_v("T1"), _v("T2"))),
              FunApp("fork", (_v("T2"), _v("T1")))),
        _rule(FunApp("leaf", (_v("N"),)),
              FunApp("leaf", (FunApp("succ", (_v("N"),)),))),
        _rule(_v("T1"), FunApp("leaf", (FunApp("zero", ()),))),
        _rule(FunApp("fork", (_v("T1"), _v("T1"))), _v("T1")),
    ],
    NT: [
        _rule(_v("N"), FunApp("leaf", (_v("N"),))),
        _rule(FunApp("succ", (_v("N"),)), FunApp("leaf", (_v("N"),))),
    ],
    TN: [
        _rule(FunApp("leaf", (_v("N"),)), _v("N")),
        _rule(_v("T1"), FunApp("zero", ())),
    ],
    UN: [
        _rule(FunApp(UNIT_NAME, ()), FunApp("zero", ())),
    ],
    Arrow(UNIT, TREE): [
        _rule(FunApp(UNIT_NAME, ()), FunApp("leaf", (FunApp("zero", ()),))),
    ],
    Arrow(PairType(NAT, NAT), NAT): [
        _rule(FunApp(PAIR_NAME, (_v("N1"), _v("N2"))), _v("N1")),
        _rule(FunApp(PAIR_NAME, (_v("N1"), _v("N2"))), _v("N2")),
    ],
    Arrow(PairType(TREE, TREE), TREE): [
        _rule(FunApp(PAIR_NAME, (_v("T1"), _v("T2"))), _v("T2")),
    ],
}

ARROWS = [NN, TT, NT, TN, UN]
TOP_TARGETS = ([TP_TYPE] * 3 + [TU(NAT), TU(TREE), TU(UNIT),
                                TU(PairType(NAT, TREE))]
               + ARROWS + [PRESERVE])


class Gen:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def pick(self, xs):
        return xs[self.rng.randrange(len(xs))]

    # -- strategies ---------------------------------------------------------

    def strategy(self, target=None, depth=5):
        if target is None:
            target = self.pick(TOP_TARGETS)
        if isinstance(target, Arrow):
            return target, self.arrow(target, depth)
        if isinstance(target, sc.TU):
            return target, self.tu(target, depth)
        if isinstance(target, Amp):
            return target, self.amp(target, depth)
        return target, self.tp(depth)

    def tp(self, depth):
        if depth <= 0:
            return self.pick([S.Id(), S.Fail()])
        case = self.pick(["id", "fail", "all", "one", "neg", "seq", "choice",
                          "lchoice", "rchoice", "extend", "guard"])
        if case == "id":
            return S.Id()
        if case == "fail":
            return S.Fail()
        if case == "all":
            return S.All(self.tp(depth - 1))
        if case == "one":
            return S.One(self.tp(depth - 1))
        if case == "neg":
            # Negation yields TP only for generic operands.
            pi = self.pick([TP_TYPE, TU(NAT), TU(TREE)])
            _, inner = self.strategy(pi, depth - 1)
            return S.Neg(inner)
        if case == "seq":
            return S.Seq(self.tp(depth - 1), self.tp(depth - 1))
        if case in ("choice", "lchoice", "rchoice"):
            cls = {"choice": S.Choice, "lchoice": S.LChoice,
                   "rchoice": S.RChoice}[case]
            return cls(self.tp(depth - 1), self.tp(depth - 1))
        if case == "extend":
            inner_type = self.pick([NN, TT, PRESERVE])
            if isinstance(inner_type, Amp):
                return S.Extend(self.amp(inner_type, depth - 1), TP_TYPE)
            return S.Extend(self.arrow(inner_type, depth - 1), TP_TYPE)
        return S.TypeGuard(self.pick([NAT, TREE, UNIT]), TP_TYPE)

    def arrow(self, target, depth):
        pool = ["rule"]
        if depth > 0:
            pool += ["seq_tp_r", "seq_l_tp", "choice", "lchoice", "annot",
                     "restrict_tu", "seq_mid"]
            if target.dom == target.cod:
                pool += ["restrict_tp", "cong"]
        case = self.pick(pool)
        if case == "rule" or target not in RULES:
            if target in RULES:
                return self.pick(RULES[target])
            # No rule pool for this arrow; build through a congruence.
            case = "cong"
        if case == "cong":
            return self.congruence(target.dom, depth)
        if case == "seq_tp_r":
            return S.Seq(self.tp(depth - 1), self.arrow(target, depth - 1))
        if case == "seq_l_tp":
            return S.Seq(self.arrow(target, depth - 1), self.tp(depth - 1))
        if case == "seq_mid":
            mid = self.pick([NAT, TREE])
            return S.Seq(self.arrow(Arrow(target.dom, mid), depth - 1),
                         self.arrow(Arrow(mid, target.cod), depth - 1))
        if case in ("choice", "lchoice"):
            cls = S.Choice if case == "choice" else S.LChoice
            return cls(self.arrow(target, depth - 1),
                       self.arrow(target, depth - 1))
        if case == "annot":
            return S.Annot(self.arrow(target, depth - 1), target)
        if case == "restrict_tu":
            return S.Restrict(self.tu(TU(target.cod), depth - 1), target)
        if case == "restrict_tp":
            return S.Restrict(self.tp(depth - 1), target)
        raise AssertionError(case)

    def congruence(self, sort, depth):
        if sort == NAT:
            if depth <= 0 or self.rng.random() < 0.4:
                return S.CongFun("zero", ())
            return S.CongFun("succ", (self.arrow(NN, depth - 1),))
        if sort == TREE:
            if depth <= 0 or self.rng.random() < 0.5:
                return S.CongFun("leaf", (self.arrow(NN, max(depth - 1, 0)),))
            return S.CongFun("fork", (self.arrow(TT, depth - 1),
                                      self.arrow(TT, depth - 1)))
        if sort == UNIT:
            return S.CongUnit()
        raise AssertionError(sort)

    def tu(self, target, depth):
        tau = target.result
        if isinstance(tau, PairType):
            return S.Spawn(self.tu(TU(tau.left), max(depth - 1, 0)),
                           self.tu(TU(tau.right), max(depth - 1, 0)))
        if tau == UNIT:
            if depth <= 0:
                return S.Void()
            case = self.pick(["void", "select", "seq_tp", "choice"])
        else:
            if depth <= 0:
                return S.Extend(self.pick(RULES[Arrow(NAT, tau)]
                                          if Arrow(NAT, tau) in RULES
                                          else RULES[TN]), target)
            case = self.pick(["extend", "select", "seq_tp", "choice",
                              "lchoice", "reduce"])
        if case == "void":
            return S.Void()
        if case == "extend":
            dom = self.pick([NAT, TREE])
            src = Arrow(dom, tau)
            if src not in RULES:
                src = TN if tau == NAT else NT
            return S.Extend(self.pick(RULES[src]), target)
        if case == "select":
            return S.Select(self.tu(target, depth - 1))
        if case == "seq_tp":
            return S.Seq(self.tp(depth - 1), self.tu(target, depth - 1))
        if case in ("choice", "lchoice"):
            cls = S.Choice if case == "choice" else S.LChoice
            return cls(self.tu(target, depth - 1), self.tu(target, depth - 1))
        if case == "reduce":
            splus = self.pick(RULES[Arrow(PairType(tau, tau), tau)])
            return S.Reduce(splus, self.tu(target, depth - 1))
        raise AssertionError(case)

    def amp(self, target, depth):
        branches = sc.terms.amp_branches(target)
        out = self.arrow(branches[-1], max(depth - 1, 0))
        for b in reversed(branches[:-1]):
            out = S.AmpS(self.arrow(b, max(depth - 1, 0)), out)
        return out

    # -- terms --------------------------------------------------------------

    def term(self, tau, depth=4):
        if tau == NAT:
            if depth <= 0 or self.rng.random() < 0.4:
                return FunApp("zero", ())
            return FunApp("succ", (self.term(NAT, depth - 1),))
        if tau == TREE:
            if depth <= 1 or self.rng.random() < 0.5:
                return FunApp("leaf", (self.term(NAT, depth - 1),))
            return FunApp("fork", (self.term(TREE, depth - 1),
                                   self.term(TREE, depth - 1)))
        if tau == UNIT:
            return FunApp(UNIT_NAME, ())
        if isinstance(tau, PairType):
            return FunApp(PAIR_NAME, (self.term(tau.left, depth - 1),
                                      self.term(tau.right, depth - 1)))
        raise AssertionError(tau)

    def applicable_type(self, pi):
        """A term type this strategy type accepts."""
        if isinstance(pi, Arrow):
            return pi.dom
        if isinstance(pi, Amp):
            return self.pick([b.dom for b in sc.terms.amp_branches(pi)])
        return self.pick([NAT, TREE, UNIT])


def edited(seeds, tokens):
    """Token strings: a seed's tokens under up to three random insertions,
    deletions and replacements by one of `tokens`, so that some of them
    parse and reach the later phases."""
    @st.composite
    def strings(draw):
        toks = [tok[1] for tok in tokenize(draw(st.sampled_from(seeds)))][:-1]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
            i = draw(st.integers(0, len(toks)))
            edit = draw(st.sampled_from(["insert", "delete", "replace"]))
            if edit != "insert" and i < len(toks):
                del toks[i]
            if edit != "delete":
                toks.insert(i, draw(st.sampled_from(tokens)))
        return " ".join(toks)
    return strings()
