"""Reference answers for every request the benchmark sends.

Nothing here imports stratcalc: each expected reduct, verdict or exit
code is computed from the generator's own data, so a wrong answer from
the engine cannot also become the expected one.

Terms are tuples `(name, *children)`; `show` renders them in the
engine's concrete term syntax.
"""


def show(t):
    # Iterative: reference lists of 512 naturals nest deeper than Python's
    # recursion limit.
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif len(x) == 1:
            out.append(x[0])
        else:
            out.append(x[0] + "(")
            stack.append(")")
            for k in range(len(x) - 1, 0, -1):
                stack.append(x[k])
                if k > 1:
                    stack.append(",")
    return "".join(out)


def chain(heads, base):
    """head1(head2(...(base))) for a list of unary symbols."""
    t = base
    for h in reversed(heads):
        t = (h, t)
    return t


def nat(k):
    return chain(["succ"] * k, ("zero",))


def nat_list(items):
    t = ("nil",)
    for n in reversed(items):
        t = ("cons", n, t)
    return t


def is_nat(t):
    return t[0] in ("zero", "succ")


def nat_value(t):
    """Value of a closed Peano term built from zero, succ and add."""
    if t[0] == "zero":
        return 0
    if t[0] == "succ":
        return 1 + nat_value(t[1])
    if t[0] == "add":
        return nat_value(t[1]) + nat_value(t[2])
    raise ValueError("not a Nat term: %r" % (t,))


# -- programs/problems.strat semantics ---------------------------------------


def inc_nats(t):
    """ProblemI, StopTD(extend(Inc,TP)): every maximal Nat gains a succ."""
    if is_nat(t):
        return ("succ", t)
    return (t[0],) + tuple(inc_nats(c) for c in t[1:])


def has_nat(t):
    """ProblemIII: does the term contain a Nat anywhere?"""
    return is_nat(t) or any(has_nat(c) for c in t[1:])


def nats_in_order(t):
    """ProblemIV: the maximal Nats, left to right."""
    if is_nat(t):
        return [t]
    out = []
    for c in t[1:]:
        out.extend(nats_in_order(c))
    return out


def count_symbol(t, name):
    """ProblemV counts the occurrences of g."""
    return (t[0] == name) + sum(count_symbol(c, name) for c in t[1:])


def once_bu_g(t):
    """ProblemII, OnceBU(g(P) -> gp(P)): children are tried left to right
    before the node itself; None when no g occurs."""
    for i, c in enumerate(t[1:], 1):
        r = once_bu_g(c)
        if r is not None:
            return t[:i] + (r,) + t[i + 1:]
    if t[0] == "g":
        return ("gp", t[1])
    return None


def problem_reduct(name, t):
    if name == "ProblemI":
        return inc_nats(t)
    if name == "ProblemII":
        return once_bu_g(t)
    if name == "ProblemIII":
        return ("true",) if has_nat(t) else ("false",)
    if name == "ProblemIV":
        return nat_list(nats_in_order(t))
    if name == "ProblemV":
        return nat(count_symbol(t, "g"))
    raise KeyError(name)


# -- programs/overload.strat: Int as positive(NatZero) | negative(NatOne) ----


def int_term(v):
    if v == 0:
        return ("positive", ("zero",))
    one_based = chain(["succ"] * (abs(v) - 1), ("i",))
    if v > 0:
        return ("positive", ("notzero", one_based))
    return ("negative", one_based)


def overload_reduct(name, v):
    return int_term(v + 1 if name == "Inc" else v - 1)


# -- generated programs: strategy types as the CLI prints them ---------------


def show_ttype(tt):
    if isinstance(tt, str):
        return tt
    return "(%s,%s)" % (show_ttype(tt[1]), show_ttype(tt[2]))


def show_stype(pi):
    """TP, ("TU", tau), ("->", dom, cod) or ("&", left, right)."""
    if pi == "TP":
        return "TP"
    if pi[0] == "TU":
        return "TU(%s)" % show_ttype(pi[1])
    if pi[0] == "->":
        return "%s -> %s" % (show_ttype(pi[1]), show_ttype(pi[2]))
    return "%s & %s" % (show_stype(pi[1]), show_stype(pi[2]))
