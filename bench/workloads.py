"""Seeded operations for the three benchmark workloads.

Operation ``i`` of a workload is a pure function of ``(workload, seed, i)``:
its inputs come from a private ``random.Random`` seeded with that triple, and
its size class comes from a fixed schedule indexed by ``i``, so every prefix of
the operation stream has the same mix of classes whatever the seed.

An operation has two halves.  ``run()`` is the timed call into the library and
returns the raw answer.  ``check(answer)`` verifies that answer on its own
terms (identity evaluated at a random point, substituted witness,
``D(w) == f + g*w``, byte exact corpus output) and returns the canonical
answer text that goes into the digest; it raises ``WrongAnswer`` when the
answer is wrong.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from difftower import ansatz, autgroup, corpus, structure
from difftower.ansatz import Bounds, Found, NoSolutionWithinBounds
from difftower.parser import format_ratfun, parse_expr
from difftower.randexpr import random_fraction, random_mpoly, random_ratfun, \
    random_tower
from difftower.ratfun import RatFun
from difftower.tower import SubfieldSpec, base_subfield, tower_from_pairs

WORKLOADS = ("derive", "ode", "search")


class WrongAnswer(Exception):
    """The library returned an answer that failed the benchmark's check."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


def answer_digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # str seeds hash through sha512, so the stream is stable across processes
    return random.Random(f"{workload}/{seed}/{i}")


def _require(cond: bool, what: str):
    if not cond:
        raise WrongAnswer(what)


fmt = format_ratfun


def _shifted(c: int) -> str:
    return f"(z + {c})" if c else "z"


# -- derive: derivation identities (acceptance criterion 4) --------------------

# criterion 4's degree mix, crossed with tower depth 1..3, the degree 1..2 of
# the tower's own derivatives and the rule checked; one rule per operation
# gives more independent inputs per second than all three on one pair
DERIVE_DEGS = (1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6)
DERIVE_RULES = ("linearity", "Leibniz", "quotient")
DERIVE_SCHEDULE = tuple((rule, depth, tower_deg, deg) for deg in DERIVE_DEGS
                        for tower_deg in (1, 2) for depth in (1, 2, 3)
                        for rule in DERIVE_RULES)


def derive_op(seed: int, i: int) -> Op:
    rng = _rng("derive", seed, i)
    rule, depth, tower_deg, deg = DERIVE_SCHEDULE[i % len(DERIVE_SCHEDULE)]
    T = random_tower(rng, depth=depth, max_deg=tower_deg)
    u = random_ratfun(rng, T.vars, max_deg=deg, max_terms=3)
    v = random_ratfun(rng, T.vars, max_deg=min(deg, 2), max_terms=3)
    c = rng.randint(-3, 3)
    point = {x: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
             for x in T.vars}

    def run():
        D = T.differentiate
        du, dv = D(u), D(v)
        if rule == "linearity":
            lhs, rhs = D(u.scale(c) + v), du.scale(c) + dv
        elif rule == "Leibniz":
            lhs, rhs = D(u * v), du * v + u * dv
        elif v.is_zero():
            lhs = rhs = v
        else:
            lhs, rhs = D(u / v), (du * v - u * dv) / (v * v)
        return du, dv, lhs, rhs, lhs == rhs

    def check(answer):
        du, dv, lhs, rhs, holds = answer
        _require(holds, f"{rule} rule failed")
        # both sides cross-multiplied at a random rational point, so a wrong
        # RatFun equality cannot pass (Schwartz-Zippel)
        _require(lhs.num.eval_rat(point) * rhs.den.eval_rat(point)
                 == rhs.num.eval_rat(point) * lhs.den.eval_rat(point),
                 f"{rule} rule fails at a random point")
        return f"{fmt(du)}|{fmt(dv)}"

    return Op(f"{rule}-depth{depth}-tower{tower_deg}-deg{deg}", run, check)


# -- ode: first-order equations D(w) = f + g*w (acceptance criterion 7) --------

ODE_BOUNDS = Bounds(2, 2, 1, escalation=())
# five kinds, so the median and the 90th percentile fall inside one kind's
# spread of times rather than on the step between two kinds
ODE_SCHEDULE = ("base", "solvable-1", "obstruction-1", "solvable-2",
                "obstruction-2")


def _ode_tower(rng, depth: int, shape: int):
    """Seeded tower: log or arctangent type at depth 1; log-log or dilog type
    over a log at depth 2.  `shape` picks the type and the shift, so that
    every prefix of the stream has the same mix of tower shapes; the scale
    comes from the seed."""
    if depth == 0:
        return tower_from_pairs([])
    V = ("z", "g0", "g1")[:depth + 1]
    y, c = _shifted(shape % 3), rng.randint(1, 3)
    if depth == 1:
        derivs = [(f"{c}/{y}", f"{c}/(z^2 + {shape % 3 + 1})")[shape // 3]]
    else:
        derivs = [f"{c}/{y}", (f"1/({y}*g0)", f"g0/{y}")[shape // 3]]
    return tower_from_pairs([(n, parse_expr(d, V))
                             for n, d in zip(V[1:], derivs)])


def ode_op(seed: int, i: int) -> Op:
    rng = _rng("ode", seed, i)
    kind = ODE_SCHEDULE[i % len(ODE_SCHEDULE)]
    depth = int(kind[-1]) if kind[-1].isdigit() else 0
    T = _ode_tower(rng, depth, shape=(i // len(ODE_SCHEDULE)) % 6)
    V = T.vars
    zero = RatFun.const(V, 0)
    if kind.startswith("solvable"):
        # w0 over a tower denominator, so the fixed ansatz denominator holds it
        p = RatFun.const(V, 0)
        while p.is_const():
            p = RatFun.from_poly(random_mpoly(rng, V, max_deg=2, max_terms=3))
        dens = [RatFun.from_poly(d.den) for d in T.derivatives[1:]]
        w0 = p / rng.choice([RatFun.const(V, 1)] + dens)
        g = rng.choice([zero, RatFun.const(V, rng.randint(1, 3)),
                        RatFun.from_poly(random_mpoly(rng, ("z",), 1, 2))
                        .extend_vars(V)])
        f = T.differentiate(w0) - g * w0
        expect = "found"
    elif kind == "base":
        # f = D(r) in Q(z), found by the ansatz; or f = D(r) + c/(z - a),
        # whose nonzero residue leaves no rational antiderivative, so the
        # search fails and the residue criterion certifies it
        f = T.differentiate(random_ratfun(rng, V, max_deg=2, max_terms=2))
        g = zero
        expect = "found"
        if rng.random() < 0.5:
            a, c = rng.randint(-4, 4), rng.randint(1, 3)
            f = f + RatFun.const(V, c) / (RatFun.var(V, "z")
                                          - RatFun.const(V, a))
            expect = "certified"
    else:
        # D(w) = w: exp(z) lies in no tower of antiderivatives
        f, g = zero, RatFun.const(V, 1)
        expect = "none"

    def run():
        return ansatz.solve_first_order(f, g, T, ODE_BOUNDS)

    def check(out):
        if expect == "found":
            _require(isinstance(out, Found), "solvable equation not solved")
            w = out.value
            _require(T.differentiate(w) == f + g * w, "D(w) != f + g*w")
            return f"found:{fmt(w)}"
        _require(isinstance(out, NoSolutionWithinBounds),
                 "solution claimed for an unsolvable equation")
        _require(out.certified == (expect == "certified"),
                 "wrong certification flag")
        return f"none:certified={out.certified}"

    return Op(kind, run, check)


# -- search: the library and CLI query mix (criteria 1-3, 5, 6, 8, 9) ---------

# thirteen kinds, so the median and the 90th percentile fall inside one
# kind's spread of times rather than on the step between two kinds
SEARCH_SCHEDULE = ("hit-log", "miss-log", "ostrowski-dep", "hit-loglog",
                   "miss-loglog", "aut", "structure", "miss-flat2",
                   "ostrowski-indep", "hit-flat", "normal-tower", "miss-flat1",
                   "corpus")
HIT_BOUNDS = Bounds(2, 2, 2, escalation=())
MISS_BOUNDS = Bounds(2, 2, 1, escalation=())
STRUCTURE_BOUNDS = Bounds(3, 3, 2, escalation=())
OSTROWSKI_BOUNDS = Bounds(3, 3, 2, escalation=())


def _log_tower(rng, depth: int):
    """log, or log-log, of y = z + a for a seeded shift a; returns (T, y)."""
    a = _shifted(rng.randint(0, 4))
    names = ("zeta1", "zeta2")[:depth]
    V = ("z",) + names
    derivs = (f"1/{a}", f"1/({a}*zeta1)")[:depth]
    T = tower_from_pairs([(n, parse_expr(d, V))
                          for n, d in zip(names, derivs)])
    return T, parse_expr(a, T)


def _flat_tower(rng, t: int):
    names = tuple(f"zeta{k + 1}" for k in range(t))
    V = ("z",) + names
    shifts = rng.sample(range(7), t)
    return tower_from_pairs([(n, parse_expr(f"1/{_shifted(c)}", V))
                             for n, c in zip(names, shifts)])


def _witness_text(w) -> str:
    return f"{fmt(w.expr)}@{';'.join(fmt(x) for x in w.args)}"


def _membership(u, K, T, bounds, expect_found: bool) -> tuple:
    def run():
        return ansatz.subfield_membership(u, K, T, bounds)

    def check(out):
        if not expect_found:
            _require(isinstance(out, NoSolutionWithinBounds),
                     "witness claimed for a transcendental target")
            return "none"
        _require(isinstance(out, Found), "member not found")
        _require(out.value.substituted() == u, "witness does not substitute")
        return f"found:{_witness_text(out.value)}"

    return run, check


def _hit(rng, kind: str):
    c, d = random_fraction(rng), random_fraction(rng)
    if kind == "hit-flat":
        T = _flat_tower(rng, 2)
        k = T.gen("zeta1") + T.gen("zeta2").scale(rng.randint(1, 3))
        first = k * T.differentiate(k)
    else:
        depth = 2 if kind == "hit-loglog" else 1
        T, y = _log_tower(rng, depth)
        k = (T.gen(f"zeta{depth}")
             + RatFun.const(T.vars, rng.randint(-3, 3))) / y
        # y itself is out of reach from a log-log generator at these bounds
        first = y if depth == 1 else k * T.differentiate(k)
    targets = (first, k * k + k.scale(c),
               k.scale(c) + RatFun.const(T.vars, d))
    u = targets[rng.randrange(len(targets))]
    return _membership(u, SubfieldSpec(generators=(k,)), T, HIT_BOUNDS, True)


def _miss(rng, kind: str):
    """Transcendental targets: log over Q(z), log-log over the log, and one
    of two flat logs over a combination of both."""
    if kind == "miss-log":
        T, _ = _log_tower(rng, 1)
        gens, u = (T.gen("z"),), T.gen("zeta1")
    elif kind == "miss-loglog":
        T, _ = _log_tower(rng, 2)
        gens, u = (T.gen("zeta1"),), T.gen("zeta2")
    else:
        T = _flat_tower(rng, 2)
        k = T.gen("zeta1") + T.gen("zeta2").scale(rng.randint(1, 3))
        gens = (k,) if kind == "miss-flat1" else (k, T.gen("z") * T.gen("z"))
        u = T.gen("zeta2")
    return _membership(u, SubfieldSpec(generators=gens), T, MISS_BOUNDS, False)


def _structure(rng):
    T, y = _log_tower(rng, 1)
    K = SubfieldSpec(generators=(
        (T.gen("zeta1") + RatFun.const(T.vars, rng.randint(-3, 3))) / y,))

    def run():
        return structure.subfield_structure(K, T, STRUCTURE_BOUNDS)

    def check(report):
        _require(report.status == "resolved", "structure left unresolved")
        exprs = tuple(g.expr for g in report.generators)
        _require(exprs == (T.gen("z"), T.gen("zeta1")),
                 "K = Q(z, zeta1) not rebuilt as z, zeta1")
        for g in report.generators:
            _require(g.membership_witness.substituted() == g.expr,
                     "generator witness does not substitute")
        for g, w in zip(K.generators, report.input_witnesses):
            _require(w is not None and w.substituted() == g,
                     "K generator witness does not substitute")
        gens = ";".join(_witness_text(g.membership_witness)
                        for g in report.generators)
        inputs = ";".join(_witness_text(w) for w in report.input_witnesses)
        return f"{report.status}:{gens}:{inputs}"

    return run, check


def _ostrowski(rng, dependent: bool):
    t = rng.randint(2, 3)
    T = _flat_tower(rng, t)
    ws = [T.gen(name) for name in T.gen_names]
    if dependent:
        alpha = [random_fraction(rng) for _ in range(t)]
        if not any(alpha):
            alpha[0] = Fraction(1)
        a = random_ratfun(rng, ("z",), max_deg=2).extend_vars(T.vars)
        dep = a
        for c, w in zip(alpha, ws):
            dep = dep + w.scale(c)
        ws.append(dep)
        lead = next(c for c in alpha if c)
        want = (tuple(c / lead for c in alpha) + (Fraction(-1) / lead,),
                a.scale(Fraction(-1) / lead))
    K = base_subfield(T)

    def run():
        return structure.ostrowski_relation(ws, K, T, OSTROWSKI_BOUNDS)

    def check(out):
        if not dependent:
            _require(isinstance(out, structure.Independent),
                     "relation claimed among independent logs")
            return "independent"
        _require(isinstance(out, structure.Relation), "relation missed")
        _require((out.alpha, out.remainder) == want, "wrong relation")
        alpha = ",".join(str(x) for x in out.alpha)
        return f"relation:{alpha}:{fmt(out.remainder)}"

    return run, check


def _normal_tower(rng):
    if rng.random() < 0.5:
        T, _ = _log_tower(rng, 2)
        want = [[], ["z"], ["zeta1"], ["zeta2"]]
    else:
        T = _flat_tower(rng, rng.randint(1, 3))
        want = [[], ["z"], list(T.gen_names)]

    def run():
        return structure.normal_tower(T)

    def check(nt):
        levels = [[fmt(e) for e in level] for level in nt.levels]
        _require(not nt.partial and levels == want, "wrong normal tower")
        return "|".join(",".join(level) for level in levels)

    return run, check


def _aut(rng):
    t = rng.randint(1, 3)
    T = _flat_tower(rng, t)
    a = tuple(random_fraction(rng) for _ in range(t))
    b = tuple(random_fraction(rng) for _ in range(t))
    sa = autgroup.make_translation_aut(T, a)
    sb = autgroup.make_translation_aut(T, b)
    sab = autgroup.make_translation_aut(T, tuple(x + y for x, y in zip(a, b)))
    u = random_ratfun(rng, T.vars, max_deg=2, max_terms=3)
    alpha = tuple(random_fraction(rng) for _ in range(t))
    g = random_ratfun(rng, ("z",), max_deg=2).extend_vars(T.vars)
    for c, name in zip(alpha, T.gen_names):
        g = g + T.gen(name).scale(c)
    basis = [autgroup.make_translation_aut(
        T, tuple(Fraction(int(j == k)) for j in range(t))) for k in range(t)]

    def run():
        composed = autgroup.compose(sa, sb)
        image = autgroup.apply(sa, u)
        moved = tuple(not autgroup.fixed_field_probe([s], g) for s in basis)
        return composed, image, moved

    def check(answer):
        composed, image, moved = answer
        _require(composed.assignments == sab.assignments,
                 "composition is not the sum translation")
        _require(T.differentiate(image)
                 == autgroup.apply(sa, T.differentiate(u)),
                 "translation does not commute with D")
        _require(moved == tuple(c != 0 for c in alpha), "wrong fixed field")
        return f"{fmt(image)}|{''.join('1' if m else '0' for m in moved)}"

    return run, check


def _corpus(case):
    def run():
        corpus.replay(case)     # raises Mismatch unless byte-exact
        return case

    def check(_):
        return f"{case.name}:{case.expected_exit}:" \
               f"{hashlib.sha256(case.expected_output.encode()).hexdigest()}"

    return run, check


def search_op(seed: int, i: int, cases: list) -> Op:
    rng = _rng("search", seed, i)
    kind = SEARCH_SCHEDULE[i % len(SEARCH_SCHEDULE)]
    if kind.startswith("hit"):
        run, check = _hit(rng, kind)
    elif kind.startswith("miss"):
        run, check = _miss(rng, kind)
    elif kind == "structure":
        run, check = _structure(rng)
    elif kind.startswith("ostrowski"):
        run, check = _ostrowski(rng, kind == "ostrowski-dep")
    elif kind == "normal-tower":
        run, check = _normal_tower(rng)
    elif kind == "aut":
        run, check = _aut(rng)
    else:
        run, check = _corpus(cases[(i // len(SEARCH_SCHEDULE)) % len(cases)])
    return Op(kind, run, check)


class Workload:
    """Generates operation ``i`` of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        # the golden corpus cases, loaded once
        self._cases = [corpus.load_case(n) for n in corpus.list_cases()] \
            if name == "search" else None

    def op(self, i: int) -> Op:
        if self.name == "derive":
            return derive_op(self.seed, i)
        if self.name == "ode":
            return ode_op(self.seed, i)
        return search_op(self.seed, i, self._cases)
