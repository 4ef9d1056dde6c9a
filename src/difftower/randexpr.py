"""Seeded random towers and expressions for spot checks and property tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .ratfun import MPoly, RatFun
from .tower import Tower, tower_from_pairs


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_mpoly(rng: random.Random, variables, max_deg: int = 3,
                 max_terms: int = 4) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_deg)
        exp = [0] * len(variables)
        for _ in range(budget):
            exp[rng.randrange(len(variables))] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + random_fraction(rng)
    return MPoly(variables, terms)


def random_ratfun(rng: random.Random, variables, max_deg: int = 3,
                  max_terms: int = 4) -> RatFun:
    num = random_mpoly(rng, variables, max_deg, max_terms)
    den = MPoly.zero(variables)
    while den.is_zero():
        den = random_mpoly(rng, variables, max_deg, max_terms)
    return RatFun(num, den)


def random_tower(rng: random.Random, depth: int = 2, max_deg: int = 3,
                 flat: bool = False) -> Tower:
    """Valid random tower: each derivative over z and earlier generators."""
    names = [f"g{i}" for i in range(depth)]
    all_vars = ("z", *names)
    pairs = []
    for i, name in enumerate(names):
        prefix = ("z",) if flat else ("z", *names[:i])
        deriv = RatFun.const(prefix, 0)
        while deriv.is_const():
            deriv = random_ratfun(rng, prefix, max_deg=max_deg)
        pairs.append((name, deriv.extend_vars(all_vars)))
    return tower_from_pairs(pairs)
