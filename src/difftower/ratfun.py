"""Exact multivariate polynomial and rational-function arithmetic over Q.

Every value is immutable after construction and kept in a canonical form:
polynomials store no zero coefficients, fractions are gcd-reduced and the
denominator is deglex-monic.  Equality is structural equality of canonical
forms, so two values compare equal exactly when they denote the same
function.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import DivisionByZero, VariableMismatch, ZeroDenominator

Rat = Fraction
Exponent = tuple  # tuple[int, ...]


def _deglex_key(exp: Exponent):
    return (sum(exp), exp)


class MPoly:
    """Sparse multivariate polynomial over Q with a fixed variable list.

    Terms map exponent tuples to nonzero Fraction coefficients.  The deglex
    order (total degree first, then lexicographic in declared variable
    order) fixes the leading term used for monic normalization.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Rat]):
        self.vars = tuple(variables)
        clean = {}
        n = len(self.vars)
        for exp, coeff in terms.items():
            if len(exp) != n:
                raise VariableMismatch(
                    f"exponent {exp!r} has wrong length for variables {self.vars!r}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MPoly":
        c = Fraction(value)
        if c == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MPoly":
        variables = tuple(variables)
        i = variables.index(name)
        exp = [0] * len(variables)
        exp[i] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def const_value(self) -> Rat:
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if self.is_zero():
            return -1
        return max(e[i] for e in self.terms)

    def used_indices(self) -> set:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def used_vars(self) -> set:
        return {self.vars[i] for i in self.used_indices()}

    # -- term access ----------------------------------------------------

    def leading_exp(self) -> Exponent:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_deglex_key)

    def leading_coeff(self) -> Rat:
        return self.terms[self.leading_exp()]

    def coeff_in(self, i: int, k: int) -> "MPoly":
        """Coefficient of vars[i]**k, as a polynomial with exponent 0 at i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return MPoly(self.vars, out)

    def sorted_terms(self):
        """Terms in descending deglex order."""
        return sorted(self.terms.items(), key=lambda t: _deglex_key(t[0]), reverse=True)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars!r} vs {other.vars!r}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.vars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.vars, out)

    def scale(self, c) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return MPoly.zero(self.vars)
        return MPoly(self.vars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def monic(self) -> "MPoly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading_coeff())

    def shift_var(self, i: int, k: int) -> "MPoly":
        """Multiply by vars[i]**k."""
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] += k
            out[tuple(e2)] = c
        return MPoly(self.vars, out)

    # -- calculus-flavoured helpers --------------------------------------

    def partial(self, i: int) -> "MPoly":
        """Formal partial derivative with respect to vars[i]."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), Fraction(0)) + c * e[i]
        return MPoly(self.vars, out)

    def eval_rat(self, point: Mapping[str, Rat]) -> Rat:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v *= Fraction(point[self.vars[i]]) ** k
            total += v
        return total

    def substitute(self, mapping: Mapping[str, "RatFun"],
                   target_vars: Sequence[str]) -> "RatFun":
        """Simultaneous substitution; unmapped variables must appear in
        target_vars and map to themselves."""
        target_vars = tuple(target_vars)
        images = {}
        for name in self.vars:
            if name in mapping:
                images[name] = mapping[name]
            else:
                images[name] = RatFun.var(target_vars, name)
        total = RatFun.const(target_vars, 0)
        powers = {name: [RatFun.const(target_vars, 1)] for name in self.vars}
        for e, c in self.sorted_terms():
            term = RatFun.const(target_vars, c)
            for i, k in enumerate(e):
                if k:
                    name = self.vars[i]
                    cache = powers[name]
                    while len(cache) <= k:
                        cache.append(cache[-1] * images[name])
                    term = term * cache[k]
            total = total + term
        return total

    # -- exact division and gcd ------------------------------------------

    def try_divexact(self, other: "MPoly"):
        """Return self/other when other divides self exactly, else None."""
        self._check(other)
        if other.is_zero():
            return None
        quo = {}
        rem = dict(self.terms)
        le_d = other.leading_exp()
        lc_d = other.terms[le_d]
        while rem:
            le = max(rem, key=_deglex_key)
            diff = tuple(a - b for a, b in zip(le, le_d))
            if any(d < 0 for d in diff):
                return None
            c = rem[le] / lc_d
            quo[diff] = quo.get(diff, Fraction(0)) + c
            for e, v in other.terms.items():
                tgt = tuple(a + b for a, b in zip(e, diff))
                nv = rem.get(tgt, Fraction(0)) - c * v
                if nv == 0:
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = nv
        return MPoly(self.vars, quo)

    def divides(self, other: "MPoly") -> bool:
        return other.try_divexact(self) is not None

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        from .parser import format_mpoly
        return f"MPoly({format_mpoly(self)!r})"


# -- univariate views used by gcd and pseudo-division -----------------------

def _coeff_map(p: MPoly, i: int):
    """View p as a univariate polynomial in vars[i]: degree -> MPoly coeff."""
    out = {}
    for k in range(p.degree_in(i) + 1):
        c = p.coeff_in(i, k)
        if not c.is_zero():
            out[k] = c
    return out


def _prem(p: MPoly, q: MPoly, i: int) -> MPoly:
    """Pseudo-remainder of p by q in the main variable vars[i]."""
    dq = q.degree_in(i)
    lq = q.coeff_in(i, dq)
    r = p
    while not r.is_zero():
        dr = r.degree_in(i)
        if dr < dq:
            break
        lr = r.coeff_in(i, dr)
        r = r * lq - q * lr.shift_var(i, dr - dq)
    return r


def _primitive_scale(p: MPoly) -> MPoly:
    """Scale to coprime integer coefficients with positive leading term.
    Pure Fraction PRS blows up numerically; this keeps coefficients small."""
    if p.is_zero():
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    num = gcd(*(c.numerator * (den // c.denominator) for c in p.terms.values()))
    q = p.scale(Fraction(den, num))
    return q.scale(-1) if q.leading_coeff() < 0 else q


def _eval_var_int(p: MPoly, i: int, xi: int) -> MPoly:
    out: dict = {}
    for e, c in p.terms.items():
        e2 = list(e)
        k = e2[i]
        e2[i] = 0
        key = tuple(e2)
        out[key] = out.get(key, Fraction(0)) + c * xi ** k
    return MPoly(p.vars, {e: c for e, c in out.items() if c})


def _lift_digits(gh: MPoly, i: int, xi: int) -> MPoly:
    """Read vars[i]-coefficients back out of an evaluation at xi using
    balanced base-xi digits."""
    out: dict = {}
    cur = {e: int(c) for e, c in gh.terms.items()}
    k = 0
    while cur:
        nxt = {}
        for e, c in cur.items():
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                e2 = list(e)
                e2[i] = k
                out[tuple(e2)] = Fraction(d)
            r = (c - d) // xi
            if r:
                nxt[e] = r
        cur = nxt
        k += 1
    return MPoly(gh.vars, out)


def _heu_gcd(p: MPoly, q: MPoly):
    """Heuristic gcd of integer-coefficient polynomials: strip integer
    content, evaluate one variable at a large integer, recurse, reconstruct
    from balanced digits.  Candidates are only accepted after exact trial
    division, so a non-None return is a true gcd over Z.  None when all
    evaluation points fail."""
    used = p.used_indices() | q.used_indices()
    if not used:
        return MPoly.const(p.vars, gcd(int(p.const_value()),
                                       int(q.const_value())))
    cont = gcd(gcd(*(int(c) for c in p.terms.values())),
               gcd(*(int(c) for c in q.terms.values())))
    pp = _primitive_scale(p)
    qq = _primitive_scale(q)
    i = max(used)
    bound = max(max(abs(c) for c in pp.terms.values()),
                max(abs(c) for c in qq.terms.values()))
    xi = 2 * int(bound) + 29
    for _ in range(6):
        ph = _eval_var_int(pp, i, xi)
        qh = _eval_var_int(qq, i, xi)
        if not (ph.is_zero() or qh.is_zero()):
            gh = _heu_gcd(ph, qh)
            if gh is not None:
                g = _primitive_scale(_lift_digits(gh, i, xi))
                if g.is_const():
                    return MPoly.const(p.vars, cont)
                if pp.try_divexact(g) is not None \
                        and qq.try_divexact(g) is not None:
                    return g.scale(cont)
        xi = xi * 73 // 32 + 31
    return None


def _content_in(p: MPoly, i: int, cont: MPoly | None = None) -> MPoly:
    """Monic gcd of cont and p's coefficients in vars[i], to the first unit."""
    cont = MPoly.zero(p.vars) if cont is None else cont
    for c in _coeff_map(p, i).values():
        if cont.is_const() and not cont.is_zero():
            break
        cont = poly_gcd(cont, c)
    return cont


_GCD_PRIMES = (2147483647, 2147483629, 2147483587)
_EVAL_SEEDS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _modp_image(p: MPoly, i: int, point: Sequence[int], prime: int):
    """Coefficient list of p as a univariate polynomial in vars[i] after
    evaluating the other variables at point, mod prime.  None when a
    coefficient denominator vanishes mod prime."""
    out: dict = {}
    for exp, c in p.terms.items():
        if c.denominator % prime == 0:
            return None
        v = c.numerator % prime * pow(c.denominator, -1, prime) % prime
        for j, e in enumerate(exp):
            if j != i and e:
                v = v * pow(point[j], e, prime) % prime
        d = exp[i]
        out[d] = (out.get(d, 0) + v) % prime
    deg = max((d for d, v in out.items() if v), default=-1)
    if deg < 0:
        return []
    return [out.get(k, 0) for k in range(deg + 1)]


def _modp_gcd_degree(a, b, prime: int) -> int:
    while b:
        inv = pow(b[-1], -1, prime)
        b = [c * inv % prime for c in b]
        while len(a) >= len(b):
            lead = a[-1]
            off = len(a) - len(b)
            a = [(c - lead * b[k - off] if k >= off else c) % prime
                 for k, c in enumerate(a[:-1])]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _proven_coprime_in(p: MPoly, q: MPoly, i: int) -> bool:
    """True when a modular image proves deg_i(gcd(p, q)) = 0.

    Sound one-sided test: if the evaluation keeps both leading coefficients
    in vars[i] nonzero mod prime, the image of the true gcd keeps its full
    degree in vars[i], so a constant univariate gcd certifies the claim."""
    dp, dq = p.degree_in(i), q.degree_in(i)
    for shift, prime in enumerate(_GCD_PRIMES):
        point = [s + 31 * shift for s in _EVAL_SEEDS[:len(p.vars)]]
        a = _modp_image(p, i, point, prime)
        b = _modp_image(q, i, point, prime)
        if a is None or b is None:
            continue
        if len(a) - 1 != dp or len(b) - 1 != dq:
            continue
        return _modp_gcd_degree(a, b, prime) == 0
    return False


def _monomial_gcd(m: MPoly, q: MPoly) -> MPoly:
    exp = next(iter(m.terms))
    out = list(exp)
    for e in q.terms:
        out = [min(a, b) for a, b in zip(out, e)]
    return MPoly(m.vars, {tuple(out): Fraction(1)})


def poly_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Monic gcd, tried in order: equal up to a scalar, monomial, one side
    free of the main variable, modular coprimality proof, GCDHEU, PRS."""
    if p.vars != q.vars:
        raise VariableMismatch(f"{p.vars!r} vs {q.vars!r}")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.terms.keys() == q.terms.keys() and (m := p.monic()) == q.monic():
        return m
    if len(p.terms) == 1:
        return _monomial_gcd(p, q)
    if len(q.terms) == 1:
        return _monomial_gcd(q, p)
    used = p.used_indices() | q.used_indices()
    if not used:
        return MPoly.const(p.vars, 1)
    i = max(used)
    if p.degree_in(i) == 0 or q.degree_in(i) == 0:
        # One side is free of the main variable: gcd divides its content.
        if p.degree_in(i) == 0:
            return _content_in(q, i, p)
        return _content_in(p, i, q)
    if _proven_coprime_in(p, q, i):
        # gcd is free of the main variable, hence divides both contents
        return _content_in(q, i, _content_in(p, i))
    g = _heu_gcd(_primitive_scale(p), _primitive_scale(q))
    if g is not None:
        return g.monic()
    cont_p = _content_in(p, i)
    cont_q = _content_in(q, i)
    g_cont = poly_gcd(cont_p, cont_q)
    a = _primitive_scale(p.try_divexact(cont_p))
    b = _primitive_scale(q.try_divexact(cont_q))
    if a.degree_in(i) < b.degree_in(i):
        a, b = b, a
    while not b.is_zero():
        r = _prem(a, b, i)
        a = b
        if r.is_zero():
            b = r
        else:
            b = _primitive_scale(r.try_divexact(_content_in(r, i)))
    if a.degree_in(i) > 0:
        a = a.try_divexact(_content_in(a, i))
    return (g_cont * a).monic()


def poly_lcm(p: MPoly, q: MPoly) -> MPoly:
    if p.is_zero() or q.is_zero():
        return MPoly.zero(p.vars)
    g = poly_gcd(p, q)
    return (p * q.try_divexact(g)).monic()


class RatFun:
    """Reduced rational function num/den over a fixed variable list.

    Canonical form: gcd(num, den) = 1, den deglex-monic, zero is 0/1.
    Unique per function, so == is a semantic equality test.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly, _canonical: bool = False):
        if num.vars != den.vars:
            raise VariableMismatch(f"{num.vars!r} vs {den.vars!r}")
        if den.is_zero():
            raise ZeroDenominator("denominator is zero")
        if not _canonical:
            if num.is_zero():
                den = MPoly.const(num.vars, 1)
            else:
                g = poly_gcd(num, den)
                if not (g.is_const() and g.const_value() == 1):
                    num = num.try_divexact(g)
                    den = den.try_divexact(g)
                lc = den.leading_coeff()
                if lc != 1:
                    num = num.scale(1 / lc)
                    den = den.scale(1 / lc)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "RatFun":
        variables = tuple(variables)
        return cls(MPoly.const(variables, value),
                   MPoly.const(variables, 1), _canonical=True)

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "RatFun":
        variables = tuple(variables)
        return cls(MPoly.var(variables, name),
                   MPoly.const(variables, 1), _canonical=True)

    @classmethod
    def from_poly(cls, p: MPoly) -> "RatFun":
        return cls(p, MPoly.const(p.vars, 1), _canonical=True)

    @property
    def vars(self):
        return self.num.vars

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Rat:
        if not self.is_const():
            raise ValueError("not a constant")
        if self.is_zero():
            return Fraction(0)
        return self.num.const_value() / self.den.const_value()

    def is_poly(self) -> bool:
        return self.den.is_const()

    def used_vars(self) -> set:
        return self.num.used_vars() | self.den.used_vars()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "RatFun") -> "RatFun":
        # both operands reduced, so only the denominator gcd can cancel
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
            if num.is_zero():
                return RatFun.const(self.vars, 0)
            return RatFun(num, den, _canonical=True)
        r = other.den.try_divexact(g)
        num = self.num * r + other.num * self.den.try_divexact(g)
        den = self.den * r
        if num.is_zero():
            return RatFun.const(self.vars, 0)
        g2 = poly_gcd(num, g)
        if not g2.is_const():
            num = num.try_divexact(g2)
            den = den.try_divexact(g2)
        return RatFun(num, den, _canonical=True)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den, _canonical=True)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-other)

    def __mul__(self, other: "RatFun") -> "RatFun":
        if self.is_zero() or other.is_zero():
            return RatFun.const(self.vars, 0)
        return RatFun._reduced_product(self.num, self.den,
                                       other.num, other.den)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero():
            raise DivisionByZero("division by the zero function")
        if self.is_zero():
            return RatFun.const(self.vars, 0)
        return RatFun._reduced_product(self.num, self.den,
                                       other.den, other.num)

    @staticmethod
    def _reduced_product(n1: MPoly, d1: MPoly,
                         n2: MPoly, d2: MPoly) -> "RatFun":
        # cross-cancel reduced pairs; the result is then reduced as well
        g = poly_gcd(n1, d2)
        if not g.is_const():
            n1 = n1.try_divexact(g)
            d2 = d2.try_divexact(g)
        g = poly_gcd(n2, d1)
        if not g.is_const():
            n2 = n2.try_divexact(g)
            d1 = d1.try_divexact(g)
        num = n1 * n2
        den = d1 * d2
        lc = den.leading_coeff()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        return RatFun(num, den, _canonical=True)

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RatFun(self.den ** (-k), self.num ** (-k))
        return RatFun(self.num ** k, self.den ** k)

    def scale(self, c) -> "RatFun":
        return RatFun(self.num.scale(c), self.den, _canonical=False)

    def eval_rat(self, point: Mapping[str, Rat]) -> Rat:
        d = self.den.eval_rat(point)
        if d == 0:
            raise ZeroDenominator(f"denominator vanishes at {point!r}")
        return self.num.eval_rat(point) / d

    def substitute(self, mapping: Mapping[str, "RatFun"],
                   target_vars: Sequence[str]) -> "RatFun":
        n = self.num.substitute(mapping, target_vars)
        d = self.den.substitute(mapping, target_vars)
        return n / d

    def extend_vars(self, variables: Sequence[str]) -> "RatFun":
        """Reinterpret over a superset variable list."""
        variables = tuple(variables)
        idx = [variables.index(v) for v in self.vars]

        def lift(p: MPoly) -> MPoly:
            out = {}
            for e, c in p.terms.items():
                e2 = [0] * len(variables)
                for j, k in zip(idx, e):
                    e2[j] = k
                out[tuple(e2)] = c
            return MPoly(variables, out)

        return RatFun(lift(self.num), lift(self.den), _canonical=True)

    # -- dunder plumbing -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFun) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        from .parser import format_ratfun
        return f"RatFun({format_ratfun(self)!r})"
