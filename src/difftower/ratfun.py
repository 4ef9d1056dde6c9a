"""Exact multivariate polynomial and rational-function arithmetic over Q.

Every value is immutable after construction and kept in a canonical form:
polynomials store no zero coefficients, fractions are reduced and the
denominator is deglex-monic.  Equality is structural equality of canonical
forms, so two values compare equal exactly when they denote the same
function.  Every cancellation goes through poly_gcd, which returns
(g, p/g, q/g); GCDHEU reads p/g and q/g off its accepted trial divisions.

GCDHEU (Char, Geddes & Gonnet, 1989) evaluates one variable per level, so
each level's integers are larger than the last.  Where the images left
have one variable and the point is above the prime _P = 2**30 - 35, Euclid
over GF(_P) may first prove them coprime over Q (Brown, 1971): a common
factor of positive degree keeps its degree mod _P when _P does not divide
the leading coefficient, so gcd 1 mod _P rules it out.  Their gcd over Z is
then the gcd of their coefficients, and no larger point is evaluated; any
other outcome takes the evaluation level as before.

A polynomial is stored as integer numerators over one denominator, unique
per polynomial.  Every kernel (sums, products, division, GCDHEU,
substitution, the cleared derivation) runs on those integers and builds no
Fraction; one appears only where a caller reads a coefficient (terms,
leading_coeff, const_value, eval_rat).  One product kernel, _product,
serves MPoly products, substitution and ansatz's membership columns; one
fraction-free lead division, _divide_lead, serves exact quotients and
divmod_lead; one derivation loop, cleared_derivation, maps an integer map
to the integer map of its image over one denominator, for
Tower.differentiate and ansatz's ODE columns.  common_ints puts ansatz's
other polynomial columns on one scale as integers.

Each exponent (e0, ..., e_{n-1}) is stored as one packed integer key,
deg << n*S | e0 << (n-1)*S | ... | e_{n-1}, with deg = sum(e) and S = W + 1
bits per field: W bits of exponent and a guard bit above them, 0 in every
stored key (Monagan & Pearce, CASC 2007).  Integer order on keys is deglex
order, the key of a product is the sum of the keys, and with G the guard
bits, ((a | G) - b) & G == G exactly when monomial b divides monomial a.  A
total degree of 2**W or more would spill into the next field, so the
constructors, products (shift_var is one) and powers raise ExponentOverflow
first.  The public surface (the constructor, terms, sorted_terms,
leading_exp, degree_in, coeff_in, shift_var) speaks exponent tuples and
indices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate
from math import gcd, lcm
from operator import or_
from typing import Mapping, Sequence

from .errors import (DivisionByZero, ExponentOverflow, VariableMismatch,
                     ZeroDenominator)

Rat = Fraction

_W = 32                  # bits of one exponent field
_S = _W + 1              # a field and its guard bit
_MASK = (1 << _W) - 1
_LIMIT = 1 << _W         # every total degree stays below this


def degree_fits(deg: int) -> bool:   # whether keys hold this total degree
    return deg < _LIMIT


def _overflow(deg: int) -> ExponentOverflow:
    return ExponentOverflow(
        f"total degree {deg} does not fit {_W}-bit exponent fields")


def _pack(exp: Sequence[int], variables: tuple) -> int:
    """The key of an exponent sequence over variables."""
    if len(exp) != len(variables):
        raise VariableMismatch(
            f"exponent {exp!r} has wrong length for variables {variables!r}")
    key = deg = 0
    for k in exp:
        if k < 0:
            raise ExponentOverflow(f"negative exponent in {exp!r}")
        key = key << _S | k
        deg += k
    if deg >= _LIMIT:
        raise _overflow(deg)
    return deg << len(exp) * _S | key


def monomial_keys(variables: Sequence[str], exps) -> list:
    """The packed keys of the exponent tuples exps over variables, in
    order: the keys of integer maps, without building a polynomial."""
    variables = tuple(variables)
    return [_pack(e, variables) for e in exps]


def _unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a key over n variables."""
    return tuple(key >> sh & _MASK for sh in range((n - 1) * _S, -1, -_S))


def _unit(n: int, i: int):
    """(sh, x): the bit offset of the field of vars[i] and the key of
    vars[i] itself; subtracting k*x from a key with e_i = k zeroes e_i."""
    sh = (n - 1 - i) * _S
    return sh, 1 << n * _S | 1 << sh


def _guards(key: int) -> int:
    """The guard bits of every field that holds a bit of key (and maybe
    of one field above): enough to test whether key divides another."""
    fields = key.bit_length() // _S + 1
    return ((1 << fields * _S) - 1) // ((1 << _S) - 1) << _W


class MPoly:
    """Sparse multivariate polynomial over Q with a fixed variable list.

    Stored as ints / den: ints maps packed exponent keys (see the module
    docstring) to nonzero integers, and den > 0 with gcd(den, *ints) = 1 is
    the least common denominator of the coefficients; terms is the
    {exponent tuple: Fraction} view.  The deglex order (total degree first,
    then lexicographic in declared variable order), which is integer order
    on keys, fixes the leading term used for monic normalization.
    """

    __slots__ = ("vars", "ints", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Rat]):
        self.vars = tuple(variables)
        clean = {}
        for exp, coeff in terms.items():
            key = _pack(exp, self.vars)
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[key] = c
        # the least common denominator of reduced Fractions is coprime to
        # the numerators it gives, so no gcd is needed here
        d = lcm(*(c.denominator for c in clean.values()))
        self.ints = {e: c.numerator * (d // c.denominator)
                     for e, c in clean.items()}
        self.den = d

    @classmethod
    def _over(cls, variables: tuple, ints: dict, d: int = 1) -> "MPoly":
        """ints / d in the stored form, by one gcd: ints holds nonzero
        integers under keys over variables, d is a nonzero integer, and
        ints may be kept, so the caller must not change it."""
        g = gcd(d, *ints.values())
        if d < 0:
            g = -g
        p = object.__new__(cls)
        p.vars = variables
        p.ints = ints if g == 1 else {e: c // g for e, c in ints.items()}
        p.den = d // g
        return p

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction coefficient}, a fresh dict on each
        read."""
        n = len(self.vars)
        return {_unpack(e, n): Fraction(c, self.den)
                for e, c in self.ints.items()}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MPoly":
        return cls._over(tuple(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MPoly":
        c = Fraction(value)
        return cls._over(tuple(variables), {0: c.numerator} if c else {},
                         c.denominator)

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MPoly":
        variables = tuple(variables)
        return cls._over(variables,
                         {_unit(len(variables), variables.index(name))[1]: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exp: Sequence[int]) -> "MPoly":
        """The monomial with exponent tuple exp and coefficient 1."""
        p = object.__new__(cls)
        p.vars = variables = tuple(variables)
        p.ints, p.den = {_pack(exp, variables): 1}, 1
        return p

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def is_const(self) -> bool:
        return not any(self.ints)

    def const_value(self) -> Rat:
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return Fraction(self.ints[0], self.den)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(self.ints) >> len(self.vars) * _S

    def degree_in(self, i: int) -> int:
        if self.is_zero():
            return -1
        sh = _unit(len(self.vars), i)[0]
        return max(e >> sh & _MASK for e in self.ints)

    def used_indices(self) -> set:
        used = reduce(or_, self.ints, 0)
        n = len(self.vars)
        return {i for i in range(n) if used >> (n - 1 - i) * _S & _MASK}

    def used_vars(self) -> set:
        return {self.vars[i] for i in self.used_indices()}

    # -- term access ----------------------------------------------------

    def leading_exp(self) -> tuple:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return _unpack(max(self.ints), len(self.vars))

    def leading_coeff(self) -> Rat:
        return Fraction(self.ints[max(self.ints)], self.den)

    def coeff_in(self, i: int, k: int) -> "MPoly":
        """Coefficient of vars[i]**k, as a polynomial with exponent 0 at i."""
        sh, x = _unit(len(self.vars), i)
        kx = k * x
        out = {e - kx: c for e, c in self.ints.items() if e >> sh & _MASK == k}
        return MPoly._over(self.vars, out, self.den)

    def sorted_terms(self):
        """Terms in descending deglex order."""
        n = len(self.vars)
        return [(_unpack(e, n), Fraction(c, self.den))
                for e, c in sorted(self.ints.items(), reverse=True)]

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars!r} vs {other.vars!r}")

    def __add__(self, other: "MPoly") -> "MPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self._plus(other, -1)

    def _plus(self, other: "MPoly", sign: int) -> "MPoly":
        """self + sign*other, term by term over the lcm of the two
        denominators."""
        self._check(other)
        d1, d2 = self.den, other.den
        d = lcm(d1, d2)
        k1, k2 = d // d1, sign * (d // d2)
        out = (dict(self.ints) if k1 == 1
               else {e: c * k1 for e, c in self.ints.items()})
        for e, c in other.ints.items():
            # a new key gets c*k2 != 0; only a sum can vanish
            c = out.get(e, 0) + c * k2
            if c:
                out[e] = c
            else:
                del out[e]
        return MPoly._over(self.vars, out, d)

    def __neg__(self) -> "MPoly":
        return MPoly._over(self.vars, {e: -c for e, c in self.ints.items()},
                           self.den)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = _product(self.ints, other.ints, len(self.vars))
        return MPoly._over(self.vars, out, self.den * other.den)

    def scale(self, c) -> "MPoly":
        c = Fraction(c)
        if c == 0:
            return MPoly.zero(self.vars)
        return MPoly._over(self.vars, _times(self.ints, c.numerator),
                           self.den * c.denominator)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k and self.ints and k * self.total_degree() >= _LIMIT:
            raise _overflow(k * self.total_degree())
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
        # (ints/den) / (lead/den) = ints / lead
        return MPoly._over(self.vars, self.ints, self.ints[max(self.ints)])

    def shift_var(self, i: int, k: int) -> "MPoly":
        """Multiply by vars[i]**k, k >= 0."""
        if k < 0:
            raise ValueError("negative shift of a polynomial")
        return self * MPoly._over(self.vars,
                                  {k * _unit(len(self.vars), i)[1]: 1})

    # -- calculus-flavoured helpers --------------------------------------

    def partial(self, i: int) -> "MPoly":
        """Formal partial derivative with respect to vars[i]."""
        sh, x = _unit(len(self.vars), i)
        out = {}
        for e, c in self.ints.items():
            k = e >> sh & _MASK
            if k:
                # lowering one exponent maps distinct terms to distinct terms
                out[e - x] = c * k
        return MPoly._over(self.vars, out, self.den)

    def eval_rat(self, point: Mapping[str, Rat]) -> Rat:
        """The value at a rational point, summed over integers: with
        x = p/q and top the degree in x, a term c*x^k times q^top is
        c*p^k*q^(top-k), each such power built once, and one Fraction
        divides the sum by den and every q^top."""
        n = len(self.vars)
        scale = self.den
        tables = []   # (sh, {k: p^k * q^(top-k)})
        for i in self.used_indices():
            x = Fraction(point[self.vars[i]])
            p, q = x.numerator, x.denominator
            sh = _unit(n, i)[0]
            ks = {e >> sh & _MASK for e in self.ints}
            top = max(ks)
            scale *= q ** top
            tables.append((sh, {k: p ** k * q ** (top - k) for k in ks}))
        total = 0
        for e, c in self.ints.items():
            for sh, table in tables:
                c *= table[e >> sh & _MASK]
            total += c
        return Fraction(total, scale)

    # -- exact division and gcd ------------------------------------------

    def try_divexact(self, other: "MPoly"):
        """Return self/other when other divides self exactly, else None."""
        self._check(other)
        if other.is_zero():
            return None
        cont, b = _primitive(other.ints)
        got = _divide_lead(self.ints, b, True)
        if got is None:
            return None
        # (ints/den) / (cont*b/other.den) = quo*other.den / (den*cont)
        return MPoly._over(self.vars, _times(got[0], other.den),
                           self.den * cont)

    def divmod_lead(self, other: "MPoly"):
        """(q, r) with self = q*other + r: divide by other's deglex leading
        term while it divides the leading term of r, then stop.  For
        univariate input this is Euclidean division."""
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        quo, rem, s = _divide_lead(self.ints, other.ints, False)
        d = s * self.den
        return (MPoly._over(self.vars, _times(quo, other.den), d),
                MPoly._over(self.vars, rem, d))

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, MPoly) and self.den == other.den
                and self.vars == other.vars and self.ints == other.ints)

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.ints.items())))

    def __repr__(self):
        from .parser import format_mpoly
        return f"MPoly({format_mpoly(self)!r})"


# -- integer kernels ---------------------------------------------------------

def _divide_lead(a: dict, b: dict, exact: bool):
    """Fraction-free division of the integer polynomial a by the leading
    term of b != 0 while that divides the remainder's: (quo, rem, s) with
    s*a = quo*b + rem.  A step whose leading coefficient lc(b) does not
    divide scales quo, rem and s by lc(b)/gcd.  With exact, that step, or a
    lead that b's does not divide, returns None at once, so rem = {} and
    s = 1: for primitive b an exact quotient is integral (Gauss's lemma)."""
    quo, rem, s = {}, dict(a), 1
    le_b = max(b)
    lc_b = b[le_b]
    guard = _guards(le_b)
    b = b.items()
    while rem:
        le = max(rem)
        if ((le | guard) - le_b) & guard != guard:
            return None if exact else (quo, rem, s)
        c, r = divmod(rem[le], lc_b)
        if r:
            if exact:
                return None
            m = lc_b // gcd(rem[le], lc_b)
            s *= m
            quo = _times(quo, m)
            rem = _times(rem, m)
            c = rem[le] // lc_b
        diff = le - le_b
        # the leading terms of rem strictly fall, so each diff is new
        quo[diff] = c
        for e, v in b:
            tgt = e + diff
            nv = rem.get(tgt, 0) - c * v
            if nv:
                rem[tgt] = nv
            else:
                del rem[tgt]
    return quo, rem, s


def _product(a: dict, b: dict, n: int) -> dict:
    """The nonzero coefficients of a*b over keys in n variables, or
    ExponentOverflow first where the leading keys' degree fields, which
    bound every product's, sum past a field.  A one-term operand, swapped
    to a, shifts b's keys: no two products share a key, and none is 0."""
    if not (a and b):
        return {}
    if (deg := max(a) + max(b) >> n * _S) >= _LIMIT:
        raise _overflow(deg)
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (e1, c1), = a.items()
        return {e1 + e2: c1 * c2 for e2, c2 in b.items()}
    out: dict = {}
    b = b.items()
    for e1, c1 in a.items():
        for e2, c2 in b:
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _primitive(a: dict):
    """(c, a / c) for nonzero a, c its positive integer content; exact
    quotients scale back by c and _heu_gcd makes the gcd monic."""
    cont = gcd(*a.values())
    return cont, a if cont == 1 else {e: c // cont for e, c in a.items()}


# -- gcd ---------------------------------------------------------------------

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
    a = _primitive(p.ints)[1]   # _over moves a negative d's sign onto a
    return MPoly._over(p.vars, a, -1 if a[max(a)] < 0 else 1)


def _eval_var_int(a: dict, x: int, xi: int) -> dict:
    """a with the variable whose key is x set to the integer xi (its
    exponent becomes 0)."""
    sh = (x & -x).bit_length() - 1
    out: dict = {}
    for e, c in a.items():
        k = e >> sh & _MASK
        key = e - k * x
        out[key] = out.get(key, 0) + c * xi ** k
    return {e: c for e, c in out.items() if c}


def _lift_digits(gh: dict, x: int, xi: int) -> dict:
    """Read the coefficients in the variable whose key is x back out of an
    evaluation at xi using balanced base-xi digits."""
    out: dict = {}
    cur = gh
    kx = 0   # the key of x**k
    while cur:
        nxt = {}
        for e, c in cur.items():
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[e + kx] = d
            r = (c - d) // xi
            if r:
                nxt[e] = r
        cur = nxt
        kx += x
    return out


def _heu_gcd(p: MPoly, q: MPoly):
    """GCDHEU (Char-Geddes-Gonnet) of nonzero p and q over Q: (g, p/g, q/g)
    with g monic, or None when every evaluation point fails.  The cofactors
    are the quotients of the trial divisions that accepted g over Z."""
    got = _heu_gcd_int(p.ints, q.ints)
    if got is None:
        return None
    g, ca, cb = got
    lc = g[max(g)]
    # p = g*ca / p.den, so p / (g/lc) = ca*lc / p.den
    return (MPoly._over(p.vars, g, lc),
            MPoly._over(p.vars, _times(ca, lc), p.den),
            MPoly._over(p.vars, _times(cb, lc), q.den))


_P = 1073741789   # the largest prime below 2**30


def _coprime_mod_p(a: dict, b: dict) -> bool:
    """Whether Euclid over GF(_P) proves the nonzero integer polynomials a
    and b coprime over Q.  Tried only when they use exactly one variable
    between them; False when they do not, when _P divides lc(a), or when
    the gcd mod _P has positive degree.  Sound: a common factor g of
    positive degree over Q may be taken primitive over Z, so lc(g)
    divides lc(a), g mod _P keeps its degree and divides a and b mod _P,
    and Euclid cannot end at degree 0 (Brown, JACM 1971)."""
    used = reduce(or_, a, 0) | reduce(or_, b, 0)
    # the total degree's field is the top one; the one variable's degree
    # is then each key's top field
    top = max(used.bit_length() - 1, 0) // _S * _S
    var = used & (1 << top) - 1
    if not var or var >> ((var & -var).bit_length() - 1) // _S * _S + _S:
        return False
    u, v = _dense_mod_p(a, top), _dense_mod_p(b, top)
    if not u[-1]:
        return False
    while v and not v[-1]:
        v.pop()
    # Euclid on coefficient lists, the constant first, each with a nonzero
    # lead: u becomes u mod v, then the two swap
    while len(v) > 1:
        m = len(v) - 1
        inv = pow(v[m], -1, _P)
        for i in range(len(u) - 1, m - 1, -1):
            c = u[i] * inv % _P
            if c:
                for j in range(m):
                    u[i - m + j] = (u[i - m + j] - c * v[j]) % _P
        del u[m:]
        while u and not u[-1]:
            u.pop()
        u, v = v, u
    return len(v) == 1 or len(u) == 1


def _dense_mod_p(a: dict, top: int) -> list:
    """The coefficients mod _P of a, whose keys hold their degree from bit
    top up, the constant first."""
    out = [0] * ((max(a) >> top) + 1)
    for e, c in a.items():
        out[e >> top] = c % _P
    return out


def _heu_gcd_int(a: dict, b: dict):
    """(g, a/g, b/g) over Z for nonzero integer polynomials, or None: strip
    integer content, evaluate one variable at a large integer, recurse, lift
    balanced digits.  g is accepted only when both trial divisions are
    exact, so it is a true gcd over Z and the quotients are its cofactors.

    At a point xi above _P, images univariate in the one variable left
    have large coefficients, and the recursion would evaluate them at a
    point larger still.  There _coprime_mod_p tests them first: when it
    proves them coprime over Q, their gcd over Z is the gcd of all their
    coefficients, the value the recursion returns when it succeeds, and it
    is lifted and trial-divided the same way.  Any other outcome recurses."""
    cont_a, a = _primitive(a)
    cont_b, b = _primitive(b)
    cont = gcd(cont_a, cont_b)
    ka, kb = cont_a // cont, cont_b // cont
    used = reduce(or_, a, 0) | reduce(or_, b, 0)
    if not used:
        return {0: cont}, _times(a, ka), _times(b, kb)
    # the main variable is the last one used, whose field is the lowest
    # nonzero field of used; the top one is the total degree's
    x = (1 << (used.bit_length() - 1) // _S * _S
         | 1 << ((used & -used).bit_length() - 1) // _S * _S)
    bound = max(max(map(abs, a.values())), max(map(abs, b.values())))
    xi = 2 * bound + 29
    for _ in range(6):
        ah = _eval_var_int(a, x, xi)
        bh = _eval_var_int(b, x, xi)
        if ah and bh:
            if xi > _P and _coprime_mod_p(ah, bh):
                gh = {0: gcd(*ah.values(), *bh.values())}
            else:
                got = _heu_gcd_int(ah, bh)
                gh = got and got[0]
            if gh:
                g = _primitive(_lift_digits(gh, x, xi))[1]
                if g.keys() == {0}:
                    return {0: cont}, _times(a, ka), _times(b, kb)
                qa = _divide_lead(a, g, True)
                qb = None if qa is None else _divide_lead(b, g, True)
                if qb is not None:
                    return ({e: c * cont for e, c in g.items()},
                            _times(qa[0], ka), _times(qb[0], kb))
        xi = xi * 73 // 32 + 31
    return None


def _times(a: dict, k: int) -> dict:
    return a if k == 1 else {e: c * k for e, c in a.items()}


def _content_over(p: MPoly, kept) -> MPoly:
    """Largest divisor of p lying in the subring of the variables whose
    indices are in kept: the monic gcd of p's coefficients grouped by the
    exponents of the other variables, folded to the first unit."""
    units = [_unit(len(p.vars), i) for i in kept]
    groups: dict = {}
    for e, c in p.ints.items():
        inner = sum((e >> sh & _MASK) * x for sh, x in units)
        groups.setdefault(e - inner, {})[inner] = c
    cont = MPoly.zero(p.vars)
    for ints in groups.values():
        cont = poly_gcd(cont, MPoly._over(p.vars, ints))[0]
        if cont.is_const():
            break
    return cont


def _monomial_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Monic gcd when p or q is a monomial: least exponents over all terms."""
    n = len(p.vars)
    keys = (*p.ints, *q.ints)
    key = 0
    for sh, x in (_unit(n, i) for i in range(n)):
        key += min(e >> sh & _MASK for e in keys) * x
    return MPoly._over(p.vars, {key: 1})


def _prs_gcd(p: MPoly, q: MPoly) -> MPoly:
    """Monic gcd by the primitive PRS; p, q have two terms or more each."""
    i = max(p.used_indices() | q.used_indices())
    others = set(range(len(p.vars))) - {i}   # contents in the main variable
    cont_p = _content_over(p, others)
    cont_q = _content_over(q, others)
    g_cont = poly_gcd(cont_p, cont_q)[0]
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
            b = _primitive_scale(r.try_divexact(_content_over(r, others)))
    if a.degree_in(i) > 0:
        a = a.try_divexact(_content_over(a, others))
    return (g_cont * a).monic()


def poly_gcd(p: MPoly, q: MPoly):
    """(g, p/g, q/g) with g the monic gcd, or (0, 0, 0).  Tried in order: a
    zero operand, equal up to a scalar, a constant operand (g is 1), a
    monomial operand, GCDHEU, whose trial divisions give the cofactors,
    then the primitive PRS.  Elsewhere the cofactors are exact quotients,
    or p and q themselves when g is 1."""
    if p.vars != q.vars:
        raise VariableMismatch(f"{p.vars!r} vs {q.vars!r}")
    if p.is_zero():
        g = q.monic()
    elif q.is_zero():
        g = p.monic()
    elif p.ints.keys() == q.ints.keys() and (m := p.monic()) == q.monic():
        g = m
    elif len(p.ints) == 1 or len(q.ints) == 1:
        if p.is_const() or q.is_const():
            return MPoly._over(p.vars, {0: 1}), p, q
        g = _monomial_gcd(p, q)
    else:
        got = _heu_gcd(p, q)
        if got is not None:
            return got
        g = _prs_gcd(p, q)
    if g.is_const():
        return g, p, q
    return g, p.try_divexact(g), q.try_divexact(g)


def poly_lcm(p: MPoly, q: MPoly) -> MPoly:
    if p.is_zero() or q.is_zero():
        return MPoly.zero(p.vars)
    return (p * poly_gcd(p, q)[2]).monic()


def cleared_derivation(images: Sequence[MPoly], shift: MPoly):
    """(derive, d) for the map p -> sum_i dp/dx_i * images[i] - p*shift,
    one image per variable: L*D(p) for images[i] = L*D(x_i) and shift 0.
    Images and shift go over their one denominator d > 0 once, image i's
    keys lowered by x_i's, so derive(ints), for the integer map of a
    polynomial p, adds its keys to theirs in one dict, with no gcd, and
    returns the integer map of d*(image of p); the image of ints/den is
    derive(ints) / (d*den).  derive keeps no state between calls and
    raises ExponentOverflow before an image's total degree reaches the
    key limit.  VariableMismatch when the shift is over other variables
    than the images; the caller matches p's variables."""
    n = len(images[0].vars)
    for q in (*images, shift):
        q._check(images[0])
    d = lcm(shift.den, *(q.den for q in images))
    lowered = [(sh, [(k - x, c * (d // q.den)) for k, c in q.ints.items()])
               for i, q in enumerate(images) for sh, x in [_unit(n, i)]]
    minus = [(k, c * -(d // shift.den)) for k, c in shift.ints.items()]
    reach = max(shift.total_degree(), *(q.total_degree() - 1 for q in images))
    top = _LIMIT - reach << n * _S   # p overflows a result from key top up

    def derive(ints: dict) -> dict:
        if ints and max(ints) >= top:
            raise _overflow((max(ints) >> n * _S) + reach)
        out: dict = {}
        for e, c in ints.items():
            for k, v in minus:
                k += e
                out[k] = out.get(k, 0) + c * v
            for sh, image in lowered:
                ce = (e >> sh & _MASK) * c
                if ce:
                    for k, v in image:
                        k += e
                        out[k] = out.get(k, 0) + ce * v
        return {k: c for k, c in out.items() if c}

    return derive, d


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
                num, den = _monic_pair(*poly_gcd(num, den)[1:])
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

    def used_vars(self) -> set:
        return self.num.used_vars() | self.den.used_vars()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "RatFun") -> "RatFun":
        # both operands reduced, so only the denominator gcd can cancel; a
        # zero sum means other = -self, whose denominator is self's
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        g, s, r = poly_gcd(self.den, other.den)
        num = self.num * r + other.num * s
        if g.is_const():
            return RatFun(num, s * r, _canonical=True)
        _, num, g = poly_gcd(num, g)
        return RatFun(num, s * g * r, _canonical=True)

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
        _, n1, d2 = poly_gcd(n1, d2)
        _, n2, d1 = poly_gcd(n2, d1)
        return RatFun(*_monic_pair(n1 * n2, d1 * d2), _canonical=True)

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            # gcd(den**-k, num**-k) = 1; only num**-k's lead needs scaling
            return RatFun(*_monic_pair(self.den ** -k, self.num ** -k),
                          _canonical=True)
        # reduced, and den**k is monic as den is
        return RatFun(self.num ** k, self.den ** k, _canonical=True)

    def scale(self, c) -> "RatFun":
        # c*num/den is still reduced over the same monic denominator
        if c == 0:
            return RatFun.const(self.vars, 0)
        return RatFun(self.num.scale(c), self.den, _canonical=True)

    def substitute(self, mapping: Mapping[str, "RatFun"],
                   target_vars: Sequence[str]) -> "RatFun":
        """Simultaneous substitution; an unmapped variable must be in
        target_vars and maps to itself.  With images n_i/d_i, n_i and d_i
        integral, and D_i = max(deg_i num, deg_i den), num and den both go
        over prod d_i^D_i as sum c_e prod n_i^e_i d_i^(D_i-e_i), each term
        a chain of _product calls, then one reduction."""
        target_vars = tuple(target_vars)
        times = partial(_product, n=len(target_vars))
        tables = []   # (sh_i, [n_i^k * d_i^(D_i - k) for k = 0..D_i])
        for i, name in enumerate(self.vars):
            image = (mapping[name] if name in mapping
                     else RatFun.var(target_vars, name))
            top = max(self.num.degree_in(i), self.den.degree_in(i))
            if top > 0:
                n, d = image.num, image.den
                if n.vars != target_vars:
                    raise VariableMismatch(f"{n.vars!r} vs {target_vars!r}")
                n, d = _times(n.ints, d.den), _times(d.ints, n.den)
                n_pows = list(accumulate([n] * top, times, initial={0: 1}))
                d_pows = list(accumulate([d] * top, times, initial={0: 1}))
                tables.append((_unit(len(self.vars), i)[0],
                               list(map(times, n_pows, d_pows[::-1]))))

        def cleared(p: MPoly) -> MPoly:
            out: dict = {}
            for e, c in p.ints.items():
                term = {0: c}
                for sh, table in tables:
                    term = times(term, table[e >> sh & _MASK])
                for e2, v in term.items():
                    out[e2] = out.get(e2, 0) + v
            return MPoly._over(target_vars,
                               {e: v for e, v in out.items() if v}, p.den)

        den = cleared(self.den)
        if den.is_zero():
            raise DivisionByZero("division by the zero function")
        return RatFun(cleared(self.num), den)

    def extend_vars(self, variables: Sequence[str]) -> "RatFun":
        """Reinterpret over a superset variable list."""
        variables = tuple(variables)
        n, m = len(self.vars), len(variables)
        # (field offset of each variable, its key over variables): a sum of
        # exponent * key carries the total degree along
        moves = [(_unit(n, j)[0], _unit(m, variables.index(v))[1])
                 for j, v in enumerate(self.vars)]

        def lift(p: MPoly) -> MPoly:
            out = {sum((e >> sh & _MASK) * x for sh, x in moves): c
                   for e, c in p.ints.items()}
            return MPoly._over(variables, out, p.den)

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


def _monic_pair(num: MPoly, den: MPoly):
    """(num/lc, den/lc) for lc the leading coefficient of den."""
    lead = den.ints[max(den.ints)]
    if lead == den.den:
        return num, den
    # (n/dn) / (lead/dd) = n*dd / (dn*lead)
    return (MPoly._over(num.vars, _times(num.ints, den.den), num.den * lead),
            MPoly._over(den.vars, den.ints, lead))


def clear_denominators(exprs: Sequence[RatFun]):
    """(L, [L*e for e in exprs]): the monic lcm L of the denominators of
    exprs (nonempty) and each expression over it, as polynomials."""
    common = reduce(poly_lcm, dict.fromkeys(e.den for e in exprs))
    return common, [e.num if e.den == common
                    else e.num * common.try_divexact(e.den) for e in exprs]


def common_ints(polys: Sequence[MPoly]) -> list:
    """{key: c*d/den} for each of polys, {key: c}/den, with d the lcm of
    their denominators: all on one positive scale.  A polynomial over d
    gives its own ints, which the caller must not change."""
    d = lcm(*(p.den for p in polys))
    return [_times(p.ints, d // p.den) for p in polys]


def linear_part(u: RatFun, names: Sequence[str]):
    """Split u as sum(c_v * v for v in names) + rest with rational c_v and
    rest free of names; None when there is no such split.  Read off the
    canonical form n/d: the split exists exactly when d involves no name
    and n = sum(c_v * v * d) + n0 with n0 free of names, and then
    rest = n0/d is already canonical, as gcd(n0, d) = gcd(n, d) = 1."""
    n, d = u.num, u.den
    keys = {}   # the lowest bit of the field of a name -> the name's key
    for v in names:
        sh, x = _unit(len(u.vars), u.vars.index(v))
        keys[1 << sh] = x
    fields = sum(_MASK * bit for bit in keys)   # the fields of the names
    if any(e & fields for e in d.ints):
        return None
    parts = {bit: {} for bit in keys}   # the terms linear in a name, / it
    rest = {}
    for e, c in n.ints.items():
        named = e & fields
        if not named:
            rest[e] = c
        elif named in keys:
            parts[named][e - keys[named]] = c
        else:   # a power or a product of names
            return None
    lead = max(d.ints)   # d is monic: c_v is the coefficient there
    coeffs = [Fraction(part.get(lead, 0), n.den) for part in parts.values()]
    if any(MPoly._over(u.vars, part, n.den) != d.scale(c)
           for part, c in zip(parts.values(), coeffs)):
        return None
    return coeffs, RatFun(MPoly._over(u.vars, rest, n.den), d,
                          _canonical=True)
