"""Differential towers Q(z) = F, F(zeta1), ..., F(zeta1..zetat).

A tower is declared: each generator comes with the derivative it is asserted
to have, and validation checks the refutable part of the declaration (prefix
closure, known symbols).  The derivation extends to arbitrary rational
functions over the tower by the chain rule

    D(u) = du/dz + sum_i du/dzeta_i * zeta_i'

together with the quotient rule, and maps the tower's function field into
itself.  It is computed cleared (Bronstein 2005, ch. 3): with L the monic
lcm of the derivatives' denominators and images[i] = L*D(x_i), the map
cleared: p -> L*D(p) is ratfun.cleared_derivation's integer map (shift 0),
built once and wrapped in one MPoly per call, and
D(n/d) = (L*D(n)*d - n*L*D(d)) / (L*d^2) is reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DuplicateName, ForwardReference, InvalidTowerConstant,
                     UnknownSymbol, VariableMismatch)
from .ratfun import MPoly, RatFun, clear_denominators, cleared_derivation

BASE_VAR = "z"
_VALIDATED = object()


class Tower:
    """Validated tower; immutable.  Construct via tower_from_pairs."""

    def __init__(self, names, derivatives, _token=None):
        if _token is not _VALIDATED:
            raise TypeError("construct towers via tower_from_pairs()")
        self.gen_names = tuple(names)
        self.vars = (BASE_VAR,) + self.gen_names
        # derivative table indexed like self.vars; z first with D(z) = 1
        self.derivatives = (RatFun.const(self.vars, 1),) + tuple(derivatives)
        self.lcm, self.images = clear_denominators(self.derivatives)
        self._derive, self._scale = cleared_derivation(
            self.images, MPoly.zero(self.vars))

    def gen(self, name: str) -> RatFun:
        if name not in self.vars:
            raise UnknownSymbol(name)
        return RatFun.var(self.vars, name)

    def deriv_of(self, name: str) -> RatFun:
        return self.derivatives[self.vars.index(name)]

    def is_flat(self) -> bool:
        """Every generator derivative lies in the base field Q(z)."""
        return all(d.used_vars() <= {BASE_VAR} for d in self.derivatives[1:])

    # -- the derivation ---------------------------------------------------

    def cleared(self, p: MPoly) -> MPoly:
        """L*D(p) for a polynomial p over the tower's variables."""
        if p.vars != self.vars:
            raise VariableMismatch(f"{p.vars!r} vs {self.vars!r}")
        return MPoly._over(self.vars, self._derive(p.ints),
                           self._scale * p.den)

    def differentiate(self, u: RatFun) -> RatFun:
        n, d = u.num, u.den
        dn = self.cleared(n)
        if d.is_const():
            return RatFun(dn, self.lcm)
        return RatFun(dn * d - n * self.cleared(d), self.lcm * d * d)

    def nth_derivative(self, u: RatFun, n: int) -> RatFun:
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        for _ in range(n):
            u = self.differentiate(u)
        return u

    def is_constant(self, u: RatFun) -> bool:
        """True iff D(u) = 0 and u is a rational literal.

        D(u) = 0 for a non-literal u means the declared tower admits a new
        constant and therefore cannot sit inside a no-new-constants
        extension; that is reported as InvalidTowerConstant rather than
        answered.
        """
        if not self.differentiate(u).is_zero():
            return False
        if u.is_const():
            return True
        raise InvalidTowerConstant(
            f"D(u) = 0 but u involves generators: {u!r}")

    def __repr__(self):
        gens = ", ".join(self.gen_names)
        return f"Tower(z, {gens})" if gens else "Tower(z)"


def tower_from_pairs(pairs) -> Tower:
    """Check prefix closure of the declared (name, derivative RatFun) pairs
    and build the tower.

    The base variable z with D(z) = 1 is implicit.  Each derivative is over
    the full variable list (z, gen1, ..., gent) and may use only z and
    strictly earlier generators.  Raises DuplicateName, UnknownSymbol
    (derivative over undeclared symbols) or ForwardReference (derivative
    mentioning the generator itself or a later one).
    """
    pairs = tuple(pairs)
    names = tuple(name for name, _ in pairs)
    all_vars = (BASE_VAR,) + names
    for i, (name, deriv) in enumerate(pairs):
        if name == BASE_VAR or name in names[:i]:
            raise DuplicateName(name)
        if not name.isidentifier():
            raise UnknownSymbol(f"bad generator name {name!r}")
        if deriv.vars != all_vars:
            raise UnknownSymbol(
                f"derivative of {name} is over {deriv.vars!r}, "
                f"expected {all_vars!r}")
        late = deriv.used_vars() - {BASE_VAR, *names[:i]}
        if late:
            raise ForwardReference(
                f"derivative of {name} references {sorted(late)}")
    return Tower(names, (d for _, d in pairs), _token=_VALIDATED)


@dataclass(frozen=True)
class SubfieldSpec:
    """Differential generators g_1..g_s of K = F<g_1,...,g_s> over a tower."""

    generators: tuple  # tuple[RatFun, ...]


def base_subfield(tower: Tower) -> SubfieldSpec:
    """K = Q(z), the base field as a subfield spec."""
    return SubfieldSpec(generators=(tower.gen(BASE_VAR),))
