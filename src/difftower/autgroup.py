"""Differential automorphisms of antiderivative towers.

A map is determined by its images of z and the generators; the differential
property sigma(y)' = sigma(y') then needs checking on those images only.
For flat towers the verified maps are exactly the translations
sigma_alpha(zeta_i) = zeta_i + alpha_i, which form a group isomorphic to
(Q^t, +).  On iterated towers the module verifies declared affine-triangular
actions sigma(eta_i) = delta_i eta_i + r_i rather than computing a
triangularizing basis, which would need an algebraically closed constant
field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import NotDifferential, NotFlat, NotTriangular
from .randexpr import random_ratfun
from .ratfun import RatFun, linear_part
from .tower import BASE_VAR, Tower


@dataclass(frozen=True)
class AutMap:
    """Differential automorphism given by its images of the tower variables.

    verified means sigma(v)' = sigma(v') was checked symbolically for every
    variable.  alpha is set for translation maps only.
    """

    tower: Tower
    assignments: Tuple[RatFun, ...]   # indexed like tower.vars, z first
    verified: bool = False
    alpha: Optional[Tuple[Fraction, ...]] = None

    def image_of(self, name: str) -> RatFun:
        return self.assignments[self.tower.vars.index(name)]

    def _mapping(self) -> Dict[str, RatFun]:
        return dict(zip(self.tower.vars, self.assignments))


@dataclass(frozen=True)
class TriangularData:
    """Per-variable affine data sigma(v_i) = delta_i v_i + r_i, with r_i over
    the strictly earlier variables; index 0 is z."""

    deltas: Tuple[Fraction, ...]
    shifts: Tuple[RatFun, ...]


def make_translation_aut(tower: Tower, alpha: Sequence[Fraction]) -> AutMap:
    """sigma(zeta_i) = zeta_i + alpha_i, sigma(z) = z.  Differential by
    construction on a flat tower: the generator derivatives live in Q(z),
    which every translation fixes pointwise."""
    if not tower.is_flat():
        raise NotFlat("translations are automorphisms of flat towers only")
    alpha = tuple(Fraction(a) for a in alpha)
    if len(alpha) != len(tower.gen_names):
        raise ValueError("one alpha per generator required")
    assignments = [tower.gen(BASE_VAR)]
    for name, a in zip(tower.gen_names, alpha):
        assignments.append(tower.gen(name) + RatFun.const(tower.vars, a))
    return AutMap(tower=tower, assignments=tuple(assignments),
                  verified=True, alpha=alpha)


def apply(sigma: AutMap, u: RatFun) -> RatFun:
    """Extend sigma to the whole function field by substitution."""
    return u.substitute(sigma._mapping(), sigma.tower.vars)


def verify_differential(assignments: Sequence[RatFun], tower: Tower,
                        samples: int = 25, seed: int = 0) -> AutMap:
    """Check sigma(v)' = sigma(v') for every tower variable; the map is
    determined by those images, so this is sufficient.  Random composite
    expressions are spot-checked on top as a tripwire."""
    assignments = tuple(assignments)
    if len(assignments) != len(tower.vars):
        raise ValueError("one assignment per tower variable (z first)")
    sigma = AutMap(tower=tower, assignments=assignments)
    for name, image, deriv in zip(tower.vars, assignments, tower.derivatives):
        lhs = tower.differentiate(image)
        rhs = apply(sigma, deriv)
        if lhs != rhs:
            raise NotDifferential(
                f"on {name}: D(sigma({name})) - sigma(D({name})) = {lhs - rhs!r}")
    rng = random.Random(seed)
    for _ in range(samples):
        u = random_ratfun(rng, tower.vars, max_deg=2)
        if tower.differentiate(apply(sigma, u)) != apply(sigma, tower.differentiate(u)):
            raise NotDifferential(f"spot check failed on {u!r}")
    return AutMap(tower=tower, assignments=assignments,
                  verified=True, alpha=sigma.alpha)


def compose(a: AutMap, b: AutMap) -> AutMap:
    """(a o b)(v) = a(b(v)).  Translation data adds.  ValueError unless the
    towers have the same derivatives, on which verified depends."""
    if a.tower is not b.tower and a.tower.derivatives != b.tower.derivatives:
        raise ValueError("automorphisms over different towers")
    assignments = tuple(apply(a, img) for img in b.assignments)
    alpha = None
    if a.alpha is not None and b.alpha is not None:
        alpha = tuple(x + y for x, y in zip(a.alpha, b.alpha))
    return AutMap(tower=a.tower, assignments=assignments,
                  verified=a.verified and b.verified, alpha=alpha)


def verify_triangular(sigma: AutMap, tower: Tower) -> TriangularData:
    """Read off sigma(v_i) = delta_i v_i + r_i and check that each shift r_i
    lies over the strictly earlier variables."""
    deltas = []
    shifts = []
    for i, name in enumerate(tower.vars):
        lin = linear_part(sigma.assignments[i], [name])
        if lin is None:
            raise NotTriangular(f"sigma({name}) is not affine in {name}")
        (delta,), shift = lin
        if delta == 0:
            raise NotTriangular(f"sigma({name}) drops {name}; not invertible")
        earlier = set(tower.vars[:i])
        if not shift.used_vars() <= earlier:
            raise NotTriangular(
                f"shift of {name} uses later variables: {shift!r}")
        deltas.append(delta)
        shifts.append(shift)
    return TriangularData(deltas=tuple(deltas), shifts=tuple(shifts))


def invert(sigma: AutMap) -> AutMap:
    """Inverse of an affine-triangular map by back-substitution in
    declaration order: tau(v_i) = (v_i - r_i(tau(earlier))) / delta_i."""
    tower = sigma.tower
    data = verify_triangular(sigma, tower)
    inverse: Dict[str, RatFun] = {}
    images = []
    for i, name in enumerate(tower.vars):
        shifted = data.shifts[i].substitute(inverse, tower.vars)
        image = (tower.gen(name) - shifted).scale(1 / data.deltas[i])
        inverse[name] = image
        images.append(image)
    alpha = None
    if sigma.alpha is not None:
        alpha = tuple(-a for a in sigma.alpha)
    return AutMap(tower=tower, assignments=tuple(images),
                  verified=sigma.verified, alpha=alpha)


def fixed_field_probe(sigmas: Sequence[AutMap], u: RatFun) -> bool:
    """True iff every listed automorphism fixes u exactly."""
    return all(apply(s, u) == u for s in sigmas)
