"""Abelian number fields as subgroups of (Z/MZ)^x.

A field E of conductor f is the fixed field, inside the f-th cyclotomic
field, of a subgroup H of the unit group; the dictionary makes degree,
prime splitting, compositum and prime-degree towers exactly computable
through congruence arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .characters import (UnitGroup, _join, closure, factorize, is_prime,
                         unit_group)
from .cyclotomic import divisors
from .pnt import sieve_primes


class AbelianField:
    """An abelian extension of Q, cut out by a subgroup of (Z/MZ)^x."""

    __slots__ = ("ambient", "subgroup", "degree", "conductor", "_prim_subgroup")

    def __init__(self, ambient: UnitGroup, subgroup: frozenset[int]):
        subgroup = frozenset(u % ambient.modulus for u in subgroup)
        if closure(ambient, subgroup) != subgroup | {1 % ambient.modulus}:
            raise ValueError("subgroup data is not closed under multiplication")
        self.ambient = ambient
        self.subgroup = subgroup | {1 % ambient.modulus}
        self.degree = ambient.order // len(self.subgroup)
        cond = ambient.modulus
        for f in divisors(ambient.modulus):
            kernel_in_h = all(u in self.subgroup
                              for u in ambient.units if u % f == 1 % f)
            if kernel_in_h:
                cond = f
                break
        self.conductor = cond
        self._prim_subgroup = None

    @property
    def modulus(self) -> int:
        return self.ambient.modulus

    def primitive_subgroup(self) -> frozenset[int]:
        """Image of H at the conductor level; canonical identity for E."""
        if self._prim_subgroup is None:
            f = self.conductor
            self._prim_subgroup = frozenset(u % f for u in self.subgroup)
        return self._prim_subgroup

    @property
    def key(self) -> tuple:
        return (self.conductor, tuple(sorted(self.primitive_subgroup())))

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianField) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (f"AbelianField(degree {self.degree}, conductor {self.conductor}, "
                f"mod {self.modulus})")

    def lift_to(self, target: UnitGroup) -> "AbelianField":
        if target.modulus == self.modulus:
            return self
        if target.modulus % self.modulus != 0:
            raise ValueError(
                f"cannot lift field mod {self.modulus} to modulus {target.modulus}"
            )
        lifted = frozenset(u for u in target.units
                           if u % self.modulus in self.subgroup)
        return AbelianField(target, lifted)

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "subgroup": sorted(self.subgroup),
            "degree": self.degree,
            "conductor": self.conductor,
        }


@dataclass(frozen=True)
class SplittingData:
    p: int
    f_p: int       # residue degree of primes above p
    g_p: int       # number of primes above p
    ramified: bool


def make_field(modulus: int, gens) -> AbelianField:
    """Field with Galois group (Z/MZ)^x / <gens>."""
    group = unit_group(modulus)
    return AbelianField(group, closure(group, gens))


def rationals() -> AbelianField:
    return make_field(1, [])


def splitting_data(field: AbelianField, p: int) -> SplittingData:
    """Residue degree and prime count of p in E, from congruence data."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _splitting(field, p)


def _splitting(field: AbelianField, p: int) -> SplittingData:
    f_cond = field.conductor
    if f_cond % p == 0:
        # Ramified: split off the p-part of the conductor and read the
        # splitting of the maximal subextension unramified at p.
        cond_away = f_cond
        while cond_away % p == 0:
            cond_away //= p
        g_away = unit_group(cond_away)
        h_away = closure(g_away, [u % cond_away
                                  for u in field.primitive_subgroup()
                                  if g_away.is_unit(u % cond_away)])
        f_p = order_mod_subgroup(cond_away, h_away, p)
        g_p = g_away.order // len(h_away) // f_p
        return SplittingData(p, f_p, g_p, True)
    f_p = order_mod_subgroup(f_cond, field.primitive_subgroup(), p)
    return SplittingData(p, f_p, field.degree // f_p, False)


def order_mod_subgroup(m: int, subgroup: frozenset[int], x: int) -> int:
    """Least k >= 1 with x^k in the subgroup H of (Z/mZ)^x: the order of x
    in the quotient by H, which for a prime x is its Frobenius order in
    Gal(E/Q).  x must be coprime to m."""
    x %= m
    k = 1
    cur = x
    while cur not in subgroup:
        cur = cur * x % m
        k += 1
    return k


def compositum(e: AbelianField, f: AbelianField) -> AbelianField:
    """EF, realized at the lcm of the two ambient moduli."""
    m = lcm(e.modulus, f.modulus)
    g = unit_group(m)
    he = e.lift_to(g).subgroup
    hf = f.lift_to(g).subgroup
    return AbelianField(g, he & hf)


def galois_product_check(e: AbelianField, f: AbelianField) -> bool:
    """True iff Gal(EF/Q) is the direct product of the two Galois groups,
    equivalently [EF:Q] = [E:Q][F:Q], equivalently E and F intersect in Q."""
    return compositum(e, f).degree == e.degree * f.degree


def tower(field: AbelianField) -> list[AbelianField]:
    """Chain of proper subfields E > E_1 > ... > Q with prime-degree steps.

    Each step ascends the subgroup chain through the largest remaining prime
    factor of the degree; among the index-q overgroups the one with the
    lexicographically smallest element tuple is taken, so output is
    deterministic.
    """
    group = field.ambient
    chain: list[AbelianField] = []
    current = field.subgroup
    while len(current) < group.order:
        index = group.order // len(current)
        q = max(p for p, _ in factorize(index))
        candidates: list[frozenset[int]] = []
        for x in group.units:
            # x in an index-q overgroup C of H joins H to C itself.
            if x in current or any(x in c for c in candidates):
                continue
            if order_mod_subgroup(group.modulus, current, x) == q:
                candidates.append(_join(group, current, x))
        step = min(candidates, key=lambda s: tuple(sorted(s)))
        chain.append(AbelianField(group, step))
        current = step
    return chain


def tower_step_degrees(field: AbelianField) -> list[int]:
    """Prime degree of each tower step, largest first."""
    degs = []
    prev = field.degree
    for sub in tower(field):
        degs.append(prev // sub.degree)
        prev = sub.degree
    return degs


def splitting_table(field: AbelianField, p_max: int) -> list[SplittingData]:
    return [_splitting(field, p) for p in sieve_primes(p_max).tolist()]


def fields_up_to_conductor(bound: int) -> list[AbelianField]:
    """Every abelian field of conductor <= bound, each at its conductor."""
    from .characters import all_subgroups

    out = []
    for m in range(1, bound + 1):
        group = unit_group(m)
        for sub in all_subgroups(group):
            field = AbelianField(group, sub)
            if field.conductor == m:
                out.append(field)
    return out
