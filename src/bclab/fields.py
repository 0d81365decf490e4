"""Abelian number fields as subgroups of (Z/MZ)^x.

A field E of conductor f is the fixed field, inside the f-th cyclotomic
field, of a subgroup H of the unit group; the dictionary makes degree,
prime splitting, compositum and prime-degree towers exactly computable
through congruence arithmetic alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .characters import (UnitGroup, _join, all_subgroups, closure, conductor,
                         factorize, unit_group)
from .pnt import sieve_primes


class AbelianField:
    """An abelian extension of Q, cut out by a subgroup of (Z/MZ)^x."""

    __slots__ = ("ambient", "subgroup", "degree", "conductor", "_prim_subgroup")

    def __init__(self, ambient: UnitGroup, subgroup: frozenset[int]):
        subgroup = frozenset(u % ambient.modulus for u in subgroup)
        subgroup |= {1 % ambient.modulus}
        if closure(ambient, subgroup) != subgroup:
            raise ValueError("subgroup data is not closed under multiplication")
        self._fill(ambient, subgroup)

    def _fill(self, ambient: UnitGroup, subgroup: frozenset[int]) -> None:
        self.ambient = ambient
        self.subgroup = subgroup
        self.degree = ambient.order // len(subgroup)
        self.conductor = conductor(ambient, subgroup.__contains__)
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
        return _field(target, lifted)

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


def _field(ambient: UnitGroup, subgroup: frozenset[int]) -> AbelianField:
    """The field of a subgroup the library built itself (reduced mod the
    modulus, holding 1 and closed), unchecked."""
    field = object.__new__(AbelianField)
    field._fill(ambient, subgroup)
    return field


def make_field(modulus: int, gens) -> AbelianField:
    """Field with Galois group (Z/MZ)^x / <gens>."""
    group = unit_group(modulus)
    return _field(group, closure(group, gens))


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
    Gal(E/Q).  Raises ValueError unless x is coprime to m and 1 mod m lies
    in H."""
    if gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    if 1 % m not in subgroup:
        raise ValueError(f"the subgroup mod {m} does not contain 1")
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
    return _field(g, he & hf)


def _tower_chain(group: UnitGroup, subgroup: frozenset[int]
                 ) -> list[frozenset[int]]:
    """The subgroups above H of the prime-degree tower E > E_1 > ... > Q,
    ending at the whole group, with no field built per step.

    Each step ascends through the largest remaining prime factor q of the
    degree, to the index-q overgroup with the lexicographically smallest
    sorted element tuple, so the chain is deterministic.  The least index-q
    overgroup of H is <H, x> for the least unit x outside H with x^q in H.
    Every element of an index-q overgroup C outside H has order q mod H, so
    neither C nor <H, x> holds an element outside H below x.  If C holds x,
    it holds <H, x> and, of the same size, equals it; if not, the sorted
    tuples first differ where <H, x> has x and C a larger element.
    """
    m = group.modulus
    chain: list[frozenset[int]] = []
    current = subgroup
    while len(current) < group.order:
        q = max(p for p, _ in factorize(group.order // len(current)))
        x = next(x for x in group.units
                 if x not in current and pow(x, q, m) in current)
        current = _join(group, current, x)
        chain.append(current)
    return chain


def splitting_table(field: AbelianField, p_max: int) -> list[SplittingData]:
    return [_splitting(field, p) for p in sieve_primes(p_max).tolist()]


def fields_up_to_conductor(bound: int) -> list[AbelianField]:
    """Every abelian field of conductor <= bound, each at its conductor."""
    out = []
    for m in range(1, bound + 1):
        group = unit_group(m)
        for sub in all_subgroups(group):
            field = _field(group, sub)
            if field.conductor == m:
                out.append(field)
    return out
