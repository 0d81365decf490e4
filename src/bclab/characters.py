"""Exact structure of (Z/MZ)^x and its finite-order characters.

The unit group is presented by an explicit generator list with a full
discrete-log table, so every character is an integer exponent vector and
every character value is an exact root of unity (a rational angle), never a
float.  Characters compare equal exactly when they induce the same primitive
character; the ambient modulus is bookkeeping only.

All objects here are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm

from .cyclotomic import divisors, normalize_angle, angle_to_complex


def factorize(n: int) -> list[tuple[int, int]]:
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def _primitive_root(q: int, p: int) -> int:
    # Smallest primitive root modulo the odd prime power q = p^e.
    phi = euler_phi(q)
    prime_parts = [f for f, _ in factorize(phi)]
    g = 2
    while True:
        if gcd(g, q) == 1 and all(pow(g, phi // f, q) != 1 for f in prime_parts):
            return g
        g += 1


def _crt_lift(residue: int, q: int, modulus: int) -> int:
    # x = residue mod q, x = 1 mod modulus/q, for q || modulus.
    rest = modulus // q
    if rest == 1:
        return residue % modulus
    inv_q = pow(q, -1, rest)
    x = residue + q * ((1 - residue) * inv_q % rest)
    return x % modulus


class UnitGroup:
    """(Z/MZ)^x presented as a direct product of explicit cyclic factors."""

    __slots__ = ("modulus", "generators", "exponent", "dlog_table", "units")

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        self.modulus = modulus
        gens: list[tuple[int, int]] = []
        for p, e in factorize(modulus):
            q = p ** e
            if p == 2:
                if e == 2:
                    gens.append((_crt_lift(3, 4, modulus), 2))
                elif e >= 3:
                    # (Z/2^e)^x is not cyclic: use -1 of order 2 and 5.
                    gens.append((_crt_lift(q - 1, q, modulus), 2))
                    gens.append((_crt_lift(5, q, modulus), 2 ** (e - 2)))
            else:
                gens.append((_crt_lift(_primitive_root(q, p), q, modulus),
                             euler_phi(q)))
        self.generators = tuple(gens)
        self.exponent = lcm(*[o for _, o in gens]) if gens else 1
        table: dict[int, tuple[int, ...]] = {}
        for vec in iter_product(*[range(o) for _, o in gens]):
            u = 1 % modulus
            for (g, _), k in zip(gens, vec):
                u = u * pow(g, k, modulus) % modulus
            table[u] = vec
        if len(table) != euler_phi(modulus):
            raise ArithmeticError(
                f"generator set mod {modulus} does not span the unit group"
            )
        self.dlog_table = table
        self.units = tuple(sorted(table))

    @property
    def order(self) -> int:
        return len(self.dlog_table)

    def dlog(self, u: int) -> tuple[int, ...]:
        r = u % self.modulus
        if r not in self.dlog_table:
            raise ValueError(f"{u} is not a unit modulo {self.modulus}")
        return self.dlog_table[r]

    def is_unit(self, u: int) -> bool:
        return u % self.modulus in self.dlog_table

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitGroup) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("UnitGroup", self.modulus))

    def __repr__(self) -> str:
        return f"UnitGroup({self.modulus})"


@lru_cache(maxsize=None)
def unit_group(modulus: int) -> UnitGroup:
    """Shared, cached unit group for a positive modulus."""
    return UnitGroup(modulus)


class DirichletChar:
    """A Dirichlet character as an exponent vector on unit-group generators.

    chi(g_i) = zeta_N ^ (e_i * N / order_i) with N the group exponent.
    Evaluation at integers goes through the attached primitive character, so
    chi(n) = 0 exactly when gcd(n, conductor) > 1.  Equality and hashing are
    structural: two characters agree iff their primitive characters do.
    """

    __slots__ = ("group", "exponents", "_conductor", "_primitive", "_key",
                 "_angle_cache")

    def __init__(self, group: UnitGroup, exponents):
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != len(group.generators):
            raise ValueError(
                f"expected {len(group.generators)} exponents mod {group.modulus}, "
                f"got {len(exponents)}"
            )
        self.group = group
        self.exponents = tuple(
            e % o for e, (_, o) in zip(exponents, group.generators)
        )
        self._conductor = None
        self._primitive = None
        self._key = None
        self._angle_cache = {}

    # -- value on honest units of the ambient modulus -----------------------
    def group_exponent(self, u: int) -> int:
        """Exponent a in [0, N) with chi(u) = zeta_N^a, N the group exponent."""
        vec = self.group.dlog(u)
        n = self.group.exponent
        total = 0
        for e, x, (_, o) in zip(self.exponents, vec, self.group.generators):
            total += e * x * (n // o)
        return total % n

    def group_angle(self, u: int) -> Fraction:
        return Fraction(self.group_exponent(u), self.group.exponent)

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            m = self.group.modulus
            cond = m
            for f in divisors(m):
                if all(self.group_exponent(u) == 0
                       for u in self.group.units if u % f == 1 % f):
                    cond = f
                    break
            self._conductor = cond
        return self._conductor

    def primitive(self) -> "DirichletChar":
        """The primitive character inducing this one."""
        if self._primitive is None:
            f = self.conductor
            if f == self.group.modulus:
                self._primitive = self
            else:
                gf = unit_group(f)
                exps = []
                for h, o in gf.generators:
                    lift = h
                    while gcd(lift, self.group.modulus) != 1:
                        lift += f
                    q = self.group_angle(lift) * o
                    if q.denominator != 1:
                        raise ArithmeticError("conductor computation is broken")
                    exps.append(q.numerator % o)
                self._primitive = DirichletChar(gf, exps)
        return self._primitive

    # -- evaluation at arbitrary integers ------------------------------------
    def angle(self, n: int) -> Fraction | None:
        """Angle of chi(n) in [0,1), or None when the value is zero."""
        f = self.conductor
        r = n % f
        if r not in self._angle_cache:
            self._angle_cache[r] = (None if gcd(r, f) != 1
                                    else self.primitive().group_angle(r))
        return self._angle_cache[r]

    def eval_exponent(self, n: int) -> int | None:
        """Exponent a with chi(n) = zeta_N^a (N the group exponent), or None."""
        q = self.angle(n)
        if q is None:
            return None
        a = q * self.group.exponent
        if a.denominator != 1:
            raise ArithmeticError("character value outside zeta_N powers")
        return a.numerator % self.group.exponent

    def value(self, n: int) -> complex:
        q = self.angle(n)
        return 0j if q is None else angle_to_complex(q)

    # -- group operations -----------------------------------------------------
    def lift_to(self, target: UnitGroup) -> "DirichletChar":
        if target.modulus == self.group.modulus:
            return self
        if target.modulus % self.group.modulus != 0:
            raise ValueError(
                f"cannot lift character mod {self.group.modulus} "
                f"to modulus {target.modulus}"
            )
        exps = []
        for g, o in target.generators:
            q = self.group_angle(g) * o
            if q.denominator != 1:
                raise ArithmeticError("lift produced a non-integral exponent")
            exps.append(q.numerator % o)
        return DirichletChar(target, exps)

    def __mul__(self, other: "DirichletChar") -> "DirichletChar":
        if not isinstance(other, DirichletChar):
            return NotImplemented
        m = lcm(self.group.modulus, other.group.modulus)
        g = unit_group(m)
        a = self.lift_to(g)
        b = other.lift_to(g)
        return DirichletChar(g, [x + y for x, y in zip(a.exponents, b.exponents)])

    def conjugate(self) -> "DirichletChar":
        return DirichletChar(self.group, [-e for e in self.exponents])

    @property
    def order(self) -> int:
        orders = [o // gcd(o, e)
                  for e, (_, o) in zip(self.exponents, self.group.generators)]
        return lcm(*orders) if orders else 1

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    # -- structural identity ----------------------------------------------------
    @property
    def key(self) -> tuple:
        if self._key is None:
            prim = self.primitive()
            self._key = (prim.group.modulus, prim.exponents)
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, DirichletChar) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"DirichletChar(mod {self.modulus}, exps {list(self.exponents)})"

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "exponents": list(self.exponents),
            "conductor": self.conductor,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def trivial_char(modulus: int = 1) -> DirichletChar:
    g = unit_group(modulus)
    return DirichletChar(g, [0] * len(g.generators))


@lru_cache(maxsize=None)
def _dual_cache(group: UnitGroup) -> tuple[DirichletChar, ...]:
    ranges = [range(o) for _, o in group.generators]
    return tuple(DirichletChar(group, vec) for vec in iter_product(*ranges))


def dual_group(group: UnitGroup) -> list[DirichletChar]:
    """All phi(M) characters of (Z/MZ)^x, in a fixed enumeration order."""
    return list(_dual_cache(group))


def closure(group: UnitGroup, elements) -> frozenset[int]:
    """Subgroup of (Z/MZ)^x generated by the given units."""
    m = group.modulus
    elements = list(elements)
    for u in elements:
        if not group.is_unit(u):
            raise ValueError(f"{u} is not a unit modulo {m}")
    sub = frozenset({1 % m})
    for u in elements:
        if u % m not in sub:
            sub = _join(group, sub, u % m)
    return sub


def _join(group: UnitGroup, subgroup: frozenset[int], x: int) -> frozenset[int]:
    """<H, x> for a subgroup H and a unit x, as the union of the cosets H*x^k.

    The cosets are walked until x^k falls back into H, so the cost is
    O(|<H, x>|).
    """
    m = group.modulus
    out = set(subgroup)
    step = x % m
    cur = step
    while cur not in subgroup:
        out.update(h * cur % m for h in subgroup)
        cur = cur * step % m
    return frozenset(out)


def _subgroup_generators(group: UnitGroup, elements: frozenset[int]) -> list[int]:
    gens: list[int] = []
    have = frozenset({1 % group.modulus})
    for h in sorted(elements):
        if h not in have:
            gens.append(h)
            have = _join(group, have, h)
    return gens


@lru_cache(maxsize=None)
def _restriction_classes(group: UnitGroup, elements: frozenset[int]
                         ) -> tuple[tuple[int, ...], dict]:
    """Generators of H, and the dual group bucketed by restriction to H.

    A character of H is fixed by its values on the generators, so the bucket
    key is the tuple of group exponents there.  Buckets, and the characters
    inside each, keep the dual group's enumeration order.  Callers must not
    mutate the cached buckets.
    """
    gens = tuple(_subgroup_generators(group, elements))
    classes: dict[tuple[int, ...], list[DirichletChar]] = {}
    for chi in _dual_cache(group):
        key = tuple(chi.group_exponent(h) for h in gens)
        classes.setdefault(key, []).append(chi)
    return gens, classes


class SubgroupChar:
    """A homomorphism from a subgroup H of (Z/MZ)^x into the roots of unity.

    This is the restriction-side object of GL(1) base change: characters of
    the ambient group restrict to these, and extensions() recovers the full
    fiber of characters lying above one.
    """

    __slots__ = ("group", "elements", "angles", "_key")

    def __init__(self, group: UnitGroup, angles: dict[int, Fraction],
                 check: bool = True):
        m = group.modulus
        elements = frozenset(u % m for u in angles)
        angles = {u % m: normalize_angle(q) for u, q in angles.items()}
        if check:
            if 1 % m not in elements:
                raise ValueError("subgroup must contain 1")
            for u in elements:
                if not group.is_unit(u):
                    raise ValueError(f"{u} is not a unit modulo {m}")
            for a in elements:
                for b in elements:
                    ab = a * b % m
                    if ab not in elements:
                        raise ValueError(
                            f"H is not closed under multiplication: "
                            f"{a}*{b} = {ab} mod {m} escapes"
                        )
                    if normalize_angle(angles[a] + angles[b]) != angles[ab]:
                        raise ValueError(
                            f"values are not a homomorphism at {a}*{b} mod {m}"
                        )
        self.group = group
        self.elements = elements
        self.angles = angles
        self._key = None

    @property
    def order(self) -> int:
        return lcm(*[q.denominator for q in self.angles.values()])

    @property
    def is_trivial(self) -> bool:
        return all(q == 0 for q in self.angles.values())

    def angle(self, u: int) -> Fraction:
        r = u % self.group.modulus
        if r not in self.angles:
            raise ValueError(
                f"{u} is not in the subgroup mod {self.group.modulus}"
            )
        return self.angles[r]

    def value(self, u: int) -> complex:
        return angle_to_complex(self.angle(u))

    def conjugate(self) -> "SubgroupChar":
        return SubgroupChar(
            self.group, {u: -q for u, q in self.angles.items()}, check=False
        )

    def restrict(self, elements) -> "SubgroupChar":
        sub = frozenset(u % self.group.modulus for u in elements)
        if not sub <= self.elements:
            raise ValueError("restriction target is not contained in H")
        return SubgroupChar(self.group, {u: self.angles[u] for u in sub})

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.group.modulus,
                         tuple(sorted(self.angles.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupChar) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (f"SubgroupChar(mod {self.group.modulus}, "
                f"|H|={len(self.elements)}, order {self.order})")


def restrict_char(chi: DirichletChar, subgroup) -> SubgroupChar:
    """Restriction of chi to a subgroup H of its own unit group."""
    group = chi.group
    elements = closure(group, subgroup)
    given = frozenset(u % group.modulus for u in subgroup)
    if given | {1 % group.modulus} != elements:
        raise ValueError("H is not closed under multiplication")
    return SubgroupChar(group, {u: chi.group_angle(u) for u in elements},
                        check=False)


def extensions(omega: SubgroupChar, group: UnitGroup) -> list[DirichletChar]:
    """All characters of the full group restricting to omega on H.

    There are exactly [G:H] of them: one particular extension multiplied by
    every character trivial on H.  They are the bucket of the dual group
    whose values on H's generators are omega's, looked up in the cached
    restriction classes of H; a value of omega that is no power of zeta_N
    (N the group exponent) has no extension at all.
    """
    if omega.group != group:
        raise ValueError(
            f"omega lives mod {omega.group.modulus}, group is mod {group.modulus}"
        )
    gens, classes = _restriction_classes(group, omega.elements)
    target = [omega.angle(h) * group.exponent for h in gens]
    found = []
    if all(a.denominator == 1 for a in target):
        found = list(classes.get(tuple(a.numerator for a in target), ()))
    index = group.order // len(omega.elements)
    if len(found) != index:
        raise ArithmeticError(
            f"expected {index} extensions, found {len(found)}"
        )
    return found


def subgroup_characters(group: UnitGroup, elements) -> list[SubgroupChar]:
    """All |H| characters of the subgroup H, via restriction from the dual."""
    sub = closure(group, elements)
    _, classes = _restriction_classes(group, sub)
    n = group.exponent
    angles = [Fraction(a, n) for a in range(n)]
    out = [SubgroupChar(group, {u: angles[bucket[0].group_exponent(u)]
                                for u in sub}, check=False)
           for bucket in classes.values()]
    if len(out) != len(sub):
        raise ArithmeticError("dual of subgroup has the wrong size")
    return out


def all_subgroups(group: UnitGroup) -> list[frozenset[int]]:
    """Every subgroup of (Z/MZ)^x, found by joining one unit at a time."""
    m = group.modulus
    one = frozenset({1 % m})
    found = {one}
    frontier = [one]
    while frontier:
        base = frontier.pop()
        covered = set(base)
        for u in group.units:
            if u in covered:
                continue
            # Every unit of the coset base*u joins base to the same group.
            covered.update(h * u % m for h in base)
            bigger = _join(group, base, u)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
