"""Exact structure of (Z/MZ)^x and its finite-order characters.

The unit group is presented in CRT form: (Z/MZ)^x is the product of the
local groups (Z/p^eZ)^x over the prime powers p^e || M, each with explicit
generators and a small discrete-log table of its own, cached per prime
power.  A discrete log mod M joins the local ones and is memoized, so a
group at a large modulus costs only the residues actually asked about.
Every character is an integer exponent vector and every character value is
an exact root of unity: an integer exponent of zeta_N (a rational angle
at the public boundary), never a float.  Characters compare equal exactly
when they induce the same primitive character; the ambient modulus is
bookkeeping only.

All objects here are immutable after construction, apart from their caches,
and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm, prod
from typing import NamedTuple

from .cyclotomic import normalize_angle, angle_to_complex


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


# Trial division by the primes below 100, as one gcd with their product,
# settles every n below 101^2.
_SMALL_PRIMES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                           47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))
_SMALL_PRIMES_PRODUCT = prod(_SMALL_PRIMES)
# Deterministic Miller-Rabin (OEIS A014233; Jaeschke 1993, Sorenson and
# Webster 2015): the first k primes as bases decide every odd n < bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = tuple((bound, _MR_BASES[:k]) for bound, k in (
    (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6),
    (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13)))


def _strong_probable_prime(n: int, bases) -> bool:
    """Whether the odd n > 2 passes the Miller-Rabin test to every base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Exact for every integer: trial division by the primes below 100,
    then deterministic Miller-Rabin with as many bases as n needs; past the
    last proven bound, trial division."""
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < 101 * 101:
        return True
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _strong_probable_prime(n, bases)
    d = 101
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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


class _LocalGroup(NamedTuple):
    """(Z/qZ)^x for q = p^e: generators as (residue mod q, order), the
    group exponent, and the discrete log of every unit mod q."""

    p: int
    e: int
    q: int
    generators: tuple[tuple[int, int], ...]
    exponent: int
    dlog_table: dict[int, tuple[int, ...]]


@lru_cache(maxsize=None)
def _local_group(p: int, e: int) -> _LocalGroup:
    q = p ** e
    if p != 2:
        gens = ((_primitive_root(q, p), (p - 1) * p ** (e - 1)),)
    elif e == 1:
        gens = ()
    elif e == 2:
        gens = ((3, 2),)
    else:
        # (Z/2^e)^x is not cyclic: use -1 of order 2 and 5.
        gens = ((q - 1, 2), (5, 2 ** (e - 2)))
    table: dict[int, tuple[int, ...]] = {}
    for vec in iter_product(*[range(o) for _, o in gens]):
        u = 1
        for (g, _), k in zip(gens, vec):
            u = u * pow(g, k, q) % q
        table[u] = vec
    if len(table) != euler_phi(q):
        raise ArithmeticError(
            f"generator set mod {q} does not span the unit group"
        )
    return _LocalGroup(p, e, q, gens, lcm(*[o for _, o in gens]), table)


@lru_cache(maxsize=None)
def _local_conductor(p: int, e: int, exponents: tuple[int, ...]) -> int:
    """Conductor p^c of the character of (Z/p^eZ)^x with these exponents:
    the least c for which it is trivial on every unit = 1 mod p^c."""
    local = _local_group(p, e)
    n = local.exponent
    weights = [x * (n // o) for x, (_, o) in zip(exponents, local.generators)]
    for c in range(e):
        f = p ** c
        if all(sum(w * k for w, k in zip(weights, vec)) % n == 0
               for u, vec in local.dlog_table.items() if u % f == 1 % f):
            return f
    return local.q


class UnitGroup:
    """(Z/MZ)^x presented as a direct product of explicit cyclic factors.

    The generators are the local generators of each (Z/p^eZ)^x, CRT-lifted
    to be 1 at the other prime powers, so a discrete log mod M is the
    concatenation of the local ones.  `units` and `dlog_table` are views
    built on first use.
    """

    __slots__ = ("modulus", "generators", "exponent", "order", "_locals",
                 "_dlog", "_units", "_table")

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        self.modulus = modulus
        self._locals = tuple(_local_group(p, e) for p, e in factorize(modulus))
        self.generators = tuple((_crt_lift(g, local.q, modulus), o)
                                for local in self._locals
                                for g, o in local.generators)
        self.exponent = lcm(*[o for _, o in self.generators])
        self.order = prod(len(local.dlog_table) for local in self._locals)
        self._dlog: dict[int, tuple[int, ...]] = {}
        self._units = None
        self._table = None

    def dlog(self, u: int) -> tuple[int, ...]:
        r = u % self.modulus
        vec = self._dlog.get(r)
        if vec is None:
            vec = ()
            for local in self._locals:
                part = local.dlog_table.get(r % local.q)
                if part is None:
                    raise ValueError(f"{u} is not a unit modulo {self.modulus}")
                vec += part
            self._dlog[r] = vec
        return vec

    def is_unit(self, u: int) -> bool:
        return gcd(u, self.modulus) == 1

    @property
    def units(self) -> tuple[int, ...]:
        """The residues in [0, M) coprime to M, ascending."""
        if self._units is None:
            m = self.modulus
            self._units = tuple(u for u in range(m) if gcd(u, m) == 1)
        return self._units

    @property
    def dlog_table(self) -> dict[int, tuple[int, ...]]:
        """Discrete log of every unit, keyed by residue."""
        if self._table is None:
            self._table = {u: self.dlog(u) for u in self.units}
        return self._table

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitGroup) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("UnitGroup", self.modulus))

    def __repr__(self) -> str:
        return f"UnitGroup({self.modulus})"


@lru_cache(maxsize=None)
def _angle(a: int, n: int) -> Fraction:
    """The angle a/n, shared: Fractions are immutable."""
    return Fraction(a, n)


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
                 "_value_cache")

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
        self._value_cache = {}

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
        """Product of the local conductors, one per prime power of M."""
        if self._conductor is None:
            cond = 1
            start = 0
            for local in self.group._locals:
                stop = start + len(local.generators)
                cond *= _local_conductor(local.p, local.e,
                                         self.exponents[start:stop])
                start = stop
            self._conductor = cond
        return self._conductor

    def primitive(self) -> "DirichletChar":
        """The primitive character inducing this one."""
        if self._primitive is None:
            f = self.conductor
            if f == self.group.modulus:
                self._primitive = self
            else:
                m = self.group.modulus
                n = self.group.exponent
                gf = unit_group(f)
                exps = []
                for h, o in gf.generators:
                    lift = h
                    while gcd(lift, m) != 1:
                        lift += f
                    a = self.group_exponent(lift) * o
                    if a % n:
                        raise ArithmeticError("conductor computation is broken")
                    exps.append(a // n % o)
                self._primitive = DirichletChar(gf, exps)
        return self._primitive

    # -- evaluation at arbitrary integers ------------------------------------
    def primitive_exponent(self, n: int) -> int | None:
        """Exponent a with chi(n) = zeta_N^a for N the primitive character's
        group exponent (`primitive().group.exponent`), or None when chi(n) = 0.

        Cached per residue mod the conductor.
        """
        f = self.conductor
        r = n % f
        try:
            return self._value_cache[r]
        except KeyError:
            a = None if gcd(r, f) != 1 else self.primitive().group_exponent(r)
            self._value_cache[r] = a
            return a

    def angle(self, n: int) -> Fraction | None:
        """Angle of chi(n) in [0,1), or None when the value is zero."""
        a = self.primitive_exponent(n)
        return None if a is None else _angle(a, self.primitive().group.exponent)

    def eval_exponent(self, n: int) -> int | None:
        """Exponent a with chi(n) = zeta_N^a (N the group exponent), or None."""
        a = self.primitive_exponent(n)
        if a is None:
            return None
        return a * (self.group.exponent // self.primitive().group.exponent)

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
        n = self.group.exponent
        exps = []
        for g, o in target.generators:
            a = self.group_exponent(g) * o
            if a % n:
                raise ArithmeticError("lift produced a non-integral exponent")
            exps.append(a // n % o)
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
        angles = {u % m: q if 0 <= q.numerator < q.denominator
                  else normalize_angle(q) for u, q in angles.items()}
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
    n = group.exponent
    return SubgroupChar(group, {u: _angle(chi.group_exponent(u), n)
                                for u in elements}, check=False)


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
    out = [SubgroupChar(group, {u: _angle(bucket[0].group_exponent(u), n)
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
