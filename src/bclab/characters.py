"""Exact structure of (Z/MZ)^x and its finite-order characters.

The unit group is presented in CRT form: (Z/MZ)^x is the product of the
local groups (Z/p^eZ)^x over the prime powers p^e || M, each with explicit
generators and one discrete-log table of its own, indexed by residue mod
p^e and cached per prime power.  A discrete log mod M joins the local ones
and is memoized, so a group at a large modulus costs only the residues
actually asked about.
Every character is an integer exponent vector and every character value is
an exact root of unity: an integer exponent of zeta_N (a rational angle
at the public boundary), never a float.  A Dirichlet character carries its
exponents on the generators of (Z/MZ)^x and compares equal exactly when it
induces the same primitive character; the ambient modulus is bookkeeping
only.  A character of a subgroup H carries its exponents on the generators
of H: it is one restriction class of the dual group, the fiber that base
change collapses and automorphic induction recovers.

All objects here are immutable after construction, apart from their caches,
and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

import numpy as np

from .cyclotomic import angle_to_complex


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
    return (residue + q * ((1 - residue) * pow(q, -1, rest) % rest)) % modulus


class _LocalGroup(NamedTuple):
    """(Z/qZ)^x for q = p^e: generators as (residue mod q, order), the
    group exponent, and one discrete-log table indexed by residue mod q:
    `is_unit[r]` flags the units and `dlogs[r]` is the exponent vector of r
    on the generators, zero at the non-units; both arrays are read-only.
    `kernels[c]` generates {u = 1 mod p^c}, c = 0..e: the generators while
    that is every unit (c = 0, and c = 1 for p = 2), then 1 + p^c, of order
    p^(e - c) like the kernel, a cyclic group."""

    p: int
    e: int
    q: int
    generators: tuple[tuple[int, int], ...]
    exponent: int
    is_unit: np.ndarray
    dlogs: np.ndarray
    kernels: tuple[tuple[int, ...], ...]


def _powers_mod(g: int, n: int, q: int) -> np.ndarray:
    """g^k mod q for k in [0, n) as int64: giant steps g^(s i) times baby
    steps g^j, s = ceil(sqrt(n)), in one outer product mod q.  The products
    stay below q^2, exact in int64 while q < 2^31, far past any table that
    fits in memory."""
    s = isqrt(n - 1) + 1
    baby, giant = [1], [1]
    while len(baby) < s:
        baby.append(baby[-1] * g % q)
    step = pow(g, s, q)
    while len(giant) * s < n:
        giant.append(giant[-1] * step % q)
    out = np.multiply.outer(np.array(giant, dtype=np.int64),
                            np.array(baby, dtype=np.int64)) % q
    return out.ravel()[:n]


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
    # The unit with exponent vector vec is prod g^vec mod q; vectors run in
    # lexicographic order, the last generator fastest.
    orders = [o for _, o in gens]
    units = np.ones(1, dtype=np.int64)
    for g, o in gens:
        units = np.multiply.outer(units, _powers_mod(g, o, q)).ravel() % q
    is_unit = np.zeros(q, dtype=bool)
    is_unit[units] = True
    if np.count_nonzero(is_unit) != euler_phi(q):
        raise ArithmeticError(
            f"generator set mod {q} does not span the unit group"
        )
    dlogs = np.zeros((q, len(gens)), dtype=np.int64)
    dlogs[units] = np.indices(orders, dtype=np.int64).reshape(len(gens),
                                                              units.size).T
    is_unit.flags.writeable = False
    dlogs.flags.writeable = False
    whole = tuple(g for g, _ in gens)
    kernels = tuple(whole if c == 0 or p ** c == 2 else ((1 + p ** c) % q,)
                    for c in range(e + 1))
    return _LocalGroup(p, e, q, gens, lcm(*orders), is_unit, dlogs, kernels)


def conductor(group: UnitGroup, inside) -> int:
    """The least f | M such that every unit = 1 mod f passes `inside`, the
    membership test of a subgroup of (Z/MZ)^x (a field's H, a character's
    kernel): the product over p^e || M of the least p^c whose local kernel
    generators (`_LocalGroup.kernels`, CRT-lifted once per group in
    `UnitGroup._kernels`) all pass.  This is exact: (1) the units = 1 mod f
    are the direct product of the lifted local kernels; (2) a subgroup
    contains a product of subgroups exactly when it contains each factor,
    and a subgroup exactly when it contains its generators; (3) so the f
    that work are closed under gcd."""
    f = 1
    for local, kernels in zip(group._locals, group._kernels):
        for c, gens in enumerate(kernels):
            if all(inside(k) for k in gens):
                f *= local.p ** c
                break
    return f


class UnitGroup:
    """(Z/MZ)^x presented as a direct product of explicit cyclic factors.

    The generators are the local generators of each (Z/p^eZ)^x, CRT-lifted
    to be 1 at the other prime powers, so a discrete log mod M is the
    concatenation of the local ones.  `_kernels` holds each local group's
    kernel generators (`_LocalGroup.kernels`), lifted the same way.
    `dlog` is memoized per residue, and `units` is built on first use.
    """

    __slots__ = ("modulus", "generators", "exponent", "order", "_kernels",
                 "_locals", "_dlog", "_units")

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        self.modulus = modulus
        self._locals = tuple(_local_group(p, e) for p, e in factorize(modulus))
        self.generators = tuple((_crt_lift(g, local.q, modulus), o)
                                for local in self._locals
                                for g, o in local.generators)
        self._kernels = tuple(
            tuple(tuple(_crt_lift(k, local.q, modulus) for k in gens)
                  for gens in local.kernels)
            for local in self._locals)
        self.exponent = lcm(*[o for _, o in self.generators])
        self.order = prod(int(np.count_nonzero(local.is_unit))
                          for local in self._locals)
        self._dlog: dict[int, tuple[int, ...]] = {}
        self._units = None

    def dlog(self, u: int) -> tuple[int, ...]:
        r = u % self.modulus
        vec = self._dlog.get(r)
        if vec is None:
            vec = ()
            for local in self._locals:
                if r % local.p == 0:
                    raise ValueError(f"{u} is not a unit modulo {self.modulus}")
                vec += tuple(local.dlogs[r % local.q].tolist())
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

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def conductor(self) -> int:
        """The conductor of the kernel of chi (`conductor`)."""
        if self._conductor is None:
            self._conductor = conductor(
                self.group, lambda u: self.group_exponent(u) == 0)
        return self._conductor

    def primitive(self) -> "DirichletChar":
        """The primitive character inducing this one."""
        if self._primitive is None:
            f = self.conductor
            self._primitive = (self if f == self.group.modulus
                               else self._restate(unit_group(f)))
        return self._primitive

    def _restate(self, target: UnitGroup) -> "DirichletChar":
        """This character on the generators of `target`, a group mod the
        conductor or a multiple of it.  Each generator h of order o, moved
        by multiples of the target modulus until it is a unit mod M, gives
        chi(h) = zeta_N^a; chi(h)^o = 1 makes a * o / N the exponent."""
        m, n, step = self.group.modulus, self.group.exponent, target.modulus
        exps = []
        for h, o in target.generators:
            while gcd(h, m) != 1:
                h += step
            a = self.group_exponent(h) * o
            if a % n:
                raise ArithmeticError(
                    f"no character mod {step} restates {self!r}")
            exps.append(a // n % o)
        return DirichletChar(target, exps)

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

    def exponents_at(self, n) -> np.ndarray:
        """`primitive_exponent` over an integer array: int64 exponents on the
        primitive character's group exponent N, and -1 where chi(n) = 0.

        One gather per local factor of the primitive group, from its cached
        local discrete-log table.  Each term x * e is reduced mod its
        generator order o before it is scaled by N // o, so every partial
        sum stays below (number of generators) * N; OverflowError when that
        bound does not fit in int64.
        """
        prim = self.primitive()
        group = prim.group
        level = group.exponent
        if level * len(group.generators) >= 2 ** 63:
            raise OverflowError(
                f"exponents at level {level} do not fit in int64")
        n = np.asarray(n, dtype=np.int64)
        out = np.zeros(n.shape, dtype=np.int64)
        is_unit = np.ones(n.shape, dtype=bool)
        exps = iter(prim.exponents)
        for local in group._locals:
            r = n % local.q
            is_unit &= local.is_unit[r]
            for col, (_, o) in enumerate(local.generators):
                out += local.dlogs[r, col] * next(exps) % o * (level // o)
        out %= level
        out[~is_unit] = -1
        return out

    def angle(self, n: int) -> Fraction | None:
        """Angle of chi(n) in [0,1), or None when the value is zero."""
        a = self.primitive_exponent(n)
        return None if a is None else _angle(a, self.primitive().group.exponent)

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
        return self._restate(target)

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
    """All phi(M) characters of (Z/MZ)^x, in a fixed enumeration order."""
    ranges = [range(o) for _, o in group.generators]
    return tuple(DirichletChar(group, vec) for vec in iter_product(*ranges))


def closure(group: UnitGroup, elements) -> frozenset[int]:
    """Subgroup of (Z/MZ)^x generated by the given units."""
    m = group.modulus
    elements = list(elements)
    for u in elements:
        if not group.is_unit(u):
            raise ValueError(f"{u} is not a unit modulo {m}")
    return _span(group, {u % m for u in elements})[1]


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


def _span(group: UnitGroup, elements) -> tuple[list[int], frozenset[int]]:
    """One pass over sorted(elements): each element not yet in the span of
    the ones before it is a generator and joins the span.  Returns the
    generators and the span, which equals the elements exactly when they
    are a subgroup.  The elements must be units: `_join` never returns for
    a non-unit."""
    gens: list[int] = []
    have = frozenset({1 % group.modulus})
    for h in sorted(elements):
        if h not in have:
            gens.append(h)
            have = _join(group, have, h)
    return gens, have


@lru_cache(maxsize=None)
def _dual_exponents(group: UnitGroup) -> np.ndarray:
    """The exponent vectors of the dual group, one row per character in
    `_dual_cache` order, as a read-only int64 array."""
    dual = _dual_cache(group)
    rows = np.array([chi.exponents for chi in dual], dtype=np.int64)
    rows = rows.reshape(len(dual), len(group.generators))
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _restriction_classes(group: UnitGroup, elements: frozenset[int]
                         ) -> tuple[tuple[int, ...], dict]:
    """Generators of H, and the dual group bucketed by restriction to H.

    A character of H is fixed by its values on the generators, so the bucket
    key is the tuple of group exponents there, and each bucket is one
    character of H.  The generators come from one pass over sorted(H)
    (`_span`), which also checks closure.  The keys of the whole dual group
    are one integer product E W^T mod N: E holds the dual's exponent vectors
    (`_dual_exponents`), and row j of W is the discrete log of generator j
    with entry i scaled by N / o_i, so entry (chi, j) is
    `chi.group_exponent(gens[j])`.  Buckets, and the characters inside each,
    keep the dual group's enumeration order.  Raises ValueError unless the
    residues in [0, M) given are a subgroup.  Callers must not mutate the
    cached buckets.
    """
    m = group.modulus
    for u in elements:
        if not group.is_unit(u):
            raise ValueError(f"{u} is not a unit modulo {m}")
    gens, span = _span(group, elements)
    if span != elements:
        raise ValueError(f"H is not closed under multiplication mod {m}")
    n = group.exponent
    # Each weight is below N and each exponent below its order o_i <= N, so
    # every entry of the product is below (number of generators) * N^2.
    if len(group.generators) * n * n >= 2 ** 63:
        raise OverflowError(f"restriction keys at level {n} do not fit in int64")
    scale = [n // o for _, o in group.generators]
    weights = np.array([[x * s for x, s in zip(group.dlog(h), scale)]
                        for h in gens], dtype=np.int64)
    weights = weights.reshape(len(gens), len(scale))
    keys = (_dual_exponents(group) @ weights.T % n).tolist()
    classes: dict[tuple[int, ...], list[DirichletChar]] = {}
    for chi, key in zip(_dual_cache(group), keys):
        classes.setdefault(tuple(key), []).append(chi)
    return tuple(gens), classes


class SubgroupChar:
    """A homomorphism from a subgroup H of (Z/MZ)^x into the roots of unity.

    This is the restriction-side object of GL(1) base change: characters of
    the ambient group restrict to these, and extensions() recovers the full
    fiber of characters lying above one.  It is held as its restriction
    class: `exponents` are the group exponents of its values on H's
    generators, and its values are read from the first character of the
    ambient group in that class.

    The constructor takes H, the class's exponents and its first member as
    `restrict_char` and `subgroup_characters` compute them, and checks
    nothing; those two are the ways to get a character of H.
    """

    __slots__ = ("group", "elements", "exponents", "_member")

    def __init__(self, group: UnitGroup, elements: frozenset[int],
                 exponents: tuple[int, ...], member: DirichletChar):
        self.group, self.elements, self.exponents = group, elements, exponents
        self._member = member

    @property
    def order(self) -> int:
        n = self.group.exponent
        return lcm(*[n // gcd(n, a) for a in self.exponents])

    def value_exponent(self, u: int) -> tuple[int, int]:
        """(a, N) with omega(u) = zeta_N^a, N the group exponent of the
        primitive character of the class's first member."""
        if u % self.group.modulus not in self.elements:
            raise ValueError(
                f"{u} is not in the subgroup mod {self.group.modulus}"
            )
        member = self._member
        return member.primitive_exponent(u), member.primitive().group.exponent

    def angle(self, u: int) -> Fraction:
        return _angle(*self.value_exponent(u))

    @property
    def key(self) -> tuple:
        return (self.group.modulus, self.elements, self.exponents)

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
    m = group.modulus
    elements = frozenset(u % m for u in subgroup) | {1 % m}
    gens, classes = _restriction_classes(group, elements)
    key = tuple(chi.group_exponent(h) for h in gens)
    return SubgroupChar(group, elements, key, classes[key][0])


def extensions(omega: SubgroupChar, group: UnitGroup) -> list[DirichletChar]:
    """All characters of the full group restricting to omega on H.

    There are exactly [G:H] of them: one particular extension multiplied by
    every character trivial on H.  They are omega's restriction class, the
    bucket of the dual group whose values on H's generators are omega's.
    """
    if omega.group != group:
        raise ValueError(
            f"omega lives mod {omega.group.modulus}, group is mod {group.modulus}"
        )
    _, classes = _restriction_classes(group, omega.elements)
    found = list(classes[omega.exponents])
    index = group.order // len(omega.elements)
    if len(found) != index:
        raise ArithmeticError(
            f"expected {index} extensions, found {len(found)}"
        )
    return found


def subgroup_characters(group: UnitGroup, elements) -> list[SubgroupChar]:
    """All |H| characters of the subgroup H, one per restriction class."""
    sub = closure(group, elements)
    _, classes = _restriction_classes(group, sub)
    out = [SubgroupChar(group, sub, key, bucket[0])
           for key, bucket in classes.items()]
    if len(out) != len(sub):
        raise ArithmeticError("dual of subgroup has the wrong size")
    return out


def all_subgroups(group: UnitGroup) -> list[frozenset[int]]:
    """Every subgroup of (Z/MZ)^x, climbing the lattice by prime-index steps.

    From each subgroup H found, every unit u not yet covered is visited and
    k, its order mod H, taken in one loop over its powers.  For composite k
    the coset H*u is covered and skipped; for prime k the join <H, u> is the
    union of the cosets H*u^i, i < k, and all of it is covered, since each
    of its elements outside H has order k mod H and gives the same join.
    The climb finds every subgroup: a subgroup K != 1 has a maximal subgroup
    K' of prime index (K is abelian), and K = <K', x> for any x in K outside
    K'.  No such x is covered by a composite coset of K' (its order mod K'
    is prime), so the first join from K' to reach one of them is K itself.
    Ordered by size, then by the sorted element tuple.
    """
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
            powers = [1 % m]
            cur = u
            while cur not in base:
                powers.append(cur)
                cur = cur * u % m
            if not is_prime(len(powers)):
                covered.update(h * u % m for h in base)
                continue
            bigger = frozenset(h * x % m for x in powers for h in base)
            covered.update(bigger)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
