"""Brute-force references for the exact layer.

Each one is written the slow, obvious way: unit groups with a full
discrete-log table at the modulus, characters evaluated through Fraction
angles with the conductor found by a divisor search (a field's conductor
too, `field_conductor_oracle`), closures by breadth-first multiplication,
subgroup characters as plain angle maps restricted from the whole dual
group, extensions by scanning the whole dual group and comparing angles on
every element of H, tower labels by structural keys.  The subgroup
lattice grows by closures of one more unit (`all_subgroups_oracle`), each
tower step takes the least of all index-q overgroups (`tower_oracle`), and
restriction classes bucket the dual group one `group_exponent` at a time
(`restriction_classes_oracle`).  The dual group is enumerated here, one
character per exponent vector on the generators (`dual_characters`).  The
tests compare the library's kernels against them.

The array kernel `DirichletChar.exponents_at` has its per-integer
reference here too: `twist_absorption_per_prime` calls the scalar
`primitive_exponent` once per prime power, in Python integers.

`coeff_data_over_e_per_call` and `coeff_angles_over_q_per_call` are the
local coefficients of criterion 1's identity computed afresh at every
prime power, where the library reads them from a memo per residue.

`splitting_oracle` reads a prime's residue degree and prime count from
cosets of the field's subgroup and the prime's inertia group at the
conductor, with no reduction to the part of the conductor away from p.

`local_dlog_table_loop` builds a local discrete-log table one `pow` per
unit, in the order the library's vectorised table must keep.

For the analytic layer, `psi_per_block` is psi_sum's frozen per-block path:
every report block sieved on its own, with the same partial-sum formula, so
psi_sum must agree with it bit for bit however its sieve segments fall.
`plain_sieve_primes` is a byte-per-integer sieve of Eratosthenes, the
reference for the library's segmented one; the other references here draw
their primes from it.  `DirichletSource` is a psi_sum source of a single
twisted character.  `MemoisedRsSource` is `RsCoeffSource.coeff_at` the
fiber-sum way: the [E:Q] + [F:Q] characters of both fibers, each valued at
every residue by the scalar `primitive_exponent`
(`fiber_residue_table_loop`), summed into a product table per exponent k,
where the library reads one character of the pair, [E:Q][F:Q] chi_0
conj(psi_0) on H.  The two agree to float rounding; off H the sums cancel
to float residue.
"""

import cmath
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import gcd, lcm

import numpy as np

from bclab.automorphic import bc_fiber
from bclab.characters import DirichletChar, factorize
from bclab.fields import order_mod_subgroup
from bclab import pnt
from bclab.pnt import PrimePowerStream


def plain_sieve_primes(limit):
    """All primes <= limit."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _phi(n):
    return sum(1 for k in range(n) if gcd(k, n) == 1)


def _smallest_primitive_root(q):
    phi = _phi(q)
    parts = [f for f, _ in factorize(phi)]
    g = 2
    while gcd(g, q) != 1 or any(pow(g, phi // f, q) == 1 for f in parts):
        g += 1
    return g


def _crt_one_elsewhere(residue, q, m):
    # The x in [0, m) with x = residue mod q and x = 1 mod m/q.
    return next(x for x in range(m) if x % q == residue % q
                and x % (m // q) == 1 % (m // q))


class EagerUnitGroup:
    """(Z/mZ)^x with the full discrete-log table built at the modulus m."""

    def __init__(self, m):
        self.modulus = m
        gens = []
        for p, e in factorize(m):
            q = p ** e
            if p == 2:
                if e == 2:
                    gens.append((_crt_one_elsewhere(3, 4, m), 2))
                elif e >= 3:
                    gens.append((_crt_one_elsewhere(q - 1, q, m), 2))
                    gens.append((_crt_one_elsewhere(5, q, m), 2 ** (e - 2)))
            else:
                gens.append((_crt_one_elsewhere(_smallest_primitive_root(q),
                                                q, m), _phi(q)))
        self.generators = tuple(gens)
        self.exponent = lcm(*[o for _, o in gens])
        table = {1 % m: ()}
        for g, o in gens:
            grown = {}
            for u, vec in table.items():
                for k in range(o):
                    grown[u] = vec + (k,)
                    u = u * g % m
            table = grown
        assert len(table) == _phi(m), "generators do not span"
        self.dlog_table = table
        self.units = tuple(sorted(table))
        self.order = len(table)


eager_unit_group = lru_cache(maxsize=None)(EagerUnitGroup)


class FractionChar:
    """A character mod m evaluated the old way: Fraction angles read off the
    eager table, conductor by divisor search, primitive character and lifts
    through Fraction values on generators."""

    def __init__(self, m, exponents):
        self.group = eager_unit_group(m)
        self.exponents = tuple(e % o for e, (_, o)
                               in zip(exponents, self.group.generators))
        self._angles = {}

    @classmethod
    def of(cls, chi):
        return cls(chi.modulus, chi.exponents)

    @property
    def modulus(self):
        return self.group.modulus

    def group_angle(self, u):
        vec = self.group.dlog_table[u % self.modulus]
        n = self.group.exponent
        total = sum(e * x * (n // o) for e, x, (_, o)
                    in zip(self.exponents, vec, self.group.generators))
        return Fraction(total % n, n)

    @cached_property
    def conductor(self):
        m = self.modulus
        for f in (d for d in range(1, m + 1) if m % d == 0):
            if all(self.group_angle(u) == 0
                   for u in self.group.units if u % f == 1 % f):
                return f

    def primitive(self):
        return self._primitive

    @cached_property
    def _primitive(self):
        f = self.conductor
        exps = []
        for h, o in eager_unit_group(f).generators:
            lift = h
            while gcd(lift, self.modulus) != 1:
                lift += f
            q = self.group_angle(lift) * o
            assert q.denominator == 1
            exps.append(q.numerator % o)
        return FractionChar(f, exps)

    def lift_to(self, m):
        exps = []
        for g, o in eager_unit_group(m).generators:
            q = self.group_angle(g) * o
            assert q.denominator == 1
            exps.append(q.numerator % o)
        return FractionChar(m, exps)

    def angle(self, n):
        f = self.conductor
        r = n % f
        if r not in self._angles:
            self._angles[r] = (None if gcd(r, f) != 1
                               else self.primitive().group_angle(r))
        return self._angles[r]

    def conjugate(self):
        return FractionChar(self.modulus, [-e for e in self.exponents])

    def __mul__(self, other):
        m = lcm(self.modulus, other.modulus)
        a, b = self.lift_to(m), other.lift_to(m)
        return FractionChar(m, [x + y for x, y in zip(a.exponents, b.exponents)])


def field_conductor_oracle(m, subgroup):
    """The least divisor f of m such that every unit = 1 mod f lies in the
    subgroup H of (Z/mZ)^x: the divisors in ascending order, each checked
    on every unit."""
    units = [u for u in range(m) if gcd(u, m) == 1]
    for f in (d for d in range(1, m + 1) if m % d == 0):
        if all(u in subgroup for u in units if u % f == 1 % f):
            return f


def twist_absorption_oracle(chi, xi, pi_q, pi_q_prime, limit):
    """twist_absorption_check on FractionChar: angle differences mod 1."""
    chi, xi, pi_q, pi_q_prime = map(FractionChar.of, (chi, xi, pi_q, pi_q_prime))
    left_a = pi_q * chi
    left_b = pi_q_prime * xi
    right_a = pi_q
    right_b = pi_q_prime * (chi.conjugate() * xi)
    bad = lcm(chi.conductor, xi.conductor, pi_q.conductor, pi_q_prime.conductor)
    excluded = {p for p, _ in factorize(bad)}
    for p in plain_sieve_primes(limit).tolist():
        if p in excluded:
            continue
        n = p
        while n <= limit:
            la, lb, ra, rb = (c.angle(n)
                              for c in (left_a, left_b, right_a, right_b))
            left_zero = la is None or lb is None
            right_zero = ra is None or rb is None
            if left_zero != right_zero:
                return False
            if not left_zero and (la - lb) % 1 != (ra - rb) % 1:
                return False
            n *= p
    return True


def twist_absorption_per_prime(chi, xi, pi_q, pi_q_prime, limit):
    """twist_absorption_check one prime power at a time: scalar
    `primitive_exponent` values scaled to the lcm L of the four primitive
    group exponents, compared mod L in Python integers."""
    left_a = pi_q * chi
    left_b = pi_q_prime * xi
    right_a = pi_q
    right_b = pi_q_prime * (chi.conjugate() * xi)
    bad = lcm(chi.conductor, xi.conductor, pi_q.conductor, pi_q_prime.conductor)
    excluded = {p for p, _ in factorize(bad)}
    levels = [c.primitive().group.exponent
              for c in (left_a, left_b, right_a, right_b)]
    level = lcm(*levels)
    sa, sb, ta, tb = (level // n for n in levels)
    for p in plain_sieve_primes(limit).tolist():
        if p in excluded:
            continue
        n = p
        while n <= limit:
            la, lb, ra, rb = (c.primitive_exponent(n)
                              for c in (left_a, left_b, right_a, right_b))
            left_zero = la is None or lb is None
            right_zero = ra is None or rb is None
            if left_zero != right_zero:
                return False
            if not left_zero and \
                    (la * sa - lb * sb - ra * ta + rb * tb) % level:
                return False
            n *= p
    return True


def local_dlog_table_loop(generators, q):
    """The discrete log of every unit mod q = p^e on the given generators,
    one `pow` per generator and unit, in lexicographic order of the
    exponent vectors."""
    table = {}
    for vec in iter_product(*[range(o) for _, o in generators]):
        u = 1
        for (g, _), k in zip(generators, vec):
            u = u * pow(g, k, q) % q
        table[u] = vec
    return table


def fiber_residue_table_loop(fiber, modulus):
    """chi_i(r) for every fiber character and residue r mod `modulus`, one
    scalar `primitive_exponent` per entry."""
    table = np.zeros((len(fiber), modulus), dtype=np.complex128)
    for row, (chi, _) in enumerate(fiber):
        level = chi.primitive().group.exponent
        for r in range(modulus):
            a = chi.primitive_exponent(r)
            if a is not None:
                table[row, r] = cmath.exp(2j * cmath.pi * (a / level))
    return table


@lru_cache(maxsize=None)
def dual_characters(group):
    """Every character of the unit group, one per exponent vector on its
    generators, the last generator fastest; shared, not to be mutated."""
    return tuple(DirichletChar(group, vec) for vec in
                 iter_product(*[range(o) for _, o in group.generators]))


def closure_bfs(m, elements):
    """Subgroup of (Z/mZ)^x generated by the given units."""
    gens = [u % m for u in elements]
    seen = {1 % m}
    frontier = [1 % m]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def all_subgroups_oracle(group):
    m = group.modulus
    one = frozenset({1 % m})
    found = {one}
    frontier = [one]
    while frontier:
        base = frontier.pop()
        for u in group.units:
            if u not in base:
                bigger = closure_bfs(m, list(base) + [u])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def subgroup_generators_oracle(group, elements):
    gens = []
    have = {1 % group.modulus}
    for h in sorted(elements):
        if h not in have:
            gens.append(h)
            have = closure_bfs(group.modulus, gens)
    return gens


def restriction_classes_oracle(group, elements):
    """The dual group bucketed by its group exponents on H's generators
    (`subgroup_generators_oracle`), one `group_exponent` call per character
    and generator: (generators, [(key, characters)]) with the buckets, and
    the characters inside each, in the dual group's order."""
    gens = subgroup_generators_oracle(group, elements)
    buckets = {}
    for chi in dual_characters(group):
        key = tuple(chi.group_exponent(h) for h in gens)
        buckets.setdefault(key, []).append(chi)
    return tuple(gens), list(buckets.items())


def _group_angle(chi, u):
    """chi(u) as an angle in [0, 1), for a unit u of chi's own modulus."""
    return Fraction(chi.group_exponent(u), chi.group.exponent)


def subgroup_characters_oracle(group, elements):
    """Restrictions of the whole dual group as angle maps {u: angle} on H,
    first occurrence kept."""
    sub = closure_bfs(group.modulus, elements)
    seen = {}
    for chi in dual_characters(group):
        angles = {u: _group_angle(chi, u) for u in sub}
        seen.setdefault(tuple(sorted(angles.items())), angles)
    return list(seen.values())


def restrict_char_oracle(chi, elements):
    """chi's angles on the subgroup generated by the elements, as Fractions
    built per element from the eager table and reduced mod 1."""
    oracle = FractionChar.of(chi)
    return {u: oracle.group_angle(u) % 1
            for u in closure_bfs(chi.modulus, elements)}


def extensions_oracle(omega, group):
    """Every character of the group agreeing with omega on all of H."""
    return [chi for chi in dual_characters(group)
            if all(_group_angle(chi, u) == omega.angle(u)
                   for u in omega.elements)]


def _coset_order(m, subgroup, x):
    k, cur = 1, x % m
    while cur not in subgroup:
        cur = cur * x % m
        k += 1
    return k


def splitting_oracle(field, p):
    """(f_p, g_p, ramified) of the prime p in the field, from cosets at its
    conductor c: H is the image of the field's subgroup mod c, I the units
    = 1 mod c / p^a (p^a || c, the inertia group of p), e = |HI| / |H|,
    f_p the order mod HI of the unit that is p mod c / p^a and 1 mod p^a,
    and g_p = [E:Q] / (e f_p)."""
    c = field.conductor
    p_part = 1
    while c % (p_part * p) == 0:
        p_part *= p
    away = c // p_part
    units = [u for u in range(c) if gcd(u, c) == 1]
    h = {u % c for u in field.subgroup}
    hi = closure_bfs(c, list(h) + [u for u in units if u % away == 1 % away])
    frob = next(x for x in range(c)
                if x % away == p % away and x % p_part == 1 % p_part)
    f_p = _coset_order(c, hi, frob)
    return f_p, field.degree * len(h) // (len(hi) * f_p), p_part > 1


def tower_oracle(field):
    """Subgroup chain of the prime-degree tower, largest prime step first,
    lexicographically smallest overgroup at each step."""
    group = field.ambient
    m = group.modulus
    chain = []
    current = field.subgroup
    while len(current) < group.order:
        q = max(p for p, _ in factorize(group.order // len(current)))
        candidates = {closure_bfs(m, list(current) + [x])
                      for x in group.units
                      if x not in current and _coset_order(m, current, x) == q}
        current = min(candidates, key=lambda s: tuple(sorted(s)))
        chain.append(current)
    return chain


def _power(chi, k):
    return DirichletChar(chi.group, [e * k for e in chi.exponents])


def fiber_tower_labels_oracle(pi, fiber):
    """(step degrees, labels) of the fiber, solved on structural keys.

    Annihilators come from scanning the dual group for characters trivial
    on every element of each subgroup of the tower chain.
    """
    field = pi.field
    group = field.ambient
    chain = [field.subgroup] + tower_oracle(field)
    degrees = [len(chain[a + 1]) // len(chain[a]) for a in range(len(chain) - 1)]
    ann_chars = [[chi for chi in dual_characters(group)
                  if all(chi.group_exponent(h) == 0 for h in sub)]
                 for sub in chain]
    ann_keys = [{chi.key for chi in chars} for chars in ann_chars]
    basis = []
    for a, step in enumerate(degrees):
        cand = next(chi for chi in ann_chars[a]
                    if chi.key not in ann_keys[a + 1])
        rest = cand.order
        while rest % step == 0:
            rest //= step
        basis.append(_power(cand, rest))
    base = fiber[0]
    labels = {}
    for i, chi in enumerate(fiber):
        delta = chi * base.conjugate()
        vec = []
        for a, step in enumerate(degrees):
            t = next(t for t in range(step)
                     if (delta * _power(basis[a], -t)).key in ann_keys[a + 1])
            vec.append(t)
            delta = delta * _power(basis[a], -t)
        assert delta.order == 1
        labels[i] = tuple(vec)
    return tuple(degrees), labels


def coeff_data_over_e_per_call(pi, p, j):
    """`coeff_data_over_e` with nothing kept between calls: the residue
    degree f_p by `order_mod_subgroup` and omega(p^{f_p}) by
    `value_exponent`, both at p itself."""
    m = pi.field.modulus
    if m > 1 and gcd(p, m) != 1:
        return None
    f_p = order_mod_subgroup(m, pi.field.subgroup, p)
    if j % f_p:
        return None
    frob = pow(p, f_p, m) if m > 1 else 0
    a, level = pi.omega.value_exponent(frob)
    return f_p * (pi.field.degree // f_p), Fraction(a * (j // f_p) % level,
                                                    level)


def coeff_angles_over_q_per_call(sum_, p, j):
    """`coeff_angles_over_q` with nothing kept between calls: each
    component's angle at the integer p^j itself."""
    angles = (chi.angle(pow(p, j)) for chi, _ in sum_.components)
    return [q for q in angles if q is not None]


def psi_per_block(source, x, checkpoints):
    """psi at each of the sorted checkpoints (x among them), one sieve per
    report block of `pnt.DEFAULT_CHUNK` integers, in one thread; the k = 1
    sum runs over the primes whose residue mod `source.modulus` lies in
    `source.support`, the k >= 2 sums over the primes not dividing it."""
    stream = PrimePowerStream(x, chunk=pnt.DEFAULT_CHUNK)
    powers = stream.higher_powers()
    power_vals = {}
    by_k = {}
    for p, k, _ in powers:
        by_k.setdefault(k, []).append(p)
    for k, plist in by_k.items():
        parr = np.array(plist, dtype=np.int64)
        keep = source.modulus % parr != 0
        vals = np.zeros(len(parr), dtype=np.complex128)
        if keep.any():
            vals[keep] = np.asarray(source.coeff_at(parr[keep], k),
                                    dtype=np.complex128)
        logs = np.log(parr.astype(np.float64))
        for p, v, lg in zip(plist, vals, logs):
            power_vals[(p, k)] = complex(v * lg)

    edges = stream.block_edges(checkpoints)
    parts = []
    power_idx = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        primes = stream.primes_in(lo, hi)
        primes = primes[np.isin(primes % source.modulus, list(source.support))]
        part = 0j
        if primes.size:
            vals = np.asarray(source.coeff_at(primes, 1), dtype=np.complex128)
            part = complex(np.sum(np.log(primes.astype(np.float64)) * vals))
        extra = 0j
        while power_idx < len(powers) and lo <= powers[power_idx][2] < hi:
            extra += power_vals[powers[power_idx][:2]]
            power_idx += 1
        parts.append(part + extra)

    psi = []
    for c in checkpoints:
        done = parts[:edges.index(c + 1)]
        psi.append(complex(math.fsum(z.real for z in done),
                           math.fsum(z.imag for z in done)))
    return tuple(psi)


class DirichletSource:
    """Coefficients a(p^k) = chi(p^k) p^{i k tau} of a single twisted
    character, with the primes dividing `modulus` (a multiple of chi's
    conductor, the conductor by default) excluded."""

    def __init__(self, chi, tau: float = 0.0, modulus: int | None = None,
                 multiplicity: int | None = None):
        self.chi = chi
        self.tau = float(tau)
        self.multiplicity = (1 if chi.order == 1 else 0) \
            if multiplicity is None else multiplicity
        self.tau0 = self.tau
        m = chi.conductor if modulus is None else modulus
        # every unit class: a(p) is a root of unity for p prime to m
        self.modulus = m
        self.support = tuple(r for r in range(m) if gcd(r, m) == 1)
        self._table = np.array([chi.value(r) for r in range(chi.conductor)],
                               dtype=np.complex128)

    def coeff_at(self, p: np.ndarray, k: int = 1) -> np.ndarray:
        vals = self._table[np.mod(p, self.chi.conductor)] ** k
        if self.tau:
            vals = vals * np.exp(1j * self.tau * k * np.log(p.astype(float)))
        return vals


class MemoisedRsSource:
    """a(p^k) of an `RsCoeffSource`'s pair as the product of its two fiber
    sums, from residue tables of every character of both fibers
    (`bc_fiber` of each member) built afresh (`fiber_residue_table_loop`),
    with the product table of each exponent k memoised on first use."""

    def __init__(self, source):
        self.modulus = source.modulus
        self.support = source.support
        self.tau0 = source.tau0
        self._left, self._right = (
            fiber_residue_table_loop(bc_fiber(pi), self.modulus)
            for pi in (source.pi, source.pi_prime))
        self._products = {}

    def _product(self, k):
        table = self._products.get(k)
        if table is None:
            table = (self._left ** k).sum(axis=0) * \
                np.conj((self._right ** k).sum(axis=0))
            self._products[k] = table
        return table

    def coeff_at(self, p, k=1):
        vals = self._product(k)[np.mod(p, self.modulus)]
        if self.tau0:
            vals = vals * np.exp(1j * self.tau0 * k * np.log(p.astype(float)))
        return vals
