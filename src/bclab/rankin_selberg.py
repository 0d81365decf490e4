"""Twisted-pair sets and convolution coefficients for base-change pairs.

Given cuspidal GL(1) objects pi over E and pi' over F, the product of the
L-functions of chi x conj(psi') over both base-change fibers has its poles
on Re(s) = 1 counted by the set T of structurally equal fiber pairs; the
shared twist exponent tau0 = tau_pi - tau_pi' is unique because the fiber
characters have finite order.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .characters import DirichletChar, factorize, is_prime
from .fields import AbelianField
from .automorphic import GalHeckeChar, TWIST_TOL, bc_fiber
from .pnt import sieve_primes


@dataclass(frozen=True)
class TwistedPairSet:
    """Index pairs (i, j) into the two fibers that agree up to |det|^{i tau0}."""

    pairs: tuple[tuple[int, int], ...]
    tau0: float | None
    fiber_left: tuple
    fiber_right: tuple

    @property
    def size(self) -> int:
        return len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "size": self.size,
            "tau0": self.tau0,
            "fiber_left": [chi.to_json_dict() for chi, _ in self.fiber_left],
            "fiber_right": [chi.to_json_dict() for chi, _ in self.fiber_right],
        }


def twisted_pairs(pi: GalHeckeChar, pi_prime: GalHeckeChar) -> TwistedPairSet:
    """All fiber pairs (chi_i, psi_j) with chi_i = psi_j structurally.

    Each fiber element can appear in at most one pair, and every pair shares
    the twist tau0 = tau_pi - tau_pi'; both facts are asserted, a violation
    would mean the fibers themselves are broken.
    """
    left = bc_fiber(pi)
    right = bc_fiber(pi_prime)
    index_right = {chi.key: j for j, (chi, _) in enumerate(right)}
    if len(index_right) != len(right):
        raise ArithmeticError("right fiber contains repeated characters")
    pairs = []
    for i, (chi, _) in enumerate(left):
        j = index_right.get(chi.key)
        if j is not None:
            pairs.append((i, j))
    if len({i for i, _ in pairs}) != len(pairs) or \
            len({j for _, j in pairs}) != len(pairs):
        raise ArithmeticError("a fiber element sits in two twisted pairs")
    tau0 = pi.tau - pi_prime.tau if pairs else None
    return TwistedPairSet(tuple(pairs), tau0, tuple(left), tuple(right))


def pole_multiplicity(pi: GalHeckeChar, pi_prime: GalHeckeChar
                      ) -> tuple[int, float | None]:
    """(m, tau0): the convolution has a pole of order m at s = 1 + i*tau0,
    and is pole-free on Re(s) = 1 when m = 0."""
    t = twisted_pairs(pi, pi_prime)
    return t.size, t.tau0


def thm1_1_applies(e: AbelianField, f: AbelianField) -> bool:
    """Both fields of the same prime degree and distinct."""
    return (e.degree == f.degree and is_prime(e.degree) and e != f)


def thm1_2_applies(e: AbelianField, f: AbelianField) -> bool:
    """Coprime degrees, the single-pair counting regime."""
    return gcd(e.degree, f.degree) == 1


def pair_modulus(pi: GalHeckeChar, pi_prime: GalHeckeChar) -> int:
    return lcm(pi.field.modulus, pi_prime.field.modulus)


def ramified_primes(pi: GalHeckeChar, pi_prime: GalHeckeChar) -> frozenset[int]:
    """Primes excluded from every Euler product and partial sum for the pair:
    the prime divisors of the common ambient modulus."""
    return frozenset(p for p, _ in factorize(pair_modulus(pi, pi_prime)))


class RsCoeffSource:
    """Streaming convolution coefficients a(p^k), vectorized over primes.

    a(p^k) = (sum_i chi_i(p^k)) * conj(sum_j psi_j(p^k)) * p^{i k tau0},
    evaluated through residue tables modulo the common ambient modulus.
    """

    def __init__(self, pi: GalHeckeChar, pi_prime: GalHeckeChar):
        self.pi = pi
        self.pi_prime = pi_prime
        self.pair_set = twisted_pairs(pi, pi_prime)
        self.multiplicity = self.pair_set.size
        self.tau0 = (pi.tau - pi_prime.tau)
        self.modulus = pair_modulus(pi, pi_prime)
        self.excluded_primes = ramified_primes(pi, pi_prime)
        self._left = _fiber_residue_table(self.pair_set.fiber_left, self.modulus)
        self._right = _fiber_residue_table(self.pair_set.fiber_right, self.modulus)
        self._products: dict[int, np.ndarray] = {}

    def _product(self, k: int) -> np.ndarray:
        """Residue table of (sum_i chi_i^k) * conj(sum_j psi_j^k)."""
        table = self._products.get(k)
        if table is None:
            table = (self._left ** k).sum(axis=0) * \
                np.conj((self._right ** k).sum(axis=0))
            self._products[k] = table
        return table

    def coeff_at(self, p: np.ndarray, k: int = 1) -> np.ndarray:
        vals = self._product(k)[np.mod(p, self.modulus)]
        if self.tau0:
            vals = vals * np.exp(1j * self.tau0 * k * np.log(p.astype(float)))
        return vals


def _fiber_residue_table(fiber, modulus: int) -> np.ndarray:
    table = np.zeros((len(fiber), modulus), dtype=np.complex128)
    for row, (chi, _) in enumerate(fiber):
        for r in range(modulus):
            q = chi.angle(r)
            if q is not None:
                table[row, r] = cmath.exp(2j * cmath.pi * float(q))
    return table


@dataclass
class RsSeries:
    """Coefficient table of the convolution on prime powers up to a limit."""

    coefficients: dict[int, complex]
    limit: int
    pair_set: TwistedPairSet
    multiplicity: int
    tau0: float | None
    excluded_primes: frozenset[int]


def rs_coefficients(pi: GalHeckeChar, pi_prime: GalHeckeChar, limit: int
                    ) -> RsSeries:
    """Convolution coefficients a(p^k) for all prime powers p^k <= limit,
    with primes dividing the common modulus excluded."""
    if limit < 2:
        raise ValueError(f"coefficient limit must be at least 2, got {limit}")
    source = RsCoeffSource(pi, pi_prime)
    coeffs: dict[int, complex] = {}
    for p in sieve_primes(limit).tolist():
        if p in source.excluded_primes:
            continue
        k = 1
        n = p
        while n <= limit:
            coeffs[n] = complex(source.coeff_at(np.array([p]), k)[0])
            k += 1
            n *= p
    return RsSeries(coeffs, limit, source.pair_set, source.multiplicity,
                    source.pair_set.tau0, source.excluded_primes)


def twist_absorption_check(chi: DirichletChar, xi: DirichletChar,
                           pi_q: DirichletChar, pi_q_prime: DirichletChar,
                           limit: int) -> bool:
    """Exact coefficientwise identity between twisting the left factor by chi
    against xi, and absorbing both into a single twist by chi^{-1} xi.

    Both sides are computed independently as products of primitive character
    values; primes dividing any conductor involved are excluded consistently.
    Returns True only on exact agreement at every remaining p^k <= limit.
    """
    left_a = pi_q * chi
    left_b = pi_q_prime * xi
    right_a = pi_q
    right_b = pi_q_prime * (chi.conjugate() * xi)
    bad = lcm(chi.conductor, xi.conductor,
              pi_q.conductor, pi_q_prime.conductor)
    excluded = {p for p, _ in factorize(bad)}
    for p in sieve_primes(limit).tolist():
        if p in excluded:
            continue
        n = p
        while n <= limit:
            la = left_a.angle(n)
            lb = left_b.angle(n)
            ra = right_a.angle(n)
            rb = right_b.angle(n)
            left_zero = la is None or lb is None
            right_zero = ra is None or rb is None
            if left_zero != right_zero:
                return False
            if not left_zero and (la - lb) % 1 != (ra - rb) % 1:
                return False
            n *= p
    return True


def conjugation_swap_consistent(pi: GalHeckeChar, pi_prime: GalHeckeChar,
                                limit: int = 500, tol: float = 1e-12) -> bool:
    """Swapping the two members conjugates every coefficient and negates tau0."""
    fwd = RsCoeffSource(pi, pi_prime)
    bwd = RsCoeffSource(pi_prime, pi)
    if fwd.multiplicity != bwd.multiplicity:
        return False
    if fwd.multiplicity and abs(fwd.tau0 + bwd.tau0) > TWIST_TOL:
        return False
    ps = np.array([p for p in sieve_primes(limit).tolist()
                   if p not in fwd.excluded_primes], dtype=np.int64)
    if not ps.size:
        raise ValueError(f"no unramified prime up to limit {limit}")
    for k in (1, 2, 3):
        if np.max(np.abs(fwd.coeff_at(ps, k) - np.conj(bwd.coeff_at(ps, k)))) > tol:
            return False
    return True
