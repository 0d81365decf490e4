"""Twisted-pair sets and convolution coefficients for base-change pairs.

Given cuspidal GL(1) objects pi over E and pi' over F, the product of the
L-functions of chi x conj(psi') over both base-change fibers has its poles
on Re(s) = 1 counted by the set T of structurally equal fiber pairs; the
shared twist exponent tau0 = tau_pi - tau_pi' is unique because the fiber
characters have finite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .characters import DirichletChar, euler_phi, extensions, is_prime
from .cyclotomic import angle_to_complex
from .fields import AbelianField
from .automorphic import GalHeckeChar, bc_fiber
from .pnt import prime_powers, residues_of


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


def thm1_1_applies(e: AbelianField, f: AbelianField) -> bool:
    """Both fields of the same prime degree and distinct."""
    return (e.degree == f.degree and is_prime(e.degree) and e != f)


def thm1_2_applies(e: AbelianField, f: AbelianField) -> bool:
    """Coprime degrees, the single-pair counting regime."""
    return gcd(e.degree, f.degree) == 1


class RsCoeffSource:
    """Streaming convolution coefficients a(p^k), vectorized over primes.

    A fiber sums to [E:Q] chi_0(n) 1[n in H_E] (`split_classes`), so a(p^k)
    = `scale` xi(p^k) 1_H(p^k) p^{i k tau0} with `scale` = [E:Q][F:Q], xi =
    chi_0 conj(psi_0) and H = H_E cap H_F mod the common modulus M, the
    classes `support`.  chi_0 and psi_0 are the first extensions of omega
    and omega' (`extensions(...)[0]`).  Untwisted, a(p^k) is `_table` at
    p^k mod M: scale zeta_N^e on H, e from xi's integer `exponents` on its
    primitive level N, and an exact 0 off H for every k.  The primes
    dividing M, the ramified ones, are excluded from every sum.

    The pole count |T| is read from the same table, by orthogonality on H:
    `multiplicity` = [E:Q][F:Q] |H| / phi(M) = [E cap F:Q] when xi is 1 on
    H, and 0 otherwise.  The fibers are the cosets chi_0 A_E and psi_0 A_F
    of the characters trivial on H_E and on H_F.  They share a character
    exactly when xi lies in A_E A_F, the characters trivial on H, and then
    meet in a coset of A_E cap A_F, the characters of Gal(E cap F / Q); by
    the Galois correspondence for abelian fields (Washington, *Introduction
    to Cyclotomic Fields*, ch. 3) [EF:Q] = phi(M) / |H|, so that coset has
    [E:Q][F:Q] / [EF:Q] members.
    """

    def __init__(self, pi: GalHeckeChar, pi_prime: GalHeckeChar):
        self.pi = pi
        self.pi_prime = pi_prime
        self.tau0 = (pi.tau - pi_prime.tau)
        self.modulus = lcm(pi.field.modulus, pi_prime.field.modulus)
        self.support = split_classes(pi.field, pi_prime.field, self.modulus)
        self.scale = pi.field.degree * pi_prime.field.degree
        chi_0 = extensions(pi.omega, pi.field.ambient)[0]
        psi_0 = extensions(pi_prime.omega, pi_prime.field.ambient)[0]
        xi = chi_0 * psi_0.conjugate()
        self.exponents = xi.exponents_at(np.arange(self.modulus))
        on = list(self.support)
        count, rest = divmod(self.scale * len(on), euler_phi(self.modulus))
        if rest:
            raise ArithmeticError(
                f"[E:Q][F:Q] |H| = {self.scale * len(on)} is not a multiple "
                f"of phi({self.modulus})")
        self.multiplicity = 0 if self.exponents[on].any() else count
        roots = _roots_of_unity(xi.primitive().group.exponent)
        self._table = np.zeros(self.modulus, dtype=np.complex128)
        self._table[on] = self.scale * roots[self.exponents[on]]

    def coeff_at(self, p: np.ndarray, k: int = 1) -> np.ndarray:
        """a(p^k) for an int64 array of primes: one gather from the residue
        table at p^k mod M, formed from p mod M by squaring residues."""
        r = residues_of(p, self.modulus)
        vals = self._table[_power_mod(r, k, self.modulus)]
        if self.tau0:
            vals = vals * np.exp(1j * self.tau0 * k * np.log(p.astype(float)))
        return vals


def _power_mod(r: np.ndarray, k: int, modulus: int) -> np.ndarray:
    """r^k mod `modulus` for residues r and k >= 1, by square-and-multiply:
    products stay below modulus^2, where p^k would overflow int64."""
    out = r
    for bit in bin(k)[3:]:
        out = out * out % modulus
        if bit == "1":
            out = out * r % modulus
    return out


def split_classes(e: AbelianField, f: AbelianField, modulus: int
                  ) -> tuple[int, ...]:
    """The residues r mod `modulus`, the lcm of the two field moduli, with
    r in H_E and r in H_F, ascending: the classes of the primes that split
    completely in both fields.  H_E and H_F hold units only, so every such
    r is a unit mod `modulus`.

    The fiber of pi over E is the [E:Q] characters extending omega from
    H_E, a coset chi_0 A_E of the characters trivial on H_E, so by their
    orthogonality its sum at a unit n is [E:Q] chi_0(n) on H_E and 0 off
    it (Washington, *Introduction to Cyclotomic Fields*, ch. 3).  A pair's
    a(p) is therefore nonzero, of absolute value [E:Q][F:Q], exactly on
    these classes.  Computed from the subgroups in integers.
    """
    residues = np.arange(modulus, dtype=np.int64)
    keep = np.ones(modulus, dtype=bool)
    for field in (e, f):
        keep &= np.isin(residues % field.modulus, sorted(field.subgroup))
    return tuple(np.flatnonzero(keep).tolist())


@lru_cache(maxsize=None)
def _roots_of_unity(level: int) -> np.ndarray:
    """exp(2 pi i a / level) for a in [0, level), then a 0 at index level, so
    a gather at exponent -1 (a zero value) reads 0.  Read-only."""
    roots = np.array([angle_to_complex(Fraction(a, level))
                      for a in range(level)] + [0j], dtype=np.complex128)
    roots.flags.writeable = False
    return roots


def twist_absorption_check(chi: DirichletChar, xi: DirichletChar,
                           pi_q: DirichletChar, pi_q_prime: DirichletChar,
                           limit: int) -> bool:
    """Exact coefficientwise identity between twisting the left factor by chi
    against xi, and absorbing both into a single twist by chi^{-1} xi.

    Both sides are computed independently as products of primitive character
    values over `prime_powers(limit, bad)`, with `bad` the lcm of the four
    input conductors, so the primes dividing any of them are excluded on
    both sides.  Each value is the integer exponent a of chi(n) = zeta_N^a
    on its primitive character's group exponent N (`exponents_at`, over
    every remaining p^k <= limit at once), scaled to the lcm L of the four
    N, so the comparison is exact integer arithmetic mod L.  The scaled
    combination lies in (-2L, 2L): it is formed in int64 when 2L < 2^63
    and in Python integers otherwise, so the result is exact at any level.

    No value is zero.  The conductor of a product of characters divides the
    lcm of their conductors, and conjugation keeps the conductor, so each of
    the four characters compared has its conductor dividing the lcm of the
    four input conductors, whose primes are the excluded ones.  Every
    remaining p^k is therefore prime to each primitive conductor, and its
    value is a root of unity.  Returns True only when the exponents agree
    mod L at every remaining p^k <= limit.
    """
    left_a = pi_q * chi
    left_b = pi_q_prime * xi
    right_a = pi_q
    right_b = pi_q_prime * (chi.conjugate() * xi)
    bad = lcm(chi.conductor, xi.conductor,
              pi_q.conductor, pi_q_prime.conductor)
    chars = (left_a, left_b, right_a, right_b)
    levels = [c.primitive().group.exponent for c in chars]
    level = lcm(*levels)
    _, _, n = prime_powers(limit, bad)
    dtype = np.int64 if 2 * level < 2 ** 63 else object
    sa, sb, ta, tb = (level // v for v in levels)
    la, lb, ra, rb = (c.exponents_at(n).astype(dtype) for c in chars)
    return not np.any((la * sa - lb * sb - ra * ta + rb * tb) % level)
