"""Independent psi(x) reference for the PNT workloads.

Nothing here uses the library's sieve, its coefficient tables or its
summation.  Primes come from an odd-only segmented sieve with a wheel for
3..13, and coefficients from the route over E (`coeff_data_over_e`, one side
of the factorization identity), while `RsCoeffSource` reads the fibers over
Q.  For p not dividing the pair modulus M,

    a(p^k) = c_pi(p^k) * conj(c_pi'(p^k)) * p^{i k tau0},

and c(p) depends only on p mod M, so the primes are summed per residue
class with `np.bincount` and weighted by a table of c(r) afterwards.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from bclab.automorphic import coeff_data_over_e

SEGMENT = 1 << 21
WHEEL = (3, 5, 7, 11, 13)
_PERIOD = math.prod(WHEEL)
# index i <-> odd number 2i + 1; False on odd multiples of the wheel primes
_PATTERN = np.ones(_PERIOD, dtype=bool)
for _p in WHEEL:
    _PATTERN[(_p - 1) // 2::_p] = False


def small_primes(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask)


def prime_segments(x: int, cuts=()):
    """Yield (lo, hi, primes in [lo, hi)) covering [2, x], with a segment
    edge after every cut."""
    base = [int(p) for p in small_primes(math.isqrt(x)) if p > WHEEL[-1]]
    edges = set(range(2, x + 1, SEGMENT)) | {x + 1}
    edges.update(c + 1 for c in cuts if 2 <= c <= x)
    edges = sorted(edges)
    for lo, hi in zip(edges[:-1], edges[1:]):
        first = lo | 1
        n = max(0, (hi - first + 1) // 2)
        offset = (first // 2) % _PERIOD
        mask = np.tile(_PATTERN, (offset + n) // _PERIOD + 1)[offset:offset + n]
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-first // p) * p)
            if start % 2 == 0:
                start += p
            mask[(start - first) // 2::p] = False
        primes = first + 2 * np.flatnonzero(mask)
        if lo <= WHEEL[-1]:
            small = [p for p in (2,) + WHEEL if lo <= p < hi]
            primes = np.concatenate((np.array(small, dtype=np.int64),
                                     primes[primes > WHEEL[-1]]))
        yield lo, hi, primes


def over_e(pi, p: int, j: int) -> complex:
    """Coefficient of pi at p^j by the route over E, without the twist."""
    data = coeff_data_over_e(pi, p, j)
    if data is None:
        return 0j
    mult, angle = data
    return mult * cmath.exp(2j * cmath.pi * float(angle))


class PairReference:
    """Residue table and twist of one pair, built from the route over E."""

    def __init__(self, pi, pi_prime):
        self.pi = pi
        self.pi_prime = pi_prime
        self.modulus = math.lcm(pi.field.modulus, pi_prime.field.modulus)
        self.tau0 = pi.tau - pi_prime.tau
        m = self.modulus
        self.table = np.array(
            [self.coeff(r, 1) if math.gcd(r, m) == 1 else 0j
             for r in range(m)], dtype=np.complex128)

    def coeff(self, p: int, k: int) -> complex:
        return over_e(self.pi, p, k) * over_e(self.pi_prime, p, k).conjugate()


def reference_psi(pairs, x: int, checkpoints) -> list[list[complex]]:
    """psi at each checkpoint for each (pi, pi_prime), to be compared with
    psi_sum's report within 1e-6 * checkpoint."""
    cps = sorted(checkpoints)
    refs = [PairReference(pi, pi_prime) for pi, pi_prime in pairs]
    parts = [[0j] * len(cps) for _ in refs]
    for lo, _, primes in prime_segments(x, cps):
        where = int(np.searchsorted(cps, lo))  # first checkpoint >= lo
        logs = np.log(primes.astype(np.float64))
        for ref, part in zip(refs, parts):
            res = primes % ref.modulus
            if ref.tau0:
                w = logs * np.exp(1j * ref.tau0 * logs)
                hist = (np.bincount(res, w.real, ref.modulus)
                        + 1j * np.bincount(res, w.imag, ref.modulus))
            else:
                hist = np.bincount(res, logs, ref.modulus)
            part[where] += complex(np.dot(ref.table, hist))
    for p in small_primes(math.isqrt(x)).tolist():
        lg = math.log(p)
        for ref, part in zip(refs, parts):
            if ref.modulus % p == 0:
                continue
            k, n = 2, p * p
            while n <= x:
                where = int(np.searchsorted(cps, n))
                twist = cmath.exp(1j * ref.tau0 * k * lg)
                part[where] += lg * ref.coeff(p, k) * twist
                k += 1
                n *= p
    return [list(np.cumsum(part)) for part in parts]
