"""Exact arithmetic with roots of unity.

A root of unity is carried as its rational angle q in [0, 1), meaning the
value exp(2*pi*i*q).  Integer combinations of roots of unity are compared
exactly by reducing them in Z[x]/Phi_N(x), which is isomorphic to Z[zeta_N];
two combinations are equal as complex numbers iff their reduced coefficient
vectors agree.  No floats enter until a caller explicitly asks for one.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from typing import Iterable


_QUARTER_TURNS = (complex(1.0, 0.0), complex(0.0, 1.0),
                  complex(-1.0, 0.0), complex(0.0, -1.0))


def angle_to_complex(q: Fraction) -> complex:
    """exp(2*pi*i*q), exactly 1, i, -1 or -i when 4q is an integer."""
    if 4 % q.denominator == 0:
        return _QUARTER_TURNS[q.numerator * (4 // q.denominator) % 4]
    return cmath.exp(2j * cmath.pi * (q.numerator / q.denominator))


def divisors(n: int) -> list[int]:
    if n < 1:
        raise ValueError(f"divisors of nonpositive integer {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, lowest degree first.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coeff, rem = divmod(num[shift + len(den) - 1], den[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        out[shift] = coeff
        for i, c in enumerate(den):
            num[shift + i] -= coeff * c
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _off_level(angle: Fraction, level: int) -> ValueError:
    return ValueError(f"angle {angle % 1} does not live at "
                      f"cyclotomic level {level}")


class RootContext:
    """Reduction tables for sums of N-th roots of unity.

    vector() maps a multiset {(angle, multiplicity)} to the coefficient tuple
    of its image in Z[x]/Phi_N(x).  Vectors from the same context compare
    exactly; contexts at different levels embed via a common multiple of N.
    """

    def __init__(self, level: int):
        if level < 1:
            raise ValueError(f"context level must be positive, got {level}")
        self.level = level
        phi_n = cyclotomic_polynomial(level)
        self.degree = len(phi_n) - 1
        # x^a mod Phi_N for a = 0..N-1, built by repeated multiplication by x.
        table: list[tuple[int, ...]] = []
        cur = [0] * self.degree
        if self.degree > 0:
            cur[0] = 1
        table.append(tuple(cur))
        for _ in range(1, level):
            nxt = [0] + cur[:-1] if self.degree > 0 else []
            if self.degree > 0 and cur[-1]:
                top = cur[-1]
                for i in range(self.degree):
                    nxt[i] -= top * phi_n[i]
            cur = nxt
            table.append(tuple(cur))
        self._powers = table

    def vector(self, terms: Iterable[tuple[Fraction, int]]) -> tuple[int, ...]:
        level, powers = self.level, self._powers
        acc = [0] * self.degree
        for angle, mult in terms:
            if not mult:
                continue
            den = angle.denominator
            if level % den:
                raise _off_level(angle, level)
            row = powers[angle.numerator * (level // den) % level]
            for i, c in enumerate(row):
                acc[i] += mult * c
        return tuple(acc)

    def zero(self) -> tuple[int, ...]:
        return tuple([0] * self.degree)
