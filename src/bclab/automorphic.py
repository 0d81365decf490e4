"""GL(1) automorphic objects of Galois type over abelian fields.

A cuspidal object over E is a character of the subgroup fixing E together
with a real unitary twist tau (the exponent of |det|^{i tau}); base change
from Q is restriction, automorphic induction is the isobaric sum of the
fiber of characters lying above, and local coefficients are exact roots of
unity scaled by splitting multiplicities.

The unitary twist contributes n^{i tau} to the coefficient at n, so over E a
place of residue degree f over p multiplies the Satake parameter by p^{i f tau}.
Twisted equality of characters means structural equality plus agreement of
the twists to TWIST_TOL.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .characters import (
    DirichletChar,
    SubgroupChar,
    _angle,
    extensions,
    restrict_char,
    trivial_char,
)
from .cyclotomic import angle_to_complex
from .fields import AbelianField, order_mod_subgroup

TWIST_TOL = 1e-12


class LocalCoeff(NamedTuple):
    n: int
    value: complex


def twisted_equal(a: tuple[DirichletChar, float],
                  b: tuple[DirichletChar, float]) -> bool:
    return a[0] == b[0] and abs(a[1] - b[1]) <= TWIST_TOL


@dataclass(frozen=True, eq=False)
class GalHeckeChar:
    """Cuspidal GL(1) object over E: a character of H_E with a unitary twist.

    Its local data at a prime p, the residue degree f_p and the value
    omega(p^{f_p}), depend on p only through p mod m, the modulus E is
    presented at: for p prime to m the Frobenius of p in Gal(E/Q) =
    (Z/mZ)^x / H_E is the class of p (Washington, *Introduction to
    Cyclotomic Fields*, ch. 3), and for the other p the coefficients are 0.
    `coeff_data_over_e` memoizes them here per residue, at most m entries.
    The memo lives on the object, never in a table keyed by the object or
    its field, whose equality ignores the modulus.
    """

    field: AbelianField
    omega: SubgroupChar
    tau: float = 0.0
    _frobenius: dict[int, tuple[int, int, int] | None] = dataclasses.field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.omega.group != self.field.ambient:
            raise ValueError(
                f"omega lives mod {self.omega.group.modulus} but the field "
                f"is presented mod {self.field.modulus}"
            )
        if self.omega.elements != self.field.subgroup:
            raise ValueError("omega is not a character of the field's subgroup")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GalHeckeChar)
                and other.field == self.field
                and other.omega == self.omega
                and abs(other.tau - self.tau) <= TWIST_TOL)

    def __hash__(self) -> int:
        return hash((self.field.key, self.omega.key))

    def __repr__(self) -> str:
        return (f"GalHeckeChar(field deg {self.field.degree} "
                f"cond {self.field.conductor}, omega order {self.omega.order}, "
                f"tau={self.tau})")


class IsobaricSum:
    """Formal sum of twisted Dirichlet characters over Q.

    The L-function of the sum is the product of the components', so its
    coefficients are the componentwise sums.  Each chi(n) depends on n only
    mod the conductor of chi, so all of them depend on n only mod the lcm L
    of the conductors; `coeff_angles_over_q` memoizes the nonzero angles
    here per residue n mod L, at most L entries.
    """

    __slots__ = ("components", "_level", "_angles")

    def __init__(self, components):
        components = tuple((chi, float(tau)) for chi, tau in components)
        for i, a in enumerate(components):
            for b in components[i + 1:]:
                if twisted_equal(a, b):
                    raise ValueError(
                        "isobaric components must be pairwise distinct"
                    )
        self.components = components
        self._level = math.lcm(*(chi.conductor for chi, _ in components))
        self._angles: dict[int, tuple[Fraction, ...]] = {}

    @property
    def degree(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"IsobaricSum(degree {self.degree})"


def trivial_over(field: AbelianField, tau: float = 0.0) -> GalHeckeChar:
    omega = restrict_char(trivial_char(field.modulus), field.subgroup)
    return GalHeckeChar(field, omega, float(tau))


def base_change(chi: DirichletChar, field: AbelianField, tau: float = 0.0
                ) -> GalHeckeChar:
    """Restrict a twisted character over Q to the subgroup fixing the field."""
    omega = restrict_char(chi.lift_to(field.ambient), field.subgroup)
    return GalHeckeChar(field, omega, float(tau or 0.0))  # -0.0 becomes 0.0


def bc_fiber(pi: GalHeckeChar) -> list[tuple[DirichletChar, float]]:
    """The [E:Q] distinct twisted characters over Q lifting to pi.

    These form a coset of the characters trivial on H_E; each one base
    changes back to pi and they are pairwise structurally distinct.
    """
    chars = extensions(pi.omega, pi.field.ambient)
    return [(chi, pi.tau) for chi in chars]


def automorphic_induction(pi: GalHeckeChar) -> IsobaricSum:
    """Isobaric sum over Q with the same L-function as pi over E."""
    return IsobaricSum(bc_fiber(pi))


def _frobenius_entry(pi: GalHeckeChar, r: int) -> tuple[int, int, int] | None:
    """(f_p, a, N) with omega(p^{f_p}) = zeta_N^a for every p = r mod the
    modulus, or None when r is not a unit there."""
    m = pi.field.modulus
    if m > 1 and math.gcd(r, m) != 1:
        return None
    f_p = order_mod_subgroup(m, pi.field.subgroup, r)
    frob = pow(r, f_p, m) if m > 1 else 0
    return (f_p, *pi.omega.value_exponent(frob))


def coeff_data_over_e(pi: GalHeckeChar, p: int, j: int
                      ) -> tuple[int, Fraction] | None:
    """Exact coefficient of pi at p^j as (integer multiple, angle), or None.

    The coefficient is f_p * g_p * omega(p^{f_p})^k = [E:Q] *
    omega(p^{f_p})^k when j = f_p * k, and zero otherwise.  The unitary
    twist is not included here.  p enters only through p mod m, so f_p and
    omega(p^{f_p}) are read from pi's per-residue memo (`GalHeckeChar`).
    """
    r = p % pi.field.modulus
    memo = pi._frobenius
    try:
        entry = memo[r]
    except KeyError:
        entry = memo[r] = _frobenius_entry(pi, r)
    if entry is None:
        return None
    f_p, a, level = entry
    if j % f_p:
        return None
    return pi.field.degree, _angle(a * (j // f_p) % level, level)


def coeff_angles_over_q(sum_: IsobaricSum, p: int, j: int) -> list[Fraction]:
    """Angles of the nonzero component values chi(p^j); twists not included.

    p^j enters only through p^j mod L, the lcm of the components'
    conductors, so the angles are read from the sum's per-residue memo
    (`IsobaricSum`); the list returned is the caller's own.
    """
    n = pow(p, j, sum_._level)
    memo = sum_._angles
    try:
        angles = memo[n]
    except KeyError:
        angles = memo[n] = tuple(
            q for q in (chi.angle(n) for chi, _ in sum_.components)
            if q is not None)
    return list(angles)


def local_coeffs_over_e(pi: GalHeckeChar, p: int, k_max: int
                        ) -> list[LocalCoeff]:
    """Coefficients a(p^j) for j = 1..k_max; empty when p divides the modulus.

    Support sits on exponents divisible by the residue degree f_p, where
    a(p^{f_p k}) = f_p g_p omega(p^{f_p})^k (p^{f_p k})^{i tau}.
    """
    m = pi.field.modulus
    if m > 1 and math.gcd(p, m) != 1:
        return []
    out = []
    for j in range(1, k_max + 1):
        data = coeff_data_over_e(pi, p, j)
        if data is None:
            out.append(LocalCoeff(p ** j, 0j))
        else:
            mult, angle = data
            val = mult * angle_to_complex(angle)
            if pi.tau:
                val *= cmath.exp(1j * pi.tau * j * math.log(p))
            out.append(LocalCoeff(p ** j, val))
    return out


def local_coeffs_over_q(sum_: IsobaricSum, p: int, k_max: int
                        ) -> list[LocalCoeff]:
    """Coefficients of the isobaric sum: a(p^j) = sum_c chi_c(p^j) p^{i j tau_c}."""
    out = []
    for j in range(1, k_max + 1):
        n = p ** j
        val = 0j
        for chi, tau in sum_.components:
            term = chi.value(n)
            if term and tau:
                term *= cmath.exp(1j * tau * j * math.log(p))
            val += term
        out.append(LocalCoeff(n, val))
    return out
