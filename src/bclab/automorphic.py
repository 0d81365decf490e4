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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .characters import (
    DirichletChar,
    SubgroupChar,
    extensions,
    restrict_char,
)
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
    """Cuspidal GL(1) object over E: a character of H_E with a unitary twist."""

    field: AbelianField
    omega: SubgroupChar
    tau: float = 0.0

    def __post_init__(self):
        if self.omega.group != self.field.ambient:
            raise ValueError(
                f"omega lives mod {self.omega.group.modulus} but the field "
                f"is presented mod {self.field.modulus}"
            )
        if self.omega.elements != self.field.subgroup:
            raise ValueError("omega is not a character of the field's subgroup")

    def conjugate(self) -> "GalHeckeChar":
        return GalHeckeChar(self.field, self.omega.conjugate(), -self.tau)

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
    coefficients are the componentwise sums.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple((chi, float(tau)) for chi, tau in components)
        for i, a in enumerate(components):
            for b in components[i + 1:]:
                if twisted_equal(a, b):
                    raise ValueError(
                        "isobaric components must be pairwise distinct"
                    )
        self.components = components

    @property
    def degree(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        return f"IsobaricSum(degree {self.degree})"


def cuspidal_over(field: AbelianField, omega: SubgroupChar, tau: float = 0.0,
                  rank: int = 1) -> GalHeckeChar:
    """Build a cuspidal object over E.  Only rank 1 carries effective data."""
    if rank != 1:
        raise ValueError(
            f"rank-{rank} cuspidal data over an extension has no effective "
            "Satake parameters here; only rank 1 (characters) is constructible"
        )
    return GalHeckeChar(field, omega, float(tau))


def trivial_over(field: AbelianField, tau: float = 0.0) -> GalHeckeChar:
    omega = SubgroupChar(field.ambient,
                         {u: Fraction(0) for u in field.subgroup}, check=False)
    return GalHeckeChar(field, omega, float(tau))


def base_change(source, field: AbelianField, tau: float | None = None
                ) -> GalHeckeChar:
    """Restrict a twisted character to the subgroup fixing the target field.

    Accepts either a DirichletChar over Q (optionally with tau) or an
    existing GalHeckeChar over a subfield of the target.
    """
    if isinstance(source, GalHeckeChar):
        if tau is not None:
            raise ValueError("tau is carried by the source object")
        if field.modulus % source.field.modulus != 0:
            raise ValueError(
                f"incompatible moduli: source mod {source.field.modulus}, "
                f"target mod {field.modulus}"
            )
        lifted = source.field.lift_to(field.ambient)
        omega_big = SubgroupChar(
            field.ambient,
            {u: source.omega.angle(u % source.field.modulus)
             for u in lifted.subgroup},
            check=False,
        )
        if not field.subgroup <= omega_big.elements:
            raise ValueError("target field is not an extension of the source's")
        return GalHeckeChar(field, omega_big.restrict(field.subgroup),
                            source.tau)
    chi: DirichletChar = source
    chi = chi.lift_to(field.ambient) if chi.modulus != field.modulus else chi
    omega = restrict_char(chi, field.subgroup)
    return GalHeckeChar(field, omega, float(tau or 0.0))


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


def frobenius_degree(pi: GalHeckeChar, p: int) -> int:
    """Order of p in Gal(E/Q); requires p coprime to the ambient modulus."""
    return order_mod_subgroup(pi.field.modulus, pi.field.subgroup, p)


def coeff_data_over_e(pi: GalHeckeChar, p: int, j: int
                      ) -> tuple[int, Fraction] | None:
    """Exact coefficient of pi at p^j as (integer multiple, angle), or None.

    The coefficient is f_p * g_p * omega(p^{f_p})^k when j = f_p * k, and
    zero otherwise.  The unitary twist is not included here.
    """
    m = pi.field.modulus
    if m > 1 and math.gcd(p, m) != 1:
        return None
    f_p = frobenius_degree(pi, p)
    if j % f_p != 0:
        return None
    k = j // f_p
    g_p = pi.field.degree // f_p
    frob = pow(p, f_p, m) if m > 1 else 0
    angle = (pi.omega.angle(frob) * k) % 1
    return f_p * g_p, angle


def coeff_angles_over_q(sum_: IsobaricSum, p: int, j: int) -> list[Fraction]:
    """Angles of the nonzero component values chi(p^j); twists not included."""
    out = []
    for chi, _ in sum_.components:
        q = chi.angle(pow(p, j))
        if q is not None:
            out.append(q)
    return out


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
            val = mult * cmath.exp(2j * cmath.pi * float(angle))
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


def is_self_contragredient(chi: DirichletChar, tau: float = 0.0) -> bool:
    """A twisted character equals its contragredient iff chi^2 = 1 and tau = 0."""
    return chi.order <= 2 and abs(tau) <= TWIST_TOL
