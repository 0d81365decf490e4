"""Acceptance checks: each one exercises a pillar of the library end to end
and reports pass/fail with a one-line detail.  The CLI `verify` subcommand and
the test suite both run these.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .characters import (
    DirichletChar,
    extensions,
    subgroup_characters,
    trivial_char,
    unit_group,
)
from .cyclotomic import RootContext
from .fields import AbelianField, fields_up_to_conductor, make_field
from .automorphic import (
    GalHeckeChar,
    automorphic_induction,
    base_change,
    coeff_angles_over_q,
    coeff_data_over_e,
    trivial_over,
)
from .rankin_selberg import (
    RsCoeffSource,
    thm1_1_applies,
    thm1_2_applies,
    twist_absorption_check,
    twisted_pairs,
)
from .twist_counts import coprime_count, cross_check_pair_count, noncuspidal_orbit
from .pnt import decay_check, predicted_main_term, prime_powers, psi_sum


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _oracle_primes(limit: int) -> np.ndarray:
    # Independent odd-only sieve, kept apart from the library's own.
    if limit < 3:
        return np.array([2][: max(0, limit - 1)], dtype=np.int64)
    size = (limit - 1) // 2
    mask = bytearray([1]) * size  # index i <-> odd number 2i + 3
    i = 0
    while (2 * i + 3) * (2 * i + 3) <= limit:
        if mask[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            mask[start::p] = bytearray(len(range(start, size, p)))
        i += 1
    odds = np.flatnonzero(np.frombuffer(mask, np.uint8)) * 2 + 3
    return np.concatenate(([2], odds))


def _quadratic_values(primes: np.ndarray, modulus: int,
                      residues_plus: tuple) -> np.ndarray:
    res = primes % modulus
    vals = np.where(np.isin(res, residues_plus), 1.0, -1.0)
    vals[np.gcd(primes, modulus) != 1] = 0.0
    return vals


def _psi_direct_product_pair(limit: int) -> float:
    """Direct oracle for the quadratic-pair configuration: sum over prime
    powers of log p * (1 + chi5(p^k)) * (1 + chi4(p^k)), p not in {2, 5}."""
    primes = _oracle_primes(limit)
    keep = (primes != 2) & (primes != 5)
    chi5 = _quadratic_values(primes, 5, (1, 4))
    chi4 = _quadratic_values(primes, 4, (1,))
    logs = np.log(primes.astype(float))
    total = float(np.sum(
        logs[keep] * (1 + chi5[keep]) * (1 + chi4[keep])))
    for p, c5, c4, lg in zip(primes[primes <= math.isqrt(limit)],
                             chi5[primes <= math.isqrt(limit)],
                             chi4[primes <= math.isqrt(limit)],
                             logs[primes <= math.isqrt(limit)]):
        if p in (2, 5):
            continue
        n, k = int(p) * int(p), 2
        while n <= limit:
            total += lg * (1 + c5 ** k) * (1 + c4 ** k)
            k += 1
            n *= int(p)
    return total


def _psi_direct_dihedral(limit: int) -> float:
    """Direct oracle: sum of log p * |theta(p^k) + theta^3(p^k)|^2, which is
    4 when p^k = +-1 mod 5 and 0 otherwise."""
    primes = _oracle_primes(limit)
    logs = np.log(primes.astype(float))
    keep = primes % 5 != 0
    res = primes % 5
    total = float(np.sum(logs[keep & np.isin(res, (1, 4))] * 4.0))
    for p, lg in zip(primes[primes <= math.isqrt(limit)],
                     logs[primes <= math.isqrt(limit)]):
        if p == 5:
            continue
        n, k = int(p) * int(p), 2
        while n <= limit:
            if pow(int(p), k, 5) in (1, 4):
                total += 4.0 * lg
            k += 1
            n *= int(p)
    return total


def _sqrt5_field() -> AbelianField:
    return make_field(5, [4])


def _theta() -> DirichletChar:
    return DirichletChar(unit_group(5), [1])


# ---------------------------------------------------------------------------

def check_factorization(limit: int = 100_000) -> tuple[bool, str]:
    """Coefficients over E equal the fiber-product coefficients over Q,
    exactly: at every unit p mod 5 and j = 1..4, a complete residue system
    since both sides depend on p only mod 5 and on j only mod exp(5) = 4,
    and at all prime powers up to the limit."""
    ctx = RootContext(4)
    configs = []
    for field in (_sqrt5_field(), make_field(5, [])):
        for chi in (trivial_char(5), _theta()):
            configs.append(base_change(chi, field))
    residues = [(r, j) for r in range(1, 5) for j in range(1, 5)]
    ps, ks, _ = prime_powers(limit, 5)
    powers = list(zip(ps.tolist(), ks.tolist()))
    for pi in configs:
        ai = automorphic_induction(pi)
        for p, j in residues + powers:
            over_e = coeff_data_over_e(pi, p, j)
            left = ctx.zero() if over_e is None else \
                ctx.vector([(over_e[1], over_e[0])])
            right = ctx.vector(
                [(a, 1) for a in coeff_angles_over_q(ai, p, j)])
            if left != right:
                return False, (f"mismatch at p={p}, j={j} for {pi}")
    return True, (f"{len(configs) * len(powers)} prime-power coefficients "
                  f"and all {len(configs) * len(residues)} classes "
                  f"(p mod 5, j mod 4) agree exactly")


def check_cuspidal_main_term(limit: int = 10_000_000, checkpoints=None
                             ) -> tuple[bool, str]:
    """Distinct quadratic fields, trivial objects: one pole, psi(x) ~ x."""
    pi = trivial_over(_sqrt5_field())
    pi_prime = trivial_over(make_field(4, []))
    if not thm1_1_applies(pi.field, pi_prime.field):
        return False, "configuration should satisfy the same-prime-degree test"
    source = RsCoeffSource(pi, pi_prime)
    if source.multiplicity != 1:
        return False, f"expected multiplicity 1, got {source.multiplicity}"
    report = psi_sum(source, limit, checkpoints=checkpoints)
    final = report.psi[-1].real / limit
    ok_val = abs(final - 1) <= 0.01
    ok_decay = decay_check(report)
    oracle = _psi_direct_product_pair(limit)
    ok_oracle = abs(report.psi[-1].real - oracle) <= 1e-6 * limit
    ok = ok_val and ok_decay and ok_oracle
    return ok, (f"psi(x)/x = {final:.5f}, decay={ok_decay}, "
                f"|psi - oracle| = {abs(report.psi[-1].real - oracle):.2e}")


def check_dihedral_multiplicity(limit: int = 10_000_000, checkpoints=None
                                ) -> tuple[bool, str]:
    """Self-pair of the restricted quartic character: two poles, psi ~ 2x."""
    e = _sqrt5_field()
    pi = base_change(_theta(), e)
    source = RsCoeffSource(pi, pi)
    m, tau0 = source.multiplicity, source.tau0
    if m != 2 or tau0 != 0.0:
        return False, f"expected (m, tau0) = (2, 0.0), got ({m}, {tau0})"
    report = psi_sum(source, limit, checkpoints=checkpoints)
    final = report.psi[-1].real / limit
    ok_val = abs(final - 2) <= 0.02
    oracle = _psi_direct_dihedral(limit)
    ok_oracle = abs(report.psi[-1].real - oracle) <= 1e-6 * limit
    ok = ok_val and ok_oracle
    return ok, (f"psi(x)/x = {final:.5f}, "
                f"|psi - oracle| = {abs(report.psi[-1].real - oracle):.2e}")


def check_empty_pairing(limit: int = 10_000_000, checkpoints=None
                        ) -> tuple[bool, str]:
    """Disjoint fibers over the same field: no pole, psi(x) = o(x)."""
    e = _sqrt5_field()
    pi = trivial_over(e)
    pi_prime = base_change(_theta(), e)
    source = RsCoeffSource(pi, pi_prime)
    m = source.multiplicity
    if m != 0:
        return False, f"expected empty pairing, got {m} pairs"
    report = psi_sum(source, limit, checkpoints=checkpoints)
    ratio = abs(report.psi[-1]) / limit
    return ratio <= 0.02, f"|psi(x)|/x = {ratio:.5f}"


def check_nonzero_twist(limit: int = 10_000_000, checkpoints=None
                        ) -> tuple[bool, str]:
    """A unitary twist moves the pole to 1 + i tau0 with the matching term."""
    pi = trivial_over(_sqrt5_field(), tau=0.5)
    pi_prime = trivial_over(make_field(4, []))
    source = RsCoeffSource(pi, pi_prime)
    m, tau0 = source.multiplicity, source.tau0
    if m != 1 or abs(tau0 - 0.5) > 1e-12:
        return False, f"expected (1, 0.5), got ({m}, {tau0})"
    report = psi_sum(source, limit, checkpoints=checkpoints)
    predicted = predicted_main_term(1, 0.5, limit)
    ratio = abs(report.psi[-1] - predicted) / limit
    return ratio <= 0.02, f"|psi - m x^(1+i tau0)/(1+i tau0)|/x = {ratio:.5f}"


def check_coprime_degrees(_: int = 0) -> tuple[bool, str]:
    """Exhaustive sweep of a degree-4 and a degree-3 field at one modulus:
    every pairing has size 0 or 1 and matches the symbolic count."""
    g35 = unit_group(35)
    e = make_field(35, [6, 11])   # the quartic field of conductor 5
    f = make_field(35, [6, 8])    # the cubic field of conductor 7
    if (e.degree, f.degree, e.conductor, f.conductor) != (4, 3, 5, 7):
        return False, "field construction drifted"
    if not thm1_2_applies(e, f):
        return False, "degrees should be coprime"
    count = 0
    for omega in subgroup_characters(g35, e.subgroup):
        for omega_prime in subgroup_characters(g35, f.subgroup):
            pi = GalHeckeChar(e, omega)
            pi_prime = GalHeckeChar(f, omega_prime)
            pairing = twisted_pairs(pi, pi_prime)
            if pairing.size not in (0, 1):
                return False, f"|T| = {pairing.size} out of range"
            predicted = coprime_count(4, 3, pairing.size > 0)
            if predicted != pairing.size:
                return False, (f"symbolic count {predicted} != structural "
                               f"{pairing.size}")
            structural, symbolic = cross_check_pair_count(pi, pi_prime,
                                                            pairing)
            if structural != symbolic:
                return False, "tower-coordinate count disagrees"
            count += 1
    return True, f"{count} character pairs, all sizes in {{0,1}} and matching"


def check_pairing_uniqueness(bound: int = 60) -> tuple[bool, str]:
    """Across every pair of fields with conductor <= bound and every pair of
    their characters: fibers are duplicate-free, each fiber element matches at
    most one partner, and the match count divides both fiber orders."""
    configs = []
    for field in fields_up_to_conductor(bound):
        group = field.ambient
        for omega in subgroup_characters(group, field.subgroup):
            fiber = extensions(omega, group)
            keys = [chi.key for chi in fiber]
            if len(set(keys)) != len(keys):
                return False, f"fiber with repeated characters over {field}"
            configs.append((field, omega, frozenset(keys)))
    pair_count = 0
    cross_checked = 0
    for (ea, oa, ka), (eb, ob, kb) in combinations_with_replacement(configs, 2):
        inter = ka & kb
        size = len(inter)
        if size:
            if ea.degree % size or eb.degree % size:
                return False, (f"|T| = {size} does not divide degrees "
                               f"{ea.degree}, {eb.degree}")
        pair_count += 1
        if size and ea.modulus * eb.modulus <= 600 and cross_checked < 1500:
            pi = GalHeckeChar(ea, oa)
            pi_prime = GalHeckeChar(eb, ob)
            pairing = twisted_pairs(pi, pi_prime)
            if pairing.size != size:
                return False, "twisted_pairs disagrees with key intersection"
            if pairing.size and pairing.tau0 != 0.0:
                return False, "tau0 should vanish for untwisted objects"
            structural, symbolic = cross_check_pair_count(pi, pi_prime,
                                                            pairing)
            if structural != symbolic:
                return False, "tower-coordinate count disagrees"
            cross_checked += 1
    return True, (f"{len(configs)} configurations, {pair_count} pairs swept, "
                  f"{cross_checked} re-checked via tower coordinates")


def check_noncuspidal_orbits(_: int = 0) -> tuple[bool, str]:
    """Orbit of the self-twist relation has full prime length, exhaustively."""
    total = 0
    for l in (2, 3, 5, 7, 11, 13):
        for s in range(l):
            for r in range(1, l):
                for i0 in range(l):
                    for j0 in range(l):
                        orbit = noncuspidal_orbit(l, s, r, i0, j0)
                        if len(orbit) != l:
                            return False, f"orbit size {len(orbit)} != {l}"
                        total += 1
    return True, f"{total} orbits, all of full prime length"


def absorption_quadruples(samples: int):
    """The seeded character quadruples (chi, xi, pi_q, pi_q') of criterion 9,
    each character mod a random modulus in 1..60."""
    rng = random.Random(0x5EED)

    def random_char():
        m = rng.randint(1, 60)
        group = unit_group(m)
        exps = [rng.randrange(o) for _, o in group.generators]
        return DirichletChar(group, exps)

    for _ in range(samples):
        yield tuple(random_char() for _ in range(4))


def check_twist_absorption(samples: int = 100, limit: int = 10_000
                           ) -> tuple[bool, str]:
    """Twisting one convolution factor equals absorbing the ratio twist into
    the other, coefficientwise and exactly, for random character quadruples."""
    for trial, quad in enumerate(absorption_quadruples(samples)):
        chi, xi, pi_q, pi_q_prime = quad
        if not twist_absorption_check(chi, xi, pi_q, pi_q_prime, limit):
            return False, (f"trial {trial}: moduli "
                           f"{[c.modulus for c in (chi, xi, pi_q, pi_q_prime)]}")
    return True, f"{samples} random quadruples agree exactly to n <= {limit}"


def check_lagrange_divisibility(limit: int = 10_000) -> tuple[bool, str]:
    """|T| divides both fiber orders in every configuration used above."""
    e = _sqrt5_field()
    f4 = make_field(4, [])
    g35 = unit_group(35)
    e35 = make_field(35, [6, 11])
    f35 = make_field(35, [6, 8])
    pairs = [
        (trivial_over(e), trivial_over(f4)),
        (base_change(_theta(), e), base_change(_theta(), e)),
        (trivial_over(e), base_change(_theta(), e)),
        (trivial_over(e, tau=0.5), trivial_over(f4)),
    ]
    for omega in subgroup_characters(g35, e35.subgroup):
        for omega_prime in subgroup_characters(g35, f35.subgroup):
            pairs.append((GalHeckeChar(e35, omega),
                          GalHeckeChar(f35, omega_prime)))
    checked = 0
    for pi, pi_prime in pairs:
        size = twisted_pairs(pi, pi_prime).size
        if size:
            if pi.field.degree % size or pi_prime.field.degree % size:
                return False, (f"|T| = {size} does not divide "
                               f"({pi.field.degree}, {pi_prime.field.degree})")
        checked += 1
    return True, f"{checked} configurations satisfy the divisibility"


_CHECKS = [
    (1, "factorization identity", check_factorization,
     {"limit": 100_000}, {"limit": 2_000}),
    (2, "cuspidal main term m=1", check_cuspidal_main_term,
     {"limit": 10_000_000}, {"limit": 200_000,
                             "checkpoints": (100, 1_000, 10_000, 200_000)}),
    (3, "dihedral multiplicity m=2", check_dihedral_multiplicity,
     {"limit": 10_000_000}, {"limit": 200_000}),
    (4, "empty pairing set", check_empty_pairing,
     {"limit": 10_000_000}, {"limit": 200_000}),
    (5, "nonzero unitary twist", check_nonzero_twist,
     {"limit": 10_000_000}, {"limit": 200_000}),
    (6, "coprime-degree pair count", check_coprime_degrees, {}, {}),
    (7, "pairing uniqueness sweep", check_pairing_uniqueness,
     {"bound": 60}, {"bound": 24}),
    (8, "self-twist orbit length", check_noncuspidal_orbits, {}, {}),
    (9, "twist absorption identity", check_twist_absorption,
     {"samples": 100, "limit": 10_000}, {"samples": 20, "limit": 2_000}),
    (10, "pair-count divisibility", check_lagrange_divisibility, {}, {}),
]


def _wanted_checks(only) -> set[int] | None:
    """Check numbers named in a comma-separated string; None means all.

    Raises ValueError, listing the valid numbers, for a token that names no
    check or a string that names none at all.
    """
    if only is None:
        return None
    valid = [number for number, *_ in _CHECKS]
    tokens = [tok.strip() for tok in str(only).split(",") if tok.strip()]
    wanted = set()
    bad = []
    for tok in tokens:
        try:
            number = int(tok)
        except ValueError:
            number = None
        if number in valid:
            wanted.add(number)
        else:
            bad.append(tok)
    if bad or not wanted:
        what = (f"unknown check number(s) {', '.join(bad)}" if bad
                else "no check numbers")
        raise ValueError(f"{what} in {str(only)!r}; valid check numbers are "
                         f"{', '.join(map(str, valid))}")
    return wanted


def run_checks(only=None, quick: bool = False) -> list[CheckResult]:
    wanted = _wanted_checks(only)
    results = []
    for number, name, fn, full_kw, quick_kw in _CHECKS:
        if wanted is not None and number not in wanted:
            continue
        kwargs = quick_kw if quick else full_kw
        start = time.perf_counter()
        try:
            passed, detail = fn(**kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(number, name, passed, detail,
                                   time.perf_counter() - start))
    return results
