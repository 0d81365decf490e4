import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import (
    DirichletChar,
    euler_phi,
    factorize,
    subgroup_characters,
    trivial_char,
    unit_group,
)
from bclab.config import parse_config
from bclab.cyclotomic import RootContext
from bclab.fields import compositum, fields_up_to_conductor, make_field
from bclab.automorphic import (TWIST_TOL, GalHeckeChar, base_change, bc_fiber,
                               trivial_over)
from bclab import cli, pnt, rankin_selberg
from bclab.pnt import PrimePowerStream, prime_powers, psi_sum, sieve_primes
from bclab.rankin_selberg import (
    RsCoeffSource,
    thm1_1_applies,
    thm1_2_applies,
    twist_absorption_check,
    twisted_pairs,
)
from bclab.verify import absorption_quadruples
from oracles import (
    FractionChar,
    MemoisedRsSource,
    psi_per_block,
    twist_absorption_oracle,
    twist_absorption_per_prime,
)

THM11 = Path(__file__).resolve().parent.parent / "configs" / "thm11.cfg"


def sqrt5():
    return make_field(5, [4])


def gaussian():
    return make_field(4, [])


def theta():
    return DirichletChar(unit_group(5), [1])


# -------------------------------------------------------------- twisted pairs

def test_trivial_pair_of_distinct_quadratics():
    t = twisted_pairs(trivial_over(sqrt5()), trivial_over(gaussian()))
    assert t.size == 1
    assert t.tau0 == 0.0
    i, j = t.pairs[0]
    assert t.fiber_left[i][0] == trivial_char()
    assert t.fiber_right[j][0] == trivial_char()


def test_self_pair_of_restricted_quartic():
    pi = base_change(theta(), sqrt5())
    t = twisted_pairs(pi, pi)
    assert t.size == 2
    assert sorted(t.pairs) == [(0, 0), (1, 1)]


def test_disjoint_fibers():
    t = twisted_pairs(trivial_over(sqrt5()), base_change(theta(), sqrt5()))
    assert t.size == 0
    assert t.tau0 is None


def test_twist_bookkeeping():
    t = twisted_pairs(trivial_over(sqrt5(), tau=0.5),
                      trivial_over(gaussian()))
    assert t.size == 1
    assert t.tau0 == 0.5


def test_pole_multiplicity_examples():
    def poles(pi, pi_prime):
        src = RsCoeffSource(pi, pi_prime)
        return src.multiplicity, src.tau0

    pi = base_change(theta(), sqrt5())
    assert poles(trivial_over(sqrt5()), trivial_over(gaussian())) == (1, 0.0)
    assert poles(pi, pi) == (2, 0.0)
    assert poles(trivial_over(sqrt5()), pi)[0] == 0
    assert poles(trivial_over(sqrt5(), tau=0.5),
                 trivial_over(gaussian())) == (1, 0.5)


def test_theorem_flags():
    assert thm1_1_applies(sqrt5(), gaussian())
    assert not thm1_1_applies(sqrt5(), sqrt5())
    assert not thm1_1_applies(make_field(5, []), gaussian())
    assert thm1_2_applies(make_field(5, []), make_field(7, [6]))
    assert not thm1_2_applies(sqrt5(), gaussian())


# -------------------------------------------------------------- coefficients

def prime_power_coeffs(src, limit):
    """(p^k, a(p^k)) for every prime power p^k <= limit with p prime to the
    modulus, from coeff_at."""
    primes = sieve_primes(limit)
    primes = primes[src.modulus % primes != 0]
    out = []
    k = 1
    while primes.size:
        out += zip((primes ** k).tolist(), src.coeff_at(primes, k).tolist())
        k += 1
        primes = primes[primes ** k <= limit]
    return out


def test_rs_coefficient_values():
    src = RsCoeffSource(trivial_over(sqrt5()), trivial_over(gaussian()))
    a3, a41 = src.coeff_at(np.array([3, 41]))
    assert abs(a3) < 1e-12                # inert in both fields
    assert abs(a41 - 4) < 1e-12           # split in both fields
    assert src.multiplicity == 1
    assert src.modulus % 2 == 0           # ramified, excluded
    assert src.modulus % 5 == 0


def test_rs_zeta_square():
    q = make_field(1, [])
    src = RsCoeffSource(trivial_over(q), trivial_over(q))
    coeffs = prime_power_coeffs(src, 50)
    assert coeffs
    for n, v in coeffs:
        assert abs(v - 1) < 1e-14


def test_ramified_primes_of_pair():
    # the excluded primes are those dividing the pair's modulus
    modulus = RsCoeffSource(trivial_over(sqrt5()),
                            trivial_over(gaussian())).modulus
    assert {p for p, _ in factorize(modulus)} == {2, 5}


def test_hermitian_positivity():
    pi = base_change(theta(), sqrt5())
    for n, v in prime_power_coeffs(RsCoeffSource(pi, pi), 500):
        assert abs(v.imag) < 1e-12
        assert v.real >= -1e-12


def test_coefficient_bound_l_times_lprime():
    pi = trivial_over(make_field(5, []))
    pi_prime = trivial_over(make_field(7, [6]))
    bound = pi.field.degree * pi_prime.field.degree
    for n, v in prime_power_coeffs(RsCoeffSource(pi, pi_prime), 300):
        assert abs(v) <= bound + 1e-9


def assert_conjugation_swap(pi, pi_prime, limit=500, tol=1e-12):
    """Swapping the two members conjugates a(p^k), k = 1..3, at every
    unramified prime up to the limit, and negates tau0."""
    fwd, bwd = RsCoeffSource(pi, pi_prime), RsCoeffSource(pi_prime, pi)
    assert fwd.multiplicity == bwd.multiplicity
    if fwd.multiplicity:
        assert abs(fwd.tau0 + bwd.tau0) <= TWIST_TOL
    ps, ks, _ = prime_powers(limit, fwd.modulus)
    ps = ps[ks == 1]
    assert ps.size
    for k in (1, 2, 3):
        assert np.max(np.abs(fwd.coeff_at(ps, k)
                             - np.conj(bwd.coeff_at(ps, k)))) <= tol


def test_conjugation_symmetry():
    pi = base_change(theta(), sqrt5(), tau=0.3)
    pi_prime = trivial_over(gaussian(), tau=0.1)
    assert_conjugation_swap(pi, pi_prime)
    # Q(sqrt 5) against Q(i): pair modulus 20, so 3 is the first
    # unramified prime
    cfg = parse_config(THM11.read_text())
    assert_conjugation_swap(cfg.pi(), cfg.pi_prime(), limit=3)


def test_conjugation_symmetry_on_seeded_pairs():
    # the four configs, then 24 bound-60 pairs, every other one twisted
    for pi, pi_prime in support_pairs(24, seed=53):
        assert_conjugation_swap(pi, pi_prime)


CALL_ORDERS = [(1, 2, 3, 4, 1), (4, 2, 1, 3, 4)]


@pytest.mark.parametrize("order", CALL_ORDERS)
def test_coeff_at_matches_memoised_product_tables(order):
    # the fiber sums agree with the one-character formula to float
    # rounding; a fresh source called in the other order gives the same
    # bytes at every k
    other = CALL_ORDERS[1 - CALL_ORDERS.index(order)]
    configs = [(field, omega) for field in fields_up_to_conductor(30)
               for omega in subgroup_characters(field.ambient, field.subgroup)]
    rng = random.Random(12)
    cfgs = [parse_config((THM11.parent / f"{name}.cfg").read_text())
            for name in ("thm11", "dihedral", "empty_t", "twist")]
    pairs = [(cfg.pi(), cfg.pi_prime()) for cfg in cfgs]
    pairs += [(GalHeckeChar(*rng.choice(configs), rng.choice([0.0, 0.75])),
               GalHeckeChar(*rng.choice(configs))) for _ in range(12)]
    for pi, pi_prime in pairs:
        src = RsCoeffSource(pi, pi_prime)
        memo = MemoisedRsSource(src)
        primes = sieve_primes(20_000)
        primes = primes[src.modulus % primes != 0]
        fresh = RsCoeffSource(pi, pi_prime)
        first = {k: fresh.coeff_at(primes, k).tobytes() for k in other}
        for k in order:
            got = src.coeff_at(primes, k)
            assert got.dtype == np.complex128
            assert np.abs(got - memo.coeff_at(primes, k)).max() <= \
                1e-12 * src.scale, k
            assert got.tobytes() == first[k], k


def test_source_tau_factor():
    src = RsCoeffSource(trivial_over(sqrt5(), tau=0.5),
                        trivial_over(gaussian()))
    p = np.array([41])  # split in both fields
    val = src.coeff_at(p, 1)[0]
    assert abs(val - 4 * np.exp(0.5j * np.log(41))) < 1e-12


# ----------------------------------------------------------- twist absorption

def test_absorption_equal_twists():
    assert twist_absorption_check(theta(), theta(), trivial_char(1),
                                  trivial_char(1), 2000)


def test_absorption_quadratic_vs_trivial():
    chi5 = theta() * theta()
    assert twist_absorption_check(chi5, trivial_char(1), trivial_char(1),
                                  trivial_char(1), 10_000)


def test_absorption_quartic_pair():
    assert twist_absorption_check(theta(), theta().conjugate(),
                                  trivial_char(1), trivial_char(1), 2000)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_absorption_random_quadruples(data):
    def rand_char():
        m = data.draw(st.integers(1, 30))
        g = unit_group(m)
        exps = [data.draw(st.integers(0, o - 1)) for _, o in g.generators]
        return DirichletChar(g, exps)

    chi, xi, a, b = (rand_char() for _ in range(4))
    assert twist_absorption_check(chi, xi, a, b, 500)


# ------------------------------------------------------ divisibility property

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1,
                                                           max_value=24),
       st.data())
def test_pair_count_divides_both_degrees(m1, m2, data):
    g1, g2 = unit_group(m1), unit_group(m2)
    f1 = make_field(m1, data.draw(
        st.lists(st.sampled_from(sorted(g1.units)), max_size=2)))
    f2 = make_field(m2, data.draw(
        st.lists(st.sampled_from(sorted(g2.units)), max_size=2)))
    e1 = [data.draw(st.integers(0, o - 1)) for _, o in g1.generators]
    e2 = [data.draw(st.integers(0, o - 1)) for _, o in g2.generators]
    pi = base_change(DirichletChar(g1, e1), f1)
    pi_prime = base_change(DirichletChar(g2, e2), f2)
    t = twisted_pairs(pi, pi_prime)
    if t.size:
        assert f1.degree % t.size == 0
        assert f2.degree % t.size == 0
    if thm1_2_applies(f1, f2):
        assert t.size in (0, 1)


def test_absorption_matches_fraction_oracle_on_criterion_9():
    for quad in absorption_quadruples(100):
        chi, xi, pi_q, pi_q_prime = quad
        ochi, oxi, oa, ob = map(FractionChar.of, quad)
        pairs = [(pi_q * chi, oa * ochi), (pi_q_prime * xi, ob * oxi),
                 (pi_q_prime * (chi.conjugate() * xi),
                  ob * (ochi.conjugate() * oxi))]
        for prod, oracle in pairs:
            assert (prod.modulus, prod.exponents, prod.conductor) == \
                (oracle.modulus, oracle.exponents, oracle.conductor)
            assert prod.primitive().exponents == oracle.primitive().exponents
        assert twist_absorption_check(*quad, 10_000) == \
            twist_absorption_oracle(*quad, 10_000)


SAFE_PRIMES = (131267, 131303, 131687, 131927)


@pytest.mark.parametrize("excluded", [set(), {2}, {2, 5, 97}, {2, 5},
                                      SAFE_PRIMES])
def test_prime_powers_are_every_p_k_off_the_excluded_primes(excluded):
    # the modulus is the product of the excluded primes, >= 2^63 for the
    # safe primes
    modulus = prod(excluded)
    factored = {n: f[0] for n in range(2, 10_001)
                if len(f := factorize(n)) == 1}
    for k_min in (1, 2):
        for limit in [*range(0, 130), 10_000]:
            want = [(p, k, n) for n, (p, k) in factored.items()
                    if n <= limit and k >= k_min and p not in excluded]
            got = prime_powers(limit, modulus, k_min)
            assert all(a.dtype == np.int64 for a in got)
            assert list(zip(*(a.tolist() for a in got))) == want


def test_absorption_sieves_each_limit_once(monkeypatch):
    sieved = []
    sieve = PrimePowerStream._sieve

    def counting(stream, lo, hi):
        sieved.append((lo, hi))
        return sieve(stream, lo, hi)

    monkeypatch.setattr(PrimePowerStream, "_sieve", counting)
    quads = list(absorption_quadruples(3))
    assert twist_absorption_check(*quads[0], 10_000)
    assert len(sieved) == len(set(sieved)) > 0
    windows = len(sieved)
    for quad in quads:
        assert twist_absorption_check(*quad, 10_000)
    assert len(sieved) == windows


def test_absorption_matches_per_prime_loop_on_criterion_9():
    for quad in absorption_quadruples(100):
        assert twist_absorption_check(*quad, 10_000) is \
            twist_absorption_per_prime(*quad, 10_000)


@lru_cache(maxsize=None)
def large_level_quadruple():
    """Characters of order p - 1 mod four safe primes p = 2q + 1: the lcm L
    of the four primitive group exponents exceeds 2^64."""
    return tuple(DirichletChar(unit_group(p), [1]) for p in SAFE_PRIMES)


def test_absorption_is_exact_past_int64():
    chi, xi, pi_q, pi_q_prime = quad = large_level_quadruple()
    chars = (pi_q * chi, pi_q_prime * xi, pi_q,
             pi_q_prime * (chi.conjugate() * xi))
    assert lcm(*[c.primitive().group.exponent for c in chars]) >= 2 ** 62
    assert twist_absorption_check(*quad, 2000) is True
    assert twist_absorption_per_prime(*quad, 2000) is True


@pytest.mark.parametrize("quads, limit", [
    (lambda: absorption_quadruples(100), 10_000),
    (lambda: [large_level_quadruple()], 2000),
])
def test_absorption_never_evaluates_a_zero_value(quads, limit):
    # the excluded primes cover every conductor of the four characters
    for chi, xi, pi_q, pi_q_prime in quads():
        bad = lcm(chi.conductor, xi.conductor,
                  pi_q.conductor, pi_q_prime.conductor)
        _, _, n = prime_powers(limit, bad)
        assert n.size
        for c in (pi_q * chi, pi_q_prime * xi, pi_q,
                  pi_q_prime * (chi.conjugate() * xi)):
            assert c.exponents_at(n).min() >= 0


def test_exponents_at_is_exact_at_large_levels():
    chi, xi, pi_q, pi_q_prime = large_level_quadruple()
    ns = [p ** k for p in sieve_primes(2000).tolist()
          for k in (1, 2, 3) if p ** k <= 10 ** 9]
    for c in (pi_q * chi, pi_q_prime * (chi.conjugate() * xi)):
        got = c.exponents_at(np.array(ns, dtype=np.int64)).tolist()
        assert got == [-1 if a is None else a
                       for a in map(c.primitive_exponent, ns)]
    too_large = chi * xi * pi_q * pi_q_prime
    assert too_large.primitive().group.exponent >= 2 ** 63
    with pytest.raises(OverflowError, match="do not fit in int64"):
        too_large.exponents_at(np.array(ns, dtype=np.int64))


# ------------------------------------------------------------------- support

@lru_cache(maxsize=None)
def bound60_configs():
    return [(field, omega) for field in fields_up_to_conductor(60)
            for omega in subgroup_characters(field.ambient, field.subgroup)]


def support_pairs(n, seed):
    """The four configs' pairs, then n seeded bound-60 pairs, every other
    one twisted on the left."""
    pairs = []
    for name in ("thm11", "dihedral", "empty_t", "twist"):
        cfg = parse_config((THM11.parent / f"{name}.cfg").read_text())
        pairs.append((cfg.pi(), cfg.pi_prime()))
    rng = random.Random(seed)
    configs = bound60_configs()
    for i in range(n):
        (e, omega), (f, omega_f) = rng.choice(configs), rng.choice(configs)
        tau = rng.uniform(-1.0, 1.0) if i % 2 else 0.0
        pairs.append((GalHeckeChar(e, omega, tau), GalHeckeChar(f, omega_f)))
    return pairs


def test_support_is_the_split_classes_of_both_fields():
    primes = sieve_primes(5_000)
    for pi, pi_prime in support_pairs(56, seed=13):
        src = RsCoeffSource(pi, pi_prime)
        e, f, m = pi.field, pi_prime.field, src.modulus
        want = [r for r in range(m) if gcd(r, m) == 1
                and r % e.modulus in e.subgroup
                and r % f.modulus in f.subgroup]
        assert list(src.support) == want
        assert set(src.support) == set(compositum(e, f).subgroup)
        ps = primes[m % primes != 0]
        on = np.isin(ps % m, src.support)
        assert on.any()
        for k in (1, 2, 3, 4):
            # a(p^k) is nonzero exactly when p^k mod m lies in H
            if k > 1:
                on = np.isin([pow(p, k, m) for p in ps.tolist()],
                             src.support)
            values = np.abs(src.coeff_at(ps, k))
            assert values[on].min() >= 1 - 1e-12
            assert np.allclose(values[on], e.degree * f.degree, rtol=0,
                               atol=1e-9)
            assert not values[~on].any(), k


def test_fiber_sums_are_one_character_on_h_exactly():
    # sum_i chi_i(r)^k = [E:Q] chi_0(r^k) 1[r^k in H_E] in Z[zeta_L], for
    # every config of conductor <= 24 presented at m, 2m and 3m, every
    # unit r mod the presentation's modulus and k = 1..exp: the left side
    # is the fiber sum, the right side what RsCoeffSource reads at p^k mod M
    configs = classes = 0
    for field in fields_up_to_conductor(24):
        for lift in (1, 2, 3):
            pres = field.lift_to(unit_group(lift * field.modulus))
            group, m = pres.ambient, pres.modulus
            for omega in subgroup_characters(group, pres.subgroup):
                configs += 1
                fiber = [chi for chi, _ in bc_fiber(GalHeckeChar(pres, omega))]
                level = lcm(*(chi.primitive().group.exponent
                              for chi in fiber))
                ctx = RootContext(level)
                angles = [Fraction(a, level) for a in range(level)]

                def exponent(chi, n):
                    return chi.primitive_exponent(n) * \
                        (level // chi.primitive().group.exponent)

                for r in group.units:
                    at_r = [exponent(chi, r) for chi in fiber]
                    for k in range(1, group.exponent + 1):
                        n = pow(r, k, m)
                        left = ctx.vector([(angles[a * k % level], 1)
                                           for a in at_r])
                        right = ctx.zero() if n not in pres.subgroup else \
                            ctx.vector([(angles[exponent(fiber[0], n)],
                                         len(fiber))])
                        assert left == right, (pres, omega, r, k)
                        classes += 1
    assert (configs, classes) == (703, 164_366)


def test_pole_count_is_orthogonality_of_one_character_on_h():
    # |T| = [E:Q][F:Q] |H| / phi(M) = [E cap F:Q] when chi_0 conj(psi_0) is
    # 1 on H, else 0, in integers from the source's exponent table, and it
    # is the size of the fibers' key intersection: every ordered pair of
    # configs of conductor <= 24, then seeded bound-60 pairs
    objects = [GalHeckeChar(field, omega)
               for field in fields_up_to_conductor(24)
               for omega in subgroup_characters(field.ambient, field.subgroup)]
    pairs = [(pi, pi_prime) for pi in objects for pi_prime in objects]
    histogram = Counter()
    for i, (pi, pi_prime) in enumerate(pairs + support_pairs(56, seed=13)):
        src = RsCoeffSource(pi, pi_prime)
        on = list(src.support)
        count, rest = divmod(src.scale * len(on), euler_phi(src.modulus))
        assert rest == 0
        want = 0 if src.exponents[on].any() else count
        assert src.multiplicity == want == twisted_pairs(pi, pi_prime).size, \
            (pi, pi_prime)
        if i < len(pairs):
            histogram[want] += 1
    assert sorted(histogram.items()) == [
        (0, 18_194), (1, 4_033), (2, 882), (3, 114), (4, 121), (5, 6),
        (6, 31), (8, 10), (9, 6), (10, 1), (11, 6), (12, 2), (16, 1),
        (18, 1), (22, 1)]


def test_higher_power_coeffs_match_full_product_tables():
    # a k >= 2 call reads a handful of residues at large k, raised to the
    # k-th power mod m; the fiber sums raise every fiber value instead
    for pi, pi_prime in support_pairs(24, seed=41):
        src = RsCoeffSource(pi, pi_prime)
        got = pnt.prime_power_coeffs(src, 10**7, k_min=2)
        want = pnt.prime_power_coeffs(MemoisedRsSource(src), 10**7, k_min=2)
        assert np.abs(got[2] - want[2]).max(initial=0) <= 1e-12 * src.scale


def test_psi_sum_bits_over_paths_and_workers_on_seeded_pairs(monkeypatch):
    x, checkpoints = 60_000, (10_000, 33_333, 60_000)
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", 7_000)
    for pi, pi_prime in support_pairs(6, seed=29)[2:]:
        src = RsCoeffSource(pi, pi_prime)
        want = psi_per_block(src, x, checkpoints)
        for fits in (True, False):
            monkeypatch.setattr(pnt, "_fits_cache", lambda limit, f=fits: f)
            for workers in (1, 2, 3):
                got = psi_sum(src, x, checkpoints=checkpoints,
                              workers=workers).psi
                assert [(z.real.hex(), z.imag.hex()) for z in got] == \
                    [(z.real.hex(), z.imag.hex()) for z in want]


def test_real_pairs_of_the_pnt_batch_population_have_real_psi(monkeypatch):
    # every untwisted pair that pnt_batch traces for seed 1 (its four
    # configs, then its drawn pairs) whose xi is real on H, 2e = 0 mod N
    # on the support, sums exact values +-[E:Q][F:Q] into psi, so every
    # imaginary part is exactly 0
    monkeypatch.syspath_prepend(str(THM11.parent.parent / "perfbench"))
    import workloads
    monkeypatch.setattr(workloads, "_pnt_expected", lambda items, x: items)
    _, items = workloads.draw_pnt_batch(1, str(THM11.parent.parent))
    real = 0
    for pi, pi_prime, _, _ in items:
        src = RsCoeffSource(pi, pi_prime)
        xi = bc_fiber(src.pi)[0][0] * bc_fiber(src.pi_prime)[0][0].conjugate()
        level = xi.primitive().group.exponent
        if src.tau0 or np.any(2 * src.exponents[list(src.support)] % level):
            continue
        real += 1
        assert all(z.imag == 0.0 for z in psi_sum(src, 10**6).psi)
    assert real >= 4


def test_sources_and_pnt_reports_need_no_fiber_pairing(monkeypatch, tmp_path):
    # the pole count comes from the source's own table: with twisted_pairs
    # raising, the four config sources build with the same multiplicity,
    # and `bclab pnt` writes the same report and trace for each config
    names = ("thm11", "dihedral", "empty_t", "twist")

    def run_pnt(name, tag):
        out, csv = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
        assert cli.main(["pnt", "--config", str(THM11.parent / f"{name}.cfg"),
                         "--limit", "1e5", "--out", str(out),
                         "--csv", str(csv)]) == 0
        payload = json.loads(out.read_text())
        payload.pop("generated_at")
        return payload, csv.read_text()

    pairs = support_pairs(0, seed=0)
    sizes = [twisted_pairs(pi, pi_prime).size for pi, pi_prime in pairs]
    want = [run_pnt(name, "paired") for name in names]

    def no_pairing(*args):
        raise AssertionError("twisted_pairs called")

    monkeypatch.setattr(rankin_selberg, "twisted_pairs", no_pairing)
    assert [RsCoeffSource(pi, pi_prime).multiplicity
            for pi, pi_prime in pairs] == sizes == [1, 2, 0, 1]
    assert [run_pnt(name, "fiberless") for name in names] == want
