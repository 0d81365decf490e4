from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import DirichletChar, trivial_char, unit_group
from bclab.config import parse_config
from bclab.fields import make_field
from bclab.automorphic import base_change, trivial_over
from bclab.rankin_selberg import (
    RsCoeffSource,
    conjugation_swap_consistent,
    pole_multiplicity,
    ramified_primes,
    rs_coefficients,
    thm1_1_applies,
    thm1_2_applies,
    twist_absorption_check,
    twisted_pairs,
)
from bclab.verify import absorption_quadruples
from oracles import FractionChar, twist_absorption_oracle

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
    assert t.fiber_left[i][0].is_trivial
    assert t.fiber_right[j][0].is_trivial


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
    assert pole_multiplicity(trivial_over(sqrt5()),
                             trivial_over(gaussian()))[0] == 1
    pi = base_change(theta(), sqrt5())
    assert pole_multiplicity(pi, pi) == (2, 0.0)
    assert pole_multiplicity(trivial_over(sqrt5()), pi) == (0, None)


def test_theorem_flags():
    assert thm1_1_applies(sqrt5(), gaussian())
    assert not thm1_1_applies(sqrt5(), sqrt5())
    assert not thm1_1_applies(make_field(5, []), gaussian())
    assert thm1_2_applies(make_field(5, []), make_field(7, [6]))
    assert not thm1_2_applies(sqrt5(), gaussian())


# -------------------------------------------------------------- coefficients

def test_rs_coefficient_values():
    series = rs_coefficients(trivial_over(sqrt5()), trivial_over(gaussian()),
                             100)
    assert abs(series.coefficients[3]) < 1e-12        # inert in both fields
    assert abs(series.coefficients[41] - 4) < 1e-12   # split in both fields
    assert series.multiplicity == 1
    assert 2 not in series.coefficients               # ramified, excluded
    assert 5 not in series.coefficients


def test_rs_zeta_square():
    q = make_field(1, [])
    series = rs_coefficients(trivial_over(q), trivial_over(q), 50)
    for n, v in series.coefficients.items():
        assert abs(v - 1) < 1e-14


def test_rs_limit_validation():
    with pytest.raises(ValueError):
        rs_coefficients(trivial_over(sqrt5()), trivial_over(gaussian()), 1)


def test_ramified_primes_of_pair():
    assert ramified_primes(trivial_over(sqrt5()),
                           trivial_over(gaussian())) == frozenset({2, 5})


def test_hermitian_positivity():
    pi = base_change(theta(), sqrt5())
    series = rs_coefficients(pi, pi, 500)
    for n, v in series.coefficients.items():
        assert abs(v.imag) < 1e-12
        assert v.real >= -1e-12


def test_coefficient_bound_l_times_lprime():
    pi = trivial_over(make_field(5, []))
    pi_prime = trivial_over(make_field(7, [6]))
    series = rs_coefficients(pi, pi_prime, 300)
    bound = pi.field.degree * pi_prime.field.degree
    for v in series.coefficients.values():
        assert abs(v) <= bound + 1e-9


def test_conjugation_symmetry():
    pi = base_change(theta(), sqrt5(), tau=0.3)
    pi_prime = trivial_over(gaussian(), tau=0.1)
    assert conjugation_swap_consistent(pi, pi_prime)


@pytest.mark.parametrize("limit", [1, 2])
def test_conjugation_swap_rejects_limit_without_unramified_prime(limit):
    # Q(sqrt 5) against Q(i): pair modulus 20, so 2 is ramified
    cfg = parse_config(THM11.read_text())
    pi, pi_prime = cfg.pi(), cfg.pi_prime()
    with pytest.raises(ValueError, match=f"limit {limit}"):
        conjugation_swap_consistent(pi, pi_prime, limit=limit)
    assert conjugation_swap_consistent(pi, pi_prime, limit=3)


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
