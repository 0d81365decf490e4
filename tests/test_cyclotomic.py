import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bclab.cyclotomic import (
    RootContext,
    angle_to_complex,
    cyclotomic_polynomial,
    divisors,
)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisors(0)


def test_cyclotomic_polynomials_small():
    # classical table
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@given(st.integers(min_value=1, max_value=100))
def test_cyclotomic_product_rebuilds_x_n_minus_1(n):
    # multiply Phi_d over all d | n and compare with x^n - 1
    prod = [1]
    for d in divisors(n):
        phi_d = cyclotomic_polynomial(d)
        out = [0] * (len(prod) + len(phi_d) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi_d):
                out[i + j] += a * b
        prod = out
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_vanishing_full_orbit_sum():
    # 1 + zeta_3 + zeta_3^2 = 0, detected only after reduction mod Phi_3
    terms = [(Fraction(0), 1), (Fraction(1, 3), 1), (Fraction(2, 3), 1)]
    ctx = RootContext(3)
    assert ctx.vector(terms) == ctx.zero()
    assert ctx.vector(terms) == ctx.vector([])


def test_scaled_root_vs_sum():
    # 2 * zeta_4 equals zeta_4 + zeta_4
    ctx = RootContext(4)
    assert ctx.vector([(Fraction(1, 4), 2)]) == \
        ctx.vector([(Fraction(1, 4), 1), (Fraction(1, 4), 1)])
    assert ctx.vector([(Fraction(1, 4), 2)]) != \
        ctx.vector([(Fraction(1, 4), 1)])


def test_cross_level_equality():
    # zeta_6^3 = -1 = zeta_2, compared at the common level 6
    ctx = RootContext(6)
    assert ctx.vector([(Fraction(3, 6), 1)]) == \
        ctx.vector([(Fraction(1, 2), 1)])
    assert ctx.vector([(Fraction(1, 6), 1)]) != \
        ctx.vector([(Fraction(1, 3), 1)])
    with pytest.raises(ValueError, match="angle 1/6 does not live at "
                                         "cyclotomic level 3"):
        RootContext(3).vector([(Fraction(1, 6), 1)])


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=23),
                          st.integers(min_value=-3, max_value=3)),
                max_size=6))
def test_vector_matches_float_evaluation(raw_terms):
    terms = [(Fraction(k, 24), m) for k, m in raw_terms]
    ctx = RootContext(24)
    vec = ctx.vector(terms)
    direct = sum(m * angle_to_complex(q) for q, m in terms)
    # rebuild the complex number from the reduced vector
    zeta = cmath.exp(2j * cmath.pi / 24)
    rebuilt = sum(c * zeta ** i for i, c in enumerate(vec))
    assert abs(direct - rebuilt) < 1e-9


def test_context_rejects_foreign_angle():
    ctx = RootContext(4)
    with pytest.raises(ValueError):
        ctx.vector([(Fraction(1, 3), 1)])


def test_vector_reduces_any_representative():
    ctx = RootContext(12)
    roots = [ctx.vector([(Fraction(a, 12), 1)]) for a in range(12)]
    assert len(set(roots)) == 12
    for num in range(-30, 31):
        for den in (1, 2, 3, 4, 6, 12):
            q = Fraction(num, den)
            assert ctx.vector([(q, 1)]) == roots[int(q % 1 * 12)]
    assert ctx.vector([(0, 1)]) == roots[0]
    with pytest.raises(ValueError, match="angle 3/5 does not live at "
                                         "cyclotomic level 12"):
        ctx.vector([(Fraction(-2, 5), 1)])


def test_quarter_turns_are_exact():
    # 1, i, -1, -i with exact zero parts, from any representative
    want = [complex(1.0, 0.0), complex(0.0, 1.0),
            complex(-1.0, 0.0), complex(0.0, -1.0)]
    for num in range(-8, 9):
        for den in (1, 2, 4):
            z = angle_to_complex(Fraction(num, den))
            w = want[num * (4 // den) % 4]
            assert (z.real, z.imag) == (w.real, w.imag)
            # same signs of zero too, so no -0.0 reaches a report
            assert str(z) == str(w)
    assert angle_to_complex(Fraction(1, 8)) == cmath.exp(2j * cmath.pi / 8)
