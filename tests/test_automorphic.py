import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import (
    DirichletChar,
    all_subgroups,
    extensions,
    subgroup_characters,
    trivial_char,
    unit_group,
)
from bclab.cyclotomic import RootContext
from bclab.fields import (
    AbelianField,
    _tower_chain,
    fields_up_to_conductor,
    make_field,
    order_mod_subgroup,
)
from bclab.automorphic import (
    GalHeckeChar,
    IsobaricSum,
    automorphic_induction,
    base_change,
    bc_fiber,
    coeff_angles_over_q,
    coeff_data_over_e,
    local_coeffs_over_e,
    local_coeffs_over_q,
    trivial_over,
)
from bclab.pnt import sieve_primes

from oracles import coeff_angles_over_q_per_call, coeff_data_over_e_per_call


def sqrt5():
    return make_field(5, [4])


def theta():
    return DirichletChar(unit_group(5), [1])


# ---------------------------------------------------------------- base change

def test_base_change_of_trivial():
    pi = base_change(trivial_char(5), sqrt5())
    assert pi.omega.order == 1
    assert pi.tau == 0.0


def test_base_change_of_quartic():
    pi = base_change(theta(), sqrt5())
    assert pi.omega.angle(4) == Fraction(1, 2)


def test_base_change_of_quadratic_kills_kernel():
    chi5 = theta() * theta()
    pi = base_change(chi5, sqrt5())
    assert pi.omega.order == 1


def test_base_change_transitivity_along_tower():
    # through the quadratic subfield of the quintic cyclotomic field: every
    # extension of the base change to the middle field base changes on to
    # the direct one
    full = make_field(5, [])
    mid = sqrt5()
    assert _tower_chain(full.ambient, full.subgroup)[0] == mid.subgroup
    direct = base_change(theta(), full)
    for chi in extensions(base_change(theta(), mid).omega, mid.ambient):
        assert base_change(chi, full) == direct


# ---------------------------------------------------------------------- fiber

def test_fiber_of_trivial_over_quadratic():
    fiber = bc_fiber(trivial_over(sqrt5()))
    assert len(fiber) == 2
    assert {chi.exponents for chi, _ in fiber} == {(0,), (2,)}


def test_fiber_of_restricted_quartic():
    fiber = bc_fiber(base_change(theta(), sqrt5()))
    assert {chi.exponents for chi, _ in fiber} == {(1,), (3,)}


def test_fiber_over_full_cyclotomic():
    fiber = bc_fiber(trivial_over(make_field(5, [])))
    assert len(fiber) == 4
    assert len({chi.key for chi, _ in fiber}) == 4


def test_fiber_members_base_change_back():
    pi = base_change(theta(), sqrt5(), tau=0.5)
    fiber = bc_fiber(pi)
    for chi, tau in fiber:
        assert base_change(chi, sqrt5(), tau=tau) == pi
    # and to one object over every extension of E at moduli 5, 10 and 15
    extended = 0
    for modulus in (5, 10, 15):
        g = unit_group(modulus)
        for sub in all_subgroups(g):
            if all(u % 5 in sqrt5().subgroup for u in sub):
                target = AbelianField(g, sub)
                assert len({base_change(chi, target, tau)
                            for chi, tau in fiber}) == 1
                extended += 1
    assert extended > 3


def test_automorphic_induction_degrees():
    assert automorphic_induction(trivial_over(sqrt5())).degree == 2
    assert automorphic_induction(trivial_over(make_field(1, []))).degree == 1


def test_isobaric_sum_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        IsobaricSum([(trivial_char(1), 0.0), (trivial_char(5), 0.0)])


# --------------------------------------------------------------- coefficients

def test_split_prime_coefficients():
    pi = trivial_over(sqrt5())
    coeffs = local_coeffs_over_e(pi, 11, 3)
    assert [(c.n, c.value) for c in coeffs] == [
        (11, 2 + 0j), (121, 2 + 0j), (1331, 2 + 0j)]


def test_inert_prime_coefficients():
    pi = trivial_over(sqrt5())
    coeffs = local_coeffs_over_e(pi, 2, 4)
    values = [c.value for c in coeffs]
    assert values[0] == 0 and values[2] == 0
    assert abs(values[1] - 2) < 1e-14 and abs(values[3] - 2) < 1e-14
    # matches 1 + chi5(2)^k with chi5(2) = -1
    for k, c in enumerate(coeffs, start=1):
        assert abs(c.value - (1 + (-1) ** k)) < 1e-14


def test_rationals_give_zeta_coefficients():
    pi = trivial_over(make_field(1, []))
    for c in local_coeffs_over_e(pi, 7, 5):
        assert abs(c.value - 1) < 1e-15


def test_ramified_prime_yields_no_coefficients():
    assert local_coeffs_over_e(trivial_over(sqrt5()), 5, 3) == []


def test_isobaric_coefficients_over_q():
    ai = automorphic_induction(trivial_over(sqrt5()))
    a11 = local_coeffs_over_q(ai, 11, 2)
    assert all(abs(c.value - 2) < 1e-14 for c in a11)
    a2 = local_coeffs_over_q(ai, 2, 4)
    for k, c in enumerate(a2, start=1):
        assert abs(c.value - (1 + (-1) ** k)) < 1e-14


def test_single_trivial_component():
    ai = IsobaricSum([(trivial_char(1), 0.0)])
    assert all(abs(c.value - 1) < 1e-15
               for c in local_coeffs_over_q(ai, 13, 4))


def test_frobenius_degree_rejects_a_ramified_prime():
    h = sqrt5().subgroup
    with pytest.raises(ValueError, match="5 is not a unit mod 5"):
        order_mod_subgroup(5, h, 5)
    assert order_mod_subgroup(5, h, 11) == 1
    assert order_mod_subgroup(5, h, 3) == 2


def _coeff_data_fraction_power(pi, p, j):
    """coeff_data_over_e with omega(p^{f_p})^k formed as a Fraction power:
    (omega.angle(frob) * k) % 1."""
    m = pi.field.modulus
    if m > 1 and math.gcd(p, m) != 1:
        return None
    f_p = order_mod_subgroup(m, pi.field.subgroup, p)
    if j % f_p:
        return None
    frob = pow(p, f_p, m) if m > 1 else 0
    return (f_p * (pi.field.degree // f_p),
            (pi.omega.angle(frob) * (j // f_p)) % 1)


def test_coeff_data_over_e_matches_fraction_power():
    primes = sieve_primes(500).tolist()
    for field in fields_up_to_conductor(24):
        for omega in subgroup_characters(field.ambient, field.subgroup):
            pi = GalHeckeChar(field, omega)
            for p in primes:
                for j in range(1, 7):
                    got = coeff_data_over_e(pi, p, j)
                    assert got == _coeff_data_fraction_power(pi, p, j)
                    assert got is None or isinstance(got[1], Fraction)


def _residue_sweep(m):
    """(p, j) for every residue r mod m, units or not, at p = r + k * m for
    k = 0..3 and j = 1..2 * exp(m): each residue comes before its larger
    representatives."""
    exponent = unit_group(m).exponent
    return [(r + k * m, j) for r in range(m) for k in range(4)
            for j in range(1, 2 * exponent + 1)]


def _assert_memo_matches(fn, make, cases, expected):
    # one fresh object meets each residue before its larger representatives,
    # another after them; both must give the per-call oracle's values
    for order in (1, -1):
        obj = make()
        assert [fn(obj, p, j) for p, j in cases[::order]] == expected[::order]


def test_memoized_coefficients_match_per_call_oracles():
    # every config of conductor <= 24 at its own modulus m and lifted to 2m
    # and 3m; over E every residue mod the presentation's modulus, over Q
    # every residue mod m, which the conductors' lcm L divides, so the
    # sweeps reach every class either memo can hold
    for field in fields_up_to_conductor(24):
        for omega in subgroup_characters(field.ambient, field.subgroup):
            ai = automorphic_induction(GalHeckeChar(field, omega))
            over_q = _residue_sweep(field.modulus)
            expected_q = [coeff_angles_over_q_per_call(ai, p, j)
                          for p, j in over_q]
            chi = extensions(omega, field.ambient)[0]
            for k in (1, 2, 3):
                pi = base_change(chi,
                                 field.lift_to(unit_group(k * field.modulus)))
                over_e = _residue_sweep(pi.field.modulus)
                _assert_memo_matches(
                    coeff_data_over_e, lambda: GalHeckeChar(pi.field, pi.omega),
                    over_e, [coeff_data_over_e_per_call(pi, p, j)
                             for p, j in over_e])
                _assert_memo_matches(
                    coeff_angles_over_q, lambda: automorphic_induction(pi),
                    over_q, expected_q)


def test_equal_fields_at_other_moduli_keep_their_own_memos():
    # Q(zeta_5) mod 5, 35 and 10 compare equal, but p = 7 is a unit mod 5
    # and not mod 35, and p = 2 a unit mod 5 and not mod 10: a memo shared
    # by equal fields (mod 5 and mod 10 even share the one trivial omega's
    # exponents), or keyed by p mod the conductor, answers one wrongly
    e5, e35, e10 = make_field(5, []), make_field(35, [6, 11]), \
        make_field(10, [])
    assert e5 == e35 == e10 and hash(e5) == hash(e35) == hash(e10)
    objects = [GalHeckeChar(field, omega) for field in (e5, e35, e10, e5)
               for omega in subgroup_characters(field.ambient, field.subgroup)]
    for p, j in _residue_sweep(35):
        for pi in objects:
            assert coeff_data_over_e(pi, p, j) == \
                coeff_data_over_e_per_call(pi, p, j), (pi, p, j)
    assert coeff_data_over_e(objects[0], 7, 4) is not None
    assert coeff_data_over_e(objects[1], 7, 4) is None
    assert coeff_data_over_e(objects[0], 2, 4) is not None
    assert coeff_data_over_e(objects[-2], 2, 4) is None


def test_mutating_returned_angles_leaves_the_memo_alone():
    ai = automorphic_induction(base_change(theta(), make_field(5, [])))
    first = coeff_angles_over_q(ai, 11, 1)
    assert len(first) == 4
    first.append(Fraction(1, 3))
    first[0] = Fraction(1, 7)
    again = coeff_angles_over_q(ai, 11, 1)
    assert again == coeff_angles_over_q_per_call(ai, 11, 1)
    again.clear()
    assert coeff_angles_over_q(ai, 11, 1) == \
        coeff_angles_over_q_per_call(ai, 11, 1)


def _factorization_holds(pi, ai, p, j, ctx):
    """pi's coefficient at p^j over E equals that of its automorphic
    induction ai over Q, compared exactly in ctx."""
    over_e = coeff_data_over_e(pi, p, j)
    left = ctx.zero() if over_e is None else \
        ctx.vector([(over_e[1], over_e[0])])
    return left == ctx.vector([(a, 1) for a in coeff_angles_over_q(ai, p, j)])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.data())
def test_factorization_identity_exact(m, data):
    g = unit_group(m)
    gens = data.draw(st.lists(st.sampled_from(sorted(g.units)), max_size=2))
    field = make_field(m, gens)
    exps = [data.draw(st.integers(0, o - 1)) for _, o in g.generators]
    pi = base_change(DirichletChar(g, exps), field)
    ai = automorphic_induction(pi)
    ctx = RootContext(g.exponent)
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0 and m > 1:
            continue
        for j in (1, 2, 3, 4):
            assert _factorization_holds(pi, ai, p, j, ctx)


def test_factorization_identity_over_a_complete_residue_system_mod_35():
    # criterion 6's fourteen objects: both sides depend on p only mod 35
    # and on j only mod exp(35) = 12, so these 24 * 12 cases are every case
    g35 = unit_group(35)
    objects = [GalHeckeChar(field, omega)
               for field in (make_field(35, [6, 11]), make_field(35, [6, 8]))
               for omega in subgroup_characters(g35, field.subgroup)]
    assert len(objects) == 14
    ctx = RootContext(g35.exponent)
    for pi in objects:
        ai = automorphic_induction(pi)
        for r in g35.units:
            for j in range(1, g35.exponent + 1):
                assert _factorization_holds(pi, ai, r, j, ctx), (pi, r, j)


def test_factorization_identity_with_twist_floats():
    pi = base_change(theta(), sqrt5(), tau=0.75)
    ai = automorphic_induction(pi)
    for p in (2, 3, 7, 11):
        over_e = local_coeffs_over_e(pi, p, 4)
        over_q = local_coeffs_over_q(ai, p, 4)
        for a, b in zip(over_e, over_q):
            assert a.n == b.n
            assert abs(a.value - b.value) < 1e-12


def test_compositum_product_characters_distinct():
    # For distinct fields of the same prime degree, pairing one fiber against
    # the other never repeats: the two annihilator groups meet trivially, so
    # all degree^2 product characters are pairwise distinct.
    from itertools import combinations

    from bclab.fields import fields_up_to_conductor

    prime_fields = [f for f in fields_up_to_conductor(60)
                    if f.degree in (2, 3, 5, 7)]
    by_degree = {}
    for f in prime_fields:
        by_degree.setdefault(f.degree, []).append(f)
    for degree, group in by_degree.items():
        fibers = {f.key: {chi.key for chi, _ in bc_fiber(trivial_over(f))}
                  for f in group}
        for a, b in combinations(group, 2):
            shared = fibers[a.key] & fibers[b.key]
            assert shared == {trivial_char(1).key}
    # spot check the full product set at a small common modulus
    e, f = make_field(5, [4]), make_field(4, [])
    products = {(chi * psi).key
                for chi, _ in bc_fiber(trivial_over(e))
                for psi, _ in bc_fiber(trivial_over(f))}
    assert len(products) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.data())
def test_coefficient_bound(m, data):
    g = unit_group(m)
    gens = data.draw(st.lists(st.sampled_from(sorted(g.units)), max_size=2))
    field = make_field(m, gens)
    pi = trivial_over(field)
    ai = automorphic_induction(pi)
    for p in (2, 3, 7, 13):
        for c in local_coeffs_over_q(ai, p, 3):
            assert abs(c.value) <= ai.degree + 1e-9
