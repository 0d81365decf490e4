import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import factorize, is_prime, unit_group
from bclab.fields import (
    compositum,
    fields_up_to_conductor,
    galois_product_check,
    make_field,
    rationals,
    splitting_data,
    splitting_table,
    tower,
    tower_step_degrees,
)
from oracles import tower_oracle


def test_quadratic_field_mod_5():
    e = make_field(5, [4])
    assert e.degree == 2
    assert e.subgroup == frozenset({1, 4})
    assert e.conductor == 5


def test_full_cyclotomic_field():
    e = make_field(5, [])
    assert e.degree == 4
    assert e.subgroup == frozenset({1})


def test_gaussian_field():
    e = make_field(4, [])
    assert e.degree == 2
    assert e.conductor == 4


def test_make_field_rejects_non_units():
    with pytest.raises(ValueError):
        make_field(10, [5])


def test_conductor_drops_redundant_modulus():
    # Q(sqrt 5) presented inside the 20th cyclotomic field:
    # units congruent to a square mod 5 form {1, 9, 11, 19}
    e20 = make_field(20, [9, 11])
    assert e20.degree == 2
    assert e20.conductor == 5
    assert e20 == make_field(5, [4])


def test_splitting_examples():
    e = make_field(5, [4])
    s11 = splitting_data(e, 11)
    assert (s11.f_p, s11.g_p, s11.ramified) == (1, 2, False)
    s2 = splitting_data(e, 2)
    assert (s2.f_p, s2.g_p, s2.ramified) == (2, 1, False)
    s5 = splitting_data(e, 5)
    assert s5.ramified


def test_splitting_rejects_composite():
    with pytest.raises(ValueError):
        splitting_data(make_field(5, [4]), 6)


def test_splitting_fg_product_sweep():
    # f_p * g_p = degree for every unramified p, all fields of conductor <= 60
    primes = [p for p in range(2, 10_001) if is_prime(p)]
    for field in fields_up_to_conductor(60):
        cond = field.conductor
        # f_p depends only on p mod conductor: precompute per residue class
        by_class = {}
        for p in primes:
            if cond % p == 0:
                assert splitting_data(field, p).ramified
                continue
            r = p % cond
            data = splitting_data(field, p)
            assert data.f_p * data.g_p == field.degree
            if r in by_class:
                assert by_class[r] == (data.f_p, data.g_p)
            else:
                by_class[r] = (data.f_p, data.g_p)


def test_splitting_at_prime_dividing_redundant_modulus():
    # Q(sqrt 5) carried at modulus 20: 2 divides the modulus but not the
    # conductor, so it is honestly unramified with the mod-5 splitting
    e20 = make_field(20, [9, 11])
    data = splitting_data(e20, 2)
    assert (data.f_p, data.g_p, data.ramified) == (2, 1, False)


def test_ramified_splitting_reports_unramified_part():
    # 2 in the 20th cyclotomic field: e = 2, f = ord(2 mod 5) = 4, g = 1
    e20 = make_field(20, [])
    data = splitting_data(e20, 2)
    assert data.ramified
    assert (data.f_p, data.g_p) == (4, 1)
    # e * f * g recovers the degree
    assert e20.degree == 2 * data.f_p * data.g_p


def test_split_iff_residue_in_subgroup():
    e = make_field(7, [6])  # cubic field of conductor 7
    for p in (2, 3, 5, 11, 13, 29, 43):
        data = splitting_data(e, p)
        assert (data.f_p == 1) == (p % 7 in e.subgroup)


def test_compositum_of_coprime_quadratics():
    e = make_field(5, [4])
    f = make_field(4, [])
    ef = compositum(e, f)
    assert ef.degree == 4
    assert galois_product_check(e, f)


def test_compositum_with_self():
    e = make_field(5, [4])
    assert compositum(e, e) == e
    assert not galois_product_check(e, e)
    assert galois_product_check(rationals(), rationals())


def test_compositum_coprime_conductors():
    e = make_field(5, [])
    f = make_field(7, [6])
    assert compositum(e, f).degree == 12
    assert galois_product_check(e, f)


def test_tower_of_quintic_cyclotomic():
    chain = tower(make_field(5, []))
    assert [(f.degree, f.conductor) for f in chain] == [(2, 5), (1, 1)]
    assert tower_step_degrees(make_field(5, [])) == [2, 2]


def test_tower_of_rationals_is_empty():
    assert tower(rationals()) == []


def test_tower_of_cubic_is_single_step():
    chain = tower(make_field(7, [6]))
    assert [f.degree for f in chain] == [1]


def test_tower_takes_largest_prime_first():
    assert tower_step_degrees(make_field(7, [])) == [3, 2]
    assert tower_step_degrees(make_field(13, [])) == [3, 2, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_tower_invariants(m, data):
    g = unit_group(m)
    gens = data.draw(st.lists(st.sampled_from(sorted(g.units)), max_size=3))
    field = make_field(m, gens)
    chain = tower(field)
    degrees = tower_step_degrees(field)
    assert all(is_prime(q) for q in degrees)
    total_steps = sum(e for _, e in factorize(field.degree)) \
        if field.degree > 1 else 0
    assert len(chain) == total_steps
    assert len(degrees) == total_steps
    prod = 1
    for q in degrees:
        prod *= q
    assert prod == max(field.degree, 1)
    if chain:
        assert chain[-1].degree == 1
        for bigger, smaller in zip([field] + chain, chain):
            assert bigger.subgroup <= smaller.subgroup


def test_splitting_table_matches_splitting_data():
    # fields at their conductor and at redundant moduli, ramified primes too
    primes = [p for p in range(2, 201) if is_prime(p)]
    fields = fields_up_to_conductor(24) + [make_field(20, [9, 11]),
                                           make_field(60, [7, 11])]
    for field in fields:
        rows = splitting_table(field, 200)
        assert rows == [splitting_data(field, p) for p in primes]
        assert any(r.ramified for r in rows) == (field.conductor > 1)


def test_tower_matches_coset_order_oracle():
    for field in fields_up_to_conductor(36):
        assert [sub.subgroup for sub in tower(field)] == tower_oracle(field)


def test_splitting_table_runs():
    rows = splitting_table(make_field(5, [4]), 30)
    assert [r.p for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_json_roundtrip_fields():
    e = make_field(5, [4])
    assert e.to_json_dict() == {
        "modulus": 5, "subgroup": [1, 4], "degree": 2, "conductor": 5,
    }
