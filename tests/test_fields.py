import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import factorize, is_prime, unit_group
from bclab.fields import (
    AbelianField,
    _tower_chain,
    compositum,
    fields_up_to_conductor,
    make_field,
    order_mod_subgroup,
    splitting_table,
)
from oracles import splitting_oracle, tower_oracle


def split_at(field, p):
    """The row of the prime p in the field's splitting table."""
    row = splitting_table(field, p)[-1]
    assert row.p == p
    return row


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
    s11 = split_at(e, 11)
    assert (s11.f_p, s11.g_p, s11.ramified) == (1, 2, False)
    s2 = split_at(e, 2)
    assert (s2.f_p, s2.g_p, s2.ramified) == (2, 1, False)
    s5 = split_at(e, 5)
    assert s5.ramified


def test_splitting_fg_product_sweep():
    # f_p * g_p = degree for every unramified p, all fields of conductor <= 60
    for field in fields_up_to_conductor(60):
        cond = field.conductor
        # f_p depends only on p mod conductor: precompute per residue class
        by_class = {}
        for data in splitting_table(field, 10_000):
            p = data.p
            if cond % p == 0:
                assert data.ramified
                continue
            r = p % cond
            assert data.f_p * data.g_p == field.degree
            if r in by_class:
                assert by_class[r] == (data.f_p, data.g_p)
            else:
                by_class[r] = (data.f_p, data.g_p)
        # the primes reach every unit class, so the sweep is complete
        assert set(by_class) == set(unit_group(cond).units)


def test_splitting_at_prime_dividing_redundant_modulus():
    # Q(sqrt 5) carried at modulus 20: 2 divides the modulus but not the
    # conductor, so it is honestly unramified with the mod-5 splitting
    e20 = make_field(20, [9, 11])
    data = split_at(e20, 2)
    assert (data.f_p, data.g_p, data.ramified) == (2, 1, False)


def test_ramified_splitting_reports_unramified_part():
    # 2 in the 20th cyclotomic field: e = 2, f = ord(2 mod 5) = 4, g = 1
    e20 = make_field(20, [])
    data = split_at(e20, 2)
    assert data.ramified
    assert (data.f_p, data.g_p) == (4, 1)
    # e * f * g recovers the degree
    assert e20.degree == 2 * data.f_p * data.g_p


def test_split_iff_residue_in_subgroup():
    e = make_field(7, [6])  # cubic field of conductor 7
    for p in (2, 3, 5, 11, 13, 29, 43):
        data = split_at(e, p)
        assert (data.f_p == 1) == (p % 7 in e.subgroup)


def test_order_mod_subgroup_rejects_a_non_unit():
    # no power of a non-unit lies in H: there is no order to find
    with pytest.raises(ValueError, match="5 is not a unit mod 5"):
        order_mod_subgroup(5, frozenset({1, 4}), 5)
    with pytest.raises(ValueError, match="4 is not a unit mod 10"):
        order_mod_subgroup(10, frozenset({1, 9}), 4)
    # no power of a unit lies in a set without 1: there is no order either
    with pytest.raises(ValueError, match="does not contain 1"):
        order_mod_subgroup(7, frozenset(), 3)
    assert order_mod_subgroup(5, frozenset({1, 4}), 3) == 2
    assert order_mod_subgroup(1, frozenset({0}), 7) == 1


def test_compositum_of_coprime_quadratics():
    e = make_field(5, [4])
    f = make_field(4, [])
    ef = compositum(e, f)
    assert ef.degree == 4
    assert ef.degree == e.degree * f.degree


def test_compositum_with_self():
    e = make_field(5, [4])
    assert compositum(e, e) == e
    assert compositum(e, e).degree != e.degree * e.degree
    q = make_field(1, [])
    assert compositum(q, q).degree == q.degree * q.degree


def test_compositum_coprime_conductors():
    e = make_field(5, [])
    f = make_field(7, [6])
    assert compositum(e, f).degree == 12
    assert compositum(e, f).degree == e.degree * f.degree


def tower(field):
    """The subgroups of the field's prime-degree tower above its own."""
    return _tower_chain(field.ambient, field.subgroup)


def step_degrees(field):
    """Prime degree of each step of the field's tower, largest first."""
    sizes = [len(field.subgroup)] + [len(sub) for sub in tower(field)]
    return [big // small for small, big in zip(sizes, sizes[1:])]


def test_tower_of_quintic_cyclotomic():
    # Q(zeta_5) > Q(sqrt 5) > Q
    assert tower(make_field(5, [])) == [frozenset({1, 4}),
                                        frozenset({1, 2, 3, 4})]
    assert step_degrees(make_field(5, [])) == [2, 2]


def test_tower_of_rationals_is_empty():
    assert tower(make_field(1, [])) == []


def test_tower_of_cubic_is_single_step():
    field = make_field(7, [6])
    assert tower(field) == [frozenset(field.ambient.units)]


def test_tower_takes_largest_prime_first():
    assert step_degrees(make_field(7, [])) == [3, 2]
    assert step_degrees(make_field(13, [])) == [3, 2, 2]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_tower_invariants(m, data):
    g = unit_group(m)
    gens = data.draw(st.lists(st.sampled_from(sorted(g.units)), max_size=3))
    field = make_field(m, gens)
    chain = tower(field)
    degrees = step_degrees(field)
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
        assert chain[-1] == frozenset(g.units)
        for smaller, bigger in zip([field.subgroup] + chain, chain):
            assert smaller <= bigger


def test_splitting_table_matches_coset_orders():
    # fields at their conductor and at redundant moduli, ramified primes too
    primes = [p for p in range(2, 201) if is_prime(p)]
    fields = fields_up_to_conductor(24) + [make_field(20, [9, 11]),
                                           make_field(60, [7, 11])]
    for field in fields:
        rows = splitting_table(field, 200)
        assert [(r.p, r.f_p, r.g_p, r.ramified) for r in rows] == \
            [(p, *splitting_oracle(field, p)) for p in primes]
        assert any(r.ramified for r in rows) == (field.conductor > 1)


def test_tower_matches_coset_order_oracle():
    for field in fields_up_to_conductor(60):
        assert tower(field) == tower_oracle(field)


def test_tower_of_lifted_presentations_matches_oracle():
    # every field of conductor <= 24 presented at 2x and 3x its modulus
    for field in fields_up_to_conductor(24):
        for k in (2, 3):
            lifted = field.lift_to(unit_group(k * field.modulus))
            assert tower(lifted) == tower_oracle(lifted)


def same_as_checked(field):
    checked = AbelianField(field.ambient, field.subgroup)
    return ((field.key, field.degree, field.conductor, field.subgroup)
            == (checked.key, checked.degree, checked.conductor,
                checked.subgroup))


def test_library_built_fields_match_the_checked_constructor():
    # fields_up_to_conductor, lift_to, compositum and make_field skip the
    # closure check on subgroups they built themselves; the tower chain's
    # sets pass it too
    fields = fields_up_to_conductor(60)
    for field in fields:
        assert same_as_checked(field)
        assert all(AbelianField(field.ambient, sub).subgroup == sub
                   for sub in tower(field))
        assert same_as_checked(field.lift_to(unit_group(2 * field.modulus)))
        gens = [u for u in sorted(field.subgroup) if u != 1][:2]
        assert same_as_checked(make_field(field.modulus, gens))
    for e, f in zip(fields, fields[7::7]):
        assert same_as_checked(compositum(e, f))


def test_public_constructor_rejects_a_non_subgroup():
    g = unit_group(12)
    with pytest.raises(ValueError, match="closed under multiplication"):
        AbelianField(g, frozenset({1, 5, 7}))  # 5 * 7 = 11
    with pytest.raises(ValueError, match="2 is not a unit modulo 12"):
        AbelianField(g, frozenset({1, 2}))


def test_splitting_table_runs():
    rows = splitting_table(make_field(5, [4]), 30)
    assert [r.p for r in rows] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_json_roundtrip_fields():
    e = make_field(5, [4])
    assert e.to_json_dict() == {
        "modulus": 5, "subgroup": [1, 4], "degree": 2, "conductor": 5,
    }
