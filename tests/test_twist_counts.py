from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import DirichletChar, subgroup_characters, unit_group
from bclab.fields import fields_up_to_conductor, make_field
from bclab.automorphic import GalHeckeChar, base_change, trivial_over
from bclab.rankin_selberg import twisted_pairs
from bclab.twist_counts import (
    FiberGroup,
    TwistPairingError,
    _tower_frame,
    coprime_count,
    cross_check_pair_count,
    fiber_group,
    fiber_tower_labels,
    noncuspidal_orbit,
    noncuspidal_orbit_size,
    pair_subgroup,
)
from oracles import extensions_oracle, fiber_tower_labels_oracle


# ----------------------------------------------------------------- the groups

def test_fiber_group_examples():
    assert fiber_group((2, 2)).order == 4
    assert fiber_group((3,)).order == 3
    assert fiber_group((2, 3)).order == 6


def test_fiber_group_rejects_empty_and_composite():
    with pytest.raises(ValueError):
        fiber_group(())
    with pytest.raises(ValueError):
        fiber_group((4,))


def test_group_law():
    g = fiber_group((2, 3))
    assert g.sub((0, 0), (1, 1)) == (1, 2)
    elements = list(product(range(2), range(3)))
    assert all(g.contains(a) for a in elements)
    assert all(g.sub(a, b) in elements for a in elements for b in elements)
    assert not g.contains((2, 0)) and not g.contains((0,))


# -------------------------------------------------------------- pair subgroup

def test_trivial_pairing():
    g = fiber_group((2, 2))
    sub = pair_subgroup(g, [((0, 0), "w")])
    assert sub.order == 1


def test_full_pairing_forced_by_closure():
    g = fiber_group((2,))
    sub = pair_subgroup(g, [((0,), "a"), ((1,), "b")])
    assert sub.order == 2


def test_size_three_in_order_four_rejected():
    g = FiberGroup((4,))  # direct construction, abstract cyclic group
    subsets = combinations([(0,), (1,), (2,), (3,)], 3)
    for trio in subsets:
        with pytest.raises(TwistPairingError):
            pair_subgroup(g, [(t, i) for i, t in enumerate(trio)])


def test_duplicate_members_rejected_with_diagnostic():
    g = fiber_group((3,))
    with pytest.raises(TwistPairingError, match="occurs in two pairs"):
        pair_subgroup(g, [((0,), "x"), ((0,), "y")])
    with pytest.raises(TwistPairingError, match="occurs in two pairs"):
        pair_subgroup(g, [((0,), "x"), ((1,), "x")])


def test_empty_pairing_is_allowed():
    assert pair_subgroup(fiber_group((2,)), []).order == 0


def test_translated_coset_is_accepted():
    # projection {1} inside Z/3: translating by the base member gives {0}
    g = fiber_group((3,))
    assert pair_subgroup(g, [((1,), "w")]).order == 1


def exhaustive_consistent_pairings(l, l_prime):
    """All partial injective matchings between Z/l and Z/l_prime."""
    lefts = [(i,) for i in range(l)]
    rights = list(range(l_prime))
    for size in range(l + 1):
        if size > l_prime:
            break
        for chosen in combinations(lefts, size):
            for image in product(rights, repeat=size):
                if len(set(image)) != size:
                    continue
                yield list(zip(chosen, image))


def test_lagrange_divisibility_exhaustive_small():
    for l in (2, 3, 5):
        for l_prime in (2, 3, 5):
            g = fiber_group((l,))
            for pairing in exhaustive_consistent_pairings(l, l_prime):
                try:
                    sub = pair_subgroup(g, pairing)
                except TwistPairingError:
                    continue  # not a coset of a subgroup: correctly rejected
                assert sub.order == len(pairing)
                if sub.order:
                    assert g.order % sub.order == 0


# -------------------------------------------------------------- coprime count

def test_coprime_count_values():
    assert coprime_count(4, 3, True) == 1
    assert coprime_count(2, 3, False) == 0
    assert coprime_count(5, 6, True) == 1


def test_coprime_count_rejects_common_factor():
    with pytest.raises(ValueError, match="coprime"):
        coprime_count(4, 6, True)


def test_one_is_the_only_common_divisor():
    # brute force: divisors of coprime pairs intersect in {1}
    for l in range(1, 30):
        for lp in range(1, 30):
            if __import__("math").gcd(l, lp) != 1:
                continue
            common = {d for d in range(1, l + 1) if l % d == 0} & \
                     {d for d in range(1, lp + 1) if lp % d == 0}
            assert common == {1}


# ----------------------------------------------------------- noncuspidal orbit

def test_orbit_degree_two():
    assert noncuspidal_orbit(2, 1, 1, 0, 0) == {(0, 0), (1, 1)}


def test_orbit_cycles_second_coordinate():
    assert noncuspidal_orbit(3, 0, 1, 0, 0) == {(0, 0), (0, 2), (0, 1)}


def test_orbit_sizes_exhaustive_small_primes():
    for l in (2, 3, 5, 7):
        for s in range(l):
            for r in range(1, l):
                assert len(noncuspidal_orbit(l, s, r, 0, 0)) == l
                assert noncuspidal_orbit_size(l, s, r) == l


def test_orbit_rejects_trivial_relation():
    for orbit in (lambda l, s, r: noncuspidal_orbit(l, s, r, 0, 0),
                  noncuspidal_orbit_size):
        with pytest.raises(ValueError, match="nontrivial"):
            orbit(5, 2, 0)
        with pytest.raises(ValueError):
            orbit(5, 2, 5)


# ------------------------------------------------------- tower label bridge

def test_labels_enumerate_the_full_fiber():
    pi = trivial_over(make_field(5, []))
    fg, labels = fiber_tower_labels(pi)
    assert fg.orders == (2, 2)
    assert sorted(labels.values()) == list(product(*map(range, fg.orders)))


def test_labels_rejected_over_rationals():
    with pytest.raises(ValueError):
        fiber_tower_labels(trivial_over(make_field(1, [])))


def _assert_labels_match_oracle(field):
    for omega in subgroup_characters(field.ambient, field.subgroup):
        pi = GalHeckeChar(field, omega)
        fiber = extensions_oracle(omega, field.ambient)
        fg, labels = fiber_tower_labels(pi)
        assert (fg.orders, labels) == fiber_tower_labels_oracle(pi, fiber)


def test_labels_match_structural_key_oracle():
    # every character over every field of conductor <= 36 but Q
    for field in fields_up_to_conductor(36):
        if field.degree > 1:
            _assert_labels_match_oracle(field)


def test_labels_of_lifted_presentations_match_oracle():
    # every field of conductor <= 24 presented at 2x and 3x its modulus
    # first, so the cached frames of the lifts exist before those of the
    # conductor presentations
    _tower_frame.cache_clear()
    fields = [f for f in fields_up_to_conductor(24) if f.degree > 1]
    for field in fields:
        for k in (2, 3):
            _assert_labels_match_oracle(
                field.lift_to(unit_group(k * field.modulus)))
    for field in fields:
        _assert_labels_match_oracle(field)


def test_equal_fields_at_two_moduli_get_their_own_frames():
    # criterion 6 presents the quartic field of conductor 5 mod 35: the
    # field compares equal to its conductor presentation, but its exponent
    # vectors have two entries, not one
    e5 = make_field(5, [])
    e35 = make_field(35, [6, 11])
    assert e5 == e35 and hash(e5) == hash(e35)
    _tower_frame.cache_clear()
    for field in (e5, e35, e5):
        _assert_labels_match_oracle(field)
    assert _tower_frame.cache_info().currsize == 2


def test_cross_check_on_named_configurations():
    e = make_field(5, [4])
    theta = DirichletChar(unit_group(5), [1])
    pi = base_change(theta, e)
    assert cross_check_pair_count(pi, pi) == (2, 2)
    assert cross_check_pair_count(trivial_over(e), pi) == (0, 0)
    z5 = trivial_over(make_field(5, []))
    assert cross_check_pair_count(z5, z5) == (4, 4)


def test_cross_check_with_the_callers_pairing_matches_its_own():
    # every pair of the conductor <= 24 population
    configs = [GalHeckeChar(field, omega)
               for field in fields_up_to_conductor(24)
               for omega in subgroup_characters(field.ambient, field.subgroup)]
    sizes = set()
    for pi, pi_prime in combinations_with_replacement(configs, 2):
        pairing = twisted_pairs(pi, pi_prime)
        got = cross_check_pair_count(pi, pi_prime, pairing)
        assert got == cross_check_pair_count(pi, pi_prime)
        sizes.add(got[0])
    assert len(sizes) > 2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=2,
                                                           max_value=30),
       st.data())
def test_cross_check_matches_structural_count(m1, m2, data):
    g1, g2 = unit_group(m1), unit_group(m2)
    f1 = make_field(m1, data.draw(
        st.lists(st.sampled_from(sorted(g1.units)), max_size=2)))
    f2 = make_field(m2, data.draw(
        st.lists(st.sampled_from(sorted(g2.units)), max_size=2)))
    e1 = [data.draw(st.integers(0, o - 1)) for _, o in g1.generators]
    e2 = [data.draw(st.integers(0, o - 1)) for _, o in g2.generators]
    pi = base_change(DirichletChar(g1, e1), f1)
    pi_prime = base_change(DirichletChar(g2, e2), f2)
    structural, symbolic = cross_check_pair_count(pi, pi_prime)
    assert structural == symbolic
