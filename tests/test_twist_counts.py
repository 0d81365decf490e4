from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import DirichletChar, subgroup_characters, unit_group
from bclab.fields import fields_up_to_conductor, make_field
from bclab.automorphic import GalHeckeChar, base_change, trivial_over
from bclab.twist_counts import (
    FiberGroup,
    TwistPairingError,
    coprime_count,
    cross_check_pair_count,
    fiber_group,
    fiber_tower_labels,
    noncuspidal_orbit,
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
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.sub((0, 0), (1, 1)) == (1, 2)
    assert g.identity == (0, 0)
    assert len(g.elements()) == 6


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


def test_orbit_rejects_trivial_relation():
    with pytest.raises(ValueError, match="nontrivial"):
        noncuspidal_orbit(5, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        noncuspidal_orbit(5, 2, 5, 0, 0)


# ------------------------------------------------------- tower label bridge

def test_labels_enumerate_the_full_fiber():
    pi = trivial_over(make_field(5, []))
    fg, labels = fiber_tower_labels(pi)
    assert fg.orders == (2, 2)
    assert sorted(labels.values()) == sorted(fg.elements())


def test_labels_rejected_over_rationals():
    with pytest.raises(ValueError):
        fiber_tower_labels(trivial_over(make_field(1, [])))


def test_labels_match_structural_key_oracle():
    # every character over every field of conductor <= 36 but Q
    for field in fields_up_to_conductor(36):
        if field.degree == 1:
            continue
        for omega in subgroup_characters(field.ambient, field.subgroup):
            pi = GalHeckeChar(field, omega)
            fiber = extensions_oracle(omega, field.ambient)
            fg, labels = fiber_tower_labels(pi)
            assert (fg.orders, labels) == fiber_tower_labels_oracle(pi, fiber)


def test_cross_check_on_named_configurations():
    e = make_field(5, [4])
    theta = DirichletChar(unit_group(5), [1])
    pi = base_change(theta, e)
    assert cross_check_pair_count(pi, pi) == (2, 2)
    assert cross_check_pair_count(trivial_over(e), pi) == (0, 0)
    z5 = trivial_over(make_field(5, []))
    assert cross_check_pair_count(z5, z5) == (4, 4)


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
