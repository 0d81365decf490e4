from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import (
    DirichletChar,
    SubgroupChar,
    _subgroup_generators,
    all_subgroups,
    closure,
    dual_group,
    extensions,
    restrict_char,
    subgroup_characters,
    trivial_char,
    unit_group,
)
from oracles import (
    all_subgroups_oracle,
    closure_bfs,
    extensions_oracle,
    subgroup_characters_oracle,
    subgroup_generators_oracle,
)


def phi_brute(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def theta():
    # quartic character mod 5 with theta(2) = i
    return DirichletChar(unit_group(5), [1])


# ---------------------------------------------------------------- unit groups

def test_unit_group_mod_5():
    g = unit_group(5)
    assert len(g.generators) == 1
    gen, order = g.generators[0]
    assert order == 4
    # brute force: powers of the generator must cover all units
    assert {pow(gen, k, 5) for k in range(4)} == {1, 2, 3, 4}
    assert gen == 2  # 2 is the smallest primitive root mod 5


def test_unit_group_mod_1_trivial():
    g = unit_group(1)
    assert g.generators == ()
    assert g.order == 1


def test_unit_group_mod_16_two_generators():
    g = unit_group(16)
    orders = sorted(o for _, o in g.generators)
    assert orders == [2, 4]
    # brute force: the generator products must cover all 8 units mod 16
    (g1, o1), (g2, o2) = g.generators
    covered = {pow(g1, a, 16) * pow(g2, b, 16) % 16
               for a in range(o1) for b in range(o2)}
    assert covered == {1, 3, 5, 7, 9, 11, 13, 15}


def test_unit_group_rejects_zero():
    with pytest.raises(ValueError):
        unit_group(0)


def test_two_power_moduli_use_minus_one_and_five():
    for k in (3, 4, 5):
        m = 2 ** k
        (g1, o1), (g2, o2) = unit_group(m).generators
        assert (g1, o1) == (m - 1, 2)
        assert (g2, o2) == (5, 2 ** (k - 2))
    # CRT-lifted inside a composite modulus
    g24 = unit_group(24)
    two_part = [(g, o) for g, o in g24.generators if g % 3 == 1]
    assert sorted(o for _, o in two_part) == [2, 2]
    assert any(g % 8 == 7 for g, _ in two_part)  # the lift of -1 mod 8
    assert any(g % 8 == 5 for g, _ in two_part)  # the lift of 5 mod 8
    # k = 2 keeps one generator, k <= 1 none
    assert len(unit_group(4).generators) == 1
    assert unit_group(2).generators == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_unit_group_structure(m):
    g = unit_group(m)
    orders = [o for _, o in g.generators]
    prod = 1
    for o in orders:
        prod *= o
    assert prod == phi_brute(m)
    assert len(g.dlog_table) == phi_brute(m)
    # every unit reconstructs from its discrete log
    for u, vec in g.dlog_table.items():
        rebuilt = 1 % m
        for (gen, _), k in zip(g.generators, vec):
            rebuilt = rebuilt * pow(gen, k, m) % m
        assert rebuilt == u


# ----------------------------------------------------------------- evaluation

def test_quadratic_char_value_at_nonresidue():
    chi = theta() * theta()
    # squares mod 5 are {1, 4}, so chi(2) = -1, carried as exponent N/2
    assert chi.eval_exponent(2) == unit_group(5).exponent // 2
    assert chi.angle(2) == Fraction(1, 2)
    assert chi.angle(4) == 0


def test_trivial_char_mod_1():
    one = trivial_char(1)
    for n in (-3, 0, 1, 7, 100):
        assert one.eval_exponent(n) == 0


def test_quartic_square_value():
    t = theta()
    assert t.angle(2) == Fraction(1, 4)
    assert t.angle(4) == Fraction(1, 2)  # theta(4) = theta(2)^2 = -1


def test_eval_zero_on_conductor_divisors():
    t = theta()
    assert t.angle(5) is None
    assert t.angle(10) is None
    assert t.angle(0) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_complete_multiplicativity(m, data):
    g = unit_group(m)
    exps = [data.draw(st.integers(0, o - 1)) for _, o in g.generators]
    chi = DirichletChar(g, exps)
    a = data.draw(st.integers(-100, 1000))
    b = data.draw(st.integers(-100, 1000))
    qa, qb, qab = chi.angle(a), chi.angle(b), chi.angle(a * b)
    if qa is None or qb is None:
        assert qab is None
    else:
        assert qab == (qa + qb) % 1


# ------------------------------------------------------------ group structure

def test_char_times_conjugate_is_trivial():
    t = theta()
    assert (t * t.conjugate()).is_trivial
    assert (t * t.conjugate()) == trivial_char(1)


def test_theta_squared_is_quadratic():
    t = theta()
    sq = t * t
    assert sq.order == 2
    assert t.order == 4


def test_cross_modulus_product():
    chi5 = theta() * theta()
    chi4 = DirichletChar(unit_group(4), [1])
    prod = chi5 * chi4
    assert prod.modulus == 20
    assert prod.conductor == 20
    assert prod.angle(3) == (chi5.angle(3) + chi4.angle(3)) % 1


def test_structural_equality_ignores_ambient_modulus():
    t = theta()
    lifted = t.lift_to(unit_group(40))
    assert lifted == t
    assert lifted.conductor == 5
    assert hash(lifted) == hash(t)
    assert t != t.conjugate()


def test_conductor_examples():
    assert trivial_char(12).conductor == 1
    assert theta().conductor == 5
    chi4 = DirichletChar(unit_group(4), [1])
    assert chi4.conductor == 4
    # the quadratic character mod 8 attached to 2: conductor 8
    g8 = unit_group(8)
    for exps in ([1, 0], [0, 1], [1, 1]):
        chi = DirichletChar(g8, exps)
        assert chi.conductor in (4, 8)


def test_json_serialization():
    t = theta()
    assert t.to_json_dict() == {"modulus": 5, "exponents": [1], "conductor": 5}


def test_primitive_evaluation_matches_coprime_lifts():
    # chi*(n) must equal chi at any lift of n that is coprime to the full
    # modulus, whenever gcd(n, conductor) = 1
    for m in range(2, 41):
        g = unit_group(m)
        for chi in dual_group(g):
            f = chi.conductor
            if f == m:
                continue
            for n in range(1, m + 1):
                if gcd(n % f, f) != 1:
                    assert chi.angle(n) is None
                    continue
                lift = n % f
                while gcd(lift, m) != 1:
                    lift += f
                assert chi.angle(n) == chi.group_angle(lift)


def test_conductor_minimality():
    # below the conductor there is always a unit congruent to 1 where the
    # character is nontrivial
    for m in (8, 12, 15, 16, 20, 24, 40):
        g = unit_group(m)
        for chi in dual_group(g):
            f = chi.conductor
            assert m % f == 0
            for d in divisors_brute(m):
                if d >= f:
                    continue
                witnesses = [u for u in g.units
                             if u % d == 1 % d and chi.group_angle(u) != 0]
                assert witnesses, (m, chi.exponents, f, d)


def divisors_brute(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ----------------------------------------------------------------- dual group

def test_dual_group_size_exhaustive():
    for m in range(1, 201):
        assert len(dual_group(unit_group(m))) == phi_brute(m)


def test_dual_group_structurally_distinct():
    for m in range(1, 61):
        chars = dual_group(unit_group(m))
        assert len({c.key for c in chars}) == len(chars)


# ---------------------------------------------------------------- restriction

def test_restrict_trivial():
    omega = restrict_char(trivial_char(5), [1, 4])
    assert omega.is_trivial


def test_restrict_quartic_to_index_two():
    omega = restrict_char(theta(), [1, 4])
    assert omega.order == 2
    assert omega.angle(4) == Fraction(1, 2)


def test_restrict_quadratic_kernel():
    chi5 = theta() * theta()
    omega = restrict_char(chi5, [1, 4])
    assert omega.is_trivial


def test_restrict_rejects_non_closed_set():
    with pytest.raises(ValueError, match="closed under multiplication"):
        restrict_char(theta(), [2])  # {2} misses 4 = 2*2


def test_subgroup_char_rejects_non_homomorphism():
    g = unit_group(5)
    with pytest.raises(ValueError, match="homomorphism"):
        SubgroupChar(g, {1: Fraction(0), 4: Fraction(1, 3)})


# ------------------------------------------------------------------ extension

def test_extensions_of_trivial_on_index_two():
    g = unit_group(5)
    omega = restrict_char(trivial_char(5), [1, 4])
    exts = extensions(omega, g)
    assert len(exts) == 2
    assert {tuple(c.exponents) for c in exts} == {(0,), (2,)}


def test_extensions_of_restricted_quartic():
    g = unit_group(5)
    omega = restrict_char(theta(), [1, 4])
    exts = extensions(omega, g)
    assert {tuple(c.exponents) for c in exts} == {(1,), (3,)}


def test_extensions_of_full_group_is_identity():
    g = unit_group(5)
    omega = restrict_char(theta(), [1, 2, 3, 4])
    exts = extensions(omega, g)
    assert len(exts) == 1
    assert exts[0] == theta()


def test_extension_count_and_roundtrip_exhaustive():
    # every subgroup, every character of it, for all moduli up to 60
    for m in range(1, 61):
        g = unit_group(m)
        for sub in all_subgroups(g):
            index = g.order // len(sub)
            for omega in subgroup_characters(g, sub):
                exts = extensions(omega, g)
                assert len(exts) == index
                assert len({c.key for c in exts}) == index
                for chi in exts:
                    assert restrict_char(chi, sub) == omega
                # any two extensions differ by a character trivial on H
                for chi in exts[1:]:
                    ratio = chi * exts[0].conjugate()
                    assert restrict_char(ratio, sub).is_trivial


def test_closure_helper():
    g = unit_group(20)
    sub = closure(g, [3])
    assert sub == frozenset({1, 3, 9, 7})
    with pytest.raises(ValueError):
        closure(g, [5])


def test_extensions_match_dual_scan_oracle():
    # every character of every subgroup, all moduli up to 40: same
    # characters in the same order as a scan comparing angles on all of H
    for m in range(1, 41):
        g = unit_group(m)
        for sub in all_subgroups(g):
            omegas = subgroup_characters(g, sub)
            assert [o.key for o in omegas] == \
                [o.key for o in subgroup_characters_oracle(g, sub)]
            for omega in omegas:
                assert [c.exponents for c in extensions(omega, g)] == \
                    [c.exponents for c in extensions_oracle(omega, g)]


def test_extensions_reject_values_outside_the_group_exponent():
    # exponent of (Z/5Z)^x is 4, so a value of angle 1/3 extends nowhere
    g = unit_group(5)
    omega = SubgroupChar(g, {1: Fraction(0), 4: Fraction(1, 3)}, check=False)
    with pytest.raises(ArithmeticError, match="expected 2 extensions, found 0"):
        extensions(omega, g)


def test_extensions_return_a_fresh_list():
    g = unit_group(5)
    omega = restrict_char(trivial_char(5), [1, 4])
    extensions(omega, g).clear()
    assert len(extensions(omega, g)) == 2


def test_subgroups_and_generators_match_closure_growth():
    for m in range(1, 49):
        g = unit_group(m)
        subs = all_subgroups(g)
        assert subs == all_subgroups_oracle(g)
        for sub in subs:
            gens = _subgroup_generators(g, sub)
            assert gens == subgroup_generators_oracle(g, sub)
            assert closure(g, gens) == sub


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=120), st.data())
def test_closure_matches_breadth_first_growth(m, data):
    g = unit_group(m)
    elements = data.draw(st.lists(st.sampled_from(g.units), max_size=4))
    assert closure(g, elements) == closure_bfs(m, elements)
