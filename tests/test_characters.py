from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import (
    DirichletChar,
    _local_group,
    _restriction_classes,
    _span,
    all_subgroups,
    closure,
    conductor,
    factorize,
    extensions,
    is_prime,
    restrict_char,
    subgroup_characters,
    trivial_char,
    unit_group,
)
from bclab.fields import AbelianField, fields_up_to_conductor
from bclab.pnt import sieve_primes
from oracles import (
    EagerUnitGroup,
    FractionChar,
    all_subgroups_oracle,
    closure_bfs,
    dual_characters,
    extensions_oracle,
    field_conductor_oracle,
    local_dlog_table_loop,
    restrict_char_oracle,
    restriction_classes_oracle,
    subgroup_characters_oracle,
    subgroup_generators_oracle,
)


def phi_brute(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def theta():
    # quartic character mod 5 with theta(2) = i
    return DirichletChar(unit_group(5), [1])


def angle_map(omega):
    return {u: omega.angle(u) for u in omega.elements}


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
    table = {u: g.dlog(u) for u in g.units}
    assert len(table) == phi_brute(m)
    # every unit reconstructs from its discrete log
    for u, vec in table.items():
        rebuilt = 1 % m
        for (gen, _), k in zip(g.generators, vec):
            rebuilt = rebuilt * pow(gen, k, m) % m
        assert rebuilt == u


# ----------------------------------------------------------------- evaluation

def test_quadratic_char_value_at_nonresidue():
    chi = theta() * theta()
    # squares mod 5 are {1, 4}, so chi(2) = -1, carried as exponent N/2
    assert chi.group_exponent(2) == unit_group(5).exponent // 2
    assert chi.angle(2) == Fraction(1, 2)
    assert chi.angle(4) == 0


def test_trivial_char_mod_1():
    one = trivial_char(1)
    for n in (-3, 0, 1, 7, 100):
        assert one.primitive_exponent(n) == 0
        assert one.angle(n) == 0


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
    assert (t * t.conjugate()).order == 1
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
        for chi in dual_characters(g):
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
                assert chi.angle(n) == Fraction(chi.group_exponent(lift),
                                                g.exponent)


def test_conductor_minimality():
    # below the conductor there is always a unit congruent to 1 where the
    # character is nontrivial
    for m in (8, 12, 15, 16, 20, 24, 40):
        g = unit_group(m)
        for chi in dual_characters(g):
            f = chi.conductor
            assert m % f == 0
            for d in divisors_brute(m):
                if d >= f:
                    continue
                witnesses = [u for u in g.units
                             if u % d == 1 % d and chi.group_exponent(u) != 0]
                assert witnesses, (m, chi.exponents, f, d)


def test_conductor_matches_divisor_search_oracles_to_120():
    # the one conductor routine, for every subgroup of (Z/MZ)^x as a field
    # and every character mod M, M <= 120, against the divisor searches
    for m in range(1, 121):
        g = unit_group(m)
        for h in all_subgroups(g):
            want = field_conductor_oracle(m, h)
            assert AbelianField(g, h).conductor == want, (m, sorted(h))
            assert conductor(g, h.__contains__) == want, (m, sorted(h))
        for chi in dual_characters(g):
            assert chi.conductor == FractionChar.of(chi).conductor, (
                m, chi.exponents)


def divisors_brute(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ----------------------------------------------------------------- dual group

def test_dual_group_size_exhaustive():
    # one character per exponent vector: the generator orders multiply
    # to phi(M)
    for m in range(1, 201):
        assert len(dual_characters(unit_group(m))) == phi_brute(m)


def test_dual_group_structurally_distinct():
    for m in range(1, 61):
        chars = dual_characters(unit_group(m))
        assert len({c.key for c in chars}) == len(chars)


# ---------------------------------------------------------------- restriction

def test_restrict_trivial():
    omega = restrict_char(trivial_char(5), [1, 4])
    assert omega.order == 1


def test_restrict_quartic_to_index_two():
    omega = restrict_char(theta(), [1, 4])
    assert omega.order == 2
    assert omega.angle(4) == Fraction(1, 2)


def test_restrict_quadratic_kernel():
    chi5 = theta() * theta()
    omega = restrict_char(chi5, [1, 4])
    assert omega.order == 1


def test_restrict_rejects_non_closed_set():
    with pytest.raises(ValueError, match="closed under multiplication"):
        restrict_char(theta(), [2])  # {2} misses 4 = 2*2


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
                    assert restrict_char(ratio, sub).order == 1


def test_restrict_char_matches_fraction_oracle():
    # every omega with m <= 40, reached by restricting its extensions
    for m in range(1, 41):
        g = unit_group(m)
        for sub in all_subgroups(g):
            for omega in subgroup_characters(g, sub):
                for chi in extensions(omega, g)[:2]:
                    got = angle_map(restrict_char(chi, sub))
                    assert got == restrict_char_oracle(chi, sub) == \
                        angle_map(omega)
                    assert all(type(q) is Fraction and 0 <= q < 1
                               for q in got.values())


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
            assert [angle_map(o) for o in omegas] == \
                subgroup_characters_oracle(g, sub)
            for omega in omegas:
                assert [c.exponents for c in extensions(omega, g)] == \
                    [c.exponents for c in extensions_oracle(omega, g)]


def test_extensions_return_a_fresh_list():
    g = unit_group(5)
    omega = restrict_char(trivial_char(5), [1, 4])
    extensions(omega, g).clear()
    assert len(extensions(omega, g)) == 2


def test_subgroup_char_properties_match_angle_maps():
    # every omega with m <= 40 against its angle map from the oracle; the
    # same character restricted from its last extension is equal, hashes
    # equal and finds omega's entry
    for m in range(1, 41):
        g = unit_group(m)
        index = {}
        maps = set()
        again = []
        for sub in all_subgroups(g):
            omegas = subgroup_characters(g, sub)
            angle_maps = subgroup_characters_oracle(g, sub)
            for omega, angles in zip(omegas, angle_maps, strict=True):
                frozen = frozenset(angles.items())
                assert omega.order == lcm(*[q.denominator
                                            for q in angles.values()])
                same = restrict_char(extensions(omega, g)[-1], sub)
                assert same == omega and hash(same) == hash(omega)
                index[omega] = frozen
                maps.add(frozen)
                again.append((same, frozen))
            for a, qa in zip(omegas, angle_maps):
                for b, qb in zip(omegas, angle_maps):
                    assert (a == b) == (qa == qb)
        assert len(index) == len(maps)
        assert all(index[same] == frozen for same, frozen in again)


def test_subgroups_and_generators_match_closure_growth():
    # ranks up to 4: 2^4 * 3 * 5 = 240 and 2^3 * 3 * 7 = 168
    for m in [*range(1, 73), 80, 96, 105, 120, 168, 240]:
        g = unit_group(m)
        subs = all_subgroups(g)
        assert subs == all_subgroups_oracle(g)
        for sub in subs:
            gens, span = _span(g, sub)
            assert gens == subgroup_generators_oracle(g, sub)
            assert span == sub
            assert closure(g, gens) == sub


def test_restriction_classes_match_per_character_bucketing():
    # every subgroup mod m <= 60, then the fields of conductor <= 24
    # presented at twice their modulus; buckets and their order both count
    cases = [(unit_group(m), sub) for m in range(1, 61)
             for sub in all_subgroups(unit_group(m))]
    for field in fields_up_to_conductor(24):
        lifted = field.lift_to(unit_group(2 * field.modulus))
        cases.append((lifted.ambient, lifted.subgroup))
    for g, sub in cases:
        gens, classes = _restriction_classes(g, sub)
        assert (gens, list(classes.items())) == \
            restriction_classes_oracle(g, sub)


def test_restriction_classes_reject_non_units_and_open_sets():
    g = unit_group(12)
    with pytest.raises(ValueError, match="2 is not a unit modulo 12"):
        _restriction_classes(g, frozenset({1, 2}))
    with pytest.raises(ValueError, match="closed under multiplication"):
        _restriction_classes(g, frozenset({1, 5, 7}))  # 5 * 7 = 11
    with pytest.raises(ValueError, match="closed under multiplication"):
        _restriction_classes(g, frozenset({5}))  # misses 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=120), st.data())
def test_closure_matches_breadth_first_growth(m, data):
    g = unit_group(m)
    elements = data.draw(st.lists(st.sampled_from(g.units), max_size=4))
    assert closure(g, elements) == closure_bfs(m, elements)


# ------------------------------------- CRT-local unit groups against oracles

def test_unit_group_matches_eager_table_oracle():
    for m in range(1, 301):
        g, eager = unit_group(m), EagerUnitGroup(m)
        assert g.generators == eager.generators
        assert g.exponent == eager.exponent
        assert g.order == eager.order
        assert {u: g.dlog(u) for u in g.units} == eager.dlog_table
        assert g.units == eager.units


def test_unit_group_orders_match_sympy():
    from sympy.functions.combinatorial.numbers import reduced_totient, totient
    from sympy.ntheory import n_order, primitive_root

    for m in range(1, 301):
        g = unit_group(m)
        assert g.order == totient(m)
        assert g.exponent == reduced_totient(m)
        for gen, order in g.generators:
            assert n_order(gen, m) == order
        for p, e in factorize(m):
            if p != 2:
                q = p ** e
                lifted = [gen % q for gen, _ in g.generators if gen % q != 1]
                assert lifted == [primitive_root(q)]


def test_local_dlog_tables_match_pow_loop():
    # one residue-indexed table per prime power against one pow per unit
    prime_powers = [f[0] for f in map(factorize, range(2, 2001)) if len(f) == 1]
    for p, e in prime_powers + [(131267, 1)]:
        local = _local_group(p, e)
        want = local_dlog_table_loop(local.generators, local.q)
        assert np.flatnonzero(local.is_unit).tolist() == sorted(want), (p, e)
        assert local.dlogs.shape == (local.q, len(local.generators))
        rows = np.array(list(want.values()), dtype=np.int64)
        assert np.array_equal(local.dlogs[list(want)],
                              rows.reshape(len(want), -1)), (p, e)
        assert not local.dlogs[~local.is_unit].any()
        for arr in (local.is_unit, local.dlogs):
            assert not arr.flags.writeable


def test_dlog_memo_and_non_units():
    g = unit_group(2 ** 5 * 3 ** 2 * 7)
    for u in (1, 5, 13, -1, 2015):
        vec = g.dlog(u)
        assert g.dlog(u + g.modulus) == vec
        rebuilt = 1
        for (gen, _), k in zip(g.generators, vec):
            rebuilt = rebuilt * pow(gen, k, g.modulus) % g.modulus
        assert rebuilt == u % g.modulus
    for u in (0, 2, 21, 2016):
        assert not g.is_unit(u)
        with pytest.raises(ValueError, match="not a unit modulo 2016"):
            g.dlog(u)


def _agrees_with_fraction_oracle(chi, oracle):
    assert chi.modulus == oracle.modulus
    assert chi.exponents == oracle.exponents
    assert chi.conductor == oracle.conductor
    prim, prim_oracle = chi.primitive(), oracle.primitive()
    assert (prim.modulus, prim.exponents) == (prim_oracle.modulus,
                                              prim_oracle.exponents)
    level = chi.group.exponent
    for n in range(chi.modulus):
        q = oracle.angle(n)
        assert chi.angle(n) == q
        assert chi.primitive_exponent(n) == (
            None if q is None else q * prim.group.exponent)
        if gcd(n, chi.modulus) == 1:
            assert Fraction(chi.group_exponent(n), level) == q


def test_characters_match_fraction_oracle():
    for m in range(1, 61):
        for chi in dual_characters(unit_group(m)):
            oracle = FractionChar.of(chi)
            _agrees_with_fraction_oracle(chi, oracle)
            for k in (2, 3):
                lifted = chi.lift_to(unit_group(k * m))
                assert lifted.exponents == oracle.lift_to(k * m).exponents


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), st.integers(1, 120), st.data())
def test_products_match_fraction_oracle(m1, m2, data):
    def draw(m):
        g = unit_group(m)
        exps = [data.draw(st.integers(0, o - 1)) for _, o in g.generators]
        return DirichletChar(g, exps)

    a, b = draw(m1), draw(m2)
    _agrees_with_fraction_oracle(a * b, FractionChar.of(a) * FractionChar.of(b))


def _scalar_exponents(chi, ns):
    """primitive_exponent at each n, with -1 for a zero value."""
    return [-1 if a is None else a
            for a in (chi.primitive_exponent(n) for n in ns)]


def test_exponents_at_matches_primitive_exponent():
    for m in range(1, 61):
        ns = np.arange(-3 * m, 3 * m)
        for chi in dual_characters(unit_group(m)):
            got = chi.exponents_at(ns)
            assert got.dtype == np.int64
            assert got.tolist() == _scalar_exponents(chi, ns.tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), st.data())
def test_exponents_at_matches_on_products(bound, data):
    divisors = [d for d in range(1, bound + 1) if bound % d == 0]

    def draw():
        g = unit_group(data.draw(st.sampled_from(divisors)))
        exps = [data.draw(st.integers(0, o - 1)) for _, o in g.generators]
        return DirichletChar(g, exps)

    chi = draw() * draw()
    ns = list(range(-2 * bound, 2 * bound))
    ns += data.draw(st.lists(st.integers(-10**12, 10**12), max_size=20))
    got = chi.exponents_at(np.array(ns, dtype=np.int64))
    assert got.tolist() == _scalar_exponents(chi, ns)


def test_exponents_at_keeps_the_array_shape():
    chi = theta() * DirichletChar(unit_group(12), [1, 1])
    ns = np.arange(-30, 30).reshape(3, 4, 5)
    got = chi.exponents_at(ns)
    assert got.shape == (3, 4, 5)
    assert got.ravel().tolist() == _scalar_exponents(chi, ns.ravel().tolist())
    assert chi.exponents_at(7).tolist() == chi.primitive_exponent(7)


def test_subgroup_char_value_exponent_gives_its_angle():
    for m in range(1, 25):
        group = unit_group(m)
        for sub in all_subgroups(group):
            for omega in subgroup_characters(group, sub):
                for u in sub:
                    a, level = omega.value_exponent(u)
                    assert 0 <= a < level
                    assert Fraction(a, level) == omega.angle(u)
    with pytest.raises(ValueError, match="not in the subgroup"):
        restrict_char(theta(), {1, 4}).value_exponent(2)


# ---------------------------------------------------------------- primality

# Strong pseudoprimes to the first k prime bases (OEIS A014233), Carmichael
# numbers and a few spsp(2); all composite.
PSEUDOPRIMES = (561, 1105, 1729, 2047, 3277, 4033, 4681, 8321, 1_373_653,
                25_326_001, 3_215_031_751, 2_152_302_898_747,
                3_474_749_660_383, 341_550_071_728_321,
                3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461)


def test_is_prime_matches_sieve_to_1e6():
    flags = [False] * (10**6 + 1)
    for p in sieve_primes(10**6).tolist():
        flags[p] = True
    assert [n for n in range(-5, 10**6 + 1) if is_prime(n) != flags[max(n, 0)]
            ] == []


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n):
    from sympy import isprime
    assert not isprime(n)
    assert not is_prime(n)
    q = n + 2  # and the next prime above it is found
    while not isprime(q):
        q += 2
    assert is_prime(q)


@settings(max_examples=400)
@given(st.one_of(st.integers(0, 10**20), st.integers(0, 10**12),
                 st.integers(10**20, 3 * 10**24)))
def test_is_prime_matches_sympy(n):
    from sympy import isprime
    assert is_prime(n) == isprime(n)


def test_is_prime_past_the_miller_rabin_bounds():
    # trial division takes over; each n's least prime factor is 101 or more
    bound = 3_317_044_064_679_887_385_961_981
    big_prime = 10**20 + 39
    for n in (101 * bound, 99_991 * big_prime, 1_000_003 ** 2 * big_prime,
              1_000_003 * 1_000_033 * big_prime):
        assert n >= bound and not is_prime(n)
