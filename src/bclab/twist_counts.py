"""Symbolic counting of twisted-pair sets.

The fiber of representations over Q lifting to a fixed object over E is
indexed by exponent tuples along a prime-degree tower; with componentwise
addition those tuples form a product of cyclic prime-order groups.  The
members that occur in twisted pairs project (after translating by one of
them) onto a subgroup, so the pair count divides both fiber orders, and
coprime orders force a single pair.  The non-cuspidal self-twist relation
instead generates an orbit of full prime length.

The tower-coordinate cross-check agrees with the fiber count whenever it
returns; it tests the tower frames and that the matched labels form a
coset, not |T| itself (see `cross_check_pair_count`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .characters import UnitGroup, _restriction_classes, is_prime


class TwistPairingError(ValueError):
    """A pairing set violating the at-most-one-partner uniqueness rule."""


@dataclass(frozen=True)
class FiberGroup:
    """Product of cyclic groups of the given prime orders, law componentwise."""

    orders: tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % o for x, y, o in zip(a, b, self.orders))

    def contains(self, a) -> bool:
        return (len(a) == len(self.orders)
                and all(0 <= x < o for x, o in zip(a, self.orders)))


@dataclass(frozen=True)
class PairSubgroup:
    """Projection of a twisted-pair set onto the fiber group, normalized to
    contain the identity.  Its order equals the number of pairs."""

    group: FiberGroup
    elements: frozenset[tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.elements)


def fiber_group(degrees) -> FiberGroup:
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("a fiber group needs at least one cyclic factor")
    for d in degrees:
        if not is_prime(d):
            raise ValueError(f"tower step degrees must be prime, got {d}")
    return FiberGroup(degrees)


def pair_subgroup(group: FiberGroup, pairs) -> PairSubgroup:
    """Verify a pairing set and return its normalized fiber-side projection.

    Each fiber element may occur in at most one pair (on either side);
    the projection, translated by its least member, must be closed under
    the componentwise law, and is then a subgroup, whose order divides the
    group's (Lagrange).  Violations raise TwistPairingError with the
    offending elements named.
    """
    pairs = list(pairs)
    lefts = [g for g, _ in pairs]
    rights = [h for _, h in pairs]
    for g in lefts:
        if not group.contains(g):
            raise TwistPairingError(f"{g} is not an element of {group.orders}")
    if len(set(lefts)) != len(lefts):
        dup = next(g for g in lefts if lefts.count(g) > 1)
        raise TwistPairingError(
            f"fiber element {dup} occurs in two pairs; each element has at "
            "most one twisted partner"
        )
    if len(set(rights)) != len(rights):
        dup = next(h for h in rights if rights.count(h) > 1)
        raise TwistPairingError(
            f"partner {dup} occurs in two pairs; each element has at most "
            "one twisted partner"
        )
    if not pairs:
        return PairSubgroup(group, frozenset())
    base = sorted(lefts)[0]
    translated = frozenset(group.sub(g, base) for g in lefts)
    for a in translated:
        for b in translated:
            if group.sub(a, b) not in translated:
                raise TwistPairingError(
                    f"translated projection is not a subgroup: "
                    f"{a} - {b} escapes the set"
                )
    return PairSubgroup(group, translated)


def coprime_count(l: int, l_prime: int, t_nonempty: bool) -> int:
    """Pair count under coprime fiber orders: it divides both, hence is 0 or 1."""
    if gcd(l, l_prime) != 1:
        raise ValueError(
            f"count applies only to coprime orders, got gcd({l},{l_prime}) = "
            f"{gcd(l, l_prime)}"
        )
    return 1 if t_nonempty else 0


def noncuspidal_orbit_size(l: int, s: int, r: int) -> int:
    """Number of pairs in every orbit of the self-twist relation of exponent
    (s, r), without enumerating one: l, since the second coordinates
    j0 - t*r are pairwise distinct for t mod the prime l.  Raises ValueError
    for the arguments `noncuspidal_orbit` rejects, with the same messages."""
    if not is_prime(l):
        raise ValueError(f"orbit length must be prime, got {l}")
    if not 0 <= s < l:
        raise ValueError(f"s must be a residue mod {l}, got {s}")
    if r % l == 0:
        raise ValueError(
            "the self-twist relation must be nontrivial on the second "
            f"coordinate: r = {r} vanishes mod {l}"
        )
    if not 1 <= r < l:
        raise ValueError(f"r must be a nonzero residue mod {l}, got {r}")
    return l


def noncuspidal_orbit(l: int, s: int, r: int, i0: int, j0: int
                      ) -> set[tuple[int, int]]:
    """Orbit of a base pair under the self-twist relation of exponent (s, r).

    Starting from a twisted pair (i0, j0), the relation produces
    (i0 + t*s, j0 - t*r) for every t; since r is nonzero mod the prime l the
    second coordinates are pairwise distinct, so the orbit has exactly l pairs.
    """
    noncuspidal_orbit_size(l, s, r)
    orbit = {((i0 + t * s) % l, (j0 - t * r) % l) for t in range(l)}
    if len(orbit) != l:
        raise ArithmeticError("orbit degenerated; this cannot happen for prime l")
    return orbit


# ---------------------------------------------------------------------------
# Bridge from structural fibers to tower coordinates.

@lru_cache(maxsize=None)
def _tower_frame(group: UnitGroup, subgroup: frozenset[int]
                 ) -> tuple[FiberGroup, dict[tuple[int, ...], tuple[int, ...]]]:
    """The tower frame of the field cut out by H = `subgroup` mod M: its
    FiberGroup, and the tower label of every element of A_E (the [E:Q]
    characters trivial on H) keyed by its exponent vector on the generators.

    The coordinates follow the annihilator filtration ann_0 > ann_1 > ...
    of the field's tower, ann_a the all-zero restriction class of the a-th
    subgroup of the chain.  At each step the basis character is chosen with
    prime-power order matching the step, so the labeling is deterministic,
    and the labels are generated forward: sum_a t_a basis[a] gets the label
    t.  That is the triangular solve's answer, since basis[b] lies in
    ann_{a+1} for b > a and basis[a] has prime order `step` modulo
    ann_{a+1}, so peeling off t_a basis[a] is the one way to land in
    ann_{a+1}.  Raises ArithmeticError unless the generated keys are exactly
    A_E's exponent vectors.  The cache is keyed by the presentation (M, H),
    not by the field: presentations of one field at different moduli compare
    equal as fields but have different exponent vectors.  Callers must not
    mutate the cached dict.
    """
    from .fields import _tower_chain

    orders = [o for _, o in group.generators]
    chain = [subgroup] + _tower_chain(group, subgroup)
    degrees = [len(chain[a + 1]) // len(chain[a]) for a in range(len(chain) - 1)]
    ann_chars = []
    for sub in chain:
        gens, classes = _restriction_classes(group, sub)
        ann_chars.append(classes[(0,) * len(gens)])
    ann_sets = [{chi.exponents for chi in chars} for chars in ann_chars]
    labels = {(0,) * len(orders): ()}
    for a, step in enumerate(degrees):
        cand = next(chi for chi in ann_chars[a]
                    if chi.exponents not in ann_sets[a + 1])
        rest = cand.order
        while rest % step == 0:
            rest //= step
        multiples = [tuple(e * rest * t % o
                           for e, o in zip(cand.exponents, orders))
                     for t in range(step)]
        labels = {tuple((x + y) % o for x, y, o in zip(key, mult, orders)):
                  label + (t,)
                  for key, label in labels.items()
                  for t, mult in enumerate(multiples)}
    if labels.keys() != ann_sets[0]:
        raise ArithmeticError("tower labels do not enumerate A_E")
    return fiber_group(degrees), labels


def fiber_tower_labels(pi):
    """Tower-exponent labels of the base-change fiber of pi.

    Returns (FiberGroup, labels) where labels[i] is the exponent tuple of the
    i-th fiber character relative to the fiber base.  The fiber is a coset
    of A_E, so each difference chi - chi_base is an element of A_E, and its
    label is one lookup in the field's tower frame (`_tower_frame`, built
    once per presentation (M, H) and process).  Raises ValueError for a
    degree-1 field, which has no tower coordinates, and ArithmeticError if
    a difference lies outside A_E.
    """
    from .automorphic import bc_fiber

    field = pi.field
    if field.degree == 1:
        raise ValueError("the fiber over Q is a single point; no tower labels")
    fg, frame = _tower_frame(field.ambient, field.subgroup)
    orders = [o for _, o in field.ambient.generators]
    fiber = bc_fiber(pi)
    base = fiber[0][0].exponents
    labels = {}
    for i, (chi, _) in enumerate(fiber):
        delta = tuple((x - y) % o
                      for x, y, o in zip(chi.exponents, base, orders))
        label = frame.get(delta)
        if label is None:
            raise ArithmeticError(
                f"fiber difference {delta} is not trivial on H_E")
        labels[i] = label
    return fg, labels


def cross_check_pair_count(pi, pi_prime, pairing=None) -> tuple[int, int]:
    """(structural |T|, symbolic subgroup order) for a pair of objects.

    The structural count is the size of the pairing; the symbolic one maps
    the matched fiber members of pi into tower coordinates and measures the
    projected subgroup.  The two are equal whenever this returns, since the
    labels of distinct members are distinct and translation is a bijection,
    so the symbolic count is not yet an independent derivation.  The check
    lies in what can raise: ArithmeticError when a fiber difference has no
    label in the tower frame, TwistPairingError when the matched labels are
    not a coset.  A caller that already holds `twisted_pairs(pi, pi_prime)`
    passes it as `pairing`; otherwise it is computed here.
    """
    if pairing is None:
        from .rankin_selberg import twisted_pairs

        pairing = twisted_pairs(pi, pi_prime)
    if pi.field.degree == 1:
        # Trivial fiber group on the left: the projection is a point.
        return pairing.size, min(pairing.size, 1)
    fg, labels = fiber_tower_labels(pi)
    sub = pair_subgroup(fg, [(labels[i], j) for i, j in pairing.pairs])
    return pairing.size, sub.order

