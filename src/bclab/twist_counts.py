"""Symbolic counting of twisted-pair sets.

The fiber of representations over Q lifting to a fixed object over E is
indexed by exponent tuples along a prime-degree tower; with componentwise
addition those tuples form a product of cyclic prime-order groups.  The
members that occur in twisted pairs project (after translating by one of
them) onto a subgroup, so the pair count divides both fiber orders, and
coprime orders force a single pair.  The non-cuspidal self-twist relation
instead generates an orbit of full prime length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import gcd

from .characters import is_prime


class TwistPairingError(ValueError):
    """A pairing set violating the at-most-one-partner uniqueness rule."""


@dataclass(frozen=True)
class FiberGroup:
    """Product of cyclic groups of the given prime orders, law componentwise."""

    orders: tuple[int, ...]
    label: str = ""

    @property
    def order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def identity(self) -> tuple[int, ...]:
        return tuple([0] * len(self.orders))

    def elements(self) -> list[tuple[int, ...]]:
        return list(iter_product(*[range(o) for o in self.orders]))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

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


def fiber_group(degrees, label: str = "") -> FiberGroup:
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("a fiber group needs at least one cyclic factor")
    for d in degrees:
        if not is_prime(d):
            raise ValueError(f"tower step degrees must be prime, got {d}")
    return FiberGroup(degrees, label)


def pair_subgroup(group: FiberGroup, pairs) -> PairSubgroup:
    """Verify a pairing set and return its normalized fiber-side projection.

    Each fiber element may occur in at most one pair (on either side);
    the projection, translated by its first member, must be closed under
    the componentwise law.  Violations raise TwistPairingError with the
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
    if group.order % len(translated) != 0:
        raise TwistPairingError(
            f"subgroup order {len(translated)} does not divide {group.order}"
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


def noncuspidal_orbit(l: int, s: int, r: int, i0: int, j0: int
                      ) -> set[tuple[int, int]]:
    """Orbit of a base pair under the self-twist relation of exponent (s, r).

    Starting from a twisted pair (i0, j0), the relation produces
    (i0 + t*s, j0 - t*r) for every t; since r is nonzero mod the prime l the
    second coordinates are pairwise distinct, so the orbit has exactly l pairs.
    """
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
    orbit = {((i0 + t * s) % l, (j0 - t * r) % l) for t in range(l)}
    if len(orbit) != l:
        raise ArithmeticError("orbit degenerated; this cannot happen for prime l")
    return orbit


# ---------------------------------------------------------------------------
# Bridge from structural fibers to tower coordinates.

def fiber_tower_labels(pi):
    """Tower-exponent labels of the base-change fiber of pi.

    Returns (FiberGroup, labels) where labels[i] is the exponent tuple of the
    i-th fiber character relative to the fiber base.  The coordinates follow
    the annihilator filtration of the field's tower; at each step the basis
    character is chosen with prime-power order matching the step so that the
    labeling is deterministic.  All characters involved live on the field's
    ambient group, so they are handled as exponent vectors modulo the
    generator orders: each annihilator is the all-zero restriction class of
    its subgroup, and the labels are solved step by step in that vector
    group.  Raises for a degree-1 field, which has no tower coordinates.
    """
    from .automorphic import bc_fiber
    from .characters import _restriction_classes
    from .fields import tower

    field = pi.field
    if field.degree == 1:
        raise ValueError("the fiber over Q is a single point; no tower labels")
    group = field.ambient
    orders = [o for _, o in group.generators]

    def combine(a, b, k=1):
        return tuple((x + k * y) % o for x, y, o in zip(a, b, orders))

    chain = [field.subgroup] + [f.subgroup for f in tower(field)]
    degrees = [len(chain[a + 1]) // len(chain[a]) for a in range(len(chain) - 1)]
    ann_chars = []
    for sub in chain:
        gens, classes = _restriction_classes(group, sub)
        ann_chars.append(classes[(0,) * len(gens)])
    ann_sets = [{chi.exponents for chi in chars} for chars in ann_chars]
    basis = []
    for a, step in enumerate(degrees):
        cand = next(chi for chi in ann_chars[a]
                    if chi.exponents not in ann_sets[a + 1])
        rest = cand.order
        while rest % step == 0:
            rest //= step
        basis.append(tuple(e * rest % o
                           for e, o in zip(cand.exponents, orders)))
    fg = fiber_group(degrees, label=f"fiber over field cond {field.conductor}")

    fiber = bc_fiber(pi)
    base = fiber[0][0].exponents
    labels = {}
    for i, (chi, _) in enumerate(fiber):
        delta = combine(chi.exponents, base, -1)
        vec = []
        for a, step in enumerate(degrees):
            for t in range(step):
                probe = combine(delta, basis[a], -t)
                if probe in ann_sets[a + 1]:
                    vec.append(t)
                    delta = probe
                    break
            else:
                raise ArithmeticError("triangular label solve failed")
        if any(delta):
            raise ArithmeticError("label residue did not terminate at 1")
        labels[i] = tuple(vec)
    return fg, labels


def cross_check_pair_count(pi, pi_prime) -> tuple[int, int]:
    """(structural |T|, symbolic subgroup order) for a pair of objects.

    The structural count enumerates fiber matches; the symbolic one maps the
    matched fiber elements into tower coordinates and measures the projected
    subgroup.  The two must always agree.
    """
    from .rankin_selberg import twisted_pairs

    pairing = twisted_pairs(pi, pi_prime)
    if pi.field.degree == 1:
        # Trivial fiber group on the left: the projection is a point.
        return pairing.size, min(pairing.size, 1)
    fg, labels = fiber_tower_labels(pi)
    sub = pair_subgroup(fg, [(labels[i], j) for i, j in pairing.pairs])
    return pairing.size, sub.order

