"""Brute-force references for the exact layer's subgroup and fiber kernels.

Each one is written the slow, obvious way: closures by breadth-first
multiplication, extensions by scanning the whole dual group and comparing
angles on every element of H, tower labels by structural keys.  The tests
compare the library's kernels against them.
"""

from bclab.characters import DirichletChar, SubgroupChar, dual_group, factorize


def closure_bfs(m, elements):
    """Subgroup of (Z/mZ)^x generated by the given units."""
    gens = [u % m for u in elements]
    seen = {1 % m}
    frontier = [1 % m]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g % m
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def all_subgroups_oracle(group):
    m = group.modulus
    one = frozenset({1 % m})
    found = {one}
    frontier = [one]
    while frontier:
        base = frontier.pop()
        for u in group.units:
            if u not in base:
                bigger = closure_bfs(m, list(base) + [u])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def subgroup_generators_oracle(group, elements):
    gens = []
    have = {1 % group.modulus}
    for h in sorted(elements):
        if h not in have:
            gens.append(h)
            have = closure_bfs(group.modulus, gens)
    return gens


def subgroup_characters_oracle(group, elements):
    """Restrictions of the whole dual group, first occurrence kept."""
    sub = closure_bfs(group.modulus, elements)
    seen = {}
    for chi in dual_group(group):
        omega = SubgroupChar(group, {u: chi.group_angle(u) for u in sub},
                             check=False)
        seen.setdefault(omega.key, omega)
    return list(seen.values())


def extensions_oracle(omega, group):
    """Every character of the group agreeing with omega on all of H."""
    return [chi for chi in dual_group(group)
            if all(chi.group_angle(u) == omega.angle(u)
                   for u in omega.elements)]


def _coset_order(m, subgroup, x):
    k, cur = 1, x % m
    while cur not in subgroup:
        cur = cur * x % m
        k += 1
    return k


def tower_oracle(field):
    """Subgroup chain of the prime-degree tower, largest prime step first,
    lexicographically smallest overgroup at each step."""
    group = field.ambient
    m = group.modulus
    chain = []
    current = field.subgroup
    while len(current) < group.order:
        q = max(p for p, _ in factorize(group.order // len(current)))
        candidates = {closure_bfs(m, list(current) + [x])
                      for x in group.units
                      if x not in current and _coset_order(m, current, x) == q}
        current = min(candidates, key=lambda s: tuple(sorted(s)))
        chain.append(current)
    return chain


def _power(chi, k):
    return DirichletChar(chi.group, [e * k for e in chi.exponents])


def fiber_tower_labels_oracle(pi, fiber):
    """(step degrees, labels) of the fiber, solved on structural keys.

    Annihilators come from scanning the dual group for characters trivial
    on every element of each subgroup of the tower chain.
    """
    field = pi.field
    group = field.ambient
    chain = [field.subgroup] + tower_oracle(field)
    degrees = [len(chain[a + 1]) // len(chain[a]) for a in range(len(chain) - 1)]
    ann_chars = [[chi for chi in dual_group(group)
                  if all(chi.group_angle(h) == 0 for h in sub)]
                 for sub in chain]
    ann_keys = [{chi.key for chi in chars} for chars in ann_chars]
    basis = []
    for a, step in enumerate(degrees):
        cand = next(chi for chi in ann_chars[a]
                    if chi.key not in ann_keys[a + 1])
        rest = cand.order
        while rest % step == 0:
            rest //= step
        basis.append(_power(cand, rest))
    base = fiber[0]
    labels = {}
    for i, chi in enumerate(fiber):
        delta = chi * base.conjugate()
        vec = []
        for a, step in enumerate(degrees):
            t = next(t for t in range(step)
                     if (delta * _power(basis[a], -t)).key in ann_keys[a + 1])
            vec.append(t)
            delta = delta * _power(basis[a], -t)
        assert delta.is_trivial
        labels[i] = tuple(vec)
    return tuple(degrees), labels
