"""Workload inputs drawn from the seed, expected outputs, and the gate.

Each workload has a `draw(seed, root)` that returns the spec sent to every
repetition of a run (plain JSON data: indices, exponents, twists) and the
expected outputs, computed here once per run, before any repetition starts.
`check(expected, out)` returns (attempted, failed) for one repetition's
output: every library result is one operation, and a raising call counts as
failed.
"""

from __future__ import annotations

import math
import os
import random
from functools import lru_cache

from bclab.automorphic import GalHeckeChar
from bclab.characters import (
    euler_phi,
    extensions,
    subgroup_characters,
    unit_group,
)
from bclab.config import parse_config
from bclab.fields import fields_up_to_conductor
from bclab.twist_counts import cross_check_pair_count

from reference import reference_psi, small_primes

BOUND = 60            # conductor bound of the criterion-7 population
REFERENCE_CONFIGS = ("configs/thm11.cfg", "configs/dihedral.cfg",
                     "configs/empty_t.cfg", "configs/twist.cfg")
DEEP_X = 10**9
BATCH_X = 10**7
BATCH_PER_STRATUM = 8  # pairs per (|T| >= 1?, twisted?) stratum
SWEEP_PER_STRATUM = 300  # pairs per (|T| >= 1?) stratum
QUADS = 60
ABSORPTION_LIMIT = 10_000
FACTOR_LIMIT = 100_000
POOL = 16             # candidates per drawn item
PSI_TOL = 1e-6        # |psi - reference| <= PSI_TOL * x, as criteria 2-3


def stratified(rng: random.Random, pool: list, cost, n: int) -> list:
    """The middle item of each of n equal slices of the pool sorted by cost.

    The sample follows the cost distribution of the seed-drawn pool, tail
    included, so the work in a run varies far less from seed to seed than
    with n independent draws.
    """
    pool = sorted(pool, key=cost)
    size = len(pool) // n
    picked = [pool[i * size + size // 2] for i in range(n)]
    rng.shuffle(picked)
    return picked


@lru_cache(maxsize=None)
def population(bound: int = BOUND) -> list:
    """(field, omega, fiber keys) in the order the child enumerates them."""
    configs = []
    for field in fields_up_to_conductor(bound):
        group = field.ambient
        for omega in subgroup_characters(group, field.subgroup):
            keys = frozenset(chi.key for chi in extensions(omega, group))
            configs.append((field, omega, keys))
    return configs


def _pair_pools(rng: random.Random, count: int):
    """`count` intersecting and `count` disjoint index pairs."""
    configs = population()
    by_key: dict = {}
    for i, (_, _, keys) in enumerate(configs):
        for key in keys:
            by_key.setdefault(key, []).append(i)
    meet, apart = [], []
    while len(meet) < count:
        a = rng.randrange(len(configs))
        key = rng.choice(sorted(configs[a][2]))
        meet.append((a, rng.choice(by_key[key])))
    while len(apart) < count:
        a, b = rng.randrange(len(configs)), rng.randrange(len(configs))
        if not configs[a][2] & configs[b][2]:
            apart.append((a, b))
    return meet, apart


def _pair_expectation(pi, pi_prime, keys_left, keys_right) -> dict:
    structural, symbolic = cross_check_pair_count(pi, pi_prime)
    return {"meet": len(keys_left & keys_right), "structural": structural,
            "symbolic": symbolic,
            "modulus": math.lcm(pi.field.modulus, pi_prime.field.modulus),
            "tau0": pi.tau - pi_prime.tau}


def _config_pair(path: str, root: str):
    with open(os.path.join(root, path)) as fh:
        cfg = parse_config(fh.read())
    pi, pi_prime = cfg.pi(), cfg.pi_prime()
    keys = [frozenset(chi.key for chi in
                      extensions(p.omega, p.field.ambient))
            for p in (pi, pi_prime)]
    return pi, pi_prime, keys[0], keys[1]


def decades(x: int) -> list[int]:
    out, c = [], 10_000
    while c < x:
        out.append(c)
        c *= 10
    return out + [x]


def _pnt_expected(items, x: int) -> dict:
    pairs = [(pi, pi_prime) for pi, pi_prime, _, _ in items]
    cps = decades(x)
    psi = reference_psi(pairs, x, cps)
    pairs_expected = []
    for (pi, pi_prime, kl, kr), ref in zip(items, psi):
        exp = _pair_expectation(pi, pi_prime, kl, kr)
        exp["psi"] = ref
        pairs_expected.append(exp)
    return {"checkpoints": cps, "pairs": pairs_expected}


def draw_pnt_deep(seed: int, root: str):
    """Fixed input: the one-pole reference pair traced to 1e9."""
    spec = {"x": DEEP_X, "pairs": [{"config": REFERENCE_CONFIGS[0]}]}
    return spec, _pnt_expected([_config_pair(REFERENCE_CONFIGS[0], root)],
                               DEEP_X)


def draw_pnt_batch(seed: int, root: str):
    """The four reference pairs, then 4 x BATCH_PER_STRATUM pairs from the
    population: intersecting or disjoint fibers, crossed with no twist or a
    twist tau in [-1, 1] on the left.  Each stratum is drawn by the cost of
    building its source: pair modulus times the summed field degrees."""
    rng = random.Random(seed)
    configs = population()

    def cost(ab):
        ea, eb = configs[ab[0]][0], configs[ab[1]][0]
        return math.lcm(ea.modulus, eb.modulus) * (ea.degree + eb.degree)

    n = BATCH_PER_STRATUM
    meet, apart = _pair_pools(rng, 2 * n * POOL)
    spec_pairs = [{"config": path} for path in REFERENCE_CONFIGS]
    items = [_config_pair(path, root) for path in REFERENCE_CONFIGS]
    strata = [(meet[:n * POOL], False), (meet[n * POOL:], True),
              (apart[:n * POOL], False), (apart[n * POOL:], True)]
    for pool, twisted in strata:
        for a, b in stratified(rng, pool, cost, n):
            tau = rng.uniform(-1.0, 1.0) if twisted else 0.0
            (ea, oa, ka), (eb, ob, kb) = configs[a], configs[b]
            spec_pairs.append({"left": a, "right": b, "tau": tau})
            items.append((GalHeckeChar(ea, oa, tau), GalHeckeChar(eb, ob),
                          ka, kb))
    spec = {"x": BATCH_X, "bound": BOUND, "pairs": spec_pairs}
    return spec, _pnt_expected(items, BATCH_X)


def check_pnt(expected: dict, out: dict) -> tuple[int, int]:
    failed = 0
    for exp, got in zip(expected["pairs"], out["results"]):
        ok = ("error" not in got
              and got["checkpoints"] == expected["checkpoints"]
              and got["modulus"] == exp["modulus"]
              and got["multiplicity"] == exp["meet"]
              == exp["structural"] == exp["symbolic"]
              and got["tau0"] == exp["tau0"]
              and all(abs(complex(*z) - r) <= PSI_TOL * c for z, r, c in
                      zip(got["psi"], exp["psi"], expected["checkpoints"])))
        failed += not ok
    attempted = len(expected["pairs"])
    failed += attempted - len(out["results"])
    invariance = out.get("invariance", ())
    return attempted + len(invariance), failed + invariance.count(False)


def draw_exact_sweep(seed: int, root: str):
    """All configurations, then SWEEP_PER_STRATUM intersecting and as many
    disjoint pairs, drawn by the size of the dual groups both fibers scan."""
    rng = random.Random(seed)
    configs = population()

    def cost(ab):
        ea, eb = configs[ab[0]][0], configs[ab[1]][0]
        return (euler_phi(ea.modulus) * (1 + len(ea.ambient.generators))
                + euler_phi(eb.modulus))

    n = SWEEP_PER_STRATUM
    meet, apart = _pair_pools(rng, n * POOL)
    pairs = stratified(rng, meet, cost, n) + stratified(rng, apart, cost, n)
    rng.shuffle(pairs)
    expected = []
    for a, b in pairs:
        (ea, _, ka), (eb, _, kb) = configs[a], configs[b]
        expected.append({"meet": len(ka & kb),
                         "degrees": (ea.degree, eb.degree)})
    spec = {"bound": BOUND, "pairs": pairs}
    return spec, {"configs": len(configs), "pairs": expected}


def check_exact_sweep(expected: dict, out: dict) -> tuple[int, int]:
    failed = int(out.get("configs") != expected["configs"])
    for exp, got in zip(expected["pairs"], out["results"]):
        size = got.get("size")
        ok = ("error" not in got
              and size == exp["meet"] == got["structural"] == got["symbolic"]
              and all(d % size == 0 for d in exp["degrees"] if size)
              and got["tau0"] == (0.0 if size else None))
        failed += not ok
    attempted = 1 + len(expected["pairs"])
    return attempted, failed + len(expected["pairs"]) - len(out["results"])


def draw_exact_identities(seed: int, root: str):
    """QUADS character quadruples with moduli in 1..60, drawn by the size of
    the unit groups their products build, plus the four objects of the
    factorization identity (fixed, acceptance criterion 1)."""
    rng = random.Random(seed)

    def cost(ms):
        chi, xi, pi_q, pi_q_prime = ms
        ratio = math.lcm(chi, xi)
        return (euler_phi(math.lcm(pi_q, chi)) + euler_phi(ratio)
                + euler_phi(math.lcm(pi_q_prime, xi))
                + euler_phi(math.lcm(pi_q_prime, ratio)))

    pool = [tuple(rng.randint(1, BOUND) for _ in range(4))
            for _ in range(QUADS * POOL)]
    quads = []
    for moduli in stratified(rng, pool, cost, QUADS):
        quad = []
        for m in moduli:
            orders = [o for _, o in unit_group(m).generators]
            quad.append([m, [rng.randrange(o) for o in orders]])
        quads.append(quad)
    per_object = 0  # prime powers p^j <= FACTOR_LIMIT with p != 5
    for p in small_primes(FACTOR_LIMIT).tolist():
        n = p
        while p != 5 and n <= FACTOR_LIMIT:
            per_object += 1
            n *= p
    spec = {"quads": quads, "limit": ABSORPTION_LIMIT,
            "factor_limit": FACTOR_LIMIT}
    return spec, {"quads": len(quads), "objects": 4, "checked": per_object}


def check_exact_identities(expected: dict, out: dict) -> tuple[int, int]:
    results = out["results"]
    quads, objects = results[:expected["quads"]], results[expected["quads"]:]
    failed = sum(got.get("holds") is not True for got in quads)
    failed += sum(got.get("mismatched") != 0
                  or got.get("checked") != expected["checked"]
                  for got in objects)
    attempted = expected["quads"] + expected["objects"]
    return attempted, failed + attempted - len(results)


WORKLOADS = {
    "pnt_deep": (draw_pnt_deep, check_pnt),
    "pnt_batch": (draw_pnt_batch, check_pnt),
    "exact_sweep": (draw_exact_sweep, check_exact_sweep),
    "exact_identities": (draw_exact_identities, check_exact_identities),
}
