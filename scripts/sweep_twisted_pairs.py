#!/usr/bin/env python3
"""Sweep all character pairs over fields up to a conductor bound, histogram
the twisted-pair counts, and compare each count, empty ones included, with
the pole count of the pair's coefficient source (orthogonality of one
character on H_E cap H_F), an independent derivation.  The same pairs also
go through the tower-coordinate cross-check, which agrees with the fiber
count whenever it returns and so tests only that the tower frames label
every fiber difference and that the matched labels form a coset.  Pairs
with a modulus product above 400 are skipped unless --cross-check-all.

    python scripts/sweep_twisted_pairs.py --bound 30 [--cross-check-all]
"""

import argparse
import time
from collections import Counter
from itertools import combinations_with_replacement

from bclab.characters import extensions, subgroup_characters
from bclab.fields import fields_up_to_conductor
from bclab.automorphic import GalHeckeChar
from bclab.rankin_selberg import RsCoeffSource, twisted_pairs
from bclab.twist_counts import cross_check_pair_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=30,
                    help="largest field conductor to include")
    ap.add_argument("--cross-check-all", action="store_true",
                    help="compare the counts on every pair, not only "
                         "those with a modulus product of at most 400")
    args = ap.parse_args()

    start = time.perf_counter()
    configs = []
    for field in fields_up_to_conductor(args.bound):
        group = field.ambient
        for omega in subgroup_characters(group, field.subgroup):
            keys = frozenset(c.key for c in extensions(omega, group))
            configs.append((field, omega, keys))
    print(f"{len(configs)} (field, character) configurations "
          f"up to conductor {args.bound}")

    histogram = Counter()
    mismatches = 0
    checked = 0
    for (ea, oa, ka), (eb, ob, kb) in combinations_with_replacement(configs, 2):
        size = len(ka & kb)
        histogram[size] += 1
        if not (args.cross_check_all or ea.modulus * eb.modulus <= 400):
            continue
        pi, pi_prime = GalHeckeChar(ea, oa), GalHeckeChar(eb, ob)
        structural, symbolic = cross_check_pair_count(
            pi, pi_prime, twisted_pairs(pi, pi_prime))
        poles = RsCoeffSource(pi, pi_prime).multiplicity
        checked += 1
        if not size == structural == symbolic == poles:
            mismatches += 1
            print(f"  MISMATCH: {ea} x {eb}: {size} vs "
                  f"({structural}, {symbolic}, {poles})")

    print(f"pair-count histogram: {dict(sorted(histogram.items()))}")
    print(f"{checked} pairs cross-checked, {mismatches} mismatches "
          f"({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
