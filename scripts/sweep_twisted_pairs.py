#!/usr/bin/env python3
"""Sweep all character pairs over fields up to a conductor bound, histogram
the twisted-pair counts, and cross-check each nonempty count against the
tower-coordinate subgroup computation."""

import argparse
import time
from collections import Counter
from itertools import combinations_with_replacement

from bclab.characters import extensions, subgroup_characters
from bclab.fields import fields_up_to_conductor
from bclab.automorphic import GalHeckeChar
from bclab.twist_counts import cross_check_pair_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=30,
                    help="largest field conductor to include")
    ap.add_argument("--cross-check-all", action="store_true",
                    help="run the tower-coordinate check on every "
                         "intersecting pair")
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
        if size and (args.cross_check_all or ea.modulus * eb.modulus <= 400):
            structural, symbolic = cross_check_pair_count(
                GalHeckeChar(ea, oa), GalHeckeChar(eb, ob))
            checked += 1
            if structural != symbolic or structural != size:
                mismatches += 1
                print(f"  MISMATCH: {ea} x {eb}: "
                      f"{size} vs ({structural}, {symbolic})")

    print(f"pair-count histogram: {dict(sorted(histogram.items()))}")
    print(f"{checked} pairs cross-checked, {mismatches} mismatches "
          f"({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
