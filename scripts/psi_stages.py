"""Stage split of one psi_sum trace: sieve, coefficients and the rest.

Usage, from the root of a checkout:

    python3 scripts/psi_stages.py --config configs/thm11.cfg --limit 1e9 \\
        --workers 1 [--src OTHER_CHECKOUT/src]

The trace runs in this process on the library under --src (default: this
checkout's `src`).  `PrimePowerStream._sieve` and the source's `coeff_at`
are wrapped and timed; with several workers their durations are summed
over psi_sum's threads, so they can exceed the wall time.  The minor page
faults, user and system time of the process over the trace come from
getrusage.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--limit", type=float, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from bclab import pnt
    from bclab.config import parse_config
    from bclab.rankin_selberg import RsCoeffSource

    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    source = RsCoeffSource(cfg.pi(), cfg.pi_prime())
    spent = {"sieve_s": 0.0, "coeff_at_s": 0.0}
    lock = threading.Lock()

    def timed(name, fn):
        def call(*a, **kw):
            start = time.perf_counter()
            out = fn(*a, **kw)
            with lock:
                spent[name] += time.perf_counter() - start
            return out
        return call

    pnt.PrimePowerStream._sieve = timed("sieve_s", pnt.PrimePowerStream._sieve)
    source.coeff_at = timed("coeff_at_s", source.coeff_at)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    report = pnt.psi_sum(source, int(args.limit), workers=args.workers)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "src": os.path.abspath(args.src), "config": args.config,
        "limit": int(args.limit), "workers": args.workers,
        "wall_s": wall, **spent,
        "user_s": after.ru_utime - before.ru_utime,
        "system_s": after.ru_stime - before.ru_stime,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "psi": [report.psi[-1].real, report.psi[-1].imag]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
