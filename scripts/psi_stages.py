"""Stage split of one psi_sum trace: sieve, coefficients and the rest.

Usage, from the root of a checkout:

    python3 scripts/psi_stages.py --config configs/thm11.cfg --limit 1e9 \\
        --workers 1 [--src OTHER_CHECKOUT/src]

The trace runs in this process on the library under --src (default: this
checkout's `src`).  `PrimePowerStream._sieve` and the source's `coeff_at`
are wrapped and timed (summed over threads, for a --src whose psi_sum
runs threads, so they can then exceed the wall time).  The timers see only
work done in this process: a trace inside the prime table runs in the
calling thread, and sieves only where it extends the table, while one past
it runs its segments in forked child processes, whose calls are not added
up here, so on several workers `sieve_s` and `coeff_at_s` read about 0 for
such a trace.  The minor page faults, user and system time of the process
over the trace come from getrusage, and so do those of its children
(`children_` keys; `children_max_rss_mb` is the largest child's peak,
`max_rss_mb` this process's).  Prints one JSON object.
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
    who = {"": resource.RUSAGE_SELF, "children_": resource.RUSAGE_CHILDREN}
    before = {k: resource.getrusage(w) for k, w in who.items()}
    start = time.perf_counter()
    report = pnt.psi_sum(source, int(args.limit), workers=args.workers)
    wall = time.perf_counter() - start
    usage = {}
    for prefix, w in who.items():
        was, now = before[prefix], resource.getrusage(w)
        usage.update({
            prefix + "user_s": now.ru_utime - was.ru_utime,
            prefix + "system_s": now.ru_stime - was.ru_stime,
            prefix + "minor_faults": now.ru_minflt - was.ru_minflt,
            prefix + "max_rss_mb": now.ru_maxrss / 1024})
    print(json.dumps({
        "src": os.path.abspath(args.src), "config": args.config,
        "limit": int(args.limit), "workers": args.workers,
        "wall_s": wall, **spent, **usage,
        "psi": [report.psi[-1].real, report.psi[-1].imag]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
