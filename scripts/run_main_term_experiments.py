#!/usr/bin/env python3
"""Run the four reference main-term experiments and write their reports.

Each configuration pins a different pole structure of the convolution:
one simple pole, a double pole, no pole, and a pole moved off the real
axis by a unitary twist.  The pairs are read from configs/thm11.cfg,
dihedral.cfg, empty_t.cfg and twist.cfg, and each is traced to --limit.
Reports land in --outdir as JSON.
"""

import argparse
import json
import time
from pathlib import Path

from bclab.config import parse_config
from bclab.rankin_selberg import RsCoeffSource
from bclab.pnt import decay_check, psi_sum

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Each experiment's report name and the config under configs/ that pins it.
EXPERIMENTS = {
    "one_pole": "thm11",
    "double_pole": "dihedral",
    "no_pole": "empty_t",
    "twisted_pole": "twist",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=lambda v: int(float(v)), default=10**7)
    ap.add_argument("--outdir", type=Path, default=Path("out"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for name, config in EXPERIMENTS.items():
        cfg = parse_config((CONFIGS / f"{config}.cfg").read_text())
        start = time.perf_counter()
        source = RsCoeffSource(cfg.pi(), cfg.pi_prime())
        report = psi_sum(source, args.limit)
        try:
            decays = decay_check(report)
        except ValueError:
            decays = None
        elapsed = time.perf_counter() - start
        payload = {
            "experiment": name,
            "multiplicity": source.multiplicity,
            "tau0": source.tau0,
            "decay_check": decays,
            "elapsed_seconds": elapsed,
            "report": report.to_json_dict(),
        }
        path = args.outdir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        final = report.psi[-1]
        print(f"{name:>13}: m={source.multiplicity} "
              f"psi(x)/x = {final.real / args.limit:+.5f}"
              f"{final.imag / args.limit:+.5f}i "
              f"rel_err={report.rel_error[-1]:.2e} ({elapsed:.1f}s) -> {path}")


if __name__ == "__main__":
    main()
