"""Command-line front end: reproducible experiments over config files.

Exit codes: 0 success, 1 usage, configuration or output error, 2
verification failure.  File artifacts embed the config hash and artifact
version; the only non-deterministic field is the marked generated_at
timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    parse_int,
    serialize_config,
    with_overrides,
)


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output file cannot be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        raise UsageError("this subcommand requires --config")
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"config file is not UTF-8 text: {path}") from None
    except OSError as exc:
        raise UsageError(
            f"cannot read config file {path}: {exc.strerror or exc}") from None
    return parse_config(text)


def _stamp(cfg: ExperimentConfig | None) -> dict:
    return {
        "artifact_version": __version__,
        "config_sha256": config_hash(cfg) if cfg is not None else None,
    }


def _check_output_dirs(*paths: str | None) -> None:
    """Fail before any computation when an output's directory is missing."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise OutputError(f"cannot write {path}: directory "
                              f"{Path(path).parent} does not exist")


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise OutputError(
            f"cannot write {out}: {exc.strerror or exc}") from None


def _emit_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_lines(lines: list[str], out: str | None) -> None:
    _write("".join(line + "\n" for line in lines), out)


def _int_arg(value: str) -> int:
    try:
        return parse_int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checkpoint_list(value: str) -> tuple[int, ...]:
    return tuple(_int_arg(v) for v in value.split(",") if v.strip())


def cmd_field(args) -> int:
    from .fields import splitting_table

    cfg = _load_config(args.config)
    field = cfg.field_e() if args.which == "e" else cfg.field_f()
    rows = splitting_table(field, args.pmax)
    lines = [f"# artifact_version={__version__} config_sha256={config_hash(cfg)}",
             "p,f_p,g_p,ramified"]
    lines += [f"{r.p},{r.f_p},{r.g_p},{int(r.ramified)}" for r in rows]
    _emit_lines(lines, args.out)
    return 0


def cmd_char_json(args) -> int:
    cfg = _load_config(args.config)
    pi = cfg.pi() if args.which == "pi" else cfg.pi_prime()
    group = pi.field.ambient
    from .characters import DirichletChar

    exps = (cfg.pi_exps if args.which == "pi" else cfg.pi_prime_exps) or ()
    chi = DirichletChar(group, exps)
    payload = _stamp(cfg) | {
        "character": chi.to_json_dict() | {"order": chi.order},
        "tau": pi.tau,
        "field": pi.field.to_json_dict(),
        "restriction_order": pi.omega.order,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_bc(args) -> int:
    from .automorphic import bc_fiber

    cfg = _load_config(args.config)
    pi = cfg.pi() if args.which == "pi" else cfg.pi_prime()
    fiber = bc_fiber(pi)
    payload = _stamp(cfg) | {
        "field": pi.field.to_json_dict(),
        "tau": pi.tau,
        "fiber": [chi.to_json_dict() | {"tau": tau} for chi, tau in fiber],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_coeffs(args) -> int:
    from .automorphic import (automorphic_induction, local_coeffs_over_e,
                              local_coeffs_over_q)
    from .pnt import sieve_primes

    cfg = _load_config(args.config)
    pi = cfg.pi() if args.which == "pi" else cfg.pi_prime()
    limit = args.limit
    rows = []
    for p in sieve_primes(limit).tolist():
        if pi.field.modulus % p == 0:
            continue
        k_max = 0
        n = p
        while n <= limit:
            k_max += 1
            n *= p
        if args.route == "e":
            coeffs = local_coeffs_over_e(pi, p, k_max)
        else:
            coeffs = local_coeffs_over_q(automorphic_induction(pi), p, k_max)
        rows.extend(coeffs)
    rows.sort(key=lambda c: c.n)
    lines = [f"# artifact_version={__version__} config_sha256={config_hash(cfg)}",
             "n,re_a,im_a"]
    lines += [f"{c.n},{c.value.real!r},{c.value.imag!r}" for c in rows]
    _emit_lines(lines, args.out)
    return 0


def cmd_rs(args) -> int:
    import numpy as np

    from .pnt import PrimePowerStream, sieve_primes
    from .rankin_selberg import (RsCoeffSource, thm1_1_applies,
                                 thm1_2_applies, twisted_pairs)

    cfg = _load_config(args.config)
    if args.csv and args.limit < 2:
        raise UsageError(
            f"--limit for --csv must be at least 2, got {args.limit}")
    _check_output_dirs(args.out, args.csv)
    pi = cfg.pi()
    pi_prime = cfg.pi_prime()
    pairing = twisted_pairs(pi, pi_prime)
    payload = _stamp(cfg) | {
        "T": pairing.to_json_dict(),
        "multiplicity": pairing.size,
        "tau0": pairing.tau0,
        "theorem_flags": {
            "thm1_1": thm1_1_applies(pi.field, pi_prime.field),
            "thm1_2": thm1_2_applies(pi.field, pi_prime.field),
        },
    }
    _emit_json(payload, args.out)
    if args.csv:
        # a(p^k) for every prime power p^k <= limit off the excluded primes,
        # one coeff_at call per exponent k.
        source = RsCoeffSource(pi, pi_prime)
        excluded = source.excluded_primes
        primes = sieve_primes(args.limit)
        primes = primes[~np.isin(primes, list(excluded))]
        rows = list(zip(primes.tolist(), source.coeff_at(primes).tolist()))
        by_k: dict[int, list[tuple[int, int]]] = {}
        for p, k, n in PrimePowerStream(args.limit).higher_powers():
            if p not in excluded:
                by_k.setdefault(k, []).append((p, n))
        for k, pn in by_k.items():
            ps = np.array([p for p, _ in pn], dtype=np.int64)
            rows += zip([n for _, n in pn], source.coeff_at(ps, k).tolist())
        rows.sort(key=lambda row: row[0])
        lines = [f"# artifact_version={__version__} "
                 f"config_sha256={config_hash(cfg)}",
                 "n,re_a,im_a"]
        lines += [f"{n},{v.real!r},{v.imag!r}" for n, v in rows]
        _emit_lines(lines, args.csv)
    return 0


def cmd_count(args) -> int:
    from math import gcd

    from .twist_counts import coprime_count, noncuspidal_orbit

    for flag, degree in (("--l", args.l), ("--lprime", args.lprime)):
        if degree < 1:
            raise UsageError(f"{flag} is a degree and must be at least 1, "
                             f"got {degree}")
    payload: dict = _stamp(None)
    if gcd(args.l, args.lprime) == 1:
        payload["coprime_count"] = coprime_count(args.l, args.lprime,
                                                 not args.empty)
    else:
        payload["coprime_count"] = None
    if args.s is not None or args.r is not None:
        if args.s is None or args.r is None:
            raise UsageError("provide both --s and --r for the orbit count")
        orbit = noncuspidal_orbit(args.l, args.s, args.r, 0, 0)
        payload["noncuspidal_orbit_size"] = len(orbit)
    else:
        payload["noncuspidal_orbit_size"] = None
    _emit_json(payload, args.out)
    return 0


def cmd_pnt(args) -> int:
    from .pnt import decay_check, psi_sum
    from .rankin_selberg import RsCoeffSource, thm1_1_applies, thm1_2_applies

    cfg = _load_config(args.config)
    cfg = with_overrides(cfg, limit=args.limit,
                         checkpoints=args.checkpoints,
                         out=args.out, csv=args.csv)
    _check_output_dirs(cfg.out, cfg.csv)
    pi = cfg.pi()
    pi_prime = cfg.pi_prime()
    source = RsCoeffSource(pi, pi_prime)
    report = psi_sum(source, cfg.limit, checkpoints=cfg.checkpoints)
    try:
        decays = decay_check(report)
    except ValueError:
        decays = None
    payload = _stamp(cfg) | {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config_text": serialize_config(cfg),
        "report": report.to_json_dict(),
        "decay_check": decays,
        "theorem_flags": {
            "thm1_1": thm1_1_applies(pi.field, pi_prime.field),
            "thm1_2": thm1_2_applies(pi.field, pi_prime.field),
        },
    }
    _emit_json(payload, cfg.out)
    if cfg.csv:
        lines = [f"# artifact_version={__version__} "
                 f"config_sha256={config_hash(cfg)}",
                 "x,re_psi,im_psi,re_pred,im_pred,rel_error"]
        for x, rp, ip, rq, iq, e in report.csv_rows():
            lines.append(f"{x},{rp!r},{ip!r},{rq!r},{iq!r},{e!r}")
        _emit_lines(lines, cfg.csv)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(only=args.only, quick=args.quick)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.elapsed:7.2f}s  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bclab",
                     description="base-change pair counting and prime number "
                                 "theorem experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="experiment config file")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("field", help="prime splitting table as CSV")
    common(p)
    p.add_argument("--which", choices=["e", "f"], default="e")
    p.add_argument("--pmax", type=_int_arg, default=100)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("char", help="character data as JSON")
    common(p)
    p.add_argument("--which", choices=["pi", "pi_prime"], default="pi")
    p.set_defaults(func=cmd_char_json)

    p = sub.add_parser("bc", help="base-change fiber as JSON")
    common(p)
    p.add_argument("--which", choices=["pi", "pi_prime"], default="pi")
    p.set_defaults(func=cmd_bc)

    p = sub.add_parser("coeffs", help="local coefficients as CSV")
    common(p)
    p.add_argument("--which", choices=["pi", "pi_prime"], default="pi")
    p.add_argument("--route", choices=["e", "q"], default="e",
                   help="evaluate over the field or through the fiber over Q")
    p.add_argument("--limit", type=_int_arg, default=100)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("rs", help="twisted pairs, multiplicity, theorem flags")
    common(p)
    p.add_argument("--csv", help="also write convolution coefficients here")
    p.add_argument("--limit", type=_int_arg, default=1000,
                   help="coefficient limit for --csv")
    p.set_defaults(func=cmd_rs)

    p = sub.add_parser("count", help="symbolic pair-count predictions")
    common(p, config=False)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lprime", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--empty", action="store_true",
                   help="predict for an empty pairing set")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("pnt", help="psi partial sums against the main term")
    common(p)
    p.add_argument("--limit", type=_int_arg)
    p.add_argument("--checkpoints", type=_checkpoint_list)
    p.add_argument("--csv", help="write the checkpoint trace here")
    p.set_defaults(func=cmd_pnt)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--quick", action="store_true",
                   help="smoke-test scale, not the acceptance gate")
    p.add_argument("--only", help="comma-separated check numbers")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"bclab: usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OutputError, ValueError) as exc:
        print(f"bclab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
