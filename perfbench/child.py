"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SRC_DIR < spec.json

Imports bclab from SRC_DIR, notes the time it became ready (the end of
set-up), reads the workload spec from stdin, runs the workload once and
prints one JSON object with the outputs to check, the timings and, when the
spec asks for tracing, the per-layer metrics.  A library call that raises is
recorded as a failed operation; the repetition goes on.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

sys.path.insert(0, sys.argv[1])

import bclab  # noqa: E402  (set-up ends once the library is imported)

READY = time.monotonic()

import numpy as np  # noqa: E402

from bclab.automorphic import (  # noqa: E402
    GalHeckeChar,
    automorphic_induction,
    base_change,
    coeff_angles_over_q,
    coeff_data_over_e,
)
from bclab.characters import (  # noqa: E402
    DirichletChar,
    extensions,
    subgroup_characters,
    trivial_char,
    unit_group,
)
from bclab.config import parse_config  # noqa: E402
from bclab.cyclotomic import RootContext  # noqa: E402
from bclab.fields import fields_up_to_conductor, make_field  # noqa: E402
from bclab.pnt import PrimePowerStream, psi_sum, sieve_primes  # noqa: E402
from bclab.rankin_selberg import (  # noqa: E402
    RsCoeffSource,
    twist_absorption_check,
    twisted_pairs,
)
from bclab.twist_counts import cross_check_pair_count  # noqa: E402

LAYER_METRICS = (
    "pnt.psi_sum_s", "pnt.self_s", "pnt.sieve_s", "pnt.sieve_ints_per_s",
    "pnt.blocks", "pnt.primes", "pnt.prime_powers", "pnt.workers",
    "rankin_selberg.coeff_at_s", "rankin_selberg.coeffs",
    "rankin_selberg.source_s", "rankin_selberg.twisted_pairs_s",
    "rankin_selberg.absorption_s", "rankin_selberg.absorption_ms_p50",
    "rankin_selberg.absorption_ms_p90",
    "twist_counts.cross_check_s", "twist_counts.cross_check_ms_p50",
    "twist_counts.cross_check_ms_p90",
    "fields.enumerate_s", "fields.count",
    "characters.subgroup_characters_s", "characters.extensions_s",
    "characters.configs", "characters.unit_group_misses",
    "characters.unit_group_hits",
    "automorphic.coeff_s", "automorphic.coeffs_checked",
    "cyclotomic.vector_s",
)


class Tracer:
    """Spans around the calls the benchmark makes into each layer.

    Only durations are kept, per span name; with tracing off, call() is a
    plain call.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, []).append(seconds)

    def tally(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return sum(self.spans.get(name, ()))

    def quantile_ms(self, name: str, q: float) -> float:
        xs = sorted(self.spans.get(name, ()))
        if not xs:
            return 0.0
        return 1e3 * xs[min(len(xs) - 1, int(q * len(xs)))]


class TimedSource:
    """Delegates to a coefficient source; times and counts coeff_at calls.

    psi_sum calls coeff_at from its worker threads, so the totals are
    guarded by a lock.  Durations are summed over threads.
    """

    def __init__(self, source, caller: int):
        self._source = source
        self._caller = caller
        self._lock = threading.Lock()
        self.seconds = 0.0
        self.coeffs = 0
        self.threads: set[int] = set()

    def __getattr__(self, name):
        return getattr(self._source, name)

    def coeff_at(self, p, k=1):
        start = time.perf_counter()
        vals = self._source.coeff_at(p, k)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.seconds += elapsed
            self.coeffs += len(p)
            self.threads.add(threading.get_ident())
        return vals

    @property
    def workers(self) -> int:
        """Threads other than the caller that evaluated coefficients."""
        return len(self.threads - {self._caller}) or 1


class PerturbedSource:
    """A source with one wrong coefficient or a wrong pole count.

    Used only to show that the correctness gate catches such faults.
    """

    def __init__(self, source, kind: str):
        self._source = source
        self._kind = kind
        if kind == "count":
            self.multiplicity = source.multiplicity + 1
        # A prime that divides no modulus of conductor <= 60 pairs.
        self._prime = 1009

    def __getattr__(self, name):
        return getattr(self._source, name)

    def coeff_at(self, p, k=1):
        vals = self._source.coeff_at(p, k)
        if self._kind == "coeff" and k == 1:
            vals = np.where(p == self._prime, vals + 1000.0, vals)
        return vals


def _bits(values) -> list[list[str]]:
    return [[z.real.hex(), z.imag.hex()] for z in values]


def _population(bound: int, tr: Tracer, with_fibers: bool):
    """(field, omega) for every field of conductor <= bound, in the
    library's enumeration order."""
    fields = tr.call("fields.enumerate", fields_up_to_conductor, bound)
    configs = []
    for field in fields:
        group = field.ambient
        omegas = tr.call("characters.subgroup_characters",
                         subgroup_characters, group, field.subgroup)
        for omega in omegas:
            if with_fibers:
                tr.call("characters.extensions", extensions, omega, group)
            configs.append((field, omega))
    tr.tally("fields.count", len(fields))
    tr.tally("characters.configs", len(configs))
    return configs


def _pair_objects(spec: dict, root: str, tr: Tracer) -> list:
    configs = None
    pairs = []
    for item in spec["pairs"]:
        if "config" in item:
            with open(os.path.join(root, item["config"])) as fh:
                cfg = parse_config(fh.read())
            pairs.append((cfg.pi(), cfg.pi_prime()))
            continue
        if configs is None:
            configs = _population(spec["bound"], tr, with_fibers=False)
        field, omega = configs[item["left"]]
        field_b, omega_b = configs[item["right"]]
        pairs.append((GalHeckeChar(field, omega, item["tau"]),
                      GalHeckeChar(field_b, omega_b)))
    return pairs


def run_pnt(spec: dict, root: str, tr: Tracer, out: dict):
    x = spec["x"]
    caller = threading.get_ident()
    proxies = []
    reports = []
    for n, (pi, pi_prime) in enumerate(_pair_objects(spec, root, tr)):
        try:
            source = tr.call("rankin_selberg.source", RsCoeffSource,
                             pi, pi_prime)
            fed = source
            if spec.get("inject") and n == 0:
                fed = PerturbedSource(source, spec["inject"])
            if tr.on:
                fed = TimedSource(fed, caller)
                proxies.append(fed)
            report = tr.call("pnt.psi_sum", psi_sum, fed, x)
        except Exception as exc:  # a raising call is a failed operation
            out["results"].append({"error": repr(exc)})
            continue
        reports.append((n, source, report))
        out["results"].append({
            "modulus": source.modulus,
            "multiplicity": report.multiplicity,
            "tau0": report.tau0,
            "checkpoints": list(report.checkpoints),
            "psi": [[z.real, z.imag] for z in report.psi],
        })
    if tr.on:
        return lambda: _pnt_extras(spec, tr, proxies, reports, out)
    return None


def _pnt_extras(spec, tr, proxies, reports, out) -> None:
    """Traced run only: the single-threaded sieve over each call's own
    block edges, and the one-worker rerun of the invariance check."""
    coeff_s = sum(p.seconds for p in proxies)
    tr.tally("rankin_selberg.coeff_at_s", coeff_s)
    tr.tally("rankin_selberg.coeffs", sum(p.coeffs for p in proxies))
    tr.tally("pnt.workers", max((p.workers for p in proxies), default=0))
    tr.tally("pnt.self_s", tr.total("pnt.psi_sum") - coeff_s)
    sieved = 0
    for _, _, report in reports:
        stream = PrimePowerStream(report.limit)
        edges = stream.block_edges(report.checkpoints)
        start = time.perf_counter()
        found = sum(stream.primes_in(lo, hi).size
                    for lo, hi in zip(edges[:-1], edges[1:]))
        tr.add("pnt.sieve", time.perf_counter() - start)
        tr.tally("pnt.blocks", len(edges) - 1)
        tr.tally("pnt.primes", found)
        tr.tally("pnt.prime_powers", len(stream.higher_powers()))
        sieved += report.limit - 1
    if tr.total("pnt.sieve"):
        tr.tally("pnt.sieve_ints_per_s", sieved / tr.total("pnt.sieve"))
    checks = []
    for n, source, report in reports:
        if "config" not in spec["pairs"][n]:
            continue
        try:
            single = psi_sum(source, report.limit, workers=1)
            checks.append(_bits(single.psi) == _bits(report.psi))
        except Exception as exc:
            checks.append(False)
            out["errors"].append(repr(exc))
    out["invariance"] = checks


def run_exact_sweep(spec: dict, root: str, tr: Tracer, out: dict):
    configs = _population(spec["bound"], tr, with_fibers=True)
    out["configs"] = len(configs)
    for a, b in spec["pairs"]:
        try:
            pi = GalHeckeChar(*configs[a])
            pi_prime = GalHeckeChar(*configs[b])
            pairing = tr.call("rankin_selberg.twisted_pairs", twisted_pairs,
                              pi, pi_prime)
            structural, symbolic = tr.call(
                "twist_counts.cross_check", cross_check_pair_count,
                pi, pi_prime)
        except Exception as exc:
            out["results"].append({"error": repr(exc)})
            continue
        out["results"].append({"size": pairing.size, "tau0": pairing.tau0,
                               "structural": structural,
                               "symbolic": symbolic})


def _factorization_configs():
    """The four objects of acceptance criterion 1: trivial and quartic
    characters mod 5, base-changed to Q(sqrt 5) and to Q(zeta_5)."""
    theta = DirichletChar(unit_group(5), [1])
    return [base_change(chi, field)
            for field in (make_field(5, [4]), make_field(5, []))
            for chi in (trivial_char(5), theta)]


def run_exact_identities(spec: dict, root: str, tr: Tracer, out: dict):
    limit = spec["limit"]
    for quad in spec["quads"]:
        try:
            chars = [DirichletChar(unit_group(m), exps) for m, exps in quad]
            ok = tr.call("rankin_selberg.absorption", twist_absorption_check,
                         *chars, limit)
        except Exception as exc:
            out["results"].append({"error": repr(exc)})
            continue
        out["results"].append({"holds": ok})
    flimit = spec["factor_limit"]
    primes = [int(p) for p in sieve_primes(flimit) if p != 5]
    ctx = RootContext(4)
    for pi in _factorization_configs():
        checked = mismatched = 0
        try:
            ai = automorphic_induction(pi)
            for p in primes:
                j, n = 1, p
                while n <= flimit:
                    over_e = tr.call("automorphic.coeff", coeff_data_over_e,
                                     pi, p, j)
                    over_q = tr.call("automorphic.coeff", coeff_angles_over_q,
                                     ai, p, j)
                    left = tr.call(
                        "cyclotomic.vector", ctx.vector,
                        [] if over_e is None else [(over_e[1], over_e[0])])
                    right = tr.call("cyclotomic.vector", ctx.vector,
                                    [(a, 1) for a in over_q])
                    checked += 1
                    mismatched += left != right
                    j += 1
                    n *= p
        except Exception as exc:
            out["results"].append({"error": repr(exc)})
            continue
        tr.tally("automorphic.coeffs_checked", checked)
        out["results"].append({"checked": checked, "mismatched": mismatched})


# Each fills out["results"] and returns the work a traced run does after
# the timed part, as a callable, or None.
WORKLOADS = {
    "pnt_deep": run_pnt,
    "pnt_batch": run_pnt,
    "exact_sweep": run_exact_sweep,
    "exact_identities": run_exact_identities,
}


def layer_metrics(tr: Tracer, cache) -> dict[str, float]:
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for span in ("pnt.psi_sum", "pnt.sieve", "rankin_selberg.source",
                 "rankin_selberg.twisted_pairs", "rankin_selberg.absorption",
                 "twist_counts.cross_check", "fields.enumerate",
                 "characters.subgroup_characters", "characters.extensions",
                 "automorphic.coeff", "cyclotomic.vector"):
        metrics[span + "_s"] = tr.total(span)
    for name in ("rankin_selberg.absorption", "twist_counts.cross_check"):
        metrics[name + "_ms_p50"] = tr.quantile_ms(name, 0.5)
        metrics[name + "_ms_p90"] = tr.quantile_ms(name, 0.9)
    metrics.update(tr.counts)
    metrics["characters.unit_group_misses"] = cache.misses
    metrics["characters.unit_group_hits"] = cache.hits
    return metrics


def main() -> int:
    spec = json.load(sys.stdin)
    out: dict = {"ready": READY, "results": [], "errors": []}
    if spec["workload"] == "probe":
        print(json.dumps(out))
        return 0
    tr = Tracer(bool(spec["trace"]))
    root = os.path.dirname(os.path.abspath(sys.argv[1]))
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    extras = WORKLOADS[spec["workload"]](spec, root, tr, out)
    out["wall_s"] = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = (after.ru_utime + after.ru_stime
                    - before.ru_utime - before.ru_stime)
    out["peak_rss_mb"] = after.ru_maxrss / 1024
    if tr.on:
        cache = unit_group.cache_info()  # before the extras touch it
        if extras is not None:
            extras()
        out["layers"] = layer_metrics(tr, cache)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
