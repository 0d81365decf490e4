"""Von Mangoldt partial sums of streaming coefficients, with a segmented sieve.

psi(x) = sum over prime powers p^k <= x of log(p) * a(p^k) is accumulated
chunk by chunk; chunks are split at checkpoint boundaries, each chunk's
partial sum is formed the same way every run, and the cross-chunk reduction
uses error-free summation in a fixed order, so reports are bit-identical
across runs and worker counts.

Each chunk's primes come from an odd-only segment (one byte per odd number)
that starts as a copy of a wheel pattern with the multiples of 3, 5, 7, 11
and 13 already crossed off; only base primes from 17 up are sieved per
segment.  This is the segmented design of T. Oliveira e Silva ("Fast
implementation of the segmented sieve of Eratosthenes") and K. Walisch's
primesieve, reduced to what numpy slicing can do.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DEFAULT_CHUNK = 1_000_000

# Odd-only wheel: _WHEEL[j] says whether the odd number 2j + 1 is prime to
# every wheel prime.  Odd numbers repeat their residues mod the wheel primes
# with period 3*5*7*11*13 in index space, so a segment's mask starts as a
# rotation of this pattern.
_WHEEL_PERIOD = 15015
_WHEEL = np.ones(_WHEEL_PERIOD, dtype=bool)
for _q in (3, 5, 7, 11, 13):
    _WHEEL[(_q - 1) // 2::_q] = False  # 2j + 1 = 0 mod q
_WHEEL_TWICE = np.concatenate((_WHEEL, _WHEEL))
_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


class PrimePowerStream:
    """Prime powers up to a limit: primes in sieved blocks, higher powers
    enumerated directly from the base primes (there are only O(sqrt x))."""

    def __init__(self, limit: int, chunk: int = DEFAULT_CHUNK):
        if limit < 2:
            raise ValueError(f"stream limit must be at least 2, got {limit}")
        self.limit = int(limit)
        self.chunk = int(chunk)
        self.base_primes = sieve_primes(math.isqrt(self.limit))

    def block_edges(self, breakpoints=()) -> list[int]:
        edges = {2, self.limit + 1}
        edges.update(b + 1 for b in breakpoints if 2 <= b <= self.limit)
        lo = 2
        while lo + self.chunk <= self.limit:
            edges.add(lo + self.chunk)
            lo += self.chunk
        return sorted(edges)

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi), for hi <= limit + 1, via the segmented sieve.

        mask[i] stands for the odd number first + 2i; 2 and the wheel primes
        are crossed off by the wheel pattern and patched back in.
        """
        if hi > self.limit + 1:
            raise ValueError(f"window end {hi} lies past limit + 1 = "
                             f"{self.limit + 1}; base primes stop at its root")
        small = _SMALL_PRIMES[(_SMALL_PRIMES >= lo) & (_SMALL_PRIMES < hi)]
        first = max(lo, 3) | 1
        n = (hi - first + 1) // 2
        if n <= 0:
            return small
        offset = (first // 2) % _WHEEL_PERIOD
        mask = np.resize(_WHEEL_TWICE[offset:offset + _WHEEL_PERIOD], n)
        base = self.base_primes
        ps = base[np.searchsorted(base, 17):
                  np.searchsorted(base, math.isqrt(hi - 1), side="right")]
        start = np.maximum(ps * ps, -(-first // ps) * ps)
        start += ((start & 1) == 0) * ps  # the first odd multiple
        idx = (start - first) // 2
        live = idx < n
        for i, p in zip(idx[live].tolist(), ps[live].tolist()):
            mask[i::p] = False
        return np.concatenate((small, first + 2 * np.flatnonzero(mask)))

    def higher_powers(self) -> list[tuple[int, int, int]]:
        """(p, k, p^k) for every prime power with k >= 2, ascending in p^k."""
        out = []
        for p in self.base_primes:
            p = int(p)
            n = p * p
            k = 2
            while n <= self.limit:
                out.append((p, k, n))
                k += 1
                n *= p
        return sorted(out, key=lambda t: t[2])


def default_checkpoints(limit: int) -> tuple[int, ...]:
    pts = []
    c = 10_000
    while c < limit:
        pts.append(c)
        c *= 10
    pts.append(limit)
    return tuple(pts)


def predicted_main_term(multiplicity: int, tau0: float | None, x: float
                        ) -> complex:
    """m * x^{1 + i tau0} / (1 + i tau0); zero when the pole count m is zero."""
    if multiplicity < 0:
        raise ValueError(f"multiplicity must be nonnegative, got {multiplicity}")
    if multiplicity == 0:
        return 0j
    t = float(tau0 or 0.0)
    return multiplicity * x * cmath.exp(1j * t * math.log(x)) / (1 + 1j * t)


@dataclass(frozen=True)
class PntReport:
    """psi traces at checkpoints against the predicted main term."""

    checkpoints: tuple[int, ...]
    psi: tuple[complex, ...]
    predicted: tuple[complex, ...]
    rel_error: tuple[float, ...]
    multiplicity: int
    tau0: float | None
    limit: int

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "multiplicity": self.multiplicity,
            "tau0": self.tau0,
            "checkpoints": list(self.checkpoints),
            "psi": [[z.real, z.imag] for z in self.psi],
            "predicted": [[z.real, z.imag] for z in self.predicted],
            "rel_error": list(self.rel_error),
        }

    def csv_rows(self) -> list[tuple]:
        rows = []
        for x, p, q, e in zip(self.checkpoints, self.psi, self.predicted,
                              self.rel_error):
            rows.append((x, p.real, p.imag, q.real, q.imag, e))
        return rows


def _resolve_workers(workers: int | None) -> int:
    """An explicit count as given; else BCLAB_THREADS, at most the CPU
    count; else up to four."""
    if workers is not None:
        return max(1, int(workers))
    cpus = os.cpu_count() or 1
    env = os.environ.get("BCLAB_THREADS", "").strip()
    if env:
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(
                f"BCLAB_THREADS must be an integer, got {env!r}") from None
        return max(1, min(requested, cpus))
    return min(4, cpus)


def psi_sum(source, x, checkpoints=None, multiplicity=None, tau0=None,
            chunk: int = DEFAULT_CHUNK, workers: int | None = None
            ) -> PntReport:
    """Accumulate psi(t) = sum_{p^k <= t} log(p) a(p^k) at each checkpoint.

    The source streams coefficients: it exposes excluded_primes and
    coeff_at(primes, k).  Ramified primes never enter the sum.  Pole data
    (multiplicity, tau0) is taken from the source unless overridden.
    """
    x = int(x)
    if x < 100:
        raise ValueError(f"limit must be at least 100, got {x}")
    if not hasattr(source, "coeff_at") and hasattr(source, "coefficients"):
        source = source_from_series(source)  # a frozen coefficient table
    if multiplicity is None:
        multiplicity = getattr(source, "multiplicity", 0)
    if tau0 is None:
        tau0 = getattr(source, "tau0", None)
    checkpoints = tuple(sorted(default_checkpoints(x) if checkpoints is None
                               else {int(c) for c in checkpoints} | {x}))
    if any(c < 2 or c > x for c in checkpoints):
        raise ValueError("checkpoints must lie in [2, limit]")

    stream = PrimePowerStream(x, chunk=chunk)
    excluded = np.array(sorted(set(getattr(source, "excluded_primes", ()))),
                        dtype=np.int64)

    # Higher prime powers, batched per exponent, then bucketed by chunk.
    powers = stream.higher_powers()
    power_vals: dict[tuple[int, int], complex] = {}
    by_k: dict[int, list[int]] = {}
    for p, k, _ in powers:
        by_k.setdefault(k, []).append(p)
    for k, plist in by_k.items():
        parr = np.array(plist, dtype=np.int64)
        keep = ~np.isin(parr, excluded)
        vals = np.zeros(len(parr), dtype=np.complex128)
        if keep.any():
            vals[keep] = np.asarray(source.coeff_at(parr[keep], k),
                                    dtype=np.complex128)
        logs = np.log(parr.astype(np.float64))
        for p, v, lg in zip(plist, vals, logs):
            power_vals[(p, k)] = complex(v * lg)

    edges = stream.block_edges(checkpoints)
    blocks = list(zip(edges[:-1], edges[1:]))
    power_idx = 0

    def block_part(bounds):
        lo, hi = bounds
        primes = stream.primes_in(lo, hi)
        if excluded.size:
            primes = primes[~np.isin(primes, excluded)]
        if primes.size:
            vals = np.asarray(source.coeff_at(primes, 1), dtype=np.complex128)
            part = complex(np.sum(np.log(primes.astype(np.float64)) * vals))
        else:
            part = 0j
        return part

    n_workers = min(_resolve_workers(workers), len(blocks))
    if n_workers > 1:
        # warm any lazy per-exponent tables before sharing the source
        source.coeff_at(np.array([2], dtype=np.int64), 1)
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(block_part, blocks))
    else:
        parts = [block_part(b) for b in blocks]

    # Fold the sparse higher powers into their blocks, ascending in p^k.
    for i, (lo, hi) in enumerate(blocks):
        extra = 0j
        while power_idx < len(powers) and lo <= powers[power_idx][2] < hi:
            p, k, _ = powers[power_idx]
            extra += power_vals[(p, k)]
            power_idx += 1
        parts[i] = parts[i] + extra

    # Error-free prefix reduction in fixed block order at each checkpoint.
    psi_values = []
    cp_iter = iter(checkpoints)
    cp = next(cp_iter)
    done = []
    for (lo, hi), part in zip(blocks, parts):
        done.append(part)
        while cp is not None and hi == cp + 1:
            psi_values.append(complex(math.fsum(z.real for z in done),
                                      math.fsum(z.imag for z in done)))
            cp = next(cp_iter, None)
    if len(psi_values) != len(checkpoints):
        raise ArithmeticError("checkpoint alignment failed")

    predicted = tuple(predicted_main_term(multiplicity, tau0, c)
                      for c in checkpoints)
    rel = tuple(abs(p - q) / c
                for p, q, c in zip(psi_values, predicted, checkpoints))
    return PntReport(checkpoints, tuple(psi_values), predicted, rel,
                     multiplicity, tau0, x)


def decay_check(report: PntReport) -> bool:
    """Empirical decay proxy: the relative error at the last checkpoint is at
    most half the one at the first.  Needs 4+ checkpoints over 2+ decades."""
    if len(report.checkpoints) < 4 or \
            report.checkpoints[-1] < 100 * report.checkpoints[0]:
        raise ValueError(
            "need at least 4 checkpoints spanning two decades to judge decay"
        )
    return report.rel_error[-1] <= report.rel_error[0] / 2


class DirichletSource:
    """Coefficients a(p^k) = chi(p^k) p^{i k tau} of a single twisted character."""

    def __init__(self, chi, tau: float = 0.0, extra_excluded=(),
                 multiplicity: int | None = None):
        from .characters import factorize
        self.chi = chi
        self.tau = float(tau)
        self.excluded_primes = frozenset(
            p for p, _ in factorize(chi.conductor)) | frozenset(extra_excluded)
        self.multiplicity = (1 if chi.is_trivial else 0) \
            if multiplicity is None else multiplicity
        self.tau0 = self.tau
        f = chi.conductor
        self._table = np.array([chi.value(r) for r in range(f)],
                               dtype=np.complex128)

    def coeff_at(self, p: np.ndarray, k: int = 1) -> np.ndarray:
        vals = self._table[np.mod(p, self.chi.conductor)] ** k
        if self.tau:
            vals = vals * np.exp(1j * self.tau * k * np.log(p.astype(float)))
        return vals


class MapSource:
    """Coefficients read from a frozen table n -> a(n); zero off the table."""

    def __init__(self, table: dict[int, complex], excluded=(),
                 multiplicity: int = 0, tau0: float | None = None):
        self.table = dict(table)
        self.excluded_primes = frozenset(excluded)
        self.multiplicity = multiplicity
        self.tau0 = tau0

    def coeff_at(self, p: np.ndarray, k: int = 1) -> np.ndarray:
        return np.array([self.table.get(int(q) ** k, 0j) for q in p],
                        dtype=np.complex128)


def source_from_series(series) -> MapSource:
    return MapSource(series.coefficients, series.excluded_primes,
                     series.multiplicity, series.tau0)
