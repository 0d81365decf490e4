"""Von Mangoldt partial sums of streaming coefficients, with a segmented sieve.

psi(x) = sum over prime powers p^k <= x of log(p) * a(p^k) is accumulated
report block by report block.  Report blocks (`block_edges`: DEFAULT_CHUNK
integers, split at checkpoint boundaries) are the unit of determinism: each
block's partial sum is formed the same way every run, and the cross-block
reduction uses error-free summation in a fixed order, so reports are
bit-identical across runs and worker counts.

Sieve segments are decoupled from report blocks.  A segment is a maximal run
of consecutive report blocks spanning at most SEGMENT integers, sized so its
odd-only mask (1.5 MB) stays in a 4 MiB L2 cache; it is sieved once and its
primes are split at the block edges.  Each block therefore still sees exactly
the prime array it would get from sieving it alone, and its partial sum, and
with it the report, does not depend on SEGMENT.

A segment's mask holds one byte per odd number and starts as a copy of a
wheel pattern with the multiples of 3, 5, 7, 11 and 13 already crossed off;
only base primes from 17 up are sieved per segment.  This is the segmented
design of T. Oliveira e Silva ("Fast implementation of the segmented sieve
of Eratosthenes") and K. Walisch's primesieve, reduced to what numpy slicing
can do.

It is the library's one sieve: `sieve_primes(limit)` concatenates a
stream's windows, and a stream takes its base primes from `sieve_primes`
at the square root of its limit.  The recursion ends in the wheel: every
odd composite below 17^2 has a factor from 3 to 13, so a stream whose limit
is below 289 needs no base prime beyond the wheel primes.  The higher prime
powers p^k, k >= 2, are few (O(sqrt x)); `higher_power_coeffs` gathers
their coefficients with one `coeff_at` call per k for `psi_sum` and for
`bclab rs --csv` alike.

The primes of a window [lo, hi) do not depend on the stream that asks for
them, so `primes_in` keeps the windows it sieves in one process-wide cache,
keyed by (lo, hi) and shared by every stream and thread: `psi_sum`,
`sieve_primes`, the streams' base primes and `rankin_selberg`'s prime powers
each sieve a window once per process.  The cache holds at most
WINDOW_CACHE_BYTES of prime arrays and evicts the least recently used
window first.  A stream takes part only when all its primes fit that budget
by the Rosser-Schoenfeld bound pi(x) < 1.25506 x / ln x, so a 1e7 trace is
cached and a 1e8 or 1e9 trace neither enters nor evicts anything.  Windows
are handed out as read-only int64 arrays, cached or not.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DEFAULT_CHUNK = 1_000_000
# Integers per sieve segment: three default report blocks, whose odd-only
# mask (1.5 MB) stays in L2.  Larger segments spill out of the cache and
# sieve slower per block.
SEGMENT = 3_000_000

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

# Bytes of prime arrays the window cache may hold: all primes below 1e7
# (5.3 MB; the admission bound says 6.2 MB) fit, those below 2e7 do not.
WINDOW_CACHE_BYTES = 8 << 20


class _WindowCache:
    """Prime arrays by window (lo, hi), at most `budget` bytes of them, the
    least recently used evicted first.  Safe to share between threads."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._windows: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple[int, int]) -> np.ndarray | None:
        with self._lock:
            primes = self._windows.get(key)
            if primes is not None:
                self._windows.move_to_end(key)
            return primes

    def put(self, key: tuple[int, int], primes: np.ndarray) -> None:
        with self._lock:
            if key in self._windows or primes.nbytes > self.budget:
                return
            while self.nbytes + primes.nbytes > self.budget:
                _, old = self._windows.popitem(last=False)
                self.nbytes -= old.nbytes
            self._windows[key] = primes
            self.nbytes += primes.nbytes


_WINDOWS = _WindowCache(WINDOW_CACHE_BYTES)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as a fresh, writable int64 array: the stream's
    windows of at most SEGMENT integers, concatenated."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    stream = PrimePowerStream(limit)
    return np.concatenate([stream.primes_in(lo, min(lo + SEGMENT, limit + 1))
                           for lo in range(0, limit + 1, SEGMENT)])


class PrimePowerStream:
    """Prime powers up to a limit: primes in sieved blocks, higher powers
    enumerated directly from the base primes (there are only O(sqrt x))."""

    def __init__(self, limit: int, chunk: int = DEFAULT_CHUNK):
        if limit < 2:
            raise ValueError(f"stream limit must be at least 2, got {limit}")
        self.limit = int(limit)
        self.chunk = int(chunk)
        # Rosser-Schoenfeld: pi(x) < 1.25506 x / ln x for every x > 1; each
        # prime takes 8 bytes.
        self.cached = (1.25506 * self.limit / math.log(self.limit) * 8
                       <= WINDOW_CACHE_BYTES)
        root = math.isqrt(self.limit)
        # Below 17^2 the wheel alone leaves only primes, so primes_in needs no
        # base prime from 17 up and the recursion ends here.
        self.base_primes = (sieve_primes(root) if root >= 17 else
                            _SMALL_PRIMES[_SMALL_PRIMES <= root])

    def block_edges(self, breakpoints=()) -> list[int]:
        edges = {2, self.limit + 1}
        edges.update(b + 1 for b in breakpoints if 2 <= b <= self.limit)
        lo = 2
        while lo + self.chunk <= self.limit:
            edges.add(lo + self.chunk)
            lo += self.chunk
        return sorted(edges)

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi), for hi <= limit + 1, as a read-only int64
        array: from the window cache when the stream takes part in it (see
        the module docstring), else sieved."""
        if hi > self.limit + 1:
            raise ValueError(f"window end {hi} lies past limit + 1 = "
                             f"{self.limit + 1}; base primes stop at its root")
        if not self.cached:
            return self._sieve(lo, hi)
        primes = _WINDOWS.get((lo, hi))
        if primes is None:
            primes = self._sieve(lo, hi)
            _WINDOWS.put((lo, hi), primes)
        return primes

    def _sieve(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi) by the segmented sieve, read-only.

        mask[i] stands for the odd number first + 2i; 2 and the wheel primes
        are crossed off by the wheel pattern and patched back in.
        """
        small = _SMALL_PRIMES[(_SMALL_PRIMES >= lo) & (_SMALL_PRIMES < hi)]
        first = max(lo, 3) | 1
        n = (hi - first + 1) // 2
        if n <= 0:
            small.flags.writeable = False
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
        odd = np.flatnonzero(mask)
        odd *= 2
        odd += first
        primes = np.concatenate((small, odd))
        primes.flags.writeable = False
        return primes

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


def higher_power_coeffs(stream: PrimePowerStream, source
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, p^k, a(p^k)) as arrays, ascending in p^k, for every prime power
    p^k <= stream.limit with k >= 2 and p outside `source.excluded_primes`;
    one `coeff_at` call per exponent k."""
    excluded = source.excluded_primes
    ps, ks, powers = np.array(
        [t for t in stream.higher_powers() if t[0] not in excluded],
        dtype=np.int64).reshape(-1, 3).T
    vals = np.empty(ps.size, dtype=np.complex128)
    for k in np.unique(ks).tolist():
        at = ks == k
        vals[at] = source.coeff_at(ps[at], k)
    return ps, powers, vals


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


def _segments(blocks: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Maximal runs of consecutive blocks spanning at most SEGMENT integers;
    a block wider than SEGMENT is a segment of its own."""
    segments = []
    for lo, hi in blocks:
        if segments and hi - segments[-1][0][0] <= SEGMENT:
            segments[-1].append((lo, hi))
        else:
            segments.append([(lo, hi)])
    return segments


def psi_sum(source, x, checkpoints=None, multiplicity=None, tau0=None,
            chunk: int = DEFAULT_CHUNK, workers: int | None = None
            ) -> PntReport:
    """Accumulate psi(t) = sum_{p^k <= t} log(p) a(p^k) at each checkpoint.

    The source protocol: `coeff_at(primes, k)` returns a(p^k) for an int64
    array of primes; `excluded_primes` holds the primes that never enter the
    sum; `multiplicity` and `tau0` are the pole data of the main term, used
    unless overridden here.
    """
    x = int(x)
    if x < 100:
        raise ValueError(f"limit must be at least 100, got {x}")
    if multiplicity is None:
        multiplicity = source.multiplicity
    if tau0 is None:
        tau0 = source.tau0
    checkpoints = tuple(sorted(default_checkpoints(x) if checkpoints is None
                               else {int(c) for c in checkpoints} | {x}))
    if any(c < 2 or c > x for c in checkpoints):
        raise ValueError("checkpoints must lie in [2, limit]")

    stream = PrimePowerStream(x, chunk=chunk)
    excluded = np.array(sorted(source.excluded_primes), dtype=np.int64)

    edges = stream.block_edges(checkpoints)
    blocks = list(zip(edges[:-1], edges[1:]))
    segments = _segments(blocks)
    # Excluded primes are usually the few ramified ones: most segments start
    # above them all and skip np.isin.
    last_excluded = int(excluded[-1]) if excluded.size else 0

    def block_part(primes):
        if primes.size:
            vals = np.asarray(source.coeff_at(primes, 1), dtype=np.complex128)
            return complex(np.sum(np.log(primes.astype(np.float64)) * vals))
        return 0j

    def segment_parts(segment):
        """Sieve the segment once; one partial sum per report block."""
        primes = stream.primes_in(segment[0][0], segment[-1][1])
        if primes.size and primes[0] <= last_excluded:
            primes = primes[~np.isin(primes, excluded)]
        cuts = np.searchsorted(primes, [hi for _, hi in segment[:-1]])
        return [block_part(part) for part in np.split(primes, cuts)]

    n_workers = min(_resolve_workers(workers), len(segments))
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            per_segment = list(pool.map(segment_parts, segments))
    else:
        per_segment = [segment_parts(seg) for seg in segments]
    parts = [part for seg in per_segment for part in seg]

    # Fold the sparse higher powers into their blocks, ascending in p^k.
    ps, powers, vals = higher_power_coeffs(stream, source)
    extras = [0j] * len(blocks)
    for i, term in zip(np.searchsorted(edges, powers, side="right") - 1,
                       (vals * np.log(ps.astype(np.float64))).tolist()):
        extras[i] += term
    parts = [part + extra for part, extra in zip(parts, extras)]

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

