"""Von Mangoldt partial sums of streaming coefficients, with a segmented sieve.

psi(x) = sum over prime powers p^k <= x of log(p) * a(p^k) is accumulated
report block by report block.  Report blocks (`block_edges`: DEFAULT_CHUNK
integers, split at checkpoint boundaries) are the unit of determinism: each
block's partial sum is formed the same way every run, and the cross-block
reduction uses error-free summation in a fixed order, so reports are
bit-identical across runs and worker counts.

The support.  A source's a(p) is nonzero, for p prime to its `modulus`,
only when p mod modulus lies in its `support`.  For a pair a(p) =
A_1(p mod M) p^{i tau0}, and A_1 vanishes off the classes split in both
fields (H_E and H_F lifted mod M), which can be a few percent of the
units; off them a pair's coefficients are exactly 0, so restricting the
k = 1 sum to the primes of the support only saves work.  The higher
powers p^k, k >= 2, run over every prime not dividing the modulus.  The
primes dividing it are excluded from every sum: no unit class holds one, so
the support alone keeps them out at k = 1.

Class layouts.  The one sieve here crosses off composites among the
integers of k' odd classes mod an even M' (the lifts): a mask row holds one
byte per lift for the integers row0 + j*M' + lift, so the flat mask runs
through them in ascending order and `flatnonzero` yields ascending primes.
Each base prime p from 17 up crosses one slice per lift with stride p*k'.
The mask starts as a rotation of the layout's wheel pattern, built on first
use by one rule for every layout: the multiples of the wheel primes 3..13
that do not divide M' are already crossed off, and the wheel primes in the
classes are patched back in, as is 2 when the classes hold it.  The odd
layout (M', lifts) = (2, (1,)) sieves every prime; its wheel is the
mod-15015 pattern of odd numbers.  This is the segmented design of
T. Oliveira e Silva ("Fast implementation of the segmented sieve of
Eratosthenes") and K. Walisch's primesieve, restricted to residue classes
and reduced to what numpy slicing can do.

Which layout psi_sum sieves (`_sieve_classes`).  A trace that fits the
prime table (up to about 1.3e7) reads its primes from the table and keeps
those whose residue lies in the support.  A longer trace sieves the
support's k' lifts mod M' = lcm(2, M) when 2 k'^2 <= M', and otherwise odd
windows plus the same filter: base primes cross off k' slices each over a
mask of k' / M' bytes per integer, so slices per integer scale as
k'^2 / M', and the rule keeps them at most the odd layout's 1/2.

Sieve segments are decoupled from report blocks.  A segment is a maximal
run of consecutive report blocks spanning at most a layout's span
(`_span`): as many integers as a 1.5 MB mask holds, SEGMENT = 3e6 in the
odd layout, so the mask fits a 2 MiB per-core L2 cache, and for a wider
layout at most as many as give each worker SEGMENTS_PER_WORKER segments.  A
segment is sieved once and its primes are split at the block edges, so
each block sees exactly the primes it would get from sieving it alone, and
the report does not depend on the span.

Workers.  The segments of a trace are independent, so `psi_sum` maps them
over up to `workers` workers (`_map_segments`) and reduces the results in
segment order.  Past the prime table, from a mask of _POOL_MASK_BYTES (x k'
/ M' bytes), they run on forked processes: the sieve's slice loop holds the
GIL, and a child inherits the stream and the source with the fork and
returns only block partials.  Otherwise they run in the calling thread: the
table lives in this process, threads would take turns at its numpy
bookkeeping, and a shorter mask is sieved before a pool has started.  A
block's partial is formed by the same code from the same primes wherever
it runs, in a fixed reduction order, so the bits cannot depend on the
worker count.

It is the library's one sieve: `sieve_primes(limit)` concatenates a
stream's windows, and a stream takes its base primes from `sieve_primes`
at the square root of its limit.  The recursion ends in the wheel: every
odd composite below 17^2 has a factor from 3 to 13, so a stream whose limit
is below 289 needs no base prime beyond the wheel primes.

`prime_powers` is the library's one enumerator of the p^k <= x with p not
dividing a modulus, the exclusion rule of every sum here; those with k >= 2
are few (O(sqrt x)).  `prime_power_coeffs` gathers a source's a(p^k) over
them with one `coeff_at` call per k, for `psi_sum` (k >= 2) and
`bclab rs --csv` (every k) alike.

The primes below a bound do not depend on how they are cut into windows,
so one process-wide prime table, every prime below its `end`, serves every
stream and thread: `psi_sum`, `sieve_primes`, the streams' base primes and
`prime_powers` sieve each integer once per process.  A stream takes part
only when all its primes fit WINDOW_CACHE_BYTES by the Rosser-Schoenfeld
bound pi(x) < 1.25506 x / ln x, so a 1e7 trace does and a 1e8 or 1e9 trace
leaves the table alone; class layouts never take part.  A taking-part
stream whose limit reaches past `end` extends the table to its limit, and
its `primes_in(lo, hi)` is a `searchsorted` slice of the table.  Windows
are handed out as read-only int64 arrays, views of the table or sieved.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_CHUNK = 1_000_000
# Integers per sieve segment in the odd layout: three default report blocks,
# whose odd-only mask (1.5 MB) stays in L2.  Larger masks spill out of the
# cache and sieve slower per block.  A class layout keeps the mask size, so
# its segments span more integers (`_span`).
SEGMENT = 3_000_000
# A class layout's wider segments are cut so that each worker still gets at
# least this many of them.
SEGMENTS_PER_WORKER = 4
# Mask bytes from which a trace forks: one thread sieves this many (thm11 to
# 1.2e8) in about the 50 ms a pool takes to start on 2 vCPUs.
_POOL_MASK_BYTES = 12_000_000

_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_SMALL_PRIMES = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)

# Bytes of primes the prime table may hold: all primes below 1e7 (5.3 MB;
# the admission bound says 6.2 MB) fit, those below 2e7 do not.
WINDOW_CACHE_BYTES = 8 << 20

# The prime table (end, primes): every prime below `end` in one read-only
# array.  Readers take the pair without the lock: it is replaced, not changed.
_TABLE = _EMPTY_TABLE = (0, np.array([], dtype=np.int64))
_EMPTY_TABLE[1].flags.writeable = False
_TABLE_LOCK = threading.Lock()


_MASKS = threading.local()


def _mask(n: int) -> np.ndarray:
    """The first n bytes of this thread's sieve mask buffer, grown to the
    largest mask the thread has asked for: a segment's mask is refilled in
    place instead of allocated and faulted in anew."""
    buffer = getattr(_MASKS, "buffer", None)
    if buffer is None or buffer.size < n:
        buffer = _MASKS.buffer = np.empty(n, dtype=bool)
    return buffer[:n]


def _fits_cache(limit: int) -> bool:
    """Whether all primes up to `limit` fit the prime table's budget by
    Rosser-Schoenfeld: pi(x) < 1.25506 x / ln x for every x > 1, and each
    prime takes 8 bytes."""
    return 1.25506 * limit / math.log(limit) * 8 <= WINDOW_CACHE_BYTES


def _layout(classes) -> tuple[int, tuple[int, ...]]:
    """(M', lifts): the odd residues mod M' = lcm(2, modulus) that reduce
    into the classes (modulus, residues), ascending; (2, (1,)) for None,
    every prime.  One class r mod M has one odd lift when M is odd (r or
    r + M) and is odd itself when M is even, so there are as many lifts as
    classes."""
    if classes is None:
        return 2, (1,)
    modulus, residues = classes
    wide = math.lcm(2, modulus)
    return wide, tuple(s for s in range(1, wide, 2) if s % modulus in residues)


@lru_cache(maxsize=16)
def _wheel(modulus: int, lifts: tuple[int, ...]) -> np.ndarray:
    """The wheel pattern of a layout, two periods of it, read-only.

    wheel[j, c] says whether j * modulus + lifts[c] is prime to every wheel
    prime q in 3..13 that does not divide `modulus` (a q dividing it divides
    no unit class).  The rows repeat with period the product of those q, so
    a segment's mask starts as a rotation of this pattern.  For the odd
    layout (2, (1,)) row j is the odd number 2j + 1 and the period 15015.
    Built on first use, not at import.
    """
    primes = [q for q in _WHEEL_PRIMES if modulus % q]
    period = math.prod(primes)
    wheel = np.ones((period, len(lifts)), dtype=bool)
    for q in primes:
        inverse = pow(modulus, -1, q)
        for c, s in enumerate(lifts):
            wheel[-s * inverse % q::q, c] = False  # j * modulus + s = 0 mod q
    twice = np.concatenate((wheel, wheel))
    twice.flags.writeable = False
    return twice


def _check_units(what: str, modulus: int, residues) -> None:
    """Raise ValueError unless `residues` is a nonempty set of units in
    [0, modulus)."""
    if modulus < 1 or not residues or any(
            not 0 <= r < modulus or math.gcd(r, modulus) != 1
            for r in residues):
        raise ValueError(f"{what} must be unit residues mod {modulus}, "
                         f"got {sorted(residues)}")


def residues_of(values: np.ndarray, modulus: int) -> np.ndarray:
    """values mod `modulus` for int64 values in [0, 2^62), as a new array:
    numpy divides by an invariant integer with a multiply and a shift
    (Granlund and Montgomery, PLDI 1994), so this costs half of `%`."""
    r = values // modulus
    r *= modulus
    return np.subtract(values, r, out=r)


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
    enumerated directly from the base primes (there are only O(sqrt x)).

    `classes`, a pair (modulus, residues) of unit residues mod modulus,
    restricts the sieved primes to those classes; None keeps every prime.
    Base primes, block edges and higher powers do not depend on it.
    """

    def __init__(self, limit: int, chunk: int = DEFAULT_CHUNK, classes=None):
        if limit < 2:
            raise ValueError(f"stream limit must be at least 2, got {limit}")
        if chunk < 1:
            raise ValueError(f"stream chunk must be at least 1, got {chunk}")
        self.limit = int(limit)
        self.chunk = int(chunk)
        small = _SMALL_PRIMES
        if classes is not None:
            modulus, residues = int(classes[0]), frozenset(classes[1])
            _check_units("classes", modulus, residues)
            classes = modulus, residues
            small = small[np.isin(small % modulus, list(residues))]
        self.cached = classes is None and _fits_cache(self.limit)
        root = math.isqrt(self.limit)
        # Below 17^2 the wheel alone leaves only primes, so primes_in needs no
        # base prime from 17 up and the recursion ends here.
        self.base_primes = (sieve_primes(root) if root >= 17 else
                            _SMALL_PRIMES[_SMALL_PRIMES <= root])
        self.modulus, self.lifts = _layout(classes)
        self._small = small
        self._lift_array = np.array(self.lifts, dtype=np.int64)
        # Each base prime p from 17 up, prime to M', crosses off in lift c the
        # rows J = -lifts[c] / M' mod p of the global row numbering (row J
        # holds J * M' + lifts[c]).
        base = self.base_primes
        ps = base[(base >= 17) & (self.modulus % base != 0)]
        inverses = np.array([pow(self.modulus, -1, p) for p in ps.tolist()],
                            dtype=np.int64)
        self._cross_primes = ps
        self._cross_rows = (-self._lift_array * inverses[:, None]) % ps[:, None]

    def block_edges(self, breakpoints=()) -> list[int]:
        edges = {2, self.limit + 1}
        edges.update(b + 1 for b in breakpoints if 2 <= b <= self.limit)
        lo = 2
        while lo + self.chunk <= self.limit:
            edges.add(lo + self.chunk)
            lo += self.chunk
        return sorted(edges)

    def primes_in(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi) and in the stream's classes, for hi <= limit + 1,
        as a read-only int64 array: a view of the prime table when the stream
        takes part in it (see the module docstring), else sieved."""
        if hi > self.limit + 1:
            raise ValueError(f"window end {hi} lies past limit + 1 = "
                             f"{self.limit + 1}; base primes stop at its root")
        if not self.cached:
            return self._sieve(lo, hi)
        end, primes = _TABLE
        if hi > end:
            primes = self._extend_table()
        a, b = np.searchsorted(primes, (lo, hi))
        return primes[a:b]

    def _extend_table(self) -> np.ndarray:
        """The table's primes, extended to limit + 1 if they stop short: the
        new windows of at most SEGMENT integers are sieved in place into a
        buffer of pi(limit)'s Rosser-Schoenfeld bound, after the old primes."""
        global _TABLE
        with _TABLE_LOCK:
            end, primes = _TABLE
            if end <= self.limit:
                bound = int(1.25506 * self.limit / math.log(self.limit))
                table = np.empty(bound, dtype=np.int64)
                n = primes.size
                table[:n] = primes
                for lo in range(end, self.limit + 1, SEGMENT):
                    part = self._sieve(lo, min(lo + SEGMENT, self.limit + 1))
                    table[n:n + part.size] = part
                    n += part.size
                table = table[:n]
                table.flags.writeable = False
                _TABLE = self.limit + 1, table
            return _TABLE[1]

    def _sieve(self, lo: int, hi: int) -> np.ndarray:
        """Primes in [lo, hi) and in the classes by the segmented sieve,
        read-only.

        Row j of the mask holds the integers row0 + j * M' + lifts[c], one
        byte per lift, so the flat mask runs through them in ascending
        order.  The wheel primes (and 2) are crossed off by the wheel
        pattern, and those in the classes are patched back in.
        """
        small = self._small[(self._small >= lo) & (self._small < hi)]
        if hi <= max(lo, 2):
            small.flags.writeable = False
            return small
        modulus, lifts = self.modulus, self._lift_array
        k = lifts.size
        row0 = lo - lo % modulus
        rows = -(-(hi - row0) // modulus)
        n = rows * k
        wheel = _wheel(modulus, self.lifts)
        period = wheel.shape[0] // 2
        offset = row0 // modulus % period
        pattern = wheel[offset:offset + period].ravel()
        mask = _mask(n)
        whole = n - n % pattern.size
        mask[:whole].reshape(-1, pattern.size)[:] = pattern
        mask[whole:] = pattern[:n - whole]
        # the first row's integers below lo, the last row's from hi, and 1
        mask[:np.searchsorted(lifts, lo - row0)] = False
        mask[n - k + np.searchsorted(lifts, hi - row0 - (rows - 1) * modulus):
             ] = False
        if row0 == 0 and lifts[0] == 1:
            mask[0] = False
        end = np.searchsorted(self._cross_primes, math.isqrt(hi - 1),
                              side="right")
        ps = self._cross_primes[:end, None]
        # first row J >= row0 / M' with J = _cross_rows mod p and
        # J * M' + lift >= p^2
        first = np.maximum(row0 // modulus, -((lifts - ps * ps) // modulus))
        first += (self._cross_rows[:end] - first) % ps
        idx = (first - row0 // modulus) * k + np.arange(k)
        live = idx < n
        steps = np.broadcast_to(ps * k, idx.shape)
        for i, step in zip(idx[live].tolist(), steps[live].tolist()):
            mask[i::step] = False
        primes = np.flatnonzero(mask)
        if k == 1:
            primes *= modulus
            primes += row0 + self.lifts[0]
        else:
            col = primes % k
            primes //= k
            primes *= modulus
            # in place: each col[i] is read before its slot is written
            np.take(row0 + lifts, col, out=col, mode="clip")
            primes += col
        if small.size:
            primes = np.concatenate((small, primes))
        primes.flags.writeable = False
        return primes

    def higher_powers(self) -> list[tuple[int, int, int]]:
        """(p, k, p^k) for every prime power with k >= 2, ascending in p^k."""
        return list(zip(*(a.tolist()
                          for a in prime_powers(self.limit, k_min=2))))


def prime_powers(limit: int, modulus: int = 1, k_min: int = 1
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, k, p^k) as int64 arrays, ascending in p^k, for every prime power
    p^k <= limit with k >= k_min and p not dividing `modulus`.

    With k_min >= 2 only the primes up to the square root are sieved.  A
    modulus past int64 is tested for divisibility in Python integers.
    """
    limit, modulus = int(limit), int(modulus)
    primes = sieve_primes(limit if k_min <= 1 else math.isqrt(limit))
    if modulus < 2 ** 63:
        p = n = primes[modulus % primes != 0]
    else:  # an lcm of large conductors: exact in Python integers
        p = n = primes[np.array([modulus % q != 0 for q in primes.tolist()],
                                dtype=bool)]
    none = np.array([], dtype=np.int64)
    levels, k = [(none, none, none)], 1
    while p.size:
        if k >= k_min:
            levels.append((p, np.full(p.size, k, dtype=np.int64), n))
        cut = np.count_nonzero(n <= limit // p)  # p^(k+1) <= limit: a prefix
        p, n, k = p[:cut], n[:cut] * p[:cut], k + 1
    ps, ks, powers = (np.concatenate(col) for col in zip(*levels))
    order = np.argsort(powers)
    return ps[order], ks[order], powers[order]


def prime_power_coeffs(source, limit: int, k_min: int = 1
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, p^k, a(p^k)) as arrays, ascending in p^k, over
    `prime_powers(limit, source.modulus, k_min)`; one `coeff_at` call per
    exponent k, and every k from k_min to the largest occurs."""
    ps, ks, powers = prime_powers(limit, source.modulus, k_min)
    vals = np.empty(ps.size, dtype=np.complex128)
    for k in range(max(k_min, 1), int(ks.max(initial=0)) + 1):
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


def _span(stream: PrimePowerStream, workers: int) -> int:
    """Integers per sieve segment for the stream's layout: as many as a mask
    of the odd layout's size holds (SEGMENT in the odd layout, SEGMENT * M'
    / (2 k') with k' lifts mod M'), but for a wider layout no more than
    gives each worker SEGMENTS_PER_WORKER segments."""
    wide = SEGMENT * stream.modulus // (2 * len(stream.lifts))
    return max(SEGMENT, min(wide,
                            stream.limit // (SEGMENTS_PER_WORKER * workers)))


def _segments(blocks: list[tuple[int, int]], span: int
              ) -> list[list[tuple[int, int]]]:
    """Maximal runs of consecutive blocks spanning at most `span` integers;
    a block wider than that is a segment of its own."""
    segments = []
    for lo, hi in blocks:
        if segments and hi - segments[-1][0][0] <= span:
            segments[-1].append((lo, hi))
        else:
            segments.append([(lo, hi)])
    return segments


def _map_segments(fn, segments: list, workers: int) -> list:
    """[fn(segment) for segment in segments]: in the calling thread on one
    worker, else on up to `workers` forked processes (see Workers in the
    module docstring), whose pool is gone when this returns or raises."""
    workers = min(workers, len(segments))
    if workers < 2:
        return [fn(segment) for segment in segments]
    import multiprocessing  # here, not at import: about 15 ms and 1.3 MB

    # fork hands fn to the children as it is, closure and all, unpickled
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_adopt, initargs=(fn,))
    try:
        results = pool.map(_run_adopted, segments, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results


def _adopt(fn) -> None:
    """Pool initializer: the function this child process maps."""
    global _adopted
    _adopted = fn


def _run_adopted(segment):
    return _adopted(segment)


def _sieve_classes(limit: int, modulus: int, support):
    """The classes psi_sum sieves for a trace to `limit`: (modulus, support),
    or None for every prime, filtered by residue afterwards (see "Which
    layout psi_sum sieves" in the module docstring)."""
    if _fits_cache(limit) or 2 * len(support) ** 2 > math.lcm(2, modulus):
        return None
    return modulus, support


def psi_sum(source, x, checkpoints=None, workers: int | None = None
            ) -> PntReport:
    """Accumulate psi(t) = sum_{p^k <= t} log(p) a(p^k) at each checkpoint.

    The source protocol: `coeff_at(primes, k)` returns a(p^k) for an int64
    array of primes; `modulus` and `support` say that a(p) is zero unless
    p mod modulus lies in the support, a nonempty sequence of unit residues,
    and only such primes enter the k = 1 sum; a prime dividing the modulus
    enters no sum; `multiplicity` and `tau0` are the pole data of the main
    term.  Report blocks hold DEFAULT_CHUNK integers, read at call time.
    """
    x = int(x)
    if x < 100:
        raise ValueError(f"limit must be at least 100, got {x}")
    checkpoints = tuple(sorted(default_checkpoints(x) if checkpoints is None
                               else {int(c) for c in checkpoints} | {x}))
    if any(c < 2 or c > x for c in checkpoints):
        raise ValueError("checkpoints must lie in [2, limit]")

    modulus = int(source.modulus)
    support = sorted({int(r) for r in source.support})
    _check_units("support", modulus, support)
    in_support = np.zeros(modulus, dtype=bool)
    in_support[support] = True
    classes = _sieve_classes(x, modulus, support)
    stream = PrimePowerStream(x, chunk=DEFAULT_CHUNK, classes=classes)

    edges = stream.block_edges(checkpoints)
    blocks = list(zip(edges[:-1], edges[1:]))
    n_workers = _resolve_workers(workers)
    segments = _segments(blocks, _span(stream, n_workers))

    def block_part(primes):
        if primes.size:
            vals = np.asarray(source.coeff_at(primes, 1), dtype=np.complex128)
            return complex(np.sum(np.log(primes.astype(np.float64)) * vals))
        return 0j

    def segment_parts(segment):
        """Sieve the segment once; one partial sum per report block."""
        primes = stream.primes_in(segment[0][0], segment[-1][1])
        if classes is None:
            primes = np.compress(in_support[residues_of(primes, modulus)], primes)
        cuts = np.searchsorted(primes, [hi for _, hi in segment[:-1]])
        return [block_part(part) for part in np.split(primes, cuts)]

    pooled = (not stream.cached and stream.limit * len(stream.lifts)
              >= _POOL_MASK_BYTES * stream.modulus)
    per_segment = _map_segments(segment_parts, segments,
                                n_workers if pooled else 1)
    parts = [part for seg in per_segment for part in seg]

    # Fold the sparse higher powers into their blocks, ascending in p^k.
    ps, powers, vals = prime_power_coeffs(source, x, k_min=2)
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

    multiplicity, tau0 = source.multiplicity, source.tau0
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

