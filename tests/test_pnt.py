import math
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import DirichletChar, trivial_char, unit_group
from bclab.fields import make_field
from bclab.automorphic import base_change, bc_fiber, trivial_over
from bclab.config import parse_config
from bclab.rankin_selberg import RsCoeffSource
from bclab import pnt
from bclab.pnt import (
    PrimePowerStream,
    _resolve_workers,
    _segments,
    decay_check,
    default_checkpoints,
    predicted_main_term,
    prime_power_coeffs,
    psi_sum,
    sieve_primes,
)
from bclab.verify import _oracle_primes
from oracles import DirichletSource, plain_sieve_primes, psi_per_block


def is_prime_slow(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


# -------------------------------------------------------------------- streams

def test_sieve_against_trial_division():
    got = list(sieve_primes(500))
    assert got == [p for p in range(2, 501) if is_prime_slow(p)]


def test_verify_oracle_primes_match_sieve():
    # verify's own odd-only sieve is independent of sieve_primes; they agree
    for limit in list(range(201)) + [10**6]:
        got = _oracle_primes(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, sieve_primes(limit)), limit


def test_segmented_blocks_cover_all_primes():
    stream = PrimePowerStream(10_000, chunk=700)
    edges = stream.block_edges([5_000])
    collected = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        collected.extend(stream.primes_in(lo, hi))
    assert collected == [p for p in range(2, 10_001) if is_prime_slow(p)]


SIEVE_LIMIT = 100_000
WHEEL_SPAN = 2 * 15015  # integers per period of the odd-only wheel pattern


def expected_primes(lo, hi):
    ref = plain_sieve_primes(hi - 1)
    return ref[ref >= lo].tolist()


def test_primes_in_low_edges_exhaustive():
    stream = PrimePowerStream(200)
    for lo in range(18):
        for hi in range(lo, 120):
            got = stream.primes_in(lo, hi)
            assert got.dtype == np.int64
            assert got.tolist() == expected_primes(lo, hi), (lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 17), st.integers(0, SIEVE_LIMIT)),
       st.one_of(st.integers(0, 40), st.integers(0, WHEEL_SPAN),
                 st.integers(0, 3 * WHEEL_SPAN)))
def test_primes_in_matches_sieve(lo, width):
    hi = min(lo + width, SIEVE_LIMIT + 1)
    got = PrimePowerStream(SIEVE_LIMIT).primes_in(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == expected_primes(lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5_000), st.lists(st.integers(2, 5_000), max_size=4))
def test_chunk7_stream_blocks_concatenate_to_sieve(limit, breakpoints):
    stream = PrimePowerStream(limit, chunk=7)
    edges = stream.block_edges(breakpoints)
    blocks = [stream.primes_in(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert all(b.dtype == np.int64 for b in blocks)
    assert np.concatenate(blocks).tolist() == plain_sieve_primes(limit).tolist()


@pytest.mark.parametrize("limits", [
    range(0, 2001),
    [pnt.SEGMENT - 1, pnt.SEGMENT, pnt.SEGMENT + 1, 2 * pnt.SEGMENT + 1,
     10**7],
])
def test_sieve_primes_matches_plain_sieve(limits):
    for limit in limits:
        got = sieve_primes(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, plain_sieve_primes(limit)), limit


@pytest.mark.parametrize("segment", [7, 30])
def test_sieve_primes_windows_cover_every_limit(monkeypatch, segment):
    # the last window ends at limit + 1 whatever SEGMENT divides
    monkeypatch.setattr(pnt, "SEGMENT", segment)
    for limit in range(0, 400):
        assert np.array_equal(sieve_primes(limit), plain_sieve_primes(limit))


def test_base_primes_where_the_recursion_ends():
    # isqrt(limit) crosses 17 at 289: below, the base primes are the wheel's
    for limit in range(255, 331):
        want = plain_sieve_primes(math.isqrt(limit))
        got = PrimePowerStream(limit).base_primes
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist(), limit


def test_primes_in_rejects_window_past_limit():
    # base primes stop at isqrt(limit), so 17^2 = 289 would pass as prime
    with pytest.raises(ValueError, match="past limit"):
        PrimePowerStream(100).primes_in(250, 300)
    assert PrimePowerStream(100).primes_in(90, 101).tolist() == [97]


# -------------------------------------------------------------- class layouts

def unit_residues(m):
    return [r for r in range(m) if math.gcd(r, m) == 1]


def expected_class_primes(lo, hi, classes):
    modulus, residues = classes
    ref = np.array(expected_primes(lo, hi), dtype=np.int64)
    return ref[np.isin(ref % modulus, list(residues))].tolist()


@st.composite
def class_sets(draw):
    """A modulus up to 120, odd or even, and a nonempty set of its unit
    classes; often one holding a prime from 2 to 13."""
    m = draw(st.integers(1, 120))
    units = unit_residues(m)
    residues = set(draw(st.lists(st.sampled_from(units), min_size=1,
                                 max_size=8, unique=True)))
    small = [p % m for p in (2, 3, 5, 7, 11, 13) if m % p]
    if small and draw(st.booleans()):
        residues.add(draw(st.sampled_from(small)))
    return m, sorted(residues)


@settings(max_examples=300, deadline=None)
@given(class_sets(),
       st.one_of(st.integers(0, 300), st.integers(0, SIEVE_LIMIT)),
       st.one_of(st.integers(0, 60), st.integers(0, WHEEL_SPAN),
                 st.integers(0, 3 * WHEEL_SPAN)))
def test_class_stream_primes_in_matches_filtered_sieve(classes, lo, width):
    hi = min(lo + width, SIEVE_LIMIT + 1)
    got = PrimePowerStream(SIEVE_LIMIT, classes=classes).primes_in(lo, hi)
    assert got.dtype == np.int64
    assert not got.flags.writeable
    assert got.tolist() == expected_class_primes(lo, hi, classes)


@settings(max_examples=60, deadline=None)
@given(class_sets(), st.integers(2, 20_000),
       st.lists(st.integers(2, 20_000), max_size=4),
       st.integers(5, 3_000))
def test_class_stream_blocks_concatenate_to_filtered_sieve(
        classes, limit, breakpoints, chunk):
    # consecutive windows meet at every block edge
    stream = PrimePowerStream(limit, chunk=chunk, classes=classes)
    edges = stream.block_edges(breakpoints)
    blocks = [stream.primes_in(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.concatenate(blocks).tolist() == \
        expected_class_primes(0, limit + 1, classes)


def test_class_streams_keep_the_small_primes_of_their_classes():
    # every modulus up to 120, one class per small prime that is a unit,
    # and all units: 2 is patched in for odd moduli, 3..13 by the wheel
    for m in range(1, 121):
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            if m % p == 0:
                continue
            classes = (m, [p % m])
            stream = PrimePowerStream(2_000, classes=classes)
            for lo, hi in ((0, 400), (p, p + 1), (250, 2_001)):
                assert stream.primes_in(lo, hi).tolist() == \
                    expected_class_primes(lo, hi, classes), (m, p, lo, hi)
        every = (m, unit_residues(m))
        assert PrimePowerStream(2_000, classes=every).primes_in(0, 2_001
                                                                ).tolist() \
            == expected_class_primes(0, 2_001, every), m


def test_class_stream_shares_base_primes_and_edges_with_the_full_stream():
    full = PrimePowerStream(10**6, chunk=7_000)
    classes = PrimePowerStream(10**6, chunk=7_000, classes=(20, [1, 9]))
    assert classes.base_primes.tolist() == full.base_primes.tolist()
    assert classes.block_edges([5_000]) == full.block_edges([5_000])
    assert classes.higher_powers() == full.higher_powers()
    assert not classes.cached and full.cached
    assert (classes.modulus, classes.lifts) == (20, (1, 9))
    assert (PrimePowerStream(100, classes=(5, [1, 4])).lifts) == (1, 9)


@pytest.mark.parametrize("classes", [
    (0, [1]), (10, []), (10, [5]), (10, [0]), (10, [11]), (10, [-1]),
])
def test_class_stream_rejects_non_unit_classes(classes):
    with pytest.raises(ValueError, match="unit residues"):
        PrimePowerStream(1_000, classes=classes)


def test_odd_layout_wheel_is_the_mod_15015_pattern():
    # the odd-only wheel as the sieve built it before class layouts
    old = np.ones(15015, dtype=bool)
    for q in (3, 5, 7, 11, 13):
        old[(q - 1) // 2::q] = False
    wheel = pnt._wheel(2, (1,))
    assert wheel.shape == (2 * 15015, 1) and not wheel.flags.writeable
    assert wheel[:15015, 0].tobytes() == old.tobytes()
    assert wheel[15015:, 0].tobytes() == old.tobytes()
    # mod 20 the wheel skips 5, which divides no unit class
    assert pnt._wheel(20, (1, 9)).shape == (2 * 3 * 7 * 11 * 13, 2)


def test_wheel_patterns_are_built_lazily():
    code = ("from bclab import pnt\n"
            "assert pnt._wheel.cache_info().currsize == 0\n"
            "pnt.sieve_primes(1000)\n"
            "assert pnt._wheel.cache_info().currsize == 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=60)


# ---------------------------------------------------------------- prime table

def test_cached_windows_match_plain_sieve_and_are_read_only(monkeypatch):
    # every window handed out is a read-only int64 view of the prime table
    handed = []
    primes_in = PrimePowerStream.primes_in

    def recording(stream, lo, hi):
        primes = primes_in(stream, lo, hi)
        handed.append((lo, hi, primes, pnt._TABLE[1]))
        return primes

    monkeypatch.setattr(PrimePowerStream, "primes_in", recording)
    psi_sum(_pair_source(), 10**6, checkpoints=(12_345, 600_000))
    sieve_primes(250_000)
    monkeypatch.setattr(pnt, "SEGMENT", 70_000)
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", 40_000)
    psi_sum(_pair_source(), 300_000, workers=2)
    end, table = pnt._TABLE
    ref = plain_sieve_primes(10**6)
    assert end == 10**6 + 1 and np.array_equal(table, ref)
    assert len(handed) > 10
    for lo, hi, primes, then in handed:
        assert primes.dtype == np.int64
        assert not primes.flags.writeable, (lo, hi)
        assert primes.size == 0 or np.shares_memory(primes, then), (lo, hi)
        assert np.array_equal(primes, ref[(ref >= lo) & (ref < hi)]), (lo, hi)


def test_window_hit_is_the_cached_array():
    # a second stream's window is a view of the same table, not a copy
    first = PrimePowerStream(10**6).primes_in(1_000, 50_000)
    again = PrimePowerStream(60_000).primes_in(1_000, 50_000)
    assert np.shares_memory(first, again) and np.array_equal(first, again)
    assert np.shares_memory(first, pnt._TABLE[1])
    with pytest.raises(ValueError):
        first[0] = 4


def test_table_sieves_every_integer_once_whatever_the_windows(monkeypatch):
    # each checkpoint set cuts the trace into other windows; the table is
    # sieved once, in windows that tile [0, limit + 1)
    sieved = []
    sieve = PrimePowerStream._sieve

    def recording(stream, lo, hi):
        sieved.append((lo, hi))
        return sieve(stream, lo, hi)

    monkeypatch.setattr(PrimePowerStream, "_sieve", recording)
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", 100_000)
    sieve_primes(10**6)
    source = _pair_source()
    rng = np.random.default_rng(12)
    for _ in range(30):
        checkpoints = rng.integers(2, 2 * 10**6, size=12).tolist()
        psi_sum(source, 2 * 10**6, checkpoints=checkpoints)
    sieved.sort()
    assert sieved[0][0] == 0 and sieved[-1][1] == 2 * 10**6 + 1
    assert all(hi == nxt for (_, hi), (nxt, _) in zip(sieved, sieved[1:]))
    assert all(lo < hi for lo, hi in sieved)


def test_sieve_primes_returns_a_fresh_writable_array():
    for limit in (1, 1_000, pnt.SEGMENT + 1):
        primes = sieve_primes(limit)
        assert primes.flags.writeable
        if primes.size:
            primes[0] = -1
        assert sieve_primes(limit).tolist() == plain_sieve_primes(limit).tolist()


def test_stream_past_the_budget_leaves_the_cache_as_it_was():
    assert PrimePowerStream(10**7).cached
    stream = PrimePowerStream(2 * 10**7)  # its base primes enter the table
    assert not stream.cached
    before = pnt._TABLE
    assert before[0] > math.isqrt(2 * 10**7)
    primes = stream.primes_in(10**7, 10**7 + 5_000)
    assert not primes.flags.writeable
    assert primes.tolist() == expected_primes(10**7, 10**7 + 5_000)
    assert pnt._TABLE is before


def test_psi_sum_bits_repeat_with_the_cache_warm():
    source = _pair_source(tau=0.5)
    runs = [psi_sum(source, 10**6, workers=w).psi for w in (1, 1, 3, 3)]
    bits = [[(z.real.hex(), z.imag.hex()) for z in psi] for psi in runs]
    assert bits[0] == bits[1] == bits[2] == bits[3]


def test_window_cache_under_thread_contention():
    # more threads than cores and a short switch interval; streams of mixed
    # limits in random order extend the prime table while others read it,
    # and a watcher samples the table's end, which must never shrink
    ref = plain_sieve_primes(200_000)
    limits = [1_000, 5_000, 30_000, 77_777, 120_000, 150_000, 200_000]
    ends, done = [], threading.Event()

    def watch():
        while not done.is_set():
            ends.append(pnt._TABLE[0])

    def work(seed):
        rng = np.random.default_rng(seed)
        for limit in rng.permutation(limits).tolist():
            stream = PrimePowerStream(limit)
            for lo in rng.integers(0, limit, size=5).tolist():
                hi = min(lo + 9_000, limit + 1)
                got = stream.primes_in(lo, hi)
                if not np.array_equal(got, ref[(ref >= lo) & (ref < hi)]):
                    return False
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [f.result(timeout=120)
                       for f in [pool.submit(work, s) for s in range(12)]]
    finally:
        done.set()
        watcher.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not watcher.is_alive()
    assert all(results)
    assert len(ends) > 1 and ends == sorted(ends)
    end, table = pnt._TABLE
    assert end == 200_001 and np.array_equal(table, ref)


def test_higher_powers_complete_and_unique():
    stream = PrimePowerStream(3_000)
    powers = stream.higher_powers()
    expected = sorted(
        (p, k, p ** k)
        for p in range(2, 60) if is_prime_slow(p)
        for k in range(2, 12) if p ** k <= 3_000
    )
    assert sorted(powers) == expected
    assert len({n for _, _, n in powers}) == len(powers)


def test_stream_validates_limit():
    with pytest.raises(ValueError):
        PrimePowerStream(1)


@pytest.mark.parametrize("chunk", [0, -1])
def test_stream_rejects_a_chunk_below_one(chunk):
    # block_edges would never return: lo stays put (0) or walks down (-1)
    with pytest.raises(ValueError, match=f"got {chunk}"):
        PrimePowerStream(1_000, chunk=chunk)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["thm11", "dihedral", "empty_t", "twist"])
def test_higher_power_coeffs_match_scalar_loop(name):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    source = RsCoeffSource(cfg.pi(), cfg.pi_prime())
    stream = PrimePowerStream(10**5)
    ps, powers, vals = prime_power_coeffs(source, 10**5, k_min=2)
    want = [(p, n, source.coeff_at(np.array([p], dtype=np.int64), k)[0])
            for p, k, n in stream.higher_powers()
            if source.modulus % p]
    assert ps.dtype == powers.dtype == np.int64
    assert vals.dtype == np.complex128
    assert list(zip(ps.tolist(), powers.tolist(), vals.tolist())) == want
    assert all(source.modulus % p for p in ps.tolist())


def test_prime_power_coeffs_without_prime_powers():
    # 2, 3, 5 and 7 divide the modulus, so no p^2 reaches 100; below 2
    # there is no prime at all
    calls = []

    class Source:
        modulus = 210

        def coeff_at(self, p, k):
            calls.append(k)
            return np.ones(p.size, dtype=np.complex128)

    for limit, k_min in ((100, 2), (1, 1)):
        ps, powers, vals = prime_power_coeffs(Source(), limit, k_min)
        assert ps.size == powers.size == vals.size == 0
    assert calls == []
    ps, powers, vals = prime_power_coeffs(Source(), 200, 1)
    assert calls == [1, 2] and 169 in powers.tolist()


def test_traces_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call in a process (about 17 ms)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy\n"
         "print('numpy.ma' in sys.modules)"], env=env, check=True,
        capture_output=True, text=True, timeout=60)
    if bare.stdout.strip() == "True":
        pytest.skip("a bare numpy import already loads numpy.ma")
    config = str(CONFIGS / "thm11.cfg")
    code = ("import sys\n"
            "from bclab.cli import main\n"
            "from bclab.config import parse_config\n"
            "from bclab.pnt import psi_sum\n"
            "from bclab.rankin_selberg import RsCoeffSource\n"
            f"cfg = parse_config(open({config!r}).read())\n"
            "psi_sum(RsCoeffSource(cfg.pi(), cfg.pi_prime()), 10**5)\n"
            "assert 'numpy.ma' not in sys.modules, 'psi_sum'\n"
            f"assert main(['pnt', '--config', {config!r}, '--limit', '1e5',\n"
            f"             '--out', {str(tmp_path / 'pnt.json')!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'bclab pnt'\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.data())
def test_residues_of_matches_np_mod_and_leaves_its_input_alone(modulus, data):
    values = data.draw(st.lists(st.one_of(st.integers(0, modulus - 1),
                                          st.integers(0, 2**62 - 1))))
    p = np.array(values, dtype=np.int64)
    p.flags.writeable = False  # as a cached window is
    got = pnt.residues_of(p, modulus)
    assert got.dtype == np.int64
    assert got.tolist() == np.mod(p, modulus).tolist()
    assert p.tolist() == values
    assert not np.shares_memory(got, p)


# ------------------------------------------------------------------- workers

def test_resolve_workers_clamps_env_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("BCLAB_THREADS", "64")
    assert _resolve_workers(None) == 2
    monkeypatch.setenv("BCLAB_THREADS", " 1 ")
    assert _resolve_workers(None) == 1
    monkeypatch.setenv("BCLAB_THREADS", "0")
    assert _resolve_workers(None) == 1
    monkeypatch.delenv("BCLAB_THREADS")
    assert _resolve_workers(None) == 2


@pytest.mark.parametrize("value", ["two", "1.5", "inf"])
def test_resolve_workers_rejects_non_integer_env(monkeypatch, value):
    monkeypatch.setenv("BCLAB_THREADS", value)
    with pytest.raises(ValueError, match="BCLAB_THREADS"):
        _resolve_workers(None)
    assert _resolve_workers(3) == 3  # an explicit count ignores the env


# ------------------------------------------------------------------ psi sums

def brute_psi(limit, coeff):
    total = 0j
    for p in range(2, limit + 1):
        if not is_prime_slow(p):
            continue
        n, k = p, 1
        while n <= limit:
            total += math.log(p) * coeff(p, k)
            k += 1
            n *= p
    return total


def test_classical_chebyshev_psi_small():
    src = DirichletSource(trivial_char(1))
    rep = psi_sum(src, 5_000, checkpoints=[5_000])
    assert abs(rep.psi[-1] - brute_psi(5_000, lambda p, k: 1)) < 1e-9


def test_classical_chebyshev_psi_frozen_value():
    # direct-sieve oracle value, frozen: psi(10^6) = 999586.5974956331
    src = DirichletSource(trivial_char(1))
    rep = psi_sum(src, 1_000_000)
    assert abs(rep.psi[-1].real - 999586.5974956331) < 1e-6
    assert abs(rep.psi[-1].real / 1e6 - 1) <= 0.001


def test_pair_source_against_bruteforce():
    e, f = make_field(5, [4]), make_field(4, [])
    src = RsCoeffSource(trivial_over(e), trivial_over(f))

    def coeff(p, k):
        if p in (2, 5):
            return 0
        chi5 = 1 if pow(p, k, 5) in (1, 4) else -1
        chi4 = 1 if pow(p, k, 4) == 1 else -1
        return (1 + chi5) * (1 + chi4)

    rep = psi_sum(src, 20_000, checkpoints=[20_000])
    assert abs(rep.psi[-1] - brute_psi(20_000, coeff)) < 1e-8


def test_twisted_pair_source_against_bruteforce():
    e, f = make_field(5, [4]), make_field(4, [])
    src = RsCoeffSource(trivial_over(e, tau=0.5), trivial_over(f))

    def coeff(p, k):
        if p in (2, 5):
            return 0
        chi5 = 1 if pow(p, k, 5) in (1, 4) else -1
        chi4 = 1 if pow(p, k, 4) == 1 else -1
        return (1 + chi5) * (1 + chi4) * complex(p) ** (0.5j * k)

    rep = psi_sum(src, 20_000, checkpoints=[20_000])
    assert abs(rep.psi[-1] - brute_psi(20_000, coeff)) < 1e-7
    # the main term takes the source's pole data
    assert (rep.multiplicity, rep.tau0) == (src.multiplicity, 0.5)
    assert src.multiplicity == 1
    assert rep.predicted == (predicted_main_term(1, 0.5, 20_000),)


def test_psi_rejects_small_limit():
    with pytest.raises(ValueError):
        psi_sum(DirichletSource(trivial_char(1)), 99)


def test_default_checkpoints():
    assert default_checkpoints(10_000_000) == (10_000, 100_000, 1_000_000,
                                               10_000_000)
    assert default_checkpoints(5_000) == (5_000,)


def test_determinism_bit_for_bit():
    e, f = make_field(5, [4]), make_field(4, [])
    src = RsCoeffSource(trivial_over(e), trivial_over(f))
    rep1 = psi_sum(src, 100_000, workers=1)
    rep2 = psi_sum(src, 100_000, workers=3)
    assert rep1.psi == rep2.psi

    # a coefficientwise-identical frozen source must give identical bits
    class Proxy:
        multiplicity = src.multiplicity
        tau0 = src.tau0
        modulus = src.modulus
        support = src.support

        def coeff_at(self, p, k=1):
            return src.coeff_at(p, k)

    rep3 = psi_sum(Proxy(), 100_000)
    assert rep3.psi == rep1.psi


# ------------------------------------------------------------ sieve segments

def test_segments_are_maximal_runs_within_segment(monkeypatch):
    monkeypatch.setattr(pnt, "SEGMENT", 25)
    blocks = [(2, 12), (12, 13), (13, 27), (27, 80), (80, 90), (90, 95),
              (95, 106)]
    assert _segments(blocks, pnt.SEGMENT) == [
        [(2, 12), (12, 13), (13, 27)], [(27, 80)], [(80, 90), (90, 95)],
        [(95, 106)]]

    monkeypatch.setattr(pnt, "SEGMENT", 2_000)
    stream = PrimePowerStream(100_000, chunk=700)
    edges = stream.block_edges([5_000, 5_001, 77_777])
    blocks = list(zip(edges[:-1], edges[1:]))
    segments = _segments(blocks, pnt.SEGMENT)
    assert [b for seg in segments for b in seg] == blocks
    assert max(len(seg) for seg in segments) >= 3
    assert all(seg[-1][1] - seg[0][0] <= 2_000 for seg in segments)
    for seg, nxt in zip(segments, segments[1:]):
        assert nxt[0][1] - seg[0][0] > 2_000


def _pair_source(tau=0.0):
    e, f = make_field(5, [4]), make_field(4, [])
    return RsCoeffSource(trivial_over(e, tau=tau), trivial_over(f))


SEG_X = 200_000
SEG_CHUNK = 10_000
# 10_000 splits off the length-1 block [10001, 10002); the primes 10_007
# and 100_003 open the blocks after the checkpoints 10_006 and 100_002.
SEG_CHECKPOINTS = (10_000, 10_006, 100_002, 123_456, SEG_X)


SEG_SOURCES = {
    "untwisted": lambda: _pair_source(),
    "twisted": lambda: _pair_source(tau=0.5),
    # mod 7 * 10007 the prime 10007, which opens the block after the
    # checkpoint 10006, is excluded beyond the conductor's 7
    "dirichlet_extra_excluded": lambda: DirichletSource(
        DirichletChar(unit_group(7), [1]), tau=0.25, modulus=7 * 10_007),
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("segment", [1, 9_999, 10_001, 35_000, 10**9])
@pytest.mark.parametrize("name", sorted(SEG_SOURCES))
def test_segments_bit_identical_to_per_block_sieve(monkeypatch, name,
                                                   segment, workers):
    source = SEG_SOURCES[name]()
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", SEG_CHUNK)
    expected = psi_per_block(source, SEG_X, SEG_CHECKPOINTS)
    monkeypatch.setattr(pnt, "SEGMENT", segment)
    rep = psi_sum(source, SEG_X, checkpoints=SEG_CHECKPOINTS,
                  workers=workers)
    assert rep.psi == expected


def bits(psi):
    return [(z.real.hex(), z.imag.hex()) for z in psi]


def _config_source(name):
    cfg = parse_config((CONFIGS / f"{name}.cfg").read_text())
    return RsCoeffSource(cfg.pi(), cfg.pi_prime())


def _mod31_self_pair():
    # the degree-6 field mod 31 fixed by <2>: 2 splits completely in it, so
    # the support {1, 2, 4, 8, 16} holds 2's class, and 2 * 5^2 <= 62
    pi = trivial_over(make_field(31, [2]))
    return RsCoeffSource(pi, pi)


PATH_SOURCES = {name: (lambda name=name: _config_source(name))
                for name in ("thm11", "dihedral", "empty_t", "twist")}
PATH_SOURCES["mod31"] = _mod31_self_pair


@pytest.mark.parametrize("name", sorted(PATH_SOURCES))
def test_class_sieve_and_odd_windows_give_the_same_bits(monkeypatch, name):
    # both paths, every segment size and worker count: the bits of the
    # per-block oracle, which sums the support primes block by block
    source = PATH_SOURCES[name]()
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", SEG_CHUNK)
    expected = bits(psi_per_block(source, SEG_X, SEG_CHECKPOINTS))
    for fits in (True, False):
        monkeypatch.setattr(pnt, "_fits_cache", lambda limit, f=fits: f)
        classes = pnt._sieve_classes(SEG_X, source.modulus, source.support)
        assert (classes is None) == fits
        for segment in (1, 9_999, 35_000, 10**9):
            monkeypatch.setattr(pnt, "SEGMENT", segment)
            for workers in (1, 2, 3):
                rep = psi_sum(source, SEG_X, checkpoints=SEG_CHECKPOINTS,
                              workers=workers)
                assert bits(rep.psi) == expected, (fits, segment, workers)


def test_support_prime_two_enters_the_sum():
    # a(2) = 6 * 6 = 36 for the mod-31 self pair, so psi(2) = 36 log 2
    source = _mod31_self_pair()
    assert 2 in source.support
    assert abs(source.coeff_at(np.array([2]), 1)[0] - 36) < 1e-12
    rep = psi_sum(source, 100, checkpoints=[2, 100])
    assert abs(rep.psi[0] - 36 * math.log(2)) < 1e-12


# psi bits of the four configs at SEG_X with SEG_CHECKPOINTS and SEG_CHUNK,
# frozen from psi_sum while it still dropped a list of excluded primes.
# thm11 and empty_t were re-frozen when RsCoeffSource went from summing
# both fibers' [E:Q] + [F:Q] float rows to the one character
# [E:Q][F:Q] chi_0 conj(psi_0) on H: only their imaginary parts moved, the
# float residue of the cancelled fiber sums (|d|/x <= 4.8e-20 for thm11,
# now exactly 0, and <= 2.45e-16 for empty_t); dihedral and twist kept
# their bits.  empty_t's imaginary parts were re-frozen to exactly 0 when
# its xi = -1 classes became an exact -1 (`angle_to_complex`).
CONFIG_BITS = {
    "thm11": [("0x1.3dda87bc5fc68p+13", "0x0.0p+0"),
              ("0x1.3dda87bc5fc68p+13", "0x0.0p+0"),
              ("0x1.868c772e99e1bp+16", "0x0.0p+0"),
              ("0x1.e2343dfcc2ad4p+16", "0x0.0p+0"),
              ("0x1.8653fe935d544p+17", "0x0.0p+0")],
    "dihedral": [("0x1.39db57ad358a4p+14", "0x0.0p+0"),
                 ("0x1.39db57ad358a4p+14", "0x0.0p+0"),
                 ("0x1.86af1375875f8p+17", "0x0.0p+0"),
                 ("0x1.e247aa6af0abfp+17", "0x0.0p+0"),
                 ("0x1.8652b673170b3p+18", "0x0.0p+0")],
    "empty_t": [("0x1.224cefed0437ep+6", "0x0.0p+0"),
                ("0x1.224cefed0437ep+6", "0x0.0p+0"),
                ("-0x1.60820f8a15e6ap+7", "0x0.0p+0"),
                ("0x1.5da319fe15338p+8", "0x0.0p+0"),
                ("-0x1.36003c4036a5cp+8", "0x0.0p+0")],
    "twist": [("-0x1.2e51d73df6662p+12", "-0x1.e415661fc4936p+12"),
              ("-0x1.2e51d73df6662p+12", "-0x1.e415661fc4936p+12"),
              ("0x1.7f90388fe10a0p+15", "-0x1.240d8ec9edf81p+16"),
              ("0x1.1167d4552cf30p+16", "-0x1.4da6a732d8fabp+16"),
              ("0x1.1748f12e2a01ap+17", "-0x1.a3504d7ca8169p+16")],
}


@pytest.mark.parametrize("fits", [True, False])
@pytest.mark.parametrize("name", sorted(CONFIG_BITS))
def test_config_sources_keep_their_frozen_bits(monkeypatch, name, fits):
    source = _config_source(name)
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", SEG_CHUNK)
    monkeypatch.setattr(pnt, "_fits_cache", lambda limit: fits)
    for workers in (1, 3):
        rep = psi_sum(source, SEG_X, checkpoints=SEG_CHECKPOINTS,
                      workers=workers)
        assert bits(rep.psi) == CONFIG_BITS[name], workers


def test_thm11_psi_is_exactly_real():
    # chi_0 conj(psi_0) is trivial and tau0 = 0, so every a(p^k) is the real
    # [E:Q][F:Q] or an exact 0
    source = _config_source("thm11")
    assert source.tau0 == 0
    assert not source.exponents[list(source.support)].any()
    rep = psi_sum(source, 10**6, checkpoints=pnt.default_checkpoints(10**6))
    assert [z.imag for z in rep.psi] == [0.0] * len(rep.psi)


AVX2_DISPATCH = "X86_V4 AVX512_ICL AVX512_SPR"


def test_report_bits_hold_under_the_avx2_dispatch():
    # np.log differs from the AVX-512 dispatch in the last bit of some
    # arguments; the frozen bits must hold on an AVX2-only machine too
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not umath.__cpu_features__.get("X86_V4"):
        pytest.skip("numpy does not dispatch to X86_V4 on this CPU")
    code = ("import sys, pytest\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "assert not __cpu_features__['X86_V4']\n"
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider',\n"
            f"                      '-k', 'frozen', {__file__!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               NPY_DISABLE_CPU_FEATURES=AVX2_DISPATCH)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert "9 passed" in done.stdout, done.stdout[-4000:]


@pytest.mark.parametrize("name", sorted(PATH_SOURCES))
def test_no_prime_dividing_the_modulus_reaches_coeff_at(monkeypatch, name):
    # the support alone keeps the ramified primes out at k = 1, the modulus
    # rule at k >= 2; mod31's support holds 2's class
    coeff_at = RsCoeffSource.coeff_at

    def guarded(self, p, k=1):
        ramified = p[self.modulus % p == 0]
        assert not ramified.size, (k, ramified.tolist())
        return coeff_at(self, p, k)

    monkeypatch.setattr(RsCoeffSource, "coeff_at", guarded)
    source = PATH_SOURCES[name]()
    with pytest.raises(AssertionError):
        source.coeff_at(np.array([3, source.modulus], dtype=np.int64), 2)
    for fits in (True, False):
        monkeypatch.setattr(pnt, "_fits_cache", lambda limit, f=fits: f)
        for workers in (1, 3):
            psi_sum(source, SEG_X, checkpoints=SEG_CHECKPOINTS,
                    workers=workers)


@pytest.mark.parametrize("support", [(1, 9, 21), (1, 5, 9), (-1, 9), ()])
def test_psi_sum_rejects_a_support_of_non_units(monkeypatch, support):
    # 21 lies past the modulus 20, -1 below it, and 5 is no unit mod 20:
    # the prime 5 would enter the k = 1 sum
    src = _config_source("thm11")

    class Proxy:
        modulus = src.modulus
        multiplicity = src.multiplicity
        tau0 = src.tau0
        coeff_at = staticmethod(src.coeff_at)

    Proxy.support = support
    monkeypatch.setattr(pnt, "PrimePowerStream",
                        lambda *args, **kw: pytest.fail("sieved"))
    for x in (10**5, 2 * 10**7):
        with pytest.raises(ValueError,
                           match="support must be unit residues mod 20"):
            psi_sum(Proxy(), x)


# psi bits of full-support sources, frozen from the sieve before class
# layouts: at 3e5 with checkpoints 12345 and 100002, 2 workers; mod7_twisted
# re-frozen once chi(r) = -1 became an exact -1 (`angle_to_complex`)
FULL_SUPPORT_BITS = {
    "trivial": [("0x1.80f2566bde708p+13", "0x0.0p+0"),
                ("0x1.86d39063fc4b0p+16", "0x0.0p+0"),
                ("0x1.24a2fc57b2ec8p+18", "0x0.0p+0")],
    "mod7_twisted": [("-0x1.3a030fdd29977p+5", "0x1.b23af969a41c6p+5"),
                     ("-0x1.061808bb2a563p+7", "0x1.c0986bdee0f1ep+6"),
                     ("0x1.d6bdbaf92e158p+2", "0x1.50425e246cf2fp+8")],
}


@pytest.mark.parametrize("fits", [True, False])
@pytest.mark.parametrize("name", sorted(FULL_SUPPORT_BITS))
def test_full_support_sources_keep_their_bits(monkeypatch, name, fits):
    source = (DirichletSource(trivial_char(1)) if name == "trivial" else
              DirichletSource(DirichletChar(unit_group(7), [1]), tau=0.25))
    monkeypatch.setattr(pnt, "_fits_cache", lambda limit: fits)
    # modulus 1 sieves the odd layout itself; mod 7's 6 lifts do not pay
    assert (pnt._sieve_classes(300_000, source.modulus, source.support)
            is None) == (fits or name != "trivial")
    for workers in (1, 2, 3):
        rep = psi_sum(source, 300_000, checkpoints=(12_345, 100_002),
                      workers=workers)
        assert bits(rep.psi) == FULL_SUPPORT_BITS[name]


def test_sieve_classes_rule():
    assert pnt._sieve_classes(10**7, 20, [1, 9]) is None  # the prime table
    assert pnt._sieve_classes(2 * 10**7, 20, [1, 9]) == (20, [1, 9])
    assert pnt._sieve_classes(2 * 10**7, 20, [1, 9, 13]) == (20, [1, 9, 13])
    assert pnt._sieve_classes(2 * 10**7, 20, [1, 3, 7, 9]) is None  # 32 > 20
    assert pnt._sieve_classes(2 * 10**7, 5, [1, 4]) == (5, [1, 4])  # 8 <= 10
    assert pnt._sieve_classes(2 * 10**7, 7, [1, 2, 4]) is None  # 18 > 14
    assert pnt._sieve_classes(2 * 10**7, 1, [0]) == (1, [0])  # odd layout


def test_span_keeps_the_mask_size_and_several_segments_per_worker():
    odd = PrimePowerStream(10**9)
    thm11 = PrimePowerStream(10**9, classes=(20, [1, 9]))
    assert pnt._span(odd, 1) == pnt._span(odd, 4) == pnt.SEGMENT
    # k' = 2 lifts mod 20: a 1.5 MB mask spans 1.5e7 integers
    assert pnt._span(thm11, 2) == 15_000_000
    # at 1e8 on 4 workers that would leave fewer than 4 segments each
    short = PrimePowerStream(10**8, classes=(20, [1, 9]))
    assert pnt._span(short, 4) == 10**8 // 16


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_default_segments_bit_identical_at_1e7(workers):
    # default chunk and SEGMENT: [1000001, 1000002) is a length-1 block
    # inside the first three-block segment
    source = _pair_source()
    checkpoints = default_checkpoints(10**7)
    expected = psi_per_block(source, 10**7, checkpoints)
    assert psi_sum(source, 10**7, workers=workers).psi == expected


# past the prime table; the checkpoint is off every block edge.  Tests that
# need forked processes here lower the pool's mask cut to 0.
FORK_X = 2 * 10**7
FORK_CHECKPOINTS = (12_345_678, FORK_X)


class CountingSource:
    """A source that counts the k = 1 `coeff_at` calls made in this process
    and can make those made in any other process raise."""

    def __init__(self, source, fail_in_child=False):
        self._source = source
        self._pid = os.getpid()
        self._fail_in_child = fail_in_child
        self.prime_calls = 0

    def __getattr__(self, name):
        return getattr(self._source, name)

    def coeff_at(self, p, k=1):
        if os.getpid() != self._pid:
            if self._fail_in_child:
                raise ValueError("coeff_at failed in a child")
        elif k == 1:
            self.prime_calls += 1
        return self._source.coeff_at(p, k)


@pytest.mark.parametrize("name", ["thm11", "dihedral"])
def test_uncached_trace_bits_on_processes(name, monkeypatch):
    monkeypatch.setattr(pnt, "_POOL_MASK_BYTES", 0)
    source = _config_source(name)
    expected = bits(psi_per_block(source, FORK_X, FORK_CHECKPOINTS))
    for workers in (1, 2, 3):
        counted = CountingSource(source)
        rep = psi_sum(counted, FORK_X, checkpoints=FORK_CHECKPOINTS,
                      workers=workers)
        assert bits(rep.psi) == expected, workers
        # one worker sums in this process, more sum none of the primes here
        assert (counted.prime_calls > 0) == (workers == 1), workers
        assert multiprocessing.active_children() == []


def test_cached_trace_stays_in_this_process():
    source = _config_source("thm11")
    assert PrimePowerStream(10**7).cached
    counted = CountingSource(source, fail_in_child=True)
    psi_sum(counted, 10**7, workers=2)
    assert counted.prime_calls > 0


def test_cached_trace_starts_no_thread_or_process(monkeypatch):
    refuse_to_start(monkeypatch)
    source = _config_source("thm11")
    want = bits(psi_sum(source, 10**7, workers=1).psi)
    assert bits(psi_sum(source, 10**7, workers=2).psi) == want
    monkeypatch.setenv("BCLAB_THREADS", "2")
    assert bits(psi_sum(source, 10**7).psi) == want
    monkeypatch.setenv("BCLAB_THREADS", "two")
    with pytest.raises(ValueError, match="BCLAB_THREADS"):
        psi_sum(source, 10**7)


def refuse_to_start(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.start called")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def test_trace_just_past_the_table_starts_no_thread_or_process(monkeypatch):
    # 2e7 is past the table, and its mask (x k' / M' bytes) is short of the
    # pool's cut for thm11 (0.1 byte per integer) and the odd layout (0.5)
    assert not PrimePowerStream(FORK_X).cached
    quadratic = trivial_over(make_field(13, [4]))  # 6 classes mod 13: odd
    sources = [_config_source("thm11"), RsCoeffSource(quadratic, quadratic)]
    assert pnt._sieve_classes(FORK_X, 13, sorted(sources[1].support)) is None
    want = [bits(psi_sum(s, FORK_X, workers=1).psi) for s in sources]
    refuse_to_start(monkeypatch)
    assert [bits(psi_sum(s, FORK_X, workers=2).psi) for s in sources] == want


def test_trace_forks_from_the_mask_cut():
    # dihedral sieves 2 of the 10 residues mod 10: its mask reaches the cut
    # at x = 5 * _POOL_MASK_BYTES, and only from there do children sum
    source = _config_source("dihedral")
    cut = 5 * pnt._POOL_MASK_BYTES
    classes = pnt._sieve_classes(cut, source.modulus, sorted(source.support))
    assert pnt._layout(classes) == (10, (1, 9))
    below, at = CountingSource(source), CountingSource(source)
    psi_sum(below, cut - 1, workers=2)
    psi_sum(at, cut, workers=2)
    assert below.prime_calls > 0 and at.prime_calls == 0
    assert multiprocessing.active_children() == []


def test_failure_in_a_child_reaches_the_caller_and_leaves_no_process(
        monkeypatch):
    monkeypatch.setattr(pnt, "_POOL_MASK_BYTES", 0)
    source = CountingSource(_config_source("thm11"), fail_in_child=True)
    with pytest.raises(ValueError, match="failed in a child"):
        psi_sum(source, FORK_X, workers=2)
    assert multiprocessing.active_children() == []


def test_concurrent_uncached_traces_from_threads(monkeypatch):
    monkeypatch.setattr(pnt, "_POOL_MASK_BYTES", 0)
    sources = [_config_source(name) for name in ("thm11", "dihedral")]
    serial = [bits(psi_sum(s, FORK_X, checkpoints=FORK_CHECKPOINTS,
                           workers=1).psi) for s in sources]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(psi_sum, s, FORK_X, FORK_CHECKPOINTS, 2)
                   for s in sources]
        got = [bits(f.result(timeout=120).psi) for f in futures]
    assert got == serial
    assert multiprocessing.active_children() == []


def test_higher_powers_fold_into_the_block_they_open():
    # a checkpoint at p^k - 1 makes p^k the first integer of the next block;
    # 2 and 5 are excluded for this pair, 3, 7, 11 and 13 are not
    source = _pair_source()
    checkpoints = (728, 2400, 6560, 14640, 16806, 28560, 10**5)
    assert psi_sum(source, 10**5, checkpoints=checkpoints).psi == \
        psi_per_block(source, 10**5, checkpoints)


@pytest.mark.parametrize("spec_e,spec_f", [
    ((5, [4]), (4, [])),
    ((7, [6]), (5, [])),
    ((60, [7, 11]), (4, [])),
    ((59, [4]), (7, [6])),
])
def test_linearity_against_per_character_sums(spec_e, spec_f):
    # psi for the product equals the sum of per-factor character psi values
    e, f = make_field(*spec_e), make_field(*spec_f)
    pi, pip = trivial_over(e), trivial_over(f)
    src = RsCoeffSource(pi, pip)
    x = 30_000
    combined = psi_sum(src, x, checkpoints=[x]).psi[-1]
    total = 0j
    for chi, _ in bc_fiber(pi):
        for psi_char, _ in bc_fiber(pip):
            factor = chi * psi_char.conjugate()
            part = psi_sum(DirichletSource(factor, modulus=src.modulus,
                                           multiplicity=0),
                           x, checkpoints=[x])
            total += part.psi[-1]
    assert abs(combined - total) < 1e-7


def test_self_pair_real_and_nondecreasing():
    pi = base_change(DirichletChar(unit_group(5), [1]), make_field(5, [4]))
    src = RsCoeffSource(pi, pi)
    rep = psi_sum(src, 100_000, checkpoints=[100, 1000, 10_000, 100_000])
    values = [z.real for z in rep.psi]
    assert all(abs(z.imag) < 1e-9 for z in rep.psi)
    assert values == sorted(values)


def test_checkpoint_prefix_consistency(monkeypatch):
    # psi at an interior checkpoint agrees with a run stopped there
    e, f = make_field(5, [4]), make_field(4, [])
    src = RsCoeffSource(trivial_over(e), trivial_over(f))
    monkeypatch.setattr(pnt, "DEFAULT_CHUNK", 7_000)
    long = psi_sum(src, 80_000, checkpoints=[20_000, 80_000])
    short = psi_sum(src, 20_000, checkpoints=[20_000])
    assert abs(long.psi[0] - short.psi[0]) < 1e-9


# ------------------------------------------------------------------ main term

def test_predicted_main_term_values():
    assert predicted_main_term(1, 0.0, 1e6) == 1e6
    assert predicted_main_term(2, 0.0, 1e6) == 2e6
    assert predicted_main_term(0, None, 1e6) == 0
    val = predicted_main_term(1, 0.5, 1e6)
    assert abs(abs(val) - 1e6 / math.sqrt(1.25)) < 1e-3


def test_predicted_main_term_rejects_negative():
    with pytest.raises(ValueError):
        predicted_main_term(-1, 0.0, 100.0)


def test_decay_check_on_classical_psi():
    src = DirichletSource(trivial_char(1))
    rep = psi_sum(src, 1_000_000, checkpoints=[1_000, 10_000, 100_000,
                                               1_000_000])
    assert decay_check(rep)


def test_decay_check_fails_for_wrong_multiplicity():
    # constant coefficients but a claimed empty pole set: psi ~ x never decays
    src = DirichletSource(trivial_char(1), multiplicity=0)
    rep = psi_sum(src, 1_000_000, checkpoints=[1_000, 10_000, 100_000,
                                               1_000_000])
    assert not decay_check(rep)


def test_decay_check_on_double_pole_pair():
    pi = base_change(DirichletChar(unit_group(5), [1]), make_field(5, [4]))
    rep = psi_sum(RsCoeffSource(pi, pi), 1_000_000,
                  checkpoints=[1_000, 10_000, 100_000, 1_000_000])
    assert rep.multiplicity == 2
    assert decay_check(rep)


def test_decay_check_needs_enough_checkpoints():
    src = DirichletSource(trivial_char(1))
    rep = psi_sum(src, 10_000, checkpoints=[5_000, 10_000])
    with pytest.raises(ValueError, match="checkpoints"):
        decay_check(rep)


def test_report_relative_errors_consistent():
    src = DirichletSource(trivial_char(1))
    rep = psi_sum(src, 100_000)
    for x, p, q, e in zip(rep.checkpoints, rep.psi, rep.predicted,
                          rep.rel_error):
        assert e == abs(p - q) / x


def test_dirichlet_source_nontrivial_character():
    chi = DirichletChar(unit_group(5), [2])  # the quadratic character
    src = DirichletSource(chi)
    rep = psi_sum(src, 100_000, checkpoints=[100_000])

    def coeff(p, k):
        if p == 5:
            return 0
        return 1 if pow(p, k, 5) in (1, 4) else -1

    assert abs(rep.psi[-1] - brute_psi(100_000, coeff)) < 1e-8
    assert abs(rep.psi[-1]) / 100_000 < 0.05
