import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bclab.characters import DirichletChar, trivial_char, unit_group
from bclab.fields import make_field
from bclab.automorphic import base_change, trivial_over
from bclab.rankin_selberg import RsCoeffSource, rs_coefficients
from bclab.pnt import (
    DirichletSource,
    PrimePowerStream,
    _resolve_workers,
    decay_check,
    default_checkpoints,
    predicted_main_term,
    psi_sum,
    sieve_primes,
    source_from_series,
)


def is_prime_slow(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


# -------------------------------------------------------------------- streams

def test_sieve_against_trial_division():
    got = list(sieve_primes(500))
    assert got == [p for p in range(2, 501) if is_prime_slow(p)]


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
    ref = sieve_primes(hi - 1)
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
    assert np.concatenate(blocks).tolist() == sieve_primes(limit).tolist()


def test_primes_in_rejects_window_past_limit():
    # base primes stop at isqrt(limit), so 17^2 = 289 would pass as prime
    with pytest.raises(ValueError, match="past limit"):
        PrimePowerStream(100).primes_in(250, 300)
    assert PrimePowerStream(100).primes_in(90, 101).tolist() == [97]


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
        excluded_primes = src.excluded_primes
        multiplicity = src.multiplicity
        tau0 = src.tau0

        def coeff_at(self, p, k=1):
            return src.coeff_at(p, k)

    rep3 = psi_sum(Proxy(), 100_000)
    assert rep3.psi == rep1.psi


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
    for chi, _ in src.pair_set.fiber_left:
        for psi_char, _ in src.pair_set.fiber_right:
            factor = chi * psi_char.conjugate()
            part = psi_sum(DirichletSource(factor,
                                           extra_excluded=src.excluded_primes),
                           x, checkpoints=[x], multiplicity=0)
            total += part.psi[-1]
    assert abs(combined - total) < 1e-7


def test_self_pair_real_and_nondecreasing():
    pi = base_change(DirichletChar(unit_group(5), [1]), make_field(5, [4]))
    src = RsCoeffSource(pi, pi)
    rep = psi_sum(src, 100_000, checkpoints=[100, 1000, 10_000, 100_000])
    values = [z.real for z in rep.psi]
    assert all(abs(z.imag) < 1e-9 for z in rep.psi)
    assert values == sorted(values)


def test_checkpoint_prefix_consistency():
    # psi at an interior checkpoint agrees with a run stopped there
    e, f = make_field(5, [4]), make_field(4, [])
    src = RsCoeffSource(trivial_over(e), trivial_over(f))
    long = psi_sum(src, 80_000, checkpoints=[20_000, 80_000], chunk=7_000)
    short = psi_sum(src, 20_000, checkpoints=[20_000], chunk=7_000)
    assert abs(long.psi[0] - short.psi[0]) < 1e-9


def test_map_source_adapter():
    e, f = make_field(5, [4]), make_field(4, [])
    series = rs_coefficients(trivial_over(e), trivial_over(f), 10_000)
    src = source_from_series(series)
    direct = RsCoeffSource(trivial_over(e), trivial_over(f))
    rep_a = psi_sum(src, 10_000, checkpoints=[10_000])
    rep_b = psi_sum(direct, 10_000, checkpoints=[10_000])
    assert abs(rep_a.psi[-1] - rep_b.psi[-1]) < 1e-9


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


def test_psi_accepts_series_table_directly():
    e, f = make_field(5, [4]), make_field(4, [])
    series = rs_coefficients(trivial_over(e), trivial_over(f), 10_000)
    rep = psi_sum(series, 10_000, checkpoints=[10_000])
    direct = psi_sum(RsCoeffSource(trivial_over(e), trivial_over(f)),
                     10_000, checkpoints=[10_000])
    assert rep.multiplicity == 1
    assert abs(rep.psi[-1] - direct.psi[-1]) < 1e-9


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
