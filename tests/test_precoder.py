"""Precoder construction, normalisation, and the gain against its closed form."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from thztrack import (
    AngularInterval,
    ArrayConfig,
    adaptive_precoder,
    bf_gain_profile,
    mrt_precoder,
    pso_bounds,
    response_matrix,
    sample_fn,
)
from thztrack.precoder import PROFILE_BLOCK_ENTRIES, TAPER_DIRECT, Precoder, beam_gain, taper, taper_table
from conftest import CARRIER_HZ, check_rejections, table_tests
from gain_reference import (
    array_response,
    bf_gain_closed_form,
    bf_gain_direct,
    bf_gain_profile_outer,
    g_coeff,
    taper_subtract_form,
)

CFG128 = ArrayConfig(128, CARRIER_HZ)


def random_interval(rng, max_delta=0.3):
    delta = rng.uniform(0.0, max_delta)
    theta = rng.uniform(-(1.0 - delta) * 0.99, (1.0 - delta) * 0.99)
    return AngularInterval(theta, delta)


def test_sample_fn_values():
    assert sample_fn(0.0) == 1.0
    assert sample_fn(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert sample_fn(math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    x = np.linspace(-10, 10, 101)
    assert np.allclose(sample_fn(x), sample_fn(-x))
    # full relative accuracy near 0, where sin(x)/x = 1 - x^2/6 + x^4/120
    tiny = np.array([1e-9, 1e-5, 1e-3])
    assert np.allclose(sample_fn(tiny), 1.0 - tiny**2 / 6.0 + tiny**4 / 120.0, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n_antennas", [16, 33, 128])
def test_taper_against_mpmath(n_antennas):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n_antennas)
    lo, hi = pso_bounds(ArrayConfig(n_antennas, CARRIER_HZ))
    grid_points = list(math.pi * np.arange(n_antennas))  # omega = pi * n zeroes one argument
    fixed = [0.0, lo, hi, (n_antennas - 1) * math.pi] + grid_points[:: max(1, n_antennas // 8)]
    cases = [(0.0, [0.0, hi, 17.3])]
    cases += [(float(d), fixed + list(rng.uniform(lo, hi, 24))) for d in (0.002, 0.084, 0.3)]
    cases += [(float(rng.uniform(0.0, 0.5)), list(rng.uniform(0.0, 2.0 * hi, 24))) for _ in range(2)]
    near_sides = set()
    with mpmath.workdps(40):
        for delta, omegas in cases:
            table = taper_table(delta, n_antennas)
            b = table[0][0]
            args = [delta * w for w in omegas]
            # one ulp either side of the branch point, around b_0 = 0 and an interior b_n
            for b_n in (b[0], b[n_antennas // 2]):
                edge = b_n + TAPER_DIRECT
                args += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
            a = np.array(args)
            # with the table (difference form) and Sa directly, as adaptive_precoder takes it
            for got in (taper(a, *table), sample_fn(a[:, None] - b)):
                for a_k, row in zip(a, got):
                    for b_n, g in zip(b, row):
                        x = mpmath.mpf(float(a_k)) - mpmath.mpf(float(b_n))
                        expected = mpmath.sin(x) / x if x != 0 else mpmath.mpf(1)
                        assert abs(g - float(expected)) <= 1e-15, (delta, a_k, b_n)
                        if abs(x - TAPER_DIRECT) < 1e-12:
                            near_sides.add(bool(x < TAPER_DIRECT))
    assert near_sides == {True, False}


@pytest.mark.parametrize("n_antennas", [3, 128])
def test_taper_near_entries_are_sample_fn_bits(n_antennas):
    # the near gather of a batch writes sample_fn's own bits
    rng = np.random.default_rng(n_antennas)
    lo, hi = pso_bounds(ArrayConfig(n_antennas, CARRIER_HZ))
    deltas = np.array([0.0, 0.002, 0.084, 0.3])
    # omega = n pi puts a - b_n at exactly 0 on antenna n, for n = 0, 1, 2
    omegas = np.array([[*(math.pi * np.arange(3)), lo, hi, *rng.uniform(lo, hi, 5)] for _ in deltas])
    b, rot = taper_table(deltas[:, None], n_antennas)
    b, rot = b[:, 0], rot[:, 0]  # deltas x 1 x N and deltas x 2 x N
    a = deltas[:, None] * omegas
    x = a[..., None] - b
    near = np.abs(x) < TAPER_DIRECT
    assert np.all(near[0])  # delta = 0: x = 0 at every antenna
    assert np.all(x[:, [0, 1, 2], [0, 1, 2]] == 0.0)
    got = taper(a, b, rot)
    assert np.array_equal(got[near], sample_fn(x[near]))
    assert np.all(got[0] == 1.0)


def test_sample_fn_is_sin_over_x_and_one_at_zero():
    rng = np.random.default_rng(24)
    x = np.concatenate([rng.normal(0.0, 10.0, 4000), rng.uniform(-1e-6, 1e-6, 100), [1e-300, -5e-324]])
    assert np.array_equal(sample_fn(x).view(np.int64), (np.sin(x) / x).view(np.int64))
    assert np.all(sample_fn(np.array([0.0, -0.0, 0.0])) == 1.0)
    zero = sample_fn(0.0)
    assert zero.shape == () and zero == 1.0 and sample_fn(-0.0) == 1.0
    assert np.all(sample_fn(np.zeros((3, 128))) == 1.0)  # an MRT beam's taper


@pytest.mark.parametrize("n_antennas", [3, 128])
def test_taper_bits_match_the_subtract_form(n_antennas):
    # x = a - b_n as a K = 2 product gives every entry the bits of the subtraction
    rng = np.random.default_rng(n_antennas)
    lo, hi = pso_bounds(ArrayConfig(n_antennas, CARRIER_HZ))
    deltas = np.array([0.0, 0.002, 0.084, 0.3])
    grid = math.pi * np.arange(n_antennas)[:: max(1, n_antennas // 16)]  # a - b_n exactly 0
    omegas = np.concatenate([[lo, hi], grid, rng.uniform(lo, hi, 40 - 2 - len(grid))])
    # the objective's layout: deltas x [a, mirrored a] x omegas against a half-size table
    b, rot = taper_table(deltas[:, None], n_antennas)
    a = np.empty((len(deltas), 2, len(omegas)))
    a[:, 0] = deltas[:, None] * omegas
    a[:, 1] = deltas[:, None] * (math.pi * (2 * n_antennas - 1)) - a[:, 0]
    assert np.any(np.subtract(a[1:, ..., None], b[1:]) == 0.0)  # at delta > 0 too
    for width in (1, 2, 3, 4, 5, 40):
        cols = rng.choice(len(omegas), width, replace=False) if width < 40 else slice(None)
        part = np.ascontiguousarray(a[:, :, cols])
        got, expected = taper(part, b, rot), taper_subtract_form(part, b, rot)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), width


def test_g_coeff_values():
    assert g_coeff(5, 1.23, 0.0) == 1.0
    assert g_coeff(3, 2.0 * math.pi, 0.7) == 1.0  # omega on the antenna grid point
    assert g_coeff(1, math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)


def _beta(omega: float, delta: float, n: int) -> float:
    return adaptive_precoder(AngularInterval(0.0, delta), omega, ArrayConfig(n, CARRIER_HZ)).beta


def test_beta_flat_taper():
    for n in (2, 16, 128):
        assert _beta(3.0, 0.0, n) == pytest.approx(1.0 / math.sqrt(n), rel=1e-12)


def test_beta_two_antennas_null_second_term():
    assert _beta(0.0, 1.0, 2) == pytest.approx(1.0, rel=1e-12)


def test_beta_against_direct_summation():
    # brute-force oracle with scalar math
    n_t, omega, delta = 128, 63.5 * math.pi, 0.05
    total = 0.0
    for n in range(1, n_t + 1):
        x = delta * (omega - (n - 1) * math.pi)
        total += (math.sin(x) / x) ** 2 if x != 0.0 else 1.0
    assert _beta(omega, delta, n_t) == pytest.approx(1.0 / math.sqrt(total), rel=1e-12)


def test_adaptive_collapses_to_mrt_at_zero_width():
    for s in (-0.4, 0.0, 0.25, 0.37):
        mrt = mrt_precoder(s, CFG128)
        for omega in (0.0, 17.3, 127 * math.pi):
            adaptive = adaptive_precoder(AngularInterval(s, 0.0), omega, CFG128)
            assert np.array_equal(adaptive.weights, mrt.weights)
        assert mrt.beta == 1.0 / math.sqrt(128.0)


def _general_zero_width_weights(theta, omega, n_antennas):
    """The delta = 0 weights by the general formula, taper and its sum of squares included."""
    n = np.arange(n_antennas)
    g = sample_fn(0.0 * omega - 0.0 * (np.pi * n))
    beta = 1.0 / np.sqrt(float(np.dot(g, g)))
    return beta * np.exp(-1j * np.pi * theta * n) * g


@pytest.mark.parametrize("n_antennas", [2, 3, 127, 128])
def test_zero_width_skips_the_taper_without_moving_a_bit(n_antennas):
    cfg = ArrayConfig(n_antennas, CARRIER_HZ)
    thetas = [0.0, -0.0, *np.random.default_rng(n_antennas).uniform(-0.999, 0.999, 60)]
    for theta in thetas:
        for omega in (0.0, 17.3, (n_antennas - 1) * math.pi):
            beam = adaptive_precoder(AngularInterval(float(theta), 0.0), omega, cfg)
            expected = _general_zero_width_weights(theta, omega, n_antennas)
            assert beam.weights.tobytes() == expected.tobytes()
            assert beam.beta == 1.0 / math.sqrt(n_antennas)


def test_adaptive_converges_to_mrt_as_width_vanishes():
    adaptive = adaptive_precoder(AngularInterval(0.1, 1e-9), 40.0, CFG128)
    mrt = mrt_precoder(0.1, CFG128)
    assert np.allclose(adaptive.weights, mrt.weights, atol=1e-7)


def test_adaptive_zero_centre_is_real():
    p = adaptive_precoder(AngularInterval(0.0, 0.05), 30.0, CFG128)
    assert np.allclose(p.weights.imag, 0.0, atol=1e-12)


def test_adaptive_unit_power_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 129))
        cfg = ArrayConfig(n, CARRIER_HZ)
        interval = random_interval(rng)
        omega = rng.uniform(0.0, (n - 1) * math.pi)
        p = adaptive_precoder(interval, omega, cfg)
        assert abs(np.sum(np.abs(p.weights) ** 2) - 1.0) < 1e-9


def test_adaptive_main_lobe_covers_interval():
    interval = AngularInterval(0.15, 0.0253)
    p = adaptive_precoder(interval, 30.0, CFG128)
    edges = np.array([interval.lo, interval.hi])
    in_beam = bf_gain_profile(edges, p, CFG128)
    out_beam = bf_gain_profile(np.array([interval.lo - 0.05, interval.hi + 0.05]), p, CFG128)
    assert np.all(in_beam > 4.0 * out_beam)


def test_mrt_uniform_and_peak_gain():
    mrt = mrt_precoder(0.0, CFG128)
    assert np.allclose(mrt.weights, np.full(128, 1.0 / math.sqrt(128.0)), atol=1e-12)
    assert bf_gain_direct(0.0, mrt, CFG128) == pytest.approx(128.0, rel=1e-12)


def test_mrt_first_null():
    mrt = mrt_precoder(0.2, CFG128)
    assert bf_gain_direct(0.2 + 2.0 / 128.0, mrt, CFG128) == pytest.approx(0.0, abs=1e-9)


def test_gain_direct_range_and_orthogonal_nulls():
    mrt = mrt_precoder(0.0, CFG128)
    for k in (1, 2, 5, 20):
        assert bf_gain_direct(2.0 * k / 128.0, mrt, CFG128) == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(200):
        g = bf_gain_direct(rng.uniform(-1, 1), mrt, CFG128)
        assert -1e-9 <= g <= 128.0 + 1e-9


def test_closed_form_coherent_peak():
    interval = AngularInterval(0.1, 0.0)
    assert bf_gain_closed_form(0.1, interval, 5.0, CFG128) == pytest.approx(128.0, rel=1e-12)


def test_closed_form_two_antennas_hand_expansion():
    # |f1 + f2 e^{j pi s}|^2 expanded symbolically for N = 2
    cfg = ArrayConfig(2, CARRIER_HZ)
    rng = np.random.default_rng(7)
    for _ in range(100):
        interval = random_interval(rng, max_delta=0.4)
        omega = rng.uniform(0.0, math.pi)
        s = rng.uniform(-1.0, 1.0)
        p = adaptive_precoder(interval, omega, cfg)
        f1, f2 = p.weights
        expected = abs(f1 + f2 * np.exp(1j * math.pi * s)) ** 2
        got = bf_gain_closed_form(s, interval, omega, cfg)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_closed_form_matches_direct_fuzz():
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.choice([2, 4, 8, 16, 64, 128]))
        cfg = ArrayConfig(n, CARRIER_HZ)
        interval = random_interval(rng)
        omega = rng.uniform(0.0, (n - 1) * math.pi)
        s = rng.uniform(-1.0, 1.0)
        direct = bf_gain_direct(s, adaptive_precoder(interval, omega, cfg), cfg)
        closed = bf_gain_closed_form(s, interval, omega, cfg)
        assert abs(direct - closed) <= 1e-8 * (1.0 + direct)


def test_gain_symmetry_about_half_domain():
    rng = np.random.default_rng(41)
    for n in (2, 4, 8, 128):
        cfg = ArrayConfig(n, CARRIER_HZ)
        axis = (n - 1) * math.pi / 2.0
        for _ in range(30):
            interval = random_interval(rng, max_delta=0.2)
            omega = rng.uniform(0.0, 2.0 * axis)
            s = rng.uniform(-1.0, 1.0)
            g1 = bf_gain_closed_form(s, interval, omega, cfg)
            g2 = bf_gain_closed_form(s, interval, 2.0 * axis - omega, cfg)
            assert abs(g1 - g2) <= 1e-8 * (1.0 + abs(g1))


def test_gain_profile_matches_pointwise():
    rng = np.random.default_rng(51)
    interval = random_interval(rng, max_delta=0.1)
    p = adaptive_precoder(interval, 22.0, CFG128)
    dirs = rng.uniform(-1, 1, 32)
    profile = bf_gain_profile(dirs, p, CFG128)
    for s, g in zip(dirs, profile):
        assert g == pytest.approx(bf_gain_direct(float(s), p, CFG128), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("n_antennas", [2, 16, 33, 128])
def test_gain_profile_matches_outer_product_reference(n_antennas):
    cfg = ArrayConfig(n_antennas, CARRIER_HZ)
    rng = np.random.default_rng(n_antennas)
    interval = AngularInterval(0.3, 0.1)
    full = (n_antennas - 1) * math.pi
    edge = 1.0 - 2.0**-20  # MRT centres lie in (-1, 1), as every beam's do
    beams = [mrt_precoder(s, cfg) for s in (-edge, 0.0, 0.3, edge)]
    beams += [adaptive_precoder(interval, w, cfg) for w in (0.0, full / 2.0, full, rng.uniform(0.0, full))]
    for beam in beams:
        # MRT nulls of this beam: sines 2k/N away from its centre
        nulls = beam.theta_m + 2.0 * np.arange(-n_antennas, n_antennas + 1) / n_antennas
        dirs = np.concatenate(
            [[-1.0, 0.0, 1.0, interval.lo, interval.hi], nulls[np.abs(nulls) <= 1.0], rng.uniform(-1, 1, 64)]
        )
        got = bf_gain_profile(dirs, beam, cfg)
        assert np.allclose(got, bf_gain_profile_outer(dirs, beam, cfg), rtol=0.0, atol=1e-12 * n_antennas)


def test_gain_profile_blocks_keep_the_one_call_bits(monkeypatch):
    cfg, dirs = ArrayConfig(1001, CARRIER_HZ), np.linspace(-1.0, 1.0, 301)
    beam = adaptive_precoder(AngularInterval(0.04, 0.04), 150.0, cfg)
    one_call = beam_gain(response_matrix(dirs, cfg), beam)
    for entries in (1, 7 * 1001, 256 * 1001):  # a block of one row at the least
        monkeypatch.setattr("thztrack.precoder.PROFILE_BLOCK_ENTRIES", entries)
        assert np.array_equal(bf_gain_profile(dirs, beam, cfg), one_call)


def test_gain_profile_memory_stays_within_two_blocks():
    # the one-call 2001 x 16384 response matrix would take 525 MB
    cfg = ArrayConfig(16384, CARRIER_HZ)
    tracemalloc.start()
    try:
        bf_gain_profile(np.linspace(-1.0, 1.0, 2001), mrt_precoder(0.3, cfg), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * PROFILE_BLOCK_ENTRIES * 16  # bytes of complex entries


def test_integral_definition_oracle_small():
    # numerical integration of the defining integral over the covered interval
    rng = np.random.default_rng(77)
    n_nodes = 10_001
    for _ in range(3):
        n = int(rng.choice([8, 32, 128]))
        cfg = ArrayConfig(n, CARRIER_HZ)
        delta = rng.uniform(0.01, 0.25)
        theta = rng.uniform(-0.5, 0.5)
        omega = rng.uniform(0.0, (n - 1) * math.pi)
        interval = AngularInterval(theta, delta)
        p_grid = np.linspace(-delta, delta, n_nodes)
        beta = adaptive_precoder(interval, omega, cfg).beta
        idx = np.arange(n)[:, None]
        integrand = np.exp(-1j * math.pi * idx * (p_grid[None, :] + theta)) * np.exp(
            1j * omega * p_grid[None, :]
        )
        numeric = beta / (2.0 * delta) * np.trapezoid(integrand, p_grid, axis=1)
        closed = adaptive_precoder(interval, omega, cfg).weights
        assert np.max(np.abs(numeric - closed)) < 1e-6


def test_weights_reproduce_generator_formula():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 65))
        cfg = ArrayConfig(n, CARRIER_HZ)
        interval = random_interval(rng)
        omega = rng.uniform(0.0, (n - 1) * math.pi)
        p = adaptive_precoder(interval, omega, cfg)
        idx = np.arange(n)
        rebuilt = (
            p.beta
            * np.exp(-1j * math.pi * interval.theta_m * idx)
            * np.asarray(sample_fn(interval.delta * (omega - idx * math.pi)))
        )
        assert np.max(np.abs(rebuilt - p.weights)) < 1e-12


def test_array_response_consistency_with_mrt():
    s = 0.37
    mrt = mrt_precoder(s, CFG128)
    assert np.allclose(mrt.weights * math.sqrt(128.0), array_response(s, CFG128), atol=1e-12)


def test_precoder_parameters_reconstruct_weights():
    p = adaptive_precoder(AngularInterval(0.2, 0.04), 55.0, CFG128)
    rebuilt = adaptive_precoder(AngularInterval(p.theta_m, p.delta), p.omega, CFG128)
    assert rebuilt.beta == p.beta
    assert np.array_equal(rebuilt.weights, p.weights)


_CFG16 = ArrayConfig(16, CARRIER_HZ)
# NaN weights have NaN power, which no tolerance comparison may let through
_NAN_POWER = "ValueError: precoder power nan violates the unit constraint"
_REJECTIONS = {
    "test_zero_width_rejects_a_non_finite_omega": {
        repr(omega): (lambda w=omega: adaptive_precoder(AngularInterval(0.1, 0.0), w, CFG128),
                      f"ValueError: shape parameter omega must be finite, got {omega!r}")
        for omega in (math.nan, math.inf, -math.inf)
    },
    # the interval rejects it first; past the interval's check, the unit-power check does
    "test_zero_width_rejects_a_nan_centre": [
        (lambda: mrt_precoder(math.nan, CFG128), "ValueError: interval parameters must be finite"),
        (lambda: adaptive_precoder(SimpleNamespace(theta_m=math.nan, delta=0.0), 0.0, CFG128),
         _NAN_POWER),
    ],
    "test_precoder_rejects_non_finite_weights": {  # and unit power passes
        repr(bad): [(lambda w=weight: Precoder(np.array([0.5, 0.5, w, 0.5], complex), 0, 0, 0, 0.5),
                     line) for weight, line in [(bad, _NAN_POWER), (0.5, None)]]
        for bad in (math.nan, math.inf)
    },
    "test_adaptive_rejects_nan_omega": (
        lambda: adaptive_precoder(AngularInterval(0.1, 0.02), math.nan, CFG128), _NAN_POWER
    ),
    # at delta * omega = 5e159 each taper entry is at most 1 / x, so the squares sum below 1e-300
    "test_adaptive_rejects_degenerate_taper": (
        lambda: adaptive_precoder(AngularInterval(0.0, 0.5), 1e160, _CFG16),
        "ValueError: taper coefficients sum to zero; degenerate parameters"),
    "test_gain_direct_rejects_length_mismatch": (
        lambda: bf_gain_direct(0.0, mrt_precoder(0.0, _CFG16), CFG128),
        "ValueError: precoder length 16 does not match 128 antennas"),
    "test_gain_profile_rejects_length_mismatch": (
        lambda: bf_gain_profile(np.array([0.0, 0.1]), mrt_precoder(0.0, _CFG16), CFG128),
        "ValueError: precoder length does not match the antenna count"),
}
globals().update(table_tests(_REJECTIONS, check_rejections))
