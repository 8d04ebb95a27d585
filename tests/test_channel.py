"""ULA response, Fraunhofer range, channel gain, and achievable rate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from thztrack import (
    ArrayConfig,
    FarFieldWarning,
    LinkBudget,
    achievable_rate,
    channel_gain,
    dbm_to_watt,
    fraunhofer_distance,
    response_matrix,
)
from conftest import CARRIER_HZ, aligned_rate, check_rejections, make_budget, table_tests
from gain_reference import array_response

C = 299_792_458.0


def test_array_response_broadside_is_ones():
    cfg = ArrayConfig(8, CARRIER_HZ)
    assert np.allclose(response_matrix([0.0], cfg)[0], np.ones(8))


def test_array_response_endfire_alternates():
    cfg = ArrayConfig(4, CARRIER_HZ)
    assert np.allclose(response_matrix([1.0], cfg)[0], [1, -1, 1, -1], atol=1e-12)


def test_array_response_half_sine():
    # phase steps of -pi/2: [1, -j, -1]
    cfg = ArrayConfig(3, CARRIER_HZ)
    assert np.allclose(response_matrix([0.5], cfg)[0], [1.0, -1.0j, -1.0], atol=1e-12)


def test_response_matrix_rows_are_array_responses():
    cfg = ArrayConfig(33, CARRIER_HZ)
    dirs = np.array([-1.0, -0.37, 0.0, 0.5, 1.0])
    rows = response_matrix(dirs, cfg)
    assert rows.shape == (len(dirs), cfg.n_antennas)
    assert np.all(rows[:, 0] == 1.0)
    for s, row in zip(dirs, rows):
        assert np.allclose(row, array_response(float(s), cfg), rtol=0.0, atol=1e-13)


def test_array_response_norm_and_conjugate():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 129))
        cfg = ArrayConfig(n, CARRIER_HZ)
        s = rng.uniform(-1, 1)
        a, a_mirror = response_matrix([s, -s], cfg)
        assert abs(np.vdot(a, a)) == pytest.approx(n, rel=1e-12)
        assert np.allclose(a_mirror, np.conj(a), atol=1e-12)


def test_fraunhofer_small_arrays():
    cfg = ArrayConfig(2, CARRIER_HZ)
    assert fraunhofer_distance(cfg) == pytest.approx(cfg.wavelength / 2.0, rel=1e-12)
    cfg3 = ArrayConfig(3, 2.0 * C)  # wavelength exactly 0.5 m
    assert fraunhofer_distance(cfg3) == pytest.approx(4.0 * 0.5 / 2.0, rel=1e-12)


def test_fraunhofer_reference_array_below_link_distance():
    cfg = ArrayConfig(128, CARRIER_HZ)
    d = fraunhofer_distance(cfg)
    assert d == pytest.approx(11.0, abs=0.05)
    assert d < 100.0


def test_channel_gain_normalised_distance():
    cfg = ArrayConfig(8, CARRIER_HZ)
    budget = make_budget()
    d0 = C / (4.0 * math.pi * CARRIER_HZ)
    with pytest.warns(FarFieldWarning):
        assert channel_gain(d0, budget, cfg) == pytest.approx(1.0, rel=1e-12)


def test_channel_gain_inverse_distance_law():
    cfg = ArrayConfig(4, CARRIER_HZ)
    budget = make_budget()
    assert channel_gain(200.0, budget, cfg) == pytest.approx(
        channel_gain(100.0, budget, cfg) / 2.0, rel=1e-12
    )


def test_channel_gain_reference_value():
    cfg = ArrayConfig(128, CARRIER_HZ)
    assert channel_gain(100.0, make_budget(), cfg) == pytest.approx(1.085e-6, rel=1e-3)


def test_channel_gain_absorption_identity():
    # gain(d2) = gain(d1) * exp(-K (d2-d1)/2) * d1/d2
    rng = np.random.default_rng(9)
    cfg = ArrayConfig(64, CARRIER_HZ)
    for _ in range(100):
        k = rng.uniform(0.0, 0.01)
        budget = make_budget(absorption=k)
        d1, d2 = sorted(rng.uniform(50.0, 500.0, 2))
        lhs = channel_gain(d1, budget, cfg) * math.exp(-k * (d2 - d1) / 2.0) * d1 / d2
        assert lhs == pytest.approx(channel_gain(d2, budget, cfg), rel=1e-12)


def test_rate_zero_gain():
    cfg = ArrayConfig(16, CARRIER_HZ)
    assert achievable_rate(0.0, 100.0, make_budget(), cfg) == 0.0


def test_rate_unit_snr_gives_bandwidth():
    cfg = ArrayConfig(16, CARRIER_HZ)
    budget = make_budget()
    h0 = channel_gain(100.0, budget, cfg)
    g = budget.noise_psd * budget.bandwidth / (budget.tx_power * h0 * h0)
    assert achievable_rate(g, 100.0, budget, cfg) == pytest.approx(budget.bandwidth, rel=1e-12)


def test_rate_reference_aligned_order_of_magnitude():
    cfg = ArrayConfig(128, CARRIER_HZ)
    budget = make_budget()
    rate = aligned_rate(cfg, budget)
    # oracle: explicit evaluation of the rate formula
    h0 = C / (4.0 * math.pi * 100.0 * CARRIER_HZ)
    expected = budget.bandwidth * math.log2(
        1.0 + budget.tx_power * h0 * h0 * 128.0 / (budget.noise_psd * budget.bandwidth)
    )
    assert rate == pytest.approx(expected, rel=1e-9)
    assert 1e10 < rate < 1e12


def test_rate_keeps_precision_at_tiny_snr():
    # a side-lobe null: log2(1 + snr) would round 1 + snr and lose ~1e-10 relative
    cfg = ArrayConfig(16, CARRIER_HZ)
    budget = make_budget()
    h0 = channel_gain(100.0, budget, cfg)
    unit_gain = budget.noise_psd * budget.bandwidth / (budget.tx_power * h0 * h0)
    gain = 1e-6 * unit_gain
    snr = budget.tx_power * h0 * h0 * gain / (budget.noise_psd * budget.bandwidth)
    assert snr == pytest.approx(1e-6, rel=1e-12)
    series = budget.bandwidth * (snr - snr**2 / 2.0 + snr**3 / 3.0) / math.log(2.0)
    assert achievable_rate(gain, 100.0, budget, cfg) == pytest.approx(series, rel=1e-15, abs=0.0)


def test_rate_monotone_in_gain():
    cfg = ArrayConfig(64, CARRIER_HZ)
    budget = make_budget()
    gains = np.linspace(0.1, 128.0, 64)
    rates = achievable_rate(gains, 100.0, budget, cfg)
    assert np.all(np.diff(rates) > 0.0)


def test_rate_monotone_in_tx_power():
    cfg = ArrayConfig(64, CARRIER_HZ)
    previous = 0.0
    for dbm in np.linspace(20.0, 45.0, 11):
        budget = LinkBudget.from_db(float(dbm), -174.0, 10e9)
        rate = achievable_rate(64.0, 100.0, budget, cfg)
        assert rate > previous
        previous = rate


def test_dbm_conversions():
    assert dbm_to_watt(40.0) == pytest.approx(10.0, rel=1e-12)
    assert dbm_to_watt(-174.0) == pytest.approx(10.0 ** (-20.4), rel=1e-12)
    assert 10.0 * math.log10(dbm_to_watt(7.5)) + 30.0 == pytest.approx(7.5, abs=1e-12)


_SINES = "ValueError: sine directions must lie in [-1, 1]"
_COUNT = "ValueError: need an integer antenna count >= 2, got "
_REJECTIONS = {
    "test_array_response_rejects_out_of_range": [
        (lambda s=bad: response_matrix([s], ArrayConfig(4, CARRIER_HZ)), _SINES)
        for bad in (1.0001, math.nan)
    ],
    "test_response_matrix_rejects_out_of_range": [
        (lambda s=bad: response_matrix(np.array(s), ArrayConfig(8, CARRIER_HZ)), _SINES)
        for bad in ([1.0 + 1e-12], [0.0, -1.5])
    ],
    "test_channel_gain_rejects_nonpositive_distance": (
        lambda: channel_gain(0.0, make_budget(), ArrayConfig(4, CARRIER_HZ)),
        "ValueError: distance must be positive"),
    "test_rate_rejects_negative_gain": (
        lambda: achievable_rate(-1.0, 100.0, make_budget(), ArrayConfig(4, CARRIER_HZ)),
        "ValueError: beamforming gain must be non-negative"),
    "test_budget_validation": [
        (lambda: LinkBudget(0.0, 1e-20, 1e9), "ValueError: tx_power must be positive, got 0.0"),
        (lambda: LinkBudget(1.0, 1e-20, 1e9, absorption_coeff=-0.1),
         "ValueError: absorption_coeff must be >= 0, got -0.1"),
    ],
    "test_array_config_validation": [
        (lambda: ArrayConfig(1, CARRIER_HZ), f"{_COUNT}1"),
        (lambda: ArrayConfig(8, 0.0), "ValueError: carrier frequency must be positive, got 0.0"),
    ],
    "test_array_config_rejects_non_integer_count": {  # numpy integers are fine
        case: [(lambda n=count: ArrayConfig(n, CARRIER_HZ), f"{_COUNT}{count!r}"),
               (lambda: ArrayConfig(np.int64(16), CARRIER_HZ), None)]
        for case, count in [("128.0", 128.0), ("16.0", np.float64(16.0)), ("inf", math.inf),
                            ("nan", math.nan), ("True", True), ("16", "16")]
    },
}
globals().update(table_tests(_REJECTIONS, check_rejections))
