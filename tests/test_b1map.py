import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import b1map


@pytest.fixture(scope="module")
def hard_table(hard_pulses):
    return b1map.build_ratio_table(hard_pulses, k_min=0.3, k_max=1.8,
                                   step=0.002)


def test_hard_pulse_table_matches_closed_form(hard_table):
    # Uniform profile: ratio = |sin(2a)| / |sin(a)| = 2 cos(a), a = k*pi/3.
    alpha = hard_table.k_values * np.pi / 3.0
    npt.assert_allclose(hard_table.ratios, 2.0 * np.cos(alpha), atol=1e-12)
    # The decreasing branch ends by the ratio null at k = 1.5.
    assert hard_table.k_values[-1] <= 1.5 + 1e-9
    assert hard_table.k_values[-1] > 1.45


def test_table_is_monotone(hard_table):
    assert np.all(np.diff(hard_table.k_values) > 0)
    assert np.all(np.diff(hard_table.ratios) < 0)
    with pytest.raises(ValueError):
        b1map.RatioTable(k_values=np.array([1.0, 2.0]),
                         ratios=np.array([1.0, 1.5]))
    with pytest.raises(ValueError):
        b1map.RatioTable(k_values=np.array([1.0]), ratios=np.array([1.0]))


def test_build_table_rejects_mismatched_pair(hard_pulses):
    # The pair is one waveform at k and 2k now; only the k range can be bad.
    with pytest.raises(ValueError):
        b1map.build_ratio_table(hard_pulses, k_min=1.0, k_max=0.5)


def test_estimate_inverts_exactly_on_grid(hard_table):
    for k in (0.4, 0.8, 1.2):
        alpha = k * np.pi / 3.0
        got, ok = b1map.estimate_b1(np.sin(alpha), np.sin(2.0 * alpha),
                                    hard_table)
        assert ok
        assert got == pytest.approx(k, abs=1e-9)


def test_estimate_interpolates_off_grid(hard_table):
    k = 0.8137
    alpha = k * np.pi / 3.0
    got, ok = b1map.estimate_b1(np.sin(alpha), np.sin(2.0 * alpha),
                                hard_table)
    assert ok
    assert got == pytest.approx(k, abs=1e-4)


def test_estimate_clamps_and_flags(hard_table):
    # Ratio above the table start clamps to k_min; near-zero ratio to k_max.
    hi, ok_hi = b1map.estimate_b1(1.0, 5.0, hard_table)
    lo, ok_lo = b1map.estimate_b1(1.0, 1e-9, hard_table)
    assert ok_hi and ok_lo
    assert hi == pytest.approx(hard_table.k_values[0])
    assert lo == pytest.approx(hard_table.k_values[-1])
    bad, ok_bad = b1map.estimate_b1(0.0, 0.3, hard_table)
    assert not ok_bad and bad == 1.0


def test_estimate_b1_array_shapes(hard_table):
    alpha = np.array([[0.8, 1.0], [1.2, 0.6]]) * np.pi / 3.0
    single = np.sin(alpha)
    double = np.sin(2.0 * alpha)
    double[1, 1] = 0.9 * double[1, 1]
    k, ok = b1map.estimate_b1(single, double, hard_table)
    assert k.shape == (2, 2) and ok.shape == (2, 2)
    assert np.all(ok)
    npt.assert_allclose(k[0], [0.8, 1.0], atol=1e-9)
    with pytest.raises(ValueError):
        b1map.estimate_b1(np.ones(3), np.ones(4), hard_table)

