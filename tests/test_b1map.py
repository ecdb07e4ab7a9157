from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import b1map, bloch, seqsim


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
    # Ratio above the table start clamps to k_min, a zero ratio to k_max;
    # both are flagged invalid.
    hi, ok_hi = b1map.estimate_b1(1.0, 5.0, hard_table)
    lo, ok_lo = b1map.estimate_b1(1.0, 0.0, hard_table)
    assert not ok_hi and not ok_lo
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



def _direct_table(pulses, k_min, k_max, step):
    """The ratio table from the curve propagated at every grid scale."""
    n = int(round((k_max - k_min) / step)) + 1
    k = k_min + step * np.arange(n)
    curve = np.abs(bloch.integrated_transverse_curve(
        pulses.imaging, np.concatenate([k, 2.0 * k]), pulses.z_grid()))
    ratios = curve[n:] / curve[:n]
    upticks = np.flatnonzero(np.diff(ratios) >= 0)
    keep = upticks[0] + 1 if upticks.size else n
    return k[:keep], ratios[:keep]


_SINC = seqsim.build_pulses()
_HARD = seqsim.build_pulses(seqsim.PulseParams(hard=True),
                            seqsim.default_timing())
_SINC_90_180 = seqsim.build_pulses(
    seqsim.PulseParams(),
    replace(seqsim.default_timing(), imaging_flip=np.pi / 2))


@pytest.mark.parametrize("pulses, k_min, k_max, step", [
    (_SINC, 0.2, 1.8, 0.002), (_SINC, 0.7, 1.3, 0.002),
    (_SINC, 0.1, 6.0, 0.01), (_HARD, 0.2, 1.8, 0.002),
    (_HARD, 0.7, 1.3, 0.002), (_HARD, 0.1, 6.0, 0.002),
    (_SINC_90_180, 0.2, 1.8, 0.002),
], ids=["sinc-wide", "sinc-narrow", "sinc-0.1-6", "hard-wide",
        "hard-narrow", "hard-0.1-6", "sinc-90-180"])
def test_table_from_nodes_matches_direct_table(pulses, k_min, k_max, step):
    # Error budget of the Chebyshev interpolation: same grid, same branch
    # cut, ratios to 1e-12.  The sinc over [0.1, 6] uses a coarser grid to
    # keep the direct propagation short; the nodes do not depend on it.
    table = b1map.build_ratio_table(pulses, k_min, k_max, step)
    k, ratios = _direct_table(pulses, k_min, k_max, step)
    npt.assert_array_equal(table.k_values, k)
    npt.assert_allclose(table.ratios, ratios, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k_max, n_scales", [(1.8, 15), (6.0, 30)])
def test_table_makes_one_kernel_call_at_the_nodes(monkeypatch, k_max,
                                                  n_scales):
    # One series in k^2 serves the table's k and 2k and every pulse of the
    # set: 8 + ceil(A K) nodes, A = 1.19 for the default imaging pulse and
    # K = 3 k_max (the inversion is 3x the imaging flip): 15 for k_max 1.8,
    # 30 for k_max 6.
    calls = []
    kernel = bloch.cayley_klein

    def counted(pulse, b1_scales, z_samples):
        calls.append((pulse, np.array(b1_scales)))
        return kernel(pulse, b1_scales, z_samples)
    monkeypatch.setattr(bloch, "cayley_klein", counted)
    pulses = seqsim.build_pulses()  # a fresh set: _SINC keeps its series
    table = b1map.build_ratio_table(pulses, 0.2, k_max, 0.002)
    assert len(calls) == 1 and calls[0][0] is pulses.imaging
    assert calls[0][1].shape == (n_scales,)
    assert np.all((calls[0][1] > 0.0) & (calls[0][1] < 3.0 * k_max))
    assert table.k_values.size > 2 and table.series.scale_max == 3.0 * k_max


@pytest.mark.parametrize("bad", [
    {"k_max": np.inf}, {"k_min": np.nan}, {"k_max": np.nan},
    {"step": np.nan}, {"step": np.inf}, {"k_min": -np.inf},
])
def test_build_table_rejects_non_finite_ranges(bad):
    kwargs = {"k_min": 0.2, "k_max": 1.8, "step": 0.002, **bad}
    with pytest.raises(ValueError, match="finite"):
        b1map.build_ratio_table(_HARD, **kwargs)
