import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import b1map, bloch, phantom, seqsim, t2fit

from conftest import DirectSeries, WATER, member_pulses, snr_sigma

FAT = phantom.TissueParams(water_amp=0.0, fat_amp=1.0, t1=0.35, t2=0.07,
                           t2s_water=0.04, t2s_fat=0.03,
                           d_omega0=2 * np.pi * 20.0)


def test_default_timing_schedule():
    t = seqsim.default_timing()
    times = np.asarray(t.acq_times)
    assert times.size == 11
    assert np.all(np.diff(times) > 0)
    npt.assert_allclose(t.probes, (0.4, 0.8))
    npt.assert_allclose(times[7], 1.202)
    npt.assert_allclose(times[8:], [1.212, 1.224, 1.24])
    assert times[-1] < t.tr
    # The probes sit at thirds of t_sat unless given.  They once sat at 0.4
    # and 0.8 s whatever t_sat, so the default differed from this one and a
    # 0.6 s t_sat was refused.
    assert seqsim.SequenceTiming() == t
    assert seqsim.SequenceTiming(probe_times=None) == t
    assert seqsim.SequenceTiming(t_sat=1.8).probes == (0.6, 1.2)
    assert seqsim.SequenceTiming(t_sat=0.6).probes == (0.6 / 3.0, 1.2 / 3.0)
    given = seqsim.SequenceTiming(t_sat=0.6, probe_times=(0.1, 0.5))
    assert given.probe_times == given.probes == (0.1, 0.5)


def test_replace_moves_unset_probes_with_t_sat():
    # An unset probe_times stays unset, so a replaced t_sat moves the probes.
    # replace once kept the resolved (0.4, 0.8): at t_sat 1.8 they stayed
    # there, and at t_sat 0.6 the schedule was refused as out of order.
    t = seqsim.default_timing()
    for t_sat in (1.8, 0.6):
        moved = dataclasses.replace(t, t_sat=t_sat)
        assert moved == seqsim.SequenceTiming(t_sat=t_sat)
        assert moved.probes == (t_sat / 3.0, 2.0 * t_sat / 3.0)
    assert dataclasses.replace(t, probe_flip=0.6).probes == t.probes


def test_timing_validation():
    with pytest.raises(ValueError):
        seqsim.SequenceTiming(tr=1.0)      # acquisitions spill past TR
    with pytest.raises(ValueError):
        seqsim.SequenceTiming(fid_times=(0.002, 0.004))
    for flip in ("sat_flip", "probe_flip", "inversion_flip"):
        with pytest.raises(ValueError, match="non-zero"):
            seqsim.SequenceTiming(**{flip: 0.0})
    with pytest.raises(ValueError, match="non-zero"):
        seqsim.SequenceTiming(imaging_flip=0.0)


@pytest.mark.parametrize("bad, message", [
    ({"sat_flip": 1e30}, "sat_flip must be at most 4 pi"),
    ({"inversion_flip": -13.0}, "inversion_flip must be at most 4 pi"),
    ({"imaging_flip": 1e30}, "imaging_flip must be at most 4 pi"),
    ({"imaging_flip": 1e-320}, "imaging_flip must be at least 1/1000 of the "
                               "largest flip (3.14159)"),
    ({"imaging_flip": 3e-3}, "imaging_flip must be at least 1/1000"),
    ({"imaging_flip": 1e-3, "inversion_flip": 1.0},
     "imaging_flip must be at least 1/1000 of the largest flip (1.5708)")])
def test_flips_are_capped(bad, message):
    # A flip sizes the pulse set's series: an imaging_flip of 1e-320 once
    # ended its build in an OverflowError, and a flip of 1e30 in numpy's
    # size error, naming no key.
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        seqsim.SequenceTiming(**bad)
    for good in ({"inversion_flip": -4.0 * np.pi}, {"imaging_flip": 4e-3},
                 {"imaging_flip": np.pi * 1e-3, "inversion_flip": 1.0}):
        seqsim.SequenceTiming(**good)


@pytest.mark.parametrize("bad", [
    {"slice_thickness": float("nan")}, {"slice_thickness": 0.0},
    {"duration": -1e-3}, {"duration": float("inf")},
    {"time_bandwidth": float("nan")}, {"z_half_span": -1.0},
    {"z_half_span": float("inf")}, {"n_pieces": 1}, {"n_pieces": 2.5},
    {"n_pieces": 256.0}, {"z_count": 0}, {"z_count": 3.5},
    {"hard": "false"}, {"hard": 0}, {"hard": None},
    {"duration": "x"}, {"slice_thickness": None}, {"z_half_span": [2.0]},
    {"n_pieces": 2 ** 63}, {"n_pieces": 4097}, {"z_count": 2 ** 63},
    {"z_count": 4097},
])
def test_pulse_params_reject_invalid_values(bad):
    # A negative span would build a reversed grid and negate every slice
    # integral; a NaN thickness would give non-finite images.
    with pytest.raises(ValueError, match="^" + next(iter(bad))):
        seqsim.PulseParams(**bad)
    for good in ({"n_pieces": 2, "z_count": 1}, {"n_pieces": np.int64(3)},
                 {"n_pieces": 4096, "z_count": 4096}):
        assert seqsim.PulseParams(**good).hard is False
    # A numeric string converts, as in the timing's tuple fields.
    assert seqsim.PulseParams(duration="0.002").duration == 0.002
    assert seqsim.PulseParams(hard=np.bool_(True)).hard is True


def test_pixel_profiles_make_one_kernel_call(monkeypatch):
    # Probe, inversion, imaging at k and 2k, and saturation: one read of
    # the imaging shape at the five pulses' scales, here propagated.
    calls = []
    kernel = bloch.cayley_klein

    def counted(pulse, b1_scales, z_samples):
        calls.append((pulse, np.shape(b1_scales)))
        return kernel(pulse, b1_scales, z_samples)
    monkeypatch.setattr(bloch, "cayley_klein", counted)
    pulses = seqsim.build_pulses()
    seqsim.pixel_profiles(pulses, np.array([0.9, 1.1]), DirectSeries(pulses))
    assert len(calls) == 1 and calls[0][0] is pulses.imaging
    assert calls[0][1] == (5, 2)


@pytest.mark.parametrize("timing", [
    seqsim.SequenceTiming(),
    seqsim.SequenceTiming(imaging_flip=np.pi / 4.0)],
    ids=["default", "45-90"])
@pytest.mark.parametrize("hard, n_pieces", [
    (False, 256), (False, 31), (True, 256)], ids=["sinc", "sinc-31", "hard"])
def test_constants_make_the_pulses(hard, n_pieces, timing):
    # Each c * shape is the pulse built at its own flip and RF phase.
    params = seqsim.PulseParams(hard=hard, n_pieces=n_pieces)
    pulses = seqsim.build_pulses(params, timing)
    shape = pulses.imaging
    assert pulses.constants.shape == (5,)
    for c, pulse in zip(pulses.constants, member_pulses(params, timing)):
        assert (pulse.dt, pulse.slice_gradient) == (shape.dt,
                                                    shape.slice_gradient)
        npt.assert_allclose(c * shape.samples, pulse.samples, rtol=0,
                            atol=1e-12 * np.max(np.abs(pulse.samples)))
    if (hard, n_pieces, timing) == (False, 256, seqsim.SequenceTiming()):
        # Here each constant equals the built pulse's peak sample over the
        # shape's.
        peak = np.argmax(np.abs(shape.samples))
        npt.assert_array_equal(pulses.constants, [
            p.samples[peak] / shape.samples[peak] for p in member_pulses()])


_NOT_THE_SHAPE = {
    "dt": lambda p: dataclasses.replace(p, dt=2.0 * p.dt),
    "gradient": lambda p: dataclasses.replace(
        p, slice_gradient=1.5 * p.slice_gradient),
    "length": lambda p: dataclasses.replace(p, samples=p.samples[1:-1]),
    "tilted": lambda p: dataclasses.replace(
        p, samples=p.samples * (1.0 + 1e-9 * np.arange(p.samples.size))),
    "time-bandwidth": lambda p: bloch.hamming_sinc_pulse(
        np.pi / 2, 1e-3, 4e-3, time_bandwidth=6.0, phase=-np.pi / 2),
}


@pytest.mark.parametrize("name", sorted(_NOT_THE_SHAPE),
                         ids=[f"{n}-series" for n in sorted(_NOT_THE_SHAPE)])
def test_pixel_profiles_reject_a_pulse_of_another_shape(name):
    # A set holds one shape, so only a series can bring a pulse of another:
    # one built from the shape with any of these altered is refused.
    pulses = seqsim.build_pulses()
    other = dataclasses.replace(
        pulses, imaging=_NOT_THE_SHAPE[name](pulses.imaging))
    with pytest.raises(ValueError, match="other pulses"):
        seqsim.pixel_profiles(pulses, 1.0, other.series(1.2))


@pytest.mark.parametrize("other", [
    {"timing": {"imaging_flip": np.pi / 4.0}},
    {"params": {"time_bandwidth": 6.0}},
], ids=["flip", "time-bandwidth"])
def test_pixel_profiles_reject_a_series_of_other_pulses(other):
    # A 45/90-degree set once read the 60-degree set's series without a
    # word, with its imaging moment 24% high.
    pulses = seqsim.build_pulses()
    series = seqsim.build_pulses(
        dataclasses.replace(pulses.params, **other.get("params", {})),
        dataclasses.replace(seqsim.SequenceTiming(),
                            **other.get("timing", {}))).series(2.0)
    with pytest.raises(ValueError, match="other pulses|shape times"):
        seqsim.pixel_profiles(pulses, 1.0, series)


@pytest.mark.parametrize("path", ["direct", "series"])
def test_pixel_profiles_compute_each_distinct_scale_once(monkeypatch, path):
    # Repeated, unsorted scales in a 2-D array: one read at the distinct
    # ones, and each entry bit-equal to its scalar call.
    pulses = seqsim.build_pulses()
    series = (pulses.series(1.8) if path == "series"
              else DirectSeries(pulses))
    ks = np.array([[1.1, 0.9, 1.1], [0.7, 0.9, 1.1]])
    singles = {k: seqsim.pixel_profiles(pulses, k, series)
               for k in np.unique(ks)}
    reads = []
    owner = bloch if path == "direct" else bloch.CayleyKleinSeries
    read = owner.cayley_klein

    def counted(first, scales, *z):
        reads.append(np.shape(scales))
        return read(first, scales, *z)
    monkeypatch.setattr(owner, "cayley_klein", counted)
    stacked = seqsim.pixel_profiles(pulses, ks, series)
    assert reads == [(5, 3)] and stacked.sat_gain.shape == ks.shape
    for idx in np.ndindex(ks.shape):
        one = singles[ks[idx]]
        for field in ("sat_gain", "t1_moments"):
            npt.assert_array_equal(getattr(stacked, field)[idx],
                                   getattr(one, field))
        for seg in (0, 1):
            npt.assert_array_equal(stacked.echo_bases[seg][idx],
                                   one.echo_bases[seg])


@pytest.mark.parametrize("path", ["direct", "series", "panels"])
def test_pixel_profiles_bits_do_not_depend_on_the_pass_size(monkeypatch,
                                                           path):
    # Passes of one scale, and of two with a short last pass, give the bytes
    # of one pass over all five distinct scales.  Read from the set's own
    # panels, the doubled scales span two of them (1.8 and 3.6).
    pulses = seqsim.build_pulses()
    series = {"direct": DirectSeries(pulses), "series": pulses.series(1.8),
              "panels": None}[path]
    ks = np.array([[1.1, 0.9, 0.5], [0.7, 1.3, 1.1]])
    ks = 2.0 * ks if path == "panels" else ks

    def fields(profs):
        return (profs.sat_gain, *profs.echo_bases, profs.t1_moments)
    want = fields(seqsim.pixel_profiles(pulses, ks, series))
    for elements in (1, 2 * 5 * pulses.params.z_count):
        monkeypatch.setattr(seqsim, "_PASS_ELEMENTS", elements)
        for got, ref in zip(fields(seqsim.pixel_profiles(pulses, ks, series)),
                            want):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("hard", [False, True], ids=["sinc", "hard"])
def test_imaging_at_twice_the_scale_is_the_doubled_pulse(hard):
    pulses = seqsim.build_pulses(seqsim.PulseParams(hard=hard))
    img = pulses.imaging
    doubled = bloch.RfPulse(samples=2.0 * img.samples, dt=img.dt,
                            slice_gradient=img.slice_gradient)
    z = pulses.z_grid()
    ks = np.array([0.0, 0.2, 0.45, 0.85, 1.0, 1.37, 1.8])
    for got, want in zip(bloch.cayley_klein(img, 2.0 * ks, z),
                         bloch.cayley_klein(doubled, ks, z)):
        npt.assert_array_equal(got, want)
    npt.assert_array_equal(
        seqsim.pixel_profiles(pulses, ks,
                              DirectSeries(pulses)).t1_moments[..., 5],
        bloch.integrated_transverse_curve(doubled, ks, z))
    npt.assert_array_equal(
        bloch.integrated_transverse_curve(img, 2.0 * ks, z),
        bloch.integrated_transverse_curve(doubled, ks, z))


def test_segments_share_all_pre_imaging_acquisitions(water_scan):
    data = water_scan.data
    npt.assert_array_equal(data[0, 0:7], data[1, 0:7])
    # The imaging acquisition itself differs (60 vs 120 degrees).
    inside = np.abs(data[0, 7]) > 0
    assert np.any(np.abs(data[0, 7][inside] - data[1, 7][inside]) > 1e-6)


def test_water_pixel_images_are_real_positive(water_scan, water_disc):
    r, c = 16, 16
    assert water_disc.label[r, c] == 1
    sig = water_scan.data[:, :, r, c]
    assert np.all(sig.real > 0)
    npt.assert_allclose(sig.imag, 0.0, atol=1e-12 * np.max(sig.real))


def test_hard_pulse_double_angle_ratio(hard_pulses):
    timing = seqsim.default_timing()
    for k in (0.8, 1.0, 1.2):
        prof = seqsim.pixel_profiles(hard_pulses, k)
        sig = seqsim.simulate_pixel(WATER, timing, prof)
        ratio = abs(sig[1, 7]) / abs(sig[0, 7])
        expected = abs(2.0 * np.cos(k * np.pi / 3.0))
        npt.assert_allclose(ratio, expected, atol=1e-9)


def test_fat_fid_phase_advance(hard_pulses):
    timing = seqsim.default_timing()
    prof = seqsim.pixel_profiles(hard_pulses, 1.0)
    sig = seqsim.simulate_pixel(FAT, timing, prof)
    steps = np.angle(sig[0, 1:5] / sig[0, 0:4])
    expected = (FAT.d_omega0 + seqsim.OMEGA_CS) * 0.002
    expected = np.angle(np.exp(1j * expected))       # wrap like the data
    npt.assert_allclose(steps, np.full(4, expected), atol=1e-12)


def test_echo_train_decays_with_t2(hard_pulses):
    timing = seqsim.default_timing()
    prof = seqsim.pixel_profiles(hard_pulses, 1.0)
    sig = seqsim.simulate_pixel(WATER, timing, prof)
    echoes = np.abs(sig[0, 8:11])
    dts = np.asarray(timing.echo_offsets)
    # Hard 180s refocus perfectly: pure exponential in the echo offsets.
    npt.assert_allclose(echoes / echoes[0],
                        np.exp(-(dts - dts[0]) / WATER.t2), rtol=1e-9)


def test_imaging_signal_monotone_in_recovery_time(hard_pulses):
    mags = []
    for t_sat in (0.3, 0.6, 1.2, 1.8):
        timing = seqsim.default_timing(t_sat=t_sat)
        prof = seqsim.pixel_profiles(hard_pulses, 1.0)
        sig = seqsim.simulate_pixel(WATER, timing, prof)
        mags.append(abs(sig[0, 7]))
    assert np.all(np.diff(mags) > 0)


def test_pixel_linearity(hard_pulses):
    timing = seqsim.default_timing()
    prof = seqsim.pixel_profiles(hard_pulses, 1.0)
    mixed = phantom.TissueParams(water_amp=0.5, fat_amp=0.2, t1=0.6,
                                 t2=0.08, t2s_water=0.04, t2s_fat=0.03)
    double = phantom.TissueParams(water_amp=1.0, fat_amp=0.4, t1=0.6,
                                  t2=0.08, t2s_water=0.04, t2s_fat=0.03)
    a = seqsim.simulate_pixel(mixed, timing, prof)
    b = seqsim.simulate_pixel(double, timing, prof)
    npt.assert_allclose(b, 2.0 * a, rtol=1e-12, atol=1e-15)


def test_background_noise_level(water_disc, water_scan):
    sigma = 5.0 * snr_sigma(water_scan, water_disc, 50.0)
    noisy = seqsim.simulate_scan(water_disc, noise_sigma=sigma, seed=3)
    bg = noisy.data[:, :, water_disc.label == 0]
    parts = np.concatenate([bg.real.ravel(), bg.imag.ravel()])
    assert abs(parts.std() / sigma - 1.0) < 0.05
    assert abs(parts.mean()) < 3.0 * sigma / np.sqrt(parts.size)


def test_noise_is_seed_reproducible(water_disc):
    a = seqsim.simulate_scan(water_disc, noise_sigma=1e-4, seed=9)
    b = seqsim.simulate_scan(water_disc, noise_sigma=1e-4, seed=9)
    c = seqsim.simulate_scan(water_disc, noise_sigma=1e-4, seed=10)
    npt.assert_array_equal(a.data, b.data)
    assert np.any(a.data != c.data)


def test_scan_shape_and_metadata(water_scan):
    assert water_scan.data.shape == (2, 11, 32, 32)
    assert water_scan.height == 32 and water_scan.width == 32
    assert water_scan.noise_sigma == 0.0
    assert np.all(water_scan.data[:, :, 0, 0] == 0.0)   # background pixel


@pytest.mark.parametrize("hard", [False, True], ids=["sinc", "hard"])
def test_vectorised_profiles_equal_scalar_calls(hard):
    pulses = seqsim.build_pulses(seqsim.PulseParams(hard=hard))
    ks = np.array([[0.0, 0.45], [1.0, 1.37]])
    stacked = seqsim.pixel_profiles(pulses, ks)
    for idx in np.ndindex(ks.shape):
        one = seqsim.pixel_profiles(pulses, ks[idx])
        for name in ("sat_gain", "t1_moments"):
            npt.assert_array_equal(getattr(stacked, name)[idx],
                                   getattr(one, name))
        for seg in (0, 1):
            npt.assert_array_equal(stacked.echo_bases[seg][idx],
                                   one.echo_bases[seg])


_SETS = {
    "sinc": seqsim.build_pulses(),
    "hard": seqsim.build_pulses(seqsim.PulseParams(hard=True),
                                seqsim.default_timing()),
    "sinc-90-180": seqsim.build_pulses(
        seqsim.PulseParams(),
        dataclasses.replace(seqsim.default_timing(),
                            imaging_flip=np.pi / 2)),
}


@pytest.mark.parametrize("k_min, k_max", [(0.2, 1.8), (0.7, 1.3),
                                          (0.1, 6.0)])
@pytest.mark.parametrize("name", sorted(_SETS))
def test_profiles_from_the_series_match_direct_propagation(name, k_min,
                                                           k_max):
    # Error budget of the series: each profile quantity (the saturation
    # gain, each echo-basis column, each T1 moment) within 1e-12 of its
    # largest value over the range, ends included, read from a series to
    # k_max or from the set's own panels (1.8, 3.6 and 7.2 over [0.1, 6]).
    pulses = _SETS[name]
    ks = np.linspace(k_min, k_max, 37)

    def columns(profs):
        return np.column_stack((profs.sat_gain, *profs.echo_bases,
                                profs.t1_moments))
    want = columns(seqsim.pixel_profiles(pulses, ks, DirectSeries(pulses)))
    for series in (pulses.series(k_max), None):
        got = columns(seqsim.pixel_profiles(pulses, ks, series))
        assert got.shape == want.shape == (37, 15)
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.max(np.abs(want), axis=0))


def test_simulate_scan_computes_profiles_once(monkeypatch):
    pm = phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.25)
    pm.b1_scale[:, :16] = 0.8
    pm.b1_scale[:, 20:] = 1.2
    plain = seqsim.simulate_scan(pm)
    calls = []
    original = seqsim.pixel_profiles

    def counted(pulses, k):
        calls.append(np.asarray(k).copy())
        return original(pulses, k)

    monkeypatch.setattr(seqsim, "pixel_profiles", counted)
    counted_scan = seqsim.simulate_scan(pm)
    assert len(calls) == 1
    npt.assert_array_equal(np.sort(calls[0]), [0.8, 1.0, 1.2])
    npt.assert_array_equal(counted_scan.data, plain.data)
    pulses = seqsim.build_pulses()
    for r, c in ((16, 10), (16, 18), (16, 22)):
        ref = seqsim.simulate_pixel(
            _params_at(pm, r, c), seqsim.SequenceTiming(),
            original(pulses, pm.b1_scale[r, c]))
        got = np.ascontiguousarray(plain.data[:, :, r, c])
        npt.assert_array_equal(got.view(np.uint32),
                               ref.astype(np.complex64).view(np.uint32))


def _params_at(pm, r, c):
    return phantom.TissueParams(**{
        name: float(getattr(pm, name)[r, c])
        for name in phantom.TISSUE_FIELDS})


def _banded_bottles():
    """64x64 bottles with two B1 bands across both bottle rows and a
    per-pixel off-resonance ramp inside bottle 4: tissues shared by
    hundreds of pixels down to tissues of one pixel."""
    pm = phantom.make_bottle_phantom(64, 64)
    pm.b1_scale[18:23] = 0.9
    pm.b1_scale[40:45] = 1.1
    ramp = pm.label == 4
    pm.d_omega0[ramp] = np.linspace(-60.0, 60.0, np.count_nonzero(ramp))
    return pm


def _counting_simulate_pixel(monkeypatch):
    calls = []
    original = seqsim.simulate_pixel

    def counted(p, *args):
        calls.append(p)
        return original(p, *args)

    monkeypatch.setattr(seqsim, "simulate_pixel", counted)
    return calls


def test_simulate_scan_equals_the_pixel_oracle_everywhere():
    pm = _banded_bottles()
    scan = seqsim.simulate_scan(pm)
    pulses, timing = seqsim.build_pulses(), seqsim.SequenceTiming()
    profiles = {}
    signal = pm.water_amp + pm.fat_amp != 0.0
    for r, c in zip(*np.nonzero(signal)):
        k = pm.b1_scale[r, c]
        if k not in profiles:
            profiles[k] = seqsim.pixel_profiles(pulses, k)
        ref = seqsim.simulate_pixel(_params_at(pm, r, c), timing,
                                    profiles[k])
        # The complex128 oracle, rounded once to the set's complex64.
        got = np.ascontiguousarray(scan.data[:, :, r, c])
        npt.assert_array_equal(got.view(np.uint32),
                               ref.astype(np.complex64).view(np.uint32))
    assert not np.any(scan.data[:, :, ~signal])


def test_simulate_scan_simulates_each_distinct_tissue_once(monkeypatch):
    plain = phantom.make_bottle_phantom(64, 64)
    banded = _banded_bottles()
    signal = banded.water_amp + banded.fat_amp != 0.0
    tissues = {_params_at(banded, r, c) for r, c in zip(*np.nonzero(signal))}
    ramp = np.count_nonzero(banded.label == 4)
    assert len(tissues) > ramp > 100    # one-pixel tissues on the ramp
    pixel_calls = _counting_simulate_pixel(monkeypatch)
    calls = []
    original = seqsim.simulate_tissues

    def counted(rows, *args):
        calls.append([phantom.TissueParams(*row) for row in rows.tolist()])
        return original(rows, *args)

    monkeypatch.setattr(seqsim, "simulate_tissues", counted)
    seqsim.simulate_scan(plain)
    assert len(calls) == 1 and len(calls[0]) == 6
    assert set(calls[0]) == set(phantom.DEFAULT_BOTTLES)
    calls.clear()
    seqsim.simulate_scan(banded)
    assert len(calls) == 1 and len(calls[0]) == len(tissues)
    assert set(calls[0]) == tissues
    assert pixel_calls == []


def test_simulate_scan_groups_tissues_as_np_unique_does(monkeypatch):
    # The distinct tissues of np.unique(axis=0), in some order, each
    # scattered to the pixels of np.unique's inverse.
    pm, timing = _banded_bottles(), seqsim.SequenceTiming()
    signal = pm.water_amp + pm.fat_amp != 0.0
    tissues, which = np.unique(
        np.stack([getattr(pm, n)[signal] for n in phantom.TISSUE_FIELDS], -1),
        axis=0, return_inverse=True)
    calls = []
    original = seqsim.simulate_tissues

    def counted(rows, *args):
        calls.append(rows.copy())
        return original(rows, *args)
    monkeypatch.setattr(seqsim, "simulate_tissues", counted)
    scan = seqsim.simulate_scan(pm)
    assert len(calls) == 1
    npt.assert_array_equal(calls[0][np.lexsort(calls[0].T[::-1])], tissues)
    want = np.zeros_like(scan.data)
    want[:, :, signal] = np.moveaxis(original(
        tissues, timing, seqsim.pixel_profiles(
            seqsim.build_pulses(), tissues[:, -1]))[which.ravel()], 0, -1)
    npt.assert_array_equal(scan.data.view(np.uint64), want.view(np.uint64))


def test_a_tissue_past_the_first_panel_moves_no_other_tissue():
    # A fat tissue at k = 2.5 reads the set's second panel (3.6); the disc
    # still reads the first (1.8), bit for bit as when it is alone.
    pm = phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.25)
    disc = pm.label == 1
    alone = np.ascontiguousarray(seqsim.simulate_scan(pm).data[:, :, disc])
    far = dataclasses.replace(FAT, b1_scale=2.5)
    for name in phantom.TISSUE_FIELDS:
        getattr(pm, name)[:4] = getattr(far, name)
    both = seqsim.simulate_scan(pm).data
    assert np.all(np.abs(both[:, :, :4]) > 0)
    npt.assert_array_equal(
        np.ascontiguousarray(both[:, :, disc]).view(np.uint64),
        alone.view(np.uint64))


def test_simulate_scan_reads_the_series_its_table_was_built_from(
        monkeypatch):
    # After the default-range table, the set's scan at k <= B1_K_MAX
    # propagates nothing.  A fresh set builds one series per panel that
    # its tissues need, once: here 1.8, 3.6 and 14.4, not 7.2.
    pm = _banded_bottles()
    pulses = seqsim.build_pulses()
    assert b1map.build_ratio_table(pulses).series is pulses.series(
        seqsim.B1_K_MAX)
    calls = []
    kernel = bloch.cayley_klein

    def counted(pulse, b1_scales, z_samples):
        calls.append(np.max(b1_scales))
        return kernel(pulse, b1_scales, z_samples)
    monkeypatch.setattr(bloch, "cayley_klein", counted)
    seqsim.simulate_scan(pm, pulses=pulses)
    assert calls == []
    pm.b1_scale[pm.label == 5] = 2.5
    pm.b1_scale[pm.label == 6] = 8.0
    fresh = seqsim.build_pulses()
    first = seqsim.simulate_scan(pm, pulses=fresh)
    assert sorted(fresh._series) == [1.8, 3.6, 14.4] and len(calls) == 3
    npt.assert_array_equal(seqsim.simulate_scan(pm, pulses=fresh).data,
                           first.data)
    assert len(calls) == 3
    # Each series reaches its edge times the inversion's |c| = 3.
    npt.assert_allclose(sorted(fresh._series), np.sort(calls) / 3.0,
                        rtol=0.01)
    assert dataclasses.replace(fresh)._series == {}


@pytest.mark.parametrize("hard", [False, True], ids=["sinc", "hard"])
def test_simulate_tissues_rows_are_independent(hard):
    # Rows: on resonance, fat only and off resonance, no transmit, no
    # signal, and a water/fat mix off resonance at k = 0.85.
    pulses = seqsim.build_pulses(seqsim.PulseParams(hard=hard))
    timing = seqsim.SequenceTiming()
    rows = np.array([dataclasses.astuple(p) for p in (
        WATER, FAT, dataclasses.replace(WATER, b1_scale=0.0),
        dataclasses.replace(WATER, water_amp=0.0),
        dataclasses.replace(phantom.DEFAULT_BOTTLES[2], d_omega0=-40.0,
                            b1_scale=0.85))])
    # The suite turns a RuntimeWarning into an error (pyproject.toml).
    batch, flipped = (
        seqsim.simulate_tissues(r, timing,
                                seqsim.pixel_profiles(pulses, r[:, -1]))
        for r in (rows, rows[::-1]))
    alone = np.array([seqsim.simulate_pixel(
        phantom.TissueParams(*row), timing,
        seqsim.pixel_profiles(pulses, row[-1])) for row in rows])
    for got in (batch, flipped[::-1]):
        npt.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                               alone.view(np.uint64))
    assert not np.any(alone[2:4]) and np.all(np.abs(alone[[0, 1, 4]]) > 0)


def test_phantom_without_signal_gives_zeros_or_pure_noise(monkeypatch):
    pm = phantom.make_bottle_phantom(64, 64)
    pm.water_amp[:] = 0.0
    pm.fat_amp[:] = 0.0
    calls = _counting_simulate_pixel(monkeypatch)
    clean = seqsim.simulate_scan(pm)
    assert clean.data.shape == (2, 11, 64, 64) and not np.any(clean.data)
    # The images draw one at a time; their stream is this single draw.
    noisy = seqsim.simulate_scan(pm, noise_sigma=1e-4, seed=4)
    draw = np.random.default_rng(4).standard_normal((2, 11, 64, 64, 2))
    ref = (0.0 + 1e-4 * (draw[..., 0] + 1j * draw[..., 1])).astype(
        np.complex64)
    npt.assert_array_equal(noisy.data.view(np.uint32), ref.view(np.uint32))
    assert calls == []


@pytest.mark.parametrize("field, value, message", [
    ("t1", np.nan, "t1 must be finite"),
    ("t2s_water", 1.0, "t2s_water cannot exceed t2"),
    ("b1_scale", -0.5, "b1_scale must be non-negative")],
    ids=["t1", "t2s_water", "b1_scale"])
def test_simulate_scan_rejects_an_invalid_tissue(field, value, message):
    pm = phantom.make_bottle_phantom(64, 64)
    getattr(pm, field)[pm.label == 3] = value
    with pytest.raises(ValueError, match=message):
        seqsim.simulate_scan(pm)


@pytest.mark.parametrize("sigma", [-1e-3, float("nan"), float("inf")])
def test_bad_noise_sigma_is_rejected(water_disc, sigma):
    with pytest.raises(ValueError, match="noise sigma"):
        seqsim.simulate_scan(water_disc, noise_sigma=sigma)


@pytest.mark.parametrize("sigma", [0.0, 1e-4])
def test_negative_noise_seed_is_rejected(water_disc, sigma):
    # numpy once refused it with a message naming no field, and at sigma 0
    # it was written to the manifest.
    with pytest.raises(ValueError, match="noise seed"):
        seqsim.simulate_scan(water_disc, noise_sigma=sigma, seed=-1)


def test_simulate_scan_builds_echo_bases_once_per_segment(monkeypatch):
    # One transmit scale: one pixel_profiles call, one echo basis per
    # segment, however many pixels share it.
    pm = phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.25)
    plain = seqsim.simulate_scan(pm)
    calls = []
    original = t2fit.echo_basis

    def counted(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(t2fit, "echo_basis", counted)
    counted_scan = seqsim.simulate_scan(pm)
    assert calls == [(1, seqsim.PulseParams().z_count)] * 2
    npt.assert_array_equal(counted_scan.data, plain.data)
