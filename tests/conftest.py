import numpy as np
import pytest
from hypothesis import settings

from qmapkit import bloch, phantom, seqsim

settings.register_profile("suite", max_examples=25, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


WATER = phantom.TissueParams(
    water_amp=1.0, fat_amp=0.0, t1=0.8, t2=0.08,
    t2s_water=0.045, t2s_fat=0.025,
)


@pytest.fixture(scope="session")
def water_disc():
    return phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.25)


@pytest.fixture(scope="session")
def water_scan(water_disc):
    """Noiseless default-timing scan of the water disc (shared; read-only)."""
    return seqsim.simulate_scan(water_disc)


@pytest.fixture(scope="session", params=["noisy bottles", "noiseless disc"])
def loop_scan(request):
    """The benchmark's two loop scans: 64x64 bottles at sigma 1e-4 (seed
    1), and a noiseless 48x48 water/fat disc at k 0.85 and 25 Hz."""
    if request.param == "noisy bottles":
        return seqsim.simulate_scan(phantom.make_bottle_phantom(64, 64),
                                    noise_sigma=1e-4, seed=1)
    disc = phantom.TissueParams(
        water_amp=0.8, fat_amp=0.2, t1=0.8, t2=0.08, t2s_water=0.045,
        t2s_fat=0.025, d_omega0=2.0 * np.pi * 25.0, b1_scale=0.85)
    return seqsim.simulate_scan(phantom.make_disc_phantom(48, 48, disc))


@pytest.fixture(scope="session")
def hard_pulses():
    return seqsim.build_pulses(seqsim.PulseParams(hard=True),
                               seqsim.default_timing())


def member_pulses(params=seqsim.PulseParams(), timing=None):
    """The pulse set's pulses, each built at its own flip and RF phase, in
    ``pixel_profiles``' order: probe, inversion, imaging, segment 2's
    imaging and saturation."""
    t = timing or seqsim.SequenceTiming()
    flips = (t.probe_flip, t.inversion_flip, t.imaging_flip,
             2.0 * t.imaging_flip, t.sat_flip)
    phases = (-np.pi / 2, 0.0, -np.pi / 2, -np.pi / 2, -np.pi / 2)
    if params.hard:
        return [bloch.hard_pulse(f, phase=p) for f, p in zip(flips, phases)]
    return [bloch.hamming_sinc_pulse(
        f, params.duration, params.slice_thickness, params.time_bandwidth,
        params.n_pieces, phase=p) for f, p in zip(flips, phases)]


class DirectSeries:
    """A stand-in for a pulse set's series that propagates every read
    directly through ``bloch.cayley_klein``: ``seqsim.pixel_profiles(pulses,
    k, DirectSeries(pulses))`` is the direct reference that the series'
    profiles are held to."""

    def __init__(self, pulses):
        self.pulse, self.z_samples = pulses.imaging, pulses.z_grid()

    def cayley_klein(self, b1_scales):
        return bloch.cayley_klein(self.pulse, b1_scales, self.z_samples)


def snr_sigma(scan, pm, snr):
    """Noise level giving the requested SNR on the in-phantom |I8| mean."""
    i8 = np.abs(scan.data[0, 7])[pm.label > 0]
    return float(i8.mean()) / snr
