"""Forward simulation of the two-segment saturation-recovery protocol.

Each repetition (one per segment) plays, per pixel:

* a 90-degree saturation pulse at t = 0 whose transverse response seeds the
  five FID acquisitions I1-I5;
* two 30-degree probe pulses during the recovery, each read out a short echo
  time later (I6, I7);
* an imaging pulse at t_sat (60 degrees in segment 1, 120 in segment 2) read
  out at the same echo time (I8);
* three nominally 180-degree refocusing pulses forming spin echoes I9-I11.

Spoilers and crushers are ideal, so transverse magnetization never survives
between blocks.  The longitudinal bookkeeping between saturation and the
imaging pulse is the exact walk the T1 fitter uses (shared implementation);
the echo train reuses the T2 fitter's prediction kernel sourced by the
imaging-pulse signal, and the two-species FID kernel is the water/fat
fitter's design matrix.  Both repetitions start from thermal equilibrium, so
the segments' I1-I7 are identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import bloch, t1fit, t2fit, waterfat
from .constants import OMEGA_CS
from .phantom import TISSUE_FIELDS, PhantomMap, TissueParams

_MS = 1e-3


@dataclass(frozen=True)
class SequenceTiming:
    """Pulse and acquisition schedule of one repetition (seconds).

    fid_times are the I1-I5 acquisition times since the saturation pulse;
    probe_times and t_sat place the pulses themselves, each read out
    echo_time later; inversion_offsets place the refocusing pulses after
    t_sat, and echo_offsets the three echo centers they imply.
    """

    tr: float = 2.4
    t_sat: float = 1.2
    fid_times: tuple = (2 * _MS, 4 * _MS, 6 * _MS, 8 * _MS, 10 * _MS)
    probe_times: tuple = (0.4, 0.8)
    echo_time: float = 2 * _MS
    inversion_offsets: tuple = (6 * _MS, 18 * _MS, 32 * _MS)
    echo_offsets: tuple = (12 * _MS, 24 * _MS, 40 * _MS)
    sat_flip: float = np.pi / 2.0
    probe_flip: float = np.pi / 6.0
    imaging_flips: tuple = (np.pi / 3.0, 2.0 * np.pi / 3.0)
    inversion_flip: float = np.pi

    def __post_init__(self):
        for name in ("fid_times", "probe_times", "inversion_offsets",
                     "echo_offsets", "imaging_flips"):
            object.__setattr__(
                self, name, tuple(float(v) for v in getattr(self, name)))
        if len(self.fid_times) != 5 or len(self.probe_times) != 2:
            raise ValueError("need five FID times and two probe times")
        if len(self.inversion_offsets) != 3 or len(self.echo_offsets) != 3:
            raise ValueError("need three inversions and three echo offsets")
        if len(self.imaging_flips) != 2:
            raise ValueError("need one imaging flip per segment")
        # Segment 2 plays segment 1's waveform at twice the amplitude.
        single, double = self.imaging_flips
        if not np.isclose(double, 2.0 * single, rtol=1e-9, atol=0.0):
            raise ValueError(
                f"imaging_flips {self.imaging_flips}: the second flip must "
                "be twice the first")
        # Echo centers must be where the refocusing placement puts them.
        implied = []
        prev = 0.0
        for inv in self.inversion_offsets:
            prev = 2.0 * inv - prev
            implied.append(prev)
        if not np.allclose(implied, self.echo_offsets, rtol=0, atol=1e-9):
            raise ValueError(
                f"echo_offsets {self.echo_offsets} do not match the centers "
                f"implied by the inversions {tuple(implied)}"
            )
        train = []
        for inv, echo in zip(self.inversion_offsets, self.echo_offsets):
            train += [self.t_sat + inv, self.t_sat + echo]
        chained = (0.0,) + self.fid_times + (
            self.probe_times[0], self.probe_times[0] + self.echo_time,
            self.probe_times[1], self.probe_times[1] + self.echo_time,
            self.t_sat, self.t_sat + self.echo_time,
        ) + tuple(train) + (self.tr,)
        diffs = np.diff(chained)
        if np.any(diffs <= 0):
            raise ValueError("schedule events out of order or beyond TR")

    @property
    def acq_times(self):
        """Eleven acquisition times since saturation (same both segments)."""
        return self.fid_times + (
            self.probe_times[0] + self.echo_time,
            self.probe_times[1] + self.echo_time,
            self.t_sat + self.echo_time,
        ) + tuple(self.t_sat + e for e in self.echo_offsets)


def default_timing(t_sat: float = 1.2, tr: float = 2.4) -> SequenceTiming:
    """Standard schedule scaled to a saturation-recovery time."""
    return SequenceTiming(
        tr=tr, t_sat=t_sat,
        probe_times=(t_sat / 3.0, 2.0 * t_sat / 3.0),
    )


@dataclass(frozen=True)
class PulseParams:
    """Waveform/geometry knobs for the standard pulse set."""

    slice_thickness: float = 0.004
    duration: float = 0.001
    time_bandwidth: float = 4.0
    n_pieces: int = 256
    z_count: int = 129
    z_half_span: float = 2.0
    hard: bool = False

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class SequencePulses:
    """The four waveforms.  Segment 2's imaging pulse is ``imaging`` at twice
    the amplitude, i.e. ``imaging`` at twice the transmit scale."""

    sat: bloch.RfPulse
    probe: bloch.RfPulse
    imaging: bloch.RfPulse
    inversion: bloch.RfPulse
    params: PulseParams

    def z_grid(self):
        return bloch.default_z_grid(
            self.params.slice_thickness, self.params.z_count,
            self.params.z_half_span)


def build_pulses(params: PulseParams = PulseParams(),
                 timing: SequenceTiming = None) -> SequencePulses:
    """Standard pulse set: Hamming-windowed sincs (or hard pulses for
    idealized tests).  Excitations carry RF phase -90 degrees so the
    on-resonance tip lands on +x and noiseless water images are
    real-positive."""
    flips = timing or SequenceTiming()
    if params.hard:
        mk = lambda flip, phase: bloch.hard_pulse(flip, phase=phase)
    else:
        mk = lambda flip, phase: bloch.hamming_sinc_pulse(
            flip, params.duration, params.slice_thickness,
            params.time_bandwidth, params.n_pieces, phase=phase)
    return SequencePulses(
        sat=mk(flips.sat_flip, -np.pi / 2.0),
        probe=mk(flips.probe_flip, -np.pi / 2.0),
        imaging=mk(flips.imaging_flips[0], -np.pi / 2.0),
        inversion=mk(flips.inversion_flip, 0.0),
        params=params,
    )


@dataclass(frozen=True)
class PixelProfiles:
    """Slice responses of the pulse set at one B1 scale, or at an array of
    scales: every per-z array then has shape ``k.shape + (nz,)``."""

    k: float                   # or an array of scales
    z: np.ndarray
    txr_sat: np.ndarray        # rephased transverse response, per z
    txr_imaging: tuple         # one complex array per segment
    echo_bases: tuple          # one (..., 3) t2fit.echo_basis per segment
    t1_moments: np.ndarray     # (..., 8) t1fit.slice_moments

    def at(self, i) -> "PixelProfiles":
        """The profiles at entry ``i`` of an array of scales."""
        return PixelProfiles(
            k=float(self.k[i]), z=self.z, txr_sat=self.txr_sat[i],
            txr_imaging=tuple(t[i] for t in self.txr_imaging),
            echo_bases=tuple(b[i] for b in self.echo_bases),
            t1_moments=self.t1_moments[i])


def pixel_profiles(pulses: SequencePulses, k) -> PixelProfiles:
    """Slice responses of the pulse set at transmit scale(s) ``k``; segment
    2's imaging response is the imaging pulse's at ``2 k``."""
    z = pulses.z_grid()
    ks = np.asarray(k, dtype=float)

    def excite(pulse, scale=ks):
        return bloch.transverse(pulse, *bloch.cayley_klein(pulse, scale, z),
                                z)

    probe = bloch.cayley_klein(pulses.probe, ks, z)
    inv_alpha, _ = bloch.cayley_klein(pulses.inversion, ks, z)
    txr_imaging = (excite(pulses.imaging), excite(pulses.imaging, 2.0 * ks))
    theta_inv = bloch.refocusing_angle(inv_alpha)
    return PixelProfiles(
        k=float(k) if ks.ndim == 0 else ks, z=z,
        txr_sat=excite(pulses.sat),
        txr_imaging=txr_imaging,
        echo_bases=tuple(t2fit.echo_basis(txr, theta_inv, z)
                         for txr in txr_imaging),
        t1_moments=t1fit.slice_moments(
            bloch.transverse(pulses.probe, *probe, z),
            bloch.longitudinal(*probe), txr_imaging, z),
    )


def simulate_pixel(p: TissueParams, timing: SequenceTiming,
                   profiles: PixelProfiles,
                   omega_cs: float = OMEGA_CS) -> np.ndarray:
    """Noiseless (2, 11) complex acquisitions for one pixel."""
    out = np.zeros((2, 11), dtype=complex)
    m0 = p.water_amp + p.fat_amp
    if m0 == 0.0:
        return out
    z = profiles.z
    fracs = np.array([p.water_amp, p.fat_amp]) / m0

    def kernel(t):
        # Two-species FID kernel after a tip of the full magnetization.
        cols = waterfat.wf_design(t, p.t2s_water, p.t2s_fat, p.d_omega0,
                                  omega_cs)
        return np.sum(cols * fracs, axis=-1)

    # Saturation FID: slice-integrated transverse response applied to the
    # equilibrium magnetization, evolving with the two-species kernel.
    c_sat = bloch.integrate_slice(profiles.txr_sat, z)
    fid = m0 * c_sat * kernel(timing.fid_times)
    te = timing.echo_time
    te_kernel = complex(kernel(te))
    # Saturation leaves the hard-pulse-equivalent scalar residual.
    ctx = t1fit.T1Context(
        moments=profiles.t1_moments, times=timing.acq_times[5:8],
        echo_time=te, sat_residual=float(np.cos(p.b1_scale * timing.sat_flip)))
    (s6, s7, *s8), _ = t1fit.recovery_signals(p.t1, m0, ctx)
    out[:, 0:5] = fid
    out[:, 5:8] = np.column_stack([[s6, s6], [s7, s7], s8]) * te_kernel
    for seg, a_src in enumerate(s8):
        # Echo train: magnitudes from the shared echo kernel sourced by the
        # imaging-pulse signal; spin echoes refocus off-resonance and
        # chemical shift, so decay is pure T2 and the phase is the source's.
        gain = abs(bloch.integrate_slice(profiles.txr_imaging[seg], z))
        if gain > 0 and abs(a_src) > 0:
            mags = t2fit.predict_echoes(abs(a_src) / gain, p.t2,
                                        profiles.echo_bases[seg],
                                        timing.echo_offsets)
            out[seg, 8:11] = (a_src / abs(a_src)) * mags
    return out


@dataclass
class ImageSet:
    """The 22 complex images plus everything needed to estimate from them."""

    data: np.ndarray                  # (2, 11, h, w) complex
    timing: SequenceTiming
    pulse_params: PulseParams
    omega_cs: float = OMEGA_CS
    noise_sigma: float = 0.0
    seed: int = 0

    @property
    def height(self):
        return self.data.shape[2]

    @property
    def width(self):
        return self.data.shape[3]


def simulate_scan(pm: PhantomMap, timing: SequenceTiming = None,
                  pulses: SequencePulses = None, noise_sigma: float = 0.0,
                  seed: int = 0, omega_cs: float = OMEGA_CS) -> ImageSet:
    """Simulate the full scan over a phantom, each distinct tissue once.

    A tissue's ``simulate_pixel`` result is scattered to all its pixels;
    this is exact, as it is the very call each of those pixels would get.

    Noise is complex white Gaussian with per-channel standard deviation
    ``noise_sigma`` (finite, >= 0), drawn in one bulk pass from a seeded
    generator so the result is independent of pixel evaluation order.
    """
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise sigma must be finite and >= 0: {noise_sigma}")
    if timing is None:
        timing = SequenceTiming()
    if pulses is None:
        pulses = build_pulses(timing=timing)
    h, w = pm.shape
    data = np.zeros((2, 11, h, w), dtype=complex)
    signal = pm.water_amp + pm.fat_amp != 0.0
    stacked = np.stack([getattr(pm, n)[signal] for n in TISSUE_FIELDS], -1)
    tissues, which = np.unique(stacked, axis=0, return_inverse=True)
    ks, k_of = np.unique(tissues[:, -1], return_inverse=True)  # b1_scale
    profs = pixel_profiles(pulses, ks)
    sims = np.zeros((len(tissues), 2, 11), dtype=complex)
    for i, (row, k) in enumerate(zip(tissues.tolist(), k_of)):
        sims[i] = simulate_pixel(TissueParams(*row), timing, profs.at(k),
                                 omega_cs)
    data[:, :, signal] = np.moveaxis(sims[which], 0, -1)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((2, 11, h, w, 2))
        data = data + noise_sigma * (noise[..., 0] + 1j * noise[..., 1])
    return ImageSet(data=data, timing=timing, pulse_params=pulses.params,
                    omega_cs=omega_cs, noise_sigma=noise_sigma, seed=seed)
