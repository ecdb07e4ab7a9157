"""Forward simulation of the two-segment saturation-recovery protocol.

Each repetition (one per segment) plays:

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
the segments' I1-I7 are identical by construction.  Every step is
elementwise over an array of tissues.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import bloch, t1fit, t2fit, waterfat
from .constants import OMEGA_CS
from .phantom import TISSUE_FIELDS, PhantomMap, TissueParams, check_tissues

_MS = 1e-3


def _number(value, name: str) -> float:
    """``float(value)``, or ValueError naming the field."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, not {value!r}") from None


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
        for f in fields(self):
            value, name = getattr(self, f.name), f"timing {f.name}"
            value = (tuple(_number(v, name) for v in value)
                     if isinstance(f.default, tuple) else _number(value, name))
            object.__setattr__(self, f.name, value)
        if len(self.fid_times) != 5 or len(self.probe_times) != 2:
            raise ValueError("need five FID times and two probe times")
        if len(self.inversion_offsets) != 3 or len(self.echo_offsets) != 3:
            raise ValueError("need three inversions and three echo offsets")
        if len(self.imaging_flips) != 2:
            raise ValueError("need one imaging flip per segment")
        if not np.all(np.isfinite(np.hstack(astuple(self)))):
            raise ValueError("every timing value must be finite")
        # A zero flip leaves a pulse no RF axis for pixel_profiles to turn
        # the imaging shape onto (and a zero imaging flip leaves no shape).
        if 0.0 in (self.sat_flip, self.probe_flip, self.inversion_flip,
                   *self.imaging_flips):
            raise ValueError("flip angles must be non-zero")
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

    def __post_init__(self):
        for name in ("slice_thickness", "duration", "time_bandwidth",
                     "z_half_span"):
            value = _number(getattr(self, name), f"pulses {name}")
            if not 0.0 < value < np.inf:
                raise ValueError(f"pulses {name} must be finite and > 0")
            object.__setattr__(self, name, value)
        for name, least in (("n_pieces", 2), ("z_count", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ValueError(f"pulses {name} must be an integer >= "
                                 f"{least}")
        if not isinstance(self.hard, (bool, np.bool_)):
            raise ValueError("pulses hard must be true or false")
        object.__setattr__(self, "hard", bool(self.hard))

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
    """Slice integrals of the pulse set at one B1 scale, or at an array of
    scales: every field then has the leading axes of ``k``."""

    sat_gain: np.ndarray       # slice integral of the saturation response
    echo_bases: tuple          # one (..., 3) t2fit.echo_basis per segment
    t1_moments: np.ndarray     # (..., 8) t1fit.slice_moments


def _shape_constants(pulses: SequencePulses) -> np.ndarray:
    """The ``c`` of each pulse ``c * imaging`` of :func:`pixel_profiles`:
    probe, inversion, imaging, segment 2's imaging (2) and saturation.
    ValueError for a pulse of another shape (:func:`bloch.shape_constant`)."""
    probe, inversion, sat = (bloch.shape_constant(pulses.imaging, p)
                             for p in (pulses.probe, pulses.inversion,
                                       pulses.sat))
    return np.array([probe, inversion, 1.0, 2.0, sat])


def profile_series(pulses: SequencePulses,
                   k_max: float) -> bloch.CayleyKleinSeries:
    """The Cayley-Klein series of the imaging shape from which
    ``pixel_profiles(pulses, k, series)`` reads any ``|k| <= k_max``, up to
    ``k_max`` times the set's largest ``|c|`` (3 for the default inversion)."""
    reach = np.max(np.abs(_shape_constants(pulses)))
    return bloch.cayley_klein_series(pulses.imaging, k_max * reach,
                                     pulses.z_grid())


def pixel_profiles(pulses: SequencePulses, k, series=None) -> PixelProfiles:
    """Slice integrals of the pulse set at transmit scales ``k`` of any
    shape, each distinct scale computed once; every field has the leading
    axes of ``k``.  Each pulse is the imaging shape times a constant ``c``,
    i.e. the shape at ``|c| k`` with ``beta`` turned by ``c / |c|``: one
    Cayley-Klein product of the shape serves the set, or it is read from
    this set's ``series`` (:func:`profile_series`; else ValueError)."""
    z, img = pulses.z_grid(), pulses.imaging
    c = _shape_constants(pulses)
    if series is not None and not (
            np.array_equal(series.z_samples, z) and abs(
                bloch.shape_constant(series.pulse, img) - 1.0) <= 1e-12):
        raise ValueError("the profile series was built for other pulses")
    ks, which = np.unique(np.asarray(k, dtype=float), return_inverse=True)
    which = which.reshape(np.shape(k))
    scales = np.multiply.outer(np.abs(c), ks)
    alpha, beta = (bloch.cayley_klein(img, scales, z) if series is None
                   else series.cayley_klein(scales, z))
    beta *= (c / np.abs(c))[:, None, None]
    *txr_imaging, txr_sat = bloch.transverse(img, alpha[2:], beta[2:], z)
    theta_inv = bloch.refocusing_angle(alpha[1])
    return PixelProfiles(
        sat_gain=bloch.integrate_slice(txr_sat, z)[which],
        echo_bases=tuple(t2fit.echo_basis(txr, theta_inv, z)[which]
                         for txr in txr_imaging),
        t1_moments=t1fit.slice_moments(
            bloch.transverse(img, alpha[0], beta[0], z),
            bloch.longitudinal(alpha[0], beta[0]), txr_imaging, z)[which],
    )


def simulate_tissues(tissues, timing: SequenceTiming,
                     profiles: PixelProfiles,
                     omega_cs: float = OMEGA_CS) -> np.ndarray:
    """Noiseless (n, 2, 11) complex acquisitions of the n rows of
    ``tissues`` (n, 8), in ``TISSUE_FIELDS`` order.  Row i reads entry i of
    the profiles, or their one entry at a scalar scale.  Every step is
    elementwise over rows, so a row's images do not depend on the others; a
    row without signal reads 0."""
    water, fat, t1, t2, t2s_water, t2s_fat, d_omega0, k = np.asarray(
        tissues, dtype=float).T
    m0 = water + fat
    fracs = np.stack([water, fat], -1) / np.where(m0 != 0.0, m0, 1.0)[:, None]

    def kernel(t):
        # Two-species FID kernel after a tip of the full magnetization.
        cols = waterfat.wf_design(t, t2s_water[:, None], t2s_fat[:, None],
                                  d_omega0[:, None], omega_cs)
        return np.sum(cols * fracs[:, None], axis=-1)

    out = np.empty((len(m0), 2, 11), dtype=complex)
    # Saturation FID: slice-integrated transverse response applied to the
    # equilibrium magnetization, evolving with the two-species kernel.
    out[:, :, 0:5] = (m0[:, None] * profiles.sat_gain[..., None]
                      * kernel(timing.fid_times))[:, None]
    # Saturation leaves the hard-pulse-equivalent residual cos(k sat_flip).
    ctx = t1fit.T1Context(
        moments=profiles.t1_moments, times=timing.acq_times[5:8],
        echo_time=timing.echo_time, sat_residual=np.cos(k * timing.sat_flip))
    sig, _ = t1fit.recovery_signals(t1, m0, ctx)       # I6, I7, I8_1, I8_2
    out[:, :, 5:8] = (sig[:, [0, 1, 2, 0, 1, 3]].reshape(-1, 2, 3)
                      * kernel([timing.echo_time])[:, :, None])
    # Echo train: the shared echo kernel sourced by the imaging signal, whose
    # gain is its moment times mzf^0 = 1; spin echoes refocus off-resonance
    # and chemical shift, so decay is pure T2 and the phase is the source's.
    src = sig[:, 2:]
    mag, gain = np.abs(src), np.abs(profiles.t1_moments[..., [2, 5]])
    ok = (gain > 0) & (mag > 0)
    amp = np.divide(mag, gain, out=np.zeros_like(mag), where=ok)
    phase = np.divide(src, mag, out=np.zeros_like(src), where=ok)
    out[:, :, 8:11] = phase[..., None] * t2fit.predict_echoes(
        amp[..., None], t2[:, None, None],
        np.stack(profiles.echo_bases, axis=-2), timing.echo_offsets)
    return out


def simulate_pixel(p: TissueParams, timing: SequenceTiming,
                   profiles: PixelProfiles,
                   omega_cs: float = OMEGA_CS) -> np.ndarray:
    """Noiseless (2, 11) complex acquisitions for one pixel: the one-row
    :func:`simulate_tissues` call, with profiles at one scale."""
    return simulate_tissues([astuple(p)], timing, profiles, omega_cs)[0]


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

    The distinct tissues are the rows of one :func:`simulate_tissues` call,
    each scattered to all its pixels; this is exact, as rows are
    independent.

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
    check_tissues(tissues)
    sims = simulate_tissues(tissues, timing,
                            pixel_profiles(pulses, tissues[:, -1]), omega_cs)
    data[:, :, signal] = np.moveaxis(sims[which], 0, -1)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((2, 11, h, w, 2))
        data = data + noise_sigma * (noise[..., 0] + 1j * noise[..., 1])
    return ImageSet(data=data, timing=timing, pulse_params=pulses.params,
                    omega_cs=omega_cs, noise_sigma=noise_sigma, seed=seed)
