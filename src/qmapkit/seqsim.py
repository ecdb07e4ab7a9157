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

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import bloch, t1fit, t2fit, waterfat
from .constants import OMEGA_CS
from .phantom import (TISSUE_FIELDS, PhantomMap, TissueParams, check_tissues,
                      number)

_MS = 1e-3
B1_K_MAX = 1.8  # the default B1 table's k_max: pixel_profiles' first panel
# Pulses x scales x z values of one pass of pixel_profiles (256 KiB complex
# (alpha, beta) arrays, so that a pass stays in a 2-4 MiB L2 cache).
_PASS_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class SequenceTiming:
    """Pulse and acquisition schedule of one repetition (seconds).

    fid_times are the I1-I5 acquisition times since the saturation pulse;
    probe_times and t_sat place the pulses themselves, each read out
    echo_time later, the probes at thirds of t_sat while probe_times is None
    (see ``probes``); echo_offsets place the three echo centers after t_sat,
    each refocusing pulse midway between its echo and the one before (t_sat
    itself for the first).  imaging_flip is segment 1's; segment 2 plays the
    same waveform at twice the amplitude.  Each error names its field.
    """

    tr: float = 2.4
    t_sat: float = 1.2
    fid_times: tuple = (2 * _MS, 4 * _MS, 6 * _MS, 8 * _MS, 10 * _MS)
    probe_times: tuple = None
    echo_time: float = 2 * _MS
    echo_offsets: tuple = (12 * _MS, 24 * _MS, 40 * _MS)
    sat_flip: float = np.pi / 2.0
    probe_flip: float = np.pi / 6.0
    imaging_flip: float = np.pi / 3.0
    inversion_flip: float = np.pi

    def __post_init__(self):
        counts = {"fid_times": 5, "probe_times": 2, "echo_offsets": 3}
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name == "probe_times" and value is None:
                continue
            if name not in counts:
                value = number(value, name)
            elif not isinstance(value, (list, tuple)) and getattr(
                    value, "ndim", 0) != 1 or len(value) != counts[name]:
                raise ValueError(f"{name} must be a list of {counts[name]} "
                                 f"numbers, not {value!r}")
            else:  # each item a number: numpy never sees a nested list
                value = tuple(number(v, name) for v in value)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            # A zero flip leaves its constant c no RF axis c / |c| to turn
            # the shape by (and a zero imaging flip leaves no shape).
            if name.endswith("_flip") and value == 0.0:
                raise ValueError(f"{name} must be non-zero")
            object.__setattr__(self, name, value)
        te, t_sat = self.echo_time, self.t_sat
        probe = "probe_times" if self.probe_times else "thirds of t_sat"
        events = [(0.0, "the saturation pulse")]
        events += [(t, "fid_times") for t in self.fid_times]
        for t, pulse in [(t, probe) for t in self.probes] + [(t_sat, "t_sat")]:
            events += [(t, pulse), (t + te, f"{pulse} + echo_time")]
        for prev, echo in zip((0.0,) + self.echo_offsets, self.echo_offsets):
            events += [(t_sat + 0.5 * (prev + echo), "t_sat + echo_offsets"),
                       (t_sat + echo, "t_sat + echo_offsets")]
        events.append((self.tr, "tr"))
        for (before, first), (time, then) in zip(events, events[1:]):
            if time <= before:
                raise ValueError(f"{then} ({time:g} s) must come after "
                                 f"{first} ({before:g} s)")

    @property
    def probes(self):
        """The two probe pulse times: probe_times, or thirds of t_sat."""
        return self.probe_times or (self.t_sat / 3.0, 2.0 * self.t_sat / 3.0)

    @property
    def acq_times(self):
        """Eleven acquisition times since saturation (same both segments)."""
        return self.fid_times + tuple(
            t + self.echo_time for t in (*self.probes, self.t_sat)) + tuple(
            self.t_sat + e for e in self.echo_offsets)


def default_timing(t_sat: float = 1.2, tr: float = 2.4) -> SequenceTiming:
    """The standard schedule at a saturation-recovery time and TR."""
    return SequenceTiming(tr=tr, t_sat=t_sat)


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
            value = number(getattr(self, name), name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
            object.__setattr__(self, name, value)
        for name, least in (("n_pieces", 2), ("z_count", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least
                    and not isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not isinstance(self.hard, (bool, np.bool_)):
            raise ValueError("hard must be true or false")
        object.__setattr__(self, "hard", bool(self.hard))


@dataclass(frozen=True)
class SequencePulses:
    """The pulse set: one RF shape, segment 1's imaging pulse, and the
    complex constants ``c`` that make each pulse ``c * imaging``: probe,
    inversion, imaging (1), segment 2's imaging and saturation, the order
    of :func:`pixel_profiles`; with the schedule whose flips it plays."""

    imaging: bloch.RfPulse
    constants: np.ndarray
    params: PulseParams
    timing: SequenceTiming
    _series: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def z_grid(self):
        return bloch.default_z_grid(
            self.params.slice_thickness, self.params.z_count,
            self.params.z_half_span)

    def series(self, k_max: float) -> bloch.CayleyKleinSeries:
        """The imaging shape's Cayley-Klein series, which serves every
        pulse of the set at ``|k| <= k_max``: up to ``k_max`` times the
        largest ``|c|`` (3 for the default inversion).  Built once and kept
        in ``_series``, which ``dataclasses.replace`` starts afresh."""
        if k_max not in self._series:
            self._series[k_max] = bloch.cayley_klein_series(
                self.imaging, k_max * np.max(np.abs(self.constants)),
                self.z_grid())
        return self._series[k_max]


def build_pulses(params: PulseParams = PulseParams(),
                 timing: SequenceTiming = None) -> SequencePulses:
    """Standard pulse set for ``timing`` (default ``SequenceTiming()``),
    which it records: one Hamming-windowed sinc (or hard pulse for idealized
    tests) at segment 1's imaging flip and RF phase -90 degrees, so the
    on-resonance tip lands on +x and noiseless water images are
    real-positive.  Each pulse's constant is its flip over that flip; the
    inversion's is also turned by its RF phase, 0 against the shape's -90
    degrees."""
    t = timing or SequenceTiming()
    flip = t.imaging_flip
    shape = bloch.hard_pulse(flip, phase=-np.pi / 2.0) if params.hard else \
        bloch.hamming_sinc_pulse(flip, params.duration,
                                 params.slice_thickness, params.time_bandwidth,
                                 params.n_pieces, phase=-np.pi / 2.0)
    constants = (np.array([t.probe_flip, t.inversion_flip, flip, 2.0 * flip,
                           t.sat_flip]) / flip).astype(complex)
    constants[1] *= np.exp(0.5j * np.pi)
    return SequencePulses(shape, constants, params, t)


@dataclass(frozen=True)
class PixelProfiles:
    """Slice integrals of the pulse set at one B1 scale, or at an array of
    scales: every field then has the leading axes of ``k``."""

    sat_gain: np.ndarray       # slice integral of the saturation response
    echo_bases: tuple          # one (..., 3) t2fit.echo_basis per segment
    t1_moments: np.ndarray     # (..., 8) t1fit.slice_moments


def pixel_profiles(pulses: SequencePulses, k, series=None) -> PixelProfiles:
    """Slice integrals of the pulse set at transmit scales ``k`` of any
    shape, each distinct scale computed once; every field has the leading
    axes of ``k``.  The pulse ``c * imaging`` of each of the set's
    ``constants`` is the shape at ``|c| k`` with ``beta`` turned by
    ``c / |c|``, read from a ``series`` of the same shape and z grid (else
    ValueError), or else from the set's ``pulses.series(edge)``, ``edge`` the
    least ``B1_K_MAX * 2**j >= |k|``, j >= 0, which no other scale moves."""
    z, img, c = pulses.z_grid(), pulses.imaging, pulses.constants
    if series is not None and not (
            np.array_equal(series.z_samples, z) and series.pulse.dt == img.dt
            and series.pulse.slice_gradient == img.slice_gradient
            and np.array_equal(series.pulse.samples, img.samples)):
        raise ValueError("the profile series was built for other pulses")
    ks, which = np.unique(np.asarray(k, dtype=float), return_inverse=True)
    which = which.reshape(np.shape(k))
    edges = np.full(ks.shape, B1_K_MAX)  # each scale's series panel
    while series is None and np.any(short := edges < np.abs(ks)):
        edges[short] *= 2.0
    # A pass of one panel's scales at a time: all (alpha, beta) never coexist.
    step, parts = max(1, _PASS_ELEMENTS // (c.size * z.size)), []
    cuts = sorted({*range(step, ks.size, step),  # np.union1d imports numpy.ma
                   *(np.flatnonzero(np.diff(edges)) + 1).tolist()})
    for run, edge in zip(np.split(ks, cuts), np.split(edges, cuts)):
        read = series or pulses.series(edge.max(initial=B1_K_MAX))
        alpha, beta = read.cayley_klein(np.multiply.outer(np.abs(c), run))
        beta *= (c / np.abs(c))[:, None, None]
        *txr_imaging, txr_sat = bloch.transverse(img, alpha[2:], beta[2:], z)
        theta_inv = bloch.refocusing_angle(alpha[1])
        parts.append((bloch.integrate_slice(txr_sat, z), *(
            t2fit.echo_basis(txr, theta_inv, z) for txr in txr_imaging),
            t1fit.slice_moments(bloch.transverse(img, alpha[0], beta[0], z),
                                bloch.longitudinal(alpha[0], beta[0]),
                                txr_imaging, z)))
    sat_gain, *bases, moments = (np.concatenate(f)[which] for f in zip(*parts))
    return PixelProfiles(sat_gain, tuple(bases), moments)


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
    sig, _ = t1fit.recovery_signals(  # I6, I7, I8_1, I8_2
        t1, m0, profiles.t1_moments, timing.acq_times[5:8], timing.echo_time,
        np.cos(k * timing.sat_flip))
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
        amp[..., None], np.stack(profiles.echo_bases, axis=-2),
        np.asarray(timing.echo_offsets) / t2[:, None, None])
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

    It plays ``pulses`` (default: built for ``timing``) on the schedule they
    record; a ``timing`` other than that raises ValueError.  The distinct
    tissues are the rows of one :func:`simulate_tissues` call, each
    scattered to all its pixels; this is exact, as rows are independent.
    The profiles read the set's own series, so a set that has built its
    default table propagates nothing for tissues at k <= ``B1_K_MAX``.

    Noise is complex white Gaussian with per-channel standard deviation
    ``noise_sigma`` (finite, >= 0), drawn in one bulk pass from a generator
    seeded by ``seed`` (>= 0) straight into the image buffer, so the result
    is independent of pixel evaluation order.
    """
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise sigma must be finite and >= 0: {noise_sigma}")
    if seed < 0:
        raise ValueError(f"noise seed must be >= 0: {seed}")
    pulses = pulses or build_pulses(timing=timing)
    if timing not in (None, pulses.timing):
        raise ValueError("the pulse set was built for another schedule")
    h, w = pm.shape
    data = (np.random.default_rng(seed).standard_normal((2, 11, h, w, 2))
            .view(complex)[..., 0] if noise_sigma > 0.0
            else np.zeros((2, 11, h, w), dtype=complex))
    data *= noise_sigma
    signal = pm.water_amp + pm.fat_amp != 0.0
    stacked = np.stack([getattr(pm, n)[signal] for n in TISSUE_FIELDS], -1)
    order = np.lexsort(stacked.T[::-1])  # np.unique(axis=0)'s, faster
    stacked = stacked[order]
    new = np.ones(len(order), dtype=bool)  # rows unlike the row before
    new[1:] = np.any(stacked[1:] != stacked[:-1], axis=1)
    tissues, which = stacked[new], (np.cumsum(new) - 1)[np.argsort(order)]
    check_tissues(tissues)
    sims = simulate_tissues(tissues, pulses.timing,
                            pixel_profiles(pulses, tissues[:, -1]), omega_cs)
    data[:, :, signal] += np.moveaxis(sims[which], 0, -1)
    return ImageSet(data=data, timing=pulses.timing,
                    pulse_params=pulses.params, omega_cs=omega_cs,
                    noise_sigma=noise_sigma, seed=seed)
