"""Piecewise-constant RF pulses, their Cayley-Klein spinor propagation (and
its Chebyshev series in the squared transmit scale) and slice-profile
integration.

Conventions (fixed for the whole toolkit):

* Magnetization vectors are ``(mx, my, mz)``; transverse components are also
  handled as the complex pair ``mx + i*my``.
* Free precession at off-resonance ``dw`` multiplies the transverse complex
  pair by ``exp(+i*dw*dt)``: positive off-resonance advances phase.
* A phase-0 RF pulse (B1 along +x in the rotating frame) tips +z toward +y.
  Both follow from a right-handed rotation by ``sqrt(|b1|^2 + dw^2)*dt``
  about the unit axis ``(-Re(b1), -Im(b1), dw)``.
* Relaxation is neglected during pulses; pulses are short next to T2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pieces x scales x |z| values of one block of piece factors (320 KiB of
# block arrays).
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class RfPulse:
    """Piecewise-constant RF waveform.

    samples : complex rotating-frame amplitudes in rad/s, one per piece
        (magnitude = instantaneous nutation rate, phase measured from +x).
    dt : piece duration in seconds.
    slice_gradient : through-slice precession gradient in rad/(s*m)
        (gamma * Gz); an isochromat at z sees off-resonance
        ``slice_gradient * z`` during the pulse.
    """

    samples: np.ndarray
    dt: float
    slice_gradient: float = 0.0

    def __post_init__(self):
        samples = np.atleast_1d(np.asarray(self.samples, dtype=complex))
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        # Finite first: the axis test's inf * conj(inf) would warn.
        if not (np.all(np.isfinite(samples)) and 0.0 < self.dt < np.inf
                and np.isfinite(self.slice_gradient)):
            raise ValueError("need finite samples and gradient, 0 < dt < inf")
        # Off-axis parts are measured against the peak: subnormals pass.
        peak = samples[np.argmax(np.abs(samples))]
        cross = np.abs((samples * peak.conjugate()).imag)
        if np.any(cross > 1e-9 * abs(peak) ** 2):
            raise ValueError("samples must share one RF axis (phase mod pi)")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self):
        return self.samples.size * self.dt

    @property
    def axis_phase(self):
        """Phase of the RF axis every sample lies on (mod pi), taken from
        the largest sample."""
        return float(np.angle(self.samples[np.argmax(np.abs(self.samples))]))


def hard_pulse(flip: float, duration: float = 1e-5,
               phase: float = 0.0) -> RfPulse:
    """Single-piece pulse, no gradient: an ideal instantaneous rotation,
    with RF phase ``phase`` measured from +x."""
    if not (np.all(np.isfinite((flip, phase))) and 0 < duration < np.inf):
        raise ValueError("need finite flip and phase, 0 < duration < inf")
    return RfPulse(
        samples=np.array([flip / duration * np.exp(1j * phase)]),
        dt=duration,
        slice_gradient=0.0,
    )


def hamming_sinc_pulse(flip: float, duration: float, slice_thickness: float,
                       time_bandwidth: float = 4.0, n_pieces: int = 256,
                       phase: float = 0.0) -> RfPulse:
    """Hamming-windowed sinc pulse with slice-select gradient.

    The gradient is chosen so the pulse bandwidth (time_bandwidth/duration)
    spans ``slice_thickness``.  Pieces are sampled at sub-interval midpoints,
    so the windowed envelope never contains an exactly-zero piece.  It is
    evaluated at the non-negative times and mirrored: samples[::-1] == samples.
    """
    if not np.all(np.isfinite((flip, phase))):
        raise ValueError("need finite flip and phase")
    if duration <= 0 or slice_thickness <= 0 or time_bandwidth <= 0:
        raise ValueError("duration, slice_thickness, time_bandwidth must be > 0")
    if n_pieces < 2:
        raise ValueError("need at least 2 pieces")
    dt = duration / n_pieces
    odd = n_pieces % 2
    t = (np.arange((n_pieces + 1) // 2) + 0.5 * (1 - odd)) * dt
    bandwidth = time_bandwidth / duration  # Hz
    window = 0.54 + 0.46 * np.cos(2.0 * np.pi * t / duration)
    envelope = np.sinc(bandwidth * t) * window
    envelope = np.concatenate((envelope[odd:][::-1], envelope))
    scale = flip / (np.sum(envelope) * dt)
    samples = scale * envelope * np.exp(1j * phase)
    slice_gradient = 2.0 * np.pi * bandwidth / slice_thickness
    return RfPulse(samples=samples, dt=dt, slice_gradient=slice_gradient)


@dataclass(frozen=True)
class SliceProfile:
    """Composite rotation per z, as its Cayley-Klein pair (alpha, beta)."""

    z_samples: np.ndarray   # m, uniform spacing
    alpha: np.ndarray       # (nz,) complex
    beta: np.ndarray        # (nz,) complex

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z_samples, dtype=float))
        a, b = (np.asarray(v, dtype=complex) for v in (self.alpha, self.beta))
        if a.shape != z.shape or b.shape != z.shape:
            raise ValueError("alpha and beta must have shape (nz,)")
        for name, value in zip(("z_samples", "alpha", "beta"), (z, a, b)):
            object.__setattr__(self, name, value)

    @property
    def rotations(self) -> np.ndarray:
        """(nz, 3, 3) rotations R(z): column j is the image of e_j."""
        a, b = self.alpha, self.beta
        mxy = (a.conj() ** 2 - b ** 2, 1j * (a.conj() ** 2 + b ** 2),
               2.0 * a.conj() * b)
        ab = a * b
        mz = (-2.0 * ab.real, -2.0 * ab.imag, longitudinal(a, b))
        return np.stack([np.stack([m.real for m in mxy], axis=-1),
                         np.stack([m.imag for m in mxy], axis=-1),
                         np.stack(mz, axis=-1)], axis=-2)


def default_z_grid(slice_thickness: float, n: int = 129,
                   half_span_factor: float = 2.0) -> np.ndarray:
    """Uniform z grid over +/- half_span_factor * slice_thickness, exactly
    mirror-symmetric about z = 0 for n >= 2 (a single sample sits at the
    lower end)."""
    span = half_span_factor * slice_thickness
    if n < 2:
        return np.linspace(-span, span, n)
    upper = np.linspace(span * (1 - n % 2) / (n - 1), span, (n + 1) // 2)
    return np.concatenate((-upper[n % 2:][::-1], upper))


def cayley_klein(pulse: RfPulse, b1_scales, z_samples):
    """Cayley-Klein parameters ``(alpha, beta)`` of a scaled pulse.

    Returns two C-contiguous complex arrays of shape
    ``np.shape(b1_scales) + (nz,)``: the composite spin-1/2 rotation
    ``[[alpha, -conj(beta)], [beta, conj(alpha)]]`` at every transmit scale
    and slice position (Pauly et al., IEEE TMI 10:53, 1991).  A piece with
    effective field ``omega`` and angle ``phi = omega*dt`` contributes
    ``alpha_p = cos(phi/2) - i*(dw/omega)*sin(phi/2)`` and ``beta_p =
    i*(amp/omega)*sin(phi/2)``.  A piece whose scaled amplitude is zero is
    the identity: the slice gradient alone does not rotate.

    Every piece's field lies on the pulse's RF axis ``u = exp(i*p)``, so the
    rotation at -z is the one at +z turned by pi about u: ``alpha(-z) =
    conj(alpha(z))`` and ``beta(-z) = -exp(2i*p)*conj(beta(z))``.  The
    product is taken once per distinct ``|z|``, with the piece factors
    computed a block of pieces at a time.

    On one RF axis each piece factor also has ``Q^T = D Q D^-1``, ``D =
    diag(1, exp(-2i*p))``.  So if the non-zero samples are exactly the same
    backwards, ``U = (D V D^-1)^T W``: V is the product of the first n//2
    pieces, W is V times the middle piece if n is odd, and only ceil(n/2)
    pieces are propagated.  Any other pulse takes the full product.
    """
    scales = np.asarray(b1_scales, dtype=float)
    samples = pulse.samples[pulse.samples != 0.0]
    symmetric, half = np.array_equal(samples, samples[::-1]), len(samples) // 2
    ks = scales.reshape(-1, 1)
    turn = np.exp(2j * pulse.axis_phase)
    z = np.atleast_1d(np.asarray(z_samples, dtype=float))
    abs_z, where = np.unique(np.abs(z), return_inverse=True)
    dw = np.where(ks != 0.0, pulse.slice_gradient * abs_z, 0.0)
    args = (ks, dw, pulse.dt)
    a_0 = np.ones(dw.shape, dtype=complex)
    b_0 = np.zeros(dw.shape, dtype=complex)
    if symmetric:
        a_v, b_v = _product(samples[:half], *args, a_0, b_0)
        a_w, b_w = _product(samples[half:len(samples) - half], *args, a_v, b_v)
        alpha = a_v * a_w + turn.conjugate() * b_v * b_w
        beta = a_v.conj() * b_w - turn * b_v.conj() * a_w
    else:
        alpha, beta = _product(samples, *args, a_0, b_0)
    alpha = np.take(alpha, where, axis=-1)
    beta = np.take(beta, where, axis=-1)
    below = z < 0.0
    np.conjugate(alpha, out=alpha, where=below)
    np.multiply(-turn, beta.conj(), out=beta, where=below)
    shape = scales.shape + z.shape
    return alpha.reshape(shape), beta.reshape(shape)


def _product(samples, ks, dw, dt, alpha, beta):
    """``(alpha, beta)`` carried through the pieces ``samples`` in order, at
    scales ``ks`` and off-resonances ``dw`` (scales x |z|), a block of
    pieces at a time."""
    per_block = max(1, _BLOCK_ELEMENTS // max(dw.size, 1))
    shape = (min(per_block, len(samples)),) + dw.shape
    size = int(np.prod(shape))
    # One allocation for the six block arrays, past glibc's mmap threshold:
    # freed, it goes back to the system instead of leaving a heap hole.
    store = np.empty(10 * size)
    buffers = [*store[:2 * size].reshape((2,) + shape),
               *store[2 * size:].view(complex).reshape((4,) + shape)]
    dw2 = dw * dw
    for start in range(0, len(samples), per_block):
        block = samples[start:start + per_block, None, None]
        om, so, a, b, a_c, b_c = (x[:len(block)] for x in buffers)
        np.sqrt(np.add((ks * np.abs(block)) ** 2, dw2, out=om), out=om)
        np.cos(np.multiply(om, dt / 2.0, out=so), out=a.real)
        np.divide(np.sin(so, out=so), om, out=so, where=om != 0.0)
        # 0 - x, not -x: zeros keep the sign cos - 1j*dw*sin/omega gives.
        np.subtract(0.0, np.multiply(dw, so, out=a.imag), out=a.imag)
        np.multiply((1j * block) * ks, so, out=b)
        for qa, qb, qa_c, qb_c in zip(a, b, np.conjugate(a, out=a_c),
                                      np.conjugate(b, out=b_c)):
            alpha, beta = qa * alpha - qb_c * beta, qb * alpha + qa_c * beta
    return alpha, beta


def chebyshev_coefficients(values) -> np.ndarray:
    """Coefficients ``c`` of ``sum_j c[j] T_j(x)`` through ``values`` (along
    the first axis) at the points ``x_i = cos(pi (i + 1/2) / n)``; summed
    elementwise, so that no BLAS thread count can change a bit."""
    n = len(values)
    cos = np.cos(np.outer(np.arange(n), np.pi * (np.arange(n) + 0.5) / n))
    coef = sum(np.multiply.outer(w, v) for w, v in zip(cos.T, values))
    coef *= 2.0 / n
    coef[0] *= 0.5
    return coef


def clenshaw(coef, x):
    """``sum_j coef[j] T_j(x)`` by Clenshaw's recurrence, elementwise: the
    trailing axes of ``coef`` broadcast against ``x``."""
    c0, c1, x2 = coef[-2], coef[-1], 2.0 * x
    for c in coef[-3::-1]:
        c0, c1 = c - c1, c0 + c1 * x2
    return c0 + c1 * x


@dataclass(frozen=True, eq=False)
class CayleyKleinSeries:
    """Chebyshev series in ``u = s^2`` of the Cayley-Klein parameters of
    ``pulse`` at every z and scale ``|s| <= scale_max``.

    A piece factor's ``alpha_p`` depends on ``s`` only through ``s^2`` and
    its ``beta_p`` is linear in ``s``, so ``alpha`` and ``beta / s`` are
    smooth in ``u``.  The pulse ``c * pulse`` at scale ``k`` is ``pulse`` at
    ``|c| k`` with ``beta`` turned by ``c / |c|``, so one series serves
    every multiple of the shape.
    """

    pulse: RfPulse
    scale_max: float
    z_samples: np.ndarray
    scales: np.ndarray    # the n node scales
    alpha: np.ndarray     # (n, nz) coefficients of alpha
    beta: np.ndarray      # (n, nz) coefficients of beta / s

    def argument(self, scales):
        """Chebyshev argument ``2 (s / scale_max)^2 - 1`` of scales ``s``."""
        return 2.0 * (np.asarray(scales) / self.scale_max) ** 2 - 1.0

    def cayley_klein(self, b1_scales):
        """:func:`cayley_klein` of the series' pulse on the series' z grid,
        read from the series.  ValueError for a scale beyond
        ``scale_max``."""
        scales = np.asarray(b1_scales, dtype=float)
        if np.any(np.abs(scales) > self.scale_max * (1.0 + 1e-9)):
            raise ValueError(f"scales beyond the series' {self.scale_max}")
        x = self.argument(scales).reshape(-1, 1)
        # As (re, im) pairs: a real x scales both parts exactly.
        alpha, beta = (clenshaw(f.view(float), x).view(complex)
                       for f in (self.alpha, self.beta))
        beta *= scales.reshape(-1, 1)
        shape = scales.shape + self.z_samples.shape
        return alpha.reshape(shape), beta.reshape(shape)


def cayley_klein_series(pulse: RfPulse, scale_max: float,
                        z_samples) -> CayleyKleinSeries:
    """The series of ``pulse`` up to ``scale_max`` from one
    :func:`cayley_klein` call at ``n = 8 + ceil(A * scale_max)`` Chebyshev
    points in ``u``, ``A`` the pulse's nutation area (Trefethen,
    Approximation Theory and Approximation Practice, ch. 8)."""
    area = np.sum(np.abs(pulse.samples)) * pulse.dt
    n = 8 + int(np.ceil(area * scale_max))
    scales = scale_max * np.sqrt(
        0.5 + 0.5 * np.cos(np.pi * (np.arange(n) + 0.5) / n))
    z = np.atleast_1d(np.asarray(z_samples, dtype=float))
    alpha, beta = cayley_klein(pulse, scales, z)
    return CayleyKleinSeries(pulse, scale_max, z, scales,
                             chebyshev_coefficients(alpha),
                             chebyshev_coefficients(beta / scales[:, None]))


def _lobe_phase(pulse: RfPulse, z) -> np.ndarray:
    """Phase ``-g*z*tau/2`` of the ideal slice-refocusing lobe at ``z``."""
    return -pulse.slice_gradient * z * (pulse.duration / 2.0)


def transverse(pulse: RfPulse, alpha, beta, z_samples) -> np.ndarray:
    """Rephased transverse response ``2*conj(alpha)*beta`` per unit +z
    magnetization, with the refocusing lobe's ``exp(-i*g*z*tau/2)``."""
    phi = _lobe_phase(pulse, np.asarray(z_samples, dtype=float))
    return 2.0 * alpha.conj() * beta * np.exp(1j * phi)


def longitudinal(alpha, beta) -> np.ndarray:
    """Remaining +z fraction ``|alpha|^2 - |beta|^2``."""
    return np.abs(alpha) ** 2 - np.abs(beta) ** 2


def refocusing_angle(alpha) -> np.ndarray:
    """Rotation angle in [0, pi] of the composite rotation,
    ``2*arccos|Re(alpha)|``; accurate near pi, unlike the trace."""
    return 2.0 * np.arccos(np.minimum(np.abs(alpha.real), 1.0))


def slice_profile(pulse: RfPulse, b1_scale: float,
                  z_samples: np.ndarray) -> SliceProfile:
    """Profile of a scaled pulse: its :func:`cayley_klein` pair per z."""
    z = np.atleast_1d(np.asarray(z_samples, dtype=float))
    return SliceProfile(z, *cayley_klein(pulse, b1_scale, z))


def integrated_transverse_curve(pulse: RfPulse, b1_scales,
                                z_samples) -> np.ndarray:
    """Slice-integrated rephased transverse response, one complex value per
    entry of ``b1_scales``: what a readout of unit longitudinal
    magnetization through this pulse would measure."""
    ks = np.atleast_1d(np.asarray(b1_scales, dtype=float))
    return integrate_slice(
        transverse(pulse, *cayley_klein(pulse, ks, z_samples), z_samples),
        z_samples)


def rephased(profile: SliceProfile, pulse: RfPulse) -> SliceProfile:
    """Apply the ideal slice-refocusing lobe (half the slice-select area,
    reversed), a z-rotation by ``phi = -g*z*tau/2`` that removes the
    excitation's linear phase: alpha turns by ``exp(-i*phi/2)``, beta by
    ``exp(+i*phi/2)``."""
    half = np.exp(0.5j * _lobe_phase(pulse, profile.z_samples))
    return SliceProfile(profile.z_samples, profile.alpha * half.conj(),
                        profile.beta * half)


def transverse_response(profile: SliceProfile) -> np.ndarray:
    """Transverse magnetization ``2*conj(alpha)*beta`` per unit +z, per z."""
    return 2.0 * profile.alpha.conj() * profile.beta


def integrate_slice(values, z_samples) -> complex:
    """Uniform Riemann sum over the last axis: each sample is the value of a
    cell of width equal to the grid spacing, so a constant c over n samples
    spaced h apart integrates to ``c * n * h``.  A single sample integrates
    with unit weight."""
    values = np.atleast_1d(np.asarray(values))
    z = np.atleast_1d(np.asarray(z_samples, dtype=float))
    if values.shape[-1] != z.size:
        raise ValueError(
            f"length mismatch: {values.shape[-1]} values, {z.size} z samples"
        )
    if z.size == 1:
        return values.sum(axis=-1)
    h = (z[-1] - z[0]) / (z.size - 1)
    return values.sum(axis=-1) * h
