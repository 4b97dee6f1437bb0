"""DFT helpers shared by the distribution calculus and the estimator.

All grids are uniform on circles, so derivatives are taken spectrally:
multiply by (2 pi i k)^order in frequency space, with the Nyquist bin
zeroed for every order >= 1.  On band-limited data this is exact (it is
the limiting case of centered difference stencils of increasing order),
and the operator powers compose exactly: D^a D^b = D^(a+b).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI_I = 2.0j * math.pi


def freq_integers(n: int) -> np.ndarray:
    """Signed integer frequencies in FFT order (Nyquist negative)."""
    return np.fft.fftfreq(n, d=1.0 / n)


def derivative_symbol(n: int, order: int) -> np.ndarray:
    """(2 pi i k)^order with the Nyquist bin forced to zero."""
    k = freq_integers(n)
    sym = (TWO_PI_I * k) ** order
    if order >= 1 and n % 2 == 0:
        sym[n // 2] = 0.0
    return sym


def spectral_derivative(values: np.ndarray, axis: int, order: int) -> np.ndarray:
    """order-th derivative along ``axis`` of a periodic grid function."""
    if order == 0:
        return np.asarray(values, dtype=complex)
    values = np.asarray(values, dtype=complex)
    n = values.shape[axis]
    sym = derivative_symbol(n, order)
    shape = [1] * values.ndim
    shape[axis] = n
    spec = np.fft.fft(values, axis=axis) * sym.reshape(shape)
    return np.fft.ifft(spec, axis=axis)


def band_limited_field(shape: tuple[int, ...], band: int,
                       rng: np.random.Generator, real: bool = True) -> np.ndarray:
    """Random smooth field with Fourier support |k_i| <= band per axis,
    normalized to unit sup norm."""
    spec = np.zeros(shape, dtype=complex)
    idx_ranges = [np.r_[0:band + 1, -band:0] for _ in shape]
    mesh = np.meshgrid(*idx_ranges, indexing="ij")
    coeffs = (rng.standard_normal(mesh[0].shape)
              + 1j * rng.standard_normal(mesh[0].shape))
    spec[tuple(m for m in mesh)] = coeffs
    field = np.fft.ifftn(spec) * float(np.prod(shape))
    if real:
        field = field.real.astype(complex)
    return field / float(np.max(np.abs(field)))


def dft_coefficients(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients c_k = (1/N) sum f e^{-2 pi i k x} (any rank)."""
    values = np.asarray(values, dtype=complex)
    return np.fft.fftn(values) / float(np.prod(values.shape))


def dft_tail_max(values_1d: np.ndarray, beyond: int) -> float:
    """Largest Fourier-coefficient magnitude at |k| > ``beyond``."""
    c = dft_coefficients(values_1d)
    n = len(c)
    k = np.abs(freq_integers(n))
    mask = k > beyond
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(c[mask])))


def bump(t: np.ndarray) -> np.ndarray:
    """The standard compactly supported bump exp(1 - 1/(1 - t^2)) on (-1,1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out
