"""scipy's compiled band-pass and peak-finding kernels, loaded without ``scipy.signal``.

The glue is ported from scipy 1.17's ``_filter_design.py``, ``_signaltools.py``
and ``_peak_finding.py`` (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc.
2003, SciPy Developers), cut to the one way rrcif calls ``butter``,
``sosfiltfilt`` and ``find_peaks``. If the extensions cannot be loaded, the
fallback at the end of this module uses scipy's public functions instead. See
README's process model for why, and for what each command loads.
"""

from __future__ import annotations

import importlib.util
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path

import numpy as np

# the compiled functions used, by extension, with the parameters each must take
_KERNELS = {
    "_sosfilt": {"_sosfilt": ("sos", "x", "zi")},
    "_peak_finding_utils": {
        "_local_maxima_1d": ("x",),
        "_select_by_peak_distance": ("peaks", "priority", "distance"),
        "_peak_prominences": ("x", "peaks", "wlen"),
    },
}


def _load_kernels():
    """The functions named in _KERNELS, in order, from extensions loaded by file path.

    Raises ImportError when an extension is missing or a function's parameters differ.
    """
    import scipy

    directory = Path(scipy.__file__).parent / "signal"
    functions = []
    for module_name, signatures in _KERNELS.items():
        path = next((p for p in (directory / (module_name + s) for s in EXTENSION_SUFFIXES) if p.is_file()), None)
        if path is None:
            raise ImportError(f"no {module_name} extension in {directory}")
        name = f"scipy.signal.{module_name}"
        loader = ExtensionFileLoader(name, str(path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
        for function_name, parameters in signatures.items():
            function = getattr(module, function_name)
            found = function.__code__.co_varnames[: function.__code__.co_argcount]
            if found != parameters:
                raise ImportError(f"{name}.{function_name} takes {found}, not {parameters}")
            functions.append(function)
    return functions


def _poly(roots):
    """Polynomial coefficients with the given roots, real when they come in conjugate pairs."""
    roots = np.asarray(roots)
    a = np.ones((1,), dtype=roots.dtype)
    for root in roots:
        a = np.convolve(a, np.stack((np.ones_like(root), -root)), mode="full")
    if np.iscomplexobj(a) and np.all(np.sort(roots.imag) == np.sort(roots.conj().imag)):
        a = a.real.copy()
    return a


def _cplxreal(z):
    """(one of each conjugate pair, the real values) of `z`, both sorted by real part."""
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real = abs(z.imag) <= tol * abs(z)
    upper, lower = z[~real & (z.imag > 0)], z[~real & (z.imag < 0)]
    return (upper + lower.conj()) / 2, z[real].real


def bandpass_sos(order, band, fs):
    """``scipy.signal.butter(order, band, "bandpass", output="sos", fs=fs)``."""
    # iirfilter: pre-warp the band edges for the bilinear transform at fs = 2
    warped = 2 * 2.0 * np.tan(np.pi * (np.asarray(band, dtype=np.float64) / (float(fs) / 2)) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    # buttap, then lp2bp_zpk: each low-pass pole becomes two band-pass poles, and `order` zeros sit at 0
    p = (-np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=np.float64) / (2 * order)) * bw / 2).astype(np.complex128)
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    z = np.zeros(order, dtype=np.complex128)
    # bilinear_zpk at fs = 2: the `order` zeros at infinity map to -1
    k = 1.0 * bw**order * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))
    z = np.sort(np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(order))).real)  # every zero is +1 or -1
    p = np.concatenate(_cplxreal((4.0 + p) / (4.0 - p)))
    # zpk2sos, "nearest" pairing: the pole nearest the unit circle goes in the last section,
    # with its conjugate (or the next such real pole) and the two zeros nearest it; every zero is real
    sos = np.zeros(((len(z) + 1) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            i = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[si] = np.concatenate((_poly(zeros), _poly([p1, p2])))
    sos[0][:3] *= k
    return sos


def _sosfilt_zi(sos):
    """Each section's initial state for a unit step input, as ``scipy.signal.sosfilt_zi``."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        # lfilter_zi with a[0] == 1: solve (I - companion(a).T) zi = b[1:] - a[1:] b[0]
        zi[section] = scale * np.linalg.solve(np.eye(2) - np.array([[-a[1], 1.0], [-a[2], 0.0]]), b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _filter(sos, x, zi):
    """``scipy.signal.sosfilt(sos, x, zi=zi)[0]`` for a 1-D float64 `x`; `zi` is overwritten."""
    y = np.array(x.reshape(1, -1), np.float64, order="C")
    _sosfilt(sos, y, np.ascontiguousarray(zi.reshape(1, -1, 2)))
    return y.reshape(x.shape)


def sosfiltfilt(sos, x, padlen):
    """``scipy.signal.sosfiltfilt(sos, x, padlen=padlen)`` for a 1-D float64 `x` longer than `padlen`."""
    ext = np.concatenate((2 * x[0:1] - x[padlen:0:-1], x, 2 * x[-1:] - x[-2 : -(padlen + 2) : -1]))
    zi = _sosfilt_zi(sos)
    y = _filter(sos, ext, zi * ext[:1])
    y = _filter(sos, y[::-1], zi * y[-1:])
    return y[::-1][padlen:-padlen]


def find_peaks(x, distance):
    """``scipy.signal.find_peaks(x, distance=distance, prominence=0)``, as (peaks, prominences)."""
    x = np.asarray(x, order="C", dtype=np.float64)
    peaks, _, _ = _local_maxima_1d(x)
    peaks = peaks[_select_by_peak_distance(peaks, x[peaks], distance)]
    prominences, _, _ = _peak_prominences(x, peaks, -1)  # wlen -1: the whole record
    return peaks, prominences


try:
    _sosfilt, _local_maxima_1d, _select_by_peak_distance, _peak_prominences = _load_kernels()
except (ImportError, OSError, AttributeError):  # the one switch point: scipy's public functions
    from scipy import signal

    def bandpass_sos(order, band, fs):
        return signal.butter(order, band, btype="bandpass", output="sos", fs=fs)

    def sosfiltfilt(sos, x, padlen):
        return signal.sosfiltfilt(sos, x, padlen=padlen)

    def find_peaks(x, distance):
        peaks, properties = signal.find_peaks(x, distance=distance, prominence=(None, None))
        return peaks, properties["prominences"]
