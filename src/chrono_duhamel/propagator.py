"""Exact spectral solutions of the linear equation on a periodic 1-D grid.

The spatial domain is a torus of circumference ``Lx`` sampled at ``M``
equispaced nodes; this replaces the real line so that propagation and
Sobolev norms are exact per Fourier mode.  DFT convention:
forward unnormalised, inverse ``1/M``; the mode amplitudes used below are
``c_k = fft(field)[k] / M`` so that ``field(x_j) = sum_k c_k e^{i xi_k x_j}``
exactly at the nodes, and the discrete Parseval identity reads
``sum_j |f_j|^2 dx = Lx sum_k |c_k|^2``.

Every transform of the package goes through one private pair, ``_fft`` and
``_ifft``, which call NumPy's pocketfft gufuncs directly and give the bits
of ``numpy.fft.fft`` and ``numpy.fft.ifft``: at these grid sizes the
argument handling of ``numpy.fft`` costs more than the transform.

Dispersion kinds:

* ``klein_gordon``: second order, per-mode frequency
  ``eps(xi) = sqrt(m^2 + xi^2)``.  The massless ``xi = 0`` mode uses the
  exact limit ``sin(eps t)/eps -> t``.
* ``schrodinger``: first order, per-mode phase ``omega(xi) = -xi^2``
  (from ``i du/dt + Laplacian u = 0``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath

__all__ = [
    "Grid",
    "DispersionRelation",
    "CauchyData",
    "FreeSolution",
    "propagate",
    "make_free_solution",
    "sample_at",
    "cau_norm",
    "energy",
    "save_snapshot",
    "load_snapshot",
]

KLEIN_GORDON = "klein_gordon"
SCHRODINGER = "schrodinger"


@dataclass(frozen=True)
class Grid:
    """Periodic grid with M nodes (power of two) on a circle of length Lx."""

    M: int
    Lx: float

    def __post_init__(self):
        if self.M < 4 or self.M & (self.M - 1):
            raise ValueError("M must be a power of two >= 4")
        if not self.Lx > 0:
            raise ValueError("Lx must be positive")
        # ``eps`` and the Sobolev weights square the frequencies
        if not math.isfinite(self.xi_max * self.xi_max):
            raise ValueError(
                f"Lx = {self.Lx!r} is too small for M = {self.M}: the largest frequency squared overflows"
            )

    @property
    def dx(self) -> float:
        return self.Lx / self.M

    @property
    def xi_max(self) -> float:
        """The largest ``|xi|``, as ``xi`` forms it."""
        return 2.0 * math.pi * (self.M // 2 * (1.0 / (self.M * self.dx))) if self.dx > 0 else math.inf

    @cached_property
    def x(self) -> np.ndarray:
        """Node positions, built on first access and read-only."""
        x = np.arange(self.M) * self.dx
        x.setflags(write=False)
        return x

    @cached_property
    def xi(self) -> np.ndarray:
        """Mode frequencies in the standard FFT layout, built on first access and read-only."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.dx)
        xi.setflags(write=False)
        return xi


@dataclass(frozen=True)
class DispersionRelation:
    kind: str
    m: float = 0.0

    def __post_init__(self):
        if self.kind not in (KLEIN_GORDON, SCHRODINGER):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if self.m < 0:
            raise ValueError("mass must be nonnegative")
        # ``eps`` squares the mass
        if not math.isfinite(float(self.m) * float(self.m)):
            raise ValueError(f"mass = {self.m!r} has no finite square")

    @property
    def second_order(self) -> bool:
        return self.kind == KLEIN_GORDON

    @property
    def r_order(self) -> int:
        """Order gap between the field trace and the velocity trace."""
        return 1 if self.kind == KLEIN_GORDON else 2

    def eps(self, xi: np.ndarray) -> np.ndarray:
        return np.sqrt(self.m**2 + xi**2)

    def phase(self, xi: np.ndarray) -> np.ndarray:
        return -(xi**2)


@dataclass(frozen=True)
class CauchyData:
    """Field trace (and velocity trace for second-order kinds) at a time slice."""

    grid: Grid
    psi: np.ndarray
    chi: np.ndarray | None
    t: float

    def __init__(self, grid: Grid, psi, chi=None, t: float = 0.0):
        psi = np.asarray(psi)
        if psi.shape != (grid.M,):
            raise ValueError("psi length must match the grid")
        psi = psi.copy()
        psi.setflags(write=False)
        if chi is not None:
            chi = np.asarray(chi)
            if chi.shape != (grid.M,):
                raise ValueError("chi length must match the grid")
            chi = chi.copy()
            chi.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "t", float(t))

    @classmethod
    def _frozen(cls, grid: Grid, psi: np.ndarray, chi: np.ndarray | None = None, t: float = 0.0):
        """Cauchy data on read-only rows of read-only memory, taken as they are: no check, no copy."""
        data = object.__new__(cls)
        data.__dict__.update(grid=grid, psi=psi, chi=chi, t=t)
        return data


@dataclass(frozen=True)
class FreeSolution:
    """A solution of the linear equation, charted by its Cauchy data at time 0."""

    chart_data: CauchyData

    def __post_init__(self):
        if self.chart_data.t != 0.0:
            raise ValueError("chart data must be anchored at the reference time 0")


def _fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled forward DFT of float64 or complex128 ``a`` along its last axis.

    Bit for bit what ``numpy.fft.fft(a, out=out)`` returns: it calls the
    pocketfft gufunc that function ends in, with the same factor 1, and
    skips the argument handling in Python that costs more than the
    transform itself at the grid sizes here.
    """
    if out is None:
        out = np.empty(a.shape, complex)
    return _pocketfft_umath.fft(a, 1.0, out=out)


def _ifft(a: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse DFT of float64 or complex128 ``a`` along its last axis, times ``scale``.

    Bit for bit what ``numpy.fft.ifft(a, out=out)`` returns for ``scale =
    1 / n`` and ``numpy.fft.ifft(a, norm="forward", out=out)`` for ``scale =
    1``; like ``_fft`` it calls the pocketfft gufunc directly.
    """
    if out is None:
        out = np.empty(a.shape, complex)
    return _pocketfft_umath.ifft(a, scale, out=out)


def _modes(grid: Grid, field: np.ndarray) -> np.ndarray:
    return _fft(field) / grid.M


def _field(grid: Grid, modes: np.ndarray, real: bool) -> np.ndarray:
    out = _ifft(modes * grid.M, 1 / grid.M)
    return out.real if real else out


def _wave_factors(eps: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode ``cos(eps s)`` and ``sin(eps s)/eps`` of the second-order propagator.

    ``s * sinc(eps s / pi)`` is ``sin(eps s)/eps`` with its exact limit ``s``
    at ``eps = 0``.
    """
    return np.cos(eps * s), s * np.sinc(eps * s / np.pi)


# a span whose phases overflow gives non-finite data, which every caller checks
@np.errstate(over="ignore", invalid="ignore")
def propagate(disp: DispersionRelation, data: CauchyData, tau: float) -> CauchyData:
    """Exact per-mode propagation of Cauchy data from ``data.t`` to ``tau``."""
    grid = data.grid
    s = tau - data.t
    if s == 0.0:
        return CauchyData(grid, data.psi, data.chi, tau)
    xi = grid.xi
    if disp.kind == SCHRODINGER:
        phase = np.exp(1j * disp.phase(xi) * s)
        psi = _field(grid, phase * _modes(grid, data.psi), real=False)
        return CauchyData(grid, psi, None, tau)
    if data.chi is None:
        raise ValueError("klein_gordon data needs a velocity trace")
    eps = disp.eps(xi)
    c, snc = _wave_factors(eps, s)
    ms = eps * np.sin(eps * s)
    ph, ch = _modes(grid, data.psi), _modes(grid, data.chi)
    new_ph = c * ph + snc * ch
    new_ch = -ms * ph + c * ch
    real = np.isrealobj(data.psi) and np.isrealobj(data.chi)
    return CauchyData(grid, _field(grid, new_ph, real), _field(grid, new_ch, real), tau)


def make_free_solution(disp: DispersionRelation, data: CauchyData) -> FreeSolution:
    """The unique linear solution matching ``data`` at its anchor time."""
    return FreeSolution(propagate(disp, data, 0.0))


def sample_at(disp: DispersionRelation, phi: FreeSolution, tau: float) -> CauchyData:
    return propagate(disp, phi.chart_data, tau)


def _bracket(xi: np.ndarray, m_ref: float) -> np.ndarray:
    """``<xi> = sqrt(m_ref^2 + xi^2)``; ``FloatingPointError`` names an ``m_ref`` for which it overflows."""
    # a NumPy square overflows to inf where Python's ** raises OverflowError
    with np.errstate(over="ignore"):
        w = np.sqrt(np.float64(m_ref) ** 2 + xi**2)
    if not np.all(np.isfinite(w)):
        raise FloatingPointError(f"<xi> = sqrt(m_ref^2 + xi^2) overflows for m_ref = {m_ref!r}")
    return w


def _weight_powers(w: np.ndarray, *exponents: float) -> list[np.ndarray]:
    """``w ** e`` for each exponent; ``FloatingPointError`` when one overflows.

    A tiny ``m_ref`` (``m_ref**2`` underflows to 0) makes ``w = 0`` at
    ``xi = 0``, where a negative power is infinite.
    """
    with np.errstate(divide="ignore", over="ignore"):
        out = [w**e for e in exponents]
    if not all(np.all(np.isfinite(x)) for x in out):
        raise FloatingPointError(f"Sobolev weights overflow: min <xi> = {float(np.min(w))!r}")
    return out


def _sobolev_norms(grid: Grid, psi_modes, chi_modes, s: float, r_order: int, m_ref: float):
    """``cau_norm`` of mode arrays: one norm per row of ``(..., M)`` modes."""
    if not m_ref > 0:
        raise ValueError("m_ref must be positive")
    w = _bracket(grid.xi, m_ref)
    (w_psi,) = _weight_powers(w, 2 * s)
    total = _weighted_l2(grid, w_psi, psi_modes)
    if chi_modes is not None:
        (w_chi,) = _weight_powers(w, 2 * (s - r_order))
        total += _weighted_l2(grid, w_chi, chi_modes)
    return total


def _weighted_l2(grid: Grid, weight: np.ndarray, modes) -> np.ndarray:
    """``sqrt(Lx sum weight |modes|^2)`` per row, squared after scaling by a power of two.

    Each row is scaled by ``2^-e`` with ``e`` the exponent of its largest
    magnitude, so the squares neither underflow nor overflow; a power of
    two scales exactly, and the root undoes it exactly.
    """
    mag = np.abs(modes)
    _, e = np.frexp(np.max(mag, axis=-1, keepdims=True))
    root = np.sqrt(grid.Lx * np.sum(weight * np.ldexp(mag, -e) ** 2, axis=-1))
    return np.ldexp(root, e[..., 0])


def cau_norm(disp: DispersionRelation, data: CauchyData, s: float, m_ref: float) -> float:
    """Discrete ``H^s`` norm of psi plus ``H^{s-r}`` norm of chi, ``r = disp.r_order``.

    ``||f||_{H^s}^2 = Lx sum_k <xi_k>^{2s} |c_k|^2`` with
    ``<xi> = sqrt(m_ref^2 + xi^2)``; Parseval-exact at ``s = 0``.
    """
    grid = data.grid
    chi = None if data.chi is None else _modes(grid, data.chi)
    return float(_sobolev_norms(grid, _modes(grid, data.psi), chi, s, disp.r_order, m_ref))


def _energies(disp: DispersionRelation, grid: Grid, psi_modes, chi_modes):
    """``energy`` of mode arrays: one value per row of ``(..., M)`` modes."""
    eps = disp.eps(grid.xi)
    return 0.5 * grid.Lx * np.sum(np.abs(chi_modes) ** 2 + eps**2 * np.abs(psi_modes) ** 2, axis=-1)


def energy(disp: DispersionRelation, data: CauchyData) -> float:
    """Conserved quadratic form of the spectral scheme (Klein-Gordon only)."""
    if not disp.second_order:
        raise ValueError("energy is defined for the second-order kind")
    grid = data.grid
    return float(_energies(disp, grid, _modes(grid, data.psi), _modes(grid, data.chi)))


# ---------------------------------------------------------------------------
# field snapshots
# ---------------------------------------------------------------------------


def save_snapshot(disp: DispersionRelation, data: CauchyData, path: str) -> None:
    """CSV behind a JSON header comment line: columns (x, psi, chi) for a second-order kind,
    (x, psi_re, psi_im) for a first-order one, every cell a float."""
    grid = data.grid
    header = {"M": grid.M, "Lx": grid.Lx, "kind": disp.kind, "m": disp.m, "t": data.t}
    if data.chi is None:
        names, cols = "x,psi_re,psi_im", (data.psi.real, data.psi.imag)
    else:
        names, cols = "x,psi,chi", (data.psi.real, data.chi.real)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write(names + "\n")
        for x, a, b in zip(grid.x.tolist(), *(c.tolist() for c in cols)):
            fh.write(f"{x!r},{a!r},{b!r}\n")


def load_snapshot(path: str) -> tuple[DispersionRelation, CauchyData]:
    with open(path) as fh:
        header = json.loads(fh.readline().lstrip("# "))
        first_order = fh.readline().rstrip("\n") == "x,psi_re,psi_im"
        psi, chi = [], []
        for line in fh:
            _, p, c = line.rstrip("\n").split(",")
            if first_order:
                psi.append(complex(float(p), float(c)))
            else:
                psi.append(float(p))
                chi.append(float(c) if c else None)
    grid = Grid(header["M"], header["Lx"])
    disp = DispersionRelation(header["kind"], header["m"])
    chi_arr = None if first_order or chi[0] is None else np.array(chi)
    return disp, CauchyData(grid, np.array(psi), chi_arr, header["t"])
