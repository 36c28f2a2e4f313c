"""Exact spectral solutions of the linear equation on a periodic 1-D grid.

The spatial domain is a torus of circumference ``Lx`` sampled at ``M``
equispaced nodes; this replaces the real line so that propagation, Green
lifts and Sobolev norms are all exact per Fourier mode.  DFT convention:
forward unnormalised, inverse ``1/M``; the mode amplitudes used below are
``c_k = fft(field)[k] / M`` so that ``field(x_j) = sum_k c_k e^{i xi_k x_j}``
exactly at the nodes, and the discrete Parseval identity reads
``sum_j |f_j|^2 dx = Lx sum_k |c_k|^2``.

Dispersion kinds:

* ``klein_gordon``: second order, per-mode frequency
  ``eps(xi) = sqrt(m^2 + xi^2)``.  The massless ``xi = 0`` mode uses the
  exact limit ``sin(eps t)/eps -> t``.
* ``schrodinger``: first order, per-mode phase ``omega(xi) = -xi^2``
  (from ``i du/dt + Laplacian u = 0``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "DispersionRelation",
    "CauchyData",
    "FreeSolution",
    "propagate",
    "make_free_solution",
    "sample_at",
    "green_apply",
    "sobolev_norm",
    "cau_norm",
    "energy",
    "propagator_bound",
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

    @property
    def dx(self) -> float:
        return self.Lx / self.M

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.M) * self.dx

    @property
    def xi(self) -> np.ndarray:
        """Mode frequencies in the standard FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.M, d=self.dx)


@dataclass(frozen=True)
class DispersionRelation:
    kind: str
    m: float = 0.0

    def __post_init__(self):
        if self.kind not in (KLEIN_GORDON, SCHRODINGER):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if self.m < 0:
            raise ValueError("mass must be nonnegative")

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

    @staticmethod
    def zero(grid: Grid, disp: DispersionRelation, t: float = 0.0) -> "CauchyData":
        chi = np.zeros(grid.M) if disp.second_order else None
        return CauchyData(grid, np.zeros(grid.M), chi, t)


@dataclass(frozen=True)
class FreeSolution:
    """A solution of the linear equation, charted by its Cauchy data at time 0."""

    chart_data: CauchyData

    def __post_init__(self):
        if self.chart_data.t != 0.0:
            raise ValueError("chart data must be anchored at the reference time 0")


def _modes(grid: Grid, field: np.ndarray) -> np.ndarray:
    return np.fft.fft(field) / grid.M


def _field(grid: Grid, modes: np.ndarray, real: bool) -> np.ndarray:
    out = np.fft.ifft(modes * grid.M)
    return out.real if real else out


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
    c = np.cos(eps * s)
    # s * sinc(eps s / pi) = sin(eps s)/eps, exact at eps = 0
    snc = s * np.sinc(eps * s / np.pi)
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


def green_apply(disp: DispersionRelation, grid: Grid, t: float, f: np.ndarray) -> FreeSolution:
    """Green lift of a source field concentrated on the slice ``x^0 = t``.

    For second-order kinds the homogeneous Green kernel vanishes on its
    source slice with unit velocity, so the lifted solution has Cauchy
    data ``(0, f)`` at ``t``; for first-order kinds the kernel restricts
    to the identity and the data is ``(f,)``.
    """
    f = np.asarray(f)
    if disp.second_order:
        data = CauchyData(grid, np.zeros(grid.M, dtype=f.dtype), f, t)
    else:
        data = CauchyData(grid, f, None, t)
    return make_free_solution(disp, data)


def sobolev_norm(data: CauchyData, s: float, r_order: int, m_ref: float) -> float:
    """Discrete ``H^s`` norm of psi plus ``H^{s-r}`` norm of chi.

    ``||f||_{H^s}^2 = Lx sum_k <xi_k>^{2s} |c_k|^2`` with
    ``<xi> = sqrt(m_ref^2 + xi^2)``; Parseval-exact at ``s = 0``.
    """
    if not m_ref > 0:
        raise ValueError("m_ref must be positive")
    grid = data.grid
    w = np.sqrt(m_ref**2 + grid.xi**2)
    total = np.sqrt(grid.Lx * np.sum(w ** (2 * s) * np.abs(_modes(grid, data.psi)) ** 2))
    if data.chi is not None:
        total += np.sqrt(
            grid.Lx * np.sum(w ** (2 * (s - r_order)) * np.abs(_modes(grid, data.chi)) ** 2)
        )
    return float(total)


def cau_norm(disp: DispersionRelation, data: CauchyData, s: float, m_ref: float) -> float:
    return sobolev_norm(data, s, disp.r_order, m_ref)


def energy(disp: DispersionRelation, data: CauchyData) -> float:
    """Conserved quadratic form of the spectral scheme (Klein-Gordon only)."""
    if not disp.second_order:
        raise ValueError("energy is defined for the second-order kind")
    grid = data.grid
    eps = disp.eps(grid.xi)
    ph, ch = _modes(grid, data.psi), _modes(grid, data.chi)
    return float(0.5 * grid.Lx * np.sum(np.abs(ch) ** 2 + eps**2 * np.abs(ph) ** 2))


def propagator_bound(disp: DispersionRelation, grid: Grid, T: float, s: float, m_ref: float) -> float:
    """Certified bound for the Cauchy-norm operator norm of propagation by |tau| <= T.

    Per mode the propagator is the 2x2 block
    ``[[cos th, beta sin th], [-sin th / beta, cos th]]`` acting on the
    weighted components, with ``th = eps |tau|`` and
    ``beta = <xi>^r / eps``.  The bound is the worst column sum with the
    trig factor maximised over the reachable angles.
    """
    if disp.kind == SCHRODINGER:
        return 1.0  # unitary per mode
    eps = disp.eps(grid.xi)
    w = np.sqrt(m_ref**2 + grid.xi**2)
    rot = eps > 0.0
    best = 1.0
    beta = w[rot] ** disp.r_order / eps[rot]
    theta_max = eps[rot] * abs(T)
    for gamma_arr in (beta, 1.0 / beta):
        # sup over |theta| <= theta_max of |cos theta| + gamma |sin theta|,
        # attained at arctan(gamma) or at the end of the reachable arc
        peak = np.arctan(gamma_arr)
        capped = np.minimum(theta_max, peak)
        vals = np.where(
            theta_max >= peak,
            np.hypot(1.0, gamma_arr),
            np.cos(capped) + gamma_arr * np.sin(capped),
        )
        best = max(best, float(vals.max()))
    if np.any(~rot):
        # massless zero mode drifts linearly: [[1, tau w^r], [0, 1]] on the
        # weighted components
        g0 = abs(T) * float(w[~rot][0] ** disp.r_order)
        best = max(best, 1.0 + g0)
    return best


# ---------------------------------------------------------------------------
# field snapshots
# ---------------------------------------------------------------------------


def save_snapshot(disp: DispersionRelation, data: CauchyData, path: str) -> None:
    """CSV with columns (x, psi, chi) behind a JSON header comment line."""
    grid = data.grid
    header = {"M": grid.M, "Lx": grid.Lx, "kind": disp.kind, "m": disp.m, "t": data.t}
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header) + "\n")
        fh.write("x,psi,chi\n")
        for j in range(grid.M):
            psi = data.psi[j]
            psi_txt = repr(complex(psi)) if np.iscomplexobj(data.psi) else repr(float(psi))
            chi_txt = "" if data.chi is None else repr(float(data.chi[j].real))
            fh.write(f"{float(grid.x[j])!r},{psi_txt},{chi_txt}\n")


def load_snapshot(path: str) -> tuple[DispersionRelation, CauchyData]:
    with open(path) as fh:
        header = json.loads(fh.readline().lstrip("# "))
        fh.readline()  # column names
        psi, chi = [], []
        for line in fh:
            _, p, c = line.rstrip("\n").split(",")
            psi.append(complex(p.strip("()")) if "j" in p else float(p))
            chi.append(float(c) if c else None)
    grid = Grid(header["M"], header["Lx"])
    disp = DispersionRelation(header["kind"], header["m"])
    chi_arr = None if chi[0] is None else np.array(chi)
    return disp, CauchyData(grid, np.array(psi), chi_arr, header["t"])
