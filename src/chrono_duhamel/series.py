"""One-variable majorant calculus.

A majorant series is a power series ``X(z) = sum_p X_p z^p`` with
nonnegative coefficients, stored densely up to a finite degree.  Such a
series acts in two ways:

* as a dominating envelope: evaluating it at a norm bounds the value of
  a vector-valued series whose per-degree coefficient norms it dominates;
* as a holomorphic vector field ``X(z) d/dz`` on a complex disc: its
  flow ``e^{tX}(z)`` transports radii of convergence, and the backward
  flow ``e^{-TX}(R)`` measures how much radius is lost when transporting
  a functional over a time span ``T``.

All series here are treated as exact polynomials: every stored
coefficient is meaningful and no tail is implied.  ``truncation_degree``
records the highest stored degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

__all__ = [
    "MajorantSeries",
    "FlowResult",
    "eval_series",
    "derivative",
    "gamma_constant",
    "flow",
    "guaranteed_time",
    "apply_majorant_operator",
]

#: Default blow-down detection floor: the condition "the backward flow stays
#: positive" is realised numerically as "stays above this value".
DEFAULT_FLOOR = 1e-12

#: Values beyond this magnitude are reported as blow-up.
DEFAULT_CAP = 1e12

#: Number of consecutive decreasing terms after which the supremum scan in
#: the comparison constant terminates.  Past the maximising index the terms
#: p!/(p-k)! (r/R)^p are strictly log-concave-decreasing, so a long run of
#: decreases certifies the supremum was already seen.
_GAMMA_DECREASE_RUN = 50


@dataclass(frozen=True)
class MajorantSeries:
    """Finite power series with nonnegative coefficients.

    ``coeffs[p]`` is the coefficient of ``z**p``.  An empty coefficient
    sequence is the zero series.
    """

    coeffs: np.ndarray
    truncation_degree: int

    def __init__(self, coeffs, truncation_degree: int | None = None):
        arr = np.asarray(coeffs, dtype=float).reshape(-1).copy()
        if arr.size and arr.min() < 0.0:
            raise ValueError("majorant coefficients must be nonnegative")
        arr.setflags(write=False)
        if truncation_degree is None:
            truncation_degree = max(arr.size - 1, 0)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "truncation_degree", int(truncation_degree))

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0 or not self.coeffs.any()

    @property
    def min_order(self) -> int:
        """Degree of the lowest nonzero coefficient (0 for the zero series)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[0]) if nz.size else 0


@dataclass(frozen=True)
class FlowResult:
    """Outcome of integrating ``dz/ds = (+/-) X(z)``.

    ``status`` is one of ``"completed"``, ``"blew_up"``, ``"hit_zero"``.
    ``time_reached`` is the (unsigned) arc length actually covered; for a
    completed flow it equals ``|t|``.
    """

    value: complex
    time_reached: float
    status: str

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def eval_series(series: MajorantSeries, z: float) -> float:
    """Evaluate the finite sum ``sum_p coeffs[p] z^p`` at ``z >= 0``.

    Exact finite sum over the stored coefficients; no extrapolation.
    """
    if isinstance(z, complex):
        raise TypeError("eval_series is defined for nonnegative real z")
    if z < 0:
        raise ValueError("eval_series requires z >= 0")
    return _polyval(series.coeffs, float(z))


def _polyval(coeffs: np.ndarray, z: complex) -> complex:
    # Horner on the raw coefficient array; accepts complex arguments for
    # internal flow use.
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def derivative(series: MajorantSeries, k: int) -> MajorantSeries:
    """k-th derivative series: coefficient j becomes (j+k)!/j! * coeffs[j+k]."""
    if k < 0:
        raise ValueError("k must be >= 0")
    c = series.coeffs
    if k == 0:
        return MajorantSeries(c, series.truncation_degree)
    if k >= c.size:
        return MajorantSeries(np.zeros(0), 0)
    j = np.arange(c.size - k, dtype=float)
    # (j+k)!/j! through log-gamma; degrees stay small enough that float
    # rounding is the only loss.
    fac = np.exp(gammaln(j + k + 1) - gammaln(j + 1))
    return MajorantSeries(fac * c[k:], max(series.truncation_degree - k, 0))


def gamma_constant(r: float, R: float, k: int) -> float:
    """Comparison constant between a derivative at ``r`` and the sum at ``R``.

    Returns ``r**(-k) * sup_{p>=k} p!/(p-k)! (r/R)^p``.  The supremum is
    attained at a finite index because the terms eventually decrease
    geometrically; the scan stops after a documented run of consecutive
    decreases.
    """
    if not (0.0 < r < R):
        raise ValueError("gamma_constant requires 0 < r < R")
    if k < 0:
        raise ValueError("k must be >= 0")
    log_ratio = math.log(r / R)
    best = -math.inf
    prev = -math.inf
    decreasing_run = 0
    p = k
    while decreasing_run < _GAMMA_DECREASE_RUN:
        log_term = math.lgamma(p + 1) - math.lgamma(p - k + 1) + p * log_ratio
        if log_term < prev:
            decreasing_run += 1
        else:
            decreasing_run = 0
        best = max(best, log_term)
        prev = log_term
        p += 1
    return math.exp(best - k * math.log(r))


# ---------------------------------------------------------------------------
# Flows of X(z) d/dz
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) embedded pair.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _dp45_step(f: Callable[[complex], complex], z: complex, h: float):
    """One Dormand-Prince step; returns (z5, error_estimate)."""
    k = []
    for i in range(7):
        zi = z
        a = _DP_A[i]
        for j in range(a.size):
            zi = zi + h * a[j] * k[j]
        k.append(f(zi))
    z5 = z + h * sum(b * ki for b, ki in zip(_DP_B5, k))
    z4 = z + h * sum(b * ki for b, ki in zip(_DP_B4, k))
    return z5, abs(z5 - z4)


def flow(
    X: MajorantSeries,
    t: float,
    z0: complex,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-14,
    floor: float = DEFAULT_FLOOR,
    cap: float = DEFAULT_CAP,
    direction: complex | None = None,
    max_steps: int = 200_000,
) -> FlowResult:
    """Integrate ``dz/ds = lambda X(z)`` for ``s`` in ``[0, |t|]``.

    For real ``t`` the direction ``lambda`` is ``sign(t)``; a complex unit
    ``direction`` together with ``t = |tau|`` realises the flow along a
    complex time ray.  Adaptive embedded Runge-Kutta with local relative
    tolerance ``rtol``.

    For real backward flows on the nonnegative axis the integration stops
    with status ``hit_zero`` when the value crosses ``floor``; any flow
    stops with status ``blew_up`` once ``|z|`` exceeds ``cap``.
    """
    if direction is None:
        lam: complex = 1.0 if t >= 0 else -1.0
    else:
        lam = direction / abs(direction)
        if isinstance(lam, complex) and lam.imag == 0.0:
            lam = lam.real
    total = abs(t)
    complex_mode = isinstance(z0, complex) or isinstance(lam, complex)
    z = complex(z0) if complex_mode else float(z0)
    # the floor is a blow-down detector: it only makes sense on the
    # nonnegative axis while flowing backward
    watch_floor = not complex_mode and lam < 0

    coeffs = X.coeffs

    def rhs(w):
        return lam * _polyval(coeffs, w)

    if total == 0.0 or X.is_zero:
        return FlowResult(value=z, time_reached=total, status="completed")

    s = 0.0
    h = min(total, _initial_step(rhs, z, rtol, atol))
    for _ in range(max_steps):
        if s >= total:
            break
        h = min(h, total - s)
        z_new, err = _dp45_step(rhs, z, h)
        scale = atol + rtol * max(abs(z), abs(z_new))
        if err > scale:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            if h < 1e-16 * max(1.0, total):
                return FlowResult(value=z, time_reached=s, status="blew_up")
            continue
        # accepted
        if abs(z_new) > cap:
            s_hit = s + _refine_crossing(rhs, z, h, lambda w: abs(w) - cap)
            return FlowResult(value=z_new, time_reached=s_hit, status="blew_up")
        if watch_floor and np.real(z_new) < floor:
            s_hit = s + _refine_crossing(rhs, z, h, lambda w: floor - np.real(w))
            return FlowResult(value=floor, time_reached=s_hit, status="hit_zero")
        s += h
        z = z_new
        if err > 0:
            h *= min(5.0, 0.9 * (scale / err) ** 0.2)
        else:
            h *= 5.0
    else:
        return FlowResult(value=z, time_reached=s, status="blew_up")
    return FlowResult(value=z, time_reached=total, status="completed")


def _initial_step(rhs, z, rtol, atol) -> float:
    d0 = abs(z)
    d1 = abs(rhs(z))
    if d0 < 1e-5 or d1 < 1e-5:
        return 1e-6
    return 0.01 * d0 / d1


def _refine_crossing(rhs, z, h, event) -> float:
    """Bisect the step fraction at which ``event`` first becomes >= 0."""
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        z_mid, _ = _dp45_step(rhs, z, mid)
        if event(z_mid) >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-14 * max(h, 1.0):
            break
    return hi


def guaranteed_time(
    X: MajorantSeries,
    R: float,
    floor: float,
    *,
    rel_tol: float = 1e-9,
    horizon: float = 1e30,
    rtol: float = 1e-12,
) -> float:
    """Largest ``T`` such that the backward flow ``e^{-TX}(R)`` stays >= floor.

    Found by bisection on the flow map.  Returns ``math.inf`` when the flow
    provably stays above the floor over the whole configured horizon (in
    particular for the zero field).
    """
    if not (R > 0 and 0 < floor < R):
        raise ValueError("guaranteed_time requires 0 < floor < R")
    if X.is_zero:
        return math.inf

    def above(T: float) -> bool:
        res = flow(X, -T, R, floor=floor, rtol=rtol)
        return res.completed and res.value >= floor

    lo, hi = 0.0, 1.0
    while above(hi):
        lo = hi
        hi *= 2.0
        if hi > horizon:
            return math.inf
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def apply_majorant_operator(X: MajorantSeries, H: MajorantSeries, k: int) -> MajorantSeries:
    """Apply ``(X.)^k`` to ``H`` where ``X. = X(z) d/dz``.

    Computed by ``k`` iterated coefficient convolutions of ``X`` with the
    derivative of the running series; exact for polynomial inputs.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    coeffs = H.coeffs
    for _ in range(k):
        if coeffs.size <= 1 or X.is_zero:
            coeffs = np.zeros(0)
            break
        dh = coeffs[1:] * np.arange(1, coeffs.size)
        coeffs = np.convolve(X.coeffs, dh)
    return MajorantSeries(coeffs)
