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

On the positive axis ``X`` is positive, so the backward flow from ``R``
reaches ``r`` after ``T(r) = int_r^R dz / X(z)``: ``flow_time`` turns ``X``
into every flow time the certificate uses.  For a single power
``X = c z^k`` (the cubic Klein-Gordon majorant, for one) ``T`` and its
inverse have closed forms; any other ``X`` is integrated by SciPy's
``quad``.  SciPy is imported only inside ``quad``, so a one-term majorant
never loads it.

All series here are treated as exact polynomials: every stored
coefficient is meaningful and no tail is implied.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MajorantSeries",
    "eval_series",
    "derivative",
    "gamma_constant",
    "flow_time",
    "guaranteed_time",
    "apply_majorant_operator",
]

#: Default floor of the backward flow: the condition "the backward flow stays
#: positive" is realised numerically as "stays above this value".
DEFAULT_FLOOR = 1e-12

#: Relative slack taken off every flow time, which keeps each time and the
#: radius solved from it on the safe side of the exact flow.  The quadrature's
#: own error estimate must stay below it (the largest seen on 804 random and
#: shipped fields was 9.5e-14 relative), and so must the rounding of the
#: closed forms for a one-term field (under 1e-13 relative).
FLOW_TIME_SLACK = 1e-12


@dataclass(frozen=True)
class MajorantSeries:
    """Finite power series with nonnegative coefficients.

    ``coeffs[p]`` is the coefficient of ``z**p``.  An empty coefficient
    sequence is the zero series.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float).reshape(-1).copy()
        if arr.size and arr.min() < 0.0:
            raise ValueError("majorant coefficients must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0 or not self.coeffs.any()


def eval_series(series: MajorantSeries, z: float) -> float:
    """Evaluate the finite sum ``sum_p coeffs[p] z^p`` at ``z >= 0``.

    Exact finite sum over the stored coefficients; no extrapolation.
    """
    if isinstance(z, complex):
        raise TypeError("eval_series is defined for nonnegative real z")
    if z < 0:
        raise ValueError("eval_series requires z >= 0")
    return _polyval(series.coeffs, float(z))


def _polyval(coeffs: np.ndarray | list[float], z: float) -> float:
    # Horner on the raw coefficient array or list
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
        return MajorantSeries(c)
    if k >= c.size:
        return MajorantSeries(np.zeros(0))
    fac = np.array([math.perm(j + k, k) for j in range(c.size - k)], dtype=float)
    return MajorantSeries(fac * c[k:])


def gamma_constant(r: float, R: float, k: int) -> float:
    """Comparison constant between a derivative at ``r`` and the sum at ``R``.

    Returns ``r**(-k) * sup_{p>=k} p!/(p-k)! (r/R)^p``.  Consecutive terms
    have the ratio ``(p+1) rho / (p+1-k)`` with ``rho = r/R``, which falls
    as ``p`` grows and crosses 1 at ``p + 1 = k / (1 - rho)``, so the
    supremum is the term at ``p* = floor(k R / (R - r))`` or one of its
    neighbours; those at least ``k`` are compared in log form, with
    ``p!/(p-k)!`` taken as the exact integer ``math.perm(p, k)``.
    """
    if not (0.0 < r < R):
        raise ValueError("gamma_constant requires 0 < r < R")
    if k < 0:
        raise ValueError("k must be >= 0")
    log_ratio = math.log(r / R)
    p_star = math.floor(k * R / (R - r))
    best = max(
        math.log(math.perm(p, k)) + p * log_ratio for p in range(max(p_star - 1, k), p_star + 2)
    )
    return math.exp(best - k * math.log(r))


# ---------------------------------------------------------------------------
# Flow times of X(z) d/dz
# ---------------------------------------------------------------------------


def quad(func, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on the first call, with its ``IntegrationWarning``
    silenced: ``flow_time`` checks the returned error estimate against its slack itself."""
    from scipy.integrate import IntegrationWarning, quad as scipy_quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return scipy_quad(func, a, b, **kwargs)


def _single_term(X: MajorantSeries) -> tuple[int, float] | None:
    """``(k, c)`` when ``X = c z^k`` has exactly one nonzero coefficient, else ``None``."""
    (nonzero,) = np.nonzero(X.coeffs)
    if nonzero.size != 1:
        return None
    k = int(nonzero[0])
    return k, float(X.coeffs[k])


def _log_ratio(r: float, R: float) -> float:
    """``log(r / R)`` for ``0 < r <= R``, to a few ulp both near ``r = R`` and far below it."""
    if r >= 0.5 * R:
        return math.log1p((r - R) / R)  # r - R is exact here
    ratio = r / R
    if ratio >= sys.float_info.min:
        return math.log(ratio)
    return math.log(r) - math.log(R)  # a subnormal ratio has lost digits


def _single_term_time(k: int, c: float, r: float, R: float) -> float:
    """``int_r^R dz / (c z^k)`` in closed form, free of cancellation: ``log(R/r) / c``
    for ``k = 1``, else ``(1 - (r/R)^|k-1|) s^(1-k) / (|k-1| c)``, with ``s = R`` for
    ``k = 0`` and ``s = r`` for ``k >= 2``."""
    log_ratio = _log_ratio(r, R)
    if k == 1:
        return -log_ratio / c
    p = abs(k - 1)
    return -math.expm1(p * log_ratio) * (R if k == 0 else r ** (1 - k)) / (p * c)


def _single_term_radius(k: int, c: float, R: float, T: float) -> float:
    """Radius the backward flow of ``X = c z^k`` reaches from ``R``, in closed form.

    Like the root of ``flow_time(X, r', R) = T``, it is the exact endpoint of
    the longer time ``t = T / (1 - FLOW_TIME_SLACK)``: ``R e^{-ct}`` for
    ``k = 1``, else ``(R^(1-k) + (k-1) c t)^(1/(1-k))`` (``ct < R`` for
    ``k = 0``).  The factor ``1 - FLOW_TIME_SLACK`` then keeps it below the
    exact endpoint of ``T`` through rounding: the closed form is off by under
    1e-13 relative, or for ``k = 0`` by a few ulp of ``R``, which the two
    slacks together cover with ``FLOW_TIME_SLACK R``.
    """
    t = T / (1.0 - FLOW_TIME_SLACK)
    try:
        if k == 1:
            radius = R * math.exp(-c * t)
        else:
            radius = (R ** (1 - k) + (k - 1) * c * t) ** (1 / (1 - k))
    except OverflowError:
        raise FloatingPointError(f"the flow of {c!r} z^{k} from {R!r} overflows over {T!r}") from None
    return radius * (1.0 - FLOW_TIME_SLACK)


def _underflow(r: float, R: float) -> FloatingPointError:
    return FloatingPointError(
        f"the field underflows to 0 between the floor {r!r} and {R!r}: no flow time to the floor"
    )


def flow_time(X: MajorantSeries, r: float, R: float) -> float:
    """Time the backward flow ``e^{-TX}`` takes from ``R`` down to ``r``.

    ``T(r) = int_r^R dz / X(z)``, shrunk by ``FLOW_TIME_SLACK`` so it never
    exceeds the exact time.  A field with one nonzero coefficient,
    ``X = c z^k``, takes the antiderivative in closed form; any other is
    integrated by ``quad`` (SciPy, imported on first use) in ``u = log(z/R)``
    from ``log(r/R)`` to 0, where the integrand ``R e^u / X(R e^u)`` stays
    tame down to tiny ``r`` and the interval keeps its digits next to
    ``r = R``.
    Returns ``math.inf`` for the zero field, whose flow stands still.
    Raises ``FloatingPointError`` when ``X(z)`` underflows to 0 for some
    ``z`` in [r, R], which a floor far below the field's scale brings
    about, when the time is not a finite float, and when the quadrature
    cannot vouch for the slack.
    """
    if not 0 < r <= R:
        raise ValueError("flow_time requires 0 < r <= R")
    if X.is_zero:
        return math.inf
    if r == R:
        return 0.0
    coeffs = X.coeffs.tolist()  # Horner on Python floats: the array's bits, no NumPy scalars
    term = _single_term(X)
    if term is not None:
        if _polyval(coeffs, r) == 0.0:  # c z^k is least at z = r
            raise _underflow(r, R)
        try:
            value = _single_term_time(*term, r, R)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise FloatingPointError(f"the flow time from {R!r} down to {r!r} overflows")
        return value * (1.0 - FLOW_TIME_SLACK)
    try:
        value, err = quad(
            lambda u: (z := R * math.exp(u)) / _polyval(coeffs, z),
            _log_ratio(r, R),
            0.0,
            epsabs=0.0,
            epsrel=1e-13,
        )
    except ZeroDivisionError:
        raise _underflow(r, R) from None
    if not err <= FLOW_TIME_SLACK * value:
        raise FloatingPointError(
            f"flow time quadrature error {err:.3e} exceeds the slack on {value:.17g}"
        )
    return value * (1.0 - FLOW_TIME_SLACK)


def guaranteed_time(X: MajorantSeries, R: float, floor: float) -> float:
    """Largest ``T`` such that the backward flow ``e^{-TX}(R)`` stays >= floor.

    ``flow_time(X, floor, R)``; ``math.inf`` for the zero field.
    """
    if not (R > 0 and 0 < floor < R):
        raise ValueError("guaranteed_time requires 0 < floor < R")
    return flow_time(X, floor, R)


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
