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
into every flow time the certificate uses.  ``flow`` integrates the ODE
itself with SciPy's DOP853, forward or along complex time rays; the
program certifies with ``flow_time`` alone, and ``flow`` is the tests'
independent check of it.

All series here are treated as exact polynomials: every stored
coefficient is meaningful and no tail is implied.  ``truncation_degree``
is the highest stored degree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode, quad

__all__ = [
    "MajorantSeries",
    "FlowResult",
    "eval_series",
    "derivative",
    "gamma_constant",
    "flow",
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
#: shipped fields was 9.5e-14 relative).
FLOW_TIME_SLACK = 1e-12

# ``flow``: absolute step tolerance, blow-up magnitude and step budget.
_FLOW_ATOL = 1e-14
_FLOW_CAP = 1e12
_FLOW_MAX_STEPS = 200_000


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
    def truncation_degree(self) -> int:
        return max(self.coeffs.size - 1, 0)

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0 or not self.coeffs.any()


@dataclass(frozen=True)
class FlowResult:
    """Outcome of integrating ``dz/ds = (+/-) X(z)``.

    ``status`` is ``"completed"`` or ``"blew_up"``.  ``time_reached`` is the
    (unsigned) arc length actually covered; for a completed flow it equals
    ``|t|``.
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
    neighbours; those at least ``k`` are compared in log form.
    """
    if not (0.0 < r < R):
        raise ValueError("gamma_constant requires 0 < r < R")
    if k < 0:
        raise ValueError("k must be >= 0")
    log_ratio = math.log(r / R)
    p_star = math.floor(k * R / (R - r))
    best = max(
        math.lgamma(p + 1) - math.lgamma(p - k + 1) + p * log_ratio
        for p in range(max(p_star - 1, k), p_star + 2)
    )
    return math.exp(best - k * math.log(r))


# ---------------------------------------------------------------------------
# Flows of X(z) d/dz
# ---------------------------------------------------------------------------


def flow(
    X: MajorantSeries,
    t: float,
    z0: complex,
    *,
    rtol: float = 1e-10,
    direction: complex | None = None,
) -> FlowResult:
    """Integrate ``dz/ds = lambda X(z)`` for ``s`` in ``[0, |t|]``.

    For real ``t`` the direction ``lambda`` is ``sign(t)``; a complex unit
    ``direction`` together with ``t = |tau|`` realises the flow along a
    complex time ray.  SciPy's DOP853 (Hairer, Norsett & Wanner, *Solving
    Ordinary Differential Equations I*, II.10) integrates ``(Re z, Im z)``
    with relative tolerance ``rtol``.  The flow stops with status
    ``blew_up`` once ``|z|`` exceeds ``_FLOW_CAP``, and also when DOP853
    gives up (step size too small or step budget spent), which a finite-time
    blow-up can cause before ``|z|`` reaches the cap.
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
    if total == 0.0 or X.is_zero:
        return FlowResult(value=z, time_reached=total, status="completed")

    coeffs = X.coeffs

    def rhs(s, y):
        v = lam * _polyval(coeffs, complex(y[0], y[1]))
        return [v.real, v.imag]

    solver = ode(rhs).set_integrator("dop853", rtol=rtol, atol=_FLOW_ATOL, nsteps=_FLOW_MAX_STEPS)
    solver.set_solout(lambda s, y: -1 if math.hypot(y[0], y[1]) > _FLOW_CAP else 0)
    solver.set_initial_value([z.real, z.imag], 0.0)
    with warnings.catch_warnings():
        # a give-up is reported through the status below
        warnings.filterwarnings("ignore", "dop853: ", UserWarning)
        y = solver.integrate(total)
    value = complex(y[0], y[1]) if complex_mode else float(y[0])
    if solver.get_return_code() != 1:
        return FlowResult(value=value, time_reached=float(solver.t), status="blew_up")
    return FlowResult(value=value, time_reached=total, status="completed")


def flow_time(X: MajorantSeries, r: float, R: float) -> float:
    """Time the backward flow ``e^{-TX}`` takes from ``R`` down to ``r``.

    ``T(r) = int_r^R dz / X(z)``, by quadrature in ``u = log z`` (the
    integrand ``e^u / X(e^u)`` stays tame down to tiny ``r``), shrunk by
    ``FLOW_TIME_SLACK`` so it never exceeds the exact time.  Returns
    ``math.inf`` for the zero field, whose flow stands still.  Raises
    ``FloatingPointError`` when the quadrature cannot vouch for the slack.
    """
    if not 0 < r <= R:
        raise ValueError("flow_time requires 0 < r <= R")
    if X.is_zero:
        return math.inf
    coeffs = X.coeffs
    value, err = quad(
        lambda u: math.exp(u) / _polyval(coeffs, math.exp(u)),
        math.log(r),
        math.log(R),
        epsabs=0.0,
        epsrel=1e-13,
    )
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
