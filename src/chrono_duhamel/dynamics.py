"""The nonlinear layer: dynamics on the space of free solutions.

A solution ``u`` of ``Lu + N(u) = 0`` is followed through the moving free
solution that shares its Cauchy data at time ``t``.  In the chart
"Cauchy data at the reference time 0" that moving point obeys the ODE

    dc/dt = - Vbar_t(c),      Vbar_t = A_{-t} o script-N o A_t,

where ``A_t`` is the linear propagator on Cauchy data and script-N the
pointwise nonlinearity lifted through the Green structure (interaction
picture).  The reference integrator is classical RK4 on this chart ODE;
an independent Strang splitting on the raw Cauchy data serves as the
cross-check oracle.  Duhamel's identity

    c(t2) - c(t1) + integral_{t1}^{t2} Vbar_t(c(t)) dt = 0

is used as a residual diagnostic: for an exact solution it vanishes, and
for the RK4 trajectory it decreases at the integrator's order.  The
running residual of a trajectory dump samples the vector field once per
node and sums every prefix from those samples, so it costs one
vector-field evaluation per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, trapezoid

from .propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    cau_norm,
    energy,
    green_apply,
    make_free_solution,
    propagate,
    sample_at,
)

__all__ = [
    "NonlinearitySpec",
    "EvolutionState",
    "DivergenceError",
    "theta",
    "lagrange_duhamel_V",
    "evolve",
    "strang_evolve",
    "duhamel_residual",
    "trajectory_csv",
]


class DivergenceError(RuntimeError):
    """Raised when field values overflow during time stepping."""


@dataclass(frozen=True)
class NonlinearitySpec:
    """Scalar autonomous nonlinearity ``N(u) = sum_k N_k u^k`` (no du dependence)."""

    coeffs: dict[int, float]

    def __init__(self, coeffs: dict[int, float]):
        clean = {int(k): float(v) for k, v in coeffs.items() if v != 0.0}
        if any(k < 0 for k in clean):
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "coeffs", clean)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        for k, v in self.coeffs.items():
            out = out + v * u**k
        return out

    @staticmethod
    def cubic(lam: float = 1.0) -> "NonlinearitySpec":
        return NonlinearitySpec({3: lam})

    @staticmethod
    def zero() -> "NonlinearitySpec":
        return NonlinearitySpec({})


@dataclass(frozen=True)
class EvolutionState:
    """The moving free solution at one trajectory node."""

    current: FreeSolution
    time: float
    disp: DispersionRelation
    nonlin: NonlinearitySpec


def theta(disp: DispersionRelation, pde_cauchy_data: CauchyData) -> FreeSolution:
    """The unique free solution matching the given Cauchy data at its anchor."""
    return make_free_solution(disp, pde_cauchy_data)


def _source_factor(disp: DispersionRelation) -> complex:
    # Green restriction on the source slice: second-order kinds lift through
    # the velocity slot with unit weight; the first-order Schrodinger kernel
    # carries (gamma^0)^{-1} = -i.
    return 1.0 if disp.second_order else -1.0j


def lagrange_duhamel_V(
    t: float, phi: FreeSolution, disp: DispersionRelation, nonlin: NonlinearitySpec
) -> FreeSolution:
    """Vector field on free solutions: Green lift of N(trace) on the slice t."""
    grid = phi.chart_data.grid
    trace = sample_at(disp, phi, t)
    g = _source_factor(disp) * nonlin.apply(trace.psi)
    return green_apply(disp, grid, t, g)


def evolve(
    initial: CauchyData,
    t1: float,
    t2: float,
    dt: float,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
) -> list[EvolutionState]:
    """Classical RK4 on the chart ODE; returns the trajectory at every node."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if initial.t != t1:
        raise ValueError("initial data must be anchored at t1")
    grid = initial.grid
    span = t2 - t1
    n = max(int(round(abs(span) / dt)), 0) if span != 0 else 0
    if n and abs(abs(span) / n - dt) > 1e-9 * dt:
        raise ValueError("dt must divide |t2 - t1|")
    chart = theta(disp, initial).chart_data
    psi, chi = chart.psi, chart.chi
    h = span / n if n else 0.0
    out = [EvolutionState(FreeSolution(CauchyData(grid, psi, chi, 0.0)), t1, disp, nonlin)]

    def rhs(t, psi, chi):
        # dc/dt = -Vbar_t(c) on chart arrays
        v = lagrange_duhamel_V(t, FreeSolution(CauchyData(grid, psi, chi, 0.0)), disp, nonlin).chart_data
        return -v.psi, None if v.chi is None else -v.chi

    t = t1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            k1 = rhs(t, psi, chi)
            k2 = rhs(t + h / 2, psi + h / 2 * k1[0], _axpy(chi, h / 2, k1[1]))
            k3 = rhs(t + h / 2, psi + h / 2 * k2[0], _axpy(chi, h / 2, k2[1]))
            k4 = rhs(t + h, psi + h * k3[0], _axpy(chi, h, k3[1]))
            psi = psi + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            if chi is not None:
                chi = chi + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            t = t1 + (step + 1) * h
            if not np.all(np.isfinite(psi)) or (chi is not None and not np.all(np.isfinite(chi))):
                raise DivergenceError(f"field values diverged at step {step + 1} (t = {t})")
            out.append(EvolutionState(FreeSolution(CauchyData(grid, psi, chi, 0.0)), t, disp, nonlin))
    return out


def _axpy(x, a, y):
    if x is None:
        return None
    return x + a * y


def strang_evolve(
    initial: CauchyData,
    t1: float,
    t2: float,
    dt: float,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
) -> list[CauchyData]:
    """Independent oracle: Strang splitting on raw Cauchy data.

    Half-step exact linear propagation, full pointwise nonlinear substep,
    half-step linear.  The Klein-Gordon nonlinear substep is the exact
    kick ``chi -= h N(psi)``; the Schrodinger substep integrates the
    pointwise ODE with one RK4 stage.
    """
    if initial.t != t1:
        raise ValueError("initial data must be anchored at t1")
    span = t2 - t1
    n = max(int(round(abs(span) / dt)), 0) if span != 0 else 0
    if n and abs(abs(span) / n - dt) > 1e-9 * dt:
        raise ValueError("dt must divide |t2 - t1|")
    h = span / n if n else 0.0
    data = initial
    out = [data]
    for step in range(n):
        data = propagate(disp, data, data.t + h / 2)
        if disp.second_order:
            data = CauchyData(data.grid, data.psi, data.chi - h * nonlin.apply(data.psi), data.t)
        else:
            data = CauchyData(data.grid, _kick_rk4(data.psi, h, nonlin), None, data.t)
        data = propagate(disp, data, t1 + (step + 1) * h)
        if not np.all(np.isfinite(data.psi)):
            raise DivergenceError(f"field values diverged at step {step + 1}")
        out.append(data)
    return out


def _kick_rk4(u, h, nonlin):
    # pointwise ODE du/dt = i N(u) over one step
    f = lambda w: 1j * nonlin.apply(w)
    k1 = f(u)
    k2 = f(u + h / 2 * k1)
    k3 = f(u + h / 2 * k2)
    k4 = f(u + h * k3)
    return u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def duhamel_residual(
    traj: list[EvolutionState],
    t1: float,
    t2: float,
    s: float = 0.0,
    m_ref: float = 1.0,
) -> tuple[float, float]:
    """Cauchy norm of c(t2) - c(t1) + Quad(integral of Vbar) over the nodes.

    Quad is composite Simpson; the second return value is its own error
    estimate (coarse-grid Simpson comparison).
    """
    nodes = [st for st in traj if min(t1, t2) - 1e-12 <= st.time <= max(t1, t2) + 1e-12]
    if len(nodes) < 3:
        raise ValueError("trajectory must cover [t1, t2] with at least 3 nodes")
    return _prefix_residual(nodes, *_field_samples(nodes), len(nodes), s, m_ref)


def _field_samples(nodes: list[EvolutionState]):
    """Node times and ``lagrange_duhamel_V`` at every node, one evaluation each.

    Returns ``(times, v_psi, v_chi)`` with ``(n, M)`` arrays of the chart
    parts; ``v_chi`` is None for first-order kinds.
    """
    disp, nonlin = nodes[0].disp, nodes[0].nonlin
    times = np.array([st.time for st in nodes])
    vs = [lagrange_duhamel_V(st.time, st.current, disp, nonlin).chart_data for st in nodes]
    v_psi = np.array([v.psi for v in vs])
    v_chi = np.array([v.chi for v in vs]) if disp.second_order else None
    return times, v_psi, v_chi


def _prefix_residual(nodes, times, v_psi, v_chi, n, s, m_ref) -> tuple[float, float]:
    """``duhamel_residual`` over the first ``n`` nodes, from their field samples."""
    disp = nodes[0].disp
    grid = nodes[0].current.chart_data.grid
    quad_psi, err_psi = _quad_with_error(v_psi[:n], times[:n])
    first, last = nodes[0].current.chart_data, nodes[n - 1].current.chart_data
    res_psi = last.psi - first.psi + quad_psi
    if v_chi is not None:
        quad_chi, err_chi = _quad_with_error(v_chi[:n], times[:n])
        res_chi = last.chi - first.chi + quad_chi
        err_data = CauchyData(grid, err_psi, err_chi, 0.0)
        res_data = CauchyData(grid, res_psi, res_chi, 0.0)
    else:
        err_data = CauchyData(grid, err_psi, None, 0.0)
        res_data = CauchyData(grid, res_psi, None, 0.0)
    residual = cau_norm(disp, res_data, s, m_ref)
    quad_err = cau_norm(disp, err_data, s, m_ref)
    return residual, quad_err


def _quad_with_error(values: np.ndarray, times: np.ndarray):
    """Composite Simpson plus its own error estimate.

    When the node count allows a coarse (every-second-node) Simpson pass
    the estimate is the Richardson difference / 15; otherwise the
    conservative Simpson-vs-trapezoid gap is reported.
    """
    fine = simpson(values, x=times, axis=0)
    if (len(times) - 1) % 2 == 0 and len(times) >= 5:
        coarse = simpson(values[::2], x=times[::2], axis=0)
        return fine, (fine - coarse) / 15.0
    return fine, fine - trapezoid(values, x=times, axis=0)


# ---------------------------------------------------------------------------
# trajectory dump
# ---------------------------------------------------------------------------


def trajectory_csv(
    traj: list[EvolutionState],
    path: str,
    s: float = 0.0,
    m_ref: float = 1.0,
    header_comment: str = "",
) -> None:
    """One row per node: (t, cau_norm, energy, duhamel_residual_running).

    The running residual of row i is ``duhamel_residual(traj[:i+1], t_0, t_i)``.
    The vector field is evaluated once per node and every row's composite
    Simpson sum is taken over a prefix of those samples, so the whole column
    costs one ``lagrange_duhamel_V`` evaluation per node.
    """
    disp = traj[0].disp
    samples = _field_samples(traj)
    lines = []
    for i, st in enumerate(traj):
        data = st.current.chart_data
        nrm = cau_norm(disp, data, s, m_ref)
        en = energy(disp, data) if disp.second_order else float("nan")
        res = _prefix_residual(traj, *samples, i + 1, s, m_ref)[0] if i >= 2 else 0.0
        lines.append(f"{st.time!r},{nrm!r},{en!r},{res!r}")
    with open(path, "w") as fh:
        if header_comment:
            for ln in header_comment.splitlines():
                fh.write(f"# {ln}\n")
        fh.write("t,cau_norm,energy,duhamel_residual_running\n")
        fh.write("\n".join(lines) + "\n")
