"""Independent oracles that the tests compare the program against."""

import math

import numpy as np

from chrono_duhamel.chrono import DEFAULT_DEGREE_CAP, vdot
from chrono_duhamel.propagator import CauchyData, FreeSolution, green_apply, make_free_solution, sample_at
from chrono_duhamel.symfun import contract_slot, eval_diagonal, functional_add


def polarize(f_diag, degree, args):
    """Recover the symmetric polarized value from the diagonal map.

    Implements ``1/(2^p p!) sum_{eps in {+-1}^p} (prod eps) f(sum eps_j phi_j)``
    for a map ``f_diag`` homogeneous of the declared degree.
    """
    p = degree
    args = [np.asarray(a, dtype=float) for a in args]
    total = None
    for mask in range(1 << p):
        signs = [1.0 if (mask >> j) & 1 == 0 else -1.0 for j in range(p)]
        point = sum(s * a for s, a in zip(signs, args))
        term = np.prod(signs) * np.asarray(f_diag(point), dtype=float)
        total = term if total is None else total + term
    return total / (2**p * math.factorial(p))


def directional_derivative(f, phi, psi):
    """sum_p p f^(p)(psi, phi, ..., phi) of a SymFunctional ``f``."""
    out = np.zeros(f.codomain_dim)
    for t in f.terms:
        if t.degree == 0:
            continue
        out += t.degree * eval_diagonal(contract_slot(t, psi), phi)
    return out


def rk4_transport(f, times, disp, nonlin, chart, substeps=1, cap=DEFAULT_DEGREE_CAP):
    """Classical RK4 on dF/dt = V_t . F: the transported functional at each node of ``times``.

    ``substeps`` equal RK4 steps per interval of the monotone grid ``times``.
    """

    def rhs(tau, F):
        return vdot(tau, F, disp, nonlin, chart, cap=cap)

    path = [f]
    F = f
    for a in range(len(times) - 1):
        h = (times[a + 1] - times[a]) / substeps
        for b in range(substeps):
            t = times[a] + h * b
            k1 = rhs(t, F)
            k2 = rhs(t + h / 2, functional_add(F, k1, h / 2))
            k3 = rhs(t + h / 2, functional_add(F, k2, h / 2))
            k4 = rhs(t + h, functional_add(F, k3, h))
            F = functional_add(F, k1, h / 6)
            F = functional_add(F, k2, h / 3)
            F = functional_add(F, k3, h / 3)
            F = functional_add(F, k4, h / 6)
        path.append(F)
    return path


def rk4_chart_evolve(initial, t1, t2, steps, disp, nonlin):
    """Classical RK4 on the chart ODE dc/dt = -Vbar_t(c), one node at a time in physical space.

    Each stage samples the free solution at its time, applies ``N`` to the
    trace and Green-lifts the result back to the chart
    (``sample_at`` -> ``N`` -> ``green_apply``).  Returns the chart data at
    every node.
    """
    grid = initial.grid
    chart = make_free_solution(disp, initial).chart_data
    psi, chi = chart.psi, chart.chi
    h = (t2 - t1) / steps
    source = 1.0 if disp.second_order else -1.0j

    def rhs(t, psi, chi):
        trace = sample_at(disp, FreeSolution(CauchyData(grid, psi, chi, 0.0)), t)
        v = green_apply(disp, grid, t, source * nonlin.apply(trace.psi)).chart_data
        return -v.psi, None if v.chi is None else -v.chi

    def axpy(x, a, y):
        return None if x is None else x + a * y

    out = [chart]
    for step in range(steps):
        t = t1 + step * h
        k1 = rhs(t, psi, chi)
        k2 = rhs(t + h / 2, psi + h / 2 * k1[0], axpy(chi, h / 2, k1[1]))
        k3 = rhs(t + h / 2, psi + h / 2 * k2[0], axpy(chi, h / 2, k2[1]))
        k4 = rhs(t + h, psi + h * k3[0], axpy(chi, h, k3[1]))
        psi = psi + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        if chi is not None:
            chi = chi + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out.append(CauchyData(grid, psi, chi, 0.0))
    return out
