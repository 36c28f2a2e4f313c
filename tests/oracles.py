"""Independent oracles that the tests compare the program against."""

import math

import numpy as np

from chrono_duhamel.chrono import DEFAULT_DEGREE_CAP, vdot
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
        return vdot(tau, F, disp, nonlin, chart, cap=cap)[0]

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
