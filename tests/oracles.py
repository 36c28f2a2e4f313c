"""Independent oracles that the tests compare the program against."""

import math

import numpy as np

from chrono_duhamel.symfun import contract_slot, eval_diagonal


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
