"""Independent oracles that the tests compare the program against.

No command runs them, and none imports a private name of the package:

* ``strang_evolve``: Strang splitting on raw Cauchy data, the reference
  integrator for ``evolve``;
* ``flow``: the ODE flow of a majorant field by SciPy's DOP853, the check on
  ``flow_time`` and on the flow lemma;
* ``green_apply`` and ``chart_field``: the Green lift of a source on one time
  slice, and the chart field one node at a time (sample, ``N``, Green lift);
* ``contract_slot`` and ``eval_homogeneous``: polarized evaluation of a
  symmetric tensor one slot at a time, its indices ranked through
  ``canonical_indices``, not through the kernel's index tables;
* the RK4 transports, the vertex tensors, the nested tree quadrature, the
  real DFT built row by row and ``u**k`` by binary powering.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from chrono_duhamel.chrono import DEFAULT_DEGREE_CAP
from chrono_duhamel.propagator import CauchyData, FreeSolution, make_free_solution, propagate
from chrono_duhamel.symfun import (
    SymFunctional,
    SymTensor,
    compose_first_slot,
    eval_diagonal,
)

# ``flow``: absolute step tolerance, blow-up magnitude and step budget.
_FLOW_ATOL = 1e-14
_FLOW_CAP = 1e12
_FLOW_MAX_STEPS = 200_000


# ---------------------------------------------------------------------------
# the reference integrator: Strang splitting
# ---------------------------------------------------------------------------


def strang_evolve(initial, t1, t2, dt, disp, nonlin):
    """Strang splitting on raw Cauchy data; returns the data at every node.

    Half-step exact linear propagation, full pointwise nonlinear substep,
    half-step linear.  The Klein-Gordon nonlinear substep is the exact
    kick ``chi -= h N(psi)``; the Schrodinger substep integrates the
    pointwise ODE with one RK4 stage.  ``dt`` must divide ``|t2 - t1|`` and
    the data must sit at ``t1``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if initial.t != t1:
        raise ValueError("initial data must be anchored at t1")
    n = round(abs(t2 - t1) / dt)
    if n and abs(abs(t2 - t1) / n - dt) > 1e-9 * dt:
        raise ValueError("dt must divide |t2 - t1|")
    h = (t2 - t1) / n if n else 0.0
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
            raise FloatingPointError(f"field values diverged at step {step + 1}")
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


# ---------------------------------------------------------------------------
# the ODE flow of a majorant field
# ---------------------------------------------------------------------------


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


def flow(X, t, z0, *, rtol=1e-10, direction=None):
    """Integrate ``dz/ds = lambda X(z)`` for ``s`` in ``[0, |t|]``, ``X`` a ``MajorantSeries``.

    For real ``t`` the direction ``lambda`` is ``sign(t)``; a complex unit
    ``direction`` together with ``t = |tau|`` realises the flow along a
    complex time ray.  SciPy's DOP853 (Hairer, Norsett & Wanner, *Solving
    Ordinary Differential Equations I*, II.10) integrates ``(Re z, Im z)``
    with relative tolerance ``rtol``, evaluating ``X`` by its own Horner
    loop.  The flow stops with status ``blew_up`` once ``|z|`` exceeds
    ``_FLOW_CAP``, and also when DOP853 gives up (step size too small or
    step budget spent), which a finite-time blow-up can cause before ``|z|``
    reaches the cap.
    """
    if direction is None:
        lam = 1.0 if t >= 0 else -1.0
    else:
        lam = direction / abs(direction)
        if isinstance(lam, complex) and lam.imag == 0.0:
            lam = lam.real
    total = abs(t)
    complex_mode = isinstance(z0, complex) or isinstance(lam, complex)
    z = complex(z0) if complex_mode else float(z0)
    if total == 0.0 or X.is_zero:
        return FlowResult(value=z, time_reached=total, status="completed")

    from scipy.integrate import ode

    reversed_coeffs = X.coeffs[::-1]

    def rhs(s, y):
        z, acc = complex(y[0], y[1]), 0.0
        for c in reversed_coeffs:
            acc = acc * z + c
        v = lam * acc
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


# ---------------------------------------------------------------------------
# the Green lift and the chart field, one node at a time
# ---------------------------------------------------------------------------


def green_apply(disp, grid, t, f):
    """Green lift of a source field concentrated on the slice ``x^0 = t``, as a ``FreeSolution``.

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


def chart_field(t, phi, disp, nonlin):
    """The Lagrange-Duhamel field ``Vbar_t`` at the free solution ``phi``, as a ``FreeSolution``.

    Samples ``phi`` at ``t``, applies ``N`` to the trace and Green-lifts the
    result from the slice ``t`` (``propagate`` -> ``N`` -> ``green_apply``);
    the Schrodinger source carries the kernel's ``(gamma^0)^{-1} = -i``.
    """
    source = 1.0 if disp.second_order else -1.0j
    trace = propagate(disp, phi.chart_data, t)
    return green_apply(disp, trace.grid, t, source * nonlin.apply(trace.psi))


# ---------------------------------------------------------------------------
# symmetric tensors, one slot at a time
# ---------------------------------------------------------------------------


def contract_slot(f, vec):
    """Polarized evaluation of a ``SymTensor`` with one argument fixed: a degree-(p-1) tensor."""
    if f.degree == 0:
        raise ValueError("cannot contract a degree-0 tensor")
    vec = np.asarray(vec, dtype=float)
    return SymTensor(f.degree - 1, f.dim, f.coeffs[:, _extended_ranks(f.dim, f.degree - 1)] @ vec)


@lru_cache(maxsize=None)
def _extended_ranks(d, p):
    """``(n_p, d)``: the degree-(p+1) rank of ``sorted(K + (j,))``, ranked through ``canonical_indices``."""
    rank = {K: r for r, K in enumerate(map(tuple, canonical_indices(d, p + 1).tolist()))}
    rows = [[rank[tuple(sorted(K + [j]))] for j in range(d)] for K in canonical_indices(d, p).tolist()]
    return np.array(rows, dtype=np.int64)


def eval_homogeneous(f, args):
    """Fully symmetric multilinear evaluation of a ``SymTensor`` on ``degree`` argument vectors."""
    if len(args) != f.degree:
        raise ValueError(f"expected {f.degree} arguments, got {len(args)}")
    for v in args:
        if np.asarray(v).shape != (f.dim,):
            raise ValueError("argument dimension mismatch")
    g = f
    for v in args:
        g = contract_slot(g, v)
    return g.coeffs[:, 0].copy()


def canonical_indices(d, p):
    """``(n_p, p)`` int64: all nondecreasing multi-indices of length p over {0..d-1}, lexicographic."""
    rows = list(combinations_with_replacement(range(d), p))
    return np.array(rows, dtype=np.int64).reshape(len(rows), p)


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


def vertex_tensors(chart, nonlin, t):
    """Degree components ``lam_k B (x) A^{(x) k}`` of the Lagrange-Duhamel field in chart coordinates.

    ``A`` and ``B`` are the chart's sampling rows and Green-lift columns at
    ``t``; each canonical coefficient is the sum over grid nodes of a
    column entry times the product of row entries.
    """
    A, B = chart.rows_and_columns(t)
    out = {}
    for k, lam in nonlin.coeffs.items():
        idx = canonical_indices(chart.dim, k)
        out[k] = SymTensor(k, chart.dim, lam * (B @ A[:, idx].prod(axis=2)))
    return out


def vdot_reference(t, f, nonlin, chart, cap):
    """The operator ``f -> delta f (V_t)`` at one time, from the vertex tensors at that time.

    ``vertex_tensors(chart, nonlin, t)`` forms each ``V_t^(k)`` in full, and
    ``compose_first_slot`` composes each stored degree ``p >= 1`` with each
    ``k`` that keeps ``p + k - 1 <= cap``, scaled by ``p``: one node at a
    time, with no time factor split off the blocks and no rank-one factoring.
    """
    V = vertex_tensors(chart, nonlin, t)
    out = {}
    for term in f.terms:
        p = term.degree
        for k in nonlin.coeffs:
            if p < 1 or p + k - 1 > cap:
                continue
            comp = float(p) * compose_first_slot(term, V[k]).coeffs
            out[p + k - 1] = comp if p + k - 1 not in out else out[p + k - 1] + comp
    return SymFunctional(SymTensor(m, chart.dim, c) for m, c in out.items())


def functional_add(f, g, scale=1.0):
    """f + scale * g, aligning degrees."""
    by_deg = {t.degree: t for t in f.terms}
    for t in g.terms:
        c = scale * t.coeffs
        if t.degree in by_deg:
            c = by_deg[t.degree].coeffs + c
        by_deg[t.degree] = SymTensor(t.degree, t.dim, c)
    return SymFunctional(by_deg.values())


def rk4_transport(f, times, nonlin, chart, substeps=1, cap=DEFAULT_DEGREE_CAP):
    """Classical RK4 on dF/dt = V_t . F: the transported functional at each node of ``times``.

    ``substeps`` equal RK4 steps per interval of the monotone grid ``times``;
    each stage applies the operator through ``vdot_reference``.
    """

    def rhs(tau, F):
        return vdot_reference(tau, F, nonlin, chart, cap)

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

    Each stage is ``chart_field`` at its time.  Returns the chart data at
    every node.
    """
    grid = initial.grid
    chart = make_free_solution(disp, initial).chart_data
    psi, chi = chart.psi, chart.chi
    h = (t2 - t1) / steps

    def rhs(t, psi, chi):
        v = chart_field(t, FreeSolution(CauchyData(grid, psi, chi, 0.0)), disp, nonlin).chart_data
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


def nested_trees_reference(trees, f_linear, u, t1, t2, nonlin, chart, order=8):
    """Tree sum by the nested Gauss-Legendre rule, one point at a time.

    ``tau_j`` runs over [t1, t2] and each ``tau_a`` over [t1, tau_{a+1}] with
    ``order`` nodes per level, recursing from the outermost level inward; at
    each point vertex ``a`` carries ``lam trace(tau_a)^legs`` times the Green
    shifts ``sin(eps dt)/eps`` of its children's fields, and the root pairs
    ``f`` with the Green lift of vertex 1's field.
    """
    (lam,) = nonlin.coeffs.values()
    eps = chart.disp.eps(chart.grid.xi)
    f_row = f_linear.term(1).coeffs[0]
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def integrand(tree, taus):
        children, legs, fields = tree.children(), tree.legs(), {}
        for a in range(tree.order, 0, -1):
            F = propagate(chart.disp, u.chart_data, taus[a - 1]).psi ** legs[a - 1]
            for c in children[a]:
                dt = taus[a - 1] - taus[c - 1]
                F = F * np.fft.ifft(dt * np.sinc(eps * dt / np.pi) * np.fft.fft(fields.pop(c))).real
            fields[a] = lam * F
        return f_row @ (chart.rows_and_columns(taus[0])[1] @ fields[1])

    def nested(tree, level, taus, upper):
        half, mid = 0.5 * (upper - t1), 0.5 * (upper + t1)
        total = 0.0
        for x, w in zip(nodes, weights):
            taus[level - 1] = mid + half * x
            inner = integrand(tree, taus) if level == 1 else nested(tree, level - 1, taus, taus[level - 1])
            total += w * inner
        return total * half

    total = 0.0
    for tree in trees:
        if tree.order == 0:
            total += float(f_row @ chart.coords_of(u))
        else:
            total += tree.multiplicity * nested(tree, tree.order, [0.0] * tree.order, t2)
    return total


def real_dft_reference(M):
    """Orthonormal real Fourier basis built row by row, and each row's |frequency index|.

    Rows: the constant, then cos k and sin k for k = 1 .. M/2 - 1, then Nyquist.
    """
    j = np.arange(M)
    rows, freqs = [np.full(M, 1.0 / math.sqrt(M))], [0]
    for k in range(1, M // 2):
        rows.append(np.sqrt(2.0 / M) * np.cos(2 * np.pi * k * j / M))
        rows.append(np.sqrt(2.0 / M) * np.sin(2 * np.pi * k * j / M))
        freqs += [k, k]
    rows.append(np.cos(np.pi * j) / math.sqrt(M))
    freqs.append(M // 2)
    return np.vstack(rows), np.asarray(freqs)


def power_by_products(u, k):
    """``u**k``, ``k >= 2``, by binary powering: per digit of ``k`` after the first a square, then ``* u`` if it is 1."""
    p = u
    for bit in bin(k)[3:]:
        p = p * p
        if bit == "1":
            p = p * u
    return p
