"""The nonlinear layer: dynamics on the space of free solutions.

A solution ``u`` of ``Lu + N(u) = 0`` is followed through the moving free
solution that shares its Cauchy data at time ``t``.  In the chart
"Cauchy data at the reference time 0" that moving point obeys the ODE

    dc/dt = - Vbar_t(c),      Vbar_t = A_{-t} o script-N o A_t,

where ``A_t`` is the linear propagator on Cauchy data and script-N the
pointwise nonlinearity lifted through the Green structure (interaction
picture).  ``A_t`` is diagonal per Fourier mode, so the chart state is
kept as its modes ``c_k = fft(field) / M``.  A chart field is rank one
over the K rows: ``Vbar_t(c) = back_t * g``, ``g = fft(N(ifft(sigma)))``
the source of the trace ``sigma = sum_K fwd_t * c``, with ``fwd_t`` and
``back_t`` the per-mode factors of ``A_t`` and ``A_{-t}``.  At these grid
sizes a kernel costs calls, not arithmetic, so kernels are lists of
``(ufunc, args)`` calls bound to fixed arrays, and ``evolve`` binds its step
once.  A real field on at most 32 points is transformed by one real matmul
each way with the propagator's DFT matrices, any other by its pocketfft
gufuncs, called directly.
``evolve`` integrates this chart ODE by classical RK4 in trace form: by
linearity the trace of a stage input ``c + a back_s * g`` is ``T_t + a
kappa(t - s) * g``, with ``T_t = sum_K fwd_t * c`` and the lag kernel
``kappa(tau) = sum_K fwd_{s + tau} * back_s``, which depends on the lag
only.  For second-order kinds ``kappa(0) = (snc cos - cos snc) / M`` is
exactly 0, so stage 3 does not wait for stage 2 and a step is two batched
source rounds, stages (1, 3) and then (2, 4); Schrodinger's ``kappa(0) =
-i/M`` is not, and its steps run four rounds of one.  Duhamel's identity

    c(t2) - c(t1) + integral_{t1}^{t2} Vbar_t(c(t)) dt = 0

is used as a residual diagnostic: for an exact solution it vanishes, and
for the RK4 trajectory it decreases at the integrator's order.  A residual
spans its whole trajectory, in steps ``h = times[1] - times[0]``; a dump
samples the field at every node in one batched kernel call and takes SciPy's
equal-step Simpson sums of all prefixes in one pass over those samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    _DENSE_DFT_MAX_M,
    _dft_matrices,
    _energies,
    _fft_gufunc,
    _field,
    _ifft_gufunc,
    _modes,
    _sobolev_norms,
    _wave_factors,
    make_free_solution,
)

__all__ = [
    "NonlinearitySpec",
    "EvolutionState",
    "evolve",
    "duhamel_residual",
    "trajectory_csv",
]


# the complex 0.0 that starts the sum over the K rows of a chart block
_ZERO = np.zeros((), complex)


def _power_calls(u, k, out):
    """``(ufunc, args)`` calls that write ``u**k`` into ``out``: the package's one power rule.

    ``np.square`` for k = 2 (for complex ``u`` not ``np.power(u, 2)``'s
    bits); for float ``u`` and k >= 3, per digit of ``k`` after its leading 1
    a square (the first is ``u * u``), then ``* u`` if it is 1; else ``np.power``.
    """
    if k == 2:
        return [(np.square, (u, out))]
    if k < 3 or u.dtype.kind != "f":
        return [(np.power, (u, np.array(k, u.dtype), out))]
    calls, p = [], u
    for bit in bin(k)[3:]:
        calls.append((np.multiply, (p, p, out)))
        p = out
        if bit == "1":
            calls.append((np.multiply, (out, u, out)))
    return calls


def _run(calls):
    for f, args in calls:
        f(*args)


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

    def _program(self, u, out, term):
        """The N program: ``(ufunc, args)`` calls that write ``N(u)`` into ``out``.

        ``term`` holds each term after the first.  The bits are those of
        ``0.0 + N_k u**k + ...`` in the order of ``coeffs``, with Python
        scalars' bits from 0-d operands of ``u``'s dtype; the ``0.0 +`` turns a
        ``-0.0`` term into ``+0.0``.  A float term skips a coefficient 1.0.
        """
        if not self.coeffs:
            return [(out.fill, (0,))]
        zero, calls = np.zeros((), u.dtype), []
        for i, (k, v) in enumerate(self.coeffs.items()):
            t = term if i else out
            calls += _power_calls(u, k, t)
            # x * 1.0 is x for every float x, but (1 + 0j) * (inf + 0j) is inf + nan j
            if v != 1.0 or u.dtype.kind != "f":
                calls.append((np.multiply, (np.array(v, u.dtype), t, t)))
            calls.append((np.add, (out if i else zero, t, out)))
        return calls

    def apply(
        self, u: np.ndarray, out: np.ndarray | None = None, term: np.ndarray | None = None
    ) -> np.ndarray:
        """``N(u)`` of float or complex ``u``, written into ``out`` and returned.

        Runs the N program once; ``out`` and ``term`` are arrays of ``u``'s
        shape and dtype, new ones when None.
        """
        if out is None:
            out = np.empty(u.shape, u.dtype)
        if term is None and len(self.coeffs) > 1:
            term = np.empty(u.shape, u.dtype)
        _run(self._program(u, out, term))
        return out


@dataclass(frozen=True)
class EvolutionState:
    """The moving free solution at one trajectory node."""

    current: FreeSolution
    time: float
    disp: DispersionRelation
    nonlin: NonlinearitySpec


def _chart_factors(disp: DispersionRelation, grid: Grid, times) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode factors ``(fwd, back)`` of ``A_t`` and ``A_{-t}``, ``(len(times), K, M)`` each.

    Second-order kinds: ``fwd = (cos, snc)`` and ``back = (-snc, cos) / M``
    with ``cos = cos(eps t)`` and ``snc = sin(eps t)/eps``; first-order kinds:
    ``fwd = phase`` and ``back = -i conj(phase) / M`` with ``phase =
    exp(i omega t)``.  ``back`` carries the Green restriction on the source
    slice: second-order kinds lift N(trace) as the Cauchy data (0, g) with
    unit weight, the first-order Schrodinger kernel carries
    ``(gamma^0)^{-1} = -i``.  The one ``1/M`` of the round trip sits in
    ``back``: ``_source`` takes the inverse FFT unscaled, and ``M`` is a
    power of two, so moving the FFT scale between the factors is exact.
    """
    t = np.asarray(times, dtype=float)[:, None]
    M = grid.M
    if disp.second_order:
        cos, snc = _wave_factors(disp.eps(grid.xi), t)
        fwd, back = np.stack([cos, snc], axis=-2), np.stack([-snc, cos], axis=-2)
        back /= M
        return fwd, back
    phase = np.exp(1j * disp.phase(grid.xi) * t)
    return phase[:, None, :], (-1j * phase.conj() / M)[:, None, :]


def _row_sum_calls(prod, real, out):
    """Calls that write the traces ``sum_K prod`` of row products ``(..., K, M)`` into ``out``.

    The rows are summed from +0 as NumPy's sum forms it, (0 + psi row) +
    chi row: the 0 + turns a -0 into +0, a sign that cpow (a complex power
    of degree >= 100) reads.  A real trace skips it: the inverse FFT passes
    the sign of a zero on only to zeros, and N(-0) has the bits of N(+0).
    """
    rows = ([] if real else [_ZERO]) + [prod[..., i, :] for i in range(prod.shape[-2])]
    return [(np.add, (rows[0], rows[1], out))] + [(np.add, (out, row, out)) for row in rows[2:]]


def _trace(fwd, c, real):
    """Mode-space traces ``sum_K fwd * c`` of chart modes ``(..., K, M)``, by ``_row_sum_calls``."""
    prod = fwd * c
    out = np.empty(prod[..., 0, :].shape, complex)
    _run(_row_sum_calls(prod, real, out))
    return out


def _scratch(shape, real):
    """Buffers ``(u, n_out, n_term)`` of ``_source_calls`` for traces of ``shape``.

    The field ``u`` is float for a real field on at most ``_DENSE_DFT_MAX_M``
    points, which selects the dense transforms, else complex; the N
    program's ``out`` and ``term`` are float for a real field.
    """
    dense = real and shape[-1] <= _DENSE_DFT_MAX_M
    return np.empty(shape, float if dense else complex), *np.empty((2, *shape), float if real else complex)


def _source_calls(nonlin, trace, real, out, scratch):
    """Calls that write the modes ``fft(N(ifft(trace)))`` of mode-space traces ``(w, M)`` into ``out``.

    The inverse FFT is unscaled (the trace carries the chart modes' ``1/M``);
    ``real`` takes the field's real part, as the propagator does for real
    Klein-Gordon data.  ``scratch`` of ``_scratch`` holds the field and the N
    program's ``out`` and ``term``; N runs on flat views, where a strided real
    part costs no iterator.  A float field is transformed by one matmul each
    way with the propagator's ``_dft_matrices``, on the (re, im) float views
    of ``trace`` and ``out``; ``w >= 2`` keeps it on gemm, whose rows do not
    depend on the others.  A complex field calls the pocketfft gufuncs.
    """
    u, n_out, _ = scratch
    field, n_flat, term = (a.reshape(-1) for a in scratch)
    if u.dtype.kind == "f":
        inv, fwd = _dft_matrices(u.shape[-1])
        return [
            (np.matmul, (trace.view(float), inv, u)),
            *nonlin._program(field, n_flat, term),
            (np.matmul, (n_out, fwd, out.view(float))),
        ]
    return [
        (_ifft_gufunc, (trace, 1.0, u)),
        *nonlin._program(field.real if real else field, n_flat, term),
        (_fft_gufunc, (n_out, 1.0, out)),
    ]


def _source(nonlin, trace, real):
    """Modes ``fft(N(ifft(trace)))`` of mode-space traces ``(n, M)``, by ``_source_calls``.

    One trace runs twice over: NumPy sends a one-row matmul to gemv, which
    rounds unlike gemm, and a node's bits must not depend on the nodes
    sampled with it.
    """
    n = len(trace)
    if n == 1:
        trace = np.concatenate([trace, trace])
    out = np.empty(trace.shape, complex)
    _run(_source_calls(nonlin, trace, real, out, _scratch(trace.shape, real)))
    return out[:n]


def _chart_field(nonlin, fwd, back, c, real):
    """Chart modes of ``Vbar_t(c) = A_{-t} o script-N o A_t (c)`` at every time of the factors.

    ``c`` holds chart modes ``fft(field) / M`` stacked as ``(..., K, M)``
    with rows (psi, chi) for second-order kinds and (psi,) for first-order
    ones; ``fwd`` and ``back`` are factors of ``_chart_factors``, one
    ``(K, M)`` block per time, and broadcast against ``c``.
    """
    return back * _source(nonlin, _trace(fwd, c, real), real)[..., None, :]


def _chart_modes(disp: DispersionRelation, datas: list[CauchyData]) -> tuple[np.ndarray, bool]:
    """Chart modes of Cauchy data stacked as ``(len(datas), K, M)``, and whether all are real.

    A first-order kind has no chi row; ``real`` is only ever True for the
    second-order kind.
    """
    grid = datas[0].grid
    if not disp.second_order:
        fields = np.array([d.psi for d in datas])[:, None, :]
        return _modes(grid, fields), False
    if any(d.chi is None for d in datas):
        raise ValueError("klein_gordon data needs a velocity trace")
    fields = np.array([(d.psi, d.chi) for d in datas])
    return _modes(grid, fields), np.isrealobj(fields)


def _steps(initial, t1, t2, dt):
    """Step count and signed step of ``[t1, t2]`` at step size ``dt``, for data anchored at ``t1``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if initial.t != t1:
        raise ValueError("initial data must be anchored at t1")
    n = round(abs(t2 - t1) / dt)
    if n and abs(abs(t2 - t1) / n - dt) > 1e-9 * dt:
        raise ValueError("dt must divide |t2 - t1|")
    return n, (t2 - t1) / n if n else 0.0


def evolve(
    initial: CauchyData,
    t1: float,
    t2: float,
    dt: float,
    disp: DispersionRelation,
    nonlin: NonlinearitySpec,
) -> list[EvolutionState]:
    """Classical RK4 on the chart ODE in trace form; returns the trajectory at every node.

    With ``T_i`` the trace of ``c`` at stage time ``t1 + (j + i) h/2``, ``g_i``
    the source of stage trace ``sigma_i`` and ``kappa`` signed as ``-Vbar``:
    ``sigma_1 = T_0``, ``sigma_2 = T_1 + h/2 kappa(h/2) g_1``, ``sigma_3 = T_1
    + h/2 kappa(0) g_2``, ``sigma_4 = T_2 + h kappa(h/2) g_3``, and the step
    adds ``(B_j g_1 + B_{j+1} (g_2 + g_3)) + B_{j+2} g_4``, ``B = -back`` times
    ``h/6`` at nodes and ``h/3`` at midpoints.  A step is two batched source
    rounds where the computed ``kappa(0)`` is zero, else four, from one rounds
    table.  It runs the factor product on a read-only view of its three
    factor rows, one flat tuple of calls bound once (traces, rounds, ``g_2 +
    g_3``) and the update: 20 NumPy calls for cubic Klein-Gordon, whose
    real field on at most 32 points is transformed by matmul.  The loop
    allocates nothing; the states' rows are rows of one read-only array.
    Node ``i`` sits at ``t1 + i h``; the loop stops at the first step whose
    modes are not finite, and ``FloatingPointError`` names the first step
    whose fields are not finite.
    """
    n, h = _steps(initial, t1, t2, dt)
    chart = make_free_solution(disp, initial).chart_data
    grid = chart.grid
    out = [EvolutionState(FreeSolution(chart), t1, disp, nonlin)]
    if not n:
        return out
    modes, real = _chart_modes(disp, [chart])
    c = modes[0]
    # a huge span overflows the factors and nodes, which FloatingPointError reports
    with np.errstate(over="ignore", invalid="ignore"):
        fwd, back = _chart_factors(disp, grid, t1 + h / 2 * np.arange(2 * n + 1))
        # dc/dt = -Vbar_t(c): the sign and the RK4 weights ride on the factors of A_{-t}
        back[0::2] *= -h / 6
        back[1::2] *= -h / 3
        lag_fwd, lag_back = _chart_factors(disp, grid, [0.0, h / 2])
        kappa0, kappa1 = -np.sum(lag_fwd * lag_back[0], axis=-2)
        # sources in rows (g1, g3, g2, -, g4): g[0::2] is (g1, g2 + g3, g4) once
        # g3 is added to g2
        prods = np.empty((3, *c.shape), complex)
        traces = np.empty((3, grid.M), complex)
        g = np.empty((5, grid.M), complex)
        slopes = np.empty((3, *c.shape), complex)
        # (trace, coefficient, source it multiplies, destination) per round
        coef = np.array([h / 2 * kappa1, h * kappa1, h / 2 * kappa0], complex)
        if not kappa0.any():
            rounds = [(traces[0:2], None, None, g[0:2]), (traces[1:3], coef[0:2], g[0:2], g[2::2])]
        else:
            rounds = [(traces[0:1], None, None, g[0:1]), (traces[1:2], coef[0:1], g[0:1], g[2:3])]
            rounds += [(traces[1:2], coef[2:3], g[2:3], g[1:2]), (traces[2:3], coef[1:2], g[1:2], g[4:5])]
        stage = np.empty((len(rounds[0][0]), grid.M), complex)
        scratch = _scratch(stage.shape, real)
        # a step's calls after the factor product
        calls = _row_sum_calls(prods, real, traces)
        for trace, a, prev, dest in rounds:
            if a is not None:
                calls += [(np.multiply, (a, prev, stage)), (np.add, (trace, stage, stage))]
                trace = stage
            calls += _source_calls(nonlin, trace, real, dest, scratch)
        calls = tuple(calls + [(np.add, (g[2], g[1], g[2]))])
        # each step's rows (j, j + 1, j + 2) of the factors, j = 2 step, as read-only views
        fwds, backs = (np.moveaxis(sliding_window_view(x, 3, axis=0)[::2], -1, 1) for x in (fwd, back))
        multiply, add, isfinite = np.multiply, np.add, np.isfinite
        add_reduce, all_of = np.add.reduce, np.logical_and.reduce
        sources = g[0::2, None, :]
        is_finite = np.empty(c.shape, bool)
        nodes = np.empty((n, *c.shape), complex)
        for step, (fw, bk, node) in enumerate(zip(fwds, backs, nodes)):
            multiply(fw, c, prods)
            for f, args in calls:
                f(*args)
            # B_j g1 + B_{j+1} (g2 + g3) + B_{j+2} g4
            multiply(bk, sources, slopes)
            c = add(c, add_reduce(slopes, 0, None, node), node)
            if not all_of(isfinite(c, is_finite), None):
                nodes = nodes[: step + 1]
                break
        fields = np.ascontiguousarray(_field(grid, nodes, real))
    finite = np.all(np.isfinite(nodes), axis=(1, 2)) & np.all(np.isfinite(fields), axis=(1, 2))
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise FloatingPointError(f"field values diverged at step {step} (t = {t1 + step * h})")
    fields.setflags(write=False)
    # frozen states built as CauchyData._frozen builds its data, with no check
    for step, f in enumerate(fields, 1):
        data, state = object.__new__(FreeSolution), object.__new__(EvolutionState)
        data.__dict__["chart_data"] = CauchyData._frozen(grid, *f)
        state.__dict__.update(current=data, time=t1 + step * h, disp=disp, nonlin=nonlin)
        out.append(state)
    return out


def duhamel_residual(traj: list[EvolutionState]) -> tuple[float, float]:
    """Cauchy norm at ``s = 0``, ``m_ref = 1`` of c(t_n) - c(t_0) + Quad(integral of Vbar) over the
    whole trajectory.

    The span is the trajectory's own, at least 3 nodes in steps ``h = times[1] - times[0]``.
    Quad is composite Simpson, the last row of ``_prefix_simpson``; the second return value
    is its error estimate: the Richardson difference / 15 against a coarse Simpson pass on
    every second node (step ``2h``) when the node count allows one, else the conservative
    Simpson-vs-trapezoid gap.
    """
    if len(traj) < 3:
        raise ValueError("the Duhamel residual needs a trajectory of at least 3 nodes")
    disp, grid = traj[0].disp, traj[0].current.chart_data.grid
    times, c, v = _field_samples(traj)
    h = times[1] - times[0]
    fine = _prefix_simpson(h, v)[-1]
    res = c[-1] - c[0] + fine
    if (len(times) - 1) % 2 == 0 and len(times) >= 5:
        err = (fine - _prefix_simpson(2 * h, v[::2])[-1]) / 15.0
    else:
        err = fine - np.trapezoid(v, dx=h, axis=0)
    norms = _cau_norms(disp, grid, np.array([res, err]), 0.0, 1.0)
    return float(norms[0]), float(norms[1])


def _field_samples(nodes: list[EvolutionState]):
    """Node times, chart modes and the chart field at every node, from one kernel call.

    Returns ``(times, c, v)``, ``c`` and ``v`` stacked ``(n, K, M)`` as in ``_chart_field``.
    """
    disp, nonlin = nodes[0].disp, nodes[0].nonlin
    grid = nodes[0].current.chart_data.grid
    times = np.array([st.time for st in nodes])
    c, real = _chart_modes(disp, [st.current.chart_data for st in nodes])
    return times, c, _chart_field(nonlin, *_chart_factors(disp, grid, times), c, real)


def _prefix_simpson(h, v):
    """SciPy's ``simpson(v[:n], dx=h, axis=0)`` for every ``n = 3 .. len(v)``, stacked.

    SciPy sums ``v[2j] + 4 v[2j + 1] + v[2j + 2]`` over the node pairs and scales by ``h / 3``;
    an even ``n`` stops one pair short and adds ``0.0 +`` Cartwright's last-interval correction,
    from two spacings both ``h``.  A cumulative sum gives every row with SciPy's bits.
    """
    n = len(v)
    e = 2 * ((n - 1) // 2)
    pairs = v[0:e:2] + 4.0 * v[1:e:2] + v[2 : e + 1 : 2]
    partial = np.cumsum(pairs, axis=0) * (h / 3.0)
    out = np.empty((n - 2, *v.shape[1:]), dtype=partial.dtype)
    # odd n = 2j + 3: pairs 0..j; even n = 2j + 4: pairs 0..j, then nodes 2j + 1 .. 2j + 3
    out[0::2] = partial
    e = 2 * ((n - 2) // 2)
    alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
    beta = (h**2 + 3.0 * h * h) / (6 * h)
    eta = h**3 / (6 * h * (h + h))
    last = alpha * v[3 : e + 3 : 2] + beta * v[2 : e + 2 : 2] - eta * v[1 : e + 1 : 2]
    out[1::2] = partial[: e // 2] + last + 0.0
    return out


def _cau_norms(disp, grid, modes, s, m_ref):
    """``cau_norm`` of every ``(K, M)`` block of stacked chart modes."""
    chi = modes[:, 1] if disp.second_order else None
    return _sobolev_norms(grid, modes[:, 0], chi, s, disp.r_order, m_ref)


# ---------------------------------------------------------------------------
# trajectory dump
# ---------------------------------------------------------------------------


def trajectory_csv(
    traj: list[EvolutionState], s: float = 0.0, m_ref: float = 1.0
) -> tuple[list[str], list[tuple[float, float, float, float]]]:
    """Column names and rows of the trajectory dump, one row of Python floats per node.

    Columns: (t, cau_norm, energy, duhamel_residual_running).  ``cau_norm``
    is the chart norm: the Cauchy norm of the node's data pulled back to
    t = 0 by the free flow, the norm the certificate's radii bound, where
    ``propagate.csv`` reports the norm of the data at t under that name.

    The running residual of row i is the Duhamel residual of ``traj[:i+1]`` in the Cauchy norm
    at ``(s, m_ref)``: at ``s = 0, m_ref = 1`` it equals ``duhamel_residual(traj[:i+1])``, and
    the last row gives the whole residual in any other norm.  One batched kernel call samples
    the chart field at every node, one pass of ``_prefix_simpson`` on the step ``times[1] -
    times[0]`` gives the Simpson sums of all prefixes, and norms and energies are taken on all
    rows at once.  The numbers are returned as computed, without a warning and without raising:
    a cell may be non-finite, and the energy is nan on every row for a first-order kind, whose
    energy is not defined.
    """
    disp = traj[0].disp
    grid = traj[0].current.chart_data.grid
    with np.errstate(all="ignore"):
        times, c, v = _field_samples(traj)
        norms = _cau_norms(disp, grid, c, s, m_ref)
        if disp.second_order:
            energies = _energies(disp, grid, c[:, 0], c[:, 1])
        else:
            energies = np.full(len(traj), np.nan)
        running = np.zeros(len(traj))
        if len(traj) > 2:
            prefixes = c[2:] - c[0] + _prefix_simpson(times[1] - times[0], v)
            running[2:] = _cau_norms(disp, grid, prefixes, s, m_ref)
    rows = list(zip([st.time for st in traj], norms.tolist(), energies.tolist(), running.tolist()))
    return ["t", "cau_norm", "energy", "duhamel_residual_running"], rows
