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
``back_t`` the per-mode factors of ``A_t`` and ``A_{-t}``.  One private
kernel, ``_source``, applies ``N`` in mode space through the propagator's
``_ifft`` and ``_fft``, which skip ``numpy.fft``'s argument handling.
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
for the RK4 trajectory it decreases at the integrator's order.  The
running residual of a trajectory dump samples the vector field at every
node with one batched kernel call and takes the composite Simpson sums of
all prefixes in one cumulative pass over those samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagator import (
    CauchyData,
    DispersionRelation,
    FreeSolution,
    Grid,
    _energies,
    _fft,
    _field,
    _ifft,
    _modes,
    _sobolev_norms,
    _wave_factors,
    make_free_solution,
)

__all__ = [
    "NonlinearitySpec",
    "EvolutionState",
    "DivergenceError",
    "evolve",
    "duhamel_residual",
    "trajectory_csv",
]


# the complex 0.0 that starts the sum over the K rows of a chart block
_ZERO = np.zeros((), complex)


class DivergenceError(RuntimeError):
    """Raised when field values overflow during time stepping."""


def _power_by_products(u, bits, out):
    """``u**k`` into ``out``: per digit of ``k`` after its leading 1 (``bits``) a square, then ``* u`` if 1."""
    np.multiply(u, u, out=out)
    for i, bit in enumerate(bits):
        if i:
            np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, u, out=out)
    return out


@dataclass(frozen=True)
class NonlinearitySpec:
    """Scalar autonomous nonlinearity ``N(u) = sum_k N_k u^k`` (no du dependence)."""

    coeffs: dict[int, float]

    def __init__(self, coeffs: dict[int, float]):
        clean = {int(k): float(v) for k, v in coeffs.items() if v != 0.0}
        if any(k < 0 for k in clean):
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_operands_by_dtype", {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def _operands(self, dtype: np.dtype):
        """The 0-d ``0.0`` that starts the sum and ``((power, args), N_k)`` per term, in ``dtype``.

        Built once per dtype.  ``u**k`` is ``np.square`` for k = 2 (for
        complex ``u`` not ``np.power(u, 2)``'s bits), products for float
        ``u`` and k >= 3, ``np.power`` otherwise.
        """
        ops = self._operands_by_dtype.get(dtype)
        if ops is None:

            def power(k):
                if k == 2:
                    return np.square, ()
                if k > 2 and dtype.kind == "f":
                    return _power_by_products, (bin(k)[3:],)
                return np.power, (np.array(k, dtype),)

            terms = [(power(k), np.array(v, dtype)) for k, v in self.coeffs.items()]
            ops = self._operands_by_dtype[dtype] = (np.zeros((), dtype), terms)
        return ops

    def apply(
        self, u: np.ndarray, out: np.ndarray | None = None, term: np.ndarray | None = None
    ) -> np.ndarray:
        """``N(u)`` of float or complex ``u``, written into ``out`` and returned.

        ``out`` and ``term`` are arrays of ``u``'s shape and dtype, new ones
        when None; ``term`` holds each term after the first.  The bits are
        those of ``0.0 + N_k u**k + ...`` in the order of ``coeffs``: every
        operand is a 0-d array of ``u``'s dtype, which gives a Python
        scalar's bits without its conversion on every call.  The sum starts
        from ``0.0``, so a ``-0.0`` term comes out ``+0.0``.
        """
        zero, terms = self._operands(u.dtype)
        if out is None:
            out = np.empty(u.shape, u.dtype)
        if not terms:
            out.fill(0)
            return out
        if term is None and len(terms) > 1:
            term = np.empty(u.shape, u.dtype)
        for i, ((power, args), v) in enumerate(terms):
            t = term if i else out
            power(u, *args, out=t)
            np.multiply(v, t, out=t)
            np.add(out if i else zero, t, out=out)
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


def _trace(fwd, c, real, prod=None, out=None):
    """Mode-space traces ``sum_K fwd * c`` of chart modes ``(..., K, M)``, into ``prod`` and ``out``.

    The rows are summed from +0 as NumPy's sum forms it, (0 + psi row) +
    chi row: the 0 + turns a -0 into +0, a sign that cpow (a complex power
    of degree >= 100) reads.  A real trace skips it: the inverse FFT passes
    the sign of a zero on only to zeros, and N(-0) has the bits of N(+0).
    """
    prod = np.multiply(fwd, c, out=prod)
    if real:
        return np.add(prod[..., 0, :], prod[..., 1, :], out=out)
    out = np.add(_ZERO, prod[..., 0, :], out=out)
    if prod.shape[-2] == 2:
        np.add(out, prod[..., 1, :], out=out)
    return out


def _source(nonlin, trace, real, out=None, scratch=(None, None, None)):
    """Modes ``fft(N(ifft(trace)))`` of mode-space traces ``(..., M)``, into ``out`` if given.

    The inverse FFT is unscaled (the trace carries the chart modes' ``1/M``);
    ``real`` takes the field's real part, as the propagator does for real
    Klein-Gordon data.  ``scratch = (u, n_out, n_term)`` holds the field and
    ``N.apply``'s ``out`` and ``term``, new where None.
    """
    u, n_out, n_term = scratch
    u = _ifft(trace, 1.0, out=u)
    return _fft(nonlin.apply(u.real if real else u, n_out, n_term), out=out)


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
    ``h/6`` at nodes and ``h/3`` at midpoints.  A step is two batched
    ``_source`` rounds where the computed ``kappa(0)`` is zero, else four.
    The loop allocates nothing; the states' rows are rows of one read-only
    array.  Node ``i`` sits at ``t1 + i h``; the loop stops at the first step
    whose modes are not finite, and ``DivergenceError`` names the first step
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
    # a huge span overflows the factors and nodes, which DivergenceError reports
    with np.errstate(over="ignore", invalid="ignore"):
        fwd, back = _chart_factors(disp, grid, t1 + h / 2 * np.arange(2 * n + 1))
        # dc/dt = -Vbar_t(c): the sign and the RK4 weights ride on the factors of A_{-t}
        back[0::2] *= -h / 6
        back[1::2] *= -h / 3
        lag_fwd, lag_back = _chart_factors(disp, grid, [0.0, h / 2])
        kappa0, kappa1 = -np.sum(lag_fwd * lag_back[0], axis=-2)
        # sources in rows (g1, g3, g2, -, g4): g[0::2] is (g1, g2 + g3, g4) once
        # g3 is added to g2; a round's trace is formed in _source's scratch u
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
        width = len(rounds[0][0])
        u = np.empty((width, grid.M), complex)
        scratch = (u, *np.empty((2, width, grid.M), float if real else complex))
        is_finite = np.empty(c.shape, bool)
        nodes = np.empty((n, *c.shape), complex)
        for step in range(n):
            j = 2 * step
            _trace(fwd[j : j + 3], c, real, prods, traces)
            for trace, a, prev, dest in rounds:
                if a is not None:
                    trace = np.add(trace, np.multiply(a, prev, out=u), out=u)
                _source(nonlin, trace, real, dest, scratch)
            # g2 + g3, then B_j g1 + B_{j+1} (g2 + g3) + B_{j+2} g4
            np.add(g[2], g[1], out=g[2])
            np.multiply(back[j : j + 3], g[0::2, None, :], out=slopes)
            c = np.add(c, np.add.reduce(slopes, axis=0, out=nodes[step]), out=nodes[step])
            if not np.isfinite(c, out=is_finite).all():
                nodes = nodes[: step + 1]
                break
        fields = np.ascontiguousarray(_field(grid, nodes, real))
    finite = np.all(np.isfinite(nodes), axis=(1, 2)) & np.all(np.isfinite(fields), axis=(1, 2))
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        raise DivergenceError(f"field values diverged at step {step} (t = {t1 + step * h})")
    fields.setflags(write=False)
    for step, f in enumerate(fields, 1):
        data = FreeSolution(CauchyData._frozen(grid, *f))
        out.append(EvolutionState(data, t1 + step * h, disp, nonlin))
    return out


def _window(traj: list[EvolutionState], t1: float, t2: float) -> list[EvolutionState]:
    """The nodes of ``traj`` with times in ``[min(t1, t2), max(t1, t2)]``, give or take 1e-12."""
    lo, hi = min(t1, t2) - 1e-12, max(t1, t2) + 1e-12
    return [st for st in traj if lo <= st.time <= hi]


def duhamel_residual(
    traj: list[EvolutionState],
    t1: float,
    t2: float,
    s: float = 0.0,
    m_ref: float = 1.0,
) -> tuple[float, float]:
    """Cauchy norm of c(t2) - c(t1) + Quad(integral of Vbar) over the nodes.

    Quad is composite Simpson, the last row of ``_prefix_simpson``; the
    second return value is its own error estimate.  When the node count
    allows a coarse (every-second-node) Simpson pass the estimate is the
    Richardson difference / 15; otherwise the conservative
    Simpson-vs-trapezoid gap is reported.
    """
    nodes = _window(traj, t1, t2)
    if len(nodes) < 3:
        raise ValueError("trajectory must cover [t1, t2] with at least 3 nodes")
    disp, grid = nodes[0].disp, nodes[0].current.chart_data.grid
    times, c, v = _field_samples(nodes)
    fine = _prefix_simpson(times, v)[-1]
    res = c[-1] - c[0] + fine
    if (len(times) - 1) % 2 == 0 and len(times) >= 5:
        err = (fine - _prefix_simpson(times[::2], v[::2])[-1]) / 15.0
    else:
        err = fine - np.trapezoid(v, x=times, axis=0)
    norms = _cau_norms(disp, grid, np.array([res, err]), s, m_ref)
    return float(norms[0]), float(norms[1])


def _field_samples(nodes: list[EvolutionState]):
    """Node times, chart modes and the chart field at every node, from one kernel call.

    Returns ``(times, c, v)`` with ``c`` and ``v`` stacked ``(n, K, M)`` as
    in ``_chart_field``.
    """
    disp, nonlin = nodes[0].disp, nodes[0].nonlin
    grid = nodes[0].current.chart_data.grid
    times = np.array([st.time for st in nodes])
    c, real = _chart_modes(disp, [st.current.chart_data for st in nodes])
    return times, c, _chart_field(nonlin, *_chart_factors(disp, grid, times), c, real)


def _guarded_divide(a, b):
    """``a / b`` where ``b != 0`` and 0 elsewhere, as SciPy's Simpson weights divide."""
    return np.true_divide(a, b, out=np.zeros_like(b), where=b != 0)


def _prefix_simpson(times, v):
    """``scipy.integrate.simpson(v[:n], x=times[:n], axis=0)`` for every ``n = 3 .. len(times)``, stacked.

    SciPy's composite Simpson sum over ``n`` nodes adds one term per node
    pair ``(2j, 2j + 1, 2j + 2)`` that does not depend on ``n``; an even
    ``n`` stops one pair short and adds Cartwright's correction for its
    last interval.  The pair terms are formed once, term for term as
    ``scipy.integrate._quadrature._basic_simpson`` forms them, and summed
    cumulatively, so one pass gives every row with SciPy's bits.  The added
    ``0.0`` gives a zero sum SciPy's ``+0.0``.
    """
    n = len(times)
    h = np.diff(times)[:, None, None]
    # pair j: spacings h0 = h[2j] and h1 = h[2j + 1]
    e = 2 * ((n - 1) // 2)
    h0, h1 = h[0:e:2], h[1:e:2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = _guarded_divide(h0, h1)
    pairs = hsum / 6.0 * (
        v[0:e:2] * (2.0 - _guarded_divide(1.0, h0divh1))
        + v[1:e:2] * (hsum * _guarded_divide(hsum, hprod))
        + v[2 : e + 1 : 2] * (2.0 - h0divh1)
    )
    partial = np.cumsum(pairs, axis=0) + 0.0
    out = np.empty((n - 2, *v.shape[1:]), dtype=partial.dtype)
    # odd n = 2j + 3: pairs 0..j
    out[0::2] = partial
    # even n = 2j + 4: pairs 0..j, then the last interval with h0 = h[2j + 1], h1 = h[2j + 2]
    e = 2 * ((n - 2) // 2)
    h0, h1 = h[1:e:2], h[2 : e + 1 : 2]
    alpha = _guarded_divide(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _guarded_divide(h1**2 + 3.0 * h0 * h1, 6 * h0)
    eta = _guarded_divide(h1**3, 6 * h0 * (h0 + h1))
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
) -> tuple[str, list[str]]:
    """Header and rows of the trajectory dump, one row per node.

    Columns: (t, cau_norm, energy, duhamel_residual_running).  ``cau_norm``
    is the chart norm: the Cauchy norm of the node's data pulled back to
    t = 0 by the free flow, the norm the certificate's radii bound, where
    ``propagate.csv`` reports the norm of the data at t under that name.

    The running residual of row i is ``duhamel_residual(traj[:i+1], t_0, t_i)``.
    One batched kernel call samples the chart field at every node, one
    cumulative pass (``_prefix_simpson``) gives the composite Simpson sums
    of all prefixes, and norms and energies are taken on all rows at once.
    ``FloatingPointError`` names the first row whose time, norm, running
    residual or (second-order kinds) energy is not finite; the Schrodinger
    energy column is nan by definition.
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
            running[2:] = _cau_norms(disp, grid, c[2:] - c[0] + _prefix_simpson(times, v), s, m_ref)
    checked = [times, norms, running] + ([energies] if disp.second_order else [])
    finite = np.isfinite(np.array(checked)).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FloatingPointError(
            f"trajectory row at t = {float(times[i])!r}: cau_norm {float(norms[i])!r}, "
            f"energy {float(energies[i])!r}, duhamel_residual_running {float(running[i])!r}"
        )
    lines = [
        f"{st.time!r},{nrm!r},{en!r},{res!r}"
        for st, nrm, en, res in zip(traj, norms.tolist(), energies.tolist(), running.tolist())
    ]
    return "t,cau_norm,energy,duhamel_residual_running", lines
